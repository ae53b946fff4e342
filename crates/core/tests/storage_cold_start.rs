//! Storage cold-start differential suite: an engine reloaded from a
//! `gcore-store` backend must answer the paper's §3/§5 corpus — and an
//! SNB-1000 workload — canonically identically to the in-memory engine
//! it was saved from.
//!
//! Comparison uses the same canonicalizer as the concurrency suite
//! (`common/mod.rs`): the reloaded engine's identifier generator
//! restarts at the stored watermark, so statement evaluation draws
//! different (but order-isomorphic) fresh identifiers; renumbering
//! above a *shared* watermark absorbs exactly that. Shared identities
//! (the stored graphs' elements) must match raw.

mod common;

use common::{canon_result, corpus_texts, prepared_engine};
use gcore::Engine;
use gcore_repro::corpus;
use gcore_snb::{generate, SnbConfig};
use gcore_store::{DirBackend, MemBackend, StorageBackend};

/// A unique scratch directory removed on drop (std-only tempdir).
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "gcore-cold-start-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Run every statement sequentially and canonicalize with `watermark`.
fn run_canon(engine: &mut Engine, texts: &[&str], watermark: u64) -> Vec<String> {
    texts
        .iter()
        .map(|t| canon_result(&engine.run(t), watermark))
        .collect()
}

/// The cold-start differential itself, against any backend: save the
/// prepared guided-tour engine, reload it, and replay the full corpus
/// on both. The watermark is the *reloaded* engine's generator start —
/// it sits above every stored identity on both sides and below every
/// fresh identifier either engine draws, so one value canonicalizes
/// both runs.
fn corpus_cold_start_matches(backend: &dyn StorageBackend) {
    let mut warm = prepared_engine();
    warm.save_to(backend).expect("save");
    let mut cold = Engine::open_from(backend).expect("open");

    // Same graphs, same default, identical stored content.
    assert_eq!(cold.catalog().graph_names(), warm.catalog().graph_names());
    assert_eq!(
        cold.catalog().default_graph_name(),
        warm.catalog().default_graph_name()
    );
    for name in warm.catalog().graph_names() {
        let a = warm.graph(&name).unwrap();
        let b = cold.graph(&name).unwrap();
        a.same_as(&b)
            .unwrap_or_else(|d| panic!("graph {name}: {d}"));
    }

    let watermark = cold.catalog().ids().peek();
    assert!(
        watermark <= warm.catalog().ids().peek(),
        "reload can only rewind the generator, never advance it"
    );

    let texts = corpus_texts();
    let reference = run_canon(&mut warm, &texts, watermark);
    let reloaded = run_canon(&mut cold, &texts, watermark);
    for (i, (a, b)) in reference.iter().zip(&reloaded).enumerate() {
        assert_eq!(
            a,
            b,
            "corpus statement {i} ({}) diverged after cold start",
            corpus::ALL[i].id
        );
    }
}

#[test]
fn corpus_cold_start_matches_in_memory_mem_backend() {
    corpus_cold_start_matches(&MemBackend::new());
}

#[test]
fn corpus_cold_start_matches_in_memory_dir_backend() {
    let tmp = TempDir::new("corpus");
    corpus_cold_start_matches(&DirBackend::new(&tmp.0).unwrap());
}

/// SNB-1000: persist the generated network, cold-start from disk, and
/// compare a mixed read workload (scans, joins, reachability, shortest
/// paths) statement by statement.
#[test]
fn snb_1000_cold_start_serves_identical_results() {
    const SNB_QUERIES: &[&str] = &[
        "SELECT n.personId AS id, n.firstName AS name MATCH (n:Person) WHERE n.personId < 40",
        "CONSTRUCT (n)-[e]->(m) MATCH (n:Person)-[e:knows]->(m:Person) WHERE n.personId < 30",
        "CONSTRUCT (m) MATCH (n:Person)-/<:knows*>/->(m:Person) WHERE n.personId = 0",
        "CONSTRUCT (n)-/@p:sp/->(m) \
         MATCH (n:Person)-/p <:knows*>/->(m:Person) WHERE n.personId = 1",
        "CONSTRUCT (t) MATCH (n:Person)-[:hasInterest]->(t:Tag) WHERE n.personId < 25",
    ];

    let mut warm = Engine::new();
    let data = generate(&SnbConfig::scale(1000), &warm.catalog().ids().clone());
    warm.register_graph("snb", data.graph);
    warm.set_default_graph("snb");

    let tmp = TempDir::new("snb1000");
    let backend = DirBackend::new(&tmp.0).unwrap();
    warm.save_to(&backend).expect("save snb");
    let mut cold = Engine::open_from(&backend).expect("open snb");

    warm.graph("snb")
        .unwrap()
        .same_as(&cold.graph("snb").unwrap())
        .expect("stored SNB graph identical");

    let watermark = cold.catalog().ids().peek();
    let reference = run_canon(&mut warm, SNB_QUERIES, watermark);
    let reloaded = run_canon(&mut cold, SNB_QUERIES, watermark);
    for (i, (a, b)) in reference.iter().zip(&reloaded).enumerate() {
        assert_eq!(a, b, "SNB statement {i} diverged after cold start");
    }
}

/// Saving twice from independently reconstructed engines produces
/// byte-identical stores — the writer-determinism guarantee, observed
/// end to end through the engine API.
#[test]
fn independent_saves_are_byte_identical() {
    let a = MemBackend::new();
    let b = MemBackend::new();
    prepared_engine().save_to(&a).unwrap();
    prepared_engine().save_to(&b).unwrap();
    let keys = a.list().unwrap();
    assert_eq!(keys, b.list().unwrap());
    assert!(!keys.is_empty());
    for key in keys {
        assert_eq!(
            a.get_bytes(&key).unwrap(),
            b.get_bytes(&key).unwrap(),
            "object {key} differs between independent saves"
        );
    }
}

/// Save → restart → the snapshot epoch never regresses: the manifest
/// records the saving engine's epoch and `open_from` resumes there, so
/// a client of a restarted server that had observed epoch `e` can
/// never be handed an epoch `< e` (the PR 5 epoch-restart fix).
#[test]
fn save_restart_epoch_is_monotone() {
    let warm = prepared_engine();
    let saved_epoch = warm.snapshot_epoch();
    assert!(saved_epoch > 0, "fixture commits must have advanced it");

    let backend = MemBackend::new();
    warm.save_to(&backend).unwrap();
    let mut cold = Engine::open_from(&backend).unwrap();
    assert_eq!(cold.snapshot_epoch(), saved_epoch);

    // Writes on the restarted engine keep climbing from there.
    cold.run("GRAPH VIEW after_restart AS (CONSTRUCT (n) MATCH (n))")
        .unwrap();
    assert!(cold.snapshot_epoch() > saved_epoch);

    // Hot reload on a live engine is monotone from whichever side is
    // ahead: the live engine here has advanced past the store.
    let live_epoch = cold.snapshot_epoch();
    let reloaded_epoch = cold.reload_from(&backend).unwrap();
    assert!(reloaded_epoch > live_epoch);
    assert_eq!(cold.snapshot_epoch(), reloaded_epoch);
    // The reload really swapped the catalog back to the stored state.
    assert!(!cold.catalog().has_graph("after_restart"));
}

/// Save → reload → save again: the second store equals the first
/// (stability under a full round trip).
#[test]
fn save_reload_save_is_stable() {
    let first = MemBackend::new();
    prepared_engine().save_to(&first).unwrap();
    let reloaded = Engine::open_from(&first).unwrap();
    let second = MemBackend::new();
    reloaded.save_to(&second).unwrap();
    assert_eq!(first.list().unwrap(), second.list().unwrap());
    for key in first.list().unwrap() {
        assert_eq!(
            first.get_bytes(&key).unwrap(),
            second.get_bytes(&key).unwrap(),
            "object {key} changed across a reload cycle"
        );
    }
}

/// SNB-1000 plus views, saved to disk and reopened: every graph's
/// planner statistics, and the plans `EXPLAIN` renders for a mix the
/// planner reorders, are the saving engine's.
#[test]
fn snb_1000_cold_start_plans_as_the_saving_engine_did() {
    const VIEWS: &[&str] = &[
        "GRAPH VIEW mv0 AS (CONSTRUCT (n)-[e]->(m) \
         MATCH (n:Person)-[e:knows]->(m:Person) WHERE n.personId < 400)",
        "GRAPH VIEW interests AS (CONSTRUCT (n)-[e]->(t) \
         MATCH (n:Person)-[e:hasInterest]->(t:Tag) WHERE n.personId < 300)",
        "GRAPH VIEW fof AS (CONSTRUCT (n)-[:fof]->(k) \
         MATCH (n:Person)-[:knows]->(m:Person)-[:knows]->(k:Person) WHERE n.personId < 20)",
        "GRAPH VIEW sp AS (CONSTRUCT (n)-/@p:sp/->(m) \
         MATCH (n:Person)-/p <:knows*>/->(m:Person) WHERE n.personId = 1)",
    ];
    const MIX: &[&str] = &[
        "SELECT p.firstName, q.firstName \
         MATCH (p:Person)-[:knows]->(q:Person), (q)-[:isLocatedIn]->(c:City) \
         WHERE c.name = 'Arnhem'",
        "CONSTRUCT (b)<-[:sameEmployer]-(a) \
         MATCH (b:Person), (a:Person {employer = e}) \
         WHERE e IN b.employer AND a.personId < 20",
        "CONSTRUCT (c)<-[:electorate]-(p) \
         MATCH (c:City), (p:Person) \
         WHERE (p)-[:isLocatedIn]->(c) AND p.personId < 120",
        "SELECT n.firstName, t.name \
         MATCH (n:Person)-[:knows]->(m:Person) ON mv0, \
               (m)-[:hasInterest]->(t:Tag) ON interests \
         WHERE t.name = 'Wagner'",
        "SELECT n.personId \
         MATCH (n)-[:fof]->(k) ON fof, (k:Person)-[:isLocatedIn]->(c:City) \
         WHERE c.name = 'Arnhem'",
    ];

    let mut warm = Engine::new();
    warm.set_planner(true);
    let data = generate(&SnbConfig::scale(1000), &warm.catalog().ids().clone());
    warm.register_graph("snb", data.graph);
    warm.set_default_graph("snb");
    for view in VIEWS {
        warm.run(view).expect("view commits");
    }

    let tmp = TempDir::new("snb1000-plans");
    let backend = DirBackend::new(&tmp.0).unwrap();
    warm.save_to(&backend).expect("save snb");
    let mut cold = Engine::open_from(&backend).expect("open snb");
    cold.set_planner(true);

    let names = warm.catalog().graph_names();
    assert_eq!(names, cold.catalog().graph_names());
    assert_eq!(names.len(), 1 + VIEWS.len());
    for name in &names {
        let (a, b) = (warm.graph(name).unwrap(), cold.graph(name).unwrap());
        assert!(a.stats().is_some(), "{name} has statistics");
        assert_eq!(a.stats(), b.stats(), "statistics of {name}");
    }
    assert!(warm.graph("sp").unwrap().stats().unwrap().path_count > 0);

    let mut reordered = 0;
    for text in MIX {
        let plan = warm.executor().explain(text).expect("explains");
        assert_eq!(
            plan,
            cold.executor().explain(text).expect("explains"),
            "{text}"
        );
        reordered += usize::from(plan.contains("reordered"));
    }
    assert!(
        reordered > 0,
        "the mix holds a statement the planner reorders"
    );
}

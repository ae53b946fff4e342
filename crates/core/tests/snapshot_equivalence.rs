//! Differential concurrency suite: `Engine::run_batch_parallel` over
//! the paper's §3/§5 corpus must be indistinguishable from sequential
//! `Engine::run`, at every thread count and under randomized statement
//! interleavings.
//!
//! Outputs are compared *canonically* (see `common/mod.rs`, shared with
//! the storage cold-start suite): SELECT tables row-identical after a
//! canonical sort, and graph outputs identical after renumbering
//! skolemized identifiers. Two runs of the same statement draw fresh
//! identifiers from the engine's shared atomic generator in the same
//! relative order (per-statement evaluation is single-threaded and
//! deterministic), but concurrent statements interleave their draws —
//! so fresh identifiers (above the pre-run generator watermark) are
//! renumbered by ascending rank, per element sort, before comparison.
//! Identifiers at or below the watermark are shared identities from
//! the input graphs and must match exactly.

mod common;

use common::{canon_graph, canon_result, corpus_texts, prepared_engine};
use gcore_ppg::{EdgeId, NodeId, PathId, PathPropertyGraph};
use gcore_repro::corpus;
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

// ---------------------------------------------------------------------
// The differential runs
// ---------------------------------------------------------------------

/// Sequential reference: fresh engine, `Engine::run` per statement (with
/// commits applying between statements, exactly as a single-threaded
/// caller would see).
fn sequential_canon(texts: &[&str]) -> Vec<String> {
    let mut engine = prepared_engine();
    let watermark = engine.catalog().ids().peek();
    texts
        .iter()
        .map(|t| canon_result(&engine.run(t), watermark))
        .collect()
}

/// Parallel run: identically constructed engine, one snapshot, `threads`
/// scoped workers.
fn parallel_canon(texts: &[&str], threads: usize) -> Vec<String> {
    let mut engine = prepared_engine();
    let watermark = engine.catalog().ids().peek();
    engine
        .run_batch_parallel(texts, threads)
        .iter()
        .map(|r| canon_result(r, watermark))
        .collect()
}

#[test]
fn corpus_batch_matches_sequential_at_every_thread_count() {
    let texts = corpus_texts();
    let reference = sequential_canon(&texts);
    for threads in THREAD_COUNTS {
        let parallel = parallel_canon(&texts, threads);
        for (i, (seq, par)) in reference.iter().zip(&parallel).enumerate() {
            assert_eq!(
                seq,
                par,
                "corpus statement {i} ({}) diverged at {threads} threads",
                corpus::ALL[i].id
            );
        }
    }
}

#[test]
fn batch_results_are_identical_across_thread_counts() {
    // Beyond matching the sequential reference, the batch itself must be
    // deterministic: the same snapshot gives bit-identical canonical
    // results no matter how many workers race over the corpus.
    let texts = corpus_texts();
    let one = parallel_canon(&texts, 1);
    for threads in [2, 4, 8] {
        assert_eq!(one, parallel_canon(&texts, threads));
    }
}

/// The seven read classes of the benchmark's 2-client join mix — label
/// scan, edge hop, two-hop, value join, OPTIONAL count, EXISTS filter,
/// wide SELECT — at SNB-200, each over three `personId` windows.
fn match_mix_statements() -> Vec<String> {
    let range =
        |k: usize, w: usize, v: &str| format!("{v}.personId >= {k} AND {v}.personId < {}", k + w);
    let mut texts = Vec::new();
    for k in [0, 70, 140] {
        texts.extend([
            format!("CONSTRUCT (n) MATCH (n:Person) WHERE {}", range(k, 60, "n")),
            format!(
                "CONSTRUCT (n)-[e]->(m) MATCH (n:Person)-[e:knows]->(m:Person) WHERE {}",
                range(k, 30, "n")
            ),
            format!(
                "CONSTRUCT (n)-[:fof]->(k) \
                 MATCH (n:Person)-[:knows]->(m:Person)-[:knows]->(k:Person) WHERE {}",
                range(k, 10, "n")
            ),
            format!(
                "CONSTRUCT (a)-[:colleague]->(b) MATCH (a:Person {{employer = e}}), (b:Person) \
                 WHERE e IN b.employer AND {}",
                range(k, 10, "a")
            ),
            format!(
                "SELECT n.personId AS id, COUNT(*) AS posts MATCH (n:Person) WHERE {} \
                 OPTIONAL (n)<-[:has_creator]-(msg:Post) GROUP BY n.personId",
                range(k, 30, "n")
            ),
            format!(
                "CONSTRUCT (n) MATCH (n:Person) \
                 WHERE (n)-[:hasInterest]->(:Tag {{name = 'Wagner'}}) AND {}",
                range(k, 60, "n")
            ),
            format!(
                "SELECT n.personId AS id, n.firstName AS first, n.lastName AS last, \
                        m.firstName AS friend, m.lastName AS friendLast \
                 MATCH (n:Person)-[:knows]->(m:Person) WHERE {}",
                range(k, 40, "n")
            ),
        ]);
    }
    texts
}

/// Two workers evaluating the join mix at once on one snapshot — every
/// statement twice, so both run the same classes side by side, sharing
/// the input graph and the symbol interner — answer what one thread
/// answers alone.
#[test]
fn match_mix_from_two_threads_matches_one_thread() {
    let mut engine = gcore::Engine::new();
    let snb = gcore_snb::generate(
        &gcore_snb::SnbConfig::scale(200),
        &engine.catalog().ids().clone(),
    );
    engine.register_graph("snb", snb.graph);
    engine.set_default_graph("snb");
    let texts = match_mix_statements();
    let texts: Vec<&str> = texts.iter().map(String::as_str).collect();
    let watermark = engine.catalog().ids().peek();
    let alone: Vec<String> = texts
        .iter()
        .map(|t| canon_result(&engine.run(t), watermark))
        .collect();
    let twice: Vec<&str> = texts.iter().flat_map(|&t| [t, t]).collect();
    let together = engine.run_batch_parallel(&twice, 2);
    for (i, result) in together.iter().enumerate() {
        let statement = i / 2;
        assert!(result.is_ok(), "{}: {result:?}", texts[statement]);
        assert_eq!(
            canon_result(result, watermark),
            alone[statement],
            "{} diverged on two threads",
            texts[statement]
        );
    }
}

/// Number of randomized-interleaving cases; pin with `PROPTEST_CASES`
/// (CI does) — the vendored proptest is seed-deterministic either way.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Randomized query interleavings: shuffle the corpus (so view
    /// re-registrations, reads and SELECTs interleave differently),
    /// pick a thread count, and require the parallel batch to match the
    /// sequential reference over the same permutation.
    #[test]
    fn shuffled_corpus_matches_sequential(
        keys in prop::collection::vec(0usize..1_000_000, corpus::ALL.len()..corpus::ALL.len() + 1),
        tix in 0usize..THREAD_COUNTS.len(),
    ) {
        let mut order: Vec<usize> = (0..corpus::ALL.len()).collect();
        order.sort_by_key(|&i| (keys[i], i));
        let texts: Vec<&str> = order.iter().map(|&i| corpus::ALL[i].text).collect();
        let threads = THREAD_COUNTS[tix];
        let reference = sequential_canon(&texts);
        let parallel = parallel_canon(&texts, threads);
        for (pos, (seq, par)) in reference.iter().zip(&parallel).enumerate() {
            prop_assert_eq!(
                seq, par,
                "statement {} ({}) diverged at {} threads",
                pos, corpus::ALL[order[pos]].id, threads
            );
        }
    }
}

// ---------------------------------------------------------------------
// Canonicalizer self-checks (they guard the guard)
// ---------------------------------------------------------------------

#[test]
fn renumbering_absorbs_skolem_offsets_only() {
    // Two graphs identical up to a shift of their fresh identifiers
    // canonicalize equal; shifting an *identity* (below the watermark)
    // does not.
    use gcore_ppg::Attributes;
    let build = |fresh_base: u64| {
        let mut g = PathPropertyGraph::new();
        g.add_node(NodeId(1), Attributes::labeled("Person"));
        g.add_node(NodeId(fresh_base), Attributes::labeled("Group"));
        g.add_edge(
            EdgeId(fresh_base + 3),
            NodeId(1),
            NodeId(fresh_base),
            Attributes::labeled("memberOf"),
        )
        .unwrap();
        let shape = gcore_ppg::PathShape::new(
            vec![NodeId(1), NodeId(fresh_base)],
            vec![EdgeId(fresh_base + 3)],
        )
        .unwrap();
        g.add_path(PathId(fresh_base + 7), shape, Attributes::labeled("route"))
            .unwrap();
        g
    };
    let watermark = 100;
    assert_eq!(
        canon_graph(&build(150), watermark),
        canon_graph(&build(207), watermark)
    );
    // Same content on a *shared identity* must not be conflated.
    let mut a = PathPropertyGraph::new();
    a.add_node(NodeId(1), gcore_ppg::Attributes::labeled("Person"));
    let mut b = PathPropertyGraph::new();
    b.add_node(NodeId(2), gcore_ppg::Attributes::labeled("Person"));
    assert_ne!(canon_graph(&a, watermark), canon_graph(&b, watermark));
}

//! Set-up shared by every mode: generate the graph from `--seed`, build
//! the engine, draw the statement pool and digest every distinct
//! statement in-process (the oracle pass, which also freezes the
//! engine's snapshot and fills its SCC cache).

use crate::oracle::{digest_graph, digest_output, Digest};
use crate::workloads::{self, Kind, Stmt, Workload};
use gcore::Engine;
use gcore_snb::{generate, SnbConfig};
use std::time::Instant;

/// Everything a run needs besides the engine, built from
/// `(workload, seed, persons)`.
pub struct Fixture {
    /// The distinct statements, in class order.
    pub pool: Vec<Stmt>,
    /// `digests[i]` is the oracle digest of `pool[i]`.
    pub digests: Vec<Digest>,
    /// Pool indices per class.
    pub by_class: Vec<Vec<usize>>,
    /// Digest of the writer's view output (`read_write_2c`).
    pub write_digest: Option<Digest>,
    /// Identifiers at or above this are skolemized by the statements.
    pub watermark: u64,
    /// Wall time of `gcore_snb::generate`.
    pub generate_ms: f64,
    /// Nodes + edges + stored paths over every catalog graph.
    pub elements: u64,
}

/// Worker threads the engine may use: `nproc` on the parallel workload,
/// 1 elsewhere.
pub fn engine_parallelism(w: &Workload) -> usize {
    if w.parallel {
        nproc()
    } else {
        1
    }
}

/// `std::thread::available_parallelism`, 1 when unknown.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Build the engine and its fixture. The engine comes back warm:
/// snapshot frozen and SCC cache filled by the oracle pass; socket runs
/// move it into the server. Panics on a statement that fails
/// in-process: the workloads are chosen so that no operation fails, so
/// that is a bug in the benchmark or the engine, not a measurement.
pub fn build(w: &Workload, seed: u64, persons: usize) -> (Engine, Fixture) {
    let mut engine = Engine::new();
    let t0 = Instant::now();
    let data = generate(
        &SnbConfig::scale(persons).with_seed(seed),
        &engine.catalog().ids().clone(),
    );
    let generate_ms = t0.elapsed().as_secs_f64() * 1e3;
    engine.register_graph("snb", data.graph);
    engine.set_default_graph("snb");
    if w.message_view {
        engine
            .run(workloads::MESSAGE_VIEW)
            .expect("message view builds");
    }
    for i in 0..w.views {
        engine
            .run(&workloads::store_view_stmt(i))
            .expect("materialized view builds");
    }
    engine.set_parallelism(engine_parallelism(w));

    let watermark = engine.catalog().ids().peek();
    let pool = w.pool(seed, persons);
    let executor = engine.executor();
    let digests: Vec<Digest> = pool
        .iter()
        .map(|s| {
            let out = executor
                .run(&s.text)
                .unwrap_or_else(|e| panic!("oracle: `{}` failed: {e}", s.text));
            digest_output(&out, watermark)
        })
        .collect();
    let write_digest = (w.kind == Kind::ReadWrite).then(|| {
        let out = executor
            .run(&workloads::write_stmt(0))
            .expect("oracle: writer view evaluates");
        digest_output(&out, watermark)
    });
    let mut by_class = vec![Vec::new(); w.classes.len()];
    for (i, s) in pool.iter().enumerate() {
        by_class[s.class].push(i);
    }
    let elements = engine
        .catalog()
        .graph_names()
        .iter()
        .map(|name| {
            let g = engine.graph(name).expect("listed graph");
            (g.node_count() + g.edge_count() + g.path_count()) as u64
        })
        .sum();
    let fixture = Fixture {
        pool,
        digests,
        by_class,
        write_digest,
        watermark,
        generate_ms,
        elements,
    };
    (engine, fixture)
}

/// `(name, digest)` of every graph in the engine's catalog, by name.
/// No renumbering: a reopened catalog must carry the same identifiers.
pub fn catalog_digests(engine: &Engine) -> Vec<(String, Digest)> {
    let mut names = engine.catalog().graph_names();
    names.sort();
    names
        .into_iter()
        .map(|name| {
            let g = engine.graph(&name).expect("listed graph");
            let d = digest_graph(&g, u64::MAX);
            (name, d)
        })
        .collect()
}

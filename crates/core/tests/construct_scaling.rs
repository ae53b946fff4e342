//! CONSTRUCT staging is linear in binding rows plus constructed
//! elements. A timing test, so `#[ignore]`d: the `test-release` CI job
//! runs it (`cargo test --release -- --ignored`); debug builds and loaded
//! boxes never gate on it.

use gcore::Engine;
use gcore_ppg::{Attributes, GraphBuilder};
use std::time::Duration;

/// A ring of `n` nodes: `(a)-[:next]->(b)-[:next]->(c)` matches `n` rows
/// and `CONSTRUCT (a)-[:hop2]->(c)` mints `n` skolem edges from them.
fn ring_engine(n: usize) -> Engine {
    let mut engine = Engine::new();
    let mut b = GraphBuilder::new(engine.catalog().ids().clone());
    let nodes: Vec<_> = (0..n).map(|_| b.node(Attributes::labeled("N"))).collect();
    for i in 0..n {
        b.edge(nodes[i], nodes[(i + 1) % n], Attributes::labeled("next"));
    }
    engine.register_graph("ring", b.build());
    engine.set_default_graph("ring");
    engine
}

/// Time inside the `construct` operator span of `statement`, which must
/// construct `edges` edges, best of three.
fn construct_time(engine: &mut Engine, statement: &str, edges: usize) -> Duration {
    let once = |engine: &mut Engine| {
        let (output, profile) = engine.profile(statement).expect("profiled run");
        assert_eq!(output.into_graph().expect("a graph").edge_count(), edges);
        let construct = profile.spans.iter().find(|s| s.op == "construct");
        construct.expect("a construct span").elapsed
    };
    (0..3).map(|_| once(engine)).min().expect("three runs")
}

/// The CONSTRUCT time of `statement` on a ring of `8 n` nodes over that
/// on a ring of `n` (`edges(n)` constructed edges).
fn growth(statement: &str, n: usize, edges: impl Fn(usize) -> usize) -> (Duration, Duration, f64) {
    let small = construct_time(&mut ring_engine(n), statement, edges(n));
    let large = construct_time(&mut ring_engine(8 * n), statement, edges(8 * n));
    (small, large, large.as_secs_f64() / small.as_secs_f64())
}

/// Eight times the constructed edges must cost about eight times the
/// CONSTRUCT time. A per-element `Vec::contains` dedup (what staging did
/// before) makes it 64×; the bound of 24 leaves a linear implementation
/// 3× of headroom for cache effects and timer noise. `N` keeps the small
/// run above 20 ms in release, so the timer's resolution and a stray
/// interrupt do not decide the ratio.
#[test]
#[ignore = "timing test: run with --release -- --ignored (CI test-release job)"]
fn construct_time_grows_linearly_with_constructed_edges() {
    const N: usize = 32_000;
    let statement = "CONSTRUCT (a)-[:hop2]->(c) MATCH (a)-[:next]->(b)-[:next]->(c)";
    let (small, large, ratio) = growth(statement, N, |n| n);
    assert!(
        ratio < 24.0,
        "CONSTRUCT of {} edges took {large:?}, of {N} edges {small:?}: {ratio:.1}× for 8× the work",
        8 * N
    );
}

/// A `WHEN` aggregate folds over its element's feeding rows once, not
/// once per row it is evaluated for: the condition below is never true,
/// so it is evaluated for every one of the `n` rows feeding the single
/// node, and recomputing `COUNT(*)` per row would make 8× the rows 64×
/// the time. Same bound as above, and `N` again keeps the small run
/// above 20 ms.
#[test]
#[ignore = "timing test: run with --release -- --ignored (CI test-release job)"]
fn when_aggregate_time_grows_linearly_with_feeding_rows() {
    const N: usize = 64_000;
    let statement = "CONSTRUCT (x GROUP 'all' :Total) WHEN COUNT(*) < 0 MATCH (a)-[:next]->(b)";
    let (small, large, ratio) = growth(statement, N, |_| 0);
    assert!(
        ratio < 24.0,
        "WHEN over {} feeding rows took {large:?}, over {N} rows {small:?}: {ratio:.1}× for 8× the work",
        8 * N
    );
}

//! Counted work: how many heap allocations CONSTRUCT makes per element
//! it constructs.
//!
//! A statement's allocations minus those of `SELECT COUNT(*)` over the
//! same MATCH leave what CONSTRUCT itself spends: grouping the binding
//! rows, minting identifiers and staging the answer graph. Grouping keeps
//! its keys and rows in flat arrays and the staged graph is reserved up
//! front, so what is left per element is the element itself (a copied
//! element's attributes, a node's adjacency lists) — and it must not grow
//! with the graph.
//!
//! Counted with the shared thread-local counting allocator
//! (`tests/support/counting_alloc.rs`): counts, not timings, so they
//! repeat exactly from run to run.

use gcore::Engine;
use gcore_snb::{generate, SnbConfig};

include!("../../../tests/support/counting_alloc.rs");

fn snb(persons: usize) -> Engine {
    let mut engine = Engine::new();
    let data = generate(&SnbConfig::scale(persons), &engine.catalog().ids().clone());
    engine.register_graph("snb", data.graph);
    engine.set_default_graph("snb");
    engine
}

/// CONSTRUCT's allocations per constructed element at SNB-100, -200 and
/// -400: `CONSTRUCT <construct> MATCH <body>` minus `SELECT COUNT(*)
/// MATCH <body>`, over the nodes + edges + paths of the answer.
fn per_element(construct: &str, body: &str) -> Vec<f64> {
    let statement = format!("CONSTRUCT {construct} MATCH {body}");
    let baseline = format!("SELECT COUNT(*) AS n MATCH {body}");
    let mut ratios = Vec::new();
    for persons in [100, 200, 400] {
        let mut engine = snb(persons);
        // Warm up: keep the snapshot freeze, statistics and first-use
        // interning out of the measured calls.
        engine.query_graph(&statement).expect("constructs");
        engine.query_table(&baseline).expect("counts");
        let (graph, built) = counted(|| engine.query_graph(&statement).expect("constructs"));
        let (_, matched) = counted(|| engine.query_table(&baseline).expect("counts"));
        let (built, matched) = (built.allocations, matched.allocations);
        let elements = graph.node_count() + graph.edge_count() + graph.path_count();
        assert!(elements > 0, "{statement} constructs nothing");
        let ratio = (built as f64 - matched as f64) / elements as f64;
        println!(
            "SNB-{persons}: {built} - {matched} allocations for {elements} elements ({ratio:.2} each): {statement}"
        );
        ratios.push(ratio);
    }
    ratios
}

fn assert_flat_and_below(ratios: &[f64], bound: f64, what: &str) {
    for &r in ratios {
        assert!(
            r <= bound,
            "{what}: {r:.2} allocations per constructed element (bound {bound}): {ratios:.2?}"
        );
    }
    let max = ratios.iter().copied().fold(f64::MIN, f64::max);
    let min = ratios.iter().copied().fold(f64::MAX, f64::min);
    assert!(
        max - min <= 0.2,
        "{what}: allocations per element grow with the graph: {ratios:.2?}"
    );
}

/// Minted edges: one fresh `:fof` edge per (n, k) group of 2-hop rows,
/// between person nodes copied once each.
#[test]
fn minted_edges_allocate_at_most_once_per_element() {
    let ratios = per_element(
        "(n)-[:fof]->(k)",
        "(n:Person)-[:knows]->(m:Person), (m)-[:knows]->(k:Person)",
    );
    assert_flat_and_below(&ratios, 1.0, "minted edges");
}

/// Copied edges: every matched `:knows` edge and its endpoints, with
/// their attributes.
#[test]
fn copied_edges_allocate_at_most_twice_per_element() {
    let ratios = per_element("(n)-[e]->(m)", "(n:Person)-[e:knows]->(m:Person)");
    assert_flat_and_below(&ratios, 2.0, "copied edges");
}

//! Counted size: the live heap bytes and the allocations the dense read
//! layout costs.
//!
//! `build_label_index` lays out the id → slot table, one CSR per edge
//! label and the node label groups, each in a block sized once from a
//! counting pass; the first `stats()` call keeps the planner statistics
//! beside them: a row per label and per property key, whose value lists
//! are sized the same way and freed once counted. Both are measured
//! together. So what they leave live is a few bytes per node and per
//! labelled edge, and how many blocks they allocate depends on the
//! labels and keys and not on the graph's size.
//!
//! Counted with the shared thread-local counting allocator
//! (`tests/support/counting_alloc.rs`): counts, not timings, so they
//! repeat exactly from run to run.

use gcore_ppg::PathPropertyGraph;
use gcore_snb::{generate_standalone, SnbConfig};

include!("../../../tests/support/counting_alloc.rs");

/// `graph`'s nodes and edges inserted one by one into a new graph, which
/// `add_node` / `add_edge` never index.
fn without_label_index(graph: &PathPropertyGraph) -> PathPropertyGraph {
    let mut copy = PathPropertyGraph::new();
    for n in graph.node_ids_sorted() {
        copy.add_node(n, graph.node(n).expect("listed node").attrs.clone());
    }
    for e in graph.edge_ids_sorted() {
        let d = graph.edge(e).expect("listed edge");
        copy.add_edge(e, d.src, d.dst, d.attrs.clone())
            .expect("endpoints copied");
    }
    assert!(!copy.has_label_index());
    copy
}

/// The live bytes `build_label_index` and the statistics leave on an
/// unindexed copy of generated SNB-`persons`, and the allocations they
/// make.
fn layout_cost(persons: usize) -> (i64, u64) {
    let graph = without_label_index(&generate_standalone(&SnbConfig::scale(persons)).graph);
    let mut built = graph.clone();
    let (stats, cost) = counted(|| {
        built.build_label_index();
        built.stats().is_some()
    });
    let cost = (cost.live_bytes, cost.allocations);
    assert!(built.has_label_index() && stats);
    println!(
        "SNB-{persons} ({} nodes, {} edges): layout {} live bytes, {} allocations",
        graph.node_count(),
        graph.edge_count(),
        cost.0,
        cost.1
    );
    cost
}

#[test]
fn the_layout_is_at_most_half_the_hash_map_index() {
    // The hash-map label index it replaced left 2 331 384 live bytes here.
    let (bytes, _) = layout_cost(1000);
    assert!(bytes <= 1_165_692, "layout of SNB-1000 holds {bytes} B");
}

#[test]
fn layout_allocations_do_not_grow_with_the_graph() {
    let (_, small) = layout_cost(250);
    let (_, large) = layout_cost(1000);
    assert_eq!(small, large, "allocations at SNB-250 vs SNB-1000");
}

/// The SNB-4000 figure the benchmark's `store_restart` graph pays, for
/// the record.
#[test]
#[ignore = "a report, not a gate: generating SNB-4000 takes a while in debug"]
fn report_the_snb_4000_layout() {
    layout_cost(4000);
}

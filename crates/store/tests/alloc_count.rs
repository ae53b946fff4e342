//! Counted work: how many heap allocations the graph codec makes.
//!
//! The writer resolves each distinct symbol once and fills the file
//! through reused scratch buffers, so `encode_graph` allocates a small
//! number of times whatever the graph's size; the reader allocates at
//! most what the decoded graph itself holds, and the live bytes of a
//! decoded (and of a cloned) graph are bounded too.
//!
//! Counted with the shared thread-local counting allocator
//! (`tests/support/counting_alloc.rs`): counts, not timings, so they
//! repeat exactly from run to run.

use gcore_snb::{generate_standalone, SnbConfig};
use gcore_store::{decode_graph, encode_graph};

include!("../../../tests/support/counting_alloc.rs");

fn elements(g: &gcore_ppg::PathPropertyGraph) -> usize {
    g.node_count() + g.edge_count() + g.path_count()
}

#[test]
fn encode_allocations_do_not_grow_with_the_graph() {
    let mut counts = Vec::new();
    for persons in [100, 200, 400] {
        let g = generate_standalone(&SnbConfig::scale(persons)).graph;
        // Warm up: the first call interns nothing, but keep lazily
        // initialized state out of the measured call all the same.
        encode_graph(&g).expect("encodes");
        let n = counted(|| encode_graph(&g).expect("encodes")).1.allocations;
        println!(
            "encode_graph SNB-{persons}: {n} allocations for {} elements",
            elements(&g)
        );
        counts.push(n);
    }
    for &n in &counts {
        assert!(n <= 100, "encode_graph allocated {n} times: {counts:?}");
    }
    let spread = counts.iter().max().unwrap() - counts.iter().min().unwrap();
    assert!(
        spread <= 8,
        "encode_graph allocations grow with the graph: {counts:?}"
    );
}

#[test]
fn decode_allocates_at_most_one_and_a_half_times_per_element() {
    let g = generate_standalone(&SnbConfig::scale(200)).graph;
    let bytes = encode_graph(&g).expect("encodes");
    decode_graph(&bytes).expect("decodes");
    let (back, cost) = counted(|| decode_graph(&bytes).expect("decodes"));
    let n = cost.allocations;
    assert_eq!(back, g);
    let per_element = n as f64 / elements(&g) as f64;
    println!(
        "decode_graph SNB-200: {n} allocations for {} elements ({per_element:.2} each)",
        elements(&g)
    );
    assert!(
        per_element <= 1.5,
        "decode_graph allocated {n} times for {} elements ({per_element:.2} each)",
        elements(&g)
    );
}

/// What a decoded SNB-1000 graph holds, and what copying it costs: the
/// write layout keeps a lone property value and a lone label inline, an
/// element's properties in one vector sized once, a node's adjacency in
/// its own map entry — sized exactly by the decoder, which counts the
/// degrees first — and the edges in two identifier-ordered vectors.
/// Measured 2 733 966 B in 19 240 allocations to decode and 2 733 966 B
/// in 19 236 to clone; with the edges in a hash map and adjacency grown
/// push by push, 4 142 198 B in 22 873 and 3 902 694 B in 19 235; with a
/// B-tree property map per element, a heap vector per value set and
/// adjacency in maps of its own, 6 091 086 B in 31 712 and 5 847 310 B
/// in 28 074.
#[test]
fn decoded_and_cloned_graphs_are_compact() {
    let g = generate_standalone(&SnbConfig::scale(1000)).graph;
    let bytes = encode_graph(&g).expect("encodes");
    decode_graph(&bytes).expect("decodes");
    let (back, decoded) = counted(|| decode_graph(&bytes).expect("decodes"));
    let (copy, cloned) = counted(|| back.clone());
    assert_eq!(copy, g);
    println!(
        "SNB-1000, {} elements: decode_graph {decoded:?}, clone {cloned:?}",
        elements(&g)
    );
    assert!(
        decoded.live_bytes <= 2_870_000 && decoded.allocations <= 20_200,
        "decode_graph SNB-1000: {decoded:?}"
    );
    assert!(
        cloned.live_bytes <= 2_870_000 && cloned.allocations <= 20_195,
        "clone of SNB-1000: {cloned:?}"
    );
}

//! Every bulk producer hands its nodes and its edges to the node and
//! edge stores in ascending identifier, so each insert appends and none
//! shifts a store: generating, decoding, the set operations, CONSTRUCT
//! copying bound nodes and edges (whose groups come in pattern and
//! endpoint order, not identifier order) or the members of found paths,
//! and CONSTRUCT's rebuild after a `WHEN` drops elements.

use gcore::Engine;
use gcore_ppg::{ops, NodeId, PathPropertyGraph};
use gcore_snb::{generate, SnbConfig};
use gcore_store::{decode_graph, encode_graph};
use std::collections::BTreeSet;

/// The generated SNB-200 graph, then what every bulk producer makes of
/// it, by name.
fn produced() -> Vec<(&'static str, PathPropertyGraph)> {
    let mut engine = Engine::new();
    let ids = engine.catalog().ids().clone();
    let snb = generate(&SnbConfig::scale(200), &ids).graph;
    let decoded = decode_graph(&encode_graph(&snb).expect("encodes")).expect("decodes");
    assert_eq!(decoded, snb);

    engine.register_graph("snb", snb.clone());
    engine.set_default_graph("snb");
    let mut run = |text: &str| engine.query_graph(text).expect("statement runs");
    let copied = run("CONSTRUCT (n)-[e]->(m) MATCH (n:Person)-[e:knows]->(m:Person)");
    let located = run("CONSTRUCT (n)-[e]->(c) MATCH (n:Person)-[e:isLocatedIn]->(c:City)");
    let kept = run("CONSTRUCT (n)-[e]->(m) WHEN n.personId < 100 \
         MATCH (n:Person)-[e:knows]->(m:Person)");
    let walks = run("CONSTRUCT (n)-/@p:sp/->(m) \
         MATCH (n:Person)-/p <:knows*>/->(m:Person) WHERE n.personId = 1");
    let unioned = run("CONSTRUCT snb, (n)-[e]->(m) MATCH (n:Person)-[e:knows]->(m:Person)");
    let (union, intersection, difference) = (
        ops::union(&kept, &copied),
        ops::intersect(&snb, &copied),
        ops::difference(&snb, &kept),
    );
    vec![
        ("generated", snb),
        ("decoded", decoded),
        ("bound elements", copied),
        ("bound nodes of two labels", located),
        ("rebuilt after WHEN", kept),
        ("path members", walks),
        ("CONSTRUCT with a graph name", unioned),
        ("union", union),
        ("intersection", intersection),
        ("difference", difference),
    ]
}

fn graph<'a>(all: &'a [(&str, PathPropertyGraph)], name: &str) -> &'a PathPropertyGraph {
    let found = all.iter().find(|(what, _)| *what == name);
    &found.expect("a producer").1
}

#[test]
fn bulk_producers_insert_edges_in_id_order() {
    let all = produced();
    for (what, g) in &all {
        assert!(g.edge_count() > 0, "{what}: no edges, so nothing is shown");
        assert_eq!(g.shifted_edge_inserts(), 0, "{what}: an insert shifted");
    }
    // The groups' (src, dst) order is not identifier order: inserting in
    // group order would have shifted.
    let copied = graph(&all, "bound elements");
    let mut by_ends: Vec<_> = copied.edges().map(|(id, e)| (e.src, e.dst, id)).collect();
    by_ends.sort_unstable();
    assert!(by_ends.windows(2).any(|w| w[0].2 > w[1].2));

    let kept = graph(&all, "rebuilt after WHEN");
    assert!(
        kept.edge_count() < copied.edge_count(),
        "WHEN dropped edges"
    );
    assert!(graph(&all, "path members").path_count() > 1);
    let unioned = graph(&all, "CONSTRUCT with a graph name");
    assert_eq!(unioned.edge_count(), graph(&all, "generated").edge_count());
}

#[test]
fn bulk_producers_insert_nodes_in_id_order() {
    let all = produced();
    for (what, g) in &all {
        assert!(g.node_count() > 0, "{what}: no nodes, so nothing is shown");
        assert_eq!(g.shifted_node_inserts(), 0, "{what}: an insert shifted");
    }
    // CONSTRUCT stages `n`'s groups, then `c`'s: a destination that is
    // no source and lies below the last source would have shifted had
    // the nodes been inserted in staging order.
    let located = graph(&all, "bound nodes of two labels");
    let sources: BTreeSet<NodeId> = located.edges().map(|(_, e)| e.src).collect();
    let last = *sources.last().expect("an edge");
    let shifting = located.edges().map(|(_, e)| e.dst);
    assert!(shifting.filter(|m| !sources.contains(m)).any(|m| m < last));
    assert!(graph(&all, "path members").node_count() > 1);
}

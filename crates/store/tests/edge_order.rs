//! Every bulk producer hands its edges to the edge store in ascending
//! identifier, so each insert appends and none shifts the store:
//! decoding, the set operations, CONSTRUCT copying bound edges (whose
//! groups come in endpoint order, not identifier order) or the edges of
//! found paths, and CONSTRUCT's rebuild after a `WHEN` drops elements.

use gcore::Engine;
use gcore_ppg::{ops, PathPropertyGraph};
use gcore_snb::{generate, SnbConfig};
use gcore_store::{decode_graph, encode_graph};

fn assert_appended(what: &str, g: &PathPropertyGraph) {
    assert!(g.edge_count() > 0, "{what}: no edges, so nothing is shown");
    assert_eq!(g.shifted_edge_inserts(), 0, "{what}: an insert shifted");
}

#[test]
fn bulk_producers_insert_edges_in_id_order() {
    let mut engine = Engine::new();
    let ids = engine.catalog().ids().clone();
    let snb = generate(&SnbConfig::scale(200), &ids).graph;
    assert_appended("generated", &snb);

    let decoded = decode_graph(&encode_graph(&snb).expect("encodes")).expect("decodes");
    assert_appended("decoded", &decoded);
    assert_eq!(decoded, snb);

    engine.register_graph("snb", snb.clone());
    engine.set_default_graph("snb");
    let mut run = |text: &str| engine.query_graph(text).expect("statement runs");
    let copied = run("CONSTRUCT (n)-[e]->(m) MATCH (n:Person)-[e:knows]->(m:Person)");
    assert_appended("bound edges", &copied);
    // The groups' (src, dst) order is not identifier order: inserting in
    // group order would have shifted.
    let mut by_ends: Vec<_> = copied.edges().map(|(id, e)| (e.src, e.dst, id)).collect();
    by_ends.sort_unstable();
    assert!(by_ends.windows(2).any(|w| w[0].2 > w[1].2));

    let kept = run("CONSTRUCT (n)-[e]->(m) WHEN n.personId < 100 \
         MATCH (n:Person)-[e:knows]->(m:Person)");
    assert_appended("rebuilt after WHEN", &kept);
    assert!(
        kept.edge_count() < copied.edge_count(),
        "WHEN dropped edges"
    );

    let walks = run("CONSTRUCT (n)-/@p:sp/->(m) \
         MATCH (n:Person)-/p <:knows*>/->(m:Person) WHERE n.personId = 1");
    assert_appended("path members", &walks);
    assert!(walks.path_count() > 1);

    let unioned = run("CONSTRUCT snb, (n)-[e]->(m) MATCH (n:Person)-[e:knows]->(m:Person)");
    assert_appended("CONSTRUCT with a graph name", &unioned);
    assert_eq!(unioned.edge_count(), snb.edge_count());

    for (what, g) in [
        ("union", ops::union(&kept, &copied)),
        ("intersection", ops::intersect(&snb, &copied)),
        ("difference", ops::difference(&snb, &kept)),
    ] {
        assert_appended(what, &g);
    }
}

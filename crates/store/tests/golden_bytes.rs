//! The graph and table writers' exact output, pinned by length and
//! FNV-1a digest. The format is deterministic (equal graphs encode to
//! equal bytes in any process), so any change to how the writer fills
//! the format — symbol collection, element order, attribute order —
//! must leave these numbers unchanged; a format revision is the only
//! change that may move them, together with `FORMAT_VERSION`.
//!
//! Also pins the reader's normalization: a file whose label refs and
//! property values arrive duplicated and out of order still decodes to
//! sorted, deduplicated sets.

use gcore::Engine;
use gcore_ppg::{
    Attributes, EdgeId, Key, Label, LabelSet, NodeId, PathId, PathPropertyGraph, PathShape,
    PropertySet, Value,
};
use gcore_snb::{figure2, generate_standalone, social_dataset, SnbConfig};
use gcore_store::wire::{fnv1a64, put_str, put_u32, put_u64};
use gcore_store::{decode_graph, encode_graph, encode_table, FORMAT_VERSION, MAGIC};

/// `(length, fnv1a64)` of an encoded object.
fn fingerprint(bytes: &[u8]) -> (usize, u64) {
    (bytes.len(), fnv1a64(bytes))
}

fn assert_graph(name: &str, g: &PathPropertyGraph, expected: (usize, u64)) {
    let bytes = encode_graph(g).expect("graph encodes");
    assert_eq!(
        fingerprint(&bytes),
        expected,
        "{name}: the writer's bytes moved"
    );
    assert_eq!(&decode_graph(&bytes).expect("graph decodes"), g, "{name}");
}

/// The guided-tour catalog, built as the integration tests build it: the
/// datasets draw identifiers from a fresh engine's generator, so later
/// CONSTRUCT results mint the same identifiers every run.
fn tour() -> Engine {
    let mut engine = Engine::new();
    let ids = engine.catalog().ids().clone();
    let d = social_dataset(&ids);
    let fig2 = figure2(&ids);
    engine.register_graph("social_graph", d.social_graph);
    engine.register_graph("company_graph", d.company_graph);
    engine.register_graph("figure2", fig2);
    engine.register_table("orders", d.orders);
    engine.set_default_graph("social_graph");
    engine
}

#[test]
fn format_version_is_unchanged() {
    assert_eq!(FORMAT_VERSION, 1);
}

#[test]
fn tour_graphs_encode_to_pinned_bytes() {
    let engine = tour();
    let cat = engine.catalog();
    let graph = |name: &str| cat.graph(name).expect("registered").clone();
    assert_graph(
        "social_graph",
        &graph("social_graph"),
        (2372, 0x1157_14a8_7edf_0d83),
    );
    assert_graph(
        "company_graph",
        &graph("company_graph"),
        (276, 0x7c95_d76a_f24b_d520),
    );
    assert_graph("figure2", &graph("figure2"), (814, 0xdb60_f92d_8314_2257));
}

#[test]
fn snb_200_encodes_to_pinned_bytes() {
    let g = generate_standalone(&SnbConfig::scale(200)).graph;
    assert_graph("snb-200", &g, (177_196, 0xea1b_f987_8280_907a));
}

#[test]
fn construct_result_with_stored_paths_encodes_to_pinned_bytes() {
    let mut engine = tour();
    let g = engine
        .query_graph(
            "CONSTRUCT (a)-/@p:toFriend {hops := length(p)}/->(b) \
             MATCH (a:Person)-/3 SHORTEST p <:knows*>/->(b:Person) \
             WHERE a.firstName = 'John'",
        )
        .expect("statement runs");
    assert!(g.path_count() > 0, "stored @p paths are part of the answer");
    let employer = Key::new("employer");
    assert!(
        g.node_ids().any(|n| g.prop(n.into(), employer).len() == 2),
        "Frank's multi-valued employer is part of the answer"
    );
    assert_graph("construct", &g, (2135, 0x09df_0b6a_8393_9469));
}

#[test]
fn hand_built_corner_cases_encode_to_pinned_bytes() {
    let mut g = PathPropertyGraph::new();
    g.add_node(
        NodeId(7),
        Attributes::labeled("Person")
            .with_label("Manager")
            .with_prop("name", "Ann")
            .with_prop_set(
                "employer",
                PropertySet::from_values([Value::str("MIT"), Value::str("CWI")]),
            ),
    );
    // No labels, no properties.
    g.add_node(NodeId(3), Attributes::new());
    // An unlabeled edge with a property, and a labeled one without.
    g.add_edge(
        EdgeId(9),
        NodeId(7),
        NodeId(3),
        Attributes::new().with_prop("weight", 2.5),
    )
    .expect("endpoints exist");
    g.add_edge(EdgeId(4), NodeId(3), NodeId(7), Attributes::labeled("back"))
        .expect("endpoints exist");
    g.add_path(
        PathId(11),
        PathShape::new(
            vec![NodeId(7), NodeId(3), NodeId(7)],
            vec![EdgeId(9), EdgeId(4)],
        )
        .expect("alternating"),
        Attributes::new().with_prop("hops", 2i64),
    )
    .expect("walk is connected");
    assert_graph("hand-built", &g, (421, 0x4866_321d_9d98_9db6));
}

#[test]
fn select_output_encodes_to_pinned_bytes() {
    let mut engine = tour();
    let t = engine
        .query_table(
            "SELECT n.firstName AS name, COUNT(*) AS friends \
             MATCH (n:Person)-[:knows]->(m:Person) \
             GROUP BY n.firstName ORDER BY name",
        )
        .expect("statement runs");
    let bytes = encode_table(&t).expect("table encodes");
    assert_eq!(
        fingerprint(&bytes),
        (146, 0x6f7d_1392_d13c_a697),
        "the table writer's bytes moved"
    );
}

/// Wrap `payload` in a section envelope: tag, length, payload, checksum.
fn section(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    out.push(tag);
    put_u64(out, payload.len() as u64);
    out.extend_from_slice(payload);
    put_u64(out, fnv1a64(payload));
}

#[test]
fn reader_sorts_and_deduplicates_what_the_file_lists() {
    // Symbols: labels "A" < "B", key "k".
    let mut symbols = Vec::new();
    for name in ["A", "B", "k"] {
        put_str(&mut symbols, name);
    }
    // One node: label refs [1, 0, 1] and property values [3, 1, 3, 2].
    let mut nodes = Vec::new();
    put_u64(&mut nodes, 1);
    put_u32(&mut nodes, 3);
    for r in [1, 0, 1] {
        put_u32(&mut nodes, r);
    }
    put_u32(&mut nodes, 1);
    put_u32(&mut nodes, 0);
    put_u32(&mut nodes, 4);
    for i in [3i64, 1, 3, 2] {
        nodes.push(1); // VALUE_INT
        nodes.extend_from_slice(&i.to_le_bytes());
    }
    // A second node: one label listed twice, one value listed twice.
    put_u64(&mut nodes, 2);
    put_u32(&mut nodes, 2);
    for r in [0, 0] {
        put_u32(&mut nodes, r);
    }
    put_u32(&mut nodes, 1);
    put_u32(&mut nodes, 0);
    put_u32(&mut nodes, 2);
    for _ in 0..2 {
        nodes.push(1);
        nodes.extend_from_slice(&5i64.to_le_bytes());
    }

    let mut file = Vec::new();
    file.extend_from_slice(&MAGIC);
    put_u32(&mut file, FORMAT_VERSION);
    put_u32(&mut file, 2); // labels
    put_u32(&mut file, 1); // keys
    put_u64(&mut file, 2); // nodes
    put_u64(&mut file, 0); // edges
    put_u64(&mut file, 0); // paths
    section(&mut file, 1, &symbols);
    section(&mut file, 2, &nodes);
    section(&mut file, 3, &[]);
    section(&mut file, 4, &[]);

    let g = decode_graph(&file).expect("well-formed file");
    let (a, b, k) = (Label::new("A"), Label::new("B"), Key::new("k"));

    let n1 = g.node(NodeId(1)).expect("decoded");
    let expected: LabelSet = [a, b].into_iter().collect();
    assert_eq!(n1.attrs.labels, expected);
    assert_eq!(n1.attrs.labels.iter().collect::<Vec<_>>(), {
        let mut v = vec![a, b];
        v.sort();
        v
    });
    assert_eq!(
        n1.attrs.prop(k).values(),
        &[Value::Int(1), Value::Int(2), Value::Int(3)]
    );

    let n2 = g.node(NodeId(2)).expect("decoded");
    assert_eq!(n2.attrs.labels, LabelSet::single(a));
    assert_eq!(n2.attrs.prop(k), PropertySet::single(Value::Int(5)));

    // The canonical writer lists each set once, in order.
    let canonical = encode_graph(&g).expect("encodes");
    assert_ne!(canonical, file);
    assert_eq!(decode_graph(&canonical).expect("decodes"), g);
}

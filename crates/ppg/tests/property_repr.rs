//! The compact write-layout representations against plain models.
//!
//! [`LabelSet`] and [`PropertySet`] keep a lone member inline and
//! [`PropertyMap`] keeps one vector sorted by key. Whatever a sequence of
//! operations leaves behind, they must behave like the sorted,
//! deduplicated `Vec<Label>` and `Vec<Value>` and the `BTreeMap<Key,
//! PropertySet>` they stand for: the same members, and the same
//! equality, order and hash. A graph's nodes, its edges and its stored
//! paths are each one identifier-ordered pair of vectors; inserted in any
//! order, merged, looked up with and without the read layout's slot
//! table and combined by the set operations, they must behave like a
//! `BTreeMap<NodeId, Attributes>`, a `BTreeMap<EdgeId, EdgeData>` and a
//! `BTreeMap<PathId, PathData>`.
//! A registered graph's planner statistics must be the counts their
//! definitions give, tallied naively here.

use gcore_ppg::{
    ops, Attributes, Catalog, EdgeData, EdgeId, EdgeLabelStats, ElementSort, GraphError,
    GraphStats, Key, Label, LabelSet, NodeId, PathData, PathId, PathPropertyGraph, PathShape,
    PropStats, PropertyMap, PropertySet, StepDir, Value,
};
use proptest::prelude::*;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};

/// A small pool, so sets collide: `Int(1)` and `Float(1.0)` are one
/// value, and `Null` never enters a set.
fn pool(i: usize) -> Value {
    match i % 9 {
        0 => Value::Int(1),
        1 => Value::Float(1.0),
        2 => Value::Int(2),
        3 => Value::Float(1.5),
        4 => Value::str("a"),
        5 => Value::str("b"),
        6 => Value::Bool(true),
        7 => Value::Null,
        _ => Value::Int(-3),
    }
}

/// The model: insert into a sorted vector unless an equal value is in.
fn model_insert(model: &mut Vec<Value>, v: Value) -> bool {
    if v.is_null() {
        return false;
    }
    match model.binary_search(&v) {
        Ok(_) => false,
        Err(pos) => {
            model.insert(pos, v);
            true
        }
    }
}

fn model_of(values: &[Value]) -> Vec<Value> {
    let mut model = Vec::new();
    for v in values {
        model_insert(&mut model, v.clone());
    }
    model
}

fn hash_of<T: Hash + ?Sized>(t: &T) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    t.hash(&mut h);
    h.finish()
}

/// A set built one of five ways from pool values, with its model.
fn built(how: usize, a: &[usize], b: &[usize]) -> (PropertySet, Vec<Value>) {
    let (a, b): (Vec<Value>, Vec<Value>) = (
        a.iter().map(|&i| pool(i)).collect(),
        b.iter().map(|&i| pool(i)).collect(),
    );
    let (ma, mb) = (model_of(&a), model_of(&b));
    match how % 5 {
        0 => {
            let v = a.first().cloned().unwrap_or(Value::Null);
            let model = model_of(std::slice::from_ref(&v));
            (PropertySet::single(v), model)
        }
        1 => (PropertySet::from_values(a), ma),
        2 => {
            let mut set = PropertySet::empty();
            let mut model = Vec::new();
            for v in a {
                assert_eq!(
                    set.insert(v.clone()),
                    model_insert(&mut model, v.clone()),
                    "{v:?}"
                );
            }
            (set, model)
        }
        3 => {
            let set = PropertySet::from_values(a).union(&PropertySet::from_values(b));
            let mut model = ma;
            for v in mb {
                model_insert(&mut model, v);
            }
            (set, model)
        }
        _ => {
            let set = PropertySet::from_values(a).intersection(&PropertySet::from_values(b));
            let model = ma.into_iter().filter(|v| mb.contains(v)).collect();
            (set, model)
        }
    }
}

fn check_against_model(set: &PropertySet, model: &[Value]) {
    // Debug tells Int(1) from Float(1.0): the value kept is the model's.
    assert_eq!(format!("{:?}", set.values()), format!("{model:?}"));
    assert_eq!(set.len(), model.len());
    assert_eq!(set.is_empty(), model.is_empty());
    assert_eq!(
        set.as_singleton(),
        model.first().filter(|_| model.len() == 1)
    );
    assert_eq!(
        set.iter().collect::<Vec<_>>(),
        model.iter().collect::<Vec<_>>()
    );
    assert_eq!(hash_of(set), hash_of(model));
    for i in 0..9 {
        let v = pool(i);
        assert_eq!(
            set.contains(&v),
            !v.is_null() && model.contains(&v),
            "{v:?}"
        );
    }
}

fn indices() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0usize..9, 0..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn property_sets_agree_with_the_sorted_vector_model(
        how in (0usize..5, 0usize..5),
        a in indices(),
        b in indices(),
        c in indices(),
        d in indices(),
    ) {
        let (x, mx) = built(how.0, &a, &b);
        let (y, my) = built(how.1, &c, &d);
        check_against_model(&x, &mx);
        check_against_model(&y, &my);
        prop_assert_eq!(x == y, mx == my, "{:?} vs {:?}", mx, my);
        prop_assert_eq!(x.set_eq(&y), mx == my);
        prop_assert_eq!(x.cmp(&y), mx.cmp(&my), "{:?} vs {:?}", mx, my);
        if x == y {
            prop_assert_eq!(hash_of(&x), hash_of(&y));
        }
        prop_assert_eq!(x.is_subset_of(&y), mx.iter().all(|v| my.contains(v)));
        // A set equal to a singleton is one, however it was built.
        if let [only] = &mx[..] {
            prop_assert_eq!(&x, &PropertySet::single(only.clone()));
            prop_assert_eq!(hash_of(&x), hash_of(&PropertySet::single(only.clone())));
        }
    }
}

/// The element payloads keep the sizes the compact layout gave them.
#[test]
#[cfg(target_pointer_width = "64")]
fn element_payloads_keep_their_sizes() {
    use std::mem::size_of;
    assert_eq!(size_of::<LabelSet>(), 24);
    assert_eq!(size_of::<PropertySet>(), 32);
    assert_eq!(size_of::<Attributes>(), 48);
}

fn label(i: usize) -> Label {
    Label::new(["repr_l0", "repr_l1", "repr_l2", "repr_l3"][i % 4])
}

/// A label set built by insertion, with its sorted-vector model.
fn label_set_of(indices: &[usize]) -> (LabelSet, Vec<Label>) {
    let mut model: Vec<Label> = indices.iter().map(|&i| label(i)).collect();
    model.sort();
    model.dedup();
    (indices.iter().map(|&i| label(i)).collect(), model)
}

fn check_labels(set: &LabelSet, model: &[Label]) {
    assert_eq!(set.iter().collect::<Vec<_>>(), model);
    assert_eq!(set.len(), model.len());
    assert_eq!(set.is_empty(), model.is_empty());
    assert_eq!(hash_of(set), hash_of(model));
    for i in 0..4 {
        assert_eq!(set.contains(label(i)), model.contains(&label(i)));
    }
    let mut names: Vec<String> = model.iter().map(|l| l.name()).collect();
    names.sort();
    assert_eq!(set.names(), names);
    // However the set got here — grown from empty, shrunk from two or
    // more, or combined — it is the set built directly.
    match model {
        [] => assert_eq!(
            (set, hash_of(set)),
            (&LabelSet::new(), hash_of(&LabelSet::new()))
        ),
        [only] => {
            let single = LabelSet::single(*only);
            assert_eq!((set, hash_of(set)), (&single, hash_of(&single)));
        }
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn label_sets_agree_with_the_sorted_vector_model(
        ops in prop::collection::vec(
            (0usize..6, 0usize..4, prop::collection::vec(0usize..4, 0..4)),
            0..24,
        ),
    ) {
        let mut set = LabelSet::new();
        let mut model: Vec<Label> = Vec::new();
        for (op, i, other) in &ops {
            let l = label(*i);
            let (other, other_model) = label_set_of(other);
            let at = model.binary_search(&l);
            match op {
                // Inserts and removes weigh double, so sets pass through
                // one member on their way up and down.
                0 | 1 => {
                    prop_assert_eq!(set.insert(l), at.is_err());
                    if let Err(pos) = at {
                        model.insert(pos, l);
                    }
                }
                2 | 3 => {
                    prop_assert_eq!(set.remove(l), at.is_ok());
                    if let Ok(pos) = at {
                        model.remove(pos);
                    }
                }
                4 => {
                    set = set.union(&other);
                    model.extend(other_model.iter().copied());
                    model.sort();
                    model.dedup();
                }
                _ => {
                    set = set.intersection(&other);
                    model.retain(|l| other_model.contains(l));
                }
            }
            check_labels(&set, &model);
            prop_assert_eq!(set == other, model == other_model);
            prop_assert_eq!(set.cmp(&other), model.cmp(&other_model));
            if set == other {
                prop_assert_eq!(hash_of(&set), hash_of(&other));
            }
        }
    }
}

fn key(i: usize) -> Key {
    Key::new(["repr_k0", "repr_k1", "repr_k2", "repr_k3", "repr_k4"][i % 5])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn property_maps_agree_with_a_btree_map(
        ops in prop::collection::vec((0usize..4, 0usize..5, 0usize..9), 0..24),
    ) {
        let mut map = PropertyMap::new();
        let mut oracle: BTreeMap<Key, PropertySet> = BTreeMap::new();
        for &(op, k, v) in &ops {
            let (k, v) = (key(k), PropertySet::single(pool(v)));
            match op {
                0 => prop_assert_eq!(map.insert(k, v.clone()), oracle.insert(k, v)),
                1 => prop_assert_eq!(map.remove(&k), oracle.remove(&k)),
                2 => prop_assert_eq!(map.get(&k), oracle.get(&k)),
                _ => {
                    let (mine, theirs) = (map.get_mut(&k), oracle.get_mut(&k));
                    prop_assert_eq!(mine.is_some(), theirs.is_some());
                    if let (Some(mine), Some(theirs)) = (mine, theirs) {
                        mine.union_in_place(&v);
                        theirs.union_in_place(&v);
                    }
                }
            }
            prop_assert_eq!(map.len(), oracle.len());
            prop_assert_eq!(map.is_empty(), oracle.is_empty());
            prop_assert!(map.iter().eq(oracle.iter()), "{:?} vs {:?}", map, oracle);
            prop_assert!((&map).into_iter().eq(&oracle));
            prop_assert!(map.keys().eq(oracle.keys()));
            prop_assert_eq!(map.iter().len(), oracle.len());
            prop_assert_eq!(format!("{map:?}"), format!("{oracle:?}"));
        }
    }
}

/// Edge identifiers are drawn below this, node identifiers below
/// [`NODES`]: small, so inserts collide and re-inserts merge.
const EDGE_IDS: u64 = 12;
const NODES: u64 = 5;

/// One edge insert: identifier, source, destination, and a label and a
/// property value by pool index.
type EdgeOp = (u64, u64, u64, usize, usize);

fn edge_ops() -> impl Strategy<Value = Vec<EdgeOp>> {
    let op = (0..EDGE_IDS, 0..NODES, 0..NODES, 0usize..3, 0usize..9);
    prop::collection::vec(op, 0..24)
}

fn edge_attrs(label: usize, value: usize) -> Attributes {
    let attrs = Attributes::labeled(["repr_a", "repr_b", "repr_c"][label]);
    match pool(value) {
        Value::Null => attrs,
        v => attrs.with_prop("repr_w", v),
    }
}

/// A graph of `nodes` after `ops`, and its model, checked after every
/// insert: a new identifier is inserted, a known one with the same
/// endpoints merges, with other endpoints it is an identity conflict and
/// changes nothing, and an endpoint that is no node is refused.
fn build(nodes: &[u64], ops: &[EdgeOp]) -> (PathPropertyGraph, BTreeMap<EdgeId, EdgeData>) {
    let mut g = PathPropertyGraph::new();
    for &n in nodes {
        g.add_node(NodeId(n), Attributes::new());
    }
    let mut model: BTreeMap<EdgeId, EdgeData> = BTreeMap::new();
    for &(id, src, dst, label, value) in ops {
        let (id, src, dst) = (EdgeId(id), NodeId(src), NodeId(dst));
        let attrs = edge_attrs(label, value);
        let got = g.add_edge(id, src, dst, attrs.clone());
        if ![src, dst].iter().all(|n| nodes.contains(&n.raw())) {
            assert!(
                matches!(got, Err(GraphError::DanglingEdge { .. })),
                "{got:?}"
            );
            continue;
        }
        match model.entry(id) {
            Entry::Vacant(slot) => {
                assert_eq!(got, Ok(()));
                slot.insert(EdgeData { src, dst, attrs });
            }
            Entry::Occupied(mut slot) => {
                let known = slot.get_mut();
                if (known.src, known.dst) == (src, dst) {
                    assert_eq!(got, Ok(()));
                    known.attrs.union_in_place(&attrs);
                } else {
                    assert!(
                        matches!(got, Err(GraphError::IdentityConflict(_))),
                        "{got:?}"
                    );
                }
            }
        }
        check_edges(&g, &model);
    }
    (g, model)
}

/// `g`'s edges are the model's: lookups, the ascending listings, and
/// each node's adjacency.
fn check_edges(g: &PathPropertyGraph, model: &BTreeMap<EdgeId, EdgeData>) {
    assert_eq!(g.edge_count(), model.len());
    assert!(g.edge_ids().eq(model.keys().copied()), "{:?}", model.keys());
    assert_eq!(
        g.edge_ids_sorted(),
        model.keys().copied().collect::<Vec<_>>()
    );
    assert!(g.edges().eq(model.iter().map(|(&id, e)| (id, e))));
    for id in (0..=EDGE_IDS).map(EdgeId) {
        assert_eq!(g.edge(id), model.get(&id), "{id}");
        assert_eq!(g.contains_edge(id), model.contains_key(&id), "{id}");
        assert_eq!(g.endpoints(id), model.get(&id).map(|e| (e.src, e.dst)));
    }
    for n in (0..NODES).map(NodeId) {
        let ending = |at: fn(&EdgeData) -> NodeId| -> Vec<EdgeId> {
            let at_n = model.iter().filter(|(_, e)| at(e) == n);
            at_n.map(|(&id, _)| id).collect()
        };
        let sorted = |edges: &[EdgeId]| {
            let mut edges = edges.to_vec();
            edges.sort_unstable();
            edges
        };
        assert_eq!(sorted(g.out_edges(n)), ending(|e| e.src), "out of {n}");
        assert_eq!(sorted(g.in_edges(n)), ending(|e| e.dst), "into {n}");
    }
    g.validate().expect("well-formed");
}

/// The model's graph, built in ascending identifier order.
fn from_model(nodes: &[u64], model: &BTreeMap<EdgeId, EdgeData>) -> PathPropertyGraph {
    let mut g = PathPropertyGraph::new();
    for &n in nodes {
        g.add_node(NodeId(n), Attributes::new());
    }
    for (&id, e) in model {
        g.add_edge(id, e.src, e.dst, e.attrs.clone())
            .expect("model edge");
    }
    assert_eq!(g.shifted_inserts(ElementSort::Edge), 0);
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn edges_agree_with_a_btree_map(ops in edge_ops(), pick in 0usize..EDGE_IDS as usize) {
        let nodes: Vec<u64> = (0..NODES).collect();
        let (g, model) = build(&nodes, &ops);
        // Equal whatever order the edges came in; one edge fewer, or
        // one edge's attributes changed, is a difference.
        let same = from_model(&nodes, &model);
        prop_assert_eq!(g.same_as(&same), Ok(()));
        prop_assert_eq!(&g, &same);
        if let Some(&id) = model.keys().nth(pick % model.len().max(1)) {
            let mut fewer = model.clone();
            fewer.remove(&id);
            prop_assert!(g.same_as(&from_model(&nodes, &fewer)).is_err());
            let mut changed = model.clone();
            if let Some(e) = changed.get_mut(&id) {
                e.attrs.labels.insert(gcore_ppg::Label::new("repr_changed"));
            }
            let differs = g.same_as(&from_model(&nodes, &changed));
            prop_assert_eq!(differs, Err(format!("edge {id} differs")));
        }
    }

    #[test]
    fn set_operations_on_edges_agree_with_the_model(
        a_ops in edge_ops(),
        b_ops in edge_ops(),
        b_mask in 0u8..32,
    ) {
        let a_nodes: Vec<u64> = (0..NODES).collect();
        let b_nodes: Vec<u64> = (0..NODES).filter(|n| b_mask & (1 << n) != 0).collect();
        let (a, ma) = build(&a_nodes, &a_ops);
        let (b, mb) = build(&b_nodes, &b_ops);
        let consistent = ma.iter().all(|(id, e)| {
            mb.get(id).is_none_or(|f| (f.src, f.dst) == (e.src, e.dst))
        });
        let (union, intersection) = (ops::union(&a, &b), ops::intersect(&a, &b));
        if consistent {
            let mut mu = ma.clone();
            for (&id, e) in &mb {
                mu.entry(id)
                    .and_modify(|mine| mine.attrs.union_in_place(&e.attrs))
                    .or_insert_with(|| e.clone());
            }
            check_edges(&union, &mu);
            let shared = ma.iter().filter_map(|(&id, e)| {
                let f = mb.get(&id)?;
                let attrs = e.attrs.intersect(&f.attrs);
                Some((id, EdgeData { attrs, ..e.clone() }))
            });
            check_edges(&intersection, &shared.collect());
        } else {
            // §A.5: inconsistent graphs have the empty union and
            // intersection.
            prop_assert!(union.is_empty() && intersection.is_empty());
        }
        // G₁ ∖ G₂ keeps G₁'s edges outside E₂ with both endpoints
        // outside N₂.
        let survives = |e: &EdgeData| [e.src, e.dst].iter().all(|n| !b_nodes.contains(&n.raw()));
        let kept = ma.iter().filter(|(id, e)| !mb.contains_key(id) && survives(e));
        let md: BTreeMap<EdgeId, EdgeData> = kept.map(|(&id, e)| (id, e.clone())).collect();
        check_edges(&ops::difference(&a, &b), &md);
        for g in [union, intersection, ops::difference(&a, &b)] {
            prop_assert_eq!(g.shifted_inserts(ElementSort::Edge), 0);
        }
    }
}

/// Node identifiers are drawn below this: small, so inserts collide and
/// re-inserts merge.
const NODE_IDS: u64 = 16;

/// One node insert: identifier, and a label and a property value by pool
/// index.
type NodeOp = (u64, usize, usize);

fn node_ops() -> impl Strategy<Value = Vec<NodeOp>> {
    prop::collection::vec((0..NODE_IDS, 0usize..3, 0usize..9), 1..40)
}

/// `g`'s nodes are the model's: lookups of every candidate number as a
/// node and as an edge, the ascending listings, the positions, and —
/// `links` edges in — each node's adjacency.
fn check_nodes(
    g: &PathPropertyGraph,
    model: &BTreeMap<NodeId, Attributes>,
    candidates: &[u64],
    links: &BTreeMap<EdgeId, (NodeId, NodeId)>,
) {
    assert_eq!(g.node_count(), model.len());
    assert!(g.node_ids().eq(model.keys().copied()));
    assert_eq!(
        g.node_ids_sorted(),
        model.keys().copied().collect::<Vec<_>>()
    );
    let listed = g.nodes().map(|(id, n)| (id, &n.attrs));
    assert!(listed.eq(model.iter().map(|(&id, a)| (id, a))));
    let at = g.positions();
    assert_eq!(at.len(), model.len());
    let (label, key) = (Label::new("repr_a"), Key::new("repr_w"));
    for &raw in candidates {
        let id = NodeId(raw);
        let want = model.get(&id);
        assert_eq!(g.node(id).map(|n| &n.attrs), want, "{id}");
        assert_eq!(g.contains_node(id), want.is_some(), "{id}");
        assert_eq!(g.attributes(id.into()), want, "{id}");
        let labelled = want.is_some_and(|a| a.labels.contains(label));
        assert_eq!(g.has_label(id.into(), label), labelled, "{id}");
        assert_eq!(
            g.prop_ref(id.into(), key),
            want.and_then(|a| a.properties.get(&key))
        );
        let pos = model.keys().position(|&n| n == id).map(|p| p as u32);
        assert_eq!(at.of(id), pos, "{id}");
        if let Some(p) = pos {
            assert_eq!(at.id(p), id);
        }
        let out: Vec<EdgeId> = links
            .iter()
            .filter(|(_, e)| e.0 == id)
            .map(|(&e, _)| e)
            .collect();
        let into: Vec<EdgeId> = links
            .iter()
            .filter(|(_, e)| e.1 == id)
            .map(|(&e, _)| e)
            .collect();
        assert_eq!(g.out_edges(id), out, "out of {id}");
        assert_eq!(g.in_edges(id), into, "into {id}");
        assert_eq!(g.degree(id), out.len() + into.len());
        // The number as an edge's: the links are the only edges.
        let edge = EdgeId(raw);
        assert_eq!(g.endpoints(edge), links.get(&edge).copied(), "{edge}");
        assert_eq!(g.contains_edge(edge), links.contains_key(&edge));
    }
    g.validate().expect("well-formed");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Nodes inserted in any order, merged, and looked up after every
    /// insert behave like a `BTreeMap<NodeId, Attributes>`; so do they
    /// once edges link them and the read layout is built. Node `k` is
    /// numbered `stride · k`, its out-edge `stride · k + 1`: a stride of
    /// 2 is dense enough for the layout's slot table, one of 1 000 is
    /// not, and the search serves; either way every node's number, asked
    /// for as an edge, and every edge's, asked for as a node, is absent.
    #[test]
    fn nodes_agree_with_a_btree_map(ops in node_ops(), dense in any::<bool>()) {
        let stride = if dense { 2 } else { 1000 };
        // Every node's and edge's number, and one past each edge's.
        let around = |k: u64| [k * stride, k * stride + 1, k * stride + 2];
        let candidates: Vec<u64> = (0..=NODE_IDS).flat_map(around).collect();
        let mut g = PathPropertyGraph::new();
        let mut model: BTreeMap<NodeId, Attributes> = BTreeMap::new();
        let mut links = BTreeMap::new();
        for &(k, label, value) in &ops {
            let id = NodeId(k * stride);
            let attrs = edge_attrs(label, value);
            g.add_node(id, attrs.clone());
            model.entry(id).or_default().union_in_place(&attrs);
            check_nodes(&g, &model, &around(k), &links);
        }
        // Each node links to the next one around, over its out-edge.
        let ids: Vec<NodeId> = model.keys().copied().collect();
        for (i, &n) in ids.iter().enumerate() {
            let (e, next) = (EdgeId(n.raw() + 1), ids[(i + 1) % ids.len()]);
            g.add_edge(e, n, next, Attributes::labeled("repr_b")).expect("endpoints");
            links.insert(e, (n, next));
        }
        check_nodes(&g, &model, &candidates, &links);
        g.build_label_index();
        check_nodes(&g, &model, &candidates, &links);
        let mut steps = Vec::new();
        for &n in &ids {
            g.for_each_step(n, StepDir::Out, Some(Label::new("repr_b")), |e, far| steps.push((e, n, far)));
        }
        let want: Vec<(EdgeId, NodeId, NodeId)> = links.iter().map(|(&e, &(s, d))| (e, s, d)).collect();
        prop_assert_eq!(steps, want);
        // An insert shifts when its node is new and below the last one.
        let shifted = ops.iter().enumerate().filter(|&(i, &(k, ..))| {
            let before = &ops[..i];
            before.iter().all(|o| o.0 != k) && before.iter().any(|o| o.0 > k)
        });
        prop_assert_eq!(g.shifted_inserts(ElementSort::Node), shifted.count());
    }
}

/// One generated element's labels (a mask over three labels) and
/// properties: per key, the pool indices of its values (empty, or all
/// `Null`, means the key is absent).
type Payload = (u8, Vec<Vec<usize>>);

fn payload() -> impl Strategy<Value = Payload> {
    let values = prop::collection::vec(0usize..9, 0..3);
    (0u8..8, prop::collection::vec(values, 3..4))
}

fn model_label(i: usize) -> Label {
    Label::new(["stats_l0", "stats_l1", "stats_l2"][i])
}

fn model_key(i: usize) -> Key {
    Key::new(["stats_k0", "stats_k1", "stats_k2"][i])
}

/// The labels a mask names.
fn labels_of(mask: u8) -> Vec<Label> {
    (0..3)
        .filter(|i| mask & (1 << i) != 0)
        .map(model_label)
        .collect()
}

/// `values` without `Null` and without repeats under `total_cmp`, so
/// `Int(1)` and `Float(1.0)` are one value.
fn distinct_of(values: impl IntoIterator<Item = Value>) -> Vec<Value> {
    let mut out: Vec<Value> = Vec::new();
    for v in values {
        if !v.is_null() && !out.iter().any(|o| o.total_cmp(&v).is_eq()) {
            out.push(v);
        }
    }
    out
}

/// Per key, the value set an element with `props` carries.
fn value_sets(props: &[Vec<usize>]) -> Vec<(usize, Vec<Value>)> {
    let sets = props.iter().enumerate();
    let sets = sets.map(|(k, vs)| (k, distinct_of(vs.iter().map(|&i| pool(i)))));
    sets.filter(|(_, vs)| !vs.is_empty()).collect()
}

fn attrs_of((mask, props): &Payload) -> Attributes {
    let mut attrs = Attributes::new();
    for l in labels_of(*mask) {
        attrs.labels.insert(l);
    }
    for (k, vs) in value_sets(props) {
        attrs.set_prop(model_key(k), PropertySet::from_values(vs));
    }
    attrs
}

/// The property sketches of `elements`, counted from the definitions:
/// carriers have σ(x, k) ≠ ∅, values are summed over carriers, and
/// distinct values are counted across carriers under `total_cmp`.
fn model_props<'a>(elements: impl Iterator<Item = &'a Payload> + Clone) -> Vec<(Key, PropStats)> {
    let mut out = Vec::new();
    for k in 0..3 {
        let carried: Vec<Vec<Value>> = elements
            .clone()
            .filter_map(|(_, props)| value_sets(props).into_iter().find(|(j, _)| *j == k))
            .map(|(_, vs)| vs)
            .collect();
        if carried.is_empty() {
            continue;
        }
        let stats = PropStats {
            carriers: carried.len() as u64,
            values: carried.iter().map(|vs| vs.len() as u64).sum(),
            distinct: distinct_of(carried.into_iter().flatten()).len() as u64,
        };
        out.push((model_key(k), stats));
    }
    out.sort_by_key(|(k, _)| *k);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A registered graph's statistics are the counts their definitions
    /// give: nodes per label; edges, distinct sources and distinct
    /// destinations per edge label; and the per-key property sketches.
    /// Stored paths count only in `path_count`.
    #[test]
    fn graph_stats_agree_with_a_naive_count(
        nodes in prop::collection::vec(payload(), 0..7),
        edges in prop::collection::vec((0usize..7, 0usize..7, payload()), 0..16),
        paths in prop::collection::vec((0usize..16, payload()), 0..3),
    ) {
        let n = nodes.len();
        let mut g = PathPropertyGraph::new();
        for (i, p) in nodes.iter().enumerate() {
            g.add_node(NodeId(i as u64), attrs_of(p));
        }
        // Endpoints wrap onto the nodes there are; with none, no edge.
        let edges: Vec<(usize, usize, Payload)> = edges
            .into_iter()
            .filter(|_| n > 0)
            .map(|(s, d, p)| (s % n.max(1), d % n.max(1), p))
            .collect();
        for (i, (s, d, p)) in edges.iter().enumerate() {
            let (s, d) = (NodeId(*s as u64), NodeId(*d as u64));
            g.add_edge(EdgeId(100 + i as u64), s, d, attrs_of(p)).unwrap();
        }
        // A stored path is one edge walked forwards, or a lone node.
        for (i, (pick, p)) in paths.iter().enumerate() {
            let shape = match edges.get(*pick) {
                Some((s, d, _)) => PathShape::new(
                    vec![NodeId(*s as u64), NodeId(*d as u64)],
                    vec![EdgeId(100 + *pick as u64)],
                ),
                None if n > 0 => PathShape::new(vec![NodeId((pick % n) as u64)], vec![]),
                None => continue,
            };
            g.add_path(PathId(200 + i as u64), shape.unwrap(), attrs_of(p)).unwrap();
        }
        let path_count = g.path_count() as u64;

        let mut nodes_per_label = BTreeMap::<Label, u64>::new();
        for (mask, _) in &nodes {
            for l in labels_of(*mask) {
                *nodes_per_label.entry(l).or_default() += 1;
            }
        }
        type Ends = (u64, BTreeSet<usize>, BTreeSet<usize>);
        let mut relations = BTreeMap::<Label, Ends>::new();
        for (s, d, (mask, _)) in &edges {
            for l in labels_of(*mask) {
                let r = relations.entry(l).or_default();
                r.0 += 1;
                r.1.insert(*s);
                r.2.insert(*d);
            }
        }
        let model = GraphStats {
            node_count: n as u64,
            edge_count: edges.len() as u64,
            path_count,
            nodes_per_label: nodes_per_label.into_iter().collect(),
            edges_per_label: relations
                .into_iter()
                .map(|(l, (count, srcs, dsts))| {
                    let (distinct_src, distinct_dst) = (srcs.len() as u64, dsts.len() as u64);
                    (l, EdgeLabelStats { count, distinct_src, distinct_dst })
                })
                .collect(),
            node_props: model_props(nodes.iter()),
            edge_props: model_props(edges.iter().map(|(_, _, p)| p)),
        };

        prop_assert!(g.stats().is_none(), "a graph under construction has none");
        let mut catalog = Catalog::new();
        catalog.register_graph("g", g);
        let registered = catalog.graph("g").unwrap();
        prop_assert_eq!(registered.stats(), Some(&model));
        // Any mutation drops them.
        let mut changed = (*registered).clone();
        changed.add_node(NodeId(999), Attributes::new());
        prop_assert!(changed.stats().is_none());
    }
}

/// Path identifiers are drawn below this: small, so inserts collide and
/// re-inserts merge.
const PATH_IDS: u64 = 12;

/// The graph stored paths are inserted into: nodes 0–3, edges 10: 0→1,
/// 11: 1→2, 12: 2→0 and the self-loop 13: 3→3. `nodes` (a mask) keeps
/// some nodes and the edges between them.
fn path_base(nodes: u8) -> PathPropertyGraph {
    let mut g = PathPropertyGraph::new();
    for n in (0..4).filter(|n| nodes & (1 << n) != 0) {
        g.add_node(NodeId(n), Attributes::new());
    }
    for (e, src, dst) in [(10, 0, 1), (11, 1, 2), (12, 2, 0), (13, 3, 3)] {
        let (src, dst) = (NodeId(src), NodeId(dst));
        if g.contains_node(src) && g.contains_node(dst) {
            g.add_edge(EdgeId(e), src, dst, Attributes::new())
                .expect("endpoints");
        }
    }
    g
}

/// The walks a path insert picks from: the last two name a node and an
/// edge no graph has.
fn walk(i: usize) -> PathShape {
    let (nodes, edges): (&[u64], &[u64]) = match i {
        0 => (&[0], &[]),
        1 => (&[0, 1], &[10]),
        2 => (&[0, 1, 2], &[10, 11]),
        3 => (&[2, 1], &[11]),
        4 => (&[3, 3], &[13]),
        5 => (&[0, 9], &[10]),
        _ => (&[0, 1], &[99]),
    };
    let nodes = nodes.iter().copied().map(NodeId).collect();
    PathShape::new(nodes, edges.iter().copied().map(EdgeId).collect()).expect("a walk")
}
const WALKS: usize = 7;

/// One path insert: identifier, walk, and a label and a property value
/// by pool index.
type PathOp = (u64, usize, usize, usize);

fn path_ops() -> impl Strategy<Value = Vec<PathOp>> {
    let op = (0..PATH_IDS, 0..WALKS, 0usize..3, 0usize..9);
    prop::collection::vec(op, 0..24)
}

/// `base` with the paths of `ops` inserted in their order, and its
/// model, checked after every insert: a walk over a node or an edge
/// `base` lacks is refused, a new identifier is inserted, a known one
/// with the same walk merges, and with another walk it is an identity
/// conflict and changes nothing.
fn build_paths(
    base: &PathPropertyGraph,
    ops: &[PathOp],
) -> (PathPropertyGraph, BTreeMap<PathId, PathData>) {
    let mut g = base.clone();
    let mut model: BTreeMap<PathId, PathData> = BTreeMap::new();
    for &(id, w, label, value) in ops {
        let (id, shape, attrs) = (PathId(id), walk(w), edge_attrs(label, value));
        let got = g.add_path(id, shape.clone(), attrs.clone());
        if let Some(&node) = shape.nodes().iter().find(|&&n| !base.contains_node(n)) {
            assert_eq!(got, Err(GraphError::PathUnknownNode { path: id, node }));
        } else if let Some(&edge) = shape.edges().iter().find(|&&e| !base.contains_edge(e)) {
            assert_eq!(got, Err(GraphError::PathUnknownEdge { path: id, edge }));
        } else {
            match model.entry(id) {
                Entry::Vacant(slot) => {
                    assert_eq!(got, Ok(()));
                    slot.insert(PathData { shape, attrs });
                }
                Entry::Occupied(mut slot) if slot.get().shape == shape => {
                    assert_eq!(got, Ok(()));
                    slot.get_mut().attrs.union_in_place(&attrs);
                }
                Entry::Occupied(_) => {
                    assert!(
                        matches!(got, Err(GraphError::IdentityConflict(_))),
                        "{got:?}"
                    );
                }
            }
        }
        check_paths(&g, &model);
    }
    (g, model)
}

/// `g`'s stored paths are the model's: lookups of present and absent
/// identifiers, the ascending listings and the label filter.
fn check_paths(g: &PathPropertyGraph, model: &BTreeMap<PathId, PathData>) {
    assert_eq!(g.path_count(), model.len());
    assert!(g.path_ids().eq(model.keys().copied()), "{:?}", model.keys());
    assert_eq!(
        g.path_ids_sorted(),
        model.keys().copied().collect::<Vec<_>>()
    );
    assert!(g.paths().eq(model.iter().map(|(&id, p)| (id, p))));
    for id in (0..=PATH_IDS).map(PathId) {
        assert_eq!(g.path(id), model.get(&id), "{id}");
        assert_eq!(g.contains_path(id), model.contains_key(&id), "{id}");
        assert_eq!(g.attributes(id.into()), model.get(&id).map(|p| &p.attrs));
    }
    for l in ["repr_a", "repr_b", "repr_c"].map(Label::new) {
        let carrying = model.iter().filter(|(_, p)| p.attrs.labels.contains(l));
        let want: Vec<PathId> = carrying.map(|(&id, _)| id).collect();
        assert_eq!(g.paths_with_label(l), want, "{l:?}");
    }
    g.validate().expect("well-formed");
}

/// `base` with the model's paths inserted in ascending identifier order.
fn paths_from_model(
    base: &PathPropertyGraph,
    model: &BTreeMap<PathId, PathData>,
) -> PathPropertyGraph {
    let mut g = base.clone();
    for (&id, p) in model {
        g.add_path(id, p.shape.clone(), p.attrs.clone())
            .expect("model path");
    }
    assert_eq!(g.shifted_inserts(ElementSort::Path), 0);
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Stored paths inserted in any order, merged, refused and looked up
    /// after every insert behave like a `BTreeMap<PathId, PathData>`,
    /// and the graph equals the one the model builds in order.
    #[test]
    fn paths_agree_with_a_btree_map(ops in path_ops(), pick in 0usize..PATH_IDS as usize) {
        let base = path_base(0b1111);
        let (g, model) = build_paths(&base, &ops);
        let same = paths_from_model(&base, &model);
        prop_assert_eq!(g.same_as(&same), Ok(()));
        prop_assert_eq!(&g, &same);
        if let Some(&id) = model.keys().nth(pick % model.len().max(1)) {
            let mut fewer = model.clone();
            fewer.remove(&id);
            let differs = g.same_as(&paths_from_model(&base, &fewer));
            prop_assert_eq!(differs, Err("path sets differ".to_string()));
            let mut changed = model.clone();
            if let Some(p) = changed.get_mut(&id) {
                p.attrs.labels.insert(Label::new("repr_changed"));
            }
            let differs = g.same_as(&paths_from_model(&base, &changed));
            prop_assert_eq!(differs, Err(format!("path {id} differs")));
        }
    }

    /// Union, intersection and difference of two graphs sharing stored
    /// paths agree with the models: a shared identifier with another walk
    /// makes the union and the intersection empty (§A.5), and the
    /// difference drops a path of G₁ ∖ G₂ whose node or edge is gone.
    #[test]
    fn set_operations_on_paths_agree_with_the_model(
        a_ops in path_ops(),
        b_ops in path_ops(),
        b_mask in 0u8..16,
    ) {
        let (a_base, b_base) = (path_base(0b1111), path_base(b_mask));
        let (a, ma) = build_paths(&a_base, &a_ops);
        let (b, mb) = build_paths(&b_base, &b_ops);
        let consistent = ma.iter().all(|(id, p)| mb.get(id).is_none_or(|q| q.shape == p.shape));
        let (union, intersection) = (ops::union(&a, &b), ops::intersect(&a, &b));
        if consistent {
            let mut mu = ma.clone();
            for (&id, p) in &mb {
                mu.entry(id)
                    .and_modify(|mine| mine.attrs.union_in_place(&p.attrs))
                    .or_insert_with(|| p.clone());
            }
            check_paths(&union, &mu);
            let shared = ma.iter().filter_map(|(&id, p)| {
                let attrs = p.attrs.intersect(&mb.get(&id)?.attrs);
                Some((id, PathData { attrs, ..p.clone() }))
            });
            check_paths(&intersection, &shared.collect());
        } else {
            prop_assert!(union.is_empty() && intersection.is_empty());
        }
        // G₁ ∖ G₂ keeps G₁'s paths outside P₂ whose nodes lie outside N₂
        // and whose edges lie outside E₂.
        let difference = ops::difference(&a, &b);
        let survives = |p: &PathData| {
            p.shape.nodes().iter().all(|&n| !b.contains_node(n))
                && p.shape.edges().iter().all(|&e| !b.contains_edge(e))
        };
        let kept = ma.iter().filter(|(id, p)| !mb.contains_key(id) && survives(p));
        let md: BTreeMap<PathId, PathData> = kept.map(|(&id, p)| (id, p.clone())).collect();
        check_paths(&difference, &md);
        for g in [union, intersection, difference] {
            prop_assert_eq!(g.shifted_inserts(ElementSort::Path), 0);
        }
    }
}

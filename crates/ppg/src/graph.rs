//! The Path Property Graph itself — Definition 2.1 of the paper.
//!
//! `G = (N, E, P, ρ, δ, λ, σ)`:
//!
//! * `N`, `E`, `P` — the key sets of nodes, edges and paths
//!   ([`node_ids`](PathPropertyGraph::node_ids) /
//!   [`edge_ids`](PathPropertyGraph::edge_ids) /
//!   [`path_ids`](PathPropertyGraph::path_ids));
//! * `ρ : E → N × N` — [`EdgeData::src`] / [`EdgeData::dst`];
//! * `δ : P → FLIST(N ∪ E)` — [`PathData::shape`];
//! * `λ : N ∪ E ∪ P → FSET(L)` — the per-element [`LabelSet`]s;
//! * `σ : (N ∪ E ∪ P) × K → FSET(V)` — the per-element property maps.
//!
//! # Two layouts
//!
//! The *write layout* is what every mutation edits. Nodes and edges each
//! live in id order: one ascending vector of identifiers and, at the same
//! index, one vector of payloads — an element's index is its *slot*. A
//! node's payload holds its out- and in-edge lists (insertion order)
//! beside its attributes; stored paths live in a hash map from
//! identifier to payload. An insert above the last identifier appends,
//! and any other shifts both vectors (counted by
//! [`PathPropertyGraph::shifted_node_inserts`] and
//! [`PathPropertyGraph::shifted_edge_inserts`]). Every bulk producer
//! hands its nodes and edges over in ascending order — decoding,
//! [`crate::GraphBuilder`] and minted identifiers arrive that way, the
//! set operations merge two sorted stores, CONSTRUCT sorts what it
//! stages — so building a graph appends, and whatever reads every node
//! or edge (encoding, the read layout, equality) reads the vectors in
//! order with nothing to sort. Payloads are compact (see
//! [`crate::property`]): a label set or property set of one member holds
//! it inline, and an element's properties are one vector sorted by key.
//!
//! The *read layout* is the one state a graph derives: built once over a
//! finished graph — by [`crate::GraphBuilder::build`],
//! [`crate::Catalog::register_graph`] or
//! [`PathPropertyGraph::build_label_index`] — and dropped by any
//! mutation:
//!
//! * the slot table: for every number from the lowest node or edge
//!   identifier to the highest, the slot of the node or edge of that
//!   number. One [`crate::IdGen`] numbers every sort, so one table serves
//!   both; a lookup checks the slot's identifier, so the number of an
//!   element of another sort is absent. It is built when that span is at
//!   most 4 entries per node and edge and no node shares a number with an
//!   edge; otherwise — and in a graph without the layout, such as a
//!   decoded reply or CONSTRUCT's staging — a lookup binary-searches the
//!   identifiers alone, so the search stays in cache;
//! * a node's position ([`Positions`]) is its slot, so position order is
//!   id order;
//! * per edge label, an out- and an in-range per position of
//!   `(edge, far position)` steps in ascending edge id — a CSR;
//! * per node label, the group's positions, ascending;
//! * the planner's [`GraphStats`], tallied by the first
//!   [`PathPropertyGraph::stats`] call from the arrays above (a label
//!   group's length, a CSR's total and its non-empty ranges) and the
//!   property values — a graph no planner asks about never pays for it.
//!
//! [`PathPropertyGraph::for_each_step`] and
//! [`PathPropertyGraph::nodes_with_label`] read it when it is built and
//! scan the write layout when not, so it is purely an accelerator.

use crate::error::GraphError;
use crate::hash::FxHashMap;
use crate::ids::{EdgeId, ElementId, NodeId, PathId};
use crate::path::PathShape;
use crate::property::{PropertyMap, PropertySet};
use crate::stats::{EdgeLabelStats, GraphStats, PropStats, PropTally};
use crate::symbols::{Key, Label, LabelSet};
use crate::value::Value;
use std::borrow::Cow;
use std::ops::Range;
use std::sync::OnceLock;

/// Labels and properties shared by every element sort.
#[derive(Clone, PartialEq, Eq, Default, Debug)]
pub struct Attributes {
    /// Labels attached to the element (λ).
    pub labels: LabelSet,
    /// Property map of the element (σ), values are finite sets.
    pub properties: PropertyMap,
}

impl Attributes {
    /// No labels, no properties.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attributes with a single label.
    pub fn labeled(label: &str) -> Self {
        Attributes {
            labels: LabelSet::single(Label::new(label)),
            ..Default::default()
        }
    }

    /// Builder-style label addition.
    pub fn with_label(mut self, label: &str) -> Self {
        self.labels.insert(Label::new(label));
        self
    }

    /// Builder-style property addition (singleton value).
    pub fn with_prop(mut self, key: &str, value: impl Into<Value>) -> Self {
        self.set_prop(Key::new(key), PropertySet::single(value.into()));
        self
    }

    /// Builder-style multi-valued property addition.
    pub fn with_prop_set(mut self, key: &str, values: PropertySet) -> Self {
        self.set_prop(Key::new(key), values);
        self
    }

    /// σ(x, k): the property set for `k` (empty set = absent).
    pub fn prop(&self, key: Key) -> PropertySet {
        self.properties.get(&key).cloned().unwrap_or_default()
    }

    /// Assign σ(x, k) := values. Setting an empty set removes the entry
    /// (absence and the empty set are indistinguishable, per §2).
    pub fn set_prop(&mut self, key: Key, values: PropertySet) {
        if values.is_empty() {
            self.properties.remove(&key);
        } else {
            self.properties.insert(key, values);
        }
    }

    /// Merge by set union (graph union semantics, §A.5). Allocates only
    /// for what `other` adds: a label, key or value already present costs
    /// a lookup, so merging a subset of `self` changes nothing.
    pub fn union_in_place(&mut self, other: &Attributes) {
        self.labels.union_in_place(&other.labels);
        for (k, vs) in &other.properties {
            match self.properties.get_mut(k) {
                Some(mine) => {
                    mine.union_in_place(vs);
                    // Both empty: absence, as `set_prop` stores it.
                    if mine.is_empty() {
                        self.properties.remove(k);
                    }
                }
                None if !vs.is_empty() => {
                    self.properties.insert(*k, vs.clone());
                }
                None => {}
            }
        }
    }

    /// Merge by set intersection (graph intersection semantics, §A.5).
    pub fn intersect(&self, other: &Attributes) -> Attributes {
        let mut props = PropertyMap::new();
        for (k, vs) in &self.properties {
            if let Some(other_vs) = other.properties.get(k) {
                let both = vs.intersection(other_vs);
                if !both.is_empty() {
                    props.insert(*k, both);
                }
            }
        }
        Attributes {
            labels: self.labels.intersection(&other.labels),
            properties: props,
        }
    }
}

/// Per-node payload.
#[derive(Clone, PartialEq, Eq, Default, Debug)]
pub struct NodeData {
    /// Labels and properties of the node.
    pub attrs: Attributes,
}

/// Per-edge payload: ρ(e) = (src, dst) plus attributes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EdgeData {
    /// Source node: ρ(e).0.
    pub src: NodeId,
    /// Destination node: ρ(e).1.
    pub dst: NodeId,
    /// Labels and properties of the edge.
    pub attrs: Attributes,
}

/// Per-path payload: δ(p) plus attributes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PathData {
    /// The walk δ(p): interleaved nodes and edges.
    pub shape: PathShape,
    /// Labels and properties of the path object.
    pub attrs: Attributes,
}

/// A node's payload and adjacency in the write layout: one entry per
/// node, so inserting a node is one insertion and an edge pushes onto
/// its endpoints' entries.
#[derive(Clone, Default, Debug)]
struct NodeEntry {
    data: NodeData,
    /// Edges e with ρ(e) = (node, _), in insertion order.
    outgoing: Vec<EdgeId>,
    /// Edges e with ρ(e) = (_, node), in insertion order.
    incoming: Vec<EdgeId>,
}

/// One element sort in id order (see the [module docs](self)): `ids`
/// ascending, `data[i]` the payload of element `ids[i]`. An element's
/// index is its *slot*.
#[derive(Clone, Debug)]
struct Sorted<I, T> {
    ids: Vec<I>,
    data: Vec<T>,
    /// Inserts that landed below the last identifier and shifted the
    /// vectors.
    shifted: usize,
}

impl<I, T> Default for Sorted<I, T> {
    fn default() -> Self {
        Sorted {
            ids: Vec::new(),
            data: Vec::new(),
            shifted: 0,
        }
    }
}

impl<I: Copy + Ord, T> Sorted<I, T> {
    /// The slot of element `id` (`Ok`), or where it would be inserted
    /// (`Err`). An id above the last one is not searched for.
    #[inline]
    fn find(&self, id: I) -> Result<usize, usize> {
        find(&self.ids, id)
    }

    /// Put element `id` at slot `at`, which [`find`](Self::find) gave.
    fn insert(&mut self, at: usize, id: I, data: T) {
        if at < self.ids.len() {
            self.shifted += 1;
        }
        self.ids.insert(at, id);
        self.data.insert(at, data);
    }

    fn reserve(&mut self, more: usize) {
        self.ids.reserve(more);
        self.data.reserve(more);
    }

    /// Every element with its payload, ascending.
    fn iter(&self) -> impl ExactSizeIterator<Item = (I, &T)> + Clone {
        self.ids.iter().copied().zip(&self.data)
    }
}

/// The index of `id` in the ascending `ids` (`Ok`), or where it would be
/// inserted (`Err`).
#[inline]
fn find<I: Copy + Ord>(ids: &[I], id: I) -> Result<usize, usize> {
    match ids.last() {
        Some(&last) if last < id => Err(ids.len()),
        _ => ids.binary_search(&id),
    }
}

/// An identifier the slot table numbers: a node's or an edge's.
trait Numbered: Copy + Ord {
    fn raw(self) -> u64;
}

impl Numbered for NodeId {
    #[inline]
    fn raw(self) -> u64 {
        self.0
    }
}

impl Numbered for EdgeId {
    #[inline]
    fn raw(self) -> u64 {
        self.0
    }
}

/// The slot of `id` among the ascending `ids`: the slot table's entry
/// when there is one, checked against `ids` — so the number of an
/// element of another sort is absent — else a binary search.
#[inline]
fn slot_of<I: Numbered>(ids: &[I], table: Option<&SlotTable>, id: I) -> Option<usize> {
    match table {
        Some(t) => t.get(id.raw()).filter(|&s| ids.get(s) == Some(&id)),
        None => find(ids, id).ok(),
    }
}

/// The read layout's id → slot table: one entry per number of the span
/// from the graph's lowest node or edge identifier to its highest, the
/// slot of the node or edge of that number, or [`SlotTable::NONE`]. One
/// [`crate::IdGen`] numbers every sort, so one table serves nodes and
/// edges.
#[derive(Clone, Debug)]
struct SlotTable {
    base: u64,
    slots: Vec<u32>,
}

impl SlotTable {
    const NONE: u32 = u32::MAX;

    /// Build the table when the span is at most [`SPAN_PER_ELEMENT`]
    /// times the number of nodes and edges and no node shares its number
    /// with an edge; otherwise lookups search.
    fn new(nodes: &[NodeId], edges: &[EdgeId]) -> Option<Self> {
        // Each store is ascending: its first and last ids bound the span.
        fn ends<I: Numbered>(ids: &[I]) -> Option<(u64, u64)> {
            Some((ids.first()?.raw(), ids.last()?.raw()))
        }
        fn numbered<I: Numbered>(ids: &[I]) -> impl Iterator<Item = (usize, u64)> + '_ {
            ids.iter().map(|&id| id.raw()).enumerate()
        }
        let spans = [ends(nodes), ends(edges)].into_iter().flatten();
        let (base, top) = spans.reduce(|a, b| (a.0.min(b.0), a.1.max(b.1)))?;
        // The span is `top - base + 1` entries, which may not fit a u64.
        let elements = (nodes.len() + edges.len()) as u64;
        let last = top - base;
        if last >= SPAN_PER_ELEMENT * elements || last >= u64::from(Self::NONE) {
            return None;
        }
        let mut slots = vec![Self::NONE; last as usize + 1];
        for (slot, raw) in numbered(nodes).chain(numbered(edges)) {
            let entry = &mut slots[(raw - base) as usize];
            if *entry != Self::NONE {
                return None;
            }
            *entry = slot as u32;
        }
        Some(SlotTable { base, slots })
    }

    /// The slot of the element numbered `raw`, if the table has one.
    #[inline]
    fn get(&self, raw: u64) -> Option<usize> {
        let i = usize::try_from(raw.wrapping_sub(self.base)).ok()?;
        match self.slots.get(i) {
            Some(&s) if s != Self::NONE => Some(s as usize),
            _ => None,
        }
    }
}

/// How many table entries the read layout spends per node and edge at
/// most: a graph whose identifiers spread wider searches instead. Four
/// bounds the table at 16 B per element, about a seventh of what a
/// decoded SNB element holds. A generated or decoded catalog graph spans
/// one entry per element and gets the table; a CONSTRUCT view over a
/// slice of a large graph (ten entries per element in the benchmark's
/// `store_restart`) would spend 40 B per element on it, and searches.
const SPAN_PER_ELEMENT: u64 = 4;

/// A graph's nodes numbered by ascending id: node `id(p)` has position
/// `p`, which is its slot in the node store, so position order is id
/// order. Borrowed from the graph ([`PathPropertyGraph::positions`]):
/// a position is looked up in the read layout's slot table when there
/// is one, and searched for otherwise.
#[derive(Clone, Copy, Debug)]
pub struct Positions<'g> {
    ids: &'g [NodeId],
    table: Option<&'g SlotTable>,
}

impl Positions<'_> {
    /// The number of positions: |N|.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// The node at position `pos`.
    #[inline]
    pub fn id(&self, pos: u32) -> NodeId {
        self.ids[pos as usize]
    }

    /// The position of node `id`, if it is one of the graph's.
    #[inline]
    pub fn of(&self, id: NodeId) -> Option<u32> {
        slot_of(self.ids, self.table, id).map(|s| s as u32)
    }
}

/// The read layout (see the [module docs](self)): built once per graph,
/// each array sized by a counting pass, and dropped by any mutation.
#[derive(Clone, Debug)]
struct Dense {
    table: Option<SlotTable>,
    /// |N| + 1: the offsets each (label, direction) keeps.
    stride: usize,
    /// The edge labels, ascending. The `l`-th label's out-ranges
    /// start at `offsets[2l · (n + 1)]`, its in-ranges at
    /// `offsets[(2l + 1) · (n + 1)]`.
    edge_labels: Vec<Label>,
    /// Per (label, direction), `n + 1` offsets into the steps: position
    /// `p`'s range is `offsets[b + p]..offsets[b + p + 1]`.
    offsets: Vec<u32>,
    /// The edge and the far position of every step, ascending edge id
    /// within a range.
    step_edges: Vec<EdgeId>,
    step_far: Vec<u32>,
    /// The node labels, ascending; the `g`-th label's nodes are
    /// `groups[group_offsets[g]..group_offsets[g + 1]]`, ascending.
    node_labels: Vec<Label>,
    group_offsets: Vec<u32>,
    groups: Vec<u32>,
    /// The planner statistics, tallied by the first
    /// [`stats`](PathPropertyGraph::stats) call.
    stats: OnceLock<GraphStats>,
}

/// Every label `attrs` carry, ascending, once: a vector, as labelled
/// steps search it each time and a set's storage branch costs there.
fn labels_of<'g>(attrs: impl Iterator<Item = &'g Attributes>) -> Vec<Label> {
    attrs
        .flat_map(|a| a.labels.iter())
        .collect::<LabelSet>()
        .into_vec()
}

/// Turn per-slot counts, each one slot past the range it counts, into
/// offsets.
fn prefix_sum(counts: &mut [u32]) {
    let mut total = 0u64;
    for c in counts {
        total += u64::from(*c);
        assert!(u32::try_from(total).is_ok(), "layout offsets are u32");
        *c = total as u32;
    }
}

/// The property sketches of one element sort's attributes.
fn tally<'g>(attrs: impl Iterator<Item = &'g Attributes> + Clone) -> Vec<(Key, PropStats)> {
    let mut props = PropTally::default();
    attrs.clone().for_each(|a| props.count(a));
    props.size();
    attrs.for_each(|a| props.fill(a));
    props.finish()
}

impl Dense {
    fn new(graph: &PathPropertyGraph) -> Self {
        let (nodes, edges) = (&graph.nodes, &graph.edges);
        assert!(nodes.ids.len() < u32::MAX as usize, "positions are u32");
        let table = SlotTable::new(&nodes.ids, &edges.ids);
        let node_attrs = || nodes.data.iter().map(|n| &n.data.attrs);
        let node_labels = labels_of(node_attrs());
        let edge_labels = labels_of(edges.data.iter().map(|d| &d.attrs));
        let label_of = |labels: &[Label], l| labels.partition_point(|&x| x < l);

        // Node groups: count, then fill in position order.
        let mut group_offsets = vec![0u32; node_labels.len() + 1];
        for attrs in node_attrs() {
            for l in attrs.labels.iter() {
                group_offsets[label_of(&node_labels, l) + 1] += 1;
            }
        }
        prefix_sum(&mut group_offsets);
        let mut groups = vec![0u32; group_offsets[node_labels.len()] as usize];
        let mut next = group_offsets.clone();
        for (p, attrs) in node_attrs().enumerate() {
            for l in attrs.labels.iter() {
                let g = label_of(&node_labels, l);
                groups[next[g] as usize] = p as u32;
                next[g] += 1;
            }
        }

        // Edge CSRs: count every (label, direction, position) one slot
        // past its range, then fill — the store lists the edges in
        // ascending id, so each range does too.
        let stride = nodes.ids.len() + 1;
        let at = |n: NodeId| slot_of(&nodes.ids, table.as_ref(), n).expect("endpoint");
        let ends: Vec<(u32, u32)> = edges
            .data
            .iter()
            .map(|d| (at(d.src) as u32, at(d.dst) as u32))
            .collect();
        let edges = || graph.edges.iter().zip(&ends);
        let mut offsets = vec![0u32; 2 * edge_labels.len() * stride];
        let slots = |l: Label, src: u32, dst: u32| {
            let out = 2 * label_of(&edge_labels, l) * stride;
            [out + src as usize, out + stride + dst as usize]
        };
        for ((_, d), &(src, dst)) in edges() {
            for l in d.attrs.labels.iter() {
                for slot in slots(l, src, dst) {
                    offsets[slot + 1] += 1;
                }
            }
        }
        prefix_sum(&mut offsets);
        let total = offsets.last().map_or(0, |&t| t as usize);
        let (mut step_edges, mut step_far) = (vec![EdgeId(0); total], vec![0u32; total]);
        let mut next = offsets.clone();
        for ((id, d), &(src, dst)) in edges() {
            for l in d.attrs.labels.iter() {
                for (slot, far) in slots(l, src, dst).into_iter().zip([dst, src]) {
                    let i = next[slot] as usize;
                    (step_edges[i], step_far[i]) = (id, far);
                    next[slot] += 1;
                }
            }
        }
        Dense {
            table,
            stride,
            edge_labels,
            offsets,
            step_edges,
            step_far,
            node_labels,
            group_offsets,
            groups,
            stats: OnceLock::new(),
        }
    }

    /// The statistics of `graph`, whose layout this is: a label group's
    /// length, an edge label's CSR total and its non-empty out- and
    /// in-ranges, and a tally of the property values.
    fn stats(&self, graph: &PathPropertyGraph) -> GraphStats {
        let stride = self.stride;
        let nodes_per_label = self.node_labels.iter().enumerate().map(|(g, &l)| {
            let group = self.group_offsets[g + 1] - self.group_offsets[g];
            (l, u64::from(group))
        });
        let non_empty = |b: usize| {
            let ranges = self.offsets[b..b + stride].windows(2);
            ranges.filter(|r| r[0] < r[1]).count() as u64
        };
        let edges_per_label = self.edge_labels.iter().enumerate().map(|(l, &label)| {
            let out = 2 * l * stride;
            let relation = EdgeLabelStats {
                count: u64::from(self.offsets[out + stride - 1] - self.offsets[out]),
                distinct_src: non_empty(out),
                distinct_dst: non_empty(out + stride),
            };
            (label, relation)
        });
        GraphStats {
            node_count: graph.node_count() as u64,
            edge_count: graph.edge_count() as u64,
            path_count: graph.path_count() as u64,
            nodes_per_label: nodes_per_label.collect(),
            edges_per_label: edges_per_label.collect(),
            node_props: tally(graph.nodes.data.iter().map(|n| &n.data.attrs)),
            edge_props: tally(graph.edges.data.iter().map(|d| &d.attrs)),
        }
    }

    /// The steps of position `pos` along (`out`) or against the edges
    /// of label number `label`.
    #[inline]
    fn range(&self, label: usize, out: bool, pos: u32) -> Range<usize> {
        let b = (2 * label + usize::from(!out)) * self.stride + pos as usize;
        self.offsets[b] as usize..self.offsets[b + 1] as usize
    }
}

/// A way of taking steps from a node named by a `T`: one way along
/// (`out`) or against the edges, and by [`StepDir`].
trait Steps<T: Copy + PartialEq> {
    fn one_way(&self, at: T, out: bool, f: &mut impl FnMut(EdgeId, T));

    /// The steps toward `dir`. `Both` takes the `Out` steps, then the
    /// `In` steps but a self-loop, which it already took forwards.
    #[inline]
    fn toward(&self, at: T, dir: StepDir, f: &mut impl FnMut(EdgeId, T)) {
        match dir {
            StepDir::Out => self.one_way(at, true, f),
            StepDir::In => self.one_way(at, false, f),
            StepDir::Both => {
                self.one_way(at, true, f);
                self.one_way(at, false, &mut |e, far| {
                    if far != at {
                        f(e, far);
                    }
                });
            }
        }
    }
}

/// Steps read off one label's CSR, between positions.
struct LabelSteps<'d> {
    dense: &'d Dense,
    label: usize,
}

impl Steps<u32> for LabelSteps<'_> {
    #[inline]
    fn one_way(&self, at: u32, out: bool, f: &mut impl FnMut(EdgeId, u32)) {
        let r = self.dense.range(self.label, out, at);
        let far = &self.dense.step_far[r.clone()];
        for (&e, &w) in self.dense.step_edges[r].iter().zip(far) {
            f(e, w);
        }
    }
}

/// Steps that filter the adjacency lists (insertion order) by an
/// optional label, between node ids.
struct Scan<'g> {
    graph: &'g PathPropertyGraph,
    label: Option<Label>,
}

impl Scan<'_> {
    /// The steps from the node at `slot`, to far ends named by id.
    #[inline]
    fn steps_from(&self, slot: usize, out: bool, f: &mut impl FnMut(EdgeId, NodeId)) {
        let (g, n) = (self.graph, &self.graph.nodes.data[slot]);
        let adjacent = if out { &n.outgoing } else { &n.incoming };
        for &e in adjacent {
            // An adjacency list names edges of the graph only.
            let Some(d) = g.edge(e) else { continue };
            if self.label.is_none_or(|l| d.attrs.labels.contains(l)) {
                f(e, if out { d.dst } else { d.src });
            }
        }
    }
}

impl Steps<NodeId> for Scan<'_> {
    #[inline]
    fn one_way(&self, at: NodeId, out: bool, f: &mut impl FnMut(EdgeId, NodeId)) {
        if let Some(slot) = self.graph.node_slot(at) {
            self.steps_from(slot, out, f);
        }
    }
}

impl Steps<u32> for Scan<'_> {
    #[inline]
    fn one_way(&self, at: u32, out: bool, f: &mut impl FnMut(EdgeId, u32)) {
        let g = self.graph;
        self.steps_from(at as usize, out, &mut |e, far| {
            f(e, g.node_slot(far).expect("an endpoint") as u32);
        });
    }
}

/// Which way a step from a node follows an edge (§A.2, §A.4).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StepDir {
    /// Source to destination: `-[ℓ]->`, `ℓ`.
    Out,
    /// Destination to source: `<-[ℓ]-`, `ℓ⁻`.
    In,
    /// Either way, a self-loop once: `-[ℓ]-`, `_`.
    Both,
}

/// A Path Property Graph (Definition 2.1).
#[derive(Clone, Default, Debug)]
pub struct PathPropertyGraph {
    nodes: Sorted<NodeId, NodeEntry>,
    edges: Sorted<EdgeId, EdgeData>,
    paths: FxHashMap<PathId, PathData>,
    /// The read layout with the planner statistics, while no mutation
    /// has dropped it.
    dense: Option<Dense>,
}

impl PathPropertyGraph {
    /// The empty graph G∅.
    pub fn new() -> Self {
        Self::default()
    }

    // ------------------------------------------------------------------
    // Insertion
    // ------------------------------------------------------------------

    /// Make room for `nodes`, `edges` and `paths` more elements, so a
    /// caller that knows how many it is about to insert grows each store
    /// once.
    pub fn reserve(&mut self, nodes: usize, edges: usize, paths: usize) {
        self.nodes.reserve(nodes);
        self.edges.reserve(edges);
        self.paths.reserve(paths);
    }

    /// Make room for exactly `out` more out-edges and `incoming` more
    /// in-edges of the node at position `pos` (see
    /// [`positions`](Self::positions)), so a caller that knows the
    /// degrees it is about to insert sizes each list once.
    ///
    /// # Panics
    ///
    /// If `pos` is no position of the graph.
    pub fn reserve_adjacency(&mut self, pos: u32, out: usize, incoming: usize) {
        let n = &mut self.nodes.data[pos as usize];
        n.outgoing.reserve_exact(out);
        n.incoming.reserve_exact(incoming);
    }

    /// Insert a node. Re-inserting an existing node unions attributes
    /// (identity-respecting merge).
    pub fn add_node(&mut self, id: NodeId, attrs: Attributes) {
        self.merge_node(id, Cow::Owned(attrs));
    }

    /// [`add_node`](Self::add_node) with borrowed attributes — the form
    /// for copying an element out of another graph: they are cloned only
    /// when `id` is new, and a re-insertion merges without cloning.
    pub fn add_node_ref(&mut self, id: NodeId, attrs: &Attributes) {
        self.merge_node(id, Cow::Borrowed(attrs));
    }

    fn merge_node(&mut self, id: NodeId, attrs: Cow<'_, Attributes>) {
        self.dense = None;
        match self.nodes.find(id) {
            Ok(i) => self.nodes.data[i].data.attrs.union_in_place(&attrs),
            Err(i) => {
                let data = NodeData {
                    attrs: attrs.into_owned(),
                };
                let entry = NodeEntry {
                    data,
                    ..NodeEntry::default()
                };
                self.nodes.insert(i, id, entry);
            }
        }
    }

    /// Insert an edge with endpoints ρ(id) = (src, dst).
    ///
    /// Both endpoints must already be nodes of the graph. Re-inserting the
    /// same identifier with the *same* endpoints unions attributes;
    /// different endpoints are an identity conflict (the paper: "changing
    /// the source and destination of an edge violates its identity").
    pub fn add_edge(
        &mut self,
        id: EdgeId,
        src: NodeId,
        dst: NodeId,
        attrs: Attributes,
    ) -> Result<(), GraphError> {
        self.merge_edge(id, src, dst, Cow::Owned(attrs))
    }

    /// [`add_edge`](Self::add_edge) with borrowed attributes, cloned only
    /// when `id` is new.
    pub fn add_edge_ref(
        &mut self,
        id: EdgeId,
        src: NodeId,
        dst: NodeId,
        attrs: &Attributes,
    ) -> Result<(), GraphError> {
        self.merge_edge(id, src, dst, Cow::Borrowed(attrs))
    }

    fn merge_edge(
        &mut self,
        id: EdgeId,
        src: NodeId,
        dst: NodeId,
        attrs: Cow<'_, Attributes>,
    ) -> Result<(), GraphError> {
        let at = |node| {
            self.node_slot(node)
                .ok_or(GraphError::DanglingEdge { edge: id, node })
        };
        let (s, d) = (at(src)?, at(dst)?);
        self.merge_edge_at(id, s, d, attrs)
    }

    /// [`add_edge`](Self::add_edge) between the nodes at positions `src`
    /// and `dst` (see [`positions`](Self::positions)): the form for a
    /// caller that has looked its endpoints up already.
    ///
    /// # Panics
    ///
    /// If `src` or `dst` is no position of the graph.
    pub fn add_edge_at(
        &mut self,
        id: EdgeId,
        src: u32,
        dst: u32,
        attrs: Attributes,
    ) -> Result<(), GraphError> {
        self.merge_edge_at(id, src as usize, dst as usize, Cow::Owned(attrs))
    }

    fn merge_edge_at(
        &mut self,
        id: EdgeId,
        s: usize,
        d: usize,
        attrs: Cow<'_, Attributes>,
    ) -> Result<(), GraphError> {
        let (src, dst) = (self.nodes.ids[s], self.nodes.ids[d]);
        self.dense = None;
        match self.edges.find(id) {
            Ok(i) => {
                let existing = &mut self.edges.data[i];
                if existing.src != src || existing.dst != dst {
                    return Err(GraphError::IdentityConflict(format!(
                        "edge {id} re-inserted with endpoints ({src}, {dst}), \
                         but ρ({id}) = ({}, {})",
                        existing.src, existing.dst
                    )));
                }
                existing.attrs.union_in_place(&attrs);
            }
            Err(i) => {
                let attrs = attrs.into_owned();
                self.edges.insert(i, id, EdgeData { src, dst, attrs });
                self.nodes.data[s].outgoing.push(id);
                self.nodes.data[d].incoming.push(id);
            }
        }
        Ok(())
    }

    /// Insert a stored path. The shape must satisfy condition (3) of
    /// Definition 2.1 against this graph's ρ.
    pub fn add_path(
        &mut self,
        id: PathId,
        shape: PathShape,
        attrs: Attributes,
    ) -> Result<(), GraphError> {
        self.merge_path(id, Cow::Owned(shape), Cow::Owned(attrs))
    }

    /// [`add_path`](Self::add_path) with a borrowed walk and attributes,
    /// cloned only when `id` is new.
    pub fn add_path_ref(
        &mut self,
        id: PathId,
        shape: &PathShape,
        attrs: &Attributes,
    ) -> Result<(), GraphError> {
        self.merge_path(id, Cow::Borrowed(shape), Cow::Borrowed(attrs))
    }

    fn merge_path(
        &mut self,
        id: PathId,
        shape: Cow<'_, PathShape>,
        attrs: Cow<'_, Attributes>,
    ) -> Result<(), GraphError> {
        self.check_path_shape(id, &shape)?;
        self.dense = None;
        match self.paths.get_mut(&id) {
            Some(existing) => {
                if existing.shape != *shape {
                    return Err(GraphError::IdentityConflict(format!(
                        "path {id} re-inserted with a different δ"
                    )));
                }
                existing.attrs.union_in_place(&attrs);
            }
            None => {
                let (shape, attrs) = (shape.into_owned(), attrs.into_owned());
                self.paths.insert(id, PathData { shape, attrs });
            }
        }
        Ok(())
    }

    fn check_path_shape(&self, id: PathId, shape: &PathShape) -> Result<(), GraphError> {
        for &n in shape.nodes() {
            if !self.contains_node(n) {
                return Err(GraphError::PathUnknownNode { path: id, node: n });
            }
        }
        for (i, &e) in shape.edges().iter().enumerate() {
            let Some(data) = self.edge(e) else {
                return Err(GraphError::PathUnknownEdge { path: id, edge: e });
            };
            let a = shape.nodes()[i];
            let b = shape.nodes()[i + 1];
            let forward = data.src == a && data.dst == b;
            let backward = data.src == b && data.dst == a;
            if !forward && !backward {
                return Err(GraphError::PathNotConnected {
                    path: id,
                    edge: e,
                    from: a,
                    to: b,
                });
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Lookup
    // ------------------------------------------------------------------

    /// The slot table of the read layout, while it is built and has one.
    #[inline]
    fn table(&self) -> Option<&SlotTable> {
        self.dense.as_ref()?.table.as_ref()
    }

    /// The slot of node `id` in the node store: its position.
    #[inline]
    fn node_slot(&self, id: NodeId) -> Option<usize> {
        slot_of(&self.nodes.ids, self.table(), id)
    }

    #[inline]
    fn node_entry(&self, id: NodeId) -> Option<&NodeEntry> {
        self.node_slot(id).map(|s| &self.nodes.data[s])
    }

    /// The node payload, if `id ∈ N`.
    pub fn node(&self, id: NodeId) -> Option<&NodeData> {
        self.node_entry(id).map(|n| &n.data)
    }

    /// The edge payload, if `id ∈ E`.
    #[inline]
    pub fn edge(&self, id: EdgeId) -> Option<&EdgeData> {
        let slot = slot_of(&self.edges.ids, self.table(), id);
        slot.map(|s| &self.edges.data[s])
    }

    /// The path payload, if `id ∈ P`.
    pub fn path(&self, id: PathId) -> Option<&PathData> {
        self.paths.get(&id)
    }

    /// True iff `id ∈ N`.
    pub fn contains_node(&self, id: NodeId) -> bool {
        self.node_slot(id).is_some()
    }

    /// True iff `id ∈ E`.
    pub fn contains_edge(&self, id: EdgeId) -> bool {
        self.edge(id).is_some()
    }

    /// True iff `id ∈ P`.
    pub fn contains_path(&self, id: PathId) -> bool {
        self.paths.contains_key(&id)
    }

    /// ρ(e) = (src, dst).
    pub fn endpoints(&self, id: EdgeId) -> Option<(NodeId, NodeId)> {
        self.edge(id).map(|e| (e.src, e.dst))
    }

    /// The attributes of any element sort, or `None` if absent.
    pub fn attributes(&self, id: ElementId) -> Option<&Attributes> {
        match id {
            ElementId::Node(n) => self.node(n).map(|n| &n.attrs),
            ElementId::Edge(e) => self.edge(e).map(|d| &d.attrs),
            ElementId::Path(p) => self.paths.get(&p).map(|d| &d.attrs),
        }
    }

    /// λ(x): the labels of an element (empty set when the element is
    /// absent, which matching treats as a failed lookup upstream).
    pub fn labels(&self, id: ElementId) -> LabelSet {
        self.attributes(id)
            .map(|a| a.labels.clone())
            .unwrap_or_default()
    }

    /// λ(x) ∋ ℓ.
    pub fn has_label(&self, id: ElementId, label: Label) -> bool {
        self.attributes(id)
            .is_some_and(|a| a.labels.contains(label))
    }

    /// σ(x, k).
    pub fn prop(&self, id: ElementId, key: Key) -> PropertySet {
        self.attributes(id).map(|a| a.prop(key)).unwrap_or_default()
    }

    /// σ(x, k), borrowed: `None` when the element lacks the key (the
    /// empty set) or is absent.
    pub fn prop_ref(&self, id: ElementId, key: Key) -> Option<&PropertySet> {
        self.attributes(id)?.properties.get(&key)
    }

    // ------------------------------------------------------------------
    // Adjacency
    // ------------------------------------------------------------------

    /// Edges e with ρ(e) = (node, _), in insertion order.
    pub fn out_edges(&self, node: NodeId) -> &[EdgeId] {
        self.node_entry(node).map_or(&[], |n| &n.outgoing)
    }

    /// Edges e with ρ(e) = (_, node), in insertion order.
    pub fn in_edges(&self, node: NodeId) -> &[EdgeId] {
        self.node_entry(node).map_or(&[], |n| &n.incoming)
    }

    /// Total degree (in + out).
    pub fn degree(&self, node: NodeId) -> usize {
        self.out_edges(node).len() + self.in_edges(node).len()
    }

    /// Every step from `node` toward `dir` over an edge carrying `label`
    /// (any edge for `None`): `f(edge, far endpoint)`. The one place a
    /// step is taken — pattern matching and path search both ask here,
    /// by id or ([`for_each_step_at`](Self::for_each_step_at)) by
    /// position.
    ///
    /// `Both` takes the `Out` steps, then the `In` steps but a self-loop,
    /// which it already took forwards. A labelled step over the read
    /// layout reads `node`'s CSR range (ascending edge id); every other
    /// step filters the adjacency list (insertion order). Either looks
    /// up `node`'s position once, and neither allocates.
    #[inline]
    pub fn for_each_step(
        &self,
        node: NodeId,
        dir: StepDir,
        label: Option<Label>,
        mut f: impl FnMut(EdgeId, NodeId),
    ) {
        match (label, &self.dense) {
            (Some(_), Some(_)) => {
                if let Some(pos) = self.node_slot(node) {
                    let ids = &self.nodes.ids;
                    let f = |e, far: u32| f(e, ids[far as usize]);
                    self.for_each_step_at(pos as u32, dir, label, f);
                }
            }
            _ => Scan { graph: self, label }.toward(node, dir, &mut f),
        }
    }

    /// [`for_each_step`](Self::for_each_step) between this graph's
    /// [`positions`](Self::positions): the same steps in the same order.
    /// A labelled step over the read layout looks nothing up; a scanned
    /// step looks up its far end's position.
    #[inline]
    pub fn for_each_step_at(
        &self,
        pos: u32,
        dir: StepDir,
        label: Option<Label>,
        mut f: impl FnMut(EdgeId, u32),
    ) {
        match (label, &self.dense) {
            (Some(l), Some(d)) => {
                if let Ok(label) = d.edge_labels.binary_search(&l) {
                    LabelSteps { dense: d, label }.toward(pos, dir, &mut f);
                }
            }
            _ => Scan { graph: self, label }.toward(pos, dir, &mut f),
        }
    }

    /// This graph's node positions: the slots of the node store, looked
    /// up through the read layout's slot table when it has one.
    pub fn positions(&self) -> Positions<'_> {
        Positions {
            ids: &self.nodes.ids,
            table: self.table(),
        }
    }

    /// Build the read layout (see the [module docs](self)): the slot
    /// table, a CSR per edge label and the node label groups; the planner
    /// statistics follow on the first [`stats`](Self::stats) call. Called
    /// once by [`crate::GraphBuilder::build`] and
    /// [`crate::Catalog::register_graph`]; any later mutation drops it
    /// and the accessors fall back to searching and scanning.
    pub fn build_label_index(&mut self) {
        self.dense = Some(Dense::new(self));
    }

    /// True when the read layout is currently built and valid.
    pub fn has_label_index(&self) -> bool {
        self.dense.is_some()
    }

    /// The planner statistics (see [`GraphStats`]), while the read
    /// layout is built: tallied by the first call, kept by the layout.
    pub fn stats(&self) -> Option<&GraphStats> {
        let d = self.dense.as_ref()?;
        Some(d.stats.get_or_init(|| d.stats(self)))
    }

    /// Replace the planner statistics of the built read layout: a hook
    /// for showing that any statistics leave answers unchanged. Without
    /// the layout, or with element counts that are not this graph's,
    /// the statistics are refused.
    pub fn set_stats(&mut self, stats: GraphStats) {
        let counts = [stats.node_count, stats.edge_count, stats.path_count];
        let mine = [self.node_count(), self.edge_count(), self.path_count()].map(|c| c as u64);
        if let Some(d) = &mut self.dense {
            if counts == mine {
                d.stats = OnceLock::from(stats);
            }
        }
    }

    // ------------------------------------------------------------------
    // Iteration
    // ------------------------------------------------------------------

    /// |N|.
    pub fn node_count(&self) -> usize {
        self.nodes.ids.len()
    }

    /// |E|.
    pub fn edge_count(&self) -> usize {
        self.edges.ids.len()
    }

    /// |P|.
    pub fn path_count(&self) -> usize {
        self.paths.len()
    }

    /// True for G∅.
    pub fn is_empty(&self) -> bool {
        self.nodes.ids.is_empty() && self.edges.ids.is_empty() && self.paths.is_empty()
    }

    /// Node identifiers, ascending (the store's order: fast).
    pub fn node_ids(&self) -> impl ExactSizeIterator<Item = NodeId> + Clone + '_ {
        self.nodes.ids.iter().copied()
    }

    /// Edge identifiers, ascending (the store's order: fast).
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.edges.ids.iter().copied()
    }

    /// Path identifiers in arbitrary order (fast).
    pub fn path_ids(&self) -> impl Iterator<Item = PathId> + '_ {
        self.paths.keys().copied()
    }

    /// Every node with its payload, ascending (the store's order: fast).
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = (NodeId, &NodeData)> + Clone + '_ {
        self.nodes.iter().map(|(id, n)| (id, &n.data))
    }

    /// Every edge with its payload, ascending (the store's order: fast).
    pub fn edges(&self) -> impl ExactSizeIterator<Item = (EdgeId, &EdgeData)> + Clone + '_ {
        self.edges.iter()
    }

    /// Every stored path with its payload, in arbitrary order (fast).
    pub fn paths(&self) -> impl Iterator<Item = (PathId, &PathData)> + '_ {
        self.paths.iter().map(|(&id, p)| (id, p))
    }

    /// How many node inserts so far landed below the graph's last node
    /// identifier and so shifted the node store, rather than appending.
    /// Zero for a graph built in id order; a diagnostic of who hands
    /// nodes over out of order.
    pub fn shifted_node_inserts(&self) -> usize {
        self.nodes.shifted
    }

    /// [`shifted_node_inserts`](Self::shifted_node_inserts) for the edge
    /// store.
    pub fn shifted_edge_inserts(&self) -> usize {
        self.edges.shifted
    }

    /// Node identifiers sorted ascending — the deterministic order used by
    /// the matcher and by all exports.
    pub fn node_ids_sorted(&self) -> Vec<NodeId> {
        self.nodes.ids.clone()
    }

    /// Edge identifiers sorted ascending (deterministic order).
    pub fn edge_ids_sorted(&self) -> Vec<EdgeId> {
        self.edges.ids.clone()
    }

    /// Path identifiers sorted ascending (deterministic order).
    pub fn path_ids_sorted(&self) -> Vec<PathId> {
        let mut v: Vec<PathId> = self.paths.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Nodes carrying `label`, sorted by id. Served from the read
    /// layout's label group when it is built, otherwise by a full scan.
    pub fn nodes_with_label(&self, label: Label) -> Vec<NodeId> {
        if let Some(d) = &self.dense {
            let Ok(g) = d.node_labels.binary_search(&label) else {
                return Vec::new();
            };
            let group = d.group_offsets[g] as usize..d.group_offsets[g + 1] as usize;
            return d.groups[group]
                .iter()
                .map(|&p| self.nodes.ids[p as usize])
                .collect();
        }
        let nodes = self.nodes.iter();
        let carrying = nodes.filter(|(_, n)| n.data.attrs.labels.contains(label));
        carrying.map(|(id, _)| id).collect()
    }

    /// Edges carrying `label`, sorted by id.
    pub fn edges_with_label(&self, label: Label) -> Vec<EdgeId> {
        let edges = self.edges.iter();
        let carrying = edges.filter(|(_, d)| d.attrs.labels.contains(label));
        carrying.map(|(id, _)| id).collect()
    }

    /// Paths carrying `label`, sorted by id.
    pub fn paths_with_label(&self, label: Label) -> Vec<PathId> {
        let paths = self.paths.iter();
        let carrying = paths.filter(|(_, d)| d.attrs.labels.contains(label));
        let mut ids: Vec<PathId> = carrying.map(|(&id, _)| id).collect();
        ids.sort_unstable();
        ids
    }

    // ------------------------------------------------------------------
    // Validation
    // ------------------------------------------------------------------

    /// Check every well-formedness condition of Definition 2.1. The public
    /// mutation API maintains these invariants; this is the belt-and-braces
    /// check used by tests and after bulk operations.
    pub fn validate(&self) -> Result<(), GraphError> {
        for (id, e) in self.edges.iter() {
            if !self.contains_node(e.src) {
                return Err(GraphError::DanglingEdge {
                    edge: id,
                    node: e.src,
                });
            }
            if !self.contains_node(e.dst) {
                return Err(GraphError::DanglingEdge {
                    edge: id,
                    node: e.dst,
                });
            }
        }
        for (&id, p) in &self.paths {
            self.check_path_shape(id, &p.shape)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Structural equality
    // ------------------------------------------------------------------

    /// Equality of the tuples (N, E, P, ρ, δ, λ, σ), reporting the first
    /// difference for test diagnostics; `==` is `same_as(..).is_ok()`.
    /// Two node or edge stores are equal when their vectors are.
    pub fn same_as(&self, other: &PathPropertyGraph) -> Result<(), String> {
        if self.nodes.ids != other.nodes.ids {
            return Err("node sets differ".into());
        }
        if self.edges.ids != other.edges.ids {
            return Err("edge sets differ".into());
        }
        if self.path_ids_sorted() != other.path_ids_sorted() {
            return Err("path sets differ".into());
        }
        for ((id, mine), theirs) in self.nodes.iter().zip(&other.nodes.data) {
            // Adjacency follows from the edges, compared below.
            if mine.data != theirs.data {
                return Err(format!("node {id} differs"));
            }
        }
        for ((id, mine), theirs) in self.edges.iter().zip(&other.edges.data) {
            if mine != theirs {
                return Err(format!("edge {id} differs"));
            }
        }
        for id in self.path_ids_sorted() {
            if self.paths[&id] != other.paths[&id] {
                return Err(format!("path {id} differs"));
            }
        }
        Ok(())
    }
}

impl PartialEq for PathPropertyGraph {
    fn eq(&self, other: &Self) -> bool {
        self.same_as(other).is_ok()
    }
}

impl Eq for PathPropertyGraph {}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u64) -> NodeId {
        NodeId(i)
    }
    fn e(i: u64) -> EdgeId {
        EdgeId(i)
    }
    fn p(i: u64) -> PathId {
        PathId(i)
    }

    fn two_node_graph() -> PathPropertyGraph {
        let mut g = PathPropertyGraph::new();
        g.add_node(n(1), Attributes::labeled("Person").with_prop("name", "Ann"));
        g.add_node(n(2), Attributes::labeled("Person"));
        g.add_edge(e(10), n(1), n(2), Attributes::labeled("knows"))
            .unwrap();
        g
    }

    #[test]
    fn basic_construction_and_lookup() {
        let g = two_node_graph();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.endpoints(e(10)), Some((n(1), n(2))));
        assert!(g.has_label(n(1).into(), Label::new("Person")));
        assert_eq!(
            g.prop(n(1).into(), Key::new("name")),
            PropertySet::from("Ann")
        );
        assert!(g.prop(n(1).into(), Key::new("missing")).is_empty());
        let name = g.prop_ref(n(1).into(), Key::new("name"));
        assert_eq!(name, Some(&PropertySet::from("Ann")));
        assert_eq!(g.prop_ref(n(1).into(), Key::new("missing")), None);
        assert_eq!(g.prop_ref(n(9).into(), Key::new("name")), None);
        g.validate().unwrap();
    }

    #[test]
    fn dangling_edge_rejected() {
        let mut g = PathPropertyGraph::new();
        g.add_node(n(1), Attributes::new());
        let err = g
            .add_edge(e(10), n(1), n(99), Attributes::new())
            .unwrap_err();
        assert_eq!(
            err,
            GraphError::DanglingEdge {
                edge: e(10),
                node: n(99)
            }
        );
    }

    #[test]
    fn reinsert_node_unions_attributes() {
        let mut g = two_node_graph();
        g.add_node(
            n(1),
            Attributes::labeled("Manager").with_prop("name", "Annie"),
        );
        let attrs = g.attributes(n(1).into()).unwrap();
        assert_eq!(attrs.labels.len(), 2);
        let names = attrs.prop(Key::new("name"));
        assert_eq!(names.len(), 2); // {"Ann", "Annie"}
    }

    #[test]
    fn reinsert_edge_with_other_endpoints_is_identity_conflict() {
        let mut g = two_node_graph();
        let err = g
            .add_edge(e(10), n(2), n(1), Attributes::new())
            .unwrap_err();
        assert!(matches!(err, GraphError::IdentityConflict(_)));
    }

    fn ann() -> Attributes {
        let employers = PropertySet::from_values(vec![Value::str("CWI"), Value::str("MIT")]);
        Attributes::labeled("Person")
            .with_label("Manager")
            .with_prop("name", "Ann")
            .with_prop_set("employer", employers)
    }

    #[test]
    fn union_in_place_with_a_subset_leaves_attributes_equal() {
        for subset in [
            Attributes::new(),
            Attributes::labeled("Manager"),
            Attributes::new().with_prop("employer", "MIT"),
            ann(),
        ] {
            let mut a = ann();
            a.union_in_place(&subset);
            assert_eq!(a, ann(), "merging {subset:?}");
        }
    }

    #[test]
    fn union_in_place_that_grows_still_merges() {
        let mut a = ann();
        a.union_in_place(
            &Attributes::labeled("Admin")
                .with_prop("employer", "HAL")
                .with_prop("age", 41),
        );
        assert_eq!(a.labels.names(), ["Admin", "Manager", "Person"]);
        let employers: Vec<String> = a
            .prop(Key::new("employer"))
            .iter()
            .map(|v| v.to_string())
            .collect();
        assert_eq!(employers, ["CWI", "HAL", "MIT"]);
        assert_eq!(a.prop(Key::new("age")), PropertySet::from(41));
        assert_eq!(a.prop(Key::new("name")), PropertySet::from("Ann"));
    }

    #[test]
    fn borrowed_insertion_clones_once_and_merges_like_the_owned_form() {
        let (mut owned, mut borrowed) = (two_node_graph(), two_node_graph());
        let extra = Attributes::labeled("Manager").with_prop("name", "Annie");
        for _ in 0..2 {
            owned.add_node(n(1), extra.clone());
            borrowed.add_node_ref(n(1), &extra);
            owned.add_node(n(3), extra.clone());
            borrowed.add_node_ref(n(3), &extra);
            owned.add_edge(e(10), n(1), n(2), extra.clone()).unwrap();
            borrowed.add_edge_ref(e(10), n(1), n(2), &extra).unwrap();
        }
        assert_eq!(owned, borrowed);
        assert_eq!(borrowed.node(n(3)).unwrap().attrs, extra);
        assert_eq!(borrowed.prop(n(1).into(), Key::new("name")).len(), 2);
    }

    #[test]
    fn borrowed_insertion_still_raises_identity_conflicts() {
        let mut g = two_node_graph();
        let err = g
            .add_edge_ref(e(10), n(2), n(1), &Attributes::new())
            .unwrap_err();
        assert!(matches!(err, GraphError::IdentityConflict(_)));

        g.add_node(n(3), Attributes::new());
        g.add_edge(e(11), n(2), n(3), Attributes::new()).unwrap();
        let route = PathShape::new(vec![n(1), n(2), n(3)], vec![e(10), e(11)]).unwrap();
        g.add_path_ref(p(100), &route, &Attributes::labeled("route"))
            .unwrap();
        // The same walk again merges; another walk under the same id is
        // an identity conflict.
        g.add_path_ref(p(100), &route, &Attributes::labeled("sp"))
            .unwrap();
        assert_eq!(g.path(p(100)).unwrap().attrs.labels.len(), 2);
        let short = PathShape::new(vec![n(1), n(2)], vec![e(10)]).unwrap();
        let err = g
            .add_path_ref(p(100), &short, &Attributes::new())
            .unwrap_err();
        assert!(matches!(err, GraphError::IdentityConflict(_)));
    }

    #[test]
    fn path_insertion_validates_adjacency() {
        let mut g = two_node_graph();
        g.add_node(n(3), Attributes::new());
        g.add_edge(e(11), n(3), n(2), Attributes::new()).unwrap();
        // Backward traversal of e11 (2 -> 3) is allowed by Def 2.1 (3)(iii).
        let shape = PathShape::new(vec![n(1), n(2), n(3)], vec![e(10), e(11)]).unwrap();
        g.add_path(p(100), shape, Attributes::labeled("route"))
            .unwrap();
        g.validate().unwrap();

        // An edge that connects neither direction is rejected.
        let bad = PathShape::new(vec![n(2), n(1)], vec![e(11)]).unwrap();
        let err = g.add_path(p(101), bad, Attributes::new()).unwrap_err();
        assert!(matches!(err, GraphError::PathNotConnected { .. }));
    }

    #[test]
    fn path_with_unknown_parts_rejected() {
        let mut g = two_node_graph();
        let shape = PathShape::new(vec![n(1), n(9)], vec![e(10)]).unwrap();
        assert!(matches!(
            g.add_path(p(1), shape, Attributes::new()),
            Err(GraphError::PathUnknownNode { .. })
        ));
        let shape = PathShape::new(vec![n(1), n(2)], vec![e(99)]).unwrap();
        assert!(matches!(
            g.add_path(p(1), shape, Attributes::new()),
            Err(GraphError::PathUnknownEdge { .. })
        ));
    }

    #[test]
    fn adjacency_lists() {
        let g = two_node_graph();
        assert_eq!(g.out_edges(n(1)), &[e(10)]);
        assert_eq!(g.in_edges(n(2)), &[e(10)]);
        assert_eq!(g.out_edges(n(2)), &[] as &[EdgeId]);
        assert_eq!(g.degree(n(1)), 1);
    }

    #[test]
    fn multiple_edges_between_same_nodes() {
        // "The function ρ allows us to have several edges between the same
        //  pairs of nodes."
        let mut g = two_node_graph();
        g.add_edge(e(11), n(1), n(2), Attributes::labeled("likes"))
            .unwrap();
        assert_eq!(g.out_edges(n(1)), &[e(10), e(11)]);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn label_indexes_sorted() {
        let mut g = two_node_graph();
        g.add_node(n(0), Attributes::labeled("Person"));
        assert_eq!(
            g.nodes_with_label(Label::new("Person")),
            vec![n(0), n(1), n(2)]
        );
        assert_eq!(g.edges_with_label(Label::new("knows")), vec![e(10)]);
    }

    #[test]
    fn label_adjacency_scan_and_index_agree() {
        let mut g = two_node_graph();
        g.add_node(n(3), Attributes::new());
        g.add_edge(e(11), n(1), n(3), Attributes::labeled("likes"))
            .unwrap();
        g.add_edge(e(12), n(3), n(2), Attributes::labeled("knows"))
            .unwrap();
        g.add_edge(e(14), n(1), n(1), Attributes::labeled("knows"))
            .unwrap();
        let knows = Some(Label::new("knows"));
        let likes = Some(Label::new("likes"));
        let steps = |g: &PathPropertyGraph, node: u64, dir: StepDir, label: Option<Label>| {
            let mut out = Vec::new();
            g.for_each_step(n(node), dir, label, |e, far| out.push((e, far)));
            out
        };
        // (node, dir, label, steps); the self-loop e14 is one Out step,
        // one In step, and one — not two — Both step.
        #[rustfmt::skip]
        let cases = [
            (1, StepDir::Out, knows, vec![(e(10), n(2)), (e(14), n(1))]),
            (1, StepDir::Out, likes, vec![(e(11), n(3))]),
            (1, StepDir::Out, None, vec![(e(10), n(2)), (e(11), n(3)), (e(14), n(1))]),
            (2, StepDir::Out, knows, vec![]),
            (2, StepDir::In, knows, vec![(e(10), n(1)), (e(12), n(3))]),
            (1, StepDir::In, knows, vec![(e(14), n(1))]),
            (3, StepDir::In, None, vec![(e(11), n(1))]),
            (1, StepDir::Both, knows, vec![(e(10), n(2)), (e(14), n(1))]),
            (1, StepDir::Both, None, vec![(e(10), n(2)), (e(11), n(3)), (e(14), n(1))]),
            (3, StepDir::Both, knows, vec![(e(12), n(2))]),
            (3, StepDir::Both, None, vec![(e(12), n(2)), (e(11), n(1))]),
        ];
        // The same steps by position, mapped back to ids.
        let steps_at = |g: &PathPropertyGraph, node: u64, dir: StepDir, label: Option<Label>| {
            let (at, mut out) = (g.positions(), Vec::new());
            let pos = at.of(n(node)).expect("a node");
            g.for_each_step_at(pos, dir, label, |e, far| out.push((e, at.id(far))));
            out
        };
        let check = |g: &PathPropertyGraph| {
            for (node, dir, label, want) in &cases {
                let got = steps(g, *node, *dir, *label);
                assert_eq!(&got, want, "{node} {dir:?} {label:?}");
                let got = steps_at(g, *node, *dir, *label);
                assert_eq!(&got, want, "by position: {node} {dir:?} {label:?}");
            }
        };

        // The scan (no index yet), then the index: the same steps.
        assert!(!g.has_label_index());
        check(&g);
        g.build_label_index();
        assert!(g.has_label_index());
        check(&g);
        assert_eq!(g.nodes_with_label(Label::new("Person")), vec![n(1), n(2)]);

        // Mutation drops the index; answers stay correct via the scan.
        g.add_edge(e(13), n(2), n(1), Attributes::labeled("knows"))
            .unwrap();
        assert!(!g.has_label_index());
        let into_1 = vec![(e(14), n(1)), (e(13), n(2))];
        assert_eq!(steps(&g, 1, StepDir::In, knows), into_1);
    }

    #[test]
    fn the_slot_table_serves_dense_disjoint_numbers_only() {
        let built = |nodes: &[u64], edges: &[u64]| {
            let nodes: Vec<NodeId> = nodes.iter().copied().map(NodeId).collect();
            let edges: Vec<EdgeId> = edges.iter().copied().map(EdgeId).collect();
            SlotTable::new(&nodes, &edges).is_some()
        };
        assert!(built(&[1, 2], &[3]));
        // A span of 4 entries per element at most: 16 for four.
        assert!(built(&[10, 11], &[12, 25]));
        assert!(!built(&[10, 11], &[12, 26]));
        // Node 2 and edge 2 would share an entry.
        assert!(!built(&[1, 2], &[2]));
        assert!(!built(&[], &[]));
        assert!(!built(&[0], &[u64::MAX]));
    }

    #[test]
    fn structural_equality() {
        let a = two_node_graph();
        let mut b = two_node_graph();
        assert_eq!(a, b);
        b.add_node(n(3), Attributes::new());
        assert_ne!(a, b);
        assert!(a.same_as(&b).is_err());
    }

    #[test]
    fn empty_graph() {
        let g = PathPropertyGraph::new();
        assert!(g.is_empty());
        g.validate().unwrap();
    }
}

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
//! The *write layout* is what every mutation edits. Nodes and stored
//! paths live in one hash map per sort from identifier to payload, a
//! node's entry holding its out- and in-edge lists (insertion order)
//! beside its attributes. Edges live in id order: one ascending vector
//! of identifiers and, at the same index, one vector of payloads. A
//! lookup binary-searches the identifiers alone, so the search stays in
//! cache; an insert above the last identifier appends, and any other
//! shifts both vectors. Every bulk producer hands its edges over in
//! ascending order — decoding, [`crate::GraphBuilder`] and minted
//! identifiers arrive that way, the set operations merge two sorted
//! stores, CONSTRUCT sorts what it stages — so building a graph appends,
//! and whatever reads every edge (encoding, the read layout, equality)
//! reads the vectors in order with nothing to sort. Payloads are compact
//! (see [`crate::property`]): a label set or property set of one member
//! holds it inline, and an element's properties are one vector sorted
//! by key. The *read layout* is the one state a graph derives: built
//! once over a finished graph — by [`crate::GraphBuilder::build`],
//! [`crate::Catalog::register_graph`] or
//! [`PathPropertyGraph::build_label_index`] — and dropped by any
//! mutation:
//!
//! * node ids, ascending, numbered `0..n` as [`Positions`], so position
//!   order is id order;
//! * per edge label, an out- and an in-range per position of
//!   `(edge, far position)` steps in ascending edge id — a CSR;
//! * per node label, the group's positions, ascending;
//! * the planner's [`GraphStats`], read off the arrays above (a label
//!   group's length, a CSR's total and its non-empty ranges) and a tally
//!   of the property values.
//!
//! [`PathPropertyGraph::for_each_step`] and
//! [`PathPropertyGraph::nodes_with_label`] read it when it is built and
//! scan the write layout when not, so it is purely an accelerator.

use crate::error::GraphError;
use crate::hash::FxHashMap;
use crate::ids::{EdgeId, ElementId, NodeId, PathId};
use crate::path::PathShape;
use crate::property::{PropertyMap, PropertySet};
use crate::stats::{EdgeLabelStats, GraphStats, PropTally};
use crate::symbols::{Key, Label, LabelSet};
use crate::value::Value;
use std::borrow::Cow;
use std::ops::Range;

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

/// A node's payload and adjacency in the write layout: one map entry
/// per node, so inserting a node is one insertion and an edge pushes onto
/// its endpoints' entries.
#[derive(Clone, Default, Debug)]
struct NodeEntry {
    data: NodeData,
    /// Edges e with ρ(e) = (node, _), in insertion order.
    outgoing: Vec<EdgeId>,
    /// Edges e with ρ(e) = (_, node), in insertion order.
    incoming: Vec<EdgeId>,
}

/// The edges in id order (see the [module docs](self)): `ids` ascending,
/// `data[i]` the payload of edge `ids[i]`.
#[derive(Clone, Default, Debug)]
struct Edges {
    ids: Vec<EdgeId>,
    data: Vec<EdgeData>,
    /// Inserts that landed below the last identifier and shifted the
    /// vectors.
    shifted: usize,
}

impl Edges {
    /// The index of edge `id` (`Ok`), or where it would be inserted
    /// (`Err`). An id above the last one is not searched for.
    #[inline]
    fn find(&self, id: EdgeId) -> Result<usize, usize> {
        match self.ids.last() {
            Some(&last) if last < id => Err(self.ids.len()),
            _ => self.ids.binary_search(&id),
        }
    }

    #[inline]
    fn get(&self, id: EdgeId) -> Option<&EdgeData> {
        self.find(id).ok().map(|i| &self.data[i])
    }

    /// Put edge `id` at index `at`, which [`find`](Self::find) gave.
    fn insert(&mut self, at: usize, id: EdgeId, data: EdgeData) {
        if at < self.ids.len() {
            self.shifted += 1;
        }
        self.ids.insert(at, id);
        self.data.insert(at, data);
    }

    /// Every edge with its payload, ascending.
    fn iter(&self) -> impl ExactSizeIterator<Item = (EdgeId, &EdgeData)> + Clone {
        self.ids.iter().copied().zip(&self.data)
    }
}

/// A graph's nodes numbered by ascending id: node `ids[p]` has position
/// `p`, so position order is id order. The read layout keeps one; a
/// search over a graph without it numbers the nodes itself
/// ([`PathPropertyGraph::positions`]).
#[derive(Clone, Debug)]
pub struct Positions {
    ids: Vec<NodeId>,
    of: FxHashMap<NodeId, u32>,
}

impl Positions {
    fn new(graph: &PathPropertyGraph) -> Self {
        let ids = graph.node_ids_sorted();
        assert!(ids.len() < u32::MAX as usize, "positions are u32");
        let mut of = FxHashMap::with_capacity_and_hasher(ids.len(), Default::default());
        of.extend(ids.iter().enumerate().map(|(p, &id)| (id, p as u32)));
        Positions { ids, of }
    }

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
        self.of.get(&id).copied()
    }
}

/// The read layout (see the [module docs](self)): built once per graph,
/// each array sized by a counting pass, and dropped by any mutation.
#[derive(Clone, Debug)]
struct Dense {
    at: Positions,
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
    stats: GraphStats,
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

impl Dense {
    fn new(graph: &PathPropertyGraph) -> Self {
        let at = Positions::new(graph);
        let node_labels = labels_of(graph.nodes.values().map(|n| &n.data.attrs));
        let edge_labels = labels_of(graph.edges.data.iter().map(|d| &d.attrs));
        let label_of = |labels: &[Label], l| labels.partition_point(|&x| x < l);

        // Node groups and property tallies: count, then fill in
        // position order.
        let node_attrs = || at.ids.iter().map(|id| &graph.nodes[id].data.attrs);
        let mut node_props = PropTally::default();
        let mut group_offsets = vec![0u32; node_labels.len() + 1];
        for attrs in node_attrs() {
            for l in attrs.labels.iter() {
                group_offsets[label_of(&node_labels, l) + 1] += 1;
            }
            node_props.count(attrs);
        }
        prefix_sum(&mut group_offsets);
        node_props.size();
        let mut groups = vec![0u32; group_offsets[node_labels.len()] as usize];
        let mut next = group_offsets.clone();
        for (p, attrs) in node_attrs().enumerate() {
            for l in attrs.labels.iter() {
                let g = label_of(&node_labels, l);
                groups[next[g] as usize] = p as u32;
                next[g] += 1;
            }
            node_props.fill(attrs);
        }

        // Edge CSRs: count every (label, direction, position) one slot
        // past its range, then fill — the store lists the edges in
        // ascending id, so each range does too.
        let stride = at.len() + 1;
        let ends: Vec<(u32, u32)> = graph
            .edges
            .data
            .iter()
            .map(|d| (at.of[&d.src], at.of[&d.dst]))
            .collect();
        let edges = || graph.edges.iter().zip(&ends);
        let mut edge_props = PropTally::default();
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
            edge_props.count(&d.attrs);
        }
        prefix_sum(&mut offsets);
        edge_props.size();
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
            edge_props.fill(&d.attrs);
        }

        // The statistics: a label group's length, an edge label's CSR
        // total and its non-empty out- and in-ranges.
        let nodes_per_label = node_labels
            .iter()
            .enumerate()
            .map(|(g, &l)| (l, u64::from(group_offsets[g + 1] - group_offsets[g])));
        let non_empty = |b: usize| {
            let ranges = offsets[b..b + stride].windows(2);
            ranges.filter(|r| r[0] < r[1]).count() as u64
        };
        let edges_per_label = edge_labels.iter().enumerate().map(|(l, &label)| {
            let out = 2 * l * stride;
            let relation = EdgeLabelStats {
                count: u64::from(offsets[out + stride - 1] - offsets[out]),
                distinct_src: non_empty(out),
                distinct_dst: non_empty(out + stride),
            };
            (label, relation)
        });
        let stats = GraphStats {
            node_count: at.len() as u64,
            edge_count: graph.edge_count() as u64,
            path_count: graph.path_count() as u64,
            nodes_per_label: nodes_per_label.collect(),
            edges_per_label: edges_per_label.collect(),
            node_props: node_props.finish(),
            edge_props: edge_props.finish(),
        };
        Dense {
            at,
            edge_labels,
            offsets,
            step_edges,
            step_far,
            node_labels,
            group_offsets,
            groups,
            stats,
        }
    }

    /// The steps of position `pos` along (`out`) or against the edges
    /// of label number `label`.
    #[inline]
    fn range(&self, label: usize, out: bool, pos: u32) -> Range<usize> {
        let b = (2 * label + usize::from(!out)) * (self.at.len() + 1) + pos as usize;
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

impl Steps<NodeId> for Scan<'_> {
    #[inline]
    fn one_way(&self, at: NodeId, out: bool, f: &mut impl FnMut(EdgeId, NodeId)) {
        let g = self.graph;
        let adjacent = if out { g.out_edges(at) } else { g.in_edges(at) };
        for &e in adjacent {
            // An adjacency list names edges of the graph only.
            let Some(d) = g.edges.get(e) else { continue };
            if self.label.is_none_or(|l| d.attrs.labels.contains(l)) {
                f(e, if out { d.dst } else { d.src });
            }
        }
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
    nodes: FxHashMap<NodeId, NodeEntry>,
    edges: Edges,
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
        self.edges.ids.reserve(edges);
        self.edges.data.reserve(edges);
        self.paths.reserve(paths);
    }

    /// Make room for exactly `out` more out-edges and `incoming` more
    /// in-edges of `node` (nothing when it is no node), so a caller that
    /// knows the degrees it is about to insert sizes each list once.
    pub fn reserve_adjacency(&mut self, node: NodeId, out: usize, incoming: usize) {
        if let Some(n) = self.nodes.get_mut(&node) {
            n.outgoing.reserve_exact(out);
            n.incoming.reserve_exact(incoming);
        }
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
        match self.nodes.get_mut(&id) {
            Some(existing) => existing.data.attrs.union_in_place(&attrs),
            None => {
                let data = NodeData {
                    attrs: attrs.into_owned(),
                };
                self.nodes.insert(
                    id,
                    NodeEntry {
                        data,
                        ..NodeEntry::default()
                    },
                );
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
        if !self.nodes.contains_key(&src) {
            return Err(GraphError::DanglingEdge {
                edge: id,
                node: src,
            });
        }
        if !self.nodes.contains_key(&dst) {
            return Err(GraphError::DanglingEdge {
                edge: id,
                node: dst,
            });
        }
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
                // Both endpoints were checked above.
                if let Some(s) = self.nodes.get_mut(&src) {
                    s.outgoing.push(id);
                }
                if let Some(d) = self.nodes.get_mut(&dst) {
                    d.incoming.push(id);
                }
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
            if !self.nodes.contains_key(&n) {
                return Err(GraphError::PathUnknownNode { path: id, node: n });
            }
        }
        for (i, &e) in shape.edges().iter().enumerate() {
            let Some(data) = self.edges.get(e) else {
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

    /// The node payload, if `id ∈ N`.
    pub fn node(&self, id: NodeId) -> Option<&NodeData> {
        self.nodes.get(&id).map(|n| &n.data)
    }

    /// The edge payload, if `id ∈ E`.
    pub fn edge(&self, id: EdgeId) -> Option<&EdgeData> {
        self.edges.get(id)
    }

    /// The path payload, if `id ∈ P`.
    pub fn path(&self, id: PathId) -> Option<&PathData> {
        self.paths.get(&id)
    }

    /// True iff `id ∈ N`.
    pub fn contains_node(&self, id: NodeId) -> bool {
        self.nodes.contains_key(&id)
    }

    /// True iff `id ∈ E`.
    pub fn contains_edge(&self, id: EdgeId) -> bool {
        self.edges.find(id).is_ok()
    }

    /// True iff `id ∈ P`.
    pub fn contains_path(&self, id: PathId) -> bool {
        self.paths.contains_key(&id)
    }

    /// ρ(e) = (src, dst).
    pub fn endpoints(&self, id: EdgeId) -> Option<(NodeId, NodeId)> {
        self.edges.get(id).map(|e| (e.src, e.dst))
    }

    /// The attributes of any element sort, or `None` if absent.
    pub fn attributes(&self, id: ElementId) -> Option<&Attributes> {
        match id {
            ElementId::Node(n) => self.nodes.get(&n).map(|n| &n.data.attrs),
            ElementId::Edge(e) => self.edges.get(e).map(|d| &d.attrs),
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
        self.nodes.get(&node).map_or(&[], |n| &n.outgoing)
    }

    /// Edges e with ρ(e) = (_, node), in insertion order.
    pub fn in_edges(&self, node: NodeId) -> &[EdgeId] {
        self.nodes.get(&node).map_or(&[], |n| &n.incoming)
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
    /// layout looks up `node`'s position once and reads its CSR range
    /// (ascending edge id); every other step filters the adjacency list
    /// (insertion order). Neither allocates.
    #[inline]
    pub fn for_each_step(
        &self,
        node: NodeId,
        dir: StepDir,
        label: Option<Label>,
        mut f: impl FnMut(EdgeId, NodeId),
    ) {
        match (label, &self.dense) {
            (Some(_), Some(d)) => {
                if let Some(pos) = d.at.of(node) {
                    self.for_each_step_at(&d.at, pos, dir, label, |e, far| f(e, d.at.id(far)));
                }
            }
            _ => Scan { graph: self, label }.toward(node, dir, &mut f),
        }
    }

    /// [`for_each_step`](Self::for_each_step) between positions of `at`,
    /// which must be this graph's [`positions`](Self::positions): the
    /// same steps in the same order. A labelled step over the read layout
    /// looks nothing up; a scanned step looks up its far end's position.
    #[inline]
    pub fn for_each_step_at(
        &self,
        at: &Positions,
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
            _ => {
                Scan { graph: self, label }.toward(at.id(pos), dir, &mut |e, far| f(e, at.of[&far]))
            }
        }
    }

    /// This graph's node positions: the read layout's when it is built,
    /// otherwise numbered now — the same numbering either way.
    pub fn positions(&self) -> Cow<'_, Positions> {
        match &self.dense {
            Some(d) => Cow::Borrowed(&d.at),
            None => Cow::Owned(Positions::new(self)),
        }
    }

    /// Build the read layout (see the [module docs](self)): node
    /// positions, a CSR per edge label, the node label groups and the
    /// planner statistics. Called once by [`crate::GraphBuilder::build`]
    /// and [`crate::Catalog::register_graph`]; any later mutation drops
    /// it and the accessors fall back to scanning.
    pub fn build_label_index(&mut self) {
        self.dense = Some(Dense::new(self));
    }

    /// True when the read layout is currently built and valid.
    pub fn has_label_index(&self) -> bool {
        self.dense.is_some()
    }

    /// The planner statistics (see [`GraphStats`]), while the read
    /// layout is built.
    pub fn stats(&self) -> Option<&GraphStats> {
        self.dense.as_ref().map(|d| &d.stats)
    }

    /// Replace the planner statistics of the built read layout: a hook
    /// for showing that any statistics leave answers unchanged. Without
    /// the layout, or with element counts that are not this graph's,
    /// the statistics are refused.
    pub fn set_stats(&mut self, stats: GraphStats) {
        let counts = |s: &GraphStats| (s.node_count, s.edge_count, s.path_count);
        if let Some(d) = &mut self.dense {
            if counts(&stats) == counts(&d.stats) {
                d.stats = stats;
            }
        }
    }

    // ------------------------------------------------------------------
    // Iteration (deterministic variants sort by identifier)
    // ------------------------------------------------------------------

    /// |N|.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
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
        self.nodes.is_empty() && self.edges.ids.is_empty() && self.paths.is_empty()
    }

    /// Node identifiers in arbitrary order (fast).
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.keys().copied()
    }

    /// Edge identifiers, ascending (the store's order: fast).
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.edges.ids.iter().copied()
    }

    /// Path identifiers in arbitrary order (fast).
    pub fn path_ids(&self) -> impl Iterator<Item = PathId> + '_ {
        self.paths.keys().copied()
    }

    /// Every node with its payload, in arbitrary order (fast).
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &NodeData)> + '_ {
        self.nodes.iter().map(|(&id, n)| (id, &n.data))
    }

    /// Every edge with its payload, ascending (the store's order: fast).
    pub fn edges(&self) -> impl ExactSizeIterator<Item = (EdgeId, &EdgeData)> + Clone + '_ {
        self.edges.iter()
    }

    /// Every stored path with its payload, in arbitrary order (fast).
    pub fn paths(&self) -> impl Iterator<Item = (PathId, &PathData)> + '_ {
        self.paths.iter().map(|(&id, p)| (id, p))
    }

    /// How many edge inserts so far landed below the graph's last edge
    /// identifier and so shifted the edge store, rather than appending.
    /// Zero for a graph built in id order; a diagnostic of who hands
    /// edges over out of order.
    pub fn shifted_edge_inserts(&self) -> usize {
        self.edges.shifted
    }

    /// Node identifiers sorted ascending — the deterministic order used by
    /// the matcher and by all exports.
    pub fn node_ids_sorted(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.nodes.keys().copied().collect();
        v.sort_unstable();
        v
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
            return d.groups[group].iter().map(|&p| d.at.id(p)).collect();
        }
        sorted_keys(&self.nodes, |n| n.data.attrs.labels.contains(label))
    }

    /// Edges carrying `label`, sorted by id.
    pub fn edges_with_label(&self, label: Label) -> Vec<EdgeId> {
        let edges = self.edges.iter();
        let carrying = edges.filter(|(_, d)| d.attrs.labels.contains(label));
        carrying.map(|(id, _)| id).collect()
    }

    /// Paths carrying `label`, sorted by id.
    pub fn paths_with_label(&self, label: Label) -> Vec<PathId> {
        sorted_keys(&self.paths, |d| d.attrs.labels.contains(label))
    }

    // ------------------------------------------------------------------
    // Validation
    // ------------------------------------------------------------------

    /// Check every well-formedness condition of Definition 2.1. The public
    /// mutation API maintains these invariants; this is the belt-and-braces
    /// check used by tests and after bulk operations.
    pub fn validate(&self) -> Result<(), GraphError> {
        for (id, e) in self.edges.iter() {
            if !self.nodes.contains_key(&e.src) {
                return Err(GraphError::DanglingEdge {
                    edge: id,
                    node: e.src,
                });
            }
            if !self.nodes.contains_key(&e.dst) {
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
    /// Two edge stores are equal when their vectors are.
    pub fn same_as(&self, other: &PathPropertyGraph) -> Result<(), String> {
        let nodes = self.node_ids_sorted();
        if nodes != other.node_ids_sorted() {
            return Err("node sets differ".into());
        }
        if self.edges.ids != other.edges.ids {
            return Err("edge sets differ".into());
        }
        if self.path_ids_sorted() != other.path_ids_sorted() {
            return Err("path sets differ".into());
        }
        for id in nodes {
            // Adjacency follows from the edges, compared below.
            if self.nodes[&id].data != other.nodes[&id].data {
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

/// The identifiers in `map` whose entry passes `keep`, ascending (a
/// scan: what the label listings do without the read layout).
fn sorted_keys<I: Ord + Copy, V>(map: &FxHashMap<I, V>, keep: impl Fn(&V) -> bool) -> Vec<I> {
    let mut v: Vec<I> = map
        .iter()
        .filter(|(_, e)| keep(e))
        .map(|(&id, _)| id)
        .collect();
    v.sort_unstable();
    v
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
            g.for_each_step_at(&at, pos, dir, label, |e, far| out.push((e, at.id(far))));
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

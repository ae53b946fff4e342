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
//! Graphs also maintain in/out adjacency lists so that matching and path
//! search are O(degree) per expansion.

use crate::error::GraphError;
use crate::hash::FxHashMap;
use crate::ids::{EdgeId, ElementId, NodeId, PathId};
use crate::path::PathShape;
use crate::property::PropertySet;
use crate::stats::GraphStats;
use crate::symbols::{Key, Label, LabelSet};
use crate::value::Value;
use std::borrow::Cow;
use std::collections::BTreeMap;

/// Labels and properties shared by every element sort.
#[derive(Clone, PartialEq, Eq, Default, Debug)]
pub struct Attributes {
    /// Labels attached to the element (λ).
    pub labels: LabelSet,
    /// Property map of the element (σ), values are finite sets.
    pub properties: BTreeMap<Key, PropertySet>,
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
        for l in other.labels.iter() {
            self.labels.insert(l);
        }
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
        let mut props = BTreeMap::new();
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

/// Label-partitioned adjacency and node sets, built once per graph (at
/// [`crate::GraphBuilder::build`] or explicitly) and dropped by any
/// subsequent mutation. Matching and path search consult it through
/// [`PathPropertyGraph::for_each_step`] /
/// [`PathPropertyGraph::nodes_with_label`], which fall back to scanning
/// when no index is present — so the index is purely an accelerator and
/// never a correctness concern.
#[derive(Clone, Default, Debug)]
struct LabelIndex {
    nodes_by_label: FxHashMap<Label, Vec<NodeId>>,
    /// Per (source node, label): each outgoing edge with its destination,
    /// sorted by edge id — one slice read expands a product state without
    /// a per-edge payload lookup.
    out_by_label: FxHashMap<(NodeId, Label), Vec<(EdgeId, NodeId)>>,
    /// Per (destination node, label): each incoming edge with its source.
    in_by_label: FxHashMap<(NodeId, Label), Vec<(EdgeId, NodeId)>>,
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
    nodes: FxHashMap<NodeId, NodeData>,
    edges: FxHashMap<EdgeId, EdgeData>,
    paths: FxHashMap<PathId, PathData>,
    out_adj: FxHashMap<NodeId, Vec<EdgeId>>,
    in_adj: FxHashMap<NodeId, Vec<EdgeId>>,
    label_index: Option<LabelIndex>,
    /// Planner statistics, same lifecycle as the label index: built by
    /// [`crate::GraphBuilder::build`] / [`Self::build_stats`], dropped
    /// by any mutation. Purely advisory — never a correctness concern.
    stats: Option<GraphStats>,
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
    /// caller that knows how many it is about to insert grows each map
    /// once.
    pub fn reserve(&mut self, nodes: usize, edges: usize, paths: usize) {
        self.nodes.reserve(nodes);
        self.out_adj.reserve(nodes);
        self.in_adj.reserve(nodes);
        self.edges.reserve(edges);
        self.paths.reserve(paths);
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
        self.label_index = None;
        self.stats = None;
        match self.nodes.get_mut(&id) {
            Some(existing) => existing.attrs.union_in_place(&attrs),
            None => {
                let attrs = attrs.into_owned();
                self.nodes.insert(id, NodeData { attrs });
                self.out_adj.entry(id).or_default();
                self.in_adj.entry(id).or_default();
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
        self.label_index = None;
        self.stats = None;
        match self.edges.get_mut(&id) {
            Some(existing) => {
                if existing.src != src || existing.dst != dst {
                    return Err(GraphError::IdentityConflict(format!(
                        "edge {id} re-inserted with endpoints ({src}, {dst}), \
                         but ρ({id}) = ({}, {})",
                        existing.src, existing.dst
                    )));
                }
                existing.attrs.union_in_place(&attrs);
            }
            None => {
                let attrs = attrs.into_owned();
                self.edges.insert(id, EdgeData { src, dst, attrs });
                self.out_adj.entry(src).or_default().push(id);
                self.in_adj.entry(dst).or_default().push(id);
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
        // Stored paths don't enter the label index (it only partitions
        // nodes and adjacency) but they do enter the stats.
        self.stats = None;
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
            let Some(data) = self.edges.get(&e) else {
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
        self.nodes.get(&id)
    }

    /// The edge payload, if `id ∈ E`.
    pub fn edge(&self, id: EdgeId) -> Option<&EdgeData> {
        self.edges.get(&id)
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
        self.edges.contains_key(&id)
    }

    /// True iff `id ∈ P`.
    pub fn contains_path(&self, id: PathId) -> bool {
        self.paths.contains_key(&id)
    }

    /// ρ(e) = (src, dst).
    pub fn endpoints(&self, id: EdgeId) -> Option<(NodeId, NodeId)> {
        self.edges.get(&id).map(|e| (e.src, e.dst))
    }

    /// The attributes of any element sort, or `None` if absent.
    pub fn attributes(&self, id: ElementId) -> Option<&Attributes> {
        match id {
            ElementId::Node(n) => self.nodes.get(&n).map(|d| &d.attrs),
            ElementId::Edge(e) => self.edges.get(&e).map(|d| &d.attrs),
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

    // ------------------------------------------------------------------
    // Adjacency
    // ------------------------------------------------------------------

    /// Edges e with ρ(e) = (node, _), in insertion order.
    pub fn out_edges(&self, node: NodeId) -> &[EdgeId] {
        self.out_adj.get(&node).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Edges e with ρ(e) = (_, node), in insertion order.
    pub fn in_edges(&self, node: NodeId) -> &[EdgeId] {
        self.in_adj.get(&node).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total degree (in + out).
    pub fn degree(&self, node: NodeId) -> usize {
        self.out_edges(node).len() + self.in_edges(node).len()
    }

    /// Every step from `node` toward `dir` over an edge carrying `label`
    /// (any edge for `None`): `f(edge, far endpoint)`. The one place a
    /// step is taken — pattern matching and path search both ask here.
    ///
    /// `Both` takes the `Out` steps, then the `In` steps but a self-loop,
    /// which it already took forwards. A labelled step reads the label
    /// index's slice (ascending edge id) when one is built; every other
    /// step filters the adjacency list (insertion order). Neither
    /// allocates.
    #[inline]
    pub fn for_each_step(
        &self,
        node: NodeId,
        dir: StepDir,
        label: Option<Label>,
        mut f: impl FnMut(EdgeId, NodeId),
    ) {
        match dir {
            StepDir::Out => self.steps_one_way(node, true, label, &mut f),
            StepDir::In => self.steps_one_way(node, false, label, &mut f),
            StepDir::Both => {
                self.steps_one_way(node, true, label, &mut f);
                self.steps_one_way(node, false, label, &mut |e, far| {
                    if far != node {
                        f(e, far);
                    }
                });
            }
        }
    }

    /// The steps of [`for_each_step`](Self::for_each_step) along (`out`)
    /// or against one edge direction.
    #[inline]
    fn steps_one_way(
        &self,
        node: NodeId,
        out: bool,
        label: Option<Label>,
        f: &mut impl FnMut(EdgeId, NodeId),
    ) {
        if let (Some(l), Some(ix)) = (label, &self.label_index) {
            let by_label = if out {
                &ix.out_by_label
            } else {
                &ix.in_by_label
            };
            for &(e, far) in by_label.get(&(node, l)).map_or(&[][..], Vec::as_slice) {
                f(e, far);
            }
            return;
        }
        let adjacent = if out {
            self.out_edges(node)
        } else {
            self.in_edges(node)
        };
        for e in adjacent {
            let d = &self.edges[e];
            if label.is_none_or(|l| d.attrs.labels.contains(l)) {
                f(*e, if out { d.dst } else { d.src });
            }
        }
    }

    /// Build the label-partitioned index over nodes and adjacency.
    /// Called once by [`crate::GraphBuilder::build`]; any later mutation
    /// drops the index and the accessors fall back to scanning.
    pub fn build_label_index(&mut self) {
        let mut ix = LabelIndex::default();
        for (&id, d) in &self.nodes {
            for l in d.attrs.labels.iter() {
                ix.nodes_by_label.entry(l).or_default().push(id);
            }
        }
        for (&id, d) in &self.edges {
            for l in d.attrs.labels.iter() {
                ix.out_by_label
                    .entry((d.src, l))
                    .or_default()
                    .push((id, d.dst));
                ix.in_by_label
                    .entry((d.dst, l))
                    .or_default()
                    .push((id, d.src));
            }
        }
        for v in ix.nodes_by_label.values_mut() {
            v.sort_unstable();
        }
        for v in ix.out_by_label.values_mut() {
            v.sort_unstable();
        }
        for v in ix.in_by_label.values_mut() {
            v.sort_unstable();
        }
        self.label_index = Some(ix);
    }

    /// True when a label index is currently built and valid.
    pub fn has_label_index(&self) -> bool {
        self.label_index.is_some()
    }

    // ------------------------------------------------------------------
    // Planner statistics
    // ------------------------------------------------------------------

    /// Compute and cache the planner statistics (see [`GraphStats`]).
    /// Same lifecycle as the label index: any mutation drops them.
    pub fn build_stats(&mut self) {
        self.stats = Some(GraphStats::compute(self));
    }

    /// The cached planner statistics, if currently valid.
    pub fn stats(&self) -> Option<&GraphStats> {
        self.stats.as_ref()
    }

    /// True when planner statistics are currently built and valid.
    pub fn has_stats(&self) -> bool {
        self.stats.is_some()
    }

    /// Attach externally computed statistics (a persisted side object
    /// reloaded by `gcore-store`). The caller vouches that `stats`
    /// describes this exact graph; since [`GraphStats::compute`] is
    /// deterministic, attaching anything else would only mislead the
    /// planner, never corrupt results. Element counts are checked as a
    /// cheap guard — on mismatch the stats are recomputed instead.
    pub fn set_stats(&mut self, stats: GraphStats) {
        if stats.node_count == self.node_count() as u64
            && stats.edge_count == self.edge_count() as u64
            && stats.path_count == self.path_count() as u64
        {
            self.stats = Some(stats);
        } else {
            self.build_stats();
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
        self.edges.len()
    }

    /// |P|.
    pub fn path_count(&self) -> usize {
        self.paths.len()
    }

    /// True for G∅.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty() && self.edges.is_empty() && self.paths.is_empty()
    }

    /// Node identifiers in arbitrary order (fast).
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.keys().copied()
    }

    /// Edge identifiers in arbitrary order (fast).
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.edges.keys().copied()
    }

    /// Path identifiers in arbitrary order (fast).
    pub fn path_ids(&self) -> impl Iterator<Item = PathId> + '_ {
        self.paths.keys().copied()
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
        let mut v: Vec<EdgeId> = self.edges.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Path identifiers sorted ascending (deterministic order).
    pub fn path_ids_sorted(&self) -> Vec<PathId> {
        let mut v: Vec<PathId> = self.paths.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Nodes carrying `label`, sorted by id. Served from the label index
    /// when one is built, otherwise by a full scan.
    pub fn nodes_with_label(&self, label: Label) -> Vec<NodeId> {
        if let Some(ix) = &self.label_index {
            return ix.nodes_by_label.get(&label).cloned().unwrap_or_default();
        }
        let mut v: Vec<NodeId> = self
            .nodes
            .iter()
            .filter(|(_, d)| d.attrs.labels.contains(label))
            .map(|(id, _)| *id)
            .collect();
        v.sort_unstable();
        v
    }

    /// Edges carrying `label`, sorted by id.
    pub fn edges_with_label(&self, label: Label) -> Vec<EdgeId> {
        let mut v: Vec<EdgeId> = self
            .edges
            .iter()
            .filter(|(_, d)| d.attrs.labels.contains(label))
            .map(|(id, _)| *id)
            .collect();
        v.sort_unstable();
        v
    }

    /// Paths carrying `label`, sorted by id.
    pub fn paths_with_label(&self, label: Label) -> Vec<PathId> {
        let mut v: Vec<PathId> = self
            .paths
            .iter()
            .filter(|(_, d)| d.attrs.labels.contains(label))
            .map(|(id, _)| *id)
            .collect();
        v.sort_unstable();
        v
    }

    // ------------------------------------------------------------------
    // Validation
    // ------------------------------------------------------------------

    /// Check every well-formedness condition of Definition 2.1. The public
    /// mutation API maintains these invariants; this is the belt-and-braces
    /// check used by tests and after bulk operations.
    pub fn validate(&self) -> Result<(), GraphError> {
        for (&id, e) in &self.edges {
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

    /// Equality of the tuples (N, E, P, ρ, δ, λ, σ). Unlike `==` on the
    /// struct (which compares hash maps directly and is also fine), this
    /// reports the first difference for test diagnostics.
    pub fn same_as(&self, other: &PathPropertyGraph) -> Result<(), String> {
        if self.node_ids_sorted() != other.node_ids_sorted() {
            return Err("node sets differ".into());
        }
        if self.edge_ids_sorted() != other.edge_ids_sorted() {
            return Err("edge sets differ".into());
        }
        if self.path_ids_sorted() != other.path_ids_sorted() {
            return Err("path sets differ".into());
        }
        for id in self.node_ids_sorted() {
            if self.nodes[&id] != other.nodes[&id] {
                return Err(format!("node {id} differs"));
            }
        }
        for id in self.edge_ids_sorted() {
            if self.edges[&id] != other.edges[&id] {
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
        let check = |g: &PathPropertyGraph| {
            for (node, dir, label, want) in &cases {
                let got = steps(g, *node, *dir, *label);
                assert_eq!(&got, want, "{node} {dir:?} {label:?}");
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

//! Fluent construction of PPGs with automatic identifier allocation.
//!
//! Datasets and tests usually want to say "a Person named Ann knows a
//! Person named Bob" without threading raw identifiers around. The builder
//! draws fresh identifiers from a shared [`IdGen`] and also supports the
//! explicit identifiers needed to replicate the paper's figures verbatim.
//! [`GraphBuilder::build`] hands the graph over with its read layout,
//! planner statistics included, already built.

use crate::error::GraphError;
use crate::graph::{Attributes, PathPropertyGraph};
use crate::ids::{EdgeId, IdGen, NodeId, PathId};
use crate::path::PathShape;

/// Builder for a single [`PathPropertyGraph`].
pub struct GraphBuilder {
    graph: PathPropertyGraph,
    ids: IdGen,
}

impl GraphBuilder {
    /// Build against an engine-shared identifier generator.
    pub fn new(ids: IdGen) -> Self {
        GraphBuilder {
            graph: PathPropertyGraph::new(),
            ids,
        }
    }

    /// Standalone builder with its own generator (tests, examples).
    pub fn standalone() -> Self {
        Self::new(IdGen::new())
    }

    /// The identifier generator in use.
    pub fn ids(&self) -> &IdGen {
        &self.ids
    }

    /// Add a node with a fresh identifier.
    pub fn node(&mut self, attrs: Attributes) -> NodeId {
        let id = self.ids.node();
        self.graph.add_node(id, attrs);
        id
    }

    /// Add a node with an explicit identifier (paper figures use literal
    /// ids like 101). Reserves the id so fresh ids never collide.
    pub fn node_with_id(&mut self, id: u64, attrs: Attributes) -> NodeId {
        let id = NodeId(id);
        self.ids.reserve_up_to(id.raw());
        self.graph.add_node(id, attrs);
        id
    }

    /// Add an edge with a fresh identifier.
    pub fn edge(&mut self, src: NodeId, dst: NodeId, attrs: Attributes) -> EdgeId {
        let id = self.ids.edge();
        self.graph
            .add_edge(id, src, dst, attrs)
            .expect("builder endpoints must exist");
        id
    }

    /// Add an edge with an explicit identifier.
    pub fn edge_with_id(
        &mut self,
        id: u64,
        src: NodeId,
        dst: NodeId,
        attrs: Attributes,
    ) -> Result<EdgeId, GraphError> {
        let id = EdgeId(id);
        self.ids.reserve_up_to(id.raw());
        self.graph.add_edge(id, src, dst, attrs)?;
        Ok(id)
    }

    /// Add a pair of edges in both directions with the same attributes —
    /// Figure 4 notes "the knows edges are drawn bi-directionally – this
    /// means there are two edges: one in each direction".
    pub fn edge_bidi(&mut self, a: NodeId, b: NodeId, attrs: Attributes) -> (EdgeId, EdgeId) {
        let ab = self.edge(a, b, attrs.clone());
        let ba = self.edge(b, a, attrs);
        (ab, ba)
    }

    /// Add a stored path with a fresh identifier.
    pub fn path(
        &mut self,
        nodes: Vec<NodeId>,
        edges: Vec<EdgeId>,
        attrs: Attributes,
    ) -> Result<PathId, GraphError> {
        let id = self.ids.path();
        let shape = PathShape::new(nodes, edges).ok_or(GraphError::PathShapeInvalid {
            path: id,
            nodes: 0,
            edges: 0,
        })?;
        self.graph.add_path(id, shape, attrs)?;
        Ok(id)
    }

    /// Add a stored path with an explicit identifier.
    pub fn path_with_id(
        &mut self,
        id: u64,
        nodes: Vec<NodeId>,
        edges: Vec<EdgeId>,
        attrs: Attributes,
    ) -> Result<PathId, GraphError> {
        let id = PathId(id);
        self.ids.reserve_up_to(id.raw());
        let n_len = nodes.len();
        let e_len = edges.len();
        let shape = PathShape::new(nodes, edges).ok_or(GraphError::PathShapeInvalid {
            path: id,
            nodes: n_len,
            edges: e_len,
        })?;
        self.graph.add_path(id, shape, attrs)?;
        Ok(id)
    }

    /// Read access to the graph under construction.
    pub fn graph(&self) -> &PathPropertyGraph {
        &self.graph
    }

    /// Finish, returning the graph with its read layout built: seeding
    /// by label reads a position list and a labelled step a CSR range,
    /// instead of scanning, and cost-based planning reads the layout's
    /// statistics, never blind estimates.
    pub fn build(self) -> PathPropertyGraph {
        let mut g = self.graph;
        g.build_label_index();
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::Key;

    #[test]
    fn fluent_construction() {
        let mut b = GraphBuilder::standalone();
        let ann = b.node(Attributes::labeled("Person").with_prop("name", "Ann"));
        let bob = b.node(Attributes::labeled("Person").with_prop("name", "Bob"));
        let e = b.edge(ann, bob, Attributes::labeled("knows"));
        let p = b
            .path(vec![ann, bob], vec![e], Attributes::labeled("short"))
            .unwrap();
        let g = b.build();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.path(p).unwrap().shape.length(), 1);
        assert_eq!(g.prop(ann.into(), Key::new("name")), "Ann".into());
        g.validate().unwrap();
    }

    #[test]
    fn explicit_ids_reserve_the_range() {
        let mut b = GraphBuilder::standalone();
        let a = b.node_with_id(101, Attributes::new());
        let fresh = b.node(Attributes::new());
        assert_eq!(a.raw(), 101);
        assert!(fresh.raw() > 101);
    }

    #[test]
    fn bidirectional_edges_are_two_edges() {
        let mut b = GraphBuilder::standalone();
        let x = b.node(Attributes::new());
        let y = b.node(Attributes::new());
        let (xy, yx) = b.edge_bidi(x, y, Attributes::labeled("knows"));
        let g = b.build();
        assert_eq!(g.endpoints(xy), Some((x, y)));
        assert_eq!(g.endpoints(yx), Some((y, x)));
    }

    #[test]
    fn shared_idgen_keeps_graphs_disjoint() {
        let ids = IdGen::new();
        let mut b1 = GraphBuilder::new(ids.clone());
        let mut b2 = GraphBuilder::new(ids);
        let n1 = b1.node(Attributes::new());
        let n2 = b2.node(Attributes::new());
        assert_ne!(n1, n2);
    }
}

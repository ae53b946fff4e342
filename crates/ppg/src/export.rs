//! Human-readable exports: Graphviz DOT and a deterministic text dump.
//!
//! The text dump lists every element sorted by identifier with its labels
//! and properties; integration tests compare these dumps against the
//! graphs printed in the paper's figures.
//!
//! Both exports — and the binary snapshot writer in `gcore-store` —
//! iterate elements through one shared helper, [`sorted_elements`], so
//! every serialization of a graph agrees on the **canonical element
//! order**: nodes first, then edges, then paths, each sorted ascending
//! by identifier.

use crate::graph::{Attributes, EdgeData, NodeData, PathData, PathPropertyGraph};
use crate::ids::{EdgeId, NodeId, PathId};
use std::fmt::Write as _;

/// A borrowed view of one graph element, yielded by [`sorted_elements`]
/// in the canonical export order.
#[derive(Clone, Copy, Debug)]
pub enum ElementRef<'g> {
    /// A node and its payload.
    Node(NodeId, &'g NodeData),
    /// An edge and its payload.
    Edge(EdgeId, &'g EdgeData),
    /// A stored path and its payload.
    Path(PathId, &'g PathData),
}

/// Iterate every element of `g` in the canonical export order: all
/// nodes, then all edges, then all paths, each group sorted ascending
/// by identifier.
///
/// This is the single definition of "element order" shared by
/// [`to_text`], [`to_dot`] and the binary graph writer in the
/// `gcore-store` crate — so the human-readable dump and the on-disk
/// snapshot of one graph always list elements identically.
///
/// ```
/// use gcore_ppg::export::{sorted_elements, ElementRef};
/// use gcore_ppg::{Attributes, NodeId, EdgeId, PathPropertyGraph};
///
/// let mut g = PathPropertyGraph::new();
/// g.add_node(NodeId(2), Attributes::labeled("Person"));
/// g.add_node(NodeId(1), Attributes::labeled("Person"));
/// g.add_edge(EdgeId(5), NodeId(1), NodeId(2), Attributes::labeled("knows"))
///     .unwrap();
///
/// let order: Vec<String> = sorted_elements(&g)
///     .map(|el| match el {
///         ElementRef::Node(id, _) => id.to_string(),
///         ElementRef::Edge(id, _) => id.to_string(),
///         ElementRef::Path(id, _) => id.to_string(),
///     })
///     .collect();
/// assert_eq!(order, ["#n1", "#n2", "#e5"]);
/// ```
pub fn sorted_elements(g: &PathPropertyGraph) -> impl Iterator<Item = ElementRef<'_>> {
    // Paths are sorted once as (id, payload) pairs; the node and edge
    // stores are in id order already. Nothing is looked up twice.
    let mut paths: Vec<_> = g.paths().collect();
    paths.sort_unstable_by_key(|&(id, _)| id);
    let nodes = g.nodes().map(|(id, d)| ElementRef::Node(id, d));
    let edges = g.edges().map(|(id, d)| ElementRef::Edge(id, d));
    let paths = paths.into_iter().map(|(id, d)| ElementRef::Path(id, d));
    nodes.chain(edges).chain(paths)
}

fn attrs_inline(attrs: &Attributes) -> String {
    let mut out = String::new();
    for label in attrs.labels.names() {
        let _ = write!(out, ":{label}");
    }
    if !attrs.properties.is_empty() {
        let mut props: Vec<(String, String)> = attrs
            .properties
            .iter()
            .map(|(k, v)| (k.name(), v.to_string()))
            .collect();
        props.sort();
        let _ = write!(out, " {{");
        for (i, (k, v)) in props.iter().enumerate() {
            if i > 0 {
                let _ = write!(out, ", ");
            }
            let _ = write!(out, "{k}: {v}");
        }
        let _ = write!(out, "}}");
    }
    out
}

/// A deterministic, line-per-element dump of the whole graph, in the
/// canonical order of [`sorted_elements`].
///
/// ```
/// use gcore_ppg::{to_text, Attributes, NodeId, PathPropertyGraph};
///
/// let mut g = PathPropertyGraph::new();
/// g.add_node(NodeId(1), Attributes::labeled("Person").with_prop("name", "Ann"));
/// let dump = to_text(&g);
/// assert!(dump.starts_with("graph: 1 nodes, 0 edges, 0 paths"));
/// assert!(dump.contains("node #n1 :Person {name: Ann}"));
/// ```
pub fn to_text(g: &PathPropertyGraph) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "graph: {} nodes, {} edges, {} paths",
        g.node_count(),
        g.edge_count(),
        g.path_count()
    );
    for el in sorted_elements(g) {
        match el {
            ElementRef::Node(id, n) => {
                let _ = writeln!(out, "node {id} {}", attrs_inline(&n.attrs));
            }
            ElementRef::Edge(id, e) => {
                let _ = writeln!(
                    out,
                    "edge {id} {} -> {} {}",
                    e.src,
                    e.dst,
                    attrs_inline(&e.attrs)
                );
            }
            ElementRef::Path(id, p) => {
                let _ = writeln!(out, "path {id} {} {}", p.shape, attrs_inline(&p.attrs));
            }
        }
    }
    out
}

/// Graphviz DOT rendering, in the canonical order of
/// [`sorted_elements`]. Stored paths are drawn as label comments since
/// DOT has no native path concept.
///
/// ```
/// use gcore_ppg::{to_dot, Attributes, NodeId, PathPropertyGraph};
///
/// let mut g = PathPropertyGraph::new();
/// g.add_node(NodeId(1), Attributes::labeled("Person"));
/// let dot = to_dot(&g, "people");
/// assert!(dot.starts_with("digraph \"people\" {"));
/// assert!(dot.contains("n1 [label=\"#n1\\n:Person\"];"));
/// ```
pub fn to_dot(g: &PathPropertyGraph, name: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{name}\" {{");
    let _ = writeln!(out, "  node [shape=box, fontsize=10];");
    for el in sorted_elements(g) {
        match el {
            ElementRef::Node(id, n) => {
                let _ = writeln!(
                    out,
                    "  n{} [label=\"{}\\n{}\"];",
                    id.raw(),
                    id,
                    escape(&attrs_inline(&n.attrs))
                );
            }
            ElementRef::Edge(_, e) => {
                let _ = writeln!(
                    out,
                    "  n{} -> n{} [label=\"{}\"];",
                    e.src.raw(),
                    e.dst.raw(),
                    escape(&attrs_inline(&e.attrs))
                );
            }
            ElementRef::Path(id, p) => {
                let _ = writeln!(
                    out,
                    "  // stored path {id}: {} {}",
                    p.shape,
                    attrs_inline(&p.attrs)
                );
            }
        }
    }
    let _ = writeln!(out, "}}");
    out
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Attributes;
    use crate::ids::{EdgeId, NodeId};
    use crate::path::PathShape;

    fn sample() -> PathPropertyGraph {
        let mut g = PathPropertyGraph::new();
        g.add_node(
            NodeId(1),
            Attributes::labeled("Person").with_prop("name", "Ann"),
        );
        g.add_node(NodeId(2), Attributes::labeled("Person"));
        g.add_edge(
            EdgeId(3),
            NodeId(1),
            NodeId(2),
            Attributes::labeled("knows"),
        )
        .unwrap();
        g.add_path(
            crate::ids::PathId(4),
            PathShape::new(vec![NodeId(1), NodeId(2)], vec![EdgeId(3)]).unwrap(),
            Attributes::labeled("route"),
        )
        .unwrap();
        g
    }

    #[test]
    fn text_dump_is_deterministic_and_complete() {
        let g = sample();
        let t1 = to_text(&g);
        let t2 = to_text(&g);
        assert_eq!(t1, t2);
        assert!(t1.contains("node #n1 :Person {name: Ann}"));
        assert!(t1.contains("edge #e3 #n1 -> #n2 :knows"));
        assert!(t1.contains("path #p4"));
    }

    #[test]
    fn dot_contains_all_elements() {
        let d = to_dot(&sample(), "g");
        assert!(d.starts_with("digraph \"g\""));
        assert!(d.contains("n1 ->"));
        assert!(d.contains("stored path"));
        assert!(d.trim_end().ends_with('}'));
    }

    #[test]
    fn dot_escapes_quotes() {
        let mut g = PathPropertyGraph::new();
        g.add_node(NodeId(1), Attributes::new().with_prop("q", "say \"hi\""));
        let d = to_dot(&g, "g");
        assert!(d.contains("\\\"hi\\\""));
    }

    #[test]
    fn sorted_elements_yields_nodes_edges_paths_in_id_order() {
        let g = sample();
        let kinds: Vec<&'static str> = sorted_elements(&g)
            .map(|el| match el {
                ElementRef::Node(..) => "n",
                ElementRef::Edge(..) => "e",
                ElementRef::Path(..) => "p",
            })
            .collect();
        assert_eq!(kinds, ["n", "n", "e", "p"]);
        let node_ids: Vec<NodeId> = sorted_elements(&g)
            .filter_map(|el| match el {
                ElementRef::Node(id, _) => Some(id),
                _ => None,
            })
            .collect();
        assert_eq!(node_ids, [NodeId(1), NodeId(2)]);
    }
}

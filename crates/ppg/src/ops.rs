//! Full-graph set operations — Appendix A.5 of the paper.
//!
//! Union, intersection and difference are defined over element
//! *identities*. Two graphs are **consistent** when every shared edge has
//! the same endpoints (ρ₁ = ρ₂ on E₁∩E₂) and every shared path the same
//! δ. The paper defines union/intersection of inconsistent graphs as the
//! empty PPG; [`union`] and [`intersect`] follow that literally.

use crate::error::GraphError;
use crate::graph::PathPropertyGraph;
use std::cmp::Ordering;

/// Where an element of a two-graph merge lies.
enum Merged<'g, T> {
    /// In the first graph only.
    Left(&'g T),
    /// In the second graph only.
    Right(&'g T),
    /// In both.
    Both(&'g T, &'g T),
}

/// The elements of two ascending listings — the node, the edge or the
/// path stores of two graphs — in one ascending walk, each identifier
/// once.
fn merged<'g, I: Ord, T: 'g>(
    a: impl Iterator<Item = (I, &'g T)>,
    b: impl Iterator<Item = (I, &'g T)>,
) -> impl Iterator<Item = (I, Merged<'g, T>)> {
    let (mut a, mut b) = (a.peekable(), b.peekable());
    std::iter::from_fn(move || {
        let order = match (a.peek(), b.peek()) {
            (Some(x), Some(y)) => x.0.cmp(&y.0),
            (Some(_), None) => Ordering::Less,
            (None, _) => Ordering::Greater,
        };
        Some(match order {
            Ordering::Less => a.next().map(|(id, x)| (id, Merged::Left(x)))?,
            Ordering::Greater => b.next().map(|(id, y)| (id, Merged::Right(y)))?,
            Ordering::Equal => {
                let ((id, x), (_, y)) = a.next().zip(b.next())?;
                (id, Merged::Both(x, y))
            }
        })
    })
}

/// Are `a` and `b` consistent in the sense of §A.5?
pub fn consistent(a: &PathPropertyGraph, b: &PathPropertyGraph) -> Result<(), GraphError> {
    for (e, merged) in merged(a.edges(), b.edges()) {
        if let Merged::Both(x, y) = merged {
            if (x.src, x.dst) != (y.src, y.dst) {
                return Err(GraphError::IdentityConflict(format!(
                    "shared edge {e} has endpoints {:?} in one graph and {:?} in the other",
                    (x.src, x.dst),
                    (y.src, y.dst)
                )));
            }
        }
    }
    for (p, merged) in merged(a.paths(), b.paths()) {
        if let Merged::Both(x, y) = merged {
            if x.shape != y.shape {
                return Err(GraphError::IdentityConflict(format!(
                    "shared path {p} has different δ in the two graphs"
                )));
            }
        }
    }
    Ok(())
}

/// G₁ ∪ G₂ per §A.5. Inconsistent inputs yield the **empty PPG**, exactly
/// as the paper defines. Labels and property sets of shared elements are
/// unioned.
pub fn union(a: &PathPropertyGraph, b: &PathPropertyGraph) -> PathPropertyGraph {
    try_union(a, b).unwrap_or_default()
}

/// Like [`union`] but reports the inconsistency instead of returning G∅.
fn try_union(
    a: &PathPropertyGraph,
    b: &PathPropertyGraph,
) -> Result<PathPropertyGraph, GraphError> {
    consistent(a, b)?;
    // The merges hand every element over in ascending id: each one
    // appends.
    let mut out = PathPropertyGraph::new();
    let most = |count: fn(&PathPropertyGraph) -> usize| count(a).max(count(b));
    out.reserve(
        most(PathPropertyGraph::node_count),
        most(PathPropertyGraph::edge_count),
        most(PathPropertyGraph::path_count),
    );
    for (id, merged) in merged(a.nodes(), b.nodes()) {
        match merged {
            Merged::Left(n) | Merged::Right(n) => out.add_node_ref(id, &n.attrs),
            Merged::Both(x, y) => {
                let mut attrs = x.attrs.clone();
                attrs.union_in_place(&y.attrs);
                out.add_node(id, attrs);
            }
        }
    }
    for (id, merged) in merged(a.edges(), b.edges()) {
        match merged {
            Merged::Left(e) | Merged::Right(e) => out.add_edge_ref(id, e.src, e.dst, &e.attrs),
            Merged::Both(x, y) => {
                let mut attrs = x.attrs.clone();
                attrs.union_in_place(&y.attrs);
                out.add_edge(id, x.src, x.dst, attrs)
            }
        }
        .expect("endpoints inserted above");
    }
    for (id, merged) in merged(a.paths(), b.paths()) {
        match merged {
            Merged::Left(p) | Merged::Right(p) => out.add_path_ref(id, &p.shape, &p.attrs),
            Merged::Both(x, y) => {
                let mut attrs = x.attrs.clone();
                attrs.union_in_place(&y.attrs);
                out.add_path(id, x.shape.clone(), attrs)
            }
        }
        .expect("constituents inserted above");
    }
    Ok(out)
}

/// G₁ ∩ G₂ per §A.5: shared identities only; labels and property sets
/// intersect. Inconsistent inputs yield the empty PPG.
pub fn intersect(a: &PathPropertyGraph, b: &PathPropertyGraph) -> PathPropertyGraph {
    try_intersect(a, b).unwrap_or_default()
}

/// Like [`intersect`] but reports inconsistency.
fn try_intersect(
    a: &PathPropertyGraph,
    b: &PathPropertyGraph,
) -> Result<PathPropertyGraph, GraphError> {
    consistent(a, b)?;
    let mut out = PathPropertyGraph::new();
    for (id, merged) in merged(a.nodes(), b.nodes()) {
        if let Merged::Both(na, nb) = merged {
            out.add_node(id, na.attrs.intersect(&nb.attrs));
        }
    }
    for (id, merged) in merged(a.edges(), b.edges()) {
        if let Merged::Both(ea, eb) = merged {
            // Consistency guarantees equal endpoints; both graphs are
            // well-formed, so the endpoints are in N₁ ∩ N₂.
            out.add_edge(id, ea.src, ea.dst, ea.attrs.intersect(&eb.attrs))
                .expect("endpoints present by well-formedness");
        }
    }
    for (id, merged) in merged(a.paths(), b.paths()) {
        if let Merged::Both(pa, pb) = merged {
            out.add_path(id, pa.shape.clone(), pa.attrs.intersect(&pb.attrs))
                .expect("constituents present by well-formedness");
        }
    }
    Ok(out)
}

/// G₁ ∖ G₂ per §A.5:
/// * N = N₁ ∖ N₂;
/// * E keeps edges of E₁ ∖ E₂ whose endpoints both survive;
/// * P keeps paths of P₁ ∖ P₂ fully contained in the surviving N and E;
/// * λ, σ restrict to the survivors (attributes come from G₁ alone).
///
/// Difference never needs the consistency check: all structure is taken
/// from G₁.
pub fn difference(a: &PathPropertyGraph, b: &PathPropertyGraph) -> PathPropertyGraph {
    let mut out = PathPropertyGraph::new();
    for (id, merged) in merged(a.nodes(), b.nodes()) {
        if let Merged::Left(n) = merged {
            out.add_node(id, n.attrs.clone());
        }
    }
    for (id, merged) in merged(a.edges(), b.edges()) {
        if let Merged::Left(e) = merged {
            if out.contains_node(e.src) && out.contains_node(e.dst) {
                out.add_edge(id, e.src, e.dst, e.attrs.clone())
                    .expect("endpoints checked");
            }
        }
    }
    for (id, merged) in merged(a.paths(), b.paths()) {
        if let Merged::Left(p) = merged {
            let nodes_ok = p.shape.nodes().iter().all(|n| out.contains_node(*n));
            let edges_ok = p.shape.edges().iter().all(|e| out.contains_edge(*e));
            if nodes_ok && edges_ok {
                out.add_path(id, p.shape.clone(), p.attrs.clone())
                    .expect("constituents checked");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Attributes;
    use crate::ids::{EdgeId, NodeId, PathId};
    use crate::path::PathShape;
    use crate::symbols::Key;

    fn n(i: u64) -> NodeId {
        NodeId(i)
    }
    fn e(i: u64) -> EdgeId {
        EdgeId(i)
    }
    fn p(i: u64) -> PathId {
        PathId(i)
    }

    fn g1() -> PathPropertyGraph {
        let mut g = PathPropertyGraph::new();
        g.add_node(n(1), Attributes::labeled("A").with_prop("k", "v1"));
        g.add_node(n(2), Attributes::labeled("B"));
        g.add_edge(e(10), n(1), n(2), Attributes::labeled("r"))
            .unwrap();
        g.add_path(
            p(100),
            PathShape::new(vec![n(1), n(2)], vec![e(10)]).unwrap(),
            Attributes::labeled("pp"),
        )
        .unwrap();
        g
    }

    fn g2() -> PathPropertyGraph {
        let mut g = PathPropertyGraph::new();
        g.add_node(n(2), Attributes::labeled("B").with_prop("k", "v2"));
        g.add_node(n(3), Attributes::labeled("C"));
        g.add_edge(e(11), n(2), n(3), Attributes::new()).unwrap();
        g
    }

    #[test]
    fn union_merges_identities_and_attributes() {
        let u = union(&g1(), &g2());
        assert_eq!(u.node_count(), 3);
        assert_eq!(u.edge_count(), 2);
        assert_eq!(u.path_count(), 1);
        u.validate().unwrap();
        // n2 keeps label B once; property k merged from g2 only.
        assert_eq!(u.prop(n(2).into(), Key::new("k")).len(), 1);
    }

    #[test]
    fn union_of_shared_element_unions_property_sets() {
        let mut a = PathPropertyGraph::new();
        a.add_node(n(1), Attributes::new().with_prop("k", "x"));
        let mut b = PathPropertyGraph::new();
        b.add_node(n(1), Attributes::new().with_prop("k", "y"));
        let u = union(&a, &b);
        assert_eq!(u.prop(n(1).into(), Key::new("k")).len(), 2);
    }

    #[test]
    fn inconsistent_union_is_empty_graph() {
        let mut a = PathPropertyGraph::new();
        a.add_node(n(1), Attributes::new());
        a.add_node(n(2), Attributes::new());
        a.add_edge(e(10), n(1), n(2), Attributes::new()).unwrap();
        let mut b = PathPropertyGraph::new();
        b.add_node(n(1), Attributes::new());
        b.add_node(n(2), Attributes::new());
        b.add_edge(e(10), n(2), n(1), Attributes::new()).unwrap();
        assert!(union(&a, &b).is_empty());
        assert!(try_union(&a, &b).is_err());
        assert!(intersect(&a, &b).is_empty());
    }

    #[test]
    fn intersection_keeps_shared_identities_only() {
        let i = intersect(&g1(), &g2());
        assert_eq!(i.node_ids_sorted(), vec![n(2)]);
        assert_eq!(i.edge_count(), 0);
        assert_eq!(i.path_count(), 0);
        // g1 has no k on n2, so the intersected property set is empty.
        assert!(i.prop(n(2).into(), Key::new("k")).is_empty());
    }

    #[test]
    fn difference_removes_and_prunes() {
        let d = difference(&g1(), &g2());
        // n2 ∈ both, so removed; edge 10 loses an endpoint; path 100 dies.
        assert_eq!(d.node_ids_sorted(), vec![n(1)]);
        assert_eq!(d.edge_count(), 0);
        assert_eq!(d.path_count(), 0);
        d.validate().unwrap();
    }

    #[test]
    fn difference_with_disjoint_graph_is_identity() {
        let mut b = PathPropertyGraph::new();
        b.add_node(n(99), Attributes::new());
        let d = difference(&g1(), &b);
        assert_eq!(d, g1());
    }

    #[test]
    fn difference_keeps_attrs_from_left_only() {
        let mut b = PathPropertyGraph::new();
        b.add_node(n(2), Attributes::new());
        let d = difference(&g1(), &b);
        assert_eq!(d.prop(n(1).into(), Key::new("k")), "v1".into());
    }

    #[test]
    fn union_is_commutative_and_idempotent_on_consistent_inputs() {
        let ab = union(&g1(), &g2());
        let ba = union(&g2(), &g1());
        assert_eq!(ab, ba);
        assert_eq!(union(&g1(), &g1()), g1());
    }
}

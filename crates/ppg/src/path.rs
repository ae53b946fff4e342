//! Stored paths — the distinguishing feature of the PPG model.
//!
//! A path `δ(p) = [a1, e1, a2, …, an, en, an+1]` is an alternating list of
//! existing, adjacent nodes and edges (Definition 2.1, condition 3). Edges
//! may be traversed in either direction. We store the node list and edge
//! list separately; `nodes.len() == edges.len() + 1` always holds.

use crate::ids::{EdgeId, NodeId};
use std::fmt;

/// The shape of a path: its node sequence and edge sequence.
///
/// `nodes(p)` and `edges(p)` from the paper are the `nodes`/`edges` fields.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PathShape {
    nodes: Vec<NodeId>,
    edges: Vec<EdgeId>,
}

impl PathShape {
    /// A zero-length path sitting on a single node (n = 0 in the paper's
    /// definition — explicitly allowed).
    pub fn trivial(node: NodeId) -> Self {
        PathShape {
            nodes: vec![node],
            edges: Vec::new(),
        }
    }

    /// Build from parallel node/edge lists. Returns `None` when the lists do
    /// not form an alternating sequence (`nodes.len() != edges.len() + 1`).
    /// Adjacency against ρ is checked by the owning graph, which knows
    /// edge endpoints.
    pub fn new(nodes: Vec<NodeId>, edges: Vec<EdgeId>) -> Option<Self> {
        if nodes.is_empty() || nodes.len() != edges.len() + 1 {
            return None;
        }
        Some(PathShape { nodes, edges })
    }

    /// The paper's `nodes(p)` list: `[a1, …, an+1]`.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The paper's `edges(p)` list: `[e1, …, en]`.
    pub fn edges(&self) -> &[EdgeId] {
        &self.edges
    }

    /// `length(L)`: the number of edges (hop count).
    pub fn length(&self) -> usize {
        self.edges.len()
    }

    /// First node of the path.
    pub fn start(&self) -> NodeId {
        self.nodes[0]
    }

    /// Last node of the path.
    pub fn end(&self) -> NodeId {
        *self.nodes.last().expect("paths are never empty")
    }

    /// Concatenate with another path whose start equals our end.
    /// Returns `None` when the endpoints do not line up.
    pub fn concat(&self, other: &PathShape) -> Option<PathShape> {
        if self.end() != other.start() {
            return None;
        }
        let mut nodes = self.nodes.clone();
        nodes.extend_from_slice(&other.nodes[1..]);
        let mut edges = self.edges.clone();
        edges.extend_from_slice(&other.edges);
        Some(PathShape { nodes, edges })
    }

    /// The interleaved `[a1, e1, a2, …]` view used for display and for the
    /// canonical lexicographic order on paths.
    pub fn interleaved(&self) -> Vec<u64> {
        self.interleaved_ids().collect()
    }

    /// The identifiers of [`interleaved`](Self::interleaved), without
    /// building the vector; reversible, to read the path from its end.
    pub fn interleaved_ids(&self) -> impl DoubleEndedIterator<Item = u64> + '_ {
        (0..self.nodes.len() + self.edges.len()).map(|i| {
            if i % 2 == 0 {
                self.nodes[i / 2].raw()
            } else {
                self.edges[i / 2].raw()
            }
        })
    }

    /// The canonical lexicographic order on paths — `interleaved()`
    /// compared to `other.interleaved()` — without allocating.
    pub fn cmp_interleaved(&self, other: &PathShape) -> std::cmp::Ordering {
        self.interleaved_ids().cmp(other.interleaved_ids())
    }
}

impl fmt::Display for PathShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for i in 0..self.edges.len() {
            write!(f, "{}, {}, ", self.nodes[i], self.edges[i])?;
        }
        write!(f, "{}]", self.end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u64) -> NodeId {
        NodeId(i)
    }
    fn e(i: u64) -> EdgeId {
        EdgeId(i)
    }

    #[test]
    fn trivial_path_has_length_zero() {
        let p = PathShape::trivial(n(5));
        assert_eq!(p.length(), 0);
        assert_eq!(p.start(), n(5));
        assert_eq!(p.end(), n(5));
    }

    #[test]
    fn shape_validation() {
        assert!(PathShape::new(vec![], vec![]).is_none());
        assert!(PathShape::new(vec![n(1)], vec![e(1)]).is_none());
        assert!(PathShape::new(vec![n(1), n(2)], vec![e(1)]).is_some());
    }

    #[test]
    fn figure2_path_301() {
        // δ(301) = [105, 207, 103, 202, 102]
        let p = PathShape::new(vec![n(105), n(103), n(102)], vec![e(207), e(202)]).unwrap();
        assert_eq!(p.nodes(), &[n(105), n(103), n(102)]);
        assert_eq!(p.edges(), &[e(207), e(202)]);
        assert_eq!(p.length(), 2);
        assert_eq!(p.interleaved(), vec![105, 207, 103, 202, 102]);
        assert_eq!(p.to_string(), "[#n105, #e207, #n103, #e202, #n102]");
    }

    #[test]
    fn concat_checks_endpoints() {
        let a = PathShape::new(vec![n(1), n(2)], vec![e(10)]).unwrap();
        let b = PathShape::new(vec![n(2), n(3)], vec![e(11)]).unwrap();
        let c = a.concat(&b).unwrap();
        assert_eq!(c.nodes(), &[n(1), n(2), n(3)]);
        assert_eq!(c.edges(), &[e(10), e(11)]);
        assert!(b.concat(&a).is_none());
    }

    #[test]
    fn concat_with_trivial_is_identity() {
        let a = PathShape::new(vec![n(1), n(2)], vec![e(10)]).unwrap();
        let t = PathShape::trivial(n(2));
        assert_eq!(a.concat(&t).unwrap(), a);
        let t1 = PathShape::trivial(n(1));
        assert_eq!(t1.concat(&a).unwrap(), a);
    }

    #[test]
    fn cmp_interleaved_is_the_order_of_the_interleaved_vectors() {
        let paths = [
            PathShape::trivial(n(1)),
            PathShape::trivial(n(2)),
            PathShape::new(vec![n(1), n(2)], vec![e(10)]).unwrap(),
            PathShape::new(vec![n(1), n(3)], vec![e(10)]).unwrap(),
            PathShape::new(vec![n(1), n(2)], vec![e(11)]).unwrap(),
            PathShape::new(vec![n(1), n(2), n(3)], vec![e(10), e(12)]).unwrap(),
        ];
        for a in &paths {
            let rev: Vec<u64> = a.interleaved_ids().rev().collect();
            let mut want = a.interleaved();
            want.reverse();
            assert_eq!(rev, want);
            for b in &paths {
                assert_eq!(
                    a.cmp_interleaved(b),
                    a.interleaved().cmp(&b.interleaved()),
                    "{a} vs {b}"
                );
            }
        }
    }
}

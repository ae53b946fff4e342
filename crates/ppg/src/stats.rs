//! Per-graph statistics for cost-based query planning.
//!
//! [`GraphStats`] is a small, deterministic summary of one
//! [`PathPropertyGraph`](crate::PathPropertyGraph): element counts per
//! label, endpoint-distinctness of every labeled edge relation (from
//! which a planner derives average degrees), and per-key property
//! sketches (carrier counts and distinct values, from which equality
//! selectivities follow). The summary is kept in the graph's read layout
//! (see [`crate::graph`]) and tallied by the first
//! [`stats`](crate::PathPropertyGraph::stats) call: the label counts are
//! the lengths of its label groups, an edge relation is its label's CSR
//! (the total, and the non-empty out- and in-ranges), and only the
//! property sketches tally values (`tally`, in one pass over the element
//! payloads). So it is there wherever the layout is — built by
//! [`crate::GraphBuilder::build`], by [`crate::Catalog::register_graph`]
//! for every graph entering a catalog, by
//! [`build_label_index`](crate::PathPropertyGraph::build_label_index) —
//! paid for only where a planner reads it, and dropped by any mutation.
//! It is *purely advisory* — a planner consulting wrong or missing stats
//! may pick a worse plan but never a wrong answer.
//!
//! Determinism matters more than precision here: equal graphs produce
//! equal stats in any process (everything is an exact count over sorted
//! data, no sampling, no hashing of addresses), so plans — and their
//! `EXPLAIN` renderings — are reproducible, and a cold-started engine,
//! which tallies the stats again for each stored graph it registers,
//! plans identically to the engine that saved them.

use crate::graph::Attributes;
use crate::hash::FxHashSet;
use crate::symbols::{Key, Label};
use crate::value::Value;

/// Statistics of one labeled edge relation `ℓ`: how many edges carry
/// the label and how many distinct endpoints they touch.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct EdgeLabelStats {
    /// Number of edges carrying the label.
    pub count: u64,
    /// Distinct source nodes among those edges.
    pub distinct_src: u64,
    /// Distinct destination nodes among those edges.
    pub distinct_dst: u64,
}

impl EdgeLabelStats {
    /// Average out-degree of a node that has at least one outgoing
    /// `ℓ`-edge (`count / distinct_src`); 0.0 for the empty relation.
    pub fn avg_out_degree(&self) -> f64 {
        if self.distinct_src == 0 {
            0.0
        } else {
            self.count as f64 / self.distinct_src as f64
        }
    }

    /// Average in-degree of a node that has at least one incoming
    /// `ℓ`-edge (`count / distinct_dst`); 0.0 for the empty relation.
    pub fn avg_in_degree(&self) -> f64 {
        if self.distinct_dst == 0 {
            0.0
        } else {
            self.count as f64 / self.distinct_dst as f64
        }
    }
}

/// Selectivity sketch of one property key on one element sort.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PropStats {
    /// Elements carrying the key (σ(x, k) ≠ ∅).
    pub carriers: u64,
    /// Total values across carriers (> `carriers` when multi-valued).
    pub values: u64,
    /// Distinct values across all carriers (exact).
    pub distinct: u64,
}

impl PropStats {
    /// Estimated fraction of carriers matching `key = <constant>`
    /// under a uniformity assumption: `1 / distinct`.
    pub fn eq_selectivity(&self) -> f64 {
        if self.distinct == 0 {
            1.0
        } else {
            1.0 / self.distinct as f64
        }
    }
}

/// A deterministic statistical summary of one graph. See the module
/// docs for lifecycle and intent. All association lists are sorted by
/// symbol, so equal graphs yield `==` stats.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct GraphStats {
    /// |N|.
    pub node_count: u64,
    /// |E|.
    pub edge_count: u64,
    /// |P|.
    pub path_count: u64,
    /// Nodes per label, sorted by label symbol.
    pub nodes_per_label: Vec<(Label, u64)>,
    /// Labeled edge relations, sorted by label symbol.
    pub edges_per_label: Vec<(Label, EdgeLabelStats)>,
    /// Property sketches over nodes, sorted by key symbol.
    pub node_props: Vec<(Key, PropStats)>,
    /// Property sketches over edges, sorted by key symbol.
    pub edge_props: Vec<(Key, PropStats)>,
}

impl GraphStats {
    /// Nodes carrying `label` (0 when the label occurs on no node).
    pub fn nodes_with_label(&self, label: Label) -> u64 {
        assoc(&self.nodes_per_label, label).copied().unwrap_or(0)
    }

    /// The labeled edge relation for `label`, if any edge carries it.
    pub fn edge_relation(&self, label: Label) -> Option<&EdgeLabelStats> {
        assoc(&self.edges_per_label, label)
    }

    /// The node-property sketch for `key`, if any node carries it.
    pub fn node_prop(&self, key: Key) -> Option<&PropStats> {
        assoc(&self.node_props, key)
    }

    /// The edge-property sketch for `key`, if any edge carries it.
    pub fn edge_prop(&self, key: Key) -> Option<&PropStats> {
        assoc(&self.edge_props, key)
    }
}

/// The property sketches of one element sort, tallied in one pass over
/// its payloads: per key, sorted by key, its carriers, its values and,
/// in one set of borrowed values, its distinct ones. `Value`'s `Eq` and
/// `Hash` are `total_cmp`'s, so `Int(1)` and `Float(1.0)` are one value.
/// Each key's set is sized once, for as many values as the sort has
/// elements, so a single-valued key never grows it.
pub(crate) fn tally<'g>(
    attrs: impl ExactSizeIterator<Item = &'g Attributes>,
) -> Vec<(Key, PropStats)> {
    let elements = attrs.len();
    let mut keys: Vec<(Key, PropStats)> = Vec::new();
    let mut seen: Vec<FxHashSet<&'g Value>> = Vec::new();
    for a in attrs {
        for (k, vs) in &a.properties {
            let i = keys.partition_point(|(key, _)| key < k);
            if keys.get(i).is_none_or(|(key, _)| key != k) {
                keys.insert(i, (*k, PropStats::default()));
                let room = FxHashSet::with_capacity_and_hasher(elements, Default::default());
                seen.insert(i, room);
            }
            keys[i].1.carriers += 1;
            keys[i].1.values += vs.len() as u64;
            seen[i].extend(vs.iter());
        }
    }
    for ((_, t), distinct) in keys.iter_mut().zip(&seen) {
        t.distinct = distinct.len() as u64;
    }
    keys
}

/// What `symbol` is paired with in a list sorted by symbol.
fn assoc<S: Ord, T>(list: &[(S, T)], symbol: S) -> Option<&T> {
    let i = list.binary_search_by(|(s, _)| s.cmp(&symbol)).ok()?;
    Some(&list[i].1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::PathPropertyGraph;
    use crate::ids::{EdgeId, NodeId};
    use crate::property::PropertySet;

    /// The statistics `g`'s read layout carries.
    fn stats_of(mut g: PathPropertyGraph) -> GraphStats {
        g.build_label_index();
        g.stats().expect("built with the layout").clone()
    }

    fn sample() -> PathPropertyGraph {
        let mut g = PathPropertyGraph::new();
        g.add_node(
            NodeId(1),
            Attributes::labeled("Person").with_prop("name", "Ann"),
        );
        g.add_node(
            NodeId(2),
            Attributes::labeled("Person").with_prop("name", "Bob"),
        );
        g.add_node(
            NodeId(3),
            Attributes::labeled("Company").with_prop("name", "Acme"),
        );
        g.add_edge(
            EdgeId(10),
            NodeId(1),
            NodeId(2),
            Attributes::labeled("knows"),
        )
        .unwrap();
        g.add_edge(
            EdgeId(11),
            NodeId(2),
            NodeId(1),
            Attributes::labeled("knows"),
        )
        .unwrap();
        g.add_edge(
            EdgeId(12),
            NodeId(1),
            NodeId(3),
            Attributes::labeled("worksAt").with_prop("since", 2015),
        )
        .unwrap();
        g
    }

    #[test]
    fn counts_and_relations() {
        let s = stats_of(sample());
        assert_eq!(s.node_count, 3);
        assert_eq!(s.edge_count, 3);
        assert_eq!(s.nodes_with_label(Label::new("Person")), 2);
        assert_eq!(s.nodes_with_label(Label::new("Company")), 1);
        assert_eq!(s.nodes_with_label(Label::new("Nope")), 0);
        let knows = s.edge_relation(Label::new("knows")).unwrap();
        assert_eq!(knows.count, 2);
        assert_eq!(knows.distinct_src, 2);
        assert_eq!(knows.distinct_dst, 2);
        assert!((knows.avg_out_degree() - 1.0).abs() < 1e-9);
        assert!(s.edge_relation(Label::new("livesIn")).is_none());
    }

    #[test]
    fn property_sketches() {
        let s = stats_of(sample());
        let name = s.node_prop(Key::new("name")).unwrap();
        assert_eq!(name.carriers, 3);
        assert_eq!(name.values, 3);
        assert_eq!(name.distinct, 3);
        assert!((name.eq_selectivity() - 1.0 / 3.0).abs() < 1e-9);
        let since = s.edge_prop(Key::new("since")).unwrap();
        assert_eq!(since.carriers, 1);
        assert!(s.node_prop(Key::new("since")).is_none());
    }

    #[test]
    fn multi_valued_properties_counted_per_value() {
        let mut g = PathPropertyGraph::new();
        g.add_node(
            NodeId(1),
            Attributes::new().with_prop_set(
                "employer",
                PropertySet::from_values([Value::str("Acme"), Value::str("HAL")]),
            ),
        );
        g.add_node(NodeId(2), Attributes::new().with_prop("employer", "Acme"));
        let s = stats_of(g);
        let emp = s.node_prop(Key::new("employer")).unwrap();
        assert_eq!(emp.carriers, 2);
        assert_eq!(emp.values, 3);
        assert_eq!(emp.distinct, 2);
    }

    #[test]
    fn equal_graphs_equal_stats() {
        // Insertion order must not matter.
        let a = stats_of(sample());
        let mut g = PathPropertyGraph::new();
        g.add_node(
            NodeId(3),
            Attributes::labeled("Company").with_prop("name", "Acme"),
        );
        g.add_node(
            NodeId(2),
            Attributes::labeled("Person").with_prop("name", "Bob"),
        );
        g.add_node(
            NodeId(1),
            Attributes::labeled("Person").with_prop("name", "Ann"),
        );
        g.add_edge(
            EdgeId(12),
            NodeId(1),
            NodeId(3),
            Attributes::labeled("worksAt").with_prop("since", 2015),
        )
        .unwrap();
        g.add_edge(
            EdgeId(11),
            NodeId(2),
            NodeId(1),
            Attributes::labeled("knows"),
        )
        .unwrap();
        g.add_edge(
            EdgeId(10),
            NodeId(1),
            NodeId(2),
            Attributes::labeled("knows"),
        )
        .unwrap();
        assert_eq!(a, stats_of(g));
    }
}

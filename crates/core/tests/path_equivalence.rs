//! Equivalence property tests for the path-engine search strategies.
//!
//! The product search has four accelerations — label-indexed expansion,
//! bidirectional single-pair search, backward-cone pruning and the
//! SCC-condensed shared frontier — all of which must be *invisible*: on
//! random graphs, random weighted view segments and random regexes over
//! both, each strategy's canonical paths / reachability sets must be
//! identical to the baseline unidirectional scan search; reversal and
//! mirroring must accept exactly the reversed walks; and the ALL-paths
//! projection must equal a reference computed by transitive closure of
//! the explicit product digraph. The random graphs number their nodes
//! and edges from one shuffled range and insert nodes out of id order, so
//! a layout that confused identifiers with positions, or dropped an
//! edge without a label, would show.

use gcore::paths::{PathSearcher, Segment, ViewMap, ViewSegments};
use gcore::regex::{Nfa, Sym};
use gcore_parser::ast::{Direction, Regex};
use gcore_ppg::hash::FxHashSet;
use gcore_ppg::{Attributes, EdgeId, Label, NodeId, PathPropertyGraph, PathShape};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

const EDGE_LABELS: [&str; 2] = ["a", "b"];
const NODE_LABELS: [&str; 2] = ["P", "Q"];
/// The one PATH view random regexes refer to.
const VIEW: &str = "v";

/// A random multigraph whose identifiers are not positions: nodes and
/// edges draw distinct ids from one shuffled range (so node ids are
/// sparse and interleaved with edge ids), nodes are inserted in a
/// shuffled order, and an edge carries no label, one, or both. Also the
/// segments of view `v` as (edge, extend by a following edge if there is
/// one, cost).
#[derive(Clone, Debug)]
struct RandomGraph {
    nodes: usize,
    /// Node `i`'s id is `ids[i]`, edge `i`'s is `ids[nodes + i]`.
    ids: Vec<u64>,
    /// Node indexes in insertion order.
    insertion: Vec<usize>,
    node_labels: Vec<usize>,           // 0 = none, 1 = P, 2 = Q, 3 = both
    edges: Vec<(usize, usize, usize)>, // (src, dst, 0 = none, 1 = a, 2 = b, 3 = both)
    segments: Vec<(usize, bool, u8)>,
}

/// Does a label pick (bit `b` set: `names[b]`) include `l`?
fn picks(bits: usize, names: &[&str; 2], l: Label) -> bool {
    (0..2).any(|b| bits >> b & 1 != 0 && l == Label::new(names[b]))
}

/// The attributes of a label pick.
fn labelled(bits: usize, names: &[&str; 2]) -> Attributes {
    (0..2)
        .filter(|b| bits >> b & 1 != 0)
        .fold(Attributes::new(), |attrs, b| attrs.with_label(names[b]))
}

impl RandomGraph {
    fn node(&self, i: usize) -> NodeId {
        NodeId(self.ids[i])
    }

    fn edge(&self, i: usize) -> EdgeId {
        EdgeId(self.ids[self.nodes + i])
    }

    fn build(&self, indexed: bool) -> PathPropertyGraph {
        let mut g = PathPropertyGraph::new();
        for &i in &self.insertion {
            g.add_node(self.node(i), labelled(self.node_labels[i], &NODE_LABELS));
        }
        for (i, &(s, d, l)) in self.edges.iter().enumerate() {
            g.add_edge(
                self.edge(i),
                self.node(s),
                self.node(d),
                labelled(l, &EDGE_LABELS),
            )
            .expect("endpoints exist");
        }
        if indexed {
            g.build_label_index();
        }
        g
    }

    /// The segments of view `v` as edge-index walks: one or two edges
    /// each, directed like their edges, so the relation is asymmetric.
    fn segment_walks(&self) -> Vec<(Vec<usize>, f64)> {
        let walks = self.segments.iter().filter_map(|&(i, extend, cost)| {
            let &(_, mid, _) = self.edges.get(i)?;
            let next = self.edges.iter().position(|&(s, _, _)| s == mid);
            let walk = match next {
                Some(j) if extend => vec![i, j],
                _ => vec![i],
            };
            Some((walk, f64::from(cost)))
        });
        walks.collect()
    }

    fn views(&self, g: &PathPropertyGraph) -> ViewMap {
        let segments = self.segment_walks().into_iter().map(|(walk, cost)| {
            let mut nodes = vec![self.node(self.edges[walk[0]].0)];
            nodes.extend(walk.iter().map(|&i| self.node(self.edges[i].1)));
            let edges = walk.iter().map(|&i| self.edge(i)).collect();
            let walk = PathShape::new(nodes, edges).expect("edges chain");
            Segment {
                src: walk.start(),
                dst: walk.end(),
                cost,
                walk,
            }
        });
        let mut views = ViewMap::default();
        views.insert(
            VIEW.into(),
            Arc::new(ViewSegments::new(segments.collect(), true, g)),
        );
        views
    }
}

/// A random permutation of `0..len`.
fn shuffled(len: usize) -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(any::<u32>(), len..len + 1).prop_map(move |keys| {
        let mut order: Vec<usize> = (0..len).collect();
        order.sort_by_key(|&i| (keys[i], i));
        order
    })
}

fn graph_strategy() -> impl Strategy<Value = RandomGraph> {
    (2usize..6).prop_flat_map(|nodes| {
        // Distinct ids for every node and edge, drawn from a range
        // twice as wide as they need.
        let ids =
            shuffled(2 * (nodes + 12)).prop_map(|p| p.iter().map(|&i| 1 + i as u64).collect());
        let insertion = shuffled(nodes);
        let labels = prop::collection::vec(0usize..4, nodes..nodes + 1);
        let edges = prop::collection::vec((0..nodes, 0..nodes, 0usize..4), 0..12);
        let segments = prop::collection::vec((0..12usize, any::<bool>(), 1..4u8), 0..6);
        (ids, insertion, labels, edges, segments).prop_map(
            move |(ids, insertion, node_labels, edges, segments)| RandomGraph {
                nodes,
                ids,
                insertion,
                node_labels,
                edges,
                segments,
            },
        )
    })
}

/// Random regexes over edge labels, node labels, the wildcard and the
/// view `v`.
fn regex_strategy() -> impl Strategy<Value = Regex> {
    let leaf = prop_oneof![
        (0..2usize).prop_map(|i| Regex::Label(EDGE_LABELS[i].to_owned())),
        (0..2usize).prop_map(|i| Regex::LabelInv(EDGE_LABELS[i].to_owned())),
        (0..2usize).prop_map(|i| Regex::NodeTest(NODE_LABELS[i].to_owned())),
        Just(Regex::Wildcard),
        Just(Regex::View(VIEW.to_owned())),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..3).prop_map(Regex::Concat),
            prop::collection::vec(inner.clone(), 1..3).prop_map(Regex::Alt),
            inner.clone().prop_map(|r| Regex::Star(Box::new(r))),
            inner.clone().prop_map(|r| Regex::Plus(Box::new(r))),
            inner.prop_map(|r| Regex::Opt(Box::new(r))),
        ]
    })
}

/// The product digraph spelled out, sharing no code with the searcher:
/// every (node, NFA state) pair is a vertex, ε- and node-test moves are
/// arcs that traverse nothing, and every symbol transition contributes
/// one arc per graph edge or view segment it can take, labelled with the
/// elements that step traverses.
struct Product {
    states: usize,
    node_ids: Vec<NodeId>,
    arcs: Vec<(usize, usize, Vec<NodeId>, Vec<EdgeId>)>,
}

impl Product {
    fn new(rg: &RandomGraph, nfa: &Nfa) -> Self {
        let states = nfa.num_states();
        let mut arcs = Vec::new();
        let segments = rg.segment_walks();
        for v in 0..rg.nodes {
            for q in 0..states {
                let from = v * states + q;
                for &c in nfa.closure(q) {
                    arcs.push((from, v * states + c, vec![], vec![]));
                }
                for (sym, to) in nfa.transitions(q) {
                    let mut arc = |far: usize, nodes: Vec<NodeId>, edges: Vec<EdgeId>| {
                        arcs.push((from, far * states + to, nodes, edges));
                    };
                    if let Sym::NodeTest(l) = sym {
                        if picks(rg.node_labels[v], &NODE_LABELS, *l) {
                            arc(v, vec![], vec![]);
                        }
                    }
                    for (i, &(s, d, l)) in rg.edges.iter().enumerate() {
                        let (fwd, bwd) = match sym {
                            Sym::Label(x) => (picks(l, &EDGE_LABELS, *x), false),
                            Sym::LabelInv(x) => (false, picks(l, &EDGE_LABELS, *x)),
                            Sym::Wildcard => (true, true),
                            _ => (false, false),
                        };
                        if fwd && s == v {
                            arc(d, vec![rg.node(s), rg.node(d)], vec![rg.edge(i)]);
                        }
                        if bwd && d == v {
                            arc(s, vec![rg.node(s), rg.node(d)], vec![rg.edge(i)]);
                        }
                    }
                    for (walk, _) in &segments {
                        let (start, end) = (rg.edges[walk[0]].0, rg.edges[walk[walk.len() - 1]].1);
                        let far = match sym {
                            Sym::View(_) if start == v => end,
                            Sym::ViewInv(_) if end == v => start,
                            _ => continue,
                        };
                        let ends = walk.iter().flat_map(|&i| [rg.edges[i].0, rg.edges[i].1]);
                        let edges = walk.iter().map(|&i| rg.edge(i)).collect();
                        arc(far, ends.map(|v| rg.node(v)).collect(), edges);
                    }
                }
            }
        }
        let node_ids = (0..rg.nodes).map(|v| rg.node(v)).collect();
        Product {
            states,
            node_ids,
            arcs,
        }
    }

    /// Vertices reachable from `seeds` along the arcs, or against them.
    fn closure(&self, seeds: Vec<usize>, against: bool) -> BTreeSet<usize> {
        let mut seen: BTreeSet<usize> = seeds.iter().copied().collect();
        let mut stack = seeds;
        while let Some(x) = stack.pop() {
            for (from, to, _, _) in &self.arcs {
                let (a, b) = if against { (to, from) } else { (from, to) };
                if *a == x && seen.insert(*b) {
                    stack.push(*b);
                }
            }
        }
        seen
    }

    fn from(&self, nfa: &Nfa, src: usize) -> BTreeSet<usize> {
        self.closure(vec![src * self.states + nfa.start()], false)
    }

    fn accepting_at(&self, nfa: &Nfa, dst: usize, within: &BTreeSet<usize>) -> Vec<usize> {
        let at_dst = (0..self.states).filter(|&q| nfa.accepts(q));
        at_dst
            .map(|q| dst * self.states + q)
            .filter(|x| within.contains(x))
            .collect()
    }

    /// Every element some accepting walk from `src` to `dst` traverses.
    fn projection(&self, nfa: &Nfa, src: usize, dst: usize) -> Option<(Vec<NodeId>, Vec<EdgeId>)> {
        let fwd = self.from(nfa, src);
        let accepting = self.accepting_at(nfa, dst, &fwd);
        if accepting.is_empty() {
            return None;
        }
        let bwd = self.closure(accepting, true);
        let mut nodes = BTreeSet::from([self.node_ids[src], self.node_ids[dst]]);
        let mut edges = BTreeSet::new();
        for (from, to, ns, es) in &self.arcs {
            if fwd.contains(from) && bwd.contains(to) {
                nodes.extend(ns);
                edges.extend(es);
            }
        }
        Some((nodes.into_iter().collect(), edges.into_iter().collect()))
    }
}

/// Flatten a k-shortest result into a comparable, deterministic form.
fn flat_paths(
    found: &gcore_ppg::hash::FxHashMap<NodeId, Vec<gcore::paths::FoundPath>>,
) -> Vec<(NodeId, Vec<Vec<u64>>)> {
    let mut v: Vec<(NodeId, Vec<Vec<u64>>)> = found
        .iter()
        .map(|(dst, paths)| (*dst, paths.iter().map(|p| p.walk.interleaved()).collect()))
        .collect();
    v.sort_by_key(|(d, _)| *d);
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Indexed expansion is invisible: reachability sets and canonical
    /// k-shortest walks agree with a search over the same graph built
    /// without its label index, whose steps scan adjacency.
    #[test]
    fn indexed_expansion_is_equivalent(rg in graph_strategy(), re in regex_strategy()) {
        let (g, unindexed) = (rg.build(true), rg.build(false));
        let nfa = Nfa::compile(&re);
        let views = rg.views(&g);
        let indexed = PathSearcher::new(&g, &nfa, &views);
        let scan = PathSearcher::new(&unindexed, &nfa, &views);
        for i in 0..rg.nodes {
            let src = rg.node(i);
            prop_assert_eq!(indexed.reachable(src).unwrap(), scan.reachable(src).unwrap());
            let a = flat_paths(&indexed.k_shortest(src, 2, None).unwrap());
            let b = flat_paths(&scan.k_shortest(src, 2, None).unwrap());
            prop_assert_eq!(a, b, "k-shortest from {}", src);
        }
    }

    /// The bidirectional pair search answers exactly like membership in
    /// the unidirectional reachability set.
    #[test]
    fn bidirectional_is_equivalent(rg in graph_strategy(), re in regex_strategy()) {
        let g = rg.build(true);
        let nfa = Nfa::compile(&re);
        let views = rg.views(&g);
        let s = PathSearcher::new(&g, &nfa, &views);
        for i in 0..rg.nodes {
            let src = rg.node(i);
            let reach = s.reachable(src).unwrap();
            for j in 0..rg.nodes {
                let dst = rg.node(j);
                prop_assert_eq!(
                    s.reachable_pair(src, dst).unwrap(),
                    reach.contains(&dst),
                    "pair ({}, {})", src, dst
                );
            }
        }
    }

    /// The shared-frontier (SCC-condensed) multi-source search returns,
    /// per source, exactly the per-source reachability set.
    #[test]
    fn shared_frontier_is_equivalent(rg in graph_strategy(), re in regex_strategy()) {
        let g = rg.build(true);
        let nfa = Nfa::compile(&re);
        let views = rg.views(&g);
        let s = PathSearcher::new(&g, &nfa, &views);
        let sources: Vec<NodeId> = (0..rg.nodes).map(|i| rg.node(i)).collect();
        let many = s.reachable_many(&sources).unwrap();
        for &src in &sources {
            prop_assert_eq!(&*many[&src], &s.reachable(src).unwrap(), "source {}", src);
        }
    }

    /// Backward-cone pruning with concrete targets yields walk-identical
    /// results to the unrestricted search filtered to the target.
    #[test]
    fn cone_pruning_is_equivalent(rg in graph_strategy(), re in regex_strategy()) {
        let g = rg.build(true);
        let nfa = Nfa::compile(&re);
        let views = rg.views(&g);
        let s = PathSearcher::new(&g, &nfa, &views);
        for i in 0..rg.nodes {
            let src = rg.node(i);
            let all = s.k_shortest(src, 2, None).unwrap();
            for j in 0..rg.nodes {
                let dst = rg.node(j);
                let mut t = FxHashSet::default();
                t.insert(dst);
                let pruned = s.k_shortest(src, 2, Some(&t)).unwrap();
                match all.get(&dst) {
                    None => prop_assert!(pruned.is_empty(), "({}, {})", src, dst),
                    Some(paths) => {
                        prop_assert_eq!(pruned.len(), 1);
                        let got: Vec<Vec<u64>> =
                            pruned[&dst].iter().map(|p| p.walk.interleaved()).collect();
                        let want: Vec<Vec<u64>> =
                            paths.iter().map(|p| p.walk.interleaved()).collect();
                        prop_assert_eq!(got, want, "walks ({}, {})", src, dst);
                    }
                }
            }
        }
    }

    /// The forward sweep and the ALL-paths projection (forward sweep ∩
    /// backward cone, then the steps between surviving states) agree
    /// with the explicit product digraph — per destination, and for all
    /// destinations of a source at once.
    #[test]
    fn sweeps_match_the_explicit_product(rg in graph_strategy(), re in regex_strategy()) {
        let g = rg.build(true);
        let nfa = Nfa::compile(&re);
        let views = rg.views(&g);
        let s = PathSearcher::new(&g, &nfa, &views);
        let product = Product::new(&rg, &nfa);
        for i in 0..rg.nodes {
            let fwd = product.from(&nfa, i);
            let mut reach: Vec<NodeId> = (0..rg.nodes)
                .filter(|&j| !product.accepting_at(&nfa, j, &fwd).is_empty())
                .map(|j| rg.node(j))
                .collect();
            reach.sort_unstable();
            prop_assert_eq!(s.reachable(rg.node(i)).unwrap(), reach, "reachable from {}", i);
            let mut all = Vec::new();
            for j in 0..rg.nodes {
                let want = product.projection(&nfa, i, j);
                let only: FxHashSet<NodeId> = [rg.node(j)].into_iter().collect();
                let mut to_j = s.all_paths_from(rg.node(i), Some(&only)).unwrap();
                prop_assert_eq!(
                    to_j.pop().map(|(_, nodes, edges)| (nodes, edges)),
                    want.clone(),
                    "projection ({}, {})", i, j
                );
                all.extend(want.map(|(nodes, edges)| (rg.node(j), nodes, edges)));
            }
            all.sort_unstable_by_key(|&(dst, _, _)| dst);
            let got = s.all_paths_from(rg.node(i), None).unwrap();
            prop_assert_eq!(got, all, "projections from {}", i);
        }
    }

    /// Reversing an automaton twice changes nothing; reversing it once,
    /// or compiling the expression for a `<-/…/-` pattern, accepts the
    /// walks end to start; a `-/…/-` pattern accepts either reading.
    #[test]
    fn reversal_and_mirroring_read_walks_from_the_other_end(
        rg in graph_strategy(),
        re in regex_strategy(),
    ) {
        let g = rg.build(true);
        let views = rg.views(&g);
        let out = Nfa::compile(&re);
        let reach = |nfa: &Nfa| -> Vec<Vec<NodeId>> {
            let s = PathSearcher::new(&g, nfa, &views);
            (0..rg.nodes).map(|i| s.reachable(rg.node(i)).unwrap()).collect()
        };
        let reach_out = reach(&out);
        let reach_in = reach(&Nfa::compile_directed(&re, Direction::In));
        let reach_either = reach(&Nfa::compile_directed(&re, Direction::Undirected));
        prop_assert_eq!(&reach(&out.reverse().reverse()), &reach_out);
        prop_assert_eq!(&reach(&out.reverse()), &reach_in);
        for i in 0..rg.nodes {
            for j in 0..rg.nodes {
                let (ni, nj) = (rg.node(i), rg.node(j));
                let forwards = reach_out[i].contains(&nj);
                prop_assert_eq!(reach_in[j].contains(&ni), forwards, "({}, {})", i, j);
                let either = forwards || reach_in[i].contains(&nj);
                prop_assert_eq!(reach_either[i].contains(&nj), either, "({}, {})", i, j);
            }
        }
    }
}

//! Path search on the product of a graph and an NFA.
//!
//! Implements the paper's four path-pattern semantics:
//!
//! * **shortest / k-shortest** — Dijkstra-style search where every product
//!   state `(node, nfa-state)` may be popped up to `k` times; ties broken
//!   by the lexicographic order of the walk's identifier sequence, giving
//!   the *canonical* shortest path the appendix prescribes (footnote 4
//!   allows any fixed criterion — ours is the numeric id order).
//! * **weighted shortest** — same search; PATH-view segments contribute
//!   their per-binding cost (validated positive at segment-build time,
//!   per the §3 run-time-error requirement).
//! * **reachability** — plain BFS over the product, no walks materialized.
//! * **ALL paths** — the graph projection of \[10\]: an element lies in the
//!   projection iff some accepting walk uses it, computed as forward ∩
//!   backward product reachability. Nothing is enumerated, which is what
//!   keeps `ALL` tractable.
//!
//! # Search strategy
//!
//! Every search keeps its product states `(node, NFA state)` by the
//! node's *position* in the graph ([`Positions`]: its slot in the node
//! store, ids ascending, so position order is id order). It expands them
//! through one step enumerator, which takes each edge step through the
//! graph's own
//! [`for_each_step_at`](PathPropertyGraph::for_each_step_at) (a per-label
//! CSR range when the graph has its read layout, an adjacency scan when
//! not); view segments are indexed by source and destination position.
//! On top of it sit three traversals, and each entry point is a thin
//! caller of one:
//!
//! * **The sweep** (`Sweep`) — the walk-free traversal: one visited set
//!   (per position, a bitmask of NFA states: one flat array of words),
//!   one frontier, advanced a level at
//!   a time or run to its fixpoint, under the searcher's NFA or its
//!   reversal ([`Nfa::reverse`], total: view segments are indexed by
//!   destination on first backward use), optionally confined to the
//!   states of an earlier sweep.
//!   [`reachable`](PathSearcher::reachable) is a forward fixpoint; the
//!   *cone* of states co-reachable to acceptance at given targets, which
//!   [`k_shortest`](PathSearcher::k_shortest) never leaves, is a backward
//!   fixpoint; [`reachable_pair`](PathSearcher::reachable_pair) advances
//!   a forward and a backward sweep, the smaller frontier first, until
//!   they meet; [`all_paths_from`](PathSearcher::all_paths_from) is one
//!   forward fixpoint, then per destination a backward fixpoint confined
//!   to it and one pass over the steps of the states both visited.
//! * **The ordered search** — [`k_shortest`](PathSearcher::k_shortest),
//!   the only search that materializes walks: frontier entries are
//!   parent pointers into an arena, replayed into walks on acceptance,
//!   popped in (cost, walk sequence, node, state) order. Every pop runs
//!   one admission → accept → expand body: a product state is admitted
//!   at most `k` times, counted in one array over `pos · |Q| + q` (a
//!   successor whose state is already full is never
//!   entered), and with targets the search stays inside their cone and
//!   stops once every target holds `k` walks. Two orderings feed it. A
//!   *unit-cost* search (a view-free automaton: every step is one edge)
//!   runs one hop per level and sorts each level once by (the dense rank
//!   of the parent's walk in its level, edge, node, state) — every walk
//!   of a level has the same length, so that is exactly the walk
//!   sequence order, and no walk is ever replayed to compare. A search
//!   over view segments runs a Dijkstra whose cost levels re-order
//!   through a heap of replayed walk sequences ("tie keys"), built only
//!   when a level really holds two or more entries.
//! * **The condensation** —
//!   [`reachable_many`](PathSearcher::reachable_many) answers
//!   reachability from many sources with one Tarjan pass over the
//!   product, whose states are numbered `pos · |Q| + q` (no intern map)
//!   and whose successor lists share one flat array: every state of a
//!   strongly connected component reaches the
//!   same destinations, so destination sets are accumulated once per
//!   component in reverse topological order, `Arc`-shared between
//!   components that add nothing of their own. The snapshot's closure
//!   cache keeps its answers per (graph, regex, view definitions).
//!
//! # Cancellation
//!
//! Every entry point returns a [`Result`]. A searcher counts the
//! frontier pops of all the searches it runs and polls the token
//! [`with_cancel`](PathSearcher::with_cancel) attached once per
//! [`CHECK_STRIDE`] of them; a fired token ends the search with
//! [`RuntimeError::Cancelled`](crate::error::RuntimeError) where it
//! stands — never a partial or empty answer.
//!
//! `tests/path_equivalence.rs` checks each against the unidirectional
//! search over the same graph without its read layout, or a brute-force
//! enumeration;
//! `tests/path_conformance.rs` pins the exact answers.

use crate::cancel::{CancelToken, CHECK_STRIDE};
use crate::error::Result;
use crate::regex::{Nfa, Sym};
use gcore_ppg::hash::{FxHashMap, FxHashSet};
use gcore_ppg::{EdgeId, NodeId, PathPropertyGraph, PathShape, Positions, StepDir};
use std::cell::{Cell, OnceCell};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::{Arc, OnceLock};

/// One pre-evaluated segment of a PATH view: a (src, dst) pair with the
/// positive cost of this traversal and the underlying walk.
#[derive(Clone, Debug)]
pub struct Segment {
    /// Segment source node.
    pub src: NodeId,
    /// Segment destination node.
    pub dst: NodeId,
    /// Cost of traversing the segment (positive).
    pub cost: f64,
    /// The concrete walk realizing the segment.
    pub walk: PathShape,
}

/// All segments of one PATH view over one graph, indexed by the source
/// and the destination position of each in that graph. Built once and
/// shared by `Arc` (see [`ViewMap`]): a snapshot keeps the relations of
/// views over its own graphs for every statement that defines the same
/// view again.
#[derive(Debug)]
pub struct ViewSegments {
    /// The segment relation, sorted by (src, dst).
    pub segments: Vec<Segment>,
    /// True when the view declares an explicit COST (so path costs are
    /// real-valued, not hop counts).
    pub weighted: bool,
    /// Per segment, its (source, destination) positions.
    ends: Vec<(u32, u32)>,
    /// Segments by source position `p`: `from[by_src[p]..by_src[p + 1]]`,
    /// each run in (dst, walk) order — the deterministic expansion order.
    by_src: Vec<u32>,
    from: Vec<u32>,
    /// Segments by destination position, the same way, ascending within
    /// a run — what a backward traversal expands through.
    by_dst: OnceLock<(Vec<u32>, Vec<u32>)>,
}

/// Offsets of the runs of `items`, sorted by `pos_of`, over `n`
/// positions: position `p`'s run is `items[offsets[p]..offsets[p + 1]]`.
fn runs(n: usize, items: &[u32], pos_of: impl Fn(u32) -> u32) -> Vec<u32> {
    let mut offsets = vec![0u32; n + 1];
    for &i in items {
        offsets[pos_of(i) as usize + 1] += 1;
    }
    for p in 0..n {
        offsets[p + 1] += offsets[p];
    }
    offsets
}

impl ViewSegments {
    /// Index a segment list over `graph`, whose nodes the segments join.
    ///
    /// ```
    /// use gcore::paths::{Segment, ViewSegments};
    /// use gcore_ppg::{Attributes, GraphBuilder, PathShape};
    ///
    /// let mut b = GraphBuilder::standalone();
    /// let (a, c) = (b.node(Attributes::new()), b.node(Attributes::new()));
    /// let e = b.edge(a, c, Attributes::labeled("knows"));
    /// let g = b.build();
    /// let walk = PathShape::new(vec![a, c], vec![e]).unwrap();
    /// let view = ViewSegments::new(
    ///     vec![Segment { src: a, dst: c, cost: 2.5, walk }],
    ///     true, // the view declares an explicit COST
    ///     &g,
    /// );
    /// assert!(view.weighted);
    /// assert_eq!(view.segments[0].src, a);
    /// ```
    pub fn new(segments: Vec<Segment>, weighted: bool, graph: &PathPropertyGraph) -> Self {
        let at = graph.positions();
        // A segment between nodes the graph lacks is never stepped over.
        let ends: Vec<(u32, u32)> = segments
            .iter()
            .map(|s| {
                at.of(s.src)
                    .zip(at.of(s.dst))
                    .unwrap_or((u32::MAX, u32::MAX))
            })
            .collect();
        let mut from: Vec<u32> = (0..segments.len() as u32)
            .filter(|&i| ends[i as usize].0 != u32::MAX)
            .collect();
        from.sort_by(|&a, &b| {
            let (sa, sb) = (&segments[a as usize], &segments[b as usize]);
            (ends[a as usize].0, sa.dst)
                .cmp(&(ends[b as usize].0, sb.dst))
                .then_with(|| sa.walk.cmp_interleaved(&sb.walk))
        });
        let by_src = runs(at.len(), &from, |i| ends[i as usize].0);
        ViewSegments {
            segments,
            weighted,
            ends,
            by_src,
            from,
            by_dst: OnceLock::new(),
        }
    }

    /// The segments starting at position `pos`.
    fn starting_at(&self, pos: u32) -> &[u32] {
        let p = pos as usize;
        &self.from[self.by_src[p] as usize..self.by_src[p + 1] as usize]
    }

    /// The segments ending at position `pos`, indexed on first use.
    fn ending_at(&self, pos: u32) -> &[u32] {
        let (by_dst, to) = self.by_dst.get_or_init(|| {
            let mut to = self.from.clone();
            to.sort_by_key(|&i| (self.ends[i as usize].1, i));
            (
                runs(self.by_src.len() - 1, &to, |i| self.ends[i as usize].1),
                to,
            )
        });
        let p = pos as usize;
        &to[by_dst[p] as usize..by_dst[p + 1] as usize]
    }
}

/// Named view segments available to a search.
pub type ViewMap = FxHashMap<String, Arc<ViewSegments>>;

/// A path found by the search.
#[derive(Clone, Debug)]
pub struct FoundPath {
    /// The walk found.
    pub walk: PathShape,
    /// Its total cost.
    pub cost: f64,
}

/// One ALL-paths projection: a destination, then the nodes and the
/// edges that lie on some accepting walk to it, ascending.
pub type Projection = (NodeId, Vec<NodeId>, Vec<EdgeId>);

/// A set of product states: per node position, a bitmask of NFA
/// states in `words` words of 64 — so a whole ε-closure is tested and
/// inserted a word at a time.
struct StateSet {
    words: usize,
    /// Bit `b` of `bits[pos · words + i]` is set iff `(pos, 64·i + b)` is
    /// a member.
    bits: Vec<u64>,
}

impl StateSet {
    /// The empty set over `nodes` positions and `nfa`'s states.
    fn new(nodes: usize, nfa: &Nfa) -> Self {
        let words = nfa.num_states().div_ceil(64).max(1);
        StateSet {
            words,
            bits: vec![0; nodes * words],
        }
    }

    #[inline]
    fn contains(&self, v: u32, q: usize) -> bool {
        self.bits[v as usize * self.words + q / 64] >> (q % 64) & 1 != 0
    }

    /// The members, by ascending position.
    fn iter(&self) -> impl Iterator<Item = (u32, usize)> + '_ {
        let words = self.words;
        let set = self.bits.iter().enumerate().filter(|(_, &w)| w != 0);
        set.flat_map(move |(j, &word)| {
            let (v, i) = ((j / words) as u32, j % words);
            // Peel the lowest set bit off the word until none is left.
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let state = 64 * i + rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    (v, state)
                })
            })
        })
    }

    /// The nodes with a member state the automaton accepts in, ascending.
    fn accepting_nodes(&self, nfa: &Nfa, at: &Positions) -> Vec<NodeId> {
        let mut accepting = vec![0u64; self.words];
        for q in (0..nfa.num_states()).filter(|&q| nfa.accepts(q)) {
            accepting[q / 64] |= 1 << (q % 64);
        }
        let per_node = self.bits.chunks_exact(self.words).enumerate();
        per_node
            .filter(|(_, ws)| ws.iter().zip(&accepting).any(|(w, a)| w & a != 0))
            .map(|(p, _)| at.id(p as u32))
            .collect()
    }
}

/// Scratch space of a node-dependent (ε + node-test) closure, kept by
/// its caller across calls so that closing a state allocates nothing
/// once warm.
#[derive(Default)]
struct Closer {
    seen: Vec<bool>,
    stack: Vec<usize>,
}

/// The walk-free traversal of the product of graph and automaton: one
/// visited set and one frontier of states entered but not yet expanded.
/// Seeded with [`seed`](Self::seed), then advanced one level at a time
/// or [`run`](Self::run) to its fixpoint.
struct Sweep<'s, 'a> {
    searcher: &'s PathSearcher<'a>,
    /// The searcher's automaton, or its reversal for a backward sweep.
    nfa: &'s Nfa,
    /// States outside this set are never entered (`None`: no bound).
    within: Option<&'s StateSet>,
    seen: StateSet,
    /// (position, state) pairs.
    frontier: Vec<(u32, usize)>,
    /// Words per position in `seen`, and every state's ε-closure as that
    /// many mask words.
    words: usize,
    eps: Vec<u64>,
    closer: Closer,
}

impl<'s, 'a> Sweep<'s, 'a> {
    fn new(searcher: &'s PathSearcher<'a>, nfa: &'s Nfa, within: Option<&'s StateSet>) -> Self {
        let seen = StateSet::new(searcher.at.len(), nfa);
        let words = seen.words;
        let mut eps = vec![0u64; nfa.num_states() * words];
        for s in 0..nfa.num_states() {
            for &c in nfa.closure(s) {
                eps[s * words + c / 64] |= 1 << (c % 64);
            }
        }
        Sweep {
            searcher,
            nfa,
            within,
            seen,
            frontier: Vec::new(),
            words,
            eps,
            closer: Closer::default(),
        }
    }

    /// Start from `state` at `node` (a node the graph lacks seeds
    /// nothing).
    fn seed(&mut self, node: NodeId, state: usize) {
        if let Some(pos) = self.searcher.at.of(node) {
            self.enter(pos, state);
        }
    }

    /// Arrive at `(w, t)`: every state of its ε+node-test closure not
    /// seen before joins the visited set and the frontier.
    fn enter(&mut self, w: u32, t: usize) {
        if self.nfa.has_node_tests() {
            let (searcher, nfa) = (self.searcher, self.nfa);
            let mut closer = std::mem::take(&mut self.closer);
            searcher.for_each_closed(nfa, w, t, &mut closer, |c| {
                self.admit(w, c / 64, 1 << (c % 64));
            });
            self.closer = closer;
        } else {
            for i in 0..self.words {
                self.admit(w, i, self.eps[t * self.words + i]);
            }
        }
    }

    /// Of the states `mask` selects in word `i` of position `w`, visit
    /// those that are within bounds and new.
    #[inline]
    fn admit(&mut self, w: u32, i: usize, mask: u64) {
        let j = w as usize * self.words + i;
        let bound = self.within.map_or(u64::MAX, |set| set.bits[j]);
        let word = &mut self.seen.bits[j];
        let mut new = mask & bound & !*word;
        *word |= new;
        while new != 0 {
            let state = 64 * i + new.trailing_zeros() as usize;
            self.frontier.push((w, state));
            new &= new - 1;
        }
    }

    /// Expand every state of the frontier; the states entered on the way
    /// are the next frontier. Stops early, returning `true`, once an
    /// expansion enters a state that `meets`.
    fn advance(&mut self, meets: impl Fn(u32, usize) -> bool) -> Result<bool> {
        let (searcher, nfa) = (self.searcher, self.nfa);
        for (v, q) in std::mem::take(&mut self.frontier) {
            searcher.tick()?;
            let entered = self.frontier.len();
            searcher.for_each_step(nfa, v, q, |_, w, t, _| self.enter(w, t));
            if self.frontier[entered..].iter().any(|&(w, c)| meets(w, c)) {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Advance until nothing new is entered; the visited set.
    fn run(mut self) -> Result<StateSet> {
        while !self.frontier.is_empty() {
            self.advance(|_, _| false)?;
        }
        Ok(self.seen)
    }
}

/// The per-product-state arrays of the iterative Tarjan SCC pass in
/// [`PathSearcher::reachable_many`], over the states `pos · |Q| + q`.
/// [`Tarjan::UNDEF`] marks unvisited (`index`) / unassigned (`comp`)
/// entries.
struct Tarjan {
    index: Vec<u32>,
    lowlink: Vec<u32>,
    comp: Vec<u32>,
    on_stack: Vec<bool>,
    /// The successors of every opened state, one run per state in
    /// opening order, kept for the condensation-DAG pass after the SCC
    /// assignment.
    succs: Vec<u32>,
    /// Every opened state with the start of its run in `succs`.
    opened: Vec<(u32, u32)>,
    /// The SCC candidate stack.
    stack: Vec<u32>,
    next_index: u32,
    comp_count: u32,
}

impl Tarjan {
    const UNDEF: u32 = u32::MAX;

    fn new(states: usize) -> Self {
        assert!(states < Self::UNDEF as usize, "product states are u32");
        Tarjan {
            index: vec![Self::UNDEF; states],
            lowlink: vec![Self::UNDEF; states],
            comp: vec![Self::UNDEF; states],
            on_stack: vec![false; states],
            succs: Vec::new(),
            opened: Vec::new(),
            stack: Vec::new(),
            next_index: 0,
            comp_count: 0,
        }
    }

    /// Open a DFS frame for `v`, whose successors `succs` holds from
    /// `start` on: number the state and push it on the SCC stack.
    fn open(&mut self, v: u32, start: usize) {
        let i = v as usize;
        self.index[i] = self.next_index;
        self.lowlink[i] = self.next_index;
        self.next_index += 1;
        self.on_stack[i] = true;
        self.stack.push(v);
        self.opened.push((v, start as u32));
    }

    /// Close `fin`'s DFS frame: fold its lowlink into `parent` and, if
    /// `fin` is an SCC root, pop the completed component — so component
    /// ids increase with completion (= reverse topological) order.
    fn close(&mut self, fin: u32, parent: Option<u32>) {
        let fi = fin as usize;
        if let Some(p) = parent {
            self.lowlink[p as usize] = self.lowlink[p as usize].min(self.lowlink[fi]);
        }
        if self.lowlink[fi] == self.index[fi] {
            loop {
                let w = self.stack.pop().expect("scc member");
                self.on_stack[w as usize] = false;
                self.comp[w as usize] = self.comp_count;
                if w == fin {
                    break;
                }
            }
            self.comp_count += 1;
        }
    }

    /// Every opened state with its successors.
    fn arcs(&self) -> impl Iterator<Item = (u32, &[u32])> + '_ {
        let ends = self.opened.iter().skip(1).map(|&(_, start)| start as usize);
        let ends = ends.chain([self.succs.len()]);
        let runs = self.opened.iter().zip(ends);
        runs.map(|(&(v, start), end)| (v, &self.succs[start as usize..end]))
    }
}

/// The walk contribution of one expansion step, borrowed where a walk
/// already exists (view segments) and by id where it would have to be
/// built (graph edges) — so walk-free searches pay nothing for it.
#[derive(Clone, Copy)]
enum StepPiece<'v> {
    /// A graph edge traversed to the step's far endpoint.
    Edge(EdgeId),
    /// A view segment's pre-built walk, traversed as stored or
    /// `backwards`, from its end to its start.
    Seg {
        walk: &'v PathShape,
        backwards: bool,
    },
}

/// Search driver over one graph + NFA + views. Each search either
/// answers in full or fails once the attached token fires (see the
/// [module docs](self)).
pub struct PathSearcher<'a> {
    graph: &'a PathPropertyGraph,
    /// The graph's node positions.
    at: Positions<'a>,
    nfa: &'a Nfa,
    views: &'a ViewMap,
    /// Does any referenced view carry real-valued costs?
    pub weighted: bool,
    /// Does the automaton name no view, so that every step is one edge
    /// of cost 1?
    unit_cost: bool,
    /// Polled once per [`CHECK_STRIDE`] frontier pops; a fresh token
    /// never fires.
    cancel: CancelToken,
    /// Lazily compiled reversal of `nfa`.
    rev: OnceCell<Nfa>,
    /// Frontier pops across every search this searcher ran: one count
    /// per product-state popped off a frontier (including condensation
    /// frames). The matcher reports it on `path-search` profile spans.
    pops: Cell<u64>,
    /// Walk sequences replayed to order a cost level of an ordered
    /// search over views; reported as `tie_keys`.
    tie_keys: Cell<u64>,
}

impl<'a> PathSearcher<'a> {
    /// Create a searcher; `weighted` is derived from the views referenced
    /// by the NFA.
    ///
    /// ```
    /// use gcore::paths::{PathSearcher, ViewMap};
    /// use gcore::regex::Nfa;
    /// use gcore_parser::ast::Regex;
    /// use gcore_ppg::{Attributes, GraphBuilder};
    ///
    /// let mut b = GraphBuilder::standalone();
    /// let ann = b.node(Attributes::labeled("Person"));
    /// let bob = b.node(Attributes::labeled("Person"));
    /// b.edge(ann, bob, Attributes::labeled("knows"));
    /// let g = b.build();
    ///
    /// let nfa = Nfa::compile(&Regex::Star(Box::new(Regex::Label("knows".into()))));
    /// let views = ViewMap::default();
    /// let searcher = PathSearcher::new(&g, &nfa, &views);
    /// assert!(!searcher.weighted); // no COST view in sight
    /// assert!(searcher.reachable(ann)?.contains(&bob));
    /// # Ok::<(), gcore::EngineError>(())
    /// ```
    pub fn new(graph: &'a PathPropertyGraph, nfa: &'a Nfa, views: &'a ViewMap) -> Self {
        let names = nfa.view_names();
        let weighted = names
            .iter()
            .any(|n| views.get(n).is_some_and(|v| v.weighted));
        let at = graph.positions();
        debug_assert!(
            names
                .iter()
                .filter_map(|n| views.get(n))
                .all(|v| v.by_src.len() == at.len() + 1),
            "a view is indexed over the searched graph's positions"
        );
        PathSearcher {
            graph,
            at,
            nfa,
            views,
            weighted,
            unit_cost: names.is_empty(),
            cancel: CancelToken::new(),
            rev: OnceCell::new(),
            pops: Cell::new(0),
            tie_keys: Cell::new(0),
        }
    }

    /// Total frontier pops across every search this searcher has run —
    /// the work measure `path-search` profile spans report as
    /// `frontier_pops`. Deterministic for a given (graph, NFA, views,
    /// query) under sequential evaluation.
    #[must_use]
    pub fn pops(&self) -> u64 {
        self.pops.get()
    }

    /// Tie keys (replayed walk sequences) the ordered searches of this
    /// searcher built — always 0 for a unit-cost automaton, whose levels
    /// are ordered by rank. `path-search` spans report it as `tie_keys`.
    #[must_use]
    pub fn tie_keys(&self) -> u64 {
        self.tie_keys.get()
    }

    /// Attach a cancellation token: every search polls it and fails
    /// with `E016` once it fires.
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// Count one frontier pop, and poll the token once per
    /// [`CHECK_STRIDE`] of them: the [`pops`](Self::pops) counter is the
    /// stride, so the profiling loop boundaries are exactly the
    /// cancellation ones, and a run of short searches is polled as often
    /// as one long one.
    #[inline]
    fn tick(&self) -> Result<()> {
        let pops = self.pops.get() + 1;
        self.pops.set(pops);
        if pops.is_multiple_of(u64::from(CHECK_STRIDE)) {
            self.cancel.check()
        } else {
            Ok(())
        }
    }

    /// The reversed NFA, compiled on first use.
    fn rev_nfa(&self) -> &Nfa {
        self.rev.get_or_init(|| self.nfa.reverse())
    }

    /// Apply `f` to every state of the ε+node-test closure of `state` at
    /// `node` under `nfa` (the searcher's own NFA or its reversal), in
    /// ascending order. Without node tests that is the precomputed
    /// ε-closure; with them the closure is computed in `closer`'s
    /// scratch space — no allocation either way.
    #[inline]
    fn for_each_closed(
        &self,
        nfa: &Nfa,
        node: u32,
        state: usize,
        closer: &mut Closer,
        mut f: impl FnMut(usize),
    ) {
        if !nfa.has_node_tests() {
            for &c in nfa.closure(state) {
                f(c);
            }
            return;
        }
        let Closer { seen, stack } = closer;
        seen.clear();
        seen.resize(nfa.num_states(), false);
        let mut enter = |c: usize, stack: &mut Vec<usize>| {
            if !seen[c] {
                seen[c] = true;
                stack.push(c);
            }
        };
        for &c in nfa.closure(state) {
            enter(c, stack);
        }
        while let Some(q) = stack.pop() {
            for (sym, to) in nfa.transitions(q) {
                if let Sym::NodeTest(l) = sym {
                    if self.graph.has_label(self.at.id(node).into(), *l) {
                        for &c in nfa.closure(*to) {
                            enter(c, stack);
                        }
                    }
                }
            }
        }
        for (c, &closed) in seen.iter().enumerate() {
            if closed {
                f(c);
            }
        }
    }

    /// Enumerate every expansion step of `(node, q)` under `nfa`, between
    /// positions: `f(cost, next_node, next_state, piece)` is called once
    /// per (graph step × target state). The single place a symbol
    /// becomes steps; the next state is not yet closed.
    fn for_each_step(
        &self,
        nfa: &Nfa,
        node: u32,
        q: usize,
        mut f: impl FnMut(f64, u32, usize, StepPiece<'a>),
    ) {
        for (sym, tos) in nfa.grouped_transitions(q) {
            let (dir, label) = match sym {
                Sym::NodeTest(_) => continue, // handled by closure
                Sym::Label(l) => (StepDir::Out, Some(*l)),
                Sym::LabelInv(l) => (StepDir::In, Some(*l)),
                Sym::Wildcard => (StepDir::Both, None),
                Sym::View(name) | Sym::ViewInv(name) => {
                    let Some(view) = self.views.get(name) else {
                        continue;
                    };
                    let backwards = matches!(sym, Sym::ViewInv(_));
                    let idxs = if backwards {
                        view.ending_at(node)
                    } else {
                        view.starting_at(node)
                    };
                    for &i in idxs {
                        let (src, dst) = view.ends[i as usize];
                        let far = if backwards { src } else { dst };
                        let seg = &view.segments[i as usize];
                        let walk = &seg.walk;
                        for &to in tos {
                            f(seg.cost, far, to, StepPiece::Seg { walk, backwards });
                        }
                    }
                    continue;
                }
            };
            self.graph.for_each_step_at(node, dir, label, |e, far| {
                for &to in tos {
                    f(1.0, far, to, StepPiece::Edge(e));
                }
            });
        }
    }

    /// The product states co-reachable to acceptance at one of `targets`
    /// (among those of `within`, when given) — the backward "cone" a
    /// forward search may restrict itself to.
    fn co_reachable_cone(
        &self,
        targets: impl IntoIterator<Item = NodeId>,
        within: Option<&StateSet>,
    ) -> Result<StateSet> {
        let rev = self.rev_nfa();
        let mut sweep = Sweep::new(self, rev, within);
        for d in targets {
            sweep.seed(d, rev.start());
        }
        sweep.run()
    }

    /// Up to `k` cheapest accepting walks from `src` to every reachable
    /// destination (or only `targets`, when given). Walks are returned
    /// grouped by destination, cheapest (and lexicographically first)
    /// first.
    ///
    /// When `targets` are given, the search first computes the backward
    /// cone of product states co-reachable to acceptance at a target,
    /// never expands outside it and stops once every target holds `k`
    /// walks; results are identical to the unrestricted search filtered
    /// to `targets`. Fails only when the searcher's token fires.
    ///
    /// ```
    /// use gcore::paths::{PathSearcher, ViewMap};
    /// use gcore::regex::Nfa;
    /// use gcore_parser::ast::Regex;
    /// use gcore_ppg::{Attributes, GraphBuilder};
    ///
    /// let mut b = GraphBuilder::standalone();
    /// let a = b.node(Attributes::labeled("Person"));
    /// let c = b.node(Attributes::labeled("Person"));
    /// b.edge(a, c, Attributes::labeled("knows"));
    /// let g = b.build();
    ///
    /// let nfa = Nfa::compile(&Regex::Plus(Box::new(Regex::Label("knows".into()))));
    /// let views = ViewMap::default();
    /// let s = PathSearcher::new(&g, &nfa, &views);
    /// let found = s.k_shortest(a, 1, None)?;
    /// assert_eq!(found[&c][0].cost, 1.0); // one hop, unit edge costs
    /// assert_eq!(found[&c][0].walk.length(), 1);
    /// # Ok::<(), gcore::EngineError>(())
    /// ```
    pub fn k_shortest(
        &self,
        src: NodeId,
        k: usize,
        targets: Option<&FxHashSet<NodeId>>,
    ) -> Result<FxHashMap<NodeId, Vec<FoundPath>>> {
        let src = match self.at.of(src) {
            Some(pos) if k > 0 && !targets.is_some_and(FxHashSet::is_empty) => pos,
            _ => return Ok(FxHashMap::default()),
        };
        // Backward cone: with concrete targets, restrict the forward
        // search to states that can still reach acceptance at a target.
        // States outside cannot contribute any accepting walk, so results
        // — tie-breaking included — are those of the unrestricted search.
        let mut search = Ordered {
            searcher: self,
            k,
            targets,
            cone: targets
                .map(|t| self.co_reachable_cone(t.iter().copied(), None))
                .transpose()?,
            arena: Vec::new(),
            states: self.nfa.num_states(),
            pops: vec![0; self.at.len() * self.nfa.num_states()],
            results: FxHashMap::default(),
            answered: 0,
            closer: Closer::default(),
        };
        // Seed: closure of the start state at src, one entry per closed
        // state so accepting-at-zero-length works.
        search.push(NO_PARENT, None, src, self.nfa.start(), 0.0);
        if self.unit_cost {
            search.by_levels()?;
        } else {
            search.by_cost()?;
        }
        let mut results = search.results;
        for bucket in results.values_mut() {
            bucket.sort_by(|a, b| {
                a.cost
                    .total_cmp(&b.cost)
                    .then_with(|| a.walk.cmp_interleaved(&b.walk))
            });
        }
        Ok(results)
    }

    /// Destinations reachable from `src` via an accepting walk —
    /// the reachability-test semantics of `-/<r>/->` without a variable.
    /// Fails only when the searcher's token fires.
    ///
    /// ```
    /// use gcore::paths::{PathSearcher, ViewMap};
    /// use gcore::regex::Nfa;
    /// use gcore_parser::ast::Regex;
    /// use gcore_ppg::{Attributes, GraphBuilder};
    ///
    /// let mut b = GraphBuilder::standalone();
    /// let a = b.node(Attributes::labeled("Person"));
    /// let c = b.node(Attributes::labeled("Person"));
    /// b.edge(a, c, Attributes::labeled("knows"));
    /// let g = b.build();
    ///
    /// let nfa = Nfa::compile(&Regex::Star(Box::new(Regex::Label("knows".into()))));
    /// let views = ViewMap::default();
    /// let s = PathSearcher::new(&g, &nfa, &views);
    /// assert_eq!(s.reachable(a)?, vec![a, c]); // knows* reaches a itself too
    /// # Ok::<(), gcore::EngineError>(())
    /// ```
    pub fn reachable(&self, src: NodeId) -> Result<Vec<NodeId>> {
        Ok(self.forward_from(src)?.accepting_nodes(self.nfa, &self.at))
    }

    /// Every product state a walk from `src` reaches.
    fn forward_from(&self, src: NodeId) -> Result<StateSet> {
        let mut sweep = Sweep::new(self, self.nfa, None);
        sweep.seed(src, self.nfa.start());
        sweep.run()
    }

    /// Single-pair reachability: is there an accepting walk from `src`
    /// to `dst`? Runs a bidirectional search — a forward sweep from `src`
    /// and a backward one, over the reversed NFA, from `dst`, advancing
    /// whichever has the smaller frontier — and stops at the first
    /// product state both have visited. `Ok(false)` means no accepting
    /// walk exists; a fired token is an error.
    pub fn reachable_pair(&self, src: NodeId, dst: NodeId) -> Result<bool> {
        let rev = self.rev_nfa();
        let mut fwd = Sweep::new(self, self.nfa, None);
        let mut bwd = Sweep::new(self, rev, None);
        fwd.seed(src, self.nfa.start());
        bwd.seed(dst, rev.start());
        // Acceptance can already hold at length zero.
        if bwd.frontier.iter().any(|&(v, q)| fwd.seen.contains(v, q)) {
            return Ok(true);
        }
        // An exhausted side has explored everything it reaches without
        // meeting the other: no accepting walk exists.
        while !fwd.frontier.is_empty() && !bwd.frontier.is_empty() {
            let met = if fwd.frontier.len() <= bwd.frontier.len() {
                fwd.advance(|v, q| bwd.seen.contains(v, q))?
            } else {
                bwd.advance(|v, q| fwd.seen.contains(v, q))?
            };
            if met {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Reachability from many sources at once, sharing one product
    /// exploration: the product digraph is condensed into strongly
    /// connected components (Tarjan), per-component accepting-node sets
    /// are accumulated once in reverse topological order (`Arc`-shared
    /// where a component adds nothing of its own), and each source then
    /// reads its answer off its seed components.
    ///
    /// Returns, per source, exactly [`reachable`](Self::reachable) of
    /// that source (`Arc`-shared: sources whose seed states land in the
    /// same component share one allocation). This is the shared-frontier
    /// strategy the matcher uses for `MATCH (x)-/<r>/->(y)` shapes that
    /// seed many sources. Fails only when the searcher's token fires:
    /// a half-run condensation has no answer for any source.
    pub fn reachable_many(
        &self,
        sources: &[NodeId],
    ) -> Result<FxHashMap<NodeId, Arc<Vec<NodeId>>>> {
        let (nfa, at) = (self.nfa, &self.at);
        let width = nfa.num_states();
        let mut ts = Tarjan::new(at.len() * width);
        let mut closer = Closer::default();

        // Seed states per distinct source the graph holds.
        let mut distinct = sources.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        let mut seeds_of: Vec<(NodeId, Vec<u32>)> = Vec::new();
        for src in distinct {
            let Some(pos) = at.of(src) else {
                continue;
            };
            let mut seeds: Vec<u32> = Vec::new();
            self.for_each_closed(nfa, pos, nfa.start(), &mut closer, |q| {
                seeds.push(pos * width as u32 + q as u32);
            });
            seeds_of.push((src, seeds));
        }

        // Open a DFS frame for product state `s`: its (sorted,
        // deduplicated) closed successors become its run in `ts.succs`.
        struct Frame {
            v: u32,
            next: usize,
            end: usize,
        }
        let mut scratch: Vec<u32> = Vec::new();
        let mut open = |ts: &mut Tarjan, frames: &mut Vec<Frame>, s: u32| {
            let (v, q) = (s / width as u32, s as usize % width);
            scratch.clear();
            self.for_each_step(nfa, v, q, |_, w, t, _| {
                self.for_each_closed(nfa, w, t, &mut closer, |c| {
                    scratch.push(w * width as u32 + c as u32);
                });
            });
            scratch.sort_unstable();
            scratch.dedup();
            let start = ts.succs.len();
            ts.succs.extend_from_slice(&scratch);
            ts.open(s, start);
            let end = ts.succs.len();
            frames.push(Frame {
                v: s,
                next: start,
                end,
            });
        };

        // Iterative Tarjan over the implicit product digraph.
        let mut frames: Vec<Frame> = Vec::new();
        for &root in seeds_of.iter().flat_map(|(_, seeds)| seeds) {
            if ts.index[root as usize] != Tarjan::UNDEF {
                continue;
            }
            open(&mut ts, &mut frames, root);
            while let Some(fr) = frames.last_mut() {
                self.tick()?;
                let v = fr.v as usize;
                if fr.next < fr.end {
                    let w = ts.succs[fr.next] as usize;
                    fr.next += 1;
                    if ts.index[w] == Tarjan::UNDEF {
                        open(&mut ts, &mut frames, w as u32);
                    } else if ts.on_stack[w] {
                        ts.lowlink[v] = ts.lowlink[v].min(ts.index[w]);
                    }
                } else {
                    let fin = frames.pop().expect("frame present").v;
                    ts.close(fin, frames.last().map(|f| f.v));
                }
            }
        }

        // Per-component accepting nodes, then the condensation DAG.
        // Component ids increase with completion order, so every
        // successor component of `c` has an id `< c` and one ascending
        // pass accumulates full destination sets.
        let ncomp = ts.comp_count as usize;
        let comp = &ts.comp;
        let mut own: Vec<Vec<NodeId>> = vec![Vec::new(); ncomp];
        let mut children: Vec<Vec<u32>> = vec![Vec::new(); ncomp];
        for (s, succs) in ts.arcs() {
            let c = comp[s as usize];
            if nfa.accepts(s as usize % width) {
                own[c as usize].push(at.id(s / width as u32));
            }
            for &w in succs {
                if comp[w as usize] != c {
                    children[c as usize].push(comp[w as usize]);
                }
            }
        }
        let mut sets: Vec<Arc<Vec<NodeId>>> = Vec::with_capacity(ncomp);
        for c in 0..ncomp {
            children[c].sort_unstable();
            children[c].dedup();
            let own_c = &mut own[c];
            if own_c.is_empty() && children[c].len() == 1 {
                // Nothing of this component's own — share the child set.
                sets.push(sets[children[c][0] as usize].clone());
                continue;
            }
            let mut merged: Vec<NodeId> = std::mem::take(own_c);
            for &ch in &children[c] {
                merged.extend_from_slice(&sets[ch as usize]);
            }
            merged.sort_unstable();
            merged.dedup();
            sets.push(Arc::new(merged));
        }

        // Answer per source: union over its seed components.
        let mut out: FxHashMap<NodeId, Arc<Vec<NodeId>>> = FxHashMap::default();
        for (src, seeds) in seeds_of {
            let mut comps: Vec<u32> = seeds.iter().map(|&s| comp[s as usize]).collect();
            comps.sort_unstable();
            comps.dedup();
            let set: Arc<Vec<NodeId>> = match comps.as_slice() {
                [c] => sets[*c as usize].clone(),
                cs => {
                    let mut v = Vec::new();
                    for &c in cs {
                        v.extend_from_slice(&sets[c as usize]);
                    }
                    v.sort_unstable();
                    v.dedup();
                    Arc::new(v)
                }
            };
            out.insert(src, set);
        }
        // Sources that are not graph nodes reach nothing.
        for &src in sources {
            out.entry(src).or_default();
        }
        Ok(out)
    }

    /// The ALL-paths projections from `src`, as `(dst, nodes, edges)` in
    /// ascending `dst` order: one for every destination an accepting walk
    /// reaches (among `targets`, when given).
    ///
    /// An element lies on an accepting walk to `dst` iff a step between
    /// two states that are reachable from `src` *and* co-reachable to
    /// acceptance at `dst` traverses it. The forward sweep is shared by
    /// all destinations; each destination adds a backward sweep confined
    /// to the forward states and one pass over the steps of the states
    /// both visited. Fails only when the searcher's token fires.
    ///
    /// ```
    /// use gcore::paths::{PathSearcher, ViewMap};
    /// use gcore::regex::Nfa;
    /// use gcore_parser::ast::Regex;
    /// use gcore_ppg::{Attributes, GraphBuilder};
    ///
    /// let mut b = GraphBuilder::standalone();
    /// let a = b.node(Attributes::labeled("Person"));
    /// let c = b.node(Attributes::labeled("Person"));
    /// let e = b.edge(a, c, Attributes::labeled("knows"));
    /// let g = b.build();
    ///
    /// let nfa = Nfa::compile(&Regex::Star(Box::new(Regex::Label("knows".into()))));
    /// let views = ViewMap::default();
    /// let s = PathSearcher::new(&g, &nfa, &views);
    /// let only_c = [c].into_iter().collect();
    /// let found = s.all_paths_from(a, Some(&only_c))?;
    /// assert_eq!(found, vec![(c, vec![a, c], vec![e])]); // the one walk
    /// let only_a = [a].into_iter().collect();
    /// assert!(s.all_paths_from(c, Some(&only_a))?.is_empty()); // no backward walk
    /// # Ok::<(), gcore::EngineError>(())
    /// ```
    pub fn all_paths_from(
        &self,
        src: NodeId,
        targets: Option<&FxHashSet<NodeId>>,
    ) -> Result<Vec<Projection>> {
        let fwd = self.forward_from(src)?;
        let mut dsts = fwd.accepting_nodes(self.nfa, &self.at);
        dsts.retain(|d| targets.is_none_or(|t| t.contains(d)));
        let projection = |dst: NodeId| {
            let on_walk = self.co_reachable_cone([dst], Some(&fwd))?;
            let mut nodes = vec![src, dst];
            let mut edges: Vec<EdgeId> = Vec::new();
            for (v, q) in on_walk.iter() {
                // `on_walk` is closed backwards under ε, so the unclosed
                // next state is in it iff any state of its closure is.
                self.for_each_step(self.nfa, v, q, |_, far, to, piece| {
                    if !on_walk.contains(far, to) {
                        return;
                    }
                    match piece {
                        StepPiece::Edge(e) => {
                            nodes.push(self.at.id(far));
                            edges.push(e);
                        }
                        StepPiece::Seg { walk, .. } => {
                            nodes.extend_from_slice(walk.nodes());
                            edges.extend_from_slice(walk.edges());
                        }
                    }
                });
            }
            nodes.sort_unstable();
            nodes.dedup();
            edges.sort_unstable();
            edges.dedup();
            Ok((dst, nodes, edges))
        };
        dsts.into_iter().map(projection).collect()
    }
}

/// One node of the ordered search tree: a parent pointer plus the single
/// piece appended over the parent's walk — O(1) memory per pending entry
/// regardless of walk length. Full walks are replayed from the chain
/// only on acceptance ([`replay_walk`]).
#[derive(Clone, Copy)]
struct TreeEntry<'v> {
    parent: u32,
    /// The step taken from the parent to `node`; `None` for a seed entry
    /// — the trivial walk at the source node.
    piece: Option<StepPiece<'v>>,
    /// The position of the walk's last node.
    node: u32,
    state: usize,
    cost: f64,
    /// Unit-cost levels only: the dense rank of this entry's walk among
    /// the walks of its level (equal walks, equal rank).
    rank: u32,
}

/// Parent index marking a search-tree root.
const NO_PARENT: u32 = u32::MAX;

/// A sort key of a unit-cost level: (parent's rank, edge, node position,
/// state), then the arena index, which only makes the order total.
type LevelKey = (u32, u64, u32, usize, u32);

/// The state of one [`k_shortest`](PathSearcher::k_shortest) search: the
/// search tree, the per-state pop counts, the answers so far. Both level
/// orderings ([`by_levels`](Self::by_levels), [`by_cost`](Self::by_cost))
/// hand every pop to the one [`visit`](Self::visit).
struct Ordered<'s, 'a> {
    searcher: &'s PathSearcher<'a>,
    k: usize,
    targets: Option<&'s FxHashSet<NodeId>>,
    /// States co-reachable to acceptance at a target (`None`: no targets).
    cone: Option<StateSet>,
    arena: Vec<TreeEntry<'a>>,
    /// |Q|, the stride of `pops`.
    states: usize,
    /// Times each product state `pos · |Q| + q` was admitted; never
    /// above `k`.
    pops: Vec<u32>,
    results: FxHashMap<NodeId, Vec<FoundPath>>,
    /// Targets whose bucket holds `k` walks.
    answered: usize,
    closer: Closer,
}

impl<'a> Ordered<'_, 'a> {
    /// Enter `(node, to)` from `parent` over `piece` at `cost`: one arena
    /// entry per state of the closure that lies in the cone and has not
    /// been admitted `k` times already — a pop of a full state would be
    /// turned away, so it is never queued.
    fn push(&mut self, parent: u32, piece: Option<StepPiece<'a>>, node: u32, to: usize, cost: f64) {
        let Ordered {
            searcher,
            k,
            cone,
            states,
            pops,
            arena,
            closer,
            ..
        } = self;
        let popped = &pops[node as usize * *states..][..*states];
        searcher.for_each_closed(searcher.nfa, node, to, closer, |state| {
            let in_cone = cone.as_ref().is_none_or(|c| c.contains(node, state));
            if in_cone && (popped[state] as usize) < *k {
                arena.push(TreeEntry {
                    parent,
                    piece,
                    node,
                    state,
                    cost,
                    rank: 0,
                });
            }
        });
    }

    /// One pop: admit entry `idx` if its product state has been admitted
    /// fewer than `k` times, accept its walk if the state accepts at a
    /// wanted node, and push its successors (appended to the arena).
    /// Returns `true` once every target holds `k` walks — nothing still
    /// queued could change the answer.
    fn visit(&mut self, idx: u32) -> bool {
        let TreeEntry {
            node, state, cost, ..
        } = self.arena[idx as usize];
        let count = &mut self.pops[node as usize * self.states + state];
        if *count as usize >= self.k {
            return false;
        }
        *count += 1;
        // An accepted pop at (v, accepting q) yields a result for v; the
        // same walk may be reported through several states — dedup.
        let (nfa, at) = (self.searcher.nfa, &self.searcher.at);
        let id = at.id(node);
        if nfa.accepts(state) && self.targets.is_none_or(|t| t.contains(&id)) {
            let bucket = self.results.entry(id).or_default();
            if bucket.len() < self.k {
                let walk = replay_walk(&self.arena, idx, at);
                if !bucket.iter().any(|p| p.walk == walk) {
                    bucket.push(FoundPath { walk, cost });
                    if bucket.len() == self.k {
                        if let Some(t) = self.targets {
                            self.answered += 1;
                            if self.answered == t.len() {
                                return true;
                            }
                        }
                    }
                }
            }
        }
        let searcher = self.searcher;
        searcher.for_each_step(nfa, node, state, |step_cost, far, to, piece| {
            // A segment whose walk does not begin at the current node
            // cannot be appended to the walk so far.
            if let StepPiece::Seg { walk, backwards } = piece {
                let begins = if backwards { walk.end() } else { walk.start() };
                if begins != id {
                    return;
                }
            }
            self.push(idx, Some(piece), far, to, cost + step_cost);
        });
        false
    }

    /// The unit-cost ordering: every step is one edge of cost 1, so the
    /// entries of cost `L` are exactly the children of those of cost
    /// `L − 1`, and all their walks have length `L`. Two such walks
    /// compare as their parents' walks, then as the (edge, node) they
    /// append — so sorting a level by (parent's rank, edge, node, state)
    /// is the (sequence, node, state) order of the cost-ordered search,
    /// and ranking it densely on (parent's rank, edge, node) makes equal
    /// walks tie at the next level exactly as they should.
    fn by_levels(&mut self) -> Result<()> {
        let mut level: Vec<LevelKey> = (0..self.arena.len() as u32)
            .map(|i| self.level_key(i))
            .collect();
        while !level.is_empty() {
            level.sort_unstable();
            let mut next: Vec<LevelKey> = Vec::new();
            let mut rank = 0u32;
            let mut prev = None;
            for &(parent_rank, edge, node, _, idx) in &level {
                let walk = (parent_rank, edge, node);
                rank += u32::from(prev.is_some_and(|p| p != walk));
                prev = Some(walk);
                self.arena[idx as usize].rank = rank;
                self.searcher.tick()?;
                let children = self.arena.len() as u32;
                if self.visit(idx) {
                    return Ok(());
                }
                next.extend((children..self.arena.len() as u32).map(|i| self.level_key(i)));
            }
            level = next;
        }
        Ok(())
    }

    fn level_key(&self, idx: u32) -> LevelKey {
        let e = &self.arena[idx as usize];
        let (parent_rank, edge) = match e.piece {
            None => (0, 0),
            Some(StepPiece::Edge(id)) => (self.arena[e.parent as usize].rank, id.raw()),
            Some(StepPiece::Seg { .. }) => unreachable!("a unit-cost automaton names no view"),
        };
        (parent_rank, edge, e.node, e.state, idx)
    }

    /// The cost ordering, for automata over view segments: a Dijkstra
    /// whose outer heap orders pending entries by cost alone; every entry
    /// of a cost level then moves into the tie heap, which re-orders them
    /// by replayed walk sequence, before any is visited. A level of one
    /// entry needs no tie key.
    fn by_cost(&mut self) -> Result<()> {
        let mut outer: BinaryHeap<CostOrd> = (0..self.arena.len() as u32)
            .map(|idx| CostOrd { cost: 0.0, idx })
            .collect();
        let mut batch: BinaryHeap<TieOrd> = BinaryHeap::new();
        while let Some(first) = outer.pop() {
            let level = first.cost;
            let mut single = Some(first.idx);
            while outer
                .peek()
                .is_some_and(|e| e.cost.total_cmp(&level) == Ordering::Equal)
            {
                let e = outer.pop().expect("peeked non-empty");
                if let Some(idx) = single.take() {
                    batch.push(self.tie_entry(idx));
                }
                batch.push(self.tie_entry(e.idx));
            }
            while let Some(idx) = single.take().or_else(|| batch.pop().map(|t| t.idx)) {
                self.searcher.tick()?;
                let children = self.arena.len();
                if self.visit(idx) {
                    return Ok(());
                }
                for child in children..self.arena.len() {
                    let (cost, idx) = (self.arena[child].cost, child as u32);
                    if cost.total_cmp(&level) == Ordering::Equal {
                        // Zero-cost steps join the live level: the
                        // child's sequence strictly extends its parent's,
                        // so it orders after everything already popped at
                        // this cost.
                        batch.push(self.tie_entry(idx));
                    } else {
                        outer.push(CostOrd { cost, idx });
                    }
                }
            }
        }
        Ok(())
    }

    /// Materialize the tie key (the walk's interleaved id sequence) of
    /// one arena entry by replaying its parent chain, leaf first.
    fn tie_entry(&self, idx: u32) -> TieOrd {
        let searcher = self.searcher;
        searcher.tie_keys.set(searcher.tie_keys.get() + 1);
        let mut seq: Vec<u64> = Vec::new();
        for entry in ancestry(&self.arena, idx) {
            let node = searcher.at.id(entry.node).raw();
            match entry.piece {
                None => seq.push(node),
                Some(StepPiece::Edge(e)) => seq.extend([node, e.raw()]),
                Some(StepPiece::Seg { walk, backwards }) => {
                    // The segment's ids past its first, read backwards.
                    let len = walk.nodes().len() + walk.edges().len() - 1;
                    if backwards {
                        seq.extend(walk.interleaved_ids().take(len));
                    } else {
                        seq.extend(walk.interleaved_ids().rev().take(len));
                    }
                }
            }
        }
        seq.reverse();
        let e = &self.arena[idx as usize];
        TieOrd {
            seq,
            node: e.node,
            state: e.state,
            idx,
        }
    }
}

/// The entries from `idx` up to its search-tree root.
fn ancestry<'t, 'v>(
    arena: &'t [TreeEntry<'v>],
    idx: u32,
) -> impl Iterator<Item = &'t TreeEntry<'v>> {
    let mut next = idx;
    std::iter::from_fn(move || {
        (next != NO_PARENT).then(|| {
            let e = &arena[next as usize];
            next = e.parent;
            e
        })
    })
}

/// Replay the full walk of one accepted arena entry, leaf first.
fn replay_walk(arena: &[TreeEntry<'_>], idx: u32, at: &Positions) -> PathShape {
    let (mut nodes, mut edges) = (Vec::new(), Vec::new());
    for entry in ancestry(arena, idx) {
        match entry.piece {
            None => nodes.push(at.id(entry.node)),
            Some(StepPiece::Edge(e)) => {
                nodes.push(at.id(entry.node));
                edges.push(e);
            }
            Some(StepPiece::Seg { walk, backwards }) => {
                let (ns, es) = (walk.nodes(), walk.edges());
                if backwards {
                    nodes.extend(&ns[..ns.len() - 1]);
                    edges.extend(es);
                } else {
                    nodes.extend(ns[1..].iter().rev());
                    edges.extend(es.iter().rev());
                }
            }
        }
    }
    nodes.reverse();
    edges.reverse();
    PathShape::new(nodes, edges).expect("chained pieces meet by construction")
}

/// Outer-heap entry of the cost ordering: min-orders pending entries by
/// cost alone. Same-cost entries re-order through the tie heap before
/// any is visited, so the arena-index tiebreak here only makes the order
/// total — it is never observable.
struct CostOrd {
    cost: f64,
    idx: u32,
}

impl PartialEq for CostOrd {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for CostOrd {}
impl PartialOrd for CostOrd {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for CostOrd {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap.
        other
            .cost
            .total_cmp(&self.cost)
            .then_with(|| other.idx.cmp(&self.idx))
    }
}

/// Tie-heap entry: min-orders one cost level by (interleaved sequence,
/// node, state), the order the ordered search pops in.
struct TieOrd {
    seq: Vec<u64>,
    /// Position order is id order.
    node: u32,
    state: usize,
    idx: u32,
}

impl TieOrd {
    fn key_cmp(&self, other: &Self) -> Ordering {
        self.seq
            .cmp(&other.seq)
            .then_with(|| self.node.cmp(&other.node))
            .then_with(|| self.state.cmp(&other.state))
    }
}

impl PartialEq for TieOrd {
    fn eq(&self, other: &Self) -> bool {
        self.key_cmp(other) == Ordering::Equal
    }
}
impl Eq for TieOrd {}
impl PartialOrd for TieOrd {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TieOrd {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap.
        other.key_cmp(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcore_parser::ast::Regex;
    use gcore_ppg::Attributes;

    fn n(i: u64) -> NodeId {
        NodeId(i)
    }

    fn step(from: NodeId, e: EdgeId, to: NodeId) -> PathShape {
        PathShape::new(vec![from, to], vec![e]).expect("two nodes, one edge")
    }

    /// A small knows-chain: 1→2→3→4, plus a shortcut 1→3 labeled likes,
    /// and a reverse edge 3→2.
    fn chain() -> PathPropertyGraph {
        let mut g = PathPropertyGraph::new();
        for i in 1..=4 {
            g.add_node(n(i), Attributes::labeled("Person"));
        }
        g.add_edge(EdgeId(10), n(1), n(2), Attributes::labeled("knows"))
            .unwrap();
        g.add_edge(EdgeId(11), n(2), n(3), Attributes::labeled("knows"))
            .unwrap();
        g.add_edge(EdgeId(12), n(3), n(4), Attributes::labeled("knows"))
            .unwrap();
        g.add_edge(EdgeId(13), n(1), n(3), Attributes::labeled("likes"))
            .unwrap();
        g.add_edge(EdgeId(14), n(3), n(2), Attributes::labeled("knows"))
            .unwrap();
        g
    }

    fn knows_star() -> Nfa {
        Nfa::compile(&Regex::Star(Box::new(Regex::Label("knows".into()))))
    }

    #[test]
    fn shortest_path_unit_costs() {
        let g = chain();
        let nfa = knows_star();
        let views = ViewMap::default();
        let s = PathSearcher::new(&g, &nfa, &views);
        let found = s.k_shortest(n(1), 1, None).unwrap();
        // 1 reaches 1 (length 0), 2, 3, 4 over knows*
        assert_eq!(found[&n(1)][0].cost, 0.0);
        assert_eq!(found[&n(2)][0].cost, 1.0);
        assert_eq!(found[&n(3)][0].cost, 2.0);
        assert_eq!(found[&n(4)][0].cost, 3.0);
        // canonical path to 3 goes through edge 10, 11
        assert_eq!(found[&n(3)][0].walk.interleaved(), vec![1, 10, 2, 11, 3]);
    }

    #[test]
    fn k_shortest_finds_alternatives() {
        let g = chain();
        let nfa = knows_star();
        let views = ViewMap::default();
        let s = PathSearcher::new(&g, &nfa, &views);
        let found = s.k_shortest(n(1), 3, None).unwrap();
        // Walks to node 2: [1,10,2] (len 1), [1,10,2,11,3,14,2] (len 3), …
        let to2 = &found[&n(2)];
        assert!(to2.len() >= 2);
        assert_eq!(to2[0].cost, 1.0);
        assert!(to2[1].cost > to2[0].cost);
        // all distinct
        for i in 1..to2.len() {
            assert_ne!(to2[i - 1].walk, to2[i].walk);
        }
    }

    #[test]
    fn reachability_matches_shortest_domains() {
        let g = chain();
        let nfa = knows_star();
        let views = ViewMap::default();
        let s = PathSearcher::new(&g, &nfa, &views);
        assert_eq!(s.reachable(n(1)).unwrap(), vec![n(1), n(2), n(3), n(4)]);
        assert_eq!(s.reachable(n(4)).unwrap(), vec![n(4)]);
    }

    #[test]
    fn targets_restrict_results() {
        let g = chain();
        let nfa = knows_star();
        let views = ViewMap::default();
        let s = PathSearcher::new(&g, &nfa, &views);
        let mut t = FxHashSet::default();
        t.insert(n(4));
        let found = s.k_shortest(n(1), 1, Some(&t)).unwrap();
        assert_eq!(found.len(), 1);
        assert!(found.contains_key(&n(4)));
    }

    #[test]
    fn inverse_labels_travel_backwards() {
        let g = chain();
        // (:knows-)* from node 4 reaches 3, 2, 1
        let nfa = Nfa::compile(&Regex::Star(Box::new(Regex::LabelInv("knows".into()))));
        let views = ViewMap::default();
        let s = PathSearcher::new(&g, &nfa, &views);
        let r = s.reachable(n(4)).unwrap();
        assert!(r.contains(&n(1)) && r.contains(&n(2)) && r.contains(&n(3)));
    }

    #[test]
    fn all_paths_projection_contains_both_routes() {
        let mut g = chain();
        // add a second knows route 1→5→3
        g.add_node(n(5), Attributes::labeled("Person"));
        g.add_edge(EdgeId(15), n(1), n(5), Attributes::labeled("knows"))
            .unwrap();
        g.add_edge(EdgeId(16), n(5), n(3), Attributes::labeled("knows"))
            .unwrap();
        let nfa = knows_star();
        let views = ViewMap::default();
        let s = PathSearcher::new(&g, &nfa, &views);
        let only = |d: u64| [n(d)].into_iter().collect::<FxHashSet<NodeId>>();
        let found = s.all_paths_from(n(1), Some(&only(3))).unwrap();
        let [(dst, nodes, edges)] = &found[..] else {
            panic!("one destination: {found:?}");
        };
        assert_eq!(*dst, n(3));
        assert!(nodes.contains(&n(2)) && nodes.contains(&n(5)));
        assert!(edges.contains(&EdgeId(10)) && edges.contains(&EdgeId(15)));
        // likes edge 13 not on any knows* walk
        assert!(!edges.contains(&EdgeId(13)));
        // unreachable pair
        assert!(s.all_paths_from(n(4), Some(&only(1))).unwrap().is_empty());
    }

    #[test]
    fn weighted_view_segments_drive_dijkstra() {
        let g = chain();
        // view with custom costs: each knows edge as a segment; edge 10
        // expensive, alternative route cheap… here: make 1→2 cost 10,
        // 1→3 (via likes? no): segments 1→2 (10), 2→3 (1), 1→3 (2).
        let segs = vec![
            Segment {
                src: n(1),
                dst: n(2),
                cost: 10.0,
                walk: step(n(1), EdgeId(10), n(2)),
            },
            Segment {
                src: n(2),
                dst: n(3),
                cost: 1.0,
                walk: step(n(2), EdgeId(11), n(3)),
            },
            Segment {
                src: n(1),
                dst: n(3),
                cost: 2.0,
                walk: step(n(1), EdgeId(13), n(3)),
            },
        ];
        let mut views = ViewMap::default();
        views.insert("v".into(), Arc::new(ViewSegments::new(segs, true, &g)));
        let nfa = Nfa::compile(&Regex::Star(Box::new(Regex::View("v".into()))));
        let s = PathSearcher::new(&g, &nfa, &views);
        assert!(s.weighted);
        let found = s.k_shortest(n(1), 1, None).unwrap();
        // cheapest to 3 is the direct cost-2 segment, not 10+1
        assert_eq!(found[&n(3)][0].cost, 2.0);
        assert_eq!(found[&n(3)][0].walk.interleaved(), vec![1, 13, 3]);
    }

    #[test]
    fn zero_length_paths_accepted_by_star() {
        let g = chain();
        let nfa = knows_star();
        let views = ViewMap::default();
        let s = PathSearcher::new(&g, &nfa, &views);
        let found = s.k_shortest(n(2), 1, None).unwrap();
        let self_path = &found[&n(2)][0];
        assert_eq!(self_path.cost, 0.0);
        assert_eq!(self_path.walk.length(), 0);
    }

    #[test]
    fn indexed_and_scan_expansion_agree() {
        let unindexed = chain();
        let mut g = chain();
        g.build_label_index();
        let nfa = knows_star();
        let views = ViewMap::default();
        let indexed = PathSearcher::new(&g, &nfa, &views);
        let scan = PathSearcher::new(&unindexed, &nfa, &views);
        for src in 1..=4 {
            assert_eq!(
                indexed.reachable(n(src)).unwrap(),
                scan.reachable(n(src)).unwrap()
            );
            let a = indexed.k_shortest(n(src), 3, None).unwrap();
            let b = scan.k_shortest(n(src), 3, None).unwrap();
            assert_eq!(a.len(), b.len());
            for (dst, paths) in &a {
                let other = &b[dst];
                assert_eq!(paths.len(), other.len());
                for (x, y) in paths.iter().zip(other) {
                    assert_eq!(x.walk, y.walk);
                    assert_eq!(x.cost, y.cost);
                }
            }
        }
    }

    #[test]
    fn bidirectional_pair_matches_unidirectional() {
        let g = chain();
        let nfa = knows_star();
        let views = ViewMap::default();
        let s = PathSearcher::new(&g, &nfa, &views);
        for src in 1..=4 {
            let reach = s.reachable(n(src)).unwrap();
            for dst in 1..=4 {
                assert_eq!(
                    s.reachable_pair(n(src), n(dst)).unwrap(),
                    reach.contains(&n(dst)),
                    "pair ({src}, {dst})"
                );
            }
        }
        // Absent endpoints are unreachable.
        assert!(!s.reachable_pair(n(1), n(99)).unwrap());
        assert!(!s.reachable_pair(n(99), n(1)).unwrap());
    }

    #[test]
    fn automata_wider_than_one_mask_word() {
        // Seventy knows steps round a ring of five: 71 NFA states, so a
        // node's visited states span two words.
        let mut g = PathPropertyGraph::new();
        for i in 0..5 {
            g.add_node(n(i), Attributes::labeled("Person"));
        }
        for i in 0..5 {
            g.add_edge(
                EdgeId(10 + i),
                n(i),
                n((i + 1) % 5),
                Attributes::labeled("knows"),
            )
            .unwrap();
        }
        let nfa = Nfa::compile(&Regex::Concat(vec![Regex::Label("knows".into()); 70]));
        assert!(nfa.num_states() > 64);
        let views = ViewMap::default();
        let s = PathSearcher::new(&g, &nfa, &views);
        assert_eq!(s.reachable(n(0)).unwrap(), vec![n(0)]);
        assert!(s.reachable_pair(n(0), n(0)).unwrap());
        assert!(!s.reachable_pair(n(0), n(1)).unwrap());
        let targets: FxHashSet<NodeId> = [n(0)].into_iter().collect();
        let [(_, nodes, edges)] = &s.all_paths_from(n(0), Some(&targets)).unwrap()[..] else {
            panic!("one destination");
        };
        assert_eq!((nodes.len(), edges.len()), (5, 5));
        assert_eq!(
            s.k_shortest(n(0), 1, Some(&targets)).unwrap()[&n(0)][0].cost,
            70.0
        );
    }

    /// A knows-chain 0 → 1 → … → `len − 1`.
    fn long_chain(len: u64) -> PathPropertyGraph {
        let mut g = PathPropertyGraph::new();
        for i in 0..len {
            g.add_node(n(i), Attributes::labeled("Person"));
        }
        for i in 1..len {
            g.add_edge(EdgeId(i), n(i - 1), n(i), Attributes::labeled("knows"))
                .unwrap();
        }
        g
    }

    #[test]
    fn a_fired_token_is_an_error_from_every_search() {
        // Every search from one end pops each of the chain's states, so
        // each polls its token at least once.
        let len = 2 * u64::from(CHECK_STRIDE);
        let g = long_chain(len);
        let nfa = knows_star();
        let views = ViewMap::default();
        let (src, dst) = (n(0), n(len - 1));
        let only_dst: FxHashSet<NodeId> = [dst].into_iter().collect();

        let live = PathSearcher::new(&g, &nfa, &views);
        assert_eq!(live.reachable(src).unwrap().len(), len as usize);
        assert!(live.reachable_pair(src, dst).unwrap());
        assert_eq!(
            live.reachable_many(&[src]).unwrap()[&src].len(),
            len as usize
        );
        assert_eq!(live.k_shortest(src, 1, None).unwrap().len(), len as usize);
        assert_eq!(live.all_paths_from(src, Some(&only_dst)).unwrap().len(), 1);

        let token = CancelToken::new();
        token.cancel();
        let fired = || PathSearcher::new(&g, &nfa, &views).with_cancel(token.clone());
        let cancelled = |r: Result<()>| r.is_err_and(|e| e.is_cancelled());
        assert!(cancelled(fired().reachable(src).map(drop)));
        assert!(cancelled(fired().reachable_pair(src, dst).map(drop)));
        assert!(cancelled(fired().reachable_many(&[src]).map(drop)));
        assert!(cancelled(fired().k_shortest(src, 1, None).map(drop)));
        assert!(cancelled(
            fired().all_paths_from(src, Some(&only_dst)).map(drop)
        ));
    }

    #[test]
    fn shared_frontier_matches_per_source_search() {
        let g = chain();
        let nfa = knows_star();
        let views = ViewMap::default();
        let s = PathSearcher::new(&g, &nfa, &views);
        let sources: Vec<NodeId> = (1..=4).map(n).collect();
        let many = s.reachable_many(&sources).unwrap();
        for &src in &sources {
            assert_eq!(*many[&src], s.reachable(src).unwrap(), "source {src}");
        }
        // A source outside the graph reaches nothing.
        let many = s.reachable_many(&[n(1), n(99)]).unwrap();
        assert!(many[&n(99)].is_empty());
    }

    #[test]
    fn cone_pruned_targets_match_unrestricted_search() {
        let g = chain();
        let nfa = knows_star();
        let views = ViewMap::default();
        let s = PathSearcher::new(&g, &nfa, &views);
        let all = s.k_shortest(n(1), 3, None).unwrap();
        for dst in 1..=4 {
            let mut t = FxHashSet::default();
            t.insert(n(dst));
            let pruned = s.k_shortest(n(1), 3, Some(&t)).unwrap();
            assert_eq!(pruned.len(), 1);
            let (a, b) = (&all[&n(dst)], &pruned[&n(dst)]);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.walk, y.walk, "canonical walks to {dst}");
                assert_eq!(x.cost, y.cost);
            }
        }
    }

    #[test]
    fn node_tests_filter_intermediate_nodes() {
        let mut g = PathPropertyGraph::new();
        g.add_node(n(1), Attributes::labeled("A"));
        g.add_node(n(2), Attributes::labeled("Blocked"));
        g.add_node(n(3), Attributes::labeled("Open"));
        g.add_node(n(4), Attributes::labeled("A"));
        g.add_edge(EdgeId(10), n(1), n(2), Attributes::labeled("r"))
            .unwrap();
        g.add_edge(EdgeId(11), n(2), n(4), Attributes::labeled("r"))
            .unwrap();
        g.add_edge(EdgeId(12), n(1), n(3), Attributes::labeled("r"))
            .unwrap();
        g.add_edge(EdgeId(13), n(3), n(4), Attributes::labeled("r"))
            .unwrap();
        // :r !Open :r — middle node must be Open
        let re = Regex::Concat(vec![
            Regex::Label("r".into()),
            Regex::NodeTest("Open".into()),
            Regex::Label("r".into()),
        ]);
        let nfa = Nfa::compile(&re);
        let views = ViewMap::default();
        let s = PathSearcher::new(&g, &nfa, &views);
        let found = s.k_shortest(n(1), 1, None).unwrap();
        assert_eq!(found[&n(4)][0].walk.interleaved(), vec![1, 12, 3, 13, 4]);
    }
}

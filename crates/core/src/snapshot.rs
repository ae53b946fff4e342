//! Immutable engine snapshots — the read side of the engine's
//! catalog/evaluation split.
//!
//! An [`EngineSnapshot`] is a frozen copy of the catalog taken at a
//! *snapshot epoch*: every write to the [`Engine`](crate::Engine)
//! (graph/table registration, `GRAPH VIEW` commits, direct catalog
//! access) bumps the epoch and invalidates the engine's cached
//! snapshot, so each snapshot observes exactly one committed state and
//! never changes afterwards. Query evaluation — through
//! [`QueryExecutor`](crate::QueryExecutor) — only ever reads a
//! snapshot, which is what makes concurrent evaluation safe without
//! locking on the hot path: the snapshot is `Sync`, shared by `Arc`,
//! and all per-query mutable state lives in the per-thread
//! [`EvalCtx`](crate::EvalCtx).
//!
//! Every graph in a snapshot carries its read layout (node positions,
//! a CSR per edge label, label groups, planner statistics):
//! [`Catalog::register_graph`] builds it on entry and is the only way
//! into a catalog, and a snapshot is immutable, so no evaluation drops
//! it. A labelled step reads its label's CSR; an unlabelled step
//! scans the node's adjacency, as it does on every graph.
//!
//! The snapshot also memoizes two kinds of path answer for the
//! statements that run on it (the multi-user steady state repeats
//! them):
//!
//! * **Reachability closures** — the per-source destination sets that
//!   [`PathSearcher::reachable_many`] computes by condensing the
//!   product digraph, keyed by the NFA's structure
//!   ([`Nfa::identity_key`]); at most `SCC_CACHE_CAPACITY` of them
//!   ([`EngineSnapshot::scc_cache_stats`]).
//! * **PATH-view segment relations** (§A.4); at most
//!   [`VIEW_CACHE_CAPACITY`] ([`EngineSnapshot::view_cache_stats`]).
//!
//! **One rule decides what is kept**, here and nowhere else: an answer
//! is kept under its pinned graph and the *definitions* it depends on —
//! the PATH clause of every view it reads and of every view those
//! reference, transitively, compared with the AST's span-transparent
//! equality, never by name. A statement that defines `chatty` exactly as
//! an earlier one did shares the earlier answer by `Arc`; a statement
//! that gives `chatty` another WHERE misses. An answer over a graph the
//! snapshot does not hold (`ON (subquery)`, a query-local `GRAPH … AS`,
//! a table read as a graph), or one whose definitions hold an `EXISTS`
//! or a pattern predicate in a WHERE, COST or property filter, is
//! computed per use and never kept: those can read graphs that live
//! only as long as the statement.
//!
//! **One implementation keeps them**: a private LRU-bounded list per
//! kind whose entries each pin their graph `Arc` and match by
//! `Arc::ptr_eq` plus key equality (no address can be recycled under a
//! live entry); the work runs outside the lock, so concurrent builders
//! race harmlessly to identical answers; a failed or cancelled
//! computation is never kept. The caches die with the snapshot, so an
//! epoch bump starts fresh.

use crate::error::Result;
use crate::paths::{PathSearcher, ViewSegments};
use crate::regex::{Nfa, NfaKey};
use gcore_parser::ast::{Expr, PathClause, Pattern};
use gcore_ppg::hash::FxHashMap;
use gcore_ppg::{Catalog, NodeId, PathPropertyGraph};
use std::sync::{Arc, Mutex, PoisonError};

/// Per-source destination sets, exactly `reachable(src)` each,
/// `Arc`-shared with the condensation that produced them.
type Closures = FxHashMap<NodeId, Arc<Vec<NodeId>>>;

/// A frozen catalog state at one snapshot epoch, shared read-only by
/// every executor and evaluation context derived from it.
#[derive(Debug)]
pub struct EngineSnapshot {
    catalog: Catalog,
    epoch: u64,
    /// Reachability closures by (NFA structure, view definitions).
    closures: Cache<(NfaKey, Vec<PathClause>), Closures>,
    /// PATH-view relations by the view's definitions.
    relations: Cache<Vec<PathClause>, Arc<ViewSegments>>,
}

impl EngineSnapshot {
    /// Freeze `catalog` at `epoch` and attach empty caches.
    pub fn freeze(catalog: Catalog, epoch: u64) -> Self {
        EngineSnapshot {
            catalog,
            epoch,
            closures: Cache::new(SCC_CACHE_CAPACITY),
            relations: Cache::new(VIEW_CACHE_CAPACITY),
        }
    }

    /// The frozen catalog. Immutable: the snapshot hands out only
    /// shared references, and graphs/tables inside are `Arc`-shared.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The epoch this snapshot was taken at. Strictly increases with
    /// every committed write to the owning engine.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// `(hits, misses, evictions)` of the closure cache — hits and
    /// misses counted per source node served, evictions per (graph,
    /// NFA, definitions) entry dropped by the LRU bound. Snapshot-local
    /// by construction: a fresh snapshot (after any epoch bump) starts
    /// at `(0, 0, 0)`.
    pub fn scc_cache_stats(&self) -> (u64, u64, u64) {
        self.closures.stats()
    }

    /// `(hits, misses, evictions)` of the PATH-view cache — hits and
    /// misses counted per view resolution (a miss is a build), evictions
    /// per relation dropped by the LRU bound. A fresh snapshot starts at
    /// `(0, 0, 0)`.
    pub fn view_cache_stats(&self) -> (u64, u64, u64) {
        self.relations.stats()
    }

    /// The segment relation of the PATH view defined by `defs` over
    /// `graph` — `defs[0]` is the view's own clause, the rest the
    /// clauses it references, transitively, as the statement's scope
    /// resolves them (`None` when a name did not resolve). Served from
    /// the cache when an earlier statement on this snapshot built the
    /// same definitions over the same graph; otherwise `build` runs
    /// (outside the lock), and its relation is kept if the snapshot's
    /// rule allows and the build did not fail.
    ///
    /// `build` must fail rather than return a relation a fired
    /// cancellation token cut short.
    pub fn view_segments_cached(
        &self,
        graph: &Arc<PathPropertyGraph>,
        defs: Option<Vec<PathClause>>,
        build: impl FnOnce() -> Result<ViewSegments>,
    ) -> Result<Arc<ViewSegments>> {
        let Some(key) = self.cache_key(graph, defs) else {
            return build().map(Arc::new);
        };
        let hit = self.relations.locked(|lru| {
            let hit = lru.find(graph, &key).cloned();
            lru.counters.hits += u64::from(hit.is_some());
            lru.counters.misses += u64::from(hit.is_none());
            hit
        });
        if let Some(hit) = hit {
            return Ok(hit);
        }
        // Built outside the lock: a build runs a whole pattern block,
        // and may itself resolve the views this one references.
        let built = Arc::new(build()?);
        Ok(self.relations.locked(|lru| match lru.find(graph, &key) {
            // A concurrent builder got there first: share its
            // (identical) relation rather than hold two.
            Some(theirs) => theirs.clone(),
            None => {
                lru.insert(graph, key, built.clone());
                built
            }
        }))
    }

    /// Reachability closure of `sources` under `nfa` on `graph`, served
    /// from the snapshot's closure cache where possible. `defs` are the
    /// definitions of the views `nfa` names, as
    /// [`view_segments_cached`](Self::view_segments_cached) takes them
    /// (empty for a view-free automaton).
    ///
    /// Sources whose destination set was computed by an earlier query
    /// with a structurally identical NFA over the same definitions on
    /// the identical graph are cache hits; the rest run one shared
    /// [`PathSearcher::reachable_many`] condensation and are merged
    /// into the cache for the snapshot's remaining lifetime (or until
    /// the LRU bound evicts the entry). Correctness does not depend on
    /// the cache: entries are immutable per-source answers of
    /// `reachable_many`, which equals [`PathSearcher::reachable`] per
    /// source. A search that fails — its token fired — keeps nothing.
    pub fn reachable_many_cached(
        &self,
        graph: &Arc<PathPropertyGraph>,
        nfa: &Nfa,
        defs: Option<Vec<PathClause>>,
        searcher: &PathSearcher<'_>,
        sources: &[NodeId],
    ) -> Result<Closures> {
        let Some(defs) = self.cache_key(graph, defs) else {
            return searcher.reachable_many(sources);
        };
        let key = (nfa.identity_key(), defs);

        // Serve what the cache already knows and collect the rest.
        let mut out = Closures::default();
        let mut missing: Vec<NodeId> = Vec::new();
        self.closures.locked(|lru| {
            match lru.find(graph, &key) {
                Some(reach) => {
                    for &src in sources {
                        match reach.get(&src) {
                            Some(set) => {
                                out.insert(src, set.clone());
                            }
                            None => missing.push(src),
                        }
                    }
                }
                None => missing.extend_from_slice(sources),
            }
            missing.sort_unstable();
            missing.dedup();
            lru.counters.hits += out.len() as u64;
            lru.counters.misses += missing.len() as u64;
        });
        if missing.is_empty() {
            return Ok(out);
        }

        // One shared condensation for everything the cache lacked —
        // outside the lock, so concurrent queries never serialize on
        // the search itself (two threads may race to compute the same
        // source; both get identical answers and the merge is
        // idempotent).
        let fresh = searcher.reachable_many(&missing)?;
        self.closures.locked(|lru| match lru.find(graph, &key) {
            Some(reach) => reach.extend(fresh.iter().map(|(&s, set)| (s, set.clone()))),
            None => lru.insert(graph, key, fresh.clone()),
        });
        out.extend(fresh);
        Ok(out)
    }

    /// The one rule for what this snapshot keeps: an answer over
    /// `graph` that depends on `defs` is kept under the pinned graph and
    /// those definitions — the key this returns — when the graph is one
    /// of the snapshot's and no definition can read statement-local
    /// state (an `EXISTS` or a pattern predicate can see query-local
    /// graphs). Otherwise, or when `defs` did not resolve, `None`: the
    /// answer is computed per use.
    fn cache_key(
        &self,
        graph: &Arc<PathPropertyGraph>,
        defs: Option<Vec<PathClause>>,
    ) -> Option<Vec<PathClause>> {
        let defs = defs?;
        let subquery = |e: &Expr| matches!(e, Expr::Exists(_) | Expr::PatternPredicate(_));
        let reads_local = |def: &PathClause| {
            let entries = def.patterns.iter().flat_map(Pattern::prop_entries);
            let mut exprs =
                (def.where_clause.iter().chain(&def.cost)).chain(entries.map(|p| &p.value));
            exprs.any(|e| e.any(&subquery))
        };
        let keep = self.catalog.contains_graph_handle(graph) && !defs.iter().any(reads_local);
        keep.then_some(defs)
    }
}

/// Most reachability closures one snapshot keeps live. Each entry can
/// grow to a destination set per source node, so the count is what
/// bounds a long-lived snapshot's memory; a serving mix uses a handful
/// of distinct path expressions.
const SCC_CACHE_CAPACITY: usize = 64;

/// Most PATH-view segment relations one snapshot keeps live. An entry
/// holds one segment per row of the view's body — as many as the graph
/// has edges for a one-hop view — so the count bounds a long-lived
/// snapshot's memory; a serving mix defines a handful of views.
pub const VIEW_CACHE_CAPACITY: usize = 16;

/// One LRU-bounded memo of answers `V` by graph and key `K`.
struct Cache<K, V>(Mutex<Lru<K, V>>);

impl<K: PartialEq, V> Cache<K, V> {
    fn new(capacity: usize) -> Self {
        Cache(Mutex::new(Lru {
            entries: Vec::new(),
            capacity,
            tick: 0,
            counters: Counters::default(),
        }))
    }

    /// Run `f` under the cache's lock — the one place it is taken. A
    /// panic elsewhere cannot leave an entry half-written, so a
    /// poisoned lock is used as is.
    fn locked<R>(&self, f: impl FnOnce(&mut Lru<K, V>) -> R) -> R {
        f(&mut self.0.lock().unwrap_or_else(PoisonError::into_inner))
    }

    fn stats(&self) -> (u64, u64, u64) {
        self.locked(|lru| {
            let c = &lru.counters;
            (c.hits, c.misses, c.evictions)
        })
    }
}

impl<K, V> std::fmt::Debug for Cache<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cache").finish_non_exhaustive()
    }
}

/// A cache's state: a linear-scan list (lookups compare the graph pin
/// first, then the key, and the list holds at most `capacity` entries,
/// tiny next to the answers themselves) and what it reports.
struct Lru<K, V> {
    entries: Vec<Entry<K, V>>,
    capacity: usize,
    /// Monotone use counter stamping `Entry::last_used`.
    tick: u64,
    counters: Counters,
}

struct Entry<K, V> {
    /// The graph the answer was computed on, pinned so its address can
    /// never be recycled while the entry lives.
    graph: Arc<PathPropertyGraph>,
    key: K,
    value: V,
    /// Recency stamp for the LRU bound.
    last_used: u64,
}

/// What a snapshot cache reports: hits, misses and LRU evictions.
#[derive(Default)]
struct Counters {
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K: PartialEq, V> Lru<K, V> {
    /// The answer kept for `key` over `graph`, marked used.
    fn find(&mut self, graph: &Arc<PathPropertyGraph>, key: &K) -> Option<&mut V> {
        self.tick += 1;
        let tick = self.tick;
        let entry = self
            .entries
            .iter_mut()
            .find(|e| Arc::ptr_eq(&e.graph, graph) && e.key == *key)?;
        entry.last_used = tick;
        Some(&mut entry.value)
    }

    /// Keep `value` for `key` over `graph`, then drop least-recently-used
    /// entries until at most `capacity` remain.
    fn insert(&mut self, graph: &Arc<PathPropertyGraph>, key: K, value: V) {
        self.tick += 1;
        self.entries.push(Entry {
            graph: graph.clone(),
            key,
            value,
            last_used: self.tick,
        });
        while self.entries.len() > self.capacity {
            let entries = &self.entries;
            let Some(lru) = (0..entries.len()).min_by_key(|&i| entries[i].last_used) else {
                break;
            };
            self.entries.swap_remove(lru);
            self.counters.evictions += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::ViewMap;
    use gcore_parser::ast::Regex;
    use gcore_ppg::Attributes;

    fn chain_catalog() -> (Catalog, Arc<PathPropertyGraph>) {
        let mut g = PathPropertyGraph::new();
        for i in 1..=3 {
            g.add_node(NodeId(i), Attributes::labeled("Person"));
        }
        g.add_edge(
            gcore_ppg::EdgeId(10),
            NodeId(1),
            NodeId(2),
            Attributes::labeled("knows"),
        )
        .unwrap();
        g.add_edge(
            gcore_ppg::EdgeId(11),
            NodeId(2),
            NodeId(3),
            Attributes::labeled("knows"),
        )
        .unwrap();
        let mut catalog = Catalog::new();
        catalog.register_graph("g", g);
        catalog.set_default_graph("g");
        let graph = catalog.graph("g").unwrap();
        (catalog, graph)
    }

    fn snapshot_with_chain() -> (EngineSnapshot, Arc<PathPropertyGraph>) {
        let (catalog, graph) = chain_catalog();
        (EngineSnapshot::freeze(catalog, 1), graph)
    }

    fn knows_star() -> Nfa {
        Nfa::compile(&Regex::Star(Box::new(Regex::Label("knows".into()))))
    }

    #[test]
    fn frozen_graphs_carry_index_and_stats() {
        let (snap, graph) = snapshot_with_chain();
        assert!(graph.has_label_index());
        let frozen = snap.catalog().graph("g").unwrap();
        assert!(frozen.has_label_index() && frozen.stats().is_some());
        assert_eq!(snap.epoch(), 1);
    }

    #[test]
    fn cache_serves_repeat_sources_without_recondensation() {
        let (snap, graph) = snapshot_with_chain();
        let nfa = knows_star();
        let views = ViewMap::default();
        let searcher = PathSearcher::new(&graph, &nfa, &views);

        let first = snap
            .reachable_many_cached(
                &graph,
                &nfa,
                Some(vec![]),
                &searcher,
                &[NodeId(1), NodeId(2)],
            )
            .unwrap();
        assert_eq!(*first[&NodeId(1)], vec![NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(snap.scc_cache_stats(), (0, 2, 0));

        // Same NFA structure (fresh compilation), same graph: all hits.
        let nfa2 = knows_star();
        let searcher2 = PathSearcher::new(&graph, &nfa2, &views);
        let second = snap
            .reachable_many_cached(
                &graph,
                &nfa2,
                Some(vec![]),
                &searcher2,
                &[NodeId(2), NodeId(1)],
            )
            .unwrap();
        assert_eq!(snap.scc_cache_stats(), (2, 2, 0));
        assert_eq!(*second[&NodeId(1)], *first[&NodeId(1)]);

        // A structurally different NFA misses.
        let plus = Nfa::compile(&Regex::Plus(Box::new(Regex::Label("knows".into()))));
        let searcher3 = PathSearcher::new(&graph, &plus, &views);
        let third = snap
            .reachable_many_cached(&graph, &plus, Some(vec![]), &searcher3, &[NodeId(1)])
            .unwrap();
        assert_eq!(snap.scc_cache_stats(), (2, 3, 0));
        // knows+ does not accept the empty walk: 1 reaches only 2, 3.
        assert_eq!(*third[&NodeId(1)], vec![NodeId(2), NodeId(3)]);
    }

    #[test]
    fn sources_absent_from_the_graph_are_cached_as_empty() {
        // `reachable_many` answers every requested source, including
        // ones that are not graph nodes (empty set) — so the cache
        // memoizes them too and a repeat query is a pure hit, not a
        // recurring miss.
        let (snap, graph) = snapshot_with_chain();
        let nfa = knows_star();
        let views = ViewMap::default();
        let searcher = PathSearcher::new(&graph, &nfa, &views);

        let first = snap
            .reachable_many_cached(&graph, &nfa, Some(vec![]), &searcher, &[NodeId(99)])
            .unwrap();
        assert!(first[&NodeId(99)].is_empty());
        assert_eq!(snap.scc_cache_stats(), (0, 1, 0));
        let second = snap
            .reachable_many_cached(&graph, &nfa, Some(vec![]), &searcher, &[NodeId(99)])
            .unwrap();
        assert!(second[&NodeId(99)].is_empty());
        assert_eq!(snap.scc_cache_stats(), (1, 1, 0), "absent source must hit");
    }

    #[test]
    fn lru_bound_evicts_least_recently_used_entry() {
        let (catalog, graph) = chain_catalog();
        let mut snap = EngineSnapshot::freeze(catalog, 1);
        snap.closures = Cache::new(1);
        let views = ViewMap::default();

        let star = knows_star();
        let plus = Nfa::compile(&Regex::Plus(Box::new(Regex::Label("knows".into()))));
        let star_search = PathSearcher::new(&graph, &star, &views);
        let plus_search = PathSearcher::new(&graph, &plus, &views);

        // Populate entry A, then entry B: capacity 1 evicts A.
        snap.reachable_many_cached(&graph, &star, Some(vec![]), &star_search, &[NodeId(1)])
            .unwrap();
        assert_eq!(snap.scc_cache_stats(), (0, 1, 0));
        snap.reachable_many_cached(&graph, &plus, Some(vec![]), &plus_search, &[NodeId(1)])
            .unwrap();
        assert_eq!(snap.scc_cache_stats(), (0, 2, 1), "star entry evicted");

        // B is resident (hit); A was evicted (miss again, evicting B).
        snap.reachable_many_cached(&graph, &plus, Some(vec![]), &plus_search, &[NodeId(1)])
            .unwrap();
        assert_eq!(snap.scc_cache_stats(), (1, 2, 1));
        snap.reachable_many_cached(&graph, &star, Some(vec![]), &star_search, &[NodeId(1)])
            .unwrap();
        assert_eq!(snap.scc_cache_stats(), (1, 3, 2));
    }

    #[test]
    fn default_bound_holds_a_working_set() {
        let (snap, graph) = snapshot_with_chain();
        let views = ViewMap::default();
        for depth in 1..=8usize {
            // 8 structurally distinct NFAs → 8 live entries, 0 evictions.
            let mut r = Regex::Label("knows".into());
            for _ in 0..depth {
                r = Regex::Star(Box::new(r));
            }
            let nfa = Nfa::compile(&r);
            let searcher = PathSearcher::new(&graph, &nfa, &views);
            snap.reachable_many_cached(&graph, &nfa, Some(vec![]), &searcher, &[NodeId(1)])
                .unwrap();
        }
        let (_, _, evictions) = snap.scc_cache_stats();
        assert_eq!(evictions, 0);
    }

    #[test]
    fn a_cancelled_condensation_is_an_error_and_keeps_nothing() {
        // A chain long enough that the condensation pops several strides.
        let len = 4 * u64::from(crate::cancel::CHECK_STRIDE);
        let mut g = PathPropertyGraph::new();
        for i in 0..len {
            g.add_node(NodeId(i), Attributes::labeled("Person"));
        }
        for i in 1..len {
            let knows = Attributes::labeled("knows");
            g.add_edge(gcore_ppg::EdgeId(i), NodeId(i - 1), NodeId(i), knows)
                .unwrap();
        }
        let mut catalog = Catalog::new();
        catalog.register_graph("g", g);
        let snap = EngineSnapshot::freeze(catalog, 1);
        let graph = snap.catalog().graph("g").unwrap();
        let nfa = knows_star();
        let views = ViewMap::default();
        let src = [NodeId(0)];

        let token = crate::cancel::CancelToken::new();
        token.cancel();
        let fired = PathSearcher::new(&graph, &nfa, &views).with_cancel(token);
        let err = snap
            .reachable_many_cached(&graph, &nfa, Some(vec![]), &fired, &src)
            .expect_err("a fired token is an error, not a partial closure");
        assert!(err.is_cancelled(), "{err}");
        assert_eq!(snap.scc_cache_stats(), (0, 1, 0));

        // Nothing was kept: a live search misses again and answers in full.
        let live = PathSearcher::new(&graph, &nfa, &views);
        let reach = snap
            .reachable_many_cached(&graph, &nfa, Some(vec![]), &live, &src)
            .unwrap();
        assert_eq!(snap.scc_cache_stats(), (0, 2, 0));
        assert_eq!(reach[&NodeId(0)].len(), len as usize);
    }

    #[test]
    fn snapshot_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EngineSnapshot>();
    }
}

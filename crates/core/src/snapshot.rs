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
//! Freezing does two things beyond cloning the catalog:
//!
//! * **Index freeze.** Every graph's label-partitioned index is
//!   force-built ([`Catalog::freeze_indexes`]), so evaluation over a
//!   snapshot never hits the mutation-invalidated scan fallback — a
//!   snapshot is immutable, hence its indexes can never be invalidated
//!   again.
//! * **Search-result reuse.** The snapshot carries a cache of
//!   SCC-condensed reachability closures keyed by (graph identity, NFA
//!   structure): the per-source destination sets that
//!   [`PathSearcher::reachable_many`] computes by condensing the
//!   product digraph. Repeated path queries against one snapshot (the
//!   multi-user steady state) skip re-condensation entirely; the cache
//!   dies with the snapshot, so an epoch bump naturally starts fresh.
//!   The cache is **LRU-bounded**: when more than `SCC_CACHE_CAPACITY`
//!   distinct (graph, NFA) condensations are live, the least-recently-
//!   used one is dropped — evictions show up in
//!   [`EngineSnapshot::scc_cache_stats`]. View-bearing automata never
//!   enter it: an [`NfaKey`] names the views an automaton steps through
//!   but does not carry their definitions.
//! * **PATH-view reuse.** The snapshot also keeps the segment relations
//!   of PATH views (§A.4) built over its own graphs, keyed by the graph
//!   and the view's *definition* — its PATH clause and the clause of
//!   every view it references, transitively, compared with the AST's
//!   span-transparent equality — never by the view's name. A statement
//!   that defines `chatty` exactly as an earlier one did shares the
//!   earlier relation by `Arc` instead of rebuilding it. A view whose
//!   WHERE, COST or property filters hold an `EXISTS` or a pattern
//!   predicate, and a view over a graph the snapshot does not hold (`ON
//!   (subquery)`, a query-local `GRAPH … AS`, a table read as a graph),
//!   is built per statement and never cached: those can read graphs
//!   that live only as long as the statement. The cache is LRU-bounded
//!   by `VIEW_CACHE_CAPACITY` entries; see
//!   [`EngineSnapshot::view_cache_stats`].
//!
//! Both caches share one contract: each entry pins its graph `Arc` and
//! every lookup checks the pin with `Arc::ptr_eq` (no address can be
//! recycled under a live entry); the work runs outside the lock, so
//! concurrent builders race harmlessly to identical answers; a failed or
//! cancelled computation is never cached.

use crate::error::Result;
use crate::paths::{PathSearcher, ViewSegments};
use crate::regex::{Nfa, NfaKey};
use gcore_parser::ast::PathClause;
use gcore_ppg::hash::FxHashMap;
use gcore_ppg::{Catalog, NodeId, PathPropertyGraph};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A frozen catalog state at one snapshot epoch, shared read-only by
/// every executor and evaluation context derived from it.
#[derive(Debug)]
pub struct EngineSnapshot {
    catalog: Catalog,
    epoch: u64,
    scc_cache: SccCache,
    view_cache: ViewCache,
}

impl EngineSnapshot {
    /// Freeze `catalog` at `epoch`: force-build every graph's label
    /// index and attach an empty condensation cache.
    pub fn freeze(mut catalog: Catalog, epoch: u64) -> Self {
        catalog.freeze_indexes();
        debug_assert!(catalog.all_indexed(), "snapshot froze an unindexed graph");
        EngineSnapshot {
            catalog,
            epoch,
            scc_cache: SccCache::with_capacity(SCC_CACHE_CAPACITY),
            view_cache: ViewCache::default(),
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

    /// `(hits, misses, evictions)` of the condensation cache — hits and
    /// misses counted per source node served, evictions per (graph,
    /// NFA) entry dropped by the LRU bound. Snapshot-local by
    /// construction: a fresh snapshot (after any epoch bump) starts at
    /// `(0, 0, 0)`.
    pub fn scc_cache_stats(&self) -> (u64, u64, u64) {
        self.scc_cache.counters.stats()
    }

    /// `(hits, misses, evictions)` of the PATH-view cache — hits and
    /// misses counted per view resolution (a miss is a build), evictions
    /// per relation dropped by the LRU bound. A fresh snapshot starts at
    /// `(0, 0, 0)`.
    pub fn view_cache_stats(&self) -> (u64, u64, u64) {
        self.view_cache.counters.stats()
    }

    /// The segment relation of the PATH view defined by `defs` over
    /// `graph` — `defs[0]` is the view's own clause, the rest the
    /// clauses it references, transitively, as the statement's scope
    /// resolves them. Served from the cache when an earlier statement on
    /// this snapshot built the same definitions over the same graph;
    /// otherwise `build` runs (outside the lock) and its relation is
    /// cached unless it failed.
    ///
    /// The caller decides what may be cached: only views over a graph
    /// of this snapshot's catalog whose definitions read nothing but
    /// that graph, and `build` must fail rather than return a relation
    /// a fired cancellation token cut short.
    pub fn view_segments_cached(
        &self,
        graph: &Arc<PathPropertyGraph>,
        defs: &[PathClause],
        build: impl FnOnce() -> Result<ViewSegments>,
    ) -> Result<Arc<ViewSegments>> {
        self.view_cache.get_or_build(graph, defs, build)
    }

    /// Reachability closure of `sources` under `nfa` on `graph`, served
    /// from the per-snapshot condensation cache where possible.
    ///
    /// Sources whose destination set was computed by an earlier query
    /// with a structurally identical NFA on the identical graph (`Arc`
    /// pointer equality, revalidated against the pinned graph handle)
    /// are cache hits; the rest run one shared
    /// [`PathSearcher::reachable_many`] condensation and are merged
    /// into the cache for the snapshot's remaining lifetime (or until
    /// the LRU bound evicts the entry).
    ///
    /// Correctness does not depend on the cache: entries are immutable
    /// per-source answers of `reachable_many`, which equals
    /// [`PathSearcher::reachable`] per source. Callers must not use
    /// this for view-bearing NFAs (the key names a view but not its
    /// definition); the matcher guards that.
    pub fn reachable_many_cached(
        &self,
        graph: &Arc<PathPropertyGraph>,
        nfa: &Nfa,
        searcher: &PathSearcher<'_>,
        sources: &[NodeId],
    ) -> FxHashMap<NodeId, Arc<Vec<NodeId>>> {
        self.scc_cache.lookup(graph, nfa, searcher, sources)
    }
}

/// Cache key: graph address paired with the NFA's structural identity.
/// The address alone could be reused after a graph is dropped (ABA);
/// every entry therefore pins its graph `Arc` and lookups revalidate
/// with pointer equality against the pinned handle.
type CacheKey = (usize, NfaKey);

struct CacheEntry {
    /// The graph the closures were computed on, pinned so its address
    /// can never be recycled while the entry lives.
    graph: Arc<PathPropertyGraph>,
    /// Per-source destination sets, exactly `reachable(src)` each,
    /// `Arc`-shared with the condensation that produced them.
    reach: FxHashMap<NodeId, Arc<Vec<NodeId>>>,
    /// Recency stamp for the LRU bound: the cache tick of the last
    /// lookup or merge that touched this entry.
    last_used: u64,
}

#[derive(Default)]
struct CacheInner {
    map: FxHashMap<CacheKey, CacheEntry>,
    /// Monotone lookup counter stamping `last_used`.
    tick: u64,
}

impl CacheInner {
    /// Drop least-recently-used entries until at most `capacity`
    /// remain. Linear scan per eviction: the entry count is the number
    /// of distinct (graph, regex) pairs a snapshot has served, which
    /// stays tiny next to the condensations themselves.
    fn enforce(&mut self, capacity: usize, evictions: &AtomicU64) {
        while self.map.len() > capacity {
            let Some(lru) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            self.map.remove(&lru);
            evictions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Most (graph, NFA) condensations one snapshot keeps live. Each entry
/// can grow to a destination set per source node, so the count is what
/// bounds a long-lived snapshot's memory; a serving mix uses a handful
/// of distinct path expressions.
const SCC_CACHE_CAPACITY: usize = 64;

/// The per-snapshot cache of SCC-condensed reachability closures,
/// LRU-bounded by entry count.
struct SccCache {
    entries: Mutex<CacheInner>,
    capacity: usize,
    counters: Counters,
}

impl std::fmt::Debug for SccCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SccCache")
            .field("counters", &self.counters)
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

/// What a snapshot cache reports: hits, misses and LRU evictions.
#[derive(Debug, Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Counters {
    fn stats(&self) -> (u64, u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.evictions.load(Ordering::Relaxed),
        )
    }
}

impl SccCache {
    fn with_capacity(capacity: usize) -> Self {
        SccCache {
            entries: Mutex::new(CacheInner::default()),
            capacity,
            counters: Counters::default(),
        }
    }

    fn lookup(
        &self,
        graph: &Arc<PathPropertyGraph>,
        nfa: &Nfa,
        searcher: &PathSearcher<'_>,
        sources: &[NodeId],
    ) -> FxHashMap<NodeId, Arc<Vec<NodeId>>> {
        let key: CacheKey = (Arc::as_ptr(graph) as usize, nfa.identity_key());

        // Serve what the cache already knows and collect the rest.
        let mut out: FxHashMap<NodeId, Arc<Vec<NodeId>>> = FxHashMap::default();
        let mut missing: Vec<NodeId> = Vec::new();
        {
            let mut inner = self.entries.lock().unwrap();
            inner.tick += 1;
            let tick = inner.tick;
            let entry = inner
                .map
                .get_mut(&key)
                .filter(|e| Arc::ptr_eq(&e.graph, graph));
            if let Some(entry) = entry {
                entry.last_used = tick;
                for &src in sources {
                    match entry.reach.get(&src) {
                        Some(set) => {
                            out.insert(src, set.clone());
                        }
                        None => missing.push(src),
                    }
                }
            } else {
                missing.extend_from_slice(sources);
            }
        }
        let counters = &self.counters;
        counters.hits.fetch_add(out.len() as u64, Ordering::Relaxed);
        if missing.is_empty() {
            return out;
        }
        missing.sort_unstable();
        missing.dedup();
        counters
            .misses
            .fetch_add(missing.len() as u64, Ordering::Relaxed);

        // One shared condensation for everything the cache lacked —
        // outside the lock, so concurrent queries never serialize on
        // the search itself (two threads may race to compute the same
        // source; both get identical answers and the merge is
        // idempotent).
        let fresh = searcher.reachable_many(&missing);
        // A cancelled search returns partial (empty) answers; caching
        // them would poison later statements on this snapshot. The
        // caller notices the fired token and raises the error.
        if searcher.cancelled() {
            out.extend(fresh);
            return out;
        }
        let mut inner = self.entries.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner.map.entry(key).or_insert_with(|| CacheEntry {
            graph: graph.clone(),
            reach: FxHashMap::default(),
            last_used: tick,
        });
        entry.last_used = tick;
        // ABA guard: if the address was recycled by a *different*
        // graph, repoint the entry and drop the stale closures.
        if !Arc::ptr_eq(&entry.graph, graph) {
            entry.graph = graph.clone();
            entry.reach.clear();
        }
        for (src, set) in &fresh {
            entry.reach.insert(*src, set.clone());
        }
        inner.enforce(self.capacity, &counters.evictions);
        drop(inner);
        out.extend(fresh);
        out
    }
}

/// Most PATH-view segment relations one snapshot keeps live. An entry
/// holds one segment per row of the view's body — as many as the graph
/// has edges for a one-hop view — so the count bounds a long-lived
/// snapshot's memory; a serving mix defines a handful of views.
pub const VIEW_CACHE_CAPACITY: usize = 16;

/// One cached relation: the graph it was built on (pinned), the
/// definitions it was built from, and the relation itself.
struct ViewEntry {
    graph: Arc<PathPropertyGraph>,
    defs: Vec<PathClause>,
    segments: Arc<ViewSegments>,
    /// Recency stamp for the LRU bound.
    last_used: u64,
}

#[derive(Default)]
struct ViewInner {
    /// Linear-scan list: lookups compare the graph pin first, then the
    /// definitions, and the list holds at most the capacity.
    entries: Vec<ViewEntry>,
    tick: u64,
}

impl ViewInner {
    /// The relation built from `defs` over `graph`, marked used.
    fn find(
        &mut self,
        graph: &Arc<PathPropertyGraph>,
        defs: &[PathClause],
    ) -> Option<Arc<ViewSegments>> {
        self.tick += 1;
        let tick = self.tick;
        let entry = self
            .entries
            .iter_mut()
            .find(|e| Arc::ptr_eq(&e.graph, graph) && e.defs == defs)?;
        entry.last_used = tick;
        Some(entry.segments.clone())
    }
}

/// The per-snapshot cache of PATH-view segment relations, LRU-bounded
/// by entry count.
#[derive(Default)]
struct ViewCache {
    inner: Mutex<ViewInner>,
    counters: Counters,
}

impl std::fmt::Debug for ViewCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ViewCache")
            .field("counters", &self.counters)
            .finish_non_exhaustive()
    }
}

impl ViewCache {
    fn get_or_build(
        &self,
        graph: &Arc<PathPropertyGraph>,
        defs: &[PathClause],
        build: impl FnOnce() -> Result<ViewSegments>,
    ) -> Result<Arc<ViewSegments>> {
        let counters = &self.counters;
        if let Some(hit) = self.inner.lock().unwrap().find(graph, defs) {
            counters.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(hit);
        }
        counters.misses.fetch_add(1, Ordering::Relaxed);
        // Built outside the lock: a build runs a whole pattern block,
        // and may itself resolve the views this one references.
        let built = Arc::new(build()?);
        let mut inner = self.inner.lock().unwrap();
        // A concurrent builder got there first: share its (identical)
        // relation rather than hold two.
        if let Some(theirs) = inner.find(graph, defs) {
            return Ok(theirs);
        }
        let last_used = inner.tick;
        inner.entries.push(ViewEntry {
            graph: graph.clone(),
            defs: defs.to_vec(),
            segments: built.clone(),
            last_used,
        });
        if inner.entries.len() > VIEW_CACHE_CAPACITY {
            let entries = &inner.entries;
            if let Some(lru) = (0..entries.len()).min_by_key(|&i| entries[i].last_used) {
                inner.entries.swap_remove(lru);
                counters.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(built)
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
    fn freeze_indexes_every_graph() {
        let (snap, graph) = snapshot_with_chain();
        assert!(graph.has_label_index());
        assert!(snap.catalog().all_indexed());
        assert_eq!(snap.epoch(), 1);
    }

    #[test]
    fn cache_serves_repeat_sources_without_recondensation() {
        let (snap, graph) = snapshot_with_chain();
        let nfa = knows_star();
        let views = ViewMap::default();
        let searcher = PathSearcher::new(&graph, &nfa, &views);

        let first = snap.reachable_many_cached(&graph, &nfa, &searcher, &[NodeId(1), NodeId(2)]);
        assert_eq!(*first[&NodeId(1)], vec![NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(snap.scc_cache_stats(), (0, 2, 0));

        // Same NFA structure (fresh compilation), same graph: all hits.
        let nfa2 = knows_star();
        let searcher2 = PathSearcher::new(&graph, &nfa2, &views);
        let second = snap.reachable_many_cached(&graph, &nfa2, &searcher2, &[NodeId(2), NodeId(1)]);
        assert_eq!(snap.scc_cache_stats(), (2, 2, 0));
        assert_eq!(*second[&NodeId(1)], *first[&NodeId(1)]);

        // A structurally different NFA misses.
        let plus = Nfa::compile(&Regex::Plus(Box::new(Regex::Label("knows".into()))));
        let searcher3 = PathSearcher::new(&graph, &plus, &views);
        let third = snap.reachable_many_cached(&graph, &plus, &searcher3, &[NodeId(1)]);
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

        let first = snap.reachable_many_cached(&graph, &nfa, &searcher, &[NodeId(99)]);
        assert!(first[&NodeId(99)].is_empty());
        assert_eq!(snap.scc_cache_stats(), (0, 1, 0));
        let second = snap.reachable_many_cached(&graph, &nfa, &searcher, &[NodeId(99)]);
        assert!(second[&NodeId(99)].is_empty());
        assert_eq!(snap.scc_cache_stats(), (1, 1, 0), "absent source must hit");
    }

    #[test]
    fn lru_bound_evicts_least_recently_used_entry() {
        let (catalog, graph) = chain_catalog();
        let mut snap = EngineSnapshot::freeze(catalog, 1);
        snap.scc_cache = SccCache::with_capacity(1);
        let views = ViewMap::default();

        let star = knows_star();
        let plus = Nfa::compile(&Regex::Plus(Box::new(Regex::Label("knows".into()))));
        let star_search = PathSearcher::new(&graph, &star, &views);
        let plus_search = PathSearcher::new(&graph, &plus, &views);

        // Populate entry A, then entry B: capacity 1 evicts A.
        snap.reachable_many_cached(&graph, &star, &star_search, &[NodeId(1)]);
        assert_eq!(snap.scc_cache_stats(), (0, 1, 0));
        snap.reachable_many_cached(&graph, &plus, &plus_search, &[NodeId(1)]);
        assert_eq!(snap.scc_cache_stats(), (0, 2, 1), "star entry evicted");

        // B is resident (hit); A was evicted (miss again, evicting B).
        snap.reachable_many_cached(&graph, &plus, &plus_search, &[NodeId(1)]);
        assert_eq!(snap.scc_cache_stats(), (1, 2, 1));
        snap.reachable_many_cached(&graph, &star, &star_search, &[NodeId(1)]);
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
            snap.reachable_many_cached(&graph, &nfa, &searcher, &[NodeId(1)]);
        }
        let (_, _, evictions) = snap.scc_cache_stats();
        assert_eq!(evictions, 0);
    }

    #[test]
    fn snapshot_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EngineSnapshot>();
    }
}

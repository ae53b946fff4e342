//! The public engine API: a mutable catalog front plus snapshot-based
//! query evaluation.
//!
//! The engine is split along the read/write axis:
//!
//! * **Writes** — graph/table registration, `GRAPH VIEW` commits,
//!   direct catalog access — mutate the engine's catalog and *commit*:
//!   every commit bumps the snapshot epoch and invalidates the cached
//!   snapshot.
//! * **Reads** — every query — evaluate against an immutable
//!   [`EngineSnapshot`] taken lazily at the current epoch. Snapshots
//!   are `Arc`-shared and `Sync`; the [`QueryExecutor`] evaluates with
//!   `&self`, so concurrent queries run on plain scoped threads with no
//!   locking on the evaluation path ([`Engine::run_batch_parallel`]).
//!
//! [`Engine::run`] keeps its historical `&mut self` signature: it takes
//! a fresh snapshot per statement, evaluates read-only, and commits any
//! view registration afterwards — single-threaded callers see exactly
//! the old behavior, with the epoch observable via
//! [`Engine::snapshot_epoch`].
//!
//! ```
//! use gcore::Engine;
//! use gcore_ppg::{Attributes, GraphBuilder};
//!
//! let mut engine = Engine::new();
//! let mut b = GraphBuilder::new(engine.catalog().ids().clone());
//! let ann = b.node(Attributes::labeled("Person").with_prop("name", "Ann"));
//! let bob = b.node(Attributes::labeled("Person").with_prop("name", "Bob"));
//! b.edge(ann, bob, Attributes::labeled("knows"));
//! engine.register_graph("people", b.build());
//! engine.set_default_graph("people");
//!
//! let g = engine
//!     .query_graph("CONSTRUCT (n) MATCH (n:Person) WHERE n.name = 'Ann'")
//!     .unwrap();
//! assert_eq!(g.node_count(), 1);
//!
//! // Fan a read-only corpus across threads on one shared snapshot:
//! let queries = [
//!     "SELECT n.name AS name MATCH (n:Person)",
//!     "CONSTRUCT (m) MATCH (n)-[:knows]->(m)",
//! ];
//! let results = engine.run_batch_parallel(&queries, 2);
//! assert_eq!(results.len(), 2);
//! assert!(results.iter().all(|r| r.is_ok()));
//! ```

use crate::cancel::CancelToken;
use crate::context::EvalOptions;
use crate::diag::Diagnostic;
use crate::error::{Result, SemanticError};
use crate::executor::QueryExecutor;
use crate::query::QueryOutput;
use crate::snapshot::EngineSnapshot;
use gcore_parser::ast::Statement;
use gcore_parser::{parse_script, parse_statement};
use gcore_ppg::{Catalog, PathPropertyGraph, Table};
use gcore_store::{StorageBackend, StoreError};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A G-CORE query engine over a catalog of named graphs and tables.
///
/// The engine is the unit of identity: all graphs registered with one
/// engine draw identifiers from a single shared generator, so query
/// results can share elements with their inputs (the paper's "full
/// graph" operations are defined in terms of identities).
#[derive(Clone)]
pub struct Engine {
    catalog: Catalog,
    /// The evaluation settings every derived executor starts from; its
    /// `metrics` are the pre-resolved handles into `registry`.
    options: EvalOptions,
    /// Monotone commit counter: bumped by every catalog write.
    epoch: u64,
    /// The snapshot of the current epoch, taken lazily and dropped by
    /// the next commit.
    snapshot: Option<Arc<EngineSnapshot>>,
    /// The engine's unified metrics registry. Shared by clones of the
    /// engine and by every executor it derives, so counters aggregate
    /// across the engine's whole lifetime.
    registry: Arc<crate::obs::MetricsRegistry>,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// An engine with an empty catalog at epoch 0.
    pub fn new() -> Self {
        Self::with_catalog(Catalog::new())
    }

    /// An engine over an existing catalog.
    pub fn with_catalog(catalog: Catalog) -> Self {
        let registry = Arc::new(crate::obs::MetricsRegistry::new());
        let options = EvalOptions {
            metrics: crate::obs::CoreMetrics::registered(&registry),
            ..EvalOptions::default()
        };
        Engine {
            catalog,
            options,
            epoch: 0,
            snapshot: None,
            registry,
        }
    }

    /// Set [`EvalOptions::planner`] for every statement this engine (or
    /// an executor derived from it) evaluates from now on.
    pub fn set_planner(&mut self, enabled: bool) {
        self.options.planner = enabled;
    }

    // Inert: intra-query parallelism was removed in PR 12. Kept only
    // because the frozen benchmark calls it (trajectory/src/fixture.rs:71,
    // run.rs:495); the next benchmark PR drops those calls and this shim
    // together.
    #[doc(hidden)]
    pub fn set_parallelism(&mut self, _threads: usize) {}

    /// Set [`EvalOptions::statement_deadline`] for every statement this
    /// engine (or an executor derived from it) evaluates from now on.
    pub fn set_statement_deadline(&mut self, budget: Option<std::time::Duration>) {
        self.options.statement_deadline = budget;
    }

    /// Render the planner's decisions for a statement without running
    /// it (see [`QueryExecutor::explain`]).
    pub fn explain(&mut self, text: &str) -> Result<String> {
        self.executor().explain(text)
    }

    /// `EXPLAIN ANALYZE`: run one statement with profiling forced on
    /// and return its output together with the execution profile —
    /// the operator span tree with planner estimates, actual row
    /// counts, timings and misestimate markers
    /// ([`QueryProfile::render`](crate::obs::QueryProfile::render)).
    ///
    /// Read-only, like [`Engine::explain`]: a `GRAPH VIEW` statement
    /// profiles its evaluation but registers nothing.
    pub fn profile(&mut self, text: &str) -> Result<(QueryOutput, crate::obs::QueryProfile)> {
        self.executor().run_profiled(text)
    }

    /// The engine's unified metrics registry: core counters
    /// (`statements`, `cancellations`, `planner_*`) aggregated across
    /// every statement the engine or its executors ever evaluated.
    /// Render it with
    /// [`MetricsRegistry::render_prometheus`](crate::obs::MetricsRegistry::render_prometheus).
    #[must_use]
    pub fn metrics_registry(&self) -> &Arc<crate::obs::MetricsRegistry> {
        &self.registry
    }

    /// The underlying catalog (graphs, tables, id generator).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Mutable access to the catalog. Counts as a write: the epoch is
    /// bumped and the cached snapshot dropped, so snapshots can never
    /// observe a half-applied mutation.
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        self.commit();
        &mut self.catalog
    }

    /// Register (or replace) a named graph. Commits.
    pub fn register_graph(&mut self, name: impl Into<String>, graph: PathPropertyGraph) {
        self.catalog.register_graph(name, graph);
        self.commit();
    }

    /// Register (or replace) a named table (for the §5 extensions).
    /// Commits.
    pub fn register_table(&mut self, name: impl Into<String>, table: Table) {
        self.catalog.register_table(name, table);
        self.commit();
    }

    /// Set the default graph used when `MATCH … ON` is omitted. Commits.
    pub fn set_default_graph(&mut self, name: impl Into<String>) {
        self.catalog.set_default_graph(name);
        self.commit();
    }

    /// Fetch a registered graph.
    pub fn graph(&self, name: &str) -> Result<Arc<PathPropertyGraph>> {
        Ok(self.catalog.graph(name)?)
    }

    /// The current snapshot epoch. Starts at 0; every committed write
    /// (registration, `GRAPH VIEW`, `catalog_mut`) increments it.
    pub fn snapshot_epoch(&self) -> u64 {
        self.epoch
    }

    /// Apply a write: advance the epoch and invalidate the cached
    /// snapshot. Outstanding snapshots (held by executors or in-flight
    /// queries) are unaffected — they keep serving their own epoch.
    fn commit(&mut self) {
        self.epoch += 1;
        self.snapshot = None;
    }

    /// The snapshot of the current epoch, freezing one lazily on first
    /// use after a commit. Freezing builds nothing: every catalog graph
    /// already carries its read layout and statistics, built when it was
    /// registered.
    pub fn snapshot(&mut self) -> Arc<EngineSnapshot> {
        if self.snapshot.is_none() {
            let frozen = EngineSnapshot::freeze(self.catalog.clone(), self.epoch);
            self.snapshot = Some(Arc::new(frozen));
        }
        self.snapshot.as_ref().expect("just frozen").clone()
    }

    /// A read-only executor pinned to the current epoch's snapshot.
    /// `Send + Sync`: share it across threads, or clone it per thread.
    pub fn executor(&mut self) -> QueryExecutor {
        // Each executor gets a token of its own: cancelling one must
        // not cancel its siblings or the engine's later statements.
        let options = EvalOptions {
            cancel: CancelToken::new(),
            ..self.options.clone()
        };
        QueryExecutor::with_options(self.snapshot(), options)
    }

    /// Parse and evaluate one statement. `GRAPH VIEW name AS (…)`
    /// registers its materialized result persistently and returns it.
    pub fn run(&mut self, text: &str) -> Result<QueryOutput> {
        let stmt = parse_statement(text)?;
        self.eval(&stmt)
    }

    /// Parse and evaluate a `;`-separated script, returning every
    /// statement's output in order.
    pub fn run_script(&mut self, text: &str) -> Result<Vec<QueryOutput>> {
        let stmts = parse_script(text)?;
        stmts.iter().map(|s| self.eval(s)).collect()
    }

    /// Statically analyze one statement against the live catalog
    /// without evaluating anything: every diagnostic (errors *and*
    /// warnings) is returned, ordered by source position. Parse
    /// failures come back as a single `E000` diagnostic, so callers
    /// get a uniform report for arbitrary input.
    #[must_use]
    pub fn check(&self, text: &str) -> Vec<Diagnostic> {
        crate::analyze::check_text(text, &self.catalog)
    }

    /// [`check`](Engine::check) for a `;`-separated script. `GRAPH
    /// VIEW` names defined by earlier statements count as known graphs
    /// for later ones, mirroring [`run_script`](Engine::run_script).
    #[must_use]
    pub fn check_script(&self, text: &str) -> Vec<Diagnostic> {
        crate::analyze::check_script_text(text, &self.catalog)
    }

    /// Run a query that must produce a graph.
    pub fn query_graph(&mut self, text: &str) -> Result<PathPropertyGraph> {
        self.run(text)?.graph_or_wrong_sort()
    }

    /// Run a query that must produce a table (§5 SELECT).
    pub fn query_table(&mut self, text: &str) -> Result<Table> {
        self.run(text)?.table_or_wrong_sort()
    }

    /// Evaluate an already-parsed statement: read-only against the
    /// current snapshot, then commit any `GRAPH VIEW` registration
    /// (which bumps the epoch).
    pub fn eval(&mut self, stmt: &Statement) -> Result<QueryOutput> {
        let executor = self.executor();
        let out = executor.eval(stmt)?;
        if let Statement::GraphView { name, .. } = stmt {
            match &out {
                QueryOutput::Graph(g) => self.register_graph(name.clone(), g.clone()),
                QueryOutput::Table(_) => {
                    return Err(
                        SemanticError::GraphExpected(format!("GRAPH VIEW {name} AS (…)")).into(),
                    )
                }
            }
        }
        Ok(out)
    }

    /// Persist the current committed catalog — every registered graph
    /// and table plus the default-graph name — into `backend` in the
    /// `gcore-store` binary format (see [`gcore_store::save_catalog`]).
    ///
    /// Reads the committed state only: queries in flight on old
    /// snapshots are unaffected, and nothing commits.
    ///
    /// ```
    /// use gcore::Engine;
    /// use gcore_ppg::{Attributes, GraphBuilder};
    /// use gcore_store::MemBackend;
    ///
    /// let mut engine = Engine::new();
    /// let mut b = GraphBuilder::new(engine.catalog().ids().clone());
    /// b.node(Attributes::labeled("Person").with_prop("name", "Ann"));
    /// engine.register_graph("people", b.build());
    /// engine.set_default_graph("people");
    ///
    /// let backend = MemBackend::new();
    /// engine.save_to(&backend).unwrap();
    ///
    /// // …process restarts: cold-start the same catalog from disk…
    /// let mut reloaded = Engine::open_from(&backend).unwrap();
    /// let t = reloaded
    ///     .query_table("SELECT n.name AS name MATCH (n:Person)")
    ///     .unwrap();
    /// assert_eq!(t.len(), 1);
    /// ```
    pub fn save_to(&self, backend: &dyn StorageBackend) -> std::result::Result<(), StoreError> {
        gcore_store::save_catalog_at_epoch(&self.catalog, self.epoch, backend)
    }

    /// Cold-start an engine from a store written by
    /// [`save_to`](Self::save_to): decode every persisted graph,
    /// register it (building its read layout with its planner
    /// statistics, and reserving the stored identifier space, so fresh
    /// skolemized identifiers never collide with loaded elements) and
    /// restore the default graph.
    ///
    /// The engine resumes at the snapshot epoch recorded in the
    /// manifest (what [`snapshot_epoch`](Self::snapshot_epoch) read
    /// when the store was saved), with no snapshot frozen — the load
    /// itself is the committed state at that epoch. Clients observing
    /// the epoch across a save → restart therefore never see it
    /// regress.
    pub fn open_from(backend: &dyn StorageBackend) -> std::result::Result<Engine, StoreError> {
        let (catalog, epoch) = gcore_store::load_catalog_at_epoch(backend)?;
        let mut engine = Engine::with_catalog(catalog);
        engine.epoch = epoch;
        Ok(engine)
    }

    /// Replace this engine's committed catalog with the one stored in
    /// `backend` (the hot-reload counterpart of
    /// [`open_from`](Self::open_from), used by the `gcore-serve` admin
    /// route). Counts as a write: the epoch advances to one past the
    /// maximum of the live epoch and the stored one — monotone for
    /// connected clients whichever is ahead — and the cached snapshot
    /// is dropped. Evaluation settings (planner, deadline, …) are
    /// kept. Returns the new epoch.
    pub fn reload_from(
        &mut self,
        backend: &dyn StorageBackend,
    ) -> std::result::Result<u64, StoreError> {
        let (catalog, stored_epoch) = gcore_store::load_catalog_at_epoch(backend)?;
        self.catalog = catalog;
        self.epoch = self.epoch.max(stored_epoch);
        self.commit();
        Ok(self.epoch)
    }

    /// Evaluate a corpus of independent statements concurrently on
    /// `threads` scoped threads sharing *one* snapshot of the current
    /// epoch, returning each statement's result in input order.
    ///
    /// Semantics are those of [`QueryExecutor`]: every statement sees
    /// the same committed catalog state, and nothing is registered —
    /// `GRAPH VIEW` statements return their graph without committing
    /// it. Per-statement evaluation is single-threaded and
    /// deterministic, so each query's output is independent of the
    /// thread count and of how statements interleave; the differential
    /// suite in `tests/snapshot_equivalence.rs` pins this against
    /// sequential [`Engine::run`].
    ///
    /// Statements are claimed off a shared atomic counter (work
    /// stealing), so skewed corpora don't idle threads. `threads == 0`
    /// is treated as 1.
    pub fn run_batch_parallel(
        &mut self,
        queries: &[&str],
        threads: usize,
    ) -> Vec<Result<QueryOutput>> {
        let executor = self.executor();
        run_batch_on(&executor, queries, threads)
    }
}

/// Fan `queries` across `threads` scoped threads evaluating on one
/// shared executor; results come back in input order. Exposed for
/// callers that already hold an executor (benchmarks, servers).
pub fn run_batch_on(
    executor: &QueryExecutor,
    queries: &[&str],
    threads: usize,
) -> Vec<Result<QueryOutput>> {
    let threads = threads.max(1).min(queries.len().max(1));
    let next = AtomicUsize::new(0);
    let mut collected: Vec<(usize, Result<QueryOutput>)> = Vec::with_capacity(queries.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let next = &next;
                s.spawn(move || {
                    let mut mine: Vec<(usize, Result<QueryOutput>)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= queries.len() {
                            return mine;
                        }
                        mine.push((i, executor.run(queries[i])));
                    }
                })
            })
            .collect();
        for h in handles {
            collected.extend(h.join().expect("batch worker panicked"));
        }
    });
    collected.sort_by_key(|(i, _)| *i);
    collected.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcore_ppg::{Attributes, GraphBuilder};

    fn engine_with_people() -> Engine {
        let mut engine = Engine::new();
        let mut b = GraphBuilder::new(engine.catalog().ids().clone());
        let ann = b.node(Attributes::labeled("Person").with_prop("name", "Ann"));
        let bob = b.node(Attributes::labeled("Person").with_prop("name", "Bob"));
        let eve = b.node(Attributes::labeled("Person").with_prop("name", "Eve"));
        b.edge(ann, bob, Attributes::labeled("knows"));
        b.edge(bob, eve, Attributes::labeled("knows"));
        engine.register_graph("people", b.build());
        engine.set_default_graph("people");
        engine
    }

    #[test]
    fn construct_match_roundtrip() {
        let mut engine = engine_with_people();
        let g = engine
            .query_graph("CONSTRUCT (n) MATCH (n:Person)")
            .unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn where_filters() {
        let mut engine = engine_with_people();
        let g = engine
            .query_graph("CONSTRUCT (n) MATCH (n:Person) WHERE n.name = 'Bob'")
            .unwrap();
        assert_eq!(g.node_count(), 1);
    }

    #[test]
    fn graph_view_persists() {
        let mut engine = engine_with_people();
        engine
            .run("GRAPH VIEW only_ann AS (CONSTRUCT (n) MATCH (n) WHERE n.name = 'Ann')")
            .unwrap();
        let g = engine
            .query_graph("CONSTRUCT (n) MATCH (n) ON only_ann")
            .unwrap();
        assert_eq!(g.node_count(), 1);
    }

    #[test]
    fn select_table() {
        let mut engine = engine_with_people();
        let t = engine
            .query_table("SELECT n.name AS name MATCH (n:Person)")
            .unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.columns(), &["name".to_owned()]);
    }

    #[test]
    fn wrong_output_sort_is_an_error() {
        let mut engine = engine_with_people();
        assert!(engine.query_table("CONSTRUCT (n) MATCH (n)").is_err());
        assert!(engine.query_graph("SELECT n.name MATCH (n)").is_err());
    }

    #[test]
    fn writes_bump_the_epoch_and_queries_do_not() {
        let mut engine = Engine::new();
        let e0 = engine.snapshot_epoch();
        engine.register_graph("g", PathPropertyGraph::new());
        assert!(engine.snapshot_epoch() > e0);
        engine.set_default_graph("g");
        let e1 = engine.snapshot_epoch();
        engine.query_graph("CONSTRUCT (n) MATCH (n)").unwrap();
        assert_eq!(engine.snapshot_epoch(), e1); // pure reads don't commit
        engine
            .run("GRAPH VIEW v AS (CONSTRUCT (n) MATCH (n))")
            .unwrap();
        assert!(engine.snapshot_epoch() > e1); // view commit does
    }

    #[test]
    fn snapshot_is_cached_per_epoch() {
        let mut engine = engine_with_people();
        let a = engine.snapshot();
        let b = engine.snapshot();
        assert!(Arc::ptr_eq(&a, &b));
        engine.register_graph("other", PathPropertyGraph::new());
        let c = engine.snapshot();
        assert!(!Arc::ptr_eq(&a, &c));
        assert!(c.epoch() > a.epoch());
    }

    #[test]
    fn save_and_open_round_trip_through_a_backend() {
        use gcore_store::MemBackend;

        let mut engine = engine_with_people();
        engine
            .run("GRAPH VIEW pals AS (CONSTRUCT (n) MATCH (n:Person))")
            .unwrap();
        let backend = MemBackend::new();
        engine.save_to(&backend).unwrap();

        let mut reloaded = Engine::open_from(&backend).unwrap();
        assert_eq!(reloaded.catalog().graph_names(), vec!["pals", "people"]);
        assert_eq!(reloaded.catalog().default_graph_name(), Some("people"));
        // The epoch survives the restart: no client can observe it
        // regress across save → open.
        assert_eq!(reloaded.snapshot_epoch(), engine.snapshot_epoch());
        // The loaded engine serves the same queries cold.
        let t = reloaded
            .query_table("SELECT n.name AS name MATCH (n:Person)")
            .unwrap();
        assert_eq!(t.len(), 3);
        let g = reloaded
            .query_graph("CONSTRUCT (n) MATCH (n) ON pals")
            .unwrap();
        assert_eq!(g.node_count(), 3);
        // Fresh identifiers never collide with stored elements.
        let stored_max = engine
            .graph("people")
            .unwrap()
            .node_ids()
            .map(|n| n.raw())
            .max()
            .unwrap();
        assert!(reloaded.catalog().ids().peek() > stored_max);
    }

    #[test]
    fn run_batch_parallel_returns_results_in_order() {
        let mut engine = engine_with_people();
        let queries = [
            "SELECT n.name AS name MATCH (n:Person)",
            "this does not parse",
            "CONSTRUCT (m) MATCH (n)-[:knows]->(m) WHERE n.name = 'Ann'",
        ];
        for threads in [1, 2, 4, 8] {
            let results = engine.run_batch_parallel(&queries, threads);
            assert_eq!(results.len(), 3);
            assert_eq!(
                results[0]
                    .as_ref()
                    .unwrap()
                    .clone()
                    .into_table()
                    .unwrap()
                    .len(),
                3
            );
            assert!(results[1].is_err());
            assert_eq!(
                results[2]
                    .as_ref()
                    .unwrap()
                    .clone()
                    .into_graph()
                    .unwrap()
                    .node_count(),
                1
            );
        }
    }
}

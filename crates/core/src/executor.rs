//! Read-only query evaluation over a shared engine snapshot.
//!
//! A [`QueryExecutor`] is the concurrent counterpart of
//! [`Engine::run`](crate::Engine::run): it evaluates statements with
//! `&self` against one immutable [`EngineSnapshot`], so any number of
//! executors (or one executor on any number of threads) can evaluate
//! simultaneously with no locking on the evaluation path. All mutable
//! per-query state lives in a thread-local [`EvalCtx`]
//! created per statement; the snapshot itself only serves reads and the
//! (internally synchronized) per-snapshot search caches.
//!
//! Executors are *read-only* by construction: a `GRAPH VIEW name AS
//! (…)` statement evaluates to its materialized graph like any other
//! query, but nothing is registered anywhere — committing the view is
//! the engine's job ([`Engine::eval`](crate::Engine::eval) does it and
//! bumps the snapshot epoch). An executor therefore observes exactly
//! the catalog state of its snapshot's epoch, forever — the
//! snapshot-isolation property the differential tests pin down.

use crate::cancel::CancelToken;
use crate::context::{EvalCtx, EvalOptions};
use crate::diag::Diagnostic;
use crate::error::Result;
use crate::plan::{explain_statement, plan_graph, PlanResolver};
use crate::query::QueryOutput;
use crate::snapshot::EngineSnapshot;
use gcore_parser::ast::{Location, Statement};
use gcore_parser::{parse_script, parse_statement};
use gcore_ppg::{PathPropertyGraph, Table};
use std::sync::Arc;
use std::time::Duration;

/// A `Send + Sync` evaluator of read-only queries over one frozen
/// snapshot. Cheap to clone (one `Arc` bump); see the module docs.
///
/// ```
/// use gcore::Engine;
/// use gcore_ppg::{Attributes, GraphBuilder};
///
/// let mut engine = Engine::new();
/// let mut b = GraphBuilder::new(engine.catalog().ids().clone());
/// let ann = b.node(Attributes::labeled("Person").with_prop("name", "Ann"));
/// let bob = b.node(Attributes::labeled("Person").with_prop("name", "Bob"));
/// b.edge(ann, bob, Attributes::labeled("knows"));
/// engine.register_graph("people", b.build());
/// engine.set_default_graph("people");
///
/// let exec = engine.executor();
/// // `&self` evaluation: share one executor across scoped threads.
/// std::thread::scope(|s| {
///     for _ in 0..2 {
///         s.spawn(|| {
///             let g = exec.query_graph("CONSTRUCT (m) MATCH (n)-[:knows]->(m)").unwrap();
///             assert_eq!(g.node_count(), 1);
///         });
///     }
/// });
/// // The executor still sees its snapshot after later engine writes.
/// assert_eq!(exec.epoch(), engine.snapshot_epoch());
/// ```
#[derive(Clone)]
pub struct QueryExecutor {
    snapshot: Arc<EngineSnapshot>,
    options: EvalOptions,
}

impl QueryExecutor {
    /// An executor evaluating under `options` (how
    /// [`Engine::executor`](crate::Engine::executor) hands its own on).
    pub(crate) fn with_options(snapshot: Arc<EngineSnapshot>, options: EvalOptions) -> Self {
        QueryExecutor { snapshot, options }
    }

    // Inert: intra-query parallelism was removed in PR 12. Kept only
    // because the frozen benchmark calls it (trajectory/src/probes.rs:237,247);
    // the next benchmark PR drops those calls and this shim together.
    #[doc(hidden)]
    pub fn set_parallelism(&mut self, _threads: usize) {}

    /// Install [`EvalOptions::cancel`]: every statement this executor
    /// evaluates polls the token, and cancelling through any clone of
    /// it is observed here.
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.options.cancel = token;
    }

    /// Set [`EvalOptions::statement_deadline`]. Composes with
    /// [`set_cancel_token`](QueryExecutor::set_cancel_token): whichever
    /// fires first wins.
    pub fn set_statement_deadline(&mut self, budget: Option<Duration>) {
        self.options.statement_deadline = budget;
    }

    /// Render, without running it, the plan evaluation would interpret
    /// for each MATCH clause of a statement — under this executor's own
    /// [`EvalOptions::planner`] setting: pattern order, join variables,
    /// where each WHERE conjunct runs (pushed, scan filter, residual)
    /// and, cost-based, the cardinality estimates. The output is
    /// deterministic for a given statement, snapshot and setting.
    pub fn explain(&self, text: &str) -> Result<String> {
        let stmt = parse_statement(text)?;
        let resolve = |on: Option<&Location>| plan_graph(self.snapshot.catalog(), on);
        let stats: Option<&PlanResolver<'_>> = self.options.planner.then_some(&resolve);
        Ok(explain_statement(&stmt, stats))
    }

    /// The snapshot this executor evaluates against.
    pub fn snapshot(&self) -> &Arc<EngineSnapshot> {
        &self.snapshot
    }

    /// The epoch of the underlying snapshot.
    pub fn epoch(&self) -> u64 {
        self.snapshot.epoch()
    }

    /// Parse and evaluate one statement against the snapshot.
    pub fn run(&self, text: &str) -> Result<QueryOutput> {
        let stmt = parse_statement(text)?;
        self.eval(&stmt)
    }

    /// Parse and evaluate a `;`-separated script, returning every
    /// statement's output in order. All statements see the same
    /// snapshot (no statement's view registration is visible to the
    /// next — use [`Engine::run_script`](crate::Engine::run_script) for
    /// that).
    pub fn run_script(&self, text: &str) -> Result<Vec<QueryOutput>> {
        let stmts = parse_script(text)?;
        stmts.iter().map(|s| self.eval(s)).collect()
    }

    /// Statically analyze one statement against the snapshot's catalog
    /// without evaluating anything: every diagnostic (errors *and*
    /// warnings) is returned, ordered by source position. Parse
    /// failures come back as a single `E000` diagnostic.
    #[must_use]
    pub fn check(&self, text: &str) -> Vec<Diagnostic> {
        crate::analyze::check_text(text, self.snapshot.catalog())
    }

    /// [`check`](QueryExecutor::check) for a `;`-separated script.
    /// `GRAPH VIEW` names defined by earlier statements count as known
    /// graphs for later ones.
    #[must_use]
    pub fn check_script(&self, text: &str) -> Vec<Diagnostic> {
        crate::analyze::check_script_text(text, self.snapshot.catalog())
    }

    /// Run a query that must produce a graph.
    pub fn query_graph(&self, text: &str) -> Result<PathPropertyGraph> {
        self.run(text)?.graph_or_wrong_sort()
    }

    /// Run a query that must produce a table (§5 SELECT).
    pub fn query_table(&self, text: &str) -> Result<Table> {
        self.run(text)?.table_or_wrong_sort()
    }

    /// Evaluate an already-parsed statement against the snapshot.
    ///
    /// `GRAPH VIEW` statements evaluate and return their materialized
    /// graph but register nothing (the executor is read-only).
    pub fn eval(&self, stmt: &Statement) -> Result<QueryOutput> {
        self.eval_inner(stmt, false).map(|(out, _)| out)
    }

    /// Parse and evaluate one statement with profiling forced on,
    /// returning the output together with its execution profile
    /// (`EXPLAIN ANALYZE` without the rendering).
    pub fn run_profiled(&self, text: &str) -> Result<(QueryOutput, crate::obs::QueryProfile)> {
        let stmt = parse_statement(text)?;
        self.eval_profiled(&stmt)
    }

    /// [`eval`](QueryExecutor::eval) with profiling forced on,
    /// returning the collected [`QueryProfile`](crate::obs::QueryProfile)
    /// alongside the output.
    pub fn eval_profiled(
        &self,
        stmt: &Statement,
    ) -> Result<(QueryOutput, crate::obs::QueryProfile)> {
        self.eval_inner(stmt, true)
            .map(|(out, profile)| (out, profile.expect("profiling was enabled")))
    }

    /// The one way a statement is evaluated: the analyzer judges it,
    /// then a fresh [`EvalCtx`] evaluates it. The evaluator relies on
    /// that order — the syntactic rules (path modifiers, PATH-view
    /// shape, GROUP conflicts, SET/REMOVE targets) are checked only by
    /// the analyzer.
    fn eval_inner(
        &self,
        stmt: &Statement,
        profiling: bool,
    ) -> Result<(QueryOutput, Option<crate::obs::QueryProfile>)> {
        // Static analysis first: sort mismatches are rejected before
        // any evaluation work (§3 "they must be of the right sort").
        crate::analyze::check_statement(stmt)?;
        let mut options = self.options.clone();
        // The per-statement budget starts now; an explicit token and a
        // deadline compose (whichever fires first cancels).
        if let Some(budget) = options.statement_deadline {
            options.cancel = options.cancel.with_timeout(budget);
        }
        let ctx = EvalCtx::new(self.snapshot.clone(), options, profiling);
        let metrics = &ctx.options.metrics;
        crate::obs::CoreMetrics::add(&metrics.statements, 1);
        let result = ctx.eval_statement(stmt);
        if result.as_ref().is_err_and(|e| e.is_cancelled()) {
            crate::obs::CoreMetrics::add(&metrics.cancellations, 1);
        }
        let output = result?;
        let profile = ctx.profiler.take();
        if let Some(p) = &profile {
            crate::obs::CoreMetrics::add(&metrics.planner_misestimates, p.misestimates);
        }
        Ok((output, profile))
    }
}

// The whole point of the executor: sharable across threads. A compile
// failure here means some snapshot-reachable type regained interior
// mutability that is not Sync.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<QueryExecutor>()
};

#[cfg(test)]
mod tests {
    use crate::engine::Engine;
    use gcore_ppg::{Attributes, GraphBuilder};

    fn engine_with_people() -> Engine {
        let mut engine = Engine::new();
        let mut b = GraphBuilder::new(engine.catalog().ids().clone());
        let ann = b.node(Attributes::labeled("Person").with_prop("name", "Ann"));
        let bob = b.node(Attributes::labeled("Person").with_prop("name", "Bob"));
        b.edge(ann, bob, Attributes::labeled("knows"));
        engine.register_graph("people", b.build());
        engine.set_default_graph("people");
        engine
    }

    #[test]
    fn executor_matches_engine_results() {
        let mut engine = engine_with_people();
        let exec = engine.executor();
        let via_exec = exec.query_graph("CONSTRUCT (n) MATCH (n:Person)").unwrap();
        let via_engine = engine
            .query_graph("CONSTRUCT (n) MATCH (n:Person)")
            .unwrap();
        assert_eq!(via_exec, via_engine);
    }

    #[test]
    fn concurrent_queries_on_scoped_threads() {
        let mut engine = engine_with_people();
        let exec = engine.executor();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        exec.query_table("SELECT n.name AS name MATCH (n:Person)")
                            .unwrap()
                            .len()
                    })
                })
                .collect();
            for h in handles {
                assert_eq!(h.join().unwrap(), 2);
            }
        });
    }

    #[test]
    fn graph_view_is_not_registered() {
        let mut engine = engine_with_people();
        let exec = engine.executor();
        let out = exec
            .run("GRAPH VIEW only_ann AS (CONSTRUCT (n) MATCH (n) WHERE n.name = 'Ann')")
            .unwrap();
        assert_eq!(out.into_graph().unwrap().node_count(), 1);
        // Read-only: neither this executor nor the engine saw a commit.
        assert!(exec
            .query_graph("CONSTRUCT (n) MATCH (n) ON only_ann")
            .is_err());
        assert!(!engine.catalog().has_graph("only_ann"));
    }
}

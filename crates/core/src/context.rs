//! The evaluation context shared by all clauses of one query.
//!
//! Holds the catalog snapshot (plus query-local view overlays), the arena
//! of *fresh* paths computed by path patterns (paths that exist only
//! during evaluation, until a CONSTRUCT stores or projects them), and the
//! PATH-view definitions from the query head.

use crate::binding::Bound;
use crate::cancel::CancelToken;
use crate::error::{EngineError, Result};
use crate::obs::CoreMetrics;
use crate::snapshot::EngineSnapshot;
use gcore_parser::ast::PathClause;
use gcore_ppg::{
    Attributes, Catalog, EdgeId, Key, NodeId, PathPropertyGraph, PathShape, PropertySet, Table,
    Value, ValueInterner,
};
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Duration;

/// A path computed during matching (not yet part of any graph's `P`).
#[derive(Clone, Debug)]
pub enum FreshPath {
    /// A concrete walk with its cost.
    Walk {
        /// The concrete walk.
        shape: PathShape,
        /// Total cost of the walk.
        cost: f64,
        /// Whether the cost came from a weighted PATH view (float) or is
        /// a hop count (integer).
        weighted: bool,
        /// Graph the walk was found in (attribute restriction source).
        graph: Arc<PathPropertyGraph>,
    },
    /// The §3 `ALL`-paths graph projection: every node and edge lying on
    /// some conforming path between the two endpoints (\[10\]).
    Projection {
        /// Projection source node.
        src: NodeId,
        /// Projection destination node.
        dst: NodeId,
        /// Nodes on some conforming walk.
        nodes: Vec<NodeId>,
        /// Edges on some conforming walk.
        edges: Vec<EdgeId>,
        /// Graph the projection was computed in.
        graph: Arc<PathPropertyGraph>,
    },
}

impl FreshPath {
    /// Endpoints of the path/projection.
    pub fn endpoints(&self) -> (NodeId, NodeId) {
        match self {
            FreshPath::Walk { shape, .. } => (shape.start(), shape.end()),
            FreshPath::Projection { src, dst, .. } => (*src, *dst),
        }
    }
}

/// Every setting that steers the evaluation of a statement, declared
/// once: an [`Engine`] owns one, [`Engine::executor`] clones it into the
/// [`QueryExecutor`], and each statement's [`EvalCtx`] is constructed
/// with it and never changes it. No setting may change results — the
/// `*_equivalence` differential suites pin each one.
///
/// [`Engine`]: crate::Engine
/// [`Engine::executor`]: crate::Engine::executor
/// [`QueryExecutor`]: crate::QueryExecutor
#[derive(Clone, Debug)]
pub struct EvalOptions {
    /// Cost-based MATCH planning: join ordering and IN pushdown —
    /// evaluation order, never results. Off plans every clause in syntactic
    /// order (what EXPLAIN then prints), the reference semantics the
    /// differential suites and the planner on/off benchmark compare
    /// against. Defaults to on unless
    /// the `GCORE_PLAN` environment variable is `off`/`0`/`false`.
    pub planner: bool,
    /// Per-statement wall-clock budget, armed on [`cancel`](Self::cancel)
    /// the moment evaluation starts; a statement over it is
    /// cooperatively cancelled at its next loop boundary. Evaluation is
    /// read-only against a snapshot, so an over-budget statement simply
    /// has no result. `None` (the default) = no limit.
    pub statement_deadline: Option<Duration>,
    /// Cooperative cancellation signal. The long loops in the matcher,
    /// the joins and the path searchers poll it; at the next loop
    /// boundary after it fires, evaluation unwinds with
    /// [`RuntimeError::Cancelled`](crate::error::RuntimeError), stable
    /// code `E016`. Defaults to a token that never fires.
    pub cancel: CancelToken,
    /// Counters bumped during evaluation (statements, cancellations,
    /// planner reorders / pushdowns / misestimates). An engine installs
    /// its registry-backed set; the default counts privately.
    pub metrics: CoreMetrics,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            planner: !matches!(
                std::env::var("GCORE_PLAN").as_deref(),
                Ok("off") | Ok("0") | Ok("false")
            ),
            statement_deadline: None,
            cancel: CancelToken::new(),
            metrics: CoreMetrics::standalone(),
        }
    }
}

/// Evaluation context for one top-level query — and its evaluator: the
/// evaluation routines of `query.rs` are methods on it.
///
/// Created per statement from an immutable [`EngineSnapshot`], only by
/// the executor and only after the analyzer has accepted the statement.
/// All the interior mutability here is *query-local* (the context never
/// leaves the evaluating thread), which is what keeps the snapshot
/// itself lock-free and shareable across concurrently evaluating
/// queries.
pub struct EvalCtx {
    /// The frozen engine state this query evaluates against. Shared
    /// read-only with every concurrent query on the same epoch; carries
    /// the per-snapshot search caches.
    pub(crate) snapshot: Arc<EngineSnapshot>,
    /// Catalog overlay seeded from the snapshot (GRAPH … AS views are
    /// registered here and dropped with the context).
    pub(crate) catalog: RefCell<Catalog>,
    /// Arena of computed paths; `Bound::FreshPath` indexes into it.
    pub(crate) fresh_paths: RefCell<Vec<FreshPath>>,
    /// The value pool of the current evaluation scope — the statement,
    /// or one correlated evaluation (see [`EvalCtx::pool`]).
    pool: RefCell<Arc<ValueInterner>>,
    /// PATH views from the query head, innermost last.
    pub(crate) path_views: RefCell<Vec<PathClause>>,
    /// The ambient graph used for pattern predicates in WHERE and for
    /// property access on non-variable expressions.
    pub(crate) ambient: RefCell<Option<Arc<PathPropertyGraph>>>,
    /// Views currently being materialized (cycle guard).
    pub(crate) view_in_progress: RefCell<Vec<String>>,
    /// §5 "interpreting tables as graphs": per-query cache of the
    /// isolated-node graph derived from a table, so several patterns ON
    /// the same table see the same node identities.
    pub(crate) table_graphs: RefCell<std::collections::HashMap<String, Arc<PathPropertyGraph>>>,
    /// The settings this statement evaluates under — fixed at
    /// construction, so nothing below the executor can change them.
    pub(crate) options: EvalOptions,
    /// Per-statement span collector for execution profiles; collects
    /// only for a statement evaluated with profiling (the executor's
    /// `eval_profiled`). Query-local like everything else here, and
    /// guaranteed not to change results.
    pub(crate) profiler: crate::obs::Profiler,
}

impl EvalCtx {
    /// Fresh context over a frozen engine snapshot, evaluating under
    /// `options`, collecting a profile when `profiling` is set.
    pub(crate) fn new(
        snapshot: Arc<EngineSnapshot>,
        options: EvalOptions,
        profiling: bool,
    ) -> Self {
        let catalog = snapshot.catalog().clone();
        let profiler = if profiling {
            crate::obs::Profiler::enabled()
        } else {
            crate::obs::Profiler::disabled()
        };
        EvalCtx {
            snapshot,
            catalog: RefCell::new(catalog),
            fresh_paths: RefCell::new(Vec::new()),
            pool: RefCell::default(),
            path_views: RefCell::new(Vec::new()),
            ambient: RefCell::new(None),
            view_in_progress: RefCell::new(Vec::new()),
            table_graphs: RefCell::new(std::collections::HashMap::new()),
            options,
            profiler,
        }
    }

    /// For unit tests: freeze `catalog` into a throwaway epoch-0
    /// snapshot and build a context over it with default options.
    #[cfg(test)]
    pub(crate) fn from_catalog(catalog: Catalog) -> Self {
        Self::new(
            Arc::new(EngineSnapshot::freeze(catalog, 0)),
            EvalOptions::default(),
            false,
        )
    }

    /// The pool every binding table of the current scope encodes its
    /// literals against, so the codes of any two of them compare as they
    /// are.
    pub(crate) fn pool(&self) -> Arc<ValueInterner> {
        self.pool.borrow().clone()
    }

    /// Run `f` as a correlated evaluation — an `EXISTS` body or a
    /// pattern predicate, once per outer row: a scope of its own, over a
    /// fresh pool, and the enclosing pool back on return. Tables built
    /// inside meet only each other; the outer row enters decoded. A pool
    /// shared with the statement would grow with each row's values, and
    /// each growth re-sorts the pool's whole rank order.
    pub(crate) fn correlated<R>(&self, f: impl FnOnce() -> R) -> R {
        let enclosing = self.pool.replace(Arc::default());
        let out = f();
        self.pool.replace(enclosing);
        out
    }

    /// Intern a fresh path, returning its arena binding.
    pub(crate) fn add_fresh_path(&self, p: FreshPath) -> Bound {
        let mut arena = self.fresh_paths.borrow_mut();
        arena.push(p);
        Bound::FreshPath(arena.len() - 1)
    }

    /// Clone a fresh path out of the arena.
    pub(crate) fn fresh_path(&self, idx: usize) -> FreshPath {
        self.fresh_paths.borrow()[idx].clone()
    }

    /// Resolve a graph by name.
    pub(crate) fn graph(&self, name: &str) -> Result<Arc<PathPropertyGraph>> {
        Ok(self.catalog.borrow().graph(name)?)
    }

    /// Resolve a table by name.
    pub(crate) fn table(&self, name: &str) -> Result<Arc<Table>> {
        Ok(self.catalog.borrow().table(name)?)
    }

    /// The default graph.
    pub(crate) fn default_graph(&self) -> Result<Arc<PathPropertyGraph>> {
        Ok(self.catalog.borrow().default_graph()?)
    }

    /// §5 "interpreting tables as graphs": view a registered table as a
    /// graph of isolated nodes, one per row, whose properties are the
    /// row's non-NULL cells. Node identities are drawn once per query
    /// and cached.
    pub(crate) fn table_as_graph(&self, name: &str) -> Result<Arc<PathPropertyGraph>> {
        if let Some(g) = self.table_graphs.borrow().get(name) {
            return Ok(g.clone());
        }
        let table = self.table(name)?;
        let ids = self.catalog.borrow().ids().clone();
        let keys: Vec<Key> = table.columns().iter().map(|c| Key::new(c)).collect();
        let mut g = PathPropertyGraph::new();
        for row in table.rows() {
            let mut attrs = Attributes::new();
            for (&key, cell) in keys.iter().zip(row) {
                if !matches!(cell, Value::Null) {
                    attrs.set_prop(key, PropertySet::single(cell.clone()));
                }
            }
            g.add_node(ids.node(), attrs);
        }
        let arc = Arc::new(g);
        self.table_graphs
            .borrow_mut()
            .insert(name.to_owned(), arc.clone());
        Ok(arc)
    }

    /// The ambient graph for pattern predicates: the last graph a MATCH
    /// pattern was evaluated on, falling back to the catalog default.
    pub(crate) fn ambient_graph(&self) -> Result<Arc<PathPropertyGraph>> {
        if let Some(g) = self.ambient.borrow().as_ref() {
            return Ok(g.clone());
        }
        self.default_graph()
    }

    /// Set the ambient graph.
    pub(crate) fn set_ambient(&self, g: Arc<PathPropertyGraph>) {
        *self.ambient.borrow_mut() = Some(g);
    }

    /// Find a PATH view by name (most recent definition wins).
    pub(crate) fn path_view(&self, name: &str) -> Result<PathClause> {
        self.path_views
            .borrow()
            .iter()
            .rev()
            .find(|p| p.name == name)
            .cloned()
            .ok_or_else(|| {
                EngineError::Runtime(crate::error::RuntimeError::UnknownPathView(name.to_owned()))
            })
    }
}

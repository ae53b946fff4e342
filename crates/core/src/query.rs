//! The query evaluator: head clauses, MATCH with OPTIONAL, graph set
//! operations, PATH views and subqueries — §A.2, §A.4, §A.5, §A.6.

use crate::binding::{BindingTable, Bound, Column, TableBuilder};
use crate::construct::eval_construct;
use crate::context::{EvalCtx, FreshPath};
use crate::error::{Result, RuntimeError, SemanticError};
use crate::expr::{Compiler, Env};
use crate::matcher::PatternMatcher;
use crate::obs::{CoreMetrics, Profiler, SpanId};
use crate::paths::{Segment, ViewMap, ViewSegments};
use crate::plan::{plan_block, plan_graph, plan_match, PlanBlock, PlanResolver, Reads};
use crate::regex::Nfa;
use crate::select::eval_select;
use gcore_parser::ast::{
    BasicGraphQuery, Connection, Expr, FullGraphQuery, GraphSetOp, HeadClause, Location,
    MatchClause, PathClause, PathPattern, Pattern, Query, QueryBody, QuerySource, Regex, Statement,
};
use gcore_parser::{print_expr, print_pattern_on};
use gcore_ppg::{ops, NodeId, PathPropertyGraph, PathShape, Table, Value, ValueInterner};
use std::sync::Arc;

/// The result of a G-CORE query: a graph (the core language) or a table
/// (the §5 SELECT extension).
// Graphs are by far the common output; boxing them to appease the
// variant-size lint would put every result behind an extra indirection.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum QueryOutput {
    /// A graph result (the core language).
    Graph(PathPropertyGraph),
    /// A table result (the §5 SELECT extension).
    Table(Table),
}

impl QueryOutput {
    /// Unwrap a graph result.
    pub fn into_graph(self) -> Option<PathPropertyGraph> {
        match self {
            QueryOutput::Graph(g) => Some(g),
            QueryOutput::Table(_) => None,
        }
    }

    /// Unwrap a table result.
    pub fn into_table(self) -> Option<Table> {
        match self {
            QueryOutput::Table(t) => Some(t),
            QueryOutput::Graph(_) => None,
        }
    }

    /// The graph, or `WrongOutputSort` (the body of `query_graph`).
    pub(crate) fn graph_or_wrong_sort(self) -> Result<PathPropertyGraph> {
        self.into_graph().ok_or_else(|| {
            SemanticError::WrongOutputSort {
                expected: "graph",
                found: "table",
            }
            .into()
        })
    }

    /// The table, or `WrongOutputSort` (the body of `query_table`).
    pub(crate) fn table_or_wrong_sort(self) -> Result<Table> {
        self.into_table().ok_or_else(|| {
            SemanticError::WrongOutputSort {
                expected: "table",
                found: "graph",
            }
            .into()
        })
    }
}

/// The evaluation of one top-level statement: every routine below runs
/// on the statement's [`EvalCtx`], which `QueryExecutor::eval_inner`
/// builds only after the analyzer has accepted the statement.
impl EvalCtx {
    /// Evaluate a statement. `GRAPH VIEW` definitions evaluate their
    /// query and return the materialized view graph (the engine registers
    /// it persistently).
    pub(crate) fn eval_statement(&self, stmt: &Statement) -> Result<QueryOutput> {
        match stmt {
            Statement::Query(q) => self.eval_query(q, None),
            Statement::GraphView { query, .. } => self.eval_query(query, None),
        }
    }

    /// Evaluate a query: head clauses first (PATH views, query-local
    /// GRAPH views), then the body. Head registrations and the ambient
    /// graph the body's patterns set are scoped — they are rolled back
    /// afterwards, so a subquery never changes what the rest of its
    /// enclosing WHERE reads. With an `outer` row the query is a
    /// correlated evaluation, over a value pool of its own
    /// ([`EvalCtx::correlated`]).
    pub(crate) fn eval_query(&self, q: &Query, outer: Option<&Env<'_>>) -> Result<QueryOutput> {
        let views_before = self.path_views.borrow().len();
        let ambient_before = self.ambient.borrow().clone();
        let mut shadowed: Vec<(String, Option<Arc<PathPropertyGraph>>)> = Vec::new();

        let mut run = || -> Result<QueryOutput> {
            for head in &q.heads {
                match head {
                    HeadClause::Path(pc) => {
                        self.path_views.borrow_mut().push(pc.clone());
                    }
                    HeadClause::Graph(gc) => {
                        let out = self.eval_query(&gc.query, outer)?;
                        let Some(graph) = out.into_graph() else {
                            return Err(SemanticError::GraphExpected(format!(
                                "GRAPH {} AS (…)",
                                gc.name
                            ))
                            .into());
                        };
                        let mut catalog = self.catalog.borrow_mut();
                        let prev = catalog.graph(&gc.name).ok();
                        shadowed.push((gc.name.text.clone(), prev));
                        catalog.register_graph(gc.name.clone(), graph);
                    }
                }
            }
            match &q.body {
                QueryBody::Graph(g) => {
                    Ok(QueryOutput::Graph(self.eval_full_graph_query(g, outer)?))
                }
                QueryBody::Select(s) => {
                    let span = self.profiler.start("select", String::new);
                    let t = eval_select(self, s, outer)?;
                    self.profiler.finish_rows(span, t.len() as u64);
                    Ok(QueryOutput::Table(t))
                }
            }
        };
        let result = match outer {
            Some(_) => self.correlated(run),
            None => run(),
        };

        // Roll back head-clause registrations and the ambient graph.
        self.path_views.borrow_mut().truncate(views_before);
        *self.ambient.borrow_mut() = ambient_before;
        let mut catalog = self.catalog.borrow_mut();
        for (name, prev) in shadowed.into_iter().rev() {
            catalog.unregister_graph(&name);
            if let Some(prev) = prev {
                catalog.register_graph(name, prev);
            }
        }
        result
    }

    /// UNION / INTERSECT / MINUS of basic graph queries (§A.5).
    pub(crate) fn eval_full_graph_query(
        &self,
        q: &FullGraphQuery,
        outer: Option<&Env<'_>>,
    ) -> Result<PathPropertyGraph> {
        match q {
            FullGraphQuery::Basic(b) => {
                let bindings = self.eval_source(b, outer)?;
                let span = self.profiler.start("construct", String::new);
                self.profiler
                    .add_counter(span, "input_rows", bindings.len() as u64);
                let g = eval_construct(self, &b.construct, &bindings, outer)?;
                self.profiler
                    .add_counter(span, "edges", g.edge_count() as u64);
                self.profiler.finish_rows(span, g.node_count() as u64);
                Ok(g)
            }
            FullGraphQuery::SetOp { op, left, right } => {
                let l = self.eval_full_graph_query(left, outer)?;
                let r = self.eval_full_graph_query(right, outer)?;
                let span = self.profiler.start("set-op", || {
                    match op {
                        GraphSetOp::Union => "union",
                        GraphSetOp::Intersect => "intersect",
                        GraphSetOp::Minus => "minus",
                    }
                    .to_owned()
                });
                let g = match op {
                    GraphSetOp::Union => ops::union(&l, &r),
                    GraphSetOp::Intersect => ops::intersect(&l, &r),
                    GraphSetOp::Minus => ops::difference(&l, &r),
                };
                self.profiler.finish_rows(span, g.node_count() as u64);
                Ok(g)
            }
        }
    }

    /// The bindings of a basic query: its MATCH, keeping what its
    /// CONSTRUCT reads, or its `FROM` table.
    fn eval_source(&self, b: &BasicGraphQuery, outer: Option<&Env<'_>>) -> Result<BindingTable> {
        match &b.source {
            QuerySource::Match(m) => {
                self.eval_match(m, Reads::of_construct(&b.construct, m), outer)
            }
            QuerySource::From(table_name) => {
                // §5 "binding table inputs": one binding per row, one
                // value variable per column; NULL cells stay unbound.
                let table = self.table(table_name)?;
                let none = Arc::new(PathPropertyGraph::new());
                let columns: Vec<Column> = table
                    .columns()
                    .iter()
                    .map(|c| Column {
                        var: c.clone(),
                        graph: none.clone(),
                    })
                    .collect();
                let mut b = TableBuilder::new(columns, self.pool());
                for r in table.rows() {
                    let row: Vec<Bound> = r
                        .iter()
                        .map(|v| match v {
                            Value::Null => Bound::Missing,
                            other => Bound::Value(other.clone()),
                        })
                        .collect();
                    b.push(&row);
                }
                Ok(b.finish())
            }
        }
    }

    /// Evaluate a MATCH clause (§A.2) by interpreting its
    /// [`MatchPlan`](crate::plan::MatchPlan) — the object EXPLAIN prints:
    /// the main block, then each OPTIONAL block left-outer-joined in
    /// source order, every block through `eval_block`.
    ///
    /// A top-level clause is planned in the mode `EvalOptions::planner`
    /// selects. A correlated (subquery) clause always runs in syntactic
    /// order: its semantics depend on outer bindings the planner does not
    /// model. `head` is what the clause's consumer reads of the bindings;
    /// a correlated clause keeps every column.
    pub(crate) fn eval_match(
        &self,
        m: &MatchClause,
        head: Reads,
        outer: Option<&Env<'_>>,
    ) -> Result<BindingTable> {
        let prof = &self.profiler;
        let match_span = prof.start("match", || format!("{} pattern(s)", m.patterns.len()));
        let resolve = |on: Option<&Location>| plan_graph(&self.catalog.borrow(), on);
        let (plan_span, stats): (_, Option<&PlanResolver<'_>>) =
            if self.options.planner && outer.is_none() {
                (prof.start("plan", String::new), Some(&resolve))
            } else {
                (SpanId::NONE, None)
            };
        let head = if outer.is_some() { Reads::All } else { head };
        let plan = plan_match(m, stats, head);
        let main = &plan.main;
        let metrics = &self.options.metrics;
        if main.reordered {
            CoreMetrics::add(&metrics.planner_reorders, 1);
        }
        if !main.pushed.is_empty() {
            CoreMetrics::add(&metrics.planner_pushdowns, main.pushed.len() as u64);
        }
        prof.annotate(plan_span, || {
            format!(
                "reordered={} pushed={} residual_conjuncts={}",
                main.reordered,
                main.pushed.len(),
                main.residual.len()
            )
        });
        prof.finish(plan_span);

        let mut table = self.eval_block(main, None, None, None, None, outer)?;
        for opt in &plan.optionals {
            let span = prof.start("optional", || format!("{} pattern(s)", opt.steps.len()));
            let block = self.eval_block(opt, None, None, Some(&table), Some(span), outer)?;
            table = table.left_outer_join(&block, &self.options.cancel)?;
            prof.finish_rows(span, table.len() as u64);
        }
        // Correlated subqueries: Jγ K_{Ω,G} = Jγ K_G ⋉ Ω (§A.2).
        if let Some(o) = outer {
            table = table.semijoin(&env_to_table(o, self.pool()), &self.options.cancel)?;
        }
        prof.finish_rows(match_span, table.len() as u64);
        Ok(table)
    }

    /// Evaluate one planned pattern block — the main block of a MATCH, an
    /// OPTIONAL block, or the extra patterns and WHERE of a PATH view:
    /// match each step on its graph, join it to what the block has so
    /// far, then keep the rows the residual conjuncts accept.
    ///
    /// * `graph`: what every step is matched on (a PATH view's graph);
    ///   `None` resolves each step's own `ON` location.
    /// * `acc`: the table the block starts from (a PATH view's first
    ///   pattern), if not from its first step's.
    /// * `joins_to`: the table the caller joins the result to (OPTIONAL:
    ///   the main table). A step whose start variable `acc` or else
    ///   `joins_to` binds is seeded from those nodes, not matched alone.
    /// * `report`: `None` opens `pattern` / `join` / `where` spans;
    ///   `Some(span)` notes seeds and `pattern_rows` on that span instead.
    fn eval_block(
        &self,
        block: &PlanBlock<'_>,
        graph: Option<&Arc<PathPropertyGraph>>,
        mut acc: Option<BindingTable>,
        joins_to: Option<&BindingTable>,
        report: Option<SpanId>,
        outer: Option<&Env<'_>>,
    ) -> Result<BindingTable> {
        let prof = &self.profiler;
        let muted = Profiler::disabled();
        let spans = if report.is_some() { &muted } else { prof };
        let mut pattern_rows = 0;
        let mut where_graph = None;
        for (pos, step) in block.steps.iter().enumerate() {
            // One poll per pattern: each iteration runs a full pattern
            // match plus a join, so a fired token stops the block
            // before the next (possibly explosive) product.
            self.options.cancel.check()?;
            let graph = match graph {
                Some(g) => g.clone(),
                None => self.resolve_location(step.on)?,
            };
            self.set_ambient(graph.clone());
            if step.original_index + 1 == block.steps.len() {
                where_graph = Some(graph.clone());
            }
            let span = spans.start("pattern", || {
                format!("{}. {}", pos + 1, print_pattern_on(&step.pattern, step.on))
            });
            if !step.drops.is_empty() {
                spans.annotate(span, || format!("[drops {}]", step.drops.join(", ")));
            }
            let seed = start_seed(&step.pattern, &[acc.as_ref(), joins_to]);
            match (&seed, step.estimate) {
                // The planner's estimate is for the pattern matched in
                // isolation, which a seeded pattern is not.
                (Some(ids), _) => prof.annotate(report.unwrap_or(span), || {
                    let var = step.pattern.start.var.as_ref().map_or("", |v| v.as_str());
                    format!("[seeded {var}: {} ids]", ids.len())
                }),
                (None, Some(estimate)) => spans.set_estimate(span, estimate),
                (None, None) => {}
            }
            let matcher = PatternMatcher::new(self, graph).for_step(step);
            let t = matcher.eval_pattern(&step.pattern, outer, seed.as_deref())?;
            pattern_rows += t.len() as u64;
            // `rows` is what is left after the conjuncts this pattern
            // applied; no `where` span will account for them.
            if !step.scan_filters.is_empty() {
                spans.add_counter(span, "scan_filters", step.scan_filters.len() as u64);
            }
            spans.finish_rows(span, t.len() as u64);
            // The first table *is* the accumulated table: no `unit ⋈ t`.
            acc = Some(match acc {
                None => t,
                Some(table) => {
                    let span = spans.start("join", || {
                        let shared: Vec<&str> = t
                            .columns()
                            .iter()
                            .filter(|c| table.column_index(&c.var).is_some())
                            .map(|c| c.var.as_str())
                            .collect();
                        if shared.is_empty() {
                            "on ∅ (product)".to_owned()
                        } else {
                            format!("on {}", shared.join(", "))
                        }
                    });
                    let joined = table.join(&t, &self.options.cancel)?;
                    spans.finish_rows(span, joined.len() as u64);
                    joined
                }
            });
        }
        if let Some(span) = report {
            prof.add_counter(span, "pattern_rows", pattern_rows);
        }
        let mut table = acc.unwrap_or_else(|| BindingTable::unit(self.pool()));
        // WHERE pattern predicates read the graph of the syntactically
        // last pattern, whatever order the steps ran in.
        if let Some(graph) = where_graph {
            self.set_ambient(graph);
        }
        if !block.residual.is_empty() {
            let span = spans.start("where", || {
                let conjuncts: Vec<String> = block.residual.iter().map(|c| print_expr(c)).collect();
                conjuncts.join(" AND ")
            });
            spans.add_counter(span, "input_rows", table.len() as u64);
            table = self.filter_table(table, &block.residual, outer)?;
            spans.finish_rows(span, table.len() as u64);
        }
        Ok(table)
    }

    /// Resolve an `ON location` to a graph; `None` uses the default.
    pub(crate) fn resolve_location(&self, on: Option<&Location>) -> Result<Arc<PathPropertyGraph>> {
        match on {
            None => self.default_graph(),
            Some(Location::Named(name)) => match self.graph(name) {
                Ok(g) => Ok(g),
                // §5: a table name after ON is interpreted as a graph of
                // isolated nodes, one per row.
                Err(graph_err) => self.table_as_graph(name).map_err(|_| graph_err),
            },
            Some(Location::Subquery(q)) => {
                let out = self.eval_query(q, None)?;
                let Some(mut g) = out.into_graph() else {
                    return Err(SemanticError::GraphExpected("ON (subquery)".into()).into());
                };
                // The pattern is about to match against this graph —
                // index it so seeding/expansion run at indexed speed.
                g.build_label_index();
                Ok(Arc::new(g))
            }
        }
    }

    /// Keep the rows on which every one of `conjuncts` is TRUE.
    pub(crate) fn filter_table(
        &self,
        table: BindingTable,
        conjuncts: &[&Expr],
        outer: Option<&Env<'_>>,
    ) -> Result<BindingTable> {
        let mut compiler = Compiler::new(&table, outer);
        let conjuncts: Vec<_> = conjuncts.iter().map(|c| compiler.compile(c)).collect();
        table.try_filter(&self.options.cancel, |ri| {
            let mut env = Env::new(&table, ri);
            env.parent = outer;
            for c in &conjuncts {
                if !c.test(self, &env)? {
                    return Ok(false);
                }
            }
            Ok(true)
        })
    }

    /// Materialize the segments of every PATH view referenced by an NFA
    /// (§A.4), over the given graph.
    pub(crate) fn resolve_views(
        &self,
        nfa: &Nfa,
        graph: &Arc<PathPropertyGraph>,
    ) -> Result<ViewMap> {
        let mut map = ViewMap::default();
        for name in nfa.view_names() {
            let segments = self.view_segments(&name, graph)?;
            map.insert(name, segments);
        }
        Ok(map)
    }

    /// The segment relation of one PATH view over `graph`, as the
    /// snapshot's cache serves or builds it.
    pub(crate) fn view_segments(
        &self,
        name: &str,
        graph: &Arc<PathPropertyGraph>,
    ) -> Result<Arc<ViewSegments>> {
        let defs = self.view_definitions(&[name]);
        let build = || self.build_view(name, graph);
        self.snapshot.view_segments_cached(graph, defs, build)
    }

    /// What an answer over the PATH views `names` is a function of,
    /// besides its graph: the clause of each view, then the clause of
    /// every view they reference, transitively, as this scope resolves
    /// them — the same resolution a build makes. `None` when a name does
    /// not resolve (the build reports it).
    pub(crate) fn view_definitions(&self, names: &[impl AsRef<str>]) -> Option<Vec<PathClause>> {
        let scope = self.path_views.borrow();
        let mut defs: Vec<PathClause> = Vec::new();
        let mut pending: Vec<String> = names.iter().rev().map(|n| n.as_ref().to_owned()).collect();
        while let Some(next) = pending.pop() {
            if defs.iter().any(|d| d.name == next) {
                continue;
            }
            let def = scope.iter().rev().find(|p| p.name == next)?;
            let mut referenced = Vec::new();
            for step in def.patterns.iter().flat_map(|p| &p.steps) {
                if let Connection::Path(PathPattern { regex: Some(r), .. }) = &step.connection {
                    r.walk(&mut |r| {
                        if let Regex::View(v) = r {
                            referenced.push(v.clone());
                        }
                    });
                }
            }
            pending.extend(referenced.into_iter().rev());
            defs.push(def.clone());
        }
        Some(defs)
    }

    /// Build the segment relation of one PATH view for this statement.
    fn build_view(&self, name: &str, graph: &Arc<PathPropertyGraph>) -> Result<ViewSegments> {
        if self.view_in_progress.borrow().iter().any(|n| n == name) {
            return Err(RuntimeError::Other(format!(
                "path view '~{name}' is recursive; recursion through PATH views is not part of \
                 G-CORE"
            ))
            .into());
        }
        let def = self.path_view(name)?;
        self.view_in_progress.borrow_mut().push(name.to_owned());
        let built = self.build_view_segments(&def, graph);
        self.view_in_progress.borrow_mut().pop();
        built
    }

    fn build_view_segments(
        &self,
        def: &PathClause,
        graph: &Arc<PathPropertyGraph>,
    ) -> Result<ViewSegments> {
        let first = def.patterns.first().ok_or_else(|| {
            SemanticError::InvalidPathPattern("PATH clause without a pattern".into())
        })?;
        let matcher = PatternMatcher::new(self, graph.clone());
        let (table, chain) = matcher.eval_chain(first, None, None)?;
        // Non-linear shapes: the remaining comma-separated patterns
        // constrain (and can bind variables usable in COST, footnote 3).
        // With the WHERE they are one more pattern block, on the view's
        // graph, starting from the chain's table.
        let extra = def.patterns[1..].iter().map(|p| (p, None));
        let body = plan_block(extra, def.where_clause.as_ref(), None, Reads::All);
        let unreported = Some(SpanId::NONE);
        let table = self.eval_block(&body, Some(graph), Some(table), None, unreported, None)?;

        let start_idx = table
            .column_index(&chain.node_vars[0])
            .expect("chain column");
        let end_idx = table
            .column_index(chain.node_vars.last().expect("nonempty"))
            .expect("chain column");
        // An anonymous path step binds no walk column to rebuild the
        // segment from.
        let conn_idxs = chain.conn_vars.iter().map(|v| {
            table.column_index(v).ok_or_else(|| {
                SemanticError::InvalidPathPattern(format!(
                    "a path inside PATH view '{}' must be named, as in -/p <…>/->",
                    def.name
                ))
            })
        });
        let conn_idxs = conn_idxs.collect::<std::result::Result<Vec<usize>, _>>()?;
        let node_idxs: Vec<usize> = chain
            .node_vars
            .iter()
            .map(|v| table.column_index(v).expect("chain column"))
            .collect();

        let cost_expr = def
            .cost
            .as_ref()
            .map(|e| Compiler::new(&table, None).compile(e));
        let mut segments = Vec::with_capacity(table.len());
        let mut tick = 0u32;
        for ri in 0..table.len() {
            // A view body can be a product: each of its rows rebuilds a
            // walk, so poll here as the per-row loops of MATCH do.
            self.options.cancel.checkpoint(&mut tick)?;
            let Bound::Node(src) = table.bound(ri, start_idx) else {
                continue;
            };
            let Bound::Node(dst) = table.bound(ri, end_idx) else {
                continue;
            };
            // Reassemble the walk from the chain's bound elements,
            // starting from the first piece.
            // `None` after the loop: the row holds no walk.
            let mut walk: Option<PathShape> = None;
            for (i, &ci) in conn_idxs.iter().enumerate() {
                let Bound::Node(next) = table.bound(ri, node_idxs[i + 1]) else {
                    walk = None;
                    break;
                };
                let piece = match table.bound(ri, ci) {
                    Bound::Edge(e) => {
                        let prev = match table.bound(ri, node_idxs[i]) {
                            Bound::Node(n) => n,
                            _ => {
                                walk = None;
                                break;
                            }
                        };
                        PathShape::new(vec![prev, next], vec![e]).expect("edge step")
                    }
                    Bound::Path(p) => graph.path(p).expect("stored path").shape.clone(),
                    Bound::FreshPath(fi) => match self.fresh_path(fi) {
                        FreshPath::Walk { shape, .. } => shape,
                        FreshPath::Projection { .. } => {
                            return Err(SemanticError::InvalidPathPattern(format!(
                                "ALL path patterns cannot appear inside PATH view '{}'",
                                def.name
                            ))
                            .into())
                        }
                    },
                    _ => {
                        walk = None;
                        break;
                    }
                };
                walk = match walk {
                    None => (piece.start() == src).then_some(piece),
                    Some(w) => w.concat(&piece),
                };
                if walk.is_none() {
                    break;
                }
            }
            let Some(walk) = walk else {
                continue;
            };
            let cost = match &cost_expr {
                None => 1.0,
                Some(expr) => {
                    let rv = expr.eval(self, &Env::new(&table, ri))?;
                    let scalar = rv.as_scalar().and_then(|v| v.as_f64());
                    match scalar {
                        Some(c) if c > 0.0 => c,
                        other => {
                            return Err(RuntimeError::NonPositiveCost {
                                view: def.name.text.clone(),
                                detail: format!("segment {src}→{dst} evaluated COST to {other:?}"),
                            }
                            .into())
                        }
                    }
                }
            };
            segments.push(Segment {
                src,
                dst,
                cost,
                walk,
            });
        }
        Ok(ViewSegments::new(segments, def.cost.is_some(), graph))
    }

    /// `EXISTS (q)` with the current binding visible as outer scope.
    pub(crate) fn eval_exists(&self, q: &Query, env: &Env<'_>) -> Result<bool> {
        // §A.1: Exists q is ⊤ iff the subquery's node set is non-empty.
        match self.eval_query(q, Some(env))? {
            QueryOutput::Graph(g) => Ok(g.node_count() > 0),
            QueryOutput::Table(t) => Ok(!t.is_empty()),
        }
    }

    /// A graph pattern used as a predicate (implicit existential).
    pub(crate) fn eval_pattern_predicate(&self, p: &Pattern, env: &Env<'_>) -> Result<bool> {
        // Implicit existential (§3): the pattern, evaluated on the
        // ambient graph, must have a binding compatible with the current
        // one.
        let graph = self.ambient_graph()?;
        self.correlated(|| {
            let matcher = PatternMatcher::new(self, graph);
            let table = matcher.eval_pattern(p, Some(env), None)?;
            let filtered = table.semijoin(&env_to_table(env, self.pool()), &self.options.cancel)?;
            Ok(!filtered.is_empty())
        })
    }
}

/// The nodes a pattern's start variable can take, when one of `bound`
/// (first match wins) already has the variable as a column of nothing
/// but nodes. The pattern's table is about to be joined to that table on
/// the variable, so rows starting elsewhere could never survive.
fn start_seed(pattern: &Pattern, bound: &[Option<&BindingTable>]) -> Option<Vec<NodeId>> {
    let var = pattern.start.var.as_ref()?;
    let mut tables = bound.iter().flatten();
    tables.find_map(|t| t.column_index(var).map(|col| t.distinct_nodes(col)))?
}

/// Flatten an environment chain into a one-row table over `pool` (inner
/// scopes shadow outer ones).
pub fn env_to_table(env: &Env<'_>, pool: Arc<ValueInterner>) -> BindingTable {
    let mut columns: Vec<Column> = Vec::new();
    let mut row: Vec<Bound> = Vec::new();
    let mut cur = Some(env);
    while let Some(e) = cur {
        for (i, c) in e.table.columns().iter().enumerate() {
            if !columns.iter().any(|x| x.var == c.var) {
                columns.push(c.clone());
                row.push(e.table.bound(e.row, i));
            }
        }
        cur = e.parent;
    }
    let mut b = TableBuilder::new(columns, pool);
    b.push(&row);
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcore_ppg::{Attributes, Catalog};

    /// A head `GRAPH g AS (…)` that shadows a catalog graph puts the
    /// snapshot's own handle back afterwards, not a copy of it, so the
    /// answers the snapshot keeps by graph identity still match it for
    /// the rest of the statement.
    #[test]
    fn a_shadowed_graph_is_restored_as_the_snapshots_handle() {
        let mut g = PathPropertyGraph::new();
        g.add_node(NodeId(1), Attributes::labeled("Person"));
        let mut catalog = Catalog::new();
        catalog.register_graph("g", g);
        catalog.set_default_graph("g");
        let ctx = EvalCtx::from_catalog(catalog);
        let q =
            gcore_parser::parse_query("GRAPH g AS (CONSTRUCT (x)) CONSTRUCT (n) MATCH (n) ON g")
                .expect("parses");
        let out = ctx.eval_query(&q, None).expect("runs");
        assert_eq!(out.into_graph().map(|g| g.node_count()), Some(1));
        let restored = ctx.graph("g").expect("registered");
        let snapshot = ctx.snapshot.catalog().graph("g").expect("registered");
        assert!(Arc::ptr_eq(&restored, &snapshot));
    }
}

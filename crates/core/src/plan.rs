//! Cost-based MATCH planning.
//!
//! The planner sits between parsing and evaluation: it takes one
//! [`MatchClause`] plus the per-graph statistics frozen into the
//! snapshot ([`GraphStats`]) and produces a *rewritten* clause —
//!
//! * **join ordering** — the comma-separated patterns of a MATCH are
//!   natural-joined; the planner picks a greedy least-cardinality order
//!   that prefers patterns sharing variables with the already-planned
//!   prefix, so selective patterns shrink the binding table before
//!   expensive ones touch it;
//! * **IN-conjunct pushdown** — a top-level WHERE conjunct of the shape
//!   `e IN b.key` (with `e` value-bound by some pattern and `b` a
//!   structural node/edge variable) is rewritten into a property entry
//!   `{key = e}` on `b`'s pattern, turning a post-join filter into a
//!   match-time constraint;
//! * **conjunct placement** — [`place_conjuncts`] puts every remaining
//!   top-level conjunct in exactly one place: a *scan filter* the
//!   matcher applies wherever its one node/edge variable is bound, or
//!   the *residual* WHERE evaluated on the joined table. Stats-free, so
//!   evaluation uses it with the planner on or off.
//!
//! Path steps are not planned: how a path pattern is searched follows
//! from what it binds (see [`crate::paths`]), never from statistics.
//!
//! Every rewrite is **semantics-preserving by construction**, never by
//! statistics: stats influence only the *order*, so a
//! plan computed from arbitrary (even adversarial) statistics returns
//! the same bindings as the unplanned evaluation. The differential
//! suite in `tests/planner_equivalence.rs` pins this down.
//!
//! The planned order is observable without running the query through
//! [`Engine::explain`](crate::Engine::explain), which renders the
//! [`MatchPlan`] of every MATCH clause in a statement.

use gcore_parser::ast::{
    BinaryOp, Connection, Direction, Expr, FullGraphQuery, Func, LabelDisjunction, LocatedPattern,
    Location, MatchClause, NodePattern, PathMode, Pattern, PropEntry, Query, QueryBody,
    QuerySource, Statement,
};
use gcore_parser::print_located;
use gcore_ppg::hash::FxHashSet;
use gcore_ppg::{GraphStats, Key, Label, PathPropertyGraph};
use std::fmt::Write as _;
use std::sync::Arc;

/// Resolves a pattern's `ON` location to its graph at *plan* time.
///
/// Plan-time resolution must be side-effect free, so implementations
/// return `None` for anything that would require evaluation (ON
/// subqueries, tables viewed as graphs) — the planner then simply has
/// no statistics for that pattern.
pub type PlanResolver<'a> = dyn Fn(Option<&Location>) -> Option<Arc<PathPropertyGraph>> + 'a;

/// The [`PlanResolver`] over a catalog: side-effect-free location
/// resolution. Subqueries are never evaluated and tables never
/// materialized as graphs — those locations plan without statistics
/// (and inhibit reordering).
pub(crate) fn plan_graph(
    catalog: &gcore_ppg::Catalog,
    on: Option<&Location>,
) -> Option<Arc<PathPropertyGraph>> {
    match on {
        None => catalog.default_graph().ok(),
        Some(Location::Named(name)) => catalog.graph(name).ok(),
        Some(Location::Subquery(_)) => None,
    }
}

/// Fallback cardinalities used when a graph has no statistics. All
/// constants are deterministic, so plans are stable for a given input.
const DEFAULT_NODES: f64 = 1000.0;
const DEFAULT_EDGE_FAN: f64 = 3.0;
const DEFAULT_PATH_FAN: f64 = 8.0;
const DEFAULT_LABEL_FRACTION: f64 = 0.1;
const DEFAULT_PROP_SELECTIVITY: f64 = 0.1;

/// One pattern's slot in the planned evaluation order.
#[derive(Clone, Debug)]
pub struct PlannedPattern {
    /// Index of this pattern in the syntactic (source) order.
    pub original_index: usize,
    /// Estimated binding cardinality of the pattern evaluated alone.
    pub estimate: f64,
    /// Variables shared with the already-planned prefix (sorted); the
    /// natural join runs over these columns.
    pub join_vars: Vec<String>,
}

/// The planner's output for one MATCH clause: a rewritten clause plus
/// everything needed to render a stable EXPLAIN.
#[derive(Clone, Debug)]
pub struct MatchPlan {
    /// The clause to evaluate: patterns permuted into planned order,
    /// pushed conjuncts injected as property entries and removed from
    /// the WHERE. Optionals are never touched.
    pub clause: MatchClause,
    /// Planned order, aligned with `clause.patterns`.
    pub order: Vec<PlannedPattern>,
    /// Whether the planned order differs from the syntactic order.
    pub reordered: bool,
    /// Rendered `e IN b.key` conjuncts that were pushed into patterns.
    pub pushed: Vec<String>,
    /// Human-readable notes (why reordering was skipped, etc.).
    pub notes: Vec<String>,
}

impl MatchPlan {
    /// Position in the planned order of the pattern that was
    /// syntactically last. After evaluating in planned order the
    /// ambient graph must be re-pinned to this pattern's graph so WHERE
    /// pattern predicates observe the same graph as the unplanned
    /// evaluation.
    pub fn syntactic_last_position(&self) -> Option<usize> {
        let last = self.clause.patterns.len().checked_sub(1)?;
        self.order.iter().position(|p| p.original_index == last)
    }
}

/// Plan one MATCH clause. Pure: no evaluation, no catalog mutation —
/// `resolve` is only asked for already-materialized graphs.
pub fn plan_match(m: &MatchClause, resolve: &PlanResolver<'_>) -> MatchPlan {
    let mut clause = m.clone();
    let mut notes = Vec::new();

    // --- IN-conjunct pushdown (unconditional: never gated on stats) ---
    let mut pushed = Vec::new();
    if let Some(w) = clause.where_clause.take() {
        let mut conjuncts = Vec::new();
        split_and(w, &mut conjuncts);
        let mut residual = Vec::new();
        for c in conjuncts {
            if try_push_in(&c, &mut clause.patterns) {
                pushed.push(gcore_parser::print_expr(&c));
            } else {
                residual.push(c);
            }
        }
        clause.where_clause = rebuild_and(residual);
    }

    // --- join ordering ---
    let n = clause.patterns.len();
    let graphs: Vec<Option<Arc<PathPropertyGraph>>> = clause
        .patterns
        .iter()
        .map(|lp| resolve(lp.on.as_ref()))
        .collect();
    let estimates: Vec<f64> = clause
        .patterns
        .iter()
        .zip(&graphs)
        .map(|(lp, g)| pattern_estimate(&lp.pattern, g.as_deref().and_then(|g| g.stats())))
        .collect();

    let order: Vec<usize> = if n > 1 && reorder_safe(&clause, &graphs, &mut notes) {
        greedy_order(&clause, &estimates)
    } else {
        (0..n).collect()
    };
    let reordered = order.iter().enumerate().any(|(i, &o)| i != o);

    // Permute the patterns into planned order and record join vars.
    let mut slots: Vec<Option<gcore_parser::ast::LocatedPattern>> =
        clause.patterns.drain(..).map(Some).collect();
    let mut bound: FxHashSet<String> = FxHashSet::default();
    let mut planned = Vec::with_capacity(n);
    let mut order_info = Vec::with_capacity(n);
    for &idx in &order {
        let lp = slots[idx].take().expect("each pattern planned once");
        let vars = pattern_vars(&lp.pattern);
        let mut join_vars: Vec<String> = vars.intersection(&bound).cloned().collect();
        join_vars.sort_unstable();
        bound.extend(vars);
        order_info.push(PlannedPattern {
            original_index: idx,
            estimate: estimates[idx],
            join_vars,
        });
        planned.push(lp);
    }
    clause.patterns = planned;

    MatchPlan {
        clause,
        order: order_info,
        reordered,
        pushed,
        notes,
    }
}

// ---------------------------------------------------------------------
// Conjunct placement
// ---------------------------------------------------------------------

/// A WHERE conjunct the matcher evaluates wherever it binds `var`.
#[derive(Clone, Copy, Debug)]
pub struct ScanFilter<'a> {
    /// The one variable the conjunct reads: a node or edge variable.
    pub var: &'a str,
    /// The conjunct.
    pub expr: &'a Expr,
}

/// Where each top-level conjunct of one WHERE is evaluated — every
/// conjunct is in exactly one of the two lists.
#[derive(Debug, Default)]
pub struct Placement<'a> {
    /// Applied by the matcher at every site that binds the variable, in
    /// WHERE order.
    pub scan: Vec<ScanFilter<'a>>,
    /// Evaluated on the joined table, in WHERE order.
    pub residual: Vec<&'a Expr>,
}

/// Place the top-level conjuncts of `where_clause` for a block of
/// `patterns` (the main clause, or one OPTIONAL block with its own
/// WHERE). A conjunct becomes a scan filter when
///
/// * it reads exactly one variable, and one of `patterns` binds that
///   variable as a **node or edge** — path, cost and `{k = v}` value
///   variables are bound at sites the matcher does not filter;
/// * it contains no subquery, pattern predicate or aggregate;
/// * every attribute access (`x.k`, `x:L`, `labels(x)`, `nodes(x)`, …)
///   has a plain variable as base: such an access resolves against the
///   variable's own column, while any other base reads the ambient graph,
///   which at scan time is the pattern's and at WHERE time the last
///   pattern's.
///
/// Everything else is residual. A scan filter sees the same cell and the
/// same graph at every binding site as it would on the joined table, so
/// evaluating it only there removes exactly the rows the residual pass
/// would have removed.
pub fn place_conjuncts<'a>(
    where_clause: Option<&'a Expr>,
    patterns: &[LocatedPattern],
) -> Placement<'a> {
    fn conjuncts<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
        match e {
            Expr::Binary(BinaryOp::And, a, b) => {
                conjuncts(a, out);
                conjuncts(b, out);
            }
            other => out.push(other),
        }
    }
    let mut placed = Placement::default();
    let Some(w) = where_clause else {
        return placed;
    };
    let mut all = Vec::new();
    conjuncts(w, &mut all);
    for c in all {
        let mut var = None;
        let scannable = reads_one_column(c, &mut var);
        match var {
            Some(v) if scannable && patterns.iter().any(|lp| binds_element(&lp.pattern, v)) => {
                placed.scan.push(ScanFilter { var: v, expr: c });
            }
            _ => placed.residual.push(c),
        }
    }
    placed
}

/// Walk a conjunct: `false` when it cannot be a scan filter whatever it
/// reads (see [`place_conjuncts`]); otherwise `var` holds the single
/// variable met so far (`None` for a constant expression).
fn reads_one_column<'a>(e: &'a Expr, var: &mut Option<&'a str>) -> bool {
    let is_var = |x: &Expr| matches!(x, Expr::Var(_));
    match e {
        Expr::Var(v) => *var.get_or_insert(v.as_str()) == v.as_str(),
        Expr::Prop(base, _) | Expr::LabelTest(base, _) => {
            is_var(base) && reads_one_column(base, var)
        }
        Expr::Func(f, args) => {
            let reads_graph = matches!(f, Func::Labels | Func::Nodes | Func::Edges | Func::Length);
            (!reads_graph || args.iter().all(is_var))
                && args.iter().all(|a| reads_one_column(a, var))
        }
        Expr::Unary(_, a) => reads_one_column(a, var),
        Expr::Index(a, b) | Expr::Binary(_, a, b) => {
            reads_one_column(a, var) && reads_one_column(b, var)
        }
        Expr::Case {
            operand,
            whens,
            else_,
        } => operand
            .as_deref()
            .into_iter()
            .chain(whens.iter().flat_map(|(c, r)| [c, r]))
            .chain(else_.as_deref())
            .all(|x| reads_one_column(x, var)),
        Expr::Exists(_) | Expr::PatternPredicate(_) | Expr::Aggregate { .. } => false,
        Expr::Int(_)
        | Expr::Float(_)
        | Expr::Str(_)
        | Expr::Bool(_)
        | Expr::Null
        | Expr::DateLit(_) => true,
    }
}

/// Does the pattern bind `var` as a node or an edge — the sites where
/// the matcher applies `var`'s scan filters?
pub(crate) fn binds_element(pattern: &Pattern, var: &str) -> bool {
    let is = |v: &Option<gcore_parser::ast::Ident>| v.as_ref().is_some_and(|v| v.as_str() == var);
    pattern.nodes().any(|n| is(&n.var))
        || pattern.steps.iter().any(|s| match &s.connection {
            Connection::Edge(e) => is(&e.var),
            Connection::Path(_) => false,
        })
}

/// Split an expression into its top-level AND conjuncts (owned).
fn split_and(e: Expr, out: &mut Vec<Expr>) {
    match e {
        Expr::Binary(gcore_parser::ast::BinaryOp::And, a, b) => {
            split_and(*a, out);
            split_and(*b, out);
        }
        other => out.push(other),
    }
}

/// Re-join conjuncts left-associatively, mirroring the parser.
fn rebuild_and(conjuncts: Vec<Expr>) -> Option<Expr> {
    conjuncts
        .into_iter()
        .reduce(|acc, c| Expr::Binary(gcore_parser::ast::BinaryOp::And, Box::new(acc), Box::new(c)))
}

/// Try to rewrite one conjunct `e IN b.key` into a `{key = e}` property
/// entry on `b`'s pattern. Sound iff:
///
/// * `e` is a plain variable that is **value-bound** (appears as a
///   plain-variable property entry on some main pattern) and is not a
///   structural variable anywhere — so the column `e` exists with the
///   same unrolled values in both the original and rewritten clause;
/// * `b` is a structural **node or edge** variable of a main pattern
///   (paths carry no matchable properties).
///
/// The injected entry evaluates in filter form when `e` is already
/// bound in its pattern (exactly the IN membership test) and in binding
/// form otherwise, where the natural join on column `e` restores the
/// same membership semantics. Binding tables are sets, so the unroll
/// introduces no multiplicity.
fn try_push_in(c: &Expr, patterns: &mut [gcore_parser::ast::LocatedPattern]) -> bool {
    let Expr::Binary(gcore_parser::ast::BinaryOp::In, lhs, rhs) = c else {
        return false;
    };
    let Expr::Var(e) = lhs.as_ref() else {
        return false;
    };
    let Expr::Prop(base, key) = rhs.as_ref() else {
        return false;
    };
    let Expr::Var(b) = base.as_ref() else {
        return false;
    };

    let mut value_bound = false;
    for lp in patterns.iter() {
        if structural_vars(&lp.pattern).contains(e.as_str()) {
            return false; // `e` names an element, not a value
        }
        if prop_value_vars(&lp.pattern).contains(e.as_str()) {
            value_bound = true;
        }
    }
    if !value_bound {
        return false;
    }

    for lp in patterns.iter_mut() {
        let entry = PropEntry {
            key: gcore_parser::ast::Ident::new(key.clone(), gcore_parser::token::Span::new(0, 0)),
            value: Expr::Var(e.clone()),
        };
        let pat = &mut lp.pattern;
        if pat.start.var.as_ref().is_some_and(|v| v.text == b.text) {
            pat.start.props.push(entry);
            return true;
        }
        for step in &mut pat.steps {
            if step.node.var.as_ref().is_some_and(|v| v.text == b.text) {
                step.node.props.push(entry);
                return true;
            }
            if let Connection::Edge(edge) = &mut step.connection {
                if edge.var.as_ref().is_some_and(|v| v.text == b.text) {
                    edge.props.push(entry);
                    return true;
                }
            }
        }
    }
    false
}

/// Is it safe to evaluate this clause's patterns in a different order?
///
/// Pattern evaluation is standalone-then-join, so most clauses commute;
/// the exceptions all involve query-global state mutated per pattern:
///
/// * fresh-path arena allocations (`Bound::FreshPath` carries an arena
///   *index*, so allocation order is observable) — path connections
///   must be stored, or pure reachability checks that bind neither the
///   path nor its cost;
/// * the ambient graph read by EXISTS / pattern predicates inside
///   property entries (the residual WHERE is safe: evaluation re-pins
///   the ambient graph of the syntactically last pattern);
/// * `ON` locations the plan-time resolver cannot see (subqueries,
///   tables viewed as graphs — the latter draw node identities in
///   evaluation order).
fn reorder_safe(
    clause: &MatchClause,
    graphs: &[Option<Arc<PathPropertyGraph>>],
    notes: &mut Vec<String>,
) -> bool {
    for (lp, g) in clause.patterns.iter().zip(graphs) {
        if g.is_none() {
            notes.push("order kept: a pattern's ON location is not a named graph".into());
            return false;
        }
        for step in &lp.pattern.steps {
            if let Connection::Path(pp) = &step.connection {
                let pure_reach = pp.var.is_none()
                    && pp.cost_var.is_none()
                    && matches!(pp.mode, PathMode::Shortest(_));
                if !pp.stored && !pure_reach {
                    notes.push("order kept: a path pattern materializes fresh paths".into());
                    return false;
                }
            }
        }
        if pattern_prop_exprs(&lp.pattern).any(contains_subquery) {
            notes.push("order kept: a property entry contains a subquery".into());
            return false;
        }
    }
    true
}

fn contains_subquery(e: &Expr) -> bool {
    match e {
        Expr::Exists(_) | Expr::PatternPredicate(_) => true,
        Expr::Prop(a, _) | Expr::LabelTest(a, _) | Expr::Unary(_, a) => contains_subquery(a),
        Expr::Index(a, b) | Expr::Binary(_, a, b) => contains_subquery(a) || contains_subquery(b),
        Expr::Func(_, args) => args.iter().any(contains_subquery),
        Expr::Aggregate { arg, .. } => arg.as_deref().is_some_and(contains_subquery),
        Expr::Case {
            operand,
            whens,
            else_,
        } => {
            operand.as_deref().is_some_and(contains_subquery)
                || whens
                    .iter()
                    .any(|(c, r)| contains_subquery(c) || contains_subquery(r))
                || else_.as_deref().is_some_and(contains_subquery)
        }
        _ => false,
    }
}

/// Greedy least-cardinality ordering: seed with the cheapest pattern,
/// then repeatedly take the cheapest pattern *connected* to the already
/// chosen prefix (sharing at least one variable), falling back to the
/// cheapest disconnected one (a cross product either way). Ties break
/// on the syntactic index, so plans are deterministic.
fn greedy_order(clause: &MatchClause, estimates: &[f64]) -> Vec<usize> {
    let vars: Vec<FxHashSet<String>> = clause
        .patterns
        .iter()
        .map(|lp| pattern_vars(&lp.pattern))
        .collect();
    let n = clause.patterns.len();
    let mut remaining: Vec<usize> = (0..n).collect();
    let mut order = Vec::with_capacity(n);
    let mut bound: FxHashSet<String> = FxHashSet::default();
    while !remaining.is_empty() {
        let connected = |&i: &usize| !bound.is_disjoint(&vars[i]);
        let candidates: Vec<usize> = if order.is_empty() {
            remaining.clone()
        } else {
            let c: Vec<usize> = remaining.iter().copied().filter(|i| connected(i)).collect();
            if c.is_empty() {
                remaining.clone()
            } else {
                c
            }
        };
        let pick = candidates
            .into_iter()
            .min_by(|&a, &b| estimates[a].total_cmp(&estimates[b]).then(a.cmp(&b)))
            .expect("non-empty candidates");
        remaining.retain(|&i| i != pick);
        bound.extend(vars[pick].iter().cloned());
        order.push(pick);
    }
    order
}

/// All node/edge/path/cost variables declared structurally by a pattern.
pub(crate) fn structural_vars(pattern: &Pattern) -> FxHashSet<String> {
    let mut vars = FxHashSet::default();
    for n in pattern.nodes() {
        if let Some(v) = &n.var {
            vars.insert(v.text.clone());
        }
    }
    for step in &pattern.steps {
        match &step.connection {
            Connection::Edge(e) => {
                if let Some(v) = &e.var {
                    vars.insert(v.text.clone());
                }
            }
            Connection::Path(p) => {
                if let Some(v) = &p.var {
                    vars.insert(v.text.clone());
                }
                if let Some(c) = &p.cost_var {
                    vars.insert(c.text.clone());
                }
            }
        }
    }
    vars
}

/// Variables appearing as plain-variable property-entry values
/// (`{key = e}`): these become value columns of the pattern's table.
fn prop_value_vars(pattern: &Pattern) -> FxHashSet<String> {
    let mut vars = FxHashSet::default();
    for e in pattern_prop_exprs(pattern) {
        if let Expr::Var(v) = e {
            vars.insert(v.text.clone());
        }
    }
    vars
}

/// Every property-entry value expression of a pattern.
fn pattern_prop_exprs(pattern: &Pattern) -> impl Iterator<Item = &Expr> {
    let node_props = pattern.nodes().flat_map(|n| n.props.iter());
    let edge_props = pattern.steps.iter().flat_map(|s| match &s.connection {
        Connection::Edge(e) => e.props.iter(),
        Connection::Path(_) => [].iter(),
    });
    node_props.chain(edge_props).map(|p| &p.value)
}

/// All join-relevant variables of a pattern: structural variables plus
/// plain-variable property values (both become columns).
fn pattern_vars(pattern: &Pattern) -> FxHashSet<String> {
    let mut vars = structural_vars(pattern);
    vars.extend(prop_value_vars(pattern));
    vars
}

// ---------------------------------------------------------------------
// Cardinality estimation
// ---------------------------------------------------------------------

/// Estimated number of bindings for one pattern evaluated standalone:
/// start-node cardinality times the fan-out of each step, each scaled
/// by the selectivity of labels and constant property filters.
fn pattern_estimate(pattern: &Pattern, stats: Option<&GraphStats>) -> f64 {
    let mut est = node_cardinality(&pattern.start, stats);
    for step in &pattern.steps {
        let fan = match &step.connection {
            Connection::Edge(e) => edge_fan(e, stats),
            Connection::Path(_) => path_fan(stats),
        };
        est *= fan * node_selectivity(&step.node, stats);
    }
    est
}

/// Expected nodes matching a node pattern.
fn node_cardinality(np: &NodePattern, stats: Option<&GraphStats>) -> f64 {
    let base = match stats {
        Some(s) => label_cardinality(&np.labels, s),
        None => {
            if np.labels.is_empty() {
                DEFAULT_NODES
            } else {
                DEFAULT_NODES * DEFAULT_LABEL_FRACTION
            }
        }
    };
    base * prop_filter_selectivity(&np.props, stats, true)
}

/// Fraction of candidate nodes surviving a node pattern's label and
/// property constraints (for non-start nodes, whose candidates come
/// from a traversal rather than a scan).
fn node_selectivity(np: &NodePattern, stats: Option<&GraphStats>) -> f64 {
    let label_frac = match stats {
        Some(s) if s.node_count > 0 => {
            (label_cardinality(&np.labels, s) / s.node_count as f64).min(1.0)
        }
        Some(_) => 1.0,
        None => {
            if np.labels.is_empty() {
                1.0
            } else {
                DEFAULT_LABEL_FRACTION
            }
        }
    };
    label_frac * prop_filter_selectivity(&np.props, stats, true)
}

/// Nodes carrying every label group (min over groups; alternatives in a
/// group sum).
fn label_cardinality(groups: &[LabelDisjunction], stats: &GraphStats) -> f64 {
    let total = stats.node_count as f64;
    groups
        .iter()
        .map(|LabelDisjunction(names, _)| {
            names
                .iter()
                .map(|name| match Label::lookup(name) {
                    Some(l) => stats.nodes_with_label(l) as f64,
                    None => 0.0,
                })
                .sum::<f64>()
        })
        .fold(total, f64::min)
}

/// Combined equality selectivity of the *filter-form* property entries
/// (constant values). Plain-variable entries bind rather than filter,
/// so they contribute nothing.
fn prop_filter_selectivity(props: &[PropEntry], stats: Option<&GraphStats>, on_nodes: bool) -> f64 {
    let mut sel = 1.0;
    for p in props {
        if matches!(p.value, Expr::Var(_)) {
            continue;
        }
        sel *= match stats {
            Some(s) => {
                let ps = Key::lookup(p.key.as_str()).and_then(|k| {
                    if on_nodes {
                        s.node_prop(k)
                    } else {
                        s.edge_prop(k)
                    }
                });
                match ps {
                    Some(ps) => ps.eq_selectivity(),
                    None => DEFAULT_PROP_SELECTIVITY,
                }
            }
            None => DEFAULT_PROP_SELECTIVITY,
        };
    }
    sel
}

/// Expected successors per node through one edge step.
fn edge_fan(e: &gcore_parser::ast::EdgePattern, stats: Option<&GraphStats>) -> f64 {
    let fan = match stats {
        Some(s) => match first_label(&e.labels) {
            Some(name) => match Label::lookup(&name).and_then(|l| s.edge_relation(l)) {
                Some(rel) => match e.direction {
                    Direction::Out => rel.avg_out_degree(),
                    Direction::In => rel.avg_in_degree(),
                    Direction::Undirected => rel.avg_out_degree() + rel.avg_in_degree(),
                },
                None => 0.0,
            },
            None => {
                let per_node = if s.node_count > 0 {
                    s.edge_count as f64 / s.node_count as f64
                } else {
                    0.0
                };
                match e.direction {
                    Direction::Undirected => 2.0 * per_node,
                    _ => per_node,
                }
            }
        },
        None => DEFAULT_EDGE_FAN,
    };
    fan * prop_filter_selectivity(&e.props, stats, false)
}

/// Crude fan-out of a path step: reachability typically spans a large
/// multiple of a single edge step; without better information, a flat
/// constant keeps plans stable.
fn path_fan(_stats: Option<&GraphStats>) -> f64 {
    DEFAULT_PATH_FAN
}

/// The label of the first group when that group is a single label — the
/// one an index (or a relation's statistics) can be asked for.
pub(crate) fn first_label(groups: &[LabelDisjunction]) -> Option<String> {
    match groups.first() {
        Some(LabelDisjunction(ls, _)) if ls.len() == 1 => Some(ls[0].clone()),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// EXPLAIN rendering
// ---------------------------------------------------------------------

/// Render the plan of every MATCH clause in a statement, in evaluation
/// order. Subqueries (inside EXISTS, ON, or query heads) evaluate
/// unplanned and are not shown. The output is deterministic for a given
/// statement and catalog — golden tests pin it.
pub fn explain_statement(stmt: &Statement, resolve: &PlanResolver<'_>) -> String {
    let mut out = String::new();
    match stmt {
        Statement::Query(q) => explain_query(q, resolve, &mut out),
        Statement::GraphView { name, query } => {
            let _ = writeln!(out, "GRAPH VIEW {name}:");
            explain_query(query, resolve, &mut out);
        }
    }
    if out.is_empty() {
        out.push_str("no MATCH clause to plan\n");
    }
    out
}

fn explain_query(q: &Query, resolve: &PlanResolver<'_>, out: &mut String) {
    match &q.body {
        QueryBody::Graph(g) => explain_full_graph(g, resolve, out),
        QueryBody::Select(s) => render_match(&s.match_clause, resolve, out),
    }
}

fn explain_full_graph(q: &FullGraphQuery, resolve: &PlanResolver<'_>, out: &mut String) {
    match q {
        FullGraphQuery::Basic(b) => {
            if let QuerySource::Match(m) = &b.source {
                render_match(m, resolve, out);
            }
        }
        FullGraphQuery::SetOp { left, right, .. } => {
            explain_full_graph(left, resolve, out);
            explain_full_graph(right, resolve, out);
        }
    }
}

fn render_match(m: &MatchClause, resolve: &PlanResolver<'_>, out: &mut String) {
    if m.patterns.is_empty() && m.where_clause.is_none() && m.optionals.is_empty() {
        return;
    }
    let plan = plan_match(m, resolve);
    let order_desc = if plan.reordered {
        let idxs: Vec<String> = plan
            .order
            .iter()
            .map(|p| p.original_index.to_string())
            .collect();
        format!("reordered: {}", idxs.join(", "))
    } else {
        "syntactic order".to_string()
    };
    let _ = writeln!(
        out,
        "MATCH: {} pattern{} ({order_desc})",
        plan.order.len(),
        if plan.order.len() == 1 { "" } else { "s" },
    );
    let placed = place_conjuncts(plan.clause.where_clause.as_ref(), &plan.clause.patterns);
    for (i, (slot, lp)) in plan.order.iter().zip(&plan.clause.patterns).enumerate() {
        let join = if slot.join_vars.is_empty() {
            String::new()
        } else {
            format!("  join on {{{}}}", slot.join_vars.join(", "))
        };
        let _ = writeln!(
            out,
            "  {}. {}  ~{} rows{join}",
            i + 1,
            print_located(lp),
            format_estimate(slot.estimate),
        );
        render_scan_filters(&placed, &lp.pattern, out);
    }
    for p in &plan.pushed {
        let _ = writeln!(out, "  pushed into pattern: {p}");
    }
    render_residual(&placed, "  ", out);
    for note in &plan.notes {
        let _ = writeln!(out, "  note: {note}");
    }
    for opt in &m.optionals {
        let _ = writeln!(
            out,
            "  OPTIONAL: {} pattern{} (unplanned)",
            opt.patterns.len(),
            if opt.patterns.len() == 1 { "" } else { "s" },
        );
        let placed = place_conjuncts(opt.where_clause.as_ref(), &opt.patterns);
        for lp in &opt.patterns {
            render_scan_filters(&placed, &lp.pattern, out);
        }
        render_residual(&placed, "     ", out);
    }
}

/// One `scan filter <var>: <expr>` line per conjunct `pattern` applies
/// while binding its variables.
fn render_scan_filters(placed: &Placement<'_>, pattern: &Pattern, out: &mut String) {
    for f in placed.scan.iter().filter(|f| binds_element(pattern, f.var)) {
        let _ = writeln!(
            out,
            "     scan filter {}: {}",
            f.var,
            gcore_parser::print_expr(f.expr)
        );
    }
}

fn render_residual(placed: &Placement<'_>, indent: &str, out: &mut String) {
    let n = placed.residual.len();
    if n > 0 {
        let s = if n == 1 { "" } else { "s" };
        let _ = writeln!(out, "{indent}residual WHERE: {n} conjunct{s}");
    }
}

/// Round an estimate for display; huge or non-finite estimates clamp.
fn format_estimate(x: f64) -> String {
    if !x.is_finite() || x >= 1e15 {
        "1e15+".to_string()
    } else {
        format!("{}", x.round() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcore_parser::parse_query;
    use gcore_ppg::{Attributes, GraphBuilder};

    fn clause_of(src: &str) -> MatchClause {
        let q = parse_query(src).unwrap();
        match q.body {
            QueryBody::Graph(FullGraphQuery::Basic(b)) => match b.source {
                QuerySource::Match(m) => m,
                _ => panic!("expected MATCH"),
            },
            _ => panic!("expected basic graph query"),
        }
    }

    fn people_graph() -> Arc<PathPropertyGraph> {
        let mut b = GraphBuilder::standalone();
        let mut person = Vec::new();
        for i in 0..20 {
            person.push(b.node(Attributes::labeled("Person").with_prop("personId", i64::from(i))));
        }
        let hub = b.node(Attributes::labeled("City"));
        for &p in &person {
            b.edge(p, hub, Attributes::labeled("isLocatedIn"));
        }
        let mut g = b.build();
        g.build_stats();
        Arc::new(g)
    }

    fn resolver(
        g: Arc<PathPropertyGraph>,
    ) -> impl Fn(Option<&Location>) -> Option<Arc<PathPropertyGraph>> {
        move |on| match on {
            None | Some(Location::Named(_)) => Some(g.clone()),
            Some(Location::Subquery(_)) => None,
        }
    }

    #[test]
    fn selective_pattern_is_planned_first() {
        let g = people_graph();
        let m = clause_of("CONSTRUCT (c) MATCH (n:Person), (c:City)");
        let plan = plan_match(&m, &resolver(g));
        // City (1 node) beats Person (20 nodes).
        assert!(plan.reordered);
        assert_eq!(plan.order[0].original_index, 1);
        assert_eq!(plan.order[1].original_index, 0);
    }

    #[test]
    fn connected_patterns_beat_cheaper_cross_products() {
        let g = people_graph();
        let m = clause_of(
            "CONSTRUCT (c) MATCH (n:Person {employer = e}), (c:City), (m:Person {employer = e})",
        );
        let plan = plan_match(&m, &resolver(g));
        // The seed is the cheapest pattern (City); after that both
        // Person patterns join each other on `e` but not City, so the
        // planner still prefers a connected expansion once one Person
        // pattern enters the prefix.
        let pos = |orig: usize| {
            plan.order
                .iter()
                .position(|p| p.original_index == orig)
                .unwrap()
        };
        assert_eq!(plan.order[0].original_index, 1);
        // The two Person patterns must be adjacent (joined on `e`).
        assert_eq!((pos(0) as i64 - pos(2) as i64).abs(), 1);
    }

    #[test]
    fn in_conjunct_is_pushed() {
        let g = people_graph();
        let m = clause_of(
            "CONSTRUCT (b) MATCH (a:Person {employer = e}), (b:Person) \
             WHERE e IN b.employer AND a.personId < 3",
        );
        let plan = plan_match(&m, &resolver(g));
        assert_eq!(plan.pushed.len(), 1);
        // What is left, `a.personId < 3`, is a scan filter on `a`.
        let placed = place_conjuncts(plan.clause.where_clause.as_ref(), &plan.clause.patterns);
        assert_eq!(placed.scan.len(), 1);
        assert_eq!(placed.scan[0].var, "a");
        assert!(placed.residual.is_empty());
        // The entry landed on b's pattern.
        let b_pat = plan
            .clause
            .patterns
            .iter()
            .find(|lp| lp.pattern.start.var.as_ref().is_some_and(|v| v.text == "b"))
            .unwrap();
        assert!(b_pat
            .pattern
            .start
            .props
            .iter()
            .any(|p| p.key.as_str() == "employer"
                && matches!(&p.value, Expr::Var(v) if v.text == "e")));
    }

    #[test]
    fn structural_in_lhs_is_not_pushed() {
        let g = people_graph();
        // `n` is structural: `n IN b.member` must stay in WHERE.
        let m = clause_of("CONSTRUCT (b) MATCH (n:Person), (b:Team) WHERE n IN b.member");
        let plan = plan_match(&m, &resolver(g));
        assert!(plan.pushed.is_empty());
        let placed = place_conjuncts(plan.clause.where_clause.as_ref(), &plan.clause.patterns);
        assert_eq!(placed.residual.len(), 1, "two variables: residual");
        assert!(placed.scan.is_empty());
    }

    /// Every conjunct lands in exactly one list, by the rule in
    /// [`place_conjuncts`]'s docs.
    #[test]
    fn conjuncts_are_placed_once() {
        let m = clause_of(
            "CONSTRUCT (n) MATCH (n:Person {employer = v})-[e:knows]->(m)-/@p:route/->(k) \
             WHERE n.personId < 3 AND e.since > 2000 AND (m:Person) AND labels(m)[0] = 'Person' \
               AND p.hops = 2 AND v = 'Acme' AND n.personId < m.personId \
               AND nodes(p)[1].personId = 4 AND (n)-[:knows]->(k) AND 1 = 1 AND x.age > 3",
        );
        let placed = place_conjuncts(m.where_clause.as_ref(), &m.patterns);
        let scan: Vec<(&str, String)> = placed
            .scan
            .iter()
            .map(|f| (f.var, gcore_parser::print_expr(f.expr)))
            .collect();
        assert_eq!(
            scan,
            vec![
                ("n", "(n.personId < 3)".to_owned()),
                ("e", "(e.since > 2000)".to_owned()),
                ("m", "(m:Person)".to_owned()),
                ("m", "(labels(m)[0] = 'Person')".to_owned()),
            ]
        );
        // Path variable, value variable, two variables, a non-variable
        // base, a pattern predicate, a constant, a variable no pattern
        // binds.
        assert_eq!(placed.residual.len(), 7);
        assert_eq!(
            placed.scan.len() + placed.residual.len(),
            11,
            "each conjunct placed exactly once"
        );
    }

    #[test]
    fn subquery_location_disables_reordering() {
        let g = people_graph();
        let m =
            clause_of("CONSTRUCT (c) MATCH (n:Person), (c:City) ON (CONSTRUCT (x) MATCH (x:City))");
        let plan = plan_match(&m, &resolver(g));
        assert!(!plan.reordered);
        assert!(!plan.notes.is_empty());
    }

    #[test]
    fn fresh_path_patterns_disable_reordering() {
        let g = people_graph();
        let m = clause_of("CONSTRUCT (c) MATCH (n:Person)-/p<:knows*>/->(m), (c:City)");
        let plan = plan_match(&m, &resolver(g.clone()));
        assert!(!plan.reordered);
        // A pure reachability check reorders fine.
        let m2 = clause_of("CONSTRUCT (c) MATCH (n:Person)-/<:knows*>/->(m), (c:City)");
        let plan2 = plan_match(&m2, &resolver(g));
        assert!(plan2.reordered);
    }

    #[test]
    fn explain_renders_deterministically() {
        let g = people_graph();
        let stmt = gcore_parser::parse_statement(
            "CONSTRUCT (c) MATCH (n:Person), (c:City) WHERE n.personId < 3",
        )
        .unwrap();
        let r = resolver(g);
        let a = explain_statement(&stmt, &r);
        let b = explain_statement(&stmt, &r);
        assert_eq!(a, b);
        assert!(a.contains("reordered: 1, 0"), "got:\n{a}");
        assert!(a.contains("scan filter n: (n.personId < 3)"), "got:\n{a}");
        assert!(!a.contains("residual WHERE"), "got:\n{a}");
    }
}

//! MATCH planning: one borrowed program per clause.
//!
//! [`plan_match`] describes how one [`MatchClause`] runs as a
//! [`MatchPlan`]: the main block and every OPTIONAL block in source
//! order, each a [`PlanBlock`] of [`PlanStep`]s (the patterns, in
//! evaluation order) plus the residual WHERE conjuncts for the joined
//! table. `EvalCtx::eval_match` interprets exactly this object and
//! [`explain_statement`] prints it, so EXPLAIN cannot describe a plan
//! evaluation does not run. The plan *borrows* the clause; the only AST
//! it copies is a pattern that receives a pushed entry.
//!
//! A block is planned in one of two modes:
//!
//! * **cost-based** (a [`PlanResolver`] is given: top-level clauses with
//!   `EvalOptions::planner` on) — *join ordering*, a greedy
//!   least-cardinality order over the [`GraphStats`] frozen into the
//!   snapshot that prefers patterns sharing variables with the prefix;
//!   *IN-conjunct pushdown*, a conjunct `e IN b.key` (`e` value-bound by
//!   some pattern, `b` a node/edge variable) becoming a property entry
//!   `{key = e}` on `b`'s pattern; and an estimate on every step;
//! * **syntactic** (no resolver: planner off, correlated subqueries,
//!   OPTIONAL blocks, PATH-view bodies) — source order, no pushdown, no
//!   estimates.
//!
//! Either way each top-level WHERE conjunct is classified exactly once:
//! pushed, *scan filter* (the matcher applies it wherever its one
//! node/edge variable is bound, see [`ScanFilter`]) or *residual*. Path
//! steps are not planned: how a path pattern is searched follows from
//! what it binds (see [`crate::paths`]), never from statistics — except
//! that a key-equality scan filter on the far end of a searching path
//! step is marked as that search's *target* ([`is_target`]), which the
//! matcher resolves to a node set before searching.
//!
//! Every decision is **semantics-preserving by construction**:
//! statistics influence only the *order*, so a plan computed from
//! arbitrary (even adversarial) statistics returns the same bindings as
//! the syntactic one — `tests/planner_equivalence.rs` pins this down.

use crate::obs::format_estimate;
use gcore_parser::ast::{
    BinaryOp, Connection, Direction, Expr, Func, HeadClause, Ident, LabelDisjunction,
    LocatedPattern, Location, MatchClause, NodePattern, PathMode, PathPattern, Pattern, PropEntry,
    Query, Statement,
};
use gcore_parser::{print_expr, print_pattern_on};
use gcore_ppg::hash::FxHashSet;
use gcore_ppg::{GraphStats, Key, Label, PathPropertyGraph};
use std::borrow::Cow;
use std::fmt::Write as _;
use std::sync::Arc;

/// Resolves a pattern's `ON` location to its graph at *plan* time.
///
/// Plan-time resolution must be side-effect free, so implementations
/// return `None` for anything that would require evaluation (ON
/// subqueries, tables viewed as graphs) — such a pattern plans without
/// statistics and inhibits reordering.
pub type PlanResolver<'a> = dyn Fn(Option<&Location>) -> Option<Arc<PathPropertyGraph>> + 'a;

/// The [`PlanResolver`] over a catalog.
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
/// Reachability typically spans a large multiple of a single edge step;
/// without better information a flat fan-out keeps plans stable.
const DEFAULT_PATH_FAN: f64 = 8.0;
const DEFAULT_LABEL_FRACTION: f64 = 0.1;
const DEFAULT_PROP_SELECTIVITY: f64 = 0.1;

/// A WHERE conjunct the matcher evaluates wherever it binds `var`. A
/// conjunct of a block's WHERE is one when
///
/// * it reads exactly one variable, and a pattern of the block binds
///   that variable as a **node or edge** — path, cost and `{k = v}` value
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
///
/// A scan filter on the far end of a path search is also a *target*
/// when [`is_target`] says so: the matcher resolves it to the node set
/// the search is asked to reach before searching.
#[derive(Clone, Copy, Debug)]
pub struct ScanFilter<'a> {
    /// The one variable the conjunct reads: a node or edge variable.
    pub var: &'a str,
    /// The conjunct.
    pub expr: &'a Expr,
    /// Whether the path search that first binds `var` in this step's
    /// pattern resolves the conjunct to its targets (see [`is_target`]).
    pub target: bool,
}

/// One pattern of a block, at its place in the evaluation order.
#[derive(Clone, Debug)]
pub struct PlanStep<'a> {
    /// The pattern to match: the clause's own, or a copy carrying the
    /// property entries pushed into it.
    pub pattern: Cow<'a, Pattern>,
    /// Its `ON` location (`None`: the default graph).
    pub on: Option<&'a Location>,
    /// Index of this pattern in the syntactic (source) order.
    pub original_index: usize,
    /// Estimated binding cardinality of the pattern evaluated alone
    /// (cost-based mode only).
    pub estimate: Option<f64>,
    /// Variables shared with the earlier steps (sorted); the natural
    /// join runs over these columns.
    pub join_vars: Vec<String>,
    /// The block's scan filters on variables this pattern binds, in
    /// WHERE order.
    pub scan_filters: Vec<ScanFilter<'a>>,
}

/// How one pattern block runs — a MATCH's main block, one OPTIONAL
/// block with its own WHERE, or the body of a PATH view.
#[derive(Clone, Debug, Default)]
pub struct PlanBlock<'a> {
    /// The patterns in evaluation order.
    pub steps: Vec<PlanStep<'a>>,
    /// The `e IN b.key` conjuncts that became property entries.
    pub pushed: Vec<&'a Expr>,
    /// Conjuncts evaluated on the joined table, in WHERE order.
    pub residual: Vec<&'a Expr>,
    /// Whether the evaluation order differs from the syntactic order.
    pub reordered: bool,
    /// Why a cost-based block kept the syntactic order, if it had to.
    pub note: Option<&'static str>,
}

/// How one MATCH clause runs: what evaluation interprets and EXPLAIN
/// prints.
#[derive(Clone, Debug)]
pub struct MatchPlan<'a> {
    /// The comma-separated patterns and the WHERE.
    pub main: PlanBlock<'a>,
    /// The OPTIONAL blocks, in source order, each in syntactic order.
    pub optionals: Vec<PlanBlock<'a>>,
}

/// A pattern with its location while a block is being planned.
type Located<'a> = (Cow<'a, Pattern>, Option<&'a Location>);

/// Plan one MATCH clause: cost-based when `stats` is given, in syntactic
/// order otherwise. Pure: no evaluation, no catalog mutation — `stats`
/// is only asked for already-materialized graphs.
pub fn plan_match<'a>(m: &'a MatchClause, stats: Option<&PlanResolver<'_>>) -> MatchPlan<'a> {
    fn located(ps: &[LocatedPattern]) -> impl Iterator<Item = (&Pattern, Option<&Location>)> {
        ps.iter().map(|lp| (&lp.pattern, lp.on.as_ref()))
    }
    MatchPlan {
        main: plan_block(located(&m.patterns), m.where_clause.as_ref(), stats),
        optionals: (m.optionals.iter())
            .map(|o| plan_block(located(&o.patterns), o.where_clause.as_ref(), None))
            .collect(),
    }
}

/// Plan one block of `patterns` filtered by `where_clause`, in the mode
/// `stats` selects (see the module docs).
pub fn plan_block<'a>(
    patterns: impl Iterator<Item = (&'a Pattern, Option<&'a Location>)>,
    where_clause: Option<&'a Expr>,
    stats: Option<&PlanResolver<'_>>,
) -> PlanBlock<'a> {
    let mut patterns: Vec<Located<'a>> = patterns.map(|(p, on)| (Cow::Borrowed(p), on)).collect();
    let n = patterns.len();
    let mut block = PlanBlock::default();

    // --- every conjunct in exactly one place ---
    let mut scan = Vec::new();
    for c in where_clause.map(Expr::conjuncts).unwrap_or_default() {
        // Pushdown is unconditional in cost-based mode: never gated on
        // statistics.
        if stats.is_some() && try_push_in(c, &mut patterns) {
            block.pushed.push(c);
        } else if let Some(var) = scan_var(c, &patterns) {
            scan.push(ScanFilter {
                var,
                expr: c,
                target: false,
            });
        } else {
            block.residual.push(c);
        }
    }

    // --- join ordering ---
    // Every binder is a column of the pattern's table: the join keys.
    let binders = |p: &Pattern| p.binders().map(|(v, _)| v.text.clone()).collect();
    let vars: Vec<FxHashSet<String>> = patterns.iter().map(|(p, _)| binders(p)).collect();
    let mut order: Vec<usize> = (0..n).collect();
    let mut estimates = Vec::new();
    if let Some(resolve) = stats {
        let graphs: Vec<_> = patterns.iter().map(|(_, on)| resolve(*on)).collect();
        estimates = (patterns.iter().zip(&graphs))
            .map(|((p, _), g)| pattern_estimate(p, g.as_deref().and_then(|g| g.stats())))
            .collect();
        if n > 1 {
            match reorder_safe(&patterns, &graphs) {
                Ok(()) => order = greedy_order(&vars, &estimates),
                Err(why) => block.note = Some(why),
            }
        }
    }
    block.reordered = order.iter().enumerate().any(|(i, &o)| i != o);

    let mut bound: FxHashSet<&str> = FxHashSet::default();
    let mut slots: Vec<Option<Located<'a>>> = patterns.into_iter().map(Some).collect();
    for &idx in &order {
        let shared = vars[idx].iter().filter(|v| bound.contains(v.as_str()));
        let mut join_vars: Vec<String> = shared.cloned().collect();
        join_vars.sort_unstable();
        bound.extend(vars[idx].iter().map(String::as_str));
        let (pattern, on) = slots[idx].take().expect("each pattern planned once");
        let binds = |f: &&ScanFilter<'a>| {
            pattern
                .binders()
                .any(|(v, r)| r.is_element() && *v == f.var)
        };
        let placed = |f: &ScanFilter<'a>| ScanFilter {
            target: is_target(&pattern, f.var, f.expr),
            ..*f
        };
        block.steps.push(PlanStep {
            scan_filters: scan.iter().filter(binds).map(placed).collect(),
            pattern,
            on,
            original_index: idx,
            estimate: estimates.get(idx).copied(),
            join_vars,
        });
    }
    block
}

// ---------------------------------------------------------------------
// Conjunct classification
// ---------------------------------------------------------------------

/// The variable at whose binding sites the matcher evaluates conjunct
/// `c`, when `c` can be a [`ScanFilter`] of a block of `patterns`.
fn scan_var<'a>(c: &'a Expr, patterns: &[Located<'_>]) -> Option<&'a str> {
    let mut var = None;
    if !reads_one_column(c, &mut var) {
        return None;
    }
    // The matcher applies scan filters where it binds a node or an edge.
    let mut binders = patterns.iter().flat_map(|(p, _)| p.binders());
    var.filter(|v| binders.any(|(b, r)| r.is_element() && b == v))
}

/// Walk a conjunct: `false` when it cannot be a scan filter whatever it
/// reads (see [`ScanFilter`]); otherwise `var` holds the single variable
/// met so far (`None` for a constant expression).
fn reads_one_column<'a>(e: &'a Expr, var: &mut Option<&'a str>) -> bool {
    let is_var = |x: &Expr| matches!(x, Expr::Var(_));
    let local = match e {
        Expr::Var(v) => return *var.get_or_insert(v.as_str()) == v.as_str(),
        Expr::Prop(base, _) | Expr::LabelTest(base, _) => is_var(base),
        Expr::Func(f, args) => {
            let reads_graph = matches!(f, Func::Labels | Func::Nodes | Func::Edges | Func::Length);
            !reads_graph || args.iter().all(is_var)
        }
        Expr::Exists(_) | Expr::PatternPredicate(_) | Expr::Aggregate { .. } => false,
        _ => true,
    };
    local && e.children().all(|c| reads_one_column(c, var))
}

/// Does the scan filter `var` ← `c` of `pattern` become the target set of
/// a path search? Iff
///
/// * `var` is first bound in `pattern` as the far end of a path step that
///   searches for walks or projections — a `k SHORTEST` or `ALL` step, or
///   a shortest step binding its path or cost; a pure reachability test
///   answers from its shared condensation instead, which targets would
///   not make cheaper;
/// * `c` is `var.key = literal` in either operand order, with an integer,
///   float, string or boolean literal: evaluating it on a node the search
///   would never have reached cannot raise an error the unrestricted
///   search would not raise.
///
/// Such a filter keeps exactly the destinations it would keep after an
/// unrestricted search, so resolving it first (over the destination's
/// label group) and searching towards the result returns the same rows.
/// This is the one place that rule lives: the matcher reads the flag it
/// sets, EXPLAIN prints it (`targets from m: …`).
pub fn is_target(pattern: &Pattern, var: &str, c: &Expr) -> bool {
    let is_var = |e: &Expr| matches!(e, Expr::Var(v) if v.as_str() == var);
    let is_literal = |e: &Expr| {
        matches!(
            e,
            Expr::Int(_) | Expr::Float(_) | Expr::Str(_) | Expr::Bool(_)
        )
    };
    let key_equality = match c {
        Expr::Binary(BinaryOp::Eq, l, r) => match (l.as_ref(), r.as_ref()) {
            (Expr::Prop(base, _), lit) | (lit, Expr::Prop(base, _)) => {
                is_var(base) && is_literal(lit)
            }
            _ => false,
        },
        _ => false,
    };
    key_equality && first_bound_by_search(pattern, var)
}

/// Is `var` first bound in `pattern` as the far end of a searching path
/// step (see [`is_target`])?
fn first_bound_by_search(pattern: &Pattern, var: &str) -> bool {
    let is = |v: &Option<Ident>| v.as_ref().is_some_and(|v| v.as_str() == var);
    if is(&pattern.start.var) {
        return false;
    }
    for step in &pattern.steps {
        match &step.connection {
            Connection::Edge(e) if is(&e.var) => return false,
            Connection::Path(p) if is(&p.var) || is(&p.cost_var) => return false,
            _ => {}
        }
        if is(&step.node.var) {
            return matches!(&step.connection, Connection::Path(p) if !p.stored && !pure_reach(p));
        }
    }
    false
}

/// A path step that binds neither its path nor its cost and asks for
/// shortest walks: only *whether* its far end is reachable matters, and
/// it allocates no fresh path.
pub(crate) fn pure_reach(p: &PathPattern) -> bool {
    p.var.is_none() && p.cost_var.is_none() && matches!(p.mode, PathMode::Shortest(_))
}

/// Try to turn one conjunct `e IN b.key` into a `{key = e}` property
/// entry on `b`'s pattern. Sound iff:
///
/// * `e` is a plain variable that is **value-bound** (appears as a
///   plain-variable property entry on some pattern of the block) and is
///   not a structural variable anywhere — so the column `e` exists with
///   the same unrolled values with or without the entry;
/// * `b` is a structural **node or edge** variable of a pattern of the
///   block (paths carry no matchable properties).
///
/// The injected entry evaluates in filter form when `e` is already
/// bound in its pattern (exactly the IN membership test) and in binding
/// form otherwise, where the natural join on column `e` restores the
/// same membership semantics. Binding tables are sets, so the unroll
/// introduces no multiplicity.
fn try_push_in(c: &Expr, patterns: &mut [Located<'_>]) -> bool {
    let Expr::Binary(BinaryOp::In, lhs, rhs) = c else {
        return false;
    };
    let (Expr::Var(e), Expr::Prop(base, key)) = (lhs.as_ref(), rhs.as_ref()) else {
        return false;
    };
    let Expr::Var(b) = base.as_ref() else {
        return false;
    };

    let mut value_bound = false;
    for (v, role) in patterns.iter().flat_map(|(p, _)| p.binders()) {
        if v == e && role.is_structural() {
            return false; // `e` names an element, not a value
        }
        value_bound |= v == e;
    }
    if !value_bound {
        return false;
    }
    let binds_b = |p: &Cow<'_, Pattern>| p.binders().any(|(v, r)| r.is_element() && v == b);
    let Some((pattern, _)) = patterns.iter_mut().find(|(p, _)| binds_b(p)) else {
        return false;
    };
    // The first site binding `b` takes the entry; `to_mut` is the one
    // copy of clause AST that planning makes.
    let pattern = pattern.to_mut();
    let is_b = |v: &Option<Ident>| v.as_ref().is_some_and(|v| v.text == b.text);
    let entry = PropEntry {
        key: Ident::new(key.clone(), gcore_parser::token::Span::new(0, 0)),
        value: Expr::Var(e.clone()),
    };
    if is_b(&pattern.start.var) {
        pattern.start.props.push(entry);
        return true;
    }
    for step in &mut pattern.steps {
        if is_b(&step.node.var) {
            step.node.props.push(entry);
            return true;
        }
        if let Connection::Edge(edge) = &mut step.connection {
            if is_b(&edge.var) {
                edge.props.push(entry);
                return true;
            }
        }
    }
    unreachable!("`b` is bound as an element in this pattern")
}

/// Is it safe to evaluate this block's patterns in a different order
/// (`Err`: the reason it is not)?
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
    patterns: &[Located<'_>],
    graphs: &[Option<Arc<PathPropertyGraph>>],
) -> Result<(), &'static str> {
    for ((pattern, _), g) in patterns.iter().zip(graphs) {
        if g.is_none() {
            return Err("order kept: a pattern's ON location is not a named graph");
        }
        for step in &pattern.steps {
            if let Connection::Path(pp) = &step.connection {
                if !pp.stored && !pure_reach(pp) {
                    return Err("order kept: a path pattern materializes fresh paths");
                }
            }
        }
        let subquery = |e: &Expr| matches!(e, Expr::Exists(_) | Expr::PatternPredicate(_));
        if pattern.prop_entries().any(|p| p.value.any(&subquery)) {
            return Err("order kept: a property entry contains a subquery");
        }
    }
    Ok(())
}

/// Greedy least-cardinality ordering: seed with the cheapest pattern,
/// then repeatedly take the cheapest pattern *connected* to the already
/// chosen prefix (sharing at least one variable), falling back to the
/// cheapest disconnected one (a cross product either way). Ties break
/// on the syntactic index, so plans are deterministic.
fn greedy_order(vars: &[FxHashSet<String>], estimates: &[f64]) -> Vec<usize> {
    let mut remaining: Vec<usize> = (0..vars.len()).collect();
    let mut order = Vec::with_capacity(vars.len());
    let mut bound: FxHashSet<&str> = FxHashSet::default();
    while !remaining.is_empty() {
        let connected = |i: usize| vars[i].iter().any(|v| bound.contains(v.as_str()));
        let any_connected = remaining.iter().any(|&i| connected(i));
        let pick = (remaining.iter().copied())
            .filter(|&i| !any_connected || connected(i))
            .min_by(|&a, &b| estimates[a].total_cmp(&estimates[b]).then(a.cmp(&b)))
            .expect("non-empty candidates");
        remaining.retain(|&i| i != pick);
        bound.extend(vars[pick].iter().map(String::as_str));
        order.push(pick);
    }
    order
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
            Connection::Path(_) => DEFAULT_PATH_FAN,
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

/// Render the [`MatchPlan`] of every MATCH clause a statement evaluates
/// with a plan of its own, in evaluation order and in the mode `stats`
/// selects (as in [`plan_match`]): head `GRAPH g AS (…)` queries and
/// `ON (subquery)` locations indented under their clause, then the body.
/// A pattern `ON` a head view plans without statistics here — the view
/// exists only during evaluation. Correlated subqueries (EXISTS, pattern
/// predicates) always run in syntactic order per outer row and are not
/// shown. The output is deterministic for a given statement and catalog
/// — golden tests pin it.
pub fn explain_statement(stmt: &Statement, stats: Option<&PlanResolver<'_>>) -> String {
    let mut out = String::new();
    match stmt {
        Statement::Query(q) => explain_query(q, stats, &mut out),
        Statement::GraphView { name, query } => {
            let _ = writeln!(out, "GRAPH VIEW {name}:");
            explain_query(query, stats, &mut out);
        }
    }
    if out.is_empty() {
        out.push_str("no MATCH clause to plan\n");
    }
    out
}

fn explain_query(q: &Query, stats: Option<&PlanResolver<'_>>, out: &mut String) {
    for head in &q.heads {
        if let HeadClause::Graph(gc) = head {
            let _ = writeln!(out, "GRAPH {}:", gc.name);
            explain_nested(&gc.query, "  ", stats, out);
        }
    }
    for m in q.body.match_clauses() {
        render_match(m, stats, out);
    }
}

/// [`explain_query`] with every line behind `indent`.
fn explain_nested(q: &Query, indent: &str, stats: Option<&PlanResolver<'_>>, out: &mut String) {
    let mut nested = String::new();
    explain_query(q, stats, &mut nested);
    for line in nested.lines() {
        let _ = writeln!(out, "{indent}{line}");
    }
}

fn plural(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

fn render_match(m: &MatchClause, stats: Option<&PlanResolver<'_>>, out: &mut String) {
    if m.patterns.is_empty() && m.where_clause.is_none() && m.optionals.is_empty() {
        return;
    }
    let plan = plan_match(m, stats);
    let steps = &plan.main.steps;
    let order = if plan.main.reordered {
        let idxs: Vec<String> = steps.iter().map(|s| s.original_index.to_string()).collect();
        format!("reordered: {}", idxs.join(", "))
    } else {
        "syntactic order".to_string()
    };
    let n = steps.len();
    let _ = writeln!(out, "MATCH: {n} pattern{} ({order})", plural(n));
    render_block(&plan.main, true, stats, out);
    for opt in &plan.optionals {
        let n = opt.steps.len();
        let _ = writeln!(out, "  OPTIONAL: {n} pattern{} (unplanned)", plural(n));
        render_block(opt, false, stats, out);
    }
}

/// The lines of one block: per step its numbered pattern line (main
/// block only — an OPTIONAL block always runs in source order), the scan
/// filters it applies and the plan of its `ON (subquery)`; then what was
/// pushed, the residual count and the reorder note.
fn render_block(
    block: &PlanBlock<'_>,
    main: bool,
    stats: Option<&PlanResolver<'_>>,
    out: &mut String,
) {
    for (i, step) in block.steps.iter().enumerate() {
        if main {
            let text = print_pattern_on(&step.pattern, step.on);
            let _ = write!(out, "  {}. {text}", i + 1);
            if let Some(est) = step.estimate {
                let _ = write!(out, "  ~{} rows", format_estimate(est));
            }
            if !step.join_vars.is_empty() {
                let _ = write!(out, "  join on {{{}}}", step.join_vars.join(", "));
            }
            out.push('\n');
        }
        for f in &step.scan_filters {
            let kind = if f.target {
                "targets from"
            } else {
                "scan filter"
            };
            let _ = writeln!(out, "     {kind} {}: {}", f.var, print_expr(f.expr));
        }
        if let Some(Location::Subquery(q)) = step.on {
            let _ = writeln!(out, "     ON subquery:");
            explain_nested(q, "       ", stats, out);
        }
    }
    for p in &block.pushed {
        let _ = writeln!(out, "  pushed into pattern: {}", print_expr(p));
    }
    let n = block.residual.len();
    if n > 0 {
        let indent = if main { "  " } else { "     " };
        let _ = writeln!(out, "{indent}residual WHERE: {n} conjunct{}", plural(n));
    }
    if let Some(note) = block.note {
        let _ = writeln!(out, "  note: {note}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcore_parser::ast::{FullGraphQuery, QueryBody, QuerySource};
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
        Arc::new(b.build())
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
        let plan = plan_match(&m, Some(&resolver(g))).main;
        // City (1 node) beats Person (20 nodes).
        assert!(plan.reordered);
        assert_eq!(plan.steps[0].original_index, 1);
        assert_eq!(plan.steps[1].original_index, 0);
    }

    #[test]
    fn connected_patterns_beat_cheaper_cross_products() {
        let g = people_graph();
        let m = clause_of(
            "CONSTRUCT (c) MATCH (n:Person {employer = e}), (c:City), (m:Person {employer = e})",
        );
        let plan = plan_match(&m, Some(&resolver(g))).main;
        // The seed is the cheapest pattern (City); after that both
        // Person patterns join each other on `e` but not City, so the
        // planner still prefers a connected expansion once one Person
        // pattern enters the prefix.
        let pos = |orig: usize| {
            plan.steps
                .iter()
                .position(|p| p.original_index == orig)
                .unwrap()
        };
        assert_eq!(plan.steps[0].original_index, 1);
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
        let plan = plan_match(&m, Some(&resolver(g))).main;
        assert_eq!(plan.pushed.len(), 1);
        assert!(plan.residual.is_empty());
        for step in &plan.steps {
            let start = &step.pattern.start;
            if start.var.as_ref().is_some_and(|v| v.text == "b") {
                // The entry landed on a copy of b's pattern.
                assert!(matches!(step.pattern, Cow::Owned(_)));
                assert!(start.props.iter().any(|p| p.key.as_str() == "employer"
                    && matches!(&p.value, Expr::Var(v) if v.text == "e")));
                assert_eq!(step.join_vars, ["e"]);
            } else {
                // What is left, `a.personId < 3`, is a scan filter on `a`,
                // whose pattern the plan only borrows.
                assert!(matches!(step.pattern, Cow::Borrowed(_)));
                assert_eq!(step.scan_filters.len(), 1);
                assert_eq!(step.scan_filters[0].var, "a");
            }
        }
        // Syntactic mode: no pushdown, the conjunct is residual.
        let off = plan_match(&m, None).main;
        assert!(off.pushed.is_empty() && !off.reordered);
        assert_eq!(off.residual.len(), 1);
        assert!(off.steps.iter().all(|s| s.estimate.is_none()));
    }

    #[test]
    fn structural_in_lhs_is_not_pushed() {
        let g = people_graph();
        // `n` is structural: `n IN b.member` must stay in WHERE.
        let m = clause_of("CONSTRUCT (b) MATCH (n:Person), (b:Team) WHERE n IN b.member");
        let plan = plan_match(&m, Some(&resolver(g))).main;
        assert!(plan.pushed.is_empty());
        assert_eq!(plan.residual.len(), 1, "two variables: residual");
        assert!(plan.steps.iter().all(|s| s.scan_filters.is_empty()));
    }

    /// Every conjunct lands in exactly one list, by the rule in
    /// [`ScanFilter`]'s docs.
    #[test]
    fn conjuncts_are_placed_once() {
        let m = clause_of(
            "CONSTRUCT (n) MATCH (n:Person {employer = v})-[e:knows]->(m)-/@p:route/->(k) \
             WHERE n.personId < 3 AND e.since > 2000 AND (m:Person) AND labels(m)[0] = 'Person' \
               AND p.hops = 2 AND v = 'Acme' AND n.personId < m.personId \
               AND nodes(p)[1].personId = 4 AND (n)-[:knows]->(k) AND 1 = 1 AND x.age > 3",
        );
        let plan = plan_match(&m, None).main;
        let scan: Vec<(&str, String)> = plan.steps[0]
            .scan_filters
            .iter()
            .map(|f| (f.var, print_expr(f.expr)))
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
        assert_eq!(plan.residual.len(), 7);
        assert_eq!(
            scan.len() + plan.residual.len(),
            11,
            "each conjunct placed exactly once"
        );
    }

    #[test]
    fn subquery_location_disables_reordering() {
        let g = people_graph();
        let m =
            clause_of("CONSTRUCT (c) MATCH (n:Person), (c:City) ON (CONSTRUCT (x) MATCH (x:City))");
        let plan = plan_match(&m, Some(&resolver(g))).main;
        assert!(!plan.reordered);
        assert!(plan.note.is_some());
    }

    #[test]
    fn fresh_path_patterns_disable_reordering() {
        let g = people_graph();
        let m = clause_of("CONSTRUCT (c) MATCH (n:Person)-/p<:knows*>/->(m), (c:City)");
        let plan = plan_match(&m, Some(&resolver(g.clone()))).main;
        assert!(!plan.reordered);
        // A pure reachability check reorders fine.
        let m2 = clause_of("CONSTRUCT (c) MATCH (n:Person)-/<:knows*>/->(m), (c:City)");
        let plan2 = plan_match(&m2, Some(&resolver(g))).main;
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
        let a = explain_statement(&stmt, Some(&r));
        let b = explain_statement(&stmt, Some(&r));
        assert_eq!(a, b);
        assert!(a.contains("reordered: 1, 0"), "got:\n{a}");
        assert!(a.contains("scan filter n: (n.personId < 3)"), "got:\n{a}");
        assert!(!a.contains("residual WHERE"), "got:\n{a}");
    }
}

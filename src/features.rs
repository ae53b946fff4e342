//! Static feature detection over G-CORE ASTs — the machinery behind the
//! reproduction of **Table 1** ("Overview of G-CORE features and their
//! line occurrences in the example queries in Section 3").
//!
//! [`detect`] walks a parsed statement and reports every language
//! feature it uses; the Table 1 experiment cross-checks the detected
//! features of each corpus query against the paper's feature × line
//! matrix.

use gcore_parser::ast::{
    BinaryOp, Connection, ConstructClause, ConstructConnection, ConstructItem, Expr,
    FullGraphQuery, HeadClause, Location, MatchClause, PathMode, Pattern, Query, QueryBody,
    QuerySource, Statement,
};
use std::collections::BTreeSet;
use std::fmt;

/// A G-CORE language feature, following the rows of Table 1 (plus the §5
/// tabular extensions).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Feature {
    /// Homomorphic graph pattern matching (every MATCH).
    HomomorphicMatching,
    /// Literal / variable bindings inside element patterns (`{k = v}`).
    MatchingLiteralValues,
    /// `k SHORTEST` path patterns.
    KShortestPaths,
    /// Unbounded path expressions used as reachability tests.
    Reachability,
    /// Weighted shortest paths (PATH … COST).
    WeightedShortestPaths,
    /// OPTIONAL matching.
    OptionalMatching,
    /// Patterns over more than one graph (multiple ON locations).
    MultiGraphQuery,
    /// Matching *stored* paths (`-/@p:Label/->`).
    QueriesOnPaths,
    /// WHERE filtering of matches.
    FilteringMatches,
    /// WHERE conditions inside PATH clauses.
    FilteringPathExpressions,
    /// Equality joins on property values.
    ValueJoin,
    /// Comma patterns without shared variables (Cartesian product).
    CartesianProduct,
    /// The IN (set-membership) operator.
    ListMembership,
    /// UNION / INTERSECT / MINUS on graphs (incl. the CONSTRUCT
    /// graph-name shorthand).
    GraphSetOps,
    /// Implicit existential subqueries (patterns as predicates).
    ImplicitExists,
    /// Explicit EXISTS subqueries.
    ExplicitExists,
    /// Graph construction (every CONSTRUCT).
    GraphConstruction,
    /// Graph aggregation (GROUP in CONSTRUCT).
    GraphAggregation,
    /// Graph projection of paths (path constructs).
    GraphProjection,
    /// Graph views (GRAPH VIEW / head GRAPH / PATH clauses).
    GraphViews,
    /// Property addition via SET / `{k := e}` on bound elements.
    PropertyAddition,
    /// §5: SELECT tabular projection.
    TabularProjection,
    /// §5: FROM binding-table input.
    TabularInput,
}

impl fmt::Display for Feature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Feature::HomomorphicMatching => "matching all patterns (homomorphism)",
            Feature::MatchingLiteralValues => "matching literal values",
            Feature::KShortestPaths => "matching k shortest paths",
            Feature::Reachability => "matching all shortest paths (reachability)",
            Feature::WeightedShortestPaths => "matching weighted shortest paths",
            Feature::OptionalMatching => "(multi-segment) optional matching",
            Feature::MultiGraphQuery => "querying multiple graphs",
            Feature::QueriesOnPaths => "queries on paths",
            Feature::FilteringMatches => "filtering matches",
            Feature::FilteringPathExpressions => "filtering path expressions",
            Feature::ValueJoin => "value joins",
            Feature::CartesianProduct => "cartesian product",
            Feature::ListMembership => "list membership",
            Feature::GraphSetOps => "set operations on graphs",
            Feature::ImplicitExists => "existential subqueries (implicit)",
            Feature::ExplicitExists => "existential subqueries (explicit)",
            Feature::GraphConstruction => "graph construction",
            Feature::GraphAggregation => "graph aggregation",
            Feature::GraphProjection => "graph projection",
            Feature::GraphViews => "graph views",
            Feature::PropertyAddition => "property addition",
            Feature::TabularProjection => "tabular projection (SELECT, §5)",
            Feature::TabularInput => "tabular input (FROM, §5)",
        };
        // `pad` (not `write_str`) so callers' width/alignment specifiers
        // apply when printing the Table 1 matrix.
        f.pad(name)
    }
}

/// Detect every feature used by a statement.
pub fn detect(stmt: &Statement) -> BTreeSet<Feature> {
    let mut out = BTreeSet::new();
    match stmt {
        Statement::Query(q) => walk_query(q, &mut out),
        Statement::GraphView { query, .. } => {
            out.insert(Feature::GraphViews);
            walk_query(query, &mut out);
        }
    }
    out
}

fn walk_query(q: &Query, out: &mut BTreeSet<Feature>) {
    for head in &q.heads {
        match head {
            HeadClause::Path(pc) => {
                out.insert(Feature::GraphViews);
                if pc.cost.is_some() {
                    out.insert(Feature::WeightedShortestPaths);
                }
                if let Some(w) = &pc.where_clause {
                    out.insert(Feature::FilteringPathExpressions);
                    walk_expr(w, out);
                }
            }
            HeadClause::Graph(gc) => {
                out.insert(Feature::GraphViews);
                walk_query(&gc.query, out);
            }
        }
    }
    match &q.body {
        QueryBody::Graph(fgq) => walk_fgq(fgq, out),
        QueryBody::Select(s) => {
            out.insert(Feature::TabularProjection);
            walk_match(&s.match_clause, out);
            for item in &s.items {
                walk_expr(&item.expr, out);
            }
        }
    }
}

fn walk_fgq(q: &FullGraphQuery, out: &mut BTreeSet<Feature>) {
    if let FullGraphQuery::SetOp { .. } = q {
        out.insert(Feature::GraphSetOps);
    }
    for b in q.basic_queries() {
        walk_construct(&b.construct, out);
        match &b.source {
            QuerySource::Match(m) => walk_match(m, out),
            QuerySource::From(_) => {
                out.insert(Feature::TabularInput);
            }
        }
    }
}

fn walk_construct(c: &ConstructClause, out: &mut BTreeSet<Feature>) {
    out.insert(Feature::GraphConstruction);
    for item in &c.items {
        match item {
            // The `CONSTRUCT social_graph, …` shorthand is a graph union.
            ConstructItem::GraphName(_) => {
                out.insert(Feature::GraphSetOps);
            }
            ConstructItem::Pattern(p) => {
                let mut nodes = vec![&p.start];
                for s in &p.steps {
                    nodes.push(&s.node);
                }
                for n in nodes {
                    if n.group.is_some() {
                        out.insert(Feature::GraphAggregation);
                    }
                    if !n.assigns.is_empty() && n.var.is_some() {
                        out.insert(Feature::PropertyAddition);
                    }
                }
                for s in &p.steps {
                    match &s.connection {
                        ConstructConnection::Edge(e) => {
                            if e.group.is_some() {
                                out.insert(Feature::GraphAggregation);
                            }
                            if !e.assigns.is_empty() {
                                out.insert(Feature::PropertyAddition);
                            }
                        }
                        ConstructConnection::Path(_) => {
                            out.insert(Feature::GraphProjection);
                        }
                    }
                }
                if !p.sets.is_empty() {
                    out.insert(Feature::PropertyAddition);
                }
                if let Some(w) = &p.when {
                    walk_expr(w, out);
                }
            }
        }
    }
}

fn walk_match(m: &MatchClause, out: &mut BTreeSet<Feature>) {
    out.insert(Feature::HomomorphicMatching);

    // Multiple distinct locations ⇒ multi-graph query.
    let locations: BTreeSet<String> = m
        .patterns
        .iter()
        .filter_map(|lp| match &lp.on {
            Some(Location::Named(n)) => Some(n.text.clone()),
            _ => None,
        })
        .collect();
    if locations.len() > 1 {
        out.insert(Feature::MultiGraphQuery);
    }

    // Disjoint comma patterns ⇒ Cartesian product.
    if m.patterns.len() > 1 {
        let var_sets: Vec<BTreeSet<&str>> = m
            .patterns
            .iter()
            .map(|lp| pattern_vars(&lp.pattern))
            .collect();
        'outer: for i in 0..var_sets.len() {
            for j in (i + 1)..var_sets.len() {
                if var_sets[i].is_disjoint(&var_sets[j]) {
                    out.insert(Feature::CartesianProduct);
                    break 'outer;
                }
            }
        }
    }

    for lp in &m.patterns {
        walk_pattern(&lp.pattern, out);
        if let Some(Location::Subquery(q)) = &lp.on {
            walk_query(q, out);
        }
    }
    if let Some(w) = &m.where_clause {
        out.insert(Feature::FilteringMatches);
        walk_expr(w, out);
    }
    for opt in &m.optionals {
        out.insert(Feature::OptionalMatching);
        for lp in &opt.patterns {
            walk_pattern(&lp.pattern, out);
        }
        if let Some(w) = &opt.where_clause {
            out.insert(Feature::FilteringMatches);
            walk_expr(w, out);
        }
    }
}

/// The variables a pattern's shape binds (`{k = v}` values aside).
fn pattern_vars(p: &Pattern) -> BTreeSet<&str> {
    let structural = p.binders().filter(|(_, role)| role.is_structural());
    structural.map(|(v, _)| v.as_str()).collect()
}

fn walk_pattern(p: &Pattern, out: &mut BTreeSet<Feature>) {
    for n in p.nodes() {
        if !n.props.is_empty() {
            out.insert(Feature::MatchingLiteralValues);
        }
    }
    for s in &p.steps {
        match &s.connection {
            Connection::Edge(e) => {
                if !e.props.is_empty() {
                    out.insert(Feature::MatchingLiteralValues);
                }
            }
            Connection::Path(pp) => {
                if pp.stored {
                    out.insert(Feature::QueriesOnPaths);
                } else {
                    match pp.mode {
                        PathMode::Shortest(k) if k > 1 => {
                            out.insert(Feature::KShortestPaths);
                        }
                        PathMode::Shortest(_) if pp.var.is_none() => {
                            out.insert(Feature::Reachability);
                        }
                        _ => {}
                    }
                    if pp.cost_var.is_some() {
                        out.insert(Feature::KShortestPaths);
                    }
                }
            }
        }
    }
}

fn walk_expr(e: &Expr, out: &mut BTreeSet<Feature>) {
    match e {
        Expr::Binary(op, a, b) => {
            match op {
                BinaryOp::In => {
                    out.insert(Feature::ListMembership);
                }
                BinaryOp::Eq
                    // A value join equates two non-literal expressions.
                    if !matches!(
                        (a.as_ref(), b.as_ref()),
                        (_, Expr::Str(_) | Expr::Int(_) | Expr::Float(_) | Expr::Bool(_))
                            | (Expr::Str(_) | Expr::Int(_) | Expr::Float(_) | Expr::Bool(_), _)
                    ) => {
                        out.insert(Feature::ValueJoin);
                    }
                _ => {}
            }
        }
        Expr::Exists(q) => {
            out.insert(Feature::ExplicitExists);
            walk_query(q, out);
        }
        Expr::PatternPredicate(p) => {
            out.insert(Feature::ImplicitExists);
            walk_pattern(p, out);
        }
        _ => {}
    }
    for c in e.children() {
        walk_expr(c, out);
    }
}

/// Table 1 of the paper: every feature row with the paper's line
/// occurrences. `None` lines mean "all queries" (the paper prints `*`).
pub const TABLE1: &[(Feature, Option<&[u32]>)] = &[
    (Feature::HomomorphicMatching, None),
    (Feature::MatchingLiteralValues, Some(&[18, 22])),
    (Feature::KShortestPaths, Some(&[24])),
    (Feature::Reachability, Some(&[29])),
    (Feature::WeightedShortestPaths, Some(&[60])),
    (Feature::OptionalMatching, Some(&[44])),
    (Feature::MultiGraphQuery, Some(&[6])),
    (Feature::QueriesOnPaths, Some(&[69])),
    (
        Feature::FilteringMatches,
        Some(&[4, 8, 13, 18, 26, 30, 34, 59, 64, 71]),
    ),
    (Feature::FilteringPathExpressions, Some(&[58])),
    (Feature::ValueJoin, Some(&[8])),
    (Feature::CartesianProduct, Some(&[11])),
    (Feature::ListMembership, Some(&[13])),
    (Feature::GraphSetOps, Some(&[8, 14, 19])),
    (Feature::ImplicitExists, Some(&[27, 31, 35])),
    (Feature::ExplicitExists, Some(&[36])),
    (Feature::GraphConstruction, None),
    (Feature::GraphAggregation, Some(&[21])),
    (Feature::GraphProjection, Some(&[23])),
    (Feature::GraphViews, Some(&[39, 57])),
    (Feature::PropertyAddition, Some(&[41])),
];

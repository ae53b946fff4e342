//! `gcore-check`: multi-pass static analysis over G-CORE statements.
//!
//! The paper's formalism keeps node, edge, path and value variables in
//! disjoint universes (N, E, P, V of §A.1) — "when using bound
//! variables in a CONSTRUCT, they must be of the right sort: it would
//! be illegal to use n (a node) in the place of y (an edge)" (§3).
//! This module rejects such confusions — and a dozen other static
//! problems — *before* evaluation, as [`Diagnostic`]s with stable codes
//! and byte-precise spans.
//!
//! Analysis is **collect-all**: one [`analyze_statement`] call walks the
//! whole statement and reports every finding at once, instead of
//! bailing on the first. Two modes exist:
//!
//! * **structural** (`catalog: None`) — everything derivable from the
//!   AST alone: sort inference (E001), unbound variables (E002), the
//!   OPTIONAL shared-variable rule (E003), misplaced aggregates (E004),
//!   malformed path patterns (E006), GROUP conflicts (E007), graph-
//!   where-SELECT confusions (E008), static CONSTRUCT rules
//!   (E009/E012/E013/E014), plus the unused-variable (W101),
//!   shadowing (W102), Cartesian-product (W103) and constant-
//!   expression (W106/W107) lints. This is the mode
//!   [`check_statement`] uses to gate evaluation.
//! * **catalog-aware** (`catalog: Some(…)`) — additionally resolves
//!   names against a [`CatalogSummary`]: unknown graphs/tables/path
//!   views (E005) and labels or property keys that exist nowhere in
//!   the catalog (W104/W105). This is what
//!   [`Engine::check`](crate::Engine::check) and
//!   [`QueryExecutor::check`](crate::QueryExecutor::check) run.
//!
//! Error-severity diagnostics block evaluation (wrapped in
//! [`SemanticError::Analysis`]); warnings never do.

use crate::diag::{DiagCode, Diagnostic};
use crate::error::{Result, SemanticError};
use gcore_parser::ast::{
    BasicGraphQuery, BinaryOp, BinderRole, Connection, ConstructClause, ConstructItem,
    ConstructPattern, Expr, FullGraphQuery, HeadClause, Ident, LocatedPattern, Location,
    MatchClause, PathClause, PathMode, Pattern, Query, QueryBody, QuerySource, Regex, RemoveItem,
    SelectQuery, SetItem, Statement,
};
use gcore_parser::token::Span;
use gcore_ppg::{Catalog, Key, Label};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

// ---------------------------------------------------------------------
// Sorts and scopes
// ---------------------------------------------------------------------

/// The sort of a variable, inferred from its binding positions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Sort {
    /// Bound at a node position `(x)`.
    Node,
    /// Bound at an edge position `-[e]-`.
    Edge,
    /// Bound at a path position `-/p/-`.
    Path,
    /// Bound to a literal value (`{k = v}` unrolling, `COST c`, FROM
    /// columns).
    Value,
}

impl fmt::Display for Sort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(match self {
            Sort::Node => "a node variable",
            Sort::Edge => "an edge variable",
            Sort::Path => "a path variable",
            Sort::Value => "a value variable",
        })
    }
}

/// What the analyzer knows about one bound variable.
#[derive(Clone, Copy, Debug)]
struct VarInfo {
    sort: Sort,
    /// Where the variable was first bound.
    span: Span,
    /// Referenced anywhere after binding (W101).
    used: bool,
    /// Bound by an enclosing query (EXISTS correlation); never warned
    /// about here.
    inherited: bool,
    /// Bound implicitly (FROM table columns); never warned about.
    implicit: bool,
    /// Bound by an `ALL` path pattern (E009 tracking).
    all_path: bool,
}

/// Variables in scope during analysis of one basic query.
#[derive(Clone, Default, Debug)]
struct Scope {
    vars: BTreeMap<String, VarInfo>,
    /// An *open* scope binds unknown variables (a `FROM table` whose
    /// columns we cannot see without a catalog): suppress E002.
    open: bool,
}

impl Scope {
    fn binds(&self, name: &str) -> bool {
        self.vars.contains_key(name)
    }

    fn sort(&self, name: &str) -> Option<Sort> {
        self.vars.get(name).map(|v| v.sort)
    }

    /// A child scope for a correlated subquery: every current binding
    /// is visible but marked inherited.
    fn child(&self) -> Scope {
        let mut c = self.clone();
        for v in c.vars.values_mut() {
            v.inherited = true;
        }
        c
    }

    /// Propagate usage recorded in a child scope back to this one.
    fn absorb_usage(&mut self, child: &Scope) {
        for (name, info) in &child.vars {
            if info.used {
                if let Some(mine) = self.vars.get_mut(name) {
                    mine.used = true;
                }
            }
        }
    }

    fn mark_used(&mut self, name: &str) {
        if let Some(v) = self.vars.get_mut(name) {
            v.used = true;
        }
    }
}

// ---------------------------------------------------------------------
// Catalog summary
// ---------------------------------------------------------------------

/// A cheap, immutable digest of a catalog for name-resolution lints:
/// which graphs and tables exist, and the union of all labels and
/// property keys their elements carry.
#[derive(Clone, Default, Debug)]
pub struct CatalogSummary {
    graphs: BTreeSet<String>,
    tables: BTreeSet<String>,
    table_columns: BTreeMap<String, Vec<String>>,
    labels: BTreeSet<String>,
    keys: BTreeSet<String>,
}

impl CatalogSummary {
    /// Summarize `catalog`: one pass over every element of every graph,
    /// collecting label and key symbols; each distinct one is named once.
    #[must_use]
    pub fn of(catalog: &Catalog) -> CatalogSummary {
        let mut s = CatalogSummary::default();
        let (mut labels, mut keys) = (BTreeSet::<Label>::new(), BTreeSet::<Key>::new());
        for name in catalog.graph_names() {
            let Ok(graph) = catalog.graph(&name) else {
                continue;
            };
            let nodes = graph.nodes().map(|(_, d)| &d.attrs);
            let edges = graph.edges().map(|(_, d)| &d.attrs);
            let paths = graph.paths().map(|(_, d)| &d.attrs);
            for attrs in nodes.chain(edges).chain(paths) {
                labels.extend(attrs.labels.iter());
                keys.extend(attrs.properties.keys());
            }
            s.graphs.insert(name);
        }
        s.labels.extend(labels.into_iter().map(Label::name));
        s.keys.extend(keys.into_iter().map(Key::name));
        for name in catalog.table_names() {
            if let Ok(table) = catalog.table(&name) {
                // `MATCH (o) ON table` exposes columns as properties.
                s.keys.extend(table.columns().iter().cloned());
                s.table_columns
                    .insert(name.clone(), table.columns().to_vec());
            }
            s.tables.insert(name);
        }
        s
    }
}

// ---------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------

/// Analyze one statement, returning every diagnostic found, ordered by
/// source position. Pass a [`CatalogSummary`] to enable the
/// name-resolution lints (E005, W104, W105); `None` runs the purely
/// structural passes.
#[must_use]
pub fn analyze_statement(stmt: &Statement, catalog: Option<&CatalogSummary>) -> Vec<Diagnostic> {
    analyze_with_extra_graphs(stmt, catalog, &BTreeSet::new())
}

/// Analyze a parsed script. `GRAPH VIEW` names defined by earlier
/// statements count as known graphs for later ones (matching
/// [`Engine::run_script`](crate::Engine::run_script) semantics).
#[must_use]
pub fn analyze_script(stmts: &[Statement], catalog: Option<&CatalogSummary>) -> Vec<Diagnostic> {
    let mut known_views: BTreeSet<String> = BTreeSet::new();
    let mut out = Vec::new();
    for stmt in stmts {
        out.extend(analyze_with_extra_graphs(stmt, catalog, &known_views));
        if let Statement::GraphView { name, .. } = stmt {
            known_views.insert(name.text.clone());
        }
    }
    out
}

fn analyze_with_extra_graphs(
    stmt: &Statement,
    catalog: Option<&CatalogSummary>,
    extra_graphs: &BTreeSet<String>,
) -> Vec<Diagnostic> {
    let mut a = Analyzer {
        diags: Vec::new(),
        catalog,
        graph_scope: extra_graphs.iter().cloned().collect(),
        views: Vec::new(),
        // A statement that reads a script-defined view works against a
        // schema the catalog cannot know (the view may compute labels
        // and properties) — schema lints would be guesses there.
        lint_schema: !references_any(stmt, extra_graphs),
    };
    a.statement(stmt);
    a.diags.sort_by(|x, y| {
        (x.span.start, x.span.end, x.code.as_str()).cmp(&(
            y.span.start,
            y.span.end,
            y.code.as_str(),
        ))
    });
    a.diags
}

/// Convert a parse failure into its `E000` diagnostic, so `check`
/// callers get a uniform report for arbitrary input.
#[must_use]
pub fn parse_diagnostic(e: &gcore_parser::ParseError) -> Diagnostic {
    // ParseError's own Display appends position and snippet lines; the
    // diagnostic renderer re-derives those from the span.
    let full = e.to_string();
    let message = full
        .lines()
        .next()
        .and_then(|l| l.split(" at line ").next())
        .unwrap_or("syntax error")
        .to_owned();
    Diagnostic::new(DiagCode::ParseError, e.span, message)
}

/// Parse one statement and analyze it against `catalog`: the body of
/// `check` on both [`Engine`](crate::Engine) (live catalog) and
/// [`QueryExecutor`](crate::QueryExecutor) (snapshot catalog).
pub(crate) fn check_text(text: &str, catalog: &Catalog) -> Vec<Diagnostic> {
    match gcore_parser::parse_statement(text) {
        Err(e) => vec![parse_diagnostic(&e)],
        Ok(stmt) => analyze_statement(&stmt, Some(&CatalogSummary::of(catalog))),
    }
}

/// [`check_text`] for a `;`-separated script (the body of `check_script`).
pub(crate) fn check_script_text(text: &str, catalog: &Catalog) -> Vec<Diagnostic> {
    match gcore_parser::parse_script(text) {
        Err(e) => vec![parse_diagnostic(&e)],
        Ok(stmts) => analyze_script(&stmts, Some(&CatalogSummary::of(catalog))),
    }
}

/// The evaluation gate: run the structural passes and reject the
/// statement if any error-severity diagnostic was found.
pub fn check_statement(stmt: &Statement) -> Result<()> {
    let diags = analyze_statement(stmt, None);
    if diags.iter().any(Diagnostic::is_error) {
        return Err(SemanticError::Analysis(diags).into());
    }
    Ok(())
}

// ---------------------------------------------------------------------
// The analyzer
// ---------------------------------------------------------------------

struct Analyzer<'a> {
    diags: Vec<Diagnostic>,
    catalog: Option<&'a CatalogSummary>,
    /// Graph names defined by query-local `GRAPH … AS` heads or earlier
    /// `GRAPH VIEW` statements of the same script.
    graph_scope: Vec<String>,
    /// Path-view names currently in scope (PATH heads of enclosing
    /// queries).
    views: Vec<String>,
    /// Run the label/property schema lints (W104/W105)? Off when the
    /// statement reads script-defined views with unknowable schemas.
    lint_schema: bool,
}

impl Analyzer<'_> {
    fn push(&mut self, d: Diagnostic) {
        self.diags.push(d);
    }

    // -- statements ----------------------------------------------------

    fn statement(&mut self, stmt: &Statement) {
        let mut root = Scope::default();
        match stmt {
            Statement::Query(q) => self.query(q, &mut root),
            Statement::GraphView { name, query } => {
                if matches!(query.body, QueryBody::Select(_)) {
                    self.push(Diagnostic::new(
                        DiagCode::GraphExpected,
                        name.span.span(),
                        format!("GRAPH VIEW {name} AS (…) must be a graph query, not SELECT"),
                    ));
                }
                self.query(query, &mut root);
            }
        }
    }

    fn query(&mut self, q: &Query, outer: &mut Scope) {
        let views_before = self.views.len();
        let graphs_before = self.graph_scope.len();
        // Heads first: later heads and the body see earlier definitions.
        for head in &q.heads {
            match head {
                HeadClause::Path(pc) => {
                    self.path_clause(pc, &q.body);
                    self.views.push(pc.name.text.clone());
                }
                HeadClause::Graph(gc) => {
                    if matches!(gc.query.body, QueryBody::Select(_)) {
                        self.push(Diagnostic::new(
                            DiagCode::GraphExpected,
                            gc.name.span.span(),
                            format!("GRAPH {} AS (…) must be a graph query, not SELECT", gc.name),
                        ));
                    }
                    let mut sub = Scope::default();
                    self.query(&gc.query, &mut sub);
                    self.graph_scope.push(gc.name.text.clone());
                }
            }
        }
        match &q.body {
            QueryBody::Graph(f) => self.fgq(f, outer),
            QueryBody::Select(s) => self.select(s, outer),
        }
        self.views.truncate(views_before);
        self.graph_scope.truncate(graphs_before);
    }

    fn fgq(&mut self, f: &FullGraphQuery, outer: &mut Scope) {
        for b in f.basic_queries() {
            self.basic(b, outer);
        }
    }

    fn basic(&mut self, b: &BasicGraphQuery, outer: &mut Scope) {
        let mut scope = outer.child();
        match &b.source {
            QuerySource::Match(m) => self.match_clause(m, &mut scope),
            QuerySource::From(table) => self.table_source(table, &mut scope),
        }
        self.construct(&b.construct, &mut scope);
        self.warn_unused(&scope);
        outer.absorb_usage(&scope);
    }

    fn table_source(&mut self, table: &Ident, scope: &mut Scope) {
        match self.catalog {
            None => scope.open = true,
            Some(c) => {
                if let Some(cols) = c.table_columns.get(table.as_str()) {
                    for col in cols {
                        scope.vars.entry(col.clone()).or_insert(VarInfo {
                            sort: Sort::Value,
                            span: table.span.span(),
                            used: true,
                            inherited: false,
                            implicit: true,
                            all_path: false,
                        });
                    }
                } else {
                    self.push(
                        Diagnostic::new(
                            DiagCode::UnknownReference,
                            table.span.span(),
                            format!("FROM references unknown table '{table}'"),
                        )
                        .with_note("the catalog has no table of this name"),
                    );
                    scope.open = true;
                }
            }
        }
    }

    // -- MATCH ---------------------------------------------------------

    fn match_clause(&mut self, m: &MatchClause, scope: &mut Scope) {
        // Pass 1: structural bindings of every pattern (main and
        // OPTIONAL) come first, so `{k = v}` entries naming a
        // structural variable filter instead of binding.
        for lp in m.located_patterns() {
            self.bind_pattern_structure(&lp.pattern, scope);
            self.check_location(&lp.on);
        }
        // Pass 2: property entries — `{k = v}` binds v as a value
        // variable iff v is not already bound.
        for lp in m.located_patterns() {
            self.pattern_props(&lp.pattern, scope);
        }
        // Pass 3: WHERE conditions (aggregates are not allowed here —
        // there is no grouping context, E004).
        for (w, span) in m.where_clauses() {
            self.where_clause(w, span.span(), scope);
        }
        // Pass 4: clause-level shape lints.
        self.check_optional_shared(m);
        self.check_cartesian(m);
    }

    fn where_clause(&mut self, w: &Expr, where_span: Span, scope: &mut Scope) {
        self.check_expr(w, scope, false, where_span);
        self.lint_comparisons(w, where_span);
        if fold_bool(w) == Some(false) {
            self.push(
                Diagnostic::new(
                    DiagCode::ContradictoryWhere,
                    w.first_span().unwrap_or(where_span),
                    "WHERE condition is always false",
                )
                .with_note("every binding will be filtered out")
                .with_help("remove the contradictory condition or fix the literal"),
            );
        }
    }

    /// Bind the structural (node/edge/path/cost) variables of a pattern
    /// and run the per-connection path-shape checks (E006).
    fn bind_pattern_structure(&mut self, p: &Pattern, scope: &mut Scope) {
        let paths = p.steps.iter().filter_map(|s| match &s.connection {
            Connection::Path(pp) => Some(pp),
            Connection::Edge(_) => None,
        });
        // Whether each path binder, in order, projects ALL paths (E009).
        let mut all_paths = (paths.clone())
            .filter(|pp| pp.var.is_some())
            .map(|pp| pp.mode == PathMode::All && !pp.stored);
        for (v, role) in p.binders() {
            let (sort, all) = match role {
                BinderRole::Node => (Sort::Node, false),
                BinderRole::Edge => (Sort::Edge, false),
                BinderRole::Path => (Sort::Path, all_paths.next() == Some(true)),
                BinderRole::Cost => (Sort::Value, false),
                BinderRole::Value => continue, // pass 2: `pattern_props`
            };
            self.bind(scope, v, sort, all);
        }
        for n in p.nodes() {
            self.lint_labels(&n.labels);
        }
        for s in &p.steps {
            if let Connection::Edge(e) = &s.connection {
                self.lint_labels(&e.labels);
            }
        }
        for pp in paths {
            self.lint_labels(&pp.labels);
            self.check_path_pattern(pp);
            if let Some(r) = &pp.regex {
                self.check_regex_views(r, pp.span.span());
            }
        }
    }

    /// Property entries of every node/edge in the pattern: binder or
    /// filter, per the matcher's rule.
    fn pattern_props(&mut self, p: &Pattern, scope: &mut Scope) {
        for entry in p.prop_entries() {
            self.lint_key(&entry.key);
            if let Expr::Var(v) = &entry.value {
                if scope.binds(v.as_str()) {
                    scope.mark_used(v.as_str());
                } else {
                    self.bind(scope, v, Sort::Value, false);
                }
            } else {
                self.check_expr(&entry.value, scope, false, entry.key.span.span());
            }
        }
    }

    fn bind(&mut self, scope: &mut Scope, var: &Ident, sort: Sort, all_path: bool) {
        match scope.vars.get_mut(var.as_str()) {
            None => {
                scope.vars.insert(
                    var.text.clone(),
                    VarInfo {
                        sort,
                        span: var.span.span(),
                        used: false,
                        inherited: false,
                        implicit: false,
                        all_path,
                    },
                );
            }
            Some(prev) if prev.sort == sort => {
                // Re-binding at the same sort is a join — both
                // occurrences count as used.
                prev.used = true;
            }
            Some(prev) => {
                let d = Diagnostic::new(
                    DiagCode::SortMismatch,
                    var.span.span(),
                    format!(
                        "variable '{var}' is used both as {} and as {sort}",
                        prev.sort
                    ),
                )
                .with_note(format!("'{var}' was first bound as {}", prev.sort))
                .with_help("rename one of the two occurrences");
                prev.used = true;
                self.push(d);
            }
        }
    }

    /// E006 — path patterns with inconsistent modifiers.
    fn check_path_pattern(&mut self, pp: &gcore_parser::ast::PathPattern) {
        let span = pp.span.span();
        if !pp.stored && pp.regex.is_none() {
            self.push(
                Diagnostic::new(
                    DiagCode::InvalidPathPattern,
                    span,
                    "computed path pattern needs a <regex>",
                )
                .with_note("only stored-path patterns (`-/@p/->`) may omit the regex"),
            );
        }
        if pp.stored && pp.mode != PathMode::Shortest(1) {
            self.push(Diagnostic::new(
                DiagCode::InvalidPathPattern,
                span,
                "ALL / k SHORTEST do not apply to stored-path patterns",
            ));
        }
        if pp.mode == PathMode::All && pp.cost_var.is_some() {
            self.push(
                Diagnostic::new(
                    DiagCode::InvalidPathPattern,
                    span,
                    "COST cannot be bound on ALL path patterns",
                )
                .with_note("ALL enumerates every conforming path; a single cost is undefined"),
            );
        }
    }

    /// E003 — the syntactic restriction of §3 / \[31\]: variables shared
    /// by two OPTIONAL blocks must appear in the enclosing pattern.
    fn check_optional_shared(&mut self, m: &MatchClause) {
        if m.optionals.len() < 2 {
            return;
        }
        let main_vars = binder_spans(&m.patterns);
        let block_vars: Vec<_> = m
            .optionals
            .iter()
            .map(|b| binder_spans(&b.patterns))
            .collect();
        let mut reported: BTreeSet<&str> = BTreeSet::new();
        for i in 0..block_vars.len() {
            for j in (i + 1)..block_vars.len() {
                for v in block_vars[i].keys() {
                    if reported.contains(v) || main_vars.contains_key(v) {
                        continue;
                    }
                    if let Some(span) = block_vars[j].get(v) {
                        reported.insert(v);
                        self.push(
                            Diagnostic::new(
                                DiagCode::OptionalSharedVariable,
                                *span,
                                format!(
                                    "variable '{v}' is shared between OPTIONAL blocks but missing \
                                     from the enclosing pattern"
                                ),
                            )
                            .with_note(
                                "the result would depend on the evaluation order of the blocks",
                            )
                            .with_help(format!("bind '{v}' in the main MATCH pattern as well")),
                        );
                    }
                }
            }
        }
    }

    /// W103 — disconnected main patterns produce a Cartesian product.
    fn check_cartesian(&mut self, m: &MatchClause) {
        if m.patterns.len() < 2 {
            return;
        }
        let var_sets: Vec<BTreeSet<&str>> = (m.patterns.iter())
            .map(|lp| lp.pattern.binders().map(|(v, _)| v.as_str()).collect())
            .collect();
        // Union-find over pattern indices.
        let mut comp: Vec<usize> = (0..var_sets.len()).collect();
        fn root(comp: &mut [usize], mut i: usize) -> usize {
            while comp[i] != i {
                comp[i] = comp[comp[i]];
                i = comp[i];
            }
            i
        }
        fn join(comp: &mut [usize], a: usize, b: usize) {
            let (ra, rb) = (root(comp, a), root(comp, b));
            comp[ra] = rb;
        }
        for i in 0..var_sets.len() {
            for j in (i + 1)..var_sets.len() {
                if !var_sets[i].is_disjoint(&var_sets[j]) {
                    join(&mut comp, i, j);
                }
            }
        }
        // WHERE conjuncts referencing several components link them too.
        if let Some(w) = &m.where_clause {
            for c in w.conjuncts() {
                let mut vars = BTreeSet::new();
                expr_vars(c, &mut vars);
                let touched: Vec<usize> = (0..var_sets.len())
                    .filter(|&i| !var_sets[i].is_disjoint(&vars))
                    .collect();
                for pair in touched.windows(2) {
                    join(&mut comp, pair[0], pair[1]);
                }
            }
        }
        let first_root = root(&mut comp, 0);
        for i in 1..var_sets.len() {
            if root(&mut comp, i) != first_root {
                self.push(
                    Diagnostic::new(
                        DiagCode::CartesianProduct,
                        m.patterns[i].pattern.span.span(),
                        "pattern is not connected to the preceding patterns",
                    )
                    .with_note("the result is a Cartesian product of their bindings")
                    .with_help("share a variable between the patterns, or relate them in WHERE"),
                );
                return; // one warning per MATCH is enough
            }
        }
    }

    // -- CONSTRUCT -----------------------------------------------------

    fn construct(&mut self, c: &ConstructClause, scope: &mut Scope) {
        // CONSTRUCT-side expressions (assignments, WHEN, SET) evaluate
        // against the binding table *extended* with the clause's own
        // construct variables — `WHEN e.score > 0` reads a property the
        // clause just computed. Collect them up front.
        let mut escope = scope.clone();
        let patterns = c.items.iter().filter_map(|item| match item {
            ConstructItem::Pattern(pat) => Some(pat),
            ConstructItem::GraphName(_) => None,
        });
        for v in patterns.flat_map(ConstructPattern::vars) {
            escope.vars.entry(v.text.clone()).or_insert(VarInfo {
                sort: Sort::Value,
                span: v.span.span(),
                used: true,
                inherited: false,
                implicit: true,
                all_path: false,
            });
        }
        // GROUP-conflict detection spans the whole clause (E007).
        let mut groups: BTreeMap<String, (&Vec<Expr>, Span)> = BTreeMap::new();
        for item in &c.items {
            match item {
                ConstructItem::GraphName(g) => {
                    if let Some(cat) = self.catalog {
                        if !cat.graphs.contains(g) && !self.graph_scope.iter().any(|x| x == g) {
                            self.push(Diagnostic::new(
                                DiagCode::UnknownReference,
                                Span::default(),
                                format!("CONSTRUCT unions unknown graph '{g}'"),
                            ));
                        }
                    }
                }
                ConstructItem::Pattern(pat) => {
                    self.construct_pattern(pat, scope, &mut escope, &mut groups);
                }
            }
        }
        scope.absorb_usage(&escope);
    }

    fn construct_pattern<'p>(
        &mut self,
        pat: &'p ConstructPattern,
        scope: &mut Scope,
        escope: &mut Scope,
        groups: &mut BTreeMap<String, (&'p Vec<Expr>, Span)>,
    ) {
        // The construct variables of *this* pattern (SET/REMOVE targets
        // must be among them, E014).
        let own_vars: BTreeSet<&str> = pat.vars().map(Ident::as_str).collect();
        let mut nodes = vec![&pat.start];
        for s in &pat.steps {
            nodes.push(&s.node);
        }
        for n in &nodes {
            if let Some(v) = &n.var {
                self.check_construct_use(scope, v, Sort::Node);
                self.check_group(scope, v, n.group.as_ref(), groups);
            }
            if let Some(cv) = &n.copy_of {
                scope.mark_used(cv.as_str());
            }
            for g in n.group.iter().flatten() {
                self.check_expr(g, escope, false, pat.span.span());
            }
            for a in &n.assigns {
                self.check_expr(&a.value, escope, true, a.key.span.span());
            }
        }
        for s in &pat.steps {
            match &s.connection {
                gcore_parser::ast::ConstructConnection::Edge(e) => {
                    if let Some(v) = &e.var {
                        self.check_construct_use(scope, v, Sort::Edge);
                        self.check_group(scope, v, e.group.as_ref(), groups);
                    }
                    if let Some(cv) = &e.copy_of {
                        scope.mark_used(cv.as_str());
                    }
                    for g in e.group.iter().flatten() {
                        self.check_expr(g, escope, false, pat.span.span());
                    }
                    for a in &e.assigns {
                        self.check_expr(&a.value, escope, true, a.key.span.span());
                    }
                }
                gcore_parser::ast::ConstructConnection::Path(p) => {
                    match scope.sort(p.var.as_str()) {
                        Some(Sort::Path) => {
                            scope.mark_used(p.var.as_str());
                            let all = scope
                                .vars
                                .get(p.var.as_str())
                                .is_some_and(|i| i.all_path && !i.inherited);
                            if p.stored && all {
                                self.push(
                                    Diagnostic::new(
                                        DiagCode::AllPathsEscape,
                                        p.var.span.span(),
                                        format!(
                                            "ALL-path variable '{}' may only be used for graph \
                                             projection in CONSTRUCT",
                                            p.var
                                        ),
                                    )
                                    .with_note(
                                        "storing every conforming path would be intractable (§3)",
                                    )
                                    .with_help("drop the `@` to project the paths instead"),
                                );
                            }
                        }
                        Some(other) => {
                            scope.mark_used(p.var.as_str());
                            self.push(
                                Diagnostic::new(
                                    DiagCode::SortMismatch,
                                    p.var.span.span(),
                                    format!(
                                        "variable '{}' is used both as {other} and as {}",
                                        p.var,
                                        Sort::Path
                                    ),
                                )
                                .with_note(format!("'{}' was first bound as {other}", p.var)),
                            );
                        }
                        None if scope.open => {}
                        None => {
                            // The variable must be locally bound: outer
                            // bindings are not columns of this query's
                            // binding table.
                            self.push(
                                Diagnostic::new(
                                    DiagCode::ConstructPathUnbound,
                                    p.var.span.span(),
                                    format!(
                                        "construct path variable '{}' must be bound by a path \
                                         pattern in MATCH",
                                        p.var
                                    ),
                                )
                                .with_help(format!(
                                    "add a `-/{}  <…>/->` path pattern to the MATCH clause",
                                    p.var
                                )),
                            );
                        }
                    }
                    for a in &p.assigns {
                        self.check_expr(&a.value, escope, true, a.key.span.span());
                    }
                }
            }
        }
        if let Some(w) = &pat.when {
            self.check_expr(w, escope, true, pat.span.span());
        }
        for set in &pat.sets {
            let (var, value) = match set {
                SetItem::Prop { var, value, .. } => (var, Some(value)),
                SetItem::Label { var, .. } => (var, None),
                SetItem::Copy { var, from } => {
                    scope.mark_used(from.as_str());
                    (var, None)
                }
            };
            self.check_set_target(var, &own_vars);
            if let Some(v) = value {
                self.check_expr(v, escope, true, var.span.span());
            }
        }
        for rem in &pat.removes {
            let var = match rem {
                RemoveItem::Prop { var, .. } | RemoveItem::Label { var, .. } => var,
            };
            self.check_set_target(var, &own_vars);
        }
    }

    /// E014 — SET/REMOVE must target a construct variable of the
    /// pattern they trail.
    fn check_set_target(&mut self, var: &Ident, own_vars: &BTreeSet<&str>) {
        if !own_vars.contains(var.as_str()) {
            self.push(
                Diagnostic::new(
                    DiagCode::UnknownSetTarget,
                    var.span.span(),
                    format!(
                        "SET/REMOVE references '{var}', which is not a construct variable of \
                         this pattern"
                    ),
                )
                .with_help("SET and REMOVE apply to the pattern they follow"),
            );
        }
    }

    /// Using a MATCH-bound variable at a construct position of a
    /// different sort is the §3 "illegal to use n in the place of y"
    /// error. Unbound variables are fine (they skolemize).
    fn check_construct_use(&mut self, scope: &mut Scope, var: &Ident, required: Sort) {
        match scope.sort(var.as_str()) {
            None => {}
            Some(s) if s == required => scope.mark_used(var.as_str()),
            Some(s) => {
                scope.mark_used(var.as_str());
                self.push(
                    Diagnostic::new(
                        DiagCode::SortMismatch,
                        var.span.span(),
                        format!("variable '{var}' is used both as {s} and as {required}"),
                    )
                    .with_note(format!("'{var}' was first bound as {s}")),
                );
            }
        }
    }

    /// E013 (GROUP on a bound variable) and E007 (conflicting GROUPs).
    fn check_group<'p>(
        &mut self,
        scope: &Scope,
        var: &Ident,
        group: Option<&'p Vec<Expr>>,
        groups: &mut BTreeMap<String, (&'p Vec<Expr>, Span)>,
    ) {
        let Some(g) = group else { return };
        if !scope.open {
            if let Some(info) = scope.vars.get(var.as_str()) {
                if !info.inherited {
                    self.push(
                        Diagnostic::new(
                            DiagCode::GroupOnBoundVariable,
                            var.span.span(),
                            format!(
                                "GROUP on '{var}' is not allowed: the variable is bound, so its \
                                 grouping is fixed to its identity"
                            ),
                        )
                        .with_note("§A.3 fixes the grouping of bound elements"),
                    );
                }
            }
        }
        match groups.get(var.as_str()) {
            None => {
                groups.insert(var.text.clone(), (g, var.span.span()));
            }
            Some((prev, _)) if *prev == g => {}
            Some(_) => {
                self.push(
                    Diagnostic::new(
                        DiagCode::GroupConflict,
                        var.span.span(),
                        format!("construct variable '{var}' has two different GROUP clauses"),
                    )
                    .with_help("give every occurrence the same GROUP, or state it only once"),
                );
            }
        }
    }

    // -- SELECT --------------------------------------------------------

    fn select(&mut self, s: &SelectQuery, outer: &mut Scope) {
        let mut scope = outer.child();
        self.match_clause(&s.match_clause, &mut scope);
        for item in &s.items {
            self.check_expr(&item.expr, &mut scope, true, Span::default());
        }
        // Aliases shadow (W102) and then become usable in ORDER BY.
        for item in &s.items {
            if let Some(alias) = &item.alias {
                if scope.binds(alias.as_str()) {
                    self.push(
                        Diagnostic::new(
                            DiagCode::ShadowedVariable,
                            alias.span.span(),
                            format!("alias '{alias}' shadows a variable of the MATCH clause"),
                        )
                        .with_help("pick an alias that is not already a pattern variable"),
                    );
                } else {
                    scope.vars.insert(
                        alias.text.clone(),
                        VarInfo {
                            sort: Sort::Value,
                            span: alias.span.span(),
                            used: true,
                            inherited: false,
                            implicit: true,
                            all_path: false,
                        },
                    );
                }
            }
        }
        for g in &s.group_by {
            self.check_expr(g, &mut scope, false, Span::default());
        }
        for o in &s.order_by {
            self.check_expr(&o.expr, &mut scope, true, Span::default());
        }
        self.warn_unused(&scope);
        outer.absorb_usage(&scope);
    }

    // -- PATH heads ----------------------------------------------------

    fn path_clause(&mut self, pc: &PathClause, body: &QueryBody) {
        let mut scope = Scope::default();
        match pc.patterns.first() {
            None => {
                self.push(Diagnostic::new(
                    DiagCode::InvalidPathPattern,
                    pc.name.span.span(),
                    format!("PATH view '{}' has no pattern", pc.name),
                ));
            }
            Some(first) if first.steps.is_empty() => {
                self.push(
                    Diagnostic::new(
                        DiagCode::InvalidPathPattern,
                        first.span.span(),
                        format!(
                            "PATH view '{}' must contain a path segment (start and end node)",
                            pc.name
                        ),
                    )
                    .with_help("connect two nodes, e.g. PATH p = (a)-[:l]->(b)"),
                );
            }
            Some(_) => {}
        }
        for p in &pc.patterns {
            self.bind_pattern_structure(p, &mut scope);
            // ALL inside a view: the walk cannot concatenate a
            // projection (query.rs would raise at evaluation).
            for s in &p.steps {
                if let Connection::Path(pp) = &s.connection {
                    if pp.mode == PathMode::All && !pp.stored {
                        self.push(Diagnostic::new(
                            DiagCode::InvalidPathPattern,
                            pp.span.span(),
                            format!(
                                "ALL path patterns cannot appear inside PATH view '{}'",
                                pc.name
                            ),
                        ));
                    }
                }
            }
        }
        for p in &pc.patterns {
            self.pattern_props(p, &mut scope);
        }
        if let Some(w) = &pc.where_clause {
            self.check_expr(w, &mut scope, false, pc.name.span.span());
        }
        if let Some(c) = &pc.cost {
            self.check_expr(c, &mut scope, false, pc.name.span.span());
        }
        // W102: view-local variables shadowing body variables.
        let body_vars: BTreeSet<&str> = (body.match_clauses())
            .flat_map(|m| m.located_patterns().flat_map(|lp| lp.pattern.binders()))
            .map(|(v, _)| v.as_str())
            .collect();
        for (name, info) in &scope.vars {
            if body_vars.contains(name.as_str()) {
                self.push(
                    Diagnostic::new(
                        DiagCode::ShadowedVariable,
                        info.span,
                        format!(
                            "PATH-clause variable '{name}' shadows a variable of the query body"
                        ),
                    )
                    .with_note("PATH clauses have their own scope; the two are unrelated")
                    .with_help("rename the view-local variable"),
                );
            }
        }
    }

    // -- expressions ---------------------------------------------------

    /// Check an expression and everything inside it: unbound variables
    /// (E002), misplaced aggregates (E004 when `agg` is false), name
    /// lints, and subqueries in scopes of their own.
    fn check_expr(&mut self, e: &Expr, scope: &mut Scope, agg: bool, fallback: Span) {
        match e {
            Expr::Var(v) => {
                if scope.binds(v.as_str()) {
                    scope.mark_used(v.as_str());
                } else if !scope.open {
                    self.push(
                        Diagnostic::new(
                            DiagCode::UnboundVariable,
                            v.span.span(),
                            format!("variable '{v}' is not bound by any pattern in scope"),
                        )
                        .with_help("bind it in MATCH, or check the spelling"),
                    );
                }
            }
            Expr::Prop(base, key) => {
                // Reads off analyzer-invented bindings (construct
                // variables, aliases) have no catalog schema to check.
                let implicit_base = matches!(
                    base.as_ref(),
                    Expr::Var(v) if scope.vars.get(v.as_str()).is_some_and(|i| i.implicit)
                );
                if !implicit_base {
                    self.lint_key_name(key, base.first_span().unwrap_or(fallback));
                }
            }
            Expr::LabelTest(base, labels) => {
                for l in labels {
                    self.lint_label_name(l, base.first_span().unwrap_or(fallback));
                }
            }
            Expr::Aggregate { arg, .. } if !agg => {
                self.push(
                    Diagnostic::new(
                        DiagCode::MisplacedAggregate,
                        arg.as_deref()
                            .and_then(Expr::first_span)
                            .unwrap_or(fallback),
                        "aggregate function is not allowed here",
                    )
                    .with_note(
                        "aggregates need a grouping context: CONSTRUCT assignments, SET \
                         items, WHEN conditions or SELECT items",
                    ),
                );
            }
            Expr::Exists(q) => {
                // EXISTS subqueries share the outer bindings (§A.2).
                let mut sub = scope.clone();
                self.query(q, &mut sub);
                scope.absorb_usage(&sub);
            }
            Expr::PatternPredicate(p) => {
                // The predicate's variables must be sort-consistent
                // with the enclosing scope; fresh ones bind locally.
                let mut inner = scope.child();
                self.bind_pattern_structure(p, &mut inner);
                self.pattern_props(p, &mut inner);
                scope.absorb_usage(&inner);
            }
            _ => {}
        }
        // Nested aggregates are never allowed.
        let agg = agg && !matches!(e, Expr::Aggregate { .. });
        for c in e.children() {
            self.check_expr(c, scope, agg, fallback);
        }
    }

    /// W106 — comparisons between literals of incompatible types,
    /// anywhere in the expression (subquery bodies are checked with their
    /// own WHERE).
    fn lint_comparisons(&mut self, e: &Expr, fallback: Span) {
        if let Expr::Binary(op, a, b) = e {
            let comparison = matches!(
                op,
                BinaryOp::Eq
                    | BinaryOp::Neq
                    | BinaryOp::Lt
                    | BinaryOp::Le
                    | BinaryOp::Gt
                    | BinaryOp::Ge
            );
            if let (true, Some(ka), Some(kb)) = (comparison, lit_kind(a), lit_kind(b)) {
                if ka != kb {
                    self.push(
                        Diagnostic::new(
                            DiagCode::SuspiciousComparison,
                            e.first_span().unwrap_or(fallback),
                            format!("comparison between {ka} and {kb} literals"),
                        )
                        .with_note("values of different types never compare equal"),
                    );
                }
            }
        }
        for c in e.children() {
            self.lint_comparisons(c, fallback);
        }
    }

    // -- name lints ----------------------------------------------------

    fn check_location(&mut self, on: &Option<Location>) {
        match on {
            None => {}
            Some(Location::Named(n)) => {
                if let Some(cat) = self.catalog {
                    let known = cat.graphs.contains(n.as_str())
                        || cat.tables.contains(n.as_str())
                        || self.graph_scope.iter().any(|g| g == n.as_str());
                    if !known {
                        self.push(
                            Diagnostic::new(
                                DiagCode::UnknownReference,
                                n.span.span(),
                                format!("ON references unknown graph or table '{n}'"),
                            )
                            .with_note(
                                "the catalog contains neither a graph nor a table of this name",
                            ),
                        );
                    }
                }
            }
            Some(Location::Subquery(q)) => {
                if matches!(q.body, QueryBody::Select(_)) {
                    self.push(Diagnostic::new(
                        DiagCode::GraphExpected,
                        Span::default(),
                        "ON (subquery) must be a graph query, not SELECT",
                    ));
                }
                // ON subqueries are uncorrelated (§A.2 evaluates them
                // against an empty outer scope).
                let mut sub = Scope::default();
                self.query(q, &mut sub);
            }
        }
    }

    fn check_regex_views(&mut self, r: &Regex, span: Span) {
        r.walk(&mut |r| match r {
            Regex::View(v) if self.catalog.is_some() && !self.views.iter().any(|x| x == v) => {
                self.push(
                    Diagnostic::new(
                        DiagCode::UnknownReference,
                        span,
                        format!("regex references unknown path view '~{v}'"),
                    )
                    .with_help("define it with a PATH clause in the query head"),
                );
            }
            _ => {}
        });
    }

    fn lint_labels(&mut self, groups: &[gcore_parser::ast::LabelDisjunction]) {
        for gcore_parser::ast::LabelDisjunction(labels, span) in groups {
            for l in labels {
                self.lint_label_name(l, span.span());
            }
        }
    }

    fn lint_label_name(&mut self, label: &str, span: Span) {
        if let Some(cat) = self.catalog.filter(|_| self.lint_schema) {
            if !cat.labels.contains(label) {
                self.push(
                    Diagnostic::new(
                        DiagCode::UnknownLabel,
                        span,
                        format!("label '{label}' exists in no catalog graph"),
                    )
                    .with_note("the test can never hold on current data"),
                );
            }
        }
    }

    fn lint_key(&mut self, key: &Ident) {
        self.lint_key_name(key.as_str(), key.span.span());
    }

    fn lint_key_name(&mut self, key: &str, span: Span) {
        if let Some(cat) = self.catalog.filter(|_| self.lint_schema) {
            if !cat.keys.contains(key) {
                self.push(
                    Diagnostic::new(
                        DiagCode::UnknownProperty,
                        span,
                        format!("property key '{key}' exists on no catalog element"),
                    )
                    .with_note("reads of a missing property yield the empty set"),
                );
            }
        }
    }

    // -- W101 ----------------------------------------------------------

    fn warn_unused(&mut self, scope: &Scope) {
        for (name, info) in &scope.vars {
            if info.used || info.inherited || info.implicit {
                continue;
            }
            self.push(
                Diagnostic::new(
                    DiagCode::UnusedVariable,
                    info.span,
                    format!("variable '{name}' is bound but never used"),
                )
                .with_help("drop the variable name, or use it in WHERE/CONSTRUCT"),
            );
        }
    }
}

// ---------------------------------------------------------------------
// Pure helpers
// ---------------------------------------------------------------------

/// Does the statement read any of the given graph names (via ON, FROM
/// or a CONSTRUCT graph union)?
fn references_any(stmt: &Statement, names: &BTreeSet<String>) -> bool {
    fn in_query(q: &Query, names: &BTreeSet<String>) -> bool {
        let in_head =
            |h: &HeadClause| matches!(h, HeadClause::Graph(gc) if in_query(&gc.query, names));
        let in_basic = |b: &BasicGraphQuery| {
            let union =
                |i: &ConstructItem| matches!(i, ConstructItem::GraphName(g) if names.contains(g));
            b.construct.items.iter().any(union)
                || matches!(&b.source, QuerySource::From(t) if names.contains(t.as_str()))
        };
        let in_location = |lp: &LocatedPattern| match &lp.on {
            Some(Location::Named(n)) => names.contains(n.as_str()),
            Some(Location::Subquery(sub)) => in_query(sub, names),
            None => false,
        };
        let graph = match &q.body {
            QueryBody::Graph(f) => Some(f),
            QueryBody::Select(_) => None,
        };
        q.heads.iter().any(in_head)
            || graph
                .into_iter()
                .flat_map(FullGraphQuery::basic_queries)
                .any(in_basic)
            || (q.body.match_clauses()).any(|m| m.located_patterns().any(in_location))
    }
    let (Statement::Query(q) | Statement::GraphView { query: q, .. }) = stmt;
    !names.is_empty() && in_query(q, names)
}

/// Every variable `patterns` bind, with the span of its first binding.
fn binder_spans(patterns: &[LocatedPattern]) -> BTreeMap<&str, Span> {
    let mut out = BTreeMap::new();
    for (v, _) in patterns.iter().flat_map(|lp| lp.pattern.binders()) {
        out.entry(v.as_str()).or_insert(v.span.span());
    }
    out
}

/// Every variable name an expression mentions. A subquery contributes
/// every variable its MATCH clauses bind or their WHEREs mention, for a
/// graph and a SELECT body alike; a pattern predicate, every variable it
/// binds. That over-approximates what the subquery correlates on, which
/// is exactly right for connectivity analysis (a correlated EXISTS
/// relates the outer variables it shares).
fn expr_vars<'a>(e: &'a Expr, out: &mut BTreeSet<&'a str>) {
    e.walk(&mut |x| match x {
        Expr::Var(v) => {
            out.insert(v.as_str());
        }
        Expr::Exists(q) => {
            for m in q.body.match_clauses() {
                let binders = m.located_patterns().flat_map(|lp| lp.pattern.binders());
                out.extend(binders.map(|(v, _)| v.as_str()));
                for (w, _) in m.where_clauses() {
                    expr_vars(w, out);
                }
            }
        }
        Expr::PatternPredicate(p) => out.extend(p.binders().map(|(v, _)| v.as_str())),
        _ => {}
    });
}

/// The kind of a literal, for W106.
#[derive(PartialEq, Eq, Clone, Copy)]
enum LitKind {
    Num,
    Str,
    Bool,
}

impl fmt::Display for LitKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LitKind::Num => "numeric",
            LitKind::Str => "string",
            LitKind::Bool => "boolean",
        })
    }
}

fn lit_kind(e: &Expr) -> Option<LitKind> {
    match e {
        Expr::Int(_) | Expr::Float(_) => Some(LitKind::Num),
        Expr::Str(_) | Expr::DateLit(_) => Some(LitKind::Str),
        Expr::Bool(_) => Some(LitKind::Bool),
        _ => None,
    }
}

/// Constant-fold boolean structure over literals (W107). `None` means
/// "not constant".
fn fold_bool(e: &Expr) -> Option<bool> {
    match e {
        Expr::Bool(b) => Some(*b),
        Expr::Unary(gcore_parser::ast::UnaryOp::Not, a) => fold_bool(a).map(|b| !b),
        Expr::Binary(BinaryOp::And, a, b) => match (fold_bool(a), fold_bool(b)) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        },
        Expr::Binary(BinaryOp::Or, a, b) => match (fold_bool(a), fold_bool(b)) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        },
        Expr::Binary(op, a, b) => {
            let ord = match (lit_num(a), lit_num(b)) {
                (Some(x), Some(y)) => x.partial_cmp(&y)?,
                _ => match (a.as_ref(), b.as_ref()) {
                    (Expr::Str(x), Expr::Str(y)) => x.cmp(y),
                    _ => return None,
                },
            };
            Some(match op {
                BinaryOp::Eq => ord.is_eq(),
                BinaryOp::Neq => ord.is_ne(),
                BinaryOp::Lt => ord.is_lt(),
                BinaryOp::Le => ord.is_le(),
                BinaryOp::Gt => ord.is_gt(),
                BinaryOp::Ge => ord.is_ge(),
                _ => return None,
            })
        }
        _ => None,
    }
}

fn lit_num(e: &Expr) -> Option<f64> {
    match e {
        Expr::Int(i) => Some(*i as f64),
        Expr::Float(f) => Some(*f),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcore_parser::parse_statement;

    fn codes(text: &str) -> Vec<&'static str> {
        analyze_statement(&parse_statement(text).unwrap(), None)
            .iter()
            .map(|d| d.code.as_str())
            .collect()
    }

    fn error_codes(text: &str) -> Vec<&'static str> {
        analyze_statement(&parse_statement(text).unwrap(), None)
            .iter()
            .filter(|d| d.is_error())
            .map(|d| d.code.as_str())
            .collect()
    }

    #[test]
    fn corpus_style_queries_have_no_errors() {
        for q in [
            "CONSTRUCT (n) MATCH (n:Person) WHERE n.employer = 'Acme'",
            "CONSTRUCT (n)-/@p:l {d := c}/->(m) \
             MATCH (n)-/3 SHORTEST p <:knows*> COST c/->(m)",
            "CONSTRUCT (x GROUP e :Company {name := e})<-[y:worksAt]-(n) \
             MATCH (n:Person {employer = e})",
        ] {
            assert_eq!(error_codes(q), Vec::<&str>::new(), "query: {q}");
        }
    }

    #[test]
    fn sort_mismatches_are_collected_not_fail_fast() {
        // Two distinct conflicts in one statement: both reported.
        let c = error_codes("CONSTRUCT (e), (c) MATCH (n)-[e]->(m)-/p <:l*> COST c/->(k)");
        assert_eq!(c, vec!["E001", "E001"]);
    }

    #[test]
    fn node_used_as_edge_rejected() {
        assert_eq!(
            error_codes("CONSTRUCT (a)-[n]->(b) MATCH (n)-[e]->(m), (a), (b)"),
            vec!["E001"]
        );
    }

    #[test]
    fn unbound_variable_in_where_is_e002() {
        assert_eq!(
            error_codes("CONSTRUCT (n) MATCH (n) WHERE misspelled.age > 3"),
            vec!["E002"]
        );
    }

    #[test]
    fn from_scope_is_open_without_a_catalog() {
        // FROM columns are unknowable structurally: no E002.
        assert_eq!(
            error_codes("CONSTRUCT (x {v := anything}) FROM some_table"),
            Vec::<&str>::new()
        );
    }

    #[test]
    fn aggregate_in_where_is_e004() {
        assert_eq!(
            error_codes("CONSTRUCT (n) MATCH (n) WHERE COUNT(*) > 3"),
            vec!["E004"]
        );
    }

    #[test]
    fn unused_variable_warns_w101() {
        assert_eq!(
            codes("CONSTRUCT (n) MATCH (n)-[e]->(m)"),
            vec!["W101", "W101"]
        );
    }

    #[test]
    fn repeated_variable_is_a_join_not_unused() {
        assert_eq!(
            codes("CONSTRUCT (n) MATCH (n)-[e1]->(m), (m)-[e2]->(n)"),
            vec!["W101", "W101"] // e1, e2 — but not m (joins), not n
        );
    }

    #[test]
    fn disconnected_patterns_warn_w103() {
        assert!(codes("CONSTRUCT (n)-[e]->(m) MATCH (n)-[e]->(m), (x)").contains(&"W103"));
        // A WHERE predicate linking them silences the warning.
        assert!(
            !codes("CONSTRUCT (n)-[e]->(m) MATCH (n)-[e]->(m), (x) WHERE n.age = x.age")
                .contains(&"W103")
        );
    }

    #[test]
    fn exists_subquery_shares_outer_sorts() {
        assert_eq!(
            error_codes(
                "CONSTRUCT (n) MATCH (n)-[e]->(m) \
                 WHERE EXISTS (CONSTRUCT (x) MATCH (x)-[n]->(y))"
            ),
            vec!["E001"]
        );
    }

    #[test]
    fn contradictory_where_warns_w107() {
        assert!(codes("CONSTRUCT (n) MATCH (n) WHERE n.age > 3 AND 1 = 2").contains(&"W107"));
    }

    #[test]
    fn literal_type_confusion_warns_w106() {
        assert!(codes("CONSTRUCT (n) MATCH (n) WHERE n.age = 3 AND 'x' = 3").contains(&"W106"));
    }

    #[test]
    fn unbound_construct_vars_are_unconstrained() {
        assert_eq!(
            error_codes("CONSTRUCT (fresh)-[also_fresh]->(fresh2) MATCH (n)"),
            Vec::<&str>::new()
        );
    }

    #[test]
    fn check_statement_wraps_errors_in_analysis() {
        let stmt = parse_statement("CONSTRUCT (e) MATCH (n)-[e]->(m)").unwrap();
        let err = check_statement(&stmt).unwrap_err();
        let crate::EngineError::Semantic(se) = err else {
            panic!("expected semantic error");
        };
        assert_eq!(se.code(), "E001");
    }
}

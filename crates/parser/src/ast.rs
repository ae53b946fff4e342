//! Abstract syntax of G-CORE, mirroring the grammar of Section 4 and the
//! detailed clause grammars of Appendix A, plus the §5 tabular extensions.
//!
//! ```text
//! query          ::= headClause* (fullGraphQuery | selectQuery)
//! headClause     ::= PATH … | GRAPH … AS (…)
//! fullGraphQuery ::= basicGraphQuery (UNION|INTERSECT|MINUS fullGraphQuery)?
//! basicGraphQuery::= constructClause (matchClause | FROM table)
//! ```

use crate::token::Span;
use std::fmt;

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/// A byte span attached to an AST node.
///
/// `AstSpan` is *transparent to equality*: two AST nodes compare equal
/// even when they were parsed from different positions. This keeps the
/// pretty-printer round-trip invariant (`parse(print(q)) == q`) intact
/// while still letting diagnostics point at the original source.
#[derive(Clone, Copy, Default)]
pub struct AstSpan(pub Span);

impl AstSpan {
    /// The underlying byte range.
    #[must_use]
    pub fn span(self) -> Span {
        self.0
    }

    /// Merge two spans into one covering both.
    #[must_use]
    pub fn merge(self, other: AstSpan) -> AstSpan {
        AstSpan(self.0.merge(other.0))
    }
}

impl PartialEq for AstSpan {
    fn eq(&self, _: &AstSpan) -> bool {
        true
    }
}

impl Eq for AstSpan {}

impl fmt::Debug for AstSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.0.start, self.0.end)
    }
}

impl From<Span> for AstSpan {
    fn from(s: Span) -> AstSpan {
        AstSpan(s)
    }
}

/// An identifier (variable, graph/view/table name, alias, property key)
/// together with its source position.
///
/// Equality ignores the span (see [`AstSpan`]), so tests can build
/// identifiers with `"n".into()` and still compare whole ASTs.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Ident {
    pub text: String,
    pub span: AstSpan,
}

impl Ident {
    /// An identifier with a known source position.
    #[must_use]
    pub fn new(text: impl Into<String>, span: Span) -> Ident {
        Ident {
            text: text.into(),
            span: AstSpan(span),
        }
    }

    /// The identifier text.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.text
    }
}

impl std::ops::Deref for Ident {
    type Target = str;
    fn deref(&self) -> &str {
        &self.text
    }
}

impl std::borrow::Borrow<str> for Ident {
    fn borrow(&self) -> &str {
        &self.text
    }
}

impl AsRef<str> for Ident {
    fn as_ref(&self) -> &str {
        &self.text
    }
}

impl fmt::Display for Ident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

impl fmt::Debug for Ident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}@{:?}", self.text, self.span)
    }
}

impl From<&str> for Ident {
    fn from(s: &str) -> Ident {
        Ident {
            text: s.to_owned(),
            span: AstSpan::default(),
        }
    }
}

impl From<String> for Ident {
    fn from(s: String) -> Ident {
        Ident {
            text: s,
            span: AstSpan::default(),
        }
    }
}

impl PartialEq<str> for Ident {
    fn eq(&self, other: &str) -> bool {
        self.text == other
    }
}

impl PartialEq<&str> for Ident {
    fn eq(&self, other: &&str) -> bool {
        self.text == *other
    }
}

impl PartialEq<String> for Ident {
    fn eq(&self, other: &String) -> bool {
        self.text == *other
    }
}

impl PartialEq<Ident> for String {
    fn eq(&self, other: &Ident) -> bool {
        *self == other.text
    }
}

impl From<Ident> for String {
    fn from(i: Ident) -> String {
        i.text
    }
}

// ---------------------------------------------------------------------
// Top level
// ---------------------------------------------------------------------

/// A complete G-CORE query: head clauses (PATH / query-local GRAPH views)
/// followed by the body.
#[derive(Clone, PartialEq, Debug)]
pub struct Query {
    pub heads: Vec<HeadClause>,
    pub body: QueryBody,
}

/// Graph-valued body (the core language) or the §5 tabular `SELECT`.
#[derive(Clone, PartialEq, Debug)]
pub enum QueryBody {
    Graph(FullGraphQuery),
    Select(SelectQuery),
}

/// A statement accepted by the engine: a query, or a persistent
/// `GRAPH VIEW name AS (query)` definition (§A.6).
#[derive(Clone, PartialEq, Debug)]
pub enum Statement {
    Query(Query),
    GraphView { name: Ident, query: Query },
}

/// PATH or query-local GRAPH clause in a query head.
#[derive(Clone, PartialEq, Debug)]
pub enum HeadClause {
    Path(PathClause),
    Graph(GraphClause),
}

/// `PATH name = pattern [, pattern]* [WHERE cond] [COST expr]` — a path
/// view usable as `~name` inside regular path expressions (§A.4).
///
/// The first pattern's first and last node are the path segment's start
/// and end; additional patterns (after `;` in the formal grammar, comma
/// here) constrain the segment non-linearly.
#[derive(Clone, PartialEq, Debug)]
pub struct PathClause {
    pub name: Ident,
    pub patterns: Vec<Pattern>,
    pub where_clause: Option<Expr>,
    pub cost: Option<Expr>,
}

/// `GRAPH name AS (fullGraphQuery)` — a query-local view (SQL WITH).
#[derive(Clone, PartialEq, Debug)]
pub struct GraphClause {
    pub name: Ident,
    pub query: Box<Query>,
}

/// Basic graph queries combined with graph-level set operations.
#[derive(Clone, PartialEq, Debug)]
pub enum FullGraphQuery {
    Basic(BasicGraphQuery),
    SetOp {
        op: GraphSetOp,
        left: Box<FullGraphQuery>,
        right: Box<FullGraphQuery>,
    },
}

impl FullGraphQuery {
    /// The basic queries combined by UNION / INTERSECT / MINUS, left to
    /// right.
    pub fn basic_queries(&self) -> impl Iterator<Item = &BasicGraphQuery> {
        let (mut next, mut rights) = (Some(self), Vec::new());
        std::iter::from_fn(move || loop {
            match next.take().or_else(|| rights.pop())? {
                FullGraphQuery::Basic(b) => return Some(b),
                FullGraphQuery::SetOp { left, right, .. } => {
                    rights.push(&**right);
                    next = Some(left);
                }
            }
        })
    }
}

impl QueryBody {
    /// Every MATCH clause of the body: one per basic query (those reading
    /// `FROM` a table have none), or the SELECT's.
    pub fn match_clauses(&self) -> impl Iterator<Item = &MatchClause> {
        let (graph, select) = match self {
            QueryBody::Graph(f) => (Some(f), None),
            QueryBody::Select(s) => (None, Some(&s.match_clause)),
        };
        let basics = graph.into_iter().flat_map(FullGraphQuery::basic_queries);
        let matches = basics.filter_map(|b| match &b.source {
            QuerySource::Match(m) => Some(m),
            QuerySource::From(_) => None,
        });
        matches.chain(select)
    }
}

/// UNION / INTERSECT / MINUS on whole graphs (§A.5).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GraphSetOp {
    Union,
    Intersect,
    Minus,
}

impl fmt::Display for GraphSetOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            GraphSetOp::Union => "UNION",
            GraphSetOp::Intersect => "INTERSECT",
            GraphSetOp::Minus => "MINUS",
        })
    }
}

/// `CONSTRUCT … MATCH …` (or `CONSTRUCT … FROM table`, §5).
#[derive(Clone, PartialEq, Debug)]
pub struct BasicGraphQuery {
    pub construct: ConstructClause,
    pub source: QuerySource,
}

/// Where a basic query's bindings come from.
#[derive(Clone, PartialEq, Debug)]
pub enum QuerySource {
    Match(MatchClause),
    /// §5 "binding table inputs": one binding per table row, one value
    /// variable per column.
    From(Ident),
}

// ---------------------------------------------------------------------
// MATCH
// ---------------------------------------------------------------------

/// `MATCH patterns [WHERE cond] (OPTIONAL patterns [WHERE cond])*`.
#[derive(Clone, PartialEq, Debug)]
pub struct MatchClause {
    pub patterns: Vec<LocatedPattern>,
    pub where_clause: Option<Expr>,
    /// Source region of `where_clause` (for diagnostics on expressions
    /// that contain no spanned identifier of their own).
    pub where_span: AstSpan,
    pub optionals: Vec<OptionalBlock>,
}

impl MatchClause {
    /// Every pattern of the clause: the main block's, then each OPTIONAL
    /// block's, in source order.
    pub fn located_patterns(&self) -> impl Iterator<Item = &LocatedPattern> {
        let optional = self.optionals.iter().flat_map(|o| &o.patterns);
        self.patterns.iter().chain(optional)
    }

    /// Every WHERE of the clause with its source region: the main
    /// block's, then each OPTIONAL block's.
    pub fn where_clauses(&self) -> impl Iterator<Item = (&Expr, AstSpan)> {
        let main = self.where_clause.as_ref().map(|w| (w, self.where_span));
        let optional =
            (self.optionals.iter()).filter_map(|o| Some((o.where_clause.as_ref()?, o.where_span)));
        main.into_iter().chain(optional)
    }
}

/// One `OPTIONAL` block: all its comma-separated patterns must match
/// together; left-outer-joined onto the main bindings (§3, §A.2).
#[derive(Clone, PartialEq, Debug)]
pub struct OptionalBlock {
    pub patterns: Vec<LocatedPattern>,
    pub where_clause: Option<Expr>,
    /// Source region of `where_clause` (see [`MatchClause::where_span`]).
    pub where_span: AstSpan,
}

/// A pattern with an optional `ON location` (§A.2 "basic graph patterns
/// with location").
#[derive(Clone, PartialEq, Debug)]
pub struct LocatedPattern {
    pub pattern: Pattern,
    pub on: Option<Location>,
}

/// The location a pattern is evaluated on: a named graph / table, or a
/// full graph subquery.
#[derive(Clone, PartialEq, Debug)]
pub enum Location {
    Named(Ident),
    Subquery(Box<Query>),
}

/// A linear chain `(n)-[e]->(m)-/…/->(k)…`.
#[derive(Clone, PartialEq, Debug)]
pub struct Pattern {
    pub start: NodePattern,
    pub steps: Vec<PatternStep>,
    /// Source region of the whole chain.
    pub span: AstSpan,
}

impl Pattern {
    /// A single-node pattern.
    pub fn single(node: NodePattern) -> Self {
        Pattern {
            start: node,
            steps: Vec::new(),
            span: AstSpan::default(),
        }
    }

    /// All node patterns, in order.
    pub fn nodes(&self) -> impl Iterator<Item = &NodePattern> {
        std::iter::once(&self.start).chain(self.steps.iter().map(|s| &s.node))
    }

    /// Every variable the pattern binds, with the role it is bound in,
    /// in syntactic order: per element its own variable(s), then the
    /// `{k = v}` entries on it whose value is a plain variable — on
    /// nodes and edges alike. Such an entry binds `v` only where nothing
    /// else does; the matcher filters with it otherwise.
    #[inline]
    pub fn binders(&self) -> Binders<'_> {
        Binders {
            pattern: self,
            next: 0,
            own: [None, None],
            own_at: 2,
            props: &[],
        }
    }

    /// Every property entry on the pattern's nodes and edges, in
    /// syntactic order.
    pub fn prop_entries(&self) -> impl Iterator<Item = &PropEntry> {
        (0..)
            .map_while(|i| self.element(i))
            .flat_map(|(_, props)| props)
    }

    /// Element `i` of the chain in syntactic order — 0 is the start node,
    /// `2k + 1` and `2k + 2` are step `k`'s connection and node — as the
    /// variables it declares, with their roles, and its property entries.
    #[inline]
    fn element(&self, i: usize) -> Option<Element<'_>> {
        fn node(n: &NodePattern) -> Element<'_> {
            (
                [n.var.as_ref().map(|v| (v, BinderRole::Node)), None],
                &n.props,
            )
        }
        let Some(k) = i.checked_sub(1) else {
            return Some(node(&self.start));
        };
        let step = self.steps.get(k / 2)?;
        if k % 2 == 1 {
            return Some(node(&step.node));
        }
        Some(match &step.connection {
            Connection::Edge(e) => (
                [e.var.as_ref().map(|v| (v, BinderRole::Edge)), None],
                &e.props,
            ),
            Connection::Path(p) => {
                let path = p.var.as_ref().map(|v| (v, BinderRole::Path));
                (
                    [path, p.cost_var.as_ref().map(|c| (c, BinderRole::Cost))],
                    &[],
                )
            }
        })
    }
}

/// One element of a pattern chain: the variables it declares, with their
/// roles, and its property entries.
type Element<'a> = ([Option<(&'a Ident, BinderRole)>; 2], &'a [PropEntry]);

/// The binders of a [`Pattern`], in syntactic order (see
/// [`Pattern::binders`]). A plain state machine rather than an adaptor
/// chain: analysis and planning ask it for every pattern of every
/// statement.
pub struct Binders<'a> {
    pattern: &'a Pattern,
    /// The element to read after the current one.
    next: usize,
    /// The current element's own variables, from `own_at` on, and its
    /// entries not yet looked at.
    own: [Option<(&'a Ident, BinderRole)>; 2],
    own_at: usize,
    props: &'a [PropEntry],
}

impl<'a> Iterator for Binders<'a> {
    type Item = (&'a Ident, BinderRole);

    #[inline]
    fn next(&mut self) -> Option<(&'a Ident, BinderRole)> {
        loop {
            while let Some(&slot) = self.own.get(self.own_at) {
                self.own_at += 1;
                if slot.is_some() {
                    return slot;
                }
            }
            while let Some((entry, rest)) = self.props.split_first() {
                self.props = rest;
                if let Expr::Var(v) = &entry.value {
                    return Some((v, BinderRole::Value));
                }
            }
            (self.own, self.props) = self.pattern.element(self.next)?;
            (self.next, self.own_at) = (self.next + 1, 0);
        }
    }
}

/// The position at which a MATCH pattern binds a variable.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BinderRole {
    /// `(x)`.
    Node,
    /// `-[e]-`.
    Edge,
    /// `-/p <…>/-`.
    Path,
    /// `COST c` on a path pattern.
    Cost,
    /// `{k = v}` on a node or an edge.
    Value,
}

impl BinderRole {
    /// A node or an edge: an element the matcher filters where it binds
    /// it.
    #[must_use]
    pub fn is_element(self) -> bool {
        matches!(self, BinderRole::Node | BinderRole::Edge)
    }

    /// Declared by the chain itself rather than by a property entry.
    #[must_use]
    pub fn is_structural(self) -> bool {
        self != BinderRole::Value
    }
}

/// One hop of a pattern chain: a connection plus its target node.
#[derive(Clone, PartialEq, Debug)]
pub struct PatternStep {
    pub connection: Connection,
    pub node: NodePattern,
}

/// An edge or path connection between two node patterns.
#[derive(Clone, PartialEq, Debug)]
pub enum Connection {
    Edge(EdgePattern),
    Path(PathPattern),
}

/// Direction of a connection relative to reading order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Direction {
    /// `-[…]->`
    Out,
    /// `<-[…]-`
    In,
    /// `-[…]-` — either direction.
    Undirected,
}

/// A node pattern `(x:L1|L2 {k = e, …})`.
#[derive(Clone, PartialEq, Default, Debug)]
pub struct NodePattern {
    pub var: Option<Ident>,
    pub labels: Vec<LabelDisjunction>,
    pub props: Vec<PropEntry>,
}

/// A disjunctive label test `:Post|Comment` — at least one must hold.
/// The second field is the source span of the test.
#[derive(Clone, PartialEq, Debug)]
pub struct LabelDisjunction(pub Vec<String>, pub AstSpan);

/// `{key = expr}` inside a MATCH element: if `expr` is a plain variable
/// it *binds* that variable to each value of the (multi-valued) property,
/// unrolling; otherwise it filters by set membership.
#[derive(Clone, PartialEq, Debug)]
pub struct PropEntry {
    pub key: Ident,
    pub value: Expr,
}

/// An edge pattern `-[e:knows {since = d}]->`.
#[derive(Clone, PartialEq, Debug)]
pub struct EdgePattern {
    pub direction: Direction,
    pub var: Option<Ident>,
    pub labels: Vec<LabelDisjunction>,
    pub props: Vec<PropEntry>,
}

/// How many paths a path pattern yields per endpoint pair.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PathMode {
    /// Default: one (the canonical shortest) path.
    Shortest(u32),
    /// `ALL` — every conforming path, only legal for graph projection.
    All,
}

/// A path pattern `-/3 SHORTEST p <:knows*> COST c/->` or a stored-path
/// pattern `-/@p:toWagner/->`.
#[derive(Clone, PartialEq, Debug)]
pub struct PathPattern {
    pub direction: Direction,
    pub mode: PathMode,
    /// `@` prefix: bind existing *stored* paths instead of computing one.
    pub stored: bool,
    pub var: Option<Ident>,
    /// Label tests on the (stored) path object.
    pub labels: Vec<LabelDisjunction>,
    /// The regular expression between `<` and `>`; `None` for pure
    /// stored-path patterns.
    pub regex: Option<Regex>,
    /// `COST c` binds the path cost to a value variable.
    pub cost_var: Option<Ident>,
    /// Source region of the `-/…/->` connection.
    pub span: AstSpan,
}

/// Regular expressions over edge labels, inverse labels, node tests,
/// wildcards and path-view references (§A.1).
#[derive(Clone, PartialEq, Debug)]
pub enum Regex {
    /// `:knows` — an edge with this label, forward.
    Label(String),
    /// `:knows-` — an edge with this label, traversed backwards (ℓ⁻).
    LabelInv(String),
    /// `!Person` — a node with this label.
    NodeTest(String),
    /// `_` — any single edge.
    Wildcard,
    /// `~wKnows` — a path view defined by a PATH clause.
    View(String),
    /// Concatenation `r r`.
    Concat(Vec<Regex>),
    /// Alternation `r + r` (also written `r | r`).
    Alt(Vec<Regex>),
    /// Kleene star `r*`.
    Star(Box<Regex>),
    /// One-or-more `r+` is desugared to `r r*` by the parser; retained
    /// here for pretty-printing fidelity.
    Plus(Box<Regex>),
    /// Zero-or-one `r?`.
    Opt(Box<Regex>),
}

impl Regex {
    /// Call `visit` on this expression and every sub-expression inside
    /// it, pre-order.
    pub fn walk<'a>(&'a self, visit: &mut impl FnMut(&'a Regex)) {
        visit(self);
        match self {
            Regex::Concat(parts) | Regex::Alt(parts) => {
                for p in parts {
                    p.walk(visit);
                }
            }
            Regex::Star(r) | Regex::Plus(r) | Regex::Opt(r) => r.walk(visit),
            Regex::Label(_)
            | Regex::LabelInv(_)
            | Regex::NodeTest(_)
            | Regex::Wildcard
            | Regex::View(_) => {}
        }
    }
}

// ---------------------------------------------------------------------
// CONSTRUCT
// ---------------------------------------------------------------------

/// `CONSTRUCT item, item, …`.
#[derive(Clone, PartialEq, Debug)]
pub struct ConstructClause {
    pub items: Vec<ConstructItem>,
}

/// One comma-separated CONSTRUCT item: a graph name (shorthand for
/// unioning that graph in) or a construct pattern.
// Construct patterns dominate in practice, so the size skew is the
// common case, not wasted space.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, PartialEq, Debug)]
pub enum ConstructItem {
    GraphName(String),
    Pattern(ConstructPattern),
}

/// A construct pattern chain with its optional sub-clauses.
#[derive(Clone, PartialEq, Debug)]
pub struct ConstructPattern {
    pub start: ConstructNode,
    pub steps: Vec<ConstructStep>,
    /// Source region of the pattern chain (not including WHEN/SET/REMOVE).
    pub span: AstSpan,
    /// `WHEN cond` — per-group filter (§A.3).
    pub when: Option<Expr>,
    /// Trailing `SET` assignments.
    pub sets: Vec<SetItem>,
    /// Trailing `REMOVE` assignments.
    pub removes: Vec<RemoveItem>,
}

impl ConstructPattern {
    /// Every construct variable of the chain, in syntactic order.
    pub fn vars(&self) -> impl Iterator<Item = &Ident> {
        let steps = self.steps.iter().flat_map(|s| {
            let connection = match &s.connection {
                ConstructConnection::Edge(e) => e.var.as_ref(),
                ConstructConnection::Path(p) => Some(&p.var),
            };
            [connection, s.node.var.as_ref()]
        });
        std::iter::once(self.start.var.as_ref())
            .chain(steps)
            .flatten()
    }
}

/// One hop of a construct chain.
#[derive(Clone, PartialEq, Debug)]
pub struct ConstructStep {
    pub connection: ConstructConnection,
    pub node: ConstructNode,
}

/// Edge or path construct between two node constructs.
#[derive(Clone, PartialEq, Debug)]
pub enum ConstructConnection {
    Edge(ConstructEdge),
    Path(ConstructPath),
}

/// `(x GROUP e :Company {name := e})`.
#[derive(Clone, PartialEq, Default, Debug)]
pub struct ConstructNode {
    pub var: Option<Ident>,
    /// `(=n)` — construct a fresh element copying n's labels/properties.
    pub copy_of: Option<Ident>,
    /// Explicit `GROUP` expressions extending the grouping set Γ.
    pub group: Option<Vec<Expr>>,
    pub labels: Vec<String>,
    /// `{k := expr}` property instantiations.
    pub assigns: Vec<PropAssign>,
}

/// `-[y:worksAt {w := e}]->` on the construct side.
#[derive(Clone, PartialEq, Debug)]
pub struct ConstructEdge {
    pub direction: Direction,
    pub var: Option<Ident>,
    pub copy_of: Option<Ident>,
    pub group: Option<Vec<Expr>>,
    pub labels: Vec<String>,
    pub assigns: Vec<PropAssign>,
}

/// `-/@p:localPeople {distance := c}/->` (stored) or `-/p/->` (projected).
#[derive(Clone, PartialEq, Debug)]
pub struct ConstructPath {
    pub direction: Direction,
    /// `@` — store the path object in the result graph; without it the
    /// path's nodes and edges are merely projected.
    pub stored: bool,
    pub var: Ident,
    pub labels: Vec<String>,
    pub assigns: Vec<PropAssign>,
}

/// `key := expr` inside a construct element.
#[derive(Clone, PartialEq, Debug)]
pub struct PropAssign {
    pub key: Ident,
    pub value: Expr,
}

/// Trailing `SET` items (§A.3 Set assignments).
#[derive(Clone, PartialEq, Debug)]
pub enum SetItem {
    /// `SET x.k := expr` — (+x.k = ξ).
    Prop {
        var: Ident,
        key: String,
        value: Expr,
    },
    /// `SET x:Label` — (+x : l).
    Label { var: Ident, label: String },
    /// `SET x = y` — copy all labels and properties of y onto x (+x = y).
    Copy { var: Ident, from: Ident },
}

/// Trailing `REMOVE` items (§A.3 Remove assignments).
#[derive(Clone, PartialEq, Debug)]
pub enum RemoveItem {
    /// `REMOVE x.k` — (−x.k).
    Prop { var: Ident, key: String },
    /// `REMOVE x:Label` — (−x : l).
    Label { var: Ident, label: String },
}

// ---------------------------------------------------------------------
// SELECT (§5 extension)
// ---------------------------------------------------------------------

/// `SELECT [DISTINCT] items MATCH … [GROUP BY …] [ORDER BY …] [LIMIT …]`.
#[derive(Clone, PartialEq, Debug)]
pub struct SelectQuery {
    pub distinct: bool,
    pub items: Vec<SelectItem>,
    pub match_clause: MatchClause,
    pub group_by: Vec<Expr>,
    pub order_by: Vec<OrderItem>,
    pub limit: Option<u64>,
    pub offset: Option<u64>,
}

/// One projection item, optionally aliased.
#[derive(Clone, PartialEq, Debug)]
pub struct SelectItem {
    pub expr: Expr,
    pub alias: Option<Ident>,
}

/// One ORDER BY key.
#[derive(Clone, PartialEq, Debug)]
pub struct OrderItem {
    pub expr: Expr,
    pub ascending: bool,
}

// ---------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------

/// Scalar/boolean expressions (§A.1 "Expressions").
#[derive(Clone, PartialEq, Debug)]
pub enum Expr {
    Int(i64),
    Float(f64),
    Str(String),
    Bool(bool),
    Null,
    /// `DATE '2020-01-02'`.
    DateLit(String),
    Var(Ident),
    /// `x.k` — property access (σ(x,k), a value set).
    Prop(Box<Expr>, String),
    /// `x:Person` or `x:Post|Comment` — label test (x:ℓ).
    LabelTest(Box<Expr>, Vec<String>),
    /// `nodes(p)[i]` — zero-based indexing into a list.
    Index(Box<Expr>, Box<Expr>),
    Unary(UnaryOp, Box<Expr>),
    Binary(BinaryOp, Box<Expr>, Box<Expr>),
    /// Built-in scalar functions.
    Func(Func, Vec<Expr>),
    /// Aggregation; `None` argument means `COUNT(*)`.
    Aggregate {
        op: AggOp,
        distinct: bool,
        arg: Option<Box<Expr>>,
    },
    /// `CASE [operand] WHEN … THEN … [ELSE …] END`.
    Case {
        operand: Option<Box<Expr>>,
        whens: Vec<(Expr, Expr)>,
        else_: Option<Box<Expr>>,
    },
    /// `EXISTS (query)` — explicit existential subquery.
    Exists(Box<Query>),
    /// A graph pattern used as predicate — implicit existential (§3).
    PatternPredicate(Box<Pattern>),
}

/// Unary operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UnaryOp {
    Not,
    Neg,
}

/// Binary operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BinaryOp {
    And,
    Or,
    Eq,
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
    /// Set membership (the guided tour's fix for multi-valued joins).
    In,
    /// Set inclusion.
    Subset,
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

impl fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
            BinaryOp::Eq => "=",
            BinaryOp::Neq => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::Le => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::Ge => ">=",
            BinaryOp::In => "IN",
            BinaryOp::Subset => "SUBSET",
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Mod => "%",
        })
    }
}

/// Built-in scalar functions (§A.1 names Labels, Nodes, Edges, Size and
/// "standard ones for type casting, string, date and collection handling").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Func {
    /// Label set of an element, as a list.
    Labels,
    /// Node list of a path.
    Nodes,
    /// Edge list of a path.
    Edges,
    /// Length of a path (hop count).
    Length,
    /// Cardinality of a value set / list / string length.
    Size,
    /// Cast to string.
    ToString,
    /// Cast to integer.
    ToInteger,
    /// Cast to float.
    ToFloat,
    /// Lowercase a string.
    Lower,
    /// Uppercase a string.
    Upper,
    /// Absolute value.
    Abs,
    /// Strip leading/trailing whitespace.
    Trim,
    /// Substring containment test.
    Contains,
    /// String prefix test.
    StartsWith,
    /// String suffix test.
    EndsWith,
    /// `substring(s, start [, len])`, zero-based like `nodes(p)[i]`.
    Substring,
    /// Year of a date.
    Year,
    /// Month of a date.
    Month,
    /// Day of a date.
    Day,
    /// Round a float down.
    Floor,
    /// Round a float up.
    Ceil,
    /// Square root.
    Sqrt,
    /// First element of a list.
    Head,
    /// Last element of a list.
    Last,
}

impl Func {
    /// Recognize a function by (case-insensitive) name.
    pub fn from_name(name: &str) -> Option<Func> {
        Some(match name.to_ascii_lowercase().as_str() {
            "labels" => Func::Labels,
            "nodes" => Func::Nodes,
            "edges" => Func::Edges,
            "length" => Func::Length,
            "size" => Func::Size,
            "tostring" | "to_string" => Func::ToString,
            "tointeger" | "to_integer" => Func::ToInteger,
            "tofloat" | "to_float" => Func::ToFloat,
            "lower" => Func::Lower,
            "upper" => Func::Upper,
            "abs" => Func::Abs,
            "trim" => Func::Trim,
            "contains" => Func::Contains,
            "startswith" | "starts_with" => Func::StartsWith,
            "endswith" | "ends_with" => Func::EndsWith,
            "substring" => Func::Substring,
            "year" => Func::Year,
            "month" => Func::Month,
            "day" => Func::Day,
            "floor" => Func::Floor,
            "ceil" => Func::Ceil,
            "sqrt" => Func::Sqrt,
            "head" => Func::Head,
            "last" => Func::Last,
            _ => return None,
        })
    }

    /// Canonical spelling.
    pub fn name(self) -> &'static str {
        match self {
            Func::Labels => "labels",
            Func::Nodes => "nodes",
            Func::Edges => "edges",
            Func::Length => "length",
            Func::Size => "size",
            Func::ToString => "toString",
            Func::ToInteger => "toInteger",
            Func::ToFloat => "toFloat",
            Func::Lower => "lower",
            Func::Upper => "upper",
            Func::Abs => "abs",
            Func::Trim => "trim",
            Func::Contains => "contains",
            Func::StartsWith => "startsWith",
            Func::EndsWith => "endsWith",
            Func::Substring => "substring",
            Func::Year => "year",
            Func::Month => "month",
            Func::Day => "day",
            Func::Floor => "floor",
            Func::Ceil => "ceil",
            Func::Sqrt => "sqrt",
            Func::Head => "head",
            Func::Last => "last",
        }
    }
}

/// Aggregation functions (§A.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AggOp {
    Count,
    Sum,
    Min,
    Max,
    Avg,
    Collect,
}

impl AggOp {
    /// Recognize an aggregate by (case-insensitive) name.
    pub fn from_name(name: &str) -> Option<AggOp> {
        Some(match name.to_ascii_lowercase().as_str() {
            "count" => AggOp::Count,
            "sum" => AggOp::Sum,
            "min" => AggOp::Min,
            "max" => AggOp::Max,
            "avg" => AggOp::Avg,
            "collect" => AggOp::Collect,
            _ => return None,
        })
    }

    /// Canonical spelling.
    pub fn name(self) -> &'static str {
        match self {
            AggOp::Count => "COUNT",
            AggOp::Sum => "SUM",
            AggOp::Min => "MIN",
            AggOp::Max => "MAX",
            AggOp::Avg => "AVG",
            AggOp::Collect => "COLLECT",
        }
    }
}

/// The direct sub-expressions of an [`Expr`], left to right (see
/// [`Expr::children`]). An enum rather than an adaptor chain, so that the
/// many leaves of an expression cost one tag each.
pub enum Children<'a> {
    /// No sub-expression left.
    Done,
    /// One operand left.
    One(&'a Expr),
    /// Two operands left.
    Two(&'a Expr, &'a Expr),
    /// Function arguments.
    Args(std::slice::Iter<'a, Expr>),
    /// A `CASE`: its operand, each `WHEN` condition and its result, the
    /// `ELSE`.
    Case {
        next: Option<&'a Expr>,
        whens: std::slice::Iter<'a, (Expr, Expr)>,
        else_: Option<&'a Expr>,
    },
}

impl<'a> Iterator for Children<'a> {
    type Item = &'a Expr;

    #[inline]
    fn next(&mut self) -> Option<&'a Expr> {
        match self {
            Children::Done => None,
            Children::One(a) => {
                let a = *a;
                *self = Children::Done;
                Some(a)
            }
            Children::Two(a, b) => {
                let (a, b) = (*a, *b);
                *self = Children::One(b);
                Some(a)
            }
            Children::Args(args) => args.next(),
            Children::Case { next, whens, else_ } => next
                .take()
                .or_else(|| {
                    let (condition, result) = whens.next()?;
                    *next = Some(result);
                    Some(condition)
                })
                .or_else(|| else_.take()),
        }
    }
}

impl Expr {
    /// The direct sub-expressions, left to right. The bodies of `EXISTS`
    /// subqueries and pattern predicates are not entered: they are
    /// queries and patterns of their own, not operands.
    #[inline]
    pub fn children(&self) -> Children<'_> {
        match self {
            Expr::Int(_)
            | Expr::Float(_)
            | Expr::Str(_)
            | Expr::Bool(_)
            | Expr::Null
            | Expr::DateLit(_)
            | Expr::Var(_)
            | Expr::Exists(_)
            | Expr::PatternPredicate(_)
            | Expr::Aggregate { arg: None, .. } => Children::Done,
            Expr::Prop(e, _)
            | Expr::LabelTest(e, _)
            | Expr::Unary(_, e)
            | Expr::Aggregate { arg: Some(e), .. } => Children::One(e),
            Expr::Index(a, b) | Expr::Binary(_, a, b) => Children::Two(a, b),
            Expr::Func(_, args) => Children::Args(args.iter()),
            Expr::Case {
                operand,
                whens,
                else_,
            } => Children::Case {
                next: operand.as_deref(),
                whens: whens.iter(),
                else_: else_.as_deref(),
            },
        }
    }

    /// Does `pred` hold for this expression or any expression inside it
    /// (subquery bodies aside, as in [`Expr::children`])?
    pub fn any(&self, pred: &impl Fn(&Expr) -> bool) -> bool {
        pred(self) || self.children().any(|c| c.any(pred))
    }

    /// Call `visit` on this expression and every expression inside it,
    /// pre-order (subquery bodies aside, as in [`Expr::children`]).
    pub fn walk<'a>(&'a self, visit: &mut impl FnMut(&'a Expr)) {
        visit(self);
        for c in self.children() {
            c.walk(visit);
        }
    }

    /// The source span of the leftmost spanned identifier inside this
    /// expression, if any. Literals carry no span of their own, so an
    /// all-literal expression yields `None`; callers fall back to the
    /// enclosing clause span.
    #[must_use]
    pub fn first_span(&self) -> Option<Span> {
        match self {
            Expr::Var(v) => Some(v.span.span()),
            Expr::PatternPredicate(p) => Some(p.span.span()),
            _ => self.children().find_map(Expr::first_span),
        }
    }

    /// The top-level `AND` conjuncts of this expression, left to right
    /// (the expression itself when it is not a conjunction).
    #[must_use]
    pub fn conjuncts(&self) -> Vec<&Expr> {
        fn split<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
            if let Expr::Binary(BinaryOp::And, a, b) = e {
                split(a, out);
                split(b, out);
            } else {
                out.push(e);
            }
        }
        let mut out = Vec::new();
        split(self, &mut out);
        out
    }

    /// Does this expression (transitively) contain an aggregate?
    pub fn contains_aggregate(&self) -> bool {
        matches!(self, Expr::Aggregate { .. }) || self.children().any(Expr::contains_aggregate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_query;

    fn match_clause(q: &Query) -> &MatchClause {
        q.body.match_clauses().next().expect("a MATCH clause")
    }

    #[test]
    fn binders_follow_the_chain_on_nodes_and_edges_alike() {
        let q = parse_query(
            "CONSTRUCT (a) MATCH (a {k = v})-[e {s = w, t = 1}]->(b)-/p <:knows*> COST c/->(d)",
        )
        .unwrap();
        let pattern = &match_clause(&q).patterns[0].pattern;
        let got: Vec<(&str, BinderRole)> =
            pattern.binders().map(|(v, r)| (v.as_str(), r)).collect();
        use BinderRole::*;
        let want = [
            ("a", Node),
            ("v", Value),
            ("e", Edge),
            ("w", Value),
            ("b", Node),
            ("p", Path),
            ("c", Cost),
            ("d", Node),
        ];
        assert_eq!(got, want);
        let keys: Vec<&str> = pattern.prop_entries().map(|p| p.key.as_str()).collect();
        assert_eq!(keys, ["k", "s", "t"]);
    }

    #[test]
    fn children_are_the_operands_in_order_and_stop_at_subqueries() {
        let q = parse_query(
            "CONSTRUCT (n) MATCH (n) WHERE CASE n.a WHEN 1 THEN size(x) ELSE COUNT(y) END \
             AND EXISTS (CONSTRUCT () MATCH (m) WHERE m.b = z)",
        )
        .unwrap();
        let w = match_clause(&q).where_clause.as_ref().unwrap();
        let mut vars = Vec::new();
        w.walk(&mut |e| {
            if let Expr::Var(v) = e {
                vars.push(v.as_str());
            }
        });
        // Pre-order, operand before WHEN pairs before ELSE; the EXISTS
        // body (`m`, `z`) is not entered.
        assert_eq!(vars, ["n", "x", "y"]);
        assert!(w.contains_aggregate());
        assert_eq!(w.children().count(), 2);
    }

    #[test]
    fn set_operations_and_blocks_iterate_in_source_order() {
        let q = parse_query(
            "CONSTRUCT (a) MATCH (a) OPTIONAL (a)-[]->(b) WHERE b.k = 1 OPTIONAL (c) \
             UNION CONSTRUCT (d) MATCH (d) MINUS CONSTRUCT (e) FROM t",
        )
        .unwrap();
        let QueryBody::Graph(f) = &q.body else {
            panic!("graph query")
        };
        assert_eq!(f.basic_queries().count(), 3);
        let clauses: Vec<&MatchClause> = q.body.match_clauses().collect();
        assert_eq!(clauses.len(), 2);
        let starts: Vec<&str> = (clauses[0].located_patterns())
            .map(|lp| lp.pattern.start.var.as_deref().unwrap())
            .collect();
        assert_eq!(starts, ["a", "a", "c"]);
        assert_eq!(clauses[0].where_clauses().count(), 1);
    }
}

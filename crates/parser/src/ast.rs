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

impl Expr {
    /// The source span of the leftmost spanned identifier inside this
    /// expression, if any. Literals carry no span of their own, so an
    /// all-literal expression yields `None`; callers fall back to the
    /// enclosing clause span.
    #[must_use]
    pub fn first_span(&self) -> Option<Span> {
        match self {
            Expr::Var(v) => Some(v.span.span()),
            Expr::Prop(e, _) | Expr::LabelTest(e, _) | Expr::Unary(_, e) => e.first_span(),
            Expr::Index(a, b) | Expr::Binary(_, a, b) => a.first_span().or_else(|| b.first_span()),
            Expr::Func(_, args) => args.iter().find_map(Expr::first_span),
            Expr::Aggregate { arg, .. } => arg.as_deref().and_then(Expr::first_span),
            Expr::Case {
                operand,
                whens,
                else_,
            } => operand
                .as_deref()
                .and_then(Expr::first_span)
                .or_else(|| {
                    whens
                        .iter()
                        .find_map(|(c, r)| c.first_span().or_else(|| r.first_span()))
                })
                .or_else(|| else_.as_deref().and_then(Expr::first_span)),
            Expr::PatternPredicate(p) => Some(p.span.span()),
            _ => None,
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
        match self {
            Expr::Aggregate { .. } => true,
            Expr::Prop(e, _) | Expr::LabelTest(e, _) | Expr::Unary(_, e) => e.contains_aggregate(),
            Expr::Index(a, b) | Expr::Binary(_, a, b) => {
                a.contains_aggregate() || b.contains_aggregate()
            }
            Expr::Func(_, args) => args.iter().any(Expr::contains_aggregate),
            Expr::Case {
                operand,
                whens,
                else_,
            } => {
                operand.as_deref().is_some_and(Expr::contains_aggregate)
                    || whens
                        .iter()
                        .any(|(c, r)| c.contains_aggregate() || r.contains_aggregate())
                    || else_.as_deref().is_some_and(Expr::contains_aggregate)
            }
            _ => false,
        }
    }
}

//! Expression evaluation — §A.1 "Expressions".
//!
//! An expression evaluates, for one binding µ, to an [`Rv`]: an element
//! identifier, a literal, a *value set* (property access is multi-valued,
//! per Definition 2.1), or a list (`nodes(p)`, `labels(x)`, `COLLECT`).
//!
//! Set-aware comparison semantics reproduce the guided tour's worked
//! examples: `=` compares property sets as sets (scalars coerce to
//! singletons), `IN` is membership, `SUBSET` is inclusion, and absent
//! properties are the empty set (so `"MIT" = {"CWI","MIT"}` is FALSE while
//! `"MIT" IN {"CWI","MIT"}` is TRUE).
//!
//! An expression is compiled once per evaluation site and table — a
//! WHERE over one table, the items of one SELECT, the assignments of one
//! construct pattern — by a `Compiler` that knows the table's schema
//! and the outer scopes: variables become (scope depth, column), keys
//! and labels their symbols, literals prebuilt values and aggregates
//! ordinals into their group's memo (a group folds the aggregates of
//! one compiler; another's is an error). The `Compiled` form is then
//! evaluated once per row. A property read borrows the graph's value
//! set and a literal its prebuilt value, so comparing a property with a
//! literal allocates nothing; only what a caller keeps (a SELECT cell, a
//! grouping key) is cloned out. A name no graph has ever used compiles
//! to the empty set (a key) or to FALSE (a label test). Errors stay lazy:
//! an invalid `DATE` literal compiles to its error, raised when a row
//! reaches it, so a statement whose rows never do still succeeds.
//! `EXISTS` and pattern predicates stay references to their own blocks.

use crate::binding::{BindingTable, Bound};
use crate::context::{EvalCtx, FreshPath};
use crate::error::{Result, RuntimeError, SemanticError};
use gcore_parser::ast::{AggOp, BinaryOp, Expr, Func, Pattern, Query, UnaryOp};
use gcore_ppg::{Date, ElementId, Key, Label, PathPropertyGraph, PropertySet, Value};
use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::cmp::Ordering;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;

/// Runtime value of an expression. Literals and value sets may borrow
/// (`'a`) from the graph they were read from or from a compiled constant.
#[derive(Clone, Debug)]
pub enum Rv<'a> {
    /// Absence (failed lookups, missing variables).
    Null,
    /// A scalar literal.
    Value(Cow<'a, Value>),
    /// A value set — the result of property access σ(x, k).
    Set(Cow<'a, PropertySet>),
    /// A node identifier.
    Node(gcore_ppg::NodeId),
    /// An edge identifier.
    Edge(gcore_ppg::EdgeId),
    /// A stored path identifier.
    Path(gcore_ppg::PathId),
    /// A computed (not stored) path, by arena index.
    FreshPath(usize),
    /// A list (nodes(p), edges(p), labels(x), COLLECT(…)).
    List(Vec<Rv<'a>>),
}

impl Rv<'_> {
    /// An owned scalar.
    pub fn value(v: Value) -> Self {
        Rv::Value(Cow::Owned(v))
    }

    fn bool(b: bool) -> Self {
        Rv::value(Value::Bool(b))
    }

    fn empty_set() -> Self {
        Rv::Set(Cow::Owned(PropertySet::empty()))
    }

    /// Boolean truthiness: only `TRUE` (possibly as a singleton set)
    /// passes a WHERE filter.
    pub fn truthy(&self) -> bool {
        match self {
            Rv::Value(v) => v.as_bool().unwrap_or(false),
            Rv::Set(s) => s.as_singleton().and_then(Value::as_bool).unwrap_or(false),
            _ => false,
        }
    }

    /// Scalar coercion: singleton sets unwrap; everything non-scalar
    /// becomes `None`.
    pub fn as_scalar(&self) -> Option<&Value> {
        match self {
            Rv::Value(v) => Some(v),
            Rv::Set(s) => s.as_singleton(),
            _ => None,
        }
    }

    /// Coercion to a value set, as its sorted values: scalars are
    /// singletons, NULL (and a NULL scalar) the empty set. `None` for
    /// element ids and lists.
    fn set_values(&self) -> Option<&[Value]> {
        match self {
            Rv::Value(v) if v.is_null() => Some(&[]),
            Rv::Value(v) => Some(std::slice::from_ref(&**v)),
            Rv::Set(s) => Some(s.values()),
            Rv::Null => Some(&[]),
            _ => None,
        }
    }

    /// Convert a binding to an Rv.
    pub fn from_bound(b: &Bound) -> Rv<'static> {
        match b {
            Bound::Missing => Rv::Null,
            Bound::Node(n) => Rv::Node(*n),
            Bound::Edge(e) => Rv::Edge(*e),
            Bound::Path(p) => Rv::Path(*p),
            Bound::FreshPath(i) => Rv::FreshPath(*i),
            Bound::Value(v) => Rv::value(v.clone()),
        }
    }

    /// This value, borrowing whatever it owns.
    fn reborrow(&self) -> Rv<'_> {
        match self {
            Rv::Value(v) => Rv::Value(Cow::Borrowed(&**v)),
            Rv::Set(s) => Rv::Set(Cow::Borrowed(&**s)),
            Rv::List(items) => Rv::List(items.iter().map(Rv::reborrow).collect()),
            Rv::Null => Rv::Null,
            Rv::Node(n) => Rv::Node(*n),
            Rv::Edge(e) => Rv::Edge(*e),
            Rv::Path(p) => Rv::Path(*p),
            Rv::FreshPath(i) => Rv::FreshPath(*i),
        }
    }

    /// This value, owning what it borrowed.
    pub fn into_owned(self) -> Rv<'static> {
        match self {
            Rv::Value(v) => Rv::value(v.into_owned()),
            Rv::Set(s) => Rv::Set(Cow::Owned(s.into_owned())),
            Rv::List(items) => Rv::List(items.into_iter().map(Rv::into_owned).collect()),
            Rv::Null => Rv::Null,
            Rv::Node(n) => Rv::Node(n),
            Rv::Edge(e) => Rv::Edge(e),
            Rv::Path(p) => Rv::Path(p),
            Rv::FreshPath(i) => Rv::FreshPath(i),
        }
    }

    /// Deterministic total order (used by COLLECT and grouping keys).
    pub fn total_cmp(&self, other: &Rv<'_>) -> Ordering {
        fn rank(r: &Rv<'_>) -> u8 {
            match r {
                Rv::Null => 0,
                Rv::Value(_) => 1,
                Rv::Set(_) => 2,
                Rv::Node(_) => 3,
                Rv::Edge(_) => 4,
                Rv::Path(_) => 5,
                Rv::FreshPath(_) => 6,
                Rv::List(_) => 7,
            }
        }
        match (self, other) {
            (Rv::Value(a), Rv::Value(b)) => a.cmp(b),
            (Rv::Set(a), Rv::Set(b)) => a.cmp(b),
            (Rv::Node(a), Rv::Node(b)) => a.cmp(b),
            (Rv::Edge(a), Rv::Edge(b)) => a.cmp(b),
            (Rv::Path(a), Rv::Path(b)) => a.cmp(b),
            (Rv::FreshPath(a), Rv::FreshPath(b)) => a.cmp(b),
            (Rv::List(a), Rv::List(b)) => {
                for (x, y) in a.iter().zip(b.iter()) {
                    let c = x.total_cmp(y);
                    if c != Ordering::Equal {
                        return c;
                    }
                }
                a.len().cmp(&b.len())
            }
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

/// Variable environment: a cursor over one row of a binding table plus
/// an optional outer scope (correlated EXISTS subqueries see their
/// outer bindings, §A.2) and an optional group the row belongs to.
pub struct Env<'a> {
    /// The binding table the row belongs to.
    pub table: &'a BindingTable,
    /// Index of the current row in `table`.
    pub row: usize,
    /// Outer scope for correlated subqueries.
    pub parent: Option<&'a Env<'a>>,
    /// The group aggregates fold over; `None` (no aggregate allowed) for
    /// an aggregate's own argument and for every subquery scope.
    pub group: Option<&'a Group<'a>>,
}

/// The scope of one group — a SELECT `GROUP BY` group, a CONSTRUCT
/// grouping set, the rows that fed an element a `WHEN` filters: its rows
/// of the environment's table, the columns that define it, and the
/// aggregate values already folded over it.
pub struct Group<'a> {
    /// The group's rows.
    pub(crate) rows: &'a [usize],
    /// The columns the grouping fixes: a row with every other column
    /// `Missing` is OPTIONAL padding, which `COUNT(*)` does not count.
    pub(crate) cols: &'a [usize],
    /// The compiler whose aggregate ordinals index `memo`, fixed by the
    /// first aggregate evaluated: an aggregate of another compiler is an
    /// error, not a read of someone else's fold.
    site: Cell<Option<Site>>,
    /// Folded aggregates by their ordinal: a condition evaluated once
    /// per row folds each aggregate once.
    memo: RefCell<Vec<Option<Rv<'static>>>>,
}

impl<'a> Group<'a> {
    /// A group with nothing folded yet.
    pub fn new(rows: &'a [usize], cols: &'a [usize]) -> Self {
        Group {
            rows,
            cols,
            site: Cell::new(None),
            memo: RefCell::default(),
        }
    }
}

impl<'a> Env<'a> {
    /// Root environment.
    pub fn new(table: &'a BindingTable, row: usize) -> Self {
        Env {
            table,
            row,
            parent: None,
            group: None,
        }
    }

    /// Look up a variable by name: the binding and the graph its
    /// attributes resolve against.
    pub fn lookup(&self, var: &str) -> Option<(Bound, &'a Arc<PathPropertyGraph>)> {
        if let Some(i) = self.table.column_index(var) {
            return Some((
                self.table.bound(self.row, i),
                &self.table.columns()[i].graph,
            ));
        }
        self.parent.and_then(|p| p.lookup(var))
    }

    /// Does any scope bind `var`? Schema-only — no cell is decoded.
    pub fn binds(&self, var: &str) -> bool {
        self.table.binds(var) || self.parent.is_some_and(|p| p.binds(var))
    }

    /// The table and row of the scope `depth` parents out.
    fn scope(&self, depth: usize) -> Option<(&'a BindingTable, usize)> {
        let mut env = self;
        for _ in 0..depth {
            env = env.parent?;
        }
        Some((env.table, env.row))
    }
}

/// Decode one table cell straight to an [`Rv`]: a literal cell is cloned
/// out of the pool once, into the result.
fn rv_at(table: &BindingTable, row: usize, col: usize) -> Rv<'static> {
    match table.value_code(row, col) {
        Some(code) => Rv::value(table.pool().with_resolved(code, Value::clone)),
        None => Rv::from_bound(&table.bound(row, col)),
    }
}

// ---------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------

/// An expression compiled against the scopes it is evaluated in (see
/// the module documentation); `'e` is the lifetime of its source AST,
/// which subqueries keep referring to.
pub(crate) enum Compiled<'e> {
    /// A prebuilt literal — also a never-interned key's empty set and a
    /// never-interned label's FALSE.
    Const(Rv<'static>),
    /// A `DATE` literal that does not parse: an error once evaluated.
    BadDate(&'e str),
    /// A variable: column `col` of the scope `depth` parents out.
    Var {
        depth: usize,
        col: usize,
    },
    /// A variable no scope binds: NULL.
    Unbound,
    /// `x.k`; `None`: a key no graph has ever used.
    Prop(Box<Compiled<'e>>, Option<Key>),
    /// `x:ℓ₁|ℓ₂`, over the labels some graph has used.
    LabelTest(Box<Compiled<'e>>, Vec<Label>),
    Index(Box<Compiled<'e>>, Box<Compiled<'e>>),
    Unary(UnaryOp, Box<Compiled<'e>>),
    Binary(BinaryOp, Box<Compiled<'e>>, Box<Compiled<'e>>),
    Func(Func, Vec<Compiled<'e>>),
    /// An aggregate, with its ordinal in its group's memo.
    Aggregate {
        site: Site,
        ordinal: usize,
        op: AggOp,
        distinct: bool,
        arg: Option<Box<Compiled<'e>>>,
    },
    Case {
        operand: Option<Box<Compiled<'e>>>,
        whens: Vec<(Compiled<'e>, Compiled<'e>)>,
        else_: Option<Box<Compiled<'e>>>,
    },
    Exists(&'e Query),
    PatternPredicate(&'e Pattern),
}

/// Compiles the expressions of one evaluation site: rows of `table`,
/// under the `outer` scopes. Aggregates are numbered across every
/// expression it compiles, so the expressions of a site share one
/// [`Group`] per group of rows — and only they may: a group is bound to
/// the [`Site`] of the first aggregate it folds.
pub(crate) struct Compiler<'s> {
    table: &'s BindingTable,
    outer: Option<&'s Env<'s>>,
    site: Site,
    aggregates: usize,
}

/// Identifies one [`Compiler`], the numbering of its aggregates.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) struct Site(u64);

static NEXT_SITE: AtomicU64 = AtomicU64::new(0);

impl<'s> Compiler<'s> {
    /// A compiler for rows of `table` under `outer`.
    pub(crate) fn new(table: &'s BindingTable, outer: Option<&'s Env<'s>>) -> Self {
        Compiler {
            table,
            outer,
            site: Site(NEXT_SITE.fetch_add(1, AtomicOrdering::Relaxed)),
            aggregates: 0,
        }
    }

    /// Resolve a variable to (scope depth, column).
    fn resolve(&self, var: &str) -> Option<(usize, usize)> {
        if let Some(col) = self.table.column_index(var) {
            return Some((0, col));
        }
        let mut scope = self.outer;
        let mut depth = 1;
        while let Some(env) = scope {
            if let Some(col) = env.table.column_index(var) {
                return Some((depth, col));
            }
            scope = env.parent;
            depth += 1;
        }
        None
    }

    /// Compile `e` for this site.
    pub(crate) fn compile<'e>(&mut self, e: &'e Expr) -> Compiled<'e> {
        let mut boxed = |e: &'e Expr| Box::new(self.compile(e));
        match e {
            Expr::Int(i) => Compiled::Const(Rv::value(Value::Int(*i))),
            Expr::Float(x) => Compiled::Const(Rv::value(Value::Float(*x))),
            Expr::Str(s) => Compiled::Const(Rv::value(Value::str(s.clone()))),
            Expr::Bool(b) => Compiled::Const(Rv::bool(*b)),
            Expr::Null => Compiled::Const(Rv::Null),
            Expr::DateLit(s) => match Date::parse(s) {
                Some(d) => Compiled::Const(Rv::value(Value::Date(d))),
                None => Compiled::BadDate(s),
            },
            Expr::Var(v) => match self.resolve(v) {
                Some((depth, col)) => Compiled::Var { depth, col },
                None => Compiled::Unbound,
            },
            Expr::Prop(base, key) => {
                let base = boxed(base);
                match (Key::lookup(key), &*base) {
                    // Nothing to evaluate for: the base cannot fail.
                    (None, Compiled::Var { .. }) => Compiled::Const(Rv::empty_set()),
                    (key, _) => Compiled::Prop(base, key),
                }
            }
            Expr::LabelTest(base, labels) => {
                let base = boxed(base);
                let labels: Vec<Label> = labels.iter().filter_map(|l| Label::lookup(l)).collect();
                match (labels.is_empty(), &*base) {
                    (true, Compiled::Var { .. }) => Compiled::Const(Rv::bool(false)),
                    _ => Compiled::LabelTest(base, labels),
                }
            }
            Expr::Index(base, idx) => Compiled::Index(boxed(base), boxed(idx)),
            Expr::Unary(op, inner) => Compiled::Unary(*op, boxed(inner)),
            Expr::Binary(op, l, r) => Compiled::Binary(*op, boxed(l), boxed(r)),
            Expr::Func(f, args) => {
                Compiled::Func(*f, args.iter().map(|a| self.compile(a)).collect())
            }
            Expr::Aggregate { op, distinct, arg } => {
                let ordinal = self.aggregates;
                self.aggregates += 1;
                Compiled::Aggregate {
                    site: self.site,
                    ordinal,
                    op: *op,
                    distinct: *distinct,
                    arg: arg.as_deref().map(|a| Box::new(self.compile(a))),
                }
            }
            Expr::Case {
                operand,
                whens,
                else_,
            } => Compiled::Case {
                operand: operand.as_deref().map(|o| Box::new(self.compile(o))),
                whens: whens
                    .iter()
                    .map(|(c, r)| (self.compile(c), self.compile(r)))
                    .collect(),
                else_: else_.as_deref().map(|e| Box::new(self.compile(e))),
            },
            Expr::Exists(q) => Compiled::Exists(q),
            Expr::PatternPredicate(p) => Compiled::PatternPredicate(p),
        }
    }
}

// ---------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------

/// The element an [`Rv`] identifies, if any.
fn element(rv: &Rv<'_>) -> Option<ElementId> {
    match *rv {
        Rv::Node(n) => Some(ElementId::Node(n)),
        Rv::Edge(e) => Some(ElementId::Edge(e)),
        Rv::Path(p) => Some(ElementId::Path(p)),
        _ => None,
    }
}

impl Compiled<'_> {
    /// Evaluate for the row of `env` (which must have the scopes the
    /// expression was compiled against).
    pub(crate) fn eval<'a>(&'a self, ctx: &EvalCtx, env: &Env<'a>) -> Result<Rv<'a>> {
        match self {
            Compiled::Const(rv) => Ok(rv.reborrow()),
            Compiled::BadDate(s) => {
                Err(RuntimeError::Type(format!("invalid date literal '{s}'")).into())
            }
            Compiled::Var { depth, col } => Ok(match env.scope(*depth) {
                Some((table, row)) => rv_at(table, row, *col),
                None => Rv::Null,
            }),
            Compiled::Unbound => Ok(Rv::Null),
            Compiled::Prop(base, key) => {
                let (rv, graph) = base.eval_with_graph(ctx, env)?;
                let Some(key) = *key else {
                    return Ok(Rv::empty_set());
                };
                let id = match rv {
                    Rv::FreshPath(_) | Rv::Null => return Ok(Rv::empty_set()),
                    ref other => element(other).ok_or_else(|| {
                        RuntimeError::Type(format!(
                            "property access on a non-element value ({other:?})"
                        ))
                    })?,
                };
                Ok(Rv::Set(match graph {
                    Cow::Borrowed(g) => g
                        .prop_ref(id, key)
                        .map_or_else(|| Cow::Owned(PropertySet::empty()), Cow::Borrowed),
                    Cow::Owned(g) => Cow::Owned(g.prop(id, key)),
                }))
            }
            Compiled::LabelTest(base, labels) => {
                let (rv, graph) = base.eval_with_graph(ctx, env)?;
                let ok = element(&rv)
                    .is_some_and(|id| labels.iter().any(|&label| graph.has_label(id, label)));
                Ok(Rv::bool(ok))
            }
            Compiled::Index(base, idx) => {
                let list = base.eval(ctx, env)?;
                let i = idx.eval(ctx, env)?;
                let Some(&Value::Int(i)) = i.as_scalar() else {
                    return Ok(Rv::Null);
                };
                let Ok(i) = usize::try_from(i) else {
                    return Ok(Rv::Null);
                };
                Ok(match list {
                    Rv::List(items) => items.into_iter().nth(i).unwrap_or(Rv::Null),
                    // Indexing a value set uses its sorted order.
                    Rv::Set(s) => s.values().get(i).map_or(Rv::Null, |v| Rv::value(v.clone())),
                    _ => Rv::Null,
                })
            }
            Compiled::Unary(UnaryOp::Not, inner) => Ok(Rv::bool(!inner.eval(ctx, env)?.truthy())),
            Compiled::Unary(UnaryOp::Neg, inner) => Ok(match inner.eval(ctx, env)?.as_scalar() {
                Some(&Value::Int(i)) => Rv::value(Value::Int(-i)),
                Some(&Value::Float(f)) => Rv::value(Value::Float(-f)),
                _ => Rv::Null,
            }),
            Compiled::Binary(BinaryOp::And | BinaryOp::Or, ..) => {
                Ok(Rv::bool(self.test(ctx, env)?))
            }
            Compiled::Binary(op, l, r) => apply(*op, &l.operand(ctx, env)?, &r.operand(ctx, env)?),
            Compiled::Func(f, args) => eval_func(ctx, env, *f, args),
            Compiled::Aggregate {
                site,
                ordinal,
                op,
                distinct,
                arg,
            } => eval_aggregate(ctx, env, (*site, *ordinal), *op, *distinct, arg.as_deref()),
            Compiled::Case {
                operand,
                whens,
                else_,
            } => {
                for (cond, result) in whens {
                    let hit = match operand {
                        Some(op_expr) => {
                            let lhs = op_expr.eval(ctx, env)?;
                            let rhs = cond.eval(ctx, env)?;
                            rv_eq(&lhs, &rhs)
                        }
                        None => cond.eval(ctx, env)?.truthy(),
                    };
                    if hit {
                        return result.eval(ctx, env);
                    }
                }
                match else_ {
                    Some(e) => e.eval(ctx, env),
                    None => Ok(Rv::Null),
                }
            }
            Compiled::Exists(q) => Ok(Rv::bool(ctx.eval_exists(q, env)?)),
            Compiled::PatternPredicate(p) => Ok(Rv::bool(ctx.eval_pattern_predicate(p, env)?)),
        }
    }

    /// Evaluate as a condition (WHERE, WHEN): is it TRUE? The same as
    /// [`eval`](Self::eval) and [`Rv::truthy`], without building a value
    /// for the outcome of a comparison or a conjunction. `AND` and `OR` evaluate
    /// their right operand only when the left one leaves it open.
    pub(crate) fn test(&self, ctx: &EvalCtx, env: &Env<'_>) -> Result<bool> {
        use BinaryOp::{Eq, Ge, Gt, In, Le, Lt, Neq, Subset};
        match self {
            Compiled::Binary(op @ (Eq | Neq | Lt | Le | Gt | Ge | In | Subset), l, r) => {
                Ok(compare(*op, &l.operand(ctx, env)?, &r.operand(ctx, env)?))
            }
            Compiled::Binary(BinaryOp::And, l, r) => Ok(l.test(ctx, env)? && r.test(ctx, env)?),
            Compiled::Binary(BinaryOp::Or, l, r) => Ok(l.test(ctx, env)? || r.test(ctx, env)?),
            _ => Ok(self.eval(ctx, env)?.truthy()),
        }
    }

    /// [`eval`](Self::eval) for an operand of a binary operator: a
    /// literal, the common case, is lent in place.
    #[inline]
    fn operand<'a>(&'a self, ctx: &EvalCtx, env: &Env<'a>) -> Result<Rv<'a>> {
        match self {
            Compiled::Const(rv) => Ok(rv.reborrow()),
            _ => self.eval(ctx, env),
        }
    }

    /// Evaluate as the base of an attribute read, also returning the
    /// graph the attributes resolve against: a variable's column graph
    /// (borrowed), for anything else the ambient graph.
    fn eval_with_graph<'a>(
        &'a self,
        ctx: &EvalCtx,
        env: &Env<'a>,
    ) -> Result<(Rv<'a>, Cow<'a, Arc<PathPropertyGraph>>)> {
        if let Compiled::Var { depth, col } = *self {
            if let Some((table, row)) = env.scope(depth) {
                return Ok((
                    rv_at(table, row, col),
                    Cow::Borrowed(&table.columns()[col].graph),
                ));
            }
        }
        let rv = self.eval(ctx, env)?;
        Ok((rv, Cow::Owned(ctx.ambient_graph()?)))
    }
}

/// `lv op rv` for every operator but the short-circuit ones.
fn apply(op: BinaryOp, lv: &Rv<'_>, rv: &Rv<'_>) -> Result<Rv<'static>> {
    match op {
        BinaryOp::Eq
        | BinaryOp::Neq
        | BinaryOp::Lt
        | BinaryOp::Le
        | BinaryOp::Gt
        | BinaryOp::Ge
        | BinaryOp::In
        | BinaryOp::Subset => Ok(Rv::bool(compare(op, lv, rv))),
        BinaryOp::Add => {
            // String concatenation or numeric addition.
            match (lv.as_scalar(), rv.as_scalar()) {
                (Some(Value::Str(a)), Some(b)) => Ok(Rv::value(Value::Str(format!("{a}{b}")))),
                (Some(a), Some(Value::Str(b))) => Ok(Rv::value(Value::Str(format!("{a}{b}")))),
                (Some(a), Some(b)) => Ok(numeric_op(a, b, |x, y| x + y, i64::checked_add)),
                _ => Ok(Rv::Null),
            }
        }
        BinaryOp::Sub => Ok(scalar_numeric(lv, rv, |x, y| x - y, i64::checked_sub)),
        BinaryOp::Mul => Ok(scalar_numeric(lv, rv, |x, y| x * y, i64::checked_mul)),
        BinaryOp::Div => {
            // Division is real-valued: the paper's weight expression
            // `1 / (1 + e.nr_messages)` must not truncate to zero.
            let (Some(x), Some(y)) = (
                lv.as_scalar().and_then(Value::as_f64),
                rv.as_scalar().and_then(Value::as_f64),
            ) else {
                return Ok(Rv::Null);
            };
            if y == 0.0 {
                return Err(RuntimeError::DivisionByZero.into());
            }
            Ok(Rv::value(Value::Float(x / y)))
        }
        BinaryOp::Mod => {
            let (Some(&Value::Int(a)), Some(&Value::Int(b))) = (lv.as_scalar(), rv.as_scalar())
            else {
                return Ok(Rv::Null);
            };
            if b == 0 {
                return Err(RuntimeError::DivisionByZero.into());
            }
            Ok(Rv::value(Value::Int(a % b)))
        }
        BinaryOp::And | BinaryOp::Or => unreachable!("short-circuit operators are tested"),
    }
}

/// `lv op rv` for a comparison operator (`=`, `<>`, `<`, `<=`, `>`,
/// `>=`, `IN`, `SUBSET`): never NULL, never an error.
fn compare(op: BinaryOp, lv: &Rv<'_>, rv: &Rv<'_>) -> bool {
    match op {
        BinaryOp::Eq => rv_eq(lv, rv),
        BinaryOp::Neq => !rv_eq(lv, rv),
        BinaryOp::In => match rv {
            // Scalar (or singleton-set) membership in a set or list.
            Rv::List(items) => items.iter().any(|i| rv_eq(lv, i)),
            _ => match (lv.as_scalar(), rv.set_values()) {
                (Some(needle), Some(hay)) => hay.binary_search(needle).is_ok(),
                _ => false,
            },
        },
        BinaryOp::Subset => match (lv.set_values(), rv.set_values()) {
            (Some(a), Some(b)) => a.iter().all(|v| b.binary_search(v).is_ok()),
            _ => false,
        },
        _ => {
            let (Some(a), Some(b)) = (lv.as_scalar(), rv.as_scalar()) else {
                return false;
            };
            let Some(ord) = a.partial_order(b) else {
                return false;
            };
            match op {
                BinaryOp::Lt => ord == Ordering::Less,
                BinaryOp::Le => ord != Ordering::Greater,
                BinaryOp::Gt => ord == Ordering::Greater,
                _ => ord != Ordering::Less,
            }
        }
    }
}

fn scalar_numeric(
    lv: &Rv<'_>,
    rv: &Rv<'_>,
    ff: impl Fn(f64, f64) -> f64,
    fi: impl Fn(i64, i64) -> Option<i64>,
) -> Rv<'static> {
    match (lv.as_scalar(), rv.as_scalar()) {
        (Some(a), Some(b)) => numeric_op(a, b, ff, fi),
        _ => Rv::Null,
    }
}

/// Integers stay integers until `fi` overflows, then fall back to `ff`
/// over floats; anything else numeric is a float.
fn numeric_op(
    a: &Value,
    b: &Value,
    ff: impl Fn(f64, f64) -> f64,
    fi: impl Fn(i64, i64) -> Option<i64>,
) -> Rv<'static> {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => match fi(*x, *y) {
            Some(r) => Rv::value(Value::Int(r)),
            None => Rv::value(Value::Float(ff(*x as f64, *y as f64))),
        },
        _ => match (a.as_f64(), b.as_f64()) {
            (Some(x), Some(y)) => Rv::value(Value::Float(ff(x, y))),
            _ => Rv::Null,
        },
    }
}

/// Set-aware equality: sets compare as sets (scalars coerce to
/// singletons), elements by identity, lists pointwise; Null equals
/// nothing.
pub fn rv_eq(a: &Rv<'_>, b: &Rv<'_>) -> bool {
    match (a, b) {
        (Rv::Null, _) | (_, Rv::Null) => false,
        (Rv::Node(x), Rv::Node(y)) => x == y,
        (Rv::Edge(x), Rv::Edge(y)) => x == y,
        (Rv::Path(x), Rv::Path(y)) => x == y,
        (Rv::FreshPath(x), Rv::FreshPath(y)) => x == y,
        (Rv::List(xs), Rv::List(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| rv_eq(x, y))
        }
        (Rv::Set(_), _) | (_, Rv::Set(_)) => match (a.set_values(), b.set_values()) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        },
        (Rv::Value(x), Rv::Value(y)) => x.sem_eq(y),
        _ => false,
    }
}

fn eval_func<'a>(
    ctx: &EvalCtx,
    env: &Env<'a>,
    f: Func,
    args: &'a [Compiled<'_>],
) -> Result<Rv<'a>> {
    let arity_err = |n: usize| -> crate::error::EngineError {
        RuntimeError::Type(format!("{} expects {n} argument(s)", f.name())).into()
    };
    let str_of = |s: String| Rv::value(Value::Str(s));
    // Single-argument functions of a scalar.
    let scalar = |args: &'a [Compiled<'_>]| -> Result<Rv<'a>> {
        let [arg] = args else {
            return Err(arity_err(1));
        };
        arg.eval(ctx, env)
    };
    match f {
        Func::Labels => {
            let [arg] = args else {
                return Err(arity_err(1));
            };
            let (rv, graph) = arg.eval_with_graph(ctx, env)?;
            let Some(id) = element(&rv) else {
                return Ok(Rv::List(Vec::new()));
            };
            let names = graph.labels(id).names();
            Ok(Rv::List(names.into_iter().map(str_of).collect()))
        }
        Func::Nodes | Func::Edges | Func::Length => {
            let [arg] = args else {
                return Err(arity_err(1));
            };
            let (rv, graph) = arg.eval_with_graph(ctx, env)?;
            let (nodes, edges): (Vec<_>, Vec<_>) = match rv {
                Rv::Path(p) => {
                    let Some(data) = graph.path(p) else {
                        return Ok(Rv::Null);
                    };
                    (data.shape.nodes().to_vec(), data.shape.edges().to_vec())
                }
                Rv::FreshPath(i) => match ctx.fresh_path(i) {
                    FreshPath::Walk { shape, .. } => {
                        (shape.nodes().to_vec(), shape.edges().to_vec())
                    }
                    FreshPath::Projection { nodes, edges, .. } => (nodes, edges),
                },
                _ => return Ok(Rv::Null),
            };
            Ok(match f {
                Func::Nodes => Rv::List(nodes.into_iter().map(Rv::Node).collect()),
                Func::Edges => Rv::List(edges.into_iter().map(Rv::Edge).collect()),
                _ => Rv::value(Value::Int(edges.len() as i64)),
            })
        }
        Func::Size => {
            let rv = scalar(args)?;
            let n = match &rv {
                Rv::Set(s) => s.len(),
                Rv::List(l) => l.len(),
                Rv::Value(v) => match &**v {
                    Value::Str(s) => s.chars().count(),
                    _ => return Ok(Rv::Null),
                },
                Rv::Null => 0,
                _ => return Ok(Rv::Null),
            };
            Ok(Rv::value(Value::Int(n as i64)))
        }
        Func::ToString => Ok(match scalar(args)?.as_scalar() {
            Some(v) => str_of(v.to_string()),
            None => Rv::Null,
        }),
        Func::ToInteger => Ok(match scalar(args)?.as_scalar() {
            Some(&Value::Int(i)) => Rv::value(Value::Int(i)),
            Some(&Value::Float(f)) => Rv::value(Value::Int(f.trunc() as i64)),
            Some(Value::Str(s)) => s
                .trim()
                .parse::<i64>()
                .map_or(Rv::Null, |i| Rv::value(Value::Int(i))),
            Some(&Value::Bool(b)) => Rv::value(Value::Int(b as i64)),
            _ => Rv::Null,
        }),
        Func::ToFloat => Ok(match scalar(args)?.as_scalar() {
            Some(&Value::Int(i)) => Rv::value(Value::Float(i as f64)),
            Some(&Value::Float(f)) => Rv::value(Value::Float(f)),
            Some(Value::Str(s)) => s
                .trim()
                .parse::<f64>()
                .map_or(Rv::Null, |f| Rv::value(Value::Float(f))),
            _ => Rv::Null,
        }),
        Func::Lower | Func::Upper => Ok(match scalar(args)?.as_scalar() {
            Some(Value::Str(s)) if f == Func::Lower => str_of(s.to_lowercase()),
            Some(Value::Str(s)) => str_of(s.to_uppercase()),
            _ => Rv::Null,
        }),
        Func::Abs => Ok(match scalar(args)?.as_scalar() {
            Some(&Value::Int(i)) => Rv::value(Value::Int(i.abs())),
            Some(&Value::Float(f)) => Rv::value(Value::Float(f.abs())),
            _ => Rv::Null,
        }),
        Func::Trim => Ok(match scalar(args)?.as_scalar() {
            Some(Value::Str(s)) => str_of(s.trim().to_owned()),
            _ => Rv::Null,
        }),
        Func::Contains | Func::StartsWith | Func::EndsWith => {
            let [a, b] = args else {
                return Err(arity_err(2));
            };
            let a = a.eval(ctx, env)?;
            let b = b.eval(ctx, env)?;
            Ok(match (a.as_scalar(), b.as_scalar()) {
                (Some(Value::Str(hay)), Some(Value::Str(needle))) => Rv::bool(match f {
                    Func::Contains => hay.contains(needle.as_str()),
                    Func::StartsWith => hay.starts_with(needle.as_str()),
                    _ => hay.ends_with(needle.as_str()),
                }),
                _ => Rv::Null,
            })
        }
        Func::Substring => {
            if args.len() != 2 && args.len() != 3 {
                return Err(arity_err(2));
            }
            let s = args[0].eval(ctx, env)?;
            let start = args[1].eval(ctx, env)?;
            let (Some(Value::Str(s)), Some(&Value::Int(start))) =
                (s.as_scalar(), start.as_scalar())
            else {
                return Ok(Rv::Null);
            };
            let start = start.max(0) as usize;
            let chars: Vec<char> = s.chars().collect();
            let end = match args.get(2) {
                None => chars.len(),
                Some(len_expr) => match len_expr.eval(ctx, env)?.as_scalar() {
                    Some(&Value::Int(l)) => (start + l.max(0) as usize).min(chars.len()),
                    _ => return Ok(Rv::Null),
                },
            };
            if start >= chars.len() {
                return Ok(str_of(String::new()));
            }
            Ok(str_of(chars[start..end].iter().collect()))
        }
        Func::Year | Func::Month | Func::Day => {
            // Accept both Date values and ISO-formatted strings.
            let date = match scalar(args)?.as_scalar() {
                Some(Value::Date(d)) => Some(*d),
                Some(Value::Str(s)) => Date::parse(s),
                _ => None,
            };
            Ok(match date {
                Some(d) => Rv::value(Value::Int(match f {
                    Func::Year => d.year as i64,
                    Func::Month => d.month as i64,
                    _ => d.day as i64,
                })),
                None => Rv::Null,
            })
        }
        Func::Floor | Func::Ceil => Ok(match scalar(args)?.as_scalar() {
            Some(&Value::Int(i)) => Rv::value(Value::Int(i)),
            Some(&Value::Float(x)) => Rv::value(Value::Int(if f == Func::Floor {
                x.floor() as i64
            } else {
                x.ceil() as i64
            })),
            _ => Rv::Null,
        }),
        Func::Sqrt => Ok(match scalar(args)?.as_scalar().and_then(Value::as_f64) {
            Some(x) if x >= 0.0 => Rv::value(Value::Float(x.sqrt())),
            _ => Rv::Null,
        }),
        Func::Head | Func::Last => Ok(match scalar(args)? {
            Rv::List(items) if f == Func::Head => items.into_iter().next().unwrap_or(Rv::Null),
            Rv::List(items) => items.into_iter().next_back().unwrap_or(Rv::Null),
            _ => Rv::Null,
        }),
    }
}

/// Fold the aggregate `ordinal` over the rows of the environment's
/// group, once per group. Each row evaluates the argument in a scope of
/// its own, with no group: an aggregate inside it is misplaced.
///
/// `COUNT(*)` counts the group's bindings — except pure padding rows
/// introduced by OPTIONAL's left outer join (rows whose every column
/// outside the group's columns is `Missing`), which count as zero. This
/// is what makes the paper's `nr_messages := COUNT(*)` put `0` (not 1)
/// on knows edges without any exchanged message (Figure 5).
fn eval_aggregate<'a>(
    ctx: &EvalCtx,
    env: &Env<'a>,
    (site, ordinal): (Site, usize),
    op: AggOp,
    distinct: bool,
    arg: Option<&'a Compiled<'_>>,
) -> Result<Rv<'a>> {
    let Some(group) = env.group else {
        return Err(SemanticError::MisplacedAggregate(
            "this position (aggregates need a group: CONSTRUCT assignments, SET items, WHEN \
             conditions and SELECT items, outside any other aggregate's argument)"
                .into(),
        )
        .into());
    };
    let bound = group.site.replace(Some(site));
    if bound.is_some_and(|bound| bound != site) {
        let msg = "an aggregate evaluated under the group of another evaluation site";
        return Err(RuntimeError::Other(msg.into()).into());
    }
    if let Some(Some(rv)) = group.memo.borrow().get(ordinal) {
        return Ok(rv.clone());
    }
    let table = env.table;
    let mut fold = Fold::new(op);
    match arg {
        None => {
            // COUNT(*): skip pure left-outer padding rows.
            let width = table.columns().len();
            let non_trivial = width > group.cols.len();
            for &ri in group.rows {
                let padding = (0..width)
                    .filter(|i| !group.cols.contains(i))
                    .all(|i| table.is_missing_at(ri, i));
                if !(padding && non_trivial) {
                    fold.push(Rv::value(Value::Int(1)));
                }
            }
        }
        Some(e) => {
            let mut values: Vec<Rv<'a>> = Vec::new();
            for &ri in group.rows {
                let row = Env {
                    table,
                    row: ri,
                    parent: env.parent,
                    group: None,
                };
                let v = e.eval(ctx, &row)?;
                if matches!(v, Rv::Null) {
                    continue;
                }
                if distinct {
                    values.push(v);
                } else {
                    fold.push(v);
                }
            }
            if distinct {
                values.sort_by(|a, b| a.total_cmp(b));
                values.dedup_by(|a, b| a.total_cmp(b) == Ordering::Equal);
                for v in values {
                    fold.push(v);
                }
            }
        }
    }
    let rv = fold.finish().into_owned();
    let mut memo = group.memo.borrow_mut();
    if memo.len() <= ordinal {
        memo.resize(ordinal + 1, None);
    }
    memo[ordinal] = Some(rv.clone());
    Ok(rv)
}

/// An aggregate's running state over the non-null values of its
/// argument, taken one at a time.
struct Fold<'a> {
    op: AggOp,
    count: usize,
    /// `SUM`: the exact integer sum while every value is an integer and
    /// it fits, and the float sum of every value.
    exact: Option<i64>,
    sum: f64,
    all_int: bool,
    /// Numeric values seen (`SUM` / `AVG`).
    numeric: usize,
    best: Option<Cow<'a, Value>>,
    collected: Vec<Rv<'a>>,
}

impl<'a> Fold<'a> {
    fn new(op: AggOp) -> Self {
        Fold {
            op,
            count: 0,
            exact: Some(0),
            sum: 0.0,
            all_int: true,
            numeric: 0,
            best: None,
            collected: Vec::new(),
        }
    }

    fn push(&mut self, v: Rv<'a>) {
        self.count += 1;
        match self.op {
            AggOp::Count => {}
            AggOp::Collect => self.collected.push(v),
            AggOp::Sum | AggOp::Avg => match v.as_scalar() {
                Some(&Value::Int(i)) => {
                    self.exact = self.exact.and_then(|s| s.checked_add(i));
                    self.sum += i as f64;
                    self.numeric += 1;
                }
                Some(&Value::Float(f)) => {
                    self.sum += f;
                    self.all_int = false;
                    self.numeric += 1;
                }
                _ => {}
            },
            AggOp::Min | AggOp::Max => {
                let scalar = match v {
                    Rv::Value(v) => Some(v),
                    Rv::Set(Cow::Borrowed(s)) => s.as_singleton().map(Cow::Borrowed),
                    Rv::Set(Cow::Owned(s)) => s.as_singleton().cloned().map(Cow::Owned),
                    _ => None,
                };
                let Some(s) = scalar else { return };
                let keep_new = match &self.best {
                    None => true,
                    Some(b) => match s.partial_order(b) {
                        Some(Ordering::Less) => self.op == AggOp::Min,
                        Some(Ordering::Greater) => self.op == AggOp::Max,
                        _ => false,
                    },
                };
                if keep_new {
                    self.best = Some(s);
                }
            }
        }
    }

    fn finish(mut self) -> Rv<'a> {
        match self.op {
            AggOp::Count => Rv::value(Value::Int(self.count as i64)),
            AggOp::Collect => {
                self.collected.sort_by(|a, b| a.total_cmp(b));
                Rv::List(self.collected)
            }
            AggOp::Sum | AggOp::Avg if self.numeric == 0 => match self.op {
                AggOp::Sum => Rv::value(Value::Int(0)),
                _ => Rv::Null,
            },
            AggOp::Avg => Rv::value(Value::Float(self.sum / self.numeric as f64)),
            // Past `i64` an integer sum turns to a float, as `+` does.
            AggOp::Sum => Rv::value(match self.exact {
                Some(exact) if self.all_int => Value::Int(exact),
                _ => Value::Float(self.sum),
            }),
            AggOp::Min | AggOp::Max => self.best.map_or(Rv::Null, Rv::Value),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::Column;
    use gcore_ppg::{Attributes, Catalog, NodeId};

    fn setup() -> (EvalCtx, BindingTable) {
        let mut g = PathPropertyGraph::new();
        g.add_node(
            NodeId(1),
            Attributes::labeled("Person")
                .with_prop("name", "Frank")
                .with_prop_set(
                    "employer",
                    PropertySet::from_values([Value::str("CWI"), Value::str("MIT")]),
                ),
        );
        g.add_node(
            NodeId(2),
            Attributes::labeled("Company").with_prop("name", "MIT"),
        );
        let g = Arc::new(g);
        let cols = vec![
            Column {
                var: "n".into(),
                graph: g.clone(),
            },
            Column {
                var: "c".into(),
                graph: g.clone(),
            },
        ];
        let mut b = crate::binding::TableBuilder::new(cols, Arc::default());
        b.push(&[Bound::Node(NodeId(1)), Bound::Node(NodeId(2))]);
        let table = b.finish();
        let mut catalog = Catalog::new();
        catalog.register_graph("g", g);
        catalog.set_default_graph("g");
        (EvalCtx::from_catalog(catalog), table)
    }

    /// Parse `src` with the full parser, as the WHERE of a query.
    fn where_expr(src: &str) -> Expr {
        let q = gcore_parser::parse_query(&format!("CONSTRUCT (x) MATCH (x) WHERE {src}"))
            .expect("expr parses");
        let gcore_parser::ast::QueryBody::Graph(gcore_parser::ast::FullGraphQuery::Basic(b)) =
            q.body
        else {
            panic!()
        };
        let gcore_parser::ast::QuerySource::Match(m) = b.source else {
            panic!()
        };
        m.where_clause.unwrap()
    }

    /// Compile `src` against `env`'s table and evaluate it for its row.
    fn eval_in(ctx: &EvalCtx, env: &Env<'_>, src: &str) -> Result<Rv<'static>> {
        let e = where_expr(src);
        let compiled = Compiler::new(env.table, None).compile(&e);
        compiled.eval(ctx, env).map(Rv::into_owned)
    }

    fn eval(ctx: &EvalCtx, table: &BindingTable, src: &str) -> Rv<'static> {
        eval_in(ctx, &Env::new(table, 0), src).unwrap()
    }

    #[test]
    fn multi_valued_equality_is_set_equality() {
        let (ctx, t) = setup();
        // "MIT" = {"CWI","MIT"} → FALSE (the Frank Gold example)
        assert!(!eval(&ctx, &t, "c.name = n.employer").truthy());
        // "MIT" IN {"CWI","MIT"} → TRUE
        assert!(eval(&ctx, &t, "c.name IN n.employer").truthy());
        // {"MIT"} SUBSET {"CWI","MIT"} → TRUE
        assert!(eval(&ctx, &t, "c.name SUBSET n.employer").truthy());
        assert!(!eval(&ctx, &t, "n.employer SUBSET c.name").truthy());
    }

    #[test]
    fn absent_property_is_empty_set() {
        let (ctx, t) = setup();
        assert!(!eval(&ctx, &t, "n.salary = 100").truthy());
        assert!(eval(&ctx, &t, "size(n.salary) = 0").truthy());
        assert!(eval(&ctx, &t, "size(n.employer) = 2").truthy());
    }

    #[test]
    fn label_tests() {
        let (ctx, t) = setup();
        assert!(eval(&ctx, &t, "(n:Person)").truthy());
        assert!(!eval(&ctx, &t, "(n:Company)").truthy());
        assert!(eval(&ctx, &t, "(n:Company|Person)").truthy());
    }

    #[test]
    fn arithmetic_and_division() {
        let (ctx, t) = setup();
        assert!(eval(&ctx, &t, "1 + 2 * 3 = 7").truthy());
        // real division, the weighted-path requirement
        assert!(eval(&ctx, &t, "1 / (1 + 1) = 0.5").truthy());
        assert!(eval(&ctx, &t, "7 % 3 = 1").truthy());
        assert!(eval(&ctx, &t, "-(3) = 0 - 3").truthy());
    }

    #[test]
    fn string_concat() {
        let (ctx, t) = setup();
        assert!(eval(&ctx, &t, "n.name + '!' = 'Frank!'").truthy());
    }

    #[test]
    fn case_expression_coalesces() {
        let (ctx, t) = setup();
        assert!(eval(
            &ctx,
            &t,
            "CASE WHEN size(n.salary) = 0 THEN -1 ELSE n.salary END = -1"
        )
        .truthy());
    }

    #[test]
    fn comparisons() {
        let (ctx, t) = setup();
        assert!(eval(&ctx, &t, "1 < 2 AND 2 <= 2 AND 3 > 2 AND 3 >= 3").truthy());
        assert!(eval(&ctx, &t, "'abc' < 'abd'").truthy());
        assert!(!eval(&ctx, &t, "1 < 'abc'").truthy()); // incomparable
        assert!(eval(&ctx, &t, "NOT 1 = 2").truthy());
        assert!(eval(&ctx, &t, "1 <> 2").truthy());
    }

    #[test]
    fn functions() {
        let (ctx, t) = setup();
        assert!(eval(&ctx, &t, "lower('AbC') = 'abc'").truthy());
        assert!(eval(&ctx, &t, "upper('a') = 'A'").truthy());
        assert!(eval(&ctx, &t, "abs(-(5)) = 5").truthy());
        assert!(eval(&ctx, &t, "toInteger('42') = 42").truthy());
        assert!(eval(&ctx, &t, "toFloat('1.5') = 1.5").truthy());
        assert!(eval(&ctx, &t, "toString(42) = '42'").truthy());
        assert!(eval(&ctx, &t, "size('hello') = 5").truthy());
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let (ctx, t) = setup();
        let err = eval_in(&ctx, &Env::new(&t, 0), "1 / 0 = 1").unwrap_err();
        assert!(matches!(
            err,
            crate::error::EngineError::Runtime(RuntimeError::DivisionByZero)
        ));
    }

    #[test]
    fn labels_function() {
        let (ctx, t) = setup();
        assert!(eval(&ctx, &t, "'Person' IN labels(n)").truthy());
        assert!(!eval(&ctx, &t, "'Robot' IN labels(n)").truthy());
    }

    #[test]
    fn null_propagation() {
        let (ctx, t) = setup();
        assert!(!eval(&ctx, &t, "NULL = NULL").truthy());
        assert!(eval(&ctx, &t, "NOT NULL = NULL").truthy());
        assert!(!eval(&ctx, &t, "missing_var = 1").truthy());
    }

    #[test]
    fn aggregates_fold_over_the_group_in_scope() {
        let (ctx, t) = setup();
        let misplaced = |src: &str, grouped: bool| {
            let group = Group::new(&[0], &[]);
            let env = Env {
                group: grouped.then_some(&group),
                ..Env::new(&t, 0)
            };
            let err = eval_in(&ctx, &env, src).unwrap_err();
            assert!(
                matches!(
                    err,
                    crate::error::EngineError::Semantic(
                        crate::error::SemanticError::MisplacedAggregate(_)
                    )
                ),
                "{src}: {err}"
            );
        };
        // No group in scope.
        misplaced("COUNT(*) = 1", false);
        // Inside another aggregate's argument.
        misplaced("COUNT(COUNT(*)) = 1", true);
        misplaced("SUM(COUNT(*) + 1) = 2", true);
        // Anywhere else in a grouped expression: the expressions of one
        // compiler share the group.
        let group = Group::new(&[0], &[]);
        let sources = [
            "COUNT(*) + 1 = 2",
            "SIZE(COLLECT(n.name)) = 1 AND HEAD(COLLECT(n.name)) = 'Frank'",
        ];
        let exprs: Vec<Expr> = sources.iter().map(|src| where_expr(src)).collect();
        let mut compiler = Compiler::new(&t, None);
        let compiled: Vec<_> = exprs.iter().map(|e| compiler.compile(e)).collect();
        let env = Env {
            group: Some(&group),
            ..Env::new(&t, 0)
        };
        for c in &compiled {
            assert!(c.eval(&ctx, &env).unwrap().truthy());
        }
        // Another compiler numbers its aggregates from 0 too: its
        // `COUNT(*)` must not read the memo's `COUNT(*)` of the first.
        let err = eval_in(&ctx, &env, "COUNT(*)").unwrap_err();
        assert!(err.to_string().contains("another evaluation site"), "{err}");
    }

    #[test]
    fn date_literals() {
        let (ctx, t) = setup();
        assert!(eval(&ctx, &t, "DATE '2020-01-01' < DATE '2021-12-31'").truthy());
    }
}

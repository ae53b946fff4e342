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

use crate::binding::{BindingTable, Bound};
use crate::context::{EvalCtx, FreshPath};
use crate::error::{Result, RuntimeError};
use gcore_parser::ast::{AggOp, BinaryOp, Expr, Func, UnaryOp};
use gcore_ppg::{Date, ElementId, Key, Label, PathPropertyGraph, PropertySet, Value};
use std::borrow::Cow;
use std::cell::RefCell;
use std::cmp::Ordering;
use std::sync::Arc;

/// Runtime value of an expression.
#[derive(Clone, Debug)]
pub enum Rv {
    /// Absence (failed lookups, missing variables).
    Null,
    /// A scalar literal.
    Value(Value),
    /// A value set — the result of property access σ(x, k).
    Set(PropertySet),
    /// A node identifier.
    Node(gcore_ppg::NodeId),
    /// An edge identifier.
    Edge(gcore_ppg::EdgeId),
    /// A stored path identifier.
    Path(gcore_ppg::PathId),
    /// A computed (not stored) path, by arena index.
    FreshPath(usize),
    /// A list (nodes(p), edges(p), labels(x), COLLECT(…)).
    List(Vec<Rv>),
}

impl Rv {
    /// Boolean truthiness: only `TRUE` (possibly as a singleton set)
    /// passes a WHERE filter.
    pub fn truthy(&self) -> bool {
        match self {
            Rv::Value(Value::Bool(b)) => *b,
            Rv::Set(s) => s.as_singleton().and_then(Value::as_bool).unwrap_or(false),
            _ => false,
        }
    }

    /// Scalar coercion: singleton sets unwrap; everything non-scalar
    /// becomes `None`.
    pub fn as_scalar(&self) -> Option<Value> {
        match self {
            Rv::Value(v) => Some(v.clone()),
            Rv::Set(s) => s.as_singleton().cloned(),
            _ => None,
        }
    }

    /// Coercion to a value set: scalars become singletons, Null the empty
    /// set. `None` for element ids and lists.
    pub fn as_set(&self) -> Option<PropertySet> {
        match self {
            Rv::Value(v) => Some(PropertySet::single(v.clone())),
            Rv::Set(s) => Some(s.clone()),
            Rv::Null => Some(PropertySet::empty()),
            _ => None,
        }
    }

    /// Convert a binding to an Rv.
    pub fn from_bound(b: &Bound) -> Rv {
        match b {
            Bound::Missing => Rv::Null,
            Bound::Node(n) => Rv::Node(*n),
            Bound::Edge(e) => Rv::Edge(*e),
            Bound::Path(p) => Rv::Path(*p),
            Bound::FreshPath(i) => Rv::FreshPath(*i),
            Bound::Value(v) => Rv::Value(v.clone()),
        }
    }

    /// Deterministic total order (used by COLLECT and grouping keys).
    pub fn total_cmp(&self, other: &Rv) -> Ordering {
        fn rank(r: &Rv) -> u8 {
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
    /// Folded aggregates by the address of their `Expr::Aggregate` node:
    /// a condition evaluated once per row folds each aggregate once.
    memo: RefCell<Vec<(usize, Rv)>>,
}

impl<'a> Group<'a> {
    /// A group with nothing folded yet.
    pub fn new(rows: &'a [usize], cols: &'a [usize]) -> Self {
        Group {
            rows,
            cols,
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

    /// Look up a variable: the binding and the graph its attributes
    /// resolve against (borrowed from the column: a per-row lookup never
    /// touches the graph's shared reference count).
    pub fn lookup(&self, var: &str) -> Option<(Bound, &'a Arc<PathPropertyGraph>)> {
        if let Some(i) = self.table.column_index(var) {
            return Some((
                self.table.bound(self.row, i),
                &self.table.columns()[i].graph,
            ));
        }
        self.parent.and_then(|p| p.lookup(var))
    }

    /// Does any scope bind `var`? Schema-only — no cell is decoded, so
    /// this is the accessor for "is it bound" checks on literal-heavy
    /// tables (where [`lookup`](Self::lookup) would clone a value out of
    /// the pool just to drop it).
    pub fn binds(&self, var: &str) -> bool {
        self.table.binds(var) || self.parent.is_some_and(|p| p.binds(var))
    }

    /// Look up a variable directly as an [`Rv`]. Literal cells are
    /// resolved through [`gcore_ppg::ValueInterner::with_resolved`] —
    /// one borrow of the shared pool and a single clone into the result,
    /// instead of the decode-clone *plus* conversion-clone (and the
    /// graph-handle clone) that `lookup` + [`Rv::from_bound`] would pay
    /// per cell. This is the `Expr::Var` hot path.
    pub fn lookup_rv(&self, var: &str) -> Option<Rv> {
        if let Some(i) = self.table.column_index(var) {
            return Some(rv_at(self.table, self.row, i));
        }
        self.parent.and_then(|p| p.lookup_rv(var))
    }

    /// [`lookup_rv`](Self::lookup_rv), also returning the graph the
    /// variable's column resolves attributes against (borrowed, as in
    /// [`lookup`](Self::lookup)).
    pub fn lookup_rv_graph(&self, var: &str) -> Option<(Rv, &'a Arc<PathPropertyGraph>)> {
        if let Some(i) = self.table.column_index(var) {
            return Some((
                rv_at(self.table, self.row, i),
                &self.table.columns()[i].graph,
            ));
        }
        self.parent.and_then(|p| p.lookup_rv_graph(var))
    }
}

/// Decode one table cell straight to an [`Rv`], borrowing literal values
/// from the pool (a single clone into the result).
fn rv_at(table: &BindingTable, row: usize, col: usize) -> Rv {
    match table.value_code(row, col) {
        Some(code) => Rv::Value(table.pool().with_resolved(code, Value::clone)),
        None => Rv::from_bound(&table.bound(row, col)),
    }
}

/// Evaluate an expression for one binding.
pub(crate) fn eval_expr(ctx: &EvalCtx, env: &Env<'_>, e: &Expr) -> Result<Rv> {
    match e {
        Expr::Int(i) => Ok(Rv::Value(Value::Int(*i))),
        Expr::Float(x) => Ok(Rv::Value(Value::Float(*x))),
        Expr::Str(s) => Ok(Rv::Value(Value::str(s.clone()))),
        Expr::Bool(b) => Ok(Rv::Value(Value::Bool(*b))),
        Expr::Null => Ok(Rv::Null),
        Expr::DateLit(s) => Date::parse(s)
            .map(|d| Rv::Value(Value::Date(d)))
            .ok_or_else(|| RuntimeError::Type(format!("invalid date literal '{s}'")).into()),
        Expr::Var(v) => Ok(env.lookup_rv(v).unwrap_or(Rv::Null)),
        Expr::Prop(base, key) => eval_prop(ctx, env, base, key),
        Expr::LabelTest(base, labels) => {
            let (rv, graph) = eval_with_graph(ctx, env, base)?;
            let id = match rv {
                Rv::Node(n) => Some(ElementId::Node(n)),
                Rv::Edge(e) => Some(ElementId::Edge(e)),
                Rv::Path(p) => Some(ElementId::Path(p)),
                _ => None,
            };
            let Some(id) = id else {
                return Ok(Rv::Value(Value::Bool(false)));
            };
            let ok = labels
                .iter()
                .any(|l| Label::lookup(l).is_some_and(|label| graph.has_label(id, label)));
            Ok(Rv::Value(Value::Bool(ok)))
        }
        Expr::Index(base, idx) => {
            let list = eval_expr(ctx, env, base)?;
            let i = eval_expr(ctx, env, idx)?;
            let Some(Value::Int(i)) = i.as_scalar() else {
                return Ok(Rv::Null);
            };
            match list {
                Rv::List(items) => {
                    if i >= 0 && (i as usize) < items.len() {
                        Ok(items[i as usize].clone())
                    } else {
                        Ok(Rv::Null)
                    }
                }
                Rv::Set(s) => {
                    // Indexing a value set uses its sorted order.
                    let vs = s.values();
                    if i >= 0 && (i as usize) < vs.len() {
                        Ok(Rv::Value(vs[i as usize].clone()))
                    } else {
                        Ok(Rv::Null)
                    }
                }
                _ => Ok(Rv::Null),
            }
        }
        Expr::Unary(UnaryOp::Not, inner) => {
            let v = eval_expr(ctx, env, inner)?;
            Ok(Rv::Value(Value::Bool(!v.truthy())))
        }
        Expr::Unary(UnaryOp::Neg, inner) => {
            let v = eval_expr(ctx, env, inner)?;
            match v.as_scalar() {
                Some(Value::Int(i)) => Ok(Rv::Value(Value::Int(-i))),
                Some(Value::Float(f)) => Ok(Rv::Value(Value::Float(-f))),
                _ => Ok(Rv::Null),
            }
        }
        Expr::Binary(op, l, r) => eval_binary(ctx, env, *op, l, r),
        Expr::Func(f, args) => eval_func(ctx, env, *f, args),
        Expr::Aggregate { .. } => eval_aggregate(ctx, env, e),
        Expr::Case {
            operand,
            whens,
            else_,
        } => {
            for (cond, result) in whens {
                let hit = match operand {
                    Some(op_expr) => {
                        let lhs = eval_expr(ctx, env, op_expr)?;
                        let rhs = eval_expr(ctx, env, cond)?;
                        rv_eq(&lhs, &rhs)
                    }
                    None => eval_expr(ctx, env, cond)?.truthy(),
                };
                if hit {
                    return eval_expr(ctx, env, result);
                }
            }
            match else_ {
                Some(e) => eval_expr(ctx, env, e),
                None => Ok(Rv::Null),
            }
        }
        Expr::Exists(q) => Ok(Rv::Value(Value::Bool(ctx.eval_exists(q, env)?))),
        Expr::PatternPredicate(p) => {
            Ok(Rv::Value(Value::Bool(ctx.eval_pattern_predicate(p, env)?)))
        }
    }
}

/// Evaluate `base`, also returning the graph for attribute resolution:
/// variables use their column's graph (borrowed), everything else the
/// ambient graph.
fn eval_with_graph<'a>(
    ctx: &EvalCtx,
    env: &Env<'a>,
    base: &Expr,
) -> Result<(Rv, Cow<'a, Arc<PathPropertyGraph>>)> {
    if let Expr::Var(v) = base {
        if let Some((rv, g)) = env.lookup_rv_graph(v) {
            return Ok((rv, Cow::Borrowed(g)));
        }
        return Ok((Rv::Null, Cow::Owned(ctx.ambient_graph()?)));
    }
    let rv = eval_expr(ctx, env, base)?;
    Ok((rv, Cow::Owned(ctx.ambient_graph()?)))
}

fn eval_prop(ctx: &EvalCtx, env: &Env<'_>, base: &Expr, key: &str) -> Result<Rv> {
    let (rv, graph) = eval_with_graph(ctx, env, base)?;
    let Some(key) = Key::lookup(key) else {
        // Never-interned key: no graph anywhere assigns it.
        return Ok(Rv::Set(PropertySet::empty()));
    };
    let id = match rv {
        Rv::Node(n) => ElementId::Node(n),
        Rv::Edge(e) => ElementId::Edge(e),
        Rv::Path(p) => ElementId::Path(p),
        Rv::FreshPath(_) | Rv::Null => return Ok(Rv::Set(PropertySet::empty())),
        other => {
            return Err(RuntimeError::Type(format!(
                "property access on a non-element value ({other:?})"
            ))
            .into())
        }
    };
    Ok(Rv::Set(graph.prop(id, key)))
}

fn eval_binary(ctx: &EvalCtx, env: &Env<'_>, op: BinaryOp, l: &Expr, r: &Expr) -> Result<Rv> {
    // Short-circuit logic first.
    match op {
        BinaryOp::And => {
            let lv = eval_expr(ctx, env, l)?;
            if !lv.truthy() {
                return Ok(Rv::Value(Value::Bool(false)));
            }
            let rv = eval_expr(ctx, env, r)?;
            return Ok(Rv::Value(Value::Bool(rv.truthy())));
        }
        BinaryOp::Or => {
            let lv = eval_expr(ctx, env, l)?;
            if lv.truthy() {
                return Ok(Rv::Value(Value::Bool(true)));
            }
            let rv = eval_expr(ctx, env, r)?;
            return Ok(Rv::Value(Value::Bool(rv.truthy())));
        }
        _ => {}
    }
    let lv = eval_expr(ctx, env, l)?;
    let rv = eval_expr(ctx, env, r)?;
    match op {
        BinaryOp::Eq => Ok(Rv::Value(Value::Bool(rv_eq(&lv, &rv)))),
        BinaryOp::Neq => Ok(Rv::Value(Value::Bool(!rv_eq(&lv, &rv)))),
        BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge => {
            let (Some(a), Some(b)) = (lv.as_scalar(), rv.as_scalar()) else {
                return Ok(Rv::Value(Value::Bool(false)));
            };
            let Some(ord) = a.partial_order(&b) else {
                return Ok(Rv::Value(Value::Bool(false)));
            };
            let ok = match op {
                BinaryOp::Lt => ord == Ordering::Less,
                BinaryOp::Le => ord != Ordering::Greater,
                BinaryOp::Gt => ord == Ordering::Greater,
                BinaryOp::Ge => ord != Ordering::Less,
                _ => unreachable!(),
            };
            Ok(Rv::Value(Value::Bool(ok)))
        }
        BinaryOp::In => {
            // Scalar (or singleton-set) membership in a set or list.
            match &rv {
                Rv::List(items) => {
                    let ok = items.iter().any(|i| rv_eq(&lv, i));
                    Ok(Rv::Value(Value::Bool(ok)))
                }
                _ => {
                    let (Some(needle), Some(hay)) = (lv.as_scalar(), rv.as_set()) else {
                        return Ok(Rv::Value(Value::Bool(false)));
                    };
                    Ok(Rv::Value(Value::Bool(hay.contains(&needle))))
                }
            }
        }
        BinaryOp::Subset => {
            let (Some(a), Some(b)) = (lv.as_set(), rv.as_set()) else {
                return Ok(Rv::Value(Value::Bool(false)));
            };
            Ok(Rv::Value(Value::Bool(a.is_subset_of(&b))))
        }
        BinaryOp::Add => {
            // String concatenation or numeric addition.
            match (lv.as_scalar(), rv.as_scalar()) {
                (Some(Value::Str(a)), Some(b)) => Ok(Rv::Value(Value::Str(format!("{a}{b}")))),
                (Some(a), Some(Value::Str(b))) => Ok(Rv::Value(Value::Str(format!("{a}{b}")))),
                (Some(a), Some(b)) => numeric_op(&a, &b, |x, y| x + y, |x, y| x.checked_add(y)),
                _ => Ok(Rv::Null),
            }
        }
        BinaryOp::Sub => scalar_numeric(&lv, &rv, |x, y| x - y, |x, y| x.checked_sub(y)),
        BinaryOp::Mul => scalar_numeric(&lv, &rv, |x, y| x * y, |x, y| x.checked_mul(y)),
        BinaryOp::Div => {
            // Division is real-valued: the paper's weight expression
            // `1 / (1 + e.nr_messages)` must not truncate to zero.
            let (Some(a), Some(b)) = (lv.as_scalar(), rv.as_scalar()) else {
                return Ok(Rv::Null);
            };
            let (Some(x), Some(y)) = (a.as_f64(), b.as_f64()) else {
                return Ok(Rv::Null);
            };
            if y == 0.0 {
                return Err(RuntimeError::DivisionByZero.into());
            }
            Ok(Rv::Value(Value::Float(x / y)))
        }
        BinaryOp::Mod => {
            let (Some(Value::Int(a)), Some(Value::Int(b))) = (lv.as_scalar(), rv.as_scalar())
            else {
                return Ok(Rv::Null);
            };
            if b == 0 {
                return Err(RuntimeError::DivisionByZero.into());
            }
            Ok(Rv::Value(Value::Int(a % b)))
        }
        BinaryOp::And | BinaryOp::Or => unreachable!("handled above"),
    }
}

fn scalar_numeric(
    lv: &Rv,
    rv: &Rv,
    ff: impl Fn(f64, f64) -> f64,
    fi: impl Fn(i64, i64) -> Option<i64>,
) -> Result<Rv> {
    match (lv.as_scalar(), rv.as_scalar()) {
        (Some(a), Some(b)) => numeric_op(&a, &b, ff, fi),
        _ => Ok(Rv::Null),
    }
}

fn numeric_op(
    a: &Value,
    b: &Value,
    ff: impl Fn(f64, f64) -> f64,
    fi: impl Fn(i64, i64) -> Option<i64>,
) -> Result<Rv> {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => match fi(*x, *y) {
            Some(r) => Ok(Rv::Value(Value::Int(r))),
            None => Ok(Rv::Value(Value::Float(ff(*x as f64, *y as f64)))),
        },
        _ => match (a.as_f64(), b.as_f64()) {
            (Some(x), Some(y)) => Ok(Rv::Value(Value::Float(ff(x, y)))),
            _ => Ok(Rv::Null),
        },
    }
}

/// Set-aware equality: sets compare as sets (scalars coerce to
/// singletons), elements by identity, lists pointwise; Null equals
/// nothing.
pub fn rv_eq(a: &Rv, b: &Rv) -> bool {
    match (a, b) {
        (Rv::Null, _) | (_, Rv::Null) => false,
        (Rv::Node(x), Rv::Node(y)) => x == y,
        (Rv::Edge(x), Rv::Edge(y)) => x == y,
        (Rv::Path(x), Rv::Path(y)) => x == y,
        (Rv::FreshPath(x), Rv::FreshPath(y)) => x == y,
        (Rv::List(xs), Rv::List(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| rv_eq(x, y))
        }
        (Rv::Set(_), _) | (_, Rv::Set(_)) => match (a.as_set(), b.as_set()) {
            (Some(x), Some(y)) => x.set_eq(&y),
            _ => false,
        },
        (Rv::Value(x), Rv::Value(y)) => x.sem_eq(y),
        _ => false,
    }
}

fn eval_func(ctx: &EvalCtx, env: &Env<'_>, f: Func, args: &[Expr]) -> Result<Rv> {
    let arity_err = |n: usize| -> crate::error::EngineError {
        RuntimeError::Type(format!("{} expects {n} argument(s)", f.name())).into()
    };
    match f {
        Func::Labels => {
            let [arg] = args else {
                return Err(arity_err(1));
            };
            let (rv, graph) = eval_with_graph(ctx, env, arg)?;
            let id = match rv {
                Rv::Node(n) => ElementId::Node(n),
                Rv::Edge(e) => ElementId::Edge(e),
                Rv::Path(p) => ElementId::Path(p),
                _ => return Ok(Rv::List(Vec::new())),
            };
            Ok(Rv::List(
                graph
                    .labels(id)
                    .names()
                    .into_iter()
                    .map(|n| Rv::Value(Value::Str(n)))
                    .collect(),
            ))
        }
        Func::Nodes | Func::Edges | Func::Length => {
            let [arg] = args else {
                return Err(arity_err(1));
            };
            let (rv, graph) = eval_with_graph(ctx, env, arg)?;
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
                Func::Length => Rv::Value(Value::Int(edges.len() as i64)),
                _ => unreachable!(),
            })
        }
        Func::Size => {
            let [arg] = args else {
                return Err(arity_err(1));
            };
            let rv = eval_expr(ctx, env, arg)?;
            let n = match &rv {
                Rv::Set(s) => s.len(),
                Rv::List(l) => l.len(),
                Rv::Value(Value::Str(s)) => s.chars().count(),
                Rv::Null => 0,
                _ => return Ok(Rv::Null),
            };
            Ok(Rv::Value(Value::Int(n as i64)))
        }
        Func::ToString => {
            let [arg] = args else {
                return Err(arity_err(1));
            };
            let rv = eval_expr(ctx, env, arg)?;
            match rv.as_scalar() {
                Some(v) => Ok(Rv::Value(Value::Str(v.to_string()))),
                None => Ok(Rv::Null),
            }
        }
        Func::ToInteger => {
            let [arg] = args else {
                return Err(arity_err(1));
            };
            let rv = eval_expr(ctx, env, arg)?;
            Ok(match rv.as_scalar() {
                Some(Value::Int(i)) => Rv::Value(Value::Int(i)),
                Some(Value::Float(f)) => Rv::Value(Value::Int(f.trunc() as i64)),
                Some(Value::Str(s)) => s
                    .trim()
                    .parse::<i64>()
                    .map(|i| Rv::Value(Value::Int(i)))
                    .unwrap_or(Rv::Null),
                Some(Value::Bool(b)) => Rv::Value(Value::Int(b as i64)),
                _ => Rv::Null,
            })
        }
        Func::ToFloat => {
            let [arg] = args else {
                return Err(arity_err(1));
            };
            let rv = eval_expr(ctx, env, arg)?;
            Ok(match rv.as_scalar() {
                Some(Value::Int(i)) => Rv::Value(Value::Float(i as f64)),
                Some(Value::Float(f)) => Rv::Value(Value::Float(f)),
                Some(Value::Str(s)) => s
                    .trim()
                    .parse::<f64>()
                    .map(|f| Rv::Value(Value::Float(f)))
                    .unwrap_or(Rv::Null),
                _ => Rv::Null,
            })
        }
        Func::Lower | Func::Upper => {
            let [arg] = args else {
                return Err(arity_err(1));
            };
            let rv = eval_expr(ctx, env, arg)?;
            match rv.as_scalar() {
                Some(Value::Str(s)) => Ok(Rv::Value(Value::Str(if f == Func::Lower {
                    s.to_lowercase()
                } else {
                    s.to_uppercase()
                }))),
                _ => Ok(Rv::Null),
            }
        }
        Func::Abs => {
            let [arg] = args else {
                return Err(arity_err(1));
            };
            let rv = eval_expr(ctx, env, arg)?;
            Ok(match rv.as_scalar() {
                Some(Value::Int(i)) => Rv::Value(Value::Int(i.abs())),
                Some(Value::Float(f)) => Rv::Value(Value::Float(f.abs())),
                _ => Rv::Null,
            })
        }
        Func::Trim => {
            let [arg] = args else {
                return Err(arity_err(1));
            };
            let rv = eval_expr(ctx, env, arg)?;
            Ok(match rv.as_scalar() {
                Some(Value::Str(s)) => Rv::Value(Value::Str(s.trim().to_owned())),
                _ => Rv::Null,
            })
        }
        Func::Contains | Func::StartsWith | Func::EndsWith => {
            let [a, b] = args else {
                return Err(arity_err(2));
            };
            let a = eval_expr(ctx, env, a)?;
            let b = eval_expr(ctx, env, b)?;
            Ok(match (a.as_scalar(), b.as_scalar()) {
                (Some(Value::Str(hay)), Some(Value::Str(needle))) => {
                    Rv::Value(Value::Bool(match f {
                        Func::Contains => hay.contains(&needle),
                        Func::StartsWith => hay.starts_with(&needle),
                        Func::EndsWith => hay.ends_with(&needle),
                        _ => unreachable!(),
                    }))
                }
                _ => Rv::Null,
            })
        }
        Func::Substring => {
            if args.len() != 2 && args.len() != 3 {
                return Err(arity_err(2));
            }
            let s = eval_expr(ctx, env, &args[0])?;
            let start = eval_expr(ctx, env, &args[1])?;
            let (Some(Value::Str(s)), Some(Value::Int(start))) = (s.as_scalar(), start.as_scalar())
            else {
                return Ok(Rv::Null);
            };
            let start = start.max(0) as usize;
            let chars: Vec<char> = s.chars().collect();
            let end = match args.get(2) {
                None => chars.len(),
                Some(len_expr) => {
                    let len = eval_expr(ctx, env, len_expr)?;
                    match len.as_scalar() {
                        Some(Value::Int(l)) => (start + l.max(0) as usize).min(chars.len()),
                        _ => return Ok(Rv::Null),
                    }
                }
            };
            if start >= chars.len() {
                return Ok(Rv::Value(Value::Str(String::new())));
            }
            Ok(Rv::Value(Value::Str(chars[start..end].iter().collect())))
        }
        Func::Year | Func::Month | Func::Day => {
            let [arg] = args else {
                return Err(arity_err(1));
            };
            let rv = eval_expr(ctx, env, arg)?;
            // Accept both Date values and ISO-formatted strings.
            let date = match rv.as_scalar() {
                Some(Value::Date(d)) => Some(d),
                Some(Value::Str(s)) => Date::parse(&s),
                _ => None,
            };
            Ok(match date {
                Some(d) => Rv::Value(Value::Int(match f {
                    Func::Year => d.year as i64,
                    Func::Month => d.month as i64,
                    Func::Day => d.day as i64,
                    _ => unreachable!(),
                })),
                None => Rv::Null,
            })
        }
        Func::Floor | Func::Ceil => {
            let [arg] = args else {
                return Err(arity_err(1));
            };
            let rv = eval_expr(ctx, env, arg)?;
            Ok(match rv.as_scalar() {
                Some(Value::Int(i)) => Rv::Value(Value::Int(i)),
                Some(Value::Float(x)) => Rv::Value(Value::Int(if f == Func::Floor {
                    x.floor() as i64
                } else {
                    x.ceil() as i64
                })),
                _ => Rv::Null,
            })
        }
        Func::Sqrt => {
            let [arg] = args else {
                return Err(arity_err(1));
            };
            let rv = eval_expr(ctx, env, arg)?;
            Ok(match rv.as_scalar().and_then(|v| v.as_f64()) {
                Some(x) if x >= 0.0 => Rv::Value(Value::Float(x.sqrt())),
                _ => Rv::Null,
            })
        }
        Func::Head | Func::Last => {
            let [arg] = args else {
                return Err(arity_err(1));
            };
            let rv = eval_expr(ctx, env, arg)?;
            Ok(match rv {
                Rv::List(items) if !items.is_empty() => {
                    if f == Func::Head {
                        items.into_iter().next().expect("nonempty")
                    } else {
                        items.into_iter().next_back().expect("nonempty")
                    }
                }
                _ => Rv::Null,
            })
        }
    }
}

/// Fold the aggregate `agg` over the rows of the environment's group,
/// once per group. Each row evaluates the argument in a scope of its
/// own, with no group: an aggregate inside it is misplaced.
///
/// `COUNT(*)` counts the group's bindings — except pure padding rows
/// introduced by OPTIONAL's left outer join (rows whose every column
/// outside the group's columns is `Missing`), which count as zero. This
/// is what makes the paper's `nr_messages := COUNT(*)` put `0` (not 1)
/// on knows edges without any exchanged message (Figure 5).
fn eval_aggregate(ctx: &EvalCtx, env: &Env<'_>, agg: &Expr) -> Result<Rv> {
    let (Some(group), Expr::Aggregate { op, distinct, arg }) = (env.group, agg) else {
        return Err(crate::error::SemanticError::MisplacedAggregate(
            "this position (aggregates need a group: CONSTRUCT assignments, SET items, WHEN \
             conditions and SELECT items, outside any other aggregate's argument)"
                .into(),
        )
        .into());
    };
    let key = std::ptr::from_ref(agg) as usize;
    if let Some((_, rv)) = group.memo.borrow().iter().find(|(k, _)| *k == key) {
        return Ok(rv.clone());
    }
    let table = env.table;
    let mut values: Vec<Rv> = Vec::new();
    let width = table.columns().len();
    for &ri in group.rows {
        match arg {
            None => {
                // COUNT(*): skip pure left-outer padding rows.
                let padding = (0..width)
                    .filter(|i| !group.cols.contains(i))
                    .all(|i| table.is_missing_at(ri, i));
                let non_trivial = width > group.cols.len();
                if !(padding && non_trivial) {
                    values.push(Rv::Value(Value::Int(1)));
                }
            }
            Some(e) => {
                let mut row = Env::new(table, ri);
                row.parent = env.parent;
                let v = eval_expr(ctx, &row, e)?;
                if !matches!(v, Rv::Null) {
                    values.push(v);
                }
            }
        }
    }
    if *distinct {
        values.sort_by(|a, b| a.total_cmp(b));
        values.dedup_by(|a, b| a.total_cmp(b) == Ordering::Equal);
    }
    let rv = fold(*op, values);
    group.memo.borrow_mut().push((key, rv.clone()));
    Ok(rv)
}

/// An aggregate's value over the non-null values of its argument.
fn fold(op: AggOp, mut values: Vec<Rv>) -> Rv {
    match op {
        AggOp::Count => Rv::Value(Value::Int(values.len() as i64)),
        AggOp::Collect => {
            values.sort_by(|a, b| a.total_cmp(b));
            Rv::List(values)
        }
        AggOp::Sum | AggOp::Avg => {
            let mut sum = 0.0;
            let mut all_int = true;
            let mut n = 0usize;
            for v in &values {
                match v.as_scalar() {
                    Some(Value::Int(i)) => {
                        sum += i as f64;
                        n += 1;
                    }
                    Some(Value::Float(f)) => {
                        sum += f;
                        all_int = false;
                        n += 1;
                    }
                    _ => {}
                }
            }
            if n == 0 {
                return if op == AggOp::Sum {
                    Rv::Value(Value::Int(0))
                } else {
                    Rv::Null
                };
            }
            if op == AggOp::Avg {
                Rv::Value(Value::Float(sum / n as f64))
            } else if all_int {
                Rv::Value(Value::Int(sum as i64))
            } else {
                Rv::Value(Value::Float(sum))
            }
        }
        AggOp::Min | AggOp::Max => {
            let mut best: Option<Value> = None;
            for v in &values {
                if let Some(s) = v.as_scalar() {
                    best = Some(match best {
                        None => s,
                        Some(b) => {
                            let keep_new = match s.partial_order(&b) {
                                Some(Ordering::Less) => op == AggOp::Min,
                                Some(Ordering::Greater) => op == AggOp::Max,
                                _ => false,
                            };
                            if keep_new {
                                s
                            } else {
                                b
                            }
                        }
                    });
                }
            }
            best.map_or(Rv::Null, Rv::Value)
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
        let mut b = crate::binding::TableBuilder::new(cols);
        b.push(&[Bound::Node(NodeId(1)), Bound::Node(NodeId(2))]);
        let table = b.finish();
        let mut catalog = Catalog::new();
        catalog.register_graph("g", Arc::try_unwrap(g).unwrap_or_else(|a| (*a).clone()));
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

    fn eval(ctx: &EvalCtx, table: &BindingTable, src: &str) -> Rv {
        let env = Env::new(table, 0);
        eval_expr(ctx, &env, &where_expr(src)).unwrap()
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
        let env = Env::new(&t, 0);
        let err = eval_expr(&ctx, &env, &where_expr("1 / 0 = 1")).unwrap_err();
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
        let misplaced = |src: &str, group: Option<&Group<'_>>| {
            let env = Env {
                group,
                ..Env::new(&t, 0)
            };
            let err = eval_expr(&ctx, &env, &where_expr(src)).unwrap_err();
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
        let group = Group::new(&[0], &[]);
        // No group in scope.
        misplaced("COUNT(*) = 1", None);
        // Inside another aggregate's argument.
        misplaced("COUNT(COUNT(*)) = 1", Some(&group));
        misplaced("SUM(COUNT(*) + 1) = 2", Some(&group));
        // Anywhere else in a grouped expression.
        let env = Env {
            group: Some(&group),
            ..Env::new(&t, 0)
        };
        let grouped = |src: &str| eval_expr(&ctx, &env, &where_expr(src)).unwrap();
        assert!(grouped("COUNT(*) + 1 = 2").truthy());
        assert!(grouped("SIZE(COLLECT(n.name)) = 1 AND HEAD(COLLECT(n.name)) = 'Frank'").truthy());
    }

    #[test]
    fn date_literals() {
        let (ctx, t) = setup();
        assert!(eval(&ctx, &t, "DATE '2020-01-01' < DATE '2021-12-31'").truthy());
    }
}

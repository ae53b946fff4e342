//! The SELECT clause — the §5 "projecting tabular results" extension.
//!
//! `SELECT [DISTINCT] e₁ AS a₁, … MATCH … [GROUP BY …] [ORDER BY …]
//! [LIMIT n] [OFFSET m]` projects the MATCH binding table into a
//! [`Table`]. Grouping follows SQL: an explicit `GROUP BY` groups by
//! those expression values; otherwise, if any projection aggregates, the
//! whole table forms one group; otherwise each binding is its own row.

use crate::binding::BindingTable;
use crate::construct::group_by_exprs;
use crate::context::EvalCtx;
use crate::error::{Result, RuntimeError};
use crate::expr::{Compiled, Compiler, Env, Group, Rv};
use gcore_parser::ast::{Expr, SelectItem, SelectQuery};
use gcore_parser::pretty::print_expr;
use gcore_ppg::{Table, Value};
use std::cmp::Ordering;

/// Evaluate a SELECT query into a table.
pub(crate) fn eval_select(
    ctx: &EvalCtx,
    s: &SelectQuery,
    outer: Option<&Env<'_>>,
) -> Result<Table> {
    let bindings = ctx.eval_match(&s.match_clause, outer)?;

    let aggregated = !s.group_by.is_empty() || s.items.iter().any(|i| i.expr.contains_aggregate());

    // Partition rows into groups, with the columns that define them;
    // without aggregates each binding is its own group.
    let all: Vec<usize> = (0..bindings.len()).collect();
    let (by_exprs, group_cols) = if s.group_by.is_empty() {
        (Vec::new(), Vec::new())
    } else {
        group_by_exprs(ctx, &bindings, &s.group_by, outer)?
    };
    let groups: Vec<&[usize]> = if !s.group_by.is_empty() {
        by_exprs.iter().map(|(_, rows)| rows.as_slice()).collect()
    } else if aggregated {
        vec![&all]
    } else {
        all.chunks(1).collect()
    };

    let column_names: Vec<String> = s
        .items
        .iter()
        .map(|i| match &i.alias {
            Some(a) => a.text.clone(),
            None => print_expr(&i.expr),
        })
        .collect();

    // Evaluate projections (and ORDER BY keys) per group, under its
    // scope: aggregates fold over the group, everything else reads its
    // first row. The one group without rows — an aggregating SELECT over
    // no bindings — reads the unit table.
    let unit = BindingTable::unit(ctx.pool());
    let table = if bindings.is_empty() {
        &unit
    } else {
        &bindings
    };
    let mut compiler = Compiler::new(table, outer);
    let mut compile = |e| (Expr::contains_aggregate(e), compiler.compile(e));
    let items: Vec<_> = s.items.iter().map(|i| compile(&i.expr)).collect();
    let order_by: Vec<_> = s.order_by.iter().map(|o| compile(&o.expr)).collect();
    let mut rows: Vec<(Vec<Rv<'static>>, Vec<Value>)> = Vec::with_capacity(groups.len());
    for group_rows in groups {
        let group = Group::new(group_rows, &group_cols);
        let env = Env {
            table,
            row: group_rows.first().copied().unwrap_or(0),
            parent: outer,
            group: Some(&group),
        };
        let mut cells = Vec::with_capacity(items.len());
        for item in &items {
            cells.push(rv_to_value(&eval_item(ctx, &env, item)?));
        }
        let mut keys = Vec::with_capacity(order_by.len());
        for (ord, key) in s.order_by.iter().zip(&order_by) {
            // Alias references resolve to the projected cell.
            let rv = match alias_index(&ord.expr, &s.items) {
                Some(i) => Rv::value(cells[i].clone()),
                None => eval_item(ctx, &env, key)?.into_owned(),
            };
            keys.push(rv);
        }
        rows.push((keys, cells));
    }

    if s.distinct {
        rows.sort_by(|a, b| cmp_values(&a.1, &b.1));
        rows.dedup_by(|a, b| cmp_values(&a.1, &b.1) == Ordering::Equal);
    }

    if !s.order_by.is_empty() {
        rows.sort_by(|a, b| {
            for (i, ord) in s.order_by.iter().enumerate() {
                let c = a.0[i].total_cmp(&b.0[i]);
                let c = if ord.ascending { c } else { c.reverse() };
                if c != Ordering::Equal {
                    return c;
                }
            }
            cmp_values(&a.1, &b.1) // deterministic tie-break
        });
    } else {
        rows.sort_by(|a, b| cmp_values(&a.1, &b.1));
    }

    let offset = s.offset.unwrap_or(0) as usize;
    let limit = s.limit.map(|l| l as usize).unwrap_or(usize::MAX);

    let mut table = Table::new(column_names)
        .map_err(|e| RuntimeError::Other(format!("invalid SELECT projection: {e}")))?;
    for (_, cells) in rows.into_iter().skip(offset).take(limit) {
        table
            .push_row(cells)
            .map_err(|e| RuntimeError::Other(format!("projection row error: {e}")))?;
    }
    Ok(table)
}

fn cmp_values(a: &[Value], b: &[Value]) -> Ordering {
    for (x, y) in a.iter().zip(b.iter()) {
        let c = x.cmp(y);
        if c != Ordering::Equal {
            return c;
        }
    }
    a.len().cmp(&b.len())
}

fn alias_index(e: &Expr, items: &[SelectItem]) -> Option<usize> {
    let Expr::Var(name) = e else { return None };
    items
        .iter()
        .position(|i| i.alias.as_deref() == Some(name.as_str()))
}

/// Evaluate one projection item or ORDER BY key — compiled, and whether
/// it holds an aggregate — under its group's scope; an aggregate-free
/// item of a group without rows is NULL.
fn eval_item<'a>(
    ctx: &EvalCtx,
    env: &Env<'a>,
    (aggregate, expr): &'a (bool, Compiled<'_>),
) -> Result<Rv<'a>> {
    if env.group.is_some_and(|g| g.rows.is_empty()) && !aggregate {
        return Ok(Rv::Null);
    }
    expr.eval(ctx, env)
}

/// Convert a runtime value to a table cell.
///
/// Element identifiers render as opaque `#id` strings (the presentation
/// used by the paper's binding tables); value sets unwrap singletons and
/// render multi-valued sets with braces.
pub fn rv_to_value(rv: &Rv<'_>) -> Value {
    match rv {
        Rv::Null => Value::Null,
        Rv::Value(v) => (**v).clone(),
        Rv::Set(s) => match s.as_singleton() {
            Some(v) => v.clone(),
            None if s.is_empty() => Value::Null,
            None => Value::str(s.to_string()),
        },
        Rv::Node(n) => Value::str(n.to_string()),
        Rv::Edge(e) => Value::str(e.to_string()),
        Rv::Path(p) => Value::str(p.to_string()),
        Rv::FreshPath(i) => Value::str(format!("#fresh{i}")),
        Rv::List(items) => {
            let parts: Vec<String> = items.iter().map(render_rv).collect();
            Value::str(format!("[{}]", parts.join(", ")))
        }
    }
}

fn render_rv(rv: &Rv<'_>) -> String {
    match rv {
        Rv::Null => "null".to_owned(),
        Rv::Value(v) => v.to_string(),
        Rv::Set(s) => s.to_string(),
        Rv::Node(n) => n.to_string(),
        Rv::Edge(e) => e.to_string(),
        Rv::Path(p) => p.to_string(),
        Rv::FreshPath(i) => format!("#fresh{i}"),
        Rv::List(items) => {
            let parts: Vec<String> = items.iter().map(render_rv).collect();
            format!("[{}]", parts.join(", "))
        }
    }
}

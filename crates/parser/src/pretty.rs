//! Pretty-printer: AST → canonical G-CORE text.
//!
//! The printer emits a query that parses back to the *same* AST (up to
//! `Plus`/`Opt` regex sugar, which the printer expands the same way the
//! parser would). Round-trip property tests in the crate root rely on
//! this.

use crate::ast::*;
use std::fmt::Write as _;

/// Render a statement.
pub fn print_statement(stmt: &Statement) -> String {
    match stmt {
        Statement::Query(q) => print_query(q),
        Statement::GraphView { name, query } => {
            format!("GRAPH VIEW {name} AS ({})", print_query(query))
        }
    }
}

/// Render a query.
pub fn print_query(q: &Query) -> String {
    let mut out = String::new();
    for head in &q.heads {
        match head {
            HeadClause::Path(p) => {
                let _ = write!(out, "PATH {} = ", p.name);
                out.push_str(
                    &p.patterns
                        .iter()
                        .map(print_pattern)
                        .collect::<Vec<_>>()
                        .join(", "),
                );
                if let Some(w) = &p.where_clause {
                    let _ = write!(out, " WHERE {}", print_expr(w));
                }
                if let Some(c) = &p.cost {
                    let _ = write!(out, " COST {}", print_expr(c));
                }
                out.push(' ');
            }
            HeadClause::Graph(g) => {
                let _ = write!(out, "GRAPH {} AS ({}) ", g.name, print_query(&g.query));
            }
        }
    }
    match &q.body {
        QueryBody::Graph(g) => out.push_str(&print_full_graph_query(g)),
        QueryBody::Select(s) => out.push_str(&print_select(s)),
    }
    out
}

fn print_full_graph_query(q: &FullGraphQuery) -> String {
    match q {
        FullGraphQuery::Basic(b) => print_basic(b),
        FullGraphQuery::SetOp { op, left, right } => {
            let lhs = print_full_graph_query(left);
            let rhs = match right.as_ref() {
                FullGraphQuery::Basic(_) => print_full_graph_query(right),
                _ => format!("({})", print_full_graph_query(right)),
            };
            format!("{lhs} {op} {rhs}")
        }
    }
}

fn print_basic(b: &BasicGraphQuery) -> String {
    let mut out = String::from("CONSTRUCT ");
    out.push_str(
        &b.construct
            .items
            .iter()
            .map(print_construct_item)
            .collect::<Vec<_>>()
            .join(", "),
    );
    match &b.source {
        QuerySource::Match(m) => {
            // Unit match (no patterns): omit MATCH entirely.
            if !m.patterns.is_empty() || m.where_clause.is_some() || !m.optionals.is_empty() {
                out.push(' ');
                out.push_str(&print_match(m));
            }
        }
        QuerySource::From(t) => {
            let _ = write!(out, " FROM {t}");
        }
    }
    out
}

fn print_match(m: &MatchClause) -> String {
    let mut out = String::from("MATCH ");
    out.push_str(
        &m.patterns
            .iter()
            .map(print_located)
            .collect::<Vec<_>>()
            .join(", "),
    );
    if let Some(w) = &m.where_clause {
        let _ = write!(out, " WHERE {}", print_expr(w));
    }
    for opt in &m.optionals {
        out.push_str(" OPTIONAL ");
        out.push_str(
            &opt.patterns
                .iter()
                .map(print_located)
                .collect::<Vec<_>>()
                .join(", "),
        );
        if let Some(w) = &opt.where_clause {
            let _ = write!(out, " WHERE {}", print_expr(w));
        }
    }
    out
}

/// Render a located pattern (`(n)-[:knows]->(m) ON g`). Public so
/// downstream tooling (e.g. the engine's `EXPLAIN` renderer) can show
/// patterns in their canonical surface syntax.
pub fn print_located(lp: &LocatedPattern) -> String {
    print_pattern_on(&lp.pattern, lp.on.as_ref())
}

/// [`print_located`] for a pattern held apart from its location.
pub fn print_pattern_on(pattern: &Pattern, on: Option<&Location>) -> String {
    let mut out = print_pattern(pattern);
    match on {
        Some(Location::Named(n)) => {
            let _ = write!(out, " ON {n}");
        }
        Some(Location::Subquery(q)) => {
            let _ = write!(out, " ON ({})", print_query(q));
        }
        None => {}
    }
    out
}

/// Render a bare match pattern without its `ON` location.
pub fn print_pattern(p: &Pattern) -> String {
    let mut out = print_node(&p.start);
    for step in &p.steps {
        match &step.connection {
            Connection::Edge(e) => out.push_str(&print_edge(e)),
            Connection::Path(pp) => out.push_str(&print_path_pattern(pp)),
        }
        out.push_str(&print_node(&step.node));
    }
    out
}

fn print_node(n: &NodePattern) -> String {
    let mut out = String::from("(");
    if let Some(v) = &n.var {
        out.push_str(v);
    }
    for LabelDisjunction(labels, _) in &n.labels {
        let _ = write!(out, ":{}", labels.join("|"));
    }
    if !n.props.is_empty() {
        out.push_str(" {");
        out.push_str(
            &n.props
                .iter()
                .map(|p| format!("{} = {}", p.key, print_expr(&p.value)))
                .collect::<Vec<_>>()
                .join(", "),
        );
        out.push('}');
    }
    out.push(')');
    out
}

fn print_edge(e: &EdgePattern) -> String {
    let mut inner = String::new();
    if let Some(v) = &e.var {
        inner.push_str(v);
    }
    for LabelDisjunction(labels, _) in &e.labels {
        let _ = write!(inner, ":{}", labels.join("|"));
    }
    if !e.props.is_empty() {
        inner.push_str(" {");
        inner.push_str(
            &e.props
                .iter()
                .map(|p| format!("{} = {}", p.key, print_expr(&p.value)))
                .collect::<Vec<_>>()
                .join(", "),
        );
        inner.push('}');
    }
    match e.direction {
        Direction::Out => format!("-[{inner}]->"),
        Direction::In => format!("<-[{inner}]-"),
        Direction::Undirected => format!("-[{inner}]-"),
    }
}

fn print_path_pattern(p: &PathPattern) -> String {
    let mut inner = String::new();
    match p.mode {
        PathMode::Shortest(1) => {}
        PathMode::Shortest(k) => {
            let _ = write!(inner, "{k} SHORTEST ");
        }
        PathMode::All => inner.push_str("ALL "),
    }
    if p.stored {
        inner.push('@');
    }
    if let Some(v) = &p.var {
        inner.push_str(v);
    }
    for LabelDisjunction(labels, _) in &p.labels {
        let _ = write!(inner, ":{}", labels.join("|"));
    }
    if let Some(r) = &p.regex {
        let _ = write!(inner, "<{}>", print_regex(r, 0));
    }
    if let Some(c) = &p.cost_var {
        let _ = write!(inner, " COST {c}");
    }
    match p.direction {
        Direction::Out => format!("-/{inner}/->"),
        Direction::In => format!("<-/{inner}/-"),
        Direction::Undirected => format!("-/{inner}/-"),
    }
}

/// Precedence: 0 = alternation, 1 = concatenation, 2 = postfix.
fn print_regex(r: &Regex, prec: u8) -> String {
    let (text, my_prec) = match r {
        Regex::Label(l) => (format!(":{l}"), 2),
        Regex::LabelInv(l) => (format!(":{l}-"), 2),
        Regex::NodeTest(l) => (format!("!{l}"), 2),
        Regex::Wildcard => ("_".to_string(), 2),
        Regex::View(v) => (format!("~{v}"), 2),
        Regex::Concat(parts) => (
            parts
                .iter()
                .map(|p| print_regex(p, 1))
                .collect::<Vec<_>>()
                .join(" "),
            1,
        ),
        Regex::Alt(parts) => (
            parts
                .iter()
                .map(|p| print_regex(p, 1))
                .collect::<Vec<_>>()
                .join(" + "),
            0,
        ),
        Regex::Star(inner) => (format!("{}*", print_regex(inner, 2)), 2),
        // r+ ≡ r r*, r? ≡ () + r — printed in primitive form.
        Regex::Plus(inner) => {
            let base = print_regex(inner, 2);
            (format!("{base} {base}*"), 1)
        }
        Regex::Opt(inner) => (format!("({}*)", print_regex(inner, 2)), 2),
    };
    if my_prec < prec {
        format!("({text})")
    } else {
        text
    }
}

fn print_construct_item(item: &ConstructItem) -> String {
    match item {
        ConstructItem::GraphName(n) => n.clone(),
        ConstructItem::Pattern(p) => print_construct_pattern(p),
    }
}

fn print_construct_pattern(p: &ConstructPattern) -> String {
    let mut out = print_construct_node(&p.start);
    for step in &p.steps {
        match &step.connection {
            ConstructConnection::Edge(e) => out.push_str(&print_construct_edge(e)),
            ConstructConnection::Path(cp) => out.push_str(&print_construct_path(cp)),
        }
        out.push_str(&print_construct_node(&step.node));
    }
    if let Some(w) = &p.when {
        let _ = write!(out, " WHEN {}", print_expr(w));
    }
    for set in &p.sets {
        match set {
            SetItem::Prop { var, key, value } => {
                let _ = write!(out, " SET {var}.{key} := {}", print_expr(value));
            }
            SetItem::Label { var, label } => {
                let _ = write!(out, " SET {var}:{label}");
            }
            SetItem::Copy { var, from } => {
                let _ = write!(out, " SET {var} = {from}");
            }
        }
    }
    for rem in &p.removes {
        match rem {
            RemoveItem::Prop { var, key } => {
                let _ = write!(out, " REMOVE {var}.{key}");
            }
            RemoveItem::Label { var, label } => {
                let _ = write!(out, " REMOVE {var}:{label}");
            }
        }
    }
    out
}

fn construct_element_inner(
    var: &Option<Ident>,
    copy_of: &Option<Ident>,
    group: &Option<Vec<Expr>>,
    labels: &[String],
    assigns: &[PropAssign],
) -> String {
    let mut inner = String::new();
    if let Some(c) = copy_of {
        let _ = write!(inner, "={c}");
    } else if let Some(v) = var {
        inner.push_str(v);
    }
    if let Some(group) = group {
        let _ = write!(
            inner,
            " GROUP {}",
            group.iter().map(print_expr).collect::<Vec<_>>().join(", ")
        );
    }
    for l in labels {
        let _ = write!(inner, " :{l}");
    }
    if !assigns.is_empty() {
        inner.push_str(" {");
        inner.push_str(
            &assigns
                .iter()
                .map(|a| format!("{} := {}", a.key, print_expr(&a.value)))
                .collect::<Vec<_>>()
                .join(", "),
        );
        inner.push('}');
    }
    inner.trim_start().to_string()
}

fn print_construct_node(n: &ConstructNode) -> String {
    format!(
        "({})",
        construct_element_inner(&n.var, &n.copy_of, &n.group, &n.labels, &n.assigns)
    )
}

fn print_construct_edge(e: &ConstructEdge) -> String {
    let inner = construct_element_inner(&e.var, &e.copy_of, &e.group, &e.labels, &e.assigns);
    match e.direction {
        Direction::In => format!("<-[{inner}]-"),
        _ => format!("-[{inner}]->"),
    }
}

fn print_construct_path(p: &ConstructPath) -> String {
    let mut inner = String::new();
    if p.stored {
        inner.push('@');
    }
    inner.push_str(&p.var);
    for l in &p.labels {
        let _ = write!(inner, ":{l}");
    }
    if !p.assigns.is_empty() {
        inner.push_str(" {");
        inner.push_str(
            &p.assigns
                .iter()
                .map(|a| format!("{} := {}", a.key, print_expr(&a.value)))
                .collect::<Vec<_>>()
                .join(", "),
        );
        inner.push('}');
    }
    match p.direction {
        Direction::In => format!("<-/{inner}/-"),
        _ => format!("-/{inner}/->"),
    }
}

fn print_select(s: &SelectQuery) -> String {
    let mut out = String::from("SELECT ");
    if s.distinct {
        out.push_str("DISTINCT ");
    }
    out.push_str(
        &s.items
            .iter()
            .map(|i| match &i.alias {
                Some(a) => format!("{} AS {a}", print_expr(&i.expr)),
                None => print_expr(&i.expr),
            })
            .collect::<Vec<_>>()
            .join(", "),
    );
    out.push(' ');
    out.push_str(&print_match(&s.match_clause));
    if !s.group_by.is_empty() {
        let _ = write!(
            out,
            " GROUP BY {}",
            s.group_by
                .iter()
                .map(print_expr)
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    if !s.order_by.is_empty() {
        let _ = write!(
            out,
            " ORDER BY {}",
            s.order_by
                .iter()
                .map(|o| format!(
                    "{}{}",
                    print_expr(&o.expr),
                    if o.ascending { "" } else { " DESC" }
                ))
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    if let Some(l) = s.limit {
        let _ = write!(out, " LIMIT {l}");
    }
    if let Some(o) = s.offset {
        let _ = write!(out, " OFFSET {o}");
    }
    out
}

/// Render an expression, fully parenthesizing nested operators so the
/// round-trip is precedence-safe.
pub fn print_expr(e: &Expr) -> String {
    match e {
        Expr::Int(i) => i.to_string(),
        Expr::Float(x) => {
            if x.fract() == 0.0 && x.is_finite() {
                format!("{x:.1}")
            } else {
                format!("{x}")
            }
        }
        Expr::Str(s) => format!("'{}'", s.replace('\'', "''")),
        Expr::Bool(true) => "TRUE".into(),
        Expr::Bool(false) => "FALSE".into(),
        Expr::Null => "NULL".into(),
        Expr::DateLit(d) => format!("DATE '{d}'"),
        Expr::Var(v) => v.text.clone(),
        Expr::Prop(base, key) => format!("{}.{key}", print_expr(base)),
        Expr::LabelTest(base, labels) => {
            format!("({}:{})", print_expr(base), labels.join("|"))
        }
        Expr::Index(base, idx) => format!("{}[{}]", print_expr(base), print_expr(idx)),
        Expr::Unary(UnaryOp::Not, inner) => format!("NOT ({})", print_expr(inner)),
        Expr::Unary(UnaryOp::Neg, inner) => format!("-({})", print_expr(inner)),
        Expr::Binary(op, l, r) => {
            format!("({} {op} {})", print_expr(l), print_expr(r))
        }
        Expr::Func(f, args) => format!(
            "{}({})",
            f.name(),
            args.iter().map(print_expr).collect::<Vec<_>>().join(", ")
        ),
        Expr::Aggregate { op, distinct, arg } => match arg {
            None => format!("{}(*)", op.name()),
            Some(a) => format!(
                "{}({}{})",
                op.name(),
                if *distinct { "DISTINCT " } else { "" },
                print_expr(a)
            ),
        },
        Expr::Case {
            operand,
            whens,
            else_,
        } => {
            let mut out = String::from("CASE");
            if let Some(op) = operand {
                let _ = write!(out, " {}", print_expr(op));
            }
            for (c, r) in whens {
                let _ = write!(out, " WHEN {} THEN {}", print_expr(c), print_expr(r));
            }
            if let Some(e) = else_ {
                let _ = write!(out, " ELSE {}", print_expr(e));
            }
            out.push_str(" END");
            out
        }
        Expr::Exists(q) => format!("EXISTS ({})", print_query(q)),
        Expr::PatternPredicate(p) => print_pattern(p),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_query, parse_statement};

    fn roundtrip(src: &str) {
        let q1 = parse_query(src).unwrap_or_else(|e| panic!("first parse failed:\n{e}"));
        let printed = print_query(&q1);
        let q2 = parse_query(&printed)
            .unwrap_or_else(|e| panic!("re-parse failed:\n{e}\nprinted: {printed}"));
        assert_eq!(q1, q2, "round-trip mismatch via: {printed}");
    }

    #[test]
    fn roundtrip_guided_tour_queries() {
        roundtrip("CONSTRUCT (n) MATCH (n:Person) ON social_graph WHERE n.employer = 'Acme'");
        roundtrip(
            "CONSTRUCT (c) <-[:worksAt]-(n) \
             MATCH (c:Company) ON company_graph, (n:Person) ON social_graph \
             WHERE c.name IN n.employer UNION social_graph",
        );
        roundtrip(
            "CONSTRUCT social_graph, (x GROUP e :Company {name:=e}) <-[y:worksAt]-(n) \
             MATCH (n:Person {employer=e})",
        );
        roundtrip(
            "CONSTRUCT (n)-/@p:localPeople{distance:=c}/->(m) \
             MATCH (n) -/3 SHORTEST p<:knows*> COST c/->(m) \
             WHERE (n:Person) AND (m:Person) AND (n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m)",
        );
        roundtrip("CONSTRUCT (n)-/p/->(m) MATCH (n:Person)-/ALL p<:knows*>/->(m:Person)");
        roundtrip(
            "CONSTRUCT (n)-[e:wagnerFriend {score:=COUNT(*)}]->(m) WHEN e.score > 0 \
             MATCH (n:Person)-/@p:toWagner/->(), (m:Person) ON social_graph2 \
             WHERE n = nodes(p)[1]",
        );
        roundtrip(
            "SELECT m.lastName + ', ' + m.firstName AS friendName \
             MATCH (n:Person) -/<:knows*>/->(m:Person) \
             WHERE n.firstName = 'John' ORDER BY friendName LIMIT 10",
        );
    }

    #[test]
    fn roundtrip_heads_and_views() {
        let src = "GRAPH VIEW v AS (PATH w = (x)-[e:knows]->(y) WHERE NOT 'Acme' IN y.employer \
                    COST 1 / (1 + e.nr_messages) \
                    CONSTRUCT g1, (n)-/@p:toWagner/->(m) \
                    MATCH (n:Person)-/p<~w*>/->(m:Person) ON g1)";
        let s1 = parse_statement(src).unwrap();
        let printed = print_statement(&s1);
        let s2 = parse_statement(&printed).unwrap();
        assert_eq!(s1, s2);
    }

    #[test]
    fn roundtrip_regex_shapes() {
        roundtrip("CONSTRUCT (n) MATCH (n)-/<(:a + :b-) :c* _ !N ~v>/->(m)");
        roundtrip("CONSTRUCT (n) MATCH (n)-/<((:a :b) + :c)*>/->(m)");
    }

    #[test]
    fn roundtrip_optionals_and_exists() {
        roundtrip(
            "CONSTRUCT (n) MATCH (n:Person) OPTIONAL (n)-[:worksAt]->(c) \
             OPTIONAL (n)-[:livesIn]->(a) WHERE EXISTS (CONSTRUCT (m) MATCH (m))",
        );
    }

    #[test]
    fn roundtrip_case_and_ops() {
        roundtrip(
            "CONSTRUCT (n {v := CASE WHEN size(n.x) = 0 THEN -1 ELSE n.x END}) \
             MATCH (n) WHERE NOT n.a = 1 AND (n.b <= 2 OR n.c <> 3) AND n.d % 2 = 0",
        );
    }

    #[test]
    fn roundtrip_set_operations() {
        roundtrip("CONSTRUCT (n) MATCH (n) INTERSECT g1 MINUS g2 UNION g3");
    }
}

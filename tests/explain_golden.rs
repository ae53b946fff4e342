//! Golden-file tests pinning `Engine::explain` output: the EXPLAIN
//! rendering is part of the tool surface (CI prints it via
//! `examples/check.rs --explain`), so its exact text — estimates, join
//! order, pushdown and strategy notes — is pinned under `tests/golden/`.
//! EXPLAIN prints the plan evaluation interprets, so it follows the
//! planner setting: each golden pins its mode (`explained` the
//! cost-based one), and `explain_matches_execution` holds the text
//! against the profile of the same statement in both modes.
//!
//! To regenerate after an intentional planner change:
//!
//! ```sh
//! GOLDEN_BLESS=1 cargo test --test explain_golden
//! ```

mod common;

use common::tour;
use gcore_repro::corpus;
use gcore_repro::engine::obs::ProfileSpan;
use std::path::PathBuf;

/// Compare (or, under `GOLDEN_BLESS=1`, rewrite) one golden file.
fn assert_golden(name: &str, actual: &str) {
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", "golden", name]
        .iter()
        .collect();
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with GOLDEN_BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "EXPLAIN output for {name} diverges from the golden file; \
         if the change is intentional, regenerate with GOLDEN_BLESS=1"
    );
}

fn explained(text: &str) -> String {
    explained_with(true, text)
}

fn explained_with(planner: bool, text: &str) -> String {
    let mut t = tour();
    t.engine.set_planner(planner);
    t.engine.explain(text).expect("statement parses")
}

#[test]
fn golden_single_pattern_with_residual_where() {
    assert_golden(
        "explain_acme_employees.txt",
        &explained(corpus::ACME_EMPLOYEES.text),
    );
}

#[test]
fn golden_multi_graph_join() {
    assert_golden(
        "explain_works_at_eq.txt",
        &explained(corpus::WORKS_AT_EQ.text),
    );
}

#[test]
fn golden_in_conjunct_pushdown() {
    // The value-join shape: `e` is bound by a's {employer = e} entry, so
    // the planner pushes `e IN b.employer` into b's pattern and the
    // residual WHERE disappears.
    assert_golden(
        "explain_value_join.txt",
        &explained(
            "CONSTRUCT (a)-[:colleague]->(b) \
             MATCH (a:Person {employer = e}), (b:Person) \
             WHERE e IN b.employer",
        ),
    );
}

#[test]
fn golden_shortest_path_step() {
    assert_golden(
        "explain_stored_paths.txt",
        &explained(corpus::STORED_PATHS.text),
    );
}

#[test]
fn golden_existential_subquery() {
    assert_golden(
        "explain_explicit_exists.txt",
        &explained(corpus::EXPLICIT_EXISTS.text),
    );
}

#[test]
fn golden_reordered_join() {
    // wagner_friend reads the stored :toWagner paths, so the two view
    // definitions must be committed before its plan can resolve
    // social_graph2 — exactly what a corpus-order evaluation does.
    let mut t = tour();
    t.engine.set_planner(true);
    t.engine.run(corpus::SOCIAL_GRAPH1.text).expect("view 1");
    t.engine.run(corpus::SOCIAL_GRAPH2.text).expect("view 2");
    let plan = t
        .engine
        .explain(corpus::WAGNER_FRIEND.text)
        .expect("parses");
    assert_golden("explain_wagner_friend.txt", &plan);
}

#[test]
fn golden_no_match_clause() {
    assert_golden(
        "explain_from_orders.txt",
        &explained(corpus::FROM_ORDERS.text),
    );
}

/// A reorderable two-graph join whose WHERE holds a pushable conjunct.
const TWO_GRAPH_IN: &str = "CONSTRUCT (n) \
     MATCH (n:Person {employer = e}) ON social_graph, (c:Company) ON company_graph \
     WHERE e IN c.name";

#[test]
fn golden_syntactic_order_when_the_planner_is_off() {
    // Cost-based, this statement prints `reordered: 1, 0` and a
    // `pushed into pattern` line; with the planner off evaluation does
    // neither, and EXPLAIN says so.
    assert_golden(
        "explain_two_graph_in_planner_off.txt",
        &explained_with(false, TWO_GRAPH_IN),
    );
}

/// A head view and an `ON (subquery)`: both evaluate with plans of
/// their own, which EXPLAIN shows under their clause.
const NESTED_PLANS: &str =
    "GRAPH acme AS (CONSTRUCT (n) MATCH (n:Person) WHERE n.employer = 'Acme') \
     CONSTRUCT (n)-[:worksAt]->(c) \
     MATCH (n:Person) ON acme, \
           (c) ON (CONSTRUCT (c) MATCH (c:Company) ON company_graph WHERE c.name = 'Acme')";

#[test]
fn golden_head_view_and_on_subquery() {
    assert_golden("explain_nested_plans.txt", &explained(NESTED_PLANS));
}

/// A k-shortest search whose far end is filtered by key equality (a
/// target) and by one more conjunct (a scan filter).
const FAR_END_TARGETS: &str = "CONSTRUCT (n)-/@p:toPeter {distance := c}/->(m) \
     MATCH (n:Person)-/3 SHORTEST p <:knows*> COST c/->(m:Person) \
     WHERE n.firstName = 'John' AND 'Peter' = m.firstName AND m.lastName <> 'Doe'";

#[test]
fn golden_far_end_equality_becomes_targets() {
    assert_golden("explain_far_end_targets.txt", &explained(FAR_END_TARGETS));
}

// ---------------------------------------------------------------------
// EXPLAIN ≡ execution
// ---------------------------------------------------------------------

/// What one `MATCH:` section of an EXPLAIN claims about its main block,
/// as far as the profile of the same statement can confirm it.
#[derive(Debug, Default, PartialEq)]
struct Claim {
    /// `N. <pattern>` per step, in evaluation order.
    patterns: Vec<String>,
    /// `scan filter` and `targets from` lines under each step.
    scan_filters: Vec<u64>,
    pushed: usize,
    residual: usize,
}

/// The claims of an EXPLAIN text in the order it prints them, which is
/// evaluation order: a nested section (`GRAPH g:` / `ON subquery:`) is
/// indented deeper than the clause it belongs to.
fn claims(explain: &str) -> Vec<Claim> {
    let mut sections: Vec<(usize, bool, Claim)> = Vec::new(); // (indent, in OPTIONAL, claim)
    let mut open: Vec<usize> = Vec::new(); // innermost last
    for line in explain.lines() {
        let body = line.trim_start();
        let indent = line.len() - body.len();
        while open.last().is_some_and(|&i| sections[i].0 >= indent) {
            open.pop();
        }
        if body.starts_with("MATCH: ") {
            open.push(sections.len());
            sections.push((indent, false, Claim::default()));
            continue;
        }
        let Some(&cur) = open.last() else { continue };
        let (_, optional, claim) = &mut sections[cur];
        if body.starts_with("OPTIONAL: ") {
            *optional = true;
        } else if *optional {
            // OPTIONAL blocks open no spans of their own to compare with.
        } else if body.starts_with(|c: char| c.is_ascii_digit()) {
            claim
                .patterns
                .push(body.split("  ").next().unwrap().to_owned());
            claim.scan_filters.push(0);
        } else if body.starts_with("scan filter ") || body.starts_with("targets from ") {
            *claim.scan_filters.last_mut().expect("under a pattern") += 1;
        } else if body.starts_with("pushed into pattern: ") {
            claim.pushed += 1;
        } else if let Some(rest) = body.strip_prefix("residual WHERE: ") {
            claim.residual = rest.split(' ').next().unwrap().parse().unwrap();
        }
    }
    sections.into_iter().map(|(_, _, claim)| claim).collect()
}

/// The `match` spans that ran with a plan of their own, in execution
/// order: top-level ones (under `select` for a SELECT) and those of
/// `ON (subquery)` locations, which nest directly under their `match`.
/// Correlated matches sit under `pattern` / `where` / `optional` spans.
/// A clause with nothing to match (a bare CONSTRUCT) has no EXPLAIN
/// section and is left out.
fn planned_matches<'p>(spans: &'p [ProfileSpan], out: &mut Vec<&'p ProfileSpan>) {
    for span in spans {
        match span.op.as_str() {
            "match" => {
                if span.children.iter().any(|c| c.op != "plan") {
                    out.push(span);
                }
                planned_matches(&span.children, out);
            }
            "select" => planned_matches(&span.children, out),
            _ => {}
        }
    }
}

/// What a `match` span did, in the shape of a [`Claim`]. `pushed` comes
/// from the `plan` span, which only a cost-based evaluation opens.
fn observed(m: &ProfileSpan) -> Claim {
    let mut seen = Claim::default();
    for child in &m.children {
        match child.op.as_str() {
            "pattern" => {
                let text = child.detail.split(" [seeded").next().unwrap();
                seen.patterns.push(text.to_owned());
                let applied = child
                    .counters
                    .iter()
                    .find(|(name, _)| name == "scan_filters");
                seen.scan_filters.push(applied.map_or(0, |&(_, n)| n));
            }
            "plan" => {
                let field = |name: &str| -> usize {
                    let rest = child.detail.split(name).nth(1).expect("plan detail");
                    rest.split(' ').next().unwrap().parse().unwrap()
                };
                seen.pushed = field("pushed=");
                assert_eq!(field("residual_conjuncts="), conjuncts_of_where(m));
            }
            _ => {}
        }
    }
    seen.residual = conjuncts_of_where(m);
    seen
}

/// Conjuncts the `where` span of a `match` evaluated (0 without one):
/// its detail joins them with ` AND `, each parenthesized on its own.
fn conjuncts_of_where(m: &ProfileSpan) -> usize {
    let Some(w) = m.children.iter().find(|c| c.op == "where") else {
        return 0;
    };
    let (mut depth, mut n) = (0usize, 1);
    for (i, c) in w.detail.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => depth -= 1,
            ' ' if depth == 0 && w.detail[i..].starts_with(" AND ") => n += 1,
            _ => {}
        }
    }
    n
}

/// EXPLAIN prints the plan evaluation interprets: for every corpus
/// statement and a few shapes of its own, with the planner on and off,
/// the patterns EXPLAIN lists are the `pattern` spans of the profile in
/// order, with as many scan filters each, and the pushed and residual
/// conjunct counts are the ones the `plan` and `where` spans report.
#[test]
fn explain_matches_execution() {
    let own = [
        TWO_GRAPH_IN,
        NESTED_PLANS,
        FAR_END_TARGETS,
        // An OPTIONAL with its own WHERE, after a seeded second pattern.
        "SELECT n.firstName AS name, COUNT(*) AS posts \
         MATCH (n:Person)-[:knows]->(m:Person), (m)-[:isLocatedIn]->(c) \
         WHERE n.employer = 'Acme' AND c.name <> n.firstName \
         OPTIONAL (m)<-[:has_creator]-(msg:Post) WHERE msg.content <> m.firstName \
         GROUP BY n.firstName",
        // Pushdown next to a scan filter and a two-variable residual.
        "CONSTRUCT (a)-[:colleague]->(b) \
         MATCH (a:Person {employer = e}), (b:Person) \
         WHERE e IN b.employer AND a.firstName = 'John' AND a.lastName <> b.lastName",
    ];
    for planner in [true, false] {
        let mut t = tour();
        t.engine.set_planner(planner);
        let corpus = corpus::ALL.iter().map(|q| q.text);
        for text in corpus.chain(own) {
            let explain = t.engine.explain(text).expect("statement parses");
            let profiled = t.engine.profile(text);
            // Later corpus statements read the views earlier ones commit.
            let _ = t.engine.run(text);
            let Ok((_, profile)) = profiled else {
                assert!(!own.contains(&text), "must run: {text}");
                continue;
            };
            let mut ran = Vec::new();
            planned_matches(&profile.spans, &mut ran);
            let ran: Vec<Claim> = ran.into_iter().map(observed).collect();
            let rendered = profile.render(true);
            assert_eq!(
                claims(&explain),
                ran,
                "planner={planner}: EXPLAIN and execution disagree on\n{text}\n{explain}\n{rendered}",
            );
            if !planner {
                assert!(!explain.contains(" rows"), "estimate in\n{explain}");
            }
        }
    }
}

//! Golden-file tests pinning `Engine::explain` output: the EXPLAIN
//! rendering is part of the tool surface (CI prints it via
//! `examples/check.rs --explain`), so its exact text — estimates, join
//! order, pushdown and strategy notes — is pinned under `tests/golden/`.
//!
//! To regenerate after an intentional planner change:
//!
//! ```sh
//! GOLDEN_BLESS=1 cargo test --test explain_golden
//! ```

mod common;

use common::tour;
use gcore_repro::corpus;
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
    let mut t = tour();
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

//! Golden-file tests pinning the `EXPLAIN ANALYZE` rendering
//! (`Engine::profile` + `QueryProfile::render`): operator span tree,
//! planner estimates vs actual rows, misestimate markers and auxiliary
//! counters. Timings are redacted (`time=…`) so the structure is
//! deterministic for a given statement and snapshot — the same
//! convention `tests/explain_golden.rs` uses for the static plan.
//!
//! To regenerate after an intentional change:
//!
//! ```sh
//! GOLDEN_BLESS=1 cargo test --test profile_golden
//! ```
//!
//! A profile records the evaluation that actually ran, so under
//! `GCORE_PLAN=off` the span tree legitimately differs (as the EXPLAIN
//! text does) — the goldens pin the default (planner-on) rendering and
//! comparisons are skipped in that mode;
//! `crates/core/tests/profile_equivalence.rs` covers planner-off
//! profiling and `explain_golden::explain_matches_execution` holds each
//! profile against the EXPLAIN of the same statement in both modes.

mod common;

use common::tour;
use gcore_repro::corpus;
use std::path::PathBuf;

/// True unless `GCORE_PLAN` disables the planner (mirrors the default
/// of `gcore::EvalOptions::planner`).
fn planner_on() -> bool {
    !matches!(
        std::env::var("GCORE_PLAN").as_deref(),
        Ok("off") | Ok("0") | Ok("false")
    )
}

/// Compare (or, under `GOLDEN_BLESS=1`, rewrite) one golden file.
/// No-op with the planner disabled: the pinned renderings are
/// planner-on artifacts (see the module docs).
fn assert_golden(name: &str, actual: &str) {
    if !planner_on() {
        return;
    }
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
        "EXPLAIN ANALYZE output for {name} diverges from the golden file; \
         if the change is intentional, regenerate with GOLDEN_BLESS=1"
    );
}

/// Profile one statement on a fresh tour engine and render it in
/// golden (timing-redacted) mode.
fn profiled(text: &str) -> String {
    let mut t = tour();
    let (_, profile) = t.engine.profile(text).expect("statement runs");
    profile.validate().expect("well-formed profile");
    profile.render(true)
}

#[test]
fn golden_single_pattern_with_where() {
    assert_golden(
        "profile_acme_employees.txt",
        &profiled(corpus::ACME_EMPLOYEES.text),
    );
}

#[test]
fn golden_multi_graph_join() {
    assert_golden(
        "profile_works_at_eq.txt",
        &profiled(corpus::WORKS_AT_EQ.text),
    );
}

#[test]
fn golden_in_conjunct_pushdown() {
    assert_golden(
        "profile_value_join.txt",
        &profiled(
            "CONSTRUCT (a)-[:colleague]->(b) \
             MATCH (a:Person {employer = e}), (b:Person) \
             WHERE e IN b.employer",
        ),
    );
}

#[test]
fn golden_shortest_path_search() {
    assert_golden(
        "profile_stored_paths.txt",
        &profiled(corpus::STORED_PATHS.text),
    );
}

#[test]
fn golden_reordered_join() {
    // wagner_friend reads the stored :toWagner paths, so the two view
    // definitions must be committed first — a corpus-order evaluation.
    let mut t = tour();
    t.engine.run(corpus::SOCIAL_GRAPH1.text).expect("view 1");
    t.engine.run(corpus::SOCIAL_GRAPH2.text).expect("view 2");
    let (_, profile) = t
        .engine
        .profile(corpus::WAGNER_FRIEND.text)
        .expect("statement runs");
    profile.validate().expect("well-formed profile");
    assert_golden("profile_wagner_friend.txt", &profile.render(true));
}

#[test]
fn golden_no_match_clause() {
    assert_golden(
        "profile_from_orders.txt",
        &profiled(corpus::FROM_ORDERS.text),
    );
}

/// The un-redacted rendering is the same text with real timings.
#[test]
fn unredacted_rendering_reports_real_timings() {
    let mut t = tour();
    let (_, profile) = t
        .engine
        .profile(corpus::ACME_EMPLOYEES.text)
        .expect("statement runs");
    let real = profile.render(false);
    assert!(!real.contains("time=…"));
    assert!(real.contains("time="));
    // Redaction changes timings only: line structure is identical.
    assert_eq!(profile.render(true).lines().count(), real.lines().count());
}

//! Per-code coverage of the `gcore-check` static analyzer: for every
//! diagnostic code, one query that triggers it and one near-identical
//! query that must not (the false-positive guard).
//!
//! All checks run through [`Engine::check`], i.e. catalog-aware against
//! the guided-tour fixture (social graph, company graph, orders table).

mod common;

use common::tour;
use gcore_repro::engine::Engine;

/// The codes `Engine::check` reports for `text`, in source order.
fn codes(engine: &Engine, text: &str) -> Vec<&'static str> {
    engine.check(text).iter().map(|d| d.code.as_str()).collect()
}

fn assert_fires(engine: &Engine, code: &str, text: &str) {
    let cs = codes(engine, text);
    assert!(
        cs.contains(&code),
        "expected {code} for `{text}`, got {cs:?}"
    );
}

fn assert_clean_of(engine: &Engine, code: &str, text: &str) {
    let cs = codes(engine, text);
    assert!(
        !cs.contains(&code),
        "did not expect {code} for `{text}`, got {cs:?}"
    );
}

#[test]
fn e000_parse_error() {
    let t = tour();
    assert_fires(&t.engine, "E000", "CONSTRUCT (n MATCH (n)");
    assert_clean_of(&t.engine, "E000", "CONSTRUCT (n) MATCH (n)");
}

#[test]
fn e001_sort_mismatch() {
    let t = tour();
    assert_fires(&t.engine, "E001", "CONSTRUCT (e) MATCH (n)-[e]->(n)");
    assert_clean_of(&t.engine, "E001", "CONSTRUCT (n) MATCH (n)-[e:knows]->(n)");
    // Collect-all: two independent conflicts, two diagnostics.
    let cs = codes(
        &t.engine,
        "CONSTRUCT (e), (c) MATCH (n)-[e]->(m)-/p <:knows*> COST c/->(k)",
    );
    assert_eq!(cs.iter().filter(|c| **c == "E001").count(), 2, "{cs:?}");
}

#[test]
fn e002_unbound_variable() {
    let t = tour();
    assert_fires(
        &t.engine,
        "E002",
        "CONSTRUCT (n) MATCH (n:Person) WHERE ghost.age > 3",
    );
    assert_clean_of(
        &t.engine,
        "E002",
        "CONSTRUCT (n) MATCH (n:Person) WHERE n.age > 3",
    );
}

#[test]
fn e003_optional_shared_variable() {
    let t = tour();
    assert_fires(
        &t.engine,
        "E003",
        "CONSTRUCT (n) MATCH (n:Person) \
         OPTIONAL (n)-[:worksAt]->(a) OPTIONAL (n)-[:livesIn]->(a)",
    );
    // Shared with the *main* pattern: allowed.
    assert_clean_of(
        &t.engine,
        "E003",
        "CONSTRUCT (n) MATCH (n:Person), (a) \
         OPTIONAL (n)-[:worksAt]->(a) OPTIONAL (n)-[:livesIn]->(a)",
    );
}

/// A `{k = v}` entry binds `v` on an edge exactly as on a node, so two
/// OPTIONAL blocks binding `y` that way share it.
#[test]
fn e003_counts_edge_value_binders() {
    let t = tour();
    for text in [
        "CONSTRUCT (n) MATCH (n) OPTIONAL (n)-[e {since = y}]->(m) OPTIONAL (n)-[f {since = y}]->(k)",
        "CONSTRUCT (n) MATCH (n) OPTIONAL (n)-[e]->(m {since = y}) OPTIONAL (n)-[f]->(k {since = y})",
    ] {
        assert_fires(&t.engine, "E003", text);
    }
    assert_clean_of(
        &t.engine,
        "E003",
        "CONSTRUCT (n) MATCH (n)-[{since = y}]->() \
         OPTIONAL (n)-[e {since = y}]->(m) OPTIONAL (n)-[f {since = y}]->(k)",
    );
}

#[test]
fn e004_misplaced_aggregate() {
    let t = tour();
    assert_fires(
        &t.engine,
        "E004",
        "CONSTRUCT (n) MATCH (n:Person) WHERE COUNT(*) > 2",
    );
    // Aggregates in CONSTRUCT assignments have a grouping context.
    assert_clean_of(
        &t.engine,
        "E004",
        "CONSTRUCT (n {cnt := COUNT(*)}) MATCH (n:Person)",
    );
}

/// An aggregate may stand anywhere inside a grouped expression, but never
/// inside another aggregate's argument: that argument is evaluated per
/// row, where no group is in scope.
#[test]
fn e004_nested_aggregates() {
    let t = tour();
    for text in [
        "SELECT COUNT(COUNT(*)) AS n MATCH (p:Person)",
        "SELECT SUM(COUNT(*)) + 1 AS n MATCH (p:Person)",
        "CONSTRUCT (x GROUP 'all' {k := MAX(COUNT(*))}) MATCH (p:Person)",
    ] {
        assert_fires(&t.engine, "E004", text);
    }
    for text in [
        "SELECT SIZE(COLLECT(p.firstName)) + 1 AS n MATCH (p:Person)",
        "CONSTRUCT (x GROUP 'all' {k := SIZE(COLLECT(p.firstName))}) WHEN COUNT(*) > 1 MATCH (p:Person)",
    ] {
        assert_clean_of(&t.engine, "E004", text);
    }
}

#[test]
fn e005_unknown_references() {
    let t = tour();
    assert_fires(&t.engine, "E005", "CONSTRUCT (n) MATCH (n) ON nowhere");
    assert_clean_of(&t.engine, "E005", "CONSTRUCT (n) MATCH (n) ON social_graph");
    assert_fires(
        &t.engine,
        "E005",
        "CONSTRUCT (x GROUP a) FROM no_such_table",
    );
    assert_clean_of(
        &t.engine,
        "E005",
        "CONSTRUCT (x GROUP custName) FROM orders",
    );
    // Unknown path view in a regex.
    assert_fires(
        &t.engine,
        "E005",
        "CONSTRUCT (m) MATCH (n)-/<~nosuch*>/->(m)",
    );
    assert_clean_of(
        &t.engine,
        "E005",
        "PATH w = (x)-[:knows]->(y) CONSTRUCT (m) MATCH (n)-/<~w*>/->(m)",
    );
}

#[test]
fn e006_invalid_path_pattern() {
    let t = tour();
    // ALL / k SHORTEST on a stored-path pattern.
    assert_fires(&t.engine, "E006", "CONSTRUCT (m) MATCH (n)-/ALL @p/->(m)");
    assert_clean_of(&t.engine, "E006", "CONSTRUCT (m) MATCH (n)-/@p/->(m)");
    // COST on ALL.
    assert_fires(
        &t.engine,
        "E006",
        "CONSTRUCT (m) MATCH (n)-/ALL p <:knows*> COST c/->(m)",
    );
    assert_clean_of(
        &t.engine,
        "E006",
        "CONSTRUCT (m) MATCH (n)-/p <:knows*> COST c/->(m)",
    );
}

#[test]
fn e007_group_conflict() {
    let t = tour();
    assert_fires(
        &t.engine,
        "E007",
        "CONSTRUCT (x GROUP n.employer)-[:a]->(y), (x GROUP n.age)-[:b]->(z) \
         MATCH (n:Person)",
    );
    assert_clean_of(
        &t.engine,
        "E007",
        "CONSTRUCT (x GROUP n.employer)-[:a]->(y), (x GROUP n.employer)-[:b]->(z) \
         MATCH (n:Person)",
    );
}

#[test]
fn e008_graph_expected() {
    let t = tour();
    assert_fires(
        &t.engine,
        "E008",
        "GRAPH VIEW v AS (SELECT n.firstName AS f MATCH (n))",
    );
    assert_clean_of(
        &t.engine,
        "E008",
        "GRAPH VIEW v AS (CONSTRUCT (n) MATCH (n:Person))",
    );
}

#[test]
fn e009_all_paths_escape() {
    let t = tour();
    assert_fires(
        &t.engine,
        "E009",
        "CONSTRUCT (n)-/@p:everything/->(m) MATCH (n)-/ALL p <:knows*>/->(m)",
    );
    // Projection (no `@`) of an ALL variable is the intended use.
    assert_clean_of(
        &t.engine,
        "E009",
        "CONSTRUCT (n)-/p/->(m) MATCH (n)-/ALL p <:knows*>/->(m)",
    );
}

#[test]
fn e012_construct_path_unbound() {
    let t = tour();
    assert_fires(
        &t.engine,
        "E012",
        "CONSTRUCT (n)-/@q:lost/->(m) MATCH (n)-[:knows]->(m)",
    );
    assert_clean_of(
        &t.engine,
        "E012",
        "CONSTRUCT (n)-/@q:found/->(m) MATCH (n)-/q <:knows*>/->(m)",
    );
}

#[test]
fn e013_group_on_bound_variable() {
    let t = tour();
    assert_fires(
        &t.engine,
        "E013",
        "CONSTRUCT (n GROUP n.employer) MATCH (n:Person)",
    );
    assert_clean_of(
        &t.engine,
        "E013",
        "CONSTRUCT (x GROUP n.employer) MATCH (n:Person)",
    );
}

#[test]
fn e014_unknown_set_target() {
    let t = tour();
    assert_fires(
        &t.engine,
        "E014",
        "CONSTRUCT (n) SET ghost.x := 1 MATCH (n:Person)",
    );
    assert_clean_of(
        &t.engine,
        "E014",
        "CONSTRUCT (n) SET n.x := 1 MATCH (n:Person)",
    );
}

#[test]
fn w101_unused_variable() {
    let t = tour();
    assert_fires(
        &t.engine,
        "W101",
        "CONSTRUCT (n) MATCH (n:Person)-[e:knows]->(m)",
    );
    assert_clean_of(
        &t.engine,
        "W101",
        "CONSTRUCT (n)-[e]->(m) MATCH (n:Person)-[e:knows]->(m)",
    );
    // Anonymous elements never warn.
    assert_clean_of(
        &t.engine,
        "W101",
        "CONSTRUCT (n) MATCH (n:Person)-[:knows]->()",
    );
}

#[test]
fn w102_shadowed_variable() {
    let t = tour();
    assert_fires(
        &t.engine,
        "W102",
        "SELECT n.firstName AS n MATCH (n:Person)",
    );
    assert_clean_of(
        &t.engine,
        "W102",
        "SELECT n.firstName AS name MATCH (n:Person)",
    );
}

/// A PATH clause's variables shadow every binder of the body, `{k = v}`
/// values on edges included.
#[test]
fn w102_path_clause_counts_edge_value_binders() {
    let t = tour();
    for text in [
        "PATH wk = (a)-[:knows]->(b) CONSTRUCT (n) MATCH (n)-[e {since = a}]->(m)",
        "PATH wk = (a)-[:knows]->(b) CONSTRUCT (n) MATCH (n {since = a})-[e]->(m)",
    ] {
        assert_fires(&t.engine, "W102", text);
    }
    assert_clean_of(
        &t.engine,
        "W102",
        "PATH wk = (a)-[:knows]->(b) CONSTRUCT (n) MATCH (n)-[e {since = d}]->(m)",
    );
}

/// Patterns sharing a `{k = v}` binder are joined on it, on an edge as on
/// a node.
#[test]
fn w103_counts_edge_value_binders() {
    let t = tour();
    for text in [
        "CONSTRUCT (a) MATCH (a)-[e {since = y}]->(b), (c {since = y})",
        "CONSTRUCT (a) MATCH (a {since = y})-[e]->(b), (c {since = y})",
    ] {
        assert_clean_of(&t.engine, "W103", text);
    }
    assert_fires(
        &t.engine,
        "W103",
        "CONSTRUCT (a) MATCH (a)-[e {since = y}]->(b), (c {since = z})",
    );
}

/// A subquery relates the outer variables its MATCH clause mentions —
/// patterns and WHEREs of the main and OPTIONAL blocks — whether its body
/// is a graph query or a SELECT.
#[test]
fn w103_subquery_bodies_relate_alike() {
    let t = tour();
    for text in [
        "CONSTRUCT (n)-[:x]->(m) MATCH (n:Person), (m:Person) \
         WHERE EXISTS (CONSTRUCT () MATCH (k) WHERE k = n OR k = m)",
        "CONSTRUCT (n)-[:x]->(m) MATCH (n:Person), (m:Person) \
         WHERE EXISTS (SELECT k MATCH (k) WHERE k = n OR k = m)",
        "CONSTRUCT (n)-[:x]->(m) MATCH (n:Person), (m:Person) \
         WHERE EXISTS (SELECT k MATCH (k) OPTIONAL (k)-[:knows]->(j) WHERE j = n OR j = m)",
        "CONSTRUCT (n)-[:x]->(m) MATCH (n:Person), (m:Person) \
         WHERE EXISTS (CONSTRUCT () MATCH (k) OPTIONAL (k)-[:knows]->(j) WHERE j = n OR j = m)",
    ] {
        assert_clean_of(&t.engine, "W103", text);
    }
    assert_fires(
        &t.engine,
        "W103",
        "CONSTRUCT (n)-[:x]->(m) MATCH (n:Person), (m:Person) \
         WHERE EXISTS (SELECT k MATCH (k) WHERE k = n)",
    );
}

#[test]
fn w103_cartesian_product() {
    let t = tour();
    assert_fires(
        &t.engine,
        "W103",
        "CONSTRUCT (n)-[:x]->(m) MATCH (n:Person), (m:Tag)",
    );
    // Sharing a variable connects the patterns.
    assert_clean_of(
        &t.engine,
        "W103",
        "CONSTRUCT (n)-[:x]->(m) MATCH (n:Person)-[:knows]->(k), (k)-[:knows]->(m)",
    );
    // So does a WHERE conjunct spanning both.
    assert_clean_of(
        &t.engine,
        "W103",
        "CONSTRUCT (n)-[:x]->(m) MATCH (n:Person), (m:Person) \
         WHERE n.employer = m.employer",
    );
}

#[test]
fn w104_unknown_label() {
    let t = tour();
    assert_fires(&t.engine, "W104", "CONSTRUCT (n) MATCH (n:Wizard)");
    assert_clean_of(&t.engine, "W104", "CONSTRUCT (n) MATCH (n:Person)");
}

#[test]
fn w105_unknown_property() {
    let t = tour();
    assert_fires(
        &t.engine,
        "W105",
        "CONSTRUCT (n) MATCH (n:Person) WHERE n.shoe_size = 43",
    );
    assert_clean_of(
        &t.engine,
        "W105",
        "CONSTRUCT (n) MATCH (n:Person) WHERE n.employer = 'Acme'",
    );
    // Reads of properties the query itself computes are not linted.
    assert_clean_of(
        &t.engine,
        "W105",
        "CONSTRUCT (n)-[e:scored {score := COUNT(*)}]->(m) WHEN e.score > 0 \
         MATCH (n:Person), (m:Person) WHERE n.employer = m.employer",
    );
}

#[test]
fn w106_suspicious_comparison() {
    let t = tour();
    assert_fires(
        &t.engine,
        "W106",
        "CONSTRUCT (n) MATCH (n:Person) WHERE 'Acme' = 1",
    );
    assert_clean_of(
        &t.engine,
        "W106",
        "CONSTRUCT (n) MATCH (n:Person) WHERE n.employer = 'Acme'",
    );
}

/// W106 looks at every comparison inside a WHERE: in function arguments
/// and index expressions too, not only under boolean operators.
#[test]
fn w106_looks_inside_every_operand() {
    let t = tour();
    for text in [
        "CONSTRUCT (n) MATCH (n:Person) WHERE toString('Acme' = 1) = 'false'",
        "CONSTRUCT (n) MATCH (n:Person) WHERE labels(n)[size('x' < 2)] = 'Person'",
    ] {
        assert_fires(&t.engine, "W106", text);
    }
    assert_clean_of(
        &t.engine,
        "W106",
        "CONSTRUCT (n) MATCH (n:Person) WHERE toString('Acme' = 'x') = 'false'",
    );
}

#[test]
fn w107_contradictory_where() {
    let t = tour();
    assert_fires(
        &t.engine,
        "W107",
        "CONSTRUCT (n) MATCH (n:Person) WHERE n.age > 3 AND 1 = 2",
    );
    assert_clean_of(
        &t.engine,
        "W107",
        "CONSTRUCT (n) MATCH (n:Person) WHERE n.age > 3 AND 1 = 1",
    );
}

/// Warnings never gate evaluation; errors always do.
#[test]
fn severity_gates_evaluation() {
    let mut t = tour();
    // W103 + W104 only: still evaluates.
    assert!(t
        .engine
        .run("CONSTRUCT (n)-[:x]->(m) MATCH (n:Wizard), (m:Tag)")
        .is_ok());
    // E001: refused before evaluation.
    assert!(t
        .engine
        .run("CONSTRUCT (e) MATCH (n)-[e:knows]->(m)")
        .is_err());
}

/// `check` is purely static: it never evaluates, never registers views.
#[test]
fn check_has_no_side_effects() {
    let t = tour();
    let diags = t
        .engine
        .check("GRAPH VIEW ephemeral AS (CONSTRUCT (n) MATCH (n:Person))");
    assert!(diags.is_empty(), "{diags:?}");
    assert!(!t.engine.catalog().has_graph("ephemeral"));
}

/// Script-level checking threads GRAPH VIEW names forward.
#[test]
fn check_script_threads_view_names() {
    let t = tour();
    let script = "GRAPH VIEW recent AS (CONSTRUCT (n) MATCH (n:Person)) \
                  CONSTRUCT (n) MATCH (n) ON recent";
    let errors: Vec<_> = t
        .engine
        .check_script(script)
        .into_iter()
        .filter(|d| d.is_error())
        .collect();
    assert!(errors.is_empty(), "{errors:?}");
    // Without the definition the same reference is E005.
    let lone = "CONSTRUCT (n) MATCH (n) ON recent";
    assert!(t
        .engine
        .check(lone)
        .iter()
        .any(|d| d.code.as_str() == "E005"));
}

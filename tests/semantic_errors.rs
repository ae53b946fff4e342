//! Negative tests: the static and runtime restrictions the paper
//! mandates must be *rejected*, with the right error class.

mod common;

use common::tour;
use gcore_repro::engine::{EngineError, RuntimeError, SemanticError};

/// The stable diagnostic code of a semantic error (static-analysis
/// rejections and direct runtime raises share the same code space, so
/// tests assert codes instead of concrete variants).
fn semantic_code(err: &EngineError) -> &'static str {
    match err {
        EngineError::Semantic(se) => se.code(),
        other => panic!("expected a semantic error, got {other:?}"),
    }
}

/// "Using ALL … is not allowed if a path variable is bound to it and
/// used somewhere" other than graph projection (§3).
#[test]
fn all_paths_cannot_be_stored() {
    let mut t = tour();
    let err = t
        .engine
        .query_graph(
            "CONSTRUCT (n)-/@p:everything/->(m) \
             MATCH (n:Person)-/ALL p <:knows*>/->(m:Person)",
        )
        .unwrap_err();
    assert_eq!(semantic_code(&err), "E009", "got {err:?}");
}

/// "changing the source and destination of an edge violates its
/// identity" (§3).
#[test]
fn bound_edge_with_other_endpoints_rejected() {
    let mut t = tour();
    let err = t
        .engine
        .query_graph(
            "CONSTRUCT (m)-[e]->(n) \
             MATCH (n)-[e:knows]->(m), (x) \
             WHERE n.firstName = 'John'",
        )
        .unwrap_err();
    assert_eq!(semantic_code(&err), "E010", "got {err:?}");
    assert!(matches!(
        err,
        EngineError::Semantic(SemanticError::EdgeEndpointsChanged(_))
    ));
}

/// GROUP on a variable bound by MATCH is meaningless — grouping of bound
/// elements is fixed to their identity (§A.3).
#[test]
fn group_on_bound_variable_rejected() {
    let mut t = tour();
    let err = t
        .engine
        .query_graph("CONSTRUCT (n GROUP n.employer) MATCH (n:Person)")
        .unwrap_err();
    assert_eq!(semantic_code(&err), "E013", "got {err:?}");
}

/// "The specified cost must be numerical, and larger than zero
/// (otherwise a run-time error will be raised)" (§3).
#[test]
fn non_positive_path_cost_is_a_runtime_error() {
    let mut t = tour();
    let err = t
        .engine
        .query_graph(
            "PATH zero = (x)-[e:knows]->(y) COST 0 \
             CONSTRUCT (m) MATCH (n)-/<~zero*>/->(m)",
        )
        .unwrap_err();
    assert!(
        matches!(
            err,
            EngineError::Runtime(RuntimeError::NonPositiveCost { .. })
        ),
        "got {err:?}"
    );
    let err = t
        .engine
        .query_graph(
            "PATH neg = (x)-[e:knows]->(y) COST 0 - 1 \
             CONSTRUCT (m) MATCH (n)-/<~neg*>/->(m)",
        )
        .unwrap_err();
    assert!(matches!(
        err,
        EngineError::Runtime(RuntimeError::NonPositiveCost { .. })
    ));
}

/// Unknown PATH views are runtime errors, not silent empties.
#[test]
fn unknown_path_view_rejected() {
    let mut t = tour();
    let err = t
        .engine
        .query_graph("CONSTRUCT (m) MATCH (n)-/<~nosuch*>/->(m)")
        .unwrap_err();
    assert!(matches!(
        err,
        EngineError::Runtime(RuntimeError::UnknownPathView(_))
    ));
}

/// Recursive PATH views are outside G-CORE.
#[test]
fn recursive_path_view_rejected() {
    let mut t = tour();
    let err = t
        .engine
        .query_graph(
            "PATH loopy = (x)-/<~loopy>/->(y) \
             CONSTRUCT (m) MATCH (n)-/<~loopy*>/->(m)",
        )
        .unwrap_err();
    assert!(matches!(err, EngineError::Runtime(RuntimeError::Other(_))));
}

/// A construct path variable must come from a MATCH path pattern.
#[test]
fn construct_path_requires_bound_variable() {
    let mut t = tour();
    let err = t
        .engine
        .query_graph("CONSTRUCT (n)-/@q:lost/->(m) MATCH (n)-[:knows]->(m)")
        .unwrap_err();
    assert_eq!(semantic_code(&err), "E012", "got {err:?}");
}

/// SET on a variable that exists nowhere in the pattern is rejected.
#[test]
fn set_on_unknown_variable_rejected() {
    let mut t = tour();
    let err = t
        .engine
        .query_graph("CONSTRUCT (n) SET ghost.x := 1 MATCH (n:Person)")
        .unwrap_err();
    assert_eq!(semantic_code(&err), "E014", "got {err:?}");
}

/// The syntactic rules behind E006, E007 and E014 are judged by the
/// analyzer alone — the evaluator keeps no copy of them — so each must
/// come back as a `SemanticError::Analysis` carrying its code, wherever
/// the offending pattern sits: the main MATCH, an OPTIONAL block, an
/// EXISTS body or a WHERE pattern predicate.
#[test]
fn the_analyzer_alone_judges_path_group_and_set_rules() {
    const ROWS: &[(&str, &str)] = &[
        // COST bound on an ALL path pattern.
        (
            "E006",
            "CONSTRUCT (m) MATCH (n:Person)-/ALL p <:knows*> COST c/->(m:Person)",
        ),
        (
            "E006",
            "CONSTRUCT (n) MATCH (n:Person) \
             OPTIONAL (n)-/ALL p <:knows*> COST c/->(m:Person)",
        ),
        (
            "E006",
            "CONSTRUCT (n) MATCH (n:Person) \
             WHERE EXISTS (CONSTRUCT (m) MATCH (n)-/ALL p <:knows*> COST c/->(m:Person))",
        ),
        (
            "E006",
            "CONSTRUCT (n) MATCH (n:Person) \
             WHERE (n)-/ALL p <:knows*> COST c/->(:Person)",
        ),
        // A path mode on a stored-path pattern.
        ("E006", "CONSTRUCT (m) MATCH (n:Person)-/ALL @p/->(m)"),
        (
            "E006",
            "CONSTRUCT (m) MATCH (n:Person)-/2 SHORTEST @p/->(m)",
        ),
        // A PATH view without a segment.
        (
            "E006",
            "PATH v = (x:Person) CONSTRUCT (m) MATCH (n:Person)-/<~v*>/->(m)",
        ),
        // Two different GROUPs on one node, then on one edge, across
        // patterns.
        (
            "E007",
            "CONSTRUCT (x GROUP n.employer)-[:a]->(n), (x GROUP n.lastName)-[:b]->(n) \
             MATCH (n:Person)",
        ),
        (
            "E007",
            "CONSTRUCT (n)-[e GROUP n.employer :a]->(m), (n)-[e GROUP n.lastName :a]->(m) \
             MATCH (n:Person)-[:knows]->(m:Person)",
        ),
        // SET / REMOVE on a variable of another construct pattern.
        (
            "E014",
            "CONSTRUCT (n), (m) SET n.seen := 1 MATCH (n:Person)-[:knows]->(m:Person)",
        ),
        (
            "E014",
            "CONSTRUCT (n), (m) REMOVE n:Person MATCH (n:Person)-[:knows]->(m:Person)",
        ),
    ];
    let mut t = tour();
    for (code, statement) in ROWS {
        match t.engine.query_graph(statement) {
            Err(EngineError::Semantic(SemanticError::Analysis(diags))) => {
                let first = diags.iter().find(|d| d.is_error()).map(|d| d.code.as_str());
                assert_eq!(first, Some(*code), "{statement}: {diags:?}");
            }
            other => panic!("{statement}: expected an {code} analysis error, got {other:?}"),
        }
    }
}

/// Unknown graphs / tables are catalog errors.
#[test]
fn unknown_graph_and_table_are_catalog_errors() {
    let mut t = tour();
    assert!(matches!(
        t.engine
            .query_graph("CONSTRUCT (n) MATCH (n) ON nowhere")
            .unwrap_err(),
        EngineError::Catalog(_)
    ));
    assert!(matches!(
        t.engine
            .query_graph("CONSTRUCT (n GROUP a) FROM notable")
            .unwrap_err(),
        EngineError::Catalog(_)
    ));
}

/// Parse errors carry line/column diagnostics.
#[test]
fn parse_errors_have_positions() {
    let mut t = tour();
    let err = t.engine.run("CONSTRUCT (n MATCH (n)").unwrap_err();
    let EngineError::Parse(p) = err else {
        panic!("expected parse error");
    };
    assert!(p.line() >= 1);
    assert!(p.column() >= 1);
}

/// Division by zero inside WHERE is reported, not swallowed.
#[test]
fn division_by_zero_reported() {
    let mut t = tour();
    let err = t
        .engine
        .query_graph("CONSTRUCT (n) MATCH (n:Person) WHERE 1 / 0 = 1")
        .unwrap_err();
    assert!(matches!(
        err,
        EngineError::Runtime(RuntimeError::DivisionByZero)
    ));
}

/// GRAPH VIEW over a SELECT body is rejected (views are graphs).
#[test]
fn graph_view_of_select_rejected() {
    let mut t = tour();
    let err = t
        .engine
        .run("GRAPH VIEW v AS (SELECT n.firstName AS f MATCH (n))")
        .unwrap_err();
    assert!(matches!(err, EngineError::Semantic(_)) || matches!(err, EngineError::Parse(_)));
}

/// The syntactic restriction of §3 / [31]: variables shared by OPTIONAL
/// blocks must appear in the enclosing pattern — "such a pattern is not
/// natural, and it should not be allowed in practice".
#[test]
fn optional_blocks_sharing_fresh_variables_rejected() {
    let mut t = tour();
    let err = t
        .engine
        .query_graph(
            "CONSTRUCT (n) MATCH (n:Person) \
             OPTIONAL (n)-[:worksAt]->(a) \
             OPTIONAL (n)-[:livesIn]->(a)",
        )
        .unwrap_err();
    assert_eq!(semantic_code(&err), "E003", "got {err:?}");
    // The order-independent variant (lines 48–53) is fine.
    assert!(t
        .engine
        .query_graph(
            "CONSTRUCT (n) MATCH (n:Person) \
             OPTIONAL (n)-[:worksAt]->(c) \
             OPTIONAL (n)-[:livesIn]->(a)",
        )
        .is_ok());
}

//! Cooperative cancellation is a pure *absence* mechanism: a token that
//! never fires must leave every result bit-identical to an engine with
//! no token at all, a token that has already fired must fail every
//! statement with `E016`, and a deadline must cut a pathological
//! statement short — in the joins, in the OPTIONAL outer join, in a
//! PATH view's product, and in CONSTRUCT — without wedging the engine
//! for later statements.
//!
//! Outputs are compared canonically (see `common/mod.rs`, shared with
//! the planner, snapshot and cold-start suites).

mod common;

use common::{canon_result, corpus_texts, prepared_engine};
use gcore::cancel::{CancelToken, CHECK_STRIDE};
use gcore::diag::DiagCode;
use gcore::Engine;
use gcore_snb::{generate, SnbConfig};
use std::time::Duration;

/// The stable code the serving and tooling layers key on.
#[test]
fn cancelled_has_the_stable_code_e016() {
    assert_eq!(DiagCode::Cancelled.as_str(), "E016");
}

// ---------------------------------------------------------------------
// Differential: cancellation that never fires is invisible
// ---------------------------------------------------------------------

/// Run the whole §3/§5 corpus on a fresh tour engine and canonicalize
/// every statement's result (errors included).
fn corpus_canon(deadline: Option<Duration>) -> Vec<String> {
    let mut engine = prepared_engine();
    engine.set_statement_deadline(deadline);
    let watermark = engine.catalog().ids().peek();
    corpus_texts()
        .iter()
        .map(|t| canon_result(&engine.run(t), watermark))
        .collect()
}

/// A generous deadline is a token that never fires: every checkpoint in
/// the matcher, joins, WHERE evaluation and path searches consults it,
/// and none may perturb the result.
#[test]
fn corpus_with_inert_deadline_matches_baseline() {
    let baseline = corpus_canon(None);
    let guarded = corpus_canon(Some(Duration::from_hours(1)));
    for (i, (a, b)) in baseline.iter().zip(&guarded).enumerate() {
        assert_eq!(
            a,
            b,
            "corpus statement {i} ({}) diverged under an inert deadline",
            gcore_repro::corpus::ALL[i].id
        );
    }
}

/// A mix over the SNB schema hitting every cancellation-instrumented
/// code path: label scans, multi-pattern joins, WHERE filtering,
/// unbounded reachability (`knows*`), bound-pair reachability, shortest
/// paths, and aggregation over a reverse hub relation.
const SNB_MIX: &[&str] = &[
    "CONSTRUCT (n) MATCH (n:Person) WHERE n.personId < 50",
    "CONSTRUCT (n)-[:fof]->(k) \
     MATCH (n:Person)-[:knows]->(m:Person)-[:knows]->(k:Person) \
     WHERE n.personId < 10",
    "SELECT p.firstName, q.firstName \
     MATCH (p:Person)-[:knows]->(q:Person), (q)-[:isLocatedIn]->(c:City) \
     WHERE c.name = 'Arnhem'",
    "CONSTRUCT (p)-[:sameCity]->(q) \
     MATCH (p:Person)-/<:knows*>/->(q:Person), \
           (p)-[:isLocatedIn]->(c:City)<-[:isLocatedIn]-(q) \
     WHERE p.personId < 25 AND q.personId < 40",
    "SELECT p.personId, q.personId \
     MATCH (p:Person)-[:knows]->(q:Person)-/<:knows*>/->(p) \
     WHERE p.personId < 40",
    "CONSTRUCT (p)-/@sp/->(q) \
     MATCH (p:Person)-/3 SHORTEST sp <:knows*>/->(q:Person) \
     WHERE p.firstName = 'Mahinda'",
    "SELECT c.name, COUNT(*) AS people \
     MATCH (c:City)<-[:isLocatedIn]-(p:Person) \
     GROUP BY c.name",
    "SELECT t.name, COUNT(*) AS fans \
     MATCH (p:Person)-[:hasInterest]->(t:Tag) \
     GROUP BY t.name",
];

fn snb_canon(deadline: Option<Duration>) -> Vec<String> {
    let mut engine = Engine::new();
    engine.set_statement_deadline(deadline);
    let data = generate(&SnbConfig::scale(1000), &engine.catalog().ids().clone());
    engine.register_graph("snb", data.graph);
    engine.set_default_graph("snb");
    let watermark = engine.catalog().ids().peek();
    SNB_MIX
        .iter()
        .map(|t| canon_result(&engine.run(t), watermark))
        .collect()
}

#[test]
fn snb_mix_with_inert_deadline_matches_baseline() {
    let baseline = snb_canon(None);
    let guarded = snb_canon(Some(Duration::from_hours(1)));
    for (i, (a, b)) in baseline.iter().zip(&guarded).enumerate() {
        assert_eq!(a, b, "SNB query {i} diverged under an inert deadline");
    }
}

// ---------------------------------------------------------------------
// A fired token fails fast with E016
// ---------------------------------------------------------------------

/// Read statements spanning the instrumented paths: a pre-fired token
/// must turn each of them into `RuntimeError::Cancelled`, never a
/// partial answer.
#[test]
fn pre_fired_token_fails_every_statement() {
    let mut engine = prepared_engine();
    let token = CancelToken::new();
    token.cancel();
    for text in [
        "SELECT n.name AS name MATCH (n:Person)",
        "CONSTRUCT (n)-[e]->(m) MATCH (n:Person)-[e:worksAt]->(m:Company)",
        "SELECT x.name AS who MATCH (x:Person)-/<:knows*>/->(y:Person)",
    ] {
        let mut executor = engine.executor();
        executor.set_cancel_token(token.clone());
        let err = executor.run(text).expect_err(text);
        assert!(err.is_cancelled(), "{text}: expected E016, got {err}");
    }
}

/// An already-expired deadline behaves exactly like a fired token.
#[test]
fn expired_deadline_cancels() {
    let mut engine = prepared_engine();
    let mut executor = engine.executor();
    executor.set_statement_deadline(Some(Duration::ZERO));
    let err = executor
        .run("SELECT n.name AS name MATCH (n:Person)")
        .expect_err("zero budget must cancel");
    assert!(err.is_cancelled(), "got {err}");
}

/// [`Engine::set_statement_deadline`] is the embedder's knob: a tiny
/// budget cancels a pathological statement, clearing it restores full
/// evaluation on the same engine — cancellation never wedges state.
#[test]
fn engine_statement_deadline_applies_and_clears() {
    let mut engine = prepared_engine();
    engine.set_statement_deadline(Some(Duration::from_millis(1)));
    let err = engine
        .run(
            "SELECT COUNT(*) AS c \
             MATCH (a:Person), (b:Person), (c:Person), (d:Person), \
                   (e:Person), (f:Person), (g:Person), (h:Person)",
        )
        .expect_err("a 1 ms budget must cancel the eight-way product");
    assert!(err.is_cancelled(), "got {err}");

    engine.set_statement_deadline(None);
    let output = engine
        .run("SELECT n.name AS name MATCH (n:Person)")
        .expect("deadline cleared, statements must run again");
    assert!(output.into_table().is_some());
}

/// A deadline must interrupt a *single* join, not only the gap between
/// two patterns: the third product here is 250³ ≈ 15.6 M rows, which
/// takes seconds to build (and at SNB-1000 would exhaust memory before
/// any between-pattern poll ran). The join polls the token as it
/// probes, so the statement comes back in a small multiple of its 5 ms
/// budget; the bound is loose for debug builds on a busy box yet far
/// below the time to build the whole product.
#[test]
fn deadline_interrupts_a_single_large_join() {
    let mut engine = Engine::new();
    let data = generate(&SnbConfig::scale(250), &engine.catalog().ids().clone());
    engine.register_graph("snb", data.graph);
    engine.set_default_graph("snb");
    engine.set_statement_deadline(Some(Duration::from_millis(5)));
    let started = std::time::Instant::now();
    let err = engine
        .run("SELECT COUNT(*) AS c MATCH (a:Person), (b:Person), (c:Person)")
        .expect_err("a 5 ms budget must cancel the three-way product");
    let elapsed = started.elapsed();
    assert!(err.is_cancelled(), "got {err}");
    assert!(
        elapsed < Duration::from_millis(750),
        "the join ran {elapsed:?} past a 5 ms deadline"
    );
}

/// Materializing a PATH view is a pattern block like any other: its
/// comma-separated patterns are joined by the cancellable join. The view
/// body here multiplies the `knows` edges by 250² persons; a 5 ms budget
/// must stop that product, and the engine must answer in full right
/// after.
#[test]
fn deadline_interrupts_a_path_view_product() {
    let mut engine = Engine::new();
    let data = generate(&SnbConfig::scale(250), &engine.catalog().ids().clone());
    engine.register_graph("snb", data.graph);
    engine.set_default_graph("snb");
    engine.set_statement_deadline(Some(Duration::from_millis(5)));
    let started = std::time::Instant::now();
    let err = engine
        .run(
            "PATH v = (a:Person)-[:knows]->(b:Person), (c:Person), (d:Person) \
             SELECT COUNT(*) AS c MATCH (x:Person)-/<~v*>/->(y) WHERE x.personId = 0",
        )
        .expect_err("a 5 ms budget must cancel the view's product");
    let elapsed = started.elapsed();
    assert!(err.is_cancelled(), "got {err}");
    assert!(
        elapsed < Duration::from_millis(750),
        "the view ran {elapsed:?} past a 5 ms deadline"
    );

    engine.set_statement_deadline(None);
    let t = engine.query_table("SELECT COUNT(*) AS c MATCH (n:Person)");
    let t = t.expect("deadline cleared, a view-free statement runs");
    assert_eq!(t.rows()[0][0], gcore_ppg::Value::Int(250));
}

/// A deadline that fires while a PATH view is being materialized leaves
/// nothing in the snapshot's view cache: the next run without a deadline
/// builds the relation again and returns the full answer. The view body
/// is a product (every `knows` edge with every person), so its
/// materialization is almost all of the statement; the budget is a
/// quarter of what the statement takes on an engine of its own.
#[test]
fn deadline_during_view_materialization_caches_nothing() {
    const STATEMENT: &str = "PATH v = (a:Person)-[:knows]->(b:Person), (c:Person) \
         SELECT COUNT(*) AS c MATCH (x:Person)-/<~v>/->(y) WHERE x.personId = 0";
    let snb = || {
        let mut engine = Engine::new();
        let data = generate(&SnbConfig::scale(100), &engine.catalog().ids().clone());
        engine.register_graph("snb", data.graph);
        engine.set_default_graph("snb");
        engine
    };
    let mut reference = snb();
    let started = std::time::Instant::now();
    let full = reference.query_table(STATEMENT).expect("no deadline");
    let budget = started.elapsed() / 4;

    let mut engine = snb();
    engine.set_statement_deadline(Some(budget));
    let err = engine
        .run(STATEMENT)
        .expect_err("a quarter of the statement's time cannot cover the view");
    assert!(err.is_cancelled(), "got {err}");
    assert_eq!(
        engine.snapshot().view_cache_stats(),
        (0, 1, 0),
        "the build started and nothing was kept"
    );
    assert_eq!(
        engine.snapshot().scc_cache_stats(),
        (0, 0, 0),
        "no closure is computed over a view that was never built"
    );

    engine.set_statement_deadline(None);
    let again = engine.query_table(STATEMENT).expect("deadline cleared");
    assert_eq!(again.rows(), full.rows());
    assert_eq!(
        engine.snapshot().view_cache_stats(),
        (0, 2, 0),
        "built again"
    );
}

/// CONSTRUCT polls the token too. The product here is cheap to *match*
/// (250 000 rows, timed first through a SELECT over the same MATCH) and
/// dear to *construct*: one skolem node with two evaluated properties
/// per binding. The budget is a few times the measured MATCH time, so it
/// runs out while the rows are being grouped and staged, and the
/// statement must come back soon after — not after the whole graph is
/// built.
#[test]
fn deadline_interrupts_a_large_construct() {
    const MATCH: &str = "MATCH (n:Person), (m:Person)";
    let mut engine = Engine::new();
    let data = generate(&SnbConfig::scale(500), &engine.catalog().ids().clone());
    engine.register_graph("snb", data.graph);
    engine.set_default_graph("snb");

    let started = std::time::Instant::now();
    let rows = engine.query_table(&format!("SELECT COUNT(*) AS c {MATCH}"));
    assert!(rows.is_ok(), "the MATCH alone is affordable");
    let budget = started.elapsed() * 3 + Duration::from_millis(5);

    engine.set_statement_deadline(Some(budget));
    let started = std::time::Instant::now();
    let err = engine
        .run(&format!(
            "CONSTRUCT (v :Pair {{a := n.personId, b := m.personId}}) {MATCH}"
        ))
        .expect_err("the budget cannot cover 250 000 constructed nodes");
    let elapsed = started.elapsed();
    assert!(err.is_cancelled(), "got {err}");
    assert!(
        elapsed < budget + Duration::from_millis(750),
        "CONSTRUCT ran {elapsed:?} past a {budget:?} deadline"
    );

    // The engine is not wedged: the next statement evaluates in full.
    engine.set_statement_deadline(None);
    let g = engine.query_graph("CONSTRUCT (n) MATCH (n:Person) WHERE n.personId < 5");
    assert_eq!(g.expect("deadline cleared").node_count(), 5);
}

/// The OPTIONAL left outer join polls the token as it probes, like the
/// inner join. The main clause here is cheap (a 62 500-row product,
/// timed first through a SELECT of its own) and the outer join dear:
/// the block shares no variable with it, so every one of its 250 rows
/// is compatible with every main row — 15.6 M rows. The budget is a few
/// times the measured main clause, so it runs out inside the outer
/// join, and the statement must come back soon after.
#[test]
fn deadline_interrupts_a_large_optional() {
    const MATCH: &str = "MATCH (a:Person), (b:Person)";
    let mut engine = Engine::new();
    let data = generate(&SnbConfig::scale(250), &engine.catalog().ids().clone());
    engine.register_graph("snb", data.graph);
    engine.set_default_graph("snb");

    let started = std::time::Instant::now();
    let rows = engine.query_table(&format!("SELECT COUNT(*) AS c {MATCH}"));
    assert!(rows.is_ok(), "the main clause alone is affordable");
    let budget = started.elapsed() * 3 + Duration::from_millis(5);

    engine.set_statement_deadline(Some(budget));
    let started = std::time::Instant::now();
    let err = engine
        .run(&format!("SELECT COUNT(*) AS c {MATCH} OPTIONAL (c:Person)"))
        .expect_err("the budget cannot cover a 15.6 M-row outer join");
    let elapsed = started.elapsed();
    assert!(err.is_cancelled(), "got {err}");
    assert!(
        elapsed < budget + Duration::from_millis(750),
        "the outer join ran {elapsed:?} past a {budget:?} deadline"
    );

    // The engine is not wedged: the next statement evaluates in full.
    engine.set_statement_deadline(None);
    let t = engine.query_table(
        "SELECT n.personId AS id MATCH (n:Person) WHERE n.personId < 5 \
         OPTIONAL (n)<-[:has_creator]-(msg:Post)",
    );
    assert!(t.expect("deadline cleared").len() >= 5);
}

/// The path searches poll the token with every product state they pop:
/// the two sweeps of a bound-pair test, the forward sweep and the
/// per-destination backward sweeps of an `ALL` pattern, the backward
/// cone a bound-target search over view segments computes before it
/// starts, and both level orderings of the ordered search — unit-cost
/// levels from every person, and the cone plus search towards the
/// targets a far-end filter resolves to. Each statement here spends
/// almost all of its time in one of them (thousands of knows edges, each
/// closed into a cycle by a path step, or a thousand sources), so a 5 ms
/// budget runs out there and the statement must come back soon after —
/// and neither the engine nor the snapshot's SCC cache may remember
/// anything of the abandoned searches.
#[test]
fn deadline_interrupts_the_path_sweeps() {
    const REACH: &str = "SELECT n.personId AS src, COUNT(*) AS reached \
         MATCH (n:Person)-/<:knows*>/->(m:Person) WHERE n.personId < 20 GROUP BY n.personId";
    let snb = || {
        let mut engine = Engine::new();
        let data = generate(&SnbConfig::scale(1000), &engine.catalog().ids().clone());
        engine.register_graph("snb", data.graph);
        engine.set_default_graph("snb");
        engine
    };
    let expected = snb()
        .query_table(REACH)
        .expect("no deadline")
        .rows()
        .to_vec();

    let mut engine = snb();
    for statement in [
        // No walk exists (tags know nobody), and neither side can tell
        // before it has swept every person.
        "SELECT COUNT(*) AS c \
         MATCH (p:Person)-[:knows]->(q:Person)-/<:knows* :hasInterest :knows*>/->(p)",
        "SELECT COUNT(*) AS c MATCH (p:Person)-[:knows]->(q:Person)-/ALL w <:knows*>/->(p)",
        "PATH k = (x)-[:knows]->(y) \
         SELECT COUNT(*) AS c MATCH (p:Person)-[:knows]->(q:Person)-/w <~k*>/->(p)",
        // Through the SCC cache: a half-run condensation must not be kept.
        "SELECT COUNT(*) AS c MATCH (p:Person)-/<:knows*>/->(q:Person)",
        // The ordered search, unit-cost levels, from every person.
        "SELECT COUNT(*) AS c MATCH (p:Person)-/3 SHORTEST w <:knows*>/->(q:Person)",
        // The ordered search towards the targets `q.personId = 7` resolves to.
        "SELECT COUNT(*) AS c MATCH (p:Person)-/3 SHORTEST w <:knows*>/->(q:Person) \
         WHERE q.personId = 7",
    ] {
        engine.set_statement_deadline(Some(Duration::from_millis(5)));
        let started = std::time::Instant::now();
        let err = engine
            .run(statement)
            .expect_err("a 5 ms budget cannot cover the path step");
        let elapsed = started.elapsed();
        assert!(err.is_cancelled(), "{statement}: got {err}");
        assert!(
            elapsed < Duration::from_millis(750),
            "{statement}: ran {elapsed:?} past a 5 ms deadline"
        );

        engine.set_statement_deadline(None);
        let after = engine.query_table(REACH).expect("deadline cleared");
        assert_eq!(after.rows(), &expected[..], "after cancelling {statement}");
    }
}

/// Cancelling mid-flight from another thread stops a statement that
/// would otherwise grind through an enormous cross product. The stride
/// bounds how much work a checkpoint may miss, so a prompt cancel must
/// come back well before the full product is enumerated.
#[test]
fn concurrent_cancel_interrupts_evaluation() {
    let mut engine = prepared_engine();
    let token = CancelToken::new();
    let mut executor = engine.executor();
    executor.set_cancel_token(token.clone());

    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            token.cancel();
        })
    };
    let err = executor
        .run(
            "SELECT COUNT(*) AS c \
             MATCH (a:Person), (b:Person), (c:Person), (d:Person), \
                   (e:Person), (f:Person), (g:Person), (h:Person)",
        )
        .expect_err("concurrent cancel must interrupt the product");
    assert!(err.is_cancelled(), "got {err}");
    canceller.join().unwrap();
    // Sanity on the constant the bound above relies on: checkpoints
    // poll at least once every CHECK_STRIDE iterations.
    assert!(CHECK_STRIDE.is_power_of_two());
}

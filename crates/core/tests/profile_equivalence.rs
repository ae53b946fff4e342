//! Profiling is pure *observation*: enabling it may never change any
//! result. This suite pins profiling-on ≡ profiling-off bit-identically
//! over the whole §3/§5 corpus and an SNB-1000 mix, in both planner
//! modes (it runs in the `GCORE_PLAN=off` CI job too), and checks that
//! every profiled statement yields a structurally well-formed profile.
//!
//! The profile's *counts* also guard MATCH against doing work twice
//! (`match_work_is_not_repeated`, `all_paths_share_one_forward_sweep`):
//! counts repeat exactly, timings do not.
//!
//! Outputs are compared canonically (see `common/mod.rs`, shared with
//! the planner, snapshot and cancellation suites).

mod common;

use common::{canon_result, corpus_texts, prepared_engine};
use gcore::obs::ProfileSpan;
use gcore::{Engine, QueryOutput, SemanticError};
use gcore_parser::ast::Statement;
use gcore_ppg::{Key, Label, StepDir, Value};
use gcore_snb::{generate, SnbConfig};

/// Run the whole §3/§5 corpus on a fresh tour engine and canonicalize
/// every statement's result (errors included): through `Engine::run`,
/// or profiled through `QueryExecutor::eval_profiled`, committing each
/// `GRAPH VIEW` the way `Engine::eval` does so later statements see it.
fn corpus_canon(profiling: bool) -> Vec<String> {
    let mut engine = prepared_engine();
    let watermark = engine.catalog().ids().peek();
    corpus_texts()
        .iter()
        .map(|t| {
            let out = if profiling {
                run_profiled(&mut engine, t)
            } else {
                engine.run(t)
            };
            canon_result(&out, watermark)
        })
        .collect()
}

/// [`Engine::run`] with a profile collected (and checked) on the way.
fn run_profiled(engine: &mut Engine, text: &str) -> gcore::Result<QueryOutput> {
    let stmt = gcore_parser::parse_statement(text)?;
    let (out, profile) = engine.executor().eval_profiled(&stmt)?;
    profile
        .validate()
        .unwrap_or_else(|e| panic!("{text}: malformed profile: {e}"));
    if let Statement::GraphView { name, .. } = &stmt {
        let Some(g) = out.clone().into_graph() else {
            return Err(SemanticError::GraphExpected(format!("GRAPH VIEW {name} AS (…)")).into());
        };
        engine.register_graph(name.clone(), g);
    }
    Ok(out)
}

/// Every profile span boundary sits on an existing evaluation boundary;
/// collecting a span tree must leave each corpus result bit-identical.
#[test]
fn corpus_with_profiling_matches_baseline() {
    let baseline = corpus_canon(false);
    let profiled = corpus_canon(true);
    for (i, (a, b)) in baseline.iter().zip(&profiled).enumerate() {
        assert_eq!(
            a,
            b,
            "corpus statement {i} ({}) diverged under profiling",
            gcore_repro::corpus::ALL[i].id
        );
    }
}

/// A mix over the SNB schema hitting every instrumented operator: label
/// scans, multi-pattern joins, WHERE filtering, unbounded reachability
/// (`knows*`), bound-pair reachability, shortest paths, and aggregation
/// over a reverse hub relation. Same mix as the cancellation suite —
/// spans and cancellation polls share their loop boundaries.
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

fn snb_engine() -> Engine {
    snb_engine_at(1000)
}

fn snb_engine_at(persons: usize) -> Engine {
    let mut engine = Engine::new();
    let data = generate(&SnbConfig::scale(persons), &engine.catalog().ids().clone());
    engine.register_graph("snb", data.graph);
    engine.set_default_graph("snb");
    engine
}

fn snb_canon(profiling: bool) -> Vec<String> {
    let mut engine = snb_engine();
    let watermark = engine.catalog().ids().peek();
    SNB_MIX
        .iter()
        .map(|t| {
            let out = if profiling {
                engine.profile(t).map(|(out, _)| out)
            } else {
                engine.run(t)
            };
            canon_result(&out, watermark)
        })
        .collect()
}

#[test]
fn snb_mix_with_profiling_matches_baseline() {
    let baseline = snb_canon(false);
    let profiled = snb_canon(true);
    for (i, (a, b)) in baseline.iter().zip(&profiled).enumerate() {
        assert_eq!(a, b, "SNB query {i} diverged under profiling");
    }
}

/// `Engine::profile` must return the same output `Engine::run` does,
/// plus a well-formed profile for every SNB mix statement.
#[test]
fn profile_returns_the_same_output_plus_a_wellformed_profile() {
    let mut plain = snb_engine();
    let mut profiled = snb_engine();
    let watermark = plain.catalog().ids().peek();
    for text in SNB_MIX {
        let via_run = canon_result(&plain.run(text), watermark);
        let (out, profile) = profiled.profile(text).expect(text);
        assert_eq!(via_run, canon_result(&Ok(out), watermark), "{text}");
        profile
            .validate()
            .unwrap_or_else(|e| panic!("{text}: malformed profile: {e}"));
        assert!(profile.span_count() > 0);
    }
}

/// Profiled evaluation feeds the engine's metrics registry: statement
/// counts always, misestimate counts whenever estimates diverge.
#[test]
fn profiled_statements_reach_the_metrics_registry() {
    let mut engine = snb_engine();
    for text in SNB_MIX {
        engine.profile(text).expect(text);
    }
    let snap = engine.metrics_registry().snapshot();
    let get = |name: &str| {
        snap.iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("metric '{name}' not registered"))
    };
    assert_eq!(get("statements"), SNB_MIX.len() as u64);
    assert_eq!(get("cancellations"), 0);
    // The mix contains multi-pattern clauses; the planner must have
    // done *something* observable across it.
    assert!(get("planner_reorders") + get("planner_pushdowns") > 0 || !planner_on());
}

fn planner_on() -> bool {
    !matches!(
        std::env::var("GCORE_PLAN").as_deref(),
        Ok("off") | Ok("0") | Ok("false")
    )
}

/// The first span tagged `op`, depth first.
fn find_span<'a>(spans: &'a [ProfileSpan], op: &str) -> Option<&'a ProfileSpan> {
    spans.iter().find_map(|s| {
        if s.op == op {
            Some(s)
        } else {
            find_span(&s.children, op)
        }
    })
}

/// MATCH does each piece of work once, whatever the size of the graph
/// around it. The trajectory's `optional_count` statement for ten
/// persons must evaluate its OPTIONAL pattern from those ten persons —
/// `pattern_rows` is the number of `has_creator` edges from posts into
/// exactly them, counted from the graph, at SNB-500 and SNB-2000 alike —
/// and its WHERE, whose two conjuncts the matcher applied while scanning
/// `n`, must not run again (no `where` span). A regression to matching
/// the OPTIONAL pattern in isolation would report every post of the
/// graph instead.
#[test]
fn match_work_is_not_repeated() {
    const LO: i64 = 40;
    const HI: i64 = 50;
    let text = format!(
        "SELECT n.personId AS id, COUNT(*) AS posts \
         MATCH (n:Person) WHERE n.personId >= {LO} AND n.personId < {HI} \
         OPTIONAL (n)<-[:has_creator]-(msg:Post) \
         GROUP BY n.personId"
    );
    for persons in [500, 2000] {
        let mut engine = snb_engine_at(persons);
        let graph = engine.graph("snb").expect("registered");
        let (post, has_creator) = (Label::new("Post"), Label::new("has_creator"));
        let all_posts = graph.nodes_with_label(post);
        let posts_of_the_ten = all_posts
            .iter()
            .flat_map(|&p| {
                let mut authors = Vec::new();
                graph.for_each_step(p, StepDir::Out, Some(has_creator), |_, a| authors.push(a));
                authors
            })
            .filter(|&author| {
                let id = graph.prop(author.into(), Key::new("personId"));
                matches!(id.as_singleton(), Some(&Value::Int(i)) if (LO..HI).contains(&i))
            })
            .count() as u64;
        assert!(posts_of_the_ten > 0 && posts_of_the_ten < all_posts.len() as u64 / 10);

        let (_, profile) = engine.profile(&text).expect("statement runs");
        let optional = find_span(&profile.spans, "optional").expect("an optional span");
        let pattern_rows = optional.counters.iter().find(|(k, _)| k == "pattern_rows");
        assert_eq!(
            pattern_rows.map(|&(_, v)| v),
            Some(posts_of_the_ten),
            "SNB-{persons}: {}",
            profile.render(true)
        );
        assert!(
            optional.detail.contains("[seeded n: 10 ids]"),
            "SNB-{persons}: {}",
            optional.detail
        );
        assert!(
            find_span(&profile.spans, "where").is_none(),
            "a fully scan-filtered WHERE ran again:\n{}",
            profile.render(true)
        );
    }
}

/// An `ALL` pattern with an unbound destination sweeps forward once per
/// source row, not once per destination. On a star — one source, a hub,
/// `LEAVES` leaves, every edge labelled `a` — the forward sweep of
/// `<:a :a>` pops the source, the hub and every leaf, and each leaf then
/// adds a backward sweep of three states (leaf, hub, source): `4·LEAVES +
/// 2` pops. Sweeping forward again for every destination is quadratic:
/// `(LEAVES + 1)·(LEAVES + 2)`.
#[test]
fn all_paths_share_one_forward_sweep() {
    const LEAVES: u64 = 50;
    let mut engine = Engine::new();
    let mut b = gcore_ppg::GraphBuilder::new(engine.catalog().ids().clone());
    let src = b.node(gcore_ppg::Attributes::labeled("Src"));
    let hub = b.node(gcore_ppg::Attributes::new());
    b.edge(src, hub, gcore_ppg::Attributes::labeled("a"));
    for _ in 0..LEAVES {
        let leaf = b.node(gcore_ppg::Attributes::new());
        b.edge(hub, leaf, gcore_ppg::Attributes::labeled("a"));
    }
    engine.register_graph("star", b.build());
    engine.set_default_graph("star");

    let (out, profile) = engine
        .profile("SELECT m MATCH (n:Src)-/ALL p <:a :a>/->(m)")
        .expect("statement runs");
    assert_eq!(out.into_table().expect("a table").len() as u64, LEAVES);
    let search = find_span(&profile.spans, "path-search").expect("a path-search span");
    let pops = search.counters.iter().find(|(k, _)| k == "frontier_pops");
    assert!(
        pops.is_some_and(|&(_, v)| v <= 4 * LEAVES + 2),
        "{}",
        profile.render(true)
    );
}

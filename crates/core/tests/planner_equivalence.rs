//! Differential planner suite: the cost-based planner (join reordering,
//! IN-conjunct pushdown) is a pure
//! optimization — every query must return exactly the same output with
//! it on or off, and under *arbitrary* graph statistics (statistics
//! steer cost estimates, never semantics).
//!
//! Outputs are compared canonically (see `common/mod.rs`, shared with
//! the snapshot and cold-start suites): identifiers skolemized above the
//! engine's generator watermark are renumbered by rank, so structurally
//! identical outputs compare equal even though two engines draw fresh
//! ids independently.

mod common;

use common::{canon_result, corpus_texts};
use gcore::Engine;
use gcore_ppg::{EdgeLabelStats, GraphStats, PathPropertyGraph, PropStats};
use gcore_snb::{figure2, generate, social_dataset, SnbConfig};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Engine fixtures
// ---------------------------------------------------------------------

/// The guided-tour engine with the planner pinned *before* any
/// statement runs, so the two corpus `GRAPH VIEW` definitions are also
/// built under the configuration being differenced.
fn tour_engine(planner: bool) -> Engine {
    let mut engine = Engine::new();
    engine.set_planner(planner);
    let ids = engine.catalog().ids().clone();
    let d = social_dataset(&ids);
    let fig2 = figure2(&ids);
    engine.register_graph("social_graph", d.social_graph);
    engine.register_graph("company_graph", d.company_graph);
    engine.register_graph("figure2", fig2);
    engine.register_table("orders", d.orders);
    engine.set_default_graph("social_graph");
    engine
}

/// Run the whole §3/§5 corpus on a fresh tour engine and canonicalize
/// every statement's result (errors included — a query that fails must
/// fail identically under every configuration).
fn corpus_canon(planner: bool) -> Vec<String> {
    let mut engine = tour_engine(planner);
    let watermark = engine.catalog().ids().peek();
    corpus_texts()
        .iter()
        .map(|t| canon_result(&engine.run(t), watermark))
        .collect()
}

// ---------------------------------------------------------------------
// Corpus: planner on ≡ off
// ---------------------------------------------------------------------

#[test]
fn corpus_planner_on_matches_off() {
    let off = corpus_canon(false);
    let on = corpus_canon(true);
    for (i, (a, b)) in off.iter().zip(&on).enumerate() {
        assert_eq!(
            a,
            b,
            "corpus statement {i} ({}) diverged with the planner on",
            gcore_repro::corpus::ALL[i].id
        );
    }
}

// ---------------------------------------------------------------------
// SNB: planner on ≡ off on a generated network
// ---------------------------------------------------------------------

/// A 16-query mix exercising every planned shape on the SNB schema:
/// the benchmark suite's matching shapes (scans, hops, value joins,
/// optionals), equi-joins the planner reorders, IN conjuncts it pushes
/// into patterns, and bound-pair path reachability.
const SNB_QUERIES: &[&str] = &[
    // The benchmark suite's matching shapes.
    "CONSTRUCT (n) MATCH (n:Person) WHERE n.personId < 50",
    "CONSTRUCT (n)-[e]->(m) MATCH (n:Person)-[e:knows]->(m:Person) \
     WHERE n.personId < 50",
    "CONSTRUCT (n)-[:fof]->(k) \
     MATCH (n:Person)-[:knows]->(m:Person)-[:knows]->(k:Person) \
     WHERE n.personId < 10",
    "CONSTRUCT (a)-[:colleague]->(b) \
     MATCH (a:Person {employer = e}), (b:Person) \
     WHERE e IN b.employer AND a.personId < 20",
    "CONSTRUCT (n) SET n.msgs := COUNT(*) \
     MATCH (n:Person) \
     OPTIONAL (n)<-[:has_creator]-(msg:Post) \
     WHERE n.personId < 100",
    "CONSTRUCT (n) MATCH (n:Person) \
     WHERE (n)-[:hasInterest]->(:Tag {name = 'Wagner'}) \
       AND n.personId < 200",
    // Pessimal syntactic order: the broad pattern first, the selective
    // one last — the planner reorders, results must not move.
    "CONSTRUCT (b)<-[:sameEmployer]-(a) \
     MATCH (b:Person), (a:Person {employer = e}) \
     WHERE e IN b.employer AND a.personId < 20",
    "SELECT t.name, COUNT(*) AS fans \
     MATCH (p:Person)-[:hasInterest]->(t:Tag) \
     GROUP BY t.name",
    // Existential subquery on top of a planned main clause.
    "CONSTRUCT (p) MATCH (p:Person) \
     WHERE p.personId < 60 AND EXISTS ( CONSTRUCT () \
       MATCH (p)-[:knows]->(q:Person) WHERE q.employer = p.employer )",
    "CONSTRUCT (c)<-[:electorate]-(p) \
     MATCH (c:City), (p:Person) \
     WHERE (p)-[:isLocatedIn]->(c) AND p.personId < 120",
    // Multi-pattern join with a pessimal syntactic order (broad knows
    // fan-out first, selective city filter last).
    "SELECT p.firstName, q.firstName \
     MATCH (p:Person)-[:knows]->(q:Person), (q)-[:isLocatedIn]->(c:City) \
     WHERE c.name = 'Arnhem'",
    // Value join between disconnected patterns.
    "SELECT p.firstName, t.name \
     MATCH (p:Person), (t:Tag) \
     WHERE t.name IN p.speaks",
    // Path join between reachability and co-location patterns.
    "CONSTRUCT (p)-[:sameCity]->(q) \
     MATCH (p:Person)-/<:knows*>/->(q:Person), \
           (p)-[:isLocatedIn]->(c:City)<-[:isLocatedIn]-(q) \
     WHERE p.personId < 25 AND q.personId < 40",
    // Bound-destination path step: the chain binds q before the knows*
    // step back to p, so the matcher evaluates src→dst pairs.
    "SELECT p.personId, q.personId \
     MATCH (p:Person)-[:knows]->(q:Person)-/<:knows*>/->(p) \
     WHERE p.personId < 40",
    // Reverse-direction step over the hub relation (fan-in ≫ fan-out).
    "SELECT c.name, COUNT(*) AS people \
     MATCH (c:City)<-[:isLocatedIn]-(p:Person) \
     GROUP BY c.name",
    // Shortest-path matching with a stored-path CONSTRUCT.
    "CONSTRUCT (p)-/@sp/->(q) \
     MATCH (p:Person)-/3 SHORTEST sp <:knows*>/->(q:Person) \
     WHERE p.firstName = 'Mahinda'",
    // Optional blocks on top of a planned main clause.
    "SELECT p.firstName, c.name \
     MATCH (p:Person), (c:City) \
     WHERE (p)-[:isLocatedIn]->(c) \
     OPTIONAL (p)-[:hasInterest]->(t:Tag)",
];

fn snb_canon(planner: bool, persons: usize) -> Vec<String> {
    let mut engine = Engine::new();
    engine.set_planner(planner);
    let data = generate(&SnbConfig::scale(persons), &engine.catalog().ids().clone());
    engine.register_graph("snb", data.graph);
    engine.set_default_graph("snb");
    let watermark = engine.catalog().ids().peek();
    SNB_QUERIES
        .iter()
        .map(|t| canon_result(&engine.run(t), watermark))
        .collect()
}

#[test]
fn snb_planner_on_matches_off() {
    let off = snb_canon(false, 1000);
    let on = snb_canon(true, 1000);
    for (i, (a, b)) in off.iter().zip(&on).enumerate() {
        assert_eq!(a, b, "SNB query {i} diverged with the planner on");
    }
}

// ---------------------------------------------------------------------
// Bidirectional pair reachability ≡ membership in the forward set
// ---------------------------------------------------------------------

/// On a graph large enough for the two frontiers to meet in the middle,
/// the single-pair test must agree with the unidirectional search on
/// every (src, dst, regex).
#[test]
fn pair_matches_forward_reachability() {
    use gcore::paths::{PathSearcher, ViewMap};
    use gcore::regex::Nfa;
    use gcore_parser::ast::Regex;

    let engine = Engine::new();
    let data = generate(&SnbConfig::scale(200), &engine.catalog().ids().clone());
    let graph = data.graph;
    let views = ViewMap::default();
    let regexes = [
        Regex::Star(Box::new(Regex::Label("knows".into()))),
        Regex::Label("isLocatedIn".into()),
        Regex::LabelInv("isLocatedIn".into()),
        Regex::Concat(vec![
            Regex::Star(Box::new(Regex::Label("knows".into()))),
            Regex::Label("isLocatedIn".into()),
        ]),
        Regex::Alt(vec![
            Regex::Label("hasInterest".into()),
            Regex::Concat(vec![
                Regex::Label("knows".into()),
                Regex::Label("hasInterest".into()),
            ]),
        ]),
        Regex::Opt(Box::new(Regex::Wildcard)),
    ];
    let mut nodes: Vec<_> = graph.node_ids().collect();
    nodes.sort_unstable();
    // A deterministic sample of pairs: striding keeps the test fast but
    // mixes persons, cities and tags on both sides.
    let sample: Vec<_> = nodes.iter().step_by(37).copied().collect();
    for regex in &regexes {
        let nfa = Nfa::compile(regex);
        let searcher = PathSearcher::new(&graph, &nfa, &views);
        for &src in &sample {
            let reach = searcher.reachable(src).unwrap();
            for &dst in &sample {
                assert_eq!(
                    searcher.reachable_pair(src, dst).unwrap(),
                    reach.binary_search(&dst).is_ok(),
                    "pair test disagrees on {src:?} → {dst:?} via {regex:?}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Arbitrary statistics never change results
// ---------------------------------------------------------------------

/// Overwrite a graph's statistics with arbitrary (but count-consistent)
/// numbers: every label row, relation sketch and property sketch is
/// replaced by values drawn from `vals`, cycled. `set_stats` keeps the
/// payload because the element counts still match the graph.
fn scramble_stats(g: &mut PathPropertyGraph, vals: &[u64]) {
    g.build_label_index();
    let mut s: GraphStats = g.stats().expect("just built").clone();
    let mut i = 0usize;
    let mut next = || {
        let v = vals[i % vals.len()];
        i += 1;
        v
    };
    for (_, count) in &mut s.nodes_per_label {
        *count = next();
    }
    for (_, e) in &mut s.edges_per_label {
        *e = EdgeLabelStats {
            count: next(),
            distinct_src: next(),
            distinct_dst: next(),
        };
    }
    for (_, p) in s.node_props.iter_mut().chain(s.edge_props.iter_mut()) {
        *p = PropStats {
            carriers: next(),
            values: next(),
            distinct: next(),
        };
    }
    g.set_stats(s);
}

/// [`corpus_canon`] over an engine whose input graphs carry scrambled
/// statistics.
fn scrambled_canon(vals: &[u64]) -> Vec<String> {
    let mut engine = Engine::new();
    engine.set_planner(true);
    let ids = engine.catalog().ids().clone();
    let mut d = social_dataset(&ids);
    let mut fig2 = figure2(&ids);
    scramble_stats(&mut d.social_graph, vals);
    scramble_stats(&mut d.company_graph, vals);
    scramble_stats(&mut fig2, vals);
    engine.register_graph("social_graph", d.social_graph);
    engine.register_graph("company_graph", d.company_graph);
    engine.register_graph("figure2", fig2);
    engine.register_table("orders", d.orders);
    engine.set_default_graph("social_graph");
    let watermark = engine.catalog().ids().peek();
    corpus_texts()
        .iter()
        .map(|t| canon_result(&engine.run(t), watermark))
        .collect()
}

/// Number of randomized-statistics cases; pin with `PROPTEST_CASES` (CI
/// does) — the vendored proptest is seed-deterministic either way.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(16)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Statistics are advisory: whatever cardinalities the planner is
    /// fed — zeros, ones, astronomically wrong counts — the corpus
    /// results must match the planner-off reference bit for bit.
    #[test]
    fn arbitrary_stats_never_change_results(
        vals in prop::collection::vec(0u64..1_000_000_000, 8..32),
    ) {
        let reference = corpus_canon(false);
        let scrambled = scrambled_canon(&vals);
        for (i, (a, b)) in reference.iter().zip(&scrambled).enumerate() {
            prop_assert_eq!(
                a, b,
                "corpus statement {} ({}) diverged under scrambled statistics",
                i, gcore_repro::corpus::ALL[i].id
            );
        }
    }
}

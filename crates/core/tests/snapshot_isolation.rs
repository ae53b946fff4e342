//! Snapshot-isolation guarantees: executors pin the committed state of
//! their epoch, catalog writes bump the observable epoch without
//! disturbing in-flight readers, frozen snapshots never run on
//! invalidated label indexes, and the per-snapshot SCC-condensation
//! and PATH-view caches are reused within — and only within — one
//! snapshot, both by definition and never past a failure.

use gcore::snapshot::VIEW_CACHE_CAPACITY;
use gcore::{Engine, EngineError, QueryExecutor, RuntimeError};
use gcore_ppg::{Attributes, GraphBuilder, Label};

/// Ann–knows→Bob–knows→Eve.
fn engine_with_people() -> Engine {
    let mut engine = Engine::new();
    let mut b = GraphBuilder::new(engine.catalog().ids().clone());
    let ann = b.node(Attributes::labeled("Person").with_prop("name", "Ann"));
    let bob = b.node(Attributes::labeled("Person").with_prop("name", "Bob"));
    let eve = b.node(Attributes::labeled("Person").with_prop("name", "Eve"));
    b.edge(ann, bob, Attributes::labeled("knows"));
    b.edge(bob, eve, Attributes::labeled("knows"));
    engine.register_graph("people", b.build());
    engine.set_default_graph("people");
    engine
}

fn names(exec: &QueryExecutor) -> Vec<String> {
    let t = exec
        .query_table("SELECT n.name AS name MATCH (n:Person)")
        .unwrap();
    let mut v: Vec<String> = t.rows().iter().map(|r| format!("{:?}", r[0])).collect();
    v.sort();
    v
}

// ---------------------------------------------------------------------
// Isolation under mid-flight catalog mutation
// ---------------------------------------------------------------------

#[test]
fn register_overwrite_does_not_leak_into_old_snapshot() {
    let mut engine = engine_with_people();
    let old = engine.executor();
    let before = names(&old);
    assert_eq!(before.len(), 3);

    // Overwrite the default graph with completely different content.
    let mut b = GraphBuilder::new(engine.catalog().ids().clone());
    b.node(Attributes::labeled("Person").with_prop("name", "Zed"));
    engine.register_graph("people", b.build());

    // The old executor keeps answering from its snapshot…
    assert_eq!(names(&old), before);
    // …while a fresh one sees the overwrite.
    let new = engine.executor();
    assert_eq!(names(&new), vec!["Str(\"Zed\")"]);
    assert!(new.epoch() > old.epoch());
}

#[test]
fn construct_into_catalog_is_invisible_to_old_snapshot() {
    let mut engine = engine_with_people();
    let old = engine.executor();
    let e0 = engine.snapshot_epoch();

    // CONSTRUCT-into-catalog: a committed GRAPH VIEW.
    engine
        .run("GRAPH VIEW bobless AS (CONSTRUCT (n) MATCH (n) WHERE n.name != 'Bob')")
        .unwrap();
    assert!(engine.snapshot_epoch() > e0, "view commit bumps the epoch");

    // The old snapshot cannot resolve the view; a new one can.
    assert!(old
        .query_graph("CONSTRUCT (n) MATCH (n) ON bobless")
        .is_err());
    let new = engine.executor();
    let g = new
        .query_graph("CONSTRUCT (n) MATCH (n) ON bobless")
        .unwrap();
    assert_eq!(g.node_count(), 2);

    // And the old snapshot's own results are unchanged by the commit.
    assert_eq!(names(&old).len(), 3);
}

#[test]
fn epoch_is_monotone_across_write_kinds() {
    let mut engine = Engine::new();
    let mut seen = vec![engine.snapshot_epoch()];
    engine.register_graph("g", gcore_ppg::PathPropertyGraph::new());
    seen.push(engine.snapshot_epoch());
    engine.set_default_graph("g");
    seen.push(engine.snapshot_epoch());
    engine.register_table("t", gcore_ppg::Table::new(vec!["a"]).unwrap());
    seen.push(engine.snapshot_epoch());
    engine.catalog_mut(); // mutable access counts as a write
    seen.push(engine.snapshot_epoch());
    engine
        .run("GRAPH VIEW v AS (CONSTRUCT (n) MATCH (n))")
        .unwrap();
    seen.push(engine.snapshot_epoch());
    assert!(seen.windows(2).all(|w| w[0] < w[1]), "epochs: {seen:?}");
}

// ---------------------------------------------------------------------
// Label-index freeze: snapshots never run on the scan fallback
// ---------------------------------------------------------------------

#[test]
fn snapshot_freezes_label_indexes_after_mutation() {
    let mut engine = engine_with_people();

    // Mutate a registered graph out-of-band: clone it, add a node —
    // the clone's index is dropped by the mutation — and put it back
    // through the raw catalog handle.
    let mutated = {
        let g = engine.graph("people").unwrap();
        let mut g = (*g).clone();
        assert!(g.has_label_index());
        g.add_node(
            engine.catalog().ids().node(),
            Attributes::labeled("Person").with_prop("name", "Noa"),
        );
        assert!(!g.has_label_index(), "mutation must invalidate the index");
        g
    };
    engine.catalog_mut().register_graph("people", mutated);

    // Re-registering rebuilt the index and the statistics, so the
    // frozen snapshot serves them (no silent fallback to scanning).
    let snap = engine.snapshot();
    let g = snap.catalog().graph("people").unwrap();
    assert!(g.has_label_index() && g.stats().is_some());
    let person = Label::lookup("Person").unwrap();
    assert_eq!(g.nodes_with_label(person).len(), 4);

    // Queries through the snapshot see the mutation at indexed speed.
    let exec = engine.executor();
    assert_eq!(names(&exec).len(), 4);
}

#[test]
fn snapshot_freeze_edge_cases_empty_and_single_label() {
    let mut engine = Engine::new();
    engine.register_graph("empty", gcore_ppg::PathPropertyGraph::new());
    let mut single = gcore_ppg::PathPropertyGraph::new();
    single.add_node(engine.catalog().ids().node(), Attributes::labeled("Only"));
    engine.catalog_mut().register_graph("single", single);
    engine.set_default_graph("single");

    let snap = engine.snapshot();
    for name in ["empty", "single"] {
        let g = snap.catalog().graph(name).unwrap();
        assert!(g.has_label_index() && g.stats().is_some(), "{name}");
    }
    let empty = snap.catalog().graph("empty").unwrap();
    assert!(empty.has_label_index());
    assert!(empty.nodes_with_label(Label::new("anything")).is_empty());

    let exec = engine.executor();
    let g = exec.query_graph("CONSTRUCT (n) MATCH (n:Only)").unwrap();
    assert_eq!(g.node_count(), 1);
    let g = exec
        .query_graph("CONSTRUCT (n) MATCH (n:Person) ON empty")
        .unwrap();
    assert_eq!(g.node_count(), 0);
}

// ---------------------------------------------------------------------
// SCC-condensation cache: reuse within a snapshot, never across
// ---------------------------------------------------------------------

const REACH: &str = "CONSTRUCT (m) MATCH (n:Person)-/<:knows*>/->(m) WHERE n.name = 'Ann'";
const REACH_ONE: &str = "CONSTRUCT (m) MATCH (n:Person)-/<:knows>/->(m) WHERE n.name = 'Ann'";

#[test]
fn same_snapshot_reuses_condensation() {
    let mut engine = engine_with_people();
    let exec = engine.executor();

    let g1 = exec.query_graph(REACH).unwrap();
    assert_eq!(g1.node_count(), 3); // knows* reaches Ann herself too
    let (h0, m0, _) = exec.snapshot().scc_cache_stats();
    assert_eq!(h0, 0, "first condensation cannot hit");
    assert!(m0 > 0, "first condensation must populate the cache");

    // The same reachability query again, on the same snapshot: the
    // source's destination set is served from the cache.
    let g2 = exec.query_graph(REACH).unwrap();
    assert_eq!(g1, g2);
    let (h1, m1, _) = exec.snapshot().scc_cache_stats();
    assert!(h1 > h0, "repeat query must hit the condensation cache");
    assert_eq!(m1, m0, "repeat query must not re-condense");
}

#[test]
fn distinct_nfa_misses_even_on_same_snapshot() {
    let mut engine = engine_with_people();
    let exec = engine.executor();

    exec.query_graph(REACH).unwrap();
    let (_, m0, _) = exec.snapshot().scc_cache_stats();

    // A single :knows hop is a structurally different automaton: same
    // graph, same source, but its closure is cached under its own key.
    let g = exec.query_graph(REACH_ONE).unwrap();
    assert_eq!(g.node_count(), 1); // exactly Bob — no star, no empty walk
    let (h1, m1, _) = exec.snapshot().scc_cache_stats();
    assert!(m1 > m0, "distinct NFA must miss");
    assert_eq!(h1, 0);
}

#[test]
fn epoch_bump_starts_a_fresh_cache() {
    let mut engine = engine_with_people();
    let old = engine.executor();
    old.query_graph(REACH).unwrap();
    old.query_graph(REACH).unwrap();
    let (old_hits, old_misses, _) = old.snapshot().scc_cache_stats();
    assert!(old_hits > 0 && old_misses > 0);

    // Any committed write bumps the epoch; the next snapshot carries an
    // empty cache (cross-snapshot reuse would serve stale reachability).
    let mut b = GraphBuilder::new(engine.catalog().ids().clone());
    let zed = b.node(Attributes::labeled("Person").with_prop("name", "Ann"));
    let yan = b.node(Attributes::labeled("Person").with_prop("name", "Yan"));
    b.edge(zed, yan, Attributes::labeled("knows"));
    engine.register_graph("people", b.build());

    let new = engine.executor();
    assert!(new.epoch() > old.epoch());
    assert_eq!(new.snapshot().scc_cache_stats(), (0, 0, 0));
    let g = new.query_graph(REACH).unwrap();
    assert_eq!(g.node_count(), 2); // the new Ann reaches herself and Yan
    let (h, m, _) = new.snapshot().scc_cache_stats();
    assert_eq!(h, 0, "nothing from the old snapshot may be reused");
    assert!(m > 0);

    // The old snapshot still answers from its own frozen state + cache.
    let g = old.query_graph(REACH).unwrap();
    assert_eq!(g.node_count(), 3);
}

// ---------------------------------------------------------------------
// PATH-view cache: one segment relation per snapshot and definition
// ---------------------------------------------------------------------

/// Ann's cheapest walk to each person over `w`, whose every edge costs
/// `cost`.
fn weighted(cost: &str) -> String {
    format!(
        "PATH w = (x)-[e:knows]->(y) COST {cost} \
         SELECT m.name AS m, c AS c MATCH (n:Person)-/p <~w*> COST c/->(m:Person) \
         WHERE n.name = 'Ann' ORDER BY m"
    )
}

fn rows(exec: &QueryExecutor, statement: &str) -> Vec<String> {
    let t = exec.query_table(statement).unwrap();
    t.rows().iter().map(|r| format!("{r:?}")).collect()
}

#[test]
fn same_view_definition_is_built_once_per_snapshot() {
    let mut engine = engine_with_people();
    let exec = engine.executor();
    let first = rows(&exec, &weighted("2"));
    assert_eq!(first.len(), 3, "Ann, Bob and Eve: {first:?}");
    assert_eq!(exec.snapshot().view_cache_stats(), (0, 1, 0));

    // The same definition in a new statement (another position in the
    // text, even) is served from the snapshot, with the same answer.
    let again = format!("  {}", weighted("2"));
    assert_eq!(rows(&exec, &again), first);
    assert_eq!(rows(&exec, &weighted("2")), first);
    assert_eq!(exec.snapshot().view_cache_stats(), (2, 1, 0));
}

#[test]
fn same_view_name_with_another_cost_misses() {
    let mut engine = engine_with_people();
    let exec = engine.executor();
    let two = rows(&exec, &weighted("2"));
    let three = rows(&exec, &weighted("3"));
    assert_ne!(two, three, "COST 3 must not be served COST 2's segments");
    let eve_at_six = r#"[Str("Eve"), Float(6.0)]"#;
    assert_eq!(three.last().map(String::as_str), Some(eve_at_six));
    assert_eq!(exec.snapshot().view_cache_stats(), (0, 2, 0));
    assert_eq!(rows(&exec, &weighted("2")), two);
    assert_eq!(exec.snapshot().view_cache_stats(), (1, 2, 0));
}

#[test]
fn graph_view_commit_starts_a_fresh_view_cache() {
    let mut engine = engine_with_people();
    let old = engine.executor();
    let before = rows(&old, &weighted("2"));
    rows(&old, &weighted("2"));
    assert_eq!(old.snapshot().view_cache_stats(), (1, 1, 0));

    engine
        .run("GRAPH VIEW people_again AS (CONSTRUCT (n) MATCH (n:Person))")
        .unwrap();
    let new = engine.executor();
    assert!(new.epoch() > old.epoch());
    assert_eq!(new.snapshot().view_cache_stats(), (0, 0, 0));
    assert_eq!(rows(&new, &weighted("2")), before);
    assert_eq!(new.snapshot().view_cache_stats(), (0, 1, 0));
    assert_eq!(old.snapshot().view_cache_stats(), (1, 1, 0));
}

#[test]
fn failed_view_build_is_not_cached() {
    let mut engine = engine_with_people();
    let exec = engine.executor();
    for attempt in 1..=2 {
        let err = exec.query_table(&weighted("0")).unwrap_err();
        assert!(
            matches!(
                err,
                EngineError::Runtime(RuntimeError::NonPositiveCost { .. })
            ),
            "attempt {attempt}: {err:?}"
        );
        assert_eq!(exec.snapshot().view_cache_stats(), (0, attempt, 0));
    }
}

#[test]
fn views_that_can_read_statement_local_graphs_are_never_cached() {
    let mut engine = engine_with_people();
    let exec = engine.executor();
    let statements = [
        // Over a graph the snapshot does not hold.
        "PATH w = (x)-[e:knows]->(y) SELECT COUNT(*) AS c \
         MATCH (n:Person)-/<~w*>/->(m) ON (CONSTRUCT (a)-[e]->(b) MATCH (a)-[e:knows]->(b)) \
         WHERE n.name = 'Ann'",
        // A WHERE with a subquery.
        "PATH w = (x)-[e:knows]->(y) WHERE EXISTS (CONSTRUCT (z) MATCH (z:Person) WHERE z.name = 'Eve') \
         SELECT COUNT(*) AS c MATCH (n:Person)-/<~w*>/->(m) WHERE n.name = 'Ann'",
        // A pattern predicate in COST.
        "PATH w = (x)-[e:knows]->(y) COST CASE WHEN (y)-[:knows]->() THEN 1 ELSE 2 END \
         SELECT COUNT(*) AS c MATCH (n:Person)-/<~w*>/->(m) WHERE n.name = 'Ann'",
    ];
    for statement in statements {
        for _ in 0..2 {
            assert_eq!(rows(&exec, statement), ["[Int(3)]"], "{statement}");
        }
    }
    assert_eq!(exec.snapshot().view_cache_stats(), (0, 0, 0));
    assert_eq!(exec.snapshot().scc_cache_stats(), (0, 0, 0));
}

// ---------------------------------------------------------------------
// Both caches, one rule: view-bearing reachability keyed by definition
// ---------------------------------------------------------------------

/// How many people Ann reaches over `w`, a PATH view with `where_` as
/// its WHERE (empty for none).
fn view_reach(where_: &str) -> String {
    format!(
        "PATH w = (x)-[e:knows]->(y) {where_} \
         SELECT COUNT(*) AS c MATCH (n:Person)-/<~w*>/->(m) WHERE n.name = 'Ann'"
    )
}

#[test]
fn view_bearing_reachability_is_served_from_the_closure_cache() {
    let mut engine = engine_with_people();
    let exec = engine.executor();
    let first = rows(&exec, &view_reach(""));
    assert_eq!(first, ["[Int(3)]"], "Ann, Bob and Eve");
    let (h0, m0, _) = exec.snapshot().scc_cache_stats();
    assert_eq!(h0, 0, "first condensation cannot hit");
    assert!(m0 > 0, "first condensation must populate the cache");

    assert_eq!(rows(&exec, &view_reach("")), first);
    let (h1, m1, _) = exec.snapshot().scc_cache_stats();
    assert!(h1 > h0, "repeat query must hit the closure cache");
    assert_eq!(m1, m0, "repeat query must not re-condense");
    assert_eq!(exec.snapshot().view_cache_stats(), (1, 1, 0));
}

#[test]
fn same_view_name_with_another_where_misses_the_closure_cache() {
    let mut engine = engine_with_people();
    let exec = engine.executor();
    assert_eq!(rows(&exec, &view_reach("")), ["[Int(3)]"]);
    let (h0, m0, _) = exec.snapshot().scc_cache_stats();

    // `w` now stops at Bob's outgoing edge: Ann reaches herself and Bob.
    let narrowed = view_reach("WHERE x.name = 'Ann'");
    assert_eq!(rows(&exec, &narrowed), ["[Int(2)]"]);
    let (h1, m1, _) = exec.snapshot().scc_cache_stats();
    assert_eq!(h1, h0, "another definition of `w` must not hit");
    assert!(m1 > m0, "another definition of `w` must miss");

    // Both definitions stay resident under their own keys.
    assert_eq!(rows(&exec, &view_reach("")), ["[Int(3)]"]);
    assert_eq!(rows(&exec, &narrowed), ["[Int(2)]"]);
    let (h2, m2, _) = exec.snapshot().scc_cache_stats();
    assert!(h2 > h1);
    assert_eq!(m2, m1);
}

#[test]
fn view_cache_lru_bound_evicts() {
    let mut engine = engine_with_people();
    let exec = engine.executor();
    let cost = |i: usize| (i + 1).to_string();
    for i in 0..=VIEW_CACHE_CAPACITY {
        rows(&exec, &weighted(&cost(i)));
    }
    let live = VIEW_CACHE_CAPACITY as u64;
    assert_eq!(exec.snapshot().view_cache_stats(), (0, live + 1, 1));
    // The most recent definition is resident, the first was evicted.
    rows(&exec, &weighted(&cost(VIEW_CACHE_CAPACITY)));
    assert_eq!(exec.snapshot().view_cache_stats(), (1, live + 1, 1));
    rows(&exec, &weighted(&cost(0)));
    assert_eq!(exec.snapshot().view_cache_stats(), (1, live + 2, 2));
}

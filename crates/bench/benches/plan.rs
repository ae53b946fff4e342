//! Planner cost/benefit: the same queries evaluated with the cost-based
//! planner on vs off (syntactic order), at SNB scales 1000 and 4000.
//!
//! `value_join` is the headline case from the ROADMAP: its two patterns
//! share no structural variable, so syntactic evaluation builds the
//! full cross product and filters `e IN b.employer` afterwards, while
//! the planner pushes the IN conjunct into the second pattern (turning
//! it into a binding form) and joins on `e`. `value_join_pessimal`
//! additionally writes the broad pattern first, so the planner must
//! also reorder. `two_hop_wide` and `reach_many` are the wide-join and
//! multi-source-reachability statements the repo benchmark's
//! `wide_par_1c` workload runs end to end (`trajectory/`, which checks
//! the literals here have not drifted).
//!
//! Results are identical under every configuration — pinned by
//! `crates/core/tests/planner_equivalence.rs`.

use criterion::{criterion_group, criterion_main, Criterion};
use gcore_bench::snb_engine;
use std::hint::black_box;

/// The benchmark suite's value join (matching.rs), selective pattern
/// written first.
const VALUE_JOIN: &str = "CONSTRUCT (a)-[:colleague]->(b) \
     MATCH (a:Person {employer = e}), (b:Person) \
     WHERE e IN b.employer AND a.personId < 40";

/// The same join with a pessimal syntactic order: the broad unfiltered
/// pattern first, the selective binding pattern last.
const VALUE_JOIN_PESSIMAL: &str = "CONSTRUCT (b)<-[:colleague]-(a) \
     MATCH (b:Person), (a:Person {employer = e}) \
     WHERE e IN b.employer AND a.personId < 40";

/// Wide two-hop join: every knows edge on the probe side.
const TWO_HOP_WIDE: &str = "CONSTRUCT (n)-[:fof]->(k) \
     MATCH (n:Person)-[:knows]->(m:Person), (m)-[:knows]->(k:Person)";

/// Multi-source reachability: 500 sources sharing one frontier search.
const REACH_MANY: &str = "CONSTRUCT (m) \
     MATCH (n:Person)-/<:knows*>/->(m:Person) WHERE n.personId < 500";

fn bench_plan(c: &mut Criterion, persons: usize) {
    let mut engine = snb_engine(persons);
    let mut g = c.benchmark_group(format!("plan_snb{persons}"));
    g.sample_size(10);

    for (name, query) in [
        ("value_join", VALUE_JOIN),
        ("value_join_pessimal", VALUE_JOIN_PESSIMAL),
    ] {
        for (mode, planner) in [("syntactic", false), ("planned", true)] {
            engine.set_planner(planner);
            g.bench_function(format!("{name}_{mode}"), |b| {
                b.iter(|| black_box(engine.query_graph(query).unwrap()))
            });
        }
    }

    // Scale 1000 only: one two_hop_wide iteration at SNB-4000 costs
    // several seconds without adding signal.
    if persons <= 1000 {
        engine.set_planner(true);
        for (name, query) in [("two_hop_wide", TWO_HOP_WIDE), ("reach_many", REACH_MANY)] {
            g.bench_function(name, |b| {
                b.iter(|| black_box(engine.query_graph(query).unwrap()))
            });
        }
    }
    g.finish();
}

fn bench_scales(c: &mut Criterion) {
    bench_plan(c, 1000);
    bench_plan(c, 4000);
}

criterion_group!(benches, bench_scales);
criterion_main!(benches);

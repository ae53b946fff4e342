//! CONSTRUCT cost (§A.3): identity reuse, skolemization, grouping,
//! aggregation and SET, at a fixed SNB scale.
//!
//! `skolem_edges_wide` and `identity_many_rows` are the two statements
//! of the repo benchmark's `wide_par_1c` workload (`two_hop_wide` and
//! `reach_many` of `plan.rs`), kept here under the names of what they
//! cost CONSTRUCT: tens of thousands of minted edges from hundreds of
//! thousands of rows, and half a million rows collapsing onto a thousand
//! identities. Both were quadratic / per-row-map bound before staging
//! went linear; `crates/core/tests/construct_scaling.rs` guards the
//! growth rate, these record the absolute cost.

use criterion::{criterion_group, criterion_main, Criterion};
use gcore_bench::snb_engine;
use std::hint::black_box;

fn bench_construct(c: &mut Criterion) {
    let mut engine = snb_engine(1000);
    let mut g = c.benchmark_group("construct");
    g.sample_size(15);

    let cases: &[(&str, &str)] = &[
        ("identity_nodes", "CONSTRUCT (n) MATCH (n:Person)"),
        (
            "identity_subgraph",
            "CONSTRUCT (n)-[e]->(m) MATCH (n:Person)-[e:knows]->(m:Person)",
        ),
        (
            "skolem_per_binding",
            "CONSTRUCT (v :Marker {of := n.personId}) MATCH (n:Person)",
        ),
        (
            "group_aggregation",
            "CONSTRUCT (x GROUP e :Company {name := e})<-[:worksAt]-(n) \
             MATCH (n:Person {employer = e})",
        ),
        (
            "count_aggregation",
            "CONSTRUCT (t)<-[e:pop]-(n) SET e.cnt := COUNT(*) \
             MATCH (n:Person)-[:hasInterest]->(t:Tag)",
        ),
        (
            "skolem_edges_wide",
            "CONSTRUCT (n)-[:fof]->(k) \
             MATCH (n:Person)-[:knows]->(m:Person), (m)-[:knows]->(k:Person)",
        ),
        (
            "identity_many_rows",
            "CONSTRUCT (m) \
             MATCH (n:Person)-/<:knows*>/->(m:Person) WHERE n.personId < 500",
        ),
        (
            "graph_union_shorthand",
            "CONSTRUCT snb, (n) MATCH (n:Person) WHERE n.personId < 10",
        ),
    ];
    for (name, query) in cases {
        g.bench_function(*name, |b| {
            b.iter(|| black_box(engine.query_graph(query).unwrap()))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_construct);
criterion_main!(benches);

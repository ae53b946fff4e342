//! Pattern-matching cost (§A.2): node scans, edge hops, two-hop joins,
//! multi-pattern joins and OPTIONAL, at a fixed SNB scale — plus a
//! direct row-major vs columnar binding-table join comparison on tables
//! extracted from the SNB graph.

use criterion::{criterion_group, criterion_main, Criterion};
use gcore::binding::{BindingTable, Bound, Column, TableBuilder};
use gcore::cancel::CancelToken;
use gcore_bench::snb_engine;
use gcore_ppg::{Label, NodeId, PathPropertyGraph, ValueInterner};
use std::collections::BTreeMap;
use std::hint::black_box;

fn bench_matching(c: &mut Criterion) {
    let mut engine = snb_engine(1000);
    let mut g = c.benchmark_group("matching");
    g.sample_size(20);

    let cases: &[(&str, &str)] = &[
        ("node_scan", "CONSTRUCT (n) MATCH (n:Person)"),
        (
            "node_scan_filtered",
            "CONSTRUCT (n) MATCH (n:Person) WHERE n.personId < 50",
        ),
        (
            "edge_hop",
            "CONSTRUCT (n)-[e]->(m) MATCH (n:Person)-[e:knows]->(m:Person) \
             WHERE n.personId < 50",
        ),
        (
            "two_hop",
            "CONSTRUCT (n)-[:fof]->(k) \
             MATCH (n:Person)-[:knows]->(m:Person)-[:knows]->(k:Person) \
             WHERE n.personId < 10",
        ),
        (
            "value_join",
            "CONSTRUCT (a)-[:colleague]->(b) \
             MATCH (a:Person {employer = e}), (b:Person) \
             WHERE e IN b.employer AND a.personId < 20",
        ),
        (
            "optional",
            "CONSTRUCT (n) SET n.msgs := COUNT(*) \
             MATCH (n:Person) \
             OPTIONAL (n)<-[:has_creator]-(msg:Post) \
             WHERE n.personId < 100",
        ),
        (
            "exists_predicate",
            "CONSTRUCT (n) MATCH (n:Person) \
             WHERE (n)-[:hasInterest]->(:Tag {name = 'Wagner'}) \
               AND n.personId < 200",
        ),
    ];

    for (name, query) in cases {
        g.bench_function(*name, |b| {
            b.iter(|| black_box(engine.query_graph(query).unwrap()))
        });
    }
    g.finish();
}

/// The same join-heavy shapes at SNB scale 4000 — the binding-table
/// scale target from the ROADMAP. These are the queries whose
/// intermediate Ω tables get large enough for physical layout to matter.
/// The scale-4000 engine is generated once and shared with the layout
/// comparison below.
fn bench_snb4000(c: &mut Criterion) {
    let mut engine = snb_engine(4000);
    bench_matching_snb4000(c, &mut engine);
    bench_profiling_overhead(c, &mut engine);
    bench_binding_layout(c, &engine);
}

fn bench_matching_snb4000(c: &mut Criterion, engine: &mut gcore::Engine) {
    let mut g = c.benchmark_group("matching_snb4000");
    g.sample_size(10);

    let cases: &[(&str, &str)] = &[
        ("node_scan", "CONSTRUCT (n) MATCH (n:Person)"),
        (
            "edge_hop",
            "CONSTRUCT (n)-[e]->(m) MATCH (n:Person)-[e:knows]->(m:Person) \
             WHERE n.personId < 200",
        ),
        (
            "two_hop",
            "CONSTRUCT (n)-[:fof]->(k) \
             MATCH (n:Person)-[:knows]->(m:Person)-[:knows]->(k:Person) \
             WHERE n.personId < 40",
        ),
        (
            "value_join",
            "CONSTRUCT (a)-[:colleague]->(b) \
             MATCH (a:Person {employer = e}), (b:Person) \
             WHERE e IN b.employer AND a.personId < 40",
        ),
        (
            "optional",
            "CONSTRUCT (n) SET n.msgs := COUNT(*) \
             MATCH (n:Person) \
             OPTIONAL (n)<-[:has_creator]-(msg:Post) \
             WHERE n.personId < 400",
        ),
        // The OPTIONAL pattern starts at a variable the main clause
        // bound to 200 persons: it is matched from those, not from every
        // node of the graph.
        (
            "optional_seeded",
            "CONSTRUCT (n) SET n.msgs := COUNT(*) \
             MATCH (n:Person) WHERE n.personId < 200 \
             OPTIONAL (n)<-[:has_creator]-(msg:Post)",
        ),
        // ~400 000 reachability rows behind a WHERE the scan of `n`
        // already applied: the rows are neither filtered again nor
        // joined to anything.
        (
            "reach_filter_once",
            "CONSTRUCT (m) MATCH (n:Person)-/<:knows*>/->(m:Person) WHERE n.personId < 100",
        ),
    ];

    for (name, query) in cases {
        g.bench_function(*name, |b| {
            b.iter(|| black_box(engine.query_graph(query).unwrap()))
        });
    }
    g.finish();
}

/// Profiling overhead, one process, two code paths (the preferred
/// comparison shape): the same join-heavy statements with span
/// collection off (`Engine::run`, the production path — one `Option`
/// check per boundary, no clock reads) and on (`Engine::profile`). The
/// `_off` numbers double as the matching_snb4000 regression reference;
/// the `_on` deltas are the cost of `EXPLAIN ANALYZE` / the serve
/// slow-query log.
fn bench_profiling_overhead(c: &mut Criterion, engine: &mut gcore::Engine) {
    let mut g = c.benchmark_group("profiling_overhead_snb4000");
    g.sample_size(10);

    let cases: &[(&str, &str)] = &[
        (
            "two_hop",
            "CONSTRUCT (n)-[:fof]->(k) \
             MATCH (n:Person)-[:knows]->(m:Person)-[:knows]->(k:Person) \
             WHERE n.personId < 40",
        ),
        (
            "value_join",
            "CONSTRUCT (a)-[:colleague]->(b) \
             MATCH (a:Person {employer = e}), (b:Person) \
             WHERE e IN b.employer AND a.personId < 40",
        ),
    ];
    for (name, query) in cases {
        g.bench_function(format!("{name}_off"), |b| {
            b.iter(|| black_box(engine.run(query).unwrap()))
        });
        g.bench_function(format!("{name}_on"), |b| {
            b.iter(|| black_box(engine.profile(query).unwrap()))
        });
    }
    g.finish();
}

// ---------------------------------------------------------------------
// Row-major reference implementation (the pre-columnar layout): rows as
// Vec<Vec<Bound>>, hash join keyed on cloned Bound vectors, sort + dedup
// by moving whole rows. Kept here as the baseline the columnar
// BindingTable is measured against.
// ---------------------------------------------------------------------

struct RowTable {
    vars: Vec<String>,
    rows: Vec<Vec<Bound>>,
}

impl RowTable {
    fn new(vars: Vec<String>, mut rows: Vec<Vec<Bound>>) -> Self {
        rows.sort();
        rows.dedup();
        RowTable { vars, rows }
    }

    fn join(&self, other: &RowTable) -> RowTable {
        let shared: Vec<(usize, usize)> = self
            .vars
            .iter()
            .enumerate()
            .filter_map(|(i, v)| other.vars.iter().position(|w| w == v).map(|j| (i, j)))
            .collect();
        let b_new: Vec<usize> = (0..other.vars.len())
            .filter(|j| !self.vars.contains(&other.vars[*j]))
            .collect();
        let mut vars = self.vars.clone();
        for &j in &b_new {
            vars.push(other.vars[j].clone());
        }
        let mut keyed: BTreeMap<Vec<Bound>, Vec<usize>> = BTreeMap::new();
        for (idx, row) in other.rows.iter().enumerate() {
            let key: Vec<Bound> = shared.iter().map(|&(_, j)| row[j].clone()).collect();
            keyed.entry(key).or_default().push(idx);
        }
        let mut rows = Vec::new();
        for a_row in &self.rows {
            let key: Vec<Bound> = shared.iter().map(|&(i, _)| a_row[i].clone()).collect();
            if let Some(idxs) = keyed.get(&key) {
                for &b_idx in idxs {
                    let b_row = &other.rows[b_idx];
                    let mut merged = a_row.clone();
                    for &j in &b_new {
                        merged.push(b_row[j].clone());
                    }
                    rows.push(merged);
                }
            }
        }
        RowTable::new(vars, rows)
    }
}

/// (src, dst) pairs of every `knows` edge.
fn knows_pairs(g: &PathPropertyGraph) -> Vec<(NodeId, NodeId)> {
    let knows = Label::lookup("knows").expect("snb graph interns 'knows'");
    let mut pairs: Vec<(NodeId, NodeId)> = g
        .edge_ids_sorted()
        .into_iter()
        .filter_map(|e| {
            let d = g.edge(e)?;
            d.attrs.labels.contains(knows).then_some((d.src, d.dst))
        })
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// Two-hop friend-of-friend join on the SNB `knows` relation, row-major
/// baseline vs the columnar BindingTable, at scale 4000.
fn bench_binding_layout(c: &mut Criterion, engine: &gcore::Engine) {
    let graph = engine.graph("snb").expect("snb graph registered");
    let pairs = knows_pairs(&graph);

    let mut g = c.benchmark_group("binding_layout_snb4000");
    g.sample_size(10);

    let col = |v: &str| Column {
        var: v.to_owned(),
        graph: graph.clone(),
    };
    let bound_rows = || -> Vec<Vec<Bound>> {
        pairs
            .iter()
            .map(|&(s, d)| vec![Bound::Node(s), Bound::Node(d)])
            .collect()
    };

    g.bench_function("row_major_two_hop_join", |b| {
        b.iter(|| {
            let left = RowTable::new(vec!["n".into(), "m".into()], bound_rows());
            let right = RowTable::new(vec!["m".into(), "k".into()], bound_rows());
            black_box(left.join(&right).rows.len())
        })
    });

    g.bench_function("columnar_two_hop_join", |b| {
        b.iter(|| {
            let pool = std::sync::Arc::new(ValueInterner::new());
            let build = |lv: &str, rv: &str| -> BindingTable {
                let mut t = TableBuilder::new(vec![col(lv), col(rv)], pool.clone());
                for &(s, d) in &pairs {
                    t.push(&[Bound::Node(s), Bound::Node(d)]);
                }
                t.finish()
            };
            let left = build("n", "m");
            let right = build("m", "k");
            black_box(left.join(&right, &CancelToken::new()).unwrap().len())
        })
    });
    g.finish();
}

criterion_group!(benches, bench_matching, bench_snb4000);
criterion_main!(benches);

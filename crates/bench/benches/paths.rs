//! Path machinery (§3, §A.1): reachability, shortest, k-shortest,
//! weighted shortest over PATH views, stored-path matching and the
//! ALL-paths projection, at a fixed SNB scale.

use criterion::{criterion_group, criterion_main, Criterion};
use gcore::paths::{PathSearcher, ViewMap};
use gcore::regex::Nfa;
use gcore_bench::{snb_engine_with_messages, tour_engine};
use gcore_parser::ast::Regex;
use gcore_ppg::hash::FxHashSet;
use gcore_ppg::PathPropertyGraph;
use gcore_snb::{generate_standalone, SnbConfig};
use std::hint::black_box;

fn bench_paths(c: &mut Criterion) {
    let mut engine = snb_engine_with_messages(1000);
    let mut g = c.benchmark_group("paths");
    g.sample_size(15);

    let cases: &[(&str, &str)] = &[
        (
            "reachability",
            "CONSTRUCT (m) MATCH (n:Person)-/<:knows*>/->(m:Person) \
             WHERE n.personId = 0",
        ),
        (
            "shortest_1",
            "CONSTRUCT (n)-/@p:sp/->(m) \
             MATCH (n:Person)-/p <:knows*>/->(m:Person) \
             WHERE n.personId = 0",
        ),
        (
            "shortest_3",
            "CONSTRUCT (n)-/@p:sp/->(m) \
             MATCH (n)-/3 SHORTEST p <:knows*>/->(m) \
             WHERE n.personId = 0 AND (m:Person)",
        ),
        (
            "weighted_shortest",
            "PATH chatty = (x)-[e:knows]->(y) COST 1 / (1 + e.nr_messages) \
             CONSTRUCT (n)-/@p:w/->(m) \
             MATCH (n:Person)-/p <~chatty*>/->(m:Person) ON msg_graph \
             WHERE n.personId = 0",
        ),
        (
            "all_paths_projection",
            "CONSTRUCT (n)-/p/->(m) \
             MATCH (n:Person)-/ALL p <:knows*>/->(m:Person) \
             WHERE n.personId = 0 AND m.personId = 7",
        ),
        (
            "regex_alternation",
            "CONSTRUCT (m) \
             MATCH (n:Person)-/<(:knows + :knows-)* :hasInterest>/->(m:Tag) \
             WHERE n.personId = 0",
        ),
    ];
    for (name, query) in cases {
        g.bench_function(*name, |b| {
            b.iter(|| black_box(engine.query_graph(query).unwrap()))
        });
    }
    g.finish();
}

/// Matching over *stored* paths — the capability §3 calls unique: a
/// database of paths queried like any other data.
fn bench_stored_paths(c: &mut Criterion) {
    let mut engine = snb_engine_with_messages(1000);
    // Materialize a path database once.
    engine
        .run(
            "GRAPH VIEW path_db AS ( \
               CONSTRUCT (n)-/@p:route/->(m) \
               MATCH (n:Person)-/p <:knows*>/->(m:Person) \
               WHERE n.personId < 8 )",
        )
        .unwrap();
    let mut g = c.benchmark_group("paths");
    g.sample_size(15);
    g.bench_function("stored_path_scan", |b| {
        b.iter(|| {
            black_box(
                engine
                    .query_table(
                        "SELECT length(p) AS hops, COUNT(*) AS n \
                         MATCH ()-/@p:route/->() ON path_db \
                         GROUP BY length(p)",
                    )
                    .unwrap(),
            )
        })
    });
    g.finish();
}

/// The guided tour's full three-stage Wagner pipeline on the toy graph —
/// an end-to-end latency figure.
fn bench_tour_pipeline(c: &mut Criterion) {
    let mut g = c.benchmark_group("paths");
    g.bench_function("wagner_pipeline_toy", |b| {
        b.iter(|| {
            let mut engine = tour_engine();
            engine
                .run(
                    "GRAPH VIEW social_graph1 AS ( \
                     CONSTRUCT social_graph, (n)-[e]->(m) SET e.nr_messages := COUNT(*) \
                     MATCH (n)-[e:knows]->(m) WHERE (n:Person) AND (m:Person) \
                     OPTIONAL (n)<-[c1]-(msg1:Post|Comment), (msg1)-[:reply_of]-(msg2), \
                              (msg2:Post|Comment)-[c2]->(m) \
                     WHERE (c1:has_creator) AND (c2:has_creator) )",
                )
                .unwrap();
            engine
                .run(
                    "GRAPH VIEW social_graph2 AS ( \
                     PATH wKnows = (x)-[e:knows]->(y) WHERE NOT 'Acme' IN y.employer \
                       COST 1 / (1 + e.nr_messages) \
                     CONSTRUCT social_graph1, (n)-/@p:toWagner/->(m) \
                     MATCH (n:Person)-/p <~wKnows*>/->(m:Person) ON social_graph1 \
                     WHERE (m)-[:hasInterest]->(:Tag {name = 'Wagner'}) \
                       AND (n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m) \
                       AND n.firstName = 'John' AND n.lastName = 'Doe' )",
                )
                .unwrap();
            black_box(
                engine
                    .query_graph(
                        "CONSTRUCT (n)-[e:wagnerFriend {score := COUNT(*)}]->(m) \
                         WHEN e.score > 0 \
                         MATCH (n:Person)-/@p:toWagner/->(), (m:Person) ON social_graph2 \
                         WHERE m = nodes(p)[1]",
                    )
                    .unwrap(),
            )
        })
    });
    g.finish();
}

/// Controlled old-vs-new expansion comparison (mirroring the
/// `binding_layout_*` pattern): the *same* SNB graph, the *same*
/// product-automaton searches, in one process — only how a step is taken
/// differs. `scan` searches a rebuild of the graph without its label
/// index, whose steps filter every incident edge by label (the
/// pre-overhaul expansion); `indexed` searches the graph itself, whose
/// steps read the label-partitioned adjacency slices. The workload is label-selective: `(:knows +
/// :knows-)*` over Person nodes whose in-adjacency is dominated by
/// `has_creator` message edges that scanning must touch and the index
/// never sees.
/// `graph`'s nodes and edges inserted one by one into a new graph, which
/// `add_node` / `add_edge` never index.
fn without_label_index(graph: &PathPropertyGraph) -> PathPropertyGraph {
    let mut copy = PathPropertyGraph::new();
    for n in graph.node_ids_sorted() {
        copy.add_node(n, graph.node(n).expect("listed node").attrs.clone());
    }
    for e in graph.edge_ids_sorted() {
        let d = graph.edge(e).expect("listed edge");
        copy.add_edge(e, d.src, d.dst, d.attrs.clone())
            .expect("endpoints copied");
    }
    assert!(!copy.has_label_index());
    copy
}

fn bench_expansion_strategies(c: &mut Criterion) {
    for &scale in &[1000usize, 4000] {
        let data = generate_standalone(&SnbConfig::scale(scale));
        let graph = data.graph;
        assert!(graph.has_label_index(), "GraphBuilder::build indexes");
        let unindexed = without_label_index(&graph);
        let re = Regex::Star(Box::new(Regex::Alt(vec![
            Regex::Label("knows".into()),
            Regex::LabelInv("knows".into()),
        ])));
        let nfa = Nfa::compile(&re);
        let views = ViewMap::default();

        let mut g = c.benchmark_group(format!("path_expansion_snb{scale}"));
        g.sample_size(10);

        // Reachability from a handful of sources (each explores the
        // whole knows-connected component).
        let sources: Vec<_> = data.persons.iter().take(4).copied().collect();
        for (name, graph) in [("reach_scan", &unindexed), ("reach_indexed", &graph)] {
            let s = PathSearcher::new(graph, &nfa, &views);
            let sources = sources.clone();
            g.bench_function(name, |b| {
                b.iter(|| {
                    let mut total = 0usize;
                    for &src in &sources {
                        total += black_box(s.reachable(src).unwrap()).len();
                    }
                    total
                })
            });
        }

        // Single-pair canonical shortest (cone-pruned on both sides —
        // only the expansion differs).
        let (src, dst) = (data.persons[0], data.persons[scale / 2]);
        let mut targets = FxHashSet::default();
        targets.insert(dst);
        for (name, graph) in [("shortest_scan", &unindexed), ("shortest_indexed", &graph)] {
            let s = PathSearcher::new(graph, &nfa, &views);
            let targets = targets.clone();
            g.bench_function(name, |b| {
                b.iter(|| black_box(s.k_shortest(src, 1, Some(&targets)).unwrap()).len())
            });
        }

        // Many-source reachability: per-source product searches vs the
        // SCC-condensed shared frontier (both label-indexed).
        let many: Vec<_> = data.persons.iter().take(64).copied().collect();
        let s = PathSearcher::new(&graph, &nfa, &views);
        {
            let many = many.clone();
            g.bench_function("multi_source_per_source", |b| {
                b.iter(|| {
                    let mut total = 0usize;
                    for &src in &many {
                        total += black_box(s.reachable(src).unwrap()).len();
                    }
                    total
                })
            });
        }
        {
            let many = many.clone();
            g.bench_function("multi_source_shared_frontier", |b| {
                b.iter(|| {
                    let m = black_box(s.reachable_many(&many).unwrap());
                    m.values().map(|v| v.len()).sum::<usize>()
                })
            });
        }
        g.finish();
    }
}

criterion_group!(
    benches,
    bench_paths,
    bench_stored_paths,
    bench_tour_pipeline,
    bench_expansion_strategies
);
criterion_main!(benches);

//! Path-pattern conformance table (§3 "paths as first-class citizens",
//! §A.1): a tiny staged graph, one statement per case that SELECTs
//! everything the path step binds, the *exact* expected rows.
//!
//! The cases walk the search entry points (1-shortest, k-shortest,
//! weighted over a `COST` view, `ALL`, pure reachability), the regex
//! alphabet (labels, inverse labels, node tests, the wildcard, views as
//! segments), the three pattern directions, zero-length acceptance and a
//! bound vs. unbound destination — so a change in *how* the product of
//! graph and automaton is searched shows up as a row diff. Equal-cost
//! walks are ordered by their interleaved identifier sequence; that
//! order is observable (`k SHORTEST` keeps a prefix of it, CONSTRUCT
//! mints `@p` identifiers along it) and therefore part of the contract.
//!
//! Every case runs with the planner on and off and must give the same
//! text. `max_pops` is the `frontier_pops` the case costs (planner on)
//! since the ordered search admits a product state at most `k` times
//! without queueing the surplus and stops once its targets are answered;
//! a change may lower a bound, never raise it. The `*far_end*` cases
//! filter the destination by key equality, which the plan turns into
//! the targets of the search (`targets` on the `path-search` span) —
//! their rows are the rows of the unrestricted search, filtered.
//! `tie_keys` (walk sequences replayed to order a cost level) is never
//! reported by a case without a view: unit-cost levels are ordered by
//! rank.
//!
//! Rendering as in `match_conformance`: a header line, then one line per
//! row; computed paths are selected through `nodes(p)` / `edges(p)`
//! (`ALL` projections list their members in identifier order). A graph
//! result prints its node and edge identifiers, then one
//! `/p<id> n[…] e[…]/` line per stored path.

use gcore_repro::engine::{Engine, QueryOutput};
use gcore_repro::ppg::{Attributes, GraphBuilder, IdGen, PathPropertyGraph};

/// The staged graph:
///
/// ```text
/// (1 Ann) -10 knows w5-> (2 Bob :Vip) -12 knows w1-> (4 Dan) -14 knows w1-> (5 Eve) -16 knows w1-> (1)
/// (1)     -11 knows w1-> (3 Cid)      -13 knows w1-> (4)
///                        (3)          -15 knows w2-> (5)
/// (2) -17 likes-> (3)    (3) -18 likes-> (3)    (6 Fay) has no edge
/// ```
///
/// Ann reaches Dan in two hops through Bob or through Cid (a hop-count
/// tie, broken towards edge 10); weighted, the Cid route costs 2 and the
/// Bob route 6. Cid reaches Eve at weight 2 either through Dan or
/// directly (a weighted tie, broken towards edge 13).
fn staged(ids: &IdGen) -> PathPropertyGraph {
    let person = |name: &str| Attributes::labeled("Person").with_prop("name", name);
    let mut b = GraphBuilder::new(ids.clone());
    let ann = b.node_with_id(1, person("Ann"));
    let bob = b.node_with_id(2, person("Bob").with_label("Vip"));
    let cid = b.node_with_id(3, person("Cid"));
    let dan = b.node_with_id(4, person("Dan"));
    let eve = b.node_with_id(5, person("Eve"));
    b.node_with_id(6, person("Fay"));
    let knows = |w: i64| Attributes::labeled("knows").with_prop("w", w);
    b.edge_with_id(10, ann, bob, knows(5)).unwrap();
    b.edge_with_id(11, ann, cid, knows(1)).unwrap();
    b.edge_with_id(12, bob, dan, knows(1)).unwrap();
    b.edge_with_id(13, cid, dan, knows(1)).unwrap();
    b.edge_with_id(14, dan, eve, knows(1)).unwrap();
    b.edge_with_id(15, cid, eve, knows(2)).unwrap();
    b.edge_with_id(16, eve, ann, knows(1)).unwrap();
    b.edge_with_id(17, bob, cid, Attributes::labeled("likes"))
        .unwrap();
    b.edge_with_id(18, cid, cid, Attributes::labeled("likes"))
        .unwrap();
    b.build()
}

fn engine(planner: bool) -> Engine {
    let mut engine = Engine::new();
    engine.set_planner(planner);
    let g = staged(&engine.catalog().ids().clone());
    engine.register_graph("g", g);
    engine.set_default_graph("g");
    engine
}

fn render(out: gcore_repro::engine::Result<QueryOutput>) -> String {
    let raw = |ids: Vec<u64>| format!("{ids:?}");
    match out {
        Ok(QueryOutput::Table(t)) => {
            let mut out = t.columns().join(" | ") + "\n";
            for row in t.rows() {
                let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
                out += &(cells.join(" | ") + "\n");
            }
            out
        }
        Ok(QueryOutput::Graph(g)) => {
            let nodes = g.node_ids_sorted().iter().map(|n| n.raw()).collect();
            let mut edges: Vec<u64> = g.edge_ids().map(|e| e.raw()).collect();
            edges.sort_unstable();
            let mut out = format!("nodes {} edges {}\n", raw(nodes), raw(edges));
            for p in g.path_ids_sorted() {
                let shape = &g.path(p).unwrap().shape;
                let ns = shape.nodes().iter().map(|n| n.raw()).collect();
                let es = shape.edges().iter().map(|e| e.raw()).collect();
                out += &format!("/p{} n{} e{}/\n", p.raw(), raw(ns), raw(es));
            }
            out
        }
        Err(e) => format!("ERR {e}\n"),
    }
}

/// The statement's `frontier_pops`, summed over its `path-search` spans.
fn pops(profile: &gcore_repro::engine::obs::QueryProfile) -> u64 {
    fn walk(span: &gcore_repro::engine::obs::ProfileSpan) -> u64 {
        let own = span.counters.iter().filter(|(k, _)| k == "frontier_pops");
        own.map(|(_, v)| *v).sum::<u64>() + span.children.iter().map(walk).sum::<u64>()
    }
    profile.spans.iter().map(walk).sum()
}

struct Case {
    name: &'static str,
    statement: &'static str,
    max_pops: u64,
    expected: &'static str,
}

/// `PATH` heads shared by the view cases: `w` weighs every knows edge,
/// `two` is a two-hop segment, `liked` a single asymmetric edge.
macro_rules! with_views {
    ($body:literal) => {
        concat!(
            "PATH w = (x)-[e:knows]->(y) COST e.w ",
            "PATH two = (x)-[:knows]->()-[:knows]->(y) ",
            "PATH liked = (x)-[:likes]->(y) ",
            $body
        )
    };
}

const CASES: &[Case] = &[
    Case {
        name: "shortest_unbound_destination_breaks_the_hop_tie_towards_edge_10",
        statement: "SELECT nodes(p) AS ns, edges(p) AS es, c, m MATCH (n:Person)-/p <:knows*> COST c/->(m:Person) WHERE n.name = 'Ann'",
        max_pops: 22,
        expected: "
            ns | es | c | m
            [#n1, #n2, #n4] | [#e10, #e12] | 2 | #n4
            [#n1, #n2] | [#e10] | 1 | #n2
            [#n1, #n3, #n5] | [#e11, #e15] | 2 | #n5
            [#n1, #n3] | [#e11] | 1 | #n3
            [#n1] | [] | 0 | #n1
        ",
    },
    Case {
        name: "shortest_bound_destination_closes_each_knows_edge_into_a_cycle",
        statement: "SELECT n, m, nodes(p) AS ns, edges(p) AS es, c MATCH (n:Person)-[:knows]->(m)-/p <:knows*> COST c/->(n)",
        max_pops: 178,
        expected: "
            n | m | ns | es | c
            #n1 | #n2 | [#n2, #n4, #n5, #n1] | [#e12, #e14, #e16] | 3
            #n1 | #n3 | [#n3, #n5, #n1] | [#e15, #e16] | 2
            #n2 | #n4 | [#n4, #n5, #n1, #n2] | [#e14, #e16, #e10] | 3
            #n3 | #n4 | [#n4, #n5, #n1, #n3] | [#e14, #e16, #e11] | 3
            #n3 | #n5 | [#n5, #n1, #n3] | [#e16, #e11] | 2
            #n4 | #n5 | [#n5, #n1, #n2, #n4] | [#e16, #e10, #e12] | 3
            #n5 | #n1 | [#n1, #n3, #n5] | [#e11, #e15] | 2
        ",
    },
    Case {
        name: "zero_length_walk_is_accepted_at_a_node_without_edges",
        statement: "SELECT nodes(p) AS ns, c, nodes(q) AS qs, m MATCH (n:Person)-/p <:knows*> COST c/->(m), (n)-/q <:likes*>/->(n) WHERE n.name = 'Fay'",
        max_pops: 8,
        expected: "
            ns | c | qs | m
            [#n6] | 0 | [#n6] | #n6
        ",
    },
    Case {
        name: "at_least_one_step_needs_a_cycle_to_return",
        statement: "SELECT nodes(p) AS ns, c MATCH (n:Person)-/p <:knows :knows*> COST c/->(n) WHERE n.name = 'Dan' OR n.name = 'Fay'",
        max_pops: 35,
        expected: "
            ns | c
            [#n4, #n5, #n1, #n2, #n4] | 4
        ",
    },
    Case {
        name: "k_shortest_lists_equal_cost_walks_in_identifier_order",
        statement: "SELECT m, nodes(p) AS ns, edges(p) AS es, c MATCH (n:Person)-/3 SHORTEST p <:knows*> COST c/->(m:Person) WHERE n.name = 'Ann' AND (m.name = 'Dan' OR m.name = 'Eve')",
        max_pops: 58,
        expected: "
            m | ns | es | c
            #n4 | [#n1, #n2, #n4] | [#e10, #e12] | 2
            #n4 | [#n1, #n3, #n4] | [#e11, #e13] | 2
            #n4 | [#n1, #n3, #n5, #n1, #n2, #n4] | [#e11, #e15, #e16, #e10, #e12] | 5
            #n5 | [#n1, #n2, #n4, #n5] | [#e10, #e12, #e14] | 3
            #n5 | [#n1, #n3, #n4, #n5] | [#e11, #e13, #e14] | 3
            #n5 | [#n1, #n3, #n5] | [#e11, #e15] | 2
        ",
    },
    Case {
        name: "k_shortest_bound_destination",
        statement: "SELECT n, m, nodes(p) AS ns, c MATCH (n:Person)-[:likes]->(m)-/2 SHORTEST p <:knows*> COST c/->(n)",
        max_pops: 68,
        expected: "
            n | m | ns | c
            #n2 | #n3 | [#n3, #n4, #n5, #n1, #n2] | 4
            #n2 | #n3 | [#n3, #n5, #n1, #n2] | 3
            #n3 | #n3 | [#n3, #n5, #n1, #n3] | 3
            #n3 | #n3 | [#n3] | 0
        ",
    },
    Case {
        name: "k_shortest_mints_path_ids_in_search_order",
        statement: "CONSTRUCT (n)-/@p:sp/->(m) MATCH (n:Person)-/2 SHORTEST p <:knows*>/->(m:Person) WHERE n.name = 'Cid' AND m.name <> 'Ann'",
        max_pops: 40,
        expected: "
            nodes [1, 2, 3, 4, 5] edges [10, 11, 12, 13, 14, 15, 16]
            /p19 n[3, 5, 1, 2] e[15, 16, 10]/
            /p20 n[3, 4, 5, 1, 2] e[13, 14, 16, 10]/
            /p21 n[3] e[]/
            /p22 n[3, 5, 1, 3] e[15, 16, 11]/
            /p23 n[3, 4] e[13]/
            /p24 n[3, 5, 1, 2, 4] e[15, 16, 10, 12]/
            /p25 n[3, 5] e[15]/
            /p26 n[3, 4, 5] e[13, 14]/
        ",
    },
    Case {
        name: "weighted_shortest_prefers_the_light_route",
        statement: with_views!("SELECT m, nodes(p) AS ns, edges(p) AS es, c MATCH (n:Person)-/p <~w*> COST c/->(m:Person) WHERE n.name = 'Ann'"),
        max_pops: 19,
        expected: "
            m | ns | es | c
            #n1 | [#n1] | [] | 0.0
            #n2 | [#n1, #n2] | [#e10] | 5.0
            #n3 | [#n1, #n3] | [#e11] | 1.0
            #n4 | [#n1, #n3, #n4] | [#e11, #e13] | 2.0
            #n5 | [#n1, #n3, #n4, #n5] | [#e11, #e13, #e14] | 3.0
        ",
    },
    Case {
        name: "weighted_tie_is_broken_towards_edge_13",
        statement: with_views!("SELECT nodes(p) AS ns, edges(p) AS es, c MATCH (n:Person)-/2 SHORTEST p <~w*> COST c/->(m:Person) WHERE n.name = 'Cid' AND m.name = 'Eve'"),
        max_pops: 25,
        expected: "
            ns | es | c
            [#n3, #n4, #n5] | [#e13, #e14] | 2.0
            [#n3, #n5] | [#e15] | 2.0
        ",
    },
    Case {
        name: "weighted_bound_destination",
        statement: with_views!("SELECT n, m, nodes(p) AS ns, c MATCH (n:Person)-[:likes]->(m)-/p <~w ~w*> COST c/->(n)"),
        max_pops: 68,
        expected: "
            n | m | ns | c
            #n2 | #n3 | [#n3, #n4, #n5, #n1, #n2] | 8.0
            #n3 | #n3 | [#n3, #n4, #n5, #n1, #n3] | 4.0
        ",
    },
    Case {
        name: "weighted_paths_mint_ids_and_keep_their_cost_order",
        statement: with_views!("CONSTRUCT (n)-/@p:wp/->(m) MATCH (n:Person)-/2 SHORTEST p <~w ~w*>/->(m:Person) WHERE n.name = 'Cid' AND m.name = 'Eve'"),
        max_pops: 29,
        expected: "
            nodes [3, 4, 5] edges [13, 14, 15]
            /p19 n[3, 4, 5] e[13, 14]/
            /p20 n[3, 5] e[15]/
        ",
    },
    Case {
        name: "all_unbound_destination_projects_per_destination",
        statement: "SELECT m, nodes(p) AS ns, edges(p) AS es MATCH (n:Person)-/ALL p <:knows :knows :knows*>/->(m:Person) WHERE n.name = 'Ann'",
        max_pops: 100,
        expected: "
            m | ns | es
            #n1 | [#n1, #n2, #n3, #n4, #n5] | [#e10, #e11, #e12, #e13, #e14, #e15, #e16]
            #n2 | [#n1, #n2, #n3, #n4, #n5] | [#e10, #e11, #e12, #e13, #e14, #e15, #e16]
            #n3 | [#n1, #n2, #n3, #n4, #n5] | [#e10, #e11, #e12, #e13, #e14, #e15, #e16]
            #n4 | [#n1, #n2, #n3, #n4, #n5] | [#e10, #e11, #e12, #e13, #e14, #e15, #e16]
            #n5 | [#n1, #n2, #n3, #n4, #n5] | [#e10, #e11, #e12, #e13, #e14, #e15, #e16]
        ",
    },
    Case {
        name: "all_bound_destination",
        statement: "SELECT n, m, nodes(p) AS ns, edges(p) AS es MATCH (n:Person)-[:likes]->(m)-/ALL p <:knows*>/->(n)",
        max_pops: 56,
        expected: "
            n | m | ns | es
            #n2 | #n3 | [#n1, #n2, #n3, #n4, #n5] | [#e10, #e11, #e12, #e13, #e14, #e15, #e16]
            #n3 | #n3 | [#n1, #n2, #n3, #n4, #n5] | [#e10, #e11, #e12, #e13, #e14, #e15, #e16]
        ",
    },
    Case {
        name: "all_without_an_accepting_walk_binds_nothing",
        statement: "SELECT n, m MATCH (n:Person)-/ALL p <:likes :likes :knows>/->(m) WHERE n.name = 'Ann' OR n.name = 'Fay'",
        max_pops: 2,
        expected: "
            n | m
        ",
    },
    Case {
        name: "all_over_view_segments_projects_the_segment_walks",
        statement: with_views!("SELECT m, nodes(p) AS ns, edges(p) AS es MATCH (n:Person)-/ALL p <~two :knows>/->(m) WHERE n.name = 'Ann'"),
        max_pops: 11,
        expected: "
            m | ns | es
            #n1 | [#n1, #n3, #n5] | [#e11, #e15, #e16]
            #n5 | [#n1, #n2, #n3, #n4, #n5] | [#e10, #e11, #e12, #e13, #e14]
        ",
    },
    Case {
        name: "all_projection_is_constructed_as_elements",
        statement: "CONSTRUCT (n)-/p/->(m) MATCH (n:Person)-/ALL p <:knows :knows>/->(m:Person) WHERE n.name = 'Ann'",
        max_pops: 12,
        expected: "
            nodes [1, 2, 3, 4, 5] edges [10, 11, 12, 13, 15]
        ",
    },
    Case {
        name: "inverse_labels_walk_edges_backwards",
        statement: "SELECT m, nodes(p) AS ns, edges(p) AS es, c MATCH (n:Person)-/p <:knows-*> COST c/->(m) WHERE n.name = 'Dan' AND c <= 2",
        max_pops: 19,
        expected: "
            m | ns | es | c
            #n1 | [#n4, #n2, #n1] | [#e12, #e10] | 2
            #n2 | [#n4, #n2] | [#e12] | 1
            #n3 | [#n4, #n3] | [#e13] | 1
            #n4 | [#n4] | [] | 0
        ",
    },
    Case {
        name: "mixed_directions_in_one_expression",
        statement: "SELECT m, nodes(p) AS ns, edges(p) AS es MATCH (n:Person)-/p <:knows :knows->/->(m) WHERE n.name = 'Bob'",
        max_pops: 4,
        expected: "
            m | ns | es
            #n2 | [#n2, #n4, #n2] | [#e12, #e12]
            #n3 | [#n2, #n4, #n3] | [#e12, #e13]
        ",
    },
    Case {
        name: "node_test_guards_the_middle_node",
        statement: "SELECT m, nodes(p) AS ns MATCH (n:Person)-/p <:knows !Vip :knows>/->(m) WHERE n.name = 'Ann'",
        max_pops: 5,
        expected: "
            m | ns
            #n4 | [#n1, #n2, #n4]
        ",
    },
    Case {
        name: "node_test_at_both_ends",
        statement: "SELECT n, m MATCH (n:Person)-/<!Vip :knows* !Vip>/->(m)",
        max_pops: 45,
        expected: "
            n | m
            #n2 | #n2
        ",
    },
    Case {
        name: "node_test_with_a_bound_destination",
        statement: "SELECT n, m, nodes(p) AS ns MATCH (n:Person)-[:likes]->(m)-/p <(:knows !Person)*>/->(n)",
        max_pops: 59,
        expected: "
            n | m | ns
            #n2 | #n3 | [#n3, #n5, #n1, #n2]
            #n3 | #n3 | [#n3]
        ",
    },
    Case {
        name: "wildcard_takes_either_direction_and_a_self_loop_once",
        statement: "SELECT m, nodes(p) AS ns, edges(p) AS es MATCH (n:Person)-/2 SHORTEST p <_>/->(m) WHERE n.name = 'Cid'",
        max_pops: 6,
        expected: "
            m | ns | es
            #n1 | [#n3, #n1] | [#e11]
            #n2 | [#n3, #n2] | [#e17]
            #n3 | [#n3, #n3] | [#e18]
            #n4 | [#n3, #n4] | [#e13]
            #n5 | [#n3, #n5] | [#e15]
        ",
    },
    Case {
        name: "alternation_then_star",
        statement: "SELECT m, nodes(p) AS ns, edges(p) AS es MATCH (n:Person)-/p <(:likes + :knows) :likes*>/->(m) WHERE n.name = 'Bob'",
        max_pops: 9,
        expected: "
            m | ns | es
            #n3 | [#n2, #n3] | [#e17]
            #n4 | [#n2, #n4] | [#e12]
        ",
    },
    Case {
        name: "view_segments_concatenate_their_walks",
        statement: with_views!("SELECT m, nodes(p) AS ns, edges(p) AS es, c MATCH (n:Person)-/p <~two ~two*> COST c/->(m) WHERE n.name = 'Ann'"),
        max_pops: 22,
        expected: "
            m | ns | es | c
            #n1 | [#n1, #n2, #n4, #n5, #n1] | [#e10, #e12, #e14, #e16] | 2
            #n2 | [#n1, #n3, #n5, #n1, #n2] | [#e11, #e15, #e16, #e10] | 2
            #n3 | [#n1, #n3, #n5, #n1, #n3] | [#e11, #e15, #e16, #e11] | 2
            #n4 | [#n1, #n2, #n4] | [#e10, #e12] | 1
            #n5 | [#n1, #n3, #n5] | [#e11, #e15] | 1
        ",
    },
    Case {
        name: "view_segment_next_to_a_label",
        statement: with_views!("SELECT m, nodes(p) AS ns, c MATCH (n:Person)-/2 SHORTEST p <~two :knows-> COST c/->(m) WHERE n.name = 'Ann'"),
        max_pops: 10,
        expected: "
            m | ns | c
            #n2 | [#n1, #n2, #n4, #n2] | 2
            #n2 | [#n1, #n3, #n4, #n2] | 2
            #n3 | [#n1, #n2, #n4, #n3] | 2
            #n3 | [#n1, #n3, #n4, #n3] | 2
            #n4 | [#n1, #n3, #n5, #n4] | 2
        ",
    },
    Case {
        name: "in_direction_reads_the_expression_from_the_far_node",
        statement: "SELECT m, nodes(p) AS ns, edges(p) AS es MATCH (n:Person)<-/p <:knows :likes>/-(m) WHERE n.name = 'Cid'",
        max_pops: 5,
        expected: "
            m | ns | es
            #n1 | [#n3, #n2, #n1] | [#e17, #e10]
        ",
    },
    Case {
        name: "in_direction_with_a_bound_destination",
        statement: "SELECT n, m, nodes(p) AS ns MATCH (n:Person)-[:likes]->(m)<-/p <:knows :knows*>/-(n)",
        max_pops: 58,
        expected: "
            n | m | ns
            #n2 | #n3 | [#n3, #n1, #n5, #n4, #n2]
            #n3 | #n3 | [#n3, #n1, #n5, #n3]
        ",
    },
    Case {
        name: "undirected_takes_either_reading",
        statement: "SELECT m, nodes(p) AS ns, edges(p) AS es MATCH (n:Person)-/p <:knows :likes>/-(m) WHERE n.name = 'Cid' OR n.name = 'Ann'",
        max_pops: 12,
        expected: "
            m | ns | es
            #n1 | [#n3, #n2, #n1] | [#e17, #e10]
            #n3 | [#n1, #n2, #n3] | [#e10, #e17]
        ",
    },
    Case {
        name: "asymmetric_view_in_direction",
        statement: with_views!("SELECT n, m MATCH (n:Person)<-/<~liked>/-(m)"),
        max_pops: 10,
        expected: "
            n | m
            #n3 | #n2
            #n3 | #n3
        ",
    },
    Case {
        name: "asymmetric_view_in_direction_binds_the_reversed_walk",
        statement: with_views!("SELECT n, m, nodes(p) AS ns, edges(p) AS es MATCH (n:Person)<-/p <~liked ~w>/-(m)"),
        max_pops: 17,
        expected: "
            n | m | ns | es
            #n4 | #n2 | [#n4, #n3, #n2] | [#e13, #e17]
            #n4 | #n3 | [#n4, #n3, #n3] | [#e13, #e18]
            #n5 | #n2 | [#n5, #n3, #n2] | [#e15, #e17]
            #n5 | #n3 | [#n5, #n3, #n3] | [#e15, #e18]
        ",
    },
    Case {
        name: "asymmetric_view_undirected",
        statement: with_views!("SELECT n, m, nodes(p) AS ns MATCH (n:Person)-/p <~liked>/-(m)"),
        max_pops: 10,
        expected: "
            n | m | ns
            #n2 | #n3 | [#n2, #n3]
            #n3 | #n2 | [#n3, #n2]
            #n3 | #n3 | [#n3, #n3]
        ",
    },
    Case {
        name: "reachability_unbound_destination",
        statement: "SELECT n, m MATCH (n:Person)-/<:knows :knows*>/->(m) WHERE n.name = 'Bob' OR n.name = 'Fay'",
        max_pops: 43,
        expected: "
            n | m
            #n2 | #n1
            #n2 | #n2
            #n2 | #n3
            #n2 | #n4
            #n2 | #n5
        ",
    },
    Case {
        name: "reachability_bound_destination",
        statement: "SELECT n, m MATCH (n:Person)-[:knows]->(m)-/<:knows :knows>/->(n)",
        max_pops: 20,
        expected: "
            n | m
            #n1 | #n3
            #n3 | #n5
            #n5 | #n1
        ",
    },
    Case {
        name: "reachability_bound_destination_without_a_walk",
        statement: "SELECT n, m MATCH (n:Person)-[:knows]->(m)-/<:likes*>/->(n)",
        max_pops: 29,
        expected: "
            n | m
        ",
    },
    Case {
        name: "reachability_over_a_view_from_one_source",
        statement: with_views!("SELECT n, m MATCH (n:Person)-/<~two*>/->(m) WHERE n.name = 'Ann'"),
        max_pops: 40,
        expected: "
            n | m
            #n1 | #n1
            #n1 | #n2
            #n1 | #n3
            #n1 | #n4
            #n1 | #n5
        ",
    },
    Case {
        name: "reachability_over_a_view_from_every_source",
        statement: with_views!("SELECT n, m MATCH (n:Person)-/<~liked ~liked*>/->(m)"),
        max_pops: 21,
        expected: "
            n | m
            #n2 | #n3
            #n3 | #n3
        ",
    },
    Case {
        name: "reachability_over_a_view_with_a_bound_destination",
        statement: with_views!("SELECT n, m MATCH (n:Person)-[:likes]->(m)-/<~two ~two>/->(n)"),
        max_pops: 4,
        expected: "
            n | m
            #n2 | #n3
            #n3 | #n3
        ",
    },
    Case {
        name: "k_shortest_toward_a_far_end_filter",
        statement: "SELECT nodes(p) AS ns, edges(p) AS es, c MATCH (n:Person)-/3 SHORTEST p <:knows*> COST c/->(m:Person) WHERE n.name = 'Ann' AND m.name = 'Eve'",
        max_pops: 34,
        expected: "
            ns | es | c
            [#n1, #n2, #n4, #n5] | [#e10, #e12, #e14] | 3
            [#n1, #n3, #n4, #n5] | [#e11, #e13, #e14] | 3
            [#n1, #n3, #n5] | [#e11, #e15] | 2
        ",
    },
    Case {
        name: "weighted_search_toward_a_far_end_filter",
        statement: with_views!("SELECT nodes(p) AS ns, edges(p) AS es, c MATCH (n:Person)-/2 SHORTEST p <~w*> COST c/->(m:Person) WHERE n.name = 'Ann' AND 'Dan' = m.name"),
        max_pops: 37,
        expected: "
            ns | es | c
            [#n1, #n2, #n4] | [#e10, #e12] | 6.0
            [#n1, #n3, #n4] | [#e11, #e13] | 2.0
        ",
    },
    Case {
        name: "far_end_filter_no_node_satisfies",
        statement: "SELECT n, m MATCH (n:Person)-/p <:knows*>/->(m:Person) WHERE n.name = 'Ann' AND m.name = 'Zed'",
        max_pops: 0,
        expected: "
            n | m
        ",
    },
    Case {
        name: "far_end_filter_on_an_unlabeled_destination",
        statement: "SELECT m, nodes(p) AS ns, c MATCH (n:Person)-/2 SHORTEST p <:knows*> COST c/->(m) WHERE n.name = 'Bob' AND m.name = 'Ann'",
        max_pops: 39,
        expected: "
            m | ns | c
            #n1 | [#n2, #n4, #n5, #n1, #n3, #n5, #n1] | 6
            #n1 | [#n2, #n4, #n5, #n1] | 3
        ",
    },
    Case {
        name: "far_end_filter_unreachable_from_the_source",
        statement: "SELECT n, m MATCH (n:Person)-/p <:knows*>/->(m:Person) WHERE n.name = 'Ann' AND m.name = 'Fay'",
        max_pops: 3,
        expected: "
            n | m
        ",
    },
    Case {
        name: "reachability_toward_a_destination_filter",
        statement: "SELECT n, m MATCH (n:Person)-/<:knows*>/->(m:Person) WHERE m.name = 'Dan'",
        max_pops: 45,
        expected: "
            n | m
            #n1 | #n4
            #n2 | #n4
            #n3 | #n4
            #n4 | #n4
            #n5 | #n4
        ",
    },
    Case {
        name: "all_toward_a_far_end_filter",
        statement: "SELECT m, nodes(p) AS ns, edges(p) AS es MATCH (n:Person)-/ALL p <:knows :knows>/->(m) WHERE n.name = 'Ann' AND m.name = 'Dan'",
        max_pops: 9,
        expected: "
            m | ns | es
            #n4 | [#n1, #n2, #n3, #n4] | [#e10, #e11, #e12, #e13]
        ",
    },
];

/// One row per line, indentation and blank lines dropped.
fn lines(text: &str) -> String {
    let trimmed = text.lines().map(str::trim).filter(|l| !l.is_empty());
    trimmed.collect::<Vec<_>>().join("\n")
}

#[test]
fn path_conformance_table() {
    let mut failures = Vec::new();
    for case in CASES {
        let want = lines(case.expected);
        for planner in [true, false] {
            let got = lines(&render(engine(planner).run(case.statement)));
            if got != want {
                failures.push(format!(
                    "--- {} (planner {planner}) ---\n{}\nexpected:\n{want}\ngot:\n{got}\n",
                    case.name, case.statement
                ));
            }
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

#[test]
fn frontier_pops_do_not_rise() {
    let mut failures = Vec::new();
    for case in CASES {
        let (_, profile) = engine(true).profile(case.statement).expect("case runs");
        let got = pops(&profile);
        if got > case.max_pops {
            failures.push(format!("{}: {got} > {}", case.name, case.max_pops));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

/// The statement's `name` counters summed over its spans, `None` when no
/// span reports one.
fn counter(profile: &gcore_repro::engine::obs::QueryProfile, name: &str) -> Option<u64> {
    fn walk(span: &gcore_repro::engine::obs::ProfileSpan, name: &str, sum: &mut Option<u64>) {
        for (k, v) in &span.counters {
            if k == name {
                *sum = Some(sum.unwrap_or(0) + v);
            }
        }
        for child in &span.children {
            walk(child, name, sum);
        }
    }
    let mut sum = None;
    for span in &profile.spans {
        walk(span, name, &mut sum);
    }
    sum
}

#[test]
fn unit_cost_cases_build_no_tie_keys() {
    let mut failures = Vec::new();
    for case in CASES.iter().filter(|c| !c.statement.contains('~')) {
        for planner in [true, false] {
            let (_, profile) = engine(planner).profile(case.statement).expect("case runs");
            if let Some(n) = counter(&profile, "tie_keys") {
                failures.push(format!("{} (planner {planner}): tie_keys={n}", case.name));
            }
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

#[test]
fn far_end_filters_become_targets() {
    for case in CASES.iter().filter(|c| c.name.contains("far_end")) {
        for planner in [true, false] {
            let (_, profile) = engine(planner).profile(case.statement).expect("case runs");
            assert!(
                counter(&profile, "targets").is_some(),
                "{} (planner {planner}) searched without targets",
                case.name
            );
        }
    }
}

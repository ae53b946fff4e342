//! MATCH conformance table (§A.2): a tiny staged catalog, one statement
//! that SELECTs every variable the MATCH binds, the *exact* expected
//! rows.
//!
//! The cases walk the places a WHERE conjunct can be evaluated (while a
//! pattern binds its variable, or on the joined table) and the ways a
//! pattern can be started (label index, every node, or the identifiers an
//! earlier pattern already bound), so a change in *where* a piece of
//! MATCH work happens shows up as a row diff, not as a count that happens
//! to still match. It runs in both planner modes (`GCORE_PLAN=off` in
//! CI): placement and seeding do not depend on the planner.
//!
//! Rendering: a header line, then one line per row, cells joined by
//! ` | `; SELECT sorts its rows, so the order is part of the expectation.
//! Computed paths are selected through `nodes(p)` — the arena index a
//! bare `p` prints depends on how many searches ran before it, which no
//! case may observe; the one CONSTRUCT case pins the identifiers minted
//! for stored copies of such paths instead. An error renders as `ERR`
//! plus its message.

use gcore_repro::engine::{Engine, QueryOutput};
use gcore_repro::ppg::{Attributes, GraphBuilder, IdGen, PathPropertyGraph};

/// The staged catalog. Default graph `g`:
///
/// ```text
/// (1 Ann 30) -10 knows 2010-> (2 Bob 25) -11 knows 2015-> (3 Cid 40) -13 knows 2018-> (4 Dan 35)
/// (1) -12 knows 2012-> (3)
/// (5 :Post en) -14 has_creator-> (1)    (6 :Post nl) -15 has_creator-> (1)
/// (7 :Post en) -16 has_creator-> (3)    (5) -19 tagged-> (9 :Tag jazz)
/// (1) -17 livesIn-> (8 :City Delft)     (4) -18 livesIn-> (8)
/// stored paths :route  20 = 1 -10-> 2 -11-> 3 (hops 2),  21 = 1 -12-> 3 (hops 1)
/// ```
///
/// Graph `h` shares identities with `g` but gives them other attributes,
/// the way the guided tour's `nr_messages` view does for `social_graph`:
/// persons 1 (age 50), 2 (age 20), 3 (age 40) — Dan is absent — and the
/// knows edges 10, 11, 12 with `nr_messages` 3, 0, 7.
///
/// Graph `loops` is built by [`loops`].
fn staged(ids: &IdGen) -> (PathPropertyGraph, PathPropertyGraph) {
    let person = |name: &str, age: i64| {
        Attributes::labeled("Person")
            .with_prop("name", name)
            .with_prop("age", age)
    };
    let mut b = GraphBuilder::new(ids.clone());
    let ann = b.node_with_id(1, person("Ann", 30));
    let bob = b.node_with_id(2, person("Bob", 25));
    let cid = b.node_with_id(3, person("Cid", 40));
    let dan = b.node_with_id(4, person("Dan", 35));
    let post = |lang: &str| Attributes::labeled("Post").with_prop("lang", lang);
    let p5 = b.node_with_id(5, post("en"));
    let p6 = b.node_with_id(6, post("nl"));
    let p7 = b.node_with_id(7, post("en"));
    let delft = b.node_with_id(8, Attributes::labeled("City").with_prop("name", "Delft"));
    let jazz = b.node_with_id(9, Attributes::labeled("Tag").with_prop("name", "jazz"));
    let knows = |since: i64| Attributes::labeled("knows").with_prop("since", since);
    let e10 = b.edge_with_id(10, ann, bob, knows(2010)).unwrap();
    let e11 = b.edge_with_id(11, bob, cid, knows(2015)).unwrap();
    let e12 = b.edge_with_id(12, ann, cid, knows(2012)).unwrap();
    b.edge_with_id(13, cid, dan, knows(2018)).unwrap();
    let creator = || Attributes::labeled("has_creator");
    b.edge_with_id(14, p5, ann, creator()).unwrap();
    b.edge_with_id(15, p6, ann, creator()).unwrap();
    b.edge_with_id(16, p7, cid, creator()).unwrap();
    let lives = || Attributes::labeled("livesIn");
    b.edge_with_id(17, ann, delft, lives()).unwrap();
    b.edge_with_id(18, dan, delft, lives()).unwrap();
    b.edge_with_id(19, p5, jazz, Attributes::labeled("tagged"))
        .unwrap();
    let route = |hops: i64| Attributes::labeled("route").with_prop("hops", hops);
    b.path_with_id(20, vec![ann, bob, cid], vec![e10, e11], route(2))
        .unwrap();
    b.path_with_id(21, vec![ann, cid], vec![e12], route(1))
        .unwrap();
    let g = b.build();

    let mut b = GraphBuilder::new(ids.clone());
    let ann = b.node_with_id(1, person("Ann", 50));
    let bob = b.node_with_id(2, person("Bob", 20));
    let cid = b.node_with_id(3, person("Cid", 40));
    let chatty = |n: i64| Attributes::labeled("knows").with_prop("nr_messages", n);
    b.edge_with_id(10, ann, bob, chatty(3)).unwrap();
    b.edge_with_id(11, bob, cid, chatty(0)).unwrap();
    b.edge_with_id(12, ann, cid, chatty(7)).unwrap();
    (g, b.build())
}

/// Graph `loops`, where undirected steps meet a self-loop:
///
/// ```text
/// (1 a) -10 knows-> (1)    (1) -12 knows-> (3 c)    (3) -13 likes-> (1)
/// stored path :trip  20 = 1 -12-> 3
/// ```
///
/// It reuses identifiers of `g`, so that registering it leaves the next
/// fresh identifier at 22 (the CONSTRUCT case pins minted identifiers);
/// no case reads `loops` together with another graph.
fn loops(ids: &IdGen) -> PathPropertyGraph {
    let mut b = GraphBuilder::new(ids.clone());
    let a = b.node_with_id(1, Attributes::labeled("Node"));
    let c = b.node_with_id(3, Attributes::labeled("Node"));
    b.edge_with_id(10, a, a, Attributes::labeled("knows"))
        .unwrap();
    let ac = b
        .edge_with_id(12, a, c, Attributes::labeled("knows"))
        .unwrap();
    b.edge_with_id(13, c, a, Attributes::labeled("likes"))
        .unwrap();
    b.path_with_id(20, vec![a, c], vec![ac], Attributes::labeled("trip"))
        .unwrap();
    b.build()
}

/// A table as text, or — for the CONSTRUCT case — the stored paths of
/// the result graph, one `/p<id> n[…] e[…]/` line each.
fn run(statement: &str) -> String {
    let mut engine = Engine::new();
    let (g, h) = staged(&engine.catalog().ids().clone());
    engine.register_graph("g", g);
    engine.register_graph("h", h);
    engine.register_graph("loops", loops(&engine.catalog().ids().clone()));
    engine.set_default_graph("g");
    match engine.run(statement) {
        Ok(QueryOutput::Table(t)) => {
            let mut out = t.columns().join(" | ") + "\n";
            for row in t.rows() {
                let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
                out += &(cells.join(" | ") + "\n");
            }
            out
        }
        Ok(QueryOutput::Graph(g)) => {
            let mut out = String::new();
            for p in g.path_ids_sorted() {
                let shape = &g.path(p).unwrap().shape;
                let ns: Vec<u64> = shape.nodes().iter().map(|n| n.raw()).collect();
                let es: Vec<u64> = shape.edges().iter().map(|e| e.raw()).collect();
                out += &format!("/p{} n{ns:?} e{es:?}/\n", p.raw());
            }
            out
        }
        Err(e) => format!("ERR {e}\n"),
    }
}

struct Case {
    name: &'static str,
    statement: &'static str,
    expected: &'static str,
}

const CASES: &[Case] = &[
    // -- where a conjunct is evaluated ---------------------------------
    Case {
        name: "conjunct_on_a_node_variable",
        statement: "SELECT n, m MATCH (n:Person)-[:knows]->(m) WHERE n.age >= 30",
        expected: "
            n | m
            #n1 | #n2
            #n1 | #n3
            #n3 | #n4
        ",
    },
    Case {
        name: "conjunct_on_the_far_node_of_a_step",
        statement: "SELECT n, m MATCH (n:Person)-[:knows]->(m) WHERE m.age > 30 AND (m:Person)",
        expected: "
            n | m
            #n1 | #n3
            #n2 | #n3
            #n3 | #n4
        ",
    },
    Case {
        name: "conjunct_on_an_edge_variable",
        statement: "SELECT n, e, m MATCH (n)-[e:knows]->(m) WHERE e.since > 2011",
        expected: "
            n | e | m
            #n1 | #e12 | #n3
            #n2 | #e11 | #n3
            #n3 | #e13 | #n4
        ",
    },
    Case {
        name: "conjunct_on_a_stored_path_variable",
        statement: "SELECT a, p, b MATCH (a)-/@p:route/->(b) WHERE p.hops = 2",
        expected: "
            a | p | b
            #n1 | #p20 | #n3
        ",
    },
    Case {
        name: "conjunct_on_a_cost_variable",
        statement: "SELECT a, nodes(p) AS walk, c, b MATCH (a:Person)-/p <:knows*> COST c/->(b:Person) WHERE c >= 2",
        expected: "
            a | walk | c | b
            #n1 | [#n1, #n3, #n4] | 2 | #n4
            #n2 | [#n2, #n3, #n4] | 2 | #n4
        ",
    },
    Case {
        name: "conjunct_on_a_value_variable",
        statement: "SELECT n, a MATCH (n:Person {age = a}) WHERE a > 28",
        expected: "
            n | a
            #n1 | 30
            #n3 | 40
            #n4 | 35
        ",
    },
    Case {
        name: "conjunct_mixing_a_one_variable_and_a_two_variable_part",
        statement: "SELECT n, m MATCH (n:Person)-[:knows]->(m:Person) WHERE n.age > 26 AND n.age < m.age",
        expected: "
            n | m
            #n1 | #n3
        ",
    },
    Case {
        name: "disjunction_over_one_variable",
        statement: "SELECT n MATCH (n:Person) WHERE n.age < 28 OR n.name = 'Dan'",
        expected: "
            n
            #n2
            #n4
        ",
    },
    Case {
        name: "runtime_error_only_on_rows_another_conjunct_removes",
        statement: "SELECT n, m MATCH (n:Person)-[:knows]->(m:Person) WHERE 100 / (n.age - 25) > m.age - 40 AND n.age <> 25",
        expected: "
            n | m
            #n1 | #n2
            #n1 | #n3
            #n3 | #n4
        ",
    },
    Case {
        name: "runtime_error_on_a_surviving_row_surfaces",
        statement: "SELECT n, m MATCH (n:Person)-[:knows]->(m:Person) WHERE 100 / (n.age - 25) > m.age - 40",
        expected: "
            ERR runtime error: division by zero
        ",
    },
    Case {
        name: "attribute_access_through_a_non_variable_base",
        statement: "SELECT a, p, b MATCH (a)-/@p:route/->(b) WHERE nodes(p)[1].age < 30",
        expected: "
            a | p | b
            #n1 | #p20 | #n3
        ",
    },
    // -- one identity, two graphs --------------------------------------
    Case {
        name: "same_variable_on_two_graphs_filters_in_both",
        statement: "SELECT n, m MATCH (n:Person)-[:knows]->(m) ON g, (n) ON h WHERE n.age < 45",
        expected: "
            n | m
            #n2 | #n3
            #n3 | #n4
        ",
    },
    Case {
        name: "same_variable_on_two_graphs_other_order",
        statement: "SELECT n, m MATCH (n) ON h, (n:Person)-[:knows]->(m) ON g WHERE n.age > 35",
        expected: "
            n | m
            #n3 | #n4
        ",
    },
    Case {
        name: "edge_attribute_only_the_view_has",
        statement: "SELECT n, e, m MATCH (n)-[e:knows]->(m) ON h WHERE e.nr_messages > 0 AND n.age > 30",
        expected: "
            n | e | m
            #n1 | #e10 | #n2
            #n1 | #e12 | #n3
        ",
    },
    // -- how a later pattern is started --------------------------------
    Case {
        name: "later_pattern_starts_at_a_bound_variable",
        statement: "SELECT n, m, c MATCH (n:Person)-[:knows]->(m), (m)-[:livesIn]->(c)",
        expected: "
            n | m | c
            #n3 | #n4 | #n8
        ",
    },
    Case {
        name: "later_pattern_rechecks_labels_on_the_bound_variable",
        statement: "SELECT a, e, m, c MATCH (a)-[e]->(m), (m:Person)-[:livesIn]->(c)",
        expected: "
            a | e | m | c
            #n3 | #e13 | #n4 | #n8
            #n5 | #e14 | #n1 | #n8
            #n6 | #e15 | #n1 | #n8
        ",
    },
    Case {
        name: "later_pattern_on_a_graph_lacking_some_bound_nodes",
        statement: "SELECT n, m, e, k MATCH (n:Person)-[:knows]->(m) ON g, (m)-[e:knows]->(k) ON h",
        expected: "
            n | m | e | k
            #n1 | #n2 | #e11 | #n3
        ",
    },
    Case {
        name: "later_pattern_with_a_conjunct_on_its_bound_start",
        statement: "SELECT n, m, k MATCH (n:Person)-[:knows]->(m), (m)-[:knows]->(k) WHERE m.age < 40 AND k.age > 30",
        expected: "
            n | m | k
            #n1 | #n2 | #n3
        ",
    },
    Case {
        name: "later_pattern_with_a_computed_path_step",
        statement: "SELECT a, x, nodes(p) AS walk, c MATCH (a:Person)-[:livesIn]->(x), (a)-/p <:knows*>/->(c:Person)",
        expected: "
            a | x | walk | c
            #n1 | #n8 | [#n1, #n2] | #n2
            #n1 | #n8 | [#n1, #n3, #n4] | #n4
            #n1 | #n8 | [#n1, #n3] | #n3
            #n1 | #n8 | [#n1] | #n1
            #n4 | #n8 | [#n4] | #n4
        ",
    },
    Case {
        name: "computed_paths_of_a_later_pattern_mint_in_order",
        statement: "CONSTRUCT (a)-/@p:sp/->(c) MATCH (a:Person)-[:livesIn]->(x), (a)-/p <:knows*>/->(c:Person)",
        expected: "
            /p22 n[1] e[]/
            /p23 n[1, 2] e[10]/
            /p24 n[1, 3] e[12]/
            /p25 n[1, 3, 4] e[12, 13]/
            /p26 n[4] e[]/
        ",
    },
    // -- OPTIONAL ------------------------------------------------------
    Case {
        name: "optional_shares_its_start_variable_with_the_main_clause",
        statement: "SELECT n, msg MATCH (n:Person) OPTIONAL (n)<-[:has_creator]-(msg:Post)",
        expected: "
            n | msg
            #n1 | #n5
            #n1 | #n6
            #n2 | NULL
            #n3 | #n7
            #n4 | NULL
        ",
    },
    Case {
        name: "optional_with_conjuncts_on_both_clauses",
        statement: "SELECT n, msg MATCH (n:Person) WHERE n.age >= 30 OPTIONAL (n)<-[:has_creator]-(msg:Post) WHERE msg.lang = 'en'",
        expected: "
            n | msg
            #n1 | #n5
            #n3 | #n7
            #n4 | NULL
        ",
    },
    Case {
        name: "optional_whose_shared_variable_is_the_chains_last_node",
        statement: "SELECT n, msg MATCH (n:Person) OPTIONAL (msg:Post)-[:has_creator]->(n)",
        expected: "
            n | msg
            #n1 | #n5
            #n1 | #n6
            #n2 | NULL
            #n3 | #n7
            #n4 | NULL
        ",
    },
    Case {
        name: "optional_block_of_two_patterns_joined_on_its_own_variable",
        statement: "SELECT n, msg, t MATCH (n:Person) OPTIONAL (n)<-[:has_creator]-(msg:Post), (msg)-[:tagged]->(t)",
        expected: "
            n | msg | t
            #n1 | #n5 | #n9
            #n2 | NULL | NULL
            #n3 | NULL | NULL
            #n4 | NULL | NULL
        ",
    },
    Case {
        name: "optional_after_optional_starts_at_the_main_variable",
        statement: "SELECT n, c, msg MATCH (n:Person) OPTIONAL (n)-[:livesIn]->(c) OPTIONAL (n)<-[:has_creator]-(msg)",
        expected: "
            n | c | msg
            #n1 | #n8 | #n5
            #n1 | #n8 | #n6
            #n2 | NULL | NULL
            #n3 | NULL | #n7
            #n4 | #n8 | NULL
        ",
    },
    // A column an earlier OPTIONAL pads with unbound cells can never
    // start a later block: the analyzer rejects the statement.
    Case {
        name: "optional_cannot_start_at_a_variable_only_an_earlier_optional_binds",
        statement: "SELECT n, c, x MATCH (n:Person) OPTIONAL (n)-[:livesIn]->(c) OPTIONAL (c)<-[:livesIn]-(x)",
        expected: "
            ERR semantic error: 1 static error (run `check` for full diagnostics)
            [E003] variable 'c' is shared between OPTIONAL blocks but missing from the enclosing pattern
        ",
    },
    // -- correlated subqueries -----------------------------------------
    Case {
        name: "exists_whose_conjunct_names_only_the_outer_variable",
        statement: "SELECT n MATCH (n:Person) WHERE EXISTS (CONSTRUCT () MATCH (n)-[:knows]->(m) WHERE n.age > 28)",
        expected: "
            n
            #n1
            #n3
        ",
    },
    Case {
        name: "exists_whose_conjunct_names_a_variable_it_does_not_bind",
        statement: "SELECT n, k MATCH (n:Person), (k:City) WHERE EXISTS (CONSTRUCT () MATCH (n)-[:livesIn]->(c) WHERE k.name = 'Delft')",
        expected: "
            n | k
            #n1 | #n8
            #n4 | #n8
        ",
    },
    // -- steps over a self-loop (graph `loops`) ------------------------
    Case {
        name: "undirected_step_takes_a_self_loop_once",
        statement: "SELECT x, y MATCH (x)-[:knows]-(y) ON loops",
        expected: "
            x | y
            #n1 | #n1
            #n1 | #n3
            #n3 | #n1
        ",
    },
    Case {
        name: "undirected_step_back_to_its_own_start",
        statement: "SELECT x, e MATCH (x)-[e:knows]-(x) ON loops",
        expected: "
            x | e
            #n1 | #e10
        ",
    },
    Case {
        name: "incoming_step_under_a_label_disjunction_keeps_the_self_loop",
        statement: "SELECT x, y MATCH (x)<-[:knows|likes]-(y) ON loops",
        expected: "
            x | y
            #n1 | #n1
            #n1 | #n3
            #n3 | #n1
        ",
    },
    Case {
        name: "undirected_unlabelled_steps_counted",
        statement: "SELECT COUNT(*) AS n MATCH (x)-[e]-(y) ON loops",
        expected: "
            n
            5
        ",
    },
    Case {
        name: "label_disjunction_with_an_unknown_label",
        statement: "SELECT x, e, y MATCH (x)-[e:nosuch|knows]->(y) ON loops",
        expected: "
            x | e | y
            #n1 | #e10 | #n1
            #n1 | #e12 | #n3
        ",
    },
    Case {
        name: "undirected_step_over_an_already_bound_edge",
        statement: "SELECT x, e, y MATCH (x)-[e:knows]->(y) ON loops, (y)-[e]-(x) ON loops",
        expected: "
            x | e | y
            #n1 | #e10 | #n1
            #n1 | #e12 | #n3
        ",
    },
    Case {
        name: "undirected_stored_path_with_both_ends_bound",
        statement: "SELECT x, p, y MATCH (x)-[:knows]->(y) ON loops, (y)-/@p:trip/-(x) ON loops",
        expected: "
            x | p | y
            #n1 | #p20 | #n3
        ",
    },
    // -- labels and property entries tested on each candidate ----------
    Case {
        name: "far_end_label_disjunction",
        statement: "SELECT x, y MATCH (x)-[]->(y:City|Tag)",
        expected: "
            x | y
            #n1 | #n8
            #n4 | #n8
            #n5 | #n9
        ",
    },
    Case {
        name: "far_end_with_two_label_groups",
        statement: "SELECT x, y MATCH (x)-[]->(y:Person|Tag :Tag|City)",
        expected: "
            x | y
            #n5 | #n9
        ",
    },
    Case {
        name: "edge_label_beyond_its_first_group",
        statement: "SELECT x, e, y MATCH (x)-[e:has_creator|livesIn :livesIn|tagged]->(y)",
        expected: "
            x | e | y
            #n1 | #e17 | #n8
            #n4 | #e18 | #n8
        ",
    },
    Case {
        name: "edge_label_group_beyond_an_indexed_first_label",
        statement: "SELECT x, e, y MATCH (x)-[e:knows :knows|tagged]->(y:Person :Person)",
        expected: "
            x | e | y
            #n1 | #e10 | #n2
            #n1 | #e12 | #n3
            #n2 | #e11 | #n3
            #n3 | #e13 | #n4
        ",
    },
    Case {
        name: "literal_entries_on_an_edge_and_its_far_end",
        statement: "SELECT x, e, y MATCH (x)-[e:knows {since = 2012}]->(y {name = 'Cid'})",
        expected: "
            x | e | y
            #n1 | #e12 | #n3
        ",
    },
    Case {
        name: "entries_read_from_the_input_row",
        statement: "SELECT x, y, e, z MATCH (x:Person)-[:knows]->(y)-[e:knows {since = y.age + 1990}]->(z {age = x.age + 10})",
        expected: "
            x | y | e | z
            #n1 | #n2 | #e11 | #n3
        ",
    },
    Case {
        name: "far_end_entry_read_from_the_input_row",
        statement: "SELECT x, y, z MATCH (x:Person)-[:knows]->(y)-[:knows]->(z {age = x.age + 10})",
        expected: "
            x | y | z
            #n1 | #n2 | #n3
            #n2 | #n3 | #n4
        ",
    },
    Case {
        name: "far_end_entry_read_from_the_steps_own_edge",
        statement: "SELECT x, e, y MATCH (x)-[e:knows]->(y {age = e.since - 1975})",
        expected: "
            x | e | y
            #n2 | #e11 | #n3
        ",
    },
    Case {
        name: "edge_entry_read_from_the_edge_itself",
        statement: "SELECT x, e MATCH (x)-[e:knows {since = e.since}]->(y:Person {age = 35})",
        expected: "
            x | e
            #n3 | #e13
        ",
    },
    Case {
        name: "binding_entry_on_an_edge",
        statement: "SELECT x, s, y MATCH (x:Person)-[:knows {since = s}]->(y) WHERE s > 2011",
        expected: "
            x | s | y
            #n1 | 2012 | #n3
            #n2 | 2015 | #n3
            #n3 | 2018 | #n4
        ",
    },
    Case {
        name: "far_end_entry_read_from_a_value_the_edge_binds",
        statement: "SELECT x, s, y MATCH (x)-[:knows {since = s}]->(y {age = s - 1975})",
        expected: "
            x | s | y
            #n2 | 2015 | #n3
        ",
    },
    Case {
        name: "stored_path_with_far_end_labels_and_entries",
        statement: "SELECT p, b MATCH (a:Person {age = 30})-/@p:route/->(b:Person {age = a.age + 10})",
        expected: "
            p | b
            #p20 | #n3
            #p21 | #n3
        ",
    },
    Case {
        name: "stored_path_whose_far_end_fails_its_labels",
        statement: "SELECT p MATCH (a)-/@p:route/->(b:City|Post)",
        expected: "
            p
        ",
    },
    Case {
        name: "computed_path_with_far_end_labels_and_entries",
        statement: "SELECT a, nodes(p) AS walk, b MATCH (a:Person {name = 'Ann'})-/p <:knows*>/->(b:Person|Post {age = 35})",
        expected: "
            a | walk | b
            #n1 | [#n1, #n3, #n4] | #n4
        ",
    },
    Case {
        name: "computed_path_far_end_entry_read_from_the_input_row",
        statement: "SELECT a, nodes(p) AS walk, b MATCH (a:Person)-/p <:knows*>/->(b {age = a.age})",
        expected: "
            a | walk | b
            #n1 | [#n1] | #n1
            #n2 | [#n2] | #n2
            #n3 | [#n3] | #n3
            #n4 | [#n4] | #n4
        ",
    },
    Case {
        name: "labels_that_are_not_interned",
        statement: "SELECT x, y MATCH (x)-[]->(y:Nosuch|City)",
        expected: "
            x | y
            #n1 | #n8
            #n4 | #n8
        ",
    },
    Case {
        name: "a_label_group_of_labels_that_are_not_interned",
        statement: "SELECT x, y MATCH (x:Person)-[:knows]->(y:Person :Nosuch)",
        expected: "
            x | y
        ",
    },
];

/// One row per line, indentation and blank lines dropped.
fn lines(text: &str) -> String {
    let trimmed = text.lines().map(str::trim).filter(|l| !l.is_empty());
    trimmed.collect::<Vec<_>>().join("\n")
}

#[test]
fn match_conformance_table() {
    let mut failures = Vec::new();
    for case in CASES {
        let (got, want) = (lines(&run(case.statement)), lines(case.expected));
        if got != want {
            failures.push(format!(
                "--- {} ---\n{}\nexpected:\n{want}\ngot:\n{got}\n",
                case.name, case.statement
            ));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

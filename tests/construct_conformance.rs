//! CONSTRUCT conformance table (§A.3): a tiny staged graph, one
//! statement, the *exact* expected graph — minted identifiers included.
//!
//! Each case runs on a fresh engine, so the skolem function `new(x, Γ)`
//! starts from the same generator state and the identifiers it mints are
//! part of the expectation: a change in grouping order, in which groups
//! reach the skolem map, or in what a `WHEN` keeps shows up as a diff in
//! the rendered graph, not as a count that happens to still match.
//!
//! Rendering: one line per element in identifier order — `(n1 :L {k=[v]})`
//! for nodes, `[e10 n1->n2 :L {…}]` for edges, `/p20 n[1, 2] e[10] :L {…}/`
//! for stored paths; labels and keys sorted. An error renders as `ERR`
//! plus its message.

use gcore_repro::engine::Engine;
use gcore_repro::ppg::{Attributes, GraphBuilder, IdGen, PathPropertyGraph, PropertySet, Value};

/// The staged dataset:
///
/// ```text
/// (1 Ann, employer MIT) -10 knows-> (2 Bob, employer {CWI, MIT}) -11 knows-> (3 Cid)
/// (1) -12 knows-> (3)        (1) -13 livesIn-> (4 :City Delft)
/// (5 Dan, employer {CWI, MIT}), no edges
/// stored paths :route  20 = 1 -10-> 2 -11-> 3 (hops 2),  21 = 1 -12-> 3 (hops 1)
/// ```
///
/// Ann is matched first and interns "MIT" before Bob interns "CWI", so a
/// grouping that ordered literal cells by interning order instead of
/// value order would mint Bob's and Dan's per-binding elements the other
/// way round.
fn staged(ids: &IdGen) -> PathPropertyGraph {
    let mut b = GraphBuilder::new(ids.clone());
    let person = |name: &str| Attributes::labeled("Person").with_prop("name", name);
    let ann = b.node_with_id(1, person("Ann").with_prop("employer", "MIT"));
    let both = || PropertySet::from_values(vec![Value::str("CWI"), Value::str("MIT")]);
    let bob = b.node_with_id(2, person("Bob").with_prop_set("employer", both()));
    let cid = b.node_with_id(3, person("Cid"));
    let delft = b.node_with_id(4, Attributes::labeled("City").with_prop("name", "Delft"));
    b.node_with_id(5, person("Dan").with_prop_set("employer", both()));
    let knows = || Attributes::labeled("knows");
    let e10 = b.edge_with_id(10, ann, bob, knows()).unwrap();
    let e11 = b.edge_with_id(11, bob, cid, knows()).unwrap();
    let e12 = b.edge_with_id(12, ann, cid, knows()).unwrap();
    b.edge_with_id(13, ann, delft, Attributes::labeled("livesIn"))
        .unwrap();
    let route = |hops: i64| Attributes::labeled("route").with_prop("hops", hops);
    b.path_with_id(20, vec![ann, bob, cid], vec![e10, e11], route(2))
        .unwrap();
    b.path_with_id(21, vec![ann, cid], vec![e12], route(1))
        .unwrap();
    b.build()
}

fn render_attrs(a: &Attributes) -> String {
    let mut labels = a.labels.names();
    labels.sort();
    let mut props: Vec<String> = a
        .properties
        .iter()
        .map(|(k, vs)| {
            let mut vals: Vec<String> = vs.iter().map(|v| v.to_string()).collect();
            vals.sort();
            format!("{}=[{}]", k.name(), vals.join(", "))
        })
        .collect();
    props.sort();
    let labels: Vec<String> = labels.iter().map(|l| format!(":{l} ")).collect();
    format!("{}{{{}}}", labels.concat(), props.join(", "))
}

fn render(g: &PathPropertyGraph) -> String {
    let mut out = String::new();
    for n in g.node_ids_sorted() {
        let attrs = &g.node(n).unwrap().attrs;
        out += &format!("(n{} {})\n", n.raw(), render_attrs(attrs));
    }
    for e in g.edge_ids_sorted() {
        let d = g.edge(e).unwrap();
        out += &format!(
            "[e{} n{}->n{} {}]\n",
            e.raw(),
            d.src.raw(),
            d.dst.raw(),
            render_attrs(&d.attrs)
        );
    }
    for p in g.path_ids_sorted() {
        let d = g.path(p).unwrap();
        let ns: Vec<u64> = d.shape.nodes().iter().map(|n| n.raw()).collect();
        let es: Vec<u64> = d.shape.edges().iter().map(|e| e.raw()).collect();
        out += &format!(
            "/p{} n{ns:?} e{es:?} {}/\n",
            p.raw(),
            render_attrs(&d.attrs)
        );
    }
    out
}

fn run(statement: &str) -> String {
    let mut engine = Engine::new();
    let graph = staged(&engine.catalog().ids().clone());
    engine.register_graph("g", graph);
    engine.set_default_graph("g");
    match engine.query_graph(statement) {
        Ok(g) => {
            g.validate().expect("a constructed graph is well-formed");
            render(&g)
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
    Case {
        name: "when_on_aggregate_property_kills_group_and_its_edge",
        statement: "CONSTRUCT (c GROUP e :Company {name := e, staff := COUNT(*)})<-[:worksAt]-(n) WHEN c.staff > 2 MATCH (n:Person {employer = e})",
        expected: "
            (n1 :Person {employer=[MIT], name=[Ann]})
            (n2 :Person {employer=[CWI, MIT], name=[Bob]})
            (n5 :Person {employer=[CWI, MIT], name=[Dan]})
            (n23 :Company {name=[MIT], staff=[3]})
            [e24 n1->n23 :worksAt {}]
            [e26 n2->n23 :worksAt {}]
            [e28 n5->n23 :worksAt {}]
        ",
    },
    Case {
        name: "when_aggregate_folds_over_each_elements_rows",
        statement: "CONSTRUCT (c GROUP e :Company {name := e})<-[:worksAt]-(n) WHEN COUNT(*) > 1 MATCH (n:Person {employer = e})",
        expected: "
            (n2 :Person {employer=[CWI, MIT], name=[Bob]})
            (n5 :Person {employer=[CWI, MIT], name=[Dan]})
            (n22 :Company {name=[CWI]})
            (n23 :Company {name=[MIT]})
        ",
    },
    Case {
        name: "when_independent_of_groups_false_is_nothing",
        statement: "CONSTRUCT (n)-[:fof]->(k) WHEN 1 = 2 MATCH (n)-[:knows]->(m)-[:knows]->(k)",
        expected: "",
    },
    Case {
        name: "when_independent_of_groups_true_is_everything",
        statement: "CONSTRUCT (n)-[:fof]->(k) WHEN 1 = 1 MATCH (n)-[:knows]->(m)-[:knows]->(k)",
        expected: "
            (n1 :Person {employer=[MIT], name=[Ann]})
            (n3 :Person {name=[Cid]})
            [e22 n1->n3 :fof {}]
        ",
    },
    Case {
        name: "when_only_filters_its_own_pattern",
        statement: "CONSTRUCT (n)-[:fof]->(k) WHEN 1 = 2, (m :Mid) MATCH (n)-[:knows]->(m)-[:knows]->(k)",
        expected: "
            (n2 :Mid :Person {employer=[CWI, MIT], name=[Bob]})
        ",
    },
    Case {
        name: "when_on_stored_path_pattern",
        statement: "CONSTRUCT (a)-/@p/->(b) WHEN p.hops = 2 MATCH (a)-/@p:route/->(b)",
        expected: "
            (n1 :Person {employer=[MIT], name=[Ann]})
            (n2 :Person {employer=[CWI, MIT], name=[Bob]})
            (n3 :Person {name=[Cid]})
            [e10 n1->n2 :knows {}]
            [e11 n2->n3 :knows {}]
            /p20 n[1, 2, 3] e[10, 11] :route {hops=[2]}/
        ",
    },
    Case {
        name: "when_on_fresh_stored_path_keeps_shared_walk_members",
        statement: "CONSTRUCT (a)-/@p:sp/->(b) WHEN b.name = 'Cid' MATCH (a:Person)-/p <:knows*>/->(b:Person) WHERE a.name = 'Ann'",
        expected: "
            (n1 :Person {employer=[MIT], name=[Ann]})
            (n3 :Person {name=[Cid]})
            [e12 n1->n3 :knows {}]
            /p24 n[1, 3] e[12] :sp {}/
        ",
    },
    Case {
        name: "unbound_optional_variable_in_template",
        statement: "CONSTRUCT (n)-[:home]->(c) MATCH (n:Person) OPTIONAL (n)-[:livesIn]->(c)",
        expected: "
            (n1 :Person {employer=[MIT], name=[Ann]})
            (n2 :Person {employer=[CWI, MIT], name=[Bob]})
            (n3 :Person {name=[Cid]})
            (n4 :City {name=[Delft]})
            (n5 :Person {employer=[CWI, MIT], name=[Dan]})
            [e22 n1->n4 :home {}]
        ",
    },
    Case {
        name: "multi_valued_property_union",
        statement: "CONSTRUCT (x GROUP n :Emp {who := n.name, at := e}) MATCH (n:Person {employer = e})",
        expected: "
            (n22 :Emp {at=[MIT], who=[Ann]})
            (n23 :Emp {at=[CWI, MIT], who=[Bob]})
            (n24 :Emp {at=[CWI, MIT], who=[Dan]})
        ",
    },
    Case {
        name: "unbound_variable_shared_by_two_patterns",
        statement: "CONSTRUCT (x GROUP e :Company {name := e}), (x)<-[:worksAt]-(n) MATCH (n:Person {employer = e})",
        expected: "
            (n1 :Person {employer=[MIT], name=[Ann]})
            (n2 :Person {employer=[CWI, MIT], name=[Bob]})
            (n5 :Person {employer=[CWI, MIT], name=[Dan]})
            (n22 :Company {name=[CWI]})
            (n23 :Company {name=[MIT]})
            [e24 n1->n23 :worksAt {}]
            [e25 n2->n22 :worksAt {}]
            [e26 n2->n23 :worksAt {}]
            [e27 n5->n22 :worksAt {}]
            [e28 n5->n23 :worksAt {}]
        ",
    },
    Case {
        name: "group_conflict",
        statement: "CONSTRUCT (x GROUP e :Company), (x GROUP n)<-[:worksAt]-(n) MATCH (n:Person {employer = e})",
        expected: "
            ERR semantic error: 1 static error (run `check` for full diagnostics)
            [E007] construct variable 'x' has two different GROUP clauses
        ",
    },
    Case {
        name: "per_binding_skolems_mint_in_value_order",
        statement: "CONSTRUCT (v :Marker {emp := e})-[:of]->(n) MATCH (n:Person {employer = e})",
        expected: "
            (n1 :Person {employer=[MIT], name=[Ann]})
            (n2 :Person {employer=[CWI, MIT], name=[Bob]})
            (n5 :Person {employer=[CWI, MIT], name=[Dan]})
            (n22 :Marker {emp=[MIT]})
            (n23 :Marker {emp=[CWI]})
            (n24 :Marker {emp=[MIT]})
            (n25 :Marker {emp=[CWI]})
            (n26 :Marker {emp=[MIT]})
            [e27 n22->n1 :of {}]
            [e28 n23->n2 :of {}]
            [e29 n24->n2 :of {}]
            [e30 n25->n5 :of {}]
            [e31 n26->n5 :of {}]
        ",
    },
    Case {
        name: "bound_edge_identity_and_copy",
        statement: "CONSTRUCT (n)-[e]->(m), (m)-[=e :back]->(n) MATCH (n)-[e:knows]->(m) WHERE m.name = 'Cid'",
        expected: "
            (n1 :Person {employer=[MIT], name=[Ann]})
            (n2 :Person {employer=[CWI, MIT], name=[Bob]})
            (n3 :Person {name=[Cid]})
            [e11 n2->n3 :knows {}]
            [e12 n1->n3 :knows {}]
            [e22 n3->n1 :back :knows {}]
            [e23 n3->n2 :back :knows {}]
        ",
    },
    Case {
        name: "edge_group_expression",
        statement: "CONSTRUCT (n)-[r GROUP e :sameEmployer {at := e}]->(m) MATCH (n:Person {employer = e}), (m:Person {employer = e}) WHERE n.name < m.name",
        expected: "
            (n1 :Person {employer=[MIT], name=[Ann]})
            (n2 :Person {employer=[CWI, MIT], name=[Bob]})
            (n5 :Person {employer=[CWI, MIT], name=[Dan]})
            [e22 n1->n2 :sameEmployer {at=[MIT]}]
            [e23 n1->n5 :sameEmployer {at=[MIT]}]
            [e24 n2->n5 :sameEmployer {at=[CWI]}]
            [e25 n2->n5 :sameEmployer {at=[MIT]}]
        ",
    },
    Case {
        name: "set_and_remove_on_grouped_elements",
        statement: "CONSTRUCT (n)-[r:colleague]->(m) SET r.since := 2018 SET m :Seen REMOVE n.employer MATCH (n:Person {employer = e}), (m:Person {employer = e}) WHERE n.name < m.name",
        expected: "
            (n1 :Person {name=[Ann]})
            (n2 :Person :Seen {employer=[CWI, MIT], name=[Bob]})
            (n5 :Person :Seen {employer=[CWI, MIT], name=[Dan]})
            [e22 n1->n2 :colleague {since=[2018]}]
            [e23 n1->n5 :colleague {since=[2018]}]
            [e24 n2->n5 :colleague {since=[2018]}]
        ",
    },
    Case {
        name: "all_paths_projection",
        statement: "CONSTRUCT (a)-/p/->(b) MATCH (a)-/ALL p <:knows*>/->(b) WHERE a.name = 'Ann' AND b.name = 'Cid'",
        expected: "
            (n1 :Person {employer=[MIT], name=[Ann]})
            (n2 :Person {employer=[CWI, MIT], name=[Bob]})
            (n3 :Person {name=[Cid]})
            [e10 n1->n2 :knows {}]
            [e11 n2->n3 :knows {}]
            [e12 n1->n3 :knows {}]
        ",
    },
    Case {
        name: "stored_paths_sharing_prefixes",
        statement: "CONSTRUCT (a)-/@p:sp {hops := length(p)}/->(b) MATCH (a:Person)-/2 SHORTEST p <:knows*>/->(b:Person) WHERE a.name = 'Ann'",
        expected: "
            (n1 :Person {employer=[MIT], name=[Ann]})
            (n2 :Person {employer=[CWI, MIT], name=[Bob]})
            (n3 :Person {name=[Cid]})
            [e10 n1->n2 :knows {}]
            [e11 n2->n3 :knows {}]
            [e12 n1->n3 :knows {}]
            /p22 n[1] e[] :sp {hops=[0]}/
            /p23 n[1, 2] e[10] :sp {hops=[1]}/
            /p24 n[1, 3] e[12] :sp {hops=[1]}/
            /p25 n[1, 2, 3] e[10, 11] :sp {hops=[2]}/
        ",
    },
    Case {
        name: "stored_paths_sharing_members_keep_their_own_attributes",
        statement: "CONSTRUCT (a)-/@q:again/->(b) MATCH (a)-/@q:route/->(b)",
        expected: "
            (n1 :Person {employer=[MIT], name=[Ann]})
            (n2 :Person {employer=[CWI, MIT], name=[Bob]})
            (n3 :Person {name=[Cid]})
            [e10 n1->n2 :knows {}]
            [e11 n2->n3 :knows {}]
            [e12 n1->n3 :knows {}]
            /p20 n[1, 2, 3] e[10, 11] :again :route {hops=[2]}/
            /p21 n[1, 3] e[12] :again :route {hops=[1]}/
        ",
    },
    Case {
        name: "all_projections_sharing_edges_and_endpoints",
        statement: "CONSTRUCT (a)-/p/->(b) MATCH (a:Person)-/ALL p <:knows*>/->(b:Person) WHERE a.name = 'Ann'",
        expected: "
            (n1 :Person {employer=[MIT], name=[Ann]})
            (n2 :Person {employer=[CWI, MIT], name=[Bob]})
            (n3 :Person {name=[Cid]})
            [e10 n1->n2 :knows {}]
            [e11 n2->n3 :knows {}]
            [e12 n1->n3 :knows {}]
        ",
    },
    Case {
        name: "path_member_also_built_with_set_and_remove",
        statement: "CONSTRUCT (a)-/@p:sp/->(b), (b) SET b :Reached SET b.seen := 1 REMOVE b.employer MATCH (a:Person)-/p <:knows*>/->(b:Person) WHERE a.name = 'Ann'",
        expected: "
            (n1 :Person :Reached {employer=[MIT], name=[Ann], seen=[1]})
            (n2 :Person :Reached {employer=[CWI, MIT], name=[Bob], seen=[1]})
            (n3 :Person :Reached {name=[Cid], seen=[1]})
            [e10 n1->n2 :knows {}]
            [e12 n1->n3 :knows {}]
            /p22 n[1] e[] :sp {}/
            /p23 n[1, 2] e[10] :sp {}/
            /p24 n[1, 3] e[12] :sp {}/
        ",
    },
    Case {
        name: "paths_unioned_with_a_named_graph",
        statement: "CONSTRUCT g, (a)-/@p:sp/->(b) MATCH (a:Person)-/p <:knows*>/->(b:Person) WHERE a.name = 'Bob'",
        expected: "
            (n1 :Person {employer=[MIT], name=[Ann]})
            (n2 :Person {employer=[CWI, MIT], name=[Bob]})
            (n3 :Person {name=[Cid]})
            (n4 :City {name=[Delft]})
            (n5 :Person {employer=[CWI, MIT], name=[Dan]})
            [e10 n1->n2 :knows {}]
            [e11 n2->n3 :knows {}]
            [e12 n1->n3 :knows {}]
            [e13 n1->n4 :livesIn {}]
            /p20 n[1, 2, 3] e[10, 11] :route {hops=[2]}/
            /p21 n[1, 3] e[12] :route {hops=[1]}/
            /p22 n[2] e[] :sp {}/
            /p23 n[2, 3] e[11] :sp {}/
        ",
    },
    // Minted identifiers where the skolem map and the WHEN bookkeeping
    // could diverge: a named unbound variable in two patterns, anonymous
    // elements (each occurrence its own), GROUP expressions on nodes and
    // edges, a WHEN over COUNT(*), fresh stored paths beside minted edges.
    Case {
        name: "minted_named_node_shared_by_two_patterns",
        statement: "CONSTRUCT (x :Hub)-[:origin]->(n), (x)-[:target]->(m) MATCH (n:Person)-[:knows]->(m:Person)",
        expected: "
            (n1 :Person {employer=[MIT], name=[Ann]})
            (n2 :Person {employer=[CWI, MIT], name=[Bob]})
            (n3 :Person {name=[Cid]})
            (n22 :Hub {})
            (n23 :Hub {})
            (n24 :Hub {})
            [e25 n22->n1 :origin {}]
            [e26 n23->n1 :origin {}]
            [e27 n24->n2 :origin {}]
            [e28 n22->n2 :target {}]
            [e29 n23->n3 :target {}]
            [e30 n24->n3 :target {}]
        ",
    },
    Case {
        name: "minted_anonymous_edges_in_two_patterns",
        statement: "CONSTRUCT (n)-[:there]->(m), (m)-[:back]->(n) MATCH (n:Person)-[:knows]->(m:Person)",
        expected: "
            (n1 :Person {employer=[MIT], name=[Ann]})
            (n2 :Person {employer=[CWI, MIT], name=[Bob]})
            (n3 :Person {name=[Cid]})
            [e22 n1->n2 :there {}]
            [e23 n1->n3 :there {}]
            [e24 n2->n3 :there {}]
            [e25 n2->n1 :back {}]
            [e26 n3->n1 :back {}]
            [e27 n3->n2 :back {}]
        ",
    },
    Case {
        name: "minted_group_expression_nodes",
        statement: "CONSTRUCT (x GROUP SIZE(n.employer) :Size {k := SIZE(n.employer), c := COUNT(*)}), (y GROUP e :Emp {at := e})<-[:at]-(n) MATCH (n:Person) OPTIONAL (n {employer = e})",
        expected: "
            (n1 :Person {employer=[MIT], name=[Ann]})
            (n2 :Person {employer=[CWI, MIT], name=[Bob]})
            (n3 :Person {name=[Cid]})
            (n5 :Person {employer=[CWI, MIT], name=[Dan]})
            (n22 :Size {c=[0], k=[0]})
            (n23 :Size {c=[1], k=[1]})
            (n24 :Size {c=[4], k=[2]})
            (n25 :Emp {at=[CWI]})
            (n26 :Emp {at=[MIT]})
            [e27 n1->n26 :at {}]
            [e28 n2->n25 :at {}]
            [e29 n2->n26 :at {}]
            [e30 n5->n25 :at {}]
            [e31 n5->n26 :at {}]
        ",
    },
    Case {
        name: "minted_unbound_edge_with_group",
        statement: "CONSTRUCT (n)-[r GROUP m :via {mid := m.name, c := COUNT(*)}]->(k), (n)-[:fof]->(k) MATCH (n)-[:knows]->(m)-[:knows]->(k)",
        expected: "
            (n1 :Person {employer=[MIT], name=[Ann]})
            (n3 :Person {name=[Cid]})
            [e22 n1->n3 :via {c=[1], mid=[Bob]}]
            [e23 n1->n3 :fof {}]
        ",
    },
    Case {
        name: "minted_when_over_count",
        statement: "CONSTRUCT (n)-[:tagged]->(t :Tag), (x GROUP e :Company {name := e})<-[:worksAt]-(n) WHEN COUNT(*) > 1 MATCH (n:Person {employer = e})",
        expected: "
            (n2 :Person {employer=[CWI, MIT], name=[Bob]})
            (n5 :Person {employer=[CWI, MIT], name=[Dan]})
            (n22 :Tag {})
            (n23 :Tag {})
            (n24 :Tag {})
            (n25 :Tag {})
            (n26 :Tag {})
            (n32 :Company {name=[CWI]})
            (n33 :Company {name=[MIT]})
            [e28 n2->n23 :tagged {}]
            [e29 n2->n24 :tagged {}]
            [e30 n5->n25 :tagged {}]
            [e31 n5->n26 :tagged {}]
        ",
    },
    Case {
        name: "minted_stored_paths_beside_minted_edges",
        statement: "CONSTRUCT (a)-/@p:sp {hops := length(p)}/->(b), (a)-[:reach]->(b) MATCH (a:Person)-/p <:knows*>/->(b:Person) WHERE a.name <> 'Dan'",
        expected: "
            (n1 :Person {employer=[MIT], name=[Ann]})
            (n2 :Person {employer=[CWI, MIT], name=[Bob]})
            (n3 :Person {name=[Cid]})
            [e10 n1->n2 :knows {}]
            [e11 n2->n3 :knows {}]
            [e12 n1->n3 :knows {}]
            [e28 n1->n1 :reach {}]
            [e29 n1->n2 :reach {}]
            [e30 n1->n3 :reach {}]
            [e31 n2->n2 :reach {}]
            [e32 n2->n3 :reach {}]
            [e33 n3->n3 :reach {}]
            /p22 n[1] e[] :sp {hops=[0]}/
            /p23 n[1, 2] e[10] :sp {hops=[1]}/
            /p24 n[1, 3] e[12] :sp {hops=[1]}/
            /p25 n[2] e[] :sp {hops=[0]}/
            /p26 n[2, 3] e[11] :sp {hops=[1]}/
            /p27 n[3] e[] :sp {hops=[0]}/
        ",
    },
];

/// One element per line, indentation and blank lines dropped.
fn lines(text: &str) -> String {
    let trimmed = text.lines().map(str::trim).filter(|l| !l.is_empty());
    trimmed.collect::<Vec<_>>().join("\n")
}

#[test]
fn construct_conformance_table() {
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

mod common;

/// Grouped aggregates on the guided-tour catalog (Figure 4's
/// `social_graph`: four people live in Houston, one in Austin), rendered
/// like [`CASES`]. An aggregate in a `WHEN` condition folds over the rows
/// that fed the element, each row once — also when a node is fed both by
/// its own group and by the group of an edge incident to it — and an
/// aggregate may stand anywhere inside a grouped expression.
const TOUR_CASES: &[Case] = &[
    Case {
        name: "when_count_counts_each_feeding_row_once",
        statement: "CONSTRUCT (x GROUP c :City)-[e:has]->(x) WHEN COUNT(*) > 1 MATCH (p:Person)-[:isLocatedIn]->(c:City)",
        expected: "
            (n302 :City {})
            [e304 n302->n302 :has {}]
        ",
    },
    Case {
        name: "when_count_on_a_bound_node_and_its_loop",
        statement: "CONSTRUCT (c)-[e:has]->(c) WHEN COUNT(*) > 1 MATCH (p:Person)-[:isLocatedIn]->(c:City)",
        expected: "
            (n6 :City {name=[Houston]})
            [e302 n6->n6 :has {}]
        ",
    },
    Case {
        name: "when_sum_agrees_with_the_assigned_count",
        statement: "CONSTRUCT (x GROUP c :City {k := COUNT(*)})-[e:has]->(x) WHEN SUM(1) = 4 MATCH (p:Person)-[:isLocatedIn]->(c:City)",
        expected: "
            (n302 :City {k=[4]})
            [e304 n302->n302 :has {}]
        ",
    },
    Case {
        name: "assignment_with_an_aggregate_inside_a_function",
        statement: "CONSTRUCT (x GROUP c :City {names := SIZE(COLLECT(p.firstName))}) MATCH (p:Person)-[:isLocatedIn]->(c:City)",
        expected: "
            (n302 :City {names=[4]})
            (n303 :City {names=[1]})
        ",
    },
    Case {
        name: "when_with_an_aggregate_inside_a_function",
        statement: "CONSTRUCT (x GROUP c :City {city := c.name}) WHEN SIZE(COLLECT(p.firstName)) > 1 MATCH (p:Person)-[:isLocatedIn]->(c:City)",
        expected: "
            (n302 :City {city=[Houston]})
        ",
    },
];

#[test]
fn construct_conformance_on_the_tour() {
    let mut failures = Vec::new();
    for case in TOUR_CASES {
        let got = match common::tour().engine.query_graph(case.statement) {
            Ok(g) => {
                g.validate().expect("a constructed graph is well-formed");
                lines(&render(&g))
            }
            Err(e) => format!("ERR {e}"),
        };
        let want = lines(case.expected);
        if got != want {
            failures.push(format!(
                "--- {} ---\n{}\nexpected:\n{want}\ngot:\n{got}\n",
                case.name, case.statement
            ));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

//! Statement conformance table: the guided-tour catalog (Figure 4's
//! `social_graph`, `company_graph`, the §5 `orders` table), one statement
//! — or a short script — and the *exact* answer.
//!
//! The MATCH, path and CONSTRUCT tables pin one clause each; this one pins
//! what sits above them: SELECT grouping, aggregates (including
//! `COUNT(*)` over OPTIONAL padding), ORDER BY / LIMIT / OFFSET /
//! DISTINCT, graph set operations, head `GRAPH g AS (…)`, `ON
//! (subquery)`, `FROM` a table, `EXISTS`, `GRAPH VIEW` and the variables
//! a MATCH leaves early because nothing reads them. Every case
//! runs on a fresh engine, once with the planner on and once with it
//! off, and both must give the expected text.
//!
//! Rendering: a table is its header line plus one line per row, cells
//! joined by ` | `; a graph is one line per element in identifier order —
//! `(n1 :L {k=[v]})` for nodes, `[e10 n1->n2 :L {…}]` for edges — with
//! labels and keys sorted, so minted identifiers are part of the answer.
//! A script renders its last output. An error renders as `ERR` plus its
//! message.

mod common;

use common::tour;
use gcore_repro::engine::QueryOutput;
use gcore_repro::ppg::{Attributes, PathPropertyGraph};

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

fn render_graph(g: &PathPropertyGraph) -> String {
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
    out
}

fn render(out: QueryOutput) -> String {
    match out {
        QueryOutput::Table(t) => {
            let mut text = t.columns().join(" | ") + "\n";
            for row in t.rows() {
                let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
                text += &(cells.join(" | ") + "\n");
            }
            text
        }
        QueryOutput::Graph(g) => {
            g.validate().expect("a result graph is well-formed");
            render_graph(&g)
        }
    }
}

/// Run `script` (one statement, or several one after the other) on a fresh
/// tour engine and render its last output.
fn run(script: &str, planner: bool) -> String {
    let mut t = tour();
    t.engine.set_planner(planner);
    match t.engine.run_script(script) {
        Ok(mut outs) => render(outs.pop().expect("a script has a statement")),
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
        name: "select_group_by_count_ordered",
        statement: "SELECT m.firstName AS name, COUNT(*) AS friends MATCH (n:Person)-[:knows]->(m:Person) GROUP BY m.firstName ORDER BY friends DESC, name",
        expected: "
            name | friends
            Peter | 3
            John | 2
            Alice | 1
            Celine | 1
            Frank | 1
        ",
    },
    Case {
        name: "select_count_star_is_zero_on_optional_padding",
        statement: "SELECT n.firstName AS name, COUNT(*) AS posts MATCH (n:Person) OPTIONAL (n)<-[:has_creator]-(p:Post) GROUP BY n.firstName ORDER BY name",
        expected: "
            name | posts
            Alice | 0
            Celine | 1
            Frank | 0
            John | 1
            Peter | 1
        ",
    },
    Case {
        name: "select_count_star_over_padding_grouped_by_expression",
        statement: "SELECT n.firstName AS name, COUNT(*) AS c MATCH (n:Person) OPTIONAL (n)-[:knows]->(m) WHERE m.firstName = 'Nobody' GROUP BY n.firstName + '' ORDER BY name",
        expected: "
            name | c
            Alice | 0
            Celine | 0
            Frank | 0
            John | 0
            Peter | 0
        ",
    },
    Case {
        name: "select_count_star_over_padding_grouped_by_case",
        statement: "SELECT n.firstName AS name, COUNT(*) AS c MATCH (n:Person) OPTIONAL (n)-[:knows]->(m) WHERE m.firstName = 'Nobody' GROUP BY CASE WHEN TRUE THEN n.firstName END",
        expected: "
            name | c
            Alice | 0
            Celine | 0
            Frank | 0
            John | 0
            Peter | 0
        ",
    },
    Case {
        name: "construct_edge_count_star_over_padding_grouped_by_case",
        statement: "CONSTRUCT (x GROUP 'all' :Stat)-[e GROUP CASE WHEN TRUE THEN n.firstName END :count {who := n.firstName}]->(x) SET e.c := COUNT(*) MATCH (n:Person) OPTIONAL (n)-[:knows]->(m) WHERE m.firstName = 'Nobody'",
        expected: "
            (n302 :Stat {})
            [e303 n302->n302 :count {c=[0], who=[Alice]}]
            [e304 n302->n302 :count {c=[0], who=[Celine]}]
            [e305 n302->n302 :count {c=[0], who=[Frank]}]
            [e306 n302->n302 :count {c=[0], who=[John]}]
            [e307 n302->n302 :count {c=[0], who=[Peter]}]
        ",
    },
    Case {
        name: "select_whole_table_aggregates",
        statement: "SELECT COUNT(*) AS n, COUNT(DISTINCT c) AS cities, MIN(p.firstName) AS first, MAX(p.firstName) AS last, COLLECT(p.firstName) AS names MATCH (p:Person)-[:isLocatedIn]->(c:City)",
        expected: "
            n | cities | first | last | names
            5 | 2 | Alice | Peter | [Alice, Celine, Frank, John, Peter]
        ",
    },
    Case {
        name: "select_aggregate_inside_expression",
        statement: "SELECT c.name AS city, COUNT(*) * 10 + 1 AS score MATCH (p:Person)-[:isLocatedIn]->(c:City) GROUP BY c.name ORDER BY score",
        expected: "
            city | score
            Austin | 11
            Houston | 41
        ",
    },
    Case {
        name: "select_distinct",
        statement: "SELECT DISTINCT c.name AS city MATCH (p:Person)-[:isLocatedIn]->(c:City)",
        expected: "
            city
            Austin
            Houston
        ",
    },
    Case {
        name: "select_order_limit_offset",
        statement: "SELECT p.firstName AS name MATCH (p:Person) ORDER BY name DESC LIMIT 2 OFFSET 1",
        expected: "
            name
            John
            Frank
        ",
    },
    Case {
        name: "union_of_two_filters",
        statement: "CONSTRUCT (n) MATCH (n:Person) WHERE n.employer = 'Acme' UNION CONSTRUCT (n) MATCH (n:Person) WHERE n.employer = 'HAL'",
        expected: "
            (n1 :Person {employer=[Acme], firstName=[John], lastName=[Doe]})
            (n3 :Person {employer=[Acme], firstName=[Alice], lastName=[Bishop]})
            (n4 :Person {employer=[HAL], firstName=[Celine], lastName=[Mayer]})
        ",
    },
    Case {
        name: "intersect_keeps_common_edges",
        statement: "CONSTRUCT (n)-[e]->(m) MATCH (n:Person)-[e:knows]->(m:Person) INTERSECT CONSTRUCT (n)-[e]->(m) MATCH (n)-[e:knows]->(m) WHERE n.firstName = 'Peter'",
        expected: "
            (n1 :Person {employer=[Acme], firstName=[John], lastName=[Doe]})
            (n2 :Person {firstName=[Peter], lastName=[Smith]})
            (n4 :Person {employer=[HAL], firstName=[Celine], lastName=[Mayer]})
            (n5 :Person {employer=[CWI, MIT], firstName=[Frank], lastName=[Gold]})
            [e19 n2->n1 :knows {}]
            [e22 n2->n5 :knows {}]
            [e24 n2->n4 :knows {}]
        ",
    },
    Case {
        name: "minus_drops_tag_lovers",
        statement: "CONSTRUCT (n) MATCH (n:Person) MINUS CONSTRUCT (n) MATCH (n:Person)-[:hasInterest]->(:Tag)",
        expected: "
            (n1 :Person {employer=[Acme], firstName=[John], lastName=[Doe]})
            (n2 :Person {firstName=[Peter], lastName=[Smith]})
        ",
    },
    Case {
        name: "head_graph_is_matched_on",
        statement: "GRAPH acme AS (CONSTRUCT (n) MATCH (n:Person) WHERE n.employer = 'Acme') SELECT n.firstName AS name MATCH (n) ON acme ORDER BY name",
        expected: "
            name
            Alice
            John
        ",
    },
    Case {
        name: "on_subquery_location",
        statement: "SELECT n.firstName AS name MATCH (n:Person) ON (CONSTRUCT (x)-[:knows]->(y) MATCH (x)-[:knows]->(y) WHERE y.firstName = 'Frank') ORDER BY name",
        expected: "
            name
            Frank
            Peter
        ",
    },
    Case {
        name: "construct_from_table",
        statement: "CONSTRUCT (c GROUP custName :Customer {name := custName})-[:bought]->(p GROUP prodCode :Product {code := prodCode}) FROM orders",
        expected: "
            (n302 :Customer {name=[Ann]})
            (n303 :Customer {name=[Bob]})
            (n304 :Customer {name=[Cleo]})
            (n305 :Product {code=[P-100]})
            (n306 :Product {code=[P-200]})
            (n307 :Product {code=[P-300]})
            [e308 n302->n305 :bought {}]
            [e309 n302->n306 :bought {}]
            [e310 n303->n305 :bought {}]
            [e311 n304->n307 :bought {}]
        ",
    },
    Case {
        name: "explicit_exists",
        statement: "SELECT n.firstName AS name MATCH (n:Person) WHERE EXISTS (CONSTRUCT () MATCH (n)-[:hasInterest]->(t:Tag) WHERE t.name = 'Wagner') ORDER BY name",
        expected: "
            name
            Celine
            Frank
        ",
    },
    Case {
        name: "pattern_predicate",
        statement: "SELECT n.firstName AS name MATCH (n:Person) WHERE (n)-[:hasInterest]->(:Tag {name = 'Mozart'})",
        expected: "
            name
            Alice
        ",
    },
    // A subquery ON another graph must not become the graph the rest of
    // its WHERE (or a WHEN) reads pattern predicates on: every Person
    // knows a Person on the default graph, whichever conjunct runs first.
    Case {
        name: "pattern_predicate_before_exists_on_another_graph",
        statement: "CONSTRUCT (n) MATCH (n:Person) WHERE (n)-[:knows]->(:Person) AND EXISTS (CONSTRUCT (c) MATCH (c:Company) ON company_graph)",
        expected: "
            (n1 :Person {employer=[Acme], firstName=[John], lastName=[Doe]})
            (n2 :Person {firstName=[Peter], lastName=[Smith]})
            (n3 :Person {employer=[Acme], firstName=[Alice], lastName=[Bishop]})
            (n4 :Person {employer=[HAL], firstName=[Celine], lastName=[Mayer]})
            (n5 :Person {employer=[CWI, MIT], firstName=[Frank], lastName=[Gold]})
        ",
    },
    Case {
        name: "exists_on_another_graph_before_pattern_predicate",
        statement: "CONSTRUCT (n) MATCH (n:Person) WHERE EXISTS (CONSTRUCT (c) MATCH (c:Company) ON company_graph) AND (n)-[:knows]->(:Person)",
        expected: "
            (n1 :Person {employer=[Acme], firstName=[John], lastName=[Doe]})
            (n2 :Person {firstName=[Peter], lastName=[Smith]})
            (n3 :Person {employer=[Acme], firstName=[Alice], lastName=[Bishop]})
            (n4 :Person {employer=[HAL], firstName=[Celine], lastName=[Mayer]})
            (n5 :Person {employer=[CWI, MIT], firstName=[Frank], lastName=[Gold]})
        ",
    },
    Case {
        name: "when_pattern_predicate_after_exists_on_another_graph",
        statement: "CONSTRUCT (n) WHEN (n)-[:knows]->(:Person) MATCH (n:Person) WHERE EXISTS (CONSTRUCT (c) MATCH (c:Company) ON company_graph)",
        expected: "
            (n1 :Person {employer=[Acme], firstName=[John], lastName=[Doe]})
            (n2 :Person {firstName=[Peter], lastName=[Smith]})
            (n3 :Person {employer=[Acme], firstName=[Alice], lastName=[Bishop]})
            (n4 :Person {employer=[HAL], firstName=[Celine], lastName=[Mayer]})
            (n5 :Person {employer=[CWI, MIT], firstName=[Frank], lastName=[Gold]})
        ",
    },
    Case {
        name: "construct_count_star_over_optional_padding",
        statement: "CONSTRUCT (n {posts := COUNT(*)}) MATCH (n:Person) OPTIONAL (n)<-[:has_creator]-(p:Post)",
        expected: "
            (n1 :Person {employer=[Acme], firstName=[John], lastName=[Doe], posts=[1]})
            (n2 :Person {firstName=[Peter], lastName=[Smith], posts=[1]})
            (n3 :Person {employer=[Acme], firstName=[Alice], lastName=[Bishop], posts=[0]})
            (n4 :Person {employer=[HAL], firstName=[Celine], lastName=[Mayer], posts=[1]})
            (n5 :Person {employer=[CWI, MIT], firstName=[Frank], lastName=[Gold], posts=[0]})
        ",
    },
    Case {
        name: "graph_view_then_read_back",
        statement: "GRAPH VIEW acme_friends AS (CONSTRUCT (n)-[:friend]->(m) MATCH (n:Person)-[:knows]->(m:Person) WHERE n.employer = 'Acme') SELECT a.firstName AS a, b.firstName AS b MATCH (a)-[:friend]->(b) ON acme_friends ORDER BY a, b",
        expected: "
            a | b
            Alice | John
            John | Alice
            John | Peter
        ",
    },
    Case {
        name: "path_view_over_an_anonymous_path_step_is_an_error",
        statement: "PATH w = (x)-[e:knows]->(y) PATH v = (a)-/<~w>/->(b) SELECT COUNT(*) AS c MATCH (n:Person)-/<~v*>/->(m:Person)",
        expected: "
            ERR semantic error: invalid path pattern: a path inside PATH view 'v' must be named, as in -/p <…>/->
        ",
    },
    Case {
        name: "select_aggregate_inside_a_function",
        statement: "SELECT SIZE(COLLECT(p.firstName)) AS n MATCH (p:Person)",
        expected: "
            n
            5
        ",
    },
    Case {
        name: "select_head_of_a_collected_list",
        statement: "SELECT c.name AS city, HEAD(COLLECT(p.firstName)) AS first MATCH (p:Person)-[:isLocatedIn]->(c:City) GROUP BY c.name ORDER BY city",
        expected: "
            city | first
            Austin | Alice
            Houston | Celine
        ",
    },
    Case {
        name: "select_index_into_a_collected_list_ordered_by_its_size",
        statement: "SELECT c.name AS city, COLLECT(p.firstName)[0] AS first MATCH (p:Person)-[:isLocatedIn]->(c:City) GROUP BY c.name ORDER BY SIZE(COLLECT(p.firstName)) DESC",
        expected: "
            city | first
            Houston | Celine
            Austin | Alice
        ",
    },
    Case {
        name: "select_case_over_aggregates",
        statement: "SELECT c.name AS city, CASE WHEN COUNT(*) > 1 THEN COLLECT(p.firstName) END AS names MATCH (p:Person)-[:isLocatedIn]->(c:City) GROUP BY c.name ORDER BY city",
        expected: "
            city | names
            Austin | NULL
            Houston | [Celine, Frank, John, Peter]
        ",
    },
    Case {
        name: "construct_assignment_with_an_aggregate_inside_a_function",
        statement: "CONSTRUCT (x GROUP 'all' :Everyone {names := SIZE(COLLECT(p.firstName))}) MATCH (p:Person)",
        expected: "
            (n302 :Everyone {names=[5]})
        ",
    },
    Case {
        name: "invalid_date_literal_errors_when_a_row_reaches_it",
        statement: "SELECT n.firstName AS name MATCH (n:Person) WHERE n.firstName = 'John' AND DATE '2020-13-45' < DATE '2021-01-01'",
        expected: "
            ERR runtime error: type error: invalid date literal '2020-13-45'
        ",
    },
    Case {
        name: "invalid_date_literal_no_row_reaches_is_an_empty_table",
        statement: "SELECT n.firstName AS name MATCH (n:NoSuchLabelInTheTour) WHERE DATE '2020-13-45' < DATE '2021-01-01'",
        expected: "
            name
        ",
    },
    Case {
        name: "never_interned_key_reads_as_the_empty_set",
        statement: "SELECT n.firstName AS name, SIZE(n.keyNoGraphEverHas) AS k, n.keyNoGraphEverHas AS v, n.keyNoGraphEverHas = n.otherKeyNoGraphEverHas AS same MATCH (n:Person) WHERE n.firstName = 'John' OR n.keyNoGraphEverHas = 1",
        expected: "
            name | k | v | same
            John | 0 | NULL | TRUE
        ",
    },
    Case {
        name: "never_interned_label_test_is_false",
        statement: "SELECT n.firstName AS name, (n:LabelNoGraphEverHas) AS t MATCH (n:Person) WHERE n.firstName = 'John' OR (n:LabelNoGraphEverHas)",
        expected: "
            name | t
            John | FALSE
        ",
    },
    Case {
        name: "key_first_interned_by_the_statements_own_construct",
        statement: "CONSTRUCT (n)-[:copyOf]->(x GROUP n :Copy {keyFirstInternedHere := 1}) SET n.keyFirstInternedByASet := 2 WHEN x.keyFirstInternedHere = 1 AND SIZE(n.keyFirstInternedByASet) = 0 MATCH (n:Person) WHERE SIZE(n.keyFirstInternedHere) = 0 AND n.firstName = 'John'",
        expected: "
            (n1 :Person {employer=[Acme], firstName=[John], keyFirstInternedByASet=[2], lastName=[Doe]})
            (n302 :Copy {keyFirstInternedHere=[1]})
            [e303 n1->n302 :copyOf {}]
        ",
    },
];

/// A PATH view is its definition, not its name: a statement may define
/// `v` twice — in a head `GRAPH … AS (…)` and again at the top — and each
/// use must search the segments of the definition in scope there, also
/// when the clause that names `v` is the same text and only a view it
/// references differs. Each statement gives the answer of its last part
/// run alone (`c = 8`: Peter's three `knows` edges, to John, Alice and
/// Celine, reach three people in one step and five more through John's
/// and Alice's edges back to Peter).
const VIEW_SCOPE_CASES: &[Case] = &[
    Case {
        name: "path_view_alone",
        statement: "PATH v = (x)-[e:knows]->(y) WHERE x.firstName = 'Peter' SELECT COUNT(*) AS c MATCH (n:Person)-/<~v*>/->(m:Person)",
        expected: "
            c
            8
        ",
    },
    Case {
        name: "path_view_redefined_under_the_same_name",
        statement: "GRAPH g AS (PATH v = (x)-[e:knows]->(y) CONSTRUCT (n) MATCH (n:Person)-/<~v*>/->(m:Person)) PATH v = (x)-[e:knows]->(y) WHERE x.firstName = 'Peter' SELECT COUNT(*) AS c MATCH (n:Person)-/<~v*>/->(m:Person)",
        expected: "
            c
            8
        ",
    },
    Case {
        name: "path_view_same_text_over_a_redefined_view",
        statement: "GRAPH g AS (PATH w = (x)-[e:knows]->(y) PATH v = (a)-/q <~w>/->(b) CONSTRUCT (n) MATCH (n:Person)-/<~v*>/->(m:Person)) PATH w = (x)-[e:knows]->(y) WHERE x.firstName = 'Peter' PATH v = (a)-/q <~w>/->(b) SELECT COUNT(*) AS c MATCH (n:Person)-/<~v*>/->(m:Person)",
        expected: "
            c
            8
        ",
    },
];

/// Values bound by different patterns, blocks and scopes of one
/// statement: two binding-form patterns joined on their value, an
/// OPTIONAL block whose patterns bind and join a value, a correlated
/// pattern predicate and `EXISTS` that compare a value they bind with
/// the outer row's, and the value columns of a `FROM` table tested
/// against a pattern (`FROM` is a query's whole source, so a table meets
/// a pattern through a correlated subquery).
const VALUE_SCOPE_CASES: &[Case] = &[
    Case {
        name: "two_patterns_joined_on_a_bound_value",
        statement: "SELECT a.firstName AS a, b.firstName AS b, e AS employer MATCH (a:Person {employer = e}), (b:Person {employer = e}) ORDER BY a, b, employer",
        expected: "
            a | b | employer
            Alice | Alice | Acme
            Alice | John | Acme
            Celine | Celine | HAL
            Frank | Frank | CWI
            Frank | Frank | MIT
            John | Alice | Acme
            John | John | Acme
        ",
    },
    Case {
        name: "optional_block_binds_and_joins_a_value",
        statement: "SELECT n.firstName AS name, e AS employer, c.name AS company MATCH (n:Person) OPTIONAL (n {employer = e}) ON social_graph, (c:Company {name = e}) ON company_graph ORDER BY name, employer",
        expected: "
            name | employer | company
            Alice | Acme | Acme
            Celine | HAL | HAL
            Frank | CWI | CWI
            Frank | MIT | MIT
            John | Acme | Acme
            Peter | NULL | NULL
        ",
    },
    Case {
        name: "pattern_predicate_compares_an_outer_value",
        statement: "SELECT n.firstName AS name, e AS employer MATCH (n:Person {employer = e}) WHERE (n)-[:knows]->(:Person {employer = e}) ORDER BY name",
        expected: "
            name | employer
            Alice | Acme
            John | Acme
        ",
    },
    Case {
        name: "exists_binds_a_value_and_compares_it_with_an_outer_one",
        statement: "SELECT n.firstName AS name, e AS employer MATCH (n:Person {employer = e}) WHERE EXISTS (CONSTRUCT () MATCH (n)-[:knows]->(m:Person {employer = f}) WHERE f = e) ORDER BY name",
        expected: "
            name | employer
            Alice | Acme
            John | Acme
        ",
    },
    Case {
        name: "from_table_values_tested_against_a_pattern",
        statement: "CONSTRUCT (c GROUP custName :Customer {name := custName}) WHEN EXISTS (CONSTRUCT () MATCH (o {custName = n, prodCode = 'P-100'}) ON orders WHERE n = custName) FROM orders",
        expected: "
            (n302 :Customer {name=[Ann]})
            (n303 :Customer {name=[Bob]})
        ",
    },
];

/// A MATCH variable nothing after its step reads leaves the bindings
/// there — a reachability step whose source is dead returns its distinct
/// far ends — and the answer must not move: the dead source, the same
/// reach with its source read by the head, a residual conjunct or a
/// later chain step, heads that count bindings (`COUNT(*)`, an unbound
/// node without `GROUP`) or group them by what is live, dead variables in
/// an OPTIONAL block, a variable two patterns share, and stored-path and
/// path-variable constructs.
const EXISTENTIAL_CASES: &[Case] = &[
    Case {
        name: "dead_reach_source",
        statement: "CONSTRUCT (m) MATCH (n:Person)-/<:knows*>/->(m:Person) WHERE n.employer = 'Acme'",
        expected: "
            (n1 :Person {employer=[Acme], firstName=[John], lastName=[Doe]})
            (n2 :Person {firstName=[Peter], lastName=[Smith]})
            (n3 :Person {employer=[Acme], firstName=[Alice], lastName=[Bishop]})
            (n4 :Person {employer=[HAL], firstName=[Celine], lastName=[Mayer]})
            (n5 :Person {employer=[CWI, MIT], firstName=[Frank], lastName=[Gold]})
        ",
    },
    Case {
        name: "reach_source_read_by_the_head",
        statement: "CONSTRUCT (n)-[:reaches]->(m) MATCH (n:Person)-/<:knows*>/->(m:Person) WHERE n.employer = 'Acme'",
        expected: "
            (n1 :Person {employer=[Acme], firstName=[John], lastName=[Doe]})
            (n2 :Person {firstName=[Peter], lastName=[Smith]})
            (n3 :Person {employer=[Acme], firstName=[Alice], lastName=[Bishop]})
            (n4 :Person {employer=[HAL], firstName=[Celine], lastName=[Mayer]})
            (n5 :Person {employer=[CWI, MIT], firstName=[Frank], lastName=[Gold]})
            [e302 n1->n1 :reaches {}]
            [e303 n1->n2 :reaches {}]
            [e304 n1->n3 :reaches {}]
            [e305 n1->n4 :reaches {}]
            [e306 n1->n5 :reaches {}]
            [e307 n3->n1 :reaches {}]
            [e308 n3->n2 :reaches {}]
            [e309 n3->n3 :reaches {}]
            [e310 n3->n4 :reaches {}]
            [e311 n3->n5 :reaches {}]
        ",
    },
    Case {
        name: "reach_source_read_by_a_residual_conjunct",
        statement: "CONSTRUCT (m) MATCH (n:Person)-/<:knows*>/->(m:Person) WHERE n.firstName > m.firstName",
        expected: "
            (n1 :Person {employer=[Acme], firstName=[John], lastName=[Doe]})
            (n3 :Person {employer=[Acme], firstName=[Alice], lastName=[Bishop]})
            (n4 :Person {employer=[HAL], firstName=[Celine], lastName=[Mayer]})
            (n5 :Person {employer=[CWI, MIT], firstName=[Frank], lastName=[Gold]})
        ",
    },
    Case {
        name: "reach_source_read_by_a_later_chain_step",
        statement: "CONSTRUCT (m) MATCH (n:Person)-/<:knows*>/->(m:Person)-[:knows]->(n) WHERE n.employer = 'HAL'",
        expected: "
            (n2 :Person {firstName=[Peter], lastName=[Smith]})
        ",
    },
    Case {
        name: "count_star_counts_every_source",
        statement: "CONSTRUCT (m {reachers := COUNT(*)}) MATCH (n:Person)-/<:knows*>/->(m:Person)",
        expected: "
            (n1 :Person {employer=[Acme], firstName=[John], lastName=[Doe], reachers=[5]})
            (n2 :Person {firstName=[Peter], lastName=[Smith], reachers=[5]})
            (n3 :Person {employer=[Acme], firstName=[Alice], lastName=[Bishop], reachers=[5]})
            (n4 :Person {employer=[HAL], firstName=[Celine], lastName=[Mayer], reachers=[5]})
            (n5 :Person {employer=[CWI, MIT], firstName=[Frank], lastName=[Gold], reachers=[5]})
        ",
    },
    Case {
        name: "unbound_node_without_group_is_one_per_binding",
        statement: "CONSTRUCT (x :Reach {to := m.firstName}) MATCH (n:Person)-/<:knows*>/->(m:Person) WHERE n.employer = 'Acme'",
        expected: "
            (n302 :Reach {to=[John]})
            (n303 :Reach {to=[Peter]})
            (n304 :Reach {to=[Alice]})
            (n305 :Reach {to=[Celine]})
            (n306 :Reach {to=[Frank]})
            (n307 :Reach {to=[John]})
            (n308 :Reach {to=[Peter]})
            (n309 :Reach {to=[Alice]})
            (n310 :Reach {to=[Celine]})
            (n311 :Reach {to=[Frank]})
        ",
    },
    Case {
        name: "unbound_node_grouped_by_a_live_variable",
        statement: "CONSTRUCT (x GROUP m :Reach {to := m.firstName}) MATCH (n:Person)-/<:knows*>/->(m:Person)",
        expected: "
            (n302 :Reach {to=[John]})
            (n303 :Reach {to=[Peter]})
            (n304 :Reach {to=[Alice]})
            (n305 :Reach {to=[Celine]})
            (n306 :Reach {to=[Frank]})
        ",
    },
    Case {
        name: "dead_variables_in_an_optional_block",
        statement: "CONSTRUCT (n)-[:far]->(k) MATCH (n:Person) OPTIONAL (n)-[:knows]->(m:Person)-/<:knows*>/->(k:Person) WHERE k.firstName <> n.firstName",
        expected: "
            (n1 :Person {employer=[Acme], firstName=[John], lastName=[Doe]})
            (n2 :Person {firstName=[Peter], lastName=[Smith]})
            (n3 :Person {employer=[Acme], firstName=[Alice], lastName=[Bishop]})
            (n4 :Person {employer=[HAL], firstName=[Celine], lastName=[Mayer]})
            (n5 :Person {employer=[CWI, MIT], firstName=[Frank], lastName=[Gold]})
            [e302 n1->n2 :far {}]
            [e303 n1->n3 :far {}]
            [e304 n1->n4 :far {}]
            [e305 n1->n5 :far {}]
            [e306 n2->n1 :far {}]
            [e307 n2->n3 :far {}]
            [e308 n2->n4 :far {}]
            [e309 n2->n5 :far {}]
            [e310 n3->n1 :far {}]
            [e311 n3->n2 :far {}]
            [e312 n3->n4 :far {}]
            [e313 n3->n5 :far {}]
            [e314 n4->n1 :far {}]
            [e315 n4->n2 :far {}]
            [e316 n4->n3 :far {}]
            [e317 n4->n5 :far {}]
            [e318 n5->n1 :far {}]
            [e319 n5->n2 :far {}]
            [e320 n5->n3 :far {}]
            [e321 n5->n4 :far {}]
        ",
    },
    Case {
        name: "two_patterns_share_the_dead_looking_variable",
        statement: "CONSTRUCT (k) MATCH (n:Person)-/<:knows*>/->(m:Person), (m)-[:knows]->(k:Person) WHERE n.employer = 'HAL'",
        expected: "
            (n1 :Person {employer=[Acme], firstName=[John], lastName=[Doe]})
            (n2 :Person {firstName=[Peter], lastName=[Smith]})
            (n3 :Person {employer=[Acme], firstName=[Alice], lastName=[Bishop]})
            (n4 :Person {employer=[HAL], firstName=[Celine], lastName=[Mayer]})
            (n5 :Person {employer=[CWI, MIT], firstName=[Frank], lastName=[Gold]})
        ",
    },
    Case {
        name: "dead_scan_filtered_far_end",
        statement: "CONSTRUCT (n) MATCH (n:Person)-[:knows]->(m:Person) WHERE m.employer = 'HAL'",
        expected: "
            (n2 :Person {firstName=[Peter], lastName=[Smith]})
        ",
    },
    Case {
        name: "dead_labelled_middle_node",
        statement: "CONSTRUCT (n)-[:fof]->(k) MATCH (n:Person)-[:knows]->(m:Person)-[:knows]->(k:Person) WHERE n.employer = 'Acme'",
        expected: "
            (n1 :Person {employer=[Acme], firstName=[John], lastName=[Doe]})
            (n2 :Person {firstName=[Peter], lastName=[Smith]})
            (n3 :Person {employer=[Acme], firstName=[Alice], lastName=[Bishop]})
            (n4 :Person {employer=[HAL], firstName=[Celine], lastName=[Mayer]})
            (n5 :Person {employer=[CWI, MIT], firstName=[Frank], lastName=[Gold]})
            [e302 n1->n1 :fof {}]
            [e303 n1->n4 :fof {}]
            [e304 n1->n5 :fof {}]
            [e305 n3->n2 :fof {}]
            [e306 n3->n3 :fof {}]
        ",
    },
    Case {
        name: "dead_edge_with_a_filter_entry",
        statement: "GRAPH VIEW met AS (CONSTRUCT social_graph, (n)-[e]->(m) SET e.friend := m.firstName MATCH (n:Person)-[e:knows]->(m:Person)) CONSTRUCT (n) MATCH (n:Person)-[e:knows {friend = 'Peter'}]->(m) ON met",
        expected: "
            (n1 :Person {employer=[Acme], firstName=[John], lastName=[Doe]})
            (n4 :Person {employer=[HAL], firstName=[Celine], lastName=[Mayer]})
            (n5 :Person {employer=[CWI, MIT], firstName=[Frank], lastName=[Gold]})
        ",
    },
    Case {
        name: "pattern_predicate_with_a_constant_entry",
        statement: "CONSTRUCT (n) MATCH (n:Person) WHERE (n)-[:hasInterest]->(:Tag {name = 'Wagner'})",
        expected: "
            (n4 :Person {employer=[HAL], firstName=[Celine], lastName=[Mayer]})
            (n5 :Person {employer=[CWI, MIT], firstName=[Frank], lastName=[Gold]})
        ",
    },
    Case {
        name: "stored_path_construct",
        statement: "CONSTRUCT (n)-/@p:reach/->(m) MATCH (n:Person)-/p <:knows*>/->(m:Person) WHERE n.employer = 'Acme'",
        expected: "
            (n1 :Person {employer=[Acme], firstName=[John], lastName=[Doe]})
            (n2 :Person {firstName=[Peter], lastName=[Smith]})
            (n3 :Person {employer=[Acme], firstName=[Alice], lastName=[Bishop]})
            (n4 :Person {employer=[HAL], firstName=[Celine], lastName=[Mayer]})
            (n5 :Person {employer=[CWI, MIT], firstName=[Frank], lastName=[Gold]})
            [e18 n1->n2 :knows {}]
            [e20 n1->n3 :knows {}]
            [e21 n3->n1 :knows {}]
            [e22 n2->n5 :knows {}]
            [e24 n2->n4 :knows {}]
        ",
    },
    Case {
        name: "path_variable_construct",
        statement: "CONSTRUCT (m)<-/p/-(n) MATCH (n:Person)-/p <:knows*>/->(m:Person) WHERE n.employer = 'HAL'",
        expected: "
            (n1 :Person {employer=[Acme], firstName=[John], lastName=[Doe]})
            (n2 :Person {firstName=[Peter], lastName=[Smith]})
            (n3 :Person {employer=[Acme], firstName=[Alice], lastName=[Bishop]})
            (n4 :Person {employer=[HAL], firstName=[Celine], lastName=[Mayer]})
            (n5 :Person {employer=[CWI, MIT], firstName=[Frank], lastName=[Gold]})
            [e19 n2->n1 :knows {}]
            [e20 n1->n3 :knows {}]
            [e22 n2->n5 :knows {}]
            [e25 n4->n2 :knows {}]
        ",
    },
];

/// One row per line, indentation and blank lines dropped.
fn lines(text: &str) -> String {
    let trimmed = text.lines().map(str::trim).filter(|l| !l.is_empty());
    trimmed.collect::<Vec<_>>().join("\n")
}

#[test]
fn statement_conformance_table() {
    check(CASES);
}

#[test]
fn path_views_are_resolved_by_definition_not_by_name() {
    check(VIEW_SCOPE_CASES);
}

#[test]
fn values_compare_within_and_across_evaluation_scopes() {
    check(VALUE_SCOPE_CASES);
}

#[test]
fn existential_variables_keep_their_answers() {
    check(EXISTENTIAL_CASES);
}

fn check(cases: &[Case]) {
    let mut failures = Vec::new();
    for case in cases {
        let want = lines(case.expected);
        for planner in [true, false] {
            let got = lines(&run(case.statement, planner));
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

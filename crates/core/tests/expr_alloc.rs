//! Counted work: what evaluating an expression allocates per row.
//!
//! Expressions are compiled once per statement site: variables become
//! columns, keys symbols and literals prebuilt values, and a property
//! read borrows the graph's value set. So a WHERE comparing a property
//! with a literal allocates nothing per row — a statement's allocations
//! minus those of the same MATCH unfiltered are the same whatever the
//! number of rows filtered — a SELECT item allocates only the cell
//! it outputs, and a property entry that binds a variable copies a
//! value once per distinct value, not per row — also when two patterns
//! bind it and join on it, and the join's build side is a few flat
//! arrays, not a key and a bucket per row.
//!
//! Counted with the shared thread-local counting allocator
//! (`tests/support/counting_alloc.rs`): counts, not timings, so they
//! repeat exactly from run to run.

use gcore::Engine;
use gcore_ppg::{Attributes, NodeId, PathPropertyGraph, Table, Value};
use gcore_snb::{generate, SnbConfig};

include!("../../../tests/support/counting_alloc.rs");

/// The two scales every gate compares: 250 and 1 000 persons.
const SCALES: [usize; 2] = [250, 1000];

fn snb(persons: usize) -> Engine {
    let mut engine = Engine::new();
    let data = generate(&SnbConfig::scale(persons), &engine.catalog().ids().clone());
    engine.register_graph("snb", data.graph);
    engine.set_default_graph("snb");
    engine
}

/// The allocations of `statement` (a table query) and its answer, after
/// one warm-up run that keeps the snapshot freeze, statistics and
/// first-use interning out of the count.
fn allocations(engine: &mut Engine, statement: &str) -> (u64, Table) {
    engine.query_table(statement).expect("runs");
    let (table, cost) = counted(|| engine.query_table(statement).expect("runs"));
    (cost.allocations, table)
}

/// `SELECT COUNT(*) … WHERE <filter>` minus the same without the filter,
/// per scale, with the number of Persons the filter read.
fn filter_cost(filter: &str) -> Vec<(i64, i64)> {
    let body = "MATCH (n:Person)";
    let filtered = format!("SELECT COUNT(*) AS c {body} WHERE {filter}");
    let unfiltered = format!("SELECT COUNT(*) AS c {body}");
    let mut costs = Vec::new();
    for persons in SCALES {
        let mut engine = snb(persons);
        let (with, _) = allocations(&mut engine, &filtered);
        let (without, count) = allocations(&mut engine, &unfiltered);
        let Value::Int(rows) = count.rows()[0][0] else {
            panic!("COUNT(*) is an integer");
        };
        println!("SNB-{persons}: {with} - {without} allocations filtering {rows} rows: {filter}");
        costs.push((with as i64 - without as i64, rows));
    }
    costs
}

fn assert_flat(costs: &[(i64, i64)], what: &str) {
    assert!(
        costs[1].1 > costs[0].1,
        "{what}: the scales read as many rows"
    );
    assert_eq!(
        costs[0].0, costs[1].0,
        "{what}: the filter's allocations grow with the rows it reads: {costs:?}"
    );
}

#[test]
fn a_property_window_allocates_nothing_per_row() {
    let costs = filter_cost("n.personId >= 100 AND n.personId < 140");
    assert_flat(&costs, "personId window");
}

#[test]
fn a_string_comparison_allocates_nothing_per_row() {
    let costs = filter_cost("n.firstName = 'Nobody'");
    assert_flat(&costs, "firstName = 'Nobody'");
}

/// Two string columns against two integer columns of the same rows:
/// the difference is what reading a string property into a cell costs,
/// and it must be the cell's own value only.
#[test]
fn projecting_a_string_property_allocates_once_per_cell() {
    let strings = "SELECT n.firstName AS a, n.lastName AS b MATCH (n:Person)";
    let integers = "SELECT n.personId AS a, n.personId AS b MATCH (n:Person)";
    for persons in SCALES {
        let mut engine = snb(persons);
        let (projected, table) = allocations(&mut engine, strings);
        let (baseline, _) = allocations(&mut engine, integers);
        let cells = 2 * table.len();
        let per_cell = (projected as f64 - baseline as f64) / cells as f64;
        println!(
            "SNB-{persons}: {projected} - {baseline} allocations for {cells} string cells ({per_cell:.2} each)"
        );
        assert!(
            per_cell <= 1.0,
            "SNB-{persons}: {per_cell:.2} allocations per projected string cell"
        );
    }
}

/// `{employer = e}` binds one row per value of a Person's employer set.
/// The new column's cell is interned from the borrowed value, so the
/// scan copies a value once per distinct employer — the pool's list
/// and map each keep one — not once per row. Against the same MATCH
/// without the binding, the allocations the larger scale adds stay
/// within three per further distinct employer (two copies, and the
/// pool's growth), though it binds hundreds more rows.
#[test]
fn a_binding_scan_allocates_per_distinct_value_not_per_row() {
    let bound = "SELECT COUNT(*) AS c MATCH (n:Person {employer = e})";
    let plain = "SELECT COUNT(*) AS c MATCH (n:Person)";
    let distinct = "SELECT DISTINCT e MATCH (n:Person {employer = e})";
    let mut costs = Vec::new();
    for persons in SCALES {
        let mut engine = snb(persons);
        let (with, count) = allocations(&mut engine, bound);
        let (without, _) = allocations(&mut engine, plain);
        let Value::Int(rows) = count.rows()[0][0] else {
            panic!("COUNT(*) is an integer");
        };
        let employers = engine.query_table(distinct).expect("runs").len() as i64;
        println!(
            "SNB-{persons}: {with} - {without} allocations binding {rows} rows, {employers} employers"
        );
        costs.push((with as i64 - without as i64, rows, employers));
    }
    let (added, rows, employers) = (
        costs[1].0 - costs[0].0,
        costs[1].1 - costs[0].1,
        costs[1].2 - costs[0].2,
    );
    assert!(
        rows > 10 * employers,
        "too few further rows to tell per-row from per-employer copies: {costs:?}"
    );
    assert!(
        added <= 3 * employers,
        "{added} more allocations for {rows} more rows and {employers} more employers: {costs:?}"
    );
}

/// `persons` Persons, two per employer, whose employer is `employer(i)`
/// for the i-th pair.
fn employers(persons: u64, employer: impl Fn(u64) -> Value) -> Engine {
    let mut g = PathPropertyGraph::new();
    for i in 0..persons {
        let attrs = Attributes::labeled("Person").with_prop("employer", employer(i / 2));
        g.add_node(NodeId(i + 1), attrs);
    }
    let mut engine = Engine::new();
    engine.register_graph("g", g);
    engine.set_default_graph("g");
    engine
}

/// Two patterns that bind `e` and join on it encode it against the one
/// pool of their statement: each distinct employer is copied into it
/// once (its list and its map each keep one, two allocations), and the
/// second pattern and the join find it there. The same statement over
/// integer employers, which copy without allocating, runs the same rows
/// through the same tables, so the difference is the string copies
/// alone. (With a pool per pattern, each was copied into both pools and
/// cloned once more to be re-interned for the join: five allocations.)
#[test]
fn a_value_join_copies_each_distinct_value_once() {
    let join = "SELECT COUNT(*) AS c MATCH (a:Person {employer = e}), (b:Person {employer = e})";
    let persons = 400;
    let distinct = persons / 2;
    let (strings, count) = allocations(
        &mut employers(persons, |i| Value::str(format!("employer number {i}"))),
        join,
    );
    let (integers, same) = allocations(&mut employers(persons, |i| Value::Int(i as i64)), join);
    assert_eq!(count.rows(), same.rows(), "the same rows either way");
    assert_eq!(count.rows()[0][0], Value::Int(2 * persons as i64));
    let per_employer = (strings as f64 - integers as f64) / distinct as f64;
    println!(
        "{strings} - {integers} allocations joining {persons} Persons on {distinct} employers \
         ({per_employer:.2} each)"
    );
    assert!(
        per_employer <= 2.0,
        "{per_employer:.2} allocations per distinct employer: a value is copied more than once"
    );
}

/// The hash join's build side is one flat key array, a hash chain and
/// offset-indexed rows: it allocates per table, not per build row. Two
/// patterns joined on an integer `e` (which copies without allocating),
/// two Persons per employer, at 400, 800 and 1 600 Persons: quadrupling
/// the rows adds a bounded number of allocations — a growing vector's
/// doublings — where a key `Vec` and a bucket per row added 1 820.
#[test]
fn a_hash_join_allocates_per_table_not_per_row() {
    let join = "SELECT COUNT(*) AS c MATCH (a:Person {employer = e}), (b:Person {employer = e})";
    let mut costs = Vec::new();
    for persons in [400, 800, 1600] {
        let (cost, count) = allocations(&mut employers(persons, |i| Value::Int(i as i64)), join);
        assert_eq!(count.rows()[0][0], Value::Int(2 * persons as i64));
        println!("{persons} Persons: {cost} allocations");
        costs.push(cost as i64);
    }
    let added = costs[2] - costs[0];
    assert!(
        added <= 40,
        "{added} more allocations for 1 200 more Persons: the join allocates per row ({costs:?})"
    );
}

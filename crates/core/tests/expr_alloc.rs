//! Counted work: what evaluating an expression allocates per row.
//!
//! Expressions are compiled once per statement site: variables become
//! columns, keys symbols and literals prebuilt values, and a property
//! read borrows the graph's value set. So a WHERE comparing a property
//! with a literal allocates nothing per row — a statement's allocations
//! minus those of the same MATCH unfiltered are the same whatever the
//! number of rows filtered — and a SELECT item allocates only the cell
//! it outputs.
//!
//! Counted with the shared thread-local counting allocator
//! (`tests/support/counting_alloc.rs`): counts, not timings, so they
//! repeat exactly from run to run.

use gcore::Engine;
use gcore_ppg::{Table, Value};
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

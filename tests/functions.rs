//! The built-in scalar function library (§A.1: "standard ones for type
//! casting, string, date and collection handling"), exercised through
//! complete queries.

mod common;

use common::tour;
use gcore_repro::ppg::Value;

fn eval_one(query: &str) -> Value {
    let mut t = tour();
    let table = t.engine.query_table(query).unwrap();
    assert_eq!(table.len(), 1, "query must yield one row: {query}");
    table.rows()[0][0].clone()
}

/// Helper: wrap an expression into a one-row SELECT.
fn expr(e: &str) -> Value {
    eval_one(&format!(
        "SELECT {e} AS v MATCH (n:Person) WHERE n.firstName = 'John'"
    ))
}

#[test]
fn string_functions() {
    assert_eq!(expr("lower('AbC')"), Value::str("abc"));
    assert_eq!(expr("upper('AbC')"), Value::str("ABC"));
    assert_eq!(expr("trim('  hi  ')"), Value::str("hi"));
    assert_eq!(expr("contains('Wagner', 'agn')"), Value::Bool(true));
    assert_eq!(expr("startsWith('Wagner', 'Wag')"), Value::Bool(true));
    assert_eq!(expr("endsWith('Wagner', 'ner')"), Value::Bool(true));
    assert_eq!(expr("contains('Wagner', 'xyz')"), Value::Bool(false));
    assert_eq!(expr("substring('Wagner', 3)"), Value::str("ner"));
    assert_eq!(expr("substring('Wagner', 0, 3)"), Value::str("Wag"));
    assert_eq!(expr("substring('Wagner', 10)"), Value::str(""));
    assert_eq!(expr("size('Wagner')"), Value::Int(6));
}

#[test]
fn numeric_functions() {
    assert_eq!(expr("abs(0 - 5)"), Value::Int(5));
    assert_eq!(expr("floor(2.7)"), Value::Int(2));
    assert_eq!(expr("ceil(2.2)"), Value::Int(3));
    assert_eq!(expr("sqrt(9.0)"), Value::Float(3.0));
    assert_eq!(expr("toInteger('42')"), Value::Int(42));
    assert_eq!(expr("toFloat('2.5')"), Value::Float(2.5));
    assert_eq!(expr("toString(42)"), Value::str("42"));
    // Failed casts coalesce to NULL, not errors.
    assert_eq!(expr("toInteger('not a number')"), Value::Null);
}

#[test]
fn date_functions() {
    assert_eq!(expr("year(DATE '2014-12-01')"), Value::Int(2014));
    assert_eq!(expr("month(DATE '2014-12-01')"), Value::Int(12));
    assert_eq!(expr("day(DATE '2014-12-01')"), Value::Int(1));
    // ISO strings coerce.
    assert_eq!(expr("year('2016-07-03')"), Value::Int(2016));
    // Date comparisons have calendar order.
    assert_eq!(
        expr("DATE '2014-12-01' < DATE '2015-01-01'"),
        Value::Bool(true)
    );
}

#[test]
fn path_and_list_functions() {
    let mut t = tour();
    let table = t
        .engine
        .query_table(
            "SELECT head(nodes(p)) AS first, last(nodes(p)) AS last, \
                    size(edges(p)) AS hops, length(p) AS len \
             MATCH (n:Person)-/p <:knows*>/->(m:Person) \
             WHERE n.firstName = 'John' AND m.firstName = 'Frank'",
        )
        .unwrap();
    assert_eq!(table.len(), 1);
    let row = &table.rows()[0];
    assert_eq!(row[0].to_string(), row[0].to_string()); // head is the source
    assert_eq!(row[2], Value::Int(2));
    assert_eq!(row[3], Value::Int(2));
    assert_eq!(row[0], Value::str(format!("#n{}", t.john.raw())));
    assert_eq!(row[1], Value::str(format!("#n{}", t.frank.raw())));
}

#[test]
fn labels_function_lists_all_labels() {
    let v = expr("labels(n)");
    assert!(v.as_str().unwrap().contains("Person"));
}

#[test]
fn functions_are_null_safe() {
    // Absent input propagates NULL rather than failing.
    assert_eq!(expr("trim(n.nonexistent)"), Value::Null);
    assert_eq!(expr("year(n.nonexistent)"), Value::Null);
    assert_eq!(expr("sqrt(0.0 - 1.0)"), Value::Null);
    assert_eq!(expr("head(nodes(n))"), Value::Null, "nodes() of a non-path");
}

#[test]
fn case_insensitive_function_names() {
    assert_eq!(expr("LOWER('X')"), Value::str("x"));
    assert_eq!(expr("Starts_With('ab', 'a')"), Value::Bool(true));
}

#[test]
fn aggregates_in_select() {
    let mut t = tour();
    let table = t
        .engine
        .query_table(
            "SELECT COUNT(*) AS n, MIN(p.firstName) AS first, \
                    MAX(p.firstName) AS last, \
                    COLLECT(DISTINCT p.employer) AS emps \
             MATCH (p:Person)",
        )
        .unwrap();
    let row = &table.rows()[0];
    assert_eq!(row[0], Value::Int(5));
    assert_eq!(row[1], Value::str("Alice"));
    assert_eq!(row[2], Value::str("Peter"));
    let emps = row[3].as_str().unwrap();
    assert!(emps.contains("Acme") && emps.contains("HAL"));
}

#[test]
fn sum_and_avg() {
    let mut t = tour();
    let table = t
        .engine
        .query_table(
            "SELECT SUM(size(p.employer)) AS jobs, AVG(size(p.employer)) AS avg_jobs \
             MATCH (p:Person)",
        )
        .unwrap();
    let row = &table.rows()[0];
    assert_eq!(row[0], Value::Int(5)); // 1+0+1+1+2
    assert_eq!(row[1], Value::Float(1.0));
}

/// `SUM` over integers is exact and, past `i64`, turns to a float the
/// way `+` does — it neither rounds through a float nor saturates.
#[test]
fn sum_of_integers_is_exact_and_overflows_like_addition() {
    let one_row = "MATCH (n:Person) WHERE n.firstName = 'John'";
    let two_rows = "MATCH (n:Person) WHERE n.firstName = 'John' OR n.firstName = 'Peter'";
    // 2^53 + 1: the first integer an f64 accumulator rounds away.
    let exact = 9_007_199_254_740_993_i64;
    assert_eq!(
        eval_one(&format!("SELECT SUM({exact}) AS s {one_row}")),
        Value::Int(exact)
    );
    assert_eq!(
        eval_one(&format!("SELECT {exact} + 0 AS s {one_row}")),
        Value::Int(exact)
    );
    let max = i64::MAX;
    let added = eval_one(&format!("SELECT {max} + {max} AS s {one_row}"));
    assert_eq!(added, Value::Float(1.844_674_407_370_955_2e19));
    assert_eq!(
        eval_one(&format!("SELECT SUM({max}) AS s {two_rows}")),
        added
    );
}

//! Property tests for the binding-table algebra (§A.1) over the
//! columnar implementation: the algebraic laws the evaluator relies on,
//! plus a naive row-major oracle for the join family.
//!
//! Generated cells avoid numerically-equal-but-distinct literals (no
//! floats), so the oracle's structural equality and the interner's code
//! unification agree on which rows are duplicates.

use gcore::binding::{BindingTable, Bound, Column, TableBuilder};
use gcore::cancel::CancelToken;
use gcore_ppg::{EdgeId, NodeId, PathPropertyGraph, Value, ValueInterner};
use proptest::prelude::*;
use std::sync::Arc;

fn col(var: &str) -> Column {
    Column {
        var: var.to_owned(),
        graph: Arc::new(PathPropertyGraph::new()),
    }
}

/// A table over `pool`: each generated case builds all of its tables
/// over one pool, as the evaluator builds those of one scope.
fn table_from(pool: &Arc<ValueInterner>, vars: &[&str], rows: &[Vec<Bound>]) -> BindingTable {
    let mut b = TableBuilder::new(vars.iter().map(|v| col(v)).collect(), pool.clone());
    for r in rows {
        b.push(r);
    }
    b.finish()
}

/// Decode every row (tables are normalized, so equal tables decode to
/// equal row vectors in the same order).
fn rows_of(t: &BindingTable) -> Vec<Vec<Bound>> {
    (0..t.len())
        .map(|r| (0..t.columns().len()).map(|c| t.bound(r, c)).collect())
        .collect()
}

// ---------------------------------------------------------------------
// Naive row-major oracle for ⋈ / ⋉ / ∖ over decoded rows
// ---------------------------------------------------------------------

fn compatible(a: &[Bound], b: &[Bound], shared: &[(usize, usize)]) -> bool {
    shared
        .iter()
        .all(|&(i, j)| a[i].is_missing() || b[j].is_missing() || a[i] == b[j])
}

fn shared_pairs(av: &[&str], bv: &[&str]) -> Vec<(usize, usize)> {
    av.iter()
        .enumerate()
        .filter_map(|(i, v)| bv.iter().position(|w| w == v).map(|j| (i, j)))
        .collect()
}

/// Nested-loop join in merged-schema order (a's columns, then b's new
/// ones), sorted + deduplicated — the §A.1 definition executed naively.
fn oracle_join(a: &BindingTable, b: &BindingTable) -> Vec<Vec<Bound>> {
    let av = a.var_names();
    let bv = b.var_names();
    let shared = shared_pairs(&av, &bv);
    let b_new: Vec<usize> = (0..bv.len()).filter(|j| !av.contains(&bv[*j])).collect();
    let mut out = Vec::new();
    for ar in rows_of(a) {
        for br in rows_of(b) {
            if !compatible(&ar, &br, &shared) {
                continue;
            }
            let mut row = ar.clone();
            for &(i, j) in &shared {
                if row[i].is_missing() {
                    row[i] = br[j].clone();
                }
            }
            for &j in &b_new {
                row.push(br[j].clone());
            }
            out.push(row);
        }
    }
    out.sort();
    out.dedup();
    out
}

fn oracle_semi(a: &BindingTable, b: &BindingTable, keep_matched: bool) -> Vec<Vec<Bound>> {
    let shared = shared_pairs(&a.var_names(), &b.var_names());
    let b_rows = rows_of(b);
    let mut out: Vec<Vec<Bound>> = rows_of(a)
        .into_iter()
        .filter(|ar| b_rows.iter().any(|br| compatible(ar, br, &shared)) == keep_matched)
        .collect();
    out.sort();
    out.dedup();
    out
}

// ---------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------

const STRS: [&str; 2] = ["red", "blue"];

fn bound_strategy() -> impl Strategy<Value = Bound> {
    prop_oneof![
        Just(Bound::Missing),
        (0..3u64).prop_map(|i| Bound::Node(NodeId(i))),
        (0..2u64).prop_map(|i| Bound::Edge(EdgeId(i))),
        (0..3i64).prop_map(|i| Bound::Value(Value::Int(i))),
        (0..2usize).prop_map(|i| Bound::Value(Value::str(STRS[i]))),
    ]
}

fn rows_strategy(width: usize) -> impl Strategy<Value = Vec<Vec<Bound>>> {
    prop::collection::vec(
        prop::collection::vec(bound_strategy(), width..width + 1),
        0..6,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Ω₁ ⋈ Ω₂ = Ω₂ ⋈ Ω₁ up to column order.
    #[test]
    fn join_commutes_up_to_column_order(
        ra in rows_strategy(2),
        rb in rows_strategy(2),
    ) {
        let pool = Arc::default();
        let a = table_from(&pool, &["x", "y"], &ra);
        let b = table_from(&pool, &["y", "z"], &rb);
        let ab = a.join(&b, &CancelToken::new()).unwrap();
        let ba = b.join(&a, &CancelToken::new()).unwrap();
        let order = ["x", "y", "z"];
        prop_assert_eq!(
            rows_of(&ab.project(&order)),
            rows_of(&ba.project(&order)),
            "a = {:?}, b = {:?}", ra, rb
        );
    }

    /// Ω₁ ⟕ Ω₂ = (Ω₁ ⋈ Ω₂) ∪ (Ω₁ ∖ Ω₂).
    #[test]
    fn left_outer_is_join_union_anti(
        ra in rows_strategy(2),
        rb in rows_strategy(2),
    ) {
        let pool = Arc::default();
        let a = table_from(&pool, &["x", "y"], &ra);
        let b = table_from(&pool, &["y", "z"], &rb);
        let lhs = a.left_outer_join(&b, &CancelToken::new()).unwrap();
        let rhs = a.join(&b, &CancelToken::new()).unwrap().union(&a.antijoin(&b, &CancelToken::new()).unwrap());
        prop_assert_eq!(rows_of(&lhs), rows_of(&rhs));
    }

    /// The unit table is the ⋈ identity on both sides.
    #[test]
    fn unit_is_join_identity(ra in rows_strategy(2)) {
        let pool = Arc::default();
        let a = table_from(&pool, &["x", "y"], &ra);
        let left = BindingTable::unit(pool.clone()).join(&a, &CancelToken::new()).unwrap();
        let right = a.join(&BindingTable::unit(pool.clone()), &CancelToken::new()).unwrap();
        prop_assert_eq!(rows_of(&left), rows_of(&a));
        prop_assert_eq!(rows_of(&right), rows_of(&a));
    }

    /// Rebuilding a table from its own rows (even pushed twice) is the
    /// identity: normalization is idempotent and set semantics hold.
    #[test]
    fn dedup_is_idempotent(ra in rows_strategy(3)) {
        let pool = Arc::default();
        let a = table_from(&pool, &["x", "y", "z"], &ra);
        let decoded = rows_of(&a);
        let doubled: Vec<Vec<Bound>> =
            decoded.iter().chain(decoded.iter()).cloned().collect();
        let rebuilt = table_from(&pool, &["x", "y", "z"], &doubled);
        prop_assert_eq!(rows_of(&rebuilt), decoded);
    }

    /// ⋈ agrees with the naive nested-loop oracle.
    #[test]
    fn join_matches_oracle(
        ra in rows_strategy(2),
        rb in rows_strategy(2),
    ) {
        let pool = Arc::default();
        let a = table_from(&pool, &["x", "y"], &ra);
        let b = table_from(&pool, &["y", "z"], &rb);
        prop_assert_eq!(rows_of(&a.join(&b, &CancelToken::new()).unwrap()), oracle_join(&a, &b));
    }

    /// ⋉ and ∖ agree with the oracle and partition Ω₁.
    #[test]
    fn semijoin_antijoin_match_oracle_and_partition(
        ra in rows_strategy(2),
        rb in rows_strategy(2),
    ) {
        let pool = Arc::default();
        let a = table_from(&pool, &["x", "y"], &ra);
        let b = table_from(&pool, &["y", "z"], &rb);
        let semi = a.semijoin(&b, &CancelToken::new()).unwrap();
        let anti = a.antijoin(&b, &CancelToken::new()).unwrap();
        prop_assert_eq!(rows_of(&semi), oracle_semi(&a, &b, true));
        prop_assert_eq!(rows_of(&anti), oracle_semi(&a, &b, false));
        // ⋉ ∪ ∖ = Ω₁ (they partition the left table).
        prop_assert_eq!(rows_of(&semi.union(&anti)), rows_of(&a));
    }
}

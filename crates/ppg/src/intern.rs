//! Instance-based interning of literal [`Value`]s.
//!
//! Binding tables intern the *values* that flow through them (property
//! unrolling, COST variables, FROM columns) as [`symbols`](crate::symbols)
//! interns names, but **per evaluation scope**, not globally, so a
//! long-running engine never accumulates every literal it has seen. A
//! scope is a statement, or one correlated evaluation inside it (an
//! `EXISTS` body or a pattern predicate, per outer row); every table of a
//! scope shares its pool, so the codes of any two of them are comparable
//! and nothing translates codes between pools. Equal values (so `Int(1)`
//! and `Float(1.0)`) get one code, which lets the tables compare and hash
//! encoded `u64` cells instead of cloning `Value`s.

use crate::collections::Pool;
use crate::value::Value;
use std::sync::{Arc, RwLock};

const POISONED: &str = "a rank snapshot panicked while locked";

/// An append-only pool of distinct [`Value`]s, shared (by `Arc`) by the
/// binding tables of one evaluation scope; equal values map to equal
/// codes, and a code handed out stays valid.
#[derive(Default, Debug)]
pub struct ValueInterner {
    pool: Pool<Value>,
    /// Memoized [`rank_snapshot`](Self::rank_snapshot), keyed by the
    /// pool size it was computed at (the pool is append-only, so size
    /// doubles as a generation counter).
    rank_cache: RwLock<Option<(usize, Arc<Vec<u32>>)>>,
}

impl ValueInterner {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `v`, returning its canonical code. Idempotent.
    pub fn intern(&self, v: &Value) -> u32 {
        self.pool.intern(v)
    }

    /// The value behind a code, cloned out of the pool. Panics if `code`
    /// was never handed out by this pool.
    pub fn resolve(&self, code: u32) -> Value {
        self.pool.resolve(code)
    }

    /// Apply `f` to the value behind a code, *borrowed* from the pool —
    /// one read lock, no clone: [`resolve`](Self::resolve) for callers
    /// that only inspect the value. Panics as `resolve` does.
    pub fn with_resolved<R>(&self, code: u32, f: impl FnOnce(&Value) -> R) -> R {
        self.pool.with_values(|values| f(&values[code as usize]))
    }

    /// Number of distinct values interned so far.
    pub fn len(&self) -> usize {
        self.pool.with_values(<[Value]>::len)
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the pool's value order: `rank[code]` is the position
    /// of `code`'s value in the `Value` total order over all values
    /// interned so far, so sorting encoded cells by rank keeps
    /// binding-table row order independent of interning order.
    ///
    /// Memoized: the snapshot is recomputed only when the pool has grown
    /// since the last call, so repeated table normalizations against a
    /// stable pool cost one `Arc` clone instead of a sort.
    pub fn rank_snapshot(&self) -> Arc<Vec<u32>> {
        self.pool.with_values(|values| {
            let n = values.len();
            let cached = self.rank_cache.read().expect(POISONED).clone();
            if let Some((_, rank)) = cached.filter(|(at, _)| *at == n) {
                return rank;
            }
            let mut by_value: Vec<u32> = (0..n as u32).collect();
            by_value.sort_unstable_by(|&a, &b| values[a as usize].cmp(&values[b as usize]));
            let mut rank = vec![0u32; n];
            for (pos, &code) in by_value.iter().enumerate() {
                rank[code as usize] = pos as u32;
            }
            let rank = Arc::new(rank);
            *self.rank_cache.write().expect(POISONED) = Some((n, rank.clone()));
            rank
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let pool = ValueInterner::new();
        let a = pool.intern(&Value::Int(7));
        let b = pool.intern(&Value::str("x"));
        let c = pool.intern(&Value::Int(7));
        assert_eq!(a, c);
        assert_ne!(a, b);
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.resolve(a), Value::Int(7));
        assert_eq!(pool.resolve(b), Value::str("x"));
    }

    #[test]
    fn numerically_equal_values_unify() {
        // Value's structural equality makes Int(1) == Float(1.0); the
        // pool must hand both the same code or encoded joins would miss.
        let pool = ValueInterner::new();
        assert_eq!(pool.intern(&Value::Int(1)), pool.intern(&Value::Float(1.0)));
    }

    #[test]
    fn with_resolved_borrows() {
        let pool = ValueInterner::new();
        let a = pool.intern(&Value::str("hello"));
        assert!(pool.with_resolved(a, |v| matches!(v, Value::Str(_))));
        assert_eq!(pool.with_resolved(a, |v| v.clone()), Value::str("hello"));
    }

    #[test]
    fn rank_snapshot_orders_by_value_not_by_code() {
        let pool = ValueInterner::new();
        let z = pool.intern(&Value::str("z"));
        let a = pool.intern(&Value::str("a"));
        let one = pool.intern(&Value::Int(1));
        let rank = pool.rank_snapshot();
        // Value order: Int(1) < "a" < "z" (numbers rank below strings).
        assert!(rank[one as usize] < rank[a as usize]);
        assert!(rank[a as usize] < rank[z as usize]);
    }
}

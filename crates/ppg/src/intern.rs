//! Instance-based interning of literal [`Value`]s.
//!
//! [`symbols`](crate::symbols) interns labels and property keys into
//! process-global `u32` symbols; binding tables need the same trick for
//! the *values* that flow through them (property unrolling, COST
//! variables, FROM columns), but with a crucial difference: value pools
//! are **per evaluation**, not global, so a long-running engine never
//! accumulates every literal it has ever seen. A [`ValueInterner`] is an
//! append-only pool shared (via `Arc`) by all the binding tables of one
//! evaluation; equal values (under `Value`'s structural equality, so
//! `Int(1)` and `Float(1.0)` unify) always receive the same code, which
//! lets the tables compare and hash encoded `u64` cells instead of
//! cloning `Value`s.

use crate::hash::FxHashMap;
use crate::value::Value;
use std::sync::{Arc, RwLock};

/// An append-only pool of distinct [`Value`]s, shared by the binding
/// tables of one evaluation. Interning is idempotent: equal values map
/// to equal codes.
///
/// Interior mutability (an `RwLock`) keeps interning available through
/// the shared `Arc` handles the tables hold; the pool only ever grows,
/// so codes handed out earlier stay valid forever.
#[derive(Default, Debug)]
pub struct ValueInterner {
    inner: RwLock<Inner>,
    /// Memoized [`rank_snapshot`](Self::rank_snapshot), keyed by the
    /// pool size it was computed at (the pool is append-only, so size
    /// doubles as a generation counter).
    rank_cache: RwLock<Option<(usize, Arc<Vec<u32>>)>>,
}

#[derive(Default, Debug)]
struct Inner {
    codes: FxHashMap<Value, u32>,
    values: Vec<Value>,
}

impl ValueInterner {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `v`, returning its canonical code. Idempotent.
    pub fn intern(&self, v: &Value) -> u32 {
        if let Some(&c) = self.inner.read().unwrap().codes.get(v) {
            return c;
        }
        let mut inner = self.inner.write().unwrap();
        if let Some(&c) = inner.codes.get(v) {
            return c; // raced between read and write lock
        }
        let c = inner.values.len() as u32;
        inner.values.push(v.clone());
        inner.codes.insert(v.clone(), c);
        c
    }

    /// The value behind a code (cloned out of the pool).
    ///
    /// # Panics
    /// If `code` was never handed out by this pool.
    pub fn resolve(&self, code: u32) -> Value {
        self.inner.read().unwrap().values[code as usize].clone()
    }

    /// Apply `f` to the value behind a code, *borrowed* from the pool —
    /// one read lock, no clone. The borrowing counterpart of
    /// [`resolve`](Self::resolve) for callers that only inspect the
    /// value (comparisons, hashing, truthiness).
    ///
    /// # Panics
    /// If `code` was never handed out by this pool.
    pub fn with_resolved<R>(&self, code: u32, f: impl FnOnce(&Value) -> R) -> R {
        f(&self.inner.read().unwrap().values[code as usize])
    }

    /// Number of distinct values interned so far.
    pub fn len(&self) -> usize {
        self.inner.read().unwrap().values.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the pool's value order: `rank[code]` is the position
    /// of `code`'s value in the `Value` total order over all values
    /// interned so far. Sorting encoded cells by rank therefore
    /// reproduces the order a `Vec<Value>` sort would give, which keeps
    /// binding-table row order deterministic and independent of
    /// interning order.
    ///
    /// Memoized: the snapshot is recomputed only when the pool has grown
    /// since the last call, so repeated table normalizations against a
    /// stable pool cost one `Arc` clone instead of a sort.
    pub fn rank_snapshot(&self) -> Arc<Vec<u32>> {
        let inner = self.inner.read().unwrap();
        let n = inner.values.len();
        if let Some((at, cached)) = self.rank_cache.read().unwrap().as_ref() {
            if *at == n {
                return cached.clone();
            }
        }
        let mut by_value: Vec<u32> = (0..n as u32).collect();
        by_value.sort_unstable_by(|&a, &b| inner.values[a as usize].cmp(&inner.values[b as usize]));
        let mut rank = vec![0u32; n];
        for (pos, &code) in by_value.iter().enumerate() {
            rank[code as usize] = pos as u32;
        }
        let rank = Arc::new(rank);
        *self.rank_cache.write().unwrap() = Some((n, rank.clone()));
        rank
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

//! Multi-valued properties.
//!
//! Definition 2.1 makes σ a function `(N ∪ E ∪ P) × K → FSET(V)`: a property
//! of an element is a *finite set of values*. The guided tour leans on this:
//! Frank Gold's `employer` is `{"CWI", "MIT"}`, and `"MIT" = {"CWI","MIT"}`
//! evaluates to FALSE while `"MIT" IN {"CWI","MIT"}` is TRUE.
//!
//! [`PropertySet`] is that finite set: sorted, deduplicated, never containing
//! `Null`. The empty set means "property absent". [`PropertyMap`] is one
//! element's σ(x, ·): its sets by key.
//!
//! Nearly every stored set is a singleton and nearly every element has a
//! handful of keys: a one-value set holds its value inline, and a map is
//! one vector of `(key, set)` pairs sorted by key — one heap block per
//! element with properties.

use crate::collections::SortedSet;
use crate::symbols::Key;
use crate::value::Value;
use std::fmt;

/// A finite set of values — σ(x, k) in Definition 2.1 — that never holds
/// `Null`. Equality, order and hashing are those of the sorted value
/// slice ([`PropertySet::values`]), however the set is stored.
#[derive(Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PropertySet(SortedSet<Value>);

impl PropertySet {
    /// The empty set (property absent).
    pub fn empty() -> Self {
        Self::default()
    }

    /// A singleton set — the common case for scalar properties.
    /// `Null` yields the empty set (absence).
    pub fn single(v: Value) -> Self {
        if v.is_null() {
            return Self::empty();
        }
        PropertySet(SortedSet::single(v))
    }

    /// Build from any collection of values; `Null`s are dropped,
    /// duplicates collapse.
    pub fn from_values<I: IntoIterator<Item = Value>>(values: I) -> Self {
        PropertySet(values.into_iter().filter(|v| !v.is_null()).collect())
    }

    /// Insert a value; returns true if it was new. `Null` is ignored.
    pub fn insert(&mut self, v: Value) -> bool {
        !v.is_null() && self.0.insert(v)
    }

    /// True when the property is absent (σ(x,k) = ∅).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Cardinality of the set (the paper's SIZE-style length test on
    /// multi-valued properties).
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Membership, using semantic value equality.
    pub fn contains(&self, v: &Value) -> bool {
        self.0.contains(v)
    }

    /// Set inclusion (the paper's SUBSET operator).
    pub fn is_subset_of(&self, other: &PropertySet) -> bool {
        self.iter().all(|v| other.contains(v))
    }

    /// Set equality as used by `=` on multi-valued properties.
    pub fn set_eq(&self, other: &PropertySet) -> bool {
        self == other
    }

    /// If the set is a singleton, the lone value.
    pub fn as_singleton(&self) -> Option<&Value> {
        match self.values() {
            [v] => Some(v),
            _ => None,
        }
    }

    /// Iterate values in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = &Value> {
        self.values().iter()
    }

    /// Sorted values as a slice.
    pub fn values(&self) -> &[Value] {
        self.0.as_slice()
    }

    /// Union (graph union merges property sets, §A.5).
    pub fn union(&self, other: &PropertySet) -> PropertySet {
        PropertySet(self.0.union(&other.0))
    }

    /// Add every value of `other` to this set, cloning only the ones it
    /// lacks.
    pub fn union_in_place(&mut self, other: &PropertySet) {
        self.0.union_in_place(&other.0);
    }

    /// Intersection (graph intersection, §A.5).
    pub fn intersection(&self, other: &PropertySet) -> PropertySet {
        PropertySet(self.0.intersection(&other.0))
    }
}

impl fmt::Display for PropertySet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The paper prints singleton sets without braces: "MIT", not {"MIT"}.
        match self.as_singleton() {
            Some(v) => write!(f, "{v}"),
            None => {
                write!(f, "{{")?;
                for (i, v) in self.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// The singleton set of one scalar.
macro_rules! singleton_from {
    ($($t:ty),*) => {$(
        impl From<$t> for PropertySet {
            fn from(v: $t) -> Self {
                PropertySet::single(v.into())
            }
        }
    )*};
}

singleton_from!(Value, &str, i64, f64);

impl FromIterator<Value> for PropertySet {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        PropertySet::from_values(iter)
    }
}

/// σ(x, ·) of one element: its property sets by key, iterated in
/// ascending key order. The map operations of a `BTreeMap<Key,
/// PropertySet>` that the engine uses, over one vector sorted by key.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct PropertyMap {
    entries: Vec<(Key, PropertySet)>,
}

impl PropertyMap {
    /// The empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty map with room for exactly `keys` keys.
    pub fn with_capacity(keys: usize) -> Self {
        PropertyMap {
            entries: Vec::with_capacity(keys),
        }
    }

    fn find(&self, key: Key) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(&key))
    }

    /// The set stored under `key`.
    pub fn get(&self, key: &Key) -> Option<&PropertySet> {
        let i = self.find(*key).ok()?;
        Some(&self.entries[i].1)
    }

    /// The set stored under `key`, mutably.
    pub fn get_mut(&mut self, key: &Key) -> Option<&mut PropertySet> {
        let i = self.find(*key).ok()?;
        Some(&mut self.entries[i].1)
    }

    /// Store `values` under `key`; returns the set it replaces.
    pub fn insert(&mut self, key: Key, values: PropertySet) -> Option<PropertySet> {
        match self.find(key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, values)),
            Err(i) => {
                // Most elements have one key: room for one, not the
                // four a vector's first growth makes.
                if self.entries.capacity() == 0 {
                    self.entries.reserve_exact(1);
                }
                self.entries.insert(i, (key, values));
                None
            }
        }
    }

    /// Remove `key`'s set and return it.
    pub fn remove(&mut self, key: &Key) -> Option<PropertySet> {
        let i = self.find(*key).ok()?;
        Some(self.entries.remove(i).1)
    }

    /// The `(key, set)` pairs in ascending key order.
    pub fn iter(&self) -> Iter<'_> {
        self.entries.iter().map(|(k, vs)| (k, vs))
    }

    /// The keys, ascending.
    pub fn keys(&self) -> impl Iterator<Item = &Key> {
        self.entries.iter().map(|(k, _)| k)
    }

    /// The number of keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the element has no property.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The pairs of a [`PropertyMap`], in ascending key order.
pub type Iter<'a> = std::iter::Map<
    std::slice::Iter<'a, (Key, PropertySet)>,
    fn(&'a (Key, PropertySet)) -> (&'a Key, &'a PropertySet),
>;

impl<'a> IntoIterator for &'a PropertyMap {
    type Item = (&'a Key, &'a PropertySet);
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl fmt::Debug for PropertyMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn multi(vals: &[&str]) -> PropertySet {
        vals.iter().map(|s| Value::str(*s)).collect()
    }

    #[test]
    fn papers_frank_gold_example() {
        // "MIT" = {"CWI","MIT"} is FALSE; "MIT" IN {"CWI","MIT"} is TRUE.
        let employer = multi(&["CWI", "MIT"]);
        let mit = PropertySet::from("MIT");
        assert!(!mit.set_eq(&employer));
        assert!(employer.contains(&Value::str("MIT")));
        assert!(mit.is_subset_of(&employer));
        assert!(!employer.is_subset_of(&mit));
    }

    #[test]
    fn singleton_display_omits_braces() {
        assert_eq!(PropertySet::from("MIT").to_string(), "MIT");
        assert_eq!(multi(&["CWI", "MIT"]).to_string(), "{CWI, MIT}");
        assert_eq!(PropertySet::empty().to_string(), "{}");
    }

    #[test]
    fn null_never_enters_a_set() {
        let mut s = PropertySet::empty();
        assert!(!s.insert(Value::Null));
        assert!(s.is_empty());
        assert!(PropertySet::single(Value::Null).is_empty());
    }

    #[test]
    fn insert_dedups_and_sorts() {
        let mut s = PropertySet::empty();
        assert!(s.insert(Value::Int(2)));
        assert!(s.insert(Value::Int(1)));
        assert!(!s.insert(Value::Int(2)));
        assert_eq!(s.values(), &[Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn union_and_intersection() {
        let a = multi(&["x", "y"]);
        let b = multi(&["y", "z"]);
        assert_eq!(a.union(&b), multi(&["x", "y", "z"]));
        assert_eq!(a.intersection(&b), multi(&["y"]));
    }

    #[test]
    fn as_singleton() {
        assert!(PropertySet::empty().as_singleton().is_none());
        assert!(multi(&["a", "b"]).as_singleton().is_none());
        assert_eq!(
            PropertySet::from("a").as_singleton(),
            Some(&Value::str("a"))
        );
    }

    #[test]
    fn numeric_dedup_across_int_float() {
        let s = PropertySet::from_values([Value::Int(1), Value::Float(1.0)]);
        assert_eq!(s.len(), 1);
    }
}

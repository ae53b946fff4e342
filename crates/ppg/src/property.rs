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
//! handful of keys, so both are kept small: a one-value set holds its value
//! inline (no heap block), and a map is one vector of `(key, set)` pairs
//! sorted by key — one heap block per element with properties, however
//! many keys it has. A set's equality, order and hashing are those of
//! its sorted values, however it is stored.

use crate::symbols::Key;
use crate::value::Value;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A finite set of values — σ(x, k) in Definition 2.1.
///
/// Equality, order and hashing are those of the sorted value slice
/// ([`PropertySet::values`]), however the set is stored.
#[derive(Clone, Default)]
pub struct PropertySet {
    values: Values,
}

/// Storage of a [`PropertySet`]: sorted by `Value`'s total order,
/// deduplicated. A lone value lives inline; `Many` holds none (the empty
/// set, which allocates nothing) or two and more.
#[derive(Clone)]
enum Values {
    One(Value),
    Many(Vec<Value>),
}

impl Default for Values {
    fn default() -> Self {
        Values::Many(Vec::new())
    }
}

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
        PropertySet {
            values: Values::One(v),
        }
    }

    /// Build from any collection of values; `Null`s are dropped,
    /// duplicates collapse.
    pub fn from_values<I: IntoIterator<Item = Value>>(values: I) -> Self {
        let mut s = Self::empty();
        for v in values {
            s.insert(v);
        }
        s
    }

    /// Insert a value; returns true if it was new. `Null` is ignored.
    pub fn insert(&mut self, v: Value) -> bool {
        if v.is_null() {
            return false;
        }
        match &mut self.values {
            Values::Many(vs) if vs.is_empty() => self.values = Values::One(v),
            Values::Many(vs) => match vs.binary_search(&v) {
                Ok(_) => return false,
                Err(pos) => vs.insert(pos, v),
            },
            Values::One(one) => {
                let order = (*one).cmp(&v);
                if order == Ordering::Equal {
                    return false;
                }
                // The inline value moves to the heap with the new one.
                let one = std::mem::replace(one, Value::Null);
                let both = if order == Ordering::Less {
                    vec![one, v]
                } else {
                    vec![v, one]
                };
                self.values = Values::Many(both);
            }
        }
        true
    }

    /// True when the property is absent (σ(x,k) = ∅).
    pub fn is_empty(&self) -> bool {
        self.values().is_empty()
    }

    /// Cardinality of the set (the paper's SIZE-style length test on
    /// multi-valued properties).
    pub fn len(&self) -> usize {
        self.values().len()
    }

    /// Membership, using semantic value equality.
    pub fn contains(&self, v: &Value) -> bool {
        self.values().binary_search(v).is_ok()
    }

    /// Set inclusion (the paper's SUBSET operator).
    pub fn is_subset_of(&self, other: &PropertySet) -> bool {
        self.iter().all(|v| other.contains(v))
    }

    /// Set equality as used by `=` on multi-valued properties.
    pub fn set_eq(&self, other: &PropertySet) -> bool {
        self.values() == other.values()
    }

    /// If the set is a singleton, the lone value.
    pub fn as_singleton(&self) -> Option<&Value> {
        match &self.values {
            Values::One(v) => Some(v),
            Values::Many(_) => None,
        }
    }

    /// Iterate values in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = &Value> {
        self.values().iter()
    }

    /// Sorted values as a slice.
    pub fn values(&self) -> &[Value] {
        match &self.values {
            Values::One(v) => std::slice::from_ref(v),
            Values::Many(vs) => vs,
        }
    }

    /// Union (graph union merges property sets, §A.5).
    pub fn union(&self, other: &PropertySet) -> PropertySet {
        let mut out = self.clone();
        out.union_in_place(other);
        out
    }

    /// Add every value of `other` to this set, cloning only the ones it
    /// lacks.
    pub fn union_in_place(&mut self, other: &PropertySet) {
        for v in other.iter() {
            if !self.contains(v) {
                self.insert(v.clone());
            }
        }
    }

    /// Intersection (graph intersection, §A.5).
    pub fn intersection(&self, other: &PropertySet) -> PropertySet {
        self.iter().filter(|v| other.contains(v)).cloned().collect()
    }
}

impl PartialEq for PropertySet {
    fn eq(&self, other: &Self) -> bool {
        self.values() == other.values()
    }
}

impl Eq for PropertySet {}

impl PartialOrd for PropertySet {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PropertySet {
    fn cmp(&self, other: &Self) -> Ordering {
        self.values().cmp(other.values())
    }
}

impl Hash for PropertySet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.values().hash(state);
    }
}

impl fmt::Debug for PropertySet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PropertySet")
            .field("values", &self.values())
            .finish()
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

impl From<Value> for PropertySet {
    fn from(v: Value) -> Self {
        PropertySet::single(v)
    }
}

impl From<&str> for PropertySet {
    fn from(s: &str) -> Self {
        PropertySet::single(Value::str(s))
    }
}

impl From<i64> for PropertySet {
    fn from(i: i64) -> Self {
        PropertySet::single(Value::Int(i))
    }
}

impl From<f64> for PropertySet {
    fn from(f: f64) -> Self {
        PropertySet::single(Value::Float(f))
    }
}

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

    fn find(&self, key: &Key) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(key))
    }

    /// The set stored under `key`.
    pub fn get(&self, key: &Key) -> Option<&PropertySet> {
        let i = self.find(key).ok()?;
        Some(&self.entries[i].1)
    }

    /// The set stored under `key`, mutably.
    pub fn get_mut(&mut self, key: &Key) -> Option<&mut PropertySet> {
        let i = self.find(key).ok()?;
        Some(&mut self.entries[i].1)
    }

    /// Store `values` under `key`; returns the set it replaces.
    pub fn insert(&mut self, key: Key, values: PropertySet) -> Option<PropertySet> {
        match self.find(&key) {
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
        let i = self.find(key).ok()?;
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

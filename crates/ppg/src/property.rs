//! Multi-valued properties.
//!
//! Definition 2.1 makes σ a function `(N ∪ E ∪ P) × K → FSET(V)`: a property
//! of an element is a *finite set of values*. The guided tour leans on this:
//! Frank Gold's `employer` is `{"CWI", "MIT"}`, and `"MIT" = {"CWI","MIT"}`
//! evaluates to FALSE while `"MIT" IN {"CWI","MIT"}` is TRUE.
//!
//! [`PropertySet`] is that finite set: sorted, deduplicated, never containing
//! `Null`. The empty set means "property absent".

use crate::value::Value;
use std::fmt;

/// A finite set of values — σ(x, k) in Definition 2.1.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Debug)]
pub struct PropertySet {
    // Sorted by Value's total order, deduplicated.
    values: Vec<Value>,
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
        PropertySet { values: vec![v] }
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
        match self.values.binary_search(&v) {
            Ok(_) => false,
            Err(pos) => {
                self.values.insert(pos, v);
                true
            }
        }
    }

    /// True when the property is absent (σ(x,k) = ∅).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Cardinality of the set (the paper's SIZE-style length test on
    /// multi-valued properties).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Membership, using semantic value equality.
    pub fn contains(&self, v: &Value) -> bool {
        self.values.binary_search(v).is_ok()
    }

    /// Set inclusion (the paper's SUBSET operator).
    pub fn is_subset_of(&self, other: &PropertySet) -> bool {
        self.values.iter().all(|v| other.contains(v))
    }

    /// Set equality as used by `=` on multi-valued properties.
    pub fn set_eq(&self, other: &PropertySet) -> bool {
        self.values == other.values
    }

    /// If the set is a singleton, the lone value.
    pub fn as_singleton(&self) -> Option<&Value> {
        if self.values.len() == 1 {
            Some(&self.values[0])
        } else {
            None
        }
    }

    /// Iterate values in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = &Value> {
        self.values.iter()
    }

    /// Sorted values as a slice.
    pub fn values(&self) -> &[Value] {
        &self.values
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
            if let Err(pos) = self.values.binary_search(v) {
                self.values.insert(pos, v.clone());
            }
        }
    }

    /// Intersection (graph intersection, §A.5).
    pub fn intersection(&self, other: &PropertySet) -> PropertySet {
        PropertySet {
            values: self
                .values
                .iter()
                .filter(|v| other.contains(v))
                .cloned()
                .collect(),
        }
    }
}

impl fmt::Display for PropertySet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The paper prints singleton sets without braces: "MIT", not {"MIT"}.
        match self.as_singleton() {
            Some(v) => write!(f, "{v}"),
            None => {
                write!(f, "{{")?;
                for (i, v) in self.values.iter().enumerate() {
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

//! The two containers the data model needs more than once: the finite
//! set of Definition 2.1 (λ maps to `FSET(L)`, σ to `FSET(V)`) and an
//! interning pool (the label and key symbol tables, the binding tables'
//! literal pools).

use crate::hash::FxHashMap;
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::{RwLock, RwLockReadGuard};

/// A finite set, sorted and deduplicated by `T`'s total order. Nearly
/// every stored set has one member, kept inline; the empty set allocates
/// nothing. Equality, order and hashing are those of the sorted member
/// slice, length prefix included, however the set is stored.
#[derive(Clone)]
pub struct SortedSet<T>(Repr<T>);

/// Storage of a [`SortedSet`]: `Many` holds none or two and more.
#[derive(Clone)]
enum Repr<T> {
    One(T),
    Many(Vec<T>),
}

impl<T> Default for SortedSet<T> {
    fn default() -> Self {
        SortedSet(Repr::Many(Vec::new()))
    }
}

impl<T: Ord> SortedSet<T> {
    /// The empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// A one-member set.
    pub fn single(member: T) -> Self {
        SortedSet(Repr::One(member))
    }

    /// The members, ascending.
    pub fn as_slice(&self) -> &[T] {
        match &self.0 {
            Repr::One(member) => std::slice::from_ref(member),
            Repr::Many(members) => members,
        }
    }

    /// The members, ascending, as a vector.
    pub fn into_vec(self) -> Vec<T> {
        match self.0 {
            Repr::One(member) => vec![member],
            Repr::Many(members) => members,
        }
    }

    /// Insert `member`, keeping the set sorted. Returns true if it was
    /// not in the set yet.
    pub fn insert(&mut self, member: T) -> bool {
        let Err(pos) = self.as_slice().binary_search(&member) else {
            return false;
        };
        self.0 = match std::mem::take(self).0 {
            Repr::Many(mut members) if !members.is_empty() => {
                members.insert(pos, member);
                Repr::Many(members)
            }
            Repr::Many(_) => Repr::One(member),
            // The inline member moves to the heap beside the new one.
            Repr::One(one) if pos == 0 => Repr::Many(vec![member, one]),
            Repr::One(one) => Repr::Many(vec![one, member]),
        };
        true
    }

    /// Remove `member` (given by value or by reference). Returns true if
    /// it was in the set. A set left with one member keeps it inline.
    pub fn remove(&mut self, member: impl Borrow<T>) -> bool {
        let Ok(pos) = self.as_slice().binary_search(member.borrow()) else {
            return false;
        };
        self.0 = match std::mem::take(self).0 {
            Repr::Many(mut members) if members.len() > 2 => {
                members.remove(pos);
                Repr::Many(members)
            }
            // Two members: the one not removed stays.
            Repr::Many(mut members) => Repr::One(members.swap_remove(1 - pos)),
            Repr::One(_) => Repr::Many(Vec::new()),
        };
        true
    }

    /// Membership, given the member by value or by reference.
    pub fn contains(&self, member: impl Borrow<T>) -> bool {
        self.as_slice().binary_search(member.borrow()).is_ok()
    }

    /// True when the set has no member.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// The number of members.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }
}

impl<T: Ord + Clone> SortedSet<T> {
    /// Set union.
    pub fn union(&self, other: &Self) -> Self {
        let mut out = self.clone();
        out.union_in_place(other);
        out
    }

    /// Add every member of `other`, cloning only the ones this set lacks.
    pub fn union_in_place(&mut self, other: &Self) {
        for member in other.as_slice() {
            if !self.contains(member) {
                self.insert(member.clone());
            }
        }
    }

    /// Set intersection.
    pub fn intersection(&self, other: &Self) -> Self {
        let both = self.as_slice().iter().filter(|m| other.contains(*m));
        both.cloned().collect()
    }
}

impl<T: Ord + Copy> SortedSet<T> {
    /// The members, ascending, by value.
    pub fn iter(&self) -> std::iter::Copied<std::slice::Iter<'_, T>> {
        self.as_slice().iter().copied()
    }
}

impl<T: Ord> PartialEq for SortedSet<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Ord> Eq for SortedSet<T> {}

impl<T: Ord> PartialOrd for SortedSet<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T: Ord> Ord for SortedSet<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl<T: Ord + Hash> Hash for SortedSet<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl<T: Ord + fmt::Debug> fmt::Debug for SortedSet<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.as_slice()).finish()
    }
}

impl<T: Ord> FromIterator<T> for SortedSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut set = Self::new();
        for member in iter {
            set.insert(member);
        }
        set
    }
}

const POISONED: &str = "an interning pool panicked while locked";

/// An append-only interning pool, usable through shared references:
/// equal values get equal dense `u32` codes, in order of first
/// interning. A value already interned is found under the read lock;
/// only a miss takes the write lock and re-checks under it, so racing
/// first interners agree on one code.
#[derive(Debug)]
pub(crate) struct Pool<T> {
    entries: RwLock<Entries<T>>,
}

#[derive(Debug)]
struct Entries<T> {
    codes: FxHashMap<T, u32>,
    values: Vec<T>,
}

impl<T> Pool<T> {
    /// An empty pool.
    pub const fn new() -> Self {
        Pool {
            entries: RwLock::new(Entries {
                codes: FxHashMap::with_hasher(BuildHasherDefault::new()),
                values: Vec::new(),
            }),
        }
    }

    fn read(&self) -> RwLockReadGuard<'_, Entries<T>> {
        self.entries.read().expect(POISONED)
    }

    /// Apply `f` to the values interned so far, indexed by code.
    pub fn with_values<R>(&self, f: impl FnOnce(&[T]) -> R) -> R {
        f(&self.read().values)
    }
}

impl<T> Default for Pool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Hash + Eq + Clone> Pool<T> {
    /// `value`'s code if it has been interned, without interning it.
    pub fn lookup<Q>(&self, value: &Q) -> Option<u32>
    where
        T: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.read().codes.get(value).copied()
    }

    /// Intern `value`, returning its code; it is copied in on a miss only.
    pub fn intern<Q>(&self, value: &Q) -> u32
    where
        T: Borrow<Q>,
        Q: Hash + Eq + ToOwned<Owned = T> + ?Sized,
    {
        if let Some(code) = self.lookup(value) {
            return code;
        }
        let mut entries = self.entries.write().expect(POISONED);
        if let Some(&code) = entries.codes.get(value) {
            return code; // raced between the read and the write lock
        }
        let code = entries.values.len() as u32;
        let owned = value.to_owned();
        entries.values.push(owned.clone());
        entries.codes.insert(owned, code);
        code
    }

    /// The value behind `code`, cloned; panics on a code not handed out.
    pub fn resolve(&self, code: u32) -> T {
        self.read().values[code as usize].clone()
    }
}

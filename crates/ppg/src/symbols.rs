//! Interned label and property-key symbols.
//!
//! The paper's `L` (labels) and `K` (property names) are infinite sets of
//! names; any concrete graph touches only finitely many. We intern them into
//! `u32` symbols so label tests and property lookups in the hot matching
//! loops compare integers instead of strings.
//!
//! The interner is process-global: a symbol interned once means the same
//! string everywhere, so graphs, queries and engines can be mixed freely.
//! Name-to-symbol lookups — once per row in expression evaluation — read
//! a per-thread cache of it first, so threads evaluating at once do not
//! write the interner's shared lock state for every name they resolve.

use crate::hash::FxHashMap;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{OnceLock, RwLock};
use std::thread::LocalKey;

/// An interned label name (element of `L`), used on nodes, edges and paths.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Label(u32);

/// An interned property key (element of `K`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key(u32);

struct Interner {
    by_name: HashMap<String, u32>,
    names: Vec<String>,
}

impl Interner {
    fn new() -> Self {
        Interner {
            by_name: HashMap::new(),
            names: Vec::new(),
        }
    }

    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_owned());
        self.by_name.insert(name.to_owned(), id);
        id
    }

    fn resolve(&self, id: u32) -> String {
        self.names[id as usize].clone()
    }

    fn lookup(&self, name: &str) -> Option<u32> {
        self.by_name.get(name).copied()
    }
}

fn labels() -> &'static RwLock<Interner> {
    static LABELS: OnceLock<RwLock<Interner>> = OnceLock::new();
    LABELS.get_or_init(|| RwLock::new(Interner::new()))
}

fn keys() -> &'static RwLock<Interner> {
    static KEYS: OnceLock<RwLock<Interner>> = OnceLock::new();
    KEYS.get_or_init(|| RwLock::new(Interner::new()))
}

/// A thread's copy of the names it has resolved in one interner. Symbols
/// never change once interned, so a cached entry is never stale; a name
/// not (yet) interned is never cached, so another thread interning it
/// later is seen by the next lookup.
type SymbolCache = RefCell<FxHashMap<Box<str>, u32>>;

thread_local! {
    static LABEL_CACHE: SymbolCache = RefCell::default();
    static KEY_CACHE: SymbolCache = RefCell::default();
}

/// `name`'s symbol if this thread has resolved it before.
fn cached(cache: &'static LocalKey<SymbolCache>, name: &str) -> Option<u32> {
    cache.with(|c| c.borrow().get(name).copied())
}

/// Remember in this thread's `cache` that `name` is `id`; returns `id`.
fn remember(cache: &'static LocalKey<SymbolCache>, name: &str, id: u32) -> u32 {
    cache.with(|c| c.borrow_mut().insert(name.into(), id));
    id
}

/// Look `name` up in `table` without interning it.
fn lookup(table: &RwLock<Interner>, name: &str) -> Option<u32> {
    table
        .read()
        .expect("a symbol interner panicked while locked")
        .lookup(name)
}

/// Intern `name` in `table`. A name already interned — nearly every
/// call once a graph is loaded — is found under the shared read lock;
/// only a miss takes the write lock, and [`Interner::intern`] re-checks
/// under it, so racing first interners agree on one symbol.
fn intern(table: &RwLock<Interner>, name: &str) -> u32 {
    lookup(table, name).unwrap_or_else(|| {
        table
            .write()
            .expect("a symbol interner panicked while locked")
            .intern(name)
    })
}

impl Label {
    /// Intern `name`, returning its symbol. Idempotent.
    pub fn new(name: &str) -> Label {
        let id = cached(&LABEL_CACHE, name);
        Label(id.unwrap_or_else(|| remember(&LABEL_CACHE, name, intern(labels(), name))))
    }

    /// Look up a label that may or may not have been interned yet.
    /// Useful to test "does this graph use label X" without polluting the
    /// interner.
    pub fn lookup(name: &str) -> Option<Label> {
        let id = cached(&LABEL_CACHE, name);
        let id = id.or_else(|| lookup(labels(), name).map(|id| remember(&LABEL_CACHE, name, id)));
        id.map(Label)
    }

    /// The label's textual name.
    pub fn name(self) -> String {
        labels().read().unwrap().resolve(self.0)
    }

    /// Raw symbol number (stable within a process only).
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl Key {
    /// Intern `name`, returning its symbol. Idempotent.
    pub fn new(name: &str) -> Key {
        let id = cached(&KEY_CACHE, name);
        Key(id.unwrap_or_else(|| remember(&KEY_CACHE, name, intern(keys(), name))))
    }

    /// Look up a key that may or may not have been interned yet.
    pub fn lookup(name: &str) -> Option<Key> {
        let id = cached(&KEY_CACHE, name);
        let id = id.or_else(|| lookup(keys(), name).map(|id| remember(&KEY_CACHE, name, id)));
        id.map(Key)
    }

    /// The key's textual name.
    pub fn name(self) -> String {
        keys().read().unwrap().resolve(self.0)
    }

    /// Raw symbol number (stable within a process only).
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, ":{}", self.name())
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, ".{}", self.name())
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

impl From<&str> for Label {
    fn from(s: &str) -> Self {
        Label::new(s)
    }
}

impl From<&str> for Key {
    fn from(s: &str) -> Self {
        Key::new(s)
    }
}

/// A small sorted set of labels, as assigned by the paper's λ function
/// (λ maps each element to a *finite set* of labels).
///
/// Equality, order and hashing are those of the sorted label slice
/// ([`LabelSet::iter`]'s order), however the set is stored.
#[derive(Clone, Default)]
pub struct LabelSet {
    labels: Labels,
}

/// Storage of a [`LabelSet`]: sorted, deduplicated. Almost every element
/// carries exactly one label, and that one lives inline — no heap block
/// per element; `Many` holds two or more.
#[derive(Clone, Default)]
enum Labels {
    #[default]
    None,
    One(Label),
    Many(Vec<Label>),
}

impl LabelSet {
    /// The empty label set.
    pub fn new() -> Self {
        Self::default()
    }

    /// A singleton set.
    pub fn single(label: Label) -> Self {
        LabelSet {
            labels: Labels::One(label),
        }
    }

    /// The labels, sorted by symbol.
    fn as_slice(&self) -> &[Label] {
        match &self.labels {
            Labels::None => &[],
            Labels::One(l) => std::slice::from_ref(l),
            Labels::Many(v) => v,
        }
    }

    /// Insert a label, keeping the set sorted. Returns true if newly added.
    pub fn insert(&mut self, label: Label) -> bool {
        match &mut self.labels {
            Labels::None => self.labels = Labels::One(label),
            Labels::One(l) if *l == label => return false,
            Labels::One(l) => {
                let (lo, hi) = if *l < label { (*l, label) } else { (label, *l) };
                self.labels = Labels::Many(vec![lo, hi]);
            }
            Labels::Many(v) => match v.binary_search(&label) {
                Ok(_) => return false,
                Err(pos) => v.insert(pos, label),
            },
        }
        true
    }

    /// Remove a label. Returns true if it was present.
    pub fn remove(&mut self, label: Label) -> bool {
        match &mut self.labels {
            Labels::One(l) if *l == label => self.labels = Labels::None,
            Labels::Many(v) => match v.binary_search(&label) {
                Ok(pos) => {
                    v.remove(pos);
                    if let [only] = v[..] {
                        self.labels = Labels::One(only);
                    }
                }
                Err(_) => return false,
            },
            _ => return false,
        }
        true
    }

    /// Membership test (λ(x) ∋ ℓ).
    pub fn contains(&self, label: Label) -> bool {
        self.as_slice().binary_search(&label).is_ok()
    }

    /// True when no label is assigned.
    pub fn is_empty(&self) -> bool {
        matches!(self.labels, Labels::None)
    }

    /// Number of labels.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Iterate in sorted symbol order.
    pub fn iter(&self) -> impl Iterator<Item = Label> + '_ {
        self.as_slice().iter().copied()
    }

    /// Set union (used by graph union, §A.5).
    pub fn union(&self, other: &LabelSet) -> LabelSet {
        let mut out = self.clone();
        for l in other.iter() {
            out.insert(l);
        }
        out
    }

    /// Set intersection (used by graph intersection, §A.5).
    pub fn intersection(&self, other: &LabelSet) -> LabelSet {
        self.iter().filter(|l| other.contains(*l)).collect()
    }

    /// Names of all labels, sorted alphabetically (for display and tests).
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.iter().map(|l| l.name()).collect();
        v.sort();
        v
    }
}

impl PartialEq for LabelSet {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for LabelSet {}

impl PartialOrd for LabelSet {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for LabelSet {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for LabelSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for LabelSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LabelSet")
            .field("labels", &self.as_slice())
            .finish()
    }
}

impl FromIterator<Label> for LabelSet {
    fn from_iter<I: IntoIterator<Item = Label>>(iter: I) -> Self {
        let mut s = LabelSet::new();
        for l in iter {
            s.insert(l);
        }
        s
    }
}

impl<'a> FromIterator<&'a str> for LabelSet {
    fn from_iter<I: IntoIterator<Item = &'a str>>(iter: I) -> Self {
        iter.into_iter().map(Label::new).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Label::new("Person");
        let b = Label::new("Person");
        assert_eq!(a, b);
        assert_eq!(a.name(), "Person");
    }

    #[test]
    fn labels_and_keys_are_separate_namespaces() {
        let l = Label::new("name");
        let k = Key::new("name");
        // Same text, but resolved through independent interners.
        assert_eq!(l.name(), k.name());
    }

    #[test]
    fn lookup_does_not_intern() {
        assert!(Label::lookup("never_used_label_xyzzy").is_none());
        Label::new("now_used_label_xyzzy");
        assert!(Label::lookup("now_used_label_xyzzy").is_some());
    }

    #[test]
    fn label_set_insert_remove_contains() {
        let mut s = LabelSet::new();
        let p = Label::new("Person");
        let m = Label::new("Manager");
        assert!(s.insert(p));
        assert!(!s.insert(p));
        assert!(s.insert(m));
        assert_eq!(s.len(), 2);
        assert!(s.contains(p) && s.contains(m));
        assert!(s.remove(p));
        assert!(!s.remove(p));
        assert!(!s.contains(p));
    }

    #[test]
    fn label_set_union_intersection() {
        let a: LabelSet = ["A", "B"].into_iter().collect();
        let b: LabelSet = ["B", "C"].into_iter().collect();
        let u = a.union(&b);
        assert_eq!(u.len(), 3);
        let i = a.intersection(&b);
        assert_eq!(i.len(), 1);
        assert!(i.contains(Label::new("B")));
    }

    #[test]
    fn racing_first_interners_get_one_symbol() {
        use std::sync::Barrier;
        let barrier = Barrier::new(8);
        let (labels, keys): (Vec<Label>, Vec<Key>) = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        (Label::new("raced_label_xyzzy"), Key::new("raced_key_xyzzy"))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("interning thread panicked"))
                .unzip()
        });
        assert!(labels.iter().all(|l| *l == labels[0]));
        assert!(keys.iter().all(|k| *k == keys[0]));
        assert_eq!(labels[0].name(), "raced_label_xyzzy");
        assert_eq!(keys[0].name(), "raced_key_xyzzy");
    }

    /// The per-thread cache never remembers a miss: a name another thread
    /// interns after this one looked it up in vain is found by this
    /// thread's next lookup.
    #[test]
    fn symbol_cache_sees_names_interned_by_another_thread() {
        use std::sync::mpsc;
        let (ask, asked) = mpsc::channel::<()>();
        let (tell, interned) = mpsc::channel::<()>();
        std::thread::scope(|s| {
            s.spawn(move || {
                asked.recv().expect("the reader asked");
                Label::new("late_label_xyzzy");
                Key::new("late_key_xyzzy");
                tell.send(()).expect("the reader waits");
            });
            assert_eq!(Label::lookup("late_label_xyzzy"), None);
            assert_eq!(Key::lookup("late_key_xyzzy"), None);
            ask.send(()).expect("the interner waits");
            interned.recv().expect("the interner interned");
            let label = Label::lookup("late_label_xyzzy").expect("interned by now");
            let key = Key::lookup("late_key_xyzzy").expect("interned by now");
            assert_eq!(label, Label::new("late_label_xyzzy"));
            assert_eq!(key, Key::new("late_key_xyzzy"));
            assert_eq!(
                (label.name(), key.name()),
                ("late_label_xyzzy".into(), "late_key_xyzzy".into())
            );
        });
    }

    fn hash_of<T: Hash + ?Sized>(t: &T) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        t.hash(&mut h);
        h.finish()
    }

    /// Every sequence of up to four inserts / removes over three labels,
    /// checked against `BTreeSet<Label>`; equality, order and hashing
    /// against the sorted `Vec<Label>` the set used to be, whichever
    /// representation the sequence left behind.
    #[test]
    fn label_set_agrees_with_a_btree_set_model() {
        use std::collections::BTreeSet;
        let pool = [
            Label::new("model_label_a"),
            Label::new("model_label_b"),
            Label::new("model_label_c"),
        ];
        // Every subset, built by insertion in sorted order.
        let subsets: Vec<Vec<Label>> = (0..8u32)
            .map(|mask| {
                let mut v: Vec<Label> = (0..3)
                    .filter(|i| mask & (1 << i) != 0)
                    .map(|i| pool[i])
                    .collect();
                v.sort();
                v
            })
            .collect();
        let ops: Vec<(bool, Label)> = pool.iter().flat_map(|&l| [(true, l), (false, l)]).collect();
        let mut sequences: Vec<Vec<(bool, Label)>> = vec![vec![]];
        let mut frontier = sequences.clone();
        for _ in 0..4 {
            frontier = frontier
                .iter()
                .flat_map(|seq| {
                    ops.iter().map(move |op| {
                        let mut next = seq.clone();
                        next.push(*op);
                        next
                    })
                })
                .collect();
            sequences.extend(frontier.iter().cloned());
        }
        assert_eq!(sequences.len(), 1 + 6 + 36 + 216 + 1296);

        for seq in &sequences {
            let mut set = LabelSet::new();
            let mut model = BTreeSet::new();
            for &(insert, l) in seq {
                let changed = if insert { set.insert(l) } else { set.remove(l) };
                let expected = if insert {
                    model.insert(l)
                } else {
                    model.remove(&l)
                };
                assert_eq!(changed, expected, "{seq:?}");
            }
            let sorted: Vec<Label> = model.iter().copied().collect();
            assert_eq!(set.iter().collect::<Vec<_>>(), sorted, "{seq:?}");
            assert_eq!(set.len(), model.len());
            assert_eq!(set.is_empty(), model.is_empty());
            for l in pool {
                assert_eq!(set.contains(l), model.contains(&l));
            }
            assert_eq!(hash_of(&set), hash_of(&sorted), "{seq:?}");
            if let [only] = sorted[..] {
                assert_eq!(set, LabelSet::single(only), "{seq:?}");
            }
            for other in &subsets {
                let other_set: LabelSet = other.iter().copied().collect();
                let other_model: BTreeSet<Label> = other.iter().copied().collect();
                assert_eq!(set == other_set, sorted == *other, "{seq:?} vs {other:?}");
                assert_eq!(
                    set.cmp(&other_set),
                    sorted.cmp(other),
                    "{seq:?} vs {other:?}"
                );
                assert_eq!(
                    set.union(&other_set).iter().collect::<Vec<_>>(),
                    model.union(&other_model).copied().collect::<Vec<_>>()
                );
                assert_eq!(
                    set.intersection(&other_set).iter().collect::<Vec<_>>(),
                    model
                        .intersection(&other_model)
                        .copied()
                        .collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn names_sorted_alphabetically() {
        let s: LabelSet = ["zeta", "alpha"].into_iter().collect();
        assert_eq!(s.names(), vec!["alpha".to_string(), "zeta".to_string()]);
    }
}

//! Interned label and property-key symbols.
//!
//! The paper's `L` (labels) and `K` (property names) are infinite sets of
//! names; any concrete graph touches only finitely many. We intern them into
//! `u32` symbols so label tests and property lookups in the hot matching
//! loops compare integers instead of strings.
//!
//! The symbol tables are process-global, so graphs, queries and engines
//! can be mixed freely. Name-to-symbol lookups — once per row in
//! expression evaluation — read a per-thread cache first, so threads
//! evaluating at once do not write a table's lock for every name.

use crate::collections::{Pool, SortedSet};
use crate::hash::FxHashMap;
use std::cell::RefCell;
use std::fmt;
use std::thread::LocalKey;

/// A thread's copy of the names it has resolved in one symbol table.
/// Symbols never change once interned, so a cached entry is never
/// stale; a name not (yet) interned is never cached, so another thread
/// interning it later is seen by the next lookup.
type SymbolCache = RefCell<FxHashMap<Box<str>, u32>>;

/// `name`'s symbol if this thread has resolved it before.
fn cached(cache: &'static LocalKey<SymbolCache>, name: &str) -> Option<u32> {
    cache.with(|c| c.borrow().get(name).copied())
}

/// Remember in this thread's `cache` that `name` is `id`; returns `id`.
fn remember(cache: &'static LocalKey<SymbolCache>, name: &str, id: u32) -> u32 {
    cache.with(|c| c.borrow_mut().insert(name.into(), id));
    id
}

/// A symbol type over its own process-global `table` of names, read
/// through this thread's `cache` first.
macro_rules! symbol_type {
    ($(#[$doc:meta])* $name:ident, $table:ident, $cache:ident, $sigil:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(u32);

        static $table: Pool<String> = Pool::new();

        thread_local! {
            static $cache: SymbolCache = RefCell::default();
        }

        impl $name {
            /// Intern `name`, returning its symbol. Idempotent.
            pub fn new(name: &str) -> Self {
                let id = cached(&$cache, name);
                $name(id.unwrap_or_else(|| remember(&$cache, name, $table.intern(name))))
            }

            /// Look `name` up without interning it: useful to test "does
            /// any graph use this name" without polluting the table.
            pub fn lookup(name: &str) -> Option<Self> {
                let id = cached(&$cache, name);
                let id = id.or_else(|| $table.lookup(name).map(|id| remember(&$cache, name, id)));
                id.map($name)
            }

            /// The symbol's textual name.
            pub fn name(self) -> String {
                $table.resolve(self.0)
            }

            /// Raw symbol number (stable within a process only).
            pub fn raw(self) -> u32 {
                self.0
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($sigil, "{}"), self.name())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(&self.name())
            }
        }

        impl From<&str> for $name {
            fn from(s: &str) -> Self {
                $name::new(s)
            }
        }
    };
}

symbol_type!(
    /// An interned label name (element of `L`), used on nodes, edges and paths.
    Label,
    LABELS,
    LABEL_CACHE,
    ":"
);
symbol_type!(
    /// An interned property key (element of `K`).
    Key,
    KEYS,
    KEY_CACHE,
    "."
);

/// A finite set of labels, as assigned by the paper's λ function (λ maps
/// each element to a *finite set* of labels): sorted by symbol, a lone
/// label inline. Equality, order and hashing are those of the sorted
/// label slice (`iter`'s order), however the set is stored.
pub type LabelSet = SortedSet<Label>;

impl SortedSet<Label> {
    /// Names of all labels, sorted alphabetically (for display and tests).
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.iter().map(|l| l.name()).collect();
        v.sort();
        v
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
    use std::hash::{Hash, Hasher};

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

//! The compact property representations against plain models.
//!
//! [`PropertySet`] keeps a lone value inline and [`PropertyMap`] keeps
//! one vector sorted by key. Whatever a sequence of operations leaves
//! behind, both must behave like the sorted, deduplicated `Vec<Value>`
//! and the `BTreeMap<Key, PropertySet>` they stand for: the same
//! members, and the same equality, order and hash.

use gcore_ppg::{Key, PropertyMap, PropertySet, Value};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

/// A small pool, so sets collide: `Int(1)` and `Float(1.0)` are one
/// value, and `Null` never enters a set.
fn pool(i: usize) -> Value {
    match i % 9 {
        0 => Value::Int(1),
        1 => Value::Float(1.0),
        2 => Value::Int(2),
        3 => Value::Float(1.5),
        4 => Value::str("a"),
        5 => Value::str("b"),
        6 => Value::Bool(true),
        7 => Value::Null,
        _ => Value::Int(-3),
    }
}

/// The model: insert into a sorted vector unless an equal value is in.
fn model_insert(model: &mut Vec<Value>, v: Value) -> bool {
    if v.is_null() {
        return false;
    }
    match model.binary_search(&v) {
        Ok(_) => false,
        Err(pos) => {
            model.insert(pos, v);
            true
        }
    }
}

fn model_of(values: &[Value]) -> Vec<Value> {
    let mut model = Vec::new();
    for v in values {
        model_insert(&mut model, v.clone());
    }
    model
}

fn hash_of<T: Hash + ?Sized>(t: &T) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    t.hash(&mut h);
    h.finish()
}

/// A set built one of five ways from pool values, with its model.
fn built(how: usize, a: &[usize], b: &[usize]) -> (PropertySet, Vec<Value>) {
    let (a, b): (Vec<Value>, Vec<Value>) = (
        a.iter().map(|&i| pool(i)).collect(),
        b.iter().map(|&i| pool(i)).collect(),
    );
    let (ma, mb) = (model_of(&a), model_of(&b));
    match how % 5 {
        0 => {
            let v = a.first().cloned().unwrap_or(Value::Null);
            let model = model_of(std::slice::from_ref(&v));
            (PropertySet::single(v), model)
        }
        1 => (PropertySet::from_values(a), ma),
        2 => {
            let mut set = PropertySet::empty();
            let mut model = Vec::new();
            for v in a {
                assert_eq!(
                    set.insert(v.clone()),
                    model_insert(&mut model, v.clone()),
                    "{v:?}"
                );
            }
            (set, model)
        }
        3 => {
            let set = PropertySet::from_values(a).union(&PropertySet::from_values(b));
            let mut model = ma;
            for v in mb {
                model_insert(&mut model, v);
            }
            (set, model)
        }
        _ => {
            let set = PropertySet::from_values(a).intersection(&PropertySet::from_values(b));
            let model = ma.into_iter().filter(|v| mb.contains(v)).collect();
            (set, model)
        }
    }
}

fn check_against_model(set: &PropertySet, model: &[Value]) {
    // Debug tells Int(1) from Float(1.0): the value kept is the model's.
    assert_eq!(format!("{:?}", set.values()), format!("{model:?}"));
    assert_eq!(set.len(), model.len());
    assert_eq!(set.is_empty(), model.is_empty());
    assert_eq!(
        set.as_singleton(),
        model.first().filter(|_| model.len() == 1)
    );
    assert_eq!(
        set.iter().collect::<Vec<_>>(),
        model.iter().collect::<Vec<_>>()
    );
    assert_eq!(hash_of(set), hash_of(model));
    for i in 0..9 {
        let v = pool(i);
        assert_eq!(
            set.contains(&v),
            !v.is_null() && model.contains(&v),
            "{v:?}"
        );
    }
}

fn indices() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0usize..9, 0..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn property_sets_agree_with_the_sorted_vector_model(
        how in (0usize..5, 0usize..5),
        a in indices(),
        b in indices(),
        c in indices(),
        d in indices(),
    ) {
        let (x, mx) = built(how.0, &a, &b);
        let (y, my) = built(how.1, &c, &d);
        check_against_model(&x, &mx);
        check_against_model(&y, &my);
        prop_assert_eq!(x == y, mx == my, "{:?} vs {:?}", mx, my);
        prop_assert_eq!(x.set_eq(&y), mx == my);
        prop_assert_eq!(x.cmp(&y), mx.cmp(&my), "{:?} vs {:?}", mx, my);
        if x == y {
            prop_assert_eq!(hash_of(&x), hash_of(&y));
        }
        prop_assert_eq!(x.is_subset_of(&y), mx.iter().all(|v| my.contains(v)));
        // A set equal to a singleton is one, however it was built.
        if let [only] = &mx[..] {
            prop_assert_eq!(&x, &PropertySet::single(only.clone()));
            prop_assert_eq!(hash_of(&x), hash_of(&PropertySet::single(only.clone())));
        }
    }
}

fn key(i: usize) -> Key {
    Key::new(["repr_k0", "repr_k1", "repr_k2", "repr_k3", "repr_k4"][i % 5])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn property_maps_agree_with_a_btree_map(
        ops in prop::collection::vec((0usize..4, 0usize..5, 0usize..9), 0..24),
    ) {
        let mut map = PropertyMap::new();
        let mut oracle: BTreeMap<Key, PropertySet> = BTreeMap::new();
        for &(op, k, v) in &ops {
            let (k, v) = (key(k), PropertySet::single(pool(v)));
            match op {
                0 => prop_assert_eq!(map.insert(k, v.clone()), oracle.insert(k, v)),
                1 => prop_assert_eq!(map.remove(&k), oracle.remove(&k)),
                2 => prop_assert_eq!(map.get(&k), oracle.get(&k)),
                _ => {
                    let (mine, theirs) = (map.get_mut(&k), oracle.get_mut(&k));
                    prop_assert_eq!(mine.is_some(), theirs.is_some());
                    if let (Some(mine), Some(theirs)) = (mine, theirs) {
                        mine.union_in_place(&v);
                        theirs.union_in_place(&v);
                    }
                }
            }
            prop_assert_eq!(map.len(), oracle.len());
            prop_assert_eq!(map.is_empty(), oracle.is_empty());
            prop_assert!(map.iter().eq(oracle.iter()), "{:?} vs {:?}", map, oracle);
            prop_assert!((&map).into_iter().eq(&oracle));
            prop_assert!(map.keys().eq(oracle.keys()));
            prop_assert_eq!(map.iter().len(), oracle.len());
            prop_assert_eq!(format!("{map:?}"), format!("{oracle:?}"));
        }
    }
}

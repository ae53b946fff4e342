//! Fast, non-cryptographic hashing for hot maps.
//!
//! Graph evaluation hashes millions of small integer keys (node/edge/path
//! identifiers and interned symbols). The standard library's SipHash is
//! collision-resistant but slow for such keys; this module provides an
//! FxHash-style multiply-and-rotate hasher (the algorithm used by rustc)
//! implemented in-tree so the workspace stays within its approved
//! dependency set.
//!
//! Fx is not HashDoS-resistant, and not every key it hashes is generated
//! internally. Identifier-keyed maps are safe: identifiers come from the
//! engine's generator. But the same hasher, chosen for the same speed,
//! keys every interning pool (`collections.rs`): the label and key
//! symbol tables and the per-thread symbol caches in front of them
//! ([`crate::symbols`]), and every [`crate::ValueInterner`]. There it
//! hashes label names, property keys and values, strings included, that
//! clients supply in statements and stored graphs. Many names chosen to
//! collide under Fx would make those lookups degrade toward linear
//! scans. Keying the pools with a seeded hasher is an open item
//! (ROADMAP item 13); it needs a measured change of its own.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Hash map keyed with [`FxHasher`]. Drop-in replacement for `HashMap`.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Hash set keyed with [`FxHasher`]. Drop-in replacement for `HashSet`.
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The rustc "Fx" hash function: one multiply and one rotate per word.
#[derive(Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<u64, &str> = FxHashMap::default();
        for i in 0..1000u64 {
            m.insert(i, "x");
        }
        assert_eq!(m.len(), 1000);
        assert!(m.contains_key(&999));
        assert!(!m.contains_key(&1000));
    }

    #[test]
    fn distinct_keys_usually_distinct_hashes() {
        let mut seen = FxHashSet::default();
        for i in 0..10_000u64 {
            let mut h = FxHasher::default();
            h.write_u64(i);
            seen.insert(h.finish());
        }
        // Fx is not perfect but must not be degenerate.
        assert!(seen.len() > 9_990);
    }

    #[test]
    fn byte_stream_matches_word_stream_for_eight_bytes() {
        let mut a = FxHasher::default();
        a.write_u64(0x0102_0304_0506_0708);
        let mut b = FxHasher::default();
        b.write(&0x0102_0304_0506_0708u64.to_le_bytes());
        assert_eq!(a.finish(), b.finish());
    }
}

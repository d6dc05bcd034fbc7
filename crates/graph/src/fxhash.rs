//! A fast, non-cryptographic hasher for the workspace's integer-keyed
//! hash maps.
//!
//! The model and the warehouse key nearly everything by dense integer ids
//! (data ids, step ids, node ids, row numbers). SipHash — the standard
//! library default — is overkill for those keys and measurably slower;
//! this is the FxHash algorithm used by rustc (multiply-xor over machine
//! words). It is not flood-resistant, and some keys are chosen by clients:
//! the data and step ids of a run or stream a `zoomd` client loads key its
//! run tables (DESIGN.md §10 weighs that exposure). Implemented here
//! because `rustc-hash` is not among the crates available to this
//! workspace.

use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The FxHash word-at-a-time hasher.
#[derive(Default, Clone)]
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
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
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

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `HashMap` keyed with FxHash.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` keyed with FxHash.
pub type FxHashSet<K> = std::collections::HashSet<K, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_keys_distinct_hashes() {
        let h = |x: u64| {
            let mut hasher = FxHasher::default();
            hasher.write_u64(x);
            hasher.finish()
        };
        assert_ne!(h(1), h(2));
        assert_eq!(h(42), h(42));
    }

    #[test]
    fn map_works() {
        let mut m: FxHashMap<u64, &str> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(i, "x");
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&999), Some(&"x"));
    }

    #[test]
    fn byte_tail_hashing() {
        let mut a = FxHasher::default();
        a.write(b"hello world"); // 11 bytes: one chunk + remainder
        let mut b = FxHasher::default();
        b.write(b"hello worle");
        assert_ne!(a.finish(), b.finish());
    }
}

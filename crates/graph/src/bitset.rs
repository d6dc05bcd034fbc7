//! A fixed-capacity bit set over `u64` blocks.
//!
//! Reachability and transitive-closure computations in this crate need a
//! dense set representation over node indices. The standard library has no
//! bit set, and pulling in an external crate for ~200 lines of code is not
//! worth it for this workspace, so we implement one here.

use serde::{Deserialize, Serialize};

const BITS: usize = 64;

/// A fixed-capacity set of `usize` values in `0..len`.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BitSet {
    blocks: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// Creates an empty set with capacity for values in `0..len`.
    pub fn new(len: usize) -> Self {
        BitSet {
            blocks: vec![0; len.div_ceil(BITS)],
            len,
        }
    }

    /// Creates a set containing every value in `0..len`.
    pub fn full(len: usize) -> Self {
        let mut s = Self::new(len);
        for b in &mut s.blocks {
            *b = u64::MAX;
        }
        s.trim();
        s
    }

    /// The capacity of the set (valid values are `0..len()`).
    pub fn len(&self) -> usize {
        self.len
    }

    /// The set's `u64` blocks: value `i` is bit `i % 64` of block
    /// `i / 64`, and bits at or past [`BitSet::len`] are zero.
    pub fn blocks(&self) -> &[u64] {
        &self.blocks
    }

    /// Raises the capacity to `len` (a no-op if it is not larger); the
    /// new values start absent.
    pub fn grow(&mut self, len: usize) {
        if len > self.len {
            self.blocks.resize(len.div_ceil(BITS), 0);
            self.len = len;
        }
    }

    /// Returns `true` if no bit is set.
    pub fn is_empty(&self) -> bool {
        self.blocks.iter().all(|&b| b == 0)
    }

    /// Clears the bits in the final partial block beyond `len`.
    fn trim(&mut self) {
        let rem = self.len % BITS;
        if rem != 0 {
            if let Some(last) = self.blocks.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    /// Inserts `i`; returns `true` if it was newly inserted.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(
            i < self.len,
            "BitSet::insert: {i} out of range {}",
            self.len
        );
        let (block, bit) = (i / BITS, i % BITS);
        let mask = 1u64 << bit;
        let was = self.blocks[block] & mask != 0;
        self.blocks[block] |= mask;
        !was
    }

    /// Inserts every value in `range`, a block at a time.
    ///
    /// # Panics
    /// Panics if `range.end > len()`.
    pub fn insert_range(&mut self, range: std::ops::Range<usize>) {
        assert!(
            range.end <= self.len,
            "BitSet::insert_range: {range:?} out of range {}",
            self.len
        );
        let mut i = range.start;
        while i < range.end {
            let (block, bit) = (i / BITS, i % BITS);
            let n = (BITS - bit).min(range.end - i);
            self.blocks[block] |= (u64::MAX >> (BITS - n)) << bit;
            i += n;
        }
    }

    /// Removes `i`; returns `true` if it was present.
    pub fn remove(&mut self, i: usize) -> bool {
        assert!(
            i < self.len,
            "BitSet::remove: {i} out of range {}",
            self.len
        );
        let (block, bit) = (i / BITS, i % BITS);
        let mask = 1u64 << bit;
        let was = self.blocks[block] & mask != 0;
        self.blocks[block] &= !mask;
        was
    }

    /// Tests membership of `i`. Out-of-range values are simply absent.
    pub fn contains(&self, i: usize) -> bool {
        if i >= self.len {
            return false;
        }
        self.blocks[i / BITS] & (1u64 << (i % BITS)) != 0
    }

    /// Number of elements in the set.
    pub fn count(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        for b in &mut self.blocks {
            *b = 0;
        }
    }

    /// `self |= other`. Both sets must have the same capacity.
    pub fn union_with(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "BitSet capacity mismatch");
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a |= b;
        }
    }

    /// `self &= other`. Both sets must have the same capacity.
    pub fn intersect_with(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "BitSet capacity mismatch");
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a &= b;
        }
    }

    /// `self -= other`. Both sets must have the same capacity.
    pub fn difference_with(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "BitSet capacity mismatch");
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a &= !b;
        }
    }

    /// Returns `true` if the two sets share no element.
    pub fn is_disjoint(&self, other: &BitSet) -> bool {
        self.blocks
            .iter()
            .zip(&other.blocks)
            .all(|(a, b)| a & b == 0)
    }

    /// Returns `true` if every element of `self` is in `other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        assert_eq!(self.len, other.len, "BitSet capacity mismatch");
        self.blocks
            .iter()
            .zip(&other.blocks)
            .all(|(a, b)| a & !b == 0)
    }

    /// Iterates over the elements in ascending order.
    pub fn iter(&self) -> BitSetIter<'_> {
        BitSetIter {
            set: self,
            block: 0,
            bits: self.blocks.first().copied().unwrap_or(0),
        }
    }
}

impl FromIterator<usize> for BitSet {
    /// Collects values into a set sized to fit the maximum value.
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        let vals: Vec<usize> = iter.into_iter().collect();
        let len = vals.iter().max().map_or(0, |m| m + 1);
        let mut s = BitSet::new(len);
        for v in vals {
            s.insert(v);
        }
        s
    }
}

/// Iterator over set bits, ascending.
pub struct BitSetIter<'a> {
    set: &'a BitSet,
    block: usize,
    bits: u64,
}

impl Iterator for BitSetIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.bits != 0 {
                let tz = self.bits.trailing_zeros() as usize;
                self.bits &= self.bits - 1;
                return Some(self.block * BITS + tz);
            }
            self.block += 1;
            if self.block >= self.set.blocks.len() {
                return None;
            }
            self.bits = self.set.blocks[self.block];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_range_sets_exactly_the_range() {
        for (start, end) in [(0, 0), (3, 9), (0, 64), (60, 130), (64, 128), (5, 200)] {
            let mut s = BitSet::new(200);
            s.insert_range(start..end);
            assert_eq!(
                s.iter().collect::<Vec<_>>(),
                (start..end).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(!s.contains(0));
        assert!(s.insert(0));
        assert!(!s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert_eq!(s.count(), 3);
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn out_of_range_contains_is_false() {
        let s = BitSet::new(10);
        assert!(!s.contains(10));
        assert!(!s.contains(1000));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_insert_panics() {
        BitSet::new(10).insert(10);
    }

    #[test]
    fn full_and_trim() {
        let s = BitSet::full(70);
        assert_eq!(s.count(), 70);
        assert!(s.contains(69));
        assert!(!s.contains(70));
    }

    #[test]
    fn set_ops() {
        let a: BitSet = [1usize, 3, 5, 7].into_iter().collect();
        let mut b = BitSet::new(a.len());
        b.insert(3);
        b.insert(4);
        b.insert(7);

        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 3, 4, 5, 7]);

        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![3, 7]);

        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1, 5]);

        assert!(i.is_subset(&a));
        assert!(!a.is_subset(&b));
        assert!(d.is_disjoint(&b));
    }

    #[test]
    fn iter_empty_and_full_blocks() {
        let mut s = BitSet::new(200);
        s.insert(199);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![199]);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn grow_keeps_values_and_adds_absent_ones() {
        let mut s = BitSet::full(70);
        s.grow(130);
        assert_eq!(s.len(), 130);
        assert_eq!(s.count(), 70);
        assert!(s.insert(129));
        assert_eq!(s.blocks(), &[u64::MAX, (1 << 6) - 1, 1 << 1]);
        s.grow(10);
        assert_eq!(s.len(), 130);
    }

    #[test]
    fn from_iter_empty() {
        let s: BitSet = std::iter::empty().collect();
        assert_eq!(s.len(), 0);
        assert!(s.is_empty());
    }
}

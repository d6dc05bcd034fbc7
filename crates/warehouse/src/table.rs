//! A minimal typed table with a primary-key index and optional secondary
//! indexes — the warehouse's storage primitive, standing in for the paper's
//! Oracle tables.
//!
//! Rows live in an append-only arena (data, like workflow provenance, is
//! never updated in place); the primary key maps to the row slot, and each
//! secondary index maps an extracted key to the matching row slots.

use std::hash::Hash;
use zoom_graph::fxhash::FxHashMap;

/// An append-only table of `Row`s with primary key `K`.
#[derive(Clone, Debug)]
pub struct Table<K, Row> {
    rows: Vec<Row>,
    pk: FxHashMap<K, usize>,
}

impl<K: Eq + Hash + Clone, Row> Default for Table<K, Row> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Eq + Hash + Clone, Row> Table<K, Row> {
    /// An empty table.
    pub fn new() -> Self {
        Table {
            rows: Vec::new(),
            pk: FxHashMap::default(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Inserts a row under `key`. Returns the row slot, or `Err` with the
    /// rejected row if the key already exists.
    pub fn insert(&mut self, key: K, row: Row) -> Result<usize, Row> {
        if self.pk.contains_key(&key) {
            return Err(row);
        }
        let slot = self.rows.len();
        self.rows.push(row);
        self.pk.insert(key, slot);
        Ok(slot)
    }

    /// Looks a row up by primary key.
    pub fn get(&self, key: &K) -> Option<&Row> {
        self.pk.get(key).map(|&slot| &self.rows[slot])
    }

    /// Mutable lookup by primary key.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut Row> {
        self.pk.get(key).map(|&slot| &mut self.rows[slot])
    }

    /// Whether `key` exists.
    pub fn contains(&self, key: &K) -> bool {
        self.pk.contains_key(key)
    }

    /// The row at a slot returned by [`Table::insert`].
    pub fn row(&self, slot: usize) -> &Row {
        &self.rows[slot]
    }

    /// Full scan over the rows in insertion order.
    pub fn scan(&self) -> impl ExactSizeIterator<Item = &Row> {
        self.rows.iter()
    }

    /// Full scan over `(key-slot, row)`; primarily for index rebuilds.
    pub fn entries(&self) -> impl Iterator<Item = (&K, &Row)> {
        // pk iteration order is unspecified; sort-free because callers that
        // need order use `scan`.
        self.pk.iter().map(move |(k, &slot)| (k, &self.rows[slot]))
    }
}

/// A secondary index over a table: extracted key → row slots (in insertion
/// order).
#[derive(Clone, Debug)]
pub struct SecondaryIndex<IK> {
    map: FxHashMap<IK, Vec<usize>>,
}

impl<IK: Eq + Hash> Default for SecondaryIndex<IK> {
    fn default() -> Self {
        SecondaryIndex {
            map: FxHashMap::default(),
        }
    }
}

impl<IK: Eq + Hash> SecondaryIndex<IK> {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `slot` under `key` (call at insert time).
    pub fn add(&mut self, key: IK, slot: usize) {
        self.map.entry(key).or_default().push(slot);
    }

    /// The row slots under `key`.
    pub fn lookup(&self, key: &IK) -> &[usize] {
        self.map.get(key).map_or(&[], Vec::as_slice)
    }

    /// Number of distinct keys.
    pub fn key_count(&self) -> usize {
        self.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_scan() {
        let mut t: Table<u32, String> = Table::new();
        assert!(t.is_empty());
        let s0 = t.insert(10, "a".into()).unwrap();
        let s1 = t.insert(20, "b".into()).unwrap();
        assert_eq!((s0, s1), (0, 1));
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(&10), Some(&"a".to_string()));
        assert_eq!(t.get(&99), None);
        assert!(t.contains(&20));
        assert_eq!(t.scan().collect::<Vec<_>>(), vec!["a", "b"]);
        assert_eq!(t.row(1), "b");
    }

    #[test]
    fn duplicate_key_rejected_with_row_back() {
        let mut t: Table<u32, String> = Table::new();
        t.insert(1, "x".into()).unwrap();
        let back = t.insert(1, "y".into()).unwrap_err();
        assert_eq!(back, "y");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn get_mut_updates() {
        let mut t: Table<u32, i64> = Table::new();
        t.insert(1, 5).unwrap();
        *t.get_mut(&1).unwrap() += 1;
        assert_eq!(t.get(&1), Some(&6));
    }

    #[test]
    fn secondary_index() {
        let mut t: Table<u32, (u8, &'static str)> = Table::new();
        let mut by_tag: SecondaryIndex<u8> = SecondaryIndex::new();
        for (k, tag, v) in [(1u32, 7u8, "a"), (2, 7, "b"), (3, 9, "c")] {
            let slot = t.insert(k, (tag, v)).unwrap();
            by_tag.add(tag, slot);
        }
        let slots = by_tag.lookup(&7);
        let vals: Vec<&str> = slots.iter().map(|&s| t.row(s).1).collect();
        assert_eq!(vals, vec!["a", "b"]);
        assert!(by_tag.lookup(&0).is_empty());
        assert_eq!(by_tag.key_count(), 2);
    }

    #[test]
    fn entries_cover_all() {
        let mut t: Table<u32, u32> = Table::new();
        for i in 0..5 {
            t.insert(i, i * 10).unwrap();
        }
        let mut pairs: Vec<(u32, u32)> = t.entries().map(|(k, v)| (*k, *v)).collect();
        pairs.sort();
        assert_eq!(pairs, vec![(0, 0), (1, 10), (2, 20), (3, 30), (4, 40)]);
    }
}

//! A least-significant-digit radix sort on integer keys.
//!
//! Node, step and data ids are small integers, so sorting by them needs no
//! comparisons: one counting pass and one scatter pass per key byte, and
//! only for the bytes on which the keys differ. The workspace sorts by id
//! where a comparison sort showed up in profiles: encoding a run's hash
//! maps in key order, and provenance rows the slot-order walk did not
//! already emit in id order.

/// Below this many items a comparison sort is faster: it needs no
/// 256-entry counts (16 keys: ~120 ns against ~230 ns for the radix
/// passes; from 32 keys on the radix sort wins, 1,024 random keys ~7.6 µs
/// against ~21 µs for the standard library's stable sort).
const SMALL: usize = 32;

/// Sorts `items` by `key`, stably, with one counting and one scatter pass
/// per key byte on which some two keys differ (small ids skip most of the
/// eight). Allocates one buffer of `items.len()` when any pass runs; fewer
/// than 32 items are sorted by comparison instead.
pub fn radix_sort_by_key<T: Copy>(items: &mut Vec<T>, key: impl Fn(&T) -> u64) {
    if items.len() < SMALL {
        items.sort_by_key(key);
        return;
    }
    let first = key(&items[0]);
    let differ = items.iter().fold(0, |acc, t| acc | (key(t) ^ first));
    if differ == 0 {
        return;
    }
    let mut from = std::mem::take(items);
    let mut to = from.clone();
    for shift in (0..64).step_by(8).filter(|s| (differ >> s) & 0xff != 0) {
        let digit = |t: &T| ((key(t) >> shift) & 0xff) as usize;
        let mut next = [0usize; 256];
        for t in &from {
            next[digit(t)] += 1;
        }
        let mut start = 0;
        for n in &mut next {
            (*n, start) = (start, start + *n);
        }
        for t in &from {
            let d = digit(t);
            to[next[d]] = *t;
            next[d] += 1;
        }
        std::mem::swap(&mut from, &mut to);
    }
    *items = from;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorts_like_a_stable_comparison_sort() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for (n, bits) in [
            (0, 8),
            (1, 8),
            (31, 20),
            (300, 4),
            (1000, 12),
            (1000, 40),
            (257, 64),
        ] {
            let mut items: Vec<(u64, usize)> = (0..n)
                .map(|i| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state >> (64 - bits), i)
                })
                .collect();
            let mut want = items.clone();
            want.sort_by_key(|&(k, _)| k);
            radix_sort_by_key(&mut items, |&(k, _)| k);
            assert_eq!(items, want, "{n} keys of {bits} bits");
        }
    }
}

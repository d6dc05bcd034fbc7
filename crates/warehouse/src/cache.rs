//! Materialized view-run cache.
//!
//! The ZOOM prototype's winning query strategy computes base provenance
//! once and keeps it in a temporary table so that *switching user views on
//! the same workflow run* does not recompute it (Section V-B: ≈13 ms per
//! switch vs. up to seconds for the first query). The embedded analog is a
//! cache of materialized [`ViewRun`]s keyed by `(run, view)`: the first
//! query against a pair pays the composite-execution construction; every
//! later query — and every view *switch* back to an already-seen view — is
//! a cheap graph traversal.
//!
//! The cache is bounded: long sessions touching many `(run, view)` pairs
//! evict least-recently-used entries — whole runs first, since a run the
//! user has navigated away from is unlikely to be revisited view-by-view —
//! instead of growing without limit. Entries are grouped by run
//! (`RunId → { last_used, views }`), and invalidating a run is a single
//! removal. The victim comes from a lazy min-heap of `(tick, run)` entries:
//! hits only raise atomic timestamps under the read lock, and a miss pops
//! stale entries (re-pushing a touched run at its current tick) until the
//! top is exact — amortized O(log runs) per miss instead of a scan of every
//! cached run.

use crate::metrics::CacheMetrics;
use crate::schema::{RunId, ViewId};
use parking_lot::RwLock;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use zoom_graph::fxhash::FxHashMap;
use zoom_model::ViewRun;

/// Default entry cap (`(run, view)` pairs) before eviction kicks in.
pub const DEFAULT_VIEW_RUN_CAPACITY: usize = 1024;

/// One cached view of a run.
#[derive(Debug)]
struct ViewEntry {
    view: ViewId,
    vr: Arc<ViewRun>,
    /// Logical timestamp of the last hit (a global tick, not wall clock),
    /// updated under the read lock so hits never serialize.
    last_used: AtomicU64,
}

/// The cached views of one run. Never empty while in the map.
#[derive(Debug)]
struct RunEntry {
    /// The newest `last_used` among `views` — raised with `fetch_max` on
    /// every touch, recomputed when a view is dropped.
    last_used: AtomicU64,
    views: Vec<ViewEntry>,
}

impl RunEntry {
    /// Re-derives `last_used` after views were dropped; returns whether it
    /// went down.
    fn refresh_last_used(&mut self) -> bool {
        let newest = self
            .views
            .iter()
            .map(|e| e.last_used.load(Ordering::Relaxed))
            .max()
            .unwrap_or(0);
        std::mem::replace(self.last_used.get_mut(), newest) > newest
    }
}

/// The runs and the total `(run, view)` entry count, under one lock.
#[derive(Debug, Default)]
struct Entries {
    runs: FxHashMap<RunId, RunEntry>,
    len: usize,
    /// Lazy min-heap of `(tick, run)`. Invariant: every cached run has an
    /// entry whose tick is ≤ its `last_used`. Entries of dropped runs, and
    /// entries above a run's lowered `last_used`, are stale and discarded
    /// when popped.
    lru: BinaryHeap<Reverse<(u64, RunId)>>,
}

/// Heap entries allowed beyond twice the cached runs before a rebuild.
const HEAP_SLACK: usize = 16;

impl Entries {
    /// Rebuilds the heap from `runs` once stale entries outnumber live
    /// ones, so it stays within `2 × runs + HEAP_SLACK` entries.
    fn compact_lru(&mut self) {
        if self.lru.len() > 2 * self.runs.len() + HEAP_SLACK {
            let live: Vec<_> = self
                .runs
                .iter()
                .map(|(&run, r)| Reverse((r.last_used.load(Ordering::Relaxed), run)))
                .collect();
            self.lru = BinaryHeap::from(live);
        }
    }

    /// Pops the least-recently-used cached run other than `incoming`, or
    /// `None` if no other run is cached. Ticks are unique, so an entry
    /// whose tick equals its run's `last_used` is below every other run's
    /// (valid) entry: that run is the exact LRU run.
    fn pop_lru(&mut self, incoming: RunId) -> Option<RunId> {
        let mut held = None;
        let mut victim = None;
        while let Some(Reverse((t, run))) = self.lru.pop() {
            let Some(r) = self.runs.get(&run) else {
                continue;
            };
            let last = r.last_used.load(Ordering::Relaxed);
            match t.cmp(&last) {
                // Touched since this entry was pushed.
                std::cmp::Ordering::Less => self.lru.push(Reverse((last, run))),
                // Above a lowered `last_used`, which has its own entry.
                std::cmp::Ordering::Greater => {}
                std::cmp::Ordering::Equal if run == incoming => held = Some(t),
                std::cmp::Ordering::Equal => {
                    victim = Some(run);
                    break;
                }
            }
        }
        if let Some(t) = held {
            self.lru.push(Reverse((t, incoming)));
        }
        victim
    }
}

/// A concurrent, bounded `(run, view) → ViewRun` cache.
///
/// Counters are lock-free atomics so that the batch query path — many
/// threads hitting the cache at once — never serializes on bookkeeping.
///
/// **Counter accuracy.** `hits + misses` equals the number of
/// `get_or_build` calls, even under races: a thread that builds an entry
/// but loses the insert race returns the winner's entry and is counted as
/// a *hit* plus one `race_lost_builds`; `misses` counts exactly the
/// entries actually inserted.
#[derive(Debug)]
pub struct ViewRunCache {
    map: RwLock<Entries>,
    hits: AtomicU64,
    misses: AtomicU64,
    race_lost_builds: AtomicU64,
    evictions: AtomicU64,
    build_nanos: AtomicU64,
    tick: AtomicU64,
    /// Entry cap, fixed at construction (0 = unbounded).
    capacity: usize,
}

impl Default for ViewRunCache {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_VIEW_RUN_CAPACITY)
    }
}

impl ViewRunCache {
    /// An empty cache with the default capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache capped at `capacity` entries (0 = unbounded).
    pub fn with_capacity(capacity: usize) -> Self {
        ViewRunCache {
            map: RwLock::new(Entries::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            race_lost_builds: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            build_nanos: AtomicU64::new(0),
            tick: AtomicU64::new(0),
            capacity,
        }
    }

    #[inline]
    fn touch(&self, run: &RunEntry, entry: &ViewEntry) {
        let t = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        entry.last_used.store(t, Ordering::Relaxed);
        run.last_used.fetch_max(t, Ordering::Relaxed);
    }

    /// Returns the cached view-run, or materializes it with `build` and
    /// caches the result.
    pub fn get_or_build(
        &self,
        key: (RunId, ViewId),
        build: impl FnOnce() -> ViewRun,
    ) -> Arc<ViewRun> {
        let (run_id, view_id) = key;
        {
            let map = self.map.read();
            if let Some((run, entry)) = lookup(&map, key) {
                self.touch(run, entry);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return entry.vr.clone();
            }
        }
        // Build outside the lock; a racing builder costs duplicate work but
        // never blocks readers for the duration of materialization.
        let start = Instant::now();
        let vr = Arc::new(build());
        let nanos = start.elapsed().as_nanos() as u64;
        let mut map = self.map.write();
        if let Some((run, existing)) = lookup(&map, key) {
            // Lost the insert race: the query is still answered from the
            // cache, so count it as a hit — not a second miss — keeping
            // hits + misses == queries.
            self.touch(run, existing);
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.race_lost_builds.fetch_add(1, Ordering::Relaxed);
            return existing.vr.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.build_nanos.fetch_add(nanos, Ordering::Relaxed);
        let victims = if self.capacity > 0 && map.len >= self.capacity {
            self.evict_locked(&mut map, run_id)
        } else {
            Vec::new()
        };
        let run = map.runs.entry(run_id).or_insert_with(|| RunEntry {
            last_used: AtomicU64::new(0),
            views: Vec::new(),
        });
        run.views.push(ViewEntry {
            view: view_id,
            vr: vr.clone(),
            last_used: AtomicU64::new(0),
        });
        self.touch(run, run.views.last().expect("just pushed"));
        let entered = run.views.len() == 1;
        let tick = *run.last_used.get_mut();
        map.len += 1;
        if entered {
            map.lru.push(Reverse((tick, run_id)));
        }
        map.compact_lru();
        // Free the evicted view-runs only after releasing the lock.
        drop(map);
        drop(victims);
        vr
    }

    /// Evicts the least-recently-used *run* (the run whose most recent hit
    /// is oldest), preferring a run other than `incoming` so an active
    /// run's view set is not cannibalized; when `incoming` is the only run
    /// cached, evicts its single oldest view instead. Returns the evicted
    /// entries, for the caller to drop once the lock is released.
    fn evict_locked(&self, map: &mut Entries, incoming: RunId) -> Vec<ViewEntry> {
        let victim = if map.runs.len() == 1 {
            map.runs.keys().next().copied()
        } else {
            map.pop_lru(incoming)
        };
        let Some(victim) = victim else {
            return Vec::new();
        };
        let shed = if victim == incoming {
            // Only the incoming run is cached: shed its single oldest view.
            let run = map.runs.get_mut(&victim).expect("victim is cached");
            let oldest = (0..run.views.len())
                .min_by_key(|&i| run.views[i].last_used.load(Ordering::Relaxed))
                .expect("cached runs hold at least one view");
            let shed = vec![run.views.swap_remove(oldest)];
            if run.views.is_empty() {
                map.runs.remove(&victim);
            }
            shed
        } else {
            map.runs.remove(&victim).map_or(Vec::new(), |r| r.views)
        };
        map.len -= shed.len();
        let evicted = shed.len() as u64;
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        shed
    }

    /// Current number of cached view-runs.
    pub fn len(&self) -> usize {
        self.map.read().len
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(hits, misses)` counters.
    pub fn counters(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// A full counter snapshot for the metrics layer.
    pub fn metrics(&self) -> CacheMetrics {
        CacheMetrics {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            race_lost_builds: self.race_lost_builds.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len() as u64,
            build_nanos: self.build_nanos.load(Ordering::Relaxed),
        }
    }

    /// Drops every cached entry (e.g. after bulk loads, or for benchmarks
    /// that must measure cold queries).
    pub fn clear(&self) {
        // Bound, so the entries drop after the lock is released.
        let _entries = std::mem::take(&mut *self.map.write());
    }

    /// Drops the entries for one run, after releasing the lock.
    pub fn invalidate_run(&self, run: RunId) {
        let mut map = self.map.write();
        let victim = map.runs.remove(&run);
        map.len -= victim.as_ref().map_or(0, |r| r.views.len());
        map.compact_lru();
        drop(map);
    }

    /// Drops the entries for one view, after releasing the lock.
    pub fn invalidate_view(&self, view: ViewId) {
        let mut victims: Vec<ViewEntry> = Vec::new();
        let mut map = self.map.write();
        let Entries { runs, len, lru } = &mut *map;
        runs.retain(|&id, run| {
            if let Some(i) = run.views.iter().position(|e| e.view == view) {
                victims.push(run.views.swap_remove(i));
                if run.views.is_empty() {
                    return false;
                }
                if run.refresh_last_used() {
                    // A lowered `last_used` needs an entry at or below it.
                    lru.push(Reverse((*run.last_used.get_mut(), id)));
                }
            }
            true
        });
        *len -= victims.len();
        map.compact_lru();
        drop(map);
    }
}

#[cfg(test)]
impl ViewRunCache {
    /// `(heap entries, cached runs)`.
    fn lru_sizes(&self) -> (usize, usize) {
        let map = self.map.read();
        (map.lru.len(), map.runs.len())
    }
}

/// The cached entry for `key` and its run.
fn lookup(map: &Entries, (run, view): (RunId, ViewId)) -> Option<(&RunEntry, &ViewEntry)> {
    let r = map.runs.get(&run)?;
    Some((r, r.views.iter().find(|e| e.view == view)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use std::collections::{BTreeMap, BTreeSet};
    use std::sync::Barrier;
    use zoom_model::{RunBuilder, SpecBuilder, UserView};

    /// The cached `(run, view)` keys.
    fn cached_keys(cache: &ViewRunCache) -> BTreeSet<(RunId, ViewId)> {
        let map = cache.map.read();
        map.runs
            .iter()
            .flat_map(|(&r, run)| run.views.iter().map(move |e| (r, e.view)))
            .collect()
    }

    fn a_view_run() -> ViewRun {
        let mut b = SpecBuilder::new("c");
        b.analysis("A");
        b.from_input("A").to_output("A");
        let s = b.build().unwrap();
        let mut rb = RunBuilder::new(&s);
        let s1 = rb.step(s.module("A").unwrap());
        rb.input_edge(s1, [1]).output_edge(s1, [2]);
        let r = rb.build().unwrap();
        ViewRun::new(&r, &UserView::admin(&s))
    }

    #[test]
    fn builds_once_then_hits() {
        let cache = ViewRunCache::new();
        let key = (RunId(1), ViewId(1));
        let mut builds = 0;
        for _ in 0..3 {
            let vr = cache.get_or_build(key, || {
                builds += 1;
                a_view_run()
            });
            assert_eq!(vr.execs().len(), 1);
        }
        assert_eq!(builds, 1);
        assert_eq!(cache.len(), 1);
        let (hits, misses) = cache.counters();
        assert_eq!((hits, misses), (2, 1));
        let m = cache.metrics();
        assert_eq!(m.race_lost_builds, 0);
        assert_eq!(m.entries, 1);
    }

    #[test]
    fn invalidation() {
        let cache = ViewRunCache::new();
        for r in 1..=2 {
            for v in 1..=2 {
                cache.get_or_build((RunId(r), ViewId(v)), a_view_run);
            }
        }
        assert_eq!(cache.len(), 4);
        cache.invalidate_run(RunId(1));
        assert_eq!(cache.len(), 2);
        cache.invalidate_view(ViewId(2));
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
    }

    /// Satellite 1: N threads hammer one key; exactly one build may win the
    /// insert, every other call is a hit (race-lost or read-path), so
    /// hits + misses == total queries and misses == 1.
    #[test]
    fn concurrent_one_key_counters_balance() {
        const THREADS: usize = 8;
        const ROUNDS: usize = 50;
        let cache = ViewRunCache::new();
        let key = (RunId(7), ViewId(3));
        let barrier = Barrier::new(THREADS);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    // Align the first round so several threads miss the
                    // read check together and race the insert.
                    barrier.wait();
                    for _ in 0..ROUNDS {
                        let vr = cache.get_or_build(key, a_view_run);
                        assert_eq!(vr.execs().len(), 1);
                    }
                });
            }
        });
        let queries = (THREADS * ROUNDS) as u64;
        let m = cache.metrics();
        assert_eq!(
            m.hits + m.misses,
            queries,
            "hits {} + misses {} must equal queries {}",
            m.hits,
            m.misses,
            queries
        );
        assert_eq!(m.misses, 1, "exactly one insert wins for a single key");
        assert_eq!(cache.len(), 1);
    }

    /// Forces the insert race deterministically: both threads pass the
    /// read-path check before either builds, so one build loses.
    #[test]
    fn race_lost_build_counts_as_hit() {
        let cache = ViewRunCache::new();
        let key = (RunId(1), ViewId(1));
        let barrier = Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    cache.get_or_build(key, || {
                        barrier.wait();
                        a_view_run()
                    });
                });
            }
        });
        let m = cache.metrics();
        assert_eq!(m.misses, 1);
        assert_eq!(m.hits, 1);
        assert_eq!(m.race_lost_builds, 1);
        assert!(m.build_nanos > 0);
    }

    /// Satellite 4: the cap evicts whole runs, least-recently-used first,
    /// and never the run currently being inserted into (unless it is the
    /// only one cached).
    #[test]
    fn bounded_evicts_lru_run_first() {
        let cache = ViewRunCache::with_capacity(4);
        // Run 1 holds two views, run 2 holds two views. Cache is full.
        for r in 1..=2 {
            for v in 1..=2 {
                cache.get_or_build((RunId(r), ViewId(v)), a_view_run);
            }
        }
        assert_eq!(cache.len(), 4);
        // Touch run 1 so run 2 becomes the LRU run.
        cache.get_or_build((RunId(1), ViewId(1)), a_view_run);
        // Inserting a third run evicts *all* of run 2.
        cache.get_or_build((RunId(3), ViewId(1)), a_view_run);
        let m = cache.metrics();
        assert_eq!(m.evictions, 2);
        assert_eq!(cache.len(), 3);
        let map = cached_keys(&cache);
        assert!(map.iter().all(|&(r, _)| r != RunId(2)));
        assert!(map.contains(&(RunId(1), ViewId(1))));
        assert!(map.contains(&(RunId(3), ViewId(1))));
    }

    /// When the incoming run is the only run cached, eviction sheds its
    /// single oldest view instead of wiping the whole run.
    #[test]
    fn bounded_single_run_evicts_oldest_view() {
        let cache = ViewRunCache::with_capacity(2);
        cache.get_or_build((RunId(1), ViewId(1)), a_view_run);
        cache.get_or_build((RunId(1), ViewId(2)), a_view_run);
        // View 1 is older; inserting view 3 evicts it only.
        cache.get_or_build((RunId(1), ViewId(3)), a_view_run);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.metrics().evictions, 1);
        let map = cached_keys(&cache);
        assert!(!map.contains(&(RunId(1), ViewId(1))));
        assert!(map.contains(&(RunId(1), ViewId(2))));
        assert!(map.contains(&(RunId(1), ViewId(3))));
    }

    #[test]
    fn capacity_zero_is_unbounded() {
        let cache = ViewRunCache::with_capacity(0);
        for v in 1..=100 {
            cache.get_or_build((RunId(1), ViewId(v)), a_view_run);
        }
        assert_eq!(cache.len(), 100);
        assert_eq!(cache.metrics().evictions, 0);
    }

    /// The LRU-run rule over a flat `(run, view) → last use` map: on a miss
    /// at capacity, drop every view of the run whose newest use is oldest
    /// (never the incoming run while another run is cached); if the
    /// incoming run is the only one, drop its oldest view.
    #[derive(Default)]
    struct Model {
        cap: usize,
        tick: u64,
        entries: BTreeMap<(RunId, ViewId), u64>,
        evictions: u64,
        single_run_sheds: u64,
    }

    impl Model {
        fn get(&mut self, key: (RunId, ViewId)) {
            self.tick += 1;
            if let Some(t) = self.entries.get_mut(&key) {
                *t = self.tick;
                return;
            }
            if self.cap > 0 && self.entries.len() >= self.cap {
                let mut newest: BTreeMap<RunId, u64> = BTreeMap::new();
                for (&(r, _), &t) in &self.entries {
                    let slot = newest.entry(r).or_insert(0);
                    *slot = (*slot).max(t);
                }
                let only_run = newest.len() == 1;
                let (&victim, _) = newest
                    .iter()
                    .filter(|&(&r, _)| only_run || r != key.0)
                    .min_by_key(|&(_, &t)| t)
                    .expect("a full cache holds a run");
                let before = self.entries.len();
                if victim == key.0 {
                    let (&oldest, _) = self.entries.iter().min_by_key(|&(_, &t)| t).unwrap();
                    self.entries.remove(&oldest);
                    self.single_run_sheds += 1;
                } else {
                    self.entries.retain(|&(r, _), _| r != victim);
                }
                self.evictions += (before - self.entries.len()) as u64;
            }
            self.entries.insert(key, self.tick);
        }
    }

    /// A seeded mix of lookups and invalidations across ~20 runs on a
    /// capacity-8 cache agrees with [`Model`] after every call: same keys,
    /// same eviction count, same length. Every fifth block of calls stays
    /// on two runs, so the single-run branch of the rule is exercised too.
    #[test]
    fn eviction_matches_lru_run_model() {
        let cache = ViewRunCache::with_capacity(8);
        let mut model = Model {
            cap: 8,
            ..Model::default()
        };
        let mut rng = StdRng::seed_from_u64(0x2008);
        for step in 0..5000 {
            let runs = if step / 200 % 5 == 4 { 2 } else { 20 };
            let run = RunId(rng.random_range(0u32..runs));
            let view = ViewId(rng.random_range(0u32..12));
            match rng.random_range(0u32..100) {
                0..=3 => {
                    cache.invalidate_run(run);
                    model.entries.retain(|&(r, _), _| r != run);
                }
                4..=5 => {
                    cache.invalidate_view(view);
                    model.entries.retain(|&(_, v), _| v != view);
                }
                _ => {
                    cache.get_or_build((run, view), a_view_run);
                    model.get((run, view));
                }
            }
            let keys: BTreeSet<_> = model.entries.keys().copied().collect();
            assert_eq!(cached_keys(&cache), keys, "keys diverge at step {step}");
            assert_eq!(cache.len(), model.entries.len(), "len at step {step}");
            assert_eq!(
                cache.metrics().evictions,
                model.evictions,
                "evictions at step {step}"
            );
        }
        assert!(model.evictions > model.single_run_sheds);
        assert!(
            model.single_run_sheds > 0,
            "the single-run branch never ran"
        );
    }

    /// Dropping a run's newest view makes it older than a run touched in
    /// between, even when its heap entry already sits at the dropped
    /// view's tick: it is the next run evicted.
    #[test]
    fn invalidated_newest_view_ages_its_run() {
        let cache = ViewRunCache::with_capacity(3);
        let (a, c) = (RunId(1), RunId(3));
        let get = |run: RunId, view: u32| {
            cache.get_or_build((run, ViewId(view)), a_view_run);
        };
        get(a, 1);
        get(a, 2);
        get(RunId(2), 1);
        get(a, 2);
        // Evicts run 2, re-pushing run 1's heap entry at its newer tick.
        get(c, 1);
        get(c, 1);
        get(a, 2);
        // Run 1 falls back to view 1's tick, older than run 3's last touch.
        cache.invalidate_view(ViewId(2));
        get(RunId(4), 1);
        get(RunId(5), 1);
        let keys = cached_keys(&cache);
        assert!(keys.iter().all(|&(r, _)| r != a), "{keys:?}");
        assert!(keys.contains(&(c, ViewId(1))), "{keys:?}");
        assert_eq!(cache.metrics().evictions, 2);
    }

    /// A longer seeded replay — capacity 64, ~300 runs, invalidations —
    /// agrees with [`Model`] after every call, and the lazy heap never
    /// holds more than twice the cached runs plus its slack.
    #[test]
    fn long_replay_matches_model_and_bounds_the_heap() {
        let cache = ViewRunCache::with_capacity(64);
        let mut model = Model {
            cap: 64,
            ..Model::default()
        };
        let mut rng = StdRng::seed_from_u64(0x1CDE);
        for step in 0..20_000 {
            // Skewed towards a hot band of runs, so hits re-age runs and
            // the heap sees stale entries.
            let run = if rng.random_range(0u32..2) == 0 {
                RunId(rng.random_range(0u32..24))
            } else {
                RunId(rng.random_range(0u32..300))
            };
            let view = ViewId(rng.random_range(0u32..6));
            match rng.random_range(0u32..100) {
                0..=1 => {
                    cache.invalidate_run(run);
                    model.entries.retain(|&(r, _), _| r != run);
                }
                2..=4 => {
                    cache.invalidate_view(view);
                    model.entries.retain(|&(_, v), _| v != view);
                }
                _ => {
                    cache.get_or_build((run, view), a_view_run);
                    model.get((run, view));
                }
            }
            let keys: BTreeSet<_> = model.entries.keys().copied().collect();
            assert_eq!(cached_keys(&cache), keys, "keys diverge at step {step}");
            assert_eq!(
                cache.metrics().evictions,
                model.evictions,
                "evictions at step {step}"
            );
            let (heap, runs) = cache.lru_sizes();
            assert!(
                heap <= 2 * runs + HEAP_SLACK,
                "heap {heap} over {runs} runs at step {step}"
            );
        }
        assert!(model.evictions > 1000, "{} evictions", model.evictions);
    }
}

//! Lock-free runtime metrics for the provenance warehouse.
//!
//! The paper's evaluation (Section V, Figures 10–11) is built on per-query
//! latency and the cost of view switches; serving provenance at production
//! scale needs the same numbers available *at runtime*, not just in
//! benchmark harnesses. This module is the warehouse's observability
//! layer:
//!
//! * [`MetricsRegistry`] — a table of atomic counters indexed by
//!   [`Counter`] and of fixed-bucket latency histograms indexed by [`Hist`]
//!   (plus one per query kind × view class), shared by every hot path
//!   ([`crate::query`] through [`crate::store::Warehouse`], the caches, the
//!   journal and the durable store). Recording is wait-free (a handful of
//!   relaxed atomic adds); the parallel batch path never serializes on
//!   bookkeeping.
//! * [`LatencyHistogram`] — 16 power-of-two buckets from 1 µs to ≥16 ms,
//!   plus count/sum/max, so mean *and* tail behaviour survive aggregation.
//! * A **slow-query log** — a small ring buffer of the most recent queries
//!   that crossed a configurable latency threshold, each with its
//!   run/view/data context, so "why was that click slow?" is answerable
//!   after the fact.
//! * [`MetricsSnapshot`] — a serde-serializable point-in-time copy of
//!   everything above, folded together with the existing
//!   [`WarehouseStats`] table counters. [`MetricsSnapshot::to_json`]
//!   renders it as JSON for `zoomctl stats --json`.
//!
//! ## Declaring a metric
//!
//! Each counter is one line, with its doc comment, in the snapshot family
//! it belongs to in the `metrics_table!` declaration below:
//!
//! ```text
//! /// Queries shed with `Overloaded`.
//! shed: count(Shed),
//! ```
//!
//! That line is the registry slot [`Counter::Shed`] (recorded with
//! `registry.add(Counter::Shed, 1)`, read with `registry.get`), the field
//! [`ResilienceMetrics::shed`], and its `"shed"` JSON key — all in
//! declaration order. `hist(..)` declares a [`Hist`] histogram the same
//! way. `sum(..)` declares a field that is not stored: it is summed at
//! snapshot time from one load of the named counters, which is how
//! [`ResilienceMetrics::attempts`] equals `admitted + shed` in every
//! snapshot, even one taken while admissions are being recorded.
//!
//! ## Counter-accuracy guarantee
//!
//! For both caches, `hits + misses` equals the number of `get_or_build`
//! calls, *including* under the parallel batch path: a thread that builds
//! an entry but loses the insert race is counted as a **hit** (it returns
//! the winner's entry) plus one `race_lost_builds`, and `misses` counts
//! exactly the entries actually inserted. Hit-rate arithmetic therefore
//! never over- or under-counts queries.

use crate::json::{self, json_object, JsonObject, ToJson};
use crate::schema::{RunId, ViewId, WarehouseStats};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

thread_local! {
    /// The tenant the current thread is executing a query for, if any.
    /// Set by the daemon's dispatch loop (and `Zoom::apply_as`)
    /// so slow-log entries can be attributed — and later filtered — per
    /// tenant without threading an extra parameter through every query
    /// signature.
    static CURRENT_TENANT: RefCell<Option<Arc<str>>> = const { RefCell::new(None) };
}

/// Restores the previous tenant tag when dropped, so nested scopes (a
/// facade call issuing sub-queries) unwind correctly even across panics.
#[derive(Debug)]
pub struct TenantTagGuard {
    prev: Option<Arc<str>>,
}

impl Drop for TenantTagGuard {
    fn drop(&mut self) {
        CURRENT_TENANT.with(|t| *t.borrow_mut() = self.prev.take());
    }
}

/// Tags the current thread's queries as issued by `tenant` until the
/// returned guard drops. `None` clears the tag for the scope.
pub fn tag_tenant(tenant: Option<&str>) -> TenantTagGuard {
    tag_tenant_shared(tenant.map(Arc::from))
}

/// [`tag_tenant`] taking an already-shared name — the batch fan-out
/// workers re-tag themselves with a clone of the submitting thread's tag
/// without re-allocating per worker.
pub fn tag_tenant_shared(tenant: Option<Arc<str>>) -> TenantTagGuard {
    let prev = CURRENT_TENANT.with(|t| std::mem::replace(&mut *t.borrow_mut(), tenant));
    TenantTagGuard { prev }
}

/// The current thread's tenant tag, if one is in scope.
pub fn current_tenant() -> Option<Arc<str>> {
    CURRENT_TENANT.with(|t| t.borrow().clone())
}

/// Number of histogram buckets (15 bounded + 1 overflow).
pub const HISTOGRAM_BUCKETS: usize = 16;

/// Upper bounds (exclusive, nanoseconds) of the bounded buckets: powers of
/// two from 1 µs (2^10 ns) to ~16.8 ms (2^24 ns). The final bucket counts
/// everything at or above the last bound.
pub const BUCKET_BOUNDS_NANOS: [u64; HISTOGRAM_BUCKETS - 1] = [
    1 << 10,
    1 << 11,
    1 << 12,
    1 << 13,
    1 << 14,
    1 << 15,
    1 << 16,
    1 << 17,
    1 << 18,
    1 << 19,
    1 << 20,
    1 << 21,
    1 << 22,
    1 << 23,
    1 << 24,
];

/// Capacity of the slow-query ring buffer.
pub const SLOW_LOG_CAPACITY: usize = 64;

/// Default slow-query threshold: 10 ms. Queries slower than this are
/// captured in the ring buffer with their context.
pub const DEFAULT_SLOW_THRESHOLD_NANOS: u64 = 10_000_000;

#[inline]
fn bucket_index(nanos: u64) -> usize {
    // Bucket i covers [1024 << (i-1), 1024 << i); bucket 0 is < 1 µs and
    // the last bucket absorbs the tail. Significant-bit arithmetic keeps
    // the hot path branch-light.
    ((64 - nanos.leading_zeros()) as usize)
        .saturating_sub(10)
        .min(HISTOGRAM_BUCKETS - 1)
}

/// A fixed-bucket latency histogram with lock-free recording.
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_nanos: AtomicU64,
    max_nanos: AtomicU64,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation. Wait-free: four relaxed atomic updates.
    #[inline]
    pub fn record(&self, nanos: u64) {
        self.buckets[bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.max_nanos.fetch_max(nanos, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum_nanos: self.sum_nanos.load(Ordering::Relaxed),
            max_nanos: self.max_nanos.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// Serializable copy of a [`LatencyHistogram`].
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observations, nanoseconds.
    pub sum_nanos: u64,
    /// Largest single observation, nanoseconds.
    pub max_nanos: u64,
    /// Per-bucket counts; bucket `i` covers latencies below
    /// [`BUCKET_BOUNDS_NANOS`]`[i]`, the last bucket the overflow tail.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean latency in nanoseconds (0 when empty).
    pub fn mean_nanos(&self) -> u64 {
        self.sum_nanos.checked_div(self.count).unwrap_or(0)
    }
}

/// The provenance query families the warehouse serves.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum QueryKind {
    /// Deep (recursive backward) provenance.
    Deep,
    /// Immediate provenance.
    Immediate,
    /// The canned forward query (dependents).
    Dependents,
    /// The edge-click query (data between two executions).
    Between,
}

impl QueryKind {
    /// All kinds, in display order.
    pub const ALL: [QueryKind; 4] = [
        QueryKind::Deep,
        QueryKind::Immediate,
        QueryKind::Dependents,
        QueryKind::Between,
    ];

    /// Stable lower-case name (used as a JSON key fragment).
    pub fn name(self) -> &'static str {
        match self {
            QueryKind::Deep => "deep",
            QueryKind::Immediate => "immediate",
            QueryKind::Dependents => "dependents",
            QueryKind::Between => "between",
        }
    }
}

impl fmt::Display for QueryKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The coarse class of the user view a query ran against — the dimension
/// the paper's Figure 10 varies (finest, intermediate, coarsest).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ViewClass {
    /// The finest view, `UAdmin`.
    Admin,
    /// The coarsest view, `UBlackBox`.
    BlackBox,
    /// Any user-built view in between.
    Custom,
}

impl ViewClass {
    /// All classes, in display order.
    pub const ALL: [ViewClass; 3] = [ViewClass::Admin, ViewClass::BlackBox, ViewClass::Custom];

    /// Classifies a view by its registered name.
    pub fn of_view_name(name: &str) -> ViewClass {
        match name {
            "UAdmin" => ViewClass::Admin,
            "UBlackBox" => ViewClass::BlackBox,
            _ => ViewClass::Custom,
        }
    }

    /// Stable lower-case name (used as a JSON key fragment).
    pub fn name(self) -> &'static str {
        match self {
            ViewClass::Admin => "admin",
            ViewClass::BlackBox => "black_box",
            ViewClass::Custom => "custom",
        }
    }
}

impl fmt::Display for ViewClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One captured slow query, with enough context to reproduce it.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlowQuery {
    /// Monotone sequence number (total slow queries observed so far).
    pub seq: u64,
    /// The query family.
    pub kind: QueryKind,
    /// The run queried.
    pub run: RunId,
    /// The view queried through.
    pub view: ViewId,
    /// The view's registered name.
    pub view_name: String,
    /// The queried data object, if the query form has one.
    pub data: Option<u64>,
    /// Wall-clock duration, nanoseconds.
    pub nanos: u64,
    /// The tenant the query was executed for, when known (daemon dispatch
    /// and `Zoom::apply_as` tag their scope). Local untagged
    /// queries record `None`. This is what per-tenant slow-log filtering
    /// keys on.
    pub tenant: Option<String>,
}

/// Declares the metrics table (see the module docs). Each `struct` is a
/// snapshot family, each field one line: `count(Variant)` a stored
/// counter, `hist(Variant)` a histogram, `sum(A, ..)` a field summed from
/// one load of counters `A, ..`. From that it generates the [`Counter`]
/// and [`Hist`] enums, each family's struct, its `load` from one pass over
/// the registry, and its JSON object, all in declaration order (so the
/// serde and JSON bytes follow the declaration).
macro_rules! metrics_table {
    ($(
        $(#[$meta:meta])*
        pub $(($scope:ident))? struct $Family:ident {
            $( $(#[$doc:meta])* $field:ident: $kind:ident($($id:ident),+), )*
        }
    )*) => {
        metrics_table!(@ids [] [] $($( $(#[$doc])* $field: $kind($($id),+), )*)*);
        $(
            $(#[$meta])*
            pub $(($scope))? struct $Family {
                $( $(#[$doc])* pub $field: metrics_table!(@type $kind), )*
            }

            impl $Family {
                fn load(c: &[u64; Counter::COUNT], _h: &[LatencyHistogram; Hist::COUNT]) -> Self {
                    $Family { $( $field: metrics_table!(@load c _h $kind($($id),+)), )* }
                }
            }

            json_object!($Family { $($field),* });
        )*
    };
    (@type count) => { u64 };
    (@type sum) => { u64 };
    (@type hist) => { HistogramSnapshot };
    (@load $c:ident $h:ident count($id:ident)) => { $c[Counter::$id as usize] };
    (@load $c:ident $h:ident sum($($id:ident),+)) => { 0 $(+ $c[Counter::$id as usize])+ };
    (@load $c:ident $h:ident hist($id:ident)) => { $h[Hist::$id as usize].snapshot() };
    // Sorts the entries into the counter and histogram variant lists.
    (@ids [$($c:tt)*] [$($h:tt)*] $(#[$d:meta])* $f:ident: count($id:ident), $($rest:tt)*) => {
        metrics_table!(@ids [$($c)* $(#[$d])* $id,] [$($h)*] $($rest)*);
    };
    (@ids [$($c:tt)*] [$($h:tt)*] $(#[$d:meta])* $f:ident: hist($id:ident), $($rest:tt)*) => {
        metrics_table!(@ids [$($c)*] [$($h)* $(#[$d])* $id,] $($rest)*);
    };
    (@ids [$($c:tt)*] [$($h:tt)*] $(#[$d:meta])* $f:ident: sum($($id:ident),+), $($rest:tt)*) => {
        metrics_table!(@ids [$($c)*] [$($h)*] $($rest)*);
    };
    (@ids [$($(#[$cd:meta])* $c:ident,)*] [$($(#[$hd:meta])* $h:ident,)*]) => {
        /// A counter slot of the [`MetricsRegistry`] table, one variant per
        /// `count(..)` line of the `metrics_table!` declaration.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Counter { $($(#[$cd])* $c,)* }

        impl Counter {
            /// Every counter, in declaration order.
            pub const ALL: [Counter; Self::COUNT] = [$(Counter::$c),*];
            /// Number of counters.
            pub const COUNT: usize = [$(Counter::$c),*].len();
        }

        /// A latency histogram of the [`MetricsRegistry`] table (the
        /// per-query histograms are indexed by [`QueryKind`] × [`ViewClass`]).
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Hist { $($(#[$hd])* $h,)* }

        impl Hist {
            /// Number of histograms.
            pub const COUNT: usize = [$(Hist::$h),*].len();
        }
    };
}

metrics_table! {
    /// Registry values the snapshot carries outside any family.
    pub(crate) struct Loose {
        /// Queries that returned an error (not visible, missing, corrupt).
        query_errors: count(QueryErrors),
        /// View-switch latency (an interactive session changing views).
        view_switch: hist(ViewSwitch),
    }

    /// Batch-query fan-out counters.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct BatchMetrics {
        /// Batch calls served.
        batches: count(Batches),
        /// Individual queries across all batches.
        queries: count(BatchQueries),
        /// Largest single batch.
        max_fanout: count(MaxBatchFanout),
    }

    /// Journal and compaction timing.
    #[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct JournalMetrics {
        /// Appends performed (each is an fsync).
        appends: count(JournalAppends),
        /// Append+fsync latency.
        append_latency: hist(JournalAppend),
        /// Checkpoint/compaction duration.
        checkpoint_latency: hist(Checkpoint),
    }

    /// Resilience counters: admission control, deadline interruptions,
    /// transient-IO retries, the write circuit breaker, and the
    /// supervisor's quarantines and repairs.
    ///
    /// Obeys the same accounting guarantee as the caches:
    /// `attempts == admitted + shed`, exactly, in every snapshot — including
    /// one taken while admissions are recorded concurrently, because
    /// `attempts` is not stored but summed from the snapshot's own loads.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct ResilienceMetrics {
        /// Queries that asked for admission (`admitted + shed`).
        attempts: sum(Admitted, Shed),
        /// Queries admitted (immediately or after queueing).
        admitted: count(Admitted),
        /// Queries shed with `Overloaded`.
        shed: count(Shed),
        /// Queries interrupted by their deadline.
        deadline_exceeded: count(DeadlineExceeded),
        /// Queries interrupted by a cancel token.
        cancelled: count(Cancelled),
        /// Transient storage-IO retries performed.
        io_retries: count(IoRetries),
        /// Write circuit-breaker trips (Closed→Open).
        breaker_trips: count(BreakerTrips),
        /// Write circuit-breaker recoveries (a probe closed it again).
        breaker_recoveries: count(BreakerRecoveries),
        /// Mutations rejected while degraded (breaker open).
        degraded_writes_rejected: count(DegradedWritesRejected),
        /// Supervisor quarantines of this shard (out of the write path).
        quarantines: count(Quarantines),
        /// Online repairs completed (fsck + reopen + atomic swap).
        repairs: count(Repairs),
        /// Total nanoseconds spent in completed online repairs.
        repair_nanos: count(RepairNanos),
        /// Mutations refused with the typed `Unavailable` answer.
        unavailable_rejected: count(UnavailableRejected),
    }

    /// Streaming-ingestion counters: how many streams opened/sealed, how the
    /// label index absorbed commits (in-place appends vs fragmentation
    /// rebuilds), and the rejection count the monotonicity validation produces.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct StreamMetrics {
        /// Streaming ingestions opened.
        streams_started: count(StreamsStarted),
        /// Events accepted and applied.
        events: count(StreamEvents),
        /// Events (or seals) rejected with a typed `StreamError`.
        events_rejected: count(StreamEventsRejected),
        /// Steps committed into streaming prefixes.
        steps_committed: count(StepsCommitted),
        /// Streams sealed into complete runs.
        streams_sealed: count(StreamsSealed),
        /// Label indexes extended in place by a commit.
        label_appends: count(LabelAppends),
        /// Label indexes rebuilt (fragmentation fallback) by a commit.
        label_rebuilds: count(LabelRebuilds),
    }

    /// Trace replay counters.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct ReplayMetrics {
        /// Replay sessions run against this warehouse.
        sessions: count(ReplaySessions),
        /// Trace operations re-executed.
        ops: count(ReplayOps),
        /// Operations whose result digest diverged from the recording.
        mismatches: count(ReplayMismatches),
    }

    /// Visibility-policy enforcement counters (DESIGN.md §16). A tenant with
    /// no policy touches none of these: the fast path is a single atomic load
    /// on the policy count, and enforcement is skipped entirely.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct PrivacyMetrics {
        /// Queries rewritten to a coarser (privacy or meet) view.
        substitutions: count(PolicySubstitutions),
        /// Requests denied outright (hidden workflow → not-found rendering).
        denials: count(PolicyDenials),
        /// Policy decisions served from the compiled cache.
        cache_hits: count(PolicyCacheHits),
        /// Privacy views compiled by the inverted-relevance builder.
        compilations: count(PolicyCompilations),
    }
}

/// The lock-free metrics registry every warehouse owns.
///
/// All recording methods take `&self` and cost a few relaxed atomic
/// operations; the only lock is around the slow-query ring buffer, taken
/// only for queries that actually crossed the threshold.
#[derive(Debug)]
pub struct MetricsRegistry {
    /// Query latency, per kind × view class.
    query_hist: [[LatencyHistogram; 3]; 4],
    counters: [AtomicU64; Counter::COUNT],
    hists: [LatencyHistogram; Hist::COUNT],
    slow_threshold_nanos: AtomicU64,
    slow_seq: AtomicU64,
    slow_log: Mutex<VecDeque<SlowQuery>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry {
            query_hist: Default::default(),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            hists: Default::default(),
            slow_threshold_nanos: AtomicU64::new(DEFAULT_SLOW_THRESHOLD_NANOS),
            slow_seq: AtomicU64::new(0),
            slow_log: Mutex::new(VecDeque::with_capacity(SLOW_LOG_CAPACITY)),
        }
    }
}

impl MetricsRegistry {
    /// A fresh registry with the default slow-query threshold.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to counter `c`.
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        self.counters[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Counter `c`'s current value.
    pub fn get(&self, c: Counter) -> u64 {
        self.counters[c as usize].load(Ordering::Relaxed)
    }

    /// Records one observation of `nanos` in histogram `h`.
    #[inline]
    pub fn observe(&self, h: Hist, nanos: u64) {
        self.hists[h as usize].record(nanos);
    }

    /// Records a successful query: latency histogram plus, if over the
    /// threshold, a slow-log entry carrying the query's context.
    #[allow(clippy::too_many_arguments)] // one flat call per query keeps the hot path allocation-free
    pub fn record_query(
        &self,
        kind: QueryKind,
        class: ViewClass,
        run: RunId,
        view: ViewId,
        view_name: &str,
        data: Option<u64>,
        nanos: u64,
    ) {
        self.query_hist[kind as usize][class as usize].record(nanos);
        if nanos >= self.slow_threshold_nanos.load(Ordering::Relaxed) {
            let seq = self.slow_seq.fetch_add(1, Ordering::Relaxed) + 1;
            let entry = SlowQuery {
                seq,
                kind,
                run,
                view,
                view_name: view_name.to_string(),
                data,
                nanos,
                tenant: current_tenant().map(|t| t.to_string()),
            };
            let mut log = self.slow_log.lock();
            if log.len() == SLOW_LOG_CAPACITY {
                log.pop_front();
            }
            log.push_back(entry);
        }
    }

    /// Records one batch call fanning out `queries` individual queries.
    pub fn record_batch(&self, queries: usize) {
        self.add(Counter::Batches, 1);
        self.add(Counter::BatchQueries, queries as u64);
        self.counters[Counter::MaxBatchFanout as usize]
            .fetch_max(queries as u64, Ordering::Relaxed);
    }

    /// Records one journal append (including its fsync) taking `nanos`.
    pub fn record_journal_append(&self, nanos: u64) {
        self.add(Counter::JournalAppends, 1);
        self.observe(Hist::JournalAppend, nanos);
    }

    /// Records one completed online repair and its duration.
    pub fn record_repair(&self, nanos: u64) {
        self.add(Counter::Repairs, 1);
        self.add(Counter::RepairNanos, nanos);
    }

    /// Records one replayed trace operation; `mismatch` flags a digest
    /// that diverged from the recording.
    pub fn record_replay_op(&self, mismatch: bool) {
        self.add(Counter::ReplayOps, 1);
        if mismatch {
            self.add(Counter::ReplayMismatches, 1);
        }
    }

    /// Sets the slow-query threshold in nanoseconds (0 captures every
    /// query; `u64::MAX` disables the log).
    pub fn set_slow_threshold_nanos(&self, nanos: u64) {
        self.slow_threshold_nanos.store(nanos, Ordering::Relaxed);
    }

    /// The current slow-query threshold in nanoseconds.
    pub fn slow_threshold_nanos(&self) -> u64 {
        self.slow_threshold_nanos.load(Ordering::Relaxed)
    }

    /// The captured slow queries, oldest first.
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.slow_log.lock().iter().cloned().collect()
    }

    /// Drops every captured slow query (the sequence counter keeps going).
    pub fn clear_slow_log(&self) {
        self.slow_log.lock().clear();
    }

    /// Snapshots the registry-owned parts (the caller folds in table and
    /// cache counters). Each counter is loaded once, so a `sum(..)` field
    /// agrees with the fields it sums.
    pub(crate) fn snapshot_into(
        &self,
        stats: WarehouseStats,
        view_run_cache: CacheMetrics,
        index_cache: CacheMetrics,
        index: IndexMetrics,
    ) -> MetricsSnapshot {
        let mut queries = Vec::with_capacity(12);
        for kind in QueryKind::ALL {
            for view_class in ViewClass::ALL {
                queries.push(QueryLatency {
                    kind,
                    view_class,
                    latency: self.query_hist[kind as usize][view_class as usize].snapshot(),
                });
            }
        }
        let c = self.counters.each_ref().map(|a| a.load(Ordering::Relaxed));
        let h = &self.hists;
        let loose = Loose::load(&c, h);
        MetricsSnapshot {
            stats,
            queries,
            query_errors: loose.query_errors,
            view_run_cache,
            index_cache,
            index,
            batch: BatchMetrics::load(&c, h),
            journal: JournalMetrics::load(&c, h),
            view_switch: loose.view_switch,
            slow_query_threshold_nanos: self.slow_threshold_nanos(),
            slow_queries: self.slow_queries(),
            resilience: ResilienceMetrics::load(&c, h),
            stream: StreamMetrics::load(&c, h),
            replay: ReplayMetrics::load(&c, h),
            privacy: PrivacyMetrics::load(&c, h),
        }
    }
}

/// Latency of one query family at one view class.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryLatency {
    /// The query family.
    pub kind: QueryKind,
    /// The view class queried through.
    pub view_class: ViewClass,
    /// The latency distribution.
    pub latency: HistogramSnapshot,
}

/// Counters of one materialization cache (view-run or provenance-index).
///
/// Obeys the counter-accuracy guarantee: `hits + misses` equals the
/// number of cache queries; `race_lost_builds` counts builds whose result
/// was discarded because another thread inserted first (those queries are
/// part of `hits`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheMetrics {
    /// Queries answered from the cache.
    pub hits: u64,
    /// Queries that built and inserted a new entry.
    pub misses: u64,
    /// Builds discarded after losing the insert race.
    pub race_lost_builds: u64,
    /// Entries evicted by the capacity bound.
    pub evictions: u64,
    /// Entries currently cached.
    pub entries: u64,
    /// Total nanoseconds spent building inserted entries.
    pub build_nanos: u64,
}

/// Gauges over the resident reachability indexes: which backend policy
/// is in force, how many bytes each index cache holds, and how the
/// interval labels are distributed (DESIGN.md §13).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IndexMetrics {
    /// Backend policy: a fixed backend's name, or `"auto"`.
    pub backend: String,
    /// Bytes resident across every cached bitset index (`O(n²/64)` each).
    pub bitset_bytes: u64,
    /// Bytes resident across every cached label index
    /// (`O(n · avg_labels)` each).
    pub label_bytes: u64,
    /// Total intervals across every cached label index.
    pub label_intervals: u64,
    /// Power-of-two histogram of per-node label sizes: bucket 0 counts
    /// empty labels, bucket `i ≥ 1` labels of `[2^(i-1), 2^i)` intervals,
    /// the last bucket the tail.
    pub label_count_hist: [u64; 16],
    /// The label-index cache's counters (the bitset cache's counters are
    /// [`MetricsSnapshot::index_cache`]).
    pub label_cache: CacheMetrics,
}

/// A point-in-time copy of every warehouse metric, including the classic
/// [`WarehouseStats`] table counters.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Table sizes, index counters, and durability counters.
    pub stats: WarehouseStats,
    /// Query latency per kind × view class (all 12 combinations, in
    /// [`QueryKind::ALL`] × [`ViewClass::ALL`] order).
    pub queries: Vec<QueryLatency>,
    /// Queries that returned an error.
    pub query_errors: u64,
    /// The materialized view-run cache.
    pub view_run_cache: CacheMetrics,
    /// The base-closure provenance-index cache.
    pub index_cache: CacheMetrics,
    /// Reachability-index gauges: backend policy, resident bytes per
    /// index family, and the label-size distribution.
    pub index: IndexMetrics,
    /// Batch fan-out counters.
    pub batch: BatchMetrics,
    /// Journal append and checkpoint timing.
    pub journal: JournalMetrics,
    /// View-switch latency.
    pub view_switch: HistogramSnapshot,
    /// Current slow-query threshold, nanoseconds.
    pub slow_query_threshold_nanos: u64,
    /// The captured slow queries, oldest first.
    pub slow_queries: Vec<SlowQuery>,
    /// Admission, deadline, retry, and breaker counters.
    pub resilience: ResilienceMetrics,
    /// Streaming-ingestion counters.
    pub stream: StreamMetrics,
    /// Trace replay counters.
    pub replay: ReplayMetrics,
    /// Visibility-policy enforcement counters.
    pub privacy: PrivacyMetrics,
}

impl ToJson for HistogramSnapshot {
    fn write_json(&self, out: &mut String) {
        JsonObject::new(out)
            .field("count", self.count)
            .field("sum_nanos", self.sum_nanos)
            .field("max_nanos", self.max_nanos)
            .field("mean_nanos", self.mean_nanos())
            .field("buckets", &self.buckets)
            .finish();
    }
}

/// Implements [`ToJson`] by rendering a projection of the value.
macro_rules! json_via {
    ($($t:ty => |$v:ident| $e:expr,)*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                let $v = self;
                $e.write_json(out)
            }
        }
    )*};
}

json_via! {
    RunId => |r| r.0,
    ViewId => |v| v.0,
    QueryKind => |k| k.name(),
    ViewClass => |c| c.name(),
}

json_object! {
    CacheMetrics { hits, misses, race_lost_builds, evictions, entries, build_nanos }
    IndexMetrics {
        backend, bitset_bytes, label_bytes, label_intervals, label_count_hist, label_cache,
    }
    QueryLatency { kind, view_class, latency }
    SlowQuery { seq, kind, run, view, view_name, data, nanos, tenant }
    WarehouseStats {
        specs, views, runs, steps, data_objects, cached_view_runs, cached_indexes, index_hits,
        index_misses, index_build_nanos, view_run_hits, view_run_misses, view_run_evictions,
        journal_records, journal_bytes, compactions, epoch, degraded,
    }
    MetricsSnapshot {
        stats, queries, query_errors, view_run_cache, index_cache, index, batch, journal,
        view_switch, resilience, stream, replay, privacy, slow_query_threshold_nanos,
        slow_queries,
    }
}

/// Renders one slow query as a JSON object.
pub fn slow_query_json(q: &SlowQuery) -> String {
    json::to_string(q)
}

impl MetricsSnapshot {
    /// Renders the snapshot as a JSON document (the `zoomctl stats --json`
    /// format, documented in DESIGN.md §11).
    pub fn to_json(&self) -> String {
        json::to_string(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(1023), 0);
        assert_eq!(bucket_index(1024), 1);
        assert_eq!(bucket_index(2047), 1);
        assert_eq!(bucket_index(2048), 2);
        assert_eq!(bucket_index(1 << 24), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        // Every bounded bucket's lower edge maps to its own index.
        for (i, &b) in BUCKET_BOUNDS_NANOS.iter().enumerate() {
            assert_eq!(bucket_index(b - 1), i, "below bound {b}");
        }
    }

    #[test]
    fn histogram_records_and_snapshots() {
        let h = LatencyHistogram::new();
        h.record(500); // bucket 0
        h.record(1500); // bucket 1
        h.record(3_000_000); // bucket 12 (2^21..2^22)
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.sum_nanos, 3_002_000);
        assert_eq!(s.max_nanos, 3_000_000);
        assert_eq!(s.mean_nanos(), 1_000_666);
        assert_eq!(s.buckets.iter().sum::<u64>(), 3);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[1], 1);
    }

    #[test]
    fn slow_log_threshold_and_ring() {
        let m = MetricsRegistry::new();
        m.set_slow_threshold_nanos(1000);
        // Below threshold: recorded in the histogram, not in the log.
        m.record_query(
            QueryKind::Deep,
            ViewClass::Admin,
            RunId(1),
            ViewId(1),
            "UAdmin",
            Some(3),
            999,
        );
        assert!(m.slow_queries().is_empty());
        // At/above threshold: captured with context.
        m.record_query(
            QueryKind::Deep,
            ViewClass::Custom,
            RunId(1),
            ViewId(2),
            "UV(M2)",
            Some(5),
            1000,
        );
        let slow = m.slow_queries();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].view_name, "UV(M2)");
        assert_eq!(slow[0].data, Some(5));
        assert_eq!(slow[0].seq, 1);

        // The ring keeps only the newest SLOW_LOG_CAPACITY entries.
        for i in 0..(SLOW_LOG_CAPACITY as u64 + 10) {
            m.record_query(
                QueryKind::Dependents,
                ViewClass::BlackBox,
                RunId(2),
                ViewId(3),
                "UBlackBox",
                Some(i),
                5000,
            );
        }
        let slow = m.slow_queries();
        assert_eq!(slow.len(), SLOW_LOG_CAPACITY);
        // Oldest entries (including the UV(M2) one) fell off the front.
        assert!(slow.iter().all(|q| q.view_name == "UBlackBox"));
        // Sequence numbers stay monotone across the wrap.
        assert!(slow.windows(2).all(|w| w[0].seq < w[1].seq));

        m.clear_slow_log();
        assert!(m.slow_queries().is_empty());
    }

    fn snapshot(m: &MetricsRegistry) -> MetricsSnapshot {
        m.snapshot_into(
            WarehouseStats::default(),
            CacheMetrics::default(),
            CacheMetrics::default(),
            IndexMetrics::default(),
        )
    }

    #[test]
    fn batch_and_journal_counters() {
        let m = MetricsRegistry::new();
        m.record_batch(10);
        m.record_batch(3);
        m.record_journal_append(2000);
        m.observe(Hist::Checkpoint, 4000);
        m.observe(Hist::ViewSwitch, 1000);
        m.add(Counter::QueryErrors, 1);
        let snap = snapshot(&m);
        assert_eq!(snap.batch.batches, 2);
        assert_eq!(snap.batch.queries, 13);
        assert_eq!(snap.batch.max_fanout, 10);
        assert_eq!(snap.journal.appends, 1);
        assert_eq!(snap.journal.append_latency.count, 1);
        assert_eq!(snap.journal.checkpoint_latency.count, 1);
        assert_eq!(snap.view_switch.count, 1);
        assert_eq!(snap.query_errors, 1);
        assert_eq!(snap.queries.len(), 12);
    }

    #[test]
    fn admission_accounting_invariant() {
        let m = MetricsRegistry::new();
        m.add(Counter::Admitted, 1);
        m.add(Counter::Admitted, 1);
        m.add(Counter::Shed, 1);
        for c in [
            Counter::DeadlineExceeded,
            Counter::Cancelled,
            Counter::IoRetries,
            Counter::BreakerTrips,
            Counter::BreakerRecoveries,
            Counter::DegradedWritesRejected,
        ] {
            m.add(c, 1);
        }
        let r = snapshot(&m).resilience;
        assert_eq!(r.attempts, r.admitted + r.shed);
        assert_eq!((r.admitted, r.shed), (2, 1));
        assert_eq!((r.deadline_exceeded, r.cancelled), (1, 1));
        assert_eq!(
            (r.io_retries, r.breaker_trips, r.breaker_recoveries),
            (1, 1, 1)
        );
        assert_eq!(r.degraded_writes_rejected, 1);
        assert_eq!(m.get(Counter::IoRetries), 1);
        assert_eq!(m.get(Counter::DegradedWritesRejected), 1);
    }

    /// The value at `path` (`key` or `family.key`) of a rendered snapshot.
    fn json_u64(json: &str, path: &str) -> u64 {
        let (scope, key) = match path.split_once('.') {
            Some((family, key)) => (
                &json[json.find(&format!("\"{family}\":{{")).unwrap()..],
                key,
            ),
            None => (json, path),
        };
        let at = scope.find(&format!("\"{key}\":")).unwrap() + key.len() + 3;
        let digits = scope[at..].find(|c: char| !c.is_ascii_digit()).unwrap();
        scope[at..at + digits].parse().unwrap()
    }

    /// Reads one counter's snapshot field.
    type Field = fn(&MetricsSnapshot) -> u64;

    /// Counter `k` of the table, bumped by `k + 1`, reads `k + 1` in its
    /// snapshot field and under its JSON key. The list is a hand-kept copy
    /// of the declaration, so reordered or re-pointed entries fail here.
    #[test]
    fn every_declared_counter_reaches_its_field_and_json_key() {
        use Counter::*;
        #[rustfmt::skip]
        let table: [(Counter, &str, Field); Counter::COUNT] = [
            (QueryErrors, "query_errors", |s| s.query_errors),
            (Batches, "batch.batches", |s| s.batch.batches),
            (BatchQueries, "batch.queries", |s| s.batch.queries),
            (MaxBatchFanout, "batch.max_fanout", |s| s.batch.max_fanout),
            (JournalAppends, "journal.appends", |s| s.journal.appends),
            (Admitted, "resilience.admitted", |s| s.resilience.admitted),
            (Shed, "resilience.shed", |s| s.resilience.shed),
            (DeadlineExceeded, "resilience.deadline_exceeded", |s| s.resilience.deadline_exceeded),
            (Cancelled, "resilience.cancelled", |s| s.resilience.cancelled),
            (IoRetries, "resilience.io_retries", |s| s.resilience.io_retries),
            (BreakerTrips, "resilience.breaker_trips", |s| s.resilience.breaker_trips),
            (BreakerRecoveries, "resilience.breaker_recoveries", |s| s.resilience.breaker_recoveries),
            (DegradedWritesRejected, "resilience.degraded_writes_rejected", |s| s.resilience.degraded_writes_rejected),
            (Quarantines, "resilience.quarantines", |s| s.resilience.quarantines),
            (Repairs, "resilience.repairs", |s| s.resilience.repairs),
            (RepairNanos, "resilience.repair_nanos", |s| s.resilience.repair_nanos),
            (UnavailableRejected, "resilience.unavailable_rejected", |s| s.resilience.unavailable_rejected),
            (StreamsStarted, "stream.streams_started", |s| s.stream.streams_started),
            (StreamEvents, "stream.events", |s| s.stream.events),
            (StreamEventsRejected, "stream.events_rejected", |s| s.stream.events_rejected),
            (StepsCommitted, "stream.steps_committed", |s| s.stream.steps_committed),
            (StreamsSealed, "stream.streams_sealed", |s| s.stream.streams_sealed),
            (LabelAppends, "stream.label_appends", |s| s.stream.label_appends),
            (LabelRebuilds, "stream.label_rebuilds", |s| s.stream.label_rebuilds),
            (ReplaySessions, "replay.sessions", |s| s.replay.sessions),
            (ReplayOps, "replay.ops", |s| s.replay.ops),
            (ReplayMismatches, "replay.mismatches", |s| s.replay.mismatches),
            (PolicySubstitutions, "privacy.substitutions", |s| s.privacy.substitutions),
            (PolicyDenials, "privacy.denials", |s| s.privacy.denials),
            (PolicyCacheHits, "privacy.cache_hits", |s| s.privacy.cache_hits),
            (PolicyCompilations, "privacy.compilations", |s| s.privacy.compilations),
        ];
        let m = MetricsRegistry::new();
        for (k, &(counter, ..)) in table.iter().enumerate() {
            assert_eq!(Counter::ALL[k], counter, "declaration order");
            m.add(counter, k as u64 + 1);
        }
        let snap = snapshot(&m);
        let json = snap.to_json();
        for (k, (_, path, field)) in table.iter().enumerate() {
            assert_eq!(field(&snap), k as u64 + 1, "field {path}");
            assert_eq!(json_u64(&json, path), k as u64 + 1, "JSON {path}");
        }
        assert_eq!(json_u64(&json, "resilience.attempts"), 6 + 7);
    }

    /// Every counter nonzero and distinct (counter `k` holds `2^(k+1)`),
    /// non-empty histograms, and two slow queries: an escaped view name
    /// with `data: null`, and a tenant-tagged one.
    fn pinned_snapshot() -> MetricsSnapshot {
        let m = MetricsRegistry::new();
        for (k, c) in Counter::ALL.into_iter().enumerate() {
            m.add(c, 1 << (k + 1));
        }
        m.set_slow_threshold_nanos(5_000);
        let weird = "UV(\"weird\\name\")\n\u{1}";
        let tenant = Some("lab\"a");
        use {QueryKind::*, ViewClass::*};
        for (kind, class, (run, view), name, data, nanos, tenant) in [
            (Deep, Admin, (1, 2), "UAdmin", Some(3), 700, None),
            (Deep, Custom, (4, 5), weird, None, 3_000_000, None),
            (
                Dependents,
                BlackBox,
                (6, 7),
                "UBlackBox",
                Some(8),
                20_000_000,
                tenant,
            ),
            (Between, Admin, (9, 10), "UAdmin", Some(11), 1_500, None),
        ] {
            let _tenant = tag_tenant(tenant);
            m.record_query(kind, class, RunId(run), ViewId(view), name, data, nanos);
        }
        for (h, nanos) in [
            (Hist::JournalAppend, 2_000),
            (Hist::JournalAppend, 40_000),
            (Hist::Checkpoint, 4_000_000),
            (Hist::ViewSwitch, 9_000),
            (Hist::ViewSwitch, 1_100),
        ] {
            m.observe(h, nanos);
        }
        #[rustfmt::skip]
        let stats = WarehouseStats {
            specs: 1, views: 2, runs: 3, steps: 4, data_objects: 5, cached_view_runs: 6,
            cached_indexes: 7, index_hits: 8, index_misses: 9, index_build_nanos: 10,
            view_run_hits: 11, view_run_misses: 12, view_run_evictions: 13, journal_records: 14,
            journal_bytes: 15, compactions: 16, epoch: 17, degraded: true,
        };
        let cache = |b: u64| CacheMetrics {
            hits: b + 1,
            misses: b + 2,
            race_lost_builds: b + 3,
            evictions: b + 4,
            entries: b + 5,
            build_nanos: b + 6,
        };
        let index = IndexMetrics {
            backend: "auto".into(),
            bitset_bytes: 41,
            label_bytes: 42,
            label_intervals: 43,
            label_count_hist: std::array::from_fn(|i| 50 + i as u64),
            label_cache: cache(70),
        };
        m.snapshot_into(stats, cache(20), cache(30), index)
    }

    /// The wire encoding and every JSON document match the bytes captured
    /// from the hand-written renderers this table replaced.
    #[test]
    fn wire_and_json_bytes_match_the_pinned_documents() {
        use crate::resilience::{BreakerState, HealthReport, ShardState};
        let snap = pinned_snapshot();
        let wire = crate::codec::to_bytes(&snap).unwrap();
        let mut rendered = vec![
            wire.iter().map(|b| format!("{b:02x}")).collect::<String>(),
            snap.to_json(),
        ];
        rendered.extend(snap.slow_queries.iter().map(slow_query_json));
        let health = HealthReport {
            writable: false,
            breaker: BreakerState::HalfOpen,
            consecutive_failures: 3,
            breaker_trips: 4,
            breaker_recoveries: 5,
            io_retries: 6,
            degraded_writes_rejected: 7,
            durable: true,
            state: ShardState::Rebuilding,
            epoch: 9,
            quarantines: 10,
            repairs: 11,
            last_repair_nanos: 12,
        };
        rendered.push(health.to_json());
        rendered.push(HealthReport::in_memory().to_json());
        let pinned: Vec<&str> = include_str!("../tests/data/metrics_documents.txt")
            .lines()
            .collect();
        assert_eq!(rendered.len(), pinned.len());
        for (i, (got, want)) in rendered.iter().zip(&pinned).enumerate() {
            assert_eq!(got, want, "document {i}");
        }
    }

    #[test]
    fn json_has_documented_keys_and_escapes() {
        let m = MetricsRegistry::new();
        m.set_slow_threshold_nanos(0);
        m.record_query(
            QueryKind::Deep,
            ViewClass::Custom,
            RunId(0),
            ViewId(4),
            "UV(\"weird\\name\")",
            None,
            77,
        );
        let json = snapshot(&m).to_json();
        for key in [
            "\"stats\"",
            "\"specs\"",
            "\"queries\"",
            "\"query_errors\"",
            "\"view_run_cache\"",
            "\"index_cache\"",
            "\"index\"",
            "\"backend\"",
            "\"bitset_bytes\"",
            "\"label_bytes\"",
            "\"label_intervals\"",
            "\"label_count_hist\"",
            "\"label_cache\"",
            "\"race_lost_builds\"",
            "\"evictions\"",
            "\"batch\"",
            "\"max_fanout\"",
            "\"journal\"",
            "\"append_latency\"",
            "\"checkpoint_latency\"",
            "\"view_switch\"",
            "\"resilience\"",
            "\"shed\"",
            "\"io_retries\"",
            "\"breaker_trips\"",
            "\"quarantines\"",
            "\"repairs\"",
            "\"repair_nanos\"",
            "\"unavailable_rejected\"",
            "\"degraded\"",
            "\"stream\"",
            "\"streams_started\"",
            "\"events_rejected\"",
            "\"steps_committed\"",
            "\"streams_sealed\"",
            "\"label_appends\"",
            "\"label_rebuilds\"",
            "\"replay\"",
            "\"mismatches\"",
            "\"slow_query_threshold_nanos\"",
            "\"slow_queries\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // The weird view name is escaped, and the absent data id is null.
        assert!(json.contains("UV(\\\"weird\\\\name\\\")"), "{json}");
        assert!(json.contains("\"data\":null"), "{json}");
    }
}

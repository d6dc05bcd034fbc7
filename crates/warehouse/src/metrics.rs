//! Lock-free runtime metrics for the provenance warehouse.
//!
//! The paper's evaluation (Section V, Figures 10–11) is built on per-query
//! latency and the cost of view switches; serving provenance at production
//! scale needs the same numbers available *at runtime*, not just in
//! benchmark harnesses. This module is the warehouse's observability
//! layer:
//!
//! * [`MetricsRegistry`] — atomic counters and fixed-bucket latency
//!   histograms, shared by every hot path ([`crate::query`] through
//!   [`crate::store::Warehouse`], the caches, the journal and the durable
//!   store). Recording is wait-free (a handful of relaxed atomic adds);
//!   the parallel batch path never serializes on bookkeeping.
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
//! ## Counter-accuracy guarantee
//!
//! For both caches, `hits + misses` equals the number of `get_or_build`
//! calls, *including* under the parallel batch path: a thread that builds
//! an entry but loses the insert race is counted as a **hit** (it returns
//! the winner's entry) plus one `race_lost_builds`, and `misses` counts
//! exactly the entries actually inserted. Hit-rate arithmetic therefore
//! never over- or under-counts queries.

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

    fn index(self) -> usize {
        match self {
            QueryKind::Deep => 0,
            QueryKind::Immediate => 1,
            QueryKind::Dependents => 2,
            QueryKind::Between => 3,
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

    fn index(self) -> usize {
        match self {
            ViewClass::Admin => 0,
            ViewClass::BlackBox => 1,
            ViewClass::Custom => 2,
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

/// The lock-free metrics registry every warehouse owns.
///
/// All recording methods take `&self` and cost a few relaxed atomic
/// operations; the only lock is around the slow-query ring buffer, taken
/// only for queries that actually crossed the threshold.
#[derive(Debug)]
pub struct MetricsRegistry {
    /// Query latency, per kind × view class.
    query_hist: [[LatencyHistogram; 3]; 4],
    /// Queries that returned an error (not visible, missing, corrupt).
    query_errors: AtomicU64,
    /// Batch calls served.
    batches: AtomicU64,
    /// Individual queries inside batches.
    batch_queries: AtomicU64,
    /// Largest single batch seen.
    max_batch_fanout: AtomicU64,
    /// Journal appends (each one is an fsync).
    journal_appends: AtomicU64,
    /// Journal append+fsync latency.
    journal_append_hist: LatencyHistogram,
    /// Checkpoint/compaction duration.
    checkpoint_hist: LatencyHistogram,
    /// View-switch latency (an interactive session changing views).
    view_switch_hist: LatencyHistogram,
    slow_threshold_nanos: AtomicU64,
    slow_seq: AtomicU64,
    slow_log: Mutex<VecDeque<SlowQuery>>,
    /// Queries that asked for admission (admitted + shed).
    admission_attempts: AtomicU64,
    /// Queries admitted (immediately or after queueing).
    admission_admitted: AtomicU64,
    /// Queries shed because both slots and queue were full.
    admission_shed: AtomicU64,
    /// Queries interrupted by their deadline.
    deadline_exceeded: AtomicU64,
    /// Queries interrupted by a cancel token.
    cancelled: AtomicU64,
    /// Transient storage-IO retries performed by the backoff policy.
    io_retries: AtomicU64,
    /// Write circuit-breaker trips (Closed→Open).
    breaker_trips: AtomicU64,
    /// Write circuit-breaker recoveries (probe closed it again).
    breaker_recoveries: AtomicU64,
    /// Mutations rejected while the store was degraded (breaker open).
    degraded_writes_rejected: AtomicU64,
    /// Times the supervisor quarantined this shard (out of the write path).
    shard_quarantines: AtomicU64,
    /// Online repairs completed (fsck + reopen + atomic swap).
    shard_repairs: AtomicU64,
    /// Total nanoseconds spent in completed online repairs.
    repair_nanos: AtomicU64,
    /// Mutations refused with the typed `Unavailable` answer while
    /// quarantined or rebuilding.
    unavailable_rejected: AtomicU64,
    /// Streaming ingestions opened.
    streams_started: AtomicU64,
    /// Stream events accepted and applied.
    stream_events: AtomicU64,
    /// Stream events rejected with a typed `StreamError`.
    stream_events_rejected: AtomicU64,
    /// Steps committed into streaming prefixes.
    stream_steps_committed: AtomicU64,
    /// Streams sealed into complete runs.
    streams_sealed: AtomicU64,
    /// Label indexes extended in place by a streaming commit.
    label_appends: AtomicU64,
    /// Label indexes rebuilt (fragmentation fallback) by a streaming commit.
    label_rebuilds: AtomicU64,
    /// Trace replay sessions run against this warehouse.
    replay_sessions: AtomicU64,
    /// Trace operations re-executed by replays.
    replay_ops: AtomicU64,
    /// Replayed operations whose result digest diverged from the recording.
    replay_mismatches: AtomicU64,
    /// Queries rewritten to a coarser view by a visibility policy.
    policy_substitutions: AtomicU64,
    /// Requests denied outright by a visibility policy (hidden workflow,
    /// rendered as the equivalent not-found error).
    policy_denials: AtomicU64,
    /// Policy decisions answered from the compiled-policy cache.
    policy_cache_hits: AtomicU64,
    /// Privacy views compiled (inverted-relevance builder runs).
    policy_compilations: AtomicU64,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry {
            query_hist: Default::default(),
            query_errors: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batch_queries: AtomicU64::new(0),
            max_batch_fanout: AtomicU64::new(0),
            journal_appends: AtomicU64::new(0),
            journal_append_hist: LatencyHistogram::new(),
            checkpoint_hist: LatencyHistogram::new(),
            view_switch_hist: LatencyHistogram::new(),
            slow_threshold_nanos: AtomicU64::new(DEFAULT_SLOW_THRESHOLD_NANOS),
            slow_seq: AtomicU64::new(0),
            slow_log: Mutex::new(VecDeque::with_capacity(SLOW_LOG_CAPACITY)),
            admission_attempts: AtomicU64::new(0),
            admission_admitted: AtomicU64::new(0),
            admission_shed: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            io_retries: AtomicU64::new(0),
            breaker_trips: AtomicU64::new(0),
            breaker_recoveries: AtomicU64::new(0),
            degraded_writes_rejected: AtomicU64::new(0),
            shard_quarantines: AtomicU64::new(0),
            shard_repairs: AtomicU64::new(0),
            repair_nanos: AtomicU64::new(0),
            unavailable_rejected: AtomicU64::new(0),
            streams_started: AtomicU64::new(0),
            stream_events: AtomicU64::new(0),
            stream_events_rejected: AtomicU64::new(0),
            stream_steps_committed: AtomicU64::new(0),
            streams_sealed: AtomicU64::new(0),
            label_appends: AtomicU64::new(0),
            label_rebuilds: AtomicU64::new(0),
            replay_sessions: AtomicU64::new(0),
            replay_ops: AtomicU64::new(0),
            replay_mismatches: AtomicU64::new(0),
            policy_substitutions: AtomicU64::new(0),
            policy_denials: AtomicU64::new(0),
            policy_cache_hits: AtomicU64::new(0),
            policy_compilations: AtomicU64::new(0),
        }
    }
}

impl MetricsRegistry {
    /// A fresh registry with the default slow-query threshold.
    pub fn new() -> Self {
        Self::default()
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
        self.query_hist[kind.index()][class.index()].record(nanos);
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

    /// Records a query that ended in an error.
    pub fn record_query_error(&self) {
        self.query_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one batch call fanning out `queries` individual queries.
    pub fn record_batch(&self, queries: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batch_queries
            .fetch_add(queries as u64, Ordering::Relaxed);
        self.max_batch_fanout
            .fetch_max(queries as u64, Ordering::Relaxed);
    }

    /// Records one journal append (including its fsync) taking `nanos`.
    pub fn record_journal_append(&self, nanos: u64) {
        self.journal_appends.fetch_add(1, Ordering::Relaxed);
        self.journal_append_hist.record(nanos);
    }

    /// Records one checkpoint/compaction taking `nanos`.
    pub fn record_checkpoint(&self, nanos: u64) {
        self.checkpoint_hist.record(nanos);
    }

    /// Records one view switch taking `nanos`.
    pub fn record_view_switch(&self, nanos: u64) {
        self.view_switch_hist.record(nanos);
    }

    /// Records one admission-control decision. The accounting invariant
    /// `attempts == admitted + shed` holds by construction: every call
    /// bumps `attempts` and exactly one of the other two.
    pub fn record_admission(&self, admitted: bool) {
        self.admission_attempts.fetch_add(1, Ordering::Relaxed);
        if admitted {
            self.admission_admitted.fetch_add(1, Ordering::Relaxed);
        } else {
            self.admission_shed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a query interrupted by its deadline.
    pub fn record_deadline_exceeded(&self) {
        self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a query interrupted by a cancel token.
    pub fn record_cancelled(&self) {
        self.cancelled.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one transient storage-IO retry.
    pub fn record_io_retry(&self) {
        self.io_retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Transient storage-IO retries performed so far.
    pub fn io_retries(&self) -> u64 {
        self.io_retries.load(Ordering::Relaxed)
    }

    /// Records the write breaker tripping Closed→Open.
    pub fn record_breaker_trip(&self) {
        self.breaker_trips.fetch_add(1, Ordering::Relaxed);
    }

    /// Breaker trips so far.
    pub fn breaker_trips(&self) -> u64 {
        self.breaker_trips.load(Ordering::Relaxed)
    }

    /// Records the write breaker closing again after a probe.
    pub fn record_breaker_recovery(&self) {
        self.breaker_recoveries.fetch_add(1, Ordering::Relaxed);
    }

    /// Breaker recoveries so far.
    pub fn breaker_recoveries(&self) -> u64 {
        self.breaker_recoveries.load(Ordering::Relaxed)
    }

    /// Records a mutation rejected while the store was degraded.
    pub fn record_degraded_write_rejected(&self) {
        self.degraded_writes_rejected
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records the supervisor quarantining this shard.
    pub fn record_quarantine(&self) {
        self.shard_quarantines.fetch_add(1, Ordering::Relaxed);
    }

    /// Quarantines so far.
    pub fn shard_quarantines(&self) -> u64 {
        self.shard_quarantines.load(Ordering::Relaxed)
    }

    /// Records one completed online repair and its duration.
    pub fn record_repair(&self, nanos: u64) {
        self.shard_repairs.fetch_add(1, Ordering::Relaxed);
        self.repair_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Completed online repairs so far.
    pub fn shard_repairs(&self) -> u64 {
        self.shard_repairs.load(Ordering::Relaxed)
    }

    /// Records a mutation refused with the typed `Unavailable` answer.
    pub fn record_unavailable_rejected(&self) {
        self.unavailable_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Mutations rejected while degraded so far.
    pub fn degraded_writes_rejected(&self) -> u64 {
        self.degraded_writes_rejected.load(Ordering::Relaxed)
    }

    /// Records a streaming ingestion opening.
    pub fn record_stream_started(&self) {
        self.streams_started.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one stream event accepted and applied.
    pub fn record_stream_event(&self) {
        self.stream_events.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one stream event (or seal) rejected with a typed error.
    pub fn record_stream_rejected(&self) {
        self.stream_events_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` steps committed into a streaming prefix.
    pub fn record_steps_committed(&self, n: u64) {
        self.stream_steps_committed.fetch_add(n, Ordering::Relaxed);
    }

    /// Records a stream sealing into a complete run.
    pub fn record_stream_sealed(&self) {
        self.streams_sealed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a label index extended in place by a streaming commit.
    pub fn record_label_append(&self) {
        self.label_appends.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a label index rebuilt (fragmentation fallback) mid-stream.
    pub fn record_label_rebuild(&self) {
        self.label_rebuilds.fetch_add(1, Ordering::Relaxed);
    }

    /// Label-index in-place extensions so far.
    pub fn label_appends(&self) -> u64 {
        self.label_appends.load(Ordering::Relaxed)
    }

    /// Label-index mid-stream rebuilds so far.
    pub fn label_rebuilds(&self) -> u64 {
        self.label_rebuilds.load(Ordering::Relaxed)
    }

    /// Records a trace replay session starting.
    pub fn record_replay_session(&self) {
        self.replay_sessions.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one replayed trace operation; `mismatch` flags a digest
    /// that diverged from the recording.
    pub fn record_replay_op(&self, mismatch: bool) {
        self.replay_ops.fetch_add(1, Ordering::Relaxed);
        if mismatch {
            self.replay_mismatches.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a query rewritten to a coarser view by a visibility policy.
    pub fn record_policy_substitution(&self) {
        self.policy_substitutions.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a request denied outright by a visibility policy.
    pub fn record_policy_denial(&self) {
        self.policy_denials.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a policy decision served from the compiled cache.
    pub fn record_policy_cache_hit(&self) {
        self.policy_cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one privacy-view compilation (an inverted-relevance
    /// builder run).
    pub fn record_policy_compilation(&self) {
        self.policy_compilations.fetch_add(1, Ordering::Relaxed);
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
    /// cache counters).
    pub(crate) fn snapshot_into(
        &self,
        stats: WarehouseStats,
        view_run_cache: CacheMetrics,
        index_cache: CacheMetrics,
        index: IndexMetrics,
    ) -> MetricsSnapshot {
        let mut queries = Vec::with_capacity(12);
        for kind in QueryKind::ALL {
            for class in ViewClass::ALL {
                queries.push(QueryLatency {
                    kind,
                    view_class: class,
                    latency: self.query_hist[kind.index()][class.index()].snapshot(),
                });
            }
        }
        MetricsSnapshot {
            stats,
            queries,
            query_errors: self.query_errors.load(Ordering::Relaxed),
            view_run_cache,
            index_cache,
            index,
            batch: BatchMetrics {
                batches: self.batches.load(Ordering::Relaxed),
                queries: self.batch_queries.load(Ordering::Relaxed),
                max_fanout: self.max_batch_fanout.load(Ordering::Relaxed),
            },
            journal: JournalMetrics {
                appends: self.journal_appends.load(Ordering::Relaxed),
                append_latency: self.journal_append_hist.snapshot(),
                checkpoint_latency: self.checkpoint_hist.snapshot(),
            },
            view_switch: self.view_switch_hist.snapshot(),
            slow_query_threshold_nanos: self.slow_threshold_nanos.load(Ordering::Relaxed),
            slow_queries: self.slow_queries(),
            resilience: ResilienceMetrics {
                attempts: self.admission_attempts.load(Ordering::Relaxed),
                admitted: self.admission_admitted.load(Ordering::Relaxed),
                shed: self.admission_shed.load(Ordering::Relaxed),
                deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
                cancelled: self.cancelled.load(Ordering::Relaxed),
                io_retries: self.io_retries.load(Ordering::Relaxed),
                breaker_trips: self.breaker_trips.load(Ordering::Relaxed),
                breaker_recoveries: self.breaker_recoveries.load(Ordering::Relaxed),
                degraded_writes_rejected: self.degraded_writes_rejected.load(Ordering::Relaxed),
                quarantines: self.shard_quarantines.load(Ordering::Relaxed),
                repairs: self.shard_repairs.load(Ordering::Relaxed),
                repair_nanos: self.repair_nanos.load(Ordering::Relaxed),
                unavailable_rejected: self.unavailable_rejected.load(Ordering::Relaxed),
            },
            stream: StreamMetrics {
                streams_started: self.streams_started.load(Ordering::Relaxed),
                events: self.stream_events.load(Ordering::Relaxed),
                events_rejected: self.stream_events_rejected.load(Ordering::Relaxed),
                steps_committed: self.stream_steps_committed.load(Ordering::Relaxed),
                streams_sealed: self.streams_sealed.load(Ordering::Relaxed),
                label_appends: self.label_appends.load(Ordering::Relaxed),
                label_rebuilds: self.label_rebuilds.load(Ordering::Relaxed),
            },
            replay: ReplayMetrics {
                sessions: self.replay_sessions.load(Ordering::Relaxed),
                ops: self.replay_ops.load(Ordering::Relaxed),
                mismatches: self.replay_mismatches.load(Ordering::Relaxed),
            },
            privacy: PrivacyMetrics {
                substitutions: self.policy_substitutions.load(Ordering::Relaxed),
                denials: self.policy_denials.load(Ordering::Relaxed),
                cache_hits: self.policy_cache_hits.load(Ordering::Relaxed),
                compilations: self.policy_compilations.load(Ordering::Relaxed),
            },
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

/// Batch-query fan-out counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchMetrics {
    /// Batch calls served.
    pub batches: u64,
    /// Individual queries across all batches.
    pub queries: u64,
    /// Largest single batch.
    pub max_fanout: u64,
}

/// Journal and compaction timing.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct JournalMetrics {
    /// Appends performed (each is an fsync).
    pub appends: u64,
    /// Append+fsync latency.
    pub append_latency: HistogramSnapshot,
    /// Checkpoint/compaction duration.
    pub checkpoint_latency: HistogramSnapshot,
}

/// Resilience counters: admission control, deadline interruptions,
/// transient-IO retries, and the write circuit breaker.
///
/// Obeys the same accounting guarantee as the caches:
/// `attempts == admitted + shed`, exactly, including under concurrency —
/// every admission decision bumps `attempts` and exactly one of the
/// other two.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResilienceMetrics {
    /// Queries that asked for admission.
    pub attempts: u64,
    /// Queries admitted (immediately or after queueing).
    pub admitted: u64,
    /// Queries shed with `Overloaded`.
    pub shed: u64,
    /// Queries interrupted by their deadline.
    pub deadline_exceeded: u64,
    /// Queries interrupted by a cancel token.
    pub cancelled: u64,
    /// Transient storage-IO retries performed.
    pub io_retries: u64,
    /// Write circuit-breaker trips (Closed→Open).
    pub breaker_trips: u64,
    /// Write circuit-breaker recoveries.
    pub breaker_recoveries: u64,
    /// Mutations rejected while degraded.
    pub degraded_writes_rejected: u64,
    /// Supervisor quarantines of this shard.
    pub quarantines: u64,
    /// Online repairs completed (fsck + reopen + atomic swap).
    pub repairs: u64,
    /// Total nanoseconds spent in completed online repairs.
    pub repair_nanos: u64,
    /// Mutations refused with the typed `Unavailable` answer.
    pub unavailable_rejected: u64,
}

/// Streaming-ingestion counters: how many streams opened/sealed, how the
/// label index absorbed commits (in-place appends vs fragmentation
/// rebuilds), and the rejection count the monotonicity validation produces.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamMetrics {
    /// Streaming ingestions opened.
    pub streams_started: u64,
    /// Events accepted and applied.
    pub events: u64,
    /// Events (or seals) rejected with a typed `StreamError`.
    pub events_rejected: u64,
    /// Steps committed into streaming prefixes.
    pub steps_committed: u64,
    /// Streams sealed into complete runs.
    pub streams_sealed: u64,
    /// Label indexes extended in place by a commit.
    pub label_appends: u64,
    /// Label indexes rebuilt (fragmentation fallback) by a commit.
    pub label_rebuilds: u64,
}

/// Trace replay counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplayMetrics {
    /// Replay sessions run against this warehouse.
    pub sessions: u64,
    /// Trace operations re-executed.
    pub ops: u64,
    /// Operations whose result digest diverged from the recording.
    pub mismatches: u64,
}

/// Visibility-policy enforcement counters (DESIGN.md §16). A tenant with
/// no policy touches none of these: the fast path is a single atomic load
/// on the policy count, and enforcement is skipped entirely.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrivacyMetrics {
    /// Queries rewritten to a coarser (privacy or meet) view.
    pub substitutions: u64,
    /// Requests denied outright (hidden workflow → not-found rendering).
    pub denials: u64,
    /// Policy decisions served from the compiled cache.
    pub cache_hits: u64,
    /// Privacy views compiled by the inverted-relevance builder.
    pub compilations: u64,
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

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn hist_json(h: &HistogramSnapshot) -> String {
    let buckets: Vec<String> = h.buckets.iter().map(u64::to_string).collect();
    format!(
        "{{\"count\":{},\"sum_nanos\":{},\"max_nanos\":{},\"mean_nanos\":{},\"buckets\":[{}]}}",
        h.count,
        h.sum_nanos,
        h.max_nanos,
        h.mean_nanos(),
        buckets.join(",")
    )
}

fn cache_json(c: &CacheMetrics) -> String {
    format!(
        "{{\"hits\":{},\"misses\":{},\"race_lost_builds\":{},\"evictions\":{},\"entries\":{},\"build_nanos\":{}}}",
        c.hits, c.misses, c.race_lost_builds, c.evictions, c.entries, c.build_nanos
    )
}

/// Renders one slow query as a JSON object.
pub fn slow_query_json(q: &SlowQuery) -> String {
    format!(
        "{{\"seq\":{},\"kind\":\"{}\",\"run\":{},\"view\":{},\"view_name\":\"{}\",\"data\":{},\"nanos\":{},\"tenant\":{}}}",
        q.seq,
        q.kind,
        q.run.0,
        q.view.0,
        json_escape(&q.view_name),
        q.data.map_or("null".to_string(), |d| d.to_string()),
        q.nanos,
        q.tenant
            .as_deref()
            .map_or("null".to_string(), |t| format!("\"{}\"", json_escape(t)))
    )
}

impl MetricsSnapshot {
    /// Renders the snapshot as a JSON document (the `zoomctl stats --json`
    /// format, documented in DESIGN.md §11). Hand-rolled because no JSON
    /// serializer crate is in the workspace's dependency budget.
    pub fn to_json(&self) -> String {
        let s = &self.stats;
        let stats = format!(
            "{{\"specs\":{},\"views\":{},\"runs\":{},\"steps\":{},\"data_objects\":{},\
             \"cached_view_runs\":{},\"cached_indexes\":{},\"index_hits\":{},\"index_misses\":{},\
             \"index_build_nanos\":{},\"view_run_hits\":{},\"view_run_misses\":{},\
             \"view_run_evictions\":{},\"journal_records\":{},\"journal_bytes\":{},\
             \"compactions\":{},\"epoch\":{},\"degraded\":{}}}",
            s.specs,
            s.views,
            s.runs,
            s.steps,
            s.data_objects,
            s.cached_view_runs,
            s.cached_indexes,
            s.index_hits,
            s.index_misses,
            s.index_build_nanos,
            s.view_run_hits,
            s.view_run_misses,
            s.view_run_evictions,
            s.journal_records,
            s.journal_bytes,
            s.compactions,
            s.epoch,
            s.degraded
        );
        let r = &self.resilience;
        let resilience = format!(
            "{{\"attempts\":{},\"admitted\":{},\"shed\":{},\"deadline_exceeded\":{},\
             \"cancelled\":{},\"io_retries\":{},\"breaker_trips\":{},\
             \"breaker_recoveries\":{},\"degraded_writes_rejected\":{},\
             \"quarantines\":{},\"repairs\":{},\"repair_nanos\":{},\
             \"unavailable_rejected\":{}}}",
            r.attempts,
            r.admitted,
            r.shed,
            r.deadline_exceeded,
            r.cancelled,
            r.io_retries,
            r.breaker_trips,
            r.breaker_recoveries,
            r.degraded_writes_rejected,
            r.quarantines,
            r.repairs,
            r.repair_nanos,
            r.unavailable_rejected
        );
        let st = &self.stream;
        let stream = format!(
            "{{\"streams_started\":{},\"events\":{},\"events_rejected\":{},\
             \"steps_committed\":{},\"streams_sealed\":{},\"label_appends\":{},\
             \"label_rebuilds\":{}}}",
            st.streams_started,
            st.events,
            st.events_rejected,
            st.steps_committed,
            st.streams_sealed,
            st.label_appends,
            st.label_rebuilds
        );
        let rp = &self.replay;
        let replay = format!(
            "{{\"sessions\":{},\"ops\":{},\"mismatches\":{}}}",
            rp.sessions, rp.ops, rp.mismatches
        );
        let pv = &self.privacy;
        let privacy = format!(
            "{{\"substitutions\":{},\"denials\":{},\"cache_hits\":{},\"compilations\":{}}}",
            pv.substitutions, pv.denials, pv.cache_hits, pv.compilations
        );
        let queries: Vec<String> = self
            .queries
            .iter()
            .map(|q| {
                format!(
                    "{{\"kind\":\"{}\",\"view_class\":\"{}\",\"latency\":{}}}",
                    q.kind,
                    q.view_class,
                    hist_json(&q.latency)
                )
            })
            .collect();
        let slow: Vec<String> = self.slow_queries.iter().map(slow_query_json).collect();
        let ix = &self.index;
        let hist: Vec<String> = ix.label_count_hist.iter().map(u64::to_string).collect();
        let index = format!(
            "{{\"backend\":\"{}\",\"bitset_bytes\":{},\"label_bytes\":{},\
             \"label_intervals\":{},\"label_count_hist\":[{}],\"label_cache\":{}}}",
            json_escape(&ix.backend),
            ix.bitset_bytes,
            ix.label_bytes,
            ix.label_intervals,
            hist.join(","),
            cache_json(&ix.label_cache)
        );
        format!(
            "{{\"stats\":{},\"queries\":[{}],\"query_errors\":{},\"view_run_cache\":{},\
             \"index_cache\":{},\"index\":{},\
             \"batch\":{{\"batches\":{},\"queries\":{},\"max_fanout\":{}}},\
             \"journal\":{{\"appends\":{},\"append_latency\":{},\"checkpoint_latency\":{}}},\
             \"view_switch\":{},\"resilience\":{},\"stream\":{},\"replay\":{},\
             \"privacy\":{},\
             \"slow_query_threshold_nanos\":{},\
             \"slow_queries\":[{}]}}",
            stats,
            queries.join(","),
            self.query_errors,
            cache_json(&self.view_run_cache),
            cache_json(&self.index_cache),
            index,
            self.batch.batches,
            self.batch.queries,
            self.batch.max_fanout,
            self.journal.appends,
            hist_json(&self.journal.append_latency),
            hist_json(&self.journal.checkpoint_latency),
            hist_json(&self.view_switch),
            resilience,
            stream,
            replay,
            privacy,
            self.slow_query_threshold_nanos,
            slow.join(",")
        )
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

    #[test]
    fn batch_and_journal_counters() {
        let m = MetricsRegistry::new();
        m.record_batch(10);
        m.record_batch(3);
        m.record_journal_append(2000);
        m.record_checkpoint(4000);
        m.record_view_switch(1000);
        m.record_query_error();
        let snap = m.snapshot_into(
            WarehouseStats::default(),
            CacheMetrics::default(),
            CacheMetrics::default(),
            IndexMetrics::default(),
        );
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
        m.record_admission(true);
        m.record_admission(true);
        m.record_admission(false);
        m.record_deadline_exceeded();
        m.record_cancelled();
        m.record_io_retry();
        m.record_breaker_trip();
        m.record_breaker_recovery();
        m.record_degraded_write_rejected();
        let snap = m.snapshot_into(
            WarehouseStats::default(),
            CacheMetrics::default(),
            CacheMetrics::default(),
            IndexMetrics::default(),
        );
        let r = snap.resilience;
        assert_eq!(r.attempts, r.admitted + r.shed);
        assert_eq!((r.admitted, r.shed), (2, 1));
        assert_eq!((r.deadline_exceeded, r.cancelled), (1, 1));
        assert_eq!(
            (r.io_retries, r.breaker_trips, r.breaker_recoveries),
            (1, 1, 1)
        );
        assert_eq!(r.degraded_writes_rejected, 1);
        assert_eq!(m.io_retries(), 1);
        assert_eq!(m.degraded_writes_rejected(), 1);
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
        let snap = m.snapshot_into(
            WarehouseStats::default(),
            CacheMetrics::default(),
            CacheMetrics::default(),
            IndexMetrics::default(),
        );
        let json = snap.to_json();
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

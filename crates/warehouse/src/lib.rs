#![warn(missing_docs)]

//! # zoom-warehouse
//!
//! The embedded provenance warehouse of the ZOOM*UserViews reproduction —
//! the stand-in for the paper's Oracle 10g deployment (Section IV,
//! Figure 8). It stores workflow specifications, user views, and runs;
//! materializes composite executions per `(run, view)` pair; and answers
//! immediate, deep, and forward provenance queries with respect to a user
//! view. Switching views over one run reuses cached materializations, the
//! embedded analog of the paper's temp-table strategy that made view
//! switches ≈13 ms.
//!
//! * [`schema`] — warehouse ids and row types (a row's id is its position
//!   in its table);
//! * [`query`] — recursive provenance queries over view-runs (the
//!   `CONNECT BY` analog);
//! * [`cache`] — the materialized view-run cache;
//! * [`index`] — the per-run base-closure provenance index (the
//!   base-provenance temp-table analog) and its run-keyed cache;
//! * [`labels`] — tree-cover interval reachability labels, the
//!   `O(n · avg_labels)`-memory default index above the node-count
//!   threshold, with incremental append;
//! * [`metrics`] — the lock-free observability layer: per-query-class
//!   latency histograms, the declared counter table, and the slow-query
//!   log, snapshotted as [`MetricsSnapshot`];
//! * [`json`] — the JSON writer behind the observability documents;
//! * [`store`] — the [`Warehouse`] facade;
//! * [`op`] — the operation algebra: every data-plane operation as one
//!   [`Op`], every answer as one [`Answer`], the per-request context
//!   [`Cx`] (tenant and budget), and the in-process backends' `apply`;
//! * [`stream`] — streaming ingestion: event-at-a-time run reconstruction
//!   with a committed, queryable prefix mid-run;
//! * [`trace`] — deterministic capture/replay of facade traffic (logical
//!   clocks + result digests) for regression diffing and load generation;
//! * [`privacy`] — per-tenant visibility policies compiled into privacy
//!   views (the inverted-relevance `RelevUserViewBuilder` run), the
//!   partition-join meet, the [`PolicyTable`], and the one enforcement
//!   [`Gate`] both facades call — one atomic load for tenants with no
//!   policy;
//! * [`persist`] — binary snapshot save/load;
//! * [`journal`] — the checksummed record format of the durable store's
//!   write-ahead log, and its crash-tolerant replay;
//! * [`durable`] — the unified crash-safe store: snapshot + journal tail
//!   behind an atomically-swung manifest, with auto-compaction and `fsck`;
//! * [`io`] — the [`StorageIo`] abstraction ([`RealFs`] in production,
//!   [`FaultFs`] for crash-recovery fault injection);
//! * [`resilience`] — deadlines + cooperative cancellation, admission
//!   control, transient-IO retry with backoff, and the write circuit
//!   breaker behind the durable store's degraded read-only mode;
//! * [`wire`] — the `zoomd` wire layer: capped checksummed frames over
//!   the codec, request/response messages, the run-sharding router, and
//!   the per-tenant quota table;
//! * [`codec`] — the bincode-style serde format behind persistence.

pub mod cache;
pub mod chaos;
pub mod codec;
pub mod durable;
pub mod index;
pub mod io;
pub mod journal;
pub mod json;
pub mod labels;
pub mod metrics;
pub mod op;
pub mod persist;
pub mod privacy;
pub mod query;
pub mod resilience;
pub mod schema;
pub mod store;
pub mod stream;
pub mod trace;
pub mod wire;

pub use cache::ViewRunCache;
pub use chaos::{ChaosDriver, FaultAction, FaultEvent, FaultSchedule, SplitMix64};
pub use durable::{fsck, Backing, DurableError, DurableOptions, DurableWarehouse, FsckReport};
pub use index::{IndexBuildError, ProvenanceIndex, ProvenanceIndexCache, RunKeyedCache};
pub use io::{FaultFs, RealFs, StorageIo};
pub use journal::JournalError;
pub use labels::{LabelIndex, UpdateOutcome, FRAGMENTATION_FACTOR};
pub use metrics::{
    CacheMetrics, Counter, Hist, HistogramSnapshot, IndexMetrics, LatencyHistogram,
    MetricsRegistry, MetricsSnapshot, PrivacyMetrics, QueryKind, ReplayMetrics, ResilienceMetrics,
    SlowQuery, StreamMetrics, ViewClass,
};
pub use op::{typed, Answer, Cx, FromAnswer, Op, Store};
pub use privacy::{
    conceal, partition_join, partitions_equal, Gate, MutRegistrar, PolicyTable, ViewRegistry,
    VisibilityPolicy,
};
pub use query::{
    data_between, deep_provenance, deep_provenance_bfs, deep_provenance_indexed,
    deep_provenance_labeled, dependents_of, dependents_of_bfs, immediate_provenance,
    ImmediateProvenance, ProvenanceResult, ProvenanceRow, QueryError, QueryFailure, Reach,
};
pub use resilience::{
    AdmissionControl, AdmissionPermit, BreakerState, CancelToken, CircuitBreaker, Deadline,
    HealthReport, Interrupt, RetryPolicy, ShardState,
};
pub use schema::{RunId, SpecId, ViewId, WarehouseStats};
pub use store::{
    BoundViewRun, ImmediateAnswer, IndexBackend, Result, Warehouse, WarehouseError,
    DEFAULT_LABELS_THRESHOLD,
};
pub use stream::{PushOutcome, RunIngestor, SealCommit, StreamCommit, StreamError};
pub use trace::{
    ReplayOptions, ReplayReport, TraceError, TraceHeader, TraceRecorder, TraceReplayer, TraceTarget,
};
pub use wire::{
    BatchItem, RepairOutcome, Request, Response, ShardRouter, TenantQuotaTable, TenantQuotas,
    WireError, DEFAULT_RETRY_AFTER_MS, MAX_FRAME_BYTES,
};

//! The provenance warehouse facade.
//!
//! Mirrors the architecture of the paper's Figure 8: the system designer
//! registers workflow specifications and user-view definitions; run
//! information arrives as event logs (or validated runs) from the workflow
//! system; users query provenance with respect to a user view. The paper
//! used Oracle 10g behind JDBC; this warehouse is embedded and in-process,
//! with the same logical schema and the same query-acceleration strategy
//! (materialize base structures once, reuse across view switches).

use crate::cache::ViewRunCache;
use crate::index::{IndexBuildError, ProvenanceIndex, ProvenanceIndexCache, RunKeyedCache};
use crate::labels::LabelIndex;
use crate::metrics::{
    Counter, IndexMetrics, MetricsRegistry, MetricsSnapshot, QueryKind, ViewClass,
};
use crate::op::{typed, Answer, Cx, Op};
use crate::query::{self, ImmediateProvenance, ProvenanceResult, QueryError, QueryFailure, Reach};
use crate::resilience::{AdmissionControl, CancelToken, Deadline, Interrupt};
use crate::schema::{RunId, RunRow, SpecId, SpecRow, ViewId, ViewRow, WarehouseStats};
use crate::stream::{PushOutcome, RunIngestor, SealCommit, StreamCommit, StreamError};
use crate::table::Table;
use parking_lot::RwLock;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use zoom_graph::fxhash::FxHashMap;
use zoom_model::{
    DataId, EventLog, LogEvent, ModelError, UserInputMeta, UserView, ViewRun, WorkflowRun,
    WorkflowSpec,
};

/// Errors from warehouse operations.
#[derive(Debug)]
pub enum WarehouseError {
    /// A model-level validation failure (invalid spec, run, log, or view).
    Model(ModelError),
    /// Unknown specification id.
    SpecNotFound(SpecId),
    /// Unknown view id.
    ViewNotFound(ViewId),
    /// Unknown run id.
    RunNotFound(RunId),
    /// A specification with this name is already registered.
    DuplicateSpecName(String),
    /// The view/run does not belong to the given specification.
    SpecMismatch {
        /// What was expected.
        expected: String,
        /// What was provided.
        got: String,
    },
    /// The data object does not occur in the run.
    DataNotFound(DataId),
    /// The data object exists but is hidden at this view level.
    DataNotVisible {
        /// The queried object.
        data: DataId,
        /// The view that hides it.
        view: String,
    },
    /// The (possibly virtual) execution id does not exist in the run at
    /// this view level.
    ExecNotFound(zoom_model::StepId),
    /// The run has no data flowing to its output node.
    NoFinalOutputs(RunId),
    /// The view-run is structurally inconsistent with the run it claims to
    /// materialize (hand-loaded or corrupted state). The query is refused
    /// instead of aborting the process.
    CorruptViewRun(QueryError),
    /// Journaling the mutation to durable storage failed; the in-memory
    /// change was rolled back.
    Durability(Box<crate::durable::DurableError>),
    /// The query's deadline passed mid-traversal; the traversal unwound
    /// cooperatively instead of running unbounded.
    DeadlineExceeded,
    /// The query was cancelled via [`CancelToken`] mid-traversal.
    Cancelled,
    /// Admission control shed the query: the in-flight limit and the wait
    /// queue were both full. Retry later or at lower concurrency.
    Overloaded,
    /// The store is in degraded read-only mode (the write circuit breaker
    /// is open after consecutive permanent storage failures): mutations
    /// fail fast, queries keep serving from memory.
    Degraded,
    /// A streaming-ingestion event or seal was rejected; the stream and
    /// its committed prefix are unchanged.
    Stream(crate::stream::StreamError),
    /// A batch worker thread panicked mid-query. The batch's other slots
    /// still answer; only the panicked worker's claimed queries fail —
    /// a panic in one query must not abort the process (or, under
    /// `zoomd`, one tenant's connection thread).
    WorkerPanicked,
    /// The shard that owns the addressed state is quarantined or mid-
    /// rebuild: it was taken out of the write path by the supervisor and
    /// will return once repaired. Retry after the hinted delay; other
    /// shards are unaffected. Over the wire this renders as the typed
    /// `Unavailable` response instead of an error string.
    ShardUnavailable {
        /// The supervised shard that refused the operation.
        shard: u32,
        /// Suggested client backoff before retrying, milliseconds.
        retry_after_ms: u64,
    },
    /// A visibility policy cannot be satisfied for this workflow: no user
    /// view conceals the protected modules (e.g. the workflow has a single
    /// module and it is hidden — even the black-box view is a singleton
    /// composite, which exposes the module's full I/O behaviour).
    PolicyUnsatisfiable {
        /// The workflow the policy was compiled against.
        spec: String,
        /// Why no concealing view exists.
        reason: String,
    },
    /// A write op (named here) reached a read-only path: it needs the
    /// exclusive `apply` of its backend.
    ReadOnly(&'static str),
}

impl fmt::Display for WarehouseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WarehouseError::Model(e) => write!(f, "model error: {e}"),
            WarehouseError::SpecNotFound(id) => write!(f, "{id} not found"),
            WarehouseError::ViewNotFound(id) => write!(f, "{id} not found"),
            WarehouseError::RunNotFound(id) => write!(f, "{id} not found"),
            WarehouseError::DuplicateSpecName(n) => {
                write!(f, "a specification named `{n}` is already registered")
            }
            WarehouseError::SpecMismatch { expected, got } => {
                write!(
                    f,
                    "specification mismatch: expected `{expected}`, got `{got}`"
                )
            }
            WarehouseError::DataNotFound(d) => write!(f, "data object {d} not found in run"),
            WarehouseError::DataNotVisible { data, view } => {
                write!(f, "data object {data} is hidden at view level `{view}`")
            }
            WarehouseError::ExecNotFound(s) => {
                write!(f, "execution {s} not found in run at this view level")
            }
            WarehouseError::NoFinalOutputs(r) => {
                write!(f, "{r} has no final outputs")
            }
            WarehouseError::CorruptViewRun(e) => write!(f, "corrupt view-run: {e}"),
            WarehouseError::Durability(e) => write!(f, "durability error: {e}"),
            WarehouseError::DeadlineExceeded => write!(f, "query deadline exceeded"),
            WarehouseError::Cancelled => write!(f, "query cancelled"),
            WarehouseError::Overloaded => {
                write!(f, "warehouse overloaded: query shed by admission control")
            }
            WarehouseError::Degraded => write!(
                f,
                "store is in degraded read-only mode: mutations rejected until storage recovers"
            ),
            WarehouseError::Stream(e) => write!(f, "stream error: {e}"),
            WarehouseError::WorkerPanicked => {
                write!(f, "batch query worker panicked; slot abandoned")
            }
            WarehouseError::ShardUnavailable {
                shard,
                retry_after_ms,
            } => {
                write!(
                    f,
                    "shard {shard} unavailable (under repair); retry after {retry_after_ms} ms"
                )
            }
            WarehouseError::PolicyUnsatisfiable { spec, reason } => {
                write!(
                    f,
                    "visibility policy unsatisfiable for workflow `{spec}`: {reason}"
                )
            }
            WarehouseError::ReadOnly(op) => write!(f, "`{op}` writes; this path only reads"),
        }
    }
}

impl std::error::Error for WarehouseError {}

impl From<ModelError> for WarehouseError {
    fn from(e: ModelError) -> Self {
        WarehouseError::Model(e)
    }
}

impl From<crate::stream::StreamError> for WarehouseError {
    fn from(e: crate::stream::StreamError) -> Self {
        WarehouseError::Stream(e)
    }
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, WarehouseError>;

/// The immediate-provenance answer with user-input metadata resolved.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ImmediateAnswer {
    /// Produced by a (possibly virtual) execution.
    Produced {
        /// The producing execution id.
        exec: zoom_model::StepId,
        /// Its full input set.
        inputs: Vec<DataId>,
        /// Parameters of the execution's member steps, as
        /// `(member step, key, value)`, sorted — "what data objects and
        /// parameters were input to that step" (Section II).
        params: Vec<(zoom_model::StepId, String, String)>,
    },
    /// Input by the user: "its provenance is whatever metadata information
    /// is recorded" (Section II).
    UserInput {
        /// Who/when, if recorded.
        meta: Option<UserInputMeta>,
    },
}

/// Every row of the warehouse, sorted by id (persistence support).
pub(crate) type ExportedRows = (
    Vec<(SpecId, SpecRow)>,
    Vec<(ViewId, ViewRow)>,
    Vec<(RunId, RunRow)>,
);

/// Which reachability strategy answers deep/forward provenance.
///
/// The default policy is *automatic*: runs at or above the labels
/// threshold (see [`Warehouse::set_labels_threshold`]) use [`Labels`]
/// (`O(n · avg_labels)` memory), smaller runs use [`Bitset`] (fastest
/// constant factors, `O(n²/64)` memory). [`Bfs`] runs a per-query
/// traversal with no index at all — the always-correct fallback and the
/// baseline the scorecard compares against.
///
/// [`Labels`]: IndexBackend::Labels
/// [`Bitset`]: IndexBackend::Bitset
/// [`Bfs`]: IndexBackend::Bfs
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IndexBackend {
    /// Tree-cover interval labels ([`crate::labels::LabelIndex`]).
    Labels,
    /// Dense closure rows ([`ProvenanceIndex`]).
    Bitset,
    /// Per-query BFS, no index.
    Bfs,
}

impl IndexBackend {
    /// Stable lowercase name, as reported by `stats --json`.
    pub fn name(self) -> &'static str {
        match self {
            IndexBackend::Labels => "labels",
            IndexBackend::Bitset => "bitset",
            IndexBackend::Bfs => "bfs",
        }
    }

    fn to_u8(self) -> u8 {
        match self {
            IndexBackend::Labels => 1,
            IndexBackend::Bitset => 2,
            IndexBackend::Bfs => 3,
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        match v {
            1 => Some(IndexBackend::Labels),
            2 => Some(IndexBackend::Bitset),
            3 => Some(IndexBackend::Bfs),
            _ => None,
        }
    }
}

impl fmt::Display for IndexBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Runs with at least this many graph nodes default to the labels
/// backend; below it the bitset rows are small enough that their better
/// constant factors win. At 4096 nodes the bitset pair costs ~4 MiB per
/// run and doubles per doubling of n — labels stay near two intervals
/// per node on workflow shapes.
pub const DEFAULT_LABELS_THRESHOLD: usize = 4096;

/// A view-run together with the stored run it was materialized from: what
/// [`Warehouse::view_run_uncached`] hands out, so callers can ask data
/// questions of a view-run, which stores no data, without fetching the run.
/// Dereferences to the [`ViewRun`].
#[derive(Debug)]
pub struct BoundViewRun<'a> {
    /// The run the view-run projects.
    pub run: &'a WorkflowRun,
    /// The view-run.
    pub view_run: ViewRun,
}

impl BoundViewRun<'_> {
    /// All data visible at this view level, sorted.
    pub fn visible_data(&self) -> Vec<DataId> {
        self.view_run.visible_data(self.run)
    }
}

impl std::ops::Deref for BoundViewRun<'_> {
    type Target = ViewRun;

    fn deref(&self) -> &ViewRun {
        &self.view_run
    }
}

/// The embedded provenance warehouse.
///
/// ```
/// use zoom_warehouse::Warehouse;
/// use zoom_model::{SpecBuilder, RunBuilder, UserView, DataId};
///
/// let mut b = SpecBuilder::new("wh-doc");
/// b.analysis("A");
/// b.from_input("A").to_output("A");
/// let spec = b.build().unwrap();
///
/// let mut wh = Warehouse::new();
/// let sid = wh.register_spec(spec.clone()).unwrap();
/// let vid = wh.register_view(sid, UserView::admin(&spec)).unwrap();
/// let mut rb = RunBuilder::new(&spec);
/// let s1 = rb.step(spec.module("A").unwrap());
/// rb.input_edge(s1, [1]).output_edge(s1, [2]);
/// let rid = wh.load_run(sid, rb.build().unwrap()).unwrap();
///
/// let prov = wh.deep_provenance(rid, vid, DataId(2)).unwrap();
/// assert_eq!(prov.tuples(), 2); // d1 and d2
/// ```
#[derive(Debug)]
pub struct Warehouse {
    specs: Table<SpecId, SpecRow>,
    spec_by_name: FxHashMap<String, SpecId>,
    views: Table<ViewId, ViewRow>,
    views_by_spec: FxHashMap<SpecId, Vec<ViewId>>,
    runs: Table<RunId, RunRow>,
    runs_by_spec: FxHashMap<SpecId, Vec<RunId>>,
    /// Live streaming ingestions, keyed by the prefix run they grow.
    /// Entries are removed on seal, so membership means "still streaming".
    streams: FxHashMap<RunId, RunIngestor>,
    next_spec: u32,
    next_view: u32,
    next_run: u32,
    cache: ViewRunCache,
    index: ProvenanceIndexCache,
    labels: RunKeyedCache<LabelIndex>,
    /// Forced backend (`IndexBackend::to_u8`); 0 means automatic.
    index_backend: AtomicU8,
    /// Node count at which the automatic policy switches to labels.
    labels_threshold: AtomicUsize,
    metrics: MetricsRegistry,
    /// Bounds concurrent facade queries; past the bound + queue, sheds
    /// with [`WarehouseError::Overloaded`].
    admission: Arc<AdmissionControl>,
    /// Default per-query deadline in nanoseconds; 0 means unlimited.
    default_deadline_nanos: AtomicU64,
    /// The token in-flight queries poll; [`Warehouse::cancel_queries`]
    /// raises it and installs a fresh one for later queries.
    cancel: RwLock<CancelToken>,
    /// Cap on batch fan-out worker threads; 0 means "hardware parallelism".
    max_batch_workers: AtomicUsize,
}

/// A warehouse's runtime settings: what an operator tunes on a live store,
/// none of it journaled. [`Warehouse::settings`] captures them so a repair
/// can hand them to the store it rebuilds ([`DurableWarehouse::rebuild`]);
/// the admission controller is shared, not copied, so permits held against
/// the old store still count.
///
/// [`DurableWarehouse::rebuild`]: crate::durable::DurableWarehouse::rebuild
#[derive(Clone, Debug)]
pub struct Settings {
    slow_threshold_nanos: u64,
    default_deadline_nanos: u64,
    admission: Arc<AdmissionControl>,
    index_backend: u8,
    labels_threshold: usize,
    max_batch_workers: usize,
    view_run_cache_capacity: usize,
}

/// Default admission bound: plenty for an embedded store while still
/// giving a saturated deployment a shed point instead of a pile-up.
pub const DEFAULT_MAX_IN_FLIGHT: usize = 64;

/// Default admission queue depth.
pub const DEFAULT_MAX_QUEUE: usize = 1024;

impl Default for Warehouse {
    fn default() -> Self {
        Warehouse {
            specs: Table::default(),
            spec_by_name: FxHashMap::default(),
            views: Table::default(),
            views_by_spec: FxHashMap::default(),
            runs: Table::default(),
            runs_by_spec: FxHashMap::default(),
            streams: FxHashMap::default(),
            next_spec: 0,
            next_view: 0,
            next_run: 0,
            cache: ViewRunCache::default(),
            index: ProvenanceIndexCache::default(),
            labels: RunKeyedCache::default(),
            index_backend: AtomicU8::new(0),
            labels_threshold: AtomicUsize::new(DEFAULT_LABELS_THRESHOLD),
            metrics: MetricsRegistry::default(),
            admission: Arc::new(AdmissionControl::new(
                DEFAULT_MAX_IN_FLIGHT,
                DEFAULT_MAX_QUEUE,
            )),
            default_deadline_nanos: AtomicU64::new(0),
            cancel: RwLock::new(CancelToken::new()),
            max_batch_workers: AtomicUsize::new(0),
        }
    }
}

impl Warehouse {
    /// An empty warehouse.
    pub fn new() -> Self {
        Self::default()
    }

    // ------------------------------------------------------------------
    // Resilience configuration
    // ------------------------------------------------------------------

    /// Replaces the admission limits: at most `max_in_flight` concurrent
    /// facade queries, up to `max_queue` more waiting, the rest shed with
    /// [`WarehouseError::Overloaded`]. Queries already holding a permit
    /// from the old configuration finish undisturbed.
    pub fn set_admission_limits(&mut self, max_in_flight: usize, max_queue: usize) {
        self.admission = Arc::new(AdmissionControl::new(max_in_flight, max_queue));
    }

    /// The admission controller gating facade queries (shared so tests
    /// and embedding layers can hold permits to provoke shedding).
    pub fn admission(&self) -> &Arc<AdmissionControl> {
        &self.admission
    }

    /// Sets the default per-query deadline; `None` (the initial state)
    /// means unlimited. Applies to queries started after the call.
    pub fn set_default_deadline(&self, budget: Option<Duration>) {
        let nanos = budget.map_or(0, |d| d.as_nanos().clamp(1, u64::MAX as u128) as u64);
        self.default_deadline_nanos.store(nanos, Ordering::Relaxed);
    }

    /// The default per-query deadline, if one is configured.
    pub fn default_deadline(&self) -> Option<Duration> {
        match self.default_deadline_nanos.load(Ordering::Relaxed) {
            0 => None,
            n => Some(Duration::from_nanos(n)),
        }
    }

    /// Cancels every in-flight query (they unwind with
    /// [`WarehouseError::Cancelled`] at their next stride check) and
    /// installs a fresh token for queries started afterwards.
    pub fn cancel_queries(&self) {
        let mut slot = self.cancel.write();
        slot.cancel();
        *slot = CancelToken::new();
    }

    /// The deadline a read by `cx` runs under: its budget, else the
    /// default budget (unlimited when neither is set), always with the
    /// current cancel token, so [`Warehouse::cancel_queries`] reaches
    /// every read, budgeted or not.
    pub fn deadline(&self, cx: &Cx) -> Deadline {
        let base = match cx.budget.or_else(|| self.default_deadline()) {
            Some(budget) => Deadline::after(budget),
            None => Deadline::unlimited(),
        };
        base.with_token(self.cancel.read().clone())
    }

    /// Caps the batch fan-out worker count; 0 restores the default
    /// (hardware parallelism).
    pub fn set_max_batch_workers(&self, workers: usize) {
        self.max_batch_workers.store(workers, Ordering::Relaxed);
    }

    /// The batch fan-out worker cap; 0 means hardware parallelism.
    pub fn max_batch_workers(&self) -> usize {
        self.max_batch_workers.load(Ordering::Relaxed)
    }

    /// This store's runtime settings (see [`Settings`]).
    pub fn settings(&self) -> Settings {
        Settings {
            slow_threshold_nanos: self.metrics.slow_threshold_nanos(),
            default_deadline_nanos: self.default_deadline_nanos.load(Ordering::Relaxed),
            admission: Arc::clone(&self.admission),
            index_backend: self.index_backend.load(Ordering::Relaxed),
            labels_threshold: self.labels_threshold(),
            max_batch_workers: self.max_batch_workers(),
            view_run_cache_capacity: self.view_run_cache_capacity(),
        }
    }

    /// Takes over `settings`, captured from another store.
    pub(crate) fn set_settings(&mut self, settings: Settings) {
        self.metrics
            .set_slow_threshold_nanos(settings.slow_threshold_nanos);
        self.default_deadline_nanos = AtomicU64::new(settings.default_deadline_nanos);
        self.admission = settings.admission;
        self.index_backend = AtomicU8::new(settings.index_backend);
        self.labels_threshold = AtomicUsize::new(settings.labels_threshold);
        self.max_batch_workers = AtomicUsize::new(settings.max_batch_workers);
        self.cache.set_capacity(settings.view_run_cache_capacity);
    }

    // ------------------------------------------------------------------
    // Index backend selection
    // ------------------------------------------------------------------

    /// Forces every provenance query onto one [`IndexBackend`]; `None`
    /// restores the automatic node-count policy. Applies to queries
    /// started after the call (already-cached indexes stay cached).
    pub fn set_index_backend(&self, backend: Option<IndexBackend>) {
        self.index_backend
            .store(backend.map_or(0, IndexBackend::to_u8), Ordering::Relaxed);
    }

    /// The forced backend, or `None` when the automatic policy decides.
    pub fn index_backend(&self) -> Option<IndexBackend> {
        IndexBackend::from_u8(self.index_backend.load(Ordering::Relaxed))
    }

    /// Sets the node count at which the automatic policy prefers labels
    /// over bitset rows (see [`DEFAULT_LABELS_THRESHOLD`]).
    pub fn set_labels_threshold(&self, nodes: usize) {
        self.labels_threshold.store(nodes, Ordering::Relaxed);
    }

    /// The automatic policy's labels threshold.
    pub fn labels_threshold(&self) -> usize {
        self.labels_threshold.load(Ordering::Relaxed)
    }

    /// The backend a query over a run of `node_count` graph nodes uses
    /// right now: the forced backend if set, otherwise labels at or above
    /// the threshold and bitset below it.
    pub fn backend_for(&self, node_count: usize) -> IndexBackend {
        self.index_backend().unwrap_or_else(|| {
            if node_count >= self.labels_threshold() {
                IndexBackend::Labels
            } else {
                IndexBackend::Bitset
            }
        })
    }

    /// Human-readable backend policy for the observability surface:
    /// a fixed backend's name, or `"auto"` when the node-count policy
    /// decides per run.
    pub fn backend_policy(&self) -> String {
        self.index_backend()
            .map_or_else(|| "auto".to_string(), |b| b.name().to_string())
    }

    // ------------------------------------------------------------------
    // Registration (the "System designer" and "Workflow system" arrows of
    // Figure 8).
    // ------------------------------------------------------------------

    /// Registers a workflow specification. Names must be unique.
    pub fn register_spec(&mut self, spec: WorkflowSpec) -> Result<SpecId> {
        if self.spec_by_name.contains_key(spec.name()) {
            return Err(WarehouseError::DuplicateSpecName(spec.name().to_string()));
        }
        let id = SpecId(self.next_spec);
        self.next_spec += 1;
        self.spec_by_name.insert(spec.name().to_string(), id);
        self.specs
            .insert(id, SpecRow { spec })
            .map_err(|_| WarehouseError::DuplicateSpecName(format!("{id}")))?;
        Ok(id)
    }

    /// Registers a user view of a registered specification. The view must
    /// actually partition this spec's modules — a matching `spec_name`
    /// alone (e.g. a view built against a stale spec of the same name) is
    /// not enough.
    pub fn register_view(&mut self, spec_id: SpecId, view: UserView) -> Result<ViewId> {
        let spec = self.spec(spec_id)?;
        if spec.name() != view.spec_name() {
            return Err(WarehouseError::SpecMismatch {
                expected: spec.name().to_string(),
                got: view.spec_name().to_string(),
            });
        }
        view.validate(spec).map_err(WarehouseError::Model)?;
        let id = ViewId(self.next_view);
        self.next_view += 1;
        self.views
            .insert(
                id,
                ViewRow {
                    spec: spec_id,
                    view,
                },
            )
            .expect("fresh view id");
        self.views_by_spec.entry(spec_id).or_default().push(id);
        Ok(id)
    }

    /// Loads a validated run of a registered specification.
    pub fn load_run(&mut self, spec_id: SpecId, run: WorkflowRun) -> Result<RunId> {
        let spec = self.spec(spec_id)?;
        if spec.name() != run.spec_name() {
            return Err(WarehouseError::SpecMismatch {
                expected: spec.name().to_string(),
                got: run.spec_name().to_string(),
            });
        }
        // Builders and validators reject cycles, but a hand-deserialized
        // run (corrupted snapshot, crafted bytes) can smuggle one past
        // them; rejecting here means a bad run can never reach the index
        // builder — and a bad durable log can never crash `open()`.
        if !zoom_graph::algo::topo::is_acyclic(run.graph()) {
            return Err(WarehouseError::Model(ModelError::RunHasCycle));
        }
        let id = RunId(self.next_run);
        self.next_run += 1;
        self.runs
            .insert(id, RunRow { spec: spec_id, run })
            .expect("fresh run id");
        self.runs_by_spec.entry(spec_id).or_default().push(id);
        Ok(id)
    }

    /// Reconstructs a run from a workflow-system event log and loads it —
    /// the ingestion path real deployments use (Figure 8's "Logs" arrow).
    pub fn load_log(&mut self, spec_id: SpecId, log: &EventLog) -> Result<RunId> {
        let spec = self.spec(spec_id)?;
        let run = log.to_run(spec)?;
        self.load_run(spec_id, run)
    }

    // ------------------------------------------------------------------
    // Streaming ingestion (ROADMAP item 3: provenance queryable mid-run)
    // ------------------------------------------------------------------

    /// Opens a streaming ingestion of `spec_id`: allocates a run whose
    /// committed prefix grows with every applied event and is immediately
    /// queryable through every view. Events arrive via
    /// [`Warehouse::stream_push`]; [`Warehouse::stream_seal`] completes
    /// the run.
    pub fn begin_stream(&mut self, spec_id: SpecId) -> Result<RunId> {
        let spec = self.spec(spec_id)?;
        let run = WorkflowRun::empty_prefix(spec);
        let id = RunId(self.next_run);
        self.next_run += 1;
        self.runs
            .insert(id, RunRow { spec: spec_id, run })
            .expect("fresh run id");
        self.runs_by_spec.entry(spec_id).or_default().push(id);
        self.streams.insert(id, RunIngestor::new());
        self.metrics.add(Counter::StreamsStarted, 1);
        Ok(id)
    }

    /// Read-only validation of one stream event: a typed rejection, or a
    /// [`StreamCommit`] that [`Warehouse::stream_apply`] is then guaranteed
    /// to apply without failing. The durable wrapper journals the event
    /// between the two calls, so nothing unjournaled ever mutates state.
    pub fn stream_accept(&self, run_id: RunId, event: &LogEvent) -> Result<StreamCommit> {
        let ing = self.live_stream(run_id)?;
        let spec_id = self.run_spec(run_id)?;
        let spec = self.spec(spec_id)?;
        let res = ing.accept(spec, event);
        if res.is_err() {
            self.metrics.add(Counter::StreamEventsRejected, 1);
        }
        Ok(res?)
    }

    /// Applies a validated event: commits any newly completed steps into
    /// the prefix run and maintains every derived structure — view-run
    /// cache rows for the run are invalidated, the bitset closure is
    /// dropped (it has no incremental form), and a cached label index is
    /// *extended in place* via `LabelIndex::update_to` (commit order makes
    /// every append a pure extension).
    pub fn stream_apply(&mut self, run_id: RunId, commit: StreamCommit) -> PushOutcome {
        let row = self.runs.get_mut(&run_id).expect("stream run exists");
        let spec = &self
            .specs
            .get(&row.spec)
            .expect("stream run's spec exists")
            .spec;
        let ing = self.streams.get_mut(&run_id).expect("stream is live");
        let outcome = ing.apply(spec, &mut row.run, commit);
        self.metrics.add(Counter::StreamEvents, 1);
        if let PushOutcome::Committed(steps) = &outcome {
            self.metrics
                .add(Counter::StepsCommitted, steps.len() as u64);
            self.refresh_run_indexes(run_id);
        }
        outcome
    }

    /// Validates + applies one stream event (the in-memory push path; the
    /// durable wrapper journals between the two halves).
    pub fn stream_push(&mut self, run_id: RunId, event: &LogEvent) -> Result<PushOutcome> {
        let commit = self.stream_accept(run_id, event)?;
        Ok(self.stream_apply(run_id, commit))
    }

    /// Read-only seal validation: every step committed and at least one
    /// final output recorded.
    pub fn stream_seal_check(&self, run_id: RunId) -> Result<SealCommit> {
        let ing = self.live_stream(run_id)?;
        let res = ing.seal_check();
        if res.is_err() {
            self.metrics.add(Counter::StreamEventsRejected, 1);
        }
        Ok(res?)
    }

    /// Applies a validated seal: connects final outputs to the run's
    /// output node (the prefix becomes a complete run) and retires the
    /// ingestor — the run now behaves exactly like a batch-loaded one.
    pub fn stream_seal_apply(&mut self, run_id: RunId, commit: SealCommit) {
        let row = self.runs.get_mut(&run_id).expect("stream run exists");
        let spec = &self
            .specs
            .get(&row.spec)
            .expect("stream run's spec exists")
            .spec;
        let mut ing = self.streams.remove(&run_id).expect("stream is live");
        ing.apply_seal(spec, &mut row.run, commit);
        self.metrics.add(Counter::StreamsSealed, 1);
        self.refresh_run_indexes(run_id);
    }

    /// Validates + applies a seal (in-memory path).
    pub fn stream_seal(&mut self, run_id: RunId) -> Result<()> {
        let commit = self.stream_seal_check(run_id)?;
        self.stream_seal_apply(run_id, commit);
        Ok(())
    }

    /// Number of live (unsealed) streams.
    pub fn active_streams(&self) -> usize {
        self.streams.len()
    }

    /// Whether `run` is a live (unsealed) stream.
    pub fn is_streaming(&self, run_id: RunId) -> bool {
        self.streams.contains_key(&run_id)
    }

    /// The ingestor of a live stream, or the typed error.
    fn live_stream(&self, run_id: RunId) -> Result<&RunIngestor> {
        if !self.runs.contains(&run_id) {
            return Err(WarehouseError::RunNotFound(run_id));
        }
        self.streams
            .get(&run_id)
            .ok_or(WarehouseError::Stream(StreamError::SealedStream))
    }

    /// Re-aligns the derived per-run structures after the run graph grew:
    /// materialized view-runs and the bitset closure are stale (dropped,
    /// rebuilt on next use); a resident label index is extended in place —
    /// the whole point of commit ordering — falling back to a rebuild only
    /// when fragmentation demands it.
    fn refresh_run_indexes(&mut self, run_id: RunId) {
        self.cache.invalidate_run(run_id);
        self.index.invalidate_run(run_id);
        let row = self.runs.get(&run_id).expect("stream run exists");
        let updated = self.labels.update_entry(run_id, |idx| {
            idx.update_to(row.run.graph(), &mut Deadline::unlimited())
        });
        match updated {
            Ok(Some(crate::labels::UpdateOutcome::Appended(_))) => {
                self.metrics.add(Counter::LabelAppends, 1);
            }
            Ok(Some(crate::labels::UpdateOutcome::Rebuilt)) => {
                self.metrics.add(Counter::LabelRebuilds, 1);
            }
            Ok(Some(crate::labels::UpdateOutcome::Fresh) | None) => {}
            // An update failure (unbounded deadline ⇒ only a cycle could
            // land here, and committed prefixes are acyclic by
            // construction) evicted the entry; queries rebuild lazily.
            Err(_) => {}
        }
    }

    // ------------------------------------------------------------------
    // Lookups
    // ------------------------------------------------------------------

    /// The specification under `id`.
    pub fn spec(&self, id: SpecId) -> Result<&WorkflowSpec> {
        self.specs
            .get(&id)
            .map(|r| &r.spec)
            .ok_or(WarehouseError::SpecNotFound(id))
    }

    /// Looks a specification up by name.
    pub fn spec_by_name(&self, name: &str) -> Option<SpecId> {
        self.spec_by_name.get(name).copied()
    }

    /// The view under `id` (and the spec it belongs to).
    pub fn view(&self, id: ViewId) -> Result<&UserView> {
        self.views
            .get(&id)
            .map(|r| &r.view)
            .ok_or(WarehouseError::ViewNotFound(id))
    }

    /// The spec a view belongs to.
    pub fn view_spec(&self, id: ViewId) -> Result<SpecId> {
        self.views
            .get(&id)
            .map(|r| r.spec)
            .ok_or(WarehouseError::ViewNotFound(id))
    }

    /// The run under `id`.
    pub fn run(&self, id: RunId) -> Result<&WorkflowRun> {
        self.runs
            .get(&id)
            .map(|r| &r.run)
            .ok_or(WarehouseError::RunNotFound(id))
    }

    /// The spec a run belongs to.
    pub fn run_spec(&self, id: RunId) -> Result<SpecId> {
        self.runs
            .get(&id)
            .map(|r| r.spec)
            .ok_or(WarehouseError::RunNotFound(id))
    }

    /// Every registered specification id, in registration order (spec ids
    /// are allocated densely).
    pub fn spec_ids(&self) -> Vec<SpecId> {
        (0..self.next_spec).map(SpecId).collect()
    }

    /// The registered view ids of `spec`, in registration order.
    pub fn views_of_spec(&self, spec: SpecId) -> &[ViewId] {
        self.views_by_spec.get(&spec).map_or(&[], Vec::as_slice)
    }

    /// Runs loaded for a spec.
    pub fn runs_of_spec(&self, spec: SpecId) -> &[RunId] {
        self.runs_by_spec.get(&spec).map_or(&[], Vec::as_slice)
    }

    /// Finds a registered view of `spec` by view name.
    pub fn find_view(&self, spec: SpecId, name: &str) -> Option<ViewId> {
        self.views_of_spec(spec)
            .iter()
            .copied()
            .find(|&v| self.views.get(&v).is_some_and(|r| r.view.name() == name))
    }

    // ------------------------------------------------------------------
    // Querying (the "User" arrows of Figure 8)
    // ------------------------------------------------------------------

    /// The run and the view of a `(run, view)` pair, which must belong to
    /// one specification.
    fn pair(&self, run_id: RunId, view_id: ViewId) -> Result<(&WorkflowRun, &UserView)> {
        let run_row = self
            .runs
            .get(&run_id)
            .ok_or(WarehouseError::RunNotFound(run_id))?;
        let view_row = self
            .views
            .get(&view_id)
            .ok_or(WarehouseError::ViewNotFound(view_id))?;
        if run_row.spec != view_row.spec {
            return Err(WarehouseError::SpecMismatch {
                expected: format!("{}", run_row.spec),
                got: format!("{}", view_row.spec),
            });
        }
        Ok((&run_row.run, &view_row.view))
    }

    /// The materialized view-run for `(run, view)` (cached).
    pub fn view_run(&self, run_id: RunId, view_id: ViewId) -> Result<Arc<ViewRun>> {
        let (run, view) = self.pair(run_id, view_id)?;
        Ok(self
            .cache
            .get_or_build((run_id, view_id), || ViewRun::new(run, view)))
    }

    /// Materializes the view-run *without* consulting or filling the cache —
    /// the "rebuild every time" baseline strategy for the ablation bench.
    pub fn view_run_uncached(&self, run_id: RunId, view_id: ViewId) -> Result<BoundViewRun<'_>> {
        let (run, view) = self.pair(run_id, view_id)?;
        Ok(BoundViewRun {
            run,
            view_run: ViewRun::new(run, view),
        })
    }

    /// The base-closure provenance index for `run` (cached, view-independent;
    /// built on first use, shared by every view of the run).
    pub fn provenance_index(&self, run_id: RunId) -> Result<Arc<ProvenanceIndex>> {
        let build = ProvenanceIndex::build_deadline;
        self.index_of(&self.index, run_id, &mut Deadline::unlimited(), build)
    }

    /// The interval-label reachability index for `run` (cached,
    /// view-independent, built on first use — the labels-backend analog
    /// of [`Warehouse::provenance_index`]).
    pub fn label_index(&self, run_id: RunId) -> Result<Arc<LabelIndex>> {
        let build = LabelIndex::build_deadline;
        self.index_of(&self.labels, run_id, &mut Deadline::unlimited(), build)
    }

    /// `run`'s index in `cache`, built on a miss. A cold build polls
    /// `deadline` per node, so one adversarially large run cannot pin the
    /// querying thread unbounded while its index materializes; an
    /// interrupted build caches nothing.
    fn index_of<T>(
        &self,
        cache: &RunKeyedCache<T>,
        run_id: RunId,
        deadline: &mut Deadline,
        build: fn(&WorkflowRun, &mut Deadline) -> std::result::Result<T, IndexBuildError>,
    ) -> Result<Arc<T>> {
        let run = self.run(run_id)?;
        cache
            .get_or_build(run_id, || build(run, deadline))
            .map_err(|e| match e {
                IndexBuildError::Cycle => WarehouseError::Model(ModelError::RunHasCycle),
                IndexBuildError::Interrupted(i) => self.interrupt_error(i),
            })
    }

    /// Maps a traversal interruption to its typed error, bumping the
    /// matching counter.
    fn interrupt_error(&self, i: Interrupt) -> WarehouseError {
        match i {
            Interrupt::DeadlineExceeded => {
                self.metrics.add(Counter::DeadlineExceeded, 1);
                WarehouseError::DeadlineExceeded
            }
            Interrupt::Cancelled => {
                self.metrics.add(Counter::Cancelled, 1);
                WarehouseError::Cancelled
            }
        }
    }

    /// Acquires an admission slot (recording the decision), or the typed
    /// shed error. Holding the returned permit is what bounds in-flight
    /// facade queries.
    fn admit(&self) -> Result<crate::resilience::AdmissionPermit> {
        match self.admission.admit() {
            Some(permit) => {
                self.metrics.add(Counter::Admitted, 1);
                Ok(permit)
            }
            None => {
                self.metrics.add(Counter::Shed, 1);
                Err(WarehouseError::Overloaded)
            }
        }
    }

    /// `(view class, view name)` for query metrics; unknown views classify
    /// as custom (the query will error out anyway).
    fn query_context(&self, view_id: ViewId) -> (ViewClass, &str) {
        match self.views.get(&view_id) {
            Some(r) => (ViewClass::of_view_name(r.view.name()), r.view.name()),
            None => (ViewClass::Custom, ""),
        }
    }

    /// Answers a read op by `cx` through a shared borrow: the one read
    /// path below every facade. A deep, immediate, dependents or
    /// data-between query builds its deadline ([`Warehouse::deadline`]),
    /// is admitted, and is timed into the query metrics, its slow-log
    /// entry naming `cx.tenant`; a batch takes one admission slot for all
    /// of its queries ([`Warehouse::deep_provenance_many`]); final outputs
    /// and visible data are plain table reads. Write ops need
    /// [`Store::apply`](crate::op::Store::apply) and answer
    /// [`WarehouseError::ReadOnly`] here.
    pub fn read(&self, cx: &Cx, op: &Op) -> Result<Answer> {
        Ok(match *op {
            Op::DeepProvenance(r, v, d) => {
                Answer::Provenance(self.query(cx, QueryKind::Deep, (r, v, Some(d)), |dl| {
                    self.reach(r, v, d, dl, query::deep_provenance)
                })?)
            }
            Op::ImmediateProvenance(r, v, d) => {
                Answer::Immediate(self.query(cx, QueryKind::Immediate, (r, v, Some(d)), |_| {
                    self.immediate(r, v, d)
                })?)
            }
            Op::DependentsOf(r, v, d) => Answer::Data(self.query(
                cx,
                QueryKind::Dependents,
                (r, v, Some(d)),
                |dl| self.reach(r, v, d, dl, query::dependents_of),
            )?),
            Op::DataBetween(r, v, from, to) => {
                Answer::Data(self.query(cx, QueryKind::Between, (r, v, None), |_| {
                    self.between(r, v, from, to)
                })?)
            }
            Op::FinalOutputs(r) => Answer::Data(self.run(r)?.final_outputs()),
            Op::VisibleData(r, v) => Answer::Data(self.view_run(r, v)?.visible_data(self.run(r)?)),
            Op::Batch(ref queries) => Answer::Batch(self.deep_provenance_many(cx, queries)),
            Op::RegisterSpec(_)
            | Op::RegisterView(..)
            | Op::LoadLog(..)
            | Op::BeginStream(_)
            | Op::PushEvent(..)
            | Op::SealStream(_)
            | Op::BuildView(..)
            | Op::AdminView(_) => return Err(WarehouseError::ReadOnly(op.name())),
        })
    }

    /// One query by `cx` against `target`: its deadline is built (which
    /// starts its budget), then it is admitted and timed.
    fn query<T>(
        &self,
        cx: &Cx,
        kind: QueryKind,
        target: (RunId, ViewId, Option<DataId>),
        answer: impl FnOnce(&mut Deadline) -> Result<T>,
    ) -> Result<T> {
        let mut deadline = self.deadline(cx);
        let _permit = self.admit()?;
        self.timed(cx, kind, target, &mut deadline, answer)
    }

    /// Runs `answer` under `deadline` and records it, without admission —
    /// the batch path runs many of these under one batch-level permit.
    /// Errors bump the error counter; successes land in the per-(kind,
    /// view class) histogram and, past the threshold, the slow-query log
    /// under `cx`'s tenant.
    fn timed<T>(
        &self,
        cx: &Cx,
        kind: QueryKind,
        (run, view, data): (RunId, ViewId, Option<DataId>),
        deadline: &mut Deadline,
        answer: impl FnOnce(&mut Deadline) -> Result<T>,
    ) -> Result<T> {
        let started = Instant::now();
        let res = answer(deadline);
        if res.is_err() {
            self.metrics.add(Counter::QueryErrors, 1);
        } else {
            let (class, name) = self.query_context(view);
            self.metrics.record_query(
                kind,
                class,
                run,
                view,
                name,
                data.map(|d| d.0),
                started.elapsed().as_nanos() as u64,
                cx.tenant,
            );
        }
        res
    }

    /// A closure query — deep provenance or dependents — of `data` in
    /// `run` through `view`: `kernel` over the run's [`Reach`], which
    /// [`Warehouse::backend_for`] picks (a cold index builds under
    /// `deadline`).
    fn reach<T>(
        &self,
        run_id: RunId,
        view_id: ViewId,
        data: DataId,
        deadline: &mut Deadline,
        kernel: query::Kernel<T>,
    ) -> Result<T> {
        let vr = self.view_run(run_id, view_id)?;
        let run = self.run(run_id)?;
        let (labels, index);
        let reach = match self.backend_for(run.graph().node_count()) {
            IndexBackend::Labels => {
                let build = LabelIndex::build_deadline;
                labels = self.index_of(&self.labels, run_id, deadline, build)?;
                Reach::Labels(&labels)
            }
            IndexBackend::Bitset => {
                let build = ProvenanceIndex::build_deadline;
                index = self.index_of(&self.index, run_id, deadline, build)?;
                Reach::Bitset(&index)
            }
            IndexBackend::Bfs => Reach::Bfs,
        };
        match kernel(run, &vr, reach, data, deadline) {
            Ok(Some(r)) => Ok(r),
            Ok(None) => Err(self.invisible_or_missing(run_id, view_id, data)),
            Err(QueryFailure::Corrupt(e)) => Err(WarehouseError::CorruptViewRun(e)),
            Err(QueryFailure::Interrupted(i)) => Err(self.interrupt_error(i)),
        }
    }

    /// Deep provenance of `data` in `run` as seen through `view`, as the
    /// embedder. Answered from the per-run base-closure index: the first
    /// query on a run builds the index, every later query — at *any* view
    /// level — projects a precomputed closure row.
    pub fn deep_provenance(
        &self,
        run_id: RunId,
        view_id: ViewId,
        data: DataId,
    ) -> Result<ProvenanceResult> {
        typed(self.read(&Cx::ADMIN, &Op::DeepProvenance(run_id, view_id, data)))
    }

    /// Deep provenance of many `(run, view, data)` triples at once, by
    /// `cx`.
    ///
    /// Independent queries fan out across a capped worker pool pulling
    /// from an atomic-index work queue — no fixed chunking, so one
    /// pathological query cannot strand a chunk of light ones behind it
    /// (work-stealing by construction). Results come back in input order.
    /// The view-run and index caches are concurrent, so queries sharing a
    /// run or a view pair deduplicate work naturally — one thread builds,
    /// the rest hit. Every worker records its queries under `cx`'s tenant.
    ///
    /// The whole batch consumes **one** admission slot: sub-queries never
    /// re-enter admission (a batch nesting into the queue it fills would
    /// deadlock). When shed, every slot reports
    /// [`WarehouseError::Overloaded`].
    pub fn deep_provenance_many(
        &self,
        cx: &Cx,
        queries: &[(RunId, ViewId, DataId)],
    ) -> Vec<Result<ProvenanceResult>> {
        if queries.is_empty() {
            return Vec::new();
        }
        let base_deadline = self.deadline(cx);
        let _permit = match self.admit() {
            Ok(p) => p,
            Err(_) => {
                return queries
                    .iter()
                    .map(|_| Err(WarehouseError::Overloaded))
                    .collect();
            }
        };
        self.metrics.record_batch(queries.len());
        let cap = match self.max_batch_workers.load(Ordering::Relaxed) {
            0 => usize::MAX,
            n => n,
        };
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(queries.len())
            .min(cap);
        let deep = |(r, v, d): (RunId, ViewId, DataId), deadline: &mut Deadline| {
            self.timed(cx, QueryKind::Deep, (r, v, Some(d)), deadline, |dl| {
                self.reach(r, v, d, dl, query::deep_provenance)
            })
        };
        if workers <= 1 {
            let mut deadline = base_deadline;
            return queries.iter().map(|&q| deep(q, &mut deadline)).collect();
        }
        // Work-stealing fan-out: workers pull the next unclaimed input
        // index; a heavy query occupies one worker while the rest drain
        // the remainder. Each worker tags results with their input index
        // so the merge restores input order exactly.
        let next = AtomicUsize::new(0);
        crossbeam::thread::scope(|s| {
            let (next, base_deadline, deep) = (&next, &base_deadline, &deep);
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(move |_| {
                        let mut deadline = base_deadline.clone();
                        let mut out: Vec<(usize, Result<ProvenanceResult>)> = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(&q) = queries.get(i) else {
                                break;
                            };
                            out.push((i, deep(q, &mut deadline)));
                        }
                        out
                    })
                })
                .collect();
            let mut merged: Vec<Option<Result<ProvenanceResult>>> =
                (0..queries.len()).map(|_| None).collect();
            for h in handles {
                // A worker that panicked mid-query loses its claimed
                // slots; they are reported as failed below instead of
                // re-panicking here, which would poison every concurrent
                // caller sharing this warehouse behind a lock.
                if let Ok(results) = h.join() {
                    for (i, res) in results {
                        merged[i] = Some(res);
                    }
                }
            }
            merged
                .into_iter()
                .map(|slot| slot.unwrap_or(Err(WarehouseError::WorkerPanicked)))
                .collect()
        })
        .unwrap_or_else(|_| {
            queries
                .iter()
                .map(|_| Err(WarehouseError::WorkerPanicked))
                .collect()
        })
    }

    /// Immediate provenance of `data` in `run` as seen through `view`, with
    /// user-input metadata resolved from the run, as the embedder.
    pub fn immediate_provenance(
        &self,
        run_id: RunId,
        view_id: ViewId,
        data: DataId,
    ) -> Result<ImmediateAnswer> {
        typed(self.read(&Cx::ADMIN, &Op::ImmediateProvenance(run_id, view_id, data)))
    }

    fn immediate(&self, run_id: RunId, view_id: ViewId, data: DataId) -> Result<ImmediateAnswer> {
        let vr = self.view_run(run_id, view_id)?;
        let run = self.run(run_id)?;
        match query::immediate_provenance(run, &vr, data) {
            Ok(Some(ImmediateProvenance::Produced { exec, inputs })) => {
                // Gather the member steps' parameters from the run.
                let members = vr.exec_by_id(exec).map_or(&[][..], |e| e.members);
                let mut params: Vec<(zoom_model::StepId, String, String)> = Vec::new();
                for &m in members {
                    for (k, v) in run.params_of(m) {
                        params.push((m, k.clone(), v.clone()));
                    }
                }
                params.sort();
                Ok(ImmediateAnswer::Produced {
                    exec,
                    inputs,
                    params,
                })
            }
            Ok(Some(ImmediateProvenance::UserInput)) => Ok(ImmediateAnswer::UserInput {
                meta: run.user_input_meta(data).cloned(),
            }),
            Ok(None) => Err(self.invisible_or_missing(run_id, view_id, data)),
            Err(e) => Err(WarehouseError::CorruptViewRun(e)),
        }
    }

    /// The canned forward query, as the embedder: data objects that have
    /// `data` in their provenance, at this view level.
    pub fn dependents_of(
        &self,
        run_id: RunId,
        view_id: ViewId,
        data: DataId,
    ) -> Result<Vec<DataId>> {
        typed(self.read(&Cx::ADMIN, &Op::DependentsOf(run_id, view_id, data)))
    }

    /// The data set passed between two executions at this view level — the
    /// prototype's edge-click interaction. `None` endpoints denote the
    /// run's input/output nodes.
    fn between(
        &self,
        run_id: RunId,
        view_id: ViewId,
        from: Option<zoom_model::StepId>,
        to: Option<zoom_model::StepId>,
    ) -> Result<Vec<DataId>> {
        let vr = self.view_run(run_id, view_id)?;
        match query::data_between(self.run(run_id)?, &vr, from, to) {
            Some(v) => Ok(v),
            None => {
                // `data_between` only fails when a named endpoint has no
                // execution at this view level; report which one.
                let missing = [from, to]
                    .into_iter()
                    .flatten()
                    .find(|&s| vr.exec_index_by_id(s).is_none())
                    .expect("an unknown execution endpoint exists");
                Err(WarehouseError::ExecNotFound(missing))
            }
        }
    }

    fn invisible_or_missing(&self, run_id: RunId, view_id: ViewId, data: DataId) -> WarehouseError {
        let exists = self
            .runs
            .get(&run_id)
            .is_some_and(|r| r.run.producer_of(data).is_some());
        if exists {
            let view = self
                .views
                .get(&view_id)
                .map_or_else(|| format!("{view_id}"), |r| r.view.name().to_string());
            WarehouseError::DataNotVisible { data, view }
        } else {
            WarehouseError::DataNotFound(data)
        }
    }

    // ------------------------------------------------------------------
    // Maintenance
    // ------------------------------------------------------------------

    /// Aggregate sizes.
    pub fn stats(&self) -> WarehouseStats {
        WarehouseStats {
            specs: self.specs.len(),
            views: self.views.len(),
            runs: self.runs.len(),
            steps: self.runs.scan().map(|r| r.run.step_count()).sum(),
            data_objects: self.runs.scan().map(|r| r.run.data_count()).sum(),
            cached_view_runs: self.cache.len(),
            cached_indexes: self.index.len(),
            index_hits: self.index.counters().0,
            index_misses: self.index.counters().1,
            index_build_nanos: self.index.build_nanos(),
            view_run_hits: self.cache.counters().0,
            view_run_misses: self.cache.counters().1,
            view_run_evictions: self.cache.metrics().evictions,
            // Durability counters belong to the durable wrapper
            // (`crate::durable::DurableWarehouse::stats` fills them in).
            journal_records: 0,
            journal_bytes: 0,
            compactions: 0,
            epoch: 0,
            degraded: false,
        }
    }

    /// Drops every materialized view-run and every provenance index
    /// (bitset and labels alike).
    pub fn clear_cache(&self) {
        self.cache.clear();
        self.index.clear();
        self.labels.clear();
    }

    /// The metrics registry shared by every warehouse hot path.
    pub fn metrics_registry(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// A full metrics snapshot (in-memory backing: journal counters zero).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics_with(self.stats())
    }

    /// A full metrics snapshot folded over the given table stats — the
    /// durable wrapper passes its journal-aware [`WarehouseStats`] here.
    pub fn metrics_with(&self, stats: WarehouseStats) -> MetricsSnapshot {
        self.metrics.snapshot_into(
            stats,
            self.cache.metrics(),
            self.index.metrics(),
            self.index_metrics(),
        )
    }

    /// Gauges over the resident reachability indexes: backend policy,
    /// bytes held by each cache, and the label-size distribution.
    pub fn index_metrics(&self) -> IndexMetrics {
        let bitset_bytes = self
            .index
            .fold_entries(0u64, |acc, i| acc + i.memory_bytes() as u64);
        let (label_bytes, label_intervals, label_count_hist) = self.labels.fold_entries(
            (0u64, 0u64, [0u64; 16]),
            |(bytes, intervals, mut hist), l| {
                for (i, b) in l.label_count_histogram().iter().enumerate() {
                    hist[i] += b;
                }
                (
                    bytes + l.memory_bytes() as u64,
                    intervals + l.interval_count(),
                    hist,
                )
            },
        );
        IndexMetrics {
            backend: self.backend_policy(),
            bitset_bytes,
            label_bytes,
            label_intervals,
            label_count_hist,
            label_cache: self.labels.metrics(),
        }
    }

    /// Caps the view-run cache at `capacity` entries (0 = unbounded).
    pub fn set_view_run_cache_capacity(&self, capacity: usize) {
        self.cache.set_capacity(capacity);
    }

    /// The view-run cache's entry cap (0 = unbounded).
    pub fn view_run_cache_capacity(&self) -> usize {
        self.cache.capacity()
    }

    /// `(hits, misses)` of the view-run cache.
    pub fn cache_counters(&self) -> (u64, u64) {
        self.cache.counters()
    }

    /// `(hits, misses)` of the provenance-index cache.
    pub fn index_counters(&self) -> (u64, u64) {
        self.index.counters()
    }

    /// `(hits, misses)` of the label-index cache.
    pub fn label_index_counters(&self) -> (u64, u64) {
        self.labels.counters()
    }

    // ------------------------------------------------------------------
    // Rollback (durability support)
    //
    // When a journal append fails after the in-memory mutation succeeded,
    // the durable stores undo the mutation so memory never claims state
    // the disk does not have. Only the most recent mutation of each kind
    // can be rolled back (ids are assigned sequentially and the failed
    // mutation is by construction the newest).
    // ------------------------------------------------------------------

    /// Undoes the most recent [`Warehouse::register_spec`].
    pub(crate) fn rollback_spec(&mut self, id: SpecId) {
        if let Some(row) = self.specs.remove_last(&id) {
            self.spec_by_name.remove(row.spec.name());
            self.next_spec = id.0;
        }
    }

    /// Undoes the most recent [`Warehouse::register_view`].
    pub(crate) fn rollback_view(&mut self, id: ViewId) {
        if let Some(row) = self.views.remove_last(&id) {
            if let Some(v) = self.views_by_spec.get_mut(&row.spec) {
                v.retain(|&x| x != id);
            }
            self.next_view = id.0;
        }
    }

    /// Undoes the most recent [`Warehouse::load_run`], evicting any cache
    /// rows keyed by the now-dead run id (which the next load will reuse).
    pub(crate) fn rollback_run(&mut self, id: RunId) {
        if let Some(row) = self.runs.remove_last(&id) {
            if let Some(v) = self.runs_by_spec.get_mut(&row.spec) {
                v.retain(|&x| x != id);
            }
            self.next_run = id.0;
            self.cache.invalidate_run(id);
            self.index.invalidate_run(id);
            self.labels.invalidate_run(id);
        }
    }

    /// Undoes the most recent [`Warehouse::begin_stream`].
    pub(crate) fn rollback_stream(&mut self, id: RunId) {
        self.streams.remove(&id);
        self.rollback_run(id);
    }

    /// Iterates over all rows (persistence support).
    pub(crate) fn export_rows(&self) -> ExportedRows {
        let mut specs: Vec<(SpecId, SpecRow)> =
            self.specs.entries().map(|(k, v)| (*k, v.clone())).collect();
        specs.sort_by_key(|(k, _)| *k);
        let mut views: Vec<(ViewId, ViewRow)> =
            self.views.entries().map(|(k, v)| (*k, v.clone())).collect();
        views.sort_by_key(|(k, _)| *k);
        let mut runs: Vec<(RunId, RunRow)> =
            self.runs.entries().map(|(k, v)| (*k, v.clone())).collect();
        runs.sort_by_key(|(k, _)| *k);
        (specs, views, runs)
    }

    /// Rebuilds a warehouse from exported rows (persistence support).
    pub(crate) fn from_rows(
        specs: Vec<(SpecId, SpecRow)>,
        views: Vec<(ViewId, ViewRow)>,
        runs: Vec<(RunId, RunRow)>,
    ) -> Self {
        let mut w = Warehouse::new();
        for (id, row) in specs {
            w.next_spec = w.next_spec.max(id.0 + 1);
            w.spec_by_name.insert(row.spec.name().to_string(), id);
            w.specs.insert(id, row).expect("unique spec ids");
        }
        for (id, row) in views {
            w.next_view = w.next_view.max(id.0 + 1);
            w.views_by_spec.entry(row.spec).or_default().push(id);
            w.views.insert(id, row).expect("unique view ids");
        }
        for (id, row) in runs {
            w.next_run = w.next_run.max(id.0 + 1);
            w.runs_by_spec.entry(row.spec).or_default().push(id);
            w.runs.insert(id, row).expect("unique run ids");
        }
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zoom_model::{RunBuilder, SpecBuilder, StepId};

    fn spec() -> WorkflowSpec {
        let mut b = SpecBuilder::new("wh-spec");
        b.analysis("A");
        b.analysis("B");
        b.from_input("A").edge("A", "B").to_output("B");
        b.build().unwrap()
    }

    fn run(s: &WorkflowSpec) -> WorkflowRun {
        let (a, bb) = (s.module("A").unwrap(), s.module("B").unwrap());
        let mut rb = RunBuilder::new(s);
        rb.user("alice");
        let s1 = rb.step(a);
        let s2 = rb.step(bb);
        rb.input_edge(s1, [1])
            .data_edge(s1, s2, [2])
            .output_edge(s2, [3]);
        rb.build().unwrap()
    }

    #[test]
    fn end_to_end_register_load_query() {
        let mut w = Warehouse::new();
        let s = spec();
        let sid = w.register_spec(s.clone()).unwrap();
        let admin = w.register_view(sid, UserView::admin(&s)).unwrap();
        let bb = w.register_view(sid, UserView::black_box(&s)).unwrap();
        let rid = w.load_run(sid, run(&s)).unwrap();

        let res = w.deep_provenance(rid, admin, DataId(3)).unwrap();
        assert_eq!(res.tuples(), 3);
        let res = w.deep_provenance(rid, bb, DataId(3)).unwrap();
        assert_eq!(res.tuples(), 2); // d1 and d3; d2 hidden

        // d2 is hidden under the black box.
        match w.deep_provenance(rid, bb, DataId(2)).unwrap_err() {
            WarehouseError::DataNotVisible { data, view } => {
                assert_eq!(data, DataId(2));
                assert_eq!(view, "UBlackBox");
            }
            e => panic!("unexpected {e}"),
        }
        // d99 does not exist at all.
        assert!(matches!(
            w.deep_provenance(rid, bb, DataId(99)).unwrap_err(),
            WarehouseError::DataNotFound(DataId(99))
        ));

        let stats = w.stats();
        assert_eq!(stats.specs, 1);
        assert_eq!(stats.views, 2);
        assert_eq!(stats.runs, 1);
        assert_eq!(stats.steps, 2);
        assert_eq!(stats.data_objects, 3);
        assert_eq!(stats.cached_view_runs, 2);
    }

    #[test]
    fn backend_selector_dispatches_and_answers_agree() {
        let mut w = Warehouse::new();
        let s = spec();
        let sid = w.register_spec(s.clone()).unwrap();
        let admin = w.register_view(sid, UserView::admin(&s)).unwrap();
        let rid = w.load_run(sid, run(&s)).unwrap();

        // Automatic policy: a 4-node run graph sits far below the
        // threshold, so the bitset backend answers.
        assert_eq!(w.index_backend(), None);
        assert_eq!(w.backend_for(4), IndexBackend::Bitset);
        assert_eq!(w.backend_policy(), "auto");
        let baseline = w.deep_provenance(rid, admin, DataId(3)).unwrap();
        let dep_baseline = w.dependents_of(rid, admin, DataId(1)).unwrap();
        assert_eq!(w.index_counters().1, 1, "bitset index built once");
        assert_eq!(w.label_index_counters(), (0, 0), "labels untouched");

        // Dropping the threshold flips the same run onto labels.
        w.set_labels_threshold(1);
        assert_eq!(w.backend_for(4), IndexBackend::Labels);
        assert_eq!(w.deep_provenance(rid, admin, DataId(3)).unwrap(), baseline);
        assert_eq!(
            w.dependents_of(rid, admin, DataId(1)).unwrap(),
            dep_baseline
        );
        assert_eq!(w.label_index_counters().1, 1, "label index built once");

        // Forcing each backend overrides the policy; every answer agrees.
        for backend in [
            IndexBackend::Bfs,
            IndexBackend::Bitset,
            IndexBackend::Labels,
        ] {
            w.set_index_backend(Some(backend));
            assert_eq!(w.index_backend(), Some(backend));
            assert_eq!(w.backend_policy(), backend.name());
            assert_eq!(w.backend_for(1_000_000), backend);
            assert_eq!(w.deep_provenance(rid, admin, DataId(3)).unwrap(), baseline);
            assert_eq!(
                w.dependents_of(rid, admin, DataId(1)).unwrap(),
                dep_baseline
            );
        }
        w.set_index_backend(None);
        assert_eq!(w.index_backend(), None);

        // The gauges see both resident indexes.
        let ix = w.index_metrics();
        assert!(ix.bitset_bytes > 0);
        assert!(ix.label_bytes > 0);
        assert!(ix.label_intervals >= 8, "4 nodes × 2 directions ≥ 8");
        assert_eq!(ix.backend, "auto");
        assert_eq!(
            ix.label_count_hist.iter().sum::<u64>(),
            8,
            "one histogram entry per node per direction"
        );

        // clear_cache drops the label cache too.
        w.clear_cache();
        assert_eq!(w.index_metrics().label_bytes, 0);
        assert_eq!(w.index_metrics().bitset_bytes, 0);
    }

    #[test]
    fn immediate_answers_resolve_metadata() {
        let mut w = Warehouse::new();
        let s = spec();
        let sid = w.register_spec(s.clone()).unwrap();
        let admin = w.register_view(sid, UserView::admin(&s)).unwrap();
        let rid = w.load_run(sid, run(&s)).unwrap();
        match w.immediate_provenance(rid, admin, DataId(1)).unwrap() {
            ImmediateAnswer::UserInput { meta } => {
                assert_eq!(meta.unwrap().user, "alice");
            }
            o => panic!("unexpected {o:?}"),
        }
        match w.immediate_provenance(rid, admin, DataId(2)).unwrap() {
            ImmediateAnswer::Produced { exec, inputs, .. } => {
                assert_eq!(exec, StepId(1));
                assert_eq!(inputs, vec![DataId(1)]);
            }
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn log_ingestion_path() {
        let mut w = Warehouse::new();
        let s = spec();
        let sid = w.register_spec(s.clone()).unwrap();
        let log = EventLog::from_run(&run(&s), &s);
        let rid = w.load_log(sid, &log).unwrap();
        assert_eq!(w.run(rid).unwrap().step_count(), 2);
        assert_eq!(w.runs_of_spec(sid), &[rid]);
    }

    #[test]
    fn duplicate_and_mismatch_errors() {
        let mut w = Warehouse::new();
        let s = spec();
        let sid = w.register_spec(s.clone()).unwrap();
        assert!(matches!(
            w.register_spec(s.clone()).unwrap_err(),
            WarehouseError::DuplicateSpecName(_)
        ));

        // A view of some other spec cannot be registered under sid.
        let mut b2 = SpecBuilder::new("other");
        b2.analysis("X");
        b2.from_input("X").to_output("X");
        let other = b2.build().unwrap();
        assert!(matches!(
            w.register_view(sid, UserView::admin(&other)).unwrap_err(),
            WarehouseError::SpecMismatch { .. }
        ));
        assert!(matches!(
            w.load_run(sid, {
                let mut rb = RunBuilder::new(&other);
                let s1 = rb.step(other.module("X").unwrap());
                rb.input_edge(s1, [1]).output_edge(s1, [2]);
                rb.build().unwrap()
            })
            .unwrap_err(),
            WarehouseError::SpecMismatch { .. }
        ));

        // Cross-spec view/run pairing is rejected at query time.
        let oid = w.register_spec(other.clone()).unwrap();
        let oview = w.register_view(oid, UserView::admin(&other)).unwrap();
        let rid = w.load_run(sid, run(&s)).unwrap();
        assert!(matches!(
            w.view_run(rid, oview).unwrap_err(),
            WarehouseError::SpecMismatch { .. }
        ));
    }

    #[test]
    fn lookups() {
        let mut w = Warehouse::new();
        let s = spec();
        let sid = w.register_spec(s.clone()).unwrap();
        assert_eq!(w.spec_by_name("wh-spec"), Some(sid));
        assert_eq!(w.spec_by_name("nope"), None);
        let admin = w.register_view(sid, UserView::admin(&s)).unwrap();
        assert_eq!(w.find_view(sid, "UAdmin"), Some(admin));
        assert_eq!(w.find_view(sid, "UBio"), None);
        assert_eq!(w.view_spec(admin).unwrap(), sid);
        assert!(w.view(ViewId(99)).is_err());
        assert!(w.run(RunId(99)).is_err());
        assert!(w.spec(SpecId(99)).is_err());
    }

    #[test]
    fn view_switches_share_one_index() {
        let mut w = Warehouse::new();
        let s = spec();
        let sid = w.register_spec(s.clone()).unwrap();
        let admin = w.register_view(sid, UserView::admin(&s)).unwrap();
        let bb = w.register_view(sid, UserView::black_box(&s)).unwrap();
        let rid = w.load_run(sid, run(&s)).unwrap();

        // Repeatedly switching views over the same run must build the
        // base-closure index exactly once (the paper's ≈13 ms view-switch
        // property): every query after the first is an index hit.
        for _ in 0..3 {
            w.deep_provenance(rid, admin, DataId(3)).unwrap();
            w.deep_provenance(rid, bb, DataId(3)).unwrap();
        }
        let (hits, misses) = w.index_counters();
        assert_eq!(misses, 1, "index built more than once across view switches");
        assert_eq!(hits, 5);

        let stats = w.stats();
        assert_eq!(stats.cached_indexes, 1);
        assert_eq!(stats.index_misses, 1);
        assert_eq!(stats.index_hits, 5);
        assert!(stats.index_build_nanos > 0);

        // clear_cache drops the index too; the next query rebuilds it.
        w.clear_cache();
        assert_eq!(w.stats().cached_indexes, 0);
        w.deep_provenance(rid, admin, DataId(3)).unwrap();
        assert_eq!(w.index_counters(), (5, 2));
    }

    #[test]
    fn data_between_reports_the_unknown_execution() {
        let mut w = Warehouse::new();
        let s = spec();
        let sid = w.register_spec(s.clone()).unwrap();
        let admin = w.register_view(sid, UserView::admin(&s)).unwrap();
        let rid = w.load_run(sid, run(&s)).unwrap();

        let between = |from, to| {
            typed::<Vec<DataId>>(w.read(&Cx::ADMIN, &Op::DataBetween(rid, admin, from, to)))
        };
        // Known executions answer normally.
        assert_eq!(
            between(Some(StepId(1)), Some(StepId(2))).unwrap(),
            vec![DataId(2)]
        );
        // Unknown endpoint surfaces as ExecNotFound naming the culprit,
        // not the old bogus DataNotFound(d0).
        match between(Some(StepId(1)), Some(StepId(42))).unwrap_err() {
            WarehouseError::ExecNotFound(s) => assert_eq!(s, StepId(42)),
            e => panic!("unexpected {e}"),
        }
        match between(Some(StepId(99)), None).unwrap_err() {
            WarehouseError::ExecNotFound(s) => assert_eq!(s, StepId(99)),
            e => panic!("unexpected {e}"),
        }
    }

    #[test]
    fn stale_view_of_same_named_spec_rejected() {
        // A view whose spec_name matches but whose partition was built
        // against a different (e.g. outdated) spec must be rejected at
        // registration, not at query time.
        let mut w = Warehouse::new();
        let s = spec();
        let sid = w.register_spec(s.clone()).unwrap();
        let mut b = SpecBuilder::new("wh-spec");
        b.analysis("A");
        b.from_input("A").to_output("A");
        let stale = b.build().unwrap();
        assert!(matches!(
            w.register_view(sid, UserView::admin(&stale)).unwrap_err(),
            WarehouseError::Model(_)
        ));
    }

    #[test]
    fn rollbacks_undo_the_latest_mutation() {
        let mut w = Warehouse::new();
        let s = spec();
        let sid = w.register_spec(s.clone()).unwrap();
        let vid = w.register_view(sid, UserView::admin(&s)).unwrap();
        let rid = w.load_run(sid, run(&s)).unwrap();
        // Warm the caches so run rollback must evict them.
        w.deep_provenance(rid, vid, DataId(3)).unwrap();
        assert_eq!(w.stats().cached_indexes, 1);

        w.rollback_run(rid);
        assert_eq!(w.stats().runs, 0);
        assert!(w.runs_of_spec(sid).is_empty());
        assert_eq!(w.stats().cached_view_runs, 0);
        assert_eq!(w.stats().cached_indexes, 0);

        w.rollback_view(vid);
        assert_eq!(w.stats().views, 0);
        assert_eq!(w.find_view(sid, "UAdmin"), None);

        w.rollback_spec(sid);
        assert_eq!(w.stats().specs, 0);
        assert_eq!(w.spec_by_name("wh-spec"), None);

        // Ids are reusable: the replayed sequence assigns the same ids.
        assert_eq!(w.register_spec(s.clone()).unwrap(), sid);
        assert_eq!(w.register_view(sid, UserView::admin(&s)).unwrap(), vid);
        assert_eq!(w.load_run(sid, run(&s)).unwrap(), rid);
    }

    #[test]
    fn batch_matches_serial() {
        let mut w = Warehouse::new();
        let s = spec();
        let sid = w.register_spec(s.clone()).unwrap();
        let admin = w.register_view(sid, UserView::admin(&s)).unwrap();
        let bb = w.register_view(sid, UserView::black_box(&s)).unwrap();
        let rid = w.load_run(sid, run(&s)).unwrap();

        let queries = [
            (rid, admin, DataId(3)),
            (rid, bb, DataId(3)),
            (rid, admin, DataId(2)),
            (rid, bb, DataId(99)),         // missing
            (rid, bb, DataId(2)),          // hidden
            (RunId(42), admin, DataId(1)), // unknown run
        ];
        let batch = w.deep_provenance_many(&Cx::ADMIN, &queries);
        assert_eq!(batch.len(), queries.len());
        for (res, &(r, v, d)) in batch.iter().zip(&queries) {
            match (res, w.deep_provenance(r, v, d)) {
                (Ok(a), Ok(b)) => assert_eq!(*a, b),
                (Err(ea), Err(eb)) => assert_eq!(ea.to_string(), eb.to_string()),
                (a, b) => panic!("batch {a:?} vs serial {b:?}"),
            }
        }
        assert!(w.deep_provenance_many(&Cx::ADMIN, &[]).is_empty());
    }

    #[test]
    fn batch_preserves_input_order_under_skew() {
        let mut w = Warehouse::new();
        let s = spec();
        let sid = w.register_spec(s.clone()).unwrap();
        let admin = w.register_view(sid, UserView::admin(&s)).unwrap();
        let rid = w.load_run(sid, run(&s)).unwrap();
        w.set_max_batch_workers(4);

        // Alternate instant failures (unknown run) with real deep queries
        // on a batch much larger than the worker pool, so fast workers
        // steal far ahead of slow ones. Each slot must still hold the
        // answer to *its* input.
        let queries: Vec<_> = (0..64u32)
            .map(|i| {
                if i % 2 == 0 {
                    (RunId(1000 + i), admin, DataId(1))
                } else {
                    (rid, admin, DataId(3))
                }
            })
            .collect();
        let expected = w.deep_provenance(rid, admin, DataId(3)).unwrap();
        let batch = w.deep_provenance_many(&Cx::ADMIN, &queries);
        assert_eq!(batch.len(), queries.len());
        for (i, res) in batch.iter().enumerate() {
            if i % 2 == 0 {
                assert!(
                    matches!(res, Err(WarehouseError::RunNotFound(r)) if *r == RunId(1000 + i as u32)),
                    "slot {i} lost its input: {res:?}"
                );
            } else {
                assert_eq!(res.as_ref().unwrap(), &expected, "slot {i} out of order");
            }
        }
    }

    #[test]
    fn cache_behavior() {
        let mut w = Warehouse::new();
        let s = spec();
        let sid = w.register_spec(s.clone()).unwrap();
        let admin = w.register_view(sid, UserView::admin(&s)).unwrap();
        let rid = w.load_run(sid, run(&s)).unwrap();
        let _ = w.view_run(rid, admin).unwrap();
        let _ = w.view_run(rid, admin).unwrap();
        assert_eq!(w.cache_counters(), (1, 1));
        w.clear_cache();
        assert_eq!(w.stats().cached_view_runs, 0);
        let _ = w.view_run_uncached(rid, admin).unwrap();
        assert_eq!(w.stats().cached_view_runs, 0);
    }
}

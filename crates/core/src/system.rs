//! The ZOOM system facade (Section IV, Figure 8): one object wiring the
//! provenance warehouse, the view builder, and the query layer together.

use std::path::Path;
use zoom_graph::NodeId;
use zoom_model::{DataId, EventLog, UserView, WorkflowRun, WorkflowSpec};
use zoom_warehouse::metrics::MetricsRegistry;
use zoom_warehouse::persist::PersistError;
use zoom_warehouse::privacy::{Gate, MutRegistrar, PolicyTable};
use zoom_warehouse::{
    trace, typed, Answer, DurableError, DurableOptions, DurableWarehouse, FsckReport, HealthReport,
    IndexBackend, MetricsSnapshot, Op, ProvenanceResult, Result, RunId, SlowQuery, SpecId, Store,
    TraceTarget, ViewId, VisibilityPolicy, Warehouse, WarehouseError, WarehouseStats,
};

/// The storage behind a [`Zoom`] system: a plain in-memory warehouse or a
/// crash-safe [`DurableWarehouse`] directory.
#[derive(Debug)]
enum Backing {
    Memory(Box<Warehouse>),
    Durable(Box<DurableWarehouse>),
}

/// The ZOOM system: registration, view building, execution loading, and
/// provenance querying behind one API.
#[derive(Debug)]
pub struct Zoom {
    backing: Backing,
    /// Per-tenant visibility policies (DESIGN.md §16). [`Zoom::apply`]
    /// and the plain query methods are the embedder's own (admin) surface
    /// and never consult this; [`Zoom::apply_as`] enforces it. Policies are
    /// compiled eagerly at every registration point, so tenant-scoped
    /// queries only ever hit the compiled caches.
    policies: PolicyTable,
}

impl Default for Zoom {
    fn default() -> Self {
        Zoom {
            backing: Backing::Memory(Box::new(Warehouse::new())),
            policies: PolicyTable::new(),
        }
    }
}

impl Backing {
    /// The store ops are applied to (journaled when durable). The policy
    /// compiler registers privacy views here directly: going through
    /// `Zoom::apply` would start a policy refresh from inside one.
    fn store(&mut self) -> &mut dyn Store {
        match self {
            Backing::Memory(w) => w.as_mut(),
            Backing::Durable(dw) => dw.as_mut(),
        }
    }
}

impl Zoom {
    /// A fresh system with an empty in-memory warehouse.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens (or initializes) a crash-safe system in `dir`: every
    /// registration and run load is journaled before it is acknowledged,
    /// and the journal auto-compacts into snapshots. See
    /// [`zoom_warehouse::durable`].
    pub fn open_durable(dir: &Path) -> std::result::Result<Self, DurableError> {
        Ok(Zoom {
            backing: Backing::Durable(Box::new(DurableWarehouse::open(dir)?)),
            policies: PolicyTable::new(),
        })
    }

    /// [`Zoom::open_durable`] with explicit durability options.
    pub fn open_durable_opts(
        dir: &Path,
        options: DurableOptions,
    ) -> std::result::Result<Self, DurableError> {
        Ok(Zoom {
            backing: Backing::Durable(Box::new(DurableWarehouse::open_opts(dir, options)?)),
            policies: PolicyTable::new(),
        })
    }

    /// Whether this system is backed by a durable directory.
    pub fn is_durable(&self) -> bool {
        matches!(self.backing, Backing::Durable(_))
    }

    /// Forces a compaction of the durable store (snapshot, fresh journal,
    /// atomic manifest swing). Returns `false` (and does nothing) for
    /// in-memory systems.
    pub fn checkpoint(&mut self) -> Result<bool> {
        match &mut self.backing {
            Backing::Memory(_) => Ok(false),
            Backing::Durable(dw) => {
                dw.checkpoint().map_err(WarehouseError::from)?;
                Ok(true)
            }
        }
    }

    /// Rebuilds a durable backing in place: fsck the directory, replay
    /// manifest + snapshot + journal into a fresh [`DurableWarehouse`]
    /// (fresh breaker, fresh retry state), prove the disk writable with a
    /// checkpoint, and swap the fresh store in. This is the single-system
    /// analog of the shard router's online repair — the recovery path an
    /// operator reaches for after replacing a sick disk under a live
    /// `Zoom`. Returns `None` (and does nothing) for in-memory systems;
    /// on any failure the existing backing is left untouched.
    pub fn repair(&mut self) -> std::result::Result<Option<FsckReport>, DurableError> {
        let Backing::Durable(dw) = &self.backing else {
            return Ok(None);
        };
        let (io, dir, options) = (dw.io(), dw.dir().to_path_buf(), dw.options());
        let report = zoom_warehouse::durable::fsck_with(&*io, &dir)?;
        let mut fresh = DurableWarehouse::open_with(io, &dir, options)?;
        // Recovery alone is read-only; only a write proves the disk back.
        fresh.checkpoint()?;
        self.backing = Backing::Durable(Box::new(fresh));
        Ok(Some(report))
    }

    /// Warehouse statistics; durable systems fill in the journal and
    /// compaction counters.
    pub fn stats(&self) -> WarehouseStats {
        match &self.backing {
            Backing::Memory(w) => w.stats(),
            Backing::Durable(dw) => dw.stats(),
        }
    }

    /// A full observability snapshot: the [`WarehouseStats`] table
    /// counters folded together with per-query-class latency histograms,
    /// cache hit/miss/eviction counters, journal fsync latency,
    /// checkpoint durations, batch fan-out, and the slow-query log.
    /// Serializable, and rendered as JSON by
    /// [`MetricsSnapshot::to_json`] (`zoomctl stats --json`).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.warehouse().metrics_with(self.stats())
    }

    /// Sets the slow-query threshold: successful queries at least this
    /// slow are captured (with run/view/data context) in a bounded ring
    /// buffer. 0 captures everything; `u64::MAX` disables the log.
    pub fn set_slow_query_threshold_nanos(&self, nanos: u64) {
        self.warehouse()
            .metrics_registry()
            .set_slow_threshold_nanos(nanos);
    }

    /// The captured slow queries, oldest first.
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.warehouse().metrics_registry().slow_queries()
    }

    /// A point-in-time health report: write-availability, circuit-breaker
    /// state, and the lifetime resilience counters. In-memory systems are
    /// always healthy and writable; durable systems report the breaker.
    pub fn health(&self) -> HealthReport {
        match &self.backing {
            Backing::Memory(_) => HealthReport::in_memory(),
            Backing::Durable(dw) => dw.health(),
        }
    }

    /// Sets the default per-query time budget. `None` removes the limit.
    /// Queries exceeding the budget return
    /// [`WarehouseError::DeadlineExceeded`].
    pub fn set_default_deadline(&self, budget: Option<std::time::Duration>) {
        self.warehouse().set_default_deadline(budget);
    }

    /// The current default per-query time budget, if any.
    pub fn default_deadline(&self) -> Option<std::time::Duration> {
        self.warehouse().default_deadline()
    }

    /// Cancels every in-flight query cooperatively: each returns
    /// [`WarehouseError::Cancelled`] at its next deadline check. Queries
    /// issued after this call run normally.
    pub fn cancel_queries(&self) {
        self.warehouse().cancel_queries();
    }

    /// Bounds concurrent facade queries (admission control). Queries past
    /// `max_in_flight` wait in a queue of at most `max_queue`; beyond that
    /// they are shed with [`WarehouseError::Overloaded`].
    pub fn set_admission_limits(&mut self, max_in_flight: usize, max_queue: usize) {
        match &mut self.backing {
            Backing::Memory(w) => w.set_admission_limits(max_in_flight, max_queue),
            Backing::Durable(dw) => dw.set_admission_limits(max_in_flight, max_queue),
        }
    }

    /// Caps worker threads used by batch query fan-out (0 = hardware
    /// parallelism).
    pub fn set_max_batch_workers(&self, workers: usize) {
        self.warehouse().set_max_batch_workers(workers);
    }

    /// Forces every provenance query onto one reachability backend
    /// (`IndexBackend::{Labels, Bitset, Bfs}`); `None` restores the
    /// automatic node-count policy.
    pub fn set_index_backend(&self, backend: Option<IndexBackend>) {
        self.warehouse().set_index_backend(backend);
    }

    /// The forced reachability backend, or `None` under the automatic
    /// policy.
    pub fn index_backend(&self) -> Option<IndexBackend> {
        self.warehouse().index_backend()
    }

    /// Sets the run size (graph nodes) at which the automatic policy
    /// switches from bitset rows to interval labels.
    pub fn set_labels_threshold(&self, nodes: usize) {
        self.warehouse().set_labels_threshold(nodes);
    }

    /// Read access to the underlying warehouse.
    pub fn warehouse(&self) -> &Warehouse {
        match &self.backing {
            Backing::Memory(w) => w,
            Backing::Durable(dw) => dw.warehouse(),
        }
    }

    /// Mutable access to the underlying warehouse, for bulk operations
    /// that bypass the durability layer. `None` when the system is
    /// durable: direct mutation would diverge memory from disk.
    pub fn warehouse_mut(&mut self) -> Option<&mut Warehouse> {
        match &mut self.backing {
            Backing::Memory(w) => Some(w),
            Backing::Durable(_) => None,
        }
    }

    // ------------------------------------------------------------------
    // The operation algebra
    // ------------------------------------------------------------------

    /// Applies any op as the embedder (admin): writes are journaled when
    /// durable, and every registration recompiles the installed
    /// policies, so tenant-scoped queries only ever hit compiled caches.
    pub fn apply(&mut self, op: &Op) -> Result<Answer> {
        let answer = self.backing.store().apply(op)?;
        if op.registers() {
            self.refresh_policies()?;
        }
        Ok(answer)
    }

    /// Answers a read op through a shared borrow, as the embedder.
    pub fn read(&self, op: &Op) -> Result<Answer> {
        self.warehouse().read(op)
    }

    /// Answers a read op as `tenant`, through the tenant's enforcement
    /// [`Gate`] — the same gate the daemon's request handler applies.
    /// Write ops need [`Zoom::apply`].
    pub fn apply_as(&self, tenant: &str, op: &Op) -> Result<Answer> {
        self.apply_as_with(tenant, op, |op| self.read(op))
    }

    /// [`Zoom::apply_as`] with the gated op answered by `exec` (a query
    /// session's deadline-bounded path).
    pub(crate) fn apply_as_with(
        &self,
        tenant: &str,
        op: &Op,
        exec: impl FnOnce(&Op) -> Result<Answer>,
    ) -> Result<Answer> {
        let _tag = zoom_warehouse::metrics::tag_tenant(Some(tenant));
        self.gate(tenant).apply(op, exec)
    }

    // ------------------------------------------------------------------
    // Registration
    // ------------------------------------------------------------------

    /// Registers a workflow specification (journaled when durable).
    pub fn register_workflow(&mut self, spec: WorkflowSpec) -> Result<SpecId> {
        typed(self.apply(&Op::RegisterSpec(spec)))
    }

    /// Registers an explicit user view (journaled when durable).
    pub fn register_view(&mut self, spec: SpecId, view: UserView) -> Result<ViewId> {
        typed(self.apply(&Op::RegisterView(spec, view)))
    }

    /// Builds a *good* user view from relevant module labels with
    /// `RelevUserViewBuilder` and registers it. Re-registering the same
    /// relevant set returns the existing view.
    pub fn build_view(&mut self, spec_id: SpecId, relevant_labels: &[&str]) -> Result<ViewId> {
        let labels = relevant_labels.iter().map(|l| l.to_string()).collect();
        typed(self.apply(&Op::BuildView(spec_id, labels)))
    }

    /// The finest view (UAdmin), registered on first use.
    pub fn admin_view(&mut self, spec_id: SpecId) -> Result<ViewId> {
        typed(self.apply(&Op::AdminView(spec_id)))
    }

    /// The coarsest view (UBlackBox), registered on first use.
    pub fn black_box_view(&mut self, spec_id: SpecId) -> Result<ViewId> {
        if let Some(v) = self.warehouse().find_view(spec_id, "UBlackBox") {
            return Ok(v);
        }
        let view = UserView::black_box(self.warehouse().spec(spec_id)?);
        self.register_view(spec_id, view)
    }

    /// The coarsest view that conceals the given modules — every hidden
    /// module ends up inside a composite with at least one other module,
    /// so no query at this view can single it out. Registered on first
    /// use; re-requesting the same hidden set returns the existing view.
    /// Errors with [`WarehouseError::PolicyUnsatisfiable`] when the spec
    /// has nothing to absorb the hidden module into (≤ 1 module).
    pub fn private_view(&mut self, spec_id: SpecId, hidden_labels: &[&str]) -> Result<ViewId> {
        let spec = self.warehouse().spec(spec_id)?;
        let hidden: Vec<NodeId> = hidden_labels
            .iter()
            .map(|l| spec.module(l))
            .collect::<zoom_model::Result<_>>()?;
        let view = zoom_warehouse::conceal(spec, &hidden)?;
        if let Some(existing) = self.warehouse().find_view(spec_id, view.name()) {
            return Ok(existing);
        }
        self.register_view(spec_id, view)
    }

    // ------------------------------------------------------------------
    // Per-tenant visibility policies (DESIGN.md §16)
    // ------------------------------------------------------------------

    /// Installs (or with `None`/an empty policy, clears) `tenant`'s
    /// visibility policy, then eagerly compiles every installed policy
    /// against every registered spec — an unsatisfiable policy fails
    /// *here*, at administration time, with
    /// [`WarehouseError::PolicyUnsatisfiable`].
    pub fn set_policy(&mut self, tenant: &str, policy: Option<VisibilityPolicy>) -> Result<()> {
        let table = std::mem::take(&mut self.policies);
        let result = {
            let reg = MutRegistrar::new(self.backing.store());
            table
                .install(tenant, policy, &reg)
                .and_then(|()| table.compile_all(&reg))
        };
        self.policies = table;
        result
    }

    /// The installed policy for `tenant`, if any.
    pub fn policy(&self, tenant: &str) -> Option<VisibilityPolicy> {
        self.policies.get(tenant).map(|p| (*p).clone())
    }

    /// Re-compiles every installed policy against the current spec/view
    /// tables (no-op when no policies are installed). Called after each
    /// registration so tenant-scoped queries never need to register
    /// through a shared borrow.
    fn refresh_policies(&mut self) -> Result<()> {
        if self.policies.is_empty() {
            return Ok(());
        }
        let table = std::mem::take(&mut self.policies);
        let result = table.compile_all(&MutRegistrar::new(self.backing.store()));
        self.policies = table;
        result
    }

    /// `tenant`'s enforcement [`Gate`] over this system's tables — the
    /// same gate the daemon's request handler uses.
    fn gate<'a>(&'a self, tenant: &'a str) -> Gate<'a, Warehouse> {
        self.policies.gate(tenant, self.warehouse())
    }

    /// The view a query by `tenant` against `(run, view)` actually
    /// executes with: unchanged for unrestricted tenants (one atomic load
    /// when no policies exist at all), the compiled privacy/meet view for
    /// restricted ones, and `Err(RunNotFound)` — byte-identical to the
    /// run being absent — when the policy denies the run's workflow
    /// outright. Internal policy errors fail *closed* for the same
    /// reason: a distinct error would confirm the run exists.
    pub fn effective_view(&self, tenant: &str, run: RunId, view: ViewId) -> Result<ViewId> {
        self.gate(tenant).view(run, view)
    }

    /// [`Zoom::deep_provenance`] as `tenant`, with the tenant's policy
    /// enforced by view substitution before the query runs.
    pub fn deep_provenance_as(
        &self,
        tenant: &str,
        run: RunId,
        view: ViewId,
        data: DataId,
    ) -> Result<ProvenanceResult> {
        typed(self.apply_as(tenant, &Op::DeepProvenance(run, view, data)))
    }

    /// Loads a validated run (journaled when durable).
    pub fn load_run(&mut self, spec: SpecId, run: WorkflowRun) -> Result<RunId> {
        match &mut self.backing {
            Backing::Memory(w) => w.load_run(spec, run),
            Backing::Durable(dw) => Ok(dw.load_run(spec, run)?),
        }
    }

    /// Ingests a workflow-system event log (journaled when durable).
    pub fn load_log(&mut self, spec: SpecId, log: &EventLog) -> Result<RunId> {
        self.backing.store().load_log(spec, log)
    }

    // ------------------------------------------------------------------
    // Streaming ingestion
    // ------------------------------------------------------------------

    /// Number of live (unsealed) streams.
    pub fn active_streams(&self) -> usize {
        self.warehouse().active_streams()
    }

    /// Whether `run` is a live stream.
    pub fn is_streaming(&self, run: RunId) -> bool {
        self.warehouse().is_streaming(run)
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Deep provenance of `data` through `view`.
    pub fn deep_provenance(
        &self,
        run: RunId,
        view: ViewId,
        data: DataId,
    ) -> Result<ProvenanceResult> {
        typed(self.read(&Op::DeepProvenance(run, view, data)))
    }

    /// Deep provenance of `data` through `view` under an explicit time
    /// budget, overriding the system-wide default deadline. Returns
    /// [`WarehouseError::DeadlineExceeded`] when the budget runs out.
    pub fn deep_provenance_within(
        &self,
        run: RunId,
        view: ViewId,
        data: DataId,
        budget: std::time::Duration,
    ) -> Result<ProvenanceResult> {
        let mut deadline = zoom_warehouse::Deadline::after(budget);
        self.warehouse()
            .deep_provenance_with_deadline(run, view, data, &mut deadline)
    }

    /// Deep provenance of many `(run, view, data)` triples at once,
    /// fanned out across threads; results come back in input order.
    pub fn query_batch(
        &self,
        queries: &[(RunId, ViewId, DataId)],
    ) -> Vec<Result<ProvenanceResult>> {
        self.warehouse().deep_provenance_many(queries)
    }

    /// The run's final outputs (data flowing to the output node) — the
    /// target of "the most expensive provenance query possible" used
    /// throughout Section V.
    pub fn final_outputs(&self, run: RunId) -> Result<Vec<DataId>> {
        typed(self.read(&Op::FinalOutputs(run)))
    }

    /// Deep provenance of the run's (first) final output through `view`.
    pub fn deep_provenance_of_final_output(
        &self,
        run: RunId,
        view: ViewId,
    ) -> Result<ProvenanceResult> {
        let outs = self.final_outputs(run)?;
        let &target = outs.first().ok_or(WarehouseError::NoFinalOutputs(run))?;
        self.deep_provenance(run, view, target)
    }

    // ------------------------------------------------------------------
    // Persistence
    // ------------------------------------------------------------------

    /// Saves the warehouse snapshot to `path`.
    pub fn save(&self, path: &Path) -> std::result::Result<(), PersistError> {
        zoom_warehouse::persist::save(self.warehouse(), path)
    }

    /// Loads a system (in-memory) from a warehouse snapshot.
    pub fn load(path: &Path) -> std::result::Result<Self, PersistError> {
        Ok(Zoom {
            backing: Backing::Memory(Box::new(zoom_warehouse::persist::load(path)?)),
            policies: PolicyTable::new(),
        })
    }
}

impl TraceTarget for Zoom {
    fn apply_trace_op(&mut self, op: &Op) -> u64 {
        trace::digest(&self.apply(op))
    }

    fn replay_metrics(&self) -> Option<&MetricsRegistry> {
        Some(self.warehouse().metrics_registry())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zoom_model::{RunBuilder, SpecBuilder, StepId};

    fn spec() -> WorkflowSpec {
        let mut b = SpecBuilder::new("sys");
        b.formatting("F");
        b.analysis("R");
        b.from_input("F").edge("F", "R").to_output("R");
        b.build().unwrap()
    }

    fn run(s: &WorkflowSpec) -> WorkflowRun {
        let mut rb = RunBuilder::new(s);
        let s1 = rb.step(s.module("F").unwrap());
        let s2 = rb.step(s.module("R").unwrap());
        rb.input_edge(s1, [1])
            .data_edge(s1, s2, [2])
            .output_edge(s2, [3]);
        rb.build().unwrap()
    }

    #[test]
    fn facade_flow() {
        let mut z = Zoom::new();
        let s = spec();
        let sid = z.register_workflow(s.clone()).unwrap();
        let vid = z.build_view(sid, &["R"]).unwrap();
        let rid = z.load_run(sid, run(&s)).unwrap();

        // The built view groups F into C(R): only d1 and d3 are visible.
        let res = z.deep_provenance_of_final_output(rid, vid).unwrap();
        assert_eq!(res.tuples(), 2);
        let admin = z.admin_view(sid).unwrap();
        let res = z.deep_provenance_of_final_output(rid, admin).unwrap();
        assert_eq!(res.tuples(), 3);
        let bb = z.black_box_view(sid).unwrap();
        let res = z.deep_provenance_of_final_output(rid, bb).unwrap();
        assert_eq!(res.tuples(), 2);

        // Idempotent view creation.
        assert_eq!(z.build_view(sid, &["R"]).unwrap(), vid);
        assert_eq!(z.admin_view(sid).unwrap(), admin);
        assert_eq!(z.black_box_view(sid).unwrap(), bb);
    }

    #[test]
    fn unknown_relevant_label_errors() {
        let mut z = Zoom::new();
        let sid = z.register_workflow(spec()).unwrap();
        assert!(z.build_view(sid, &["nope"]).is_err());
    }

    #[test]
    fn forward_query_through_facade() {
        let mut z = Zoom::new();
        let s = spec();
        let sid = z.register_workflow(s.clone()).unwrap();
        let admin = z.admin_view(sid).unwrap();
        let rid = z.load_run(sid, run(&s)).unwrap();
        assert_eq!(
            z.warehouse().dependents_of(rid, admin, DataId(1)).unwrap(),
            vec![DataId(2), DataId(3)]
        );
        match z
            .warehouse()
            .immediate_provenance(rid, admin, DataId(3))
            .unwrap()
        {
            zoom_warehouse::ImmediateAnswer::Produced { exec, .. } => assert_eq!(exec, StepId(2)),
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn durable_facade_survives_reopen() {
        let mut dir = std::env::temp_dir();
        dir.push(format!("zoom-core-durable-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();

        let s = spec();
        let (sid, vid, rid) = {
            let mut z = Zoom::open_durable(&dir).unwrap();
            assert!(z.is_durable());
            assert!(z.warehouse_mut().is_none(), "durable denies raw mutation");
            let sid = z.register_workflow(s.clone()).unwrap();
            let vid = z.build_view(sid, &["R"]).unwrap();
            let rid = z.load_run(sid, run(&s)).unwrap();
            assert_eq!(z.stats().journal_records, 3);
            (sid, vid, rid)
        };
        // Reopen: same ids, same answers, journaled state intact.
        let mut z = Zoom::open_durable(&dir).unwrap();
        let st = z.stats();
        assert_eq!((st.specs, st.views, st.runs), (1, 1, 1));
        assert_eq!(st.journal_records, 3);
        assert_eq!(z.build_view(sid, &["R"]).unwrap(), vid);
        let res = z.deep_provenance_of_final_output(rid, vid).unwrap();
        assert_eq!(res.tuples(), 2);

        // Checkpoint compacts into a snapshot epoch.
        assert!(z.checkpoint().unwrap());
        let st = z.stats();
        assert_eq!(st.epoch, 1);
        assert_eq!(st.journal_records, 0);
        assert_eq!(st.compactions, 1);
        drop(z);
        let z = Zoom::open_durable(&dir).unwrap();
        assert_eq!(z.stats().epoch, 1);
        let res = z.deep_provenance_of_final_output(rid, vid).unwrap();
        assert_eq!(res.tuples(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metrics_snapshot_through_facade() {
        use zoom_warehouse::{QueryKind, ViewClass};
        let mut z = Zoom::new();
        let s = spec();
        let sid = z.register_workflow(s.clone()).unwrap();
        let admin = z.admin_view(sid).unwrap();
        let rid = z.load_run(sid, run(&s)).unwrap();
        z.set_slow_query_threshold_nanos(0); // capture every query

        z.deep_provenance(rid, admin, DataId(3)).unwrap();
        z.warehouse().dependents_of(rid, admin, DataId(1)).unwrap();
        z.query_batch(&[(rid, admin, DataId(3)), (rid, admin, DataId(2))]);
        let _ = z.deep_provenance(rid, admin, DataId(99)); // missing → error

        let m = z.metrics();
        let deep_admin = m
            .queries
            .iter()
            .find(|q| q.kind == QueryKind::Deep && q.view_class == ViewClass::Admin)
            .unwrap();
        assert_eq!(deep_admin.latency.count, 3); // 1 direct + 2 batched
        let dep_admin = m
            .queries
            .iter()
            .find(|q| q.kind == QueryKind::Dependents && q.view_class == ViewClass::Admin)
            .unwrap();
        assert_eq!(dep_admin.latency.count, 1);
        assert_eq!(m.query_errors, 1);
        assert_eq!(m.batch.batches, 1);
        assert_eq!(m.batch.queries, 2);
        assert_eq!(m.batch.max_fanout, 2);
        assert_eq!(m.view_run_cache.misses, 1);
        assert_eq!(m.index_cache.misses, 1);
        assert_eq!(m.stats.view_run_misses, 1);
        assert!(m.view_run_cache.hits >= 3);
        // The slow log captured the successful queries with context.
        let slow = z.slow_queries();
        assert_eq!(slow.len(), 4);
        assert!(slow.iter().all(|q| q.run == rid && q.view_name == "UAdmin"));
        // And the JSON rendering carries the documented sections.
        let json = m.to_json();
        for key in [
            "\"stats\"",
            "\"queries\"",
            "\"slow_queries\"",
            "\"journal\"",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
    }

    #[test]
    fn streaming_through_facade() {
        let mut z = Zoom::new();
        let s = spec();
        let sid = z.register_workflow(s.clone()).unwrap();
        let admin = z.admin_view(sid).unwrap();
        let log = EventLog::from_run(&run(&s), &s);

        let rid: RunId = typed(z.apply(&Op::BeginStream(sid))).unwrap();
        let mut committed = 0usize;
        for ev in &log.events {
            let pushed = z.apply(&Op::PushEvent(rid, ev.clone())).unwrap();
            if let Answer::Push(zoom_warehouse::PushOutcome::Committed(steps)) = pushed {
                committed += steps.len();
            }
        }
        assert_eq!(committed, 2);
        // Queryable before the seal: the committed prefix answers deep
        // provenance of d2. The final output d3 only joins the graph when
        // the seal attaches it to the output node.
        let res = z.deep_provenance(rid, admin, DataId(2)).unwrap();
        assert_eq!(res.tuples(), 2);
        assert!(z.deep_provenance(rid, admin, DataId(3)).is_err());
        assert!(z.is_streaming(rid));
        z.apply(&Op::SealStream(rid)).unwrap();
        assert!(!z.is_streaming(rid));
        assert_eq!(z.active_streams(), 0);
        let res = z.deep_provenance_of_final_output(rid, admin).unwrap();
        assert_eq!(res.tuples(), 3);
        let m = z.metrics();
        assert_eq!(m.stream.streams_started, 1);
        assert_eq!(m.stream.streams_sealed, 1);
        assert_eq!(m.stream.steps_committed, 2);

        // A sealed stream takes no more events.
        assert!(z.apply(&Op::PushEvent(rid, log.events[0].clone())).is_err());
    }

    #[test]
    fn trace_roundtrip_through_facade() {
        use zoom_warehouse::{ReplayOptions, TraceRecorder, TraceReplayer};
        let s = spec();
        let log = EventLog::from_run(&run(&s), &s);

        let mut z = Zoom::new();
        let mut rec = TraceRecorder::default();
        rec.record(&mut z, Op::RegisterSpec(s.clone()));
        rec.record(&mut z, Op::RegisterView(sid0(), UserView::admin(&s)));
        rec.record(&mut z, Op::BeginStream(sid0()));
        for ev in &log.events {
            rec.record(&mut z, Op::PushEvent(RunId(0), ev.clone()));
        }
        rec.record(&mut z, Op::SealStream(RunId(0)));
        rec.record(&mut z, Op::DeepProvenance(RunId(0), ViewId(0), DataId(3)));

        let replayer = TraceReplayer::from_bytes(&rec.to_bytes().unwrap()).unwrap();
        let mut fresh = Zoom::new();
        let report = replayer.replay(&mut fresh, &ReplayOptions::default());
        assert!(report.is_clean(), "mismatches: {:?}", report.mismatches);
        assert_eq!(fresh.metrics().replay.sessions, 1);
    }

    fn sid0() -> SpecId {
        SpecId(0)
    }

    #[test]
    fn memory_facade_checkpoint_is_a_no_op() {
        let mut z = Zoom::new();
        assert!(!z.is_durable());
        assert!(!z.checkpoint().unwrap());
        assert!(z.warehouse_mut().is_some());
        assert_eq!(z.stats().epoch, 0);
    }

    #[test]
    fn save_and_load_via_facade() {
        let mut z = Zoom::new();
        let s = spec();
        let sid = z.register_workflow(s.clone()).unwrap();
        let admin = z.admin_view(sid).unwrap();
        let rid = z.load_run(sid, run(&s)).unwrap();
        let mut path = std::env::temp_dir();
        path.push(format!("zoom-core-test-{}", std::process::id()));
        z.save(&path).unwrap();
        let z2 = Zoom::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let res = z2.deep_provenance_of_final_output(rid, admin).unwrap();
        assert_eq!(res.tuples(), 3);
    }
}

//! The ZOOM system facade (Section IV, Figure 8): one object wiring the
//! provenance warehouse, the view builder, and the query layer together.

use std::path::Path;
use zoom_graph::NodeId;
use zoom_model::{DataId, EventLog, UserView, WorkflowRun, WorkflowSpec};
use zoom_warehouse::metrics::MetricsRegistry;
use zoom_warehouse::persist::PersistError;
use zoom_warehouse::privacy::{Gate, MutRegistrar, PolicyTable};
use zoom_warehouse::{
    trace, typed, Answer, Backing, Cx, DurableError, DurableWarehouse, FsckReport, HealthReport,
    MetricsSnapshot, Op, ProvenanceResult, Result, RunId, SlowQuery, SpecId, TraceTarget, ViewId,
    VisibilityPolicy, Warehouse, WarehouseError, WarehouseStats,
};

/// The ZOOM system: registration, view building, execution loading, and
/// provenance querying behind one API.
#[derive(Debug)]
pub struct Zoom {
    backing: Backing,
    /// Per-tenant visibility policies (DESIGN.md §16). [`Zoom::apply`]
    /// and the plain query methods are the embedder's own (admin) surface
    /// and never consult this; [`Zoom::read`] enforces it for a [`Cx`]
    /// naming a tenant. Policies are compiled eagerly at every
    /// registration point, so tenant-scoped queries only ever hit the
    /// compiled caches.
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

    /// Whether this system is backed by a durable directory.
    pub fn is_durable(&self) -> bool {
        self.health().durable
    }

    /// Forces a compaction of the durable store (snapshot, fresh journal,
    /// atomic manifest swing). Returns `false` (and does nothing) for
    /// in-memory systems.
    pub fn checkpoint(&mut self) -> Result<bool> {
        self.backing.checkpoint()
    }

    /// Rebuilds a durable backing in place with
    /// [`DurableWarehouse::rebuild`] (fsck, replay into a fresh store with
    /// a fresh breaker and retry state but this one's runtime settings,
    /// checkpoint as a write probe) and swaps the fresh store in. This is
    /// the single-system analog of the shard router's online repair — the
    /// recovery path an operator reaches for after replacing a sick disk
    /// under a live `Zoom`. Returns `None` (and does nothing) for
    /// in-memory systems; on any failure the existing backing is left
    /// untouched.
    pub fn repair(&mut self) -> std::result::Result<Option<FsckReport>, DurableError> {
        let Backing::Durable(dw) = &self.backing else {
            return Ok(None);
        };
        let (report, fresh) =
            DurableWarehouse::rebuild(dw.io(), dw.dir(), dw.options(), dw.warehouse().settings())?;
        self.backing = Backing::Durable(Box::new(fresh));
        Ok(Some(report))
    }

    /// Warehouse statistics; durable systems fill in the journal and
    /// compaction counters.
    pub fn stats(&self) -> WarehouseStats {
        self.backing.stats()
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
        self.backing.health()
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

    /// Read access to the underlying warehouse.
    pub fn warehouse(&self) -> &Warehouse {
        self.backing.warehouse()
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

    /// Answers a read op by `cx` through a shared borrow. A `cx` naming a
    /// tenant passes the tenant's enforcement [`Gate`] first — the same
    /// gate the daemon's request handler applies. Write ops need
    /// [`Zoom::apply`] and answer [`WarehouseError::ReadOnly`] here.
    pub fn read(&self, cx: &Cx, op: &Op) -> Result<Answer> {
        let wh = self.warehouse();
        match cx.tenant {
            None => wh.read(cx, op),
            Some(tenant) => self.gate(tenant).apply(op, |op| wh.read(cx, op)),
        }
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
        typed(self.read(&Cx::tenant(tenant), &Op::DeepProvenance(run, view, data)))
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
        match &mut self.backing {
            Backing::Memory(w) => w.load_log(spec, log),
            Backing::Durable(dw) => Ok(dw.load_log(spec, log)?),
        }
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
        typed(self.read(&Cx::ADMIN, &Op::DeepProvenance(run, view, data)))
    }

    /// Deep provenance of many `(run, view, data)` triples at once,
    /// fanned out across threads; results come back in input order.
    pub fn query_batch(
        &self,
        queries: &[(RunId, ViewId, DataId)],
    ) -> Vec<Result<ProvenanceResult>> {
        self.warehouse().deep_provenance_many(&Cx::ADMIN, queries)
    }

    /// The run's final outputs (data flowing to the output node) — the
    /// target of "the most expensive provenance query possible" used
    /// throughout Section V.
    pub fn final_outputs(&self, run: RunId) -> Result<Vec<DataId>> {
        typed(self.read(&Cx::ADMIN, &Op::FinalOutputs(run)))
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
    use std::sync::Arc;
    use zoom_model::{RunBuilder, SpecBuilder, StepId};
    use zoom_warehouse::IndexBackend;

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
    fn repair_keeps_the_runtime_settings() {
        let mut dir = std::env::temp_dir();
        dir.push(format!("zoom-core-repair-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut z = Zoom::open_durable(&dir).unwrap();
        let s = spec();
        let sid = z.register_workflow(s.clone()).unwrap();
        z.load_run(sid, run(&s)).unwrap();

        z.set_slow_query_threshold_nanos(0);
        z.set_admission_limits(3, 5);
        z.warehouse().set_index_backend(Some(IndexBackend::Labels));
        let admission = Arc::clone(z.warehouse().admission());

        assert!(z.repair().unwrap().is_some(), "durable systems repair");
        let wh = z.warehouse();
        assert_eq!(wh.metrics_registry().slow_threshold_nanos(), 0);
        assert_eq!(
            (wh.admission().max_in_flight(), wh.admission().max_queue()),
            (3, 5)
        );
        assert!(
            Arc::ptr_eq(wh.admission(), &admission),
            "permits held against the old store still count"
        );
        assert_eq!(wh.index_backend(), Some(IndexBackend::Labels));
        std::fs::remove_dir_all(&dir).ok();
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
        assert!(z.warehouse().is_streaming(rid));
        z.apply(&Op::SealStream(rid)).unwrap();
        assert!(!z.warehouse().is_streaming(rid));
        assert_eq!(z.warehouse().active_streams(), 0);
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

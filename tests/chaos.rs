//! Chaos suite for the resilience layer: transient storage faults under
//! concurrent queries, circuit-breaker degradation and recovery, deadline
//! bounds on pathological queries, and the admission-control accounting
//! invariants.
//!
//! Companion to `crates/warehouse/tests/durable_recovery.rs` (which kills
//! the store at every sync point): here the storage *misbehaves but
//! survives*, and the store must absorb it — retry transients, trip the
//! breaker on persistent failures, keep answering queries throughout, and
//! never lose an acknowledged write.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};
use zoom::model::{RunBuilder, SpecBuilder, UserView, WorkflowRun, WorkflowSpec};
use zoom::warehouse::io::FaultFs;
use zoom::warehouse::{
    typed, BreakerState, Cx, DurableError, DurableOptions, DurableWarehouse, IndexBackend, Op,
    ProvenanceResult, RetryPolicy, Warehouse, WarehouseError,
};
use zoom::{DataId, QuerySession, Zoom};
use zoom_gen::{generate_run, generate_spec, RunGenConfig, SpecGenConfig, WorkflowClass};

fn tempdir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("zoom-chaos-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&p).ok();
    p
}

/// A linear three-module spec, unique by name.
fn spec(name: &str) -> WorkflowSpec {
    let mut b = SpecBuilder::new(name);
    b.analysis("M0");
    b.analysis("M1");
    b.analysis("M2");
    b.from_input("M0").edge("M0", "M1").edge("M1", "M2");
    b.to_output("M2");
    b.build().unwrap()
}

/// A linear run through `s`: d1 → M0 → d2 → M1 → d3 → M2 → d4.
fn run(s: &WorkflowSpec) -> WorkflowRun {
    let mut rb = RunBuilder::new(s);
    let steps: Vec<_> = (0..3)
        .map(|i| rb.step(s.module(&format!("M{i}")).unwrap()))
        .collect();
    rb.input_edge(steps[0], [1]);
    rb.data_edge(steps[0], steps[1], [2]);
    rb.data_edge(steps[1], steps[2], [3]);
    rb.output_edge(steps[2], [4]);
    rb.build().unwrap()
}

fn no_compact() -> DurableOptions {
    DurableOptions {
        compact_threshold_bytes: u64::MAX,
        auto_compact: false,
        ..DurableOptions::default()
    }
}

/// Every mutation hits one injected transient fault (plus write latency to
/// widen race windows) while reader threads hammer queries; the default
/// retry policy must absorb every fault, no acknowledged write may be lost
/// across a reopen, and the retry counter must account for every fault.
#[test]
fn transient_faults_absorbed_under_concurrent_queries() {
    let dir = tempdir("transient");
    let faulty = Arc::new(FaultFs::counting());
    let mut dw = DurableWarehouse::open_with(faulty.clone(), &dir, no_compact()).unwrap();

    // A known-good run for the readers to query throughout.
    let s0 = spec("chaos-base");
    let sid = dw.register_spec(s0.clone()).unwrap();
    let vid = dw.register_view(sid, UserView::admin(&s0)).unwrap();
    let rid = dw.load_run(sid, run(&s0)).unwrap();

    faulty.set_write_latency(Duration::from_millis(1));
    const WRITES: u64 = 20;
    let shared = RwLock::new(dw);
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for i in 0..WRITES {
                // One transient fault armed per mutation: the first append
                // attempt fails, the retry succeeds.
                faulty.arm_failures(1, true);
                let name = format!("chaos-t{i}");
                shared.write().unwrap().register_spec(spec(&name)).unwrap();
            }
            done.store(true, Ordering::Release);
        });
        for _ in 0..4 {
            scope.spawn(|| {
                while !done.load(Ordering::Acquire) {
                    let g = shared.read().unwrap();
                    let res = g.warehouse().deep_provenance(rid, vid, DataId(4)).unwrap();
                    assert_eq!(res.tuples(), 4);
                }
            });
        }
    });

    let dw = shared.into_inner().unwrap();
    let m = dw.warehouse().metrics_with(dw.stats());
    assert!(
        m.resilience.io_retries >= WRITES,
        "every armed fault should cost one retry: {} < {WRITES}",
        m.resilience.io_retries
    );
    assert_eq!(m.resilience.breaker_trips, 0, "transients must not trip");
    assert!(!dw.degraded());
    drop(dw);

    // Nothing acknowledged may be missing after recovery.
    let recovered = DurableWarehouse::open(&dir).unwrap();
    assert_eq!(recovered.stats().specs as u64, WRITES + 1);
    for i in 0..WRITES {
        let name = format!("chaos-t{i}");
        assert!(
            recovered.warehouse().spec_by_name(&name).is_some(),
            "acknowledged `{name}` lost"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Persistent append failures trip the breaker into degraded read-only
/// mode: mutations fail fast without touching storage, queries keep
/// serving from memory, and a successful checkpoint (the half-open probe)
/// restores write availability.
#[test]
fn breaker_trips_degrades_and_recovers_via_checkpoint() {
    let dir = tempdir("breaker");
    let faulty = Arc::new(FaultFs::counting());
    let options = DurableOptions {
        retry: RetryPolicy::none(),
        breaker_threshold: 2,
        ..no_compact()
    };
    let mut dw = DurableWarehouse::open_with(faulty.clone(), &dir, options).unwrap();
    let s0 = spec("breaker-base");
    let sid = dw.register_spec(s0.clone()).unwrap();
    let vid = dw.register_view(sid, UserView::admin(&s0)).unwrap();
    let rid = dw.load_run(sid, run(&s0)).unwrap();

    // Two consecutive permanent failures = the threshold.
    faulty.arm_failures(2, false);
    assert!(dw.register_spec(spec("lost-1")).is_err());
    assert!(!dw.degraded(), "one failure is below the threshold");
    assert!(dw.register_spec(spec("lost-2")).is_err());
    assert!(dw.degraded(), "threshold reached: breaker open");
    assert!(dw.stats().degraded);
    let h = dw.health();
    assert!(!h.writable);
    assert_eq!(h.breaker, BreakerState::Open);

    // Degraded writes fail fast — no storage op is even attempted.
    let ops_before = faulty.ops();
    let err = dw.register_spec(spec("rejected")).unwrap_err();
    assert!(
        matches!(err, DurableError::Warehouse(WarehouseError::Degraded)),
        "expected Degraded, got {err:?}"
    );
    assert_eq!(faulty.ops(), ops_before, "fail-fast must not touch storage");

    // Queries still serve from memory while degraded.
    let res = dw.warehouse().deep_provenance(rid, vid, DataId(4)).unwrap();
    assert_eq!(res.tuples(), 4);

    // Storage heals; the next checkpoint is the half-open probe.
    faulty.heal();
    dw.checkpoint().unwrap();
    assert!(!dw.degraded(), "successful probe closes the breaker");
    assert!(dw.health().writable);
    let after = dw.register_spec(spec("post-recovery")).unwrap();
    assert_ne!(after, sid);

    let m = dw.warehouse().metrics_with(dw.stats());
    assert_eq!(m.resilience.breaker_trips, 1);
    assert_eq!(m.resilience.breaker_recoveries, 1);
    assert!(m.resilience.degraded_writes_rejected >= 1);
    drop(dw);

    // Acknowledged survives; rejected and failed writes are simply absent.
    let recovered = DurableWarehouse::open(&dir).unwrap();
    let w = recovered.warehouse();
    assert!(w.spec_by_name("breaker-base").is_some());
    assert!(w.spec_by_name("post-recovery").is_some());
    for lost in ["lost-1", "lost-2", "rejected"] {
        assert!(w.spec_by_name(lost).is_none(), "`{lost}` was never acked");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Builds a loop-heavy dense run large enough that deep provenance does
/// real work (thousands of closure members).
fn pathological_zoom() -> (Zoom, zoom::core::RunId, zoom::core::ViewId, DataId) {
    let mut rng = StdRng::seed_from_u64(4242);
    let spec = generate_spec(
        "pathological",
        &SpecGenConfig::new(WorkflowClass::Loop, 40),
        &mut rng,
    );
    let cfg = RunGenConfig {
        user_input: (50, 100),
        data_per_step: (5, 10),
        loop_iterations: (30, 60),
        max_nodes: 20_000,
        max_edges: 40_000,
    };
    let run = generate_run(&spec, &cfg, &mut rng).expect("valid run");
    let mut z = Zoom::new();
    let sid = z.register_workflow(spec).unwrap();
    let vid = z.admin_view(sid).unwrap();
    let rid = z.load_run(sid, run).unwrap();
    let target = z.final_outputs(rid).unwrap()[0];
    (z, rid, vid, target)
}

/// An already-expired deadline interrupts a pathological query
/// deterministically, and a mid-flight expiry surfaces within twice the
/// budget (plus scheduler slack): the cooperative checks bound overshoot
/// to one check stride, not the whole traversal.
#[test]
fn deadlines_bound_pathological_queries() {
    let (z, rid, vid, target) = pathological_zoom();

    // Baseline: unbounded answer exists and takes measurable work.
    let t0 = Instant::now();
    let full = z.deep_provenance(rid, vid, target).unwrap();
    let unbounded = t0.elapsed();
    assert!(full.tuples() > 64, "run too small to exercise the stride");

    // Deterministic: an expired budget must interrupt, promptly.
    z.warehouse().clear_cache();
    let t0 = Instant::now();
    let op = Op::DeepProvenance(rid, vid, target);
    let err =
        typed::<ProvenanceResult>(z.read(&Cx::ADMIN.within(Duration::ZERO), &op)).unwrap_err();
    assert!(
        matches!(err, WarehouseError::DeadlineExceeded),
        "expected DeadlineExceeded, got {err:?}"
    );
    assert!(
        t0.elapsed() < unbounded.max(Duration::from_millis(1)) + Duration::from_millis(250),
        "expired deadline should abort almost immediately"
    );
    assert!(z.metrics().resilience.deadline_exceeded >= 1);

    // Timing: a budget a quarter of the measured cost should expire
    // mid-traversal and surface within ~2× the budget. The added slack
    // absorbs scheduler noise on loaded CI machines; the real overshoot
    // is one 64-node check stride.
    let budget = (unbounded / 4).max(Duration::from_micros(100));
    z.warehouse().clear_cache();
    let t0 = Instant::now();
    let res = typed::<ProvenanceResult>(z.read(&Cx::ADMIN.within(budget), &op));
    let elapsed = t0.elapsed();
    match res {
        Err(WarehouseError::DeadlineExceeded) => {
            assert!(
                elapsed <= budget * 2 + Duration::from_millis(50),
                "query overshot its deadline: {elapsed:?} vs budget {budget:?}"
            );
        }
        // A warm machine may finish inside the budget; that is a valid
        // outcome — the deterministic case above already proved expiry.
        Ok(r) => assert_eq!(r.tuples(), full.tuples()),
        Err(other) => panic!("unexpected error: {other:?}"),
    }
}

/// `cancel_queries` reaches a query with a budget of its own: a budgeted
/// read and a budgeted `QuerySession` query, each cancelled while it waits
/// for admission with its deadline already built, unwind with `Cancelled`
/// like unbudgeted queries. The per-query BFS over the pathological
/// run passes many deadline checks, so the raised token is seen.
#[test]
fn cancel_reaches_budgeted_reads_and_sessions() {
    /// Runs `query` on a second thread while this one holds the only
    /// admission slot, cancels once the query is queued, then frees the
    /// slot; the query must unwind with `Cancelled`.
    fn cancelled_while_queued(
        z: &Zoom,
        query: impl Fn() -> zoom::warehouse::Result<ProvenanceResult> + Send,
    ) {
        let admission = z.warehouse().admission();
        let permit = admission.admit().expect("the only slot is free");
        let res = std::thread::scope(|s| {
            let waiter = s.spawn(query);
            while admission.load() < 2 {
                std::thread::yield_now();
            }
            z.warehouse().cancel_queries();
            drop(permit);
            waiter.join().expect("the query thread finishes")
        });
        let res = res.map(|r| r.tuples());
        assert!(matches!(res, Err(WarehouseError::Cancelled)), "{res:?}");
    }

    let (mut z, rid, vid, target) = pathological_zoom();
    z.set_admission_limits(1, 1);
    z.warehouse().set_index_backend(Some(IndexBackend::Bfs));
    let budget = Duration::from_secs(60);
    let cx = Cx::ADMIN.within(budget);
    let op = Op::DeepProvenance(rid, vid, target);
    cancelled_while_queued(&z, || typed(z.read(&cx, &op)));
    cancelled_while_queued(&z, || {
        let mut sess = QuerySession::new(&z, rid, vid);
        sess.set_deadline(Some(budget));
        sess.focus_data(target)
    });
    assert_eq!(z.metrics().resilience.cancelled, 2);
}

/// Admission control sheds deterministically when the store is saturated,
/// and the counters balance: every attempt is either admitted or shed.
#[test]
fn admission_sheds_when_saturated_and_accounts_exactly() {
    let mut w = Warehouse::new();
    let s = spec("admission");
    let sid = w.register_spec(s.clone()).unwrap();
    let vid = w.register_view(sid, UserView::admin(&s)).unwrap();
    let rid = w.load_run(sid, run(&s)).unwrap();

    // One slot, no queue: holding the only permit makes the next query
    // shed immediately.
    w.set_admission_limits(1, 0);
    let permit = w.admission().clone().admit().expect("slot free");
    let err = w.deep_provenance(rid, vid, DataId(4)).unwrap_err();
    assert!(
        matches!(err, WarehouseError::Overloaded),
        "expected Overloaded, got {err:?}"
    );
    drop(permit);
    w.deep_provenance(rid, vid, DataId(4)).unwrap();

    let m = w.metrics_with(w.stats());
    assert_eq!(
        m.resilience.attempts,
        m.resilience.admitted + m.resilience.shed,
        "every admission attempt must be admitted or shed"
    );
    assert!(m.resilience.shed >= 1);
    assert!(m.resilience.admitted >= 1);
}

/// `attempts == admitted + shed` holds in every snapshot, including those
/// taken while another thread is being admitted.
#[test]
fn admission_accounting_holds_in_snapshots_taken_mid_admission() {
    use std::sync::Barrier;
    use zoom::warehouse::{RunId, ViewId};
    let w = Warehouse::new();
    let stop = AtomicBool::new(false);
    let start = Barrier::new(2);
    let torn = std::thread::scope(|s| {
        s.spawn(|| {
            start.wait();
            while !stop.load(Ordering::Relaxed) {
                // Admitted (and counted) before failing on the unknown run.
                let _ = w.dependents_of(RunId(7), ViewId(7), DataId(7));
            }
        });
        start.wait();
        let torn = (0..20_000)
            .filter(|_| {
                let r = w.metrics().resilience;
                r.attempts != r.admitted + r.shed
            })
            .count();
        stop.store(true, Ordering::Relaxed);
        torn
    });
    assert_eq!(torn, 0, "snapshots breaking attempts == admitted + shed");
    assert!(w.metrics().resilience.admitted > 0);
}

/// Chaos under replay: a recorded ingestion trace is re-executed against a
/// durable warehouse whose storage injects one transient fault before
/// every operation. The retry layer must absorb every fault, every per-op
/// digest must match both the recording and a clean in-memory replay, and
/// a reopen must find every acknowledged event — the capture/replay
/// harness is only trustworthy if determinism survives misbehaving
/// storage.
#[test]
fn replayed_trace_survives_transient_faults_without_divergence() {
    use zoom::model::EventLog;
    use zoom::warehouse::{
        Op, ReplayOptions, RunId, SpecId, TraceRecorder, TraceReplayer, TraceTarget, ViewId,
    };

    // Record an all-success session: three streamed runs of the linear
    // spec with a post-seal query battery each. (No failing ops: their
    // digests embed the error type's rendering, which differs between the
    // in-memory and durable targets.)
    let s = spec("chaos-replay");
    let log = EventLog::from_run(&run(&s), &s);
    let mut mem = Warehouse::new();
    let mut rec = TraceRecorder::default();
    rec.record(&mut mem, Op::RegisterSpec(s.clone()));
    rec.record(&mut mem, Op::RegisterView(SpecId(0), UserView::admin(&s)));
    for r in 0..3u32 {
        let rid = RunId(r);
        rec.record(&mut mem, Op::BeginStream(SpecId(0)));
        for ev in &log.events {
            rec.record(&mut mem, Op::PushEvent(rid, ev.clone()));
        }
        rec.record(&mut mem, Op::SealStream(rid));
        rec.record(&mut mem, Op::DeepProvenance(rid, ViewId(0), DataId(4)));
        rec.record(&mut mem, Op::DependentsOf(rid, ViewId(0), DataId(1)));
        rec.record(&mut mem, Op::ImmediateProvenance(rid, ViewId(0), DataId(2)));
    }
    let bytes = rec.to_bytes().unwrap();
    let replayer = TraceReplayer::from_bytes(&bytes).unwrap();

    // The clean oracle: an in-memory replay reproduces every digest.
    let mut clean = Warehouse::new();
    let clean_report = replayer.replay(&mut clean, &ReplayOptions::default());
    assert!(clean_report.is_clean(), "{:?}", clean_report.mismatches);

    // The chaos run: one transient fault armed before every single op.
    let dir = tempdir("replay-chaos");
    let faulty = Arc::new(FaultFs::counting());
    let mut dw = DurableWarehouse::open_with(faulty.clone(), &dir, no_compact()).unwrap();
    for r in replayer.records() {
        faulty.arm_failures(1, true);
        let got = dw.apply_trace_op(&r.op);
        assert_eq!(
            got,
            r.digest,
            "op {} diverged under transient faults",
            r.op.name()
        );
    }
    let events = log.len() as u64;
    let m = dw.warehouse().metrics_with(dw.stats());
    assert!(
        m.resilience.io_retries >= 3 * events,
        "each journaled push should have absorbed its armed fault: {} retries",
        m.resilience.io_retries
    );
    assert_eq!(m.resilience.breaker_trips, 0, "transients must not trip");
    assert_eq!(m.stream.streams_sealed, 3);
    drop(dw);

    // Zero lost acknowledged events: the reopened store holds all three
    // sealed runs and answers exactly like the in-memory oracle.
    let recovered = DurableWarehouse::open(&dir).unwrap();
    assert_eq!(recovered.stats().runs, 3);
    assert_eq!(recovered.warehouse().active_streams(), 0);
    for r in 0..3u32 {
        let a = recovered
            .warehouse()
            .deep_provenance(RunId(r), ViewId(0), DataId(4))
            .unwrap();
        let b = clean
            .deep_provenance(RunId(r), ViewId(0), DataId(4))
            .unwrap();
        assert_eq!(a, b, "run {r} diverged after recovery");
        assert_eq!(a.tuples(), 4);
    }
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Seeded fault schedules against the shard router
// ---------------------------------------------------------------------------

/// The deterministic chaos driver end-to-end at the router level: the same
/// seed must produce the same per-op outcome trace on two independent
/// router instances (distinct directories, same fault plan), every shard
/// must be repairable once its disk heals, and every acknowledged load
/// must survive quarantine + repair + checkpoint + reopen.
#[test]
fn seeded_fault_schedule_reproduces_router_outcomes_and_loses_no_acks() {
    use zoom::model::EventLog;
    use zoom::warehouse::{ChaosDriver, FaultSchedule, RunId, ShardRouter, ShardState, StorageIo};

    const SHARDS: usize = 2;
    const OPS: u64 = 40;

    let twitchy = || {
        let mut o = no_compact();
        o.retry = RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        };
        o.breaker_threshold = 2;
        o
    };

    // One episode: drive OPS loads through a fault-scheduled router,
    // returning (per-op outcome trace, acked count, run_count at reopen).
    let episode = |seed: u64, name: &str| -> (Vec<String>, u32) {
        let dir = tempdir(name);
        let ios: Vec<Arc<FaultFs>> = (0..SHARDS).map(|_| Arc::new(FaultFs::counting())).collect();
        let dyn_ios: Vec<Arc<dyn StorageIo>> = ios
            .iter()
            .map(|f| Arc::clone(f) as Arc<dyn StorageIo>)
            .collect();
        let router = ShardRouter::open_durable_with(&dir, SHARDS, twitchy(), &dyn_ios).unwrap();
        let s = spec("chaos-schedule");
        let log = EventLog::from_run(&run(&s), &s);
        let sid = typed(router.apply(&Cx::ADMIN, &Op::RegisterSpec(s.clone()))).unwrap();
        let load = Op::LoadLog(sid, log);

        let schedule = FaultSchedule::generate(seed, SHARDS, OPS, 3);
        let mut driver = ChaosDriver::new(schedule, ios.clone());
        let mut trace = Vec::new();
        let mut acked = 0u32;
        while driver.op() < OPS {
            driver.tick();
            // Outcome classes only — durability error renderings embed
            // the (per-episode) directory path.
            match typed::<RunId>(router.apply(&Cx::ADMIN, &load)) {
                Ok(rid) => {
                    acked += 1;
                    trace.push(format!("ok:{}", rid.0));
                }
                Err(WarehouseError::ShardUnavailable { shard, .. }) => {
                    trace.push(format!("unavailable:{shard}"));
                }
                Err(_) => trace.push("refused".to_string()),
            }
            // The supervisor pass: sync breaker state, quarantine any
            // shard the breaker has given up on.
            for (sh, st) in router.supervise_once().into_iter().enumerate() {
                if st == ShardState::Degraded {
                    router.quarantine_shard(sh);
                    trace.push(format!("quarantined:{sh}"));
                }
            }
        }

        // Heal every disk and repair whatever is out of the write path;
        // repair must succeed and re-admit each shard.
        for (sh, io) in ios.iter().enumerate() {
            io.heal();
            if router.shard_state(sh) != ShardState::Healthy {
                let outcome = router.repair_shard(sh).unwrap();
                assert_eq!(outcome.shard, sh);
                assert!(outcome.fsck.is_some(), "durable repair carries fsck");
            }
            assert_eq!(router.shard_state(sh), ShardState::Healthy);
        }
        router.checkpoint().unwrap();
        let persisted = router.run_count();
        drop(router);

        // Zero lost acks: a cold reopen still holds every acknowledged
        // run (refused loads burned no id, so the counts line up).
        let reopened = ShardRouter::open_durable_with(&dir, SHARDS, twitchy(), &dyn_ios).unwrap();
        assert_eq!(reopened.run_count(), persisted);
        assert_eq!(reopened.run_count(), acked);
        std::fs::remove_dir_all(&dir).ok();
        (trace, acked)
    };

    let (trace_a, acked_a) = episode(0xC0FFEE, "sched-a");
    let (trace_b, acked_b) = episode(0xC0FFEE, "sched-b");
    assert_eq!(trace_a, trace_b, "same seed must replay identically");
    assert_eq!(acked_a, acked_b);
    assert!(acked_a > 0, "the schedule refused every load");
    assert!(
        trace_a.iter().any(|t| !t.starts_with("ok:")),
        "the schedule never faulted anything — widen it"
    );
}

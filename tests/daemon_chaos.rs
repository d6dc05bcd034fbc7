//! Daemon-level chaos: a live `zoomd` ([`Daemon`] in-process) with
//! fault-injecting storage armed under individual shards, driven by the
//! deterministic [`ChaosDriver`].
//!
//! The load-bearing properties:
//!
//! * **Isolation** — a quarantined shard takes nothing else down: other
//!   tenants' queries keep answering byte-identically (digest-compared
//!   against an in-process oracle), error renderings included, and the
//!   client's connection never drops.
//! * **Zero lost acks** — every mutation the daemon acknowledged survives
//!   quarantine and repair; every refused mutation got a definite answer
//!   (a warehouse error or the typed `Unavailable`), never a hang or a
//!   broken connection.
//! * **Online recovery** — the supervisor repairs the sick shard while
//!   the daemon keeps serving, within a bounded time once the disk heals,
//!   and the repaired shard answers digest-clean.
//! * **Restart resumption** — a daemon restart mid-stream surfaces as a
//!   loud, typed failure on the in-flight append, after which the same
//!   client object transparently reconnects (same tenant, fresh
//!   connection) and finishes the work.

use std::sync::Arc;
use std::time::{Duration, Instant};
use zoom::core::{Daemon, DaemonConfig, RemoteError, RemoteRetry, RemoteZoom, Zoom};
use zoom::model::EventLog;
use zoom::warehouse::{
    Answer, ChaosDriver, DurableOptions, FaultAction, FaultEvent, FaultFs, FaultSchedule, Op,
    ReplayOptions, RunId, ShardRouter, ShardState, StorageIo, TraceReplayer, TraceTarget,
};
use zoom_gen::library::{figure2_run, phylogenomic};

fn tempdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("zoomd-chaos-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Durability options tuned so the breaker trips fast and injected
/// permanent faults are not retried away.
fn twitchy_options() -> DurableOptions {
    let mut options = DurableOptions::default();
    options.retry.max_attempts = 1;
    options.breaker_threshold = 2;
    options
}

fn fault_config(dir: &std::path::Path, shards: usize) -> (DaemonConfig, Vec<Arc<FaultFs>>) {
    let ios: Vec<Arc<FaultFs>> = (0..shards).map(|_| Arc::new(FaultFs::counting())).collect();
    let config = DaemonConfig {
        shards,
        dir: Some(dir.to_path_buf()),
        durable_options: Some(twitchy_options()),
        shard_ios: ios
            .iter()
            .map(|f| Arc::clone(f) as Arc<dyn StorageIo>)
            .collect(),
        supervise_interval: Some(Duration::from_millis(10)),
        ..DaemonConfig::default()
    };
    (config, ios)
}

/// Waits until `pred` holds over the shard states, or panics after 5s.
fn await_states(daemon: &Daemon, what: &str, pred: impl Fn(&[ShardState]) -> bool) -> Duration {
    let started = Instant::now();
    loop {
        let states = daemon.shard_states();
        if pred(&states) {
            return started.elapsed();
        }
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "timed out waiting for {what}; states: {states:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn chaos_schedule_isolates_faults_to_the_sick_shard() {
    const SHARDS: usize = 3;
    const SICK: usize = 1;
    let dir = tempdir("isolate");
    let (config, ios) = fault_config(&dir, SHARDS);
    let daemon = Daemon::spawn("127.0.0.1:0", config).unwrap();

    let spec = phylogenomic();
    let run = figure2_run(&spec);
    let log = EventLog::from_run(&run, &spec);
    let probe = run.final_outputs()[0];

    // In-process oracle: the daemon must answer digest-for-digest what a
    // plain local system answers.
    let mut oracle = Zoom::new();
    let sid_o = oracle.register_workflow(spec.clone()).unwrap();
    let vid_o = oracle.admin_view(sid_o).unwrap();

    // The writer surfaces `Unavailable` refusals immediately (no retry
    // absorption) so the chaos loop observes them; the reader keeps the
    // default patient policy.
    let writer_retry = RemoteRetry {
        max_unavailable_retries: 0,
        ..RemoteRetry::default()
    };
    let mut writer = RemoteZoom::connect_with(daemon.addr(), "writer", writer_retry).unwrap();
    let mut reader = RemoteZoom::connect(daemon.addr(), "reader").unwrap();
    let sid = writer.register_workflow(spec.clone()).unwrap();
    let vid = writer.admin_view(sid).unwrap();
    assert_eq!((sid, vid), (sid_o, vid_o));

    // Run-id → shard mapping is a pure function of (global id, shard
    // count); a throwaway router answers it without peeking inside the
    // daemon.
    let mapper = ShardRouter::in_memory(SHARDS);

    // The deterministic fault plan: the sick shard's disk goes dark
    // mid-workload, armed by the op-ticked driver, and stays dark until
    // the explicit heal below — the supervisor must quarantine it and
    // keep failing repairs (the write probe tells) in the meantime.
    let schedule = FaultSchedule::from_events(vec![FaultEvent {
        at_op: 8,
        shard: SICK,
        action: FaultAction::Arm {
            count: u64::MAX,
            transient: false,
        },
    }]);
    let mut driver = ChaosDriver::new(schedule, ios.clone());

    // Drive the workload, ticking the chaos driver once per op. Every op
    // must get a *definite* answer — an id or a rendered refusal — and
    // the connection must never drop (that is what "zero lost acks"
    // means at the wire).
    let mut acked: Vec<RunId> = Vec::new();
    let mut refused = 0u32;
    for i in 0..40 {
        driver.tick();
        match writer.load_log(sid, &log) {
            Ok(rid) => {
                oracle.load_log(sid_o, &log).unwrap();
                acked.push(rid);
            }
            Err(RemoteError::Server(_)) | Err(RemoteError::Unavailable { .. }) => refused += 1,
            Err(other) => panic!("op {i}: lost ack — non-warehouse failure: {other}"),
        }
    }
    assert!(
        acked.iter().any(|r| mapper.shard_of(*r) == SICK),
        "workload never touched the sick shard; acked: {acked:?}"
    );

    // The burst must have tripped the breaker and the supervisor must
    // have pulled the shard out of the write path.
    await_states(&daemon, "quarantine of the sick shard", |s| {
        !s[SICK].accepts_writes()
    });

    // Isolation, mid-quarantine: every previously-acked run still
    // answers, and healthy-shard answers plus error renderings are
    // digest-identical to the oracle. Reads on the *sick* shard serve
    // from memory and must agree too.
    for &rid in &acked {
        let op = Op::DeepProvenance(rid, vid, probe);
        assert_eq!(
            reader.apply_trace_op(&op),
            oracle.apply_trace_op(&op),
            "answer diverged mid-quarantine for {rid:?} (shard {})",
            mapper.shard_of(rid)
        );
    }
    let absent = Op::DeepProvenance(RunId(999), vid, probe);
    assert_eq!(
        reader.apply_trace_op(&absent),
        oracle.apply_trace_op(&absent),
        "error rendering diverged mid-quarantine"
    );

    // Heal the disk. A *patient* client (default retry policy) issued
    // right away never sees the quarantine: its bounded Unavailable
    // retries outlast the supervisor's repair.
    ios[SICK].heal();
    let patient = reader.load_log(sid, &log).unwrap();
    assert_eq!(patient, oracle.load_log(sid_o, &log).unwrap());
    acked.push(patient);
    let recovery = await_states(&daemon, "repair of the sick shard", |s| {
        s.iter().all(|st| *st == ShardState::Healthy)
    });
    assert!(
        recovery < Duration::from_secs(5),
        "recovery took {recovery:?}"
    );

    // Post-repair: everything acked is still there (digest-identical),
    // and the shard takes writes again.
    for &rid in &acked {
        let op = Op::DeepProvenance(rid, vid, probe);
        assert_eq!(
            reader.apply_trace_op(&op),
            oracle.apply_trace_op(&op),
            "answer diverged post-repair for {rid:?}"
        );
    }
    let next = writer.load_log(sid, &log).unwrap();
    assert_eq!(next, oracle.load_log(sid_o, &log).unwrap());

    // The whole episode never cost either client its connection.
    assert_eq!(writer.reconnect_count(), 0);
    assert_eq!(reader.reconnect_count(), 0);
    assert!(refused > 0, "the fault burst never refused anything");

    // The repair surfaced in per-shard health.
    let health = reader.health_per_shard().unwrap();
    assert!(health[SICK].repairs >= 1);
    assert!(health[SICK].quarantines >= 1);
    assert!(health[SICK].last_repair_nanos > 0);

    drop((writer, reader));
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quarantined_shard_answers_typed_unavailable_and_repairs_digest_clean() {
    const SHARDS: usize = 2;
    let dir = tempdir("typed");
    let (mut config, ios) = fault_config(&dir, SHARDS);
    // Manual lifecycle control for this test.
    config.supervise_interval = None;
    let daemon = Daemon::spawn("127.0.0.1:0", config).unwrap();

    // The golden trace replays digest-clean through the durable,
    // fault-wrapped (but not yet faulted) daemon.
    let mut rz = RemoteZoom::connect_with(daemon.addr(), "golden", RemoteRetry::none()).unwrap();
    let bytes = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/data/golden.zoomtrace"
    ))
    .expect("golden trace artifact present");
    let replayer = TraceReplayer::from_bytes(&bytes).unwrap();
    let report = replayer.replay(&mut rz, &ReplayOptions::default());
    assert!(report.is_clean(), "pre-fault golden replay diverged");

    // Pile our own runs on top of the replayed state (the trace already
    // registered `phylogenomic`) and note per-run query digests.
    let spec = phylogenomic();
    let run = figure2_run(&spec);
    let log = EventLog::from_run(&run, &spec);
    let probe = run.final_outputs()[0];
    let (sid, _, _) = rz.resolve(spec.name(), None).unwrap();
    let vid = rz.admin_view(sid).unwrap();
    let mapper = ShardRouter::in_memory(SHARDS);
    let mut runs = Vec::new();
    while runs.len() < 6 || !runs.iter().any(|r| mapper.shard_of(*r) == 1) {
        runs.push(rz.load_log(sid, &log).unwrap());
    }
    let ops: Vec<Op> = runs
        .iter()
        .map(|&r| Op::DeepProvenance(r, vid, probe))
        .collect();
    let before: Vec<u64> = ops.iter().map(|op| rz.apply_trace_op(op)).collect();

    // Sicken shard 1 and quarantine it. A no-retry client sees the typed
    // refusal — rendered byte-identically to the in-process error — on a
    // mutation routed to that shard, while the connection stays usable.
    ios[1].arm_failures(u64::MAX, false);
    assert!(daemon.quarantine_shard(1));
    let refusal = loop {
        // Only loads whose fresh global id hashes to shard 1 are
        // refused; refusals burn no id, so keep loading until the next
        // id maps there.
        let next = RunId(runs.last().unwrap().0 + 1);
        if mapper.shard_of(next) == 1 {
            break rz.load_log(sid, &log).unwrap_err();
        }
        runs.push(rz.load_log(sid, &log).unwrap());
    };
    match refusal {
        RemoteError::Unavailable {
            shard,
            retry_after_ms,
        } => {
            assert_eq!(shard, 1);
            assert_eq!(
                refusal.to_string(),
                format!("shard 1 unavailable (under repair); retry after {retry_after_ms} ms"),
                "typed refusal must render like the in-process error"
            );
        }
        other => panic!("expected the typed Unavailable refusal, got: {other}"),
    }
    rz.ping().unwrap();

    // Repair fails while the disk is still sick (the write probe tells),
    // succeeds once healed, and the fsck report comes back clean.
    assert!(daemon.repair_shard(1).is_err());
    ios[1].heal();
    let outcome = daemon.repair_shard(1).unwrap();
    let fsck = outcome.fsck.expect("durable repair carries an fsck report");
    assert_eq!(fsck.torn_bytes, 0);
    assert!(fsck.strays.is_empty());

    // The repaired shard serves digest-clean: every pre-fault query
    // answers with the identical digest, and writes flow again.
    let after: Vec<u64> = ops.iter().map(|op| rz.apply_trace_op(op)).collect();
    assert_eq!(before, after, "repaired shard diverged");
    rz.load_log(sid, &log).unwrap();

    let health = rz.health_per_shard().unwrap();
    assert_eq!(health[1].repairs, 1);
    assert!(health[1].last_repair_nanos > 0);

    drop(rz);
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn supervisor_repairs_a_shard_degraded_mid_stream_and_the_stream_seals() {
    const SHARDS: usize = 2;
    let dir = tempdir("mid-stream");
    let (config, ios) = fault_config(&dir, SHARDS);
    let daemon = Daemon::spawn("127.0.0.1:0", config).unwrap();
    let spec = phylogenomic();
    let run = figure2_run(&spec);
    let log = EventLog::from_run(&run, &spec);
    let writer_retry = RemoteRetry {
        max_unavailable_retries: 0,
        ..RemoteRetry::default()
    };
    let mut rz = RemoteZoom::connect_with(daemon.addr(), "streamer", writer_retry).unwrap();
    let sid = rz.register_workflow(spec.clone()).unwrap();
    let vid = rz.admin_view(sid).unwrap();
    let streaming = rz.begin_stream(sid).unwrap();
    let sick = ShardRouter::in_memory(SHARDS).shard_of(streaming);
    let half = log.events.len() / 2;
    for ev in &log.events[..half] {
        rz.apply(&Op::PushEvent(streaming, ev.clone())).unwrap();
    }

    // The stream's disk fails: pushes are refused until the breaker trips
    // and the supervisor quarantines the shard; repairs fail while the
    // disk stays sick.
    ios[sick].arm_failures(u64::MAX, false);
    let push = Op::PushEvent(streaming, log.events[half].clone());
    for _ in 0..2 {
        rz.apply(&push).unwrap_err();
    }
    await_states(&daemon, "quarantine of the streaming shard", |s| {
        !s[sick].accepts_writes()
    });
    std::thread::sleep(Duration::from_millis(50));
    assert!(!daemon.shard_states()[sick].accepts_writes());

    // Healed, the supervisor's repair rebuilds the shard with the stream
    // live, and the stream takes the rest of its events and seals.
    ios[sick].heal();
    await_states(&daemon, "repair of the streaming shard", |s| {
        s.iter().all(|st| *st == ShardState::Healthy)
    });
    let mut committed = 0;
    for ev in &log.events[half..] {
        let pushed = rz.apply(&Op::PushEvent(streaming, ev.clone())).unwrap();
        if let Answer::Push(zoom::warehouse::PushOutcome::Committed(steps)) = pushed {
            committed += steps.len();
        }
    }
    rz.apply(&Op::SealStream(streaming)).unwrap();
    assert!(committed > 0);
    assert_eq!(rz.final_outputs(streaming).unwrap(), run.final_outputs());
    let mut oracle = Zoom::new();
    let sid_o = oracle.register_workflow(spec.clone()).unwrap();
    let vid_o = oracle.admin_view(sid_o).unwrap();
    let loaded = oracle.load_log(sid_o, &log).unwrap();
    for d in run.final_outputs() {
        assert_eq!(
            rz.deep_provenance(streaming, vid, d).unwrap().rows,
            oracle.deep_provenance(loaded, vid_o, d).unwrap().rows
        );
    }
    assert!(rz.health_per_shard().unwrap()[sick].repairs >= 1);

    drop(rz);
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn repaired_shard_keeps_the_slow_log_threshold_set_over_the_wire() {
    const SHARDS: usize = 2;
    let dir = tempdir("settings");
    let config = DaemonConfig {
        shards: SHARDS,
        dir: Some(dir.clone()),
        ..DaemonConfig::default()
    };
    let daemon = Daemon::spawn("127.0.0.1:0", config).unwrap();
    let mut rz = RemoteZoom::connect(daemon.addr(), "settings").unwrap();
    let spec = phylogenomic();
    let run = figure2_run(&spec);
    let log = EventLog::from_run(&run, &spec);
    let probe = run.final_outputs()[0];
    let sid = rz.register_workflow(spec).unwrap();
    let vid = rz.admin_view(sid).unwrap();
    let mapper = ShardRouter::in_memory(SHARDS);
    let on_shard_1 = loop {
        let rid = rz.load_log(sid, &log).unwrap();
        if mapper.shard_of(rid) == 1 {
            break rid;
        }
    };

    // Capture every query, then rebuild shard 1 from its directory.
    rz.slow_queries(Some(0)).unwrap();
    daemon.repair_shard(1).unwrap();

    // The repaired shard still captures a query far below the default
    // 10 ms threshold.
    rz.deep_provenance(on_shard_1, vid, probe).unwrap();
    let captured = rz.slow_queries(None).unwrap();
    assert!(
        captured.iter().any(|q| q.run == on_shard_1),
        "the repair reset shard 1's slow-log threshold: {captured:?}"
    );

    drop(rz);
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn daemon_restart_mid_stream_resumes_via_the_reconnecting_client() {
    let dir = tempdir("restart");
    let spec = phylogenomic();
    let run = figure2_run(&spec);
    let log = EventLog::from_run(&run, &spec);
    let config = || DaemonConfig {
        shards: 2,
        dir: Some(dir.clone()),
        ..DaemonConfig::default()
    };

    let mut daemon = Daemon::spawn("127.0.0.1:0", config()).unwrap();
    let addr = daemon.addr();
    let retry = RemoteRetry {
        max_reconnects: 12,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(100),
        ..RemoteRetry::default()
    };
    let mut rz = RemoteZoom::connect_with(addr, "streamer", retry).unwrap();
    let sid = rz.register_workflow(spec.clone()).unwrap();
    let vid = rz.admin_view(sid).unwrap();
    let loaded = rz.load_log(sid, &log).unwrap();
    rz.checkpoint().unwrap();

    // Open a stream and push half of it, then yank the daemon out from
    // under the client.
    let streaming = rz.begin_stream(sid).unwrap();
    for ev in &log.events[..log.events.len() / 2] {
        rz.apply(&Op::PushEvent(streaming, ev.clone())).unwrap();
    }
    let report = daemon.drain(Duration::from_millis(200));
    assert!(!report.drained, "an open connection cannot drain cleanly");
    assert!(report.conns_aborted >= 1);

    // The in-flight append fails LOUDLY — a stream push must never be
    // silently re-sent, because the daemon might have committed it.
    let lost = rz
        .apply(&Op::PushEvent(streaming, log.events[0].clone()))
        .unwrap_err();
    assert!(
        matches!(lost, RemoteError::ConnectionLost(_)),
        "expected a loud connection-lost failure, got: {lost}"
    );

    // Restart the daemon on the same address and keep using the same
    // client object: idempotent traffic reconnects transparently, with
    // the tenant preserved on a fresh connection.
    let daemon = Daemon::spawn(&addr.to_string(), config()).unwrap();
    rz.ping().unwrap();
    assert!(rz.reconnect_count() >= 1, "client should have reconnected");
    assert_eq!(rz.final_outputs(loaded).unwrap(), run.final_outputs());

    // Resume by streaming the run afresh to completion.
    let resumed = rz.begin_stream(sid).unwrap();
    let mut committed = 0usize;
    for ev in &log.events {
        let pushed = rz.apply(&Op::PushEvent(resumed, ev.clone())).unwrap();
        if let Answer::Push(zoom::warehouse::PushOutcome::Committed(steps)) = pushed {
            committed += steps.len();
        }
    }
    rz.apply(&Op::SealStream(resumed)).unwrap();
    assert_eq!(committed, run.step_count());
    assert_eq!(rz.final_outputs(resumed).unwrap(), run.final_outputs());
    let deep = rz
        .deep_provenance(resumed, vid, run.final_outputs()[0])
        .unwrap();
    assert!(!deep.rows.is_empty());

    drop(rz);
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drain_reports_clean_when_clients_left_and_dirty_when_abandoned() {
    let dir = tempdir("drain");
    let (config, _ios) = fault_config(&dir, 2);
    let mut daemon = Daemon::spawn("127.0.0.1:0", config).unwrap();
    let spec = phylogenomic();
    let log = EventLog::from_run(&figure2_run(&spec), &spec);
    {
        let mut rz = RemoteZoom::connect(daemon.addr(), "tidy").unwrap();
        let sid = rz.register_workflow(spec.clone()).unwrap();
        rz.load_log(sid, &log).unwrap();
        // Client disconnects before the drain.
    }
    // An abandoned client that never says goodbye.
    let abandoned = RemoteZoom::connect(daemon.addr(), "rude").unwrap();

    let report = daemon.drain(Duration::from_millis(300));
    assert!(!report.drained, "the abandoned connection held the drain");
    assert_eq!(report.conns_aborted, 1);
    assert!(report.checkpointed, "healthy shards checkpoint on drain");
    drop(abandoned);

    // A daemon with no connections drains instantly and cleanly.
    let (config2, _ios2) = fault_config(&tempdir("drain2"), 2);
    let mut idle = Daemon::spawn("127.0.0.1:0", config2).unwrap();
    let report = idle.drain(Duration::from_secs(2));
    assert!(report.drained, "nothing was force-closed");
    assert_eq!(report.conns_aborted, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

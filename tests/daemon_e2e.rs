//! End-to-end tests of the `zoomd` daemon: an in-process [`Daemon`]
//! serving real sockets, driven through [`RemoteZoom`].
//!
//! The load-bearing property is *equivalence*: the daemon must answer
//! exactly what the in-process facade answers — same ids, same rows, same
//! error renderings — because that is what lets recorded traces replay
//! against it digest-for-digest and lets `zoomctl --connect` reuse every
//! local code path.

use zoom::core::{Answer, CannedQuery, Cx, Daemon, DaemonConfig, Op, RemoteZoom, Zoom};
use zoom::model::{DataId, EventLog};
use zoom::warehouse::{ReplayOptions, TraceReplayer};
use zoom_gen::library::{figure2_run, phylogenomic};

fn spawn_memory(shards: usize) -> Daemon {
    Daemon::spawn(
        "127.0.0.1:0",
        DaemonConfig {
            shards,
            ..DaemonConfig::default()
        },
    )
    .expect("daemon binds an ephemeral port")
}

#[test]
fn remote_answers_match_local_facade() {
    let daemon = spawn_memory(4);
    let mut rz = RemoteZoom::connect(daemon.addr(), "equiv").unwrap();

    let spec = phylogenomic();
    let run = figure2_run(&spec);
    let log = EventLog::from_run(&run, &spec);

    // Local oracle.
    let mut zoom = Zoom::new();
    let sid_l = zoom.register_workflow(spec.clone()).unwrap();
    let vid_l = zoom.admin_view(sid_l).unwrap();
    let good_l = zoom.build_view(sid_l, &["M2", "M3", "M7"]).unwrap();
    let rid_l = zoom.load_run(sid_l, run.clone()).unwrap();

    // Remote: identical id sequences.
    let sid_r = rz.register_workflow(spec.clone()).unwrap();
    let vid_r = rz.admin_view(sid_r).unwrap();
    let good_r = rz.build_view(sid_r, &["M2", "M3", "M7"]).unwrap();
    let rid_r = rz.load_log(sid_r, &log).unwrap();
    assert_eq!(sid_r, sid_l);
    assert_eq!(vid_r, vid_l);
    assert_eq!(good_r, good_l);
    assert_eq!(rid_r, rid_l);

    // Every canned query form agrees with the local answer.
    for &d in &run.final_outputs() {
        let local = zoom.deep_provenance(rid_l, good_l, d).unwrap();
        let remote = rz.deep_provenance(rid_r, good_r, d).unwrap();
        assert_eq!(local.rows, remote.rows);
        assert_eq!(local.execs, remote.execs);

        let op = Op::ImmediateProvenance(rid_l, vid_l, d);
        let li = format!("{:?}", zoom.read(&Cx::ADMIN, &op).unwrap());
        assert_eq!(li, format!("{:?}", rz.apply(&op).unwrap()));
    }
    for op in [
        Op::FinalOutputs(rid_l),
        Op::DependentsOf(rid_l, vid_l, DataId(1)),
        Op::VisibleData(rid_l, good_l),
        Op::DataBetween(rid_l, good_l, None, None),
    ] {
        // Debug forms: data lists must agree in order, not just as sets.
        let local = format!("{:?}", zoom.read(&Cx::ADMIN, &op).unwrap());
        assert_eq!(local, format!("{:?}", rz.apply(&op).unwrap()), "{op:?}");
    }

    // Error renderings agree byte-for-byte (what digest parity rests on).
    let el = zoom
        .deep_provenance(zoom::core::RunId(99), vid_l, DataId(1))
        .unwrap_err();
    let er = rz
        .deep_provenance(zoom::core::RunId(99), vid_r, DataId(1))
        .unwrap_err();
    assert_eq!(el.to_string(), er.to_string());

    // Canned query plumbing works end to end.
    let ans = rz
        .apply(&CannedQuery::FinalOutputs.op(rid_r, good_r))
        .unwrap();
    assert!(format!("{ans}").contains("data object"));
}

#[test]
fn remote_batch_and_resolve() {
    let daemon = spawn_memory(3);
    let mut rz = RemoteZoom::connect(daemon.addr(), "batch").unwrap();
    let spec = phylogenomic();
    let run = figure2_run(&spec);
    let log = EventLog::from_run(&run, &spec);
    let sid = rz.register_workflow(spec.clone()).unwrap();
    let vid = rz.admin_view(sid).unwrap();
    let runs: Vec<_> = (0..6).map(|_| rz.load_log(sid, &log).unwrap()).collect();

    let finals = run.final_outputs();
    let queries: Vec<_> = runs.iter().map(|&r| (r, vid, finals[0])).collect();
    let Answer::Batch(answers) = rz.apply(&Op::Batch(queries)).unwrap() else {
        panic!("a batch answers a batch");
    };
    assert_eq!(answers.len(), 6);
    for a in &answers {
        assert!(a.is_ok(), "batch slot failed: {a:?}");
    }

    let (rsid, rvid, rruns) = rz.resolve("phylogenomic", Some("UAdmin")).unwrap();
    assert_eq!(rsid, sid);
    assert_eq!(rvid, Some(vid));
    assert_eq!(rruns, runs);
    let missing = rz.resolve("nope", None).unwrap_err();
    assert!(missing.to_string().contains("no workflow named"));
}

#[test]
fn golden_trace_replays_clean_through_the_daemon() {
    let daemon = spawn_memory(4);
    let mut rz = RemoteZoom::connect(daemon.addr(), "golden").unwrap();
    let bytes = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/data/golden.zoomtrace"
    ))
    .expect("golden trace artifact present");
    let replayer = TraceReplayer::from_bytes(&bytes).unwrap();
    let report = replayer.replay(&mut rz, &ReplayOptions::default());
    assert!(report.ops > 1000, "golden trace is non-trivial");
    assert!(
        report.is_clean(),
        "daemon replay diverged: {:?}",
        &report.mismatches[..report.mismatches.len().min(5)]
    );
}

#[test]
fn streaming_ingest_commits_mid_run_over_the_wire() {
    let daemon = spawn_memory(2);
    let mut rz = RemoteZoom::connect(daemon.addr(), "stream").unwrap();
    let spec = phylogenomic();
    let run = figure2_run(&spec);
    let log = EventLog::from_run(&run, &spec);
    let sid = rz.register_workflow(spec.clone()).unwrap();
    let vid = rz.admin_view(sid).unwrap();
    let rid = rz.begin_stream(sid).unwrap();

    let mut committed = 0usize;
    for (i, ev) in log.events.iter().enumerate() {
        let pushed = rz.apply(&Op::PushEvent(rid, ev.clone())).unwrap();
        if let Answer::Push(zoom::warehouse::PushOutcome::Committed(steps)) = pushed {
            committed += steps.len();
            // The committed prefix answers queries mid-stream.
            if i > log.events.len() / 2 {
                let vis = rz.apply(&Op::VisibleData(rid, vid)).unwrap();
                assert!(matches!(vis, Answer::Data(ids) if !ids.is_empty()));
            }
        }
    }
    rz.apply(&Op::SealStream(rid)).unwrap();
    assert_eq!(committed, run.step_count());
    let finals = rz.final_outputs(rid).unwrap();
    assert_eq!(finals, run.final_outputs());
}

#[test]
fn stats_aggregate_across_shards() {
    let daemon = spawn_memory(4);
    let mut rz = RemoteZoom::connect(daemon.addr(), "stats").unwrap();
    let spec = phylogenomic();
    let log = EventLog::from_run(&figure2_run(&spec), &spec);
    let sid = rz.register_workflow(spec.clone()).unwrap();
    for _ in 0..8 {
        rz.load_log(sid, &log).unwrap();
    }
    let per_shard = rz.stats_per_shard().unwrap();
    assert_eq!(per_shard.len(), 4);
    let agg = zoom::warehouse::ShardRouter::aggregate_stats(&per_shard);
    assert_eq!(agg.specs, 1, "broadcast tables are not summed");
    assert_eq!(agg.runs, 8, "per-run counters sum across shards");
    assert!(
        per_shard.iter().all(|s| s.runs < 8),
        "runs actually sharded"
    );

    assert_eq!(rz.health_per_shard().unwrap().len(), 4);
}

#[test]
fn shutdown_requires_the_admin_token_when_configured() {
    let daemon = Daemon::spawn(
        "127.0.0.1:0",
        DaemonConfig {
            shards: 1,
            admin_token: Some("s3cret".to_string()),
            ..DaemonConfig::default()
        },
    )
    .unwrap();
    let mut rz = RemoteZoom::connect(daemon.addr(), "anon").unwrap();
    // No token / wrong token: refused, daemon stays up (even loopback —
    // a configured token always wins).
    for bad in [None, Some("wrong")] {
        let refused = rz.shutdown(bad).unwrap_err();
        assert!(
            refused.to_string().contains("admin token"),
            "expected token refusal, got: {refused}"
        );
    }
    rz.ping().unwrap();
    // The right token stops it.
    rz.shutdown(Some("s3cret")).unwrap();
}

#[test]
fn tokenless_shutdown_is_honoured_from_loopback() {
    let daemon = spawn_memory(1);
    let mut rz = RemoteZoom::connect(daemon.addr(), "local").unwrap();
    rz.shutdown(None).unwrap();
}

#[test]
fn oversized_tenant_names_are_refused() {
    let daemon = spawn_memory(1);
    let huge = "t".repeat(zoom::warehouse::wire::MAX_TENANT_NAME_BYTES + 1);
    let refused = match RemoteZoom::connect(daemon.addr(), &huge) {
        Ok(_) => panic!("oversized tenant name accepted"),
        Err(e) => e,
    };
    assert!(
        refused.to_string().contains("byte cap"),
        "expected name-cap refusal, got: {refused}"
    );
}

#[test]
fn durable_daemon_refuses_a_changed_shard_count() {
    let dir = std::env::temp_dir().join(format!("zoomd-e2e-shards-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = |shards| DaemonConfig {
        shards,
        dir: Some(dir.clone()),
        ..DaemonConfig::default()
    };
    drop(Daemon::spawn("127.0.0.1:0", config(3)).unwrap());
    let err = match Daemon::spawn("127.0.0.1:0", config(2)) {
        Ok(_) => panic!("changed shard count accepted"),
        Err(e) => e,
    };
    assert!(
        err.to_string().contains("created with 3 shard(s)"),
        "expected shard-count refusal, got: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn durable_daemon_survives_restart_with_same_ids() {
    let dir = std::env::temp_dir().join(format!("zoomd-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = phylogenomic();
    let run = figure2_run(&spec);
    let log = EventLog::from_run(&run, &spec);
    let config = || DaemonConfig {
        shards: 3,
        dir: Some(dir.clone()),
        ..DaemonConfig::default()
    };
    let (sid, vid, rid, finals) = {
        let daemon = Daemon::spawn("127.0.0.1:0", config()).unwrap();
        let mut rz = RemoteZoom::connect(daemon.addr(), "durable").unwrap();
        let sid = rz.register_workflow(spec.clone()).unwrap();
        let vid = rz.admin_view(sid).unwrap();
        let rid = rz.load_log(sid, &log).unwrap();
        let finals = rz.final_outputs(rid).unwrap();
        rz.checkpoint().unwrap();
        (sid, vid, rid, finals)
    };
    let daemon = Daemon::spawn("127.0.0.1:0", config()).unwrap();
    let mut rz = RemoteZoom::connect(daemon.addr(), "durable").unwrap();
    assert_eq!(rz.final_outputs(rid).unwrap(), finals);
    let deep = rz.deep_provenance(rid, vid, finals[0]).unwrap();
    assert!(!deep.rows.is_empty());
    // The id sequence continues where it left off.
    let next = rz.load_log(sid, &log).unwrap();
    assert_eq!(next.0, rid.0 + 1);
    drop(rz);
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

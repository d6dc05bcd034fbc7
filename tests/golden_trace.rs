//! The committed golden trace (`tests/data/golden.zoomtrace`, generated by
//! `zoomctl record-demo`) is the compatibility anchor of the capture/replay
//! harness: every build must replay it byte-for-byte clean — each per-op
//! digest matching what was recorded — and two consecutive replays must
//! agree on the chained session digest. A mismatch means either the trace
//! wire format or the query semantics drifted; both are release blockers,
//! not refactors.

use std::process::Command;
use zoom::core::{ReplayOptions, TraceReplayer};
use zoom::Zoom;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/golden.zoomtrace");

#[test]
fn golden_trace_replays_clean_and_deterministic() {
    let bytes = std::fs::read(GOLDEN).expect("golden trace artifact is committed");
    let replayer = TraceReplayer::from_bytes(&bytes).expect("golden trace parses");
    assert!(
        replayer.ops() > 1000,
        "demo trace shrank: {}",
        replayer.ops()
    );

    let mut digests = Vec::new();
    for round in 0..2 {
        let mut z = Zoom::new();
        let report = replayer.replay(&mut z, &ReplayOptions::default());
        assert!(
            report.is_clean(),
            "round {round}: first mismatch {:?}",
            report.mismatches.first()
        );
        assert_eq!(report.ops, replayer.ops());
        digests.push(report.digest);
    }
    assert_eq!(
        digests[0], digests[1],
        "consecutive replays must agree on the session digest"
    );
}

#[test]
fn golden_trace_checks_via_cli() {
    let out = Command::new(env!("CARGO_BIN_EXE_zoomctl"))
        .args(["replay", GOLDEN, "--check"])
        .output()
        .expect("zoomctl spawns");
    assert!(
        out.status.success(),
        "zoomctl replay --check failed: {}\n{}",
        String::from_utf8_lossy(&out.stderr),
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(stdout.contains("mismatches   : 0"), "{stdout}");
}

/// The session shape the golden trace does not cover: a Loop-class run
/// streamed from a causally shuffled log, with deep-provenance probes
/// mid-stream of which some answer and some reject (both outcomes are
/// recorded digests). It replays clean and deterministic into fresh
/// warehouses, and clean through a 2-shard daemon.
#[test]
fn shuffled_stream_with_answering_and_rejected_probes_replays_clean() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use zoom::core::{Daemon, DaemonConfig, RemoteZoom};
    use zoom::model::{LogEvent, UserView};
    use zoom::warehouse::{Cx, Op, RunId, SpecId, TraceRecorder, ViewId, Warehouse};
    use zoom_gen::{
        generate_run, generate_spec, interleaved_log, RunGenConfig, SpecGenConfig, WorkflowClass,
    };

    let mut rng = StdRng::seed_from_u64(2008);
    let spec = generate_spec(
        "replay-stream",
        &SpecGenConfig::new(WorkflowClass::Loop, 16),
        &mut rng,
    );
    let cfg = RunGenConfig {
        user_input: (1, 8),
        data_per_step: (1, 2),
        loop_iterations: (20, 40),
        max_nodes: 2_000,
        max_edges: 2_000,
    };
    let run = generate_run(&spec, &cfg, &mut rng).expect("valid");
    let log = interleaved_log(&spec, &run, &mut rng);

    let (rid, admin, black_box) = (RunId(0), ViewId(0), ViewId(1));
    let mut wh = Warehouse::new();
    let mut rec = TraceRecorder::default();
    rec.record(&mut wh, Op::RegisterSpec(spec.clone()));
    rec.record(&mut wh, Op::RegisterView(SpecId(0), UserView::admin(&spec)));
    rec.record(
        &mut wh,
        Op::RegisterView(SpecId(0), UserView::black_box(&spec)),
    );
    rec.record(&mut wh, Op::BeginStream(SpecId(0)));
    // Probe the datum of every 16th event (not yet in the committed
    // prefix, so these reject) and, whenever a push commits, a datum of
    // the committed prefix (these answer).
    let (mut answered, mut rejected, mut known) = (0, 0, 0);
    for (i, ev) in log.events.iter().enumerate() {
        rec.record(&mut wh, Op::PushEvent(rid, ev.clone()));
        let mut probes = Vec::new();
        if let (0, LogEvent::Read { data, .. } | LogEvent::Wrote { data, .. }) = (i % 16, ev) {
            probes.push(*data);
        }
        let committed = wh.run(rid).expect("streaming run").all_data();
        if committed.len() > known {
            known = committed.len();
            probes.push(committed[known - 1]);
        }
        for d in probes {
            let probe = Op::DeepProvenance(rid, admin, d);
            match wh.read(&Cx::ADMIN, &probe) {
                Ok(_) => answered += 1,
                Err(_) => rejected += 1,
            }
            rec.record(&mut wh, probe);
        }
    }
    assert!(
        answered > 0 && rejected > 0,
        "mid-stream probes must both answer and reject: {answered} answered, {rejected} rejected"
    );
    rec.record(&mut wh, Op::SealStream(rid));
    let finals = wh.run(rid).expect("sealed").final_outputs();
    let inputs = wh.run(rid).expect("sealed").user_inputs().to_vec();
    for view in [admin, black_box] {
        for &d in finals.iter().take(2) {
            rec.record(&mut wh, Op::DeepProvenance(rid, view, d));
            rec.record(&mut wh, Op::ImmediateProvenance(rid, view, d));
        }
        rec.record(&mut wh, Op::DependentsOf(rid, view, inputs[0]));
    }

    let replayer = TraceReplayer::from_bytes(&rec.to_bytes().unwrap()).unwrap();
    let digests: Vec<u64> = (0..2)
        .map(|round| {
            let report = replayer.replay(&mut Warehouse::new(), &ReplayOptions::default());
            assert!(
                report.is_clean(),
                "round {round}: first mismatch {:?}",
                report.mismatches.first()
            );
            report.digest
        })
        .collect();
    assert_eq!(digests[0], digests[1], "replays must agree on the digest");

    let daemon = Daemon::spawn(
        "127.0.0.1:0",
        DaemonConfig {
            shards: 2,
            ..DaemonConfig::default()
        },
    )
    .unwrap();
    let mut rz = RemoteZoom::connect(daemon.addr(), "replay").unwrap();
    let report = replayer.replay(&mut rz, &ReplayOptions::default());
    assert!(
        report.is_clean(),
        "daemon replay diverged: first mismatch {:?}",
        report.mismatches.first()
    );
}

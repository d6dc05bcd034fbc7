//! The operation algebra end to end: one recorded [`Op`] sequence — every
//! op kind, valid and invalid ids alike — answers digest-for-digest the
//! same on every backend, and the facade's trace path behaves exactly
//! like its typed calls (policy refresh included).

use std::collections::BTreeSet;
use zoom::core::{Cx, Daemon, DaemonConfig, Op, RemoteZoom, Zoom};
use zoom::model::{
    DataId, EventLog, LogEvent, RunBuilder, SpecBuilder, StepId, Timestamp, UserView, WorkflowSpec,
};
use zoom::warehouse::{
    DurableWarehouse, ReplayOptions, RunId, SpecId, TraceRecorder, TraceReplayer, TraceTarget,
    ViewId, VisibilityPolicy, Warehouse, WarehouseError,
};

/// A chain `A → B → C`: input d1, d2 between A and B, d3 between B and
/// C, output d4.
fn workload() -> (WorkflowSpec, EventLog) {
    let mut b = SpecBuilder::new("algebra");
    b.analysis("A");
    b.formatting("B");
    b.analysis("C");
    b.from_input("A")
        .edge("A", "B")
        .edge("B", "C")
        .to_output("C");
    let spec = b.build().expect("valid chain");
    let mut rb = RunBuilder::new(&spec);
    rb.user("ada");
    let s: Vec<_> = ["A", "B", "C"]
        .iter()
        .map(|l| rb.step(spec.module(l).expect("module")))
        .collect();
    rb.input_edge(s[0], [1])
        .data_edge(s[0], s[1], [2])
        .data_edge(s[1], s[2], [3])
        .output_edge(s[2], [4]);
    let log = EventLog::from_run(&rb.build().expect("valid run"), &spec);
    (spec, log)
}

/// Every read op over `runs` × `views` × `data`, then one batch of all
/// the `(run, view, data)` triples.
fn reads(runs: &[RunId], views: &[ViewId], data: &[u64]) -> Vec<Op> {
    let mut ops = Vec::new();
    let mut batch = Vec::new();
    for &r in runs {
        ops.push(Op::FinalOutputs(r));
        for &v in views {
            ops.push(Op::VisibleData(r, v));
            ops.push(Op::DataBetween(r, v, None, None));
            ops.push(Op::DataBetween(r, v, Some(StepId(1)), Some(StepId(2))));
            ops.push(Op::DataBetween(r, v, Some(StepId(99)), None));
            for &d in data {
                let d = DataId(d);
                ops.push(Op::DeepProvenance(r, v, d));
                ops.push(Op::ImmediateProvenance(r, v, d));
                ops.push(Op::DependentsOf(r, v, d));
                batch.push((r, v, d));
            }
        }
    }
    ops.push(Op::Batch(batch));
    ops
}

/// Records, on a plain [`Warehouse`], a trace covering every op kind —
/// rejected registrations, unknown specs, runs, views, steps and data
/// ids, a stream with queries between its pushes, and double seals.
fn record_everything() -> Vec<u8> {
    let (spec, log) = workload();
    let missing = SpecId(5);
    let mut wh = Warehouse::new();
    let mut rec = TraceRecorder::default();
    let mut ops = vec![
        Op::RegisterSpec(spec.clone()),
        Op::RegisterSpec(spec.clone()),
        Op::RegisterView(SpecId(0), UserView::admin(&spec)),
        Op::RegisterView(missing, UserView::admin(&spec)),
        Op::BuildView(SpecId(0), vec!["C".to_string()]),
        Op::BuildView(SpecId(0), vec!["C".to_string()]),
        Op::BuildView(SpecId(0), vec!["nope".to_string()]),
        Op::BuildView(missing, vec!["C".to_string()]),
        Op::AdminView(SpecId(0)),
        Op::AdminView(missing),
        Op::RegisterView(SpecId(0), UserView::black_box(&spec)),
    ];
    ops.extend((0..3).map(|_| Op::LoadLog(SpecId(0), log.clone())));
    ops.push(Op::LoadLog(missing, log.clone()));
    ops.push(Op::BeginStream(SpecId(0)));
    ops.push(Op::BeginStream(missing));
    let stream = RunId(3);
    for ev in &log.events {
        ops.push(Op::PushEvent(stream, ev.clone()));
        ops.push(Op::DeepProvenance(stream, ViewId(0), DataId(2)));
    }
    ops.push(Op::PushEvent(RunId(99), log.events[0].clone()));
    ops.push(Op::PushEvent(
        stream,
        LogEvent::StepFinished {
            step: StepId(77),
            time: Timestamp(1),
        },
    ));
    ops.extend([
        Op::SealStream(stream),
        Op::SealStream(stream),
        Op::SealStream(RunId(99)),
    ]);
    let runs = [RunId(0), RunId(1), RunId(2), stream, RunId(99)];
    let views = [ViewId(0), ViewId(1), ViewId(2), ViewId(99)];
    ops.extend(reads(&runs, &views, &[1, 2, 3, 4, 42]));
    for op in ops {
        rec.record(&mut wh, op);
    }
    rec.to_bytes().expect("trace encodes")
}

fn tempdir(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("zoom-op-algebra-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// Replays `r` into `target`, which must match every recorded digest,
/// and returns the replay's chained digest.
fn replay_clean<T: TraceTarget>(r: &TraceReplayer, target: &mut T) -> u64 {
    let report = r.replay(target, &ReplayOptions::default());
    assert!(
        report.is_clean(),
        "{} mismatches, first {:?}",
        report.mismatches.len(),
        report.mismatches.first()
    );
    report.digest
}

#[test]
fn every_op_kind_replays_digest_identical_on_every_backend() {
    let r = TraceReplayer::from_bytes(&record_everything()).expect("trace decodes");
    let kinds: BTreeSet<&str> = r.records().iter().map(|rec| rec.op.name()).collect();
    assert_eq!(kinds.len(), 15, "the trace covers every op kind: {kinds:?}");

    let mut digests = vec![("warehouse", replay_clean(&r, &mut Warehouse::new()))];
    let dir = tempdir("durable");
    let mut dw = DurableWarehouse::open(&dir).expect("opens");
    digests.push(("durable", replay_clean(&r, &mut dw)));
    drop(dw);
    let _ = std::fs::remove_dir_all(&dir);

    // Another tenant's policy hides this very workflow, and a module it
    // does not have: the embedder's own traffic must not notice.
    let mut z = Zoom::new();
    let policy = VisibilityPolicy {
        hidden_modules: vec!["Z".to_string()],
        hidden_workflows: vec!["algebra".to_string()],
    };
    z.set_policy("other", Some(policy)).expect("installs");
    digests.push(("zoom with a policy", replay_clean(&r, &mut z)));

    for (name, shards) in [("remote, 1 shard", 1), ("remote, 3 shards", 3)] {
        let config = DaemonConfig {
            shards,
            ..DaemonConfig::default()
        };
        let daemon = Daemon::spawn("127.0.0.1:0", config).expect("ephemeral port");
        let mut rz = RemoteZoom::connect(daemon.addr(), "replay").expect("connects");
        digests.push((name, replay_clean(&r, &mut rz)));
    }
    for (backend, digest) in &digests {
        assert_eq!(
            *digest, digests[0].1,
            "{backend} diverged from the warehouse"
        );
    }
}

/// A restricted tenant's view of one run: the deep provenance of the
/// final output, then every read op's answer in its debug form.
fn restricted_transcript(z: &Zoom, run: RunId, view: ViewId) -> String {
    let tenant = "restricted";
    let mut t = format!(
        "{:?}\n",
        z.deep_provenance_as(tenant, run, view, DataId(4))
            .map(|p| p.tuples())
            .map_err(|e| e.to_string())
    );
    for op in reads(&[run], &[view], &[1, 2, 3, 4]) {
        let line = match z.read(&Cx::tenant(tenant), &op) {
            Ok(a) => format!("{a:?}"),
            Err(e) => format!("err:{e}"),
        };
        t.push_str(&format!("{op:?}: {line}\n"));
    }
    t
}

#[test]
fn trace_ops_refresh_policies_like_typed_calls() {
    let (spec, log) = workload();
    let policy = VisibilityPolicy {
        hidden_modules: vec!["B".to_string()],
        hidden_workflows: vec![],
    };

    let mut typed = Zoom::new();
    typed
        .set_policy("restricted", Some(policy.clone()))
        .unwrap();
    let sid = typed.register_workflow(spec.clone()).unwrap();
    let view = typed.register_view(sid, UserView::admin(&spec)).unwrap();
    let run = typed.load_log(sid, &log).unwrap();

    let mut traced = Zoom::new();
    traced.set_policy("restricted", Some(policy)).unwrap();
    for op in [
        Op::RegisterSpec(spec.clone()),
        Op::RegisterView(sid, UserView::admin(&spec)),
        Op::LoadLog(sid, log),
    ] {
        traced.apply_trace_op(&op);
    }

    // Tenants read: a write op on the tenant path is refused unapplied.
    let write = typed.read(&Cx::tenant("restricted"), &Op::BeginStream(sid));
    assert!(
        matches!(write, Err(WarehouseError::ReadOnly(_))),
        "{write:?}"
    );

    let want = restricted_transcript(&typed, run, view);
    assert!(want.starts_with("Ok("), "{want}");
    assert_eq!(restricted_transcript(&traced, run, view), want);
}

//! Crash-recovery fault injection for the durable store.
//!
//! Two attack surfaces:
//!
//! 1. **Sync-point kills** — a counting run tallies every write-side
//!    filesystem operation a full workload performs; the sweep then re-runs
//!    the workload with the storage failing (stickily, with an optional
//!    torn-byte prefix) at each operation in turn. After every kill the
//!    directory must reopen cleanly and hold exactly the mutations that
//!    were acknowledged before the fault.
//! 2. **Torn tails** — the journal file is truncated at every byte offset;
//!    `open` must never panic and must recover a prefix of the committed
//!    mutations (whole records up to the cut).

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;
use zoom_model::{
    EventLog, LogEvent, RunBuilder, SpecBuilder, UserView, WorkflowRun, WorkflowSpec,
};
use zoom_warehouse::io::FaultFs;
use zoom_warehouse::{
    codec, durable, DurableOptions, DurableWarehouse, Op, RunId, Store, Warehouse,
};

fn tempdir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("zoom-recovery-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&p).ok();
    p
}

fn spec(name: &str, modules: usize) -> WorkflowSpec {
    let mut b = SpecBuilder::new(name);
    let labels: Vec<String> = (0..modules).map(|i| format!("M{i}")).collect();
    for l in &labels {
        b.analysis(l);
    }
    b.from_input(&labels[0]);
    for w in labels.windows(2) {
        b.edge(&w[0], &w[1]);
    }
    b.to_output(labels.last().unwrap());
    b.build().unwrap()
}

/// A linear run through `s`: d1 → M0 → d2 → M1 → … → d(n+1).
fn run(s: &WorkflowSpec) -> WorkflowRun {
    let mut rb = RunBuilder::new(s);
    let steps: Vec<_> = (0..s.module_count())
        .map(|i| rb.step(s.module(&format!("M{i}")).unwrap()))
        .collect();
    rb.input_edge(steps[0], [1]);
    for (i, w) in steps.windows(2).enumerate() {
        rb.data_edge(w[0], w[1], [i as u64 + 2]);
    }
    rb.output_edge(*steps.last().unwrap(), [s.module_count() as u64 + 1]);
    rb.build().unwrap()
}

/// One workload mutation, replayable against a reference warehouse.
/// Views, runs and streams name their spec so `drive` can resume
/// mid-workload against a store that already holds earlier events; a
/// push or seal goes to the one live stream.
#[derive(Clone)]
enum Event {
    Spec(WorkflowSpec),
    View(&'static str, UserView),
    Run(&'static str, Box<WorkflowRun>),
    Begin(&'static str),
    Push(Box<LogEvent>),
    Seal,
}

/// Applies `ev` to `w`, a durable store or the reference; `false` when
/// it is refused. A run loads as its event log.
fn apply(ev: &Event, w: &mut dyn Store) -> bool {
    let spec = |w: &dyn Store, name: &str| w.tables().spec_by_name(name);
    let op = match ev {
        Event::Spec(s) => Op::RegisterSpec(s.clone()),
        Event::View(name, v) => match spec(w, name) {
            Some(sid) => Op::RegisterView(sid, v.clone()),
            None => return false,
        },
        Event::Run(name, r) => match spec(w, name) {
            Some(sid) => Op::LoadLog(sid, EventLog::from_run(r, w.tables().spec(sid).unwrap())),
            None => return false,
        },
        Event::Begin(name) => match spec(w, name) {
            Some(sid) => Op::BeginStream(sid),
            None => return false,
        },
        Event::Push(e) => match live_stream(w.tables()) {
            Some(rid) => Op::PushEvent(rid, (**e).clone()),
            None => return false,
        },
        Event::Seal => match live_stream(w.tables()) {
            Some(rid) => Op::SealStream(rid),
            None => return false,
        },
    };
    w.apply(&op).is_ok()
}

/// The workload's one live stream, if it has begun and not sealed.
fn live_stream(w: &Warehouse) -> Option<RunId> {
    (0..w.stats().runs as u32)
        .map(RunId)
        .find(|&r| w.is_streaming(r))
}

/// The fixed workload: two workflows, views, three runs.
fn workload() -> Vec<Event> {
    let s1 = spec("wf-one", 3);
    let s2 = spec("wf-two", 2);
    vec![
        Event::Spec(s1.clone()),
        Event::View("wf-one", UserView::admin(&s1)),
        Event::Run("wf-one", Box::new(run(&s1))),
        Event::Run("wf-one", Box::new(run(&s1))),
        Event::Spec(s2.clone()),
        Event::View("wf-two", UserView::admin(&s2)),
        Event::Run("wf-two", Box::new(run(&s2))),
    ]
}

/// `workload()` with streams in it: a stream of wf-one stays open across
/// a run load, then seals; a stream of wf-two is left open at the end.
fn streaming_workload() -> Vec<Event> {
    let s1 = spec("wf-one", 3);
    let s2 = spec("wf-two", 2);
    let pushes = |s: &WorkflowSpec| -> Vec<Event> {
        let log = EventLog::from_run(&run(s), s);
        log.events
            .into_iter()
            .map(|e| Event::Push(Box::new(e)))
            .collect()
    };
    let (one, two) = (pushes(&s1), pushes(&s2));
    let mut events = vec![
        Event::Spec(s1.clone()),
        Event::View("wf-one", UserView::admin(&s1)),
        Event::Begin("wf-one"),
    ];
    events.extend_from_slice(&one[..one.len() / 2]);
    events.push(Event::Run("wf-one", Box::new(run(&s1))));
    events.extend_from_slice(&one[one.len() / 2..]);
    events.extend([
        Event::Seal,
        Event::Spec(s2.clone()),
        Event::View("wf-two", UserView::admin(&s2)),
        Event::Begin("wf-two"),
    ]);
    events.extend_from_slice(&two[..two.len() - 2]);
    events
}

/// Applies the workload to a faulted store, returning how many events were
/// acknowledged (every mutation after the first failure also fails, so the
/// acknowledged set is a prefix).
fn drive(dw: &mut DurableWarehouse, events: &[Event]) -> usize {
    events.iter().take_while(|ev| apply(ev, dw)).count()
}

/// The expected state after the first `committed` events: an in-memory
/// warehouse with the same mutation sequence (ids match because both start
/// empty).
fn reference(events: &[Event], committed: usize) -> Warehouse {
    let mut w = Warehouse::new();
    for ev in &events[..committed] {
        assert!(apply(ev, &mut w));
    }
    w
}

/// Recovered state must equal the reference exactly: same table sizes,
/// the same live streams, the same bytes for every run and the same
/// deep-provenance answers for every complete run at its admin view.
fn assert_state_matches(recovered: &Warehouse, expected: &Warehouse) {
    let (rs, es) = (recovered.stats(), expected.stats());
    assert_eq!(
        (rs.specs, rs.views, rs.runs, rs.steps, rs.data_objects),
        (es.specs, es.views, es.runs, es.steps, es.data_objects),
        "recovered sizes diverge from committed state"
    );
    for name in ["wf-one", "wf-two"] {
        let Some(sid) = expected.spec_by_name(name) else {
            assert!(recovered.spec_by_name(name).is_none());
            continue;
        };
        assert_eq!(recovered.spec_by_name(name), Some(sid));
        let Some(vid) = expected.find_view(sid, "UAdmin") else {
            continue;
        };
        assert_eq!(recovered.find_view(sid, "UAdmin"), Some(vid));
        let runs = expected.runs_of_spec(sid).to_vec();
        assert_eq!(recovered.runs_of_spec(sid), &runs[..]);
        for rid in runs {
            let bytes = |w: &Warehouse| codec::to_bytes(w.run(rid).unwrap()).unwrap();
            assert_eq!(
                bytes(recovered),
                bytes(expected),
                "{name}/{rid} bytes diverge"
            );
            assert_eq!(recovered.is_streaming(rid), expected.is_streaming(rid));
            if expected.is_streaming(rid) {
                continue;
            }
            let out = expected.run(rid).unwrap().final_outputs()[0];
            let want = expected.deep_provenance(rid, vid, out).unwrap();
            let got = recovered.deep_provenance(rid, vid, out).unwrap();
            assert_eq!(got, want, "{name}/{rid} provenance diverges");
        }
    }
}

/// Runs the full kill sweep for one option set: count ops fault-free, then
/// kill at every op index with every torn-byte width.
fn sweep(tag: &str, events: &[Event], options: DurableOptions, torn_widths: &[usize]) {
    // Fault-free counting run: how many write-side ops does the full
    // workload cost, and what does full success look like?
    let dir = tempdir(&format!("{tag}-count"));
    let counting = Arc::new(FaultFs::counting());
    let mut dw = DurableWarehouse::open_with(counting.clone(), &dir, options).unwrap();
    assert_eq!(drive(&mut dw, events), events.len());
    let total_ops = counting.ops();
    drop(dw);
    assert_state_matches(
        DurableWarehouse::open(&dir).unwrap().warehouse(),
        &reference(events, events.len()),
    );
    std::fs::remove_dir_all(&dir).ok();

    assert!(total_ops > 0);
    for k in 0..total_ops {
        for &torn in torn_widths {
            let dir = tempdir(&format!("{tag}-k{k}-t{torn}"));
            let faulty = Arc::new(FaultFs::fail_after(k, torn));
            let committed = match DurableWarehouse::open_with(faulty.clone(), &dir, options) {
                Ok(mut dw) => drive(&mut dw, events),
                // The store died while initializing: nothing was ever
                // acknowledged.
                Err(_) => 0,
            };
            assert!(faulty.tripped(), "k={k} torn={torn}: fault never fired");
            // Recovery on healthy storage must succeed and must hold
            // exactly the acknowledged prefix.
            let recovered = DurableWarehouse::open(&dir)
                .unwrap_or_else(|e| panic!("k={k} torn={torn}: recovery failed: {e}"));
            assert_state_matches(recovered.warehouse(), &reference(events, committed));
            // And the directory is fully healthy afterwards: fsck is clean
            // and the next workload run goes through untouched.
            let report = durable::fsck(&dir)
                .unwrap_or_else(|e| panic!("k={k} torn={torn}: fsck failed: {e}"));
            assert_eq!(report.torn_bytes, 0, "k={k} torn={torn}");
            assert!(report.strays.is_empty(), "k={k} torn={torn}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

#[test]
fn kill_at_every_sync_point() {
    sweep("plain", &workload(), DurableOptions::default(), &[0, 1, 3]);
}

#[test]
fn kill_at_every_sync_point_while_compacting() {
    // A tiny threshold makes every mutation cross a compaction, so the
    // sweep also kills inside snapshot writes, journal rotation, and the
    // manifest swing.
    let options = DurableOptions {
        compact_threshold_bytes: 32,
        auto_compact: true,
        ..DurableOptions::default()
    };
    sweep("compact", &workload(), options, &[0, 3]);
}

#[test]
fn kill_at_every_sync_point_while_compacting_mid_stream() {
    // Every mutation crosses a compaction, so most checkpoints are taken
    // with a stream open: the sweep kills inside every step of a
    // mid-stream checkpoint, and recovery resumes the stream it saved.
    let options = DurableOptions {
        compact_threshold_bytes: 32,
        auto_compact: true,
        ..DurableOptions::default()
    };
    sweep("compact-stream", &streaming_workload(), options, &[0, 3]);
}

/// Truncating the journal at every byte offset: `open` must never fail and
/// must recover exactly the records wholly before the cut.
fn check_every_truncation(dir: &std::path::Path, events: &[Event], committed_full: usize) {
    let manifest = std::fs::read(dir.join("MANIFEST")).unwrap();
    assert!(!manifest.is_empty());
    // Find the live journal through fsck rather than trusting a name.
    let report = durable::fsck(dir).unwrap();
    let wal_path = dir.join(&report.journal);
    let full = std::fs::read(&wal_path).unwrap();
    let magic = 8usize;

    // Frame boundaries: offsets (from file start) at which a record ends.
    let mut ends = vec![magic];
    let mut off = magic;
    while off + 8 <= full.len() {
        let len = u32::from_le_bytes(full[off..off + 4].try_into().unwrap()) as usize;
        if full.len() < off + 8 + len {
            break;
        }
        off += 8 + len;
        ends.push(off);
    }
    assert_eq!(off, full.len(), "workload journal has no torn tail");
    let records_in_tail = ends.len() - 1;
    // Events not in the tail are protected by the snapshot generation.
    let snapshot_events = committed_full - records_in_tail;

    for cut in magic..=full.len() {
        std::fs::write(&wal_path, &full[..cut]).unwrap();
        let recovered =
            DurableWarehouse::open(dir).unwrap_or_else(|e| panic!("cut={cut}: open failed: {e}"));
        let whole = ends.iter().filter(|&&e| e <= cut).count() - 1;
        assert_state_matches(
            recovered.warehouse(),
            &reference(events, snapshot_events + whole),
        );
        drop(recovered);
        // open() truncated the torn remainder; restore for the next cut.
        std::fs::write(&wal_path, &full).unwrap();
    }
}

#[test]
fn truncation_at_every_byte_offset() {
    let events = workload();
    let dir = tempdir("truncate");
    let options = DurableOptions {
        auto_compact: false, // keep every record in the tail
        ..DurableOptions::default()
    };
    let mut dw = DurableWarehouse::open_opts(&dir, options).unwrap();
    assert_eq!(drive(&mut dw, &events), events.len());
    drop(dw);
    check_every_truncation(&dir, &events, events.len());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncation_behind_a_snapshot() {
    // Checkpoint mid-workload: early events live in the snapshot, late ones
    // in the tail. Cutting the tail must never disturb the snapshot state.
    let events = workload();
    let dir = tempdir("truncate-snap");
    let options = DurableOptions {
        auto_compact: false,
        ..DurableOptions::default()
    };
    let mut dw = DurableWarehouse::open_opts(&dir, options).unwrap();
    assert_eq!(drive(&mut dw, &events[..4]), 4);
    dw.checkpoint().unwrap();
    assert_eq!(drive(&mut dw, &events[4..]), events.len() - 4);
    drop(dw);
    check_every_truncation(&dir, &events, events.len());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncation_behind_a_mid_stream_snapshot() {
    // Checkpoint with a stream half pushed: its prefix and bookkeeping
    // live in the snapshot, the rest of its events in the tail.
    let events = streaming_workload();
    let dir = tempdir("truncate-stream");
    let options = DurableOptions {
        auto_compact: false,
        ..DurableOptions::default()
    };
    let mut dw = DurableWarehouse::open_opts(&dir, options).unwrap();
    assert_eq!(drive(&mut dw, &events[..6]), 6);
    assert_eq!(dw.warehouse().active_streams(), 1);
    dw.checkpoint().unwrap();
    assert_eq!(drive(&mut dw, &events[6..]), events.len() - 6);
    drop(dw);
    check_every_truncation(&dir, &events, events.len());
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random workload prefixes under random tail truncation: the recovered
    /// store is always a valid prefix of what was committed.
    #[test]
    fn random_truncation_recovers_a_prefix(
        committed in 1usize..8,
        cut_back in 0usize..200,
    ) {
        let events = workload();
        let committed = committed.min(events.len());
        let dir = tempdir(&format!("prop-{committed}-{cut_back}"));
        let options = DurableOptions { auto_compact: false, ..DurableOptions::default() };
        let mut dw = DurableWarehouse::open_opts(&dir, options).unwrap();
        prop_assert_eq!(drive(&mut dw, &events[..committed]), committed);
        drop(dw);

        let report = durable::fsck(&dir).unwrap();
        let wal_path = dir.join(&report.journal);
        let full = std::fs::read(&wal_path).unwrap();
        let cut = full.len().saturating_sub(cut_back).max(8);
        std::fs::write(&wal_path, &full[..cut]).unwrap();

        let recovered = DurableWarehouse::open(&dir).unwrap();
        let st = recovered.warehouse().stats();
        // A prefix: never more state than committed, and whatever state
        // there is matches the reference replay of that many events.
        let got_events = st.specs + st.views + st.runs;
        prop_assert!(got_events <= committed);
        assert_state_matches(recovered.warehouse(), &reference(&events, got_events));
        std::fs::remove_dir_all(&dir).ok();
    }
}

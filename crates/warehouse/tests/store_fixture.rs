//! The on-disk format, pinned. `tests/data/store-v1/` is a small durable
//! store written by an earlier build with [`write_store`]: a MANIFEST, a
//! snapshot holding the paper's Figure 2 run, and a write-ahead log that
//! streams the same run again, seals it, and ends in a live stream that
//! is half pushed. This build must open that store, answer and count as
//! pinned, write the committed snapshot's bytes again when it checkpoints
//! the snapshot's state, and write the same files when it replays the same
//! operations. `tests/data/store-v1-answers.txt` holds the pinned answers.
//! Regenerate both only for a deliberate change of the format, with the
//! build that defines the new one.

use std::path::{Path, PathBuf};
use zoom_gen::library::{figure2_run, phylogenomic};
use zoom_model::{DataId, EventLog, UserView};
use zoom_warehouse::trace::digest;
use zoom_warehouse::{
    durable, Cx, DurableWarehouse, Op, RunId, SpecId, ViewId, Warehouse, WarehouseStats,
};

/// The committed store.
fn fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/store-v1")
}

/// The committed store's files, in a fixed order.
const FILES: [&str; 3] = [durable::MANIFEST, "snap-000001.zoomwh", "wal-000001.zoomwj"];

fn tempdir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("zoom-store-fixture-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&p).ok();
    std::fs::create_dir_all(&p).unwrap();
    p
}

/// A copy of the committed store to open, since opening may write.
fn copy_of_fixture(name: &str) -> PathBuf {
    let dir = tempdir(name);
    for f in FILES {
        std::fs::copy(fixture().join(f), dir.join(f)).unwrap();
    }
    dir
}

/// The operations that wrote the committed store into `dir`.
fn write_store(dir: &Path) {
    let spec = phylogenomic();
    let run = figure2_run(&spec);
    let log = EventLog::from_run(&run, &spec);
    let mut s = DurableWarehouse::open(dir).unwrap();
    let sid = s.register_spec(spec.clone()).unwrap();
    s.register_view(sid, UserView::admin(&spec)).unwrap();
    s.register_view(sid, UserView::black_box(&spec)).unwrap();
    let relevant = ["M2", "M3", "M7"].map(|l| spec.module(l).unwrap());
    let joe = zoom_views::relev_user_view_builder(&spec, &relevant).unwrap();
    s.register_view(sid, joe.view).unwrap();
    // Run 0 goes into the snapshot.
    s.load_run(sid, run).unwrap();
    s.checkpoint().unwrap();
    // Run 1 is streamed and sealed, run 2 left live: both only in the log.
    let r1 = s.begin_stream(sid).unwrap();
    for ev in &log.events {
        s.stream_push(r1, ev).unwrap();
    }
    s.stream_seal(r1).unwrap();
    let r2 = s.begin_stream(sid).unwrap();
    for ev in &log.events[..log.events.len() / 2] {
        s.stream_push(r2, ev).unwrap();
    }
}

/// The digest of each pinned query's answer (or error), as a golden
/// trace records it.
fn answers(w: &Warehouse) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for r in 0..3 {
        for v in 0..3 {
            for d in [1, 206, 413, 447] {
                let (run, view, data) = (RunId(r), ViewId(v), DataId(d));
                for op in [
                    Op::DeepProvenance(run, view, data),
                    Op::ImmediateProvenance(run, view, data),
                    Op::DependentsOf(run, view, data),
                ] {
                    let name = format!("{} {run} {view} {data}", op.name());
                    out.push((name, format!("{:016x}", digest(&w.read(&Cx::ADMIN, &op)))));
                }
            }
        }
    }
    out
}

#[test]
fn the_committed_store_opens_with_the_pinned_stats() {
    let dir = copy_of_fixture("stats");
    let s = DurableWarehouse::open(&dir).unwrap();
    assert_eq!(
        s.stats(),
        WarehouseStats {
            specs: 1,
            views: 3,
            runs: 3,
            steps: 21,
            data_objects: 925,
            cached_view_runs: 0,
            cached_indexes: 0,
            index_hits: 0,
            index_misses: 0,
            index_build_nanos: 0,
            view_run_hits: 0,
            view_run_misses: 0,
            view_run_evictions: 0,
            journal_records: 1381,
            journal_bytes: 58755,
            compactions: 0,
            epoch: 1,
            degraded: false,
        }
    );
    assert_eq!(s.warehouse().spec_by_name("phylogenomic"), Some(SpecId(0)));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_committed_store_answers_as_pinned() {
    let dir = copy_of_fixture("answers");
    let s = DurableWarehouse::open(&dir).unwrap();
    let got = answers(s.warehouse());
    let text: String = got.iter().map(|(q, d)| format!("{q} {d}\n")).collect();
    assert_eq!(text, PINNED_ANSWERS, "answers:\n{text}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The snapshot's state, checkpointed again, is the committed snapshot
/// byte for byte: decoding and encoding keep the bytes.
#[test]
fn a_recheckpoint_writes_the_committed_snapshot_bytes() {
    let dir = copy_of_fixture("recheckpoint");
    // The snapshot's state alone: an empty log in place of the tail.
    std::fs::write(dir.join(FILES[2]), zoom_warehouse::journal::MAGIC).unwrap();
    let mut s = DurableWarehouse::open(&dir).unwrap();
    s.checkpoint().unwrap();
    assert_eq!(s.epoch(), 2);
    let committed = std::fs::read(fixture().join(FILES[1])).unwrap();
    let rewritten = std::fs::read(dir.join("snap-000002.zoomwh")).unwrap();
    assert!(committed == rewritten, "the snapshot bytes changed");
    std::fs::remove_dir_all(&dir).ok();
}

/// The same operations write the committed files byte for byte.
#[test]
fn the_same_operations_write_the_committed_files() {
    let dir = tempdir("rewrite");
    write_store(&dir);
    for f in FILES {
        let committed = std::fs::read(fixture().join(f)).unwrap();
        let written = std::fs::read(dir.join(f)).unwrap();
        assert!(
            committed == written,
            "`{f}` differs from the committed file"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// One line per query: the op, its run, view and datum, and its digest.
const PINNED_ANSWERS: &str = include_str!("data/store-v1-answers.txt");

//! Snapshot persistence — the "managing" half of *Querying and Managing
//! Provenance*.
//!
//! The whole warehouse (specs, views, runs) serializes to a single snapshot
//! file through the [`crate::codec`] binary format, with a magic header and
//! format version for forward safety. Loading restores the decoded rows in
//! id order through the path journal replay takes (`journal::restore`:
//! accept, id check, commit), so a snapshot is checked exactly as a
//! journal is: every spec, view and run is validated, and a repeated or
//! skipped id, a duplicate spec name or an unknown spec id fails the load.
//! Caches are not persisted; they are rebuilt lazily after load.
//!
//! A live stream's prefix is a run row like any other. Its bookkeeping
//! rides in a tagged section behind the rows, written only while a stream
//! is live, and restored through the same path; a snapshot with no live
//! stream has no section and the bytes it always had.

use crate::codec::{self, CodecError};
use crate::io::{RealFs, StorageIo};
use crate::journal::{self, JournalError, JournalRecord};
use crate::schema::{RunId, RunRow, SpecId, SpecRow, ViewId, ViewRow};
use crate::store::{Warehouse, WarehouseError};
use crate::stream::SavedStream;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::Path;

/// Magic bytes identifying a warehouse snapshot.
pub const MAGIC: &[u8; 8] = b"ZOOMWH\x00\x01";

/// Magic bytes identifying a warehouse snapshot whose rows are followed
/// by one or more tagged sections. A reader of such a snapshot requires a
/// section, so no truncation of one loads as a snapshot without it.
pub(crate) const MAGIC_SECTIONS: &[u8; 8] = b"ZOOMWH\x00\x02";

/// Errors from snapshot save/load.
#[derive(Debug)]
pub enum PersistError {
    /// Filesystem error.
    Io(std::io::Error),
    /// Encoding/decoding error.
    Codec(CodecError),
    /// The file is not a warehouse snapshot (bad magic or version).
    BadHeader,
    /// The snapshot decoded but contains structurally invalid model data.
    Invalid(zoom_model::ModelError),
    /// A row does not continue the rows before it: a repeated or skipped
    /// id, a second spec of one name, or a row of an unknown spec.
    Rows(JournalError),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "io error: {e}"),
            PersistError::Codec(e) => write!(f, "codec error: {e}"),
            PersistError::BadHeader => write!(f, "not a warehouse snapshot (bad header)"),
            PersistError::Invalid(e) => write!(f, "snapshot contains invalid data: {e}"),
            PersistError::Rows(e) => write!(f, "snapshot rows do not restore: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<CodecError> for PersistError {
    fn from(e: CodecError) -> Self {
        PersistError::Codec(e)
    }
}

impl From<JournalError> for PersistError {
    fn from(e: JournalError) -> Self {
        match e {
            JournalError::Warehouse(WarehouseError::Model(e)) => PersistError::Invalid(e),
            e => PersistError::Rows(e),
        }
    }
}

/// The snapshot body: every row with its id, in id order. Saving encodes
/// borrowed rows (`S = &SpecRow`, ...), loading decodes owned ones; both
/// have the same bytes.
#[derive(Serialize, Deserialize)]
struct Snapshot<S, V, R> {
    specs: Vec<(SpecId, S)>,
    views: Vec<(ViewId, V)>,
    runs: Vec<(RunId, R)>,
}

/// A decoded snapshot body.
type Rows = Snapshot<SpecRow, ViewRow, RunRow>;

/// A snapshot body behind [`MAGIC_SECTIONS`]: the rows, then the sections.
#[derive(Serialize, Deserialize)]
struct Sectioned<S, V, R, X> {
    rows: Snapshot<S, V, R>,
    sections: Vec<Section<X>>,
}

/// One tagged section. New kinds go at the END: the codec encodes the tag
/// as the variant's index.
#[derive(Serialize, Deserialize)]
enum Section<X> {
    /// Every live stream's bookkeeping, in run-id order.
    Streams(Vec<(RunId, X)>),
}

/// `rows` paired with their ids, which are their positions.
fn numbered<I, R>(rows: &[R], id: fn(u32) -> I) -> Vec<(I, &R)> {
    (0u32..).map(id).zip(rows).collect()
}

/// Saves the warehouse to `path`, atomically and durably: the snapshot is
/// written (and fsynced) under a unique sibling temp name, renamed over
/// `path`, and the parent directory is fsynced so the rename itself
/// survives a crash. Concurrent savers never collide on the temp file.
pub fn save(warehouse: &Warehouse, path: &Path) -> Result<(), PersistError> {
    save_with(&RealFs, warehouse, path)
}

/// [`save`] on an explicit storage backend.
pub fn save_with(
    io: &dyn StorageIo,
    warehouse: &Warehouse,
    path: &Path,
) -> Result<(), PersistError> {
    let (specs, views, runs) = warehouse.rows();
    let rows = Snapshot {
        specs: numbered(specs, SpecId),
        views: numbered(views, ViewId),
        runs: numbered(runs, RunId),
    };
    let streams = warehouse.live_streams();
    let mut bytes = Vec::new();
    if streams.is_empty() {
        bytes.extend_from_slice(MAGIC);
        codec::encode_into(&mut bytes, &rows)?;
    } else {
        bytes.extend_from_slice(MAGIC_SECTIONS);
        let sections = vec![Section::Streams(streams)];
        codec::encode_into(&mut bytes, &Sectioned { rows, sections })?;
    }
    let tmp = crate::io::unique_temp_path(path);
    io.write(&tmp, &bytes)?;
    if let Err(e) = io.rename(&tmp, path) {
        let _ = io.remove_file(&tmp);
        return Err(e.into());
    }
    crate::io::sync_parent(io, path)?;
    Ok(())
}

/// Loads a warehouse from `path`.
pub fn load(path: &Path) -> Result<Warehouse, PersistError> {
    load_with(&RealFs, path)
}

/// [`load`] from an explicit storage backend.
pub fn load_with(io: &dyn StorageIo, path: &Path) -> Result<Warehouse, PersistError> {
    let bytes = io.read(path)?;
    let (magic, body) = bytes.split_at(MAGIC.len().min(bytes.len()));
    let (Snapshot { specs, views, runs }, sections): (Rows, Vec<Section<SavedStream>>) =
        if magic == MAGIC {
            (codec::from_bytes(body)?, Vec::new())
        } else if magic == MAGIC_SECTIONS {
            let Sectioned { rows, sections } = codec::from_bytes(body)?;
            if sections.is_empty() {
                return Err(CodecError::Invalid("no section behind the rows").into());
            }
            (rows, sections)
        } else {
            return Err(PersistError::BadHeader);
        };
    let mut w = Warehouse::new();
    for (id, row) in specs {
        journal::restore(&mut w, JournalRecord::Spec(id, row))?;
    }
    for (id, row) in views {
        journal::restore(&mut w, JournalRecord::View(id, row))?;
    }
    for (id, row) in runs {
        journal::restore(&mut w, JournalRecord::Run(id, Box::new(row)))?;
    }
    for Section::Streams(streams) in sections {
        for (id, state) in streams {
            journal::restore(&mut w, JournalRecord::StreamResume(id, Box::new(state)))?;
        }
    }
    Ok(w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::{fsck, DurableWarehouse};
    use std::collections::BTreeMap;
    use zoom_graph::digraph::{ADJACENCY_MISMATCH, ENDPOINT_OUT_OF_RANGE};
    use zoom_graph::{EdgeId, NodeId};
    use zoom_model::{
        DataId, EventLog, LogEvent, RunBuilder, RunNode, SpecBuilder, SpecNode, StepId,
        UserInputMeta, UserView, WorkflowSpec,
    };

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("zoom-warehouse-test-{name}-{}", std::process::id()));
        p
    }

    fn populated() -> Warehouse {
        let mut w = Warehouse::new();
        let mut b = SpecBuilder::new("persist-spec");
        b.analysis("A");
        b.analysis("B");
        b.from_input("A").edge("A", "B").to_output("B");
        let s = b.build().unwrap();
        let sid = w.register_spec(s.clone()).unwrap();
        w.register_view(sid, UserView::admin(&s)).unwrap();
        w.register_view(sid, UserView::black_box(&s)).unwrap();
        let mut rb = RunBuilder::new(&s);
        let s1 = rb.step(s.module("A").unwrap());
        let s2 = rb.step(s.module("B").unwrap());
        rb.input_edge(s1, [1])
            .data_edge(s1, s2, [2])
            .output_edge(s2, [3]);
        w.load_run(sid, rb.build().unwrap()).unwrap();
        w
    }

    /// `w`'s rows, owned, for a test to doctor.
    fn rows_of(w: &Warehouse) -> Rows {
        fn owned<I, R: Clone>(rows: &[R], id: fn(u32) -> I) -> Vec<(I, R)> {
            (0u32..).map(id).zip(rows.iter().cloned()).collect()
        }
        let (specs, views, runs) = w.rows();
        Snapshot {
            specs: owned(specs, SpecId),
            views: owned(views, ViewId),
            runs: owned(runs, RunId),
        }
    }

    /// Writes `rows` as a snapshot file at `path`.
    fn write_rows(path: &Path, rows: &Rows) {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&codec::to_bytes(rows).unwrap());
        std::fs::write(path, &bytes).unwrap();
    }

    #[test]
    fn roundtrip() {
        let w = populated();
        let path = temp_path("roundtrip");
        save(&w, &path).unwrap();
        let w2 = load(&path).unwrap();
        std::fs::remove_file(&path).ok();

        let s1 = w.stats();
        let mut s2 = w2.stats();
        // Caches (and their counters) are not persisted.
        s2.cached_view_runs = s1.cached_view_runs;
        s2.cached_indexes = s1.cached_indexes;
        s2.index_hits = s1.index_hits;
        s2.index_misses = s1.index_misses;
        s2.index_build_nanos = s1.index_build_nanos;
        assert_eq!(s1, s2);

        // Queries still work and agree after reload.
        let sid = w2.spec_by_name("persist-spec").unwrap();
        let admin = w2.find_view(sid, "UAdmin").unwrap();
        let rid = w2.runs_of_spec(sid)[0];
        let res = w2.deep_provenance(rid, admin, DataId(3)).unwrap();
        assert_eq!(res.tuples(), 3);

        // Ids continue after the reloaded maximum.
        let mut w3 = w2;
        let mut b = SpecBuilder::new("another");
        b.analysis("X");
        b.from_input("X").to_output("X");
        let nid = w3.register_spec(b.build().unwrap()).unwrap();
        assert!(nid.0 >= 1);
    }

    #[test]
    fn bad_header_rejected() {
        let path = temp_path("badheader");
        std::fs::write(&path, b"NOTASNAPSHOT").unwrap();
        assert!(matches!(load(&path), Err(PersistError::BadHeader)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let path = temp_path("missing-never-created");
        assert!(matches!(load(&path), Err(PersistError::Io(_))));
    }

    #[test]
    fn structurally_invalid_snapshot_rejected() {
        // A run row naming a spec the snapshot does not hold.
        let mut rows = rows_of(&populated());
        rows.runs[0].1.spec = SpecId(42);
        let path = temp_path("invalid");
        write_rows(&path, &rows);
        let Err(err) = load(&path) else {
            panic!("loaded a run of an unknown spec")
        };
        assert_eq!(
            err.to_string(),
            "snapshot rows do not restore: warehouse error: spec#42 not found"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn doctored_view_rejected_on_load() {
        // A view that passes the registration-time name check but does not
        // partition the stored spec: built against a different spec that
        // shares the name. Such bytes must not reach query time.
        let mut rows = rows_of(&populated());
        let mut b = SpecBuilder::new("persist-spec");
        b.analysis("A");
        b.from_input("A").to_output("A");
        let impostor_spec = b.build().unwrap();
        rows.views[0].1.view = UserView::admin(&impostor_spec);
        let path = temp_path("doctored-view");
        write_rows(&path, &rows);
        assert!(matches!(load(&path), Err(PersistError::Invalid(_))));
        std::fs::remove_file(&path).ok();
    }

    /// A graph's encoded fields: its nodes with their adjacency lists,
    /// and its edges.
    #[derive(Serialize, Deserialize)]
    struct RawGraph<N, E> {
        nodes: Vec<RawNode<N>>,
        edges: Vec<RawEdge<E>>,
    }

    #[derive(Serialize, Deserialize)]
    struct RawNode<N> {
        weight: N,
        out_edges: Vec<EdgeId>,
        in_edges: Vec<EdgeId>,
    }

    #[derive(Serialize, Deserialize)]
    struct RawEdge<E> {
        weight: E,
        source: NodeId,
        target: NodeId,
    }

    /// A spec's encoded fields, as [`RawRun`] mirrors a run's.
    #[derive(Serialize, Deserialize)]
    struct RawSpec {
        name: String,
        graph: RawGraph<SpecNode, ()>,
        by_label: BTreeMap<String, NodeId>,
    }

    /// A run's encoded fields, in the run's own encoding order, with its
    /// tables as ordered maps: decoding a run's bytes into this and
    /// encoding it back gives the same bytes, so a test can doctor what
    /// no constructor would build.
    #[derive(Serialize, Deserialize)]
    struct RawRun {
        spec_name: String,
        graph: RawGraph<RunNode, Vec<DataId>>,
        node_of_step: BTreeMap<StepId, NodeId>,
        producer: BTreeMap<DataId, NodeId>,
        user_input_meta: BTreeMap<DataId, UserInputMeta>,
        params: BTreeMap<StepId, BTreeMap<String, String>>,
    }

    /// The error text a doctored run gets from `validate`, through a
    /// snapshot load and through a journal `Run` record. Each case pins
    /// the exact error, including which one wins when a run has two
    /// faults.
    #[test]
    fn doctored_producer_tables_fail_with_the_pinned_errors() {
        let mut rows = rows_of(&populated());
        let (rid, base) = rows.runs.pop().unwrap();
        // The snapshot rows without the run: what the journal continues.
        let bare = temp_path("doctored-producers-bare");
        write_rows(&bare, &rows);
        let bytes = codec::to_bytes(&base.run).unwrap();
        let raw: RawRun = codec::from_bytes(&bytes).unwrap();
        assert_eq!(codec::to_bytes(&raw).unwrap(), bytes, "RawRun mirrors runs");
        // Nodes: 0 input, 2 S1, 3 S2. Edges: 0 input -[d1]-> S1,
        // 1 S1 -[d2]-> S2, 2 S2 -[d3]-> output.
        fn node(i: usize) -> NodeId {
            NodeId::from_index(i)
        }
        let mismatch = "run does not match specification";
        let sync = format!("{mismatch}: producer index out of sync with edges");
        let twice = "data object d2 produced by two steps: S0 and S0".to_string();
        let unsorted =
            |e: &str| format!("{mismatch}: data on run edge {e} is not sorted and deduplicated");
        type Case = (&'static str, fn(&mut RawRun), String);
        let cases: [Case; 8] = [
            (
                "step at a node the run lacks",
                |r| {
                    r.node_of_step.insert(StepId(1), node(99));
                },
                "unknown step id S1".to_string(),
            ),
            (
                "missing datum",
                |r| {
                    r.producer.remove(&DataId(2));
                },
                sync.clone(),
            ),
            (
                "extra datum",
                |r| {
                    r.producer.insert(DataId(99), node(2));
                },
                sync.clone(),
            ),
            (
                "wrong producer",
                |r| {
                    r.producer.insert(DataId(2), node(0));
                },
                sync,
            ),
            (
                "two sources",
                |r| r.graph.edges[2].weight.insert(0, DataId(2)),
                twice.clone(),
            ),
            (
                "unsorted edge",
                |r| r.graph.edges[0].weight.push(DataId(0)),
                unsorted("input -> S1"),
            ),
            (
                "wrong producer, then an unsorted edge",
                |r| {
                    r.producer.insert(DataId(1), node(3));
                    r.graph.edges[1].weight.push(DataId(0));
                },
                unsorted("S1 -> S2"),
            ),
            (
                "wrong producer, then two sources",
                |r| {
                    r.producer.insert(DataId(1), node(3));
                    r.graph.edges[2].weight.insert(0, DataId(2));
                },
                twice,
            ),
        ];
        for (case, doctor, error) in cases {
            let mut raw: RawRun = codec::from_bytes(&bytes).unwrap();
            doctor(&mut raw);
            let run = codec::from_bytes(&codec::to_bytes(&raw).unwrap()).unwrap();
            let row = RunRow {
                spec: base.spec,
                run,
            };

            rows.runs = vec![(rid, row.clone())];
            let path = temp_path("doctored-producers");
            write_rows(&path, &rows);
            let Err(err) = load(&path) else {
                panic!("{case}: loaded")
            };
            std::fs::remove_file(&path).ok();
            let want = format!("snapshot contains invalid data: {error}");
            assert_eq!(err.to_string(), want, "{case}");

            let mut w = load(&bare).unwrap();
            let frame = journal::encode_frame(&JournalRecord::Run(rid, Box::new(row))).unwrap();
            let Err(err) = journal::replay_body(&mut w, &frame) else {
                panic!("{case}: replayed")
            };
            let want = format!("warehouse error: model error: {error}");
            assert_eq!(err.to_string(), want, "{case}");
        }
        std::fs::remove_file(&bare).ok();
    }

    /// `bytes` with its one occurrence of `from` replaced by `to`.
    fn splice(bytes: &[u8], from: &[u8], to: &[u8]) -> Vec<u8> {
        let at: Vec<usize> = (0..=bytes.len() - from.len())
            .filter(|&i| bytes[i..].starts_with(from))
            .collect();
        assert_eq!(at.len(), 1, "the spliced bytes occur once");
        [&bytes[..at[0]], to, &bytes[at[0] + from.len()..]].concat()
    }

    /// A spec or a run whose encoded adjacency lists disagree with its
    /// edge list, or whose edge names a node it lacks, fails to decode
    /// with a pinned error, never a panic:
    /// through a snapshot load and through a durable store whose snapshot
    /// holds it. A doctored spec does not decode at all, so it cannot
    /// reach `Warehouse::register_spec`.
    #[test]
    fn doctored_adjacency_lists_fail_with_the_pinned_error() {
        let rows = rows_of(&populated());
        let snapshot = codec::to_bytes(&rows).unwrap();
        let spec = codec::to_bytes(&rows.specs[0].1.spec).unwrap();
        let run = codec::to_bytes(&rows.runs[0].1.run).unwrap();
        // Run nodes: 0 input, 1 output, 2 S1, 3 S2. Edges: 0 input -> S1,
        // 1 S1 -> S2, 2 S2 -> output. Spec nodes: 0 input, 1 output,
        // 2 A, 3 B, with the same three edges.
        type Doctor<T> = fn(&mut T);
        let run_cases: [(&str, Doctor<RawRun>, &str); 5] = [
            (
                "an out-list naming edge 9999",
                |r| r.graph.nodes[2].out_edges.push(EdgeId::from_index(9999)),
                ADJACENCY_MISMATCH,
            ),
            (
                "an out-list missing its edge",
                |r| r.graph.nodes[2].out_edges.clear(),
                ADJACENCY_MISMATCH,
            ),
            (
                "an in-list naming edge 9999",
                |r| r.graph.nodes[3].in_edges.push(EdgeId::from_index(9999)),
                ADJACENCY_MISMATCH,
            ),
            (
                "an in-list naming another edge",
                |r| r.graph.nodes[3].in_edges = vec![EdgeId::from_index(2)],
                ADJACENCY_MISMATCH,
            ),
            (
                "an edge into node 99",
                |r| r.graph.edges[1].target = NodeId::from_index(99),
                ENDPOINT_OUT_OF_RANGE,
            ),
        ];
        let spec_cases: [(&str, Doctor<RawSpec>); 2] = [
            ("an out-list naming edge 9999", |s| {
                s.graph.nodes[0].out_edges.push(EdgeId::from_index(9999))
            }),
            ("an in-list missing its edge", |s| {
                s.graph.nodes[1].in_edges.clear()
            }),
        ];
        let mut doctored: Vec<(String, Vec<u8>, &str)> = Vec::new();
        for (case, doctor, error) in run_cases {
            let mut raw: RawRun = codec::from_bytes(&run).unwrap();
            doctor(&mut raw);
            let bytes = codec::to_bytes(&raw).unwrap();
            let Err(err) = codec::from_bytes::<zoom_model::WorkflowRun>(&bytes) else {
                panic!("run with {case}: decoded")
            };
            assert_eq!(err.to_string(), error, "run with {case}");
            let body = splice(&snapshot, &run, &bytes);
            doctored.push((format!("run with {case}"), body, error));
        }
        for (case, doctor) in spec_cases {
            let mut raw: RawSpec = codec::from_bytes(&spec).unwrap();
            assert_eq!(
                codec::to_bytes(&raw).unwrap(),
                spec,
                "RawSpec mirrors specs"
            );
            doctor(&mut raw);
            let bytes = codec::to_bytes(&raw).unwrap();
            let Err(err) = codec::from_bytes::<WorkflowSpec>(&bytes) else {
                panic!("spec with {case}: decoded")
            };
            assert_eq!(err.to_string(), ADJACENCY_MISMATCH, "spec with {case}");
            let body = splice(&snapshot, &spec, &bytes);
            doctored.push((format!("spec with {case}"), body, ADJACENCY_MISMATCH));
        }
        let dir = temp_path("adjacency-durable");
        std::fs::remove_dir_all(&dir).ok();
        DurableWarehouse::open(&dir).unwrap().checkpoint().unwrap();
        let snap = dir.join(fsck(&dir).unwrap().snapshot.unwrap());
        for (case, body, error) in doctored {
            let want = format!("codec error: {error}");
            let bytes = [&MAGIC[..], &body].concat();
            let path = temp_path("adjacency");
            std::fs::write(&path, &bytes).unwrap();
            let Err(err) = load(&path) else {
                panic!("{case}: loaded")
            };
            std::fs::remove_file(&path).ok();
            assert_eq!(err.to_string(), want, "{case}");

            std::fs::write(&snap, &bytes).unwrap();
            let Err(err) = DurableWarehouse::open(&dir) else {
                panic!("{case}: opened")
            };
            assert_eq!(err.to_string(), format!("snapshot error: {want}"), "{case}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Rows that repeat or skip an id, or name a second spec of one name,
    /// fail to restore with an error, never a panic: through [`load`], and
    /// through a durable store whose snapshot holds them.
    #[test]
    fn rows_that_do_not_continue_fail_with_an_error() {
        let mut b = SpecBuilder::new("other-spec");
        b.analysis("X");
        b.from_input("X").to_output("X");
        let other = SpecRow {
            spec: b.build().unwrap(),
        };
        let mismatch = |got: &str, assigned: &str| {
            format!("id mismatch: record says {got}, restore assigned {assigned}")
        };
        let named_twice =
            "warehouse error: a specification named `persist-spec` is already registered";
        type Case = (&'static str, Box<dyn Fn(&mut Rows)>, String);
        let cases: [Case; 6] = [
            (
                "spec row written twice",
                Box::new(|r| r.specs.push(r.specs[0].clone())),
                named_twice.to_string(),
            ),
            (
                "repeated spec id, another name",
                Box::new(move |r| r.specs.push((SpecId(0), other.clone()))),
                mismatch("spec#0", "spec#1"),
            ),
            (
                "repeated view id",
                Box::new(|r| r.views.push(r.views[0].clone())),
                mismatch("view#0", "view#2"),
            ),
            (
                "repeated run id",
                Box::new(|r| r.runs.push(r.runs[0].clone())),
                mismatch("run#0", "run#1"),
            ),
            (
                "gap in the run ids",
                Box::new(|r| r.runs[0].0 = RunId(1)),
                mismatch("run#1", "run#0"),
            ),
            (
                "two specs, one name",
                Box::new(|r| r.specs.push((SpecId(1), r.specs[0].1.clone()))),
                named_twice.to_string(),
            ),
        ];
        let dir = temp_path("rows-durable");
        std::fs::remove_dir_all(&dir).ok();
        DurableWarehouse::open(&dir).unwrap().checkpoint().unwrap();
        let snap = dir.join(fsck(&dir).unwrap().snapshot.unwrap());
        for (case, doctor, error) in cases {
            let mut rows = rows_of(&populated());
            doctor(&mut rows);
            let want = format!("snapshot rows do not restore: {error}");
            let path = temp_path("rows");
            write_rows(&path, &rows);
            let Err(err) = load(&path) else {
                panic!("{case}: loaded")
            };
            std::fs::remove_file(&path).ok();
            assert_eq!(err.to_string(), want, "{case}");

            write_rows(&snap, &rows);
            let Err(err) = DurableWarehouse::open(&dir) else {
                panic!("{case}: opened")
            };
            assert_eq!(err.to_string(), format!("snapshot error: {want}"), "{case}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_does_not_clobber_tmp_siblings() {
        // The old implementation wrote to `path.with_extension("tmp")`,
        // destroying any real `.tmp` sibling and colliding across savers.
        let w = populated();
        let path = temp_path("tmp-sibling");
        let sibling = path.with_extension("tmp");
        std::fs::write(&sibling, b"user data, not ours").unwrap();
        save(&w, &path).unwrap();
        assert_eq!(std::fs::read(&sibling).unwrap(), b"user data, not ours");
        // No stray temp files left behind.
        load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&sibling).ok();
    }

    #[test]
    fn truncated_body_rejected() {
        let w = populated();
        let path = temp_path("truncated");
        save(&w, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();
        assert!(matches!(load(&path), Err(PersistError::Codec(_))));
        std::fs::remove_file(&path).ok();
    }

    /// `populated()` plus two live streams of its spec, one pushed through
    /// most of its run's log and one through a few events, with the events
    /// each has left.
    fn with_two_streams() -> (Warehouse, Vec<(RunId, Vec<LogEvent>)>) {
        let mut w = populated();
        let spec = w.spec(SpecId(0)).unwrap().clone();
        let log = EventLog::from_run(w.run(RunId(0)).unwrap(), &spec);
        let mut rest = Vec::new();
        for cut in [log.events.len() - 2, 3] {
            let rid = w.begin_stream(SpecId(0)).unwrap();
            for ev in &log.events[..cut] {
                w.stream_push(rid, ev).unwrap();
            }
            rest.push((rid, log.events[cut..].to_vec()));
        }
        (w, rest)
    }

    /// Pushes what is left of every stream and seals it; errors are
    /// answers, only a panic fails.
    fn finish(w: &mut Warehouse, rest: &[(RunId, Vec<LogEvent>)]) -> Vec<String> {
        let mut answers = Vec::new();
        for (rid, events) in rest {
            for ev in events {
                answers.push(format!("{:?}", w.stream_push(*rid, ev)));
            }
            answers.push(format!("{:?}", w.stream_seal(*rid)));
        }
        answers
    }

    #[test]
    fn live_streams_ride_in_a_sectioned_snapshot() {
        let path = temp_path("sectioned");
        save(&populated(), &path).unwrap();
        assert_eq!(&std::fs::read(&path).unwrap()[..8], MAGIC);
        let (mut w, rest) = with_two_streams();
        save(&w, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(&bytes[..8], MAGIC_SECTIONS);
        let mut loaded = load(&path).unwrap();
        assert_eq!(loaded.active_streams(), 2);
        // Load then save writes the same bytes.
        save(&loaded, &path).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        // Both streams go on as in the store that saved them.
        assert_eq!(finish(&mut loaded, &rest), finish(&mut w, &rest));
        for (rid, _) in &rest {
            let run = |w: &Warehouse| codec::to_bytes(w.run(*rid).unwrap()).unwrap();
            assert_eq!(run(&loaded), run(&w));
        }
        assert_eq!(loaded.active_streams(), 0);
        std::fs::remove_file(&path).ok();
    }

    /// Every truncation of a snapshot holding two live streams fails to
    /// load, through `load` and through a durable open, without a panic.
    /// A snapshot carries no checksum, so a changed byte can land where
    /// any value is valid (a datum's id, a user's name); random changes
    /// must fail typed or load a store that takes the rest of both
    /// streams without a panic.
    #[test]
    fn truncated_or_changed_two_stream_snapshots_never_panic() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let (w, rest) = with_two_streams();
        let dir = temp_path("two-stream-dir");
        std::fs::remove_dir_all(&dir).ok();
        // A durable directory whose snapshot is `w`'s.
        DurableWarehouse::open(&dir).unwrap().checkpoint().unwrap();
        let snap = dir.join(fsck(&dir).unwrap().snapshot.unwrap());
        save(&w, &snap).unwrap();
        let full = std::fs::read(&snap).unwrap();
        assert_eq!(DurableWarehouse::open(&dir).unwrap().stats().runs, 3);
        assert_eq!(&full[..8], MAGIC_SECTIONS);
        assert_eq!(load(&snap).unwrap().active_streams(), 2);
        for cut in 0..full.len() {
            std::fs::write(&snap, &full[..cut]).unwrap();
            assert!(load(&snap).is_err(), "cut {cut} loaded");
            assert!(DurableWarehouse::open(&dir).is_err(), "cut {cut} opened");
        }
        let mut rng = StdRng::seed_from_u64(27);
        let (mut refused, mut loaded) = (0, 0);
        for _ in 0..2000 {
            let mut bytes = full.clone();
            for _ in 0..rng.random_range(1..4usize) {
                let at = rng.random_range(8..bytes.len());
                bytes[at] ^= rng.random_range(1..=255u8);
            }
            std::fs::write(&snap, &bytes).unwrap();
            match load(&snap) {
                Ok(mut w) => {
                    finish(&mut w, &rest);
                    loaded += 1;
                }
                Err(_) => refused += 1,
            }
            let _ = DurableWarehouse::open(&dir);
        }
        assert!(refused > loaded, "{refused} refused, {loaded} loaded");
        std::fs::remove_dir_all(&dir).ok();
    }
}

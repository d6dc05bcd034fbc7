//! Differential test of streams that live across checkpoints and reopens.
//!
//! Several interleaved zoom-gen logs stream at once into a
//! [`DurableWarehouse`] on [`FaultFs`] with a small compaction threshold,
//! so snapshots are taken with streams open all the time; the test also
//! checkpoints and reopens at random points. An in-memory twin takes the
//! same events. Every push outcome, every probe answer, every sealed run's
//! encoded bytes, and the rendered error of every invalid event injected
//! after a resume must be equal on both.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use zoom_gen::library::{
    figure2_run, phylogenomic, provenance_challenge, provenance_challenge_run,
};
use zoom_gen::{
    generate_run, generate_spec, interleaved_log, RunGenConfig, RunKind, SpecGenConfig,
    WorkflowClass,
};
use zoom_model::{DataId, LogEvent, StepId, Timestamp, UserView, WorkflowRun, WorkflowSpec};
use zoom_warehouse::io::FaultFs;
use zoom_warehouse::{
    codec, DurableError, DurableOptions, DurableWarehouse, RunId, SpecId, ViewId, Warehouse,
    WarehouseError,
};

/// Streams per seed, and how many may be open at once.
const STREAMS: usize = 8;
const OPEN: usize = 3;

fn tempdir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("zoom-stream-resume-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The workflows streamed: two from the library with their fixed runs,
/// and a generated looping one with a fresh run per stream.
fn workflows(rng: &mut StdRng) -> Vec<(WorkflowSpec, Vec<WorkflowRun>)> {
    let phylo = phylogenomic();
    let fig2 = figure2_run(&phylo);
    let challenge = provenance_challenge();
    let challenge_run = provenance_challenge_run(&challenge);
    let looping = generate_spec("looping", &SpecGenConfig::new(WorkflowClass::Loop, 10), rng);
    let cfg = RunGenConfig::for_kind(RunKind::Small);
    let runs = (0..3)
        .map(|_| generate_run(&looping, &cfg, rng).unwrap())
        .collect();
    vec![
        (phylo, vec![fig2]),
        (challenge, vec![challenge_run]),
        (looping, runs),
    ]
}

/// One stream: its run id, view, log, and what the test has pushed of it.
struct Stream {
    run: RunId,
    view: ViewId,
    events: Vec<LogEvent>,
    next: usize,
    clock: Timestamp,
    started: Vec<(StepId, String)>,
    finished: BTreeSet<StepId>,
    written: BTreeSet<DataId>,
    /// Data read before any write: user inputs as the stream saw them.
    user_read: BTreeSet<DataId>,
}

impl Stream {
    fn note(&mut self, ev: &LogEvent) {
        self.clock = ev.time();
        match ev {
            LogEvent::StepStarted { step, module, .. } => {
                self.started.push((*step, module.clone()))
            }
            LogEvent::StepFinished { step, .. } => {
                self.finished.insert(*step);
            }
            LogEvent::Wrote { data, .. } => {
                self.written.insert(*data);
            }
            LogEvent::Read { data, .. } if !self.written.contains(data) => {
                self.user_read.insert(*data);
            }
            _ => {}
        }
    }

    /// Events the stream must refuse, each naming bookkeeping a snapshot
    /// has to carry: the clock, the first reader of a user input, the
    /// started steps and the finished ones.
    fn invalid_events(&self) -> Vec<LogEvent> {
        let t = self.clock;
        let mut out = Vec::new();
        if t > Timestamp(0) {
            out.push(LogEvent::UserInput {
                data: DataId(1),
                user: "late".into(),
                time: Timestamp(0),
            });
        }
        if let Some((step, module)) = self.started.first() {
            out.push(LogEvent::StepStarted {
                step: *step,
                module: module.clone(),
                time: t,
            });
        }
        if let Some(&step) = self.finished.iter().next() {
            out.push(LogEvent::Read {
                step,
                data: DataId(1),
                time: t,
            });
        }
        let open = self
            .started
            .iter()
            .find(|(s, _)| !self.finished.contains(s));
        if let (Some((step, _)), Some(&data)) = (open, self.user_read.iter().next()) {
            out.push(LogEvent::Wrote {
                step: *step,
                data,
                time: t,
            });
        }
        out
    }
}

fn options() -> DurableOptions {
    DurableOptions {
        compact_threshold_bytes: 4096,
        ..DurableOptions::default()
    }
}

fn reopen(fs: &Arc<FaultFs>, dir: &Path) -> DurableWarehouse {
    DurableWarehouse::open_with(fs.clone(), dir, options()).unwrap()
}

/// A durable store's error as the in-memory store renders it.
fn shown(e: DurableError) -> String {
    WarehouseError::from(e).to_string()
}

fn run_bytes(w: &Warehouse, run: RunId) -> Vec<u8> {
    codec::to_bytes(w.run(run).unwrap()).unwrap().into()
}

fn differential(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let dir = tempdir(&format!("seed{seed}"));
    let fs = Arc::new(FaultFs::counting());
    let mut dw = reopen(&fs, &dir);
    let mut twin = Warehouse::new();
    let flows = workflows(&mut rng);
    let mut views = Vec::new();
    for (spec, _) in &flows {
        let sid = dw.register_spec(spec.clone()).unwrap();
        assert_eq!(twin.register_spec(spec.clone()).unwrap(), sid);
        let vid = dw.register_view(sid, UserView::admin(spec)).unwrap();
        assert_eq!(twin.register_view(sid, UserView::admin(spec)).unwrap(), vid);
        views.push((sid, vid));
    }

    let (mut begun, mut live, mut sealed) = (0, Vec::<Stream>::new(), Vec::new());
    let (mut checkpoints, mut reopens, mut injected) = (0, 0, 0);
    while begun < STREAMS || !live.is_empty() {
        if begun < STREAMS && (live.len() < OPEN && rng.random_bool(0.3) || live.is_empty()) {
            let w = rng.random_range(0..flows.len());
            let (spec, runs) = &flows[w];
            let run = &runs[rng.random_range(0..runs.len())];
            let log = interleaved_log(spec, run, &mut rng);
            let (sid, view): (SpecId, ViewId) = views[w];
            let id = dw.begin_stream(sid).unwrap();
            assert_eq!(twin.begin_stream(sid).unwrap(), id);
            live.push(Stream {
                run: id,
                view,
                events: log.events,
                next: 0,
                clock: Timestamp(0),
                started: Vec::new(),
                finished: BTreeSet::new(),
                written: BTreeSet::new(),
                user_read: BTreeSet::new(),
            });
            begun += 1;
        }
        let k = rng.random_range(0..live.len());
        let s = &mut live[k];
        let ev = s.events[s.next].clone();
        s.next += 1;
        let got = dw.stream_push(s.run, &ev).map_err(shown);
        let want = twin.stream_push(s.run, &ev).map_err(|e| e.to_string());
        assert_eq!(got, want, "seed {seed}: push {ev:?} into {}", s.run);
        got.unwrap();
        s.note(&ev);
        if let LogEvent::Read { data, .. } = ev {
            if rng.random_bool(0.1) {
                let got = dw.warehouse().deep_provenance(s.run, s.view, data);
                let want = twin.deep_provenance(s.run, s.view, data);
                assert_eq!(
                    format!("{got:?}"),
                    format!("{want:?}"),
                    "seed {seed}: probe"
                );
            }
        }
        if s.next == s.events.len() {
            let s = live.swap_remove(k);
            dw.stream_seal(s.run).unwrap();
            twin.stream_seal(s.run).unwrap();
            assert_eq!(run_bytes(dw.warehouse(), s.run), run_bytes(&twin, s.run));
            sealed.push(s.run);
            continue;
        }
        if rng.random_bool(0.02) {
            dw.checkpoint().unwrap();
            checkpoints += 1;
        }
        if rng.random_bool(0.02) {
            drop(dw);
            dw = reopen(&fs, &dir);
            reopens += 1;
            for s in &live {
                assert!(dw.warehouse().is_streaming(s.run));
                for bad in s.invalid_events() {
                    let got = shown(dw.stream_push(s.run, &bad).unwrap_err());
                    let want = twin.stream_push(s.run, &bad).unwrap_err().to_string();
                    assert_eq!(got, want, "seed {seed}: {bad:?}");
                    injected += 1;
                }
            }
        }
    }
    assert!(checkpoints + dw.compactions() > 0 && reopens > 0 && injected > 0);
    drop(dw);
    let dw = reopen(&fs, &dir);
    assert_eq!(dw.warehouse().active_streams(), 0);
    for run in sealed {
        assert_eq!(run_bytes(dw.warehouse(), run), run_bytes(&twin, run));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn streams_resumed_from_snapshots_answer_as_in_memory() {
    for seed in 1..=4 {
        differential(seed);
    }
}

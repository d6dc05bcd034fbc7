//! The `ingest_recover` workload: streaming ingest beside mid-stream
//! reads on a durable store, then repeated recovery.
//!
//! One *episode* opens a fresh durable store with default
//! [`DurableOptions`] (a sync per acknowledged append, auto-compaction
//! past a 1 MiB tail) on an in-memory [`BenchFs`] disk, registers the
//! corpus's specs and
//! views, and streams runs event by event from zoom-gen's interleaved
//! logs, in waves of concurrent streams. Every wave but the last seals
//! before the next begins, so each sealed wave lets a compaction run
//! (compaction waits while any stream is open); the last wave stays open,
//! so recovery replays a non-empty journal tail. The store is then
//! reopened several times; each reopen is timed until the first deep
//! query on every run of a fixed sample has answered.
//!
//! An in-memory twin warehouse is fed the same events, outside the timed
//! calls: every push outcome, every probe answer and, after each reopen,
//! the run/step/data counts and the sampled answers must match it.

use crate::fs::{BenchFs, IoCounts};
use crate::stats::{self, contended_rate, contended_time, median, timed, Window, WindowStats};
use crate::trace;
use crate::{Metrics, Report, Sizes};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use zoom_bench::{build_corpus, Corpus, Scale};
use zoom_model::{DataId, LogEvent, StepId};
use zoom_warehouse::wire::Response;
use zoom_warehouse::{
    codec, persist, DurableOptions, DurableWarehouse, IndexBackend, PushOutcome, RunId, SpecId,
    StorageIo, ViewId, Warehouse,
};

/// Concurrent streams per wave (one run of every corpus workflow, so a
/// sealed wave's journal tail outgrows the 1 MiB compaction threshold),
/// and waves per episode.
const STREAMS: usize = 40;
const WAVES: usize = 4;
/// A deep-provenance probe follows every n-th push. A chosen rate, not a
/// measured one: reads stay a small share of the ingest episode.
const PROBE_EVERY: usize = 256;
/// Sealed runs whose first deep query ends each timed reopen.
const RECOVER_SAMPLE: usize = 32;
/// Pushes per latency window: p50_us and p99_us are 90th percentiles over
/// windows ([`stats::contended_time`]).
const PUSH_WINDOW: usize = 20_000;
/// Timed reopens per episode.
const REOPENS: usize = 5;
/// Pushes between two traced ones in a traced episode.
const TRACE_EVERY: usize = 8;

/// One run to stream.
struct Stream {
    spec: SpecId,
    view: ViewId,
    events: Vec<LogEvent>,
    /// The last datum each step reads: once the step commits, the datum
    /// lies on a committed edge, so it is the step's probe target.
    read: HashMap<StepId, DataId>,
    final_output: DataId,
}

pub struct World {
    corpus: Corpus,
    waves: Vec<Vec<Stream>>,
    gen_s: f64,
    views_s: f64,
}

impl World {
    fn events(&self) -> usize {
        self.waves.iter().flatten().map(|s| s.events.len()).sum()
    }
}

/// Builds the corpus and the interleaved event logs of every wave.
pub fn setup(seed: u64) -> World {
    let (corpus, gen_ns) = timed(|| build_corpus(Scale::Paper, crate::CORPUS_SEED));
    let views_s = crate::queries::time_view_builds(&corpus);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1f1f_2e2e_3d3d_4c4c);
    let wh = corpus.zoom.warehouse();
    // Stream k of wave w replays a run of workflow (w * STREAMS + k) mod 40
    // and of run kind (w * STREAMS + k) mod 3, so every seed streams the
    // same mix of workflows and kinds; the seed picks the runs and their
    // interleavings.
    let waves = (0..WAVES)
        .map(|wave| {
            (0..STREAMS)
                .map(|k| {
                    let slot = wave * STREAMS + k;
                    let w = &corpus.workflows[slot % corpus.workflows.len()];
                    let kind = &w.runs[slot % w.runs.len()].1;
                    let run = wh
                        .run(kind[rng.random_range(0..kind.len())])
                        .expect("corpus run");
                    let log = zoom_gen::streamlog::interleaved_log(&w.spec, run, &mut rng);
                    let mut read = HashMap::new();
                    for ev in &log.events {
                        if let LogEvent::Read { step, data, .. } = ev {
                            read.insert(*step, *data);
                        }
                    }
                    Stream {
                        spec: w.spec_id,
                        view: w.admin,
                        events: log.events,
                        read,
                        final_output: run.final_outputs()[0],
                    }
                })
                .collect()
        })
        .collect();
    World {
        corpus,
        waves,
        gen_s: gen_ns as f64 / 1e9,
        views_s,
    }
}

/// What one episode measured.
#[derive(Default)]
pub struct Episode {
    push_ns: Vec<u64>,
    /// Time inside the store's calls: begins, pushes, probes, seals.
    busy_ns: u64,
    probes: u64,
    answer_bytes: u64,
    io: IoCounts,
    compactions: u64,
    checkpoint_ms: f64,
    disk_bytes: u64,
    recover_s: Vec<f64>,
    attempted: u64,
    failed: u64,
}

impl Episode {
    pub fn ops_per_s(&self) -> f64 {
        self.push_ns.len() as f64 * 1e9 / self.busy_ns.max(1) as f64
    }

    /// Push-latency statistics of consecutive windows of
    /// [`PUSH_WINDOW`] pushes.
    fn windows(&self) -> impl Iterator<Item = WindowStats> + '_ {
        self.push_ns.chunks(PUSH_WINDOW).filter_map(|chunk| {
            Window {
                lat: chunk.to_vec(),
            }
            .stats()
        })
    }

    fn fail(&mut self, what: std::fmt::Arguments<'_>) {
        self.failed += 1;
        eprintln!("MISMATCH {what}");
    }
}

fn open(io: &Arc<BenchFs>, dir: &Path) -> DurableWarehouse {
    DurableWarehouse::open_with(io.clone(), dir, DurableOptions::default())
        .expect("durable store opens")
}

/// Streams every wave into a fresh store on a fresh in-memory disk, then
/// reopens it [`REOPENS`] times. With `traced`, adds one decomposed reopen.
pub fn episode(world: &World, traced: bool) -> Episode {
    let mut ep = Episode::default();
    let dir = Path::new("store");
    let io = Arc::new(BenchFs::default());
    let mut dw = open(&io, dir);
    let mut twin = Warehouse::new();
    let wh = world.corpus.zoom.warehouse();
    for w in &world.corpus.workflows {
        let id = dw.register_spec(w.spec.clone()).expect("spec registers");
        assert_eq!(
            id,
            twin.register_spec(w.spec.clone()).expect("spec registers")
        );
        let mut views = [w.admin, w.bio, w.black_box, w.private];
        views.sort();
        for v in views {
            let view = wh.view(v).expect("corpus view").clone();
            let id = dw
                .register_view(w.spec_id, view.clone())
                .expect("view registers");
            assert_eq!(id, v, "durable view ids follow the corpus");
            twin.register_view(w.spec_id, view).expect("view registers");
        }
    }
    let io_start = io.counts();
    let mut sealed: Vec<(RunId, ViewId, DataId)> = Vec::new();
    let mut pushes = 0usize;
    for (wi, wave) in world.waves.iter().enumerate() {
        let mut runs = Vec::new();
        for s in wave {
            let (id, ns) = timed(|| dw.begin_stream(s.spec).expect("stream begins"));
            ep.busy_ns += ns;
            assert_eq!(id, twin.begin_stream(s.spec).expect("stream begins"));
            runs.push(id);
        }
        let mut cursor = vec![0usize; wave.len()];
        let mut target: Vec<Option<DataId>> = vec![None; wave.len()];
        let mut open_streams = wave.len();
        while open_streams > 0 {
            for (k, s) in wave.iter().enumerate() {
                let Some(ev) = s.events.get(cursor[k]) else {
                    continue;
                };
                cursor[k] += 1;
                if cursor[k] == s.events.len() {
                    open_streams -= 1;
                }
                let run = runs[k];
                let mut push = || {
                    let (got, ns) =
                        timed(|| trace::span("durable.push", || dw.stream_push(run, ev)));
                    ep.push_ns.push(ns);
                    ep.busy_ns += ns;
                    let twin_got = trace::span("stream.push", || twin.stream_push(run, ev));
                    (got, twin_got)
                };
                // Spans are recorded for every TRACE_EVERY-th push only.
                let (got, twin_got) = if pushes.is_multiple_of(TRACE_EVERY) {
                    trace::request("request", push)
                } else {
                    push()
                };
                ep.attempted += 1;
                match (got, twin_got) {
                    (Ok(a), Ok(b)) if a == b => {
                        if let PushOutcome::Committed(steps) = a {
                            if let Some(d) = steps.iter().rev().find_map(|st| s.read.get(st)) {
                                target[k] = Some(*d);
                            }
                        }
                    }
                    (a, b) => ep.fail(format_args!("push {run}: durable {a:?} vs twin {b:?}")),
                }
                pushes += 1;
                if pushes.is_multiple_of(PROBE_EVERY) {
                    if let Some(d) = target[k] {
                        probe(&mut ep, &dw, &twin, run, s.view, d);
                    }
                }
            }
        }
        if wi + 1 < world.waves.len() {
            for (k, s) in wave.iter().enumerate() {
                let run = runs[k];
                let ((), ns) = timed(|| dw.stream_seal(run).expect("stream seals"));
                ep.busy_ns += ns;
                twin.stream_seal(run).expect("stream seals");
                sealed.push((run, s.view, s.final_output));
            }
        }
    }
    ep.io = io.counts().since(&io_start);
    ep.compactions = dw.compactions();
    let cp = dw.warehouse().metrics().journal.checkpoint_latency;
    ep.checkpoint_ms = cp.mean_nanos() as f64 / 1e6;
    ep.disk_bytes = io.dir_bytes(dir);
    drop(dw);

    let step = (sealed.len() / RECOVER_SAMPLE).max(1);
    let sample: Vec<_> = sealed
        .iter()
        .step_by(step)
        .take(RECOVER_SAMPLE)
        .copied()
        .collect();
    let expected: Vec<_> = sample
        .iter()
        .map(|&(r, v, d)| twin.deep_provenance(r, v, d).expect("twin answers"))
        .collect();
    let want = twin.stats();
    for _ in 0..REOPENS {
        let t = std::time::Instant::now();
        let dw = open(&io, dir);
        let answers: Vec<_> = sample
            .iter()
            .map(|&(r, v, d)| dw.warehouse().deep_provenance(r, v, d))
            .collect();
        ep.recover_s.push(t.elapsed().as_secs_f64());
        let got = dw.warehouse().stats();
        ep.attempted += 1 + answers.len() as u64;
        if (got.runs, got.steps, got.data_objects) != (want.runs, want.steps, want.data_objects) {
            ep.fail(format_args!(
                "reopen holds {}/{}/{} runs/steps/data, twin {}/{}/{}",
                got.runs, got.steps, got.data_objects, want.runs, want.steps, want.data_objects
            ));
        }
        for (a, b) in answers.into_iter().zip(&expected) {
            if a.as_ref().ok() != Some(b) {
                ep.fail(format_args!("recovered answer {a:?} vs twin {b:?}"));
            }
        }
    }
    if traced {
        traced_reopen(&io, dir, &sample);
    }
    ep
}

/// One mid-stream deep query, compared with the twin's answer.
fn probe(
    ep: &mut Episode,
    dw: &DurableWarehouse,
    twin: &Warehouse,
    run: RunId,
    view: ViewId,
    d: DataId,
) {
    let (got, ns) = timed(|| {
        trace::request("request", || {
            trace::span("stream.probe", || {
                dw.warehouse().deep_provenance(run, view, d)
            })
        })
    });
    ep.busy_ns += ns;
    ep.probes += 1;
    ep.attempted += 1;
    let want = twin.deep_provenance(run, view, d);
    match (got, want) {
        (Ok(a), Ok(b)) if a == b => {
            let resp = Response::Provenance { result: a };
            ep.answer_bytes += codec::to_bytes(&resp).expect("answers encode").len() as u64;
        }
        (a, b) => ep.fail(format_args!(
            "probe {run} {d:?}: durable {a:?} vs twin {b:?}"
        )),
    }
}

/// A reopen broken into snapshot load, journal replay and index builds.
fn traced_reopen(io: &Arc<BenchFs>, dir: &Path, sample: &[(RunId, ViewId, DataId)]) {
    trace::request("recover", || {
        let names = io.list_dir(dir).expect("store directory lists");
        if let Some(snap) = names.iter().find(|n| n.starts_with("snap-")) {
            let snap = dir.join(snap);
            trace::span("persist.snapshot_load", || {
                black_box(persist::load_with(&**io, &snap).expect("live snapshot loads"))
            });
        }
        let dw = trace::span("durable.open", || open(io, dir));
        let wh = dw.warehouse();
        for &(run, _, _) in sample {
            let n = wh.run(run).expect("recovered run").graph().node_count();
            trace::span("index.build", || match wh.backend_for(n) {
                IndexBackend::Labels => wh.label_index(run).map(drop),
                _ => wh.provenance_index(run).map(drop),
            })
            .expect("index builds");
        }
    });
}

/// Runs episodes until `seconds` have passed (at least one).
fn episodes(world: &World, seconds: f64) -> Vec<Episode> {
    let started = std::time::Instant::now();
    let mut out = Vec::new();
    while out.is_empty() || started.elapsed().as_secs_f64() < seconds {
        out.push(episode(world, false));
    }
    out
}

fn sizes(world: &World, compactions: u64) -> Sizes {
    Sizes(vec![
        ("streams_per_wave", STREAMS as f64),
        ("waves", WAVES as f64),
        ("events_per_episode", world.events() as f64),
        ("compactions_per_episode", compactions as f64),
    ])
}

/// The untraced `ingest_recover` run: [`crate::queries::ROUNDS`] rounds,
/// each of which builds its world afresh (dropping the last), warms it up
/// with one untimed episode and runs episodes for its share of `seconds`.
pub fn run(seed: u64, seconds: f64) -> Report {
    let mut times = Vec::new();
    let mut eps = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut world = None;
    for _ in 0..crate::queries::ROUNDS {
        drop(world.take());
        let (w, ns) = timed(|| setup(seed));
        times.push(ns as f64 / 1e9);
        eprintln!("  round {}: set-up {:.3} s", times.len(), ns as f64 / 1e9);
        let warm = episode(&w, false);
        attempted += warm.attempted;
        failed += warm.failed;
        eps.extend(episodes(&w, seconds / crate::queries::ROUNDS as f64));
        world = Some(w);
    }
    let world = world.expect("set up");
    let windows: Vec<WindowStats> = eps.iter().flat_map(Episode::windows).collect();
    let w = stats::summarize(&windows);
    let ops: Vec<f64> = eps.iter().map(Episode::ops_per_s).collect();
    let mut metrics = Metrics::default();
    metrics.put("setup_s", median(&times), "s");
    metrics.put("p50_us", w.p50_us, "us");
    metrics.put("p99_us", w.p99_us, "us");
    metrics.put("ops_per_s", contended_rate(&ops), "1/s");
    metrics.put("rss_peak_mb", stats::rss_peak_mb(), "MiB");
    let recover: Vec<f64> = eps
        .iter()
        .flat_map(|e| e.recover_s.iter().copied())
        .collect();
    metrics.put("recover_s", contended_time(&recover), "s");
    eprintln!(
        "  {} episodes of {} pushes; p50/p99 are 90th percentiles over {} windows of \
         {PUSH_WINDOW} pushes; {} reopens",
        eps.len(),
        eps[0].push_ns.len(),
        windows.len(),
        recover.len()
    );
    Report {
        attempted: attempted + eps.iter().map(|e| e.attempted).sum::<u64>(),
        failed: failed + eps.iter().map(|e| e.failed).sum::<u64>(),
        sizes: sizes(&world, eps[0].compactions),
        metrics,
    }
}

/// The ingest-path per-layer figures of one traced episode.
fn layer_metrics(metrics: &mut Metrics, ep: &Episode, spans: &[trace::Span]) {
    let t = trace::totals(spans);
    let mean = |n: &str| t.get(n).map_or(0.0, trace::Totals::mean_us);
    let acks = ep.io.appends.max(1) as f64;
    metrics.put("stream.push_us", mean("stream.push"), "us");
    metrics.put("stream.probe_us", mean("stream.probe"), "us");
    metrics.put(
        "journal.append_us",
        mean("durable.push") - mean("stream.push"),
        "us",
    );
    metrics.put("io.append_us", mean("io.append"), "us");
    metrics.put("io.syncs_per_ack", ep.io.syncs as f64 / acks, "count");
    metrics.put(
        "io.write_amp",
        (ep.io.append_bytes + ep.io.write_bytes) as f64 / ep.io.append_bytes.max(1) as f64,
        "ratio",
    );
    metrics.put("durable.compactions", ep.compactions as f64, "count");
    metrics.put("durable.checkpoint_ms", ep.checkpoint_ms, "ms");
    metrics.put(
        "durable.disk_mb",
        ep.disk_bytes as f64 / (1 << 20) as f64,
        "MiB",
    );
    let load = t.get("persist.snapshot_load").map_or(0, |s| s.nanos) as f64 / 1e9;
    let open = t.get("durable.open").map_or(0, |s| s.nanos) as f64 / 1e9;
    metrics.put("persist.snapshot_load_s", load, "s");
    metrics.put("journal.replay_s", open - load, "s");
    metrics.put("index.build_us", mean("index.build"), "us");
    metrics.put(
        "codec.bytes_per_answer",
        ep.answer_bytes as f64 / ep.probes.max(1) as f64,
        "B",
    );
}

/// One untraced and one traced episode on an already built world; the
/// traced one's spans give the ingest and recovery layers.
pub fn trace_episodes(world: &World, metrics: &mut Metrics) -> (u64, u64) {
    // The first episode after set-up runs slow; it only warms up.
    let warm = episode(world, false);
    let plain = episode(world, false);
    trace::enable();
    let mark = trace::mark();
    let traced = episode(world, true);
    let spans = trace::since(mark);
    let mut own = Metrics::default();
    layer_metrics(&mut own, &traced, &spans);
    metrics.merge(own);
    let mean = |e: &Episode| e.push_ns.iter().sum::<u64>() as f64 / e.push_ns.len() as f64 / 1e3;
    eprintln!(
        "  tracing overhead: traced push mean {:.3} us vs untraced {:.3} us ({:+.1}%)",
        mean(&traced),
        mean(&plain),
        (mean(&traced) / mean(&plain) - 1.0) * 100.0
    );
    crate::queries::print_self_times("ingest/recover", &spans);
    (
        warm.attempted + plain.attempted + traced.attempted,
        warm.failed + plain.failed + traced.failed,
    )
}

/// The traced `ingest_recover` run, plus a short in-process query probe
/// for the query-path layers this workload does not exercise.
pub fn run_traced(seed: u64, seconds: f64) -> Report {
    let world = setup(seed);
    let mut metrics = Metrics::default();
    metrics.put("gen.corpus_s", world.gen_s, "s");
    metrics.put("views.build_s", world.views_s, "s");
    let (mut attempted, mut failed) = trace_episodes(&world, &mut metrics);
    let compactions = metrics.get("durable.compactions").unwrap_or(0.0) as u64;
    let sizes = sizes(&world, compactions);
    drop(world);
    let own = metrics.count();
    let mut qw = crate::queries::setup(seed, crate::queries::Mode::Hot);
    let mut probe = Metrics::default();
    let (a, f) = crate::queries::trace_inproc(&qw, seed, seconds / 2.0, &mut probe);
    crate::queries::materialize_probe(&qw.corpus.zoom, &qw.seq, &mut probe);
    let (a2, f2) = crate::queries::wire_probe(&mut qw, &mut probe);
    metrics.merge(probe);
    crate::print_probed(&metrics, own);
    attempted += a + a2;
    failed += f + f2;
    Report {
        attempted,
        failed,
        metrics,
        sizes,
    }
}

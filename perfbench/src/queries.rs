//! The query workloads: `query_hot` and `view_switch` in process, and
//! `query_wire` through `zoomd`'s wire protocol.
//!
//! Every query workload sends deep-provenance queries, the query the
//! paper's evaluation times, drawn from one seeded sequence over a set of
//! (run, view) pairs. For each pair, setup materializes the view-run
//! once, outside the warehouse's cache, to collect the data ids the
//! generated queries address, so no operation in the sequence can fail on
//! a valid store.

use crate::stats::{self, closed_loop, contended_time, median, timed, Outcome, WindowStats};
use crate::trace;
use crate::{Metrics, Report, Sizes};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::cell::RefCell;
use std::collections::HashSet;
use std::hint::black_box;
use zoom_bench::{build_corpus, Corpus, Scale};
use zoom_core::{Daemon, DaemonConfig, RemoteResult, RemoteZoom, Zoom};
use zoom_model::{DataId, EventLog};
use zoom_warehouse::wire::Response;
use zoom_warehouse::{
    codec, journal, query, IndexBackend, ProvenanceResult, RunId, ViewId, VisibilityPolicy,
    WarehouseError,
};

/// The policy-restricted tenant. Queries from every other source use the
/// embedder's plain (unrestricted) methods, or the `bench` connection.
pub const RESTRICTED: &str = "restricted";
const ADMIN_TENANT: &str = "bench";

/// The view-run cache's default capacity.
pub const VIEW_RUN_CACHE: usize = 1024;
/// Cache entries the hot set may occupy: a quarter of the capacity, so
/// the hot path's data stays in the processor's caches and the figures do
/// not swing with the memory traffic of other tenants of the host.
const HOT_BUDGET: usize = 256;
/// Share of `query_hot`/`query_wire` operations sent by [`RESTRICTED`], %.
/// A chosen figure, not a measured one: large enough that the policy path
/// shows in the per-layer breakdown, small enough that the unrestricted
/// hit path dominates.
const RESTRICTED_PERCENT: u32 = 20;
/// Operations in one cycle of the generated sequence, per mode: the hot
/// sequence revisits its pairs many times per cycle; the view-switch one
/// is long enough that a pair's reuse distance far exceeds the cache.
const HOT_SEQUENCE: usize = 8_000;
const SWITCH_SEQUENCE: usize = 5_000;
/// Operations in the fixed pass the traced run takes exact counts over.
const COUNT_PASS: usize = 5_000;
/// Wall-clock windows a timed phase is split into.
pub const WINDOWS: usize = 20;
/// Runs per cold sample for `recover_s`. A round times one cold sample
/// before each of its [`WINDOWS`] windows, so the samples spread over the
/// run like the windows do.
const COLD_RUNS: usize = 150;
/// Every n-th query of the traced phase is broken down into stages.
const TRACE_EVERY: usize = 8;
/// Untraced/traced phase pairs of a traced run.
const TRACE_PAIRS: usize = 6;

/// One generated deep-provenance query.
#[derive(Clone, Copy, Debug)]
pub struct Op {
    pub restricted: bool,
    pub run: RunId,
    /// The view the client asks for (the restricted tenant's policy may
    /// substitute another).
    pub view: ViewId,
    pub data: DataId,
}

/// Runs `op` on the in-process facade.
pub fn local(z: &Zoom, op: &Op) -> Result<ProvenanceResult, WarehouseError> {
    if op.restricted {
        z.deep_provenance_as(RESTRICTED, op.run, op.view, op.data)
    } else {
        z.deep_provenance(op.run, op.view, op.data)
    }
}

/// Runs `op` over the wire, on the connection of its tenant.
pub fn remote(conns: &mut Conns, op: &Op) -> RemoteResult<ProvenanceResult> {
    let c = if op.restricted {
        &mut conns.restricted
    } else {
        &mut conns.admin
    };
    c.deep_provenance(op.run, op.view, op.data)
}

/// The reference answer: the whole-graph BFS form over a freshly
/// materialized view-run, at the view the tenant's policy makes effective.
fn reference(z: &Zoom, op: &Op) -> Result<ProvenanceResult, WarehouseError> {
    let view = if op.restricted {
        z.effective_view(RESTRICTED, op.run, op.view)?
    } else {
        op.view
    };
    let wh = z.warehouse();
    let run = wh.run(op.run)?;
    let vr = wh.view_run_uncached(op.run, view)?;
    query::deep_provenance_bfs(run, &vr, op.data)
        .map_err(WarehouseError::CorruptViewRun)?
        .ok_or(WarehouseError::DataNotFound(op.data))
}

/// Which in-process workload a world is built for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// A hot set of runs whose pairs fit the view-run cache, with a
    /// restricted tenant.
    Hot,
    /// Every (run, view) pair of the corpus, unrestricted.
    Switch,
}

/// Everything a query workload needs before its first timed operation.
pub struct World {
    pub corpus: Corpus,
    pub seq: Vec<Op>,
    /// Distinct (run, view) cache keys the sequence touches.
    pub cache_pairs: usize,
    /// Disjoint run samples for `recover_s`: deep provenance of a final
    /// output at UAdmin, on runs no earlier query touched. No recovery
    /// takes place on the query workloads (every workload must report
    /// every end-to-end metric); here `recover_s` is the cold start of a
    /// sample, its lazy index builds and view-run materializations.
    pub cold: Vec<Vec<Op>>,
    pub policy: VisibilityPolicy,
    pub gen_s: f64,
    pub views_s: f64,
}

/// The restricted tenant's policy: conceal the protected module of every
/// fourth workflow.
fn restricted_policy(corpus: &Corpus) -> VisibilityPolicy {
    let mut hidden: Vec<String> = corpus
        .workflows
        .iter()
        .step_by(4)
        .map(|w| w.concealed.clone())
        .collect();
    hidden.sort();
    hidden.dedup();
    VisibilityPolicy {
        hidden_modules: hidden,
        hidden_workflows: Vec::new(),
    }
}

/// Time to rebuild every workflow's UBio view with the view builder.
pub fn time_view_builds(corpus: &Corpus) -> f64 {
    let ((), ns) = timed(|| {
        for w in &corpus.workflows {
            let rel = zoom_bench::workloads::bio_relevant(&w.spec);
            black_box(zoom_views::relev_user_view_builder(&w.spec, &rel).expect("UBio builds"));
        }
    });
    ns as f64 / 1e9
}

/// Data ids a query on `(run, view)` may address: a seeded sample of the
/// data the view-run shows.
fn pool(corpus: &Corpus, run: RunId, view: ViewId, rng: &mut StdRng) -> Vec<DataId> {
    let vr = corpus
        .zoom
        .warehouse()
        .view_run_uncached(run, view)
        .expect("corpus pairs materialize");
    let visible = vr.visible_data();
    (0..16)
        .map(|_| visible[rng.random_range(0..visible.len())])
        .collect()
}

/// One (run, view) pair the sequence draws from, per tenant.
struct Pair {
    run: RunId,
    view: ViewId,
    admin: Vec<DataId>,
    restricted: Option<Vec<DataId>>,
}

fn views_of(w: &zoom_bench::workloads::LoadedWorkflow) -> [ViewId; 4] {
    [w.admin, w.bio, w.black_box, w.private]
}

/// Builds the corpus, installs the restricted tenant's policy (hot mode)
/// and generates the operation sequence.
pub fn setup(seed: u64, mode: Mode) -> World {
    let (mut corpus, gen_ns) = timed(|| build_corpus(Scale::Paper, crate::CORPUS_SEED));
    let views_s = time_view_builds(&corpus);
    let policy = restricted_policy(&corpus);
    if mode == Mode::Hot {
        corpus
            .zoom
            .set_policy(RESTRICTED, Some(policy.clone()))
            .expect("policy conceals satisfiable modules");
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);

    // Every corpus run with its workflow's index.
    let mut runs: Vec<(RunId, usize)> = Vec::new();
    for kind in 0..3 {
        for (wi, w) in corpus.workflows.iter().enumerate() {
            for &r in &w.runs[kind].1 {
                runs.push((r, wi));
            }
        }
    }
    let mut pairs: Vec<Pair> = Vec::new();
    let mut keys: HashSet<(RunId, ViewId)> = HashSet::new();
    let mut used: HashSet<RunId> = HashSet::new();
    match mode {
        Mode::Switch => {
            for &(run, wi) in &runs {
                for view in views_of(&corpus.workflows[wi]) {
                    let admin = pool(&corpus, run, view, &mut rng);
                    pairs.push(Pair {
                        run,
                        view,
                        admin,
                        restricted: None,
                    });
                    keys.insert((run, view));
                }
                used.insert(run);
            }
        }
        Mode::Hot => {
            // Round-robin over workflows and, within each, the three run
            // kinds: the i-th run of each (workflow, kind) slot, until the
            // hot set fills its budget.
            let per_slot = corpus.workflows[0].runs[0].1.len();
            'fill: for i in 0..per_slot {
                for wi in 0..corpus.workflows.len() {
                    for kind in 0..3 {
                        let run = corpus.workflows[wi].runs[kind].1[i];
                        let mut new_keys = Vec::new();
                        let mut effs = Vec::new();
                        for view in views_of(&corpus.workflows[wi]) {
                            let eff = corpus
                                .zoom
                                .effective_view(RESTRICTED, run, view)
                                .expect("policy denies no workflow");
                            new_keys.push((run, view));
                            new_keys.push((run, eff));
                            effs.push((view, eff));
                        }
                        new_keys.sort();
                        new_keys.dedup();
                        if keys.len() + new_keys.len() > HOT_BUDGET {
                            break 'fill;
                        }
                        keys.extend(new_keys);
                        used.insert(run);
                        for (view, eff) in effs {
                            let admin = pool(&corpus, run, view, &mut rng);
                            let restricted = Some(pool(&corpus, run, eff, &mut rng));
                            pairs.push(Pair {
                                run,
                                view,
                                admin,
                                restricted,
                            });
                        }
                    }
                }
            }
        }
    }

    let len = match mode {
        Mode::Hot => HOT_SEQUENCE,
        Mode::Switch => SWITCH_SEQUENCE,
    };
    let seq = (0..len)
        .map(|_| {
            let p = &pairs[rng.random_range(0..pairs.len())];
            let restricted =
                p.restricted.is_some() && rng.random_range(0..100) < RESTRICTED_PERCENT;
            let pool = if restricted {
                p.restricted.as_ref().expect("checked above")
            } else {
                &p.admin
            };
            Op {
                restricted,
                run: p.run,
                view: p.view,
                data: pool[rng.random_range(0..pool.len())],
            }
        })
        .collect();

    // Cold samples: runs outside the hot set (every run in switch mode),
    // seeded order, disjoint across repetitions.
    let mut cold_runs: Vec<(RunId, usize)> = runs
        .iter()
        .copied()
        .filter(|(r, _)| mode == Mode::Switch || !used.contains(r))
        .collect();
    for i in (1..cold_runs.len()).rev() {
        cold_runs.swap(i, rng.random_range(0..=i));
    }
    let cold = cold_runs
        .chunks(COLD_RUNS)
        .take(WINDOWS)
        .map(|chunk| {
            chunk
                .iter()
                .map(|&(run, wi)| {
                    let data = corpus.zoom.final_outputs(run).expect("corpus run")[0];
                    Op {
                        restricted: false,
                        run,
                        view: corpus.workflows[wi].admin,
                        data,
                    }
                })
                .collect()
        })
        .collect();

    World {
        corpus,
        seq,
        cache_pairs: keys.len(),
        cold,
        policy,
        gen_s: gen_ns as f64 / 1e9,
        views_s,
    }
}

/// Set-up/measure rounds per untraced run. Each round builds its world
/// afresh (dropping the last), warms it up and measures a third of the
/// run, timing a cold sample for `recover_s` before each window.
/// `setup_s` is the median set-up; `recover_s`, the latencies and the
/// throughput are the contended-phase figures ([`stats::contended_time`],
/// [`stats::contended_rate`]) over every round's cold samples and windows.
pub const ROUNDS: usize = 3;

/// What the rounds of one untraced run measured.
#[derive(Default)]
struct Rounds {
    setup_s: Vec<f64>,
    recover_s: Vec<f64>,
    windows: Vec<WindowStats>,
    attempted: u64,
    failed: u64,
}

impl Rounds {
    fn add_phase(&mut self, phase: &stats::Phase) {
        let w = phase.window_stats();
        let s = stats::summarize(&w);
        eprintln!(
            "  round {}: set-up {:.3} s, p50 {:.3} us, p99 {:.3} us, {:.0} ops/s over {} samples",
            self.setup_s.len(),
            self.setup_s.last().copied().unwrap_or(f64::NAN),
            s.p50_us,
            s.p99_us,
            s.ops_per_s,
            s.samples
        );
        let p50s: Vec<String> = w.iter().map(|w| format!("{:.2}", w.p50_us)).collect();
        eprintln!("    window p50s (us): {}", p50s.join(" "));
        self.windows.extend(w);
        self.attempted += phase.attempted;
        self.failed += phase.failed;
    }

    /// Times cold sample `w` of `world`, if it has one: the first deep
    /// query on each of its runs. `run` answers and checks one query.
    fn cold_sample(&mut self, world: &World, w: usize, mut run: impl FnMut(&Op) -> bool) {
        let Some(sample) = world.cold.get(w) else {
            return;
        };
        let t = std::time::Instant::now();
        for op in sample {
            self.attempted += 1;
            if !run(op) {
                self.failed += 1;
            }
        }
        self.recover_s.push(t.elapsed().as_secs_f64());
    }

    fn metrics(&self) -> Metrics {
        let mut metrics = Metrics::default();
        let w = stats::summarize(&self.windows);
        metrics.put("setup_s", median(&self.setup_s), "s");
        metrics.put("p50_us", w.p50_us, "us");
        metrics.put("p99_us", w.p99_us, "us");
        metrics.put("ops_per_s", w.ops_per_s, "1/s");
        metrics.put("rss_peak_mb", stats::rss_peak_mb(), "MiB");
        metrics.put("recover_s", contended_time(&self.recover_s), "s");
        eprintln!(
            "  p50_us {:.3} and p99_us {:.3} over {} samples: 90th percentiles over {} windows",
            w.p50_us,
            w.p99_us,
            w.samples,
            self.windows.len()
        );
        metrics
    }
}

/// Checks a seeded sample of the sequence against the BFS reference.
/// Returns (checked, mismatched).
fn reference_gate(z: &Zoom, seq: &[Op], seed: u64) -> (u64, u64) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc0ff_ee00);
    let (mut checked, mut bad) = (0, 0);
    while checked < 400 {
        let op = &seq[rng.random_range(0..seq.len())];
        checked += 1;
        match (local(z, op), reference(z, op)) {
            (Ok(a), Ok(b)) if a == b => {}
            (got, want) => {
                bad += 1;
                eprintln!("MISMATCH {op:?}: facade {got:?} vs reference {want:?}");
            }
        }
    }
    (checked, bad)
}

/// The untraced in-process run (`query_hot` or `view_switch`).
pub fn run_inproc(mode: Mode, seed: u64, seconds: f64) -> Report {
    let mut rounds = Rounds::default();
    let mut sizes = Sizes(Vec::new());
    for round in 0..ROUNDS {
        let (world, ns) = timed(|| setup(seed, mode));
        rounds.setup_s.push(ns as f64 / 1e9);
        let z = &world.corpus.zoom;
        rounds.attempted += world.seq.len() as u64;
        for op in &world.seq {
            rounds.failed += u64::from(local(z, op).is_err());
        }
        if round == 0 {
            let (checked, bad) = reference_gate(z, &world.seq, seed);
            eprintln!("  reference gate: {checked} answers checked, {bad} wrong");
            rounds.attempted += checked;
            rounds.failed += bad;
        }
        let seq = &world.seq;
        let phase = closed_loop(
            seconds / ROUNDS as f64,
            WINDOWS,
            |w| rounds.cold_sample(&world, w, |op| local(z, op).is_ok()),
            |i| {
                let (r, nanos) = timed(|| black_box(local(z, &seq[i % seq.len()])));
                Outcome {
                    nanos,
                    ok: r.is_ok(),
                }
            },
        );
        rounds.add_phase(&phase);
        let (hits, misses) = z.warehouse().cache_counters();
        eprintln!(
            "  {} cache keys touched ({VIEW_RUN_CACHE} cache entries); view-run hits {hits} \
             misses {misses}",
            world.cache_pairs
        );
        sizes = Sizes(vec![
            ("cache_pairs", world.cache_pairs as f64),
            ("sequence_ops", world.seq.len() as f64),
        ]);
    }
    Report {
        attempted: rounds.attempted,
        failed: rounds.failed,
        metrics: rounds.metrics(),
        sizes,
    }
}

/// The client side of `query_wire`: one connection per tenant.
pub struct Conns {
    pub admin: RemoteZoom,
    pub restricted: RemoteZoom,
}

/// A daemon loaded with the world's corpus over the wire.
pub struct Wire {
    pub daemon: Daemon,
    pub conns: Conns,
    /// Mean `load_log` round trip during loading, µs.
    pub load_log_us: f64,
}

/// Wire shards; pinned so the run does not depend on the host's cores.
pub const SHARDS: usize = 2;

/// Spawns a 2-shard in-memory daemon and loads the first `workflows` of
/// the corpus through the wire: specs and views in id order, then every
/// run as an event log, then the restricted tenant's policy.
///
/// A run loaded from its event log carries the log's timestamps on its
/// user inputs, not the generator's. With `mirror`, the in-process system
/// is rebuilt from the same logs, so the two answer identically.
pub fn load_daemon(world: &mut World, workflows: usize, mirror: bool) -> Wire {
    let daemon = Daemon::spawn(
        "127.0.0.1:0",
        DaemonConfig {
            shards: SHARDS,
            supervise_interval: None,
            ..DaemonConfig::default()
        },
    )
    .expect("daemon binds a loopback port");
    let mut admin = RemoteZoom::connect(daemon.addr(), ADMIN_TENANT).expect("client connects");
    let mut twin = mirror.then(Zoom::new);
    let wh = world.corpus.zoom.warehouse();
    let chosen = &world.corpus.workflows[..workflows];
    for w in chosen {
        let id = admin
            .register_workflow(w.spec.clone())
            .expect("spec registers");
        assert_eq!(
            id, w.spec_id,
            "wire spec ids follow the in-process sequence"
        );
        if let Some(t) = twin.as_mut() {
            t.register_workflow(w.spec.clone()).expect("spec registers");
        }
        let mut views = views_of(w);
        views.sort();
        for v in views {
            let view = wh.view(v).expect("corpus view").clone();
            if let Some(t) = twin.as_mut() {
                t.register_view(w.spec_id, view.clone())
                    .expect("view registers");
            }
            let id = admin
                .register_view(w.spec_id, view)
                .expect("view registers");
            assert_eq!(id, v, "wire view ids follow the in-process sequence");
        }
    }
    let mut runs: Vec<(RunId, usize)> = chosen
        .iter()
        .enumerate()
        .flat_map(|(wi, w)| {
            w.runs
                .iter()
                .flat_map(move |(_, ids)| ids.iter().map(move |&r| (r, wi)))
        })
        .collect();
    runs.sort();
    let mut load_ns = 0u64;
    for &(run, wi) in &runs {
        let w = &chosen[wi];
        let log = EventLog::from_run(wh.run(run).expect("corpus run"), &w.spec);
        let (id, ns) = timed(|| admin.load_log(w.spec_id, &log).expect("log loads"));
        assert_eq!(id, run, "wire run ids follow the in-process sequence");
        load_ns += ns;
        if let Some(t) = twin.as_mut() {
            t.load_log(w.spec_id, &log).expect("log loads");
        }
    }
    admin
        .set_policy(RESTRICTED, Some(world.policy.clone()), None)
        .expect("loopback client may install policies");
    if let Some(mut t) = twin {
        t.set_policy(RESTRICTED, Some(world.policy.clone()))
            .expect("policy conceals satisfiable modules");
        world.corpus.zoom = t;
    }
    let restricted = RemoteZoom::connect(daemon.addr(), RESTRICTED).expect("client connects");
    Wire {
        daemon,
        conns: Conns { admin, restricted },
        load_log_us: load_ns as f64 / runs.len().max(1) as f64 / 1e3,
    }
}

/// The untraced `query_wire` run. Every answer is compared with the
/// in-process facade's, outside the timed call.
pub fn run_wire(seed: u64, seconds: f64) -> Report {
    let mut rounds = Rounds::default();
    for _ in 0..ROUNDS {
        let ((world, mut wire), ns) = timed(|| {
            let mut world = setup(seed, Mode::Hot);
            let n = world.corpus.workflows.len();
            let wire = load_daemon(&mut world, n, true);
            (world, wire)
        });
        rounds.setup_s.push(ns as f64 / 1e9);
        let z = &world.corpus.zoom;
        // The cold samples and the timed queries share the connections.
        let conns = RefCell::new(&mut wire.conns);
        let check = |op: &Op, got: RemoteResult<ProvenanceResult>| match (got, local(z, op)) {
            (Ok(a), Ok(b)) if a == b => true,
            (got, want) => {
                eprintln!("MISMATCH {op:?}: wire {got:?} vs in-process {want:?}");
                false
            }
        };
        rounds.attempted += world.seq.len() as u64;
        for op in &world.seq {
            let got = remote(&mut conns.borrow_mut(), op);
            rounds.failed += u64::from(!check(op, got));
        }
        let seq = &world.seq;
        let phase = closed_loop(
            seconds / ROUNDS as f64,
            WINDOWS,
            |w| {
                rounds.cold_sample(&world, w, |op| {
                    let got = remote(&mut conns.borrow_mut(), op);
                    check(op, got)
                })
            },
            |i| {
                let op = &seq[i % seq.len()];
                let (r, nanos) = timed(|| remote(&mut conns.borrow_mut(), op));
                Outcome {
                    nanos,
                    ok: check(op, r),
                }
            },
        );
        rounds.add_phase(&phase);
        wire.daemon.shutdown();
    }
    Report {
        attempted: rounds.attempted,
        failed: rounds.failed,
        metrics: rounds.metrics(),
        sizes: Sizes(vec![("shards", SHARDS as f64), ("connections", 2.0)]),
    }
}

// ---------------------------------------------------------------------------
// Traced runs
// ---------------------------------------------------------------------------

/// The stages of one in-process deep query, issued as the facade issues
/// them: policy decision, view-run lookup, index fetch, projection.
fn deep_stages(z: &Zoom, op: &Op) -> Option<ProvenanceResult> {
    let wh = z.warehouse();
    let view = if op.restricted {
        trace::span("privacy.effective_view", || {
            z.effective_view(RESTRICTED, op.run, op.view)
        })
        .ok()?
    } else {
        op.view
    };
    let vr = trace::span("cache.view_run", || wh.view_run(op.run, view)).ok()?;
    let run = wh.run(op.run).ok()?;
    match wh.backend_for(run.graph().node_count()) {
        IndexBackend::Labels => {
            let idx = trace::span("index.fetch", || wh.label_index(op.run)).ok()?;
            trace::span("query.project", || {
                query::deep_provenance_labeled(run, &vr, &idx, op.data)
            })
            .ok()?
        }
        _ => {
            let idx = trace::span("index.fetch", || wh.provenance_index(op.run)).ok()?;
            trace::span("query.project", || {
                query::deep_provenance_indexed(run, &vr, &idx, op.data)
            })
            .ok()?
        }
    }
}

/// The wire encoding of a deep answer: encode, CRC, decode, as the
/// daemon and the client each pay them.
fn codec_stages(result: ProvenanceResult) {
    let resp = Response::Provenance { result };
    let bytes = trace::span("codec.encode", || {
        codec::to_bytes(&resp).expect("answers encode")
    });
    trace::span("crc.frame", || black_box(journal::crc32(&bytes)));
    CRC_BYTES.fetch_add(bytes.len() as u64, std::sync::atomic::Ordering::Relaxed);
    let back: Response = trace::span("codec.decode", || {
        codec::from_bytes(&bytes).expect("answers decode")
    });
    black_box(back);
}

/// Per-layer figures the span totals give, under their metric names.
fn span_metrics(metrics: &mut Metrics, spans: &[trace::Span]) {
    let t = trace::totals(spans);
    for (metric, span) in [
        ("system.query_us", "system.query"),
        ("privacy.effective_view_us", "privacy.effective_view"),
        ("cache.view_run_lookup_us", "cache.view_run"),
        ("composite.materialize_us", "composite.materialize"),
        ("index.fetch_us", "index.fetch"),
        ("index.build_us", "index.build"),
        ("query.project_us", "query.project"),
        ("codec.encode_us", "codec.encode"),
        ("codec.decode_us", "codec.decode"),
        ("crc.frame_us", "crc.frame"),
        ("remote.ping_us", "remote.ping"),
        ("stream.push_us", "stream.push"),
        ("stream.probe_us", "stream.probe"),
        ("io.append_us", "io.append"),
    ] {
        if let Some(s) = t.get(span) {
            metrics.put(metric, s.mean_us(), "us");
        }
    }
    if let Some(crc) = t.get("crc.frame") {
        let bytes = CRC_BYTES.swap(0, std::sync::atomic::Ordering::Relaxed);
        metrics.put(
            "crc.mb_per_s",
            bytes as f64 / 1e6 / (crc.nanos as f64 / 1e9),
            "MB/s",
        );
    }
}

/// Payload bytes [`codec_stages`] has run through the CRC since the last
/// [`span_metrics`].
static CRC_BYTES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Prints each span name's count, mean and mean self time.
pub fn print_self_times(label: &str, spans: &[trace::Span]) {
    eprintln!("  self time per layer ({label}):");
    for (name, t) in trace::totals(spans) {
        eprintln!(
            "    {name:<24} n={:<7} mean {:>9.3} us  self {:>9.3} us",
            t.count,
            t.mean_us(),
            t.self_mean_us()
        );
    }
}

/// Exact counts over a fixed pass of the sequence: view-run hit ratio,
/// evictions per operation, and the size of every answer.
fn count_pass(metrics: &mut Metrics, z: &Zoom, seq: &[Op]) -> (u64, u64) {
    let before = z.warehouse().stats();
    let (mut bytes, mut rows, mut answered, mut failed) = (0u64, 0u64, 0u64, 0u64);
    let n = COUNT_PASS.min(seq.len());
    for op in &seq[..n] {
        match local(z, op) {
            Ok(r) => {
                answered += 1;
                rows += r.rows.len() as u64;
                let resp = Response::Provenance { result: r };
                bytes += codec::to_bytes(&resp).expect("answers encode").len() as u64;
            }
            Err(_) => failed += 1,
        }
    }
    let after = z.warehouse().stats();
    let hits = after.view_run_hits - before.view_run_hits;
    let misses = after.view_run_misses - before.view_run_misses;
    metrics.put(
        "cache.view_run_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    metrics.put(
        "cache.evictions_per_op",
        (after.view_run_evictions - before.view_run_evictions) as f64 / n as f64,
        "count",
    );
    metrics.put(
        "codec.bytes_per_answer",
        bytes as f64 / answered.max(1) as f64,
        "B",
    );
    metrics.put(
        "query.rows_per_answer",
        rows as f64 / answered.max(1) as f64,
        "count",
    );
    (n as u64, failed)
}

/// Gauges of the resident indexes and the admission counters.
fn gauges(metrics: &mut Metrics, z: &Zoom) {
    let wh = z.warehouse();
    let im = wh.index_metrics();
    metrics.put(
        "index.memory_mb",
        (im.bitset_bytes + im.label_bytes) as f64 / (1 << 20) as f64,
        "MiB",
    );
    let (mut labels, mut runs) = (0u64, 0u64);
    for spec in wh.spec_ids() {
        for &r in wh.runs_of_spec(spec) {
            runs += 1;
            let n = wh.run(r).expect("listed run").graph().node_count();
            labels += u64::from(wh.backend_for(n) == IndexBackend::Labels);
        }
    }
    metrics.put(
        "index.labels_run_share",
        labels as f64 / runs.max(1) as f64,
        "ratio",
    );
    metrics.put(
        "admission.shed",
        z.metrics().resilience.shed as f64,
        "count",
    );
}

/// Times the first index fetch on each run of a cold sample.
fn index_builds(z: &Zoom, sample: &[Op]) {
    let wh = z.warehouse();
    for op in sample {
        trace::request("request", || {
            let n = wh.run(op.run).expect("corpus run").graph().node_count();
            trace::span("index.build", || match wh.backend_for(n) {
                IndexBackend::Labels => wh.label_index(op.run).map(drop),
                _ => wh.provenance_index(op.run).map(drop),
            })
        })
        .expect("index builds");
    }
}

/// Mean latency, microseconds, of the untraced and the traced phase, and
/// the untraced mean of the deep queries the traced phase breaks down.
struct Overhead {
    untraced_us: f64,
    traced_us: f64,
    sampled_us: f64,
}

impl Overhead {
    fn print(&self) {
        eprintln!(
            "  tracing overhead: traced mean {:.3} us vs untraced {:.3} us ({:+.1}%)",
            self.traced_us,
            self.untraced_us,
            (self.traced_us / self.untraced_us - 1.0) * 100.0
        );
    }
}

/// Whether the traced phase breaks down the operation at sequence index
/// `j`: every [`TRACE_EVERY`]-th query of the sequence.
fn sampled(j: usize) -> bool {
    j.is_multiple_of(TRACE_EVERY)
}

/// Alternating untraced and traced phases, [`TRACE_PAIRS`] of each, so a
/// slow drift of the host's speed cancels out of their comparison. In a
/// traced phase a sampled deep query runs as `breakdown`, which issues it
/// through its layers inside a request span. Both return (correct, the
/// query's own nanoseconds), leaving answer checks out of the time.
fn traced_phases(
    seconds: f64,
    seq: &[Op],
    mut exec: impl FnMut(&Op) -> (bool, u64),
    mut breakdown: impl FnMut(&Op) -> (bool, u64),
) -> (Overhead, u64, u64) {
    let phase_s = seconds / (2 * TRACE_PAIRS) as f64;
    let (mut sampled_ns, mut sampled_n) = (0u64, 0u64);
    let (mut untraced_us, mut traced_us) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    for _ in 0..TRACE_PAIRS {
        let untraced = closed_loop(phase_s, 1, |_| {}, |i| {
            let j = i % seq.len();
            let (ok, nanos) = exec(&seq[j]);
            if sampled(j) {
                sampled_ns += nanos;
                sampled_n += 1;
            }
            Outcome { nanos, ok }
        });
        let traced = closed_loop(phase_s, 1, |_| {}, |i| {
            let j = i % seq.len();
            let (ok, nanos) = if sampled(j) {
                breakdown(&seq[j])
            } else {
                exec(&seq[j])
            };
            Outcome { nanos, ok }
        });
        untraced_us.push(untraced.mean_us());
        traced_us.push(traced.mean_us());
        attempted += untraced.attempted + traced.attempted;
        failed += untraced.failed + traced.failed;
    }
    (
        Overhead {
            untraced_us: median(&untraced_us),
            traced_us: median(&traced_us),
            sampled_us: sampled_ns as f64 / sampled_n.max(1) as f64 / 1e3,
        },
        attempted,
        failed,
    )
}

/// Mean per request of the named spans' total time, µs.
fn per_request_us(spans: &[trace::Span], names: &[&str]) -> f64 {
    let requests = spans
        .iter()
        .filter(|s| s.parent == 0 && s.name == "request")
        .count()
        .max(1);
    let ns: u64 = spans
        .iter()
        .filter(|s| names.contains(&s.name))
        .map(trace::Span::nanos)
        .sum();
    ns as f64 / requests as f64 / 1e3
}

const INPROC_STAGES: [&str; 4] = [
    "privacy.effective_view",
    "cache.view_run",
    "index.fetch",
    "query.project",
];

/// One sampled in-process deep query, issued through its stages (its
/// first and only execution). The answer must equal the facade's.
fn inproc_breakdown(z: &Zoom, op: &Op) -> (bool, u64) {
    trace::request("request", || {
        let (staged, nanos) = timed(|| trace::span("query", || deep_stages(z, op)));
        let ok = matches!((staged, local(z, op)), (Some(a), Ok(b)) if a == b);
        (ok, nanos)
    })
}

/// Times fresh materializations of the view-runs of the sequence's first
/// queries, at the view each query's tenant gets.
pub fn materialize_probe(z: &Zoom, seq: &[Op], metrics: &mut Metrics) {
    let mark = trace::mark();
    for op in seq.iter().take(500) {
        let view = if op.restricted {
            z.effective_view(RESTRICTED, op.run, op.view)
                .expect("policy denies no workflow")
        } else {
            op.view
        };
        trace::request("request", || {
            trace::span("composite.materialize", || {
                black_box(z.warehouse().view_run_uncached(op.run, view))
            })
        })
        .expect("pair materializes");
    }
    span_metrics(metrics, &trace::since(mark));
}

/// The traced in-process run, on an already built world.
pub fn trace_inproc(world: &World, seed: u64, seconds: f64, metrics: &mut Metrics) -> (u64, u64) {
    let z = &world.corpus.zoom;
    trace::enable();
    let mark = trace::mark();
    index_builds(z, &world.cold[0]);
    let (mut attempted, mut failed) = (0, 0);
    for op in &world.seq {
        attempted += 1;
        failed += u64::from(local(z, op).is_err());
    }
    let (n, f) = count_pass(metrics, z, &world.seq);
    let (checked, bad) = reference_gate(z, &world.seq, seed);
    let (overhead, a, f2) = traced_phases(
        seconds,
        &world.seq,
        |op| {
            let (r, nanos) = timed(|| black_box(local(z, op)));
            (r.is_ok(), nanos)
        },
        |op| inproc_breakdown(z, op),
    );
    let spans = trace::since(mark);
    span_metrics(metrics, &spans);
    let stage_us = per_request_us(&spans, &INPROC_STAGES);
    // The facade's own latency for the sampled queries, tracing off.
    metrics.put("system.query_us", overhead.sampled_us, "us");
    metrics.put(
        "system.facade_self_us",
        overhead.sampled_us - stage_us,
        "us",
    );
    gauges(metrics, z);
    eprintln!(
        "  stage coverage (in-process deep query): effective view + view-run lookup + index fetch \
         + projection = {stage_us:.3} us = {:.1}% of the untraced mean {:.3} us of the same \
         queries; the rest is facade self time (admission, metrics, dispatch)",
        stage_us / overhead.sampled_us * 100.0,
        overhead.sampled_us,
    );
    overhead.print();
    print_self_times("in-process", &spans);
    (attempted + n + checked + a, failed + f + bad + f2)
}

/// One sampled wire deep query (its only execution), followed by a ping,
/// the same query on the in-process facade and through its stages, and
/// the codec and CRC work of its answer. Returns (the wire answer equals
/// the in-process one, the wire query's nanoseconds).
fn wire_breakdown(conns: &mut Conns, z: &Zoom, op: &Op) -> (bool, u64) {
    trace::request("request", || {
        let (got, nanos) = timed(|| trace::span("wire.query", || remote(conns, op)));
        let conn = if op.restricted {
            &mut conns.restricted
        } else {
            &mut conns.admin
        };
        trace::span("remote.ping", || conn.ping()).expect("ping answers");
        let want = trace::span("system.query", || local(z, op));
        trace::span("query", || deep_stages(z, op));
        let ok = matches!((got, &want), (Ok(a), Ok(b)) if a == *b);
        if let Ok(r) = want {
            codec_stages(r);
        }
        (ok, nanos)
    })
}

/// The wire figures of a set of [`wire_breakdown`] spans; returns the sum
/// of the named stages, µs.
fn wire_metrics(metrics: &mut Metrics, spans: &[trace::Span], load_log_us: f64) -> f64 {
    let t = trace::totals(spans);
    let mean = |n: &str| t.get(n).map_or(0.0, trace::Totals::mean_us);
    let named = mean("remote.ping")
        + mean("codec.encode")
        + 2.0 * mean("crc.frame")
        + mean("codec.decode")
        + mean("system.query");
    let stage_us = per_request_us(spans, &INPROC_STAGES);
    let mut own = Metrics::default();
    own.put("wire.load_log_us", load_log_us, "us");
    own.put("server.unattributed_us", mean("wire.query") - named, "us");
    own.put(
        "system.facade_self_us",
        mean("system.query") - stage_us,
        "us",
    );
    span_metrics(&mut own, spans);
    metrics.merge(own);
    named
}

/// The traced wire run, on an already loaded daemon.
pub fn trace_wire(
    world: &World,
    wire: &mut Wire,
    seconds: f64,
    metrics: &mut Metrics,
) -> (u64, u64) {
    let z = &world.corpus.zoom;
    for op in &world.seq {
        remote(&mut wire.conns, op).expect("wire warm-up answers");
    }
    trace::enable();
    let mark = trace::mark();
    let conns = std::cell::RefCell::new(&mut wire.conns);
    let (overhead, attempted, failed) = traced_phases(
        seconds,
        &world.seq,
        |op| {
            let (got, nanos) = timed(|| remote(&mut conns.borrow_mut(), op));
            let ok = matches!((got, local(z, op)), (Ok(a), Ok(b)) if a == b);
            (ok, nanos)
        },
        |op| wire_breakdown(&mut conns.borrow_mut(), z, op),
    );
    let spans = trace::since(mark);
    let named = wire_metrics(metrics, &spans, wire.load_log_us);
    eprintln!(
        "  stage coverage (wire deep query): ping + encode + 2 x crc + decode + in-process query \
         = {named:.3} us = {:.1}% of the untraced mean {:.3} us of the same queries",
        named / overhead.sampled_us * 100.0,
        overhead.sampled_us,
    );
    overhead.print();
    print_self_times("wire", &spans);
    (attempted, failed)
}

/// Adds the ingest and recovery layers, which the query workloads do not
/// exercise, from one untraced and one traced ingest episode.
fn ingest_probe(seed: u64, metrics: &mut Metrics) -> (u64, u64) {
    let world = crate::ingest::setup(seed);
    crate::ingest::trace_episodes(&world, metrics)
}

/// The traced in-process workload (`query_hot` or `view_switch`), plus
/// short probes for the layers it does not exercise.
pub fn run_inproc_traced(mode: Mode, seed: u64, seconds: f64) -> Report {
    let mut world = setup(seed, mode);
    let mut metrics = Metrics::default();
    metrics.put("gen.corpus_s", world.gen_s, "s");
    metrics.put("views.build_s", world.views_s, "s");
    let (a1, f1) = trace_inproc(&world, seed, seconds, &mut metrics);
    // Materialization is on view_switch's own path (nearly every query
    // misses the cache); query_hot's hit path never reaches it.
    let own = match mode {
        Mode::Switch => {
            materialize_probe(&world.corpus.zoom, &world.seq, &mut metrics);
            let own = metrics.count();
            policy_probe(&mut world, &mut metrics);
            own
        }
        Mode::Hot => {
            let own = metrics.count();
            materialize_probe(&world.corpus.zoom, &world.seq, &mut metrics);
            own
        }
    };
    let (a2, f2) = wire_probe(&mut world, &mut metrics);
    let sizes = Sizes(vec![("cache_pairs", world.cache_pairs as f64)]);
    drop(world);
    let (a3, f3) = ingest_probe(seed, &mut metrics);
    crate::print_probed(&metrics, own);
    Report {
        attempted: a1 + a2 + a3,
        failed: f1 + f2 + f3,
        metrics,
        sizes,
    }
}

/// The traced `query_wire` workload, plus short materialization and ingest
/// probes.
pub fn run_wire_traced(seed: u64, seconds: f64) -> Report {
    let mut world = setup(seed, Mode::Hot);
    let n = world.corpus.workflows.len();
    let mut wire = load_daemon(&mut world, n, true);
    let mut metrics = Metrics::default();
    metrics.put("gen.corpus_s", world.gen_s, "s");
    metrics.put("views.build_s", world.views_s, "s");
    let z = &world.corpus.zoom;
    trace::enable();
    let mark = trace::mark();
    index_builds(z, &world.cold[0]);
    span_metrics(&mut metrics, &trace::since(mark));
    for op in &world.seq {
        local(z, op).expect("warm-up answers");
    }
    let (n, f0) = count_pass(&mut metrics, z, &world.seq);
    let (a1, f1) = trace_wire(&world, &mut wire, seconds, &mut metrics);
    gauges(&mut metrics, z);
    let own = metrics.count();
    materialize_probe(z, &world.seq, &mut metrics);
    wire.daemon.shutdown();
    drop(wire);
    drop(world);
    let (a2, f2) = ingest_probe(seed, &mut metrics);
    crate::print_probed(&metrics, own);
    Report {
        attempted: n + a1 + a2,
        failed: f0 + f1 + f2,
        metrics,
        sizes: Sizes(vec![("shards", SHARDS as f64)]),
    }
}

/// Times the restricted tenant's policy decision on the sequence's deep
/// queries, for a workload that sends none of its own.
fn policy_probe(world: &mut World, metrics: &mut Metrics) {
    let z = &mut world.corpus.zoom;
    z.set_policy(RESTRICTED, Some(world.policy.clone()))
        .expect("policy conceals satisfiable modules");
    let mark = trace::mark();
    for op in world.seq.iter().take(2000) {
        trace::request("request", || {
            trace::span("privacy.effective_view", || {
                z.effective_view(RESTRICTED, op.run, op.view)
            })
        })
        .expect("policy denies no workflow");
    }
    let mut own = Metrics::default();
    span_metrics(&mut own, &trace::since(mark));
    metrics.merge(own);
}

/// A short wire probe for traced runs whose workload never touches the
/// wire: load four workflows into a daemon and break down a few hundred
/// deep queries on their runs.
pub fn wire_probe(world: &mut World, metrics: &mut Metrics) -> (u64, u64) {
    const PROBES: usize = 300;
    let mut wire = load_daemon(world, 4, false);
    let z = &world.corpus.zoom;
    let loaded: HashSet<RunId> = world.corpus.workflows[..4]
        .iter()
        .flat_map(|w| w.runs.iter().flat_map(|(_, r)| r.iter().copied()))
        .collect();
    let probe: Vec<Op> = world
        .cold
        .iter()
        .flatten()
        .chain(&world.seq)
        .filter(|op| !op.restricted && loaded.contains(&op.run))
        .take(PROBES)
        .copied()
        .collect();
    for op in &probe {
        remote(&mut wire.conns, op).expect("wire warm-up answers");
        local(z, op).expect("warm-up answers");
    }
    trace::enable();
    let mark = trace::mark();
    let failed = probe
        .iter()
        .filter(|op| !wire_breakdown(&mut wire.conns, z, op).0)
        .count() as u64;
    wire_metrics(metrics, &trace::since(mark), wire.load_log_us);
    wire.daemon.shutdown();
    (2 * probe.len() as u64, failed)
}

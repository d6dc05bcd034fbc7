//! Reachability-index speedup — a Figure 10/11-style variant for the
//! warehouse's query engine: mean deep-provenance time over a sample of
//! the run's data objects per run kind and view family, answered (a) by
//! the seed per-query BFS scan, (b) by projecting the per-run bitset
//! base-closure index, and (c) by the tree-cover interval-label index —
//! plus the one-time build cost each index amortizes.
//!
//! The paper's Section V-B observation is that computing base provenance
//! once and reusing it across view switches turns seconds into ≈13 ms;
//! this experiment shows the embedded analog. The seed path walks *and
//! collects over* the whole run graph on every query, so its cost is
//! `O(run)` regardless of the answer; both indexed paths touch only the
//! members of one precomputed closure, so their cost is `O(answer)`.
//! Averaged over the data objects users actually click (most of which
//! derive from a fraction of the run), the gap widens with run size.
//!
//! The [`scaling`] sweep is the memory half of the story: on adversarial
//! shapes from 1k to 1M steps it records build time, resident index bytes,
//! and point/closure query latency for all three backends (the `O(n²/64)`
//! bitset is measured up to 100k steps and reported analytically at 1M),
//! plus the cost of incrementally appending one step to the label index
//! versus rebuilding it. `scaling_json` renders the sweep as the
//! `BENCH_<date>.json` scorecard.

use crate::workloads::{Corpus, Scale};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::time::Instant;
use zoom_gen::{
    deep_chain, diamond_lattice, generate_run, generate_spec, wide_fanout, RunGenConfig, RunKind,
    SpecGenConfig, Summary, WorkflowClass,
};
use zoom_model::{Producer, UserView, ViewRun, WorkflowRun};
use zoom_warehouse::{
    deep_provenance_bfs, deep_provenance_indexed, deep_provenance_labeled, LabelIndex,
    ProvenanceIndex,
};

/// Mean per-query nanoseconds for one (run kind, view family) cell.
///
/// The `early_*` triple times the cheapest interesting query — the
/// step-produced data object with the smallest ancestor closure — where
/// the seed path's `O(run)` collection scan is pure overhead. The mixed
/// triple averages a stride sample of all data objects (final output
/// included), which the large sorted answers dominate.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    /// Seed path over the mixed sample: whole-graph BFS + scan per query.
    pub bfs_nanos: f64,
    /// Bitset-indexed path over the mixed sample (index warm).
    pub indexed_nanos: f64,
    /// Interval-label path over the mixed sample (labels warm).
    pub labeled_nanos: f64,
    /// Seed path, first step-produced object only.
    pub early_bfs_nanos: f64,
    /// Bitset-indexed path, first step-produced object only.
    pub early_indexed_nanos: f64,
    /// Interval-label path, first step-produced object only.
    pub early_labeled_nanos: f64,
}

impl Cell {
    /// `bfs / indexed` over the mixed sample.
    pub fn speedup(&self) -> f64 {
        self.bfs_nanos / self.indexed_nanos
    }

    /// `bfs / indexed` for the small-closure query.
    pub fn early_speedup(&self) -> f64 {
        self.early_bfs_nanos / self.early_indexed_nanos
    }

    /// `bfs / labeled` over the mixed sample.
    pub fn labeled_speedup(&self) -> f64 {
        self.bfs_nanos / self.labeled_nanos
    }

    /// `bfs / labeled` for the small-closure query.
    pub fn early_labeled_speedup(&self) -> f64 {
        self.early_bfs_nanos / self.early_labeled_nanos
    }
}

/// The experiment's outcome: a kind × view-family grid plus build costs.
#[derive(Clone, Debug)]
pub struct Grid {
    /// Cells in `RunKind::ALL` × (UAdmin, UBio, UBlackBox) order.
    pub cells: Vec<(RunKind, [Cell; 3])>,
    /// Mean bitset index build nanos per run kind, in `RunKind::ALL` order.
    pub build_nanos: [f64; 3],
    /// Mean label index build nanos per run kind, in `RunKind::ALL` order.
    pub label_build_nanos: [f64; 3],
}

/// Timings from the regime the index is built for: one deep Loop-class
/// run (thousands of nodes, long iteration chains, small per-step
/// fan-in) queried at the smallest-closure step output, where the seed
/// path's per-query whole-graph BFS and collection scan are pure
/// overhead. The corpus grid averages over whatever run sizes the scale
/// produced; this fixture pins the run size so the asymptotic gap is
/// visible at any scale.
#[derive(Clone, Copy, Debug)]
pub struct DeepRunResult {
    /// Run-graph nodes in the generated fixture.
    pub nodes: usize,
    /// Seed-path nanoseconds per query.
    pub bfs_nanos: f64,
    /// Bitset-indexed nanoseconds per query (index warm).
    pub indexed_nanos: f64,
    /// Interval-label nanoseconds per query (labels warm).
    pub labeled_nanos: f64,
    /// One-time bitset index build nanoseconds.
    pub build_nanos: f64,
    /// One-time label index build nanoseconds.
    pub label_build_nanos: f64,
}

impl DeepRunResult {
    /// `bfs / indexed`.
    pub fn speedup(&self) -> f64 {
        self.bfs_nanos / self.indexed_nanos
    }

    /// `bfs / labeled`.
    pub fn labeled_speedup(&self) -> f64 {
        self.bfs_nanos / self.labeled_nanos
    }
}

/// Generates the deep Loop-class fixture and times both strategies on its
/// smallest-closure step output (answers checked identical first).
pub fn deep_run(reps: u32) -> DeepRunResult {
    let mut rng = StdRng::seed_from_u64(9);
    let spec = generate_spec(
        "idx-deep",
        &SpecGenConfig::new(WorkflowClass::Loop, 20),
        &mut rng,
    );
    let cfg = RunGenConfig {
        user_input: (1, 10),
        data_per_step: (1, 2),
        loop_iterations: (200, 400),
        max_nodes: 30_000,
        max_edges: 30_000,
    };
    let run = generate_run(&spec, &cfg, &mut rng).expect("valid");
    let vr = ViewRun::new(&run, &UserView::admin(&spec));
    let started = Instant::now();
    let index = ProvenanceIndex::build(&run).expect("generated runs are acyclic");
    let build_nanos = started.elapsed().as_nanos() as f64;
    let started = Instant::now();
    let labels = LabelIndex::build(&run).expect("generated runs are acyclic");
    let label_build_nanos = started.elapsed().as_nanos() as f64;
    let target = run
        .all_data()
        .iter()
        .copied()
        .filter(|&d| matches!(run.producer_of(d), Some(Producer::Step(_))))
        .min_by_key(|&d| {
            run.producer_node(d)
                .map_or(usize::MAX, |n| index.ancestors(n).count())
        })
        .expect("runs have step outputs");
    let oracle = deep_provenance_bfs(&run, &vr, target);
    assert_eq!(
        deep_provenance_indexed(&run, &vr, &index, target),
        oracle,
        "strategies disagree — timings would be meaningless"
    );
    assert_eq!(
        deep_provenance_labeled(&run, &vr, &labels, target),
        oracle,
        "strategies disagree — timings would be meaningless"
    );
    let bfs_nanos = time_queries(reps, || {
        deep_provenance_bfs(&run, &vr, target)
            .unwrap()
            .expect("visible");
    });
    let indexed_nanos = time_queries(reps, || {
        deep_provenance_indexed(&run, &vr, &index, target)
            .unwrap()
            .expect("visible");
    });
    let labeled_nanos = time_queries(reps, || {
        deep_provenance_labeled(&run, &vr, &labels, target)
            .unwrap()
            .expect("visible");
    });
    DeepRunResult {
        nodes: run.graph().node_count(),
        bfs_nanos,
        indexed_nanos,
        labeled_nanos,
        build_nanos,
        label_build_nanos,
    }
}

/// One timing sample: (kind index, view index, [bfs, indexed, labeled,
/// early bfs, early indexed, early labeled]) nanoseconds.
type Sample = (usize, usize, [f64; 6]);

fn time_queries(reps: u32, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    for _ in 0..reps {
        f();
    }
    started.elapsed().as_nanos() as f64 / reps as f64
}

/// Runs the experiment over the corpus: for each workflow and run kind, a
/// stride sample of the first run's visible data objects (final output
/// included) is queried `reps` times through each view family, once per
/// strategy; the index is built once per run (and that build is timed
/// separately). Both strategies' answers are checked identical before
/// timing is trusted.
pub fn run(corpus: &Corpus, scale: Scale) -> Grid {
    let reps = match scale {
        Scale::Paper => 40,
        Scale::Quick => 5,
    };
    const TARGETS: usize = 24;
    let mut samples: Vec<Sample> = Vec::new();
    let mut builds: Vec<(usize, f64, f64)> = Vec::new();
    let wh = corpus.zoom.warehouse();

    for w in &corpus.workflows {
        for (ki, kind) in RunKind::ALL.into_iter().enumerate() {
            let Some(&rid) = w
                .runs
                .iter()
                .find(|(k, _)| *k == kind)
                .and_then(|(_, r)| r.first())
            else {
                continue;
            };
            let run = wh.run(rid).expect("loaded");
            let data = run.all_data();

            let started = Instant::now();
            let index = ProvenanceIndex::build(run).expect("generated runs are acyclic");
            let bitset_build = started.elapsed().as_nanos() as f64;
            let started = Instant::now();
            let labels = LabelIndex::build(run).expect("generated runs are acyclic");
            builds.push((ki, bitset_build, started.elapsed().as_nanos() as f64));

            for (vi, view) in [w.admin, w.bio, w.black_box].into_iter().enumerate() {
                let vr = wh.view_run(rid, view).expect("materializes");
                let mut targets: Vec<_> = data
                    .iter()
                    .copied()
                    .step_by((data.len() / TARGETS).max(1))
                    .filter(|&d| vr.is_visible(run, d))
                    .collect();
                targets.push(run.final_outputs()[0]);
                for &d in &targets {
                    let oracle = deep_provenance_bfs(run, &vr, d);
                    assert_eq!(
                        deep_provenance_indexed(run, &vr, &index, d),
                        oracle,
                        "strategies disagree — timings would be meaningless"
                    );
                    assert_eq!(
                        deep_provenance_labeled(run, &vr, &labels, d),
                        oracle,
                        "strategies disagree — timings would be meaningless"
                    );
                }
                let per = targets.len() as f64;
                let bfs = time_queries(reps, || {
                    for &d in &targets {
                        deep_provenance_bfs(run, &vr, d).unwrap().expect("visible");
                    }
                }) / per;
                let indexed = time_queries(reps, || {
                    for &d in &targets {
                        deep_provenance_indexed(run, &vr, &index, d)
                            .unwrap()
                            .expect("visible");
                    }
                }) / per;
                let labeled = time_queries(reps, || {
                    for &d in &targets {
                        deep_provenance_labeled(run, &vr, &labels, d)
                            .unwrap()
                            .expect("visible");
                    }
                }) / per;

                // The small-closure bracket: the visible step-produced
                // object with the smallest ancestor closure.
                let early = data
                    .iter()
                    .copied()
                    .filter(|&x| {
                        vr.is_visible(run, x)
                            && matches!(run.producer_of(x), Some(zoom_model::Producer::Step(_)))
                    })
                    .min_by_key(|&x| {
                        run.producer_node(x)
                            .map_or(usize::MAX, |n| index.ancestors(n).count())
                    })
                    .expect("runs have visible step outputs");
                let early_reps = reps * 8;
                let early_bfs = time_queries(early_reps, || {
                    deep_provenance_bfs(run, &vr, early)
                        .unwrap()
                        .expect("visible");
                });
                let early_indexed = time_queries(early_reps, || {
                    deep_provenance_indexed(run, &vr, &index, early)
                        .unwrap()
                        .expect("visible");
                });
                let early_labeled = time_queries(early_reps, || {
                    deep_provenance_labeled(run, &vr, &labels, early)
                        .unwrap()
                        .expect("visible");
                });
                samples.push((
                    ki,
                    vi,
                    [
                        bfs,
                        indexed,
                        labeled,
                        early_bfs,
                        early_indexed,
                        early_labeled,
                    ],
                ));
            }
        }
    }

    let cells = RunKind::ALL
        .into_iter()
        .enumerate()
        .map(|(ki, kind)| {
            let cell = |vi: usize| {
                let mean = |slot: usize| {
                    Summary::of(
                        &samples
                            .iter()
                            .filter(|&&(k, v, _)| k == ki && v == vi)
                            .map(|&(_, _, t)| t[slot])
                            .collect::<Vec<_>>(),
                    )
                    .mean
                };
                Cell {
                    bfs_nanos: mean(0),
                    indexed_nanos: mean(1),
                    labeled_nanos: mean(2),
                    early_bfs_nanos: mean(3),
                    early_indexed_nanos: mean(4),
                    early_labeled_nanos: mean(5),
                }
            };
            (kind, [cell(0), cell(1), cell(2)])
        })
        .collect();

    let build_mean = |ki: usize, pick: fn(&(usize, f64, f64)) -> f64| {
        Summary::of(
            &builds
                .iter()
                .filter(|&&(k, ..)| k == ki)
                .map(pick)
                .collect::<Vec<_>>(),
        )
        .mean
    };
    Grid {
        cells,
        build_nanos: [
            build_mean(0, |b| b.1),
            build_mean(1, |b| b.1),
            build_mean(2, |b| b.1),
        ],
        label_build_nanos: [
            build_mean(0, |b| b.2),
            build_mean(1, |b| b.2),
            build_mean(2, |b| b.2),
        ],
    }
}

/// Renders the speedup grid.
pub fn report(corpus: &Corpus, scale: Scale) -> String {
    let grid = run(corpus, scale);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "INDEX SPEEDUP — warm deep provenance, seed BFS scan vs. bitset \
         base-closure index vs. interval labels (mean µs/query, scale: \
         {scale:?}; `mixed` = stride sample of all data incl. final output, \
         `early` = smallest-closure step output)"
    );
    let _ = writeln!(
        out,
        "{:>8} {:>10} {:>10} {:>10} {:>6} {:>10} {:>6} {:>9} {:>6} {:>9} {:>6} {:>9} {:>9}",
        "kind",
        "view",
        "mixed bfs",
        "bitset",
        "x",
        "labels",
        "x",
        "early bfs",
        "bit x",
        "lbl x",
        "",
        "bld µs",
        "lbl µs"
    );
    for (row, (kind, cells)) in grid.cells.iter().enumerate() {
        for (name, c) in ["UAdmin", "UBio", "UBlackBox"].iter().zip(cells) {
            let _ = writeln!(
                out,
                "{:>8} {:>10} {:>10.2} {:>10.2} {:>5.1}x {:>10.2} {:>5.1}x {:>9.2} {:>5.1}x {:>9.1}x {:>6} {:>9.1} {:>9.1}",
                format!("{kind:?}"),
                name,
                c.bfs_nanos / 1e3,
                c.indexed_nanos / 1e3,
                c.speedup(),
                c.labeled_nanos / 1e3,
                c.labeled_speedup(),
                c.early_bfs_nanos / 1e3,
                c.early_speedup(),
                c.early_labeled_speedup(),
                "",
                grid.build_nanos[row] / 1e3,
                grid.label_build_nanos[row] / 1e3,
            );
        }
    }
    let large = &grid.cells.last().expect("three kinds").1;
    let _ = writeln!(
        out,
        "\nLarge-run UAdmin: bitset {:.1}x / labels {:.1}x on small-closure \
         queries, {:.1}x / {:.1}x on the mixed sample (bitset build repays \
         itself after ~{:.0} mixed queries, any view)",
        large[0].early_speedup(),
        large[0].early_labeled_speedup(),
        large[0].speedup(),
        large[0].labeled_speedup(),
        (grid.build_nanos[2] / (large[0].bfs_nanos - large[0].indexed_nanos).max(1.0)).ceil()
    );
    let deep = deep_run(match scale {
        Scale::Paper => 2_000,
        Scale::Quick => 200,
    });
    let _ = writeln!(
        out,
        "Deep Loop run ({} nodes), smallest-closure query: {:.2} µs seed BFS vs \
         {:.2} µs bitset vs {:.2} µs labels — {:.1}x / {:.1}x (bitset built in \
         {:.0} µs, labels in {:.0} µs)",
        deep.nodes,
        deep.bfs_nanos / 1e3,
        deep.indexed_nanos / 1e3,
        deep.labeled_nanos / 1e3,
        deep.speedup(),
        deep.labeled_speedup(),
        deep.build_nanos / 1e3,
        deep.label_build_nanos / 1e3,
    );
    out
}

// ---------------------------------------------------------------------------
// Scaling sweep: adversarial shapes, 1k..1M steps, three backends.
// ---------------------------------------------------------------------------

/// Per-backend measurements for one sweep entry. `memory_bytes` is resident
/// index memory (0 for BFS, which keeps no index); when `measured` is false
/// the backend was too large to build at this size and only the analytic
/// memory figure is reported (build/query fields are 0).
#[derive(Clone, Copy, Debug, Default)]
pub struct BackendSample {
    /// One-time index build nanoseconds (0 for BFS).
    pub build_nanos: f64,
    /// Resident (or, unmeasured, analytic) index bytes.
    pub memory_bytes: u64,
    /// Smallest-closure deep-provenance query, nanoseconds.
    pub point_query_nanos: f64,
    /// Final-output (whole-graph closure) deep-provenance query, nanoseconds.
    pub closure_query_nanos: f64,
    /// Whether build/query numbers were actually measured at this size.
    pub measured: bool,
}

/// One (shape, size) row of the scaling sweep.
#[derive(Clone, Debug)]
pub struct ScalingEntry {
    /// Generator name: `deep_chain`, `wide_fanout`, or `diamond_lattice`.
    pub shape: &'static str,
    /// Steps requested from the generator.
    pub steps: usize,
    /// Run-graph nodes (steps + input + output).
    pub nodes: usize,
    /// Run-graph edges.
    pub edges: usize,
    /// BFS, bitset, and label backend samples, in that order.
    pub bfs: BackendSample,
    /// The `O(n²/64)` bitset closure index.
    pub bitset: BackendSample,
    /// The tree-cover interval-label index.
    pub labels: BackendSample,
    /// Total intervals held by the label index.
    pub label_intervals: u64,
    /// Nanoseconds to incrementally append one step to the label index.
    pub append_nanos: f64,
}

impl ScalingEntry {
    /// `bitset bytes / label bytes` — the headline memory win.
    pub fn memory_ratio(&self) -> f64 {
        self.bitset.memory_bytes as f64 / (self.labels.memory_bytes as f64).max(1.0)
    }

    /// `label point latency / bitset point latency` (≤ 2.0 is the bar).
    pub fn point_latency_ratio(&self) -> f64 {
        self.labels.point_query_nanos / self.bitset.point_query_nanos.max(1.0)
    }

    /// `label rebuild / single append` — the incremental-maintenance win.
    pub fn append_speedup(&self) -> f64 {
        self.labels.build_nanos / self.append_nanos.max(1.0)
    }
}

/// Bitset index bytes for an `n`-node graph, by construction: two bitset
/// rows (ancestors + descendants) of `⌈n/64⌉` words per node.
fn analytic_bitset_bytes(n: usize) -> u64 {
    (2 * n * n.div_ceil(64) * 8) as u64
}

/// Builds every adversarial shape at each sweep size and measures all
/// three backends. The bitset is only built while its `O(n²/64)` footprint
/// stays under ~2.5 GB (≤ 100k steps); past that its memory is analytic
/// and its timings are omitted.
pub fn scaling(scale: Scale) -> Vec<ScalingEntry> {
    let sizes: &[usize] = match scale {
        Scale::Paper => &[1_000, 10_000, 100_000, 1_000_000],
        Scale::Quick => &[1_000, 10_000],
    };
    const BITSET_MAX_STEPS: usize = 100_000;
    let mut entries = Vec::new();
    for &steps in sizes {
        for shape in ["deep_chain", "wide_fanout", "diamond_lattice"] {
            // The lattice shape is quadratic-ish in closure sizes per
            // column; cap its extent so the sweep stays tractable while
            // still exercising the non-tree-edge worst case.
            let built = match shape {
                "deep_chain" => deep_chain(steps),
                "wide_fanout" => wide_fanout(steps),
                _ => diamond_lattice(steps / 64, 64),
            };
            entries.push(measure_shape(
                shape,
                steps,
                built,
                steps <= BITSET_MAX_STEPS,
            ));
        }
    }
    entries
}

fn measure_shape(
    shape: &'static str,
    steps: usize,
    (spec, run): (zoom_model::WorkflowSpec, WorkflowRun),
    build_bitset: bool,
) -> ScalingEntry {
    let nodes = run.graph().node_count();
    let edges = run.graph().edge_count();
    let vr = ViewRun::new(&run, &UserView::admin(&spec));

    // Reps scale down with size so the sweep finishes in minutes; the
    // point query is cheap for the indexes but O(run) for BFS.
    let point_reps = (2_000_000 / steps.max(1)).clamp(4, 400) as u32;
    let closure_reps = (200_000 / steps.max(1)).clamp(1, 40) as u32;

    // Point target: the step-produced object with the smallest ancestor
    // closure among an early sample (exact argmin would be O(n²) here).
    let labels_started = Instant::now();
    let labels = LabelIndex::build(&run).expect("adversarial runs are acyclic");
    let label_build = labels_started.elapsed().as_nanos() as f64;
    let all = run.all_data();
    let point = all
        .iter()
        .copied()
        .filter(|&d| matches!(run.producer_of(d), Some(Producer::Step(_))))
        .take(64)
        .min_by_key(|&d| {
            run.producer_node(d)
                .map_or(usize::MAX, |n| labels.ancestors_of(n).count())
        })
        .expect("adversarial runs have step outputs");
    let closure = run.final_outputs()[0];

    let mut bfs = BackendSample {
        measured: true,
        ..Default::default()
    };
    let point_oracle = deep_provenance_bfs(&run, &vr, point);
    let closure_oracle = deep_provenance_bfs(&run, &vr, closure);
    bfs.point_query_nanos = time_queries(point_reps, || {
        deep_provenance_bfs(&run, &vr, point)
            .unwrap()
            .expect("visible");
    });
    bfs.closure_query_nanos = time_queries(closure_reps, || {
        deep_provenance_bfs(&run, &vr, closure)
            .unwrap()
            .expect("visible");
    });

    let mut labels_sample = BackendSample {
        build_nanos: label_build,
        memory_bytes: labels.memory_bytes() as u64,
        measured: true,
        ..Default::default()
    };
    assert_eq!(
        deep_provenance_labeled(&run, &vr, &labels, point),
        point_oracle,
        "label backend diverges on {shape}@{steps}"
    );
    assert_eq!(
        deep_provenance_labeled(&run, &vr, &labels, closure),
        closure_oracle,
        "label backend diverges on {shape}@{steps}"
    );
    labels_sample.point_query_nanos = time_queries(point_reps, || {
        deep_provenance_labeled(&run, &vr, &labels, point)
            .unwrap()
            .expect("visible");
    });
    labels_sample.closure_query_nanos = time_queries(closure_reps, || {
        deep_provenance_labeled(&run, &vr, &labels, closure)
            .unwrap()
            .expect("visible");
    });

    // Incremental append: one new step fed by the most recently added
    // step node, timed against the from-scratch build above.
    let append_nanos = {
        let mut grown = labels.clone();
        let pred = nodes - 1;
        let started = Instant::now();
        grown.append_node(&[pred], &[]);
        started.elapsed().as_nanos() as f64
    };

    let mut bitset = BackendSample {
        memory_bytes: analytic_bitset_bytes(nodes),
        measured: build_bitset,
        ..Default::default()
    };
    if build_bitset {
        let started = Instant::now();
        let index = ProvenanceIndex::build(&run).expect("adversarial runs are acyclic");
        bitset.build_nanos = started.elapsed().as_nanos() as f64;
        bitset.memory_bytes = index.memory_bytes() as u64;
        assert_eq!(
            deep_provenance_indexed(&run, &vr, &index, point),
            point_oracle,
            "bitset backend diverges on {shape}@{steps}"
        );
        assert_eq!(
            deep_provenance_indexed(&run, &vr, &index, closure),
            closure_oracle,
            "bitset backend diverges on {shape}@{steps}"
        );
        bitset.point_query_nanos = time_queries(point_reps, || {
            deep_provenance_indexed(&run, &vr, &index, point)
                .unwrap()
                .expect("visible");
        });
        bitset.closure_query_nanos = time_queries(closure_reps, || {
            deep_provenance_indexed(&run, &vr, &index, closure)
                .unwrap()
                .expect("visible");
        });
    }

    ScalingEntry {
        shape,
        steps,
        nodes,
        edges,
        bfs,
        bitset,
        labels: labels_sample,
        label_intervals: labels.interval_count(),
        append_nanos,
    }
}

/// Today's civil date (UTC) as `YYYY-MM-DD`, from the system clock alone
/// (days-to-civil conversion per Howard Hinnant's algorithm).
pub fn today_stamp() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs() as i64)
        .unwrap_or(0);
    let z = secs.div_euclid(86_400) + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}")
}

fn backend_json(out: &mut String, name: &str, s: &BackendSample) {
    let _ = write!(
        out,
        "\"{name}\":{{\"measured\":{},\"build_nanos\":{:.0},\"memory_bytes\":{},\
         \"point_query_nanos\":{:.0},\"closure_query_nanos\":{:.0}}}",
        s.measured, s.build_nanos, s.memory_bytes, s.point_query_nanos, s.closure_query_nanos
    );
}

/// Renders the sweep as the `BENCH_<date>.json` scorecard. The
/// `acceptance` block tracks the 100k-step chain (falling back to the
/// largest measured-bitset chain entry at smaller scales): labels must
/// hold ≥ 10× less memory than the bitset at ≤ 2× its point-query
/// latency.
pub fn scaling_json(entries: &[ScalingEntry], scale: Scale, date: &str) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"experiment\": \"index_scaling\",");
    let _ = writeln!(out, "  \"date\": \"{date}\",");
    let _ = writeln!(
        out,
        "  \"scale\": \"{}\",",
        format!("{scale:?}").to_lowercase()
    );
    let _ = writeln!(out, "  \"entries\": [");
    for (i, e) in entries.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"shape\":\"{}\",\"steps\":{},\"nodes\":{},\"edges\":{},\
             \"label_intervals\":{},\"append_nanos\":{:.0},\
             \"append_speedup\":{:.1},\"memory_ratio\":{:.1},\
             \"point_latency_ratio\":{:.2},",
            e.shape,
            e.steps,
            e.nodes,
            e.edges,
            e.label_intervals,
            e.append_nanos,
            e.append_speedup(),
            e.memory_ratio(),
            if e.bitset.measured {
                e.point_latency_ratio()
            } else {
                0.0
            },
        );
        backend_json(&mut out, "bfs", &e.bfs);
        out.push(',');
        backend_json(&mut out, "bitset", &e.bitset);
        out.push(',');
        backend_json(&mut out, "labels", &e.labels);
        let _ = writeln!(out, "}}{}", if i + 1 < entries.len() { "," } else { "" });
    }
    let _ = writeln!(out, "  ],");
    let anchor = entries
        .iter()
        .filter(|e| e.shape == "deep_chain" && e.bitset.measured)
        .max_by_key(|e| e.steps);
    match anchor {
        Some(e) => {
            let mem = e.memory_ratio();
            let lat = e.point_latency_ratio();
            let _ = writeln!(
                out,
                "  \"acceptance\": {{\"anchor_steps\": {}, \"memory_ratio\": {mem:.1}, \
                 \"point_latency_ratio\": {lat:.2}, \"pass\": {}}}",
                e.steps,
                mem >= 10.0 && lat <= 2.0
            );
        }
        None => {
            let _ = writeln!(out, "  \"acceptance\": null");
        }
    }
    out.push('}');
    out.push('\n');
    out
}

/// Renders the scaling sweep as a table (the human half of the scorecard).
pub fn scaling_report(entries: &[ScalingEntry]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "INDEX SCALING — adversarial shapes, three backends (build ms / index \
         MB / point µs / closure ms; `-` = not built at this size, bitset \
         memory then analytic)"
    );
    let _ = writeln!(
        out,
        "{:>16} {:>9} {:>9} | {:>8} {:>10} | {:>8} {:>8} {:>8} {:>10} | {:>8} {:>8} {:>8} {:>10} {:>8} {:>9}",
        "shape", "steps", "edges", "bfs ptµs", "bfs cl ms",
        "bit b ms", "bit MB", "bit ptµs", "bit cl ms",
        "lbl b ms", "lbl MB", "lbl ptµs", "lbl cl ms", "mem x", "append x"
    );
    for e in entries {
        let opt = |cond: bool, v: f64| {
            if cond {
                format!("{v:.2}")
            } else {
                "-".to_string()
            }
        };
        let _ = writeln!(
            out,
            "{:>16} {:>9} {:>9} | {:>8.2} {:>10.2} | {:>8} {:>8.1} {:>8} {:>10} | {:>8.2} {:>8.2} {:>8.2} {:>10.2} {:>7.0}x {:>8.0}x",
            e.shape,
            e.steps,
            e.edges,
            e.bfs.point_query_nanos / 1e3,
            e.bfs.closure_query_nanos / 1e6,
            opt(e.bitset.measured, e.bitset.build_nanos / 1e6),
            e.bitset.memory_bytes as f64 / 1e6,
            opt(e.bitset.measured, e.bitset.point_query_nanos / 1e3),
            opt(e.bitset.measured, e.bitset.closure_query_nanos / 1e6),
            e.labels.build_nanos / 1e6,
            e.labels.memory_bytes as f64 / 1e6,
            e.labels.point_query_nanos / 1e3,
            e.labels.closure_query_nanos / 1e6,
            e.memory_ratio(),
            e.append_speedup(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::build_corpus;

    #[test]
    fn grid_is_complete_and_sane() {
        let corpus = build_corpus(Scale::Quick, 50);
        let grid = run(&corpus, Scale::Quick);
        assert_eq!(grid.cells.len(), 3);
        for (kind, cells) in &grid.cells {
            for c in cells {
                assert!(c.bfs_nanos > 0.0, "{kind:?} bfs not measured");
                assert!(c.indexed_nanos > 0.0, "{kind:?} indexed not measured");
                assert!(c.labeled_nanos > 0.0, "{kind:?} labels not measured");
                assert!(c.speedup().is_finite());
                assert!(c.early_speedup().is_finite());
                assert!(c.labeled_speedup().is_finite());
                assert!(c.early_labeled_speedup().is_finite());
            }
        }
        for b in grid.build_nanos.into_iter().chain(grid.label_build_nanos) {
            assert!(b > 0.0);
        }
    }

    #[test]
    fn scaling_sweep_quick_holds_the_bar() {
        let entries = scaling(Scale::Quick);
        assert_eq!(entries.len(), 6); // 3 shapes × 2 quick sizes
        for e in &entries {
            assert!(e.bfs.measured && e.bitset.measured && e.labels.measured);
            assert!(e.labels.memory_bytes > 0 && e.bitset.memory_bytes > 0);
            // The memory win is asymptotic (bitset O(n²/64) vs labels
            // O(n·avg_labels)): chains and fan-outs clear 10× from 10k
            // steps; the width-64 lattice worst case carries ~64 intervals
            // per label and only beats the bitset outright here, clearing
            // 10× at the 100k acceptance anchor of the paper-scale sweep.
            if e.steps >= 10_000 {
                let bar = if e.shape == "diamond_lattice" {
                    1.0
                } else {
                    10.0
                };
                assert!(
                    e.memory_ratio() >= bar,
                    "{}@{}: labels use too much memory ({}B vs bitset {}B)",
                    e.shape,
                    e.steps,
                    e.labels.memory_bytes,
                    e.bitset.memory_bytes
                );
            }
        }
        let json = scaling_json(&entries, Scale::Quick, "2026-01-01");
        assert!(json.contains("\"experiment\": \"index_scaling\""));
        assert!(json.contains("\"acceptance\""));
        assert!(json.contains("\"deep_chain\""));
    }

    #[test]
    fn today_stamp_is_iso_date() {
        let s = today_stamp();
        assert_eq!(s.len(), 10, "{s}");
        assert_eq!(s.as_bytes()[4], b'-');
        assert_eq!(s.as_bytes()[7], b'-');
    }

    #[test]
    fn deep_run_fixture_is_deep() {
        let deep = deep_run(20);
        assert!(
            deep.nodes > 1_000,
            "fixture too small: {} nodes",
            deep.nodes
        );
        assert!(deep.bfs_nanos > 0.0 && deep.indexed_nanos > 0.0 && deep.build_nanos > 0.0);
        assert!(deep.speedup().is_finite());
    }
}

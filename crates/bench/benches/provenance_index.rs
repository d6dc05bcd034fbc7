//! Criterion bench for the base-closure provenance index: indexed deep
//! provenance vs. the whole-graph-scan reference path, and batch fan-out
//! vs. serial execution of the same query set. Index construction on
//! corpus runs is `perfbench`'s `index.build_us`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use zoom_core::Zoom;
use zoom_gen::{generate_run, generate_spec, RunGenConfig, RunKind, SpecGenConfig, WorkflowClass};
use zoom_model::{DataId, ModuleKind, Producer, UserView, ViewRun, WorkflowRun};
use zoom_warehouse::{deep_provenance_bfs, deep_provenance_indexed, ProvenanceIndex};

/// The step-produced data object with the smallest ancestor closure — the
/// cheapest interesting provenance click, where the seed path's
/// whole-graph work is pure overhead.
fn smallest_closure_output(run: &WorkflowRun, index: &ProvenanceIndex) -> DataId {
    run.all_data()
        .iter()
        .copied()
        .filter(|&d| matches!(run.producer_of(d), Some(Producer::Step(_))))
        .min_by_key(|&d| {
            run.producer_node(d)
                .map_or(usize::MAX, |n| index.ancestors(n).count())
        })
        .expect("runs have step outputs")
}

fn loop_run(kind: RunKind) -> (WorkflowRun, ViewRun) {
    let mut rng = StdRng::seed_from_u64(kind as u64 + 1);
    let spec = generate_spec(
        "idx-bench",
        &SpecGenConfig::new(WorkflowClass::Loop, 20),
        &mut rng,
    );
    let run = generate_run(&spec, &RunGenConfig::for_kind(kind), &mut rng).expect("valid");
    let vr = ViewRun::new(&run, &UserView::admin(&spec));
    (run, vr)
}

/// The seed BFS path vs. the indexed path, warm index, per run kind.
///
/// Two targets bracket the workload: the final output (maximal closure,
/// "the most expensive provenance query possible") and an early
/// intermediate object (small closure — the common click). The seed path
/// scans the whole run graph either way; the indexed path only touches
/// the closure, so the early-target case is where the gap shows.
fn bench_indexed_vs_bfs(c: &mut Criterion) {
    let mut group = c.benchmark_group("deep_provenance_indexed_vs_bfs");
    for kind in RunKind::ALL {
        let (run, vr) = loop_run(kind);
        let index = ProvenanceIndex::build(&run).expect("generated runs are acyclic");
        let targets = [
            ("output", run.final_outputs()[0]),
            ("early", smallest_closure_output(&run, &index)),
        ];
        for (place, target) in targets {
            group.bench_with_input(
                BenchmarkId::new(format!("bfs_{place}"), format!("{kind:?}")),
                &target,
                |b, &d| {
                    b.iter(|| {
                        black_box(deep_provenance_bfs(&run, &vr, d).unwrap().expect("visible"))
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("indexed_{place}"), format!("{kind:?}")),
                &target,
                |b, &d| {
                    b.iter(|| {
                        black_box(
                            deep_provenance_indexed(&run, &vr, &index, d)
                                .unwrap()
                                .expect("visible"),
                        )
                    })
                },
            );
        }
    }
    group.finish();
}

/// The regime the index is built for: a deep Loop-class run (thousands
/// of steps, long iteration chains) queried at an object that
/// derives from a small fraction of it. The seed path pays a full-graph
/// BFS plus a full-graph collection scan per query; the indexed path
/// touches one closure row. This is the Large-run speedup figure quoted
/// in DESIGN.md.
fn bench_large_loop_run(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(9);
    let spec = generate_spec(
        "idx-bench-xl",
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
    let index = ProvenanceIndex::build(&run).expect("generated runs are acyclic");
    let target = smallest_closure_output(&run, &index);
    assert_eq!(
        deep_provenance_indexed(&run, &vr, &index, target),
        deep_provenance_bfs(&run, &vr, target),
    );

    let mut group = c.benchmark_group("large_loop_run");
    group.throughput(Throughput::Elements(run.graph().node_count() as u64));
    group.bench_function("bfs", |b| {
        b.iter(|| {
            black_box(
                deep_provenance_bfs(&run, &vr, target)
                    .unwrap()
                    .expect("visible"),
            )
        })
    });
    group.bench_function("indexed", |b| {
        b.iter(|| {
            black_box(
                deep_provenance_indexed(&run, &vr, &index, target)
                    .unwrap()
                    .expect("visible"),
            )
        })
    });
    group.finish();
}

/// Batch fan-out vs. a serial loop over the same `(run, view, data)` set.
fn bench_batch_vs_serial(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(42);
    let spec = generate_spec(
        "idx-batch",
        &SpecGenConfig::new(WorkflowClass::Loop, 20),
        &mut rng,
    );
    let mut zoom = Zoom::new();
    let sid = zoom.register_workflow(spec.clone()).expect("fresh");
    let admin = zoom.admin_view(sid).expect("admin");
    let black_box_view = zoom.black_box_view(sid).expect("blackbox");
    let bio_labels: Vec<String> = spec
        .module_ids()
        .filter(|&m| spec.kind(m) == ModuleKind::Analysis)
        .map(|m| spec.label(m).to_string())
        .collect();
    let refs: Vec<&str> = bio_labels.iter().map(String::as_str).collect();
    let bio = zoom.build_view(sid, &refs).expect("good view");

    // Several runs so the batch has independent work to spread out.
    let mut queries = Vec::new();
    for _ in 0..4 {
        let run =
            generate_run(&spec, &RunGenConfig::for_kind(RunKind::Large), &mut rng).expect("valid");
        let target = run.final_outputs()[0];
        let rid = zoom.load_run(sid, run).expect("loads");
        for view in [admin, bio, black_box_view] {
            queries.push((rid, view, target));
        }
    }
    // Warm every cache so both variants measure pure query work.
    for &(r, v, d) in &queries {
        zoom.deep_provenance(r, v, d).expect("visible");
    }

    let mut group = c.benchmark_group("batch_deep_provenance");
    group.throughput(Throughput::Elements(queries.len() as u64));
    group.bench_function("serial", |b| {
        b.iter(|| {
            for &(r, v, d) in &queries {
                black_box(zoom.deep_provenance(r, v, d).expect("visible"));
            }
        })
    });
    group.bench_function("batched", |b| {
        b.iter(|| black_box(zoom.query_batch(&queries)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_indexed_vs_bfs,
    bench_large_loop_run,
    bench_batch_vs_serial
);
criterion_main!(benches);

//! Criterion bench for the paper's interactivity experiment: switching the
//! user view while analyzing one data item's provenance. The cached
//! (materialize-once) path is what made the prototype's switches ≈13 ms;
//! the uncached path is the rebuild-every-time baseline it beat.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use zoom_bench::workloads::random_relevant;
use zoom_core::{ViewId, Zoom};
use zoom_gen::{generate_run, generate_spec, RunGenConfig, RunKind, SpecGenConfig, WorkflowClass};
use zoom_model::DataId;
use zoom_views::relev_user_view_builder;

fn fixture() -> (Zoom, zoom_core::RunId, Vec<ViewId>, DataId) {
    let mut rng = StdRng::seed_from_u64(99);
    let spec = generate_spec(
        "switch-bench",
        &SpecGenConfig::new(WorkflowClass::Loop, 20),
        &mut rng,
    );
    let mut zoom = Zoom::new();
    let sid = zoom.register_workflow(spec.clone()).expect("fresh");
    // A ladder of views at increasing granularity.
    let mut views = Vec::new();
    for (i, percent) in [10u32, 30, 50, 70, 90].iter().enumerate() {
        let relevant = random_relevant(&spec, *percent, &mut rng);
        let built = relev_user_view_builder(&spec, &relevant).expect("builds");
        let renamed = zoom_model::UserView::new(
            format!("ladder-{i}"),
            &spec,
            built.view.composites().to_vec(),
        )
        .expect("partition");
        views.push(zoom.register_view(sid, renamed).expect("registers"));
    }
    let run =
        generate_run(&spec, &RunGenConfig::for_kind(RunKind::Large), &mut rng).expect("valid");
    let target = run.final_outputs()[0];
    let rid = zoom.load_run(sid, run).expect("loads");
    (zoom, rid, views, target)
}

fn bench_switching(c: &mut Criterion) {
    let (zoom, rid, views, target) = fixture();
    let mut group = c.benchmark_group("view_switch_large_run");

    group.bench_function(BenchmarkId::from_parameter("cached"), |b| {
        // Warm all ladder views first.
        for &v in &views {
            zoom.deep_provenance(rid, v, target).expect("visible");
        }
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % views.len();
            black_box(
                zoom.deep_provenance(rid, views[i], target)
                    .expect("visible"),
            )
        })
    });

    group.bench_function(BenchmarkId::from_parameter("rebuild"), |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % views.len();
            let vr = zoom
                .warehouse()
                .view_run_uncached(rid, views[i])
                .expect("valid");
            let run = zoom.warehouse().run(rid).expect("loaded");
            black_box(
                zoom_warehouse::deep_provenance(
                    run,
                    &vr,
                    zoom_warehouse::Reach::Bfs,
                    target,
                    &mut zoom_warehouse::Deadline::unlimited(),
                )
                .expect("visible"),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_switching);
criterion_main!(benches);

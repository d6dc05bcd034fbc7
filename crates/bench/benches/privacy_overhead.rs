//! Proves policy enforcement is free for tenants without a policy: the
//! tenant-scoped `Zoom::deep_provenance_as` facade (the tenant rides the
//! read's `Cx`; one relaxed policy-count load) vs. the plain `deep_provenance`
//! path, on the same warm `provenance_index` workload as
//! `benches/instrumentation_overhead.rs`. Both run the same indexed query
//! against the same caches, so the delta *is* the enforcement cost. The
//! acceptance bar is <1% (ISSUE 9); the paired median ratio printed up
//! front is the number it is judged on.
//!
//! A second group measures the restricted path — a tenant whose policy
//! conceals one module, answered through the compiled privacy view — to
//! show what substitution costs when it does fire (cache-hit lookups plus
//! the coarser view's query, all precompiled at `set_policy` time).

use criterion::{criterion_group, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use zoom_core::Zoom;
use zoom_gen::{generate_run, generate_spec, RunGenConfig, RunKind, SpecGenConfig, WorkflowClass};
use zoom_model::{DataId, ModuleKind};
use zoom_warehouse::{RunId, ViewId, VisibilityPolicy};

/// The `instrumentation_overhead` workload plus a restricted tenant: a
/// Large Loop-class run, admin view, every cache warmed, and a policy for
/// tenant `"restricted"` concealing the spec's first analysis module.
fn workload() -> (Zoom, RunId, ViewId, Vec<DataId>) {
    let mut rng = StdRng::seed_from_u64(7);
    let spec = generate_spec(
        "privacy-bench",
        &SpecGenConfig::new(WorkflowClass::Loop, 20),
        &mut rng,
    );
    let mut zoom = Zoom::new();
    let sid = zoom.register_workflow(spec.clone()).expect("fresh");
    let admin = zoom.admin_view(sid).expect("admin");
    let run =
        generate_run(&spec, &RunGenConfig::for_kind(RunKind::Large), &mut rng).expect("valid run");
    let data = run.all_data();
    let mut targets: Vec<DataId> = data
        .iter()
        .copied()
        .step_by((data.len() / 16).max(1))
        .collect();
    targets.push(run.final_outputs()[0]);
    let rid = zoom.load_run(sid, run).expect("loads");

    let hidden = spec
        .module_ids()
        .find(|&m| spec.kind(m) == ModuleKind::Analysis)
        .expect("generated specs have analysis modules");
    zoom.set_policy(
        "restricted",
        Some(VisibilityPolicy {
            hidden_modules: vec![spec.label(hidden).to_string()],
            hidden_workflows: vec![],
        }),
    )
    .expect("20-module spec conceals one module");

    // Warm the view-run and index caches (both the admin view and the
    // substituted privacy view) and keep only targets every variant can
    // answer, so all three paths measure pure query work.
    targets.retain(|&d| {
        zoom.deep_provenance(rid, admin, d).is_ok()
            && zoom.deep_provenance_as("restricted", rid, admin, d).is_ok()
    });
    assert!(!targets.is_empty(), "need comparable targets");
    (zoom, rid, admin, targets)
}

fn bench_facade_vs_plain(c: &mut Criterion) {
    let (zoom, rid, admin, targets) = workload();

    let mut group = c.benchmark_group("privacy_overhead");
    group.throughput(Throughput::Elements(targets.len() as u64));
    group.bench_function("plain_facade", |b| {
        b.iter(|| {
            for &d in &targets {
                black_box(zoom.deep_provenance(rid, admin, d).expect("visible"));
            }
        })
    });
    // The tenant-scoped path for a tenant with no policy installed: the
    // enforcement fast path is one relaxed load of the policy count.
    group.bench_function("unrestricted_tenant", |b| {
        b.iter(|| {
            for &d in &targets {
                black_box(
                    zoom.deep_provenance_as("unrestricted", rid, admin, d)
                        .expect("visible"),
                );
            }
        })
    });
    // The restricted path: policy present, every query substituted onto
    // the precompiled privacy view (a cache hit per call).
    group.bench_function("restricted_tenant", |b| {
        b.iter(|| {
            for &d in &targets {
                black_box(
                    zoom.deep_provenance_as("restricted", rid, admin, d)
                        .expect("visible at the privacy view"),
                );
            }
        })
    });
    group.finish();
}

/// Interleaved paired measurement (same rationale as
/// `instrumentation_overhead::paired_overhead_report`): back-to-back
/// criterion groups drift with the machine, so the <1% bar is judged on
/// the median per-round ratio of the two variants run round by round.
fn paired_overhead_report() {
    let (zoom, rid, admin, targets) = workload();
    const ROUNDS: usize = 300;
    let mut ratios = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let t = std::time::Instant::now();
        for &d in &targets {
            black_box(zoom.deep_provenance(rid, admin, d).expect("visible"));
        }
        let plain = t.elapsed().as_nanos() as f64;
        let t = std::time::Instant::now();
        for &d in &targets {
            black_box(
                zoom.deep_provenance_as("unrestricted", rid, admin, d)
                    .expect("visible"),
            );
        }
        let tenant = t.elapsed().as_nanos() as f64;
        ratios.push(tenant / plain);
    }
    ratios.sort_by(|a, b| a.total_cmp(b));
    let median = ratios[ROUNDS / 2];
    println!(
        "paired no-policy enforcement overhead (median of {ROUNDS} interleaved rounds): {:+.3}%",
        (median - 1.0) * 100.0
    );
}

criterion_group!(benches, bench_facade_vs_plain);

fn main() {
    paired_overhead_report();
    let mut criterion = Criterion::default().configure_from_args();
    benches(&mut criterion);
    criterion.final_summary();
}

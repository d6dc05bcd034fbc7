//! Criterion bench for warehouse ingestion: loading runs directly and via
//! event logs — the operational side of "managing provenance". Run
//! encoding and decoding, and snapshot save and load, are `perfbench`'s
//! (`durable.checkpoint_ms`, `persist.snapshot_load_s` in `ingest_recover`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use zoom_core::Zoom;
use zoom_gen::{generate_run, generate_spec, RunGenConfig, RunKind, SpecGenConfig, WorkflowClass};
use zoom_model::{EventLog, WorkflowRun, WorkflowSpec};

fn spec_and_run(kind: RunKind) -> (WorkflowSpec, WorkflowRun) {
    let mut rng = StdRng::seed_from_u64(5);
    let spec = generate_spec(
        "wh-bench",
        &SpecGenConfig::new(WorkflowClass::Linear, 20),
        &mut rng,
    );
    let run = generate_run(&spec, &RunGenConfig::for_kind(kind), &mut rng).expect("valid");
    (spec, run)
}

fn bench_ingestion(c: &mut Criterion) {
    let mut group = c.benchmark_group("ingestion");
    for kind in RunKind::ALL {
        let (spec, run) = spec_and_run(kind);
        let log = EventLog::from_run(&run, &spec);
        group.throughput(Throughput::Elements(run.step_count() as u64));
        group.bench_with_input(
            BenchmarkId::new("load_run", format!("{kind:?}")),
            &(&spec, &run),
            |b, (spec, run)| {
                b.iter(|| {
                    let mut z = Zoom::new();
                    let sid = z.register_workflow((*spec).clone()).expect("fresh");
                    black_box(z.load_run(sid, (*run).clone()).expect("loads"))
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("load_log", format!("{kind:?}")),
            &(&spec, &log),
            |b, (spec, log)| {
                b.iter(|| {
                    let mut z = Zoom::new();
                    let sid = z.register_workflow((*spec).clone()).expect("fresh");
                    black_box(z.load_log(sid, log).expect("loads"))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_ingestion);
criterion_main!(benches);

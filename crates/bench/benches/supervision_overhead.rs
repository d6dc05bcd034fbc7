//! Proves shard supervision is free enough to leave on: the same
//! in-memory load workload through a [`ShardRouter`], with the shard
//! supervisor ticking and without it. The delta is what every healthy
//! deployment pays for supervision: the per-write guard check plus the
//! supervisor's periodic per-shard locking. In-process and memory-backed
//! on purpose, since fsync and TCP jitter would bury a nanosecond-scale
//! guard. The acceptance bar is <1% at full size; `--test` runs the
//! smoke size, too short for scheduler noise to stay reliably inside 1%,
//! against a looser 10% bar on the same measurement.
//!
//! ```sh
//! cargo bench -p zoom-bench --bench supervision_overhead            # 8 shards, 20,000 loads
//! cargo bench -p zoom-bench --bench supervision_overhead -- --test  # 3 shards, 2,000 loads
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use zoom_gen::library::{figure2_run, phylogenomic};
use zoom_model::EventLog;
use zoom_warehouse::{typed, Cx, Op, ShardRouter, SpecId};

/// Times `ops` in-memory loads through the shard router, optionally with
/// a supervisor thread ticking at the 10 ms rate a `--supervise 10`
/// daemon would run.
fn timed_loads(shards: usize, ops: usize, supervise: bool) -> u64 {
    let router = Arc::new(ShardRouter::in_memory(shards));
    let spec = phylogenomic();
    let log = EventLog::from_run(&figure2_run(&spec), &spec);
    let sid: SpecId =
        typed(router.apply(&Cx::ADMIN, &Op::RegisterSpec(spec.clone()))).expect("spec registers");
    let load = Op::LoadLog(sid, log);
    let stop = Arc::new(AtomicBool::new(false));
    // BOTH modes run a 10 ms ticker thread; only the supervised one does
    // supervision work. A sleeping control thread matters: an extra
    // periodically-runnable thread alone keeps cores out of deep idle
    // states and shifts timings by several percent — far more than the
    // effect being measured.
    let ticker = {
        let (router, stop) = (Arc::clone(&router), Arc::clone(&stop));
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                if supervise {
                    router.supervise_once();
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        })
    };
    let started = Instant::now();
    for _ in 0..ops {
        router
            .apply(&Cx::ADMIN, &load)
            .expect("no-fault load succeeds");
    }
    let nanos = started.elapsed().as_nanos() as u64;
    stop.store(true, Ordering::Relaxed);
    ticker.join().expect("supervisor ticker exits");
    nanos
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    // (shards, loads per pass, trials per mode, bar %)
    let (shards, ops, trials, bar) = if smoke {
        (3, 2_000, 3, 10.0)
    } else {
        (8, 20_000, 7, 1.0)
    };
    // Interleaved trials, supervisor off then on. Each mode's *fastest*
    // trial is its noise floor — scheduler and allocator jitter only ever
    // add time, so min-of-trials compares the two modes' true costs,
    // which is what a 1% bar needs. One discarded warmup, then the order
    // alternates per trial, so neither mode systematically enjoys a
    // warmer allocator and cache.
    let (mut base, mut sup) = (Vec::new(), Vec::new());
    let _ = timed_loads(shards, ops, false);
    for t in 0..trials {
        if t % 2 == 0 {
            base.push(timed_loads(shards, ops, false));
            sup.push(timed_loads(shards, ops, true));
        } else {
            sup.push(timed_loads(shards, ops, true));
            base.push(timed_loads(shards, ops, false));
        }
    }
    let floor = |v: Vec<u64>| v.into_iter().min().expect("at least one trial") as f64;
    let (unsupervised, supervised) = (floor(base), floor(sup));
    let pct = (supervised - unsupervised) * 100.0 / unsupervised.max(1.0);
    println!(
        "paired supervision overhead ({shards} shards, min of {trials} interleaved trials): \
         {ops} loads, {:.1} ms unsupervised vs {:.1} ms supervised ({pct:+.2}%, bar {bar:.0}%) — {}",
        unsupervised / 1e6,
        supervised / 1e6,
        if pct < bar { "PASS" } else { "FAIL" },
    );
}

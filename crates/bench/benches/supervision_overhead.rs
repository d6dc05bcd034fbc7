//! Proves shard supervision is free enough to leave on: the same
//! in-memory load workload through a [`ShardRouter`], with the shard
//! supervisor ticking and without it. The delta is what every healthy
//! deployment pays for supervision: the per-write guard check plus the
//! supervisor's periodic per-shard locking. In-process and memory-backed
//! on purpose, since fsync and TCP jitter would bury a nanosecond-scale
//! guard. The acceptance bar is <1% on the median of per-round paired
//! ratios at full size; `--test` runs the smoke size, too short for
//! scheduler noise to stay reliably inside 1%, against a looser 10% bar on
//! the same measurement.
//!
//! ```sh
//! cargo bench -p zoom-bench --bench supervision_overhead            # 8 shards, 41 rounds of 2,000 loads
//! cargo bench -p zoom-bench --bench supervision_overhead -- --test  # 3 shards, 9 rounds of 1,000 loads
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
    // (shards, loads per pass, rounds, bar %)
    let (shards, ops, rounds, bar) = if smoke {
        (3, 1_000, 9, 10.0)
    } else {
        (8, 2_000, 41, 1.0)
    };
    // Interleaved rounds, each one pass per mode, and the median of the
    // per-round ratios: a drift in machine speed moves both passes of a
    // round alike and cancels in their ratio, where comparing each mode's
    // fastest trial compares two noisy extremes. One discarded warmup,
    // then the order alternates per round, so neither mode systematically
    // enjoys a warmer allocator and cache.
    let _ = timed_loads(shards, ops, false);
    let mut ratios: Vec<f64> = (0..rounds)
        .map(|r| {
            let (base, sup) = if r % 2 == 0 {
                let base = timed_loads(shards, ops, false);
                (base, timed_loads(shards, ops, true))
            } else {
                let sup = timed_loads(shards, ops, true);
                (timed_loads(shards, ops, false), sup)
            };
            sup as f64 / base.max(1) as f64
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let pct = |q: usize| (ratios[q * (rounds - 1) / 4] - 1.0) * 100.0;
    let median = pct(2);
    println!(
        "paired supervision overhead ({shards} shards, median of {rounds} interleaved rounds \
         of {ops} loads): {median:+.2}% (quartiles {:+.2}% .. {:+.2}%, bar {bar:.0}%) — {}",
        pct(1),
        pct(3),
        if median < bar { "PASS" } else { "FAIL" },
    );
}

//! Shard recovery — the supervision half of the daemon benchmark story.
//!
//! Where `daemon_throughput` measures a healthy `zoomd`, this experiment
//! measures the daemon *getting sick and better*, and what the supervision
//! machinery costs when nothing is wrong:
//!
//! 1. **No-fault overhead.** The same in-memory load workload runs with
//!    the shard supervisor ticking and without it, interleaved over
//!    several trials with medians taken; the throughput delta is the
//!    price every healthy deployment pays for supervision (the per-write
//!    guard check plus the supervisor's periodic per-shard locking).
//!    In-process on purpose — fsync and TCP jitter would bury a
//!    nanosecond-scale guard. The acceptance bar is < 1% at Paper scale.
//! 2. **Quarantine/repair cycles.** Round-robin over the shards: arm a
//!    persistent write fault under one shard's [`FaultFs`], quarantine
//!    it, heal the disk, and repair it online while the other shards keep
//!    serving. Every repair is timed (fsck + journal replay + atomic
//!    swap) and verified: the repaired shard must answer a pre-fault
//!    query identically.
//! 3. **Recovery histograms.** Repair times accumulate per shard into
//!    power-of-two millisecond buckets; the scorecard carries one
//!    histogram per shard, so a shard whose recovery time grows out of
//!    line with its siblings shows up in the diff between two
//!    `BENCH_<date>.json` files.

use crate::workloads::Scale;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;
use zoom_core::{Daemon, DaemonConfig, RemoteZoom};
use zoom_gen::library::{figure2_run, phylogenomic};
use zoom_model::EventLog;
use zoom_warehouse::{typed, FaultFs, Op, RunId, ShardRouter, SpecId, StorageIo};

/// Per-shard repair-time samples folded into power-of-two ms buckets.
#[derive(Clone, Debug, Default)]
pub struct RecoveryHistogram {
    /// Raw repair durations, nanos, in cycle order.
    pub samples: Vec<u64>,
}

impl RecoveryHistogram {
    fn record(&mut self, nanos: u64) {
        self.samples.push(nanos);
    }

    /// Minimum repair time in nanos (0 when no sample).
    pub fn min_nanos(&self) -> u64 {
        self.samples.iter().copied().min().unwrap_or(0)
    }

    /// Median repair time in nanos (0 when no sample).
    pub fn p50_nanos(&self) -> u64 {
        if self.samples.is_empty() {
            return 0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        sorted[sorted.len() / 2]
    }

    /// Maximum repair time in nanos (0 when no sample).
    pub fn max_nanos(&self) -> u64 {
        self.samples.iter().copied().max().unwrap_or(0)
    }

    /// `(bucket_ms, count)` pairs: bucket `b` counts repairs that took
    /// less than `b` ms and at least `b/2` ms. Buckets are powers of two;
    /// empty buckets are omitted.
    pub fn buckets(&self) -> Vec<(u64, usize)> {
        let mut counts: Vec<(u64, usize)> = Vec::new();
        for &nanos in &self.samples {
            let ms = nanos / 1_000_000;
            let bucket = (ms + 1).next_power_of_two();
            match counts.iter_mut().find(|(b, _)| *b == bucket) {
                Some((_, c)) => *c += 1,
                None => counts.push((bucket, 1)),
            }
        }
        counts.sort_unstable();
        counts
    }
}

/// Every measurement the scorecard needs from one recovery session.
#[derive(Clone, Debug)]
pub struct RecoveryBench {
    /// Warehouse shards the daemon ran with.
    pub shards: usize,
    /// Loads in each no-fault throughput pass.
    pub baseline_ops: usize,
    /// Wall-clock nanos for the loads with supervision disabled.
    pub unsupervised_nanos: u64,
    /// Wall-clock nanos for the same loads with the supervisor ticking.
    pub supervised_nanos: u64,
    /// Quarantine → heal → repair cycles driven.
    pub cycles: usize,
    /// Per-shard repair-time histograms.
    pub recovery: Vec<RecoveryHistogram>,
    /// Repairs whose post-repair probe answered byte-identically.
    pub verified_repairs: usize,
    /// Loads acknowledged while a shard was quarantined (isolation held).
    pub loads_during_fault: usize,
}

impl RecoveryBench {
    /// Supervision overhead on the no-fault write path, in percent
    /// (negative when the supervised pass happened to run faster).
    pub fn overhead_pct(&self) -> f64 {
        let base = self.unsupervised_nanos as f64;
        (self.supervised_nanos as f64 - base) * 100.0 / base.max(1.0)
    }

    /// Slowest repair across every shard, in nanos.
    pub fn worst_repair_nanos(&self) -> u64 {
        self.recovery
            .iter()
            .map(|h| h.max_nanos())
            .max()
            .unwrap_or(0)
    }

    /// The acceptance verdict: every cycle repaired, every repair
    /// verified byte-identical, repairs bounded, and the no-fault
    /// overhead under the scale's bar.
    pub fn pass(&self, scale: Scale) -> bool {
        let repairs: usize = self.recovery.iter().map(|h| h.samples.len()).sum();
        repairs == self.cycles
            && self.verified_repairs == self.cycles
            && self.worst_repair_nanos() < 5_000_000_000
            && self.overhead_pct() < overhead_bar_pct(scale)
    }
}

/// The no-fault overhead bar: < 1%, held at Paper scale. The quick pass
/// is too short for scheduler noise to stay reliably inside 1%, so CI
/// gets a looser gate on the same measurement.
pub fn overhead_bar_pct(scale: Scale) -> f64 {
    match scale {
        Scale::Paper => 1.0,
        Scale::Quick => 10.0,
    }
}

fn dimensions(scale: Scale) -> (usize, usize, usize) {
    // (shards, baseline load ops, quarantine/repair cycles)
    match scale {
        Scale::Paper => (8, 20_000, 24),
        Scale::Quick => (3, 2_000, 4),
    }
}

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("zoom-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Times `ops` in-memory loads through the shard router, optionally with
/// a supervisor thread ticking at the 10 ms rate a `--supervise 10`
/// daemon would run. In-process and memory-backed on purpose: the
/// supervision tax is a per-write guard check plus the supervisor's
/// periodic per-shard locking, nanoseconds that fsync and TCP jitter
/// would otherwise bury.
fn timed_loads(shards: usize, ops: usize, supervise: bool) -> u64 {
    use std::sync::atomic::{AtomicBool, Ordering};

    let router = Arc::new(ShardRouter::in_memory(shards));
    let spec = phylogenomic();
    let log = EventLog::from_run(&figure2_run(&spec), &spec);
    let sid: SpecId = typed(router.apply(&Op::RegisterSpec(spec.clone()))).expect("spec registers");
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
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
        })
    };
    let started = Instant::now();
    for _ in 0..ops {
        router.apply(&load).expect("no-fault load succeeds");
    }
    let nanos = started.elapsed().as_nanos() as u64;
    stop.store(true, Ordering::Relaxed);
    ticker.join().expect("supervisor ticker exits");
    nanos
}

/// Runs the full recovery benchmark: overhead passes, then cycles.
pub fn run(scale: Scale, _seed: u64) -> RecoveryBench {
    let (shards, baseline_ops, cycles) = dimensions(scale);

    // 1. No-fault overhead: identical workloads, supervisor off then on,
    // interleaved over several trials. Each mode's *fastest* trial is its
    // noise floor — scheduler and allocator jitter only ever add time, so
    // min-of-trials compares the two modes' true costs, which is what a
    // 1% bar needs.
    let trials = match scale {
        Scale::Paper => 7,
        Scale::Quick => 3,
    };
    let floor = |v: Vec<u64>| v.into_iter().min().expect("at least one trial");
    let (mut base, mut sup) = (Vec::new(), Vec::new());
    // One discarded warmup, then alternating order per trial, so neither
    // mode systematically enjoys a warmer allocator and cache.
    let _ = timed_loads(shards, baseline_ops, false);
    for t in 0..trials {
        if t % 2 == 0 {
            base.push(timed_loads(shards, baseline_ops, false));
            sup.push(timed_loads(shards, baseline_ops, true));
        } else {
            sup.push(timed_loads(shards, baseline_ops, true));
            base.push(timed_loads(shards, baseline_ops, false));
        }
    }
    let unsupervised_nanos = floor(base);
    let supervised_nanos = floor(sup);

    // 2. Quarantine/repair cycles against a fault-injected daemon.
    let dir = tempdir("cycles");
    let ios: Vec<Arc<FaultFs>> = (0..shards).map(|_| Arc::new(FaultFs::counting())).collect();
    let config = DaemonConfig {
        shards,
        dir: Some(dir.clone()),
        shard_ios: ios
            .iter()
            .map(|f| Arc::clone(f) as Arc<dyn StorageIo>)
            .collect(),
        ..DaemonConfig::default()
    };
    let daemon = Daemon::spawn("127.0.0.1:0", config).expect("daemon binds");
    let mut rz = RemoteZoom::connect(daemon.addr(), "bench").expect("client connects");
    let spec = phylogenomic();
    let run = figure2_run(&spec);
    let log = EventLog::from_run(&run, &spec);
    let probe = run.final_outputs()[0];
    let sid = rz.register_workflow(spec).expect("spec registers");
    let vid = rz.admin_view(sid).expect("admin view registers");

    // Seed every shard with at least one run so each repair replays data.
    let mapper = ShardRouter::in_memory(shards);
    let mut per_shard_run = vec![None::<RunId>; shards];
    while per_shard_run.iter().any(Option::is_none) {
        let rid = rz.load_log(sid, &log).expect("seed load succeeds");
        per_shard_run[mapper.shard_of(rid)].get_or_insert(rid);
    }

    let mut recovery = vec![RecoveryHistogram::default(); shards];
    let mut verified_repairs = 0;
    let mut loads_during_fault = 0;
    for cycle in 0..cycles {
        let sick = cycle % shards;
        let witness = per_shard_run[sick].expect("every shard is seeded");
        let expected = rz
            .deep_provenance(witness, vid, probe)
            .expect("pre-fault probe answers");

        // Disk goes dark; the shard leaves the write path.
        ios[sick].arm_failures(u64::MAX, false);
        assert!(daemon.quarantine_shard(sick), "shard was already out");

        // Isolation under fault: keep loading. Refusals burn no id, so
        // the loop stalls (rather than erring) only on the sick shard.
        for _ in 0..4 {
            if let Ok(rid) = rz.load_log(sid, &log) {
                loads_during_fault += 1;
                per_shard_run[mapper.shard_of(rid)].get_or_insert(rid);
            }
        }

        // Heal and repair online; the repair timer is the measurement.
        ios[sick].heal();
        let outcome = daemon.repair_shard(sick).expect("repair after heal");
        recovery[sick].record(outcome.nanos);
        let after = rz
            .deep_provenance(witness, vid, probe)
            .expect("post-repair probe answers");
        if after == expected {
            verified_repairs += 1;
        }
        // Grow the store between cycles so later repairs replay more.
        rz.load_log(sid, &log).expect("post-repair load succeeds");
    }

    drop(rz);
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);

    RecoveryBench {
        shards,
        baseline_ops,
        unsupervised_nanos,
        supervised_nanos,
        cycles,
        recovery,
        verified_repairs,
        loads_during_fault,
    }
}

/// Renders the human half of the result.
pub fn report(scale: Scale, seed: u64) -> String {
    let b = run(scale, seed);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "SHARD RECOVERY — zoomd quarantine/repair cycles, {} shard(s) \
         (scale: {scale:?}, seed {seed})",
        b.shards
    );
    let _ = writeln!(
        out,
        "  no-fault overhead: {} loads, {:.1} ms unsupervised vs {:.1} ms \
         supervised ({:+.2}%, bar {:.0}%)",
        b.baseline_ops,
        b.unsupervised_nanos as f64 / 1e6,
        b.supervised_nanos as f64 / 1e6,
        b.overhead_pct(),
        overhead_bar_pct(scale),
    );
    let _ = writeln!(
        out,
        "  {} cycles: {} repairs verified byte-identical, {} loads acked \
         while a shard was dark",
        b.cycles, b.verified_repairs, b.loads_during_fault,
    );
    for (sh, h) in b.recovery.iter().enumerate() {
        if h.samples.is_empty() {
            continue;
        }
        let buckets: Vec<String> = h
            .buckets()
            .iter()
            .map(|(ms, n)| format!("<{ms}ms:{n}"))
            .collect();
        let _ = writeln!(
            out,
            "  shard {sh}: {} repairs, min/p50/max {:.1}/{:.1}/{:.1} ms  [{}]",
            h.samples.len(),
            h.min_nanos() as f64 / 1e6,
            h.p50_nanos() as f64 / 1e6,
            h.max_nanos() as f64 / 1e6,
            buckets.join(" "),
        );
    }
    let _ = writeln!(
        out,
        "  verdict: {}",
        if b.pass(scale) { "PASS" } else { "FAIL" }
    );
    out
}

/// Renders the scorecard object appended to `BENCH_<date>.json`.
pub fn scorecard_json(b: &RecoveryBench, scale: Scale, date: &str) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"experiment\": \"shard_recovery\",");
    let _ = writeln!(out, "  \"date\": \"{date}\",");
    let _ = writeln!(
        out,
        "  \"scale\": \"{}\",",
        format!("{scale:?}").to_lowercase()
    );
    let _ = writeln!(out, "  \"shards\": {},", b.shards);
    let _ = writeln!(out, "  \"baseline_ops\": {},", b.baseline_ops);
    let _ = writeln!(out, "  \"unsupervised_nanos\": {},", b.unsupervised_nanos);
    let _ = writeln!(out, "  \"supervised_nanos\": {},", b.supervised_nanos);
    let _ = writeln!(out, "  \"overhead_pct\": {:.2},", b.overhead_pct());
    let _ = writeln!(out, "  \"cycles\": {},", b.cycles);
    let _ = writeln!(out, "  \"verified_repairs\": {},", b.verified_repairs);
    let _ = writeln!(out, "  \"loads_during_fault\": {},", b.loads_during_fault);
    let _ = writeln!(out, "  \"recovery\": [");
    for (sh, h) in b.recovery.iter().enumerate() {
        let buckets: Vec<String> = h
            .buckets()
            .iter()
            .map(|(ms, n)| format!("{{\"lt_ms\": {ms}, \"count\": {n}}}"))
            .collect();
        let _ = writeln!(
            out,
            "    {{\"shard\": {sh}, \"repairs\": {}, \"min_nanos\": {}, \
             \"p50_nanos\": {}, \"max_nanos\": {}, \"hist\": [{}]}}{}",
            h.samples.len(),
            h.min_nanos(),
            h.p50_nanos(),
            h.max_nanos(),
            buckets.join(", "),
            if sh + 1 < b.recovery.len() { "," } else { "" },
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(
        out,
        "  \"acceptance\": {{\"overhead_bar_pct\": {:.0}, \"repair_bar_nanos\": 5000000000, \
         \"pass\": {}}}",
        overhead_bar_pct(scale),
        b.pass(scale)
    );
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_repairs_and_verifies_every_cycle() {
        let b = run(Scale::Quick, 2008);
        let repairs: usize = b.recovery.iter().map(|h| h.samples.len()).sum();
        assert_eq!(repairs, b.cycles);
        assert_eq!(b.verified_repairs, b.cycles, "a repair changed answers");
        assert!(b.loads_during_fault > 0, "isolation never exercised");
        assert!(b.worst_repair_nanos() > 0);
        let json = scorecard_json(&b, Scale::Quick, "2026-01-01");
        assert!(json.contains("\"experiment\": \"shard_recovery\""));
        assert!(json.contains("\"hist\": ["));
        assert!(json.contains("\"lt_ms\""));
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        let mut h = RecoveryHistogram::default();
        for nanos in [400_000, 1_600_000, 1_700_000, 9_000_000] {
            h.record(nanos);
        }
        assert_eq!(h.buckets(), vec![(1, 1), (2, 2), (16, 1)]);
        assert_eq!(h.min_nanos(), 400_000);
        assert_eq!(h.max_nanos(), 9_000_000);
    }
}

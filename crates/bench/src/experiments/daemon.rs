//! Daemon throughput — the wire-protocol half of the benchmark story.
//!
//! Where `replay_throughput` measures the warehouse replaying a recorded
//! ingestion session *in process*, this experiment stands up a real
//! `zoomd` [`Daemon`] on a loopback socket and pushes the **same
//! workload** through the framed wire protocol:
//!
//! 1. **Replay over the wire.** The identical recorded trace
//!    ([`super::replay::recorded_trace`]) replays through a [`RemoteZoom`]
//!    against the fresh daemon. Because the daemon allocates ids in the
//!    exact single-warehouse sequence, the replay must be digest-clean —
//!    that is the correctness gate, not just a speed number.
//! 2. **Query storm.** A client fires a deep-provenance battery at the
//!    replayed run and measures queries per second.
//!
//! Results append to the `BENCH_<date>.json` scorecard next to the
//! in-process replay entry, so the wire tax is one subtraction away.

use crate::workloads::Scale;
use std::fmt::Write as _;
use std::time::Instant;
use zoom_core::{Daemon, DaemonConfig, RemoteZoom};
use zoom_warehouse::{ReplayOptions, RunId, TraceReplayer, ViewId};

/// Every measurement the scorecard needs from one daemon run.
#[derive(Clone, Debug)]
pub struct DaemonBench {
    /// Warehouse shards the daemon ran with.
    pub shards: usize,
    /// Ops in the replayed trace.
    pub trace_ops: usize,
    /// Wall-clock nanos replaying the trace over the wire.
    pub replay_nanos: u64,
    /// Chained session digest of the wire replay.
    pub replay_digest: u64,
    /// Recorded-digest mismatches in the wire replay (0 when clean).
    pub replay_mismatches: usize,
    /// Queries fired in the storm.
    pub queries: usize,
    /// Wall-clock nanos for the query storm.
    pub query_nanos: u64,
}

impl DaemonBench {
    /// The scorecard acceptance verdict: the wire replay reproduced every
    /// recorded per-op digest.
    pub fn pass(&self) -> bool {
        self.replay_mismatches == 0
    }

    /// Queries per wall-clock second during the storm.
    pub fn queries_per_sec(&self) -> f64 {
        self.queries as f64 * 1e9 / (self.query_nanos as f64).max(1.0)
    }
}

fn query_count(scale: Scale) -> usize {
    match scale {
        Scale::Paper => 10_000,
        Scale::Quick => 1_000,
    }
}

/// Runs the full daemon benchmark: wire replay, then query storm.
pub fn run(scale: Scale, seed: u64) -> DaemonBench {
    let (bytes, _events) = super::replay::recorded_trace(scale, seed);
    let replayer = TraceReplayer::from_bytes(&bytes).expect("recorder output parses");

    let daemon = Daemon::spawn("127.0.0.1:0", DaemonConfig::default())
        .expect("daemon binds a loopback port");
    let mut rz = RemoteZoom::connect(daemon.addr(), "bench").expect("client connects");

    // 1. Replay the recorded session through the wire protocol.
    let started = Instant::now();
    let report = replayer.replay(&mut rz, &ReplayOptions::default());
    let replay_nanos = started.elapsed().as_nanos() as u64;

    // 2. Query storm against the replayed run.
    let finals = rz.final_outputs(RunId(0)).expect("replayed run is sealed");
    let queries = query_count(scale);
    let started = Instant::now();
    for i in 0..queries {
        let d = finals[i % finals.len()];
        rz.deep_provenance(RunId(0), ViewId(0), d)
            .expect("query against replayed run");
    }
    let query_nanos = started.elapsed().as_nanos() as u64;

    DaemonBench {
        shards: daemon.shard_count(),
        trace_ops: report.ops,
        replay_nanos,
        replay_digest: report.digest,
        replay_mismatches: report.mismatches.len(),
        queries,
        query_nanos,
    }
}

/// Renders the human half of the result.
pub fn report(scale: Scale, seed: u64) -> String {
    let b = run(scale, seed);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "DAEMON THROUGHPUT — zoomd on loopback, {} shard(s) \
         (scale: {scale:?}, seed {seed})",
        b.shards
    );
    let _ = writeln!(
        out,
        "  wire replay: {} ops in {:.1} ms, digest {:016x} ({}) — {}",
        b.trace_ops,
        b.replay_nanos as f64 / 1e6,
        b.replay_digest,
        if b.pass() { "clean" } else { "MISMATCHED" },
        if b.pass() { "PASS" } else { "FAIL" },
    );
    let _ = writeln!(
        out,
        "  query storm: {} deep queries, {:.0} queries/s",
        b.queries,
        b.queries_per_sec(),
    );
    out
}

/// Renders the scorecard object appended to `BENCH_<date>.json`.
pub fn scorecard_json(b: &DaemonBench, scale: Scale, date: &str) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"experiment\": \"daemon_throughput\",");
    let _ = writeln!(out, "  \"date\": \"{date}\",");
    let _ = writeln!(
        out,
        "  \"scale\": \"{}\",",
        format!("{scale:?}").to_lowercase()
    );
    let _ = writeln!(out, "  \"shards\": {},", b.shards);
    let _ = writeln!(out, "  \"trace_ops\": {},", b.trace_ops);
    let _ = writeln!(out, "  \"replay_nanos\": {},", b.replay_nanos);
    let _ = writeln!(
        out,
        "  \"replay_digest\": \"{:016x}\",\n  \"replay_clean\": {},",
        b.replay_digest,
        b.pass()
    );
    let _ = writeln!(out, "  \"queries\": {},", b.queries);
    let _ = writeln!(out, "  \"queries_per_sec\": {:.0},", b.queries_per_sec());
    let _ = writeln!(out, "  \"acceptance\": {{\"pass\": {}}}", b.pass());
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_replays_clean() {
        let b = run(Scale::Quick, 2008);
        assert!(b.pass(), "{} wire-replay mismatches", b.replay_mismatches);
        assert!(b.queries_per_sec() > 0.0);
        let json = scorecard_json(&b, Scale::Quick, "2026-01-01");
        assert!(json.contains("\"experiment\": \"daemon_throughput\""));
        assert!(json.contains("\"replay_clean\": true"));
    }
}

//! Streaming replay throughput — the load-generator half of the trace
//! capture/replay harness.
//!
//! The experiment records a realistic ingestion session into an in-memory
//! trace: register a Loop-class workflow, attach the UAdmin and UBlackBox
//! views, stream a causally shuffled event log one event at a time with
//! deep-provenance probes interleaved mid-stream, seal, then fire a query
//! battery over the committed run. The trace is then replayed twice into
//! fresh warehouses at unpaced speed and the two runs must (a) reproduce
//! every recorded per-op digest (clean), (b) agree with each other on the
//! chained session digest (deterministic), and (c) finish at ≥ 2× the
//! recorded real-time pace — the `replay_throughput` acceptance bar of the
//! `BENCH_<date>.json` scorecard.

use crate::workloads::Scale;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::time::Instant;
use zoom_gen::{
    generate_run, generate_spec, interleaved_log, RunGenConfig, SpecGenConfig, WorkflowClass,
};
use zoom_model::{EventLog, LogEvent, UserView};
use zoom_warehouse::{
    Op, ReplayOptions, RunId, SpecId, TraceRecorder, TraceReplayer, ViewId, Warehouse,
};

/// Every measurement the scorecard needs from one record + double-replay
/// session.
#[derive(Clone, Debug)]
pub struct ReplayBench {
    /// Stream events pushed (the `PushEvent` ops).
    pub events: usize,
    /// Total trace ops, queries and registrations included.
    pub ops: usize,
    /// Encoded trace size in bytes.
    pub trace_bytes: usize,
    /// Virtual duration of the recorded session (logical clock × tick).
    pub recorded_nanos: u64,
    /// Wall-clock nanoseconds of the two replay runs.
    pub elapsed_nanos: [u64; 2],
    /// Chained session digests of the two replay runs.
    pub digests: [u64; 2],
    /// Recorded-digest mismatches across both runs (0 when clean).
    pub mismatches: usize,
}

impl ReplayBench {
    /// Both replays reproduced every recorded per-op digest.
    pub fn is_clean(&self) -> bool {
        self.mismatches == 0
    }

    /// The two replays agreed on the chained session digest.
    pub fn is_deterministic(&self) -> bool {
        self.digests[0] == self.digests[1]
    }

    /// Recorded virtual time over the *slower* replay's wall time — the
    /// conservative side of the ≥ 2× real-time acceptance bar.
    pub fn speedup(&self) -> f64 {
        let worst = self.elapsed_nanos.iter().copied().max().unwrap_or(0);
        self.recorded_nanos as f64 / (worst as f64).max(1.0)
    }

    /// Stream events replayed per wall-clock second (slower run).
    pub fn events_per_sec(&self) -> f64 {
        let worst = self.elapsed_nanos.iter().copied().max().unwrap_or(0);
        self.events as f64 * 1e9 / (worst as f64).max(1.0)
    }

    /// The scorecard acceptance verdict.
    pub fn pass(&self) -> bool {
        self.is_clean() && self.is_deterministic() && self.speedup() >= 2.0
    }
}

/// Generates the benchmark session and records it into trace bytes,
/// returning `(trace, stream_events)`. Shared with the `daemon_throughput`
/// experiment, which replays the *same* session over the wire so the two
/// scorecard entries measure the same workload through different paths.
pub fn recorded_trace(scale: Scale, seed: u64) -> (Vec<u8>, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = generate_spec(
        "replay-bench",
        &SpecGenConfig::new(WorkflowClass::Loop, 16),
        &mut rng,
    );
    let cfg = match scale {
        Scale::Paper => RunGenConfig {
            user_input: (1, 8),
            data_per_step: (1, 2),
            loop_iterations: (100, 200),
            max_nodes: 20_000,
            max_edges: 20_000,
        },
        Scale::Quick => RunGenConfig {
            user_input: (1, 8),
            data_per_step: (1, 2),
            loop_iterations: (20, 40),
            max_nodes: 2_000,
            max_edges: 2_000,
        },
    };
    let run = generate_run(&spec, &cfg, &mut rng).expect("valid");
    let log = interleaved_log(&spec, &run, &mut rng);
    let events = log.len();
    (record_session(&spec, &log), events)
}

/// Records the ingestion session and replays it twice.
///
/// `seed` drives both the synthetic run and the causal shuffle of its
/// event log, so the whole benchmark is reproducible end to end.
pub fn run(scale: Scale, seed: u64) -> ReplayBench {
    let (bytes, events) = recorded_trace(scale, seed);

    let replayer = TraceReplayer::from_bytes(&bytes).expect("recorder output parses");
    let mut reports = Vec::with_capacity(2);
    for _ in 0..2 {
        let mut fresh = Warehouse::new();
        let started = Instant::now();
        let report = replayer.replay(&mut fresh, &ReplayOptions::default());
        let elapsed = started.elapsed().as_nanos() as u64;
        reports.push((report, elapsed));
    }

    ReplayBench {
        events,
        ops: reports[0].0.ops,
        trace_bytes: bytes.len(),
        recorded_nanos: reports[0].0.recorded_nanos,
        elapsed_nanos: [reports[0].1, reports[1].1],
        digests: [reports[0].0.digest, reports[1].0.digest],
        mismatches: reports[0].0.mismatches.len() + reports[1].0.mismatches.len(),
    }
}

/// Streams `log` into a fresh warehouse under a [`TraceRecorder`]: views,
/// one `PushEvent` per event with a deep-provenance probe every 16th
/// `Wrote` (some answer, some reject — both digest deterministically),
/// seal, then a deep/immediate/forward battery over the finals per view.
fn record_session(spec: &zoom_model::WorkflowSpec, log: &EventLog) -> Vec<u8> {
    let sid = SpecId(0);
    let rid = RunId(0);
    let (admin, black_box) = (ViewId(0), ViewId(1));
    let mut wh = Warehouse::new();
    let mut rec = TraceRecorder::default();
    rec.record(&mut wh, Op::RegisterSpec(spec.clone()));
    rec.record(&mut wh, Op::RegisterView(sid, UserView::admin(spec)));
    rec.record(&mut wh, Op::RegisterView(sid, UserView::black_box(spec)));
    rec.record(&mut wh, Op::BeginStream(sid));
    for (i, ev) in log.events.iter().enumerate() {
        rec.record(&mut wh, Op::PushEvent(rid, ev.clone()));
        if i % 16 == 0 {
            if let LogEvent::Wrote { data, .. } = ev {
                rec.record(&mut wh, Op::DeepProvenance(rid, admin, *data));
            }
        }
    }
    rec.record(&mut wh, Op::SealStream(rid));
    let finals = wh.run(rid).expect("sealed").final_outputs().to_vec();
    let inputs = wh.run(rid).expect("sealed").user_inputs().to_vec();
    for view in [admin, black_box] {
        for &d in finals.iter().take(2) {
            rec.record(&mut wh, Op::DeepProvenance(rid, view, d));
            rec.record(&mut wh, Op::ImmediateProvenance(rid, view, d));
        }
        if let Some(&d) = inputs.first() {
            rec.record(&mut wh, Op::DependentsOf(rid, view, d));
        }
    }
    rec.to_bytes().expect("bench trace under frame cap")
}

/// Renders the human half of the result.
pub fn report(scale: Scale, seed: u64) -> String {
    let b = run(scale, seed);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "REPLAY THROUGHPUT — record a streaming ingestion session, replay it \
         twice unpaced (scale: {scale:?}, seed {seed})"
    );
    let _ = writeln!(
        out,
        "  trace: {} ops ({} stream events), {:.1} KiB, {:.1} s recorded \
         virtual time",
        b.ops,
        b.events,
        b.trace_bytes as f64 / 1024.0,
        b.recorded_nanos as f64 / 1e9,
    );
    let _ = writeln!(
        out,
        "  replay: {:.1} ms / {:.1} ms wall, digest {:016x} / {:016x} \
         ({}, {})",
        b.elapsed_nanos[0] as f64 / 1e6,
        b.elapsed_nanos[1] as f64 / 1e6,
        b.digests[0],
        b.digests[1],
        if b.is_deterministic() {
            "deterministic"
        } else {
            "NON-DETERMINISTIC"
        },
        if b.is_clean() { "clean" } else { "MISMATCHED" },
    );
    let _ = writeln!(
        out,
        "  throughput: {:.0} events/s, {:.0}x real-time (bar: ≥ 2x) — {}",
        b.events_per_sec(),
        b.speedup(),
        if b.pass() { "PASS" } else { "FAIL" },
    );
    out
}

/// Renders the scorecard object appended to `BENCH_<date>.json`.
pub fn scorecard_json(b: &ReplayBench, scale: Scale, date: &str) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"experiment\": \"replay_throughput\",");
    let _ = writeln!(out, "  \"date\": \"{date}\",");
    let _ = writeln!(
        out,
        "  \"scale\": \"{}\",",
        format!("{scale:?}").to_lowercase()
    );
    let _ = writeln!(out, "  \"ops\": {},", b.ops);
    let _ = writeln!(out, "  \"stream_events\": {},", b.events);
    let _ = writeln!(out, "  \"trace_bytes\": {},", b.trace_bytes);
    let _ = writeln!(out, "  \"recorded_nanos\": {},", b.recorded_nanos);
    let _ = writeln!(
        out,
        "  \"replay_nanos\": [{}, {}],",
        b.elapsed_nanos[0], b.elapsed_nanos[1]
    );
    let _ = writeln!(
        out,
        "  \"digest\": \"{:016x}\",\n  \"deterministic\": {},\n  \"clean\": {},",
        b.digests[0],
        b.is_deterministic(),
        b.is_clean()
    );
    let _ = writeln!(out, "  \"events_per_sec\": {:.0},", b.events_per_sec());
    let _ = writeln!(
        out,
        "  \"acceptance\": {{\"speedup\": {:.1}, \"bar\": 2.0, \"pass\": {}}}",
        b.speedup(),
        b.pass()
    );
    out.push('}');
    out
}

/// Appends `obj` (a JSON object) to the scorecard file `existing`: a
/// missing or empty file becomes `[obj]`-less plain `obj`; a single object
/// becomes a two-element array; an array gets one more element. Returns
/// the new file contents.
pub fn append_scorecard(existing: &str, obj: &str) -> String {
    let trimmed = existing.trim();
    if trimmed.is_empty() {
        return format!("{obj}\n");
    }
    if let Some(body) = trimmed.strip_prefix('[') {
        let inner = body.strip_suffix(']').unwrap_or(body).trim_end();
        let sep = if inner.trim().is_empty() { "" } else { ",\n" };
        return format!("[{inner}{sep}{obj}\n]\n");
    }
    format!("[\n{trimmed},\n{obj}\n]\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_holds_the_bar() {
        let b = run(Scale::Quick, 2008);
        assert!(b.events > 100, "workload too small: {} events", b.events);
        assert!(b.ops > b.events, "queries were not interleaved");
        assert!(b.is_clean(), "{} digest mismatches", b.mismatches);
        assert!(
            b.is_deterministic(),
            "digests diverged: {:016x} vs {:016x}",
            b.digests[0],
            b.digests[1]
        );
        assert!(
            b.speedup() >= 2.0,
            "replay too slow: {:.2}x real-time",
            b.speedup()
        );
        let json = scorecard_json(&b, Scale::Quick, "2026-01-01");
        assert!(json.contains("\"experiment\": \"replay_throughput\""));
        assert!(json.contains("\"pass\": true"));
    }

    #[test]
    fn scorecard_append_grows_object_then_array() {
        let one = append_scorecard("", "{\"a\":1}");
        assert_eq!(one.trim(), "{\"a\":1}");
        let two = append_scorecard(&one, "{\"b\":2}");
        assert!(two.trim_start().starts_with('['), "{two}");
        assert!(two.contains("\"a\":1") && two.contains("\"b\":2"));
        let three = append_scorecard(&two, "{\"c\":3}");
        assert!(three.trim_end().ends_with(']'), "{three}");
        assert_eq!(three.matches("\"experiment\"").count(), 0);
        assert!(three.contains("\"a\":1") && three.contains("\"c\":3"));
        // Still exactly one opening bracket — no nesting on repeat appends.
        assert_eq!(three.matches('[').count(), 1, "{three}");
    }
}

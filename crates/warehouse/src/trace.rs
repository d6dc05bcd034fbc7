//! Deterministic capture/replay of warehouse traffic.
//!
//! A [`TraceRecorder`] logs every [`Op`] a backend applies — registrations,
//! batch loads, streaming events, provenance queries — together with a
//! **logical clock** and a digest of its [`Answer`], into a length-prefixed,
//! checksummed binary artifact (the same frame format as the journal). A
//! [`TraceReplayer`] re-executes the artifact against any build — an
//! in-memory [`Warehouse`], a [`DurableWarehouse`] over a fault-injecting
//! filesystem, next year's refactor — and diffs the result digests
//! operation by operation.
//!
//! Determinism rules: nothing in a trace derives from wall-clock time,
//! thread scheduling, or hash-map iteration order. The clock is a counter
//! (the header's `tick_nanos` maps it to *virtual* nanoseconds for paced
//! replay and throughput scoring); digests are computed over canonically
//! ordered renderings (provenance rows and execs are sorted by the query
//! layer, dependents are re-sorted here). That is what makes a recorded
//! trace a regression oracle: the same trace replayed twice — or against
//! two builds — must produce byte-identical digests, so any divergence is
//! a real behavior change, not replay noise.

use crate::codec::{self, CodecError};
use crate::durable::DurableWarehouse;
use crate::journal::crc32;
use crate::metrics::{Counter, MetricsRegistry};
use crate::op::{Answer, Op, Store};
use crate::store::Warehouse;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::Instant;

/// Trace artifact magic: `ZOOMTR` + version 1.
pub const MAGIC: &[u8; 8] = b"ZOOMTR\x00\x01";

/// Default virtual duration of one clock tick: 1 ms.
pub const DEFAULT_TICK_NANOS: u64 = 1_000_000;

/// Errors from trace encoding/decoding.
#[derive(Debug)]
pub enum TraceError {
    /// The artifact does not start with the trace magic.
    BadHeader,
    /// A frame failed its CRC or was truncated. Traces are immutable
    /// artifacts, not write-ahead logs: a torn tail is corruption, not
    /// recovery input.
    Corrupt {
        /// Zero-based index of the bad frame (the header is frame 0).
        frame: u64,
    },
    /// A frame payload failed to decode.
    Codec(CodecError),
    /// A frame payload exceeded [`crate::wire::MAX_FRAME_BYTES`] — on
    /// write, the payload was refused instead of silently truncating its
    /// length to `u32` (which would emit a trace that passes per-frame
    /// CRC but decodes garbage); on read, the declared length was
    /// rejected before allocating.
    FrameTooLarge {
        /// The offending payload (or declared) length in bytes.
        len: u64,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::BadHeader => write!(f, "not a trace artifact (bad magic)"),
            TraceError::Corrupt { frame } => write!(f, "trace frame {frame} corrupt or truncated"),
            TraceError::Codec(e) => write!(f, "trace codec error: {e}"),
            TraceError::FrameTooLarge { len } => write!(
                f,
                "trace frame of {len} bytes exceeds cap of {} bytes",
                crate::wire::MAX_FRAME_BYTES
            ),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<CodecError> for TraceError {
    fn from(e: CodecError) -> Self {
        TraceError::Codec(e)
    }
}

/// The header frame of a trace artifact.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceHeader {
    /// Virtual nanoseconds per clock tick (for paced replay and
    /// throughput scoring).
    pub tick_nanos: u64,
}

/// One recorded operation: when (logical clock), what, and the digest of
/// what it returned.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Logical clock at which the operation ran (monotone, 1-based).
    pub clock: u64,
    /// The operation.
    pub op: Op,
    /// FNV-1a digest of the canonical result rendering.
    pub digest: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte string — small, stable, dependency-free.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a digest of a canonical result rendering — the digest every
/// [`TraceTarget`] records per operation: [`Answer::canonical`] for an
/// answer, `err:` + display for an error. Errors from any backend render
/// through their display text, so a trace recorded against one backend
/// compares against any other.
pub fn digest<E: fmt::Display>(res: &Result<Answer<E>, E>) -> u64 {
    match res {
        Ok(answer) => fnv1a(answer.canonical().as_bytes()),
        Err(e) => fnv1a(format!("err:{e}").as_bytes()),
    }
}

/// Anything a trace can be recorded against or replayed into: a backend
/// that applies an [`Op`] and digests its answer.
///
/// Implementations must be deterministic: the digest for an operation may
/// depend only on the operation and the state left by prior operations.
pub trait TraceTarget {
    /// Applies `op` and returns the [`digest`] of its answer.
    fn apply_trace_op(&mut self, op: &Op) -> u64;

    /// The metrics registry replay counters should land in, if any.
    fn replay_metrics(&self) -> Option<&MetricsRegistry> {
        None
    }
}

impl TraceTarget for Warehouse {
    fn apply_trace_op(&mut self, op: &Op) -> u64 {
        digest(&self.apply(op))
    }

    fn replay_metrics(&self) -> Option<&MetricsRegistry> {
        Some(self.metrics_registry())
    }
}

impl TraceTarget for DurableWarehouse {
    fn apply_trace_op(&mut self, op: &Op) -> u64 {
        digest(&self.apply(op))
    }

    fn replay_metrics(&self) -> Option<&MetricsRegistry> {
        Some(self.warehouse().metrics_registry())
    }
}

fn push_frame(out: &mut Vec<u8>, payload: &[u8]) -> Result<(), TraceError> {
    // Never truncate the length to u32: a >4 GiB payload would otherwise
    // emit a frame whose CRC covers the full payload but whose length
    // prefix wraps, producing an artifact that decodes garbage.
    if payload.len() as u64 > crate::wire::MAX_FRAME_BYTES as u64 {
        return Err(TraceError::FrameTooLarge {
            len: payload.len() as u64,
        });
    }
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    Ok(())
}

/// Records facade operations into a trace artifact.
pub struct TraceRecorder {
    header: TraceHeader,
    clock: u64,
    records: Vec<TraceRecord>,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        Self::new(DEFAULT_TICK_NANOS)
    }
}

impl TraceRecorder {
    /// A recorder whose clock ticks are worth `tick_nanos` virtual
    /// nanoseconds each.
    pub fn new(tick_nanos: u64) -> Self {
        TraceRecorder {
            header: TraceHeader { tick_nanos },
            clock: 0,
            records: Vec::new(),
        }
    }

    /// Executes `op` against `target`, records it (with the next logical
    /// clock value and the result digest), and returns the digest.
    pub fn record<T: TraceTarget>(&mut self, target: &mut T, op: Op) -> u64 {
        let digest = target.apply_trace_op(&op);
        self.clock += 1;
        self.records.push(TraceRecord {
            clock: self.clock,
            op,
            digest,
        });
        digest
    }

    /// Number of recorded operations.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Serializes the trace artifact: magic, header frame, one frame per
    /// record, each `[len][crc32][payload]`. Fails with
    /// [`TraceError::FrameTooLarge`] if any single record exceeds the
    /// frame cap — never silently truncates.
    pub fn to_bytes(&self) -> Result<Vec<u8>, TraceError> {
        let mut out = Vec::with_capacity(64 * (self.records.len() + 1));
        out.extend_from_slice(MAGIC);
        let header = codec::to_bytes(&self.header)?;
        push_frame(&mut out, &header)?;
        for rec in &self.records {
            let payload = codec::to_bytes(rec)?;
            push_frame(&mut out, &payload)?;
        }
        Ok(out)
    }
}

/// How a replay should run.
#[derive(Clone, Copy, Debug)]
pub struct ReplayOptions {
    /// Pacing: 0.0 (the default) replays as fast as possible; `s > 0`
    /// replays at `s`× recorded speed (1.0 = real time under the
    /// header's tick mapping).
    pub speed: f64,
}

impl Default for ReplayOptions {
    fn default() -> Self {
        ReplayOptions { speed: 0.0 }
    }
}

/// One digest divergence between a recording and a replay.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayMismatch {
    /// Zero-based operation index.
    pub index: usize,
    /// The operation's logical clock in the recording.
    pub clock: u64,
    /// The operation's name.
    pub op: &'static str,
    /// Digest in the recording.
    pub expected: u64,
    /// Digest produced by this replay.
    pub got: u64,
}

/// The outcome of one replay.
#[derive(Clone, Debug)]
pub struct ReplayReport {
    /// Operations replayed.
    pub ops: usize,
    /// Digest divergences, in operation order.
    pub mismatches: Vec<ReplayMismatch>,
    /// Chained FNV-1a digest over every per-op digest this replay
    /// produced — two replays agree end-to-end iff these bytes agree.
    pub digest: u64,
    /// Virtual duration of the recording (`max clock × tick_nanos`).
    pub recorded_nanos: u64,
    /// Wall-clock duration of this replay.
    pub elapsed_nanos: u64,
}

impl ReplayReport {
    /// Whether every digest matched the recording.
    pub fn is_clean(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// How many times faster than the recording this replay ran
    /// (virtual recorded time over wall time).
    pub fn speedup(&self) -> f64 {
        if self.elapsed_nanos == 0 {
            return f64::INFINITY;
        }
        self.recorded_nanos as f64 / self.elapsed_nanos as f64
    }
}

/// Replays a decoded trace artifact against any [`TraceTarget`].
pub struct TraceReplayer {
    header: TraceHeader,
    records: Vec<TraceRecord>,
}

impl TraceReplayer {
    /// Decodes a trace artifact, validating magic and every frame CRC.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, TraceError> {
        let body = bytes.strip_prefix(MAGIC).ok_or(TraceError::BadHeader)?;
        let mut frames = Vec::new();
        let mut rest = body;
        let mut frame = 0u64;
        while !rest.is_empty() {
            if rest.len() < 8 {
                return Err(TraceError::Corrupt { frame });
            }
            let len = u32::from_le_bytes(rest[0..4].try_into().unwrap()) as usize;
            let crc = u32::from_le_bytes(rest[4..8].try_into().unwrap());
            if len as u64 > crate::wire::MAX_FRAME_BYTES as u64 {
                // Reject a hostile declared length before touching that
                // many bytes (streaming readers would otherwise allocate).
                return Err(TraceError::FrameTooLarge { len: len as u64 });
            }
            if rest.len() < 8 + len {
                return Err(TraceError::Corrupt { frame });
            }
            let payload = &rest[8..8 + len];
            if crc32(payload) != crc {
                return Err(TraceError::Corrupt { frame });
            }
            frames.push(payload);
            rest = &rest[8 + len..];
            frame += 1;
        }
        let Some((header_payload, record_payloads)) = frames.split_first() else {
            return Err(TraceError::BadHeader);
        };
        let header: TraceHeader = codec::from_bytes(header_payload)?;
        let mut records = Vec::with_capacity(record_payloads.len());
        for p in record_payloads {
            records.push(codec::from_bytes::<TraceRecord>(p)?);
        }
        Ok(TraceReplayer { header, records })
    }

    /// The artifact's header.
    pub fn header(&self) -> TraceHeader {
        self.header
    }

    /// Number of recorded operations.
    pub fn ops(&self) -> usize {
        self.records.len()
    }

    /// The recorded operations.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Re-executes the trace against `target`, diffing each result digest
    /// against the recording. With `speed > 0` each operation waits for
    /// its recorded virtual time (scaled); otherwise the replay is a
    /// maximum-throughput load generator.
    pub fn replay<T: TraceTarget>(&self, target: &mut T, options: &ReplayOptions) -> ReplayReport {
        if let Some(m) = target.replay_metrics() {
            m.add(Counter::ReplaySessions, 1);
        }
        let started = Instant::now();
        let mut mismatches = Vec::new();
        let mut chain = FNV_OFFSET;
        for (i, rec) in self.records.iter().enumerate() {
            if options.speed > 0.0 {
                let due_nanos =
                    (rec.clock.saturating_mul(self.header.tick_nanos)) as f64 / options.speed;
                let due = std::time::Duration::from_nanos(due_nanos as u64);
                let elapsed = started.elapsed();
                if due > elapsed {
                    std::thread::sleep(due - elapsed);
                }
            }
            let got = target.apply_trace_op(&rec.op);
            for b in got.to_le_bytes() {
                chain ^= b as u64;
                chain = chain.wrapping_mul(FNV_PRIME);
            }
            let mismatch = got != rec.digest;
            if mismatch {
                mismatches.push(ReplayMismatch {
                    index: i,
                    clock: rec.clock,
                    op: rec.op.name(),
                    expected: rec.digest,
                    got,
                });
            }
            if let Some(m) = target.replay_metrics() {
                m.record_replay_op(mismatch);
            }
        }
        let recorded_nanos = self
            .records
            .last()
            .map_or(0, |r| r.clock.saturating_mul(self.header.tick_nanos));
        ReplayReport {
            ops: self.records.len(),
            mismatches,
            digest: chain,
            recorded_nanos,
            elapsed_nanos: started.elapsed().as_nanos() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{RunId, SpecId, ViewId};
    use zoom_model::ids::{StepId, Timestamp};
    use zoom_model::{DataId, EventLog, LogEvent, RunBuilder, SpecBuilder, WorkflowSpec};

    fn spec() -> WorkflowSpec {
        let mut b = SpecBuilder::new("tr");
        b.analysis("A");
        b.analysis("B");
        b.from_input("A").edge("A", "B").to_output("B");
        b.build().unwrap()
    }

    fn demo_log(s: &WorkflowSpec) -> EventLog {
        let (a, bb) = (s.module("A").unwrap(), s.module("B").unwrap());
        let mut rb = RunBuilder::new(s);
        let s1 = rb.step(a);
        let s2 = rb.step(bb);
        rb.input_edge(s1, [1])
            .data_edge(s1, s2, [2])
            .output_edge(s2, [3]);
        EventLog::from_run(&rb.build().unwrap(), s)
    }

    fn record_demo() -> (TraceRecorder, Warehouse) {
        let s = spec();
        let log = demo_log(&s);
        let mut w = Warehouse::new();
        let mut rec = TraceRecorder::default();
        rec.record(&mut w, Op::RegisterSpec(s.clone()));
        rec.record(
            &mut w,
            Op::RegisterView(SpecId(0), zoom_model::UserView::admin(&s)),
        );
        // One batch run, one streamed run of the same log.
        rec.record(&mut w, Op::LoadLog(SpecId(0), log.clone()));
        rec.record(&mut w, Op::BeginStream(SpecId(0)));
        for ev in &log.events {
            if matches!(ev, LogEvent::Finalized { .. }) {
                rec.record(&mut w, Op::PushEvent(RunId(1), ev.clone()));
            } else {
                rec.record(&mut w, Op::PushEvent(RunId(1), ev.clone()));
                rec.record(&mut w, Op::DeepProvenance(RunId(1), ViewId(0), DataId(2)));
            }
        }
        rec.record(&mut w, Op::SealStream(RunId(1)));
        for run in [0, 1] {
            rec.record(&mut w, Op::DeepProvenance(RunId(run), ViewId(0), DataId(3)));
            rec.record(
                &mut w,
                Op::ImmediateProvenance(RunId(run), ViewId(0), DataId(3)),
            );
            rec.record(&mut w, Op::DependentsOf(RunId(run), ViewId(0), DataId(1)));
        }
        (rec, w)
    }

    #[test]
    fn roundtrip_and_clean_replay() {
        let (rec, _) = record_demo();
        let bytes = rec.to_bytes().unwrap();
        let replayer = TraceReplayer::from_bytes(&bytes).unwrap();
        assert_eq!(replayer.ops(), rec.len());

        let mut fresh = Warehouse::new();
        let report = replayer.replay(&mut fresh, &ReplayOptions::default());
        assert!(report.is_clean(), "mismatches: {:?}", report.mismatches);
        assert_eq!(report.ops, rec.len());

        // Determinism: a second replay into another fresh warehouse
        // produces the identical chained digest.
        let mut again = Warehouse::new();
        let report2 = replayer.replay(&mut again, &ReplayOptions::default());
        assert!(report2.is_clean());
        assert_eq!(report.digest, report2.digest);

        // Replay metrics landed.
        let snap = fresh.metrics();
        assert_eq!(snap.replay.sessions, 1);
        assert_eq!(snap.replay.ops as usize, rec.len());
        assert_eq!(snap.replay.mismatches, 0);
    }

    #[test]
    fn mismatch_detected_against_diverged_state() {
        let (rec, _) = record_demo();
        let bytes = rec.to_bytes().unwrap();
        let replayer = TraceReplayer::from_bytes(&bytes).unwrap();
        // A warehouse that already has a spec shifts every id: digests of
        // the id-returning mutations diverge.
        let mut skewed = Warehouse::new();
        let mut other = SpecBuilder::new("occupant");
        other.analysis("X");
        other.from_input("X").to_output("X");
        skewed.register_spec(other.build().unwrap()).unwrap();
        let report = replayer.replay(&mut skewed, &ReplayOptions::default());
        assert!(!report.is_clean());
        assert_eq!(
            skewed.metrics().replay.mismatches as usize,
            report.mismatches.len()
        );
    }

    #[test]
    fn corrupt_frames_rejected() {
        let (rec, _) = record_demo();
        let mut bytes = rec.to_bytes().unwrap();
        assert!(matches!(
            TraceReplayer::from_bytes(b"NOTATRACE"),
            Err(TraceError::BadHeader)
        ));
        // Flip a payload byte: CRC mismatch.
        let n = bytes.len();
        bytes[n - 1] ^= 0xff;
        assert!(matches!(
            TraceReplayer::from_bytes(&bytes),
            Err(TraceError::Corrupt { .. })
        ));
        // Truncate mid-frame: torn tail is corruption for traces.
        bytes.truncate(n - 3);
        assert!(matches!(
            TraceReplayer::from_bytes(&bytes),
            Err(TraceError::Corrupt { .. })
        ));
    }

    #[test]
    fn rejection_digests_are_stable_too() {
        // Errors are part of the recorded behavior: replaying an op that
        // failed identically matches digests.
        let s = spec();
        let mut w = Warehouse::new();
        let mut rec = TraceRecorder::default();
        rec.record(&mut w, Op::RegisterSpec(s.clone()));
        rec.record(&mut w, Op::BeginStream(SpecId(0)));
        // Out-of-order event: rejected, and the rejection is recorded.
        rec.record(
            &mut w,
            Op::PushEvent(
                RunId(0),
                LogEvent::StepFinished {
                    step: StepId(7),
                    time: Timestamp(1),
                },
            ),
        );
        let replayer = TraceReplayer::from_bytes(&rec.to_bytes().unwrap()).unwrap();
        let mut fresh = Warehouse::new();
        let report = replayer.replay(&mut fresh, &ReplayOptions::default());
        assert!(report.is_clean(), "mismatches: {:?}", report.mismatches);
    }
}

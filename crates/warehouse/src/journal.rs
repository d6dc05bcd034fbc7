//! The journal record format shared by [`crate::durable`]'s write-ahead
//! log.
//!
//! Snapshots ([`crate::persist`]) rewrite the whole warehouse; a laboratory
//! ingesting runs "about twice a week" per workflow wants every
//! registration and load to be durable *as it happens*. The durable store
//! appends one length-prefixed, checksummed record per mutation
//! (`encode_frame`) and, on open, replays the records into the warehouse
//! the snapshot restored (`replay_body`). A torn final record (crash
//! mid-append) is detected via CRC and dropped; corruption in the middle
//! of the file is reported as an error.
//!
//! Record wire format: `[u32 len (LE)] [u32 crc32 of payload (LE)]
//! [payload: codec-encoded JournalRecord]`, after an 8-byte magic header.

use crate::codec::{self, CodecError};
use crate::schema::{RunId, RunRow, SpecId, SpecRow, ViewId, ViewRow};
use crate::store::{Warehouse, WarehouseError};
use serde::{Deserialize, Serialize};
use std::fmt;
use zoom_model::LogEvent;

/// Magic bytes identifying a warehouse journal.
pub const MAGIC: &[u8; 8] = b"ZOOMWJ\x00\x01";

/// Errors from journal operations.
#[derive(Debug)]
pub enum JournalError {
    /// Encoding/decoding error.
    Codec(CodecError),
    /// Warehouse-level rejection during replay.
    Warehouse(WarehouseError),
    /// A record in the middle of the journal is corrupt (CRC mismatch).
    Corrupt {
        /// Index of the corrupt record.
        record: usize,
    },
    /// A journaled id does not match the id replay assigned — the journal
    /// was written against a different base state (or doctored).
    IdMismatch {
        /// The id stored in the record.
        expected: String,
        /// The id replay assigned.
        got: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Codec(e) => write!(f, "codec error: {e}"),
            JournalError::Warehouse(e) => write!(f, "warehouse error: {e}"),
            JournalError::Corrupt { record } => {
                write!(f, "journal record {record} is corrupt (crc mismatch)")
            }
            JournalError::IdMismatch { expected, got } => {
                write!(
                    f,
                    "journal replay id mismatch: record says {expected}, replay assigned {got}"
                )
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl From<CodecError> for JournalError {
    fn from(e: CodecError) -> Self {
        JournalError::Codec(e)
    }
}

impl From<WarehouseError> for JournalError {
    fn from(e: WarehouseError) -> Self {
        JournalError::Warehouse(e)
    }
}

/// One durable mutation, as [`crate::durable`] journals it behind its
/// manifest.
#[derive(Serialize, Deserialize)]
pub(crate) enum JournalRecord {
    /// A registered specification.
    Spec(SpecId, SpecRow),
    /// A registered view.
    View(ViewId, ViewRow),
    /// A loaded run (boxed: a run is far larger than the other records).
    Run(RunId, Box<RunRow>),
    // Streaming records follow. New variants go at the END of the enum:
    // the codec encodes variants by index, so reordering would silently
    // misread old journals.
    /// A streaming run was opened against a spec.
    StreamBegin(RunId, SpecId),
    /// One accepted streaming event. Journaled event-at-a-time — not
    /// batched — so every acknowledged event is durable before `apply`
    /// mutates memory, and recovery replays exactly the acknowledged
    /// prefix.
    StreamEvent(RunId, LogEvent),
    /// A streaming run was sealed into a complete run.
    StreamSeal(RunId),
}

/// Encodes one record as a wire frame: `[len][crc][payload]`.
pub(crate) fn encode_frame(rec: &JournalRecord) -> Result<Vec<u8>, JournalError> {
    let payload = codec::to_bytes(rec)?;
    let mut frame = Vec::with_capacity(8 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    Ok(frame)
}

/// What a replay pass over a journal body found.
pub(crate) struct ReplayOutcome {
    /// Number of intact records applied.
    pub records: usize,
    /// Bytes of the body covered by intact records; anything past this is a
    /// torn tail the caller should truncate away.
    pub valid_end: usize,
}

/// Replays a journal body (everything after the magic header) into `w`.
///
/// A torn final record is dropped; corruption before the end is an error.
/// With `check_ids`, every record's stored id must equal the id replay
/// assigns — the guarantee that the journal really is a continuation of
/// `w`'s current state.
pub(crate) fn replay_body(
    w: &mut Warehouse,
    body: &[u8],
    check_ids: bool,
) -> Result<ReplayOutcome, JournalError> {
    let mut offset = 0usize;
    let mut records = 0usize;
    let mut valid_end = 0usize;
    while body.len() - offset >= 8 {
        let len =
            u32::from_le_bytes(body[offset..offset + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(body[offset + 4..offset + 8].try_into().expect("4"));
        let start = offset + 8;
        if body.len() < start + len {
            break; // torn tail
        }
        let payload = &body[start..start + len];
        if crc32(payload) != crc {
            // A bad checksum at the very end is a torn write; earlier it
            // is corruption.
            if start + len == body.len() {
                break;
            }
            return Err(JournalError::Corrupt { record: records });
        }
        let rec: JournalRecord = codec::from_bytes(payload)?;
        apply(w, rec, check_ids)?;
        records += 1;
        offset = start + len;
        valid_end = offset;
    }
    Ok(ReplayOutcome { records, valid_end })
}

/// CRC-32 (IEEE 802.3, reflected), slicing-by-8: eight table lookups per
/// eight input bytes instead of one per byte. Implemented here because no
/// checksum crate is in the workspace's dependency budget.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][c[4] as usize]
            ^ t[2][c[5] as usize]
            ^ t[1][c[6] as usize]
            ^ t[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// `CRC_TABLES[0]` is the bytewise CRC table; `CRC_TABLES[k][b]` advances
/// `CRC_TABLES[k - 1][b]` by one zero byte, i.e. it is byte `b`'s
/// contribution from `k` bytes further back in an 8-byte block.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

fn check_id(
    check: bool,
    expected: impl fmt::Display,
    got: impl fmt::Display,
) -> Result<(), JournalError> {
    let (expected, got) = (expected.to_string(), got.to_string());
    if check && expected != got {
        return Err(JournalError::IdMismatch { expected, got });
    }
    Ok(())
}

fn apply(w: &mut Warehouse, rec: JournalRecord, check_ids: bool) -> Result<(), JournalError> {
    match rec {
        JournalRecord::Spec(id, row) => {
            // Journal bytes bypass the builders; re-validate.
            row.spec.validate().map_err(WarehouseError::Model)?;
            let got = w.register_spec(row.spec)?;
            check_id(check_ids, id, got)?;
        }
        JournalRecord::View(id, row) => {
            // `register_view` re-validates the partition against the spec.
            let got = w.register_view(row.spec, row.view)?;
            check_id(check_ids, id, got)?;
        }
        JournalRecord::Run(id, row) => {
            let RunRow { spec, run } = *row;
            run.validate(w.spec(spec)?).map_err(WarehouseError::Model)?;
            let got = w.load_run(spec, run)?;
            check_id(check_ids, id, got)?;
        }
        JournalRecord::StreamBegin(id, spec) => {
            let got = w.begin_stream(spec)?;
            check_id(check_ids, id, got)?;
        }
        JournalRecord::StreamEvent(run, ev) => {
            // The event was validated before it was journaled; replaying
            // it through the same accept path re-validates for free.
            w.stream_push(run, &ev)?;
        }
        JournalRecord::StreamSeal(run) => {
            w.stream_seal(run)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bytewise table-driven CRC-32, the oracle for [`crc32`].
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    #[test]
    fn crc32_known_vectors() {
        for crc in [crc32, crc32_bytewise] {
            assert_eq!(crc(b""), 0);
            assert_eq!(crc(b"123456789"), 0xCBF4_3926);
            assert_eq!(
                crc(b"The quick brown fox jumps over the lazy dog"),
                0x414F_A339
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Slicing-by-8 equals the bytewise CRC on every length and start
        /// offset: blocks, remainders and unaligned starts alike.
        #[test]
        fn crc32_matches_bytewise(
            bytes in proptest::collection::vec(any::<u8>(), 0..300),
            start in 0usize..16,
        ) {
            let tail = &bytes[start.min(bytes.len())..];
            prop_assert_eq!(crc32(tail), crc32_bytewise(tail));
        }
    }
}

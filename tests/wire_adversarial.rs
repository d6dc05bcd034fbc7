//! Adversarial wire-protocol tests: raw sockets throwing hostile byte
//! sequences at a live `zoomd` daemon.
//!
//! The contract under test has three layers:
//!
//! 1. A declared frame length above `MAX_FRAME_BYTES` is rejected
//!    *before any allocation* — a 4 GiB length prefix costs nothing.
//! 2. A framing error (truncation, bad checksum, oversized length)
//!    poisons only that connection: one framed error reply, then drop.
//!    A codec error inside a valid frame keeps the connection alive.
//! 3. None of it is visible to other tenants: their in-flight queries
//!    keep completing while the daemon absorbs garbage.
//!
//! Well-framed but doctored payloads are refused with the error journal
//! replay would give them, before anything is journaled.

use std::collections::BTreeMap;
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;

use serde::{Deserialize, Serialize};
use zoom::core::{Daemon, DaemonConfig, RemoteError, RemoteZoom};
use zoom::graph::digraph::ADJACENCY_MISMATCH;
use zoom::graph::{EdgeId, NodeId};
use zoom::model::{EventLog, SpecBuilder, SpecNode, WorkflowSpec};
use zoom::warehouse::journal::crc32;
use zoom::warehouse::wire::{read_message, write_frame};
use zoom::warehouse::{codec, fsck, Op, Request, Response, SpecId, WarehouseError};
use zoom_gen::library::{figure2_run, phylogenomic};

fn spawn(shards: usize) -> Daemon {
    Daemon::spawn(
        "127.0.0.1:0",
        DaemonConfig {
            shards,
            ..DaemonConfig::default()
        },
    )
    .expect("daemon binds an ephemeral port")
}

fn raw(daemon: &Daemon) -> TcpStream {
    let s = TcpStream::connect(daemon.addr()).expect("daemon accepts connections");
    s.set_nodelay(true).unwrap();
    s
}

/// Reads one framed [`Response`] off a raw socket.
fn read_response(stream: &TcpStream) -> Option<Response> {
    let mut r = BufReader::new(stream.try_clone().unwrap());
    read_message::<Response>(&mut r).ok().flatten()
}

/// The daemon is still healthy: a fresh client can do real work.
fn assert_daemon_serves(daemon: &Daemon) {
    let mut rz = RemoteZoom::connect(daemon.addr(), "probe").unwrap();
    assert!(
        matches!(rz.ping(), Ok(())),
        "daemon stopped answering pings"
    );
}

#[test]
fn oversized_length_prefix_is_rejected_before_allocation() {
    let daemon = spawn(2);
    let mut s = raw(&daemon);
    // Declared length: 4 GiB - 1. If the server allocated this eagerly the
    // test box would notice; instead it must answer with a framed error.
    s.write_all(&u32::MAX.to_le_bytes()).unwrap();
    s.write_all(&0u32.to_le_bytes()).unwrap();
    s.flush().unwrap();
    match read_response(&s) {
        Some(Response::Error { message }) => {
            assert!(
                message.contains("exceeds cap"),
                "expected the frame-cap error, got: {message}"
            );
        }
        other => panic!("expected a framed error reply, got {other:?}"),
    }
    // The byte stream is no longer trusted: the connection must be dropped.
    let mut rest = Vec::new();
    BufReader::new(&s).read_to_end(&mut rest).unwrap();
    assert!(
        rest.is_empty(),
        "connection should close after framing error"
    );
    assert_daemon_serves(&daemon);
}

#[test]
fn corrupted_checksum_gets_an_error_then_a_hangup() {
    let daemon = spawn(2);
    let payload = b"not even close to a request";
    let mut s = raw(&daemon);
    s.write_all(&(payload.len() as u32).to_le_bytes()).unwrap();
    s.write_all(&(crc32(payload) ^ 0xDEAD_BEEF).to_le_bytes())
        .unwrap();
    s.write_all(payload).unwrap();
    s.flush().unwrap();
    match read_response(&s) {
        Some(Response::Error { message }) => {
            assert!(message.contains("checksum"), "got: {message}");
        }
        other => panic!("expected a framed error reply, got {other:?}"),
    }
    let mut rest = Vec::new();
    BufReader::new(&s).read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());
    assert_daemon_serves(&daemon);
}

#[test]
fn garbage_inside_a_valid_frame_keeps_the_connection_alive() {
    let daemon = spawn(2);
    let s = raw(&daemon);
    let mut w = s.try_clone().unwrap();
    // A perfectly framed payload that is not a Request: the frame
    // boundaries are still trustworthy, so the connection survives.
    write_frame(&mut w, &[0xFF; 64]).unwrap();
    w.flush().unwrap();
    let mut reader = BufReader::new(s.try_clone().unwrap());
    match read_message::<Response>(&mut reader).unwrap() {
        Some(Response::Error { message }) => {
            assert!(message.contains("malformed request"), "got: {message}");
        }
        other => panic!("expected malformed-request error, got {other:?}"),
    }
    // Same connection, now speak the protocol: it still answers.
    let ping: Request = Request::Ping;
    zoom::warehouse::wire::write_message(&mut w, &ping).unwrap();
    w.flush().unwrap();
    match read_message::<Response>(&mut reader).unwrap() {
        Some(Response::Pong) => {}
        other => panic!("connection should still serve after codec error, got {other:?}"),
    }
}

#[test]
fn mid_frame_disconnects_leave_no_wedged_state() {
    let daemon = spawn(2);
    for cut in 0..12 {
        let mut s = raw(&daemon);
        // A frame claiming 1 KiB, cut off after `cut` payload bytes.
        s.write_all(&1024u32.to_le_bytes()).unwrap();
        s.write_all(&0u32.to_le_bytes()).unwrap();
        s.write_all(&vec![0xAB; cut * 7]).unwrap();
        s.flush().unwrap();
        drop(s); // hang up mid-frame
    }
    // Partial *headers* too: 1..7 bytes of the 8-byte header.
    for cut in 1..8 {
        let mut s = raw(&daemon);
        s.write_all(&[0x41; 8][..cut]).unwrap();
        s.flush().unwrap();
        drop(s);
    }
    assert_daemon_serves(&daemon);
}

#[test]
fn random_byte_storms_never_kill_the_daemon() {
    let daemon = spawn(2);
    // Deterministic xorshift so a failure reproduces byte-for-byte.
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for _ in 0..40 {
        let mut s = raw(&daemon);
        let len = (next() % 512 + 1) as usize;
        let blob: Vec<u8> = (0..len).map(|_| next() as u8).collect();
        let _ = s.write_all(&blob);
        let _ = s.flush();
        let _ = s.shutdown(std::net::Shutdown::Write);
        // Drain whatever the daemon says (an error frame, or nothing).
        let mut sink = Vec::new();
        let _ = BufReader::new(&s).read_to_end(&mut sink);
    }
    assert_daemon_serves(&daemon);
}

#[test]
fn hostile_traffic_does_not_disturb_other_tenants() {
    let daemon = spawn(4);

    // An honest tenant with real data and a stream of in-flight queries.
    let mut honest = RemoteZoom::connect(daemon.addr(), "honest").unwrap();
    let spec = phylogenomic();
    let run = figure2_run(&spec);
    let log = EventLog::from_run(&run, &spec);
    let sid = honest.register_workflow(spec.clone()).unwrap();
    let vid = honest.admin_view(sid).unwrap();
    let rid = honest.load_log(sid, &log).unwrap();
    let finals = run.final_outputs();

    let addr = daemon.addr().to_string();
    let attacker = std::thread::spawn(move || {
        let mut state: u64 = 0xDEAD_BEEF_CAFE_F00D;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 0..60 {
            let Ok(mut s) = TcpStream::connect(&addr) else {
                continue;
            };
            match i % 3 {
                // Oversized declared length.
                0 => {
                    let _ = s.write_all(&u32::MAX.to_le_bytes());
                    let _ = s.write_all(&0u32.to_le_bytes());
                }
                // Mid-frame hangup.
                1 => {
                    let _ = s.write_all(&4096u32.to_le_bytes());
                    let _ = s.write_all(&0u32.to_le_bytes());
                    let _ = s.write_all(&[0xCC; 17]);
                }
                // Pure noise.
                _ => {
                    let blob: Vec<u8> = (0..97).map(|_| next() as u8).collect();
                    let _ = s.write_all(&blob);
                }
            }
            let _ = s.flush();
        }
    });

    // Every query completes with the right answer while the storm runs.
    for round in 0..50 {
        let d = finals[round % finals.len()];
        let result = honest
            .deep_provenance(rid, vid, d)
            .unwrap_or_else(|e| panic!("query failed during hostile traffic: {e}"));
        assert!(!result.rows.is_empty());
    }
    attacker.join().expect("attacker thread survived");
    assert_daemon_serves(&daemon);
}

/// A one-module spec whose label index was cleared in its encoded bytes,
/// as a hostile client can send it.
fn doctored_spec() -> WorkflowSpec {
    let mut b = SpecBuilder::new("doctored");
    b.analysis("A");
    b.from_input("A").to_output("A");
    let spec = b.build().unwrap();
    let bytes = codec::to_bytes(&spec).unwrap();
    let tail = codec::to_bytes(&BTreeMap::from([("A", spec.module("A").unwrap())])).unwrap();
    assert!(bytes.ends_with(&tail), "the label index is the last field");
    let mut doctored = bytes[..bytes.len() - tail.len()].to_vec();
    doctored.extend_from_slice(&0u64.to_le_bytes()); // an empty map
    codec::from_bytes(&doctored).unwrap()
}

#[test]
fn doctored_spec_is_refused_and_the_durable_daemon_restarts() {
    let dir = std::env::temp_dir().join(format!("zoomd-doctored-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = || DaemonConfig {
        shards: 2,
        dir: Some(dir.clone()),
        ..DaemonConfig::default()
    };
    let doctored = doctored_spec();
    // What journal replay says about this spec.
    let replayed = WarehouseError::Model(doctored.validate().unwrap_err()).to_string();
    {
        let daemon = Daemon::spawn("127.0.0.1:0", config()).unwrap();
        let mut mallory = RemoteZoom::connect(daemon.addr(), "mallory").unwrap();
        match mallory.register_workflow(doctored) {
            Err(RemoteError::Server(message)) => assert_eq!(message, replayed),
            other => panic!("the doctored spec answered {other:?}"),
        }
    }
    // Nothing was journaled, and the daemon restarts on the directory.
    for shard in 0..2 {
        let report = fsck(&dir.join(format!("shard-{shard}"))).unwrap();
        assert_eq!(report.journal_records, 0, "shard {shard}");
    }
    let daemon = Daemon::spawn("127.0.0.1:0", config()).unwrap();
    let mut honest = RemoteZoom::connect(daemon.addr(), "honest").unwrap();
    assert_eq!(honest.register_workflow(phylogenomic()).unwrap(), SpecId(0));
    drop(honest);
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A spec's encoded fields, its graph's nodes with their adjacency lists:
/// what a hostile client can put in a `RegisterSpec` request.
#[derive(Serialize, Deserialize)]
struct RawSpec {
    name: String,
    nodes: Vec<(SpecNode, Vec<EdgeId>, Vec<EdgeId>)>,
    edges: Vec<((), NodeId, NodeId)>,
    by_label: BTreeMap<String, NodeId>,
}

#[test]
fn spec_with_doctored_adjacency_is_refused_and_the_daemon_serves() {
    let daemon = spawn(2);
    let spec = phylogenomic();
    let bytes = codec::to_bytes(&spec).unwrap();
    let mut doctored: RawSpec = codec::from_bytes(&bytes).unwrap();
    assert_eq!(
        codec::to_bytes(&doctored).unwrap(),
        bytes,
        "RawSpec mirrors specs"
    );
    // The input node's out-list names an edge the spec does not have.
    doctored.nodes[0].1.push(EdgeId::from_index(9999));
    let doctored = codec::to_bytes(&doctored).unwrap();
    let request = codec::to_bytes(&Request::Data(Op::RegisterSpec(spec))).unwrap();
    let at = request
        .windows(bytes.len())
        .position(|w| w == &bytes[..])
        .expect("the request carries the spec's bytes");
    let payload = [&request[..at], &doctored, &request[at + bytes.len()..]].concat();

    let s = raw(&daemon);
    let mut w = s.try_clone().unwrap();
    write_frame(&mut w, &payload).unwrap();
    w.flush().unwrap();
    let mut reader = BufReader::new(s.try_clone().unwrap());
    match read_message::<Response>(&mut reader).unwrap() {
        Some(Response::Error { message }) => {
            assert!(message.contains(ADJACENCY_MISMATCH), "got: {message}");
        }
        other => panic!("expected the doctored spec refused, got {other:?}"),
    }
    // The same connection still serves, and nothing was registered.
    zoom::warehouse::wire::write_message(&mut w, &Request::<Op>::Ping).unwrap();
    w.flush().unwrap();
    match read_message::<Response>(&mut reader).unwrap() {
        Some(Response::Pong) => {}
        other => panic!("connection should still serve, got {other:?}"),
    }
    assert_daemon_serves(&daemon);
    let mut honest = RemoteZoom::connect(daemon.addr(), "honest").unwrap();
    assert_eq!(honest.register_workflow(phylogenomic()).unwrap(), SpecId(0));
}

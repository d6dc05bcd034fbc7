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

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;

use zoom::core::{Daemon, DaemonConfig, RemoteZoom};
use zoom::model::EventLog;
use zoom::warehouse::journal::crc32;
use zoom::warehouse::wire::{read_message, write_frame};
use zoom::warehouse::{Request, Response};
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

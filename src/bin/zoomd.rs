//! `zoomd` — the sharded multi-tenant provenance daemon.
//!
//! Serves the ZOOM provenance warehouse over the framed wire protocol of
//! `zoom_warehouse::wire`, hash-partitioning runs across N independent
//! warehouse shards:
//!
//! ```sh
//! zoomd --shards 8 --addr 127.0.0.1:7333 &          # in-memory shards
//! zoomd --dir /var/lib/zoomd --shards 8 &           # durable shards
//! zoomctl --connect 127.0.0.1:7333 demo
//! zoomctl --connect 127.0.0.1:7333 query phylogenomic 0 UAdmin "deep d15"
//! zoomctl --connect 127.0.0.1:7333 shutdown
//! ```
//!
//! The daemon prints `listening on <addr>` once the socket is bound (so
//! scripts binding port 0 can scrape the ephemeral port) and exits when a
//! client sends `Shutdown` — or when it receives SIGTERM/SIGINT, both of
//! which trigger the same graceful drain: stop accepting, let in-flight
//! connections finish under `--drain-deadline`, checkpoint every healthy
//! shard. If the deadline expires with connections still open (they are
//! force-closed), the exit code is nonzero so supervisors (systemd, test
//! harnesses) can tell a clean drain from an abandoned one.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;
use zoom::core::{Daemon, DaemonConfig};
use zoom::warehouse::TenantQuotas;

const HELP: &str = "\
zoomd — ZOOM*UserViews provenance daemon

usage:
  zoomd [--addr HOST:PORT] [--shards N] [--dir PATH] [--admin-token TOK]
        [--max-in-flight N] [--max-queue N] [--supervise MS]
        [--drain-deadline MS]

  --addr HOST:PORT   bind address (default 127.0.0.1:7333; port 0 = ephemeral)
  --shards N         warehouse shards (default: one per core; pinned at
                     creation for durable dirs — reopen with the same N)
  --dir PATH         durable shards under PATH/shard-<i> (default: in-memory)
  --admin-token TOK  require TOK for remote shutdown; without it, shutdown
                     is honoured only from loopback clients
  --max-in-flight N  per-tenant in-flight request cap
  --max-queue N      per-tenant queued-request cap (past it, requests shed)
  --supervise MS     run the shard supervisor every MS milliseconds:
                     breaker-tripped shards are quarantined (writes answer
                     a typed retry-after refusal, reads keep serving) and
                     repaired online; 0 disables (default: disabled)
  --drain-deadline MS  how long a graceful shutdown (SIGTERM/SIGINT or the
                     wire Shutdown request) waits for in-flight connections
                     before force-closing them (default 5000)

Stop it with `zoomctl --connect <addr> shutdown [--admin-token TOK]`,
SIGTERM, or ctrl-C; all three drain gracefully. Exit status is nonzero if
the drain deadline expired and open connections had to be force-closed.
";

/// Set by the signal handler; polled by the main loop. Signal-handler
/// safe: a store to an atomic is async-signal-safe, and everything else
/// (the drain itself) happens back on the main thread.
static SIGNALED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    SIGNALED.store(true, Ordering::SeqCst);
}

/// Installs `on_signal` for SIGTERM (15) and SIGINT (2) via the C
/// `signal()` entry point that `std` already links. No `libc` crate in
/// the dependency tree, so the two constants are spelled here; they are
/// identical on every platform this builds for (POSIX).
fn install_signal_handlers() {
    #[cfg(unix)]
    {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        let handler: extern "C" fn(i32) = on_signal;
        unsafe {
            signal(SIGTERM, handler as usize);
            signal(SIGINT, handler as usize);
        }
    }
}

fn main() -> ExitCode {
    match run(&std::env::args().skip(1).collect::<Vec<_>>()) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("zoomd: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let mut addr = "127.0.0.1:7333".to_string();
    let mut config = DaemonConfig::default();
    let mut quotas = TenantQuotas::default();
    let mut drain_deadline = Duration::from_millis(5000);
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--help" | "-h" | "help" => {
                print!("{HELP}");
                return Ok(ExitCode::SUCCESS);
            }
            "--addr" | "--shards" | "--dir" | "--admin-token" | "--max-in-flight"
            | "--max-queue" | "--supervise" | "--drain-deadline" => {
                i += 1;
                let val = args
                    .get(i)
                    .ok_or_else(|| format!("missing value for {flag}"))?;
                let parse_n = |what: &str| -> Result<usize, String> {
                    val.parse::<usize>()
                        .map_err(|_| format!("{flag} takes {what}, got `{val}`"))
                };
                match flag {
                    "--addr" => addr = val.clone(),
                    "--shards" => config.shards = parse_n("a shard count")?,
                    "--dir" => config.dir = Some(PathBuf::from(val)),
                    "--admin-token" => config.admin_token = Some(val.clone()),
                    "--max-in-flight" => quotas.max_in_flight = parse_n("a request cap")?,
                    "--max-queue" => quotas.max_queue = parse_n("a queue length")?,
                    "--supervise" => {
                        let ms = parse_n("an interval in milliseconds")?;
                        config.supervise_interval =
                            (ms > 0).then(|| Duration::from_millis(ms as u64));
                    }
                    "--drain-deadline" => {
                        drain_deadline =
                            Duration::from_millis(parse_n("a deadline in milliseconds")? as u64);
                    }
                    _ => unreachable!("outer match gated the flag set"),
                }
            }
            other => return Err(format!("unknown option `{other}` (see `zoomd --help`)")),
        }
        i += 1;
    }
    config.quotas = quotas;
    install_signal_handlers();
    let mut daemon = Daemon::spawn(&addr, config).map_err(|e| e.to_string())?;
    // Scripts parse this line; keep its shape stable.
    println!(
        "listening on {} ({} shard(s))",
        daemon.addr(),
        daemon.shard_count()
    );
    // Wait for either a wire Shutdown (the accept loop exits) or a
    // signal; both funnel into the same graceful drain.
    while daemon.is_running() && !SIGNALED.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(25));
    }
    let report = daemon.drain(drain_deadline);
    eprintln!(
        "zoomd: drained in {:.1} ms ({} conns force-closed, checkpoint {})",
        report.nanos as f64 / 1e6,
        report.conns_aborted,
        if report.checkpointed { "ok" } else { "failed" }
    );
    if report.drained {
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::from(3))
    }
}

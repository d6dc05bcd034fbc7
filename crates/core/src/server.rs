//! The `zoomd` daemon: a multi-tenant provenance server over the wire
//! protocol of [`zoom_warehouse::wire`].
//!
//! One [`Daemon`] owns a [`ShardRouter`] (runs hash-partitioned across N
//! independent warehouse shards) and a TCP accept loop. Each connection
//! gets its own handler thread and bills every request to the tenant it
//! named in `Hello`.
//!
//! Isolation guarantees, in order of the blast radius they contain:
//!
//! * **Framing**: a connection that sends garbage (bad magic, bad CRC, a
//!   hostile length prefix, a mid-frame hangup) gets one error reply at
//!   most and is dropped; nobody else notices.
//! * **Decoding**: a well-framed payload that fails to decode as a
//!   [`Request`] answers an error on that frame only — the connection
//!   survives, because frame boundaries are still trustworthy.
//! * **Execution**: every shard-touching request runs under
//!   `catch_unwind`. A panic answers an error on that request, aborts the
//!   panicking request's stream (rolling its committed prefix back out
//!   of memory shards), and leaves the shard lock poisoned —
//!   which the router's poison-tolerant locks then ignore, because shard
//!   mutations validate before they mutate.
//! * **Tenancy**: in-flight and queued requests are capped per tenant
//!   ([`TenantQuotaTable`]) *before* per-shard admission control runs, so
//!   a flooding tenant sheds its own traffic first. The quota table itself
//!   is bounded against tenant-name churn, and `Shutdown` is honoured only
//!   with the configured admin token (or, tokenless, from loopback peers).
//! * **Privacy**: every data-plane op passes the tenant's
//!   [`zoom_warehouse::Gate::apply`] — the same enforcement the local
//!   facade's `Zoom::read` runs for a [`Cx`] naming a tenant — before it
//!   reaches a shard, where it is read with that `Cx`.
//! * **Storage**: with supervision enabled
//!   ([`DaemonConfig::supervise_interval`]), a shard whose breaker trips
//!   is quarantined — out of the write path, still serving reads from
//!   memory — and repaired online (fsck + journal replay into a fresh
//!   warehouse, atomically swapped in) while the other shards keep
//!   serving. Writes routed to it meanwhile answer the typed
//!   [`Response::Unavailable`] refusal instead of a connection-fatal
//!   error, and [`Daemon::drain`] gives operators a bounded-deadline
//!   graceful shutdown that checkpoints every shard still healthy.

use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use zoom_graph::fxhash::FxHashMap;
use zoom_warehouse::wire::{self, Request, Response, ShardRouter};
use zoom_warehouse::{
    codec, Cx, DurableOptions, Result as WhResult, ShardState, StorageIo, TenantQuotaTable,
    TenantQuotas,
};

/// How a [`Daemon`] is stood up.
#[derive(Clone, Debug, Default)]
pub struct DaemonConfig {
    /// Number of warehouse shards; `0` means one per available core.
    pub shards: usize,
    /// Durable root directory (shards live in `dir/shard-<i>`), or `None`
    /// for in-memory shards.
    pub dir: Option<PathBuf>,
    /// Per-tenant limits.
    pub quotas: TenantQuotas,
    /// Admin token gating [`Request::Shutdown`]. With `Some`, only
    /// clients presenting the token may stop the daemon; with `None`,
    /// shutdown is honoured only from loopback peers — never from a
    /// remote data connection.
    pub admin_token: Option<String>,
    /// Durability tuning for durable shards (`None` = defaults). Ignored
    /// for in-memory daemons.
    pub durable_options: Option<DurableOptions>,
    /// Per-shard storage backends, shard order; shards beyond the vec's
    /// length get [`zoom_warehouse::RealFs`]. This is how the chaos
    /// harness arms a [`zoom_warehouse::FaultFs`] under one shard of a
    /// live daemon. Ignored for in-memory daemons.
    pub shard_ios: Vec<Arc<dyn StorageIo>>,
    /// When `Some`, a supervisor thread wakes at this interval, refreshes
    /// every shard's health state from its breaker, quarantines shards
    /// whose breaker has opened, and repairs quarantined shards online
    /// (fsck + journal replay into a fresh warehouse, atomically swapped
    /// in). `None` (the default) leaves shard lifecycle entirely to the
    /// operator — breaker-open shards keep rendering their usual
    /// durability errors.
    pub supervise_interval: Option<Duration>,
}

impl DaemonConfig {
    /// The effective shard count (resolves `0` to the core count).
    pub fn effective_shards(&self) -> usize {
        if self.shards > 0 {
            self.shards
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// See [`wire::lock`]-style rationale: a handler thread that panicked
/// while holding the connection table must not take the table down for
/// every other connection. Insert/remove on a `FxHashMap` can't leave it
/// half-mutated in a way later readers would misread.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

struct ServerState {
    router: ShardRouter,
    quotas: TenantQuotaTable,
    /// Live connection id → socket handle. Handler threads register on
    /// entry and deregister on exit; drain polls this to know when the
    /// daemon is idle, and force-closes the stragglers' sockets when the
    /// deadline expires.
    conns: Mutex<FxHashMap<u64, TcpStream>>,
    next_conn: AtomicU64,
    stopping: AtomicBool,
    addr: SocketAddr,
    admin_token: Option<String>,
}

impl ServerState {
    fn begin_shutdown(&self) {
        self.stopping.store(true, Ordering::SeqCst);
        // Unblock the accept loop; the no-op connection is dropped there.
        let _ = TcpStream::connect(self.addr);
    }
}

/// What [`Daemon::drain`] accomplished before returning.
#[derive(Clone, Copy, Debug)]
pub struct DrainReport {
    /// Every connection closed on its own before the deadline.
    pub drained: bool,
    /// Connections force-closed at the deadline (0 when `drained`).
    pub conns_aborted: u64,
    /// Whether the final checkpoint of the healthy shards succeeded.
    pub checkpointed: bool,
    /// Wall-clock duration of the whole drain.
    pub nanos: u64,
}

/// A running daemon: the accept loop plus its shared state. Usable both
/// from the `zoomd` binary and in-process from tests and benches.
pub struct Daemon {
    state: Arc<ServerState>,
    accept: Option<JoinHandle<()>>,
    supervise: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port), builds
    /// the shard router per `config`, and starts accepting connections.
    pub fn spawn(addr: &str, config: DaemonConfig) -> std::io::Result<Daemon> {
        let shards = config.effective_shards();
        let router = match &config.dir {
            None => ShardRouter::in_memory(shards),
            Some(dir) => ShardRouter::open_durable_with(
                dir,
                shards,
                config.durable_options.unwrap_or_default(),
                &config.shard_ios,
            )
            .map_err(|e| std::io::Error::other(format!("cannot open shards: {e}")))?,
        };
        let listener = TcpListener::bind(addr)?;
        let state = Arc::new(ServerState {
            router,
            quotas: TenantQuotaTable::new(config.quotas),
            conns: Mutex::new(FxHashMap::default()),
            next_conn: AtomicU64::new(1),
            stopping: AtomicBool::new(false),
            addr: listener.local_addr()?,
            admin_token: config.admin_token,
        });
        let accept_state = Arc::clone(&state);
        let accept = std::thread::Builder::new()
            .name("zoomd-accept".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if accept_state.stopping.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(sock) = conn else { continue };
                    let conn_state = Arc::clone(&accept_state);
                    let _ = std::thread::Builder::new()
                        .name("zoomd-conn".to_string())
                        .spawn(move || handle_conn(&conn_state, sock));
                }
            })?;
        let supervise = match config.supervise_interval {
            None => None,
            Some(interval) => {
                let sup_state = Arc::clone(&state);
                Some(
                    std::thread::Builder::new()
                        .name("zoomd-supervise".to_string())
                        .spawn(move || supervise_loop(&sup_state, interval))?,
                )
            }
        };
        Ok(Daemon {
            state,
            accept: Some(accept),
            supervise,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// The shard count the daemon is serving with.
    pub fn shard_count(&self) -> usize {
        self.state.router.shard_count()
    }

    /// Whether the accept loop is still running (false once someone sent
    /// `Shutdown` or called [`Daemon::shutdown`]/[`Daemon::drain`]).
    pub fn is_running(&self) -> bool {
        self.accept.as_ref().is_some_and(|h| !h.is_finished())
    }

    /// Every shard's supervisor lifecycle state, shard order.
    pub fn shard_states(&self) -> Vec<ShardState> {
        self.state.router.shard_states()
    }

    /// Takes one shard out of the write path (see
    /// [`ShardRouter::quarantine_shard`]).
    pub fn quarantine_shard(&self, sh: usize) -> bool {
        self.state.router.quarantine_shard(sh)
    }

    /// Repairs one shard online (see [`ShardRouter::repair_shard`]).
    pub fn repair_shard(
        &self,
        sh: usize,
    ) -> Result<zoom_warehouse::RepairOutcome, zoom_warehouse::DurableError> {
        self.state.router.repair_shard(sh)
    }

    /// Blocks until the daemon stops (a client sent `Shutdown`).
    pub fn join(&mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.supervise.take() {
            let _ = h.join();
        }
    }

    /// Stops accepting and returns once the accept loop has exited.
    /// Connections already open finish their current request streams on
    /// their own threads.
    pub fn shutdown(&mut self) {
        self.state.begin_shutdown();
        self.join();
    }

    /// Graceful drain: stop accepting, let in-flight connections finish
    /// on their own, and checkpoint every shard still in the write path.
    ///
    /// Connections that outlive `deadline` have their sockets
    /// force-closed (their handler threads notice the broken stream and
    /// exit); the report says how many needed that — a caller that wants
    /// "clean shutdown or a nonzero exit" checks `drained`.
    pub fn drain(&mut self, deadline: Duration) -> DrainReport {
        let started = Instant::now();
        self.state.begin_shutdown();
        self.join();
        let mut drained = true;
        loop {
            if lock(&self.state.conns).is_empty() {
                break;
            }
            if started.elapsed() >= deadline {
                drained = false;
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let mut conns_aborted = 0;
        if !drained {
            for sock in lock(&self.state.conns).values() {
                let _ = sock.shutdown(Shutdown::Both);
                conns_aborted += 1;
            }
        }
        let checkpointed = self.state.router.checkpoint().is_ok();
        DrainReport {
            drained,
            conns_aborted,
            checkpointed,
            nanos: started.elapsed().as_nanos() as u64,
        }
    }
}

/// The supervisor tick: refresh every shard's state from its breaker,
/// quarantine shards whose breaker has opened, and try to repair whatever
/// is quarantined. A failed repair (the disk is still sick) leaves the
/// shard quarantined and backs off exponentially — re-running fsck every
/// tick at a dead disk would only add noise — while a successful one
/// re-admits the shard immediately.
fn supervise_loop(state: &Arc<ServerState>, interval: Duration) {
    let shard_count = state.router.shard_count();
    // Per-shard ticks to skip before the next repair attempt.
    let mut backoff: Vec<u32> = vec![0; shard_count];
    let mut skip: Vec<u32> = vec![0; shard_count];
    while !state.stopping.load(Ordering::SeqCst) {
        std::thread::sleep(interval);
        if state.stopping.load(Ordering::SeqCst) {
            break;
        }
        let states = state.router.supervise_once();
        for (sh, st) in states.into_iter().enumerate() {
            match st {
                ShardState::Healthy => {
                    backoff[sh] = 0;
                    skip[sh] = 0;
                }
                ShardState::Degraded => {
                    // The breaker tripped: pull the shard out of the
                    // write path and repair it rather than letting every
                    // write burn a probe against a sick disk.
                    state.router.quarantine_shard(sh);
                    try_repair(state, sh, &mut backoff, &mut skip);
                }
                ShardState::Quarantined => {
                    if skip[sh] > 0 {
                        skip[sh] -= 1;
                    } else {
                        try_repair(state, sh, &mut backoff, &mut skip);
                    }
                }
                ShardState::Rebuilding => {}
            }
        }
    }
}

fn try_repair(state: &Arc<ServerState>, sh: usize, backoff: &mut [u32], skip: &mut [u32]) {
    match state.router.repair_shard(sh) {
        Ok(_) => {
            backoff[sh] = 0;
            skip[sh] = 0;
        }
        Err(_) => {
            backoff[sh] = (backoff[sh].max(1) * 2).min(64);
            skip[sh] = backoff[sh];
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Connection-scoped state: the tenant it bills to, and whether the peer
/// is loopback (what tokenless `Shutdown` is gated on).
struct ConnState {
    tenant: String,
    is_local: bool,
}

fn handle_conn(state: &Arc<ServerState>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let is_local = stream
        .peer_addr()
        .map(|a| a.ip().is_loopback())
        .unwrap_or(false);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    // Register with the drain registry; the handle lets drain force-close
    // this socket if the connection outlives the drain deadline.
    let conn_id = state.next_conn.fetch_add(1, Ordering::Relaxed);
    if let Ok(handle) = stream.try_clone() {
        lock(&state.conns).insert(conn_id, handle);
    }
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    let mut conn = ConnState {
        tenant: "anon".to_string(),
        is_local,
    };
    loop {
        // Read the frame and decode the payload in two steps: a framing
        // error means the byte stream can no longer be trusted (drop the
        // connection), while a decode error inside a valid frame leaves
        // frame boundaries intact (answer it and keep serving).
        let payload = match wire::read_frame(&mut reader) {
            Ok(Some(p)) => p,
            Ok(None) => break,
            Err(e) => {
                let _ = wire::write_message(
                    &mut writer,
                    &Response::Error {
                        message: format!("malformed frame: {e}"),
                    },
                );
                let _ = writer.flush();
                break;
            }
        };
        let req: Request = match codec::from_bytes(&payload) {
            Ok(r) => r,
            Err(e) => {
                let resp = Response::Error {
                    message: format!("malformed request: {e}"),
                };
                if wire::write_message(&mut writer, &resp).is_err() || writer.flush().is_err() {
                    break;
                }
                continue;
            }
        };
        let resp = dispatch(state, &mut conn, &req);
        let bye = matches!(resp, Response::Bye);
        if wire::write_message(&mut writer, &resp).is_err() || writer.flush().is_err() {
            break;
        }
        if bye {
            state.begin_shutdown();
            break;
        }
    }
    lock(&state.conns).remove(&conn_id);
}

fn dispatch(state: &Arc<ServerState>, conn: &mut ConnState, req: &Request) -> Response {
    // Control-plane requests: no shard access, no admission needed.
    match req {
        Request::Ping => return Response::Pong,
        Request::Hello { tenant } => {
            // Tenant names key the quota table; an unbounded name is an
            // unbounded allocation per hostile Hello.
            if tenant.len() > wire::MAX_TENANT_NAME_BYTES {
                return Response::Error {
                    message: format!(
                        "tenant name of {} bytes exceeds the {}-byte cap",
                        tenant.len(),
                        wire::MAX_TENANT_NAME_BYTES
                    ),
                };
            }
            conn.tenant = tenant.clone();
            return Response::Ok;
        }
        Request::Shutdown { token } => {
            // Stopping the daemon stops every tenant: honour it only for
            // the configured admin token, or — when none is configured —
            // for loopback peers (the operator's own machine).
            return if is_admin(state, conn, token) {
                Response::Bye
            } else {
                Response::Error {
                    message: "shutdown refused: admin token required".to_string(),
                }
            };
        }
        _ => {}
    }

    // Everything past here touches shards: per-tenant admission first
    // (the flooding tenant sheds before it can queue on a shard), then
    // per-shard admission inside the warehouse itself.
    let _permit = match state.quotas.admit(&conn.tenant) {
        Some(p) => p,
        None => {
            return Response::Error {
                message: format!("tenant `{}` overloaded: request shed by quota", conn.tenant),
            }
        }
    };

    // A panic inside one request must answer *that* request with an
    // error, not take the connection thread (and every later request on
    // it) down. A panicked push or seal leaves its stream open on every
    // shard kind; the client can resume or seal it.
    catch_unwind(AssertUnwindSafe(|| execute(state, conn, req))).unwrap_or_else(|_| {
        Response::Error {
            message: "internal error: request aborted".to_string(),
        }
    })
}

/// The shared admin rule: the configured token when one exists, else
/// loopback peers only. Gates `Shutdown`, the cross-tenant slow-query
/// ring, and policy administration.
fn is_admin(state: &ServerState, conn: &ConnState, token: &Option<String>) -> bool {
    match &state.admin_token {
        Some(required) => token.as_deref() == Some(required.as_str()),
        None => conn.is_local,
    }
}

/// The reply to a request that answers nothing but success.
fn ok(r: WhResult<()>) -> Response {
    match r {
        Ok(()) => Response::Ok,
        Err(e) => Response::answer(Err(e)),
    }
}

fn execute(state: &Arc<ServerState>, conn: &ConnState, req: &Request) -> Response {
    let router = &state.router;
    let tenant = conn.tenant.as_str();
    let gate = router.policies().gate(tenant, router);
    // Reads by this context record their tenant in the shards' slow-query
    // rings, which are filtered per tenant on the way out.
    let cx = Cx::tenant(tenant);
    match req {
        Request::Data(op) => Response::answer(gate.apply(op, |op| router.apply(&cx, op))),
        Request::Stats => Response::StatsAll {
            shards: router.stats(),
        },
        Request::Metrics { token } => {
            let mut shards = router.metrics();
            if !is_admin(state, conn, token) {
                // Snapshots embed the slow-query ring, which names other
                // tenants' query targets: non-admin callers get their own
                // entries only.
                for snap in &mut shards {
                    snap.slow_queries
                        .retain(|q| q.tenant.as_deref() == Some(tenant));
                }
            }
            Response::MetricsAll { shards }
        }
        Request::Health => Response::HealthAll {
            shards: router.health(),
        },
        Request::SlowLog {
            threshold_nanos,
            token,
        } => {
            if is_admin(state, conn, token) {
                if let Some(n) = threshold_nanos {
                    router.set_slow_query_threshold_nanos(*n);
                }
                Response::SlowLogAll {
                    queries: router.slow_queries(),
                }
            } else {
                // Non-admin: own entries only, and no retuning the
                // daemon-wide capture threshold.
                Response::SlowLogAll {
                    queries: router.slow_queries_of_tenant(tenant),
                }
            }
        }
        Request::Checkpoint => ok(router.checkpoint()),
        Request::Resolve { workflow, view } => {
            // A workflow this tenant's policy hides must resolve with
            // the *same bytes* as one that does not exist — otherwise
            // `Resolve` is an existence oracle over hidden names.
            let spec = match router.spec_by_name(workflow) {
                Some(s) if gate.spec(s).is_ok() => s,
                _ => {
                    return Response::Error {
                        message: format!("no workflow named `{workflow}`"),
                    }
                }
            };
            let view_id = match view {
                None => None,
                Some(name) => match router.find_view(spec, name) {
                    Some(v) => Some(gate.view_id(spec, v)),
                    None => {
                        return Response::Error {
                            message: format!("no view named `{name}` for this workflow"),
                        }
                    }
                },
            };
            Response::Resolved {
                spec,
                view: view_id,
                runs: router.runs_of_spec(spec),
            }
        }
        Request::PolicySet {
            tenant: subject,
            policy,
            token,
        } => {
            // Installing a policy rewrites what `subject` can see;
            // clearing one widens it. Both are administration.
            if !is_admin(state, conn, token) {
                return Response::Error {
                    message: "policy set refused: admin token required".to_string(),
                };
            }
            ok(router.policies().install(subject, policy.clone(), router))
        }
        Request::PolicyGet {
            tenant: subject,
            token,
        } => {
            // A tenant may always read its own policy; anyone else's
            // requires admin (the policy lists hidden names).
            if subject != tenant && !is_admin(state, conn, token) {
                return Response::Error {
                    message: "policy get refused: admin token required".to_string(),
                };
            }
            Response::Policy {
                policy: router.policies().get(subject).map(|p| (*p).clone()),
            }
        }
        // Control-plane requests are answered in `dispatch` before
        // admission; reaching here would be a routing bug, not a client
        // error — answer it as one anyway rather than panicking.
        Request::Ping | Request::Hello { .. } | Request::Shutdown { .. } => Response::Error {
            message: "control request routed to the data plane".to_string(),
        },
    }
}

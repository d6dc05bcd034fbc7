//! [`RemoteZoom`]: the client half of the `zoomd` wire protocol — the
//! [`crate::Zoom`] facade surface over a TCP connection.
//!
//! A `RemoteZoom` is one socket billed to one tenant (named at connect
//! time); every facade call is one request/response round trip.
//! Because the daemon allocates spec/view/run ids in exactly the sequence
//! a single in-process warehouse would, and renders errors with the same
//! `Display` strings, a recorded trace replays against a fresh daemon
//! digest-for-digest — `RemoteZoom` implements [`TraceTarget`], so
//! `zoomctl replay --connect` and `tests/daemon_e2e.rs` drive the daemon
//! with the identical golden artifact the in-process path uses.

use serde::Serialize;
use std::fmt;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;
use zoom_model::{DataId, EventLog, UserView, WorkflowSpec};
use zoom_warehouse::wire::{self, Request, Response, WireError};
use zoom_warehouse::{
    trace, Answer, FromAnswer, HealthReport, MetricsSnapshot, Op, ProvenanceResult, RunId,
    ShardRouter, SlowQuery, SpecId, TraceTarget, ViewId, VisibilityPolicy, WarehouseStats,
};

/// A failure of a remote facade call.
#[derive(Debug)]
pub enum RemoteError {
    /// The transport or framing layer failed (connection lost, corrupt
    /// frame, codec mismatch).
    Wire(WireError),
    /// The daemon answered an error. The payload is the server-side
    /// error's `Display` rendering, shown verbatim — for warehouse
    /// rejections it is byte-identical to what the equivalent in-process
    /// call would render, which is what keeps replay digests aligned.
    Server(String),
    /// The daemon answered something the protocol does not allow here.
    Protocol(String),
    /// The addressed shard stayed quarantined past the client's bounded
    /// retry budget. Rendered byte-identically to the in-process
    /// `ShardUnavailable` error, for digest parity.
    Unavailable {
        /// The shard that kept refusing.
        shard: u32,
        /// The daemon's last backoff hint, milliseconds.
        retry_after_ms: u64,
    },
    /// The connection died while a non-idempotent request (a stream
    /// append, an id-allocating registration) was in flight: the daemon
    /// may or may not have applied it, so the client refuses to re-send
    /// and fails loudly instead. The connection itself has already been
    /// re-established when possible — subsequent calls proceed normally.
    ConnectionLost(String),
}

impl fmt::Display for RemoteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RemoteError::Wire(e) => write!(f, "transport: {e}"),
            RemoteError::Server(m) => write!(f, "{m}"),
            RemoteError::Protocol(m) => write!(f, "protocol violation: {m}"),
            RemoteError::Unavailable {
                shard,
                retry_after_ms,
            } => write!(
                f,
                "shard {shard} unavailable (under repair); retry after {retry_after_ms} ms"
            ),
            RemoteError::ConnectionLost(m) => write!(f, "connection lost: {m}"),
        }
    }
}

impl std::error::Error for RemoteError {}

impl From<WireError> for RemoteError {
    fn from(e: WireError) -> Self {
        RemoteError::Wire(e)
    }
}

impl From<std::io::Error> for RemoteError {
    fn from(e: std::io::Error) -> Self {
        RemoteError::Wire(WireError::Io(e))
    }
}

/// Shorthand for remote call results.
pub type RemoteResult<T> = std::result::Result<T, RemoteError>;

fn unexpected(resp: Response) -> RemoteError {
    match resp {
        Response::Error { message } => RemoteError::Server(message),
        other => RemoteError::Protocol(format!("unexpected response: {other:?}")),
    }
}

/// How hard a [`RemoteZoom`] fights to keep a conversation going across
/// daemon restarts and shard repairs.
#[derive(Clone, Copy, Debug)]
pub struct RemoteRetry {
    /// TCP re-establish attempts after a broken connection (each re-sends
    /// `Hello` with the original tenant).
    pub max_reconnects: u32,
    /// First reconnect backoff; doubles per attempt.
    pub base_backoff: Duration,
    /// Reconnect backoff ceiling.
    pub max_backoff: Duration,
    /// How many typed `Unavailable` refusals to absorb (sleeping the
    /// daemon's `retry_after_ms` hint each time, capped at
    /// [`RemoteRetry::max_retry_after`]) before surfacing
    /// [`RemoteError::Unavailable`]. Safe for every request: the daemon
    /// refuses *before* touching the shard, so a refused mutation was
    /// never applied.
    pub max_unavailable_retries: u32,
    /// Cap on a single `retry_after_ms` sleep, so a hostile or confused
    /// hint cannot park the client.
    pub max_retry_after: Duration,
}

impl Default for RemoteRetry {
    fn default() -> Self {
        RemoteRetry {
            max_reconnects: 8,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            max_unavailable_retries: 50,
            max_retry_after: Duration::from_millis(250),
        }
    }
}

impl RemoteRetry {
    /// No reconnects, no unavailable-retries: every failure surfaces on
    /// the call that hit it.
    pub fn none() -> Self {
        RemoteRetry {
            max_reconnects: 0,
            base_backoff: Duration::from_millis(0),
            max_backoff: Duration::from_millis(0),
            max_unavailable_retries: 0,
            max_retry_after: Duration::from_millis(0),
        }
    }
}

/// One live socket (split for buffered reading and writing).
struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Conn {
    fn establish(addr: SocketAddr, tenant: &str) -> RemoteResult<Conn> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let mut conn = Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        };
        let hello: Request = Request::Hello {
            tenant: tenant.to_string(),
        };
        match conn.roundtrip(&hello)? {
            Response::Ok => Ok(conn),
            other => Err(unexpected(other)),
        }
    }

    fn roundtrip<O: Serialize>(&mut self, req: &Request<O>) -> RemoteResult<Response> {
        wire::write_message(&mut self.writer, req)?;
        self.writer.flush().map_err(WireError::Io)?;
        match wire::read_message::<Response>(&mut self.reader)? {
            Some(resp) => Ok(resp),
            None => Err(RemoteError::Protocol(
                "server closed the connection".to_string(),
            )),
        }
    }
}

/// Whether a failed request may be transparently re-sent on a fresh
/// connection. Queries and other idempotent requests may; requests that
/// allocate ids or append to a stream may already have been applied
/// before the connection died, so re-sending could double-apply them —
/// those fail loudly with [`RemoteError::ConnectionLost`] instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum OnTransportLoss {
    Resend,
    FailLoudly,
}

/// A transport-layer failure (as opposed to a server-side rejection): the
/// socket can no longer be trusted and must be re-established.
fn is_transport(e: &RemoteError) -> bool {
    matches!(e, RemoteError::Wire(_))
        || matches!(e, RemoteError::Protocol(m) if m == "server closed the connection")
}

/// The `Zoom` facade over a `zoomd` connection.
///
/// The client survives two kinds of trouble on its own:
///
/// * A typed [`Response::Unavailable`] refusal (the addressed shard is
///   quarantined or mid-repair) is retried after the daemon's hinted
///   backoff, a bounded number of times. This is safe for *every*
///   request, mutations included — the daemon refuses before touching the
///   shard, so a refused mutation was never applied.
/// * A broken connection (daemon restart, dropped socket) triggers
///   reconnection with exponential backoff, re-sending `Hello` with the
///   original tenant. Idempotent requests are then transparently
///   re-sent; non-idempotent ones (stream appends, id-allocating
///   registrations) fail loudly with [`RemoteError::ConnectionLost`],
///   because the daemon may have applied them before the connection died.
pub struct RemoteZoom {
    addr: SocketAddr,
    tenant: String,
    retry: RemoteRetry,
    conn: Option<Conn>,
    /// Connections re-established since `connect` (observability for
    /// tests and the chaos harness).
    reconnects: u64,
}

impl RemoteZoom {
    /// Connects and names the tenant, with the default retry policy.
    pub fn connect(addr: impl ToSocketAddrs, tenant: &str) -> RemoteResult<RemoteZoom> {
        Self::connect_with(addr, tenant, RemoteRetry::default())
    }

    /// [`Self::connect`] with an explicit retry policy.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        tenant: &str,
        retry: RemoteRetry,
    ) -> RemoteResult<RemoteZoom> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| RemoteError::Protocol("address resolved to nothing".to_string()))?;
        let conn = Conn::establish(addr, tenant)?;
        Ok(RemoteZoom {
            addr,
            tenant: tenant.to_string(),
            retry,
            conn: Some(conn),
            reconnects: 0,
        })
    }

    /// Re-establishes the connection with exponential backoff, re-sending
    /// `Hello` (same tenant).
    fn reconnect(&mut self) -> RemoteResult<()> {
        self.conn = None;
        let mut backoff = self.retry.base_backoff;
        let mut last = "no attempts allowed by the retry policy".to_string();
        for _ in 0..self.retry.max_reconnects {
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(self.retry.max_backoff);
            match Conn::establish(self.addr, &self.tenant) {
                Ok(conn) => {
                    self.conn = Some(conn);
                    self.reconnects += 1;
                    return Ok(());
                }
                Err(e) => last = e.to_string(),
            }
        }
        Err(RemoteError::ConnectionLost(format!(
            "reconnect to {} failed after {} attempts: {last}",
            self.addr, self.retry.max_reconnects
        )))
    }

    /// The request loop: absorbs bounded `Unavailable` refusals for every
    /// request, and transport failures for idempotent ones.
    fn call_with<O: Serialize>(
        &mut self,
        req: &Request<O>,
        loss: OnTransportLoss,
    ) -> RemoteResult<Response> {
        // A previous loud failure may have left us disconnected; nothing
        // is in flight, so re-establishing here is always safe.
        if self.conn.is_none() {
            self.reconnect()?;
        }
        let mut unavailable_left = self.retry.max_unavailable_retries;
        let mut reconnects_left = self.retry.max_reconnects;
        loop {
            let outcome = match self.conn.as_mut() {
                Some(conn) => conn.roundtrip(req),
                None => Err(RemoteError::ConnectionLost("not connected".to_string())),
            };
            match outcome {
                Ok(Response::Unavailable {
                    shard,
                    retry_after_ms,
                }) => {
                    if unavailable_left == 0 {
                        return Err(RemoteError::Unavailable {
                            shard,
                            retry_after_ms,
                        });
                    }
                    unavailable_left -= 1;
                    std::thread::sleep(
                        Duration::from_millis(retry_after_ms).min(self.retry.max_retry_after),
                    );
                }
                Ok(resp) => return Ok(resp),
                Err(e) if is_transport(&e) => {
                    // The socket is dead either way; re-establish it so
                    // at least the *next* call works. Only idempotent
                    // requests are re-sent on the fresh connection.
                    if loss == OnTransportLoss::FailLoudly {
                        let _ = self.reconnect();
                        return Err(RemoteError::ConnectionLost(e.to_string()));
                    }
                    if reconnects_left == 0 {
                        return Err(RemoteError::ConnectionLost(e.to_string()));
                    }
                    reconnects_left -= 1;
                    self.reconnect()?;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// One idempotent request (transparently re-sent after reconnect).
    fn call(&mut self, req: &Request) -> RemoteResult<Response> {
        self.call_with(req, OnTransportLoss::Resend)
    }

    fn call_ok(&mut self, req: &Request) -> RemoteResult<()> {
        match self.call(req)? {
            Response::Ok => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Applies one data-plane op on the daemon, as this connection's
    /// tenant. An op that [`Op::allocates`] is not re-sent across a
    /// reconnect — the daemon may have applied it before the connection
    /// died — and fails loudly with [`RemoteError::ConnectionLost`];
    /// every other op is transparently re-sent.
    pub fn apply(&mut self, op: &Op) -> RemoteResult<Answer<RemoteError>> {
        let loss = if op.allocates() {
            OnTransportLoss::FailLoudly
        } else {
            OnTransportLoss::Resend
        };
        self.call_with(&Request::Data(op), loss)?
            .into_answer(RemoteError::Server)
            .map_err(unexpected)
    }

    /// Typed sugar over [`RemoteZoom::apply`].
    fn send_typed<T: FromAnswer>(&mut self, op: Op) -> RemoteResult<T> {
        let name = op.name();
        T::from_answer(self.apply(&op)?)
            .ok_or_else(|| RemoteError::Protocol(format!("unexpected answer to {name}")))
    }

    /// How many times this client re-established its connection.
    pub fn reconnect_count(&self) -> u64 {
        self.reconnects
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> RemoteResult<()> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// `Zoom::register_workflow` against the daemon.
    pub fn register_workflow(&mut self, spec: WorkflowSpec) -> RemoteResult<SpecId> {
        self.send_typed(Op::RegisterSpec(spec))
    }

    /// `Zoom::register_view` against the daemon.
    pub fn register_view(&mut self, spec: SpecId, view: UserView) -> RemoteResult<ViewId> {
        self.send_typed(Op::RegisterView(spec, view))
    }

    /// `Zoom::build_view` (good view from relevant module labels),
    /// constructed server-side.
    pub fn build_view(&mut self, spec: SpecId, relevant: &[&str]) -> RemoteResult<ViewId> {
        let labels = relevant.iter().map(|s| s.to_string()).collect();
        self.send_typed(Op::BuildView(spec, labels))
    }

    /// Registers (or finds) the admin view of `spec` server-side.
    pub fn admin_view(&mut self, spec: SpecId) -> RemoteResult<ViewId> {
        self.send_typed(Op::AdminView(spec))
    }

    /// `Zoom::load_log` against the daemon; the returned id is global.
    pub fn load_log(&mut self, spec: SpecId, log: &EventLog) -> RemoteResult<RunId> {
        self.send_typed(Op::LoadLog(spec, log.clone()))
    }

    /// Opens a streaming run on the daemon; the returned id is global.
    pub fn begin_stream(&mut self, spec: SpecId) -> RemoteResult<RunId> {
        self.send_typed(Op::BeginStream(spec))
    }

    /// Deep provenance of `data` at `view` over `run`.
    pub fn deep_provenance(
        &mut self,
        run: RunId,
        view: ViewId,
        data: DataId,
    ) -> RemoteResult<ProvenanceResult> {
        self.send_typed(Op::DeepProvenance(run, view, data))
    }

    /// The run's final outputs.
    pub fn final_outputs(&mut self, run: RunId) -> RemoteResult<Vec<DataId>> {
        self.send_typed(Op::FinalOutputs(run))
    }

    /// Per-shard table counters, shard order.
    pub fn stats_per_shard(&mut self) -> RemoteResult<Vec<WarehouseStats>> {
        match self.call(&Request::Stats)? {
            Response::StatsAll { shards } => Ok(shards),
            other => Err(unexpected(other)),
        }
    }

    /// Daemon-wide aggregate stats (per-run counters summed across
    /// shards; broadcast tables carried over).
    pub fn stats(&mut self) -> RemoteResult<WarehouseStats> {
        Ok(ShardRouter::aggregate_stats(&self.stats_per_shard()?))
    }

    /// Per-shard observability snapshots, shard order. Non-admin callers
    /// (no matching `token`, non-loopback on a tokenless daemon) get the
    /// embedded slow-query ring filtered to their own tenant.
    pub fn metrics_per_shard(&mut self) -> RemoteResult<Vec<MetricsSnapshot>> {
        self.metrics_per_shard_admin(None)
    }

    /// [`Self::metrics_per_shard`] presenting an admin token for the
    /// unfiltered cross-tenant slow-query ring.
    pub fn metrics_per_shard_admin(
        &mut self,
        token: Option<&str>,
    ) -> RemoteResult<Vec<MetricsSnapshot>> {
        let req = Request::Metrics {
            token: token.map(str::to_string),
        };
        match self.call(&req)? {
            Response::MetricsAll { shards } => Ok(shards),
            other => Err(unexpected(other)),
        }
    }

    /// Per-shard health reports, shard order.
    pub fn health_per_shard(&mut self) -> RemoteResult<Vec<HealthReport>> {
        match self.call(&Request::Health)? {
            Response::HealthAll { shards } => Ok(shards),
            other => Err(unexpected(other)),
        }
    }

    /// The slow-query log across shards, optionally (re)setting the
    /// capture threshold first. Admin callers (matching `token`, or
    /// loopback on a tokenless daemon) see the full cross-tenant ring;
    /// everyone else gets their own tenant's entries and the threshold
    /// is left untouched.
    pub fn slow_queries(&mut self, threshold_nanos: Option<u64>) -> RemoteResult<Vec<SlowQuery>> {
        self.slow_queries_admin(threshold_nanos, None)
    }

    /// [`Self::slow_queries`] presenting an admin token.
    pub fn slow_queries_admin(
        &mut self,
        threshold_nanos: Option<u64>,
        token: Option<&str>,
    ) -> RemoteResult<Vec<SlowQuery>> {
        let req = Request::SlowLog {
            threshold_nanos,
            token: token.map(str::to_string),
        };
        match self.call(&req)? {
            Response::SlowLogAll { queries } => Ok(queries),
            other => Err(unexpected(other)),
        }
    }

    /// Checkpoints every durable shard.
    pub fn checkpoint(&mut self) -> RemoteResult<()> {
        self.call_ok(&Request::Checkpoint)
    }

    /// Resolves a workflow (and optionally one of its views) by name and
    /// lists the workflow's runs in load order.
    pub fn resolve(
        &mut self,
        workflow: &str,
        view: Option<&str>,
    ) -> RemoteResult<(SpecId, Option<ViewId>, Vec<RunId>)> {
        let req = Request::Resolve {
            workflow: workflow.to_string(),
            view: view.map(str::to_string),
        };
        match self.call(&req)? {
            Response::Resolved { spec, view, runs } => Ok((spec, view, runs)),
            other => Err(unexpected(other)),
        }
    }

    /// Installs (or with `None`, clears) `tenant`'s visibility policy.
    /// Admin-gated with the same rule as [`Self::shutdown`].
    pub fn set_policy(
        &mut self,
        tenant: &str,
        policy: Option<VisibilityPolicy>,
        token: Option<&str>,
    ) -> RemoteResult<()> {
        self.call_ok(&Request::PolicySet {
            tenant: tenant.to_string(),
            policy,
            token: token.map(str::to_string),
        })
    }

    /// Reads `tenant`'s installed visibility policy. Reading one's own
    /// policy needs no token; reading another tenant's requires admin.
    pub fn policy(
        &mut self,
        tenant: &str,
        token: Option<&str>,
    ) -> RemoteResult<Option<VisibilityPolicy>> {
        let req = Request::PolicyGet {
            tenant: tenant.to_string(),
            token: token.map(str::to_string),
        };
        match self.call(&req)? {
            Response::Policy { policy } => Ok(policy),
            other => Err(unexpected(other)),
        }
    }

    /// Asks the daemon to exit. `token` must match the daemon's admin
    /// token when one is configured; a tokenless daemon honours shutdown
    /// only from loopback peers.
    pub fn shutdown(&mut self, token: Option<&str>) -> RemoteResult<()> {
        let req: Request = Request::Shutdown {
            token: token.map(str::to_string),
        };
        match self.call_with(&req, OnTransportLoss::FailLoudly)? {
            Response::Bye => Ok(()),
            other => Err(unexpected(other)),
        }
    }
}

impl TraceTarget for RemoteZoom {
    /// Server-side warehouse errors arrive as their in-process `Display`
    /// strings, so digests agree with a local replay; transport failures
    /// render distinctly (and so correctly report as mismatches).
    fn apply_trace_op(&mut self, op: &Op) -> u64 {
        trace::digest(&self.apply(op))
    }
}

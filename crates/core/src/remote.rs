//! [`RemoteZoom`]: the client half of the `zoomd` wire protocol — the
//! [`crate::Zoom`] facade surface over a TCP connection.
//!
//! A `RemoteZoom` is one socket billed to one tenant (named at connect
//! time); every facade call is one request/response round trip.
//! Because the daemon allocates spec/view/run ids in exactly the sequence
//! a single in-process warehouse would, and renders errors with the same
//! `Display` strings, a recorded trace replays against a fresh daemon
//! digest-for-digest — `RemoteZoom` implements [`TraceTarget`], so
//! `zoomctl replay --connect` and the `daemon_throughput` bench drive the
//! daemon with the identical golden artifact the in-process path uses.

use crate::queries::{CannedQuery, QueryAnswer};
use std::fmt;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;
use zoom_model::{DataId, EventLog, LogEvent, StepId, UserView, WorkflowSpec};
use zoom_warehouse::wire::{self, BatchItem, Request, Response, WireError};
use zoom_warehouse::{
    trace, HealthReport, ImmediateAnswer, MetricsSnapshot, ProvenanceResult, PushOutcome, RunId,
    ShardRouter, SlowQuery, SpecId, TraceOp, TraceTarget, ViewId, VisibilityPolicy, WarehouseStats,
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
        match conn.roundtrip(&Request::Hello {
            tenant: tenant.to_string(),
        })? {
            Response::Ok => Ok(conn),
            other => Err(unexpected(other)),
        }
    }

    fn roundtrip(&mut self, req: &Request) -> RemoteResult<Response> {
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
    fn call_with(&mut self, req: &Request, loss: OnTransportLoss) -> RemoteResult<Response> {
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

    /// One non-idempotent request (fails loudly on a broken connection).
    fn call_mut(&mut self, req: &Request) -> RemoteResult<Response> {
        self.call_with(req, OnTransportLoss::FailLoudly)
    }

    fn call_ok(&mut self, req: &Request) -> RemoteResult<()> {
        match self.call(req)? {
            Response::Ok => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    fn call_data(&mut self, req: &Request) -> RemoteResult<Vec<DataId>> {
        match self.call(req)? {
            Response::Data { ids } => Ok(ids),
            other => Err(unexpected(other)),
        }
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

    /// `Zoom::register_workflow` against the daemon. Registration
    /// allocates an id, so it is not re-sent across a reconnect.
    pub fn register_workflow(&mut self, spec: WorkflowSpec) -> RemoteResult<SpecId> {
        match self.call_mut(&Request::RegisterSpec { spec })? {
            Response::Spec { id } => Ok(id),
            other => Err(unexpected(other)),
        }
    }

    /// `Zoom::register_view` against the daemon. Registration allocates
    /// an id, so it is not re-sent across a reconnect.
    pub fn register_view(&mut self, spec: SpecId, view: UserView) -> RemoteResult<ViewId> {
        match self.call_mut(&Request::RegisterView { spec, view })? {
            Response::View { id } => Ok(id),
            other => Err(unexpected(other)),
        }
    }

    /// `Zoom::build_view` (good view from relevant module labels),
    /// constructed server-side.
    pub fn build_view(&mut self, spec: SpecId, relevant: &[&str]) -> RemoteResult<ViewId> {
        let req = Request::BuildView {
            spec,
            relevant: relevant.iter().map(|s| s.to_string()).collect(),
        };
        match self.call(&req)? {
            Response::View { id } => Ok(id),
            other => Err(unexpected(other)),
        }
    }

    /// Registers (or finds) the admin view of `spec` server-side.
    pub fn admin_view(&mut self, spec: SpecId) -> RemoteResult<ViewId> {
        match self.call(&Request::AdminView { spec })? {
            Response::View { id } => Ok(id),
            other => Err(unexpected(other)),
        }
    }

    /// `Zoom::load_log` against the daemon; the returned id is global.
    /// Loading allocates a run id, so it is not re-sent across a
    /// reconnect — a lost ack could otherwise double-load the run.
    pub fn load_log(&mut self, spec: SpecId, log: &EventLog) -> RemoteResult<RunId> {
        let req = Request::LoadLog {
            spec,
            log: log.clone(),
        };
        match self.call_mut(&req)? {
            Response::Run { id } => Ok(id),
            other => Err(unexpected(other)),
        }
    }

    /// `Zoom::begin_stream` against the daemon. Allocates a run id, so it
    /// is not re-sent across a reconnect.
    pub fn begin_stream(&mut self, spec: SpecId) -> RemoteResult<RunId> {
        let req = Request::BeginStream { spec };
        match self.call_mut(&req)? {
            Response::Run { id } => Ok(id),
            other => Err(unexpected(other)),
        }
    }

    /// Pushes one event into an open stream. Stream appends are the
    /// canonical non-idempotent request: if the connection dies with one
    /// in flight the daemon may have committed it, so the client fails
    /// loudly ([`RemoteError::ConnectionLost`]) rather than re-send and
    /// risk appending the event twice.
    pub fn stream_push(&mut self, run: RunId, event: &LogEvent) -> RemoteResult<PushOutcome> {
        let req = Request::StreamPush {
            run,
            event: event.clone(),
        };
        match self.call_mut(&req)? {
            Response::Push { outcome } => Ok(outcome),
            other => Err(unexpected(other)),
        }
    }

    /// Seals an open stream. Not re-sent across a reconnect (see
    /// [`Self::stream_push`]).
    pub fn stream_seal(&mut self, run: RunId) -> RemoteResult<()> {
        match self.call_mut(&Request::StreamSeal { run })? {
            Response::Ok => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Deep provenance of `data` at `view` over `run`.
    pub fn deep_provenance(
        &mut self,
        run: RunId,
        view: ViewId,
        data: DataId,
    ) -> RemoteResult<ProvenanceResult> {
        let req = Request::DeepProvenance { run, view, data };
        match self.call(&req)? {
            Response::Provenance { result } => Ok(result),
            other => Err(unexpected(other)),
        }
    }

    /// Batched deep provenance; answers in input order.
    pub fn query_batch(
        &mut self,
        queries: &[(RunId, ViewId, DataId)],
    ) -> RemoteResult<Vec<RemoteResult<ProvenanceResult>>> {
        let req = Request::QueryBatch {
            queries: queries.to_vec(),
        };
        match self.call(&req)? {
            Response::Batch { results } => Ok(results
                .into_iter()
                .map(|item| match item {
                    BatchItem::Ok(p) => Ok(p),
                    BatchItem::Err(m) => Err(RemoteError::Server(m)),
                })
                .collect()),
            other => Err(unexpected(other)),
        }
    }

    /// Immediate provenance of `data` at `view` over `run`.
    pub fn immediate_provenance(
        &mut self,
        run: RunId,
        view: ViewId,
        data: DataId,
    ) -> RemoteResult<ImmediateAnswer> {
        let req = Request::ImmediateProvenance { run, view, data };
        match self.call(&req)? {
            Response::Immediate { answer } => Ok(answer),
            other => Err(unexpected(other)),
        }
    }

    /// Forward provenance (dependents) of `data`.
    pub fn dependents_of(
        &mut self,
        run: RunId,
        view: ViewId,
        data: DataId,
    ) -> RemoteResult<Vec<DataId>> {
        self.call_data(&Request::DependentsOf { run, view, data })
    }

    /// Data passed between two executions (`None` = input/output node).
    pub fn data_between(
        &mut self,
        run: RunId,
        view: ViewId,
        from: Option<StepId>,
        to: Option<StepId>,
    ) -> RemoteResult<Vec<DataId>> {
        self.call_data(&Request::DataBetween {
            run,
            view,
            from,
            to,
        })
    }

    /// The run's final outputs.
    pub fn final_outputs(&mut self, run: RunId) -> RemoteResult<Vec<DataId>> {
        self.call_data(&Request::FinalOutputs { run })
    }

    /// Every data object visible at `view` over `run`.
    pub fn visible_data(&mut self, run: RunId, view: ViewId) -> RemoteResult<Vec<DataId>> {
        self.call_data(&Request::VisibleData { run, view })
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
        match self.call_mut(&Request::Shutdown {
            token: token.map(str::to_string),
        })? {
            Response::Bye => Ok(()),
            other => Err(unexpected(other)),
        }
    }
}

/// Executes a canned query form against the daemon (the `--connect`
/// analog of [`crate::queries::execute`]).
pub fn execute_canned_remote(
    rz: &mut RemoteZoom,
    run: RunId,
    view: ViewId,
    q: &CannedQuery,
) -> RemoteResult<QueryAnswer> {
    Ok(match q {
        CannedQuery::Deep(d) => QueryAnswer::Provenance(rz.deep_provenance(run, view, *d)?),
        CannedQuery::Immediate(d) => {
            QueryAnswer::Immediate(rz.immediate_provenance(run, view, *d)?)
        }
        CannedQuery::Dependents(d) => QueryAnswer::Data(rz.dependents_of(run, view, *d)?),
        CannedQuery::Between(a, b) => QueryAnswer::Data(rz.data_between(run, view, *a, *b)?),
        CannedQuery::FinalOutputs => QueryAnswer::Data(rz.final_outputs(run)?),
        CannedQuery::VisibleData => QueryAnswer::Data(rz.visible_data(run, view)?),
    })
}

impl TraceTarget for RemoteZoom {
    /// Replays one trace op over the wire and digests the canonical
    /// rendering of whatever came back. Server-side warehouse errors
    /// arrive as their in-process `Display` strings, so digests agree
    /// with a local replay; transport failures render distinctly (and so
    /// correctly report as mismatches).
    fn apply_trace_op(&mut self, op: &TraceOp) -> u64 {
        use trace::{
            digest_str, render_deep, render_deps, render_err, render_id, render_immediate,
            render_push, render_sealed,
        };
        fn render<T>(r: RemoteResult<T>, ok: impl FnOnce(T) -> String) -> String {
            match r {
                Ok(v) => ok(v),
                Err(e) => render_err(&e.to_string()),
            }
        }
        let rendering = match op {
            TraceOp::RegisterSpec(spec) => render(self.register_workflow(spec.clone()), render_id),
            TraceOp::RegisterView(sid, view) => {
                render(self.register_view(*sid, view.clone()), render_id)
            }
            TraceOp::LoadLog(sid, log) => render(self.load_log(*sid, log), render_id),
            TraceOp::BeginStream(sid) => render(self.begin_stream(*sid), render_id),
            TraceOp::PushEvent(run, ev) => render(self.stream_push(*run, ev), render_push),
            TraceOp::SealStream(run) => render(self.stream_seal(*run), |()| render_sealed()),
            TraceOp::DeepProvenance(run, view, data) => {
                render(self.deep_provenance(*run, *view, *data), |p| {
                    render_deep(&p)
                })
            }
            TraceOp::ImmediateProvenance(run, view, data) => render(
                self.immediate_provenance(*run, *view, *data),
                render_immediate,
            ),
            TraceOp::DependentsOf(run, view, data) => {
                render(self.dependents_of(*run, *view, *data), render_deps)
            }
        };
        digest_str(&rendering)
    }
}

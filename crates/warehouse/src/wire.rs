//! The `zoomd` wire layer: framed requests/responses over the binary
//! codec, the run-sharding router, and the per-tenant quota table.
//!
//! The daemon speaks a length-prefixed binary protocol whose payloads are
//! [`Request`]/[`Response`] values encoded with the same hand-rolled serde
//! codec ([`crate::codec`]) that backs persistence and traces, and whose
//! frames carry the same `[u32 len][u32 crc32][payload]` envelope as the
//! journal and the ZOOMTR trace format. Every frame is capped at
//! [`MAX_FRAME_BYTES`] on **both** sides: writers refuse to emit an
//! oversized frame (no silent `as u32` truncation), and readers reject an
//! oversized *declared* length before allocating a byte for it, so a
//! hostile 4 GiB length prefix costs the server nothing.
//!
//! Sharding model: runs are hash-partitioned across N independent
//! warehouse shards ([`ShardRouter`]). Specifications and views are
//! broadcast to every shard under the registration lock, so `SpecId` and
//! `ViewId` assignments agree everywhere; run ids are allocated globally
//! and sequentially (exactly the sequence a single warehouse would
//! produce, which is what lets a recorded trace replay against a daemon
//! digest-for-digest) and translated to the owning shard's local id
//! through the run map. A query only ever locks the one shard that owns
//! its run, so queries against different shards proceed in parallel, each
//! under that shard's own admission control.
//!
//! Tenancy: each connection names a tenant (`Hello`); the
//! [`TenantQuotaTable`] layers a per-tenant admission semaphore (an
//! [`AdmissionControl`]) *above* the per-shard one, so one tenant flooding
//! the daemon sheds its own traffic before it can starve another tenant's
//! shard time. The table itself is bounded against hostile tenant churn:
//! names are capped at [`MAX_TENANT_NAME_BYTES`], the table holds at most
//! [`TenantQuotas::max_tenants`] entries, and idle entries (no in-flight
//! or queued requests) are evicted to make room before a new tenant is
//! refused.

use crate::codec::{self, CodecError};
use crate::durable::{Backing, DurableError, DurableOptions, DurableWarehouse, FsckReport};
use crate::io::{RealFs, StorageIo};
use crate::journal::crc32;
use crate::metrics::{Counter, MetricsSnapshot, SlowQuery};
use crate::op::{typed, Answer, Cx, Op};
use crate::query::ProvenanceResult;
use crate::resilience::{AdmissionControl, AdmissionPermit, HealthReport, ShardState};
use crate::schema::{RunId, SpecId, ViewId, WarehouseStats};
use crate::store::{ImmediateAnswer, Result as WhResult, Warehouse, WarehouseError};
use crate::stream::PushOutcome;
use crate::trace::fnv1a;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};
use std::time::Instant;
use zoom_model::{DataId, UserView, WorkflowSpec};

/// Hard cap on one wire/trace frame payload, enforced on write (no silent
/// truncation) and on read (no attacker-sized allocation): 64 MiB.
pub const MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

/// Hard cap on a tenant name (`Hello`); names are attacker-chosen, so
/// anything that stores one must bound it first.
pub const MAX_TENANT_NAME_BYTES: usize = 256;

/// Backoff hint carried by the typed [`Response::Unavailable`] answer a
/// quarantined or rebuilding shard returns instead of serving a mutation.
pub const DEFAULT_RETRY_AFTER_MS: u64 = 100;

/// Errors from the framed wire layer.
#[derive(Debug)]
pub enum WireError {
    /// A frame payload exceeded [`MAX_FRAME_BYTES`] — either an outgoing
    /// payload too large to frame, or an incoming declared length that was
    /// rejected before any allocation.
    FrameTooLarge {
        /// The offending payload (or declared) length.
        len: u64,
    },
    /// An incoming frame's CRC did not match its payload.
    BadCrc,
    /// The peer disconnected mid-frame (after a frame header started).
    Truncated,
    /// Transport error.
    Io(std::io::Error),
    /// A frame payload failed to decode as the expected message type.
    Codec(CodecError),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::FrameTooLarge { len } => {
                write!(f, "frame of {len} bytes exceeds cap of {MAX_FRAME_BYTES}")
            }
            WireError::BadCrc => write!(f, "frame checksum mismatch"),
            WireError::Truncated => write!(f, "connection closed mid-frame"),
            WireError::Io(e) => write!(f, "wire io error: {e}"),
            WireError::Codec(e) => write!(f, "wire codec error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        WireError::Codec(e)
    }
}

/// Writes one `[u32 len][u32 crc32][payload]` frame, refusing payloads
/// over [`MAX_FRAME_BYTES`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), WireError> {
    if payload.len() as u64 > MAX_FRAME_BYTES as u64 {
        return Err(WireError::FrameTooLarge {
            len: payload.len() as u64,
        });
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(&crc32(payload).to_le_bytes())?;
    w.write_all(payload)?;
    Ok(())
}

/// Reads one frame. `Ok(None)` is a clean end-of-stream (the peer closed
/// between frames); a close *inside* a frame is [`WireError::Truncated`].
/// A declared length above [`MAX_FRAME_BYTES`] is rejected before any
/// payload allocation.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, WireError> {
    let mut header = [0u8; 8];
    let mut filled = 0;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(WireError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
    let crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    if len > MAX_FRAME_BYTES {
        return Err(WireError::FrameTooLarge { len: len as u64 });
    }
    let mut payload = vec![0u8; len as usize];
    if let Err(e) = r.read_exact(&mut payload) {
        return if e.kind() == std::io::ErrorKind::UnexpectedEof {
            Err(WireError::Truncated)
        } else {
            Err(WireError::Io(e))
        };
    }
    if crc32(&payload) != crc {
        return Err(WireError::BadCrc);
    }
    Ok(Some(payload))
}

/// Encodes a message and writes it as one frame.
pub fn write_message<T: Serialize>(w: &mut impl Write, msg: &T) -> Result<(), WireError> {
    let payload = codec::to_bytes(msg).map_err(WireError::Codec)?;
    write_frame(w, &payload)
}

/// Reads one frame and decodes it. `Ok(None)` is clean end-of-stream.
pub fn read_message<T: for<'de> Deserialize<'de>>(
    r: &mut impl Read,
) -> Result<Option<T>, WireError> {
    match read_frame(r)? {
        None => Ok(None),
        Some(payload) => Ok(Some(codec::from_bytes(&payload)?)),
    }
}

// ---------------------------------------------------------------------------
// Protocol messages
// ---------------------------------------------------------------------------

/// One client request frame. Requests and responses correlate 1:1 in
/// order on a connection. `O` is the data-plane payload: an owned [`Op`]
/// when a request is decoded, a borrowed `&Op` when a client encodes one
/// (both encode the same bytes), so sending an op never copies it.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum Request<O = Op> {
    /// Liveness probe.
    Ping,
    /// Names the connection's tenant for quota accounting. Optional;
    /// connections that skip it bill to the `"anon"` tenant.
    Hello {
        /// Tenant name.
        tenant: String,
    },
    /// One data-plane operation, answered with the [`Response`] variant
    /// that carries its [`Answer`]. Specs and views are broadcast to
    /// every shard; run-addressed ops go to the run's owning shard.
    Data(O),
    /// Per-shard table counters.
    Stats,
    /// Per-shard full observability snapshots. Snapshots embed the
    /// slow-query ring; non-admin callers get the ring filtered to their
    /// own tenant's entries (same admin rule as [`Request::SlowLog`]).
    Metrics {
        /// The admin token, for the unfiltered cross-tenant snapshot.
        token: Option<String>,
    },
    /// Per-shard health reports.
    Health,
    /// The slow-query log across shards, optionally resetting the capture
    /// threshold first.
    SlowLog {
        /// New threshold to set before reading, if any. Honoured only for
        /// admin callers; non-admin callers get their own tenant's slice
        /// of the ring and cannot retune the capture threshold.
        threshold_nanos: Option<u64>,
        /// The admin token, when the caller wants the full cross-tenant
        /// ring (same rule as [`Request::Shutdown`]).
        token: Option<String>,
    },
    /// Checkpoint every durable shard.
    Checkpoint,
    /// Resolves a workflow by name — and optionally one of its views by
    /// name — and lists the workflow's runs in load order, so the CLI's
    /// name-based addressing works without shipping whole tables.
    Resolve {
        /// The workflow name.
        workflow: String,
        /// A view name under that workflow, if one should resolve too.
        view: Option<String>,
    },
    /// Asks the daemon to exit after replying. Honoured only for clients
    /// presenting the daemon's admin token — or, when no token is
    /// configured, for loopback peers — so a remote tenant cannot stop
    /// the daemon for everyone else.
    Shutdown {
        /// The admin token, when the daemon requires one.
        token: Option<String>,
    },
    /// Installs (or clears) a tenant's visibility policy. Admin-gated
    /// with the same rule as [`Request::Shutdown`]: the daemon's admin
    /// token when one is configured, else loopback peers only.
    PolicySet {
        /// The tenant the policy applies to.
        tenant: String,
        /// The policy; `None` (or an empty policy) clears it.
        policy: Option<crate::privacy::VisibilityPolicy>,
        /// The admin token, when the daemon requires one.
        token: Option<String>,
    },
    /// Reads a tenant's installed visibility policy. A tenant may always
    /// read its *own* policy; reading another tenant's requires admin.
    PolicyGet {
        /// The tenant whose policy to read.
        tenant: String,
        /// The admin token, when reading another tenant's policy.
        token: Option<String>,
    },
}

/// One batched-query slot: `Result` flattened for the wire.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum BatchItem {
    /// The query succeeded.
    Ok(ProvenanceResult),
    /// The query failed; the payload is the error's display rendering.
    Err(String),
}

/// One server response frame.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum Response {
    /// Generic success.
    Ok,
    /// Reply to [`Request::Ping`].
    Pong,
    /// A registered specification id.
    Spec {
        /// The id (identical on every shard).
        id: SpecId,
    },
    /// A registered view id.
    View {
        /// The id (identical on every shard).
        id: ViewId,
    },
    /// A loaded/opened (global) run id.
    Run {
        /// The id.
        id: RunId,
    },
    /// A stream push outcome.
    Push {
        /// What the event did to the committed prefix.
        outcome: PushOutcome,
    },
    /// A deep-provenance answer.
    Provenance {
        /// The result.
        result: ProvenanceResult,
    },
    /// Batched deep-provenance answers, input order.
    Batch {
        /// One slot per input query.
        results: Vec<BatchItem>,
    },
    /// An immediate-provenance answer.
    Immediate {
        /// The answer.
        answer: ImmediateAnswer,
    },
    /// A plain data-object list.
    Data {
        /// The ids.
        ids: Vec<DataId>,
    },
    /// Reply to [`Request::Stats`].
    StatsAll {
        /// One entry per shard, shard order.
        shards: Vec<WarehouseStats>,
    },
    /// Reply to [`Request::Metrics`].
    MetricsAll {
        /// One entry per shard, shard order.
        shards: Vec<MetricsSnapshot>,
    },
    /// Reply to [`Request::Health`].
    HealthAll {
        /// One entry per shard, shard order.
        shards: Vec<HealthReport>,
    },
    /// Reply to [`Request::Resolve`].
    Resolved {
        /// The workflow's id.
        spec: SpecId,
        /// The resolved view id, when a view name was given.
        view: Option<ViewId>,
        /// The workflow's (global) run ids, load order.
        runs: Vec<RunId>,
    },
    /// Reply to [`Request::SlowLog`].
    SlowLogAll {
        /// Captured slow queries across all shards.
        queries: Vec<SlowQuery>,
    },
    /// The request failed; `message` is the error's display rendering
    /// (identical to what the equivalent in-process call would render, so
    /// trace digests agree across local and remote replay).
    Error {
        /// Display rendering of the error.
        message: String,
    },
    /// The addressed shard is quarantined or mid-rebuild: the supervisor
    /// took it out of the write path and it will return once repaired.
    /// Unlike [`Response::Error`] this is a *typed* refusal — the client
    /// can retry after the hinted delay without parsing error text, and
    /// the connection stays healthy (other shards keep answering on it).
    Unavailable {
        /// The supervised shard that refused the operation.
        shard: u32,
        /// Suggested client backoff before retrying, milliseconds.
        retry_after_ms: u64,
    },
    /// Reply to [`Request::Shutdown`]; the daemon exits after sending it.
    Bye,
    /// Reply to [`Request::PolicyGet`].
    Policy {
        /// The installed policy, `None` when the tenant is unrestricted.
        policy: Option<crate::privacy::VisibilityPolicy>,
    },
}

impl Response {
    /// The reply to one data-plane op. A quarantined or rebuilding shard
    /// answers the typed [`Response::Unavailable`] refusal instead of an
    /// error string, so the client can back off without parsing text.
    pub fn answer(res: WhResult<Answer>) -> Response {
        match res {
            Ok(Answer::Spec(id)) => Response::Spec { id },
            Ok(Answer::View(id)) => Response::View { id },
            Ok(Answer::Run(id)) => Response::Run { id },
            Ok(Answer::Push(outcome)) => Response::Push { outcome },
            Ok(Answer::Sealed) => Response::Ok,
            Ok(Answer::Provenance(result)) => Response::Provenance { result },
            Ok(Answer::Immediate(answer)) => Response::Immediate { answer },
            Ok(Answer::Data(ids)) => Response::Data { ids },
            Ok(Answer::Batch(slots)) => Response::Batch {
                results: slots
                    .into_iter()
                    .map(|slot| match slot {
                        Ok(p) => BatchItem::Ok(p),
                        Err(e) => BatchItem::Err(e.to_string()),
                    })
                    .collect(),
            },
            Err(WarehouseError::ShardUnavailable {
                shard,
                retry_after_ms,
            }) => Response::Unavailable {
                shard,
                retry_after_ms,
            },
            Err(e) => Response::Error {
                message: e.to_string(),
            },
        }
    }

    /// The answer this reply to a data-plane op carries, batch slot
    /// errors made by `slot_err` from their display text; any other reply
    /// comes back as `Err` for the caller to interpret.
    pub fn into_answer<E>(self, slot_err: impl Fn(String) -> E) -> Result<Answer<E>, Response> {
        Ok(match self {
            Response::Spec { id } => Answer::Spec(id),
            Response::View { id } => Answer::View(id),
            Response::Run { id } => Answer::Run(id),
            Response::Push { outcome } => Answer::Push(outcome),
            Response::Ok => Answer::Sealed,
            Response::Provenance { result } => Answer::Provenance(result),
            Response::Immediate { answer } => Answer::Immediate(answer),
            Response::Data { ids } => Answer::Data(ids),
            Response::Batch { results } => Answer::Batch(
                results
                    .into_iter()
                    .map(|item| match item {
                        BatchItem::Ok(p) => Ok(p),
                        BatchItem::Err(m) => Err(slot_err(m)),
                    })
                    .collect(),
            ),
            other => return Err(other),
        })
    }
}

// ---------------------------------------------------------------------------
// Tenant quotas
// ---------------------------------------------------------------------------

/// Per-tenant limits layered above per-shard admission control.
#[derive(Clone, Copy, Debug)]
pub struct TenantQuotas {
    /// Maximum in-flight requests per tenant (the admission semaphore's
    /// in-flight limit).
    pub max_in_flight: usize,
    /// Maximum queued requests per tenant beyond the in-flight limit;
    /// past it, requests are shed with an overload error.
    pub max_queue: usize,
    /// Maximum distinct tenants tracked at once. Tenant names arrive
    /// attacker-chosen over the wire, so the table must not grow without
    /// bound: when full, idle entries (nothing in flight or queued) are
    /// evicted first, and if every entry is busy the new tenant is
    /// refused.
    pub max_tenants: usize,
}

impl Default for TenantQuotas {
    fn default() -> Self {
        TenantQuotas {
            max_in_flight: 256,
            max_queue: 4096,
            max_tenants: 4096,
        }
    }
}

/// Per-tenant admission semaphores.
#[derive(Debug)]
pub struct TenantQuotaTable {
    quotas: TenantQuotas,
    tenants: Mutex<HashMap<String, Arc<AdmissionControl>>>,
}

impl TenantQuotaTable {
    /// A table applying `quotas` to every tenant.
    pub fn new(quotas: TenantQuotas) -> Self {
        TenantQuotaTable {
            quotas,
            tenants: Mutex::new(HashMap::new()),
        }
    }

    /// The configured limits.
    pub fn quotas(&self) -> TenantQuotas {
        self.quotas
    }

    /// The tenant's semaphore, creating it if the table has room. `None`
    /// means the tenant must be refused: its name is oversized, or the
    /// table is at [`TenantQuotas::max_tenants`] and every tracked
    /// tenant is busy (idle entries are evicted to make room first).
    fn state(&self, tenant: &str) -> Option<Arc<AdmissionControl>> {
        let mut map = lock(&self.tenants);
        if let Some(s) = map.get(tenant) {
            return Some(Arc::clone(s));
        }
        if tenant.len() > MAX_TENANT_NAME_BYTES {
            return None;
        }
        if map.len() >= self.quotas.max_tenants {
            // Evict idle tenants: nobody between a table lookup and an
            // admit (the map holds the only Arc), and no permit
            // outstanding or waiter queued.
            map.retain(|_, s| Arc::strong_count(s) > 1 || s.load() > 0);
            if map.len() >= self.quotas.max_tenants {
                return None;
            }
        }
        let s = Arc::new(AdmissionControl::new(
            self.quotas.max_in_flight,
            self.quotas.max_queue,
        ));
        map.insert(tenant.to_string(), Arc::clone(&s));
        Some(s)
    }

    /// Distinct tenants currently tracked.
    pub fn tenant_count(&self) -> usize {
        lock(&self.tenants).len()
    }

    /// Admits one request for `tenant`, blocking in the tenant's bounded
    /// queue; `None` means the request is shed — the tenant's queue is
    /// full, or the tenant itself was refused by the table bound.
    pub fn admit(&self, tenant: &str) -> Option<AdmissionPermit> {
        self.state(tenant)?.admit()
    }
}

// ---------------------------------------------------------------------------
// Shard router
// ---------------------------------------------------------------------------

/// A poison-tolerant lock: a request thread that panicked while holding a
/// shard (the daemon catches the unwind and answers an error) must not
/// convert every later lock on that shard into a panic — that would let
/// one hostile request take the whole shard down for every other tenant.
/// Shard mutations are accept/apply split (validation happens before any
/// state changes), so the state under a poisoned lock is consistent.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Supervisor bookkeeping for one shard (DESIGN.md §17). Guarded by its
/// own mutex so state checks never contend with the (long-held) backing
/// lock; the supervision lock is a leaf — it is only ever taken last and
/// never held across a backing-lock acquisition.
#[derive(Debug)]
struct Supervision {
    state: ShardState,
    quarantines: u64,
    repairs: u64,
    failed_repairs: u64,
    last_repair_nanos: u64,
}

impl Supervision {
    fn new() -> Self {
        Supervision {
            state: ShardState::Healthy,
            quarantines: 0,
            repairs: 0,
            failed_repairs: 0,
            last_repair_nanos: 0,
        }
    }
}

/// The result of one online shard repair (fsck + reopen + atomic swap).
#[derive(Debug)]
pub struct RepairOutcome {
    /// The repaired shard.
    pub shard: usize,
    /// What fsck found on disk before the reopen; `None` for in-memory
    /// shards (nothing on disk to verify — the repair only clears the
    /// supervisor state).
    pub fsck: Option<FsckReport>,
    /// Wall-clock nanoseconds the repair took.
    pub nanos: u64,
}

/// Hash-partitions runs across N independent shards while keeping the
/// spec/view/run id sequences identical to a single warehouse's.
#[derive(Debug)]
pub struct ShardRouter {
    shards: Vec<Mutex<Backing>>,
    /// Per-shard supervisor state, same order as `shards` (DESIGN.md §17).
    supervision: Vec<Mutex<Supervision>>,
    /// Serializes spec/view broadcasts across shards. Registration locks
    /// shards one at a time; without an outer lock, two concurrent
    /// registrations could interleave (shard 0 sees A then B, shard 1
    /// sees B then A) and commit divergent ids before the mismatch check
    /// could catch it.
    registration: Mutex<()>,
    /// Serializes run-allocating ops; held across the owning shard's
    /// mutation so a failed load consumes no global id (exactly like a
    /// single warehouse).
    loads: Mutex<()>,
    /// (shard index, shard-local run id) of each global run id, indexed
    /// by the global id: global ids are handed out densely.
    runs: RwLock<Vec<(usize, RunId)>>,
    /// Per-tenant visibility policies (DESIGN.md §16). Enforcement runs
    /// *before* dispatch — the daemon rewrites a restricted tenant's
    /// query to its effective view, so the shards never need to know
    /// about tenants. Not persisted: an operator re-applies policies on
    /// restart (`zoomctl policy set`), which also guarantees a daemon
    /// never boots with stale rules.
    policies: crate::privacy::PolicyTable,
}

/// Name of the file at a durable root that pins the shard count the
/// directory was created with.
const SHARD_MANIFEST: &str = "SHARDS";

impl ShardRouter {
    /// N in-memory shards.
    pub fn in_memory(shards: usize) -> Self {
        Self::over(
            (0..shards.max(1))
                .map(|_| Backing::Memory(Box::new(Warehouse::new())))
                .collect(),
        )
    }

    /// A router over `shards` that has routed no run yet.
    fn over(shards: Vec<Backing>) -> Self {
        ShardRouter {
            supervision: shards
                .iter()
                .map(|_| Mutex::new(Supervision::new()))
                .collect(),
            shards: shards.into_iter().map(Mutex::new).collect(),
            registration: Mutex::new(()),
            loads: Mutex::new(()),
            policies: crate::privacy::PolicyTable::new(),
            runs: RwLock::new(Vec::new()),
        }
    }

    /// N durable shards under `dir/shard-<i>`. Reopening an existing
    /// directory recovers every shard, then rebuilds the global run map by
    /// replaying the allocation order (global ids are dense, and the
    /// owning shard of each global id is a pure function of the id).
    ///
    /// The shard count is pinned at creation in a `SHARDS` manifest at
    /// the root: the run→shard mapping is a function of N, so reopening
    /// with a different N would silently drop the runs on unopened
    /// shards and remap every surviving global id — that is refused with
    /// a [`DurableError::BadManifest`] instead.
    pub fn open_durable(dir: &Path, shards: usize) -> Result<Self, DurableError> {
        Self::open_durable_with(dir, shards, DurableOptions::default(), &[])
    }

    /// [`ShardRouter::open_durable`] with explicit per-shard storage
    /// backends and options. `ios[i]` backs shard `i`; shards past the
    /// slice use the real filesystem. Injecting a
    /// [`FaultFs`](crate::io::FaultFs) per shard is what lets the chaos
    /// harness arm deterministic fault schedules against a live daemon;
    /// the supervisor's repair reopens a shard on the *same* backend, so
    /// recovery is exercised under the identical fault model.
    pub fn open_durable_with(
        dir: &Path,
        shards: usize,
        options: DurableOptions,
        ios: &[Arc<dyn StorageIo>],
    ) -> Result<Self, DurableError> {
        let n = shards.max(1);
        std::fs::create_dir_all(dir)?;
        let manifest = dir.join(SHARD_MANIFEST);
        match std::fs::read_to_string(&manifest) {
            Ok(raw) => {
                let stored: usize = raw.trim().parse().map_err(|_| {
                    DurableError::BadManifest(format!(
                        "shard manifest `{}` holds `{}`, not a shard count",
                        manifest.display(),
                        raw.trim()
                    ))
                })?;
                if stored != n {
                    return Err(DurableError::BadManifest(format!(
                        "directory was created with {stored} shard(s) but reopened \
                         with {n}; the run→shard mapping is fixed at creation, so \
                         reopen with --shards {stored}"
                    )));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                // No manifest: a fresh directory, or one from before the
                // manifest existed. Refuse if a shard directory beyond N
                // is present (its runs would silently vanish; shard dirs
                // are created densely, so checking `shard-<n>` suffices),
                // then pin the count for every later open.
                if dir.join(format!("shard-{n}")).is_dir() {
                    return Err(DurableError::BadManifest(format!(
                        "directory holds shard-{n} but only {n} shard(s) were \
                         requested; reopening would drop its runs"
                    )));
                }
                std::fs::write(&manifest, format!("{n}\n"))?;
            }
            Err(e) => return Err(DurableError::Io(e)),
        }
        let mut backings = Vec::with_capacity(n);
        for i in 0..n {
            let sub = dir.join(format!("shard-{i}"));
            std::fs::create_dir_all(&sub)?;
            let io: Arc<dyn StorageIo> = match ios.get(i) {
                Some(io) => Arc::clone(io),
                None => Arc::new(RealFs),
            };
            backings.push(Backing::Durable(Box::new(DurableWarehouse::open_with(
                io, &sub, options,
            )?)));
        }
        let mut router = Self::over(backings);
        // Rebuild the global run map: global ids were handed out densely,
        // each one owned by `shard_of(id)`, and each shard assigned its
        // local ids densely in the same order — so walking global ids in
        // order and counting per-shard recovers the exact mapping.
        let shard_runs: Vec<usize> = router.shards.iter().map(|s| lock(s).stats().runs).collect();
        let mut per_shard_next: Vec<u32> = vec![0; n];
        let total: usize = shard_runs.iter().sum();
        let mut map = Vec::with_capacity(total);
        for global in 0..total as u32 {
            let sh = router.shard_of_raw(global);
            if per_shard_next[sh] as usize >= shard_runs[sh] {
                // A hole would mean the stored shards disagree with the
                // allocation discipline; surface it as corruption.
                return Err(DurableError::BadManifest(format!(
                    "shard {sh} has {} runs but global id {global} maps to it",
                    shard_runs[sh]
                )));
            }
            map.push((sh, RunId(per_shard_next[sh])));
            per_shard_next[sh] += 1;
        }
        router.runs = RwLock::new(map);
        Ok(router)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total runs routed so far.
    pub fn run_count(&self) -> u32 {
        self.runs
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len() as u32
    }

    fn shard_of_raw(&self, global: u32) -> usize {
        (fnv1a(&global.to_le_bytes()) % self.shards.len() as u64) as usize
    }

    /// The shard that owns (or would own) a global run id.
    pub fn shard_of(&self, run: RunId) -> usize {
        self.shard_of_raw(run.0)
    }

    fn resolve(&self, run: RunId) -> WhResult<(usize, RunId)> {
        self.runs
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(run.0 as usize)
            .copied()
            .ok_or(WarehouseError::RunNotFound(run))
    }

    fn with_run<R>(
        &self,
        run: RunId,
        f: impl FnOnce(&Backing, RunId) -> WhResult<R>,
    ) -> WhResult<R> {
        let (sh, local) = self.resolve(run)?;
        let guard = lock(&self.shards[sh]);
        f(&guard, local)
    }

    /// Refuses a mutation when the shard is out of the write path
    /// (`Quarantined`/`Rebuilding`). Called *while holding* the shard's
    /// backing lock: a writer that passed this check cannot interleave
    /// with a repair's disk scan, because the repair takes the backing
    /// lock as a barrier after changing the state and before reading the
    /// disk. `Degraded` still passes — the breaker stays the authority
    /// for fail-fast rejections so error renderings match PR 5's.
    fn write_allowed(&self, sh: usize, backing: &Backing) -> WhResult<()> {
        let state = lock(&self.supervision[sh]).state;
        if state.accepts_writes() {
            Ok(())
        } else {
            backing
                .warehouse()
                .metrics_registry()
                .add(Counter::UnavailableRejected, 1);
            Err(WarehouseError::ShardUnavailable {
                shard: sh as u32,
                retry_after_ms: DEFAULT_RETRY_AFTER_MS,
            })
        }
    }

    /// Folds a mutation's outcome into the supervisor state: a durable
    /// shard whose breaker is open is marked `Degraded`, and one whose
    /// breaker closed again (checkpoint probe) returns to `Healthy`.
    /// Quarantined/rebuilding shards are left to the repair path.
    fn note_write_outcome(&self, sh: usize, backing: &Backing) {
        let degraded = backing.degraded();
        let mut sup = lock(&self.supervision[sh]);
        match (sup.state, degraded) {
            (ShardState::Healthy, true) => sup.state = ShardState::Degraded,
            (ShardState::Degraded, false) => sup.state = ShardState::Healthy,
            _ => {}
        }
    }

    fn with_run_mut<R>(
        &self,
        run: RunId,
        f: impl FnOnce(&mut Backing, RunId) -> WhResult<R>,
    ) -> WhResult<R> {
        let (sh, local) = self.resolve(run)?;
        let mut guard = lock(&self.shards[sh]);
        self.write_allowed(sh, &guard)?;
        let out = f(&mut guard, local);
        self.note_write_outcome(sh, &guard);
        out
    }

    /// Applies a run-allocating op on the shard that owns the next global
    /// run id, and maps that id to the shard-local one it allocated.
    fn load_into_shard(&self, op: &Op) -> WhResult<Answer> {
        let _loads = lock(&self.loads);
        let global = RunId(self.run_count());
        let sh = self.shard_of(global);
        let answer = {
            let mut guard = lock(&self.shards[sh]);
            self.write_allowed(sh, &guard)?;
            let out = guard.store().apply(op);
            self.note_write_outcome(sh, &guard);
            out?
        };
        let Answer::Run(local) = answer else {
            return Ok(answer);
        };
        self.runs
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .push((sh, local));
        Ok(Answer::Run(global))
    }

    /// Applies one op by `cx`: specs and views are registered on every
    /// shard (the same id everywhere), view building finds or registers
    /// the built view atomically, loads allocate the next global run id,
    /// and run-addressed ops run on the owning shard at its local run id,
    /// through that shard's [`Warehouse::read`] with `cx`. Batches are
    /// grouped by owning shard, each group fanning out through that
    /// shard's batch path, and answer in input order. Policies are not
    /// enforced here: the daemon gates each op before it calls this.
    pub fn apply(&self, cx: &Cx, op: &Op) -> WhResult<Answer> {
        match op {
            Op::RegisterSpec(_) | Op::RegisterView(..) => {
                let _reg = lock(&self.registration);
                self.broadcast(op)
            }
            Op::BuildView(spec, _) | Op::AdminView(spec) => {
                let view = op.derived_view(&self.spec(*spec)?)?;
                self.register_view_if_absent(*spec, &view).map(Answer::View)
            }
            Op::LoadLog(..) | Op::BeginStream(_) => self.load_into_shard(op),
            Op::PushEvent(run, _) | Op::SealStream(run) => {
                self.with_run_mut(*run, |b, local| b.store().write(&op.retarget(local, None)))
            }
            Op::Batch(queries) => Ok(Answer::Batch(self.query_batch(cx, queries))),
            Op::DeepProvenance(run, ..)
            | Op::ImmediateProvenance(run, ..)
            | Op::DependentsOf(run, ..)
            | Op::DataBetween(run, ..)
            | Op::FinalOutputs(run)
            | Op::VisibleData(run, _) => self.with_run(*run, |b, local| {
                b.warehouse().read(cx, &op.retarget(local, None))
            }),
        }
    }

    /// Finds an already-registered view of the same name under `spec`, or
    /// registers `view` on every shard — atomically under the
    /// registration lock, so two concurrent callers cannot both miss the
    /// lookup and register the view twice (or interleave with another
    /// registration and commit divergent ids).
    pub fn register_view_if_absent(&self, spec: SpecId, view: &UserView) -> WhResult<ViewId> {
        let _reg = lock(&self.registration);
        if let Some(existing) = lock(&self.shards[0])
            .warehouse()
            .find_view(spec, view.name())
        {
            return Ok(existing);
        }
        typed(self.broadcast(&Op::RegisterView(spec, view.clone())))
    }

    /// A broadcast mutates every shard, so it is refused up front while
    /// any shard is out of the write path — a partial broadcast would
    /// commit id assignments the quarantined shard never journaled,
    /// leaving the tables divergent after its repair. Callers hold the
    /// registration lock, so no new quarantine can slip between this
    /// check and the broadcast except via a breaker trip, which the
    /// per-shard append failure surfaces anyway.
    fn broadcast_allowed(&self) -> WhResult<()> {
        for (i, shard) in self.shards.iter().enumerate() {
            let guard = lock(shard);
            self.write_allowed(i, &guard)?;
        }
        Ok(())
    }

    /// Applies a registration on every shard and checks they all assigned
    /// the same id. Callers hold the registration lock, which serializes
    /// broadcasts, so a divergent id (only possible if shard state was
    /// mutated behind the router's back) is surfaced as corruption.
    fn broadcast(&self, op: &Op) -> WhResult<Answer> {
        self.broadcast_allowed()?;
        let mut agreed: Option<Answer> = None;
        for (i, shard) in self.shards.iter().enumerate() {
            let got = lock(shard).store().apply(op)?;
            match &agreed {
                None => agreed = Some(got),
                Some(prev) if prev.canonical() == got.canonical() => {}
                Some(prev) => {
                    return Err(WarehouseError::SpecMismatch {
                        expected: format!("{prev} on every shard"),
                        got: format!("{got} on shard {i}"),
                    })
                }
            }
        }
        Ok(agreed.expect("at least one shard"))
    }

    /// A clone of a registered specification (shard 0's copy; all agree).
    pub fn spec(&self, id: SpecId) -> WhResult<WorkflowSpec> {
        lock(&self.shards[0]).warehouse().spec(id).cloned()
    }

    /// An already-registered view id by name under `spec`, if any (shard
    /// 0's copy; all shards agree).
    pub fn find_view(&self, spec: SpecId, name: &str) -> Option<ViewId> {
        lock(&self.shards[0]).warehouse().find_view(spec, name)
    }

    /// A registered specification id by name, if any.
    pub fn spec_by_name(&self, name: &str) -> Option<SpecId> {
        lock(&self.shards[0]).warehouse().spec_by_name(name)
    }

    /// The global run ids belonging to `spec`, in load order: the global
    /// ids whose shard-local run is one of its shard's runs of `spec`.
    pub fn runs_of_spec(&self, spec: SpecId) -> Vec<RunId> {
        let members: Vec<Vec<RunId>> = self
            .shards
            .iter()
            .map(|s| lock(s).warehouse().runs_of_spec(spec).to_vec())
            .collect();
        let map = self.runs.read().unwrap_or_else(PoisonError::into_inner);
        (0u32..)
            .zip(map.iter())
            .filter(|(_, (sh, local))| members[*sh].binary_search(local).is_ok())
            .map(|(g, _)| RunId(g))
            .collect()
    }

    /// Batched deep provenance (see [`ShardRouter::apply`]).
    fn query_batch(
        &self,
        cx: &Cx,
        queries: &[(RunId, ViewId, DataId)],
    ) -> Vec<WhResult<ProvenanceResult>> {
        let mut slots: Vec<Option<WhResult<ProvenanceResult>>> =
            (0..queries.len()).map(|_| None).collect();
        // Group indices per shard, translating run ids; unknown runs
        // answer immediately.
        type Routed = (usize, (RunId, ViewId, DataId));
        let mut per_shard: Vec<Vec<Routed>> = (0..self.shards.len()).map(|_| Vec::new()).collect();
        for (i, &(run, view, data)) in queries.iter().enumerate() {
            match self.resolve(run) {
                Ok((sh, local)) => per_shard[sh].push((i, (local, view, data))),
                Err(e) => slots[i] = Some(Err(e)),
            }
        }
        for (sh, group) in per_shard.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let triples: Vec<(RunId, ViewId, DataId)> = group.iter().map(|(_, t)| *t).collect();
            let answers = lock(&self.shards[sh])
                .warehouse()
                .deep_provenance_many(cx, &triples);
            for ((i, _), ans) in group.into_iter().zip(answers) {
                slots[i] = Some(ans);
            }
        }
        slots
            .into_iter()
            .map(|s| s.expect("every batch slot answered"))
            .collect()
    }

    /// Per-shard table counters, shard order.
    pub fn stats(&self) -> Vec<WarehouseStats> {
        self.shards.iter().map(|s| lock(s).stats()).collect()
    }

    /// Per-shard observability snapshots, shard order.
    pub fn metrics(&self) -> Vec<MetricsSnapshot> {
        self.shards
            .iter()
            .map(|s| {
                let guard = lock(s);
                let stats = guard.stats();
                guard.warehouse().metrics_with(stats)
            })
            .collect()
    }

    /// Per-shard health, shard order, with the supervisor's lifecycle
    /// state overlaid: a quarantined or rebuilding shard reports itself
    /// unwritable regardless of what its (possibly freshly-swapped)
    /// breaker says, and the quarantine/repair counters survive the
    /// repair's registry swap because the supervisor owns them.
    pub fn health(&self) -> Vec<HealthReport> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut h = lock(s).health();
                let sup = lock(&self.supervision[i]);
                if !matches!(sup.state, ShardState::Healthy) {
                    h.state = sup.state;
                }
                h.writable = h.writable && sup.state.accepts_writes();
                h.quarantines = sup.quarantines;
                h.repairs = sup.repairs;
                h.last_repair_nanos = sup.last_repair_nanos;
                h
            })
            .collect()
    }

    /// Every shard's supervisor lifecycle state, shard order.
    pub fn shard_states(&self) -> Vec<ShardState> {
        self.supervision.iter().map(|s| lock(s).state).collect()
    }

    /// One shard's supervisor lifecycle state.
    pub fn shard_state(&self, sh: usize) -> ShardState {
        lock(&self.supervision[sh]).state
    }

    /// Refreshes every shard's `Healthy`/`Degraded` state from its
    /// breaker (quarantined/rebuilding shards are left alone) and returns
    /// the states. The daemon's supervisor thread calls this each tick so
    /// breaker trips surface even when no mutation has touched the shard
    /// since.
    pub fn supervise_once(&self) -> Vec<ShardState> {
        for (i, shard) in self.shards.iter().enumerate() {
            let guard = lock(shard);
            self.note_write_outcome(i, &guard);
        }
        self.shard_states()
    }

    /// Takes a shard out of the write path: `Healthy`/`Degraded` →
    /// `Quarantined`. Mutations routed to it answer the typed
    /// [`Response::Unavailable`] refusal; reads keep serving from memory.
    /// Returns `false` when the shard is already quarantined or mid-
    /// rebuild (or out of range).
    pub fn quarantine_shard(&self, sh: usize) -> bool {
        let Some(sup) = self.supervision.get(sh) else {
            return false;
        };
        let mut sup = lock(sup);
        if !sup.state.accepts_writes() {
            return false;
        }
        sup.state = ShardState::Quarantined;
        sup.quarantines += 1;
        drop(sup);
        lock(&self.shards[sh])
            .warehouse()
            .metrics_registry()
            .add(Counter::Quarantines, 1);
        true
    }

    /// Repairs a shard online while the other shards keep serving:
    ///
    /// 1. quarantine it if it is not already (`Rebuilding` is refused —
    ///    one repair at a time), then mark it `Rebuilding`;
    /// 2. take the backing lock once as a barrier, so any mutation that
    ///    passed its state check before step 1 has finished and the disk
    ///    image is stable — no later writer can start against the old
    ///    backing;
    /// 3. rebuild the shard with [`DurableWarehouse::rebuild`] without
    ///    holding the backing lock (reads keep answering from the old
    ///    in-memory image throughout): fsck its directory, re-open a
    ///    fresh store on the *same* storage backend carrying the runtime
    ///    [`Settings`](crate::store::Settings) captured at the barrier,
    ///    and checkpoint it as a write probe — a repair must not declare
    ///    a still-broken disk healthy just because replaying the journal
    ///    needed no writes;
    /// 4. swap the fresh store in under the backing lock (atomic from
    ///    every other thread's point of view) and mark the shard
    ///    `Healthy`.
    ///
    /// The swap carries the settings over again, so one changed during
    /// the rebuild is kept. On any failure the shard returns to
    /// `Quarantined` and the error is surfaced; the old backing keeps
    /// serving reads either way. Memory
    /// shards have no disk to rebuild from, so their "repair" just
    /// re-admits them to the write path.
    pub fn repair_shard(&self, sh: usize) -> Result<RepairOutcome, DurableError> {
        if sh >= self.shards.len() {
            return Err(DurableError::BadManifest(format!(
                "no shard {sh} (router has {})",
                self.shards.len()
            )));
        }
        let started = Instant::now();
        {
            let mut sup = lock(&self.supervision[sh]);
            if sup.state == ShardState::Rebuilding {
                return Err(DurableError::BadManifest(format!(
                    "shard {sh} is already rebuilding"
                )));
            }
            if sup.state.accepts_writes() {
                sup.quarantines += 1;
            }
            sup.state = ShardState::Rebuilding;
        }
        // Barrier: wait out any mutation that passed its state check
        // before we flipped it, and capture what we need for the rebuild.
        let source = {
            let guard = lock(&self.shards[sh]);
            match &*guard {
                Backing::Memory(_) => None,
                Backing::Durable(dw) => Some((
                    dw.io(),
                    dw.dir().to_path_buf(),
                    dw.options(),
                    dw.warehouse().settings(),
                )),
            }
        };
        let Some((io, dir, options, settings)) = source else {
            // In-memory shard: nothing on disk to verify or replay.
            let nanos = started.elapsed().as_nanos() as u64;
            let mut sup = lock(&self.supervision[sh]);
            sup.state = ShardState::Healthy;
            sup.repairs += 1;
            sup.last_repair_nanos = nanos;
            return Ok(RepairOutcome {
                shard: sh,
                fsck: None,
                nanos,
            });
        };
        let rebuilt = DurableWarehouse::rebuild(io, &dir, options, settings);
        match rebuilt {
            Ok((report, mut fresh)) => {
                {
                    let mut guard = lock(&self.shards[sh]);
                    // A setting changed while the shard rebuilt reached
                    // only the old store: carry the settings again.
                    fresh.set_settings(guard.warehouse().settings());
                    *guard = Backing::Durable(Box::new(fresh));
                }
                let nanos = started.elapsed().as_nanos() as u64;
                {
                    let mut sup = lock(&self.supervision[sh]);
                    sup.state = ShardState::Healthy;
                    sup.repairs += 1;
                    sup.last_repair_nanos = nanos;
                }
                lock(&self.shards[sh])
                    .warehouse()
                    .metrics_registry()
                    .record_repair(nanos);
                Ok(RepairOutcome {
                    shard: sh,
                    fsck: Some(report),
                    nanos,
                })
            }
            Err(e) => {
                let mut sup = lock(&self.supervision[sh]);
                sup.state = ShardState::Quarantined;
                sup.failed_repairs += 1;
                Err(e)
            }
        }
    }

    /// Slow queries across every shard (shard order, capture order within
    /// a shard).
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.shards
            .iter()
            .flat_map(|s| lock(s).warehouse().metrics_registry().slow_queries())
            .collect()
    }

    /// Slow queries captured for one tenant only — the non-admin
    /// [`Request::SlowLog`] answer. Entries recorded before tenant
    /// tagging existed (or outside any connection) carry no tenant and
    /// are visible to no non-admin caller.
    pub fn slow_queries_of_tenant(&self, tenant: &str) -> Vec<SlowQuery> {
        self.slow_queries()
            .into_iter()
            .filter(|q| q.tenant.as_deref() == Some(tenant))
            .collect()
    }

    /// The per-tenant visibility-policy table (enforced before dispatch).
    pub fn policies(&self) -> &crate::privacy::PolicyTable {
        &self.policies
    }

    /// Sets the slow-query capture threshold on every shard.
    pub fn set_slow_query_threshold_nanos(&self, nanos: u64) {
        for s in &self.shards {
            lock(s)
                .warehouse()
                .metrics_registry()
                .set_slow_threshold_nanos(nanos);
        }
    }

    /// Checkpoints every durable shard that is still in the write path
    /// (no-op for memory shards; quarantined/rebuilding shards are
    /// skipped — forcing writes at a sick disk during drain would only
    /// stall the shutdown, and repair re-checkpoints on swap anyway).
    pub fn checkpoint(&self) -> WhResult<()> {
        for (i, s) in self.shards.iter().enumerate() {
            let mut guard = lock(s);
            if !lock(&self.supervision[i]).state.accepts_writes() {
                continue;
            }
            guard.checkpoint()?;
        }
        Ok(())
    }

    /// Folds per-shard stats into one aggregate: per-run counters sum,
    /// broadcast tables (specs/views) carry over as-is, `epoch` takes the
    /// max, and degraded anywhere is degraded everywhere.
    pub fn aggregate_stats(shards: &[WarehouseStats]) -> WarehouseStats {
        let mut agg = WarehouseStats::default();
        for s in shards {
            agg.specs = s.specs; // broadcast tables: identical per shard
            agg.views = s.views;
            agg.runs += s.runs;
            agg.steps += s.steps;
            agg.data_objects += s.data_objects;
            agg.cached_view_runs += s.cached_view_runs;
            agg.cached_indexes += s.cached_indexes;
            agg.index_hits += s.index_hits;
            agg.index_misses += s.index_misses;
            agg.index_build_nanos += s.index_build_nanos;
            agg.view_run_hits += s.view_run_hits;
            agg.view_run_misses += s.view_run_misses;
            agg.view_run_evictions += s.view_run_evictions;
            agg.journal_records += s.journal_records;
            agg.journal_bytes += s.journal_bytes;
            agg.compactions += s.compactions;
            agg.epoch = agg.epoch.max(s.epoch);
            agg.degraded = agg.degraded || s.degraded;
        }
        agg
    }
}

impl crate::privacy::ViewRegistry for ShardRouter {
    /// Shard 0's tables: specs and views are broadcast, so every shard
    /// agrees; enforcement counters land in shard 0's registry too (the
    /// aggregated metrics view sums across shards anyway). The policy
    /// table never holds a shard lock while calling back here, so this
    /// cannot deadlock.
    fn with_tables<T>(&self, f: impl FnOnce(&Warehouse) -> T) -> T {
        f(lock(&self.shards[0]).warehouse())
    }

    fn register_view_if_absent(&self, spec: SpecId, view: &UserView) -> WhResult<ViewId> {
        ShardRouter::register_view_if_absent(self, spec, view)
    }

    /// Runs live on their owning shard, under their shard-local ids.
    fn run_spec(&self, run: RunId) -> WhResult<SpecId> {
        self.with_run(run, |b, local| b.warehouse().run_spec(local))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::IndexBackend;
    use zoom_model::{EventLog, LogEvent, RunBuilder, SpecBuilder};

    /// Typed sugar over [`ShardRouter::apply`] for the tests below.
    impl ShardRouter {
        fn register_spec(&self, s: &WorkflowSpec) -> WhResult<SpecId> {
            typed(self.apply(&Cx::ADMIN, &Op::RegisterSpec(s.clone())))
        }
        fn register_view(&self, spec: SpecId, v: &UserView) -> WhResult<ViewId> {
            typed(self.apply(&Cx::ADMIN, &Op::RegisterView(spec, v.clone())))
        }
        fn load_log(&self, spec: SpecId, log: &EventLog) -> WhResult<RunId> {
            typed(self.apply(&Cx::ADMIN, &Op::LoadLog(spec, log.clone())))
        }
        fn begin_stream(&self, spec: SpecId) -> WhResult<RunId> {
            typed(self.apply(&Cx::ADMIN, &Op::BeginStream(spec)))
        }
        fn stream_push(&self, run: RunId, ev: &LogEvent) -> WhResult<PushOutcome> {
            typed(self.apply(&Cx::ADMIN, &Op::PushEvent(run, ev.clone())))
        }
        fn stream_seal(&self, run: RunId) -> WhResult<()> {
            typed(self.apply(&Cx::ADMIN, &Op::SealStream(run)))
        }
        fn deep_provenance(&self, r: RunId, v: ViewId, d: DataId) -> WhResult<ProvenanceResult> {
            typed(self.apply(&Cx::ADMIN, &Op::DeepProvenance(r, v, d)))
        }
        fn final_outputs(&self, run: RunId) -> WhResult<Vec<DataId>> {
            typed(self.apply(&Cx::ADMIN, &Op::FinalOutputs(run)))
        }
        fn visible_data(&self, run: RunId, view: ViewId) -> WhResult<Vec<DataId>> {
            typed(self.apply(&Cx::ADMIN, &Op::VisibleData(run, view)))
        }
    }

    fn spec(name: &str) -> WorkflowSpec {
        let mut b = SpecBuilder::new(name);
        b.analysis("A");
        b.analysis("B");
        b.from_input("A").edge("A", "B").to_output("B");
        b.build().unwrap()
    }

    fn log_of(s: &WorkflowSpec) -> EventLog {
        let (a, bb) = (s.module("A").unwrap(), s.module("B").unwrap());
        let mut rb = RunBuilder::new(s);
        let s1 = rb.step(a);
        let s2 = rb.step(bb);
        rb.input_edge(s1, [1])
            .data_edge(s1, s2, [2])
            .output_edge(s2, [3]);
        EventLog::from_run(&rb.build().unwrap(), s)
    }

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn oversized_write_refused() {
        // A pretend slice: avoid allocating 64 MiB by checking the guard
        // directly with a small cap stand-in is not possible (const), so
        // allocate once — zeroed pages are cheap.
        let big = vec![0u8; MAX_FRAME_BYTES as usize + 1];
        let mut buf = Vec::new();
        assert!(matches!(
            write_frame(&mut buf, &big),
            Err(WireError::FrameTooLarge { .. })
        ));
        assert!(buf.is_empty(), "nothing written for refused frame");
    }

    #[test]
    fn oversized_declared_length_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        let mut r = &buf[..];
        assert!(matches!(
            read_frame(&mut r),
            Err(WireError::FrameTooLarge { len }) if len == u32::MAX as u64
        ));
    }

    #[test]
    fn corrupt_and_truncated_frames_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload").unwrap();
        let n = buf.len();
        let mut bad = buf.clone();
        bad[n - 1] ^= 0xff;
        assert!(matches!(read_frame(&mut &bad[..]), Err(WireError::BadCrc)));
        let torn = &buf[..n - 3];
        assert!(matches!(
            read_frame(&mut &torn[..]),
            Err(WireError::Truncated)
        ));
        let header_only = &buf[..5];
        assert!(matches!(
            read_frame(&mut &header_only[..]),
            Err(WireError::Truncated)
        ));
    }

    #[test]
    fn a_borrowed_op_encodes_like_an_owned_one() {
        let op = Op::DeepProvenance(RunId(3), ViewId(1), DataId(7));
        let owned = codec::to_bytes(&Request::Data(op.clone())).unwrap();
        assert_eq!(codec::to_bytes(&Request::Data(&op)).unwrap(), owned);
        let decoded: Request = codec::from_bytes(&owned).unwrap();
        assert!(matches!(decoded, Request::Data(Op::DeepProvenance(..))));
    }

    #[test]
    fn message_roundtrip() {
        let mut buf = Vec::new();
        write_message(
            &mut buf,
            &Request::<Op>::Hello {
                tenant: "alice".to_string(),
            },
        )
        .unwrap();
        write_message(
            &mut buf,
            &Response::Error {
                message: "nope".to_string(),
            },
        )
        .unwrap();
        let mut r = &buf[..];
        match read_message::<Request>(&mut r).unwrap().unwrap() {
            Request::Hello { tenant } => assert_eq!(tenant, "alice"),
            other => panic!("{other:?}"),
        }
        match read_message::<Response>(&mut r).unwrap().unwrap() {
            Response::Error { message } => assert_eq!(message, "nope"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn router_matches_single_warehouse_ids_and_answers() {
        let router = ShardRouter::in_memory(4);
        let mut single = Warehouse::new();

        let s = spec("sharded");
        let sid_r = router.register_spec(&s).unwrap();
        let sid_s = single.register_spec(s.clone()).unwrap();
        assert_eq!(sid_r, sid_s);

        let admin = zoom_model::UserView::admin(&s);
        let vid_r = router.register_view(sid_r, &admin).unwrap();
        let vid_s = single.register_view(sid_s, admin).unwrap();
        assert_eq!(vid_r, vid_s);

        let log = log_of(&s);
        for i in 0..8 {
            let rid_r = router.load_log(sid_r, &log).unwrap();
            let rid_s = single.load_log(sid_s, &log).unwrap();
            assert_eq!(rid_r, rid_s, "load {i}");

            let pr = router.deep_provenance(rid_r, vid_r, DataId(3)).unwrap();
            let ps = single.deep_provenance(rid_s, vid_s, DataId(3)).unwrap();
            assert_eq!(pr.rows, ps.rows);
            assert_eq!(pr.execs, ps.execs);
        }
        assert_eq!(router.run_count(), 8);

        // Runs actually spread over more than one shard.
        let used: std::collections::HashSet<usize> =
            (0..8).map(|i| router.shard_of(RunId(i))).collect();
        assert!(used.len() > 1, "8 runs landed on one shard: {used:?}");

        // Unknown run: same error rendering as a single warehouse.
        let err_r = router
            .deep_provenance(RunId(99), vid_r, DataId(3))
            .unwrap_err();
        assert!(matches!(err_r, WarehouseError::RunNotFound(RunId(99))));

        // Batch across shards comes back in input order.
        let triples: Vec<(RunId, ViewId, DataId)> = (0..8)
            .map(|i| (RunId(i), vid_r, DataId(3)))
            .chain([(RunId(99), vid_r, DataId(3))])
            .collect();
        let batch = router.query_batch(&Cx::ADMIN, &triples);
        assert_eq!(batch.len(), 9);
        for ans in &batch[..8] {
            assert!(ans.is_ok());
        }
        assert!(matches!(
            batch[8],
            Err(WarehouseError::RunNotFound(RunId(99)))
        ));
    }

    #[test]
    fn router_streams_and_failed_loads_consume_no_id() {
        let router = ShardRouter::in_memory(3);
        let s = spec("streams");
        let sid = router.register_spec(&s).unwrap();
        let vid = router
            .register_view(sid, &zoom_model::UserView::admin(&s))
            .unwrap();

        // A failed load consumes no global id.
        let bogus = router.load_log(SpecId(7), &log_of(&s)).unwrap_err();
        assert!(matches!(bogus, WarehouseError::SpecNotFound(SpecId(7))));
        assert_eq!(router.run_count(), 0);

        let rid = router.begin_stream(sid).unwrap();
        assert_eq!(rid, RunId(0));
        for ev in &log_of(&s).events {
            router.stream_push(rid, ev).unwrap();
        }
        router.stream_seal(rid).unwrap();
        let deep = router.deep_provenance(rid, vid, DataId(3)).unwrap();
        assert_eq!(deep.tuples(), 3);
        assert_eq!(router.final_outputs(rid).unwrap(), vec![DataId(3)]);
        assert_eq!(router.visible_data(rid, vid).unwrap().len(), 3);
    }

    #[test]
    fn aggregate_stats_sums_runs_but_not_broadcast_tables() {
        let router = ShardRouter::in_memory(2);
        let s = spec("agg");
        let sid = router.register_spec(&s).unwrap();
        let log = log_of(&s);
        for _ in 0..4 {
            router.load_log(sid, &log).unwrap();
        }
        let per_shard = router.stats();
        let agg = ShardRouter::aggregate_stats(&per_shard);
        assert_eq!(agg.specs, 1, "specs are broadcast, not summed");
        assert_eq!(agg.runs, 4);
        assert_eq!(agg.steps, 8);
    }

    #[test]
    fn quota_table_sheds_past_the_in_flight_and_queue_caps() {
        let table = TenantQuotaTable::new(TenantQuotas {
            max_in_flight: 1,
            max_queue: 0,
            ..TenantQuotas::default()
        });
        // One permit in flight, zero queue: the second admit sheds.
        let p1 = table.admit("t1");
        assert!(p1.is_some());
        assert!(table.admit("t1").is_none(), "queue full: shed");
        assert!(table.admit("t2").is_some(), "caps are per tenant");
        drop(p1);
        assert!(table.admit("t1").is_some());
    }

    #[test]
    fn quota_table_is_bounded_against_tenant_churn() {
        let table = TenantQuotaTable::new(TenantQuotas {
            max_tenants: 4,
            ..TenantQuotas::default()
        });
        // Oversized names are refused outright.
        let huge = "t".repeat(MAX_TENANT_NAME_BYTES + 1);
        assert!(table.admit(&huge).is_none());
        assert_eq!(table.tenant_count(), 0);

        // Churning tenants never grows the table past the cap: idle
        // entries are evicted to make room.
        for i in 0..100 {
            let name = format!("churn-{i}");
            assert!(table.admit(&name).is_some(), "churned tenant {i} refused");
        }
        assert!(table.tenant_count() <= 4, "table grew without bound");

        // Busy tenants (a request in flight) are never evicted; once the
        // table is full of them, new tenants are refused.
        let mut held: Vec<_> = (0..4)
            .map(|i| table.admit(&format!("busy-{i}")).expect("room"))
            .collect();
        assert!(table.admit("one-too-many").is_none());
        assert_eq!(table.tenant_count(), 4);
        // Finishing one request makes room again.
        held.pop();
        assert!(table.admit("newcomer").is_some());
    }

    #[test]
    fn concurrent_registrations_agree_across_shards() {
        let router = Arc::new(ShardRouter::in_memory(4));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let router = Arc::clone(&router);
                std::thread::spawn(move || router.register_spec(&spec(&format!("conc-{t}"))))
            })
            .collect();
        let mut ids: Vec<SpecId> = threads
            .into_iter()
            .map(|h| h.join().unwrap().expect("registration succeeds"))
            .collect();
        ids.sort();
        ids.dedup();
        assert_eq!(
            ids.len(),
            8,
            "concurrent registrations assigned duplicate ids"
        );
        // Every shard resolves every name to the id the caller was told.
        for t in 0..8 {
            let name = format!("conc-{t}");
            let sid = router.spec_by_name(&name).unwrap();
            let ws = router.spec(sid).unwrap();
            assert_eq!(ws.name(), name);
        }
    }

    #[test]
    fn register_view_if_absent_is_idempotent() {
        let router = ShardRouter::in_memory(3);
        let s = spec("idem");
        let sid = router.register_spec(&s).unwrap();
        let admin = zoom_model::UserView::admin(&s);
        let first = router.register_view_if_absent(sid, &admin).unwrap();
        let second = router.register_view_if_absent(sid, &admin).unwrap();
        assert_eq!(first, second);
    }

    #[test]
    fn durable_router_rejects_shard_count_changes() {
        let dir = std::env::temp_dir().join(format!("zoomd-shards-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let router = ShardRouter::open_durable(&dir, 3).unwrap();
            let sid = router.register_spec(&spec("pinned")).unwrap();
            router.load_log(sid, &log_of(&spec("pinned"))).unwrap();
        }
        let err = ShardRouter::open_durable(&dir, 1).unwrap_err();
        assert!(
            err.to_string().contains("created with 3 shard(s)"),
            "expected a shard-count mismatch error, got: {err}"
        );
        // The stored count still opens fine.
        let reopened = ShardRouter::open_durable(&dir, 3).unwrap();
        assert_eq!(reopened.run_count(), 1);
        drop(reopened);
        // A legacy directory (no manifest) with shard dirs beyond the
        // requested count is refused rather than silently dropping runs.
        std::fs::remove_file(dir.join(SHARD_MANIFEST)).unwrap();
        let err = ShardRouter::open_durable(&dir, 2).unwrap_err();
        assert!(
            err.to_string().contains("shard-2"),
            "expected the extra shard dir to be reported, got: {err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_router_reopens_with_same_run_map() {
        let dir = std::env::temp_dir().join(format!("zoomd-wire-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = spec("durable");
        let log = log_of(&s);
        let (sid, vid, runs) = {
            let router = ShardRouter::open_durable(&dir, 3).unwrap();
            let sid = router.register_spec(&s).unwrap();
            let vid = router
                .register_view(sid, &zoom_model::UserView::admin(&s))
                .unwrap();
            let runs: Vec<RunId> = (0..5)
                .map(|_| router.load_log(sid, &log).unwrap())
                .collect();
            (sid, vid, runs)
        };
        let reopened = ShardRouter::open_durable(&dir, 3).unwrap();
        assert_eq!(reopened.run_count(), 5);
        for rid in runs {
            let deep = reopened.deep_provenance(rid, vid, DataId(3)).unwrap();
            assert_eq!(deep.tuples(), 3);
        }
        // Id sequences continue where they left off.
        let next = reopened.load_log(sid, &log).unwrap();
        assert_eq!(next, RunId(5));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantined_shard_refuses_writes_serves_reads_and_readmits() {
        let router = ShardRouter::in_memory(3);
        let s = spec("sup");
        let sid = router.register_spec(&s).unwrap();
        let vid = router
            .register_view(sid, &zoom_model::UserView::admin(&s))
            .unwrap();
        let log = log_of(&s);
        let loaded: Vec<RunId> = (0..6)
            .map(|_| router.load_log(sid, &log).unwrap())
            .collect();

        // Quarantine the shard the NEXT run would land on.
        let target = router.shard_of(RunId(router.run_count()));
        assert!(router.quarantine_shard(target));
        assert!(!router.quarantine_shard(target), "already quarantined");
        assert_eq!(router.shard_state(target), ShardState::Quarantined);

        // Writes to it answer the typed refusal; the dense allocator is
        // untouched, so the retry below assigns the same global id.
        let before = router.run_count();
        let err = router.load_log(sid, &log).unwrap_err();
        assert!(matches!(
            err,
            WarehouseError::ShardUnavailable { shard, retry_after_ms }
                if shard == target as u32 && retry_after_ms == DEFAULT_RETRY_AFTER_MS
        ));
        assert_eq!(router.run_count(), before, "refused load burned an id");

        // Broadcasts are refused while any shard is out of the pool.
        assert!(matches!(
            router.register_spec(&spec("other")).unwrap_err(),
            WarehouseError::ShardUnavailable { .. }
        ));

        // Reads keep serving from every shard, quarantined included.
        for rid in &loaded {
            let deep = router.deep_provenance(*rid, vid, DataId(3)).unwrap();
            assert_eq!(deep.tuples(), 3);
        }

        // Health overlays the supervisor state.
        let health = router.health();
        assert_eq!(health[target].state, ShardState::Quarantined);
        assert!(!health[target].writable);
        assert_eq!(health[target].quarantines, 1);

        // Memory shards repair trivially: no disk, nothing to fsck.
        let outcome = router.repair_shard(target).unwrap();
        assert_eq!(outcome.shard, target);
        assert!(outcome.fsck.is_none());
        assert_eq!(router.shard_state(target), ShardState::Healthy);
        assert_eq!(router.load_log(sid, &log).unwrap(), RunId(before));
        assert_eq!(router.health()[target].repairs, 1);
    }

    #[test]
    fn durable_shard_repairs_online_with_fsck_and_write_probe() {
        let dir = std::env::temp_dir().join(format!("zoomd-repair-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let faulty = Arc::new(crate::io::FaultFs::counting());
        let ios: Vec<Arc<dyn StorageIo>> = vec![
            Arc::new(RealFs),
            faulty.clone() as Arc<dyn StorageIo>,
            Arc::new(RealFs),
        ];
        let router =
            ShardRouter::open_durable_with(&dir, 3, DurableOptions::default(), &ios).unwrap();
        let s = spec("repair");
        let sid = router.register_spec(&s).unwrap();
        let vid = router
            .register_view(sid, &zoom_model::UserView::admin(&s))
            .unwrap();
        let log = log_of(&s);
        let loaded: Vec<RunId> = (0..6)
            .map(|_| router.load_log(sid, &log).unwrap())
            .collect();

        // Sicken shard 1's disk and quarantine it.
        faulty.arm_failures(u64::MAX, false);
        assert!(router.quarantine_shard(1));

        // Repair must FAIL while the disk still rejects writes: fsck and
        // journal replay are read-only, so only the write probe can tell.
        assert!(router.repair_shard(1).is_err());
        assert_eq!(router.shard_state(1), ShardState::Quarantined);

        // Heal the disk; the retried repair fscks, replays, probes, swaps.
        faulty.heal();
        let outcome = router.repair_shard(1).unwrap();
        let report = outcome.fsck.expect("durable repair carries an fsck report");
        assert_eq!(report.torn_bytes, 0);
        assert_eq!(router.shard_state(1), ShardState::Healthy);

        // The swapped-in shard answers byte-identically and takes writes.
        for rid in &loaded {
            let deep = router.deep_provenance(*rid, vid, DataId(3)).unwrap();
            assert_eq!(deep.tuples(), 3);
        }
        router.load_log(sid, &log).unwrap();
        let health = router.health();
        assert_eq!(health[1].repairs, 1);
        assert!(health[1].last_repair_nanos > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_setting_changed_during_a_repair_survives_the_swap() {
        let dir = std::env::temp_dir().join(format!("zoomd-resettle-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let slow = Arc::new(crate::io::FaultFs::counting());
        let ios: Vec<Arc<dyn StorageIo>> = vec![Arc::new(RealFs), slow.clone()];
        let router =
            ShardRouter::open_durable_with(&dir, 2, DurableOptions::default(), &ios).unwrap();
        router.register_spec(&spec("resettle")).unwrap();

        // Every write of shard 1 now sleeps, so its repair sits in the
        // rebuild's write probe; a write op counted after the repair
        // started proves it is past the barrier that captured settings.
        slow.set_write_latency(std::time::Duration::from_millis(100));
        let writes = slow.ops();
        std::thread::scope(|s| {
            let repair = s.spawn(|| router.repair_shard(1));
            while slow.ops() == writes {
                std::thread::yield_now();
            }
            router.set_slow_query_threshold_nanos(0);
            {
                let mut guard = lock(&router.shards[1]);
                guard.warehouse().set_index_backend(Some(IndexBackend::Bfs));
                if let Backing::Durable(dw) = &mut *guard {
                    dw.set_admission_limits(3, 5);
                }
            }
            repair.join().unwrap().unwrap();
        });
        assert_eq!(router.metrics()[1].slow_query_threshold_nanos, 0);
        let guard = lock(&router.shards[1]);
        let wh = guard.warehouse();
        assert_eq!(wh.index_backend(), Some(IndexBackend::Bfs));
        assert_eq!(
            (wh.admission().max_in_flight(), wh.admission().max_queue()),
            (3, 5)
        );
        drop(guard);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn supervise_once_tracks_breaker_state() {
        let dir = std::env::temp_dir().join(format!("zoomd-supervise-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let faulty = Arc::new(crate::io::FaultFs::counting());
        let ios: Vec<Arc<dyn StorageIo>> = vec![faulty.clone() as Arc<dyn StorageIo>];
        let mut options = DurableOptions::default();
        options.retry.max_attempts = 1;
        let router = ShardRouter::open_durable_with(&dir, 1, options, &ios).unwrap();
        let s = spec("breaker");
        let sid = router.register_spec(&s).unwrap();
        let log = log_of(&s);
        router.load_log(sid, &log).unwrap();
        assert_eq!(router.supervise_once(), vec![ShardState::Healthy]);

        // Enough sticky failures to trip the breaker flag the shard
        // Degraded — still in the write path (the breaker stays the
        // authority on admission) but visible to the supervisor.
        faulty.arm_failures(u64::MAX, false);
        for _ in 0..DurableOptions::default().breaker_threshold {
            let _ = router.load_log(sid, &log);
        }
        assert_eq!(router.supervise_once(), vec![ShardState::Degraded]);
        faulty.heal();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

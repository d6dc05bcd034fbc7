//! The unified crash-safe store: snapshot + journal behind a manifest.
//!
//! [`crate::persist`] gives whole-warehouse snapshots; [`crate::journal`]
//! gives incremental appends. A real deployment needs both at once —
//! snapshots bound recovery time, the journal makes every mutation durable
//! as it happens — plus an *atomic* way to switch between generations of
//! the pair. [`DurableWarehouse`] composes them inside one directory:
//!
//! ```text
//! <dir>/MANIFEST            current epoch + file names (the commit point)
//! <dir>/snap-000007.zoomwh  snapshot of everything up to epoch 7
//! <dir>/wal-000007.zoomwj   journal tail of mutations since that snapshot
//! ```
//!
//! `open` recovers snapshot-then-tail; every write is accepted, appended
//! to the tail, and only then committed to memory, so a failed append
//! leaves nothing to undo. When the tail outgrows
//! [`DurableOptions::compact_threshold_bytes`], the store compacts: write
//! `snap-{e+1}`, start an empty `wal-{e+1}`, fsync both, atomically swing
//! `MANIFEST` to the new generation, then best-effort remove the old one.
//! A crash at *any* point leaves either the old generation (manifest not
//! yet swung) or the new one (swung) fully intact; leftovers of the other
//! are strays, cleaned on the next open.
//!
//! Replay takes the live path and is id-checked: each journaled record
//! carries the id it was assigned, and accepting it again over the
//! recovered snapshot must assign the same id — the proof that the tail
//! really continues that snapshot.

use crate::io::{RealFs, StorageIo};
use crate::journal::{self, JournalError, ReplayOutcome};
use crate::metrics::{Counter, Hist, MetricsRegistry};
use crate::op::{expect_answer, Answer, Store};
use crate::persist::{self, PersistError};
use crate::resilience::{CircuitBreaker, HealthReport, RetryPolicy};
use crate::schema::{RunId, SpecId, ViewId, WarehouseStats};
use crate::store::{Accepted, Settings, Warehouse, WarehouseError, Write};
use crate::stream::PushOutcome;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use zoom_model::{EventLog, LogEvent, UserView, WorkflowRun, WorkflowSpec};

/// Magic bytes identifying a warehouse manifest.
pub const MANIFEST_MAGIC: &[u8; 8] = b"ZOOMWM\x00\x01";

/// File name of the manifest inside a durable directory.
pub const MANIFEST: &str = "MANIFEST";

fn snap_name(epoch: u64) -> String {
    format!("snap-{epoch:06}.zoomwh")
}

fn wal_name(epoch: u64) -> String {
    format!("wal-{epoch:06}.zoomwj")
}

/// Errors from the durable store.
#[derive(Debug)]
pub enum DurableError {
    /// Filesystem error.
    Io(std::io::Error),
    /// Snapshot save/load error.
    Persist(PersistError),
    /// Journal append/replay error.
    Journal(JournalError),
    /// Warehouse-level rejection (invalid spec/view/run, unknown ids).
    Warehouse(WarehouseError),
    /// The manifest is missing, unreadable, or names impossible state.
    BadManifest(String),
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Io(e) => write!(f, "io error: {e}"),
            DurableError::Persist(e) => write!(f, "snapshot error: {e}"),
            DurableError::Journal(e) => write!(f, "journal error: {e}"),
            DurableError::Warehouse(e) => write!(f, "warehouse error: {e}"),
            DurableError::BadManifest(m) => write!(f, "bad manifest: {m}"),
        }
    }
}

impl std::error::Error for DurableError {}

impl From<std::io::Error> for DurableError {
    fn from(e: std::io::Error) -> Self {
        DurableError::Io(e)
    }
}

impl From<PersistError> for DurableError {
    fn from(e: PersistError) -> Self {
        DurableError::Persist(e)
    }
}

impl From<JournalError> for DurableError {
    fn from(e: JournalError) -> Self {
        // Unbox warehouse-level rejections so callers see them uniformly.
        match e {
            JournalError::Warehouse(we) => DurableError::Warehouse(we),
            other => DurableError::Journal(other),
        }
    }
}

impl From<WarehouseError> for DurableError {
    fn from(e: WarehouseError) -> Self {
        DurableError::Warehouse(e)
    }
}

/// Unboxes warehouse-level rejections, so a durable backend renders them
/// exactly as the in-memory one does; genuine durability failures (io,
/// torn snapshots, bad manifests) become [`WarehouseError::Durability`].
impl From<DurableError> for WarehouseError {
    fn from(e: DurableError) -> Self {
        match e {
            DurableError::Warehouse(we) => we,
            other => WarehouseError::Durability(Box::new(other)),
        }
    }
}

/// Tuning knobs for [`DurableWarehouse`].
#[derive(Clone, Copy, Debug)]
pub struct DurableOptions {
    /// Journal-tail size (payload bytes past the magic header) above which
    /// a mutation triggers auto-compaction.
    pub compact_threshold_bytes: u64,
    /// Whether mutations compact automatically when the tail exceeds the
    /// threshold. With `false`, only explicit [`DurableWarehouse::checkpoint`]
    /// calls compact.
    pub auto_compact: bool,
    /// Retry policy applied to transient journal-append and checkpoint IO
    /// failures. [`RetryPolicy::none`] disables retrying.
    pub retry: RetryPolicy,
    /// Consecutive *permanent* journal-append failures that trip the write
    /// circuit breaker into degraded read-only mode (clamped to at least 1).
    pub breaker_threshold: u32,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions {
            compact_threshold_bytes: 1 << 20, // 1 MiB
            auto_compact: true,
            retry: RetryPolicy::default(),
            breaker_threshold: 3,
        }
    }
}

/// The manifest names the live generation. Writing it (atomic rename) is
/// the commit point of a compaction.
#[derive(Serialize, Deserialize, Debug, Clone, PartialEq, Eq)]
struct Manifest {
    epoch: u64,
    /// Snapshot file name, `None` until the first compaction.
    snapshot: Option<String>,
    /// Journal-tail file name.
    journal: String,
}

fn encode_manifest(m: &Manifest) -> Result<Vec<u8>, DurableError> {
    let payload = crate::codec::to_bytes(m).map_err(|e| DurableError::Persist(e.into()))?;
    let mut bytes = Vec::with_capacity(MANIFEST_MAGIC.len() + 8 + payload.len());
    bytes.extend_from_slice(MANIFEST_MAGIC);
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&journal::crc32(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);
    Ok(bytes)
}

fn decode_manifest(bytes: &[u8]) -> Result<Manifest, DurableError> {
    let head = MANIFEST_MAGIC.len();
    if bytes.len() < head + 8 || &bytes[..head] != MANIFEST_MAGIC {
        return Err(DurableError::BadManifest("bad magic".into()));
    }
    let len = u32::from_le_bytes(bytes[head..head + 4].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_le_bytes(bytes[head + 4..head + 8].try_into().expect("4 bytes"));
    let payload = bytes
        .get(head + 8..head + 8 + len)
        .ok_or_else(|| DurableError::BadManifest("truncated".into()))?;
    if journal::crc32(payload) != crc {
        return Err(DurableError::BadManifest("crc mismatch".into()));
    }
    crate::codec::from_bytes(payload).map_err(|e| DurableError::Persist(e.into()))
}

/// Recovers the generation `manifest` names: its snapshot, then its
/// journal tail replayed over it. Returns the warehouse, what replay
/// found, and the length of the journal body; the body past `valid_end`
/// is a torn tail.
fn recover(
    io: &dyn StorageIo,
    dir: &Path,
    manifest: &Manifest,
) -> Result<(Warehouse, ReplayOutcome, usize), DurableError> {
    let mut w = match &manifest.snapshot {
        Some(name) => persist::load_with(io, &dir.join(name))?,
        None => Warehouse::new(),
    };
    let bytes = io.read(&dir.join(&manifest.journal))?;
    let Some(body) = bytes.strip_prefix(&journal::MAGIC[..]) else {
        return Err(DurableError::BadManifest(format!(
            "journal `{}` has a bad header",
            manifest.journal
        )));
    };
    // The tail continues the snapshot: replayed ids must match.
    let outcome = journal::replay_body(&mut w, body)?;
    Ok((w, outcome, body.len()))
}

/// Runs one durable IO step under `retry`, retrying transient filesystem
/// errors (wherever they surface in the [`DurableError`] tree) with
/// backoff. The original error is preserved on exhaustion.
fn retry_step<T>(
    retry: RetryPolicy,
    registry: &MetricsRegistry,
    mut op: impl FnMut() -> Result<T, DurableError>,
) -> Result<T, DurableError> {
    let mut stash: Option<DurableError> = None;
    retry
        .run(
            || registry.add(Counter::IoRetries, 1),
            || match op() {
                Ok(v) => Ok(v),
                Err(err) => {
                    let kind = match &err {
                        DurableError::Io(e) => Some(e.kind()),
                        DurableError::Persist(PersistError::Io(e)) => Some(e.kind()),
                        _ => None,
                    };
                    stash = Some(err);
                    // Non-IO failures surface as a permanent kind so the
                    // policy never retries them.
                    Err(std::io::Error::from(
                        kind.unwrap_or(std::io::ErrorKind::Other),
                    ))
                }
            },
        )
        .map_err(|e| stash.take().unwrap_or(DurableError::Io(e)))
}

/// Writes the manifest atomically: unique temp file, fsync, rename over
/// `MANIFEST`, fsync the directory. The rename is the commit point.
fn write_manifest(io: &dyn StorageIo, dir: &Path, m: &Manifest) -> Result<(), DurableError> {
    let target = dir.join(MANIFEST);
    let tmp = crate::io::unique_temp_path(&target);
    io.write(&tmp, &encode_manifest(m)?)?;
    if let Err(e) = io.rename(&tmp, &target) {
        let _ = io.remove_file(&tmp);
        return Err(e.into());
    }
    crate::io::sync_parent(io, &target)?;
    Ok(())
}

/// A crash-safe warehouse in one directory: snapshot + journal tail behind
/// a manifest, with automatic compaction.
///
/// ```
/// use zoom_warehouse::DurableWarehouse;
/// use zoom_model::SpecBuilder;
/// let mut dir = std::env::temp_dir();
/// dir.push(format!("zoom-durable-doc-{}", std::process::id()));
///
/// let mut b = SpecBuilder::new("doc");
/// b.analysis("A");
/// b.from_input("A").to_output("A");
/// let spec = b.build().unwrap();
///
/// let mut dw = DurableWarehouse::open(&dir).unwrap();
/// dw.register_spec(spec).unwrap();
/// drop(dw); // crash or exit: the record is already durable
///
/// let recovered = DurableWarehouse::open(&dir).unwrap();
/// assert_eq!(recovered.warehouse().stats().specs, 1);
/// # std::fs::remove_dir_all(&dir).ok();
/// ```
pub struct DurableWarehouse {
    io: Arc<dyn StorageIo>,
    dir: PathBuf,
    inner: Warehouse,
    epoch: u64,
    snapshot: Option<String>,
    journal: String,
    /// `dir` joined with `journal`: where every write is appended.
    journal_path: PathBuf,
    journal_bytes: u64,
    journal_records: u64,
    compactions: u64,
    failed_compactions: u64,
    breaker: CircuitBreaker,
    options: DurableOptions,
}

impl fmt::Debug for DurableWarehouse {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DurableWarehouse")
            .field("dir", &self.dir)
            .field("epoch", &self.epoch)
            .field("journal_records", &self.journal_records)
            .field("journal_bytes", &self.journal_bytes)
            .field("compactions", &self.compactions)
            .finish_non_exhaustive()
    }
}

impl DurableWarehouse {
    /// Opens (or initializes) a durable warehouse in `dir` with default
    /// options.
    pub fn open(dir: &Path) -> Result<Self, DurableError> {
        Self::open_with(Arc::new(RealFs), dir, DurableOptions::default())
    }

    /// [`DurableWarehouse::open`] with explicit options.
    pub fn open_opts(dir: &Path, options: DurableOptions) -> Result<Self, DurableError> {
        Self::open_with(Arc::new(RealFs), dir, options)
    }

    /// Opens on an explicit storage backend. Recovery sequence:
    ///
    /// 1. no `MANIFEST` → initialize: empty `wal-000000`, then the manifest
    ///    (crash in between re-initializes next time — nothing committed);
    /// 2. load the manifest's snapshot (if any);
    /// 3. replay the journal tail over it with id checking, truncating a
    ///    torn final record;
    /// 4. best-effort removal of stray generation files the manifest does
    ///    not name (leftovers of a crashed compaction).
    pub fn open_with(
        io: Arc<dyn StorageIo>,
        dir: &Path,
        options: DurableOptions,
    ) -> Result<Self, DurableError> {
        io.create_dir_all(dir)?;
        let manifest_path = dir.join(MANIFEST);
        if !io.exists(&manifest_path) {
            // Fresh init. Journal first, manifest last: until the manifest
            // exists, nothing is committed and reopen re-initializes.
            let wal = wal_name(0);
            io.write(&dir.join(&wal), journal::MAGIC)?;
            io.sync_dir(dir)?;
            write_manifest(
                &*io,
                dir,
                &Manifest {
                    epoch: 0,
                    snapshot: None,
                    journal: wal.clone(),
                },
            )?;
            let mut dw = DurableWarehouse {
                io,
                dir: dir.to_path_buf(),
                inner: Warehouse::new(),
                epoch: 0,
                snapshot: None,
                journal_path: dir.join(&wal),
                journal: wal,
                journal_bytes: 0,
                journal_records: 0,
                compactions: 0,
                failed_compactions: 0,
                breaker: CircuitBreaker::new(options.breaker_threshold),
                options,
            };
            dw.clean_strays();
            return Ok(dw);
        }

        let manifest = decode_manifest(&io.read(&manifest_path)?)?;
        let (inner, ReplayOutcome { records, valid_end }, body_len) =
            recover(&*io, dir, &manifest)?;
        if valid_end < body_len {
            let keep = (journal::MAGIC.len() + valid_end) as u64;
            io.set_len(&dir.join(&manifest.journal), keep)?;
        }
        let mut dw = DurableWarehouse {
            io,
            dir: dir.to_path_buf(),
            inner,
            epoch: manifest.epoch,
            snapshot: manifest.snapshot,
            journal_path: dir.join(&manifest.journal),
            journal: manifest.journal,
            journal_bytes: valid_end as u64,
            journal_records: records as u64,
            compactions: 0,
            failed_compactions: 0,
            breaker: CircuitBreaker::new(options.breaker_threshold),
            options,
        };
        dw.clean_strays();
        Ok(dw)
    }

    /// Removes generation files the manifest does not name — leftovers of
    /// a compaction that crashed before (new files) or after (old files)
    /// the manifest swing, plus orphaned temp files. Best-effort: failures
    /// are ignored; strays are inert until the next open retries.
    fn clean_strays(&mut self) {
        let Ok(names) = self.io.list_dir(&self.dir) else {
            return;
        };
        for name in names {
            if name == MANIFEST || Some(&name) == self.snapshot.as_ref() || name == self.journal {
                continue;
            }
            let generation = name.starts_with("snap-") || name.starts_with("wal-");
            if generation || name.ends_with(".tmp") {
                let _ = self.io.remove_file(&self.dir.join(&name));
            }
        }
    }

    /// Rejects the write up front when the breaker is open: degraded
    /// read-only mode fails writes fast, before they are even accepted.
    fn check_writable(&mut self) -> Result<(), DurableError> {
        if self.breaker.is_open() {
            self.inner
                .metrics_registry()
                .add(Counter::DegradedWritesRejected, 1);
            return Err(DurableError::Warehouse(WarehouseError::Degraded));
        }
        Ok(())
    }

    fn append(&mut self, rec: &Accepted) -> Result<(), DurableError> {
        let frame = journal::encode_frame(rec)?;
        let started = std::time::Instant::now();
        let registry = self.inner.metrics_registry();
        let outcome = self.options.retry.run(
            || registry.add(Counter::IoRetries, 1),
            || self.io.append(&self.journal_path, &frame),
        );
        match outcome {
            Ok(()) => {
                self.breaker.record_success();
                registry.record_journal_append(started.elapsed().as_nanos() as u64);
                self.journal_bytes += frame.len() as u64;
                self.journal_records += 1;
                Ok(())
            }
            Err(e) => {
                if self.breaker.record_failure() {
                    registry.add(Counter::BreakerTrips, 1);
                }
                Err(e.into())
            }
        }
    }

    /// Compacts after a committed mutation if the tail outgrew the
    /// threshold. The mutation is already durable, so a failed compaction
    /// is counted but never surfaced as the mutation's error. Live streams
    /// ride along in the snapshot, so the tail a reopen replays stays
    /// near the threshold however long a stream lives.
    fn maybe_compact(&mut self) {
        if self.options.auto_compact
            && self.journal_bytes > self.options.compact_threshold_bytes
            && self.checkpoint().is_err()
        {
            self.failed_compactions += 1;
        }
    }

    /// Registers a specification, durably.
    pub fn register_spec(&mut self, spec: WorkflowSpec) -> Result<SpecId, DurableError> {
        self.put(Write::Spec(spec)).map(expect_answer)
    }

    /// Registers a view, durably.
    pub fn register_view(&mut self, spec: SpecId, view: UserView) -> Result<ViewId, DurableError> {
        self.put(Write::View(spec, view)).map(expect_answer)
    }

    /// Loads a run, durably.
    pub fn load_run(&mut self, spec: SpecId, run: WorkflowRun) -> Result<RunId, DurableError> {
        self.put(Write::Run(spec, run)).map(expect_answer)
    }

    /// Ingests an event log, durably (journals the reconstructed run).
    pub fn load_log(&mut self, spec: SpecId, log: &EventLog) -> Result<RunId, DurableError> {
        self.put(Write::Log(spec, log)).map(expect_answer)
    }

    /// Opens a streaming run, durably. The stream's events are journaled
    /// one by one; a checkpoint, explicit or automatic, snapshots the
    /// stream as it stands (its prefix run and its bookkeeping), and the
    /// stream goes on over the new journal.
    pub fn begin_stream(&mut self, spec: SpecId) -> Result<RunId, DurableError> {
        self.put(Write::Begin(spec)).map(expect_answer)
    }

    /// Pushes one streaming event, durably: an acknowledged event is on
    /// disk before memory moves, so it survives any crash.
    pub fn stream_push(
        &mut self,
        run: RunId,
        event: &LogEvent,
    ) -> Result<PushOutcome, DurableError> {
        self.put(Write::Push(run, event)).map(expect_answer)
    }

    /// Seals a streaming run, durably; the sealed run behaves like a
    /// batch-loaded one from then on.
    pub fn stream_seal(&mut self, run: RunId) -> Result<(), DurableError> {
        self.put(Write::Seal(run)).map(expect_answer)
    }

    /// The one durable write sequence: refuse when degraded, accept
    /// (read-only), journal the accepted write, commit it, then compact
    /// if the tail outgrew its threshold. The record is encoded from the
    /// accepted write before its rows move into the tables, and a failed
    /// append leaves memory as it was.
    pub(crate) fn put(&mut self, write: Write<'_>) -> Result<Answer, DurableError> {
        self.check_writable()?;
        let accepted = self.inner.accept(write)?;
        self.append(&accepted)?;
        let answer = self.inner.commit(accepted);
        self.maybe_compact();
        Ok(answer)
    }

    /// Compacts now: snapshot the full state as epoch `e+1`, start an
    /// empty journal, and atomically swing the manifest.
    ///
    /// Ordering (each step fsynced before the next):
    /// 1. write `snap-{e+1}` (temp + rename + dir fsync);
    /// 2. create empty `wal-{e+1}`, fsync the directory;
    /// 3. rewrite `MANIFEST` atomically — **the commit point**;
    /// 4. best-effort removal of the old generation (failures leave strays
    ///    for the next open).
    ///
    /// A crash before step 3 leaves the old generation live (new files are
    /// strays); after it, the new generation is live.
    ///
    /// When the write breaker is open, a checkpoint doubles as the
    /// half-open probe: success rewrites the snapshot from memory — disk
    /// provably matches memory again — so the breaker closes and the store
    /// leaves degraded mode; failure re-opens it.
    ///
    /// Live streams do not hold a checkpoint up: the snapshot carries each
    /// one's prefix run and bookkeeping, and a reopen resumes it there.
    pub fn checkpoint(&mut self) -> Result<(), DurableError> {
        let started = std::time::Instant::now();
        let probing = self.breaker.is_open();
        if probing {
            self.breaker.begin_probe();
        }
        let epoch = self.epoch + 1;
        let snap = snap_name(epoch);
        let wal = wal_name(epoch);
        if let Err(e) = self.write_generation(&snap, &wal, epoch) {
            if probing {
                // The probe failed: back to open, not a fresh trip.
                self.breaker.record_failure();
            }
            return Err(e);
        }
        if self.breaker.record_success() {
            self.inner
                .metrics_registry()
                .add(Counter::BreakerRecoveries, 1);
        }
        // Committed. The old generation is now garbage.
        let _ = self.io.remove_file(&self.journal_path);
        if let Some(old) = &self.snapshot {
            if *old != snap {
                let _ = self.io.remove_file(&self.dir.join(old));
            }
        }
        self.epoch = epoch;
        self.snapshot = Some(snap);
        self.journal_path = self.dir.join(&wal);
        self.journal = wal;
        self.journal_bytes = 0;
        self.journal_records = 0;
        self.compactions += 1;
        self.inner
            .metrics_registry()
            .observe(Hist::Checkpoint, started.elapsed().as_nanos() as u64);
        Ok(())
    }

    /// The checkpoint's IO sequence up to and including the manifest swing
    /// (the commit point), each step retried on transient errors.
    fn write_generation(&self, snap: &str, wal: &str, epoch: u64) -> Result<(), DurableError> {
        let retry = self.options.retry;
        let registry = self.inner.metrics_registry();
        retry_step(retry, registry, || {
            persist::save_with(&*self.io, &self.inner, &self.dir.join(snap)).map_err(Into::into)
        })?;
        retry_step(retry, registry, || {
            self.io
                .write(&self.dir.join(wal), journal::MAGIC)
                .map_err(Into::into)
        })?;
        retry_step(retry, registry, || {
            self.io.sync_dir(&self.dir).map_err(Into::into)
        })?;
        retry_step(retry, registry, || {
            write_manifest(
                &*self.io,
                &self.dir,
                &Manifest {
                    epoch,
                    snapshot: Some(snap.to_string()),
                    journal: wal.to_string(),
                },
            )
        })
    }

    /// Rebuilds the store in `dir` for an online repair: fsck the
    /// directory, replay manifest + snapshot + journal into a fresh store
    /// on the same `io` (fresh breaker, retry state and metrics counters),
    /// give it the old store's `settings`, and checkpoint it as a write
    /// probe — recovery alone may need no writes, and a repair must not
    /// declare a dead disk healthy. The caller swaps the fresh store in.
    pub fn rebuild(
        io: Arc<dyn StorageIo>,
        dir: &Path,
        options: DurableOptions,
        settings: Settings,
    ) -> Result<(FsckReport, Self), DurableError> {
        let report = fsck_with(&*io, dir)?;
        let mut fresh = Self::open_with(io, dir, options)?;
        fresh.set_settings(settings);
        fresh.checkpoint()?;
        Ok((report, fresh))
    }

    /// Takes over runtime `settings` captured from another store.
    pub(crate) fn set_settings(&mut self, settings: Settings) {
        self.inner.set_settings(settings);
    }

    /// Read access to the recovered/live warehouse.
    pub fn warehouse(&self) -> &Warehouse {
        &self.inner
    }

    /// Rebuilds the inner warehouse's admission control with new limits
    /// (the one configuration mutation that is safe on a durable store —
    /// it touches no journaled state).
    pub fn set_admission_limits(&mut self, max_in_flight: usize, max_queue: usize) {
        self.inner.set_admission_limits(max_in_flight, max_queue);
    }

    /// The durable directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The storage backend this store opened on. The supervisor's online
    /// repair re-opens a fresh store on the *same* backend so armed fault
    /// schedules (tests) and real disks (production) behave identically.
    pub fn io(&self) -> Arc<dyn StorageIo> {
        Arc::clone(&self.io)
    }

    /// The options this store opened with (repair reopens with the same).
    pub fn options(&self) -> DurableOptions {
        self.options
    }

    /// Current durability epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Compactions performed since this handle opened (auto + explicit).
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Auto-compactions that failed since this handle opened (the
    /// triggering mutations were already durable, so they still succeeded).
    pub fn failed_compactions(&self) -> u64 {
        self.failed_compactions
    }

    /// Warehouse statistics with the durability counters filled in.
    pub fn stats(&self) -> WarehouseStats {
        let mut s = self.inner.stats();
        s.journal_records = self.journal_records;
        s.journal_bytes = self.journal_bytes;
        s.compactions = self.compactions;
        s.epoch = self.epoch;
        s.degraded = self.breaker.is_open();
        s
    }

    /// Whether the write circuit breaker has the store in degraded
    /// read-only mode (mutations fail fast; queries keep serving).
    pub fn degraded(&self) -> bool {
        self.breaker.is_open()
    }

    /// A point-in-time health report: breaker state plus the lifetime
    /// resilience counters from the metrics registry.
    pub fn health(&self) -> HealthReport {
        let registry = self.inner.metrics_registry();
        HealthReport {
            writable: !self.breaker.is_open(),
            breaker: self.breaker.state(),
            consecutive_failures: self.breaker.consecutive_failures(),
            breaker_trips: registry.get(Counter::BreakerTrips),
            breaker_recoveries: registry.get(Counter::BreakerRecoveries),
            io_retries: registry.get(Counter::IoRetries),
            degraded_writes_rejected: registry.get(Counter::DegradedWritesRejected),
            durable: true,
            state: if self.breaker.is_open() {
                crate::resilience::ShardState::Degraded
            } else {
                crate::resilience::ShardState::Healthy
            },
            epoch: self.epoch,
            quarantines: registry.get(Counter::Quarantines),
            repairs: registry.get(Counter::Repairs),
            last_repair_nanos: 0,
        }
    }
}

/// The storage behind a facade: a plain in-memory warehouse or a
/// crash-safe [`DurableWarehouse`] directory. The `Zoom` facade holds one,
/// and so does each shard of a [`ShardRouter`](crate::wire::ShardRouter).
#[derive(Debug)]
pub enum Backing {
    /// In-memory warehouse.
    Memory(Box<Warehouse>),
    /// Durable warehouse directory.
    Durable(Box<DurableWarehouse>),
}

impl Backing {
    /// The tables reads are answered from.
    #[inline]
    pub fn warehouse(&self) -> &Warehouse {
        match self {
            Backing::Memory(w) => w,
            Backing::Durable(dw) => dw.warehouse(),
        }
    }

    /// The store ops are applied to (journaled when durable).
    pub fn store(&mut self) -> &mut dyn Store {
        match self {
            Backing::Memory(w) => w.as_mut(),
            Backing::Durable(dw) => dw.as_mut(),
        }
    }

    /// Warehouse statistics; a durable store fills in the journal and
    /// compaction counters.
    pub fn stats(&self) -> WarehouseStats {
        match self {
            Backing::Memory(w) => w.stats(),
            Backing::Durable(dw) => dw.stats(),
        }
    }

    /// Write availability, breaker state and the resilience counters. An
    /// in-memory store is always healthy and writable.
    pub fn health(&self) -> HealthReport {
        match self {
            Backing::Memory(_) => HealthReport::in_memory(),
            Backing::Durable(dw) => dw.health(),
        }
    }

    /// Whether the write breaker has a durable store in degraded
    /// read-only mode; never for an in-memory store.
    pub fn degraded(&self) -> bool {
        match self {
            Backing::Memory(_) => false,
            Backing::Durable(dw) => dw.degraded(),
        }
    }

    /// Compacts a durable store ([`DurableWarehouse::checkpoint`]) and
    /// returns `true`; an in-memory store has nothing to compact and
    /// returns `false`.
    pub fn checkpoint(&mut self) -> Result<bool, WarehouseError> {
        match self {
            Backing::Memory(_) => Ok(false),
            Backing::Durable(dw) => {
                dw.checkpoint()?;
                Ok(true)
            }
        }
    }
}

/// What [`fsck`] found in a durable directory.
#[derive(Debug, Clone)]
pub struct FsckReport {
    /// Manifest epoch.
    pub epoch: u64,
    /// Snapshot file named by the manifest, if any.
    pub snapshot: Option<String>,
    /// Journal file named by the manifest.
    pub journal: String,
    /// Specifications recovered.
    pub specs: usize,
    /// Views recovered.
    pub views: usize,
    /// Runs recovered.
    pub runs: usize,
    /// Intact journal-tail records.
    pub journal_records: usize,
    /// Bytes of torn tail past the last intact record (0 on a clean
    /// shutdown).
    pub torn_bytes: u64,
    /// Generation/temp files the manifest does not name.
    pub strays: Vec<String>,
}

impl fmt::Display for FsckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "epoch:           {}", self.epoch)?;
        writeln!(
            f,
            "snapshot:        {}",
            self.snapshot.as_deref().unwrap_or("(none)")
        )?;
        writeln!(f, "journal:         {}", self.journal)?;
        writeln!(f, "journal records: {}", self.journal_records)?;
        writeln!(f, "torn bytes:      {}", self.torn_bytes)?;
        writeln!(
            f,
            "state:           {} specs, {} views, {} runs",
            self.specs, self.views, self.runs
        )?;
        if self.strays.is_empty() {
            write!(f, "strays:          (none)")
        } else {
            write!(f, "strays:          {}", self.strays.join(", "))
        }
    }
}

/// Verifies a durable directory without modifying it: checks the manifest,
/// loads and validates the snapshot, replays the journal tail with id
/// checking, and reports torn bytes and stray files.
pub fn fsck(dir: &Path) -> Result<FsckReport, DurableError> {
    fsck_with(&RealFs, dir)
}

/// [`fsck`] on an explicit storage backend.
pub fn fsck_with(io: &dyn StorageIo, dir: &Path) -> Result<FsckReport, DurableError> {
    let manifest = decode_manifest(&io.read(&dir.join(MANIFEST))?)?;
    let (w, outcome, body_len) = recover(io, dir, &manifest)?;
    let mut strays = Vec::new();
    if let Ok(names) = io.list_dir(dir) {
        for name in names {
            if name == MANIFEST
                || Some(&name) == manifest.snapshot.as_ref()
                || name == manifest.journal
            {
                continue;
            }
            if name.starts_with("snap-") || name.starts_with("wal-") || name.ends_with(".tmp") {
                strays.push(name);
            }
        }
    }
    let stats = w.stats();
    Ok(FsckReport {
        epoch: manifest.epoch,
        snapshot: manifest.snapshot,
        journal: manifest.journal,
        specs: stats.specs,
        views: stats.views,
        runs: stats.runs,
        journal_records: outcome.records,
        torn_bytes: (body_len - outcome.valid_end) as u64,
        strays,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::FaultFs;
    use crate::journal::JournalRecord;
    use crate::resilience::RetryPolicy;
    use crate::schema::SpecRow;
    use zoom_model::{DataId, RunBuilder, SpecBuilder};

    fn tempdir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("zoom-durable-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&p).ok();
        p
    }

    fn spec() -> WorkflowSpec {
        let mut b = SpecBuilder::new("d");
        b.analysis("A");
        b.analysis("B");
        b.from_input("A").edge("A", "B").to_output("B");
        b.build().unwrap()
    }

    fn run(s: &WorkflowSpec) -> WorkflowRun {
        let mut rb = RunBuilder::new(s);
        let s1 = rb.step(s.module("A").unwrap());
        let s2 = rb.step(s.module("B").unwrap());
        rb.input_edge(s1, [1])
            .data_edge(s1, s2, [2])
            .output_edge(s2, [3]);
        rb.build().unwrap()
    }

    #[test]
    fn fresh_open_initializes_and_reopens() {
        let dir = tempdir("fresh");
        let dw = DurableWarehouse::open(&dir).unwrap();
        assert_eq!(dw.epoch(), 0);
        assert!(dir.join(MANIFEST).exists());
        assert!(dir.join(wal_name(0)).exists());
        drop(dw);
        let dw = DurableWarehouse::open(&dir).unwrap();
        assert_eq!(dw.epoch(), 0);
        assert_eq!(dw.warehouse().stats().specs, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mutations_survive_reopen() {
        let dir = tempdir("survive");
        let s = spec();
        {
            let mut dw = DurableWarehouse::open(&dir).unwrap();
            let sid = dw.register_spec(s.clone()).unwrap();
            dw.register_view(sid, UserView::admin(&s)).unwrap();
            dw.load_run(sid, run(&s)).unwrap();
            assert_eq!(dw.stats().journal_records, 3);
        }
        let dw = DurableWarehouse::open(&dir).unwrap();
        let st = dw.stats();
        assert_eq!((st.specs, st.views, st.runs), (1, 1, 1));
        assert_eq!(st.journal_records, 3);
        assert_eq!(st.epoch, 0);
        let w = dw.warehouse();
        let sid = w.spec_by_name("d").unwrap();
        let vid = w.find_view(sid, "UAdmin").unwrap();
        let rid = w.runs_of_spec(sid)[0];
        assert_eq!(w.deep_provenance(rid, vid, DataId(3)).unwrap().tuples(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_swings_the_generation() {
        let dir = tempdir("checkpoint");
        let s = spec();
        let mut dw = DurableWarehouse::open(&dir).unwrap();
        let sid = dw.register_spec(s.clone()).unwrap();
        dw.register_view(sid, UserView::admin(&s)).unwrap();
        dw.checkpoint().unwrap();
        assert_eq!(dw.epoch(), 1);
        assert_eq!(dw.compactions(), 1);
        assert_eq!(dw.stats().journal_records, 0);
        // Old generation is gone, new one is live.
        assert!(!dir.join(wal_name(0)).exists());
        assert!(dir.join(snap_name(1)).exists());
        assert!(dir.join(wal_name(1)).exists());
        // Mutations continue on the new tail and everything reopens.
        dw.load_run(sid, run(&s)).unwrap();
        drop(dw);
        let dw = DurableWarehouse::open(&dir).unwrap();
        let st = dw.stats();
        assert_eq!((st.specs, st.views, st.runs), (1, 1, 1));
        assert_eq!(st.epoch, 1);
        assert_eq!(st.journal_records, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn auto_compaction_at_threshold() {
        let dir = tempdir("auto");
        let s = spec();
        let mut dw = DurableWarehouse::open_opts(
            &dir,
            DurableOptions {
                compact_threshold_bytes: 64, // any spec record exceeds this
                auto_compact: true,
                ..DurableOptions::default()
            },
        )
        .unwrap();
        let sid = dw.register_spec(s.clone()).unwrap();
        assert!(dw.compactions() >= 1, "tiny threshold must auto-compact");
        assert_eq!(dw.stats().journal_records, 0);
        assert_eq!(dw.failed_compactions(), 0);
        dw.register_view(sid, UserView::admin(&s)).unwrap();
        dw.load_run(sid, run(&s)).unwrap();
        drop(dw);
        let dw = DurableWarehouse::open(&dir).unwrap();
        let st = dw.stats();
        assert_eq!((st.specs, st.views, st.runs), (1, 1, 1));
        assert!(st.epoch >= 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_truncated_on_open() {
        let dir = tempdir("torn");
        let s = spec();
        {
            let mut dw = DurableWarehouse::open(&dir).unwrap();
            let sid = dw.register_spec(s.clone()).unwrap();
            dw.load_run(sid, run(&s)).unwrap();
        }
        let wal = dir.join(wal_name(0));
        let bytes = std::fs::read(&wal).unwrap();
        std::fs::write(&wal, &bytes[..bytes.len() - 5]).unwrap();
        // fsck sees the tear without repairing it.
        let report = fsck(&dir).unwrap();
        assert_eq!(report.journal_records, 1);
        assert!(report.torn_bytes > 0);
        // open drops the torn record and truncates.
        let dw = DurableWarehouse::open(&dir).unwrap();
        assert_eq!(dw.stats().journal_records, 1);
        assert_eq!(dw.warehouse().stats().runs, 0);
        let report = fsck(&dir).unwrap();
        assert_eq!(report.torn_bytes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_appends_after_existing_records() {
        let dir = tempdir("reopen");
        let s = spec();
        {
            let mut dw = DurableWarehouse::open(&dir).unwrap();
            dw.register_spec(s.clone()).unwrap();
        }
        {
            let mut dw = DurableWarehouse::open(&dir).unwrap();
            let sid = dw.warehouse().spec_by_name("d").unwrap();
            dw.load_run(sid, run(&s)).unwrap();
            assert_eq!(dw.stats().journal_records, 2);
        }
        let dw = DurableWarehouse::open(&dir).unwrap();
        assert_eq!(dw.stats().journal_records, 2);
        assert_eq!(dw.warehouse().stats().runs, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mid_file_corruption_detected() {
        let dir = tempdir("corrupt");
        let s = spec();
        {
            let mut dw = DurableWarehouse::open(&dir).unwrap();
            let sid = dw.register_spec(s.clone()).unwrap();
            dw.load_run(sid, run(&s)).unwrap();
        }
        // Flip a byte inside the FIRST record's payload: a bad checksum
        // before the last record is corruption, not a torn tail.
        let wal = dir.join(wal_name(0));
        let mut bytes = std::fs::read(&wal).unwrap();
        bytes[journal::MAGIC.len() + 12] ^= 0xFF;
        std::fs::write(&wal, &bytes).unwrap();
        assert!(matches!(
            DurableWarehouse::open(&dir).unwrap_err(),
            DurableError::Journal(JournalError::Corrupt { record: 0 })
        ));
        assert!(matches!(
            fsck(&dir).unwrap_err(),
            DurableError::Journal(JournalError::Corrupt { record: 0 })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_header_rejected() {
        let dir = tempdir("badheader");
        {
            DurableWarehouse::open(&dir).unwrap();
        }
        std::fs::write(dir.join(wal_name(0)), b"NOTAJOURNAL!").unwrap();
        assert!(matches!(
            DurableWarehouse::open(&dir).unwrap_err(),
            DurableError::BadManifest(m) if m.contains("bad header")
        ));
        assert!(matches!(
            fsck(&dir).unwrap_err(),
            DurableError::BadManifest(_)
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `spec()` with its label index cleared, as crafted bytes deliver it.
    fn doctored_spec() -> WorkflowSpec {
        use std::collections::BTreeMap;
        let s = spec();
        let bytes = crate::codec::to_bytes(&s).unwrap();
        let labels: BTreeMap<_, _> = ["A", "B"].map(|l| (l, s.module(l).unwrap())).into();
        let tail = crate::codec::to_bytes(&labels).unwrap();
        assert!(bytes.ends_with(&tail), "the label index is the last field");
        let mut doctored = bytes[..bytes.len() - tail.len()].to_vec();
        doctored.extend_from_slice(&0u64.to_le_bytes()); // an empty map
        crate::codec::from_bytes(&doctored).unwrap()
    }

    #[test]
    fn doctored_spec_is_refused_live_as_on_replay() {
        let dir = tempdir("doctored-spec");
        let mut dw = DurableWarehouse::open(&dir).unwrap();
        let live = dw.register_spec(doctored_spec()).unwrap_err();
        assert_eq!(dw.stats().journal_records, 0, "nothing journaled");
        drop(dw);
        DurableWarehouse::open(&dir).unwrap();
        // Replay refuses a journaled copy with the same words.
        let record = JournalRecord::Spec(
            SpecId(0),
            SpecRow {
                spec: doctored_spec(),
            },
        );
        let frame = journal::encode_frame(&record).unwrap();
        RealFs.append(&dir.join(wal_name(0)), &frame).unwrap();
        let replayed = DurableWarehouse::open(&dir).unwrap_err();
        assert_eq!(live.to_string(), replayed.to_string());
        assert!(
            live.to_string().contains("label index out of sync"),
            "{live}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn doctored_journal_id_rejected() {
        let dir = tempdir("doctored");
        let s = spec();
        {
            let mut dw = DurableWarehouse::open(&dir).unwrap();
            dw.register_spec(s.clone()).unwrap();
        }
        // Append a record claiming an id replay cannot assign.
        let frame = journal::encode_frame(&JournalRecord::Spec(
            SpecId(41),
            SpecRow {
                spec: {
                    let mut b = SpecBuilder::new("other");
                    b.analysis("X");
                    b.from_input("X").to_output("X");
                    b.build().unwrap()
                },
            },
        ))
        .unwrap();
        let fs = RealFs;
        fs.append(&dir.join(wal_name(0)), &frame).unwrap();
        match DurableWarehouse::open(&dir).unwrap_err() {
            DurableError::Journal(JournalError::IdMismatch { expected, got }) => {
                assert_eq!(expected, "spec#41");
                assert_eq!(got, "spec#1");
            }
            e => panic!("unexpected {e}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn strays_cleaned_on_open() {
        let dir = tempdir("strays");
        {
            DurableWarehouse::open(&dir).unwrap();
        }
        std::fs::write(dir.join(snap_name(9)), b"leftover").unwrap();
        std::fs::write(dir.join(wal_name(9)), b"leftover").unwrap();
        std::fs::write(dir.join(".MANIFEST.1.2.tmp"), b"leftover").unwrap();
        std::fs::write(dir.join("unrelated.txt"), b"user file").unwrap();
        let report = fsck(&dir).unwrap();
        assert_eq!(report.strays.len(), 3);
        DurableWarehouse::open(&dir).unwrap();
        assert!(!dir.join(snap_name(9)).exists());
        assert!(!dir.join(wal_name(9)).exists());
        assert!(!dir.join(".MANIFEST.1.2.tmp").exists());
        // Files that are not ours are left alone.
        assert!(dir.join("unrelated.txt").exists());
        assert!(fsck(&dir).unwrap().strays.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_append_leaves_memory_unchanged() {
        use crate::op::{Op, Store};
        let s = spec();
        let log = EventLog::from_run(&run(&s), &s);
        let (sid, rid) = (SpecId(0), RunId(0));
        // A stream's whole life; each case first applies a prefix of it.
        let mut life = vec![Op::RegisterSpec(s.clone()), Op::BeginStream(sid)];
        life.extend(log.events.iter().map(|ev| Op::PushEvent(rid, ev.clone())));
        let cases = [
            ("spec", 0, life[0].clone()),
            ("view", 1, Op::RegisterView(sid, UserView::admin(&s))),
            ("log", 1, Op::LoadLog(sid, log.clone())),
            ("push", 2, life[2].clone()),
            ("seal", life.len(), Op::SealStream(rid)),
            ("begin-stream", 1, life[1].clone()),
        ];
        for (kind, prefix, write) in cases {
            let setup = &life[..prefix];
            let dir = tempdir(&format!("failed-append-{kind}"));
            let fs = Arc::new(FaultFs::counting());
            let mut dw =
                DurableWarehouse::open_with(fs.clone(), &dir, DurableOptions::default()).unwrap();
            let mut twin = Warehouse::new();
            for op in setup {
                dw.apply(op).unwrap();
                twin.apply(op).unwrap();
            }
            let stats = dw.stats();
            let stream = dw.warehouse().metrics().stream;

            // The write's append fails once, permanently (not retried).
            fs.arm_failures(1, false);
            let err = dw.apply(&write).unwrap_err();
            assert!(
                matches!(&err, WarehouseError::Durability(e) if matches!(**e, DurableError::Io(_))),
                "{kind}: {err}"
            );
            assert_eq!(dw.stats(), stats, "{kind}: stats");
            assert_eq!(dw.stats().journal_records, setup.len() as u64, "{kind}");
            assert_eq!(dw.warehouse().metrics().stream, stream, "{kind}: stream");

            // The next successful write gets what it would have got.
            let want = twin.apply(&write).unwrap().canonical();
            assert_eq!(dw.apply(&write).unwrap().canonical(), want, "{kind}");
            let after = dw.stats();
            drop(dw);
            // And the directory reopens to the same state.
            let dw = DurableWarehouse::open(&dir).unwrap();
            assert_eq!(dw.stats(), after, "{kind}: reopened");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn fsck_reports_healthy_directory() {
        let dir = tempdir("fsck");
        let s = spec();
        {
            let mut dw = DurableWarehouse::open(&dir).unwrap();
            let sid = dw.register_spec(s.clone()).unwrap();
            dw.register_view(sid, UserView::admin(&s)).unwrap();
            dw.checkpoint().unwrap();
            dw.load_run(sid, run(&s)).unwrap();
        }
        let report = fsck(&dir).unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(report.snapshot.as_deref(), Some(snap_name(1).as_str()));
        assert_eq!(report.journal, wal_name(1));
        assert_eq!((report.specs, report.views, report.runs), (1, 1, 1));
        assert_eq!(report.journal_records, 1);
        assert_eq!(report.torn_bytes, 0);
        assert!(report.strays.is_empty());
        let text = report.to_string();
        assert!(text.contains("epoch:           1"), "{text}");
        assert!(text.contains("1 specs, 1 views, 1 runs"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The log of `run(&spec())`.
    fn log() -> EventLog {
        let s = spec();
        EventLog::from_run(&run(&s), &s)
    }

    /// Pushes `events` into `dw` and its in-memory `twin`, asserting equal
    /// outcomes.
    fn push_both(dw: &mut DurableWarehouse, twin: &mut Warehouse, rid: RunId, events: &[LogEvent]) {
        for ev in events {
            let got = dw.stream_push(rid, ev).unwrap();
            assert_eq!(got, twin.stream_push(rid, ev).unwrap(), "{ev:?}");
        }
    }

    /// Seals `rid` in both stores and asserts the sealed runs encode alike
    /// and answer alike.
    fn seal_both(dw: &mut DurableWarehouse, twin: &mut Warehouse, rid: RunId) {
        dw.stream_seal(rid).unwrap();
        twin.stream_seal(rid).unwrap();
        let (w, t) = (dw.warehouse(), twin);
        let bytes = |w: &Warehouse| crate::codec::to_bytes(w.run(rid).unwrap()).unwrap();
        assert_eq!(bytes(w), bytes(t));
        let vid = t.find_view(SpecId(0), "UAdmin").unwrap();
        assert_eq!(
            w.deep_provenance(rid, vid, DataId(3)).unwrap(),
            t.deep_provenance(rid, vid, DataId(3)).unwrap()
        );
    }

    #[test]
    fn stream_survives_mid_run_reopen() {
        let dir = tempdir("stream-reopen");
        let s = spec();
        let log = log();
        let mut twin = Warehouse::new();
        // Push only the first half of the log, then "crash".
        let half = log.events.len() / 2;
        let rid;
        {
            let mut dw = DurableWarehouse::open(&dir).unwrap();
            let sid = dw.register_spec(s.clone()).unwrap();
            dw.register_view(sid, UserView::admin(&s)).unwrap();
            twin.register_spec(s.clone()).unwrap();
            twin.register_view(sid, UserView::admin(&s)).unwrap();
            rid = dw.begin_stream(sid).unwrap();
            assert_eq!(twin.begin_stream(sid).unwrap(), rid);
            push_both(&mut dw, &mut twin, rid, &log.events[..half]);
            assert!(dw.warehouse().is_streaming(rid));
        }
        // Recovery replays StreamBegin + the acknowledged events: the
        // stream is still live. Mid-stream, a checkpoint snapshots it.
        let mut dw = DurableWarehouse::open(&dir).unwrap();
        assert!(dw.warehouse().is_streaming(rid));
        dw.checkpoint().unwrap();
        assert_eq!((dw.epoch(), dw.stats().journal_records), (1, 0));
        drop(dw);
        // The reopen resumes the stream from the snapshot alone, and the
        // rest of the log pushes and seals as in memory.
        let mut dw = DurableWarehouse::open(&dir).unwrap();
        assert!(dw.warehouse().is_streaming(rid));
        assert_eq!(dw.stats().journal_records, 0);
        push_both(&mut dw, &mut twin, rid, &log.events[half..]);
        seal_both(&mut dw, &mut twin, rid);
        assert!(!dw.warehouse().is_streaming(rid));
        // The run answers queries across one more checkpoint and reopen.
        dw.checkpoint().unwrap();
        drop(dw);
        let dw = DurableWarehouse::open(&dir).unwrap();
        let w = dw.warehouse();
        let vid = w.find_view(SpecId(0), "UAdmin").unwrap();
        assert_eq!(w.deep_provenance(rid, vid, DataId(3)).unwrap().tuples(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A store whose disk fails mid-stream degrades; once the disk heals,
    /// its probe checkpoint succeeds with the stream still open, and the
    /// stream pushes and seals as in memory.
    #[test]
    fn degraded_mid_stream_store_recovers_through_its_probe() {
        let dir = tempdir("degraded-mid-stream");
        let s = spec();
        let log = log();
        let fs = Arc::new(FaultFs::counting());
        let options = DurableOptions {
            retry: RetryPolicy::none(),
            breaker_threshold: 3,
            ..DurableOptions::default()
        };
        let mut dw = DurableWarehouse::open_with(fs.clone(), &dir, options).unwrap();
        let mut twin = Warehouse::new();
        let sid = dw.register_spec(s.clone()).unwrap();
        dw.register_view(sid, UserView::admin(&s)).unwrap();
        twin.register_spec(s.clone()).unwrap();
        twin.register_view(sid, UserView::admin(&s)).unwrap();
        let rid = dw.begin_stream(sid).unwrap();
        twin.begin_stream(sid).unwrap();
        push_both(&mut dw, &mut twin, rid, &log.events[..1]);
        fs.arm_failures(u64::MAX, false);
        for _ in 0..3 {
            dw.stream_push(rid, &log.events[1]).unwrap_err();
        }
        assert!(dw.degraded());
        assert!(dw.checkpoint().is_err(), "the probe fails on a sick disk");
        assert!(dw.degraded());
        fs.heal();
        dw.checkpoint().unwrap();
        assert!(!dw.degraded());
        push_both(&mut dw, &mut twin, rid, &log.events[1..]);
        seal_both(&mut dw, &mut twin, rid);
        drop(dw);
        let dw = DurableWarehouse::open(&dir).unwrap();
        assert_eq!(dw.warehouse().stats().runs, 1);
        assert!(!dw.warehouse().is_streaming(rid));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rebuild_succeeds_with_a_live_stream() {
        let dir = tempdir("rebuild-live");
        let s = spec();
        let log = log();
        let mut twin = Warehouse::new();
        let mut dw = DurableWarehouse::open(&dir).unwrap();
        let sid = dw.register_spec(s.clone()).unwrap();
        dw.register_view(sid, UserView::admin(&s)).unwrap();
        twin.register_spec(s.clone()).unwrap();
        twin.register_view(sid, UserView::admin(&s)).unwrap();
        let rid = dw.begin_stream(sid).unwrap();
        twin.begin_stream(sid).unwrap();
        let half = log.events.len() / 2;
        push_both(&mut dw, &mut twin, rid, &log.events[..half]);
        let (io, options, settings) = (dw.io(), dw.options(), dw.warehouse().settings());
        drop(dw);
        let (report, mut fresh) = DurableWarehouse::rebuild(io, &dir, options, settings).unwrap();
        assert_eq!(report.runs, 1);
        assert!(fresh.warehouse().is_streaming(rid));
        push_both(&mut fresh, &mut twin, rid, &log.events[half..]);
        seal_both(&mut fresh, &mut twin, rid);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// With some stream always open, the tail a reopen replays stays under
    /// twice the compaction threshold.
    #[test]
    fn journal_tail_stays_bounded_while_a_stream_is_always_open() {
        let dir = tempdir("bounded-tail");
        let s = spec();
        let log = log();
        let threshold = 512;
        let options = DurableOptions {
            compact_threshold_bytes: threshold,
            ..DurableOptions::default()
        };
        let mut dw = DurableWarehouse::open_opts(&dir, options).unwrap();
        let sid = dw.register_spec(s.clone()).unwrap();
        // Two overlapping streams, each begun before the last seals, so
        // one is open at every moment.
        let mut open = dw.begin_stream(sid).unwrap();
        let mut max_tail = 0;
        for _ in 0..40 {
            let next = dw.begin_stream(sid).unwrap();
            for ev in &log.events {
                dw.stream_push(open, ev).unwrap();
                max_tail = max_tail.max(dw.stats().journal_bytes);
            }
            dw.stream_seal(open).unwrap();
            open = next;
        }
        assert!(dw.compactions() >= 10, "{}", dw.compactions());
        assert!(max_tail < 2 * threshold, "tail reached {max_tail} bytes");
        drop(dw);
        let dw = DurableWarehouse::open(&dir).unwrap();
        assert!(dw.stats().journal_bytes < 2 * threshold);
        assert!(dw.warehouse().is_streaming(open));
        assert_eq!(dw.warehouse().stats().runs, 41);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stream_events_are_durable_once_acknowledged() {
        let dir = tempdir("stream-acked");
        let s = spec();
        let rid;
        let mut acked = 0usize;
        {
            let mut dw = DurableWarehouse::open(&dir).unwrap();
            let sid = dw.register_spec(s.clone()).unwrap();
            rid = dw.begin_stream(sid).unwrap();
            for ev in &log().events {
                dw.stream_push(rid, ev).unwrap();
                acked += 1;
            }
        }
        // Every acknowledged event is in the journal tail; fsck sees the
        // records (1 spec + 1 begin + acked events) with no torn bytes.
        let report = fsck(&dir).unwrap();
        assert_eq!(report.journal_records, 2 + acked);
        assert_eq!(report.torn_bytes, 0);
        let dw = DurableWarehouse::open(&dir).unwrap();
        assert_eq!(dw.warehouse().stats().runs, 1);
        assert!(dw.warehouse().is_streaming(rid));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_corruption_detected() {
        let dir = tempdir("badmanifest");
        {
            DurableWarehouse::open(&dir).unwrap();
        }
        let mpath = dir.join(MANIFEST);
        let mut bytes = std::fs::read(&mpath).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&mpath, &bytes).unwrap();
        assert!(matches!(
            DurableWarehouse::open(&dir).unwrap_err(),
            DurableError::BadManifest(_)
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}

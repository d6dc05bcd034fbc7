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
//! `open` recovers snapshot-then-tail; every mutation appends to the tail
//! (with rollback of the in-memory change if the append fails); when the
//! tail outgrows [`DurableOptions::compact_threshold_bytes`], the store
//! compacts: write `snap-{e+1}`, start an empty `wal-{e+1}`, fsync both,
//! atomically swing `MANIFEST` to the new generation, then best-effort
//! remove the old one. A crash at *any* point leaves either the old
//! generation (manifest not yet swung) or the new one (swung) fully
//! intact; leftovers of the other are strays, cleaned on the next open.
//!
//! Replay is id-checked: each journaled record carries the id it was
//! assigned, and replay over the recovered snapshot must assign the same
//! id — the proof that the tail really continues that snapshot.

use crate::io::{RealFs, StorageIo};
use crate::journal::{self, JournalError, JournalRecord, ReplayOutcome};
use crate::metrics::{Counter, Hist, MetricsRegistry};
use crate::persist::{self, PersistError};
use crate::resilience::{CircuitBreaker, HealthReport, RetryPolicy};
use crate::schema::{RunId, RunRow, SpecId, SpecRow, ViewId, ViewRow, WarehouseStats};
use crate::store::{Settings, Warehouse, WarehouseError};
use crate::stream::{PushOutcome, StreamError};
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

impl From<zoom_model::ModelError> for DurableError {
    fn from(e: zoom_model::ModelError) -> Self {
        DurableError::Warehouse(WarehouseError::Model(e))
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
        let mut inner = match &manifest.snapshot {
            Some(name) => persist::load_with(&*io, &dir.join(name))?,
            None => Warehouse::new(),
        };
        let wal_path = dir.join(&manifest.journal);
        let bytes = io.read(&wal_path)?;
        if bytes.len() < journal::MAGIC.len() || &bytes[..journal::MAGIC.len()] != journal::MAGIC {
            return Err(DurableError::BadManifest(format!(
                "journal `{}` has a bad header",
                manifest.journal
            )));
        }
        let body = &bytes[journal::MAGIC.len()..];
        // The tail continues the snapshot: replayed ids must match.
        let ReplayOutcome { records, valid_end } = journal::replay_body(&mut inner, body, true)?;
        let keep = (journal::MAGIC.len() + valid_end) as u64;
        if keep < bytes.len() as u64 {
            io.set_len(&wal_path, keep)?;
        }
        let mut dw = DurableWarehouse {
            io,
            dir: dir.to_path_buf(),
            inner,
            epoch: manifest.epoch,
            snapshot: manifest.snapshot,
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

    /// Rejects the mutation up front when the breaker is open: degraded
    /// read-only mode fails writes fast, before the in-memory mutation,
    /// so there is nothing to roll back.
    fn check_writable(&mut self) -> Result<(), DurableError> {
        if self.breaker.is_open() {
            self.inner
                .metrics_registry()
                .add(Counter::DegradedWritesRejected, 1);
            return Err(DurableError::Warehouse(WarehouseError::Degraded));
        }
        Ok(())
    }

    fn append(&mut self, rec: &JournalRecord) -> Result<(), DurableError> {
        let frame = journal::encode_frame(rec)?;
        let started = std::time::Instant::now();
        let path = self.dir.join(&self.journal);
        let registry = self.inner.metrics_registry();
        let outcome = self.options.retry.run(
            || registry.add(Counter::IoRetries, 1),
            || self.io.append(&path, &frame),
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
    /// is counted but never surfaced as the mutation's error. Deferred
    /// while streams are active (see [`DurableWarehouse::checkpoint`]) —
    /// the tail keeps growing and compaction resumes after the last seal.
    fn maybe_compact(&mut self) {
        if self.inner.active_streams() > 0 {
            return;
        }
        if self.options.auto_compact
            && self.journal_bytes > self.options.compact_threshold_bytes
            && self.checkpoint().is_err()
        {
            self.failed_compactions += 1;
        }
    }

    /// Registers a specification, durably. On append failure the in-memory
    /// registration is rolled back so memory never diverges from disk.
    pub fn register_spec(&mut self, spec: WorkflowSpec) -> Result<SpecId, DurableError> {
        self.check_writable()?;
        let row = SpecRow { spec };
        let id = self.inner.register_spec(row.spec.clone())?;
        if let Err(e) = self.append(&JournalRecord::Spec(id, row)) {
            self.inner.rollback_spec(id);
            return Err(e);
        }
        self.maybe_compact();
        Ok(id)
    }

    /// Registers a view, durably (rolled back on a failed append).
    pub fn register_view(&mut self, spec: SpecId, view: UserView) -> Result<ViewId, DurableError> {
        self.check_writable()?;
        let id = self.inner.register_view(spec, view.clone())?;
        if let Err(e) = self.append(&JournalRecord::View(id, ViewRow { spec, view })) {
            self.inner.rollback_view(id);
            return Err(e);
        }
        self.maybe_compact();
        Ok(id)
    }

    /// Loads a run, durably (rolled back on a failed append).
    pub fn load_run(&mut self, spec: SpecId, run: WorkflowRun) -> Result<RunId, DurableError> {
        self.check_writable()?;
        let id = self.inner.load_run(spec, run.clone())?;
        if let Err(e) = self.append(&JournalRecord::Run(id, Box::new(RunRow { spec, run }))) {
            self.inner.rollback_run(id);
            return Err(e);
        }
        self.maybe_compact();
        Ok(id)
    }

    /// Ingests an event log, durably (journals the reconstructed run).
    pub fn load_log(&mut self, spec: SpecId, log: &EventLog) -> Result<RunId, DurableError> {
        let run = log.to_run(self.inner.spec(spec)?)?;
        self.load_run(spec, run)
    }

    /// Opens a streaming run, durably (rolled back on a failed append).
    ///
    /// While any stream is live, auto-compaction is deferred and explicit
    /// checkpoints are rejected: a snapshot carries only committed rows,
    /// so the journal tail from `StreamBegin` onward *is* the stream's
    /// durable state.
    pub fn begin_stream(&mut self, spec: SpecId) -> Result<RunId, DurableError> {
        self.check_writable()?;
        let id = self.inner.begin_stream(spec)?;
        if let Err(e) = self.append(&JournalRecord::StreamBegin(id, spec)) {
            self.inner.rollback_stream(id);
            return Err(e);
        }
        Ok(id)
    }

    /// Pushes one streaming event, durably. The order is
    /// validate-then-journal-then-apply: `stream_accept` is read-only,
    /// so a failed append changes nothing and needs no rollback, and by
    /// the time memory moves the event is already on disk — an
    /// acknowledged event survives any crash.
    pub fn stream_push(
        &mut self,
        run: RunId,
        event: &LogEvent,
    ) -> Result<PushOutcome, DurableError> {
        self.check_writable()?;
        let commit = self.inner.stream_accept(run, event)?;
        self.append(&JournalRecord::StreamEvent(run, event.clone()))?;
        Ok(self.inner.stream_apply(run, commit))
    }

    /// Seals a streaming run, durably (same accept/journal/apply order as
    /// [`DurableWarehouse::stream_push`]). Sealing the last live stream
    /// re-enables compaction, which may trigger immediately if the tail
    /// outgrew the threshold during the stream.
    pub fn stream_seal(&mut self, run: RunId) -> Result<(), DurableError> {
        self.check_writable()?;
        let commit = self.inner.stream_seal_check(run)?;
        self.append(&JournalRecord::StreamSeal(run))?;
        self.inner.stream_seal_apply(run, commit);
        self.maybe_compact();
        Ok(())
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
    pub fn checkpoint(&mut self) -> Result<(), DurableError> {
        // A snapshot cannot carry mid-stream ingestor state; compacting
        // now would strand every live stream's buffered events. Callers
        // seal (or the streams finish) first.
        let active = self.inner.active_streams();
        if active > 0 {
            return Err(DurableError::Warehouse(WarehouseError::Stream(
                StreamError::ActiveStreams(active),
            )));
        }
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
        let _ = self.io.remove_file(&self.dir.join(&self.journal));
        if let Some(old) = &self.snapshot {
            if *old != snap {
                let _ = self.io.remove_file(&self.dir.join(old));
            }
        }
        self.epoch = epoch;
        self.snapshot = Some(snap);
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
    let mut w = match &manifest.snapshot {
        Some(name) => persist::load_with(io, &dir.join(name))?,
        None => Warehouse::new(),
    };
    let bytes = io.read(&dir.join(&manifest.journal))?;
    if bytes.len() < journal::MAGIC.len() || &bytes[..journal::MAGIC.len()] != journal::MAGIC {
        return Err(DurableError::BadManifest(format!(
            "journal `{}` has a bad header",
            manifest.journal
        )));
    }
    let body = &bytes[journal::MAGIC.len()..];
    let outcome = journal::replay_body(&mut w, body, true)?;
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
        torn_bytes: (body.len() - outcome.valid_end) as u64,
        strays,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::FaultFs;
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
    fn failed_append_rolls_back_memory() {
        let dir = tempdir("rollback");
        let s = spec();
        // Count the ops an open costs, then allow exactly those: the first
        // mutation's append is the op that fails.
        let counting = Arc::new(FaultFs::counting());
        DurableWarehouse::open_with(counting.clone(), &dir, DurableOptions::default()).unwrap();
        let budget = counting.ops();
        std::fs::remove_dir_all(&dir).ok();

        let faulty = Arc::new(FaultFs::fail_after(budget, 0));
        let mut dw =
            DurableWarehouse::open_with(faulty.clone(), &dir, DurableOptions::default()).unwrap();
        assert!(!faulty.tripped());
        let err = dw.register_spec(s.clone()).unwrap_err();
        assert!(matches!(err, DurableError::Io(_)), "got {err}");
        assert!(faulty.tripped());
        // Memory rolled back: the spec is not visible.
        assert_eq!(dw.warehouse().stats().specs, 0);
        assert_eq!(dw.stats().journal_records, 0);
        assert!(dw.warehouse().spec_by_name("d").is_none());
        // And the directory still opens clean (nothing was committed).
        let dw = DurableWarehouse::open(&dir).unwrap();
        assert_eq!(dw.warehouse().stats().specs, 0);
        std::fs::remove_dir_all(&dir).ok();
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

    #[test]
    fn stream_survives_mid_run_reopen() {
        let dir = tempdir("stream-reopen");
        let s = spec();
        let (a, b) = (s.module("A").unwrap(), s.module("B").unwrap());
        let log = {
            let mut rb = RunBuilder::new(&s);
            let s1 = rb.step(a);
            let s2 = rb.step(b);
            rb.input_edge(s1, [1])
                .data_edge(s1, s2, [2])
                .output_edge(s2, [3]);
            EventLog::from_run(&rb.build().unwrap(), &s)
        };
        // Push only the first half of the log, then "crash".
        let half = log.events.len() / 2;
        let rid;
        {
            let mut dw = DurableWarehouse::open(&dir).unwrap();
            let sid = dw.register_spec(s.clone()).unwrap();
            dw.register_view(sid, UserView::admin(&s)).unwrap();
            rid = dw.begin_stream(sid).unwrap();
            for ev in &log.events[..half] {
                dw.stream_push(rid, ev).unwrap();
            }
            assert!(dw.warehouse().is_streaming(rid));
        }
        // Recovery replays StreamBegin + the acknowledged events: the
        // stream is still live and accepts the rest, then seals.
        let mut dw = DurableWarehouse::open(&dir).unwrap();
        assert!(dw.warehouse().is_streaming(rid));
        // Mid-stream, a checkpoint is refused.
        match dw.checkpoint().unwrap_err() {
            DurableError::Warehouse(WarehouseError::Stream(StreamError::ActiveStreams(1))) => {}
            e => panic!("unexpected {e}"),
        }
        for ev in &log.events[half..] {
            dw.stream_push(rid, ev).unwrap();
        }
        dw.stream_seal(rid).unwrap();
        assert!(!dw.warehouse().is_streaming(rid));
        // Sealed: checkpoint works again, and the run answers queries
        // across one more reopen.
        dw.checkpoint().unwrap();
        drop(dw);
        let dw = DurableWarehouse::open(&dir).unwrap();
        let w = dw.warehouse();
        let sid = w.spec_by_name("d").unwrap();
        let vid = w.find_view(sid, "UAdmin").unwrap();
        assert_eq!(w.deep_provenance(rid, vid, DataId(3)).unwrap().tuples(), 3);
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
            let (a, b) = (s.module("A").unwrap(), s.module("B").unwrap());
            let log = {
                let mut rb = RunBuilder::new(&s);
                let s1 = rb.step(a);
                let s2 = rb.step(b);
                rb.input_edge(s1, [1])
                    .data_edge(s1, s2, [2])
                    .output_edge(s2, [3]);
                EventLog::from_run(&rb.build().unwrap(), &s)
            };
            for ev in &log.events {
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

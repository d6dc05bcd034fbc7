//! The storage backend the ingest/recovery workload runs on.
//!
//! [`BenchFs`] is an in-memory file system: every file of the durable
//! store (journal, snapshots, manifest, temporaries) lives in process
//! memory, and a reopen reads back exactly the bytes written before it.
//! Fsyncs are no-ops, as on a tmpfs. On this benchmark's shared virtual
//! disk both fsync latency and the cost of the open/write/close calls the
//! production backend makes per append swung twofold between runs and
//! would drown every other stage of the write path; the durability layer's
//! own work (framing, codec, CRC, compaction, replay) is what remains.
//! Each operation the production backend follows with a sync is counted,
//! so a change to the flush policy shows in `io.syncs_per_ack`.
//!
//! It also counts what the layer asks for, for the `io.*`,
//! write-amplification and `durable.*` metrics, and records an `io.*`
//! span per call inside a traced request.

use crate::trace;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{Error, ErrorKind, Result};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard};
use zoom_warehouse::StorageIo;

/// Counters of one [`BenchFs`]; see [`BenchFs::counts`].
#[derive(Clone, Copy, Debug, Default)]
pub struct IoCounts {
    /// `append` calls: one per acknowledged journal record.
    pub appends: u64,
    /// Bytes appended.
    pub append_bytes: u64,
    /// Bytes written by whole-file `write`s (snapshots, manifests, headers).
    pub write_bytes: u64,
    /// Operations the production backend follows with an fsync.
    pub syncs: u64,
}

impl IoCounts {
    /// Counts accrued since `earlier`.
    pub fn since(&self, earlier: &IoCounts) -> IoCounts {
        IoCounts {
            appends: self.appends - earlier.appends,
            append_bytes: self.append_bytes - earlier.append_bytes,
            write_bytes: self.write_bytes - earlier.write_bytes,
            syncs: self.syncs - earlier.syncs,
        }
    }
}

#[derive(Debug, Default)]
struct Disk {
    files: BTreeMap<PathBuf, Vec<u8>>,
    dirs: BTreeSet<PathBuf>,
}

/// An in-memory file system, counted.
#[derive(Debug, Default)]
pub struct BenchFs {
    disk: Mutex<Disk>,
    appends: AtomicU64,
    append_bytes: AtomicU64,
    write_bytes: AtomicU64,
    syncs: AtomicU64,
}

fn not_found(path: &Path) -> Error {
    Error::new(ErrorKind::NotFound, path.display().to_string())
}

impl BenchFs {
    pub fn counts(&self) -> IoCounts {
        IoCounts {
            appends: self.appends.load(Relaxed),
            append_bytes: self.append_bytes.load(Relaxed),
            write_bytes: self.write_bytes.load(Relaxed),
            syncs: self.syncs.load(Relaxed),
        }
    }

    /// Total size of the files directly inside `dir`, bytes.
    pub fn dir_bytes(&self, dir: &Path) -> u64 {
        self.disk()
            .files
            .iter()
            .filter(|(p, _)| p.parent() == Some(dir))
            .map(|(_, f)| f.len() as u64)
            .sum()
    }

    fn disk(&self) -> MutexGuard<'_, Disk> {
        self.disk
            .lock()
            .expect("no thread panics while holding the disk")
    }

    fn synced(&self) {
        self.syncs.fetch_add(1, Relaxed);
    }
}

impl StorageIo for BenchFs {
    fn read(&self, path: &Path) -> Result<Vec<u8>> {
        trace::span("io.read", || {
            self.disk()
                .files
                .get(path)
                .cloned()
                .ok_or_else(|| not_found(path))
        })
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> Result<()> {
        trace::span("io.write", || {
            self.disk().files.insert(path.to_path_buf(), bytes.to_vec());
            self.write_bytes.fetch_add(bytes.len() as u64, Relaxed);
            self.synced();
            Ok(())
        })
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> Result<()> {
        trace::span("io.append", || {
            self.disk()
                .files
                .get_mut(path)
                .ok_or_else(|| not_found(path))?
                .extend_from_slice(bytes);
            self.appends.fetch_add(1, Relaxed);
            self.append_bytes.fetch_add(bytes.len() as u64, Relaxed);
            self.synced();
            Ok(())
        })
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        trace::span("io.rename", || {
            let mut disk = self.disk();
            let file = disk.files.remove(from).ok_or_else(|| not_found(from))?;
            disk.files.insert(to.to_path_buf(), file);
            Ok(())
        })
    }

    fn sync_dir(&self, _dir: &Path) -> Result<()> {
        self.synced();
        Ok(())
    }

    fn set_len(&self, path: &Path, len: u64) -> Result<()> {
        let len = usize::try_from(len).map_err(|e| Error::new(ErrorKind::InvalidInput, e))?;
        self.disk()
            .files
            .get_mut(path)
            .ok_or_else(|| not_found(path))?
            .resize(len, 0);
        self.synced();
        Ok(())
    }

    fn len(&self, path: &Path) -> Result<u64> {
        self.disk()
            .files
            .get(path)
            .map(|f| f.len() as u64)
            .ok_or_else(|| not_found(path))
    }

    fn exists(&self, path: &Path) -> bool {
        let disk = self.disk();
        disk.files.contains_key(path) || disk.dirs.contains(path)
    }

    fn remove_file(&self, path: &Path) -> Result<()> {
        self.disk()
            .files
            .remove(path)
            .map(drop)
            .ok_or_else(|| not_found(path))
    }

    fn create_dir_all(&self, path: &Path) -> Result<()> {
        let mut disk = self.disk();
        for dir in path.ancestors().filter(|d| !d.as_os_str().is_empty()) {
            disk.dirs.insert(dir.to_path_buf());
        }
        Ok(())
    }

    fn list_dir(&self, path: &Path) -> Result<Vec<String>> {
        let disk = self.disk();
        if !disk.dirs.contains(path) {
            return Err(not_found(path));
        }
        let children = disk.files.keys().chain(disk.dirs.iter());
        let mut names: Vec<String> = children
            .filter(|p| p.parent() == Some(path))
            .filter_map(|p| Some(p.file_name()?.to_string_lossy().into_owned()))
            .collect();
        names.sort();
        Ok(names)
    }
}

//! [`StorageHandle`]: the one store the engine holds — a
//! [`StableStore`] image plus, on the file backend, a mirror of it on
//! disk.
//!
//! The image is the only staged/persisted state machine. Staging
//! (record puts, appends, the epoch, a checkpoint's truncation) touches
//! the image alone. Every step that changes what is persisted — a
//! commit, a crash, a fault, a recovery-time truncation — runs the
//! image's own code, and the mirror, when there is one, then puts the
//! result on disk:
//!
//! * a commit writes what the image is about to persist (its entries
//!   and record puts as appended frames, or a checkpoint's new
//!   generation), then commits the image;
//! * a crash (torn or not) runs on the image, the mirror writes what
//!   reached the platter, and the image is reloaded from disk as a
//!   reopen would see it;
//! * a bit flip or stale sector damages the image, and the mirror
//!   rewrites the damaged log bytes.
//!
//! So recovery and the oracles run unchanged on either backend: the
//! fault RNG draws are the image's, made once.

use std::ops::Deref;
use std::path::PathBuf;
use std::sync::Arc;

use serde::Serialize;
use todr_sim::SimRng;

use crate::fault::InjectedFault;
use crate::file::FileMirror;
use crate::store::{LogRecord, SharedEntry, StableStore, StorageError};

/// Wall-clock I/O statistics reported by file-backed storage.
///
/// The sim backend reports `None` from [`StorageHandle::io_stats`]: its
/// costs are virtual time charged by `DiskActor`, not host syscalls.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FileIoStats {
    /// Number of `fsync`/`File::sync_all` calls issued.
    pub fsyncs: u64,
    /// Total wall-clock nanoseconds spent inside those calls.
    pub fsync_nanos: u64,
    /// Slowest single sync observed, in nanoseconds.
    pub max_fsync_nanos: u64,
    /// Bytes written to backing files (log frames + checkpoints).
    pub file_bytes_written: u64,
    /// Forced writes: commits of staged data that start no generation.
    pub forced_writes: u64,
    /// Of `fsyncs`, those a checkpoint issued (its file and directory).
    pub checkpoint_fsyncs: u64,
    /// Of `file_bytes_written`, the checkpoints' (record map and log).
    pub checkpoint_bytes: u64,
}

impl FileIoStats {
    /// Mean microseconds per sync, or 0.0 when none were issued.
    pub fn mean_fsync_micros(&self) -> f64 {
        if self.fsyncs == 0 {
            0.0
        } else {
            self.fsync_nanos as f64 / self.fsyncs as f64 / 1_000.0
        }
    }
}

/// Stable storage as the engine sees it: a [`StableStore`] image and,
/// on the file backend, its mirror on disk.
///
/// Which backend it is gets chosen at cluster-build time
/// (`ClusterConfig::builder().backend(..)`). Reads go straight to the
/// image through `Deref` ([`StableStore::verify_log`],
/// [`StableStore::log_len`], [`StableStore::get_record`], ...); every
/// mutation goes through the handle, so the mirror sees each one that
/// reaches the platter.
#[derive(Debug, Default)]
pub struct StorageHandle {
    image: StableStore,
    mirror: Option<FileMirror>,
}

impl StorageHandle {
    /// The deterministic in-memory simulation backend (the default).
    pub fn sim() -> Self {
        StorageHandle::default()
    }

    /// A file-backed store rooted at `dir` (created if missing; an
    /// existing store there is recovered).
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::Io`] if the directory or its files
    /// cannot be created or read, or if its `CURRENT` pointer is missing
    /// or names no generation it holds. A *corrupt* record put or log
    /// entry is not an open error: it surfaces through
    /// [`StableStore::get_record_bytes`] / [`StableStore::verify_log`],
    /// so the engine's recovery path makes the fail-stop decision.
    pub fn file(dir: impl Into<PathBuf>) -> Result<Self, StorageError> {
        let (mirror, image) = FileMirror::open(dir.into())?;
        let mirror = Some(mirror);
        Ok(StorageHandle { image, mirror })
    }

    /// Stages a typed record under `key`, replacing any previous value.
    pub fn put_record<T: Serialize + ?Sized>(&mut self, key: &str, value: &T) {
        self.image.put_record(key, value);
    }

    /// Stages pre-serialized record bytes under `key`, sharing them
    /// (see [`StableStore::put_record_shared`]).
    pub fn put_record_shared(&mut self, key: &str, bytes: Arc<[u8]>) {
        self.image.put_record_shared(key, bytes);
    }

    /// Stages pre-serialized record bytes under `key`.
    pub fn put_record_bytes(&mut self, key: &str, bytes: Vec<u8>) {
        self.image.put_record_shared(key, bytes.into());
    }

    /// Appends an entry to the log (staged until commit), sealed with
    /// the current incarnation epoch and a checksum. The record shares
    /// the entry's bytes and, within one epoch, its checksum.
    pub fn append_shared(&mut self, entry: &SharedEntry) {
        self.image.append_shared(entry);
    }

    /// Appends pre-encoded bytes to the log, like
    /// [`StorageHandle::append_shared`].
    pub fn append_log(&mut self, entry: Vec<u8>) {
        self.image.append_log(entry);
    }

    /// Sets the incarnation epoch stamped onto subsequent appends.
    pub fn set_epoch(&mut self, epoch: u64) {
        self.image.set_epoch(epoch);
    }

    /// Truncates the log, staged until the next commit (checkpoint).
    pub fn truncate_log(&mut self) {
        self.image.truncate_log();
    }

    /// All visible log entries as sealed records, oldest first.
    pub fn read_log(&self) -> Vec<LogRecord> {
        self.image.log_records().cloned().collect()
    }

    /// Makes all staged mutations durable.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::Io`] if the file backend failed to
    /// persist; the image then keeps everything staged. The sim store
    /// cannot fail.
    pub fn commit_staged(&mut self) -> Result<(), StorageError> {
        match &mut self.mirror {
            Some(mirror) => mirror.commit(&mut self.image),
            None => {
                self.image.commit_staged();
                Ok(())
            }
        }
    }

    /// A power failure: staged mutations are lost.
    pub fn crash(&mut self) {
        self.image.crash();
        if let Some(mirror) = &mut self.mirror {
            mirror.reload(&mut self.image);
        }
    }

    /// A power failure that tears the in-flight log append mid-record
    /// (see [`StableStore::crash_torn`]).
    pub fn crash_torn(&mut self, rng: &mut SimRng) {
        match &mut self.mirror {
            Some(mirror) => mirror.crash_torn(&mut self.image, rng),
            None => self.image.crash_torn(rng),
        }
    }

    /// Flips one random bit in one persisted log record's payload (see
    /// [`StableStore::inject_bit_flip`]).
    pub fn inject_bit_flip(&mut self, rng: &mut SimRng) -> Option<InjectedFault> {
        let fault = self.image.inject_bit_flip(rng)?;
        self.rewrite_log_from(fault.index);
        Some(fault)
    }

    /// Serves one persisted log record's payload from an earlier record
    /// under its current header (see [`StableStore::inject_stale_sector`]).
    pub fn inject_stale_sector(&mut self, rng: &mut SimRng) -> Option<InjectedFault> {
        let fault = self.image.inject_stale_sector(rng)?;
        self.rewrite_log_from(fault.index);
        Some(fault)
    }

    /// Drops every persisted log record at `index` and beyond — the
    /// recovery-time repair after a torn final record.
    pub fn truncate_log_from(&mut self, index: u64) {
        self.image.truncate_log_from(index);
        self.rewrite_log_from(index);
    }

    /// Puts the image's persisted log from record `index` on onto the
    /// disk. Fault injection and repair are best effort: an I/O error
    /// leaves the file as the next reopen finds it.
    fn rewrite_log_from(&mut self, index: u64) {
        if let Some(mirror) = &mut self.mirror {
            let _ = mirror.rewrite(index as usize, &self.image);
        }
    }

    /// Wall-clock I/O statistics, for the backend that touches a real
    /// disk.
    pub fn io_stats(&self) -> Option<FileIoStats> {
        self.mirror.as_ref().map(FileMirror::io_stats)
    }

    /// Test hook, file backend only: the next checkpointing
    /// [`StorageHandle::commit_staged`] powers off after the new
    /// generation's file is written and fsynced but before the
    /// `CURRENT` pointer flips — the window an atomic rename protects.
    pub fn arm_checkpoint_crash(&mut self) {
        if let Some(mirror) = &mut self.mirror {
            mirror.arm_checkpoint_crash();
        }
    }
}

impl Deref for StorageHandle {
    type Target = StableStore;

    fn deref(&self) -> &StableStore {
        &self.image
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_handle_roundtrips_typed_records() {
        let mut h = StorageHandle::sim();
        h.put_record("k", &7u64);
        assert_eq!(h.get_record::<u64>("k").unwrap(), Some(7));
        h.crash();
        assert_eq!(h.get_record::<u64>("k").unwrap(), None);
    }

    #[test]
    fn sim_handle_log_matches_stable_store() {
        let mut h = StorageHandle::sim();
        let mut s = StableStore::new();
        for entry in [b"aa".to_vec(), b"bb".to_vec()] {
            h.append_log(entry.clone());
            s.append_log(entry);
        }
        h.commit_staged().unwrap();
        s.commit_staged();
        assert_eq!(h.read_log(), s.log_records().cloned().collect::<Vec<_>>());
    }

    #[test]
    fn typed_mismatch_is_a_deserialize_error() {
        let mut h = StorageHandle::sim();
        h.put_record("k", &"text".to_string());
        match h.get_record::<u64>("k") {
            Err(StorageError::Deserialize(_)) => {}
            other => panic!("expected Deserialize error, got {other:?}"),
        }
    }
}

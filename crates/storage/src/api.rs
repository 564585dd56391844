//! The pluggable [`Storage`] trait and its typed [`StorageHandle`] wrapper.
//!
//! The engine's durability contract (paper §4: one forced write per
//! action, staged until the platter acknowledges) is captured here as a
//! byte-oriented object-safe trait with two implementations:
//!
//! * [`StableStore`] — the deterministic in-memory simulation backend.
//!   Default everywhere; the only backend todr-check may use, because
//!   schedule replay requires byte-identical fault injection.
//! * [`FileStore`](crate::FileStore) — a real append-only checksummed
//!   log file plus an atomically-renamed record checkpoint. Same record
//!   framing ([`LogRecord`]), same recovery contract (torn tail →
//!   truncate; mid-log fault → fail-stop), real `fsync` cost.
//!
//! The trait works in raw bytes so it stays dyn-compatible; the typed
//! codec lives on [`StorageHandle`], which the engine owns.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use serde::de::DeserializeOwned;
use serde::Serialize;
use todr_sim::SimRng;

use crate::codec;
use crate::fault::InjectedFault;
use crate::file::FileStore;
use crate::store::{LogFault, LogRecord, SharedEntry, StableStore, StorageError};

/// Wall-clock I/O statistics reported by file-backed storage.
///
/// The sim backend reports `None` from [`Storage::io_stats`]: its costs
/// are virtual time charged by `DiskActor`, not host syscalls.
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

/// Stable storage as the replication engine sees it: named records plus
/// an append-only epoch-sealed log, with **staged/persisted** crash
/// semantics.
///
/// Everything mutable is staged until [`Storage::commit_staged`] — the
/// moment the backend makes it durable (a simulated platter write for
/// [`StableStore`], real `fsync`/rename for `FileStore`) — and a
/// [`Storage::crash`] discards whatever was staged, exactly like a
/// power failure emptying an OS page cache.
///
/// Fault injection (`crash_torn`, `inject_bit_flip`,
/// `inject_stale_sector`) is part of the trait so the recovery oracles
/// run unchanged against every backend; both implementations consume
/// the deterministic fault RNG stream in the same draw order, so a
/// seeded schedule injures the same logical record on either one.
pub trait Storage: fmt::Debug {
    /// Stages pre-serialized record bytes under `key`. The store keeps
    /// the shared bytes themselves, so stores handed one record (every
    /// replica checkpointing one database version) hold one copy.
    fn put_record_shared(&mut self, key: &str, bytes: Arc<[u8]>);

    /// Stages pre-serialized record bytes under `key`, like
    /// [`Storage::put_record_shared`].
    fn put_record_bytes(&mut self, key: &str, bytes: Vec<u8>) {
        self.put_record_shared(key, bytes.into());
    }

    /// Reads a record's bytes, seeing staged writes (read-your-writes).
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::Io`] if the backend cannot serve the
    /// record (e.g. a corrupt checkpoint file on disk).
    fn get_record_bytes(&self, key: &str) -> Result<Option<Vec<u8>>, StorageError>;

    /// Appends an entry to the log (staged until commit), sealed with
    /// the current incarnation epoch and a checksum. The record shares
    /// the entry's bytes and, within one epoch, its checksum.
    fn append_shared(&mut self, entry: &SharedEntry);

    /// Appends pre-encoded bytes to the log, like
    /// [`Storage::append_shared`].
    fn append_log(&mut self, entry: Vec<u8>) {
        self.append_shared(&SharedEntry::raw(entry));
    }

    /// Sets the incarnation epoch stamped onto subsequent appends.
    fn set_epoch(&mut self, epoch: u64);

    /// The current incarnation epoch.
    fn epoch(&self) -> u64;

    /// Number of log entries visible to the writer (persisted + staged).
    fn log_len(&self) -> usize;

    /// All visible log entries as sealed records, oldest first.
    fn read_log(&self) -> Vec<LogRecord>;

    /// Scans the **persisted** log for the first invalid record.
    ///
    /// # Errors
    ///
    /// Returns the first [`LogFault`] found, if any.
    fn verify_log(&self) -> Result<(), LogFault>;

    /// Drops every persisted log record at `index` and beyond — the
    /// recovery-time repair after a torn final record.
    fn truncate_log_from(&mut self, index: u64);

    /// Truncates the log, staged until the next commit (checkpoint).
    fn truncate_log(&mut self);

    /// Makes all staged mutations durable.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::Io`] if the backend failed to persist
    /// (file backend only; the sim store cannot fail).
    fn commit_staged(&mut self) -> Result<(), StorageError>;

    /// Simulates/forces a power failure: staged mutations are lost.
    fn crash(&mut self);

    /// Power failure that tears the in-flight log append mid-record.
    fn crash_torn(&mut self, rng: &mut SimRng);

    /// Flips one random bit in one persisted log record's payload.
    fn inject_bit_flip(&mut self, rng: &mut SimRng) -> Option<InjectedFault>;

    /// Serves one persisted log record's payload from an earlier record
    /// while keeping its header current.
    fn inject_stale_sector(&mut self, rng: &mut SimRng) -> Option<InjectedFault>;

    /// Wall-clock I/O statistics, for backends that touch a real disk.
    fn io_stats(&self) -> Option<FileIoStats> {
        None
    }
}

impl Storage for StableStore {
    fn put_record_shared(&mut self, key: &str, bytes: Arc<[u8]>) {
        self.put_record_raw(key, bytes);
    }

    fn get_record_bytes(&self, key: &str) -> Result<Option<Vec<u8>>, StorageError> {
        Ok(self.get_record_raw(key).map(<[u8]>::to_vec))
    }

    fn append_shared(&mut self, entry: &SharedEntry) {
        StableStore::append_shared(self, entry);
    }

    fn set_epoch(&mut self, epoch: u64) {
        StableStore::set_epoch(self, epoch);
    }

    fn epoch(&self) -> u64 {
        StableStore::epoch(self)
    }

    fn log_len(&self) -> usize {
        StableStore::log_len(self)
    }

    fn read_log(&self) -> Vec<LogRecord> {
        self.log_records().cloned().collect()
    }

    fn verify_log(&self) -> Result<(), LogFault> {
        StableStore::verify_log(self)
    }

    fn truncate_log_from(&mut self, index: u64) {
        StableStore::truncate_log_from(self, index);
    }

    fn truncate_log(&mut self) {
        StableStore::truncate_log(self);
    }

    fn commit_staged(&mut self) -> Result<(), StorageError> {
        StableStore::commit_staged(self);
        Ok(())
    }

    fn crash(&mut self) {
        StableStore::crash(self);
    }

    fn crash_torn(&mut self, rng: &mut SimRng) {
        StableStore::crash_torn(self, rng);
    }

    fn inject_bit_flip(&mut self, rng: &mut SimRng) -> Option<InjectedFault> {
        StableStore::inject_bit_flip(self, rng)
    }

    fn inject_stale_sector(&mut self, rng: &mut SimRng) -> Option<InjectedFault> {
        StableStore::inject_stale_sector(self, rng)
    }
}

/// A boxed [`Storage`] backend with the typed codec layered on top.
///
/// The engine owns one of these; which backend lives inside is chosen
/// at cluster-build time (`ClusterConfig::builder().backend(..)`).
#[derive(Debug)]
pub struct StorageHandle(Box<dyn Storage + Send>);

impl Default for StorageHandle {
    fn default() -> Self {
        StorageHandle::sim()
    }
}

impl StorageHandle {
    /// The deterministic in-memory simulation backend (the default).
    pub fn sim() -> Self {
        StorageHandle(Box::new(StableStore::new()))
    }

    /// A file-backed store rooted at `dir` (created if missing; an
    /// existing store there is recovered).
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::Io`] if the directory or its files
    /// cannot be created or read.
    pub fn file(dir: impl Into<std::path::PathBuf>) -> Result<Self, StorageError> {
        Ok(StorageHandle(Box::new(FileStore::open(dir.into())?)))
    }

    /// Wraps an arbitrary backend.
    pub fn from_backend(backend: Box<dyn Storage + Send>) -> Self {
        StorageHandle(backend)
    }

    /// Stages a typed record under `key`, replacing any previous value.
    pub fn put_record<T: Serialize + ?Sized>(&mut self, key: &str, value: &T) {
        self.0.put_record_shared(key, codec::to_shared(value));
    }

    /// Reads a typed record, seeing staged writes.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::Deserialize`] if the stored bytes fail
    /// to decode as `T`, or [`StorageError::Io`] if the backend cannot
    /// serve them.
    pub fn get_record<T: DeserializeOwned>(&self, key: &str) -> Result<Option<T>, StorageError> {
        match self.0.get_record_bytes(key)? {
            Some(b) => codec::from_bytes(&b)
                .map(Some)
                .map_err(StorageError::Deserialize),
            None => Ok(None),
        }
    }

    /// Appends a typed entry to the log (read back with
    /// [`LogRecord::decode`]).
    pub fn append_log_typed<T: Serialize + ?Sized>(&mut self, value: &T) {
        self.0.append_shared(&SharedEntry::encode(value));
    }
}

/// Everything byte-level — the log, the epoch, `commit_staged`, crash
/// and fault injection — is the backend's own [`Storage`] method,
/// reached through the handle.
impl Deref for StorageHandle {
    type Target = dyn Storage + Send;

    fn deref(&self) -> &Self::Target {
        self.0.as_ref()
    }
}

impl DerefMut for StorageHandle {
    fn deref_mut(&mut self) -> &mut Self::Target {
        self.0.as_mut()
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

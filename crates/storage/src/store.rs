//! The staged/persisted stable store.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use serde::de::DeserializeOwned;
use serde::Serialize;
use todr_sim::checksum64_of;

use crate::codec::{self, CodecError};

/// Errors returned by the storage backends.
///
/// Every variant is typed: the operation that failed, where, and a
/// structured detail — no bare `String`s in the crate's public surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// Stored bytes failed to deserialize as the requested type.
    Deserialize(CodecError),
    /// A file-backend I/O operation failed.
    Io(IoError),
    /// A named record's seal does not match its bytes (bit rot, a cut
    /// record, or bytes that were never sealed).
    RecordChecksum,
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Deserialize(e) => write!(f, "record failed to deserialize: {e}"),
            StorageError::Io(e) => write!(f, "storage I/O error: {e}"),
            StorageError::RecordChecksum => write!(f, "record checksum mismatch"),
        }
    }
}

impl std::error::Error for StorageError {}

/// Detail of a failed file-backend I/O operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoError {
    /// The operation that failed.
    pub op: IoOp,
    /// The path it was applied to.
    pub path: String,
    /// What the OS reported.
    pub detail: String,
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?} on {} failed: {}", self.op, self.path, self.detail)
    }
}

impl std::error::Error for IoError {}

/// The file-system operation an [`IoError`] names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoOp {
    /// Creating a file or directory.
    Create,
    /// Opening an existing file.
    Open,
    /// Reading file contents.
    Read,
    /// Writing bytes.
    Write,
    /// Forcing bytes to the platter (`fsync`).
    Sync,
    /// Atomically renaming a temporary file into place.
    Rename,
    /// Repositioning within a file.
    Seek,
    /// Truncating or resizing a file.
    Truncate,
    /// Removing a stale file.
    Remove,
}

/// One entry of the append-only log: the payload bytes, sealed with the
/// writer's incarnation epoch and a checksum over both.
///
/// The epoch stamps which incarnation of the writing process appended
/// the record (set via [`StableStore::set_epoch`], monotonically
/// increasing across recoveries); the checksum lets a recovery scan
/// distinguish a torn final record from mid-log corruption.
///
/// The payload is shared, never copied: every store that logs one
/// [`SharedEntry`] holds the same bytes, which is why the fault
/// injectors build new bytes instead of damaging them in place.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// Incarnation epoch of the writer at append time.
    pub epoch: u64,
    /// The application payload.
    pub bytes: Arc<[u8]>,
    /// Checksum over `epoch || bytes` at append time.
    pub checksum: u64,
}

impl LogRecord {
    pub(crate) fn compute(epoch: u64, bytes: &[u8]) -> u64 {
        checksum64_of(&[&epoch.to_le_bytes(), bytes])
    }

    /// The record a write cut short leaves: the payload bytes that
    /// landed under a checksum that never did. The stored checksum is
    /// the complement of the true one, so the record can never verify,
    /// even when nothing of the payload landed.
    pub(crate) fn torn(epoch: u64, bytes: &[u8]) -> Self {
        let checksum = !LogRecord::compute(epoch, bytes);
        let bytes = bytes.into();
        LogRecord {
            epoch,
            bytes,
            checksum,
        }
    }

    /// Whether the stored checksum matches the record's content.
    pub fn is_valid(&self) -> bool {
        self.checksum == LogRecord::compute(self.epoch, &self.bytes)
    }

    /// Decodes the payload as a `T` written by
    /// [`StableStore::append_log_typed`].
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::Deserialize`] if the payload is not the
    /// record codec's encoding of a `T`.
    pub fn decode<T: DeserializeOwned>(&self) -> Result<T, StorageError> {
        codec::from_bytes(&self.bytes).map_err(StorageError::Deserialize)
    }
}

/// A log entry encoded once and appended to any number of stores.
///
/// Every record sealed from it shares its bytes, and the seal checksum —
/// a pure function of (epoch, bytes) — is memoised for the last epoch
/// sealed, so the replicas of one incarnation pay one checksum pass
/// between them. The bytes are freed with the last record or entry that
/// holds them.
#[derive(Debug)]
pub struct SharedEntry {
    bytes: Arc<[u8]>,
    /// `(epoch, checksum)` of the last seal.
    sealed: Cell<Option<(u64, u64)>>,
}

impl SharedEntry {
    /// Encodes `value` as a log entry (read back with
    /// [`LogRecord::decode`]).
    pub fn encode<T: Serialize + ?Sized>(value: &T) -> Self {
        SharedEntry::raw(codec::to_shared(value))
    }

    /// An entry of pre-encoded bytes.
    pub(crate) fn raw(bytes: impl Into<Arc<[u8]>>) -> Self {
        SharedEntry {
            bytes: bytes.into(),
            sealed: Cell::new(None),
        }
    }

    /// The encoded bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The record these bytes make under `epoch`.
    pub(crate) fn seal(&self, epoch: u64) -> LogRecord {
        let checksum = match self.sealed.get() {
            Some((sealed_in, checksum)) if sealed_in == epoch => checksum,
            _ => {
                let checksum = LogRecord::compute(epoch, &self.bytes);
                self.sealed.set(Some((epoch, checksum)));
                checksum
            }
        };
        LogRecord {
            epoch,
            bytes: Arc::clone(&self.bytes),
            checksum,
        }
    }
}

/// What a [`StableStore::verify_log`] scan found wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogFault {
    /// Index of the first invalid persisted log record.
    pub index: u64,
    /// The nature of the fault.
    pub kind: LogFaultKind,
}

/// Classification of an invalid log record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogFaultKind {
    /// The record's checksum does not match its content (torn write or
    /// bit rot).
    Checksum,
    /// The record's incarnation epoch is lower than a predecessor's —
    /// impossible for an honestly appended log, so the medium lied.
    EpochRegression,
}

impl fmt::Display for LogFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            LogFaultKind::Checksum => {
                write!(f, "checksum mismatch at log record {}", self.index)
            }
            LogFaultKind::EpochRegression => {
                write!(
                    f,
                    "incarnation epoch regressed at log record {}",
                    self.index
                )
            }
        }
    }
}

/// A simulated stable-storage device: named records plus an append-only
/// log, with explicit crash semantics.
///
/// Mutations are **staged** (visible to the writer immediately, like data
/// sitting in an OS page cache) until [`StableStore::commit_staged`] moves
/// them to the **persisted** image. A simulated power failure
/// ([`StableStore::crash`]) discards staged data; the persisted image
/// survives.
///
/// Records are serialized with the crate's binary record codec, so the
/// store is typed at its edges but byte-oriented inside, like a real
/// device.
///
/// ```
/// use todr_storage::StableStore;
///
/// let mut store = StableStore::new();
/// store.put_record("green_line", &42u64);
/// store.append_log(b"action-1".to_vec());
/// assert_eq!(store.get_record::<u64>("green_line").unwrap(), Some(42));
///
/// store.crash(); // power failure before any sync
/// assert_eq!(store.get_record::<u64>("green_line").unwrap(), None);
/// assert_eq!(store.log_len(), 0);
///
/// store.put_record("green_line", &43u64);
/// store.commit_staged(); // platter write completed
/// store.crash();
/// assert_eq!(store.get_record::<u64>("green_line").unwrap(), Some(43));
/// ```
#[derive(Debug, Default, Clone)]
pub struct StableStore {
    /// Named records by key. The bytes are shared: stores handed one
    /// record hold one copy.
    pub(crate) records: BTreeMap<String, Record>,
    pub(crate) persisted_log: Vec<LogRecord>,
    pub(crate) staged_log: Vec<LogRecord>,
    /// A staged truncation: the persisted log is replaced by
    /// `staged_log` at the next commit (until then reads see only the
    /// staged entries; a crash reverts to the full persisted log).
    pub(crate) staged_truncate: bool,
    /// Incarnation epoch stamped onto every appended log record.
    pub(crate) epoch: u64,
    /// Set when the persisted record map could not be read back (a
    /// record put on file failed its checksum): every record read
    /// errors until a checkpoint writes a fresh map.
    pub(crate) records_fault: Option<IoError>,
}

/// A named record: its persisted bytes and the bytes staged over them.
#[derive(Debug, Default, Clone)]
pub(crate) struct Record {
    persisted: Option<Arc<[u8]>>,
    staged: Option<Arc<[u8]>>,
}

impl Record {
    /// The bytes a reader sees: staged over persisted.
    fn current(&self) -> Option<&[u8]> {
        self.staged
            .as_ref()
            .or(self.persisted.as_ref())
            .map(|b| &b[..])
    }
}

impl StableStore {
    /// An empty store.
    pub fn new() -> Self {
        StableStore::default()
    }

    /// Stages a typed record under `key`, sealed, replacing any previous
    /// value.
    pub fn put_record<T: Serialize + ?Sized>(&mut self, key: &str, value: &T) {
        self.put_record_shared(key, codec::encode_record(value));
    }

    /// Stages stored record bytes under `key` — a sealed record from
    /// [`crate::encode_record`], or whatever else the caller means the
    /// disk to hold. The store keeps the shared bytes themselves, so
    /// stores handed one record (every replica checkpointing one
    /// database version) hold one copy, and its seal.
    pub fn put_record_shared(&mut self, key: &str, bytes: Arc<[u8]>) {
        match self.records.get_mut(key) {
            Some(record) => record.staged = Some(bytes),
            None => {
                let staged = Some(bytes);
                let record = Record {
                    persisted: None,
                    staged,
                };
                self.records.insert(key.to_string(), record);
            }
        }
    }

    /// Every record as the next commit leaves it: staged bytes over
    /// persisted ones.
    pub(crate) fn records_after_commit(&self) -> impl Iterator<Item = (&str, &[u8])> {
        let records = self.records.iter();
        records.filter_map(|(key, record)| Some((key.as_str(), record.current()?)))
    }

    /// The record puts the next commit makes.
    pub(crate) fn staged_records(&self) -> impl Iterator<Item = (&str, &[u8])> {
        let records = self.records.iter();
        records.filter_map(|(key, record)| Some((key.as_str(), &record.staged.as_ref()?[..])))
    }

    /// Reads a record's raw bytes, seeing staged writes.
    fn record_bytes(&self, key: &str) -> Result<Option<&[u8]>, StorageError> {
        if let Some(fault) = &self.records_fault {
            return Err(StorageError::Io(fault.clone()));
        }
        Ok(self.records.get(key).and_then(Record::current))
    }

    /// Drops every staged record write.
    pub(crate) fn drop_staged_records(&mut self) {
        for record in self.records.values_mut() {
            record.staged = None;
        }
    }

    /// Reads a record's stored bytes, seal included, seeing staged
    /// writes (read-your-writes).
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::Io`] if the persisted record map could
    /// not be read back (a corrupt record put on file).
    pub fn get_record_bytes(&self, key: &str) -> Result<Option<Vec<u8>>, StorageError> {
        Ok(self.record_bytes(key)?.map(<[u8]>::to_vec))
    }

    /// Reads a typed record, seeing staged writes (read-your-writes).
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::RecordChecksum`] if the stored bytes fail
    /// their seal, [`StorageError::Deserialize`] if the sealed document
    /// fails to deserialize as `T`, or [`StorageError::Io`] as
    /// [`StableStore::get_record_bytes`] does.
    pub fn get_record<T: DeserializeOwned>(&self, key: &str) -> Result<Option<T>, StorageError> {
        let Some(stored) = self.record_bytes(key)? else {
            return Ok(None);
        };
        let document = codec::unseal(stored).ok_or(StorageError::RecordChecksum)?;
        codec::from_bytes(document)
            .map(Some)
            .map_err(StorageError::Deserialize)
    }

    /// Appends an entry to the log (staged until commit), sealed with
    /// the current incarnation epoch and a checksum.
    pub fn append_log(&mut self, entry: Vec<u8>) {
        self.append_shared(&SharedEntry::raw(entry));
    }

    /// Appends a shared entry to the log, staged like
    /// [`StableStore::append_log`]; the record shares its bytes.
    pub fn append_shared(&mut self, entry: &SharedEntry) {
        self.staged_log.push(entry.seal(self.epoch));
    }

    /// Sets the incarnation epoch stamped onto subsequent appends.
    ///
    /// The recovery path bumps this to the replica's new incarnation
    /// number before re-logging, which seals every epoch boundary into
    /// the log: an honest log has non-decreasing epochs, so a stale
    /// sector from an earlier incarnation is detectable even when its
    /// checksum is intact.
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// The current incarnation epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Appends a typed entry to the log.
    pub fn append_log_typed<T: Serialize + ?Sized>(&mut self, value: &T) {
        self.append_shared(&SharedEntry::encode(value));
    }

    /// Number of log entries visible to the writer (persisted + staged).
    pub fn log_len(&self) -> usize {
        if self.staged_truncate {
            self.staged_log.len()
        } else {
            self.persisted_log.len() + self.staged_log.len()
        }
    }

    /// Iterates over all visible log entries' payload bytes, oldest
    /// first (checksums and epochs are internal to the record format;
    /// see [`StableStore::log_records`] for the sealed view).
    pub fn log_iter(&self) -> impl Iterator<Item = &[u8]> {
        self.log_records().map(|r| &r.bytes[..])
    }

    /// Iterates over all visible log entries as sealed [`LogRecord`]s,
    /// oldest first.
    pub fn log_records(&self) -> impl Iterator<Item = &LogRecord> {
        let persisted = if self.staged_truncate {
            &[][..]
        } else {
            &self.persisted_log[..]
        };
        persisted.iter().chain(self.staged_log.iter())
    }

    /// Scans the **persisted** log for the first invalid record: a
    /// checksum mismatch (torn write, bit rot) or an incarnation-epoch
    /// regression (stale sector). Recovery runs this after a crash —
    /// staged data is gone by then, so the persisted image is the whole
    /// story.
    ///
    /// # Errors
    ///
    /// Returns the first [`LogFault`] found, if any.
    pub fn verify_log(&self) -> Result<(), LogFault> {
        let mut prev_epoch = 0u64;
        for (index, record) in self.persisted_log.iter().enumerate() {
            if !record.is_valid() {
                return Err(LogFault {
                    index: index as u64,
                    kind: LogFaultKind::Checksum,
                });
            }
            if record.epoch < prev_epoch {
                return Err(LogFault {
                    index: index as u64,
                    kind: LogFaultKind::EpochRegression,
                });
            }
            prev_epoch = record.epoch;
        }
        Ok(())
    }

    /// Drops every persisted log record at `index` and beyond — the
    /// repair primitive recovery uses after [`StableStore::verify_log`]
    /// reports a torn *final* record. The truncation is immediate (not
    /// staged): it models recovery rewriting the log tail before the
    /// process rejoins.
    pub fn truncate_log_from(&mut self, index: u64) {
        debug_assert!(
            !self.has_staged(),
            "truncate_log_from is a recovery-time repair; staged data should be gone"
        );
        self.persisted_log.truncate(index as usize);
    }

    /// Reads all visible log entries as type `T`, oldest first.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::Deserialize`] on the first entry that
    /// fails to deserialize.
    pub fn log_iter_typed<T: DeserializeOwned>(&self) -> Result<Vec<T>, StorageError> {
        self.log_records().map(LogRecord::decode).collect()
    }

    /// Truncates the log, **staged**: the writer immediately sees an
    /// empty log (plus anything appended afterwards), but the persisted
    /// image keeps the old entries until [`StableStore::commit_staged`].
    /// A crash before the commit reverts the truncation — which is what
    /// makes checkpoint-then-truncate crash-safe.
    pub fn truncate_log(&mut self) {
        self.staged_truncate = true;
        self.staged_log.clear();
    }

    /// Moves all staged mutations to the persisted image. Called when a
    /// simulated platter write completes.
    pub fn commit_staged(&mut self) {
        for record in self.records.values_mut() {
            if let Some(bytes) = record.staged.take() {
                record.persisted = Some(bytes);
            }
        }
        if self.staged_truncate {
            self.persisted_log = std::mem::take(&mut self.staged_log);
            self.staged_truncate = false;
        } else {
            self.persisted_log.append(&mut self.staged_log);
        }
    }

    /// Whether any staged (not yet durable) mutations exist.
    pub fn has_staged(&self) -> bool {
        let records = self.staged_records().next().is_some();
        records || !self.staged_log.is_empty() || self.staged_truncate
    }

    /// Simulates a power failure: staged mutations are lost, the
    /// persisted image survives.
    pub fn crash(&mut self) {
        self.drop_staged_records();
        self.staged_log.clear();
        self.staged_truncate = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};
    use std::collections::BTreeMap;

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    enum Kind {
        Unit,
        Newtype(u64),
        Tuple(u8, String),
        Struct { a: i32, b: Vec<bool> },
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Record {
        id: u64,
        name: String,
        opt: Option<i64>,
        nested_none: Option<Option<u8>>,
        kinds: Vec<Kind>,
        map: BTreeMap<u32, String>,
        float: f64,
    }

    fn sample() -> Record {
        Record {
            id: 7,
            name: "hello \"world\"\n\tcafé".into(),
            opt: Some(-12),
            nested_none: Some(None),
            kinds: vec![
                Kind::Unit,
                Kind::Newtype(99),
                Kind::Tuple(3, "x".into()),
                Kind::Struct {
                    a: -5,
                    b: vec![true, false],
                },
            ],
            map: [(1, "one".to_string()), (2, "two".to_string())].into(),
            float: 1.25,
        }
    }

    #[test]
    fn codec_roundtrips_rich_struct() {
        let r = sample();
        let mut store = StableStore::new();
        store.put_record("r", &r);
        assert_eq!(store.get_record::<Record>("r").unwrap(), Some(r));
    }

    #[test]
    fn staged_writes_are_lost_on_crash() {
        let mut store = StableStore::new();
        store.put_record("x", &1u32);
        store.crash();
        assert_eq!(store.get_record::<u32>("x").unwrap(), None);
    }

    #[test]
    fn committed_writes_survive_crash() {
        let mut store = StableStore::new();
        store.put_record("x", &1u32);
        store.commit_staged();
        store.put_record("x", &2u32); // staged overwrite
        store.crash();
        assert_eq!(store.get_record::<u32>("x").unwrap(), Some(1));
    }

    #[test]
    fn staged_read_your_writes() {
        let mut store = StableStore::new();
        store.put_record("x", &1u32);
        store.commit_staged();
        store.put_record("x", &2u32);
        assert_eq!(store.get_record::<u32>("x").unwrap(), Some(2));
    }

    #[test]
    fn log_appends_in_order_and_survives_commit() {
        let mut store = StableStore::new();
        store.append_log_typed(&"a".to_string());
        store.append_log_typed(&"b".to_string());
        store.commit_staged();
        store.append_log_typed(&"c".to_string());
        assert_eq!(
            store.log_iter_typed::<String>().unwrap(),
            vec!["a", "b", "c"]
        );
        store.crash();
        assert_eq!(store.log_iter_typed::<String>().unwrap(), vec!["a", "b"]);
    }

    #[test]
    fn truncate_log_clears_visible_log() {
        let mut store = StableStore::new();
        store.append_log(vec![1]);
        store.commit_staged();
        store.append_log(vec![2]);
        store.truncate_log();
        assert_eq!(store.log_len(), 0);
    }

    #[test]
    fn truncation_is_staged_until_commit() {
        let mut store = StableStore::new();
        store.append_log(vec![1]);
        store.append_log(vec![2]);
        store.commit_staged();
        // Checkpoint: truncate + write the compacted tail.
        store.truncate_log();
        store.append_log(vec![9]);
        assert_eq!(store.log_iter().collect::<Vec<_>>(), vec![&[9][..]]);
        // Crash before the checkpoint syncs: the old log survives.
        store.crash();
        assert_eq!(
            store.log_iter().collect::<Vec<_>>(),
            vec![&[1][..], &[2][..]]
        );
    }

    #[test]
    fn committed_truncation_replaces_persisted_log() {
        let mut store = StableStore::new();
        store.append_log(vec![1]);
        store.commit_staged();
        store.truncate_log();
        store.append_log(vec![9]);
        store.commit_staged();
        store.crash();
        assert_eq!(store.log_iter().collect::<Vec<_>>(), vec![&[9][..]]);
    }

    #[test]
    fn append_after_staged_truncation_orders_correctly() {
        let mut store = StableStore::new();
        store.append_log(vec![1]);
        store.truncate_log(); // also discards the staged entry
        store.append_log(vec![2]);
        store.append_log(vec![3]);
        assert_eq!(
            store.log_iter().collect::<Vec<_>>(),
            vec![&[2][..], &[3][..]]
        );
        assert!(store.has_staged());
    }

    #[test]
    fn truncate_with_staged_appends_never_loses_durable_entries() {
        // Checkpoint racing a submission: entries [1, 2] are durable,
        // entry [3] is staged (the engine has *not* been told it is
        // durable yet), and a checkpoint truncates + relogs the tail.
        let mut store = StableStore::new();
        store.append_log(vec![1]);
        store.append_log(vec![2]);
        store.commit_staged();
        store.append_log(vec![3]); // staged only
        store.truncate_log(); // checkpoint begins; discards staged [3]
        store.append_log(vec![2]); // compacted tail relog

        // Crash before the checkpoint's sync completes: everything the
        // engine believes durable ([1, 2]) must still be there, and the
        // half-done checkpoint must leave no trace.
        store.crash();
        assert_eq!(
            store.log_iter().collect::<Vec<_>>(),
            vec![&[1][..], &[2][..]]
        );
        assert!(!store.has_staged());
    }

    #[test]
    fn commit_after_crash_does_not_resurrect_a_lost_truncation() {
        // The stale-disk-completion hazard: a sync is requested for a
        // staged truncation, the process crashes, and the completion
        // for the pre-crash sync arrives afterwards. Committing at that
        // point must not apply the truncation — the crash already threw
        // it away.
        let mut store = StableStore::new();
        store.append_log(vec![1]);
        store.commit_staged();
        store.truncate_log();
        store.append_log(vec![9]);
        store.crash(); // power failure before the platter write
        store.commit_staged(); // stale completion: must be a no-op
        assert_eq!(store.log_iter().collect::<Vec<_>>(), vec![&[1][..]]);
    }

    #[test]
    fn interleaved_truncate_commit_crash_keeps_log_consistent() {
        // truncate → commit → append → crash: the committed truncation
        // is durable, the post-commit append is not.
        let mut store = StableStore::new();
        store.append_log(vec![1]);
        store.append_log(vec![2]);
        store.commit_staged();
        store.truncate_log();
        store.append_log(vec![7]);
        store.commit_staged();
        store.append_log(vec![8]); // staged after the checkpoint
        store.crash();
        assert_eq!(store.log_iter().collect::<Vec<_>>(), vec![&[7][..]]);
    }

    #[test]
    fn has_staged_tracks_pending_data() {
        let mut store = StableStore::new();
        assert!(!store.has_staged());
        store.put_record("x", &1u8);
        assert!(store.has_staged());
        store.commit_staged();
        assert!(!store.has_staged());
    }

    #[test]
    fn codec_handles_unit_and_empty_collections() {
        let mut store = StableStore::new();
        store.put_record("unit", &());
        store.put_record("empty_vec", &Vec::<u8>::new());
        store.put_record("empty_map", &BTreeMap::<String, u8>::new());
        assert_eq!(store.get_record::<()>("unit").unwrap(), Some(()));
        assert_eq!(
            store.get_record::<Vec<u8>>("empty_vec").unwrap(),
            Some(vec![])
        );
        assert_eq!(
            store
                .get_record::<BTreeMap<String, u8>>("empty_map")
                .unwrap(),
            Some(BTreeMap::new())
        );
    }

    #[test]
    fn codec_rejects_garbage() {
        let mut store = StableStore::new();
        store.put_record("x", &"string".to_string());
        assert!(store.get_record::<u64>("x").is_err());
    }

    #[test]
    fn codec_roundtrips_extreme_integers() {
        let mut store = StableStore::new();
        store.put_record("max", &u64::MAX);
        store.put_record("min", &i64::MIN);
        assert_eq!(store.get_record::<u64>("max").unwrap(), Some(u64::MAX));
        assert_eq!(store.get_record::<i64>("min").unwrap(), Some(i64::MIN));
    }
}

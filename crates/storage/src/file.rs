//! `FileStore` — real file-backed stable storage.
//!
//! The same staged/persisted contract as the simulated [`StableStore`],
//! implemented on an actual directory:
//!
//! ```text
//! <dir>/CURRENT       "g=<n>\n" — which generation is live
//! <dir>/log-<n>       append-only framed log of generation n
//! <dir>/records-<n>   checkpointed record map of generation n
//! <dir>/*.tmp         in-flight atomic writes (garbage after a crash)
//! ```
//!
//! **Log framing.** Each entry is `[len: u32 LE][epoch: u64 LE]
//! [payload][checksum: u64 LE]`, with the checksum the same FNV-1a seal
//! as [`LogRecord`] (`checksum64(epoch_le || payload)`). A power
//! failure mid-append leaves a physically short final frame; the open
//! scan surfaces it as a sealed record whose checksum cannot match, so
//! recovery sees exactly what it sees on the sim backend — a torn
//! *final* record to truncate — and mid-log damage still fail-stops.
//!
//! **Checkpoint atomicity.** A checkpoint must replace the record map
//! *and* swap the log in one crash-atomic step (committing them
//! independently can pair an old log with a new base, or lose green
//! entries — both protocol violations). So both files are written under
//! the *next* generation number, fsynced, and then a one-line `CURRENT`
//! pointer is flipped via tmp + fsync + rename (scfs-style); a crash on
//! either side of the rename leaves one complete generation live and
//! the other as garbage swept at the next open. Record-only updates use
//! the same tmp + rename discipline on `records-<n>` directly.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use todr_sim::{checksum64, SimRng};

use crate::api::{FileIoStats, Storage};
use crate::fault::{flip_bit, tear_point, InjectedFault};
use crate::store::{IoError, IoOp, LogFault, LogFaultKind, LogRecord, SharedEntry, StorageError};

/// A persisted log record plus where its frame starts in the log file.
#[derive(Debug, Clone)]
struct PersistedFrame {
    offset: u64,
    record: LogRecord,
}

/// File-backed stable storage with the [`StableStore`] crash semantics
/// on real bytes. See the module docs for the on-disk layout.
///
/// [`StableStore`]: crate::StableStore
#[derive(Debug)]
pub struct FileStore {
    dir: PathBuf,
    generation: u64,
    persisted_records: BTreeMap<String, Arc<[u8]>>,
    /// Set when the checkpoint file on disk failed its checksum: every
    /// record read errors until a fresh checkpoint replaces it.
    records_fault: Option<IoError>,
    persisted_frames: Vec<PersistedFrame>,
    /// Byte length of the live region of the log file.
    log_end: u64,
    staged_records: BTreeMap<String, Arc<[u8]>>,
    staged_log: Vec<LogRecord>,
    staged_truncate: bool,
    epoch: u64,
    io: FileIoStats,
    /// Test hook: the next checkpoint commit powers off after writing
    /// the new generation's files but *before* flipping `CURRENT`.
    checkpoint_crash_armed: bool,
}

impl FileStore {
    /// Opens (or initialises) a file store rooted at `dir`.
    ///
    /// Recovers whatever a previous incarnation left behind: reads the
    /// live generation named by `CURRENT`, sweeps `*.tmp` files and
    /// orphan generations from interrupted checkpoints, scans the log
    /// for a torn tail, and verifies the checkpoint's checksum.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::Io`] if the directory or `CURRENT`
    /// cannot be created or read. A *corrupt* checkpoint or log is not
    /// an open error — it is surfaced through
    /// [`Storage::get_record_bytes`] / [`Storage::verify_log`] so the
    /// engine's recovery path makes the fail-stop decision.
    pub fn open(dir: PathBuf) -> Result<Self, StorageError> {
        fs::create_dir_all(&dir).map_err(|e| io_err(IoOp::Create, &dir, e))?;
        let current = dir.join("CURRENT");
        let generation = match fs::read_to_string(&current) {
            Ok(text) => parse_current(&text)
                .ok_or_else(|| io_err_msg(IoOp::Read, &current, "malformed CURRENT pointer"))?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                write_current(&dir, 0)?;
                0
            }
            Err(e) => return Err(io_err(IoOp::Read, &current, e)),
        };
        let mut store = FileStore {
            dir,
            generation,
            persisted_records: BTreeMap::new(),
            records_fault: None,
            persisted_frames: Vec::new(),
            log_end: 0,
            staged_records: BTreeMap::new(),
            staged_log: Vec::new(),
            staged_truncate: false,
            epoch: 0,
            io: FileIoStats::default(),
            checkpoint_crash_armed: false,
        };
        store.sweep_orphans();
        store.reload()?;
        Ok(store)
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Arms the checkpoint-crash test hook: the next checkpointing
    /// [`Storage::commit_staged`] simulates a power failure after the
    /// new generation's files are written and fsynced but before the
    /// `CURRENT` pointer flips — the window an atomic rename protects.
    pub fn arm_checkpoint_crash(&mut self) {
        self.checkpoint_crash_armed = true;
    }

    fn log_path(&self) -> PathBuf {
        self.dir.join(format!("log-{}", self.generation))
    }

    fn records_path(&self) -> PathBuf {
        self.dir.join(format!("records-{}", self.generation))
    }

    /// Removes `*.tmp` files and files of non-live generations — the
    /// residue of a checkpoint interrupted on either side of its
    /// `CURRENT` flip.
    fn sweep_orphans(&self) {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return;
        };
        let live_log = format!("log-{}", self.generation);
        let live_records = format!("records-{}", self.generation);
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let orphan = name.ends_with(".tmp")
                || ((name.starts_with("log-") || name.starts_with("records-"))
                    && name != live_log
                    && name != live_records);
            if orphan {
                let _ = fs::remove_file(entry.path());
            }
        }
    }

    /// Rebuilds the in-memory image of the persisted state from the
    /// live generation's files. Staged state and the incarnation epoch
    /// are untouched.
    fn reload(&mut self) -> Result<(), StorageError> {
        let (records, fault) = read_records_file(&self.records_path())?;
        self.persisted_records = records;
        self.records_fault = fault;
        let (frames, log_end) = scan_log_file(&self.log_path())?;
        self.persisted_frames = frames;
        self.log_end = log_end;
        Ok(())
    }

    /// `fsync`s `file`, timing the call into [`FileIoStats`].
    fn sync_file(&mut self, file: &File, path: &Path) -> Result<(), StorageError> {
        let start = Instant::now();
        file.sync_all().map_err(|e| io_err(IoOp::Sync, path, e))?;
        let nanos = start.elapsed().as_nanos() as u64;
        self.io.fsyncs += 1;
        self.io.fsync_nanos += nanos;
        self.io.max_fsync_nanos = self.io.max_fsync_nanos.max(nanos);
        Ok(())
    }

    /// Opens the directory itself and `fsync`s it, making a just-done
    /// rename durable.
    fn sync_dir(&mut self) -> Result<(), StorageError> {
        let dir = self.dir.clone();
        let handle = File::open(&dir).map_err(|e| io_err(IoOp::Open, &dir, e))?;
        self.sync_file(&handle, &dir)
    }

    /// Writes `bytes` to `<path>.tmp`, fsyncs, and renames over `path`.
    fn atomic_write(&mut self, path: &Path, bytes: &[u8]) -> Result<(), StorageError> {
        let tmp = tmp_path(path);
        let mut file = File::create(&tmp).map_err(|e| io_err(IoOp::Create, &tmp, e))?;
        file.write_all(bytes)
            .map_err(|e| io_err(IoOp::Write, &tmp, e))?;
        self.io.file_bytes_written += bytes.len() as u64;
        self.sync_file(&file, &tmp)?;
        fs::rename(&tmp, path).map_err(|e| io_err(IoOp::Rename, path, e))?;
        self.sync_dir()
    }

    /// Appends `frames` to the live log file and fsyncs, updating the
    /// in-memory mirror.
    fn append_frames(&mut self, records: Vec<LogRecord>) -> Result<(), StorageError> {
        let path = self.log_path();
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| io_err(IoOp::Open, &path, e))?;
        // A previous torn tail may still occupy bytes past `log_end`;
        // honest appends must not land after garbage.
        file.set_len(self.log_end)
            .map_err(|e| io_err(IoOp::Truncate, &path, e))?;
        for record in records {
            let frame = encode_frame(&record);
            file.write_all(&frame)
                .map_err(|e| io_err(IoOp::Write, &path, e))?;
            self.io.file_bytes_written += frame.len() as u64;
            self.persisted_frames.push(PersistedFrame {
                offset: self.log_end,
                record,
            });
            self.log_end += frame.len() as u64;
        }
        self.sync_file(&file, &path)
    }

    /// Whether any staged (not yet durable) mutations exist.
    pub fn has_staged(&self) -> bool {
        !self.staged_records.is_empty() || !self.staged_log.is_empty() || self.staged_truncate
    }

    /// Serializes and atomically replaces the live checkpoint file with
    /// the persisted map plus staged overlays.
    fn merged_records(&self) -> BTreeMap<String, Arc<[u8]>> {
        let mut merged = self.persisted_records.clone();
        merged.extend(self.staged_records.clone());
        merged
    }

    /// The checkpointing commit: writes the next generation's record and
    /// log files, then flips `CURRENT` atomically.
    fn commit_checkpoint(&mut self) -> Result<(), StorageError> {
        let next = self.generation + 1;
        let records = self.merged_records();
        let records_path = self.dir.join(format!("records-{next}"));
        let log_path = self.dir.join(format!("log-{next}"));

        // Both files are invisible until CURRENT names generation
        // `next`, so they can be written in place (clobbering any
        // orphan from a previously interrupted checkpoint).
        let bytes = encode_records_file(&records);
        let mut file =
            File::create(&records_path).map_err(|e| io_err(IoOp::Create, &records_path, e))?;
        file.write_all(&bytes)
            .map_err(|e| io_err(IoOp::Write, &records_path, e))?;
        self.io.file_bytes_written += bytes.len() as u64;
        self.sync_file(&file, &records_path)?;

        let mut log_bytes = Vec::new();
        for record in &self.staged_log {
            log_bytes.extend_from_slice(&encode_frame(record));
        }
        let mut file = File::create(&log_path).map_err(|e| io_err(IoOp::Create, &log_path, e))?;
        file.write_all(&log_bytes)
            .map_err(|e| io_err(IoOp::Write, &log_path, e))?;
        self.io.file_bytes_written += log_bytes.len() as u64;
        self.sync_file(&file, &log_path)?;

        if self.checkpoint_crash_armed {
            // Simulated power failure in the vulnerable window: the new
            // generation is fully on disk but CURRENT still names the
            // old one, so the store must come back on the old state.
            self.checkpoint_crash_armed = false;
            Storage::crash(self);
            return Ok(());
        }

        write_current(&self.dir, next)?;
        self.sync_dir()?;
        let old_log = self.log_path();
        let old_records = self.records_path();
        let _ = fs::remove_file(old_log);
        let _ = fs::remove_file(old_records);

        self.generation = next;
        self.persisted_records = records;
        self.records_fault = None;
        self.persisted_frames = Vec::new();
        self.log_end = 0;
        let mut offset = 0u64;
        for record in std::mem::take(&mut self.staged_log) {
            let frame_len = frame_len(&record) as u64;
            self.persisted_frames
                .push(PersistedFrame { offset, record });
            offset += frame_len;
        }
        self.log_end = offset;
        self.staged_records.clear();
        self.staged_truncate = false;
        Ok(())
    }

    /// Rewrites the live log file from the (possibly damaged) in-memory
    /// frames — used by fault injection, which deliberately bypasses
    /// the crash-safe paths.
    fn rewrite_log(&mut self) -> Result<(), StorageError> {
        let path = self.log_path();
        let mut bytes = Vec::new();
        let mut offset = 0u64;
        for frame in &mut self.persisted_frames {
            let encoded = encode_frame(&frame.record);
            frame.offset = offset;
            offset += encoded.len() as u64;
            bytes.extend_from_slice(&encoded);
        }
        self.log_end = offset;
        let mut file = File::create(&path).map_err(|e| io_err(IoOp::Create, &path, e))?;
        file.write_all(&bytes)
            .map_err(|e| io_err(IoOp::Write, &path, e))?;
        self.sync_file(&file, &path)
    }
}

impl Storage for FileStore {
    fn put_record_shared(&mut self, key: &str, bytes: Arc<[u8]>) {
        self.staged_records.insert(key.to_string(), bytes);
    }

    fn get_record_bytes(&self, key: &str) -> Result<Option<Vec<u8>>, StorageError> {
        if let Some(fault) = &self.records_fault {
            return Err(StorageError::Io(fault.clone()));
        }
        let bytes = self
            .staged_records
            .get(key)
            .or_else(|| self.persisted_records.get(key));
        Ok(bytes.map(|b| b.to_vec()))
    }

    fn append_shared(&mut self, entry: &SharedEntry) {
        self.staged_log.push(entry.seal(self.epoch));
    }

    fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn log_len(&self) -> usize {
        if self.staged_truncate {
            self.staged_log.len()
        } else {
            self.persisted_frames.len() + self.staged_log.len()
        }
    }

    fn read_log(&self) -> Vec<LogRecord> {
        let persisted = if self.staged_truncate {
            &[][..]
        } else {
            &self.persisted_frames[..]
        };
        persisted
            .iter()
            .map(|f| f.record.clone())
            .chain(self.staged_log.iter().cloned())
            .collect()
    }

    fn verify_log(&self) -> Result<(), LogFault> {
        let mut prev_epoch = 0u64;
        for (index, frame) in self.persisted_frames.iter().enumerate() {
            if !frame.record.is_valid() {
                return Err(LogFault {
                    index: index as u64,
                    kind: LogFaultKind::Checksum,
                });
            }
            if frame.record.epoch < prev_epoch {
                return Err(LogFault {
                    index: index as u64,
                    kind: LogFaultKind::EpochRegression,
                });
            }
            prev_epoch = frame.record.epoch;
        }
        Ok(())
    }

    fn truncate_log_from(&mut self, index: u64) {
        debug_assert!(
            !self.has_staged(),
            "truncate_log_from is a recovery-time repair; staged data should be gone"
        );
        let index = index as usize;
        if index >= self.persisted_frames.len() {
            return;
        }
        let new_end = self.persisted_frames[index].offset;
        self.persisted_frames.truncate(index);
        self.log_end = new_end;
        let path = self.log_path();
        // Physically cut the file so a re-open agrees with the repair.
        if let Ok(file) = OpenOptions::new().write(true).open(&path) {
            if file.set_len(new_end).is_ok() {
                let _ = self.sync_file(&file, &path);
            }
        }
    }

    fn truncate_log(&mut self) {
        self.staged_truncate = true;
        self.staged_log.clear();
    }

    fn commit_staged(&mut self) -> Result<(), StorageError> {
        if self.staged_truncate {
            return self.commit_checkpoint();
        }
        if !self.staged_log.is_empty() {
            let staged = std::mem::take(&mut self.staged_log);
            self.append_frames(staged)?;
        }
        if !self.staged_records.is_empty() {
            let merged = self.merged_records();
            let bytes = encode_records_file(&merged);
            let path = self.records_path();
            self.atomic_write(&path, &bytes)?;
            self.persisted_records = merged;
            self.records_fault = None;
            self.staged_records.clear();
        }
        Ok(())
    }

    fn crash(&mut self) {
        self.staged_records.clear();
        self.staged_log.clear();
        self.staged_truncate = false;
        // What survives is whatever the live generation's files hold.
        if self.reload().is_err() {
            self.persisted_records = BTreeMap::new();
            self.persisted_frames = Vec::new();
            self.log_end = 0;
        }
    }

    fn crash_torn(&mut self, rng: &mut SimRng) {
        if self.staged_truncate || self.staged_log.is_empty() {
            Storage::crash(self);
            return;
        }
        // Same RNG draw order as the sim backend, so a seeded schedule
        // injures the same logical record on either backend.
        let staged = std::mem::take(&mut self.staged_log);
        let torn_at = rng.gen_range(staged.len() as u64) as usize;
        let mut intact = Vec::new();
        let mut torn: Option<(LogRecord, usize)> = None;
        for (i, record) in staged.into_iter().enumerate() {
            if i < torn_at {
                intact.push(record);
            } else if i == torn_at {
                let cut = tear_point(&record.bytes, rng);
                torn = Some((record, cut));
            } else {
                break; // never reached the platter
            }
        }
        // The intact prefix lands as complete frames...
        if !intact.is_empty() {
            let _ = self.append_frames(intact);
        }
        // ...then the torn frame: its length header names the full
        // payload, but only `cut` bytes (and no checksum) follow — a
        // physically short final frame, exactly what a power failure
        // leaves.
        if let Some((record, cut)) = torn {
            let path = self.log_path();
            if let Ok(mut file) = OpenOptions::new().create(true).append(true).open(&path) {
                let mut partial = Vec::with_capacity(12 + cut);
                partial.extend_from_slice(&(record.bytes.len() as u32).to_le_bytes());
                partial.extend_from_slice(&record.epoch.to_le_bytes());
                partial.extend_from_slice(&record.bytes[..cut]);
                let _ = file.write_all(&partial);
                let _ = self.sync_file(&file, &path);
            }
        }
        self.staged_records.clear();
        self.staged_truncate = false;
        // Come back exactly as a re-open would see the disk.
        let _ = self.reload();
    }

    fn inject_bit_flip(&mut self, rng: &mut SimRng) -> Option<InjectedFault> {
        let candidates: Vec<usize> = (0..self.persisted_frames.len())
            .filter(|&i| !self.persisted_frames[i].record.bytes.is_empty())
            .collect();
        let &index = rng.choose(&candidates)?;
        let frame = &mut self.persisted_frames[index];
        let (rotten, byte) = flip_bit(&frame.record.bytes, rng);
        let (frame_offset, flipped) = (frame.offset, rotten[byte]);
        frame.record.bytes = rotten;
        // Rot the same bit on the platter: payload starts after the
        // 4-byte length and 8-byte epoch of the frame header.
        let path = self.log_path();
        let pos = frame_offset + 12 + byte as u64;
        if let Ok(mut file) = OpenOptions::new().read(true).write(true).open(&path) {
            if file.seek(SeekFrom::Start(pos)).is_ok() {
                let _ = file.write_all(&[flipped]);
                let _ = self.sync_file(&file, &path);
            }
        }
        Some(InjectedFault {
            index: index as u64,
        })
    }

    fn inject_stale_sector(&mut self, rng: &mut SimRng) -> Option<InjectedFault> {
        if self.persisted_frames.len() < 2 {
            return None;
        }
        let index = 1 + rng.gen_range(self.persisted_frames.len() as u64 - 1) as usize;
        let stale_from = rng.gen_range(index as u64) as usize;
        let stale_bytes = Arc::clone(&self.persisted_frames[stale_from].record.bytes);
        self.persisted_frames[index].record.bytes = stale_bytes;
        // Payload lengths differ, so the whole file is rewritten with
        // the stale payload under the original (now lying) header.
        let _ = self.rewrite_log();
        Some(InjectedFault {
            index: index as u64,
        })
    }

    fn io_stats(&self) -> Option<FileIoStats> {
        Some(self.io)
    }
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

fn io_err(op: IoOp, path: &Path, e: std::io::Error) -> StorageError {
    StorageError::Io(IoError {
        op,
        path: path.display().to_string(),
        detail: e.to_string(),
    })
}

fn io_err_msg(op: IoOp, path: &Path, detail: &str) -> StorageError {
    StorageError::Io(IoError {
        op,
        path: path.display().to_string(),
        detail: detail.to_string(),
    })
}

fn parse_current(text: &str) -> Option<u64> {
    text.trim().strip_prefix("g=")?.parse().ok()
}

/// Writes the `CURRENT` pointer via tmp + fsync + rename.
fn write_current(dir: &Path, generation: u64) -> Result<(), StorageError> {
    let path = dir.join("CURRENT");
    let tmp = tmp_path(&path);
    let mut file = File::create(&tmp).map_err(|e| io_err(IoOp::Create, &tmp, e))?;
    file.write_all(format!("g={generation}\n").as_bytes())
        .map_err(|e| io_err(IoOp::Write, &tmp, e))?;
    file.sync_all().map_err(|e| io_err(IoOp::Sync, &tmp, e))?;
    fs::rename(&tmp, &path).map_err(|e| io_err(IoOp::Rename, &path, e))?;
    Ok(())
}

fn frame_len(record: &LogRecord) -> usize {
    4 + 8 + record.bytes.len() + 8
}

/// `[len: u32 LE][epoch: u64 LE][payload][checksum: u64 LE]`.
fn encode_frame(record: &LogRecord) -> Vec<u8> {
    let mut frame = Vec::with_capacity(frame_len(record));
    frame.extend_from_slice(&(record.bytes.len() as u32).to_le_bytes());
    frame.extend_from_slice(&record.epoch.to_le_bytes());
    frame.extend_from_slice(&record.bytes);
    frame.extend_from_slice(&record.checksum.to_le_bytes());
    frame
}

/// Scans a log file into sealed records plus the file's byte length.
///
/// A physically incomplete final frame (torn write) is surfaced as a
/// record whose checksum is guaranteed not to match, so the caller's
/// `verify_log` reports a tail `Checksum` fault — the same shape the
/// sim backend produces for a torn crash.
fn scan_log_file(path: &Path) -> Result<(Vec<PersistedFrame>, u64), StorageError> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((Vec::new(), 0)),
        Err(e) => return Err(io_err(IoOp::Read, path, e)),
    };
    let total = bytes.len();
    let mut frames = Vec::new();
    let mut pos = 0usize;
    while pos < total {
        let header_end = pos + 12;
        if header_end > total {
            // Not even a full header landed: a torn, payload-less tail.
            frames.push(torn_frame(pos as u64, 0, Arc::new([])));
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let epoch = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap());
        let frame_end = header_end + len + 8;
        if frame_end > total {
            let avail = total.saturating_sub(header_end).min(len);
            let payload = bytes[header_end..header_end + avail].into();
            frames.push(torn_frame(pos as u64, epoch, payload));
            break;
        }
        let payload = bytes[header_end..header_end + len].into();
        let checksum = u64::from_le_bytes(bytes[header_end + len..frame_end].try_into().unwrap());
        frames.push(PersistedFrame {
            offset: pos as u64,
            record: LogRecord {
                epoch,
                bytes: payload,
                checksum,
            },
        });
        pos = frame_end;
    }
    Ok((frames, total as u64))
}

/// A synthesized record for a physically incomplete frame. The stored
/// checksum is the bitwise complement of the true one, so
/// `LogRecord::is_valid` can never pass.
fn torn_frame(offset: u64, epoch: u64, payload: Arc<[u8]>) -> PersistedFrame {
    let checksum = !LogRecord::compute(epoch, &payload);
    PersistedFrame {
        offset,
        record: LogRecord {
            epoch,
            bytes: payload,
            checksum,
        },
    }
}

/// Checkpoint file format: `[count: u64 LE]` then per record
/// `[klen: u32 LE][key][vlen: u32 LE][value]`, sealed with a trailing
/// `checksum64` over everything before it.
fn encode_records_file(records: &BTreeMap<String, Arc<[u8]>>) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(records.len() as u64).to_le_bytes());
    for (key, value) in records {
        out.extend_from_slice(&(key.len() as u32).to_le_bytes());
        out.extend_from_slice(key.as_bytes());
        out.extend_from_slice(&(value.len() as u32).to_le_bytes());
        out.extend_from_slice(value);
    }
    let checksum = checksum64(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Reads a checkpoint file. A missing file is an empty map; a corrupt
/// one yields the fault to report on every record read (recovery
/// fail-stops on it), not an open error.
#[allow(clippy::type_complexity)]
fn read_records_file(
    path: &Path,
) -> Result<(BTreeMap<String, Arc<[u8]>>, Option<IoError>), StorageError> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((BTreeMap::new(), None)),
        Err(e) => return Err(io_err(IoOp::Read, path, e)),
    };
    let fault = |detail: &str| IoError {
        op: IoOp::Read,
        path: path.display().to_string(),
        detail: detail.to_string(),
    };
    if bytes.len() < 16 {
        return Ok((BTreeMap::new(), Some(fault("checkpoint file truncated"))));
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(trailer.try_into().unwrap());
    if checksum64(body) != stored {
        return Ok((BTreeMap::new(), Some(fault("checkpoint checksum mismatch"))));
    }
    let mut records = BTreeMap::new();
    let count = u64::from_le_bytes(body[..8].try_into().unwrap());
    let mut pos = 8usize;
    for _ in 0..count {
        let Some((key, next)) = read_chunk(body, pos) else {
            return Ok((BTreeMap::new(), Some(fault("checkpoint entry truncated"))));
        };
        let Ok(key) = String::from_utf8(key) else {
            return Ok((BTreeMap::new(), Some(fault("checkpoint key not UTF-8"))));
        };
        let Some((value, next)) = read_chunk(body, next) else {
            return Ok((BTreeMap::new(), Some(fault("checkpoint entry truncated"))));
        };
        records.insert(key, value.into());
        pos = next;
    }
    Ok((records, None))
}

/// Reads a `[len: u32 LE][bytes]` chunk at `pos`, returning the bytes
/// and the position after them.
fn read_chunk(body: &[u8], pos: usize) -> Option<(Vec<u8>, usize)> {
    let len_end = pos.checked_add(4)?;
    if len_end > body.len() {
        return None;
    }
    let len = u32::from_le_bytes(body[pos..len_end].try_into().unwrap()) as usize;
    let end = len_end.checked_add(len)?;
    if end > body.len() {
        return None;
    }
    Some((body[len_end..end].to_vec(), end))
}

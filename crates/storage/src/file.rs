//! The file mirror: a [`StableStore`] image's persisted state on disk.
//!
//! The mirror keeps no staged state and makes no fault decisions; the
//! image does both (see [`StorageHandle`](crate::StorageHandle)). The
//! mirror only does the I/O, on an actual directory:
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

use crate::api::FileIoStats;
use crate::store::{IoError, IoOp, LogRecord, StableStore, StorageError};

/// Where a [`StableStore`] image's persisted state lives on disk. See
/// the module docs for the layout.
#[derive(Debug)]
pub(crate) struct FileMirror {
    dir: PathBuf,
    generation: u64,
    /// Frame boundaries in the live log file: persisted record `i`
    /// starts at `offsets[i]`, and the last entry is where the live
    /// region ends.
    offsets: Vec<u64>,
    io: FileIoStats,
    /// Test hook: the next checkpoint commit powers off after writing
    /// the new generation's files but *before* flipping `CURRENT`.
    checkpoint_crash_armed: bool,
}

impl FileMirror {
    /// Opens (or initialises) the store rooted at `dir` and loads the
    /// image a previous incarnation left there: the live generation
    /// named by `CURRENT`, after sweeping `*.tmp` files and orphan
    /// generations from interrupted checkpoints.
    pub(crate) fn open(dir: PathBuf) -> Result<(Self, StableStore), StorageError> {
        fs::create_dir_all(&dir).map_err(|e| io_err(IoOp::Create, &dir, e))?;
        let current = dir.join("CURRENT");
        let generation = match fs::read_to_string(&current) {
            Ok(text) => parse_current(&text).ok_or_else(|| {
                StorageError::Io(io_error(IoOp::Read, &current, "malformed CURRENT pointer"))
            })?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                write_current(&dir, 0)?;
                0
            }
            Err(e) => return Err(io_err(IoOp::Read, &current, e)),
        };
        let mut mirror = FileMirror {
            dir,
            generation,
            offsets: vec![0],
            io: FileIoStats::default(),
            checkpoint_crash_armed: false,
        };
        mirror.sweep_orphans();
        let image = mirror.load()?;
        Ok((mirror, image))
    }

    pub(crate) fn io_stats(&self) -> FileIoStats {
        self.io
    }

    pub(crate) fn arm_checkpoint_crash(&mut self) {
        self.checkpoint_crash_armed = true;
    }

    fn log_path(&self) -> PathBuf {
        self.dir.join(format!("log-{}", self.generation))
    }

    fn records_path(&self) -> PathBuf {
        self.dir.join(format!("records-{}", self.generation))
    }

    /// Number of persisted log records on disk.
    fn frames(&self) -> usize {
        self.offsets.len() - 1
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

    /// The image a reopen finds in the live generation's files: a torn
    /// tail scanned as a record that cannot verify, and a checkpoint
    /// that fails its checksum as a fault on every record read.
    fn load(&mut self) -> Result<StableStore, StorageError> {
        let path = self.records_path();
        let (records, records_fault) = match read_file(&path)?.as_deref().map(decode_records) {
            None => (BTreeMap::new(), None),
            Some(Ok(records)) => (records, None),
            Some(Err(detail)) => (BTreeMap::new(), Some(io_error(IoOp::Read, &path, detail))),
        };
        let (log, offsets) = scan_log(&read_file(&self.log_path())?.unwrap_or_default());
        self.offsets = offsets;
        Ok(StableStore::reopened(records, log, records_fault))
    }

    /// Replaces `image` with what the disk holds, as a reopen would see
    /// it, keeping its incarnation epoch. An unreadable disk leaves an
    /// empty image.
    pub(crate) fn reload(&mut self, image: &mut StableStore) {
        let epoch = image.epoch();
        *image = self.load().unwrap_or_else(|_| {
            self.offsets = vec![0];
            StableStore::new()
        });
        image.set_epoch(epoch);
    }

    /// Writes what `image` is about to persist, then commits it: the
    /// staged frames and the records file, or on a staged truncation a
    /// whole new generation.
    pub(crate) fn commit(&mut self, image: &mut StableStore) -> Result<(), StorageError> {
        if image.staged_truncate {
            return self.checkpoint(image);
        }
        if !image.staged_log.is_empty() {
            self.write_log(self.frames(), &image.staged_log, &[])?;
        }
        if image.has_staged_records() {
            let path = self.records_path();
            self.atomic_write(&path, &encode_records_file(image))?;
            image.records_fault = None;
        }
        image.commit_staged();
        Ok(())
    }

    /// The checkpointing commit: writes the next generation's record and
    /// log files, then flips `CURRENT` atomically.
    fn checkpoint(&mut self, image: &mut StableStore) -> Result<(), StorageError> {
        let next = self.generation + 1;
        let records_path = self.dir.join(format!("records-{next}"));
        let log_path = self.dir.join(format!("log-{next}"));
        // Both files are invisible until CURRENT names generation
        // `next`, so they can be written in place (clobbering any
        // orphan from a previously interrupted checkpoint).
        self.write_synced(&records_path, &encode_records_file(image))?;
        let (log, ends) = encode_frames(&image.staged_log, 0);
        self.write_synced(&log_path, &log)?;

        if std::mem::take(&mut self.checkpoint_crash_armed) {
            // Simulated power failure in the vulnerable window: the new
            // generation is fully on disk but CURRENT still names the
            // old one, so the store must come back on the old state.
            image.crash();
            self.reload(image);
            return Ok(());
        }

        write_current(&self.dir, next)?;
        self.sync_dir()?;
        let _ = fs::remove_file(self.log_path());
        let _ = fs::remove_file(self.records_path());
        self.generation = next;
        self.offsets = std::iter::once(0).chain(ends).collect();
        image.records_fault = None;
        image.commit_staged();
        Ok(())
    }

    /// Runs the image's torn crash, writes what reached the platter —
    /// the intact prefix as complete frames, then the torn record as a
    /// physically short one — and reloads the image from disk.
    pub(crate) fn crash_torn(&mut self, image: &mut StableStore, rng: &mut SimRng) {
        let staged = image.staged_log.clone();
        let index = image.persisted_log.len();
        image.crash_torn(rng);
        if let Some((torn, intact)) = image.persisted_log[index..].split_last() {
            // The header names the full payload, but only the bytes
            // that landed (and no checksum) follow it.
            let full = staged[intact.len()].bytes.len() as u32;
            let mut short = full.to_le_bytes().to_vec();
            short.extend_from_slice(&torn.epoch.to_le_bytes());
            short.extend_from_slice(&torn.bytes);
            let _ = self.write_log(index, intact, &short);
        }
        self.reload(image);
    }

    /// Keeps the live log file's first `index` frames, writes `records`
    /// as the frames after them and then the raw `tail`, and fsyncs.
    pub(crate) fn write_log(
        &mut self,
        index: usize,
        records: &[LogRecord],
        tail: &[u8],
    ) -> Result<(), StorageError> {
        let index = index.min(self.frames());
        let start = self.offsets[index];
        let (mut bytes, ends) = encode_frames(records, start);
        bytes.extend_from_slice(tail);
        let path = self.log_path();
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(&path)
            .map_err(|e| io_err(IoOp::Open, &path, e))?;
        file.set_len(start)
            .map_err(|e| io_err(IoOp::Truncate, &path, e))?;
        file.seek(SeekFrom::Start(start))
            .map_err(|e| io_err(IoOp::Seek, &path, e))?;
        file.write_all(&bytes)
            .map_err(|e| io_err(IoOp::Write, &path, e))?;
        self.io.file_bytes_written += bytes.len() as u64;
        self.sync_file(&file, &path)?;
        self.offsets.truncate(index + 1);
        self.offsets.extend(ends);
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

    /// Writes `bytes` as the whole of `path` and fsyncs it.
    fn write_synced(&mut self, path: &Path, bytes: &[u8]) -> Result<(), StorageError> {
        let mut file = File::create(path).map_err(|e| io_err(IoOp::Create, path, e))?;
        file.write_all(bytes)
            .map_err(|e| io_err(IoOp::Write, path, e))?;
        self.io.file_bytes_written += bytes.len() as u64;
        self.sync_file(&file, path)
    }

    /// Writes `bytes` to `<path>.tmp`, fsyncs, and renames over `path`.
    fn atomic_write(&mut self, path: &Path, bytes: &[u8]) -> Result<(), StorageError> {
        let tmp = tmp_path(path);
        self.write_synced(&tmp, bytes)?;
        fs::rename(&tmp, path).map_err(|e| io_err(IoOp::Rename, path, e))?;
        self.sync_dir()
    }
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

fn io_error(op: IoOp, path: &Path, detail: impl ToString) -> IoError {
    IoError {
        op,
        path: path.display().to_string(),
        detail: detail.to_string(),
    }
}

fn io_err(op: IoOp, path: &Path, e: std::io::Error) -> StorageError {
    StorageError::Io(io_error(op, path, e))
}

/// A file's bytes, or `None` if it does not exist.
fn read_file(path: &Path) -> Result<Option<Vec<u8>>, StorageError> {
    match fs::read(path) {
        Ok(bytes) => Ok(Some(bytes)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(io_err(IoOp::Read, path, e)),
    }
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

/// The frames of `records`, each `[len: u32 LE][epoch: u64 LE]
/// [payload][checksum: u64 LE]`, and the file offset each one ends at
/// when written at `start`.
fn encode_frames(records: &[LogRecord], start: u64) -> (Vec<u8>, Vec<u64>) {
    let mut bytes = Vec::new();
    let mut ends = Vec::with_capacity(records.len());
    for record in records {
        bytes.extend_from_slice(&(record.bytes.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&record.epoch.to_le_bytes());
        bytes.extend_from_slice(&record.bytes);
        bytes.extend_from_slice(&record.checksum.to_le_bytes());
        ends.push(start + bytes.len() as u64);
    }
    (bytes, ends)
}

/// Little-endian fields off the front of a byte slice; every read is
/// `None` once the bytes run out.
struct LeReader<'a>(&'a [u8]);

impl<'a> LeReader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let (head, rest) = self.0.split_at_checked(n)?;
        self.0 = rest;
        Some(head)
    }

    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N)?.try_into().ok()
    }

    fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// A `[len: u32 LE][bytes]` chunk.
    fn chunk(&mut self) -> Option<&'a [u8]> {
        let len = self.u32()?;
        self.take(len as usize)
    }
}

/// Scans a log file into sealed records and their frame boundaries.
///
/// A physically incomplete final frame (torn write) is surfaced as the
/// [`LogRecord::torn`] record the image's own torn crash leaves, so
/// `verify_log` reports the same tail `Checksum` fault on either
/// backend.
fn scan_log(bytes: &[u8]) -> (Vec<LogRecord>, Vec<u64>) {
    let mut reader = LeReader(bytes);
    let (mut log, mut offsets) = (Vec::new(), vec![0]);
    while !reader.0.is_empty() {
        let record = read_frame(&mut reader).unwrap_or_else(|(epoch, payload)| {
            reader.0 = &[];
            LogRecord::torn(epoch, payload)
        });
        log.push(record);
        offsets.push((bytes.len() - reader.0.len()) as u64);
    }
    (log, offsets)
}

/// Reads one frame, or the epoch and payload bytes of a torn one.
fn read_frame<'a>(reader: &mut LeReader<'a>) -> Result<LogRecord, (u64, &'a [u8])> {
    let (Some(len), Some(epoch)) = (reader.u32(), reader.u64()) else {
        // Not even a full header landed: a torn, payload-less tail.
        return Err((0, &[]));
    };
    let Some(payload) = reader.take(len as usize) else {
        return Err((epoch, reader.0));
    };
    let checksum = reader.u64().ok_or((epoch, payload))?;
    Ok(LogRecord {
        epoch,
        bytes: payload.into(),
        checksum,
    })
}

/// Checkpoint file format: `[count: u64 LE]` then per record
/// `[klen: u32 LE][key][vlen: u32 LE][value]`, sealed with a trailing
/// `checksum64` over everything before it. The map is the image's
/// records as the commit leaves them.
fn encode_records_file(image: &StableStore) -> Vec<u8> {
    let count = image.records_after_commit().count() as u64;
    let mut out = count.to_le_bytes().to_vec();
    for (key, value) in image.records_after_commit() {
        out.extend_from_slice(&(key.len() as u32).to_le_bytes());
        out.extend_from_slice(key.as_bytes());
        out.extend_from_slice(&(value.len() as u32).to_le_bytes());
        out.extend_from_slice(value);
    }
    let checksum = checksum64(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Decodes a checkpoint file, or says what is wrong with it. A corrupt
/// one is not an open error: recovery fail-stops on the fault every
/// record read reports.
fn decode_records(bytes: &[u8]) -> Result<BTreeMap<String, Arc<[u8]>>, &'static str> {
    const TRUNCATED: &str = "checkpoint entry truncated";
    if bytes.len() < 16 {
        return Err("checkpoint file truncated");
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 8);
    if LeReader(trailer).u64() != Some(checksum64(body)) {
        return Err("checkpoint checksum mismatch");
    }
    let mut reader = LeReader(body);
    let count = reader.u64().ok_or(TRUNCATED)?;
    let mut records = BTreeMap::new();
    for _ in 0..count {
        let key = reader.chunk().ok_or(TRUNCATED)?;
        let key = std::str::from_utf8(key).map_err(|_| "checkpoint key not UTF-8")?;
        let value = reader.chunk().ok_or(TRUNCATED)?;
        if crate::codec::unseal(value).is_none() {
            return Err("checkpoint record checksum mismatch");
        }
        records.insert(key.to_string(), value.into());
    }
    Ok(records)
}

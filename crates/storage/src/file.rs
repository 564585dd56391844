//! The file mirror: a [`StableStore`] image's persisted state on disk.
//!
//! The mirror keeps no staged state and makes no fault decisions; the
//! image does both (see [`StorageHandle`](crate::StorageHandle)). The
//! mirror only does the I/O, on an actual directory:
//!
//! ```text
//! <dir>/CURRENT       "g=<n>\n" — which generation is live
//! <dir>/log-<n>       generation n: its log entries and record puts
//! <dir>/*.tmp         an in-flight `CURRENT` write (garbage after a crash)
//! ```
//!
//! **Frames.** A log entry is `[len: u32][epoch: u64][head: u32]
//! [payload][checksum: u64]`, little-endian: `head` seals `len` and
//! `epoch`, and the checksum is [`LogRecord`]'s (`checksum64(epoch ||
//! payload)`). A commit's record puts are one frame under the epoch
//! [`RECORD`], no incarnation's, its payload a run of `[klen: u32][key]
//! [vlen: u32][value]`: they land all or none, and a reopen takes each
//! key's last put.
//!
//! **One write per commit.** A commit appends its staged entries, then
//! its record puts, in one write and one fsync. A power failure
//! mid-append leaves a physically short final frame, which the open scan
//! surfaces as a record whose checksum cannot match — the torn *final*
//! record recovery truncates on the sim backend too. A header that fails
//! its seal is rot, never a tear, and leaves the frame's extent unknown:
//! the scan surfaces it as a mid-log fault. It, or a record frame that
//! fails a seal, fails every record read.
//!
//! **Checkpoint atomicity.** A checkpoint must replace the record map
//! *and* swap the log in one crash-atomic step (committing them
//! independently can pair an old log with a new base, or lose green
//! entries — both protocol violations). So it writes the *next*
//! generation's file — the whole record map, `base` included, then the
//! compacted log — fsyncs it, and flips a one-line `CURRENT` pointer
//! via tmp + fsync + rename (scfs-style); a crash on either side of the
//! rename leaves one complete generation live and the other as garbage
//! swept at the next open.

use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use todr_sim::{checksum64_of, SimRng};

use crate::api::FileIoStats;
use crate::store::{IoError, IoOp, LogRecord, StableStore, StorageError};

/// The epoch field of a record-put frame.
const RECORD: u64 = u64::MAX;

/// Bytes of a frame's header: `len`, `epoch` and their seal.
const HEADER: usize = 16;

/// Where a [`StableStore`] image's persisted state lives on disk. See
/// the module docs for the layout.
#[derive(Debug)]
pub(crate) struct FileMirror {
    dir: PathBuf,
    generation: u64,
    io: FileIoStats,
    /// Test hook: the next checkpoint commit powers off after writing
    /// the new generation's file but *before* flipping `CURRENT`.
    checkpoint_crash_armed: bool,
}

impl FileMirror {
    /// Opens (or initialises) the store rooted at `dir` and loads the
    /// image a previous incarnation left there: the live generation
    /// named by `CURRENT`, after sweeping `*.tmp` files and orphan
    /// generations from interrupted checkpoints. A missing `CURRENT`
    /// beside generation files, or one naming a generation whose file is
    /// gone, is an open error: a sweep would lose the store.
    pub(crate) fn open(dir: PathBuf) -> Result<(Self, StableStore), StorageError> {
        fs::create_dir_all(&dir).map_err(|e| io_err(IoOp::Create, &dir, e))?;
        let current = dir.join("CURRENT");
        let generation = match fs::read_to_string(&current) {
            Ok(text) => parse_current(&text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                let files = fs::read_dir(&dir).into_iter().flatten().flatten();
                let mut names = files.map(|f| f.file_name().to_string_lossy().into_owned());
                let fresh = !names.any(|name| name.starts_with("log-"));
                fresh.then(|| start_fresh(&dir)).transpose()?.map(|()| 0)
            }
            Err(e) => return Err(io_err(IoOp::Read, &current, e)),
        };
        // A crash can leave a fresh store's generation 0 without a file.
        let held = |g: &u64| *g == 0 || dir.join(format!("log-{g}")).exists();
        let generation = generation.filter(held).ok_or_else(|| {
            let detail = "CURRENT does not name a generation the directory holds";
            StorageError::Io(io_error(IoOp::Read, &current, detail))
        })?;
        let mirror = FileMirror {
            dir,
            generation,
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

    /// Removes `*.tmp` files and files of non-live generations — the
    /// residue of a checkpoint interrupted on either side of its
    /// `CURRENT` flip.
    fn sweep_orphans(&self) {
        let live = format!("log-{}", self.generation);
        for entry in fs::read_dir(&self.dir).into_iter().flatten().flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.ends_with(".tmp") || (name.starts_with("log-") && name != live) {
                let _ = fs::remove_file(entry.path());
            }
        }
    }

    /// The image a reopen finds in the live generation's file: a torn
    /// tail scanned as a record that cannot verify, each key at its last
    /// put, and a failed seal as the module docs say.
    fn load(&self) -> Result<StableStore, StorageError> {
        let path = self.log_path();
        let bytes = read_file(&path)?.unwrap_or_default();
        let mut image = StableStore::new();
        let mut fault = None;
        for frame in frames(&bytes) {
            let (log, epoch) = (&mut image.persisted_log, frame.epoch);
            match frame.checksum {
                Some(checksum) if epoch == RECORD => match record_puts(frame.payload, checksum) {
                    Some(puts) => puts.for_each(|(key, value)| image.put_record_shared(key, value)),
                    None => fault = fault.or(Some("record frame or seal checksum mismatch")),
                },
                Some(checksum) => {
                    let bytes = frame.payload.into();
                    log.push(LogRecord {
                        epoch,
                        bytes,
                        checksum,
                    })
                }
                None => log.push(LogRecord::torn(epoch, frame.payload)),
            }
            if frame.rot {
                // What follows the header is unframed: a record after
                // the fault, and any record put in it is lost.
                image.persisted_log.push(LogRecord::torn(epoch, &[]));
                fault = fault.or(Some("frame header checksum mismatch"));
            }
        }
        image.records_fault = fault.map(|detail| io_error(IoOp::Read, &path, detail));
        image.commit_staged();
        Ok(image)
    }

    /// Replaces `image` with what the disk holds, as a reopen would see
    /// it, keeping its incarnation epoch. An unreadable disk leaves an
    /// empty image.
    pub(crate) fn reload(&self, image: &mut StableStore) {
        let epoch = image.epoch();
        *image = self.load().unwrap_or_default();
        image.set_epoch(epoch);
    }

    /// Writes what `image` is about to persist, then commits it: the
    /// staged entries and record puts appended in one write, or on a
    /// staged truncation a whole new generation.
    pub(crate) fn commit(&mut self, image: &mut StableStore) -> Result<(), StorageError> {
        if image.staged_truncate {
            return self.checkpoint(image);
        }
        let mut bytes = Vec::new();
        put_entries(&mut bytes, &image.staged_log);
        put_records(&mut bytes, image.staged_records());
        if !bytes.is_empty() {
            self.write(&self.log_path(), None, &bytes)?;
            self.io.forced_writes += 1;
        }
        image.commit_staged();
        Ok(())
    }

    /// The checkpointing commit: writes the next generation's file —
    /// every record, then the compacted log — then flips `CURRENT`
    /// atomically.
    fn checkpoint(&mut self, image: &mut StableStore) -> Result<(), StorageError> {
        let next = self.generation + 1;
        let mut bytes = Vec::new();
        put_records(&mut bytes, image.records_after_commit());
        put_entries(&mut bytes, &image.staged_log);
        // The file is invisible until CURRENT names generation `next`,
        // so it can be written in place (clobbering any orphan from a
        // previously interrupted checkpoint).
        let (fsyncs, written) = (self.io.fsyncs, self.io.file_bytes_written);
        self.write(&self.dir.join(format!("log-{next}")), Some(0), &bytes)?;

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
        self.io.checkpoint_fsyncs += self.io.fsyncs - fsyncs;
        self.io.checkpoint_bytes += self.io.file_bytes_written - written;
        let _ = fs::remove_file(self.log_path());
        self.generation = next;
        image.records_fault = None;
        image.commit_staged();
        Ok(())
    }

    /// Runs the image's torn crash, appends what reached the platter —
    /// the intact prefix as complete frames, then the torn record as a
    /// physically short one — and reloads the image from disk.
    pub(crate) fn crash_torn(&mut self, image: &mut StableStore, rng: &mut SimRng) {
        let staged = image.staged_log.clone();
        let index = image.persisted_log.len();
        image.crash_torn(rng);
        if let Some((torn, intact)) = image.persisted_log[index..].split_last() {
            let mut bytes = Vec::new();
            put_entries(&mut bytes, intact);
            // The header names the full payload, but only the bytes
            // that landed (and no checksum) follow it.
            let full = staged[intact.len()].bytes.len();
            bytes.extend_from_slice(&header(full, torn.epoch));
            bytes.extend_from_slice(&torn.bytes);
            let _ = self.write(&self.log_path(), None, &bytes);
        }
        self.reload(image);
    }

    /// Rewrites the live file from persisted log entry `from` on: the
    /// image's entries from there, then the record puts that lay past
    /// the cut, as they were.
    pub(crate) fn rewrite(&mut self, from: usize, image: &StableStore) -> Result<(), StorageError> {
        let old = read_file(&self.log_path())?.unwrap_or_default();
        let entries = frames(&old).filter(|f| f.epoch != RECORD || f.checksum.is_none());
        let start = entries.map(|f| f.at).nth(from).unwrap_or(old.len());
        let mut bytes = Vec::new();
        let kept = image.persisted_log.get(from..).unwrap_or_default();
        put_entries(&mut bytes, kept);
        for put in frames(&old[start..]).filter(|f| f.epoch == RECORD && f.checksum.is_some()) {
            bytes.extend_from_slice(&old[start + put.at..start + put.end]);
        }
        self.write(&self.log_path(), Some(start as u64), &bytes)
    }

    /// Writes `bytes` to the file at `path` — after its first `keep`
    /// bytes, or appended — and fsyncs.
    fn write(&mut self, path: &Path, keep: Option<u64>, bytes: &[u8]) -> Result<(), StorageError> {
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(path)
            .map_err(|e| io_err(IoOp::Open, path, e))?;
        if let Some(keep) = keep {
            file.set_len(keep)
                .map_err(|e| io_err(IoOp::Truncate, path, e))?;
        }
        file.seek(keep.map_or(SeekFrom::End(0), SeekFrom::Start))
            .map_err(|e| io_err(IoOp::Seek, path, e))?;
        file.write_all(bytes)
            .map_err(|e| io_err(IoOp::Write, path, e))?;
        self.io.file_bytes_written += bytes.len() as u64;
        self.sync_file(&file, path)
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

/// Starts a fresh store: `CURRENT` naming generation 0, an empty
/// `log-0`, and one directory fsync (an open's, not counted in
/// [`FileIoStats`]) before a commit appends to `log-0` and syncs it.
fn start_fresh(dir: &Path) -> Result<(), StorageError> {
    write_current(dir, 0)?;
    let log = dir.join("log-0");
    File::create(&log).map_err(|e| io_err(IoOp::Create, &log, e))?;
    let sync = File::open(dir).and_then(|handle| handle.sync_all());
    sync.map_err(|e| io_err(IoOp::Sync, dir, e))
}

/// Writes the `CURRENT` pointer via tmp + fsync + rename.
fn write_current(dir: &Path, generation: u64) -> Result<(), StorageError> {
    let (path, tmp) = (dir.join("CURRENT"), dir.join("CURRENT.tmp"));
    let mut file = File::create(&tmp).map_err(|e| io_err(IoOp::Create, &tmp, e))?;
    file.write_all(format!("g={generation}\n").as_bytes())
        .map_err(|e| io_err(IoOp::Write, &tmp, e))?;
    file.sync_all().map_err(|e| io_err(IoOp::Sync, &tmp, e))?;
    fs::rename(&tmp, &path).map_err(|e| io_err(IoOp::Rename, &path, e))?;
    Ok(())
}

/// Appends log entries' frames: each sealed record as it stands.
fn put_entries<'a>(out: &mut Vec<u8>, records: impl IntoIterator<Item = &'a LogRecord>) {
    for record in records {
        out.extend_from_slice(&header(record.bytes.len(), record.epoch));
        out.extend_from_slice(&record.bytes);
        out.extend_from_slice(&record.checksum.to_le_bytes());
    }
}

/// Appends `puts` as one frame, sealed like an entry under [`RECORD`];
/// nothing if there are none.
fn put_records<'a>(out: &mut Vec<u8>, puts: impl Iterator<Item = (&'a str, &'a [u8])>) {
    let at = out.len() + HEADER;
    out.resize(at, 0);
    for part in puts.flat_map(|(key, value)| [key.as_bytes(), value]) {
        out.extend_from_slice(&(part.len() as u32).to_le_bytes());
        out.extend_from_slice(part);
    }
    let len = out.len() - at;
    if len == 0 {
        return out.truncate(at - HEADER);
    }
    let checksum = LogRecord::compute(RECORD, &out[at..]);
    out[at - HEADER..at].copy_from_slice(&header(len, RECORD));
    out.extend_from_slice(&checksum.to_le_bytes());
}

/// `[len][epoch][head]`, `head` sealing the two fields before it.
fn header(len: usize, epoch: u64) -> [u8; HEADER] {
    let mut out = [0; HEADER];
    out[..4].copy_from_slice(&(len as u32).to_le_bytes());
    out[4..12].copy_from_slice(&epoch.to_le_bytes());
    let seal = checksum64_of(&[&out[..12]]) as u32;
    out[12..].copy_from_slice(&seal.to_le_bytes());
    out
}

/// One frame of a live file, between byte offsets `at` and `end`. A
/// physically short final frame (a torn write) has no checksum, as the
/// image's own torn record ([`LogRecord::torn`]); nor has one whose
/// header fails its seal (`rot`), which runs to the end of the file.
struct Frame<'a> {
    at: usize,
    end: usize,
    epoch: u64,
    payload: &'a [u8],
    checksum: Option<u64>,
    rot: bool,
}

/// The frames of a live file, in order.
fn frames(bytes: &[u8]) -> impl Iterator<Item = Frame<'_>> {
    std::iter::successors(frame_at(bytes, 0), |f| frame_at(bytes, f.end))
}

/// The frame starting at `at`, if any bytes do. Less than a header is a
/// torn, payload-less tail.
fn frame_at(bytes: &[u8], at: usize) -> Option<Frame<'_>> {
    let rest = bytes.get(at..).filter(|rest| !rest.is_empty())?;
    let (head, body) = rest.split_at_checked(HEADER).unwrap_or_default();
    let len = head.get(..4).map_or(0, le_u32) as usize;
    let epoch = head.get(4..12).map_or(0, le_u64);
    let rot = !head.is_empty() && head[..] != header(len, epoch)[..];
    let size = HEADER + len + 8;
    let whole = !head.is_empty() && !rot && bytes.len() - at >= size;
    Some(Frame {
        at,
        end: if whole { at + size } else { bytes.len() },
        epoch,
        payload: body.get(..len).unwrap_or(body),
        checksum: whole.then(|| le_u64(&body[len..len + 8])),
        rot,
    })
}

fn le_u32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes.try_into().unwrap_or_default())
}

fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().unwrap_or_default())
}

/// A verified record frame's puts, in order; `None` if the frame or a
/// put's own seal fails.
fn record_puts(payload: &[u8], checksum: u64) -> Option<impl Iterator<Item = (&str, Arc<[u8]>)>> {
    (checksum == LogRecord::compute(RECORD, payload)).then_some(())?;
    let (mut rest, mut puts) = (payload, Vec::new());
    while !rest.is_empty() {
        let key = std::str::from_utf8(take_part(&mut rest)?).ok()?;
        let value = take_part(&mut rest)?;
        crate::codec::unseal(value)?;
        puts.push((key, value));
    }
    Some(puts.into_iter().map(|(key, value)| (key, value.into())))
}

/// Takes one `[len: u32 LE][bytes]` part off the front of `rest`.
fn take_part<'a>(rest: &mut &'a [u8]) -> Option<&'a [u8]> {
    let (len, tail) = rest.split_at_checked(4)?;
    let (part, tail) = tail.split_at_checked(le_u32(len) as usize)?;
    *rest = tail;
    Some(part)
}

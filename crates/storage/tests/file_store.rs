//! File-backed `StorageHandle` crash-consistency tests on real files.
//!
//! Everything here runs in a throwaway directory under the OS temp dir;
//! each test gets its own so they can run in parallel.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use todr_sim::SimRng;
use todr_storage::{seal_record, LogFaultKind, StorageError, StorageHandle};

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

/// A unique test directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let n = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("todr-file-store-{}-{tag}-{n}", std::process::id()));
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }

    fn path(&self) -> PathBuf {
        self.0.clone()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn open(dir: &TempDir) -> StorageHandle {
    StorageHandle::file(dir.path()).expect("open file store")
}

#[test]
fn records_and_log_survive_reopen() {
    let dir = TempDir::new("reopen");
    {
        let mut store = open(&dir);
        store.put_record_bytes("base", seal_record(b"v1"));
        store.append_log(b"action-1".to_vec());
        store.append_log(b"action-2".to_vec());
        store.commit_staged().unwrap();
    }
    let store = open(&dir);
    assert_eq!(
        store.get_record_bytes("base").unwrap(),
        Some(seal_record(b"v1"))
    );
    let log = store.read_log();
    assert_eq!(log.len(), 2);
    assert_eq!(&log[0].bytes[..], b"action-1");
    assert_eq!(&log[1].bytes[..], b"action-2");
    assert!(log.iter().all(|r| r.is_valid()));
    assert_eq!(store.verify_log(), Ok(()));
}

#[test]
fn staged_data_is_lost_on_crash_and_on_reopen() {
    let dir = TempDir::new("staged");
    let mut store = open(&dir);
    store.put_record_bytes("durable", seal_record(b"yes"));
    store.append_log(b"durable-entry".to_vec());
    store.commit_staged().unwrap();
    store.put_record_bytes("staged", seal_record(b"no"));
    store.append_log(b"staged-entry".to_vec());

    store.crash();
    assert_eq!(store.get_record_bytes("staged").unwrap(), None);
    assert_eq!(store.log_len(), 1);

    let reopened = open(&dir);
    assert_eq!(reopened.get_record_bytes("staged").unwrap(), None);
    assert_eq!(
        reopened.get_record_bytes("durable").unwrap(),
        Some(seal_record(b"yes"))
    );
    assert_eq!(reopened.log_len(), 1);
}

#[test]
fn torn_crash_leaves_a_repairable_tail_on_disk() {
    for seed in 0..16u64 {
        let dir = TempDir::new("torn");
        let mut rng = SimRng::new(seed);
        let mut store = open(&dir);
        store.append_log(b"durable-1".to_vec());
        store.append_log(b"durable-2".to_vec());
        store.commit_staged().unwrap();
        store.append_log(b"staged-1-padding-padding".to_vec());
        store.append_log(b"staged-2-padding-padding".to_vec());
        store.crash_torn(&mut rng);
        assert!(!store.has_staged());

        // The torn record must be observed through a real reopen, not
        // just the surviving in-memory mirror.
        drop(store);
        let mut reopened = open(&dir);
        let fault = reopened.verify_log().expect_err("tail must be torn");
        assert_eq!(fault.kind, LogFaultKind::Checksum);
        assert_eq!(fault.index + 1, reopened.log_len() as u64);
        assert!(fault.index >= 2, "durable prefix survived");

        // Repair: truncate the tear; the repair is itself durable.
        reopened.truncate_log_from(fault.index);
        assert_eq!(reopened.verify_log(), Ok(()));
        drop(reopened);
        let after_repair = open(&dir);
        assert_eq!(after_repair.verify_log(), Ok(()));
        assert!(after_repair.log_len() >= 2);
    }
}

#[test]
fn bit_flip_on_disk_is_caught_after_reopen() {
    let dir = TempDir::new("bitflip");
    let mut store = open(&dir);
    store.append_log(b"record-one".to_vec());
    store.append_log(b"record-two".to_vec());
    store.append_log(b"record-three".to_vec());
    store.commit_staged().unwrap();
    let fault = store
        .inject_bit_flip(&mut SimRng::new(0xB17))
        .expect("log is non-empty");

    drop(store);
    let reopened = open(&dir);
    let err = reopened.verify_log().expect_err("bit rot must be caught");
    assert_eq!(err.index, fault.index);
    assert_eq!(err.kind, LogFaultKind::Checksum);
}

#[test]
fn stale_sector_on_disk_is_caught_after_reopen() {
    let dir = TempDir::new("stale");
    let mut store = open(&dir);
    store.append_log(b"record-one".to_vec());
    store.append_log(b"record-two".to_vec());
    store.append_log(b"record-three".to_vec());
    store.commit_staged().unwrap();
    let fault = store
        .inject_stale_sector(&mut SimRng::new(0x57A1E))
        .expect("log has at least two records");
    assert!(fault.index >= 1);

    drop(store);
    let reopened = open(&dir);
    let err = reopened
        .verify_log()
        .expect_err("stale sector must be caught");
    assert_eq!(err.index, fault.index);
}

#[test]
fn epoch_regression_survives_reopen() {
    let dir = TempDir::new("epoch");
    let mut store = open(&dir);
    store.set_epoch(3);
    store.append_log(b"incarnation-3".to_vec());
    store.commit_staged().unwrap();
    store.set_epoch(1);
    store.append_log(b"stale-incarnation-1".to_vec());
    store.commit_staged().unwrap();

    drop(store);
    let reopened = open(&dir);
    let err = reopened
        .verify_log()
        .expect_err("regression must be caught");
    assert_eq!(err.index, 1);
    assert_eq!(err.kind, LogFaultKind::EpochRegression);
}

#[test]
fn checkpoint_swaps_generation_atomically() {
    let dir = TempDir::new("checkpoint");
    let mut store = open(&dir);
    store.append_log(b"old-1".to_vec());
    store.append_log(b"old-2".to_vec());
    store.put_record_bytes("base", seal_record(b"v1"));
    store.commit_staged().unwrap();

    // Checkpoint: replace the base, truncate + relog the tail.
    store.put_record_bytes("base", seal_record(b"v2"));
    store.truncate_log();
    store.append_log(b"compacted".to_vec());
    store.commit_staged().unwrap();

    drop(store);
    let reopened = open(&dir);
    assert_eq!(
        reopened.get_record_bytes("base").unwrap(),
        Some(seal_record(b"v2"))
    );
    let log = reopened.read_log();
    assert_eq!(log.len(), 1);
    assert_eq!(&log[0].bytes[..], b"compacted");
    assert_eq!(reopened.verify_log(), Ok(()));
}

/// Property: a checkpoint interrupted between writing the new
/// generation's files and flipping `CURRENT` recovers to the previous
/// checkpoint — both in-process (crash semantics) and across a reopen
/// (orphan sweep).
#[test]
fn interrupted_checkpoint_recovers_previous_state() {
    for seed in 0..24u64 {
        let dir = TempDir::new("interrupted");
        let mut rng = SimRng::new(seed);
        let mut store = open(&dir);

        // A varying durable baseline.
        let n_durable = 1 + rng.gen_range(4) as usize;
        let mut baseline = Vec::new();
        for i in 0..n_durable {
            let entry = format!("durable-{seed}-{i}").into_bytes();
            baseline.push(entry.clone());
            store.append_log(entry);
        }
        store.put_record_bytes("base", seal_record(format!("base-{seed}").as_bytes()));
        store.commit_staged().unwrap();

        // A checkpoint that powers off in the vulnerable window.
        store.put_record_bytes("base", seal_record(b"NEW-BASE-MUST-NOT-SURVIVE"));
        store.truncate_log();
        store.append_log(b"NEW-TAIL-MUST-NOT-SURVIVE".to_vec());
        store.arm_checkpoint_crash();
        store.commit_staged().unwrap();

        let check = |store: &StorageHandle, ctx: &str| {
            assert_eq!(
                store.get_record_bytes("base").unwrap(),
                Some(seal_record(format!("base-{seed}").as_bytes())),
                "{ctx}: old base must be live"
            );
            let log = store.read_log();
            assert_eq!(
                log.iter().map(|r| r.bytes.to_vec()).collect::<Vec<_>>(),
                baseline,
                "{ctx}: old log must be intact"
            );
            assert_eq!(store.verify_log(), Ok(()), "{ctx}");
        };
        check(&store, "in-process");

        drop(store);
        let reopened = open(&dir);
        check(&reopened, "after reopen");

        // The swept store still checkpoints cleanly afterwards.
        let mut store = reopened;
        store.truncate_log();
        store.append_log(b"post-recovery".to_vec());
        store.commit_staged().unwrap();
        assert_eq!(store.read_log().len(), 1);
    }
}

/// A record whose seal fails — here, bytes never sealed — makes the
/// checkpoint that holds it fail at reopen, like one that rotted on disk.
#[test]
fn a_checkpoint_holding_an_unsealed_record_fails_record_reads() {
    let dir = TempDir::new("unsealed-record");
    {
        let mut store = open(&dir);
        store.put_record_bytes("base", b"no seal".to_vec());
        store.commit_staged().unwrap();
        assert_eq!(
            store.get_record::<String>("base"),
            Err(StorageError::RecordChecksum)
        );
    }
    match open(&dir).get_record_bytes("base") {
        Err(StorageError::Io(e)) => assert!(e.detail.contains("checksum")),
        other => panic!("expected Io error, got {other:?}"),
    }
}

#[test]
fn corrupt_checkpoint_file_fails_record_reads() {
    let dir = TempDir::new("corrupt-records");
    {
        let mut store = open(&dir);
        store.put_record_bytes("base", seal_record(b"value-bytes-to-damage"));
        store.commit_staged().unwrap();
    }
    // Rot one payload byte of the record's put on disk.
    let path = dir.path().join("log-0");
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, bytes).unwrap();

    let store = open(&dir);
    match store.get_record_bytes("base") {
        Err(StorageError::Io(e)) => assert!(e.detail.contains("checksum")),
        other => panic!("expected Io error, got {other:?}"),
    }
}

/// The same operations on either backend, building a two-record
/// sealed log across a checkpoint and an epoch change.
fn seal_log(handle: &mut StorageHandle) {
    handle.set_epoch(2);
    handle.append_log(b"alpha".to_vec());
    handle.append_log(b"beta".to_vec());
    handle.commit_staged().unwrap();
    handle.truncate_log();
    handle.append_log(b"gamma".to_vec());
    handle.commit_staged().unwrap();
    handle.set_epoch(3);
    handle.append_log(b"delta".to_vec());
    handle.commit_staged().unwrap();
}

/// The two backends must agree byte-for-byte on the sealed log a given
/// operation sequence produces, and on every fault a seeded schedule
/// injects into it — that is what lets recovery logic and oracles run
/// unchanged against either.
#[test]
fn file_and_sim_backends_agree_on_sealed_log() {
    let dir = TempDir::new("parity");
    let mut file = StorageHandle::file(dir.path()).unwrap();
    let mut sim = StorageHandle::sim();
    seal_log(&mut file);
    seal_log(&mut sim);
    assert_eq!(file.read_log(), sim.read_log());
    assert_eq!(file.verify_log(), Ok(()));
    assert_eq!(file.epoch(), sim.epoch());

    for seed in 0..16u64 {
        let dir = TempDir::new("parity-faults");
        let mut file = StorageHandle::file(dir.path()).unwrap();
        let mut sim = StorageHandle::sim();
        let (mut file_rng, mut sim_rng) = (SimRng::new(seed), SimRng::new(seed));
        for handle in [&mut file, &mut sim] {
            seal_log(handle);
            handle.append_log(b"epsilon-in-flight".to_vec());
            handle.append_log(b"zeta-in-flight".to_vec());
        }
        file.crash_torn(&mut file_rng);
        sim.crash_torn(&mut sim_rng);
        assert_eq!(file.read_log(), sim.read_log(), "seed {seed}: torn");
        assert_eq!(file.verify_log(), sim.verify_log(), "seed {seed}: torn");
        assert!(
            sim.verify_log().is_err(),
            "seed {seed}: the tear went unseen"
        );
        let flipped = file.inject_bit_flip(&mut file_rng);
        assert_eq!(flipped, sim.inject_bit_flip(&mut sim_rng), "seed {seed}");
        assert!(flipped.is_some(), "seed {seed}: nothing to rot");
        let stale = file.inject_stale_sector(&mut file_rng);
        assert_eq!(stale, sim.inject_stale_sector(&mut sim_rng), "seed {seed}");
        assert!(stale.is_some(), "seed {seed}: no earlier sector");
        assert_eq!(file.read_log(), sim.read_log(), "seed {seed}: damaged");
        assert_eq!(file.verify_log(), sim.verify_log(), "seed {seed}: damaged");

        drop(file);
        let reopened = StorageHandle::file(dir.path()).unwrap();
        assert_eq!(reopened.read_log(), sim.read_log(), "seed {seed}: reopened");
        assert_eq!(
            reopened.verify_log(),
            sim.verify_log(),
            "seed {seed}: reopened"
        );
    }
}

#[test]
fn file_backend_reports_real_io_stats() {
    let dir = TempDir::new("iostats");
    let mut store = StorageHandle::file(dir.path()).unwrap();
    assert_eq!(store.io_stats().unwrap().fsyncs, 0);
    store.append_log(b"entry".to_vec());
    store.commit_staged().unwrap();
    let stats = store.io_stats().unwrap();
    assert!(stats.fsyncs >= 1);
    assert!(stats.file_bytes_written > 0);

    // The sim backend has no wall-clock I/O to report.
    assert_eq!(StorageHandle::sim().io_stats(), None);
}

/// A forced write is one append and one fsync, whatever it carries: log
/// entries and record puts share the frame file, and the record map is
/// not rewritten.
#[test]
fn a_commit_with_entries_and_records_makes_one_fsync() {
    let dir = TempDir::new("one-fsync");
    let mut store = open(&dir);
    store.put_record_bytes("base", seal_record(&[0xBA; 4096]));
    store.commit_staged().unwrap();
    for round in 0..3u8 {
        let before = store.io_stats().unwrap();
        store.append_log(vec![round; 40]);
        store.append_log(vec![round; 60]);
        store.put_record_bytes("counter", seal_record(&[round]));
        store.put_record_bytes("yellow", seal_record(b"set"));
        store.commit_staged().unwrap();
        let after = store.io_stats().unwrap();
        assert_eq!(after.fsyncs - before.fsyncs, 1, "round {round}");
        assert_eq!(after.forced_writes - before.forced_writes, 1);
        // Two entries and two puts, framed: the base is not rewritten.
        let written = after.file_bytes_written - before.file_bytes_written;
        assert!(written < 300, "round {round}: {written} B");
    }
    // A commit with nothing staged writes nothing.
    let before = store.io_stats().unwrap();
    store.commit_staged().unwrap();
    assert_eq!(store.io_stats().unwrap(), before);
    let names: Vec<String> = std::fs::read_dir(dir.path())
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    assert_eq!(names.len(), 2, "one file per generation: {names:?}");
}

/// A record put again within a generation reloads as its last put; a
/// put lost with its commit does not count.
#[test]
fn a_record_re_put_within_a_generation_reloads_last_wins() {
    let dir = TempDir::new("last-wins");
    {
        let mut store = open(&dir);
        for value in [b"one", b"two"] {
            store.put_record_bytes("k", seal_record(value));
            store.append_log(value.to_vec());
            store.commit_staged().unwrap();
        }
        store.put_record_bytes("other", seal_record(b"x"));
        store.commit_staged().unwrap();
        store.put_record_bytes("k", seal_record(b"lost"));
        store.crash();
        assert_eq!(
            store.get_record_bytes("k").unwrap(),
            Some(seal_record(b"two"))
        );
    }
    let reopened = open(&dir);
    assert_eq!(
        reopened.get_record_bytes("k").unwrap(),
        Some(seal_record(b"two"))
    );
    assert_eq!(
        reopened.get_record_bytes("other").unwrap(),
        Some(seal_record(b"x"))
    );
    assert_eq!(reopened.log_len(), 2);
    assert_eq!(reopened.verify_log(), Ok(()));
}

/// Cutting a damaged final entry keeps the record puts its commit made
/// after it: the cut rewrites them, and a reopen reads them back.
#[test]
fn cutting_a_final_entry_keeps_the_puts_committed_with_it() {
    for seed in 0..8u64 {
        let dir = TempDir::new("cut-keeps-puts");
        let mut store = open(&dir);
        store.put_record_bytes("counter", seal_record(b"1"));
        store.append_log(b"first".to_vec());
        store.commit_staged().unwrap();
        store.append_log(b"second".to_vec());
        store.put_record_bytes("counter", seal_record(b"2"));
        store.commit_staged().unwrap();
        if store
            .inject_bit_flip(&mut SimRng::new(seed))
            .map(|f| f.index)
            != Some(1)
        {
            continue;
        }
        drop(store);
        let mut reopened = open(&dir);
        let fault = reopened.verify_log().expect_err("the flip is seen");
        assert_eq!(fault.index, 1);
        reopened.truncate_log_from(fault.index);
        drop(reopened);
        let repaired = open(&dir);
        assert_eq!(repaired.verify_log(), Ok(()));
        assert_eq!(repaired.log_len(), 1);
        let counter = repaired.get_record_bytes("counter").unwrap();
        assert_eq!(counter, Some(seal_record(b"2")), "seed {seed}");
        return;
    }
    panic!("no seed flipped the final entry");
}

/// A store whose `CURRENT` pointer is gone, or names a generation with
/// no file, refuses to open instead of sweeping its generations away.
#[test]
fn a_missing_or_dangling_current_is_an_open_error() {
    let dir = TempDir::new("current");
    {
        let mut store = open(&dir);
        store.append_log(b"entry".to_vec());
        store.truncate_log();
        store.append_log(b"compacted".to_vec());
        store.commit_staged().unwrap();
    }
    let current = dir.path().join("CURRENT");
    std::fs::write(&current, "g=9\n").unwrap();
    assert!(matches!(
        StorageHandle::file(dir.path()),
        Err(StorageError::Io(_))
    ));
    std::fs::remove_file(&current).unwrap();
    assert!(matches!(
        StorageHandle::file(dir.path()),
        Err(StorageError::Io(_))
    ));
    std::fs::write(&current, "g=1\n").unwrap();
    assert_eq!(open(&dir).read_log().len(), 1);
}

/// A commit's record puts are one frame: an append cut anywhere inside
/// it keeps none of them, so a reopen never mixes one commit's records
/// with an older commit's.
#[test]
fn a_commits_record_puts_land_all_or_none() {
    let dir = TempDir::new("all-or-none");
    let keys = ["attempt_index", "green_lines", "prim_component", "yellow"];
    let (clean, committed) = {
        let mut store = open(&dir);
        for key in keys {
            store.put_record_bytes(key, seal_record(b"old"));
        }
        store.commit_staged().unwrap();
        let clean = std::fs::metadata(dir.path().join("log-0")).unwrap().len();
        for key in keys {
            store.put_record_bytes(key, seal_record(b"new"));
        }
        store.commit_staged().unwrap();
        (
            clean as usize,
            std::fs::read(dir.path().join("log-0")).unwrap(),
        )
    };
    for cut in clean..committed.len() {
        std::fs::write(dir.path().join("log-0"), &committed[..cut]).unwrap();
        let store = open(&dir);
        let values: Vec<_> = keys
            .iter()
            .map(|key| store.get_record_bytes(key).unwrap())
            .collect();
        assert!(
            values.iter().all(|v| *v == Some(seal_record(b"old"))),
            "cut at {cut}: {values:?}"
        );
    }
}

/// Rot in a frame's length is not a torn tail: the header seal fails,
/// the scan reports a fault before the log's end, and every record read
/// fails, so recovery cannot cut the entry and the puts after it and
/// go on without them.
#[test]
fn rot_in_a_final_entrys_length_is_a_mid_log_fault() {
    for bit in [0u8, 7, 15, 31] {
        let dir = TempDir::new("length-rot");
        {
            let mut store = open(&dir);
            store.append_log(b"first".to_vec());
            store.commit_staged().unwrap();
            store.append_log(b"final".to_vec());
            store.put_record_bytes("counter", seal_record(b"2"));
            store.commit_staged().unwrap();
        }
        let path = dir.path().join("log-0");
        let mut bytes = std::fs::read(&path).unwrap();
        // The second frame starts after the first: header, payload, checksum.
        let second = 16 + b"first".len() + 8;
        bytes[second + bit as usize / 8] ^= 1 << (bit % 8);
        std::fs::write(&path, &bytes).unwrap();
        let store = open(&dir);
        let fault = store.verify_log().expect_err("the rot is seen");
        assert_eq!(
            (fault.index, fault.kind),
            (1, LogFaultKind::Checksum),
            "bit {bit}"
        );
        assert!(fault.index + 1 < store.log_len() as u64, "bit {bit}");
        assert!(store.get_record_bytes("counter").is_err(), "bit {bit}");
    }
}

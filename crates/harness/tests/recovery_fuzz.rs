//! `Recover` (CodeSegment A.13) over hostile stable-storage images. Once
//! a disk has held a replica's records and log they are outside input:
//! whatever a flipped bit, a cut record, a missing base record or a base
//! record from another incarnation leaves there, recovery must end in a
//! recovered replica or in a fail-stop with a typed `RecoveryError` —
//! never a panic — and must not request more heap than a fixed budget
//! per byte of the image.
//!
//! The images are real: a three-replica cluster runs under load with a
//! small checkpoint interval, replica 2 crashes twice, and what its
//! stable storage holds after each crash is a starting image. Each case
//! copies one into a fresh sim store, damages the copy, and recovers an
//! engine over it in a world of its own. Named records are sealed, so a
//! flipped bit or a cut inside one is a typed fail-stop naming the
//! record, never a recovery to some other database.
//!
//! The file-directory forms run the same recovery over a real store
//! directory the same load left on the file backend: a flip and a cut
//! in every frame of the live `log-<g>` (entry frames and record-put
//! frames alike), a missing `CURRENT`, and a `CURRENT` naming a
//! generation that is not there. An open error is typed too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use todr_core::{EngineConfig, EngineCtl, EngineState, RecoveryError, ReplicationEngine};
use todr_harness::client::ClientConfig;
use todr_harness::cluster::{BackendKind, Cluster, ClusterConfig};
use todr_net::NodeId;
use todr_sim::{Actor, Ctx, Payload, SimDuration, SimRng, World};
use todr_storage::StorageHandle;

// ---------------------------------------------------------------
// Allocation accounting: bytes requested by the current thread.
// ---------------------------------------------------------------

struct CountingAlloc;

thread_local! {
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    // `try_with`: the allocator also runs while a thread tears down.
    let _ = REQUESTED.try_with(|r| r.set(r.get().saturating_add(bytes)));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a thread-local
// counter that neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the bytes it requested.
fn counting<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = REQUESTED.with(Cell::get);
    let result = f();
    (result, REQUESTED.with(Cell::get) - before)
}

/// What one recovery may request: 8 B per byte of the image plus 64 KiB.
/// The rebuilt state is larger than its encoding (a decoded row, a
/// retained body, a replayed green's database path copy), but by a
/// constant factor per image byte, never by what a damaged length or
/// count field claims. The worst case measured here requests 4.6 B per
/// image byte.
fn allocation_budget(image_bytes: usize) -> usize {
    8 * image_bytes + 64 * 1024
}

// ---------------------------------------------------------------
// Images
// ---------------------------------------------------------------

/// The named records a replica writes (`todr_core::persist`), by their
/// on-disk keys.
const KEYS: [&str; 9] = [
    "base",
    "prim_component",
    "attempt_index",
    "vulnerable",
    "yellow",
    "green_lines",
    "server_set",
    "action_index",
    "incarnation",
];

/// What stable storage holds: the named records present, as stored
/// (seal included), and the log as (incarnation epoch, payload) pairs,
/// oldest first.
#[derive(Clone, Debug)]
struct Image {
    records: Vec<(&'static str, Vec<u8>)>,
    log: Vec<(u64, Vec<u8>)>,
}

impl Image {
    fn of(store: &StorageHandle) -> Image {
        let records = KEYS
            .iter()
            .filter_map(|&key| {
                let bytes = store.get_record_bytes(key).expect("sim store reads");
                bytes.map(|b| (key, b))
            })
            .collect();
        let log = store
            .log_records()
            .map(|r| (r.epoch, r.bytes.to_vec()))
            .collect();
        Image { records, log }
    }

    fn bytes(&self) -> usize {
        let records: usize = self.records.iter().map(|(_, b)| b.len()).sum();
        records + self.log.iter().map(|(_, b)| b.len()).sum::<usize>()
    }

    fn record(&self, key: &str) -> Option<&Vec<u8>> {
        self.records.iter().find(|(k, _)| *k == key).map(|(_, b)| b)
    }

    fn with_record(&self, key: &'static str, bytes: Option<Vec<u8>>) -> Image {
        let mut image = self.clone();
        image.records.retain(|(k, _)| *k != key);
        image.records.extend(bytes.map(|b| (key, b)));
        image
    }

    /// The image as a durable sim store: every record committed, every
    /// log entry sealed under its epoch (so a damaged payload here is
    /// one the writer itself sealed, and only the decoder and the
    /// colouring rules can object to it).
    fn store(&self) -> StorageHandle {
        let mut store = StorageHandle::sim();
        for (key, bytes) in &self.records {
            store.put_record_bytes(key, bytes.clone());
        }
        for (epoch, bytes) in &self.log {
            store.set_epoch(*epoch);
            store.append_log(bytes.clone());
        }
        store.commit_staged().expect("sim store cannot fail");
        store
    }
}

/// Byte positions to damage in an encoding of `len` bytes: all of a
/// short one; the head, the tail and evenly spaced interior bytes of a
/// long one.
fn positions(len: usize) -> Vec<usize> {
    if len <= 16 {
        return (0..len).collect();
    }
    let interior = (1..=8).map(|i| i * len / 9);
    let mut at: Vec<usize> = (0..6).chain(interior).chain(len - 6..len).collect();
    at.dedup();
    at
}

fn flipped(bytes: &[u8], at: usize, bit: u8) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[at] ^= 1 << bit;
    out
}

/// Strict prefixes to cut an encoding of `len` bytes to.
fn cuts(len: usize) -> Vec<usize> {
    let mut at = vec![0, 1, len / 2, len.saturating_sub(1)];
    at.retain(|&c| c < len);
    at.dedup();
    at
}

/// Three replicas under load, checkpointing every 32 greens, on
/// `backend`.
fn loaded(backend: BackendKind) -> Cluster {
    let config = ClusterConfig::builder(3, 0x5eed)
        .checkpoint_interval(32)
        .backend(backend)
        .build()
        .expect("coherent config");
    let mut cluster = Cluster::build(config);
    cluster.settle();
    for i in 0..3 {
        cluster.attach_client(i, ClientConfig::default());
    }
    cluster
}

/// Replica 2's durable image after its first crash, and after it has
/// recovered, caught up, checkpointed again and crashed a second time.
fn images() -> (Image, Image) {
    let mut cluster = loaded(BackendKind::Sim);
    let victim = 2;
    let crash_and_read = |cluster: &mut Cluster| {
        cluster.run_for(SimDuration::from_millis(700));
        cluster.crash(victim);
        cluster.run_for(SimDuration::from_millis(10));
        assert_eq!(cluster.engine_state(victim), EngineState::Down);
        cluster.with_engine(victim, |e| Image::of(e.storage()))
    };
    let first = crash_and_read(&mut cluster);
    cluster.recover(victim);
    let second = crash_and_read(&mut cluster);
    (first, second)
}

// ---------------------------------------------------------------
// Recovery over one image
// ---------------------------------------------------------------

/// Swallows whatever the recovering engine sends its daemon, disk and
/// fabric.
struct Sink;

impl Actor for Sink {
    fn handle(&mut self, _: &mut Ctx<'_>, _: Payload) {}
}

/// Recovers replica 2 of `0..3` over `store`: its green count, or the
/// error it fail-stopped with; and the bytes the recovery requested.
fn recover(store: StorageHandle) -> (Result<u64, RecoveryError>, usize) {
    let mut world = World::new(1);
    let sink = world.add_actor("sink", Sink);
    let servers: Vec<NodeId> = (0..3).map(NodeId::new).collect();
    let mut cfg = EngineConfig::new(NodeId::new(2), servers);
    cfg.initial_member = false;
    let engine = ReplicationEngine::with_storage(cfg, sink, sink, sink, store);
    let engine = world.add_actor("engine", engine);
    world.schedule_now(engine, EngineCtl::Recover);
    let (stepped, requested) = counting(|| world.step());
    assert!(stepped, "the recovery event ran");
    let outcome = world.with_actor_ref(engine, |e: &ReplicationEngine| match e.recovery_error() {
        None => {
            assert_eq!(e.state(), EngineState::NonPrim);
            Ok(e.green_count())
        }
        Some(error) => {
            assert_eq!(e.state(), EngineState::Down);
            Err(error.clone())
        }
    });
    (outcome, requested)
}

/// Tallies the verdicts, holds every case to the budget and names the
/// cases that panicked instead of ending in a verdict.
#[derive(Default, Debug)]
struct Tally {
    cases: usize,
    recovered: usize,
    failed: usize,
    panicked: Vec<String>,
}

impl Tally {
    fn run(&mut self, name: &str, image: &Image) -> Option<Result<u64, RecoveryError>> {
        self.run_store(name, image.bytes(), image.store(), 0)
    }

    /// Recovers over `store`, whose opening requested `opening` bytes.
    fn run_store(
        &mut self,
        name: &str,
        image_bytes: usize,
        store: StorageHandle,
        opening: usize,
    ) -> Option<Result<u64, RecoveryError>> {
        self.cases += 1;
        let Ok((outcome, requested)) = catch_unwind(AssertUnwindSafe(|| recover(store))) else {
            self.panicked.push(name.to_string());
            return None;
        };
        let requested = requested + opening;
        let budget = allocation_budget(image_bytes);
        assert!(
            requested <= budget,
            "{name}: recovery requested {requested} B, budget {budget} B for {image_bytes} B"
        );
        match outcome {
            Ok(_) => self.recovered += 1,
            Err(_) => self.failed += 1,
        }
        Some(outcome)
    }
}

#[test]
fn recovery_over_damaged_images_recovers_or_fails_typed() {
    let (first, second) = images();
    assert_ne!(
        first.record("base"),
        second.record("base"),
        "one checkpoint between"
    );
    let mut tally = Tally::default();
    for (which, image) in [("first", &first), ("second", &second)] {
        let clean = tally.run(which, image);
        assert!(
            matches!(clean, Some(Ok(green)) if green > 0),
            "{which}: {clean:?}"
        );

        for (key, bytes) in &image.records {
            let fails_on_its_seal = |name: &str, outcome| match outcome {
                Some(Err(RecoveryError::CorruptRecord { key: named, detail })) => {
                    assert_eq!(named, *key, "{name}");
                    assert!(detail.contains("checksum"), "{name}: {detail}");
                }
                other => panic!("{name}: {other:?}"),
            };
            for at in positions(bytes.len()) {
                for bit in [0, 7] {
                    let damaged = image.with_record(key, Some(flipped(bytes, at, bit)));
                    let name = format!("{which} {key} flip {at}.{bit}");
                    fails_on_its_seal(&name, tally.run(&name, &damaged));
                }
            }
            for cut in cuts(bytes.len()) {
                let torn = image.with_record(key, Some(bytes[..cut].to_vec()));
                let name = format!("{which} {key} cut {cut}");
                fails_on_its_seal(&name, tally.run(&name, &torn));
            }
        }

        for (index, (_, bytes)) in image.log.iter().enumerate() {
            let len = bytes.len();
            for at in [0, len / 2, len - 1] {
                let mut damaged = image.clone();
                damaged.log[index].1 = flipped(bytes, at, 0);
                _ = tally.run(&format!("{which} log {index} flip {at}"), &damaged);
            }
            let mut torn = image.clone();
            torn.log[index].1.truncate(len / 2);
            _ = tally.run(&format!("{which} log {index} cut"), &torn);
        }

        // Rot under the writer's checksum: the scan catches it, as a
        // torn tail or a mid-log fault.
        for seed in 0..8 {
            let mut store = image.store();
            let hit = store
                .inject_bit_flip(&mut SimRng::new(seed))
                .expect("a log");
            let outcome = tally.run_store(&format!("{which} rot {seed}"), image.bytes(), store, 0);
            let tail = hit.index + 1 == image.log.len() as u64;
            match outcome {
                Some(Ok(_)) => assert!(tail, "{which} rot {seed}: a mid-log fault recovered"),
                Some(Err(RecoveryError::MidLogFault { index, .. })) => {
                    assert_eq!(index, hit.index)
                }
                other => panic!("{which} rot {seed}: {other:?}"),
            }
        }

        let unbased = tally.run(
            &format!("{which} no base"),
            &image.with_record("base", None),
        );
        assert!(
            matches!(unbased, Some(Err(_))),
            "{which}: a log without its base: {unbased:?}"
        );
    }

    // Each image's log over the other incarnation's base.
    for (name, image, other) in [("first", &first, &second), ("second", &second, &first)] {
        let swapped = image.with_record("base", other.record("base").cloned());
        let outcome = tally.run(&format!("{name} over the other base"), &swapped);
        assert!(
            matches!(outcome, Some(Err(_))),
            "{name}: a log over another base: {outcome:?}"
        );
    }

    eprintln!("{tally:?}");
    assert!(
        tally.panicked.is_empty(),
        "cases that panicked: {:?}",
        tally.panicked
    );
    assert_eq!(tally.cases, tally.recovered + tally.failed);
    // The count is a function of the two seeded images (946 when this
    // test was written, 1,100 once own actions were logged at creation);
    // the range bounds its run time and its reach.
    assert!((500..2_000).contains(&tally.cases), "{} cases", tally.cases);
}

// ---------------------------------------------------------------
// Store directories
// ---------------------------------------------------------------

/// A store directory's files: name and bytes.
type Files = Vec<(String, Vec<u8>)>;

/// Replica 2's store directory on the file backend after a crash under
/// the load `images` runs.
fn directory() -> Files {
    let mut cluster = loaded(BackendKind::File);
    cluster.run_for(SimDuration::from_millis(700));
    cluster.crash(2);
    cluster.run_for(SimDuration::from_millis(10));
    let root = cluster
        .storage_root()
        .expect("file backend")
        .join("server-n2");
    let mut files: Files = std::fs::read_dir(&root)
        .expect("the store directory")
        .map(|entry| {
            let entry = entry.expect("a directory entry");
            let name = entry.file_name().into_string().expect("an ASCII name");
            let bytes = std::fs::read(entry.path()).expect("a readable file");
            (name, bytes)
        })
        .collect();
    files.sort();
    files
}

/// The frames of a live log file (`[len: u32][epoch: u64][head: u32]
/// [payload][checksum: u64]`): each one's start and end, and whether it
/// holds record puts (epoch `u64::MAX`).
fn frames(bytes: &[u8]) -> Vec<(usize, usize, bool)> {
    let mut frames = Vec::new();
    let mut at = 0;
    while let Some(header) = bytes.get(at..at + 16) {
        let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
        let epoch = u64::from_le_bytes(header[4..12].try_into().unwrap());
        let end = at + 16 + len + 8;
        assert!(end <= bytes.len(), "a clean directory has whole frames");
        frames.push((at, end, epoch == u64::MAX));
        at = end;
    }
    frames
}

impl Tally {
    /// Writes `files` into a fresh directory, opens a file store there
    /// and recovers over it; an open error is a typed failure.
    fn run_files(&mut self, name: &str, files: &Files) -> Option<Result<u64, RecoveryError>> {
        self.run_files_then(name, files, |_| {})
    }

    /// [`Tally::run_files`], then `after` over the directory the
    /// recovery left.
    fn run_files_then(
        &mut self,
        name: &str,
        files: &Files,
        after: impl FnOnce(&Path),
    ) -> Option<Result<u64, RecoveryError>> {
        let dir = std::env::temp_dir().join(format!(
            "todr-recovery-fuzz-{}-{}",
            std::process::id(),
            self.cases
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("a scratch directory");
        for (file, bytes) in files {
            std::fs::write(dir.join(file), bytes).expect("a written file");
        }
        let image_bytes = files.iter().map(|(_, bytes)| bytes.len()).sum();
        let outcome = self.open_and_run(name, image_bytes, &dir);
        after(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        outcome
    }

    fn open_and_run(
        &mut self,
        name: &str,
        image_bytes: usize,
        dir: &Path,
    ) -> Option<Result<u64, RecoveryError>> {
        let opened = catch_unwind(AssertUnwindSafe(|| counting(|| StorageHandle::file(dir))));
        let (store, opening) = match opened {
            Ok((Ok(store), opening)) => (store, opening),
            Ok((Err(_), opening)) => {
                self.cases += 1;
                self.failed += 1;
                assert!(
                    opening <= allocation_budget(image_bytes),
                    "{name}: {opening} B"
                );
                return None;
            }
            Err(_) => {
                self.cases += 1;
                self.panicked.push(name.to_string());
                return None;
            }
        };
        self.run_store(name, image_bytes, store, opening)
    }
}

#[test]
fn recovery_over_damaged_store_directories_recovers_or_fails_typed() {
    let files = directory();
    let names: Vec<&str> = files.iter().map(|(name, _)| name.as_str()).collect();
    let (index, live) = files
        .iter()
        .enumerate()
        .find(|(_, (name, _))| name.starts_with("log-"))
        .map(|(index, (name, _))| (index, name.clone()))
        .expect("a live generation");
    assert_eq!(names.len(), 2, "CURRENT and one generation: {names:?}");
    assert_ne!(live, "log-0", "the load checkpoints");
    let mut tally = Tally::default();
    let clean = tally.run_files("clean", &files);
    assert!(matches!(clean, Some(Ok(green)) if green > 0), "{clean:?}");

    let log = &files[index].1;
    let frames = frames(log);
    let puts = frames.iter().filter(|(.., put)| *put).count();
    assert!(
        puts > 0 && puts < frames.len(),
        "{puts} of {} frames",
        frames.len()
    );
    let with_log = |bytes: Vec<u8>| {
        let mut damaged = files.clone();
        damaged[index].1 = bytes;
        damaged
    };
    for (frame, &(start, end, put)) in frames.iter().enumerate() {
        let kind = if put { "put" } else { "entry" };
        // The length, the epoch, the payload's middle, the checksum.
        for at in [start, start + 4, (start + 12 + end - 8) / 2, end - 1] {
            let mut bytes = log.clone();
            bytes[at] ^= 1;
            _ = tally.run_files(&format!("{kind} {frame} flip {at}"), &with_log(bytes));
        }
        let cut = log[..(start + end) / 2].to_vec();
        _ = tally.run_files(&format!("{kind} {frame} cut"), &with_log(cut));
    }

    // A high bit of the final entry's length: read as a torn frame, it
    // would run to the end of the file and take the creator counter put
    // after it along when recovery cut it.
    let counter = |dir: &Path| {
        let store = StorageHandle::file(dir).expect("the directory opens");
        store.get_record_bytes("action_index").ok().flatten()
    };
    let mut committed = None;
    _ = tally.run_files_then("clean, its counter", &files, |dir| {
        committed = counter(dir);
    });
    assert!(committed.is_some(), "the load creates actions on replica 2");
    let (start, ..) = frames
        .iter()
        .rev()
        .find(|(.., put)| !put)
        .expect("an entry frame");
    let after = frames.iter().filter(|&&(at, ..)| at > *start);
    assert!(
        after.clone().any(|(.., put)| *put),
        "puts after the final entry"
    );
    for bit in [23, 31] {
        let mut bytes = log.clone();
        bytes[start + bit / 8] ^= 1 << (bit % 8);
        let name = format!("final entry's length, bit {bit}");
        let mut kept = None;
        let outcome = tally.run_files_then(&name, &with_log(bytes), |dir| {
            kept = counter(dir);
        });
        // Otherwise the recovery failed typed (or the open did).
        if let Some(Ok(_)) = outcome {
            assert_eq!(kept, committed, "{name}: the counter was lost");
        }
    }

    let without_current: Files = files
        .iter()
        .filter(|(name, _)| name != "CURRENT")
        .cloned()
        .collect();
    let missing = tally.run_files("no CURRENT", &without_current);
    assert!(missing.is_none(), "a missing CURRENT opens: {missing:?}");
    let generation: u64 = live["log-".len()..].parse().expect("a generation number");
    let mut dangling = files.clone();
    for (name, bytes) in &mut dangling {
        if name == "CURRENT" {
            *bytes = format!("g={}\n", generation + 1).into_bytes();
        }
    }
    let outcome = tally.run_files("CURRENT names an absent generation", &dangling);
    assert!(outcome.is_none(), "a dangling CURRENT opens: {outcome:?}");

    eprintln!("{tally:?}");
    assert!(
        tally.panicked.is_empty(),
        "cases that panicked: {:?}",
        tally.panicked
    );
    assert_eq!(tally.cases, tally.recovered + tally.failed);
    assert!(tally.cases > 5 * frames.len(), "{} cases", tally.cases);
}

//! What the trace oracle allocates for one event must not depend on the
//! index the event names. Green positions, delivery slots and
//! creator-local sequences run densely from 0 or 1 in a real log, but a
//! replayed or corrupted one can name any index: two `Delivered` events
//! at slots 1 and 2^24 once made `check_trace` hold 402.7 MB of heap, and
//! slots near `u32::MAX` aborted it. Each log below is checked at small
//! and at huge indices: the verdict is the same, and so is the peak of
//! live heap bytes, up to one map node.
//!
//! The fuzz tests at the end feed `check_trace` recorded, mutated and
//! random logs, hostile delivery runs among them, and the JSON decoders
//! mutated renderings of the recorded log's events and of its metrics
//! export: each must end in a verdict or a typed error, inside a fixed
//! budget of heap bytes per event or per input byte.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;

#[path = "support/json_mutation.rs"]
mod json_mutation;

use todr_harness::client::ClientConfig;
use todr_harness::cluster::{Cluster, ClusterConfig};
use todr_harness::oracle::{check_trace, TraceStats, TraceViolation};
use todr_sim::{
    DeliveredRun, EventColor, Footprint, MetricsExport, ProtocolEvent as E, ReadTier,
    RecordedEvent, SimDuration, SimRng,
};

use json_mutation::mutate_json;

struct PeakAlloc;

thread_local! {
    static LIVE: Cell<u64> = const { Cell::new(0) };
    static PEAK: Cell<u64> = const { Cell::new(0) };
}

fn grow(bytes: usize) {
    // `try_with`: the allocator also runs while a thread tears down.
    let _ = LIVE.try_with(|live| {
        let now = live.get() + bytes as u64;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

fn shrink(bytes: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get().saturating_sub(bytes as u64)));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is thread-local byte
// counters that neither allocate nor unwind.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Old and new blocks may both be live while the data moves.
        grow(new_size);
        shrink(layout.size());
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Room for the one B-tree node an index far ahead is kept in.
const MAP_NODE: u64 = 1024;

type Verdict = Result<TraceStats, TraceViolation>;

/// `f`'s result, and the most heap bytes it held at once beyond what
/// was live when it started.
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let out = f();
    (out, PEAK.with(Cell::get) - base)
}

/// `check_trace`'s verdict on `events`, and its peak heap bytes.
fn checked(events: &[RecordedEvent], survivors: &[u32]) -> (Verdict, u64) {
    let survivors: BTreeSet<u32> = survivors.iter().copied().collect();
    peak_of(|| check_trace(events, &survivors))
}

/// Checks the log `shape` builds at the `near` indices and at each of
/// the `far` ones: `verdict` maps each to its expected verdict, and
/// every far log may hold no more than the near one plus one map node.
fn index_independent<I: Copy + std::fmt::Debug>(
    near: I,
    far: &[I],
    survivors: &[u32],
    shape: impl Fn(I) -> Vec<RecordedEvent>,
    verdict: impl Fn(I) -> Verdict,
) {
    let (got, near_peak) = checked(&shape(near), survivors);
    assert_eq!(got, verdict(near), "at {near:?}");
    for &at in far {
        let (got, peak) = checked(&shape(at), survivors);
        println!("{at:?}: {peak} B at peak (near: {near_peak} B)");
        assert_eq!(got, verdict(at), "at {at:?}");
        assert!(
            peak <= near_peak + MAP_NODE,
            "{peak} B at peak for {at:?}, {near_peak} B for {near:?}"
        );
    }
}

fn rec(event: E) -> RecordedEvent {
    RecordedEvent {
        at_nanos: 0,
        actor: 0,
        group: 0,
        event,
    }
}

fn delivered(node: u32, seq: u32, sender: u32) -> RecordedEvent {
    rec(E::Delivered {
        node,
        conf_seq: 1,
        coordinator: 0,
        seq,
        sender,
        in_transitional: false,
    })
}

const FAR_SLOTS: [(u32, u32); 2] = [(1, 1 << 24), (u32::MAX - 1, u32::MAX)];

#[test]
fn two_deliveries_far_apart_pass_in_constant_space() {
    index_independent(
        (1, 2),
        &FAR_SLOTS,
        &[],
        |(a, b)| vec![delivered(0, a, 3), delivered(0, b, 3)],
        |_| {
            Ok(TraceStats {
                events: 2,
                ..TraceStats::default()
            })
        },
    );
}

#[test]
fn a_mismatch_at_a_far_slot_is_still_caught() {
    index_independent(
        (1, 2),
        &FAR_SLOTS,
        &[],
        |(a, b)| vec![delivered(0, a, 3), delivered(0, b, 3), delivered(1, b, 4)],
        |(_, b)| {
            Err(TraceViolation::DeliveryMismatch {
                conf_seq: 1,
                coordinator: 0,
                seq: u64::from(b),
                a: (0, 3),
                b: (1, 4),
            })
        },
    );
}

fn green_at(node: u32, green: u64) -> Vec<RecordedEvent> {
    vec![
        rec(E::ActionOrdered {
            node,
            creator: 0,
            action_seq: 1,
            color: EventColor::Green,
        }),
        rec(E::GreenLineAdvance { node, green }),
    ]
}

#[test]
fn a_far_green_position_is_claimed_in_constant_space() {
    // Node 0 claims position `green - 1`; node 1 survives without ever
    // greening, so the durability clause needs the whole prefix.
    index_independent(
        1,
        &[(1 << 24) + 1, u64::from(u32::MAX) + 1, 1 << 40],
        &[0, 1],
        |green| green_at(0, green),
        |green| {
            Err(TraceViolation::GreenActionLost {
                node: 1,
                final_green: 0,
                needed: green,
            })
        },
    );
}

#[test]
fn a_footprinted_action_with_a_huge_seq_is_tracked_in_constant_space() {
    // A fast commit at its origin: the footprint, the receipt (Red),
    // the commit, and its green mark.
    index_independent(
        1,
        &[1 << 24, u64::from(u32::MAX), 1 << 40],
        &[0],
        |seq| {
            vec![
                rec(E::ActionFootprint(Box::new(Footprint {
                    node: 0,
                    action_seq: seq,
                    writes: vec![7],
                    writes_unbounded: false,
                    reads: vec![],
                    reads_unbounded: false,
                    commutative: false,
                    timestamped: false,
                }))),
                rec(E::ActionOrdered {
                    node: 0,
                    creator: 0,
                    action_seq: seq,
                    color: EventColor::Red,
                }),
                rec(E::FastCommit {
                    node: 0,
                    action_seq: seq,
                }),
                rec(E::ActionOrdered {
                    node: 0,
                    creator: 0,
                    action_seq: seq,
                    color: EventColor::Green,
                }),
                rec(E::GreenLineAdvance { node: 0, green: 1 }),
            ]
        },
        |_| {
            Ok(TraceStats {
                events: 5,
                fast_commits_checked: 1,
                ..TraceStats::default()
            })
        },
    );
}

// --- fuzzing the oracle ---

/// Peak live heap bytes `check_trace` may hold per event of its input,
/// beyond [`BASE_BYTES`], a delivery run counting once per slot it
/// stands for (the oracle keeps a claim per slot, in either form). Its
/// largest holding is a 24-byte claim per green position and per
/// delivery slot, in vectors that grow by doubling; a reallocation
/// holds old and new at once, so a vector just past a power of two
/// peaks at 72 bytes per claim.
const BYTES_PER_EVENT: u64 = 80;

/// What the oracle holds whatever the log's length: the first node of
/// each of its maps, per replica where it keeps one per replica.
const BASE_BYTES: u64 = 64 << 10;

/// Cases, each drawn from its own fixed seed, so every run checks the
/// same logs; sized to take seconds in a debug build.
const CASES: u64 = 2_000;

/// Five replicas, packing 8, a bounded closed-loop client each: a
/// cluster whose log's delivery batches are runs.
fn recorded_cluster() -> Cluster {
    let config = ClusterConfig::builder(5, 42)
        .delayed_writes()
        .packing(8)
        .build()
        .expect("coherent config");
    let mut cluster = Cluster::build(config);
    cluster.settle();
    let client = ClientConfig {
        max_requests: Some(40),
        ..ClientConfig::default()
    };
    for i in 0..5 {
        cluster.attach_client(i, client.clone());
    }
    cluster.run_for(SimDuration::from_secs(1));
    cluster
}

fn recorded_log() -> Vec<RecordedEvent> {
    recorded_cluster().world.metrics().events().to_vec()
}

/// An index or slot: mostly small, so clauses meet; sometimes at an edge.
fn num(rng: &mut SimRng) -> u64 {
    match rng.gen_range(8) {
        0 => *rng
            .choose(&[0, u64::from(u32::MAX) - 1, u64::from(u32::MAX), u64::MAX])
            .unwrap_or(&0),
        1 => rng.next_u64(),
        _ => rng.gen_range(12),
    }
}

fn small(rng: &mut SimRng) -> u32 {
    u32::try_from(num(rng)).unwrap_or(u32::MAX)
}

/// A run at `node` of `len` senders from slot `first`.
fn hostile_run(rng: &mut SimRng, node: u32, first: u32, len: usize) -> E {
    let senders: Vec<u32> = (0..len).map(|_| rng.gen_range(5) as u32).collect();
    E::DeliveredRun(DeliveredRun::new(
        node,
        small(rng),
        small(rng) % 5,
        first,
        rng.gen_bool(0.2),
        &senders,
    ))
}

/// One event of any kind the oracle reads, with fields drawn by [`num`].
fn random_event(rng: &mut SimRng) -> E {
    let node = rng.gen_range(5) as u32;
    let color = *rng
        .choose(&[
            EventColor::Red,
            EventColor::Yellow,
            EventColor::Green,
            EventColor::White,
        ])
        .unwrap_or(&EventColor::Red);
    match rng.gen_range(14) {
        0 => E::ActionOrdered {
            node,
            creator: rng.gen_range(5) as u32,
            action_seq: num(rng),
            color,
        },
        1 => E::GreenLineAdvance {
            node,
            green: num(rng),
        },
        2 => E::Delivered {
            node,
            conf_seq: small(rng),
            coordinator: small(rng) % 5,
            seq: small(rng),
            sender: rng.gen_range(5) as u32,
            in_transitional: rng.gen_bool(0.2),
        },
        3 => {
            let (first, len) = (small(rng), 2 + rng.gen_range(6) as usize);
            hostile_run(rng, node, first, len)
        }
        4 => E::EngineCrashed { node },
        5 => E::EngineRecovered {
            node,
            green: num(rng),
        },
        6 => E::BaseSubsumed {
            node,
            creator: rng.gen_range(5) as u32,
            cut: num(rng),
        },
        7 => E::ActionFootprint(Box::new(Footprint {
            node,
            action_seq: num(rng),
            writes: vec![rng.gen_range(4)],
            writes_unbounded: rng.gen_bool(0.1),
            reads: vec![],
            reads_unbounded: rng.gen_bool(0.1),
            commutative: false,
            timestamped: false,
        })),
        8 => E::FastCommit {
            node,
            action_seq: num(rng),
        },
        9 => E::UpdateAcked {
            node,
            creator: node,
            action_seq: num(rng),
        },
        10 => E::ReadServed {
            node,
            key_fp: rng.gen_range(4),
            tier: ReadTier::LeaseLinearizable,
            version: num(rng),
        },
        11 => E::LeaseGranted {
            node,
            conf_seq: small(rng),
            coordinator: small(rng) % 5,
            expires_nanos: num(rng),
            renewal: rng.gen_bool(0.5),
        },
        12 => E::TransitionalConfig {
            node,
            conf_seq: small(rng),
        },
        _ => E::ViewInstalled {
            node,
            conf_seq: small(rng),
            coordinator: small(rng) % 5,
            members: 5,
        },
    }
}

/// Re-encodes `r` with one byte changed; the decoder must answer, and an
/// event it accepts joins the stream.
fn flip_a_byte(rng: &mut SimRng, r: &RecordedEvent) -> Option<RecordedEvent> {
    let mut bytes = serde::bin::to_vec(r);
    let at = 1 + rng.gen_range(bytes.len() as u64 - 1) as usize;
    bytes[at] = rng.next_u64() as u8;
    serde::bin::from_slice(&bytes).ok()
}

/// Applies one mutation to `log`.
fn mutate(rng: &mut SimRng, log: &mut Vec<RecordedEvent>) {
    let at =
        |rng: &mut SimRng, log: &Vec<RecordedEvent>| rng.gen_range(log.len() as u64 + 1) as usize;
    let i = at(rng, log).min(log.len().saturating_sub(1));
    match rng.gen_range(7) {
        0 if !log.is_empty() => {
            log.remove(i);
        }
        1 if !log.is_empty() => {
            let copy = log[i].clone();
            let j = at(rng, log);
            log.insert(j, copy);
        }
        2 if !log.is_empty() => {
            let j = at(rng, log).min(log.len() - 1);
            log.swap(i, j);
        }
        3 if !log.is_empty() => {
            if let Some(changed) = flip_a_byte(rng, &log[i]) {
                log[i] = changed;
            }
        }
        4 => {
            // A run overlapping one already logged, at another node or
            // the same one, shifted by a few slots.
            let runs: Vec<&DeliveredRun> = log
                .iter()
                .filter_map(|r| match &r.event {
                    E::DeliveredRun(run) => Some(run),
                    _ => None,
                })
                .collect();
            if let Some(run) = rng.choose(&runs) {
                let node = rng.gen_range(5) as u32;
                let first = run.first_seq().saturating_add(rng.gen_range(3) as u32);
                let mut senders: Vec<u32> = run.senders().collect();
                if rng.gen_bool(0.5) && senders.len() >= 2 {
                    senders.swap(0, 1);
                }
                let event = E::DeliveredRun(DeliveredRun::new(
                    node,
                    run.conf_seq(),
                    run.coordinator(),
                    first,
                    run.in_transitional(),
                    &senders,
                ));
                log.insert(at(rng, log), rec(event));
            }
        }
        5 => {
            let first = u32::MAX - rng.gen_range(8) as u32;
            let len = 2 + rng.gen_range(64) as usize;
            let node = rng.gen_range(5) as u32;
            let event = hostile_run(rng, node, first, len);
            log.insert(at(rng, log), rec(event));
        }
        _ => {
            let event = random_event(rng);
            log.insert(at(rng, log), rec(event));
        }
    }
}

/// Events a log counts for the budget: a run once per slot.
fn weight(log: &[RecordedEvent]) -> u64 {
    log.iter()
        .map(|r| r.event.delivered_slots().count().max(1) as u64)
        .sum()
}

/// Checks `log` and its allocation budget; returns whether it passed.
fn verdict_within_budget(case: u64, log: &[RecordedEvent], survivors: &[u32]) -> bool {
    let (verdict, peak) = checked(log, survivors);
    let budget = BASE_BYTES + BYTES_PER_EVENT * weight(log);
    assert!(
        peak <= budget,
        "case {case}: {peak} B at peak for {} events (weight {}), budget {budget} B",
        log.len(),
        weight(log)
    );
    verdict.is_ok()
}

#[test]
fn fuzzed_logs_end_in_a_verdict_within_the_byte_budget() {
    let recorded = recorded_log();
    assert!(
        recorded
            .iter()
            .any(|r| matches!(r.event, E::DeliveredRun(_))),
        "the recorded log holds no delivery run"
    );
    let all = [0, 1, 2, 3, 4];
    assert!(verdict_within_budget(0, &recorded, &all));

    // Hostile runs on their own: a million senders from slot 0, and
    // from just below the u32::MAX saturation.
    let mut rng = SimRng::new(20);
    for (case, first) in [(1, 0), (2, u32::MAX - 5)] {
        let big = hostile_run(&mut rng, 0, first, 1_000_000);
        let log = [rec(big.clone()), rec(big)];
        verdict_within_budget(case, &log, &[]);
    }

    let (mut passed, mut violated) = (0, 0);
    for case in 3..CASES {
        let mut rng = SimRng::new(case);
        let mut log = if case % 4 == 0 {
            let len = rng.gen_range(400) as usize;
            (0..len).map(|_| rec(random_event(&mut rng))).collect()
        } else {
            // A prefix: the recorded log cut anywhere passes the
            // clauses that hold at every prefix, so what those find is
            // what the mutations did.
            let len = rng.gen_range(recorded.len() as u64 + 1) as usize;
            recorded[..len].to_vec()
        };
        for _ in 0..1 + rng.gen_range(4) {
            mutate(&mut rng, &mut log);
        }
        // Half the cases check the end-of-run clauses over survivors.
        let survivors: Vec<u32> = match rng.gen_bool(0.5) {
            true => all.iter().copied().filter(|_| rng.gen_bool(0.5)).collect(),
            false => Vec::new(),
        };
        if verdict_within_budget(case, &log, &survivors) {
            passed += 1;
        } else {
            violated += 1;
        }
    }
    println!("{passed} logs passed, {violated} ended in a typed violation");
    assert!(passed > 0 && violated > 0, "the cases never reach one side");
}

// --- fuzzing the JSON decoders ---

/// Peak live heap bytes a JSON decode may hold per byte of its input,
/// beyond [`BASE_BYTES`]. Its largest holding is the parsed value tree:
/// one 32-byte `Value` per two input bytes at the densest (`0,`), in
/// vectors that grow by doubling, so up to 48 B per input byte while a
/// reallocation holds old and new at once. The decoded type is built
/// while the tree is alive; its maps and strings stay under the
/// remaining 16 B per byte.
const JSON_BYTES_PER_BYTE: u64 = 64;

/// JSON cases, each drawn from its own fixed seed; sized to take seconds
/// in a debug build.
const JSON_CASES: u64 = 20_000;

#[test]
fn fuzzed_json_renderings_decode_or_fail_typed_within_the_byte_budget() {
    let cluster = recorded_cluster();
    let events = cluster.world.metrics().events();
    let export = cluster.metrics_export().to_json();
    let (mut decoded, mut rejected) = (0, 0);
    for case in 0..JSON_CASES {
        let mut rng = SimRng::new(case);
        // One case in eight mutates the export, the rest a logged event.
        let is_export = case % 8 == 0;
        let mut json = match rng.choose(events) {
            Some(event) if !is_export => serde::json::to_vec(event).expect("events render"),
            _ => export.clone().into_bytes(),
        };
        for _ in 0..1 + rng.gen_range(3) {
            mutate_json(&mut rng, &mut json);
        }
        let text = String::from_utf8_lossy(&json);
        let (ok, peak) = match is_export {
            true => peak_of(|| MetricsExport::from_json(&text).is_ok()),
            false => peak_of(|| serde::json::from_str::<RecordedEvent>(&text).is_ok()),
        };
        let budget = BASE_BYTES + JSON_BYTES_PER_BYTE * text.len() as u64;
        assert!(
            peak <= budget,
            "case {case}: {peak} B at peak for {} input bytes, budget {budget} B",
            text.len()
        );
        if ok {
            decoded += 1;
        } else {
            rejected += 1;
        }
    }
    println!("{decoded} renderings decoded, {rejected} ended in a typed error");
    assert!(
        decoded > 0 && rejected > 0,
        "the cases never reach one side"
    );
}

//! What the trace oracle allocates for one event must not depend on the
//! index the event names. Green positions, delivery slots and
//! creator-local sequences run densely from 0 or 1 in a real log, but a
//! replayed or corrupted one can name any index: two `Delivered` events
//! at slots 1 and 2^24 once made `check_trace` hold 402.7 MB of heap, and
//! slots near `u32::MAX` aborted it. Each log below is checked at small
//! and at huge indices: the verdict is the same, and so is the peak of
//! live heap bytes, up to one map node.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;

use todr_harness::oracle::{check_trace, TraceStats, TraceViolation};
use todr_sim::{EventColor, Footprint, ProtocolEvent as E, RecordedEvent};

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

/// `check_trace`'s verdict on `events`, and the most heap bytes it held
/// at once beyond what was live when it started.
fn checked(events: &[RecordedEvent], survivors: &[u32]) -> (Verdict, u64) {
    let survivors: BTreeSet<u32> = survivors.iter().copied().collect();
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let verdict = check_trace(events, &survivors);
    (verdict, PEAK.with(Cell::get) - base)
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

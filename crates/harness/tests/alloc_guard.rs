//! Allocation guards. The green-delivery path: a steady window of a
//! 7 × 7 delayed-writes packed cluster may make no more heap allocations
//! per green mark per replica than it does today. The body of an action
//! is encoded once per simulation, and its green apply is done once and
//! shared by every replica on the same database version, so a change
//! that copies per replica again shows up here as a count, independent
//! of how fast the machine is. The lease-read path: a
//! YCSB-shaped cluster may make no more allocations per answered
//! operation, so a per-read allocation shows up the same way. The event
//! log: the same 7 × 7 window may record no more typed events per green
//! mark per replica than it does today.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use todr_core::{ReadConsistency, UpdateReplyPolicy};
use todr_harness::client::{ClientConfig, ZipfianKeys};
use todr_harness::cluster::{Cluster, ClusterConfig};
use todr_sim::SimDuration;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    // `try_with`: the allocator also runs while a thread tears down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a thread-local
// counter that neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const REPLICAS: usize = 7;

/// Allocations (reallocations included) per green mark per replica in
/// the window below, as measured when the ceiling was set: 8.802. The
/// count is deterministic, so any rise is a code change.
const CEILING: f64 = 8.81;

#[test]
fn green_delivery_allocations_per_replica_stay_bounded() {
    let config = ClusterConfig::builder(REPLICAS as u32, 42)
        .delayed_writes()
        .packing(8)
        .build()
        .expect("coherent config");
    let mut cluster = Cluster::build(config);
    cluster.settle();
    for i in 0..REPLICAS {
        cluster.attach_client(i, ClientConfig::default());
    }
    // Warm-up: every client's 64 rows exist and every buffer has grown.
    cluster.run_for(SimDuration::from_secs(1));

    let greens = |c: &mut Cluster| (0..REPLICAS).map(|i| c.green_count(i)).sum::<u64>();
    let before = greens(&mut cluster);
    let allocations_before = ALLOCATIONS.with(Cell::get);
    cluster.run_for(SimDuration::from_secs(1));
    let allocations = ALLOCATIONS.with(Cell::get) - allocations_before;
    let replica_greens = greens(&mut cluster) - before;
    cluster.check_consistency();

    assert!(replica_greens > 10_000, "{replica_greens} green marks");
    let per_green = allocations as f64 / replica_greens as f64;
    println!("{allocations} allocations / {replica_greens} replica greens = {per_green:.3}");
    assert!(
        per_green <= CEILING,
        "{per_green:.3} allocations per green per replica (ceiling {CEILING})"
    );
}

/// Typed events recorded per green mark per replica in the window below,
/// as measured when the ceiling was set: 2.2033 (2.8159 before a
/// delivery batch's run of slots was logged as one event). The count is
/// deterministic, so a change that logs one more event per action per
/// replica (a red mark the same step's green stands for, say) fails here.
const EVENTS_CEILING: f64 = 2.204;

/// The event log is most of a long run's memory: it is kept whole for the
/// trace oracle, so its length per action is what a run costs.
#[test]
fn events_per_green_per_replica_stay_bounded() {
    let config = ClusterConfig::builder(REPLICAS as u32, 42)
        .delayed_writes()
        .packing(8)
        .build()
        .expect("coherent config");
    let mut cluster = Cluster::build(config);
    cluster.settle();
    for i in 0..REPLICAS {
        cluster.attach_client(i, ClientConfig::default());
    }
    cluster.run_for(SimDuration::from_secs(1));

    let greens = |c: &mut Cluster| (0..REPLICAS).map(|i| c.green_count(i)).sum::<u64>();
    let before = greens(&mut cluster);
    let recorded = |c: &Cluster| c.world.metrics().events().len() as u64;
    let events_before = recorded(&cluster);
    cluster.run_for(SimDuration::from_secs(1));
    let events = recorded(&cluster) - events_before;
    let replica_greens = greens(&mut cluster) - before;
    cluster.check_consistency();

    assert!(replica_greens > 10_000, "{replica_greens} green marks");
    let per_green = events as f64 / replica_greens as f64;
    println!("{events} events / {replica_greens} replica greens = {per_green:.4}");
    assert!(
        per_green <= EVENTS_CEILING,
        "{per_green:.4} events per green per replica (ceiling {EVENTS_CEILING})"
    );
}

/// Allocations (reallocations included) per answered operation in the
/// window below, as measured when the ceiling was set: 15.396.
const YCSB_CEILING: f64 = 15.40;

/// Shaped like the benchmark's `ycsb_b_lease_5x10`: 5 replicas and 10
/// closed-loop clients, 95 % linearizable reads on Zipfian keys (served
/// under read leases, or parked behind a receipted write) and fast-path
/// puts.
#[test]
fn lease_read_allocations_per_operation_stay_bounded() {
    let config = ClusterConfig::builder(5, 42)
        .delayed_writes()
        .read_leases(true)
        .fast_path(true)
        .build()
        .expect("coherent config");
    let mut cluster = Cluster::build(config);
    cluster.settle();
    let client = ClientConfig {
        reply_policy: UpdateReplyPolicy::Fast,
        read_pct: 95,
        read_consistency: Some(ReadConsistency::Linearizable),
        zipfian: Some(ZipfianKeys::ycsb(64)),
        ..ClientConfig::default()
    };
    let clients: Vec<_> = (0..10)
        .map(|i| cluster.attach_client(i % 5, client.clone()))
        .collect();
    cluster.run_for(SimDuration::from_secs(1));

    let answered = |c: &mut Cluster| {
        let stats = clients.iter().map(|&h| c.client_stats(h));
        stats.map(|s| s.committed + s.reads).sum::<u64>()
    };
    let before = answered(&mut cluster);
    let allocations_before = ALLOCATIONS.with(Cell::get);
    cluster.run_for(SimDuration::from_secs(1));
    let allocations = ALLOCATIONS.with(Cell::get) - allocations_before;
    let ops = answered(&mut cluster) - before;
    cluster.check_consistency();

    assert!(ops > 10_000, "{ops} answered operations");
    let per_op = allocations as f64 / ops as f64;
    println!("{allocations} allocations / {ops} answered operations = {per_op:.3}");
    assert!(
        per_op <= YCSB_CEILING,
        "{per_op:.3} allocations per answered operation (ceiling {YCSB_CEILING})"
    );
}

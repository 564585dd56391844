//! Allocation guards. The green-delivery path: a steady window of a
//! 7 × 7 delayed-writes packed cluster may make no more heap allocations
//! per green mark per replica than it does today. The body of an action
//! is encoded once per simulation, and its green apply is done once and
//! shared by every replica on the same database version, so a change
//! that copies per replica again shows up here as a count, independent
//! of how fast the machine is. The lease-read path: a
//! YCSB-shaped cluster may make no more allocations per answered
//! operation, so a per-read allocation shows up the same way, and a
//! single lease read costs its request and its reply and nothing else,
//! whether it is served at once, beside a write to another row, or
//! after parking behind a write to its own. The event log: the same
//! 7 × 7 window may record no more typed events per green mark per
//! replica than it does today.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use todr_core::{
    ClientId, ClientReply, ClientRequest, QuerySemantics, ReadConsistency, RequestId,
    UpdateReplyPolicy,
};
use todr_db::{Op, Query, QueryResult, Value};
use todr_harness::client::{ClientConfig, ZipfianKeys};
use todr_harness::cluster::{Cluster, ClusterConfig};
use todr_sim::{Actor, ActorId, Ctx, Payload, SimDuration};

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
/// the window below, as measured when the ceiling was set: 8.458. The
/// count is deterministic, so any rise is a code change.
const CEILING: f64 = 8.46;

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
/// window below, as measured when the ceiling was set: 9.774 (15.266
/// while a lease read cloned its query and built a row-string read set).
const YCSB_CEILING: f64 = 9.78;

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

/// A client that fires its requests at one engine in one instant and
/// counts the query answers that come back.
struct Probe {
    engine: ActorId,
    answers: Vec<QueryResult>,
}

struct Fire(Vec<ClientRequest>);

impl Actor for Probe {
    fn handle(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
        let payload = match payload.try_downcast::<Fire>() {
            Ok(Fire(requests)) => {
                for mut req in requests {
                    req.reply_to = ctx.self_id();
                    ctx.send_now(self.engine, req);
                }
                return;
            }
            Err(p) => p,
        };
        if let Some(ClientReply::QueryAnswer { result, .. }) = payload.downcast::<ClientReply>() {
            self.answers.push(result);
        }
    }
}

fn request(query: Option<Query>, update: Op) -> ClientRequest {
    let read_consistency = query.is_some().then_some(ReadConsistency::Linearizable);
    ClientRequest {
        request: RequestId(1),
        client: ClientId(9),
        reply_to: ActorId::from_raw(0),
        query,
        update,
        query_semantics: QuerySemantics::Strict,
        read_consistency,
        reply_policy: UpdateReplyPolicy::OnGreen,
        size_bytes: 64,
    }
}

/// The server the reads go to, and the one that writes.
const READER: usize = 2;
const WRITER: usize = 0;

/// Sends `update` to server 0 from a fresh client.
fn fire_write(cluster: &mut Cluster, update: Op) {
    let engine = cluster.servers[WRITER].engine;
    let answers = Vec::new();
    let writer = cluster.world.add_actor("writer", Probe { engine, answers });
    let fire = Fire(vec![request(None, update)]);
    cluster.world.schedule_now(writer, fire);
}

/// A quiescent 5-replica leased cluster whose row `bench/k` holds 1;
/// with `write`, a put from server 0 that server 2 holds receipted but
/// not yet green.
fn leased_cluster(write: Option<Op>) -> Cluster {
    let config = ClusterConfig::builder(5, 42)
        .delayed_writes()
        .read_leases(true)
        .build()
        .expect("coherent config");
    let mut cluster = Cluster::build(config);
    cluster.settle();
    fire_write(&mut cluster, Op::put("bench", "k", 1i64));
    cluster.run_for(SimDuration::from_millis(100));
    if let Some(update) = write {
        fire_write(&mut cluster, update);
        let mut steps = 0;
        while cluster.with_engine(READER, |e| e.red_ids().is_empty()) {
            assert!(cluster.world.step(), "world ran dry");
            steps += 1;
            assert!(steps < 100_000, "the write was never receipted");
        }
    }
    cluster
}

const LEASE_READS: usize = 1_000;

/// Allocations a 200 ms window of [`leased_cluster`] makes when
/// `reads` linearizable reads of `bench/k` reach server 2 at its start,
/// the answers they get, and how many parked.
fn lease_read_window(write: Option<Op>, reads: usize) -> (u64, Vec<QueryResult>, u64) {
    let mut cluster = leased_cluster(write);
    let engine = cluster.servers[READER].engine;
    let answers = Vec::with_capacity(reads);
    let reader = cluster.world.add_actor("reader", Probe { engine, answers });
    let fire = (0..reads).map(|_| request(Some(Query::get("bench", "k")), Op::Noop));
    let fire = Fire(fire.collect());
    let parked = |c: &Cluster| c.world.metrics().counter("engine.lease_reads_parked");
    let parked_before = parked(&cluster);
    let allocations_before = ALLOCATIONS.with(Cell::get);
    cluster.world.schedule_now(reader, fire);
    cluster.run_for(SimDuration::from_millis(200));
    let allocations = ALLOCATIONS.with(Cell::get) - allocations_before;
    cluster.check_consistency();
    let answers = cluster
        .world
        .with_actor(reader, |p: &mut Probe| std::mem::take(&mut p.answers));
    (allocations, answers, parked(&cluster) - parked_before)
}

/// Allocations per lease read beyond what the same window costs without
/// them: the request, the reply, and the queues they pass through
/// growing to hold a thousand at once. As measured when the ceilings
/// were set, each with one allocation of slack for a lazily initialised
/// static that lands in either window: served at once 2.019–2.020
/// (7.020 while a read cloned its query and built a row-string read
/// set); beside an in-flight write to another row 2.020 (7.023); parked
/// behind a write to its own row and released at that write's green
/// 2.039–2.040 (15.041).
const LEASE_READ_CEILING: [f64; 3] = [2.021, 2.021, 2.041];

#[test]
fn a_lease_read_costs_its_request_and_its_reply() {
    let cases = [
        (None, 0, Value::Int(1)),
        (Some(Op::put("bench", "other", 2i64)), 0, Value::Int(1)),
        (
            Some(Op::put("bench", "k", 3i64)),
            LEASE_READS as u64,
            Value::Int(3),
        ),
    ];
    for ((write, parks, value), ceiling) in cases.into_iter().zip(LEASE_READ_CEILING) {
        let (quiet, none, _) = lease_read_window(write.clone(), 0);
        assert!(none.is_empty());
        let (busy, answers, parked) = lease_read_window(write.clone(), LEASE_READS);
        let want = QueryResult::Value(Some(value));
        assert_eq!(answers.len(), LEASE_READS, "{write:?}: reads unanswered");
        assert!(
            answers.iter().all(|a| *a == want),
            "{write:?}: {:?}",
            answers[0]
        );
        assert_eq!(parked, parks, "{write:?}: parked reads");
        let per_read = (busy - quiet) as f64 / LEASE_READS as f64;
        println!(
            "{write:?}: {busy} - {quiet} allocations / {LEASE_READS} lease reads = {per_read:.3}"
        );
        assert!(
            per_read <= ceiling,
            "{write:?}: {per_read:.3} allocations per lease read (ceiling {ceiling})"
        );
    }
}

//! Queue-event guards. The event queue is the simulator's unit of host
//! work, and its counts are deterministic, so a change that makes the
//! stack schedule more shows up here as a number, independent of how
//! fast the machine is.
//!
//! * An idle 14-replica cluster: each replica's failure detector ticks
//!   once per heartbeat interval (50 ms) and sends one fabric probe op —
//!   560 events per virtual second. Heartbeats delivered as datagrams
//!   cost an arrival event and a hand-off event per destination on top
//!   (7,840 per virtual second).
//! * The paper's §7 latency cell, 14 replicas with forced writes and one
//!   closed-loop client: events per commit.

use todr_harness::client::ClientConfig;
use todr_harness::cluster::{Cluster, ClusterConfig};
use todr_sim::SimDuration;

const REPLICAS: u32 = 14;

/// Events per virtual second of an idle 14-replica cluster; measured
/// 560 when the ceiling was set.
const IDLE_CEILING: f64 = 600.0;

/// Events per commit of the 14 × 1 forced-write cell; measured 139.15
/// when the ceiling was set.
const COMMIT_CEILING: f64 = 139.2;

#[test]
fn an_idle_cluster_costs_one_tick_and_one_probe_op_per_replica_per_interval() {
    let config = ClusterConfig::builder(REPLICAS, 42)
        .build()
        .expect("coherent config");
    let mut cluster = Cluster::build(config);
    cluster.settle();
    cluster.run_for(SimDuration::from_secs(1));

    let before = cluster.world.events_processed();
    cluster.run_for(SimDuration::from_secs(2));
    let per_second = (cluster.world.events_processed() - before) as f64 / 2.0;
    println!("{per_second} events per virtual second");
    assert!(
        per_second <= IDLE_CEILING,
        "{per_second} events per virtual second (ceiling {IDLE_CEILING})"
    );
}

#[test]
fn the_latency_cell_schedules_a_bounded_number_of_events_per_commit() {
    let config = ClusterConfig::builder(REPLICAS, 42)
        .build()
        .expect("coherent config");
    let mut cluster = Cluster::build(config);
    cluster.settle();
    let client = cluster.attach_client(0, ClientConfig::default());
    cluster.run_for(SimDuration::from_secs(1));

    let committed = |c: &mut Cluster| c.client_stats(client).committed;
    let (commits_before, events_before) =
        (committed(&mut cluster), cluster.world.events_processed());
    cluster.run_for(SimDuration::from_secs(2));
    let commits = committed(&mut cluster) - commits_before;
    let events = cluster.world.events_processed() - events_before;
    cluster.check_consistency();

    assert!(commits > 100, "{commits} commits");
    let per_commit = events as f64 / commits as f64;
    println!("{events} events / {commits} commits = {per_commit:.2}");
    assert!(
        per_commit <= COMMIT_CEILING,
        "{per_commit:.2} events per commit (ceiling {COMMIT_CEILING})"
    );
}

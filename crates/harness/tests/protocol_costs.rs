//! Quantitative checks of the paper's cost claims (§1/§7): per action,
//! the engine needs **one forced disk write and one multicast**, with no
//! end-to-end acknowledgements; COReL adds an acknowledgement multicast
//! from every server plus a forced write at every server; 2PC needs two
//! forced writes and ~3n unicasts in the critical path.

use todr_baselines::{CorelServer, TpcServer};
use todr_harness::baselines::BaselineCluster;
use todr_harness::client::ClientConfig;
use todr_harness::cluster::{Cluster, ClusterConfig};
use todr_sim::{SimDuration, World};

const N: u32 = 5;
const ACTIONS: u64 = 100;

/// Forced-write requests issued so far, summed over every disk.
fn syncs(world: &World) -> u64 {
    world.metrics().counter("storage.sync_requests")
}

/// Point-to-point transmissions handed to the fabric so far.
fn sent(world: &World) -> u64 {
    world.metrics().counter("net.sent")
}

fn client_config() -> ClientConfig {
    ClientConfig {
        max_requests: Some(ACTIONS),
        ..ClientConfig::default()
    }
}

#[test]
fn engine_pays_one_forced_write_per_action_at_the_origin_only() {
    let mut cluster = Cluster::build(ClusterConfig::new(N, 61));
    cluster.settle();
    // Counted from here on: the initial membership change is behind us.
    let before = syncs(&cluster.world);
    let client = cluster.attach_client(0, client_config());
    cluster.run_for(SimDuration::from_secs(3));
    assert_eq!(cluster.client_stats(client).committed, ACTIONS);

    // Cluster-wide, ~1 sync request per action: the origin's. A forced
    // write per action at any of the four other replicas would add
    // another ACTIONS, so none of them pays one.
    let paid = syncs(&cluster.world) - before;
    assert!(
        (ACTIONS..ACTIONS + 10).contains(&paid),
        "the cluster made {paid} forced writes for {ACTIONS} actions"
    );
}

#[test]
fn corel_pays_a_forced_write_at_every_server_per_action() {
    let mut cluster = BaselineCluster::corel(&ClusterConfig::new(N, 62));
    cluster.settle();
    let client = cluster.attach_client(0, client_config());
    cluster.run_for(SimDuration::from_secs(4));
    assert_eq!(cluster.client_stats(client).committed, ACTIONS);
    for (i, &server) in cluster.servers.clone().iter().enumerate() {
        let stats = cluster
            .world
            .with_actor(server, |s: &mut CorelServer| s.stats());
        assert_eq!(
            stats.syncs, ACTIONS,
            "COReL server {i} must force-write every delivered action"
        );
        assert_eq!(
            stats.acks_sent, ACTIONS,
            "COReL server {i} must acknowledge every action end-to-end"
        );
    }
}

#[test]
fn tpc_pays_two_forced_writes_in_the_critical_path() {
    let mut cluster = BaselineCluster::tpc(&ClusterConfig::new(N, 63));
    let client = cluster.attach_client(0, client_config());
    cluster.run_for(SimDuration::from_secs(5));
    assert_eq!(cluster.client_stats(client).committed, ACTIONS);
    // Coordinator: a prepare sync + a commit sync per action.
    let coord = cluster.servers[0];
    let stats = cluster
        .world
        .with_actor(coord, |s: &mut TpcServer| s.stats());
    assert_eq!(stats.committed, ACTIONS);
    assert_eq!(
        stats.syncs,
        2 * ACTIONS,
        "2PC coordinator must force-write prepare and commit records"
    );
}

#[test]
fn engine_network_cost_beats_corel_per_action() {
    // Count fabric-level point-to-point transmissions per committed
    // action: the engine (batched stability acks) must use materially
    // fewer messages than COReL (whose per-action end-to-end round adds
    // n acknowledgement multicasts = n(n-1) unicasts).
    let engine_msgs = {
        let mut cluster = Cluster::build(ClusterConfig::new(N, 64));
        cluster.settle();
        let before = sent(&cluster.world);
        let client = cluster.attach_client(0, client_config());
        cluster.run_for(SimDuration::from_secs(3));
        assert_eq!(cluster.client_stats(client).committed, ACTIONS);
        sent(&cluster.world) - before
    };
    let corel_msgs = {
        let mut cluster = BaselineCluster::corel(&ClusterConfig::new(N, 64));
        cluster.settle();
        let before = sent(&cluster.world);
        let client = cluster.attach_client(0, client_config());
        cluster.run_for(SimDuration::from_secs(4));
        assert_eq!(cluster.client_stats(client).committed, ACTIONS);
        sent(&cluster.world) - before
    };
    assert!(
        (engine_msgs as f64) < corel_msgs as f64 * 0.8,
        "engine should need materially fewer messages: {engine_msgs} vs {corel_msgs}"
    );
}

#[test]
fn membership_change_is_the_only_end_to_end_round() {
    // Run with NO traffic across a partition + merge: the exchange costs
    // a bounded number of forced writes per server (state message, CPC,
    // install) — independent of how many actions committed before.
    for preload_actions in [20u64, 200u64] {
        let mut cluster = Cluster::build(ClusterConfig::new(N, 65));
        cluster.settle();
        let client = cluster.attach_client(
            0,
            ClientConfig {
                max_requests: Some(preload_actions),
                ..ClientConfig::default()
            },
        );
        cluster.run_for(SimDuration::from_secs(6));
        assert_eq!(cluster.client_stats(client).committed, preload_actions);
        let before = syncs(&cluster.world);
        cluster.partition(&[vec![0, 1, 2], vec![3, 4]]);
        cluster.run_for(SimDuration::from_secs(1));
        cluster.merge_all();
        cluster.run_for(SimDuration::from_secs(1));
        let exchange_cost = syncs(&cluster.world) - before;
        assert!(
            exchange_cost < 60,
            "membership-change cost ({exchange_cost} syncs) must not scale with \
             the {preload_actions} preloaded actions"
        );
    }
}

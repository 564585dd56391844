//! End-to-end sanity for the baseline protocols (failure-free, as in
//! the paper's §7 comparison).

use todr_baselines::{CorelServer, TpcServer};
use todr_harness::baselines::BaselineCluster;
use todr_harness::client::ClientConfig;
use todr_harness::cluster::ClusterConfig;
use todr_sim::SimDuration;

#[test]
fn tpc_commits_and_replicas_converge() {
    let mut cluster = BaselineCluster::tpc(&ClusterConfig::new(4, 1));
    let clients: Vec<_> = (0..4)
        .map(|i| cluster.attach_client(i, ClientConfig::default()))
        .collect();
    cluster.run_for(SimDuration::from_secs(2));
    let total: u64 = clients
        .iter()
        .map(|&c| cluster.client_stats(c).committed)
        .sum();
    assert!(total > 50, "2PC committed only {total}");
    // Let in-flight COMMIT messages land, then compare databases.
    cluster.run_for(SimDuration::from_millis(200));
    let digests: Vec<u64> = cluster
        .servers
        .clone()
        .iter()
        .map(|&s| {
            cluster
                .world
                .with_actor(s, |t: &mut TpcServer| t.db_digest())
        })
        .collect();
    for d in &digests[1..] {
        assert_eq!(*d, digests[0], "2PC replicas diverged");
    }
}

#[test]
fn tpc_latency_reflects_two_forced_writes() {
    let mut cluster = BaselineCluster::tpc(&ClusterConfig::new(5, 2));
    let client = cluster.attach_client(
        0,
        ClientConfig {
            max_requests: Some(50),
            ..ClientConfig::default()
        },
    );
    cluster.run_for(SimDuration::from_secs(3));
    let stats = cluster.client_stats(client);
    assert_eq!(stats.committed, 50);
    let mean = stats.latency.mean().as_millis_f64();
    assert!(
        (17.0..26.0).contains(&mean),
        "2PC mean latency {mean} ms not ≈ two 10 ms forced writes"
    );
}

#[test]
fn corel_commits_in_total_order_and_converges() {
    let mut cluster = BaselineCluster::corel(&ClusterConfig::new(4, 3));
    cluster.settle();
    let clients: Vec<_> = (0..4)
        .map(|i| cluster.attach_client(i, ClientConfig::default()))
        .collect();
    cluster.run_for(SimDuration::from_secs(2));
    let total: u64 = clients
        .iter()
        .map(|&c| cluster.client_stats(c).committed)
        .sum();
    assert!(total > 50, "COReL committed only {total}");
    cluster.run_for(SimDuration::from_millis(200));
    let digests: Vec<u64> = cluster
        .servers
        .clone()
        .iter()
        .map(|&s| {
            cluster
                .world
                .with_actor(s, |c: &mut CorelServer| c.db_digest())
        })
        .collect();
    for d in &digests[1..] {
        assert_eq!(*d, digests[0], "COReL replicas diverged");
    }
}

#[test]
fn corel_latency_is_one_forced_write_plus_ack_round() {
    let mut cluster = BaselineCluster::corel(&ClusterConfig::new(5, 4));
    cluster.settle();
    let client = cluster.attach_client(
        0,
        ClientConfig {
            max_requests: Some(50),
            ..ClientConfig::default()
        },
    );
    cluster.run_for(SimDuration::from_secs(2));
    let stats = cluster.client_stats(client);
    assert_eq!(stats.committed, 50);
    let mean = stats.latency.mean().as_millis_f64();
    assert!(
        (9.0..15.0).contains(&mean),
        "COReL mean latency {mean} ms not ≈ one 10 ms forced write"
    );
}

#[test]
fn corel_acks_scale_with_servers() {
    // The cost the engine eliminates: n ack multicasts per action.
    let mut cluster = BaselineCluster::corel(&ClusterConfig::new(6, 5));
    cluster.settle();
    let client = cluster.attach_client(
        0,
        ClientConfig {
            max_requests: Some(20),
            ..ClientConfig::default()
        },
    );
    cluster.run_for(SimDuration::from_secs(2));
    assert_eq!(cluster.client_stats(client).committed, 20);
    let total_acks: u64 = cluster
        .servers
        .clone()
        .iter()
        .map(|&s| {
            cluster
                .world
                .with_actor(s, |c: &mut CorelServer| c.stats().acks_sent)
        })
        .sum();
    // Every server acks every action: 6 servers × 20 actions.
    assert_eq!(total_acks, 120);
}

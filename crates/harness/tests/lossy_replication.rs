//! Full replication over a lossy network: the §2.1 failure model
//! ("messages can be lost, servers may crash and network partitions may
//! occur") exercised end-to-end through the reliable-link layer.

use todr_harness::client::ClientConfig;
use todr_harness::cluster::{Cluster, ClusterConfig};
use todr_sim::SimDuration;

#[test]
fn engine_replicates_over_5pct_loss() {
    let mut cluster = Cluster::build(ClusterConfig::new(4, 11).lossy(0.05));
    cluster.settle();
    let clients: Vec<_> = (0..4)
        .map(|i| cluster.attach_client(i, ClientConfig::default()))
        .collect();
    cluster.run_for(SimDuration::from_secs(2));
    let committed: u64 = clients
        .iter()
        .map(|&c| cluster.client_stats(c).committed)
        .sum();
    assert!(committed > 100, "only {committed} commits under 5% loss");
    cluster.check_consistency();
}

#[test]
fn partition_merge_crash_cycle_over_lossy_network() {
    let mut cluster = Cluster::build(ClusterConfig::new(5, 12).lossy(0.05));
    cluster.settle();
    for i in 0..5 {
        cluster.attach_client(i, ClientConfig::default());
    }
    cluster.run_for(SimDuration::from_secs(1));
    cluster.partition(&[vec![0, 1, 2], vec![3, 4]]);
    cluster.run_for(SimDuration::from_secs(1));
    cluster.crash(4);
    cluster.run_for(SimDuration::from_secs(1));
    cluster.merge_all();
    cluster.recover(4);
    cluster.run_for(SimDuration::from_secs(4));
    // Quiesce, then require convergence despite the loss.
    for c in cluster.clients().to_vec() {
        cluster.world.with_actor(
            c.actor_id(),
            |cl: &mut todr_harness::client::ClosedLoopClient| cl.stop(),
        );
    }
    cluster.run_for(SimDuration::from_secs(3));
    cluster.check_consistency();
    let g0 = cluster.green_count(0);
    assert!(g0 > 100);
    for i in 1..5 {
        assert_eq!(cluster.green_count(i), g0, "server {i} diverged");
        assert_eq!(cluster.db_digest(i), cluster.db_digest(0));
    }
}

#[test]
fn loss_costs_throughput_but_not_safety() {
    let run = |loss: f64| -> u64 {
        let config = if loss > 0.0 {
            ClusterConfig::new(4, 13).lossy(loss)
        } else {
            ClusterConfig::new(4, 13)
        };
        let mut cluster = Cluster::build(config);
        cluster.settle();
        let clients: Vec<_> = (0..4)
            .map(|i| cluster.attach_client(i, ClientConfig::default()))
            .collect();
        cluster.run_for(SimDuration::from_secs(2));
        cluster.check_consistency();
        clients
            .iter()
            .map(|&c| cluster.client_stats(c).committed)
            .sum()
    };
    let clean = run(0.0);
    let lossy = run(0.10);
    assert!(lossy > 0, "10% loss stalled the engine entirely");
    assert!(
        lossy < clean,
        "loss should cost throughput: clean {clean} vs lossy {lossy}"
    );
}

#[test]
fn crash_and_quick_recovery_over_reliable_links() {
    // A replica that recovers within a few milliseconds of its crash
    // meets peers still numbering their link frames for its dead
    // incarnation; none of those frames may reach the new one.
    for seed in 1..=3 {
        for gap_us in [0, 100, 500, 1_000, 3_000, 10_000, 100_000] {
            let config = ClusterConfig::builder(3, seed)
                .reliable_links(true)
                .build()
                .expect("valid config");
            let mut cluster = Cluster::build(config);
            cluster.settle();
            for i in 0..3 {
                cluster.attach_client(i, ClientConfig::default());
            }
            cluster.run_for(SimDuration::from_millis(300));
            cluster.crash(1);
            cluster.run_for(SimDuration::from_micros(gap_us));
            cluster.recover(1);
            cluster.run_for(SimDuration::from_secs(1));
            cluster.stop_clients();
            cluster.run_for(SimDuration::from_secs(1));
            let cell = format!("seed {seed}, gap {gap_us} µs");
            cluster
                .try_check_consistency()
                .unwrap_or_else(|v| panic!("{cell}: {v}"));
            let g0 = cluster.green_count(0);
            assert!(g0 > 0, "{cell}: nothing committed");
            for i in 1..3 {
                assert_eq!(cluster.green_count(i), g0, "{cell}: server {i} diverged");
            }
        }
    }
}

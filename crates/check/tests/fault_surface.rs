//! The one fault surface, where it is new: on a 2 × 3 deployment every
//! fault-scripting call takes a flat replica index and acts on the
//! fabric and replicas of the group that index lands in — the other
//! group never notices.

use todr_check::check_shard_trace;
use todr_core::EngineState;
use todr_harness::client::ClientConfig;
use todr_harness::cluster::{Cluster, ClusterConfig};
use todr_sim::SimDuration;

fn secs(s: u64) -> SimDuration {
    SimDuration::from_secs(s)
}

/// Two groups of three (flat indices 0–2 and 3–5) under six routed
/// clients with a 30 % cross-shard mix.
fn loaded_two_by_three(seed: u64) -> Cluster {
    let config = ClusterConfig::builder(6, seed).shards(2).build().unwrap();
    let mut cluster = Cluster::build(config);
    cluster.settle();
    for _ in 0..6 {
        cluster.attach_routed_client(ClientConfig {
            cross_permille: Some(300),
            ..ClientConfig::default()
        });
    }
    cluster.run_for(secs(1));
    cluster
}

fn counter(cluster: &Cluster, name: &str) -> u64 {
    cluster.world.metrics().counter(name)
}

#[test]
fn a_partition_spanning_groups_splits_each_group_by_its_own_members() {
    let mut cluster = loaded_two_by_three(31);
    let g0_views = counter(&cluster, "g0.evs.views_installed");
    let g0_green = cluster.green_count(0);

    // One set holds all of group 0 and one replica of group 1: group 0
    // is not cut at all, group 1 splits {3} from {4, 5}.
    cluster.partition(&[vec![0, 1, 2, 3], vec![4, 5]]);
    cluster.run_for(secs(2));
    assert_eq!(counter(&cluster, "g0.evs.views_installed"), g0_views);
    for i in 0..3 {
        assert_eq!(cluster.engine_state(i), EngineState::RegPrim);
    }
    assert!(
        cluster.green_count(0) > g0_green,
        "group 0's primary must keep committing"
    );
    assert_eq!(cluster.engine_state(3), EngineState::NonPrim);
    assert_eq!(cluster.engine_state(4), EngineState::RegPrim);
    assert_eq!(cluster.engine_state(5), EngineState::RegPrim);
    cluster.check_consistency();

    cluster.merge_all();
    cluster.run_for(secs(2));
    assert_eq!(cluster.engine_state(3), EngineState::RegPrim);
    assert_eq!(counter(&cluster, "g0.evs.views_installed"), g0_views);
    cluster.check_consistency();
}

#[test]
fn faults_aimed_at_one_group_leave_the_other_alone() {
    let mut cluster = loaded_two_by_three(32);
    let g0_views = counter(&cluster, "g0.evs.views_installed");

    // A latent stale sector, a torn crash + recovery, an online join and
    // a permanent leave, all by flat index into group 1.
    cluster.corrupt_sector(5);
    cluster.crash_torn(4);
    cluster.run_for(secs(1));
    assert_eq!(cluster.engine_state(4), EngineState::Down);
    cluster.recover(4);
    cluster.run_for(secs(2));
    assert_eq!(cluster.engine_state(4), EngineState::RegPrim);
    let joiner = cluster.add_joiner(3);
    assert_eq!(cluster.servers[joiner].group, 1);
    assert_eq!(cluster.servers[joiner].fabric, cluster.servers[3].fabric);
    cluster.run_for(secs(3));
    cluster.leave(4);
    cluster.run_for(secs(2));

    cluster.stop_clients();
    cluster.run_for(secs(1));
    assert!(cluster.run_to_router_quiescence(secs(30)), "router drains");

    assert_eq!(counter(&cluster, "g0.evs.views_installed"), g0_views);
    assert_eq!(counter(&cluster, "g0.storage.faults_injected"), 0);
    assert_eq!(counter(&cluster, "g1.storage.faults_injected"), 1);
    assert_eq!(cluster.engine_state(4), EngineState::Down, "4 departed");
    for i in [3, 5, joiner] {
        assert_eq!(cluster.engine_state(i), EngineState::RegPrim);
        assert_eq!(cluster.green_count(i), cluster.green_count(3));
    }
    assert_eq!(cluster.db_digest(joiner), cluster.db_digest(3));
    assert!(cluster.green_count(0) > 0 && cluster.green_count(3) > 0);
    cluster.check_consistency();
    let stats = check_shard_trace(cluster.world.metrics().events(), true)
        .expect("cross-shard history is serializable");
    assert!(stats.txns_applied > 0, "{stats:?}");
}

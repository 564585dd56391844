//! The view-churn cost of the commit fast path, measured: pending
//! fast-path candidates that a transitional configuration demotes back
//! to the green path are counted in the hub's
//! `engine.fast_demotions_on_view_change`. A long chaotic run of
//! partitions, merges and crashes with fast-policy clients in flight
//! must populate the counter (view changes do land mid-quorum) and keep
//! it bounded by the red ordering volume (every demoted candidate was a
//! receipted action).

use todr_core::UpdateReplyPolicy;
use todr_harness::client::ClientConfig;
use todr_harness::cluster::{Cluster, ClusterConfig};
use todr_sim::SimDuration;

#[test]
fn view_change_demotions_are_populated_and_bounded() {
    let config = ClusterConfig::builder(5, 44)
        .fast_path(true)
        .build()
        .unwrap();
    let mut cluster = Cluster::build(config);
    cluster.settle();
    for i in 0..5 {
        cluster.attach_client(
            i,
            ClientConfig {
                reply_policy: UpdateReplyPolicy::Fast,
                conflict_pct: 25,
                ..ClientConfig::default()
            },
        );
    }

    // Chaotic schedule: alternating cuts, one crash/recover cycle, all
    // with fast-path traffic in flight so transitional configurations
    // keep catching candidates mid-quorum.
    for round in 0..6usize {
        cluster.run_for(SimDuration::from_millis(300));
        cluster.partition(&[vec![0, 1, 2], vec![3, 4]]);
        cluster.run_for(SimDuration::from_millis(300));
        cluster.merge_all();
        cluster.run_for(SimDuration::from_millis(300));
        if round == 2 {
            cluster.crash(1);
            cluster.run_for(SimDuration::from_millis(300));
            cluster.recover(1);
        }
        let cut = 1 + round % 3;
        cluster.partition(&[(0..cut).collect(), (cut..5).collect()]);
        cluster.run_for(SimDuration::from_millis(300));
        cluster.merge_all();
    }
    cluster.run_for(SimDuration::from_secs(3));

    let hub = cluster.world.metrics();
    let demotions = hub.counter("engine.fast_demotions_on_view_change");
    let marked_red = hub.counter("engine.marked_red");
    assert!(
        demotions > 0,
        "no fast-path candidate was ever demoted by a view change \
         across 12 partitions and a crash"
    );
    assert!(
        demotions <= marked_red,
        "more view-change demotions ({demotions}) than red orderings \
         ({marked_red}) — the counter over-counts"
    );
    cluster.check_consistency();
}

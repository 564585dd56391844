//! Facade-level smoke tests: the `todr` crate's re-exports compose the
//! way the README promises.

use todr::core::EngineState;
use todr::db::{Op, Value};
use todr::harness::client::ClientConfig;
use todr::harness::cluster::{Cluster, ClusterConfig};
use todr::harness::scenario::Scenario;
use todr::sim::SimDuration;

#[test]
fn readme_quickstart_flow() {
    let mut cluster = Cluster::build(ClusterConfig::new(5, 42));
    cluster.settle();
    let client = cluster.attach_client(0, ClientConfig::default());
    cluster.run_for(SimDuration::from_secs(1));
    assert!(cluster.client_stats(client).committed > 0);

    cluster.partition(&[vec![0, 1, 2], vec![3, 4]]);
    cluster.run_for(SimDuration::from_secs(1));
    assert_eq!(cluster.engine_state(0), EngineState::RegPrim);
    cluster.merge_all();
    cluster.run_for(SimDuration::from_secs(2));
    cluster.check_consistency();
}

#[test]
fn all_layers_are_reachable_through_the_facade() {
    // Types from every re-exported crate, used together.
    let _t = todr::sim::SimTime::from_millis(1);
    let _n = todr::net::NodeId::new(0);
    let _op = Op::put("t", "k", Value::Int(1));
    let _mode = todr::storage::DiskMode::forced_default();
    let mut db = todr::db::Database::new();
    db.apply(&_op);
    assert_eq!(db.row_count(), 1);

    let scenario = Scenario::new().after_ms(10).merge_all().done();
    assert_eq!(scenario.len(), 2);
}

#[test]
fn scenario_and_report_compose() {
    let mut cluster = Cluster::build(ClusterConfig::new(3, 43));
    cluster.settle();
    cluster.attach_client(0, ClientConfig::default());
    Scenario::new()
        .after_ms(300)
        .partition(vec![vec![0, 1], vec![2]])
        .after_ms(500)
        .merge_all()
        .after_ms(1_000)
        .done()
        .run(&mut cluster);
    let metrics = cluster.metrics_export();
    assert!(metrics.counters["engine.actions_created"] > 0);
    assert!(
        metrics.event_counts["view-installed"] > 3,
        "the scenario changed views"
    );
}

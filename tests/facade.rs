//! Facade-level smoke tests: the `todr` crate's re-exports compose the
//! way the README promises.

use todr::core::EngineState;
use todr::db::{Op, Value};
use todr::harness::client::ClientConfig;
use todr::harness::cluster::{Cluster, ClusterConfig};
use todr::harness::fault::{Faults, Step};
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

    // The harness's fault step is the checker's schedule step.
    let schedule: Vec<todr::check::Step> = vec![Step::Quiet, Step::Merge];
    assert_eq!(schedule.len(), 2);
}

#[test]
fn scenario_and_report_compose() {
    let mut cluster = Cluster::build(ClusterConfig::new(3, 43));
    cluster.settle();
    cluster.attach_client(0, ClientConfig::default());
    let ms = SimDuration::from_millis;
    let timeline = [
        (Step::Quiet, ms(300)),
        (
            Step::Partition {
                groups: vec![vec![0, 1], vec![2]],
            },
            ms(500),
        ),
        (Step::Merge, ms(1_000)),
    ];
    if let Err(v) = Faults::new(3, 1).run(&mut cluster, timeline) {
        panic!("{v}");
    }
    let metrics = cluster.metrics_export();
    assert!(metrics.counters["engine.actions_created"] > 0);
    assert!(
        metrics.event_counts["view-installed"] > 3,
        "the timeline changed views"
    );
}

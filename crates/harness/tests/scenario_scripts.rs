//! Scripted end-to-end runs: `(Step, hold)` timelines through the one
//! fault executor, which checks the safety invariants after every hold.

use todr_core::EngineState;
use todr_harness::client::ClientConfig;
use todr_harness::cluster::{Cluster, ClusterConfig};
use todr_harness::fault::{Faults, Step};
use todr_sim::SimDuration;

fn ms(ms: u64) -> SimDuration {
    SimDuration::from_millis(ms)
}

fn run(cluster: &mut Cluster, n: usize, timeline: impl IntoIterator<Item = (Step, SimDuration)>) {
    if let Err(v) = Faults::new(n, 1).run(cluster, timeline) {
        panic!("{v}");
    }
}

#[test]
fn scripted_partition_heal_cycle() {
    let mut cluster = Cluster::build(ClusterConfig::new(5, 41));
    cluster.settle();
    for i in 0..5 {
        cluster.attach_client(i, ClientConfig::default());
    }
    run(
        &mut cluster,
        5,
        [
            (Step::Quiet, ms(500)),
            (
                Step::Partition {
                    groups: vec![vec![0, 1, 2], vec![3, 4]],
                },
                ms(800),
            ),
            (
                Step::Partition {
                    groups: vec![vec![0, 1], vec![2, 3, 4]],
                },
                ms(800),
            ),
            (Step::Merge, ms(2_000)),
        ],
    );
    for i in 0..5 {
        assert_eq!(cluster.engine_state(i), EngineState::RegPrim);
    }
    cluster.check_consistency();
}

#[test]
fn scripted_rolling_crash_recovery() {
    let mut cluster = Cluster::build(ClusterConfig::new(4, 42));
    cluster.settle();
    for i in 0..4 {
        cluster.attach_client(i, ClientConfig::default());
    }
    run(
        &mut cluster,
        4,
        [
            (Step::Quiet, ms(400)),
            (Step::Crash { server: 0 }, ms(600)),
            (Step::Recover { server: 0 }, ms(400)),
            (Step::Crash { server: 1 }, ms(600)),
            (Step::Recover { server: 1 }, ms(400)),
            (Step::Crash { server: 2 }, ms(600)),
            (Step::Recover { server: 2 }, ms(2_000)),
        ],
    );
    for i in 0..4 {
        assert_eq!(cluster.engine_state(i), EngineState::RegPrim, "server {i}");
    }
    cluster.check_consistency();
}

#[test]
fn scripted_join_and_leave() {
    let mut cluster = Cluster::build(ClusterConfig::new(3, 43));
    cluster.settle();
    cluster.attach_client(0, ClientConfig::default());
    run(
        &mut cluster,
        3,
        [
            (Step::Quiet, ms(500)),
            (Step::Join { via: 1 }, ms(2_000)),
            (Step::Leave { server: 2 }, ms(2_000)),
        ],
    );
    assert_eq!(cluster.servers.len(), 4, "exactly one replica joined");
    let joiner = 3;
    assert_eq!(cluster.engine_state(joiner), EngineState::RegPrim);
    assert_eq!(cluster.engine_state(2), EngineState::Down);
    // Set is {0, 1, joiner}.
    assert_eq!(cluster.with_engine(0, |e| e.server_set().len()), 3);
    cluster.check_consistency();
}

#[test]
fn scripted_join_during_partition_via_non_primary() {
    // §5.1: "It can even be the case that a new site is accepted into
    // the system without ever being connected to the primary component"
    // — here the joiner bootstraps through the majority side while a
    // minority is detached, then everyone converges after the heal.
    let mut cluster = Cluster::build(ClusterConfig::new(4, 44));
    cluster.settle();
    cluster.attach_client(0, ClientConfig::default());
    cluster.run_for(SimDuration::from_millis(500));
    cluster.partition(&[vec![0, 1, 2], vec![3]]);
    cluster.run_for(SimDuration::from_millis(500));
    let joiner = cluster.add_joiner(0);
    cluster.run_for(SimDuration::from_secs(3));
    assert_eq!(cluster.engine_state(joiner), EngineState::RegPrim);
    cluster.merge_all();
    cluster.run_for(SimDuration::from_secs(3));
    // Quiesce and verify everyone (including the once-detached 3 and
    // the joiner) agrees.
    for c in cluster.clients().to_vec() {
        cluster.world.with_actor(
            c.actor_id(),
            |cl: &mut todr_harness::client::ClosedLoopClient| cl.stop(),
        );
    }
    cluster.run_for(SimDuration::from_secs(2));
    let g0 = cluster.green_count(0);
    for i in 1..cluster.servers.len() {
        assert_eq!(cluster.green_count(i), g0, "server {i}");
    }
    cluster.check_consistency();
}

#[test]
fn scripted_removal_of_a_crashed_replica_is_final() {
    // §5.1, footnote 3: a live member orders the removal of a dead one.
    // The guards then count it as departed: neither a later `Recover`
    // nor the heal brings it back.
    let mut cluster = Cluster::build(ClusterConfig::new(4, 45));
    cluster.settle();
    cluster.attach_client(0, ClientConfig::default());
    let mut faults = Faults::new(4, 1);
    let timeline = [
        (
            Step::Partition {
                groups: vec![vec![0, 1], vec![2], vec![3]],
            },
            ms(800),
        ),
        (Step::Merge, ms(1_000)),
        (Step::Crash { server: 3 }, ms(1_000)),
        // Refused: the member ordering a removal must be up.
        (Step::RemoveReplica { via: 3, dead: 3 }, ms(100)),
        (Step::RemoveReplica { via: 0, dead: 3 }, ms(2_000)),
        (Step::Recover { server: 3 }, ms(500)),
    ];
    if let Err(v) = faults.run(&mut cluster, timeline) {
        panic!("{v}");
    }
    faults.heal(&mut cluster);
    cluster.run_for(ms(2_000));
    let events = cluster.metrics_export().event_counts;
    assert_eq!(events.get("engine-recovered"), None, "{events:?}");
    assert_eq!(cluster.engine_state(3), EngineState::Down);
    for i in 0..3 {
        assert_eq!(cluster.engine_state(i), EngineState::RegPrim, "server {i}");
        assert_eq!(cluster.with_engine(i, |e| e.server_set().len()), 3);
    }
    cluster.check_consistency();
}

//! White-line garbage collection (§3): actions known green everywhere
//! are discarded from memory and the persisted log is compacted —
//! without ever breaking exchange retransmission or crash recovery.

use todr_core::EngineState;
use todr_harness::client::ClientConfig;
use todr_harness::cluster::{Cluster, ClusterConfig};
use todr_sim::SimDuration;

#[test]
fn white_line_advances_and_bodies_are_pruned() {
    let mut cluster = Cluster::build(ClusterConfig::new(3, 1));
    cluster.settle();
    // Every server gets a client, so every green line rides the
    // actions its server creates (the paper's `green_line` field); the
    // single-writer tests below cover idle replicas, which advertise
    // their line on their own.
    let clients: Vec<_> = (0..3)
        .map(|i| cluster.attach_client(i, ClientConfig::default()))
        .collect();
    // Commit well past the default checkpoint interval (1024).
    cluster.run_for(SimDuration::from_secs(8));
    let committed: u64 = clients
        .iter()
        .map(|&c| cluster.client_stats(c).committed)
        .sum();
    assert!(committed > 1100, "need > interval commits, got {committed}");

    for i in 0..3 {
        let (white, floor, green, retained) = cluster.with_engine(i, |e| {
            (
                e.white_line(),
                e.green_floor(),
                e.green_count(),
                e.retained_bodies(),
            )
        });
        assert!(white > 1000, "white line stuck at {white} on server {i}");
        assert!(floor > 0, "server {i} never pruned (floor {floor})");
        assert!(floor <= white);
        // Retained bodies are bounded by the un-white tail, not the
        // whole history.
        assert!(
            (retained as u64) <= green - floor + 64,
            "server {i} retains {retained} bodies for a tail of {}",
            green - floor
        );
    }
    cluster.check_consistency();
}

#[test]
fn exchange_still_works_after_pruning() {
    let mut cluster = Cluster::build(ClusterConfig::new(4, 2));
    cluster.settle();
    let clients: Vec<_> = (0..4)
        .map(|i| cluster.attach_client(i, ClientConfig::default()))
        .collect();
    cluster.run_for(SimDuration::from_secs(6)); // several checkpoints
    let floor0 = cluster.with_engine(0, |e| e.green_floor());
    assert!(floor0 > 0, "no pruning happened");

    // A partition + merge forces an exchange whose green retransmission
    // must respect the pruned floors.
    cluster.partition(&[vec![0, 1, 2], vec![3]]);
    cluster.run_for(SimDuration::from_secs(2));
    cluster.merge_all();
    cluster.run_for(SimDuration::from_secs(3));
    let g0 = cluster.green_count(0);
    for i in 1..4 {
        assert_eq!(cluster.green_count(i), g0);
    }
    cluster.check_consistency();
    let committed: u64 = clients
        .iter()
        .map(|&c| cluster.client_stats(c).committed)
        .sum();
    assert!(committed > 1000);
}

#[test]
fn recovery_from_compacted_log() {
    let mut cluster = Cluster::build(ClusterConfig::new(3, 3));
    cluster.settle();
    for i in 0..3 {
        cluster.attach_client(i, ClientConfig::default());
    }
    cluster.run_for(SimDuration::from_secs(6));
    let floor2 = cluster.with_engine(2, |e| e.green_floor());
    assert!(floor2 > 0, "server 2 never checkpointed");

    // Crash a server whose log has been compacted; it must recover from
    // the checkpoint base and catch up through the exchange.
    cluster.crash(2);
    cluster.run_for(SimDuration::from_secs(1));
    cluster.recover(2);
    cluster.run_for(SimDuration::from_secs(3));
    assert_eq!(
        cluster.engine_state(2),
        EngineState::RegPrim,
        "recovered server did not rejoin the primary"
    );
    // Quiesce before comparing.
    let clients = cluster.clients().to_vec();
    for c in clients {
        cluster.world.with_actor(
            c.actor_id(),
            |cl: &mut todr_harness::client::ClosedLoopClient| cl.stop(),
        );
    }
    cluster.run_for(SimDuration::from_secs(2));
    let g0 = cluster.green_count(0);
    assert_eq!(cluster.green_count(2), g0);
    assert_eq!(cluster.db_digest(2), cluster.db_digest(0));
    cluster.check_consistency();
}

/// Regression: `checkpoint` used to re-base `green_floor` to the white
/// line even when the prune window was clamped to the retained green
/// tail, leaving `green_floor + green_tail.len() != green_count` —
/// after which exchange retransmission indexed the tail with a phantom
/// offset. A snapshot-bootstrapped joiner plus a partition is the
/// schedule that stresses the floor bookkeeping: the joiner's floor
/// starts at the transfer's green count with an empty tail, and the
/// healed exchange must plan retransmissions over everyone's pruned
/// floors.
#[test]
fn gc_after_join_and_partition_keeps_floor_and_exchange_correct() {
    let mut cluster = Cluster::build(
        ClusterConfig::builder(4, 9)
            .delayed_writes()
            .checkpoint_interval(256)
            .build()
            .expect("coherent config"),
    );
    cluster.settle();
    let clients: Vec<_> = (0..4)
        .map(|i| cluster.attach_client(i, ClientConfig::default()))
        .collect();
    cluster.run_for(SimDuration::from_secs(2));

    // Online join: the newcomer bootstraps from a snapshot.
    let joiner = cluster.add_joiner(0);
    cluster.run_for(SimDuration::from_secs(2));

    // Partition the joiner into the minority; the majority keeps
    // committing (and checkpointing) while the minority's white line
    // freezes.
    cluster.partition(&[vec![0, 1, 2], vec![3, joiner]]);
    cluster.run_for(SimDuration::from_secs(2));

    // Force a checkpoint at every replica and pin the invariant the
    // old re-base broke, plus the retained-body accounting.
    for i in 0..=joiner {
        let (floor, tail, green, retained) = cluster.with_engine(i, |e| {
            e.checkpoint();
            (
                e.green_floor(),
                e.green_tail().len() as u64,
                e.green_count(),
                e.retained_bodies() as u64,
            )
        });
        assert_eq!(
            floor + tail,
            green,
            "server {i}: floor {floor} + tail {tail} != green {green}"
        );
        // Bodies kept in memory are the un-white green tail plus the
        // red/yellow working set — never the pruned history.
        assert!(
            retained >= tail,
            "server {i}: {retained} bodies < green tail {tail}"
        );
        assert!(
            retained <= tail + 256,
            "server {i}: retains {retained} bodies for a tail of {tail}"
        );
    }

    // Heal: the exchange plan must retransmit exactly what each member
    // lacks, over the pruned floors.
    cluster.merge_all();
    cluster.run_for(SimDuration::from_secs(4));
    let stop: Vec<_> = clients.to_vec();
    for c in stop {
        cluster.world.with_actor(
            c.actor_id(),
            |cl: &mut todr_harness::client::ClosedLoopClient| cl.stop(),
        );
    }
    cluster.run_for(SimDuration::from_secs(2));
    let g0 = cluster.green_count(0);
    for i in 1..=joiner {
        assert_eq!(cluster.green_count(i), g0, "server {i} diverged");
        assert_eq!(cluster.db_digest(i), cluster.db_digest(0));
    }
    cluster.check_consistency();
}

#[test]
fn manual_checkpoint_reports_pruned_count() {
    let mut cluster = Cluster::build(ClusterConfig::new(3, 4));
    cluster.settle();
    for i in 0..3 {
        cluster.attach_client(i, ClientConfig::default());
    }
    cluster.run_for(SimDuration::from_secs(3));
    // Green lines propagate with ordinary traffic (piggybacked
    // `green_line` fields), so the white line trails the green count by
    // only the in-flight window.
    let pruned = cluster.with_engine(0, |e| e.checkpoint());
    let floor = cluster.with_engine(0, |e| e.green_floor());
    assert!(pruned > 0, "manual checkpoint pruned nothing");
    assert!(floor > 0);
    cluster.check_consistency();
}

/// Regression: with one writer the idle replicas never create an
/// action, so no piggybacked `green_line` ever carries their lines and
/// the white line stayed at 0. Every body was kept until
/// `max_retained_bodies`, after which every request was refused with
/// "retry later", forever: here, 64 commits and then only rejections.
/// Idle replicas now advertise their durable green line once per
/// checkpoint interval, so GC keeps the retained bodies near two
/// intervals and the writer is never refused.
#[test]
fn single_writer_is_never_wedged_by_retention() {
    const INTERVAL: u64 = 16;
    let config = ClusterConfig::builder(3, 5)
        .max_retained_bodies(64)
        .checkpoint_interval(INTERVAL)
        .build()
        .expect("coherent config");
    let mut cluster = Cluster::build(config);
    cluster.settle();
    let mut client = cluster.attach_client(0, ClientConfig::default());
    for _ in 0..20 {
        cluster.run_for(SimDuration::from_secs(1));
        // A closed loop stops at its first rejection: keep retrying
        // with a fresh client.
        if cluster.client_stats(client).rejected > 0 {
            client = cluster.attach_client(0, ClientConfig::default());
        }
    }
    let (mut committed, mut rejected) = (0, 0);
    for c in cluster.clients().to_vec() {
        let stats = cluster.client_stats(c);
        committed += stats.committed;
        rejected += stats.rejected;
    }
    assert_eq!(
        rejected, 0,
        "the writer was refused after {committed} commits"
    );
    assert!(committed > 1000, "only {committed} commits in 20 s");
    for i in 0..3 {
        let (white, retained) = cluster.with_engine(i, |e| (e.white_line(), e.retained_bodies()));
        assert!(white > 0, "white line stuck at 0 on server {i}");
        assert!(
            retained as u64 <= 2 * INTERVAL + 4,
            "server {i} retains {retained} bodies"
        );
    }
    assert!(
        cluster
            .world
            .metrics()
            .counter("engine.green_lines_advertised")
            > 0
    );
    cluster.check_consistency();
    cluster
        .try_check_history()
        .unwrap_or_else(|v| panic!("{v}"));
}

/// An idle replica whose advertised line let the others prune crashes
/// with a torn tail while the writer goes on; it recovers at a green
/// count no lower than the line it advertised, and the exchange brings
/// it level from the bodies the others still hold.
#[test]
fn single_writer_gc_survives_a_torn_crash_of_an_idle_replica() {
    const INTERVAL: u64 = 16;
    let config = ClusterConfig::builder(3, 6)
        .checkpoint_interval(INTERVAL)
        .build()
        .expect("coherent config");
    let mut cluster = Cluster::build(config);
    cluster.settle();
    let client = cluster.attach_client(0, ClientConfig::default());
    cluster.run_for(SimDuration::from_secs(3));
    for i in 0..3 {
        let floor = cluster.with_engine(i, |e| e.green_floor());
        assert!(floor > 0, "server {i} never pruned");
    }

    cluster.crash_torn(2);
    cluster.run_for(SimDuration::from_secs(2));
    cluster.recover(2);
    cluster.run_for(SimDuration::from_secs(3));
    assert_eq!(cluster.engine_state(2), EngineState::RegPrim);
    let white_before_stop = cluster.with_engine(0, |e| e.white_line());
    cluster.run_for(SimDuration::from_secs(1));
    cluster.stop_clients();
    cluster.run_for(SimDuration::from_secs(2));

    let stats = cluster.client_stats(client);
    assert_eq!(stats.rejected, 0);
    let g0 = cluster.green_count(0);
    for i in 1..3 {
        assert_eq!(cluster.green_count(i), g0, "server {i} diverged");
        assert_eq!(cluster.db_digest(i), cluster.db_digest(0));
    }
    // GC resumed past the crash: the recovered replica advertises again.
    let white = cluster.with_engine(0, |e| e.white_line());
    assert!(
        white >= white_before_stop && white + 2 * INTERVAL >= g0,
        "white line {white} trails green {g0}"
    );
    cluster.check_consistency();
    cluster
        .try_check_history()
        .unwrap_or_else(|v| panic!("{v}"));
}

//! Weighted dynamic linear voting and administrative replica removal
//! (§3.1 quorums, §5.1 PERSISTENT_LEAVE).

use todr_core::EngineState;
use todr_harness::client::ClientConfig;
use todr_harness::cluster::{Cluster, ClusterConfig};
use todr_sim::{ProtocolEvent, SimDuration};

#[test]
fn weighted_voting_lets_a_heavy_server_carry_the_quorum() {
    // Server 0 weighs 3; servers 1,2 weigh 1 each (total 5).
    let mut config = ClusterConfig::new(3, 21);
    config.weights.insert(0, 3);
    let mut cluster = Cluster::build(config);
    cluster.settle();

    // {0} alone holds 3/5 — a strict majority.
    cluster.partition(&[vec![0], vec![1, 2]]);
    cluster.run_for(SimDuration::from_secs(2));
    assert_eq!(
        cluster.engine_state(0),
        EngineState::RegPrim,
        "the weighted server must form a primary alone"
    );
    assert_eq!(cluster.engine_state(1), EngineState::NonPrim);
    assert_eq!(cluster.engine_state(2), EngineState::NonPrim);

    // And it keeps serving clients.
    let client = cluster.attach_client(0, ClientConfig::default());
    cluster.run_for(SimDuration::from_secs(1));
    assert!(cluster.client_stats(client).committed > 10);
    cluster.check_consistency();
}

#[test]
fn unweighted_singleton_cannot_form_primary() {
    // Control for the test above: without weights, {0} is 1/3.
    let mut cluster = Cluster::build(ClusterConfig::new(3, 22));
    cluster.settle();
    cluster.partition(&[vec![0], vec![1, 2]]);
    cluster.run_for(SimDuration::from_secs(2));
    assert_eq!(cluster.engine_state(0), EngineState::NonPrim);
    // The 2/3 side does form one.
    assert_eq!(cluster.engine_state(1), EngineState::RegPrim);
    cluster.check_consistency();
}

#[test]
fn dynamic_linear_voting_walks_with_installed_primaries() {
    // 5 servers. Crash two; the remaining 3/5 install a new primary
    // whose member set is now the quorum base — so losing one more
    // (leaving 2, a majority of 3) still yields a primary, even though
    // 2/5 of the original set would not.
    let mut cluster = Cluster::build(ClusterConfig::new(5, 23));
    cluster.settle();
    cluster.crash(3);
    cluster.crash(4);
    cluster.run_for(SimDuration::from_secs(2));
    assert_eq!(cluster.engine_state(0), EngineState::RegPrim);

    cluster.crash(2);
    cluster.run_for(SimDuration::from_secs(2));
    assert_eq!(
        cluster.engine_state(0),
        EngineState::RegPrim,
        "2 of the last primary's 3 members must re-form"
    );
    assert_eq!(cluster.engine_state(1), EngineState::RegPrim);
    cluster.check_consistency();
}

#[test]
fn administrative_removal_unblocks_white_line_gc() {
    let mut cluster = Cluster::build(ClusterConfig::new(4, 24));
    cluster.settle();
    for i in 0..4 {
        cluster.attach_client(i, ClientConfig::default());
    }
    cluster.run_for(SimDuration::from_secs(2));

    // Server 3 dies permanently; its frozen green line pins the white
    // line forever...
    cluster.crash(3);
    cluster.run_for(SimDuration::from_secs(2));
    let white_stuck = cluster.with_engine(0, |e| e.white_line());
    cluster.run_for(SimDuration::from_secs(2));
    let white_later = cluster.with_engine(0, |e| e.white_line());
    assert_eq!(
        white_stuck, white_later,
        "white line should be pinned by the dead replica"
    );

    // ...until an administrator removes the dead replica (§5.1 footnote
    // 3): the PERSISTENT_LEAVE is ordered like any action, the server
    // set shrinks, and garbage collection resumes.
    cluster.remove_replica(0, 3);
    cluster.run_for(SimDuration::from_secs(3));
    for i in 0..3 {
        assert_eq!(
            cluster.with_engine(i, |e| e.server_set().len()),
            3,
            "server {i} still counts the removed replica"
        );
    }
    let white_after = cluster.with_engine(0, |e| e.white_line());
    assert!(
        white_after > white_stuck,
        "white line must advance after removal: {white_stuck} -> {white_after}"
    );
    cluster.check_consistency();
}

#[test]
fn removed_replica_cannot_rejoin_as_itself() {
    // After a PERSISTENT_LEAVE is ordered, the departed server's engine
    // refuses to recover into the system (a fresh replica must use the
    // §5.1 join path instead).
    let mut cluster = Cluster::build(ClusterConfig::new(3, 25));
    cluster.settle();
    cluster.leave(2);
    cluster.run_for(SimDuration::from_secs(2));
    assert_eq!(cluster.engine_state(2), EngineState::Down);

    // Attempting to "recover" the departed engine is a no-op.
    cluster.recover(2);
    cluster.run_for(SimDuration::from_secs(1));
    assert_eq!(cluster.engine_state(2), EngineState::Down);
    cluster.check_consistency();
}

/// The exchange's snapshot fallback, served by a joiner. Replica C is
/// cut off at green g₀; J then joins at green G > g₀, so its green floor
/// is G and it holds no body below it. When {J, C} split away together,
/// no member can send C the missing suffix as actions, and the exchange
/// takes `GreenPath::Snapshot` from J: C adopts J's green base.
#[test]
fn joiner_serves_its_green_base_to_a_laggard() {
    let mut cluster = Cluster::build(ClusterConfig::new(3, 26));
    cluster.settle();
    cluster.attach_client(0, ClientConfig::default());
    cluster.run_for(SimDuration::from_secs(1));

    // 1. C is partitioned away at g₀.
    let c = 2;
    cluster.partition(&[vec![0, 1], vec![c]]);
    cluster.run_for(SimDuration::from_secs(1));
    let g0 = cluster.green_count(c);

    // 2. J joins through the primary; its green floor is its base.
    let j = cluster.add_joiner(0);
    cluster.partition(&[vec![0, 1, j], vec![c]]);
    cluster.run_for(SimDuration::from_secs(3));
    assert_eq!(cluster.engine_state(j), EngineState::RegPrim);
    let floor = cluster.with_engine(j, |e| e.green_floor());
    assert!(floor > g0, "J's floor {floor} is not above C's green {g0}");

    // 3. {J, C} split away from the rest.
    let seen = cluster.world.metrics().events().len();
    cluster.partition(&[vec![0, 1], vec![c, j]]);
    cluster.run_for(SimDuration::from_secs(3));
    assert!(cluster.green_count(c) > g0, "C did not catch up");
    assert_eq!(cluster.green_count(c), cluster.green_count(j));
    assert_eq!(cluster.db_digest(c), cluster.db_digest(j));
    let node = cluster.servers[c].node.index();
    let subsumed = cluster.world.metrics().events()[seen..]
        .iter()
        .any(|r| matches!(r.event, ProtocolEvent::BaseSubsumed { node: n, .. } if n == node));
    assert!(subsumed, "C adopted J's base without a BaseSubsumed");
    cluster.check_consistency();

    // Heal and drain: the history's end-of-run clauses hold too.
    cluster.merge_all();
    cluster.stop_clients();
    cluster.run_for(SimDuration::from_secs(3));
    cluster.check_consistency();
    cluster.try_check_history().expect("history holds");
}

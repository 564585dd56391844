//! End-to-end tests of the EVS layer: membership convergence, agreed
//! order, safe delivery, transitional configurations, virtual synchrony,
//! partitions, merges, crashes.

use std::rc::Rc;

use todr_evs::{ConfId, Configuration, EvsCmd, EvsConfig, EvsDaemon, EvsEvent};
use todr_net::{NetConfig, NetFabric, NetOp, NodeId};
use todr_sim::{
    Actor, ActorId, ApplyHorizon, Ctx, Payload, ProtocolEvent, SimDuration, SimTime, World,
};

/// Records every EVS upcall, with the payload decoded as `u64`.
#[derive(Default)]
struct AppSink {
    reg_confs: Vec<Configuration>,
    trans_confs: Vec<Configuration>,
    deliveries: Vec<Rec>,
    /// The virtual instant of each entry of `deliveries`.
    delivered_at: Vec<SimTime>,
    receipts: Vec<Rec>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Rec {
    conf: ConfId,
    seq: u64,
    sender: NodeId,
    value: u64,
    in_transitional: bool,
}

impl Actor for AppSink {
    fn handle(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
        match payload.downcast::<EvsEvent>() {
            Some(EvsEvent::RegConf(c)) => self.reg_confs.push(c),
            Some(EvsEvent::TransConf(c)) => self.trans_confs.push(c),
            Some(EvsEvent::Deliver(d)) => {
                self.delivered_at.push(ctx.now());
                self.deliveries.push(Rec {
                    conf: d.conf_id,
                    seq: d.seq,
                    sender: d.sender,
                    value: *d.payload.downcast_ref::<u64>().expect("u64 payload"),
                    in_transitional: d.in_transitional,
                })
            }
            Some(EvsEvent::Receipt(d)) => self.receipts.push(Rec {
                conf: d.conf_id,
                seq: d.seq,
                sender: d.sender,
                value: *d.payload.downcast_ref::<u64>().expect("u64 payload"),
                in_transitional: d.in_transitional,
            }),
            Some(EvsEvent::LeaseRenew(_)) => {}
            None => panic!("sink got unknown payload"),
        }
    }
}

struct Cluster {
    world: World,
    fabric: ActorId,
    nodes: Vec<NodeId>,
    daemons: Vec<ActorId>,
    sinks: Vec<ActorId>,
}

impl Cluster {
    fn new(n: u32, seed: u64) -> Self {
        Cluster::new_cfg(n, seed, |_| {})
    }

    fn new_cfg(n: u32, seed: u64, tweak: impl Fn(&mut EvsConfig)) -> Self {
        let mut world = World::new(seed);
        world.set_event_limit(5_000_000);
        let fabric = world.add_actor("net", NetFabric::new(NetConfig::lan()));
        let nodes: Vec<NodeId> = (0..n).map(NodeId::new).collect();
        let mut daemons = Vec::new();
        let mut sinks = Vec::new();
        for &node in &nodes {
            let sink = world.add_actor(format!("app{node}"), AppSink::default());
            let mut config = EvsConfig {
                universe: nodes.clone(),
                ..EvsConfig::default()
            };
            tweak(&mut config);
            let daemon = world.add_actor(
                format!("evs{node}"),
                EvsDaemon::new(node, fabric, sink, config),
            );
            world.with_actor(fabric, |f: &mut NetFabric| f.register(node, daemon));
            sinks.push(sink);
            daemons.push(daemon);
        }
        for &daemon in &daemons {
            world.schedule_now(daemon, EvsCmd::JoinGroup);
        }
        Cluster {
            world,
            fabric,
            nodes,
            daemons,
            sinks,
        }
    }

    fn send_from(&mut self, node_idx: usize, value: u64) {
        self.world.schedule_now(
            self.daemons[node_idx],
            EvsCmd::Send {
                payload: Rc::new(value),
                size_bytes: 200,
            },
        );
    }

    fn run_for(&mut self, d: SimDuration) {
        let deadline = self.world.now() + d;
        self.world.run_until(deadline);
    }

    fn current_conf(&mut self, idx: usize) -> Option<Configuration> {
        self.world
            .with_actor(self.daemons[idx], |d: &mut EvsDaemon| {
                d.current_conf().cloned()
            })
    }

    fn deliveries(&mut self, idx: usize) -> Vec<Rec> {
        self.world
            .with_actor(self.sinks[idx], |s: &mut AppSink| s.deliveries.clone())
    }

    /// When node `idx` delivered the message carrying `value`.
    fn delivered_at(&mut self, idx: usize, value: u64) -> SimTime {
        self.world.with_actor(self.sinks[idx], |s: &mut AppSink| {
            let at = s.deliveries.iter().position(|r| r.value == value);
            s.delivered_at[at.expect("value delivered")]
        })
    }

    fn receipts(&mut self, idx: usize) -> Vec<Rec> {
        self.world
            .with_actor(self.sinks[idx], |s: &mut AppSink| s.receipts.clone())
    }

    /// Gives every daemon one shared apply-horizon handle and returns
    /// it: the test plays the application whose queue it reports.
    fn stub_horizon(&mut self) -> ApplyHorizon {
        let horizon = ApplyHorizon::default();
        for &daemon in &self.daemons {
            let h = horizon.clone();
            self.world
                .with_actor(daemon, move |d: &mut EvsDaemon| d.set_apply_horizon(h));
        }
        horizon
    }

    fn partition(&mut self, groups: &[Vec<NodeId>]) {
        let (groups, now) = (groups.to_vec(), self.world.now());
        self.world
            .with_actor(self.fabric, move |f: &mut NetFabric| {
                f.set_partition(&groups, now)
            });
    }

    fn merge_all(&mut self) {
        let now = self.world.now();
        self.world
            .with_actor(self.fabric, |f: &mut NetFabric| f.merge_all(now));
    }
}

const SETTLE: SimDuration = SimDuration::from_millis(600);
/// The daemon's sequencer-round window (`PACK_WINDOW`, private to it).
const PACK_WINDOW: SimDuration = SimDuration::from_micros(500);

#[test]
fn startup_converges_to_one_configuration() {
    let mut c = Cluster::new(5, 1);
    c.run_for(SETTLE);
    let conf0 = c.current_conf(0).expect("installed");
    assert_eq!(conf0.members, c.nodes);
    for i in 1..5 {
        assert_eq!(c.current_conf(i).expect("installed"), conf0);
    }
}

#[test]
fn total_order_is_identical_at_all_members() {
    let mut c = Cluster::new(4, 2);
    c.run_for(SETTLE);
    for round in 0..10u64 {
        for i in 0..4usize {
            c.send_from(i, round * 10 + i as u64);
        }
    }
    c.run_for(SimDuration::from_millis(300));
    let reference = c.deliveries(0);
    assert_eq!(reference.len(), 40, "all 40 messages delivered");
    for i in 1..4 {
        assert_eq!(c.deliveries(i), reference, "node {i} diverged");
    }
    // All safe (no membership change happened).
    assert!(reference.iter().all(|r| !r.in_transitional));
    // Sequence numbers are gapless and increasing.
    let seqs: Vec<u64> = reference.iter().map(|r| r.seq).collect();
    assert_eq!(seqs, (1..=40).collect::<Vec<_>>());
}

#[test]
fn messages_submitted_before_convergence_reach_their_sender() {
    // EVS scopes delivery to the configuration a message was sequenced
    // in: a message sent while a daemon still sits in its singleton
    // startup configuration is delivered there (to the sender alone) and
    // does NOT leak into the merged configuration — propagating such
    // messages across views is exactly the replication engine's job
    // (action exchange). Here we verify the EVS-level contract: the
    // sender delivers its own message, and no duplicate appears after
    // the merge.
    let mut c = Cluster::new(3, 3);
    c.send_from(0, 111);
    c.send_from(1, 222);
    c.run_for(SETTLE);
    let d0: Vec<u64> = c.deliveries(0).iter().map(|r| r.value).collect();
    let d1: Vec<u64> = c.deliveries(1).iter().map(|r| r.value).collect();
    assert_eq!(d0.iter().filter(|&&v| v == 111).count(), 1);
    assert_eq!(d1.iter().filter(|&&v| v == 222).count(), 1);
    // Messages sent after the merge reach everyone.
    c.send_from(0, 333);
    c.run_for(SimDuration::from_millis(300));
    for i in 0..3 {
        let values: Vec<u64> = c.deliveries(i).iter().map(|r| r.value).collect();
        assert!(values.contains(&333), "node {i} missing 333");
    }
}

#[test]
fn partition_installs_separate_configurations() {
    let mut c = Cluster::new(5, 4);
    c.run_for(SETTLE);
    let majority: Vec<NodeId> = c.nodes[..3].to_vec();
    let minority: Vec<NodeId> = c.nodes[3..].to_vec();
    c.partition(&[majority.clone(), minority.clone()]);
    c.run_for(SETTLE);
    assert_eq!(c.current_conf(0).unwrap().members, majority);
    assert_eq!(c.current_conf(4).unwrap().members, minority);

    // Post-partition traffic stays within each side.
    c.send_from(0, 1000);
    c.send_from(4, 2000);
    c.run_for(SimDuration::from_millis(200));
    let side_a: Vec<u64> = c.deliveries(1).iter().map(|r| r.value).collect();
    let side_b: Vec<u64> = c.deliveries(3).iter().map(|r| r.value).collect();
    assert!(side_a.contains(&1000));
    assert!(!side_a.contains(&2000));
    assert!(side_b.contains(&2000));
    assert!(!side_b.contains(&1000));
}

#[test]
fn virtual_synchrony_members_moving_together_deliver_same_set() {
    let mut c = Cluster::new(5, 5);
    c.run_for(SETTLE);
    // Fire a burst and partition while it is in flight.
    for i in 0..5usize {
        for v in 0..5u64 {
            c.send_from(i, (i as u64) * 100 + v);
        }
    }
    c.run_for(SimDuration::from_micros(400)); // mid-flight
    c.partition(&[c.nodes[..3].to_vec(), c.nodes[3..].to_vec()]);
    c.run_for(SETTLE);

    let old_conf = |r: &Rec| r.conf.seq; // group deliveries by conf
                                         // Nodes 0,1,2 moved together: identical delivery records for every
                                         // configuration.
    let d0 = c.deliveries(0);
    for i in 1..3 {
        let di = c.deliveries(i);
        // Compare the (conf, seq, sender, value) multiset — the safe/
        // transitional flag may legitimately differ per member.
        let key = |v: &Vec<Rec>| {
            let mut k: Vec<(u32, u64, NodeId, u64)> = v
                .iter()
                .map(|r| (old_conf(r), r.seq, r.sender, r.value))
                .collect();
            k.sort();
            k
        };
        assert_eq!(key(&d0), key(&di), "node {i} saw a different set");
    }
}

#[test]
fn safe_delivery_trichotomy() {
    // If any member delivered message m as safe in regular configuration
    // C, every member of C delivers m (regular or transitional).
    let mut c = Cluster::new(5, 6);
    c.run_for(SETTLE);
    for i in 0..5usize {
        for v in 0..10u64 {
            c.send_from(i, (i as u64) * 1000 + v);
        }
    }
    c.run_for(SimDuration::from_micros(900));
    c.partition(&[c.nodes[..2].to_vec(), c.nodes[2..].to_vec()]);
    c.run_for(SETTLE);

    let all: Vec<Vec<Rec>> = (0..5).map(|i| c.deliveries(i)).collect();
    // Find the big configuration (all 5 members) from node 0's view.
    let conf_of_interest = c
        .world
        .with_actor(c.sinks[0], |s: &mut AppSink| s.reg_confs[0].clone());
    assert!(!conf_of_interest.members.is_empty());
    for (i, di) in all.iter().enumerate() {
        for r in di.iter().filter(|r| !r.in_transitional) {
            // r delivered safe at node i: every other node must have it
            // in some form for the same conf, or be outside that conf.
            for (j, dj) in all.iter().enumerate() {
                if i == j {
                    continue;
                }
                let member_of_conf = true; // all 5 were members of the initial big conf
                if member_of_conf && r.conf == conf_of_interest.id {
                    assert!(
                        dj.iter().any(|x| x.conf == r.conf && x.seq == r.seq),
                        "node {j} never delivered ({}, seq {}) that node {i} saw as safe",
                        r.conf,
                        r.seq
                    );
                }
            }
        }
    }
}

/// The event log narrows a delivery's configuration number and slot to
/// `u32`; through a partition (with messages mid-flight, so some land
/// in transitional configurations) and a merge, each node's logged
/// deliveries (`Delivered` singles and `DeliveredRun`s, read slot by
/// slot) still carry exactly what its application was handed, in
/// delivery order.
#[test]
fn delivered_events_carry_exactly_the_applications_deliveries() {
    let mut c = Cluster::new(5, 6);
    c.run_for(SETTLE);
    let burst = |c: &mut Cluster, base: u64| {
        for i in 0..5usize {
            for v in 0..10u64 {
                c.send_from(i, base + (i as u64) * 100 + v);
            }
        }
    };
    burst(&mut c, 0);
    c.run_for(SimDuration::from_micros(300));
    c.partition(&[c.nodes[..2].to_vec(), c.nodes[2..].to_vec()]);
    c.run_for(SETTLE);
    burst(&mut c, 1_000);
    c.run_for(SimDuration::from_millis(200));
    c.merge_all();
    c.run_for(SETTLE);
    burst(&mut c, 2_000);
    c.run_for(SimDuration::from_millis(300));

    type Fields = (u32, u32, u64, u32, bool);
    let mut logged: Vec<Vec<Fields>> = vec![Vec::new(); 5];
    let mut runs = 0;
    for rec in c.world.metrics().events() {
        runs += usize::from(matches!(rec.event, ProtocolEvent::DeliveredRun(_)));
        for d in rec.event.delivered_slots() {
            logged[d.node as usize].push((
                d.conf_seq,
                d.coordinator,
                u64::from(d.seq),
                d.sender,
                d.in_transitional,
            ));
        }
    }
    assert!(runs > 0, "no batch logged as a run");
    let (mut transitional, mut confs) = (0, std::collections::BTreeSet::new());
    for (i, logged) in logged.iter().enumerate() {
        let handed: Vec<Fields> = c
            .deliveries(i)
            .iter()
            .map(|r| {
                (
                    r.conf.seq,
                    r.conf.coordinator.index(),
                    r.seq,
                    r.sender.index(),
                    r.in_transitional,
                )
            })
            .collect();
        assert_eq!(
            logged, &handed,
            "node {i}'s log differs from its deliveries"
        );
        transitional += handed.iter().filter(|d| d.4).count();
        confs.extend(handed.iter().map(|d| (d.0, d.1)));
    }
    assert!(
        transitional > 0,
        "no delivery landed in a transitional configuration"
    );
    assert!(confs.len() >= 3, "partition and merge installed {confs:?}");
}

#[test]
fn merge_reunifies_and_order_continues() {
    let mut c = Cluster::new(4, 7);
    c.run_for(SETTLE);
    c.partition(&[c.nodes[..2].to_vec(), c.nodes[2..].to_vec()]);
    c.run_for(SETTLE);
    c.send_from(0, 10);
    c.send_from(3, 20);
    c.run_for(SimDuration::from_millis(200));
    c.merge_all();
    c.run_for(SETTLE);
    let conf = c.current_conf(0).unwrap();
    assert_eq!(conf.members, c.nodes);
    for i in 1..4 {
        assert_eq!(c.current_conf(i).unwrap(), conf);
    }
    // New messages reach everyone in the same order.
    c.send_from(1, 30);
    c.send_from(2, 40);
    c.run_for(SimDuration::from_millis(300));
    let tail = |recs: Vec<Rec>| -> Vec<u64> {
        recs.iter()
            .filter(|r| r.conf == conf.id)
            .map(|r| r.value)
            .collect()
    };
    let t0 = tail(c.deliveries(0));
    assert!(t0.contains(&30) && t0.contains(&40));
    for i in 1..4 {
        assert_eq!(tail(c.deliveries(i)), t0);
    }
}

#[test]
fn crashed_node_is_excluded_and_rejoins_on_restart() {
    let mut c = Cluster::new(3, 8);
    c.run_for(SETTLE);
    // Crash node 2: silence it at the fabric and wipe the daemon.
    let n2 = c.nodes[2];
    let fabric = c.fabric;
    c.world.schedule_now(fabric, NetOp::Crash(n2));
    let d2 = c.daemons[2];
    c.world.schedule_now(d2, EvsCmd::Crash);
    c.run_for(SETTLE);
    assert_eq!(c.current_conf(0).unwrap().members, &c.nodes[..2]);

    // Recover.
    c.world.schedule_now(fabric, NetOp::Recover(n2));
    c.world.schedule_now(d2, EvsCmd::JoinGroup);
    c.run_for(SETTLE);
    let conf = c.current_conf(0).unwrap();
    assert_eq!(conf.members, c.nodes);
    assert_eq!(c.current_conf(2).unwrap(), conf);

    // The rejoined node participates in ordering again.
    c.send_from(2, 77);
    c.run_for(SimDuration::from_millis(300));
    for i in 0..3 {
        assert!(c.deliveries(i).iter().any(|r| r.value == 77));
    }
}

#[test]
fn reliable_links_keep_a_restarted_peers_channels_apart() {
    // n1 crashes and restarts in one instant, a few hundred µs after it
    // sent to n0. Until n0 hears n1's new link epoch it still numbers
    // its frames in the sequence of n1's dead incarnation; those frames
    // must not reach the new one, or they take the place of n0's
    // renumbered frames and the agreed order breaks.
    for delay_us in [0, 10, 50, 100, 200, 400, 700, 1_000, 2_000] {
        let mut c = Cluster::new_cfg(3, 31, |cfg| cfg.reliable_links = true);
        c.run_for(SETTLE);
        c.send_from(1, 0);
        c.run_for(SimDuration::from_micros(delay_us));
        let d1 = c.daemons[1];
        c.world.schedule_now(d1, EvsCmd::Crash);
        c.world.schedule_now(d1, EvsCmd::JoinGroup);
        for v in 1..=1_000u64 {
            c.send_from(v as usize % 3, v);
            c.run_for(SimDuration::from_micros(100));
        }
        c.run_for(SETTLE);
        let conf = c.current_conf(0).expect("installed");
        assert_eq!(conf.members, c.nodes, "delay {delay_us} µs");
        let all: Vec<Vec<Rec>> = (0..3).map(|i| c.deliveries(i)).collect();
        for (i, recs) in all.iter().enumerate() {
            assert_eq!(c.current_conf(i).as_ref(), Some(&conf));
            for r in recs {
                for other in &all {
                    let same = other.iter().find(|o| o.conf == r.conf && o.seq == r.seq);
                    assert!(
                        same.is_none_or(|o| o.value == r.value),
                        "delay {delay_us} µs"
                    );
                }
            }
        }
        let last = |recs: &[Rec]| recs.iter().filter(|r| r.conf == conf.id).count();
        assert!(last(&all[0]) > 0);
        assert!(all.iter().all(|recs| last(recs) == last(&all[0])));
    }
}

#[test]
fn voluntary_leave_shrinks_configuration() {
    let mut c = Cluster::new(3, 9);
    c.run_for(SETTLE);
    let d2 = c.daemons[2];
    c.world.schedule_now(d2, EvsCmd::LeaveGroup);
    c.run_for(SETTLE);
    assert_eq!(c.current_conf(0).unwrap().members, &c.nodes[..2]);
}

#[test]
fn deterministic_same_seed_same_outcome() {
    let run = |seed: u64| -> (Vec<Rec>, Option<Configuration>, SimTime) {
        let mut c = Cluster::new(4, seed);
        c.run_for(SETTLE);
        for i in 0..4usize {
            c.send_from(i, i as u64);
        }
        c.run_for(SimDuration::from_millis(100));
        c.partition(&[c.nodes[..2].to_vec(), c.nodes[2..].to_vec()]);
        c.run_for(SETTLE);
        let now = c.world.now();
        (c.deliveries(0), c.current_conf(0), now)
    };
    let a = run(42);
    let b = run(42);
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    let c_ = run(43);
    // Different seed still converges, possibly along a different path.
    assert!(c_.1.is_some());
}

#[test]
fn cascading_partitions_settle() {
    let mut c = Cluster::new(6, 10);
    c.run_for(SETTLE);
    // Three rapid re-partitions while traffic flows.
    for i in 0..6usize {
        c.send_from(i, i as u64);
    }
    c.partition(&[c.nodes[..4].to_vec(), c.nodes[4..].to_vec()]);
    c.run_for(SimDuration::from_millis(120)); // mid-membership-round
    c.partition(&[
        c.nodes[..2].to_vec(),
        c.nodes[2..4].to_vec(),
        c.nodes[4..].to_vec(),
    ]);
    c.run_for(SimDuration::from_millis(120));
    c.merge_all();
    c.run_for(SimDuration::from_secs(2));
    let conf = c.current_conf(0).unwrap();
    assert_eq!(conf.members, c.nodes, "everyone reunified");
    for i in 1..6 {
        assert_eq!(c.current_conf(i).unwrap(), conf);
    }
    // Ordering still works afterwards.
    c.send_from(0, 999);
    c.run_for(SimDuration::from_millis(300));
    for i in 0..6 {
        assert!(c.deliveries(i).iter().any(|r| r.value == 999));
    }
}

#[test]
fn eager_receipts_preview_the_agreed_order() {
    let mut c = Cluster::new_cfg(4, 12, |cfg| cfg.eager_receipts = true);
    c.run_for(SETTLE);
    for round in 0..10u64 {
        for i in 0..4usize {
            c.send_from(i, round * 10 + i as u64);
        }
    }
    c.run_for(SimDuration::from_millis(300));
    let reference = c.deliveries(0);
    assert_eq!(reference.len(), 40);
    for i in 0..4 {
        // Every message is receipted exactly once, in the agreed order,
        // and the receipt stream equals the (later) delivery stream.
        let receipts = c.receipts(i);
        assert_eq!(
            receipts,
            c.deliveries(i),
            "node {i} receipt stream diverged"
        );
        assert!(receipts.iter().all(|r| !r.in_transitional));
    }
}

#[test]
fn receipts_are_off_by_default() {
    let mut c = Cluster::new(3, 13);
    c.run_for(SETTLE);
    c.send_from(0, 7);
    c.run_for(SimDuration::from_millis(300));
    for i in 0..3 {
        assert!(c.deliveries(i).iter().any(|r| r.value == 7));
        assert!(
            c.receipts(i).is_empty(),
            "node {i} receipted without the flag"
        );
    }
}

#[test]
fn receipted_messages_survive_a_partition_at_moving_members() {
    // A receipt is a promise about the agreed order: any member that
    // receipted a message and stays in a surviving component delivers
    // it (regular or transitional) before the next configuration.
    let mut c = Cluster::new_cfg(5, 14, |cfg| cfg.eager_receipts = true);
    c.run_for(SETTLE);
    for i in 0..5usize {
        for v in 0..5u64 {
            c.send_from(i, (i as u64) * 100 + v);
        }
    }
    c.run_for(SimDuration::from_micros(400)); // mid-flight
    c.partition(&[c.nodes[..3].to_vec(), c.nodes[3..].to_vec()]);
    c.run_for(SETTLE);
    for i in 0..5 {
        let deliveries = c.deliveries(i);
        for r in c.receipts(i) {
            assert!(
                deliveries
                    .iter()
                    .any(|d| d.conf == r.conf && d.seq == r.seq && d.value == r.value),
                "node {i} receipted (conf {}, seq {}) but never delivered it",
                r.conf,
                r.seq
            );
        }
    }
}

#[test]
fn no_duplicate_deliveries_within_a_configuration() {
    let mut c = Cluster::new(4, 11);
    c.run_for(SETTLE);
    for v in 0..20u64 {
        c.send_from((v % 4) as usize, v);
    }
    c.run_for(SimDuration::from_millis(400));
    for i in 0..4 {
        let recs = c.deliveries(i);
        let mut keys: Vec<(u32, u64)> = recs.iter().map(|r| (r.conf.seq, r.seq)).collect();
        keys.sort();
        let before = keys.len();
        keys.dedup();
        assert_eq!(keys.len(), before, "duplicate (conf, seq) at node {i}");
    }
}

// ------------------------------------------------------------
// message packing (`max_pack > 1`): sequencer rounds
// ------------------------------------------------------------

#[test]
fn lone_message_pays_no_pack_window() {
    // A message that follows a silence cannot share a frame with
    // anything, so packing daemons deliver it exactly when unpacked
    // ones do, at every member.
    let lone = |max_pack: usize| -> Vec<SimTime> {
        let mut c = Cluster::new_cfg(5, 21, |cfg| cfg.max_pack = max_pack);
        c.run_for(SETTLE);
        c.send_from(3, 7);
        c.run_for(SimDuration::from_millis(20));
        (0..5).map(|i| c.delivered_at(i, 7)).collect()
    };
    assert_eq!(lone(8), lone(1));
}

#[test]
fn dense_stream_still_packs_and_keeps_sender_order() {
    const MAX_PACK: usize = 8;
    let mut c = Cluster::new_cfg(4, 22, |cfg| cfg.max_pack = MAX_PACK);
    c.run_for(SETTLE);
    // Every node submits once per 100 us: four arrivals per 100 us at
    // the coordinator, far inside the window.
    for k in 0..50u64 {
        for i in 0..4usize {
            c.send_from(i, i as u64 * 1000 + k);
        }
        c.run_for(SimDuration::from_micros(100));
    }
    c.run_for(SimDuration::from_millis(50));

    let metrics = c.world.metrics();
    let frames = metrics.histogram("evs.actions_per_frame").expect("packed");
    // 200 messages each ride one `Submit` and one `Sequenced` frame:
    // fewer than 400 frames is a mean above one message per frame.
    assert!(frames.count() < 400, "{} frames", frames.count());
    assert!(frames.max_nanos() <= MAX_PACK as u64);
    assert_eq!(metrics.counter("evs.sequenced"), 200);
    assert!(metrics.counter("evs.sequencer_rounds") * 4 <= 200);
    let hold = metrics.histogram("evs.round_hold").expect("rounds ran");
    assert_eq!(hold.count(), 200);
    assert!(hold.max_nanos() <= PACK_WINDOW.as_nanos());

    let reference = c.deliveries(0);
    assert_eq!(reference.len(), 200);
    for i in 0..4 {
        assert_eq!(c.deliveries(i), reference, "node {i} diverged");
    }
    for sender in 0..4u64 {
        let from_sender: Vec<u64> = reference
            .iter()
            .map(|r| r.value)
            .filter(|v| v / 1000 == sender)
            .collect();
        let submitted: Vec<u64> = (0..50).map(|k| sender * 1000 + k).collect();
        assert_eq!(from_sender, submitted, "sender {sender} reordered");
    }
}

#[test]
fn partition_with_a_round_open_loses_nothing_and_the_next_round_runs_full() {
    let mut c = Cluster::new_cfg(5, 23, |cfg| cfg.max_pack = 8);
    c.run_for(SETTLE);
    // Three submissions per node 40 us apart: all but the first reach
    // the coordinator inside the window, so a round is open when the
    // partition cuts the coordinator (node 0) off from nodes 3 and 4.
    for k in 0..3u64 {
        for i in 0..5usize {
            c.send_from(i, i as u64 * 100 + k);
        }
        c.run_for(SimDuration::from_micros(40));
    }
    c.run_for(SimDuration::from_micros(150));
    c.partition(&[c.nodes[..3].to_vec(), c.nodes[3..].to_vec()]);
    c.run_for(SETTLE);
    for i in 0..5 {
        let mut values: Vec<u64> = c.deliveries(i).iter().map(|r| r.value).collect();
        for k in 0..3 {
            let own = i as u64 * 100 + k;
            assert!(values.contains(&own), "node {i} lost its own {own}");
        }
        let before = values.len();
        values.sort_unstable();
        values.dedup();
        assert_eq!(values.len(), before, "node {i} delivered a value twice");
    }

    // In the configuration {0, 1, 2}: 901 follows a silence and goes out
    // alone; 902 opens a round; 903 reaches the coordinator 300 us into
    // that round and must still ride its frame.
    let rounds = c.world.metrics().counter("evs.sequencer_rounds");
    c.send_from(1, 901);
    c.run_for(SimDuration::from_micros(100));
    c.send_from(2, 902);
    c.run_for(SimDuration::from_micros(300));
    c.send_from(1, 903);
    c.run_for(SimDuration::from_millis(20));
    assert_eq!(
        c.world.metrics().counter("evs.sequencer_rounds"),
        rounds + 2
    );
    for i in 0..3 {
        assert_eq!(c.delivered_at(i, 902), c.delivered_at(i, 903));
        assert!(c.delivered_at(i, 901) < c.delivered_at(i, 902));
    }
    let hold = c.world.metrics().histogram("evs.round_hold").expect("held");
    assert_eq!(hold.max_nanos(), PACK_WINDOW.as_nanos());
}

#[test]
fn restart_with_a_round_open_does_not_shorten_the_next_round() {
    // A singleton group is its own coordinator. 1 goes out alone, 2
    // opens a round, and the daemon restarts inside it: the round and
    // its pending timer belong to the old incarnation, so the round 3
    // opens in the new one must still run the whole window.
    let mut c = Cluster::new_cfg(1, 24, |cfg| cfg.max_pack = 8);
    c.run_for(SETTLE);
    c.send_from(0, 1);
    c.run_for(SimDuration::from_micros(60));
    c.send_from(0, 2);
    c.run_for(SimDuration::from_micros(100));
    let restarted_at = c.world.now();
    let daemon = c.daemons[0];
    c.world.schedule_now(daemon, EvsCmd::Crash);
    c.world.schedule_now(daemon, EvsCmd::JoinGroup);
    c.send_from(0, 3);
    c.run_for(SimDuration::from_millis(20));
    assert!(c.delivered_at(0, 3) >= restarted_at + PACK_WINDOW);
    let hold = c.world.metrics().histogram("evs.round_hold").expect("held");
    assert_eq!(hold.max_nanos(), PACK_WINDOW.as_nanos());
}

// ------------------------------------------------------------
// sequencer rounds under a backlogged apply queue
// ------------------------------------------------------------

/// `NetConfig::lan()`'s loopback latency: a singleton group's own
/// `Submit` reaches its sequencer this long after the send.
const LOOPBACK: SimDuration = SimDuration::from_micros(5);

#[test]
fn backlogged_apply_queue_holds_a_round_until_one_window_before_it_drains() {
    // A singleton group is its own coordinator. 1 goes out alone; 2
    // opens a round while the application reports `backlog` of queued
    // work. Past two windows the round closes one window before the
    // queue drains, and delivery moves by exactly the longer hold.
    const BACKLOG: SimDuration = SimDuration::from_millis(3);
    let run = |backlog: SimDuration| -> (SimTime, u64) {
        let mut c = Cluster::new_cfg(1, 25, |cfg| cfg.max_pack = 8);
        let horizon = c.stub_horizon();
        c.run_for(SETTLE);
        c.send_from(0, 1);
        c.run_for(SimDuration::from_micros(60));
        horizon.set(c.world.now() + LOOPBACK + backlog);
        c.send_from(0, 2);
        c.run_for(SimDuration::from_millis(20));
        let hold = c.world.metrics().histogram("evs.round_hold").expect("held");
        let hold = hold.max_nanos();
        (c.delivered_at(0, 2), hold)
    };
    let (plain_at, plain_hold) = run(SimDuration::ZERO);
    let (held_at, held_hold) = run(BACKLOG);
    assert_eq!(plain_hold, PACK_WINDOW.as_nanos());
    assert_eq!(held_hold, (BACKLOG - PACK_WINDOW).as_nanos());
    assert_eq!(held_at, plain_at + (BACKLOG - PACK_WINDOW - PACK_WINDOW));
}

#[test]
fn short_backlog_or_no_handle_keeps_the_plain_window() {
    // The dense stream of `dense_stream_still_packs_and_keeps_sender_order`
    // with an application that never reports more than two windows of
    // queued work: every delivery instant equals a run whose daemons have
    // no handle at all.
    let run = |stub: bool| -> Vec<Vec<SimTime>> {
        let mut c = Cluster::new_cfg(4, 22, |cfg| cfg.max_pack = 8);
        let horizon = stub.then(|| c.stub_horizon());
        c.run_for(SETTLE);
        for k in 0..50u64 {
            if let Some(h) = &horizon {
                h.set(c.world.now() + PACK_WINDOW + PACK_WINDOW);
            }
            for i in 0..4usize {
                c.send_from(i, i as u64 * 1000 + k);
            }
            c.run_for(SimDuration::from_micros(100));
        }
        c.run_for(SimDuration::from_millis(50));
        (0..4)
            .map(|i| {
                c.world
                    .with_actor(c.sinks[i], |s: &mut AppSink| s.delivered_at.clone())
            })
            .collect()
    };
    let plain = run(false);
    assert_eq!(plain[0].len(), 200);
    assert_eq!(run(true), plain);
}

#[test]
fn a_full_frame_leaves_early_and_the_held_round_is_not_extended() {
    // 1 opens a round under a 10 ms backlog; 1..=8 fill a frame 70 us
    // in, which goes out at once. 9 joins the same round and leaves at
    // its original deadline, open + backlog − window.
    const BACKLOG: SimDuration = SimDuration::from_millis(10);
    const GAP: SimDuration = SimDuration::from_micros(10);
    let mut c = Cluster::new_cfg(1, 26, |cfg| cfg.max_pack = 8);
    let horizon = c.stub_horizon();
    c.run_for(SETTLE);
    c.send_from(0, 0);
    c.run_for(SimDuration::from_micros(60));
    let opens_at = c.world.now() + LOOPBACK;
    horizon.set(opens_at + BACKLOG);
    for v in 1..=9u64 {
        c.send_from(0, v);
        c.run_for(GAP);
    }
    c.run_for(SimDuration::from_millis(20));
    let full_at = c.delivered_at(0, 8);
    assert!(full_at < opens_at + PACK_WINDOW, "the full frame was held");
    for v in 1..8 {
        assert_eq!(c.delivered_at(0, v), full_at);
    }
    let ends_at = opens_at + (BACKLOG - PACK_WINDOW);
    let filled_at = opens_at + GAP * 7;
    assert_eq!(
        c.delivered_at(0, 9),
        full_at + ends_at.saturating_since(filled_at)
    );
    let hold = c.world.metrics().histogram("evs.round_hold").expect("held");
    assert!(hold.max_nanos() < (BACKLOG - PACK_WINDOW).as_nanos());
}

#[test]
fn a_crash_that_zeroes_the_horizon_gives_the_next_round_a_plain_window() {
    // 2 opens a long round under a 10 ms backlog, then the node crashes.
    // The crash empties the apply queue (the engine zeroes its horizon),
    // so the round 3 opens in the new incarnation runs one window.
    let mut c = Cluster::new_cfg(1, 27, |cfg| cfg.max_pack = 8);
    let horizon = c.stub_horizon();
    c.run_for(SETTLE);
    c.send_from(0, 1);
    c.run_for(SimDuration::from_micros(60));
    horizon.set(c.world.now() + SimDuration::from_millis(10));
    c.send_from(0, 2);
    c.run_for(SimDuration::from_micros(100));
    let restarted_at = c.world.now();
    let daemon = c.daemons[0];
    c.world.schedule_now(daemon, EvsCmd::Crash);
    c.world.schedule_now(daemon, EvsCmd::JoinGroup);
    horizon.set(SimTime::ZERO);
    c.send_from(0, 3);
    c.run_for(SimDuration::from_millis(20));
    assert!(c.delivered_at(0, 3) < restarted_at + PACK_WINDOW + PACK_WINDOW);
    let hold = c.world.metrics().histogram("evs.round_hold").expect("held");
    assert_eq!(hold.max_nanos(), PACK_WINDOW.as_nanos());
}

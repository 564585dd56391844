//! The paper's failure model includes random message loss (§2.1). With
//! reliable links enabled, the EVS layer must provide identical
//! guarantees over a lossy fabric.

use std::rc::Rc;

use todr_evs::{Configuration, EvsCmd, EvsConfig, EvsDaemon, EvsEvent};
use todr_net::{NetConfig, NetFabric, NodeId};
use todr_sim::{Actor, ActorId, Ctx, Payload, SimDuration, World};

#[derive(Default)]
struct Sink {
    deliveries: Vec<(u32, u64, bool)>, // (conf seq, seq, transitional)
    values: Vec<u64>,
}

impl Actor for Sink {
    fn handle(&mut self, _ctx: &mut Ctx<'_>, payload: Payload) {
        if let Some(EvsEvent::Deliver(d)) = payload.downcast_ref::<EvsEvent>() {
            self.deliveries
                .push((d.conf_id.seq, d.seq, d.in_transitional));
            self.values
                .push(*d.payload.downcast_ref::<u64>().expect("u64"));
        }
    }
}

struct LossyCluster {
    world: World,
    fabric: ActorId,
    daemons: Vec<ActorId>,
    sinks: Vec<ActorId>,
}

fn build(n: u32, loss: f64, seed: u64) -> LossyCluster {
    let mut world = World::new(seed);
    world.set_event_limit(20_000_000);
    let mut cfg = NetConfig::lan();
    cfg.loss_probability = loss;
    let fabric = world.add_actor("net", NetFabric::new(cfg));
    let nodes: Vec<NodeId> = (0..n).map(NodeId::new).collect();
    let mut daemons = Vec::new();
    let mut sinks = Vec::new();
    for &node in &nodes {
        let sink = world.add_actor(format!("app{node}"), Sink::default());
        let config = EvsConfig {
            universe: nodes.clone(),
            reliable_links: true,
            ..EvsConfig::default()
        };
        let daemon = world.add_actor(
            format!("evs{node}"),
            EvsDaemon::new(node, fabric, sink, config),
        );
        world.with_actor(fabric, |f: &mut NetFabric| f.register(node, daemon));
        daemons.push(daemon);
        sinks.push(sink);
    }
    for &d in &daemons {
        world.schedule_now(d, EvsCmd::JoinGroup);
    }
    LossyCluster {
        world,
        fabric,
        daemons,
        sinks,
    }
}

fn conf_of(c: &mut LossyCluster, idx: usize) -> Option<Configuration> {
    c.world.with_actor(c.daemons[idx], |d: &mut EvsDaemon| {
        d.current_conf().cloned()
    })
}

#[test]
fn membership_converges_under_10pct_loss() {
    let mut c = build(4, 0.10, 1);
    c.world.run_until(todr_sim::SimTime::from_secs(3));
    let conf = conf_of(&mut c, 0).expect("conf installed");
    assert_eq!(conf.members.len(), 4, "did not converge under loss");
    for i in 1..4 {
        assert_eq!(conf_of(&mut c, i).expect("installed"), conf);
    }
}

#[test]
fn total_order_holds_under_loss() {
    let mut c = build(4, 0.08, 2);
    c.world.run_until(todr_sim::SimTime::from_secs(3));
    // Ensure a stable full view before sending.
    let conf = conf_of(&mut c, 0).expect("conf");
    assert_eq!(conf.members.len(), 4);
    for round in 0..15u64 {
        for i in 0..4usize {
            let d = c.daemons[i];
            c.world.schedule_now(
                d,
                EvsCmd::Send {
                    payload: Rc::new(round * 10 + i as u64),
                    size_bytes: 200,
                },
            );
        }
        c.world
            .run_until(c.world.now() + SimDuration::from_millis(30));
    }
    c.world.run_until(c.world.now() + SimDuration::from_secs(2));
    // Every message delivered exactly once at every member, same order.
    let reference: Vec<u64> = c
        .world
        .with_actor(c.sinks[0], |s: &mut Sink| s.values.clone());
    assert_eq!(reference.len(), 60, "lost messages despite reliable links");
    for i in 1..4 {
        let vals = c
            .world
            .with_actor(c.sinks[i], |s: &mut Sink| s.values.clone());
        assert_eq!(vals, reference, "node {i} diverged under loss");
    }
}

#[test]
fn partition_and_merge_still_work_with_loss() {
    let mut c = build(5, 0.05, 3);
    c.world.run_until(todr_sim::SimTime::from_secs(3));
    assert_eq!(conf_of(&mut c, 0).expect("conf").members.len(), 5);

    let nodes: Vec<NodeId> = (0..5).map(NodeId::new).collect();
    let (a, b) = (nodes[..3].to_vec(), nodes[3..].to_vec());
    let now = c.world.now();
    c.world.with_actor(c.fabric, move |f: &mut NetFabric| {
        f.set_partition(&[a, b], now);
    });
    c.world.run_until(c.world.now() + SimDuration::from_secs(2));
    assert_eq!(conf_of(&mut c, 0).expect("conf").members.len(), 3);
    assert_eq!(conf_of(&mut c, 4).expect("conf").members.len(), 2);

    let now = c.world.now();
    c.world
        .with_actor(c.fabric, |f: &mut NetFabric| f.merge_all(now));
    c.world.run_until(c.world.now() + SimDuration::from_secs(3));
    let conf = conf_of(&mut c, 0).expect("conf");
    assert_eq!(conf.members.len(), 5, "merge failed under loss");
    for i in 1..5 {
        assert_eq!(conf_of(&mut c, i).expect("conf"), conf);
    }
}

#[test]
fn heavy_loss_delays_but_does_not_break_delivery() {
    let mut c = build(3, 0.25, 4);
    c.world.run_until(todr_sim::SimTime::from_secs(5));
    let conf = conf_of(&mut c, 0).expect("conf under heavy loss");
    assert_eq!(conf.members.len(), 3);
    for v in 0..10u64 {
        let d = c.daemons[0];
        c.world.schedule_now(
            d,
            EvsCmd::Send {
                payload: Rc::new(v),
                size_bytes: 200,
            },
        );
    }
    c.world.run_until(c.world.now() + SimDuration::from_secs(3));
    for i in 0..3 {
        let vals = c
            .world
            .with_actor(c.sinks[i], |s: &mut Sink| s.values.clone());
        // All ten values present (the view may have churned under heavy
        // loss, so we check the set rather than one configuration).
        for v in 0..10u64 {
            assert!(
                vals.contains(&v),
                "node {i} missing value {v} under heavy loss: {vals:?}"
            );
        }
    }
}

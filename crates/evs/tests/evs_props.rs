//! Randomized (seeded, deterministic) EVS tests: random cluster sizes,
//! traffic patterns and partition timings; the ordering and
//! safe-delivery invariants must hold in every execution.

use std::collections::BTreeMap;
use std::rc::Rc;

use todr_evs::{ConfId, EvsCmd, EvsConfig, EvsDaemon, EvsEvent};
use todr_net::{NetConfig, NetFabric, NodeId};
use todr_sim::{Actor, ActorId, Ctx, Payload, SimDuration, World};

#[derive(Debug, Clone, PartialEq, Eq)]
struct Rec {
    conf: ConfId,
    seq: u64,
    value: u64,
    in_transitional: bool,
}

#[derive(Default)]
struct Sink {
    recs: Vec<Rec>,
}

impl Actor for Sink {
    fn handle(&mut self, _ctx: &mut Ctx<'_>, payload: Payload) {
        if let Some(EvsEvent::Deliver(d)) = payload.downcast_ref::<EvsEvent>() {
            self.recs.push(Rec {
                conf: d.conf_id,
                seq: d.seq,
                value: *d.payload.downcast_ref::<u64>().expect("u64"),
                in_transitional: d.in_transitional,
            });
        }
    }
}

struct Setup {
    world: World,
    fabric: ActorId,
    nodes: Vec<NodeId>,
    daemons: Vec<ActorId>,
    sinks: Vec<ActorId>,
}

fn build_with_ack_threshold(n: u32, seed: u64, loss: f64, ack_threshold: usize) -> Setup {
    let mut world = World::new(seed);
    world.set_event_limit(30_000_000);
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
            reliable_links: loss > 0.0,
            cumulative_ack_threshold: ack_threshold,
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
    Setup {
        world,
        fabric,
        nodes,
        daemons,
        sinks,
    }
}

/// The EVS safety invariants over a finished run.
fn check_invariants(setup: &mut Setup) {
    let n = setup.nodes.len();
    let all: Vec<Vec<Rec>> = (0..n)
        .map(|i| {
            setup
                .world
                .with_actor(setup.sinks[i], |s: &mut Sink| s.recs.clone())
        })
        .collect();

    for (i, recs) in all.iter().enumerate() {
        // No duplicate (conf, seq) at any node.
        let mut keys: Vec<(ConfId, u64)> = recs.iter().map(|r| (r.conf, r.seq)).collect();
        keys.sort();
        let len = keys.len();
        keys.dedup();
        assert_eq!(keys.len(), len, "duplicate delivery at node {i}");
    }

    // Total order: for each configuration, the (seq -> value) maps of
    // any two nodes agree on their intersection.
    for a in 0..n {
        for b in (a + 1)..n {
            let map = |recs: &[Rec]| -> BTreeMap<(ConfId, u64), u64> {
                recs.iter().map(|r| ((r.conf, r.seq), r.value)).collect()
            };
            let ma = map(&all[a]);
            let mb = map(&all[b]);
            for (k, va) in &ma {
                if let Some(vb) = mb.get(k) {
                    assert_eq!(va, vb, "order diverged at {k:?} between {a} and {b}");
                }
            }
        }
    }

    // Safe-delivery guarantee: a message delivered safe (regular) at one
    // node is delivered (in some form) at every node that delivered any
    // *later* safe message of the same configuration — i.e. nobody
    // skips a safe message and moves on within the configuration.
    for (i, recs) in all.iter().enumerate() {
        let mut per_conf: BTreeMap<ConfId, Vec<u64>> = BTreeMap::new();
        for r in recs {
            per_conf.entry(r.conf).or_default().push(r.seq);
        }
        for (conf, seqs) in per_conf {
            let max = *seqs.iter().max().expect("non-empty");
            for s in 1..=max {
                assert!(
                    seqs.contains(&s),
                    "node {i} has a hole at seq {s} (max {max}) in {conf}"
                );
            }
        }
    }

    // Safe-delivery trichotomy (§4.1): a message delivered safe
    // (regular configuration, not transitional) at any node was held by
    // *every* member of that configuration at that point, so every
    // participant of the configuration delivers it too — in the regular
    // configuration or, for members carried out by a view change, in
    // their transitional configuration. Stability (however it is
    // computed: all-ack or cumulative piggybacked acks) must never
    // outrun the membership.
    let mut safe_max: BTreeMap<ConfId, u64> = BTreeMap::new();
    for recs in &all {
        for r in recs {
            if !r.in_transitional {
                let e = safe_max.entry(r.conf).or_insert(0);
                *e = (*e).max(r.seq);
            }
        }
    }
    for (i, recs) in all.iter().enumerate() {
        let mut max_in: BTreeMap<ConfId, u64> = BTreeMap::new();
        for r in recs {
            let e = max_in.entry(r.conf).or_insert(0);
            *e = (*e).max(r.seq);
        }
        for (conf, max_seq) in max_in {
            if let Some(&safe) = safe_max.get(&conf) {
                assert!(
                    max_seq >= safe,
                    "node {i} left {conf} at seq {max_seq}, but seq {safe} was \
                     delivered safe elsewhere: the stability line outran the membership"
                );
            }
        }
    }
}

fn scenario(n: u32, seed: u64, loss: f64, msgs_per_node: u64, cut: usize, cut_delay_us: u64) {
    scenario_with_ack_threshold(
        n,
        seed,
        loss,
        msgs_per_node,
        cut,
        cut_delay_us,
        EvsConfig::default().cumulative_ack_threshold,
    )
}

#[allow(clippy::too_many_arguments)]
fn scenario_with_ack_threshold(
    n: u32,
    seed: u64,
    loss: f64,
    msgs_per_node: u64,
    cut: usize,
    cut_delay_us: u64,
    ack_threshold: usize,
) {
    let mut setup = build_with_ack_threshold(n, seed, loss, ack_threshold);
    setup.world.run_until(todr_sim::SimTime::from_secs(2));

    // Fire traffic from every node.
    for i in 0..n as usize {
        for v in 0..msgs_per_node {
            let d = setup.daemons[i];
            setup.world.schedule_now(
                d,
                EvsCmd::Send {
                    payload: Rc::new((i as u64) * 1_000 + v),
                    size_bytes: 200,
                },
            );
        }
    }
    // Partition mid-flight at a random offset.
    setup
        .world
        .run_until(setup.world.now() + SimDuration::from_micros(cut_delay_us));
    if cut > 0 && cut < n as usize {
        let (a, b) = (setup.nodes[..cut].to_vec(), setup.nodes[cut..].to_vec());
        let (fabric, now) = (setup.fabric, setup.world.now());
        setup.world.with_actor(fabric, move |f: &mut NetFabric| {
            f.set_partition(&[a, b], now)
        });
    }
    setup
        .world
        .run_until(setup.world.now() + SimDuration::from_secs(1));
    let now = setup.world.now();
    setup
        .world
        .with_actor(setup.fabric, |f: &mut NetFabric| f.merge_all(now));
    setup
        .world
        .run_until(setup.world.now() + SimDuration::from_secs(2));

    check_invariants(&mut setup);
}

#[test]
fn ordering_invariants_hold_under_random_cuts() {
    let mut rng = todr_sim::SimRng::new(0xe5c7);
    for case in 0..24 {
        let n = (2 + rng.gen_range(4)) as u32;
        let seed = rng.gen_range(100_000);
        let msgs = 1 + rng.gen_range(11);
        let cut = rng.gen_range(6) as usize % n as usize;
        let cut_delay_us = rng.gen_range(2_000);
        eprintln!("case {case}: n={n} seed={seed} msgs={msgs} cut={cut} delay={cut_delay_us}us");
        scenario(n, seed, 0.0, msgs, cut, cut_delay_us);
    }
}

#[test]
fn ordering_invariants_hold_under_loss() {
    let mut rng = todr_sim::SimRng::new(0x1055);
    for case in 0..24 {
        let n = (2 + rng.gen_range(3)) as u32;
        let seed = rng.gen_range(100_000);
        let msgs = 1 + rng.gen_range(7);
        let loss = 0.01 + rng.next_f64() * 0.14;
        eprintln!("case {case}: n={n} seed={seed} msgs={msgs} loss={loss:.3}");
        scenario(n, seed, loss, msgs, 0, 0);
    }
}

#[test]
fn cumulative_ack_stability_never_outruns_the_membership() {
    // Force cumulative piggybacked-ack stability at every membership
    // size (threshold 0) and re-run the randomized partition scenarios:
    // the safe-delivery trichotomy in `check_invariants` must hold even
    // though the coordinator's stability line is now advanced by
    // rotating designated ackers and deadline-driven cumulative acks
    // instead of one ack per member per message.
    let mut rng = todr_sim::SimRng::new(0xacc5);
    for case in 0..24 {
        let n = (2 + rng.gen_range(5)) as u32;
        let seed = rng.gen_range(100_000);
        let msgs = 1 + rng.gen_range(11);
        let cut = rng.gen_range(6) as usize % n as usize;
        let cut_delay_us = rng.gen_range(2_000);
        eprintln!("case {case}: n={n} seed={seed} msgs={msgs} cut={cut} delay={cut_delay_us}us");
        scenario_with_ack_threshold(n, seed, 0.0, msgs, cut, cut_delay_us, 0);
    }
}

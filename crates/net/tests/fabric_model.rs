//! The node-indexed fabric against the fabric as it was first written:
//! endpoints, crash marks, components and per-link FIFO clocks in
//! B-trees keyed by node. Both run in twin worlds with the same seed
//! under random sequences of registrations (joiners beyond the initial
//! range included), crashes, recoveries, partitions, merges and sends;
//! every answer, counter and delivery instant must agree.

use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use todr_net::{Datagram, LatencyModel, NetConfig, NetFabric, NetOp, NodeId, PartitionMap};
use todr_sim::{Actor, ActorId, Ctx, Payload, SimDuration, SimRng, SimTime, World};

/// Node indices the generator draws from; the first `INITIAL` are
/// registered up front, the rest only by a drawn registration.
const NODES: u32 = 9;
const INITIAL: u32 = 4;

// ---------------------------------------------------------------
// The reference model.
// ---------------------------------------------------------------

/// `PartitionMap` as a map from node to component.
#[derive(Debug, Clone, Default)]
struct RefPartition {
    component: BTreeMap<NodeId, u32>,
}

impl RefPartition {
    fn add_node(&mut self, node: NodeId) {
        self.component.entry(node).or_insert(0);
    }

    fn contains(&self, node: NodeId) -> bool {
        self.component.contains_key(&node)
    }

    fn split(&mut self, groups: &[Vec<NodeId>]) {
        let mut assigned: BTreeMap<NodeId, u32> = BTreeMap::new();
        for (i, group) in groups.iter().enumerate() {
            for &n in group {
                assert!(self.component.contains_key(&n));
                assert!(assigned.insert(n, i as u32).is_none());
            }
        }
        let mut next = groups.len() as u32;
        for (n, comp) in self.component.iter_mut() {
            match assigned.get(n) {
                Some(&c) => *comp = c,
                None => {
                    *comp = next;
                    next += 1;
                }
            }
        }
    }

    fn merge_all(&mut self) {
        for comp in self.component.values_mut() {
            *comp = 0;
        }
    }

    fn merge(&mut self, a: NodeId, b: NodeId) {
        let (ca, cb) = (self.component[&a], self.component[&b]);
        for comp in self.component.values_mut() {
            if *comp == cb {
                *comp = ca;
            }
        }
    }

    fn connected(&self, a: NodeId, b: NodeId) -> bool {
        self.component[&a] == self.component[&b]
    }

    fn peers_of(&self, node: NodeId) -> Vec<NodeId> {
        let c = self.component[&node];
        self.component
            .iter()
            .filter(|&(_, &comp)| comp == c)
            .map(|(&n, _)| n)
            .collect()
    }

    fn components(&self) -> Vec<Vec<NodeId>> {
        let mut by_comp: BTreeMap<u32, Vec<NodeId>> = BTreeMap::new();
        for (&n, &c) in &self.component {
            by_comp.entry(c).or_default().push(n);
        }
        by_comp.into_values().collect()
    }
}

struct RefInFlight(Datagram);

/// `NetFabric` with its state in B-trees, checks in the same order.
struct RefFabric {
    config: NetConfig,
    endpoints: BTreeMap<NodeId, ActorId>,
    partitions: RefPartition,
    crashed: BTreeSet<NodeId>,
    arrivals: BTreeMap<(NodeId, NodeId), SimTime>,
}

impl RefFabric {
    fn new(config: NetConfig) -> Self {
        RefFabric {
            config,
            endpoints: BTreeMap::new(),
            partitions: RefPartition::default(),
            crashed: BTreeSet::new(),
            arrivals: BTreeMap::new(),
        }
    }

    fn register(&mut self, node: NodeId, endpoint: ActorId) {
        self.endpoints.insert(node, endpoint);
        self.partitions.add_node(node);
    }

    fn reachable(&self, a: NodeId, b: NodeId) -> bool {
        !self.crashed.contains(&a)
            && !self.crashed.contains(&b)
            && self.partitions.contains(a)
            && self.partitions.contains(b)
            && self.partitions.connected(a, b)
    }

    fn transmit(&mut self, ctx: &mut Ctx<'_>, dgram: Datagram) {
        let (src, dst) = (dgram.src, dgram.dst);
        ctx.metrics().incr("net.sent", 1);
        if self.crashed.contains(&src) || self.crashed.contains(&dst) {
            ctx.metrics().incr("net.dropped_crashed", 1);
            return;
        }
        if !self.partitions.connected(src, dst) {
            ctx.metrics().incr("net.dropped_partition", 1);
            return;
        }
        if src != dst
            && self.config.loss_probability > 0.0
            && ctx.rng().gen_bool(self.config.loss_probability)
        {
            ctx.metrics().incr("net.dropped_loss", 1);
            return;
        }
        let model = if src == dst {
            &self.config.loopback
        } else {
            &self.config.latency
        };
        let mut at = ctx.now() + model.sample(ctx.rng(), dgram.size_bytes);
        if let Some(&prev) = self.arrivals.get(&(src, dst)) {
            if at <= prev {
                at = prev + SimDuration::from_nanos(1);
            }
        }
        self.arrivals.insert((src, dst), at);
        let me = ctx.self_id();
        ctx.send_at(at, me, RefInFlight(dgram));
    }

    fn deliver(&mut self, ctx: &mut Ctx<'_>, dgram: Datagram) {
        if self.crashed.contains(&dgram.src) || self.crashed.contains(&dgram.dst) {
            ctx.metrics().incr("net.dropped_crashed", 1);
            return;
        }
        if !self.partitions.connected(dgram.src, dgram.dst) {
            ctx.metrics().incr("net.dropped_partition", 1);
            return;
        }
        let Some(&endpoint) = self.endpoints.get(&dgram.dst) else {
            ctx.metrics().incr("net.dropped_crashed", 1);
            return;
        };
        let transit = ctx.now().saturating_since(dgram.sent_at);
        ctx.metrics().incr("net.delivered", 1);
        ctx.metrics()
            .incr("net.bytes_delivered", dgram.size_bytes as u64);
        ctx.metrics().observe("net.transit_latency", transit);
        ctx.send_now(endpoint, dgram);
    }
}

impl Actor for RefFabric {
    fn handle(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
        let payload = match payload.try_downcast::<RefInFlight>() {
            Ok(in_flight) => return self.deliver(ctx, in_flight.0),
            Err(p) => p,
        };
        match payload.downcast::<NetOp>() {
            Some(NetOp::Send {
                src,
                dsts,
                payload,
                size_bytes,
            }) => {
                for &dst in dsts.iter() {
                    let dgram = Datagram {
                        src,
                        dst,
                        payload: Rc::clone(&payload),
                        size_bytes,
                        sent_at: ctx.now(),
                    };
                    self.transmit(ctx, dgram);
                }
            }
            Some(NetOp::SetPartition(groups)) => {
                ctx.metrics().incr("net.partition_transitions", 1);
                self.partitions.split(&groups);
            }
            Some(NetOp::MergeAll) => {
                ctx.metrics().incr("net.partition_transitions", 1);
                self.partitions.merge_all();
            }
            Some(NetOp::Crash(n)) => {
                self.crashed.insert(n);
            }
            Some(NetOp::Recover(n)) => {
                self.crashed.remove(&n);
            }
            None => panic!("unknown payload"),
        }
    }
}

// ---------------------------------------------------------------
// The twin worlds.
// ---------------------------------------------------------------

/// What one node's endpoint received: `(src, message id, instant)`.
#[derive(Default)]
struct Sink(Vec<(NodeId, u32, SimTime)>);

impl Actor for Sink {
    fn handle(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
        if let Some(d) = payload.downcast_ref::<Datagram>() {
            let id = *d.payload.downcast_ref::<u32>().expect("u32 body");
            self.0.push((d.src, id, ctx.now()));
        }
    }
}

struct Twin {
    world: World,
    fabric: ActorId,
    sinks: Vec<ActorId>,
}

impl Twin {
    fn new<A: Actor>(seed: u64, fabric: A) -> Self {
        let mut world = World::new(seed);
        let fabric = world.add_actor("net", fabric);
        let sinks = (0..NODES)
            .map(|i| world.add_actor(format!("sink-{i}"), Sink::default()))
            .collect();
        Twin {
            world,
            fabric,
            sinks,
        }
    }

    fn received(&self, node: NodeId) -> Vec<(NodeId, u32, SimTime)> {
        self.world
            .with_actor_ref(self.sinks[node.index() as usize], |s: &Sink| s.0.clone())
    }
}

const COUNTERS: [&str; 7] = [
    "net.sent",
    "net.delivered",
    "net.bytes_delivered",
    "net.dropped_crashed",
    "net.dropped_partition",
    "net.dropped_loss",
    "net.partition_transitions",
];

/// Every node the fabric can be asked about, registered or not.
fn universe() -> impl Iterator<Item = NodeId> {
    (0..NODES + 2).map(NodeId::new)
}

fn assert_agree(fast: &Twin, slow: &Twin, case: u64, step: usize) {
    let real = fast.world.with_actor_ref(fast.fabric, |f: &NetFabric| {
        let answers: Vec<_> = universe()
            .map(|a| {
                let row: Vec<bool> = universe().map(|b| f.reachable(a, b)).collect();
                (f.is_crashed(a), f.endpoint(a), row)
            })
            .collect();
        (answers, f.partitions().clone())
    });
    let model = slow.world.with_actor_ref(slow.fabric, |f: &RefFabric| {
        let answers: Vec<_> = universe()
            .map(|a| {
                let row: Vec<bool> = universe().map(|b| f.reachable(a, b)).collect();
                (f.crashed.contains(&a), f.endpoints.get(&a).copied(), row)
            })
            .collect();
        (answers, f.partitions.clone())
    });
    let at = format!("case {case} step {step}");
    assert_eq!(real.0, model.0, "{at}: crash marks, endpoints, reachable");
    let (p, q) = (real.1, model.1);
    assert_eq!(p.components(), q.components(), "{at}: components");
    for a in universe() {
        assert_eq!(p.contains(a), q.contains(a), "{at}: contains {a}");
        if !q.contains(a) {
            continue;
        }
        assert_eq!(p.peers_of(a), q.peers_of(a), "{at}: peers of {a}");
        for b in universe().filter(|&b| q.contains(b)) {
            assert_eq!(p.connected(a, b), q.connected(a, b), "{at}: {a}~{b}");
        }
    }
}

fn registered(twin: &Twin) -> Vec<NodeId> {
    twin.world.with_actor_ref(twin.fabric, |f: &RefFabric| {
        f.endpoints.keys().copied().collect()
    })
}

/// A random subset of `nodes`, in random order.
fn subset(rng: &mut SimRng, nodes: &[NodeId]) -> Vec<NodeId> {
    let mut picked: Vec<NodeId> = nodes
        .iter()
        .copied()
        .filter(|_| rng.gen_bool(0.6))
        .collect();
    rng.shuffle(&mut picked);
    picked
}

#[test]
fn node_indexed_fabric_matches_the_btree_fabric() {
    let mut fifo_bumps = 0;
    let mut joiners = 0;
    let mut totals = [0u64; COUNTERS.len()];
    for case in 0..160u64 {
        let mut rng = SimRng::new(0xfab0 + case);
        let mut config = NetConfig::lan();
        match case % 3 {
            1 => config.loss_probability = 0.2,
            // Loopback arrivals at the very instant sent, from time 0:
            // a link clock that took 0 for "never" would bump them.
            2 => config.loopback = LatencyModel::constant(SimDuration::ZERO),
            _ => {}
        }
        let mut fast = Twin::new(case, NetFabric::new(config.clone()));
        let mut slow = Twin::new(case, RefFabric::new(config));
        for i in 0..INITIAL {
            let (node, fs, ss) = (
                NodeId::new(i),
                fast.sinks[i as usize],
                slow.sinks[i as usize],
            );
            fast.world
                .with_actor(fast.fabric, |f: &mut NetFabric| f.register(node, fs));
            slow.world
                .with_actor(slow.fabric, |f: &mut RefFabric| f.register(node, ss));
        }
        let mut next_id = 0u32;
        for step in 0..80 {
            let known = registered(&slow);
            let pick = |rng: &mut SimRng| known[rng.gen_range(known.len() as u64) as usize];
            // Control ops go either straight to the fabric or through
            // its mailbox as a `NetOp`.
            let direct = rng.gen_bool(0.5);
            match rng.gen_range(12) {
                0 => {
                    let node = NodeId::new(rng.gen_range(u64::from(NODES)) as u32);
                    let i = node.index() as usize;
                    joiners += u32::from(node.index() >= INITIAL && !known.contains(&node));
                    let (fs, ss) = (fast.sinks[i], slow.sinks[i]);
                    fast.world
                        .with_actor(fast.fabric, |f: &mut NetFabric| f.register(node, fs));
                    slow.world
                        .with_actor(slow.fabric, |f: &mut RefFabric| f.register(node, ss));
                }
                1 | 2 => {
                    let node = NodeId::new(rng.gen_range(u64::from(NODES) + 2) as u32);
                    let crash = rng.gen_bool(0.5);
                    if direct {
                        fast.world.with_actor(fast.fabric, |f: &mut NetFabric| {
                            if crash {
                                f.crash(node)
                            } else {
                                f.recover(node)
                            }
                        });
                        slow.world.with_actor(slow.fabric, |f: &mut RefFabric| {
                            if crash {
                                f.crashed.insert(node);
                            } else {
                                f.crashed.remove(&node);
                            }
                        });
                    } else {
                        let op = || {
                            if crash {
                                NetOp::Crash(node)
                            } else {
                                NetOp::Recover(node)
                            }
                        };
                        fast.world.schedule_now(fast.fabric, op());
                        slow.world.schedule_now(slow.fabric, op());
                    }
                }
                3 => {
                    let groups: Vec<Vec<NodeId>> = {
                        let picked = subset(&mut rng, &known);
                        let cut = rng.gen_range(picked.len() as u64 + 1) as usize;
                        vec![picked[..cut].to_vec(), picked[cut..].to_vec()]
                    };
                    set_partition(&mut fast, &mut slow, groups, direct);
                }
                4 => {
                    if direct {
                        fast.world
                            .with_actor(fast.fabric, |f: &mut NetFabric| f.merge_all());
                        slow.world
                            .with_actor(slow.fabric, |f: &mut RefFabric| f.partitions.merge_all());
                    } else {
                        fast.world.schedule_now(fast.fabric, NetOp::MergeAll);
                        slow.world.schedule_now(slow.fabric, NetOp::MergeAll);
                    }
                }
                5 => {
                    // `PartitionMap::merge` on a copy of each map; the
                    // merged components then become the fabric's.
                    let (a, b) = (pick(&mut rng), pick(&mut rng));
                    let mut p: PartitionMap = fast
                        .world
                        .with_actor_ref(fast.fabric, |f: &NetFabric| f.partitions().clone());
                    let mut q = slow
                        .world
                        .with_actor_ref(slow.fabric, |f: &RefFabric| f.partitions.clone());
                    p.merge(a, b);
                    q.merge(a, b);
                    assert!(p.connected(a, b));
                    assert_eq!(p.components(), q.components(), "case {case}: merge {a} {b}");
                    set_partition(&mut fast, &mut slow, q.components(), direct);
                }
                6..=9 => {
                    // A burst on one link, so jitter meets the FIFO rule.
                    let (src, dst) = (pick(&mut rng), pick(&mut rng));
                    for _ in 0..1 + rng.gen_range(4) {
                        next_id += 1;
                        let size = 64 + rng.gen_range(1400) as u32;
                        for twin in [&mut fast, &mut slow] {
                            let op = NetOp::unicast(src, dst, Rc::new(next_id), size);
                            twin.world.schedule_now(twin.fabric, op);
                        }
                    }
                }
                10 => {
                    let src = pick(&mut rng);
                    let dsts = subset(&mut rng, &known);
                    next_id += 1;
                    for twin in [&mut fast, &mut slow] {
                        let op = NetOp::multicast(src, dsts.clone(), Rc::new(next_id), 300);
                        twin.world.schedule_now(twin.fabric, op);
                    }
                }
                _ => {
                    let until = fast.world.now() + SimDuration::from_micros(rng.gen_range(300));
                    fast.world.run_until(until);
                    slow.world.run_until(until);
                }
            }
            fast.world.run_until(fast.world.now());
            slow.world.run_until(slow.world.now());
            assert_agree(&fast, &slow, case, step);
        }
        fast.world.run_to_quiescence();
        slow.world.run_to_quiescence();
        assert_agree(&fast, &slow, case, usize::MAX);
        for (name, total) in COUNTERS.iter().zip(&mut totals) {
            let count = fast.world.metrics().counter(name);
            assert_eq!(
                count,
                slow.world.metrics().counter(name),
                "case {case}: {name}"
            );
            *total += count;
        }
        assert_eq!(fast.world.events_processed(), slow.world.events_processed());
        for node in (0..NODES).map(NodeId::new) {
            let got = fast.received(node);
            assert_eq!(
                got,
                slow.received(node),
                "case {case}: deliveries to {node}"
            );
            for pair in got.windows(2) {
                let ((s0, _, t0), (s1, _, t1)) = (pair[0], pair[1]);
                fifo_bumps += usize::from(s0 == s1 && t1 == t0 + SimDuration::from_nanos(1));
            }
        }
    }
    for (name, total) in COUNTERS.iter().zip(totals) {
        assert!(total > 0, "no case moved {name}");
    }
    assert!(fifo_bumps > 0, "no case exercised the per-link FIFO bump");
    assert!(
        joiners > 0,
        "no case registered a node beyond the initial range"
    );
}

fn set_partition(fast: &mut Twin, slow: &mut Twin, groups: Vec<Vec<NodeId>>, direct: bool) {
    if direct {
        fast.world
            .with_actor(fast.fabric, |f: &mut NetFabric| f.set_partition(&groups));
        slow.world
            .with_actor(slow.fabric, |f: &mut RefFabric| f.partitions.split(&groups));
    } else {
        fast.world
            .schedule_now(fast.fabric, NetOp::SetPartition(groups.clone()));
        slow.world
            .schedule_now(slow.fabric, NetOp::SetPartition(groups));
    }
}

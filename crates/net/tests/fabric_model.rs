//! The node-indexed fabric against the fabric as it was first written:
//! endpoints, crash marks, components and per-link FIFO clocks in
//! B-trees keyed by node, and every probe a datagram — an arrival event
//! at the fabric, then a hand-off to the endpoint. Both run in twin
//! worlds with the same seed under random sequences of registrations
//! (joiners beyond the initial range included), crashes, recoveries,
//! partitions, merges, sends, probes and receiver resets; every answer,
//! counter, delivery instant and heard probe must agree.

use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use todr_net::{
    Datagram, LatencyModel, NetConfig, NetFabric, NetOp, NodeId, PartitionMap, ProbeInbox,
};
use todr_sim::{Actor, ActorId, Ctx, MetricsHub, Payload, SimDuration, SimRng, SimTime, World};

/// Node indices the generator draws from; the first `INITIAL` are
/// registered up front, the rest only by a drawn registration.
const NODES: u32 = 9;
const INITIAL: u32 = 4;
/// Probe rounds, 5 µs apart, in one storm.
const STORM: u64 = 240;

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

/// A probe's body on the reference's datagram path.
struct RefProbe;

/// `NetFabric` with its state in B-trees, checks in the same order.
struct RefFabric {
    config: NetConfig,
    endpoints: BTreeMap<NodeId, ActorId>,
    partitions: RefPartition,
    crashed: BTreeSet<NodeId>,
    arrivals: BTreeMap<(NodeId, NodeId), SimTime>,
    /// Arrival events of probes: the events the probe path saves.
    probe_arrivals: u64,
}

impl RefFabric {
    fn new(config: NetConfig) -> Self {
        RefFabric {
            config,
            endpoints: BTreeMap::new(),
            partitions: RefPartition::default(),
            crashed: BTreeSet::new(),
            arrivals: BTreeMap::new(),
            probe_arrivals: 0,
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
        self.probe_arrivals += u64::from(dgram.payload.is::<RefProbe>());
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
            Some(NetOp::Probe {
                src,
                dsts,
                size_bytes,
                ..
            }) => {
                let body: Rc<dyn std::any::Any> = Rc::new(RefProbe);
                for &dst in dsts.iter() {
                    let dgram = Datagram {
                        src,
                        dst,
                        payload: Rc::clone(&body),
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

/// One node's endpoint: what it received, `(src, message id,
/// instant)`, and what it heard of probes, kept the way a failure
/// detector keeps it.
///
/// It listens or not, and switches only at a [`Reset`], which — like an
/// EVS daemon's reset — folds its inbox first and starts a fresh
/// last-heard table. In the reference world the inbox stays empty and
/// probes arrive as hand-offs.
struct Sink {
    got: Vec<(NodeId, u32, SimTime)>,
    inbox: ProbeInbox,
    listening: bool,
    /// Per peer, the latest arrival heard in this incarnation.
    last_heard: BTreeMap<NodeId, SimTime>,
    /// Every peer ever heard: the part that outlives a reset.
    universe: BTreeSet<NodeId>,
    /// The last-heard table of every finished incarnation.
    history: Vec<BTreeMap<NodeId, SimTime>>,
    /// Probes handed off as datagrams (reference world only).
    handoffs: u64,
}

/// Starts a new incarnation that listens to probes or not.
struct Reset {
    listen: bool,
}

impl Sink {
    fn new(inbox: ProbeInbox) -> Self {
        Sink {
            got: Vec::new(),
            inbox,
            listening: false,
            last_heard: BTreeMap::new(),
            universe: BTreeSet::new(),
            history: Vec::new(),
            handoffs: 0,
        }
    }

    fn hear(&mut self, src: NodeId, at: SimTime) {
        if self.listening {
            let last = self.last_heard.entry(src).or_insert(at);
            *last = (*last).max(at);
            self.universe.insert(src);
        }
    }

    fn fold(&mut self, before: SimTime, metrics: &mut MetricsHub) {
        let inbox = self.inbox.clone();
        inbox.fold(before, metrics, |src, at| self.hear(src, at));
    }

    /// What the detector reads: every incarnation's table, the current
    /// one last, and the universe.
    fn heard(&self) -> (Vec<BTreeMap<NodeId, SimTime>>, BTreeSet<NodeId>) {
        let mut tables = self.history.clone();
        tables.push(self.last_heard.clone());
        (tables, self.universe.clone())
    }
}

impl Actor for Sink {
    fn handle(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
        if let Some(d) = payload.downcast_ref::<Datagram>() {
            if d.payload.is::<RefProbe>() {
                self.handoffs += 1;
                self.hear(d.src, ctx.now());
                return;
            }
            let id = *d.payload.downcast_ref::<u32>().expect("u32 body");
            self.got.push((d.src, id, ctx.now()));
        } else if let Some(&Reset { listen }) = payload.downcast_ref::<Reset>() {
            self.fold(ctx.now(), ctx.metrics());
            self.history.push(std::mem::take(&mut self.last_heard));
            self.listening = listen;
        }
    }

    fn on_pause(&mut self, now: SimTime, metrics: &mut MetricsHub) {
        self.fold(now + SimDuration::from_nanos(1), metrics);
    }
}

struct Twin {
    world: World,
    fabric: ActorId,
    sinks: Vec<ActorId>,
    inboxes: Vec<ProbeInbox>,
}

impl Twin {
    fn new<A: Actor>(seed: u64, fabric: A) -> Self {
        let mut world = World::new(seed);
        let fabric = world.add_actor("net", fabric);
        let inboxes: Vec<ProbeInbox> = (0..NODES).map(|_| ProbeInbox::default()).collect();
        let sinks = inboxes
            .iter()
            .enumerate()
            .map(|(i, inbox)| world.add_actor(format!("sink-{i}"), Sink::new(inbox.clone())))
            .collect();
        Twin {
            world,
            fabric,
            sinks,
            inboxes,
        }
    }

    fn sink<R>(&self, node: NodeId, f: impl FnOnce(&Sink) -> R) -> R {
        self.world
            .with_actor_ref(self.sinks[node.index() as usize], f)
    }

    fn received(&self, node: NodeId) -> Vec<(NodeId, u32, SimTime)> {
        self.sink(node, |s| s.got.clone())
    }

    fn probe(&mut self, src: NodeId, dsts: &[NodeId]) {
        let op = NetOp::Probe {
            src,
            dsts: dsts.into(),
            size_bytes: 48,
            inbox: self.inboxes[src.index() as usize].clone(),
        };
        self.world.schedule_now(self.fabric, op);
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

/// Every `net.*` counter and every node's heard-probe view agree.
fn assert_same_accounts(fast: &Twin, slow: &Twin, at: &str) {
    for name in COUNTERS {
        assert_eq!(
            fast.world.metrics().counter(name),
            slow.world.metrics().counter(name),
            "{at}: {name}"
        );
    }
    assert_eq!(
        fast.world.metrics().histogram("net.transit_latency"),
        slow.world.metrics().histogram("net.transit_latency"),
        "{at}: transit latency"
    );
    for node in (0..NODES).map(NodeId::new) {
        assert_eq!(
            fast.sink(node, Sink::heard),
            slow.sink(node, Sink::heard),
            "{at}: probes heard by {node}"
        );
    }
}

/// Probes saved two events each on the reference's path when they were
/// handed off, and one when they were dropped on landing; nothing else
/// differs.
fn assert_events_saved(fast: &Twin, slow: &Twin, at: &str) {
    let arrivals = slow
        .world
        .with_actor_ref(slow.fabric, |f: &RefFabric| f.probe_arrivals);
    let handoffs: u64 = (0..NODES)
        .map(|i| slow.sink(NodeId::new(i), |s| s.handoffs))
        .sum();
    assert_eq!(
        fast.world.events_processed() + arrivals + handoffs,
        slow.world.events_processed(),
        "{at}: events"
    );
}

/// Runs both worlds to `until`.
fn run_both(fast: &mut Twin, slow: &mut Twin, until: SimTime) {
    fast.world.run_until(until);
    slow.world.run_until(until);
}

#[test]
fn node_indexed_fabric_matches_the_btree_fabric() {
    let mut fifo_bumps = 0;
    let mut joiners = 0;
    let mut heard = 0;
    let (mut storms, mut most_pending) = (0, 0);
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
        // Nodes whose sink has attached its inbox with a probe of its own;
        // only those may listen (an EVS daemon attaches as it joins).
        let mut attached: BTreeSet<NodeId> = BTreeSet::new();
        let mut next_id = 0u32;
        for step in 0..80 {
            let known = registered(&slow);
            let pick = |rng: &mut SimRng| known[rng.gen_range(known.len() as u64) as usize];
            // Control ops go either straight to the fabric or through
            // its mailbox as a `NetOp`.
            let direct = rng.gen_bool(0.5);
            let now = fast.world.now();
            match rng.gen_range(16) {
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
                    crash_or_recover(&mut fast, &mut slow, node, rng.gen_bool(0.5), direct);
                }
                3 => {
                    let groups: Vec<Vec<NodeId>> = {
                        let picked = subset(&mut rng, &known);
                        let cut = rng.gen_range(picked.len() as u64 + 1) as usize;
                        vec![picked[..cut].to_vec(), picked[cut..].to_vec()]
                    };
                    set_partition(&mut fast, &mut slow, groups, direct);
                }
                4 => merge_all(&mut fast, &mut slow, direct),
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
                6..=8 => {
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
                9 => {
                    let src = pick(&mut rng);
                    let dsts = subset(&mut rng, &known);
                    next_id += 1;
                    for twin in [&mut fast, &mut slow] {
                        let op = NetOp::multicast(src, dsts.clone(), Rc::new(next_id), 300);
                        twin.world.schedule_now(twin.fabric, op);
                    }
                }
                10 | 11 => {
                    // A heartbeat round from one node; a datagram on one
                    // of its links first, now and then, so the two kinds
                    // share the link clock.
                    let src = pick(&mut rng);
                    let mut dsts = subset(&mut rng, &known);
                    dsts.retain(|&d| d != src);
                    dsts.sort();
                    if let Some(&dst) = dsts.first().filter(|_| rng.gen_bool(0.3)) {
                        next_id += 1;
                        for twin in [&mut fast, &mut slow] {
                            let op = NetOp::unicast(src, dst, Rc::new(next_id), 64);
                            twin.world.schedule_now(twin.fabric, op);
                        }
                    }
                    fast.probe(src, &dsts);
                    slow.probe(src, &dsts);
                    attached.insert(src);
                }
                12 => {
                    let node = NodeId::new(rng.gen_range(u64::from(NODES)) as u32);
                    let listen = attached.contains(&node) && rng.gen_bool(0.7);
                    for twin in [&mut fast, &mut slow] {
                        let sink = twin.sinks[node.index() as usize];
                        twin.world.schedule_now(sink, Reset { listen });
                    }
                }
                13 => {
                    // A cut and its undo, both inside one probe's flight
                    // (at least the LAN's 100 µs base).
                    let (src, dst) = (pick(&mut rng), pick(&mut rng));
                    if src == dst {
                        continue;
                    }
                    fast.probe(src, &[dst]);
                    slow.probe(src, &[dst]);
                    attached.insert(src);
                    let cut_at = now + SimDuration::from_micros(rng.gen_range(40));
                    run_both(&mut fast, &mut slow, cut_at);
                    if rng.gen_bool(0.5) {
                        set_partition(&mut fast, &mut slow, vec![vec![src], vec![dst]], direct);
                    } else {
                        crash_or_recover(&mut fast, &mut slow, dst, true, direct);
                    }
                    let undo_at = cut_at + SimDuration::from_micros(rng.gen_range(50));
                    run_both(&mut fast, &mut slow, undo_at);
                    if rng.gen_bool(0.5) {
                        merge_all(&mut fast, &mut slow, direct);
                    } else {
                        crash_or_recover(&mut fast, &mut slow, dst, false, direct);
                    }
                }
                14 => {
                    // A storm of rounds inside one run, so an inbox that
                    // nobody folds meanwhile outgrows its compaction
                    // threshold.
                    let src = pick(&mut rng);
                    let dsts: Vec<NodeId> = known.iter().copied().filter(|&d| d != src).collect();
                    for k in 0..STORM {
                        let at = now + SimDuration::from_micros(5 * k);
                        for twin in [&mut fast, &mut slow] {
                            let op = NetOp::Probe {
                                src,
                                dsts: dsts.as_slice().into(),
                                size_bytes: 48,
                                inbox: twin.inboxes[src.index() as usize].clone(),
                            };
                            twin.world.schedule(at, twin.fabric, op);
                        }
                    }
                    attached.insert(src);
                    // Step the probe path event by event, watching the
                    // largest inbox, then finish the run.
                    let until = now + SimDuration::from_micros(5 * STORM + 200);
                    while fast.world.next_event_time().is_some_and(|t| t <= until) {
                        fast.world.step();
                        let most = fast.inboxes.iter().map(ProbeInbox::pending).max();
                        most_pending = most_pending.max(most.unwrap_or(0));
                    }
                    run_both(&mut fast, &mut slow, until);
                    storms += 1;
                }
                _ => {
                    let until = now + SimDuration::from_micros(rng.gen_range(300));
                    run_both(&mut fast, &mut slow, until);
                }
            }
            let now = fast.world.now();
            run_both(&mut fast, &mut slow, now);
            assert_agree(&fast, &slow, case, step);
            assert_same_accounts(&fast, &slow, &format!("case {case} step {step}"));
        }
        // Every probe and datagram lands within a millisecond.
        let end = fast.world.now() + SimDuration::from_millis(1);
        run_both(&mut fast, &mut slow, end);
        assert!(slow.world.next_event_time().is_none());
        assert_agree(&fast, &slow, case, usize::MAX);
        let at = format!("case {case} end");
        assert_same_accounts(&fast, &slow, &at);
        assert_events_saved(&fast, &slow, &at);
        for (name, total) in COUNTERS.iter().zip(&mut totals) {
            *total += fast.world.metrics().counter(name);
        }
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
            heard += fast.sink(node, |s| s.universe.len());
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
    assert!(heard > 0, "no listening sink heard a probe");
    // `STORM` rounds to every node with no fold in between: compaction
    // keeps each inbox near its threshold (64) plus what is in flight.
    assert!(storms > 0, "no case ran a probe storm");
    assert!(
        (40..STORM as usize / 2).contains(&most_pending),
        "largest unfolded inbox held {most_pending} probes"
    );
}

fn crash_or_recover(fast: &mut Twin, slow: &mut Twin, node: NodeId, crash: bool, direct: bool) {
    if direct {
        let now = fast.world.now();
        fast.world.with_actor(fast.fabric, |f: &mut NetFabric| {
            if crash {
                f.crash(node, now)
            } else {
                f.recover(node, now)
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

fn merge_all(fast: &mut Twin, slow: &mut Twin, direct: bool) {
    if direct {
        let now = fast.world.now();
        fast.world
            .with_actor(fast.fabric, |f: &mut NetFabric| f.merge_all(now));
        slow.world
            .with_actor(slow.fabric, |f: &mut RefFabric| f.partitions.merge_all());
    } else {
        fast.world.schedule_now(fast.fabric, NetOp::MergeAll);
        slow.world.schedule_now(slow.fabric, NetOp::MergeAll);
    }
}

fn set_partition(fast: &mut Twin, slow: &mut Twin, groups: Vec<Vec<NodeId>>, direct: bool) {
    if direct {
        let now = fast.world.now();
        fast.world.with_actor(fast.fabric, |f: &mut NetFabric| {
            f.set_partition(&groups, now)
        });
        slow.world
            .with_actor(slow.fabric, |f: &mut RefFabric| f.partitions.split(&groups));
    } else {
        fast.world
            .schedule_now(fast.fabric, NetOp::SetPartition(groups.clone()));
        slow.world
            .schedule_now(slow.fabric, NetOp::SetPartition(groups));
    }
}

//! The network fabric actor: applies partitions, loss, latency; delivers
//! datagrams to endpoint actors and probes to their inboxes.

use std::rc::Rc;

use todr_sim::{metric, Actor, ActorId, Ctx, MetricsHub, Payload, SimDuration, SimTime};

use crate::latency::LatencyModel;
use crate::node::NodeId;
use crate::partition::PartitionMap;
use crate::probe::{count_landing, Fate, ProbeInbox};

/// A type-erased, reference-counted message body.
///
/// The fabric never inspects payloads; multicast shares one allocation
/// across all destinations. Receivers downcast with
/// `payload.downcast_ref::<T>()`.
pub type NetPayload = Rc<dyn std::any::Any>;

/// A message as delivered to an endpoint actor.
#[derive(Clone)]
pub struct Datagram {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node (the one whose endpoint this was delivered to).
    pub dst: NodeId,
    /// Message body.
    pub payload: NetPayload,
    /// Modelled wire size in bytes (headers included by the caller).
    pub size_bytes: u32,
    /// Virtual time at which the message entered the fabric.
    pub sent_at: SimTime,
}

impl std::fmt::Debug for Datagram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Datagram")
            .field("src", &self.src)
            .field("dst", &self.dst)
            .field("size_bytes", &self.size_bytes)
            .field("sent_at", &self.sent_at)
            .finish_non_exhaustive()
    }
}

/// Commands accepted by the [`NetFabric`] actor.
///
/// Transmissions are sent by endpoint actors with `ctx.send_now(fabric,
/// op)`; control commands can additionally be scheduled at future virtual
/// times by experiment scripts.
pub enum NetOp {
    /// Transmit `payload` from `src` to each node in `dsts`.
    Send {
        /// Sending node.
        src: NodeId,
        /// Destination nodes. Destinations equal to `src` loop back
        /// with [`NetConfig::loopback`] latency (a constant 5 µs in
        /// [`NetConfig::lan`] and [`NetConfig::wan`]) and are never
        /// lost. Shared so a sender multicasting the same member list
        /// every frame contributes one allocation per view, not one per
        /// send.
        dsts: Rc<[NodeId]>,
        /// Message body.
        payload: NetPayload,
        /// Modelled wire size in bytes.
        size_bytes: u32,
    },
    /// Send a liveness probe from `src` to each node in `dsts` (see
    /// [`ProbeInbox`]): counted, lost, delayed and FIFO-ordered exactly
    /// like a [`NetOp::Send`], but recorded in each destination's inbox
    /// instead of being delivered as an event. Never to `src` itself.
    Probe {
        /// Sending node.
        src: NodeId,
        /// Destination nodes, shared like [`NetOp::Send`]'s.
        dsts: Rc<[NodeId]>,
        /// Modelled wire size in bytes.
        size_bytes: u32,
        /// The sender's own inbox: the fabric records probes *to* `src`
        /// there from now on.
        inbox: ProbeInbox,
    },
    /// Re-partition the universe (see [`PartitionMap::split`]).
    SetPartition(Vec<Vec<NodeId>>),
    /// Reconnect all components.
    MergeAll,
    /// Mark a node crashed: all its traffic is dropped.
    Crash(NodeId),
    /// Mark a crashed node as recovered.
    Recover(NodeId),
}

impl NetOp {
    /// Convenience constructor for a single-destination send.
    pub fn unicast(src: NodeId, dst: NodeId, payload: NetPayload, size_bytes: u32) -> Self {
        NetOp::Send {
            src,
            dsts: Rc::new([dst]),
            payload,
            size_bytes,
        }
    }

    /// Convenience constructor for a multi-destination send.
    pub fn multicast(src: NodeId, dsts: Vec<NodeId>, payload: NetPayload, size_bytes: u32) -> Self {
        NetOp::Send {
            src,
            dsts: dsts.into(),
            payload,
            size_bytes,
        }
    }

    /// Multi-destination send over an already-shared destination list;
    /// the hot-path form for senders that multicast to the same
    /// membership on every frame.
    pub fn multicast_shared(
        src: NodeId,
        dsts: Rc<[NodeId]>,
        payload: NetPayload,
        size_bytes: u32,
    ) -> Self {
        NetOp::Send {
            src,
            dsts,
            payload,
            size_bytes,
        }
    }
}

impl std::fmt::Debug for NetOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetOp::Send {
                src,
                dsts,
                size_bytes,
                ..
            } => f
                .debug_struct("Send")
                .field("src", src)
                .field("dsts", dsts)
                .field("size_bytes", size_bytes)
                .finish_non_exhaustive(),
            NetOp::Probe {
                src,
                dsts,
                size_bytes,
                ..
            } => f
                .debug_struct("Probe")
                .field("src", src)
                .field("dsts", dsts)
                .field("size_bytes", size_bytes)
                .finish_non_exhaustive(),
            NetOp::SetPartition(groups) => f.debug_tuple("SetPartition").field(groups).finish(),
            NetOp::MergeAll => f.write_str("MergeAll"),
            NetOp::Crash(n) => f.debug_tuple("Crash").field(n).finish(),
            NetOp::Recover(n) => f.debug_tuple("Recover").field(n).finish(),
        }
    }
}

/// Configuration of the fabric.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Per-hop latency model.
    pub latency: LatencyModel,
    /// Probability in `[0, 1]` that any given transmission is silently
    /// lost (in addition to partition/crash drops).
    pub loss_probability: f64,
    /// Latency applied to loopback (self-addressed) messages.
    pub loopback: LatencyModel,
}

impl NetConfig {
    /// LAN profile with no random loss.
    pub fn lan() -> Self {
        NetConfig {
            latency: LatencyModel::lan(),
            loss_probability: 0.0,
            loopback: LatencyModel::constant(todr_sim::SimDuration::from_micros(5)),
        }
    }

    /// WAN profile with the given random loss probability.
    pub fn wan(loss_probability: f64) -> Self {
        NetConfig {
            latency: LatencyModel::wan(),
            loss_probability,
            loopback: LatencyModel::constant(todr_sim::SimDuration::from_micros(5)),
        }
    }
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig::lan()
    }
}

/// The network fabric: one per [`World`](todr_sim::World).
///
/// Endpoints are registered with [`NetFabric::register`]; the experiment
/// scripts partitions and crashes either directly (via
/// [`World::with_actor`](todr_sim::World::with_actor)) or by scheduling
/// [`NetOp`] control events.
///
/// Per-node state is held in arrays indexed by [`NodeId::index`], and
/// the per-link FIFO clock in an `n × n` array, so a datagram costs
/// array loads, never a map lookup.
///
/// Every topology change takes the instant it happens at: probes still
/// in flight then have their fate re-decided, as a datagram's would be
/// at its arrival.
pub struct NetFabric {
    config: NetConfig,
    /// Per node index: its endpoint actor, if registered.
    endpoints: Vec<Option<ActorId>>,
    partitions: PartitionMap,
    /// Per node index: whether it is marked crashed. Indices past the
    /// end never were.
    crashed: Vec<bool>,
    /// Per ordered link `(src, dst)`, at `src * endpoints.len() + dst`:
    /// the latest arrival scheduled on it.
    last_arrival: Vec<Option<SimTime>>,
    /// Per node index: the inbox its probes are recorded in.
    inboxes: Vec<Option<Inbox>>,
}

/// Where probes to one node are recorded.
enum Inbox {
    /// The inbox its endpoint attached with its own first probe; the
    /// endpoint folds it.
    Attached(ProbeInbox),
    /// One the fabric opened for probes that came first; nobody reads
    /// it, so the fabric counts what lands in it when the world pauses.
    Opened(ProbeInbox),
}

impl Inbox {
    fn get(&self) -> &ProbeInbox {
        match self {
            Inbox::Attached(inbox) | Inbox::Opened(inbox) => inbox,
        }
    }
}

impl NetFabric {
    /// Creates a fabric with no endpoints.
    pub fn new(config: NetConfig) -> Self {
        NetFabric {
            config,
            endpoints: Vec::new(),
            partitions: PartitionMap::default(),
            crashed: Vec::new(),
            last_arrival: Vec::new(),
            inboxes: Vec::new(),
        }
    }

    /// Registers (or re-points) the endpoint actor for `node`. New nodes
    /// join the fully-connected component.
    pub fn register(&mut self, node: NodeId, endpoint: ActorId) {
        let i = node.index() as usize;
        let n = self.endpoints.len();
        if i >= n {
            // Re-lay the link clocks out for the wider stride.
            let wide = i + 1;
            let mut links = vec![None; wide * wide];
            for src in 0..n {
                links[src * wide..][..n].copy_from_slice(&self.last_arrival[src * n..][..n]);
            }
            self.last_arrival = links;
            self.endpoints.resize(wide, None);
        }
        self.endpoints[i] = Some(endpoint);
        self.partitions.add_node(node);
    }

    /// The registered endpoint for `node`, if any.
    pub fn endpoint(&self, node: NodeId) -> Option<ActorId> {
        self.endpoints.get(node.index() as usize).copied().flatten()
    }

    /// Re-partitions connectivity (see [`PartitionMap::split`]) at
    /// instant `at`.
    pub fn set_partition(&mut self, groups: &[Vec<NodeId>], at: SimTime) {
        self.partitions.split(groups);
        self.redecide_probes(at);
    }

    /// Reconnects all components at instant `at`.
    pub fn merge_all(&mut self, at: SimTime) {
        self.partitions.merge_all();
        self.redecide_probes(at);
    }

    /// Read access to the current partition map.
    pub fn partitions(&self) -> &PartitionMap {
        &self.partitions
    }

    /// Marks `node` crashed at instant `at`.
    pub fn crash(&mut self, node: NodeId, at: SimTime) {
        let i = node.index() as usize;
        if i >= self.crashed.len() {
            self.crashed.resize(i + 1, false);
        }
        self.crashed[i] = true;
        self.redecide_probes(at);
    }

    /// Clears the crashed mark for `node` at instant `at`.
    pub fn recover(&mut self, node: NodeId, at: SimTime) {
        if let Some(crashed) = self.crashed.get_mut(node.index() as usize) {
            *crashed = false;
        }
        self.redecide_probes(at);
    }

    /// Whether `node` is currently marked crashed.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.crashed.get(node.index() as usize) == Some(&true)
    }

    /// Whether `a` and `b` can currently communicate.
    pub fn reachable(&self, a: NodeId, b: NodeId) -> bool {
        !self.is_crashed(a)
            && !self.is_crashed(b)
            && self.partitions.contains(a)
            && self.partitions.contains(b)
            && self.partitions.connected(a, b)
    }

    /// Sends one datagram or probe from `src` to `dst` into the fabric:
    /// counts it, drops it if the link is down now or the loss draw says
    /// so, and otherwise returns its arrival instant — latency sampled,
    /// then held behind the latest arrival on the same ordered link.
    fn launch(
        &mut self,
        ctx: &mut Ctx<'_>,
        src: NodeId,
        dst: NodeId,
        size_bytes: u32,
    ) -> Option<SimTime> {
        ctx.metrics().incr(metric!("net.sent"), 1);
        if self.is_crashed(src) || self.is_crashed(dst) {
            ctx.metrics().incr(metric!("net.dropped_crashed"), 1);
            return None;
        }
        if !self.partitions.connected(src, dst) {
            ctx.metrics().incr(metric!("net.dropped_partition"), 1);
            return None;
        }
        // Loopback is in-process: it cannot be lost.
        if src != dst
            && self.config.loss_probability > 0.0
            && ctx.rng().gen_bool(self.config.loss_probability)
        {
            ctx.metrics().incr(metric!("net.dropped_loss"), 1);
            return None;
        }
        let model = if src == dst {
            &self.config.loopback
        } else {
            &self.config.latency
        };
        let delay = model.sample(ctx.rng(), size_bytes);
        // Enforce per-(src,dst) FIFO: never deliver earlier than a
        // previously scheduled arrival on the same ordered pair. Both
        // ends passed the partition check, so both are registered.
        let mut at = ctx.now() + delay;
        let link = src.index() as usize * self.endpoints.len() + dst.index() as usize;
        if let Some(prev) = self.last_arrival[link] {
            if at <= prev {
                at = prev + SimDuration::from_nanos(1);
            }
        }
        self.last_arrival[link] = Some(at);
        Some(at)
    }

    /// What a message from `src` meets on landing at `dst` under the
    /// current topology: crash marks, then the partition, then whether
    /// `dst` has an endpoint.
    fn fate(&self, src: NodeId, dst: NodeId) -> Fate {
        if self.is_crashed(src) || self.is_crashed(dst) {
            Fate::DropCrashed
        } else if !self.partitions.connected(src, dst) {
            Fate::DropPartition
        } else if self.endpoint(dst).is_none() {
            Fate::DropCrashed
        } else {
            Fate::Deliver
        }
    }

    /// Re-decides, under the topology that holds from `at` on, the fate
    /// of every probe that lands after `at`.
    fn redecide_probes(&mut self, at: SimTime) {
        for (i, inbox) in self.inboxes.iter().enumerate() {
            if let Some(inbox) = inbox {
                let dst = NodeId::new(i as u32);
                inbox.get().redecide(at, |src| self.fate(src, dst));
            }
        }
    }

    /// The slot of `node`'s inbox.
    fn inbox_slot(&mut self, node: NodeId) -> &mut Option<Inbox> {
        let i = node.index() as usize;
        if i >= self.inboxes.len() {
            self.inboxes.resize_with(i + 1, || None);
        }
        &mut self.inboxes[i]
    }

    /// Makes `inbox` the one probes to `node` are recorded in. Probes an
    /// inbox the fabric opened still holds in flight move over; those
    /// that already landed reached no listener and are counted now.
    fn attach(&mut self, ctx: &mut Ctx<'_>, node: NodeId, inbox: ProbeInbox) {
        let slot = self.inbox_slot(node);
        match slot {
            Some(Inbox::Attached(current)) if current.same(&inbox) => return,
            Some(old) => inbox.take_over(old.get(), ctx.now(), ctx.metrics()),
            None => {}
        }
        *slot = Some(Inbox::Attached(inbox));
    }

    fn probe(&mut self, ctx: &mut Ctx<'_>, src: NodeId, dsts: &[NodeId], size_bytes: u32) {
        let now = ctx.now();
        for &dst in dsts {
            debug_assert_ne!(src, dst, "a node never probes itself");
            if let Some(at) = self.launch(ctx, src, dst, size_bytes) {
                let inbox = self
                    .inbox_slot(dst)
                    .get_or_insert_with(|| Inbox::Opened(ProbeInbox::default()));
                inbox.get().record(now, ctx.metrics(), src, at, size_bytes);
            }
        }
    }

    /// Passes an arrived [`Datagram`] on to its endpoint, in the box it
    /// travelled in.
    fn deliver(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
        let Some(&Datagram {
            src,
            dst,
            size_bytes,
            sent_at,
            ..
        }) = payload.downcast_ref::<Datagram>()
        else {
            return;
        };
        // Re-check conditions at arrival time: a partition or crash that
        // happened while the message was in flight drops it.
        let fate = self.fate(src, dst);
        let transit = ctx.now().saturating_since(sent_at);
        if count_landing(ctx.metrics(), fate, size_bytes, transit) {
            if let Some(endpoint) = self.endpoint(dst) {
                ctx.send_now(endpoint, payload);
            }
        }
    }
}

impl Actor for NetFabric {
    fn handle(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
        if payload.is::<Datagram>() {
            self.deliver(ctx, payload);
            return;
        }
        match payload.downcast::<NetOp>() {
            Some(NetOp::Send {
                src,
                dsts,
                payload,
                size_bytes,
            }) => {
                let self_id = ctx.self_id();
                for &dst in dsts.iter() {
                    if let Some(at) = self.launch(ctx, src, dst, size_bytes) {
                        // In flight, the datagram is an event back to the
                        // fabric, so a partition or crash is re-checked
                        // when it arrives.
                        let dgram = Datagram {
                            src,
                            dst,
                            payload: Rc::clone(&payload),
                            size_bytes,
                            sent_at: ctx.now(),
                        };
                        ctx.send_at(at, self_id, dgram);
                    }
                }
            }
            Some(NetOp::Probe {
                src,
                dsts,
                size_bytes,
                inbox,
            }) => {
                self.attach(ctx, src, inbox);
                self.probe(ctx, src, &dsts, size_bytes);
            }
            Some(NetOp::SetPartition(groups)) => {
                ctx.metrics().incr(metric!("net.partition_transitions"), 1);
                self.set_partition(&groups, ctx.now());
            }
            Some(NetOp::MergeAll) => {
                ctx.metrics().incr(metric!("net.partition_transitions"), 1);
                self.merge_all(ctx.now());
            }
            Some(NetOp::Crash(n)) => {
                self.crash(n, ctx.now());
            }
            Some(NetOp::Recover(n)) => {
                self.recover(n, ctx.now());
            }
            None => panic!("NetFabric received an unknown payload type"),
        }
    }

    /// The step profile's rows: a `Send`'s fan-out, a `Probe`'s, an
    /// in-flight datagram's delivery, and every control command.
    fn event_kind(&self, payload: &Payload) -> &'static str {
        if payload.is::<Datagram>() {
            return "in-flight";
        }
        match payload.downcast_ref::<NetOp>() {
            Some(NetOp::Send { .. }) => "send",
            Some(NetOp::Probe { .. }) => "probe",
            _ => "control",
        }
    }

    /// Counts the probes that landed, up to and including `now`, in
    /// inboxes no endpoint has attached.
    fn on_pause(&mut self, now: SimTime, metrics: &mut MetricsHub) {
        for inbox in self.inboxes.iter().flatten() {
            if let Inbox::Opened(inbox) = inbox {
                inbox.fold(now + SimDuration::from_nanos(1), metrics, |_, _| {});
            }
        }
    }
}

impl std::fmt::Debug for NetFabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let crashed: Vec<NodeId> = (0..self.crashed.len() as u32)
            .map(NodeId::new)
            .filter(|&n| self.is_crashed(n))
            .collect();
        f.debug_struct("NetFabric")
            .field("endpoints", &self.endpoints.iter().flatten().count())
            .field("crashed", &crashed)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use todr_sim::World;

    struct Sink {
        got: Vec<(NodeId, u32, SimTime)>,
    }

    impl Actor for Sink {
        fn handle(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
            if let Some(d) = payload.downcast_ref::<Datagram>() {
                let val = *d.payload.downcast_ref::<u32>().unwrap();
                self.got.push((d.src, val, ctx.now()));
            }
        }
    }

    fn setup(n: u32) -> (World, ActorId, Vec<NodeId>, Vec<ActorId>) {
        let mut world = World::new(7);
        let fabric = world.add_actor("net", NetFabric::new(NetConfig::lan()));
        let mut nodes = Vec::new();
        let mut sinks = Vec::new();
        for i in 0..n {
            let node = NodeId::new(i);
            let sink = world.add_actor(format!("sink{i}"), Sink { got: vec![] });
            world.with_actor(fabric, |f: &mut NetFabric| f.register(node, sink));
            nodes.push(node);
            sinks.push(sink);
        }
        (world, fabric, nodes, sinks)
    }

    #[test]
    fn unicast_delivers_with_latency() {
        let (mut world, fabric, nodes, sinks) = setup(2);
        world.schedule_now(
            fabric,
            NetOp::unicast(nodes[0], nodes[1], Rc::new(9u32), 200),
        );
        world.run_to_quiescence();
        world.with_actor(sinks[1], |s: &mut Sink| {
            assert_eq!(s.got.len(), 1);
            let (src, val, at) = s.got[0];
            assert_eq!(src, nodes[0]);
            assert_eq!(val, 9);
            assert!(at >= SimTime::from_micros(100)); // base latency
        });
    }

    #[test]
    fn multicast_reaches_all_destinations() {
        let (mut world, fabric, nodes, sinks) = setup(4);
        world.schedule_now(
            fabric,
            NetOp::multicast(nodes[0], nodes.clone(), Rc::new(5u32), 100),
        );
        world.run_to_quiescence();
        for sink in &sinks {
            world.with_actor(*sink, |s: &mut Sink| assert_eq!(s.got.len(), 1));
        }
    }

    #[test]
    fn partition_drops_cross_component_traffic() {
        let (mut world, fabric, nodes, sinks) = setup(4);
        world.with_actor(fabric, |f: &mut NetFabric| {
            f.set_partition(
                &[vec![nodes[0], nodes[1]], vec![nodes[2], nodes[3]]],
                SimTime::ZERO,
            );
        });
        world.schedule_now(
            fabric,
            NetOp::multicast(nodes[0], nodes.clone(), Rc::new(1u32), 100),
        );
        world.run_to_quiescence();
        world.with_actor(sinks[1], |s: &mut Sink| assert_eq!(s.got.len(), 1));
        world.with_actor(sinks[2], |s: &mut Sink| assert!(s.got.is_empty()));
        world.with_actor(sinks[3], |s: &mut Sink| assert!(s.got.is_empty()));
        assert_eq!(world.metrics().counter("net.dropped_partition"), 2);
    }

    #[test]
    fn partition_formed_mid_flight_drops_message() {
        let (mut world, fabric, nodes, sinks) = setup(2);
        world.schedule_now(
            fabric,
            NetOp::unicast(nodes[0], nodes[1], Rc::new(1u32), 100),
        );
        // The partition lands before the ~140 µs delivery completes.
        world.schedule(
            SimTime::from_micros(10),
            fabric,
            NetOp::SetPartition(vec![vec![nodes[0]], vec![nodes[1]]]),
        );
        world.run_to_quiescence();
        world.with_actor(sinks[1], |s: &mut Sink| assert!(s.got.is_empty()));
    }

    #[test]
    fn crashed_node_receives_and_sends_nothing() {
        let (mut world, fabric, nodes, sinks) = setup(2);
        world.with_actor(fabric, |f: &mut NetFabric| f.crash(nodes[1], SimTime::ZERO));
        world.schedule_now(
            fabric,
            NetOp::unicast(nodes[0], nodes[1], Rc::new(1u32), 100),
        );
        world.schedule_now(
            fabric,
            NetOp::unicast(nodes[1], nodes[0], Rc::new(2u32), 100),
        );
        world.run_to_quiescence();
        world.with_actor(sinks[0], |s: &mut Sink| assert!(s.got.is_empty()));
        world.with_actor(sinks[1], |s: &mut Sink| assert!(s.got.is_empty()));
        // Recovery restores traffic.
        let now = world.now();
        world.with_actor(fabric, |f: &mut NetFabric| f.recover(nodes[1], now));
        world.schedule_now(
            fabric,
            NetOp::unicast(nodes[0], nodes[1], Rc::new(3u32), 100),
        );
        world.run_to_quiescence();
        world.with_actor(sinks[1], |s: &mut Sink| assert_eq!(s.got.len(), 1));
    }

    #[test]
    fn per_pair_fifo_is_preserved() {
        let (mut world, fabric, nodes, sinks) = setup(2);
        for i in 0..50u32 {
            world.schedule_now(fabric, NetOp::unicast(nodes[0], nodes[1], Rc::new(i), 100));
        }
        world.run_to_quiescence();
        world.with_actor(sinks[1], |s: &mut Sink| {
            let vals: Vec<u32> = s.got.iter().map(|&(_, v, _)| v).collect();
            assert_eq!(vals, (0..50).collect::<Vec<_>>());
        });
    }

    #[test]
    fn loopback_is_fast_and_reliable() {
        let (mut world, fabric, nodes, sinks) = setup(1);
        world.schedule_now(
            fabric,
            NetOp::unicast(nodes[0], nodes[0], Rc::new(1u32), 100),
        );
        world.run_to_quiescence();
        world.with_actor(sinks[0], |s: &mut Sink| {
            assert_eq!(s.got.len(), 1);
            assert!(s.got[0].2 <= SimTime::from_micros(20));
        });
    }

    #[test]
    fn random_loss_drops_some_messages() {
        let mut world = World::new(11);
        let mut cfg = NetConfig::lan();
        cfg.loss_probability = 0.5;
        let fabric = world.add_actor("net", NetFabric::new(cfg));
        let sink = world.add_actor("sink", Sink { got: vec![] });
        let a = NodeId::new(0);
        let b = NodeId::new(1);
        world.with_actor(fabric, |f: &mut NetFabric| {
            f.register(a, sink);
            f.register(b, sink);
        });
        for i in 0..200u32 {
            world.schedule_now(fabric, NetOp::unicast(a, b, Rc::new(i), 100));
        }
        world.run_to_quiescence();
        let n = world.with_actor(sink, |s: &mut Sink| s.got.len());
        assert!(n > 40 && n < 160, "loss rate wildly off: {n}/200 delivered");
        let dropped = world.metrics().counter("net.dropped_loss");
        assert_eq!(dropped as usize + n, 200);
    }

    #[test]
    fn merge_all_restores_traffic() {
        let (mut world, fabric, nodes, sinks) = setup(2);
        world.schedule_now(
            fabric,
            NetOp::SetPartition(vec![vec![nodes[0]], vec![nodes[1]]]),
        );
        world.schedule(
            SimTime::from_millis(1),
            fabric,
            NetOp::unicast(nodes[0], nodes[1], Rc::new(1u32), 100),
        );
        world.schedule(SimTime::from_millis(2), fabric, NetOp::MergeAll);
        world.schedule(
            SimTime::from_millis(3),
            fabric,
            NetOp::unicast(nodes[0], nodes[1], Rc::new(2u32), 100),
        );
        world.run_to_quiescence();
        world.with_actor(sinks[1], |s: &mut Sink| {
            let vals: Vec<u32> = s.got.iter().map(|&(_, v, _)| v).collect();
            assert_eq!(vals, vec![2]);
        });
    }

    /// What node 1 hears of the probe node 0 sends it at time zero, with
    /// `script` run against the fabric in its flight; the world, and the
    /// counts of both nodes' probes (folded into a hub of their own, as
    /// a sink that does not listen for probes leaves them unread).
    fn probe_through(
        script: &[(u64, NetOp)],
    ) -> (Vec<(NodeId, SimTime)>, World, todr_sim::MetricsHub) {
        let (mut world, fabric, nodes, _) = setup(2);
        let inboxes = [ProbeInbox::default(), ProbeInbox::default()];
        // Each side attaches its inbox with a probe of its own.
        for (i, inbox) in inboxes.iter().enumerate() {
            let probe = NetOp::Probe {
                src: nodes[i],
                dsts: Rc::new([nodes[1 - i]]),
                size_bytes: 48,
                inbox: inbox.clone(),
            };
            world.schedule_now(fabric, probe);
        }
        for (at_us, op) in script {
            world.schedule(SimTime::from_micros(*at_us), fabric, clone_op(op));
        }
        world.run_until(SimTime::from_millis(1));
        let (mut heard, mut hub) = (Vec::new(), todr_sim::MetricsHub::new());
        inboxes[0].fold(world.now(), &mut hub, |_, _| {});
        inboxes[1].fold(world.now(), &mut hub, |src, at| heard.push((src, at)));
        (heard, world, hub)
    }

    fn clone_op(op: &NetOp) -> NetOp {
        match op {
            NetOp::SetPartition(g) => NetOp::SetPartition(g.clone()),
            NetOp::MergeAll => NetOp::MergeAll,
            NetOp::Crash(n) => NetOp::Crash(*n),
            NetOp::Recover(n) => NetOp::Recover(*n),
            _ => unreachable!("control ops only"),
        }
    }

    #[test]
    fn probes_land_in_the_inbox_and_are_counted_like_datagrams() {
        let (heard, world, hub) = probe_through(&[]);
        assert_eq!(heard.len(), 1);
        assert_eq!(heard[0].0, NodeId::new(0));
        assert!(heard[0].1 >= SimTime::from_micros(100));
        assert_eq!(world.metrics().counter("net.sent"), 2);
        assert_eq!(hub.counter("net.delivered"), 2);
        assert_eq!(hub.counter("net.bytes_delivered"), 96);
        let transit = hub.histogram("net.transit_latency");
        assert_eq!(transit.map(|h| h.count()), Some(2));
        // No arrival or hand-off events: only the two probe ops.
        assert_eq!(world.events_processed(), 2);
    }

    #[test]
    fn a_cut_in_flight_drops_a_probe_and_its_undo_restores_it() {
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        let cut = || NetOp::SetPartition(vec![vec![a], vec![b]]);
        let (heard, _, hub) = probe_through(&[(10, cut())]);
        assert!(heard.is_empty());
        assert_eq!(hub.counter("net.dropped_partition"), 2);
        let (heard, _, _) = probe_through(&[(10, cut()), (20, NetOp::MergeAll)]);
        assert_eq!(heard.len(), 1, "the undo lands before the probe");
        let (heard, _, hub) = probe_through(&[(10, NetOp::Crash(b)), (20, NetOp::Recover(b))]);
        assert_eq!(heard.len(), 1);
        assert_eq!(hub.counter("net.dropped_crashed"), 0);
        let (heard, _, hub) = probe_through(&[(10, NetOp::Crash(b))]);
        assert!(heard.is_empty());
        assert_eq!(hub.counter("net.dropped_crashed"), 2);
    }

    #[test]
    fn counters_track_bytes() {
        let (mut world, fabric, nodes, _sinks) = setup(2);
        world.schedule_now(
            fabric,
            NetOp::unicast(nodes[0], nodes[1], Rc::new(1u32), 256),
        );
        world.run_to_quiescence();
        let hub = world.metrics();
        assert_eq!(hub.counter("net.sent"), 1);
        assert_eq!(hub.counter("net.delivered"), 1);
        assert_eq!(hub.counter("net.bytes_delivered"), 256);
    }
}

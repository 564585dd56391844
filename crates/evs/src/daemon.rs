//! The EVS daemon actor.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;

use todr_net::{Datagram, NetOp, NodeId, ProbeInbox};
use todr_sim::{
    metric, Actor, ActorId, ApplyHorizon, Ctx, MetricsHub, Payload, ProtocolEvent, SimDuration,
    SimTime,
};

use crate::channel::{LinkFrame, LinkLayer};
use crate::fd::FailureDetector;
use crate::membership::{
    evaluate_flush, FlushDecision, FlushInfoRec, FlushState, GatherState, Phase,
};
use crate::order::ConfOrdering;
use crate::sequencer::{Pack, Sequencer};
use crate::stability::{AckDuty, AckStep};
use crate::types::{log_slot, run_len, ConfId, Configuration, Delivery, EvsEvent};
use crate::wire::{EvsWire, SequencedMsg, SubmitItem, TransGroup, HEADER_BYTES};

/// Tuning knobs of an [`EvsDaemon`].
#[derive(Debug, Clone)]
pub struct EvsConfig {
    /// All nodes this daemon initially knows about (it also learns new
    /// ones from their traffic). Heartbeats go to the whole universe so
    /// merged partitions and newly started nodes are discovered; they
    /// are fabric probes ([`NetOp::Probe`]), not frames.
    pub universe: Vec<NodeId>,
    /// Heartbeat / failure-detector evaluation period.
    pub hb_interval: SimDuration,
    /// Silence threshold after which a peer is considered unreachable.
    pub fail_timeout: SimDuration,
    /// Acknowledgement batching delay: acks are sent at most once per
    /// this period per member, trading a small amount of safe-delivery
    /// latency for far fewer messages under load.
    pub ack_delay: SimDuration,
    /// Run every frame through per-peer reliable (ARQ)
    /// channels, tolerating random message loss on the fabric. Off by
    /// default: a loss-free fabric is already reliable FIFO, and the
    /// extra acknowledgements would only distort the experiments.
    pub reliable_links: bool,
    /// Deliver messages on sequencing (agreed/total order) instead of
    /// waiting for all-member stability (safe delivery). Only for
    /// applications that layer their own end-to-end guarantees on top
    /// (the COReL baseline); the replication engine requires safe
    /// delivery.
    pub deliver_agreed: bool,
    /// Maximum number of pending submissions packed into one `Submit`
    /// wire frame (the Spread message-packing optimization); `1`, the
    /// default, disables packing. Each packed item is still sequenced
    /// and delivered individually, so agreed/safe semantics are
    /// unchanged. The coordinator also runs *sequencer rounds*:
    /// submissions arriving within one pack window (500 µs) of each
    /// other leave as one packed `Sequenced` frame; one after a longer
    /// silence leaves at once; a round opened while the application is
    /// busy (see [`EvsDaemon::set_apply_horizon`]) runs until that
    /// backlog is one window from draining.
    pub max_pack: usize,
    /// Member count at which stability switches from all-ack (every
    /// member acks every `ack_delay`) to *cumulative acks*: one rotating
    /// member per `Sequenced` frame acks promptly, the rest piggyback on
    /// their own `Submit` frames or ack after 1.2 ms unacknowledged —
    /// O(1) amortized acks per action at any size, for a bounded extra
    /// stability lag. `0` enables it everywhere, `usize::MAX` disables
    /// it; the default (16) keeps clusters of ≤ 14 replicas on all-ack.
    pub cumulative_ack_threshold: usize,
    /// Emit an [`EvsEvent::Receipt`] the moment a sequenced message is
    /// held locally (its agreed-order position is fixed), one stability
    /// round before its safe [`EvsEvent::Deliver`]. Only in the steady
    /// phase of a regular configuration, never with `deliver_agreed`.
    /// Off by default: the engine's commutativity fast path opts in.
    pub eager_receipts: bool,
    /// Emit an [`EvsEvent::LeaseRenew`] on each failure-detector tick in
    /// the steady phase of a regular configuration, provided every
    /// member was heard from within the last two heartbeat intervals
    /// (no extra frames). Off by default: the engine's read leases opt in.
    pub lease_heartbeats: bool,
}

impl Default for EvsConfig {
    fn default() -> Self {
        EvsConfig {
            universe: Vec::new(),
            hb_interval: SimDuration::from_millis(50),
            fail_timeout: SimDuration::from_millis(200),
            ack_delay: SimDuration::from_micros(300),
            reliable_links: false,
            deliver_agreed: false,
            max_pack: 1,
            cumulative_ack_threshold: 16,
            eager_receipts: false,
            lease_heartbeats: false,
        }
    }
}

/// Retransmission timeout of the reliable links.
const LINK_RTO: SimDuration = SimDuration::from_millis(3);
/// Delayed-acknowledgement interval of the reliable links.
const LINK_ACK_DELAY: SimDuration = SimDuration::from_micros(500);

/// Commands an application (or the test harness) sends to the daemon.
pub enum EvsCmd {
    /// Multicast `payload` to the current configuration with agreed
    /// order and safe delivery. Buffered if a membership change is in
    /// progress.
    Send {
        /// Application payload.
        payload: Rc<dyn std::any::Any>,
        /// Modelled payload size in bytes.
        size_bytes: u32,
    },
    /// Join the group, first or after a [`EvsCmd::Crash`]: start a new
    /// incarnation, install a singleton configuration and discover peers.
    JoinGroup,
    /// Leave the group voluntarily (peers see a membership change after
    /// the failure timeout).
    LeaveGroup,
    /// Simulated process crash: wipe all volatile state and go silent.
    Crash,
}

impl std::fmt::Debug for EvsCmd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvsCmd::Send { size_bytes, .. } => f
                .debug_struct("Send")
                .field("size_bytes", size_bytes)
                .finish_non_exhaustive(),
            EvsCmd::JoinGroup => f.write_str("JoinGroup"),
            EvsCmd::LeaveGroup => f.write_str("LeaveGroup"),
            EvsCmd::Crash => f.write_str("Crash"),
        }
    }
}

// The daemon's timers: zero-sized, so arming one allocates nothing.
/// Timer: heartbeat probe + failure-detector evaluation.
struct FdTick;
/// Timer: flush the batched acknowledgement.
struct AckTick;
/// Timer: retransmit unacknowledged link frames.
struct RetxTick;
/// Timer: send owed link-layer acknowledgements.
struct LinkAckTick;
/// Timer: flush the submission pack buffer (armed with zero delay).
struct PackTick;
/// Timer: close the coordinator's sequencer round, if still open.
struct SeqPackTick;

/// One incarnation of a daemon: everything a crash wipes. A crash, a
/// leave and a (re)join each replace it whole.
struct Volatile {
    joined: bool,
    down: bool,
    fd: FailureDetector,
    phase: Phase,
    ordering: Option<ConfOrdering>,
    pending_out: VecDeque<(Rc<dyn std::any::Any>, u32)>,
    /// FlushInfos that arrived before this daemon entered the matching
    /// flush phase: the latest per sender, so bounded by the universe
    /// (an append-only list was O(n²) under churn at large n).
    early_infos: BTreeMap<NodeId, (Rc<[NodeId]>, FlushInfoRec)>,
    ack: AckDuty,
    installed_at: SimTime,
    link: LinkLayer,
    retx_armed: bool,
    link_ack_armed: bool,
}

impl Volatile {
    fn new(me: NodeId, config: &EvsConfig, link_epoch: u64) -> Self {
        Volatile {
            joined: false,
            down: false,
            fd: FailureDetector::new(me, config.fail_timeout),
            phase: Phase::Steady,
            ordering: None,
            pending_out: VecDeque::new(),
            early_infos: BTreeMap::new(),
            ack: AckDuty::new(config.ack_delay),
            installed_at: SimTime::ZERO,
            link: LinkLayer::new(link_epoch),
            retx_armed: false,
            link_ack_armed: false,
        }
    }
}

/// The Extended Virtual Synchrony daemon for one node.
///
/// Wire traffic flows through a [`todr_net::NetFabric`]; upcalls
/// ([`EvsEvent`]) go to the application actor given at construction.
/// See the crate docs for the provided guarantees.
///
/// The daemon is a shell: it owns the I/O, the timers, the metrics and
/// the events, and asks its pure pieces what to do — the sequencer when
/// to send a frame, the ack duty when to ack.
pub struct EvsDaemon {
    me: NodeId,
    fabric: ActorId,
    app: ActorId,
    config: EvsConfig,
    /// Per [`NodeId::index`]: whether the node is in the universe (the
    /// configured one, plus every node heard from since); a restarted
    /// node still heartbeats every node it knew.
    universe: Vec<bool>,
    /// Heartbeat destinations, cached from `universe` (rebuilding them
    /// every `hb_interval` was measurable at large n).
    universe_peers: Option<Rc<[NodeId]>>,
    /// Where the fabric records the heartbeat probes sent to this node;
    /// attached with this daemon's own first probe. Folded before every
    /// failure-detector read and every reset (see [`Self::fold_probes`]).
    probes: ProbeInbox,
    /// Membership attempts: the incarnation number, so post-recovery
    /// Joins (and link epochs) are not mistaken for stale ones.
    attempt: u64,
    /// Highest configuration installed, so a replayed `Install` from
    /// before a crash is never taken for a new one.
    max_conf_seq: u32,
    /// When this node's application processor next goes idle: sets how
    /// long a sequencer round runs (zero backlog if never wired).
    apply_horizon: ApplyHorizon,
    /// Whether an `FdTick` is queued: the tick stays queued across a
    /// crash, so a restart must not arm a second one.
    fd_timer_armed: bool,
    /// Pack buffer and sequencer round. Its last-`Submit` stamp outlives
    /// a crash (an old one reads as idle); resets drop its rounds.
    seq: Sequencer,
    /// Everything a crash wipes; the fields above outlive it.
    vol: Volatile,
}

/// Adds `node` to a node-indexed universe; whether it is new there.
fn mark_member(universe: &mut Vec<bool>, node: NodeId) -> bool {
    let i = node.index() as usize;
    if i >= universe.len() {
        universe.resize(i + 1, false);
    }
    !std::mem::replace(&mut universe[i], true)
}

impl EvsDaemon {
    /// Creates a daemon for node `me`, speaking through `fabric`,
    /// delivering upcalls to `app`. Call with an [`EvsCmd::JoinGroup`]
    /// event to activate it.
    pub fn new(me: NodeId, fabric: ActorId, app: ActorId, config: EvsConfig) -> Self {
        let mut universe = Vec::new();
        for node in &config.universe {
            mark_member(&mut universe, *node);
        }
        EvsDaemon {
            me,
            fabric,
            app,
            universe,
            universe_peers: None,
            probes: ProbeInbox::default(),
            attempt: 0,
            max_conf_seq: 0,
            apply_horizon: ApplyHorizon::default(),
            fd_timer_armed: false,
            seq: Sequencer::new(config.max_pack),
            vol: Volatile::new(me, &config, 0),
            config,
        }
    }

    /// Re-points the application actor that receives upcalls. Intended
    /// for wiring during world construction (daemon and application
    /// reference each other, so one of them is created first with a
    /// placeholder).
    pub fn set_app(&mut self, app: ActorId) {
        self.app = app;
    }

    /// Lets the sequencer see this node's apply queue: a round opened
    /// while the application's processor is busy for more than two pack
    /// windows stays open until that backlog is one window from
    /// draining. Only consulted when `max_pack > 1`.
    pub fn set_apply_horizon(&mut self, horizon: ApplyHorizon) {
        self.apply_horizon = horizon;
    }

    /// The currently installed regular configuration, if any.
    pub fn current_conf(&self) -> Option<&Configuration> {
        self.vol.ordering.as_ref().map(|o| o.conf())
    }

    /// Whether the daemon is operating inside an installed configuration
    /// (no membership change in progress).
    pub fn is_steady(&self) -> bool {
        matches!(self.vol.phase, Phase::Steady) && self.vol.ordering.is_some()
    }

    /// The ordering of `conf` if it is installed and steady; frames of
    /// any other configuration are stale.
    fn steady_in(&mut self, conf: ConfId) -> Option<&mut ConfOrdering> {
        let steady = matches!(self.vol.phase, Phase::Steady);
        self.vol
            .ordering
            .as_mut()
            .filter(|o| steady && o.conf().id == conf)
    }

    fn send_wire_to(&mut self, ctx: &mut Ctx<'_>, dsts: Rc<[NodeId]>, wire: EvsWire) {
        if dsts.is_empty() {
            return;
        }
        let size = wire.wire_size();
        if !self.config.reliable_links {
            ctx.send_now(
                self.fabric,
                NetOp::multicast_shared(self.me, dsts, Rc::new(wire), size),
            );
            return;
        }
        let wire = Rc::new(wire);
        for &dst in dsts.iter() {
            // Loopback stays outside the channels: the fabric never drops it.
            let (frame, bytes): (Rc<dyn std::any::Any>, _) = if dst == self.me {
                (Rc::clone(&wire) as _, size)
            } else {
                let frame = self.vol.link.send(dst, Rc::clone(&wire), size);
                (Rc::new(frame), size + 16)
            };
            ctx.send_now(self.fabric, NetOp::unicast(self.me, dst, frame, bytes));
        }
        if !self.vol.retx_armed {
            self.vol.retx_armed = true;
            ctx.send_self_after(LINK_RTO, RetxTick);
        }
    }

    fn on_retx_tick(&mut self, ctx: &mut Ctx<'_>) {
        self.vol.retx_armed = false;
        if self.vol.down || !self.vol.joined || !self.vol.link.has_in_flight() {
            return;
        }
        // Retransmit only to currently reachable peers; queues for
        // unreachable ones stay paused (see LinkLayer::retransmissions)
        // and resume when connectivity returns.
        let now = ctx.now();
        self.fold_probes(now, ctx.metrics());
        let fd = &self.vol.fd;
        let retx = self.vol.link.retransmissions(&|p| fd.is_reachable(p, now));
        let sent_any = !retx.is_empty();
        if sent_any {
            let burst = retx.len() as u64;
            ctx.metrics().incr(metric!("evs.link_retransmitted"), burst);
            ctx.emit(ProtocolEvent::Retransmit {
                node: self.me.index(),
                count: burst,
            });
        }
        for (peer, frame, size) in retx {
            ctx.send_now(
                self.fabric,
                NetOp::unicast(self.me, peer, Rc::new(frame), size + 16),
            );
        }
        self.vol.retx_armed = true;
        let delay = if sent_any {
            LINK_RTO
        } else {
            // Everything pending is behind a partition: poll lazily.
            self.config.hb_interval
        };
        ctx.send_self_after(delay, RetxTick);
    }

    fn on_link_ack_tick(&mut self, ctx: &mut Ctx<'_>) {
        self.vol.link_ack_armed = false;
        if self.vol.down || !self.vol.joined {
            return;
        }
        for peer in self.vol.link.ack_pending_peers() {
            let frame = self.vol.link.ack_frame(peer);
            ctx.send_now(
                self.fabric,
                NetOp::unicast(self.me, peer, Rc::new(frame), 32),
            );
        }
    }

    fn send_wire_one(&mut self, ctx: &mut Ctx<'_>, dst: NodeId, wire: EvsWire) {
        self.send_wire_to(ctx, Rc::new([dst]), wire);
    }

    fn emit(&mut self, ctx: &mut Ctx<'_>, event: EvsEvent) {
        match &event {
            EvsEvent::Deliver(d) => {
                if d.in_transitional {
                    ctx.metrics().incr(metric!("evs.delivered_trans"), 1);
                } else {
                    ctx.metrics().incr(metric!("evs.delivered_safe"), 1);
                }
            }
            EvsEvent::RegConf(c) => {
                ctx.metrics().incr(metric!("evs.views_installed"), 1);
                ctx.emit(ProtocolEvent::ViewInstalled {
                    node: self.me.index(),
                    conf_seq: c.id.seq,
                    coordinator: c.id.coordinator.index(),
                    members: c.members.len() as u32,
                });
            }
            EvsEvent::TransConf(c) => {
                ctx.metrics().incr(metric!("evs.transitional_confs"), 1);
                ctx.emit(ProtocolEvent::TransitionalConfig {
                    node: self.me.index(),
                    conf_seq: c.id.seq,
                });
            }
            EvsEvent::Receipt(_) => {
                ctx.metrics().incr(metric!("evs.receipts"), 1);
            }
            EvsEvent::LeaseRenew(_) => {
                ctx.metrics().incr(metric!("evs.lease_renewals"), 1);
            }
        }
        ctx.send_now(self.app, event);
    }

    /// Hands `deliveries` to the application as one batch, the last
    /// flagged [`Delivery::last_in_batch`]. The log gets one
    /// [`ProtocolEvent::DeliveredRun`] per run of two or more
    /// ([`run_len`]) and a [`ProtocolEvent::Delivered`] per lone
    /// delivery, all ahead of the batch (the application sees none of it
    /// before this returns, so the log's order is the deliveries').
    fn emit_all(&mut self, ctx: &mut Ctx<'_>, mut deliveries: Vec<Delivery>) {
        if let Some(last) = deliveries.last_mut() {
            last.last_in_batch = true;
        }
        let node = self.me.index();
        let mut rest = &deliveries[..];
        while !rest.is_empty() {
            let (run, tail) = rest.split_at(run_len(rest));
            let d = &run[0];
            let (conf_seq, coordinator) = (d.conf_id.seq, d.conf_id.coordinator.index());
            let event = if let [_, _, ..] = run {
                let head = (conf_seq, coordinator, log_slot(d.seq), d.in_transitional);
                let senders = run.iter().map(|d| d.sender.index());
                ProtocolEvent::DeliveredRun(ctx.metrics().delivered_run(node, head, senders))
            } else {
                ProtocolEvent::Delivered {
                    node,
                    conf_seq,
                    coordinator,
                    seq: log_slot(d.seq),
                    sender: d.sender.index(),
                    in_transitional: d.in_transitional,
                }
            };
            ctx.emit(event);
            rest = tail;
        }
        for d in deliveries {
            self.emit(ctx, EvsEvent::Deliver(d));
        }
    }

    fn start_gather(&mut self, ctx: &mut Ctx<'_>) {
        self.attempt += 1;
        ctx.metrics().incr(metric!("evs.gathers_started"), 1);
        self.fold_probes(ctx.now(), ctx.metrics());
        let proposal = self.vol.fd.reachable(ctx.now());
        let mut gather = GatherState::new(self.attempt, self.me, proposal.clone());
        // Carry forward what peers already announced: a restart must not
        // forget Joins that arrived moments ago, or two nodes can each
        // wait for the other to speak again.
        if let Phase::Gather(old) = &self.vol.phase {
            for (&from, (attempt, prop)) in &old.seen {
                if from != self.me {
                    gather.record_join(from, *attempt, prop.clone());
                }
            }
        }
        self.vol.phase = Phase::Gather(gather);
        self.announce_join(ctx, self.attempt, proposal);
        self.check_gather_convergence(ctx);
    }

    /// Sends our Join for `attempt` to every other node of `proposal`.
    fn announce_join(&mut self, ctx: &mut Ctx<'_>, attempt: u64, proposal: BTreeSet<NodeId>) {
        let peers: Rc<[NodeId]> = proposal
            .iter()
            .copied()
            .filter(|&n| n != self.me)
            .collect::<Vec<_>>()
            .into();
        let join = EvsWire::Join {
            from: self.me,
            attempt,
            proposal,
        };
        self.send_wire_to(ctx, peers, join);
    }

    fn check_gather_convergence(&mut self, ctx: &mut Ctx<'_>) {
        let Phase::Gather(gather) = &self.vol.phase else {
            return;
        };
        if !gather.converged() {
            return;
        }
        let membership: Vec<NodeId> = gather.proposal.iter().copied().collect();
        let mut flush = FlushState::new(gather.attempt, membership.clone());
        // Adopt any flush reports that raced ahead of our own phase
        // change.
        self.vol.early_infos.retain(|&from, (m, rec)| {
            if m[..] == membership[..] {
                flush.infos.insert(from, rec.clone());
                false
            } else {
                true
            }
        });
        let coordinator = flush.coordinator;
        ctx.metrics().incr(metric!("evs.flush_rounds"), 1);
        self.vol.phase = Phase::Flush(flush);
        let info = self.my_flush_info(membership.into());
        self.send_wire_one(ctx, coordinator, info);
    }

    fn my_flush_info(&self, membership: Rc<[NodeId]>) -> EvsWire {
        let (old_conf, have_upto, stable_upto) = match &self.vol.ordering {
            Some(o) => (o.conf().id, o.have_upto(), o.delivered_upto()),
            None => (ConfId::initial(self.me), 0, 0),
        };
        EvsWire::FlushInfo {
            from: self.me,
            membership,
            old_conf,
            have_upto,
            stable_upto,
            max_conf_seq: self.max_conf_seq,
        }
    }

    fn coordinator_evaluate(&mut self, ctx: &mut Ctx<'_>) {
        let Phase::Flush(flush) = &mut self.vol.phase else {
            return;
        };
        if flush.coordinator != self.me {
            return;
        }
        match evaluate_flush(&flush.membership, &flush.infos) {
            FlushDecision::Wait => {}
            FlushDecision::NeedRetrans(plans) => {
                if flush.retrans_issued {
                    return;
                }
                flush.retrans_issued = true;
                for p in plans {
                    let req = EvsWire::RetransReq {
                        old_conf: p.old_conf,
                        from_seq: p.from_seq,
                        to_seq: p.to_seq,
                        needy: p.needy,
                    };
                    self.send_wire_one(ctx, p.holder, req);
                }
            }
            FlushDecision::Install {
                new_conf_seq,
                groups,
            } => {
                let membership: Rc<[NodeId]> = flush.membership.as_slice().into();
                let new_conf = Configuration::new(
                    ConfId {
                        seq: new_conf_seq,
                        coordinator: self.me,
                    },
                    membership.to_vec(),
                );
                self.send_wire_to(ctx, membership, EvsWire::Install { new_conf, groups });
            }
        }
    }

    fn do_install(&mut self, ctx: &mut Ctx<'_>, new_conf: Configuration, groups: &[TransGroup]) {
        // Packed submissions are still in the old ordering's unsequenced
        // map, which `take_unsequenced` re-submits below; an open round's
        // messages are in its sequenced map, which the flush protocol
        // retransmitted to whoever missed them. Both buffers are moot.
        self.seq.drop_rounds();
        // Transitional delivery for the configuration we are leaving.
        if let Some(ordering) = &mut self.vol.ordering {
            let old_id = ordering.conf().id;
            let group = groups
                .iter()
                .find(|g| g.old_conf == old_id)
                .expect("install lacks our transitional group");
            debug_assert_eq!(
                ordering.have_upto(),
                group.final_upto,
                "flush failed to equalize {} in {}",
                self.me,
                old_id
            );
            let trans_conf = Configuration::new(old_id, group.members.clone());
            let trans = ordering.take_transitional();
            let unsequenced = ordering.take_unsequenced();
            self.emit(ctx, EvsEvent::TransConf(trans_conf));
            self.emit_all(ctx, trans);
            // Own messages never sequenced in the old configuration get
            // re-submitted (at-least-once across view changes; consumers
            // deduplicate by application id).
            for (i, item) in unsequenced.into_iter().enumerate() {
                self.vol.pending_out.insert(i, item);
            }
        }

        self.max_conf_seq = self.max_conf_seq.max(new_conf.id.seq);
        let cumulative = new_conf.members.len() >= self.config.cumulative_ack_threshold;
        self.vol.ack.install(ctx.now(), cumulative);
        self.vol.ordering = Some(ConfOrdering::with_mode(
            new_conf.clone(),
            self.me,
            self.config.deliver_agreed,
        ));
        self.vol.phase = Phase::Steady;
        self.vol.installed_at = ctx.now();
        self.emit(ctx, EvsEvent::RegConf(new_conf));

        // Drain buffered submissions into the fresh configuration.
        let pending: Vec<_> = self.vol.pending_out.drain(..).collect();
        for (payload, size) in pending {
            self.submit(ctx, payload, size);
        }
    }

    fn submit(&mut self, ctx: &mut Ctx<'_>, payload: Rc<dyn std::any::Any>, size: u32) {
        let steady = matches!(self.vol.phase, Phase::Steady);
        let Some(ordering) = self.vol.ordering.as_mut().filter(|_| steady) else {
            self.vol.pending_out.push_back((payload, size));
            return;
        };
        ctx.metrics().incr(metric!("evs.submitted"), 1);
        let local_seq = ordering.register_submission(Rc::clone(&payload), size);
        let item = SubmitItem {
            local_seq,
            payload,
            size,
        };
        match self.seq.push_submit(item) {
            Pack::SendNow => self.flush_pack(ctx),
            Pack::ArmTick => ctx.send_self_now(PackTick),
            Pack::Wait => {}
        }
    }

    /// Sends the buffered submissions as packed `Submit` frames.
    fn flush_pack(&mut self, ctx: &mut Ctx<'_>) {
        if !matches!(self.vol.phase, Phase::Steady) {
            // A membership change started under us: leave the items in
            // the ordering's unsequenced map — `do_install` drops this
            // buffer and re-submits them in the next configuration.
            return;
        }
        let Some(ordering) = &self.vol.ordering else {
            return;
        };
        let conf = ordering.conf().id;
        let coordinator = ordering.coordinator();
        let have = ordering.have_upto();
        let is_coordinator = ordering.is_coordinator();
        while let Some(items) = self.seq.next_submit_frame() {
            ctx.metrics().incr(metric!("evs.frames_packed"), 1);
            ctx.metrics()
                .record_value(metric!("evs.actions_per_frame"), items.len() as u64);
            let ack_upto = self.vol.ack.piggyback(have, is_coordinator);
            let submit = EvsWire::Submit {
                conf,
                sender: self.me,
                ack_upto,
                items,
            };
            self.send_wire_one(ctx, coordinator, submit);
        }
    }

    /// Closes the coordinator's sequencer round: multicasts the held
    /// sequenced messages as packed `Sequenced` frames.
    fn flush_seq_pack(&mut self, ctx: &mut Ctx<'_>) {
        let steady = matches!(self.vol.phase, Phase::Steady);
        let ordering = self.vol.ordering.as_ref();
        let Some(ordering) = ordering.filter(|o| steady && o.is_coordinator()) else {
            // A view change started under us. The held messages are in
            // the ordering's map, so the flush protocol retransmits them
            // to every member that missed them; the round is moot.
            self.seq.drop_held();
            return;
        };
        let conf = ordering.conf().id;
        let stable_upto = ordering.announced_stable();
        let members = ordering.members_shared();
        let now = ctx.now();
        while let Some(msgs) = self.seq.next_sequenced_frame(|since| {
            ctx.metrics()
                .observe(metric!("evs.round_hold"), now.saturating_since(since));
        }) {
            ctx.metrics().incr(metric!("evs.frames_packed"), 1);
            ctx.metrics().incr(metric!("evs.sequencer_rounds"), 1);
            ctx.metrics()
                .record_value(metric!("evs.actions_per_frame"), msgs.len() as u64);
            let acker = match &mut self.vol.ordering {
                Some(o) if self.vol.ack.designates() => o.next_acker(),
                _ => None,
            };
            let sequenced = EvsWire::Sequenced {
                conf,
                stable_upto,
                acker,
                msgs,
            };
            self.send_wire_to(ctx, Rc::clone(&members), sequenced);
        }
    }

    fn announce_stable(&mut self, ctx: &mut Ctx<'_>, upto: u64) {
        let Some(ordering) = &self.vol.ordering else {
            return;
        };
        let conf = ordering.conf().id;
        let members = ordering.members_shared();
        self.send_wire_to(ctx, members, EvsWire::Stable { conf, upto });
    }

    /// Carries out what the [`AckDuty`] decided.
    fn ack_step(&mut self, ctx: &mut Ctx<'_>, step: AckStep) {
        let Some(ordering) = &mut self.vol.ordering else {
            return;
        };
        match step {
            AckStep::Wait => {}
            AckStep::Arm => ctx.send_self_after(self.config.ack_delay, AckTick),
            AckStep::Send(upto) => {
                ctx.metrics().incr(metric!("evs.acks_sent"), 1);
                let ack = EvsWire::Ack {
                    conf: ordering.conf().id,
                    from: self.me,
                    upto,
                };
                let coordinator = ordering.coordinator();
                self.send_wire_one(ctx, coordinator, ack);
            }
            // The coordinator's own receipt counts without a network
            // round trip or batching delay.
            AckStep::SelfAck(upto) => {
                if let Some(stable) = ordering.on_ack(self.me, upto) {
                    self.announce_stable(ctx, stable);
                }
            }
        }
    }

    /// Records that a frame from `node` arrived at `at`, adding it to
    /// the universe if it is new there. Every frame and every delivered
    /// probe passes here, and all but a joiner's first find it a member
    /// already.
    fn heard_from(&mut self, node: NodeId, at: SimTime) {
        if mark_member(&mut self.universe, node) {
            self.universe_peers = None;
        }
        self.vol.fd.heard_from(node, at);
    }

    /// Folds the heartbeat probes that landed strictly before `before`
    /// (see [`ProbeInbox::fold`]): counts each one, and — only while
    /// joined and up, as the frame would have been handled — hears its
    /// sender at its arrival. This daemon's state changes only at a
    /// reset, which folds first, so every probe meets the state it
    /// arrived under. A timer queued before a probe landed at the same
    /// instant would have run before its hand-off, hence "strictly".
    fn fold_probes(&mut self, before: SimTime, metrics: &mut MetricsHub) {
        let probes = self.probes.clone();
        let listening = self.vol.joined && !self.vol.down;
        probes.fold(before, metrics, |src, at| {
            if listening {
                self.heard_from(src, at);
            }
        });
    }

    fn handle_wire(&mut self, ctx: &mut Ctx<'_>, src: NodeId, wire: &EvsWire) {
        self.heard_from(src, ctx.now());
        if let Some(origin) = wire.origin() {
            self.heard_from(origin, ctx.now());
        }
        match wire {
            EvsWire::Submit {
                conf,
                sender,
                ack_upto,
                items,
            } => self.on_submit(ctx, *conf, *sender, *ack_upto, items),
            EvsWire::Sequenced {
                conf,
                stable_upto,
                acker,
                msgs,
            } => self.on_sequenced(ctx, *conf, *stable_upto, *acker, msgs),
            EvsWire::Ack { conf, from, upto } => {
                let coordinating = self.steady_in(*conf).filter(|o| o.is_coordinator());
                if let Some(stable) = coordinating.and_then(|o| o.on_ack(*from, *upto)) {
                    self.announce_stable(ctx, stable);
                }
            }
            EvsWire::Stable { conf, upto } => {
                if let Some(ordering) = self.steady_in(*conf) {
                    let deliveries = ordering.on_stable(*upto);
                    self.emit_all(ctx, deliveries);
                }
            }
            EvsWire::Join {
                from,
                attempt,
                proposal,
            } => self.on_join(ctx, *from, *attempt, proposal.clone()),
            EvsWire::FlushInfo {
                from,
                membership,
                old_conf,
                have_upto,
                stable_upto,
                max_conf_seq,
            } => {
                let rec = FlushInfoRec {
                    old_conf: *old_conf,
                    have_upto: *have_upto,
                    stable_upto: *stable_upto,
                    max_conf_seq: *max_conf_seq,
                };
                self.on_flush_info(ctx, *from, membership, rec);
            }
            EvsWire::RetransReq {
                old_conf,
                from_seq,
                to_seq,
                needy,
            } => self.on_retrans_req(ctx, *old_conf, *from_seq, *to_seq, needy),
            EvsWire::Retrans { old_conf, msgs } => self.on_retrans(ctx, *old_conf, msgs),
            EvsWire::Install { new_conf, groups } => self.on_install(ctx, new_conf, groups),
        }
    }

    /// Coordinator: sequences a `Submit` and holds or sends the result.
    fn on_submit(
        &mut self,
        ctx: &mut Ctx<'_>,
        conf: ConfId,
        sender: NodeId,
        ack_upto: u64,
        items: &[SubmitItem],
    ) {
        let Some(ordering) = self.steady_in(conf).filter(|o| o.is_coordinator()) else {
            return;
        };
        // A piggybacked receipt goes first, so the freshest stability
        // line rides out on the frame this `Submit` produces.
        let announce = (ack_upto > 0)
            .then(|| ordering.on_ack(sender, ack_upto))
            .flatten();
        let msgs = ordering.sequence_batch(sender, items);
        ctx.metrics()
            .incr(metric!("evs.sequenced"), msgs.len() as u64);
        let now = ctx.now();
        let held = self.seq.hold(now, self.apply_horizon.backlog(now), msgs);
        if let Some(hold) = held.opened {
            ctx.send_self_after(hold, SeqPackTick);
        }
        if held.flush {
            self.flush_seq_pack(ctx);
        }
        if let Some(stable) = announce {
            self.announce_stable(ctx, stable);
        }
    }

    /// Member: orders a `Sequenced` frame, delivers what became safe,
    /// and takes up the ack duty.
    fn on_sequenced(
        &mut self,
        ctx: &mut Ctx<'_>,
        conf: ConfId,
        stable_upto: u64,
        acker: Option<NodeId>,
        msgs: &[SequencedMsg],
    ) {
        let Some(ordering) = self.steady_in(conf) else {
            return; // stale frame from a configuration we left
        };
        let deliveries = ordering.on_sequenced_batch(msgs, stable_upto);
        let coordinator = ordering.is_coordinator();
        let have = ordering.have_upto();
        self.emit_all(ctx, deliveries);
        if self.config.eager_receipts && !self.config.deliver_agreed {
            // Every message of a steady-phase frame is newly contiguous
            // (asserted in on_sequenced), so this receipts each
            // sequenced message exactly once — one stability round
            // before its safe delivery.
            for m in msgs {
                let receipt = Delivery {
                    sender: m.sender,
                    payload: Rc::clone(&m.payload),
                    conf_id: conf,
                    seq: m.seq,
                    in_transitional: false,
                    last_in_batch: false,
                };
                self.emit(ctx, EvsEvent::Receipt(receipt));
            }
        }
        let designated = acker == Some(self.me);
        let step = self
            .vol
            .ack
            .on_sequenced(ctx.now(), have, designated, coordinator);
        self.ack_step(ctx, step);
    }

    fn on_join(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: NodeId,
        attempt: u64,
        proposal: BTreeSet<NodeId>,
    ) {
        let now = ctx.now();
        self.fold_probes(now, ctx.metrics());
        let regather = match &mut self.vol.phase {
            // A member that keeps announcing exactly our membership long
            // after we installed missed the install (e.g. restarted its
            // gather while the install was in flight): re-run the round
            // to bring it back in. A fresh install is exempt — the
            // straggler's install is usually still on the wire.
            Phase::Steady => {
                let members = self.vol.ordering.as_ref().map(|o| &o.conf().members[..]);
                !proposal.iter().eq(members.unwrap_or_default())
                    || now.saturating_since(self.vol.installed_at) > self.config.fail_timeout
            }
            Phase::Gather(gather) => {
                gather.record_join(from, attempt, proposal);
                // Receiving a join may itself have revealed a new
                // reachable peer; refresh our own proposal.
                if !self.vol.fd.reachable_is(&gather.proposal, now) {
                    self.start_gather(ctx);
                } else {
                    self.check_gather_convergence(ctx);
                }
                return;
            }
            Phase::Flush(flush) => {
                let flush_set: BTreeSet<NodeId> = flush.membership.iter().copied().collect();
                if proposal == flush_set {
                    // The sender is still gathering towards the
                    // membership we are flushing for; re-announce so it
                    // can converge (we stopped multicasting Joins when
                    // we left the gather phase).
                    let join = EvsWire::Join {
                        from: self.me,
                        attempt: flush.attempt,
                        proposal: flush_set,
                    };
                    self.send_wire_one(ctx, from, join);
                    return;
                }
                true
            }
        };
        if regather {
            // A fresh gather that has already heard the trigger Join.
            self.start_gather(ctx);
            if let Phase::Gather(g) = &mut self.vol.phase {
                g.record_join(from, attempt, proposal);
            }
            self.check_gather_convergence(ctx);
        }
    }

    fn on_flush_info(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: NodeId,
        membership: &Rc<[NodeId]>,
        rec: FlushInfoRec,
    ) {
        match &mut self.vol.phase {
            Phase::Flush(flush)
                if flush.membership[..] == membership[..] && flush.coordinator == self.me =>
            {
                flush.infos.insert(from, rec);
                self.coordinator_evaluate(ctx);
            }
            _ => {
                // We may not have converged yet; keep the report for
                // when we do. Latest report per peer wins — an older one
                // is for a membership that peer has already abandoned.
                self.vol
                    .early_infos
                    .insert(from, (Rc::clone(membership), rec));
            }
        }
    }

    /// Flush: sends `from_seq..=to_seq` of `old_conf` to every `needy`
    /// member.
    fn on_retrans_req(
        &mut self,
        ctx: &mut Ctx<'_>,
        old_conf: ConfId,
        from_seq: u64,
        to_seq: u64,
        needy: &[NodeId],
    ) {
        if !matches!(self.vol.phase, Phase::Flush(_)) {
            return;
        }
        let Some(ordering) = self
            .vol
            .ordering
            .as_ref()
            .filter(|o| o.conf().id == old_conf)
        else {
            return;
        };
        // One shared allocation for the whole fan-out: every needy
        // member's frame bumps a refcount.
        let msgs: Rc<[_]> = ordering.msgs_range(from_seq, to_seq).into();
        let burst = msgs.len() as u64 * needy.len() as u64;
        if burst > 0 {
            ctx.metrics().incr(metric!("evs.retransmitted"), burst);
            ctx.emit(ProtocolEvent::Retransmit {
                node: self.me.index(),
                count: burst,
            });
        }
        for &dst in needy {
            let msgs = Rc::clone(&msgs);
            self.send_wire_one(ctx, dst, EvsWire::Retrans { old_conf, msgs });
        }
    }

    fn on_retrans(&mut self, ctx: &mut Ctx<'_>, old_conf: ConfId, msgs: &[SequencedMsg]) {
        let Phase::Flush(flush) = &self.vol.phase else {
            return;
        };
        let Some(ordering) = self
            .vol
            .ordering
            .as_mut()
            .filter(|o| o.conf().id == old_conf)
        else {
            return;
        };
        ordering.apply_retrans(msgs);
        // Report the updated prefix to the coordinator.
        let membership: Rc<[NodeId]> = flush.membership.as_slice().into();
        let coordinator = flush.coordinator;
        let info = self.my_flush_info(membership);
        self.send_wire_one(ctx, coordinator, info);
    }

    fn on_install(&mut self, ctx: &mut Ctx<'_>, new_conf: &Configuration, groups: &[TransGroup]) {
        let Phase::Flush(flush) = &self.vol.phase else {
            return;
        };
        if flush.membership != new_conf.members || new_conf.id.seq <= self.max_conf_seq {
            return; // another membership's install, or a replay of an older one
        }
        self.do_install(ctx, new_conf.clone(), groups);
    }

    fn on_fd_tick(&mut self, ctx: &mut Ctx<'_>) {
        if !self.vol.joined || self.vol.down {
            self.fd_timer_armed = false;
            return;
        }
        ctx.send_self_after(self.config.hb_interval, FdTick);
        let now = ctx.now();
        // Probes first: one may name a node new to the universe.
        self.fold_probes(now, ctx.metrics());

        // Heartbeat the whole universe so detached/merged/new nodes can
        // find us. The destination list is cached across ticks and
        // invalidated when a new node appears.
        let me = self.me.index();
        let universe = &self.universe;
        let peers = self.universe_peers.get_or_insert_with(|| {
            (0u32..)
                .zip(universe)
                .filter(|&(i, &member)| member && i != me)
                .map(|(i, _)| NodeId::new(i))
                .collect()
        });
        // Sent even to no one: the probe also attaches this node's inbox,
        // so a node that knows no peer still hears a newcomer's.
        let probe = NetOp::Probe {
            src: self.me,
            dsts: Rc::clone(peers),
            size_bytes: HEADER_BYTES,
            inbox: self.probes.clone(),
        };
        ctx.send_now(self.fabric, probe);

        let fd = &self.vol.fd;
        match &self.vol.phase {
            Phase::Steady => match &self.vol.ordering {
                Some(o) if fd.reachable_is(&o.conf().members, now) => {
                    // Renew read leases only on fresh, direct evidence:
                    // every member heard within two heartbeat intervals
                    // (much tighter than fail_timeout, so renewal stops
                    // well before the membership protocol reacts).
                    let window = self.config.hb_interval * 2;
                    let conf = o.conf();
                    if self.config.lease_heartbeats
                        && fd.all_fresh_within(&conf.members, now, window)
                    {
                        let id = conf.id;
                        self.emit(ctx, EvsEvent::LeaseRenew(id));
                    }
                }
                _ => self.start_gather(ctx),
            },
            Phase::Gather(g) if fd.reachable_is(&g.proposal, now) => {
                // Nudge stragglers: re-announce our proposal.
                let (attempt, proposal) = (g.attempt, g.proposal.clone());
                self.announce_join(ctx, attempt, proposal);
            }
            Phase::Flush(f) if fd.reachable_is(&f.membership, now) => {}
            Phase::Gather(_) | Phase::Flush(_) => self.start_gather(ctx),
        }
    }

    fn on_ack_tick(&mut self, ctx: &mut Ctx<'_>) {
        let steady = !self.vol.down && matches!(self.vol.phase, Phase::Steady);
        let ordering = self.vol.ordering.as_ref().filter(|_| steady);
        let have = ordering.map(|o| o.have_upto());
        let coordinator = ordering.is_some_and(|o| o.is_coordinator());
        let step = self.vol.ack.on_tick(ctx.now(), have, coordinator);
        self.ack_step(ctx, step);
    }

    /// Starts a new incarnation: all volatile state goes, and the
    /// sequencer's rounds with it. The probes that landed under the old
    /// one are folded under it first.
    fn reset(&mut self, ctx: &mut Ctx<'_>) {
        self.fold_probes(ctx.now(), ctx.metrics());
        // The next gather bumps `attempt`, so `attempt + 1` is the new
        // incarnation's first (and stable) link epoch.
        self.vol = Volatile::new(self.me, &self.config, self.attempt + 1);
        self.seq.drop_rounds();
    }

    fn on_cmd(&mut self, ctx: &mut Ctx<'_>, cmd: EvsCmd) {
        match cmd {
            EvsCmd::Send {
                payload,
                size_bytes,
            } => {
                if !self.vol.down && self.vol.joined {
                    self.submit(ctx, payload, size_bytes);
                }
            }
            EvsCmd::JoinGroup => {
                self.reset(ctx);
                self.vol.joined = true;
                if !self.fd_timer_armed {
                    self.fd_timer_armed = true;
                    ctx.send_self_now(FdTick);
                }
                self.start_gather(ctx);
            }
            EvsCmd::LeaveGroup => self.reset(ctx),
            EvsCmd::Crash => {
                self.reset(ctx);
                self.vol.down = true;
            }
        }
    }

    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: Datagram) {
        if self.vol.down {
            return;
        }
        if let Some(frame) = dgram.payload.downcast_ref::<LinkFrame>() {
            if self.vol.joined {
                let outcome = self.vol.link.receive(dgram.src, frame);
                if outcome.ack_due && !self.vol.link_ack_armed {
                    self.vol.link_ack_armed = true;
                    ctx.send_self_after(LINK_ACK_DELAY, LinkAckTick);
                }
                for wire in outcome.deliver {
                    self.handle_wire(ctx, dgram.src, &wire);
                }
            }
            return;
        }
        match dgram.payload.downcast_ref::<EvsWire>() {
            Some(wire) => {
                if self.vol.joined {
                    self.handle_wire(ctx, dgram.src, wire);
                }
            }
            // Not group traffic: point-to-point application messages
            // (e.g. database transfers to joining replicas) are
            // forwarded to the application even when this daemon has
            // not joined the group.
            None => ctx.send_now(self.app, dgram),
        }
    }
}

impl Actor for EvsDaemon {
    fn handle(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
        let payload = match payload.try_downcast::<Datagram>() {
            Ok(dgram) => return self.on_datagram(ctx, dgram),
            Err(p) => p,
        };
        if payload.downcast_ref::<FdTick>().is_some() {
            return self.on_fd_tick(ctx);
        }
        if payload.downcast_ref::<AckTick>().is_some() {
            return self.on_ack_tick(ctx);
        }
        if payload.downcast_ref::<RetxTick>().is_some() {
            return self.on_retx_tick(ctx);
        }
        if payload.downcast_ref::<LinkAckTick>().is_some() {
            return self.on_link_ack_tick(ctx);
        }
        if payload.downcast_ref::<PackTick>().is_some() {
            if !self.vol.down && self.vol.joined {
                self.flush_pack(ctx);
            }
            return;
        }
        if payload.downcast_ref::<SeqPackTick>().is_some() {
            if self.seq.round_due(ctx.now()) {
                self.flush_seq_pack(ctx);
            }
            return;
        }
        match payload.downcast::<EvsCmd>() {
            Some(cmd) => self.on_cmd(ctx, cmd),
            None => panic!("EvsDaemon received an unknown payload type"),
        }
    }

    /// The step profile's rows: one per frame kind (a frame inside a
    /// reliable-link envelope is `link`), one per timer, and the
    /// application's commands.
    fn event_kind(&self, payload: &Payload) -> &'static str {
        if let Some(dgram) = payload.downcast_ref::<Datagram>() {
            return match dgram.payload.downcast_ref::<EvsWire>() {
                Some(wire) => wire.kind(),
                None if dgram.payload.is::<LinkFrame>() => "link",
                None => "app-datagram",
            };
        }
        if payload.is::<FdTick>() {
            "fd-tick"
        } else if payload.is::<AckTick>() {
            "ack-tick"
        } else if payload.is::<RetxTick>() {
            "retx-tick"
        } else if payload.is::<LinkAckTick>() {
            "link-ack-tick"
        } else if payload.is::<PackTick>() {
            "pack-tick"
        } else if payload.is::<SeqPackTick>() {
            "seq-pack-tick"
        } else {
            "cmd"
        }
    }

    /// Folds every probe that landed up to and including `now`: all
    /// their hand-offs would have run by the time the world paused.
    fn on_pause(&mut self, now: SimTime, metrics: &mut MetricsHub) {
        self.fold_probes(now + SimDuration::from_nanos(1), metrics);
    }
}

impl std::fmt::Debug for EvsDaemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvsDaemon")
            .field("me", &self.me)
            .field("joined", &self.vol.joined)
            .field("down", &self.vol.down)
            .field("conf", &self.vol.ordering.as_ref().map(|o| o.conf().id))
            .finish_non_exhaustive()
    }
}

//! The EVS daemon actor.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;

use todr_net::{Datagram, NetOp, NodeId};
use todr_sim::{
    metric, Actor, ActorId, ApplyHorizon, Ctx, Payload, ProtocolEvent, SimDuration, SimTime,
};

use crate::channel::{LinkFrame, LinkLayer};
use crate::fd::FailureDetector;
use crate::membership::{
    evaluate_flush, FlushDecision, FlushInfoRec, FlushState, GatherState, Phase,
};
use crate::order::ConfOrdering;
use crate::types::{ConfId, Configuration, Delivery, EvsEvent};
use crate::wire::{EvsWire, SequencedMsg, SubmitItem, TransGroup};

/// Tuning knobs of an [`EvsDaemon`].
#[derive(Debug, Clone)]
pub struct EvsConfig {
    /// All nodes this daemon initially knows about (it also learns new
    /// ones from their traffic). Heartbeats go to the whole universe so
    /// merged partitions and newly started nodes are discovered.
    pub universe: Vec<NodeId>,
    /// Heartbeat / failure-detector evaluation period.
    pub hb_interval: SimDuration,
    /// Silence threshold after which a peer is considered unreachable.
    pub fail_timeout: SimDuration,
    /// Acknowledgement batching delay: acks are sent at most once per
    /// this period per member, trading a small amount of safe-delivery
    /// latency for far fewer messages under load.
    pub ack_delay: SimDuration,
    /// Run every non-heartbeat frame through per-peer reliable (ARQ)
    /// channels, tolerating random message loss on the fabric. Off by
    /// default: with a loss-free fabric the links are already reliable
    /// FIFO and the extra acknowledgement traffic would only distort the
    /// performance experiments.
    pub reliable_links: bool,
    /// Deliver messages on sequencing (agreed/total order) instead of
    /// waiting for all-member stability (safe delivery). Only for
    /// applications that layer their own end-to-end guarantees on top
    /// (the COReL baseline); the replication engine requires safe
    /// delivery.
    pub deliver_agreed: bool,
    /// Maximum number of pending submissions packed into one `Submit`
    /// wire frame (the Spread message-packing optimization). `1` (the
    /// default) disables packing and reproduces the historical
    /// one-frame-per-message path bit for bit. Values above 1 buffer
    /// same-instant submissions and flush them as a single frame per
    /// sequencer round; each packed item is still sequenced and
    /// delivered individually, so agreed/safe semantics are unchanged.
    ///
    /// When packing is on, the coordinator also runs *sequencer rounds*:
    /// submissions arriving within one pack window (500 µs) of each
    /// other are multicast as a single packed `Sequenced` frame, so
    /// receivers ack (and the stability line advances) in matching
    /// jumps. A submission that follows a longer silence is multicast at
    /// once: holding it could not have filled a frame. While the node's
    /// application is busy for longer (see
    /// [`EvsDaemon::set_apply_horizon`]), a round runs until that
    /// backlog is one window from draining.
    pub max_pack: usize,
    /// Member count at which stability switches from all-ack (every
    /// member acks every `ack_delay`, O(n) fan-in per batch) to
    /// *cumulative acks*: the coordinator designates one rotating
    /// member per `Sequenced` frame to ack promptly, everyone else
    /// piggybacks receipt on their own `Submit` frames or falls back to
    /// a deadline-driven ack (after 1.2 ms unacknowledged). O(1)
    /// amortized ack messages per action at any cluster size, at the
    /// cost of a bounded extra stability lag. `0` enables it for every
    /// configuration; `usize::MAX` disables it. The default (16) keeps
    /// paper-scale clusters (≤ 14 replicas) on the historical all-ack
    /// path bit for bit.
    pub cumulative_ack_threshold: usize,
    /// Emit an [`EvsEvent::Receipt`] the moment a sequenced message is
    /// held locally (its agreed-order position is fixed), one stability
    /// round before the safe [`EvsEvent::Deliver`] for the same
    /// message. Receipts are only emitted in the steady phase of a
    /// regular configuration, and never in `deliver_agreed` mode
    /// (where delivery itself already happens at sequencing). Off by
    /// default: the engine's commutativity fast path opts in.
    pub eager_receipts: bool,
    /// Emit an [`EvsEvent::LeaseRenew`] on each failure-detector tick in
    /// the steady phase of a regular configuration, provided every
    /// member of that configuration was heard from within the last two
    /// heartbeat intervals. Off by default: the engine's read-lease
    /// machinery opts in. Renewals ride the existing heartbeat traffic —
    /// no extra wire frames are sent.
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
/// How long the coordinator holds a sequenced message to fill a packed
/// `Sequenced` frame (a frame that reaches `max_pack` goes out early; a
/// round opened while the node's apply queue holds `B` > 2 windows of
/// work runs `B` − 1 window instead), and the arrival gap below which
/// holding can pay: a `Submit` that finds no round open and comes at
/// least one window after the previous one is multicast at once,
/// because the stream it belongs to would not have put a second message
/// into its frame. Only consulted when `max_pack > 1`.
const PACK_WINDOW: SimDuration = SimDuration::from_micros(500);
/// Upper bound on how stale a member's acknowledgement may go under
/// cumulative-ack stability: if a member holds unacknowledged messages
/// this long, it acks even without being designated. This bounds the
/// safe-delivery lag regardless of the rotation period (members / frame
/// rate), which matters when few clients drive a large cluster.
const ACK_DEADLINE: SimDuration = SimDuration::from_micros(1200);

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
    /// Join the group: install a singleton configuration and start
    /// discovering peers.
    JoinGroup,
    /// Leave the group voluntarily (peers see a membership change after
    /// the failure timeout).
    LeaveGroup,
    /// Simulated process crash: wipe all volatile state and go silent.
    Crash,
    /// Recover after a crash and rejoin the group.
    Restart,
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
            EvsCmd::Restart => f.write_str("Restart"),
        }
    }
}

/// Timer: heartbeat + failure-detector evaluation.
struct FdTick;
/// Timer: flush the batched acknowledgement.
struct AckTick;
/// Timer: retransmit unacknowledged link frames.
struct RetxTick;
/// Timer: send owed link-layer acknowledgements.
struct LinkAckTick;
/// Timer: flush the submission pack buffer (same-instant — scheduled
/// with zero delay so every submission of the current event burst is
/// already buffered when it fires).
struct PackTick;
/// Timer: close the coordinator's sequencer round and multicast the
/// buffered sequenced messages as one packed frame. Ignored unless it
/// fires at the open round's deadline (the round it was armed for may
/// have been dropped by a view change or a crash).
struct SeqPackTick;

/// The Extended Virtual Synchrony daemon for one node.
///
/// Wire traffic flows through a [`todr_net::NetFabric`]; upcalls
/// ([`EvsEvent`]) go to the application actor given at construction.
/// See the crate docs for the provided guarantees.
pub struct EvsDaemon {
    me: NodeId,
    fabric: ActorId,
    app: ActorId,
    config: EvsConfig,
    /// Per [`NodeId::index`]: whether the node is in the universe (the
    /// configured one, plus every node heard from since).
    universe: Vec<bool>,

    joined: bool,
    down: bool,
    fd: FailureDetector,
    phase: Phase,
    ordering: Option<ConfOrdering>,
    attempt: u64,
    max_conf_seq: u64,
    pending_out: VecDeque<(Rc<dyn std::any::Any>, u32)>,
    /// Registered-but-unsent submissions awaiting packing into one
    /// `Submit` frame (at `config.max_pack` 1 each leaves at once). Every item
    /// here is also in the ordering's unsequenced map, so dropping the
    /// buffer on a view change loses nothing — the install path
    /// re-submits via `take_unsequenced`. A `PackTick` is pending
    /// whenever the buffer is non-empty.
    pack_buf: Vec<SubmitItem>,
    /// Coordinator-side sequencer round: messages already sequenced but
    /// held back to fill one packed `Sequenced` frame, each with the
    /// instant it was sequenced. Non-empty only while a round is open.
    /// The messages live in the ordering's map, so on a view change the
    /// buffer is simply dropped — the flush protocol retransmits them to
    /// any member that missed them.
    seq_buf: Vec<(todr_sim::SimTime, SequencedMsg)>,
    /// When the open sequencer round closes (a `SeqPackTick` is due
    /// then); `None` while no round is open. A round opens with the
    /// first held message and runs one `PACK_WINDOW`, or longer while
    /// the apply queue is backlogged; it is never extended once open. A
    /// frame that fills before then goes out early and leaves the round
    /// running.
    seq_round_ends: Option<todr_sim::SimTime>,
    /// Coordinator-side: when the previous `Submit` was sequenced. The
    /// gap to the next one is the load signal that decides whether a
    /// round is worth opening. Never reset: an old stamp only ever reads
    /// as "idle".
    last_submit_at: todr_sim::SimTime,
    /// When this node's application processor next goes idle: the
    /// signal that sets how long a round runs, read only when one opens.
    /// A daemon never given one reads zero backlog.
    apply_horizon: ApplyHorizon,
    /// FlushInfos that arrived before this daemon entered the matching
    /// flush phase. Keyed by sender and keeping only the latest report
    /// per peer, so the structure is bounded by the universe size —
    /// under repeated reconfiguration churn at large n the old
    /// append-only list retained one membership vector per stale
    /// report, O(n²) state.
    early_infos: BTreeMap<NodeId, (Rc<[NodeId]>, FlushInfoRec)>,
    ack_scheduled: bool,
    last_acked: u64,
    /// Whether the current configuration runs cumulative-ack stability
    /// (derived from `config.cumulative_ack_threshold` at install).
    cumulative: bool,
    /// Cumulative acks: whether `have_upto > last_acked`, and since when
    /// (drives the `ACK_DEADLINE` fallback).
    has_unacked: bool,
    first_unacked_at: todr_sim::SimTime,
    /// Cumulative acks: when the last `Sequenced` frame arrived; a quiet
    /// link (no frame for `ack_delay`) flushes the pending ack so the
    /// tail of a burst stabilizes promptly.
    last_seq_rx_at: todr_sim::SimTime,
    fd_timer_armed: bool,
    /// Cached heartbeat destination list; invalidated when a new node
    /// joins the universe. Rebuilding this `Vec` every `hb_interval` per
    /// daemon was measurable at large n.
    universe_peers: Option<Rc<[NodeId]>>,
    installed_at: todr_sim::SimTime,
    link: LinkLayer,
    retx_armed: bool,
    link_ack_armed: bool,
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
        let fd = FailureDetector::new(me, config.fail_timeout);
        EvsDaemon {
            me,
            fabric,
            app,
            config,
            universe,
            joined: false,
            down: false,
            fd,
            phase: Phase::Steady,
            ordering: None,
            attempt: 0,
            max_conf_seq: 0,
            pending_out: VecDeque::new(),
            pack_buf: Vec::new(),
            seq_buf: Vec::new(),
            seq_round_ends: None,
            last_submit_at: todr_sim::SimTime::ZERO,
            apply_horizon: ApplyHorizon::default(),
            early_infos: BTreeMap::new(),
            ack_scheduled: false,
            last_acked: 0,
            cumulative: false,
            has_unacked: false,
            first_unacked_at: todr_sim::SimTime::ZERO,
            last_seq_rx_at: todr_sim::SimTime::ZERO,
            fd_timer_armed: false,
            universe_peers: None,
            installed_at: todr_sim::SimTime::ZERO,
            link: LinkLayer::new(0),
            retx_armed: false,
            link_ack_armed: false,
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
        self.ordering.as_ref().map(|o| o.conf())
    }

    /// Whether the daemon is operating inside an installed configuration
    /// (no membership change in progress).
    pub fn is_steady(&self) -> bool {
        matches!(self.phase, Phase::Steady) && self.ordering.is_some()
    }

    /// Human-readable membership phase, for diagnostics.
    pub fn phase_name(&self) -> String {
        match &self.phase {
            Phase::Steady => "Steady".to_string(),
            Phase::Gather(g) => format!(
                "Gather(attempt {}, proposal {:?}, seen {:?})",
                g.attempt,
                g.proposal,
                g.seen.keys().collect::<Vec<_>>()
            ),
            Phase::Flush(f) => format!(
                "Flush(membership {:?}, coord {}, infos {:?})",
                f.membership,
                f.coordinator,
                f.infos.keys().collect::<Vec<_>>()
            ),
        }
    }

    // ------------------------------------------------------------
    // sending helpers
    // ------------------------------------------------------------

    fn send_wire_to(&mut self, ctx: &mut Ctx<'_>, dsts: Rc<[NodeId]>, wire: EvsWire) {
        if dsts.is_empty() {
            return;
        }
        let size = wire.wire_size();
        // Heartbeats are idempotent probes and stay outside the reliable
        // channels (retransmitting them to dead peers would be pure
        // waste); so does loopback, which the fabric never drops.
        let reliable = self.config.reliable_links && !matches!(wire, EvsWire::Heartbeat { .. });
        if !reliable {
            ctx.send_now(
                self.fabric,
                NetOp::multicast_shared(self.me, dsts, Rc::new(wire), size),
            );
            return;
        }
        let wire = Rc::new(wire);
        for &dst in dsts.iter() {
            if dst == self.me {
                ctx.send_now(
                    self.fabric,
                    NetOp::unicast(
                        self.me,
                        dst,
                        Rc::clone(&wire) as Rc<dyn std::any::Any>,
                        size,
                    ),
                );
                continue;
            }
            let frame = self.link.send(dst, Rc::clone(&wire), size);
            ctx.send_now(
                self.fabric,
                NetOp::unicast(self.me, dst, Rc::new(frame), size + 16),
            );
        }
        if !self.retx_armed {
            self.retx_armed = true;
            ctx.send_self_after(LINK_RTO, RetxTick);
        }
    }

    fn on_retx_tick(&mut self, ctx: &mut Ctx<'_>) {
        self.retx_armed = false;
        if self.down || !self.joined || !self.link.has_unacked() {
            return;
        }
        // Retransmit only to currently reachable peers; queues for
        // unreachable ones stay paused (see LinkLayer::retransmissions)
        // and resume when connectivity returns.
        let reachable = self.fd.reachable(ctx.now());
        let retx = self.link.retransmissions(&|p| reachable.contains(&p));
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
        self.retx_armed = true;
        let delay = if sent_any {
            LINK_RTO
        } else {
            // Everything pending is behind a partition: poll lazily.
            self.config.hb_interval
        };
        ctx.send_self_after(delay, RetxTick);
    }

    fn on_link_ack_tick(&mut self, ctx: &mut Ctx<'_>) {
        self.link_ack_armed = false;
        if self.down || !self.joined {
            return;
        }
        for peer in self.link.ack_pending_peers() {
            let frame = self.link.ack_frame(peer);
            ctx.send_now(
                self.fabric,
                NetOp::unicast(self.me, peer, Rc::new(frame), 32),
            );
        }
    }

    fn arm_link_ack(&mut self, ctx: &mut Ctx<'_>) {
        if !self.link_ack_armed {
            self.link_ack_armed = true;
            ctx.send_self_after(LINK_ACK_DELAY, LinkAckTick);
        }
    }

    fn send_wire_one(&mut self, ctx: &mut Ctx<'_>, dst: NodeId, wire: EvsWire) {
        self.send_wire_to(ctx, Rc::new([dst]), wire);
    }

    fn member_set(&self) -> BTreeSet<NodeId> {
        self.ordering
            .as_ref()
            .map(|o| o.conf().members.iter().copied().collect())
            .unwrap_or_default()
    }

    fn emit(&mut self, ctx: &mut Ctx<'_>, event: EvsEvent) {
        match &event {
            EvsEvent::Deliver(d) => {
                if d.in_transitional {
                    ctx.metrics().incr(metric!("evs.delivered_trans"), 1);
                } else {
                    ctx.metrics().incr(metric!("evs.delivered_safe"), 1);
                }
                ctx.emit(ProtocolEvent::Delivered {
                    node: self.me.index(),
                    conf_seq: d.conf_id.seq,
                    coordinator: d.conf_id.coordinator.index(),
                    seq: d.seq,
                    sender: d.sender.index(),
                    in_transitional: d.in_transitional,
                });
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

    // ------------------------------------------------------------
    // membership
    // ------------------------------------------------------------

    fn start_gather(&mut self, ctx: &mut Ctx<'_>) {
        self.attempt += 1;
        ctx.metrics().incr(metric!("evs.gathers_started"), 1);
        let proposal = self.fd.reachable(ctx.now());
        let mut gather = GatherState::new(self.attempt, self.me, proposal.clone());
        // Carry forward what peers already announced: a restart must not
        // forget Joins that arrived moments ago, or two nodes can each
        // wait for the other to speak again.
        if let Phase::Gather(old) = &self.phase {
            for (&from, (attempt, prop)) in &old.seen {
                if from != self.me {
                    gather.record_join(from, *attempt, prop.clone());
                }
            }
        }
        let peers: Rc<[NodeId]> = proposal
            .iter()
            .copied()
            .filter(|&n| n != self.me)
            .collect::<Vec<_>>()
            .into();
        self.phase = Phase::Gather(gather);
        self.send_wire_to(
            ctx,
            peers,
            EvsWire::Join {
                from: self.me,
                attempt: self.attempt,
                proposal,
            },
        );
        self.check_gather_convergence(ctx);
    }

    fn check_gather_convergence(&mut self, ctx: &mut Ctx<'_>) {
        let Phase::Gather(gather) = &self.phase else {
            return;
        };
        if !gather.converged() {
            return;
        }
        let membership: Vec<NodeId> = gather.proposal.iter().copied().collect();
        let attempt = gather.attempt;
        let mut flush = FlushState::new(attempt, membership.clone());
        // Adopt any flush reports that raced ahead of our own phase
        // change.
        self.early_infos.retain(|&from, (m, rec)| {
            if m[..] == membership[..] {
                flush.infos.insert(from, rec.clone());
                false
            } else {
                true
            }
        });
        let coordinator = flush.coordinator;
        ctx.metrics().incr(metric!("evs.flush_rounds"), 1);
        self.phase = Phase::Flush(flush);
        let info = self.my_flush_info(membership.into());
        self.send_wire_one(ctx, coordinator, info);
    }

    fn my_flush_info(&self, membership: Rc<[NodeId]>) -> EvsWire {
        let (old_conf, have_upto, stable_upto) = match &self.ordering {
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
        let Phase::Flush(flush) = &mut self.phase else {
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
                let reqs: Vec<(NodeId, EvsWire)> = plans
                    .into_iter()
                    .map(|p| {
                        (
                            p.holder,
                            EvsWire::RetransReq {
                                old_conf: p.old_conf,
                                from_seq: p.from_seq,
                                to_seq: p.to_seq,
                                needy: p.needy,
                            },
                        )
                    })
                    .collect();
                for (holder, req) in reqs {
                    self.send_wire_one(ctx, holder, req);
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
        // Buffered-for-packing items are still in the old ordering's
        // unsequenced map; `take_unsequenced` below re-submits them, so
        // the pack buffer must not also send them. The coordinator's
        // open sequencer round is likewise moot: its messages are in
        // the old ordering's map and the flush protocol retransmitted
        // them to whoever was missing them.
        self.drop_rounds();
        // Transitional delivery for the configuration we are leaving.
        if let Some(ordering) = &mut self.ordering {
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
            for d in trans {
                self.emit(ctx, EvsEvent::Deliver(d));
            }
            // Own messages never sequenced in the old configuration get
            // re-submitted (at-least-once across view changes; consumers
            // deduplicate by application id).
            for (i, item) in unsequenced.into_iter().enumerate() {
                self.pending_out.insert(i, item);
            }
        }

        self.max_conf_seq = self.max_conf_seq.max(new_conf.id.seq);
        self.cumulative = new_conf.members.len() >= self.config.cumulative_ack_threshold;
        self.ordering = Some(ConfOrdering::with_mode(
            new_conf.clone(),
            self.me,
            self.config.deliver_agreed,
        ));
        self.phase = Phase::Steady;
        self.last_acked = 0;
        self.has_unacked = false;
        self.first_unacked_at = ctx.now();
        self.last_seq_rx_at = ctx.now();
        self.installed_at = ctx.now();
        self.emit(ctx, EvsEvent::RegConf(new_conf));

        // Drain buffered submissions into the fresh configuration.
        let pending: Vec<_> = self.pending_out.drain(..).collect();
        for (payload, size) in pending {
            self.submit(ctx, payload, size);
        }
    }

    // ------------------------------------------------------------
    // ordering
    // ------------------------------------------------------------

    fn submit(&mut self, ctx: &mut Ctx<'_>, payload: Rc<dyn std::any::Any>, size: u32) {
        if !matches!(self.phase, Phase::Steady) || self.ordering.is_none() {
            self.pending_out.push_back((payload, size));
            return;
        }
        ctx.metrics().incr(metric!("evs.submitted"), 1);
        let ordering = self.ordering.as_mut().expect("checked above");
        let local_seq = ordering.register_submission(Rc::clone(&payload), size);
        let item = SubmitItem {
            local_seq,
            payload,
            size,
        };
        let opens = self.pack_buf.is_empty();
        self.pack_buf.push(item);
        // Unpacked (`max_pack` 1), every submission fills its frame here
        // and no `PackTick` is armed.
        if self.pack_buf.len() >= self.config.max_pack {
            self.flush_pack(ctx);
        } else if opens {
            // Zero-delay self-message: it drains after every event of
            // the current same-instant burst (per-target FIFO), so all
            // submissions issued in this instant pack together.
            ctx.send_self_now(PackTick);
        }
    }

    /// Sends the buffered submissions as packed `Submit` frames, at most
    /// `max_pack` items per frame.
    fn flush_pack(&mut self, ctx: &mut Ctx<'_>) {
        if self.pack_buf.is_empty() {
            return;
        }
        if !matches!(self.phase, Phase::Steady) {
            // A membership change started under us: leave the items in
            // the ordering's unsequenced map — `do_install` clears this
            // buffer and re-submits them in the next configuration.
            return;
        }
        let Some(ordering) = &self.ordering else {
            return;
        };
        let conf = ordering.conf().id;
        let coordinator = ordering.coordinator();
        let max = self.config.max_pack.max(1);
        while !self.pack_buf.is_empty() {
            let take = self.pack_buf.len().min(max);
            let items: Rc<[SubmitItem]> = self.pack_buf.drain(..take).collect();
            ctx.metrics().incr(metric!("evs.frames_packed"), 1);
            ctx.metrics()
                .record_value(metric!("evs.actions_per_frame"), items.len() as u64);
            let ack_upto = self.take_piggyback_ack();
            self.send_wire_one(
                ctx,
                coordinator,
                EvsWire::Submit {
                    conf,
                    sender: self.me,
                    ack_upto,
                    items,
                },
            );
        }
    }

    /// Cumulative acks: receipt to piggyback on an outgoing `Submit`.
    /// The frame reaches the coordinator anyway, so this retires any
    /// pending ack duty for free.
    fn take_piggyback_ack(&mut self) -> u64 {
        if !self.cumulative {
            return 0;
        }
        let Some(ordering) = &self.ordering else {
            return 0;
        };
        if ordering.is_coordinator() {
            return 0; // the coordinator self-acks on sequencing
        }
        let have = ordering.have_upto();
        if have > self.last_acked {
            self.last_acked = have;
            self.has_unacked = false;
            have
        } else {
            0
        }
    }

    fn on_pack_tick(&mut self, ctx: &mut Ctx<'_>) {
        if self.down || !self.joined {
            return;
        }
        self.flush_pack(ctx);
    }

    /// Closes the coordinator's sequencer round: multicasts the buffered
    /// sequenced messages as packed `Sequenced` frames, at most
    /// `max_pack` messages per frame.
    fn flush_seq_pack(&mut self, ctx: &mut Ctx<'_>) {
        if self.seq_buf.is_empty() {
            return;
        }
        let steady = matches!(self.phase, Phase::Steady);
        let coordinating = self.ordering.as_ref().is_some_and(|o| o.is_coordinator());
        if !steady || !coordinating {
            // A view change started under us. The buffered messages are
            // in the ordering's map, so the flush protocol retransmits
            // them to every member that missed them; the round itself
            // is moot.
            self.seq_buf.clear();
            return;
        }
        let ordering = self.ordering.as_ref().expect("coordinating");
        let conf = ordering.conf().id;
        let stable_upto = ordering.announced_stable();
        let members = ordering.members_shared();
        let max = self.config.max_pack.max(1);
        let now = ctx.now();
        while !self.seq_buf.is_empty() {
            let take = self.seq_buf.len().min(max);
            let msgs: Rc<[_]> = self
                .seq_buf
                .drain(..take)
                .map(|(since, msg)| {
                    ctx.metrics()
                        .observe(metric!("evs.round_hold"), now.saturating_since(since));
                    msg
                })
                .collect();
            ctx.metrics().incr(metric!("evs.frames_packed"), 1);
            ctx.metrics().incr(metric!("evs.sequencer_rounds"), 1);
            ctx.metrics()
                .record_value(metric!("evs.actions_per_frame"), msgs.len() as u64);
            let acker = if self.cumulative {
                self.ordering.as_mut().expect("coordinating").next_acker()
            } else {
                None
            };
            self.send_wire_to(
                ctx,
                Rc::clone(&members),
                EvsWire::Sequenced {
                    conf,
                    stable_upto,
                    acker,
                    msgs,
                },
            );
        }
    }

    fn on_seq_pack_tick(&mut self, ctx: &mut Ctx<'_>) {
        if self.seq_round_ends == Some(ctx.now()) {
            self.seq_round_ends = None;
            self.flush_seq_pack(ctx);
        }
    }

    /// Drops both packing buffers and closes the sequencer round, so a
    /// timer armed for it cannot cut short a round of the next
    /// configuration or incarnation.
    fn drop_rounds(&mut self) {
        self.pack_buf.clear();
        self.seq_buf.clear();
        self.seq_round_ends = None;
    }

    fn maybe_schedule_ack(&mut self, ctx: &mut Ctx<'_>) {
        if !self.ack_scheduled {
            self.ack_scheduled = true;
            ctx.send_self_after(self.config.ack_delay, AckTick);
        }
    }

    fn announce_stable(&mut self, ctx: &mut Ctx<'_>, upto: u64) {
        let Some(ordering) = &self.ordering else {
            return;
        };
        let conf = ordering.conf().id;
        let members = ordering.members_shared();
        self.send_wire_to(ctx, members, EvsWire::Stable { conf, upto });
    }

    /// Coordinator self-acknowledgement: its own receipt counts without a
    /// network round trip or batching delay.
    fn coordinator_self_ack(&mut self, ctx: &mut Ctx<'_>) {
        let Some(ordering) = &mut self.ordering else {
            return;
        };
        if !ordering.is_coordinator() {
            return;
        }
        let have = ordering.have_upto();
        let me = self.me;
        if let Some(stable) = ordering.on_ack(me, have) {
            self.announce_stable(ctx, stable);
        }
    }

    // ------------------------------------------------------------
    // frame handling
    // ------------------------------------------------------------

    /// Records that a frame from `node` arrived now, adding it to the
    /// universe if it is new there. Every frame passes here, and all but
    /// a joiner's first find it a member already.
    fn heard_from(&mut self, node: NodeId, now: SimTime) {
        if mark_member(&mut self.universe, node) {
            self.universe_peers = None;
        }
        self.fd.heard_from(node, now);
    }

    fn handle_wire(&mut self, ctx: &mut Ctx<'_>, src: NodeId, wire: &EvsWire) {
        self.heard_from(src, ctx.now());
        if let Some(origin) = wire.origin() {
            self.heard_from(origin, ctx.now());
        }

        match wire {
            EvsWire::Heartbeat { .. } => {}

            EvsWire::Submit {
                conf,
                sender,
                ack_upto,
                items,
            } => {
                let steady = matches!(self.phase, Phase::Steady);
                let mut announce = None;
                if let Some(ordering) = &mut self.ordering {
                    if steady && ordering.conf().id == *conf && ordering.is_coordinator() {
                        if *ack_upto > 0 {
                            // Piggybacked receipt: process before
                            // sequencing so the freshest stability line
                            // rides out on the resulting frame.
                            announce = ordering.on_ack(*sender, *ack_upto);
                        }
                        let msgs = ordering.sequence_batch(*sender, items);
                        let n = msgs.len() as u64;
                        ctx.metrics().incr(metric!("evs.sequenced"), n);
                        // Sequencer round: hold the messages up to one
                        // pack window so submissions from many senders
                        // ride one packed multicast (and receivers
                        // deliver them as one burst) — unless the stream
                        // is too sparse for a second submission to
                        // arrive inside it, or frames carry one message
                        // (`max_pack` 1), when the round closes at once.
                        let now = ctx.now();
                        let idle = now.saturating_since(self.last_submit_at) >= PACK_WINDOW;
                        self.last_submit_at = now;
                        self.seq_buf.extend(msgs.into_iter().map(|m| (now, m)));
                        let packs = self.config.max_pack > 1;
                        if packs && self.seq_round_ends.is_none() && !idle {
                            // Past two windows of queued apply work, run
                            // until the queue is one window from
                            // draining: the frame lands as it frees, so
                            // the hold is free and the burst shares one
                            // overhead.
                            let backlog = self.apply_horizon.backlog(now);
                            let hold = PACK_WINDOW.max(backlog.saturating_sub(PACK_WINDOW));
                            self.seq_round_ends = Some(now + hold);
                            ctx.send_self_after(hold, SeqPackTick);
                        }
                        if self.seq_round_ends.is_none()
                            || self.seq_buf.len() >= self.config.max_pack
                        {
                            self.flush_seq_pack(ctx);
                        }
                    }
                }
                if let Some(stable) = announce {
                    self.announce_stable(ctx, stable);
                }
            }

            EvsWire::Sequenced {
                conf,
                stable_upto,
                acker,
                msgs,
            } => {
                let steady = matches!(self.phase, Phase::Steady);
                let Some(ordering) = &mut self.ordering else {
                    return;
                };
                if !steady || ordering.conf().id != *conf {
                    return; // stale frame from a configuration we left
                }
                let deliveries = ordering.on_sequenced_batch(msgs, *stable_upto);
                let is_coord = ordering.is_coordinator();
                let have = ordering.have_upto();
                for d in deliveries {
                    self.emit(ctx, EvsEvent::Deliver(d));
                }
                if self.config.eager_receipts && !self.config.deliver_agreed {
                    // Every message of a steady-phase frame is newly
                    // contiguous (asserted in on_sequenced), so this
                    // receipts each sequenced message exactly once —
                    // one stability round before its safe delivery.
                    for m in msgs.iter() {
                        self.emit(
                            ctx,
                            EvsEvent::Receipt(Delivery {
                                sender: m.sender,
                                payload: Rc::clone(&m.payload),
                                conf_id: *conf,
                                seq: m.seq,
                                in_transitional: false,
                            }),
                        );
                    }
                }
                self.last_seq_rx_at = ctx.now();
                if is_coord {
                    self.coordinator_self_ack(ctx);
                } else if self.cumulative {
                    if have > self.last_acked && !self.has_unacked {
                        self.has_unacked = true;
                        self.first_unacked_at = ctx.now();
                    }
                    if *acker == Some(self.me) {
                        // Designated this frame: ack promptly so the
                        // coordinator's low-water mark keeps moving.
                        self.send_current_ack(ctx);
                    } else {
                        self.maybe_schedule_ack(ctx);
                    }
                } else {
                    self.maybe_schedule_ack(ctx);
                }
            }

            EvsWire::Ack { conf, from, upto } => {
                let steady = matches!(self.phase, Phase::Steady);
                let Some(ordering) = &mut self.ordering else {
                    return;
                };
                if !steady || ordering.conf().id != *conf || !ordering.is_coordinator() {
                    return;
                }
                if let Some(stable) = ordering.on_ack(*from, *upto) {
                    self.announce_stable(ctx, stable);
                }
            }

            EvsWire::Stable { conf, upto } => {
                let steady = matches!(self.phase, Phase::Steady);
                let Some(ordering) = &mut self.ordering else {
                    return;
                };
                if !steady || ordering.conf().id != *conf {
                    return;
                }
                let deliveries = ordering.on_stable(*upto);
                for d in deliveries {
                    self.emit(ctx, EvsEvent::Deliver(d));
                }
            }

            EvsWire::Join {
                from,
                attempt,
                proposal,
            } => self.handle_join(ctx, *from, *attempt, proposal.clone()),

            EvsWire::FlushInfo {
                from,
                membership,
                old_conf,
                have_upto,
                stable_upto,
                max_conf_seq,
                ..
            } => {
                let rec = FlushInfoRec {
                    old_conf: *old_conf,
                    have_upto: *have_upto,
                    stable_upto: *stable_upto,
                    max_conf_seq: *max_conf_seq,
                };
                match &mut self.phase {
                    Phase::Flush(flush)
                        if flush.membership[..] == membership[..]
                            && flush.coordinator == self.me =>
                    {
                        flush.infos.insert(*from, rec);
                        self.coordinator_evaluate(ctx);
                    }
                    _ => {
                        // We may not have converged yet; keep the report
                        // for when we do. Latest report per peer wins —
                        // an older one is for a membership that peer has
                        // already abandoned.
                        self.early_infos.insert(*from, (Rc::clone(membership), rec));
                    }
                }
            }

            EvsWire::RetransReq {
                old_conf,
                from_seq,
                to_seq,
                needy,
                ..
            } => {
                if !matches!(self.phase, Phase::Flush(_)) {
                    return;
                }
                let Some(ordering) = &self.ordering else {
                    return;
                };
                if ordering.conf().id != *old_conf {
                    return;
                }
                // One shared allocation for the whole fan-out: every
                // needy member's frame bumps a refcount.
                let msgs: Rc<[_]> = ordering.msgs_range(*from_seq, *to_seq).into();
                let burst = msgs.len() as u64 * needy.len() as u64;
                if burst > 0 {
                    ctx.metrics().incr(metric!("evs.retransmitted"), burst);
                    ctx.emit(ProtocolEvent::Retransmit {
                        node: self.me.index(),
                        count: burst,
                    });
                }
                for &dst in needy {
                    self.send_wire_one(
                        ctx,
                        dst,
                        EvsWire::Retrans {
                            old_conf: *old_conf,
                            msgs: Rc::clone(&msgs),
                        },
                    );
                }
            }

            EvsWire::Retrans { old_conf, msgs, .. } => {
                let Phase::Flush(flush) = &self.phase else {
                    return;
                };
                let Some(ordering) = &mut self.ordering else {
                    return;
                };
                if ordering.conf().id != *old_conf {
                    return;
                }
                ordering.apply_retrans(msgs);
                // Report the updated prefix to the coordinator.
                let membership: Rc<[NodeId]> = flush.membership.as_slice().into();
                let coordinator = flush.coordinator;
                let info = self.my_flush_info(membership);
                self.send_wire_one(ctx, coordinator, info);
            }

            EvsWire::Install {
                new_conf, groups, ..
            } => {
                let Phase::Flush(flush) = &self.phase else {
                    return;
                };
                if flush.membership != new_conf.members {
                    return;
                }
                if new_conf.id.seq <= self.max_conf_seq {
                    return; // replay of an older install
                }
                let new_conf = new_conf.clone();
                self.do_install(ctx, new_conf, groups);
            }
        }
    }

    fn handle_join(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: NodeId,
        attempt: u64,
        proposal: BTreeSet<NodeId>,
    ) {
        match &mut self.phase {
            Phase::Steady => {
                let members = self.member_set();
                if proposal != members {
                    self.start_gather(ctx);
                    // Record the trigger join into the fresh gather.
                    if let Phase::Gather(g) = &mut self.phase {
                        g.record_join(from, attempt, proposal);
                    }
                    self.check_gather_convergence(ctx);
                } else if ctx.now().saturating_since(self.installed_at) > self.config.fail_timeout {
                    // A member keeps announcing exactly our membership
                    // long after we installed: it missed the install
                    // (e.g. restarted its gather while the install was in
                    // flight). Re-run the round to bring it back in. A
                    // fresh install is exempt — the straggler's install
                    // is usually still on the wire.
                    self.start_gather(ctx);
                    if let Phase::Gather(g) = &mut self.phase {
                        g.record_join(from, attempt, proposal);
                    }
                    self.check_gather_convergence(ctx);
                }
            }
            Phase::Gather(gather) => {
                gather.record_join(from, attempt, proposal);
                // Receiving a join may itself have revealed a new
                // reachable peer; refresh our own proposal.
                let reachable = self.fd.reachable(ctx.now());
                let proposal_changed = {
                    let Phase::Gather(g) = &self.phase else {
                        unreachable!()
                    };
                    g.proposal != reachable
                };
                if proposal_changed {
                    self.start_gather(ctx);
                } else {
                    self.check_gather_convergence(ctx);
                }
            }
            Phase::Flush(flush) => {
                let flush_set: BTreeSet<NodeId> = flush.membership.iter().copied().collect();
                if proposal != flush_set {
                    self.start_gather(ctx);
                    if let Phase::Gather(g) = &mut self.phase {
                        g.record_join(from, attempt, proposal);
                    }
                    self.check_gather_convergence(ctx);
                } else {
                    // The sender is still gathering towards the same
                    // membership we are flushing for; re-announce so it
                    // can converge (we stopped multicasting Joins when we
                    // left the gather phase).
                    let my_attempt = flush.attempt;
                    let flush_proposal = flush_set;
                    self.send_wire_one(
                        ctx,
                        from,
                        EvsWire::Join {
                            from: self.me,
                            attempt: my_attempt,
                            proposal: flush_proposal,
                        },
                    );
                }
            }
        }
    }

    // ------------------------------------------------------------
    // timers & commands
    // ------------------------------------------------------------

    fn on_fd_tick(&mut self, ctx: &mut Ctx<'_>) {
        if !self.joined || self.down {
            self.fd_timer_armed = false;
            return;
        }
        ctx.send_self_after(self.config.hb_interval, FdTick);

        // Heartbeat the whole universe so detached/merged/new nodes can
        // find us. The destination list is cached across ticks and
        // invalidated when a new node appears.
        let peers = match &self.universe_peers {
            Some(p) => Rc::clone(p),
            None => {
                let p: Rc<[NodeId]> = (0u32..)
                    .zip(&self.universe)
                    .filter(|&(i, &member)| member && i != self.me.index())
                    .map(|(i, _)| NodeId::new(i))
                    .collect::<Vec<_>>()
                    .into();
                self.universe_peers = Some(Rc::clone(&p));
                p
            }
        };
        self.send_wire_to(ctx, peers, EvsWire::Heartbeat { from: self.me });

        let reachable = self.fd.reachable(ctx.now());
        match &self.phase {
            Phase::Steady => {
                let members = self.member_set();
                if self.ordering.is_none() || reachable != members {
                    self.start_gather(ctx);
                } else if self.config.lease_heartbeats {
                    // Renew read leases only on fresh, direct evidence:
                    // every member heard within two heartbeat intervals
                    // (much tighter than fail_timeout, so renewal stops
                    // well before the membership protocol reacts).
                    let window = self.config.hb_interval * 2;
                    let conf_id = self.ordering.as_ref().map(|o| o.conf().id);
                    if let Some(conf_id) = conf_id {
                        if self.fd.all_fresh_within(&members, ctx.now(), window) {
                            self.emit(ctx, EvsEvent::LeaseRenew(conf_id));
                        }
                    }
                }
            }
            Phase::Gather(g) => {
                if g.proposal != reachable {
                    self.start_gather(ctx);
                } else {
                    // Nudge stragglers: re-announce our proposal.
                    let attempt = g.attempt;
                    let proposal = g.proposal.clone();
                    let peers: Rc<[NodeId]> = proposal
                        .iter()
                        .copied()
                        .filter(|&n| n != self.me)
                        .collect::<Vec<_>>()
                        .into();
                    self.send_wire_to(
                        ctx,
                        peers,
                        EvsWire::Join {
                            from: self.me,
                            attempt,
                            proposal,
                        },
                    );
                }
            }
            Phase::Flush(f) => {
                let flush_set: BTreeSet<NodeId> = f.membership.iter().copied().collect();
                if reachable != flush_set {
                    self.start_gather(ctx);
                }
            }
        }
    }

    fn on_ack_tick(&mut self, ctx: &mut Ctx<'_>) {
        self.ack_scheduled = false;
        if self.down || !matches!(self.phase, Phase::Steady) {
            return;
        }
        let Some(ordering) = &self.ordering else {
            return;
        };
        let have = ordering.have_upto();
        if have <= self.last_acked {
            self.has_unacked = false;
            return;
        }
        if !self.cumulative {
            // All-ack stability: every member acks every batch window.
            self.send_current_ack(ctx);
            return;
        }
        // Cumulative acks: only speak up when the ack has gone stale
        // (nothing retired it for a full deadline) or the link has gone
        // quiet (no sequenced traffic to piggyback on or be designated
        // by); otherwise stay silent and re-check one batch window out.
        let now = ctx.now();
        let stale = now.saturating_since(self.first_unacked_at) >= ACK_DEADLINE;
        let quiet = now.saturating_since(self.last_seq_rx_at) >= self.config.ack_delay;
        if stale || quiet {
            self.send_current_ack(ctx);
        } else {
            self.ack_scheduled = true;
            ctx.send_self_after(self.config.ack_delay, AckTick);
        }
    }

    /// Sends an `Ack` for everything received, if anything is pending.
    fn send_current_ack(&mut self, ctx: &mut Ctx<'_>) {
        let Some(ordering) = &self.ordering else {
            return;
        };
        let have = ordering.have_upto();
        if have <= self.last_acked {
            self.has_unacked = false;
            return;
        }
        self.last_acked = have;
        self.has_unacked = false;
        ctx.metrics().incr(metric!("evs.acks_sent"), 1);
        let conf = ordering.conf().id;
        let coordinator = ordering.coordinator();
        self.send_wire_one(
            ctx,
            coordinator,
            EvsWire::Ack {
                conf,
                from: self.me,
                upto: have,
            },
        );
    }

    fn on_cmd(&mut self, ctx: &mut Ctx<'_>, cmd: EvsCmd) {
        match cmd {
            EvsCmd::Send {
                payload,
                size_bytes,
            } => {
                if self.down || !self.joined {
                    return;
                }
                self.submit(ctx, payload, size_bytes);
            }
            EvsCmd::JoinGroup | EvsCmd::Restart => {
                self.down = false;
                self.joined = true;
                self.ordering = None;
                self.phase = Phase::Steady;
                self.fd.reset();
                self.early_infos.clear();
                self.drop_rounds();
                self.cumulative = false;
                self.has_unacked = false;
                // Fresh link incarnation: the attempt counter is bumped
                // by the gather below, so `attempt + 1` is this
                // incarnation's first (and stable) epoch.
                self.link.restart(self.attempt + 1);
                if !self.fd_timer_armed {
                    self.fd_timer_armed = true;
                    ctx.send_self_now(FdTick);
                }
                self.start_gather(ctx);
            }
            EvsCmd::LeaveGroup => {
                self.joined = false;
                self.ordering = None;
                self.phase = Phase::Steady;
                self.pending_out.clear();
                self.drop_rounds();
                self.early_infos.clear();
            }
            EvsCmd::Crash => {
                self.down = true;
                self.joined = false;
                self.ordering = None;
                self.phase = Phase::Steady;
                self.fd.reset();
                self.pending_out.clear();
                self.drop_rounds();
                self.early_infos.clear();
                self.ack_scheduled = false;
                self.last_acked = 0;
                self.cumulative = false;
                self.has_unacked = false;
                self.link.restart(self.attempt + 1);
                self.retx_armed = false;
                self.link_ack_armed = false;
                // `attempt` deliberately survives: it acts as an
                // incarnation number so post-recovery Joins are not
                // mistaken for stale ones.
            }
        }
    }
}

impl Actor for EvsDaemon {
    fn handle(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
        let payload = match payload.try_downcast::<Datagram>() {
            Ok(dgram) => {
                if self.down {
                    return;
                }
                if let Some(frame) = dgram.payload.downcast_ref::<LinkFrame>() {
                    if self.joined {
                        let outcome = self.link.receive(dgram.src, frame);
                        if outcome.ack_due {
                            self.arm_link_ack(ctx);
                        }
                        for wire in outcome.deliver {
                            self.handle_wire(ctx, dgram.src, &wire);
                        }
                    }
                    return;
                }
                match dgram.payload.downcast_ref::<EvsWire>() {
                    Some(wire) => {
                        if self.joined {
                            self.handle_wire(ctx, dgram.src, wire);
                        }
                    }
                    None => {
                        // Not group traffic: point-to-point application
                        // messages (e.g. database transfers to joining
                        // replicas) are forwarded to the application even
                        // when this daemon has not joined the group.
                        ctx.send_now(self.app, dgram);
                    }
                }
                return;
            }
            Err(p) => p,
        };
        let payload = match payload.try_downcast::<FdTick>() {
            Ok(_) => {
                self.on_fd_tick(ctx);
                return;
            }
            Err(p) => p,
        };
        let payload = match payload.try_downcast::<AckTick>() {
            Ok(_) => {
                self.on_ack_tick(ctx);
                return;
            }
            Err(p) => p,
        };
        let payload = match payload.try_downcast::<RetxTick>() {
            Ok(_) => {
                self.on_retx_tick(ctx);
                return;
            }
            Err(p) => p,
        };
        let payload = match payload.try_downcast::<LinkAckTick>() {
            Ok(_) => {
                self.on_link_ack_tick(ctx);
                return;
            }
            Err(p) => p,
        };
        let payload = match payload.try_downcast::<PackTick>() {
            Ok(_) => {
                self.on_pack_tick(ctx);
                return;
            }
            Err(p) => p,
        };
        let payload = match payload.try_downcast::<SeqPackTick>() {
            Ok(_) => {
                self.on_seq_pack_tick(ctx);
                return;
            }
            Err(p) => p,
        };
        match payload.downcast::<EvsCmd>() {
            Some(cmd) => self.on_cmd(ctx, cmd),
            None => panic!("EvsDaemon received an unknown payload type"),
        }
    }
}

impl std::fmt::Debug for EvsDaemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvsDaemon")
            .field("me", &self.me)
            .field("joined", &self.joined)
            .field("down", &self.down)
            .field("conf", &self.ordering.as_ref().map(|o| o.conf().id))
            .finish_non_exhaustive()
    }
}

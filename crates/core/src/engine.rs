//! The replication engine actor: the paper's Appendix A state machine,
//! extended with online reconfiguration (§5.1) and the application
//! semantics of §6.

use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use todr_db::keys::row_fingerprint;
use todr_db::{Database, Op, Query, QueryResult, ReadConsistency};
use todr_evs::{ConfId, Configuration, EvsCmd, EvsEvent};
use todr_net::{Datagram, NetOp, NodeId};
use todr_sim::{
    metric, Actor, ActorId, ApplyHorizon, CpuMeter, Ctx, EventColor, Footprint, Payload,
    ProtocolEvent, ReadTier, SimDuration, SimTime,
};
use todr_storage::{DiskDone, DiskOp, StorageHandle, SyncToken};

use crate::action::{Action, ActionId, ActionKind, Body, ClientId};
use crate::exchange::{GreenPath, Round, StateMsg};
use crate::fastpath::{FastPath, FastReply, Receipt};
use crate::knowledge::{Accept, GcAt, Knowledge};
use crate::lease::{At, LeaseRead, ReadLease};
use crate::persist::{self, RecoveryError};
use crate::quorum::PrimComponent;
use crate::semantics::{take_reply, CommitPoint, PendingReply, QuerySemantics, UpdateReplyPolicy};
use crate::types::{
    ClientReply, ClientRequest, EngineConfig, EngineCtl, GreenBase, StorageFault, TransferWire,
    CPU_PER_ACTION,
};

/// The engine's protocol state (Figure 4 of the paper, plus the
/// bootstrap and crash states).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineState {
    /// Crashed; volatile state lost.
    Down,
    /// Online-join bootstrap: transferring the database from a
    /// representative (§5.1, CodeSegment 5.2).
    Joining,
    /// Member of a non-primary component.
    NonPrim,
    /// Member of the primary component, regular configuration.
    RegPrim,
    /// Member of the primary component, transitional configuration.
    TransPrim,
    /// Exchanging State messages after a view change.
    ExchangeStates,
    /// Exchanging missing actions.
    ExchangeActions,
    /// Attempting to install a primary component (CPC round).
    Construct,
    /// Interrupted CPC round; as far as this server knows nobody
    /// installed.
    No,
    /// Interrupted CPC round; somebody may have installed (the paper's
    /// `Un`decided state — the `?` transition leaves the server
    /// vulnerable).
    Un,
}

/// Messages the engine multicasts through the EVS layer.
#[derive(Debug, Clone)]
pub(crate) enum EngineMsg {
    /// A replicated action. Shared: every replica retains the body that
    /// arrived in the multicast instead of a copy of its own.
    Action(Rc<Body>),
    /// Exchange-phase state message.
    State(StateMsg),
    /// Create Primary Component vote.
    Cpc { server: NodeId, conf: ConfId },
    /// Exchange-phase retransmission. `green_pos` is the action's global
    /// green position if it is green at the sender.
    Retrans {
        action: Rc<Body>,
        green_pos: Option<u64>,
    },
    /// Exchange-phase green-state snapshot (fallback when the
    /// most-updated member lacks bodies — see [`crate::exchange`]),
    /// with the sender's green lines.
    GreenSnapshot {
        base: GreenBase,
        green_lines: BTreeMap<NodeId, u64>,
    },
    /// End-of-retransmission marker.
    RetransDone { server: NodeId },
}

/// What to do when a forced write completes.
enum AfterSync {
    /// Submit these actions to the group.
    Submit(Vec<Rc<Body>>),
    /// Send our State message (exchange phase) — dropped if the
    /// configuration changed while the write was in flight.
    SendState { epoch: u64 },
    /// Send our CPC vote.
    SendCpc { epoch: u64 },
    /// The exchange ended, in a new primary or not: release buffered
    /// client requests.
    ExchangeEnded { epoch: u64 },
    /// Join bootstrap persisted: join the replicated group.
    JoinedReady,
    /// The green line `line` is durable: advertise it to the rest of
    /// the server set.
    AdvertiseGreenLine { line: u64 },
    /// Nothing further.
    Noop,
}

/// Timer for retrying the join bootstrap against another representative.
struct JoinRetry;

/// The fixed per-delivery-burst component of [`CPU_PER_ACTION`] (frame
/// handling, scheduling, buffer bookkeeping). The first green action of
/// a same-instant delivery burst pays the full `CPU_PER_ACTION`; the
/// rest of the burst pays only the marginal
/// `CPU_PER_ACTION - CPU_BURST_OVERHEAD`. Without packing every burst is
/// a single action and the model reduces exactly to the historical
/// per-action charge.
const CPU_BURST_OVERHEAD: SimDuration = SimDuration::from_micros(230);
/// Modelled size of a CPC message in bytes.
const CPC_MSG_BYTES: u32 = 64;

/// Everything a crash loses. [`ReplicationEngine::crash`] assigns
/// `Volatile::default()`, so a field added here cannot outlive an
/// incarnation by being forgotten in a reset list.
#[derive(Default)]
struct Volatile {
    /// Out-of-order arrivals waiting for their per-creator gap to fill
    /// (see `mark_red`).
    stashed: BTreeMap<ActionId, Rc<Body>>,
    /// Servers whose `PERSISTENT_LEAVE` this engine has marked green in
    /// its current run: a departed server never re-enters a view, so the
    /// set only matters for the one install that races a leave going
    /// green mid-installation.
    departed_servers: BTreeSet<NodeId>,
    /// The green database with the red suffix replayed over it, built on
    /// demand and dropped whenever a colour changes.
    dirty_db: Option<Database>,

    /// The current configuration's exchange round.
    round: Option<Round>,

    // ----- clients -----
    pending_replies: BTreeMap<ActionId, PendingReply>,
    buffered_reqs: Vec<ClientRequest>,
    parked_strict: Vec<ClientRequest>,

    // ----- disk -----
    pending_syncs: BTreeMap<SyncToken, AfterSync>,
    /// Submissions created while a submit forced-write was already in
    /// flight; they ride the *next* forced write as one batch (pipelined
    /// group commit — one sync request per burst instead of one per
    /// action).
    submit_queue: Vec<Rc<Body>>,
    submit_inflight: bool,
    /// Actions whose forced write completed after a configuration
    /// change had already moved us out of `RegPrim`/`NonPrim`. Sending
    /// them mid-exchange would interleave an action into the membership
    /// protocol's agreed sequence (a `Construct`-state member could
    /// receive it before the full CPC set); they are durable in the
    /// own-action queue and go out at the next install, where total order
    /// guarantees every receiver has already delivered all CPCs.
    deferred_submits: Vec<Rc<Body>>,

    // ----- misc -----
    cpu: CpuMeter,
    join_targets: Vec<NodeId>,
    /// Joiners we have already announced with a PERSISTENT_JOIN that has
    /// not turned green yet (suppresses duplicate announcements while
    /// the joiner retries its bootstrap).
    pending_joins: BTreeSet<NodeId>,
    /// Green marks were made, or a base adopted, since the last
    /// `GreenLineAdvance` (see `announce_green_line`).
    green_unannounced: bool,
    /// The last green line this incarnation advertised or a created
    /// action carried ([`Knowledge::gc_step`]).
    advertised: u64,
}

/// The replication engine for one server.
///
/// Wire traffic goes through the node's [`todr_evs::EvsDaemon`] (group
/// messages) and [`todr_net::NetFabric`] (join transfers); durability
/// through a [`todr_storage::DiskActor`] (which charges the virtual
/// forced-write latency) and a pluggable [`StorageHandle`] backend
/// (which holds the bytes — the deterministic sim store by default, or
/// a real file-backed store). Clients talk to the engine with
/// [`ClientRequest`] events; the harness controls it with
/// [`EngineCtl`].
///
/// Its state has three lifetimes, one type each: `Knowledge` is
/// mirrored on stable storage and reloaded by recovery, `Volatile` is
/// what a crash loses, and the fields named here deliberately span
/// incarnations. The read lease and the fast path's quorums are
/// volatile too, but each is its own type, present only while its
/// feature is on; a crash revokes the one and clears the other.
pub struct ReplicationEngine {
    cfg: EngineConfig,
    evs: ActorId,
    disk: ActorId,
    fabric: ActorId,
    state: EngineState,
    store: StorageHandle,
    /// Bumped on every configuration change *and* every crash, so a
    /// forced-write completion from before either is recognisably stale.
    conf_epoch: u64,
    /// Never reused, so a completion from a previous incarnation cannot
    /// match a token this one is waiting on.
    next_sync_token: u64,
    /// See [`ReplicationEngine::red_line`]; not reset by a crash.
    red_line: u64,
    departed: bool,
    /// Why the last [`EngineCtl::Recover`] fail-stopped, if it did.
    /// Cleared by a successful recovery.
    recovery_error: Option<RecoveryError>,
    /// Where every CPU charge publishes when this node's processor next
    /// goes idle (see [`ReplicationEngine::set_apply_horizon`]).
    horizon: ApplyHorizon,
    k: Knowledge,
    v: Volatile,
    /// `Some` iff `cfg.read_leases`.
    lease: Option<ReadLease>,
    /// `Some` iff `cfg.fast_path`.
    fast: Option<FastPath>,
}

/// The one row a bounded read reads, with its fingerprint: computed once
/// per read for both the lease check and the `ReadServed` record.
fn get_row(query: &Query) -> Option<(&str, &str, u64)> {
    match query {
        Query::Get { table, key } => Some((table, key, row_fingerprint(table, key))),
        _ => None,
    }
}

/// Figure 4's transition relation, plus the crash edge into `Down` from
/// anywhere, recovery and the join bootstrap out of it, and the no-op
/// edge from a state to itself.
fn legal_transition(from: EngineState, to: EngineState) -> bool {
    use EngineState::*;
    from == to
        || matches!(
            (from, to),
            (_, Down)
                | (Down, NonPrim | Joining)
                | (Joining, NonPrim)
                | (NonPrim | TransPrim | No | Un, ExchangeStates)
                | (ExchangeStates, ExchangeActions | NonPrim)
                | (ExchangeActions, Construct | NonPrim)
                | (Construct, RegPrim | No)
                | (No, Un)
                | (RegPrim | Un, TransPrim)
        )
}

impl ReplicationEngine {
    /// Creates an engine on the default deterministic sim storage
    /// backend. `evs` is the node's group-communication daemon, `disk`
    /// its disk actor, `fabric` the shared network fabric.
    pub fn new(cfg: EngineConfig, evs: ActorId, disk: ActorId, fabric: ActorId) -> Self {
        ReplicationEngine::with_storage(cfg, evs, disk, fabric, StorageHandle::sim())
    }

    /// Creates an engine on an explicit storage backend (see
    /// [`StorageHandle`]). The `DiskActor` still charges virtual-time
    /// forced-write latency; `store` decides where the bytes live.
    pub fn with_storage(
        cfg: EngineConfig,
        evs: ActorId,
        disk: ActorId,
        fabric: ActorId,
        store: StorageHandle,
    ) -> Self {
        let state = if cfg.initial_member {
            EngineState::NonPrim
        } else {
            EngineState::Down
        };
        let mut engine = ReplicationEngine {
            k: Knowledge::new(cfg.me, cfg.server_set.iter().copied()),
            v: Volatile::default(),
            lease: cfg.read_leases.then(ReadLease::default),
            fast: cfg.fast_path.then(|| FastPath::new(&cfg)),
            cfg,
            evs,
            disk,
            fabric,
            state,
            store,
            conf_epoch: 0,
            next_sync_token: 0,
            red_line: 0,
            departed: false,
            recovery_error: None,
            horizon: ApplyHorizon::default(),
        };
        if engine.state == EngineState::NonPrim {
            engine.k.save_records(&mut engine.store);
        }
        engine
    }

    /// Shares this node's processor horizon with its EVS daemon, whose
    /// sequencer rounds stretch while the apply queue is backlogged. An
    /// engine nobody reads keeps a private handle.
    pub fn set_apply_horizon(&mut self, horizon: ApplyHorizon) {
        self.horizon = horizon;
    }

    /// The one place the protocol state changes.
    fn set_state(&mut self, to: EngineState) {
        debug_assert!(
            legal_transition(self.state, to),
            "illegal engine transition {:?} -> {to:?} at {}",
            self.state,
            self.cfg.me
        );
        self.state = to;
    }

    // ====== inspection (tests, checkers, experiment harness) ======

    /// Current protocol state.
    pub fn state(&self) -> EngineState {
        self.state
    }

    /// Why the last recovery attempt fail-stopped, if it did. `None`
    /// after a successful (or never-attempted) recovery.
    pub fn recovery_error(&self) -> Option<&RecoveryError> {
        self.recovery_error.as_ref()
    }

    /// The replica's stable storage (staged writes included until a
    /// crash drops them) and its backend's [`StorageHandle::io_stats`].
    pub fn storage(&self) -> &StorageHandle {
        &self.store
    }

    /// Number of green (globally ordered, applied) actions.
    pub fn green_count(&self) -> u64 {
        self.k.green_count
    }

    /// Actions this server has ever marked red, across incarnations: its
    /// red acceptances, each announced by a Red mark or folded into the
    /// same step's Green (see `mark_green`).
    pub fn red_line(&self) -> u64 {
        self.red_line
    }

    /// Green action ids from `green_floor()` onward, in global order.
    pub fn green_tail(&self) -> &[ActionId] {
        &self.k.green_tail
    }

    /// Lowest green position this server still holds a body for.
    pub fn green_floor(&self) -> u64 {
        self.k.green_floor()
    }

    /// Red (locally ordered only) action ids, in `ActionId` order.
    pub fn red_ids(&self) -> Vec<ActionId> {
        self.k.red_bodies().map(|b| b.id).collect()
    }

    /// Content digest of the green database.
    pub fn db_digest(&self) -> u64 {
        self.k.db.digest()
    }

    /// Client requests this incarnation accepted and has not answered:
    /// updates short of their commit point here, strict queries parked
    /// behind its own updates, requests buffered during an exchange.
    pub fn owed_replies(&self) -> usize {
        let v = &self.v;
        v.pending_replies.len() + v.parked_strict.len() + v.buffered_reqs.len()
    }

    /// Read-only view of the green database.
    pub fn db(&self) -> &Database {
        &self.k.db
    }

    /// The current replica set (grows/shrinks with joins/leaves).
    pub fn server_set(&self) -> &BTreeSet<NodeId> {
        &self.k.server_set
    }

    /// The last known primary component.
    pub fn prim_component(&self) -> &PrimComponent {
        &self.k.prim_component
    }

    /// The white line: every action at a green position below it is
    /// known green everywhere and can be discarded (§3).
    pub fn white_line(&self) -> u64 {
        self.k.white_line()
    }

    /// Number of action bodies currently retained in memory.
    pub fn retained_bodies(&self) -> usize {
        self.k.retained()
    }

    /// Whether this server currently holds a valid vulnerability record
    /// (it voted for a primary installation whose outcome it cannot yet
    /// prove — §5).
    pub fn is_vulnerable(&self) -> bool {
        self.k.vulnerable.valid
    }

    /// Discards **white** actions (§3: "these actions can be discarded
    /// since no other server will need them subsequently") and compacts
    /// the persisted log to a checkpoint of the current green state,
    /// staged until the next forced write (a crash before it reverts to
    /// the uncompacted log). Returns the number of bodies discarded.
    pub fn checkpoint(&mut self) -> u64 {
        self.k.checkpoint(&mut self.store)
    }

    // ====== plumbing ======

    fn send_group(&mut self, ctx: &mut Ctx<'_>, msg: EngineMsg, size_bytes: u32) {
        ctx.send_now(
            self.evs,
            EvsCmd::Send {
                payload: Rc::new(msg),
                size_bytes,
            },
        );
    }

    fn send_transfer(
        &mut self,
        ctx: &mut Ctx<'_>,
        dsts: impl Into<Rc<[NodeId]>>,
        msg: TransferWire,
    ) {
        // Transfer messages ride the fabric directly (outside the
        // group), addressed to the peers' EVS daemons which forward
        // non-group traffic to their engines.
        let size = match &msg {
            TransferWire::JoinRequest { .. } => 64,
            TransferWire::Snapshot { base, .. } => base.size_bytes(),
            TransferWire::FastAck { .. } | TransferWire::GreenLine { .. } => 32,
        };
        ctx.send_now(
            self.fabric,
            NetOp::multicast_shared(self.cfg.me, dsts.into(), Rc::new(msg), size),
        );
    }

    fn request_sync(&mut self, ctx: &mut Ctx<'_>, after: AfterSync) {
        self.next_sync_token += 1;
        let token = SyncToken(self.next_sync_token);
        self.v.pending_syncs.insert(token, after);
        ctx.metrics().incr(metric!("engine.syncs_requested"), 1);
        let me = ctx.self_id();
        ctx.send_now(
            self.disk,
            DiskOp::Sync {
                token,
                reply_to: me,
            },
        );
    }

    /// Refreshes the retained-body observability after the retained
    /// bodies changed: a gauge with the current level and a histogram
    /// sample so the peak survives in the export.
    fn note_retained(&mut self, ctx: &mut Ctx<'_>) {
        let n = self.k.retained() as u64;
        ctx.metrics().set_gauge(metric!("core.retained_bodies"), n);
        ctx.metrics()
            .record_value(metric!("core.retained_bodies_level"), n);
    }

    /// Charges `cost` of CPU arriving now and publishes the new idle
    /// instant; returns when this job completes.
    fn charge_cpu(&mut self, ctx: &Ctx<'_>, cost: SimDuration) -> SimTime {
        let done_at = self.v.cpu.charge(ctx.now(), cost);
        self.horizon.set(self.v.cpu.busy_until());
        done_at
    }

    fn reply(&mut self, ctx: &mut Ctx<'_>, at: SimTime, to: ActorId, reply: ClientReply) {
        ctx.metrics().incr(metric!("engine.replies_sent"), 1);
        ctx.send_at(at.max(ctx.now()), to, reply);
    }

    /// Tells `p`'s client that its action `id` committed at `point`, with
    /// `answer`'s result at its instant, after recording the commit. At
    /// green or a fast quorum a write's `UpdateAcked` is the oracle's
    /// linearization point; a red reply is deliberately none (the
    /// relaxed §6 contract: a lease read elsewhere need not see it yet).
    /// `action` is `None` only for a fast commit whose body is gone.
    fn reply_committed(
        &mut self,
        ctx: &mut Ctx<'_>,
        point: CommitPoint,
        id: ActionId,
        action: Option<&Action>,
        p: PendingReply,
        answer: (SimTime, Option<QueryResult>),
    ) {
        let latency = ctx.now().saturating_since(p.submitted_at);
        if point == CommitPoint::Fast {
            ctx.metrics().incr(metric!("engine.fast_commits"), 1);
            ctx.metrics()
                .observe(metric!("engine.fast_commit_latency"), latency);
            ctx.emit(ProtocolEvent::FastCommit {
                node: self.cfg.me.index(),
                action_seq: id.index,
            });
        } else {
            ctx.metrics()
                .observe(metric!("engine.ordering_latency"), latency);
        }
        ctx.emit(ProtocolEvent::ClientCommit {
            client: action.map_or(0, |a| a.client.0 as u64),
            latency_nanos: latency.as_nanos(),
        });
        // Noop updates (query-only reads on the ordered path) are not
        // writes.
        let acked = point != CommitPoint::Red && self.lease.is_some();
        if let Some(a) = action.filter(|a| acked && a.update().is_some_and(|u| *u != Op::Noop)) {
            ctx.emit(ProtocolEvent::UpdateAcked {
                node: self.cfg.me.index(),
                creator: a.id.server.index(),
                action_seq: a.id.index,
            });
        }
        let green = point == CommitPoint::Green;
        if green && p.read_tier == Some(ReadConsistency::Linearizable) {
            if let Some((table, key, key_fp)) = p.query.as_ref().and_then(get_row) {
                ctx.emit(ProtocolEvent::ReadServed {
                    node: self.cfg.me.index(),
                    key_fp,
                    tier: ReadTier::OrderedLinearizable,
                    version: self.k.db.row_version(table, key),
                });
            }
        }
        let (at, result) = answer;
        let reply = ClientReply::Committed {
            request: p.request,
            action: id,
            result,
            submitted_at: p.submitted_at,
            green_seq: if green { self.k.green_count } else { 0 },
        };
        self.reply(ctx, at, p.reply_to, reply);
    }

    fn reject(&mut self, ctx: &mut Ctx<'_>, req: &ClientRequest, reason: &'static str) {
        let reply = ClientReply::Rejected {
            request: req.request,
            reason,
        };
        self.reply(ctx, ctx.now(), req.reply_to, reply);
    }

    /// Answers a query-only request. `charge` is the CPU the answer
    /// costs (`None`: the weak and dirty semantics answer at once).
    fn answer(
        &mut self,
        ctx: &mut Ctx<'_>,
        req: &ClientRequest,
        result: QueryResult,
        dirty: bool,
        charge: Option<SimDuration>,
    ) {
        let at = match charge {
            Some(cost) => self.charge_cpu(ctx, cost),
            None => ctx.now(),
        };
        let reply = ClientReply::QueryAnswer {
            request: req.request,
            result,
            dirty,
        };
        self.reply(ctx, at, req.reply_to, reply);
    }

    // ====== coloring (Appendix A, CodeSegment A.14) ======

    /// `MarkRed`: accept the action if it is the creator's next, log it,
    /// maintain the red cut. Out-of-order arrivals (possible during an
    /// exchange, when the green retransmission stream, the red
    /// retransmission streams and freshly submitted actions interleave
    /// in the agreed order) are stashed and re-tried as the creator's
    /// cut advances; by the install barrier every member has reached the
    /// exchange plan's targets, so stashes drain identically everywhere.
    /// Returns whether the action was newly accepted. `announce: false`
    /// leaves the action's own Red mark to the caller's Green; stashed
    /// successors are always announced.
    fn mark_red(&mut self, ctx: &mut Ctx<'_>, action: &Rc<Body>, announce: bool) -> bool {
        if !self.accept_red(ctx, action, announce) {
            return false;
        }
        let server = action.id.server;
        loop {
            let index = self.k.red_cut(server) + 1;
            let Some(next) = self.v.stashed.remove(&ActionId { server, index }) else {
                return true;
            };
            let ok = self.accept_red(ctx, &next, true);
            debug_assert!(ok, "stashed action no longer contiguous");
        }
    }

    fn accept_red(&mut self, ctx: &mut Ctx<'_>, action: &Rc<Body>, announce: bool) -> bool {
        let id = action.id;
        match self.k.accept_staged(&mut self.store, action) {
            Accept::New => {}
            Accept::Duplicate => return false,
            Accept::Ahead => {
                // Keep it until the gap is filled by a retransmission
                // stream.
                self.v.stashed.insert(id, Rc::clone(action));
                return false;
            }
        }
        self.note_retained(ctx);
        self.red_line += 1;
        if announce {
            self.note_ordered(ctx, id, EventColor::Red);
        } else {
            ctx.metrics().incr(metric!("engine.marked_red"), 1);
        }
        self.v.dirty_db = None;
        if let Some(p) = take_reply(&mut self.v.pending_replies, id, CommitPoint::Red) {
            let result = p.query.as_ref().map(|q| self.dirty_view().query(q));
            let answer = (self.charge_cpu(ctx, CPU_PER_ACTION), result);
            self.reply_committed(ctx, CommitPoint::Red, id, Some(action), p, answer);
        }
        true
    }

    /// Counts and reports that `id` took `color` (red, yellow or green).
    fn note_ordered(&self, ctx: &mut Ctx<'_>, id: ActionId, color: EventColor) {
        let marked = match color {
            EventColor::Red => metric!("engine.marked_red"),
            EventColor::Yellow => metric!("engine.marked_yellow"),
            _ => metric!("engine.marked_green"),
        };
        ctx.metrics().incr(marked, 1);
        ctx.emit(ProtocolEvent::ActionOrdered {
            node: self.cfg.me.index(),
            creator: id.server.index(),
            action_seq: id.index,
            color,
        });
    }

    /// `MarkYellow`: accept as red and remember in the yellow set.
    fn mark_yellow(&mut self, ctx: &mut Ctx<'_>, action: &Rc<Body>) {
        self.mark_red(ctx, action, true);
        if self.k.mark_yellow(&mut self.store, action.id) {
            self.note_ordered(ctx, action.id, EventColor::Yellow);
        }
    }

    /// `MarkGreen`: place the action on top of the green order and apply
    /// it to the database.
    ///
    /// One event per fact: a red acceptance made here turns green in this
    /// same step, so its Green stands for both marks and no Red is
    /// logged — unless this server is the action's origin, whose Red is
    /// the action's receipt (the `OnRed` commit point), or a stashed
    /// successor's Red would fall between the two.
    fn mark_green(&mut self, ctx: &mut Ctx<'_>, action: &Rc<Body>) {
        let id = action.id;
        let next = ActionId {
            server: id.server,
            index: id.index + 1,
        };
        let fold = id.server != self.cfg.me && !self.v.stashed.contains_key(&next);
        self.mark_red(ctx, action, !fold);
        if !self.k.mark_green(action) {
            return; // already green
        }
        self.store.append_shared(action.green_entry());
        self.note_ordered(ctx, id, EventColor::Green);
        self.v.green_unannounced = true;
        self.v.dirty_db = None;
        // `Knowledge::mark_green` applied an `App` body to the database;
        // a green join or leave changes the membership (CodeSegment 5.1).
        match &action.kind {
            ActionKind::App { .. } => {}
            ActionKind::PersistentJoin { joiner } => {
                self.v.pending_joins.remove(joiner);
                if self.k.join_green(&mut self.store, *joiner) && id.server == self.cfg.me {
                    self.send_snapshot_to(ctx, *joiner); // the representative ships the database
                }
            }
            ActionKind::PersistentLeave { leaver } => {
                if self.k.leave_green(&mut self.store, *leaver) {
                    self.v.departed_servers.insert(*leaver);
                    if *leaver == self.cfg.me {
                        // "if (Action.leave_id == serverId) exit"
                        self.departed = true;
                        self.set_state(EngineState::Down);
                        ctx.send_now(self.evs, EvsCmd::LeaveGroup);
                    }
                }
            }
        }
        let regular_prim = self.state == EngineState::RegPrim;
        self.gc_step(ctx, GcAt::Green { regular_prim });
        // Charge the CPU (a same-instant burst shares its overhead); the
        // waiting client (origin server only) hears once that is done.
        let full = CPU_PER_ACTION;
        let marginal = full.saturating_sub(CPU_BURST_OVERHEAD);
        let (done_at, ended) = self.v.cpu.charge_burst(ctx.now(), full, marginal);
        self.horizon.set(self.v.cpu.busy_until());
        if let Some(len @ 2..) = ended {
            ctx.metrics()
                .record_value(metric!("engine.green_burst"), len);
        }
        if let Some(fast) = &mut self.fast {
            fast.on_green(id);
        }
        if let Some(p) = take_reply(&mut self.v.pending_replies, id, CommitPoint::Green) {
            let answer = (done_at, p.query.as_ref().map(|q| self.k.db.query(q)));
            self.reply_committed(ctx, CommitPoint::Green, id, Some(action), p, answer);
        }
        // Lease reads parked behind a receipted write re-check their
        // conflict now that another action went green.
        if let Some(lease) = &mut self.lease {
            let at = At(ctx.now(), self.state, self.conf_epoch);
            for req in lease.unpark(&self.k, at) {
                self.serve_query(ctx, req);
            }
        }
        self.release_strict(ctx);
    }

    /// Announces the green line if it moved since the last
    /// announcement: one [`ProtocolEvent::GreenLineAdvance`] closes the
    /// marks made since, the `k` marks sitting at the `k` positions up
    /// to the line, and skips the positions a base adopted since holds.
    /// Runs at the end of each delivery batch and of every other event,
    /// before a base jump and before the engine stops, so no instant
    /// ends with a mark unannounced.
    fn announce_green_line(&mut self, ctx: &mut Ctx<'_>) {
        if std::mem::take(&mut self.v.green_unannounced) {
            ctx.emit(ProtocolEvent::GreenLineAdvance {
                node: self.cfg.me.index(),
                green: self.k.green_count,
            });
        }
    }

    /// One white-line GC step ([`Knowledge::gc_step`]) and its I/O. An
    /// advertised line goes out durable, as an action's piggybacked line
    /// does, so no peer prunes a body this server could still need after
    /// a crash.
    fn gc_step(&mut self, ctx: &mut Ctx<'_>, at: GcAt) {
        let gc = (self.cfg.checkpoint_interval, &mut self.v.advertised);
        let (checkpointed, advertise) = self.k.gc_step(&mut self.store, gc, at);
        if checkpointed.is_some() {
            self.note_retained(ctx);
        }
        if let Some(line) = advertise {
            self.request_sync(ctx, AfterSync::AdvertiseGreenLine { line });
        }
    }

    fn send_snapshot_to(&mut self, ctx: &mut Ctx<'_>, joiner: NodeId) {
        let snapshot = TransferWire::Snapshot {
            base: self.k.green_base(),
            green_lines: self.k.green_lines.clone(),
            server_set: self.k.server_set.clone(),
            prim_component: self.k.prim_component.clone(),
        };
        self.send_transfer(ctx, [joiner], snapshot);
    }

    fn dirty_view(&mut self) -> &Database {
        self.v.dirty_db.get_or_insert_with(|| self.k.dirty_db())
    }

    // ====== client requests ======

    fn on_client_request(&mut self, ctx: &mut Ctx<'_>, req: ClientRequest) {
        // Injected bug (oracle self-test): a "lease" that is never
        // granted, renewed, or revoked — linearizable reads answered
        // straight from the local green database in any live state.
        // Correct while the node is inside the primary component;
        // becomes a stale read the moment it is partitioned away and
        // the surviving primary commits past it.
        #[cfg(feature = "chaos-mutations")]
        if let (Some(query), true) = (
            &req.query,
            self.cfg.chaos == Some(crate::types::ChaosMutation::ServeReadWithoutLease)
                && req.read_consistency == Some(ReadConsistency::Linearizable)
                && matches!(req.update, Op::Noop)
                && !matches!(self.state, EngineState::Down | EngineState::Joining),
        ) {
            ctx.metrics().incr(metric!("engine.lease_reads"), 1);
            let tier = ReadTier::LeaseLinearizable;
            return self.answer_read(ctx, &req, query, get_row(query), tier);
        }
        match self.state {
            EngineState::Down | EngineState::Joining => {
                self.reject(ctx, &req, "server unavailable")
            }
            EngineState::RegPrim | EngineState::NonPrim => {
                if matches!(req.update, Op::Noop) && req.query.is_some() {
                    return self.serve_query(ctx, req);
                }
                self.generate_client_action(ctx, req, None)
            }
            // All other states buffer (Appendix A: "Client req: buffer
            // request").
            _ => self.v.buffered_reqs.push(req),
        }
    }

    /// Creates, persists, and submits an action for a client request —
    /// the Appendix A NonPrim/RegPrim "Client req" path. `read_tier` is
    /// `Some` when the action is a consistency-tiered read routed
    /// through the ordered path.
    fn generate_client_action(
        &mut self,
        ctx: &mut Ctx<'_>,
        req: ClientRequest,
        read_tier: Option<ReadConsistency>,
    ) {
        // Backpressure: during a long non-primary partition red bodies
        // accumulate with no white line to discard them; refuse new
        // local updates at the retention bound instead of growing
        // without limit.
        if self.cfg.max_retained_bodies > 0 && self.k.retained() >= self.cfg.max_retained_bodies {
            ctx.metrics()
                .incr(metric!("engine.backpressure_rejects"), 1);
            return self.reject(ctx, &req, "too many retained actions; retry later");
        }

        // Update (possibly with a query part): create and generate an
        // action (Appendix A, NonPrim/RegPrim "Client req").
        let kind = ActionKind::App {
            query: req.query.clone(),
            update: req.update.clone(),
        };
        let action = self.create_action(ctx, req.client, kind, req.size_bytes);
        // Export the body's static conflict class so the todr-check
        // oracle can replay exactly the relation the engine evaluates.
        let class = self.cfg.consumes_receipts().then(|| action.class());
        if let Some(c) = class.flatten() {
            ctx.emit(ProtocolEvent::ActionFootprint(Box::new(Footprint {
                node: self.cfg.me.index(),
                action_seq: action.id.index,
                writes: c.writes.rows().to_vec(),
                writes_unbounded: c.writes.is_all(),
                reads: c.reads.rows().to_vec(),
                reads_unbounded: c.reads.is_all(),
                commutative: c.commutative,
                timestamped: c.timestamped,
            })));
        }
        self.v.pending_replies.insert(
            action.id,
            PendingReply {
                request: req.request,
                reply_to: req.reply_to,
                query: req.query,
                submitted_at: ctx.now(),
                policy: req.reply_policy,
                read_tier,
            },
        );
    }

    /// Creates this server's next action ([`Knowledge::create_action`])
    /// and submits it: `** sync to disk, then generate`.
    fn create_action(
        &mut self,
        ctx: &mut Ctx<'_>,
        client: ClientId,
        kind: ActionKind,
        size: u32,
    ) -> Rc<Body> {
        self.gc_step(ctx, GcAt::Created);
        let action = self.k.create_action(&mut self.store, client, kind, size);
        ctx.metrics().incr(metric!("engine.actions_created"), 1);
        ctx.emit(ProtocolEvent::ActionCreated {
            node: self.cfg.me.index(),
            action_seq: action.id.index,
        });
        self.v.submit_queue.push(Rc::clone(&action));
        self.flush_submit_queue(ctx);
        action
    }

    /// Pipelined group commit: issue at most one forced write for all
    /// submissions queued behind it. While a sync is in flight new
    /// submissions accumulate in `submit_queue`; when the completion
    /// arrives the whole batch rides the next forced write together,
    /// so N concurrent clients cost O(1) syncs per disk round trip
    /// instead of N.
    fn flush_submit_queue(&mut self, ctx: &mut Ctx<'_>) {
        if self.v.submit_inflight || self.v.submit_queue.is_empty() {
            return;
        }
        self.v.submit_inflight = true;
        let batch = std::mem::take(&mut self.v.submit_queue);
        ctx.metrics()
            .record_value(metric!("engine.submit_batch"), batch.len() as u64);
        self.request_sync(ctx, AfterSync::Submit(batch));
    }

    fn serve_query(&mut self, ctx: &mut Ctx<'_>, mut req: ClientRequest) {
        let Some(query) = &req.query else {
            return self.generate_client_action(ctx, req, None);
        };
        let row = req.read_consistency.and_then(|_| get_row(query));
        // Consistency-tiered reads bypass the legacy semantics switch.
        // `GreenSnapshot` and `RedOverlay` are always local and
        // lease-free: the first answers from the green prefix, the
        // second replays the local red suffix over it (the same view the
        // `Dirty` semantics expose). `Linearizable` is answered locally
        // under a valid read lease (LARK-style), and otherwise re-routed
        // through the ordered action path — it is never rejected.
        match (req.read_consistency, req.query_semantics) {
            (Some(ReadConsistency::GreenSnapshot), _) => {
                ctx.metrics().incr(metric!("engine.snapshot_reads"), 1);
                self.answer_read(ctx, &req, query, row, ReadTier::GreenSnapshot);
            }
            (Some(ReadConsistency::RedOverlay), _) => {
                ctx.metrics().incr(metric!("engine.overlay_reads"), 1);
                self.answer_read(ctx, &req, query, row, ReadTier::RedOverlay);
            }
            (Some(ReadConsistency::Linearizable), _) => {
                let at = At(ctx.now(), self.state, self.conf_epoch);
                let key_fp = row.map(|(_, _, key_fp)| key_fp);
                let read = match &self.lease {
                    Some(lease) => lease.read(&self.k, key_fp, at),
                    None => LeaseRead::Ordered,
                };
                match (read, key_fp, &mut self.lease) {
                    (LeaseRead::Serve, ..) => {
                        ctx.metrics().incr(metric!("engine.lease_reads"), 1);
                        self.answer_read(ctx, &req, query, row, ReadTier::LeaseLinearizable);
                    }
                    (LeaseRead::Park, Some(key_fp), Some(lease)) => {
                        ctx.metrics().incr(metric!("engine.lease_reads_parked"), 1);
                        lease.park(key_fp, req);
                    }
                    // The read becomes an ordinary (Noop-update) action,
                    // totally ordered and answered from the green
                    // database at apply time — in `NonPrim` it turns red
                    // and is answered after the next merge with the
                    // primary.
                    _ => {
                        ctx.metrics().incr(metric!("engine.ordered_reads"), 1);
                        req.reply_policy = UpdateReplyPolicy::OnGreen;
                        let tier = Some(ReadConsistency::Linearizable);
                        self.generate_client_action(ctx, req, tier);
                    }
                }
            }
            // Strict answers require the primary component (§6: "queries
            // issued in a non-primary component cannot be answered until
            // the connectivity with the primary is restored"), and there
            // "a query issued at one server can be answered as soon as
            // all previous actions generated by this server were applied
            // to the database, without the need to generate and order an
            // action message".
            (None, QuerySemantics::Strict) => {
                if self.state != EngineState::RegPrim || !self.k.own_actions_green() {
                    return self.v.parked_strict.push(req);
                }
                let result = self.k.db.query(query);
                self.answer(ctx, &req, result, false, Some(CPU_PER_ACTION / 4));
            }
            (None, QuerySemantics::Weak) => {
                let result = self.k.db.query(query);
                self.answer(ctx, &req, result, false, None);
            }
            (None, QuerySemantics::Dirty) => {
                let result = self.dirty_view().query(query);
                self.answer(ctx, &req, result, true, None);
            }
        }
    }

    /// Answers a consistency-tiered read from the green database (from
    /// the dirty view at `RedOverlay`). A read of one `row` is one
    /// lookup, which yields both the answer and the row version its
    /// oracle-facing [`ProtocolEvent::ReadServed`] record carries.
    fn answer_read(
        &mut self,
        ctx: &mut Ctx<'_>,
        req: &ClientRequest,
        query: &Query,
        row: Option<(&str, &str, u64)>,
        tier: ReadTier,
    ) {
        let (node, cpu) = (self.cfg.me.index(), CPU_PER_ACTION / 4);
        let dirty = tier == ReadTier::RedOverlay;
        let db = if dirty { self.dirty_view() } else { &self.k.db };
        let result = match row {
            Some((table, key, key_fp)) => {
                let (value, version) = db.read_row(table, key);
                let result = QueryResult::Value(value.cloned());
                ctx.emit(ProtocolEvent::ReadServed {
                    node,
                    key_fp,
                    tier,
                    version,
                });
                result
            }
            None => db.query(query),
        };
        self.answer(ctx, req, result, dirty, Some(cpu));
    }

    /// Answers the parked strict queries once this server is in the
    /// primary component and none is blocked any more.
    fn release_strict(&mut self, ctx: &mut Ctx<'_>) {
        let parked = !self.v.parked_strict.is_empty();
        if !parked || self.state != EngineState::RegPrim || !self.k.own_actions_green() {
            return;
        }
        for req in std::mem::take(&mut self.v.parked_strict) {
            self.serve_query(ctx, req);
        }
    }

    /// Grants the read lease for configuration `conf` at install, or
    /// renews it on heartbeat evidence, and reports the grant.
    fn grant_lease(&mut self, ctx: &mut Ctx<'_>, conf: ConfId, renewal: bool) {
        let at = At(ctx.now(), self.state, self.conf_epoch);
        let current = self.v.round.as_ref().map(|r| r.conf().id);
        let Some(lease) = &mut self.lease else {
            return;
        };
        let expires = match renewal {
            true => lease.renew(at, current, conf),
            false => Some(lease.grant(at)),
        };
        let Some(expires) = expires else {
            return;
        };
        if renewal {
            ctx.metrics().incr(metric!("engine.lease_renewals"), 1);
        } else {
            ctx.metrics().incr(metric!("engine.lease_grants"), 1);
        }
        ctx.emit(ProtocolEvent::LeaseGranted {
            node: self.cfg.me.index(),
            conf_seq: conf.seq,
            coordinator: conf.coordinator.index(),
            expires_nanos: expires.as_nanos(),
            renewal,
        });
    }

    /// Revokes the read lease, counting an expiration if it was still
    /// live; returns the reads parked under it.
    fn revoke_lease(&mut self, ctx: &mut Ctx<'_>) -> Vec<ClientRequest> {
        let Some(lease) = &mut self.lease else {
            return Vec::new();
        };
        let (live, parked) = lease.revoke(At(ctx.now(), self.state, self.conf_epoch));
        if live {
            ctx.metrics().incr(metric!("engine.lease_expirations"), 1);
        }
        parked
    }

    /// `Handle_buff_requests` (Appendix A, CodeSegment A.8).
    fn handle_buffered(&mut self, ctx: &mut Ctx<'_>) {
        // Actions deferred across the view change go out first: they
        // are older than any buffered request (lower indices), their
        // forced write already happened, and per-server FIFO keeps the
        // receivers' red cuts contiguous.
        for action in std::mem::take(&mut self.v.deferred_submits) {
            let size = action.size_bytes;
            self.send_group(ctx, EngineMsg::Action(action), size);
        }
        self.flush_submit_queue(ctx);
        let buffered: Vec<ClientRequest> = std::mem::take(&mut self.v.buffered_reqs);
        for req in buffered {
            self.on_client_request(ctx, req);
        }
        self.release_strict(ctx);
    }

    // ====== view changes & exchange ======

    /// A regular configuration: its fresh [`Round`] starts, and we
    /// `Shift_to_exchange_states` (CodeSegment A.5).
    fn on_reg_conf(&mut self, ctx: &mut Ctx<'_>, conf: Configuration) {
        self.conf_epoch += 1;
        self.v.round = Some(Round::new(conf, self.v.round.take()));
        match self.state {
            EngineState::Down | EngineState::Joining => return,
            // A.3, A.11, A.12 / A.1: `Knowledge::shift_to_exchange`.
            EngineState::TransPrim | EngineState::No | EngineState::Un | EngineState::NonPrim => {}
            other => panic!("RegConf cannot arrive in {other:?} (EVS delivers TransConf first)"),
        }
        self.k.shift_to_exchange(&mut self.store, self.state);
        self.set_state(EngineState::ExchangeStates);
        let epoch = self.conf_epoch;
        self.request_sync(ctx, AfterSync::SendState { epoch });
    }

    fn on_trans_conf(&mut self, ctx: &mut Ctx<'_>) {
        // Fast quorums and the read lease are scoped to one uninterrupted
        // regular primary. Parked lease reads re-run as ordered reads
        // once the next install (or non-primary transition) releases
        // the buffer.
        let demoted = self.fast.as_mut().map_or(0, FastPath::clear);
        if demoted > 0 {
            ctx.metrics()
                .incr(metric!("engine.fast_demotions_on_view_change"), demoted);
        }
        let parked = self.revoke_lease(ctx);
        self.v.buffered_reqs.extend(parked);
        match self.state {
            EngineState::RegPrim => self.set_state(EngineState::TransPrim),
            EngineState::Construct => self.set_state(EngineState::No),
            EngineState::ExchangeStates | EngineState::ExchangeActions => {
                self.set_state(EngineState::NonPrim);
            }
            // NonPrim ignores transitional configurations (A.1); the
            // remaining states cannot see one.
            _ => {}
        }
    }

    /// A State message. Once every member's is in, `Retrans`: our role
    /// in the deterministic plan, closed by our `RetransDone` marker.
    fn on_state_msg(&mut self, ctx: &mut Ctx<'_>, sm: &StateMsg) {
        let exchanging = self.state == EngineState::ExchangeStates;
        let round = self.v.round.as_mut().filter(|_| exchanging);
        let Some(plan) = round.and_then(|r| r.on_state(sm.clone())) else {
            return;
        };
        self.set_state(EngineState::ExchangeActions);
        let me = self.cfg.me;
        if plan.green == GreenPath::Snapshot(me) {
            let base = self.k.green_base();
            let size = base.size_bytes();
            let green_lines = self.k.green_lines.clone();
            let snapshot = EngineMsg::GreenSnapshot { base, green_lines };
            self.send_group(ctx, snapshot, size);
        }
        for (action, green_pos) in plan.retrans_of(me, &self.k) {
            let size = action.size_bytes + 16;
            ctx.metrics().incr(metric!("engine.retransmitted"), 1);
            self.send_group(ctx, EngineMsg::Retrans { action, green_pos }, size);
        }
        if plan.senders.contains(&me) {
            self.send_group(ctx, EngineMsg::RetransDone { server: me }, 32);
        }
        if plan.is_empty() {
            self.end_of_retrans(ctx);
        }
    }

    fn on_retrans(&mut self, ctx: &mut Ctx<'_>, action: &Rc<Body>, green_pos: Option<u64>) {
        self.v.round.iter_mut().for_each(|r| r.recovered += 1);
        match green_pos {
            None => _ = self.mark_red(ctx, action, true),
            Some(pos) if pos < self.k.green_count => {} // already green here
            Some(pos) if pos == self.k.green_count => self.mark_green(ctx, action),
            Some(pos) => panic!(
                "green retransmission gap at {}: got pos {pos}, have {}",
                self.cfg.me, self.k.green_count
            ),
        }
    }

    /// Takes an inherited green base (§5.1 transfer / exchange snapshot
    /// fallback) and the sender's green `lines` by
    /// [`Knowledge::adopt_base`], and saves them, re-logging
    /// the red actions it does not incorporate. The marks made before
    /// the jump are announced first; the line is then left unannounced
    /// at the base's count, so the event's closing announcement skips
    /// the positions the base holds, marks or not.
    ///
    /// In an exchange, each creator whose green cut the base raises gets a
    /// [`ProtocolEvent::BaseSubsumed`]: no green mark will name the
    /// actions it greens here, whether this server held them red or
    /// yellow or never saw them. A joiner's bootstrap holds nothing and
    /// has answered no client, so it logs none.
    ///
    /// No green mark will name this server's own actions the base
    /// greens, so the replies it still owes for them are answered here,
    /// as committed at green, against the adopted state.
    fn adopt_base(&mut self, ctx: &mut Ctx<'_>, base: &GreenBase, lines: &BTreeMap<NodeId, u64>) {
        self.announce_green_line(ctx);
        let me = self.cfg.me;
        let own = |index| ActionId { server: me, index };
        let cut = base.green_cut.get(&me).copied().unwrap_or(0);
        let owed: Vec<(ActionId, Option<Rc<Body>>)> = (self.v.pending_replies)
            .range(own(0)..=own(cut))
            .map(|(&id, _)| (id, self.k.body(&id).cloned()))
            .collect();
        let raised = self.k.adopt_base(base.clone(), lines);
        if self.state != EngineState::Joining {
            for (creator, cut) in raised {
                ctx.emit(ProtocolEvent::BaseSubsumed {
                    node: self.cfg.me.index(),
                    creator: creator.index(),
                    cut,
                });
            }
        }
        self.v.dirty_db = None;
        self.v.green_unannounced = true;
        self.k.save_base(&mut self.store);
        self.k.save_records(&mut self.store);
        for (id, body) in owed {
            if let Some(p) = self.v.pending_replies.remove(&id) {
                let answer = (ctx.now(), p.query.as_ref().map(|q| self.k.db.query(q)));
                let action = body.as_deref().map(Body::action);
                self.reply_committed(ctx, CommitPoint::Green, id, action, p, answer);
            }
        }
    }

    /// `End_of_retrans` (CodeSegment A.5) + `ComputeKnowledge` (A.7) +
    /// `IsQuorum` (A.8).
    fn end_of_retrans(&mut self, ctx: &mut Ctx<'_>) {
        let Some(round) = &mut self.v.round else {
            return;
        };
        ctx.metrics().incr(metric!("engine.exchanges_completed"), 1);
        ctx.emit(ProtocolEvent::SyncCompleted {
            node: self.cfg.me.index(),
            actions_recovered: std::mem::take(&mut round.recovered),
        });
        let epoch = self.conf_epoch;
        let after = if round.conclude(&mut self.k, &self.cfg.weights) {
            self.set_state(EngineState::Construct);
            AfterSync::SendCpc { epoch }
        } else {
            self.set_state(EngineState::NonPrim);
            AfterSync::ExchangeEnded { epoch }
        };
        self.k.save_records(&mut self.store);
        self.request_sync(ctx, after);
    }

    fn on_cpc(&mut self, ctx: &mut Ctx<'_>, server: NodeId, conf: ConfId) {
        // In `No`, these are CPCs delivered in the transitional
        // configuration.
        let voting = matches!(self.state, EngineState::Construct | EngineState::No);
        let Some(round) = self.v.round.as_mut().filter(|_| voting) else {
            return;
        };
        if !round.on_cpc(server, conf) {
            return;
        }
        if self.state == EngineState::No {
            return self.set_state(EngineState::Un);
        }
        // A.9: everyone voted, so every member's green line is ours;
        // install. The attempt's servers are the members.
        debug_assert!(self.k.vulnerable.set.iter().eq(&round.conf().members));
        self.k.level_green_lines(&BTreeSet::new());
        self.install(ctx);
        if self.departed {
            // Our own PERSISTENT_LEAVE turned green during the
            // installation's red conversion: we are out of the system
            // ("if (Action.leave_id == serverId) exit") and must not
            // claim the primary we just helped create.
            return;
        }
        self.set_state(EngineState::RegPrim);
        // The install greened everything a quorum of the previous
        // primary knew; any update acknowledged anywhere is now in our
        // green prefix, so the lease can start here.
        self.grant_lease(ctx, conf, false);
        let epoch = self.conf_epoch;
        self.request_sync(ctx, AfterSync::ExchangeEnded { epoch });
    }

    /// The order `install` greens a pending set in: as given, or newest
    /// first under the `InstallNewestFirst` chaos mutation. `mark_green`
    /// skips an action whose creator is already green past it, so newest
    /// first loses a creator's older pending action from the green order
    /// — at every member alike.
    #[cfg(feature = "chaos-mutations")]
    fn chaos_install_order<T>(&self, mut pending: Vec<T>) -> Vec<T> {
        if self.cfg.chaos == Some(crate::types::ChaosMutation::InstallNewestFirst) {
            pending.reverse();
        }
        pending
    }

    /// `Install` (CodeSegment A.10).
    fn install(&mut self, ctx: &mut Ctx<'_>) {
        debug_assert!(
            self.v.stashed.is_empty(),
            "stashed actions {:?} survive to install at {} — exchange targets missed",
            self.v.stashed.keys().collect::<Vec<_>>(),
            self.cfg.me
        );
        // OR-1.2: the previous primary already fixed the yellow actions'
        // positions.
        let yellows = self.k.take_yellows();
        #[cfg(feature = "chaos-mutations")]
        let yellows = self.chaos_install_order(yellows);
        for action in yellows {
            self.mark_green(ctx, &action);
        }
        self.k.install_prim(&self.v.departed_servers);
        // OR-2: remaining red actions, ordered by action id.
        let reds: Vec<Rc<Body>> = self.k.red_bodies().cloned().collect();
        #[cfg(feature = "chaos-mutations")]
        let reds = self.chaos_install_order(reds);
        for action in reds {
            self.mark_green(ctx, &action);
        }
        // Level every member's green line and checkpoint, or a long
        // partition that left every replica at its retention cap wedges
        // the system in backpressure rejection: no client traffic comes
        // to move the white line.
        self.k.level_green_lines(&self.v.departed_servers);
        self.gc_step(ctx, GcAt::Install);
        ctx.metrics().incr(metric!("engine.primaries_installed"), 1);
        self.k.save_records(&mut self.store);
    }

    // ====== deliveries ======

    fn on_delivery(&mut self, ctx: &mut Ctx<'_>, delivery: todr_evs::Delivery) {
        let msg = delivery
            .payload
            .downcast_ref::<EngineMsg>()
            .expect("engine received a non-engine group message");
        match msg {
            EngineMsg::Action(action) => self.on_action(ctx, action, delivery.in_transitional),
            EngineMsg::State(sm) => self.on_state_msg(ctx, sm),
            EngineMsg::Cpc { server, conf } => self.on_cpc(ctx, *server, *conf),
            // In any state: late retransmissions (e.g. delivered in a
            // transitional batch after we aborted the exchange) still
            // carry monotone knowledge.
            EngineMsg::Retrans { action, green_pos } => self.on_retrans(ctx, action, *green_pos),
            // The snapshot fallback: adopt the base if it is ahead of ours.
            EngineMsg::GreenSnapshot { base, green_lines } => {
                if base.green_count > self.k.green_count {
                    self.adopt_base(ctx, base, green_lines);
                } // else we are at least as advanced
            }
            EngineMsg::RetransDone { server } => {
                let exchanging = self.state == EngineState::ExchangeActions;
                let round = self.v.round.as_mut().filter(|_| exchanging);
                if round.is_some_and(|r| r.on_retrans_done(*server)) {
                    self.end_of_retrans(ctx);
                }
            }
        }
    }

    fn on_action(&mut self, ctx: &mut Ctx<'_>, action: &Rc<Body>, in_transitional: bool) {
        match self.state {
            EngineState::RegPrim if !in_transitional => {
                // OR-1.1: safe delivery in the primary's regular
                // configuration -> green immediately.
                self.mark_green(ctx, action);
                self.k.raise_green_line(action.id.server, action.green_line);
            }
            EngineState::RegPrim | EngineState::TransPrim => {
                // Delivered in the transitional configuration of the
                // primary: order known, survival unknown.
                self.set_state(EngineState::TransPrim);
                #[cfg(feature = "chaos-mutations")]
                if self.cfg.chaos == Some(crate::types::ChaosMutation::PrematureGreen) {
                    // Injected bug: green without next-primary
                    // knowledge. The yellow color exists precisely
                    // because this is unsafe.
                    self.mark_green(ctx, action);
                    return;
                }
                self.mark_yellow(ctx, action);
            }
            EngineState::NonPrim | EngineState::ExchangeStates | EngineState::ExchangeActions => {
                self.mark_red(ctx, action, true);
            }
            EngineState::Un => {
                // A.12: an action here proves some server installed the
                // primary and moved on; follow it.
                self.install(ctx);
                if self.departed {
                    return; // our own leave was among the converted reds
                }
                self.mark_yellow(ctx, action);
                self.set_state(EngineState::TransPrim);
            }
            // Total order puts every CPC before any action of the new
            // primary.
            state @ (EngineState::No | EngineState::Construct) => {
                panic!("action delivered in {state:?} at {}", self.cfg.me)
            }
            EngineState::Down | EngineState::Joining => {}
        }
    }

    // ====== commit fast path (CURP-style, see `crate::fastpath`) ======

    /// An eager EVS receipt: the action's agreed-order position is fixed
    /// one stability round before [`Self::on_delivery`]. In the regular
    /// primary configuration it marks the action red at once, which is
    /// all read leases need; then the fast path decides it.
    fn on_receipt(&mut self, ctx: &mut Ctx<'_>, delivery: todr_evs::Delivery) {
        if !self.cfg.consumes_receipts()
            || self.state != EngineState::RegPrim
            || delivery.in_transitional
        {
            return;
        }
        let Some(EngineMsg::Action(action)) = delivery.payload.downcast_ref::<EngineMsg>() else {
            return; // exchange-phase traffic never fast-paths
        };
        if action.is_reconfiguration() {
            return; // joins/leaves always take the full green path
        }
        self.mark_red(ctx, action, true);
        let Some(fast) = &self.fast else {
            return;
        };
        let id = action.id;
        let pending = self.v.pending_replies.get(&id);
        let wants_fast = pending.is_some_and(|p| p.policy.answers_at(CommitPoint::Fast));
        match fast.on_receipt(&self.k, action, self.cfg.me, wants_fast) {
            // Direct unicast: skips the coordinator round trip *and* the
            // ack-batching delay of the stability protocol.
            Receipt::Ack => self.send_transfer(ctx, [id.server], TransferWire::FastAck { id }),
            Receipt::Skip => {}
            Receipt::Demote => {
                ctx.metrics().incr(metric!("engine.fast_demotions"), 1);
                ctx.emit(ProtocolEvent::FastDemoted {
                    node: self.cfg.me.index(),
                    action_seq: id.index,
                });
            }
            Receipt::Open(query) => {
                let result = query.map(|q| self.dirty_view().query(q));
                // Charge the check + read now so the CPU work overlaps
                // the FastAck round trip instead of serializing behind it.
                let ready_at = self.charge_cpu(ctx, CPU_PER_ACTION / 4);
                if let Some(fast) = &mut self.fast {
                    fast.open(id, FastReply { result, ready_at });
                }
                // A single-member primary is its own quorum.
                self.on_fast_ack(ctx, id.server, id);
            }
        }
    }

    /// Member `src` holds own action `id`: once that completes its
    /// quorum, the fast commit is sent. Its reply does not execute the
    /// update — green apply does that on every replica — and its CPU
    /// cost was charged at receipt.
    fn on_fast_ack(&mut self, ctx: &mut Ctx<'_>, src: NodeId, id: ActionId) {
        let members = self.v.round.as_ref().map(|r| &r.conf().members[..]);
        let (prim, weights, state) = (&self.k.prim_component, &self.cfg.weights, self.state);
        let ack = |f: &mut FastPath| f.on_ack(src, id, state, members, prim, weights);
        let Some(reply) = self.fast.as_mut().and_then(ack) else {
            return;
        };
        let Some(p) = take_reply(&mut self.v.pending_replies, id, CommitPoint::Fast) else {
            return;
        };
        let action = self.k.body(&id).cloned();
        let action = action.as_deref().map(Body::action);
        let answer = (reply.ready_at, reply.result);
        self.reply_committed(ctx, CommitPoint::Fast, id, action, p, answer);
    }

    // ====== disk completions ======

    /// The current configuration, if a sync from `epoch` completes in it and in `state`.
    fn still_in(&self, epoch: u64, state: EngineState) -> Option<ConfId> {
        let current = epoch == self.conf_epoch && self.state == state;
        let round = self.v.round.as_ref().filter(|_| current);
        round.map(|r| r.conf().id)
    }

    fn on_disk_done(&mut self, ctx: &mut Ctx<'_>, token: SyncToken) {
        // Only a completion we are actually waiting on may promote the
        // staged mutations: a stale token (from before a crash) reports
        // a write whose platter sync never happened, and committing on
        // it would make the store claim durability for lost data.
        let Some(after) = self.v.pending_syncs.remove(&token) else {
            return; // completion from before a crash
        };
        // A backend I/O failure here means the host disk broke under
        // us — there is no protocol-level answer to that, so stop hard
        // rather than acknowledge durability that does not exist.
        self.store
            .commit_staged()
            .expect("storage backend failed to persist staged state");
        match after {
            AfterSync::Submit(actions) => {
                self.v.submit_inflight = false;
                if matches!(self.state, EngineState::RegPrim | EngineState::NonPrim) {
                    for action in actions {
                        let size = action.size_bytes;
                        self.send_group(ctx, EngineMsg::Action(action), size);
                    }
                    self.flush_submit_queue(ctx);
                } else {
                    // Overtaken by a configuration change: `deferred_submits`.
                    self.v.deferred_submits.extend(actions);
                }
            }
            AfterSync::SendState { epoch } => {
                if let Some(conf) = self.still_in(epoch, EngineState::ExchangeStates) {
                    let sm = StateMsg::new(conf, self.cfg.me, &self.k);
                    let size = sm.size_bytes();
                    self.send_group(ctx, EngineMsg::State(sm), size);
                }
            }
            AfterSync::SendCpc { epoch } => {
                if let Some(conf) = self.still_in(epoch, EngineState::Construct) {
                    let server = self.cfg.me;
                    self.send_group(ctx, EngineMsg::Cpc { server, conf }, CPC_MSG_BYTES);
                }
            }
            AfterSync::ExchangeEnded { epoch } => {
                if epoch == self.conf_epoch
                    && matches!(self.state, EngineState::RegPrim | EngineState::NonPrim)
                {
                    self.handle_buffered(ctx);
                }
            }
            AfterSync::JoinedReady => {
                if self.state == EngineState::Joining {
                    self.set_state(EngineState::NonPrim);
                    ctx.send_now(self.evs, EvsCmd::JoinGroup);
                }
            }
            // The durable line goes to the rest of the server set,
            // straight over the fabric (see `TransferWire::GreenLine`).
            AfterSync::AdvertiseGreenLine { line } => {
                let me = self.cfg.me;
                let peers = Vec::from_iter(self.k.server_set.iter().copied().filter(|&s| s != me));
                if !peers.is_empty() {
                    ctx.metrics()
                        .incr(metric!("engine.green_lines_advertised"), 1);
                    self.send_transfer(ctx, peers, TransferWire::GreenLine { line });
                }
            }
            AfterSync::Noop => {}
        }
    }

    // ====== control: crash / recovery / join / leave ======

    fn on_ctl(&mut self, ctx: &mut Ctx<'_>, ctl: EngineCtl) {
        let leaver = match ctl {
            EngineCtl::Crash => return self.crash(ctx, false),
            EngineCtl::CrashTorn => return self.crash(ctx, true),
            EngineCtl::Recover => return self.recover(ctx),
            EngineCtl::InjectFault { fault } => return self.inject_fault(ctx, fault),
            EngineCtl::StartJoin { via } => return self.start_join(ctx, via),
            EngineCtl::Leave => self.cfg.me,
            EngineCtl::RemoveReplica { dead } => dead,
        };
        if matches!(self.state, EngineState::RegPrim | EngineState::NonPrim) {
            self.create_action(ctx, ClientId(0), ActionKind::PersistentLeave { leaver }, 64);
        }
    }

    fn crash(&mut self, ctx: &mut Ctx<'_>, torn: bool) {
        self.announce_green_line(ctx);
        ctx.emit(ProtocolEvent::EngineCrashed {
            node: self.cfg.me.index(),
        });
        // Revoke the lease while the pre-crash state is still visible;
        // the reads parked under it are lost with `Volatile`.
        self.revoke_lease(ctx);
        if let Some(fast) = &mut self.fast {
            fast.clear();
        }
        if torn {
            self.store.crash_torn(ctx.fault_rng());
            ctx.metrics().incr(metric!("storage.torn_crashes"), 1);
        } else {
            self.store.crash();
        }
        self.set_state(EngineState::Down);
        self.conf_epoch += 1;
        self.v = Volatile::default();
        self.horizon.set(SimTime::ZERO);
        self.k.forget_colours();
    }

    /// Damages the persisted log in place ([`EngineCtl::InjectFault`]).
    /// Latent: nothing notices until the next recovery scan.
    fn inject_fault(&mut self, ctx: &mut Ctx<'_>, fault: StorageFault) {
        let injected = match fault {
            StorageFault::BitFlip => self.store.inject_bit_flip(ctx.fault_rng()),
            StorageFault::StaleSector => self.store.inject_stale_sector(ctx.fault_rng()),
        };
        if injected.is_some() {
            ctx.metrics().incr(metric!("storage.faults_injected"), 1);
        }
    }

    /// Recovery found corruption it cannot repair: refuse to rejoin.
    /// Rejoining with silently wrong state could vote a fork into the
    /// primary component; staying [`EngineState::Down`] only costs this
    /// replica's availability.
    fn fail_stop(&mut self, ctx: &mut Ctx<'_>, error: RecoveryError) {
        ctx.metrics()
            .incr(metric!("storage.corruption_failstops"), 1);
        ctx.emit(ProtocolEvent::CorruptionDetected {
            node: self.cfg.me.index(),
            log_index: error.log_index(),
        });
        self.recovery_error = Some(error);
        self.set_state(EngineState::Down);
    }

    /// `Recover` (CodeSegment A.13): [`persist::recover`] scans, repairs
    /// and reloads what storage holds; this re-accepts the own
    /// unacknowledged actions and rejoins as `NonPrim`. Corruption the
    /// scan cannot repair fail-stops the replica instead.
    fn recover(&mut self, ctx: &mut Ctx<'_>) {
        if self.departed {
            return; // permanently removed replicas stay down
        }
        // Only the `SkipChecksumVerify` mutation recovers unverified.
        #[cfg(feature = "chaos-mutations")]
        let verify = self.cfg.chaos != Some(crate::types::ChaosMutation::SkipChecksumVerify);
        #[cfg(not(feature = "chaos-mutations"))]
        let verify = true;
        let (torn, recovered) = persist::recover(&mut self.store, &self.k, verify);
        if let Some(log_index) = torn {
            ctx.metrics()
                .incr(metric!("storage.torn_tails_truncated"), 1);
            ctx.emit(ProtocolEvent::TornTailTruncated {
                node: self.cfg.me.index(),
                log_index,
            });
        }
        self.k = match recovered {
            Ok(recovered) => recovered,
            Err(error) => return self.fail_stop(ctx, error),
        };
        self.recovery_error = None;
        #[cfg(feature = "chaos-mutations")]
        if self.cfg.chaos == Some(crate::types::ChaosMutation::SwapReloadedGreens) {
            self.k.swap_last_greens();
        }
        self.gc_step(ctx, GcAt::Recovered);

        // Re-accept own unacknowledged actions (A.13).
        for action in self.k.own_queue().cloned().collect::<Vec<_>>() {
            self.mark_red(ctx, &action, true);
        }
        self.set_state(EngineState::NonPrim);
        self.k.save_records(&mut self.store);
        self.request_sync(ctx, AfterSync::Noop);
        ctx.send_now(self.evs, EvsCmd::JoinGroup);
        ctx.emit(ProtocolEvent::EngineRecovered {
            node: self.cfg.me.index(),
            green: self.k.green_count,
        });
    }

    /// CodeSegment 5.2: the joining site's bootstrap.
    fn start_join(&mut self, ctx: &mut Ctx<'_>, via: NodeId) {
        self.set_state(EngineState::Joining);
        self.v.join_targets = self.cfg.server_set.clone();
        if let Some(pos) = self.v.join_targets.iter().position(|&n| n == via) {
            self.v.join_targets.swap(0, pos);
        }
        self.request_join(ctx, via);
    }

    fn on_join_retry(&mut self, ctx: &mut Ctx<'_>) {
        if self.state != EngineState::Joining || self.v.join_targets.is_empty() {
            return;
        }
        // "If the initial peer fails or a network partition occurs
        // before the transfer is finished, the new server will try to
        // establish a connection with a different member" (§5.1).
        self.v.join_targets.rotate_left(1);
        self.request_join(ctx, self.v.join_targets[0]);
    }

    /// Asks `target` for the join transfer and arms the 500 ms retry.
    fn request_join(&mut self, ctx: &mut Ctx<'_>, target: NodeId) {
        let me = self.cfg.me;
        self.send_transfer(ctx, [target], TransferWire::JoinRequest { joiner: me });
        ctx.send_self_after(SimDuration::from_millis(500), JoinRetry);
    }

    fn on_transfer(&mut self, ctx: &mut Ctx<'_>, src: NodeId, wire: &TransferWire) {
        match wire {
            TransferWire::JoinRequest { joiner } => {
                let joiner = *joiner;
                if !matches!(self.state, EngineState::RegPrim | EngineState::NonPrim) {
                    return; // not in a position to represent anyone
                }
                if self.k.server_set.contains(&joiner) {
                    // Join already ordered: resume/redo the transfer
                    // from current state (line 21).
                    self.send_snapshot_to(ctx, joiner);
                } else if self.v.pending_joins.insert(joiner) {
                    // Announce the newcomer (lines 17-19); duplicate
                    // bootstrap retries while our announcement is still
                    // in flight are absorbed here, and late duplicate
                    // announcements from other representatives are
                    // ignored when they turn green (CodeSegment 5.1).
                    self.create_action(ctx, ClientId(0), ActionKind::PersistentJoin { joiner }, 64);
                }
            }
            TransferWire::FastAck { id } => self.on_fast_ack(ctx, src, *id),
            TransferWire::GreenLine { line } => {
                if self.k.server_set.contains(&src) {
                    self.k.raise_green_line(src, *line);
                }
            }
            TransferWire::Snapshot {
                base,
                green_lines,
                server_set,
                prim_component,
            } => {
                if self.state != EngineState::Joining {
                    return;
                }
                self.k.bootstrap(server_set, prim_component);
                self.adopt_base(ctx, base, green_lines);
                // Persist the inherited state, then join the group.
                self.request_sync(ctx, AfterSync::JoinedReady);
            }
        }
    }

    /// Routes one event to its handler.
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
        let down = self.state == EngineState::Down;
        let payload = match payload.try_downcast::<EvsEvent>() {
            Ok(_) if down => return,
            Ok(EvsEvent::RegConf(conf)) => return self.on_reg_conf(ctx, conf),
            Ok(EvsEvent::TransConf(_)) => return self.on_trans_conf(ctx),
            Ok(EvsEvent::Deliver(d)) => return self.on_delivery(ctx, d),
            Ok(EvsEvent::Receipt(d)) => return self.on_receipt(ctx, d),
            Ok(EvsEvent::LeaseRenew(conf)) => return self.grant_lease(ctx, conf, true),
            Err(p) => p,
        };
        if let Some(done) = payload.downcast_ref::<DiskDone>() {
            if !down {
                self.on_disk_done(ctx, done.token);
            }
            return;
        }
        let payload = match payload.try_downcast::<ClientRequest>() {
            Ok(req) => return self.on_client_request(ctx, req),
            Err(p) => p,
        };
        if let Some(dgram) = payload.downcast_ref::<Datagram>() {
            match dgram.payload.downcast_ref::<TransferWire>() {
                Some(wire) if !down => self.on_transfer(ctx, dgram.src, wire),
                _ => {}
            }
            return;
        }
        if payload.is::<JoinRetry>() {
            return self.on_join_retry(ctx);
        }
        match payload.downcast::<EngineCtl>() {
            Some(ctl) => self.on_ctl(ctx, ctl),
            None => panic!("ReplicationEngine received an unknown payload type"),
        }
    }
}

impl Actor for ReplicationEngine {
    fn handle(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
        let mid_batch = matches!(
            payload.downcast_ref::<EvsEvent>(),
            Some(EvsEvent::Deliver(d)) if !d.last_in_batch
        );
        self.dispatch(ctx, payload);
        // Nothing else reaches the engine inside a delivery batch, so
        // its green marks are announced once, at its end, or as soon as
        // the engine stops mid-batch (a stopped engine ignores the rest).
        if !mid_batch || self.state == EngineState::Down {
            self.announce_green_line(ctx);
        }
    }

    /// The step profile's rows: the four event kinds the engine's hot
    /// path is made of, and everything else (view changes, lease
    /// renewals, transfers, timers, control).
    fn event_kind(&self, payload: &Payload) -> &'static str {
        match payload.downcast_ref::<EvsEvent>() {
            Some(EvsEvent::Deliver(_)) => "deliver",
            Some(EvsEvent::Receipt(_)) => "receipt",
            _ if payload.is::<DiskDone>() => "disk-done",
            _ if payload.is::<ClientRequest>() => "client request",
            _ => "timer/other",
        }
    }
}

impl std::fmt::Debug for ReplicationEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicationEngine")
            .field("me", &self.cfg.me)
            .field("state", &self.state)
            .field("green", &self.k.green_count)
            .field("red", &self.k.red_bodies().count())
            .field("prim", &self.k.prim_component.prim_index)
            .finish_non_exhaustive()
    }
}

//! Two-phase commit over the simulated fabric and disks.

use std::collections::BTreeMap;
use std::rc::Rc;

use serde::{Deserialize, Serialize};
use todr_core::{ActionId, ClientReply, ClientRequest, CPU_PER_ACTION};
use todr_db::{Database, Op};
use todr_net::{Datagram, NetOp, NodeId};
use todr_sim::{Actor, ActorId, CpuMeter, Ctx, Payload, SimDuration, SimTime};
use todr_storage::{DiskDone, DiskOp, SyncToken};

/// Tuning knobs for a [`TpcServer`].
#[derive(Debug, Clone)]
pub struct TpcConfig {
    /// This server.
    pub me: NodeId,
    /// All replicas (including `me`).
    pub servers: Vec<NodeId>,
    /// CPU cost to process one protocol message.
    pub cpu_per_message: SimDuration,
}

impl TpcConfig {
    /// Defaults matching the engine's calibration.
    pub fn new(me: NodeId, servers: Vec<NodeId>) -> Self {
        TpcConfig {
            me,
            servers,
            cpu_per_message: SimDuration::from_micros(30),
        }
    }
}

/// Counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TpcStats {
    /// Actions committed at this server (as coordinator).
    pub committed: u64,
    /// Actions applied (any role).
    pub applied: u64,
    /// Forced writes requested.
    pub syncs: u64,
    /// Protocol messages sent.
    pub messages_sent: u64,
}

/// Wire messages.
#[derive(Debug, Clone)]
enum TpcMsg {
    Prepare { id: ActionId, update: Op },
    Yes { id: ActionId, from: NodeId },
    Commit { id: ActionId },
}

/// Per-coordinated-action progress.
struct Coordination {
    update: Op,
    yes_from: Vec<NodeId>,
    reply_to: ActorId,
    request: todr_core::RequestId,
    submitted_at: SimTime,
    commit_synced: bool,
}

enum AfterSync {
    /// Participant: prepare record durable — vote YES to `coordinator`.
    VoteYes { id: ActionId, coordinator: NodeId },
    /// Coordinator: commit record durable — broadcast COMMIT, apply,
    /// reply.
    CommitDurable { id: ActionId },
    /// Coordinator (self-prepare): our own prepare record durable.
    SelfPrepared { id: ActionId },
}

/// A two-phase-commit replica/coordinator.
///
/// Every server can coordinate actions submitted by its local clients;
/// all servers participate in every action. One action costs the
/// latency of a participant prepare sync plus a coordinator commit sync,
/// sequentially — the "extra disk write" the paper blames for 2PC's
/// position in Figure 5(a).
pub struct TpcServer {
    config: TpcConfig,
    fabric: ActorId,
    disk: ActorId,
    db: Database,
    next_index: u64,
    coordinating: BTreeMap<ActionId, Coordination>,
    prepared: BTreeMap<ActionId, Op>,
    next_token: u64,
    pending_syncs: BTreeMap<SyncToken, AfterSync>,
    cpu: CpuMeter,
    stats: TpcStats,
}

impl TpcServer {
    /// Creates a server speaking through `fabric`, syncing on `disk`.
    pub fn new(config: TpcConfig, fabric: ActorId, disk: ActorId) -> Self {
        TpcServer {
            config,
            fabric,
            disk,
            db: Database::new(),
            next_index: 0,
            coordinating: BTreeMap::new(),
            prepared: BTreeMap::new(),
            next_token: 0,
            pending_syncs: BTreeMap::new(),
            cpu: CpuMeter::new(),
            stats: TpcStats::default(),
        }
    }

    /// Counters.
    pub fn stats(&self) -> TpcStats {
        self.stats
    }

    /// Database digest (for cross-replica convergence checks).
    pub fn db_digest(&self) -> u64 {
        self.db.digest()
    }

    fn peers(&self) -> Vec<NodeId> {
        self.config
            .servers
            .iter()
            .copied()
            .filter(|&n| n != self.config.me)
            .collect()
    }

    fn send(&mut self, ctx: &mut Ctx<'_>, dsts: Vec<NodeId>, msg: TpcMsg, size: u32) {
        self.stats.messages_sent += dsts.len() as u64;
        ctx.send_now(
            self.fabric,
            NetOp::multicast(self.config.me, dsts, Rc::new(msg), size),
        );
    }

    fn sync_then(&mut self, ctx: &mut Ctx<'_>, after: AfterSync) {
        self.next_token += 1;
        let token = SyncToken(self.next_token);
        self.pending_syncs.insert(token, after);
        self.stats.syncs += 1;
        let me = ctx.self_id();
        ctx.send_now(
            self.disk,
            DiskOp::Sync {
                token,
                reply_to: me,
            },
        );
    }

    fn on_client(&mut self, ctx: &mut Ctx<'_>, req: ClientRequest) {
        self.next_index += 1;
        let id = ActionId {
            server: self.config.me,
            index: self.next_index,
        };
        self.coordinating.insert(
            id,
            Coordination {
                update: req.update.clone(),
                yes_from: Vec::new(),
                reply_to: req.reply_to,
                request: req.request,
                submitted_at: ctx.now(),
                commit_synced: false,
            },
        );
        // Phase 1: PREPARE to all participants; we also prepare
        // ourselves (our own forced write happens in parallel with
        // theirs).
        let peers = self.peers();
        self.send(
            ctx,
            peers,
            TpcMsg::Prepare {
                id,
                update: req.update,
            },
            req.size_bytes + 48,
        );
        self.sync_then(ctx, AfterSync::SelfPrepared { id });
    }

    fn maybe_commit(&mut self, ctx: &mut Ctx<'_>, id: ActionId) {
        let Some(coord) = self.coordinating.get(&id) else {
            return;
        };
        // All peers voted yes and our own prepare record is durable
        // (tracked by counting ourselves in yes_from).
        if coord.yes_from.len() == self.config.servers.len() && !coord.commit_synced {
            self.coordinating
                .get_mut(&id)
                .expect("just read")
                .commit_synced = true;
            // Phase 2: force the commit record, then broadcast.
            self.sync_then(ctx, AfterSync::CommitDurable { id });
        }
    }

    fn on_msg(&mut self, ctx: &mut Ctx<'_>, src: NodeId, msg: &TpcMsg) {
        self.cpu.charge(ctx.now(), self.config.cpu_per_message);
        match msg {
            TpcMsg::Prepare { id, update } => {
                self.prepared.insert(*id, update.clone());
                // Force the prepare record before voting.
                self.sync_then(
                    ctx,
                    AfterSync::VoteYes {
                        id: *id,
                        coordinator: src,
                    },
                );
            }
            TpcMsg::Yes { id, from } => {
                if let Some(coord) = self.coordinating.get_mut(id) {
                    if !coord.yes_from.contains(from) {
                        coord.yes_from.push(*from);
                    }
                }
                self.maybe_commit(ctx, *id);
            }
            TpcMsg::Commit { id } => {
                if let Some(update) = self.prepared.remove(id) {
                    self.db.apply(&update);
                    self.stats.applied += 1;
                    self.cpu.charge(ctx.now(), CPU_PER_ACTION);
                }
            }
        }
    }

    fn on_disk_done(&mut self, ctx: &mut Ctx<'_>, token: SyncToken) {
        let Some(after) = self.pending_syncs.remove(&token) else {
            return;
        };
        match after {
            AfterSync::VoteYes { id, coordinator } => {
                let me = self.config.me;
                self.send(ctx, vec![coordinator], TpcMsg::Yes { id, from: me }, 48);
            }
            AfterSync::SelfPrepared { id } => {
                let me = self.config.me;
                if let Some(coord) = self.coordinating.get_mut(&id) {
                    if !coord.yes_from.contains(&me) {
                        coord.yes_from.push(me);
                    }
                }
                self.maybe_commit(ctx, id);
            }
            AfterSync::CommitDurable { id } => {
                let peers = self.peers();
                self.send(ctx, peers, TpcMsg::Commit { id }, 48);
                let coord = self
                    .coordinating
                    .remove(&id)
                    .expect("commit for unknown action");
                self.db.apply(&coord.update);
                self.stats.applied += 1;
                self.stats.committed += 1;
                let done = self.cpu.charge(ctx.now(), CPU_PER_ACTION);
                ctx.send_at(
                    done,
                    coord.reply_to,
                    ClientReply::Committed {
                        request: coord.request,
                        action: id,
                        result: None,
                        submitted_at: coord.submitted_at,
                        green_seq: self.stats.committed,
                    },
                );
            }
        }
    }
}

impl Actor for TpcServer {
    fn handle(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
        let payload = match payload.try_downcast::<Datagram>() {
            Ok(dgram) => {
                let msg = dgram
                    .payload
                    .downcast_ref::<TpcMsg>()
                    .expect("TpcServer received a non-2PC datagram");
                self.on_msg(ctx, dgram.src, msg);
                return;
            }
            Err(p) => p,
        };
        let payload = match payload.try_downcast::<DiskDone>() {
            Ok(done) => {
                self.on_disk_done(ctx, done.token);
                return;
            }
            Err(p) => p,
        };
        match payload.downcast::<ClientRequest>() {
            Some(req) => self.on_client(ctx, req),
            None => panic!("TpcServer received an unknown payload type"),
        }
    }
}

impl std::fmt::Debug for TpcServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TpcServer")
            .field("me", &self.config.me)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

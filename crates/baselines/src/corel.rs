//! COReL (Keidar 1994): total-order multicast plus per-action
//! end-to-end acknowledgements.
//!
//! Each action is multicast through the EVS layer. On (safe, totally
//! ordered) delivery, every server force-writes the action to stable
//! storage and then multicasts an acknowledgement directly to all
//! peers. The action commits — is applied and, at its origin, answered
//! to the client — once acknowledgements from **all** servers have
//! arrived, in delivery order. This is the per-action end-to-end round
//! that the paper's engine eliminates; the forced write at *every*
//! server sits in the critical path, which is what separates the two
//! curves of Figure 5(a) under load even though their single-client
//! latencies coincide (§7).

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;

use serde::{Deserialize, Serialize};
use todr_core::{ActionId, ClientReply, ClientRequest, RequestId, CPU_PER_ACTION};
use todr_db::{Database, Op};
use todr_evs::{EvsCmd, EvsEvent};
use todr_net::{Datagram, NetOp, NodeId};
use todr_sim::{Actor, ActorId, CpuMeter, Ctx, Payload, SimDuration, SimTime};
use todr_storage::{DiskDone, DiskOp, SyncToken};

/// Tuning knobs for a [`CorelServer`].
#[derive(Debug, Clone)]
pub struct CorelConfig {
    /// This server.
    pub me: NodeId,
    /// All replicas (including `me`).
    pub servers: Vec<NodeId>,
    /// CPU cost to process one acknowledgement.
    pub cpu_per_message: SimDuration,
}

impl CorelConfig {
    /// Defaults matching the engine's calibration.
    pub fn new(me: NodeId, servers: Vec<NodeId>) -> Self {
        CorelConfig {
            me,
            servers,
            cpu_per_message: SimDuration::from_micros(30),
        }
    }
}

/// Counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CorelStats {
    /// Actions committed (applied) at this server.
    pub committed: u64,
    /// Forced writes requested.
    pub syncs: u64,
    /// Acknowledgements sent (each is a multicast of n-1 unicasts).
    pub acks_sent: u64,
}

/// A replicated action in flight.
#[derive(Debug, Clone)]
struct CorelAction {
    id: ActionId,
    update: Op,
}

/// Direct (non-group) acknowledgement.
#[derive(Debug, Clone)]
struct CorelAck {
    id: ActionId,
    from: NodeId,
}

/// Per-delivered-action progress.
struct Progress {
    update: Op,
    acks: BTreeSet<NodeId>,
    self_synced: bool,
}

struct PendingReply {
    request: RequestId,
    reply_to: ActorId,
    submitted_at: SimTime,
}

/// A COReL replica.
pub struct CorelServer {
    config: CorelConfig,
    evs: ActorId,
    fabric: ActorId,
    disk: ActorId,
    db: Database,
    next_index: u64,
    /// Delivered actions in total order, committed as a prefix.
    order: VecDeque<ActionId>,
    progress: BTreeMap<ActionId, Progress>,
    pending_replies: BTreeMap<ActionId, PendingReply>,
    next_token: u64,
    pending_syncs: BTreeMap<SyncToken, ActionId>,
    cpu: CpuMeter,
    stats: CorelStats,
}

impl CorelServer {
    /// Creates a server whose group traffic flows through the EVS daemon
    /// `evs`, direct acknowledgements through `fabric`, forced writes
    /// through `disk`.
    pub fn new(config: CorelConfig, evs: ActorId, fabric: ActorId, disk: ActorId) -> Self {
        CorelServer {
            config,
            evs,
            fabric,
            disk,
            db: Database::new(),
            next_index: 0,
            order: VecDeque::new(),
            progress: BTreeMap::new(),
            pending_replies: BTreeMap::new(),
            next_token: 0,
            pending_syncs: BTreeMap::new(),
            cpu: CpuMeter::new(),
            stats: CorelStats::default(),
        }
    }

    /// Counters.
    pub fn stats(&self) -> CorelStats {
        self.stats
    }

    /// Database digest (for cross-replica convergence checks).
    pub fn db_digest(&self) -> u64 {
        self.db.digest()
    }

    fn on_client(&mut self, ctx: &mut Ctx<'_>, req: ClientRequest) {
        self.next_index += 1;
        let id = ActionId {
            server: self.config.me,
            index: self.next_index,
        };
        self.pending_replies.insert(
            id,
            PendingReply {
                request: req.request,
                reply_to: req.reply_to,
                submitted_at: ctx.now(),
            },
        );
        let action = CorelAction {
            id,
            update: req.update,
        };
        ctx.send_now(
            self.evs,
            EvsCmd::Send {
                payload: Rc::new(action),
                size_bytes: req.size_bytes,
            },
        );
    }

    fn on_delivery(&mut self, ctx: &mut Ctx<'_>, action: &CorelAction) {
        if self.progress.contains_key(&action.id) {
            return; // duplicate across a view change
        }
        self.order.push_back(action.id);
        self.progress.insert(
            action.id,
            Progress {
                update: action.update.clone(),
                acks: BTreeSet::new(),
                self_synced: false,
            },
        );
        // Force-write the delivered action, then acknowledge it
        // end-to-end.
        self.next_token += 1;
        let token = SyncToken(self.next_token);
        self.pending_syncs.insert(token, action.id);
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

    fn on_synced(&mut self, ctx: &mut Ctx<'_>, id: ActionId) {
        let me = self.config.me;
        let peers: Vec<NodeId> = self
            .config
            .servers
            .iter()
            .copied()
            .filter(|&n| n != me)
            .collect();
        self.stats.acks_sent += 1;
        ctx.send_now(
            self.fabric,
            NetOp::multicast(me, peers, Rc::new(CorelAck { id, from: me }), 48),
        );
        if let Some(p) = self.progress.get_mut(&id) {
            p.self_synced = true;
            p.acks.insert(me);
        }
        self.try_commit_prefix(ctx);
    }

    fn on_ack(&mut self, ctx: &mut Ctx<'_>, ack: &CorelAck) {
        self.cpu.charge(ctx.now(), self.config.cpu_per_message);
        if let Some(p) = self.progress.get_mut(&ack.id) {
            p.acks.insert(ack.from);
        }
        self.try_commit_prefix(ctx);
    }

    /// Commits the longest fully-acknowledged prefix of the total order.
    fn try_commit_prefix(&mut self, ctx: &mut Ctx<'_>) {
        let n = self.config.servers.len();
        while let Some(&id) = self.order.front() {
            let ready = self
                .progress
                .get(&id)
                .is_some_and(|p| p.self_synced && p.acks.len() == n);
            if !ready {
                break;
            }
            self.order.pop_front();
            let p = self.progress.remove(&id).expect("just checked");
            self.db.apply(&p.update);
            self.stats.committed += 1;
            let done = self.cpu.charge(ctx.now(), CPU_PER_ACTION);
            if let Some(reply) = self.pending_replies.remove(&id) {
                ctx.send_at(
                    done,
                    reply.reply_to,
                    ClientReply::Committed {
                        request: reply.request,
                        action: id,
                        result: None,
                        submitted_at: reply.submitted_at,
                        green_seq: self.stats.committed,
                    },
                );
            }
        }
    }
}

impl Actor for CorelServer {
    fn handle(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
        let payload = match payload.try_downcast::<EvsEvent>() {
            Ok(event) => {
                if let EvsEvent::Deliver(d) = event {
                    let action = d
                        .payload
                        .downcast_ref::<CorelAction>()
                        .expect("CorelServer received a non-COReL group message")
                        .clone();
                    self.on_delivery(ctx, &action);
                }
                return;
            }
            Err(p) => p,
        };
        let payload = match payload.try_downcast::<Datagram>() {
            Ok(dgram) => {
                let ack = dgram
                    .payload
                    .downcast_ref::<CorelAck>()
                    .expect("CorelServer received a non-COReL datagram")
                    .clone();
                self.on_ack(ctx, &ack);
                return;
            }
            Err(p) => p,
        };
        let payload = match payload.try_downcast::<DiskDone>() {
            Ok(done) => {
                if let Some(id) = self.pending_syncs.remove(&done.token) {
                    self.on_synced(ctx, id);
                }
                return;
            }
            Err(p) => p,
        };
        match payload.downcast::<ClientRequest>() {
            Some(req) => self.on_client(ctx, req),
            None => panic!("CorelServer received an unknown payload type"),
        }
    }
}

impl std::fmt::Debug for CorelServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CorelServer")
            .field("me", &self.config.me)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

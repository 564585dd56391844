//! The deterministic shard router: single-shard fast path plus the
//! cross-shard prepare / merge / ordered-commit protocol.

use std::collections::BTreeMap;

use todr_core::{
    ActionId, ClientId, ClientReply, ClientRequest, QuerySemantics, RequestId, UpdateReplyPolicy,
};
use todr_db::keys::{action_footprint, write_set};
use todr_db::{Op, Value};
use todr_net::NodeId;
use todr_sim::{metric, Actor, ActorId, Ctx, Payload, ProtocolEvent, SimDuration, SimTime};

/// The client id the router stamps on its own protocol submissions
/// (prepare markers and commit actions).
pub const ROUTER_CLIENT: ClientId = ClientId(u32::MAX);

/// Deliberately broken router behaviours for the todr-check mutation
/// self-test: each one removes a load-bearing piece of the cross-shard
/// protocol so the serializability oracle can prove it would notice.
#[cfg(feature = "chaos-mutations")]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardChaos {
    /// Release cross-shard commits the instant their timestamps merge,
    /// skipping the per-shard FIFO commit barrier. Two transactions
    /// sharing shards can then reach the participating groups' green
    /// orders in different relative orders — exactly the cross-group
    /// serializability violation the barrier exists to prevent.
    SkipCommitBarrier,
}

/// Where the key space lives: `shards` groups, each with the engine
/// actors of its replicas (in replica order).
#[derive(Debug, Clone)]
pub struct ShardTopology {
    /// Per-group engine actor ids; `contacts.len()` is the shard count.
    pub contacts: Vec<Vec<ActorId>>,
}

impl ShardTopology {
    /// Number of shards (= replication groups).
    pub fn shards(&self) -> u32 {
        self.contacts.len() as u32
    }
}

/// How the router classified a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Route {
    /// Every touched row lives on one shard.
    Single(u32),
    /// Rows span several shards (ascending shard ids).
    Cross(Vec<u32>),
}

/// Classifies a request against `shards` shards from its statically
/// extracted read/write footprint. Requests touching no rows at all
/// (pure [`Op::Noop`]) route to shard 0.
pub fn classify(update: &Op, query: Option<&todr_db::Query>, shards: u32) -> Route {
    let fp = action_footprint(update, query);
    if fp.is_empty() {
        return Route::Single(0);
    }
    let touched: Vec<u32> = fp.shards(shards).into_iter().collect();
    if touched.len() == 1 {
        Route::Single(touched[0])
    } else {
        Route::Cross(touched)
    }
}

/// Splits a cross-shard update into per-group op lists. Fails (with the
/// rejection reason) when the op cannot be attributed row-by-row — a
/// stored procedure reads and writes arbitrary rows at ordering time,
/// and a `Checked` guard must be co-located with everything it
/// conditions.
fn split_update(op: &Op, shards: u32) -> Result<BTreeMap<u32, Vec<Op>>, &'static str> {
    let mut per_group: BTreeMap<u32, Vec<Op>> = BTreeMap::new();
    split_into(op, shards, &mut per_group)?;
    Ok(per_group)
}

fn split_into(op: &Op, shards: u32, out: &mut BTreeMap<u32, Vec<Op>>) -> Result<(), &'static str> {
    match op {
        Op::Noop => Ok(()),
        Op::Batch(ops) => {
            for inner in ops {
                split_into(inner, shards, out)?;
            }
            Ok(())
        }
        Op::Proc { .. } => Err("cross-shard stored procedures are not splittable"),
        other => {
            let mut touched = write_set(other).shards(shards).into_iter();
            let (Some(shard), None) = (touched.next(), touched.next()) else {
                return Err("checked op spans shards; co-locate its guard and writes");
            };
            out.entry(shard).or_default().push(other.clone());
            Ok(())
        }
    }
}

/// Router tuning.
#[derive(Debug, Clone)]
pub struct ShardRouterConfig {
    /// The shard → group map.
    pub topology: ShardTopology,
    /// Resubmit an unanswered prepare/commit after this long (crashed or
    /// partitioned contact replica).
    pub retry_timeout: SimDuration,
    /// Retry-scan period; ticks are only scheduled while transactions
    /// are in flight, so an idle router quiesces.
    pub tick: SimDuration,
    /// Backoff before resubmitting a rejected protocol submission.
    pub reject_backoff: SimDuration,
    /// Deliberate protocol breakage for mutation self-tests.
    #[cfg(feature = "chaos-mutations")]
    pub chaos: Option<ShardChaos>,
}

impl ShardRouterConfig {
    /// Default timing for a topology.
    pub fn new(topology: ShardTopology) -> Self {
        ShardRouterConfig {
            topology,
            retry_timeout: SimDuration::from_millis(2_000),
            tick: SimDuration::from_millis(500),
            reject_backoff: SimDuration::from_millis(100),
            #[cfg(feature = "chaos-mutations")]
            chaos: None,
        }
    }
}

/// Periodic self-message driving retransmission scans.
pub struct RouterTick;

/// One in-flight protocol submission to a group.
#[derive(Debug, Clone, Copy)]
struct SubState {
    /// Submissions so far, the current one included. Saturates (at the
    /// default `retry_timeout`, after 36 virtual hours of retries), so
    /// a phase that keeps failing never reads as a first attempt.
    attempt: u16,
    /// Router request id of the outstanding copy (`None` while backing
    /// off after a rejection).
    rid: Option<u64>,
    /// When to resubmit.
    deadline: SimTime,
}

#[derive(Debug)]
struct Txn {
    request: RequestId,
    reply_to: ActorId,
    submitted_at: SimTime,
    participants: Vec<u32>,
    writes: BTreeMap<u32, Vec<Op>>,
    /// Green position of the prepare marker, per group.
    prepared: BTreeMap<u32, u64>,
    /// Merged timestamp, once every prepare is green.
    ts: Option<u64>,
    /// Whether the commits have been handed to the groups.
    released: bool,
    /// Green position of the commit, per group.
    committed: BTreeMap<u32, u64>,
    /// Outstanding submissions for the current phase, per group.
    sub: BTreeMap<u32, SubState>,
}

impl Txn {
    fn order_key(&self, id: u64) -> (u64, u64) {
        (self.ts.unwrap_or(u64::MAX), id)
    }
}

/// The shard router actor. See the crate docs for the protocol.
pub struct ShardRouter {
    config: ShardRouterConfig,
    next_txn: u64,
    next_rid: u64,
    txns: BTreeMap<u64, Txn>,
    /// Router request id → (txn, group) of the submission awaiting a
    /// reply.
    outstanding: BTreeMap<u64, (u64, u32)>,
    /// Per-shard FIFO commit queues: merged transactions, in release
    /// order at the front and merged-timestamp order behind it.
    queues: BTreeMap<u32, Vec<u64>>,
    tick_scheduled: bool,
}

impl ShardRouter {
    /// Creates a router for the given topology.
    pub fn new(config: ShardRouterConfig) -> Self {
        assert!(
            !config.topology.contacts.is_empty(),
            "topology needs at least one shard"
        );
        assert!(
            config.topology.contacts.iter().all(|c| !c.is_empty()),
            "every shard needs at least one contact engine"
        );
        ShardRouter {
            config,
            next_txn: 0,
            next_rid: 0,
            txns: BTreeMap::new(),
            outstanding: BTreeMap::new(),
            queues: BTreeMap::new(),
            tick_scheduled: false,
        }
    }

    /// Cross-shard transactions still in flight.
    pub fn pending(&self) -> usize {
        self.txns.len()
    }

    fn contact(&self, txn: u64, group: u32, attempt: u16) -> ActorId {
        let replicas = &self.config.topology.contacts[group as usize];
        let mix = txn
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(group))
            .wrapping_add(u64::from(attempt));
        replicas[(mix % replicas.len() as u64) as usize]
    }

    fn ensure_tick(&mut self, ctx: &mut Ctx<'_>) {
        if !self.tick_scheduled && !self.txns.is_empty() {
            self.tick_scheduled = true;
            ctx.send_self_after(self.config.tick, RouterTick);
        }
    }

    fn guard_key(txn: u64) -> String {
        format!("t{txn}")
    }

    /// Builds the phase payload for `(txn, group)`: a prepare is a bare
    /// ordering marker; a commit carries the group's writes behind a
    /// once-only guard so resubmitted copies deterministically abort.
    fn phase_update(txn_id: u64, txn: &Txn, group: u32) -> Op {
        if txn.ts.is_none() {
            return Op::Noop; // prepare marker
        }
        let key = Self::guard_key(txn_id);
        let mut then = txn.writes.get(&group).cloned().unwrap_or_default();
        then.push(Op::Put {
            table: "_txn".to_string(),
            key: key.clone(),
            value: Value::Int(1),
        });
        Op::Checked {
            expect: vec![("_txn".to_string(), key, None)],
            then,
        }
    }

    fn submit(&mut self, ctx: &mut Ctx<'_>, txn_id: u64, group: u32) {
        let Some(txn) = self.txns.get_mut(&txn_id) else {
            return;
        };
        self.next_rid += 1;
        let rid = self.next_rid;
        let state = txn.sub.entry(group).or_insert(SubState {
            attempt: 0,
            rid: None,
            deadline: SimTime::ZERO,
        });
        if let Some(old) = state.rid.take() {
            self.outstanding.remove(&old);
        }
        state.attempt = state.attempt.saturating_add(1);
        state.rid = Some(rid);
        state.deadline = ctx.now() + self.config.retry_timeout;
        let attempt = state.attempt;
        let update = Self::phase_update(txn_id, txn, group);
        let committing = txn.ts.is_some();
        self.outstanding.insert(rid, (txn_id, group));
        let target = self.contact(txn_id, group, attempt);
        let req = ClientRequest {
            request: RequestId(rid),
            client: ROUTER_CLIENT,
            reply_to: ctx.self_id(),
            query: None,
            update,
            query_semantics: QuerySemantics::Strict,
            read_consistency: None,
            reply_policy: UpdateReplyPolicy::OnGreen,
            size_bytes: if committing { 200 } else { 64 },
        };
        ctx.send_now(target, req);
        if attempt > 1 {
            ctx.metrics().incr(metric!("shard.retries"), 1);
        }
        let sent = if committing {
            metric!("shard.commits_sent")
        } else {
            metric!("shard.prepares_sent")
        };
        ctx.metrics().incr(sent, 1);
    }

    fn start_cross(&mut self, ctx: &mut Ctx<'_>, req: ClientRequest, groups: Vec<u32>) {
        let writes = match split_update(&req.update, self.config.topology.shards()) {
            Ok(w) => w,
            Err(reason) => {
                ctx.metrics().incr(metric!("shard.rejected"), 1);
                ctx.send_now(
                    req.reply_to,
                    ClientReply::Rejected {
                        request: req.request,
                        reason,
                    },
                );
                return;
            }
        };
        if req.query.is_some() {
            ctx.metrics().incr(metric!("shard.rejected"), 1);
            ctx.send_now(
                req.reply_to,
                ClientReply::Rejected {
                    request: req.request,
                    reason: "cross-shard queries are not supported",
                },
            );
            return;
        }
        self.next_txn += 1;
        let txn_id = self.next_txn;
        ctx.metrics().incr(metric!("shard.cross_routed"), 1);
        let participants_mask: u64 = groups.iter().fold(0, |m, &g| m | (1u64 << (g % 64)));
        ctx.emit(ProtocolEvent::CrossShardStart {
            txn: txn_id,
            participants: participants_mask,
        });
        self.txns.insert(
            txn_id,
            Txn {
                request: req.request,
                reply_to: req.reply_to,
                submitted_at: ctx.now(),
                participants: groups.clone(),
                writes,
                prepared: BTreeMap::new(),
                ts: None,
                released: false,
                committed: BTreeMap::new(),
                sub: BTreeMap::new(),
            },
        );
        for g in groups {
            self.submit(ctx, txn_id, g);
        }
        self.ensure_tick(ctx);
    }

    fn enqueue_merged(&mut self, txn_id: u64) {
        let txn = &self.txns[&txn_id];
        let key = txn.order_key(txn_id);
        let participants = txn.participants.clone();
        for g in participants {
            let queue = self.queues.entry(g).or_default();
            let pos = queue
                .iter()
                .position(|&other| {
                    let o = &self.txns[&other];
                    !o.released && o.order_key(other) > key
                })
                .unwrap_or(queue.len());
            queue.insert(pos, txn_id);
        }
    }

    fn try_release(&mut self, ctx: &mut Ctx<'_>) {
        loop {
            let mut releasable: Option<u64> = None;
            for queue in self.queues.values() {
                let Some(&head) = queue.first() else { continue };
                let txn = &self.txns[&head];
                if txn.released || txn.ts.is_none() {
                    continue;
                }
                if txn
                    .participants
                    .iter()
                    .all(|g| self.queues.get(g).and_then(|q| q.first()) == Some(&head))
                {
                    releasable = Some(head);
                    break;
                }
            }
            let Some(txn_id) = releasable else { break };
            self.release(ctx, txn_id);
        }
    }

    fn release(&mut self, ctx: &mut Ctx<'_>, txn_id: u64) {
        let txn = self.txns.get_mut(&txn_id).expect("releasing a live txn");
        txn.released = true;
        // Drop any straggler prepare submissions so a late prepare reply
        // cannot be mistaken for a commit reply.
        let stale: Vec<u64> = txn.sub.values().filter_map(|s| s.rid).collect();
        txn.sub.clear();
        for rid in stale {
            self.outstanding.remove(&rid);
        }
        let txn = self.txns.get(&txn_id).expect("releasing a live txn");
        let participants = txn.participants.clone();
        for g in participants {
            self.submit(ctx, txn_id, g);
        }
    }

    fn handle_committed(&mut self, ctx: &mut Ctx<'_>, rid: u64, green_seq: u64) {
        let Some((txn_id, group)) = self.outstanding.remove(&rid) else {
            return; // late reply for a resubmitted or finished phase
        };
        let Some(txn) = self.txns.get_mut(&txn_id) else {
            return;
        };
        let attempt = txn.sub.get(&group).map_or(1, |s| s.attempt);
        txn.sub.remove(&group);
        if txn.ts.is_none() {
            // Prepare phase.
            if txn.prepared.contains_key(&group) {
                return;
            }
            txn.prepared.insert(group, green_seq);
            ctx.emit(ProtocolEvent::CrossShardPrepared {
                txn: txn_id,
                group,
                green_seq,
            });
            if txn.prepared.len() == txn.participants.len() {
                // Deterministic merge of the participating groups' green
                // positions: the transaction's cross-group timestamp.
                let ts = txn.prepared.values().copied().max().unwrap_or(0);
                txn.ts = Some(ts);
                ctx.emit(ProtocolEvent::CrossShardMerged { txn: txn_id, ts });
                #[cfg(feature = "chaos-mutations")]
                if self.config.chaos == Some(ShardChaos::SkipCommitBarrier) {
                    self.release(ctx, txn_id);
                    return;
                }
                self.enqueue_merged(txn_id);
                self.try_release(ctx);
            }
        } else {
            // Commit phase.
            if txn.committed.contains_key(&group) {
                return;
            }
            txn.committed.insert(group, green_seq);
            ctx.emit(ProtocolEvent::CrossShardCommitted {
                txn: txn_id,
                group,
                green_seq,
                attempt,
            });
            if let Some(queue) = self.queues.get_mut(&group) {
                if queue.first() == Some(&txn_id) {
                    queue.remove(0);
                }
            }
            if txn.committed.len() == txn.participants.len() {
                let latency = ctx.now().saturating_since(txn.submitted_at);
                ctx.metrics().observe(metric!("shard.txn_latency"), latency);
                ctx.metrics().incr(metric!("shard.txns_applied"), 1);
                ctx.emit(ProtocolEvent::CrossShardApplied { txn: txn_id });
                let txn = self.txns.remove(&txn_id).expect("finishing a live txn");
                for state in txn.sub.values() {
                    if let Some(old) = state.rid {
                        self.outstanding.remove(&old);
                    }
                }
                ctx.send_now(
                    txn.reply_to,
                    ClientReply::Committed {
                        request: txn.request,
                        action: ActionId {
                            server: NodeId::new(u32::MAX),
                            index: txn_id,
                        },
                        result: None,
                        submitted_at: txn.submitted_at,
                        green_seq: txn.ts.unwrap_or(0),
                    },
                );
            }
            self.try_release(ctx);
        }
    }

    fn handle_rejected(&mut self, ctx: &mut Ctx<'_>, rid: u64) {
        let Some((txn_id, group)) = self.outstanding.remove(&rid) else {
            return;
        };
        if let Some(txn) = self.txns.get_mut(&txn_id) {
            if let Some(state) = txn.sub.get_mut(&group) {
                state.rid = None;
                state.deadline = ctx.now() + self.config.reject_backoff;
            }
        }
        self.ensure_tick(ctx);
    }

    fn tick(&mut self, ctx: &mut Ctx<'_>) {
        self.tick_scheduled = false;
        let now = ctx.now();
        let due: Vec<(u64, u32)> = self
            .txns
            .iter()
            .flat_map(|(&id, txn)| {
                txn.sub
                    .iter()
                    .filter(move |(_, s)| s.deadline <= now)
                    .map(move |(&g, _)| (id, g))
            })
            .collect();
        for (txn_id, group) in due {
            self.submit(ctx, txn_id, group);
        }
        self.ensure_tick(ctx);
    }
}

impl Actor for ShardRouter {
    fn handle(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
        let payload = match payload.try_downcast::<RouterTick>() {
            Ok(_) => {
                self.tick(ctx);
                return;
            }
            Err(p) => p,
        };
        let payload = match payload.try_downcast::<ClientRequest>() {
            Ok(req) => {
                match classify(
                    &req.update,
                    req.query.as_ref(),
                    self.config.topology.shards(),
                ) {
                    Route::Single(shard) => {
                        ctx.metrics().incr(metric!("shard.single_routed"), 1);
                        let replicas = &self.config.topology.contacts[shard as usize];
                        let target = replicas[req.client.0 as usize % replicas.len()];
                        ctx.send_now(target, req);
                    }
                    Route::Cross(groups) => self.start_cross(ctx, req, groups),
                }
                return;
            }
            Err(p) => p,
        };
        match payload.downcast::<ClientReply>() {
            Some(ClientReply::Committed {
                request, green_seq, ..
            }) => self.handle_committed(ctx, request.0, green_seq),
            Some(ClientReply::Rejected { request, .. }) => self.handle_rejected(ctx, request.0),
            Some(ClientReply::QueryAnswer { .. }) => {}
            None => panic!("router received an unknown payload type"),
        }
    }
}

impl std::fmt::Debug for ShardRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardRouter")
            .field("pending", &self.txns.len())
            .finish_non_exhaustive()
    }
}

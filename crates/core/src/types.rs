//! Public message and configuration types of the engine.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};
use todr_db::{Database, Op, Query, QueryResult, ReadConsistency};
use todr_net::NodeId;
use todr_sim::{ActorId, SimDuration, SimTime};

use crate::action::{ActionId, ClientId};
use crate::quorum::PrimComponent;
use crate::semantics::{QuerySemantics, UpdateReplyPolicy};

/// The knowledge level attached to an action at one server (§3, Figure
/// 1/3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Color {
    /// Ordered within the local component only.
    Red,
    /// Delivered in a transitional configuration of a primary component:
    /// globally ordered, but the server cannot tell whether the next
    /// primary saw it.
    Yellow,
    /// Global order known; applied to the database.
    Green,
    /// Known green at every server; discardable.
    White,
}

/// Identifier a client attaches to a request to match the reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RequestId(pub u64);

/// A client request submitted to a replication server.
#[derive(Debug, Clone)]
pub struct ClientRequest {
    /// Request correlation id (unique per client).
    pub request: RequestId,
    /// The submitting client.
    pub client: ClientId,
    /// The actor to send the [`ClientReply`] to.
    pub reply_to: ActorId,
    /// Optional query part, answered at this server.
    pub query: Option<Query>,
    /// Update part ([`Op::Noop`] for query-only requests).
    pub update: Op,
    /// How queries should be served (§6).
    pub query_semantics: QuerySemantics,
    /// When the update part may be acknowledged (§6).
    pub reply_policy: UpdateReplyPolicy,
    /// Consistency tier for a query-only request. `None` keeps the
    /// legacy [`QuerySemantics`] dispatch; `Some(tier)` selects the
    /// tiered read path (lease-local or ordered linearizable,
    /// green-snapshot, or red-overlay — see
    /// [`ReadConsistency`]). Ignored for requests with an update part.
    pub read_consistency: Option<ReadConsistency>,
    /// Modelled request size in bytes.
    pub size_bytes: u32,
}

/// The engine's answer to a [`ClientRequest`].
#[derive(Debug, Clone)]
pub enum ClientReply {
    /// The action reached the global persistent order (or, under a
    /// relaxed reply policy, the locally sufficient order) and was
    /// applied.
    Committed {
        /// The request this answers.
        request: RequestId,
        /// The action id the request was assigned.
        action: ActionId,
        /// Answer to the query part, if one was present.
        result: Option<QueryResult>,
        /// Virtual time at which the request was submitted.
        submitted_at: SimTime,
        /// The replying replica's green count at commit time — the
        /// action's position in the group's global persistent order. 0
        /// for replies issued before global ordering (the relaxed
        /// [`UpdateReplyPolicy::OnRed`] path). External coordinators
        /// (the todr-shard router) merge these per-group positions to
        /// order cross-group actions.
        green_seq: u64,
    },
    /// Answer to a weak or dirty query (no global ordering involved).
    QueryAnswer {
        /// The request this answers.
        request: RequestId,
        /// The result.
        result: QueryResult,
        /// Whether red actions were visible ([`QuerySemantics::Dirty`]).
        dirty: bool,
    },
    /// The request cannot be served under the requested semantics right
    /// now (e.g. a strict query in a non-primary component would block
    /// indefinitely and the client asked not to wait).
    Rejected {
        /// The request this answers.
        request: RequestId,
        /// Human-readable reason.
        reason: &'static str,
    },
}

/// Harness / operator control events for an engine actor.
#[derive(Debug, Clone)]
pub enum EngineCtl {
    /// Simulated process crash: volatile state is lost, stable storage
    /// survives.
    Crash,
    /// Simulated process crash with a **torn write**: the log append in
    /// flight at the crash instant reaches the platter only partially
    /// (a random durable prefix of the staged entries, then one record
    /// cut mid-payload). Drawn from the simulation's dedicated fault
    /// RNG stream, so the tear replays byte-identically.
    CrashTorn,
    /// Recover from stable storage (CodeSegment A.13) and rejoin the
    /// group.
    Recover,
    /// Damage the replica's persisted log in place (latent media fault;
    /// surfaces at the next recovery scan). Drawn from the fault RNG
    /// stream.
    InjectFault {
        /// Which kind of media fault to inject.
        fault: StorageFault,
    },
    /// Begin the online-join bootstrap (§5.1, CodeSegment 5.2): connect
    /// to `via`, obtain a `PERSISTENT_JOIN` + database transfer, then
    /// join the replicated group.
    StartJoin {
        /// An existing member to use as the first representative.
        via: NodeId,
    },
    /// Broadcast a `PERSISTENT_LEAVE` for this server (§5.1).
    Leave,
    /// Administratively remove a (dead) replica by broadcasting a
    /// `PERSISTENT_LEAVE` on its behalf (footnote 3 of the paper).
    RemoveReplica {
        /// The replica to remove.
        dead: NodeId,
    },
}

/// A latent storage media fault injectable via [`EngineCtl::InjectFault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageFault {
    /// Flip one random bit in one random persisted log record.
    BitFlip,
    /// Replace one random persisted log record's payload with an
    /// earlier record's payload, keeping the current-looking header.
    StaleSector,
}

/// The green prefix as this database at this count and these cuts: the
/// base a joiner's representative ships (§5.1), an exchange's snapshot
/// fallback multicasts, and the `base` record a server's log builds on
/// (its encoding is the record's bytes).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GreenBase {
    /// Green database snapshot.
    pub db: Database,
    /// Number of green actions incorporated in `db`.
    pub green_count: u64,
    /// Per creator, the green cut `db` incorporates (for duplicate
    /// suppression of already-incorporated actions).
    pub green_cut: BTreeMap<NodeId, u64>,
}

impl GreenBase {
    /// Modelled wire size in bytes.
    pub fn size_bytes(&self) -> u32 {
        512 + self.db.row_count() as u32 * 64
    }
}

/// Messages exchanged directly over the fabric, outside the group: the
/// online-join database transfer, fast-path acks and green-line
/// advertisements.
#[derive(Debug, Clone)]
pub enum TransferWire {
    /// Joiner → member: please represent me (or resume my transfer).
    JoinRequest {
        /// The joining server.
        joiner: NodeId,
    },
    /// Representative → joiner: the current green base and the
    /// bookkeeping needed to start replicating.
    Snapshot {
        /// The representative's green state.
        base: GreenBase,
        /// Green lines as known at the representative.
        green_lines: BTreeMap<NodeId, u64>,
        /// The server set including the joiner.
        server_set: BTreeSet<NodeId>,
        /// The representative's last known primary component.
        prim_component: PrimComponent,
    },
    /// Member → action origin: "I hold the sequenced action `id`" — an
    /// eager-receipt acknowledgement for the commit fast path. The
    /// origin fast-commits once the ackers (plus itself) form a
    /// weighted quorum of the current primary component. Point-to-point
    /// like the join transfer, so it skips the group ordering machinery
    /// entirely (and its latency): one LAN hop after the sequenced
    /// multicast.
    FastAck {
        /// The receipted action.
        id: ActionId,
    },
    /// Member → rest of the server set: "my green line has durably
    /// reached `line`". The advertisement of a replica that created no
    /// action (whose `green_line` field is the paper's carrier) for a
    /// whole checkpoint interval, so the white line can pass it. Sent
    /// only after a forced write covering the line, and over the fabric
    /// like [`TransferWire::FastAck`]: no sequencer round, so it never
    /// holds up anyone's action.
    GreenLine {
        /// The sender's durable green count.
        line: u64,
    },
}

/// A deliberate, compile-time-gated invariant breakage used by the
/// `todr-check` mutation self-test to prove the checking oracles have
/// teeth. Only exists under the `chaos-mutations` feature; release
/// builds cannot even construct one.
#[cfg(feature = "chaos-mutations")]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosMutation {
    /// Mark actions delivered in a *transitional* configuration green
    /// immediately instead of yellow — i.e. advance the green line
    /// without knowing whether the next primary component saw the
    /// action. This is precisely the unsafe shortcut §3's yellow color
    /// exists to prevent: after a partition the majority side can
    /// install a primary that orders different actions at the same
    /// green positions, violating global total order.
    PrematureGreen,
    /// Trust the persisted log blindly on recovery: skip the checksum /
    /// epoch integrity scan, and when an entry fails to even decode,
    /// silently truncate the log from that point and carry on — the
    /// classic "recovery that never met a bad disk". A stale sector
    /// then replays as a duplicate entry and the recovered replica
    /// rejoins with a silently wrong green prefix, which the durability
    /// oracle must catch.
    SkipChecksumVerify,
    /// Fast-commit without checking the in-flight conflict set: every
    /// [`UpdateReplyPolicy::Fast`] action is acknowledged at its FastAck
    /// quorum even when a conflicting red/yellow action is in flight.
    /// The reply may then reflect a prefix that differs from the final
    /// green order — exactly what the `FastCommitRevoked` oracle in
    /// todr-check exists to catch.
    SkipConflictCheck,
    /// Answer `Linearizable` reads from the local green database
    /// regardless of lease validity, membership state, or in-flight
    /// conflicting writes — a "read lease" that never expires. A
    /// partitioned minority replica then keeps serving reads while the
    /// majority commits new writes, returning stale values that the
    /// `StaleLinearizableRead` oracle in todr-check exists to catch.
    ServeReadWithoutLease,
    /// Reload the green order from the log with its last two entries
    /// swapped. The database replays in the right order, so only the
    /// recovered replica's green tail is wrong, and no event shows it:
    /// recovery announces a green count, not the ids. The check of the
    /// reloaded prefix against the other replicas' claims must catch it.
    SwapReloadedGreens,
    /// Green the yellow and red sets at installation newest first.
    /// Every member greens the same sequence, so Theorem 1 still holds,
    /// but a creator with two pending actions has its older one skipped
    /// (its green cut is already past it): the green order has a gap in
    /// that creator's indices, which only the Theorem 2 (FIFO) clause
    /// sees.
    InstallNewestFirst,
}

/// How long a granted read lease remains valid without renewal. A
/// deployment must satisfy `2·hb_interval + LEASE_DURATION <
/// fail_timeout` so a partitioned holder's lease drains before the
/// surviving majority can install a new configuration and accept new
/// writes.
pub const LEASE_DURATION: SimDuration = SimDuration::from_millis(60);

/// Modelled CPU time to process one action at a replica (ordering,
/// logging, applying). This is what caps the delayed-writes throughput
/// in Figure 5(b).
pub const CPU_PER_ACTION: SimDuration = SimDuration::from_micros(380);

/// Tuning knobs and identity of a [`ReplicationEngine`](crate::ReplicationEngine).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// This server's node id.
    pub me: NodeId,
    /// The initial replica set (the paper's static set `S`; it can
    /// change later through joins/leaves).
    pub server_set: Vec<NodeId>,
    /// Per-server voting weights for dynamic linear voting (absent =>
    /// weight 1).
    pub weights: BTreeMap<NodeId, u64>,
    /// Upper bound on action bodies retained in memory (red set plus
    /// un-garbage-collected green tail). While at the bound, new local
    /// update requests are rejected with a retryable error — this bounds
    /// memory growth during long non-primary partitions, where red
    /// actions accumulate with no white line to discard them. `0`
    /// disables the bound.
    pub max_retained_bodies: usize,
    /// Whether this engine starts as a member (true) or joins online
    /// later via [`EngineCtl::StartJoin`] (false).
    pub initial_member: bool,
    /// Enable the commutativity commit fast path: actions submitted
    /// with [`UpdateReplyPolicy::Fast`] whose footprint is disjoint
    /// from every in-flight action are acknowledged after one forced
    /// write plus one multicast round (sequencing + FastAck quorum),
    /// without waiting for safe delivery / green ordering (see
    /// [`EngineConfig::consumes_receipts`]). Off by default.
    pub fast_path: bool,
    /// Enable LARK-style **read leases**: inside a regular primary
    /// configuration every member grants itself an epoch-sealed lease
    /// (renewed by `EvsEvent::LeaseRenew` heartbeat evidence, expired
    /// conservatively on any view change) and answers
    /// [`ReadConsistency::Linearizable`] queries locally, parking
    /// behind receipted-but-not-yet-green conflicting writes. The EVS
    /// daemon must run with `lease_heartbeats` (and see
    /// [`EngineConfig::consumes_receipts`]). Off by default.
    pub read_leases: bool,
    /// Auto-checkpoint period, in green actions: every `interval`-th
    /// green action triggers white-line garbage collection and log
    /// compaction (`0` disables; see
    /// [`ReplicationEngine::checkpoint`](crate::ReplicationEngine::checkpoint)).
    pub checkpoint_interval: u64,
    /// The injected invariant breakage, if any (`chaos-mutations`
    /// builds only).
    #[cfg(feature = "chaos-mutations")]
    pub chaos: Option<ChaosMutation>,
}

impl EngineConfig {
    /// A default configuration for server `me` among `server_set`.
    pub fn new(me: NodeId, server_set: Vec<NodeId>) -> Self {
        EngineConfig {
            me,
            server_set,
            weights: BTreeMap::new(),
            max_retained_bodies: 1 << 16,
            fast_path: false,
            read_leases: false,
            initial_member: true,
            checkpoint_interval: 1024,
            #[cfg(feature = "chaos-mutations")]
            chaos: None,
        }
    }

    /// Whether the engine consumes eager EVS receipts: the fast path
    /// decides its commits on them, and read leases park behind the
    /// writes they mark red. The node's EVS daemon must then run with
    /// `eager_receipts`.
    pub fn consumes_receipts(&self) -> bool {
        self.fast_path || self.read_leases
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn color_ordering_matches_knowledge_progression() {
        assert!(Color::Red < Color::Yellow);
        assert!(Color::Yellow < Color::Green);
        assert!(Color::Green < Color::White);
    }

    #[test]
    fn engine_config_defaults() {
        let nodes: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        let cfg = EngineConfig::new(nodes[0], nodes.clone());
        assert!(cfg.initial_member);
        assert_eq!(cfg.server_set.len(), 3);
        assert!(cfg.weights.is_empty());
    }
}

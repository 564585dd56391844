//! Closed-loop clients, as in the paper's evaluation (§7): each client
//! keeps exactly one request outstanding — "the next action from a
//! client being introduced immediately after the previous action from
//! that client is completed".

use todr_core::{
    ClientId, ClientReply, ClientRequest, QuerySemantics, ReadConsistency, RequestId,
    UpdateReplyPolicy,
};
use todr_db::keys::shard_of;
use todr_db::{Op, Query, Value};
use todr_sim::{Actor, ActorId, Ctx, Payload, SimTime};

use crate::metrics::LatencyStats;

/// What kind of requests a client issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 200-byte update actions (the paper's workload: "each action is
    /// contained in 200 bytes, e.g. an SQL statement").
    Updates,
    /// Commutative increments (for relaxed-semantics experiments).
    Increments,
    /// Timestamped puts (last-writer-wins).
    TimestampPuts,
}

/// Client tuning.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Request kind.
    pub workload: Workload,
    /// Reply policy passed to the engine.
    pub reply_policy: UpdateReplyPolicy,
    /// Samples recorded before this instant are discarded (warm-up).
    pub record_from: SimTime,
    /// Stop issuing after this many commits (`None` = run forever).
    pub max_requests: Option<u64>,
    /// Modelled action size in bytes.
    pub action_bytes: u32,
    /// Percentage of requests (0–100) aimed at a single hot key shared
    /// by every client, deterministically interleaved; the rest target
    /// per-client keys. Cross-client writes to the hot key conflict,
    /// which demotes [`UpdateReplyPolicy::Fast`] submissions to the
    /// green path — the contention axis of experiment A11.
    pub conflict_pct: u8,
    /// Percentage of requests (0–100) that are *reads* (query-only,
    /// `Op::Noop`), deterministically interleaved with the writes —
    /// the YCSB-style mix axis of experiment A12.
    pub read_pct: u8,
    /// Consistency tier attached to read requests. `None` issues legacy
    /// strict-semantics queries (byte-identical to the pre-tier
    /// streams).
    pub read_consistency: Option<ReadConsistency>,
    /// When set, reads and writes draw their keys from a shared
    /// Zipfian-skewed key space instead of the per-client/hot-key
    /// scheme.
    pub zipfian: Option<ZipfianKeys>,
    /// When set, the client runs the shard-pool workload: every request
    /// draws a shard uniformly and a key from that shard's pool (so the
    /// shard each request lands on is explicit rather than an accident
    /// of hashing), and out of every 1000 requests this many are
    /// cross-shard transactions — two puts on two distinct shards,
    /// always submitted [`UpdateReplyPolicy::OnGreen`]. With one shard
    /// everything is single-shard by construction. Such a client must
    /// be routed ([`crate::cluster::Cluster::attach_routed_client`]).
    pub cross_permille: Option<u32>,
}

/// Zipfian key-popularity model for YCSB-style workloads. Sampling is
/// fully deterministic: a splitmix64 hash of `(client, request)` picks
/// a quantile in a precomputed harmonic CDF — no random-number crate.
#[derive(Debug, Clone)]
pub struct ZipfianKeys {
    /// Number of distinct keys in the shared key space.
    pub keys: u32,
    /// Skew parameter θ (YCSB's default is 0.99; 0 is uniform).
    pub theta: f64,
}

impl ZipfianKeys {
    /// The YCSB default: θ = 0.99 over `keys` keys.
    pub fn ycsb(keys: u32) -> Self {
        ZipfianKeys { keys, theta: 0.99 }
    }

    /// The cumulative distribution over key ranks.
    fn cdf(&self) -> Vec<f64> {
        let n = self.keys.max(1);
        let mut weights: Vec<f64> = (1..=n)
            .map(|r| 1.0 / f64::from(r).powf(self.theta))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        for w in &mut weights {
            acc += *w / total;
            *w = acc;
        }
        weights
    }
}

/// SplitMix64: a tiny, stable hash/PRNG step (public-domain algorithm),
/// enough to turn a deterministic counter into a uniform quantile.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            workload: Workload::Updates,
            read_consistency: None,
            reply_policy: UpdateReplyPolicy::OnGreen,
            record_from: SimTime::ZERO,
            max_requests: None,
            action_bytes: 200,
            conflict_pct: 0,
            read_pct: 0,
            zipfian: None,
            cross_permille: None,
        }
    }
}

/// Kick-off message for a client actor.
pub struct StartClient;

/// Aggregated view of one client's progress.
#[derive(Debug, Clone, Default)]
pub struct ClientStats {
    /// Requests acknowledged as committed.
    pub committed: u64,
    /// Committed inside the recording window.
    pub recorded: u64,
    /// Requests rejected by the engine.
    pub rejected: u64,
    /// Latency samples (submit → commit), recording window only.
    pub latency: LatencyStats,
    /// Reads answered (any tier).
    pub reads: u64,
    /// Reads answered inside the recording window.
    pub reads_recorded: u64,
    /// Read latency samples (issue → answer), recording window only.
    pub read_latency: LatencyStats,
}

/// How many pre-computed keys each shard's pool holds.
const POOL_KEYS: usize = 8;

/// Scans key names (`x0`, `x1`, …) until every shard's pool holds
/// `per_shard` keys proven to hash there. Total over the key space by
/// construction; terminates because FNV-1a spreads short ascii keys
/// across residues quickly.
fn key_pools(shards: u32, per_shard: usize) -> Vec<Vec<String>> {
    let mut pools: Vec<Vec<String>> = vec![Vec::new(); shards as usize];
    let mut j = 0u64;
    while pools.iter().any(|p| p.len() < per_shard) {
        let key = format!("x{j}");
        let s = shard_of("bench", &key, shards) as usize;
        if pools[s].len() < per_shard {
            pools[s].push(key);
        }
        j += 1;
    }
    pools
}

/// A closed-loop client attached to one replication server, or to the
/// shard router in front of all of them.
pub struct ClosedLoopClient {
    id: ClientId,
    /// Where requests go: a replica's engine or the shard router.
    target: ActorId,
    config: ClientConfig,
    next_request: u64,
    stats: ClientStats,
    running: bool,
    /// Issue instant of the outstanding request when it is a read
    /// (`None` while a write is outstanding). Reads can come back as
    /// either `QueryAnswer` (local tiers) or `Committed` (ordered
    /// fallback), so the reply type alone cannot classify them.
    outstanding_read_at: Option<SimTime>,
    /// Precomputed Zipfian CDF over key ranks (empty when uniform).
    zipf_cdf: Vec<f64>,
    /// `pools[s]` holds keys proven (via [`shard_of`]) to live on shard
    /// `s` (empty outside the shard-pool workload).
    pools: Vec<Vec<String>>,
}

impl ClosedLoopClient {
    /// Creates a client sending to `target` in a deployment of `shards`
    /// shards; send it [`StartClient`] to begin.
    pub fn new(id: ClientId, target: ActorId, shards: u32, config: ClientConfig) -> Self {
        let zipf_cdf = config.zipfian.as_ref().map(|z| z.cdf()).unwrap_or_default();
        let pools = match config.cross_permille {
            Some(_) => key_pools(shards, POOL_KEYS),
            None => Vec::new(),
        };
        ClosedLoopClient {
            id,
            target,
            config,
            next_request: 0,
            stats: ClientStats::default(),
            running: false,
            outstanding_read_at: None,
            zipf_cdf,
            pools,
        }
    }

    /// Progress so far.
    pub fn stats(&self) -> &ClientStats {
        &self.stats
    }

    /// Whether a request it issued is still unanswered (committed, read
    /// or rejected). After a stop and a drain, such a client is stalled
    /// for good: it has no timeout and never re-sends.
    pub fn awaiting_reply(&self) -> bool {
        let s = &self.stats;
        self.next_request > s.committed + s.reads + s.rejected
    }

    /// Stops the closed loop: no further requests are issued after the
    /// one currently outstanding (used to quiesce a cluster before
    /// convergence checks).
    pub fn stop(&mut self) {
        self.running = false;
    }

    /// The shard-pool workload's only "randomness": a pure function of
    /// (client id, request number), so runs replay exactly.
    fn pool_hash(&self) -> u64 {
        splitmix64((u64::from(self.id.0) << 32) | self.next_request)
    }

    /// The shard the current shard-pool request's (first) key lives on.
    fn pool_shard(&self, h: u64) -> usize {
        ((h >> 10) % self.pools.len() as u64) as usize
    }

    /// The key the current request targets. The shard-pool workload
    /// draws a shard, then a key from its pool; with a Zipfian model the
    /// key space is shared and skew-sampled; otherwise hot-key requests
    /// are spread evenly through the run (deterministic, so replays and
    /// cross-config comparisons stay exact).
    fn pick_key(&self) -> String {
        if !self.pools.is_empty() {
            let h = self.pool_hash();
            return self.pools[self.pool_shard(h)][((h >> 32) as usize) % POOL_KEYS].clone();
        }
        if !self.zipf_cdf.is_empty() {
            let h = splitmix64(self.id.0 as u64 ^ self.next_request.rotate_left(17));
            // Top 11 bits discarded: f64 holds 53 mantissa bits.
            let u = (h >> 11) as f64 / (1u64 << 53) as f64;
            let rank = self.zipf_cdf.partition_point(|&c| c < u);
            return format!("z{rank}");
        }
        if (self.next_request % 100) < u64::from(self.config.conflict_pct) {
            "hot".to_string()
        } else {
            format!("c{}-{}", self.id.0, self.next_request % 64)
        }
    }

    /// The second shard and put of a cross-shard transaction, when the
    /// shard-pool workload makes the current request one.
    fn cross_shard_put(&self) -> Option<Op> {
        let shards = self.pools.len();
        let h = self.pool_hash();
        if shards < 2 || h % 1000 >= u64::from(self.config.cross_permille?) {
            return None;
        }
        let hop = 1 + ((h >> 20) % (shards as u64 - 1)) as usize;
        let shard_b = (self.pool_shard(h) + hop) % shards;
        let key_b = self.pools[shard_b][((h >> 40) as usize) % POOL_KEYS].clone();
        Some(Op::put("bench", key_b, Value::Int((h >> 48) as i64)))
    }

    fn build_update(&self) -> Op {
        let key = self.pick_key();
        match self.config.workload {
            Workload::Updates => {
                // Pad the value so the modelled 200-byte action carries
                // a realistically sized payload.
                Op::put("bench", key, Value::Bytes(vec![0xAB; 160]))
            }
            Workload::Increments => Op::incr("bench", key, 1),
            Workload::TimestampPuts => Op::ts_put(
                "bench",
                key,
                Value::Int(self.next_request as i64),
                self.next_request,
            ),
        }
    }

    fn issue(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(max) = self.config.max_requests {
            if self.next_request >= max {
                self.running = false;
                return;
            }
        }
        self.next_request += 1;
        let is_read = (self.next_request % 100) < u64::from(self.config.read_pct);
        let req = if is_read {
            self.outstanding_read_at = Some(ctx.now());
            ClientRequest {
                request: RequestId(self.next_request),
                client: self.id,
                reply_to: ctx.self_id(),
                query: Some(Query::get("bench", self.pick_key())),
                update: Op::Noop,
                query_semantics: QuerySemantics::Strict,
                read_consistency: self.config.read_consistency,
                reply_policy: UpdateReplyPolicy::OnGreen,
                size_bytes: 64,
            }
        } else {
            self.outstanding_read_at = None;
            // Cross-shard transactions always take the router's full
            // prepare/commit path, whatever the single-shard policy.
            let (update, reply_policy) = match self.cross_shard_put() {
                Some(second) => (
                    Op::Batch(vec![self.build_update(), second]),
                    UpdateReplyPolicy::OnGreen,
                ),
                None => (self.build_update(), self.config.reply_policy),
            };
            ClientRequest {
                request: RequestId(self.next_request),
                client: self.id,
                reply_to: ctx.self_id(),
                query: None,
                update,
                query_semantics: QuerySemantics::Strict,
                read_consistency: None,
                reply_policy,
                size_bytes: self.config.action_bytes,
            }
        };
        ctx.send_now(self.target, req);
    }

    fn note_read_done(&mut self, now: SimTime, issued_at: SimTime) {
        self.stats.reads += 1;
        if issued_at >= self.config.record_from {
            self.stats.reads_recorded += 1;
            self.stats
                .read_latency
                .record(now.saturating_since(issued_at));
        }
    }
}

impl Actor for ClosedLoopClient {
    fn handle(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
        let payload = match payload.try_downcast::<StartClient>() {
            Ok(_) => {
                if !self.running {
                    self.running = true;
                    self.issue(ctx);
                }
                return;
            }
            Err(p) => p,
        };
        match payload.downcast::<ClientReply>() {
            Some(ClientReply::Committed { submitted_at, .. }) => {
                if let Some(at) = self.outstanding_read_at.take() {
                    // An ordered-path read: the commit reply answers it.
                    self.note_read_done(ctx.now(), at);
                } else {
                    self.stats.committed += 1;
                    if submitted_at >= self.config.record_from {
                        self.stats.recorded += 1;
                        self.stats
                            .latency
                            .record(ctx.now().saturating_since(submitted_at));
                    }
                }
                if self.running {
                    self.issue(ctx);
                }
            }
            Some(ClientReply::QueryAnswer { .. }) => {
                if let Some(at) = self.outstanding_read_at.take() {
                    self.note_read_done(ctx.now(), at);
                }
                if self.running {
                    self.issue(ctx);
                }
            }
            Some(ClientReply::Rejected { .. }) => {
                self.outstanding_read_at = None;
                self.stats.rejected += 1;
                // Closed loop ends on rejection; the harness restarts
                // clients explicitly when that matters.
                self.running = false;
            }
            None => panic!("client received an unknown payload type"),
        }
    }
}

impl std::fmt::Debug for ClosedLoopClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClosedLoopClient")
            .field("id", &self.id)
            .field("committed", &self.stats.committed)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_pools_are_on_their_shard() {
        for shards in [1u32, 2, 4, 8] {
            let pools = key_pools(shards, POOL_KEYS);
            for (s, pool) in pools.iter().enumerate() {
                assert_eq!(pool.len(), POOL_KEYS);
                for key in pool {
                    assert_eq!(shard_of("bench", key, shards), s as u32);
                }
            }
        }
    }
}

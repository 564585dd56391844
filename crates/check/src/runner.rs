//! Executes one `(seed, perturbation, schedule)` case and classifies the
//! outcome.
//!
//! The run protocol is a faithful port of the original
//! `reconfig_nemesis` test driver — settle, attach one closed-loop
//! client per replica, apply one [`Step`] per 400 ms, check safety after
//! every step, heal, drain, then check convergence — at any shard count.
//! Steps go through the one guarded executor,
//! [`todr_harness::fault::Faults`], that scripted timelines also use:
//! they name replicas by *flat* index and act on the group that index
//! lands in. The cluster streams each replication group's event log
//! through its own trace oracle at every check after a hold and runs
//! the oracles' end-of-run clauses after the heal; the convergence
//! checks run once per group, and the cross-shard oracle
//! ([`crate::check_shard_trace`]) once across groups. Every assertion
//! is converted into a typed [`CaseFailure`] so the Explorer can collect
//! and the Shrinker can minimize failing cases instead of aborting the
//! process. Engine panics (a protocol-internal `assert!` firing deep in
//! a handler) are caught and classified as [`FailureKind::Panic`]: for a
//! checking tool a panic is a *finding*, not a crash.

use std::panic::{catch_unwind, AssertUnwindSafe};

use serde::{Deserialize, Serialize};
use todr_core::{EngineState, UpdateReplyPolicy};
use todr_harness::checkers::{ConsistencyError, ConsistencyViolation};
use todr_harness::client::ClientConfig;
use todr_harness::cluster::{Cluster, ClusterConfig, ClusterConfigBuilder};
use todr_harness::fault::Faults;
use todr_sim::{MetricsExport, RecordedEvent, SimDuration, TieBreak};

use crate::sharded::check_shard_trace;
use crate::Step;

/// Everything needed to reproduce one case bit-for-bit: the world seed,
/// the same-instant perturbation index and the fault schedule.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CaseSpec {
    /// The [`todr_sim::World`] seed.
    pub seed: u64,
    /// Perturbation index: `0` runs the historical FIFO tie-break,
    /// `n > 0` runs [`TieBreak::Seeded`]`(n)` — a distinct, replayable
    /// same-instant interleaving per index.
    pub perturbation: u64,
    /// The fault schedule.
    pub schedule: Vec<Step>,
}

/// The tie-break policy a perturbation index denotes.
pub fn tie_break_for(perturbation: u64) -> TieBreak {
    if perturbation == 0 {
        TieBreak::Fifo
    } else {
        TieBreak::Seeded(perturbation)
    }
}

/// Knobs shared by every case of an exploration.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Number of initial replicas in total — the flat index space fault
    /// schedules are drawn over — placed evenly across [`Self::shards`]
    /// groups.
    pub n_servers: usize,
    /// Number of replication groups. With more than one, the clients go
    /// through the shard router with the shard-pool workload and the
    /// cross-shard serializability oracle becomes active.
    pub shards: u32,
    /// Cross-shard fraction of each client's requests, in permille
    /// (only meaningful with more than one shard) — high by default so
    /// short schedules exercise the cross-shard protocol densely.
    pub cross_permille: u32,
    /// EVS message-packing level (`1` = packing off, the historical
    /// wire protocol). Oracles must hold at any level.
    pub max_pack: usize,
    /// Engine auto-checkpoint period in green actions (`0` disables
    /// white-line GC). Lower it so short schedules exercise GC.
    pub checkpoint_interval: u64,
    /// Run with the commit fast path enabled: clients submit with
    /// [`todr_core::UpdateReplyPolicy::Fast`] and the fast-commit trace
    /// oracles (receipt-time conflict mirror, fast ⇒ eventually green,
    /// no conflicting action ordered ahead unseen) become active.
    pub fast_path: bool,
    /// Percentage of client requests (0–100) aimed at one shared hot
    /// key, so fast-path schedules exercise genuine conflicts and
    /// demotions (only meaningful with [`Self::fast_path`]).
    pub conflict_pct: u8,
    /// Run with primary read leases enabled: every replica additionally
    /// carries a read-only closed-loop client issuing linearizable
    /// reads, and the read-lease trace oracles (no stale lease read, no
    /// cross-configuration lease overlap) become active.
    pub read_leases: bool,
    /// The deliberate engine invariant breakage to inject
    /// (`chaos-mutations` builds only; used by the mutation self-test).
    #[cfg(feature = "chaos-mutations")]
    pub chaos: Option<todr_core::ChaosMutation>,
    /// The deliberate router invariant breakage to inject
    /// (`chaos-mutations` builds only; used by the mutation self-test).
    #[cfg(feature = "chaos-mutations")]
    pub shard_chaos: Option<todr_shard::ShardChaos>,
}

impl RunOptions {
    /// The builder of the cluster one case of these options runs on; its
    /// `build` refuses incoherent options with a typed error.
    pub(crate) fn cluster_builder(&self, seed: u64, perturbation: u64) -> ClusterConfigBuilder {
        let builder = ClusterConfig::builder(self.n_servers as u32, seed)
            .shards(self.shards)
            .tie_break(tie_break_for(perturbation))
            .packing(self.max_pack)
            .checkpoint_interval(self.checkpoint_interval)
            .fast_path(self.fast_path)
            .read_leases(self.read_leases);
        #[cfg(feature = "chaos-mutations")]
        let builder = builder.chaos(self.chaos).shard_chaos(self.shard_chaos);
        builder
    }
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            n_servers: 5,
            shards: 1,
            cross_permille: 300,
            max_pack: 1,
            checkpoint_interval: 1024,
            fast_path: false,
            conflict_pct: 0,
            read_leases: false,
            #[cfg(feature = "chaos-mutations")]
            chaos: None,
            #[cfg(feature = "chaos-mutations")]
            shard_chaos: None,
        }
    }
}

/// What one replication group converged to in a passing case.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroupPass {
    /// Raw node indices of the group's surviving replicas.
    pub survivors: Vec<u32>,
    /// The green count every survivor converged to.
    pub green_count: u64,
    /// The database digest every survivor converged to.
    pub db_digest: u64,
}

/// What a passing case established. For a fixed [`CaseSpec`] this struct
/// (including the serialized metrics) is byte-identical across runs —
/// the determinism contract the replay tests pin down.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CasePass {
    /// Per-group convergence, indexed by shard id.
    pub groups: Vec<GroupPass>,
    /// Green positions the per-group trace oracles cross-checked.
    pub green_positions_agreed: u64,
    /// Cross-shard transactions fully applied.
    pub cross_txns: u64,
    /// Commit-order comparisons the cross-shard oracle performed.
    pub commit_pairs_checked: u64,
    /// Closed-loop clients still waiting on a reply after the drain:
    /// each one a crashed replica left stalled (a client has no timeout
    /// and never re-sends). Reported, not yet a failure.
    pub stalled_clients: u64,
    /// Compact deterministic JSON of the world's metrics export.
    pub metrics_json: String,
}

/// Classification of a failing case.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailureKind {
    /// The initial primary component never formed.
    Settle,
    /// A state invariant only a snapshot shows broke at a check
    /// (database divergence, two primaries; [`todr_harness::checkers`]).
    Consistency,
    /// A trace property broke ([`todr_harness::oracle`]), at a check
    /// after a hold or at the end of the run.
    TraceOracle,
    /// The healed cluster did not converge (survivor count, primary
    /// membership, green counts or database digests).
    Convergence,
    /// A protocol-internal assertion fired (engine/EVS panic).
    Panic,
    /// The cluster builder refused the [`RunOptions`]; no world was
    /// built.
    Config,
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FailureKind::Settle => "settle",
            FailureKind::Consistency => "consistency",
            FailureKind::TraceOracle => "trace-oracle",
            FailureKind::Convergence => "convergence",
            FailureKind::Panic => "panic",
            FailureKind::Config => "config",
        };
        f.write_str(s)
    }
}

/// A failing case: what broke, plus enough context to debug it.
#[derive(Debug, Clone)]
pub struct CaseFailure {
    /// What class of property broke.
    pub kind: FailureKind,
    /// Human-readable description of the violation.
    pub message: String,
    /// The most recent typed protocol events, oldest first (empty when
    /// the failure was a panic that consumed the world).
    pub event_tail: Vec<RecordedEvent>,
    /// The metrics export at failure time, when the world survived long
    /// enough to snapshot it.
    pub metrics: Option<MetricsExport>,
}

impl std::fmt::Display for CaseFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.kind, self.message)
    }
}

fn fail(cluster: &Cluster, kind: FailureKind, message: String) -> Box<CaseFailure> {
    let events = cluster.world.metrics().events();
    let mut failure = worldless(kind, message);
    let tail = ConsistencyViolation::EVENT_TAIL;
    failure.event_tail = events[events.len().saturating_sub(tail)..].to_vec();
    failure.metrics = Some(cluster.metrics_export());
    failure
}

/// A failed cluster check; with several groups the message names the
/// group.
fn consistency_fail(cluster: &Cluster, v: ConsistencyViolation, shards: usize) -> Box<CaseFailure> {
    let kind = match v.error {
        ConsistencyError::Trace(_) => FailureKind::TraceOracle,
        _ => FailureKind::Consistency,
    };
    let label = match shards {
        1 => String::new(),
        _ => format!("group {}: ", v.group),
    };
    Box::new(CaseFailure {
        kind,
        message: format!("{label}{}", v.error),
        event_tail: v.recent_events,
        metrics: Some(cluster.metrics_export()),
    })
}

/// A failure that left no world to snapshot.
fn worldless(kind: FailureKind, message: String) -> Box<CaseFailure> {
    Box::new(CaseFailure {
        kind,
        message,
        event_tail: Vec::new(),
        metrics: None,
    })
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one case to completion, converting every property violation —
/// including protocol-internal panics — into a [`CaseFailure`]. Options
/// the cluster builder refuses are a [`FailureKind::Config`] failure,
/// found before any world is built.
///
/// Deterministic: the same `(spec, options)` always produces the same
/// result, byte for byte.
pub fn run_case(spec: &CaseSpec, options: &RunOptions) -> Result<CasePass, Box<CaseFailure>> {
    let config = options
        .cluster_builder(spec.seed, spec.perturbation)
        .build()
        .map_err(|e| worldless(FailureKind::Config, e.to_string()))?;
    match catch_unwind(AssertUnwindSafe(|| run_case_inner(config, spec, options))) {
        Ok(outcome) => outcome,
        Err(payload) => Err(worldless(FailureKind::Panic, panic_message(payload))),
    }
}

fn run_case_inner(
    config: ClusterConfig,
    spec: &CaseSpec,
    options: &RunOptions,
) -> Result<CasePass, Box<CaseFailure>> {
    let n = options.n_servers;
    let shards = options.shards as usize;
    let mut cluster = Cluster::build(config);
    if let Err(e) = cluster.try_settle() {
        return Err(fail(&cluster, FailureKind::Settle, e.to_string()));
    }
    for i in 0..n {
        let mut client_config = ClientConfig::default();
        if options.fast_path {
            client_config.reply_policy = UpdateReplyPolicy::Fast;
            client_config.conflict_pct = options.conflict_pct;
        }
        if shards > 1 {
            // Several groups only interact through the router: one
            // routed shard-pool client per replica.
            client_config.cross_permille = Some(options.cross_permille);
            cluster.attach_routed_client(client_config);
            continue;
        }
        if options.read_leases {
            // Writers draw from the shared Zipfian key space so the
            // read-only clients' lease reads race real committed writes.
            client_config.zipfian = Some(todr_harness::client::ZipfianKeys::ycsb(64));
        }
        cluster.attach_client(i, client_config);
        if options.read_leases {
            // A read-only client per replica, pointed at the same
            // Zipfian key space, across every fault schedule.
            cluster.attach_client(
                i,
                ClientConfig {
                    read_pct: 100,
                    read_consistency: Some(todr_core::ReadConsistency::Linearizable),
                    zipfian: Some(todr_harness::client::ZipfianKeys::ycsb(64)),
                    ..ClientConfig::default()
                },
            );
        }
    }
    cluster.run_for(SimDuration::from_millis(400));

    // The executor re-applies the legality guards (not trusted from the
    // generator), so arbitrary subsequences and deserialized schedules
    // stay valid.
    let mut faults = Faults::new(n, shards);
    let hold = SimDuration::from_millis(400);
    let timeline = spec.schedule.iter().map(|step| (step.clone(), hold));
    if let Err(v) = faults.run(&mut cluster, timeline) {
        return Err(consistency_fail(&cluster, *v, shards));
    }

    // Heal: reconnect and recover everyone entitled to return, drain
    // the clients and then the router's in-flight transactions.
    faults.heal(&mut cluster);
    cluster.run_for(SimDuration::from_secs(6));
    cluster.stop_clients();
    cluster.run_for(SimDuration::from_secs(4));
    if !cluster.run_to_router_quiescence(SimDuration::from_secs(30)) {
        let hub = cluster.world.metrics();
        let stuck = hub.counter("shard.cross_routed") - hub.counter("shard.txns_applied");
        return Err(fail(
            &cluster,
            FailureKind::Convergence,
            format!("router failed to drain after heal: {stuck} cross-shard txns stuck"),
        ));
    }
    if let Err(v) = cluster.try_check_consistency() {
        return Err(consistency_fail(&cluster, *v, shards));
    }

    // Convergence over each group's surviving membership: every
    // non-departed server is a primary member with the same green
    // sequence and database.
    let label = |g: usize| match shards {
        1 => String::new(),
        _ => format!("group {g}: "),
    };
    let mut groups = Vec::with_capacity(shards);
    for g in 0..shards {
        let survivors: Vec<usize> = (0..cluster.servers.len())
            .filter(|&i| {
                cluster.servers[i].group as usize == g
                    && cluster.engine_state(i) != EngineState::Down
            })
            .collect();
        if survivors.len() < 2 {
            return Err(fail(
                &cluster,
                FailureKind::Convergence,
                format!("{}only {} survivors after heal", label(g), survivors.len()),
            ));
        }
        let g0 = cluster.green_count(survivors[0]);
        let d0 = cluster.db_digest(survivors[0]);
        for &i in &survivors {
            let (state, g) = (cluster.engine_state(i), cluster.green_count(i));
            // Every request a survivor accepted in its current
            // incarnation was answered: the clients stopped and the run
            // drained, so an owed reply is one nothing will ever send.
            let owed = cluster.owed_replies(i);
            let diverged = if state != EngineState::RegPrim {
                format!("survivor {i} in state {state:?} after heal, not RegPrim")
            } else if g != g0 {
                format!("survivor {i} green count {g} != {g0}")
            } else if cluster.db_digest(i) != d0 {
                format!("survivor {i} database digest diverged")
            } else if owed > 0 {
                format!("survivor {i} still owes {owed} client replies after the drain")
            } else {
                continue;
            };
            return Err(fail(&cluster, FailureKind::Convergence, diverged));
        }
        groups.push(GroupPass {
            // Ascending: within a group, flat order is node-id order.
            survivors: survivors
                .iter()
                .map(|&i| cluster.servers[i].node.index())
                .collect(),
            green_count: g0,
            db_digest: d0,
        });
    }

    // The trace oracles' end-of-run clauses, per group over its
    // survivors, then the cross-shard oracle over the merged history —
    // vacuous with one group, which never emits a `CrossShard*` event.
    // The router drained, so every started transaction must have
    // applied.
    let green_positions_agreed = match cluster.try_check_history() {
        Ok(stats) => stats.green_positions_agreed,
        Err(v) => return Err(consistency_fail(&cluster, *v, shards)),
    };
    let events = cluster.world.metrics().events();
    let shard_stats = match check_shard_trace(events, true) {
        Ok(stats) => stats,
        Err(v) => {
            return Err(fail(&cluster, FailureKind::TraceOracle, v.to_string()));
        }
    };

    Ok(CasePass {
        groups,
        green_positions_agreed,
        cross_txns: shard_stats.txns_applied,
        commit_pairs_checked: shard_stats.commit_pairs_checked,
        stalled_clients: cluster.stalled_clients() as u64,
        metrics_json: cluster.metrics_export().to_json(),
    })
}

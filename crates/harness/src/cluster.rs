//! Builds and drives a full simulated deployment of the replication
//! engine: `S ≥ 1` independent replication groups — each an unchanged
//! engine + EVS group — inside a single deterministic [`World`], fronted
//! by one [`ShardRouter`] once a client asks to be routed.
//!
//! With one group (the paper's deployment, and the default) the actors
//! report into the root metric scope and clients usually attach to a
//! replica directly ([`Cluster::attach_client`]). With `S > 1` every
//! group lives in its own metric scope (`g0.`, `g1.`, …), so one
//! [`MetricsExport`](todr_sim::MetricsExport) shows per-group counters
//! side by side, and in its own [`NetFabric`]: replicas of one group
//! never even see frames of another — the topology the genuine partial
//! replication literature calls for, where a replica only pays for the
//! shards it hosts. Replicas are addressed by one flat index
//! (group-major), so every fault-scripting call works unchanged at any
//! shard count.
//!
//! ```
//! use todr_harness::client::ClientConfig;
//! use todr_harness::cluster::{Cluster, ClusterConfig};
//! use todr_sim::SimDuration;
//!
//! // Two groups of three replicas behind the shard router.
//! let config = ClusterConfig::builder(6, 42).shards(2).build().unwrap();
//! let mut cluster = Cluster::build(config);
//! cluster.settle();
//! let client = cluster.attach_routed_client(ClientConfig {
//!     cross_permille: Some(100),
//!     ..ClientConfig::default()
//! });
//! cluster.run_for(SimDuration::from_secs(1));
//! cluster.stop_clients();
//! assert!(cluster.run_to_router_quiescence(SimDuration::from_secs(10)));
//! assert!(cluster.client_stats(client).committed > 0);
//! cluster.check_consistency();
//! ```

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use todr_core::{
    EngineConfig, EngineCtl, EngineState, ReplicationEngine, StorageFault, LEASE_DURATION,
};
use todr_evs::{EvsCmd, EvsConfig, EvsDaemon};
use todr_net::{NetConfig, NetFabric, NodeId};
use todr_shard::{ShardRouter, ShardRouterConfig, ShardTopology};
use todr_sim::{ActorId, ApplyHorizon, SimDuration, SimTime, TieBreak, World};
use todr_storage::{DiskActor, DiskMode, DiskOp, StorageHandle};

use serde::Serialize;

use crate::client::{ClientConfig, ClientStats, ClosedLoopClient, StartClient};
use crate::oracle::TraceOracle;

/// Which stable-storage backend every server runs on.
///
/// The disk *timing* model ([`DiskMode`]) is independent of this: the
/// `DiskActor` charges virtual forced-write latency either way; the
/// backend decides where the bytes live.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub enum BackendKind {
    /// The deterministic in-memory sim store — the default, and the
    /// only backend schedule exploration may use.
    #[default]
    Sim,
    /// Real files under a per-cluster temp directory (one subdirectory
    /// per server), removed when the [`Cluster`] drops. Forced writes
    /// pay real `fsync`s on top of the simulated latency.
    File,
}

/// Monotonic counter making concurrent clusters' storage roots unique.
static NEXT_STORAGE_ROOT: AtomicU64 = AtomicU64::new(0);

/// Construction parameters for a [`Cluster`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of initial replicas, in total across all groups (placed
    /// evenly: `n_servers / shards` per group).
    pub n_servers: u32,
    /// World seed.
    pub seed: u64,
    /// Disk mode for every server (forced vs delayed writes).
    pub disk_mode: DiskMode,
    /// Network profile.
    pub net: NetConfig,
    /// EVS heartbeat interval.
    pub hb_interval: SimDuration,
    /// EVS failure timeout.
    pub fail_timeout: SimDuration,
    /// EVS acknowledgement batching delay.
    pub ack_delay: SimDuration,
    /// Run the EVS daemons over per-peer reliable (ARQ) channels,
    /// required whenever `net.loss_probability > 0`.
    pub reliable_links: bool,
    /// Maximum submissions packed into one EVS wire frame per sequencer
    /// round (the Spread message-packing optimization). `1` reproduces
    /// the historical one-frame-per-message protocol exactly.
    pub max_pack: usize,
    /// Membership size at which the EVS daemons switch from all-ack
    /// stability to cumulative piggybacked acks (see
    /// `EvsConfig::cumulative_ack_threshold`). `usize::MAX` forces
    /// all-ack at every scale — the comparison baseline for the scale
    /// sweep's gap attribution.
    pub cumulative_ack_threshold: usize,
    /// Auto-checkpoint period of every engine, in green actions (`0`
    /// disables white-line garbage collection).
    pub checkpoint_interval: u64,
    /// Dynamic-linear-voting weights by server index (absent => 1).
    pub weights: std::collections::BTreeMap<u32, u64>,
    /// Same-instant event ordering policy of the underlying
    /// [`World`] — [`TieBreak::Fifo`] reproduces historical behavior;
    /// [`TieBreak::Seeded`] lets schedule-exploration harnesses sweep
    /// alternative (deterministic, replayable) interleavings.
    pub tie_break: TieBreak,
    /// When true, every [`Cluster::crash`] tears the write in flight
    /// (a random prefix of the staged log entries survives, the next
    /// one is cut mid-record) instead of crashing cleanly. Drawn from
    /// the world's dedicated fault RNG stream, so runs stay replayable.
    pub torn_crashes: bool,
    /// Enables the commit fast path on every server: EVS daemons emit
    /// eager receipts and engines fast-commit conflict-free actions
    /// submitted with [`todr_core::UpdateReplyPolicy::Fast`] once a
    /// weighted quorum holds them (see DESIGN.md §4e). Off by default;
    /// the default event streams stay byte-identical.
    pub fast_path: bool,
    /// Enables LARK-style primary read leases on every server: EVS
    /// daemons emit eager receipts plus heartbeat-driven lease
    /// renewals, and engines answer [`todr_core::ReadConsistency::
    /// Linearizable`] reads locally while their lease is valid (see
    /// DESIGN.md §4f). Off by default; the default event streams stay
    /// byte-identical.
    pub read_leases: bool,
    /// Engine-side bound on retained red/yellow action bodies; beyond
    /// it update requests are rejected with a retryable error (`0`
    /// disables the bound — see `EngineConfig::max_retained_bodies`).
    pub max_retained_bodies: usize,
    /// Stable-storage backend for every server (see [`BackendKind`]).
    pub backend: BackendKind,
    /// Number of shards (= independent replication groups, each with its
    /// own network fabric). `1` is the paper's single-group deployment.
    pub shards: u32,
    /// Deliberate engine invariant breakage injected into every server
    /// (`chaos-mutations` builds only; used by the `todr-check`
    /// mutation self-test).
    #[cfg(feature = "chaos-mutations")]
    pub chaos: Option<todr_core::ChaosMutation>,
    /// Deliberate cross-shard protocol breakage injected into the
    /// router (`chaos-mutations` builds only; used by the `todr-check`
    /// mutation self-test).
    #[cfg(feature = "chaos-mutations")]
    pub shard_chaos: Option<todr_shard::ShardChaos>,
}

impl ClusterConfig {
    /// Defaults calibrated for the paper's LAN testbed (see DESIGN.md).
    pub fn new(n_servers: u32, seed: u64) -> Self {
        ClusterConfig {
            n_servers,
            seed,
            disk_mode: DiskMode::Forced {
                sync_latency: SimDuration::from_millis(10),
            },
            net: NetConfig::lan(),
            hb_interval: SimDuration::from_millis(50),
            fail_timeout: SimDuration::from_millis(200),
            ack_delay: SimDuration::from_micros(300),
            reliable_links: false,
            max_pack: 1,
            cumulative_ack_threshold: EvsConfig::default().cumulative_ack_threshold,
            checkpoint_interval: 1024,
            weights: std::collections::BTreeMap::new(),
            tie_break: TieBreak::Fifo,
            torn_crashes: false,
            fast_path: false,
            read_leases: false,
            max_retained_bodies: 1 << 16,
            backend: BackendKind::Sim,
            shards: 1,
            #[cfg(feature = "chaos-mutations")]
            chaos: None,
            #[cfg(feature = "chaos-mutations")]
            shard_chaos: None,
        }
    }

    /// A validating fluent builder starting from the LAN defaults.
    pub fn builder(n_servers: u32, seed: u64) -> ClusterConfigBuilder {
        ClusterConfigBuilder {
            cfg: ClusterConfig::new(n_servers, seed),
        }
    }

    /// Same cluster over a lossy network, with reliable links enabled.
    pub fn lossy(mut self, loss_probability: f64) -> Self {
        self.net.loss_probability = loss_probability;
        self.reliable_links = true;
        self
    }

    /// Same cluster with delayed (asynchronous) disk writes — the
    /// configuration of Figure 5(b)'s upper curve.
    pub fn delayed_writes(mut self) -> Self {
        self.disk_mode = DiskMode::Delayed;
        self
    }

    /// Same cluster with EVS message packing up to `max_pack`
    /// submissions per wire frame.
    pub fn packing(mut self, max_pack: usize) -> Self {
        self.max_pack = max_pack;
        self
    }

    /// Checks internal coherence; [`ClusterConfigBuilder::build`]
    /// delegates here.
    pub fn validate(&self) -> Result<(), InvalidClusterConfig> {
        if self.n_servers == 0 {
            return Err(InvalidClusterConfig(
                "a cluster needs at least one server".into(),
            ));
        }
        if self.shards == 0 {
            return Err(InvalidClusterConfig(
                "a cluster needs at least one shard".into(),
            ));
        }
        if !self.n_servers.is_multiple_of(self.shards) {
            return Err(InvalidClusterConfig(format!(
                "{} replicas cannot be placed evenly across {} shards; \
                 n_servers must be a multiple of the shard count",
                self.n_servers, self.shards
            )));
        }
        if self.shards > 1 && self.read_leases {
            return Err(InvalidClusterConfig(
                "read leases cannot be combined with more than one shard: no \
                 sweep covers lease reads routed across groups"
                    .into(),
            ));
        }
        if self.shards > 1 && !self.weights.is_empty() {
            return Err(InvalidClusterConfig(
                "voting weights cannot be combined with more than one shard: \
                 they name servers of a single group"
                    .into(),
            ));
        }
        #[cfg(feature = "chaos-mutations")]
        {
            if self.chaos.is_some() && self.shards > 1 {
                return Err(InvalidClusterConfig(
                    "engine chaos mutations cannot be combined with more than one \
                     shard: they break single-group invariants the per-group \
                     oracles own; use shard_chaos to break the cross-shard \
                     protocol instead"
                        .into(),
                ));
            }
            if self.shard_chaos.is_some() && self.shards < 2 {
                return Err(InvalidClusterConfig(
                    "shard_chaos needs at least two shards: the cross-shard \
                     commit barrier it breaks never engages with one group"
                        .into(),
                ));
            }
        }
        let loss = self.net.loss_probability;
        if !(0.0..1.0).contains(&loss) {
            return Err(InvalidClusterConfig(format!(
                "loss_probability {loss} outside [0, 1)"
            )));
        }
        if loss > 0.0 && !self.reliable_links {
            return Err(InvalidClusterConfig(format!(
                "loss_probability {loss} requires reliable_links: without per-peer \
                 ARQ channels the EVS daemons assume loss-free FIFO links and \
                 a dropped frame wedges the protocol"
            )));
        }
        if self.max_pack == 0 {
            return Err(InvalidClusterConfig(
                "max_pack 0 would pack no messages at all; use 1 to disable packing".into(),
            ));
        }
        if let Some(&w) = self.weights.values().find(|&&w| w == 0) {
            return Err(InvalidClusterConfig(format!(
                "voting weight {w} must be positive"
            )));
        }
        if self.read_leases {
            let budget = self.hb_interval * 2 + LEASE_DURATION;
            if budget >= self.fail_timeout {
                return Err(InvalidClusterConfig(format!(
                    "read leases require 2·hb_interval + LEASE_DURATION < fail_timeout \
                     ({} + {} >= {}): a partitioned lease holder must drain before a \
                     disjoint primary can install and commit writes past it",
                    self.hb_interval * 2,
                    LEASE_DURATION,
                    self.fail_timeout
                )));
            }
        }
        // Not collapsible: the second inner check is feature-gated.
        #[allow(clippy::collapsible_if)]
        if self.backend == BackendKind::File {
            if matches!(self.tie_break, TieBreak::Seeded(_)) {
                return Err(InvalidClusterConfig(
                    "backend File cannot be combined with TieBreak::Seeded: \
                     schedule exploration replays seeded interleavings against \
                     byte-identical storage, which only the deterministic sim \
                     store guarantees"
                        .into(),
                ));
            }
            #[cfg(feature = "chaos-mutations")]
            if self.chaos.is_some() {
                return Err(InvalidClusterConfig(
                    "backend File cannot be combined with chaos mutations: the \
                     mutation self-test replays schedules against the \
                     deterministic sim store"
                        .into(),
                ));
            }
        }
        Ok(())
    }
}

/// A rejected [`ClusterConfig`], with the reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidClusterConfig(pub String);

impl std::fmt::Display for InvalidClusterConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid cluster config: {}", self.0)
    }
}

impl std::error::Error for InvalidClusterConfig {}

/// Fluent, validating construction of a [`ClusterConfig`].
///
/// Unlike hand-mutating the config struct, [`build`](Self::build)
/// rejects incoherent combinations (most importantly a lossy network
/// without reliable links) *before* a multi-second simulation silently
/// wedges.
///
/// ```
/// use todr_harness::cluster::ClusterConfig;
///
/// let cfg = ClusterConfig::builder(5, 42)
///     .loss_probability(0.05)
///     .reliable_links(true)
///     .build()
///     .expect("coherent config");
/// assert_eq!(cfg.n_servers, 5);
///
/// // A lossy fabric without ARQ links is rejected at build time.
/// assert!(ClusterConfig::builder(5, 42)
///     .loss_probability(0.05)
///     .build()
///     .is_err());
/// ```
#[derive(Debug, Clone)]
pub struct ClusterConfigBuilder {
    cfg: ClusterConfig,
}

impl ClusterConfigBuilder {
    /// Sets the disk mode for every server.
    pub fn disk_mode(mut self, mode: DiskMode) -> Self {
        self.cfg.disk_mode = mode;
        self
    }

    /// Switches every disk to delayed (asynchronous) writes.
    pub fn delayed_writes(mut self) -> Self {
        self.cfg.disk_mode = DiskMode::Delayed;
        self
    }

    /// Replaces the whole network profile.
    pub fn net(mut self, net: NetConfig) -> Self {
        self.cfg.net = net;
        self
    }

    /// Sets the per-datagram loss probability (validated in
    /// [`build`](Self::build) against [`reliable_links`](Self::reliable_links)).
    pub fn loss_probability(mut self, p: f64) -> Self {
        self.cfg.net.loss_probability = p;
        self
    }

    /// Enables or disables per-peer reliable (ARQ) channels in the EVS
    /// daemons.
    pub fn reliable_links(mut self, on: bool) -> Self {
        self.cfg.reliable_links = on;
        self
    }

    /// Sets the EVS heartbeat interval.
    pub fn hb_interval(mut self, d: SimDuration) -> Self {
        self.cfg.hb_interval = d;
        self
    }

    /// Sets the EVS failure timeout.
    pub fn fail_timeout(mut self, d: SimDuration) -> Self {
        self.cfg.fail_timeout = d;
        self
    }

    /// Sets the EVS acknowledgement batching delay.
    pub fn ack_delay(mut self, d: SimDuration) -> Self {
        self.cfg.ack_delay = d;
        self
    }

    /// Sets the maximum number of submissions packed into one EVS wire
    /// frame (validated in [`build`](Self::build); `1` disables
    /// packing).
    pub fn packing(mut self, max_pack: usize) -> Self {
        self.cfg.max_pack = max_pack;
        self
    }

    /// Sets the membership size at which the EVS daemons switch from
    /// all-ack stability to cumulative piggybacked acks (`usize::MAX`
    /// forces all-ack at every scale).
    pub fn cumulative_ack_threshold(mut self, threshold: usize) -> Self {
        self.cfg.cumulative_ack_threshold = threshold;
        self
    }

    /// Sets the engines' auto-checkpoint period in green actions (`0`
    /// disables white-line garbage collection).
    pub fn checkpoint_interval(mut self, interval: u64) -> Self {
        self.cfg.checkpoint_interval = interval;
        self
    }

    /// Assigns a dynamic-linear-voting weight to server `idx`.
    pub fn weight(mut self, idx: u32, weight: u64) -> Self {
        self.cfg.weights.insert(idx, weight);
        self
    }

    /// Sets the same-instant event ordering policy of the world.
    pub fn tie_break(mut self, tb: TieBreak) -> Self {
        self.cfg.tie_break = tb;
        self
    }

    /// Makes every [`Cluster::crash`] tear the write in flight instead
    /// of crashing cleanly (see [`ClusterConfig::torn_crashes`]).
    pub fn torn_crashes(mut self, on: bool) -> Self {
        self.cfg.torn_crashes = on;
        self
    }

    /// Enables the commit fast path on every server (EVS eager
    /// receipts + engine fast commits; see [`ClusterConfig::fast_path`]).
    pub fn fast_path(mut self, on: bool) -> Self {
        self.cfg.fast_path = on;
        self
    }

    /// Enables primary read leases on every server (validated in
    /// [`build`](Self::build) against the lease timing inequality; see
    /// [`ClusterConfig::read_leases`]).
    pub fn read_leases(mut self, on: bool) -> Self {
        self.cfg.read_leases = on;
        self
    }

    /// Bounds the red/yellow action bodies every engine retains (`0`
    /// disables the bound; see [`ClusterConfig::max_retained_bodies`]).
    pub fn max_retained_bodies(mut self, bound: usize) -> Self {
        self.cfg.max_retained_bodies = bound;
        self
    }

    /// Selects the stable-storage backend (validated in
    /// [`build`](Self::build): [`BackendKind::File`] is rejected in
    /// combination with seeded tie-breaking, since schedule replay
    /// requires the deterministic sim store).
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.cfg.backend = backend;
        self
    }

    /// Places the replicas evenly across `shards` independent
    /// replication groups (validated in [`build`](Self::build); see
    /// [`ClusterConfig::shards`]).
    pub fn shards(mut self, shards: u32) -> Self {
        self.cfg.shards = shards;
        self
    }

    /// Injects a deliberate engine invariant breakage into every server
    /// (`chaos-mutations` builds only).
    #[cfg(feature = "chaos-mutations")]
    pub fn chaos(mut self, chaos: Option<todr_core::ChaosMutation>) -> Self {
        self.cfg.chaos = chaos;
        self
    }

    /// Injects a deliberate cross-shard protocol breakage into the
    /// router (`chaos-mutations` builds only).
    #[cfg(feature = "chaos-mutations")]
    pub fn shard_chaos(mut self, chaos: Option<todr_shard::ShardChaos>) -> Self {
        self.cfg.shard_chaos = chaos;
        self
    }

    /// Validates and returns the config.
    pub fn build(self) -> Result<ClusterConfig, InvalidClusterConfig> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// An opaque handle to a client attached via
/// [`Cluster::attach_client`]; pass it back to
/// [`Cluster::client_stats`]. The newtype prevents the old footgun of
/// handing an arbitrary [`ActorId`] (a server's engine, a disk) to the
/// stats accessor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClientHandle(pub(crate) ActorId);

impl ClientHandle {
    /// The underlying actor id, for advanced scripting against
    /// [`Cluster::world`].
    pub fn actor_id(self) -> ActorId {
        self.0
    }

    /// The client's progress, read from the world it runs in.
    pub(crate) fn stats(self, world: &mut World) -> ClientStats {
        world.with_actor(self.0, |c: &mut ClosedLoopClient| c.stats().clone())
    }
}

/// [`Cluster::try_settle`]'s failure: no primary component formed
/// inside the bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SettleTimeout {
    /// How long the cluster was given.
    pub waited: SimDuration,
    /// Servers that did reach the primary state.
    pub in_prim: usize,
    /// Total servers expected in the primary.
    pub servers: usize,
}

impl std::fmt::Display for SettleTimeout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "primary component failed to form within {} ({}/{} servers in primary)",
            self.waited, self.in_prim, self.servers
        )
    }
}

impl std::error::Error for SettleTimeout {}

/// One server's actor handles.
#[derive(Debug, Clone, Copy)]
pub struct ServerHandles {
    /// The server's node id (unique within its group; ids restart at 0
    /// in every group).
    pub node: NodeId,
    /// Its EVS daemon.
    pub daemon: ActorId,
    /// Its disk.
    pub disk: ActorId,
    /// Its replication engine.
    pub engine: ActorId,
    /// The replication group (= shard) it belongs to.
    pub group: u32,
    /// Its group's private network fabric.
    pub fabric: ActorId,
}

/// A fully wired simulated deployment: per-group fabrics, disks, EVS
/// daemons, replication engines and (optionally) a shard router and
/// clients, all inside one deterministic [`World`].
pub struct Cluster {
    /// The simulation world (exposed for advanced scripting).
    pub world: World,
    /// Per-server handles by flat server index: the initial replicas
    /// group-major (`n_servers / shards` per group), then online joiners
    /// in arrival order.
    pub servers: Vec<ServerHandles>,
    /// Each group's fabric, indexed by group.
    fabrics: Vec<ActorId>,
    /// The shard router, created when the first client asks to be
    /// routed.
    router: Option<ActorId>,
    config: ClusterConfig,
    clients: Vec<ClientHandle>,
    /// Per-cluster directory holding every server's file-backed store
    /// (`None` on the sim backend). Removed on drop.
    storage_root: Option<PathBuf>,
    /// Each group's metric scope and the trace oracle its slice of the
    /// event log streams through, indexed by group.
    pub(crate) oracles: Vec<(u32, TraceOracle)>,
    /// How much of the world's event log the oracles have seen.
    pub(crate) observed: usize,
}

impl Cluster {
    /// Builds the deployment and joins every server to its group (but
    /// does not advance time — call [`Cluster::settle`]).
    ///
    /// # Panics
    ///
    /// Panics if the config fails [`ClusterConfig::validate`], or if the
    /// file backend is selected and its storage root cannot be created
    /// (set `TODR_STORAGE_DIR` to relocate it off the default OS temp
    /// dir).
    pub fn build(config: ClusterConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
        let storage_root = match config.backend {
            BackendKind::Sim => None,
            BackendKind::File => {
                let base = std::env::var_os("TODR_STORAGE_DIR")
                    .map(PathBuf::from)
                    .unwrap_or_else(std::env::temp_dir);
                let n = NEXT_STORAGE_ROOT.fetch_add(1, Ordering::Relaxed);
                let root = base.join(format!(
                    "todr-cluster-{}-{}-{n}",
                    std::process::id(),
                    config.seed
                ));
                std::fs::create_dir_all(&root)
                    .unwrap_or_else(|e| panic!("create storage root {}: {e}", root.display()));
                Some(root)
            }
        };
        let mut world = World::new(config.seed);
        world.set_event_limit(500_000_000);
        world.set_tie_break(config.tie_break);
        let mut cluster = Cluster {
            world,
            servers: Vec::new(),
            fabrics: Vec::new(),
            router: None,
            config,
            clients: Vec::new(),
            storage_root,
            oracles: Vec::new(),
            observed: 0,
        };
        let shards = cluster.config.shards;
        let nodes: Vec<NodeId> = (0..cluster.config.n_servers / shards)
            .map(NodeId::new)
            .collect();
        for group in 0..shards {
            // One group reports into the root scope under the historical
            // actor names; several get a `g{i}.` scope each.
            let (scope, fabric_name) = if shards == 1 {
                (0, "net".to_string())
            } else {
                let scope = cluster.world.register_metric_scope(&format!("g{group}"));
                cluster.world.set_build_scope(scope);
                (scope, format!("net-g{group}"))
            };
            cluster.oracles.push((scope, TraceOracle::default()));
            let fabric = cluster
                .world
                .add_actor(fabric_name, NetFabric::new(cluster.config.net.clone()));
            cluster.fabrics.push(fabric);
            let first = cluster.servers.len();
            for &node in &nodes {
                cluster.wire_server(group, node, &nodes, true);
            }
            for server in &cluster.servers[first..] {
                cluster.world.schedule_now(server.daemon, EvsCmd::JoinGroup);
            }
        }
        cluster.world.set_build_scope(0);
        cluster
    }

    /// The directory holding every server's file-backed store, when
    /// running on [`BackendKind::File`].
    pub fn storage_root(&self) -> Option<&std::path::Path> {
        self.storage_root.as_deref()
    }

    /// Wires one server (disk, EVS daemon, engine) into `group` under
    /// the world's current build scope and appends its handles.
    fn wire_server(
        &mut self,
        group: u32,
        node: NodeId,
        server_set: &[NodeId],
        initial_member: bool,
    ) {
        let (world, config) = (&mut self.world, &self.config);
        let fabric = self.fabrics[group as usize];
        let disk = world.add_actor(format!("disk-{node}"), DiskActor::new(config.disk_mode));
        let mut engine_config = EngineConfig::new(node, server_set.to_vec());
        engine_config.checkpoint_interval = config.checkpoint_interval;
        engine_config.initial_member = initial_member;
        engine_config.fast_path = config.fast_path;
        engine_config.read_leases = config.read_leases;
        engine_config.max_retained_bodies = config.max_retained_bodies;
        #[cfg(feature = "chaos-mutations")]
        {
            engine_config.chaos = config.chaos;
        }
        engine_config.weights = config
            .weights
            .iter()
            .map(|(&idx, &w)| (NodeId::new(idx), w))
            .collect();
        // Daemon and engine reference each other; allocate the engine
        // slot first by predicting its id is not possible, so wire via a
        // two-step: create daemon with a placeholder app id, then the
        // engine, then point the daemon at the engine.
        let evs_config = EvsConfig {
            universe: server_set.to_vec(),
            hb_interval: config.hb_interval,
            fail_timeout: config.fail_timeout,
            ack_delay: config.ack_delay,
            reliable_links: config.reliable_links,
            max_pack: config.max_pack,
            cumulative_ack_threshold: config.cumulative_ack_threshold,
            eager_receipts: engine_config.consumes_receipts(),
            lease_heartbeats: config.read_leases,
            ..EvsConfig::default()
        };
        let daemon = world.add_actor(
            format!("evs-{node}"),
            EvsDaemon::new(node, fabric, ActorId::from_raw(0), evs_config),
        );
        let store = match &self.storage_root {
            None => StorageHandle::sim(),
            Some(root) => {
                let dir = if config.shards == 1 {
                    root.join(format!("server-{node}"))
                } else {
                    root.join(format!("g{group}"))
                        .join(format!("server-{node}"))
                };
                StorageHandle::file(&dir)
                    .unwrap_or_else(|e| panic!("open file store {}: {e}", dir.display()))
            }
        };
        // The daemon's sequencer sees the engine's apply queue.
        let horizon = ApplyHorizon::default();
        let mut replication =
            ReplicationEngine::with_storage(engine_config, daemon, disk, fabric, store);
        replication.set_apply_horizon(horizon.clone());
        let engine = world.add_actor(format!("engine-{node}"), replication);
        // Re-point the daemon's app at the real engine.
        world.with_actor(daemon, |d: &mut EvsDaemon| {
            d.set_app(engine);
            d.set_apply_horizon(horizon);
        });
        world.with_actor(fabric, |f: &mut NetFabric| f.register(node, daemon));
        self.servers.push(ServerHandles {
            node,
            daemon,
            disk,
            engine,
            group,
            fabric,
        });
    }

    /// Advances virtual time until every group's initial primary
    /// component forms (bounded at 5 seconds), or reports how far the
    /// cluster got.
    pub fn try_settle(&mut self) -> Result<(), SettleTimeout> {
        let bound = SimDuration::from_secs(5);
        let deadline = self.world.now() + bound;
        loop {
            self.run_for(SimDuration::from_millis(100));
            let in_prim = (0..self.servers.len())
                .filter(|&i| self.engine_state(i) == EngineState::RegPrim)
                .count();
            if in_prim == self.servers.len() {
                return Ok(());
            }
            if self.world.now() >= deadline {
                return Err(SettleTimeout {
                    waited: bound,
                    in_prim,
                    servers: self.servers.len(),
                });
            }
        }
    }

    /// Panicking wrapper over [`Cluster::try_settle`].
    ///
    /// # Panics
    ///
    /// Panics if no primary forms — that indicates a protocol bug.
    pub fn settle(&mut self) {
        if let Err(e) = self.try_settle() {
            panic!("{e}");
        }
    }

    /// Runs the world for a span of virtual time.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.world.now() + d;
        self.world.run_until(deadline);
    }

    /// Runs the world up to an absolute virtual instant.
    pub fn run_until(&mut self, at: SimTime) {
        self.world.run_until(at);
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.world.now()
    }

    /// The cluster's configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    // --------------------------------------------------------
    // failure scripting
    // --------------------------------------------------------

    /// Splits connectivity into the given sets of server indices. Every
    /// group is split by its own members of each set (fabrics are
    /// per-group, so a set spanning groups connects nothing across
    /// them); a group none of whose servers is named is left untouched.
    pub fn partition(&mut self, sets: &[Vec<usize>]) {
        let now = self.world.now();
        for (group, &fabric) in self.fabrics.iter().enumerate() {
            let node_sets: Vec<Vec<NodeId>> = sets
                .iter()
                .map(|set| {
                    set.iter()
                        .map(|&i| self.servers[i])
                        .filter(|s| s.group as usize == group)
                        .map(|s| s.node)
                        .collect::<Vec<_>>()
                })
                .filter(|set| !set.is_empty())
                .collect();
            if !node_sets.is_empty() {
                self.world.with_actor(fabric, move |f: &mut NetFabric| {
                    f.set_partition(&node_sets, now)
                });
            }
        }
    }

    /// Reconnects all partitions, in every group.
    pub fn merge_all(&mut self) {
        let now = self.world.now();
        for &fabric in &self.fabrics {
            self.world
                .with_actor(fabric, |f: &mut NetFabric| f.merge_all(now));
        }
    }

    /// Crashes server `idx`: network silenced, daemon and engine wiped,
    /// disk reset (in-flight syncs lost). With
    /// [`ClusterConfig::torn_crashes`] set, the crash additionally
    /// tears the log append in flight.
    pub fn crash(&mut self, idx: usize) {
        if self.config.torn_crashes {
            self.crash_with(idx, EngineCtl::CrashTorn);
        } else {
            self.crash_with(idx, EngineCtl::Crash);
        }
    }

    /// Crashes server `idx` with a torn write at the crash boundary,
    /// regardless of [`ClusterConfig::torn_crashes`].
    pub fn crash_torn(&mut self, idx: usize) {
        self.crash_with(idx, EngineCtl::CrashTorn);
    }

    fn crash_with(&mut self, idx: usize, ctl: EngineCtl) {
        let (s, now) = (self.servers[idx], self.world.now());
        self.world
            .with_actor(s.fabric, move |f: &mut NetFabric| f.crash(s.node, now));
        self.world.schedule_now(s.daemon, EvsCmd::Crash);
        self.world.schedule_now(s.engine, ctl);
        self.world.schedule_now(s.disk, DiskOp::Reset);
    }

    /// Flips one random bit in one random persisted log record of
    /// server `idx` (latent media fault; surfaces at the server's next
    /// recovery scan).
    pub fn flip_bit(&mut self, idx: usize) {
        let engine = self.servers[idx].engine;
        self.world.schedule_now(
            engine,
            EngineCtl::InjectFault {
                fault: StorageFault::BitFlip,
            },
        );
    }

    /// Serves a stale sector on server `idx`: one persisted log
    /// record's payload is replaced by an earlier record's, under a
    /// current-looking header (latent media fault; surfaces at the
    /// server's next recovery scan).
    pub fn corrupt_sector(&mut self, idx: usize) {
        let engine = self.servers[idx].engine;
        self.world.schedule_now(
            engine,
            EngineCtl::InjectFault {
                fault: StorageFault::StaleSector,
            },
        );
    }

    /// Recovers server `idx` from its stable storage.
    pub fn recover(&mut self, idx: usize) {
        let (s, now) = (self.servers[idx], self.world.now());
        self.world
            .with_actor(s.fabric, move |f: &mut NetFabric| f.recover(s.node, now));
        self.world.schedule_now(s.engine, EngineCtl::Recover);
    }

    /// Adds a brand-new replica to server `via`'s group; it bootstraps
    /// online via `PERSISTENT_JOIN` through `via` (§5.1). Returns its
    /// index.
    pub fn add_joiner(&mut self, via: usize) -> usize {
        let via = self.servers[via];
        let known: Vec<NodeId> = self
            .servers
            .iter()
            .filter(|s| s.group == via.group)
            .map(|s| s.node)
            .collect();
        let node = NodeId::new(known.len() as u32);
        self.world
            .set_build_scope(self.world.actor_scope(via.engine));
        self.wire_server(via.group, node, &known, false);
        self.world.set_build_scope(0);
        let joiner = self.servers.len() - 1;
        self.world.schedule_now(
            self.servers[joiner].engine,
            EngineCtl::StartJoin { via: via.node },
        );
        joiner
    }

    /// Initiates a voluntary permanent leave of server `idx`.
    pub fn leave(&mut self, idx: usize) {
        let engine = self.servers[idx].engine;
        self.world.schedule_now(engine, EngineCtl::Leave);
    }

    /// Administratively removes (presumably dead) server `dead_idx` by
    /// asking server `via` (of the same group) to broadcast a
    /// `PERSISTENT_LEAVE` on its behalf (§5.1, footnote 3).
    pub fn remove_replica(&mut self, via: usize, dead_idx: usize) {
        let engine = self.servers[via].engine;
        let dead = self.servers[dead_idx].node;
        self.world
            .schedule_now(engine, EngineCtl::RemoveReplica { dead });
    }

    // --------------------------------------------------------
    // clients
    // --------------------------------------------------------

    /// Attaches a closed-loop client to server `idx` and starts it.
    /// Returns a handle for [`Cluster::client_stats`].
    ///
    /// # Panics
    ///
    /// Panics on a shard-pool config ([`ClientConfig::cross_permille`]):
    /// those requests must go through the router — use
    /// [`Cluster::attach_routed_client`].
    pub fn attach_client(&mut self, idx: usize, config: ClientConfig) -> ClientHandle {
        assert!(
            config.cross_permille.is_none(),
            "shard-pool clients must be routed: use attach_routed_client"
        );
        self.start_client(self.servers[idx].engine, config)
    }

    /// Attaches a closed-loop client to the shard router — created here,
    /// over the current replicas, on first use — and starts it. The
    /// router forwards single-shard requests to the owning group and
    /// runs cross-shard ones through its prepare/commit protocol.
    pub fn attach_routed_client(&mut self, config: ClientConfig) -> ClientHandle {
        let router = match self.router {
            Some(router) => router,
            None => {
                let mut contacts = vec![Vec::new(); self.fabrics.len()];
                for s in &self.servers {
                    contacts[s.group as usize].push(s.engine);
                }
                #[allow(unused_mut)]
                let mut router_config = ShardRouterConfig::new(ShardTopology { contacts });
                #[cfg(feature = "chaos-mutations")]
                {
                    router_config.chaos = self.config.shard_chaos;
                }
                let router = self
                    .world
                    .add_actor("router", ShardRouter::new(router_config));
                self.router = Some(router);
                router
            }
        };
        self.start_client(router, config)
    }

    fn start_client(&mut self, target: ActorId, config: ClientConfig) -> ClientHandle {
        let id = todr_core::ClientId(self.clients.len() as u32 + 1);
        let client = self.world.add_actor(
            format!("client-{}", id.0),
            ClosedLoopClient::new(id, target, self.config.shards, config),
        );
        self.world.schedule_now(client, StartClient);
        let handle = ClientHandle(client);
        self.clients.push(handle);
        handle
    }

    /// A client's progress.
    pub fn client_stats(&mut self, client: ClientHandle) -> ClientStats {
        client.stats(&mut self.world)
    }

    /// All attached clients.
    pub fn clients(&self) -> &[ClientHandle] {
        &self.clients
    }

    /// Stops every client's closed loop (outstanding requests still
    /// complete).
    pub fn stop_clients(&mut self) {
        for handle in &self.clients {
            self.world
                .with_actor(handle.0, |c: &mut ClosedLoopClient| c.stop());
        }
    }

    /// How many attached clients still await a reply. After
    /// [`Cluster::stop_clients`] and a drain, each is a client a crash
    /// left stalled: the crashed replica's owed reply went with it, and a
    /// closed-loop client neither times out nor re-sends.
    pub fn stalled_clients(&mut self) -> usize {
        let world = &mut self.world;
        self.clients
            .iter()
            .filter(|h| world.with_actor(h.0, |c: &mut ClosedLoopClient| c.awaiting_reply()))
            .count()
    }

    /// Runs until the router has no cross-shard transaction in flight
    /// (checked every 100 ms of virtual time), or the bound elapses.
    /// Returns whether the router drained — trivially true without one.
    /// Stop the clients first, or a closed loop may keep the router busy
    /// forever.
    pub fn run_to_router_quiescence(&mut self, bound: SimDuration) -> bool {
        let Some(router) = self.router else {
            return true;
        };
        let deadline = self.world.now() + bound;
        loop {
            if self
                .world
                .with_actor(router, |r: &mut ShardRouter| r.pending())
                == 0
            {
                return true;
            }
            if self.world.now() >= deadline {
                return false;
            }
            self.run_for(SimDuration::from_millis(100));
        }
    }

    // --------------------------------------------------------
    // inspection
    // --------------------------------------------------------

    /// Runs `f` against the engine of server `idx`.
    pub fn with_engine<R>(&mut self, idx: usize, f: impl FnOnce(&mut ReplicationEngine) -> R) -> R {
        self.world.with_actor(self.servers[idx].engine, f)
    }

    /// Protocol state of server `idx`.
    pub fn engine_state(&mut self, idx: usize) -> EngineState {
        self.with_engine(idx, |e| e.state())
    }

    /// Green action count of server `idx`.
    pub fn green_count(&mut self, idx: usize) -> u64 {
        self.with_engine(idx, |e| e.green_count())
    }

    /// Database digest of server `idx`.
    pub fn db_digest(&mut self, idx: usize) -> u64 {
        self.with_engine(idx, |e| e.db_digest())
    }

    /// Client replies server `idx` still owes
    /// ([`ReplicationEngine::owed_replies`]).
    pub fn owed_replies(&mut self, idx: usize) -> usize {
        self.with_engine(idx, |e| e.owed_replies())
    }

    /// Deterministic JSON snapshot of the world's typed observability
    /// bus: every counter and latency histogram recorded by the net,
    /// EVS, storage and engine layers (under each group's `g{i}.` prefix
    /// when there are several) and the router's under `shard.`.
    pub fn metrics_export(&self) -> todr_sim::MetricsExport {
        self.world.metrics().export()
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("shards", &self.fabrics.len())
            .field("servers", &self.servers.len())
            .field("clients", &self.clients.len())
            .field("now", &self.world.now())
            .finish()
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        if let Some(root) = &self.storage_root {
            let _ = std::fs::remove_dir_all(root);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_rejects_incoherent_sharding() {
        // 6 replicas over 2 shards, then one incoherent tweak each.
        let reason = |tweak: fn(&mut ClusterConfig)| {
            let mut cfg = ClusterConfig::new(6, 1);
            cfg.shards = 2;
            tweak(&mut cfg);
            cfg.validate().err().map(|e| e.0).unwrap_or_default()
        };
        assert_eq!(reason(|_| {}), "", "2 x 3 is coherent");
        assert!(reason(|c| c.shards = 0).contains("at least one shard"));
        assert!(reason(|c| c.n_servers = 7).contains("placed evenly"));
        // The single-group rules still apply.
        assert!(reason(|c| c.net.loss_probability = 0.1).contains("reliable_links"));
        assert!(reason(|c| c.read_leases = true).contains("read leases"));
        assert!(reason(|c| {
            c.weights.insert(0, 2);
        })
        .contains("voting weights"));
        #[cfg(feature = "chaos-mutations")]
        {
            assert!(
                reason(|c| c.chaos = Some(todr_core::ChaosMutation::PrematureGreen))
                    .contains("engine chaos")
            );
            assert!(reason(|c| {
                c.shards = 1;
                c.shard_chaos = Some(todr_shard::ShardChaos::SkipCommitBarrier);
            })
            .contains("at least two shards"));
        }
    }

    #[test]
    fn validate_holds_read_leases_to_the_timing_rule() {
        // 2·50 ms + LEASE_DURATION (60 ms) = 160 ms: the failure timeout
        // must be strictly above it.
        let with_timeout = |ms: u64| {
            ClusterConfig::builder(3, 1)
                .read_leases(true)
                .hb_interval(SimDuration::from_millis(50))
                .fail_timeout(SimDuration::from_millis(ms))
                .build()
        };
        let err = with_timeout(160).expect_err("160 ms leaves no margin");
        assert!(err.0.contains("LEASE_DURATION"), "{err}");
        assert!(with_timeout(161).is_ok());
    }

    fn shard_pool(cross_permille: u32) -> ClientConfig {
        ClientConfig {
            cross_permille: Some(cross_permille),
            ..ClientConfig::default()
        }
    }

    #[test]
    fn sharded_smoke_commits_and_converges() {
        let config = ClusterConfig::builder(6, 7).shards(2).build().unwrap();
        let mut cluster = Cluster::build(config);
        cluster.settle();
        let c1 = cluster.attach_routed_client(shard_pool(250));
        let c2 = cluster.attach_routed_client(shard_pool(250));
        cluster.run_for(SimDuration::from_secs(2));
        cluster.stop_clients();
        assert!(cluster.run_to_router_quiescence(SimDuration::from_secs(20)));
        let s1 = cluster.client_stats(c1);
        let s2 = cluster.client_stats(c2);
        assert!(s1.committed > 0 && s2.committed > 0);
        assert_eq!(s1.rejected + s2.rejected, 0);
        let hub = cluster.world.metrics();
        let applied = hub.counter("shard.txns_applied");
        assert!(hub.counter("shard.single_routed") > 0);
        assert!(applied > 0);
        assert_eq!(hub.counter("shard.cross_routed"), applied);
        cluster.check_consistency();
        // Both groups made progress.
        assert!(cluster.green_count(0) > 0);
        assert!(cluster.green_count(3) > 0);
    }

    #[test]
    fn single_shard_cluster_works_like_a_plain_one() {
        let mut cluster = Cluster::build(ClusterConfig::new(3, 11));
        cluster.settle();
        let c = cluster.attach_routed_client(shard_pool(100));
        cluster.run_for(SimDuration::from_secs(1));
        cluster.stop_clients();
        assert!(cluster.run_to_router_quiescence(SimDuration::from_secs(10)));
        assert_eq!(
            cluster.world.metrics().counter("shard.cross_routed"),
            0,
            "one shard never goes cross"
        );
        assert!(cluster.client_stats(c).committed > 0);
        cluster.check_consistency();
    }
}

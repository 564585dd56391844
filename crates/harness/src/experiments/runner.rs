//! The one closed-loop measurement path: paper §7's load model, which
//! every measured experiment reuses. [`deploy`] (or [`engine`], for the
//! engine alone) builds and readies a deployment; [`closed_loop`]
//! attaches closed-loop clients spread round-robin over its replicas
//! ("each computer has both a replica and a client"), warms up and
//! measures a window.

use std::time::Instant;

use todr_sim::{SimDuration, World};

use crate::baselines::BaselineCluster;
use crate::client::{ClientConfig, ClientStats};
use crate::cluster::{ClientHandle, Cluster, ClusterConfig};
use crate::metrics::LatencyStats;

/// Which replication protocol to deploy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// The paper's replication engine.
    Engine {
        /// `true` = asynchronous (delayed) disk writes, `false` = forced.
        delayed_writes: bool,
    },
    /// COReL (total order + per-action end-to-end acks).
    Corel,
    /// Two-phase commit.
    Tpc,
}

impl Protocol {
    /// The three protocols of the paper's comparison, in its order.
    pub const PAPER: [Protocol; 3] = [
        Protocol::Engine {
            delayed_writes: false,
        },
        Protocol::Corel,
        Protocol::Tpc,
    ];

    /// Display label matching the paper's legends.
    pub fn label(&self) -> &'static str {
        match self {
            Protocol::Engine {
                delayed_writes: false,
            } => "Engine (forced writes)",
            Protocol::Engine {
                delayed_writes: true,
            } => "Engine (delayed writes)",
            Protocol::Corel => "COReL",
            Protocol::Tpc => "2PC",
        }
    }
}

/// Result of one measured run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Protocol measured.
    pub protocol: Protocol,
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Actions per second of virtual time over the measurement window.
    pub throughput: f64,
    /// Actions committed inside the window.
    pub committed: u64,
    /// Latency distribution over the window.
    pub latency: LatencyStats,
}

impl RunResult {
    /// Mean latency in milliseconds.
    pub fn mean_latency_ms(&self) -> f64 {
        self.latency.mean().as_millis_f64()
    }
}

/// A readied deployment the closed-loop window can load: the engine
/// cluster or a baseline cluster, each in a world of its own.
pub(super) trait Deployment {
    fn world(&mut self) -> &mut World;
    fn servers(&self) -> usize;
    fn attach_client(&mut self, idx: usize, config: ClientConfig) -> ClientHandle;
    /// Stops the clients and lets what they started finish.
    fn drain(&mut self) {}
    /// Re-verifies the run's safety invariants (a baseline has no
    /// oracle).
    fn check(&mut self) {}
}

impl Deployment for Cluster {
    fn world(&mut self) -> &mut World {
        &mut self.world
    }
    fn servers(&self) -> usize {
        self.servers.len()
    }
    /// A shard-pool client ([`ClientConfig::cross_permille`]) goes
    /// through the router, whatever `idx`.
    fn attach_client(&mut self, idx: usize, config: ClientConfig) -> ClientHandle {
        if config.cross_permille.is_some() {
            self.attach_routed_client(config)
        } else {
            Cluster::attach_client(self, idx, config)
        }
    }
    fn drain(&mut self) {
        self.stop_clients();
        assert!(
            self.run_to_router_quiescence(SimDuration::from_secs(30)),
            "router failed to drain after the measurement window"
        );
    }
    fn check(&mut self) {
        self.check_consistency();
    }
}

impl Deployment for BaselineCluster {
    fn world(&mut self) -> &mut World {
        &mut self.world
    }
    fn servers(&self) -> usize {
        self.servers.len()
    }
    fn attach_client(&mut self, idx: usize, config: ClientConfig) -> ClientHandle {
        BaselineCluster::attach_client(self, idx, config)
    }
}

/// The engine's deployment of `config`, settled: every group's first
/// primary component has formed.
///
/// # Panics
///
/// Panics if `config` fails [`ClusterConfig::validate`] or no primary
/// forms.
pub(super) fn engine(config: ClusterConfig) -> Cluster {
    let mut cluster = Cluster::build(config);
    cluster.settle();
    cluster
}

/// `protocol`'s deployment of `config`, readied for load: the engine
/// (with delayed writes if the variant asks for them) and COReL settle
/// into their group; 2PC has no group to wait for.
pub(super) fn deploy(protocol: Protocol, config: ClusterConfig) -> Box<dyn Deployment> {
    match protocol {
        Protocol::Engine {
            delayed_writes: true,
        } => Box::new(engine(config.delayed_writes())),
        Protocol::Engine { .. } => Box::new(engine(config)),
        Protocol::Corel => {
            let mut cluster = BaselineCluster::corel(&config);
            cluster.settle();
            Box::new(cluster)
        }
        Protocol::Tpc => Box::new(BaselineCluster::tpc(&config)),
    }
}

/// What one closed-loop window measured.
pub(super) struct Window {
    /// Each client's stats, in attach order, read when the window
    /// closed.
    pub stats: Vec<ClientStats>,
    /// Events the world processed in the advance.
    pub sim_events: u64,
    /// Host seconds the advance took.
    pub wall_secs: f64,
}

impl Window {
    /// The clients' merged commit latencies and their commits inside
    /// the window.
    pub fn totals(&self) -> (LatencyStats, u64) {
        let mut latency = LatencyStats::new();
        let mut committed = 0;
        for s in &self.stats {
            latency.merge(&s.latency);
            committed += s.recorded;
        }
        (latency, committed)
    }
}

/// The one closed-loop window. Attaches `clients` clients built from
/// `template`, spread round-robin over the deployment's servers (a
/// shard-pool template goes through the router instead), each recording
/// from the end of `warmup`. Advances `warmup + window`, timing that
/// advance alone. Routed clients are then stopped and the router
/// drained, so every cross-shard transaction the window started counts.
pub(super) fn closed_loop(
    deployment: &mut (impl Deployment + ?Sized),
    clients: usize,
    template: ClientConfig,
    warmup: SimDuration,
    window: SimDuration,
) -> Window {
    let routed = template.cross_permille.is_some();
    let config = ClientConfig {
        record_from: deployment.world().now() + warmup,
        ..template
    };
    let servers = deployment.servers();
    let handles: Vec<ClientHandle> = (0..clients)
        .map(|i| deployment.attach_client(i % servers, config.clone()))
        .collect();
    let world = deployment.world();
    let events_before = world.events_processed();
    let wall = Instant::now();
    world.run_until(world.now() + warmup + window);
    let wall_secs = wall.elapsed().as_secs_f64();
    let sim_events = world.events_processed() - events_before;
    if routed {
        deployment.drain();
    }
    let world = deployment.world();
    Window {
        stats: handles.into_iter().map(|h| h.stats(world)).collect(),
        sim_events,
        wall_secs,
    }
}

/// Runs `clients` closed-loop clients against `n_servers` replicas of
/// `protocol` for `warmup + window` of virtual time and reports the
/// window, with EVS message packing up to `max_pack` submissions per
/// wire frame (engine deployments only; 1 = off; the baselines ignore
/// the knob).
#[allow(clippy::too_many_arguments)]
pub fn run_workload(
    protocol: Protocol,
    n_servers: u32,
    clients: usize,
    max_pack: usize,
    warmup: SimDuration,
    window: SimDuration,
    seed: u64,
) -> RunResult {
    let config = ClusterConfig::new(n_servers, seed).packing(max_pack);
    let mut deployment = deploy(protocol, config);
    let measured = closed_loop(
        &mut *deployment,
        clients,
        ClientConfig::default(),
        warmup,
        window,
    );
    deployment.check();
    let (latency, committed) = measured.totals();
    RunResult {
        protocol,
        clients,
        throughput: committed as f64 / window.as_secs_f64(),
        committed,
        latency,
    }
}

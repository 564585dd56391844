//! The shared workload runner: build a deployment of the chosen
//! protocol, attach closed-loop clients, warm up, measure.

use todr_sim::{SimDuration, World};

use crate::baselines::BaselineCluster;
use crate::client::ClientConfig;
use crate::cluster::{ClientHandle, Cluster, ClusterConfig};
use crate::metrics::LatencyStats;

use super::client_totals;

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

/// What differs between the deployments the measurement loop drives:
/// the engine cluster and the baseline cluster attach clients to
/// different actors, in one world each.
trait Deployment {
    fn world(&mut self) -> &mut World;
    fn attach_client(&mut self, idx: usize, config: ClientConfig) -> ClientHandle;
}

impl Deployment for Cluster {
    fn world(&mut self) -> &mut World {
        &mut self.world
    }
    fn attach_client(&mut self, idx: usize, config: ClientConfig) -> ClientHandle {
        Cluster::attach_client(self, idx, config)
    }
}

impl Deployment for BaselineCluster {
    fn world(&mut self) -> &mut World {
        &mut self.world
    }
    fn attach_client(&mut self, idx: usize, config: ClientConfig) -> ClientHandle {
        BaselineCluster::attach_client(self, idx, config)
    }
}

fn measure(
    deployment: &mut impl Deployment,
    n_servers: u32,
    clients: usize,
    warmup: SimDuration,
    measure: SimDuration,
) -> (LatencyStats, u64) {
    let record_from = deployment.world().now() + warmup;
    let client_config = ClientConfig {
        record_from,
        ..ClientConfig::default()
    };
    let handles: Vec<ClientHandle> = (0..clients)
        .map(|i| deployment.attach_client(i % n_servers as usize, client_config.clone()))
        .collect();
    let world = deployment.world();
    world.run_until(world.now() + warmup + measure);
    client_totals(handles.into_iter().map(|h| h.stats(world)))
}

/// Runs `clients` closed-loop clients against `n_servers` replicas of
/// `protocol` for `warmup + measure` of virtual time and reports the
/// measured window. Clients are spread round-robin across servers, as
/// in the paper ("each computer has both a replica and a client").
pub fn run_workload(
    protocol: Protocol,
    n_servers: u32,
    clients: usize,
    warmup: SimDuration,
    window: SimDuration,
    seed: u64,
) -> RunResult {
    run_workload_packed(protocol, n_servers, clients, 1, warmup, window, seed)
}

/// [`run_workload`] with EVS message packing up to `max_pack`
/// submissions per wire frame (engine deployments only; the baselines
/// ignore the knob).
#[allow(clippy::too_many_arguments)]
pub fn run_workload_packed(
    protocol: Protocol,
    n_servers: u32,
    clients: usize,
    max_pack: usize,
    warmup: SimDuration,
    window: SimDuration,
    seed: u64,
) -> RunResult {
    let mut config = ClusterConfig::new(n_servers, seed).packing(max_pack);
    if matches!(
        protocol,
        Protocol::Engine {
            delayed_writes: true
        }
    ) {
        config = config.delayed_writes();
    }

    let (latency, committed) = match protocol {
        Protocol::Engine { .. } => {
            let mut cluster = Cluster::build(config);
            cluster.settle();
            let result = measure(&mut cluster, n_servers, clients, warmup, window);
            cluster.check_consistency();
            result
        }
        Protocol::Corel => {
            let mut cluster = BaselineCluster::corel(&config);
            cluster.settle();
            measure(&mut cluster, n_servers, clients, warmup, window)
        }
        Protocol::Tpc => {
            let mut cluster = BaselineCluster::tpc(&config);
            measure(&mut cluster, n_servers, clients, warmup, window)
        }
    };

    RunResult {
        protocol,
        clients,
        throughput: committed as f64 / window.as_secs_f64(),
        committed,
        latency,
    }
}

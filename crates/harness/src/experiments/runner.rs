//! The shared workload runner: build a deployment of the chosen
//! protocol, attach closed-loop clients, warm up, measure.

use todr_sim::{ActorId, SimDuration, SimTime};

use crate::baselines::{CorelCluster, TpcCluster};
use crate::client::{ClientConfig, ClientStats};
use crate::cluster::{Cluster, ClusterConfig};
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

/// The operations the measurement loop needs from any deployment — the
/// engine cluster and both baseline clusters expose the same surface.
trait Deployment {
    type Handle: Copy;
    fn attach(&mut self, idx: usize, config: ClientConfig) -> Self::Handle;
    fn stats(&mut self, client: Self::Handle) -> ClientStats;
    fn advance(&mut self, d: SimDuration);
    fn now(&self) -> SimTime;
}

impl Deployment for Cluster {
    type Handle = crate::cluster::ClientHandle;
    fn attach(&mut self, idx: usize, config: ClientConfig) -> Self::Handle {
        self.attach_client(idx, config)
    }
    fn stats(&mut self, client: Self::Handle) -> ClientStats {
        self.client_stats(client)
    }
    fn advance(&mut self, d: SimDuration) {
        self.run_for(d);
    }
    fn now(&self) -> SimTime {
        Cluster::now(self)
    }
}

impl Deployment for CorelCluster {
    type Handle = ActorId;
    fn attach(&mut self, idx: usize, config: ClientConfig) -> ActorId {
        self.attach_client(idx, config)
    }
    fn stats(&mut self, client: ActorId) -> ClientStats {
        self.client_stats(client)
    }
    fn advance(&mut self, d: SimDuration) {
        self.run_for(d);
    }
    fn now(&self) -> SimTime {
        self.world.now()
    }
}

impl Deployment for TpcCluster {
    type Handle = ActorId;
    fn attach(&mut self, idx: usize, config: ClientConfig) -> ActorId {
        self.attach_client(idx, config)
    }
    fn stats(&mut self, client: ActorId) -> ClientStats {
        self.client_stats(client)
    }
    fn advance(&mut self, d: SimDuration) {
        self.run_for(d);
    }
    fn now(&self) -> SimTime {
        self.world.now()
    }
}

fn measure<D: Deployment>(
    deployment: &mut D,
    n_servers: u32,
    clients: usize,
    warmup: SimDuration,
    measure: SimDuration,
) -> (LatencyStats, u64) {
    let record_from = deployment.now() + warmup;
    let client_config = ClientConfig {
        record_from,
        ..ClientConfig::default()
    };
    let handles: Vec<D::Handle> = (0..clients)
        .map(|i| deployment.attach(i % n_servers as usize, client_config.clone()))
        .collect();
    deployment.advance(warmup + measure);
    client_totals(handles.into_iter().map(|h| deployment.stats(h)))
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
            let mut cluster = CorelCluster::build(&config);
            cluster.settle();
            measure(&mut cluster, n_servers, clients, warmup, window)
        }
        Protocol::Tpc => {
            let mut cluster = TpcCluster::build(&config);
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

//! Deployment builders for the baseline protocols (2PC, COReL), mirroring
//! [`crate::cluster::Cluster`] for the engine.

use todr_baselines::{CorelConfig, CorelServer, TpcConfig, TpcServer};
use todr_evs::{EvsCmd, EvsConfig, EvsDaemon};
use todr_net::{NetFabric, NodeId};
use todr_sim::{ActorId, SimDuration, World};
use todr_storage::DiskActor;

use crate::client::{ClientConfig, ClientStats, ClosedLoopClient, StartClient};
use crate::cluster::ClusterConfig;

/// A deployment of [`TpcServer`]s.
pub struct TpcCluster {
    /// The simulation world.
    pub world: World,
    /// The shared fabric.
    pub fabric: ActorId,
    /// Per-server engine actors.
    pub servers: Vec<ActorId>,
    clients: Vec<ActorId>,
}

impl TpcCluster {
    /// Builds `n_servers` two-phase-commit replicas.
    pub fn build(config: &ClusterConfig) -> Self {
        let mut world = World::new(config.seed);
        world.set_event_limit(500_000_000);
        let fabric = world.add_actor("net", NetFabric::new(config.net.clone()));
        let nodes: Vec<NodeId> = (0..config.n_servers).map(NodeId::new).collect();
        let mut servers = Vec::new();
        for &node in &nodes {
            let disk = world.add_actor(format!("disk-{node}"), DiskActor::new(config.disk_mode));
            let mut tpc_config = TpcConfig::new(node, nodes.clone());
            tpc_config.cpu_per_action = config.cpu_per_action;
            let server = world.add_actor(
                format!("tpc-{node}"),
                TpcServer::new(tpc_config, fabric, disk),
            );
            world.with_actor(fabric, |f: &mut NetFabric| f.register(node, server));
            servers.push(server);
        }
        TpcCluster {
            world,
            fabric,
            servers,
            clients: Vec::new(),
        }
    }

    /// Attaches and starts a closed-loop client on server `idx`.
    pub fn attach_client(&mut self, idx: usize, config: ClientConfig) -> ActorId {
        let id = todr_core::ClientId(self.clients.len() as u32 + 1);
        let client = self.world.add_actor(
            format!("client-{}", id.0),
            ClosedLoopClient::new(id, self.servers[idx], 1, config),
        );
        self.world.schedule_now(client, StartClient);
        self.clients.push(client);
        client
    }

    /// A client's progress.
    pub fn client_stats(&mut self, client: ActorId) -> ClientStats {
        self.world
            .with_actor(client, |c: &mut ClosedLoopClient| c.stats().clone())
    }

    /// Runs for a span of virtual time.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.world.now() + d;
        self.world.run_until(deadline);
    }
}

/// A deployment of [`CorelServer`]s over the EVS layer.
pub struct CorelCluster {
    /// The simulation world.
    pub world: World,
    /// The shared fabric.
    pub fabric: ActorId,
    /// Per-server engine actors.
    pub servers: Vec<ActorId>,
    daemons: Vec<ActorId>,
    clients: Vec<ActorId>,
}

impl CorelCluster {
    /// Builds `n_servers` COReL replicas and joins them to the group.
    pub fn build(config: &ClusterConfig) -> Self {
        let mut world = World::new(config.seed);
        world.set_event_limit(500_000_000);
        let fabric = world.add_actor("net", NetFabric::new(config.net.clone()));
        let nodes: Vec<NodeId> = (0..config.n_servers).map(NodeId::new).collect();
        let mut servers = Vec::new();
        let mut daemons = Vec::new();
        for &node in &nodes {
            let disk = world.add_actor(format!("disk-{node}"), DiskActor::new(config.disk_mode));
            let evs_config = EvsConfig {
                universe: nodes.clone(),
                hb_interval: config.hb_interval,
                fail_timeout: config.fail_timeout,
                ack_delay: config.ack_delay,
                reliable_links: config.reliable_links,
                // COReL provides its own end-to-end acknowledgements, so
                // it consumes agreed (total-order) delivery, as in [16].
                deliver_agreed: true,
                ..EvsConfig::default()
            };
            let daemon = world.add_actor(
                format!("evs-{node}"),
                EvsDaemon::new(node, fabric, ActorId::from_raw(0), evs_config),
            );
            let mut corel_config = CorelConfig::new(node, nodes.clone());
            corel_config.cpu_per_action = config.cpu_per_action;
            let server = world.add_actor(
                format!("corel-{node}"),
                CorelServer::new(corel_config, daemon, fabric, disk),
            );
            world.with_actor(daemon, |d: &mut EvsDaemon| d.set_app(server));
            world.with_actor(fabric, |f: &mut NetFabric| f.register(node, daemon));
            servers.push(server);
            daemons.push(daemon);
        }
        for &daemon in &daemons {
            world.schedule_now(daemon, EvsCmd::JoinGroup);
        }
        CorelCluster {
            world,
            fabric,
            servers,
            daemons,
            clients: Vec::new(),
        }
    }

    /// Waits for the group to converge on the full membership.
    ///
    /// # Panics
    ///
    /// Panics if the group does not converge within 5 seconds.
    pub fn settle(&mut self) {
        let deadline = self.world.now() + SimDuration::from_secs(5);
        loop {
            self.run_for(SimDuration::from_millis(100));
            let converged = self.daemons.iter().all(|&d| {
                self.world.with_actor(d, |dd: &mut EvsDaemon| {
                    dd.is_steady()
                        && dd
                            .current_conf()
                            .is_some_and(|c| c.members.len() == self.servers.len())
                })
            });
            if converged {
                return;
            }
            assert!(self.world.now() < deadline, "COReL group failed to form");
        }
    }

    /// Attaches and starts a closed-loop client on server `idx`.
    pub fn attach_client(&mut self, idx: usize, config: ClientConfig) -> ActorId {
        let id = todr_core::ClientId(self.clients.len() as u32 + 1);
        let client = self.world.add_actor(
            format!("client-{}", id.0),
            ClosedLoopClient::new(id, self.servers[idx], 1, config),
        );
        self.world.schedule_now(client, StartClient);
        self.clients.push(client);
        client
    }

    /// A client's progress.
    pub fn client_stats(&mut self, client: ActorId) -> ClientStats {
        self.world
            .with_actor(client, |c: &mut ClosedLoopClient| c.stats().clone())
    }

    /// Runs for a span of virtual time.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.world.now() + d;
        self.world.run_until(deadline);
    }
}

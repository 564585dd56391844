//! Deployments of the baseline protocols (2PC, COReL), mirroring
//! [`crate::cluster::Cluster`] for the engine: one type, with a
//! constructor per protocol.

use todr_baselines::{CorelConfig, CorelServer, TpcConfig, TpcServer};
use todr_evs::{EvsCmd, EvsConfig, EvsDaemon};
use todr_net::{NetFabric, NodeId};
use todr_sim::{ActorId, SimDuration, World};
use todr_storage::DiskActor;

use crate::client::{ClientConfig, ClientStats, ClosedLoopClient, StartClient};
use crate::cluster::{ClientHandle, ClusterConfig};

/// A deployment of [`TpcServer`]s or of [`CorelServer`]s, one per node,
/// each with its own disk, on one shared fabric.
pub struct BaselineCluster {
    /// The simulation world.
    pub world: World,
    /// The shared fabric.
    pub fabric: ActorId,
    /// Per-server protocol actors.
    pub servers: Vec<ActorId>,
    /// Per-server EVS daemons (COReL only).
    daemons: Vec<ActorId>,
    clients: Vec<ClientHandle>,
}

impl BaselineCluster {
    /// Builds `n_servers` two-phase-commit replicas.
    pub fn tpc(config: &ClusterConfig) -> Self {
        BaselineCluster::build(config, |world, node, nodes, fabric, disk| {
            let tpc_config = TpcConfig::new(node, nodes.to_vec());
            let server = world.add_actor(
                format!("tpc-{node}"),
                TpcServer::new(tpc_config, fabric, disk),
            );
            (server, None)
        })
    }

    /// Builds `n_servers` COReL replicas over the EVS layer and joins
    /// them to the group.
    pub fn corel(config: &ClusterConfig) -> Self {
        let mut cluster = BaselineCluster::build(config, |world, node, nodes, fabric, disk| {
            let evs_config = EvsConfig {
                universe: nodes.to_vec(),
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
            let corel_config = CorelConfig::new(node, nodes.to_vec());
            let server = world.add_actor(
                format!("corel-{node}"),
                CorelServer::new(corel_config, daemon, fabric, disk),
            );
            world.with_actor(daemon, |d: &mut EvsDaemon| d.set_app(server));
            (server, Some(daemon))
        });
        for &daemon in &cluster.daemons {
            cluster.world.schedule_now(daemon, EvsCmd::JoinGroup);
        }
        cluster
    }

    /// The world, the fabric and a disk per node; `add_server` adds a
    /// node's protocol actor and, if it talks through one, its EVS
    /// daemon, which the fabric then delivers to instead.
    fn build(
        config: &ClusterConfig,
        mut add_server: impl FnMut(
            &mut World,
            NodeId,
            &[NodeId],
            ActorId,
            ActorId,
        ) -> (ActorId, Option<ActorId>),
    ) -> Self {
        let mut world = World::new(config.seed);
        world.set_event_limit(500_000_000);
        let fabric = world.add_actor("net", NetFabric::new(config.net.clone()));
        let nodes: Vec<NodeId> = (0..config.n_servers).map(NodeId::new).collect();
        let (mut servers, mut daemons) = (Vec::new(), Vec::new());
        for &node in &nodes {
            let disk = world.add_actor(format!("disk-{node}"), DiskActor::new(config.disk_mode));
            let (server, daemon) = add_server(&mut world, node, &nodes, fabric, disk);
            let endpoint = daemon.unwrap_or(server);
            world.with_actor(fabric, |f: &mut NetFabric| f.register(node, endpoint));
            servers.push(server);
            daemons.extend(daemon);
        }
        BaselineCluster {
            world,
            fabric,
            servers,
            daemons,
            clients: Vec::new(),
        }
    }

    /// Waits for the COReL group to converge on the full membership (a
    /// 2PC deployment has no group to wait for).
    ///
    /// # Panics
    ///
    /// Panics if the group does not converge within 5 seconds.
    pub fn settle(&mut self) {
        let deadline = self.world.now() + SimDuration::from_secs(5);
        while !self.daemons.is_empty() {
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
    pub fn attach_client(&mut self, idx: usize, config: ClientConfig) -> ClientHandle {
        let id = todr_core::ClientId(self.clients.len() as u32 + 1);
        let client = self.world.add_actor(
            format!("client-{}", id.0),
            ClosedLoopClient::new(id, self.servers[idx], 1, config),
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

    /// Runs for a span of virtual time.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.world.now() + d;
        self.world.run_until(deadline);
    }
}

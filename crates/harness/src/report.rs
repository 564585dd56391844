//! Run reports: one-stop aggregation of every layer's counters for an
//! engine cluster, with a human-readable rendering. Used by examples
//! and by tests that assert on protocol costs (e.g. "no per-action
//! acknowledgements").

use std::fmt;

use todr_core::{EngineState, EngineStats};
use todr_evs::EvsStats;
use todr_net::{NetFabric, NetStats, NodeId};
use todr_sim::{MetricsExport, SimTime};
use todr_storage::{DiskActor, DiskStats};

use crate::cluster::Cluster;

/// One server's counters.
#[derive(Debug, Clone)]
pub struct ServerReport {
    /// The server.
    pub node: NodeId,
    /// Protocol state at capture time.
    pub state: EngineState,
    /// Engine counters.
    pub engine: EngineStats,
    /// Group-communication counters.
    pub evs: EvsStats,
    /// Disk counters.
    pub disk: DiskStats,
    /// Green count at capture time.
    pub green: u64,
}

/// Cluster-wide counters at one instant.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Capture time.
    pub at: SimTime,
    /// Fabric counters of the first group (every group's are in
    /// `metrics`, under its `g{i}.net.` prefix).
    pub net: NetStats,
    /// Per-server rows.
    pub servers: Vec<ServerReport>,
    /// The world's typed observability bus: every counter and latency
    /// histogram recorded across net / EVS / storage / engine, plus the
    /// typed-event tallies. Deterministic for a fixed seed.
    pub metrics: MetricsExport,
}

impl ClusterReport {
    /// Captures a report from a cluster.
    pub fn capture(cluster: &mut Cluster) -> Self {
        let net = cluster
            .world
            .with_actor(cluster.servers[0].fabric, |f: &mut NetFabric| f.stats());
        let servers = (0..cluster.servers.len())
            .map(|i| {
                let handles = cluster.servers[i];
                let (state, engine, green) =
                    cluster.with_engine(i, |e| (e.state(), e.stats(), e.green_count()));
                let evs = cluster
                    .world
                    .with_actor(handles.daemon, |d: &mut todr_evs::EvsDaemon| d.stats());
                let disk = cluster
                    .world
                    .with_actor(handles.disk, |d: &mut DiskActor| d.stats());
                ServerReport {
                    node: handles.node,
                    state,
                    engine,
                    evs,
                    disk,
                    green,
                }
            })
            .collect();
        ClusterReport {
            at: cluster.now(),
            net,
            servers,
            metrics: cluster.metrics_export(),
        }
    }

    /// The observability bus as deterministic, pretty-printed JSON —
    /// two runs with the same seed produce byte-identical output.
    pub fn metrics_json(&self) -> String {
        self.metrics.to_json_pretty()
    }

    /// Total forced-write requests across the cluster.
    pub fn total_syncs(&self) -> u64 {
        self.servers.iter().map(|s| s.disk.sync_requests).sum()
    }

    /// Total actions marked green across the cluster (sum over
    /// replicas; divide by the replica count for unique actions).
    pub fn total_green_marks(&self) -> u64 {
        self.servers.iter().map(|s| s.engine.marked_green).sum()
    }

    /// Total actions created (unique actions entering the system).
    pub fn total_actions_created(&self) -> u64 {
        self.servers.iter().map(|s| s.engine.actions_created).sum()
    }
}

impl fmt::Display for ClusterReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "cluster report at {}", self.at)?;
        writeln!(
            f,
            "  net: sent={} delivered={} dropped={} ({} partition / {} loss / {} crash), {} bytes",
            self.net.sent,
            self.net.delivered,
            self.net.dropped(),
            self.net.dropped_partition,
            self.net.dropped_loss,
            self.net.dropped_crashed,
            self.net.bytes_delivered,
        )?;
        for s in &self.servers {
            writeln!(
                f,
                "  {}: {:?} green={} created={} red={} yellow={} syncs={} (disk {} performed) \
                 exch={} prims={} evs[sub={} seq={} safe={} trans={} confs={}]",
                s.node,
                s.state,
                s.green,
                s.engine.actions_created,
                s.engine.marked_red,
                s.engine.marked_yellow,
                s.disk.sync_requests,
                s.disk.syncs_performed,
                s.engine.exchanges_completed,
                s.engine.primaries_installed,
                s.evs.submitted,
                s.evs.sequenced,
                s.evs.delivered_safe,
                s.evs.delivered_trans,
                s.evs.confs_installed,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClientConfig;
    use crate::cluster::ClusterConfig;
    use todr_sim::SimDuration;

    #[test]
    fn report_reflects_protocol_cost_structure() {
        let mut cluster = Cluster::build(ClusterConfig::new(3, 51));
        cluster.settle();
        let client = cluster.attach_client(
            0,
            ClientConfig {
                max_requests: Some(50),
                ..ClientConfig::default()
            },
        );
        cluster.run_for(SimDuration::from_secs(3));
        assert_eq!(cluster.client_stats(client).committed, 50);
        let report = ClusterReport::capture(&mut cluster);

        // The paper's cost claim: ONE forced write per action, at the
        // origin only. Allow the handful of membership-change syncs.
        let actions = report.total_actions_created();
        assert!(actions >= 50);
        let syncs = report.total_syncs();
        assert!(
            syncs < actions + 30,
            "too many forced writes for {actions} actions: {syncs}"
        );

        // Every replica marked every action green.
        assert_eq!(report.total_green_marks() % 3, 0);
        let rendered = report.to_string();
        assert!(rendered.contains("cluster report"));
        assert!(rendered.contains("n0"));
    }
}

//! Ablations over the substrate parameters DESIGN.md calls out: message
//! loss, network profile (LAN vs WAN), and forced-write latency.
//!
//! * [`loss_sweep`] — throughput as random message loss grows, with the
//!   reliable-link layer absorbing it (§2.1's failure model).
//! * [`wan_latency`] — the paper's §7 prediction: *"it is expected that
//!   on wide area network, where network latency becomes a more
//!   important factor, COReL will further outperform two-phase commit"*
//!   — and the engine, needing no per-action end-to-end round at all,
//!   outperforms both.
//! * [`fsync_sweep`] — the disk-bound claim: engine throughput tracks
//!   the forced-write latency almost inversely while the delayed-writes
//!   configuration ignores it.

use todr_net::NetConfig;
use todr_sim::SimDuration;

use crate::baselines::BaselineCluster;
use crate::client::ClientConfig;
use crate::cluster::{Cluster, ClusterConfig};
use todr_storage::DiskMode;

use super::render_table;

/// One point of the loss sweep.
#[derive(Debug, Clone)]
pub struct LossPoint {
    /// Per-message loss probability.
    pub loss: f64,
    /// Engine throughput (actions/s).
    pub throughput: f64,
}

/// Runs the loss sweep: `clients` closed-loop clients against
/// `n_servers` engine replicas, at each loss rate.
pub fn loss_sweep(
    n_servers: u32,
    clients: usize,
    rates: &[f64],
    measure: SimDuration,
    seed: u64,
) -> Vec<LossPoint> {
    let warmup = SimDuration::from_millis(800);
    rates
        .iter()
        .map(|&loss| {
            let mut config = ClusterConfig::new(n_servers, seed);
            if loss > 0.0 {
                config = config.lossy(loss);
            }
            let mut cluster = Cluster::build(config);
            cluster.settle();
            let record_from = cluster.now() + warmup;
            let handles: Vec<_> = (0..clients)
                .map(|i| {
                    cluster.attach_client(
                        i % n_servers as usize,
                        ClientConfig {
                            record_from,
                            ..ClientConfig::default()
                        },
                    )
                })
                .collect();
            cluster.run_for(warmup + measure);
            cluster.check_consistency();
            let committed: u64 = handles
                .iter()
                .map(|&h| cluster.client_stats(h).recorded)
                .sum();
            LossPoint {
                loss,
                throughput: committed as f64 / measure.as_secs_f64(),
            }
        })
        .collect()
}

/// Renders a loss sweep as a text table.
pub fn loss_sweep_table(points: &[LossPoint], n_servers: u32, clients: usize) -> String {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{:.0}%", p.loss * 100.0),
                format!("{:.0}", p.throughput),
            ]
        })
        .collect();
    format!(
        "Engine throughput vs message loss ({n_servers} replicas, {clients} clients, reliable links)\n{}",
        render_table(&["loss", "actions/s"], &rows)
    )
}

/// One protocol's mean latency on a network profile.
#[derive(Debug, Clone)]
pub struct WanRow {
    /// Protocol label.
    pub protocol: &'static str,
    /// Mean latency on the LAN profile (ms).
    pub lan_ms: f64,
    /// Mean latency on the WAN profile (ms).
    pub wan_ms: f64,
}

/// Measures single-client mean latency per protocol on LAN vs WAN.
pub fn wan_latency(n_servers: u32, actions: u64, seed: u64) -> Vec<WanRow> {
    let run_engine = |net: NetConfig| -> f64 {
        let mut config = ClusterConfig::new(n_servers, seed);
        config.net = net;
        let mut cluster = Cluster::build(config);
        cluster.settle();
        let client = cluster.attach_client(
            0,
            ClientConfig {
                max_requests: Some(actions),
                ..ClientConfig::default()
            },
        );
        cluster.run_for(SimDuration::from_secs(2 + actions / 4));
        cluster.client_stats(client).latency.mean().as_millis_f64()
    };
    let run_corel = |net: NetConfig| -> f64 {
        let mut config = ClusterConfig::new(n_servers, seed);
        config.net = net;
        let mut cluster = BaselineCluster::corel(&config);
        cluster.settle();
        let client = cluster.attach_client(
            0,
            ClientConfig {
                max_requests: Some(actions),
                ..ClientConfig::default()
            },
        );
        cluster.run_for(SimDuration::from_secs(2 + actions / 4));
        cluster.client_stats(client).latency.mean().as_millis_f64()
    };
    let run_tpc = |net: NetConfig| -> f64 {
        let mut config = ClusterConfig::new(n_servers, seed);
        config.net = net;
        let mut cluster = BaselineCluster::tpc(&config);
        let client = cluster.attach_client(
            0,
            ClientConfig {
                max_requests: Some(actions),
                ..ClientConfig::default()
            },
        );
        cluster.run_for(SimDuration::from_secs(2 + actions / 4));
        cluster.client_stats(client).latency.mean().as_millis_f64()
    };

    // WAN without random loss isolates the latency effect.
    let wan = NetConfig::wan(0.0);
    vec![
        WanRow {
            protocol: "Engine",
            lan_ms: run_engine(NetConfig::lan()),
            wan_ms: run_engine(wan.clone()),
        },
        WanRow {
            protocol: "COReL",
            lan_ms: run_corel(NetConfig::lan()),
            wan_ms: run_corel(wan.clone()),
        },
        WanRow {
            protocol: "2PC",
            lan_ms: run_tpc(NetConfig::lan()),
            wan_ms: run_tpc(wan),
        },
    ]
}

/// Renders the WAN comparison.
pub fn wan_latency_table(rows: &[WanRow], n_servers: u32) -> String {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.protocol.to_string(),
                format!("{:.1}", r.lan_ms),
                format!("{:.1}", r.wan_ms),
                format!("{:.1}", r.wan_ms - r.lan_ms),
            ]
        })
        .collect();
    format!(
        "Mean latency LAN vs WAN, 1 client, {n_servers} replicas (§7 prediction)\n{}",
        render_table(&["protocol", "LAN ms", "WAN ms", "delta"], &table_rows)
    )
}

/// One point of the forced-write-latency sweep.
#[derive(Debug, Clone)]
pub struct FsyncPoint {
    /// Platter sync latency in milliseconds.
    pub sync_ms: u64,
    /// Engine (forced writes) throughput.
    pub forced: f64,
    /// Engine (delayed writes) throughput — the control.
    pub delayed: f64,
}

/// Sweeps the simulated disk's sync latency.
pub fn fsync_sweep(
    n_servers: u32,
    clients: usize,
    sync_ms: &[u64],
    measure: SimDuration,
    seed: u64,
) -> Vec<FsyncPoint> {
    let warmup = SimDuration::from_millis(500);
    let run = |mode: DiskMode| -> f64 {
        let mut config = ClusterConfig::new(n_servers, seed);
        config.disk_mode = mode;
        let mut cluster = Cluster::build(config);
        cluster.settle();
        let record_from = cluster.now() + warmup;
        let handles: Vec<_> = (0..clients)
            .map(|i| {
                cluster.attach_client(
                    i % n_servers as usize,
                    ClientConfig {
                        record_from,
                        ..ClientConfig::default()
                    },
                )
            })
            .collect();
        cluster.run_for(warmup + measure);
        let committed: u64 = handles
            .iter()
            .map(|&h| cluster.client_stats(h).recorded)
            .sum();
        committed as f64 / measure.as_secs_f64()
    };
    let delayed = run(DiskMode::Delayed);
    sync_ms
        .iter()
        .map(|&ms| FsyncPoint {
            sync_ms: ms,
            forced: run(DiskMode::Forced {
                sync_latency: SimDuration::from_millis(ms),
            }),
            delayed,
        })
        .collect()
}

/// Renders the fsync sweep.
pub fn fsync_sweep_table(points: &[FsyncPoint], n_servers: u32, clients: usize) -> String {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{} ms", p.sync_ms),
                format!("{:.0}", p.forced),
                format!("{:.0}", p.delayed),
            ]
        })
        .collect();
    format!(
        "Engine throughput vs forced-write latency ({n_servers} replicas, {clients} clients)\n{}",
        render_table(&["sync latency", "forced", "delayed (control)"], &rows)
    )
}

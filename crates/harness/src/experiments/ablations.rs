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
use todr_storage::DiskMode;

use crate::client::ClientConfig;
use crate::cluster::ClusterConfig;

use super::runner::{closed_loop, deploy, engine};
use super::{render_table, Protocol};

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
            let mut cluster = engine(config);
            let measured = closed_loop(
                &mut cluster,
                clients,
                ClientConfig::default(),
                warmup,
                measure,
            );
            cluster.check_consistency();
            LossPoint {
                loss,
                throughput: measured.totals().1 as f64 / measure.as_secs_f64(),
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
    let mean_ms = |protocol, net: NetConfig| -> f64 {
        let config = ClusterConfig {
            net,
            ..ClusterConfig::new(n_servers, seed)
        };
        let client = ClientConfig {
            max_requests: Some(actions),
            ..ClientConfig::default()
        };
        let budget = SimDuration::from_secs(2 + actions / 4);
        let mut deployment = deploy(protocol, config);
        let measured = closed_loop(&mut *deployment, 1, client, SimDuration::ZERO, budget);
        measured.stats[0].latency.mean().as_millis_f64()
    };

    // WAN without random loss isolates the latency effect.
    let wan = NetConfig::wan(0.0);
    let labels = ["Engine", "COReL", "2PC"];
    Protocol::PAPER
        .into_iter()
        .zip(labels)
        .map(|(protocol, label)| WanRow {
            protocol: label,
            lan_ms: mean_ms(protocol, NetConfig::lan()),
            wan_ms: mean_ms(protocol, wan.clone()),
        })
        .collect()
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
        let config = ClusterConfig {
            disk_mode: mode,
            ..ClusterConfig::new(n_servers, seed)
        };
        let mut cluster = engine(config);
        let measured = closed_loop(
            &mut cluster,
            clients,
            ClientConfig::default(),
            warmup,
            measure,
        );
        measured.totals().1 as f64 / measure.as_secs_f64()
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

//! The §7 latency experiment: one client submits a set of actions
//! sequentially; we record the per-action response time for each
//! protocol.
//!
//! Paper's measurements (14 replicas, LAN, disk-bound): two-phase
//! commit ≈ 19.3 ms (two sequential forced writes), COReL ≈ 11.4 ms and
//! the engine ≈ 11.4 ms (one forced write each, network offset by disk
//! latency), "regardless of the number of servers".

use todr_sim::SimDuration;

use crate::client::ClientConfig;
use crate::cluster::ClusterConfig;
use crate::metrics::LatencyStats;

use super::runner::{closed_loop, deploy};
use super::{render_table, Protocol};

/// One protocol's latency summary.
#[derive(Debug, Clone)]
pub struct LatencyRow {
    /// Protocol measured.
    pub protocol: Protocol,
    /// Actions completed.
    pub actions: u64,
    /// Latency distribution.
    pub latency: LatencyStats,
}

/// The experiment's data.
#[derive(Debug, Clone)]
pub struct LatencyTable {
    /// Replicas deployed.
    pub n_servers: u32,
    /// Sequential actions issued.
    pub actions: u64,
    /// One row per protocol.
    pub rows: Vec<LatencyRow>,
}

/// Runs the experiment: `actions` sequential requests from a single
/// client against `n_servers` replicas of each protocol.
pub fn run(n_servers: u32, actions: u64, seed: u64) -> LatencyTable {
    // Generous wall-clock bound: 2000 sequential ~20ms actions ≈ 40 s.
    let budget = SimDuration::from_secs(1 + actions / 20);
    let client_config = ClientConfig {
        max_requests: Some(actions),
        ..ClientConfig::default()
    };
    let rows = Protocol::PAPER
        .into_iter()
        .map(|protocol| {
            let mut deployment = deploy(protocol, ClusterConfig::new(n_servers, seed));
            let measured = closed_loop(
                &mut *deployment,
                1,
                client_config.clone(),
                SimDuration::ZERO,
                budget,
            );
            let stats = &measured.stats[0];
            LatencyRow {
                protocol,
                actions: stats.committed,
                latency: stats.latency.clone(),
            }
        })
        .collect();
    LatencyTable {
        n_servers,
        actions,
        rows,
    }
}

impl LatencyTable {
    /// The experiment as an aligned text table.
    pub fn to_table(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.protocol.label().to_string(),
                    r.actions.to_string(),
                    format!("{:.1}", r.latency.mean().as_millis_f64()),
                    format!("{:.1}", r.latency.percentile(50.0).as_millis_f64()),
                    format!("{:.1}", r.latency.percentile(99.0).as_millis_f64()),
                ]
            })
            .collect();
        format!(
            "Latency, 1 client x {} sequential actions, {} replicas (§7)\n{}",
            self.actions,
            self.n_servers,
            render_table(
                &["protocol", "actions", "mean ms", "p50 ms", "p99 ms"],
                &rows
            )
        )
    }
}

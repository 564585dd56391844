//! Shard scaling sweep (extension A10): aggregate throughput of `S`
//! replication groups behind the [`ShardRouter`](todr_shard::ShardRouter)
//! vs one group under the identical offered load.
//!
//! The paper's engine tops out at one EVS group's ordering capacity —
//! adding replicas adds fan-out, never capacity. The sharded deployment
//! claims near-linear aggregate scaling for a well-partitioned workload
//! (mostly single-shard actions, a small cross-shard fraction). This
//! sweep measures that claim honestly:
//!
//! * For every shard count `S`, the sharded cluster runs `S × 12`
//!   closed-loop clients (enough to saturate each 3-replica group —
//!   the single-group knee sits near 8 clients, see
//!   `BENCH_saturation.json`).
//! * A **control cell** runs the *same total client count* against one
//!   group, so `speedup = T(S shards) / T(1 shard, same clients)`
//!   isolates capacity scaling from load scaling.
//! * 5% of requests are genuine cross-shard transactions (two puts on
//!   two shards) paying the full prepare/merge/commit protocol, so the
//!   scaling number includes the coordination tax rather than assuming
//!   it away.
//!
//! Every cell ends with the router drained and all per-group safety
//! invariants re-verified. Emits the machine-readable `BENCH_shard.json`
//! consumed by [`ShardSweep::gate`].

use serde::{Deserialize, Serialize};
use todr_sim::SimDuration;

use super::runner::{closed_loop, engine};
use super::{round1, round3, Gate, Gated};
use crate::client::ClientConfig;
use crate::cluster::ClusterConfig;

/// Replicas in every group.
pub const REPLICAS_PER_SHARD: u32 = 3;
/// Closed-loop clients attached per shard.
pub const CLIENTS_PER_SHARD: usize = 12;
/// Out of 1000 requests, how many are cross-shard transactions.
pub const CROSS_PERMILLE: u32 = 50;
/// The gate's capacity-speedup floor per shard count, each about 4 %
/// under the committed full sweep (EXPERIMENTS.md A10).
pub const SPEEDUP_FLOORS: [(u32, f64); 2] = [(2, 1.35), (4, 2.15)];

/// One measured cell of the sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardCell {
    /// Shards deployed (1 for control cells).
    pub shards: u32,
    /// Total replicas across all groups.
    pub total_replicas: u32,
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Whether this is the same-load single-group control cell.
    pub control: bool,
    /// Aggregate committed actions per second of virtual time.
    pub throughput: f64,
    /// Actions committed inside the measurement window.
    pub committed: u64,
    /// Mean commit latency in milliseconds (all request kinds).
    pub mean_latency_ms: f64,
    /// Requests forwarded on the single-shard fast path (whole run).
    pub singles_forwarded: u64,
    /// Cross-shard transactions fully committed (whole run).
    pub cross_txns: u64,
    /// Prepare/commit resubmissions (whole run; should be 0 in a
    /// failure-free sweep).
    pub retries: u64,
}

/// Speedup of `S` shards over one group under the same offered load.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardSpeedup {
    /// Shards deployed.
    pub shards: u32,
    /// `T(S shards) / T(1 shard, same total clients)`.
    pub speedup: f64,
}

/// The sweep's data, serialized verbatim into `BENCH_shard.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardSweep {
    /// Shard counts swept.
    pub shard_counts: Vec<u32>,
    /// Replicas per group.
    pub replicas_per_shard: u32,
    /// Clients per shard.
    pub clients_per_shard: usize,
    /// Cross-shard fraction, in permille.
    pub cross_permille: u32,
    /// World seed.
    pub seed: u64,
    /// Virtual measurement window per cell, in seconds.
    pub window_secs: f64,
    /// Every measured cell (sharded cells then their controls).
    pub cells: Vec<ShardCell>,
    /// Capacity speedups, one per swept shard count.
    pub speedups: Vec<ShardSpeedup>,
}

/// Runs the sweep over `shard_counts` (must start at 1, ascending).
pub fn run(shard_counts: &[u32], window: SimDuration, seed: u64) -> ShardSweep {
    let warmup = SimDuration::from_millis(500);
    let mut cells = Vec::new();
    for &shards in shard_counts {
        let clients = shards as usize * CLIENTS_PER_SHARD;
        cells.push(measure(shards, clients, false, warmup, window, seed));
        if shards > 1 {
            // Same offered load against a single group: the capacity
            // baseline this shard count is compared to.
            cells.push(measure(1, clients, true, warmup, window, seed));
        }
    }
    let speedups = shard_counts
        .iter()
        .map(|&shards| {
            let sharded = cells
                .iter()
                .find(|c| c.shards == shards && !c.control)
                .expect("sweep measured every shard count");
            let baseline = if shards == 1 {
                sharded
            } else {
                cells
                    .iter()
                    .find(|c| c.control && c.clients == sharded.clients)
                    .expect("sweep measured the control cell")
            };
            ShardSpeedup {
                shards,
                speedup: if baseline.throughput > 0.0 {
                    round3(sharded.throughput / baseline.throughput)
                } else {
                    0.0
                },
            }
        })
        .collect();
    ShardSweep {
        shard_counts: shard_counts.to_vec(),
        replicas_per_shard: REPLICAS_PER_SHARD,
        clients_per_shard: CLIENTS_PER_SHARD,
        cross_permille: CROSS_PERMILLE,
        seed,
        window_secs: window.as_secs_f64(),
        cells,
        speedups,
    }
}

fn measure(
    shards: u32,
    clients: usize,
    control: bool,
    warmup: SimDuration,
    window: SimDuration,
    seed: u64,
) -> ShardCell {
    let config = ClusterConfig {
        shards,
        ..ClusterConfig::new(shards * REPLICAS_PER_SHARD, seed)
            .delayed_writes()
            .packing(8)
    };
    let mut cluster = engine(config);
    // Routed even in the one-group control cells, so both sides of the
    // speedup pay the router hop.
    let template = ClientConfig {
        cross_permille: Some(CROSS_PERMILLE),
        ..ClientConfig::default()
    };
    let measured = closed_loop(&mut cluster, clients, template, warmup, window);
    let (latency, committed) = measured.totals();
    cluster.check_consistency();
    let hub = cluster.world.metrics();
    ShardCell {
        shards,
        total_replicas: shards * REPLICAS_PER_SHARD,
        clients,
        control,
        throughput: round1(committed as f64 / window.as_secs_f64()),
        committed,
        mean_latency_ms: round3(latency.mean().as_millis_f64()),
        singles_forwarded: hub.counter("shard.single_routed"),
        cross_txns: hub.counter("shard.txns_applied"),
        retries: hub.counter("shard.retries"),
    }
}

impl Gated for ShardSweep {
    /// The CI gate. Every swept shard count in [`SPEEDUP_FLOORS`] must
    /// reach its capacity speedup, and a failure-free sweep must need no
    /// cross-shard retry. Against the committed quick `baseline`, the
    /// 2-shard cell's throughput must stay within 10 % of it.
    fn gate(&self, baseline: Option<&ShardSweep>) -> Gate {
        let retries: u64 = self.cells.iter().map(|c| c.retries).sum();
        let speedups: Vec<String> = self
            .speedups
            .iter()
            .filter(|s| s.shards > 1)
            .map(|s| format!("1→{} {:?}x", s.shards, s.speedup))
            .collect();
        let mut gate = Gate::new(format!(
            "shard gate: speedups {}, {retries} retries",
            speedups.join(", ")
        ));
        for s in &self.speedups {
            if let Some(&(shards, floor)) = SPEEDUP_FLOORS.iter().find(|f| f.0 == s.shards) {
                let below = format!(
                    "{shards}-shard capacity speedup below gate: {:?} < {floor:?}",
                    s.speedup
                );
                gate.check(s.speedup >= floor, below);
            }
        }
        if let Some(base) = baseline {
            let cell = |s: &ShardSweep| {
                let cell = s.cells.iter().find(|c| c.shards == 2 && !c.control);
                cell.map_or(f64::NAN, |c| c.throughput)
            };
            gate.floor("2-shard throughput", cell(self), cell(base));
        }
        let retried = format!("failure-free sweep needed {retries} cross-shard retries");
        gate.check(retries == 0, retried);
        gate
    }

    fn to_table(&self) -> String {
        let headers = [
            "shards",
            "replicas",
            "clients",
            "kind",
            "actions/s",
            "mean_lat_ms",
            "singles",
            "cross_txns",
            "retries",
        ];
        let rows: Vec<Vec<String>> = self
            .cells
            .iter()
            .map(|c| {
                vec![
                    c.shards.to_string(),
                    c.total_replicas.to_string(),
                    c.clients.to_string(),
                    if c.control { "control" } else { "sharded" }.to_string(),
                    format!("{:.0}", c.throughput),
                    format!("{:.2}", c.mean_latency_ms),
                    c.singles_forwarded.to_string(),
                    c.cross_txns.to_string(),
                    c.retries.to_string(),
                ]
            })
            .collect();
        let s_rows: Vec<Vec<String>> = self
            .speedups
            .iter()
            .map(|s| vec![s.shards.to_string(), format!("{:.2}x", s.speedup)])
            .collect();
        format!(
            "Shard scaling sweep ({} replicas/shard, {} clients/shard, {}.{}% cross)\n{}\nCapacity speedup vs one group at equal load\n{}",
            self.replicas_per_shard,
            self.clients_per_shard,
            self.cross_permille / 10,
            self.cross_permille % 10,
            super::render_table(&headers, &rows),
            super::render_table(&["shards", "speedup"], &s_rows)
        )
    }
}

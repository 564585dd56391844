//! Fast-path latency sweep (extension A11): commit latency of the
//! commutativity fast path vs the green path across conflict rates and
//! client counts.
//!
//! The engine's green latency is dominated by the ordering round trip:
//! sequencer multicast, the 300 µs acknowledgement batching delay, and
//! the stability round (~3.25 ms at 10 clients in the A7 configuration).
//! The fast path (DESIGN.md §4e) cuts that to the sequenced multicast
//! plus one point-to-point FastAck hop for any action whose footprint
//! is disjoint from every in-flight action — conflicting actions demote
//! to the green wait, so the sweep's contention axis measures how the
//! advantage erodes as clients fight over a shared hot key.
//!
//! Every cell runs the same closed-loop update workload; `conflict_pct`
//! percent of requests target one hot key shared by all clients. Green
//! baseline cells run with the fast path disabled entirely (byte-
//! identical to the pre-fast-path engine), so the comparison is against
//! the protocol actually shipped, not a handicapped twin. Emits the
//! machine-readable `BENCH_fastpath.json` consumed by
//! [`FastSweep::gate`] (fast mean ≤ 0.5× green mean at 0% conflict).

use serde::{Deserialize, Serialize};
use todr_core::UpdateReplyPolicy;
use todr_sim::SimDuration;

use super::runner::{closed_loop, engine};
use super::{round1, round3, Gate, Gated};
use crate::client::{ClientConfig, Workload};
use crate::cluster::ClusterConfig;

/// Replicas in every cell (the paper's small-LAN size; matches A7).
pub const N_SERVERS: u32 = 5;

/// One measured cell of the sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FastCell {
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Percentage of requests aimed at the shared hot key.
    pub conflict_pct: u8,
    /// Whether the fast path was enabled (`false` = green baseline).
    pub fast: bool,
    /// Committed actions per second of virtual time.
    pub throughput: f64,
    /// Actions committed inside the measurement window.
    pub committed: u64,
    /// Mean commit latency in milliseconds (fast and demoted mixed).
    pub mean_latency_ms: f64,
    /// 99th-percentile commit latency in milliseconds.
    pub p99_latency_ms: f64,
    /// Fast-path commits across all servers (whole run).
    pub fast_commits: u64,
    /// Fast-path demotions to the green wait (whole run).
    pub fast_demotions: u64,
    /// `fast_commits / (fast_commits + fast_demotions)` (whole run).
    pub fast_share: f64,
}

/// Fast-vs-green comparison at 0% conflict for one client count.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FastSpeedup {
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Green-baseline mean latency, milliseconds.
    pub green_mean_ms: f64,
    /// Fast-path mean latency at 0% conflict, milliseconds.
    pub fast_mean_ms: f64,
    /// `fast_mean_ms / green_mean_ms` (the CI gate wants ≤ 0.5).
    pub ratio: f64,
}

/// The sweep's data, serialized verbatim into `BENCH_fastpath.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FastSweep {
    /// Replicas in every cell.
    pub n_servers: u32,
    /// Client counts swept.
    pub client_counts: Vec<usize>,
    /// Conflict percentages swept.
    pub conflict_pcts: Vec<u8>,
    /// World seed.
    pub seed: u64,
    /// Virtual measurement window per cell, in seconds.
    pub window_secs: f64,
    /// Every measured cell (green baselines then fast cells).
    pub cells: Vec<FastCell>,
    /// Fast-vs-green latency ratios at 0% conflict.
    pub speedups: Vec<FastSpeedup>,
}

/// Runs the sweep: a green baseline per client count, then a fast cell
/// per (client count × conflict percentage). `conflict_pcts` must
/// include 0 so the speedup table is well-defined.
pub fn run(
    client_counts: &[usize],
    conflict_pcts: &[u8],
    window: SimDuration,
    seed: u64,
) -> FastSweep {
    assert!(
        conflict_pcts.contains(&0),
        "the sweep needs the 0% cell to anchor the speedup table"
    );
    let warmup = SimDuration::from_millis(500);
    let mut cells = Vec::new();
    for &clients in client_counts {
        cells.push(measure(clients, 0, false, warmup, window, seed));
        for &pct in conflict_pcts {
            cells.push(measure(clients, pct, true, warmup, window, seed));
        }
    }
    let speedups = client_counts
        .iter()
        .map(|&clients| {
            let green = cells
                .iter()
                .find(|c| c.clients == clients && !c.fast)
                .expect("sweep measured every green baseline");
            let fast = cells
                .iter()
                .find(|c| c.clients == clients && c.fast && c.conflict_pct == 0)
                .expect("sweep measured every 0% fast cell");
            FastSpeedup {
                clients,
                green_mean_ms: green.mean_latency_ms,
                fast_mean_ms: fast.mean_latency_ms,
                ratio: if green.mean_latency_ms > 0.0 {
                    round3(fast.mean_latency_ms / green.mean_latency_ms)
                } else {
                    0.0
                },
            }
        })
        .collect();
    FastSweep {
        n_servers: N_SERVERS,
        client_counts: client_counts.to_vec(),
        conflict_pcts: conflict_pcts.to_vec(),
        seed,
        window_secs: window.as_secs_f64(),
        cells,
        speedups,
    }
}

fn measure(
    clients: usize,
    conflict_pct: u8,
    fast: bool,
    warmup: SimDuration,
    window: SimDuration,
    seed: u64,
) -> FastCell {
    // A7's configuration (delayed writes, no packing) so the green
    // baseline reproduces the ~3.25 ms figure the issue quotes.
    let config = ClusterConfig {
        fast_path: fast,
        ..ClusterConfig::new(N_SERVERS, seed).delayed_writes()
    };
    let mut cluster = engine(config);
    let template = ClientConfig {
        workload: Workload::Updates,
        reply_policy: if fast {
            UpdateReplyPolicy::Fast
        } else {
            UpdateReplyPolicy::OnGreen
        },
        conflict_pct,
        ..ClientConfig::default()
    };
    let measured = closed_loop(&mut cluster, clients, template, warmup, window);
    let (latency, committed) = measured.totals();
    cluster.check_consistency();
    let hub = cluster.world.metrics();
    let fast_commits = hub.counter("engine.fast_commits");
    let fast_demotions = hub.counter("engine.fast_demotions");
    let decided = fast_commits + fast_demotions;
    FastCell {
        clients,
        conflict_pct,
        fast,
        throughput: round1(committed as f64 / window.as_secs_f64()),
        committed,
        mean_latency_ms: round3(latency.mean().as_millis_f64()),
        p99_latency_ms: round3(latency.percentile(99.0).as_millis_f64()),
        fast_commits,
        fast_demotions,
        fast_share: if decided > 0 {
            round3(fast_commits as f64 / decided as f64)
        } else {
            0.0
        },
    }
}

impl Gated for FastSweep {
    /// The CI gate. The 1-client fast mean must stay ≤ 0.5× the green
    /// control's (the saved stability round is the extension's claim),
    /// and every no-conflict fast cell must commit everything fast.
    /// Against the committed quick `baseline`, the 1-client fast cell's
    /// throughput must stay within 10 % of it.
    fn gate(&self, baseline: Option<&FastSweep>) -> Gate {
        let s1 = self.speedups.iter().find(|s| s.clients == 1);
        let ratio = s1.map_or(f64::NAN, |s| s.ratio);
        let fast1 = |s: &FastSweep| {
            let mut cells = s.cells.iter().filter(|c| c.fast && c.conflict_pct == 0);
            cells
                .find(|c| c.clients == 1)
                .map_or(f64::NAN, |c| c.throughput)
        };
        let mut gate = Gate::new(format!(
            "fastpath gate: 1-client ratio {ratio:?}, fast cell {:?} actions/s",
            fast1(self)
        ));
        let slow = format!("1-client fast path no longer halves latency: ratio {ratio:?} > 0.5");
        gate.check(ratio <= 0.5, slow);
        for c in self.cells.iter().filter(|c| c.fast && c.conflict_pct == 0) {
            let (share, demotions) = (c.fast_share, c.fast_demotions);
            let demoted = format!(
                "no-conflict cell demoted: {} clients, share {share:?}, {demotions} demotions",
                c.clients
            );
            gate.check(demotions == 0 && share >= 1.0, demoted);
        }
        if let Some(base) = baseline {
            gate.floor("fast-cell throughput", fast1(self), fast1(base));
        }
        gate
    }

    fn to_table(&self) -> String {
        let headers = [
            "clients",
            "conflict%",
            "path",
            "actions/s",
            "mean_ms",
            "p99_ms",
            "fast",
            "demoted",
            "fast_share",
        ];
        let rows: Vec<Vec<String>> = self
            .cells
            .iter()
            .map(|c| {
                vec![
                    c.clients.to_string(),
                    c.conflict_pct.to_string(),
                    if c.fast { "fast" } else { "green" }.to_string(),
                    format!("{:.0}", c.throughput),
                    format!("{:.3}", c.mean_latency_ms),
                    format!("{:.3}", c.p99_latency_ms),
                    c.fast_commits.to_string(),
                    c.fast_demotions.to_string(),
                    format!("{:.3}", c.fast_share),
                ]
            })
            .collect();
        let s_rows: Vec<Vec<String>> = self
            .speedups
            .iter()
            .map(|s| {
                vec![
                    s.clients.to_string(),
                    format!("{:.3}", s.green_mean_ms),
                    format!("{:.3}", s.fast_mean_ms),
                    format!("{:.2}x", s.ratio),
                ]
            })
            .collect();
        format!(
            "Fast-path latency sweep ({} replicas, delayed writes)\n{}\nFast vs green mean latency at 0% conflict\n{}",
            self.n_servers,
            super::render_table(&headers, &rows),
            super::render_table(&["clients", "green_ms", "fast_ms", "ratio"], &s_rows)
        )
    }
}

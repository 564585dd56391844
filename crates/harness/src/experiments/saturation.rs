//! Saturation sweep: clients × EVS packing level, locating the
//! throughput knee of the delayed-writes engine.
//!
//! Without packing, Figure 5(b)'s delayed-writes curve plateaus at
//! `1 / CPU_PER_ACTION` once the disk leaves the critical path. Packing
//! multiple submissions per wire frame lets a delivery burst share the
//! fixed per-burst CPU overhead, so the ceiling moves toward
//! `1 / (CPU_PER_ACTION - CPU_BURST_OVERHEAD)`. This sweep measures
//! where each packing level saturates and emits the machine-readable
//! `BENCH_saturation.json` its [`Saturation::gate`] compares against.

use serde::{Deserialize, Serialize};
use todr_sim::SimDuration;

use super::runner::{closed_loop, engine};
use super::{round1, round3, Gate, Gated};
use crate::client::ClientConfig;
use crate::cluster::ClusterConfig;

/// One measured cell of the sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SaturationPoint {
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// EVS packing level (1 = packing disabled).
    pub max_pack: usize,
    /// Actions per second of virtual time, rounded to 0.1.
    pub throughput: f64,
    /// Actions committed inside the measurement window.
    pub committed: u64,
    /// Mean commit latency in milliseconds, rounded to 0.001.
    pub mean_latency_ms: f64,
    /// Wire frames sent, `Submit` and `Sequenced` alike (one action
    /// each at `max_pack` 1).
    pub frames_packed: u64,
    /// Mean messages per sequencer-round frame (1.0 at `max_pack` 1).
    pub mean_actions_per_frame: f64,
    /// Mean submissions per forced-write batch at the engines.
    pub mean_submit_batch: f64,
}

/// The located throughput knee: where adding clients stops helping.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Knee {
    /// Packing level of the curve the knee was located on.
    pub max_pack: usize,
    /// Smallest client count reaching ≥95% of the curve's peak.
    pub clients: usize,
    /// Throughput at the knee.
    pub throughput: f64,
}

/// The sweep's data, serialized verbatim into `BENCH_saturation.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Saturation {
    /// Replicas deployed.
    pub n_servers: u32,
    /// World seed.
    pub seed: u64,
    /// Virtual measurement window per cell, in seconds.
    pub window_secs: f64,
    /// Knee of the highest packing level swept.
    pub knee: Knee,
    /// The CI regression gate's reference cell: highest client count at
    /// the highest packing level.
    pub calibration: SaturationPoint,
    /// Every measured cell, in sweep order (packing-major).
    pub points: Vec<SaturationPoint>,
}

/// Runs the sweep: every packing level in `packs` against every client
/// count in `client_counts`, delayed writes, `window` of measured
/// virtual time per cell.
pub fn run(
    n_servers: u32,
    client_counts: &[usize],
    packs: &[usize],
    window: SimDuration,
    seed: u64,
) -> Saturation {
    let warmup = SimDuration::from_millis(500);
    let mut points = Vec::new();
    for &max_pack in packs {
        for &clients in client_counts {
            points.push(run_point(
                n_servers, clients, max_pack, warmup, window, seed,
            ));
        }
    }

    let top_pack = packs.last().copied().unwrap_or(1);
    let top_curve: Vec<&SaturationPoint> =
        points.iter().filter(|p| p.max_pack == top_pack).collect();
    let peak = top_curve
        .iter()
        .map(|p| p.throughput)
        .fold(0.0_f64, f64::max);
    let knee_point = top_curve
        .iter()
        .find(|p| p.throughput >= 0.95 * peak)
        .or(top_curve.last())
        .expect("sweep measured at least one point");
    let knee = Knee {
        max_pack: top_pack,
        clients: knee_point.clients,
        throughput: knee_point.throughput,
    };
    let calibration = top_curve
        .last()
        .map(|p| (*p).clone())
        .expect("sweep measured at least one point");

    Saturation {
        n_servers,
        seed,
        window_secs: window.as_secs_f64(),
        knee,
        calibration,
        points,
    }
}

fn run_point(
    n_servers: u32,
    clients: usize,
    max_pack: usize,
    warmup: SimDuration,
    window: SimDuration,
    seed: u64,
) -> SaturationPoint {
    let config = ClusterConfig::new(n_servers, seed)
        .delayed_writes()
        .packing(max_pack);
    let mut cluster = engine(config);
    let measured = closed_loop(
        &mut cluster,
        clients,
        ClientConfig::default(),
        warmup,
        window,
    );
    let (latency, committed) = measured.totals();
    cluster.check_consistency();

    let export = cluster.metrics_export();
    let counter = |name: &str| export.counters.get(name).copied().unwrap_or(0);
    let frames_packed = counter("evs.frames_packed");
    // Exact means from the counters (histogram means are u64-floored,
    // which would flatten a 1.6 actions/frame average to 1). Every
    // sequenced message rides exactly one sequencer-round frame, so the
    // ratio is the sequencer's mean frame occupancy.
    let rounds = counter("evs.sequencer_rounds");
    let mean_actions_per_frame = if rounds > 0 {
        round3(counter("evs.sequenced") as f64 / rounds as f64)
    } else {
        0.0
    };
    let mean_submit_batch = export
        .histograms
        .get("engine.submit_batch")
        .filter(|h| h.count > 0)
        .map_or(0.0, |h| {
            round3(counter("engine.actions_created") as f64 / h.count as f64)
        });

    SaturationPoint {
        clients,
        max_pack,
        throughput: round1(committed as f64 / window.as_secs_f64()),
        committed,
        mean_latency_ms: round3(latency.mean().as_millis_f64()),
        frames_packed,
        mean_actions_per_frame,
        mean_submit_batch,
    }
}

impl Gated for Saturation {
    /// The CI gate. A full sweep has no absolute bound. Against the
    /// committed quick `baseline`, the calibration cell must be the
    /// baseline's and its throughput within 10 % of it.
    fn gate(&self, baseline: Option<&Saturation>) -> Gate {
        let now = &self.calibration;
        let mut gate = Gate::new(format!(
            "saturation calibration {:?} actions/s @ {}x{}",
            now.throughput, now.clients, now.max_pack
        ));
        if let Some(base) = baseline.map(|b| &b.calibration) {
            let (cell, was) = ((now.clients, now.max_pack), (base.clients, base.max_pack));
            let moved = format!(
                "calibration cell moved: {}x{} vs {}x{}",
                cell.0, cell.1, was.0, was.1
            );
            gate.check(cell == was, moved);
            gate.floor("calibration throughput", now.throughput, base.throughput);
        }
        gate
    }

    fn to_table(&self) -> String {
        let headers = [
            "clients",
            "max_pack",
            "actions/s",
            "mean_lat_ms",
            "acts/frame",
        ];
        let rows: Vec<Vec<String>> = self
            .points
            .iter()
            .map(|p| {
                vec![
                    p.clients.to_string(),
                    p.max_pack.to_string(),
                    format!("{:.0}", p.throughput),
                    format!("{:.2}", p.mean_latency_ms),
                    format!("{:.1}", p.mean_actions_per_frame),
                ]
            })
            .collect();
        format!(
            "Saturation sweep (delayed writes), {} replicas; knee at {} clients × pack {} ({:.0} actions/s)\n{}",
            self.n_servers,
            self.knee.clients,
            self.knee.max_pack,
            self.knee.throughput,
            super::render_table(&headers, &rows)
        )
    }
}

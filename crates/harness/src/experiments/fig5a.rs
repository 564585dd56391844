//! Figure 5(a): throughput that 14 replicas sustain as the number of
//! closed-loop clients grows from 1 to 14, for the engine (forced
//! writes), COReL and two-phase commit.
//!
//! Expected shape (paper §7): the engine sustains increasingly more
//! throughput and does not reach its processing limit by 14 clients;
//! COReL pays for the per-action end-to-end acknowledgement round (a
//! forced write at *every* server sits in its critical path); 2PC pays
//! for the extra forced write and sits lowest.

use todr_sim::SimDuration;

use super::{render_table, run_workload, Protocol};

/// One throughput curve.
#[derive(Debug, Clone)]
pub struct Curve {
    /// Protocol of this curve.
    pub protocol: Protocol,
    /// Legend label (usually [`Protocol::label`], but variants of the
    /// same protocol — e.g. a packed engine — carry their own).
    pub label: &'static str,
    /// `(clients, actions/second)` points.
    pub points: Vec<(usize, f64)>,
}

/// The figure's data.
#[derive(Debug, Clone)]
pub struct Fig5a {
    /// Replicas deployed.
    pub n_servers: u32,
    /// Engine / COReL / 2PC curves.
    pub curves: Vec<Curve>,
}

/// Runs the experiment. `client_counts` selects the x-axis samples
/// (the paper sweeps 1..=14); `measure` is the virtual measurement
/// window per point.
pub fn run(n_servers: u32, client_counts: &[usize], measure: SimDuration, seed: u64) -> Fig5a {
    let variants = Protocol::PAPER.map(|p| (p, p.label(), 1));
    let curves = curves(&variants, n_servers, client_counts, measure, seed);
    Fig5a { n_servers, curves }
}

/// One curve per `(protocol, label, max_pack)` variant: its throughput
/// at each client count, after a 500 ms warm-up.
pub(super) fn curves(
    variants: &[(Protocol, &'static str, usize)],
    n_servers: u32,
    client_counts: &[usize],
    measure: SimDuration,
    seed: u64,
) -> Vec<Curve> {
    let warmup = SimDuration::from_millis(500);
    let point = |protocol, max_pack, clients| {
        let result = run_workload(
            protocol, n_servers, clients, max_pack, warmup, measure, seed,
        );
        (clients, result.throughput)
    };
    variants
        .iter()
        .map(|&(protocol, label, max_pack)| Curve {
            protocol,
            label,
            points: client_counts
                .iter()
                .map(|&clients| point(protocol, max_pack, clients))
                .collect(),
        })
        .collect()
}

/// `curves` as an aligned text table under `title`, one row per client
/// count.
pub(super) fn curve_table(title: String, curves: &[Curve]) -> String {
    let headers: Vec<&str> = std::iter::once("clients")
        .chain(curves.iter().map(|c| c.label))
        .collect();
    let n_points = curves.first().map_or(0, |c| c.points.len());
    let mut rows = Vec::new();
    for i in 0..n_points {
        let mut row = vec![curves[0].points[i].0.to_string()];
        for curve in curves {
            row.push(format!("{:.0}", curve.points[i].1));
        }
        rows.push(row);
    }
    format!("{title}\n{}", render_table(&headers, &rows))
}

impl Fig5a {
    /// The figure as an aligned text table (one row per client count).
    pub fn to_table(&self) -> String {
        let title = format!(
            "Figure 5(a): throughput (actions/second), {} replicas",
            self.n_servers
        );
        curve_table(title, &self.curves)
    }
}

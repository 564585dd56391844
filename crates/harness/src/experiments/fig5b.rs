//! Figure 5(b): the impact of forced disk writes — the engine with
//! delayed (asynchronous) writes against the engine with forced writes,
//! 14 replicas, 1..=14 clients.
//!
//! Expected shape (paper §7): the delayed-writes engine "tops at
//! processing ~2500 actions/second" — the CPU cost per action becomes
//! the ceiling once the disk leaves the critical path — while the
//! forced-writes engine tracks the group-commit disk pipeline.

use todr_sim::SimDuration;

use super::fig5a::{curve_table, curves, Curve};
use super::Protocol;

/// The figure's data.
#[derive(Debug, Clone)]
pub struct Fig5b {
    /// Replicas deployed.
    pub n_servers: u32,
    /// Delayed-writes and forced-writes curves.
    pub curves: Vec<Curve>,
}

/// Runs the experiment.
pub fn run(n_servers: u32, client_counts: &[usize], measure: SimDuration, seed: u64) -> Fig5b {
    run_packed(n_servers, client_counts, measure, seed, 1)
}

/// Runs the experiment; a `max_pack` above 1 adds a third curve: the
/// delayed-writes engine with EVS message packing up to `max_pack`
/// submissions per frame — the configuration that lifts the figure's
/// CPU-bound ceiling.
pub fn run_packed(
    n_servers: u32,
    client_counts: &[usize],
    measure: SimDuration,
    seed: u64,
    max_pack: usize,
) -> Fig5b {
    let delayed = Protocol::Engine {
        delayed_writes: true,
    };
    let forced = Protocol::Engine {
        delayed_writes: false,
    };
    let mut variants = vec![(delayed, delayed.label(), 1), (forced, forced.label(), 1)];
    if max_pack > 1 {
        variants.push((delayed, "Engine (delayed writes, packed)", max_pack));
    }
    let curves = curves(&variants, n_servers, client_counts, measure, seed);
    Fig5b { n_servers, curves }
}

impl Fig5b {
    /// The figure as an aligned text table.
    pub fn to_table(&self) -> String {
        let title = format!(
            "Figure 5(b): impact of forced disk writes (actions/second), {} replicas",
            self.n_servers
        );
        curve_table(title, &self.curves)
    }
}

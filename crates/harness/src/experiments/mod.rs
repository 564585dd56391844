//! Experiment drivers: one per table/figure of the paper's evaluation
//! (§7), plus the extension experiments listed in DESIGN.md. Each has a
//! preset run in the [`registry`], which
//! `cargo run --release --example bench -- <name> [--quick] [--json]`
//! runs by name.
//!
//! | `bench` name | driver | reproduces |
//! |---|---|---|
//! | `fig5a` | [`fig5a::run`] | Figure 5(a): throughput vs clients — engine (forced writes) vs COReL vs 2PC, 14 replicas |
//! | `fig5b` | [`fig5b::run_packed`] | Figure 5(b): engine with delayed vs forced writes |
//! | `latency` | [`latency::run`] | §7 latency experiment: 1 client × 2000 sequential actions per protocol |
//! | `partition` | [`partition::run`] | extension A1: membership-change cost (end-to-end exchange only on view change) |
//! | `join` | [`join::run`] | extension A2: online replica instantiation (§5.1) |
//! | `semantics` | [`semantics::run`] | extension A3: relaxed query/update semantics under partition (§6) |
//! | `ablations` | [`ablations`] | extensions A4–A6: loss sweep, LAN-vs-WAN latency, forced-write-latency sweep |
//! | `saturation` | [`saturation::run`] | extension A7: clients × EVS-packing saturation sweep (`BENCH_saturation.json`) |
//! | `recovery`, `recovery-file` | [`recovery::run_with_backend`] | extension A8: crash-recovery cost under torn writes (checksummed scan + catch-up), on the sim or the file backend |
//! | `scale` | [`scale::run`] | extension A9: replicas × clients scale sweep past 14 replicas (`BENCH_scale.json`) |
//! | `shard` | [`shard::run`] | extension A10: sharded-group capacity scaling with cross-shard transactions (`BENCH_shard.json`) |
//! | `fastpath` | [`fastpath::run`] | extension A11: commutativity fast-path commit latency vs green across conflict rates (`BENCH_fastpath.json`) |
//! | `reads` | [`reads::run`] | extension A12: YCSB-style read mixes across consistency tiers — lease vs ordered linearizable, snapshot, overlay (`BENCH_reads.json`) |
//!
//! The measured drivers share one load model, paper §7's: closed-loop
//! clients spread round-robin over the replicas, a warm-up, then a
//! measured window. The private `runner` module implements it once:
//! `deploy` builds and readies a [`Protocol`]'s deployment (the engine
//! and COReL settle into their group; 2PC has none), and `closed_loop`
//! attaches the clients from a template — routed through the shard
//! router for a shard-pool one — runs the window and returns their
//! stats. [`run_workload`] is that path with default clients. The
//! scripted timelines (`partition`, `join`, `recovery`, `semantics`)
//! drive a cluster directly.
//!
//! All results are measured in **virtual time** on the calibrated
//! simulated substrate (see DESIGN.md §2); the claims to compare against
//! the paper are the *shapes* — who wins, by what factor, where the
//! knees are — not absolute action counts.

pub mod ablations;
pub mod fastpath;
pub mod fig5a;
pub mod fig5b;
pub mod join;
pub mod latency;
pub mod partition;
pub mod reads;
pub mod recovery;
pub mod registry;
pub mod saturation;
pub mod scale;
pub mod semantics;
pub mod shard;

mod runner;

pub use registry::{load, Gate, Gated};
pub use runner::{run_workload, Protocol, RunResult};

use todr_sim::{SimDuration, SimTime};

use crate::cluster::Cluster;

/// Renders a sequence of rows as an aligned text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let line = |out: &mut String, cells: &[String]| {
        for (i, cell) in cells.iter().enumerate() {
            out.push_str(&format!("{:>width$}  ", cell, width = widths[i]));
        }
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
    };
    line(
        &mut out,
        &headers.iter().map(|h| h.to_string()).collect::<Vec<_>>(),
    );
    line(
        &mut out,
        &widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>(),
    );
    for row in rows {
        line(&mut out, row);
    }
    out
}

/// Rounds to 0.1, the precision throughputs are reported at.
fn round1(x: f64) -> f64 {
    (x * 10.0).round() / 10.0
}

/// Rounds to 0.001, the precision latencies and ratios are reported at.
fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

/// Advances `cluster` in 10 ms steps until `pred` holds, returning that
/// instant. Panics if `deadline` passes first.
fn first_time(
    cluster: &mut Cluster,
    deadline: SimTime,
    mut pred: impl FnMut(&mut Cluster) -> bool,
) -> SimTime {
    let step = SimDuration::from_millis(10);
    loop {
        if pred(cluster) {
            return cluster.now();
        }
        assert!(cluster.now() < deadline, "condition never became true");
        cluster.run_for(step);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_table_aligns_columns() {
        let out = render_table(
            &["clients", "throughput"],
            &[
                vec!["1".into(), "95.2".into()],
                vec!["14".into(), "871.4".into()],
            ],
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("clients"));
        assert!(lines[3].contains("871.4"));
    }
}

//! Read-tier workload sweep (extension A12): YCSB-style read/write
//! mixes across the consistency tiers of DESIGN.md §4f.
//!
//! Every cell runs the same closed-loop clients over a shared Zipfian
//! key space (θ = 0.99, the YCSB default), with `read_pct` percent of
//! each client's requests issued as reads at one consistency tier:
//!
//! * `lease-linearizable` — read leases on; a regular-primary member
//!   answers linearizable reads from its green database, parking behind
//!   any conflicting receipted-but-not-yet-green write.
//! * `ordered-linearizable` — the control: leases off, so every
//!   linearizable read rides the full ordered path (sequenced multicast
//!   + stability round) as a no-op action.
//! * `green-snapshot` — the local green prefix, no lease required.
//! * `red-overlay` — the local red suffix replayed over the green
//!   prefix (dirty), no lease required.
//!
//! The comparison table divides lease-read mean latency by the ordered
//! control's at each mix; [`ReadSweep::gate`] requires the 95/5
//! ratio ≤ 0.5, total throughput ≥ 0.9× the control, and every
//! lease-served read audited by the trace oracle, which fails the cell
//! on a stale one. Emits the machine-readable `BENCH_reads.json`.

use serde::{Deserialize, Serialize};
use todr_core::ReadConsistency;
use todr_sim::SimDuration;

use super::runner::{closed_loop, engine};
use super::{round1, round3, Gate, Gated};
use crate::client::{ClientConfig, Workload, ZipfianKeys};
use crate::cluster::ClusterConfig;
use crate::metrics::LatencyStats;

/// Replicas in every cell (the paper's small-LAN size; matches A7/A11).
pub const N_SERVERS: u32 = 5;

/// Keys in the shared Zipfian space.
pub const ZIPF_KEYS: u32 = 64;

/// One serving discipline measured by the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Leases on, [`ReadConsistency::Linearizable`] served locally.
    LeaseLinearizable,
    /// Leases off, [`ReadConsistency::Linearizable`] rides the ordered
    /// path — the control the lease cells are gated against.
    OrderedLinearizable,
    /// [`ReadConsistency::GreenSnapshot`], lease-free.
    GreenSnapshot,
    /// [`ReadConsistency::RedOverlay`], lease-free.
    RedOverlay,
}

/// Sweep order: the control first so tables read top-down as
/// "baseline, then what each tier buys".
pub const TIERS: [Tier; 4] = [
    Tier::OrderedLinearizable,
    Tier::LeaseLinearizable,
    Tier::GreenSnapshot,
    Tier::RedOverlay,
];

impl Tier {
    /// Stable string used in JSON and tables.
    pub fn label(self) -> &'static str {
        match self {
            Tier::LeaseLinearizable => "lease-linearizable",
            Tier::OrderedLinearizable => "ordered-linearizable",
            Tier::GreenSnapshot => "green-snapshot",
            Tier::RedOverlay => "red-overlay",
        }
    }

    fn consistency(self) -> ReadConsistency {
        match self {
            Tier::LeaseLinearizable | Tier::OrderedLinearizable => ReadConsistency::Linearizable,
            Tier::GreenSnapshot => ReadConsistency::GreenSnapshot,
            Tier::RedOverlay => ReadConsistency::RedOverlay,
        }
    }

    fn leases(self) -> bool {
        matches!(self, Tier::LeaseLinearizable)
    }
}

/// One measured cell of the sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReadCell {
    /// Percentage of requests issued as reads.
    pub read_pct: u8,
    /// Serving discipline (see [`Tier::label`]).
    pub tier: String,
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Reads answered inside the measurement window.
    pub reads: u64,
    /// Updates committed inside the measurement window.
    pub writes: u64,
    /// Reads per second of virtual time.
    pub read_throughput: f64,
    /// Reads + commits per second of virtual time.
    pub total_throughput: f64,
    /// Mean read latency, milliseconds.
    pub read_mean_ms: f64,
    /// 99th-percentile read latency, milliseconds.
    pub read_p99_ms: f64,
    /// Mean update-commit latency, milliseconds.
    pub write_mean_ms: f64,
    /// Lease-served linearizable reads across all servers (whole run).
    pub lease_reads: u64,
    /// Linearizable reads that rode the ordered path (whole run).
    pub ordered_reads: u64,
    /// Green-snapshot reads (whole run).
    pub snapshot_reads: u64,
    /// Red-overlay reads (whole run).
    pub overlay_reads: u64,
    /// Lease reads that parked behind a conflicting receipted write.
    pub lease_reads_parked: u64,
    /// Lease-served reads the trace oracle checked against every
    /// already-acknowledged write (whole run); a stale one fails the
    /// cell, and the gate requires this to equal `lease_reads`.
    pub lease_reads_checked: u64,
}

/// Lease-vs-ordered comparison at one read mix.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReadComparison {
    /// Percentage of requests issued as reads.
    pub read_pct: u8,
    /// Ordered-control mean read latency, milliseconds.
    pub ordered_mean_ms: f64,
    /// Lease-path mean read latency, milliseconds.
    pub lease_mean_ms: f64,
    /// `lease_mean_ms / ordered_mean_ms` (the CI gate wants ≤ 0.5 at
    /// the 95%-read mix).
    pub latency_ratio: f64,
    /// Ordered-control total throughput, operations per second.
    pub ordered_total_throughput: f64,
    /// Lease-path total throughput, operations per second.
    pub lease_total_throughput: f64,
    /// `lease / ordered` total throughput (the gate wants ≥ 0.9).
    pub throughput_ratio: f64,
}

/// The sweep's data, serialized verbatim into `BENCH_reads.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReadSweep {
    /// Replicas in every cell.
    pub n_servers: u32,
    /// Read percentages swept (per-client read share of requests).
    pub read_pcts: Vec<u8>,
    /// Concurrent closed-loop clients per cell.
    pub clients: usize,
    /// Keys in the shared Zipfian space (θ = 0.99).
    pub zipf_keys: u32,
    /// World seed.
    pub seed: u64,
    /// Virtual measurement window per cell, in seconds.
    pub window_secs: f64,
    /// Every measured cell, grouped by mix in [`TIERS`] order.
    pub cells: Vec<ReadCell>,
    /// Lease-vs-ordered ratios, one per mix.
    pub comparisons: Vec<ReadComparison>,
}

/// Runs the sweep: for each read mix, one cell per tier in [`TIERS`]
/// order, then the lease-vs-ordered comparison table.
pub fn run(read_pcts: &[u8], clients: usize, window: SimDuration, seed: u64) -> ReadSweep {
    let warmup = SimDuration::from_millis(500);
    let mut cells = Vec::new();
    for &read_pct in read_pcts {
        for tier in TIERS {
            cells.push(measure(read_pct, tier, clients, warmup, window, seed));
        }
    }
    let comparisons = read_pcts
        .iter()
        .map(|&read_pct| {
            let find = |tier: Tier| {
                cells
                    .iter()
                    .find(|c| c.read_pct == read_pct && c.tier == tier.label())
                    .expect("sweep measured every tier at every mix")
            };
            let ordered = find(Tier::OrderedLinearizable);
            let lease = find(Tier::LeaseLinearizable);
            ReadComparison {
                read_pct,
                ordered_mean_ms: ordered.read_mean_ms,
                lease_mean_ms: lease.read_mean_ms,
                latency_ratio: ratio(lease.read_mean_ms, ordered.read_mean_ms),
                ordered_total_throughput: ordered.total_throughput,
                lease_total_throughput: lease.total_throughput,
                throughput_ratio: ratio(lease.total_throughput, ordered.total_throughput),
            }
        })
        .collect();
    ReadSweep {
        n_servers: N_SERVERS,
        read_pcts: read_pcts.to_vec(),
        clients,
        zipf_keys: ZIPF_KEYS,
        seed,
        window_secs: window.as_secs_f64(),
        cells,
        comparisons,
    }
}

fn measure(
    read_pct: u8,
    tier: Tier,
    clients: usize,
    warmup: SimDuration,
    window: SimDuration,
    seed: u64,
) -> ReadCell {
    // A7's configuration (delayed writes, no packing) so the ordered
    // control reproduces the A11 green-latency figures.
    let config = ClusterConfig {
        read_leases: tier.leases(),
        ..ClusterConfig::new(N_SERVERS, seed).delayed_writes()
    };
    let mut cluster = engine(config);
    let template = ClientConfig {
        workload: Workload::Updates,
        read_pct,
        read_consistency: Some(tier.consistency()),
        zipfian: Some(ZipfianKeys::ycsb(ZIPF_KEYS)),
        ..ClientConfig::default()
    };
    let measured = closed_loop(&mut cluster, clients, template, warmup, window);
    let (write_latency, writes) = measured.totals();
    let (mut read_latency, mut reads) = (LatencyStats::new(), 0);
    for stats in &measured.stats {
        read_latency.merge(&stats.read_latency);
        reads += stats.reads_recorded;
    }
    let audit = cluster
        .try_check_consistency()
        .unwrap_or_else(|v| panic!("{v}"));
    let hub = cluster.world.metrics();
    let secs = window.as_secs_f64();
    ReadCell {
        read_pct,
        tier: tier.label().to_string(),
        clients,
        reads,
        writes,
        read_throughput: round1(reads as f64 / secs),
        total_throughput: round1((reads + writes) as f64 / secs),
        read_mean_ms: round3(read_latency.mean().as_millis_f64()),
        read_p99_ms: round3(read_latency.percentile(99.0).as_millis_f64()),
        write_mean_ms: round3(write_latency.mean().as_millis_f64()),
        lease_reads: hub.counter("engine.lease_reads"),
        ordered_reads: hub.counter("engine.ordered_reads"),
        snapshot_reads: hub.counter("engine.snapshot_reads"),
        overlay_reads: hub.counter("engine.overlay_reads"),
        lease_reads_parked: hub.counter("engine.lease_reads_parked"),
        lease_reads_checked: audit.trace.lease_reads_checked,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        round3(num / den)
    } else {
        0.0
    }
}

impl Gated for ReadSweep {
    /// The CI gate. At the 95%-read mix, lease reads must stay ≤ 0.5×
    /// the ordered control's mean latency (the skipped ordering round
    /// trip is the extension's claim) and the lease cell's total
    /// throughput ≥ 0.9× the control's; in every cell the trace oracle
    /// must have audited every lease-served read. Against the committed
    /// quick `baseline`, the lease cell's throughput must stay within
    /// 10 % of it.
    fn gate(&self, baseline: Option<&ReadSweep>) -> Gate {
        let cells = self.cells.iter();
        let unaudited: u64 = cells
            .map(|c| c.lease_reads.abs_diff(c.lease_reads_checked))
            .sum();
        let mix = self.comparisons.iter().find(|c| c.read_pct == 95);
        let (latency, throughput) = mix.map_or((f64::NAN, f64::NAN), |c| {
            (c.latency_ratio, c.throughput_ratio)
        });
        let lease95 = |s: &ReadSweep| {
            let lease = Tier::LeaseLinearizable.label();
            let cell = s.cells.iter().find(|c| c.read_pct == 95 && c.tier == lease);
            cell.map_or(f64::NAN, |c| c.total_throughput)
        };
        let mut gate = Gate::new(format!(
            "reads gate: 95/5 latency ratio {latency:?}, {unaudited} unaudited, lease cell {:?} ops/s",
            lease95(self)
        ));
        let slow = format!("lease reads no longer halve read latency: ratio {latency:?} > 0.5");
        gate.check(latency <= 0.5, slow);
        let escaped = format!("{unaudited} lease-served reads escaped the staleness audit");
        gate.check(unaudited == 0, escaped);
        let starved = format!("lease cell throughput below ordered control: {throughput:?} < 0.9");
        gate.check(throughput >= 0.9, starved);
        if let Some(base) = baseline {
            gate.floor("lease-cell throughput", lease95(self), lease95(base));
        }
        gate
    }

    fn to_table(&self) -> String {
        let headers = [
            "read%", "tier", "reads/s", "ops/s", "read_ms", "p99_ms", "write_ms", "lease",
            "ordered", "parked", "checked",
        ];
        let rows: Vec<Vec<String>> = self
            .cells
            .iter()
            .map(|c| {
                vec![
                    c.read_pct.to_string(),
                    c.tier.clone(),
                    format!("{:.0}", c.read_throughput),
                    format!("{:.0}", c.total_throughput),
                    format!("{:.3}", c.read_mean_ms),
                    format!("{:.3}", c.read_p99_ms),
                    format!("{:.3}", c.write_mean_ms),
                    c.lease_reads.to_string(),
                    c.ordered_reads.to_string(),
                    c.lease_reads_parked.to_string(),
                    c.lease_reads_checked.to_string(),
                ]
            })
            .collect();
        let c_rows: Vec<Vec<String>> = self
            .comparisons
            .iter()
            .map(|s| {
                vec![
                    s.read_pct.to_string(),
                    format!("{:.3}", s.ordered_mean_ms),
                    format!("{:.3}", s.lease_mean_ms),
                    format!("{:.2}x", s.latency_ratio),
                    format!("{:.2}x", s.throughput_ratio),
                ]
            })
            .collect();
        format!(
            "Read-tier workload sweep ({} replicas, {} clients, Zipfian {} keys)\n{}\nLease vs ordered linearizable reads\n{}",
            self.n_servers,
            self.clients,
            self.zipf_keys,
            super::render_table(&headers, &rows),
            super::render_table(
                &["read%", "ordered_ms", "lease_ms", "latency", "throughput"],
                &c_rows
            )
        )
    }
}

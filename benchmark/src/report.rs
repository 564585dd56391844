//! Result types: the metric tables, their JSON form, and how
//! repetitions fold into one workload result.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::run::{RepSummary, Virtual};
use crate::stats::{least_disturbed, median, ns_to_ms};
use crate::workloads::Workload;

/// Static description of an end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct E2eSpec {
    /// Name, exactly as reported.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `virtual` (modelled cluster), `host` (this machine) or `ratio`.
    pub clock: &'static str,
    /// Whether lower values are better.
    pub lower_is_better: bool,
    /// Share of the baseline by which the median may worsen between two
    /// runs *of the same seed* before `compare` calls it a regression.
    pub bound: f64,
    /// Absolute slack added to the relative bound (for metrics that sit
    /// at or near zero).
    pub bound_abs: f64,
    /// Defined on every workload (and never zero there), so it can be
    /// one of `BENCHMARK.json`'s `end_to_end` metrics.
    pub universal: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    clock: &'static str,
    lower_is_better: bool,
    (bound, bound_abs): (f64, f64),
    universal: bool,
) -> E2eSpec {
    E2eSpec {
        name,
        unit,
        clock,
        lower_is_better,
        bound,
        bound_abs,
        universal,
    }
}

/// The eleven end-to-end metrics, in report order.
pub const E2E: [E2eSpec; 11] = [
    e2e("commit_p50_ms", "ms", "virtual", true, (0.02, 0.0), true),
    e2e("commit_p99_ms", "ms", "virtual", true, (0.02, 0.0), true),
    e2e("read_p50_ms", "ms", "virtual", true, (0.02, 0.0), false),
    e2e("read_p99_ms", "ms", "virtual", true, (0.02, 0.0), false),
    e2e("throughput_ops", "1/s", "virtual", false, (0.02, 0.0), true),
    e2e("outage_ms", "ms", "virtual", true, (0.02, 0.0), false),
    e2e("heal_ms", "ms", "virtual", true, (0.02, 0.0), false),
    // Zero on every workload, hence not universal.
    e2e(
        "failed_ops_share",
        "ratio",
        "ratio",
        true,
        (0.0, 0.001),
        false,
    ),
    e2e("host_us_per_op", "us", "host", true, (0.10, 0.0), true),
    e2e("peak_rss_mb", "MB", "host", true, (0.10, 0.0), true),
    e2e("setup_s", "s", "host", true, (0.25, 0.05), true),
];

/// The spec of the end-to-end metric called `name`.
pub fn e2e_spec(name: &str) -> Option<&'static E2eSpec> {
    E2E.iter().find(|s| s.name == name)
}

/// Every metric a traced run reports, as `(name, unit, better)`, in
/// report order: the per-layer table, then the end-to-end metrics only
/// some workloads have, then the cost of tracing itself. This is
/// `BENCHMARK.json`'s `per_layer` list.
pub const PER_LAYER: [(&str, &str, &str); 53] = [
    ("sim.events_per_op", "count", "lower"),
    ("sim.host_ns_per_event", "ns", "lower"),
    ("sim.kernel_ns_per_event", "ns", "lower"),
    ("sim.metrics_ns_per_record", "ns", "lower"),
    ("net.datagrams_per_op", "count", "lower"),
    ("net.bytes_per_op", "bytes", "lower"),
    ("net.dropped", "count", "lower"),
    ("net.transit_mean_us", "us", "lower"),
    ("net.fanout_ns_per_datagram", "ns", "lower"),
    ("evs.acks_per_op", "count", "lower"),
    ("evs.sequencer_rounds_per_op", "count", "lower"),
    ("evs.actions_per_frame", "count", "higher"),
    ("evs.safe_delivery_ms", "ms", "lower"),
    ("evs.host_us_per_msg", "us", "lower"),
    ("evs.view_changes", "count", "lower"),
    ("evs.retransmits", "count", "lower"),
    ("evs.detect_ms", "ms", "lower"),
    ("evs.created_to_receipt_ms", "ms", "lower"),
    ("storage.syncs_per_op", "count", "lower"),
    ("storage.group_commit_batch", "count", "higher"),
    ("storage.disk_sync_ms", "ms", "lower"),
    ("storage.append_ns_per_record", "ns", "lower"),
    ("storage.commit_ns", "ns", "lower"),
    ("storage.file_sync_us", "us", "lower"),
    ("storage.torn_tails_truncated", "count", "lower"),
    ("db.apply_ns_per_op", "ns", "lower"),
    ("db.get_ns_per_read", "ns", "lower"),
    ("db.classify_ns_per_op", "ns", "lower"),
    ("db.digest_us", "us", "lower"),
    ("core.admit_ms", "ms", "lower"),
    ("core.created_to_green_ms", "ms", "lower"),
    ("core.green_to_reply_ms", "ms", "lower"),
    ("core.green_spread_ms", "ms", "lower"),
    ("core.receipt_to_green_ms", "ms", "lower"),
    ("core.submit_batch", "count", "higher"),
    ("core.green_burst", "count", "higher"),
    ("core.backpressure_rejects", "count", "lower"),
    ("core.fast_commit_share", "ratio", "higher"),
    ("core.fast_demotion_share", "ratio", "lower"),
    ("core.lease_read_share", "ratio", "higher"),
    ("core.lease_parked_share", "ratio", "lower"),
    ("core.exchange_ms", "ms", "lower"),
    ("core.exchanges_completed", "count", "lower"),
    ("core.actions_recovered", "count", "lower"),
    ("check.oracle_us_per_kevent", "us", "lower"),
    ("read_p50_ms", "ms", "lower"),
    ("read_p99_ms", "ms", "lower"),
    ("outage_ms", "ms", "lower"),
    ("heal_ms", "ms", "lower"),
    ("failed_ops_share", "ratio", "lower"),
    ("unavailable_retries", "count", "lower"),
    ("resent_after_crash", "count", "lower"),
    ("trace_overhead_pct", "%", "lower"),
];

/// One measured end-to-end metric of one workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// Name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `virtual`, `host` or `ratio`.
    pub clock: String,
    /// `lower` or `higher`.
    pub better: String,
    /// The value. Virtual metrics are exact and identical in every
    /// repetition. Host metrics are the *least-disturbed* estimate: the
    /// sandbox's noise only ever slows a deterministic computation
    /// down, in bursts of seconds, so the estimate takes for each slice
    /// of the measured run the fastest repetition and sums the slices
    /// (`setup_s`: the fastest repetition).
    pub value: f64,
    /// Median over whole repetitions.
    pub median: f64,
    /// Smallest whole repetition.
    pub min: f64,
    /// Largest whole repetition.
    pub max: f64,
    /// How far the runner-up estimate (second-fastest repetition per
    /// slice) lies above `value`, as a share of it: small when two
    /// repetitions saw a quiet machine, so the estimate has converged.
    pub spread: f64,
    /// What the value rests on: latency samples, operations, or
    /// repetitions.
    pub samples: u64,
    /// What `samples` counts.
    pub samples_of: String,
    /// Relative regression bound (same seed, see [`E2eSpec::bound`]).
    pub bound: f64,
    /// Absolute slack on top of it.
    pub bound_abs: f64,
}

/// One per-layer metric of a traced run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerMetric {
    /// Name, `layer.metric`.
    pub name: String,
    /// The crate it describes.
    pub layer: String,
    /// Unit.
    pub unit: String,
    /// `count` (export deltas), `span` (event-log join), `drive`
    /// (layer called in isolation) or `in-situ` (host time of the run).
    pub source: String,
    /// `virtual`, `host` or `count`.
    pub clock: String,
    /// False when the workload does not exercise what the metric
    /// measures (the value is then 0 and means nothing).
    pub applies: bool,
    /// The value; for spans, the mean.
    pub value: f64,
    /// Median, for spans (0 otherwise).
    pub p50: f64,
    /// 99th percentile, for spans (0 otherwise).
    pub p99: f64,
    /// Samples behind the value (0 for plain counts).
    pub samples: u64,
}

impl LayerMetric {
    /// A count or a ratio of counts.
    pub fn count(name: &str, layer: &str, unit: &str, value: f64) -> Self {
        LayerMetric {
            name: name.into(),
            layer: layer.into(),
            unit: unit.into(),
            source: "count".into(),
            clock: "count".into(),
            applies: true,
            value,
            p50: 0.0,
            p99: 0.0,
            samples: 0,
        }
    }

    /// A virtual-time span, in milliseconds.
    pub fn span(name: &str, layer: &str, mean_ms: f64, samples: u64) -> Self {
        LayerMetric {
            source: "span".into(),
            clock: "virtual".into(),
            samples,
            ..LayerMetric::count(name, layer, "ms", mean_ms)
        }
    }

    /// A layer drive's result.
    pub fn drive(
        name: &str,
        layer: &str,
        unit: &str,
        clock: &str,
        value: f64,
        samples: u64,
    ) -> Self {
        LayerMetric {
            source: "drive".into(),
            clock: clock.into(),
            samples,
            ..LayerMetric::count(name, layer, unit, value)
        }
    }

    /// A metric this workload does not exercise.
    pub fn not_applicable(name: &str, layer: &str, unit: &str) -> Self {
        LayerMetric {
            applies: false,
            ..LayerMetric::count(name, layer, unit, 0.0)
        }
    }
}

/// Everything measured on one workload by one invocation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: String,
    /// Why it is in the benchmark.
    pub why: String,
    /// Deployment and load parameters.
    pub params: BTreeMap<String, String>,
    /// The `--seed`.
    pub seed: u64,
    /// Repetitions run (fresh worlds, same seed).
    pub repetitions: u64,
    /// Whether this is the traced run.
    pub traced: bool,
    /// Hash of the virtual numbers, `sim_events` and the `MetricsExport`
    /// JSON; identical in every repetition, and across commits for a
    /// change meant only to speed the simulator.
    pub virtual_digest: String,
    /// Simulator events processed in the measured run.
    pub sim_events: u64,
    /// Requests sent or due in the window.
    pub attempted: u64,
    /// Refused for good.
    pub rejected: u64,
    /// Lost to a replica crash and never answered despite retries.
    pub crashed: u64,
    /// Otherwise unanswered at the end.
    pub unanswered: u64,
    /// Refusals by an unavailable replica (each retried; not failures).
    pub unavailable_retries: u64,
    /// Requests re-sent after their replica crashed (not failures).
    pub resent_after_crash: u64,
    /// Host seconds this workload took, set-up and checks included.
    pub wall_s: f64,
    /// End-to-end metrics (always from untraced repetitions).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<LayerMetric>,
    /// Column names of `spans`.
    pub span_columns: Vec<String>,
    /// One comma-separated row of boundary instants per committed
    /// update of the traced repetition (traced runs only).
    pub spans: Vec<String>,
    /// Host time of the traced repetition over the untraced one, minus
    /// one, in percent (traced runs only).
    pub trace_overhead_pct: f64,
}

impl WorkloadResult {
    /// Requests that failed.
    pub fn failed(&self) -> u64 {
        self.rejected + self.crashed + self.unanswered
    }

    /// The end-to-end metric called `name`.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.end_to_end.iter().find(|m| m.name == name)
    }
}

/// The machine a report was measured on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Host {
    /// Logical CPUs.
    pub nproc: u64,
    /// CPU model string.
    pub cpu_model: String,
}

impl Host {
    /// This machine.
    pub fn detect() -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
            cpu_model,
        }
    }
}

/// A full `run` or `trace`: every workload, one after the other.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// `run` or `trace`.
    pub kind: String,
    /// The `--seed`.
    pub seed: u64,
    /// The `--seconds` each workload was given.
    pub seconds: u64,
    /// Where it ran.
    pub host: Host,
    /// Host seconds for the whole command.
    pub total_wall_s: f64,
    /// One entry per workload.
    pub workloads: Vec<WorkloadResult>,
}

impl Report {
    /// Pretty JSON.
    pub fn to_json(&self) -> String {
        serde::json::to_string_pretty(self).expect("a report serializes")
    }

    /// Parses a report written by [`Report::to_json`].
    pub fn from_json(text: &str) -> Result<Report, String> {
        serde::json::from_str(text).map_err(|e| e.to_string())
    }
}

/// One value of the driver's result line.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DriverValue {
    /// The measured number, all digits.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

/// The driver's result line: the last line of standard output.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DriverLine {
    /// Outputs were checked and are correct.
    pub correct: bool,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests failed.
    pub failed: u64,
    /// With `--trace 0` every end-to-end metric of `BENCHMARK.json`,
    /// with `--trace 1` every per-layer one.
    pub metrics: BTreeMap<String, DriverValue>,
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// A host metric from per-repetition `parts`: `parts[r][j]` is slice `j`
/// of repetition `r` (one slice for a quantity timed as a whole), and
/// `scale` converts summed seconds into the metric's unit.
fn host_metric(spec: &E2eSpec, parts: &[&[f64]], scale: f64) -> Metric {
    let whole: Vec<f64> = parts
        .iter()
        .map(|p| p.iter().sum::<f64>() * scale)
        .collect();
    let (best, second) = least_disturbed(parts);
    let (min, max) = whole
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    Metric {
        median: median(&whole),
        min,
        max,
        spread: (second - best) / best,
        samples: whole.len() as u64,
        samples_of: "repetitions".into(),
        ..exact_metric(spec, best * scale, 0, "")
    }
}

fn exact_metric(spec: &E2eSpec, value: f64, samples: u64, samples_of: &str) -> Metric {
    Metric {
        name: spec.name.into(),
        unit: spec.unit.into(),
        clock: spec.clock.into(),
        better: if spec.lower_is_better {
            "lower"
        } else {
            "higher"
        }
        .into(),
        value,
        median: value,
        min: value,
        max: value,
        spread: 0.0,
        samples,
        samples_of: samples_of.into(),
        bound: spec.bound,
        bound_abs: spec.bound_abs,
    }
}

/// Folds the untraced repetitions of one workload into its result.
///
/// The virtual numbers and digests of all repetitions must be equal.
pub fn fold(
    w: &Workload,
    seed: u64,
    reps: &[RepSummary],
    peak_rss_mb: f64,
    wall_s: f64,
) -> Result<WorkloadResult, String> {
    let first = reps.first().ok_or("no repetitions")?;
    for (i, r) in reps.iter().enumerate().skip(1) {
        if r.virt != first.virt || r.digest != first.digest {
            return Err(format!(
                "repetition {i} differs from repetition 0 in virtual time:\n{:?}\n{:?}",
                r.virt, first.virt
            ));
        }
    }
    let v: &Virtual = &first.virt;
    let spec = |name: &str| e2e_spec(name).expect("a known metric");
    let mut e2e = vec![
        exact_metric(
            spec("commit_p50_ms"),
            ns_to_ms(v.commit_p50_ns as f64),
            v.commit_samples,
            "commit latency samples",
        ),
        exact_metric(
            spec("commit_p99_ms"),
            ns_to_ms(v.commit_p99_ns as f64),
            v.commit_samples,
            "commit latency samples",
        ),
    ];
    if v.read_samples > 0 {
        for (name, ns) in [
            ("read_p50_ms", v.read_p50_ns),
            ("read_p99_ms", v.read_p99_ns),
        ] {
            e2e.push(exact_metric(
                spec(name),
                ns_to_ms(ns as f64),
                v.read_samples,
                "read latency samples",
            ));
        }
    }
    e2e.push(exact_metric(
        spec("throughput_ops"),
        v.ops_in_window as f64 / (v.window_ns as f64 / 1e9),
        v.ops_in_window,
        "operations completed in the window",
    ));
    for (name, ns) in [("outage_ms", v.outage_ns), ("heal_ms", v.heal_ns)] {
        if let Some(ns) = ns {
            e2e.push(exact_metric(
                spec(name),
                ns_to_ms(ns as f64),
                4,
                "schedule instants",
            ));
        }
    }
    e2e.push(exact_metric(
        spec("failed_ops_share"),
        v.failed() as f64 / v.attempted.max(1) as f64,
        v.attempted,
        "requests attempted",
    ));
    let slices: Vec<&[f64]> = reps.iter().map(|r| r.slices_s.as_slice()).collect();
    e2e.push(host_metric(
        spec("host_us_per_op"),
        &slices,
        1e6 / v.ops_done as f64,
    ));
    e2e.push(Metric {
        samples: 1,
        samples_of: "process".into(),
        ..exact_metric(spec("peak_rss_mb"), peak_rss_mb, 1, "")
    });
    let setups: Vec<[f64; 1]> = reps.iter().map(|r| [r.setup_s]).collect();
    let setups: Vec<&[f64]> = setups.iter().map(|s| s.as_slice()).collect();
    e2e.push(host_metric(spec("setup_s"), &setups, 1.0));

    Ok(WorkloadResult {
        name: w.name.into(),
        why: w.why.split_whitespace().collect::<Vec<_>>().join(" "),
        params: w.params().into_iter().collect(),
        seed,
        repetitions: reps.len() as u64,
        traced: false,
        virtual_digest: format!("{:016x}", first.digest),
        sim_events: v.sim_events,
        attempted: v.attempted,
        rejected: v.rejected,
        crashed: v.crashed,
        unanswered: v.unanswered,
        unavailable_retries: v.unavailable_retries,
        resent_after_crash: v.resent_after_crash,
        wall_s,
        end_to_end: e2e,
        per_layer: Vec::new(),
        span_columns: Vec::new(),
        spans: Vec::new(),
        trace_overhead_pct: 0.0,
    })
}

/// The table `run` and `trace` print for one workload.
pub fn render(r: &WorkloadResult) -> String {
    let mut out = format!(
        "== {} (seed {}, {} repetitions, {:.1} s)\n   {}\n   virtual_digest {}  sim_events {}  \
         attempted {}  failed {} (rejected {}, crashed {}, unanswered {})\n",
        r.name,
        r.seed,
        r.repetitions,
        r.wall_s,
        r.why,
        r.virtual_digest,
        r.sim_events,
        r.attempted,
        r.failed(),
        r.rejected,
        r.crashed,
        r.unanswered
    );
    for m in &r.end_to_end {
        let bound = if m.bound_abs > 0.0 && m.bound > 0.0 {
            format!("{:.0} % or {} {}", m.bound * 100.0, m.bound_abs, m.unit)
        } else if m.bound_abs > 0.0 {
            format!("+{} abs", m.bound_abs)
        } else {
            format!("{:.0} %", m.bound * 100.0)
        };
        out.push_str(&format!(
            "   {:<18} {:>14.6} {:<5} {:<7} median {:.6} [{:.6} .. {:.6}] bound {:<16} n={} {}\n",
            m.name,
            m.value,
            m.unit,
            m.clock,
            m.median,
            m.min,
            m.max,
            bound,
            m.samples,
            m.samples_of
        ));
    }
    if r.traced {
        out.push_str(&format!(
            "   trace_overhead_pct {:>13.3} %\n",
            r.trace_overhead_pct
        ));
        for m in &r.per_layer {
            let value = if m.applies {
                format!("{:>14.6}", m.value)
            } else {
                format!("{:>14}", "n/a")
            };
            let tail = if m.source == "span" && m.applies && m.p99 > 0.0 {
                format!(" p50 {:.6} p99 {:.6} n={}", m.p50, m.p99, m.samples)
            } else if m.samples > 0 {
                format!(" n={}", m.samples)
            } else {
                String::new()
            };
            out.push_str(&format!(
                "   {:<30} {} {:<6} {:<7} {:<8}{}\n",
                m.name, value, m.unit, m.clock, m.source, tail
            ));
        }
    }
    out
}

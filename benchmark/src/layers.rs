//! Per-layer metrics of a traced repetition, from two sources outside
//! the program: (a) *counts* — `MetricsExport` counter deltas over the
//! measured run, per completed operation; (b) *stage spans* — the
//! generators' stamps joined to the typed event log. Source (c), the
//! layer drives, lives in [`crate::drives`].
//!
//! A counter the workload is certain to increment must be present in
//! the export: its absence is an error naming it (a rename would
//! otherwise read as zero). Counters that fire only on events a
//! workload may legitimately never see (a drop, a retransmission, a
//! torn tail) read zero when absent, and are marked so.

use todr_sim::{MetricsExport, ProtocolEvent};

use crate::eventlog::{self, StageSpan};
use crate::report::LayerMetric;
use crate::run::Rep;
use crate::stats::{mean_u64, ns_to_ms, percentile};
use crate::workloads::Workload;

/// Counter and histogram deltas between two exports.
struct Deltas<'a> {
    before: &'a MetricsExport,
    after: &'a MetricsExport,
}

impl Deltas<'_> {
    /// A counter this workload must have incremented by its end.
    fn req(&self, name: &str) -> Result<f64, String> {
        let after = crate::run::counter(self.after, name)?;
        Ok((after - self.before.counters.get(name).copied().unwrap_or(0)) as f64)
    }

    /// A counter that may legitimately never fire: absent reads zero.
    fn rare(&self, name: &str) -> f64 {
        let get = |e: &MetricsExport| e.counters.get(name).copied().unwrap_or(0);
        (get(self.after) - get(self.before)) as f64
    }

    /// Sample count and mean of a histogram over the measured run. The
    /// export carries `floor(sum / count)`, so the reconstructed sum is
    /// within one unit per sample.
    fn hist(&self, name: &str) -> Result<(f64, f64), String> {
        let after = self
            .after
            .histograms
            .get(name)
            .ok_or_else(|| format!("histogram `{name}` is absent from the metrics export"))?;
        let (bc, bs) = self
            .before
            .histograms
            .get(name)
            .map_or((0, 0), |h| (h.count, h.mean_nanos.saturating_mul(h.count)));
        let count = after.count - bc;
        let sum = after.mean_nanos.saturating_mul(after.count) - bs;
        let mean = if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64
        };
        Ok((count as f64, mean))
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Source (a): counts per completed operation, plus the in-situ host
/// cost per simulator event.
pub fn counts(w: &Workload, rep: &Rep) -> Result<Vec<LayerMetric>, String> {
    let d = Deltas {
        before: &rep.before,
        after: &rep.after,
    };
    let v = &rep.summary.virt;
    let ops = v.ops_done as f64;
    let faults = w.faults.is_some();
    let packing = w.packing > 1;
    let m = LayerMetric::count;
    let na = LayerMetric::not_applicable;
    let mut out = vec![
        m(
            "sim.events_per_op",
            "sim",
            "count",
            v.sim_events as f64 / ops,
        ),
        LayerMetric {
            source: "in-situ".into(),
            clock: "host".into(),
            ..m(
                "sim.host_ns_per_event",
                "sim",
                "ns",
                rep.summary.host_s() * 1e9 / v.sim_events as f64,
            )
        },
        m(
            "net.datagrams_per_op",
            "net",
            "count",
            d.req("net.sent")? / ops,
        ),
        m(
            "net.bytes_per_op",
            "net",
            "bytes",
            d.req("net.bytes_delivered")? / ops,
        ),
        m(
            "net.dropped",
            "net",
            "count",
            if faults {
                d.req("net.dropped_partition")? + d.req("net.dropped_crashed")?
            } else {
                d.rare("net.dropped_partition") + d.rare("net.dropped_crashed")
            } + d.rare("net.dropped_loss"),
        ),
        m(
            "net.transit_mean_us",
            "net",
            "us",
            d.hist("net.transit_latency")?.1 / 1e3,
        ),
        m(
            "evs.acks_per_op",
            "evs",
            "count",
            d.req("evs.acks_sent")? / ops,
        ),
    ];
    if packing {
        let rounds = d.req("evs.sequencer_rounds")?;
        out.push(m(
            "evs.sequencer_rounds_per_op",
            "evs",
            "count",
            rounds / ops,
        ));
        out.push(m(
            "evs.actions_per_frame",
            "evs",
            "count",
            ratio(d.req("evs.sequenced")?, rounds),
        ));
    } else {
        out.push(na("evs.sequencer_rounds_per_op", "evs", "count"));
        out.push(na("evs.actions_per_frame", "evs", "count"));
    }
    out.push(m(
        "evs.view_changes",
        "evs",
        "count",
        d.req("evs.views_installed")?,
    ));
    out.push(m(
        "evs.retransmits",
        "evs",
        "count",
        d.rare("evs.retransmitted") + d.rare("evs.link_retransmitted"),
    ));
    let sync_requests = d.req("storage.sync_requests")?;
    out.push(m(
        "storage.syncs_per_op",
        "storage",
        "count",
        sync_requests / ops,
    ));
    out.push(if w.forced_writes {
        m(
            "storage.group_commit_batch",
            "storage",
            "count",
            ratio(sync_requests, d.req("storage.forced_writes")?),
        )
    } else {
        na("storage.group_commit_batch", "storage", "count")
    });
    out.push(m(
        "storage.torn_tails_truncated",
        "storage",
        "count",
        d.rare("storage.torn_tails_truncated"),
    ));
    out.push(m(
        "core.submit_batch",
        "core",
        "count",
        ratio(
            d.req("engine.actions_created")?,
            d.hist("engine.submit_batch")?.0,
        ),
    ));
    out.push(m(
        "core.backpressure_rejects",
        "core",
        "count",
        d.rare("engine.backpressure_rejects"),
    ));
    let commits = v.commit_samples as f64;
    if w.fast_path {
        out.push(m(
            "core.fast_commit_share",
            "core",
            "ratio",
            d.req("engine.fast_commits")? / commits,
        ));
        out.push(m(
            "core.fast_demotion_share",
            "core",
            "ratio",
            d.req("engine.fast_demotions")? / commits,
        ));
    } else {
        out.push(na("core.fast_commit_share", "core", "ratio"));
        out.push(na("core.fast_demotion_share", "core", "ratio"));
    }
    if w.read_leases && v.read_samples > 0 {
        let reads = v.read_samples as f64;
        out.push(m(
            "core.lease_read_share",
            "core",
            "ratio",
            d.req("engine.lease_reads")? / reads,
        ));
        out.push(m(
            "core.lease_parked_share",
            "core",
            "ratio",
            d.req("engine.lease_reads_parked")? / reads,
        ));
    } else {
        out.push(na("core.lease_read_share", "core", "ratio"));
        out.push(na("core.lease_parked_share", "core", "ratio"));
    }
    out.push(m(
        "core.exchanges_completed",
        "core",
        "count",
        if faults {
            d.req("engine.exchanges_completed")?
        } else {
            d.rare("engine.exchanges_completed")
        },
    ));
    Ok(out)
}

/// One row of the span table written to the trace file.
pub const SPAN_COLUMNS: [&str; 10] = [
    "generator",
    "creator",
    "action_seq",
    "sent_ns",
    "created_ns",
    "receipt_ns",
    "green_ns",
    "commit_ns",
    "reply_ns",
    "last_green_ns",
];

/// Source (b): joins every commit sample of a traced repetition to the
/// event log. Returns the per-layer span metrics and the span table
/// (one row per committed update, columns [`SPAN_COLUMNS`]).
pub fn spans(w: &Workload, rep: &Rep) -> Result<(Vec<LayerMetric>, Vec<Vec<u64>>), String> {
    let events = rep.cluster.world.metrics().events();
    let idx = eventlog::index_actions(events);
    let mut rows = Vec::new();
    let mut all: Vec<StageSpan> = Vec::new();
    for (g, log) in rep.logs.iter().enumerate() {
        if log.commit_actions.len() != log.commits.len() {
            return Err(format!(
                "generator {g} kept {} action stamps for {} commits",
                log.commit_actions.len(),
                log.commits.len()
            ));
        }
        for (sample, action) in log.commits.iter().zip(&log.commit_actions) {
            let s = eventlog::stage_span(*sample, *action, &idx)?;
            rows.push(vec![
                g as u64,
                u64::from(action.server.index()),
                action.index,
                s.sent,
                s.created,
                s.receipt,
                s.green,
                s.commit,
                s.reply,
                s.last_green,
            ]);
            all.push(s);
        }
    }
    let stage = |name: &str, layer: &str, f: fn(&StageSpan) -> u64| {
        let mut v: Vec<u64> = all.iter().map(f).collect();
        v.sort_unstable();
        LayerMetric {
            p50: ns_to_ms(percentile(&v, 50.0) as f64),
            p99: ns_to_ms(percentile(&v, 99.0) as f64),
            ..LayerMetric::span(name, layer, ns_to_ms(mean_u64(&v)), v.len() as u64)
        }
    };
    let mut out = vec![
        stage("core.admit_ms", "core", StageSpan::admit),
        stage(
            "core.created_to_green_ms",
            "core",
            StageSpan::created_to_commit,
        ),
        stage("core.green_to_reply_ms", "core", StageSpan::commit_to_reply),
        stage("core.green_spread_ms", "core", StageSpan::green_spread),
        stage(
            "evs.created_to_receipt_ms",
            "evs",
            StageSpan::created_to_receipt,
        ),
        stage(
            "core.receipt_to_green_ms",
            "core",
            StageSpan::receipt_to_green,
        ),
    ];
    // The three core stages must account for the mean commit latency
    // too, not only sample by sample.
    let latency: Vec<u64> = rep
        .logs
        .iter()
        .flat_map(|l| l.commits.iter().map(|s| s.latency_ns()))
        .collect();
    let staged: f64 = out[..3].iter().map(|m| m.value).sum();
    if (staged - ns_to_ms(mean_u64(&latency))).abs() > 1e-6 {
        return Err("mean stage spans do not sum to the mean commit latency".into());
    }

    let (from, until) = match &w.faults {
        None => (w.window_from.as_nanos(), w.window_until.as_nanos()),
        Some(f) => (w.window_from.as_nanos(), f.quiesce_until.as_nanos()),
    };
    let burst = eventlog::mean_green_burst(events, from, until)
        .ok_or("event log has no action-ordered(green) event in the window")?;
    out.push(LayerMetric {
        source: "span".into(),
        ..LayerMetric::count("core.green_burst", "core", "count", burst)
    });
    let recovered: u64 = eventlog::in_range(events, from, until)
        .iter()
        .filter_map(|rec| match &rec.event {
            ProtocolEvent::SyncCompleted {
                actions_recovered, ..
            } => Some(*actions_recovered),
            _ => None,
        })
        .sum();
    out.push(LayerMetric {
        source: "span".into(),
        ..LayerMetric::count("core.actions_recovered", "core", "count", recovered as f64)
    });

    match &w.faults {
        None => {
            out.push(LayerMetric::not_applicable("evs.detect_ms", "evs", "ms"));
            out.push(LayerMetric::not_applicable(
                "core.exchange_ms",
                "core",
                "ms",
            ));
        }
        Some(f) => {
            // A fault is seen by the replicas that stay in the primary.
            let observers: Vec<u32> = f
                .stable()
                .iter()
                .map(|&i| rep.cluster.servers[i].node.index())
                .collect();
            let (mut detect, mut exchange) = (0, 0);
            for at in [f.partition_at, f.crash_at] {
                let vc = eventlog::view_change(events, at.as_nanos(), &observers)?;
                detect = detect.max(vc.detect);
                exchange = exchange.max(vc.exchange);
            }
            out.push(LayerMetric::span(
                "evs.detect_ms",
                "evs",
                ns_to_ms(detect as f64),
                2,
            ));
            out.push(LayerMetric::span(
                "core.exchange_ms",
                "core",
                ns_to_ms(exchange as f64),
                2,
            ));
        }
    }
    Ok((out, rows))
}

//! Determinism pins for the large-cluster hot path.
//!
//! The Rc-shared multicast and cumulative-ack stability must replay to
//! a byte-identical `MetricsExport` JSON under both same-instant
//! tie-break policies, at a membership size large enough that
//! cumulative-ack stability is active, and under the forced all-ack
//! comparison baseline too.

use todr_harness::client::ClientConfig;
use todr_harness::cluster::{Cluster, ClusterConfig};
use todr_sim::{SimDuration, TieBreak};

/// Large enough to cross the default `cumulative_ack_threshold` (16),
/// so the sweep-relevant protocol paths (shared multicast + cumulative
/// acks) are the ones being pinned.
const N: u32 = 18;
const SEED: u64 = 0x5ca1e;

fn run_export(tie_break: TieBreak, ack_threshold: Option<usize>) -> String {
    let mut builder = ClusterConfig::builder(N, SEED)
        .delayed_writes()
        .packing(8)
        .tie_break(tie_break);
    if let Some(t) = ack_threshold {
        builder = builder.cumulative_ack_threshold(t);
    }
    let config = builder.build().expect("coherent config");
    let mut cluster = Cluster::build(config);
    cluster.settle();
    let warmup = SimDuration::from_millis(100);
    let client_config = ClientConfig {
        record_from: cluster.now() + warmup,
        ..ClientConfig::default()
    };
    for i in 0..6 {
        cluster.attach_client(i % N as usize, client_config.clone());
    }
    cluster.run_for(warmup + SimDuration::from_millis(300));
    cluster.check_consistency();
    cluster.metrics_export().to_json()
}

#[test]
fn scale_path_replays_byte_identical() {
    for tie_break in [TieBreak::Fifo, TieBreak::Seeded(7)] {
        let a = run_export(tie_break, None);
        let b = run_export(tie_break, None);
        assert_eq!(a, b, "scale-path replay diverged under {tie_break:?}");
    }
}

#[test]
fn allack_comparison_baseline_replays_byte_identical() {
    // The sweep's gap-attribution cells force all-ack stability with
    // `usize::MAX`; that path must replay exactly too.
    for tie_break in [TieBreak::Fifo, TieBreak::Seeded(7)] {
        let a = run_export(tie_break, Some(usize::MAX));
        let b = run_export(tie_break, Some(usize::MAX));
        assert_eq!(a, b, "all-ack replay diverged under {tie_break:?}");
    }
}

#[test]
fn cumulative_acks_actually_engage_past_the_threshold() {
    // Guard against the optimization silently never activating: at
    // N ≥ threshold the cumulative path must send measurably fewer
    // stability acks than the forced all-ack baseline, while
    // committing work.
    let cumulative = run_export(TieBreak::Fifo, None);
    let allack = run_export(TieBreak::Fifo, Some(usize::MAX));
    let acks = |json: &str| -> u64 {
        let export = todr_sim::MetricsExport::from_json(json).expect("valid export");
        export.counters.get("evs.acks_sent").copied().unwrap_or(0)
    };
    let committed = |json: &str| -> u64 {
        let export = todr_sim::MetricsExport::from_json(json).expect("valid export");
        export
            .counters
            .get("engine.actions_created")
            .copied()
            .unwrap_or(0)
    };
    assert!(
        committed(&cumulative) > 0,
        "cumulative run committed nothing"
    );
    assert!(
        acks(&cumulative) < acks(&allack),
        "cumulative-ack stability sent {} acks, all-ack {} — the threshold never engaged",
        acks(&cumulative),
        acks(&allack)
    );
}

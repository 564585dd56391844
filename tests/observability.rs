//! The typed observability bus, asserted end to end through the
//! facade: deterministic JSON export, per-subsystem counters, and the
//! typed [`ProtocolEvent`] log (instead of grepping the free-text
//! trace).

use std::collections::{BTreeMap, BTreeSet};

use todr::core::{ReadConsistency, UpdateReplyPolicy};
use todr::harness::client::{ClientConfig, ZipfianKeys};
use todr::harness::cluster::{Cluster, ClusterConfig};
use todr::sim::{EventColor, MetricsExport, ProtocolEvent, ReadTier, SimDuration};

fn run_loaded_cluster(config: ClusterConfig, secs: u64) -> Cluster {
    let mut cluster = Cluster::build(config);
    cluster.settle();
    for i in 0..cluster.servers.len().min(3) {
        cluster.attach_client(i, ClientConfig::default());
    }
    cluster.run_for(SimDuration::from_secs(secs));
    cluster
}

#[test]
fn metrics_export_is_deterministic_for_a_fixed_seed() {
    let export_json = |seed: u64| -> String {
        let cluster = run_loaded_cluster(ClusterConfig::new(3, seed), 2);
        cluster.metrics_export().to_json_pretty()
    };
    let a = export_json(900);
    let b = export_json(900);
    assert_eq!(a, b, "same seed must produce byte-identical JSON exports");
    let c = export_json(901);
    assert_ne!(a, c, "different seeds should not collide byte-for-byte");
}

#[test]
fn export_covers_every_subsystem_and_roundtrips() {
    let cluster = run_loaded_cluster(ClusterConfig::new(3, 7), 2);
    let export = cluster.metrics_export();

    // Counters from all four instrumented layers.
    for counter in [
        "net.sent",
        "net.delivered",
        "evs.submitted",
        "evs.delivered_safe",
        "evs.views_installed",
        "storage.forced_writes",
        "engine.actions_created",
        "engine.marked_green",
    ] {
        assert!(
            export.counters.get(counter).copied().unwrap_or(0) > 0,
            "counter {counter} missing or zero in export"
        );
    }
    // Histograms with percentiles in sane units: ordering latency on a
    // LAN with 10ms forced writes is milliseconds, not zero and not
    // minutes.
    let ordering = export
        .histograms
        .get("engine.ordering_latency")
        .expect("ordering latency histogram");
    assert!(ordering.count > 0);
    assert!(
        ordering.p50_nanos >= 1_000_000,
        "p50 below 1ms: {ordering:?}"
    );
    assert!(
        ordering.p99_nanos < 60_000_000_000,
        "p99 above 60s: {ordering:?}"
    );
    assert!(ordering.p50_nanos <= ordering.p99_nanos);
    assert!(ordering.p99_nanos <= ordering.max_nanos.next_multiple_of(2));

    // Group-commit batches were measured on every forced write.
    let batches = export
        .histograms
        .get("storage.group_commit_batch")
        .expect("group commit histogram");
    assert_eq!(
        batches.count, export.counters["storage.forced_writes"],
        "one batch sample per forced write"
    );

    // JSON roundtrip preserves the whole export.
    let json = export.to_json();
    let back = MetricsExport::from_json(&json).expect("parse our own export");
    assert_eq!(export, back);
}

#[test]
fn typed_events_replace_trace_grepping() {
    let cluster = run_loaded_cluster(ClusterConfig::new(3, 11), 2);
    let hub = cluster.world.metrics();

    // Membership: every replica installed at least the initial view.
    let installs: Vec<_> = hub
        .events()
        .iter()
        .filter_map(|e| match e.event {
            ProtocolEvent::ViewInstalled { node, members, .. } => Some((node, members)),
            _ => None,
        })
        .collect();
    assert!(installs.len() >= 3, "expected a view per replica");
    assert!(
        installs.iter().any(|&(_, members)| members == 3),
        "someone must have installed the full 3-member view"
    );

    // Ordering: actions were created and reached green at every node,
    // and the green line only ever advances.
    assert!(hub.count_events("action-created") > 0);
    let mut greens_by_node = std::collections::BTreeMap::new();
    for e in hub.events() {
        if let ProtocolEvent::GreenLineAdvance { node, green } = e.event {
            let prev = greens_by_node.insert(node, green);
            assert!(
                prev.unwrap_or(0) <= green,
                "green line regressed at node {node}"
            );
        }
    }
    assert_eq!(
        greens_by_node.len(),
        3,
        "every replica advanced its green line"
    );

    // Clients: commits carry plausible latencies in virtual time.
    let commits: Vec<u64> = hub
        .events()
        .iter()
        .filter_map(|e| match e.event {
            ProtocolEvent::ClientCommit { latency_nanos, .. } => Some(latency_nanos),
            _ => None,
        })
        .collect();
    assert!(!commits.is_empty());
    assert!(commits.iter().all(|&l| l >= 1_000_000), "commit under 1ms");
}

/// Sums each typed event that stands for a hub counter per replica and
/// checks the sums against the hub. Returns the folded greens counted:
/// a Green at a node with no earlier mark of its action this
/// incarnation also stands for the red acceptance folded into it. A
/// delivery run stands for one delivery per slot.
fn assert_per_replica_events_sum(cluster: &Cluster, counters: &[&str]) -> u64 {
    let hub = cluster.world.metrics();
    let mut per_replica: BTreeMap<&str, BTreeMap<u32, u64>> = BTreeMap::new();
    let mut marked: BTreeSet<(u32, u32, u64)> = BTreeSet::new();
    let mut folds = 0;
    for rec in hub.events() {
        for d in rec.event.delivered_slots() {
            let counter = match d.in_transitional {
                false => "evs.delivered_safe",
                true => "evs.delivered_trans",
            };
            *per_replica
                .entry(counter)
                .or_default()
                .entry(d.node)
                .or_default() += 1;
        }
        let (counter, node) = match rec.event {
            ProtocolEvent::FastCommit { node, .. } => ("engine.fast_commits", node),
            ProtocolEvent::FastDemoted { node, .. } => ("engine.fast_demotions", node),
            ProtocolEvent::ReadServed {
                node,
                tier: ReadTier::LeaseLinearizable,
                ..
            } => ("engine.lease_reads", node),
            ProtocolEvent::LeaseGranted {
                node,
                renewal: false,
                ..
            } => ("engine.lease_grants", node),
            ProtocolEvent::LeaseGranted {
                node,
                renewal: true,
                ..
            } => ("engine.lease_renewals", node),
            ProtocolEvent::ActionOrdered {
                node,
                creator,
                action_seq,
                color,
            } => {
                let first = marked.insert((node, creator, action_seq));
                match color {
                    EventColor::Red => ("engine.marked_red", node),
                    EventColor::Green if first => {
                        folds += 1;
                        ("engine.marked_red", node)
                    }
                    _ => continue,
                }
            }
            ProtocolEvent::EngineCrashed { node } => {
                marked.retain(|&(n, _, _)| n != node);
                continue;
            }
            _ => continue,
        };
        *per_replica
            .entry(counter)
            .or_default()
            .entry(node)
            .or_default() += 1;
    }
    for &counter in counters {
        let by_node = per_replica.remove(counter).unwrap_or_default();
        let summed: u64 = by_node.values().sum();
        assert!(summed > 0, "no {counter} event: the check is vacuous");
        assert_eq!(
            summed,
            hub.counter(counter),
            "{counter}: per-replica events {by_node:?} disagree with the hub"
        );
    }
    folds
}

#[test]
fn per_replica_events_sum_to_the_hub_counters() {
    // Per-replica questions are answered from the typed events filtered
    // by `node`; summed over the replicas they must equal the
    // cluster-wide counter for the same fact.
    let config = ClusterConfig::builder(5, 19)
        .fast_path(true)
        .read_leases(true)
        .build()
        .expect("fast path + read leases is coherent");
    let mut cluster = Cluster::build(config);
    cluster.settle();
    for i in 0..5 {
        cluster.attach_client(
            i,
            ClientConfig {
                reply_policy: UpdateReplyPolicy::Fast,
                zipfian: Some(ZipfianKeys {
                    keys: 4,
                    theta: 0.99,
                }),
                read_pct: 50,
                read_consistency: Some(ReadConsistency::Linearizable),
                ..ClientConfig::default()
            },
        );
    }
    cluster.run_for(SimDuration::from_secs(2));
    assert_per_replica_events_sum(
        &cluster,
        &[
            "engine.fast_commits",
            "engine.fast_demotions",
            "engine.lease_reads",
            "engine.lease_grants",
            "engine.lease_renewals",
            "engine.marked_red",
            "evs.delivered_safe",
        ],
    );
    cluster.check_consistency();
}

#[test]
fn folded_red_marks_sum_to_the_hub_counter() {
    // Without eager receipts a replica other than the origin accepts an
    // action as red and greens it in one step, and logs only the Green.
    let config = ClusterConfig::builder(5, 19)
        .delayed_writes()
        .build()
        .expect("coherent config");
    let mut cluster = run_loaded_cluster(config, 2);
    let folds =
        assert_per_replica_events_sum(&cluster, &["engine.marked_red", "evs.delivered_safe"]);
    assert!(folds > 0, "no red mark was folded into its green");
    cluster.check_consistency();
}

#[test]
fn evs_retransmit_counters_fire_under_loss_and_stay_zero_on_clean_lan() {
    // Lossy fabric with ARQ links: the reliable channels must actually
    // retransmit, and the typed Retransmit events must report it.
    let mut lossy = run_loaded_cluster(ClusterConfig::new(3, 23).lossy(0.05), 3);
    let export = lossy.metrics_export();
    assert!(
        export
            .counters
            .get("net.dropped_loss")
            .copied()
            .unwrap_or(0)
            > 0,
        "5% loss over 3s must drop something"
    );
    assert!(
        export
            .counters
            .get("evs.link_retransmitted")
            .copied()
            .unwrap_or(0)
            > 0,
        "ARQ channels never retransmitted under 5% loss"
    );
    let retransmit_events = lossy.world.metrics().count_events("retransmit");
    assert!(
        retransmit_events > 0,
        "no typed Retransmit events under loss"
    );
    lossy.check_consistency();

    // Clean LAN: no loss, so the ARQ machinery must stay silent.
    let clean = run_loaded_cluster(ClusterConfig::new(3, 23), 3);
    let export = clean.metrics_export();
    assert_eq!(
        export
            .counters
            .get("net.dropped_loss")
            .copied()
            .unwrap_or(0),
        0
    );
    assert_eq!(
        export
            .counters
            .get("evs.link_retransmitted")
            .copied()
            .unwrap_or(0),
        0,
        "clean LAN must not retransmit"
    );
}

#[test]
fn cluster_config_builder_validates() {
    use todr::harness::cluster::InvalidClusterConfig;

    // Coherent configs build.
    let cfg = ClusterConfig::builder(5, 42)
        .loss_probability(0.05)
        .reliable_links(true)
        .build()
        .expect("lossy + reliable links is coherent");
    assert!(cfg.reliable_links);

    // Loss without ARQ links is the classic footgun: rejected.
    let err = ClusterConfig::builder(5, 42)
        .loss_probability(0.05)
        .build()
        .unwrap_err();
    let InvalidClusterConfig(reason) = &err;
    assert!(reason.contains("reliable_links"), "unhelpful error: {err}");

    // Degenerate shapes are rejected too.
    assert!(ClusterConfig::builder(0, 42).build().is_err());
    assert!(ClusterConfig::builder(3, 42)
        .loss_probability(1.5)
        .reliable_links(true)
        .build()
        .is_err());
    assert!(ClusterConfig::builder(3, 42).weight(0, 0).build().is_err());
}

#[test]
fn fallible_cluster_api_reports_instead_of_panicking() {
    let mut cluster = run_loaded_cluster(ClusterConfig::new(3, 31), 1);
    // try_settle on an already-settled cluster is an immediate Ok.
    cluster.try_settle().expect("already settled");
    let report = cluster
        .try_check_consistency()
        .expect("healthy cluster is consistent");
    assert_eq!(report.replicas_checked, 3);
    assert!(report.max_green > 0);
    assert!(report.trace.green_positions_agreed > 0);
}

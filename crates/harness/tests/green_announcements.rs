//! What readers of the event log may rely on about `GreenLineAdvance`:
//! the engine announces its green line once per delivery batch, and the
//! benchmark's joins (`green_count_at`, `green_reaches`, the exchange
//! timing of a view change) read only the last announcement of each
//! replica at each instant. So every green mark is announced at its own
//! instant, and each announcement is the previous line plus the marks
//! since it, unless a base adoption skipped positions.
//!
//! And how many ordering events an action leaves: a replica that accepts
//! an action as red and greens it in the same step logs the Green alone,
//! so without eager receipts only the origin logs a Red.

use std::collections::BTreeMap;

use todr_harness::client::ClientConfig;
use todr_harness::cluster::{Cluster, ClusterConfig};
use todr_sim::{EventColor, ProtocolEvent as E, SimDuration};

/// Per replica: its announced green line this incarnation and the green
/// marks made since.
#[derive(Default)]
struct Line {
    line: Option<u64>,
    marks: u64,
    /// Instant of the oldest mark not yet announced.
    open_since: Option<u64>,
}

#[test]
fn every_instant_ends_with_its_green_marks_announced() {
    let config = ClusterConfig::builder(7, 42)
        .packing(8)
        .torn_crashes(true)
        .build()
        .expect("coherent config");
    let mut cluster = Cluster::build(config);
    cluster.settle();
    for i in 0..7 {
        cluster.attach_client(i, ClientConfig::default());
    }
    let step = SimDuration::from_millis(700);
    cluster.run_for(step);
    cluster.partition(&[vec![0, 1, 2, 3], vec![4, 5, 6]]);
    cluster.run_for(step);
    cluster.merge_all();
    cluster.run_for(step);
    cluster.crash_torn(1);
    cluster.run_for(step);
    cluster.recover(1);
    cluster.run_for(step);
    cluster.leave(6);
    cluster.run_for(SimDuration::from_secs(2));
    cluster.stop_clients();
    cluster.run_for(SimDuration::from_secs(2));
    cluster.check_consistency();

    let mut lines: BTreeMap<u32, Line> = BTreeMap::new();
    let (mut advances, mut rebases, mut batched) = (0u64, 0u64, 0u64);
    for rec in cluster.world.metrics().events() {
        for (node, l) in &lines {
            if let Some(since) = l.open_since {
                assert!(
                    since == rec.at_nanos,
                    "node {node} left a green mark from {since} ns unannounced into {} ns",
                    rec.at_nanos
                );
            }
        }
        match rec.event {
            E::ActionOrdered {
                node,
                color: EventColor::Green,
                ..
            } => {
                let l = lines.entry(node).or_default();
                l.marks += 1;
                l.open_since.get_or_insert(rec.at_nanos);
            }
            E::GreenLineAdvance { node, green } => {
                let l = lines.entry(node).or_default();
                assert!(l.marks > 0, "node {node} announced {green} with no mark");
                if let Some(prev) = l.line {
                    // More than the marks: a base adopted in between,
                    // which the oracle takes as a rebase.
                    assert!(
                        green >= prev + l.marks,
                        "node {node}: {prev} + {} marks announced as {green}",
                        l.marks
                    );
                    rebases += u64::from(green > prev + l.marks);
                }
                advances += 1;
                batched += u64::from(l.marks > 1);
                *l = Line {
                    line: Some(green),
                    ..Line::default()
                };
            }
            E::EngineCrashed { node } => {
                let l = lines.entry(node).or_default();
                assert_eq!(l.marks, 0, "node {node} crashed with marks unannounced");
                l.line = None;
            }
            E::EngineRecovered { node, green } => {
                lines.entry(node).or_default().line = Some(green);
            }
            _ => {}
        }
    }
    assert!(lines.values().all(|l| l.open_since.is_none()));
    println!("{advances} advances, {batched} closing several marks, {rebases} rebases");
    assert!(
        batched > 0,
        "no delivery batch greened more than one action"
    );
    // The last announcement is the engine's green count.
    for i in 0..6 {
        let node = cluster.servers[i].node.index();
        assert_eq!(
            lines[&node].line,
            Some(cluster.green_count(i)),
            "server {i}"
        );
    }

    let export = cluster.metrics_export();
    assert!(!export.event_counts.contains_key("red-line-advance"));
    assert_eq!(
        export.event_counts["green-line-advance"], advances,
        "per-kind counts kept at emit"
    );
    cluster
        .try_check_history()
        .unwrap_or_else(|v| panic!("{v}"));
}

const N: u32 = 5;
const PER_CLIENT: u64 = 40;

/// What the actions created in a steady primary of `N` replicas (one
/// client per replica, `PER_CLIENT` requests each) left in the log.
#[derive(Debug, Default, PartialEq, Eq)]
struct Shape {
    created: u64,
    delivered: u64,
    red: u64,
    red_at_origin: u64,
    green: u64,
}

fn event_shape(config: ClusterConfig) -> Shape {
    let mut cluster = Cluster::build(config);
    cluster.settle();
    let from = cluster.world.metrics().events().len();
    let client = ClientConfig {
        max_requests: Some(PER_CLIENT),
        ..ClientConfig::default()
    };
    let clients: Vec<_> = (0..N as usize)
        .map(|i| cluster.attach_client(i, client.clone()))
        .collect();
    cluster.run_for(SimDuration::from_secs(3));
    for c in clients {
        assert_eq!(cluster.client_stats(c).committed, PER_CLIENT);
    }
    cluster.check_consistency();
    let mut shape = Shape::default();
    for rec in &cluster.world.metrics().events()[from..] {
        shape.delivered += rec.event.delivered_slots().count() as u64;
        match rec.event {
            E::ActionCreated { .. } => shape.created += 1,
            E::ActionOrdered {
                node,
                creator,
                color: EventColor::Red,
                ..
            } => {
                shape.red += 1;
                shape.red_at_origin += u64::from(node == creator);
            }
            E::ActionOrdered {
                color: EventColor::Green,
                ..
            } => shape.green += 1,
            _ => {}
        }
    }
    assert_eq!(shape.created, u64::from(N) * PER_CLIENT);
    shape
}

#[test]
fn without_eager_receipts_only_the_origin_logs_a_red() {
    let config = ClusterConfig::builder(N, 42)
        .delayed_writes()
        .packing(8)
        .build()
        .expect("coherent config");
    let shape = event_shape(config);
    let a = shape.created;
    let n = u64::from(N);
    assert_eq!(
        shape,
        Shape {
            created: a,
            delivered: n * a,
            red: a,
            red_at_origin: a,
            green: n * a,
        }
    );
}

#[test]
fn with_eager_receipts_every_replica_logs_a_red() {
    let n = u64::from(N);
    for (fast_path, read_leases) in [(true, false), (false, true)] {
        let config = ClusterConfig::builder(N, 42)
            .delayed_writes()
            .fast_path(fast_path)
            .read_leases(read_leases)
            .build()
            .expect("coherent config");
        let shape = event_shape(config);
        let a = shape.created;
        assert_eq!(
            (shape.red, shape.red_at_origin, shape.green),
            (n * a, a, n * a),
            "fast path {fast_path}, read leases {read_leases}: {shape:?}"
        );
    }
}

//! The typed observability bus end to end: drive a scripted failure
//! timeline against a loaded cluster, then export every counter,
//! latency histogram and typed protocol event as deterministic JSON.
//!
//! ```sh
//! cargo run --example observability            # report to stdout
//! cargo run --example observability -- out.json  # also write the JSON export
//! ```
//!
//! The JSON export is byte-identical across runs with the same seed —
//! CI uploads it as an artifact and diffs it against the previous run.

use todr::harness::client::ClientConfig;
use todr::harness::cluster::{Cluster, ClusterConfig};
use todr::harness::fault::{Faults, Step};
use todr::sim::{ProtocolEvent, SimDuration};

fn main() {
    let config = ClusterConfig::builder(5, 77)
        .build()
        .expect("default config is coherent");
    let mut cluster = Cluster::build(config);
    cluster.settle();
    let clients: Vec<_> = (0..5)
        .map(|i| cluster.attach_client(i, ClientConfig::default()))
        .collect();

    println!("running scripted failure timeline...");
    let ms = SimDuration::from_millis;
    let timeline = [
        (Step::Quiet, ms(1_000)),
        (
            Step::Partition {
                groups: vec![vec![0, 1, 2], vec![3, 4]],
            },
            ms(1_000),
        ),
        (Step::Crash { server: 4 }, ms(500)),
        (Step::Merge, ms(500)),
        (Step::Recover { server: 4 }, ms(1_000)),
        (Step::Join { via: 1 }, ms(2_000)),
    ];
    if let Err(v) = Faults::new(5, 1).run(&mut cluster, timeline) {
        panic!("consistency violated during the timeline: {v}");
    }
    println!(
        "timeline done at {} (replica {} joined online)\n",
        cluster.now(),
        cluster.servers.len() - 1
    );

    let count = |name| cluster.world.metrics().counter(name);
    println!(
        "aggregates: {} unique actions created, {} forced-write requests, \
         {} green marks across replicas, {} datagrams sent",
        count("engine.actions_created"),
        count("storage.sync_requests"),
        count("engine.marked_green"),
        count("net.sent"),
    );
    let committed: u64 = clients
        .iter()
        .map(|&c| cluster.client_stats(c).committed)
        .sum();
    println!("clients committed {committed} requests");

    // ---- the typed observability bus ----
    let hub = cluster.world.metrics();
    println!("\ntyped protocol events (counts by kind):");
    let mut kinds: std::collections::BTreeMap<&str, u64> = Default::default();
    for e in hub.events() {
        *kinds.entry(e.event.kind()).or_insert(0) += 1;
    }
    for (kind, n) in &kinds {
        println!("  {kind:<20} {n}");
    }
    let views = hub
        .events()
        .iter()
        .filter(|e| matches!(e.event, ProtocolEvent::ViewInstalled { .. }))
        .count();
    println!("({views} view installations across the timeline)");

    println!("\nordering latency (virtual time):");
    if let Some(h) = hub.histogram("engine.ordering_latency") {
        let s = h.summary();
        println!(
            "  count={} mean={}us p50={}us p99={}us max={}us",
            s.count,
            s.mean_nanos / 1_000,
            s.p50_nanos / 1_000,
            s.p99_nanos / 1_000,
            s.max_nanos / 1_000,
        );
    }

    let json = cluster.metrics_export().to_json_pretty();
    if let Some(path) = std::env::args().nth(1) {
        std::fs::write(&path, &json)
            .unwrap_or_else(|e| panic!("cannot write metrics export to {path}: {e}"));
        println!("\nmetrics export written to {path} ({} bytes)", json.len());
    } else {
        println!("\nmetrics export (JSON):\n{json}");
    }

    match cluster.try_check_consistency() {
        Ok(r) => println!(
            "all safety invariants hold ({} replicas, {} events checked, {} green positions agreed)",
            r.replicas_checked, r.trace.events, r.trace.green_positions_agreed
        ),
        Err(v) => panic!("consistency violated: {v}"),
    }
}

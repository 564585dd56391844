//! The file backend mirrors the sim store's image: the same seeded run
//! — a torn crash on one replica, a bit flip on another, and both
//! recoveries — must end in the same state on either backend, down to
//! the exported metrics.

use todr_harness::client::ClientConfig;
use todr_harness::cluster::{BackendKind, Cluster, ClusterConfig};
use todr_sim::{ProtocolEvent, SimDuration, TieBreak};

const N: u32 = 5;
const TORN: usize = 3;
const ROTTEN: usize = 4;

/// Each replica's green count and database digest, and the metrics
/// export as JSON, after the faults and recoveries.
fn run(backend: BackendKind) -> (Vec<u64>, Vec<u64>, String) {
    let config = ClusterConfig::builder(N, 0x0BAC_0E4D)
        .backend(backend)
        .tie_break(TieBreak::Fifo)
        .build()
        .expect("coherent config");
    let mut cluster = Cluster::build(config);
    cluster.settle();
    for i in 0..N as usize {
        cluster.attach_client(i, ClientConfig::default());
    }
    cluster.run_for(SimDuration::from_millis(25));
    cluster.crash_torn(TORN);
    cluster.run_for(SimDuration::from_secs(1));
    cluster.flip_bit(ROTTEN);
    cluster.run_for(SimDuration::from_millis(10));
    cluster.crash(ROTTEN);
    cluster.run_for(SimDuration::from_secs(1));
    cluster.recover(TORN);
    cluster.recover(ROTTEN);
    cluster.run_for(SimDuration::from_secs(2));
    cluster.check_consistency();

    let events = cluster.world.metrics().events();
    let truncated = events.iter().any(
        |e| matches!(e.event, ProtocolEvent::TornTailTruncated { node, .. } if node == TORN as u32),
    );
    let detected = events.iter().any(|e| {
        matches!(e.event, ProtocolEvent::CorruptionDetected { node, .. } if node == ROTTEN as u32)
    });
    assert!(truncated, "{backend:?}: no torn tail to truncate");
    assert!(detected, "{backend:?}: the bit flip went undetected");
    let greens = (0..N as usize).map(|i| cluster.green_count(i)).collect();
    let digests = (0..N as usize).map(|i| cluster.db_digest(i)).collect();
    (greens, digests, cluster.metrics_export().to_json())
}

#[test]
fn file_and_sim_clusters_end_identically_after_storage_faults() {
    let (sim_greens, sim_digests, sim_export) = run(BackendKind::Sim);
    let (file_greens, file_digests, file_export) = run(BackendKind::File);
    assert_eq!(file_greens, sim_greens, "green counts");
    assert_eq!(file_digests, sim_digests, "database digests");
    assert!(file_export == sim_export, "metrics exports differ");
}

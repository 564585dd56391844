//! The PR 4 crash-recovery matrix, re-run against the real file-backed
//! storage backend: every server's log and checkpoint live in actual
//! files under a tempdir, torn crashes leave physically short frames on
//! disk, and bit flips rot real bytes.
//!
//! The recovery contract must be byte-for-byte the same as on the sim
//! backend — a torn *final* record is truncated and the replica rejoins
//! and catches up; mid-log damage fail-stops.

use todr_harness::client::ClientConfig;
use todr_harness::cluster::{BackendKind, Cluster, ClusterConfig};
use todr_sim::{ProtocolEvent, SimDuration};

fn secs(s: u64) -> SimDuration {
    SimDuration::from_secs(s)
}

fn ms(m: u64) -> SimDuration {
    SimDuration::from_millis(m)
}

/// The protocol stage at which the victim replica is crashed (same
/// cells as `crash_recovery_matrix`).
#[derive(Debug, Clone, Copy)]
enum CrashPoint {
    Submit,
    Red,
    Yellow,
    Green,
}

const VICTIM: usize = 4;

fn file_cluster(seed: u64) -> Cluster {
    let config = ClusterConfig::builder(5, seed)
        .backend(BackendKind::File)
        .torn_crashes(true)
        .build()
        .expect("coherent config");
    Cluster::build(config)
}

fn crash_recover_case(point: CrashPoint, seed: u64) {
    let n = 5;
    let mut cluster = file_cluster(seed);
    assert!(cluster.storage_root().is_some(), "file backend has a root");
    cluster.settle();
    for i in 0..n {
        cluster.attach_client(i, ClientConfig::default());
    }

    match point {
        CrashPoint::Submit => {
            cluster.run_for(ms(30));
            cluster.crash(VICTIM);
        }
        CrashPoint::Red => {
            cluster.run_for(secs(1));
            cluster.partition(&[vec![0, 1, 2], vec![3, VICTIM]]);
            cluster.run_for(secs(1));
            let red = cluster.with_engine(VICTIM, |e| e.red_ids().len());
            assert!(red > 0, "victim accumulated no red actions before crash");
            cluster.crash(VICTIM);
            cluster.merge_all();
        }
        CrashPoint::Yellow => {
            cluster.run_for(secs(1));
            cluster.partition(&[vec![0, 1, 2], vec![3, VICTIM]]);
            cluster.run_for(secs(1));
            cluster.merge_all();
            cluster.run_for(ms(60));
            cluster.crash(VICTIM);
        }
        CrashPoint::Green => {
            cluster.run_for(secs(1));
            cluster.crash(VICTIM);
        }
    }

    cluster.run_for(secs(2));
    let survivor_green = cluster.green_count(0);
    assert!(survivor_green > 0, "survivors made no green progress");

    cluster.recover(VICTIM);
    cluster.run_for(secs(3));

    let recovered_green = cluster.green_count(VICTIM);
    assert!(
        recovered_green >= survivor_green,
        "{point:?}: recovered green {recovered_green} below survivors' \
         pre-recovery green {survivor_green}"
    );
    cluster.check_consistency();
    let events = cluster.world.metrics().events();
    assert!(
        events.iter().any(|e| matches!(
            e.event,
            ProtocolEvent::EngineRecovered { node, .. } if node == VICTIM as u32
        )),
        "{point:?}: no EngineRecovered event for the victim"
    );

    // The forced writes actually hit the platter: real fsyncs happened.
    let stats = cluster
        .with_engine(0, |e| e.storage().io_stats())
        .expect("file backend reports io stats");
    assert!(stats.fsyncs > 0, "no real fsync was issued");
}

#[test]
fn file_backend_recovers_crash_at_submit_boundary() {
    crash_recover_case(CrashPoint::Submit, 0xF11E_0001);
}

#[test]
fn file_backend_recovers_crash_with_red_actions() {
    crash_recover_case(CrashPoint::Red, 0xF11E_0002);
}

#[test]
fn file_backend_recovers_crash_in_view_change_window() {
    crash_recover_case(CrashPoint::Yellow, 0xF11E_0003);
}

#[test]
fn file_backend_recovers_crash_after_green_quiesce() {
    crash_recover_case(CrashPoint::Green, 0xF11E_0004);
}

/// Torn crashes leave physically short frames in the on-disk log, and
/// at least one seed in the sweep exercises the truncate-and-rejoin
/// repair against real bytes.
#[test]
fn file_backend_torn_tails_occur_and_are_truncated_across_seeds() {
    let mut torn_seen = 0u32;
    for seed in 0..8u64 {
        let mut cluster = file_cluster(0xF17E + seed);
        cluster.settle();
        for i in 0..5 {
            cluster.attach_client(i, ClientConfig::default());
        }
        cluster.run_for(ms(25));
        cluster.crash(VICTIM);
        cluster.run_for(secs(1));
        cluster.recover(VICTIM);
        cluster.run_for(secs(2));
        cluster.check_consistency();
        let events = cluster.world.metrics().events();
        if events.iter().any(|e| {
            matches!(
                e.event,
                ProtocolEvent::TornTailTruncated { node, .. } if node == VICTIM as u32
            )
        }) {
            torn_seen += 1;
        }
    }
    assert!(
        torn_seen > 0,
        "no torn tail in 8 submit-boundary crashes on the file backend"
    );
}

/// A bit flip injected into the victim's on-disk log rots acknowledged
/// bytes; the recovery scan must refuse to rejoin (fail-stop) rather
/// than replay corrupt state, exactly as on the sim backend.
#[test]
fn file_backend_bit_flip_fail_stops_recovery() {
    let mut cluster = file_cluster(0x0F11_EB17);
    cluster.settle();
    for i in 0..5 {
        cluster.attach_client(i, ClientConfig::default());
    }
    // Let the victim accumulate a durable green log, then rot it.
    cluster.run_for(secs(1));
    cluster.flip_bit(VICTIM);
    cluster.run_for(ms(10));
    cluster.crash(VICTIM);
    cluster.run_for(secs(1));
    cluster.recover(VICTIM);
    cluster.run_for(secs(2));

    let state = cluster.engine_state(VICTIM);
    assert_eq!(
        state,
        todr_core::EngineState::Down,
        "victim must fail-stop on mid-log corruption"
    );
    let error = cluster.with_engine(VICTIM, |e| e.recovery_error().cloned());
    assert!(
        error.is_some(),
        "fail-stopped victim must report a recovery error"
    );
    let events = cluster.world.metrics().events();
    assert!(
        events.iter().any(|e| matches!(
            e.event,
            ProtocolEvent::CorruptionDetected { node, .. } if node == VICTIM as u32
        )),
        "no CorruptionDetected event for the victim"
    );
    // Survivors are unaffected by one replica's rotten disk.
    cluster.check_consistency();
}

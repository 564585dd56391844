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

/// Replica 0's forced-write cost on the file backend, three replicas
/// checkpointing every 32 greens: `preload` clients first write their
/// 64 keys each, then one client on replica 0 runs for a second.
/// Returns the rows the database then holds, and over that second at
/// replica 0, checkpoints excluded, the real fsyncs per forced write
/// and the bytes written per committed action.
fn forced_write_probe(preload: usize) -> (usize, f64, f64) {
    let config = ClusterConfig::builder(3, 0xD15C)
        .backend(BackendKind::File)
        .checkpoint_interval(32)
        .build()
        .expect("coherent config");
    let mut cluster = Cluster::build(config);
    cluster.settle();
    for c in 0..preload {
        let once = ClientConfig {
            max_requests: Some(64),
            ..ClientConfig::default()
        };
        cluster.attach_client(c % 3, once);
    }
    cluster.run_for(secs(8));
    let rows = cluster.with_engine(0, |e| e.db().row_count()) as usize;
    let client = cluster.attach_client(0, ClientConfig::default());
    let io = |cluster: &mut Cluster| {
        cluster
            .with_engine(0, |e| e.storage().io_stats())
            .expect("file backend reports io stats")
    };
    let before = io(&mut cluster);
    cluster.run_for(secs(1));
    let after = io(&mut cluster);
    let committed = cluster.client_stats(client).committed as f64;
    let fsyncs =
        (after.fsyncs - after.checkpoint_fsyncs) - (before.fsyncs - before.checkpoint_fsyncs);
    let bytes = (after.file_bytes_written - after.checkpoint_bytes)
        - (before.file_bytes_written - before.checkpoint_bytes);
    let forced = after.forced_writes - before.forced_writes;
    (
        rows,
        fsyncs as f64 / forced as f64,
        bytes as f64 / committed,
    )
}

/// §7 gives each action one forced write. On real files that is one
/// append and one fsync, and what it writes does not depend on how
/// large the database is: the database is written at checkpoints only.
#[test]
fn a_forced_write_is_one_fsync_whatever_the_database_size() {
    let probes: Vec<_> = [1, 8, 32].into_iter().map(forced_write_probe).collect();
    eprintln!("rows | fsyncs per forced write | bytes per committed action");
    for (rows, per_write, per_action) in &probes {
        eprintln!("{rows} | {per_write:.3} | {per_action:.0}");
    }
    assert!(probes[2].0 >= 16 * probes[0].0, "{probes:?}");
    for &(rows, per_write, per_action) in &probes {
        assert!(
            per_write <= 1.0,
            "{rows} rows: {per_write} fsyncs per forced write"
        );
        let smallest = probes[0].2;
        assert!(
            per_action <= 1.25 * smallest,
            "{rows} rows: {per_action:.0} B per action against {smallest:.0} B"
        );
    }
}

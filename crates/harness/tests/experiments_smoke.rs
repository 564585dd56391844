//! Smoke tests for the experiment drivers: small virtual windows, but
//! the qualitative shapes of the paper's results must already hold.

use todr_evs::EvsDaemon;
use todr_harness::client::ClientConfig;
use todr_harness::cluster::{Cluster, ClusterConfig};
use todr_harness::experiments::Protocol;
use todr_harness::experiments::{
    fig5a, fig5b, join, latency, partition, recovery, run_workload, scale, semantics,
};
use todr_sim::{ApplyHorizon, MetricsExport, SimDuration};

#[test]
fn latency_table_matches_paper_shape() {
    // 1 client, sequential actions: engine ≈ COReL ≈ one forced write;
    // 2PC ≈ two forced writes (paper: 11.4 / 11.4 / 19.3 ms).
    let table = latency::run(5, 200, 42);
    println!("{}", table.to_table());
    let mean = |p: Protocol| -> f64 {
        table
            .rows
            .iter()
            .find(|r| r.protocol == p)
            .expect("row present")
            .latency
            .mean()
            .as_millis_f64()
    };
    let engine = mean(Protocol::Engine {
        delayed_writes: false,
    });
    let corel = mean(Protocol::Corel);
    let tpc = mean(Protocol::Tpc);
    assert!(
        (9.0..15.0).contains(&engine),
        "engine latency {engine} ms outside the one-forced-write band"
    );
    assert!(
        (9.0..15.0).contains(&corel),
        "corel latency {corel} ms outside the one-forced-write band"
    );
    assert!(
        (17.0..26.0).contains(&tpc),
        "2pc latency {tpc} ms outside the two-forced-write band"
    );
    assert!(
        (corel - engine).abs() < 3.0,
        "engine and COReL should sit together"
    );
    assert!(tpc > engine + 5.0, "2PC must pay the extra forced write");
}

#[test]
fn fig5a_ordering_engine_over_corel_over_tpc() {
    let fig = fig5a::run(8, &[2, 8], SimDuration::from_secs(2), 42);
    println!("{}", fig.to_table());
    let at = |p: Protocol, clients: usize| -> f64 {
        fig.curves
            .iter()
            .find(|c| c.protocol == p)
            .expect("curve present")
            .points
            .iter()
            .find(|&&(c, _)| c == clients)
            .expect("point present")
            .1
    };
    let engine = Protocol::Engine {
        delayed_writes: false,
    };
    // Throughput grows with clients for every protocol.
    assert!(at(engine, 8) > at(engine, 2));
    assert!(at(Protocol::Corel, 8) > at(Protocol::Corel, 2));
    // Ordering at high load: engine > COReL > 2PC.
    assert!(
        at(engine, 8) > at(Protocol::Corel, 8),
        "engine {} <= corel {}",
        at(engine, 8),
        at(Protocol::Corel, 8)
    );
    assert!(
        at(Protocol::Corel, 8) > at(Protocol::Tpc, 8),
        "corel {} <= tpc {}",
        at(Protocol::Corel, 8),
        at(Protocol::Tpc, 8)
    );
}

#[test]
fn fig5b_delayed_writes_beat_forced_writes() {
    let fig = fig5b::run(8, &[2, 8], SimDuration::from_secs(2), 42);
    println!("{}", fig.to_table());
    let delayed = &fig.curves[0].points;
    let forced = &fig.curves[1].points;
    for (d, f) in delayed.iter().zip(forced.iter()) {
        assert!(
            d.1 > f.1 * 2.0,
            "delayed writes ({}) should far outrun forced writes ({}) at {} clients",
            d.1,
            f.1,
            d.0
        );
    }
}

#[test]
fn packing_costs_a_lone_client_nothing() {
    // One closed-loop client never has two actions in flight, so the
    // sequencer round has nothing to wait for: the packed curve must not
    // sit under the unpacked one at its first point.
    let delayed = Protocol::Engine {
        delayed_writes: true,
    };
    let warmup = SimDuration::from_millis(500);
    let window = SimDuration::from_secs(1);
    let unpacked = run_workload(delayed, 14, 1, 1, warmup, window, 42);
    let packed = run_workload(delayed, 14, 1, 8, warmup, window, 42);
    assert!(
        packed.throughput >= unpacked.throughput,
        "packed {} < unpacked {} actions/s at one client",
        packed.throughput,
        unpacked.throughput
    );
}

/// A delayed-writes, packing-8 deployment of `n` replicas with one
/// closed-loop client each, run for 1.5 s; `blind` cuts every sequencer
/// off from its apply queue first. Returns the whole hub.
fn delayed_packed_cell(n: u32, blind: bool) -> MetricsExport {
    let config = ClusterConfig::builder(n, 42)
        .delayed_writes()
        .packing(8)
        .build()
        .expect("coherent config");
    let mut cluster = Cluster::build(config);
    if blind {
        for s in cluster.servers.clone() {
            cluster.world.with_actor(s.daemon, |d: &mut EvsDaemon| {
                d.set_apply_horizon(ApplyHorizon::default())
            });
        }
    }
    cluster.settle();
    for i in 0..n as usize {
        cluster.attach_client(i, ClientConfig::default());
    }
    cluster.run_for(SimDuration::from_millis(1500));
    cluster.check_consistency();
    cluster.metrics_export()
}

#[test]
fn a_backlogged_apply_queue_fills_green_bursts() {
    // 14 × 14 with delayed writes is CPU-bound: each replica's apply
    // queue stays backlogged, so sequencer rounds stretch until it is
    // about to drain and each frame lands as one burst. Held to one
    // window (no handle) the bursts average 2.4.
    let export = delayed_packed_cell(14, false);
    let burst = &export.histograms["engine.green_burst"];
    assert!(burst.mean_nanos >= 4, "mean green burst {burst:?}");
}

#[test]
fn an_unsaturated_cell_never_stretches_a_round() {
    // At 7 × 7 no apply queue ever holds more than two pack windows, so
    // the run is the one whose sequencers cannot see the queue at all.
    assert_eq!(
        delayed_packed_cell(7, false).to_json(),
        delayed_packed_cell(7, true).to_json()
    );
}

#[test]
fn partition_report_is_sane() {
    let report = partition::run(5, 42);
    println!("{}", report.to_table());
    assert!(report.throughput_before > 50.0);
    assert!(report.throughput_during > 20.0);
    assert!(report.reprimary_after_partition < SimDuration::from_secs(3));
    assert!(report.convergence_after_merge < SimDuration::from_secs(5));
}

#[test]
fn join_report_is_sane() {
    let report = join::run(4, 1, 42);
    println!("{}", report.to_table());
    assert!(report.green_at_join_start > 50);
    assert!(report.time_to_full_member < SimDuration::from_secs(10));
    assert!(report.throughput_during_join > 20.0);
}

#[test]
fn semantics_report_matches_section6() {
    let report = semantics::run(5, 42);
    println!("{}", report.to_table());
    use semantics::ProbeOutcome;
    assert_eq!(report.strict_query, ProbeOutcome::Blocked);
    assert!(matches!(
        report.weak_query,
        ProbeOutcome::Answered { dirty: false, .. }
    ));
    assert!(matches!(report.dirty_query, ProbeOutcome::Answered { .. }));
    assert_eq!(report.strict_update, ProbeOutcome::Blocked);
    assert!(matches!(
        report.commutative_update,
        ProbeOutcome::Answered { .. }
    ));
    assert!(report.commutative_throughput > 20.0);
    assert!(report.converged_after_merge);
}

#[test]
fn recovery_report_is_sane() {
    let report = recovery::run(5, 2, 42);
    println!("{}", report.to_table());
    // A crash never loses green actions: what the log restored is at
    // most one vulnerable (not-yet-green) record short of the green
    // line at the crash, and catch-up completes quickly.
    assert!(report.green_at_crash > 100);
    assert!(report.green_restored_from_disk + 2 >= report.green_at_crash);
    assert!(report.green_at_recovery > report.green_at_crash);
    assert!(report.time_to_catch_up < SimDuration::from_secs(5));
    assert!(report.throughput_during_outage > 20.0);
}

#[test]
fn scale_profile_accounts_for_every_event_of_the_unprofiled_cell() {
    let sweep = scale::run(&[3, 5], SimDuration::from_millis(300), 42);
    let kinds = &sweep.host_share_by_actor_kind;
    assert!(kinds.iter().any(|k| k.kind == "engine"));
    // Profiling must not change what the world does: the profiled
    // repetition handles exactly the events the timed one counted.
    let profiled_events: u64 = kinds.iter().map(|k| k.events).sum();
    assert_eq!(profiled_events, sweep.calibration.sim_events);
    // Shares are each kind's part of the profiled total.
    let total_ms: f64 = kinds.iter().map(|k| k.handle_ms).sum();
    assert!(total_ms > 0.0);
    for k in kinds {
        assert!((k.share - k.handle_ms / total_ms).abs() < 1e-3, "{k:?}");
    }
    let share_sum: f64 = kinds.iter().map(|k| k.share).sum();
    assert!((share_sum - 1.0).abs() < 1e-3, "shares sum to {share_sum}");
    // The world's own time is the rest of the profiled advance.
    let world = &sweep.world;
    assert_eq!(world.events, profiled_events);
    assert!(world.outside_handlers_ms > 0.0 && world.wall_ms > total_ms);
    assert!(
        (world.outside_handlers_ms + total_ms - world.wall_ms).abs() < 0.01,
        "{world:?} vs {total_ms} ms in handlers"
    );

    // The engine's row, split by event kind, adds back up to it.
    let engine = kinds
        .iter()
        .find(|k| k.kind == "engine")
        .expect("engine row");
    let by_event = &sweep.engine_host_by_event_kind;
    let labels: Vec<&str> = by_event.iter().map(|k| k.kind.as_str()).collect();
    // (No receipt row: the sweep runs neither the fast path nor leases,
    // the only configurations with eager receipts.)
    for label in ["deliver", "disk-done", "client request"] {
        assert!(labels.contains(&label), "no {label} row in {labels:?}");
    }
    assert_eq!(
        by_event.iter().map(|k| k.events).sum::<u64>(),
        engine.events
    );
    let event_ms: f64 = by_event.iter().map(|k| k.handle_ms).sum();
    assert!(
        (event_ms - engine.handle_ms).abs() < 0.01,
        "{event_ms} vs {engine:?}"
    );
    let share_sum: f64 = by_event.iter().map(|k| k.share).sum();
    assert!(
        (share_sum - 1.0).abs() < 1e-3,
        "event shares sum to {share_sum}"
    );

    // So do the fabric's and the daemons'. (No control row: the cell
    // neither partitions nor crashes.)
    for (kind, by_event, rows) in [
        (
            "net",
            &sweep.net_host_by_event_kind,
            &["send", "in-flight", "probe"][..],
        ),
        (
            "evs",
            &sweep.evs_host_by_event_kind,
            &[
                "fd-tick",
                "submit",
                "sequenced",
                "stable",
                "ack-tick",
                "cmd",
            ][..],
        ),
    ] {
        let row = kinds.iter().find(|k| k.kind == kind).expect("actor row");
        let labels: Vec<&str> = by_event.iter().map(|k| k.kind.as_str()).collect();
        if kind == "net" {
            assert_eq!(labels.len(), rows.len(), "{labels:?}");
        }
        for label in rows {
            assert!(
                labels.contains(label),
                "no {kind} {label} row in {labels:?}"
            );
        }
        assert_eq!(by_event.iter().map(|k| k.events).sum::<u64>(), row.events);
        let event_ms: f64 = by_event.iter().map(|k| k.handle_ms).sum();
        assert!(
            (event_ms - row.handle_ms).abs() < 0.01,
            "{event_ms} vs {row:?}"
        );
    }
}

//! Crash-recovery matrix: one replica is torn-crashed at each stage of
//! an action's life — right after submission, while its actions are
//! still red in a minority partition, inside the view-change window
//! where yellow marks exist, and after everything turned green — under
//! both deterministic tie-break policies. In every cell the replica
//! must recover from its (possibly torn) log, rejoin, catch up to the
//! survivors' green line, and leave the cluster consistent.
//!
//! This is the paper's §4.3 claim exercised end-to-end: a crash can
//! only lose *vulnerable* (at most red/yellow) actions, never a green
//! one, and the exchange protocol re-fetches the lost prefix from
//! peers on rejoin.

use todr_core::EngineState;
use todr_harness::client::ClientConfig;
use todr_harness::cluster::{Cluster, ClusterConfig};
use todr_sim::{ProtocolEvent, SimDuration, TieBreak};

fn secs(s: u64) -> SimDuration {
    SimDuration::from_secs(s)
}

fn ms(m: u64) -> SimDuration {
    SimDuration::from_millis(m)
}

/// The protocol stage at which the victim replica is crashed.
#[derive(Debug, Clone, Copy)]
enum CrashPoint {
    /// Milliseconds after client traffic starts: submissions are in
    /// flight, the forced write for some of them likely incomplete —
    /// the textbook torn-tail case.
    Submit,
    /// The victim sits in a minority partition that has been generating
    /// red (ordered-but-not-green) actions for a while.
    Red,
    /// Mid view-change after a partition heals: the victim may hold
    /// yellow marks from the dissolved primary component.
    Yellow,
    /// After a quiet period in a stable primary: everything the victim
    /// knows is green.
    Green,
}

const VICTIM: usize = 4;

fn crash_recover_case(point: CrashPoint, tie_break: TieBreak, seed: u64) {
    let n = 5;
    let config = ClusterConfig::builder(n as u32, seed)
        .tie_break(tie_break)
        .torn_crashes(true)
        .build()
        .expect("coherent config");
    let mut cluster = Cluster::build(config);
    cluster.settle();
    for i in 0..n {
        cluster.attach_client(i, ClientConfig::default());
    }

    match point {
        CrashPoint::Submit => {
            // Crash almost immediately: submissions exist, few or no
            // green conversions have happened at the victim yet.
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
            // The gather/flush/exchange for the healed configuration is
            // in progress; crash inside that window.
            cluster.run_for(ms(60));
            cluster.crash(VICTIM);
        }
        CrashPoint::Green => {
            cluster.run_for(secs(1));
            cluster.crash(VICTIM);
        }
    }

    // Survivors keep the service alive while the victim is down.
    cluster.run_for(secs(2));
    let survivor_green = cluster.green_count(0);
    assert!(survivor_green > 0, "survivors made no green progress");

    cluster.recover(VICTIM);
    cluster.run_for(secs(3));

    // The recovered replica caught up past the survivors' green line
    // as of recovery time, and the whole cluster agrees.
    let recovered_green = cluster.green_count(VICTIM);
    assert!(
        recovered_green >= survivor_green,
        "{point:?}/{tie_break:?}: recovered green {recovered_green} \
         below survivors' pre-recovery green {survivor_green}"
    );
    cluster.check_consistency();

    // Recovery happened through the checksummed scan: the victim
    // actually went down and came back.
    let events = cluster.world.metrics().events();
    assert!(
        events.iter().any(|e| matches!(
            e.event,
            ProtocolEvent::EngineRecovered { node, .. } if node == VICTIM as u32
        )),
        "{point:?}/{tie_break:?}: no EngineRecovered event for the victim"
    );
}

#[test]
fn crash_at_submit_boundary_recovers_under_both_tie_breaks() {
    crash_recover_case(CrashPoint::Submit, TieBreak::Fifo, 0xC4A5_0001);
    crash_recover_case(CrashPoint::Submit, TieBreak::Seeded(1), 0xC4A5_0001);
}

#[test]
fn crash_with_red_actions_recovers_under_both_tie_breaks() {
    crash_recover_case(CrashPoint::Red, TieBreak::Fifo, 0xC4A5_0002);
    crash_recover_case(CrashPoint::Red, TieBreak::Seeded(1), 0xC4A5_0002);
}

#[test]
fn crash_in_view_change_window_recovers_under_both_tie_breaks() {
    crash_recover_case(CrashPoint::Yellow, TieBreak::Fifo, 0xC4A5_0003);
    crash_recover_case(CrashPoint::Yellow, TieBreak::Seeded(1), 0xC4A5_0003);
}

#[test]
fn crash_after_green_quiesce_recovers_under_both_tie_breaks() {
    crash_recover_case(CrashPoint::Green, TieBreak::Fifo, 0xC4A5_0004);
    crash_recover_case(CrashPoint::Green, TieBreak::Seeded(1), 0xC4A5_0004);
}

/// Torn crashes actually tear: across a seed sweep at the submit
/// boundary, at least one recovery finds and truncates a torn final
/// record, and recovery still converges on every seed.
#[test]
fn torn_tails_occur_and_are_truncated_across_seeds() {
    let mut torn_seen = 0u32;
    for seed in 0..12u64 {
        let config = ClusterConfig::builder(5, 0x70AA + seed)
            .torn_crashes(true)
            .build()
            .expect("coherent config");
        let mut cluster = Cluster::build(config);
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
        "no torn tail in 12 submit-boundary crashes — the fault \
         injection is not biting"
    );
}

/// `SyncCompleted.actions_recovered` is a per-incarnation count. The
/// victim is crashed inside `ExchangeActions` with retransmissions
/// already received — an exchange that therefore never reports — and
/// the exchanges it completes after recovering must count only what
/// reached it since: every retransmission is a group multicast, so that
/// is at most what the whole group sent after the recovery instant. (The pre-crash count used to survive the crash and inflate
/// the next report.)
#[test]
fn retransmissions_counted_before_a_crash_do_not_leak_into_the_next_exchange() {
    let config = ClusterConfig::builder(5, 0xC4A5_0005)
        .build()
        .expect("coherent config");
    let mut cluster = Cluster::build(config);
    cluster.settle();
    for i in 0..5 {
        cluster.attach_client(i, ClientConfig::default());
    }
    cluster.run_for(secs(1));
    cluster.partition(&[vec![VICTIM, 1, 2], vec![0, 3]]);
    cluster.run_for(secs(1));
    cluster.merge_all();

    // The minority's red actions reach the victim as retransmissions a
    // few hundred microseconds before the exchange ends. Walk virtual
    // time a microsecond at a time and stop inside that window: still
    // exchanging actions, and more actions accepted than on entry.
    let mut red_on_entry = None;
    let mid_exchange = (0..500_000).any(|_| {
        cluster.run_for(SimDuration::from_micros(1));
        let (state, red) = cluster.with_engine(VICTIM, |e| (e.state(), e.red_line()));
        if state != EngineState::ExchangeActions {
            red_on_entry = None;
            return false;
        }
        red > *red_on_entry.get_or_insert(red)
    });
    assert!(mid_exchange, "never caught the victim mid-exchange");
    cluster.crash(VICTIM);
    cluster.run_for(secs(1));

    let recovered_at = cluster.world.metrics().events().len();
    let sent_before = cluster.world.metrics().counter("engine.retransmitted");
    cluster.recover(VICTIM);
    cluster.run_for(secs(3));
    let sent_since = cluster.world.metrics().counter("engine.retransmitted") - sent_before;
    // Every exchange the victim completed since (its singleton
    // configuration first, then the merge with the survivors).
    let reported: u64 = cluster.world.metrics().events()[recovered_at..]
        .iter()
        .filter_map(|e| match e.event {
            ProtocolEvent::SyncCompleted {
                node,
                actions_recovered,
            } if node == VICTIM as u32 => Some(actions_recovered),
            _ => None,
        })
        .sum();
    assert!(
        reported > 0,
        "the victim missed a second of traffic yet recovered nothing"
    );
    assert!(
        reported <= sent_since,
        "victim reports {reported} actions recovered, but only {sent_since} \
         retransmissions were sent since it recovered"
    );
    cluster.check_consistency();
}

//! The trace oracle: every clause on synthetic event logs, and the
//! cluster's streaming check against one replay of the finished log.

use std::collections::BTreeSet;

use todr_harness::client::{ClientConfig, ZipfianKeys};
use todr_harness::cluster::{Cluster, ClusterConfig};
use todr_harness::fault::{Faults, Step};
use todr_harness::oracle::{check_trace, TraceOracle, TraceStats, TraceViolation};
use todr_sim::{
    DeliveredRun, EventColor, Footprint, ProtocolEvent as E, ReadTier, RecordedEvent, SimDuration,
};

fn rec(event: E) -> RecordedEvent {
    RecordedEvent {
        at_nanos: 0,
        actor: 0,
        group: 0,
        event,
    }
}

fn green_mark(node: u32, creator: u32, action_seq: u64, green: u64) -> Vec<RecordedEvent> {
    green_batch(node, &[(creator, action_seq)], green)
}

/// Greens `ids` at `node` as one delivery batch: the marks, then one
/// advance to `green`.
fn green_batch(node: u32, ids: &[(u32, u64)], green: u64) -> Vec<RecordedEvent> {
    let marks = ids.iter().map(|&(creator, action_seq)| {
        rec(E::ActionOrdered {
            node,
            creator,
            action_seq,
            color: EventColor::Green,
        })
    });
    marks
        .chain([rec(E::GreenLineAdvance { node, green })])
        .collect()
}

#[test]
fn agreeing_histories_pass() {
    let mut events = Vec::new();
    for node in 0..3 {
        events.extend(green_mark(node, 0, 1, 1));
        events.extend(green_mark(node, 1, 1, 2));
    }
    let survivors: BTreeSet<u32> = (0..3).collect();
    let stats = check_trace(&events, &survivors).unwrap();
    assert_eq!(stats.green_positions_agreed, 4);
}

#[test]
fn conflicting_green_positions_are_caught() {
    let mut events = Vec::new();
    events.extend(green_mark(0, 0, 1, 1));
    events.extend(green_mark(1, 2, 5, 1)); // different action at position 0
    let err = check_trace(&events, &BTreeSet::new()).unwrap_err();
    assert!(matches!(
        err,
        TraceViolation::GreenOrderConflict { position: 0, .. }
    ));
}

#[test]
fn green_line_must_strictly_increase_within_incarnation() {
    let events = vec![
        rec(E::GreenLineAdvance { node: 0, green: 5 }),
        rec(E::GreenLineAdvance { node: 0, green: 5 }),
    ];
    let err = check_trace(&events, &BTreeSet::new()).unwrap_err();
    assert!(matches!(err, TraceViolation::GreenLineRegression { .. }));
}

#[test]
fn crash_resets_incarnation_state() {
    // Green line drops across a crash/recovery: legal.
    let events = vec![
        rec(E::GreenLineAdvance { node: 0, green: 5 }),
        rec(E::EngineCrashed { node: 0 }),
        rec(E::EngineRecovered { node: 0, green: 3 }),
        rec(E::GreenLineAdvance { node: 0, green: 4 }),
    ];
    check_trace(&events, &BTreeSet::new()).unwrap();
}

#[test]
fn recovery_cannot_restore_more_than_was_announced() {
    let events = vec![
        rec(E::GreenLineAdvance { node: 0, green: 5 }),
        rec(E::EngineCrashed { node: 0 }),
        rec(E::EngineRecovered { node: 0, green: 9 }),
    ];
    let err = check_trace(&events, &BTreeSet::new()).unwrap_err();
    assert!(matches!(
        err,
        TraceViolation::RecoveryOvershoot {
            restored: 9,
            last_seen: 5,
            ..
        }
    ));
}

#[test]
fn color_regression_is_caught_and_reset_by_crash() {
    let regress = vec![
        rec(E::ActionOrdered {
            node: 0,
            creator: 1,
            action_seq: 1,
            color: EventColor::Green,
        }),
        rec(E::ActionOrdered {
            node: 0,
            creator: 1,
            action_seq: 1,
            color: EventColor::Red,
        }),
    ];
    assert!(matches!(
        check_trace(&regress, &BTreeSet::new()).unwrap_err(),
        TraceViolation::ColorRegression { .. }
    ));

    // The same re-announcement after a crash is a legal replay.
    let with_crash = vec![
        regress[0].clone(),
        rec(E::EngineCrashed { node: 0 }),
        regress[1].clone(),
    ];
    check_trace(&with_crash, &BTreeSet::new()).unwrap();
}

#[test]
fn unresolved_yellow_flagged_only_for_survivors() {
    let events = vec![rec(E::ActionOrdered {
        node: 2,
        creator: 0,
        action_seq: 7,
        color: EventColor::Yellow,
    })];
    check_trace(&events, &BTreeSet::new()).unwrap();
    let survivors: BTreeSet<u32> = [2].into_iter().collect();
    assert!(matches!(
        check_trace(&events, &survivors).unwrap_err(),
        TraceViolation::UnresolvedYellow {
            node: 2,
            creator: 0,
            action_seq: 7
        }
    ));
}

fn yellow(node: u32, creator: u32, action_seq: u64) -> RecordedEvent {
    rec(E::ActionOrdered {
        node,
        creator,
        action_seq,
        color: EventColor::Yellow,
    })
}

#[test]
fn a_yellow_covered_by_an_adopted_base_is_resolved() {
    // Node 2 holds (0, 7) yellow, then adopts a base whose cut for
    // creator 0 is 7: the action is green there with no green mark.
    let events = vec![
        yellow(2, 0, 7),
        rec(E::BaseSubsumed {
            node: 2,
            creator: 0,
            cut: 7,
        }),
    ];
    let survivors: BTreeSet<u32> = [2].into_iter().collect();
    check_trace(&events, &survivors).unwrap();
}

#[test]
fn a_yellow_above_the_adopted_cut_stays_unresolved() {
    // The cut covers (0, 7) only; (0, 8) and another creator's yellow at
    // the same index are still unresolved, and so is the same action at
    // another node.
    for (uncovered, expect) in [
        (yellow(2, 0, 8), (2, 0, 8)),
        (yellow(2, 1, 7), (2, 1, 7)),
        (yellow(1, 0, 7), (1, 0, 7)),
    ] {
        let events = vec![
            yellow(2, 0, 7),
            uncovered,
            rec(E::BaseSubsumed {
                node: 2,
                creator: 0,
                cut: 7,
            }),
        ];
        let survivors: BTreeSet<u32> = [1, 2].into_iter().collect();
        let err = check_trace(&events, &survivors).unwrap_err();
        let TraceViolation::UnresolvedYellow {
            node,
            creator,
            action_seq,
        } = err
        else {
            panic!("expected an unresolved yellow, got {err:?}");
        };
        assert_eq!((node, creator, action_seq), expect);
    }
}

#[test]
fn lost_green_action_is_caught_at_survivors() {
    // Node 0 greens two positions, crashes, and recovers from a
    // stable store that only knew one of them — and never catches
    // back up. The greened position 1 has been lost at a survivor.
    let mut events = Vec::new();
    events.extend(green_mark(0, 0, 1, 1));
    events.extend(green_mark(0, 0, 2, 2));
    events.push(rec(E::EngineCrashed { node: 0 }));
    events.push(rec(E::EngineRecovered { node: 0, green: 1 }));

    // A non-survivor ending short is legal (it may still be down).
    check_trace(&events, &BTreeSet::new()).unwrap();

    let survivors: BTreeSet<u32> = [0].into_iter().collect();
    assert!(matches!(
        check_trace(&events, &survivors).unwrap_err(),
        TraceViolation::GreenActionLost {
            node: 0,
            final_green: 1,
            needed: 2,
        }
    ));

    // Catching back up to the claimed prefix clears the violation.
    events.extend(green_mark(0, 0, 2, 2));
    check_trace(&events, &survivors).unwrap();
}

#[test]
fn survivor_that_never_greened_loses_every_claimed_position() {
    let mut events = Vec::new();
    events.extend(green_mark(0, 0, 1, 1));
    let survivors: BTreeSet<u32> = [3].into_iter().collect();
    assert!(matches!(
        check_trace(&events, &survivors).unwrap_err(),
        TraceViolation::GreenActionLost {
            node: 3,
            final_green: 0,
            needed: 1,
        }
    ));
}

#[test]
fn delivery_sender_mismatch_is_caught() {
    let d = |node, sender| {
        rec(E::Delivered {
            node,
            conf_seq: 3,
            coordinator: 0,
            seq: 10,
            sender,
            in_transitional: false,
        })
    };
    check_trace(&[d(0, 4), d(1, 4)], &BTreeSet::new()).unwrap();
    assert!(matches!(
        check_trace(&[d(0, 4), d(1, 2)], &BTreeSet::new()).unwrap_err(),
        TraceViolation::DeliveryMismatch { seq: 10, .. }
    ));
}

#[test]
fn a_slot_claimed_far_ahead_is_checked_once_the_others_catch_up() {
    let d = |node, seq, sender| {
        rec(E::Delivered {
            node,
            conf_seq: 3,
            coordinator: 0,
            seq,
            sender,
            in_transitional: false,
        })
    };
    // Node 0's first delivery is far past any claimed slot; node 1 then
    // delivers every slot up to and past it, agreeing at 5000.
    let mut events = vec![d(0, 5000, 4)];
    events.extend((1..=5001).map(|seq| d(1, seq, 4)));
    let stats = check_trace(&events, &BTreeSet::new()).unwrap();
    assert_eq!(stats.deliveries_agreed, 1);
    // A third node that disagrees at 5000 meets node 0's claim.
    events.push(d(2, 5000, 9));
    assert_eq!(
        check_trace(&events, &BTreeSet::new()).unwrap_err(),
        TraceViolation::DeliveryMismatch {
            conf_seq: 3,
            coordinator: 0,
            seq: 5000,
            a: (0, 4),
            b: (2, 9),
        }
    );
}

#[test]
fn delivery_slots_strictly_increase_per_node_and_conf() {
    let d = |seq| {
        rec(E::Delivered {
            node: 0,
            conf_seq: 3,
            coordinator: 0,
            seq,
            sender: 1,
            in_transitional: false,
        })
    };
    check_trace(&[d(1), d(2), d(5)], &BTreeSet::new()).unwrap();
    assert!(matches!(
        check_trace(&[d(2), d(2)], &BTreeSet::new()).unwrap_err(),
        TraceViolation::DeliverySeqRegression { .. }
    ));
}

// --- delivery runs: a run's verdict is that of its singles ---

/// A delivery at `node` in configuration (3, 0).
fn single(node: u32, seq: u32, sender: u32) -> RecordedEvent {
    rec(E::Delivered {
        node,
        conf_seq: 3,
        coordinator: 0,
        seq,
        sender,
        in_transitional: false,
    })
}

/// A run of deliveries at `node` in configuration (3, 0).
fn run(node: u32, first_seq: u32, senders: &[u32]) -> RecordedEvent {
    rec(E::DeliveredRun(DeliveredRun::new(
        node, 3, 0, first_seq, false, senders,
    )))
}

/// The singles a run stands for, slots saturating as the log's do.
fn singles(node: u32, first_seq: u32, senders: &[u32]) -> Vec<RecordedEvent> {
    (0..)
        .zip(senders)
        .map(|(i, &sender)| single(node, first_seq.saturating_add(i), sender))
        .collect()
}

fn mismatch(seq: u64, a: (u32, u32), b: (u32, u32)) -> TraceViolation {
    TraceViolation::DeliveryMismatch {
        conf_seq: 3,
        coordinator: 0,
        seq,
        a,
        b,
    }
}

fn regression(from: u64, to: u64) -> TraceViolation {
    TraceViolation::DeliverySeqRegression {
        node: 0,
        conf_seq: 3,
        coordinator: 0,
        from,
        to,
    }
}

#[test]
fn a_run_and_a_single_that_disagree_at_one_slot_mismatch() {
    let none = BTreeSet::new();
    let agreed = check_trace(&[run(0, 10, &[4, 5, 6]), single(1, 11, 5)], &none);
    assert_eq!(agreed.unwrap().deliveries_agreed, 1);
    assert_eq!(
        check_trace(&[run(0, 10, &[4, 5, 6]), single(1, 11, 9)], &none),
        Err(mismatch(11, (0, 5), (1, 9)))
    );
    assert_eq!(
        check_trace(&[single(1, 11, 9), run(0, 10, &[4, 5, 6])], &none),
        Err(mismatch(11, (1, 9), (0, 5)))
    );
}

#[test]
fn a_run_that_swaps_two_senders_of_another_members_run_mismatches() {
    let none = BTreeSet::new();
    let same = check_trace(
        &[run(0, 10, &[4, 5, 6, 7]), run(1, 10, &[4, 5, 6, 7])],
        &none,
    );
    assert_eq!(same.unwrap().deliveries_agreed, 4);
    assert_eq!(
        check_trace(
            &[run(0, 10, &[4, 5, 6, 7]), run(1, 10, &[4, 6, 5, 7])],
            &none
        ),
        Err(mismatch(11, (0, 5), (1, 6)))
    );
    // Offset runs overlap in part and are checked where they overlap.
    assert_eq!(
        check_trace(&[run(0, 10, &[4, 5, 6]), run(1, 11, &[5, 7])], &none),
        Err(mismatch(12, (0, 6), (1, 7)))
    );
}

#[test]
fn a_run_overlapping_the_same_members_earlier_deliveries_regresses() {
    let none = BTreeSet::new();
    assert_eq!(
        check_trace(&[run(0, 10, &[1, 2, 3]), run(0, 12, &[3, 4])], &none),
        Err(regression(12, 12))
    );
    assert_eq!(
        check_trace(&[single(0, 11, 2), run(0, 10, &[1, 2])], &none),
        Err(regression(11, 10))
    );
    assert_eq!(
        check_trace(&[run(0, 10, &[1, 2]), single(0, 11, 2)], &none),
        Err(regression(11, 11))
    );
    let ahead = [run(0, 10, &[1, 2]), single(0, 12, 3), run(0, 13, &[4, 5])];
    check_trace(&ahead, &none).unwrap();
}

#[test]
fn a_run_near_u32_max_gets_the_verdict_of_its_singles() {
    let none = BTreeSet::new();
    let max = u32::MAX;
    for (first, senders) in [
        (max - 3, &[1, 2, 3][..]),
        (max - 1, &[1, 2, 3]),
        (max, &[1, 2]),
    ] {
        let as_run = check_trace(&[run(0, first, senders), run(1, first, senders)], &none);
        let mut spelled = singles(0, first, senders);
        spelled.extend(singles(1, first, senders));
        let as_singles = check_trace(&spelled, &none);
        assert_eq!(
            as_run.map(|s| s.deliveries_agreed),
            as_singles.map(|s| s.deliveries_agreed),
            "run of {} from {first}",
            senders.len()
        );
    }
    // Past the saturation a run repeats slot u32::MAX, as its singles
    // do: a different sender there mismatches, the same one regresses.
    let max = u64::from(max);
    assert_eq!(
        check_trace(&[run(0, u32::MAX - 1, &[1, 2, 3])], &none),
        Err(mismatch(max, (0, 2), (0, 3)))
    );
    assert_eq!(
        check_trace(&[run(0, u32::MAX - 1, &[1, 2, 2])], &none),
        Err(regression(max, max))
    );
}

// --- fast-path oracle clauses ---

/// Footprint event for a single-row write action.
fn footprint(node: u32, action_seq: u64, row: u64) -> RecordedEvent {
    rec(E::ActionFootprint(Box::new(Footprint {
        node,
        action_seq,
        writes: vec![row],
        writes_unbounded: false,
        reads: vec![],
        reads_unbounded: false,
        commutative: false,
        timestamped: false,
    })))
}

fn red(node: u32, creator: u32, action_seq: u64) -> RecordedEvent {
    rec(E::ActionOrdered {
        node,
        creator,
        action_seq,
        color: EventColor::Red,
    })
}

fn fast_commit(node: u32, action_seq: u64) -> RecordedEvent {
    rec(E::FastCommit { node, action_seq })
}

#[test]
fn clean_fast_commit_that_greens_passes() {
    let mut events = vec![footprint(0, 1, 7), red(0, 0, 1), fast_commit(0, 1)];
    events.extend(green_mark(0, 0, 1, 1));
    let stats = check_trace(&events, &BTreeSet::new()).unwrap();
    assert_eq!(stats.fast_commits_checked, 1);
}

#[test]
fn fast_commit_with_conflicting_inflight_action_is_flagged() {
    // Node 1's write to row 7 is red (in flight) at node 0 when
    // node 0's own action on the same row arrives back.
    let events = vec![
        footprint(0, 1, 7),
        footprint(1, 1, 7),
        red(0, 1, 1),
        red(0, 0, 1),
        fast_commit(0, 1),
    ];
    assert!(matches!(
        check_trace(&events, &BTreeSet::new()).unwrap_err(),
        TraceViolation::FastCommitConflict {
            action: (0, 1),
            other: (1, 1),
        }
    ));
}

#[test]
fn an_inflight_action_subsumed_by_a_base_no_longer_blocks_the_fast_commit() {
    // Node 1's conflicting write is red at node 0 until node 0 adopts a
    // base holding it green: it is then ordered, not in flight.
    let mut events = vec![
        footprint(0, 1, 7),
        footprint(1, 1, 7),
        red(0, 1, 1),
        rec(E::BaseSubsumed {
            node: 0,
            creator: 1,
            cut: 1,
        }),
        red(0, 0, 1),
        fast_commit(0, 1),
    ];
    events.extend(green_mark(0, 0, 1, 1));
    let stats = check_trace(&events, &BTreeSet::new()).unwrap();
    assert_eq!(stats.fast_commits_checked, 1);
}

#[test]
fn disjoint_inflight_actions_do_not_block_the_fast_commit() {
    let mut events = vec![
        footprint(0, 1, 7),
        footprint(1, 1, 9), // different row: commutes
        red(0, 1, 1),
        red(0, 0, 1),
        fast_commit(0, 1),
    ];
    events.extend(green_mark(0, 1, 1, 1));
    events.extend(green_mark(0, 0, 1, 2));
    check_trace(&events, &BTreeSet::new()).unwrap();
}

#[test]
fn inflight_body_without_a_footprint_is_conservatively_conflicting() {
    let events = vec![
        footprint(0, 1, 7),
        red(0, 1, 5), // no ActionFootprint for (1, 5)
        red(0, 0, 1),
        fast_commit(0, 1),
    ];
    assert!(matches!(
        check_trace(&events, &BTreeSet::new()).unwrap_err(),
        TraceViolation::FastCommitConflict {
            action: (0, 1),
            other: (1, 5),
        }
    ));
}

#[test]
fn fast_commit_with_unbounded_footprint_is_flagged() {
    let events = vec![
        rec(E::ActionFootprint(Box::new(Footprint {
            node: 0,
            action_seq: 1,
            writes: vec![],
            writes_unbounded: true,
            reads: vec![],
            reads_unbounded: false,
            commutative: false,
            timestamped: false,
        }))),
        red(0, 0, 1),
        fast_commit(0, 1),
    ];
    assert!(matches!(
        check_trace(&events, &BTreeSet::new()).unwrap_err(),
        TraceViolation::FastCommitConflict {
            action: (0, 1),
            other: (0, 1),
        }
    ));
}

#[test]
fn fast_commit_without_any_receipt_snapshot_is_flagged() {
    // A FastCommit with no prior own-red ordering (so no snapshot)
    // means the engine promised before the receipt check ran.
    let events = vec![footprint(0, 1, 7), fast_commit(0, 1)];
    assert!(matches!(
        check_trace(&events, &BTreeSet::new()).unwrap_err(),
        TraceViolation::FastCommitConflict {
            action: (0, 1),
            other: (0, 1),
        }
    ));
}

#[test]
fn fast_commit_that_never_greens_is_flagged() {
    let events = vec![footprint(0, 1, 7), red(0, 0, 1), fast_commit(0, 1)];
    assert!(matches!(
        check_trace(&events, &BTreeSet::new()).unwrap_err(),
        TraceViolation::FastCommitNeverGreen { action: (0, 1) }
    ));
}

#[test]
fn conflicting_unseen_predecessor_in_green_order_revokes_the_commit() {
    // Node 0 fast-commits its action on row 7, but a conflicting
    // action from node 1 — which node 0 had NOT seen at receipt
    // time — ends up *before* it in the global green order.
    let mut events = vec![
        footprint(0, 1, 7),
        footprint(1, 1, 7),
        red(0, 0, 1),
        fast_commit(0, 1),
    ];
    events.extend(green_mark(1, 1, 1, 1)); // (1,1) greens at position 0
    events.extend(green_mark(1, 0, 1, 2)); // (0,1) greens at position 1
    assert!(matches!(
        check_trace(&events, &BTreeSet::new()).unwrap_err(),
        TraceViolation::FastCommitRevoked {
            action: (0, 1),
            position: 1,
            other: (1, 1),
            other_position: 0,
        }
    ));
}

#[test]
fn of_several_revoking_predecessors_the_smallest_action_is_named() {
    // (0,1) writes rows 7 and 8. (2,1) on row 7 and (1,1) on row 8 both
    // green before it, unseen at its receipt. Row 7's bucket meets (2,1)
    // first; the violation still names the smallest action, (1,1).
    let mut events = vec![
        rec(E::ActionFootprint(Box::new(Footprint {
            node: 0,
            action_seq: 1,
            writes: vec![7, 8],
            writes_unbounded: false,
            reads: vec![],
            reads_unbounded: false,
            commutative: false,
            timestamped: false,
        }))),
        footprint(2, 1, 7),
        footprint(1, 1, 8),
        red(0, 0, 1),
        fast_commit(0, 1),
    ];
    events.extend(green_mark(2, 2, 1, 1)); // (2,1) greens at position 0
    events.extend(green_mark(2, 1, 1, 2)); // (1,1) greens at position 1
    events.extend(green_mark(2, 0, 1, 3)); // (0,1) greens at position 2
    assert!(matches!(
        check_trace(&events, &BTreeSet::new()).unwrap_err(),
        TraceViolation::FastCommitRevoked {
            action: (0, 1),
            position: 2,
            other: (1, 1),
            other_position: 1,
        }
    ));
}

#[test]
fn a_predecessor_in_a_base_adopted_before_receipt_was_seen() {
    // Node 0 never orders (1, 1); it gets it green in a base. Adopted
    // before node 0's receipt, the base is what its answer saw; adopted
    // after it, (1, 1) was unseen and its earlier position revokes.
    let base = rec(E::BaseSubsumed {
        node: 0,
        creator: 1,
        cut: 1,
    });
    let receipt = [footprint(0, 1, 7), red(0, 0, 1), fast_commit(0, 1)];
    let mut greens = green_mark(1, 1, 1, 1);
    greens.extend(green_mark(1, 0, 1, 2));
    for (adopted_first, revoked) in [(true, false), (false, true)] {
        let mut events = vec![footprint(1, 1, 7)];
        if adopted_first {
            events.push(base.clone());
        }
        events.extend(receipt.iter().cloned());
        if !adopted_first {
            events.push(base.clone());
        }
        events.extend(greens.iter().cloned());
        let verdict = check_trace(&events, &BTreeSet::new());
        assert_eq!(
            matches!(verdict, Err(TraceViolation::FastCommitRevoked { .. })),
            revoked,
            "{verdict:?}"
        );
    }
}

#[test]
fn conflicting_predecessor_seen_before_receipt_is_fine_once_green() {
    // Same shape, but node 0 greened the conflicting (1,1) BEFORE
    // its own receipt check: the dirty view already included it,
    // so the promise holds.
    let mut events = vec![footprint(0, 1, 7), footprint(1, 1, 7)];
    events.extend(green_mark(0, 1, 1, 1)); // (1,1) green at origin first
    events.push(red(0, 0, 1));
    events.push(fast_commit(0, 1));
    events.extend(green_mark(0, 0, 1, 2));
    check_trace(&events, &BTreeSet::new()).unwrap();
}

// --- read-lease oracle clauses ---

fn rec_at(at_nanos: u64, event: E) -> RecordedEvent {
    RecordedEvent {
        at_nanos,
        actor: 0,
        group: 0,
        event,
    }
}

fn update_acked(creator: u32, action_seq: u64) -> RecordedEvent {
    rec(E::UpdateAcked {
        node: creator,
        creator,
        action_seq,
    })
}

fn read_served(node: u32, key_fp: u64, tier: ReadTier, version: u64) -> RecordedEvent {
    rec(E::ReadServed {
        node,
        key_fp,
        tier,
        version,
    })
}

fn lease(at: u64, node: u32, conf: (u32, u32), expires: u64) -> RecordedEvent {
    rec_at(
        at,
        E::LeaseGranted {
            node,
            conf_seq: conf.0,
            coordinator: conf.1,
            expires_nanos: expires,
            renewal: false,
        },
    )
}

#[test]
fn fresh_lease_read_after_acked_write_passes() {
    let events = vec![
        footprint(0, 1, 7),
        update_acked(0, 1),
        read_served(1, 7, ReadTier::LeaseLinearizable, 1),
    ];
    let stats = check_trace(&events, &BTreeSet::new()).unwrap();
    assert_eq!(stats.lease_reads_checked, 1);
}

#[test]
fn stale_lease_read_is_caught() {
    let events = vec![
        footprint(0, 1, 7),
        update_acked(0, 1),
        read_served(1, 7, ReadTier::LeaseLinearizable, 0),
    ];
    assert!(matches!(
        check_trace(&events, &BTreeSet::new()).unwrap_err(),
        TraceViolation::StaleLinearizableRead {
            node: 1,
            key_fp: 7,
            version: 0,
            acked_writes: 1,
        }
    ));
}

#[test]
fn non_lease_tiers_are_exempt_from_the_staleness_clause() {
    // Ordered linearizable reads are linearized by the green order
    // itself; snapshot and overlay tiers promise no freshness.
    let mut events = vec![footprint(0, 1, 7), update_acked(0, 1)];
    for tier in [
        ReadTier::OrderedLinearizable,
        ReadTier::GreenSnapshot,
        ReadTier::RedOverlay,
    ] {
        events.push(read_served(1, 7, tier, 0));
    }
    let stats = check_trace(&events, &BTreeSet::new()).unwrap();
    assert_eq!(stats.lease_reads_checked, 0);
}

#[test]
fn re_announced_acks_count_as_one_linearization_point() {
    let events = vec![
        footprint(0, 1, 7),
        update_acked(0, 1),
        update_acked(0, 1),
        read_served(1, 7, ReadTier::LeaseLinearizable, 1),
    ];
    check_trace(&events, &BTreeSet::new()).unwrap();
}

#[test]
fn acks_only_count_after_they_happened() {
    // The read precedes the second ack: version 1 is fresh enough.
    let events = vec![
        footprint(0, 1, 7),
        footprint(0, 2, 7),
        update_acked(0, 1),
        read_served(1, 7, ReadTier::LeaseLinearizable, 1),
        update_acked(0, 2),
    ];
    check_trace(&events, &BTreeSet::new()).unwrap();
}

#[test]
fn unattributable_acks_are_skipped() {
    // No footprint for (0, 5), and (0, 6) writes unbounded: neither
    // can be pinned to a row, so neither raises the freshness floor.
    let events = vec![
        rec(E::ActionFootprint(Box::new(Footprint {
            node: 0,
            action_seq: 6,
            writes: vec![],
            writes_unbounded: true,
            reads: vec![],
            reads_unbounded: false,
            commutative: false,
            timestamped: false,
        }))),
        update_acked(0, 5),
        update_acked(0, 6),
        read_served(1, 7, ReadTier::LeaseLinearizable, 0),
    ];
    check_trace(&events, &BTreeSet::new()).unwrap();
}

#[test]
fn co_members_of_one_configuration_may_hold_leases_together() {
    let events = vec![
        lease(0, 0, (5, 0), 100),
        lease(10, 1, (5, 0), 110),
        lease(20, 2, (5, 0), 120),
    ];
    let stats = check_trace(&events, &BTreeSet::new()).unwrap();
    assert_eq!(stats.lease_grants_checked, 3);
}

#[test]
fn overlapping_leases_from_different_configurations_are_caught() {
    let events = vec![lease(0, 0, (5, 0), 100), lease(50, 1, (6, 1), 150)];
    assert!(matches!(
        check_trace(&events, &BTreeSet::new()).unwrap_err(),
        TraceViolation::LeaseOverlap {
            a: (0, (5, 0)),
            b: (1, (6, 1)),
        }
    ));
}

#[test]
fn expired_leases_do_not_overlap_a_later_configuration() {
    let events = vec![lease(0, 0, (5, 0), 40), lease(50, 1, (6, 1), 150)];
    check_trace(&events, &BTreeSet::new()).unwrap();
}

#[test]
fn transitional_config_clips_the_stale_holders_lease() {
    // Node 0's lease would run to t=100, but it saw a transitional
    // configuration at t=40 and expired it conservatively — so the
    // new configuration's grant at t=50 does not overlap.
    let events = vec![
        lease(0, 0, (5, 0), 100),
        rec_at(
            40,
            E::TransitionalConfig {
                node: 0,
                conf_seq: 5,
            },
        ),
        lease(50, 1, (6, 1), 150),
    ];
    check_trace(&events, &BTreeSet::new()).unwrap();
}

#[test]
fn crash_clips_the_stale_holders_lease() {
    let events = vec![
        lease(0, 0, (5, 0), 100),
        rec_at(40, E::EngineCrashed { node: 0 }),
        lease(50, 1, (6, 1), 150),
    ];
    check_trace(&events, &BTreeSet::new()).unwrap();
}

#[test]
fn only_the_holders_own_view_change_clips_its_lease() {
    // Node 2's transitional config says nothing about node 0's
    // lease: the overlap is still a violation.
    let events = vec![
        lease(0, 0, (5, 0), 100),
        rec_at(
            40,
            E::TransitionalConfig {
                node: 2,
                conf_seq: 5,
            },
        ),
        lease(50, 1, (6, 1), 150),
    ];
    assert!(matches!(
        check_trace(&events, &BTreeSet::new()).unwrap_err(),
        TraceViolation::LeaseOverlap { .. }
    ));
}

#[test]
fn commutative_predecessor_does_not_revoke() {
    let cfp = |node, action_seq| {
        rec(E::ActionFootprint(Box::new(Footprint {
            node,
            action_seq,
            writes: vec![7],
            writes_unbounded: false,
            reads: vec![],
            reads_unbounded: false,
            commutative: true,
            timestamped: false,
        })))
    };
    // Two commutative increments of the same row from different
    // creators: order-insensitive, so no conflict either at receipt
    // time or in the green order.
    let mut events = vec![cfp(0, 1), cfp(1, 1), red(0, 1, 1), red(0, 0, 1)];
    events.push(fast_commit(0, 1));
    events.extend(green_mark(1, 1, 1, 1));
    events.extend(green_mark(1, 0, 1, 2));
    check_trace(&events, &BTreeSet::new()).unwrap();
}

// --- Theorem 2: per-creator green FIFO ---

/// Greens `ids` at `node` at positions 1, 2, ….
fn green_run(node: u32, ids: &[(u32, u64)]) -> Vec<RecordedEvent> {
    (1..)
        .zip(ids)
        .flat_map(|(green, &(creator, seq))| green_mark(node, creator, seq, green))
        .collect()
}

#[test]
fn fifo_accepts_contiguous_creators() {
    let events = green_run(0, &[(0, 1), (1, 1), (0, 2), (1, 2)]);
    check_trace(&events, &BTreeSet::new()).unwrap();
}

#[test]
fn fifo_rejects_gaps() {
    let events = green_run(0, &[(0, 1), (0, 3)]);
    let err = check_trace(&events, &BTreeSet::new()).unwrap_err();
    assert_eq!(
        err,
        TraceViolation::FifoGap {
            node: 0,
            creator: 0,
            prev: 1,
            next: 3,
        }
    );
    assert!(err.to_string().contains("FIFO violated"), "{err}");
}

#[test]
fn fifo_rejects_a_repeated_index() {
    let events = green_run(0, &[(0, 1), (0, 1)]);
    assert!(matches!(
        check_trace(&events, &BTreeSet::new()).unwrap_err(),
        TraceViolation::FifoGap {
            prev: 1,
            next: 1,
            ..
        }
    ));
}

#[test]
fn crash_resets_fifo_tracking() {
    // The recovered incarnation may resume creator 0 anywhere (its
    // reloaded prefix is checked against the snapshot instead); from
    // there on its greens must be contiguous again.
    let mut events = green_run(0, &[(0, 1)]);
    events.push(rec(E::EngineCrashed { node: 0 }));
    events.push(rec(E::EngineRecovered { node: 0, green: 1 }));
    events.extend(green_mark(0, 0, 3, 2));
    check_trace(&events, &BTreeSet::new()).unwrap();
    events.extend(green_mark(0, 0, 5, 3));
    assert!(matches!(
        check_trace(&events, &BTreeSet::new()).unwrap_err(),
        TraceViolation::FifoGap {
            prev: 3,
            next: 5,
            ..
        }
    ));
}

#[test]
fn base_adoption_jump_does_not_false_positive() {
    // Node 0 greens (1, 1), then adopts a base that already holds
    // positions 1..4 (no event of its own) and greens (1, 5) at
    // position 4: the advance skips, so creator 1's run restarts.
    let mut events = green_run(0, &[(1, 1)]);
    events.extend(green_mark(0, 1, 5, 5));
    check_trace(&events, &BTreeSet::new()).unwrap();
    // Without the skip the same indices are a gap.
    let gap = green_run(0, &[(1, 1), (1, 5)]);
    assert!(matches!(
        check_trace(&gap, &BTreeSet::new()).unwrap_err(),
        TraceViolation::FifoGap { .. }
    ));
}

#[test]
fn a_green_folded_into_its_run_still_regresses() {
    let mut events = green_run(0, &[(1, 1), (1, 2)]);
    events.push(rec(E::ActionOrdered {
        node: 0,
        creator: 1,
        action_seq: 1,
        color: EventColor::Yellow,
    }));
    assert!(matches!(
        check_trace(&events, &BTreeSet::new()).unwrap_err(),
        TraceViolation::ColorRegression {
            had: EventColor::Green,
            got: EventColor::Yellow,
            ..
        }
    ));
}

// --- a red mark folded into the same step's green ---

#[test]
fn a_folded_green_is_accepted() {
    // The origin logs its Red (the receipt); the other replicas accept
    // the action as red and green it in one step, and log the Green
    // alone.
    let mut events = vec![red(0, 0, 1)];
    for node in 0..3 {
        events.extend(green_mark(node, 0, 1, 1));
    }
    let survivors: BTreeSet<u32> = (0..3).collect();
    let stats = check_trace(&events, &survivors).unwrap();
    assert_eq!(stats.green_positions_agreed, 2);
}

#[test]
fn a_red_after_a_folded_green_regresses() {
    let folded = green_mark(1, 0, 1, 1);
    let regression = TraceViolation::ColorRegression {
        node: 1,
        creator: 0,
        action_seq: 1,
        had: EventColor::Green,
        got: EventColor::Red,
    };
    // Before its advance closes the mark, and after.
    for closed in [1, folded.len()] {
        let mut events = folded[..closed].to_vec();
        events.push(red(1, 0, 1));
        assert_eq!(
            check_trace(&events, &BTreeSet::new()).unwrap_err(),
            regression
        );
    }
}

// --- one advance per delivery batch ---

#[test]
fn a_batch_closed_by_one_advance_claims_its_positions_in_order() {
    let ids = [(0, 1), (1, 1), (0, 2)];
    let mut events = green_batch(0, &ids, 3);
    events.extend(green_run(1, &ids));
    let stats = check_trace(&events, &BTreeSet::new()).unwrap();
    assert_eq!(stats.green_positions_agreed, 3);
}

#[test]
fn a_different_action_at_a_batch_position_conflicts() {
    let mut events = green_batch(0, &[(0, 1), (1, 1), (0, 2)], 3);
    events.extend(green_run(1, &[(0, 1), (2, 1)]));
    assert_eq!(
        check_trace(&events, &BTreeSet::new()).unwrap_err(),
        TraceViolation::GreenOrderConflict {
            position: 1,
            a: (0, (1, 1)),
            b: (1, (2, 1)),
        }
    );
}

#[test]
fn a_creator_gap_inside_a_batch_is_a_fifo_gap() {
    let events = green_batch(0, &[(0, 1), (1, 1), (0, 3)], 3);
    assert_eq!(
        check_trace(&events, &BTreeSet::new()).unwrap_err(),
        TraceViolation::FifoGap {
            node: 0,
            creator: 0,
            prev: 1,
            next: 3,
        }
    );
}

#[test]
fn an_advance_after_a_flush_then_adopt_jump_clears_the_runs() {
    // The engine announces its marks before adopting a base, so the
    // jump shows in the next batch's advance: 2 + 2 marks announced as
    // 10 means positions 2..8 came with the base.
    let mut events = green_batch(0, &[(1, 1), (1, 2)], 2);
    events.extend(green_batch(0, &[(1, 9), (1, 10)], 10));
    check_trace(&events, &BTreeSet::new()).unwrap();
    // The same marks announced without the skip are a gap.
    let mut gap = green_batch(0, &[(1, 1), (1, 2)], 2);
    gap.extend(green_batch(0, &[(1, 9), (1, 10)], 4));
    assert!(matches!(
        check_trace(&gap, &BTreeSet::new()).unwrap_err(),
        TraceViolation::FifoGap {
            prev: 2,
            next: 9,
            ..
        }
    ));
    // The runs restart before the batch's first mark only: a gap
    // inside the batch that jumped is still a gap.
    let mut inner = green_batch(0, &[(1, 1), (1, 2)], 2);
    inner.extend(green_batch(0, &[(1, 9), (1, 11)], 11));
    assert!(matches!(
        check_trace(&inner, &BTreeSet::new()).unwrap_err(),
        TraceViolation::FifoGap {
            prev: 9,
            next: 11,
            ..
        }
    ));
}

#[test]
fn a_jump_announced_without_marks_restarts_the_runs() {
    // Node 0 greens (1, 1) and (1, 2), adopts a base that holds
    // positions up to 6 and creator 1 up to index 6, and announces the
    // jump with no mark of its own. Creator 1's next green is index 7.
    let mut events = green_batch(0, &[(1, 1), (1, 2)], 2);
    events.extend(green_batch(0, &[], 6));
    events.extend(green_mark(0, 1, 7, 7));
    check_trace(&events, &BTreeSet::new()).unwrap();
    // A marks-free advance to the line already announced still
    // regresses.
    let mut same = green_batch(0, &[(1, 1), (1, 2)], 2);
    same.extend(green_batch(0, &[], 2));
    assert_eq!(
        check_trace(&same, &BTreeSet::new()).unwrap_err(),
        TraceViolation::GreenLineRegression {
            node: 0,
            from: 2,
            to: 2,
        }
    );
}

#[test]
fn an_advance_short_of_its_marks_regresses() {
    let mut events = green_run(0, &[(0, 1)]);
    events.extend(green_batch(0, &[(0, 2), (0, 3)], 2));
    assert_eq!(
        check_trace(&events, &BTreeSet::new()).unwrap_err(),
        TraceViolation::GreenLineRegression {
            node: 0,
            from: 1,
            to: 2,
        }
    );
    // A first advance cannot close more marks than positions either.
    let events = green_batch(0, &[(0, 1), (0, 2)], 1);
    assert!(matches!(
        check_trace(&events, &BTreeSet::new()).unwrap_err(),
        TraceViolation::GreenLineRegression { to: 1, .. }
    ));
}

#[test]
fn a_coalesced_log_gives_one_verdict_wherever_it_is_cut() {
    // Three replicas green the same five actions in differently cut
    // batches; every split of the log into two observed chunks, open
    // batches included, must end in the one-shot replay's verdict.
    let ids = [(0, 1), (1, 1), (0, 2), (2, 1), (1, 2)];
    let mut events = green_batch(0, &ids[..2], 2);
    events.extend(green_batch(1, &ids, 5));
    events.extend(green_batch(0, &ids[2..], 5));
    events.extend(green_run(2, &ids));
    let survivors: BTreeSet<u32> = (0..3).collect();
    let whole = check_trace(&events, &survivors).unwrap();
    assert_eq!(whole.green_positions_agreed, 10);
    for cut in 0..=events.len() {
        let mut oracle = TraceOracle::default();
        for e in &events[..cut] {
            oracle.observe(e).unwrap();
        }
        for e in &events[cut..] {
            oracle.observe(e).unwrap();
        }
        assert_eq!(oracle.finish(&survivors), Ok(whole), "cut at {cut}");
    }
}

// --- the reloaded prefix: green ids a recovery restores silently ---

fn fed(events: &[RecordedEvent]) -> TraceOracle {
    let mut oracle = TraceOracle::default();
    for e in events {
        oracle.observe(e).unwrap();
    }
    oracle
}

/// Nodes 0 and 1 green the same three actions; node 1 crashes and
/// reloads all three.
fn recovered_history() -> Vec<RecordedEvent> {
    let ids = [(0, 1), (1, 1), (0, 2)];
    let mut events = green_run(0, &ids);
    events.extend(green_run(1, &ids));
    events.push(rec(E::EngineCrashed { node: 1 }));
    events.push(rec(E::EngineRecovered { node: 1, green: 3 }));
    events
}

#[test]
fn reloaded_greens_are_checked_against_the_claims() {
    let oracle = fed(&recovered_history());
    assert_eq!(oracle.reloaded(1), 3);
    assert_eq!(oracle.reloaded(0), 0);
    oracle
        .check_reloaded(1, 0, &[(0, 1), (1, 1), (0, 2)])
        .unwrap();
    // Retained from a later floor: only the overlap is compared.
    oracle.check_reloaded(1, 2, &[(0, 2)]).unwrap();
    // A recovery that swapped two reloaded entries contradicts the log.
    assert_eq!(
        oracle.check_reloaded(1, 0, &[(1, 1), (0, 1), (0, 2)]),
        Err(TraceViolation::GreenOrderConflict {
            position: 0,
            a: (0, (0, 1)),
            b: (1, (1, 1)),
        })
    );
}

#[test]
fn reloaded_greens_must_be_fifo_and_run_into_the_new_greens() {
    // No claims at all: only Theorem 2 can object.
    let unclaimed = fed(&[]);
    assert!(matches!(
        unclaimed.check_reloaded(1, 0, &[(0, 2), (0, 1)]),
        Err(TraceViolation::FifoGap {
            prev: 2,
            next: 1,
            ..
        })
    ));
    // The seam: after reloading (0, 2), node 1's next green of creator
    // 0 must be (0, 3).
    let mut events = recovered_history();
    events.extend(green_mark(1, 0, 4, 4));
    let oracle = fed(&events);
    assert_eq!(
        oracle.check_reloaded(1, 0, &[(0, 1), (1, 1), (0, 2)]),
        Err(TraceViolation::FifoGap {
            node: 1,
            creator: 0,
            prev: 2,
            next: 4,
        })
    );
}

#[test]
fn a_base_adoption_replaces_the_reloaded_prefix() {
    let mut events = recovered_history();
    events.extend(green_mark(1, 1, 4, 7)); // skips positions 3..6
    assert_eq!(fed(&events).reloaded(1), 0);
    // So does a jump announced with no mark.
    let mut events = recovered_history();
    events.extend(green_batch(1, &[], 6));
    assert_eq!(fed(&events).reloaded(1), 0);
}

// --- streaming through the cluster against one replay of the log ---

/// Runs `schedule` on a cluster built from `config` with `clients`
/// attached, checking consistency after every 400 ms hold, heals,
/// drains, and runs the end-of-history check.
fn streamed(
    config: ClusterConfig,
    clients: impl Fn(&mut Cluster),
    schedule: &[Step],
) -> (Cluster, TraceStats) {
    let (n, shards) = (config.n_servers as usize, config.shards as usize);
    let mut cluster = Cluster::build(config);
    cluster.settle();
    clients(&mut cluster);
    let mut faults = Faults::new(n, shards);
    let hold = SimDuration::from_millis(400);
    let timeline = schedule.iter().map(|s| (s.clone(), hold));
    faults
        .run(&mut cluster, timeline)
        .unwrap_or_else(|v| panic!("{v}"));
    faults.heal(&mut cluster);
    cluster.run_for(SimDuration::from_secs(6));
    cluster.stop_clients();
    cluster.run_for(SimDuration::from_secs(4));
    assert!(cluster.run_to_router_quiescence(SimDuration::from_secs(30)));
    let report = cluster
        .try_check_consistency()
        .unwrap_or_else(|v| panic!("{v}"));
    let stats = cluster
        .try_check_history()
        .unwrap_or_else(|v| panic!("{v}"));
    assert_eq!(report.trace.events, stats.events, "nothing new since");
    (cluster, stats)
}

/// One `check_trace` per group over the group's slice of the full log,
/// summed.
fn one_shot(cluster: &mut Cluster) -> TraceStats {
    let mut total = TraceStats::default();
    for g in 0..cluster.config().shards {
        let members: Vec<usize> = (0..cluster.servers.len())
            .filter(|&i| cluster.servers[i].group == g)
            .collect();
        let scope = cluster
            .world
            .actor_scope(cluster.servers[members[0]].engine);
        let mut survivors = BTreeSet::new();
        for &i in &members {
            if cluster.engine_state(i) != todr_core::EngineState::Down {
                survivors.insert(cluster.servers[i].node.index());
            }
        }
        let events: Vec<RecordedEvent> = cluster
            .world
            .metrics()
            .events()
            .iter()
            .filter(|e| e.group == scope)
            .cloned()
            .collect();
        total += check_trace(&events, &survivors).unwrap_or_else(|v| panic!("{v}"));
    }
    total
}

fn faulted_schedule() -> Vec<Step> {
    vec![
        Step::Split { cut: 2 },
        Step::Crash { server: 0 },
        Step::Merge,
        Step::Recover { server: 0 },
        Step::CrashTorn { server: 3 },
        Step::Quiet,
        Step::Recover { server: 3 },
        Step::Crash { server: 1 },
        Step::Join { via: 2 },
        Step::Quiet,
    ]
}

fn one_client_per_replica(config: ClientConfig) -> impl Fn(&mut Cluster) {
    move |cluster: &mut Cluster| {
        for i in 0..cluster.servers.len() {
            cluster.attach_client(i, config.clone());
        }
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow under debug profile; run with --release"
)]
fn streaming_equals_one_replay_at_one_shard() {
    let config = ClusterConfig::builder(5, 3)
        .checkpoint_interval(64)
        .packing(8)
        .build()
        .unwrap();
    let (mut cluster, stats) = streamed(
        config,
        one_client_per_replica(ClientConfig::default()),
        &faulted_schedule(),
    );
    assert!(stats.green_positions_agreed > 0);
    assert_eq!(stats, one_shot(&mut cluster));
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow under debug profile; run with --release"
)]
fn streaming_equals_one_replay_at_two_shards() {
    let config = ClusterConfig::builder(6, 5).shards(2).build().unwrap();
    let routed = |cluster: &mut Cluster| {
        for _ in 0..6 {
            cluster.attach_routed_client(ClientConfig {
                cross_permille: Some(300),
                ..ClientConfig::default()
            });
        }
    };
    let schedule = [
        Step::Crash { server: 1 },
        Step::Split { cut: 4 },
        Step::Recover { server: 1 },
        Step::Merge,
        Step::CrashTorn { server: 4 },
        Step::Quiet,
    ];
    let (mut cluster, stats) = streamed(config, routed, &schedule);
    assert!(stats.green_positions_agreed > 0);
    assert_eq!(stats, one_shot(&mut cluster));
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow under debug profile; run with --release"
)]
fn streaming_equals_one_replay_on_the_fast_path() {
    let config = ClusterConfig::builder(5, 11)
        .fast_path(true)
        .build()
        .unwrap();
    let client = ClientConfig {
        reply_policy: todr_core::UpdateReplyPolicy::Fast,
        conflict_pct: 30,
        ..ClientConfig::default()
    };
    let (mut cluster, stats) =
        streamed(config, one_client_per_replica(client), &faulted_schedule());
    assert!(stats.fast_commits_checked > 0);
    assert_eq!(stats, one_shot(&mut cluster));
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow under debug profile; run with --release"
)]
fn streaming_equals_one_replay_with_read_leases() {
    let config = ClusterConfig::builder(5, 13)
        .read_leases(true)
        .build()
        .unwrap();
    let clients = |cluster: &mut Cluster| {
        for i in 0..5 {
            let keys = Some(ZipfianKeys::ycsb(64));
            cluster.attach_client(
                i,
                ClientConfig {
                    zipfian: keys.clone(),
                    ..ClientConfig::default()
                },
            );
            cluster.attach_client(
                i,
                ClientConfig {
                    read_pct: 100,
                    read_consistency: Some(todr_core::ReadConsistency::Linearizable),
                    zipfian: keys,
                    ..ClientConfig::default()
                },
            );
        }
    };
    let (mut cluster, stats) = streamed(config, clients, &faulted_schedule());
    assert!(stats.lease_reads_checked > 0 && stats.lease_grants_checked > 0);
    assert_eq!(stats, one_shot(&mut cluster));
}

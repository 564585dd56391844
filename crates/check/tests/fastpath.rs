//! Fast-path safety under adversarial schedules.
//!
//! The commutativity fast path (DESIGN.md §4e) replies to a client
//! after one forced write and one multicast round — before the action
//! is green. These sweeps drive the whole stack with `Fast`-policy
//! clients hammering a shared hot key through partitions, view
//! changes, crashes and torn writes, and require the fast-commit trace
//! oracles (`FastCommitConflict` / `FastCommitNeverGreen` /
//! `FastCommitRevoked`) to stay silent: every promised commit must
//! survive into the global persistent order, never preceded by an
//! unseen conflicting action.
//!
//! The companion mutation self-test (under `chaos-mutations`) breaks
//! the engine's receipt-time conflict check on purpose and requires
//! the same oracles to catch and shrink the violation — proving the
//! sweep is not vacuous.

use todr_check::{explore, run_case, CaseSpec, ExploreConfig, RunOptions, Step};

fn fast_options() -> RunOptions {
    RunOptions {
        fast_path: true,
        // A quarter of every client's updates target one shared row:
        // enough contention that schedules exercise genuine demotions,
        // not just clean fast commits.
        conflict_pct: 25,
        ..RunOptions::default()
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow under debug profile; run with --release"
)]
fn fast_path_survives_partition_schedules() {
    let config = ExploreConfig {
        seed_start: 0,
        seed_count: 10,
        perturbations: 2,
        shrink: true,
        storage_faults: false,
        options: fast_options(),
    };
    let report = explore(&config, |seed, pert, passed| {
        eprintln!(
            "seed {seed} pert {pert}: {}",
            if passed { "ok" } else { "FAIL" }
        );
    })
    .expect("coherent options");
    assert!(
        report.all_passed(),
        "fast path failed a partition schedule: {}",
        report
            .failures
            .iter()
            .map(|ce| format!("[seed {} kind {}] {}", ce.world_seed, ce.kind, ce.message))
            .collect::<Vec<_>>()
            .join("; ")
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow under debug profile; run with --release"
)]
fn fast_path_survives_torn_crash_schedules() {
    // Same sweep with storage faults on: torn log tails and stale
    // sectors at crash time. A fast commit is promised durable after
    // the origin's forced write, so a torn recovery must never unwind
    // one. Run again with white-line GC every 256 and every 512 greens:
    // short schedules then prune behind a joiner, and the exchange
    // adopts a green-state snapshot where a retransmission used to
    // serve (both found a counterexample before base adoptions were
    // logged; see the two replays below).
    for checkpoint_interval in [fast_options().checkpoint_interval, 256, 512] {
        let config = ExploreConfig {
            seed_start: 0,
            seed_count: 10,
            perturbations: 1,
            shrink: true,
            storage_faults: true,
            options: RunOptions {
                checkpoint_interval,
                ..fast_options()
            },
        };
        let report = explore(&config, |seed, pert, passed| {
            eprintln!(
                "interval {checkpoint_interval} seed {seed} pert {pert}: {}",
                if passed { "ok" } else { "FAIL" }
            );
        })
        .expect("coherent options");
        assert!(
            report.all_passed(),
            "fast path failed a torn-crash schedule at interval {checkpoint_interval}: {}",
            report
                .failures
                .iter()
                .map(|ce| format!(
                    "[seed {} kind {} schedule {:?}] {}",
                    ce.world_seed, ce.kind, ce.schedule, ce.message
                ))
                .collect::<Vec<_>>()
                .join("; ")
        );
    }
}

/// Replays one shrunk counterexample of the torn-crash sweep at
/// `checkpoint_interval`.
fn replay_gc_case(checkpoint_interval: u64, schedule: Vec<Step>) {
    let spec = CaseSpec {
        seed: 702_921,
        perturbation: 0,
        schedule,
    };
    let options = RunOptions {
        checkpoint_interval,
        ..fast_options()
    };
    if let Err(failure) = run_case(&spec, &options) {
        panic!("{failure}");
    }
}

/// Regression: node 0 held (0, 74) yellow when the exchange made it
/// adopt a snapshot whose green cut covered it. No event said so, so the
/// trace oracle still saw the action yellow at quiescence; the engine
/// kept its id in the yellow record with the body gone.
///
/// Regression, same case: node 0 had accepted (0, 74) from its own
/// client and still owed the reply when the base greened the action.
/// No green mark would ever take it, so the closed-loop client waited
/// forever, and the run passed because nothing asked. `run_case` now
/// fails a run in which a survivor (node 0 among them) still owes a
/// reply after the drain, so every request node 0 accepted here must
/// have been answered.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow under debug profile; run with --release"
)]
fn a_yellow_subsumed_by_an_adopted_base_is_resolved() {
    replay_gc_case(
        256,
        vec![
            Step::Join { via: 1 },
            Step::Split { cut: 1 },
            Step::Crash { server: 4 },
        ],
    );
}

/// Regression: node 0 held (3, 112) red when a snapshot's cut covered
/// it. The engine dropped it from its in-flight set, but the trace
/// oracle's mirror kept it, and flagged node 0's next fast commit on
/// the same row as a conflict. The same base held (1, 112), which node 0
/// never saw ordered: the oracle then took it for a conflicting action
/// unseen at node 0's receipt of (0, 114), though node 0's database had
/// applied it.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow under debug profile; run with --release"
)]
fn a_red_subsumed_by_an_adopted_base_leaves_the_inflight_set() {
    replay_gc_case(
        512,
        vec![
            Step::Join { via: 1 },
            Step::Quiet,
            Step::Split { cut: 1 },
            Step::Crash { server: 4 },
        ],
    );
}

/// Mutation self-test: `SkipConflictCheck` makes the engine promise
/// fast commits regardless of what is in flight. The receipt-time
/// mirror (`FastCommitConflict`) — and, when a reorder actually lands,
/// `FastCommitRevoked` — must catch it, and ddmin must shrink the
/// finding to a short schedule.
#[cfg(feature = "chaos-mutations")]
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow under debug profile; run with --release"
)]
fn explorer_catches_skipped_conflict_check_and_shrinks_it() {
    use todr_core::ChaosMutation;

    let config = ExploreConfig {
        seed_start: 0,
        seed_count: 8,
        perturbations: 1,
        shrink: true,
        storage_faults: false,
        options: RunOptions {
            chaos: Some(ChaosMutation::SkipConflictCheck),
            ..fast_options()
        },
    };
    let report = explore(&config, |seed, pert, passed| {
        eprintln!(
            "seed {seed} pert {pert}: {}",
            if passed { "ok" } else { "FAIL" }
        );
    })
    .expect("coherent options");
    assert!(
        !report.failures.is_empty(),
        "the conflict-blind engine passed every oracle — the fast-path \
         checking is decorative"
    );
    for ce in &report.failures {
        eprintln!(
            "counterexample: seed {} pert {} kind {} schedule {:?}",
            ce.world_seed, ce.perturbation, ce.kind, ce.schedule
        );
    }
    // The violation needs no nemesis at all — two clients racing the
    // hot key suffice — so ddmin must strip the schedule to (nearly)
    // nothing.
    let min_len = report
        .failures
        .iter()
        .map(|ce| ce.schedule.len())
        .min()
        .expect("non-empty");
    assert!(
        min_len <= 2,
        "no counterexample shrank below 3 steps (min {min_len})"
    );
    let ce = &report.failures[0];
    let replayed = ce
        .replay(&config.options)
        .expect_err("replaying a counterexample must fail again");
    assert_eq!(replayed.kind, ce.kind);
}

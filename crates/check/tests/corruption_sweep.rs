//! Bounded corruption sweep: the fixed engine under storage-fault
//! schedules (torn-write crashes, stale sectors) must pass every oracle
//! — including the durability oracle: no green-ordered action is ever
//! lost across crash, torn tail or a single corrupted sector, and
//! recovered replicas rejoin with a consistent green prefix.
//!
//! The full 200-case sweep is `#[ignore]`d for local runs and executed
//! by the CI `corruption-sweep` job with `--include-ignored`; a smaller
//! release-profile slice runs in the ordinary test suite.

use todr_check::{explore, run_case, CaseSpec, ExploreConfig, RunOptions, Step};

fn sweep(seed_start: u64, seed_count: u64, perturbations: u64) {
    // Auto-checkpointing off: white-line GC would otherwise compact a
    // latent corrupted sector away before any crash surfaces it, and
    // the sweep is here to maximize the window in which faults bite.
    let config = ExploreConfig {
        seed_start,
        seed_count,
        perturbations,
        shrink: true,
        storage_faults: true,
        options: RunOptions {
            checkpoint_interval: 0,
            ..RunOptions::default()
        },
    };
    let report = explore(&config, |seed, pert, passed| {
        if !passed {
            eprintln!("seed {seed} pert {pert}: FAIL");
        }
    })
    .expect("coherent options");
    assert_eq!(
        report.cases_run,
        seed_count * perturbations.max(1),
        "sweep did not cover the advertised case count"
    );
    assert!(
        report.all_passed(),
        "{} corruption case(s) failed: {}",
        report.failures.len(),
        report
            .failures
            .iter()
            .map(|ce| {
                format!(
                    "[seed {} pert {} kind {}] {} (schedule {:?})",
                    ce.world_seed, ce.perturbation, ce.kind, ce.message, ce.schedule
                )
            })
            .collect::<Vec<_>>()
            .join("; ")
    );
}

/// The acceptance-criteria sweep: 100 explorer seeds × 2 perturbations
/// = 200 `(seed, perturbation)` cases over storage-fault schedules.
#[test]
#[ignore = "multi-minute sweep; run in release with --include-ignored (CI corruption-sweep job)"]
fn corruption_sweep_200_cases_finds_no_violations() {
    sweep(0, 100, 2);
}

/// A fast slice of the same sweep for the ordinary release test run.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow under debug profile; run with --release"
)]
fn corruption_sweep_smoke_slice() {
    sweep(0, 8, 2);
}

/// Determinism under injected faults: a schedule mixing a torn-write
/// crash with a stale sector replays to a byte-identical
/// [`todr_check::CasePass`] — including the serialized metrics export —
/// under both tie-break policies. The faults draw from the world's
/// dedicated fault RNG stream, so the tear offsets and sector choices
/// are part of the reproducible state.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow under debug profile; run with --release"
)]
fn fault_schedules_replay_byte_identically_under_both_tie_breaks() {
    let schedule = vec![
        Step::CorruptSector { server: 2 },
        Step::CrashTorn { server: 2 },
        Step::Quiet,
        Step::Recover { server: 2 },
    ];
    let options = RunOptions::default();
    for perturbation in [0u64, 1] {
        let spec = CaseSpec {
            seed: 0xD15C,
            perturbation,
            schedule: schedule.clone(),
        };
        let a = run_case(&spec, &options).unwrap_or_else(|f| {
            panic!("fault schedule failed under perturbation {perturbation}: {f}")
        });
        let b = run_case(&spec, &options).expect("second run of an identical spec");
        assert_eq!(a, b, "replay diverged under perturbation {perturbation}");
        assert_eq!(
            a.metrics_json, b.metrics_json,
            "metrics export diverged under perturbation {perturbation}"
        );
    }
}

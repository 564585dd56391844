//! End-to-end smoke tests for the Explorer: a small sweep over real
//! cluster runs must pass every oracle, and the determinism contract —
//! the same `(seed, perturbation, schedule)` replays byte-identically —
//! is pinned down here.
//!
//! These drive full simulated clusters, so they are ignored under the
//! debug profile (run `cargo test -p todr-check --release` to include
//! them); the cheap unit tests live next to the modules.

use todr_check::{explore, run_case, CaseSpec, ExploreConfig, RunOptions, Step};

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow under debug profile; run with --release"
)]
fn small_sweep_passes_every_oracle() {
    let config = ExploreConfig {
        seed_start: 0,
        seed_count: 3,
        perturbations: 2,
        ..ExploreConfig::default()
    };
    let mut log = Vec::new();
    let report = explore(&config, |seed, pert, passed| log.push((seed, pert, passed)))
        .expect("coherent options");
    assert_eq!(report.cases_run, 6);
    assert!(
        report.all_passed(),
        "unexpected counterexamples: {:?}",
        report
            .failures
            .iter()
            .map(|f| (f.world_seed, f.perturbation, f.kind, f.schedule.clone()))
            .collect::<Vec<_>>()
    );
    // The progress callback saw every case, in sweep order.
    assert_eq!(log.len(), 6);
    assert!(log.iter().all(|&(_, _, passed)| passed));
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow under debug profile; run with --release"
)]
fn identical_specs_replay_byte_identically() {
    let spec = CaseSpec {
        seed: 42,
        perturbation: 1,
        schedule: vec![
            Step::Split { cut: 2 },
            Step::Merge,
            Step::Crash { server: 1 },
            Step::Recover { server: 1 },
        ],
    };
    let options = RunOptions::default();
    let first = run_case(&spec, &options).expect("case passes");
    let second = run_case(&spec, &options).expect("case passes");
    // Full struct equality includes the serialized metrics export:
    // every counter, histogram bucket and recorded protocol event of
    // the two runs matched byte for byte.
    assert_eq!(first, second);
    assert!(first.groups[0].green_count > 0);
    assert!(!first.metrics_json.is_empty());
}

/// The packed wire protocol is subject to the same determinism
/// contract as the historical one: identical `(seed, perturbation,
/// schedule)` with packing on replays byte-identically — under both
/// tie-break policies, since the pack/sequencer-round timers must not
/// introduce nondeterministic event ordering.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow under debug profile; run with --release"
)]
fn packed_runs_replay_byte_identically() {
    let options = RunOptions {
        max_pack: 8,
        ..RunOptions::default()
    };
    for perturbation in [0, 1] {
        let spec = CaseSpec {
            seed: 42,
            perturbation,
            schedule: vec![
                Step::Split { cut: 2 },
                Step::Merge,
                Step::Crash { server: 1 },
                Step::Recover { server: 1 },
            ],
        };
        let first = run_case(&spec, &options).expect("packed case passes");
        let second = run_case(&spec, &options).expect("packed case passes");
        assert_eq!(first, second, "perturbation {perturbation} diverged");
        assert!(first.groups[0].green_count > 0);
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow under debug profile; run with --release"
)]
fn perturbations_explore_distinct_interleavings() {
    // Same seed and schedule under two tie-break policies: both must
    // pass (the freedoms are legal), but the runs genuinely differ —
    // otherwise the perturbation axis explores nothing.
    let schedule = vec![Step::Split { cut: 3 }, Step::Merge];
    let options = RunOptions::default();
    let fifo = run_case(
        &CaseSpec {
            seed: 7,
            perturbation: 0,
            schedule: schedule.clone(),
        },
        &options,
    )
    .expect("FIFO case passes");
    let seeded = run_case(
        &CaseSpec {
            seed: 7,
            perturbation: 1,
            schedule,
        },
        &options,
    )
    .expect("seeded case passes");
    assert_ne!(
        fifo.metrics_json, seeded.metrics_json,
        "perturbation 1 produced the exact FIFO run — tie-break hook inert?"
    );
}

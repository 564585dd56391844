//! Mutation self-test: prove the checking oracles have teeth.
//!
//! The engine is compiled (under the `chaos-mutations` feature only)
//! with a deliberate invariant breakage — `PrematureGreen` marks
//! transitionally-delivered actions green immediately instead of
//! yellow, precisely the unsafe shortcut §3's yellow color exists to
//! prevent. The Explorer must catch it on a small sweep and shrink the
//! counterexample to a handful of steps. If every oracle stayed silent
//! here, the checker would be decorative.
#![cfg(feature = "chaos-mutations")]

use todr_check::{explore, ExploreConfig, RunOptions};
use todr_core::ChaosMutation;

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow under debug profile; run with --release"
)]
fn explorer_catches_premature_green_and_shrinks_it() {
    let config = ExploreConfig {
        seed_start: 0,
        seed_count: 4,
        perturbations: 1,
        shrink: true,
        storage_faults: false,
        options: RunOptions {
            chaos: Some(ChaosMutation::PrematureGreen),
            ..RunOptions::default()
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
        "the mutated engine passed every oracle — the checker is blind"
    );
    for ce in &report.failures {
        eprintln!(
            "counterexample: seed {} pert {} kind {} schedule {:?}",
            ce.world_seed, ce.perturbation, ce.kind, ce.schedule
        );
    }
    // Delta debugging must reduce at least one finding to a short,
    // human-readable schedule.
    let min_len = report
        .failures
        .iter()
        .map(|ce| ce.schedule.len())
        .min()
        .expect("non-empty");
    assert!(
        min_len <= 4,
        "no counterexample shrank below 5 steps (min {min_len})"
    );
    // Counterexamples must be replayable: the artifact alone reproduces
    // the identical failure classification.
    let ce = &report.failures[0];
    let replayed = ce
        .replay(&config.options)
        .expect_err("replaying a counterexample must fail again");
    assert_eq!(replayed.kind, ce.kind);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow under debug profile; run with --release"
)]
fn explorer_catches_skipped_checksum_verify_and_shrinks_it() {
    // The mutated engine trusts the persisted log blindly on recovery:
    // no checksum/epoch scan, and undecodable entries are silently
    // truncated instead of fail-stopping. Under storage-fault schedules
    // a stale sector then replays as a duplicate (or a torn tail as a
    // silent hole) and the recovered replica rejoins with a wrong green
    // prefix — which the durability / recovery oracles must catch.
    //
    // Auto-checkpointing is disabled so the latent corruption is not
    // compacted away by white-line GC before the crash surfaces it —
    // the same knob a real corruption hunt would turn.
    let config = ExploreConfig {
        seed_start: 0,
        seed_count: 12,
        perturbations: 1,
        shrink: true,
        storage_faults: true,
        options: RunOptions {
            chaos: Some(ChaosMutation::SkipChecksumVerify),
            checkpoint_interval: 0,
            ..RunOptions::default()
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
        "the checksum-blind engine passed every oracle — the durability \
         checking is decorative"
    );
    for ce in &report.failures {
        eprintln!(
            "counterexample: seed {} pert {} kind {} schedule {:?}",
            ce.world_seed, ce.perturbation, ce.kind, ce.schedule
        );
    }
    // ddmin must reduce at least one finding to a minimal fault recipe
    // (essentially: corrupt a sector, crash the server, let it recover).
    let min_len = report
        .failures
        .iter()
        .map(|ce| ce.schedule.len())
        .min()
        .expect("non-empty");
    assert!(
        min_len <= 3,
        "no counterexample shrank below 4 steps (min {min_len})"
    );
    let ce = &report.failures[0];
    let replayed = ce
        .replay(&config.options)
        .expect_err("replaying a counterexample must fail again");
    assert_eq!(replayed.kind, ce.kind);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow under debug profile; run with --release"
)]
fn fixed_engine_passes_the_same_storage_fault_sweep() {
    // The exact sweep that catches `SkipChecksumVerify`, minus the
    // mutation: the checksummed recovery path must survive it clean.
    let config = ExploreConfig {
        seed_start: 0,
        seed_count: 12,
        perturbations: 1,
        shrink: true,
        storage_faults: true,
        options: RunOptions {
            chaos: None,
            checkpoint_interval: 0,
            ..RunOptions::default()
        },
    };
    let report = explore(&config, |_, _, _| {}).expect("coherent options");
    assert!(
        report.all_passed(),
        "fixed engine failed the storage-fault sweep: {}",
        report
            .failures
            .iter()
            .map(|ce| format!("[seed {} kind {}] {}", ce.world_seed, ce.kind, ce.message))
            .collect::<Vec<_>>()
            .join("; ")
    );
}

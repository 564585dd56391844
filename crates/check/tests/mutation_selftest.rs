//! Mutation self-test: prove the checking oracles have teeth.
//!
//! The engine is compiled (under the `chaos-mutations` feature only)
//! with a deliberate invariant breakage — `PrematureGreen` marks
//! transitionally-delivered actions green immediately instead of
//! yellow, precisely the unsafe shortcut §3's yellow color exists to
//! prevent. The Explorer must catch it on a small sweep and shrink the
//! counterexample to a handful of steps. If every oracle stayed silent
//! here, the checker would be decorative. The other mutations each aim
//! at one clause: a checksum-blind recovery, a swapped reloaded green
//! order, and an installation that greens newest first.
#![cfg(feature = "chaos-mutations")]

use todr_check::{explore, ExploreConfig, FailureKind, RunOptions};
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

/// Sweeps `options` with shrinking on and returns the counterexamples,
/// printing each.
fn findings(seed_count: u64, options: RunOptions) -> Vec<todr_check::Counterexample> {
    let config = ExploreConfig {
        seed_start: 0,
        seed_count,
        perturbations: 1,
        shrink: true,
        storage_faults: false,
        options,
    };
    let report = explore(&config, |seed, pert, passed| {
        eprintln!(
            "seed {seed} pert {pert}: {}",
            if passed { "ok" } else { "FAIL" }
        );
    })
    .expect("coherent options");
    for ce in &report.failures {
        eprintln!(
            "counterexample: seed {} pert {} kind {} schedule {:?}: {}",
            ce.world_seed, ce.perturbation, ce.kind, ce.schedule, ce.message
        );
        let replayed = ce
            .replay(&config.options)
            .expect_err("replaying a counterexample must fail again");
        assert_eq!(replayed.kind, ce.kind);
    }
    report.failures
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow under debug profile; run with --release"
)]
fn explorer_catches_a_swapped_reloaded_green_order_and_shrinks_it() {
    // A recovery reloads its green order with the last two ids swapped.
    // No event carries reloaded ids, so only the comparison of the
    // reloaded prefix with the other replicas' claims can see it, at
    // the first check after the recovery. Auto-checkpointing is off:
    // the checkpoint at the next installation would otherwise collect
    // the reloaded tail before the check looks at it.
    let failures = findings(
        4,
        RunOptions {
            chaos: Some(ChaosMutation::SwapReloadedGreens),
            checkpoint_interval: 0,
            ..RunOptions::default()
        },
    );
    let caught: Vec<_> = failures
        .iter()
        .filter(|ce| {
            ce.kind == FailureKind::TraceOracle && ce.message.contains("green order conflict")
        })
        .collect();
    assert!(
        !caught.is_empty(),
        "no swapped reloaded green order was caught as a green order conflict"
    );
    let min_len = caught.iter().map(|ce| ce.schedule.len()).min();
    assert!(min_len <= Some(3), "min shrunk schedule {min_len:?}");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow under debug profile; run with --release"
)]
fn explorer_catches_install_newest_first_by_fifo_alone_and_shrinks_it() {
    // Installation greens its pending actions newest first: every member
    // greens the same sequence (Theorem 1 holds), but a creator's older
    // pending action is skipped. Fast-path clients keep several actions
    // per creator pending across a partition; the Theorem 2 clause alone
    // must object.
    let failures = findings(
        8,
        RunOptions {
            chaos: Some(ChaosMutation::InstallNewestFirst),
            fast_path: true,
            ..RunOptions::default()
        },
    );
    assert!(
        failures
            .iter()
            .all(|ce| !ce.message.contains("green order conflict")),
        "Theorem 1 must still hold under InstallNewestFirst"
    );
    let caught: Vec<_> = failures
        .iter()
        .filter(|ce| ce.kind == FailureKind::TraceOracle && ce.message.contains("FIFO violated"))
        .collect();
    assert!(
        !caught.is_empty(),
        "the FIFO clause missed every newest-first installation"
    );
    let min_len = caught.iter().map(|ce| ce.schedule.len()).min();
    assert!(min_len <= Some(3), "min shrunk schedule {min_len:?}");
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

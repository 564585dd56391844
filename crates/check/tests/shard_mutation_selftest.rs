//! Mutation self-test for the cross-shard serializability oracle.
//!
//! The router is compiled (under the `chaos-mutations` feature only)
//! with a deliberate protocol breakage — `SkipCommitBarrier` releases a
//! transaction's commits the instant its timestamp merges, without
//! waiting for it to reach the head of every participant's FIFO commit
//! queue. Concurrent transactions sharing two groups can then commit in
//! opposite relative orders — exactly the pairwise serializability
//! violation the barrier exists to prevent. The Explorer must catch it,
//! shrink the counterexample and package it as a replayable artifact;
//! the fixed router must pass the identical sweep.
#![cfg(feature = "chaos-mutations")]

use todr_check::{
    explore, run_case, CaseSpec, Counterexample, ExploreConfig, FailureKind, RunOptions, Step,
};
use todr_shard::ShardChaos;

fn sweep_config(chaos: Option<ShardChaos>) -> ExploreConfig {
    ExploreConfig {
        seed_start: 0,
        seed_count: 4,
        perturbations: 1,
        options: RunOptions {
            n_servers: 6,
            shards: 2,
            // A dense cross-shard workload: most requests pay the full
            // prepare/merge/commit protocol, so concurrent transactions
            // race on the commit barrier constantly.
            cross_permille: 800,
            shard_chaos: chaos,
            ..RunOptions::default()
        },
        ..ExploreConfig::default()
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow under debug profile; run with --release"
)]
fn explorer_catches_skipped_commit_barrier_and_shrinks_it() {
    let config = sweep_config(Some(ShardChaos::SkipCommitBarrier));
    let report = explore(&config, |seed, pert, passed| {
        eprintln!(
            "seed {seed} pert {pert}: {}",
            if passed { "ok" } else { "FAIL" }
        );
    })
    .expect("coherent options");
    assert!(
        !report.failures.is_empty(),
        "the barrier-skipping router passed every oracle — the cross-shard \
         serializability checking is decorative"
    );
    for ce in &report.failures {
        eprintln!(
            "counterexample: seed {} pert {} kind {} schedule {:?}: {}",
            ce.world_seed, ce.perturbation, ce.kind, ce.schedule, ce.message
        );
    }
    // The violation must be the ordering property itself, caught by the
    // trace oracle — not a crash or a hung router.
    assert!(
        report
            .failures
            .iter()
            .any(|ce| ce.kind == FailureKind::TraceOracle
                && ce.message.contains("opposite orders")),
        "no counterexample was a commit-order conflict"
    );
    // ddmin must reduce at least one finding to a short schedule (the
    // workload alone triggers the race; the schedule mostly just has to
    // exist, so minimal counterexamples are near-empty).
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
fn honest_router_passes_the_same_sweep() {
    let config = sweep_config(None);
    let report = explore(&config, |_, _, _| {}).expect("coherent options");
    assert!(
        report.all_passed(),
        "the honest router failed the sweep that catches SkipCommitBarrier: {}",
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
fn multi_shard_counterexample_round_trips_through_its_artifact() {
    // One of the shrunk findings of the sweep above, run directly.
    let options = sweep_config(Some(ShardChaos::SkipCommitBarrier)).options;
    let spec = CaseSpec {
        seed: 601_262,
        perturbation: 0,
        schedule: vec![Step::Split { cut: 3 }],
    };
    let failure = run_case(&spec, &options).expect_err("the barrier-skipping router fails");
    let ce = Counterexample::new(0, &spec, &options, &failure);
    assert!(!ce.event_tail.is_empty() && ce.metrics.is_some());
    let dir = std::env::temp_dir().join(format!("todr-shard-ce-{}", std::process::id()));
    let path = ce.write_to(&dir).expect("artifact written");
    let text = std::fs::read_to_string(&path).expect("artifact readable");
    std::fs::remove_dir_all(&dir).ok();
    let back = Counterexample::from_json(&text).expect("artifact parses");
    assert_eq!((back.shards, back.n_servers), (2, 6));
    let replayed = back
        .replay(&options)
        .expect_err("replaying a counterexample must fail again");
    assert_eq!(replayed.kind, failure.kind);
    assert_eq!(replayed.kind, FailureKind::TraceOracle);
}

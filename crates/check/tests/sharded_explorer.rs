//! The Explorer over fault schedules against a 2×3 sharded deployment
//! with a dense cross-shard workload — partitions, crashes, online joins
//! and permanent leaves, each landing in the group its flat replica
//! index names — every oracle armed: per-group safety, per-group
//! whole-history trace properties, router drain, and the cross-shard
//! serializability oracle.

use todr_check::{explore, run_case, tie_break_for, CaseSpec, ExploreConfig, RunOptions};
use todr_sim::{SimRng, TieBreak};

/// Two groups of three replicas.
fn sharded_options() -> RunOptions {
    RunOptions {
        n_servers: 6,
        shards: 2,
        ..RunOptions::default()
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow under debug profile; run with --release"
)]
fn sharded_sweep_passes_every_oracle() {
    let config = ExploreConfig {
        seed_start: 0,
        seed_count: 3,
        perturbations: 2,
        options: sharded_options(),
        ..ExploreConfig::default()
    };
    let report = explore(&config, |seed, pert, passed| {
        eprintln!(
            "seed {seed} pert {pert}: {}",
            if passed { "ok" } else { "FAIL" }
        );
    })
    .expect("coherent options");
    assert_eq!(report.cases_run, 6);
    assert!(
        report.all_passed(),
        "sharded sweep failed: {}",
        report
            .failures
            .iter()
            .map(|ce| format!(
                "[seed {} pert {} kind {}] {} (schedule {:?})",
                ce.world_seed, ce.perturbation, ce.kind, ce.message, ce.schedule
            ))
            .collect::<Vec<_>>()
            .join("; ")
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow under debug profile; run with --release"
)]
fn sharded_case_is_deterministic_under_both_tie_breaks() {
    // The determinism contract, sharded: the same (seed, perturbation,
    // schedule) replays to a byte-identical outcome — including the
    // full serialized metrics export — under both the FIFO tie-break
    // and a seeded same-instant perturbation.
    let mut rng = SimRng::new(11);
    let world_seed = rng.gen_range(1_000_000);
    let schedule = todr_check::generate_schedule_with(&mut rng, 6, false);
    let options = sharded_options();
    for perturbation in 0..2u64 {
        assert!(matches!(
            tie_break_for(perturbation),
            TieBreak::Fifo | TieBreak::Seeded(_)
        ));
        let spec = CaseSpec {
            seed: world_seed,
            perturbation,
            schedule: schedule.clone(),
        };
        let first =
            run_case(&spec, &options).unwrap_or_else(|f| panic!("pert {perturbation} failed: {f}"));
        let second = run_case(&spec, &options)
            .unwrap_or_else(|f| panic!("pert {perturbation} replay failed: {f}"));
        assert_eq!(
            first, second,
            "pert {perturbation}: sharded replay diverged (metrics or state)"
        );
        assert!(
            first.cross_txns > 0,
            "workload produced no cross-shard txns"
        );
        assert!(
            first.commit_pairs_checked > 0,
            "the cross-shard oracle compared no commit pairs"
        );
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow under debug profile; run with --release"
)]
fn sharded_sweep_passes_with_the_fast_path_on() {
    // The same sweep with the commutativity fast path enabled in every
    // group: single-shard updates fast-commit through the ShardRouter
    // while cross-shard transactions keep the full prepare/commit
    // path. Both oracle families must hold — the per-group fast-commit
    // clauses and the cross-shard serializability oracle.
    let config = ExploreConfig {
        seed_start: 0,
        seed_count: 3,
        perturbations: 2,
        options: RunOptions {
            fast_path: true,
            ..sharded_options()
        },
        ..ExploreConfig::default()
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
        "sharded fast-path sweep failed: {}",
        report
            .failures
            .iter()
            .map(|ce| format!(
                "[seed {} pert {} kind {}] {} (schedule {:?})",
                ce.world_seed, ce.perturbation, ce.kind, ce.message, ce.schedule
            ))
            .collect::<Vec<_>>()
            .join("; ")
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow under debug profile; run with --release"
)]
fn sharded_fast_path_actually_fast_commits() {
    // A quiet (no-nemesis) case with the fast path on must produce
    // genuine fast commits in the groups — otherwise the sweep above
    // would be vacuous — and still satisfy every oracle, including
    // cross-shard serializability over the mixed workload.
    let options = RunOptions {
        fast_path: true,
        ..sharded_options()
    };
    let spec = CaseSpec {
        seed: 7,
        perturbation: 0,
        schedule: Vec::new(),
    };
    let pass = run_case(&spec, &options).unwrap_or_else(|f| panic!("quiet case failed: {f}"));
    assert!(pass.cross_txns > 0, "workload produced no cross-shard txns");
    // The counter only materializes on its first increment, so its
    // presence in the export proves fast commits happened.
    assert!(
        pass.metrics_json.contains("engine.fast_commits"),
        "no group recorded a single fast commit — the fast path never engaged"
    );
}

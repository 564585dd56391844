//! One fault vocabulary: scripted-only steps run through the same guarded
//! executor as explored schedules, so a scripted fault is a replayable
//! case, and every index the guards cannot place is a no-op.
//!
//! The cases drive full simulated clusters, so they are ignored under the
//! debug profile (run `cargo test -p todr-check --release` to include
//! them); the config-error test builds no world and always runs.

use todr_check::{
    explore, run_case, CaseFailure, CaseSpec, Counterexample, ExploreConfig, FailureKind,
    RunOptions, Step,
};

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow under debug profile; run with --release"
)]
fn scripted_partition_and_removal_are_a_replayable_case() {
    let options = RunOptions::default();
    let spec = CaseSpec {
        seed: 27,
        perturbation: 0,
        schedule: vec![
            Step::Partition {
                groups: vec![vec![0, 1, 2], vec![3], vec![4]],
            },
            Step::Crash { server: 4 },
            Step::Merge,
            Step::RemoveReplica { via: 0, dead: 4 },
            Step::Quiet,
        ],
    };
    let pass = run_case(&spec, &options).unwrap_or_else(|f| panic!("{f}"));
    // The removed replica counts as departed: the heal does not recover it.
    assert_eq!(pass.groups[0].survivors, vec![0, 1, 2, 3]);

    // Packaged the way the explorer packages a finding (the recorded
    // classification plays no part in a replay).
    let filed = CaseFailure {
        kind: FailureKind::Consistency,
        message: "scripted case".into(),
        event_tail: Vec::new(),
        metrics: None,
    };
    let artifact = Counterexample::new(0, &spec, &options, &filed);
    let back = Counterexample::from_json(&artifact.to_json()).expect("artifact parses");
    assert_eq!(back.spec(), spec);
    let replayed = back.replay(&options).unwrap_or_else(|f| panic!("{f}"));
    assert_eq!(replayed, pass);
}

/// A crash under closed-loop load loses its replica's owed reply, and
/// the client waiting on it never issues again: the case passes (no
/// oracle covers it yet) and reports the stall.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow under debug profile; run with --release"
)]
fn a_crash_under_load_reports_the_client_it_left_stalled() {
    let options = RunOptions::default();
    let run = |schedule| {
        let spec = CaseSpec {
            seed: 27,
            perturbation: 0,
            schedule,
        };
        run_case(&spec, &options).unwrap_or_else(|f| panic!("{f}"))
    };
    let crashed = run(vec![
        Step::Crash { server: 1 },
        Step::Recover { server: 1 },
        Step::Quiet,
    ]);
    assert_eq!(crashed.stalled_clients, 1);
    assert_eq!(run(vec![Step::Quiet]).stalled_clients, 0);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow under debug profile; run with --release"
)]
fn out_of_range_indices_are_no_ops() {
    let json = r#"[
        {"Split":{"cut":0}},
        {"Split":{"cut":99}},
        {"Crash":{"server":99}},
        {"Recover":{"server":99}},
        {"Join":{"via":99}},
        {"Leave":{"server":99}},
        {"CrashTorn":{"server":99}},
        {"CorruptSector":{"server":99}},
        {"Partition":{"groups":[[0,1,2],[3,99]]}},
        {"RemoveReplica":{"via":99,"dead":1}},
        {"RemoveReplica":{"via":0,"dead":99}}
    ]"#;
    let schedule: Vec<Step> = serde::json::from_str(json).expect("schedule parses");
    assert_eq!(schedule.len(), 11);
    for (n_servers, shards) in [(5, 1), (6, 2)] {
        let options = RunOptions {
            n_servers,
            shards,
            ..RunOptions::default()
        };
        let spec = CaseSpec {
            seed: 5,
            perturbation: 0,
            schedule: schedule.clone(),
        };
        let quiet = CaseSpec {
            schedule: vec![Step::Quiet; schedule.len()],
            ..spec.clone()
        };
        let ran = run_case(&spec, &options).unwrap_or_else(|f| panic!("{f}"));
        let idle = run_case(&quiet, &options).unwrap_or_else(|f| panic!("{f}"));
        assert_eq!(ran, idle, "{shards} shard(s): a step acted");
    }
}

/// Options the cluster builder refuses are its typed error, found before
/// any world is built — not an engine panic per case, shrunk and filed
/// as a counterexample.
#[test]
fn refused_options_are_a_config_error_not_an_engine_panic() {
    let options = RunOptions {
        n_servers: 6,
        shards: 2,
        read_leases: true,
        ..RunOptions::default()
    };
    let config = ExploreConfig {
        seed_count: 2,
        options: options.clone(),
        ..ExploreConfig::default()
    };
    let mut cases = 0;
    let refused = explore(&config, |_, _, _| cases += 1).expect_err("options are refused");
    assert!(refused.0.contains("read leases"), "{refused}");
    assert_eq!(cases, 0, "no case ran");

    let spec = CaseSpec {
        seed: 1,
        perturbation: 0,
        schedule: vec![Step::Quiet],
    };
    let failure = run_case(&spec, &options).expect_err("options are refused");
    assert_eq!(failure.kind, FailureKind::Config);
    assert_eq!(failure.message, refused.to_string());
}

//! A counterexample artifact is input: a replayed, hand-edited or
//! corrupted one must decode to an artifact or to a typed error, never
//! abort. Mutated renderings of one artifact — byte flips, truncations,
//! duplicated spans, deep nesting, numbers past `u64::MAX` — go through
//! [`Counterexample::from_json`].

#[path = "../../harness/tests/support/json_mutation.rs"]
mod json_mutation;

use todr_check::{Counterexample, FailureKind, Step};
use todr_harness::client::ClientConfig;
use todr_harness::cluster::{Cluster, ClusterConfig};
use todr_sim::{SimDuration, SimRng};

use json_mutation::mutate_json;

/// Cases, each drawn from its own fixed seed; sized to take seconds in a
/// debug build.
const CASES: u64 = 5_000;

/// An artifact shaped like the explorer's: a partition-and-crash
/// schedule, the tail of a real 5-replica log (delivery runs and view
/// changes among it) and that run's metrics.
fn artifact() -> Counterexample {
    let config = ClusterConfig::builder(5, 7)
        .packing(8)
        .build()
        .expect("coherent config");
    let mut cluster = Cluster::build(config);
    cluster.settle();
    for i in 0..5 {
        cluster.attach_client(i, ClientConfig::default());
    }
    cluster.run_for(SimDuration::from_millis(300));
    cluster.partition(&[vec![0, 1, 2], vec![3, 4]]);
    cluster.run_for(SimDuration::from_millis(500));
    cluster.merge_all();
    cluster.run_for(SimDuration::from_millis(500));
    let events = cluster.world.metrics().events();
    Counterexample {
        explorer_seed: 3,
        world_seed: 7,
        perturbation: 1,
        schedule: vec![
            Step::Split { cut: 3 },
            Step::CrashTorn { server: 4 },
            Step::Merge,
            Step::Recover { server: 4 },
        ],
        n_servers: 5,
        shards: 1,
        kind: FailureKind::TraceOracle,
        message: "green position 12 differs at replica 3".into(),
        event_tail: events[events.len().saturating_sub(200)..].to_vec(),
        metrics: Some(cluster.metrics_export()),
    }
}

#[test]
fn mutated_artifacts_decode_or_fail_typed() {
    let json = artifact().to_json();
    assert!(Counterexample::from_json(&json).is_ok());
    let (mut decoded, mut rejected) = (0, 0);
    for case in 0..CASES {
        let mut rng = SimRng::new(case);
        let mut bytes = json.clone().into_bytes();
        for _ in 0..1 + rng.gen_range(3) {
            mutate_json(&mut rng, &mut bytes);
        }
        match Counterexample::from_json(&String::from_utf8_lossy(&bytes)) {
            Ok(_) => decoded += 1,
            Err(_) => rejected += 1,
        }
    }
    println!("{decoded} artifacts decoded, {rejected} ended in a typed error");
    assert!(
        decoded > 0 && rejected > 0,
        "the cases never reach one side"
    );
}

//! Randomized "nemesis" testing: seeded, deterministic random schedules
//! of partitions, merges, crashes and recoveries are thrown at a loaded
//! cluster, and the paper's safety theorems must hold at every
//! observation point; after the schedule heals, liveness (Theorem 3)
//! must bring every replica to the same green sequence and database
//! state.

use todr::check::Step;
use todr::harness::client::ClientConfig;
use todr::harness::cluster::{Cluster, ClusterConfig};
use todr::harness::fault::Faults;
use todr::sim::SimDuration;

const N: usize = 5;

/// Draws 1–7 steps: two-way splits, a three-way split, merges, crashes,
/// recoveries and quiet periods, equally likely.
fn gen_schedule(rng: &mut todr::sim::SimRng) -> Vec<Step> {
    let len = (1 + rng.gen_range(7)) as usize;
    (0..len)
        .map(|_| match rng.gen_range(6) {
            0 => Step::Split {
                cut: (1 + rng.gen_range(N as u64 - 1)) as usize,
            },
            1 => three_way(),
            2 => Step::Merge,
            3 => Step::Crash {
                server: rng.gen_range(N as u64) as usize,
            },
            4 => Step::Recover {
                server: rng.gen_range(N as u64) as usize,
            },
            _ => Step::Quiet,
        })
        .collect()
}

fn three_way() -> Step {
    Step::Partition {
        groups: vec![vec![0, 1], vec![2, 3], vec![4]],
    }
}

fn apply_schedule(seed: u64, schedule: &[Step]) {
    let mut cluster = Cluster::build(ClusterConfig::new(N as u32, seed));
    cluster.settle();
    for i in 0..N {
        cluster.attach_client(i, ClientConfig::default());
    }
    cluster.run_for(SimDuration::from_millis(500));

    // Safety must hold at *every* observation point, regardless of the
    // connectivity state.
    let hold = SimDuration::from_millis(400);
    let mut faults = Faults::new(N, 1);
    let timeline = schedule.iter().map(|step| (step.clone(), hold));
    if let Err(v) = faults.run(&mut cluster, timeline) {
        panic!("{v} (schedule {schedule:?})");
    }

    // Heal everything and let the system converge (Theorem 3).
    faults.heal(&mut cluster);
    cluster.run_for(SimDuration::from_secs(5));
    // Quiesce the workload so the convergence assertions are not racing
    // in-flight commits.
    cluster.stop_clients();
    cluster.run_for(SimDuration::from_secs(3));
    cluster.check_consistency();

    // Liveness: a stable, fully connected component must order
    // everything everywhere.
    let g0 = cluster.green_count(0);
    for i in 1..N {
        assert_eq!(
            cluster.green_count(i),
            g0,
            "server {i} did not converge after the heal (schedule {schedule:?})"
        );
        assert_eq!(
            cluster.db_digest(i),
            cluster.db_digest(0),
            "server {i} database diverged after the heal"
        );
    }
    for i in 0..N {
        assert!(
            cluster.with_engine(i, |e| e.red_ids().is_empty()),
            "server {i} still holds red actions after the heal"
        );
    }
}

#[test]
fn safety_and_liveness_under_random_nemesis() {
    let mut rng = todr::sim::SimRng::new(0x4e4e);
    for case in 0..20 {
        let seed = rng.gen_range(1_000_000);
        let schedule = gen_schedule(&mut rng);
        eprintln!("case {case}: seed={seed} schedule={schedule:?}");
        apply_schedule(seed, &schedule);
    }
}

/// Regression cases distilled from by-hand analysis: each one pins a
/// scenario that stresses a specific transition of Figure 4.
#[test]
fn nemesis_regression_partition_during_recovery() {
    apply_schedule(
        99,
        &[
            Step::Crash { server: 0 },
            Step::Split { cut: 2 },
            Step::Recover { server: 0 },
            Step::Merge,
        ],
    );
}

#[test]
fn nemesis_regression_crash_majority() {
    apply_schedule(
        100,
        &[
            Step::Crash { server: 0 },
            Step::Crash { server: 1 },
            Step::Crash { server: 2 },
            Step::Quiet,
            Step::Recover { server: 0 },
            Step::Recover { server: 1 },
            Step::Recover { server: 2 },
        ],
    );
}

#[test]
fn nemesis_regression_rapid_flapping() {
    apply_schedule(
        101,
        &[
            Step::Split { cut: 2 },
            Step::Merge,
            Step::Split { cut: 3 },
            Step::Merge,
            three_way(),
            Step::Merge,
        ],
    );
}

//! Read-lease safety under adversarial schedules.
//!
//! Primary read leases (DESIGN.md §4f) answer linearizable reads
//! locally, without a forced write or a multicast round. These sweeps
//! run every replica with a read-only linearizable client and a writer
//! over a shared Zipfian key space, drive the cluster through
//! partitions, view changes, crashes and torn writes, and require the
//! read-lease trace oracles to stay silent: no lease-served read may
//! miss a previously acknowledged write (`StaleLinearizableRead`), and
//! no two leases sealed to different configurations may ever be live at
//! once (`LeaseOverlap`).
//!
//! The companion mutation self-test (under `chaos-mutations`) makes the
//! engine answer linearizable reads without holding a lease at all and
//! requires the same oracles to catch and shrink the violation —
//! proving the sweep is not vacuous.

use todr_check::{explore, ExploreConfig, RunOptions};

fn lease_options() -> RunOptions {
    RunOptions {
        read_leases: true,
        ..RunOptions::default()
    }
}

fn render_failures(report: &todr_check::ExploreReport) -> String {
    report
        .failures
        .iter()
        .map(|ce| format!("[seed {} kind {}] {}", ce.world_seed, ce.kind, ce.message))
        .collect::<Vec<_>>()
        .join("; ")
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow under debug profile; run with --release"
)]
fn read_leases_survive_partition_schedules() {
    let config = ExploreConfig {
        seed_start: 0,
        seed_count: 10,
        perturbations: 2,
        shrink: true,
        storage_faults: false,
        options: lease_options(),
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
        "read leases failed a partition schedule: {}",
        render_failures(&report)
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow under debug profile; run with --release"
)]
fn read_leases_survive_torn_crash_schedules() {
    // Same sweep with storage faults on: torn log tails and stale
    // sectors at crash time. A lease is volatile state — it must die
    // with the incarnation and with every view change, however the
    // crash mangled the disk, so the expiry races here are the
    // sharpest the schedule vocabulary can produce.
    let config = ExploreConfig {
        seed_start: 0,
        seed_count: 10,
        perturbations: 1,
        shrink: true,
        storage_faults: true,
        options: lease_options(),
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
        "read leases failed a torn-crash schedule: {}",
        render_failures(&report)
    );
}

/// Mutation self-test: `ServeReadWithoutLease` makes the engine answer
/// linearizable reads from its local green prefix in *any* live state —
/// no lease, no epoch seal, no expiry. A partitioned minority replica
/// then serves reads from a frozen prefix while the majority keeps
/// acknowledging writes, which `StaleLinearizableRead` must catch, and
/// ddmin must shrink the finding to a short schedule.
#[cfg(feature = "chaos-mutations")]
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow under debug profile; run with --release"
)]
fn explorer_catches_unleased_reads_and_shrinks_them() {
    use todr_core::ChaosMutation;

    let config = ExploreConfig {
        seed_start: 0,
        seed_count: 8,
        perturbations: 1,
        shrink: true,
        storage_faults: false,
        options: RunOptions {
            chaos: Some(ChaosMutation::ServeReadWithoutLease),
            ..lease_options()
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
        "the lease-blind engine passed every oracle — the read checking \
         is decorative"
    );
    for ce in &report.failures {
        eprintln!(
            "counterexample: seed {} pert {} kind {} schedule {:?}: {}",
            ce.world_seed, ce.perturbation, ce.kind, ce.schedule, ce.message
        );
    }
    assert!(
        report
            .failures
            .iter()
            .any(|ce| ce.message.contains("stale linearizable read")),
        "no finding was a stale linearizable read"
    );
    // Isolating one replica while the rest keep committing is all it
    // takes, so ddmin must strip the schedule to a couple of steps.
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

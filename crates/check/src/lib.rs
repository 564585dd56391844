//! # todr-check — deterministic schedule exploration, trace checking and
//! counterexample shrinking
//!
//! The checking subsystem of the `todr` stack. Three cooperating parts:
//!
//! * **[`explorer`]** — sweeps `(seed, perturbation)` pairs: each seed
//!   draws one randomized fault schedule (splits, merges, crashes,
//!   recoveries, online joins, permanent leaves), and each perturbation
//!   index selects a distinct same-instant event interleaving via the
//!   simulator's [`TieBreak`](todr_sim::TieBreak) hook — index 0 is the
//!   historical FIFO order, every other index a seeded permutation that
//!   only exercises *legal* asynchronous-system freedoms (per-target
//!   FIFO delivery is preserved). A schedule is a list of [`Step`]s, the
//!   one fault vocabulary: it lives in [`todr_harness::fault`], and the
//!   [`runner`] applies it through the same guarded executor that
//!   scripted timelines use, so a scripted fault is a replayable case.
//! * **the trace oracle** — [`todr_harness::oracle`], re-exported here
//!   as [`check_trace`], [`TraceStats`] and [`TraceViolation`]. It
//!   checks the paper's service properties over the *whole history* of
//!   the typed [`ProtocolEvent`](todr_sim::ProtocolEvent) log:
//!   agreed-order prefix agreement at every green position (Theorem 1),
//!   per-creator green FIFO (Theorem 2), color monotonicity (§3),
//!   strictly-growing green lines, crash/recovery sanity, safe-delivery
//!   ⇒ eventual-green at survivors (§4.3) and EVS agreed-order delivery
//!   agreement. The [`runner`] does not replay a log: the cluster
//!   streams each group's events through its own oracle at every
//!   consistency check after a hold
//!   ([`Cluster::try_check_consistency`](todr_harness::cluster::Cluster::try_check_consistency)),
//!   which adds the two checks only a state snapshot can make (equal
//!   digests at equal green counts, one primary index), and runs the
//!   end-of-run clauses once after the heal
//!   ([`Cluster::try_check_history`](todr_harness::cluster::Cluster::try_check_history)).
//! * **[`shrink`]** — delta-debugs ([`ddmin`]) a failing
//!   schedule to a 1-minimal counterexample, which [`artifact`] packages
//!   as replayable JSON (seed + schedule + event tail + metrics).
//!
//! All three serve every shard count: a case runs `S ≥ 1` replication
//! groups ([`RunOptions::shards`]), each group's slice of the event log
//! streams through its own trace oracle, and with several
//! groups the cross-shard serializability oracle of the [`sharded`]
//! module ([`check_shard_trace`]) checks atomicity, prepare/commit
//! phasing, deterministic timestamp merge and pairwise commit-order
//! consistency of the router's transaction protocol.
//!
//! Everything is deterministic end to end: the same
//! `(seed, perturbation, schedule)` replays to byte-identical replica
//! digests and metrics exports, so a counterexample found in CI
//! reproduces exactly on a laptop.
//!
//! ```
//! use todr_check::{explore, ExploreConfig};
//!
//! let report = explore(
//!     &ExploreConfig {
//!         seed_start: 0,
//!         seed_count: 1,
//!         perturbations: 1,
//!         ..ExploreConfig::default()
//!     },
//!     |_, _, _| {},
//! )?; // options the cluster builder refuses fail here, before any run
//! assert_eq!(report.cases_run, 1);
//! assert!(report.all_passed());
//! # Ok::<(), todr_harness::cluster::InvalidClusterConfig>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod explorer;
pub mod runner;
pub mod schedule;
pub mod sharded;
pub mod shrink;

pub use artifact::Counterexample;
pub use explorer::{explore, ExploreConfig, ExploreReport};
pub use runner::{
    run_case, tie_break_for, CaseFailure, CasePass, CaseSpec, FailureKind, GroupPass, RunOptions,
};
pub use schedule::{generate_schedule, generate_schedule_with};
pub use sharded::{check_shard_trace, ShardTraceStats, ShardTraceViolation};
pub use shrink::{ddmin, shrink_case};
pub use todr_harness::fault::Step;
pub use todr_harness::oracle::{check_trace, TraceStats, TraceViolation};

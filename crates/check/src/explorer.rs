//! The Explorer: a deterministic sweep over `(seed, perturbation)`
//! pairs.
//!
//! For every explorer seed, one fault schedule is drawn (exactly the
//! original nemesis distribution) and run under each requested
//! tie-break perturbation — index 0 is the historical FIFO interleaving,
//! higher indices are distinct seeded same-instant orderings. Every
//! failing case is shrunk to a 1-minimal schedule and packaged as a
//! replayable [`Counterexample`]. The whole sweep is a pure function of
//! its [`ExploreConfig`].

use todr_harness::cluster::InvalidClusterConfig;
use todr_sim::SimRng;

use crate::artifact::Counterexample;
use crate::runner::{run_case, CaseSpec, RunOptions};
use crate::schedule::generate_schedule_with;
use crate::shrink::shrink_case;

/// Parameters of one exploration sweep.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// First explorer seed (each derives one world seed + schedule).
    pub seed_start: u64,
    /// Number of consecutive explorer seeds to sweep.
    pub seed_count: u64,
    /// Perturbation indices `0..perturbations` to run each schedule
    /// under (clamped to at least 1, i.e. the FIFO baseline).
    pub perturbations: u64,
    /// Whether to delta-debug failing schedules to 1-minimal form.
    pub shrink: bool,
    /// Whether schedules draw from the widened step die that includes
    /// torn-write crashes and stale-sector corruption
    /// ([`crate::schedule::generate_schedule_with`]). `false` keeps the
    /// historical nemesis distribution bit-for-bit.
    pub storage_faults: bool,
    /// Per-case runner knobs (replica and shard counts, injected chaos).
    pub options: RunOptions,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            seed_start: 0,
            seed_count: 4,
            perturbations: 2,
            shrink: true,
            storage_faults: false,
            options: RunOptions::default(),
        }
    }
}

/// The outcome of an exploration sweep.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Total `(seed, perturbation)` cases run.
    pub cases_run: u64,
    /// Cases that passed every oracle.
    pub passed: u64,
    /// Clients the passing cases' crashes left stalled, summed
    /// ([`crate::CasePass::stalled_clients`]).
    pub stalled_clients: u64,
    /// One (shrunk) replayable artifact per failing case.
    pub failures: Vec<Counterexample>,
}

impl ExploreReport {
    /// True when every case passed.
    pub fn all_passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Runs the sweep. Deterministic: identical configs produce identical
/// reports, including the order and content of `failures`.
///
/// `progress` is called once per finished case with
/// `(explorer_seed, perturbation, passed)` — the example binary uses it
/// for console output; pass `|_, _, _| {}` to ignore.
///
/// Options the cluster builder refuses are returned as its error before
/// any case runs: a config error is not a counterexample.
pub fn explore(
    config: &ExploreConfig,
    mut progress: impl FnMut(u64, u64, bool),
) -> Result<ExploreReport, InvalidClusterConfig> {
    // Coherence never depends on the seed or the perturbation.
    config.options.cluster_builder(0, 0).build()?;
    let mut cases_run = 0u64;
    let (mut passed, mut stalled_clients) = (0u64, 0u64);
    let mut failures = Vec::new();
    for explorer_seed in config.seed_start..config.seed_start.saturating_add(config.seed_count) {
        // One schedule per explorer seed, drawn exactly like the
        // original nemesis meta-loop: world seed first, then the steps.
        let mut rng = SimRng::new(explorer_seed);
        let world_seed = rng.gen_range(1_000_000);
        let schedule =
            generate_schedule_with(&mut rng, config.options.n_servers, config.storage_faults);
        for perturbation in 0..config.perturbations.max(1) {
            let spec = CaseSpec {
                seed: world_seed,
                perturbation,
                schedule: schedule.clone(),
            };
            cases_run += 1;
            match run_case(&spec, &config.options) {
                Ok(pass) => {
                    passed += 1;
                    stalled_clients += pass.stalled_clients;
                    progress(explorer_seed, perturbation, true);
                }
                Err(failure) => {
                    progress(explorer_seed, perturbation, false);
                    let (min_spec, min_failure) = if config.shrink {
                        let shrunk = shrink_case(&spec, &config.options);
                        // Re-run the minimized spec to record *its*
                        // failure (shrinking may legitimately surface a
                        // more fundamental kind).
                        match run_case(&shrunk, &config.options) {
                            Err(f) => (shrunk, f),
                            // Unreachable for a deterministic runner,
                            // but never discard a real finding over it.
                            Ok(_) => (spec.clone(), failure),
                        }
                    } else {
                        (spec.clone(), failure)
                    };
                    failures.push(Counterexample::new(
                        explorer_seed,
                        &min_spec,
                        &config.options,
                        &min_failure,
                    ));
                }
            }
        }
    }
    Ok(ExploreReport {
        cases_run,
        passed,
        stalled_clients,
        failures,
    })
}

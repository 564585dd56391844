//! Replayable counterexample artifacts.
//!
//! When the Explorer finds (and shrinks) a failing case, everything
//! needed to reproduce it — world seed, perturbation index, minimized
//! schedule, the failure classification, the trailing protocol events
//! and the metrics snapshot — is captured in one [`Counterexample`] and
//! written as deterministic JSON, typically under `results/`. A later
//! session (or a CI artifact download) feeds the file back through
//! [`Counterexample::replay`] and gets the identical run.

use std::io;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};
use todr_sim::{MetricsExport, RecordedEvent};

use crate::runner::{run_case, CaseFailure, CasePass, CaseSpec, FailureKind, RunOptions};
use crate::Step;

/// A self-contained, replayable record of one failing case.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Counterexample {
    /// The explorer-level seed the case was derived from (0 when the
    /// case was constructed directly rather than swept).
    pub explorer_seed: u64,
    /// The world seed.
    pub world_seed: u64,
    /// The tie-break perturbation index.
    pub perturbation: u64,
    /// The (possibly shrunk) fault schedule.
    pub schedule: Vec<Step>,
    /// How many servers the case ran with, in total.
    pub n_servers: usize,
    /// How many replication groups they were placed across.
    pub shards: u32,
    /// The failure classification.
    pub kind: FailureKind,
    /// Human-readable description of the violation.
    pub message: String,
    /// The most recent typed protocol events at failure time.
    pub event_tail: Vec<RecordedEvent>,
    /// The metrics snapshot at failure time, if the world survived.
    pub metrics: Option<MetricsExport>,
}

impl Counterexample {
    /// Packages a failing case.
    pub fn new(
        explorer_seed: u64,
        spec: &CaseSpec,
        options: &RunOptions,
        failure: &CaseFailure,
    ) -> Self {
        Counterexample {
            explorer_seed,
            world_seed: spec.seed,
            perturbation: spec.perturbation,
            schedule: spec.schedule.clone(),
            n_servers: options.n_servers,
            shards: options.shards,
            kind: failure.kind,
            message: failure.message.clone(),
            event_tail: failure.event_tail.clone(),
            metrics: failure.metrics.clone(),
        }
    }

    /// The case spec this artifact reproduces.
    pub fn spec(&self) -> CaseSpec {
        CaseSpec {
            seed: self.world_seed,
            perturbation: self.perturbation,
            schedule: self.schedule.clone(),
        }
    }

    /// Re-runs the case. A genuine counterexample returns `Err` with the
    /// same failure it was recorded with (byte-identical determinism is
    /// pinned down by `tests/explorer_smoke.rs`).
    pub fn replay(&self, options: &RunOptions) -> Result<CasePass, Box<CaseFailure>> {
        run_case(&self.spec(), options)
    }

    /// Pretty deterministic JSON.
    pub fn to_json(&self) -> String {
        serde::json::to_string_pretty(self).expect("counterexample is always serializable")
    }

    /// Parses an artifact back from JSON.
    pub fn from_json(text: &str) -> Result<Self, serde::Error> {
        serde::json::from_str(text)
    }

    /// Deterministic file name for this artifact (multi-shard cases say
    /// so, so sweeps over the same seeds can share a directory).
    pub fn file_name(&self) -> String {
        let shards = match self.shards {
            1 => String::new(),
            s => format!("-s{s}"),
        };
        format!(
            "ce-seed{}-p{}{shards}-{}.json",
            self.world_seed, self.perturbation, self.kind
        )
    }

    /// Writes the artifact under `dir` (created if missing), returning
    /// the full path.
    pub fn write_to(&self, dir: &Path) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(self.file_name());
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use todr_sim::{DeliveredRun, ProtocolEvent};

    fn sample() -> Counterexample {
        Counterexample {
            explorer_seed: 3,
            world_seed: 1234,
            perturbation: 2,
            schedule: vec![Step::Split { cut: 2 }, Step::Merge],
            n_servers: 5,
            shards: 1,
            kind: FailureKind::Consistency,
            message: "total order violated at green position 7".into(),
            event_tail: vec![
                RecordedEvent {
                    at_nanos: 42,
                    actor: 9,
                    group: 0,
                    event: ProtocolEvent::GreenLineAdvance { node: 1, green: 8 },
                },
                RecordedEvent {
                    at_nanos: 43,
                    actor: 10,
                    group: 0,
                    event: ProtocolEvent::DeliveredRun(DeliveredRun::new(
                        1,
                        4,
                        0,
                        17,
                        false,
                        &[2, 0, 2],
                    )),
                },
            ],
            metrics: None,
        }
    }

    #[test]
    fn artifact_round_trips_through_json() {
        let ce = sample();
        let back = Counterexample::from_json(&ce.to_json()).unwrap();
        assert_eq!(back.world_seed, ce.world_seed);
        assert_eq!(back.perturbation, ce.perturbation);
        assert_eq!(back.schedule, ce.schedule);
        assert_eq!(back.kind, ce.kind);
        assert_eq!(back.event_tail, ce.event_tail);
        assert_eq!(back.spec(), ce.spec());
    }

    #[test]
    fn file_name_is_deterministic_and_descriptive() {
        let ce = sample();
        assert_eq!(ce.file_name(), "ce-seed1234-p2-consistency.json");
        let sharded = Counterexample { shards: 2, ..ce };
        assert_eq!(sharded.file_name(), "ce-seed1234-p2-s2-consistency.json");
    }

    #[test]
    fn writes_and_reads_back_from_disk() {
        let dir = std::env::temp_dir().join("todr-check-artifact-test");
        let ce = sample();
        let path = ce.write_to(&dir).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let back = Counterexample::from_json(&text).unwrap();
        assert_eq!(back.schedule, ce.schedule);
        std::fs::remove_file(path).ok();
    }
}

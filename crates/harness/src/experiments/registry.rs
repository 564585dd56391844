//! The experiment registry: every driver's preset run, by the name the
//! `bench` example takes, and the typed [`Gate`] a sweep is checked
//! against: its absolute bounds always, and on a quick run the bounds
//! relative to the committed `results/BENCH_<name>_quick.json`.

use serde::{Deserialize, Serialize};
use todr_sim::SimDuration;

use super::{
    ablations, fastpath, fig5a, fig5b, join, latency, partition, reads, recovery, saturation,
    scale, semantics, shard,
};
use crate::cluster::BackendKind;

/// One registered experiment preset.
pub struct Entry {
    /// The name `bench` selects it by.
    pub name: &'static str,
    run: Run,
}

enum Run {
    /// One size, a text report.
    Table(fn() -> String),
    /// The A8 recovery experiment on one backend: a report or its JSON.
    Recovery(BackendKind),
    /// A gated sweep at its full or (`true`) quick size.
    Sweep(fn(bool) -> Outcome),
}

impl Entry {
    const fn table(name: &'static str, text: fn() -> String) -> Entry {
        Entry {
            name,
            run: Run::Table(text),
        }
    }

    const fn sweep(name: &'static str, run: fn(bool) -> Outcome) -> Entry {
        Entry {
            name,
            run: Run::Sweep(run),
        }
    }

    /// Whether it has a reduced `--quick` size (the gated sweeps do).
    pub fn has_quick(&self) -> bool {
        matches!(self.run, Run::Sweep(_))
    }

    /// Whether it has a JSON form (all but the one-size tables do).
    pub fn has_json(&self) -> bool {
        !matches!(self.run, Run::Table(_))
    }

    /// Runs the preset; `quick` picks a sweep's reduced size.
    pub fn run(&self, quick: bool) -> Outcome {
        match self.run {
            Run::Table(text) => Outcome {
                text: text(),
                json: None,
                gate: None,
            },
            Run::Recovery(backend) => {
                let r = recovery::run_with_backend(5, 2, 42, backend);
                let gate = r.disk.map(|d| {
                    let (fsyncs, mean_us) = (d.fsyncs, d.mean_fsync_micros);
                    let per_write = d.fsyncs_per_forced_write();
                    let (charge_ms, torn) = (r.simulated_sync_latency_ms, r.torn_tail_truncated);
                    d.gate(format!(
                        "file-backed recovery: {fsyncs} fsyncs, {per_write:.3} per forced write \
                         outside checkpoints, mean {mean_us:.0} µs (virtual charge \
                         {charge_ms:.0} ms), torn tail truncated: {torn}"
                    ))
                });
                Outcome {
                    text: r.to_table(),
                    json: Some(r.to_json()),
                    gate,
                }
            }
            Run::Sweep(run) => run(quick),
        }
    }
}

/// What one run of an [`Entry`] produced.
pub struct Outcome {
    /// The human-readable report.
    pub text: String,
    /// The machine-readable form, if the entry has one.
    pub json: Option<String>,
    /// The verdict to report after the output, if the entry has one.
    pub gate: Option<Gate>,
}

/// A result checked against its bounds.
#[derive(Debug)]
pub struct Gate {
    /// The violated bounds, each worded as its failure.
    pub failures: Vec<String>,
    headline: String,
}

impl Gate {
    /// A gate with no bound checked yet; `headline` carries the figures
    /// its summary shows.
    pub(crate) fn new(headline: String) -> Gate {
        Gate {
            failures: Vec::new(),
            headline,
        }
    }

    /// Checks one bound: records `failure` unless `ok`.
    pub(crate) fn check(&mut self, ok: bool, failure: String) {
        if !ok {
            self.failures.push(failure);
        }
    }

    /// The baseline floor of every quick gate: `metric` more than 10 %
    /// below its committed `base` fails.
    pub(crate) fn floor(&mut self, metric: &str, now: f64, base: f64) {
        let floor = 0.9 * base;
        self.check(
            now >= floor,
            format!("{metric} regressed >10%: {now:?} < {floor:.1}"),
        );
    }

    /// Whether every bound held.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// The one-line verdict CI appends to the job's step summary.
    pub fn summary(&self) -> String {
        let mark = if self.passed() { "✅" } else { "❌" };
        format!("{mark} {}", self.headline)
    }
}

/// Reads a committed result file under the workspace's `results/`.
pub fn load<T: Deserialize>(file: &str) -> Result<T, String> {
    let path = format!("{}/../../results/{file}", env!("CARGO_MANIFEST_DIR"));
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read results/{file}: {e}"))?;
    serde::json::from_str(&text).map_err(|e| format!("cannot parse results/{file}: {e}"))
}

/// Looks an entry up by name.
pub fn find(name: &str) -> Option<&'static Entry> {
    REGISTRY.iter().find(|e| e.name == name)
}

const FIG5_CLIENTS: [usize; 8] = [1, 2, 4, 6, 8, 10, 12, 14];

fn secs(s: u64) -> SimDuration {
    SimDuration::from_secs(s)
}

/// A sweep's result: its table, and its typed gate.
pub trait Gated: Serialize + Deserialize {
    /// The sweep as aligned text tables.
    fn to_table(&self) -> String;

    /// Checks the absolute bounds and, against the committed quick
    /// `baseline`, the bounds relative to it. A cell a bound needs but
    /// the sweep lacks reads as NaN, which fails that bound.
    fn gate(&self, baseline: Option<&Self>) -> Gate;
}

/// A sweep's outcome: a quick run is gated against the committed
/// `results/BENCH_<name>_quick.json`, a full run on its absolute bounds.
fn gated<T: Gated>(name: &str, quick: bool, sweep: T) -> Outcome {
    let gate = match quick.then(|| load::<T>(&format!("BENCH_{name}_quick.json"))) {
        None => sweep.gate(None),
        Some(Ok(base)) => sweep.gate(Some(&base)),
        Some(Err(e)) => Gate {
            failures: vec![e],
            headline: format!("{name} gate: no baseline"),
        },
    };
    Outcome {
        text: sweep.to_table(),
        json: Some(serde::json::to_string_pretty(&sweep).expect("sweep results serialize")),
        gate: Some(gate),
    }
}

/// Every preset, in the order of the paper's evaluation and then the
/// extensions (the driver table in [`super`]).
pub const REGISTRY: &[Entry] = &[
    Entry::table("fig5a", || {
        let fig = fig5a::run(14, &FIG5_CLIENTS, secs(3), 42);
        format!(
            "{}\npaper §7: the engine sustains increasingly more throughput; COReL and\n\
             2PC pay for extra communication and disk writes; the extra disk write\n\
             separates 2PC from COReL.",
            fig.to_table()
        )
    }),
    Entry::table("fig5b", || {
        let fig = fig5b::run_packed(14, &FIG5_CLIENTS, secs(3), 42, 8);
        format!(
            "{}\npaper §7: with delayed writes the engine tops out near 2500\n\
             actions/second — the per-action processing cost becomes the ceiling\n\
             once the disk leaves the critical path. EVS message packing\n\
             amortizes the fixed per-burst overhead across packed deliveries\n\
             and moves that ceiling up.",
            fig.to_table()
        )
    }),
    Entry::table("latency", || latency::run(14, 2000, 42).to_table()),
    Entry::table("partition", || partition::run(14, 42).to_table()),
    Entry::table("join", || join::run(14, 3, 42).to_table()),
    Entry::table("semantics", || semantics::run(14, 42).to_table()),
    Entry::table("ablations", || {
        let loss = ablations::loss_sweep(8, 8, &[0.0, 0.01, 0.05, 0.10, 0.20], secs(2), 42);
        let wan = ablations::wan_latency(8, 200, 42);
        let fsync = ablations::fsync_sweep(8, 8, &[1, 5, 10, 20, 40], secs(2), 42);
        format!(
            "{}\n{}\n{}",
            ablations::loss_sweep_table(&loss, 8, 8),
            ablations::wan_latency_table(&wan, 8),
            ablations::fsync_sweep_table(&fsync, 8, 8)
        )
    }),
    Entry::sweep("saturation", |quick| {
        let s = if quick {
            saturation::run(5, &[2, 6, 10], &[1, 8], secs(2), 42)
        } else {
            saturation::run(14, &FIG5_CLIENTS, &[1, 2, 4, 8], secs(3), 42)
        };
        gated("saturation", quick, s)
    }),
    Entry {
        name: "recovery",
        run: Run::Recovery(BackendKind::Sim),
    },
    Entry {
        name: "recovery-file",
        run: Run::Recovery(BackendKind::File),
    },
    Entry::sweep("scale", |quick| {
        let s = if quick {
            scale::run(&[7, 14, 28], secs(1), 42)
        } else {
            scale::run(&[7, 14, 28, 56], secs(2), 42)
        };
        gated("scale", quick, s)
    }),
    Entry::sweep("shard", |quick| {
        let s = if quick {
            shard::run(&[1, 2], secs(1), 42)
        } else {
            shard::run(&[1, 2, 4], secs(2), 42)
        };
        gated("shard", quick, s)
    }),
    Entry::sweep("fastpath", |quick| {
        let s = if quick {
            fastpath::run(&[1, 10], &[0, 25], secs(1), 42)
        } else {
            fastpath::run(&[1, 4, 10], &[0, 10, 25, 50], secs(2), 42)
        };
        gated("fastpath", quick, s)
    }),
    Entry::sweep("reads", |quick| {
        let s = if quick {
            reads::run(&[95], 10, secs(1), 42)
        } else {
            reads::run(&[95, 50], 10, secs(2), 42)
        };
        gated("reads", quick, s)
    }),
];

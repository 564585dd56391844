//! The command line: the driver's one-workload form, and `run`, `trace`
//! and `compare` for people.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use crate::compare::compare;
use crate::report::{
    fold, peak_rss_mb, render, DriverLine, DriverValue, Host, LayerMetric, Report, WorkloadResult,
    E2E, PER_LAYER,
};
use crate::run::{run_repetition, RepOptions, RepSummary};
use crate::stats::least_disturbed;
use crate::workloads::{Workload, NAMES};
use crate::{drives, layers};

/// Repetitions every untraced run makes, however long they take.
pub const MIN_REPETITIONS: usize = 3;
/// `--seconds` when none is given: `BENCHMARK.json`'s `run_seconds`.
pub const DEFAULT_SECONDS: u64 = 10;

const USAGE: &str = "usage:
  todr-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--report <file>]
  todr-benchmark run     [--seed <n>] [--seconds <s>] [--out <file>]
  todr-benchmark trace   [--seed <n>] [--out <file>]
  todr-benchmark compare <a.json> <b.json>";

/// The benchmark's own directory: `cargo run` exports it at run time;
/// a binary started by hand falls back to where it was compiled.
fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

/// `benchmark/out`, created on demand (ignored by git).
fn out_dir() -> Result<PathBuf, String> {
    let dir = package_dir().join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

struct Flags(BTreeMap<String, String>);

impl Flags {
    fn parse(args: &[String], known: &[&str]) -> Result<Flags, String> {
        let mut map = BTreeMap::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .filter(|n| known.contains(n))
                .ok_or_else(|| format!("unknown argument `{flag}`\n{USAGE}"))?;
            let value = it
                .next()
                .ok_or_else(|| format!("`{flag}` needs a value\n{USAGE}"))?;
            map.insert(name.to_string(), value.clone());
        }
        Ok(Flags(map))
    }

    fn num(&self, name: &str, default: Option<u64>) -> Result<u64, String> {
        match (self.0.get(name), default) {
            (Some(v), _) => v
                .parse()
                .map_err(|_| format!("`--{name} {v}` is not a whole number")),
            (None, Some(d)) => Ok(d),
            (None, None) => Err(format!("`--{name}` is required\n{USAGE}")),
        }
    }
}

/// Untraced measurement of one workload: at least [`MIN_REPETITIONS`]
/// repetitions in fresh worlds with the same seed, then as many more as
/// fit inside `seconds` of measuring (set-up plus measured run; the
/// correctness checks after each repetition are not charged to it).
/// `strict` enforces the percentile support the full-size windows are
/// sized for.
pub fn measure(
    w: &Workload,
    seed: u64,
    seconds: u64,
    strict: bool,
) -> Result<WorkloadResult, String> {
    let started = Instant::now();
    let mut reps: Vec<RepSummary> = Vec::new();
    let mut measured = 0.0;
    loop {
        let opts = RepOptions {
            trace: false,
            strict,
            // Repetitions are identical in virtual time, so replaying
            // the first one's history checks them all.
            oracle: reps.is_empty(),
        };
        let rep = run_repetition(w, seed, opts)?.summary;
        let last = rep.setup_s + rep.host_s();
        measured += last;
        reps.push(rep);
        if reps.len() >= MIN_REPETITIONS && measured + last > seconds as f64 {
            break;
        }
    }
    fold(
        w,
        seed,
        &reps,
        peak_rss_mb()?,
        started.elapsed().as_secs_f64(),
    )
}

/// The traced run of one workload: untraced and traced repetitions
/// alternating, two of each (all four must agree in virtual time), the
/// per-layer counts and spans of a traced one, and the layer drives.
pub fn trace(w: &Workload, seed: u64, strict: bool) -> Result<WorkloadResult, String> {
    let started = Instant::now();
    let rep = |trace| {
        run_repetition(
            w,
            seed,
            RepOptions {
                trace,
                strict,
                oracle: false,
            },
        )
    };
    let plain_1 = rep(false)?.summary;
    // The first traced repetition contributes only its timing.
    let traced_1 = rep(true)?.summary;
    let plain_2 = rep(false)?.summary;
    let traced_2 = rep(true)?;
    for other in [&traced_1, &plain_2, &traced_2.summary] {
        if other.virt != plain_1.virt || other.digest != plain_1.digest {
            return Err(format!(
                "tracing changed virtual time:\nuntraced {:?}\nother    {:?}",
                plain_1.virt, other.virt
            ));
        }
    }
    let mut layer = layers::counts(w, &traced_2)?;
    let (span_metrics, rows) = layers::spans(w, &traced_2)?;
    layer.extend(span_metrics);
    let survivors: BTreeSet<u32> = traced_2
        .cluster
        .servers
        .iter()
        .map(|s| s.node.index())
        .collect();
    layer.push(drives::oracle(
        traced_2.cluster.world.metrics().events(),
        &survivors,
    )?);
    let (with, _) = least_disturbed(&[&traced_1.slices_s, &traced_2.summary.slices_s]);
    let (without, _) = least_disturbed(&[&plain_1.slices_s, &plain_2.slices_s]);
    let overhead = (with - without) / without * 100.0;
    drop(traced_2);
    layer.extend(drives::run_all(w, seed, &out_dir()?)?);

    let mut result = fold(w, seed, &[plain_1, plain_2], peak_rss_mb()?, 0.0)?;
    // The end-to-end metrics only some workloads have ride along in the
    // traced run's table, so the driver sees them too.
    for name in ["read_p50_ms", "read_p99_ms", "outage_ms", "heal_ms"] {
        layer.push(match result.metric(name) {
            Some(m) => LayerMetric {
                source: "end-to-end".into(),
                clock: "virtual".into(),
                samples: m.samples,
                ..LayerMetric::count(name, "client", "ms", m.value)
            },
            None => LayerMetric::not_applicable(name, "client", "ms"),
        });
    }
    let share = result.metric("failed_ops_share").map_or(0.0, |m| m.value);
    layer.push(LayerMetric::count(
        "failed_ops_share",
        "client",
        "ratio",
        share,
    ));
    for (name, n) in [
        ("unavailable_retries", result.unavailable_retries),
        ("resent_after_crash", result.resent_after_crash),
    ] {
        layer.push(LayerMetric::count(name, "client", "count", n as f64));
    }
    layer.push(LayerMetric {
        source: "in-situ".into(),
        clock: "host".into(),
        ..LayerMetric::count("trace_overhead_pct", "benchmark", "%", overhead)
    });

    // Report in the table's order, and insist the two lists agree.
    let mut by_name: BTreeMap<String, LayerMetric> =
        layer.into_iter().map(|m| (m.name.clone(), m)).collect();
    let mut ordered = Vec::with_capacity(PER_LAYER.len());
    for (name, unit, _) in PER_LAYER {
        let m = by_name
            .remove(name)
            .ok_or_else(|| format!("per-layer metric `{name}` was not produced"))?;
        if m.unit != unit {
            return Err(format!(
                "per-layer metric `{name}` has unit {}, not {unit}",
                m.unit
            ));
        }
        ordered.push(m);
    }
    if let Some(extra) = by_name.keys().next() {
        return Err(format!("per-layer metric `{extra}` is not in the table"));
    }
    result.traced = true;
    result.per_layer = ordered;
    result.trace_overhead_pct = overhead;
    result.span_columns = layers::SPAN_COLUMNS.iter().map(|c| c.to_string()).collect();
    result.spans = rows
        .iter()
        .map(|r| r.iter().map(u64::to_string).collect::<Vec<_>>().join(","))
        .collect();
    result.wall_s = started.elapsed().as_secs_f64();
    Ok(result)
}

/// The driver's result line for `r`.
pub fn driver_line(r: &WorkloadResult) -> DriverLine {
    let value = |value: f64, unit: &str| DriverValue {
        value,
        unit: unit.to_string(),
    };
    let metrics = if r.traced {
        r.per_layer
            .iter()
            .map(|m| (m.name.clone(), value(m.value, &m.unit)))
            .collect()
    } else {
        E2E.iter()
            .filter(|s| s.universal)
            .filter_map(|s| r.metric(s.name))
            .map(|m| (m.name.clone(), value(m.value, &m.unit)))
            .collect()
    };
    DriverLine {
        correct: true,
        attempted: r.attempted,
        failed: r.failed(),
        metrics,
    }
}

fn one_workload(flags: &Flags) -> Result<(), String> {
    let name = flags
        .0
        .get("workload")
        .ok_or_else(|| format!("`--workload` is required\n{USAGE}"))?;
    let w = Workload::by_name(name)
        .ok_or_else(|| format!("no workload `{name}`; there are {NAMES:?}"))?;
    let seed = flags.num("seed", None)?;
    let seconds = flags.num("seconds", None)?;
    let result = match flags.num("trace", None)? {
        0 => measure(&w, seed, seconds, true)?,
        1 => trace(&w, seed, true)?,
        other => return Err(format!("`--trace {other}`: expected 0 or 1")),
    };
    print!("{}", render(&result));
    if let Some(path) = flags.0.get("report") {
        let json = serde::json::to_string(&result).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
    }
    let line = serde::json::to_string(&driver_line(&result)).map_err(|e| e.to_string())?;
    println!("{line}");
    Ok(())
}

/// Runs every workload, each in its own sequential child process (so
/// peak memory is per workload and the load never uses more than one
/// core), and gathers the children's reports.
fn all_workloads(kind: &str, flags: &Flags) -> Result<(), String> {
    let seed = flags.num("seed", Some(42))?;
    let seconds = flags.num("seconds", Some(DEFAULT_SECONDS))?;
    let out = out_dir()?;
    let target = flags
        .0
        .get("out")
        .map(PathBuf::from)
        .unwrap_or_else(|| out.join(format!("{kind}-{seed}.json")));
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let started = Instant::now();
    let mut workloads = Vec::new();
    for name in NAMES {
        let child_report = out.join(format!("child-{}-{name}.json", std::process::id()));
        let status = Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if kind == "trace" { "1" } else { "0" }])
            .arg("--report")
            .arg(&child_report)
            .status()
            .map_err(|e| format!("start {}: {e}", exe.display()))?;
        if !status.success() {
            return Err(format!("workload {name} failed ({status})"));
        }
        let text = read(&child_report)?;
        let _ = std::fs::remove_file(&child_report);
        workloads.push(
            serde::json::from_str::<WorkloadResult>(&text)
                .map_err(|e| format!("parse {}: {e}", child_report.display()))?,
        );
    }
    let report = Report {
        kind: kind.to_string(),
        seed,
        seconds,
        host: Host::detect(),
        total_wall_s: started.elapsed().as_secs_f64(),
        workloads,
    };
    std::fs::write(&target, report.to_json())
        .map_err(|e| format!("write {}: {e}", target.display()))?;
    println!(
        "{kind} of {} workloads, seed {seed}: {:.1} s on {} x {}; wrote {}",
        report.workloads.len(),
        report.total_wall_s,
        report.host.nproc,
        report.host.cpu_model,
        target.display()
    );
    Ok(())
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))
}

/// Runs the command line `args` (without the program name). `Ok(false)`
/// is a clean run whose answer is "no": a comparison with a regression.
pub fn main(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("run") => all_workloads(
            "run",
            &Flags::parse(&args[1..], &["seed", "seconds", "out"])?,
        )
        .map(|()| true),
        Some("trace") => {
            all_workloads("trace", &Flags::parse(&args[1..], &["seed", "out"])?).map(|()| true)
        }
        Some("compare") => {
            let [a, b] = &args[1..] else {
                return Err(format!("compare takes two report files\n{USAGE}"));
            };
            let a = Report::from_json(&read(Path::new(a))?)?;
            let b = Report::from_json(&read(Path::new(b))?)?;
            let (table, clean) = compare(&a, &b);
            print!("{table}");
            Ok(clean)
        }
        Some(flag) if flag.starts_with("--") => one_workload(&Flags::parse(
            args,
            &["workload", "seed", "seconds", "trace", "report"],
        )?)
        .map(|()| true),
        _ => Err(USAGE.to_string()),
    }
}

//! The benchmark's own checks, on windows shrunk to test size:
//! determinism of the virtual clock, the stage-span identity, a clean
//! second seed, and agreement between `BENCHMARK.json` and the tables
//! the program reports from. (Exact percentiles and the open-loop
//! generator are unit-tested beside their code.)

use std::collections::BTreeSet;

use todr_benchmark::cli::{driver_line, measure, trace};
use todr_benchmark::layers;
use todr_benchmark::report::{E2E, PER_LAYER};
use todr_benchmark::run::{run_repetition, RepOptions};
use todr_benchmark::workloads::{Workload, NAMES};

const QUIET: RepOptions = RepOptions {
    trace: false,
    strict: false,
    oracle: false,
};

fn shrunk(name: &str) -> Workload {
    Workload::by_name(name).expect("a known workload").shrunk()
}

#[test]
fn two_invocations_give_equal_digests() {
    for name in ["sat_delayed_14x14", "faults_open_7"] {
        let w = shrunk(name);
        let a = run_repetition(&w, 42, QUIET).expect("runs");
        let b = run_repetition(&w, 42, QUIET).expect("runs");
        assert_eq!(a.summary.virt, b.summary.virt, "{name}");
        assert_eq!(a.summary.digest, b.summary.digest, "{name}");
        assert_eq!(a.after.to_json(), b.after.to_json(), "{name}");
        // The seed is an input: another one gives another history.
        let c = run_repetition(&w, 43, QUIET).expect("runs");
        assert_ne!(a.summary.digest, c.summary.digest, "{name}");
    }
}

#[test]
fn stage_spans_sum_exactly_to_commit_latency() {
    // One workload answers on green, one mostly before it (fast path),
    // one retries across a crash.
    for name in ["seq_forced_14x1", "ycsb_b_lease_5x10", "faults_open_7"] {
        let w = shrunk(name);
        let rep = run_repetition(
            &w,
            42,
            RepOptions {
                trace: true,
                ..QUIET
            },
        )
        .expect("runs");
        let (metrics, rows) = layers::spans(&w, &rep).expect("every sample joins");
        let samples: Vec<_> = rep.logs.iter().flat_map(|l| l.commits.iter()).collect();
        assert_eq!(rows.len(), samples.len(), "{name}");
        assert!(!rows.is_empty(), "{name}");
        let col = |c: &str| {
            layers::SPAN_COLUMNS
                .iter()
                .position(|x| *x == c)
                .expect("a span column")
        };
        let (sent, created, commit, reply) = (
            col("sent_ns"),
            col("created_ns"),
            col("commit_ns"),
            col("reply_ns"),
        );
        for (row, sample) in rows.iter().zip(&samples) {
            let stages = (row[created] - row[sent])
                + (row[commit] - row[created])
                + (row[reply] - row[commit]);
            assert_eq!(stages, sample.latency_ns(), "{name}");
        }
        let mean = |n: &str| {
            metrics
                .iter()
                .find(|m| m.name == n)
                .expect("a stage metric")
                .value
        };
        let total: u64 = samples.iter().map(|s| s.latency_ns()).sum();
        let staged = mean("core.admit_ms")
            + mean("core.created_to_green_ms")
            + mean("core.green_to_reply_ms");
        assert!(
            (staged - total as f64 / samples.len() as f64 / 1e6).abs() < 1e-6,
            "{name}"
        );
    }
}

#[test]
fn a_second_seed_runs_clean() {
    for name in NAMES {
        let w = shrunk(name);
        let rep = run_repetition(
            &w,
            7,
            RepOptions {
                oracle: true,
                ..QUIET
            },
        )
        .unwrap_or_else(|e| panic!("{name} with seed 7: {e}"));
        assert_eq!(rep.summary.virt.failed(), 0, "{name}");
        assert!(rep.summary.virt.commit_samples > 0, "{name}");
        assert!(rep.oracle.is_some(), "{name}");
        assert_eq!(
            rep.summary.virt.outage_ns.is_some(),
            w.faults.is_some(),
            "{name}"
        );
    }
}

#[test]
fn folded_results_carry_every_metric_the_manifest_names() {
    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json sits at the repo root");
    let manifest = serde::json::parse(&manifest).expect("valid JSON");
    let list = |key: &str| -> Vec<(String, String)> {
        let serde::Value::Map(top) = &manifest else {
            panic!("BENCHMARK.json is not an object");
        };
        let (_, serde::Value::Seq(items)) = top
            .iter()
            .find(|(k, _)| *k == serde::Value::Str(key.into()))
            .unwrap_or_else(|| panic!("no `{key}`"))
        else {
            panic!("`{key}` is not a list");
        };
        items
            .iter()
            .map(|item| {
                let serde::Value::Map(fields) = item else {
                    panic!("`{key}` entry is not an object");
                };
                let get = |f: &str| {
                    fields
                        .iter()
                        .find_map(|(k, v)| match (k, v) {
                            (serde::Value::Str(k), serde::Value::Str(v)) if k == f => {
                                Some(v.clone())
                            }
                            _ => None,
                        })
                        .unwrap_or_default()
                };
                (get("name"), get("unit"))
            })
            .collect()
    };

    let names: Vec<String> = list("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(names, NAMES);

    let w = shrunk("ycsb_b_lease_5x10");
    let plain = measure(&w, 7, 0, false).expect("measures");
    assert_eq!(plain.repetitions, 3);
    let line = driver_line(&plain);
    let want: BTreeSet<(String, String)> = list("end_to_end").into_iter().collect();
    let got: BTreeSet<(String, String)> = line
        .metrics
        .iter()
        .map(|(n, v)| (n.clone(), v.unit.clone()))
        .collect();
    assert_eq!(got, want);
    assert!(line.metrics.values().all(|v| v.value > 0.0));
    // All eleven end-to-end metrics exist in the program's table, and
    // this workload reports the nine that apply to it.
    assert_eq!(E2E.len(), 11);
    assert_eq!(plain.end_to_end.len(), 9);

    let traced = trace(&w, 7, false).expect("traces");
    let line = driver_line(&traced);
    let want: Vec<(String, String)> = list("per_layer");
    let table: Vec<(String, String)> = PER_LAYER
        .iter()
        .map(|(n, u, _)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(table, want, "BENCHMARK.json lists the table, in order");
    let got: BTreeSet<String> = line.metrics.keys().cloned().collect();
    assert_eq!(got, want.iter().map(|(n, _)| n.clone()).collect());
    assert_eq!(traced.virtual_digest, plain.virtual_digest);
    assert!(!traced.spans.is_empty());
}

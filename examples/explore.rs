//! Deterministic schedule exploration from the command line: sweep
//! `(seed, perturbation)` pairs over randomized fault schedules, check
//! every run against the paper's service properties, and write shrunk,
//! replayable counterexample artifacts under `results/`.
//!
//! ```sh
//! cargo run --release --example explore -- [--shards N] [--faults] [seed_start] [seed_count] [perturbations] [outdir]
//! cargo run --release --example explore -- 0 8 2 results
//! cargo run --release --example explore -- --faults 0 100 2 results
//! cargo run --release --example explore -- --shards 2 --faults 0 8 2 results
//! ```
//!
//! `--shards N` runs `N` replication groups of three replicas behind the
//! shard router (default: the paper's one group of five) and arms the
//! cross-shard serializability oracle. `--faults` widens the schedule
//! vocabulary with storage faults (torn-write crashes, stale sectors)
//! and disables auto-checkpointing so latent corruption survives until
//! a crash surfaces it.
//!
//! Exits non-zero when a counterexample was found, so the sweep can
//! gate CI.

use std::path::PathBuf;
use std::process::ExitCode;

use todr::check::{explore, ExploreConfig, RunOptions};

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let shards: u32 = if args.first().map(String::as_str) == Some("--shards") {
        args.remove(0);
        let n = args.remove(0);
        n.parse()
            .unwrap_or_else(|_| panic!("bad shard count {n:?}"))
    } else {
        1
    };
    let storage_faults = if args.first().map(String::as_str) == Some("--faults") {
        args.remove(0);
        true
    } else {
        false
    };
    let arg = |i: usize, default: u64| -> u64 {
        args.get(i)
            .map(|s| s.parse().unwrap_or_else(|_| panic!("bad argument {s:?}")))
            .unwrap_or(default)
    };
    let config = ExploreConfig {
        seed_start: arg(0, 0),
        seed_count: arg(1, 8),
        perturbations: arg(2, 2),
        storage_faults,
        options: RunOptions {
            n_servers: if shards > 1 { 3 * shards as usize } else { 5 },
            shards,
            checkpoint_interval: if storage_faults { 0 } else { 1024 },
            ..RunOptions::default()
        },
        ..ExploreConfig::default()
    };
    let outdir = PathBuf::from(args.get(3).map(String::as_str).unwrap_or("results"));

    println!(
        "exploring seeds {}..{} under {} perturbation(s) each, {} replicas in {} group(s)",
        config.seed_start,
        config.seed_start + config.seed_count,
        config.perturbations.max(1),
        config.options.n_servers,
        shards,
    );
    let report = match explore(&config, |seed, pert, passed| {
        println!(
            "  seed {seed:>4} pert {pert}: {}",
            if passed { "ok" } else { "FAIL" }
        );
    }) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "\n{} case(s) run, {} passed, {} counterexample(s); {} client(s) left stalled by a crash",
        report.cases_run,
        report.passed,
        report.failures.len(),
        report.stalled_clients
    );
    if report.all_passed() {
        return ExitCode::SUCCESS;
    }
    for ce in &report.failures {
        let path = ce.write_to(&outdir).expect("write counterexample");
        println!(
            "counterexample [{}] {} -> {}",
            ce.kind,
            ce.message,
            path.display()
        );
        println!("  shrunk schedule: {:?}", ce.schedule);
    }
    ExitCode::FAILURE
}

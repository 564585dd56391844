//! Every experiment preset of the paper's §7 evaluation and of the
//! extensions, by its name in `todr_harness::experiments::registry`.
//!
//! ```sh
//! cargo run --release --example bench -- latency
//! cargo run --release --example bench -- shard --quick --json
//! ```
//!
//! Prints the table (or, with `--json`, the JSON) on stdout. A gated
//! sweep then prints its verdict on stderr, appends it to
//! `$GITHUB_STEP_SUMMARY` when that is set, and exits 1 if a bound is
//! violated. `--quick` picks a sweep's reduced size. A usage error
//! exits 2.

use std::io::Write;
use std::process::ExitCode;

use todr::harness::experiments::registry::{self, REGISTRY};

fn usage(problem: &str) -> ExitCode {
    let names: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
    eprintln!(
        "{problem}\nusage: bench <name> [--quick] [--json]; names: {}",
        names.join(", ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let (mut name, mut quick, mut json) = (None, false, false);
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => quick = true,
            "--json" => json = true,
            _ if arg.starts_with('-') || name.is_some() => {
                return usage(&format!("unexpected argument {arg}"))
            }
            _ => name = Some(arg),
        }
    }
    let Some(entry) = name.as_deref().and_then(registry::find) else {
        return usage(&format!("no experiment named {}", name.unwrap_or_default()));
    };
    if quick && !entry.has_quick() {
        return usage(&format!(
            "{} has one size; --quick does not apply",
            entry.name
        ));
    }
    if json && !entry.has_json() {
        return usage(&format!("{} has no JSON form", entry.name));
    }

    let outcome = entry.run(quick);
    match outcome.json {
        Some(text) if json => println!("{text}"),
        _ => println!("{}", outcome.text),
    }
    let Some(gate) = outcome.gate else {
        return ExitCode::SUCCESS;
    };
    let summary = gate.summary();
    eprintln!("{summary}");
    if let Ok(path) = std::env::var("GITHUB_STEP_SUMMARY") {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path);
        if let Err(e) = file.and_then(|mut f| writeln!(f, "{summary}")) {
            eprintln!("cannot append to {path}: {e}");
        }
    }
    if gate.passed() {
        return ExitCode::SUCCESS;
    }
    eprintln!("{}", gate.failures.join("; "));
    ExitCode::FAILURE
}

//! `todr-benchmark`: see `benchmark/README.md`.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match todr_benchmark::cli::main(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("todr-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

//! In-process regression gates, checked against the committed
//! `BENCH_selectors.json` at the repo root.
//!
//! ```text
//! bench_export --check
//! ```
//!
//! Runs the suite in [`supg_bench::perf`] and prints the JSON document
//! on stdout. Every gate in [`BenchReport::gates`] is required: the
//! check exits 1 when the baseline lacks a gate's key or a ratio
//! regressed more than 2× against it (a speedup below half the
//! baseline, a cost ratio above twice it). The check never writes the
//! baseline; to re-baseline, save stdout and move it over the file:
//!
//! ```text
//! bench_export --check > new.json && mv new.json BENCH_selectors.json
//! ```
//!
//! [`BenchReport::gates`]: supg_bench::perf::BenchReport::gates

use std::path::PathBuf;
use std::process::ExitCode;

use supg_bench::perf::{extract_number, run_suite, Better};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args != ["--check"] {
        eprintln!("usage: bench_export --check");
        return ExitCode::from(2);
    }
    // crates/bench → workspace root.
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists")
        .join("BENCH_selectors.json");
    let Ok(committed) = std::fs::read_to_string(&path) else {
        eprintln!("bench_export: no committed {} baseline", path.display());
        return ExitCode::FAILURE;
    };

    let report = run_suite();
    println!("{}", report.to_json());

    let mut failed = false;
    for gate in report.gates() {
        let (section, key, current) = (gate.section, gate.key, gate.current);
        let Some(baseline) = extract_number(&committed, section, key) else {
            eprintln!("bench_export: baseline is missing {section}.{key}");
            failed = true;
            continue;
        };
        let bound = match gate.better {
            Better::Higher => "at least half of",
            Better::Lower => "at most twice",
        };
        let verdict = if gate.regressed(baseline) {
            failed = true;
            "REGRESSED"
        } else {
            "ok"
        };
        eprintln!(
            "bench_export: {section}.{key} {verdict}: current {current:.3} vs baseline \
             {baseline:.3} (must be {bound} it)"
        );
    }
    if failed {
        return ExitCode::FAILURE;
    }
    eprintln!("bench_export: all gates passed");
    ExitCode::SUCCESS
}

//! The baseline gate.
//!
//! ```text
//! baseline_diff BASELINE.json CURRENT.json
//! ```
//!
//! Diffs a deterministic artifact against its committed baseline and
//! exits non-zero when any field fails its policy or the two documents
//! are incomparable. Engine reports (`experiments --prof-out`, the
//! committed `BENCH_engine.json`) must match on every counter; attribution
//! reports (`experiments trace-report --attrib-out`, the committed
//! `crates/bench/baselines/attrib_quick.json`) must keep every bucket's
//! share of run energy within 0.02. See [`bench::baseline_diff`].

use std::env;
use std::fs;
use std::process::ExitCode;

use bench::baseline_diff::{diff, parse, Doc};

fn load(path: &str) -> Result<Doc, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse(path, &text)
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: baseline_diff BASELINE.json CURRENT.json");
        return ExitCode::SUCCESS;
    }
    let [baseline, current] = args.as_slice() else {
        eprintln!("error: expected exactly two files");
        eprintln!("usage: baseline_diff BASELINE.json CURRENT.json");
        return ExitCode::FAILURE;
    };
    let report = load(baseline).and_then(|b| diff(&b, &load(current)?));
    match report {
        Ok(report) => {
            print!("{}", report.render());
            let failed = report.failures().len();
            if failed == 0 {
                println!("baseline_diff: {current} matches {baseline}");
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "baseline_diff: {failed} of {} fields of {current} fail against {baseline}",
                    report.entries.len()
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("baseline_diff: {e}");
            ExitCode::FAILURE
        }
    }
}

//! `perfbench --workload W --seed N --seconds S --trace 0|1`
//!
//! Boots the ranking server in-process over a seeded politics-like
//! graph, drives workload `W` through it over HTTP for `S` seconds,
//! checks the answers, and prints one JSON result line: the end-to-end
//! figures, or with `--trace 1` the per-layer ones.

use std::process::ExitCode;

use approxrank_perfbench::run;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match run::parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let tmp = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tmp")
        .join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: cannot create {}: {e}", tmp.display());
        return ExitCode::FAILURE;
    }
    let outcome = run::run(&args, &tmp);
    let _ = std::fs::remove_dir_all(&tmp);
    match outcome {
        Ok(outcome) => {
            println!("{}", run::result_json(&outcome));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

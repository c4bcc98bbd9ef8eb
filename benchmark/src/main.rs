//! The SEAL benchmark: one command per workload.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --check-repeat [--quick]
//! ```
//!
//! A run generates its inputs from the seed, sets up, checks answers
//! against the brute-force oracle, measures for `--seconds`, prints
//! every metric by name with its unit and ends with one JSON object on
//! the last line of standard output. See `benchmark/README.md`.

mod gate;
mod json;
mod layers;
mod repeat;
mod report;
mod run;
mod setup;
mod stats;
mod trace;
mod workloads;

use setup::Env;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: seal-benchmark --workload <name> [--seed <n>] [--seconds <s>] \
                     [--trace <0|1>] [--quick]\n       seal-benchmark --check-repeat [--seed <n>] \
                     [--seconds <s>] [--quick]\n       seal-benchmark --list";

/// The parsed command line.
struct Args {
    workload: Option<String>,
    check_repeat: bool,
    list: bool,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        check_repeat: false,
        list: false,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must lie in (0, 3600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => args.quick = true,
            "--check-repeat" => args.check_repeat = true,
            "--list" => args.list = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// `benchmark/out` under the checkout the command runs from (the
/// package's own directory when run from somewhere else).
fn out_dir() -> PathBuf {
    let here = PathBuf::from("benchmark");
    if here.join("Cargo.toml").is_file() {
        here.join("out")
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        for name in workloads::NAMES {
            println!("{name}");
        }
        return ExitCode::SUCCESS;
    }
    if args.check_repeat {
        return repeat::run(args.seed, args.seconds, args.quick);
    }
    let Some(name) = args.workload else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let env = Env {
        seed: args.seed,
        // A quick run's phases are one second, whatever was asked.
        seconds: if args.quick {
            1.0
        } else {
            args.seconds.unwrap_or(setup::RUN_SECONDS)
        },
        trace: args.trace,
        quick: args.quick,
        out_dir: out_dir(),
    };
    let Some(outcome) = workloads::run(&name, &env) else {
        eprintln!(
            "unknown workload {name}; have: {}",
            workloads::NAMES.join(" ")
        );
        return ExitCode::from(2);
    };
    outcome.print(&name, env.trace, env.quick);
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{name}: {} of {} checked answers were wrong",
            outcome.failed, outcome.attempted
        );
        ExitCode::FAILURE
    }
}

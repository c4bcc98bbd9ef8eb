//! `--check-repeat`: runs the whole set twice with the same seed and
//! compares each end-to-end metric's two values with the bound
//! `BENCHMARK.json` fixes for it. Two sets that disagree by more than
//! a bound mean the bound cannot tell a regression from noise.

use crate::json::{self, Value};
use crate::report::END_TO_END;
use crate::workloads::NAMES;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

fn benchmark_json() -> Result<Value, String> {
    let candidates = [
        PathBuf::from("BENCHMARK.json"),
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
    ];
    let path = candidates
        .iter()
        .find(|p| p.is_file())
        .ok_or("BENCHMARK.json not found beside benchmark/")?;
    json::parse(&std::fs::read_to_string(path).map_err(|e| e.to_string())?)
}

/// One untraced run of a workload in a child process; the values of
/// its end-to-end metrics, in table order.
fn run_once(workload: &str, seed: u64, seconds: f64, quick: bool) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()]);
    if quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let doc = json::parse(last).map_err(|e| format!("{workload}: no result line ({e})"))?;
    if !output.status.success() || doc.get("correct").and_then(Value::as_bool) != Some(true) {
        return Err(format!("{workload}: the run failed its answer checks"));
    }
    END_TO_END
        .iter()
        .map(|(name, _)| {
            doc.get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
                .ok_or(format!("{workload}: metric {name} missing from the result"))
        })
        .collect()
}

pub fn run(seed: u64, seconds: Option<f64>, quick: bool) -> ExitCode {
    let doc = match benchmark_json() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let seconds = seconds.unwrap_or(crate::setup::RUN_SECONDS);
    let bound_of = |metric: &str| -> f64 {
        doc.get("end_to_end")
            .and_then(Value::as_array)
            .and_then(|ms| {
                ms.iter()
                    .find(|m| m.get("name").and_then(Value::as_str) == Some(metric))
            })
            .and_then(|m| m.get("bound"))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "check-repeat: nproc={nproc}, seed={seed}, {seconds} s per run, two sets of {} workloads{}",
        NAMES.len(),
        if quick {
            " [--quick: spreads reported, not enforced]"
        } else {
            ""
        }
    );
    let mut sets: Vec<Vec<Vec<f64>>> = Vec::new();
    for set in 1..=2 {
        let mut values = Vec::new();
        for name in NAMES {
            eprintln!("set {set}: {name}");
            match run_once(name, seed, seconds, quick) {
                Ok(v) => values.push(v),
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        sets.push(values);
    }
    let mut over = 0;
    for (w, name) in NAMES.iter().enumerate() {
        println!("{name}");
        for (m, (metric, unit)) in END_TO_END.iter().enumerate() {
            let (a, b) = (sets[0][w][m], sets[1][w][m]);
            let spread = (a - b).abs() / ((a + b) / 2.0).abs().max(f64::MIN_POSITIVE);
            let bound = bound_of(metric);
            let verdict = if spread <= bound {
                "ok"
            } else {
                over += 1;
                "OVER"
            };
            println!(
                "  {metric:<18} {a:>16.4} {b:>16.4} {unit:<4} spread {:>7.3}%  bound {:>5.1}%  {verdict}",
                spread * 100.0,
                bound * 100.0
            );
        }
    }
    if over > 0 && !quick {
        eprintln!("{over} metric(s) differ between the two sets by more than their bound");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

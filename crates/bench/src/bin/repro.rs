//! `repro` — the paper's Table 1 and Figures 12–18 as JSON-lines rows of
//! cost counters on stdout (one row per method × setting; see
//! `seal_bench::sweep`).
//!
//! Run: `cargo run --release -p seal-bench --bin repro -- --figure fig14
//! [--objects N] [--queries N] [--seed N]`

use seal_bench::data::BenchConfig;
use seal_bench::sweep::{run, FIGURES};
use std::io::Write as _;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let figure = args
        .windows(2)
        .find(|w| w[0] == "--figure")
        .map(|w| w[1].as_str());
    let cfg = BenchConfig::from_args();
    let mut stdout = std::io::stdout().lock();
    let result = match figure {
        Some(figure) => run(figure, &cfg, &mut |row| {
            writeln!(stdout, "{}", row.to_json()).expect("write a row to stdout");
        }),
        None => Err("missing --figure".to_string()),
    };
    if let Err(e) = result {
        eprintln!(
            "{e}\nusage: repro --figure <{}|all> [--objects N] [--queries N] [--seed N]",
            FIGURES.join("|")
        );
        std::process::exit(2);
    }
}

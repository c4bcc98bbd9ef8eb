//! `seal` — the command-line front end of the SEAL reproduction.
//!
//! ```text
//! seal generate --kind twitter --objects 10000 --out data.tsv
//! seal stats    --data data.tsv
//! seal query    --data data.tsv --region 0,0,50,50 --tokens coffee,mocha \
//!               --tau-r 0.3 --tau-t 0.3 [--filter KIND]
//! ```
//!
//! `KIND` is one of `seal`, `token`, `token-compressed`, `grid`,
//! `hash` or `hash-compressed`.
//!
//! The data format is the TSV of `seal_datagen::io` (one object per
//! line: `min_x min_y max_x max_y tokens,comma,separated`).

#![forbid(unsafe_code)]

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{}", commands::USAGE);
            ExitCode::FAILURE
        }
    }
}

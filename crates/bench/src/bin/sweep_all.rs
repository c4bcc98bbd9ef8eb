//! Runs every table/figure harness in sequence (the whole evaluation
//! section in one go). Equivalent to running table1 and fig12…fig18
//! binaries individually — handy for regenerating the paper's
//! evaluation (`PAPER.md`, §6) in one command.
//!
//! Run: `cargo run --release -p seal-bench --bin sweep_all [--objects N]`

use std::process::Command;

fn main() {
    let pass_through: Vec<String> = std::env::args().skip(1).collect();
    let me = std::env::current_exe().expect("own path");
    let dir = me.parent().expect("bin dir");
    for bin in [
        "table1", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
    ] {
        println!("\n========== {bin} ==========");
        let status = Command::new(dir.join(bin))
            .args(&pass_through)
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
        assert!(status.success(), "{bin} exited with {status}");
    }
}

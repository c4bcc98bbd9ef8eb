//! Timing and table-printing helpers shared by the figure binaries.

use std::time::Instant;

/// Times a closure, returning (result, elapsed milliseconds).
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Runs the workload once as warm-up, then twice measured, returning
/// the mean per-query milliseconds.
pub fn mean_query_ms<Q, T>(queries: &[Q], mut f: impl FnMut(&Q) -> T) -> f64 {
    if queries.is_empty() {
        return 0.0;
    }
    for q in queries {
        std::hint::black_box(f(q));
    }
    const PASSES: usize = 2;
    let start = Instant::now();
    for _ in 0..PASSES {
        for q in queries {
            std::hint::black_box(f(q));
        }
    }
    start.elapsed().as_secs_f64() * 1e3 / (PASSES * queries.len()) as f64
}

/// Prints a fixed-width table row.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let mut line = String::new();
    for (i, cell) in cells.iter().enumerate() {
        let w = widths.get(i).copied().unwrap_or(12);
        line.push_str(&format!("{cell:>w$}  "));
    }
    println!("{}", line.trim_end());
}

/// Prints a header followed by an underline.
pub fn print_header(cells: &[&str], widths: &[usize]) {
    print_row(
        &cells.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        widths,
    );
    let total: usize = widths.iter().map(|w| w + 2).sum();
    println!("{}", "-".repeat(total));
}

/// Formats megabytes with two decimals.
pub fn mb(bytes: usize) -> String {
    format!("{:.2}", bytes as f64 / (1024.0 * 1024.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_ms_returns_result() {
        let (v, ms) = time_ms(|| 2 + 2);
        assert_eq!(v, 4);
        assert!(ms >= 0.0);
    }

    #[test]
    fn mean_query_ms_empty() {
        let qs: Vec<u32> = vec![];
        assert_eq!(mean_query_ms(&qs, |q| *q), 0.0);
    }

    #[test]
    fn mb_formats() {
        assert_eq!(mb(1024 * 1024), "1.00");
        assert_eq!(mb(0), "0.00");
    }
}

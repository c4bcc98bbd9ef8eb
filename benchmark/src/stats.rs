//! The arithmetic behind every reported number: nearest-rank
//! percentiles with the "ten samples beyond" rule, medians over equal
//! segments of a measured phase, and the least-squares fit of the
//! paper's `π₁·postings + π₂·candidates` cost model (§4.3).

/// Nearest-rank percentile of an ascending slice: the value at rank
/// `⌈p·n⌉` (1-based, clamped to `1..=n`). Zero for an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie strictly beyond the `p`-th percentile's
/// rank. A percentile is only reported when this is at least
/// [`MIN_BEYOND`].
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// A tail percentile needs this many samples beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The highest of p99, p95, p90, p75 and p50 that `n` samples support
/// (at least [`MIN_BEYOND`] samples beyond it), if any.
pub fn supported_tail(n: usize) -> Option<f64> {
    [0.99, 0.95, 0.90, 0.75, 0.50]
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= MIN_BEYOND)
}

/// Median of a list (mean of the two middle values for an even
/// count). Zero for an empty list.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The value a quarter of the way in from the undisturbed end of a
/// list of per-segment figures (nearest rank `⌈n/4⌉` counted from the
/// highest when `higher_is_better`, from the lowest otherwise). Zero
/// for an empty list.
///
/// Why not the median: on a shared host a neighbour's burst slows the
/// program for a second or two at a time and never speeds it up, and
/// on `serve_query` such spells covered anything from none to half of
/// a run — the median segment then sat inside a spell on some runs and
/// outside on others (qps 9.9k–12.7k over six runs) while the quiet
/// quartile stayed outside (11.5k–12.8k). It still ignores the best
/// few segments, so one lucky slice cannot set it either.
pub fn quiet_quartile(values: &[f64], higher_is_better: bool) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let k = v.len().div_ceil(4);
    if higher_is_better {
        v[v.len() - k]
    } else {
        v[k - 1]
    }
}

/// Arithmetic mean; zero for an empty list.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// One completed operation of a measured phase: when it ended
/// (nanoseconds since the phase began) and how long it took.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub end_ns: u64,
    pub lat_ns: u64,
}

/// What one segment (or the whole phase) measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Operations completed per second.
    pub qps: f64,
    pub p50_us: f64,
    /// The tail latency at percentile [`Summary::tail_p`].
    pub tail_us: f64,
    /// The percentile `tail_us` is — 0.99 whenever every segment had
    /// at least 1 000 samples, lower only on runs too short to support
    /// it (such as `--quick`).
    pub tail_p: f64,
    /// Samples behind the figures.
    pub samples: usize,
    /// Each segment's throughput, in time order.
    pub segment_qps: Vec<f64>,
}

/// The segments every timing is taken over. Twenty, not the five that
/// would do: slow spells on a shared machine last a second or two, so
/// five segments leave no quarter of the run a spell cannot reach,
/// while twenty do. A 12 s phase still gives every segment the 1000
/// samples its p99 needs.
pub const SEGMENTS: usize = 20;

/// Cuts a phase of `phase_ns` into `segments` equal time slices,
/// assigns each sample to the slice it ended in (samples ending after
/// the phase are dropped) and returns the ascending latencies of each
/// slice.
pub fn split_segments(samples: &[Sample], phase_ns: u64, segments: usize) -> Vec<Vec<u64>> {
    let mut out = vec![Vec::new(); segments];
    for s in samples {
        if s.end_ns >= phase_ns {
            continue;
        }
        let i = (s.end_ns as u128 * segments as u128 / phase_ns.max(1) as u128) as usize;
        out[i.min(segments - 1)].push(s.lat_ns);
    }
    for seg in &mut out {
        seg.sort_unstable();
    }
    out
}

/// Quiet quartiles over segments: each segment's throughput, p50 and
/// p99 are computed on its own samples and the [`quiet_quartile`] of
/// the per-segment values is reported. Each `(latencies, seconds)` pair is one
/// segment: its ascending latencies in nanoseconds and how long it
/// lasted. When some segment has too few samples for a p99 with
/// [`MIN_BEYOND`] samples beyond it, the tail is taken over the pooled
/// samples at the highest percentile they support.
pub fn summarize(segments: &[(Vec<u64>, f64)]) -> Summary {
    let total: usize = segments.iter().map(|(l, _)| l.len()).sum();
    let qps: Vec<f64> = segments
        .iter()
        .map(|(l, secs)| l.len() as f64 / secs.max(1e-12))
        .collect();
    let p50: Vec<f64> = segments
        .iter()
        .map(|(l, _)| percentile(l, 0.50) as f64 / 1e3)
        .collect();
    let every_segment_supports_p99 = segments
        .iter()
        .all(|(l, _)| samples_beyond(l.len(), 0.99) >= MIN_BEYOND);
    let (tail_p, tail_us) = if every_segment_supports_p99 {
        let p99: Vec<f64> = segments
            .iter()
            .map(|(l, _)| percentile(l, 0.99) as f64 / 1e3)
            .collect();
        (0.99, quiet_quartile(&p99, false))
    } else {
        let mut pooled: Vec<u64> = segments
            .iter()
            .flat_map(|(l, _)| l.iter().copied())
            .collect();
        pooled.sort_unstable();
        let p = supported_tail(pooled.len()).unwrap_or(0.50);
        (p, percentile(&pooled, p) as f64 / 1e3)
    };
    Summary {
        qps: quiet_quartile(&qps, true),
        p50_us: quiet_quartile(&p50, false),
        tail_us,
        tail_p,
        samples: total,
        segment_qps: qps,
    }
}

/// [`summarize`] over [`SEGMENTS`] equal time slices of one phase.
pub fn summarize_phase(samples: &[Sample], phase_ns: u64) -> Summary {
    let secs = phase_ns as f64 / 1e9 / SEGMENTS as f64;
    let segments: Vec<(Vec<u64>, f64)> = split_segments(samples, phase_ns, SEGMENTS)
        .into_iter()
        .map(|l| (l, secs))
        .collect();
    summarize(&segments)
}

/// The fitted cost model `t ≈ π₁·postings + π₂·candidates` (no
/// intercept, as in the paper) and how much of the variance of `t` it
/// explains.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostFit {
    pub pi1: f64,
    pub pi2: f64,
    pub r2: f64,
}

/// Least squares through the origin over `(postings, candidates, t)`
/// rows. `r2` is `1 − SS_res / SS_tot` about the mean of `t`, so a
/// model worse than "always the mean" reads negative. A degenerate
/// system (fewer than two independent rows) fits zeros.
pub fn fit_cost_model(rows: &[(f64, f64, f64)]) -> CostFit {
    let (mut saa, mut sab, mut sbb, mut sat, mut sbt, mut st) = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    for &(a, b, t) in rows {
        saa += a * a;
        sab += a * b;
        sbb += b * b;
        sat += a * t;
        sbt += b * t;
        st += t;
    }
    let det = saa * sbb - sab * sab;
    if rows.len() < 2 || det.abs() <= 1e-9 * saa.max(sbb).max(1.0) {
        return CostFit {
            pi1: 0.0,
            pi2: 0.0,
            r2: 0.0,
        };
    }
    let pi1 = (sat * sbb - sbt * sab) / det;
    let pi2 = (sbt * saa - sat * sab) / det;
    let mean_t = st / rows.len() as f64;
    let (mut ss_res, mut ss_tot) = (0.0, 0.0);
    for &(a, b, t) in rows {
        ss_res += (t - pi1 * a - pi2 * b).powi(2);
        ss_tot += (t - mean_t).powi(2);
    }
    let r2 = if ss_tot > 0.0 {
        1.0 - ss_res / ss_tot
    } else {
        0.0
    };
    CostFit { pi1, pi2, r2 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1, "rank clamps to the first sample");
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[], 0.5), 0);
        // 10 samples: p50 is the 5th, p99 the 10th (⌈9.9⌉).
        let w: Vec<u64> = (10..20).collect();
        assert_eq!(percentile(&w, 0.50), 14);
        assert_eq!(percentile(&w, 0.99), 19);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p99 of 1000 samples is rank 990: exactly ten beyond.
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(supported_tail(1000), Some(0.99));
        assert_eq!(supported_tail(999), Some(0.95));
        assert_eq!(supported_tail(200), Some(0.95));
        assert_eq!(supported_tail(199), Some(0.90));
        assert_eq!(supported_tail(40), Some(0.75));
        assert_eq!(supported_tail(20), Some(0.50));
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(0), None);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn segments_split_by_end_time_and_drop_late_samples() {
        // A 10 s phase in 5 segments of 2 s: one sample per second.
        let samples: Vec<Sample> = (0..12)
            .map(|i| Sample {
                end_ns: i * 1_000_000_000 + 500_000_000,
                lat_ns: 1000 + i,
            })
            .collect();
        let segs = split_segments(&samples, 10_000_000_000, 5);
        assert_eq!(segs.iter().map(Vec::len).collect::<Vec<_>>(), [2; 5]);
        assert_eq!(segs[0], vec![1000, 1001]);
        assert_eq!(
            segs[4],
            vec![1008, 1009],
            "samples past the phase end are dropped"
        );
    }

    #[test]
    fn quiet_quartile_counts_from_the_undisturbed_end() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(quiet_quartile(&v, false), 5.0, "5th lowest of 20");
        assert_eq!(quiet_quartile(&v, true), 16.0, "5th highest of 20");
        // ⌈5/4⌉ = 2: the second from the good end, never the extreme.
        assert_eq!(quiet_quartile(&[9.0, 1.0, 5.0, 3.0, 7.0], false), 3.0);
        assert_eq!(quiet_quartile(&[9.0, 1.0, 5.0, 3.0, 7.0], true), 7.0);
        assert_eq!(quiet_quartile(&[4.0], true), 4.0);
        assert_eq!(quiet_quartile(&[], false), 0.0);
    }

    #[test]
    fn summary_is_the_quiet_quartile_of_segment_values() {
        // Eight 1 s segments with 1000..=8000 samples and latencies of
        // 10..=80 µs, the last three slowed to 900 µs: qps is the
        // second-highest segment's rate, p50/p99 the second-lowest of
        // the per-segment percentiles — slow spells over a third of
        // the run cannot move them, nor can the single best segment.
        let segments: Vec<(Vec<u64>, f64)> = (1..=8u64)
            .map(|k| {
                let lat = if k > 5 { 900_000 } else { k * 10_000 };
                (vec![lat; (k * 1000) as usize], 1.0)
            })
            .collect();
        let s = summarize(&segments);
        assert_eq!(s.qps, 7000.0);
        assert_eq!(s.p50_us, 20.0);
        assert_eq!(s.tail_us, 20.0);
        assert_eq!(s.tail_p, 0.99);
        assert_eq!(s.samples, 36_000);
    }

    #[test]
    fn short_segments_fall_back_to_the_pooled_supported_tail() {
        // 5 × 100 samples: no segment supports p99 (needs 1000), the
        // pool of 500 supports p95 (25 beyond).
        let segments: Vec<(Vec<u64>, f64)> = (0..5)
            .map(|_| ((1..=100u64).map(|v| v * 1000).collect(), 1.0))
            .collect();
        let s = summarize(&segments);
        assert_eq!(s.tail_p, 0.95);
        assert_eq!(s.tail_us, 95.0);
        assert_eq!(s.p50_us, 50.0);
    }

    #[test]
    fn cost_fit_recovers_synthetic_coefficients() {
        // t = 3·postings + 40·candidates exactly.
        let rows: Vec<(f64, f64, f64)> = (0..200)
            .map(|i| {
                let a = f64::from(50 + (i * 37) % 400);
                let b = f64::from(5 + (i * 11) % 90);
                (a, b, 3.0 * a + 40.0 * b)
            })
            .collect();
        let fit = fit_cost_model(&rows);
        assert!((fit.pi1 - 3.0).abs() < 1e-9, "{fit:?}");
        assert!((fit.pi2 - 40.0).abs() < 1e-9, "{fit:?}");
        assert!((fit.r2 - 1.0).abs() < 1e-12, "{fit:?}");
    }

    #[test]
    fn cost_fit_reports_noise_and_degenerate_input() {
        // Alternating ±500 ns noise: coefficients stay close, r2 < 1.
        let rows: Vec<(f64, f64, f64)> = (0..400)
            .map(|i| {
                let a = f64::from(100 + (i * 53) % 900);
                let b = f64::from(10 + (i * 17) % 200);
                let noise = if i % 2 == 0 { 500.0 } else { -500.0 };
                (a, b, 2.0 * a + 25.0 * b + noise)
            })
            .collect();
        let fit = fit_cost_model(&rows);
        assert!((fit.pi1 - 2.0).abs() < 0.2, "{fit:?}");
        assert!((fit.pi2 - 25.0).abs() < 1.0, "{fit:?}");
        assert!(fit.r2 > 0.8 && fit.r2 < 1.0, "{fit:?}");
        // Collinear columns cannot be separated.
        let collinear: Vec<(f64, f64, f64)> = (1..50)
            .map(|i| (f64::from(i), f64::from(2 * i), 1.0))
            .collect();
        assert_eq!(fit_cost_model(&collinear).pi1, 0.0);
        assert_eq!(fit_cost_model(&[]).r2, 0.0);
    }
}

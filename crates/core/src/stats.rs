//! Per-query search statistics.
//!
//! The paper's cost model (Section 4.3) decomposes query cost into
//! `π1 · (postings retrieved)` + `π2 · (candidates verified)`; these
//! counters expose exactly those quantities so the benchmarks can report
//! both wall-clock times and the machine-independent counts.

use std::time::Duration;

/// Counters collected while answering one query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SearchStats {
    /// Inverted lists probed (`|Sp(q)|` for single filters; pairs for
    /// hybrid filters).
    pub lists_probed: usize,
    /// Postings retrieved across all probed lists (the `Σ|Ic(s)|` of the
    /// filter-cost term).
    pub postings_scanned: usize,
    /// Candidates produced by the filter step (`|C|`).
    pub candidates: usize,
    /// Final answers after verification (`|A|`).
    pub results: usize,
    /// Tree nodes visited (the R-tree baselines of `seal-bench` fill
    /// it; the engine's filters leave it 0).
    pub nodes_visited: usize,
    /// Shards probed by a sharded engine (0 for single-engine
    /// searches; the numerator of the shards-touched / N fan-out
    /// ratio).
    pub shards_probed: usize,
    /// Wall-clock time a sharded engine spent merging and remapping
    /// per-shard answers (zero for single-engine searches).
    pub merge_time: Duration,
}

impl SearchStats {
    /// A zeroed stats record.
    pub fn new() -> Self {
        SearchStats::default()
    }

    /// Accumulates another record into this one (for workload totals).
    pub fn accumulate(&mut self, other: &SearchStats) {
        self.lists_probed += other.lists_probed;
        self.postings_scanned += other.postings_scanned;
        self.candidates += other.candidates;
        self.results += other.results;
        self.nodes_visited += other.nodes_visited;
        self.shards_probed += other.shards_probed;
        self.merge_time += other.merge_time;
    }

    /// The paper's cost-model estimate `π1·postings + π2·candidates`.
    pub fn modelled_cost(&self, pi1: f64, pi2: f64) -> f64 {
        pi1 * self.postings_scanned as f64 + pi2 * self.candidates as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulate_sums_all_fields() {
        let mut a = SearchStats {
            lists_probed: 1,
            postings_scanned: 10,
            candidates: 5,
            results: 2,
            nodes_visited: 3,
            shards_probed: 2,
            merge_time: Duration::from_millis(1),
        };
        let b = a.clone();
        a.accumulate(&b);
        assert_eq!(a.lists_probed, 2);
        assert_eq!(a.postings_scanned, 20);
        assert_eq!(a.candidates, 10);
        assert_eq!(a.results, 4);
        assert_eq!(a.nodes_visited, 6);
        assert_eq!(a.shards_probed, 4);
        assert_eq!(a.merge_time, Duration::from_millis(2));
    }

    #[test]
    fn modelled_cost() {
        let s = SearchStats {
            postings_scanned: 6,
            candidates: 4,
            ..SearchStats::default()
        };
        // The Figure 5 example: cost(q) = 6π1 + 4π2.
        assert_eq!(s.modelled_cost(2.0, 3.0), 24.0);
    }
}

//! Lock-free serving metrics: per-endpoint latency histograms and
//! traffic counters, all plain atomics so the hot path never takes a
//! lock to record an observation.
//!
//! The histogram is log₂-bucketed over microseconds (bucket *i* covers
//! `[2^i, 2^(i+1))` µs), which bounds any reported percentile's
//! relative error at 2× — plenty for `/metrics` dashboards and
//! backpressure decisions. The load generator measures *exact*
//! percentiles client-side.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log₂ buckets: covers up to ~2^31 µs ≈ 36 min per request.
const BUCKETS: usize = 32;

/// A lock-free log₂ latency histogram (microsecond domain).
#[derive(Default)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl Histogram {
    /// Records one observation.
    pub fn record_us(&self, us: u64) {
        let idx = (u64::BITS - 1 - us.max(1).leading_zeros()) as usize;
        self.buckets[idx.min(BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        self.sum_us.load(Ordering::Relaxed) as f64 / n as f64
    }

    /// Approximate percentile (`p ∈ [0, 1]`) in microseconds: the
    /// geometric midpoint of the bucket holding the p-th observation.
    /// Within 2× of the true value by construction; 0 when empty.
    pub fn percentile_us(&self, p: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = ((p.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                // Geometric midpoint of [2^i, 2^(i+1)).
                return (1u64 << i) as f64 * std::f64::consts::SQRT_2;
            }
        }
        (1u64 << (BUCKETS - 1)) as f64
    }

    /// JSON fragment: `{"count":…,"mean_us":…,"p50_us":…,…}`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"count\":{},\"mean_us\":{:.1},\"p50_us\":{:.1},\"p95_us\":{:.1},\"p99_us\":{:.1}}}",
            self.count(),
            self.mean_us(),
            self.percentile_us(0.50),
            self.percentile_us(0.95),
            self.percentile_us(0.99),
        )
    }
}

/// Counters + latency for one endpoint.
#[derive(Default)]
pub struct EndpointMetrics {
    /// Responses in the 2xx class.
    pub ok: AtomicU64,
    /// Responses in the 4xx class.
    pub client_error: AtomicU64,
    /// Responses in the 5xx class (503 backpressure included).
    pub server_error: AtomicU64,
    /// Latency of the 2xx responses.
    pub latency: Histogram,
}

impl EndpointMetrics {
    /// Records one exchange: status class counter + latency (2xx
    /// only, so rejection fast paths don't drag percentiles down).
    pub fn record(&self, status: u16, us: u64) {
        match status {
            200..=299 => {
                self.ok.fetch_add(1, Ordering::Relaxed);
                self.latency.record_us(us);
            }
            400..=499 => {
                self.client_error.fetch_add(1, Ordering::Relaxed);
            }
            _ => {
                self.server_error.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"ok\":{},\"client_error\":{},\"server_error\":{},\"latency\":{}}}",
            self.ok.load(Ordering::Relaxed),
            self.client_error.load(Ordering::Relaxed),
            self.server_error.load(Ordering::Relaxed),
            self.latency.to_json(),
        )
    }
}

/// Every counter the serving tier exposes at `/metrics`.
#[derive(Default)]
pub struct Metrics {
    /// `/query` exchanges.
    pub query: EndpointMetrics,
    /// `/push` exchanges.
    pub push: EndpointMetrics,
    /// `/refresh` exchanges.
    pub refresh: EndpointMetrics,
    /// `/status` + `/metrics` exchanges.
    pub admin: EndpointMetrics,
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Connections refused at the accept gate (pool exhausted).
    pub connections_refused: AtomicU64,
    /// Requests answered 503 for backpressure (queue or churn).
    pub rejected_busy: AtomicU64,
    /// Malformed requests (any [`crate::http::ParseError`]).
    pub parse_errors: AtomicU64,
    /// Requests that timed out mid-read (slow loris).
    pub read_timeouts: AtomicU64,
    /// Batches dispatched through `search_batch`.
    pub batches: AtomicU64,
    /// Queries carried by those batches (`batched_queries / batches`
    /// = mean coalescing factor).
    pub batched_queries: AtomicU64,
    /// Largest batch dispatched so far.
    pub max_batch: AtomicU64,
}

impl Metrics {
    /// Records one dispatched batch of `n` queries.
    pub fn record_batch(&self, n: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_queries.fetch_add(n as u64, Ordering::Relaxed);
        self.max_batch.fetch_max(n as u64, Ordering::Relaxed);
    }

    /// The full `/metrics` JSON document. Generation/staleness gauges
    /// and the per-shard detail (`shards`: a pre-rendered JSON array,
    /// `[]` for single-arena engines) are sampled by the caller — the
    /// server owns the engine.
    pub fn to_json(&self, generation: u64, staged: usize, objects: usize, shards: &str) -> String {
        format!(
            "{{\"generation\":{generation},\"staged\":{staged},\"objects\":{objects},\
             \"shards\":{shards},\
             \"connections\":{},\"connections_refused\":{},\"rejected_busy\":{},\
             \"parse_errors\":{},\"read_timeouts\":{},\
             \"batches\":{},\"batched_queries\":{},\"max_batch\":{},\
             \"query\":{},\"push\":{},\"refresh\":{},\"admin\":{}}}",
            self.connections.load(Ordering::Relaxed),
            self.connections_refused.load(Ordering::Relaxed),
            self.rejected_busy.load(Ordering::Relaxed),
            self.parse_errors.load(Ordering::Relaxed),
            self.read_timeouts.load(Ordering::Relaxed),
            self.batches.load(Ordering::Relaxed),
            self.batched_queries.load(Ordering::Relaxed),
            self.max_batch.load(Ordering::Relaxed),
            self.query.to_json(),
            self.push.to_json(),
            self.refresh.to_json(),
            self.admin.to_json(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_are_within_a_bucket() {
        let h = Histogram::default();
        for us in [10u64, 10, 10, 10, 10, 10, 10, 10, 10, 1000] {
            h.record_us(us);
        }
        assert_eq!(h.count(), 10);
        // p50 lands in the [8,16) bucket; p99 in [512,1024).
        let p50 = h.percentile_us(0.50);
        assert!((8.0..16.0).contains(&p50), "p50 = {p50}");
        let p99 = h.percentile_us(0.99);
        assert!((512.0..1024.0).contains(&p99), "p99 = {p99}");
        assert!((h.mean_us() - 109.0).abs() < 1.0);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = Histogram::default();
        assert_eq!(h.percentile_us(0.99), 0.0);
        assert_eq!(h.mean_us(), 0.0);
    }

    #[test]
    fn zero_latency_is_recorded_not_panicked() {
        let h = Histogram::default();
        h.record_us(0);
        assert_eq!(h.count(), 1);
        assert!(h.percentile_us(0.5) >= 1.0);
    }

    #[test]
    fn endpoint_records_by_status_class() {
        let e = EndpointMetrics::default();
        e.record(200, 100);
        e.record(404, 5);
        e.record(503, 1);
        assert_eq!(e.ok.load(Ordering::Relaxed), 1);
        assert_eq!(e.client_error.load(Ordering::Relaxed), 1);
        assert_eq!(e.server_error.load(Ordering::Relaxed), 1);
        assert_eq!(e.latency.count(), 1, "only 2xx latencies recorded");
    }

    #[test]
    fn metrics_json_is_wellformed_enough() {
        let m = Metrics::default();
        m.record_batch(4);
        m.record_batch(2);
        let json = m.to_json(
            3,
            17,
            900,
            "[{\"generation\":3,\"staged\":9,\"objects\":450}]",
        );
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"generation\":3"));
        assert!(json.contains("\"staged\":17"));
        assert!(json.contains("\"shards\":[{\"generation\":3,"));
        assert!(json.contains("\"batches\":2"));
        assert!(json.contains("\"batched_queries\":6"));
        assert!(json.contains("\"max_batch\":4"));
    }
}

//! The measured phase: one closed loop per driver thread over the
//! fixed query set, every call timed on its own and every answer
//! compared with the one the gate recorded.

use crate::stats::Sample;
use seal_core::ObjectId;
use std::time::{Duration, Instant};

/// An order-independent fingerprint of one answer set: cheap enough to
/// take after every query of the measured phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub len: u32,
    pub sum: u64,
}

impl Digest {
    pub fn of(ids: &[ObjectId]) -> Digest {
        Digest::of_raw(ids.iter().map(|id| id.0))
    }

    pub fn of_raw(ids: impl Iterator<Item = u32>) -> Digest {
        let mut d = Digest { len: 0, sum: 0 };
        for id in ids {
            d.len += 1;
            d.sum = d
                .sum
                .wrapping_add((u64::from(id) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
        d
    }
}

/// What one loop measured.
#[derive(Debug, Default)]
pub struct LoopOut {
    pub samples: Vec<Sample>,
    /// Calls made (each one checked).
    pub attempted: usize,
    /// Calls whose answer differed from the expected digest.
    pub failed: usize,
}

/// Runs `call(i)` on query indexes `first, first + stride, …` (cycling
/// through `0..n`) until `limit` has passed since `start`, timing each
/// call and checking its result with `ok` outside the timed interval.
pub fn closed_loop<R>(
    start: Instant,
    limit: Duration,
    n: usize,
    first: usize,
    stride: usize,
    mut call: impl FnMut(usize) -> R,
    mut ok: impl FnMut(usize, R) -> bool,
) -> LoopOut {
    let mut out = LoopOut::default();
    let mut i = first % n;
    loop {
        let t0 = Instant::now();
        if t0.duration_since(start) >= limit {
            return out;
        }
        let result = call(i);
        let t1 = Instant::now();
        out.samples.push(Sample {
            end_ns: t1.duration_since(start).as_nanos() as u64,
            lat_ns: t1.duration_since(t0).as_nanos() as u64,
        });
        out.attempted += 1;
        if !ok(i, result) {
            out.failed += 1;
        }
        i = (i + stride) % n;
    }
}

/// One whole pass over `0..n`, with the measured loop's two clock
/// reads around each call (so a pass costs what the loop costs).
/// Returns the pass's wall seconds and the failed checks.
pub fn timed_pass<R>(
    n: usize,
    mut call: impl FnMut(usize) -> R,
    mut ok: impl FnMut(usize, R) -> bool,
) -> (f64, usize) {
    let mut failed = 0;
    let start = Instant::now();
    for i in 0..n {
        let t0 = Instant::now();
        let result = call(i);
        std::hint::black_box(t0.elapsed());
        if !ok(i, result) {
            failed += 1;
        }
    }
    (start.elapsed().as_secs_f64(), failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_order_and_sees_content() {
        let a = Digest::of(&[ObjectId(3), ObjectId(9), ObjectId(0)]);
        let b = Digest::of(&[ObjectId(0), ObjectId(3), ObjectId(9)]);
        assert_eq!(a, b);
        assert_ne!(a, Digest::of(&[ObjectId(0), ObjectId(3), ObjectId(8)]));
        assert_ne!(a, Digest::of(&[ObjectId(0), ObjectId(3)]));
        assert_ne!(
            Digest::of(&[ObjectId(0)]),
            Digest::of(&[]),
            "id 0 still counts"
        );
    }

    #[test]
    fn closed_loop_cycles_checks_and_stops() {
        let start = Instant::now();
        let mut seen = Vec::new();
        let out = closed_loop(
            start,
            Duration::from_millis(20),
            5,
            1,
            2,
            |i| {
                seen.push(i);
                i
            },
            |i, r| r == i && i != 3,
        );
        assert!(out.attempted >= 5, "20 ms is thousands of no-op calls");
        assert_eq!(
            &seen[..5],
            &[1, 3, 0, 2, 4],
            "stride 2 over 5 queries from 1"
        );
        assert_eq!(out.samples.len(), out.attempted);
        assert_eq!(out.failed, seen.iter().filter(|&&i| i == 3).count());
        assert!(out.samples.windows(2).all(|w| w[0].end_ns <= w[1].end_ns));
    }

    #[test]
    fn timed_pass_visits_each_index_once() {
        let mut seen = Vec::new();
        let (wall_s, failed) = timed_pass(7, |i| seen.push(i), |i, ()| i != 6);
        assert_eq!(seen, (0..7).collect::<Vec<_>>());
        assert_eq!(failed, 1);
        assert!(wall_s >= 0.0);
    }
}

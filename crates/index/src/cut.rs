//! The **one shared bound-cut path** every qualifying probe in the
//! crate goes through: [`bound_cut`] over the `f64` bound columns of
//! [`crate::Arena`], and its `u16` twin over the quantized bound
//! columns of [`crate::compress::CompressedArena`]. Both require a
//! non-increasing, NaN-free column — the finalize order the arenas
//! establish and the codec re-validates on load.

/// Lists at or below this length are cut by the chunked scan; longer
/// ones fall back to `partition_point`. At 256 the scan's worst case
/// (all rows qualify) costs about what one branchy binary search does,
/// while the common case (selective threshold, early chunk exit) is a
/// handful of vector compares.
const SCAN_MAX: usize = 256;

/// Bounds compared per scan iteration. 16 `f64`s = two cache lines =
/// four AVX2 lanes' worth of branch-free compares per loop trip.
const LANES: usize = 16;

/// The qualifying-prefix length of a **non-increasing** bound column at
/// threshold `c` — the one cut every probe in this crate goes through
/// (uncompressed single and dual arenas and, via its private `u16`
/// twin, the compressed arenas).
///
/// Equivalent to `bounds.partition_point(|&b| b >= c)` (the column is
/// sorted, so the count of qualifying bounds *is* the partition
/// point), but short lists — the common case for per-key posting
/// groups — take a chunked branch-free scan instead: 16 bounds are
/// compared per iteration with a pure `b >= c` accumulate the
/// compiler auto-vectorizes, and a chunk that is not all-qualifying
/// ends the scan (the boundary is inside it). Lists longer than 256
/// rows use `partition_point`, so a length-only probe of a huge list
/// stays `O(log n)`.
///
/// Requires a NaN-free column (the indexes reject NaN bounds at
/// insert time); a NaN threshold `c` yields 0, matching
/// `partition_point`.
#[inline]
pub fn bound_cut(bounds: &[f64], c: f64) -> usize {
    if bounds.len() > SCAN_MAX {
        return bounds.partition_point(|&b| b >= c);
    }
    let mut count = 0usize;
    let mut chunks = bounds.chunks_exact(LANES);
    for chunk in &mut chunks {
        let mut hits = 0usize;
        for &b in chunk {
            hits += usize::from(b >= c);
        }
        count += hits;
        if hits < LANES {
            // Sorted column: the qualifying prefix ends inside this
            // chunk, and `hits` counted exactly its rows.
            return count;
        }
    }
    for &b in chunks.remainder() {
        count += usize::from(b >= c);
    }
    count
}

/// Reads the `j`-th entry of a little-endian `u16` column (the
/// compressed arenas' quantized bound columns).
#[inline]
pub(crate) fn column_u16(col: &[u8], j: usize) -> u16 {
    u16::from_le_bytes([col[2 * j], col[2 * j + 1]])
}

/// [`bound_cut`] over a little-endian `u16` column of `len` entries:
/// the qualifying-prefix length at *quantized* threshold `qc`
/// (`entry ≥ qc`). The compressed probe path quantizes the `f64`
/// threshold once per group and then cuts entirely in the integer
/// domain — same chunked scan, no dequantization per comparison.
#[inline]
pub(crate) fn bound_cut_u16(col: &[u8], len: usize, qc: u16) -> usize {
    debug_assert!(col.len() >= 2 * len, "column shorter than its row count");
    if len > SCAN_MAX {
        let mut lo = 0usize;
        let mut hi = len;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if column_u16(col, mid) >= qc {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        return lo;
    }
    let mut count = 0usize;
    let mut j = 0usize;
    while j + LANES <= len {
        let mut hits = 0usize;
        for k in 0..LANES {
            hits += usize::from(column_u16(col, j + k) >= qc);
        }
        count += hits;
        if hits < LANES {
            return count;
        }
        j += LANES;
    }
    while j < len {
        count += usize::from(column_u16(col, j) >= qc);
        j += 1;
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Oracle for both cut variants.
    fn pp(bounds: &[f64], c: f64) -> usize {
        bounds.partition_point(|&b| b >= c)
    }

    #[test]
    fn bound_cut_matches_partition_point_on_adversarial_columns() {
        // Ties, all-pass, all-fail, lengths not divisible by the lane
        // width, and lengths straddling the scan/binary-search cutover.
        let mk = |len: usize| -> Vec<f64> {
            (0..len)
                .map(|i| ((len - i) / 3) as f64) // runs of equal bounds
                .collect()
        };
        for len in [0usize, 1, 5, 15, 16, 17, 31, 33, 100, 255, 256, 257, 1000] {
            let col = mk(len);
            let max = col.first().copied().unwrap_or(0.0);
            for c in [
                -1.0,
                0.0,
                0.5,
                1.0,
                max / 2.0,
                max / 2.0 + 0.5,
                max,
                max + 1.0,
                f64::INFINITY,
                f64::NEG_INFINITY,
            ] {
                assert_eq!(bound_cut(&col, c), pp(&col, c), "len {len} c {c}");
            }
            assert_eq!(bound_cut(&col, f64::NAN), pp(&col, f64::NAN), "NaN c");
        }
        // All-pass / all-fail at both sides of the cutover.
        for len in [37usize, 256, 300] {
            let col = vec![5.0; len];
            assert_eq!(bound_cut(&col, 5.0), len, "all-pass (ties) len {len}");
            assert_eq!(bound_cut(&col, 5.1), 0, "all-fail len {len}");
            assert_eq!(bound_cut(&col, 4.9), len);
        }
    }

    #[test]
    fn bound_cut_u16_matches_linear_oracle() {
        let mk = |len: usize| -> Vec<u8> {
            let mut col = Vec::with_capacity(2 * len);
            for i in 0..len {
                let v = ((len - i) as u16 / 3).saturating_mul(7);
                col.extend_from_slice(&v.to_le_bytes());
            }
            col
        };
        for len in [0usize, 1, 7, 16, 17, 63, 255, 256, 257, 513] {
            let col = mk(len);
            let vals: Vec<u16> = (0..len).map(|j| column_u16(&col, j)).collect();
            for qc in [0u16, 1, 3, 7, 14, 100, 600, u16::MAX] {
                let oracle = vals.partition_point(|&v| v >= qc);
                assert_eq!(bound_cut_u16(&col, len, qc), oracle, "len {len} qc {qc}");
            }
        }
    }
}

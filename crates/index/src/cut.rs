//! The **one shared bound-cut path** every qualifying probe in the
//! crate goes through: [`bound_cut`] over the `f64` bound columns of
//! [`crate::Arena`], and its `u16` twin over the quantized bound
//! columns of [`crate::compress::CompressedArena`]. Both require a
//! non-increasing, NaN-free column — the finalize order the arenas
//! establish and the codec re-validates on load — and both are one
//! binary search.

/// The qualifying-prefix length of a **non-increasing** bound column at
/// threshold `c` — the one cut every probe in this crate goes through
/// (uncompressed single and dual arenas and, via its private `u16`
/// twin, the compressed arenas). The column is sorted, so the count of
/// qualifying bounds *is* the partition point.
///
/// Requires a NaN-free column (the indexes reject NaN bounds at
/// insert time); a NaN threshold `c` yields 0.
#[inline]
pub fn bound_cut(bounds: &[f64], c: f64) -> usize {
    bounds.partition_point(|&b| b >= c)
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
/// domain — a binary search, no dequantization per comparison.
#[inline]
pub(crate) fn bound_cut_u16(col: &[u8], len: usize, qc: u16) -> usize {
    debug_assert!(col.len() >= 2 * len, "column shorter than its row count");
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
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

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
                let oracle = vals.iter().take_while(|&&v| v >= qc).count();
                assert_eq!(bound_cut_u16(&col, len, qc), oracle, "len {len} qc {qc}");
            }
        }
    }
}

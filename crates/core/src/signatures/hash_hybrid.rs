//! Hash-based hybrid signatures (Section 5.1, Definition 5).
//!
//! A hybrid signature element is a `(token, grid-cell)` pair hashed into
//! a bucket: `SH(o) = {h = (t, g) | t ∈ ST(o), g ∈ SR(o)}`. The paper
//! constrains the number of hash buckets "to avoid generating too many
//! inverted lists"; we hash `(t, g)` with a 64-bit mixer and optionally
//! reduce modulo a bucket count. Bucket collisions merge lists, which
//! can only *add* candidates — the filter stays a safe superset.

use seal_text::TokenId;

/// How `(token, cell)` pairs map to inverted-list keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BucketScheme {
    /// Full 64-bit hash (collisions astronomically unlikely; list count
    /// ≈ distinct pairs). This is the "unconstrained" configuration.
    Full,
    /// Hash reduced modulo a bucket count (the paper's index-size
    /// constraint).
    Buckets(u64),
}

impl BucketScheme {
    /// The inverted-list key of a `(token, cell)` pair.
    #[inline]
    pub fn key(self, token: TokenId, cell: u64) -> u64 {
        let h = mix(((u64::from(token.0)) << 36) ^ cell.rotate_left(17) ^ 0x9E37_79B9_7F4A_7C15);
        match self {
            BucketScheme::Full => h,
            BucketScheme::Buckets(m) => h % m.max(1),
        }
    }
}

/// SplitMix64 finalizer — a fast, well-distributed 64-bit mixer.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_keys_distinguish_pairs() {
        let s = BucketScheme::Full;
        let a = s.key(TokenId(1), 10);
        let b = s.key(TokenId(1), 11);
        let c = s.key(TokenId(2), 10);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn keys_are_deterministic() {
        let s = BucketScheme::Full;
        assert_eq!(s.key(TokenId(7), 99), s.key(TokenId(7), 99));
    }

    #[test]
    fn bucketed_keys_stay_in_range() {
        let s = BucketScheme::Buckets(1000);
        for t in 0..50u32 {
            for g in 0..50u64 {
                assert!(s.key(TokenId(t), g) < 1000);
            }
        }
    }

    #[test]
    fn hashing_spreads_buckets() {
        // 10k pairs into 256 buckets: every bucket should be hit.
        let s = BucketScheme::Buckets(256);
        let mut hit = vec![false; 256];
        for t in 0..100u32 {
            for g in 0..100u64 {
                hit[s.key(TokenId(t), g) as usize] = true;
            }
        }
        assert!(hit.iter().all(|&h| h), "hash leaves buckets unused");
    }
}

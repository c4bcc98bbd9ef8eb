//! A filter's posting source: the same lists in either storage form
//! behind one probe contract.

use crate::compress::CompressedArena;
use crate::{Arena, ObjId};
use std::hash::Hash;

/// How a filter stores the posting lists it serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Storage {
    /// The uncompressed columnar [`Arena`]: single-bound probes return
    /// slices of the id column in place.
    Arena,
    /// The [`CompressedArena`] served in place: quantized bound
    /// columns and block-packed ids, ~4× smaller lists, qualifying
    /// prefixes decoded into the caller's scratch, and a superset-only
    /// guarantee (bounds round up by at most one quantization step).
    Compressed,
}

/// One set of posting lists with `N` bounds per posting, in the
/// [`Storage`] form it was frozen to. Both forms answer
/// [`qualifying_into`](Self::qualifying_into) with an id slice, so a
/// filter's probe loop is written once.
#[derive(Debug, Clone)]
pub enum Postings<K, const N: usize> {
    /// Served from the uncompressed arena.
    Arena(Arena<K, N>),
    /// Served from the compressed arena.
    Compressed(CompressedArena<K, N>),
}

impl<K: Eq + Hash + Ord + Copy + Sync, const N: usize> Postings<K, N> {
    /// Puts a finalized arena into its serving form: as it is, or
    /// compressed once.
    ///
    /// # Panics
    /// If postings are staged, or — for [`Storage::Compressed`] — any
    /// bound is non-finite.
    pub fn freeze(arena: Arena<K, N>, storage: Storage) -> Self {
        assert!(arena.is_finalized(), "freeze requires a finalized arena");
        match storage {
            Storage::Arena => Postings::Arena(arena),
            Storage::Compressed => Postings::Compressed(CompressedArena::compress(&arena)),
        }
    }

    /// The storage form in use.
    pub fn storage(&self) -> Storage {
        match self {
            Postings::Arena(_) => Storage::Arena,
            Postings::Compressed(_) => Storage::Compressed,
        }
    }

    /// The uncompressed arena, when serving from it.
    pub fn arena(&self) -> Option<&Arena<K, N>> {
        match self {
            Postings::Arena(a) => Some(a),
            Postings::Compressed(_) => None,
        }
    }

    /// The compressed arena, when serving from it.
    pub fn compressed(&self) -> Option<&CompressedArena<K, N>> {
        match self {
            Postings::Arena(_) => None,
            Postings::Compressed(c) => Some(c),
        }
    }

    /// The object ids of the postings of `key` qualifying under every
    /// threshold of `c` (column order; `c[0]` cuts). The slice borrows
    /// the arena's id column when nothing has to be decoded or
    /// filtered (single-bound arenas) and `scratch` (cleared first)
    /// otherwise; warm calls allocate nothing either way.
    #[inline]
    pub fn qualifying_into<'a>(
        &'a self,
        key: &K,
        c: [f64; N],
        scratch: &'a mut Vec<ObjId>,
    ) -> &'a [ObjId] {
        match self {
            Postings::Arena(a) => a.qualifying_into(key, c, scratch),
            Postings::Compressed(p) => p.probe(key, c, scratch),
        }
    }

    /// Exact heap bytes of the form in use.
    pub fn size_bytes(&self) -> usize {
        match self {
            Postings::Arena(a) => a.size_bytes(),
            Postings::Compressed(p) => p.size_bytes(),
        }
    }

    /// The largest object id in any list (`None` when empty).
    pub fn max_object_id(&self) -> Option<ObjId> {
        match self {
            Postings::Arena(a) => a.max_object_id(),
            Postings::Compressed(p) => p.max_object_id(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample<const N: usize>() -> Arena<u64, N> {
        let mut arena = Arena::new();
        for key in 0u64..6 {
            for obj in 0..300u32 {
                let b = f64::from(obj.wrapping_mul(2_654_435_761) % 1000);
                arena.push_row(key, obj, std::array::from_fn(|col| b / (1 + col) as f64));
            }
        }
        arena.finalize();
        arena
    }

    /// Both storage forms serve a superset of the exact qualifying set
    /// (the arena exactly it), through the one probe contract.
    fn both_forms_agree<const N: usize>() {
        let reference = sample::<N>();
        let exact = |key: u64, c: [f64; N]| -> Vec<ObjId> {
            let rows = reference.list(&key).into_iter().flat_map(|l| l.rows());
            rows.filter(|(_, b)| (0..N).all(|col| b[col] >= c[col]))
                .map(|(id, _)| id)
                .collect()
        };
        let arena = Postings::freeze(reference.clone(), Storage::Arena);
        let packed = Postings::freeze(reference.clone(), Storage::Compressed);
        assert_eq!(arena.storage(), Storage::Arena);
        assert_eq!(packed.storage(), Storage::Compressed);
        assert!(arena.arena().is_some() && arena.compressed().is_none());
        assert!(packed.arena().is_none() && packed.compressed().is_some());
        assert_eq!(arena.max_object_id(), Some(299));
        assert_eq!(packed.max_object_id(), Some(299));
        assert!(packed.size_bytes() < arena.size_bytes());
        let (mut s1, mut s2) = (Vec::new(), Vec::new());
        for key in [0u64, 5, 9] {
            for c0 in [0.0, 250.0, 999.0, 1e9] {
                let c: [f64; N] = std::array::from_fn(|col| c0 / (1 + 2 * col) as f64);
                let want = exact(key, c);
                assert_eq!(arena.qualifying_into(&key, c, &mut s1), &want[..]);
                let got = packed.qualifying_into(&key, c, &mut s2);
                assert!(want.iter().all(|id| got.contains(id)), "key {key} c {c:?}");
            }
        }
    }

    #[test]
    fn one_probe_contract_for_both_forms_and_bound_counts() {
        both_forms_agree::<1>();
        both_forms_agree::<2>();
    }

    #[test]
    #[should_panic(expected = "freeze requires a finalized arena")]
    fn staged_postings_refuse_to_freeze() {
        let mut arena: Arena<u64, 1> = Arena::new();
        arena.push(1, 0, 1.0);
        let _ = Postings::freeze(arena, Storage::Arena);
    }
}

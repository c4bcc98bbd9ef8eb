//! # seal-index — threshold-bounded inverted indexes for SEAL
//!
//! SEAL's filtering algorithms (Sections 3–5 of the paper) all run on
//! inverted indexes whose posting lists are *augmented with threshold
//! bounds* (Lemma 3): each posting `(o, c_s(o))` stores the maximum
//! signature-similarity threshold for which element `s` still lies in
//! `o`'s signature prefix. Lists are sorted in **descending bound
//! order**, so, given a query threshold `c`, the qualifying postings
//! `I_c(s) = {o ∈ I(s) | c_s(o) ≥ c}` are exactly a list prefix that a
//! binary search finds in `O(log n)` — the "Inverted Index with
//! Threshold Bounds" of Section 4.2.
//!
//! The crate provides:
//!
//! * [`InvertedIndex`] / [`HybridIndex`] — keyed posting collections
//!   frozen into **columnar (structure-of-arrays) arenas**: one id
//!   column plus one (or two) bound columns per arena, so the
//!   qualifying cut scans a dense bound column ([`bound_cut`], chunked
//!   and auto-vectorizable) and returns ids straight from the id
//!   column. Byte-level size accounting (Table 1 reports index sizes)
//!   and binary serialization included.
//! * [`Posting`] / [`DualPosting`] — the logical posting structs, used
//!   for staging/sorting and as materialized rows of the columnar
//!   views ([`PostingsView`] / [`DualPostingsView`]).
//! * [`CompressedInvertedIndex`] / [`CompressedHybridIndex`] — the
//!   same lists in one compressed arena (quantized `u16` bound
//!   columns + delta-coded, bit-packed 128-id blocks), served in place
//!   through a caller-owned id scratch buffer; both are one
//!   [`compress::CompressedArena`], see [`compress`] for the layout
//!   contract.
//! * [`Container`] / [`ContainerWriter`] — the checksummed `.seal`
//!   framing the engine persists its sections in; the index codec
//!   itself writes and reads exactly four kinds (SoA arenas 5/6,
//!   compressed arenas 7/8).
//! * [`bound_cut`] — the one shared qualifying-cut path: every probe
//!   (uncompressed, compressed) goes through it or its quantized twin.
//!
//! Object identifiers are bare `u32`s here ([`ObjId`]); the `seal-core`
//! crate wraps them in its typed `ObjectId`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod columns;
pub mod compress;
pub mod container;
mod csr;
mod hybrid;
mod inverted;
pub mod parallel;
mod posting;
mod serialize;

pub use columns::{DualPostingsView, PostingsView};
pub use compress::{CompressedHybridIndex, CompressedInvertedIndex};
pub use container::{Container, ContainerError, ContainerWriter};
pub use csr::bound_cut;
pub use hybrid::HybridIndex;
pub use inverted::InvertedIndex;
pub use posting::{DualPosting, Posting};
pub use serialize::{IndexCodecError, IndexKey};

/// A dense object identifier (row number in the object store).
pub type ObjId = u32;

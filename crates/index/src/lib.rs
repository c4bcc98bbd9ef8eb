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
//! * [`Arena<K, N>`](Arena) — the one uncompressed index: keyed posting
//!   lists with `N` bounds per posting, pushed, then frozen once into a
//!   **columnar (structure-of-arrays) arena** — one id column plus `N`
//!   bound columns — so the qualifying cut scans a dense bound column
//!   ([`bound_cut`], chunked and auto-vectorizable) and returns ids
//!   straight from the id column. [`InvertedIndex`] is `N = 1` (token
//!   and grid lists), [`HybridIndex`] is `N = 2` (hybrid lists: a
//!   spatial and a textual bound). Byte-level size accounting (Table 1
//!   reports index sizes) and binary serialization included.
//! * [`CompressedArena<K, N>`](compress::CompressedArena) — the same
//!   lists compressed once into one arena (quantized `u16` bound
//!   columns + delta-coded, bit-packed 128-id blocks) and served in
//!   place through a caller-owned id scratch buffer
//!   ([`CompressedInvertedIndex`] / [`CompressedHybridIndex`]); see
//!   [`compress`] for the layout contract.
//! * [`Postings<K, N>`](Postings) — either of the two behind one probe
//!   contract, chosen by a [`Storage`] value: what a filter holds.
//! * [`Container`] / [`ContainerWriter`] — the checksummed `.seal`
//!   framing the engine persists its sections in; the index codec
//!   itself writes and reads exactly four kinds (SoA arenas 5/6,
//!   compressed arenas 7/8).
//! * [`Reader`](container::Reader) — the one checked little-endian
//!   cursor every persisted byte is read through: the container's own
//!   framing, the engine's sections and the index codec. A shortfall,
//!   an oversized declared count or a trailing byte is a typed error by
//!   construction.
//!
//! Object identifiers are bare `u32`s here ([`ObjId`]); the `seal-core`
//! crate wraps them in its typed `ObjectId`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
pub mod compress;
pub mod container;
mod cut;
pub mod parallel;
mod postings;
mod serialize;

pub use arena::{Arena, GroupedRow, HybridIndex, InvertedIndex, PostingsView, RowBuffer};
pub use compress::{CompressedHybridIndex, CompressedInvertedIndex};
pub use container::{Container, ContainerError, ContainerWriter};
pub use cut::bound_cut;
pub use postings::{Postings, Storage};
pub use serialize::{IndexCodecError, IndexKey};

/// A dense object identifier (row number in the object store).
pub type ObjId = u32;

//! # seal-text — text substrate for SEAL
//!
//! SEAL's textual side (Section 2.1, Definition 2) models every object's
//! description as a *weighted token set*: tokens are weighted by inverse
//! document frequency `w(t) = ln(|O| / count(t, O))` and compared with
//! the weighted Jaccard coefficient. This crate provides that machinery
//! from scratch:
//!
//! * [`TokenId`] / [`Dictionary`] — string interning so the search
//!   structures deal only in dense `u32` ids.
//! * [`TokenSet`] — a sorted, deduplicated token-id set with fast merge
//!   intersections.
//! * [`IdfWeights`] / [`TokenWeights`] — corpus-derived idf weighting
//!   exactly as the paper defines it, plus the trait the similarity
//!   is generic over.
//! * [`similarity`] — weighted Jaccard (Definition 2) and the signature
//!   threshold `c_T` derived from it (§3.2).
//! * [`GlobalTokenOrder`] — the global signature-element order needed by
//!   prefix filtering (§4.2: "we can sort tokens in descending order of
//!   their idfs").
//! * [`tokenize`] — a small text tokenizer used by the examples and the
//!   synthetic data generators.
//!
//! ```
//! use seal_text::{Dictionary, IdfWeights, TokenSet, similarity};
//!
//! let mut dict = Dictionary::new();
//! let docs = vec![
//!     dict.intern_all(["mocha", "coffee"]),
//!     dict.intern_all(["mocha", "coffee", "starbucks"]),
//!     dict.intern_all(["starbucks", "ice", "tea"]),
//! ];
//! let weights = IdfWeights::from_corpus(dict.len(), docs.iter());
//! let q = TokenSet::from_ids(docs[1].iter().copied());
//! let o = TokenSet::from_ids(docs[0].iter().copied());
//! let sim = similarity::weighted_jaccard(&q, &o, &weights);
//! assert!(sim > 0.0 && sim < 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dict;
mod order;
pub mod similarity;
mod token;
mod tokenize;
mod weights;

pub use dict::Dictionary;
pub use order::GlobalTokenOrder;
pub use token::{TokenId, TokenSet};
pub use tokenize::{tokenize, Tokenizer};
pub use weights::{IdfWeights, TokenWeights, UniformWeights};

//! # seal-datagen — synthetic workloads for the SEAL experiments
//!
//! The paper evaluates on two datasets we cannot redistribute:
//!
//! * **Twitter** — 1M user ROIs mined from 13M geotagged tweets:
//!   per-user active regions (MBRs of their tweets, avg 115 km², with a
//!   published heavy-tailed size distribution) and frequent-word token
//!   sets (avg 14.3 tokens).
//! * **USA** — 1M POI-centred regions (random extents, avg ~5 km²)
//!   with DBLP publication records as token sets (avg 12.5 tokens).
//!
//! This crate builds the closest synthetic equivalents (the datasets
//! of `PAPER.md` §6): spatially clustered regions whose
//! area distribution is fitted to the paper's published quantiles, and
//! Zipf-distributed token sets with topic locality. It also generates
//! the paper's two query workloads (large-region / small-region).
//!
//! Everything is deterministic given a seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod io;
mod queries;
mod twitter;
mod usa;
mod zipf;

pub use queries::{generate as generate_queries, QueryParams, QuerySpec, RawQuery};
pub use twitter::{twitter_like, TwitterParams};
pub use usa::{usa_like, UsaParams};
pub use zipf::Zipf;

use seal_geom::Rect;
use seal_text::TokenId;

/// A raw generated object: a region plus token ids. `seal-core` turns a
/// batch of these into an `ObjectStore` (this crate deliberately does
/// not depend on `seal-core`, so `seal-core`'s tests can depend on it).
#[derive(Debug, Clone, PartialEq)]
pub struct RawObject {
    /// The object's MBR.
    pub region: Rect,
    /// The object's token ids (may contain duplicates; the store
    /// deduplicates).
    pub tokens: Vec<TokenId>,
}

/// A generated dataset: objects plus the vocabulary size they draw
/// from.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// The generated objects.
    pub objects: Vec<RawObject>,
    /// Number of distinct token ids used.
    pub vocab_size: usize,
    /// Human-readable name ("twitter-like" / "usa-like").
    pub name: &'static str,
}

impl Dataset {
    /// Average region area (diagnostic; compare to the paper's 115 /
    /// 5.4 km² after scaling).
    pub fn avg_region_area(&self) -> f64 {
        if self.objects.is_empty() {
            return 0.0;
        }
        self.objects.iter().map(|o| o.region.area()).sum::<f64>() / self.objects.len() as f64
    }

    /// Average token count per object.
    pub fn avg_token_count(&self) -> f64 {
        if self.objects.is_empty() {
            return 0.0;
        }
        self.objects.iter().map(|o| o.tokens.len()).sum::<usize>() as f64
            / self.objects.len() as f64
    }
}

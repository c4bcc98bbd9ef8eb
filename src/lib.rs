//! # seal — facade over the SEAL workspace
//!
//! A Rust reproduction of *SEAL: Spatio-Textual Similarity Search*
//! (Fan, Li, Zhou, Chen, Hu — PVLDB 5(9), 2012), grown toward a
//! production-scale serving system. This crate re-exports the
//! workspace's public surface; the implementation lives in the
//! `crates/` members:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`core`](seal_core) | engine, filters, signatures |
//! | [`index`](seal_index) | arena-backed threshold-bounded inverted indexes |
//! | [`geom`](seal_geom) / [`text`](seal_text) | geometry and token primitives |
//! | [`datagen`](seal_datagen) | synthetic datasets + query workloads |
//!
//! ## The batch-serving pattern
//!
//! The query path is **zero-contention**: filters keep no internal
//! locks, and all per-query scratch lives in a
//! [`QueryContext`](seal_core::QueryContext). `SealEngine::search`
//! keeps one per thread, so a warm query allocates nothing but its
//! answers; `search_batch(&queries, threads)` runs `search` on
//! work-stealing workers and returns the results in input order:
//!
//! ```
//! use seal_core::{FilterKind, ObjectStore, Query, SealEngine};
//! use seal_geom::Rect;
//! use std::sync::Arc;
//!
//! let store = ObjectStore::from_labeled(vec![
//!     (Rect::new(0.0, 0.0, 40.0, 40.0).unwrap(), vec!["coffee", "mocha"]),
//!     (Rect::new(10.0, 10.0, 50.0, 50.0).unwrap(), vec!["coffee", "starbucks", "mocha"]),
//!     (Rect::new(80.0, 80.0, 120.0, 120.0).unwrap(), vec!["tea", "ice"]),
//! ]);
//! let engine = SealEngine::build(Arc::new(store), FilterKind::seal_default());
//!
//! let dict = engine.store().dictionary().unwrap();
//! let q = Query::with_token_ids(
//!     Rect::new(5.0, 5.0, 45.0, 45.0).unwrap(),
//!     ["coffee", "mocha"].iter().filter_map(|t| dict.get(t)),
//!     0.3,
//!     0.3,
//! ).unwrap();
//! assert_eq!(engine.search(&q).answers.len(), 2);
//! let batch = engine.search_batch(&[q.clone(), q], 2);
//! assert!(batch.iter().all(|r| r.answers.len() == 2));
//! ```
//!
//! `SealEngine::search_with_ctx` takes a caller-owned context instead.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use seal_core;
pub use seal_datagen;
pub use seal_geom;
pub use seal_index;
pub use seal_text;

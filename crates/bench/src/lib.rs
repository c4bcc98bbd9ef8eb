//! # seal-bench — shared harness utilities for the SEAL experiments.
//!
//! Each binary in `src/bin/` reproduces one table or figure of the
//! paper; this library holds the shared scaffolding (dataset caching,
//! timing, table printing). The experiments are those of the paper's
//! evaluation (`PAPER.md`, §6: Table 1, Figures 12–18); serving-side
//! numbers come from the `benchmark/` package instead.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod data;
pub mod figures;
pub mod harness;

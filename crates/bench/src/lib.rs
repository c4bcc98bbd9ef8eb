//! # seal-bench — the paper's evaluation as cost-counter rows.
//!
//! [`sweep::run`] regenerates Table 1 and Figures 12–18 of the paper's
//! evaluation (`PAPER.md`, §6) as JSON-lines rows of the machine-
//! independent costs `SearchStats` counts (π₁'s postings, π₂'s
//! candidates) plus index bytes. The `repro` binary prints them;
//! `tests/reproduction.rs` asserts each figure's qualitative claim on
//! them and pins them against the recorded `REPRODUCTION.json`.
//! Serving-side timing belongs to the `benchmark/` package.
//!
//! [`baselines`] holds the paper's §2.3 comparison points —
//! Keyword-first, Spatial-first and the IR-tree — which the sweep runs
//! beside the engine's filters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod data;
pub mod sweep;

//! `umpa-analysis` — the statistical toolkit of Section IV-E.
//!
//! The paper regresses measured execution times on 14 partitioning and
//! mapping metrics with MATLAB's `lsqnonneg` (nonnegative least
//! squares) after column standardization, and cross-checks with
//! pairwise Pearson correlations. This crate implements that pipeline
//! from scratch:
//!
//! * [`mod@nnls`] — Lawson–Hanson active-set NNLS;
//! * [`stats`] — column standardization, Pearson correlation,
//!   geometric means (the aggregation used by Figures 1–3 and Table I).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod nnls;
pub mod stats;

pub use nnls::{nnls, Matrix};
pub use stats::{geometric_mean, pearson, standardize_columns};

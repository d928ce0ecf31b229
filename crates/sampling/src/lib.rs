//! Sampling and sample-based estimation (Sections 2.1, 2.2, 3.4, 4.5).
//!
//! * [`Sample`] — a uniform without-replacement sample of a table region,
//!   stored as a mini-table plus the population size it represents;
//! * [`estimator`] — the φ-transform point estimators and their variances
//!   for SUM / COUNT / AVG (Equations 1–4), with finite-population
//!   correction — the readable reference the kernels are tested against,
//!   called from tests and benches only;
//! * [`kernel`] — the allocation-free, column-at-a-time scan kernels the
//!   serving hot path runs on: a reusable [`ScanScratch`] with branchless
//!   mask builds, four-query lockstep batch evaluation, and a
//!   binary-search fast path for sorted 1-D samples, all bit-identical to
//!   [`estimator`]'s sums. They yield [`PointVariance`], the estimator
//!   state every sampling engine answers from, whose `from_phi` is the one
//!   interval policy and `evaluate` the one place λ turns a variance into
//!   a confidence interval;
//! * [`arena`] — [`SampleArena`], the whole sample set flattened into one
//!   cache-resident allocation, handing the kernels borrowed
//!   [`SampleView`]s so partial-leaf scans stop chasing per-`Sample` heap
//!   pointers;
//! * [`stratified`] — the Section 2.2 weighted combination of
//!   per-stratum states into one.

#![deny(unsafe_code)]

pub mod arena;
pub mod estimator;
pub mod kernel;
pub mod sample;
pub mod snapshot;
pub mod stratified;

pub use arena::SampleArena;
pub use kernel::{with_scratch, PointVariance, SampleView, ScanScratch};
pub use sample::Sample;
pub use stratified::{combine_strata, StratumEstimate};

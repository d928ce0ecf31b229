//! Partitioning optimizers — the paper's Section 4 and Appendix A.
//!
//! The quality of a PASS synopsis is decided by its leaf partitioning: the
//! optimizer minimizes the *maximum* variance of any query that partially
//! overlaps a partition. This crate contains the full algorithm family:
//!
//! * [`spec`] — the [`spec::Partitioning1D`] representation
//!   (cut positions over a sorted table) and the [`Partitioner1D`] trait;
//! * [`variance`] — the `V_i(q)` variance oracles of Section 4.2.1, O(1)
//!   per query over prefix sums;
//! * [`maxvar`] — maximum-variance-query routines: exhaustive reference,
//!   the median-split ¼-approximation for SUM/COUNT (Lemma A.3), and the
//!   δm-window index for AVG (Appendix A.4);
//! * [`dp`] — the dynamic program `Adp`: the sampled + discretized
//!   O(km log m) program used in all experiments, with a binary `h` search
//!   (Appendix A.5);
//! * [`equal`] — equal-depth (EQ), also the COUNT-optimal partitioning
//!   (Lemma A.1), and equal-width baselines;
//! * [`hill_climb`] — the AQP++ hill-climbing comparator;
//! * [`kd`] — balanced k-d trees with greedy max-variance expansion
//!   (KD-PASS) and breadth-first expansion (KD-US) for d > 1 (Section 4.4).

#![forbid(unsafe_code)]

pub mod dp;
pub mod equal;
pub mod hill_climb;
pub mod kd;
pub mod maxvar;
pub mod spec;
pub mod variance;

pub use dp::Adp;
pub use equal::{EqualDepth, EqualWidth};
pub use hill_climb::HillClimb;
pub use kd::{build_kd, KdBuild, KdExpansion, KdNodeInfo};
pub use spec::{Partitioner1D, Partitioning1D};
pub use variance::VarianceOracle;

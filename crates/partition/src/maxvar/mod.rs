//! Maximum-variance-query routines (the paper's function `M`, Section 4.3
//! and Appendix A.2–A.4).
//!
//! Given a candidate partition `[lo, hi)` the optimizer needs (an
//! approximation of) the maximum `V_i(q)` over all meaningful queries `q`
//! fully inside it:
//!
//! * [`Exhaustive`] — the exact O(len²) enumeration (the strawman `M`);
//!   the ground truth of the exact test DPs and of the
//!   approximation-factor tests;
//! * [`MedianSplit`] — the SUM/COUNT discretization of Lemma A.3: check
//!   only the two median halves; a ¼-approximation of the max variance in
//!   O(1);
//! * [`WindowIndex`] — the AVG discretization of Appendix A.4: Lemma A.4
//!   shows the max-variance AVG query spans fewer than `2δm` samples, so
//!   pre-score all `δm`-length windows once and serve range-max queries
//!   from an idempotent sparse table in O(1); a ¼-approximation.

mod exhaustive;
mod kd_avg;
mod median_split;
mod sparse;
mod window;

pub use exhaustive::Exhaustive;
pub use kd_avg::{max_avg_variance_kd, KdAvgResult};
pub use median_split::MedianSplit;
pub use sparse::SparseArgmaxTable;
pub use window::WindowIndex;

/// An oracle producing (an approximation of) the maximum query variance
/// inside a row range of the (sorted) underlying sequence.
///
/// `max_variance` must be a pure function of `(lo, hi)`: the DP engine
/// ([`dp_cuts`](crate::dp::dp_cuts)) evaluates each range it probes once
/// and reuses the value for every later probe of the same range.
pub trait MaxVarOracle {
    /// Max (approximate) `V_i(q)` over meaningful queries inside `[lo, hi)`.
    fn max_variance(&self, lo: usize, hi: usize) -> f64;
}

//! Workload generation, ground truth, and the Section 5 metrics.
//!
//! * [`query_gen`] — random rectangular queries grounded on data values
//!   (with the δN meaningful-overlap guarantee), the "challenging" queries
//!   of Section 5.3 (drawn from the maximum-variance window), and the
//!   multi-dimensional templates Q1–Q5 of Section 5.4;
//! * [`truth`] — exact ground-truth evaluation (O(log n) in 1-D via sorted
//!   prefix sums, scan otherwise);
//! * [`metrics`] — the median and the [`WorkloadSummary`] row the
//!   benchmark tables print.
//!
//! This crate drives no engine: `pass::Session::run_workload` answers a
//! query list on every engine of a session and scores it into these rows.

#![forbid(unsafe_code)]

pub mod metrics;
pub mod query_gen;
pub mod truth;

pub use metrics::{median, WorkloadSummary};
pub use query_gen::{
    challenging_queries, random_queries, random_queries_in, template_queries,
    template_queries_partial,
};
pub use truth::Truth;

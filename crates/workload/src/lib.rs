//! Workload generation, ground truth, and the Section 5 metrics.
//!
//! * [`query_gen`] — random rectangular queries grounded on data values
//!   (with the δN meaningful-overlap guarantee), the "challenging" queries
//!   of Section 5.3 (drawn from the maximum-variance window), and the
//!   multi-dimensional templates Q1–Q5 of Section 5.4;
//! * [`truth`] — exact ground-truth evaluation (O(log n) in 1-D via sorted
//!   prefix sums, scan otherwise);
//! * [`metrics`] — median relative error, CI ratio, skip rate, effective
//!   sample size;
//! * [`runner`] — evaluates any [`pass_common::Synopsis`] over a workload
//!   (per-query, batched, or sharded across a
//!   [`pass_common::ThreadPool`] — selected by an [`Exec`] value) and
//!   produces the summary rows the benchmark tables print, including
//!   serving-layer throughput.

pub mod metrics;
pub mod query_gen;
pub mod runner;
pub mod truth;

pub use metrics::{median, WorkloadSummary};
pub use query_gen::{
    challenging_queries, random_queries, random_queries_in, template_queries,
    template_queries_partial,
};
pub use runner::{run_workload, Exec, QueryOutcome};
pub use truth::Truth;

//! PASS — Precomputation-Assisted Stratified Sampling (the paper's core
//! contribution, Sections 3–4).
//!
//! A [`Pass`] synopsis is a partition tree annotated with exact
//! SUM/COUNT/MIN/MAX aggregates per node and stratified samples at the
//! leaves. Queries are processed by the Minimal Coverage Frontier search
//! ([`mcf::mcf`]): partitions fully covered by the predicate are answered
//! exactly from the aggregates, partially covered leaves are estimated from
//! their stratified samples, and the two parts combine into a point
//! estimate, a CLT confidence interval, and deterministic hard bounds.
//!
//! Build one with [`Pass::from_spec`] from a [`pass_common::PassSpec`] (the
//! form the engine registry and `pass::Session` use). `estimate` and
//! `estimate_many` run the same
//! per-query path on the calling thread's reusable [`McfScratch`]
//! (traversal stack, frontier, scan and combination buffers), so a batch — or a
//! stream of single queries — runs allocation-free once warm;
//! `pass_common::estimate_many_parallel` shards a batch across a
//! `pass_common::ThreadPool`, each worker thread riding its own scratch,
//! bit-identical to the sequential paths (the synopsis is immutable at
//! query time — `Synopsis` requires `Send + Sync` — so traversals
//! parallelize without locks):
//!
//! ```
//! use pass_core::Pass;
//! use pass_common::{AggKind, PassSpec, Query, Synopsis};
//! use pass_table::datasets::uniform;
//!
//! let table = uniform(10_000, 42);
//! let spec = PassSpec {
//!     partitions: 32,
//!     sample_rate: 0.01,
//!     ..PassSpec::default()
//! };
//! let pass = Pass::from_spec(&table, &spec).unwrap();
//! assert_eq!(pass.spec(), pass_common::EngineSpec::Pass(spec));
//!
//! let q = Query::interval(AggKind::Sum, 0.2, 0.7);
//! let est = pass.estimate(&q).unwrap();
//! let truth = table.ground_truth(&q).unwrap();
//! assert!((est.value - truth).abs() / truth < 0.2);
//!
//! // Batched: shared traversal buffers for all three, identical results.
//! let batch = vec![
//!     Query::interval(AggKind::Sum, 0.1, 0.4),
//!     Query::interval(AggKind::Count, 0.3, 0.9),
//!     Query::interval(AggKind::Avg, 0.5, 0.6),
//! ];
//! for (q, res) in batch.iter().zip(pass.estimate_many(&batch)) {
//!     assert_eq!(res.unwrap().value, pass.estimate(q).unwrap().value);
//! }
//! ```

#![forbid(unsafe_code)]

pub mod bounds;
pub mod mcf;
mod query;
pub mod snapshot;
pub mod synopsis;
pub mod tree;
pub mod update;

pub use mcf::{mcf, McfResult, McfScratch};
pub use synopsis::{PartitionStrategy, Pass};
pub use tree::{NodeId, PartitionTree};

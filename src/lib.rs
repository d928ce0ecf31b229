//! # PASS — Precomputation-Assisted Stratified Sampling
//!
//! Reproduction of "Combining Aggregation and Sampling (Nearly) Optimally
//! for Approximate Query Processing" (SIGMOD 2021), grown into a unified
//! multi-engine AQP workspace.
//!
//! The public API has four layers:
//!
//! 1. **[`EngineSpec`]** (from [`pass_common`]) — declarative, plain-data
//!    configuration for every engine: PASS and the six Section 5 baselines
//!    (US, ST, AQP++/KD-US, VerdictDB-style, DeepDB-style). Specs compare,
//!    clone, and round-trip through JSON.
//! 2. **The [`Synopsis`] contract** — every engine answers single queries
//!    (`estimate`) and batches (`estimate_many`; PASS reuses its index-
//!    traversal state across the whole batch), and reports the spec it was
//!    built from (`spec`). Synopses are immutable at query time and
//!    `Send + Sync`, so [`common::estimate_many_parallel`] shards any
//!    engine's batch over a [`ThreadPool`]; the registry hands engines
//!    out as `Arc<dyn Synopsis>`.
//! 3. **[`Session`]** — owns a table plus named engines built from specs,
//!    answers queries through a bounded per-engine result cache, hands out
//!    cheap clones of each cached engine ([`Session::handle`]) for
//!    concurrent serving, and scores a workload on every engine in one
//!    [`Session::run_workload`] call, with ground truth computed once and
//!    shared across engines.
//! 4. **[`Serve`]** — the async-style serving front-end over one or
//!    more of a session's cached engines: submissions return pollable
//!    [`Ticket`]s, a bounded two-priority queue applies admission control
//!    (rejection at capacity, per-request deadlines, interactive-over-bulk
//!    ordering with FIFO order within a class),
//!    [`Session::serve_multi`] routes requests to named engines through
//!    one shared queue, queued requests coalesce into the engines'
//!    batched fast path (identical queries in a batch are computed
//!    once), and [`ServeStats`] reports counts (per engine too), queue
//!    high-water, and p50/p99 latency.
//!
//! Group-bys are first-class across every layer: a
//! [`GroupByQuery`] (paper Section 4.5 — one equality rectangle per
//! category over a group dimension, a shared predicate rectangle on the
//! rest) is answered by every engine through
//! [`common::estimate_group_by`] / [`Session::group_by`] (a batch of
//! selection queries through the engine's `estimate_many`, so PASS
//! answers it on its shared MCF scratch), and served as one plain
//! request: [`Serve::submit`] takes its
//! [`queries`](GroupByQuery::queries) and
//! [`rows`](GroupByQuery::rows) turns the results into the same rows,
//! cached and coalesced like any other request.
//!
//! ```
//! use pass::{EngineSpec, Session};
//! use pass::common::{AggKind, PassSpec, Query};
//! use pass::table::datasets::uniform;
//!
//! // One session, two engines, declaratively configured.
//! let mut session = Session::new(uniform(20_000, 42));
//! session
//!     .add_engine(
//!         "pass",
//!         &EngineSpec::Pass(PassSpec {
//!             partitions: 32,
//!             sample_rate: 0.01,
//!             ..PassSpec::default()
//!         }),
//!     )
//!     .unwrap();
//! session.add_engine("us", &EngineSpec::uniform(1_000)).unwrap();
//!
//! // Single query with a confidence interval and hard bounds.
//! let q = Query::interval(AggKind::Sum, 0.2, 0.7);
//! let est = session.estimate("pass", &q).unwrap();
//! let truth = session.ground_truth(&q).unwrap();
//! assert!((est.value - truth).abs() / truth < 0.2);
//!
//! // Batched queries reuse PASS's tree traversal across the batch.
//! let batch: Vec<Query> = (0..8)
//!     .map(|i| Query::interval(AggKind::Count, i as f64 * 0.1, i as f64 * 0.1 + 0.2))
//!     .collect();
//! let results = session.estimate_many("pass", &batch).unwrap();
//! assert_eq!(results.len(), 8);
//!
//! // Engines round-trip their specs.
//! assert_eq!(session.spec("us"), Some(EngineSpec::uniform(1_000)));
//! ```
//!
//! The sub-crates remain available for direct use: [`core`] holds the
//! PASS synopsis itself (`Pass::from_spec` for concrete-typed access,
//! e.g. streaming updates), [`baselines`] the comparator engines and the
//! [`Engine`] registry, and [`workload`] the query generators, the
//! ground-truth oracle and the [`workload::WorkloadSummary`] row that
//! [`Session::run_workload`] fills.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use pass_baselines as baselines;
pub use pass_common as common;
pub use pass_core as core;
pub use pass_partition as partition;
pub use pass_sampling as sampling;
pub use pass_table as table;
pub use pass_workload as workload;

pub mod serve;
mod session;

pub use pass_baselines::Engine;
pub use pass_common::{
    CacheStats, EngineSpec, GroupByQuery, GroupResult, PassSpec, Priority, ServeOutcome, ShardPlan,
    Synopsis, ThreadPool, Ticket,
};
pub use serve::{EngineServeStats, Serve, ServeConfig, ServeStats, SubmitOptions};
pub use session::{Session, DEFAULT_CACHE_CAPACITY};

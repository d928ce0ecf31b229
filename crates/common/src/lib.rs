//! Shared foundation for the PASS approximate-query-processing workspace.
//!
//! PASS (SIGMOD 2021, "Combining Aggregation and Sampling (Nearly)
//! Optimally for Approximate Query Processing") combines a precomputed
//! aggregate tree with per-partition stratified samples. This crate holds
//! the vocabulary types every other crate speaks:
//!
//! * [`Query`] / [`Rect`] — rectangular aggregate queries over a predicate
//!   space (paper Section 3.1);
//! * [`AggKind`] / [`Aggregates`] — the five supported aggregates and the
//!   mergeable per-partition statistics (SUM, COUNT, MIN, MAX — Section 2.3);
//! * [`Estimate`] and the [`Synopsis`] trait — the engine-agnostic contract
//!   every AQP engine (PASS and the Section 5 baselines) implements, with
//!   single ([`Synopsis::estimate`]) and batched
//!   ([`Synopsis::estimate_many`]) entry points, plus
//!   [`estimate_many_parallel`] to shard any engine's batch over a pool;
//! * [`EngineSpec`] / [`PassSpec`] — declarative engine configuration, the
//!   input to the engine registry (`pass_baselines::Engine`) and the
//!   `pass::Session` facade, JSON round-trippable via [`json`];
//! * the sharding vocabulary: [`ShardPlan`] (how one logical table is cut
//!   into disjoint shards) and the shard merge: [`partial::merge_available`]
//!   reduces the shards' plain answers to one query (COUNT, SUM, MIN, MAX),
//!   and a sharded AVG is [`partial::ratio`] of the merged COUNT and SUM;
//! * the group-by surface (paper Section 4.5): [`GroupByQuery`] expands
//!   one equality rectangle per category, [`estimate_group_by`] answers
//!   it through any engine's `estimate_many` with the group availability
//!   rule ([`apply_group_availability`]) applied per row;
//! * the serving-layer building blocks: a dependency-free chunk-stealing
//!   worker pool ([`ThreadPool`]), a bounded query-result cache
//!   ([`QueryCache`] / [`CachedSynopsis`]), and the async-serving
//!   primitives behind `pass::Serve` — a bounded two-priority request
//!   queue ([`RequestQueue`]), one completion ticket ([`Ticket`]) for
//!   every served request, resolving to a [`ServeOutcome`], and a
//!   fixed-bucket latency histogram ([`LatencyHistogram`]);
//! * numeric kernels: compensated summation ([`kahan`]), prefix sums
//!   ([`prefix`]), and statistics helpers ([`stats`]);
//! * deterministic RNG construction ([`rng`]);
//! * versioned binary snapshots of built engines ([`snapshot`]):
//!   [`Synopsis::save`] writes a self-describing byte string
//!   (spec header + checksummed state sections) that the registry's
//!   `Engine::load` turns back into a bit-identical engine.
//!
//! Nothing here depends on any particular storage layout or estimator; those
//! live in `pass-table`, `pass-sampling`, `pass-partition`, and `pass-core`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod agg;
pub mod cache;
pub mod chaos;
pub mod error;
pub mod estimate;
pub mod histogram;
pub mod json;
pub mod kahan;
pub mod partial;
pub mod pool;
pub mod prefix;
pub mod query;
pub mod queue;
pub mod rng;
pub mod snapshot;
pub mod spec;
pub mod stats;
pub mod synopsis;
pub mod ticket;

pub use agg::{AggKind, Aggregates};
pub use cache::{CacheStats, CachedSynopsis, QueryCache, QueryKey};
pub use error::{check_dims, PassError, Result};
pub use estimate::Estimate;
pub use histogram::{LatencyHistogram, HISTOGRAM_BUCKETS};
pub use json::Json;
pub use kahan::KahanSum;
pub use partial::PartialEstimate;
pub use pool::ThreadPool;
pub use prefix::PrefixSums;
pub use query::{apply_group_availability, GroupByQuery, GroupResult, Query, Rect, RectRelation};
pub use queue::{Priority, PushError, RequestQueue};
pub use snapshot::{SnapshotError, SnapshotReader, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
pub use spec::{EngineSpec, JoinSpec, PartitionStrategy, PassSpec, ShardPlan};
pub use stats::LAMBDA_99;
pub use synopsis::{estimate_group_by, estimate_many_parallel, Synopsis, PARALLEL_MIN_BATCH};
pub use ticket::{ServeOutcome, Ticket, TicketSlot, TicketWake};

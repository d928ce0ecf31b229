//! The benchmark's API surface: the **only** file that names library
//! items. Every other module imports from here, so the set of public
//! functions the benchmark depends on is readable in one place — and a
//! later PR that renames one of them keeps a shim (or edits exactly this
//! file) instead of silently changing what is measured.
//!
//! Deliberately absent, because ROADMAP item 3 schedules them for
//! deletion: `pass::core::{mcf, mcf_shifted, mcf_batch}`, `PassForest`,
//! `Session::run_workload*`, every `Serve::submit*` variant other than
//! `submit_to`, and the `pass::sampling::estimator` reference module.

// Facade: sessions and the serving front-end.
// Session::{new, with_cache_capacity, add_engine, add_sharded_engine,
//           engine, estimate, estimate_many, estimate_many_parallel,
//           serve_multi, cache_stats}
// Serve::{submit_to, stats, shutdown}
pub use pass::{Serve, ServeConfig, ServeStats, Session};

// pass-common: specs, queries, answers, and the serving-tier primitives.
// Synopsis::{estimate, estimate_many, update_epoch, save, storage_bytes}
// QueryCache::{new, get_keyed, insert_keyed, epoch}, QueryKey::new
// RequestQueue::{new, try_push, pop_blocking}
// Ticket::{pending, wait}, TicketSlot::fulfill
// ThreadPool::{new, map_chunks}
// PartialEstimate::{from_local, merge_available}
// LatencyHistogram::{new, record}
pub use pass::common::rng::rng_from_seed;
pub use pass::common::{
    AggKind, CachedSynopsis, EngineSpec, Estimate, Json, LatencyHistogram, PartialEstimate,
    PartitionStrategy, PassSpec, Priority, Query, QueryCache, QueryKey, Rect, RequestQueue,
    ServeOutcome, ShardPlan, Synopsis, ThreadPool, Ticket,
};

// pass-table: tables, the sorted 1-D view, and the dataset generators.
// Table::{one_dim, project, split, ground_truth, n_rows, value,
//         predicate, values, predicate_column}
// SortedTable::{from_table, len}
pub use pass::table::datasets::{taxi, DatasetId};
pub use pass::table::{SortedTable, Table};

// pass-partition: the 1-D optimizers and the k-d expansion.
// Partitioner1D::partition, Adp::{new, with_samples, with_delta, with_seed}
pub use pass::partition::{build_kd, Adp, EqualDepth, KdExpansion, Partitioner1D};

// pass-sampling: samples, the flat arena, the scan kernels, the fold.
// Sample::{uniform, k, population}, SampleArena::from_samples
// ScanScratch::{new, estimate, estimate_batch}
pub use pass::sampling::{combine_strata, Sample, SampleArena, ScanScratch, StratumEstimate};

// pass-core: the PASS synopsis and its production traversal.
// Pass::{from_spec, insert, delete, tree, leaf_samples, total_samples}
// PartitionTree::from_partitioning, McfScratch::{default, run, result}
pub use pass::core::{McfScratch, PartitionTree, Pass};

// pass-baselines: the registry (build / snapshot load).
// Engine::{build, load}
pub use pass::baselines::Engine;

// pass-workload: query generators and the ground-truth oracle.
// Truth::{new, eval}
pub use pass::workload::{random_queries, template_queries, Truth};

//! The comparator AQP engines of Section 5.
//!
//! Every engine implements [`pass_common::Synopsis`], so `pass::Session`
//! builds, serves and scores them interchangeably with PASS:
//!
//! * [`UniformSynopsis`] (**US**) — one uniform sample + φ-estimators
//!   (Section 2.1);
//! * [`StratifiedSynopsis`] (**ST**) — equal-depth strata, per-stratum
//!   samples, weighted combination (Section 2.2);
//! * [`AqpPlusPlus`] (**AQP++** / **KD-US**) — precomputed partition
//!   aggregates (hill-climbing boundaries in 1-D, breadth-first k-d in
//!   d > 1) combined with a *uniform* sample for the uncovered gap
//!   [Peng et al. 2018];
//! * [`VerdictSynopsis`] — a VerdictDB-style scramble with variational
//!   subsampling CIs [Park et al. 2018];
//! * [`SpnSynopsis`] — a DeepDB-style sum-product network learned from the
//!   data [Hilprecht et al. 2019].
//!
//! The latter two stand in for the closed-source systems compared in
//! Table 2; docs/FIGURES.md ("Datasets are seeded look-alikes") names
//! what each stand-in keeps.
//!
//! Beyond the paper's comparison set, [`JoinSynopsis`] (**JOIN**)
//! answers a second *scenario family*: fact ⋈ dimension foreign-key
//! join aggregates (`pass_common::JoinSpec`), estimated from a
//! fact-side uniform sample joined against a hash-indexed dimension
//! side [Huang et al., *Joins on Samples*]. And [`ShardedSynopsis`] scales any of
//! the above horizontally: one logical table is cut into disjoint shards
//! (`pass_common::ShardPlan`), one inner engine is built per shard
//! (concurrently), and per-shard partial estimates merge behind the same
//! [`Synopsis`](pass_common::Synopsis) contract
//! (`EngineSpec::Sharded`).
//!
//! Engines (including PASS itself) are constructed through the
//! spec-driven registry [`Engine`]: call sites describe the engine with a
//! [`pass_common::EngineSpec`] and receive an `Arc<dyn Synopsis>` — an
//! immutable, thread-safe synopsis that any number of sessions and worker
//! threads can query concurrently ([`Synopsis`](pass_common::Synopsis)
//! requires `Send + Sync`). [`Engine::standard_suite`] yields the paper's
//! Section 5 comparison set in its canonical order (PASS, US, ST,
//! AQP++/KD-US, VerdictDB-style, DeepDB-style SPN); the suite's ordering
//! and display names are pinned by `tests/engine_contract.rs`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod aqppp;
pub mod engine;
pub mod join;
pub mod sharded;
pub(crate) mod snapshot;
pub mod spn;
pub mod st;
pub mod us;
pub mod verdict;

pub use aqppp::AqpPlusPlus;
pub use engine::Engine;
pub use join::JoinSynopsis;
pub use sharded::ShardedSynopsis;
pub use spn::SpnSynopsis;
pub use st::StratifiedSynopsis;
pub use us::UniformSynopsis;
pub use verdict::VerdictSynopsis;

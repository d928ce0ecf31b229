//! The engine registry: one constructor for every engine of the paper's
//! Section 5 evaluation.
//!
//! Call sites never invoke engine constructors directly; they describe the
//! engine with an [`EngineSpec`] and let [`Engine::build`] dispatch:
//!
//! ```
//! use pass_baselines::Engine;
//! use pass_common::{AggKind, EngineSpec, Query, Synopsis};
//! use pass_table::datasets::uniform;
//!
//! let table = uniform(10_000, 1);
//! let engine = Engine::build(&table, &EngineSpec::uniform(500)).unwrap();
//! let est = engine
//!     .estimate(&Query::interval(AggKind::Sum, 0.2, 0.8))
//!     .unwrap();
//! assert!(est.value > 0.0);
//! assert_eq!(engine.spec(), EngineSpec::uniform(500));
//! ```

use std::sync::Arc;

use pass_common::{EngineSpec, PassError, Result, Synopsis};
use pass_core::Pass;
use pass_table::Table;

use crate::{
    AqpPlusPlus, JoinSynopsis, ShardedSynopsis, SpnSynopsis, StratifiedSynopsis, UniformSynopsis,
    VerdictSynopsis,
};

/// Spec-driven constructor for every registered engine.
pub struct Engine;

impl Engine {
    /// Build the engine a spec describes, as a shared trait object.
    ///
    /// The spec must pass [`EngineSpec::validate`]. The returned synopsis
    /// reports it verbatim from [`Synopsis::spec`], so
    /// `Engine::build(t, &s)?.spec() == s`.
    ///
    /// Built synopses are immutable at query time and [`Synopsis`] requires
    /// `Send + Sync`, so the registry hands out `Arc`s: cloning one is a
    /// reference-count bump, and any number of threads or `pass::Session`
    /// handles can answer queries against the same synopsis concurrently.
    pub fn build(table: &Table, spec: &EngineSpec) -> Result<Arc<dyn Synopsis>> {
        spec.validate()?;
        Ok(match spec {
            EngineSpec::Pass(pass_spec) => Arc::new(Pass::from_spec(table, pass_spec)?),
            EngineSpec::Uniform { k, seed } => Arc::new(UniformSynopsis::build(table, *k, *seed)?),
            EngineSpec::Stratified { strata, k, seed } => {
                Arc::new(StratifiedSynopsis::build(table, *strata, *k, *seed)?)
            }
            EngineSpec::AqpPlusPlus {
                partitions,
                k,
                seed,
                tree_dims,
            } => Arc::new(AqpPlusPlus::build(
                table,
                *partitions,
                *k,
                *seed,
                tree_dims.as_deref(),
            )?),
            EngineSpec::Verdict { ratio, seed } => {
                Arc::new(VerdictSynopsis::build(table, *ratio, *seed)?)
            }
            EngineSpec::Spn { ratio, seed } => Arc::new(SpnSynopsis::build(table, *ratio, *seed)?),
            EngineSpec::Join(join_spec) => Arc::new(JoinSynopsis::build(table, join_spec)?),
            EngineSpec::Sharded { inner, plan } => {
                Arc::new(ShardedSynopsis::build(table, inner, plan)?)
            }
            EngineSpec::Opaque { name } => {
                return Err(PassError::InvalidParameter(
                    "spec",
                    format!("opaque spec `{name}` does not describe a buildable engine"),
                ))
            }
        })
    }

    /// Build several engines over one table, preserving order.
    pub fn build_all(table: &Table, specs: &[EngineSpec]) -> Result<Vec<Arc<dyn Synopsis>>> {
        specs.iter().map(|spec| Self::build(table, spec)).collect()
    }

    /// Reconstruct a previously saved engine from snapshot bytes
    /// ([`Synopsis::save`]) — the load-side mirror of [`Engine::build`],
    /// dispatching on the [`EngineSpec`] embedded in the snapshot header,
    /// which must pass [`EngineSpec::validate`] as a built spec must.
    ///
    /// The whole input must be consumed: trailing bytes after the last
    /// state section are rejected, and every section's checksum must
    /// verify, so `load(save(e))` either reproduces `e` bit-for-bit
    /// (answers included) or fails with a
    /// [`pass_common::SnapshotError`].
    pub fn load(bytes: &[u8]) -> Result<Arc<dyn Synopsis>> {
        let (spec, mut reader) = pass_common::snapshot::SnapshotReader::open(bytes)?;
        let engine = crate::snapshot::load_state(&spec, &mut reader)?;
        reader.finish()?;
        Ok(engine)
    }

    /// The standard Section 5 comparison suite at a shared sample budget
    /// `k`: PASS (storage-matched via `total_samples`, the BSS1x mode),
    /// US, ST, AQP++/KD-US, VerdictDB-10%, DeepDB-style SPN.
    pub fn standard_suite(partitions: usize, k: usize, seed: u64) -> Vec<EngineSpec> {
        use pass_common::PassSpec;
        vec![
            EngineSpec::Pass(PassSpec {
                partitions,
                total_samples: Some(k),
                seed,
                ..PassSpec::default()
            }),
            EngineSpec::uniform(k).with_seed(seed),
            EngineSpec::stratified(partitions, k).with_seed(seed),
            EngineSpec::aqppp(partitions, k).with_seed(seed),
            EngineSpec::verdict(0.1).with_seed(seed),
            EngineSpec::spn(0.5).with_seed(seed),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pass_common::{AggKind, PassSpec, Query, ShardPlan};
    use pass_table::datasets::uniform;

    #[test]
    fn every_spec_builds_and_round_trips() {
        let table = uniform(5_000, 1);
        for spec in Engine::standard_suite(16, 400, 3) {
            let engine = Engine::build(&table, &spec).unwrap();
            assert_eq!(engine.spec(), spec, "{}", engine.name());
        }
    }

    #[test]
    fn shifted_aqppp_spec_builds_kd_us() {
        let table = pass_table::datasets::taxi(3_000, 2)
            .project(&[1, 2, 3])
            .unwrap();
        let spec = EngineSpec::AqpPlusPlus {
            partitions: 16,
            k: 200,
            seed: 4,
            tree_dims: Some(vec![0, 1]),
        };
        let engine = Engine::build(&table, &spec).unwrap();
        assert_eq!(engine.name(), "KD-US");
        assert_eq!(engine.spec(), spec);
        assert_eq!(engine.dims(), 3);
    }

    #[test]
    fn a_tree_dims_naming_a_dimension_twice_is_refused() {
        let table = uniform(2_000, 3);
        let pass = EngineSpec::Pass(PassSpec {
            tree_dims: Some(vec![0, 0]),
            ..PassSpec::default()
        });
        let aqppp = EngineSpec::AqpPlusPlus {
            partitions: 32,
            k: 500,
            seed: 1,
            tree_dims: Some(vec![0, 0]),
        };
        for spec in [pass, aqppp] {
            assert!(
                matches!(
                    Engine::build(&table, &spec),
                    Err(PassError::InvalidParameter("dims", _))
                ),
                "{spec:?}"
            );
        }
    }

    /// A dimension index past the table is a parameter error naming the
    /// field, not a query-arity mismatch: a shifted build's `tree_dims`
    /// on a 3-D table, and a hash plan's `dim` on a 1-D table.
    #[test]
    fn a_dimension_index_past_the_table_names_its_field() {
        let table = pass_table::datasets::taxi(2_000, 2)
            .project(&[1, 2, 3])
            .unwrap();
        let pass = EngineSpec::Pass(PassSpec {
            tree_dims: Some(vec![7]),
            ..PassSpec::default()
        });
        let aqppp = EngineSpec::AqpPlusPlus {
            partitions: 16,
            k: 200,
            seed: 1,
            tree_dims: Some(vec![7]),
        };
        for spec in [pass, aqppp] {
            match Engine::build(&table, &spec) {
                Err(PassError::InvalidParameter("dims", why)) => {
                    assert!(why.contains('3'), "{why}")
                }
                other => panic!("{spec:?}: {:?}", other.err()),
            }
        }
        let hashed = EngineSpec::sharded(EngineSpec::uniform(100), ShardPlan::hash_dim(4, 2));
        match Engine::build(&uniform(2_000, 1), &hashed) {
            Err(PassError::InvalidParameter("dim", why)) => assert!(why.contains('1'), "{why}"),
            other => panic!("{:?}", other.err()),
        }
    }

    #[test]
    fn opaque_specs_are_rejected() {
        let table = uniform(100, 5);
        let spec = EngineSpec::Opaque {
            name: "CUSTOM".into(),
        };
        assert!(Engine::build(&table, &spec).is_err());
    }

    #[test]
    fn build_errors_propagate() {
        let table = uniform(100, 6);
        // Zero partitions is invalid for PASS.
        let spec = EngineSpec::Pass(PassSpec {
            partitions: 0,
            ..PassSpec::default()
        });
        assert!(Engine::build(&table, &spec).is_err());
        // Invalid scramble ratio for Verdict.
        assert!(Engine::build(&table, &EngineSpec::verdict(0.0)).is_err());
    }

    #[test]
    fn built_engines_answer_queries() {
        let table = uniform(20_000, 7);
        let q = Query::interval(AggKind::Sum, 0.2, 0.8);
        let truth = table.ground_truth(&q).unwrap();
        for spec in Engine::standard_suite(16, 1_000, 8) {
            let engine = Engine::build(&table, &spec).unwrap();
            let est = engine.estimate(&q).unwrap();
            let rel = (est.value - truth).abs() / truth;
            assert!(rel < 0.2, "{}: rel {rel}", engine.name());
        }
    }
}

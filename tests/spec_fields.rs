//! The spec field table: every `EngineSpec` and `ShardPlan` field is
//! written, read, reseeded and validated from one table per variant.
//!
//! A proptest draws valid specs of every variant, each field moved off
//! the value the JSON reader starts a variant from, so a field the table
//! leaves out fails the round trip. The rest pins the value rules
//! `EngineSpec::validate` holds: every real finite, nested specs
//! included, and a PASS `sample_rate` in (0, 1], each refused with the
//! field named by `validate`, `Engine::build` and `Pass::from_spec`.

use proptest::prelude::*;

use pass::common::{AggKind, JoinSpec, PartitionStrategy, PassError, PassSpec, Result};
use pass::core::Pass;
use pass::table::datasets::uniform;
use pass::{Engine, EngineSpec, ShardPlan};

/// Seeds on both sides of 2^53, where the JSON form turns to a string;
/// never PASS's default seed, which is below 2^20.
fn seed() -> impl Strategy<Value = u64> {
    prop_oneof![(1u64 << 20)..(1u64 << 53), (1u64 << 53)..=u64::MAX]
}

/// Optional predicate dimensions (`tree_dims`), never empty.
fn dims() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0usize..6, 1..4usize)
}

/// PASS with every field off its default.
fn pass_spec() -> impl Strategy<Value = EngineSpec> {
    let strategy = prop_oneof![
        Just(PartitionStrategy::EqualDepth),
        Just(PartitionStrategy::HillClimb),
        Just(PartitionStrategy::EqualWidth),
        Just(PartitionStrategy::Adp(AggKind::Count)),
        Just(PartitionStrategy::Adp(AggKind::Avg)),
        Just(PartitionStrategy::Adp(AggKind::Max)),
    ];
    let head = (1usize..64, 0.006f64..=1.0, 1usize..1_000_000, strategy);
    let tail = (1usize..4096, 0.02f64..0.5, 3usize..16, seed(), dims());
    (head, tail).prop_map(|((partitions, rate, total, strategy), tail)| {
        let (opt_samples, adp_delta, kd_balance, seed, tree_dims) = tail;
        EngineSpec::Pass(PassSpec {
            partitions,
            sample_rate: rate,
            total_samples: Some(total),
            strategy,
            zero_variance_rule: false,
            opt_samples,
            adp_delta,
            kd_balance,
            seed,
            tree_dims: Some(tree_dims),
        })
    })
}

/// A JOIN with distinct finite keys and 1–3 attribute columns.
fn join_spec() -> impl Strategy<Value = EngineSpec> {
    let keys = prop::collection::vec(-1e9f64..1e9, 1..12usize);
    let attrs = prop::collection::vec(prop::collection::vec(-1e12f64..1e12, 12), 1..4usize);
    (1usize..8, keys, attrs, 1usize..100_000, seed()).prop_map(
        |(fk_dim, mut keys, attrs, k, seed)| {
            keys.sort_by(f64::total_cmp);
            keys.dedup();
            let rows = keys.len();
            let attrs = attrs.into_iter().map(|col| col[..rows].to_vec());
            EngineSpec::join(JoinSpec::new(fk_dim, keys, attrs.collect(), k)).with_seed(seed)
        },
    )
}

/// One spec of any unsharded variant, every field nonzero.
fn leaf() -> impl Strategy<Value = EngineSpec> {
    let optional_dims = prop_oneof![Just(None), dims().prop_map(Some)];
    prop_oneof![
        pass_spec(),
        (1usize..1_000_000, seed()).prop_map(|(k, seed)| EngineSpec::uniform(k).with_seed(seed)),
        (1usize..1_000, 1usize..1_000_000, seed())
            .prop_map(|(strata, k, seed)| EngineSpec::stratified(strata, k).with_seed(seed)),
        (1usize..1_000, 1usize..1_000_000, seed(), optional_dims).prop_map(
            |(partitions, k, seed, tree_dims)| EngineSpec::AqpPlusPlus {
                partitions,
                k,
                seed,
                tree_dims,
            }
        ),
        (0.0001f64..=1.0, seed())
            .prop_map(|(ratio, seed)| EngineSpec::verdict(ratio).with_seed(seed)),
        (0.0001f64..=1.0, seed()).prop_map(|(ratio, seed)| EngineSpec::spn(ratio).with_seed(seed)),
        join_spec(),
        (1u32..1_000).prop_map(|n| EngineSpec::Opaque {
            name: format!("CUSTOM-{n}")
        }),
    ]
}

/// Either shard plan, every field nonzero.
fn plan() -> impl Strategy<Value = ShardPlan> {
    prop_oneof![
        (1usize..16).prop_map(ShardPlan::row_range),
        (1usize..6, 1usize..16).prop_map(|(dim, shards)| ShardPlan::hash_dim(dim, shards)),
    ]
}

/// A spec as deep as two shard levels.
fn spec() -> impl Strategy<Value = EngineSpec> {
    prop_oneof![
        2 => leaf(),
        1 => (leaf(), plan()).prop_map(|(inner, plan)| EngineSpec::sharded(inner, plan)),
        1 => (leaf(), plan(), plan()).prop_map(|(inner, lower, upper)| {
            EngineSpec::sharded(EngineSpec::sharded(inner, lower), upper)
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Valid specs validate, survive JSON exactly, and reseed through
    /// their one seed slot.
    #[test]
    fn valid_specs_validate_round_trip_and_reseed(spec in spec()) {
        prop_assert!(spec.validate().is_ok(), "{spec:?}");
        let text = spec.to_json();
        prop_assert_eq!(EngineSpec::from_json(&text).unwrap(), spec.clone(), "{}", text);
        let mut innermost = &spec;
        while let EngineSpec::Sharded { inner, .. } = innermost {
            innermost = inner;
        }
        let expected = (!matches!(innermost, EngineSpec::Opaque { .. })).then_some(7);
        prop_assert_eq!(spec.with_seed(7).seed(), expected);
    }
}

/// The error must be the parameter error naming `field`.
fn assert_names(result: Result<()>, field: &str, case: &str) {
    match result {
        Err(PassError::InvalidParameter(named, _)) if named == field => {}
        other => panic!("{case}: expected `{field}` refused, got {other:?}"),
    }
}

/// Every real-valued field, set to NaN or ±inf, at top level or under
/// either shard plan, is refused by `validate` and by `Engine::build`.
#[test]
fn a_non_finite_real_is_refused_with_its_field_named() {
    let table = uniform(500, 1);
    let pass = |rate: f64, delta: f64| {
        EngineSpec::Pass(PassSpec {
            sample_rate: rate,
            adp_delta: delta,
            ..PassSpec::default()
        })
    };
    let fields: [(&str, &dyn Fn(f64) -> EngineSpec); 6] = [
        ("sample_rate", &|x| pass(x, 0.01)),
        ("adp_delta", &|x| pass(0.005, x)),
        ("ratio", &EngineSpec::verdict),
        ("ratio", &EngineSpec::spn),
        ("dim_keys", &|x| {
            EngineSpec::join(JoinSpec::new(0, vec![1.0, x], vec![], 8))
        }),
        ("dim_attrs", &|x| {
            EngineSpec::join(JoinSpec::new(0, vec![1.0, 2.0], vec![vec![0.5, x]], 8))
        }),
    ];
    for (field, spec_with) in fields {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let bare = spec_with(x);
            for spec in [
                bare.clone(),
                EngineSpec::sharded(bare.clone(), ShardPlan::row_range(2)),
                EngineSpec::sharded(bare, ShardPlan::hash_dim(0, 3)),
            ] {
                let case = format!("{spec:?}");
                assert_names(spec.validate(), field, &case);
                assert_names(Engine::build(&table, &spec).map(drop), field, &case);
            }
        }
    }
}

/// `Pass::from_spec` takes spec values directly, and holds the same
/// rules: a non-finite `sample_rate` or `adp_delta`, and a `sample_rate`
/// outside (0, 1], are refused with the field named. A rate of 1, the
/// range's upper end, builds and keeps every row.
#[test]
fn pass_from_spec_refuses_what_validate_refuses() {
    let table = uniform(2_000, 3);
    let with = |sample_rate: f64, adp_delta: f64| PassSpec {
        partitions: 8,
        sample_rate,
        adp_delta,
        ..PassSpec::default()
    };
    let mut cases = Vec::new();
    for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        cases.push(("sample_rate", with(x, 0.01)));
        cases.push(("adp_delta", with(0.005, x)));
    }
    for rate in [0.0, -0.0, -0.5, 1.0 + f64::EPSILON, 2.0] {
        cases.push(("sample_rate", with(rate, 0.01)));
    }
    for (field, spec) in cases {
        let case = format!("{spec:?}");
        assert_names(Pass::from_spec(&table, &spec).map(drop), field, &case);
        let spec = EngineSpec::Pass(spec);
        assert_names(spec.validate(), field, &case);
        assert_names(Engine::build(&table, &spec).map(drop), field, &case);
    }
    let whole = Pass::from_spec(&table, &with(1.0, 0.01)).unwrap();
    assert_eq!(whole.total_samples(), table.n_rows());
}

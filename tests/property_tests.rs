//! Property-based tests (proptest) on the core invariants:
//!
//! * hard bounds always contain the ground truth, for every aggregate and
//!   any data/partitioning/query;
//! * MCF frontiers partition the relevant rows exactly;
//! * the DP objective never loses to equal-depth partitioning;
//! * prefix-sum range statistics match naive recomputation;
//! * join builds and estimates over arbitrary two-table schemas never
//!   panic — every refusal is a typed error — and an exhaustive
//!   fact-side sample answers whole-space COUNT exactly.

use proptest::prelude::*;

use pass::common::{
    AggKind, EngineSpec, JoinSpec, PassError, PassSpec, PrefixSums, Query, Rect, Synopsis,
};
use pass::core::{mcf, PartitionStrategy, Pass};
use pass::partition::maxvar::{Exhaustive, MaxVarOracle};
use pass::partition::{Adp, EqualDepth, Partitioner1D, VarianceOracle};
use pass::table::{SortedTable, Table};
use pass::Engine;

/// Strategy: a small table with clustered values (mix of constant runs and
/// noise) plus a query interval grounded near data keys.
fn table_and_query() -> impl Strategy<Value = (Vec<f64>, f64, f64)> {
    (
        prop::collection::vec(
            prop_oneof![Just(0.0), 1.0f64..100.0, -50.0f64..-1.0, Just(42.0)],
            8..200,
        ),
        0.0f64..1.0,
        0.0f64..1.0,
    )
        .prop_map(|(values, a, b)| {
            let n = values.len() as f64;
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            (values, lo * n, hi * n)
        })
}

fn build_table(values: &[f64]) -> Table {
    let keys: Vec<f64> = (0..values.len()).map(|i| i as f64).collect();
    Table::one_dim(keys, values.to_vec()).unwrap()
}

/// Strategy: a two-table join instance. The dimension side has distinct
/// integer keys (possibly **zero** of them — the empty dimension side is
/// a valid spec) and 0–2 derived attribute columns; the fact side's FK
/// column mixes matching keys (index 0 over-weighted, so multiplicity is
/// skewed), dangling keys outside the dimension's key set, and a
/// fact-side sample budget `k` that may exceed the population.
#[allow(clippy::type_complexity)]
fn join_instance() -> impl Strategy<Value = (Table, JoinSpec)> {
    (
        0usize..10,                         // dimension rows (0 = empty side)
        -20i32..20,                         // first key
        prop::collection::vec(1i32..4, 10), // irregular key spacing
        0usize..3,                          // attribute columns
        prop::collection::vec(
            (
                prop_oneof![3 => Just(0usize), 2 => 0usize..32],
                -5.0f64..5.0,
                0u32..4, // 0 ⇒ dangling FK
            ),
            1..120,
        ),
        1usize..200,
    )
        .prop_map(|(dim_n, first, gaps, attr_cols, fact_rows, k)| {
            let mut dim_keys = Vec::with_capacity(dim_n);
            let mut key = f64::from(first);
            for gap in gaps.iter().take(dim_n) {
                dim_keys.push(key);
                key += f64::from(*gap);
            }
            let dim_attrs: Vec<Vec<f64>> = (0..attr_cols)
                .map(|c| {
                    dim_keys
                        .iter()
                        .map(|&key| key * (c + 1) as f64 - 0.5)
                        .collect()
                })
                .collect();
            let mut values = Vec::with_capacity(fact_rows.len());
            let mut fks = Vec::with_capacity(fact_rows.len());
            for (idx, value, roll) in fact_rows {
                values.push(value);
                fks.push(if roll == 0 || dim_keys.is_empty() {
                    1_000.0 + idx as f64 // outside every generated key set
                } else {
                    dim_keys[idx % dim_keys.len()]
                });
            }
            let fact = Table::new(values, vec![fks], vec!["v".into(), "fk".into()]).unwrap();
            (fact, JoinSpec::new(0, dim_keys, dim_attrs, k))
        })
}

/// Exact matched-row count of the join by nested loop.
fn matched_rows(fact: &Table, spec: &JoinSpec) -> usize {
    (0..fact.n_rows())
        .filter(|&i| {
            let key = fact.predicate(spec.fk_dim, i);
            spec.dim_keys.contains(&key)
        })
        .count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Hard bounds are 100%-confidence intervals: they must contain the
    /// exact answer for every aggregate, partitioning, and query.
    #[test]
    fn hard_bounds_always_contain_truth((values, lo, hi) in table_and_query(), k in 2usize..12) {
        let table = build_table(&values);
        let pass = Pass::from_spec(
            &table,
            &PassSpec {
                partitions: k,
                sample_rate: 0.2,
                seed: 1,
                ..PassSpec::default()
            },
        )
        .unwrap();
        for agg in AggKind::ALL {
            let q = Query::new(agg, Rect::interval(lo, hi));
            let truth = table.ground_truth(&q);
            let est = pass.estimate(&q);
            match (est, truth) {
                (Ok(e), Some(t)) => {
                    if let Some((lb, ub)) = e.hard_bounds {
                        prop_assert!(
                            lb - 1e-6 <= t && t <= ub + 1e-6,
                            "{agg}: truth {t} outside [{lb}, {ub}]"
                        );
                    }
                }
                // AVG/MIN/MAX over an empty selection may error; SUM/COUNT
                // must not.
                (Err(_), Some(_)) => {
                    prop_assert!(matches!(agg, AggKind::Avg | AggKind::Min | AggKind::Max));
                }
                _ => {}
            }
        }
    }

    /// The MCF frontier covers exactly the rows of intersecting partitions:
    /// covered + partial populations equal the total population of leaves
    /// whose key range intersects the query.
    #[test]
    fn mcf_frontier_partitions_relevant_rows((values, lo, hi) in table_and_query(), k in 2usize..10) {
        let table = build_table(&values);
        let pass = Pass::from_spec(
            &table,
            &PassSpec {
                partitions: k,
                sample_rate: 0.5,
                strategy: PartitionStrategy::EqualDepth,
                seed: 2,
                ..PassSpec::default()
            },
        )
        .unwrap();
        let tree = pass.tree();
        let q = Query::interval(AggKind::Sum, lo, hi);
        let frontier = mcf(tree, &q, false);
        let frontier_pop = frontier.relevant_population(tree);
        let expected: u64 = tree
            .leaves()
            .into_iter()
            .filter(|&id| tree.rect_lo(id, 0) <= hi && tree.rect_hi(id, 0) >= lo)
            .map(|id| tree.agg(id).count)
            .sum();
        prop_assert_eq!(frontier_pop, expected);
    }

    /// ADP's worst-partition variance objective never loses to equal-depth
    /// partitioning when both optimize over the full data.
    #[test]
    fn adp_objective_never_worse_than_equal_depth(values in prop::collection::vec(-100.0f64..100.0, 16..120), k in 2usize..8) {
        let keys: Vec<f64> = (0..values.len()).map(|i| i as f64).collect();
        let sorted = SortedTable::from_sorted(keys, values);
        let adp = Adp::new(AggKind::Sum)
            .with_samples(sorted.len())
            .partition(&sorted, k)
            .unwrap();
        let eq = EqualDepth.partition(&sorted, k).unwrap();
        let oracle = Exhaustive::new(VarianceOracle::new(sorted.prefix(), AggKind::Sum).unwrap(), 1);
        let objective = |p: &pass::partition::Partitioning1D| {
            p.ranges()
                .into_iter()
                .map(|r| oracle.max_variance(r.start, r.end))
                .fold(0.0f64, f64::max)
        };
        // The DP uses the ¼-approximate median-split oracle, so allow the
        // Lemma A.3/A.5 slack of 4× in the exhaustive objective.
        prop_assert!(objective(&adp) <= 4.0 * objective(&eq) + 1e-9);
    }

    /// Prefix sums agree with naive recomputation on random ranges.
    #[test]
    fn prefix_sums_match_naive(values in prop::collection::vec(-1e6f64..1e6, 1..300), split in 0.0f64..1.0) {
        let p = PrefixSums::build(&values);
        let n = values.len();
        let mid = ((n as f64) * split) as usize;
        let naive_sum: f64 = values[..mid].iter().sum();
        let naive_sq: f64 = values[..mid].iter().map(|v| v * v).sum();
        prop_assert!((p.range_sum(0, mid) - naive_sum).abs() <= 1e-6 * naive_sum.abs().max(1.0));
        prop_assert!((p.range_sum_sq(0, mid) - naive_sq).abs() <= 1e-6 * naive_sq.abs().max(1.0));
    }

    /// Join builds and estimates never panic on arbitrary two-table
    /// schemas — dangling keys, skewed multiplicity, empty dimension
    /// sides, over-large budgets. Every refusal is a typed `PassError`:
    /// SUM/COUNT always answer (finite value, non-negative finite CI),
    /// AVG may refuse an empty selection, MIN/MAX are always refused.
    #[test]
    fn join_estimates_never_panic_and_errors_are_typed(
        (fact, spec) in join_instance(),
        lo in -25.0f64..25.0,
        width in 0.0f64..30.0,
    ) {
        let engine = match Engine::build(&fact, &EngineSpec::join(spec.clone())) {
            Ok(engine) => engine,
            Err(e) => {
                prop_assert!(
                    matches!(e, PassError::InvalidParameter(_, _) | PassError::EmptyInput(_)),
                    "untyped build refusal: {e:?}"
                );
                continue;
            }
        };
        prop_assert_eq!(engine.dims(), 1 + spec.attr_dims());
        // Constrain the FK dimension, leave the attributes wide open.
        let mut bounds = vec![(lo, lo + width)];
        bounds.extend(vec![(-1e3, 1e3); spec.attr_dims()]);
        let rect = Rect::new(&bounds);
        for agg in AggKind::ALL {
            match engine.estimate(&Query::new(agg, rect.clone())) {
                Ok(e) => {
                    prop_assert!(!matches!(agg, AggKind::Min | AggKind::Max), "{agg} must refuse");
                    prop_assert!(e.value.is_finite(), "{agg}: {}", e.value);
                    prop_assert!(e.ci_half.is_finite() && e.ci_half >= 0.0, "{agg}: {}", e.ci_half);
                }
                Err(PassError::EmptyInput(_)) => prop_assert!(
                    matches!(agg, AggKind::Avg),
                    "{agg} must answer a non-empty joined sample"
                ),
                Err(PassError::InvalidParameter("agg", _)) => {
                    prop_assert!(matches!(agg, AggKind::Min | AggKind::Max));
                }
                Err(other) => prop_assert!(false, "untyped estimate refusal: {other:?}"),
            }
        }
    }

    /// With an exhaustive fact-side sample (k ≥ population), whole-space
    /// COUNT is the exact inner-join match count — the HT estimator
    /// degenerates to the truth, dangling rows excluded.
    #[test]
    fn exhaustive_join_sample_counts_matches_exactly((fact, spec) in join_instance()) {
        let spec = JoinSpec { k: fact.n_rows(), ..spec };
        let engine = Engine::build(&fact, &EngineSpec::join(spec.clone())).unwrap();
        let bounds = vec![(f64::NEG_INFINITY, f64::INFINITY); 1 + spec.attr_dims()];
        let q = Query::new(AggKind::Count, Rect::new(&bounds));
        let truth = matched_rows(&fact, &spec) as f64;
        match engine.estimate(&q) {
            Ok(e) => {
                prop_assert!((e.value - truth).abs() <= 1e-9 * truth.max(1.0));
                prop_assert!(e.ci_half <= 1e-9 * truth.max(1.0), "exhaustive CI collapses");
            }
            // COUNT over a non-empty sample always answers.
            Err(e) => prop_assert!(false, "refused: {e:?}"),
        }
    }

    /// Estimates and CI half-widths are always finite; CI is non-negative.
    #[test]
    fn estimates_are_finite((values, lo, hi) in table_and_query()) {
        let table = build_table(&values);
        let pass = Pass::from_spec(
            &table,
            &PassSpec {
                partitions: 8,
                sample_rate: 0.3,
                seed: 3,
                ..PassSpec::default()
            },
        )
        .unwrap();
        for agg in [AggKind::Sum, AggKind::Count, AggKind::Avg] {
            let q = Query::new(agg, Rect::interval(lo, hi));
            if let Ok(e) = pass.estimate(&q) {
                prop_assert!(e.value.is_finite(), "{agg}");
                prop_assert!(e.ci_half.is_finite() && e.ci_half >= 0.0, "{agg}");
            }
        }
    }
}

//! Group-by support (Section 4.5 extensions).
//!
//! "PASS can handle group-bys over categorical columns, i.e. each group-by
//! condition can be rewritten as an equality predicate condition. Then we
//! can aggregate answers for all the selection queries to generate a final
//! answer." — a `GROUP BY c` becomes one equality rectangle `c = v` per
//! distinct value `v`, all answered by the same synopsis.
//!
//! The engine-agnostic entry point is
//! [`pass_common::Synopsis::estimate_group_by`]; its default routes the
//! per-category rectangles through `estimate_many`, which for [`Pass`] is
//! the shared-scratch batch path.
//!
//! [`Pass`]: crate::Pass

// The canonical row type lives in pass-common now that group-by is part
// of the engine-agnostic `Synopsis` surface; re-exported here so existing
// `pass_core::GroupResult` paths keep working.
pub use pass_common::GroupResult;

#[cfg(test)]
mod tests {
    use crate::synopsis::PassBuilder;
    use pass_common::{AggKind, GroupByQuery, Query, Rect, Synopsis};
    use pass_table::datasets::instacart;
    use pass_table::Table;

    #[test]
    fn group_by_matches_per_group_truth() {
        // Small categorical table: 5 categories, distinct per-category sums.
        let n = 5_000;
        let cat: Vec<f64> = (0..n).map(|i| (i % 5) as f64).collect();
        let values: Vec<f64> = (0..n).map(|i| ((i % 5) + 1) as f64 * 10.0).collect();
        let table = Table::one_dim(cat, values).unwrap();
        let pass = PassBuilder::new()
            .partitions(8)
            .sample_rate(0.2)
            .seed(1)
            .build(&table)
            .unwrap();
        let base = table.bounding_rect().unwrap();
        let groups = pass
            .estimate_group_by(&GroupByQuery::new(
                AggKind::Sum,
                0,
                &[0.0, 1.0, 2.0, 3.0, 4.0],
                base,
            ))
            .unwrap();
        assert_eq!(groups.len(), 5);
        for g in groups {
            let q = Query::interval(AggKind::Sum, g.key, g.key);
            let truth = table.ground_truth(&q).unwrap();
            let est = g.estimate.unwrap();
            let rel = (est.value - truth).abs() / truth;
            assert!(rel < 0.15, "group {}: rel {rel}", g.key);
        }
    }

    #[test]
    fn group_by_on_skewed_catalog() {
        // Instacart-style reorder rates per product bucket.
        let table = instacart(40_000, 2);
        let pass = PassBuilder::new()
            .partitions(32)
            .sample_rate(0.05)
            .seed(3)
            .build(&table)
            .unwrap();
        let base = table.bounding_rect().unwrap();
        // Group over a handful of popular product ids (guaranteed present).
        let mut cats: Vec<f64> = table.predicate_column(0)[..2_000].to_vec();
        cats.sort_by(|a, b| a.partial_cmp(b).unwrap());
        cats.dedup();
        cats.truncate(10);
        let groups = pass
            .estimate_group_by(&GroupByQuery::new(AggKind::Count, 0, &cats, base))
            .unwrap();
        for g in &groups {
            let est = g.estimate.as_ref().unwrap();
            assert!(est.value >= 0.0);
            let truth = table
                .ground_truth(&Query::interval(AggKind::Count, g.key, g.key))
                .unwrap();
            // COUNT per equality group: hard bounds must bracket truth.
            let (lb, ub) = est.hard_bounds.unwrap();
            assert!(lb - 1e-9 <= truth && truth <= ub + 1e-9, "group {}", g.key);
        }
    }

    #[test]
    fn invalid_dims_rejected() {
        let table = Table::one_dim(vec![1.0, 2.0], vec![3.0, 4.0]).unwrap();
        let pass = PassBuilder::new()
            .partitions(2)
            .sample_rate(1.0)
            .build(&table)
            .unwrap();
        let base = table.bounding_rect().unwrap();
        let group_by =
            |dim, base| pass.estimate_group_by(&GroupByQuery::new(AggKind::Sum, dim, &[1.0], base));
        assert!(group_by(5, base).is_err());
        assert!(group_by(0, Rect::new(&[(0.0, 1.0), (0.0, 1.0)])).is_err());
    }
}

//! Sharding one logical table into disjoint sub-tables.
//!
//! [`Table::split`] interprets a declarative
//! [`ShardPlan`] against a concrete table and
//! materializes one column-major [`Table`] per shard. Both partitioners
//! are **disjoint and exhaustive** — every row lands in exactly one
//! shard — which is what lets per-shard COUNT/SUM estimates add up
//! exactly (`pass_common::partial::merge_available`). Shards a plan would leave
//! empty (more shards than rows, or an unlucky hash) are dropped: an
//! empty table cannot back a synopsis, and an empty shard contributes
//! nothing to any merge.

use pass_common::{PassError, Result, ShardPlan};

use crate::table::Table;

impl Table {
    /// Split into disjoint shard tables according to `plan`.
    ///
    /// * [`ShardPlan::RowRange`] — K contiguous row ranges of near-equal
    ///   size, in row order (shard i holds rows `[i·n/K, (i+1)·n/K)`).
    /// * [`ShardPlan::HashDim`] — rows are routed by
    ///   [`ShardPlan::key_shard`] over predicate column `dim`, so equal
    ///   predicate keys co-locate.
    ///
    /// Returns the non-empty shards (≤ K of them), each with the same
    /// column names and arity as `self`. Errors on an empty table, a
    /// zero-shard plan, or a hash dimension the table does not have.
    pub fn split(&self, plan: &ShardPlan) -> Result<Vec<Table>> {
        plan.validate()?;
        if self.n_rows() == 0 {
            return Err(PassError::EmptyInput("cannot shard an empty table"));
        }
        let n = self.n_rows();
        let k = plan.shards();
        let row_shard: Box<dyn Fn(usize) -> usize> = match *plan {
            // i·k/n rounds so the ranges differ by at most one row.
            ShardPlan::RowRange { .. } => Box::new(move |row| row * k / n),
            ShardPlan::HashDim { dim, .. } => {
                if dim >= self.dims() {
                    return Err(PassError::DimensionMismatch {
                        expected: self.dims(),
                        got: dim + 1,
                    });
                }
                let keys = self.predicate_column(dim);
                Box::new(move |row| ShardPlan::key_shard(keys[row], k))
            }
        };

        let mut rows_of: Vec<Vec<usize>> = vec![Vec::new(); k];
        for row in 0..n {
            rows_of[row_shard(row)].push(row);
        }
        rows_of
            .into_iter()
            .filter(|rows| !rows.is_empty())
            .map(|rows| self.take_rows(&rows))
            .collect()
    }

    /// A new table holding the listed rows, in the given order.
    fn take_rows(&self, rows: &[usize]) -> Result<Table> {
        let values = rows.iter().map(|&r| self.value(r)).collect();
        let predicates = (0..self.dims())
            .map(|d| {
                let col = self.predicate_column(d);
                rows.iter().map(|&r| col[r]).collect()
            })
            .collect();
        Table::new(values, predicates, self.names().to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pass_common::{AggKind, Query};

    fn fixture() -> Table {
        let pred: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let vals: Vec<f64> = pred.iter().map(|p| p * 3.0).collect();
        Table::one_dim(pred, vals).unwrap()
    }

    #[test]
    fn row_range_shards_are_contiguous_balanced_and_exhaustive() {
        let t = fixture();
        let shards = t.split(&ShardPlan::row_range(4)).unwrap();
        assert_eq!(shards.len(), 4);
        let sizes: Vec<usize> = shards.iter().map(Table::n_rows).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 100);
        assert!(sizes.iter().all(|&s| s == 25));
        // Contiguity in row order: shard boundaries follow the original.
        assert_eq!(shards[0].predicate(0, 0), 0.0);
        assert_eq!(shards[1].predicate(0, 0), 25.0);
        assert_eq!(shards[3].predicate(0, 24), 99.0);
    }

    #[test]
    fn uneven_row_ranges_differ_by_at_most_one_row() {
        let t = fixture();
        let shards = t.split(&ShardPlan::row_range(7)).unwrap();
        let sizes: Vec<usize> = shards.iter().map(Table::n_rows).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 100);
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(max - min <= 1, "{sizes:?}");
    }

    #[test]
    fn hash_shards_partition_rows_and_colocate_equal_keys() {
        let mut t = fixture();
        // Duplicate keys across the table.
        for i in 0..50 {
            t.push_row(1.0, &[(i % 10) as f64]);
        }
        let shards = t.split(&ShardPlan::hash_dim(0, 4)).unwrap();
        let total: usize = shards.iter().map(Table::n_rows).sum();
        assert_eq!(total, 150);
        // Every distinct key appears in exactly one shard.
        for key in 0..10 {
            let holders = shards
                .iter()
                .filter(|s| s.predicate_column(0).contains(&(key as f64)))
                .count();
            assert_eq!(holders, 1, "key {key} split across shards");
        }
    }

    #[test]
    fn shard_aggregates_sum_to_the_whole_table() {
        let t = fixture();
        let q = Query::interval(AggKind::Sum, 10.0, 60.0);
        let whole = t.ground_truth(&q).unwrap();
        for plan in [ShardPlan::row_range(4), ShardPlan::hash_dim(0, 4)] {
            let parts: f64 = t
                .split(&plan)
                .unwrap()
                .iter()
                .map(|s| s.ground_truth(&q).unwrap())
                .sum();
            assert!((parts - whole).abs() < 1e-9, "{plan:?}");
        }
    }

    #[test]
    fn empty_shards_are_dropped_not_materialized() {
        let t = Table::one_dim(vec![1.0, 2.0], vec![10.0, 20.0]).unwrap();
        let shards = t.split(&ShardPlan::row_range(8)).unwrap();
        assert_eq!(shards.len(), 2);
        assert!(shards.iter().all(|s| s.n_rows() == 1));
    }

    #[test]
    fn invalid_plans_are_rejected() {
        let t = fixture();
        assert!(t.split(&ShardPlan::row_range(0)).is_err());
        assert!(t.split(&ShardPlan::hash_dim(5, 2)).is_err());
        let empty = Table::one_dim(vec![], vec![]).unwrap();
        assert!(empty.split(&ShardPlan::row_range(2)).is_err());
    }

    #[test]
    fn shards_keep_names_and_arity() {
        let t = Table::new(
            vec![1.0, 2.0, 3.0, 4.0],
            vec![vec![0.0, 1.0, 2.0, 3.0], vec![5.0, 6.0, 7.0, 8.0]],
            vec!["v".into(), "x".into(), "y".into()],
        )
        .unwrap();
        for shard in t.split(&ShardPlan::hash_dim(1, 2)).unwrap() {
            assert_eq!(shard.dims(), 2);
            assert_eq!(shard.names(), t.names());
        }
    }
}

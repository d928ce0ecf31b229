//! One-dimensional sorted view of a table.
//!
//! Every 1-D algorithm in the paper (§4.3's dynamic programs, equal-depth
//! partitioning, prefix-sum variance oracles, fast ground truth) operates on
//! tuples sorted by the predicate value. [`SortedTable`] materializes that
//! order once: ascending predicate keys, aligned aggregation values, and
//! prefix sums over the values in key order.

use pass_common::{AggKind, Aggregates, PassError, PrefixSums, Query, Result};

use crate::table::Table;

/// A table sorted by one predicate column, with prefix sums for O(1) range
/// aggregates and O(log n) interval resolution.
#[derive(Debug, Clone)]
pub struct SortedTable {
    /// Ascending predicate keys.
    keys: Vec<f64>,
    /// Aggregation values aligned with `keys`.
    values: Vec<f64>,
    /// Prefix Σt / Σt² over `values`.
    prefix: PrefixSums,
}

impl SortedTable {
    /// Sort `table` by predicate dimension `dim` (stable order on ties).
    /// NaN keys sort last: no query interval holds them, so those rows
    /// match nothing — as in a scan — and a build that must order every
    /// row refuses them through [`from_table_ordered`](Self::from_table_ordered).
    pub fn from_table(table: &Table, dim: usize) -> Self {
        let n = table.n_rows();
        // The columns are reserved before the sort permutation, so the
        // permutation is freed from the top of the heap. Freed below them,
        // it made glibc fault ≈ 46 MB of fresh pages on every later
        // 1M-row build.
        let (mut keys, mut values) = (Vec::with_capacity(n), Vec::with_capacity(n));
        let mut order: Vec<u32> = (0..n as u32).collect();
        let col = table.predicate_column(dim);
        order.sort_by(|&a, &b| {
            let (a, b) = (col[a as usize], col[b as usize]);
            a.partial_cmp(&b)
                .unwrap_or_else(|| a.is_nan().cmp(&b.is_nan()))
        });
        keys.extend(order.iter().map(|&i| col[i as usize]));
        values.extend(order.iter().map(|&i| table.value(i as usize)));
        drop(order);
        let prefix = PrefixSums::build(&values);
        Self {
            keys,
            values,
            prefix,
        }
    }

    /// [`from_table`](Self::from_table) for a 1-D build, which partitions
    /// the key order and so refuses a NaN key with
    /// `InvalidParameter("predicates")` — one compare, as NaN sorts last.
    pub fn from_table_ordered(table: &Table, dim: usize) -> Result<Self> {
        let sorted = Self::from_table(table, dim);
        if sorted.keys.last().is_some_and(|k| k.is_nan()) {
            return Err(PassError::InvalidParameter(
                "predicates",
                format!("column {dim} holds a NaN, which a 1-D build cannot order"),
            ));
        }
        Ok(sorted)
    }

    /// Construct directly from already-sorted key/value pairs (generators
    /// that emit sorted data skip the sort).
    pub fn from_sorted(keys: Vec<f64>, values: Vec<f64>) -> Self {
        debug_assert_eq!(keys.len(), values.len());
        debug_assert!(keys.windows(2).all(|w| w[0] <= w[1]), "keys not sorted");
        let prefix = PrefixSums::build(&values);
        Self {
            keys,
            values,
            prefix,
        }
    }

    /// The rows in key order as a 1-D table, moving the two columns out of
    /// the view instead of copying them.
    pub fn into_table(self) -> Result<Table> {
        Table::one_dim(self.keys, self.values)
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Sorted predicate keys.
    #[inline]
    pub fn keys(&self) -> &[f64] {
        &self.keys
    }

    /// Values in key order.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Prefix sums over the values.
    #[inline]
    pub fn prefix(&self) -> &PrefixSums {
        &self.prefix
    }

    /// Map the inclusive key interval `[lo, hi]` to the half-open sorted
    /// index range `[start, end)` of rows whose key falls inside.
    pub fn index_range(&self, lo: f64, hi: f64) -> (usize, usize) {
        let start = self.keys.partition_point(|&k| k < lo);
        let end = self.keys.partition_point(|&k| k <= hi);
        (start, end.max(start))
    }

    /// Exact aggregates of the rows in key interval `[lo, hi]` — O(log n)
    /// for SUM/COUNT/AVG thanks to the prefix sums; MIN/MAX scan the range.
    pub fn range_aggregates(&self, lo: f64, hi: f64) -> Aggregates {
        let (s, e) = self.index_range(lo, hi);
        if s == e {
            return Aggregates::empty();
        }
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &v in &self.values[s..e] {
            if v < min {
                min = v;
            }
            if v > max {
                max = v;
            }
        }
        Aggregates {
            sum: self.prefix.range_sum(s, e),
            sum_sq: self.prefix.range_sum_sq(s, e),
            count: (e - s) as u64,
            min,
            max,
        }
    }

    /// Fast exact answer to a 1-D query.
    pub fn ground_truth(&self, query: &Query) -> Option<f64> {
        debug_assert_eq!(query.dims(), 1);
        let (s, e) = self.index_range(query.rect.lo(0), query.rect.hi(0));
        match query.agg {
            AggKind::Sum => Some(self.prefix.range_sum(s, e)),
            AggKind::Count => Some((e - s) as f64),
            AggKind::Avg => (s < e).then(|| self.prefix.range_mean(s, e)),
            AggKind::Min | AggKind::Max => {
                if s == e {
                    return None;
                }
                let slice = &self.values[s..e];
                Some(if query.agg == AggKind::Min {
                    slice.iter().copied().fold(f64::INFINITY, f64::min)
                } else {
                    slice.iter().copied().fold(f64::NEG_INFINITY, f64::max)
                })
            }
        }
    }

    /// Key at sorted position `i`.
    #[inline]
    pub fn key(&self, i: usize) -> f64 {
        self.keys[i]
    }

    /// Value at sorted position `i`.
    #[inline]
    pub fn value(&self, i: usize) -> f64 {
        self.values[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pass_common::Rect;

    fn table() -> Table {
        // Unsorted predicate on purpose.
        let pred = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        let vals = vec![50.0, 10.0, 30.0, 20.0, 40.0];
        Table::one_dim(pred, vals).unwrap()
    }

    #[test]
    fn sorting_aligns_keys_and_values() {
        let s = SortedTable::from_table(&table(), 0);
        assert_eq!(s.keys(), &[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.values(), &[10.0, 20.0, 30.0, 40.0, 50.0]);
    }

    #[test]
    fn nan_keys_sort_last_and_an_ordered_build_refuses_them() {
        let t = Table::one_dim(
            vec![3.0, f64::NAN, 0.0, -0.0, 1.0],
            vec![30.0, 99.0, 1.0, 2.0, 10.0],
        )
        .unwrap();
        let s = SortedTable::from_table(&t, 0);
        // Equal keys keep their table order (0.0 before -0.0); NaN is last.
        assert_eq!(s.values(), &[1.0, 2.0, 10.0, 30.0, 99.0]);
        assert!(s.key(4).is_nan());
        assert_eq!(s.index_range(f64::NEG_INFINITY, f64::INFINITY), (0, 4));
        let err = SortedTable::from_table_ordered(&t, 0).err();
        assert!(
            matches!(err, Some(PassError::InvalidParameter("predicates", _))),
            "{err:?}"
        );
        assert!(SortedTable::from_table_ordered(&table(), 0).is_ok());
    }

    #[test]
    fn into_table_keeps_the_sorted_rows() {
        let t = SortedTable::from_table(&table(), 0).into_table().unwrap();
        assert_eq!(t.predicate_column(0), &[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(t.values(), &[10.0, 20.0, 30.0, 40.0, 50.0]);
    }

    #[test]
    fn index_range_inclusive_semantics() {
        let s = SortedTable::from_table(&table(), 0);
        assert_eq!(s.index_range(2.0, 4.0), (1, 4));
        assert_eq!(s.index_range(2.5, 3.5), (2, 3));
        assert_eq!(s.index_range(0.0, 0.5), (0, 0));
        assert_eq!(s.index_range(6.0, 9.0), (5, 5));
        assert_eq!(s.index_range(1.0, 5.0), (0, 5));
    }

    #[test]
    fn index_range_with_duplicate_keys() {
        let s =
            SortedTable::from_sorted(vec![1.0, 2.0, 2.0, 2.0, 3.0], vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.index_range(2.0, 2.0), (1, 4));
        assert_eq!(s.index_range(1.5, 2.5), (1, 4));
    }

    #[test]
    fn range_aggregates_match_scan() {
        let t = table();
        let s = SortedTable::from_table(&t, 0);
        let from_sorted = s.range_aggregates(2.0, 4.0);
        let from_scan = t.scan_aggregates(&Rect::interval(2.0, 4.0));
        assert_eq!(from_sorted.sum, from_scan.sum);
        assert_eq!(from_sorted.count, from_scan.count);
        assert_eq!(from_sorted.min, from_scan.min);
        assert_eq!(from_sorted.max, from_scan.max);
    }

    #[test]
    fn ground_truth_agrees_with_table_scan() {
        let t = table();
        let s = SortedTable::from_table(&t, 0);
        for agg in AggKind::ALL {
            for (lo, hi) in [(1.0, 5.0), (2.0, 3.0), (4.5, 4.9), (0.0, 1.0)] {
                let q = Query::interval(agg, lo, hi);
                assert_eq!(
                    s.ground_truth(&q),
                    t.ground_truth(&q),
                    "agg {agg} range [{lo},{hi}]"
                );
            }
        }
    }

    #[test]
    fn empty_table() {
        let s = SortedTable::from_sorted(vec![], vec![]);
        assert!(s.is_empty());
        assert_eq!(s.index_range(0.0, 1.0), (0, 0));
        assert!(s.range_aggregates(0.0, 1.0).is_empty());
    }
}

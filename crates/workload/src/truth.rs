//! Exact ground truth for workloads.

use pass_common::{Query, Rect};
use pass_table::{SortedTable, Table};

/// A ground-truth oracle over one table. One-dimensional tables get an
/// O(log n) sorted/prefix-sum path; higher dimensions fall back to a scan.
pub struct Truth {
    table: Table,
    sorted: Option<SortedTable>,
}

impl Truth {
    pub fn new(table: &Table) -> Self {
        let sorted = (table.dims() == 1).then(|| SortedTable::from_table(table, 0));
        Self {
            table: table.clone(),
            sorted,
        }
    }

    /// Exact answer; `None` for AVG/MIN/MAX over empty selections.
    pub fn eval(&self, query: &Query) -> Option<f64> {
        match &self.sorted {
            Some(s) => s.ground_truth(query),
            None => self.table.ground_truth(query),
        }
    }

    /// Exact number of rows matching the rectangle.
    pub fn matching_rows(&self, rect: &Rect) -> u64 {
        match &self.sorted {
            Some(s) => {
                let (lo, hi) = s.index_range(rect.lo(0), rect.hi(0));
                (hi - lo) as u64
            }
            None => self.table.scan_aggregates(rect).count,
        }
    }

    /// The underlying table.
    pub fn table(&self) -> &Table {
        &self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pass_common::AggKind;
    use pass_table::datasets::{taxi, uniform};

    #[test]
    fn one_dim_path_matches_scan() {
        let t = uniform(5_000, 1);
        let truth = Truth::new(&t);
        for agg in AggKind::ALL {
            let q = Query::interval(agg, 0.2, 0.8);
            // Prefix-sum and scan accumulation orders differ; compare to
            // relative 1e-12.
            let fast = truth.eval(&q).unwrap();
            let scan = t.ground_truth(&q).unwrap();
            assert!(
                (fast - scan).abs() <= 1e-12 * scan.abs().max(1.0),
                "{agg}: {fast} vs {scan}"
            );
        }
        assert_eq!(
            truth.matching_rows(&Rect::interval(0.0, 0.5)),
            t.scan_aggregates(&Rect::interval(0.0, 0.5)).count
        );
    }

    #[test]
    fn a_nan_key_row_matches_nothing_as_in_a_scan() {
        let t =
            Table::one_dim(vec![1.0, f64::NAN, 3.0, 4.0], vec![10.0, 20.0, 30.0, 40.0]).unwrap();
        let truth = Truth::new(&t);
        for (lo, hi) in [(f64::NEG_INFINITY, f64::INFINITY), (0.0, 3.5), (2.0, 2.5)] {
            for agg in AggKind::ALL {
                let q = Query::interval(agg, lo, hi);
                assert_eq!(truth.eval(&q), t.ground_truth(&q), "{agg} [{lo}, {hi}]");
            }
            let rect = Rect::interval(lo, hi);
            assert_eq!(truth.matching_rows(&rect), t.scan_aggregates(&rect).count);
        }
    }

    #[test]
    fn multi_dim_path_matches_scan() {
        let t = taxi(2_000, 2).project(&[1, 2]).unwrap();
        let truth = Truth::new(&t);
        let rect = t.bounding_rect().unwrap();
        let q = Query::new(AggKind::Count, rect.clone());
        assert_eq!(truth.eval(&q), Some(2_000.0));
        assert_eq!(truth.matching_rows(&rect), 2_000);
    }
}

//! The core columnar table type.

use pass_common::{Aggregates, PassError, Query, Rect, Result};

/// A columnar dataset: one numeric aggregation column `A` and `d` predicate
/// columns `C_1..C_d` (Section 3.1's usage model).
#[derive(Debug, Clone)]
pub struct Table {
    /// Aggregation column values, one per row.
    values: Vec<f64>,
    /// Predicate columns, column-major: `predicates[dim][row]`.
    predicates: Vec<Vec<f64>>,
    /// Column names: `names[0]` is the aggregation column, `names[1..]` the
    /// predicate columns in dimension order.
    names: Vec<String>,
}

impl Table {
    /// Build a table from the aggregation column and predicate columns.
    ///
    /// All columns must have identical length and there must be at least one
    /// predicate column.
    pub fn new(values: Vec<f64>, predicates: Vec<Vec<f64>>, names: Vec<String>) -> Result<Self> {
        if predicates.is_empty() {
            return Err(PassError::InvalidParameter(
                "predicates",
                "need at least one predicate column".into(),
            ));
        }
        if names.len() != predicates.len() + 1 {
            return Err(PassError::InvalidParameter(
                "names",
                format!(
                    "expected {} names (agg + predicates), got {}",
                    predicates.len() + 1,
                    names.len()
                ),
            ));
        }
        for (i, col) in predicates.iter().enumerate() {
            if col.len() != values.len() {
                return Err(PassError::InvalidParameter(
                    "predicates",
                    format!(
                        "column {i} has {} rows but value column has {}",
                        col.len(),
                        values.len()
                    ),
                ));
            }
        }
        Ok(Self {
            values,
            predicates,
            names,
        })
    }

    /// A table from a dataset generator's columns, which it builds to one
    /// length with one name each: the shape [`new`](Self::new) checks holds
    /// by construction, so here it is only debug-asserted.
    pub(crate) fn generated(
        values: Vec<f64>,
        predicates: Vec<Vec<f64>>,
        names: Vec<String>,
    ) -> Self {
        debug_assert!(!predicates.is_empty() && names.len() == predicates.len() + 1);
        debug_assert!(predicates.iter().all(|col| col.len() == values.len()));
        Self {
            values,
            predicates,
            names,
        }
    }

    /// The table with only its first predicate dimension:
    /// [`project(&[0])`](Self::project) without the copies or the error
    /// path, as a table always has a dimension 0.
    pub(crate) fn first_dim(mut self) -> Self {
        self.predicates.truncate(1);
        self.names.truncate(2);
        self
    }

    /// 1-D convenience constructor with default column names.
    pub fn one_dim(predicate: Vec<f64>, values: Vec<f64>) -> Result<Self> {
        Self::new(
            values,
            vec![predicate],
            vec!["value".into(), "predicate".into()],
        )
    }

    /// Number of rows.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.values.len()
    }

    /// Number of predicate dimensions.
    #[inline]
    pub fn dims(&self) -> usize {
        self.predicates.len()
    }

    /// Aggregation value of row `i`.
    #[inline]
    pub fn value(&self, i: usize) -> f64 {
        self.values[i]
    }

    /// All aggregation values.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Predicate column `dim`.
    #[inline]
    pub fn predicate_column(&self, dim: usize) -> &[f64] {
        &self.predicates[dim]
    }

    /// Predicate coordinate of row `i` in dimension `dim`.
    #[inline]
    pub fn predicate(&self, dim: usize, i: usize) -> f64 {
        self.predicates[dim][i]
    }

    /// Column names (aggregation column first).
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Does row `i` satisfy the rectangular predicate?
    #[inline]
    pub fn matches(&self, rect: &Rect, i: usize) -> bool {
        debug_assert_eq!(rect.dims(), self.dims());
        (0..self.dims()).all(|d| {
            let p = self.predicates[d][i];
            rect.lo(d) <= p && p <= rect.hi(d)
        })
    }

    /// Exact aggregates of the rows matching `rect` (full scan — the ground
    /// truth oracle for tests and metrics).
    pub fn scan_aggregates(&self, rect: &Rect) -> Aggregates {
        let mut agg = Aggregates::empty();
        for i in 0..self.n_rows() {
            if self.matches(rect, i) {
                agg.insert(self.values[i]);
            }
        }
        agg
    }

    /// Exact answer to a query by full scan. AVG/MIN/MAX over an empty
    /// selection return `None`.
    pub fn ground_truth(&self, query: &Query) -> Option<f64> {
        if query.dims() != self.dims() {
            return None;
        }
        self.scan_aggregates(&query.rect).answer(query.agg)
    }

    /// `(min, max)` of one predicate column; `None` on an empty table.
    pub fn predicate_range(&self, dim: usize) -> Option<(f64, f64)> {
        let col = &self.predicates[dim];
        if col.is_empty() {
            return None;
        }
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &v in col {
            if v < lo {
                lo = v;
            }
            if v > hi {
                hi = v;
            }
        }
        Some((lo, hi))
    }

    /// The bounding rectangle of all predicate columns (the root ψ in data
    /// coordinates). `None` on an empty table.
    pub fn bounding_rect(&self) -> Option<Rect> {
        let bounds: Option<Vec<(f64, f64)>> =
            (0..self.dims()).map(|d| self.predicate_range(d)).collect();
        bounds.map(|b| Rect::new(&b))
    }

    /// A new table keeping only the selected predicate dimensions (used by
    /// the multi-dimensional query templates Q1..Q5, Section 5.4).
    pub fn project(&self, dims: &[usize]) -> Result<Self> {
        if dims.is_empty() {
            return Err(PassError::InvalidParameter(
                "dims",
                "projection needs at least one dimension".into(),
            ));
        }
        let mut predicates = Vec::with_capacity(dims.len());
        let mut names = vec![self.names[0].clone()];
        for &d in dims {
            if d >= self.dims() {
                return Err(self.no_dim("dims", d));
            }
            predicates.push(self.predicates[d].clone());
            names.push(self.names[d + 1].clone());
        }
        Self::new(self.values.clone(), predicates, names)
    }

    /// Predicate coordinates of row `i` as a point (allocates; use
    /// [`Table::predicate`] in hot loops).
    pub fn point(&self, i: usize) -> Vec<f64> {
        (0..self.dims()).map(|d| self.predicates[d][i]).collect()
    }

    /// Materialize the selected rows as a new table, visiting `indices`
    /// once and pushing into every column buffer as it goes (instead of
    /// one indexed map per column). The result reuses this table's
    /// schema, so no shape re-validation is needed.
    pub fn gather(&self, indices: &[usize]) -> Self {
        let mut values = Vec::with_capacity(indices.len());
        let mut predicates: Vec<Vec<f64>> = (0..self.dims())
            .map(|_| Vec::with_capacity(indices.len()))
            .collect();
        for &i in indices {
            values.push(self.values[i]);
            for (col, src) in predicates.iter_mut().zip(&self.predicates) {
                col.push(src[i]);
            }
        }
        Self {
            values,
            predicates,
            names: self.names.clone(),
        }
    }

    /// Append one row (dynamic-update path). `preds` must supply one
    /// coordinate per predicate dimension.
    pub fn push_row(&mut self, value: f64, preds: &[f64]) {
        // invariant: callers check the arity first (`Pass::locate` for updates).
        debug_assert_eq!(preds.len(), self.dims(), "predicate arity mismatch");
        self.values.push(value);
        for (col, &p) in self.predicates.iter_mut().zip(preds) {
            col.push(p);
        }
    }

    /// Insert one row at position `i` (order preserved).
    pub fn insert_row(&mut self, i: usize, value: f64, preds: &[f64]) {
        // invariant: callers check the arity first (`Pass::locate` for updates).
        debug_assert_eq!(preds.len(), self.dims(), "predicate arity mismatch");
        self.values.insert(i, value);
        for (col, &p) in self.predicates.iter_mut().zip(preds) {
            col.insert(i, p);
        }
    }

    /// Remove row `i` (order preserved).
    pub fn remove_row(&mut self, i: usize) {
        self.values.remove(i);
        for col in &mut self.predicates {
            col.remove(i);
        }
    }

    /// Remove row `i`, moving the last row into its place (O(1)).
    pub fn swap_remove_row(&mut self, i: usize) {
        self.values.swap_remove(i);
        for col in &mut self.predicates {
            col.swap_remove(i);
        }
    }

    /// Overwrite row `i` in place (reservoir replacement path).
    pub fn replace_row(&mut self, i: usize, value: f64, preds: &[f64]) {
        // invariant: callers check the arity first (`Pass::locate` for updates).
        debug_assert_eq!(preds.len(), self.dims(), "predicate arity mismatch");
        self.values[i] = value;
        for (col, &p) in self.predicates.iter_mut().zip(preds) {
            col[i] = p;
        }
    }

    /// Unique hash index over predicate column `dim`: canonicalized key
    /// bit pattern → row index (the FK-join build block — the dimension
    /// side of a `pass_common::JoinSpec` indexes its key column once and
    /// every sampled fact row probes it in O(1)).
    ///
    /// Keys hash by bit pattern with `-0.0` canonicalized to `0.0`, so
    /// the two equal-comparing zeros land on one entry (the same
    /// canonicalization `pass_common::ShardPlan::key_shard` applies).
    /// NaN keys (which equal nothing, themselves included) and duplicate
    /// keys are rejected with typed errors — a multi-valued index would
    /// silently pick an arbitrary match.
    pub fn key_index(&self, dim: usize) -> Result<std::collections::HashMap<u64, usize>> {
        if dim >= self.dims() {
            return Err(self.no_dim("dim", dim));
        }
        let col = &self.predicates[dim];
        let mut index = std::collections::HashMap::with_capacity(col.len());
        for (row, &key) in col.iter().enumerate() {
            if key.is_nan() {
                return Err(PassError::InvalidParameter(
                    "key",
                    format!("row {row} has a NaN key; NaN joins nothing"),
                ));
            }
            let canonical = if key == 0.0 { 0.0f64 } else { key };
            if index.insert(canonical.to_bits(), row).is_some() {
                return Err(PassError::InvalidParameter(
                    "key",
                    format!("duplicate key {key} at row {row}"),
                ));
            }
        }
        Ok(index)
    }

    /// The error for a dimension index `d`, given as `field`, that is
    /// past this table's predicate columns.
    pub(crate) fn no_dim(&self, field: &'static str, d: usize) -> PassError {
        let arity = self.dims();
        let why = format!("dimension {d} is past the table's arity {arity}");
        PassError::InvalidParameter(field, why)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pass_common::AggKind;

    fn small() -> Table {
        // predicate: 0..10, value = predicate * 2
        let pred: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let vals: Vec<f64> = pred.iter().map(|p| p * 2.0).collect();
        Table::one_dim(pred, vals).unwrap()
    }

    #[test]
    fn construction_validates_shapes() {
        assert!(Table::new(vec![1.0], vec![], vec!["v".into()]).is_err());
        assert!(Table::new(
            vec![1.0, 2.0],
            vec![vec![1.0]],
            vec!["v".into(), "p".into()]
        )
        .is_err());
        assert!(Table::new(vec![1.0], vec![vec![1.0]], vec!["v".into()]).is_err());
    }

    #[test]
    fn scan_matches_manual_computation() {
        let t = small();
        let agg = t.scan_aggregates(&Rect::interval(2.0, 5.0));
        // rows 2,3,4,5 -> values 4,6,8,10
        assert_eq!(agg.count, 4);
        assert_eq!(agg.sum, 28.0);
        assert_eq!(agg.min, 4.0);
        assert_eq!(agg.max, 10.0);
    }

    #[test]
    fn ground_truth_all_aggregates() {
        let t = small();
        let r = |agg| Query::new(agg, Rect::interval(0.0, 9.0));
        assert_eq!(t.ground_truth(&r(AggKind::Sum)), Some(90.0));
        assert_eq!(t.ground_truth(&r(AggKind::Count)), Some(10.0));
        assert_eq!(t.ground_truth(&r(AggKind::Avg)), Some(9.0));
        assert_eq!(t.ground_truth(&r(AggKind::Min)), Some(0.0));
        assert_eq!(t.ground_truth(&r(AggKind::Max)), Some(18.0));
    }

    #[test]
    fn empty_selection_semantics() {
        let t = small();
        let q = Query::interval(AggKind::Sum, 100.0, 200.0);
        assert_eq!(t.ground_truth(&q), Some(0.0));
        let q = Query::interval(AggKind::Avg, 100.0, 200.0);
        assert_eq!(t.ground_truth(&q), None);
    }

    #[test]
    fn dimension_mismatch_is_none() {
        let t = small();
        let q = Query::new(AggKind::Sum, Rect::new(&[(0.0, 1.0), (0.0, 1.0)]));
        assert_eq!(t.ground_truth(&q), None);
    }

    #[test]
    fn predicate_range_and_bounding_rect() {
        let t = small();
        assert_eq!(t.predicate_range(0), Some((0.0, 9.0)));
        let r = t.bounding_rect().unwrap();
        assert_eq!(r.lo(0), 0.0);
        assert_eq!(r.hi(0), 9.0);
    }

    #[test]
    fn multi_dim_matching() {
        let t = Table::new(
            vec![1.0, 2.0, 3.0],
            vec![vec![0.0, 1.0, 2.0], vec![10.0, 20.0, 30.0]],
            vec!["v".into(), "x".into(), "y".into()],
        )
        .unwrap();
        let rect = Rect::new(&[(0.5, 2.5), (15.0, 35.0)]);
        assert!(!t.matches(&rect, 0));
        assert!(t.matches(&rect, 1));
        assert!(t.matches(&rect, 2));
        assert_eq!(t.scan_aggregates(&rect).sum, 5.0);
    }

    #[test]
    fn projection_selects_dimensions() {
        let t = Table::new(
            vec![1.0, 2.0],
            vec![vec![0.0, 1.0], vec![10.0, 20.0], vec![5.0, 6.0]],
            vec!["v".into(), "a".into(), "b".into(), "c".into()],
        )
        .unwrap();
        let p = t.project(&[2, 0]).unwrap();
        assert_eq!(p.dims(), 2);
        assert_eq!(p.predicate(0, 1), 6.0);
        assert_eq!(p.predicate(1, 1), 1.0);
        assert_eq!(p.names()[1], "c");
        assert!(t.project(&[]).is_err());
        assert!(t.project(&[7]).is_err());
    }

    #[test]
    fn key_index_maps_canonical_bits_to_rows() {
        let t = Table::one_dim(vec![3.0, -0.0, 7.5], vec![1.0, 2.0, 3.0]).unwrap();
        let idx = t.key_index(0).unwrap();
        assert_eq!(idx.len(), 3);
        assert_eq!(idx[&3.0f64.to_bits()], 0);
        assert_eq!(idx[&7.5f64.to_bits()], 2);
        // -0.0 is stored (and must be probed) under +0.0's bits.
        assert_eq!(idx[&0.0f64.to_bits()], 1);
        assert!(!idx.contains_key(&(-0.0f64).to_bits()));
        // Out-of-range dim, NaN keys, and duplicates are typed errors.
        assert!(matches!(
            t.key_index(1),
            Err(PassError::InvalidParameter("dim", _))
        ));
        let nan = Table::one_dim(vec![1.0, f64::NAN], vec![0.0, 0.0]).unwrap();
        assert!(matches!(
            nan.key_index(0),
            Err(PassError::InvalidParameter("key", _))
        ));
        let dup = Table::one_dim(vec![2.0, 2.0], vec![0.0, 0.0]).unwrap();
        assert!(matches!(
            dup.key_index(0),
            Err(PassError::InvalidParameter("key", _))
        ));
        let zeros = Table::one_dim(vec![0.0, -0.0], vec![0.0, 0.0]).unwrap();
        assert!(zeros.key_index(0).is_err());
    }

    #[test]
    fn row_mutators_move_every_column_together() {
        let mut t = Table::new(
            vec![1.0, 3.0, 4.0],
            vec![vec![10.0, 30.0, 40.0], vec![0.1, 0.3, 0.4]],
            vec!["v".into(), "x".into(), "y".into()],
        )
        .unwrap();
        t.insert_row(1, 2.0, &[20.0, 0.2]);
        t.push_row(5.0, &[50.0, 0.5]);
        assert_eq!(t.values(), [1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(t.predicate_column(1), [0.1, 0.2, 0.3, 0.4, 0.5]);
        t.remove_row(0);
        t.swap_remove_row(0);
        t.replace_row(1, 7.0, &[70.0, 0.7]);
        assert_eq!(t.values(), [5.0, 7.0, 4.0]);
        assert_eq!(t.predicate_column(0), [50.0, 70.0, 40.0]);
        assert_eq!(t.predicate_column(1), [0.5, 0.7, 0.4]);
    }

    #[test]
    fn point_extraction() {
        let t = Table::new(
            vec![1.0],
            vec![vec![2.0], vec![3.0]],
            vec!["v".into(), "x".into(), "y".into()],
        )
        .unwrap();
        assert_eq!(t.point(0), vec![2.0, 3.0]);
    }
}

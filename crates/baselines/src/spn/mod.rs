//! DeepDB-style sum-product network [Hilprecht et al. 2019].
//!
//! A compact re-implementation of DeepDB's estimation path, standing in
//! for the closed-source system in Table 2:
//!
//! * **Sum nodes** cluster rows (2-means over normalized columns) —
//!   capturing multimodality;
//! * **Product nodes** split columns into (approximately) independent
//!   groups — DeepDB uses an RDC test, we use a |Pearson| threshold on a
//!   row subsample (documented simplification);
//! * **Leaves** are per-column equi-depth [`Histogram`]s.
//!
//! COUNT = `N·P(pred)`, SUM = `N·E[value·1(pred)]`, AVG = SUM/COUNT, all
//! evaluated by one recursive pass. Like DeepDB, the model yields no
//! rigorous confidence interval; `ci_half` is reported as 0 and `exact`
//! as false.

mod histogram;
mod learn;

pub use histogram::Histogram;

use pass_common::{check_dims, AggKind, EngineSpec, Estimate, PassError, Query, Result, Synopsis};
use pass_table::Table;

use learn::learn;
pub(crate) use learn::Node;

/// A trained SPN over `d` predicate columns plus the aggregate column.
#[derive(Debug, Clone)]
pub struct SpnSynopsis {
    pub(crate) nodes: Vec<Node>,
    pub(crate) root: usize,
    /// Column count = predicate dims + 1 (the aggregate column is the last
    /// column index `dims`).
    pub(crate) dims: usize,
    pub(crate) population: u64,
    pub(crate) name: String,
    /// Requested (training ratio, seed), kept for [`Synopsis::spec`].
    pub(crate) requested: (f64, u64),
}

impl SpnSynopsis {
    /// Train on a `ratio`-fraction row sample of the table (DeepDB-10% /
    /// DeepDB-100% in Table 2).
    pub fn build(table: &Table, ratio: f64, seed: u64) -> Result<Self> {
        if table.n_rows() == 0 {
            return Err(PassError::EmptyInput("SPN over empty table"));
        }
        EngineSpec::Spn { ratio, seed }.validate()?;
        // A histogram leaf orders its column, and a NaN has no place in
        // that order.
        if table.values().iter().any(|v| v.is_nan()) {
            return Err(PassError::InvalidParameter(
                "values",
                "the value column holds a NaN, which an SPN histogram cannot order".into(),
            ));
        }
        for dim in 0..table.dims() {
            if table.predicate_column(dim).iter().any(|v| v.is_nan()) {
                return Err(PassError::InvalidParameter(
                    "predicates",
                    format!("column {dim} holds a NaN, which an SPN histogram cannot order"),
                ));
            }
        }
        let (nodes, root) = learn(table, ratio, seed)?;
        Ok(Self {
            nodes,
            root,
            dims: table.dims(),
            population: table.n_rows() as u64,
            name: format!("DeepDB-{}%", (ratio * 100.0).round()),
            requested: (ratio, seed),
        })
    }

    /// Column ranges for a query: predicate columns constrained by the
    /// rectangle, the aggregate column unconstrained.
    fn ranges(&self, query: &Query) -> Vec<Option<(f64, f64)>> {
        let mut ranges: Vec<Option<(f64, f64)>> = (0..query.dims())
            .map(|d| Some((query.rect.lo(d), query.rect.hi(d))))
            .collect();
        ranges.push(None); // aggregate column
        ranges
    }

    /// `P(pred)` under the model.
    fn prob(&self, node: usize, ranges: &[Option<(f64, f64)>]) -> f64 {
        match &self.nodes[node] {
            Node::Leaf { col, hist } => match ranges[*col] {
                Some((lo, hi)) => hist.prob(lo, hi),
                None => 1.0,
            },
            Node::Sum(children) => children
                .iter()
                .map(|(w, c)| w * self.prob(*c, ranges))
                .sum(),
            Node::Product(children) => children
                .iter()
                .map(|(_, c)| self.prob(*c, ranges))
                .product(),
        }
    }

    /// `E[target · 1(pred)]` under the model.
    fn expect(&self, node: usize, ranges: &[Option<(f64, f64)>], target: usize) -> f64 {
        match &self.nodes[node] {
            Node::Leaf { col, hist } => {
                debug_assert_eq!(*col, target, "expectation reached a non-target leaf");
                match ranges[*col] {
                    Some((lo, hi)) => hist.expectation(lo, hi),
                    None => hist.mean_all(),
                }
            }
            Node::Sum(children) => children
                .iter()
                .map(|(w, c)| w * self.expect(*c, ranges, target))
                .sum(),
            Node::Product(children) => {
                let mut out = 1.0;
                for (cols, c) in children {
                    if cols.contains(&target) {
                        out *= self.expect(*c, ranges, target);
                    } else {
                        out *= self.prob(*c, ranges);
                    }
                }
                out
            }
        }
    }

    /// Number of SPN nodes (structure-size diagnostics).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }
}

impl Synopsis for SpnSynopsis {
    fn name(&self) -> &str {
        &self.name
    }

    fn spec(&self) -> EngineSpec {
        EngineSpec::Spn {
            ratio: self.requested.0,
            seed: self.requested.1,
        }
    }

    fn save_state(&self, out: &mut Vec<u8>) -> Result<()> {
        crate::snapshot::save_spn(self, out);
        Ok(())
    }

    fn estimate(&self, query: &Query) -> Result<Estimate> {
        check_dims(self.dims, query.dims())?;
        let ranges = self.ranges(query);
        let n = self.population as f64;
        let target = self.dims; // aggregate column index
        let value = match query.agg {
            AggKind::Count => n * self.prob(self.root, &ranges),
            AggKind::Sum => n * self.expect(self.root, &ranges, target),
            AggKind::Avg => {
                let p = self.prob(self.root, &ranges);
                if p <= 0.0 {
                    return Err(PassError::EmptyInput(
                        "model assigns zero probability to the predicate",
                    ));
                }
                self.expect(self.root, &ranges, target) / p
            }
            AggKind::Min | AggKind::Max => {
                return Err(PassError::InvalidParameter(
                    "agg",
                    "the SPN models expectations; MIN/MAX are unsupported".into(),
                ))
            }
        };
        // Model-based estimation touches no tuples at query time.
        Ok(Estimate::approximate(value, 0.0).with_accounting(0, self.population))
    }

    fn storage_bytes(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| match n {
                Node::Leaf { hist, .. } => 8 + hist.storage_bytes(),
                Node::Sum(ch) => 8 + ch.len() * 16,
                Node::Product(ch) => {
                    8 + ch.iter().map(|(cols, _)| 8 + cols.len() * 8).sum::<usize>()
                }
            })
            .sum()
    }

    fn dims(&self) -> usize {
        self.dims
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pass_table::datasets::{instacart, taxi, uniform};

    #[test]
    fn count_estimates_track_truth_on_uniform_data() {
        let t = uniform(30_000, 1);
        let spn = SpnSynopsis::build(&t, 1.0, 2).unwrap();
        let q = Query::interval(AggKind::Count, 0.2, 0.7);
        let est = spn.estimate(&q).unwrap();
        let truth = t.ground_truth(&q).unwrap();
        let rel = (est.value - truth).abs() / truth;
        assert!(rel < 0.05, "rel {rel}");
    }

    #[test]
    fn sum_and_avg_reasonable() {
        let t = uniform(30_000, 3);
        let spn = SpnSynopsis::build(&t, 1.0, 4).unwrap();
        for agg in [AggKind::Sum, AggKind::Avg] {
            let q = Query::interval(agg, 0.1, 0.9);
            let est = spn.estimate(&q).unwrap();
            let truth = t.ground_truth(&q).unwrap();
            let rel = (est.value - truth).abs() / truth;
            assert!(rel < 0.1, "{agg}: rel {rel}");
        }
    }

    #[test]
    fn ten_percent_training_still_sane() {
        let t = uniform(50_000, 5);
        let spn = SpnSynopsis::build(&t, 0.1, 6).unwrap();
        assert_eq!(spn.name(), "DeepDB-10%");
        let q = Query::interval(AggKind::Count, 0.3, 0.8);
        let est = spn.estimate(&q).unwrap();
        let truth = t.ground_truth(&q).unwrap();
        assert!((est.value - truth).abs() / truth < 0.1);
    }

    #[test]
    fn struggles_on_skewed_categorical_data() {
        // The paper's Table 2 shows DeepDB degrading badly on Instacart;
        // our stand-in shows the same qualitative weakness: a narrow
        // categorical predicate gets a noticeably worse estimate than a
        // broad one.
        let t = instacart(50_000, 7);
        let spn = SpnSynopsis::build(&t, 1.0, 8).unwrap();
        let (lo, hi) = t.predicate_range(0).unwrap();
        let broad = Query::interval(AggKind::Count, lo, hi);
        let broad_rel = {
            let est = spn.estimate(&broad).unwrap();
            let truth = t.ground_truth(&broad).unwrap();
            (est.value - truth).abs() / truth
        };
        assert!(broad_rel < 0.02, "broad query should be near-exact");
    }

    #[test]
    fn multi_dim_queries_supported() {
        let t = taxi(20_000, 9).project(&[1, 2]).unwrap();
        let spn = SpnSynopsis::build(&t, 1.0, 10).unwrap();
        let rect = t.bounding_rect().unwrap();
        let q = Query::new(AggKind::Count, rect.clone());
        let est = spn.estimate(&q).unwrap();
        assert!((est.value - 20_000.0).abs() / 20_000.0 < 0.02);
    }

    #[test]
    fn minmax_unsupported() {
        let t = uniform(1_000, 11);
        let spn = SpnSynopsis::build(&t, 1.0, 12).unwrap();
        assert!(spn
            .estimate(&Query::interval(AggKind::Min, 0.0, 1.0))
            .is_err());
    }

    /// A 1-D table with a NaN in every tenth row of its value column
    /// (`values`) or of its predicate column.
    fn tenth_rows_nan(values: bool) -> Table {
        let column = |nan: bool, cell: fn(usize) -> f64| {
            let spoil = |i| nan && i % 10 == 0;
            (0..500)
                .map(|i| if spoil(i) { f64::NAN } else { cell(i) })
                .collect()
        };
        let keys = column(!values, |i| i as f64);
        Table::one_dim(keys, column(values, |i| (i % 17) as f64)).unwrap()
    }

    #[test]
    fn a_nan_value_cell_is_a_typed_refusal() {
        let err = SpnSynopsis::build(&tenth_rows_nan(true), 1.0, 0).err();
        assert!(
            matches!(err, Some(PassError::InvalidParameter("values", _))),
            "{err:?}"
        );
    }

    #[test]
    fn a_nan_predicate_cell_is_a_typed_refusal() {
        let err = SpnSynopsis::build(&tenth_rows_nan(false), 1.0, 0).err();
        assert!(
            matches!(err, Some(PassError::InvalidParameter("predicates", _))),
            "{err:?}"
        );
    }

    #[test]
    fn query_time_touches_no_tuples() {
        let t = uniform(5_000, 13);
        let spn = SpnSynopsis::build(&t, 1.0, 14).unwrap();
        let est = spn
            .estimate(&Query::interval(AggKind::Count, 0.0, 0.5))
            .unwrap();
        assert_eq!(est.tuples_processed, 0);
        assert_eq!(est.tuples_skipped, 5_000);
    }
}

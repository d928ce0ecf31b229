//! The `V_i(q)` variance oracles of Section 4.2.1.
//!
//! For a query `q` fully inside partition `b_i` (with `N_i` rows, of which
//! `N_{i,q}` match the query):
//!
//! * AVG:   `V_i(q) = (1/N_i) · (1/N_{i,q}²) · [N_i·Σt² − (Σt)²]`
//! * SUM:   `V_i(q) = (1/N_i) · [N_i·Σt² − (Σt)²]`
//! * COUNT: the SUM formula with `t_h = 1`, i.e.
//!   `V_i(q) = N_{i,q}·(1 − N_{i,q}/N_i)`
//!
//! The bracket is the *scatter* `N_i·Σt² − (Σt)²` over the query's rows,
//! served in O(1) by [`PrefixSums`]. The same formulas apply verbatim in
//! sample space (Appendix A.2) up to the global `(N_i/n_i)²` ratio, which is
//! constant across partitions under the Appendix A.1 assumption and
//! therefore irrelevant to the arg-min.

use pass_common::{AggKind, PassError, PrefixSums, Result};

/// O(1) variance oracle over a value sequence (full data or a sample),
/// sorted by predicate key.
#[derive(Debug, Clone, Copy)]
pub struct VarianceOracle<'a> {
    prefix: &'a PrefixSums,
    kind: Objective,
}

/// The aggregates a `V_i(q)` formula exists for.
#[derive(Debug, Clone, Copy)]
enum Objective {
    Sum,
    Avg,
    Count,
}

impl<'a> VarianceOracle<'a> {
    /// The oracle for `kind`'s variance. MIN and MAX have no variance
    /// objective: asking for one is an
    /// [`InvalidParameter`](PassError::InvalidParameter), as it is for
    /// every partitioner that would score with it.
    pub fn new(prefix: &'a PrefixSums, kind: AggKind) -> Result<Self> {
        let kind = match kind {
            AggKind::Sum => Objective::Sum,
            AggKind::Avg => Objective::Avg,
            AggKind::Count => Objective::Count,
            AggKind::Min | AggKind::Max => {
                return Err(PassError::InvalidParameter(
                    "strategy_agg",
                    format!("variance oracles exist for SUM, COUNT and AVG; {kind} has none"),
                ))
            }
        };
        Ok(Self { prefix, kind })
    }

    /// `V_i(q)` for the query occupying rows `[q_lo, q_hi)` of a partition
    /// occupying rows `[p_lo, p_hi)`. The query must lie inside the
    /// partition.
    pub fn query_variance(&self, p_lo: usize, p_hi: usize, q_lo: usize, q_hi: usize) -> f64 {
        debug_assert!(p_lo <= q_lo && q_hi <= p_hi && q_lo <= q_hi);
        let n_i = (p_hi - p_lo) as f64;
        let n_iq = (q_hi - q_lo) as f64;
        if n_i == 0.0 || n_iq == 0.0 {
            return 0.0;
        }
        match self.kind {
            Objective::Sum => {
                let s = self.prefix.range_sum(q_lo, q_hi);
                let s2 = self.prefix.range_sum_sq(q_lo, q_hi);
                ((n_i * s2 - s * s) / n_i).max(0.0)
            }
            Objective::Avg => {
                let s = self.prefix.range_sum(q_lo, q_hi);
                let s2 = self.prefix.range_sum_sq(q_lo, q_hi);
                ((n_i * s2 - s * s) / (n_i * n_iq * n_iq)).max(0.0)
            }
            Objective::Count => (n_iq * (1.0 - n_iq / n_i)).max(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle_data() -> (Vec<f64>, PrefixSums) {
        let v = vec![2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let p = PrefixSums::build(&v);
        (v, p)
    }

    #[test]
    fn sum_variance_matches_formula() {
        let (v, p) = oracle_data();
        let o = VarianceOracle::new(&p, AggKind::Sum).unwrap();
        // Partition = whole sequence; query = rows [2, 6).
        let n_i = v.len() as f64;
        let s: f64 = v[2..6].iter().sum();
        let s2: f64 = v[2..6].iter().map(|x| x * x).sum();
        let expected = (n_i * s2 - s * s) / n_i;
        assert!((o.query_variance(0, 8, 2, 6) - expected).abs() < 1e-10);
    }

    #[test]
    fn avg_variance_matches_formula() {
        let (v, p) = oracle_data();
        let o = VarianceOracle::new(&p, AggKind::Avg).unwrap();
        let n_i = v.len() as f64;
        let n_iq = 4.0;
        let s: f64 = v[2..6].iter().sum();
        let s2: f64 = v[2..6].iter().map(|x| x * x).sum();
        let expected = (n_i * s2 - s * s) / (n_i * n_iq * n_iq);
        assert!((o.query_variance(0, 8, 2, 6) - expected).abs() < 1e-10);
    }

    #[test]
    fn count_variance_peaks_at_half() {
        let (_, p) = oracle_data();
        let o = VarianceOracle::new(&p, AggKind::Count).unwrap();
        // Lemma A.1: V = X(N - X)/N maximized at X = N/2.
        let half = o.query_variance(0, 8, 0, 4);
        for q_hi in 1..=8 {
            assert!(o.query_variance(0, 8, 0, q_hi) <= half + 1e-12);
        }
        assert_eq!(o.query_variance(0, 8, 0, 8), 0.0); // whole partition
    }

    #[test]
    fn monotone_in_partition_growth() {
        // Section 4.3: V_x(q) <= V_y(q) when b_x ⊆ b_y (same query rows).
        let (_, p) = oracle_data();
        for kind in [AggKind::Sum, AggKind::Avg, AggKind::Count] {
            let o = VarianceOracle::new(&p, kind).unwrap();
            let narrow = o.query_variance(2, 6, 3, 5);
            let wide = o.query_variance(0, 8, 3, 5);
            assert!(
                narrow <= wide + 1e-12,
                "{kind}: narrow {narrow} > wide {wide}"
            );
        }
    }

    #[test]
    fn empty_query_or_partition_is_zero() {
        let (_, p) = oracle_data();
        let o = VarianceOracle::new(&p, AggKind::Sum).unwrap();
        assert_eq!(o.query_variance(0, 8, 3, 3), 0.0);
        assert_eq!(o.query_variance(4, 4, 4, 4), 0.0);
    }

    #[test]
    fn constant_values_reduce_to_membership_variance() {
        // With constant value c the SUM scatter collapses to the COUNT form
        // scaled by c²: V_sum = c²·N_iq·(1 − N_iq/N_i). The membership
        // uncertainty (how many tuples match) never vanishes — only the
        // value-spread term does.
        let v = vec![5.0; 16];
        let p = PrefixSums::build(&v);
        let o_sum = VarianceOracle::new(&p, AggKind::Sum).unwrap();
        let o_count = VarianceOracle::new(&p, AggKind::Count).unwrap();
        let vs = o_sum.query_variance(0, 16, 4, 12);
        let vc = o_count.query_variance(0, 16, 4, 12);
        assert!((vs - 25.0 * vc).abs() < 1e-9, "sum {vs} vs 25·count {vc}");
        assert!(vc > 0.0);
        // Querying the whole partition leaves no uncertainty at all.
        assert_eq!(o_sum.query_variance(0, 16, 0, 16), 0.0);
        assert_eq!(o_count.query_variance(0, 16, 0, 16), 0.0);
    }

    #[test]
    fn min_is_rejected() {
        // A typed error in every profile (it used to be a debug assertion,
        // then an `unreachable!` in release).
        let p = PrefixSums::build(&[1.0]);
        for kind in [AggKind::Min, AggKind::Max] {
            let err = VarianceOracle::new(&p, kind).unwrap_err();
            assert!(
                matches!(&err, PassError::InvalidParameter("strategy_agg", why) if why.contains("variance oracles exist")),
                "{kind}: {err:?}"
            );
        }
    }
}

//! Aggregate kinds and mergeable per-partition statistics.
//!
//! Every node of a PASS partition tree stores [`Aggregates`]: the exact SUM,
//! COUNT, MIN and MAX of the aggregation column over the node's partition
//! (Section 3.2). These are *mergeable summaries*: a parent's statistics are
//! the merge of its children's, which is what makes the bottom-up tree
//! construction and the O(1) dynamic update per node possible.

use crate::kahan::KahanSum;

/// The aggregate functions PASS supports (Section 3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggKind {
    /// Sum of the aggregation column over matching rows.
    Sum,
    /// Number of matching rows.
    Count,
    /// Mean of the aggregation column over matching rows.
    Avg,
    /// Minimum of the aggregation column over matching rows.
    Min,
    /// Maximum of the aggregation column over matching rows.
    Max,
}

impl AggKind {
    /// All supported kinds, handy for exhaustive test sweeps.
    pub const ALL: [AggKind; 5] = [
        AggKind::Sum,
        AggKind::Count,
        AggKind::Avg,
        AggKind::Min,
        AggKind::Max,
    ];

    /// The three "moment" aggregates with sampling-based estimators.
    pub const SAMPLED: [AggKind; 3] = [AggKind::Sum, AggKind::Count, AggKind::Avg];

    /// True for the aggregates whose contributions from disjoint strata
    /// simply add (SUM and COUNT) — equivalently, those with a
    /// well-defined zero contribution from an empty stratum. The sharded
    /// merge (`crate::partial::merge_available`) leans on this.
    pub fn is_additive(self) -> bool {
        matches!(self, AggKind::Sum | AggKind::Count)
    }

    /// Short lowercase name used in printed benchmark tables.
    pub fn name(self) -> &'static str {
        match self {
            AggKind::Sum => "SUM",
            AggKind::Count => "COUNT",
            AggKind::Avg => "AVG",
            AggKind::Min => "MIN",
            AggKind::Max => "MAX",
        }
    }
}

impl std::fmt::Display for AggKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Exact mergeable statistics of one partition of the aggregation column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aggregates {
    /// Exact sum of the column over the partition.
    pub sum: f64,
    /// Exact sum of squares (variance bookkeeping for the ADP optimizer).
    pub sum_sq: f64,
    /// Number of rows in the partition.
    pub count: u64,
    /// Minimum value (`+∞` for an empty partition).
    pub min: f64,
    /// Maximum value (`−∞` for an empty partition).
    pub max: f64,
}

impl Aggregates {
    /// The identity element for [`merge`](Self::merge): an empty partition.
    pub fn empty() -> Self {
        Self {
            sum: 0.0,
            sum_sq: 0.0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Exact statistics of a slice of values (compensated summation).
    pub fn from_values(values: &[f64]) -> Self {
        let mut sum = KahanSum::new();
        let mut sum_sq = KahanSum::new();
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &v in values {
            sum.add(v);
            sum_sq.add(v * v);
            if v < min {
                min = v;
            }
            if v > max {
                max = v;
            }
        }
        Self {
            sum: sum.total(),
            sum_sq: sum_sq.total(),
            count: values.len() as u64,
            min,
            max,
        }
    }

    /// Whether the partition holds no tuples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// AVG of the partition; `None` when empty.
    #[inline]
    pub fn avg(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Population variance of the partition's values; `None` when empty.
    ///
    /// Computed from the moments; clamped at zero to absorb floating-point
    /// noise on constant partitions.
    pub fn variance(&self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let n = self.count as f64;
        let mean = self.sum / n;
        Some((self.sum_sq / n - mean * mean).max(0.0))
    }

    /// True when every value in the partition is identical (the paper's
    /// "0 variance rule" precondition: min == max, Section 3.4).
    #[inline]
    pub fn is_zero_variance(&self) -> bool {
        self.count > 0 && self.min == self.max
    }

    /// Merge two partitions' statistics (parent = merge of children).
    pub fn merge(&self, other: &Self) -> Self {
        Self {
            sum: self.sum + other.sum,
            sum_sq: self.sum_sq + other.sum_sq,
            count: self.count + other.count,
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }

    /// Add one value in place (dynamic insert path, Section 4.5).
    pub fn insert(&mut self, v: f64) {
        self.sum += v;
        self.sum_sq += v * v;
        self.count += 1;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Remove one value in place. SUM/COUNT/AVG stay exact; MIN/MAX cannot be
    /// tightened without a full rescan, so they remain *conservative* bounds
    /// (still valid as hard bounds, possibly loose). Returns `true` when the
    /// removed value touched an extremum, i.e. the caller may want a rescan.
    pub fn remove(&mut self, v: f64) -> bool {
        debug_assert!(self.count > 0, "remove from empty partition");
        self.sum -= v;
        self.sum_sq -= v * v;
        self.count -= 1;
        if self.count == 0 {
            *self = Self::empty();
            return false;
        }
        v <= self.min || v >= self.max
    }

    /// Answer an aggregate over the *whole* partition exactly.
    /// `None` for AVG/MIN/MAX of an empty partition.
    pub fn answer(&self, kind: AggKind) -> Option<f64> {
        match kind {
            AggKind::Sum => Some(self.sum),
            AggKind::Count => Some(self.count as f64),
            AggKind::Avg => self.avg(),
            AggKind::Min => (self.count > 0).then_some(self.min),
            AggKind::Max => (self.count > 0).then_some(self.max),
        }
    }
}

impl Default for Aggregates {
    fn default() -> Self {
        Self::empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_values_basics() {
        let a = Aggregates::from_values(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.sum, 10.0);
        assert_eq!(a.count, 4);
        assert_eq!(a.min, 1.0);
        assert_eq!(a.max, 4.0);
        assert_eq!(a.avg(), Some(2.5));
        assert!((a.variance().unwrap() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn empty_partition_behaviour() {
        let e = Aggregates::empty();
        assert!(e.is_empty());
        assert_eq!(e.avg(), None);
        assert_eq!(e.variance(), None);
        assert!(!e.is_zero_variance());
        assert_eq!(e.answer(AggKind::Sum), Some(0.0));
        assert_eq!(e.answer(AggKind::Count), Some(0.0));
        assert_eq!(e.answer(AggKind::Min), None);
    }

    #[test]
    fn merge_equals_concatenation() {
        let left = Aggregates::from_values(&[1.0, 5.0]);
        let right = Aggregates::from_values(&[-2.0, 7.0, 0.0]);
        let merged = left.merge(&right);
        let whole = Aggregates::from_values(&[1.0, 5.0, -2.0, 7.0, 0.0]);
        assert_eq!(merged.sum, whole.sum);
        assert_eq!(merged.count, whole.count);
        assert_eq!(merged.min, whole.min);
        assert_eq!(merged.max, whole.max);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let a = Aggregates::from_values(&[3.0, 9.0]);
        let m = a.merge(&Aggregates::empty());
        assert_eq!(m, a);
        let m = Aggregates::empty().merge(&a);
        assert_eq!(m, a);
    }

    #[test]
    fn zero_variance_rule_detection() {
        let a = Aggregates::from_values(&[4.0, 4.0, 4.0]);
        assert!(a.is_zero_variance());
        assert_eq!(a.variance(), Some(0.0));
        let b = Aggregates::from_values(&[4.0, 4.0001]);
        assert!(!b.is_zero_variance());
    }

    #[test]
    fn insert_then_remove_roundtrip_moments() {
        let mut a = Aggregates::from_values(&[1.0, 2.0, 3.0]);
        a.insert(10.0);
        assert_eq!(a.sum, 16.0);
        assert_eq!(a.count, 4);
        assert_eq!(a.max, 10.0);
        let extremum_touched = a.remove(10.0);
        assert!(extremum_touched, "10.0 was the max");
        assert_eq!(a.sum, 6.0);
        assert_eq!(a.count, 3);
        // MAX is now conservative (still 10.0) but remains a valid bound.
        assert!(a.max >= 3.0);
    }

    #[test]
    fn remove_interior_value_keeps_extrema_exact() {
        let mut a = Aggregates::from_values(&[1.0, 2.0, 3.0]);
        let touched = a.remove(2.0);
        assert!(!touched);
        assert_eq!(a.min, 1.0);
        assert_eq!(a.max, 3.0);
    }

    #[test]
    fn remove_last_value_resets_to_empty() {
        let mut a = Aggregates::from_values(&[5.0]);
        a.remove(5.0);
        assert!(a.is_empty());
        assert_eq!(a, Aggregates::empty());
    }

    #[test]
    fn answer_covers_all_kinds() {
        let a = Aggregates::from_values(&[2.0, 8.0]);
        assert_eq!(a.answer(AggKind::Sum), Some(10.0));
        assert_eq!(a.answer(AggKind::Count), Some(2.0));
        assert_eq!(a.answer(AggKind::Avg), Some(5.0));
        assert_eq!(a.answer(AggKind::Min), Some(2.0));
        assert_eq!(a.answer(AggKind::Max), Some(8.0));
    }

    #[test]
    fn display_names() {
        assert_eq!(AggKind::Sum.to_string(), "SUM");
        assert_eq!(AggKind::ALL.len(), 5);
        assert_eq!(AggKind::SAMPLED.len(), 3);
    }

    #[test]
    fn additivity_covers_exactly_sum_and_count() {
        let additive: Vec<AggKind> = AggKind::ALL
            .into_iter()
            .filter(|k| k.is_additive())
            .collect();
        assert_eq!(additive, vec![AggKind::Sum, AggKind::Count]);
    }
}

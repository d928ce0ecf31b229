//! Equi-depth histogram leaves for the SPN.
//!
//! Each leaf models one column's marginal distribution within its row
//! cluster: equi-depth bin edges, per-bin probability mass, and per-bin
//! mean (for SUM/AVG expectations). Range probabilities assume a uniform
//! spread inside each bin, the standard histogram approximation.

/// Equi-depth histogram over one column.
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Bin edges, ascending, length `bins + 1`.
    pub(crate) edges: Vec<f64>,
    /// Probability mass per bin (sums to 1).
    pub(crate) mass: Vec<f64>,
    /// Mean value per bin.
    pub(crate) mean: Vec<f64>,
}

impl Histogram {
    /// Build over the (unsorted, NaN-free) values with at most `bins`
    /// bins.
    pub fn build(values: &[f64], bins: usize) -> Self {
        // invariant: learning splits rows into non-empty clusters only,
        // and the SPN build refuses empty tables and NaN cells.
        debug_assert!(!values.is_empty(), "histogram over empty column");
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let bins = bins.clamp(1, n);
        let mut edges = Vec::with_capacity(bins + 1);
        let mut mass = Vec::with_capacity(bins);
        let mut mean = Vec::with_capacity(bins);
        edges.push(sorted[0]);
        let mut start = 0usize;
        for b in 0..bins {
            let mut end = ((b + 1) * n) / bins;
            if end <= start {
                continue;
            }
            // Never split ties across bins: extend to cover duplicates.
            while end < n && sorted[end] == sorted[end - 1] {
                end += 1;
            }
            let slice = &sorted[start..end];
            edges.push(slice[slice.len() - 1]);
            mass.push(slice.len() as f64 / n as f64);
            mean.push(slice.iter().sum::<f64>() / slice.len() as f64);
            start = end;
            if start >= n {
                break;
            }
        }
        Self { edges, mass, mean }
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.mass.len()
    }

    /// Fraction of bin `b` lying inside `[lo, hi]` (uniform-within-bin).
    fn coverage(&self, b: usize, lo: f64, hi: f64) -> f64 {
        let (e_lo, e_hi) = (self.edges[b], self.edges[b + 1]);
        if hi < e_lo || lo > e_hi {
            return 0.0;
        }
        if e_lo == e_hi {
            // Point-mass bin: in or out.
            return if lo <= e_lo && e_lo <= hi { 1.0 } else { 0.0 };
        }
        let inter_lo = lo.max(e_lo);
        let inter_hi = hi.min(e_hi);
        ((inter_hi - inter_lo) / (e_hi - e_lo)).clamp(0.0, 1.0)
    }

    /// `P(col ∈ [lo, hi])`.
    pub fn prob(&self, lo: f64, hi: f64) -> f64 {
        (0..self.bins())
            .map(|b| self.mass[b] * self.coverage(b, lo, hi))
            .sum()
    }

    /// `E[col · 1(col ∈ [lo, hi])]` (uses the bin mean for the covered
    /// fraction — exact for full bins, approximate for fringes).
    pub fn expectation(&self, lo: f64, hi: f64) -> f64 {
        (0..self.bins())
            .map(|b| self.mass[b] * self.coverage(b, lo, hi) * self.mean[b])
            .sum()
    }

    /// Unconditional mean.
    pub fn mean_all(&self) -> f64 {
        (0..self.bins()).map(|b| self.mass[b] * self.mean[b]).sum()
    }

    /// Logical storage: edges + mass + mean as f64.
    pub fn storage_bytes(&self) -> usize {
        (self.edges.len() + self.mass.len() + self.mean.len()) * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pass_common::rng::rng_from_seed;
    use rand::Rng;

    #[test]
    fn mass_sums_to_one() {
        let mut rng = rng_from_seed(1);
        let values: Vec<f64> = (0..10_000).map(|_| rng.gen::<f64>() * 7.0).collect();
        let h = Histogram::build(&values, 32);
        let total: f64 = (0..h.bins()).map(|b| h.mass[b]).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn full_range_prob_is_one() {
        let values: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let h = Histogram::build(&values, 8);
        let (lo, hi) = (h.edges[0], h.edges[h.edges.len() - 1]);
        assert!((h.prob(lo, hi) - 1.0).abs() < 1e-9);
        assert_eq!(h.prob(hi + 1.0, hi + 2.0), 0.0);
    }

    #[test]
    fn range_prob_tracks_truth_on_uniform_data() {
        let mut rng = rng_from_seed(2);
        let values: Vec<f64> = (0..50_000).map(|_| rng.gen::<f64>()).collect();
        let h = Histogram::build(&values, 64);
        let truth = values
            .iter()
            .filter(|&&v| (0.25..=0.6).contains(&v))
            .count() as f64
            / values.len() as f64;
        assert!((h.prob(0.25, 0.6) - truth).abs() < 0.01);
    }

    #[test]
    fn expectation_tracks_truth() {
        let mut rng = rng_from_seed(3);
        let values: Vec<f64> = (0..50_000).map(|_| rng.gen::<f64>() * 10.0).collect();
        let h = Histogram::build(&values, 64);
        let truth: f64 = values
            .iter()
            .filter(|&&v| (2.0..=8.0).contains(&v))
            .sum::<f64>()
            / values.len() as f64;
        assert!((h.expectation(2.0, 8.0) - truth).abs() < 0.05);
        assert!((h.mean_all() - 5.0).abs() < 0.05);
    }

    #[test]
    fn point_mass_columns_work() {
        // A constant column (e.g. a popular categorical code).
        let values = vec![3.0; 1000];
        let h = Histogram::build(&values, 16);
        assert!((h.prob(3.0, 3.0) - 1.0).abs() < 1e-9);
        assert_eq!(h.prob(2.0, 2.9), 0.0);
        assert!((h.expectation(0.0, 10.0) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn heavy_duplicates_do_not_split_bins() {
        // 90% zeros, 10% spread: the zero mass must stay intact.
        let mut values = vec![0.0; 900];
        values.extend((1..=100).map(|i| i as f64));
        let h = Histogram::build(&values, 10);
        assert!((h.prob(0.0, 0.0) - 0.9).abs() < 1e-9);
    }
}

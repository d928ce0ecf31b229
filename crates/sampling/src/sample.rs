//! Uniform without-replacement samples of table regions.

use rand::seq::index::sample as index_sample;
use rand::Rng;

use pass_common::{PassError, Rect, Result};
use pass_table::Table;

/// A uniform sample of some population of rows, stored as a mini-table (same
/// predicate dimensions as the parent) plus the population size `N` it was
/// drawn from. All φ-estimators scale by this `N`.
#[derive(Debug, Clone)]
pub struct Sample {
    rows: Table,
    population: u64,
    /// Whether the single predicate column is non-decreasing — unlocks the
    /// binary-search fast path in [`crate::kernel`]. Computed once at
    /// construction; the row mutators keep a sorted sample in key order.
    sorted_1d: bool,
}

impl Sample {
    /// Wrap pre-selected rows as a sample of a population of size
    /// `population`.
    pub fn from_rows(rows: Table, population: u64) -> Result<Self> {
        if (rows.n_rows() as u64) > population {
            return Err(PassError::InvalidParameter(
                "population",
                format!(
                    "sample of {} rows cannot come from population of {population}",
                    rows.n_rows()
                ),
            ));
        }
        // A NaN predicate fails `w[0] <= w[1]`, so NaN-carrying columns never
        // claim sortedness.
        let sorted_1d =
            rows.dims() == 1 && rows.predicate_column(0).windows(2).all(|w| w[0] <= w[1]);
        Ok(Self {
            rows,
            population,
            sorted_1d,
        })
    }

    /// Draw `k` rows uniformly without replacement from the whole table.
    pub fn uniform<R: Rng>(table: &Table, k: usize, rng: &mut R) -> Result<Self> {
        let n = table.n_rows();
        let k = k.min(n);
        let chosen = index_sample(rng, n, k);
        let mut idx: Vec<usize> = chosen.into_iter().collect();
        idx.sort_unstable(); // stable layout; helps locality and testability
        Self::from_indices(table, &idx, n as u64)
    }

    /// Draw `k` rows uniformly without replacement from the subset of rows
    /// whose sorted positions fall in `row_range` (used to stratify over
    /// contiguous 1-D partitions without materializing them).
    pub fn uniform_from_range<R: Rng>(
        table: &Table,
        row_range: std::ops::Range<usize>,
        k: usize,
        rng: &mut R,
    ) -> Result<Self> {
        let n = row_range.len();
        let k = k.min(n);
        let chosen = index_sample(rng, n, k);
        let mut idx: Vec<usize> = chosen.into_iter().map(|i| row_range.start + i).collect();
        idx.sort_unstable();
        Self::from_indices(table, &idx, n as u64)
    }

    /// Reassemble a sample from snapshot state, trusting a stored `false`
    /// `sorted_1d` flag instead of recomputing it: a sample saved with a
    /// cleared flag (mutated before the mutators kept key order) reloads
    /// onto the kernel path and the in-place mutators it had when saved.
    pub(crate) fn from_parts(rows: Table, population: u64, sorted_1d: bool) -> Result<Self> {
        let mut sample = Self::from_rows(rows, population)?;
        sample.sorted_1d = sorted_1d && sample.sorted_1d;
        Ok(sample)
    }

    /// Materialize specific row indices as a sample of a population of size
    /// `population`. Gathers every column in one pass over `indices`
    /// ([`Table::gather`]); the result inherits the parent's already-valid
    /// schema, so no shape re-validation happens.
    pub fn from_indices(table: &Table, indices: &[usize], population: u64) -> Result<Self> {
        Self::from_rows(table.gather(indices), population)
    }

    /// The sampled rows.
    #[inline]
    pub fn rows(&self) -> &Table {
        &self.rows
    }

    /// Sample size `K`.
    #[inline]
    pub fn k(&self) -> usize {
        self.rows.n_rows()
    }

    /// Population size `N` the sample represents.
    #[inline]
    pub fn population(&self) -> u64 {
        self.population
    }

    /// Whether this is a 1-D sample whose predicate column is known to be
    /// non-decreasing (kernel fast-path eligibility). Fixed for the
    /// sample's life: the row mutators keep a sorted sample sorted.
    #[inline]
    pub fn sorted_1d(&self) -> bool {
        self.sorted_1d
    }

    /// Number of sampled rows matching a rectangular predicate (`K_pred`).
    pub fn k_pred(&self, rect: &Rect) -> usize {
        (0..self.k())
            .filter(|&i| self.rows.matches(rect, i))
            .count()
    }

    /// Logical storage footprint: one f64 per value plus one per predicate
    /// coordinate (Table 2's storage accounting).
    pub fn storage_bytes(&self) -> usize {
        self.k() * (1 + self.rows.dims()) * std::mem::size_of::<f64>()
    }

    // --- dynamic-update mutators (Section 4.5 reservoir maintenance) ---

    /// Record population growth (a tuple was inserted into the stratum).
    pub fn grow_population(&mut self) {
        self.population += 1;
    }

    /// Record population shrinkage (a tuple left the stratum).
    pub fn shrink_population(&mut self) {
        self.population = self.population.saturating_sub(1);
    }

    /// Add a sampled row: at its key position (after equal keys) in a
    /// sorted sample, at the end otherwise.
    pub fn push_row(&mut self, value: f64, preds: &[f64]) {
        let at = match self.sorted_1d {
            true => self.key_rows(preds[0]).end,
            false => self.k(),
        };
        self.rows.insert_row(at, value, preds);
    }

    /// Replace sampled row `i` (reservoir replacement): in a sorted sample
    /// row `i` leaves and the new row enters at its key position, in any
    /// other it is overwritten in place.
    pub fn replace_row(&mut self, i: usize, value: f64, preds: &[f64]) {
        match self.sorted_1d {
            true => {
                self.rows.remove_row(i);
                self.push_row(value, preds);
            }
            false => self.rows.replace_row(i, value, preds),
        }
    }

    /// Remove sampled row `i` (its tuple was deleted): in order from a
    /// sorted sample, by swapping in the last row from any other.
    pub fn remove_row(&mut self, i: usize) {
        match self.sorted_1d {
            true => self.rows.remove_row(i),
            false => self.rows.swap_remove_row(i),
        }
    }

    /// Position of the first sampled row equal to `(value, preds)`, if
    /// any; a sorted sample searches only the rows keyed `preds[0]`.
    pub fn find_row(&self, value: f64, preds: &[f64]) -> Option<usize> {
        let rows = match self.sorted_1d {
            true => self.key_rows(preds[0]),
            false => 0..self.k(),
        };
        rows.into_iter().find(|&i| {
            self.rows.value(i) == value
                && (0..self.rows.dims()).all(|d| self.rows.predicate(d, i) == preds[d])
        })
    }

    /// The rows of a sorted sample keyed `key`, by binary search.
    fn key_rows(&self, key: f64) -> std::ops::Range<usize> {
        let keys = self.rows.predicate_column(0);
        keys.partition_point(|&k| k < key)..keys.partition_point(|&k| k <= key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pass_common::rng::rng_from_seed;
    use pass_table::datasets::uniform;

    #[test]
    fn uniform_sample_size_and_population() {
        let t = uniform(1_000, 1);
        let mut rng = rng_from_seed(2);
        let s = Sample::uniform(&t, 100, &mut rng).unwrap();
        assert_eq!(s.k(), 100);
        assert_eq!(s.population(), 1_000);
        assert_eq!(s.rows().dims(), 1);
    }

    #[test]
    fn oversized_request_clamps_to_population() {
        let t = uniform(50, 1);
        let mut rng = rng_from_seed(3);
        let s = Sample::uniform(&t, 500, &mut rng).unwrap();
        assert_eq!(s.k(), 50);
    }

    #[test]
    fn sample_rows_exist_in_parent() {
        let t = uniform(200, 4);
        let mut rng = rng_from_seed(5);
        let s = Sample::uniform(&t, 40, &mut rng).unwrap();
        for i in 0..s.k() {
            let key = s.rows().predicate(0, i);
            let val = s.rows().value(i);
            let found = (0..t.n_rows()).any(|j| t.predicate(0, j) == key && t.value(j) == val);
            assert!(found, "sampled row not in parent table");
        }
    }

    #[test]
    fn no_replacement() {
        let t = uniform(100, 6);
        let mut rng = rng_from_seed(7);
        let s = Sample::uniform(&t, 100, &mut rng).unwrap();
        // Sampling all rows must produce each exactly once.
        let mut keys: Vec<f64> = (0..s.k()).map(|i| s.rows().predicate(0, i)).collect();
        keys.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut parent: Vec<f64> = t.predicate_column(0).to_vec();
        parent.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(keys, parent);
    }

    #[test]
    fn range_sampling_respects_bounds() {
        let t = uniform(100, 8);
        let mut rng = rng_from_seed(9);
        let s = Sample::uniform_from_range(&t, 20..40, 10, &mut rng).unwrap();
        assert_eq!(s.population(), 20);
        let lo = t.predicate(0, 20);
        let hi = t.predicate(0, 39);
        for i in 0..s.k() {
            let k = s.rows().predicate(0, i);
            assert!(k >= lo && k <= hi);
        }
    }

    #[test]
    fn k_pred_counts_matches() {
        let t = uniform(500, 10);
        let mut rng = rng_from_seed(11);
        let s = Sample::uniform(&t, 500, &mut rng).unwrap(); // full sample
        let rect = Rect::interval(0.0, 0.5);
        let truth = (0..t.n_rows()).filter(|&i| t.matches(&rect, i)).count();
        assert_eq!(s.k_pred(&rect), truth);
    }

    #[test]
    fn population_smaller_than_sample_rejected() {
        let t = uniform(10, 12);
        let rows = t.clone();
        assert!(Sample::from_rows(rows, 5).is_err());
    }

    #[test]
    fn a_sorted_sample_stays_in_key_order_through_every_mutator() {
        let rows = Table::one_dim(vec![0.1, 0.2, 0.2, 0.4], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let mut s = Sample::from_rows(rows, 10).unwrap();
        assert!(s.sorted_1d());
        // Row 0 leaves; the new row enters at its key.
        s.replace_row(0, 9.0, &[0.3]);
        // After the rows of an equal key.
        s.push_row(5.0, &[0.2]);
        assert_eq!(s.rows().predicate_column(0), [0.2, 0.2, 0.2, 0.3, 0.4]);
        assert_eq!(s.rows().values(), [2.0, 3.0, 5.0, 9.0, 4.0]);
        assert_eq!(s.find_row(5.0, &[0.2]), Some(2));
        assert_eq!(s.find_row(5.0, &[0.3]), None);
        assert_eq!(s.find_row(4.0, &[0.4]), Some(4));
        s.remove_row(1);
        assert_eq!(s.rows().predicate_column(0), [0.2, 0.2, 0.3, 0.4]);
        assert_eq!(s.rows().values(), [2.0, 5.0, 9.0, 4.0]);
        // Drained and refilled, still in order.
        while s.k() > 0 {
            s.remove_row(s.k() / 2);
        }
        for key in [f64::INFINITY, 0.5, f64::NEG_INFINITY, 0.5] {
            s.push_row(key, &[key]);
        }
        assert_eq!(
            s.rows().predicate_column(0),
            [f64::NEG_INFINITY, 0.5, 0.5, f64::INFINITY]
        );
        assert!(s.sorted_1d());
    }

    /// A sample whose flag is `false` — multi-dimensional, in table order,
    /// or read from a snapshot saved before the mutators kept key order —
    /// mutates in place: a replacement overwrites its position, a removal
    /// swaps the last row in, a push appends. Rows in key order under a
    /// stored `false` flag land where those rules put them, not in order.
    #[test]
    fn an_unsorted_sample_mutates_in_place() {
        let rows = Table::one_dim(vec![0.1, 0.2, 0.3, 0.4], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let mut s = Sample::from_parts(rows, 10, false).unwrap();
        s.replace_row(1, 9.0, &[0.9]);
        s.remove_row(0);
        s.push_row(5.0, &[0.0]);
        assert!(!s.sorted_1d());
        assert_eq!(s.rows().predicate_column(0), [0.4, 0.9, 0.3, 0.0]);
        assert_eq!(s.rows().values(), [4.0, 9.0, 3.0, 5.0]);
        assert_eq!(s.find_row(3.0, &[0.3]), Some(2));
        let t = pass_table::datasets::taxi(50, 3).project(&[1, 2]).unwrap();
        let mut s = Sample::from_rows(t.gather(&[0, 1, 2]), 50).unwrap();
        assert!(!s.sorted_1d());
        s.remove_row(0);
        assert_eq!(s.rows().point(0), t.point(2));
    }

    #[test]
    fn storage_accounting() {
        let t = uniform(100, 13);
        let mut rng = rng_from_seed(14);
        let s = Sample::uniform(&t, 25, &mut rng).unwrap();
        // 25 rows × (1 value + 1 predicate) × 8 bytes
        assert_eq!(s.storage_bytes(), 25 * 2 * 8);
    }
}

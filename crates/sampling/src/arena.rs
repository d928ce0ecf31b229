//! A flat multi-sample arena: every stratum's rows in one allocation.
//!
//! [`Sample`] keeps its rows in a private mini-[`Table`](pass_table::Table)
//! — convenient for construction and mutation, but a `Vec<Sample>` scatters
//! hundreds of tiny allocations across the heap, and the query hot path
//! pays a dependent cache miss per pointer hop (`samples[li]` → `Table` →
//! column `Vec` → data) every time it scans a partial leaf. For the
//! serving-sized strata PASS produces (a handful of rows per leaf), those
//! misses dominate the scan itself.
//!
//! [`SampleArena`] flattens the whole sample set into one contiguous `f64`
//! buffer — per stratum: predicate columns (column-major), then values —
//! plus a row-offset table and per-stratum metadata. The entire arena for a
//! typical synopsis is tens of kilobytes, so after the first few queries it
//! is cache-resident and a partial-leaf scan costs arithmetic, not memory
//! latency. [`view`](SampleArena::view) hands the kernels a borrowed
//! [`SampleView`] whose slices hold exactly the bytes the originating
//! [`Sample`] holds, in the same row order — estimates computed through the
//! arena are bit-identical to the `Sample`-based path.
//!
//! The arena is a *derived* structure: [`from_samples`](SampleArena::from_samples)
//! builds it once, and an owner that then mutates one stratum's [`Sample`]
//! copies that stratum back with [`set_stratum`](SampleArena::set_stratum)
//! (`pass-core` does so in its mutation-epoch bump, the single choke point
//! every insert/delete already goes through). A patch costs the stratum's
//! own `K_i` rows; the rest of the buffer moves only when `K_i` itself
//! changed. After every patch the arena is view-for-view what
//! `from_samples` would build over the owner's samples.

use crate::kernel::SampleView;
use crate::sample::Sample;

/// Everything [`SampleArena::view`] needs to slice out one stratum, packed
/// so a view costs a single metadata load (parallel offset/population/
/// sorted arrays would each bring in their own cache line).
#[derive(Debug, Clone, Copy)]
struct StratumMeta {
    /// First row of the stratum's segment (row index, not `f64` index).
    off: u32,
    /// Sample size `K_i`.
    k: u32,
    /// Population size `N_i`.
    population: u64,
    /// Sorted-column fast-path eligibility.
    sorted: bool,
}

/// All strata of a synopsis flattened into one contiguous allocation,
/// indexed by stratum (leaf) position.
#[derive(Debug, Clone, Default)]
pub struct SampleArena {
    /// Shared predicate dimensionality.
    dims: usize,
    /// Stratum `i` owns `data[meta[i].off * (dims + 1)..]`, laid out as
    /// its `dims` predicate columns (column-major) followed by its values.
    data: Vec<f64>,
    /// Per-stratum segment location and scan parameters.
    meta: Vec<StratumMeta>,
}

impl SampleArena {
    /// Flatten `samples` (all of the same arity) into a fresh arena.
    pub fn from_samples(samples: &[Sample]) -> Self {
        let dims = samples.first().map(|s| s.rows().dims()).unwrap_or(0);
        let total: usize = samples.iter().map(Sample::k).sum();
        let mut data = Vec::with_capacity(total * (dims + 1));
        let mut meta = Vec::with_capacity(samples.len());
        let mut off = 0u32;
        for s in samples {
            debug_assert_eq!(s.rows().dims(), dims);
            for d in 0..dims {
                data.extend_from_slice(s.rows().predicate_column(d));
            }
            data.extend_from_slice(s.rows().values());
            meta.push(StratumMeta {
                off,
                k: s.k() as u32,
                population: s.population(),
                sorted: s.sorted_1d(),
            });
            off += s.k() as u32;
        }
        Self { dims, data, meta }
    }

    /// Overwrite stratum `i` with `sample`'s current rows and metadata
    /// (same arity as the arena). When the sample size is unchanged only
    /// the stratum's own segment is written; when it changed — a sampled
    /// row was evicted, or an empty stratum took its first row — the later
    /// strata shift inside the buffer and their offsets follow.
    pub fn set_stratum(&mut self, i: usize, sample: &Sample) {
        debug_assert_eq!(sample.rows().dims(), self.dims);
        let width = self.dims + 1;
        let old = self.meta[i];
        let k = sample.k();
        let start = old.off as usize * width;
        let (old_end, end) = (start + old.k as usize * width, start + k * width);
        if end != old_end {
            let len = self.data.len();
            if end > old_end {
                self.data.resize(len + (end - old_end), 0.0);
                self.data.copy_within(old_end..len, end);
            } else {
                self.data.copy_within(old_end.., end);
                self.data.truncate(len - (old_end - end));
            }
            for later in &mut self.meta[i + 1..] {
                later.off = later.off - old.k + k as u32;
            }
        }
        let segment = &mut self.data[start..end];
        for d in 0..self.dims {
            segment[d * k..(d + 1) * k].copy_from_slice(sample.rows().predicate_column(d));
        }
        segment[self.dims * k..].copy_from_slice(sample.rows().values());
        self.meta[i] = StratumMeta {
            off: old.off,
            k: k as u32,
            population: sample.population(),
            sorted: sample.sorted_1d(),
        };
    }

    /// Number of strata.
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    /// Whether the arena holds no strata.
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }

    /// Predicate dimensionality shared by every stratum.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Sample size `K_i` of stratum `i`.
    #[inline]
    pub fn k(&self, i: usize) -> usize {
        self.meta[i].k as usize
    }

    /// Population size `N_i` of stratum `i`.
    #[inline]
    pub fn population(&self, i: usize) -> u64 {
        self.meta[i].population
    }

    /// Borrow stratum `i`'s rows as a kernel [`SampleView`].
    #[inline]
    pub fn view(&self, i: usize) -> SampleView<'_> {
        let m = self.meta[i];
        let k = m.k as usize;
        let start = m.off as usize * (self.dims + 1);
        let seg = &self.data[start..start + k * (self.dims + 1)];
        let (preds, values) = seg.split_at(k * self.dims);
        SampleView {
            values,
            preds,
            dims: self.dims,
            population: m.population,
            sorted_1d: m.sorted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::ScanScratch;
    use pass_common::rng::rng_from_seed;
    use pass_common::{AggKind, Rect};
    use pass_table::datasets::uniform;
    use pass_table::Table;

    fn strata(n_strata: usize, per: usize, seed: u64) -> Vec<Sample> {
        let t = uniform(n_strata * per * 4, seed);
        let mut rng = rng_from_seed(seed);
        (0..n_strata)
            .map(|i| {
                Sample::uniform_from_range(&t, i * per * 4..(i + 1) * per * 4, per, &mut rng)
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn views_mirror_their_samples() {
        let samples = strata(8, 5, 3);
        let arena = SampleArena::from_samples(&samples);
        assert_eq!(arena.len(), 8);
        assert_eq!(arena.dims(), 1);
        for (i, s) in samples.iter().enumerate() {
            let v = arena.view(i);
            assert_eq!(v.k(), s.k());
            assert_eq!(v.population, s.population());
            assert_eq!(v.sorted_1d, s.sorted_1d());
            assert_eq!(v.values, s.rows().values());
            assert_eq!(v.pred_col(0), s.rows().predicate_column(0));
        }
    }

    #[test]
    fn multidim_views_keep_column_layout() {
        let t = pass_table::datasets::taxi(400, 7).project(&[1, 2]).unwrap();
        let mut rng = rng_from_seed(7);
        let samples: Vec<Sample> = (0..4)
            .map(|_| Sample::uniform(&t, 20, &mut rng).unwrap())
            .collect();
        let arena = SampleArena::from_samples(&samples);
        assert_eq!(arena.dims(), 2);
        for (i, s) in samples.iter().enumerate() {
            let v = arena.view(i);
            for d in 0..2 {
                assert_eq!(v.pred_col(d), s.rows().predicate_column(d), "stratum {i}");
            }
        }
    }

    #[test]
    fn arena_estimates_are_bit_identical_to_sample_estimates() {
        let samples = strata(16, 7, 11);
        let arena = SampleArena::from_samples(&samples);
        let mut scratch = ScanScratch::new();
        for (lo, hi) in [(0.0, 1.0), (0.2, 0.6), (0.99, 1.5)] {
            let rect = Rect::interval(lo, hi);
            for agg in AggKind::ALL {
                for (i, s) in samples.iter().enumerate() {
                    let a = scratch.estimate_view(agg, &arena.view(i), &rect);
                    let b = scratch.estimate(agg, s, &rect);
                    assert_eq!(
                        a.map(|p| (p.value.to_bits(), p.variance.to_bits(), p.k_pred)),
                        b.map(|p| (p.value.to_bits(), p.variance.to_bits(), p.k_pred)),
                        "{agg} [{lo},{hi}] stratum {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_strata_and_empty_arena() {
        let arena = SampleArena::from_samples(&[]);
        assert!(arena.is_empty());
        let t = uniform(10, 5);
        let empty = Sample::from_indices(&t, &[], 10).unwrap();
        let full = Sample::from_indices(&t, &[0, 3, 7], 10).unwrap();
        let arena = SampleArena::from_samples(&[empty, full]);
        assert_eq!(arena.k(0), 0);
        assert_eq!(arena.k(1), 3);
        assert_eq!(arena.view(0).k(), 0);
        assert_eq!(arena.view(1).values.len(), 3);
    }

    /// Every view of `arena` holds the bytes a rebuild over `samples` gives.
    fn assert_matches_rebuild(arena: &SampleArena, samples: &[Sample]) {
        let rebuilt = SampleArena::from_samples(samples);
        assert_eq!(arena.len(), rebuilt.len());
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        for i in 0..rebuilt.len() {
            let (got, want) = (arena.view(i), rebuilt.view(i));
            assert_eq!(bits(got.values), bits(want.values), "stratum {i}");
            assert_eq!(bits(got.preds), bits(want.preds), "stratum {i}");
            assert_eq!(
                (got.dims, got.population, got.sorted_1d),
                (want.dims, want.population, want.sorted_1d),
                "stratum {i}"
            );
        }
        assert_eq!(arena.data.len(), rebuilt.data.len());
    }

    #[test]
    fn a_patched_stratum_leaves_the_arena_equal_to_a_rebuild() {
        let t = pass_table::datasets::taxi(400, 7).project(&[1, 2]).unwrap();
        let mut rng = rng_from_seed(7);
        let two_dims: Vec<Sample> = (0..5)
            .map(|_| Sample::uniform(&t, 6, &mut rng).unwrap())
            .collect();
        for mut samples in [strata(6, 4, 9), two_dims] {
            let dims = samples[0].rows().dims();
            let mut arena = SampleArena::from_samples(&samples);
            let last = samples.len() - 1;
            // Same size (a row replaced, the population moved), then
            // shrinking to nothing and growing back — first, middle and
            // last stratum, so the tail shift has 0..n strata to move.
            for i in [0, 2, last, 2, 0] {
                let row = vec![0.25 * i as f64; dims];
                samples[i].replace_row(1, -3.0, &row);
                samples[i].grow_population();
                arena.set_stratum(i, &samples[i]);
                assert_matches_rebuild(&arena, &samples);
                while samples[i].k() > 0 {
                    samples[i].remove_row(0);
                    samples[i].shrink_population();
                    arena.set_stratum(i, &samples[i]);
                    assert_matches_rebuild(&arena, &samples);
                }
                for step in 0..3 {
                    samples[i].grow_population();
                    samples[i].push_row(f64::from(step), &row);
                    arena.set_stratum(i, &samples[i]);
                    assert_matches_rebuild(&arena, &samples);
                }
            }
        }
    }

    #[test]
    fn mutated_unsorted_samples_round_trip() {
        let t = Table::one_dim(vec![0.5, 0.1, 0.9], vec![1.0, 2.0, 3.0]).unwrap();
        let s = Sample::from_rows(t, 30).unwrap();
        assert!(!s.sorted_1d());
        let arena = SampleArena::from_samples(std::slice::from_ref(&s));
        assert!(!arena.view(0).sorted_1d);
        let mut scratch = ScanScratch::new();
        let rect = Rect::interval(0.0, 0.6);
        let a = scratch.estimate_view(AggKind::Sum, &arena.view(0), &rect);
        let b = scratch.estimate(AggKind::Sum, &s, &rect);
        assert_eq!(a.map(|p| p.value.to_bits()), b.map(|p| p.value.to_bits()));
    }
}

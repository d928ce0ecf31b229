//! The shared DP engine behind `Adp` and the exact test references.

use crate::maxvar::MaxVarOracle;

/// How the inner minimization over the split point `h` is performed.
/// Either way a cell reads `A[h, j-1]` only for `h < i` and `M([h, i))`
/// through the per-column memo of [`dp_cuts`]; the strategy decides which
/// `h` are scored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchStrategy {
    /// Score every feasible `h` — exact for any oracle. Only the test
    /// references (`NaiveDp`, the engine's own tests) use it.
    #[cfg(test)]
    Linear,
    /// Binary search exploiting the Section 4.3 monotonicity
    /// (`A[h, j-1]` non-decreasing and `M([h, i))` non-increasing in `h`)
    /// for the crossing, then score the ±2 neighbourhood around it to
    /// absorb approximate oracles (Appendix A.5).
    Binary,
}

/// Run the DP over `n` items with at most `k` buckets, minimum bucket size
/// `min_size`, and the given max-variance oracle. Returns the interior cut
/// positions (possibly fewer than `k-1` when `n` is small) and the achieved
/// objective `A[n, k]` — no cuts and `+∞` when `n` items hold no bucket of
/// `min_size`, an empty input included.
///
/// The table is filled **column by column**: all layers `j` of one prefix
/// length `i` before `i + 1`. `A[i, j]` needs `A[h, j-1]` only for
/// `h < i`, so every value a cell compares is final when it is read and
/// the cuts are those of a layer-by-layer evaluation. What the order buys
/// is that `M([h, i))` does not depend on `j`, and the searches of
/// adjacent layers in one column probe almost the same `h`: every oracle
/// read goes through a memo of one `(i, value)` pair per `h`, so
/// `max_variance(h, i)` runs at most once per `(h, i)` per call — about a
/// tenth of the probes at `n` = 4096, `k` = 256.
///
/// Memory: `A` and the chosen `h` are kept whole, one row of `k` cells per
/// `h`, 12 bytes per cell — `(n+1)·k·12` bytes (12.6 MB at `n` = 4096,
/// `k` = 256; 50 MB at `k` = 1024) plus 16 bytes per item of memo.
pub fn dp_cuts<O: MaxVarOracle>(
    n: usize,
    k: usize,
    min_size: usize,
    oracle: &O,
    strategy: SearchStrategy,
) -> (Vec<usize>, f64) {
    let min_size = min_size.max(1);
    let k = k.min(n / min_size).max(1);

    // a[h·k + j−1] = A[h, j]; +∞ marks an infeasible cell. choice has the
    // same layout; every chosen h is ≥ min_size, so 0 marks "none".
    let mut a = vec![f64::INFINITY; (n + 1) * k];
    let mut choice = vec![0u32; (n + 1) * k];
    // memo[h] = (i, M([h, i))), valid while the tag is the current column.
    // Column 0 is never evaluated, so a zeroed tag is never a hit.
    let mut memo = vec![(0usize, 0.0f64); n + 1];

    for i in min_size..=n {
        let mut max_var = |h: usize| {
            let slot = &mut memo[h];
            if slot.0 != i {
                *slot = (i, oracle.max_variance(h, i));
            }
            slot.1
        };
        // Base layer: one bucket over the first i items.
        a[i * k] = max_var(0);
        for j in 2..=k.min(i / min_size) {
            let h_lo = (j - 1) * min_size;
            let h_hi = i - min_size;
            let prev = |h: usize| a[h * k + j - 2];
            let (scan_lo, scan_hi) = match strategy {
                #[cfg(test)]
                SearchStrategy::Linear => (h_lo, h_hi),
                SearchStrategy::Binary => {
                    // Find the crossing of the monotone curves, then scan
                    // its neighbourhood (approximate oracles can perturb
                    // strict monotonicity locally).
                    let (mut lo, mut hi) = (h_lo, h_hi);
                    while lo < hi {
                        let mid = lo + (hi - lo) / 2;
                        if prev(mid) < max_var(mid) {
                            lo = mid + 1;
                        } else {
                            hi = mid;
                        }
                    }
                    (lo.saturating_sub(2).max(h_lo), (lo + 2).min(h_hi))
                }
            };
            // First minimum wins: strict `<`, ascending h.
            let mut best = (scan_lo, f64::INFINITY);
            for h in scan_lo..=scan_hi {
                let v = prev(h).max(max_var(h));
                if v < best.1 {
                    best = (h, v);
                }
            }
            a[i * k + j - 1] = best.1;
            choice[i * k + j - 1] = best.0 as u32;
        }
    }

    // Backtrack from A[n, k].
    let objective = a[n * k + k - 1];
    let mut cuts = Vec::with_capacity(k - 1);
    let mut i = n;
    for j in (2..=k).rev() {
        let h = choice[i * k + j - 1] as usize;
        if h == 0 {
            break;
        }
        cuts.push(h);
        i = h;
    }
    cuts.sort_unstable();
    cuts.dedup();
    (cuts, objective)
}

#[cfg(test)]
mod tests {
    use std::cell::{Cell, RefCell};

    use super::*;
    use crate::maxvar::{Exhaustive, MaxVarOracle, MedianSplit, WindowIndex};
    use crate::variance::VarianceOracle;
    use pass_common::rng::rng_from_seed;
    use pass_common::{AggKind, PrefixSums};
    use rand::Rng;

    /// Oracle whose "variance" is the range length — forces equal splits.
    struct LengthOracle;
    impl MaxVarOracle for LengthOracle {
        fn max_variance(&self, lo: usize, hi: usize) -> f64 {
            (hi - lo) as f64
        }
    }

    /// The layer-by-layer evaluation `dp_cuts` replaced — `A[·, j]` for
    /// every `i` before `A[·, j+1]`, two rolling layers, one oracle call
    /// per probe — kept as the reference the column-major loop must match
    /// bit for bit.
    #[allow(clippy::needless_range_loop)]
    fn dp_cuts_layered<O: MaxVarOracle>(
        n: usize,
        k: usize,
        min_size: usize,
        oracle: &O,
        strategy: SearchStrategy,
    ) -> (Vec<usize>, f64) {
        let min_size = min_size.max(1);
        let k = k.min(n / min_size).max(1);

        let mut prev: Vec<f64> = vec![f64::INFINITY; n + 1];
        for i in min_size..=n {
            prev[i] = oracle.max_variance(0, i);
        }
        prev[0] = 0.0;
        if k == 1 {
            return (Vec::new(), prev[n]);
        }

        let mut choices: Vec<Vec<u32>> = Vec::with_capacity(k - 1);
        let mut cur: Vec<f64> = vec![f64::INFINITY; n + 1];
        for j in 2..=k {
            let mut choice_row = vec![u32::MAX; n + 1];
            let h_min_base = (j - 1) * min_size;
            for i in (j * min_size)..=n {
                let h_lo = h_min_base;
                let h_hi = i - min_size;
                let (best_h, best_v) = match strategy {
                    SearchStrategy::Linear => {
                        let mut best = (h_lo, f64::INFINITY);
                        for h in h_lo..=h_hi {
                            let v = prev[h].max(oracle.max_variance(h, i));
                            if v < best.1 {
                                best = (h, v);
                            }
                        }
                        best
                    }
                    SearchStrategy::Binary => {
                        let (mut lo, mut hi) = (h_lo, h_hi);
                        while lo < hi {
                            let mid = lo + (hi - lo) / 2;
                            if prev[mid] < oracle.max_variance(mid, i) {
                                lo = mid + 1;
                            } else {
                                hi = mid;
                            }
                        }
                        let probe_lo = lo.saturating_sub(2).max(h_lo);
                        let probe_hi = (lo + 2).min(h_hi);
                        let mut best = (probe_lo, f64::INFINITY);
                        for h in probe_lo..=probe_hi {
                            let v = prev[h].max(oracle.max_variance(h, i));
                            if v < best.1 {
                                best = (h, v);
                            }
                        }
                        best
                    }
                };
                cur[i] = best_v;
                choice_row[i] = best_h as u32;
            }
            choices.push(choice_row);
            std::mem::swap(&mut prev, &mut cur);
            for v in cur.iter_mut() {
                *v = f64::INFINITY;
            }
            cur[0] = 0.0;
        }

        let objective = prev[n];
        let mut cuts = Vec::with_capacity(k - 1);
        let mut i = n;
        for j in (2..=k).rev() {
            let h = choices[j - 2][i] as usize;
            if h == u32::MAX as usize || h == 0 {
                break;
            }
            cuts.push(h);
            i = h;
        }
        cuts.sort_unstable();
        cuts.dedup();
        (cuts, objective)
    }

    /// Counts oracle calls and the distinct `(lo, hi)` ranges among them.
    struct Counting<'a, O> {
        inner: &'a O,
        n: usize,
        calls: Cell<u64>,
        distinct: Cell<u64>,
        seen: RefCell<Vec<bool>>,
    }

    impl<'a, O> Counting<'a, O> {
        fn new(inner: &'a O, n: usize) -> Self {
            Self {
                inner,
                n,
                calls: Cell::new(0),
                distinct: Cell::new(0),
                seen: RefCell::new(vec![false; (n + 1) * (n + 1)]),
            }
        }
    }

    impl<O: MaxVarOracle> MaxVarOracle for Counting<'_, O> {
        fn max_variance(&self, lo: usize, hi: usize) -> f64 {
            self.calls.set(self.calls.get() + 1);
            let seen = &mut self.seen.borrow_mut()[lo * (self.n + 1) + hi];
            if !*seen {
                *seen = true;
                self.distinct.set(self.distinct.get() + 1);
            }
            self.inner.max_variance(lo, hi)
        }
    }

    /// An oracle's answers for every range of `0..=n`, looked up.
    struct Tabulated {
        n: usize,
        values: Vec<f64>,
    }

    impl Tabulated {
        fn of<O: MaxVarOracle>(oracle: &O, n: usize) -> Self {
            let mut values = vec![0.0; (n + 1) * (n + 1)];
            for lo in 0..=n {
                for hi in lo..=n {
                    values[lo * (n + 1) + hi] = oracle.max_variance(lo, hi);
                }
            }
            Self { n, values }
        }
    }

    impl MaxVarOracle for Tabulated {
        fn max_variance(&self, lo: usize, hi: usize) -> f64 {
            self.values[lo * (self.n + 1) + hi]
        }
    }

    /// The four value shapes of the differential test.
    fn shaped_values(shape: usize, n: usize, rng: &mut impl Rng) -> Vec<f64> {
        (0..n)
            .map(|i| match shape {
                // Uniform noise.
                0 => rng.gen::<f64>() * 100.0,
                // 7/8 zeros, then a volatile tail (Figure 6 in miniature).
                1 if i < n - n / 8 => 0.0,
                1 => 100.0 + rng.gen::<f64>() * 40.0 - 20.0,
                // 5 % spikes spread over six decades.
                2 if rng.gen::<f64>() < 0.05 => 10f64.powf(rng.gen::<f64>() * 6.0),
                2 => rng.gen::<f64>(),
                // A 7-periodic step: exact ties everywhere.
                _ => {
                    if i % 7 < 4 {
                        2.0
                    } else {
                        11.0
                    }
                }
            })
            .collect()
    }

    /// Both evaluations on one input: same cuts, same objective bits, and
    /// the column-major one never asks the oracle the same range twice.
    fn assert_matches_layered<O: MaxVarOracle>(
        n: usize,
        k: usize,
        min_size: usize,
        oracle: &O,
        strategy: SearchStrategy,
        what: &str,
    ) {
        let counting = Counting::new(oracle, n);
        let (cuts, objective) = dp_cuts(n, k, min_size, &counting, strategy);
        let (ref_cuts, ref_objective) = dp_cuts_layered(n, k, min_size, oracle, strategy);
        let ctx = format!("{what} n={n} k={k} min_size={min_size} {strategy:?}");
        assert_eq!(cuts, ref_cuts, "{ctx}");
        assert_eq!(objective.to_bits(), ref_objective.to_bits(), "{ctx}");
        assert_eq!(counting.calls.get(), counting.distinct.get(), "{ctx}");
    }

    #[test]
    fn column_major_matches_the_layered_reference_bit_for_bit() {
        let mut rng = rng_from_seed(0xC01);
        // The unoptimised profile pays ~40 ns per probe; a tenth of the
        // inputs keep it to a few seconds there.
        let trials = if cfg!(debug_assertions) { 60 } else { 600 };
        for trial in 0..trials {
            // Half the inputs are small enough for the linear scan and the
            // exhaustive oracle; k may exceed n and n may be < min_size.
            let n = if trial % 2 == 0 {
                rng.gen_range(1..61)
            } else {
                rng.gen_range(61..700)
            };
            let k = rng.gen_range(1..60);
            let shape = trial % 4;
            let values = shaped_values(shape, n, &mut rng);
            let prefix = PrefixSums::build(&values);
            let sum = MedianSplit::new(VarianceOracle::new(&prefix, AggKind::Sum).unwrap());
            let count = MedianSplit::new(VarianceOracle::new(&prefix, AggKind::Count).unwrap());
            let window = WindowIndex::build(&prefix, rng.gen_range(1..6));
            // O(len²) per call, so tabulated once per input.
            let exhaustive = (n <= 60).then(|| {
                Tabulated::of(
                    &Exhaustive::new(VarianceOracle::new(&prefix, AggKind::Avg).unwrap(), 2),
                    n,
                )
            });
            for min_size in [1, 2, 3, 8] {
                for strategy in [SearchStrategy::Binary, SearchStrategy::Linear] {
                    if strategy == SearchStrategy::Linear && n > 120 {
                        continue;
                    }
                    let what = format!("trial {trial} shape {shape}");
                    assert_matches_layered(n, k, min_size, &sum, strategy, &what);
                    assert_matches_layered(n, k, min_size, &count, strategy, &what);
                    assert_matches_layered(n, k, min_size, &window, strategy, &what);
                    if let Some(exhaustive) = &exhaustive {
                        assert_matches_layered(n, k, min_size, exhaustive, strategy, &what);
                    }
                }
            }
        }
    }

    /// The benchmark's ADP shape. The layered loop asks the oracle at every
    /// probe; the column-major one asks once per distinct range, which is
    /// what the build-time saving rests on.
    #[test]
    fn each_range_is_evaluated_once_at_the_benchmark_shape() {
        let (m, k) = (4096, 256);
        let mut rng = rng_from_seed(0xC02);
        let values = shaped_values(2, m, &mut rng);
        let prefix = PrefixSums::build(&values);
        let oracle = MedianSplit::new(VarianceOracle::new(&prefix, AggKind::Sum).unwrap());
        let layered = Counting::new(&oracle, m);
        let reference = dp_cuts_layered(m, k, 1, &layered, SearchStrategy::Binary);
        let column = Counting::new(&oracle, m);
        let result = dp_cuts(m, k, 1, &column, SearchStrategy::Binary);
        assert_eq!(result.0, reference.0);
        assert_eq!(result.1.to_bits(), reference.1.to_bits());
        println!(
            "m={m} k={k}: layered {} calls / {} distinct, column-major {} calls / {} distinct",
            layered.calls.get(),
            layered.distinct.get(),
            column.calls.get(),
            column.distinct.get()
        );
        assert_eq!(column.calls.get(), column.distinct.get());
        assert_eq!(column.distinct.get(), layered.distinct.get(), "same probes");
        assert!(
            column.calls.get() * 5 < layered.calls.get(),
            "{} calls vs {} layered",
            column.calls.get(),
            layered.calls.get()
        );
    }

    #[test]
    fn no_items_or_no_feasible_bucket_returns_no_cuts() {
        for strategy in [SearchStrategy::Linear, SearchStrategy::Binary] {
            // Fewer items than one bucket of min_size — or none at all.
            for (n, min_size) in [(3, 4), (0, 1)] {
                let (cuts, obj) = dp_cuts(n, 64, min_size, &LengthOracle, strategy);
                assert!(cuts.is_empty());
                assert_eq!(obj, f64::INFINITY);
            }
        }
    }

    #[test]
    fn equalizes_under_length_objective() {
        for strategy in [SearchStrategy::Linear, SearchStrategy::Binary] {
            let (cuts, obj) = dp_cuts(12, 3, 1, &LengthOracle, strategy);
            assert_eq!(cuts.len(), 2, "{strategy:?}");
            assert_eq!(obj, 4.0, "{strategy:?}: objective = max bucket size");
            // Buckets of size 4 each.
            assert_eq!(cuts, vec![4, 8]);
        }
    }

    #[test]
    fn k1_returns_no_cuts() {
        let (cuts, obj) = dp_cuts(10, 1, 1, &LengthOracle, SearchStrategy::Linear);
        assert!(cuts.is_empty());
        assert_eq!(obj, 10.0);
    }

    #[test]
    fn k_clamped_to_n() {
        let (cuts, _) = dp_cuts(3, 10, 1, &LengthOracle, SearchStrategy::Linear);
        assert!(cuts.len() <= 2);
    }

    #[test]
    fn min_size_respected() {
        let (cuts, _) = dp_cuts(12, 3, 3, &LengthOracle, SearchStrategy::Linear);
        let mut prev = 0;
        for &c in &cuts {
            assert!(c - prev >= 3);
            prev = c;
        }
        assert!(12 - prev >= 3);
    }

    #[test]
    fn binary_matches_linear_on_exact_oracle() {
        // With a genuinely monotone oracle the binary search must find the
        // same objective as the linear scan.
        let v: Vec<f64> = (0..40)
            .map(|i| if i < 30 { 0.0 } else { (i * 13 % 17) as f64 })
            .collect();
        let p = PrefixSums::build(&v);
        let oracle = Exhaustive::new(VarianceOracle::new(&p, AggKind::Sum).unwrap(), 1);
        for k in [2, 3, 4, 6] {
            let (_, lin) = dp_cuts(40, k, 1, &oracle, SearchStrategy::Linear);
            let (_, bin) = dp_cuts(40, k, 1, &oracle, SearchStrategy::Binary);
            assert!(
                (lin - bin).abs() < 1e-9,
                "k={k}: linear {lin} vs binary {bin}"
            );
        }
    }

    #[test]
    fn concentrates_cuts_on_the_volatile_region() {
        // 30 zeros then 10 wild values: with k=4 most cuts should land in
        // or around the wild suffix, not the constant prefix.
        let v: Vec<f64> = (0..40)
            .map(|i| if i < 30 { 0.0 } else { ((i * 37) % 101) as f64 })
            .collect();
        let p = PrefixSums::build(&v);
        let oracle = Exhaustive::new(VarianceOracle::new(&p, AggKind::Sum).unwrap(), 1);
        let (cuts, _) = dp_cuts(40, 4, 1, &oracle, SearchStrategy::Linear);
        assert!(
            cuts.iter().filter(|&&c| c >= 28).count() >= 2,
            "cuts {cuts:?} should cluster near the volatile suffix"
        );
    }

    #[test]
    fn objective_weakly_decreases_with_more_buckets() {
        let v: Vec<f64> = (0..30).map(|i| ((i * 7) % 23) as f64).collect();
        let p = PrefixSums::build(&v);
        let oracle = Exhaustive::new(VarianceOracle::new(&p, AggKind::Avg).unwrap(), 2);
        let mut last = f64::INFINITY;
        for k in 1..=6 {
            let (_, obj) = dp_cuts(30, k, 1, &oracle, SearchStrategy::Linear);
            assert!(obj <= last + 1e-9, "k={k}: {obj} > {last}");
            last = obj;
        }
    }
}

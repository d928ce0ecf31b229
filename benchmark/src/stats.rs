//! Order statistics for the run protocol: percentiles of per-op
//! latencies inside one segment, and the best-of-segments summary a
//! timing metric is reported as.

/// Nearest-rank percentile (`p` in `[0, 1]`) of an ascending slice; the
/// smallest element with at least `p` of the samples at or below it.
pub fn percentile_sorted<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of a set of values (mean of the middle pair when even).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Which end of a set of segment values is the good one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Throughputs.
    Higher,
    /// Latencies and build times.
    Lower,
}

/// What a metric is reported as: its value with the spread beside it
/// (ROADMAP aim 1a).
///
/// A timing metric's value is its **best** segment value (highest
/// throughput, lowest latency percentile, fastest build), not the
/// median. On shared vCPUs interference only ever slows a segment down
/// and arrives in phases that last from a tenth of a second to most of a
/// run, so the median over segments swings 10–20 % between identical
/// runs and even the best decile 5–15 %, while the best segment — what
/// the code costs while the core is not being shared — needs only one
/// quiet tenth of a second and repeats within a few percent. The median
/// is still reported next to it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The metric's value: the best of the values.
    pub value: f64,
    /// Median of the values.
    pub median: f64,
    /// Smallest value seen.
    pub min: f64,
    /// Largest value seen.
    pub max: f64,
    /// How many values (segments, repetitions or samples) went in.
    pub n: usize,
}

impl Summary {
    /// Summarize segment values; `None` when there are none.
    pub fn of(values: &[f64], better: Better) -> Option<Summary> {
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Some(Summary {
            value: match better {
                Better::Lower => min,
                Better::Higher => max,
            },
            median: median(values)?,
            min,
            max,
            n: values.len(),
        })
    }

    /// A value that is computed, not sampled (a count, an accuracy).
    pub fn exact(value: f64, n: usize) -> Summary {
        Summary {
            value,
            median: value,
            min: value,
            max: value,
            n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u32> = (1..=10).collect();
        assert_eq!(percentile_sorted(&v, 0.5), Some(5));
        assert_eq!(percentile_sorted(&v, 0.9), Some(9));
        assert_eq!(percentile_sorted(&v, 0.91), Some(10));
        assert_eq!(percentile_sorted(&v, 0.0), Some(1));
        assert_eq!(percentile_sorted(&v, 1.0), Some(10));
        assert_eq!(percentile_sorted(&[7u32], 0.99), Some(7));
        assert_eq!(percentile_sorted::<u32>(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn best_of_segments_ignores_slow_phases() {
        // 50 latency segments, 45 of them in a slow phase: the value is
        // the best one, the median sits in the slow phase.
        let mut v: Vec<f64> = (0..5).map(|i| 10.0 + f64::from(i) * 0.01).collect();
        v.extend((0..45).map(|i| 14.0 + f64::from(i) * 0.01));
        let s = Summary::of(&v, Better::Lower).unwrap();
        assert_eq!(s.value, 10.0);
        assert!(s.median > 14.0);
        assert_eq!((s.min, s.max, s.n), (10.0, 14.44, 50));
        // Throughputs: best = highest.
        assert_eq!(Summary::of(&v, Better::Higher).unwrap().value, 14.44);
        let s = Summary::of(&[0.30, 0.19, 0.20, 0.29, 0.21], Better::Lower).unwrap();
        assert_eq!((s.value, s.median), (0.19, 0.21));
        assert_eq!(Summary::of(&[], Better::Lower), None);
    }
}

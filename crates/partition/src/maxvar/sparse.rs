//! Idempotent sparse table for O(1) range-argmax queries.
//!
//! Built once in O(n log n) over the per-window variance scores; the AVG
//! discretization then answers "max window score inside this candidate
//! partition" in constant time, which is what makes the Section 4.3.1
//! dynamic program O(k·m·log m) overall. (The paper uses a binary search
//! tree with O(log m) queries; max is idempotent so a sparse table does the
//! same job a log factor faster.)

/// Static range-argmax structure: returns the *position* of the maximum
/// score rather than its value, which the AVG window index needs to
/// re-evaluate the winning window's variance against the actual partition
/// size (Appendix A.4 stores the argmax sample `t_g` for the same reason).
#[derive(Debug, Clone)]
pub struct SparseArgmaxTable {
    /// `levels[j][i]` = index of the max of `scores[i .. i + 2^j]`.
    levels: Vec<Vec<u32>>,
    scores: Vec<f64>,
}

impl SparseArgmaxTable {
    pub fn build(scores: &[f64]) -> Self {
        let n = scores.len();
        let mut levels: Vec<Vec<u32>> = Vec::new();
        if n > 0 {
            levels.push((0..n as u32).collect());
            let mut j = 1;
            while (1 << j) <= n {
                let half = 1 << (j - 1);
                let prev = &levels[j - 1];
                let level: Vec<u32> = (0..=(n - (1 << j)))
                    .map(|i| {
                        let a = prev[i];
                        let b = prev[i + half];
                        if scores[a as usize] >= scores[b as usize] {
                            a
                        } else {
                            b
                        }
                    })
                    .collect();
                levels.push(level);
                j += 1;
            }
        }
        Self {
            levels,
            scores: scores.to_vec(),
        }
    }

    /// Index of the maximum of `scores[lo..hi)`; `None` for an empty range.
    pub fn range_argmax(&self, lo: usize, hi: usize) -> Option<usize> {
        if lo >= hi || hi > self.scores.len() {
            return None;
        }
        let span = hi - lo;
        let j = usize::BITS as usize - 1 - span.leading_zeros() as usize;
        let block = 1usize << j;
        let a = self.levels[j][lo];
        let b = self.levels[j][hi - block];
        Some(if self.scores[a as usize] >= self.scores[b as usize] {
            a as usize
        } else {
            b as usize
        })
    }

    /// Score at an index.
    pub fn score(&self, i: usize) -> f64 {
        self.scores[i]
    }

    /// Number of scores indexed.
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// True when built over no scores.
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pass_common::rng::rng_from_seed;
    use rand::Rng;

    #[test]
    fn argmax_matches_naive() {
        let mut rng = rng_from_seed(5);
        let scores: Vec<f64> = (0..150).map(|_| rng.gen::<f64>()).collect();
        let t = SparseArgmaxTable::build(&scores);
        for lo in 0..scores.len() {
            for hi in (lo + 1)..=scores.len() {
                let naive = (lo..hi)
                    .max_by(|&a, &b| scores[a].partial_cmp(&scores[b]).unwrap())
                    .unwrap();
                let got = t.range_argmax(lo, hi).unwrap();
                // Equal scores may tie; compare by value.
                assert_eq!(scores[got], scores[naive], "[{lo},{hi})");
            }
        }
    }

    #[test]
    fn argmax_empty() {
        let t = SparseArgmaxTable::build(&[]);
        assert!(t.is_empty());
        assert_eq!(t.range_argmax(0, 1), None);
    }
}

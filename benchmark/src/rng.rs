//! The benchmark's own random stream: op schedules must not change when
//! the library's vendored `rand` does, so they come from a SplitMix64
//! generator kept here. Everything is a pure function of `--seed`.

/// SplitMix64 — tiny, fast, and good enough for schedules.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, label)`; distinct labels give independent
    /// streams from one `--seed`.
    pub fn new(seed: u64, label: u64) -> Rng {
        let mut rng = Rng(seed ^ label.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias at these sizes is
    /// far below anything a schedule can show.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Zipf(s = 1) over ranks `0..n`: rank `k` is drawn with probability
/// proportional to `1 / (k + 1)` — the "few tiles are hot" shape of
/// dashboard traffic.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Precompute the cumulative distribution for `n` ranks.
    pub fn new(n: usize) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 0..n {
            total += 1.0 / (k + 1) as f64;
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Draw one rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds_and_labels() {
        let draw = |seed, label| {
            let mut r = Rng::new(seed, label);
            (0..16).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(8, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
    }

    #[test]
    fn zipf_is_deterministic_skewed_and_in_range() {
        let zipf = Zipf::new(1024);
        let draw = |seed| {
            let mut r = Rng::new(seed, 0);
            (0..20_000).map(|_| zipf.sample(&mut r)).collect::<Vec<_>>()
        };
        let a = draw(7);
        assert_eq!(a, draw(7));
        assert_ne!(a, draw(8));
        assert!(a.iter().all(|&k| k < 1024));
        // P(rank 0) = 1 / H(1024) ≈ 0.133; P(rank < 32) ≈ 0.54.
        let top = a.iter().filter(|&&k| k == 0).count() as f64 / a.len() as f64;
        let head = a.iter().filter(|&&k| k < 32).count() as f64 / a.len() as f64;
        assert!((0.11..0.16).contains(&top), "{top}");
        assert!((0.50..0.58).contains(&head), "{head}");
    }
}

//! VerdictDB-style scramble with variational subsampling [Park et al.
//! 2018] — the Table 2 comparator.
//!
//! VerdictDB materializes a *scramble*: a uniform sample of the table with
//! each row assigned to one of `s ≈ n_s^{...}` subsample groups. A query is
//! answered on the full scramble; the confidence interval comes from the
//! spread of the per-group estimates (variational subsampling), which
//! avoids any closed-form variance derivation. We reproduce exactly that
//! mechanism at two scramble ratios (10% / 100%) for the Table 2 rows.

use rand::Rng;

use pass_common::rng::rng_from_seed;
use pass_common::{check_dims, AggKind, EngineSpec, Estimate, PassError, Query, Result, Synopsis};
use pass_sampling::PointVariance;
use pass_table::Table;

/// A scramble: sampled rows with subsample-group assignments.
#[derive(Debug, Clone)]
pub struct VerdictSynopsis {
    /// Sampled rows (same dims as the parent table).
    pub(crate) rows: Table,
    /// Subsample group of each scramble row.
    pub(crate) group: Vec<u32>,
    pub(crate) n_groups: usize,
    pub(crate) population: u64,
    pub(crate) name: String,
    /// Requested (ratio, seed), kept for [`Synopsis::spec`].
    pub(crate) requested: (f64, u64),
}

impl VerdictSynopsis {
    /// Build a scramble of `ratio` (0, 1] of the table. The group count
    /// follows VerdictDB's n^0.5 default.
    pub fn build(table: &Table, ratio: f64, seed: u64) -> Result<Self> {
        if table.n_rows() == 0 {
            return Err(PassError::EmptyInput("scramble over empty table"));
        }
        EngineSpec::Verdict { ratio, seed }.validate()?;
        let n = table.n_rows();
        let k = ((n as f64) * ratio).round().max(1.0) as usize;
        let mut rng = rng_from_seed(seed);
        let indices: Vec<usize> = if k >= n {
            (0..n).collect()
        } else {
            let mut idx: Vec<usize> = rand::seq::index::sample(&mut rng, n, k).into_vec();
            idx.sort_unstable();
            idx
        };
        let values: Vec<f64> = indices.iter().map(|&i| table.value(i)).collect();
        let predicates: Vec<Vec<f64>> = (0..table.dims())
            .map(|d| indices.iter().map(|&i| table.predicate(d, i)).collect())
            .collect();
        let rows = Table::new(values, predicates, table.names().to_vec())?;
        let n_groups = ((k as f64).sqrt().round() as usize).clamp(2, 1_000);
        let group: Vec<u32> = (0..k).map(|_| rng.gen_range(0..n_groups as u32)).collect();
        Ok(Self {
            rows,
            group,
            n_groups,
            population: n as u64,
            name: format!("VerdictDB-{}%", (ratio * 100.0).round()),
            requested: (ratio, seed),
        })
    }

    /// Number of subsample groups.
    pub fn n_groups(&self) -> usize {
        self.n_groups
    }

    /// Scramble size.
    pub fn k(&self) -> usize {
        self.rows.n_rows()
    }
}

impl Synopsis for VerdictSynopsis {
    fn name(&self) -> &str {
        &self.name
    }

    fn spec(&self) -> EngineSpec {
        EngineSpec::Verdict {
            ratio: self.requested.0,
            seed: self.requested.1,
        }
    }

    fn save_state(&self, out: &mut Vec<u8>) -> Result<()> {
        crate::snapshot::save_verdict(self, out);
        Ok(())
    }

    fn estimate(&self, query: &Query) -> Result<Estimate> {
        check_dims(self.rows.dims(), query.dims())?;
        let k = self.k();
        let n = self.population as f64;
        // Per-group accumulators: count of rows, matching count, matching
        // value sum.
        let mut g_rows = vec![0u64; self.n_groups];
        let mut g_match = vec![0u64; self.n_groups];
        let mut g_sum = vec![0.0f64; self.n_groups];
        // Full-scramble accumulators.
        let (mut t_match, mut t_sum) = (0u64, 0.0f64);
        let mut t_min = f64::INFINITY;
        let mut t_max = f64::NEG_INFINITY;
        // Predicate evaluation rides the scan kernels: the match mask is
        // built one contiguous column at a time, then the accumulation
        // walks rows in the same index order as the old row-at-a-time
        // `matches` loop — identical adds, identical bits.
        pass_sampling::with_scratch(|scratch| {
            let mask = scratch.match_mask(k, &query.rect, |d| self.rows.predicate_column(d));
            for (i, &m) in mask.iter().enumerate() {
                let g = self.group[i] as usize;
                g_rows[g] += 1;
                if m != 0 {
                    let v = self.rows.value(i);
                    g_match[g] += 1;
                    g_sum[g] += v;
                    t_match += 1;
                    t_sum += v;
                    t_min = t_min.min(v);
                    t_max = t_max.max(v);
                }
            }
        });

        let full_estimate = |agg: AggKind| -> Option<f64> {
            match agg {
                AggKind::Count => Some(n * t_match as f64 / k as f64),
                AggKind::Sum => Some(n * t_sum / k as f64),
                AggKind::Avg => (t_match > 0).then(|| t_sum / t_match as f64),
                AggKind::Min => (t_match > 0).then_some(t_min),
                AggKind::Max => (t_match > 0).then_some(t_max),
            }
        };
        let group_estimate = |agg: AggKind, g: usize| -> Option<f64> {
            let kg = g_rows[g];
            if kg == 0 {
                return None;
            }
            match agg {
                AggKind::Count => Some(n * g_match[g] as f64 / kg as f64),
                AggKind::Sum => Some(n * g_sum[g] / kg as f64),
                AggKind::Avg => (g_match[g] > 0).then(|| g_sum[g] / g_match[g] as f64),
                _ => None,
            }
        };

        let value = full_estimate(query.agg).ok_or(PassError::EmptyInput(
            "no scramble row matches the predicate",
        ))?;

        let variance = match query.agg {
            AggKind::Min | AggKind::Max => 0.0,
            agg => {
                // Variational subsampling: each group of size ~k/s is an
                // independent estimator; Var(full) ≈ Var(group)·(k_g/k),
                // so the CI uses the group spread shrunk by √(k_g/k).
                let groups: Vec<f64> = (0..self.n_groups)
                    .filter_map(|g| group_estimate(agg, g))
                    .collect();
                if groups.len() < 2 {
                    0.0
                } else {
                    let var_groups = pass_common::stats::sample_variance(&groups);
                    let avg_group_size = k as f64 / self.n_groups as f64;
                    let shrink = avg_group_size / k as f64;
                    var_groups * shrink
                }
            }
        };
        // A 100% scramble reproduces the data exactly (AVG additionally
        // needs at least one matching row, checked above via t_match).
        let exact = self.k() as u64 == self.population;
        let mut est = if exact {
            Estimate::exact(value)
        } else {
            let k_pred = t_match;
            PointVariance {
                value,
                variance,
                k_pred,
            }
            .evaluate(query.agg)
        };
        est = est.with_accounting(k as u64, self.population - k as u64);
        Ok(est)
    }

    fn storage_bytes(&self) -> usize {
        // Values + predicates + 4-byte group tag per row.
        self.k() * ((1 + self.rows.dims()) * 8 + 4)
    }

    fn dims(&self) -> usize {
        self.rows.dims()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pass_table::datasets::uniform;

    #[test]
    fn full_scramble_is_exact() {
        let t = uniform(5_000, 1);
        let v = VerdictSynopsis::build(&t, 1.0, 2).unwrap();
        assert_eq!(v.k(), 5_000);
        for agg in AggKind::ALL {
            let q = Query::interval(agg, 0.2, 0.7);
            let est = v.estimate(&q).unwrap();
            let truth = t.ground_truth(&q).unwrap();
            assert!(
                (est.value - truth).abs() < 1e-9,
                "{agg}: {} vs {truth}",
                est.value
            );
        }
    }

    #[test]
    fn partial_scramble_tracks_truth() {
        let t = uniform(30_000, 3);
        let v = VerdictSynopsis::build(&t, 0.1, 4).unwrap();
        for agg in [AggKind::Sum, AggKind::Count, AggKind::Avg] {
            let q = Query::interval(agg, 0.1, 0.9);
            let est = v.estimate(&q).unwrap();
            let truth = t.ground_truth(&q).unwrap();
            let rel = (est.value - truth).abs() / truth;
            assert!(rel < 0.1, "{agg}: rel {rel}");
        }
    }

    #[test]
    fn subsampling_ci_covers_truth() {
        let t = uniform(20_000, 5);
        let q = Query::interval(AggKind::Sum, 0.2, 0.8);
        let truth = t.ground_truth(&q).unwrap();
        let mut covered = 0;
        for seed in 0..60 {
            let v = VerdictSynopsis::build(&t, 0.05, seed).unwrap();
            let est = v.estimate(&q).unwrap();
            if (est.value - truth).abs() <= est.ci_half {
                covered += 1;
            }
        }
        // Variational subsampling CIs are approximate; expect solid but
        // not perfect coverage at 99% nominal.
        assert!(covered >= 48, "coverage {covered}/60");
    }

    #[test]
    fn names_follow_ratio() {
        let t = uniform(1_000, 6);
        assert_eq!(
            VerdictSynopsis::build(&t, 0.1, 7).unwrap().name(),
            "VerdictDB-10%"
        );
        assert_eq!(
            VerdictSynopsis::build(&t, 1.0, 7).unwrap().name(),
            "VerdictDB-100%"
        );
    }

    #[test]
    fn invalid_ratio_rejected() {
        let t = uniform(100, 8);
        assert!(VerdictSynopsis::build(&t, 0.0, 9).is_err());
        assert!(VerdictSynopsis::build(&t, 1.5, 9).is_err());
    }
}

//! JOIN — fact ⋈ dimension foreign-key join estimation from a fact-side
//! sample (*Joins on Samples*, Huang et al.; the composable-estimator
//! framing of Nirkhiwale et al.'s sampling algebra).
//!
//! The engine samples the **fact** side uniformly and hash-indexes the
//! **dimension** side (carried inside the [`JoinSpec`]) by its unique
//! key column. Because the key is unique, every fact row joins at most
//! one dimension row, so the sampled join is materialized once at build
//! time as a *joined sample*: each sampled fact row keeps its value and
//! fact predicates and appends its partner's attribute columns; a
//! dangling FK (no partner) turns the row's **entire predicate row**
//! into NaN, which fails every `lo <= x && x <= hi` comparison in the
//! scan kernel and in `Table::matches` alike — the inner join drops the
//! row for every rectangle, even when the join adds no attribute
//! columns.
//!
//! Estimation then *is* single-table φ-transform estimation over the
//! joined sample — so the engine answers through a [`UniformSynopsis`]
//! over it: the Horvitz–Thompson estimator scales the sample mean of φ by
//! the fact population `N`, and the CLT variance `pop_var(φ)/K · fpc` is
//! exactly Huang et al.'s sample-one-side join variance for the
//! unique-key case (each sampled tuple contributes an independent φ
//! draw). Unbiasedness for SUM/COUNT and CI coverage are pinned
//! statistically by `tests/join_contract.rs`.
//!
//! MIN/MAX are rejected with a typed error: an extremum of the join can
//! hide entirely in unsampled fact rows, so no unbiased sample-side
//! estimator exists.

use std::collections::HashMap;

use pass_common::rng::rng_from_seed;
use pass_common::{AggKind, EngineSpec, Estimate, JoinSpec, PassError, Query, Result, Synopsis};
use pass_sampling::Sample;
use pass_table::Table;

use crate::UniformSynopsis;

/// A fact-side uniform sample joined against a hash-indexed dimension
/// side, answering SUM/COUNT/AVG over predicate rectangles that span
/// both sides (fact dimensions first, then the dimension attributes in
/// `dim_attrs` order).
///
/// The joined sample is materialized once, at build time, and held by a
/// [`UniformSynopsis`] whose population is the fact table's: every
/// answer — single or batched, value, interval and accounting — is that
/// engine's answer over the joined sample. What the join adds is its
/// spec (the dimension side, whose index lives only while
/// [`build`](Self::build) joins) and the refusal of MIN/MAX (after the
/// arity check, as every engine orders its errors).
#[derive(Debug, Clone)]
pub struct JoinSynopsis {
    /// US over the joined sample (fact dims + attribute dims), scaled to
    /// the fact population `N`.
    pub(crate) us: UniformSynopsis,
    pub(crate) spec: JoinSpec,
}

/// The dimension side of a spec as a concrete table: a placeholder
/// aggregation column, the key column as predicate dimension 0, and the
/// attribute columns after it — the shape [`Table::key_index`] and the
/// join loop probe.
fn dim_table(spec: &JoinSpec) -> Result<Table> {
    let n = spec.dim_keys.len();
    let mut predicates = Vec::with_capacity(1 + spec.dim_attrs.len());
    predicates.push(spec.dim_keys.clone());
    predicates.extend(spec.dim_attrs.iter().cloned());
    let mut names = vec!["dim_value".to_string(), "dim_key".to_string()];
    names.extend((0..spec.dim_attrs.len()).map(|j| format!("dim_attr{j}")));
    Table::new(vec![0.0; n], predicates, names)
}

/// Materialize the join of the sampled fact rows against the indexed
/// dimension side. Matched rows carry their fact predicates verbatim
/// plus the partner's attributes; dangling rows go all-NaN on every
/// predicate column (see the module docs for why that is the exact
/// inner-join semantics under rectangle predicates).
fn join_rows(
    fact: &Table,
    dim_side: &Table,
    index: &HashMap<u64, usize>,
    fk_dim: usize,
) -> Result<Table> {
    let fact_dims = fact.dims();
    let attr_dims = dim_side.dims() - 1;
    let dims = fact_dims + attr_dims;
    let mut values = Vec::with_capacity(fact.n_rows());
    let mut predicates: Vec<Vec<f64>> = (0..dims)
        .map(|_| Vec::with_capacity(fact.n_rows()))
        .collect();
    for i in 0..fact.n_rows() {
        values.push(fact.value(i));
        let key = fact.predicate(fk_dim, i);
        // The same canonicalization the index build applies: -0.0 probes
        // under +0.0's bits; a NaN FK stays NaN and (the index holds no
        // NaN keys) dangles, matching NaN's join-nothing semantics.
        let canonical = if key == 0.0 { 0.0f64 } else { key };
        match index.get(&canonical.to_bits()) {
            Some(&row) => {
                for (d, col) in predicates.iter_mut().take(fact_dims).enumerate() {
                    col.push(fact.predicate(d, i));
                }
                for j in 0..attr_dims {
                    predicates[fact_dims + j].push(dim_side.predicate(1 + j, row));
                }
            }
            None => {
                for col in &mut predicates {
                    col.push(f64::NAN);
                }
            }
        }
    }
    let mut names = Vec::with_capacity(1 + dims);
    names.extend(fact.names().iter().cloned());
    names.extend((0..attr_dims).map(|j| format!("dim_attr{j}")));
    Table::new(values, predicates, names)
}

/// The typed rejection for aggregates no fact-side sample can estimate
/// without bias (an unsampled fact row can hold the true extremum).
fn reject_extremum(agg: AggKind) -> Result<()> {
    if matches!(agg, AggKind::Min | AggKind::Max) {
        return Err(PassError::InvalidParameter(
            "agg",
            format!("{agg} has no unbiased estimator over a fact-side join sample"),
        ));
    }
    Ok(())
}

impl JoinSynopsis {
    /// Validate the spec, index the dimension side, sample the fact side
    /// (`table`), and materialize the joined sample.
    pub fn build(table: &Table, spec: &JoinSpec) -> Result<Self> {
        spec.validate()?;
        if table.n_rows() == 0 {
            return Err(PassError::EmptyInput("join over an empty fact table"));
        }
        if spec.fk_dim >= table.dims() {
            return Err(PassError::InvalidParameter(
                "fk_dim",
                format!(
                    "fact table has {} predicate dimensions but the FK is dimension {}",
                    table.dims(),
                    spec.fk_dim
                ),
            ));
        }
        let dim_side = dim_table(spec)?;
        let index = dim_side.key_index(0)?;
        let mut rng = rng_from_seed(spec.seed);
        let fact_sample = Sample::uniform(table, spec.k, &mut rng)?;
        let joined = join_rows(fact_sample.rows(), &dim_side, &index, spec.fk_dim)?;
        let sample = Sample::from_rows(joined, table.n_rows() as u64)?;
        Ok(Self::over(sample, table.n_rows() as u64, spec.clone()))
    }

    /// The engine over a joined sample of a `total_rows`-row fact table,
    /// built or loaded (a snapshot carries the sample and population only;
    /// `crate::snapshot::load_join` checks them against the header spec).
    pub(crate) fn over(sample: Sample, total_rows: u64, spec: JoinSpec) -> Self {
        let us = UniformSynopsis {
            dims: sample.rows().dims(),
            sample,
            total_rows,
            requested_k: spec.k,
            seed: spec.seed,
        };
        Self { us, spec }
    }
}

impl Synopsis for JoinSynopsis {
    fn name(&self) -> &str {
        "JOIN"
    }

    fn spec(&self) -> EngineSpec {
        EngineSpec::Join(self.spec.clone())
    }

    fn save_state(&self, out: &mut Vec<u8>) -> Result<()> {
        self.us.save_state(out)
    }

    fn estimate(&self, query: &Query) -> Result<Estimate> {
        if query.dims() == self.us.dims {
            reject_extremum(query.agg)?;
        }
        self.us.estimate(query)
    }

    /// The US lockstep batch path over the joined sample; a batch with a
    /// mis-sized or MIN/MAX query falls back to the per-query path so
    /// error semantics stay per-element.
    fn estimate_many(&self, queries: &[Query]) -> Vec<Result<Estimate>> {
        if queries
            .iter()
            .any(|q| matches!(q.agg, AggKind::Min | AggKind::Max))
        {
            return queries.iter().map(|q| self.estimate(q)).collect();
        }
        self.us.estimate_many(queries)
    }

    /// Joined-sample payload plus the hash index the join probes (one
    /// key/row entry per dimension row; the spec refuses duplicate keys).
    fn storage_bytes(&self) -> usize {
        self.us.storage_bytes() + self.spec.dim_keys.len() * (std::mem::size_of::<u64>() * 2)
    }

    fn dims(&self) -> usize {
        self.us.dims
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pass_common::Rect;
    use pass_table::datasets::uniform;

    /// A fact table whose FK column (dim 1) cycles 0..dim_n, with some
    /// rows pointed at a dangling key, plus a dimension side whose
    /// attribute is 10× the key.
    fn fixture(fact_n: usize, dim_n: usize, dangle_every: usize) -> (Table, JoinSpec) {
        let values: Vec<f64> = (0..fact_n).map(|i| (i % 13) as f64 + 1.0).collect();
        let x: Vec<f64> = (0..fact_n).map(|i| i as f64 / fact_n as f64).collect();
        let fk: Vec<f64> = (0..fact_n)
            .map(|i| {
                if dangle_every > 0 && i % dangle_every == 0 {
                    -1.0 // no such dimension key
                } else {
                    (i % dim_n) as f64
                }
            })
            .collect();
        let fact = Table::new(
            values,
            vec![x, fk],
            vec!["v".into(), "x".into(), "fk".into()],
        )
        .unwrap();
        let dim_keys: Vec<f64> = (0..dim_n).map(|k| k as f64).collect();
        let dim_attr: Vec<f64> = dim_keys.iter().map(|k| k * 10.0).collect();
        let spec = JoinSpec::new(1, dim_keys, vec![dim_attr], 600);
        (fact, spec)
    }

    /// Exact join truth by nested-loop reference.
    fn nested_loop_truth(fact: &Table, spec: &JoinSpec, agg: AggKind, rect: &Rect) -> Option<f64> {
        let mut agg_state = pass_common::Aggregates::empty();
        for i in 0..fact.n_rows() {
            let key = fact.predicate(spec.fk_dim, i);
            // IEEE == already treats -0.0 and 0.0 as equal, matching the
            // index's canonicalization.
            let partner = spec.dim_keys.iter().position(|&k| k == key);
            let Some(row) = partner else { continue };
            let mut point: Vec<f64> = (0..fact.dims()).map(|d| fact.predicate(d, i)).collect();
            point.extend(spec.dim_attrs.iter().map(|col| col[row]));
            let inside = (0..rect.dims()).all(|d| rect.lo(d) <= point[d] && point[d] <= rect.hi(d));
            if inside {
                agg_state.insert(fact.value(i));
            }
        }
        agg_state.answer(agg)
    }

    #[test]
    fn estimates_track_join_truth() {
        let (fact, spec) = fixture(20_000, 16, 0);
        let spec = JoinSpec { k: 4_000, ..spec };
        let join = JoinSynopsis::build(&fact, &spec).unwrap();
        assert_eq!(join.dims(), 3);
        // Constrain both sides: x in [0.1, 0.9], attr in [20, 110].
        let rect = Rect::new(&[(0.1, 0.9), (0.0, 16.0), (20.0, 110.0)]);
        for agg in [AggKind::Sum, AggKind::Count, AggKind::Avg] {
            let truth = nested_loop_truth(&fact, &spec, agg, &rect).unwrap();
            let est = join.estimate(&Query::new(agg, rect.clone())).unwrap();
            let rel = (est.value - truth).abs() / truth;
            assert!(
                rel < 0.1,
                "{agg}: rel {rel} (est {} truth {truth})",
                est.value
            );
        }
    }

    #[test]
    fn dangling_fks_are_dropped_like_an_inner_join() {
        let (fact, spec) = fixture(10_000, 8, 3);
        let join = JoinSynopsis::build(&fact, &spec).unwrap();
        let everything = Rect::new(&[
            (f64::NEG_INFINITY, f64::INFINITY),
            (f64::NEG_INFINITY, f64::INFINITY),
            (f64::NEG_INFINITY, f64::INFINITY),
        ]);
        let truth = nested_loop_truth(&fact, &spec, AggKind::Count, &everything).unwrap();
        assert!(truth < fact.n_rows() as f64, "some rows must dangle");
        let est = join
            .estimate(&Query::new(AggKind::Count, everything))
            .unwrap();
        let rel = (est.value - truth).abs() / truth;
        assert!(rel < 0.1, "rel {rel} (est {} truth {truth})", est.value);
    }

    #[test]
    fn empty_join_answers_zero_or_typed_empty() {
        // A dimension side sharing no key with the fact side: every row
        // dangles, the join is empty.
        let fact = uniform(2_000, 3);
        let spec = JoinSpec::new(0, vec![100.0, 200.0], vec![vec![1.0, 2.0]], 256);
        let join = JoinSynopsis::build(&fact, &spec).unwrap();
        let rect = Rect::new(&[(f64::NEG_INFINITY, f64::INFINITY); 2]);
        for agg in [AggKind::Sum, AggKind::Count] {
            let est = join.estimate(&Query::new(agg, rect.clone())).unwrap();
            assert_eq!(est.value, 0.0, "{agg}");
            assert_eq!(est.ci_half, 0.0, "{agg}");
        }
        assert!(matches!(
            join.estimate(&Query::new(AggKind::Avg, rect)),
            Err(PassError::EmptyInput(_))
        ));
    }

    #[test]
    fn min_max_are_typed_rejections_on_every_path() {
        let (fact, spec) = fixture(1_000, 4, 0);
        let join = JoinSynopsis::build(&fact, &spec).unwrap();
        let rect = Rect::new(&[(0.0, 1.0), (0.0, 4.0), (0.0, 40.0)]);
        for agg in [AggKind::Min, AggKind::Max] {
            let q = Query::new(agg, rect.clone());
            assert!(matches!(
                join.estimate(&q),
                Err(PassError::InvalidParameter("agg", _))
            ));
            let batch = join.estimate_many(std::slice::from_ref(&q));
            assert!(matches!(
                batch[0],
                Err(PassError::InvalidParameter("agg", _))
            ));
        }
    }

    #[test]
    fn batch_path_is_bit_identical() {
        let (fact, spec) = fixture(5_000, 8, 4);
        let join = JoinSynopsis::build(&fact, &spec).unwrap();
        let queries: Vec<Query> = (0..32)
            .map(|i| {
                let f = i as f64 / 32.0;
                let agg = [AggKind::Sum, AggKind::Count, AggKind::Avg][i % 3];
                Query::new(
                    agg,
                    Rect::new(&[(f * 0.5, 0.5 + f * 0.5), (0.0, 8.0), (0.0, 80.0)]),
                )
            })
            .collect();
        let batched = join.estimate_many(&queries);
        for (q, b) in queries.iter().zip(&batched) {
            assert_eq!(join.estimate(q), *b);
        }
    }

    #[test]
    fn build_rejects_bad_inputs_with_typed_errors() {
        let fact = uniform(100, 1);
        // FK dimension out of range.
        let spec = JoinSpec::new(5, vec![1.0], vec![], 16);
        assert!(matches!(
            JoinSynopsis::build(&fact, &spec),
            Err(PassError::InvalidParameter("fk_dim", _))
        ));
        // Invalid spec (duplicate keys) is caught before any work.
        let spec = JoinSpec::new(0, vec![1.0, 1.0], vec![], 16);
        assert!(matches!(
            JoinSynopsis::build(&fact, &spec),
            Err(PassError::InvalidParameter("dim_keys", _))
        ));
        // Empty fact side.
        let empty = Table::one_dim(vec![], vec![]).unwrap();
        let spec = JoinSpec::new(0, vec![1.0], vec![], 16);
        assert!(matches!(
            JoinSynopsis::build(&empty, &spec),
            Err(PassError::EmptyInput(_))
        ));
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let (fact, spec) = fixture(500, 4, 0);
        let join = JoinSynopsis::build(&fact, &spec).unwrap();
        // The fact table alone is 2-D; join queries need 3 dims.
        let q = Query::new(AggKind::Sum, Rect::new(&[(0.0, 1.0), (0.0, 4.0)]));
        assert!(matches!(
            join.estimate(&q),
            Err(PassError::DimensionMismatch {
                expected: 3,
                got: 2
            })
        ));
    }

    #[test]
    fn spec_round_trips_and_storage_counts_index() {
        let (fact, spec) = fixture(2_000, 8, 0);
        let join = JoinSynopsis::build(&fact, &spec).unwrap();
        assert_eq!(join.spec(), EngineSpec::Join(spec.clone()));
        assert_eq!(join.name(), "JOIN");
        assert_eq!(
            join.storage_bytes(),
            join.us.sample().storage_bytes() + 8 * 16
        );
    }

    #[test]
    fn negative_zero_fk_joins_the_zero_key() {
        // A -0.0 FK must find the 0.0 dimension key (canonicalized probe).
        let fact = Table::one_dim(vec![-0.0, 1.0, 2.0], vec![5.0, 6.0, 7.0]).unwrap();
        let spec = JoinSpec::new(0, vec![0.0, 1.0], vec![vec![9.0, 11.0]], 3);
        let join = JoinSynopsis::build(&fact, &spec).unwrap();
        // k = population, so the sample is the whole table: COUNT over
        // everything is the exact matched-row count (2; the key-2 row
        // dangles).
        let rect = Rect::new(&[
            (f64::NEG_INFINITY, f64::INFINITY),
            (f64::NEG_INFINITY, f64::INFINITY),
        ]);
        let est = join.estimate(&Query::new(AggKind::Count, rect)).unwrap();
        assert_eq!(est.value, 2.0);
    }
}

//! The engine-agnostic synopsis contract.
//!
//! PASS and every baseline in the paper's Section 5 (US, ST, AQP++, KD-US,
//! VerdictDB-style, DeepDB-style) implement [`Synopsis`]; the
//! `pass::Session` facade only speaks this trait, so the benchmark tables
//! are generated by one generic loop, `Session::run_workload`.
//!
//! The contract has two query entry points: [`estimate`](Synopsis::estimate)
//! answers one query and [`estimate_many`](Synopsis::estimate_many) answers
//! a batch. The default batch implementation loops over `estimate`; engines
//! with shareable per-query state override it. How a batch is *executed* is
//! not part of the trait: [`estimate_many_parallel`] chunks any engine's
//! `estimate_many` across a [`ThreadPool`]. All three must agree
//! element-wise — `tests/engine_contract.rs` asserts this for every
//! registered engine. A group-by is not part of the trait either:
//! [`estimate_group_by`] is the availability rule over `estimate_many` of
//! the per-category selection queries, for every engine alike.
//!
//! A built synopsis is **immutable at query time**, so the trait requires
//! `Send + Sync`: one synopsis behind an `Arc` can serve any number of
//! threads and sessions concurrently without locking.

use crate::estimate::Estimate;
use crate::pool::ThreadPool;
use crate::query::{GroupByQuery, GroupResult, Query};
use crate::spec::EngineSpec;
use crate::Result;

/// Batches smaller than this are answered sequentially even when a
/// multi-worker pool is supplied: thread fan-out costs more than it saves
/// on a handful of tree traversals.
pub const PARALLEL_MIN_BATCH: usize = 32;

/// An approximate-query-processing engine built offline over one table.
///
/// Two properties are part of the contract, not just convention:
///
/// * **`Send + Sync`** — query methods take `&self` and built synopses
///   are immutable, so implementations must be safely shareable across
///   threads.
/// * **Query-time determinism** — repeating a query against unchanged
///   state must return the identical [`Estimate`]. The serving layer
///   ([`crate::CachedSynopsis`], `pass::Session`) caches answers on this
///   assumption. An engine whose state *can* change between queries
///   (e.g. a streaming `Pass` absorbing inserts) must advance
///   [`update_epoch`](Synopsis::update_epoch) on every mutation;
///   epoch-aware caches observe the counter on each lookup and drop
///   stale answers automatically, so no manual cache clearing is needed.
///   An engine that mutates *without* reporting an epoch is outside the
///   contract — its cached answers go stale silently.
pub trait Synopsis: Send + Sync {
    /// Engine name as printed in benchmark tables (e.g. `"PASS"`, `"US"`).
    fn name(&self) -> &str;

    /// Answer one aggregate query approximately.
    fn estimate(&self, query: &Query) -> Result<Estimate>;

    /// Answer a batch of queries, one result per query in order.
    ///
    /// Semantically identical to calling [`estimate`](Self::estimate) per
    /// query; engines override it to share work across the batch.
    fn estimate_many(&self, queries: &[Query]) -> Vec<Result<Estimate>> {
        queries.iter().map(|q| self.estimate(q)).collect()
    }

    /// How many mutations this synopsis has absorbed since it was built.
    ///
    /// Immutable engines (everything built through the registry) return a
    /// constant `0`. A mutable engine (a streaming `Pass` absorbing
    /// inserts/deletes) bumps its epoch on every update;
    /// [`crate::CachedSynopsis`] compares the epoch on every lookup and
    /// drops stale entries automatically, so cached answers stay coherent
    /// without manual `clear_cache` calls.
    fn update_epoch(&self) -> u64 {
        0
    }

    /// The declarative spec this engine was built from.
    ///
    /// Engines built through the registry return the exact spec handed to
    /// `Engine::build`, so specs round-trip. The default covers hand-built
    /// synopses outside the registry.
    fn spec(&self) -> EngineSpec {
        EngineSpec::Opaque {
            name: self.name().to_owned(),
        }
    }

    /// Append this engine's built state to `out` as framed snapshot
    /// sections ([`crate::snapshot::write_section`]) — everything the
    /// engine's [`spec`](Self::spec) cannot rebuild (trees, samples,
    /// epochs), nothing it can.
    ///
    /// Implementations must be exhaustive enough that the registry's
    /// loader reconstructs an engine whose every query answer is
    /// **bit-identical** to this one's (`tests/snapshot_contract.rs` pins
    /// this across the standard suite). The default refuses: hand-built
    /// synopses outside the registry have no load path to pair with.
    fn save_state(&self, out: &mut Vec<u8>) -> Result<()> {
        let _ = out;
        Err(crate::PassError::InvalidParameter(
            "synopsis",
            format!("`{}` does not support state snapshots", self.name()),
        ))
    }

    /// Serialize this engine as one self-describing snapshot: the
    /// [`crate::snapshot`] preamble (magic, version, spec header from
    /// [`spec`](Self::spec)) followed by the engine's
    /// [`save_state`](Self::save_state) sections. Nothing is written to
    /// `out` unless the whole engine serializes successfully.
    fn save(&self, out: &mut Vec<u8>) -> Result<()> {
        let mut state = Vec::new();
        self.save_state(&mut state)?;
        crate::snapshot::write_header(out, &self.spec());
        out.extend_from_slice(&state);
        Ok(())
    }

    /// Bytes of synopsis state kept online (samples + aggregates), the
    /// Table 2 "Storage" column. Implementations report logical payload
    /// size, not allocator overhead.
    fn storage_bytes(&self) -> usize;

    /// Number of predicate dimensions the synopsis was built over.
    fn dims(&self) -> usize;
}

/// Answer a batch in parallel: the batch is cut into chunks which the
/// pool's workers steal and answer through
/// [`Synopsis::estimate_many`], results reassembled in input order.
///
/// Semantically identical to `estimate_many` (engines are deterministic
/// and immutable at query time, so parallel results are bit-identical
/// element-wise); batches under [`PARALLEL_MIN_BATCH`] or single-worker
/// pools take the sequential path directly.
pub fn estimate_many_parallel<S: Synopsis + ?Sized>(
    engine: &S,
    queries: &[Query],
    pool: &ThreadPool,
) -> Vec<Result<Estimate>> {
    if pool.threads() <= 1 || queries.len() < PARALLEL_MIN_BATCH {
        return engine.estimate_many(queries);
    }
    let chunk = pool.chunk_size_for(queries.len());
    pool.map_chunks(queries.len(), chunk, |range| {
        engine.estimate_many(&queries[range])
    })
}

/// Answer a group-by aggregate: one result per category of `query`, in
/// category order (the paper's Section 4.5 — "each group-by condition can
/// be rewritten as an equality predicate condition", then "aggregate
/// answers for all the selection queries").
///
/// This is the one group-by path, for every engine and every wrapper,
/// served or direct: the per-category expansion ([`GroupByQuery::queries`])
/// goes through the engine's own [`Synopsis::estimate_many`] — PASS's
/// shared scratch, a sharded engine's scatter–gather, a
/// [`crate::CachedSynopsis`]'s probe-then-fill — and
/// [`GroupByQuery::rows`] applies the **group availability rule**
/// ([`crate::apply_group_availability`]): a category with zero sampled
/// evidence surfaces as `Err(EmptyInput)`, never as a silent, baseless
/// `0 ± 0`.
///
/// Per-category failures land in each [`GroupResult::estimate`]; the
/// function itself only errs on malformed queries (wrong arity,
/// out-of-range group dimension, NaN category).
pub fn estimate_group_by<S: Synopsis + ?Sized>(
    engine: &S,
    query: &GroupByQuery,
) -> Result<Vec<GroupResult>> {
    query.validate(engine.dims())?;
    Ok(query.rows(engine.estimate_many(&query.queries()?)))
}

/// Forwarding impls so `Box<dyn Synopsis>`, `Arc<dyn Synopsis>`, and plain
/// references compose (collections can nest, sessions can share one
/// immutable synopsis across threads via `Arc`).
///
/// Every method forwards explicitly — including those with default
/// bodies. Without the `estimate_many`/`spec` forwards, a wrapped synopsis
/// would fall back to the trait defaults and silently discard the inner
/// engine's batched path and stored spec. `pass-lint` rule
/// `synopsis-forwarding` fails CI when a trait method is missing here.
macro_rules! forward_synopsis {
    ($($wrapper:ty),+) => {$(
        impl<S: Synopsis + ?Sized> Synopsis for $wrapper {
            fn name(&self) -> &str {
                (**self).name()
            }
            fn estimate(&self, query: &Query) -> Result<Estimate> {
                (**self).estimate(query)
            }
            fn estimate_many(&self, queries: &[Query]) -> Vec<Result<Estimate>> {
                (**self).estimate_many(queries)
            }
            fn update_epoch(&self) -> u64 {
                (**self).update_epoch()
            }
            fn spec(&self) -> EngineSpec {
                (**self).spec()
            }
            fn save_state(&self, out: &mut Vec<u8>) -> Result<()> {
                (**self).save_state(out)
            }
            fn save(&self, out: &mut Vec<u8>) -> Result<()> {
                (**self).save(out)
            }
            fn storage_bytes(&self) -> usize {
                (**self).storage_bytes()
            }
            fn dims(&self) -> usize {
                (**self).dims()
            }
        }
    )+};
}

forward_synopsis!(Box<S>, std::sync::Arc<S>, &S);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggKind;
    use crate::query::Rect;

    /// A trivial synopsis that answers every query with a constant, used to
    /// exercise the trait-object plumbing.
    struct Constant(f64);

    impl Synopsis for Constant {
        fn name(&self) -> &str {
            "CONST"
        }
        fn estimate(&self, _q: &Query) -> Result<Estimate> {
            Ok(Estimate::exact(self.0))
        }
        fn storage_bytes(&self) -> usize {
            std::mem::size_of::<f64>()
        }
        fn dims(&self) -> usize {
            1
        }
    }

    /// A synopsis that overrides the default batch path and spec, to prove
    /// both forward through `Box`.
    struct Marked;

    impl Synopsis for Marked {
        fn name(&self) -> &str {
            "MARKED"
        }
        fn estimate(&self, _q: &Query) -> Result<Estimate> {
            Ok(Estimate::exact(1.0))
        }
        fn estimate_many(&self, queries: &[Query]) -> Vec<Result<Estimate>> {
            // Deliberately distinguishable from the default loop.
            queries.iter().map(|_| Ok(Estimate::exact(2.0))).collect()
        }
        fn spec(&self) -> EngineSpec {
            EngineSpec::uniform(77)
        }
        fn storage_bytes(&self) -> usize {
            0
        }
        fn dims(&self) -> usize {
            1
        }
    }

    #[test]
    fn trait_objects_work_boxed_and_nested() {
        let s: Box<dyn Synopsis> = Box::new(Constant(7.0));
        let q = Query::new(AggKind::Sum, Rect::interval(0.0, 1.0));
        assert_eq!(s.estimate(&q).unwrap().value, 7.0);
        assert_eq!(s.name(), "CONST");
        assert_eq!(s.storage_bytes(), 8);
        assert_eq!(s.dims(), 1);
        assert_eq!(s.update_epoch(), 0, "immutable engines never advance");

        let nested: Box<Box<dyn Synopsis>> = Box::new(s);
        assert_eq!(nested.estimate(&q).unwrap().value, 7.0);
    }

    #[test]
    fn default_estimate_many_loops_over_estimate() {
        let s = Constant(3.0);
        let queries = vec![
            Query::new(AggKind::Sum, Rect::interval(0.0, 1.0)),
            Query::new(AggKind::Count, Rect::interval(0.5, 0.9)),
        ];
        let results = s.estimate_many(&queries);
        assert_eq!(results.len(), 2);
        for r in results {
            assert_eq!(r.unwrap().value, 3.0);
        }
    }

    #[test]
    fn default_spec_is_opaque_with_the_engine_name() {
        let s = Constant(0.0);
        assert_eq!(
            s.spec(),
            EngineSpec::Opaque {
                name: "CONST".into()
            }
        );
    }

    #[test]
    fn default_parallel_path_matches_sequential() {
        let s = Constant(9.0);
        let pool = ThreadPool::new(3);
        // Large enough to cross PARALLEL_MIN_BATCH and fan out.
        let queries: Vec<Query> = (0..200)
            .map(|i| Query::interval(AggKind::Sum, i as f64, i as f64 + 1.0))
            .collect();
        let seq = s.estimate_many(&queries);
        let par = estimate_many_parallel(&s, &queries, &pool);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.as_ref().unwrap().value, b.as_ref().unwrap().value);
        }
        // Tiny batches skip the fan-out but still answer correctly.
        let small = estimate_many_parallel(&s, &queries[..3], &pool);
        assert_eq!(small.len(), 3);
    }

    #[test]
    fn arc_and_ref_forward_overrides() {
        use std::sync::Arc;
        let arc: Arc<dyn Synopsis> = Arc::new(Marked);
        let q = Query::new(AggKind::Sum, Rect::interval(0.0, 1.0));
        // The override answers 2.0; the default loop would answer 1.0.
        let batch = arc.estimate_many(std::slice::from_ref(&q));
        assert_eq!(batch[0].as_ref().unwrap().value, 2.0);
        assert_eq!(arc.spec(), EngineSpec::uniform(77));
        let by_ref: &dyn Synopsis = &Marked;
        let batch = by_ref.estimate_many(std::slice::from_ref(&q));
        assert_eq!(batch[0].as_ref().unwrap().value, 2.0);
    }

    #[test]
    fn default_group_by_decomposes_per_category_and_forwards() {
        use crate::query::GroupByQuery;
        let s = Constant(4.0);
        let q = GroupByQuery::over(AggKind::Sum, 0, &[1.0, 2.0, 3.0], 1);
        let groups = estimate_group_by(&s, &q).unwrap();
        assert_eq!(groups.len(), 3);
        for (g, key) in groups.iter().zip([1.0, 2.0, 3.0]) {
            assert_eq!(g.key, key);
            assert_eq!(g.estimate, s.estimate(&q.query_for(key).unwrap()));
        }
        // Malformed queries fail as a whole, before any per-group work.
        let bad = GroupByQuery::over(AggKind::Sum, 5, &[1.0], 1);
        assert!(estimate_group_by(&s, &bad).is_err());
        // Wrapped and unsized engines decompose the same way.
        let boxed: Box<dyn Synopsis> = Box::new(Constant(4.0));
        assert_eq!(estimate_group_by(&boxed, &q).unwrap(), groups);
        assert_eq!(estimate_group_by(boxed.as_ref(), &q).unwrap(), groups);
    }

    #[test]
    fn synopses_are_shareable_across_threads() {
        use std::sync::Arc;
        let arc: Arc<dyn Synopsis> = Arc::new(Constant(5.0));
        let q = Query::new(AggKind::Sum, Rect::interval(0.0, 1.0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let shared = Arc::clone(&arc);
                let q = q.clone();
                s.spawn(move || assert_eq!(shared.estimate(&q).unwrap().value, 5.0));
            }
        });
    }

    #[test]
    fn box_forwards_estimate_many_and_spec_overrides() {
        let boxed: Box<dyn Synopsis> = Box::new(Marked);
        let q = Query::new(AggKind::Sum, Rect::interval(0.0, 1.0));
        // The override answers 2.0; the default loop would answer 1.0.
        let batch = boxed.estimate_many(std::slice::from_ref(&q));
        assert_eq!(batch[0].as_ref().unwrap().value, 2.0);
        assert_eq!(boxed.spec(), EngineSpec::uniform(77));

        let nested: Box<Box<dyn Synopsis>> = Box::new(boxed);
        let batch = nested.estimate_many(std::slice::from_ref(&q));
        assert_eq!(batch[0].as_ref().unwrap().value, 2.0);
        assert_eq!(nested.spec(), EngineSpec::uniform(77));
    }
}

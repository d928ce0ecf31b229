//! Dynamic updates (Section 4.5).
//!
//! Inserts and deletes keep the tree statistically consistent for COUNT,
//! SUM, and AVG: per-leaf samples are maintained with reservoir sampling,
//! and every aggregate on the leaf-to-root path updates in O(1). An update
//! costs what it touches:
//!
//! * **locate** — a branch-and-bound search of the tree itself
//!   (`PartitionTree::locate_leaf`): depth × fan-out box tests for a
//!   point inside a leaf, more only for a point in a gap or where widened
//!   boxes overlap;
//! * **aggregates and boxes** — one leaf-to-root path, O(depth), the
//!   empty-node flag kept on the same path;
//! * **sample** — the leaf's own reservoir and its segment of the flat
//!   arena, O(K_i); the rest of the arena moves only when K_i itself
//!   changes (a delete evicts a sampled row, or an empty stratum takes
//!   its first). A sorted 1-D sample stays in key order, on the sorted
//!   scan: the replaced or deleted row leaves in order and a new row
//!   enters at its key (`Sample::replace_row`); Algorithm R's uniform
//!   position `j` in key order is still a uniform row. Any other sample
//!   is overwritten at `j` and swap-removed on delete.
//!
//! Everything that can fail — arity, a non-finite value, a NaN
//! coordinate, a delete routed to a leaf that holds no tuple — is checked
//! before anything is mutated, so a rejected update leaves the synopsis
//! and its epoch exactly as they were. `±inf` coordinates are legal: a box
//! widened to them is unbounded, as every lifted tree's already are.
//!
//! MIN/MAX remain *conservative* after deletions: a deleted extremum cannot
//! be tightened without a partition rescan, so the stored `min`/`max` of
//! every node on the path whose extremum the deleted value touched still
//! bracket the partition's values but may no longer be attained. Those
//! nodes are marked ([`PartitionTree::has_loose_extrema`](crate::PartitionTree::has_loose_extrema)); a MIN/MAX
//! query that covers one takes its stored extremum as a bound on the
//! conservative side only and does not claim exactness — the trade-off
//! the paper accepts by scoping statistical consistency to COUNT/SUM/AVG.
//!
//! A workload-shift synopsis updates like any other: its tree is lifted
//! into the table's arity at build time, every node contains every point
//! in the dimensions it does not index, and widening never touches them.

use rand::Rng;

use pass_common::{check_dims, PassError, Result};

use crate::synopsis::Pass;
use crate::tree::NodeId;

impl Pass {
    /// Check an update's arguments and resolve the leaf that takes it and
    /// that leaf's stratum (`PartitionTree::locate_leaf` has the rule).
    /// Nothing is mutated.
    fn locate(&self, point: &[f64], value: f64) -> Result<(NodeId, usize)> {
        check_dims(self.tree.dims(), point.len())?;
        if !value.is_finite() {
            return Err(PassError::InvalidParameter(
                "value",
                format!("{value} is not finite"),
            ));
        }
        if point.iter().any(|p| p.is_nan()) {
            return Err(PassError::InvalidParameter(
                "point",
                "a coordinate is NaN".into(),
            ));
        }
        self.tree
            .locate_leaf(point)
            .ok_or(PassError::EmptyInput("tree has no leaves"))
    }

    /// Insert a tuple. Updates the leaf-to-root aggregates exactly and
    /// offers the tuple to the leaf's reservoir.
    pub fn insert(&mut self, point: &[f64], value: f64) -> Result<()> {
        let (leaf, li) = self.locate(point, value)?;
        // Widen rectangles so future MCF classifications still see the
        // point, and update aggregates on the path to the root.
        self.tree.insert_on_path(leaf, point, value);

        // Reservoir maintenance (Algorithm R) on the leaf's sample.
        let salt = self.tree.agg(leaf).count;
        let mut rng = self.update_rng(salt);
        let sample = &mut self.samples[li];
        sample.grow_population();
        let capacity = sample.k().max(1);
        let population = sample.population();
        if sample.k() < capacity || population == 0 {
            sample.push_row(value, point);
        } else {
            let j = rng.gen_range(0..population);
            if (j as usize) < capacity {
                sample.replace_row(j as usize, value, point);
            }
        }
        self.bump_mutation_epoch(li);
        Ok(())
    }

    /// Delete a tuple previously inserted (caller guarantees existence).
    /// Returns `true` when the tuple was also evicted from the leaf's
    /// sample. A delete routed to a leaf that holds no tuple cannot be of
    /// an existing one and is rejected.
    pub fn delete(&mut self, point: &[f64], value: f64) -> Result<bool> {
        let (leaf, li) = self.locate(point, value)?;
        if self.tree.agg(leaf).is_empty() {
            return Err(PassError::InvalidParameter(
                "point",
                format!("leaf {li} holds no tuple to delete"),
            ));
        }
        self.tree.remove_on_path(leaf, value);
        let sample = &mut self.samples[li];
        sample.shrink_population();
        let evicted = if let Some(pos) = sample.find_row(value, point) {
            sample.remove_row(pos);
            true
        } else {
            false
        };
        self.bump_mutation_epoch(li);
        Ok(evicted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pass_common::rng::derive_seed;
    use pass_common::{AggKind, Aggregates, PartitionStrategy, PassSpec, Query, Rect, Synopsis};
    use pass_sampling::SampleArena;
    use pass_table::datasets::{taxi, uniform};
    use pass_table::Table;

    fn build(n: usize, seed: u64) -> (Table, Pass) {
        let t = uniform(n, seed);
        let pass = Pass::from_spec(
            &t,
            &PassSpec {
                partitions: 8,
                sample_rate: 0.05,
                seed,
                ..PassSpec::default()
            },
        )
        .unwrap();
        (t, pass)
    }

    #[test]
    fn insert_updates_root_aggregates_exactly() {
        let (_, mut pass) = build(2_000, 1);
        let before = *pass.tree().agg(pass.tree().root());
        pass.insert(&[0.5], 42.0).unwrap();
        let after = *pass.tree().agg(pass.tree().root());
        assert_eq!(after.count, before.count + 1);
        assert!((after.sum - before.sum - 42.0).abs() < 1e-9);
    }

    #[test]
    fn insert_then_exact_query_sees_new_tuple() {
        let (t, mut pass) = build(2_000, 2);
        // Insert far outside the key range, then query the whole space:
        // the root is covered, so the answer is exact.
        pass.insert(&[5.0], 1_000.0).unwrap();
        let q = Query::interval(AggKind::Sum, -1.0, 10.0);
        let est = pass.estimate(&q).unwrap();
        let truth = t.ground_truth(&q).unwrap() + 1_000.0;
        assert!(est.exact);
        assert!((est.value - truth).abs() < 1e-6);
    }

    #[test]
    fn many_inserts_keep_counts_consistent() {
        let (_, mut pass) = build(1_000, 3);
        for i in 0..500 {
            pass.insert(&[(i % 100) as f64 / 100.0], i as f64).unwrap();
        }
        let root = *pass.tree().agg(pass.tree().root());
        assert_eq!(root.count, 1_500);
        // Leaf counts sum to the root count.
        let leaf_total: u64 = pass
            .tree()
            .leaves()
            .into_iter()
            .map(|id| pass.tree().agg(id).count)
            .sum();
        assert_eq!(leaf_total, 1_500);
        // Sample populations track leaf counts.
        for (li, id) in pass.tree().leaves().into_iter().enumerate() {
            assert_eq!(
                pass.leaf_samples()[li].population(),
                pass.tree().agg(id).count
            );
        }
    }

    #[test]
    fn delete_reverses_insert_for_sum_count() {
        let (_, mut pass) = build(2_000, 4);
        let before = *pass.tree().agg(pass.tree().root());
        pass.insert(&[0.25], 77.0).unwrap();
        pass.delete(&[0.25], 77.0).unwrap();
        let after = *pass.tree().agg(pass.tree().root());
        assert_eq!(after.count, before.count);
        assert!((after.sum - before.sum).abs() < 1e-9);
    }

    #[test]
    fn deleting_sampled_tuple_removes_it_from_sample() {
        let (_, mut pass) = build(500, 5);
        // Insert enough copies of a distinctive tuple that at least one
        // lands in a reservoir.
        let mut inserted = 0;
        for _ in 0..200 {
            pass.insert(&[0.111], 9_999.0).unwrap();
            inserted += 1;
        }
        let mut evicted = 0;
        for _ in 0..inserted {
            if pass.delete(&[0.111], 9_999.0).unwrap() {
                evicted += 1;
            }
        }
        assert!(evicted > 0, "some sampled copies should be evicted");
        // No sampled row with the sentinel value survives.
        for s in pass.leaf_samples() {
            for i in 0..s.k() {
                assert_ne!(s.rows().value(i), 9_999.0);
            }
        }
    }

    #[test]
    fn estimates_stay_reasonable_after_update_burst() {
        let (t, mut pass) = build(5_000, 6);
        for i in 0..1_000 {
            pass.insert(&[(i as f64) / 1_000.0], 50.0).unwrap();
        }
        let q = Query::interval(AggKind::Sum, 0.0, 1.0);
        let est = pass.estimate(&q).unwrap();
        let truth = t.ground_truth(&q).unwrap() + 1_000.0 * 50.0;
        let rel = (est.value - truth).abs() / truth;
        assert!(rel < 0.05, "rel {rel}");
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let (_, mut pass) = build(100, 7);
        assert!(pass.insert(&[0.5, 0.5], 1.0).is_err());
        // A rejected update must not bump the epoch: nothing changed.
        assert_eq!(pass.update_epoch(), 0);
    }

    #[test]
    fn updates_advance_the_epoch() {
        let (_, mut pass) = build(500, 8);
        assert_eq!(pass.update_epoch(), 0);
        pass.insert(&[0.5], 1.0).unwrap();
        assert_eq!(pass.update_epoch(), 1);
        pass.delete(&[0.5], 1.0).unwrap();
        assert_eq!(pass.update_epoch(), 2);
        assert_eq!(pass.mutation_epoch(), 2);
    }

    #[test]
    fn cached_answers_stay_coherent_across_streaming_updates() {
        use pass_common::CachedSynopsis;
        let (t, pass) = build(2_000, 9);
        let mut cached = CachedSynopsis::new(pass, 64);
        let q = Query::interval(AggKind::Sum, -1.0, 10.0);
        let before = cached.estimate(&q).unwrap();
        assert!((before.value - t.ground_truth(&q).unwrap()).abs() < 1e-6);
        cached.estimate(&q).unwrap();
        assert_eq!(cached.cache().stats().hits, 1, "repeat served from cache");
        // Stream an insert through the decorator: the next answer must
        // reflect it with NO manual clear_cache.
        cached.inner_mut().insert(&[0.5], 500.0).unwrap();
        let after = cached.estimate(&q).unwrap();
        assert!((after.value - before.value - 500.0).abs() < 1e-6);
        // ...and the fresh answer is cacheable under the new epoch.
        cached.estimate(&q).unwrap();
        assert_eq!(cached.cache().stats().hits, 2);
        assert_eq!(cached.cache().epoch(), 1);
    }
    #[test]
    fn a_delete_routed_to_an_emptied_leaf_is_rejected_untouched() {
        // 16 rows, 8 leaves of 2: leaf 0 holds keys 0 and 1.
        let keys: Vec<f64> = (0..16).map(f64::from).collect();
        let values: Vec<f64> = (1..=16).map(f64::from).collect();
        let table = Table::one_dim(keys, values).unwrap();
        let mut pass = Pass::from_spec(
            &table,
            &PassSpec {
                partitions: 8,
                sample_rate: 0.5,
                strategy: PartitionStrategy::EqualDepth,
                ..PassSpec::default()
            },
        )
        .unwrap();
        pass.delete(&[0.0], 1.0).unwrap();
        pass.delete(&[1.0], 2.0).unwrap();
        let leaf = pass.tree.leaves()[0];
        assert!(pass.tree.agg(leaf).is_empty() && pass.tree.has_empty_nodes());
        // Inside leaf 0's box, which holds nothing any more. Without the
        // check a release build wraps the count to 2^64 − 1 (a debug build
        // panics) and COUNT [0, 1] answers 1.8e19, `exact`.
        let before = pass.clone();
        let err = pass.delete(&[0.5], 1.0).unwrap_err();
        assert!(matches!(err, PassError::InvalidParameter("point", _)));
        assert_eq!(pass.tree.agg(leaf).count, 0);
        assert_eq!(pass.samples[0].population(), 0);
        assert_eq!(pass.update_epoch(), 2);
        for agg in AggKind::ALL {
            for (lo, hi) in [(0.0, 1.0), (-1.0, 20.0), (0.5, 7.5)] {
                let q = Query::interval(agg, lo, hi);
                assert_eq!(pass.estimate(&q), before.estimate(&q), "{agg} [{lo},{hi}]");
            }
        }
        let count = pass.estimate(&Query::interval(AggKind::Count, 0.0, 1.0));
        assert_eq!(count.unwrap().value, 0.0);
    }

    #[test]
    fn non_finite_updates_are_rejected_untouched() {
        let (_, mut pass) = build(500, 10);
        pass.insert(&[0.5], 1.0).unwrap();
        let whole = Query::interval(AggKind::Sum, -1.0, 10.0);
        let before = pass.estimate(&whole).unwrap();
        for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for err in [
                pass.insert(&[3.0], value).unwrap_err(),
                pass.delete(&[0.5], value).unwrap_err(),
            ] {
                assert!(matches!(err, PassError::InvalidParameter("value", _)));
            }
        }
        for err in [
            pass.insert(&[f64::NAN], 1.0).unwrap_err(),
            pass.delete(&[f64::NAN], 1.0).unwrap_err(),
        ] {
            assert!(matches!(err, PassError::InvalidParameter("point", _)));
        }
        assert_eq!(pass.update_epoch(), 1);
        assert_eq!(pass.estimate(&whole).unwrap(), before);
        assert!(before.value.is_finite());
    }

    #[test]
    fn infinite_coordinates_widen_to_an_unbounded_box() {
        let (_, mut pass) = build(500, 11);
        let count = |pass: &Pass, lo, hi| {
            let est = pass.estimate(&Query::interval(AggKind::Count, lo, hi));
            est.unwrap()
        };
        pass.insert(&[f64::INFINITY], 7.0).unwrap();
        pass.insert(&[f64::NEG_INFINITY], 8.0).unwrap();
        let root = pass.tree.root();
        assert_eq!(
            (pass.tree.rect_lo(root, 0), pass.tree.rect_hi(root, 0)),
            (f64::NEG_INFINITY, f64::INFINITY)
        );
        let everything = count(&pass, f64::NEG_INFINITY, f64::INFINITY);
        assert!(everything.exact);
        assert_eq!(everything.value, 502.0);
        let (lb, ub) = count(&pass, -1.0, 2.0).hard_bounds.unwrap();
        assert!(lb <= 500.0 && 500.0 <= ub, "500 ∉ [{lb},{ub}]");
        pass.delete(&[f64::INFINITY], 7.0).unwrap();
        assert_eq!(count(&pass, f64::NEG_INFINITY, f64::INFINITY).value, 501.0);
    }

    /// A deterministic unit-interval stream (SplitMix over a counter).
    fn unit(seed: u64, i: &mut u64) -> f64 {
        *i += 1;
        (derive_seed(seed, *i) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// What the tree search found, what the scan over every leaf finds,
    /// and how many leaf boxes hold the point.
    fn probe(pass: &Pass, point: &[f64]) -> usize {
        let tree = &pass.tree;
        let found = tree.locate_leaf(point);
        assert_eq!(
            found.map(|(id, _)| id),
            tree.locate_leaf_linear(point),
            "{point:?}"
        );
        let (id, li) = found.expect("the tree has leaves");
        assert_eq!(tree.leaf_index(id), Some(li));
        let leaves = tree.leaves();
        leaves
            .iter()
            .filter(|&&leaf| tree.contains_point(leaf, point))
            .count()
    }

    /// Equivalence (a): the branch-and-bound search picks the leaf the
    /// linear scan picks. `rounds` rounds of: a point in the data's box, a
    /// point drawn from a box twice as wide (both then inserted, so leaf
    /// boxes widen and come to overlap), one corner of a leaf's current
    /// box — a boundary it may share — and a point at `±inf` in one
    /// dimension. Returns how many probes lay in (no, more than one) leaf
    /// box.
    fn assert_search_matches_scan(pass: &mut Pass, bounds: &Rect, rounds: usize) -> (usize, usize) {
        let dims = bounds.dims();
        let seed = 0xA11;
        let mut i = 0;
        let (mut outside, mut shared) = (0, 0);
        let mut tally = |holders: usize| {
            outside += usize::from(holders == 0);
            shared += usize::from(holders > 1);
        };
        for round in 0..rounds {
            for stretch in [1.0, 1.3] {
                let point: Vec<f64> = (0..dims)
                    .map(|d| {
                        let width = bounds.hi(d) - bounds.lo(d);
                        let u = unit(seed, &mut i);
                        bounds.lo(d) + (stretch * u - (stretch - 1.0) / 2.0) * width
                    })
                    .collect();
                tally(probe(pass, &point));
                pass.insert(&point, unit(seed, &mut i)).unwrap();
                tally(probe(pass, &point));
            }
            let leaves = pass.tree.leaves();
            let leaf = leaves[(unit(seed, &mut i) * leaves.len() as f64) as usize];
            let mut corner: Vec<f64> = (0..dims)
                .map(|d| match unit(seed, &mut i) < 0.5 {
                    true => pass.tree.rect_lo(leaf, d),
                    false => pass.tree.rect_hi(leaf, d),
                })
                .collect();
            tally(probe(pass, &corner));
            corner[round % dims] = match round % 2 {
                0 => f64::INFINITY,
                _ => f64::NEG_INFINITY,
            };
            tally(probe(pass, &corner));
        }
        for far in [f64::INFINITY, f64::NEG_INFINITY] {
            tally(probe(pass, &vec![far; dims]));
        }
        (outside, shared)
    }

    #[test]
    fn tree_search_picks_the_linear_scans_leaf_in_one_dimension() {
        let table = uniform(4_000, 21);
        let mut pass = Pass::from_spec(&table, &PassSpec::default()).unwrap();
        let (outside, _) = assert_search_matches_scan(&mut pass, &Rect::interval(0.0, 1.0), 400);
        assert!(outside > 400, "gaps and points beyond the root: {outside}");

        // Equal keys on both sides of a partition boundary: neighbouring
        // leaves share the boundary point.
        let keys: Vec<f64> = (0..200).map(|i| f64::from(i / 4)).collect();
        let values: Vec<f64> = (0..200).map(f64::from).collect();
        let mut pass = Pass::from_spec(
            &Table::one_dim(keys, values).unwrap(),
            &PassSpec {
                partitions: 16,
                sample_rate: 0.1,
                strategy: PartitionStrategy::EqualDepth,
                ..PassSpec::default()
            },
        )
        .unwrap();
        let (_, shared) = assert_search_matches_scan(&mut pass, &Rect::interval(0.0, 49.0), 200);
        assert!(shared > 20, "boundary probes inside two leaves: {shared}");
    }

    #[test]
    fn tree_search_picks_the_linear_scans_leaf_in_kd_and_lifted_trees() {
        let spec = PassSpec {
            partitions: 64,
            sample_rate: 0.02,
            seed: 22,
            ..PassSpec::default()
        };
        let table = taxi(6_000, 22).project(&[1, 2, 3]).unwrap();
        let bounds = table.bounding_rect().unwrap();
        let mut pass = Pass::from_spec(&table, &spec).unwrap();
        let (outside, shared) = assert_search_matches_scan(&mut pass, &bounds, 500);
        // Widened k-d boxes overlap, and leaf indices follow node ids, not
        // the search's visiting order: the tie rule decides these.
        assert!(outside > 100 && shared > 100, "{outside} {shared}");

        // A tree over two of four dimensions, lifted: unbounded elsewhere.
        let table = taxi(4_000, 23).project(&[0, 1, 2, 3]).unwrap();
        let bounds = table.bounding_rect().unwrap();
        let spec = PassSpec {
            tree_dims: Some(vec![3, 1]),
            ..spec
        };
        let mut pass = Pass::from_spec(&table, &spec).unwrap();
        let (outside, shared) = assert_search_matches_scan(&mut pass, &bounds, 500);
        assert!(outside > 100 && shared > 100, "{outside} {shared}");
    }

    /// Equivalence (b): the patched arena is view-for-view the bytes a
    /// rebuild over the samples gives, the path-maintained flag is what
    /// the rescan computes, and answers do not depend on which of the two
    /// produced the derived state.
    fn assert_derived_state_matches_a_rebuild(pass: &Pass, queries: &[Query], op: usize) {
        let rebuilt = SampleArena::from_samples(&pass.samples);
        assert_eq!(pass.arena.len(), rebuilt.len());
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        for i in 0..rebuilt.len() {
            let (got, want) = (pass.arena.view(i), rebuilt.view(i));
            assert_eq!(bits(got.values), bits(want.values), "op {op} stratum {i}");
            assert_eq!(bits(got.preds), bits(want.preds), "op {op} stratum {i}");
            assert_eq!(
                (got.dims, got.population, got.sorted_1d),
                (want.dims, want.population, want.sorted_1d),
                "op {op} stratum {i}"
            );
        }
        let any_empty = pass.tree.aggs.iter().any(Aggregates::is_empty);
        assert_eq!(pass.tree.has_empty_nodes(), any_empty, "op {op}");
        let mut fresh = pass.clone();
        fresh.arena = rebuilt;
        fresh.tree.has_empty = any_empty;
        for q in queries {
            assert_eq!(pass.estimate(q), fresh.estimate(q), "op {op} {q:?}");
        }
    }

    fn fixed_queries() -> Vec<Query> {
        let spans = [
            (-1.0, 2.0),
            (0.0, 0.5),
            (0.13, 0.77),
            (0.4, 0.45),
            (0.9, 1.0),
        ];
        AggKind::ALL
            .into_iter()
            .flat_map(|agg| spans.map(|(lo, hi)| Query::interval(agg, lo, hi)))
            .collect()
    }

    #[test]
    fn derived_state_matches_a_rebuild_after_every_op_at_serving_size() {
        let table = uniform(20_000, 31);
        let spec = PassSpec {
            partitions: 256,
            seed: 31,
            ..PassSpec::default()
        };
        let mut pass = Pass::from_spec(&table, &spec).unwrap();
        let queries = fixed_queries();
        let mut live: Vec<(f64, f64)> = (0..table.n_rows())
            .map(|r| (table.predicate(0, r), table.value(r)))
            .collect();
        let (mut i, mut evictions) = (0, 0);
        for op in 0..1_500 {
            if op % 5 < 3 {
                let row = (1.2 * unit(31, &mut i) - 0.1, 100.0 * unit(31, &mut i));
                pass.insert(&[row.0], row.1).unwrap();
                live.push(row);
            } else {
                let (key, value) =
                    live.swap_remove((unit(31, &mut i) * live.len() as f64) as usize);
                evictions += usize::from(pass.delete(&[key], value).unwrap());
            }
            assert_derived_state_matches_a_rebuild(&pass, &queries, op);
        }
        assert!(evictions > 0, "no delete reached a sampled row");
    }

    #[test]
    fn derived_state_matches_a_rebuild_while_leaves_empty_and_refill() {
        let table = uniform(40, 32);
        let spec = PassSpec {
            partitions: 8,
            sample_rate: 0.5,
            strategy: PartitionStrategy::EqualDepth,
            seed: 32,
            ..PassSpec::default()
        };
        let mut pass = Pass::from_spec(&table, &spec).unwrap();
        let queries = fixed_queries();
        let mut live: Vec<(f64, f64)> = (0..table.n_rows())
            .map(|r| (table.predicate(0, r), table.value(r)))
            .collect();
        let (mut i, mut op) = (0, 0);
        let (mut evictions, mut emptied, mut refilled) = (0, 0, 0);
        // Drain to nothing and grow back, three times over, with a random
        // walk in between.
        for phase in 0..9 {
            for _ in 0..120 {
                let insert = match phase % 3 {
                    0 => unit(32, &mut i) < 0.5,
                    1 => false,
                    _ => true,
                };
                let had_empty = pass.tree.has_empty_nodes();
                if insert {
                    let row = (unit(32, &mut i), 100.0 * unit(32, &mut i));
                    pass.insert(&[row.0], row.1).unwrap();
                    live.push(row);
                    refilled += usize::from(had_empty && !pass.tree.has_empty_nodes());
                } else if !live.is_empty() {
                    let pick = (unit(32, &mut i) * live.len() as f64) as usize;
                    let (key, value) = live.swap_remove(pick);
                    evictions += usize::from(pass.delete(&[key], value).unwrap());
                    emptied += usize::from(!had_empty && pass.tree.has_empty_nodes());
                }
                assert_derived_state_matches_a_rebuild(&pass, &queries, op);
                op += 1;
            }
        }
        assert!(
            evictions > 20 && emptied >= 3 && refilled >= 3,
            "{evictions} evictions, emptied {emptied}×, refilled {refilled}×"
        );
    }
}

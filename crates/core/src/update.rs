//! Dynamic updates (Section 4.5).
//!
//! Inserts and deletes keep the tree statistically consistent for COUNT,
//! SUM, and AVG: per-leaf samples are maintained with reservoir sampling,
//! and every aggregate on the leaf-to-root path updates in O(1), giving
//! O(log k) per update for 1-D trees.
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

use pass_common::{PassError, Result};

use crate::query::stratum_of;
use crate::synopsis::Pass;
use crate::tree::NodeId;

impl Pass {
    /// Locate the leaf whose rectangle contains the point, or — for points
    /// in the gaps between tight bounding boxes — the leaf nearest in the
    /// first dimension.
    #[allow(clippy::needless_range_loop)] // dual-array access is clearer indexed
    fn locate_leaf(&self, point: &[f64]) -> Result<NodeId> {
        if point.len() != self.tree.dims() {
            return Err(PassError::DimensionMismatch {
                expected: self.tree.dims(),
                got: point.len(),
            });
        }
        let leaves = self.tree.leaves();
        let mut best: Option<(NodeId, f64)> = None;
        for id in leaves {
            if self.tree.contains_point(id, point) {
                return Ok(id);
            }
            // Distance in the first dimension (1-D gap case) plus other
            // dims, as a cheap nearest-leaf heuristic.
            let mut dist = 0.0;
            for d in 0..point.len() {
                let lo = self.tree.rect_lo(id, d);
                let hi = self.tree.rect_hi(id, d);
                let p = point[d];
                if p < lo {
                    dist += lo - p;
                } else if p > hi {
                    dist += p - hi;
                }
            }
            if best.is_none_or(|(_, b)| dist < b) {
                best = Some((id, dist));
            }
        }
        best.map(|(id, _)| id)
            .ok_or(PassError::EmptyInput("tree has no leaves"))
    }

    /// Insert a tuple. Updates the leaf-to-root aggregates exactly and
    /// offers the tuple to the leaf's reservoir.
    pub fn insert(&mut self, point: &[f64], value: f64) -> Result<()> {
        let leaf = self.locate_leaf(point)?;
        // Resolved before anything is mutated.
        let li = stratum_of(&self.tree, leaf)?;
        // Widen rectangles so future MCF classifications still see the
        // point, then update aggregates on the path to the root.
        let mut cursor = Some(leaf);
        while let Some(id) = cursor {
            if !self.tree.contains_point(id, point) {
                let mut bounds: Vec<(f64, f64)> = (0..point.len())
                    .map(|d| {
                        (
                            self.tree.rect_lo(id, d).min(point[d]),
                            self.tree.rect_hi(id, d).max(point[d]),
                        )
                    })
                    .collect();
                // Guard against inf-only rects on empty nodes.
                for b in bounds.iter_mut() {
                    if b.0 > b.1 {
                        *b = (point[0], point[0]);
                    }
                }
                self.tree.set_rect(id, &pass_common::Rect::new(&bounds));
            }
            self.tree.agg_mut(id).insert(value);
            cursor = self.tree.parent(id);
        }

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
        self.bump_mutation_epoch();
        Ok(())
    }

    /// Delete a tuple previously inserted (caller guarantees existence).
    /// Returns `true` when the tuple was also evicted from the leaf's
    /// sample.
    pub fn delete(&mut self, point: &[f64], value: f64) -> Result<bool> {
        let leaf = self.locate_leaf(point)?;
        // Resolved before anything is mutated.
        let li = stratum_of(&self.tree, leaf)?;
        let mut cursor = Some(leaf);
        while let Some(id) = cursor {
            if self.tree.agg_mut(id).remove(value) {
                self.tree.mark_loose_extrema(id);
            }
            cursor = self.tree.parent(id);
        }
        let sample = &mut self.samples[li];
        sample.shrink_population();
        let evicted = if let Some(pos) = sample.find_row(value, point) {
            sample.swap_remove_row(pos);
            true
        } else {
            false
        };
        self.bump_mutation_epoch();
        Ok(evicted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pass_common::{AggKind, PassSpec, Query, Synopsis};
    use pass_table::datasets::uniform;
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
}

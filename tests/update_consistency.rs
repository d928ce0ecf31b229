//! Property tests for dynamic updates (Section 4.5): arbitrary interleaved
//! insert/delete sequences keep the synopsis statistically consistent —
//! node aggregates stay exact for SUM/COUNT/AVG, MIN/MAX bounds stay
//! conservative, and whole-space queries stay exact.

use proptest::prelude::*;

use pass::common::rng::derive_seed;
use pass::common::snapshot::SnapshotReader;
use pass::common::{
    AggKind, EngineSpec, PartitionStrategy, PassError, PassSpec, Query, Rect, Synopsis,
};
use pass::core::snapshot::load_pass;
use pass::core::Pass;
use pass::sampling::{estimator, PointVariance, Sample, SampleArena, ScanScratch};
use pass::table::datasets::{taxi, uniform};
use pass::table::Table;
use pass::Engine;

#[derive(Debug, Clone)]
enum Op {
    Insert { key: f64, value: f64 },
    DeleteEarlierInsert(usize),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            3 => ((0.0f64..1.0), (0.0f64..100.0))
                .prop_map(|(key, value)| Op::Insert { key, value }),
            1 => (0usize..64).prop_map(Op::DeleteEarlierInsert),
        ],
        1..80,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn update_sequences_keep_synopsis_consistent(ops in ops(), seed in 0u64..1000) {
        // Base data.
        let n = 500;
        let keys: Vec<f64> = (0..n).map(|i| i as f64 / n as f64).collect();
        let values: Vec<f64> = (0..n).map(|i| ((i * 31) % 97) as f64).collect();
        let table = Table::one_dim(keys.clone(), values.clone()).unwrap();
        let mut pass = Pass::from_spec(
            &table,
            &PassSpec {
                partitions: 8,
                sample_rate: 0.1,
                seed,
                ..PassSpec::default()
            },
        )
        .unwrap();

        // Mirror of live tuples for ground truth.
        let mut mirror: Vec<(f64, f64)> = keys.into_iter().zip(values).collect();
        let mut inserted: Vec<(f64, f64)> = Vec::new();

        for op in &ops {
            match op {
                Op::Insert { key, value } => {
                    pass.insert(&[*key], *value).unwrap();
                    mirror.push((*key, *value));
                    inserted.push((*key, *value));
                }
                Op::DeleteEarlierInsert(idx) => {
                    if inserted.is_empty() {
                        continue;
                    }
                    let (key, value) = inserted.swap_remove(idx % inserted.len());
                    pass.delete(&[key], value).unwrap();
                    let pos = mirror
                        .iter()
                        .position(|&(k, v)| k == key && v == value)
                        .expect("mirror has the tuple");
                    mirror.swap_remove(pos);
                }
            }
        }

        // Whole-space queries are answered exactly from the root.
        let truth_count = mirror.len() as f64;
        let truth_sum: f64 = mirror.iter().map(|&(_, v)| v).sum();
        let whole = |agg| Query::interval(agg, -1.0, 2.0);
        let count = pass.estimate(&whole(AggKind::Count)).unwrap();
        prop_assert!(count.exact);
        prop_assert!((count.value - truth_count).abs() < 1e-9);
        let sum = pass.estimate(&whole(AggKind::Sum)).unwrap();
        prop_assert!((sum.value - truth_sum).abs() < 1e-6 * truth_sum.abs().max(1.0));

        // Root MIN/MAX stay conservative: they bracket the live extrema.
        let root = *pass.tree().agg(pass.tree().root());
        if !mirror.is_empty() {
            let live_min = mirror.iter().map(|&(_, v)| v).fold(f64::INFINITY, f64::min);
            let live_max = mirror.iter().map(|&(_, v)| v).fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(root.min <= live_min + 1e-12);
            prop_assert!(root.max >= live_max - 1e-12);
        }

        // Leaf counts still sum to the root count, and sample populations
        // track leaf counts.
        let leaf_total: u64 = pass
            .tree()
            .leaves()
            .into_iter()
            .map(|id| pass.tree().agg(id).count)
            .sum();
        prop_assert_eq!(leaf_total, root.count);
        for (li, id) in pass.tree().leaves().into_iter().enumerate() {
            prop_assert_eq!(
                pass.leaf_samples()[li].population(),
                pass.tree().agg(id).count
            );
        }
    }
}

/// Truth of `agg` over the shadow rows inside `rect` (`None` for
/// AVG/MIN/MAX of an empty selection).
fn shadow_truth(shadow: &[(Vec<f64>, f64)], agg: AggKind, rect: &Rect) -> Option<f64> {
    let matched: Vec<f64> = shadow
        .iter()
        .filter(|(p, _)| rect.contains_point(p))
        .map(|&(_, v)| v)
        .collect();
    match agg {
        AggKind::Count => Some(matched.len() as f64),
        AggKind::Sum => Some(matched.iter().sum()),
        _ if matched.is_empty() => None,
        AggKind::Avg => Some(matched.iter().sum::<f64>() / matched.len() as f64),
        AggKind::Min => Some(matched.iter().copied().fold(f64::INFINITY, f64::min)),
        AggKind::Max => Some(matched.iter().copied().fold(f64::NEG_INFINITY, f64::max)),
    }
}

fn shadow_of(table: &Table) -> Vec<(Vec<f64>, f64)> {
    (0..table.n_rows())
        .map(|i| (table.point(i), table.value(i)))
        .collect()
}

/// A deterministic unit-interval stream (SplitMix over a counter).
fn unit(seed: u64, i: &mut u64) -> f64 {
    *i += 1;
    (derive_seed(seed, *i) >> 11) as f64 / (1u64 << 53) as f64
}

fn assert_leaves_track_samples(pass: &Pass, rows: usize) {
    let tree = pass.tree();
    assert_eq!(tree.agg(tree.root()).count, rows as u64);
    let mut leaf_total = 0;
    for (li, id) in tree.leaves().into_iter().enumerate() {
        assert_eq!(pass.leaf_samples()[li].population(), tree.agg(id).count);
        leaf_total += tree.agg(id).count;
    }
    assert_eq!(leaf_total, rows as u64);
}

/// A workload-shift PASS (tree over two of six taxi dimensions) updates
/// in the table's arity like any other synopsis; before the tree was
/// lifted at build time a 6-D insert was a `DimensionMismatch` and a 2-D
/// one a panic.
#[test]
fn workload_shift_pass_absorbs_full_arity_updates() {
    let table = taxi(4_000, 31);
    let mut pass = Pass::from_spec(
        &table,
        &PassSpec {
            partitions: 16,
            sample_rate: 0.05,
            seed: 3,
            tree_dims: Some(vec![0, 1]),
            ..PassSpec::default()
        },
    )
    .unwrap();
    assert_eq!(pass.dims(), 6);
    let bounds = table.bounding_rect().unwrap();
    let mut shadow = shadow_of(&table);

    let mut i = 0;
    let mut ops = 0;
    for step in 0..400 {
        if step % 4 == 3 {
            // Delete a live tuple (base rows and earlier inserts alike).
            let (point, value) =
                shadow.swap_remove((unit(9, &mut i) * shadow.len() as f64) as usize);
            pass.delete(&point, value).unwrap();
        } else {
            // Insert inside the data's box, or (every tenth) beyond it.
            let stretch = if step % 10 == 0 { 1.5 } else { 1.0 };
            let point: Vec<f64> = (0..6)
                .map(|d| bounds.lo(d) + stretch * unit(9, &mut i) * (bounds.hi(d) - bounds.lo(d)))
                .collect();
            let value = 40.0 * unit(9, &mut i);
            pass.insert(&point, value).unwrap();
            shadow.push((point, value));
        }
        ops += 1;
    }
    assert_eq!(pass.update_epoch(), ops);
    assert_leaves_track_samples(&pass, shadow.len());

    let whole = Rect::whole(6);
    let count = pass
        .estimate(&Query::new(AggKind::Count, whole.clone()))
        .unwrap();
    assert!(count.exact);
    assert_eq!(count.value, shadow.len() as f64);
    let sum = pass
        .estimate(&Query::new(AggKind::Sum, whole.clone()))
        .unwrap();
    let truth = shadow_truth(&shadow, AggKind::Sum, &whole).unwrap();
    assert!((sum.value - truth).abs() <= 1e-9 * truth.abs());
    // Constraining an unindexed dimension still brackets the truth.
    let mid = (bounds.lo(4) + bounds.hi(4)) / 2.0;
    let rect = whole.narrowed(4, f64::NEG_INFINITY, mid);
    for agg in [AggKind::Count, AggKind::Sum] {
        let est = pass.estimate(&Query::new(agg, rect.clone())).unwrap();
        let truth = shadow_truth(&shadow, agg, &rect).unwrap();
        let (lb, ub) = est.hard_bounds.unwrap();
        assert!(
            lb - 1e-6 <= truth && truth <= ub + 1e-6,
            "{agg}: {truth} ∉ [{lb},{ub}]"
        );
    }

    // Wrong arities — the tree's own included — are typed errors that
    // change nothing.
    for arity in [1, 2, 5, 7] {
        let mismatch = PassError::DimensionMismatch {
            expected: 6,
            got: arity,
        };
        assert_eq!(pass.insert(&vec![0.5; arity], 1.0), Err(mismatch.clone()));
        assert_eq!(pass.delete(&vec![0.5; arity], 1.0), Err(mismatch));
    }
    assert_eq!(pass.update_epoch(), ops);
}

/// Deleting the value a node's stored MIN (MAX) came from leaves that
/// extremum stale. It stays a valid bound on its own side, but it is no
/// longer the answer — at the parent of this test MIN over everything
/// answered `-1000`, `exact`, with hard bounds `(-1000, -1000)`.
#[test]
fn minmax_never_claim_exactness_on_a_stale_extremum() {
    let table = uniform(2_000, 16);
    let shadow = shadow_of(&table);
    let spec = PassSpec {
        partitions: 8,
        sample_rate: 0.05,
        seed: 16,
        ..PassSpec::default()
    };
    let whole = Rect::interval(-1.0, 2.0);
    for (agg, outlier) in [(AggKind::Min, -1_000.0), (AggKind::Max, 1_000.0)] {
        let mut pass = Pass::from_spec(&table, &spec).unwrap();
        let q = Query::new(agg, whole.clone());
        let truth = shadow_truth(&shadow, agg, &whole).unwrap();
        let before = pass.estimate(&q).unwrap();
        assert!(before.exact);
        assert_eq!(before.value, truth);

        pass.insert(&[0.5], outlier).unwrap();
        let with_outlier = pass.estimate(&q).unwrap();
        assert!(with_outlier.exact, "an inserted extremum is attained");
        assert_eq!(with_outlier.value, outlier);

        pass.delete(&[0.5], outlier).unwrap();
        let after = pass.estimate(&q).unwrap();
        assert!(!after.exact, "{agg}: the stored extremum is stale");
        let (lb, ub) = after.hard_bounds.unwrap();
        assert!(lb <= truth && truth <= ub, "{agg}: {truth} ∉ [{lb},{ub}]");
        // A covered leaf the outlier never visited still answers exactly.
        let last = *pass.tree().leaves().last().unwrap();
        let apart = Rect::interval(pass.tree().rect_lo(last, 0), 2.0);
        assert!(pass.estimate(&Query::new(agg, apart)).unwrap().exact);

        // The looseness is part of the state: it survives a snapshot.
        let mut bytes = Vec::new();
        pass.save(&mut bytes).unwrap();
        let loaded = Engine::load(&bytes).unwrap();
        assert_eq!(loaded.estimate(&q).unwrap(), after);
    }
}

/// Hard bounds are a guarantee, so they must hold after any update
/// stream — deletions of current extrema included — for every aggregate.
#[test]
fn hard_bounds_contain_the_truth_after_an_update_stream() {
    for seed in [16u64, 17, 18] {
        let table = uniform(1_500, seed);
        let mut shadow = shadow_of(&table);
        let mut pass = Pass::from_spec(
            &table,
            &PassSpec {
                partitions: 8,
                sample_rate: 0.05,
                seed,
                ..PassSpec::default()
            },
        )
        .unwrap();
        let mut i = 0;
        for step in 0..600 {
            match step % 3 {
                0 => {
                    let point = vec![unit(seed, &mut i)];
                    let value = 200.0 * unit(seed, &mut i) - 50.0;
                    pass.insert(&point, value).unwrap();
                    shadow.push((point, value));
                }
                // Delete a random live tuple…
                1 => {
                    let (point, value) =
                        shadow.swap_remove((unit(seed, &mut i) * shadow.len() as f64) as usize);
                    pass.delete(&point, value).unwrap();
                }
                // …or the current global minimum / maximum.
                _ => {
                    let by_value = |a: &&(Vec<f64>, f64), b: &&(Vec<f64>, f64)| a.1.total_cmp(&b.1);
                    let target = if step % 2 == 0 {
                        shadow.iter().min_by(by_value)
                    } else {
                        shadow.iter().max_by(by_value)
                    };
                    let pos = shadow.iter().position(|row| Some(row) == target).unwrap();
                    let (point, value) = shadow.swap_remove(pos);
                    pass.delete(&point, value).unwrap();
                }
            }
        }
        assert_leaves_track_samples(&pass, shadow.len());
        for agg in AggKind::ALL {
            for (lo, hi) in [
                (-1.0, 2.0),
                (0.0, 0.5),
                (0.13, 0.77),
                (0.4, 0.45),
                (0.9, 1.0),
            ] {
                let rect = Rect::interval(lo, hi);
                let (Ok(est), Some(truth)) = (
                    pass.estimate(&Query::new(agg, rect.clone())),
                    shadow_truth(&shadow, agg, &rect),
                ) else {
                    continue;
                };
                let (lb, ub) = est.hard_bounds.expect("non-empty selection has bounds");
                let slack = 1e-9 * truth.abs().max(1.0);
                assert!(
                    lb - slack <= truth && truth <= ub + slack,
                    "seed {seed} {agg} [{lo},{hi}]: {truth} ∉ [{lb},{ub}]"
                );
                if est.exact {
                    assert!(
                        (est.value - truth).abs() <= slack,
                        "seed {seed} {agg} [{lo},{hi}]"
                    );
                }
            }
        }
    }
}

/// `pass` saved, loaded back as a `Pass` and saved again: the bytes and
/// every stratum's sorted flag survive the trip.
fn reload(pass: &Pass) -> Pass {
    let mut bytes = Vec::new();
    pass.save(&mut bytes).unwrap();
    let (spec, mut reader) = SnapshotReader::open(&bytes).unwrap();
    let EngineSpec::Pass(spec) = spec else {
        panic!("a PASS snapshot names another engine: {spec:?}");
    };
    let loaded = load_pass(&spec, &mut reader).unwrap();
    reader.finish().unwrap();
    let mut resaved = Vec::new();
    loaded.save(&mut resaved).unwrap();
    assert!(resaved == bytes, "save → load → save moved bytes");
    let flags = |p: &Pass| {
        p.leaf_samples()
            .iter()
            .map(Sample::sorted_1d)
            .collect::<Vec<_>>()
    };
    assert_eq!(flags(&loaded), flags(pass));
    loaded
}

fn point_bits(point: Option<PointVariance>) -> Option<(u64, u64, u64)> {
    point.map(|p| (p.value.to_bits(), p.variance.to_bits(), p.k_pred))
}

/// Every stratum of a maintained 1-D `pass` is still sorted, with a
/// non-decreasing key column; the patched arena is, view for view, what a
/// rebuild over the samples gives; and each stratum answers every probe,
/// all five aggregates, with the same bits through the sorted scan, the
/// mask path, the reference estimator and its arena view.
fn assert_strata_stay_sorted_and_agree(pass: &Pass, at: &str) {
    let tree = pass.tree();
    let mut probes = vec![
        Rect::interval(f64::NEG_INFINITY, f64::INFINITY),
        Rect::interval(-1e9, -60.0),
        Rect::interval(123.4, 201.7),
        Rect::interval(7.0, 7.0),
        Rect::interval(2.0, 400.0),
    ];
    for leaf in tree.leaves() {
        let (lo, hi) = (tree.rect_lo(leaf, 0), tree.rect_hi(leaf, 0));
        probes.extend([Rect::interval(lo, hi), Rect::interval(lo, lo)]);
        probes.push(Rect::interval(hi, hi + 3.0));
    }
    let rebuilt = SampleArena::from_samples(pass.leaf_samples());
    let arena = pass.arena();
    assert_eq!(arena.len(), rebuilt.len(), "{at}");
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    let mut scratch = ScanScratch::new();
    for (i, sample) in pass.leaf_samples().iter().enumerate() {
        let keys = sample.rows().predicate_column(0);
        assert!(sample.sorted_1d(), "{at}: stratum {i} lost its sorted flag");
        assert!(
            keys.windows(2).all(|w| w[0] <= w[1]),
            "{at}: stratum {i} out of key order: {keys:?}"
        );
        let (view, want) = (arena.view(i), rebuilt.view(i));
        assert_eq!(
            (
                bits(view.values),
                bits(view.preds),
                view.population,
                view.sorted_1d
            ),
            (
                bits(want.values),
                bits(want.preds),
                want.population,
                want.sorted_1d
            ),
            "{at}: stratum {i}"
        );
        for rect in &probes {
            for agg in AggKind::ALL {
                let sorted = point_bits(scratch.estimate(agg, sample, rect));
                let masked = point_bits(scratch.estimate_unsorted(agg, sample, rect));
                let reference = point_bits(estimator::estimate(agg, sample, rect));
                let viewed = point_bits(scratch.estimate_view(agg, &view, rect));
                assert_eq!(sorted, masked, "{at}: stratum {i} {agg} {rect:?}");
                assert_eq!(sorted, reference, "{at}: stratum {i} {agg} {rect:?}");
                assert_eq!(sorted, viewed, "{at}: stratum {i} {agg} {rect:?}");
            }
        }
    }
}

/// Seeded streams on ADP and equal-depth 1-D trees keep every stratum in
/// key order, on the sorted scan and bit-identical to the mask path and
/// the reference estimator (checked every 250 ops and after each phase).
/// The table holds every key three times, so equal keys straddle cuts;
/// inserts repeat table keys, land on leaf boundaries, at `±inf` and
/// beyond the data; then every live tuple is deleted, draining strata,
/// and the table refills.
#[test]
fn maintained_one_dimensional_strata_stay_sorted_and_agree_with_the_reference() {
    let n = 1_200;
    let keys: Vec<f64> = (0..n).map(|i| f64::from(i / 3)).collect();
    let values: Vec<f64> = (0..n).map(|i| f64::from((i * 37) % 101)).collect();
    let table = Table::one_dim(keys, values).unwrap();
    for strategy in [
        PartitionStrategy::Adp(AggKind::Sum),
        PartitionStrategy::EqualDepth,
    ] {
        let seed = 41;
        let spec = PassSpec {
            partitions: 16,
            sample_rate: 0.08,
            strategy,
            seed,
            ..PassSpec::default()
        };
        let mut pass = Pass::from_spec(&table, &spec).unwrap();
        let mut live: Vec<(f64, f64)> = (0..n as usize)
            .map(|r| (table.predicate(0, r), table.value(r)))
            .collect();
        let (mut i, mut op) = (0, 0);
        let (mut emptied, mut refilled) = (0, 0);
        // Random walk, drain everything (more deletes than live tuples),
        // refill, random walk.
        for (phase, ops) in [(0, 1_000), (1, 2_500), (2, 1_000), (0, 500)] {
            for _ in 0..ops {
                let insert = match phase {
                    0 => unit(seed, &mut i) < 0.6,
                    1 => false,
                    _ => true,
                };
                if insert {
                    let u = unit(seed, &mut i);
                    let key = match op % 6 {
                        0 => (u * 400.0).floor(),
                        1 => {
                            let leaves = pass.tree().leaves();
                            let leaf = leaves[(u * leaves.len() as f64) as usize];
                            match op % 4 {
                                1 => pass.tree().rect_lo(leaf, 0),
                                _ => pass.tree().rect_hi(leaf, 0),
                            }
                        }
                        2 if op % 4 == 2 => f64::INFINITY,
                        2 => f64::NEG_INFINITY,
                        3 => -60.0 - 40.0 * u,
                        _ => u * 400.0,
                    };
                    let value = (100.0 * unit(seed, &mut i)).round();
                    pass.insert(&[key], value).unwrap();
                    live.push((key, value));
                } else if !live.is_empty() {
                    let pick = (unit(seed, &mut i) * live.len() as f64) as usize;
                    let (key, value) = live.swap_remove(pick);
                    pass.delete(&[key], value).unwrap();
                }
                op += 1;
                if op % 250 == 0 {
                    assert_strata_stay_sorted_and_agree(&pass, &format!("{strategy:?} op {op}"));
                }
            }
            let at = format!("{strategy:?} after phase {phase}");
            assert_strata_stay_sorted_and_agree(&pass, &at);
            let loaded = reload(&pass);
            assert_strata_stay_sorted_and_agree(&loaded, &at);
            let empty = pass.leaf_samples().iter().filter(|s| s.k() == 0).count();
            match phase {
                1 => emptied = empty,
                2 => refilled = emptied - empty,
                _ => {}
            }
        }
        let strata = pass.leaf_samples().len();
        assert_eq!(
            (emptied, refilled),
            (strata, strata),
            "{strategy:?}: drained, refilled"
        );
    }
}

/// Paper §4.5: a maintained reservoir is a uniform sample of its stratum.
/// Over 2 000 seeded builds of a one-leaf PASS (200 rows, K = 20, keys
/// repeating) followed by 300 inserts, every one of the 500 rows — table
/// and inserted alike — is in the final sample about K/N = 4 % of the
/// time: its inclusion count lies within 4.5σ of the binomial mean. The
/// sample keeps key order, so reservoir position `j` names the `j`-th row
/// by key; a uniform position is still a uniform row.
#[test]
fn reservoir_eviction_stays_uniform_in_key_order() {
    let (n0, inserts, builds) = (200, 300, 2_000);
    let table = Table::one_dim(
        (0..n0).map(|i| f64::from(i % 50)).collect(),
        (0..n0).map(f64::from).collect(),
    )
    .unwrap();
    let total = (n0 + inserts) as usize;
    let mut included = vec![0u32; total];
    for seed in 0..builds {
        let spec = PassSpec {
            partitions: 1,
            sample_rate: 0.1,
            strategy: PartitionStrategy::EqualDepth,
            seed,
            ..PassSpec::default()
        };
        let mut pass = Pass::from_spec(&table, &spec).unwrap();
        for j in 0..inserts {
            let key = f64::from((j * 7) % 60) - 5.0;
            pass.insert(&[key], f64::from(n0 + j)).unwrap();
        }
        let [sample] = pass.leaf_samples() else {
            panic!("one leaf, one stratum");
        };
        assert_eq!((sample.k(), sample.population()), (20, total as u64));
        assert!(sample.sorted_1d());
        for &value in sample.rows().values() {
            included[value as usize] += 1;
        }
    }
    let p = 20.0 / total as f64;
    let mean = f64::from(builds as u32) * p;
    let sigma = (mean * (1.0 - p)).sqrt();
    for (row, &count) in included.iter().enumerate() {
        assert!(
            (f64::from(count) - mean).abs() <= 4.5 * sigma,
            "row {row} sampled {count} times in {builds} builds; expected {mean} ± {:.1}",
            4.5 * sigma
        );
    }
}

/// `ops` updates: inserts of uniform keys (rounded values), and deletes of
/// tuples in `live`, which the inserts join.
fn stream(pass: &mut Pass, live: &mut Vec<(f64, f64)>, seed: u64, ops: usize) {
    let mut i = 0;
    for _ in 0..ops {
        if live.is_empty() || unit(seed, &mut i) < 0.65 {
            let row = (unit(seed, &mut i), (100.0 * unit(seed, &mut i)).round());
            pass.insert(&[row.0], row.1).unwrap();
            live.push(row);
        } else {
            let pick = (unit(seed, &mut i) * live.len() as f64) as usize;
            let (key, value) = live.swap_remove(pick);
            pass.delete(&[key], value).unwrap();
        }
    }
}

/// `tests/data/pass_updated_v1.snap` is a 16-leaf PASS over
/// `uniform(2_000, 61)` saved after 2 000 updates by the code before 1-D
/// strata kept key order, whose row mutators cleared the sorted flag: every
/// stratum was stored with its flag cleared. Loaded, the strata keep the
/// in-place mutators, so 600 more updates must leave the answers and the
/// re-saved bytes that code produced — FNV-1a recorded there.
#[test]
fn a_snapshot_saved_after_updates_continues_its_stream_as_it_did() {
    let bytes = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/data/pass_updated_v1.snap"
    ))
    .expect("fixture is committed");
    let (spec, mut reader) = SnapshotReader::open(&bytes).unwrap();
    let EngineSpec::Pass(spec) = spec else {
        panic!("the fixture is a PASS snapshot: {spec:?}");
    };
    let mut pass = load_pass(&spec, &mut reader).unwrap();
    reader.finish().unwrap();
    let cleared = pass
        .leaf_samples()
        .iter()
        .filter(|s| !s.sorted_1d())
        .count();
    assert_eq!(cleared, 16, "strata stored with a cleared flag");
    stream(&mut pass, &mut Vec::new(), 62, 600);

    let mut hash = 0xcbf29ce484222325_u64;
    let mut fnv = |word: u64| hash = (hash ^ word).wrapping_mul(0x100000001b3);
    for agg in AggKind::ALL {
        for j in 0..40 {
            let lo = f64::from(j) / 40.0;
            match pass.estimate(&Query::interval(agg, lo, lo + 0.07)) {
                Ok(e) => {
                    let (lb, ub) = e.hard_bounds.unwrap_or((f64::NAN, f64::NAN));
                    [e.value, e.ci_half, lb, ub]
                        .map(f64::to_bits)
                        .into_iter()
                        .for_each(&mut fnv);
                }
                Err(_) => fnv(u64::MAX),
            }
        }
    }
    let mut resaved = Vec::new();
    pass.save(&mut resaved).unwrap();
    resaved.into_iter().map(u64::from).for_each(fnv);
    assert_eq!(hash, 0x3d11643c12e09ad1, "continued stream: {hash:#018x}");
}

//! The workload-shift contract (Section 5.4.1): an engine whose *tree*
//! indexes only some predicate dimensions (`tree_dims`) while its samples
//! keep all of them answers full-arity queries — tree-based skipping in
//! the indexed dimensions, sampling in the rest.
//!
//! What is pinned, for shifted PASS (`Adp(Sum)`, `Adp(Avg)`) and shifted
//! KD-US over 6-D taxi with `tree_dims ∈ {[0,1], [1], [2,0]}`:
//!
//! * **every answer bit** — a CRC32 over each `Estimate` field (value, CI,
//!   hard bounds, accounting, `exact`) and each error, plus the engine's
//!   name, arity and `storage_bytes`, against constants computed at commit
//!   `9638088` (the last one with a separate shifted traversal). The query
//!   set covers all five aggregates and constrains no, only indexed, some
//!   and only unindexed dimensions, half-open and empty selections, and
//!   wrong-arity queries;
//! * **single ≡ batch** — `estimate_many` equals per-query `estimate`;
//! * **old bytes keep loading** — `tests/data/{pass,kdus}_shift_v1.snap`
//!   were *written by that commit* (narrow tree + mapping on disk) and must
//!   load and answer exactly like a fresh build. Do not regenerate them:
//!   a newer writer would no longer prove backward compatibility.

use std::sync::Arc;

use pass::common::rng::derive_seed;
use pass::common::snapshot::crc32;
use pass::common::{AggKind, Estimate, PartitionStrategy, PassSpec, Query, Rect, Result, Synopsis};
use pass::table::datasets::taxi;
use pass::table::Table;
use pass::{Engine, EngineSpec};

const MAPPINGS: [&[usize]; 3] = [&[0, 1], &[1], &[2, 0]];
const QUERIES_PER_ENGINE: usize = 360;

/// `(engine, mapping) → CRC32`, in [`engines`] order. Computed at the
/// parent of the PR that folded the shifted traversal into the tree; a
/// change here means a shifted answer moved.
const DIGESTS: [u32; 9] = [
    0xf87adc86, // pass-sum[0,1]
    0xfc64961e, // pass-avg[0,1]
    0xc193f342, // kd-us[0,1]
    0xd706d7b1, // pass-sum[1]
    0xa6db6f77, // pass-avg[1]
    0xf6d7c33b, // kd-us[1]
    0x6318b330, // pass-sum[2,0]
    0x0e2732f8, // pass-avg[2,0]
    0xe78c28f1, // kd-us[2,0]
];

fn table() -> Table {
    taxi(12_000, 77)
}

fn pass_spec(kind: AggKind, dims: &[usize], partitions: usize, samples: usize) -> EngineSpec {
    EngineSpec::Pass(PassSpec {
        partitions,
        total_samples: Some(samples),
        strategy: PartitionStrategy::Adp(kind),
        seed: 5,
        tree_dims: Some(dims.to_vec()),
        ..PassSpec::default()
    })
}

fn kdus_spec(dims: &[usize], partitions: usize, k: usize) -> EngineSpec {
    EngineSpec::AqpPlusPlus {
        partitions,
        k,
        seed: 5,
        tree_dims: Some(dims.to_vec()),
    }
}

/// The nine engines, three per mapping: PASS-ADP(SUM), PASS-ADP(AVG),
/// KD-US.
fn engines(table: &Table) -> Vec<(String, &'static [usize], Arc<dyn Synopsis>)> {
    let mut out = Vec::new();
    for dims in MAPPINGS {
        for (label, spec) in [
            ("pass-sum", pass_spec(AggKind::Sum, dims, 48, 900)),
            ("pass-avg", pass_spec(AggKind::Avg, dims, 48, 900)),
            ("kd-us", kdus_spec(dims, 48, 900)),
        ] {
            let engine = Engine::build(table, &spec).expect("shifted engine builds");
            assert_eq!(engine.spec(), spec);
            assert_eq!(engine.dims(), table.dims());
            out.push((format!("{label}{dims:?}"), dims, engine));
        }
    }
    out
}

/// A unit-interval stream off the workspace's SplitMix finalizer — the
/// query set depends on nothing but `seed`.
struct Stream(u64, u64);

impl Stream {
    fn unit(&mut self) -> f64 {
        self.1 += 1;
        (derive_seed(self.0, self.1) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A sub-interval of `[lo, hi]` of relative width 5–65 %.
    fn window(&mut self, lo: f64, hi: f64) -> (f64, f64) {
        let width = (0.05 + 0.6 * self.unit()) * (hi - lo);
        let start = lo + self.unit() * (hi - lo - width);
        (start, start + width)
    }
}

/// The seeded query set for an engine indexing `indexed`. Shapes cycle so
/// every aggregate meets every shape.
fn queries(bounds: &Rect, indexed: &[usize], seed: u64) -> Vec<Query> {
    const OPEN: (f64, f64) = (f64::NEG_INFINITY, f64::INFINITY);
    let arity = bounds.dims();
    let unindexed: Vec<usize> = (0..arity).filter(|d| !indexed.contains(d)).collect();
    let mut s = Stream(seed, 0);
    let mut out = Vec::with_capacity(QUERIES_PER_ENGINE);
    for i in 0..QUERIES_PER_ENGINE {
        let agg = AggKind::ALL[i % AggKind::ALL.len()];
        let mut rect = vec![OPEN; arity];
        let mut narrow = |d: usize| rect[d] = s.window(bounds.lo(d), bounds.hi(d));
        match (i / AggKind::ALL.len()) % 9 {
            // Nothing constrained: the root is covered.
            0 => {}
            // Only indexed dimensions: coverage is decidable.
            1 => indexed.iter().for_each(|&d| narrow(d)),
            2 => narrow(indexed[i % indexed.len()]),
            // Indexed and unindexed together.
            3 => {
                narrow(indexed[0]);
                narrow(unindexed[i % unindexed.len()]);
            }
            4 => (0..arity).for_each(&mut narrow),
            // Only unindexed dimensions: every leaf is partial.
            5 => narrow(unindexed[i % unindexed.len()]),
            // Finite bounds that exclude nothing still count as a
            // constraint on an unindexed dimension.
            6 => {
                narrow(indexed[0]);
                let d = unindexed[0];
                rect[d] = (bounds.lo(d), bounds.hi(d));
            }
            // Half-open in one indexed and one unindexed dimension.
            7 => {
                let (d, u) = (indexed[0], unindexed[i % unindexed.len()]);
                rect[d] = (f64::NEG_INFINITY, s.window(bounds.lo(d), bounds.hi(d)).1);
                rect[u] = (s.window(bounds.lo(u), bounds.hi(u)).0, f64::INFINITY);
            }
            // Empty selections: beyond the data in an indexed, then in an
            // unindexed dimension.
            _ => {
                let d = if i % 2 == 0 { indexed[0] } else { unindexed[0] };
                rect[d] = (bounds.hi(d) + 1.0, bounds.hi(d) + 2.0);
            }
        }
        out.push(Query::new(agg, Rect::new(&rect)));
    }
    // Wrong arities: the tree's own, and one in between.
    for dims in [indexed.len(), arity - 1, arity + 1] {
        out.push(Query::new(AggKind::Sum, Rect::whole(dims)));
    }
    out
}

fn digest_answer(bytes: &mut Vec<u8>, answer: &Result<Estimate>) {
    match answer {
        Ok(est) => {
            bytes.push(1);
            bytes.extend(est.value.to_bits().to_le_bytes());
            bytes.extend(est.ci_half.to_bits().to_le_bytes());
            match est.hard_bounds {
                None => bytes.push(0),
                Some((lb, ub)) => {
                    bytes.push(1);
                    bytes.extend(lb.to_bits().to_le_bytes());
                    bytes.extend(ub.to_bits().to_le_bytes());
                }
            }
            bytes.extend(est.tuples_processed.to_le_bytes());
            bytes.extend(est.tuples_skipped.to_le_bytes());
            bytes.push(u8::from(est.exact));
        }
        Err(err) => {
            bytes.push(0);
            bytes.extend(format!("{err:?}").as_bytes());
        }
    }
}

fn digest(engine: &dyn Synopsis, answers: &[Result<Estimate>]) -> u32 {
    let mut bytes = Vec::new();
    bytes.extend(engine.name().as_bytes());
    bytes.extend((engine.dims() as u64).to_le_bytes());
    bytes.extend((engine.storage_bytes() as u64).to_le_bytes());
    for answer in answers {
        digest_answer(&mut bytes, answer);
    }
    crc32(&bytes)
}

#[test]
fn shifted_answers_match_the_pinned_digests() {
    let table = table();
    let bounds = table.bounding_rect().unwrap();
    let mut got = Vec::new();
    for (i, (label, dims, engine)) in engines(&table).into_iter().enumerate() {
        let qs = queries(&bounds, dims, 1_000 + i as u64);
        let single: Vec<Result<Estimate>> = qs.iter().map(|q| engine.estimate(q)).collect();
        assert_eq!(engine.estimate_many(&qs), single, "{label}: batch ≠ single");
        // The set exercises what it claims to: exact, sampled and error
        // answers all occur.
        assert!(single.iter().flatten().any(|e| e.exact), "{label}");
        assert!(single.iter().flatten().any(|e| !e.exact), "{label}");
        assert!(single.iter().any(|r| r.is_err()), "{label}");
        got.push((label, digest(engine.as_ref(), &single)));
    }
    let want: Vec<u32> = DIGESTS.to_vec();
    let have: Vec<u32> = got.iter().map(|(_, d)| *d).collect();
    assert_eq!(
        have, want,
        "shifted answers moved; per engine: {got:#010x?}"
    );
}

/// The fixtures' engines (small on purpose: the files are committed).
fn fixture_specs() -> [(&'static str, EngineSpec); 2] {
    [
        (
            "pass_shift_v1.snap",
            pass_spec(AggKind::Sum, &[2, 0], 16, 96),
        ),
        ("kdus_shift_v1.snap", kdus_spec(&[1], 16, 96)),
    ]
}

fn fixture_table() -> Table {
    taxi(3_000, 78)
}

#[test]
fn parent_written_fixtures_load_and_answer_like_a_fresh_build() {
    let table = fixture_table();
    let bounds = table.bounding_rect().unwrap();
    for (file, spec) in fixture_specs() {
        let path = format!("{}/tests/data/{file}", env!("CARGO_MANIFEST_DIR"));
        let bytes = std::fs::read(&path).expect("fixture is committed");
        let loaded = Engine::load(&bytes).expect("parent-written snapshot decodes");
        let fresh = Engine::build(&table, &spec).unwrap();
        assert_eq!(loaded.name(), fresh.name(), "{file}");
        assert_eq!(loaded.spec(), spec, "{file}");
        assert_eq!(loaded.dims(), fresh.dims(), "{file}");
        assert_eq!(loaded.storage_bytes(), fresh.storage_bytes(), "{file}");
        assert_eq!(loaded.update_epoch(), 0, "{file}");
        let dims = match &spec {
            EngineSpec::Pass(p) => p.tree_dims.clone(),
            EngineSpec::AqpPlusPlus { tree_dims, .. } => tree_dims.clone(),
            other => panic!("{other:?}"),
        }
        .unwrap();
        let qs = queries(&bounds, &dims, 2_000);
        assert_eq!(
            loaded.estimate_many(&qs),
            fresh.estimate_many(&qs),
            "{file}"
        );
        // …and a save → load of the loaded engine changes nothing either.
        let mut again = Vec::new();
        loaded.save(&mut again).unwrap();
        let reloaded = Engine::load(&again).expect("re-saved snapshot decodes");
        assert_eq!(reloaded.storage_bytes(), fresh.storage_bytes(), "{file}");
        assert_eq!(
            reloaded.estimate_many(&qs),
            fresh.estimate_many(&qs),
            "{file}"
        );
    }
}

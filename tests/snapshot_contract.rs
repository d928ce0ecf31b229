//! The snapshot contract (`pass_common::snapshot`): saving a built engine
//! and loading it back reproduces the engine **bit-identically** —
//! `estimate`, `estimate_many`, and `estimate_group_by` answers (error
//! rows included), `spec()`, `storage_bytes`, and `update_epoch` — for
//! every standard-suite engine, sharded plans, warmed caches, served
//! paths, and mutated-then-saved PASS synopses.
//!
//! The decoder side is pinned adversarially: truncation at every byte
//! boundary, single-bit flips, trailing garbage, and length-field lies
//! must surface as the right `SnapshotError` variant — never a panic,
//! and never an allocation trusted to an unvalidated length. A golden
//! fixture in `tests/data/` pins the on-disk format across checkouts
//! (regenerate with `cargo run --example snapshot_roundtrip -- <path>`
//! only on a deliberate format bump).

use std::sync::OnceLock;

use proptest::prelude::*;

use pass::common::rng::derive_seed;
use pass::common::snapshot::{Codec, Cursor, SnapshotError, SNAPSHOT_VERSION};
use pass::common::JoinSpec;
use pass::common::{
    estimate_group_by, AggKind, GroupByQuery, PassError, PassSpec, Query, Synopsis,
};
use pass::core::Pass;
use pass::table::datasets::uniform;
use pass::table::Table;
use pass::{Engine, EngineSpec, ServeConfig, Session, ShardPlan};

/// Probe queries covering every aggregate, plus an empty-selection window
/// so error rows round-trip too (AVG/MIN/MAX over nothing is an `Err`).
fn probes() -> Vec<Query> {
    let mut qs: Vec<Query> = AggKind::ALL
        .iter()
        .flat_map(|&agg| {
            [
                Query::interval(agg, 0.1, 0.8),
                Query::interval(agg, 0.42, 0.43),
            ]
        })
        .collect();
    qs.extend(AggKind::ALL.map(|agg| Query::interval(agg, 5.0, 6.0)));
    qs
}

/// Assert `loaded` is indistinguishable from `original` on every probe
/// and every identity surface. `Estimate` equality is bitwise (NaN
/// payloads and signed zeros included), so `assert_eq!` pins exact bits.
fn assert_bit_identical(original: &dyn Synopsis, loaded: &dyn Synopsis) {
    assert_eq!(loaded.name(), original.name());
    assert_eq!(loaded.spec(), original.spec());
    assert_eq!(loaded.dims(), original.dims());
    assert_eq!(loaded.storage_bytes(), original.storage_bytes());
    assert_eq!(loaded.update_epoch(), original.update_epoch());
    let qs = probes();
    for q in &qs {
        assert_eq!(
            loaded.estimate(q),
            original.estimate(q),
            "{} diverged on {:?}",
            original.name(),
            q
        );
    }
    assert_eq!(loaded.estimate_many(&qs), original.estimate_many(&qs));
}

fn roundtrip(engine: &dyn Synopsis) -> std::sync::Arc<dyn Synopsis> {
    let mut bytes = Vec::new();
    engine.save(&mut bytes).expect("save succeeds");
    Engine::load(&bytes).expect("load succeeds")
}

#[test]
fn standard_suite_round_trips_bit_identically() {
    let table = uniform(6_000, 9);
    for spec in Engine::standard_suite(16, 600, 5) {
        let engine = Engine::build(&table, &spec).unwrap();
        let loaded = roundtrip(engine.as_ref());
        assert_bit_identical(engine.as_ref(), loaded.as_ref());
    }
}

#[test]
fn sharded_pass_round_trips_at_k2_and_k4() {
    let table = uniform(8_000, 10);
    let inner = EngineSpec::Pass(PassSpec {
        partitions: 8,
        total_samples: Some(200),
        seed: 6,
        ..PassSpec::default()
    });
    for k in [2, 4] {
        let spec = EngineSpec::sharded(inner.clone(), ShardPlan::row_range(k));
        let engine = Engine::build(&table, &spec).unwrap();
        let loaded = roundtrip(engine.as_ref());
        assert_bit_identical(engine.as_ref(), loaded.as_ref());
        assert_eq!(loaded.name(), format!("Sharded[{k}]-PASS"));
    }
}

#[test]
fn group_by_answers_round_trip() {
    let n = 6_000;
    let cat: Vec<f64> = (0..n).map(|i| (i % 5) as f64).collect();
    let vals: Vec<f64> = (0..n).map(|i| ((i % 5) + 1) as f64 * 3.0).collect();
    let table = Table::one_dim(cat, vals).unwrap();
    let gq = GroupByQuery::over(AggKind::Sum, 0, &[0.0, 1.0, 2.0, 3.0, 4.0, 9.0], 1);
    let mut specs = Engine::standard_suite(8, 400, 7);
    specs.push(EngineSpec::sharded(
        specs[0].clone(),
        ShardPlan::row_range(4),
    ));
    for spec in specs {
        let engine = Engine::build(&table, &spec).unwrap();
        let loaded = roundtrip(engine.as_ref());
        // Row-for-row, error rows (the absent 9.0 category) included.
        assert_eq!(
            estimate_group_by(&loaded, &gq).unwrap(),
            estimate_group_by(&engine, &gq).unwrap(),
            "{}",
            engine.name()
        );
    }
}

#[test]
fn warming_the_cache_does_not_change_the_snapshot() {
    let mut session = Session::new(uniform(4_000, 11));
    session
        .add_engine(
            "pass",
            &EngineSpec::Pass(PassSpec {
                partitions: 8,
                sample_rate: 0.05,
                seed: 3,
                ..PassSpec::default()
            }),
        )
        .unwrap();
    let mut cold = Vec::new();
    session.save_engine("pass", &mut cold).unwrap();
    for q in &probes() {
        let _ = session.estimate("pass", q);
    }
    assert!(session.cache_stats("pass").unwrap().len > 0);
    let mut warm = Vec::new();
    session.save_engine("pass", &mut warm).unwrap();
    assert_eq!(cold, warm, "the query cache must not leak into snapshots");

    // A loaded engine joins the session as a first-class citizen and
    // answers identically to the warmed original, cache and all.
    session.load_engine("reloaded", &warm).unwrap();
    for q in &probes() {
        assert_eq!(session.estimate("reloaded", q), session.estimate("pass", q));
    }
}

#[test]
fn served_answers_match_after_reload() {
    let mut session = Session::new(uniform(4_000, 12));
    session
        .add_engine(
            "pass",
            &EngineSpec::Pass(PassSpec {
                partitions: 8,
                sample_rate: 0.05,
                seed: 4,
                ..PassSpec::default()
            }),
        )
        .unwrap();
    let mut bytes = Vec::new();
    session.save_engine("pass", &mut bytes).unwrap();
    session.load_engine("warm", &bytes).unwrap();

    // The serving front-end over the *loaded* engine answers every probe
    // bit-identically to direct calls against the original.
    let serve = session.serve("warm", ServeConfig::new()).unwrap();
    for q in &probes() {
        let results = serve
            .submit_to("warm", q)
            .unwrap()
            .wait()
            .results()
            .unwrap();
        assert_eq!(results[0], session.estimate("pass", q));
    }
}

/// Six dimensions is past `Rect`'s inline capacity, so these queries
/// carry their bounds on the heap: PASS over the full taxi table
/// answers them with the same bits directly, after `save_engine` →
/// `load_engine`, and through the serving tier over the loaded engine.
#[test]
fn a_six_dimensional_query_survives_save_and_load_bit_for_bit() {
    let table = pass::table::datasets::taxi(6_000, 29);
    let bounds = table.bounding_rect().unwrap();
    assert_eq!(bounds.dims(), 6);
    let spec = PassSpec {
        partitions: 32,
        sample_rate: 0.05,
        seed: 6,
        ..PassSpec::default()
    };
    let mut session = Session::new(table);
    session.add_engine("kd", &EngineSpec::Pass(spec)).unwrap();
    // The lower half of dimension `i % 6`, the middle of the next one.
    let queries: Vec<Query> = (0..12)
        .map(|i| {
            let (a, b) = (i % 6, (i + 1) % 6);
            let span = |d: usize| bounds.hi(d) - bounds.lo(d);
            let rect = bounds
                .narrowed(a, bounds.lo(a), bounds.lo(a) + span(a) / 2.0)
                .narrowed(
                    b,
                    bounds.lo(b) + span(b) / 4.0,
                    bounds.hi(b) - span(b) / 4.0,
                );
            Query::new(AggKind::ALL[i % 5], rect)
        })
        .collect();
    let mut bytes = Vec::new();
    session.save_engine("kd", &mut bytes).unwrap();
    session.load_engine("loaded", &bytes).unwrap();
    let serve = session.serve("loaded", ServeConfig::new()).unwrap();
    let served = serve.submit("loaded", &queries, &Default::default());
    let served = served.unwrap().wait().results().unwrap();
    for (q, served) in queries.iter().zip(served) {
        let direct = session.estimate("kd", q);
        assert!(direct.is_ok(), "{q:?}: {direct:?}");
        assert_eq!(session.estimate("loaded", q), direct, "{q:?}");
        assert_eq!(served, direct, "{q:?} served");
    }
}

#[test]
fn mutated_pass_saves_post_mutation_state() {
    let table = uniform(3_000, 13);
    let spec = PassSpec {
        partitions: 8,
        sample_rate: 0.1,
        seed: 5,
        ..PassSpec::default()
    };
    let mut pass = Pass::from_spec(&table, &spec).unwrap();
    let q = Query::interval(AggKind::Count, 0.0, 1.0);
    let before = pass.estimate(&q).unwrap();

    // Absorb a stream of inserts and a delete; the epoch advances and
    // answers move.
    for i in 0..64 {
        pass.insert(&[0.5 + (i as f64) * 1e-4], 7.0).unwrap();
    }
    let key = [table.predicate(0, 0)];
    pass.delete(&key, table.value(0)).unwrap();
    assert!(pass.update_epoch() > 0);
    let after = pass.estimate(&q).unwrap();
    assert_ne!(before.value, after.value);

    // The snapshot captures the *mutated* engine: post-mutation answers
    // and the carried-over epoch, not a rebuild from the spec.
    let loaded = roundtrip(&pass);
    assert_bit_identical(&pass, loaded.as_ref());
    assert_eq!(loaded.estimate(&q).unwrap(), after);
}

/// The arena and the tree's empty-node flag are patched in place by each
/// update and rebuilt from the stored parts by a load, so a synopsis
/// saved after a long stream (evictions included: strata shrank inside
/// the arena) must answer exactly as its reload does — and saving the
/// reload must reproduce the bytes.
#[test]
fn a_long_update_stream_round_trips_and_resaves_to_the_same_bytes() {
    let table = uniform(3_000, 14);
    let spec = PassSpec {
        partitions: 16,
        sample_rate: 0.1,
        seed: 6,
        ..PassSpec::default()
    };
    let mut pass = Pass::from_spec(&table, &spec).unwrap();
    let mut live: Vec<(f64, f64)> = (0..table.n_rows())
        .map(|r| (table.predicate(0, r), table.value(r)))
        .collect();
    let mut draws = 0;
    let mut unit = || {
        draws += 1;
        (derive_seed(14, draws) >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut evictions = 0;
    for op in 0..1_000 {
        if op % 5 < 3 {
            let row = (1.2 * unit() - 0.1, 100.0 * unit());
            pass.insert(&[row.0], row.1).unwrap();
            live.push(row);
        } else {
            let (key, value) = live.swap_remove((unit() * live.len() as f64) as usize);
            evictions += usize::from(pass.delete(&[key], value).unwrap());
        }
    }
    assert_eq!(pass.update_epoch(), 1_000);
    assert!(evictions > 0, "no delete reached a sampled row");

    let mut bytes = Vec::new();
    pass.save(&mut bytes).unwrap();
    let loaded = Engine::load(&bytes).unwrap();
    assert_bit_identical(&pass, loaded.as_ref());
    let mut resaved = Vec::new();
    loaded.save(&mut resaved).unwrap();
    assert!(
        resaved == bytes,
        "re-saving the loaded synopsis moved bytes"
    );
}

// ---------------------------------------------------------------------------
// Join snapshots
// ---------------------------------------------------------------------------

/// A fact ⋈ dimension instance for the join snapshot tests: a 2-D fact
/// (uniform x plus an FK cycling over 8 dimension keys, some dangling)
/// and one attribute column, so the joined arity is 3.
fn join_fixture() -> (Table, EngineSpec) {
    let n = 3_000;
    let values: Vec<f64> = (0..n).map(|i| (i % 11) as f64 + 1.0).collect();
    let x: Vec<f64> = (0..n).map(|i| i as f64 / n as f64).collect();
    let fk: Vec<f64> = (0..n)
        .map(|i| if i % 5 == 0 { -7.0 } else { (i % 8) as f64 })
        .collect();
    let fact = Table::new(
        values,
        vec![x, fk],
        vec!["v".into(), "x".into(), "fk".into()],
    )
    .unwrap();
    let dim_keys: Vec<f64> = (0..8).map(|k| k as f64).collect();
    let dim_attr: Vec<f64> = dim_keys.iter().map(|k| k * 10.0).collect();
    let spec = EngineSpec::join(JoinSpec::new(1, dim_keys, vec![dim_attr], 400)).with_seed(14);
    (fact, spec)
}

/// Join-arity probes: every aggregate over a broad joined rectangle and
/// an empty window, so error rows round-trip too.
fn join_probes() -> Vec<Query> {
    AggKind::ALL
        .iter()
        .flat_map(|&agg| {
            [
                Query::new(
                    agg,
                    pass::common::Rect::new(&[(0.1, 0.9), (-10.0, 10.0), (0.0, 80.0)]),
                ),
                Query::new(
                    agg,
                    pass::common::Rect::new(&[(0.42, 0.42 + 1e-12), (9.0, 9.5), (1e6, 1e7)]),
                ),
            ]
        })
        .collect()
}

/// Join engines — bare and sharded — round-trip bit-identically. The
/// hash index is rebuilt from the header spec rather than shipped, so
/// identity here also pins the spec-derivation rule.
#[test]
fn join_engines_round_trip_bit_identically() {
    let (fact, inner) = join_fixture();
    for spec in [
        inner.clone(),
        EngineSpec::sharded(inner, ShardPlan::row_range(3)),
    ] {
        let engine = Engine::build(&fact, &spec).unwrap();
        let loaded = roundtrip(engine.as_ref());
        assert_eq!(loaded.name(), engine.name());
        assert_eq!(loaded.spec(), engine.spec());
        assert_eq!(loaded.dims(), engine.dims());
        assert_eq!(loaded.storage_bytes(), engine.storage_bytes());
        let qs = join_probes();
        for q in &qs {
            assert_eq!(
                loaded.estimate(q),
                engine.estimate(q),
                "{} diverged on {q:?}",
                engine.name()
            );
        }
        assert_eq!(loaded.estimate_many(&qs), engine.estimate_many(&qs));
    }
}

/// One modest join snapshot, built once and shared by the adversarial
/// join tests below.
fn join_snapshot() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let (fact, spec) = join_fixture();
        let engine = Engine::build(&fact, &spec).unwrap();
        let mut bytes = Vec::new();
        engine.save(&mut bytes).unwrap();
        bytes
    })
}

/// Truncating a join snapshot at any byte boundary errors cleanly — the
/// join codec inherits the framing discipline, spec header included.
#[test]
fn join_truncation_at_every_byte_boundary_errors_cleanly() {
    let bytes = join_snapshot();
    for cut in 0..bytes.len() {
        let err = snapshot_err(&bytes[..cut]);
        assert!(
            matches!(
                err,
                SnapshotError::Truncated { .. }
                    | SnapshotError::ChecksumMismatch { .. }
                    | SnapshotError::BadMagic
            ),
            "cut at {cut}/{}: unexpected {err:?}",
            bytes.len()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any single-bit flip in a join snapshot is caught: the spec header
    /// travels as a CRC'd section like everything else, so corrupting
    /// the embedded dimension table cannot slip through either.
    #[test]
    fn join_single_bit_flips_never_panic(pos in 0usize..join_snapshot().len(), bit in 0u8..8) {
        let mut bytes = join_snapshot().to_vec();
        bytes[pos] ^= 1 << bit;
        prop_assert!(Engine::load(&bytes).is_err());
    }

    /// Length-field lies in a join snapshot are contained exactly like
    /// the PASS case: rejected against the remaining input before any
    /// allocation, or caught by a checksum.
    #[test]
    fn join_length_word_fuzzing_is_contained(lie in 0u64..=u64::MAX) {
        let mut bytes = join_snapshot().to_vec();
        bytes[12..20].copy_from_slice(&lie.to_le_bytes());
        match Engine::load(&bytes) {
            Err(PassError::Snapshot(_)) => {}
            Err(other) => prop_assert!(false, "non-snapshot error {other:?}"),
            Ok(_) => prop_assert!(
                lie == u64::from_le_bytes(join_snapshot()[12..20].try_into().unwrap())
            ),
        }
    }
}

// ---------------------------------------------------------------------------
// Golden fixture
// ---------------------------------------------------------------------------

/// Decodes the committed fixture and compares it against a fresh build of
/// the same spec over the same deterministic dataset — pinning both the
/// byte format and the build determinism it relies on. Keep the spec in
/// sync with `examples/snapshot_roundtrip.rs::golden_spec`.
#[test]
fn golden_fixture_decodes_bit_identically() {
    let bytes = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/data/pass_v1.snap"
    ))
    .expect("golden fixture is committed");
    let loaded = Engine::load(&bytes).expect("golden fixture decodes");

    let spec = EngineSpec::Pass(PassSpec {
        partitions: 8,
        total_samples: Some(64),
        seed: 7,
        ..PassSpec::default()
    });
    let fresh = Engine::build(&uniform(2_000, 42), &spec).unwrap();
    assert_bit_identical(fresh.as_ref(), loaded.as_ref());
}

/// A fresh build of the golden spec writes the committed fixture byte
/// for byte: the writer, not only the reader, is pinned.
#[test]
fn golden_spec_saves_exactly_the_fixture() {
    let fixture = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/data/pass_v1.snap"
    ))
    .expect("golden fixture is committed");
    let spec = EngineSpec::Pass(PassSpec {
        partitions: 8,
        total_samples: Some(64),
        seed: 7,
        ..PassSpec::default()
    });
    let mut bytes = Vec::new();
    Engine::build(&uniform(2_000, 42), &spec)
        .unwrap()
        .save(&mut bytes)
        .unwrap();
    assert!(bytes == fixture, "a fresh golden build saved other bytes");
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf29ce484222325_u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100000001b3)
    })
}

/// The snapshots of a PASS before and after it absorbed inserts and a
/// delete of the table's largest value — which loosens the root's MAX,
/// so the second tree section carries the loose-extrema trailer.
fn pass_before_and_after_updates() -> (Vec<u8>, Vec<u8>) {
    let table = uniform(3_000, 13);
    let spec = PassSpec {
        partitions: 8,
        sample_rate: 0.1,
        seed: 5,
        ..PassSpec::default()
    };
    let mut pass = Pass::from_spec(&table, &spec).unwrap();
    let mut before = Vec::new();
    pass.save(&mut before).unwrap();
    for i in 0..64 {
        pass.insert(&[0.5 + (i as f64) * 1e-4], 7.0).unwrap();
    }
    let max_row = (0..table.n_rows())
        .max_by(|&a, &b| table.value(a).total_cmp(&table.value(b)))
        .unwrap();
    pass.delete(&[table.predicate(0, max_row)], table.value(max_row))
        .unwrap();
    let mut after = Vec::new();
    pass.save(&mut after).unwrap();
    (before, after)
}

/// Every engine's `save` output is pinned by an FNV-1a hash recorded on
/// the commit before the snapshot codec became one `Codec` trait — the
/// refactor (and any later one) must write the same bytes.
#[test]
fn saved_bytes_are_pinned_per_engine() {
    let flat = uniform(4_000, 9);
    let taxi6 = pass::table::datasets::taxi(3_000, 78);
    let taxi3 = taxi6.project(&[0, 1, 2]).unwrap();
    let (fact, join_spec) = join_fixture();
    let suite = Engine::standard_suite(8, 300, 5);
    let kd_pass = EngineSpec::Pass(PassSpec {
        partitions: 16,
        sample_rate: 0.05,
        seed: 3,
        ..PassSpec::default()
    });
    let cases: [(&str, &Table, EngineSpec, u64); 11] = [
        ("PASS", &flat, suite[0].clone(), 0xdef53f6776db8247),
        ("US", &flat, suite[1].clone(), 0xcd13548d3e3adfa5),
        ("ST", &flat, suite[2].clone(), 0xbb718589b2ecb466),
        ("AQP++", &flat, suite[3].clone(), 0x18250327c4443b62),
        ("VerdictDB", &flat, suite[4].clone(), 0x9a663e1b85dc2a18),
        ("DeepDB", &flat, suite[5].clone(), 0xee1a3a51eaf62aad),
        (
            "Sharded[3]-PASS",
            &flat,
            EngineSpec::sharded(suite[0].clone(), ShardPlan::row_range(3)),
            0x78d49d0bf3ebb572,
        ),
        (
            "Sharded[3]-US",
            &flat,
            EngineSpec::sharded(suite[1].clone(), ShardPlan::row_range(3)),
            0x44e6daddf045b831,
        ),
        ("3-D KD-PASS", &taxi3, kd_pass, 0x957bf7c7c957a9df),
        (
            "3-D AQP++ (KD-US)",
            &taxi3,
            EngineSpec::aqppp(16, 200).with_seed(3),
            0x8221cd3d15e2ebba,
        ),
        ("JOIN", &fact, join_spec, 0x9fc19bccbe44d4ac),
    ];
    for (label, table, spec, want) in cases {
        let mut bytes = Vec::new();
        Engine::build(table, &spec)
            .unwrap()
            .save(&mut bytes)
            .unwrap();
        let got = fnv1a(&bytes);
        assert_eq!(got, want, "{label} saved other bytes: {got:#018x}");
    }

    // Updates leave the tree arena's size alone, so a longer tree section
    // after the stream is the loose-extrema trailer.
    let (before, after) = pass_before_and_after_updates();
    let tree_len = |bytes: &[u8]| {
        let header = u64::from_le_bytes(bytes[12..20].try_into().unwrap()) as usize;
        let at = 20 + header + 4;
        u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
    };
    assert!(
        tree_len(&after) > tree_len(&before),
        "no loose-extrema trailer"
    );
    // Re-recorded (before: 0x2ca6ffd6b79783f9) when an updated 1-D stratum
    // began to stay in key order: the updated strata save their rows in
    // key order and keep their sorted flag. The built engines above did
    // not move.
    let got = fnv1a(&after);
    assert_eq!(got, 0x5b1501a508ee987f, "updated PASS: {got:#018x}");
}

/// A snapshot's section payloads, in order (the 12 bytes of magic and
/// version before them are left out).
fn sections(bytes: &[u8]) -> Vec<Vec<u8>> {
    let mut rest = &bytes[12..];
    let mut out = Vec::new();
    while !rest.is_empty() {
        let len = u64::from_le_bytes(rest[..8].try_into().unwrap()) as usize;
        out.push(rest[8..8 + len].to_vec());
        rest = &rest[8 + len + 4..];
    }
    out
}

/// `bytes` with section `at`'s payload rewritten by `patch` and its CRC
/// recomputed, so only the decoder can object.
fn patched(bytes: &[u8], at: usize, patch: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut payloads = sections(bytes);
    patch(&mut payloads[at]);
    let mut out = bytes[..12].to_vec();
    for payload in &payloads {
        pass::common::snapshot::write_section(&mut out, payload);
    }
    out
}

/// λ is a format-v1 constant, checked where it enters: a PASS header
/// whose spec names another CI scale is a spec mismatch. So is one whose
/// `delta_encode` key, `false` in every v1 header, reads `true`.
#[test]
fn a_pass_header_with_another_lambda_is_a_spec_mismatch() {
    let bytes = snapshot();
    assert!(Engine::load(&patched(bytes, 0, |_| {})).is_ok());
    let cases = [
        (r#""lambda":2.576"#, r#""lambda":1.96"#, "`lambda`"),
        (
            r#""delta_encode":false"#,
            r#""delta_encode":true"#,
            "`delta_encode`",
        ),
    ];
    for (from, to, field) in cases {
        let other = patched(bytes, 0, |header| {
            let text = String::from_utf8(header.clone()).unwrap();
            assert!(text.contains(from), "{text}");
            *header = text.replace(from, to).into_bytes();
        });
        match snapshot_err(&other) {
            SnapshotError::SpecMismatch(why) => assert!(why.contains(field), "{why}"),
            err => panic!("{err:?}"),
        }
    }
}

/// A header spec that `EngineSpec::validate` refuses cannot describe a
/// saved engine, whatever its state sections hold: PASS with a sample
/// rate past 1 or no partitions, a JOIN with a duplicate dimension key.
/// Each is a spec mismatch at load that names the field.
#[test]
fn a_header_spec_that_validate_refuses_is_a_spec_mismatch() {
    let cases = [
        (
            snapshot(),
            r#""sample_rate":0.005"#,
            r#""sample_rate":2"#,
            "`sample_rate`",
        ),
        (
            snapshot(),
            r#""partitions":4"#,
            r#""partitions":0"#,
            "`partitions`",
        ),
        (
            join_snapshot(),
            r#""dim_keys":[0,1,"#,
            r#""dim_keys":[1,1,"#,
            "`dim_keys`",
        ),
    ];
    for (bytes, from, to, field) in cases {
        assert!(Engine::load(bytes).is_ok());
        let refused = patched(bytes, 0, |header| {
            let text = String::from_utf8(header.clone()).unwrap();
            assert!(text.contains(from), "{text}");
            *header = text.replace(from, to).into_bytes();
        });
        match snapshot_err(&refused) {
            SnapshotError::SpecMismatch(why) => assert!(why.contains(field), "{why}"),
            err => panic!("{to}: {err:?}"),
        }
    }
}

/// The state section of every sampled baseline opens with format v1's λ
/// slot, which holds 2.576. Any other value — with the CRC recomputed, so
/// the framing is sound — is drift the reader names by its section.
#[test]
fn a_baseline_lambda_slot_other_than_the_v1_constant_is_drift() {
    let flat = uniform(2_000, 17);
    let (fact, join) = join_fixture();
    let cases = [
        (&flat, EngineSpec::uniform(100), 1, "US state"),
        (&flat, EngineSpec::stratified(4, 100), 1, "ST state"),
        (&flat, EngineSpec::aqppp(4, 100), 2, "AQP++ state"),
        (&flat, EngineSpec::verdict(0.1), 1, "scramble state"),
        (&fact, join, 1, "JOIN state"),
    ];
    for (table, spec, at, section) in cases {
        let mut bytes = Vec::new();
        Engine::build(table, &spec)
            .unwrap()
            .save(&mut bytes)
            .unwrap();
        let slot = |payload: &Vec<u8>| f64::from_le_bytes(payload[..8].try_into().unwrap());
        assert_eq!(slot(&sections(&bytes)[at]), 2.576, "{section}");
        for other in [1.96, -1.0, f64::from_bits(2.576f64.to_bits() + 1)] {
            let drifted = patched(&bytes, at, |payload| {
                payload[..8].copy_from_slice(&other.to_le_bytes());
            });
            match snapshot_err(&drifted) {
                SnapshotError::SpecMismatch(why) => {
                    assert!(why.starts_with(section) && why.contains("λ"), "{why}")
                }
                err => panic!("{section} with λ = {other}: {err:?}"),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Adversarial decoding
// ---------------------------------------------------------------------------

/// One modest PASS snapshot, built once and shared by the adversarial
/// tests (every case below decodes it or a corruption of it).
fn snapshot() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let table = uniform(1_000, 21);
        let spec = EngineSpec::Pass(PassSpec {
            partitions: 4,
            total_samples: Some(32),
            seed: 8,
            ..PassSpec::default()
        });
        let engine = Engine::build(&table, &spec).unwrap();
        let mut bytes = Vec::new();
        engine.save(&mut bytes).unwrap();
        bytes
    })
}

fn snapshot_err(bytes: &[u8]) -> SnapshotError {
    match Engine::load(bytes) {
        Err(PassError::Snapshot(err)) => err,
        Err(other) => panic!("expected a snapshot error, got {other:?}"),
        Ok(_) => panic!("corrupt snapshot decoded successfully"),
    }
}

#[test]
fn truncation_at_every_byte_boundary_errors_cleanly() {
    let bytes = snapshot();
    for cut in 0..bytes.len() {
        // Any proper prefix must fail — with a snapshot error, never a
        // panic — because the spec promises more sections than remain.
        let err = snapshot_err(&bytes[..cut]);
        assert!(
            matches!(
                err,
                SnapshotError::Truncated { .. }
                    | SnapshotError::ChecksumMismatch { .. }
                    | SnapshotError::BadMagic
            ),
            "cut at {cut}/{}: unexpected {err:?}",
            bytes.len()
        );
    }
}

#[test]
fn bad_magic_is_detected_before_anything_else() {
    let mut bytes = snapshot().to_vec();
    bytes[0] ^= 0xFF;
    assert_eq!(snapshot_err(&bytes), SnapshotError::BadMagic);
    // Shorter than the magic itself: truncation, not a magic complaint.
    assert!(matches!(
        snapshot_err(&bytes[..4]),
        SnapshotError::Truncated { .. }
    ));
}

#[test]
fn version_skew_reports_both_versions() {
    let mut bytes = snapshot().to_vec();
    bytes[8..12].copy_from_slice(&(SNAPSHOT_VERSION + 9).to_le_bytes());
    assert_eq!(
        snapshot_err(&bytes),
        SnapshotError::VersionSkew {
            found: SNAPSHOT_VERSION + 9,
            supported: SNAPSHOT_VERSION,
        }
    );
}

#[test]
fn trailing_garbage_is_rejected_with_its_size() {
    let mut bytes = snapshot().to_vec();
    bytes.extend_from_slice(&[0xAB; 7]);
    assert_eq!(
        snapshot_err(&bytes),
        SnapshotError::TrailingBytes { extra: 7 }
    );
}

#[test]
fn length_field_lies_fail_before_allocating() {
    // The first section's length lives right after magic + version. A
    // huge claim must be rejected by comparing against the remaining
    // input *before* any allocation — if the decoder trusted it, this
    // test would OOM rather than fail an assertion.
    let mut bytes = snapshot().to_vec();
    bytes[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(matches!(
        snapshot_err(&bytes),
        SnapshotError::Truncated { .. }
    ));
    // An in-bounds lie mis-frames the section and trips its checksum.
    let mut bytes = snapshot().to_vec();
    let real = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
    bytes[12..20].copy_from_slice(&(real - 1).to_le_bytes());
    assert!(matches!(
        snapshot_err(&bytes),
        SnapshotError::ChecksumMismatch { .. } | SnapshotError::Truncated { .. }
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A single bit flip anywhere in the snapshot is always caught: the
    /// magic and version are checked directly, section payloads are
    /// checksummed, and frame lengths are validated against the
    /// remaining input. Never a panic, never a wild allocation.
    #[test]
    fn single_bit_flips_never_panic(pos in 0usize..snapshot().len(), bit in 0u8..8) {
        let mut bytes = snapshot().to_vec();
        bytes[pos] ^= 1 << bit;
        prop_assert!(Engine::load(&bytes).is_err());
    }

    /// Random truncation points (denser than the exhaustive sweep can
    /// afford on bigger snapshots) stay clean.
    #[test]
    fn random_truncation_never_panics(cut in 0usize..snapshot().len()) {
        prop_assert!(matches!(
            Engine::load(&snapshot()[..cut]),
            Err(PassError::Snapshot(_))
        ));
    }

    /// Garbage appended after the last section is reported byte-exactly.
    #[test]
    fn trailing_garbage_of_any_size_is_counted(garbage in prop::collection::vec(0u8..=255, 1..64usize)) {
        let mut bytes = snapshot().to_vec();
        let extra = garbage.len() as u64;
        bytes.extend_from_slice(&garbage);
        prop_assert_eq!(snapshot_err(&bytes), SnapshotError::TrailingBytes { extra });
    }

    /// Overwriting any section-length word with an arbitrary value never
    /// panics or over-allocates; it either mis-frames (checksum,
    /// truncation, trailing bytes) or — astronomically unlikely —
    /// reframes into a valid snapshot.
    #[test]
    fn length_word_fuzzing_is_contained(lie in 0u64..=u64::MAX) {
        let mut bytes = snapshot().to_vec();
        bytes[12..20].copy_from_slice(&lie.to_le_bytes());
        match Engine::load(&bytes) {
            Err(PassError::Snapshot(_)) => {}
            Err(other) => prop_assert!(false, "non-snapshot error {other:?}"),
            Ok(_) => prop_assert!(lie == u64::from_le_bytes(snapshot()[12..20].try_into().unwrap())),
        }
    }
}

// ---------------------------------------------------------------------------
// Float bit patterns
// ---------------------------------------------------------------------------

/// The codec stores floats as raw IEEE-754 bits: signed zeros and NaN
/// payloads must survive a round trip exactly — pinned at the primitive
/// layer, where every higher codec bottoms out.
#[test]
fn signed_zeros_and_nan_payloads_round_trip_bitwise() {
    let specials = [
        0.0f64,
        -0.0,
        f64::NAN,
        f64::from_bits(0x7FF8_DEAD_BEEF_0001), // quiet NaN, custom payload
        f64::from_bits(0xFFF8_0000_0000_0042), // negative quiet NaN
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE / 2.0, // subnormal
    ];
    let mut payload = Vec::new();
    for v in specials {
        v.encode(&mut payload);
    }
    let mut c = Cursor::new(&payload, "specials");
    for &v in &specials {
        let back: f64 = c.read().unwrap();
        assert_eq!(back.to_bits(), v.to_bits(), "{v:?} changed bits");
    }
    c.done().unwrap();
}

/// End to end: an engine whose sample holds -0.0 and a payload-carrying
/// NaN answers bit-identically after a round trip (`Estimate` equality
/// is bitwise, so `assert_bit_identical` compares exact bits).
#[test]
fn engines_over_special_floats_round_trip() {
    let n = 256;
    let keys: Vec<f64> = (0..n).map(|i| i as f64 / n as f64).collect();
    let mut vals: Vec<f64> = (0..n).map(|i| (i % 7) as f64).collect();
    vals[10] = -0.0;
    vals[20] = f64::from_bits(0x7FF8_DEAD_BEEF_0001);
    let table = Table::one_dim(keys, vals).unwrap();
    // A full-population sample makes both special rows certainly present.
    let engine = Engine::build(&table, &EngineSpec::uniform(n).with_seed(2)).unwrap();
    let loaded = roundtrip(engine.as_ref());
    for agg in AggKind::ALL {
        let q = Query::interval(agg, 0.0, 1.0);
        let (a, b) = (engine.estimate(&q), loaded.estimate(&q));
        assert_eq!(a, b, "{agg} diverged (bitwise Estimate compare)");
    }
}

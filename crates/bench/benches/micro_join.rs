//! Perf trajectory for the JOIN engine family: build time, batched
//! query throughput, and relative CI width of `JoinSynopsis` across a
//! fact-sample size × key multiplicity sweep, written to
//! `target/bench-results/micro_join.<scale>.json`.
//!
//! Run with `cargo bench -p pass-bench --bench micro_join` (release
//! profile). Like every other target it is sized by `PASS_SCALE`: `ci`
//! (the default) finishes in a few seconds, `paper` runs the full
//! 200k-row sweep.
//!
//! The sweep crosses the fact-side sample budget `k` (CI width should
//! shrink like 1/√k; scan cost and therefore qps should fall linearly
//! in k) with the dimension-side cardinality (at fixed fact size this
//! sets the FK multiplicity n/dims; build cost grows with the index,
//! query cost should not — queries scan the materialized joined
//! sample and never touch the index).

use std::hint::black_box;
use std::time::Instant;

use pass::Engine;
use pass_bench::{write_record, Scale};
use pass_common::{AggKind, EngineSpec, JoinSpec, Json, Query, Rect, Synopsis};
use pass_table::Table;

const FACT_ROWS: usize = 200_000;
const BATCH: usize = 1_024;
const TRIALS: usize = 5;
const K_SWEEP: [usize; 3] = [512, 2_048, 8_192];
const DIM_SWEEP: [usize; 2] = [16, 1_024];

/// Median wall-clock milliseconds over [`TRIALS`] runs of `f`.
fn median_ms(mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..TRIALS)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// The fact side: value `(i % 13) + 1`, `x` uniform in [0, 1), FK
/// cycling over `dim_n` keys with every 7th row dangling — the joined
/// sample drops ~14% of its rows, so the estimator pays the inner-join
/// semantics, not just a pass-through.
fn fact_table(rows: usize, dim_n: usize) -> Table {
    let values: Vec<f64> = (0..rows).map(|i| (i % 13) as f64 + 1.0).collect();
    let x: Vec<f64> = (0..rows).map(|i| i as f64 / rows as f64).collect();
    let fk: Vec<f64> = (0..rows)
        .map(|i| if i % 7 == 0 { -1.0 } else { (i % dim_n) as f64 })
        .collect();
    Table::new(
        values,
        vec![x, fk],
        vec!["v".into(), "x".into(), "fk".into()],
    )
    .expect("bench fact table")
}

/// The dimension side carried by the spec: keys 0..dim_n, one attribute
/// column at 10× the key.
fn join_spec(dim_n: usize, k: usize) -> JoinSpec {
    let dim_keys: Vec<f64> = (0..dim_n).map(|key| key as f64).collect();
    let dim_attr: Vec<f64> = dim_keys.iter().map(|key| key * 10.0).collect();
    let mut spec = JoinSpec::new(1, dim_keys, vec![dim_attr], k);
    spec.seed = 17;
    spec
}

/// SUM queries over sliding `x` windows, FK unconstrained, attributes
/// clipped to the lower three quarters — three-dimensional rectangles
/// only the join can answer.
fn query_batch(batch: usize, dim_n: usize) -> Vec<Query> {
    (0..batch)
        .map(|i| {
            let lo = (i % 64) as f64 / 100.0;
            Query::new(
                AggKind::Sum,
                Rect::new(&[
                    (lo, lo + 0.3),
                    (-2.0, dim_n as f64),
                    (0.0, dim_n as f64 * 7.5),
                ]),
            )
        })
        .collect()
}

fn main() {
    let scale = Scale::from_env();
    let rows = ((FACT_ROWS as f64 * scale.rows_factor) as usize).max(20_000);
    let batch = scale.queries.min(BATCH);

    let mut entries: Vec<(String, Json)> = vec![
        ("bench".to_string(), Json::from("micro_join")),
        ("scale".to_string(), Json::from(scale.label)),
        ("fact_rows".to_string(), Json::from(rows as f64)),
        ("batch".to_string(), Json::from(batch as f64)),
    ];

    for dim_n in DIM_SWEEP {
        let fact = fact_table(rows, dim_n);
        let queries = query_batch(batch, dim_n);
        for k in K_SWEEP {
            let spec = EngineSpec::Join(join_spec(dim_n, k));
            let build_ms = median_ms(|| {
                black_box(Engine::build(&fact, &spec).expect("bench build"));
            });
            let engine = Engine::build(&fact, &spec).expect("bench build");

            let batch_ms = median_ms(|| {
                black_box(engine.estimate_many(&queries));
            });
            let qps = batch as f64 / (batch_ms / 1e3);

            // Mean relative CI half-width over the batch — the
            // statistical cost axis of the sweep (should fall ~1/√k and
            // stay flat across dimension cardinalities).
            let results = engine.estimate_many(&queries);
            let (mut rel_sum, mut n_ok) = (0.0f64, 0usize);
            for est in results.into_iter().flatten() {
                if est.value != 0.0 {
                    rel_sum += est.ci_half / est.value.abs();
                    n_ok += 1;
                }
            }
            let rel_ci = if n_ok == 0 {
                f64::NAN
            } else {
                rel_sum / n_ok as f64
            };

            let tag = format!("dim{dim_n}_k{k}");
            for (metric, value) in [
                ("build_ms", build_ms),
                ("batch_qps", qps),
                ("rel_ci", rel_ci),
            ] {
                entries.push((format!("{tag}_{metric}"), Json::from(value)));
            }
            println!(
                "dim {dim_n:>5} k {k:>5}: build {build_ms:>8.2} ms, {qps:>10.0} q/s, rel CI {rel_ci:.4}"
            );
        }
    }

    // Dynamic keys, so build the object variant directly instead of
    // going through `Json::obj`'s `&'static str` convenience.
    let payload = Json::Obj(entries.into_iter().collect());
    write_record("micro_join", &scale, &payload);
}

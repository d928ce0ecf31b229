//! The traced run: every per-layer metric, measured from outside.
//!
//! Each metric is a span or a count taken around a public call of one
//! layer (prefix = module). Its *definition* names its fixture — e.g.
//! `serve.*` come from the `dashboard_serve` traced pass whatever
//! `--workload` says — so a name means one thing in every run; only
//! `trace.overhead_frac` belongs to the selected workload.
//!
//! Two sources feed the table:
//!
//! * **probes** — a public function called in a loop at the workload
//!   sizes, fastest of a few repetitions;
//! * **traced passes** — a fixed-count pass per workload with a span
//!   around each public call (`refresh` ⊃ 64 × `serve.submit` +
//!   `serve.wait`; `session.estimate` ⊃ `core.estimate`, the child
//!   measured by replaying the same query directly on the engine;
//!   `build.replay` ⊃ sort / partition / tree / draw / arena), from
//!   which self times and counts are read.
//!
//! End-to-end metrics are measured with tracing off (`run`); the traced
//! pass re-runs its blocks untraced and traced in alternation, and the
//! difference is `trace.overhead_frac`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::affinity::Placement;
use crate::api::{
    build_kd, combine_strata, rng_from_seed, taxi, Adp, AggKind, Engine, EngineSpec, EqualDepth,
    Json, KdExpansion, LatencyHistogram, McfScratch, PartialEstimate, PartitionTree, Partitioner1D,
    Pass, Priority, Query, QueryCache, QueryKey, Rect, RequestQueue, Sample, SampleArena,
    ScanScratch, ServeOutcome, Session, ShardPlan, SortedTable, StratumEstimate, Synopsis, Table,
    ThreadPool, Ticket, Truth,
};
use crate::harness::{traced_pass, TracedPass};
use crate::inputs::{
    pass_spec, queries_md, Data1d, Sizes, MD_DIMS, PARTITIONS, SAMPLE_RATE_1D, SAMPLE_RATE_MD,
};
use crate::report;
use crate::span::Recorder;
use crate::stats::percentile_sorted;
use crate::workloads::{adhoc_1d, batch_md, dashboard_serve, stream_updates};

/// Every per-layer metric with its unit, in print order. `BENCHMARK.json`
/// lists the same names; a traced run reports all of them.
pub const PER_LAYER: [(&str, &str); 66] = [
    ("table.sort_ms", "ms"),
    ("table.project_ms", "ms"),
    ("table.split_ms", "ms"),
    ("table.scan_ns_per_row", "ns"),
    ("partition.adp_ms", "ms"),
    ("partition.equal_depth_ms", "ms"),
    ("partition.kd_ms", "ms"),
    ("sampling.draw_ms", "ms"),
    ("sampling.arena_build_us", "us"),
    ("sampling.mask_scan_ns_per_row", "ns"),
    ("sampling.fused_batch_ns_per_row", "ns"),
    ("sampling.sorted1d_us", "us"),
    ("sampling.combine_ns_per_stratum", "ns"),
    ("core.build_ms", "ms"),
    ("core.build_kd_ms", "ms"),
    ("core.tree_build_ms", "ms"),
    ("core.mcf_us", "us"),
    ("core.mcf_kd_us", "us"),
    ("core.mcf_visited", "count"),
    ("core.frontier_partial", "count"),
    ("core.frontier_covered", "count"),
    ("core.tuples_processed", "count"),
    ("core.skip_rate", "ratio"),
    ("core.frontier_partial_kd", "count"),
    ("core.tuples_processed_kd", "count"),
    ("core.estimate_us", "us"),
    ("core.estimate_kd_us", "us"),
    ("core.estimate_many_us_per_query", "us"),
    ("core.insert_us", "us"),
    ("core.delete_us", "us"),
    ("core.snapshot_save_ms", "ms"),
    ("core.snapshot_bytes", "bytes"),
    ("baselines.load_ms", "ms"),
    ("baselines.sharded_build_ms", "ms"),
    ("baselines.sharded_estimate_us", "us"),
    ("baselines.sharded_over_single", "ratio"),
    ("baselines.us_estimate_us", "us"),
    ("common.cache_key_ns", "ns"),
    ("common.cache_hit_ns", "ns"),
    ("common.cache_miss_insert_ns", "ns"),
    ("common.cache_hit_rate", "ratio"),
    ("common.cache_invalidations", "count"),
    ("common.queue_push_pop_ns", "ns"),
    ("common.ticket_roundtrip_ns", "ns"),
    ("common.pool_dispatch_us", "us"),
    ("common.partial_merge_ns", "ns"),
    ("common.histogram_record_ns", "ns"),
    ("workload.gen_ms", "ms"),
    ("workload.truth_us", "us"),
    ("session.estimate_overhead_ns", "ns"),
    ("session.batch_overhead_ns", "ns"),
    ("session.miss_path_ns", "ns"),
    ("session.par_speedup", "ratio"),
    ("serve.submit_ns", "ns"),
    ("serve.wait_us", "us"),
    ("serve.roundtrip_us", "us"),
    ("serve.self_us_per_request", "us"),
    ("serve.coalesce_width", "count"),
    ("serve.queue_high_water", "count"),
    ("serve.rejected", "count"),
    ("serve.expired", "count"),
    ("serve.refresh_p99_us", "us"),
    ("serve.stats_p50_ratio", "ratio"),
    ("serve.shutdown_ms", "ms"),
    ("update_p50_us", "us"),
    ("failed_frac", "ratio"),
];

/// The one per-layer metric that belongs to the selected workload.
pub const OVERHEAD: (&str, &str) = ("trace.overhead_frac", "ratio");

/// Repetitions of a millisecond-scale probe.
const REPS: usize = 3;
/// 1-D queries a per-query probe loops over.
const PROBE_QUERIES: usize = 50_000;
/// Rows of the 3-D sample the mask and fused kernels are probed on.
const KERNEL_ROWS: usize = 16_384;

/// Wall time of the fastest of `reps` calls, in milliseconds (fastest,
/// not median, for the reason given at [`crate::stats::Summary`]).
fn best_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// Nanoseconds per unit of the fastest of `REPS` calls of `f`, which
/// performs `units` units of work.
fn ns_per<R>(units: usize, f: impl FnMut() -> R) -> f64 {
    best_ms(REPS, f) * 1e6 / units as f64
}

fn mean<T: Copy + Into<u64>>(values: &[T]) -> f64 {
    values.iter().map(|&v| v.into()).sum::<u64>() as f64 / values.len().max(1) as f64
}

/// Nearest-rank percentile of nanosecond samples, in microseconds.
fn percentile_us<T: Copy + Ord + Into<u64>>(samples: &mut [T], p: f64) -> f64 {
    samples.sort_unstable();
    percentile_sorted(samples, p).map_or(0, Into::into) as f64 / 1e3
}

/// The per-layer table under construction.
#[derive(Debug, Default)]
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.0 == name),
            "{name} is not a declared per-layer metric"
        );
        self.0.insert(name, value);
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(f64::NAN)
    }
}

/// Everything a traced run produced.
pub struct Traced {
    layers: Layers,
    /// Traced vs untraced throughput per workload.
    overheads: Vec<(&'static str, TracedPass)>,
    /// One recorder per traced pass, plus the build replay.
    recorders: Vec<(&'static str, Recorder)>,
    /// `trace.overhead_frac` of the (last) selected workload.
    selected_overhead: f64,
    attempted: u64,
    failed: u64,
}

impl Traced {
    /// Book one finished traced pass.
    fn finish_pass(
        &mut self,
        name: &'static str,
        rec: Recorder,
        pass: TracedPass,
        checked_ops: u64,
        failures: u64,
    ) {
        self.overheads.push((name, pass));
        self.recorders.push((name, rec));
        self.attempted += checked_ops + pass.ops;
        self.failed += failures;
    }

    /// Print the per-layer table, the span totals, and the serve
    /// decomposition.
    pub fn print(&self) {
        report::print_header();
        for (name, unit) in PER_LAYER {
            let v = self.layers.get(name);
            println!("{:<16} {name:<34} {unit:<7} {v:>16.6}", "layers");
        }
        for (workload, pass) in &self.overheads {
            println!(
                "{workload:<16} {:<34} {:<7} {:>16.6}   (traced {:.0} ops/s, untraced {:.0} ops/s)",
                OVERHEAD.0,
                OVERHEAD.1,
                pass.overhead_frac(),
                pass.traced_ops_s,
                pass.untraced_ops_s
            );
        }
        println!("# span totals: pass span count total_ms self_ms");
        for (pass, rec) in &self.recorders {
            for (name, t) in rec.totals() {
                println!(
                    "# {pass:<16} {name:<24} {:>9} {:>12.3} {:>12.3}",
                    t.count,
                    t.total_ns as f64 / 1e6,
                    t.self_ns as f64 / 1e6
                );
            }
        }
        let submit = self.layers.get("serve.submit_ns") / 1e3;
        let wait = self.layers.get("serve.wait_us");
        let parts = submit * dashboard_serve::TILES as f64 + wait;
        if let Some((_, rec)) = self.recorders.iter().find(|r| r.0 == dashboard_serve::NAME) {
            let refresh = mean(&rec.durations_ns("refresh")) / 1e3;
            println!(
                "# dashboard_serve: refresh = {refresh:.2} us; {} x serve.submit + serve.wait = {parts:.2} us ({:+.2} %)",
                dashboard_serve::TILES,
                (parts / refresh - 1.0) * 100.0
            );
            println!(
                "# dashboard_serve: serve.self_us_per_request = {:.3} us beside {:.3} us per request through Session::estimate_many directly",
                self.layers.get("serve.self_us_per_request"),
                refresh / dashboard_serve::TILES as f64 - self.layers.get("serve.self_us_per_request"),
            );
        }
    }

    /// `trace.json`: env, the per-layer table, overheads, and every span.
    pub fn to_json(&self, env: Json) -> String {
        let layers = Json::Obj(
            PER_LAYER
                .iter()
                .map(|&(name, unit)| {
                    let value = Json::from(self.layers.get(name));
                    (
                        name.to_owned(),
                        Json::obj([("unit", Json::from(unit)), ("value", value)]),
                    )
                })
                .collect(),
        );
        let overheads = Json::Obj(
            self.overheads
                .iter()
                .map(|(name, pass)| ((*name).to_owned(), Json::from(pass.overhead_frac())))
                .collect(),
        );
        let mut out = format!(
            "{{\"env\":{env},\"layers\":{layers},\"trace.overhead_frac\":{overheads},\"passes\":{{"
        );
        for (i, (pass, rec)) in self.recorders.iter().enumerate() {
            out.push_str(&format!("{}\"{pass}\":", if i > 0 { "," } else { "" }));
            rec.write_json(&mut out);
        }
        out.push_str("}}");
        out
    }

    /// The contract's result line: every per-layer metric.
    pub fn contract_line(&self) -> String {
        report::contract_line(
            self.attempted,
            self.failed,
            PER_LAYER
                .iter()
                .map(|&(name, unit)| (name, self.layers.get(name), unit))
                .chain([(OVERHEAD.0, self.selected_overhead, OVERHEAD.1)]),
        )
    }
}

/// Replay the 1-D build step by step through public functions, one span
/// each under `build.replay`, so `core.build_ms` decomposes.
fn replay_build(rec: &mut Recorder, data: &Data1d, seed: u64) {
    let names = [
        "build.replay",
        "table.sort",
        "partition.adp",
        "core.tree_build",
        "sampling.draw_strata",
        "sampling.arena_build",
    ]
    .map(|n| rec.name(n));
    let outer = rec.enter(names[0], 0);
    let span = rec.enter(names[1], 0);
    let sorted = SortedTable::from_table(&data.table, 0);
    rec.exit(span);
    let span = rec.enter(names[2], 0);
    let partitioning = adp(seed)
        .partition(&sorted, PARTITIONS)
        .expect("ADP partitions a non-empty table");
    rec.exit(span);
    let span = rec.enter(names[3], 0);
    let tree = PartitionTree::from_partitioning(&sorted, &partitioning).expect("tree builds");
    rec.exit(span);
    let span = rec.enter(names[4], 0);
    let rows = Table::one_dim(sorted.keys().to_vec(), sorted.values().to_vec())
        .expect("sorted columns have equal length");
    let mut rng = rng_from_seed(seed);
    let samples: Vec<Sample> = partitioning
        .ranges()
        .into_iter()
        .map(|range| {
            let k = ((range.len() as f64 * SAMPLE_RATE_1D).round() as usize).max(1);
            Sample::uniform_from_range(&rows, range, k, &mut rng).expect("range is in the table")
        })
        .collect();
    rec.exit(span);
    let span = rec.enter(names[5], 0);
    black_box(SampleArena::from_samples(&samples));
    rec.exit(span);
    rec.exit(outer);
    black_box(tree.n_leaves());
}

/// The ADP optimizer exactly as `Pass::from_spec` configures it.
fn adp(seed: u64) -> Adp {
    let spec = pass_spec(PARTITIONS, SAMPLE_RATE_1D, seed);
    Adp::new(AggKind::Sum)
        .with_samples(spec.opt_samples)
        .with_delta(spec.adp_delta)
        .with_seed(seed)
}

/// `pass-table`, `pass-partition` and the build-side `pass-sampling` /
/// `pass-core` probes. Returns the concrete 1-D and k-d synopses the
/// query-side probes run on.
fn probe_build(
    m: &mut Layers,
    data: &Data1d,
    raw_md: &Table,
    table_md: &Table,
    scan_queries: &[Query],
    seed: u64,
) -> (Pass, Pass) {
    m.set(
        "table.sort_ms",
        best_ms(REPS, || SortedTable::from_table(&data.table, 0)),
    );
    m.set(
        "table.project_ms",
        best_ms(REPS, || raw_md.project(&MD_DIMS)),
    );
    m.set(
        "table.split_ms",
        best_ms(REPS, || data.table.split(&ShardPlan::row_range(2))),
    );
    m.set(
        "table.scan_ns_per_row",
        ns_per(scan_queries.len() * table_md.n_rows(), || {
            for q in scan_queries {
                black_box(table_md.ground_truth(q));
            }
        }),
    );

    let spec_1d = pass_spec(PARTITIONS, SAMPLE_RATE_1D, seed);
    let spec_md = pass_spec(PARTITIONS, SAMPLE_RATE_MD, seed);
    let adp = adp(seed);
    m.set(
        "partition.adp_ms",
        best_ms(REPS, || adp.partition(&data.sorted, PARTITIONS)),
    );
    m.set(
        "partition.equal_depth_ms",
        best_ms(REPS, || EqualDepth.partition(&data.sorted, PARTITIONS)),
    );
    let expansion = KdExpansion::MaxVariance {
        kind: AggKind::Sum,
        balance: spec_md.kd_balance,
    };
    m.set(
        "partition.kd_ms",
        best_ms(REPS, || build_kd(table_md, PARTITIONS, expansion, seed)),
    );

    let mut rng = rng_from_seed(seed);
    let draw = (data.table.n_rows() as f64 * SAMPLE_RATE_1D) as usize;
    m.set(
        "sampling.draw_ms",
        best_ms(REPS, || Sample::uniform(&data.table, draw, &mut rng)),
    );
    let partitioning = adp
        .partition(&data.sorted, PARTITIONS)
        .expect("ADP partitions a non-empty table");
    m.set(
        "core.tree_build_ms",
        best_ms(REPS, || {
            PartitionTree::from_partitioning(&data.sorted, &partitioning)
        }),
    );

    let mut pass = None;
    m.set(
        "core.build_ms",
        best_ms(REPS, || {
            pass = Some(Pass::from_spec(&data.table, &spec_1d).expect("PASS builds"));
        }),
    );
    let mut kd = None;
    m.set(
        "core.build_kd_ms",
        best_ms(REPS, || {
            kd = Some(Pass::from_spec(table_md, &spec_md).expect("KD-PASS builds"));
        }),
    );
    let (pass, kd) = (pass.expect("REPS > 0"), kd.expect("REPS > 0"));
    m.set(
        "sampling.arena_build_us",
        best_ms(20, || SampleArena::from_samples(pass.leaf_samples())) * 1e3,
    );
    (pass, kd)
}

/// Query-side `pass-sampling` probes: the mask path, the fused batch
/// path, the sorted 1-D fast path, and the stratum fold.
fn probe_sampling(m: &mut Layers, pass: &Pass, table_md: &Table, queries_md: &[Query], seed: u64) {
    let mut rng = rng_from_seed(seed ^ 0x5A);
    let sample = Sample::uniform(table_md, KERNEL_ROWS, &mut rng).expect("table is not empty");
    let rows = sample.k();
    let mut scratch = ScanScratch::new();
    let singles = &queries_md[..64.min(queries_md.len())];
    m.set(
        "sampling.mask_scan_ns_per_row",
        ns_per(singles.len() * rows, || {
            for q in singles {
                black_box(scratch.estimate(q.agg, &sample, &q.rect));
            }
        }),
    );
    let batch = &queries_md[..batch_md::BATCH.min(queries_md.len())];
    let mut out = Vec::new();
    m.set(
        "sampling.fused_batch_ns_per_row",
        ns_per(batch.len() * rows, || {
            scratch.estimate_batch(&sample, batch, &mut out);
            black_box(out.len());
        }),
    );

    // Each leaf's own sample, probed with an interval covering the upper
    // half of that leaf — the partial-leaf shape of an `adhoc_1d` query.
    let leaves = pass.leaf_samples();
    let halves: Vec<Rect> = leaves
        .iter()
        .map(|s| {
            let keys = s.rows().predicate_column(0);
            Rect::interval(keys[keys.len() / 2], f64::INFINITY)
        })
        .collect();
    const ROUNDS: usize = 200;
    m.set(
        "sampling.sorted1d_us",
        ns_per(ROUNDS * leaves.len(), || {
            for _ in 0..ROUNDS {
                for (s, rect) in leaves.iter().zip(&halves) {
                    black_box(scratch.estimate(AggKind::Sum, s, rect));
                }
            }
        }) / 1e3,
    );

    let strata: Vec<StratumEstimate> = leaves
        .iter()
        .zip(&halves)
        .filter_map(|(s, rect)| {
            Some(StratumEstimate {
                point: scratch.estimate(AggKind::Avg, s, rect)?,
                population: s.population(),
            })
        })
        .collect();
    let population: u64 = strata.iter().map(|s| s.population).sum();
    m.set(
        "sampling.combine_ns_per_stratum",
        ns_per(ROUNDS * strata.len(), || {
            for _ in 0..ROUNDS {
                black_box(combine_strata(AggKind::Avg, black_box(&strata), population));
            }
        }),
    );
}

/// Query-side `pass-core` probes on the concrete synopses: the
/// production traversal (`McfScratch::run` only — so ROADMAP 3(a) can
/// delete the other three), the frontier counts, and the snapshot.
fn probe_core(m: &mut Layers, pass: &Pass, kd: &Pass, queries_1d: &[Query], queries_md: &[Query]) {
    let mut scratch = McfScratch::default();
    let (mut visited, mut partial, mut covered) = (0usize, 0usize, 0usize);
    for q in queries_1d {
        scratch.run(pass.tree(), q, true);
        visited += scratch.result.visited;
        partial += scratch.result.partial.len();
        covered += scratch.result.covered.len();
    }
    let n = queries_1d.len() as f64;
    m.set("core.mcf_visited", visited as f64 / n);
    m.set("core.frontier_partial", partial as f64 / n);
    m.set("core.frontier_covered", covered as f64 / n);
    m.set(
        "core.mcf_us",
        ns_per(queries_1d.len(), || {
            for q in queries_1d {
                scratch.run(pass.tree(), q, true);
                black_box(scratch.result.visited);
            }
        }) / 1e3,
    );
    let partial_kd: usize = queries_md
        .iter()
        .map(|q| {
            scratch.run(kd.tree(), q, true);
            scratch.result.partial.len()
        })
        .sum();
    m.set(
        "core.frontier_partial_kd",
        partial_kd as f64 / queries_md.len() as f64,
    );
    m.set(
        "core.mcf_kd_us",
        ns_per(queries_md.len(), || {
            for q in queries_md {
                scratch.run(kd.tree(), q, true);
                black_box(scratch.result.visited);
            }
        }) / 1e3,
    );

    let (mut processed, mut skip) = (0u64, 0.0);
    for q in queries_1d {
        if let Ok(est) = pass.estimate(q) {
            processed += est.tuples_processed;
            skip += est.skip_rate();
        }
    }
    m.set("core.tuples_processed", processed as f64 / n);
    m.set("core.skip_rate", skip / n);
    let processed_kd: u64 = queries_md
        .iter()
        .filter_map(|q| kd.estimate(q).ok())
        .map(|est| est.tuples_processed)
        .sum();
    m.set(
        "core.tuples_processed_kd",
        processed_kd as f64 / queries_md.len() as f64,
    );
    m.set(
        "core.estimate_kd_us",
        ns_per(queries_md.len(), || {
            for q in queries_md {
                black_box(kd.estimate(q).is_ok());
            }
        }) / 1e3,
    );

    let mut bytes = Vec::new();
    m.set(
        "core.snapshot_save_ms",
        best_ms(REPS, || {
            bytes.clear();
            pass.save(&mut bytes).expect("PASS snapshots");
        }),
    );
    m.set("core.snapshot_bytes", bytes.len() as f64);
    m.set(
        "baselines.load_ms",
        best_ms(REPS, || Engine::load(&bytes).expect("snapshot loads")),
    );
}

/// `pass-baselines` probes: the sharded engine against the single one,
/// and uniform sampling at equal sample size.
fn probe_baselines(m: &mut Layers, data: &Data1d, pass: &Pass, queries: &[Query], seed: u64) {
    let shard = EngineSpec::Pass(pass_spec(PARTITIONS / 2, SAMPLE_RATE_1D, seed));
    let spec = EngineSpec::sharded(shard, ShardPlan::row_range(2));
    let mut sharded = None;
    m.set(
        "baselines.sharded_build_ms",
        best_ms(REPS, || {
            sharded = Some(Engine::build(&data.table, &spec).expect("sharded PASS builds"));
        }),
    );
    let sharded = sharded.expect("REPS > 0");
    m.set(
        "baselines.sharded_estimate_us",
        ns_per(queries.len(), || {
            for q in queries {
                black_box(sharded.estimate(q).is_ok());
            }
        }) / 1e3,
    );
    let uniform = Engine::build(&data.table, &EngineSpec::uniform(pass.total_samples()))
        .expect("uniform sample builds");
    let few = &queries[..queries.len().min(5_000)];
    m.set(
        "baselines.us_estimate_us",
        ns_per(few.len(), || {
            for q in few {
                black_box(uniform.estimate(q).is_ok());
            }
        }) / 1e3,
    );
}

/// `pass-common` probes: cache, queue, ticket, pool, merge, histogram —
/// each primitive alone on one thread.
fn probe_common(m: &mut Layers, pass: &Pass, queries: &[Query]) {
    const CAPACITY: usize = 4_096;
    m.set(
        "common.cache_key_ns",
        ns_per(queries.len(), || {
            for q in queries {
                black_box(QueryKey::new(q));
            }
        }),
    );
    let keys: Vec<QueryKey> = queries.iter().map(QueryKey::new).collect();
    let answer = pass.estimate(&queries[0]);
    let cache = QueryCache::new(CAPACITY);
    let (resident, stream) = keys.split_at(CAPACITY.min(keys.len() / 2));
    for key in resident {
        cache.insert_keyed(key.clone(), answer.clone());
    }
    m.set(
        "common.cache_hit_ns",
        ns_per(resident.len() * 8, || {
            for _ in 0..8 {
                for key in resident {
                    black_box(cache.get_keyed(key).is_some());
                }
            }
        }),
    );
    // At capacity: every lookup misses and every insert evicts (FIFO).
    m.set(
        "common.cache_miss_insert_ns",
        ns_per(stream.len(), || {
            for key in stream {
                if cache.get_keyed(key).is_none() {
                    cache.insert_keyed(key.clone(), answer.clone());
                }
            }
            for key in resident {
                cache.insert_keyed(key.clone(), answer.clone());
            }
        }),
    );

    const OPS: usize = 200_000;
    let queue: RequestQueue<usize> = RequestQueue::new(1_024);
    m.set(
        "common.queue_push_pop_ns",
        ns_per(OPS, || {
            for i in 0..OPS {
                black_box(queue.try_push(i, Priority::Interactive).is_ok());
                black_box(queue.pop_blocking());
            }
        }),
    );
    m.set(
        "common.ticket_roundtrip_ns",
        ns_per(OPS, || {
            for _ in 0..OPS {
                let (ticket, slot) = Ticket::pending();
                slot.fulfill(ServeOutcome::Done(Vec::new()), None);
                black_box(ticket.wait().is_done());
            }
        }),
    );
    let pool = ThreadPool::new(2);
    const DISPATCHES: usize = 200;
    m.set(
        "common.pool_dispatch_us",
        ns_per(DISPATCHES, || {
            for _ in 0..DISPATCHES {
                black_box(pool.map_chunks(64, 8, |range| vec![0u8; range.len()]));
            }
        }) / 1e3,
    );
    if let Ok(est) = answer {
        let part = PartialEstimate::from_local(AggKind::Sum, est);
        let parts = [Ok(part.clone()), Ok(part)];
        m.set(
            "common.partial_merge_ns",
            ns_per(OPS, || {
                for _ in 0..OPS {
                    black_box(PartialEstimate::merge_available(AggKind::Sum, &parts).is_ok());
                }
            }),
        );
    }
    let histogram = LatencyHistogram::new();
    m.set(
        "common.histogram_record_ns",
        ns_per(OPS, || {
            for i in 0..OPS as u64 {
                histogram.record(i & 1_023);
            }
        }),
    );
}

/// The traced run. `selected` picks whose `trace.overhead_frac` goes in
/// the contract line; every layer is measured regardless.
pub fn run(selected: &[&str], seed: u64, sizes: &Sizes, placement: &Placement) -> Traced {
    let mut traced = Traced {
        layers: Layers::default(),
        overheads: Vec::new(),
        recorders: Vec::new(),
        selected_overhead: f64::NAN,
        attempted: 0,
        failed: 0,
    };

    // ---- inputs (workload.*) -------------------------------------------
    let data = Data1d::generate(sizes.rows_1d, seed);
    let raw_md = taxi(sizes.rows_md, seed);
    let table_md = raw_md.project(&MD_DIMS).expect("taxi has columns 1..=3");
    let gen = Instant::now();
    let adhoc_queries = data.queries(sizes.adhoc_queries, seed, 1);
    let mut md_queries = queries_md(&table_md, sizes.md_queries, seed);
    traced
        .layers
        .set("workload.gen_ms", gen.elapsed().as_secs_f64() * 1e3);
    md_queries.truncate(md_queries.len() / batch_md::BATCH * batch_md::BATCH);
    let oracle = Truth::new(&data.table);
    let additive: Vec<&Query> = adhoc_queries
        .iter()
        .filter(|q| matches!(q.agg, AggKind::Sum | AggKind::Count | AggKind::Avg))
        .take(PROBE_QUERIES)
        .collect();
    traced.layers.set(
        "workload.truth_us",
        ns_per(additive.len(), || {
            for q in &additive {
                black_box(oracle.eval(q));
            }
        }) / 1e3,
    );
    let probe_1d = &adhoc_queries[..PROBE_QUERIES.min(adhoc_queries.len())];

    // ---- build replay + layer probes -----------------------------------
    let mut rec = Recorder::with_capacity(64);
    for _ in 0..REPS {
        replay_build(&mut rec, &data, seed);
    }
    traced.recorders.push(("build", rec));
    let (pass, kd) = probe_build(
        &mut traced.layers,
        &data,
        &raw_md,
        &table_md,
        &md_queries[..8],
        seed,
    );
    drop(raw_md);
    probe_sampling(&mut traced.layers, &pass, &table_md, &md_queries, seed);
    probe_core(&mut traced.layers, &pass, &kd, probe_1d, &md_queries);
    probe_baselines(
        &mut traced.layers,
        &data,
        &pass,
        &probe_1d[..probe_1d.len().min(20_000)],
        seed,
    );
    probe_common(&mut traced.layers, &pass, probe_1d);
    drop((pass, kd));

    // ---- adhoc_1d traced pass (session.estimate ⊃ core.estimate) --------
    let adhoc_truth = crate::inputs::truths(&oracle, &adhoc_queries, sizes.extrema_truths);
    let (session, _) = adhoc_1d::build(&data, seed);
    let mut adhoc = adhoc_1d::Adhoc1d::new(session, adhoc_queries, &adhoc_truth);
    let mut rec = Recorder::with_capacity(1 << 18);
    let pass_result = traced_pass(&mut adhoc, &mut rec, 5);
    adhoc.replay(&mut rec);
    let totals = rec.totals();
    let (outer, inner) = (totals["session.estimate"], totals["core.estimate"]);
    traced.layers.set(
        "session.estimate_overhead_ns",
        outer.self_ns as f64 / outer.count as f64,
    );
    traced.layers.set(
        "core.estimate_us",
        inner.total_ns as f64 / inner.count as f64 / 1e3,
    );
    traced.layers.set(
        "baselines.sharded_over_single",
        traced.layers.get("baselines.sharded_estimate_us") / traced.layers.get("core.estimate_us"),
    );
    traced.finish_pass(
        adhoc_1d::NAME,
        rec,
        pass_result,
        adhoc.queries().len() as u64,
        adhoc.checker.failures.total(),
    );

    // ---- batch_md traced pass (estimate_many ⊃ core.estimate_many) ------
    let (session, _) = batch_md::build(&table_md, seed);
    let md_truth = vec![None; md_queries.len()];
    let mut md = batch_md::BatchMd::new(session, md_queries, &md_truth);
    let mut rec = Recorder::with_capacity(64);
    let pass_result = traced_pass(&mut md, &mut rec, 2);
    md.replay(&mut rec);
    let totals = rec.totals();
    let (outer, inner) = (
        totals["session.estimate_many"],
        totals["core.estimate_many"],
    );
    let per_query = (outer.count * batch_md::BATCH as u64) as f64;
    traced.layers.set(
        "session.batch_overhead_ns",
        outer.self_ns as f64 / per_query,
    );
    traced.layers.set(
        "core.estimate_many_us_per_query",
        inner.total_ns as f64 / per_query / 1e3,
    );
    traced.finish_pass(
        batch_md::NAME,
        rec,
        pass_result,
        (md.batches() * batch_md::BATCH) as u64,
        md.checker.failures.total(),
    );

    // session.par_speedup: the one probe that leaves the pinned CPU.
    let pool = ThreadPool::new(placement.allowed_cpus());
    let batches: Vec<&[Query]> = (0..md.batches()).map(|b| md.batch(b)).collect();
    let run_batches = |parallel: bool| {
        for batch in &batches {
            let answers = if parallel {
                md.session
                    .estimate_many_parallel(batch_md::ENGINE, batch, &pool)
            } else {
                md.session.estimate_many(batch_md::ENGINE, batch)
            };
            black_box(answers.is_ok());
        }
    };
    let (sequential, parallel) = placement.unpinned(|| {
        (
            best_ms(REPS, || run_batches(false)),
            best_ms(REPS, || run_batches(true)),
        )
    });
    traced
        .layers
        .set("session.par_speedup", sequential / parallel);
    drop(batches);
    drop(md);
    drop(table_md);

    // ---- dashboard_serve traced pass (refresh ⊃ submits + wait) ---------
    let inputs = dashboard_serve::inputs(&data, sizes, seed);
    let (session, _) = dashboard_serve::build(&data, seed);
    let mut serve =
        dashboard_serve::DashboardServe::new(session, inputs.queries, &inputs.truth, seed);
    let stats0 = serve.serve_stats().expect("server is running");
    let (hits0, misses0) = serve.cache_counters();
    let mut rec = Recorder::with_capacity(1 << 14);
    let pass_result = traced_pass(&mut serve, &mut rec, 5);
    let (hits, misses) = serve.cache_counters();
    let stats = serve.serve_stats().expect("server is running");
    serve.replay();
    traced
        .layers
        .set("serve.submit_ns", mean(&rec.durations_ns("serve.submit")));
    traced
        .layers
        .set("serve.wait_us", mean(&rec.durations_ns("serve.wait")) / 1e3);
    let mut refresh = rec.durations_ns("refresh");
    traced.layers.set(
        "serve.self_us_per_request",
        (mean(&refresh) - mean(&serve.traced.direct_ns)) / dashboard_serve::TILES as f64 / 1e3,
    );
    traced
        .layers
        .set("serve.refresh_p99_us", percentile_us(&mut refresh, 0.99));
    traced.layers.set(
        "serve.coalesce_width",
        (stats.completed - stats0.completed) as f64
            / (stats.batches - stats0.batches).max(1) as f64,
    );
    traced
        .layers
        .set("serve.queue_high_water", stats.queue_high_water as f64);
    traced.layers.set("serve.rejected", stats.rejected as f64);
    traced.layers.set("serve.expired", stats.expired as f64);
    traced.layers.set(
        "serve.stats_p50_ratio",
        stats.p50_latency_us as f64 / percentile_us(&mut serve.traced.request_ns, 0.5),
    );
    traced.layers.set(
        "common.cache_hit_rate",
        (hits - hits0) as f64 / ((hits - hits0) + (misses - misses0)).max(1) as f64,
    );
    // One request at a time on an empty queue.
    let mut single: Vec<u32> = (0..1_000).map(|_| serve.roundtrip()).collect();
    traced
        .layers
        .set("serve.roundtrip_us", percentile_us(&mut single, 0.5));
    let (_, shutdown_ms) = serve.shutdown().expect("server was running");
    traced.layers.set("serve.shutdown_ms", shutdown_ms);
    traced.finish_pass(
        dashboard_serve::NAME,
        rec,
        pass_result,
        serve.checked_ops(),
        serve.checker.failures.total(),
    );

    // session.miss_path_ns: an all-miss stream through the default-
    // capacity cache (distinct queries, several times its capacity, so
    // every lookup misses and every insert evicts) against the same
    // stream through the capacity-0 session.
    let stream = &adhoc.queries()[..PROBE_QUERIES.min(adhoc.queries().len())];
    let through = |session: &Session, engine: &str| {
        ns_per(stream.len(), || {
            for q in stream {
                black_box(session.estimate(engine, q).is_ok());
            }
        })
    };
    traced.layers.set(
        "session.miss_path_ns",
        through(&serve.session, dashboard_serve::ENGINES[0])
            - through(&adhoc.session, adhoc_1d::ENGINE),
    );
    drop(serve);
    drop(adhoc);

    // ---- stream_updates traced pass (round ⊃ inserts, deletes, reads) ---
    let (synopsis, _) = stream_updates::build(&data, seed);
    let hot = stream_updates::hot_set(&data, seed);
    let mut stream = stream_updates::StreamUpdates::new(synopsis, &data, hot, seed);
    let mut rec = Recorder::with_capacity(1 << 15);
    let pass_result = traced_pass(&mut stream, &mut rec, 5);
    let (inserts, deletes) = (
        rec.durations_ns("core.insert"),
        rec.durations_ns("core.delete"),
    );
    traced.layers.set("core.insert_us", mean(&inserts) / 1e3);
    traced.layers.set("core.delete_us", mean(&deletes) / 1e3);
    traced.layers.set(
        "update_p50_us",
        percentile_us(&mut [inserts, deletes].concat(), 0.5),
    );
    traced
        .layers
        .set("common.cache_invalidations", stream.invalidations as f64);
    traced.finish_pass(
        stream_updates::NAME,
        rec,
        pass_result,
        stream.checked_ops(),
        stream.checker.failures.total(),
    );

    traced.layers.set(
        "failed_frac",
        traced.failed as f64 / traced.attempted.max(1) as f64,
    );
    for (name, _) in PER_LAYER {
        assert!(
            traced.layers.0.contains_key(name),
            "per-layer metric {name} was not measured"
        );
    }
    traced.selected_overhead = selected
        .last()
        .and_then(|w| traced.overheads.iter().find(|o| o.0 == *w))
        .map_or(f64::NAN, |o| o.1.overhead_frac());
    traced
}

//! The paper's Section 5 — Tables 1–3, Figures 3–9 and an ablation of
//! PASS's design choices — from one table, [`ARTIFACTS`].
//!
//! An artifact is a row of data: the plan it reads (sessions over a table,
//! each point declaring named [`EngineSpec`]s, then running one query set)
//! and a report printing its panels from the [`WorkloadSummary`] rows of
//! `Session::run_workload`. Artifacts that read one plan share one run of
//! it: Figures 4 and 5 plot two metrics of one rate sweep.
//!
//! `cargo bench -p pass-bench --bench paper -- table3 fig4` runs the named
//! artifacts, no names all of them; each prints its header and tables and
//! writes `target/bench-results/<name>.<scale>.json`. Names are checked
//! before anything runs: an unknown one is an error listing the valid
//! ones. Flags are ignored (`cargo bench` passes `--bench`).

use pass::{EngineSpec, Session};
use pass_bench::{emit_json, mb, pct, print_table, Scale};
use pass_common::{AggKind, PartitionStrategy, PassSpec, Query};
use pass_table::datasets::{tail_start, DatasetId};
use pass_table::{SortedTable, Table};
use pass_workload::{
    challenging_queries, random_queries, random_queries_in, template_queries,
    template_queries_partial, WorkloadSummary,
};

/// Sampling rate wherever an artifact does not sweep it (0.5 %, §5.1.3).
const SAMPLE_RATE: f64 = 0.005;
/// Partition count wherever an artifact does not sweep it.
const PARTITIONS: usize = 64;
/// The partition counts of Table 3 and Figures 3, 6 and 7.
const K_SWEEP: [usize; 6] = [4, 8, 16, 32, 64, 128];
/// The sample rates of Figures 4 and 5.
const RATES: [f64; 10] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];
/// The aggregates of Table 1, in column order.
const AGGS: [AggKind; 3] = [AggKind::Count, AggKind::Sum, AggKind::Avg];

/// Every artifact, in the order of docs/FIGURES.md.
const ARTIFACTS: [Artifact; 11] = [
    Artifact("table1", ("table1", table1_plan), table1),
    Artifact("table2", ("table2", table2_plan), table2),
    Artifact("table3", ("table3", table3_plan), table3),
    Artifact("fig3", ("fig3", fig3_plan), fig3),
    Artifact("fig4", RATE_SWEEP, fig4),
    Artifact("fig5", RATE_SWEEP, fig5),
    Artifact("fig6", ("fig6", fig6_plan), fig6),
    Artifact("fig7", ("fig7", fig7_plan), fig7),
    Artifact("fig8", ("fig8", fig8_plan), fig8),
    Artifact("fig9", ("fig9", fig9_plan), fig9),
    Artifact("ablation", ("ablation", ablation_plan), ablation),
];

/// The one plan two artifacts read: PASS, US, ST and AQP++ at every rate.
const RATE_SWEEP: Plan = ("rates", rate_plan);

/// One table or figure: the name that selects it and names its JSON
/// record, its plan, and the report printing it from the plan's points.
struct Artifact(&'static str, Plan, fn(&Scale, &[Point]));

/// A plan's name and its sessions; the runner runs each name once.
type Plan = (&'static str, fn(&Scale) -> Sweeps<'_>);

/// A plan's sessions, built one at a time as the runner reaches them.
type Sweeps<'a> = Box<dyn Iterator<Item = Sweep> + 'a>;

/// Named engine declarations, in session insertion order.
type Engines = Vec<(String, EngineSpec)>;

/// One session: a table and its points, run in order.
struct Sweep {
    table: Table,
    points: Vec<Point>,
}

/// One `Session::run_workload` call.
#[derive(Default)]
struct Point {
    /// The point's row label in a panel (`"64"`, `"10%"`, `"3D"`).
    label: String,
    /// Appended to every engine name in the JSON record (`US/Intel`).
    tag: String,
    /// Declared before the call; a name the session holds is rebuilt in
    /// place and keeps its row position.
    engines: Engines,
    queries: Vec<Query>,
    /// Filled by the runner: the rows of the session's table, and the
    /// call's summaries, one per engine in session insertion order.
    table_rows: usize,
    rows: Vec<WorkloadSummary>,
}

fn main() {
    let scale = Scale::from_env();
    let args = std::env::args().skip(1);
    let names: Vec<String> = args.filter(|arg| !arg.starts_with('-')).collect();
    let chosen: Vec<&Artifact> = if names.is_empty() {
        ARTIFACTS.iter().collect()
    } else {
        names.iter().map(|name| artifact(name)).collect()
    };
    let mut done: Vec<(&str, Vec<Point>)> = Vec::new();
    for Artifact(name, (plan, sweeps), report) in chosen {
        if !done.iter().any(|(ran, _)| ran == plan) {
            let points = sweeps(&scale).flat_map(|sweep| run(sweep, scale.seed));
            done.push((*plan, points.collect()));
        }
        let (_, points) = done.iter().find(|(ran, _)| ran == plan).expect("run above");
        report(&scale, points);
        emit_json(name, &scale, &records(points));
    }
}

/// The artifact called `name`, or exit listing the valid names.
fn artifact(name: &str) -> &'static Artifact {
    let found = ARTIFACTS.iter().find(|artifact| artifact.0 == name);
    found.unwrap_or_else(|| {
        let valid: Vec<&str> = ARTIFACTS.iter().map(|artifact| artifact.0).collect();
        eprintln!("unknown artifact `{name}`; valid: {}", valid.join(", "));
        std::process::exit(2)
    })
}

/// Build one session and run its points in order, every engine built at
/// `seed`. Every point starts cold: an engine kept from the previous point
/// has its cache cleared, so no row counts answers an earlier point cached.
fn run(sweep: Sweep, seed: u64) -> Vec<Point> {
    let table_rows = sweep.table.n_rows();
    let mut session = Session::new(sweep.table);
    let mut points = sweep.points;
    for point in &mut points {
        for name in session.engine_names() {
            session.clear_cache(name).expect("the session holds it");
        }
        for (name, spec) in &point.engines {
            let spec = spec.clone().with_seed(seed);
            session.add_engine(name.as_str(), &spec).expect("builds");
        }
        point.rows = session.run_workload(&point.queries);
        point.table_rows = table_rows;
    }
    points
}

/// The JSON rows of a plan: every point's rows in order, each engine name
/// suffixed with the point's tag.
fn records(points: &[Point]) -> Vec<WorkloadSummary> {
    let mut records = Vec::new();
    for point in points {
        for row in &point.rows {
            let mut row = row.clone();
            if !point.tag.is_empty() {
                row.engine = format!("{}/{}", row.engine, point.tag);
            }
            records.push(row);
        }
    }
    records
}

fn point(label: impl ToString, tag: impl ToString, engines: Engines, queries: &[Query]) -> Point {
    let (label, tag, queries) = (label.to_string(), tag.to_string(), queries.to_vec());
    Point {
        label,
        tag,
        engines,
        queries,
        ..Point::default()
    }
}

/// A session of `engines` run once, on one query set.
fn single(table: Table, engines: Engines, tag: &str, queries: &[Query]) -> Sweep {
    let points = vec![point(tag, tag, engines, queries)];
    Sweep { table, points }
}

/// Named declarations from `(name, spec)` pairs.
fn engines<const N: usize>(list: [(&str, EngineSpec); N]) -> Engines {
    let named = list.into_iter().map(|(name, spec)| (name.to_owned(), spec));
    named.collect()
}

/// PASS at `partitions` and `sample_rate` (the runner seeds every spec).
fn pass(partitions: usize, sample_rate: f64) -> EngineSpec {
    pass_with(partitions, sample_rate, |_| {})
}

/// [`pass`] with `tweak` applied to its spec.
fn pass_with(partitions: usize, sample_rate: f64, tweak: impl FnOnce(&mut PassSpec)) -> EngineSpec {
    let mut spec = PassSpec::default();
    (spec.partitions, spec.sample_rate) = (partitions, sample_rate);
    tweak(&mut spec);
    EngineSpec::Pass(spec)
}

/// PASS with a storage budget of `total` samples (the BSS mode).
fn bss(total: usize) -> EngineSpec {
    pass_with(PARTITIONS, SAMPLE_RATE, |s| s.total_samples = Some(total))
}

/// The sample size `rate` of the table's rows gives a baseline.
fn sample_size(table: &Table, rate: f64) -> usize {
    ((table.n_rows() as f64) * rate).ceil() as usize
}

/// Random 1-D queries over a table, each covering at least 1 % of its rows.
fn random(table: &Table, count: usize, agg: AggKind, seed: u64) -> Vec<Query> {
    let sorted = SortedTable::from_table(table, 0);
    random_queries(&sorted, count, agg, (sorted.len() / 100).max(10), seed)
}

/// Table 1: US, ST, AQP++ and three PASS budgets; COUNT, SUM and AVG on
/// each 1-D dataset, one session per dataset.
fn table1_plan(scale: &Scale) -> Sweeps<'_> {
    Box::new(DatasetId::ALL.into_iter().map(|id| {
        let table = scale.dataset(id);
        let k = sample_size(&table, SAMPLE_RATE);
        // ESS mode: control tuples *processed per query* rather than
        // stored. A 1-D query partially overlaps ≤ 2 of the k leaves, so
        // PASS can store ~k/2 times more samples than US while touching
        // the same number per query (Section 5.1.4's point that "data
        // skipping could allow one to include more samples into the
        // synopsis").
        let ess_rate = (SAMPLE_RATE * PARTITIONS as f64 / 2.0).min(0.5);
        let mut engines = Some(engines([
            ("US", EngineSpec::uniform(k)),
            ("ST", EngineSpec::stratified(PARTITIONS, k)),
            ("AQP++", EngineSpec::aqppp(PARTITIONS, k)),
            ("PASS-ESS", pass(PARTITIONS, ess_rate)),
            ("PASS-BSS2x", bss(2 * k)),
            ("PASS-BSS10x", bss(10 * k)),
        ]));
        let points = (0..).zip(AGGS).map(|(a, agg)| {
            let queries = random(&table, scale.queries, agg, scale.seed + a);
            // The engines are declared once, at the first point.
            let engines = engines.take().unwrap_or_default();
            point("", format!("{agg}/{id}"), engines, &queries)
        });
        let points = points.collect();
        Sweep { table, points }
    }))
}

/// Table 2: three PASS budgets against VerdictDB- and DeepDB-style
/// engines on the 1-D datasets and the NYC 2D–5D templates.
fn table2_plan(scale: &Scale) -> Sweeps<'_> {
    let taxi = scale.taxi_full();
    let one_d = DatasetId::ALL.map(|id| (id.name().to_owned(), scale.dataset(id)));
    let templates = (2..=5usize).map(move |d| {
        let dims: Vec<usize> = (1..=d).collect();
        (format!("NYC-{d}D"), taxi.project(&dims).unwrap())
    });
    Box::new(one_d.into_iter().chain(templates).map(|(name, table)| {
        let (count, seed) = (scale.md_queries(), scale.seed);
        let queries = match table.dims() {
            1 => random(&table, count, AggKind::Sum, seed),
            _ => template_queries(&table, count, AggKind::Sum, seed),
        };
        let k = sample_size(&table, SAMPLE_RATE);
        let engines = engines([
            ("PASS-BSS1x", bss(k)),
            ("PASS-BSS2x", bss(2 * k)),
            ("PASS-BSS10x", bss(10 * k)),
            ("VerdictDB-10%", EngineSpec::verdict(0.1)),
            ("VerdictDB-100%", EngineSpec::verdict(1.0)),
            ("DeepDB-10%", EngineSpec::spn(0.1)),
            ("DeepDB-100%", EngineSpec::spn(1.0)),
        ]);
        single(table, engines, &name, &queries)
    }))
}

/// Table 3: PASS at every k on NYC, one session for the whole sweep.
fn table3_plan(scale: &Scale) -> Sweeps<'_> {
    let table = scale.dataset(DatasetId::NycTaxi);
    let queries = random(&table, scale.queries, AggKind::Sum, scale.seed);
    // The paper uses an optimization sample rate of 0.0025% on 7.7M rows
    // (~192 samples); keep the absolute sample size comparable at ci scale.
    let opt_samples = ((table.n_rows() as f64) * 0.000025).round().max(192.0) as usize;
    let engines = K_SWEEP.map(|k| {
        let spec = pass_with(k, SAMPLE_RATE, |s| s.opt_samples = opt_samples);
        (format!("PASS/k={k}"), spec)
    });
    Box::new(std::iter::once(single(table, engines.into(), "", &queries)))
}

/// Figure 3: PASS, ST and AQP++ at every partition count beside US, on
/// each 1-D dataset. US has no partitioning knob: its flat series comes
/// from a session where it is the only engine, and the sweep builds it
/// once, at the first point, and keeps it.
fn fig3_plan(scale: &Scale) -> Sweeps<'_> {
    Box::new(DatasetId::ALL.into_iter().flat_map(|id| {
        let table = scale.dataset(id);
        let queries = random(&table, scale.queries, AggKind::Sum, scale.seed);
        let k = sample_size(&table, SAMPLE_RATE);
        let us = EngineSpec::uniform(k);
        let points = K_SWEEP.map(|parts| {
            let mut engines = engines([
                ("PASS", pass(parts, SAMPLE_RATE)),
                ("ST", EngineSpec::stratified(parts, k)),
                ("AQP++", EngineSpec::aqppp(parts, k)),
            ]);
            if parts == K_SWEEP[0] {
                // The figure's series order: PASS, US, ST, AQP++.
                engines.insert(1, ("US".to_owned(), us.clone()));
            }
            point(parts, format!("{id}/k={parts}"), engines, &queries)
        });
        let flat = engines([("US", us.clone())]);
        let flat = single(table.clone(), flat, &id.to_string(), &queries);
        let points = points.into();
        [flat, Sweep { table, points }]
    }))
}

/// Figures 4 and 5: PASS, US, ST and AQP++ at every sample rate, on each
/// 1-D dataset, all four re-declared per rate.
fn rate_plan(scale: &Scale) -> Sweeps<'_> {
    Box::new(DatasetId::ALL.into_iter().map(|id| {
        let table = scale.dataset(id);
        let queries = random(&table, scale.queries, AggKind::Sum, scale.seed);
        let points = RATES.map(|rate| {
            let k = sample_size(&table, rate);
            let engines = engines([
                ("PASS", pass(PARTITIONS, rate)),
                ("US", EngineSpec::uniform(k)),
                ("ST", EngineSpec::stratified(PARTITIONS, k)),
                ("AQP++", EngineSpec::aqppp(PARTITIONS, k)),
            ]);
            let label = format!("{:.0}%", rate * 100.0);
            point(label, format!("{id}/rate={rate}"), engines, &queries)
        });
        let points = points.into();
        Sweep { table, points }
    }))
}

/// A session of ADP (optimizing `objective`) and equal-depth PASS at
/// every partition count, re-declared per point, on workload `name`.
fn adp_vs_eq(table: Table, objective: AggKind, name: &str, queries: &[Query]) -> Sweep {
    let strategy = |parts, strategy| pass_with(parts, SAMPLE_RATE, |s| s.strategy = strategy);
    let points = K_SWEEP.map(|parts| {
        let engines = engines([
            ("ADP", strategy(parts, PartitionStrategy::Adp(objective))),
            ("EQ", strategy(parts, PartitionStrategy::EqualDepth)),
        ]);
        point(parts, format!("{name}/k={parts}"), engines, queries)
    });
    let points = points.into();
    Sweep { table, points }
}

/// Figure 6: ADP against equal depth on the adversarial dataset, one session
/// for random queries and one for challenging ones over its volatile tail.
fn fig6_plan(scale: &Scale) -> Sweeps<'_> {
    let table = scale.adversarial();
    let n = table.n_rows();
    let random = random(&table, scale.queries, AggKind::Sum, scale.seed);
    // Challenging workload: queries confined to the normal-distributed tail.
    let (sorted, tail) = (SortedTable::from_table(&table, 0), tail_start(n));
    let (count, min_rows, seed) = (scale.queries, ((n - tail) / 50).max(5), scale.seed + 1);
    let challenging = random_queries_in(&sorted, tail..n, count, AggKind::Sum, min_rows, seed);
    let random = adp_vs_eq(table.clone(), AggKind::Sum, "Random Queries", &random);
    let challenging = adp_vs_eq(table, AggKind::Sum, "Challenging Queries", &challenging);
    Box::new([random, challenging].into_iter())
}

/// Figure 7: ADP against equal depth on challenging queries, drawn around
/// the maximum-variance window, on each 1-D dataset.
fn fig7_plan(scale: &Scale) -> Sweeps<'_> {
    Box::new(DatasetId::ALL.into_iter().map(|id| {
        let table = scale.dataset(id);
        let sorted = SortedTable::from_table(&table, 0);
        // AVG queries: the challenging workload targets the max-variance
        // window the AVG discretization identifies, and ADP optimizes the
        // same objective (Appendix A.4).
        let (count, seed) = (scale.queries, scale.seed);
        let queries = challenging_queries(&sorted, count, AggKind::Avg, 4_096, 0.01, seed);
        adp_vs_eq(table, AggKind::Avg, &id.to_string(), &queries)
    }))
}

/// Leaves of the k-d trees of Figures 8 and 9 (1024 in the paper).
fn leaves(scale: &Scale) -> usize {
    match scale.label {
        "paper" => 1024,
        _ => 256,
    }
}

/// Figure 8: KD-PASS against KD-US on templates Q1–Q5, template Q_i
/// predicating on the first i of {pickup_time, pickup_date, PULocationID,
/// dropoff_date, dropoff_time} with trip_distance as the aggregate
/// (Section 5.4). One session per template.
fn fig8_plan(scale: &Scale) -> Sweeps<'_> {
    let taxi = scale.taxi_full();
    Box::new((1..=5usize).map(move |dims| {
        let template_dims: Vec<usize> = (1..=dims).collect();
        let table = taxi.project(&template_dims).unwrap();
        let queries = template_queries(&table, scale.md_queries(), AggKind::Avg, scale.seed);
        let k = sample_size(&table, SAMPLE_RATE);
        let engines = engines([
            ("KD-PASS", pass(leaves(scale), SAMPLE_RATE)),
            ("KD-US", EngineSpec::aqppp(leaves(scale), k)),
        ]);
        single(table, engines, &format!("{dims}D"), &queries)
    }))
}

/// Figure 9: workload shift. Both synopses index only the Q2 attributes
/// (dimensions 0 and 1 of the 5-predicate table) but sample in full
/// arity; one session answers templates Q1–Q5.
fn fig9_plan(scale: &Scale) -> Sweeps<'_> {
    let table = scale.taxi_full().project(&[1, 2, 3, 4, 5]).unwrap();
    let (partitions, k) = (leaves(scale), sample_size(&table, SAMPLE_RATE));
    let tree_dims = Some(vec![0, 1]);
    let kd_pass = pass_with(partitions, SAMPLE_RATE, |s| s.tree_dims = tree_dims.clone());
    let kd_us = EngineSpec::AqpPlusPlus {
        partitions,
        k,
        seed: 0,
        tree_dims,
    };
    let mut engines = Some(engines([("KD-PASS(2D)", kd_pass), ("KD-US(2D)", kd_us)]));
    let points = (1..=5usize).map(|dims| {
        let (count, seed) = (scale.md_queries(), scale.seed);
        let queries = template_queries_partial(&table, dims, count, AggKind::Avg, seed);
        // The engines are declared once, at the first point.
        let engines = engines.take().unwrap_or_default();
        point(format!("{dims}D"), format!("{dims}D"), engines, &queries)
    });
    let points = points.collect();
    Box::new(std::iter::once(Sweep { table, points }))
}

/// The ablation: one PASS knob flipped per panel, each panel a session of
/// named variants.
fn ablation_plan(scale: &Scale) -> Sweeps<'_> {
    // 0-variance rule: AVG on the adversarial dataset, whose 87.5%
    // constant-zero prefix guarantees zero-variance leaves. Equal-depth
    // leaves sit fully inside the constant region, so the rule has
    // constant partitions to fire on. (ADP's sampled boundary drags a few
    // tail rows into the zero leaf, which already suppresses the rule.)
    let adversarial = scale.adversarial();
    let sorted = SortedTable::from_table(&adversarial, 0);
    let min_rows = (adversarial.n_rows() / 200).max(10);
    let queries = random_queries(&sorted, scale.queries, AggKind::Avg, min_rows, scale.seed);
    let rule = |on| {
        pass_with(PARTITIONS, SAMPLE_RATE, |s| {
            s.strategy = PartitionStrategy::EqualDepth;
            s.zero_variance_rule = on;
        })
    };
    let rule = engines([
        ("0-variance rule ON", rule(true)),
        ("0-variance rule OFF", rule(false)),
    ]);
    let rule = single(adversarial, rule, "", &queries);
    // Partitioning strategies under one budget, SUM on Instacart.
    let insta = scale.dataset(DatasetId::Instacart);
    let queries = random(&insta, scale.queries, AggKind::Sum, scale.seed);
    let strategy = |strategy| pass_with(PARTITIONS, SAMPLE_RATE, |s| s.strategy = strategy);
    let adp = strategy(PartitionStrategy::Adp(AggKind::Sum));
    let strategies = engines([
        ("ADP (paper)", adp),
        ("hill climbing", strategy(PartitionStrategy::HillClimb)),
        ("equal depth", strategy(PartitionStrategy::EqualDepth)),
        ("equal width", strategy(PartitionStrategy::EqualWidth)),
    ]);
    let strategies = single(insta, strategies, "", &queries);
    Box::new([rule, strategies].into_iter())
}

/// One cell of a panel, from one summary.
type Cell = fn(&WorkloadSummary) -> String;

/// A panel with one row per point: its label, then `cell` of its first
/// rows, one per column after the corner.
fn series(title: &str, headers: &[&str], points: &[Point], cell: Cell) {
    let row = |point: &Point| {
        let cells = point.rows.iter().take(headers.len() - 1).map(cell);
        std::iter::once(point.label.clone()).chain(cells).collect()
    };
    let rows: Vec<Vec<String>> = points.iter().map(row).collect();
    print_table(title, headers, &rows);
}

fn error(summary: &WorkloadSummary) -> String {
    pct(summary.median_relative_error)
}

fn ci_ratio(summary: &WorkloadSummary) -> String {
    pct(summary.median_ci_ratio)
}

fn skip_rate(summary: &WorkloadSummary) -> String {
    format!("{:.4}", summary.mean_skip_rate)
}

fn seconds(ms: f64) -> String {
    format!("{:.2}s", ms / 1e3)
}

/// Print an artifact's header line.
fn header(scale: &Scale, title: &str, details: String) {
    println!("{title} reproduction (scale={}, {details})", scale.label);
}

fn table1(scale: &Scale, points: &[Point]) {
    let details = format!("{} queries/agg, rate=0.5%, k={PARTITIONS}", scale.queries);
    header(scale, "Table 1", details);
    // One point per dataset and aggregate, aggregates innermost; the
    // columns go aggregate by aggregate, dataset by dataset.
    let columns = || (0..AGGS.len()).flat_map(|a| points.iter().skip(a).step_by(AGGS.len()));
    let rows: Vec<Vec<String>> = (0..points[0].rows.len())
        .map(|e| {
            let datasets = points.iter().step_by(AGGS.len());
            let cost: f64 = datasets.map(|p| p.rows[e].build_ms / 3.0).sum();
            let mut row = vec![points[0].rows[e].engine.clone(), seconds(cost)];
            row.extend(columns().map(|point| error(&point.rows[e])));
            row
        })
        .collect();
    let mut headers = vec!["Approach", "MeanCost"];
    headers.extend(columns().map(|point| point.tag.as_str()));
    let title = "Table 1: median relative error (COUNT | SUM | AVG × Intel, Insta, NYC)";
    print_table(title, &headers, &rows);
}

fn table2(scale: &Scale, points: &[Point]) {
    let details = format!("{} queries/workload", scale.md_queries());
    header(scale, "Table 2", details);
    let workloads = points.len() as f64;
    let rows: Vec<Vec<String>> = (0..points[0].rows.len())
        .map(|e| {
            let column = || points.iter().map(move |point| &point.rows[e]);
            let storage: usize = column().map(|s| s.storage_bytes).sum();
            let latency: f64 = column().map(|s| s.mean_latency_us).sum();
            let build: f64 = column().map(|s| s.build_ms).sum();
            let row = [
                points[0].rows[e].engine.clone(),
                format!("{:.2}ms", latency / workloads / 1e3),
                mb((storage as f64 / workloads) as usize),
                seconds(build / workloads),
            ];
            row.into_iter().chain(column().map(error)).collect()
        })
        .collect();
    let mut headers = vec!["Approach", "Latency", "Storage", "Time"];
    headers.extend(points.iter().map(|point| point.tag.as_str()));
    let title = "Table 2: mean cost and median relative error per workload";
    print_table(title, &headers, &rows);
}

fn table3(scale: &Scale, points: &[Point]) {
    let (n, q) = (points[0].table_rows, scale.queries);
    header(scale, "Table 3", format!("NYC n={n}, {q} SUM queries"));
    let rows: Vec<Vec<String>> = (K_SWEEP.iter().zip(&points[0].rows))
        .map(|(k, s)| {
            vec![
                k.to_string(),
                seconds(s.build_ms),
                format!("{:.3}ms", s.mean_latency_us / 1e3),
                format!("{:.3}ms", s.max_latency_us / 1e3),
                error(s),
            ]
        })
        .collect();
    let title = "Table 3: preprocessing cost / latency / accuracy vs k (NYC Taxi)";
    let headers = ["k", "Cost", "Latency", "MaxLatency", "MedianRE"];
    print_table(title, &headers, &rows);
}

fn fig3(scale: &Scale, points: &[Point]) {
    let details = format!("{} SUM queries, rate=0.5%", scale.queries);
    header(scale, "Figure 3", details);
    // Per dataset: the US-only session's point, then the sweep's.
    for dataset in points.chunks(1 + K_SWEEP.len()) {
        let (flat, sweep) = (&dataset[0], &dataset[1..]);
        let (id, us) = (&flat.tag, error(&flat.rows[0]));
        let title =
            format!("Figure 3 — {id}: median relative error vs #partitions (US flat at {us})");
        let headers = ["#partitions", "PASS", "US", "ST", "AQP++"];
        series(&title, &headers, sweep, error);
    }
}

/// Figures 4 and 5: one panel per dataset of the rate sweep.
fn rate_panels(points: &[Point], figure: u8, metric: &str, cell: Cell) {
    for (id, sweep) in DatasetId::ALL.into_iter().zip(points.chunks(RATES.len())) {
        let title = format!("Figure {figure} — {id}: {metric} vs sample rate");
        series(&title, &["rate", "PASS", "US", "ST", "AQP++"], sweep, cell);
    }
}

fn fig4(scale: &Scale, points: &[Point]) {
    let details = format!("{} SUM queries, k={PARTITIONS}", scale.queries);
    header(scale, "Figure 4", details);
    rate_panels(points, 4, "median relative error", error);
}

fn fig5(scale: &Scale, points: &[Point]) {
    let details = format!("{} SUM queries, k={PARTITIONS}, λ=2.576", scale.queries);
    header(scale, "Figure 5", details);
    rate_panels(points, 5, "median CI ratio", ci_ratio);
}

/// Figures 6 and 7: ADP against equal depth, one panel per session.
fn adp_panels(titles: &[String], points: &[Point]) {
    for (title, sweep) in titles.iter().zip(points.chunks(K_SWEEP.len())) {
        series(title, &["#partitions", "ADP", "EQ"], sweep, ci_ratio);
    }
}

fn fig6(scale: &Scale, points: &[Point]) {
    let (n, q) = (points[0].table_rows, scale.queries);
    let details = format!("adversarial n={n}, {q} queries/workload");
    header(scale, "Figure 6", details);
    let workloads = ["Random Queries", "Challenging Queries"];
    let titles = workloads.map(|w| format!("Figure 6 — {w}: median CI ratio vs #partitions"));
    adp_panels(&titles, points);
}

fn fig7(scale: &Scale, points: &[Point]) {
    let details = format!("{} challenging queries/dataset", scale.queries);
    header(scale, "Figure 7", details);
    let title = |id| format!("Figure 7 — {id}: median CI ratio on challenging queries");
    adp_panels(&DatasetId::ALL.map(title), points);
}

/// Figures 8 and 9: the header, the CI ratio of both engines, then the
/// skip rate of KD-PASS, one row per template.
fn templates(scale: &Scale, points: &[Point], figure: u8, [tree, left, right]: [&str; 3]) {
    let (n, q, leaves) = (points[0].table_rows, scale.md_queries(), leaves(scale));
    let details = format!("n={n}, {q} queries/template, {leaves} leaves{tree}");
    header(scale, &format!("Figure {figure}"), details);
    let left = format!("Figure {figure} (left): {left}");
    series(&left, &["template", "KD-PASS", "KD-US"], points, ci_ratio);
    let right = format!("Figure {figure} (right): {right}");
    series(&right, &["template", "skip rate"], points, skip_rate);
}

fn fig8(scale: &Scale, points: &[Point]) {
    let left = "median CI ratio per query template";
    templates(scale, points, 8, ["", left, "KD-PASS average skip rate"]);
}

fn fig9(scale: &Scale, points: &[Point]) {
    let left = "median CI ratio, 2D aggregates answering Q1–Q5";
    let right = "KD-PASS skip rate under workload shift";
    templates(scale, points, 9, [", 2D tree", left, right]);
}

fn ablation(scale: &Scale, points: &[Point]) {
    let (label, q) = (scale.label, scale.queries);
    println!("Ablation study (scale={label}, {q} queries/workload, k={PARTITIONS}, rate=0.5%)");
    type Cells = fn(&WorkloadSummary) -> Vec<String>;
    let panels: [(&str, &[&str], Cells); 2] = [
        (
            "Ablation A — 0-variance rule (AVG on adversarial data)",
            &[
                "variant",
                "median RE",
                "median CI",
                "mean tuples/query",
                "skip rate",
            ],
            |s| {
                let tuples = format!("{:.1}", s.mean_tuples_processed);
                vec![error(s), ci_ratio(s), tuples, skip_rate(s)]
            },
        ),
        (
            "Ablation C — partitioning strategy (SUM on Instacart)",
            &["strategy", "median RE", "median CI"],
            |s| vec![error(s), ci_ratio(s)],
        ),
    ];
    for ((title, headers, cells), point) in panels.into_iter().zip(points) {
        let row = |s: &WorkloadSummary| std::iter::once(s.engine.clone()).chain(cells(s)).collect();
        let rows: Vec<Vec<String>> = point.rows.iter().map(row).collect();
        print_table(title, headers, &rows);
    }
}

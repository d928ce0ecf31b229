//! Output: the per-metric table, `out/results.json`, `out/trace.json`,
//! and the one-line JSON result the benchmark contract asks for.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use crate::affinity::Placement;
use crate::api::Json;
use crate::harness::WorkloadResult;
use crate::stats::Summary;

/// End-to-end metrics every workload reports in the contract line, in
/// `BENCHMARK.json` order. (`update_p50_us` exists on one workload only
/// and `failed_frac` is 0 on a healthy run, which the contract's
/// "every metric on every workload, never 0" rule excludes; both are
/// still printed, written to `results.json`, and checked by `compare`.)
pub const END_TO_END: [&str; 7] = [
    "setup_s",
    "throughput_ops_s",
    "latency_p50_us",
    "latency_p90_us",
    "rel_err_median",
    "ci_coverage",
    "storage_bytes",
];

/// Where result files go: `benchmark/out` under the current directory
/// (the command runs from the repository root), or `out` when run from
/// inside `benchmark/`.
pub fn out_dir() -> PathBuf {
    if Path::new("benchmark").is_dir() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    // The ceiling keeps `git` from walking above the directory the
    // benchmark runs in (a checkout that is not a repository must not
    // report some enclosing repository's commit).
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|dir| dir.parent().map(|p| p.to_path_buf()))
        .unwrap_or_default();
    Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The environment a result was measured in.
pub fn env_block(placement: &Placement, seed: u64, seconds: f64, quick: bool) -> Json {
    Json::obj([
        ("nproc", Json::from(placement.allowed_cpus())),
        (
            "pinned_cpu",
            placement
                .pinned_cpu()
                .map_or(Json::Str("unpinned".into()), Json::from),
        ),
        ("rustc", Json::from(command_line("rustc", &["-V"]))),
        (
            "profile",
            Json::from(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        (
            "git_commit",
            Json::from(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::from(seed)),
        ("seconds", Json::from(seconds)),
        ("quick", Json::from(quick)),
    ])
}

fn summary_json(unit: &str, s: &Summary, exact: bool) -> Json {
    Json::obj([
        ("unit", Json::from(unit)),
        ("value", Json::from(s.value)),
        ("median", Json::from(s.median)),
        ("min", Json::from(s.min)),
        ("max", Json::from(s.max)),
        ("n", Json::from(s.n)),
        ("exact", Json::from(exact)),
    ])
}

fn dynamic_obj<V: Into<Json>>(pairs: impl IntoIterator<Item = (&'static str, V)>) -> Json {
    Json::Obj(
        pairs
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v.into()))
            .collect::<BTreeMap<_, _>>(),
    )
}

/// Print one `workload metric unit value median min max n` line.
pub fn print_row(workload: &str, metric: &str, unit: &str, s: &Summary) {
    println!(
        "{workload:<16} {metric:<34} {unit:<7} {:>16.6} {:>16.6} {:>16.6} {:>16.6} {:>8}",
        s.value, s.median, s.min, s.max, s.n
    );
}

/// Print the table header.
pub fn print_header() {
    println!(
        "{:<16} {:<34} {:<7} {:>16} {:>16} {:>16} {:>16} {:>8}",
        "workload", "metric", "unit", "value", "median", "min", "max", "n"
    );
}

/// Print a workload's metric rows and its failure breakdown.
pub fn print_workload(r: &WorkloadResult) {
    for (metric, unit, summary, _) in &r.metrics {
        print_row(r.name, metric, unit, summary);
    }
    if r.failures.total() > 0 {
        let kinds: Vec<String> = r
            .failures
            .by_kind()
            .iter()
            .filter(|(_, n)| *n > 0)
            .map(|(kind, n)| format!("{kind}={n}"))
            .collect();
        println!(
            "{:<16} FAILED {} of {} ops: {}",
            r.name,
            r.failures.total(),
            r.attempted,
            kinds.join(" ")
        );
    }
}

/// One workload's block of `results.json`.
pub fn workload_json(r: &WorkloadResult) -> Json {
    Json::obj([
        (
            "metrics",
            dynamic_obj(
                r.metrics
                    .iter()
                    .map(|(name, unit, s, exact)| (*name, summary_json(unit, s, *exact))),
            ),
        ),
        ("counts", dynamic_obj(r.counts.iter().copied())),
        ("counts_exact", Json::from(r.counts_exact)),
        ("attempted", Json::from(r.attempted)),
        ("failed", Json::from(r.failures.total())),
        ("failures", dynamic_obj(r.failures.by_kind())),
        ("sizes", dynamic_obj(r.sizes.iter().copied())),
    ])
}

/// Write `out/<file>`; returns the path written.
pub fn write_out(file: &str, contents: &str) -> std::io::Result<PathBuf> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(file);
    std::fs::write(&path, contents)?;
    Ok(path)
}

/// `results.json`: the `env` block plus one block per workload run.
pub fn results_json(env: Json, results: &[WorkloadResult]) -> Json {
    Json::obj([
        ("env", env),
        (
            "workloads",
            dynamic_obj(results.iter().map(|r| (r.name, workload_json(r)))),
        ),
    ])
}

/// The contract's result line: `correct`, `attempted`, `failed`, and
/// `metrics` as `{name: {value, unit}}`, on one line.
pub fn contract_line(
    attempted: u64,
    failed: u64,
    metrics: impl IntoIterator<Item = (&'static str, f64, &'static str)>,
) -> String {
    Json::obj([
        ("correct", Json::from(failed == 0)),
        ("attempted", Json::from(attempted.max(1))),
        ("failed", Json::from(failed)),
        (
            "metrics",
            dynamic_obj(metrics.into_iter().map(|(name, value, unit)| {
                (
                    name,
                    Json::obj([("value", Json::from(value)), ("unit", Json::from(unit))]),
                )
            })),
        ),
    ])
    .to_string()
}

/// The contract line of one end-to-end result.
pub fn end_to_end_line(r: &WorkloadResult) -> String {
    contract_line(
        r.attempted,
        r.failures.total(),
        r.metrics
            .iter()
            .filter(|m| END_TO_END.contains(&m.0))
            .map(|&(name, unit, s, _)| (name, s.value, unit)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{OVERHEAD, PER_LAYER};
    use crate::workloads::NAMES;

    fn names(doc: &Json, key: &str) -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has a `{key}` list"))
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_owned())
            .collect()
    }

    /// `BENCHMARK.json` is what later PRs are judged on; the names the
    /// code reports must be exactly the names it declares.
    #[test]
    fn benchmark_json_declares_exactly_what_the_code_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(names(&doc, "workloads"), NAMES);
        assert_eq!(names(&doc, "end_to_end"), END_TO_END);
        let per_layer: Vec<&str> = PER_LAYER.iter().map(|m| m.0).chain([OVERHEAD.0]).collect();
        assert_eq!(names(&doc, "per_layer"), per_layer);
        let units = doc.get("per_layer").and_then(Json::as_arr).unwrap();
        for (declared, (_, unit)) in units.iter().zip(PER_LAYER.iter().chain([&OVERHEAD])) {
            assert_eq!(declared.get("unit").and_then(Json::as_str), Some(*unit));
        }
    }

    #[test]
    fn contract_line_is_one_line_with_exactly_the_four_keys() {
        let line = contract_line(10, 0, [("setup_s", 0.25, "s")]);
        assert!(!line.contains('\n'));
        let Json::Obj(doc) = Json::parse(&line).unwrap() else {
            panic!("an object")
        };
        let keys: Vec<&str> = doc.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(
            doc["metrics"].get("setup_s").unwrap().to_string(),
            r#"{"unit":"s","value":0.25}"#
        );
        assert_eq!(doc["correct"], Json::Bool(true));
    }
}

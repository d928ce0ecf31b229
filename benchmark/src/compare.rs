//! `compare A.json B.json`: apply the regression bounds in
//! `BENCHMARK.json` to two `results.json` files (A = parent, B = change).
//!
//! Timing metrics may worsen by at most their bound. Metrics flagged
//! `exact` (accuracy, storage, failure share) and the checked-cycle
//! counts of the single-threaded workloads must be bit-identical when
//! both files come from the same seed; `failed_frac` may never rise.

use std::collections::BTreeMap;
use std::path::Path;

use crate::api::Json;

/// Bound for gated timing metrics `BENCHMARK.json` cannot carry
/// (`update_p50_us` exists on one workload only).
const DEFAULT_BOUND: f64 = 0.10;

/// Direction and allowed worsening of one gated metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// Share of A's value by which B may be worse.
    pub bound: f64,
}

/// What `compare` concluded about one metric (or count).
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Within its bound, or identical as required.
    Ok,
    /// Not gated; shown for information.
    Info,
    /// Worse than A by more than the bound.
    Regressed,
    /// Must repeat exactly under one seed and did not.
    ExactDiffers,
    /// Present in A, missing in B.
    Missing,
}

/// One line of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Workload name.
    pub workload: String,
    /// Metric or count name.
    pub metric: String,
    /// A's value.
    pub a: f64,
    /// B's value.
    pub b: f64,
    /// Signed share by which B is *worse* than A (negative = better).
    pub worse_by: f64,
    /// The bound applied, if gated by one.
    pub bound: Option<f64>,
    /// The conclusion.
    pub verdict: Verdict,
}

impl Finding {
    /// Whether this line rejects B.
    pub fn rejects(&self) -> bool {
        !matches!(self.verdict, Verdict::Ok | Verdict::Info)
    }
}

/// Read the `end_to_end` bounds out of a parsed `BENCHMARK.json`.
pub fn bounds_from(benchmark: &Json) -> Result<BTreeMap<String, Bound>, String> {
    let metrics = benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let mut out = BTreeMap::new();
    for m in metrics {
        let field = |key: &str| m.get(key).ok_or(format!("end_to_end entry lacks `{key}`"));
        let name = field("name")?.as_str().ok_or("name is not a string")?;
        let better = field("better")?.as_str().ok_or("better is not a string")?;
        let bound = field("bound")?.as_f64().ok_or("bound is not a number")?;
        out.insert(
            name.to_owned(),
            Bound {
                higher_is_better: better == "higher",
                bound,
            },
        );
    }
    out.entry("update_p50_us".to_owned()).or_insert(Bound {
        higher_is_better: false,
        bound: DEFAULT_BOUND,
    });
    Ok(out)
}

fn same_inputs(a: &Json, b: &Json) -> bool {
    let key = |j: &Json, k: &str| j.get("env").and_then(|e| e.get(k)).cloned();
    key(a, "seed") == key(b, "seed") && key(a, "quick") == key(b, "quick")
}

fn worse_by(a: f64, b: f64, higher_is_better: bool) -> f64 {
    let delta = if higher_is_better { a - b } else { b - a };
    if a == 0.0 {
        if delta > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        delta / a.abs()
    }
}

/// Compare two parsed `results.json` documents.
pub fn compare(bounds: &BTreeMap<String, Bound>, a: &Json, b: &Json) -> Vec<Finding> {
    let same_inputs = same_inputs(a, b);
    let mut findings = Vec::new();
    let (Some(Json::Obj(wa)), Some(wb)) = (a.get("workloads"), b.get("workloads")) else {
        return findings;
    };
    for (workload, ra) in wa {
        let Some(rb) = wb.get(workload) else { continue };
        let mut push = |metric: &str, a: f64, b: f64, worse_by: f64, bound, verdict| {
            findings.push(Finding {
                workload: workload.clone(),
                metric: metric.to_owned(),
                a,
                b,
                worse_by,
                bound,
                verdict,
            });
        };
        if let Some(Json::Obj(metrics)) = ra.get("metrics") {
            for (name, ma) in metrics {
                let value = |m: &Json| m.get("value").and_then(Json::as_f64);
                let Some(va) = value(ma) else { continue };
                let mb = rb.get("metrics").and_then(|m| m.get(name));
                let Some(vb) = mb.and_then(value) else {
                    push(name, va, f64::NAN, f64::NAN, None, Verdict::Missing);
                    continue;
                };
                let exact = ma.get("exact").and_then(Json::as_bool) == Some(true);
                let gate = bounds.get(name.as_str());
                let worse = worse_by(va, vb, gate.is_some_and(|g| g.higher_is_better));
                let (bound, verdict) = if name == "failed_frac" {
                    let rose = vb > va;
                    (
                        Some(0.0),
                        if rose {
                            Verdict::Regressed
                        } else {
                            Verdict::Ok
                        },
                    )
                } else if exact && same_inputs {
                    let same = va.to_bits() == vb.to_bits();
                    (
                        Some(0.0),
                        if same {
                            Verdict::Ok
                        } else {
                            Verdict::ExactDiffers
                        },
                    )
                } else if let Some(g) = gate {
                    let ok = worse <= g.bound;
                    (
                        Some(g.bound),
                        if ok { Verdict::Ok } else { Verdict::Regressed },
                    )
                } else {
                    (None, Verdict::Info)
                };
                push(name, va, vb, worse, bound, verdict);
            }
        }
        let counts_exact = |r: &Json| r.get("counts_exact").and_then(Json::as_bool) == Some(true);
        if let Some(Json::Obj(counts)) = ra.get("counts") {
            let asserted = same_inputs && counts_exact(ra) && counts_exact(rb);
            for (name, ca) in counts {
                let cb = rb.get("counts").and_then(|c| c.get(name));
                let (Some(va), Some(vb)) = (ca.as_f64(), cb.and_then(Json::as_f64)) else {
                    continue;
                };
                let verdict = match (asserted, va == vb) {
                    (false, _) => Verdict::Info,
                    (true, true) => Verdict::Ok,
                    (true, false) => Verdict::ExactDiffers,
                };
                let label = format!("count.{name}");
                push(&label, va, vb, 0.0, asserted.then_some(0.0), verdict);
            }
        }
    }
    findings
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The `compare` subcommand: print every line, fail on any rejection.
pub fn run(a_path: &str, b_path: &str) -> Result<(), String> {
    let benchmark = ["BENCHMARK.json", "../BENCHMARK.json"]
        .into_iter()
        .find(|p| Path::new(p).is_file())
        .ok_or("BENCHMARK.json not found in . or ..")?;
    let bounds = bounds_from(&load(benchmark)?)?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    if !same_inputs(&a, &b) {
        println!("# seeds or sizes differ: exact metrics fall back to their bounds, counts are not asserted");
    }
    let findings = compare(&bounds, &a, &b);
    if findings.is_empty() {
        return Err("the two files share no workload".into());
    }
    println!(
        "{:<16} {:<28} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse_by", "bound"
    );
    for f in &findings {
        println!(
            "{:<16} {:<28} {:>16.6} {:>16.6} {:>8.2}% {:>7}  {:?}",
            f.workload,
            f.metric,
            f.a,
            f.b,
            f.worse_by * 100.0,
            f.bound
                .map_or("-".to_owned(), |b| format!("{:.0}%", b * 100.0)),
            f.verdict
        );
    }
    let rejected = findings.iter().filter(|f| f.rejects()).count();
    if rejected > 0 {
        return Err(format!("{rejected} metric(s) outside their bounds"));
    }
    println!("# B is within every bound of A");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark() -> Json {
        Json::parse(
            r#"{"end_to_end": [
                {"name": "throughput_ops_s", "unit": "ops/s", "better": "higher", "bound": 0.1},
                {"name": "latency_p50_us", "unit": "us", "better": "lower", "bound": 0.1},
                {"name": "rel_err_median", "unit": "ratio", "better": "lower", "bound": 0.25}
            ]}"#,
        )
        .unwrap()
    }

    fn results(throughput: f64, p50: f64, rel_err: f64, failed_frac: f64, seed: u64) -> Json {
        Json::parse(&format!(
            r#"{{"env": {{"seed": {seed}, "quick": false}}, "workloads": {{"adhoc_1d": {{
                "metrics": {{
                    "throughput_ops_s": {{"unit": "ops/s", "value": {throughput}, "exact": false}},
                    "latency_p50_us": {{"unit": "us", "value": {p50}, "exact": false}},
                    "latency_p99_us": {{"unit": "us", "value": 3.0, "exact": false}},
                    "rel_err_median": {{"unit": "ratio", "value": {rel_err}, "exact": true}},
                    "failed_frac": {{"unit": "ratio", "value": {failed_frac}, "exact": true}}
                }},
                "counts": {{"exact_answers": 12}}, "counts_exact": true
            }}}}}}"#
        ))
        .unwrap()
    }

    fn rejected(a: &Json, b: &Json) -> Vec<String> {
        compare(&bounds_from(&benchmark()).unwrap(), a, b)
            .into_iter()
            .filter(Finding::rejects)
            .map(|f| f.metric)
            .collect()
    }

    #[test]
    fn identical_files_are_accepted() {
        let a = results(1.0e6, 0.8, 1.5e-4, 0.0, 7);
        assert!(rejected(&a, &a.clone()).is_empty());
    }

    #[test]
    fn a_fifteen_percent_throughput_drop_is_rejected_and_five_is_not() {
        let a = results(1.0e6, 0.8, 1.5e-4, 0.0, 7);
        assert_eq!(
            rejected(&a, &results(0.85e6, 0.8, 1.5e-4, 0.0, 7)),
            ["throughput_ops_s"]
        );
        assert!(rejected(&a, &results(0.95e6, 0.84, 1.5e-4, 0.0, 7)).is_empty());
        // Better is never a regression, however large.
        assert!(rejected(&a, &results(2.0e6, 0.4, 1.5e-4, 0.0, 7)).is_empty());
        assert_eq!(
            rejected(&a, &results(1.0e6, 0.9, 1.5e-4, 0.0, 7)),
            ["latency_p50_us"]
        );
    }

    #[test]
    fn any_failed_frac_rise_is_rejected() {
        let a = results(1.0e6, 0.8, 1.5e-4, 0.0, 7);
        assert_eq!(
            rejected(&a, &results(1.0e6, 0.8, 1.5e-4, 1e-7, 7)),
            ["failed_frac"]
        );
        // ... even across seeds, where other exact metrics relax.
        assert_eq!(
            rejected(&a, &results(1.0e6, 0.8, 1.6e-4, 1e-7, 8)),
            ["failed_frac"]
        );
    }

    #[test]
    fn exact_metrics_must_repeat_under_one_seed_and_use_bounds_across_seeds() {
        let a = results(1.0e6, 0.8, 1.5e-4, 0.0, 7);
        assert_eq!(
            rejected(&a, &results(1.0e6, 0.8, 1.5001e-4, 0.0, 7)),
            ["rel_err_median"]
        );
        assert!(rejected(&a, &results(1.0e6, 0.8, 1.6e-4, 0.0, 8)).is_empty());
        assert_eq!(
            rejected(&a, &results(1.0e6, 0.8, 2.0e-4, 0.0, 8)),
            ["rel_err_median"]
        );
    }

    #[test]
    fn exact_counts_are_asserted_only_under_one_seed() {
        let a = results(1.0e6, 0.8, 1.5e-4, 0.0, 7);
        let mut b = results(1.0e6, 0.8, 1.5e-4, 0.0, 7);
        let swap = |j: &mut Json| {
            let Json::Obj(root) = j else { unreachable!() };
            let Some(Json::Obj(w)) = root.get_mut("workloads") else {
                unreachable!()
            };
            let Some(Json::Obj(r)) = w.get_mut("adhoc_1d") else {
                unreachable!()
            };
            r.insert(
                "counts".into(),
                Json::parse(r#"{"exact_answers": 13}"#).unwrap(),
            );
        };
        swap(&mut b);
        assert_eq!(rejected(&a, &b), ["count.exact_answers"]);
        let mut c = results(1.0e6, 0.8, 1.5e-4, 0.0, 8);
        swap(&mut c);
        assert!(rejected(&a, &c).is_empty());
    }
}

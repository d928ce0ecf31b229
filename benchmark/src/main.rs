//! The repo's benchmark. One command measures four named workloads end
//! to end (`run`), a separate traced run attributes the time layer by
//! layer (`trace`, or `run --trace 1`), and `compare` applies the
//! regression bounds in `BENCHMARK.json` to two result files. See
//! `benchmark/README.md` for every metric and workload with its reason.
//!
//! The library is touched only through the public functions listed in
//! [`api`], timed from outside.

#![warn(missing_docs)]

mod affinity;
mod api;
mod compare;
mod harness;
mod inputs;
mod layers;
mod report;
mod rng;
mod span;
mod stats;
mod workloads;

use std::process::ExitCode;

use affinity::Placement;
use inputs::Sizes;

const USAGE: &str = "\
usage: pass-benchmark run     [--workload NAME] [--seed N] [--seconds S] [--quick] [--trace 0|1]
       pass-benchmark trace   [--workload NAME] [--seed N] [--seconds S] [--quick]
       pass-benchmark compare A.json B.json

workloads: adhoc_1d batch_md dashboard_serve stream_updates (default: all four)
--seed     generates every input (default 7)
--seconds  measured time per workload (default 10; --quick: 1 and a tenth of the rows)
--trace 1  the layer-by-layer traced run instead of the end-to-end run
With --workload, the last line of output is the one-line JSON result.";

/// Parsed `run` / `trace` options.
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    quick: bool,
    trace: bool,
}

fn parse(args: &[String], trace: bool) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 7,
        seconds: None,
        quick: false,
        trace,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                if !workloads::NAMES.contains(&name.as_str()) {
                    return Err(format!("unknown workload `{name}`"));
                }
                o.workload = Some(name);
            }
            "--seed" => {
                o.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let seconds: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                o.seconds = Some(seconds);
            }
            "--trace" => {
                o.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--quick" => o.quick = true,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(o)
}

fn run(o: &Options) -> Result<(), String> {
    let placement = Placement::pin();
    match placement.pinned_cpu() {
        Some(cpu) => println!("# pinned to CPU {cpu} of {}", placement.allowed_cpus()),
        None => println!("# could not pin to one CPU: running un-pinned, expect wider spreads"),
    }
    let sizes = if o.quick {
        Sizes::quick()
    } else {
        Sizes::full()
    };
    let seconds = o.seconds.unwrap_or(if o.quick { 1.0 } else { 10.0 });
    let env = report::env_block(&placement, o.seed, seconds, o.quick);
    let selected: Vec<&str> = match &o.workload {
        Some(name) => vec![name.as_str()],
        None => workloads::NAMES.to_vec(),
    };

    let last_line = if o.trace {
        let traced = layers::run(&selected, o.seed, &sizes, &placement);
        traced.print();
        let path = report::write_out("trace.json", &traced.to_json(env))
            .map_err(|e| format!("writing trace.json: {e}"))?;
        println!("# wrote {}", path.display());
        traced.contract_line()
    } else {
        report::print_header();
        let mut results = Vec::new();
        for name in &selected {
            let result = workloads::run(name, o.seed, seconds, &sizes).expect("validated name");
            report::print_workload(&result);
            results.push(result);
        }
        let json = report::results_json(env, &results).pretty();
        let path = report::write_out("results.json", &json)
            .map_err(|e| format!("writing results.json: {e}"))?;
        println!("# wrote {}", path.display());
        report::end_to_end_line(results.last().expect("at least one workload"))
    };
    if o.workload.is_some() {
        println!("{last_line}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse(rest, false).and_then(|o| run(&o)),
        Some((cmd, rest)) if cmd == "trace" => parse(rest, true).and_then(|o| run(&o)),
        Some((cmd, rest)) if cmd == "compare" => match rest {
            [a, b] => compare::run(a, b),
            _ => Err("compare takes two result files".into()),
        },
        _ => Err(USAGE.into()),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

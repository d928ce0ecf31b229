//! Routed serving end to end: one `pass::Serve` fronting **two**
//! engines through a shared queue and worker pool, bulk sweeps with
//! deadlines, duplicate dashboard queries coalesced into one batch, and
//! the per-engine stats read back.
//!
//! This is the runnable version of the README's routed-serving rung;
//! CI compiles *and runs* it (like `serve_quickstart.rs`), so the
//! documented multi-engine API cannot drift from the real one.
//!
//! ```sh
//! cargo run --release --example multi_engine_serve
//! ```

use std::time::Duration;

use pass::common::{AggKind, Query};
use pass::table::datasets::uniform;
use pass::{EngineSpec, ServeConfig, ServeOutcome, Session, SubmitOptions, Ticket};

fn main() {
    // Offline: one table, two engines. PASS answers the interactive
    // dashboard; a cheap uniform sample absorbs the bulk sweeps.
    let mut session = Session::new(uniform(60_000, 42));
    session.add_engine("pass", &EngineSpec::pass()).unwrap();
    session
        .add_engine("us", &EngineSpec::uniform(2_000))
        .unwrap();

    // Online: one routed server over both engines, each submission
    // naming the engine it is for. Pausing it before the first submit
    // lets the whole burst queue up before the workers drain it, so the
    // scheduling effects below are deterministic.
    let serve = session
        .serve_multi(
            &["pass", "us"],
            ServeConfig::new().with_workers(2).with_queue_depth(64),
        )
        .unwrap();
    serve.pause();
    println!("serving engines: {:?}", serve.engines());

    // A dashboard fires the same query from several widgets at once.
    // Each takes a queue slot. A worker glues the queued copies onto the
    // batch it pops, and within a batch the engine's cache computes the
    // query once.
    let hot = Query::interval(AggKind::Sum, 0.2, 0.7);
    let widgets: Vec<Ticket> = (0..4)
        .map(|_| serve.submit_to("pass", &hot).unwrap())
        .collect();

    // Bulk sweeps routed to the sampling engine, with deadlines. They
    // run in submission order, after the queued interactive widgets; a
    // sweep still queued when its deadline passes expires unexecuted.
    let sweep: Vec<Query> = (0..128)
        .map(|i| Query::interval(AggKind::Count, (i % 32) as f64 / 40.0, 0.95))
        .collect();
    let urgent_sweep = serve
        .submit(
            "us",
            &sweep,
            &SubmitOptions::bulk().with_deadline(Duration::from_millis(50)),
        )
        .unwrap();
    let lazy_sweep = serve
        .submit(
            "us",
            &sweep,
            &SubmitOptions::bulk().with_deadline(Duration::from_secs(5)),
        )
        .unwrap();

    // The two sweeps are the *same* queries on the same engine: each
    // keeps its own deadline, and a repeat the cache already holds is
    // answered from it. Release the workers and read everything back.
    serve.resume();

    // Served answers are bit-identical to direct session calls — per
    // engine, through one shared server.
    let direct = session.estimate("pass", &hot).unwrap();
    for (i, widget) in widgets.iter().enumerate() {
        let results = widget.wait().results().unwrap();
        let est = results[0].as_ref().unwrap();
        assert_eq!(est.value, direct.value);
        println!(
            "widget {i}: {:.1} ± {:.1}  (bit-identical to direct)",
            est.value, est.ci_half
        );
    }

    for (label, ticket) in [("urgent", &urgent_sweep), ("lazy", &lazy_sweep)] {
        match ticket.wait() {
            ServeOutcome::Done(results) => {
                println!("{label} sweep on `us`: {} results", results.len());
            }
            ServeOutcome::Expired => {
                println!("{label} sweep on `us`: expired before a worker got to it");
            }
            other => println!("{label} sweep on `us`: {other:?}"),
        }
    }

    // The per-engine breakdown a capacity planner reads: which route
    // carried the load, which shed it, and how far coalescing went.
    let stats = serve.shutdown();
    println!(
        "totals: accepted {} rejected {} expired {} completed {} in {} batches",
        stats.accepted, stats.rejected, stats.expired, stats.completed, stats.batches
    );
    println!(
        "queue high-water {}/{}; latency p50 {} us, p99 {} us",
        stats.queue_high_water, stats.queue_capacity, stats.p50_latency_us, stats.p99_latency_us
    );
    for row in &stats.per_engine {
        println!(
            "  engine {:>4}: completed {} rejected {} expired {} batches {}",
            row.engine, row.completed, row.rejected, row.expired, row.batches
        );
    }
    // Six submissions, each resolved exactly once. How they split into
    // batches depends on which of the two workers pops what.
    assert_eq!(stats.accepted, 6);
    assert_eq!(stats.completed + stats.expired, stats.accepted);
}

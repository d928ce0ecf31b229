//! The serving front-end end to end: spin up `pass::Serve` over one
//! engine, mix interactive and bulk traffic with deadlines, watch
//! admission control shed load on a deliberately tiny queue, and read
//! the serving stats back.
//!
//! This is the runnable version of the README's "served" rung; CI
//! compiles it (`cargo build --examples`), so the documented API cannot
//! drift from the real one.
//!
//! ```sh
//! cargo run --release --example serve_quickstart
//! ```

use std::time::Duration;

use pass::common::{AggKind, Query};
use pass::table::datasets::uniform;
use pass::{EngineSpec, ServeConfig, ServeOutcome, Session, SubmitOptions, Ticket};

fn main() {
    // Offline: one table, one PASS engine (see `examples/quickstart.rs`
    // for the spec walkthrough).
    let mut session = Session::new(uniform(100_000, 42));
    session.add_engine("pass", &EngineSpec::pass()).unwrap();

    // Online: the serving front-end. Two workers drain a bounded queue;
    // requests beyond `queue_depth` are rejected at the door instead of
    // growing the backlog, and queued requests coalesce into the
    // engine's batched fast path.
    let serve = session
        .serve(
            "pass",
            ServeConfig::new().with_workers(2).with_queue_depth(64),
        )
        .unwrap();

    // Submissions return tickets immediately; execution is asynchronous.
    let q = Query::interval(AggKind::Sum, 0.2, 0.7);
    let interactive = serve.submit_to("pass", &q).unwrap();

    // A bulk analytics sweep: lower priority (queued interactive work
    // overtakes it) and a deadline — if the server is too backlogged to
    // start it within 5 s, it expires without occupying a worker.
    let sweep: Vec<Query> = (0..256)
        .map(|i| Query::interval(AggKind::Count, (i % 64) as f64 / 80.0, 0.95))
        .collect();
    let options = SubmitOptions::bulk().with_deadline(Duration::from_secs(5));
    let bulk = serve.submit("pass", &sweep, &options).unwrap();

    // Block for the interactive answer (poll() would do it without
    // blocking); served answers are bit-identical to direct session
    // calls.
    let answer = &interactive.wait().results().unwrap()[0];
    let direct = session.estimate("pass", &q).unwrap();
    let est = answer.as_ref().unwrap();
    assert_eq!(est.value, direct.value);
    println!(
        "interactive: {:.1} ± {:.1}  (bit-identical to direct call)",
        est.value, est.ci_half
    );

    match bulk.wait() {
        ServeOutcome::Done(results) => println!("bulk sweep: {} results", results.len()),
        ServeOutcome::Expired => println!("bulk sweep: expired before a worker got to it"),
        other => println!("bulk sweep: {other:?}"),
    }

    // Saturate the queue from several client threads: every submission
    // resolves — Done or Rejected — and nothing blocks the submitters.
    let mut done = 0u64;
    let mut shed = 0u64;
    let tickets: Vec<Ticket> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let serve = &serve;
                s.spawn(move || {
                    (0..100)
                        .map(|i| {
                            let q = Query::interval(AggKind::Sum, (i % 50) as f64 / 60.0, 0.9);
                            serve.submit_to("pass", &q).unwrap()
                        })
                        .collect::<Vec<Ticket>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    for ticket in tickets {
        match ticket.wait() {
            ServeOutcome::Done(_) => done += 1,
            ServeOutcome::Rejected => shed += 1,
            other => println!("unexpected: {other:?}"),
        }
    }
    println!("burst of 400: {done} served, {shed} shed by admission control");

    // The stats a capacity planner reads: counters, queue high-water,
    // and p50/p99 submit-to-completion latency.
    let stats = serve.shutdown();
    println!(
        "stats: accepted {} rejected {} expired {} completed {} in {} batches",
        stats.accepted, stats.rejected, stats.expired, stats.completed, stats.batches
    );
    println!(
        "queue high-water {}/{}; latency p50 {} us, p99 {} us",
        stats.queue_high_water, stats.queue_capacity, stats.p50_latency_us, stats.p99_latency_us
    );
}

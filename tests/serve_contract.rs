//! The serving-layer contract (`pass::Serve`), pinned end to end:
//!
//! 1. **Fidelity** — served answers are bit-identical to direct
//!    `Session::estimate` calls for every engine in
//!    `Engine::standard_suite`, errors included. The serving tier adds
//!    queueing, coalescing, and scheduling; it must never change an
//!    answer.
//! 2. **Admission control** — the bounded queue rejects *exactly* beyond
//!    capacity, and rejected submissions never block or execute.
//! 3. **Deadlines** — a request whose deadline passes while queued
//!    resolves to `Expired` without the engine ever seeing it.
//! 4. **Priorities** — co-queued interactive requests complete before
//!    bulk requests, observable through ticket completion stamps.
//! 5. **Completion** — a coalesced batch resolves every ticket (all
//!    outcomes stored, then the parked clients woken) with stamps in
//!    submission order, and expires exactly the waiters whose deadline
//!    passed.
//! 6. **One way in** — both entry points over every engine × request
//!    shape × option set answer like the direct `Session` call, and so
//!    does a group-by submitted as its per-category queries; an unknown
//!    engine name is an `Err` that takes no queue slot.
//! 7. **Books** — the `stats()` totals are the sums of the per-engine
//!    rows, `completed + expired <= accepted` in every snapshot, and a
//!    batch is counted before its first answer is visible: a client
//!    never holds more outcomes than `completed` reports.

use std::time::Duration;

use pass::common::{AggKind, GroupByQuery, Query};
use pass::table::datasets::uniform;
use pass::table::Table;
use pass::{
    Engine, EngineServeStats, EngineSpec, Serve, ServeConfig, ServeOutcome, ServeStats, Session,
    SubmitOptions, Ticket,
};

fn suite_queries() -> Vec<Query> {
    let aggs = [
        AggKind::Sum,
        AggKind::Count,
        AggKind::Avg,
        AggKind::Min,
        AggKind::Max,
    ];
    let mut queries = Vec::new();
    for (i, agg) in aggs.iter().enumerate() {
        for j in 0..6 {
            let lo = (i * 6 + j) as f64 / 40.0;
            queries.push(Query::interval(*agg, lo, (lo + 0.3).min(1.0)));
        }
        // A degenerate sliver too: some engines answer these with errors,
        // and served errors must match direct errors.
        queries.push(Query::interval(*agg, 0.9999, 0.99995));
    }
    queries
}

/// Served results are bit-identical to direct `Session::estimate` for
/// the whole standard suite. The served session and the direct session
/// are **separate builds** from identical specs, so the comparison pins
/// the serving path itself, not a shared cache.
#[test]
fn served_answers_are_bit_identical_to_direct_estimates_for_the_standard_suite() {
    let queries = suite_queries();
    for spec in Engine::standard_suite(16, 400, 3) {
        let mut direct = Session::new(uniform(8_000, 11));
        direct.add_engine("engine", &spec).unwrap();
        let mut served = Session::new(uniform(8_000, 11));
        served.add_engine("engine", &spec).unwrap();
        let serve = served
            .serve("engine", ServeConfig::new().with_workers(2))
            .unwrap();

        // Mixed single and batched submissions.
        let singles: Vec<Ticket> = queries
            .iter()
            .map(|q| serve.submit_to("engine", q).unwrap())
            .collect();
        let options = SubmitOptions::default();
        let batch = serve.submit("engine", &queries, &options).unwrap();

        for (query, ticket) in queries.iter().zip(&singles) {
            let got = ticket.wait().results().unwrap();
            assert_eq!(
                got[0],
                direct.estimate("engine", query),
                "single {query:?} on {spec:?}"
            );
        }
        let got = batch.wait().results().unwrap();
        assert_eq!(got.len(), queries.len());
        for (query, result) in queries.iter().zip(&got) {
            assert_eq!(
                *result,
                direct.estimate("engine", query),
                "batched {query:?} on {spec:?}"
            );
        }
        let stats = serve.shutdown();
        assert_eq!(stats.accepted, queries.len() as u64 + 1);
        assert_eq!(stats.completed, queries.len() as u64 + 1);
        assert_eq!((stats.rejected, stats.expired), (0, 0));
    }
}

fn paused_single_worker(session: &Session, depth: usize) -> Serve {
    let config = ServeConfig::new().with_workers(1).with_queue_depth(depth);
    let serve = session.serve("pass", config).unwrap();
    serve.pause();
    serve
}

fn pass_session() -> Session {
    let mut s = Session::new(uniform(5_000, 21));
    s.add_engine("pass", &EngineSpec::pass()).unwrap();
    s
}

/// The queue admits exactly `queue_depth` requests; the next is rejected
/// synchronously, and draining one slot re-admits exactly one.
#[test]
fn queue_rejects_exactly_beyond_capacity() {
    let session = pass_session();
    let depth = 4;
    let serve = paused_single_worker(&session, depth);
    let q = Query::interval(AggKind::Sum, 0.2, 0.8);

    let accepted: Vec<Ticket> = (0..depth)
        .map(|_| serve.submit_to("pass", &q).unwrap())
        .collect();
    for t in &accepted {
        assert_eq!(t.poll(), None, "accepted requests are pending, not shed");
    }
    // Requests depth+1 .. depth+3 are all rejected — immediately, in both
    // priority classes.
    let bulk = SubmitOptions::bulk();
    for _ in 0..3 {
        let interactive = serve.submit_to("pass", &q).unwrap();
        assert_eq!(interactive.poll(), Some(ServeOutcome::Rejected));
        let bulk = serve
            .submit("pass", std::slice::from_ref(&q), &bulk)
            .unwrap();
        assert_eq!(bulk.poll(), Some(ServeOutcome::Rejected));
    }
    let stats = serve.stats();
    assert_eq!(stats.accepted, depth as u64);
    assert_eq!(stats.rejected, 6);
    assert_eq!(stats.queue_high_water, depth);
    assert_eq!(stats.queue_capacity, depth);

    // Execution drains the queue and re-opens admission.
    serve.resume();
    for t in accepted {
        assert!(t.wait().is_done());
    }
    assert!(serve.submit_to("pass", &q).unwrap().wait().is_done());
    let stats = serve.stats();
    assert_eq!((stats.accepted, stats.rejected), (depth as u64 + 1, 6));
}

/// An expired-deadline request resolves to `Expired` and the engine
/// never executes it — observable through the session's per-engine
/// cache counters, which every executed query must touch.
#[test]
fn expired_requests_resolve_without_executing() {
    let session = pass_session();
    let serve = paused_single_worker(&session, 16);
    let q = Query::interval(AggKind::Sum, 0.3, 0.7);

    let stale = SubmitOptions::interactive().with_deadline(Duration::ZERO);
    let generous = SubmitOptions::interactive().with_deadline(Duration::from_secs(300));
    let q = std::slice::from_ref(&q);
    let doomed = serve.submit("pass", q, &stale).unwrap();
    let alive = serve.submit("pass", q, &generous).unwrap();
    let before = session.cache_stats("pass").unwrap();
    serve.resume();

    assert_eq!(doomed.wait(), ServeOutcome::Expired);
    assert_eq!(doomed.completion_index(), None);
    assert!(alive.wait().is_done(), "a live deadline executes normally");

    let delta = session.cache_stats("pass").unwrap().since(&before);
    assert_eq!(
        delta.hits + delta.misses,
        1,
        "exactly one query (the live one) reached the engine path"
    );
    let stats = serve.shutdown();
    assert_eq!(stats.expired, 1);
    assert_eq!(stats.completed, 1);
}

/// One coalesced batch, resolve-then-wake: 64 single-query tickets (and
/// one already-stale submission in their midst) queue behind a paused
/// worker, a client thread blocks on ticket 0, and the resume executes
/// them as a single engine batch. Every answer is bit-identical to the
/// direct one, completion stamps follow submission order (one worker:
/// a total order), and the stale waiter — which takes the slow,
/// partitioning path of `execute` while its 64 neighbours take the
/// allocation-free one — resolves `Expired` without reaching the engine.
#[test]
fn a_coalesced_batch_resolves_in_submission_order_and_expires_only_the_stale_waiter() {
    let session = pass_session();
    let direct = pass_session();
    let serve = paused_single_worker(&session, 128);
    let queries: Vec<Query> = (0..64)
        .map(|i| Query::interval(AggKind::Sum, i as f64 / 100.0, 0.3 + i as f64 / 100.0))
        .collect();

    let mut tickets = Vec::new();
    let mut stale = None;
    for (i, query) in queries.iter().enumerate() {
        if i == 32 {
            let q = Query::interval(AggKind::Count, 0.05, 0.95);
            let options = SubmitOptions::interactive().with_deadline(Duration::ZERO);
            stale = Some(serve.submit("pass", &[q], &options).unwrap());
        }
        tickets.push(serve.submit_to("pass", query).unwrap());
    }
    let stale = stale.unwrap();
    assert_eq!(serve.queue_depth(), 65);

    let before = session.cache_stats("pass").unwrap();
    std::thread::scope(|s| {
        let parked = s.spawn(|| tickets[0].wait());
        serve.resume();
        assert!(parked.join().unwrap().is_done());
    });
    let answers: Vec<_> = tickets
        .iter()
        .map(|t| t.wait().results().unwrap())
        .collect();
    assert_eq!(stale.wait(), ServeOutcome::Expired);
    assert_eq!(stale.completion_index(), None);
    let delta = session.cache_stats("pass").unwrap().since(&before);
    assert_eq!(
        delta.hits + delta.misses,
        64,
        "the stale query must never reach the engine path"
    );

    for (query, got) in queries.iter().zip(&answers) {
        assert_eq!(got.len(), 1);
        assert_eq!(got[0], direct.estimate("pass", query), "{query:?}");
    }
    let stamps: Vec<u64> = tickets
        .iter()
        .map(|t| t.completion_index().unwrap())
        .collect();
    assert!(
        stamps.windows(2).all(|w| w[0] < w[1]),
        "completion stamps must follow submission order: {stamps:?}"
    );

    let stats = serve.shutdown();
    assert_eq!((stats.completed, stats.expired), (64, 1));
    assert_eq!(stats.batches, 1, "the 64 live requests ran as one batch");
}

/// Interactive requests overtake co-queued bulk requests: with both
/// classes queued behind a paused worker, every interactive request
/// carries a smaller completion stamp than every bulk request.
#[test]
fn interactive_requests_complete_before_co_queued_bulk() {
    let session = pass_session();
    let serve = paused_single_worker(&session, 64);

    // Bulk first — FIFO alone would finish these first.
    let bulk: Vec<Ticket> = (0..6)
        .map(|i| {
            let q = Query::interval(AggKind::Sum, i as f64 / 10.0, 0.9);
            serve.submit("pass", &[q], &SubmitOptions::bulk()).unwrap()
        })
        .collect();
    let interactive: Vec<Ticket> = (0..6)
        .map(|i| {
            let q = Query::interval(AggKind::Count, i as f64 / 10.0, 0.9);
            let options = SubmitOptions::interactive();
            serve.submit("pass", &[q], &options).unwrap()
        })
        .collect();
    serve.resume();

    let interactive_seq: Vec<u64> = interactive
        .iter()
        .map(|t| {
            assert!(t.wait().is_done());
            t.completion_index().unwrap()
        })
        .collect();
    let bulk_seq: Vec<u64> = bulk
        .iter()
        .map(|t| {
            assert!(t.wait().is_done());
            t.completion_index().unwrap()
        })
        .collect();
    let max_interactive = interactive_seq.iter().max().unwrap();
    let min_bulk = bulk_seq.iter().min().unwrap();
    assert!(
        max_interactive < min_bulk,
        "interactive stamps {interactive_seq:?} must all precede bulk stamps {bulk_seq:?}"
    );
}

/// Saturating a tiny queue from many client threads: every submission
/// resolves (Done or Rejected — never hangs), accepted ones carry
/// correct answers, and the books balance.
#[test]
fn concurrent_clients_against_a_saturated_queue_never_hang() {
    let session = pass_session();
    let serve = session
        .serve(
            "pass",
            ServeConfig::new().with_workers(2).with_queue_depth(8),
        )
        .unwrap();
    let expected = {
        let q = Query::interval(AggKind::Sum, 0.25, 0.75);
        session.estimate("pass", &q).unwrap().value
    };
    let done = std::sync::atomic::AtomicU64::new(0);
    let shed = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..8 {
            let serve = &serve;
            let done = &done;
            let shed = &shed;
            s.spawn(move || {
                for _ in 0..50 {
                    let q = Query::interval(AggKind::Sum, 0.25, 0.75);
                    let ticket = serve.submit_to("pass", &q).unwrap();
                    match ticket.wait() {
                        ServeOutcome::Done(results) => {
                            assert_eq!(results[0].as_ref().unwrap().value, expected);
                            done.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                        ServeOutcome::Rejected => {
                            shed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                        other => panic!("unexpected outcome {other:?}"),
                    }
                }
            });
        }
    });
    let stats = serve.shutdown();
    let (done, shed) = (
        done.load(std::sync::atomic::Ordering::Relaxed),
        shed.load(std::sync::atomic::Ordering::Relaxed),
    );
    assert_eq!(done + shed, 400);
    assert_eq!(stats.completed, done);
    assert_eq!(stats.rejected, shed);
    assert_eq!(stats.accepted, done);
    assert!(stats.queue_high_water <= 8);
}

/// The totals are the sums of the per-engine rows.
fn assert_totals_are_row_sums(stats: &ServeStats) {
    let sum = |field: fn(&EngineServeStats) -> u64| stats.per_engine.iter().map(field).sum::<u64>();
    assert_eq!(stats.completed, sum(|e| e.completed));
    assert_eq!(stats.rejected, sum(|e| e.rejected));
    assert_eq!(stats.expired, sum(|e| e.expired));
    assert_eq!(stats.batches, sum(|e| e.batches));
}

/// The whole submission surface in one table: {every engine of the
/// standard suite, routed through one server} × {1 query, 7-query batch,
/// empty batch} × {interactive, bulk, bulk + generous deadline} through
/// `submit`, each engine again through `submit_to`, and a group-by as
/// the `submit` of its per-category queries — every answer
/// bit-identical to the direct `Session` answer of a separate identical
/// build, and the books balanced at shutdown. An unknown engine is an
/// `Err` from both.
#[test]
fn every_entry_point_engine_shape_and_option_matches_the_direct_answer() {
    // Eight categories on the predicate column, so the group-by has
    // groups to find.
    let cat: Vec<f64> = (0..8_000).map(|i| (i % 8) as f64).collect();
    let values: Vec<f64> = (0..8_000)
        .map(|i| (i % 8 * 5 + i / 8 % 10) as f64)
        .collect();
    let table = Table::one_dim(cat, values).unwrap();
    let specs = Engine::standard_suite(16, 400, 3);
    let names: Vec<String> = (0..specs.len()).map(|i| format!("engine-{i}")).collect();
    let mut served = Session::new(table.clone());
    let mut direct = Session::new(table);
    for (name, spec) in names.iter().zip(&specs) {
        served.add_engine(name, spec).unwrap();
        direct.add_engine(name, spec).unwrap();
    }
    let routes: Vec<&str> = names.iter().map(|n| n.as_str()).collect();
    let config = ServeConfig::new().with_workers(2);
    let serve = served.serve_multi(&routes, config).unwrap();

    let aggs = [AggKind::Sum, AggKind::Count, AggKind::Avg];
    let seven: Vec<Query> = (0..7)
        .map(|i| Query::interval(aggs[i % 3], i as f64, i as f64 + 1.5))
        .collect();
    let shapes: [&[Query]; 3] = [&seven[..1], &seven, &[]];
    let option_sets = [
        SubmitOptions::interactive(),
        SubmitOptions::bulk(),
        SubmitOptions::bulk().with_deadline(Duration::from_secs(300)),
    ];
    let generous = &option_sets[2];
    let group_by = GroupByQuery::over(AggKind::Sum, 0, &[0.0, 3.0, 7.0, 42.0], 1);

    // Routing errors are raised before admission: no queue slot, no
    // counter.
    assert!(serve.submit("nope", &seven, generous).is_err());
    assert!(serve.submit("nope", &[], generous).is_err());
    assert!(serve.submit_to("nope", &seven[0]).is_err());
    let stats = serve.stats();
    assert_eq!((stats.accepted, stats.queue_high_water), (0, 0));

    for name in &routes {
        for queries in shapes {
            for options in &option_sets {
                let got = serve.submit(name, queries, options).unwrap().wait();
                let want: Vec<_> = queries.iter().map(|q| direct.estimate(name, q)).collect();
                assert_eq!(got.results().unwrap(), want, "{name} {options:?}");
            }
        }
        let got = serve.submit_to(name, &seven[3]).unwrap().wait();
        let want = vec![direct.estimate(name, &seven[3])];
        assert_eq!(got.results().unwrap(), want, "{name} submit_to");
        group_by
            .validate(served.engine(name).unwrap().dims())
            .unwrap();
        let ticket = serve.submit(name, &group_by.queries().unwrap(), generous);
        let rows = group_by.rows(ticket.unwrap().wait().results().unwrap());
        let want = direct.group_by(name, &group_by).unwrap();
        assert_eq!(rows, want, "{name} group-by");
    }

    // Per engine: 2 non-empty shapes × 3 option sets + submit_to + the
    // group-by; the empty batch resolves without a queue slot.
    let per_engine = 2 * 3 + 1 + 1;
    let stats = serve.shutdown();
    assert_eq!(stats.accepted, per_engine * routes.len() as u64);
    assert_eq!(stats.completed, stats.accepted);
    assert_eq!((stats.rejected, stats.expired), (0, 0));
    assert_totals_are_row_sums(&stats);
    for (row, name) in stats.per_engine.iter().zip(&routes) {
        assert_eq!((row.engine.as_str(), row.completed), (*name, per_engine));
    }
}

/// `stats()` taken mid-run never shows more outcomes than acceptances:
/// a client submits and waits in a loop (every request is accepted and
/// finished between two snapshots as often as the scheduler allows)
/// while an observer spins on `stats()`. The snapshot loads the
/// per-engine outcome counters first and `accepted` last, so
/// `completed + expired <= accepted` and every counter is monotone from
/// one snapshot to the next.
#[test]
fn mid_run_stats_never_show_more_outcomes_than_acceptances() {
    use std::sync::atomic::{AtomicBool, Ordering};
    // Loading `accepted` first instead breaks the invariant about once
    // per 60k samples in a release build on 2 vCPUs.
    const SAMPLES: usize = 200_000;
    let session = pass_session();
    let config = ServeConfig::new().with_workers(1);
    let serve = session.serve("pass", config).unwrap();
    let q = Query::interval(AggKind::Sum, 0.2, 0.8);
    let stale = SubmitOptions::interactive().with_deadline(Duration::ZERO);
    let observing = AtomicBool::new(true);
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut i = 0u64;
            while observing.load(Ordering::Acquire) {
                // Every eighth request is born stale and expires, so
                // both outcome counters move.
                let ticket = if i % 8 == 7 {
                    serve.submit("pass", std::slice::from_ref(&q), &stale)
                } else {
                    serve.submit_to("pass", &q)
                };
                ticket.unwrap().wait();
                i += 1;
            }
        });
        let mut last = serve.stats();
        for sample in 0..SAMPLES {
            let now = serve.stats();
            let outcomes = now.completed + now.expired;
            assert!(outcomes <= now.accepted, "sample {sample}: {now:?}");
            let monotone = now.accepted >= last.accepted
                && now.completed >= last.completed
                && now.expired >= last.expired
                && now.batches >= last.batches;
            assert!(monotone, "sample {sample}: {last:?} -> {now:?}");
            assert_totals_are_row_sums(&now);
            last = now;
        }
        observing.store(false, Ordering::Release);
    });
    let stats = serve.shutdown();
    assert!(stats.completed > 0 && stats.expired > 0, "{stats:?}");
    assert_eq!(stats.completed + stats.expired, stats.accepted);
}

/// A batch's bookkeeping is one reservation of stamps and one
/// `completed` add, made **before** its first outcome is stored. Seen
/// from real threads: a client that holds `k` of its answers reads
/// `stats().completed >= k` (the add is published to it by the ticket
/// it just read), the stamps of one batch rise strictly in store
/// (= submission) order, and an observer's mid-run snapshots keep
/// `completed + expired <= accepted`.
#[test]
fn a_batch_is_counted_before_any_of_its_answers_is_visible() {
    use std::sync::atomic::{AtomicBool, Ordering};
    const SNAPSHOTS: usize = 10_000;
    const BURST: usize = 16;
    let session = pass_session();
    let config = ServeConfig::new().with_workers(1);
    let serve = session.serve("pass", config).unwrap();
    let queries: Vec<Query> = (0..BURST)
        .map(|i| Query::interval(AggKind::Sum, i as f64 / 40.0, 0.8))
        .collect();
    let stale = SubmitOptions::interactive().with_deadline(Duration::ZERO);
    let observing = AtomicBool::new(true);
    std::thread::scope(|s| {
        let client = s.spawn(|| {
            // Everything this (the only) client has seen resolve `Done`.
            let mut resolved = 0u64;
            let mut bursts = 0u64;
            while observing.load(Ordering::Acquire) || bursts < 4 {
                // The worker is parked while the burst is submitted, so
                // each burst is exactly one batch.
                serve.pause();
                let tickets: Vec<Ticket> = queries
                    .iter()
                    .map(|q| serve.submit_to("pass", q).unwrap())
                    .collect();
                // One born-stale request per burst moves `expired` too.
                let doomed = serve.submit("pass", &queries[..1], &stale).unwrap();
                serve.resume();
                let mut last_stamp = None;
                for ticket in &tickets {
                    assert!(ticket.wait().is_done());
                    resolved += 1;
                    let completed = serve.stats().completed;
                    assert!(completed >= resolved, "{completed} < {resolved}");
                    let stamp = ticket.completion_index();
                    assert!(
                        stamp.is_some() && stamp > last_stamp,
                        "{last_stamp:?} {stamp:?}"
                    );
                    last_stamp = stamp;
                }
                assert_eq!(doomed.wait(), ServeOutcome::Expired);
                bursts += 1;
            }
            (resolved, bursts)
        });
        for sample in 0..SNAPSHOTS {
            let now = serve.stats();
            let outcomes = now.completed + now.expired;
            assert!(outcomes <= now.accepted, "sample {sample}: {now:?}");
        }
        observing.store(false, Ordering::Release);
        let (resolved, bursts) = client.join().unwrap();
        let stats = serve.stats();
        assert_eq!(stats.completed, resolved);
        assert_eq!(stats.completed + stats.expired, stats.accepted);
        assert_eq!((stats.batches, stats.expired), (bursts, bursts));
    });
}

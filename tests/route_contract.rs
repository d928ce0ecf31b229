//! The routed-serving contract (`Session::serve_multi` + the shared
//! queue), pinned end to end:
//!
//! 1. **Routed fidelity** — a multi-engine server's answers are
//!    bit-identical to direct `Session` calls *per engine* for the
//!    whole `Engine::standard_suite`, and a batch never mixes engines
//!    (a mixed batch would hand queries to the wrong synopsis, which
//!    the distinguishable-engine test would catch as a wrong value).
//! 2. **FIFO within a class** — under a paused-then-resumed queue,
//!    completion order within a priority class is submission order,
//!    whatever deadlines the requests carry; a deadline only expires a
//!    request that is still queued when it passes.
//! 3. **Duplicates** — N identical queued queries take N queue slots
//!    yet reach the engine **once**: they run as one batch, and the
//!    session cache ends up holding the one answer computed for them.
//!    The rejection boundary is exact.
//! 4. **Worker panic** — a panic mid-batch cancels every ticket of the
//!    in-flight batch; no client hangs.

use std::time::Duration;

use pass::common::{AggKind, Estimate, Query, Result as PassResult};
use pass::table::datasets::uniform;
use pass::{
    Engine, EngineSpec, ServeConfig, ServeOutcome, Session, SubmitOptions, Synopsis, Ticket,
};

fn q(lo: f64, hi: f64) -> Query {
    Query::interval(AggKind::Sum, lo, hi)
}

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
        for j in 0..3 {
            let lo = (i * 3 + j) as f64 / 20.0;
            queries.push(Query::interval(*agg, lo, (lo + 0.3).min(1.0)));
        }
        // A degenerate sliver: some engines answer these with errors,
        // and routed served errors must match direct errors too.
        queries.push(Query::interval(*agg, 0.9999, 0.99995));
    }
    queries
}

/// One routed server over the whole standard suite answers bit-identically
/// to a **separately built** direct session, engine by engine, for single
/// and batched submissions alike.
#[test]
fn multi_engine_served_answers_are_bit_identical_to_direct_per_engine() {
    let queries = suite_queries();
    let specs = Engine::standard_suite(16, 400, 3);
    let mut served = Session::new(uniform(8_000, 11));
    let mut direct = Session::new(uniform(8_000, 11));
    let names: Vec<String> = (0..specs.len()).map(|i| format!("engine-{i}")).collect();
    for (name, spec) in names.iter().zip(&specs) {
        served.add_engine(name, spec).unwrap();
        direct.add_engine(name, spec).unwrap();
    }
    let routes: Vec<&str> = names.iter().map(|n| n.as_str()).collect();
    let serve = served
        .serve_multi(&routes, ServeConfig::new().with_workers(2))
        .unwrap();
    assert_eq!(serve.engines(), routes);

    for (name, spec) in names.iter().zip(&specs) {
        let singles: Vec<Ticket> = queries
            .iter()
            .map(|query| serve.submit_to(name, query).unwrap())
            .collect();
        let options = SubmitOptions::default();
        let batch = serve.submit(name, &queries, &options).unwrap();
        for (query, ticket) in queries.iter().zip(&singles) {
            assert_eq!(
                ticket.wait().results().unwrap()[0],
                direct.estimate(name, query),
                "routed single {query:?} on {spec:?}"
            );
        }
        let got = batch.wait().results().unwrap();
        for (query, result) in queries.iter().zip(&got) {
            assert_eq!(
                *result,
                direct.estimate(name, query),
                "routed batch {query:?} on {spec:?}"
            );
        }
    }

    let per_engine_total = (queries.len() + 1) as u64;
    let stats = serve.shutdown();
    assert_eq!(stats.accepted, per_engine_total * names.len() as u64);
    assert_eq!(stats.completed, stats.accepted);
    assert_eq!((stats.rejected, stats.expired), (0, 0));
    // The per-engine breakdown accounts for every request, in route order.
    assert_eq!(stats.per_engine.len(), names.len());
    for (row, name) in stats.per_engine.iter().zip(&names) {
        assert_eq!(&row.engine, name);
        assert_eq!(row.completed, per_engine_total);
    }
    assert_eq!(
        stats.batches,
        stats.per_engine.iter().map(|e| e.batches).sum::<u64>()
    );
}

/// Two hand-built engines with distinguishable answers: every routed
/// ticket carries its own engine's answer even when requests interleave
/// through one worker — a batch that mixed engines would produce the
/// other engine's constant.
#[test]
fn interleaved_routes_never_mix_engines_in_a_batch() {
    struct Constant(f64);
    impl Synopsis for Constant {
        fn name(&self) -> &str {
            "CONSTANT"
        }
        fn estimate(&self, _query: &Query) -> PassResult<Estimate> {
            Ok(Estimate::exact(self.0))
        }
        fn storage_bytes(&self) -> usize {
            0
        }
        fn dims(&self) -> usize {
            1
        }
    }

    let mut session = Session::new(uniform(100, 1));
    session.add_synopsis("ones", Constant(1.0));
    session.add_synopsis("twos", Constant(2.0));
    let serve = session
        .serve_multi(&["ones", "twos"], ServeConfig::new().with_workers(1))
        .unwrap();
    serve.pause();
    let tickets: Vec<(f64, Ticket)> = (0..8)
        .map(|i| {
            let (engine, want) = if i % 2 == 0 {
                ("ones", 1.0)
            } else {
                ("twos", 2.0)
            };
            // Distinct queries so the shared cache cannot mask a
            // wrong-engine execution.
            (
                want,
                serve.submit_to(engine, &q(i as f64 / 10.0, 0.95)).unwrap(),
            )
        })
        .collect();
    serve.resume();
    for (want, ticket) in tickets {
        let got = ticket.wait().results().unwrap();
        assert_eq!(got[0].as_ref().unwrap().value, want);
    }
    let stats = serve.shutdown();
    assert_eq!(stats.completed, 8);
    assert!(
        stats.batches >= 2,
        "two engines cannot share one batch (ran {})",
        stats.batches
    );
    for row in &stats.per_engine {
        assert_eq!(row.completed, 4);
        assert!(row.batches >= 1);
    }
}

/// FIFO within a class: queue requests whose deadlines run out of
/// submission order, plus an undated one, behind a paused single worker;
/// resume, and the completion stamps follow submission order.
#[test]
fn completion_follows_submission_order_within_a_class_whatever_the_deadlines() {
    let mut session = Session::new(uniform(5_000, 21));
    session.add_engine("pass", &EngineSpec::pass()).unwrap();
    let serve = session
        .serve("pass", ServeConfig::new().with_workers(1))
        .unwrap();
    serve.pause();

    // Generous deadlines (nothing expires), far from submission order,
    // with the undated request in the middle of the submissions.
    let deadline_secs = [Some(50u64), Some(10), None, Some(30), Some(20), Some(40)];
    let tickets: Vec<Ticket> = deadline_secs
        .iter()
        .enumerate()
        .map(|(i, secs)| {
            let mut options = SubmitOptions::interactive();
            options.deadline = secs.map(Duration::from_secs);
            serve
                .submit("pass", &[q(i as f64 / 10.0, 0.9)], &options)
                .unwrap()
        })
        .collect();
    serve.resume();

    let stamps: Vec<u64> = tickets
        .iter()
        .map(|ticket| {
            assert!(ticket.wait().is_done());
            ticket.completion_index().unwrap()
        })
        .collect();
    assert!(
        stamps.windows(2).all(|pair| pair[0] < pair[1]),
        "completion stamps {stamps:?} are not in submission order"
    );
    assert_eq!(serve.shutdown().expired, 0, "nothing expired in this test");
}

/// An expired-at-pop request never blocks a live later one: the doomed
/// request, queued first, resolves `Expired` without executing, and the
/// live request behind it completes normally.
#[test]
fn expired_at_pop_request_never_blocks_a_live_later_one() {
    let mut session = Session::new(uniform(5_000, 23));
    session.add_engine("pass", &EngineSpec::pass()).unwrap();
    let serve = session
        .serve("pass", ServeConfig::new().with_workers(1))
        .unwrap();
    serve.pause();
    let stale = SubmitOptions::interactive().with_deadline(Duration::ZERO);
    let doomed = serve.submit("pass", &[q(0.3, 0.7)], &stale).unwrap();
    let live = serve.submit_to("pass", &q(0.2, 0.8)).unwrap();
    let before = session.cache_stats("pass").unwrap();
    serve.resume();

    assert_eq!(doomed.wait(), ServeOutcome::Expired);
    assert_eq!(doomed.completion_index(), None);
    let got = live.wait().results().unwrap();
    assert_eq!(
        got[0].as_ref().unwrap().value,
        session.estimate("pass", &q(0.2, 0.8)).unwrap().value
    );

    let stats = serve.shutdown();
    assert_eq!((stats.expired, stats.completed), (1, 1));
    // Cache-counter proof: only the live query reached the engine path
    // before the direct comparison call above.
    let delta = session.cache_stats("pass").unwrap().since(&before);
    assert_eq!(delta.hits + delta.misses, 2, "live query + direct call");
}

/// A worker panic mid-execution cancels — exactly once, never hangs —
/// every ticket of the in-flight coalesced batch.
#[test]
fn coalesced_batch_resolves_every_ticket_on_worker_panic() {
    struct Panicking;
    impl Synopsis for Panicking {
        fn name(&self) -> &str {
            "PANICKING"
        }
        fn estimate(&self, _query: &Query) -> PassResult<Estimate> {
            panic!("engine failure injected by route_contract");
        }
        fn storage_bytes(&self) -> usize {
            0
        }
        fn dims(&self) -> usize {
            1
        }
    }

    let mut session = Session::new(uniform(100, 41));
    session.add_synopsis("boom", Panicking);
    let serve = session
        .serve("boom", ServeConfig::new().with_workers(1))
        .unwrap();
    serve.pause();
    let tickets: Vec<Ticket> = (0..4)
        .map(|_| serve.submit_to("boom", &q(0.2, 0.8)).unwrap())
        .collect();
    assert_eq!(serve.queue_depth(), 4);
    serve.resume();
    // The one worker pops the four requests as one coalesced batch and
    // unwinds; dropping the batch's ticket slots resolves every waiter
    // to Cancelled — no client ever hangs on a
    // request the server lost.
    for ticket in &tickets {
        assert_eq!(
            ticket.wait_timeout(Duration::from_secs(30)),
            Some(ServeOutcome::Cancelled)
        );
    }
    let stats = serve.shutdown();
    assert_eq!(stats.accepted, 4);
    assert_eq!(stats.completed, 0);
}

/// N identical queued requests take N queue slots, yet coalesce into one
/// batch that reaches the engine once: the cache hands the engine the
/// batch's one distinct miss (computed once, as
/// `cache::tests::duplicate_misses_within_one_batch_are_computed_once`
/// pins) and fills every slot from it. The rejection boundary stays
/// exact, and answers match direct calls bit for bit.
#[test]
fn identical_queued_requests_take_a_slot_each_but_reach_the_engine_once() {
    let mut served = Session::new(uniform(8_000, 51));
    let mut direct = Session::new(uniform(8_000, 51));
    served.add_engine("pass", &EngineSpec::pass()).unwrap();
    direct.add_engine("pass", &EngineSpec::pass()).unwrap();
    let depth = 4;
    let serve = served
        .serve(
            "pass",
            ServeConfig::new().with_workers(1).with_queue_depth(depth),
        )
        .unwrap();
    serve.pause();

    // Identical submissions occupy one slot each.
    let accepted: Vec<Ticket> = (0..depth)
        .map(|_| serve.submit_to("pass", &q(0.25, 0.75)).unwrap())
        .collect();
    assert_eq!(serve.queue_depth(), depth);
    let rejected = serve.submit_to("pass", &q(0.25, 0.75)).unwrap();
    assert_eq!(rejected.poll(), Some(ServeOutcome::Rejected));

    let before = served.cache_stats("pass").unwrap();
    serve.resume();
    let want = direct.estimate("pass", &q(0.25, 0.75)).unwrap().value;
    for ticket in &accepted {
        let got = ticket.wait().results().unwrap();
        assert_eq!(got[0].as_ref().unwrap().value, want);
    }
    // Every accepted request consulted the cache in one coalesced
    // lookup, where all of them missed (the cache counts lookups); the
    // one distinct miss was computed and stored once.
    let delta = served.cache_stats("pass").unwrap().since(&before);
    assert_eq!((delta.hits, delta.misses), (0, depth as u64));
    assert_eq!(delta.len, 1, "the engine computed the query once");

    let stats = serve.shutdown();
    assert_eq!(stats.accepted, depth as u64);
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.batches, 1, "the identical requests coalesced");
    assert_eq!(stats.queue_high_water, depth);
    // Shed load is attributed to the engine whose traffic caused it.
    assert_eq!(stats.per_engine[0].rejected, 1);
}

//! Exhaustive concurrency model tests for the serving-tier primitives.
//!
//! Every test here runs under [`Chaos::check`], which executes its body
//! once per *schedule* — a distinct interleaving of the participating
//! threads at their synchronization points — until the schedule tree is
//! exhausted (or a stated preemption bound prunes it). A failing body
//! panics with a replayable seed:
//!
//! ```text
//! PASS_CHAOS_SEED='0.2.1' cargo test -p pass-common --features chaos <name>
//! ```
//!
//! The suite pins the admission-control invariants documented in
//! `docs/ARCHITECTURE.md` (and expanded in `docs/CONCURRENCY.md`) at the
//! queue / ticket / cache level, plus the named historical near-miss:
//! pause racing a parked `pop_blocking`. Invariant 1 (fidelity) and invariant 5 (batches
//! never mix engines) are single-threaded routing properties pinned by
//! `tests/serve_contract.rs` / `tests/route_contract.rs` in the root
//! crate; everything with a genuine interleaving surface is here.
//!
//! These tests compile only with the `chaos` feature (always on under a
//! workspace `cargo test` via the root crate's dev-dependencies, never
//! in release builds).

#![cfg(feature = "chaos")]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pass_common::chaos::{self, Chaos};
use pass_common::{
    AggKind, Estimate, Priority, Query, QueryCache, QueryKey, RequestQueue, ServeOutcome, Ticket,
};

fn key(lo: f64, hi: f64) -> QueryKey {
    QueryKey::new(&Query::interval(AggKind::Sum, lo, hi))
}

/// Invariant: every accepted push is popped exactly once — no item is
/// lost or duplicated under any interleaving of two producers and a
/// blocking consumer.
#[test]
fn every_accepted_push_pops_exactly_once() {
    let report = Chaos::new("push_pop_exactly_once").check(|| {
        let queue: RequestQueue<u32> = RequestQueue::new(4);
        let mut popped = Vec::new();
        chaos::scope(|s| {
            s.spawn(|| queue.try_push(1, Priority::Interactive).unwrap());
            s.spawn(|| queue.try_push(2, Priority::Interactive).unwrap());
            for _ in 0..2 {
                if let Some((item, _)) = queue.pop_blocking() {
                    popped.push(item);
                }
            }
        });
        popped.sort_unstable();
        assert_eq!(popped, [1, 2], "an accepted item was lost or duplicated");
        assert!(queue.is_empty());
    });
    assert!(report.exhausted, "schedule tree must be fully explored");
}

/// Invariant 2 (bounded queue, exact rejection): with `queue_depth = 1`,
/// two racing pushes admit exactly one and reject exactly one with
/// `Full`, in every interleaving — and draining the slot re-admits
/// exactly one.
#[test]
fn bounded_queue_rejects_exactly_at_capacity() {
    let report = Chaos::new("bounded_rejection").check(|| {
        let queue: RequestQueue<u32> = RequestQueue::new(1);
        let (a, b) = chaos::scope(|s| {
            let t1 = s.spawn(|| queue.try_push(1, Priority::Interactive).is_ok());
            let t2 = s.spawn(|| queue.try_push(2, Priority::Interactive).is_ok());
            (t1.join().unwrap(), t2.join().unwrap())
        });
        assert!(
            a ^ b,
            "capacity 1: exactly one of two racing pushes must be admitted"
        );
        assert_eq!(queue.len(), 1);
        assert_eq!(queue.high_water(), 1, "admission never overshoots");
        // Draining the slot re-admits exactly one request.
        assert!(queue.pop_blocking().is_some());
        assert!(queue.try_push(3, Priority::Interactive).is_ok());
        assert_eq!(queue.high_water(), 1);
    });
    assert!(report.exhausted);
}

/// Invariant 4 (strict two-class priority): whenever both classes are
/// non-empty at pop time, interactive wins. The consumer checks the
/// queue's length first — under a single consumer the length can only
/// grow concurrently, so observing both items queued proves the first
/// pop chose between them.
#[test]
fn interactive_always_pops_before_queued_bulk() {
    let saw_both_queued = Arc::new(AtomicU64::new(0));
    let saw_interleaved = Arc::new(AtomicU64::new(0));
    let both = Arc::clone(&saw_both_queued);
    let inter = Arc::clone(&saw_interleaved);
    let report = Chaos::new("strict_priority").check(move || {
        let queue: RequestQueue<u32> = RequestQueue::new(4);
        chaos::scope(|s| {
            s.spawn(|| {
                queue.try_push(20, Priority::Bulk).unwrap();
                queue.try_push(10, Priority::Interactive).unwrap();
            });
            let queued = queue.len();
            let (first, _) = queue.pop_blocking().unwrap();
            let (second, _) = queue.pop_blocking().unwrap();
            if queued == 2 {
                // Both were queued when the consumer chose: strict
                // priority must pick the interactive item.
                assert_eq!(first, 10, "bulk popped ahead of queued interactive");
                assert_eq!(second, 20);
                both.fetch_add(1, Ordering::Relaxed);
            } else {
                // The consumer's length check raced ahead of the
                // producer; either order is legal (priority only orders
                // *queued* work) but both items still arrive.
                let mut got = [first, second];
                got.sort_unstable();
                assert_eq!(got, [10, 20]);
                if (first, second) == (20, 10) {
                    inter.fetch_add(1, Ordering::Relaxed);
                }
            }
        });
    });
    assert!(report.exhausted);
    // The model genuinely explored both phenomena.
    assert!(saw_both_queued.load(Ordering::Relaxed) > 0);
    assert!(saw_interleaved.load(Ordering::Relaxed) > 0);
}

/// Historical near-miss: a consumer parked inside `pop_blocking` on a
/// paused queue, racing a push and the resume. If `set_paused(false)`
/// failed to notify (or pause re-checking had a window), the consumer
/// would sleep forever with work queued — the model reports that as a
/// deadlock with a seed.
#[test]
fn resume_always_wakes_a_consumer_parked_through_a_pause() {
    let report = Chaos::new("pause_resume_wakeup").preemptions(3).check(|| {
        let queue: RequestQueue<u32> = RequestQueue::new(4);
        queue.set_paused(true);
        chaos::scope(|s| {
            let consumer = s.spawn(|| queue.pop_blocking());
            s.spawn(|| {
                queue.try_push(7, Priority::Interactive).unwrap();
            });
            s.spawn(|| queue.set_paused(false));
            assert_eq!(consumer.join().unwrap(), Some((7, Priority::Interactive)));
        });
    });
    assert!(report.exhausted, "bounded-exhaustive at 3 preemptions");
}

/// Invariant 6, queue half: close() drains accepted work even through a
/// pause, wakes every parked consumer, and only then reports `None`.
/// Two consumers racing one close: the queued item goes to exactly one
/// of them, the other observes shutdown.
#[test]
fn close_drains_through_pause_and_wakes_every_consumer() {
    let report = Chaos::new("close_drains").preemptions(3).check(|| {
        let queue: RequestQueue<u32> = RequestQueue::new(4);
        queue.try_push(9, Priority::Bulk).unwrap();
        queue.set_paused(true);
        let (a, b) = chaos::scope(|s| {
            let c1 = s.spawn(|| queue.pop_blocking());
            let c2 = s.spawn(|| queue.pop_blocking());
            s.spawn(|| queue.close());
            (c1.join().unwrap(), c2.join().unwrap())
        });
        let got = [a, b];
        assert_eq!(
            got.iter().filter(|g| g.is_none()).count(),
            1,
            "exactly one consumer observes shutdown: {got:?}"
        );
        assert!(
            got.contains(&Some((9, Priority::Bulk))),
            "shutdown must hand the accepted item to exactly one consumer: {got:?}"
        );
    });
    assert!(report.exhausted, "bounded-exhaustive at 3 preemptions");
}

/// Invariant 6, ticket half: a worker that panics mid-batch resolves
/// every ticket of its in-flight batch exactly once — fulfilled
/// tickets keep their outcome, unfulfilled slots cancel on the unwind
/// path — and concurrent waiters always wake.
#[test]
fn worker_panic_resolves_every_fanned_out_ticket_exactly_once() {
    let report = Chaos::new("ticket_fanout_panic").preemptions(3).check(|| {
        let (done_ticket, done_slot) = Ticket::pending();
        let (lost_a, slot_a): (Ticket, _) = Ticket::pending();
        let (lost_b, slot_b): (Ticket, _) = Ticket::pending();
        chaos::scope(|s| {
            let worker = s.spawn(move || {
                // One ticket of the batch is answered before the crash…
                done_slot.fulfill(ServeOutcome::Done(vec![Ok(Estimate::exact(1.0))]), Some(0));
                // …then the worker dies with two slots in hand; the
                // unwind must cancel both.
                let _still_held = (slot_a, slot_b);
                panic!("injected worker crash");
            });
            let wa = s.spawn(|| lost_a.wait());
            let wb = s.spawn(|| lost_b.wait());
            assert!(worker.join().is_err(), "the panic must surface on join");
            assert_eq!(wa.join().unwrap(), ServeOutcome::Cancelled);
            assert_eq!(wb.join().unwrap(), ServeOutcome::Cancelled);
        });
        // The pre-crash fulfillment is final: the unwind never
        // downgrades an already-resolved ticket.
        assert_eq!(done_ticket.completion_index(), Some(0));
        assert!(done_ticket.wait().is_done());
    });
    assert!(report.exhausted, "bounded-exhaustive at 3 preemptions");
}

/// Invariant 6, end-to-end mini-model: a producer, a draining worker,
/// and a racing shutdown. Every ticket ever issued resolves exactly
/// once — `Done` iff its push was admitted before the close, `Cancelled`
/// (via slot drop) iff the close won.
#[test]
fn shutdown_leaves_no_ticket_behind() {
    let report = Chaos::new("no_ticket_left_behind")
        .preemptions(2)
        .check(|| {
            let queue = RequestQueue::new(4);
            let (t1, s1) = Ticket::pending();
            let (t2, s2) = Ticket::pending();
            let (accepted1, accepted2) = chaos::scope(|s| {
                let q = &queue;
                let producer = s.spawn(move || {
                    // A rejected push hands the slot back in the error;
                    // dropping it there resolves the ticket Cancelled.
                    let a1 = q.try_push(s1, Priority::Interactive).is_ok();
                    let a2 = q.try_push(s2, Priority::Interactive).is_ok();
                    (a1, a2)
                });
                s.spawn(|| queue.close());
                // The worker drains until shutdown: every admitted slot
                // is fulfilled `Done`, then `None` ends the loop.
                while let Some((slot, _)) = queue.pop_blocking() {
                    slot.fulfill(ServeOutcome::Done(Vec::new()), None);
                }
                producer.join().unwrap()
            });
            for (ticket, accepted) in [(t1, accepted1), (t2, accepted2)] {
                let outcome = ticket.wait();
                if accepted {
                    assert!(outcome.is_done(), "an admitted request was dropped");
                } else {
                    assert_eq!(outcome, ServeOutcome::Cancelled);
                }
            }
        });
    assert!(report.exhausted, "bounded-exhaustive at 2 preemptions");
}

/// Wake rule, ticket half: `fulfill` notifies only if it read a
/// non-zero parked count under the ticket lock. Two waiters (a ticket
/// and its clone) entering `wait()` race that gated `fulfill` through
/// every interleaving of park-count increment, condvar wait, store and
/// conditional notify: neither ever sleeps through the outcome (a lost
/// wakeup is a deadlock here) and both observe it.
#[test]
fn gated_fulfill_never_strands_a_waiter_entering_wait() {
    let report = Chaos::new("gated_fulfill_vs_wait")
        .preemptions(3)
        .check(|| {
            let (ticket, slot) = Ticket::pending();
            let twin = ticket.clone();
            chaos::scope(|s| {
                let first = s.spawn(|| ticket.wait());
                let second = s.spawn(|| twin.wait());
                slot.fulfill(ServeOutcome::Done(Vec::new()), Some(4));
                assert!(first.join().unwrap().is_done());
                assert!(second.join().unwrap().is_done());
            });
            assert_eq!(ticket.completion_index(), Some(4));
        });
    assert!(report.exhausted, "bounded-exhaustive at 3 preemptions");
}

/// Wake rule, batch half (resolve-then-wake): a worker stores the
/// outcomes of a three-ticket batch, keeps the wake handles, and only
/// then drops them, while clients wait on the first, the middle and the
/// last ticket. Every waiter wakes to its own ticket's outcome and every
/// ticket resolves exactly once (its stamp is the one the worker gave
/// it). Second model: the worker dies after the second store with the
/// handles unwoken and the third slot still in hand — the unwind drops
/// the handles (waking the sleepers whose answers are in place) and the
/// slot (cancelling, and waking, the third).
#[test]
fn batch_completion_stores_all_then_wakes_every_parked_waiter() {
    fn model(crash_after_two: bool) {
        let (tickets, slots): (Vec<Ticket>, Vec<_>) = (0..3).map(|_| Ticket::pending()).unzip();
        chaos::scope(|s| {
            let first = s.spawn(|| tickets[0].wait());
            let last = s.spawn(|| tickets[2].wait());
            let worker = s.spawn(move || {
                let mut wakes = Vec::new();
                for (i, slot) in slots.into_iter().enumerate() {
                    if crash_after_two && i == 2 {
                        let _still_held = slot;
                        panic!("injected worker crash between store and wake");
                    }
                    let answer = Ok(Estimate::exact(i as f64));
                    wakes.extend(slot.store(ServeOutcome::Done(vec![answer]), Some(i as u64)));
                }
                drop(wakes);
            });
            // The model's own thread is the client of the middle ticket.
            let middle = tickets[1].wait();
            assert_eq!(worker.join().is_err(), crash_after_two);
            let outcomes = [first.join().unwrap(), middle, last.join().unwrap()];
            for (i, outcome) in outcomes.into_iter().enumerate() {
                if crash_after_two && i == 2 {
                    assert_eq!(outcome, ServeOutcome::Cancelled);
                } else {
                    let value = outcome.results().unwrap()[0].as_ref().unwrap().value;
                    assert_eq!(
                        value, i as f64,
                        "waiter {i} woke to another ticket's answer"
                    );
                }
            }
        });
        for (i, ticket) in tickets.iter().enumerate() {
            let stored = !(crash_after_two && i == 2);
            assert_eq!(ticket.completion_index(), stored.then_some(i as u64));
        }
    }
    let report = Chaos::new("batch_store_then_wake")
        .preemptions(2)
        .check(|| model(false));
    assert!(report.exhausted, "bounded-exhaustive at 2 preemptions");
    let report = Chaos::new("batch_wake_on_unwind")
        .preemptions(2)
        .check(|| model(true));
    assert!(report.exhausted, "bounded-exhaustive at 2 preemptions");
}

/// Wake rule, queue half: `push_locked` notifies only if a consumer was
/// parked when the item went in. Two consumers entering `pop_blocking`
/// race two gated pushes: each accepted push is popped exactly once and
/// no consumer sleeps through a non-empty queue (that would deadlock the
/// joins).
#[test]
fn gated_push_never_strands_a_consumer_entering_pop() {
    let report = Chaos::new("gated_push_vs_pop").preemptions(3).check(|| {
        let queue: RequestQueue<u32> = RequestQueue::new(4);
        let mut popped = chaos::scope(|s| {
            let c1 = s.spawn(|| queue.pop_blocking());
            let c2 = s.spawn(|| queue.pop_blocking());
            queue.try_push(1, Priority::Interactive).unwrap();
            queue.try_push(2, Priority::Interactive).unwrap();
            [c1.join().unwrap(), c2.join().unwrap()].map(|got| got.map(|(item, _)| item))
        });
        popped.sort_unstable();
        assert_eq!(
            popped,
            [Some(1), Some(2)],
            "a push was lost or popped twice"
        );
        assert!(queue.is_empty());
    });
    assert!(report.exhausted, "bounded-exhaustive at 3 preemptions");
}

/// Wake rule, wakeups in flight: a push signals only while more
/// consumers are parked than have a wakeup on its way, so a push behind
/// a woken consumer that has not yet run signals nothing. One consumer
/// popping twice, or two popping once, race two producers: each item is
/// popped exactly once, none is left queued, and no consumer sleeps
/// through queued work (that would deadlock the joins).
#[test]
fn pushes_behind_a_woken_consumer_strand_nothing() {
    for consumers in [1, 2] {
        let report = Chaos::new("push_behind_woken_consumer")
            .preemptions(2)
            .check(move || {
                let queue: RequestQueue<u32> = RequestQueue::new(4);
                let (queue, pops) = (&queue, 2 / consumers);
                let mut popped: Vec<u32> = chaos::scope(|s| {
                    let popping: Vec<_> = (0..consumers)
                        .map(|_| {
                            s.spawn(move || {
                                let got = (0..pops).filter_map(|_| queue.pop_blocking());
                                got.map(|(item, _)| item).collect::<Vec<u32>>()
                            })
                        })
                        .collect();
                    s.spawn(|| queue.try_push(1, Priority::Interactive).unwrap());
                    s.spawn(|| queue.try_push(2, Priority::Bulk).unwrap());
                    popping
                        .into_iter()
                        .flat_map(|c| c.join().unwrap())
                        .collect()
                });
                popped.sort_unstable();
                assert_eq!(
                    popped,
                    [1, 2],
                    "{consumers} consumers: an item was lost or doubled"
                );
                assert!(
                    queue.is_empty(),
                    "{consumers} consumers: an item was left queued"
                );
            });
        assert!(report.exhausted, "bounded-exhaustive at 2 preemptions");
    }
}

/// A hit racing an eviction: on a full three-entry cache, one thread
/// looks up the oldest key while another inserts two new keys, so the
/// SIEVE hand sweeps over it and evicts twice. In every interleaving the
/// lookup gets that key's own answer or a miss, the counters add up to
/// the lookups made, and the cache never holds more than its capacity.
/// A hit can only land before the first insert; it marks the key
/// visited, so both sweeps spare it and it is still stored at the end.
#[test]
fn a_hit_racing_an_eviction_reads_its_own_answer_or_misses() {
    let saw_hit = Arc::new(AtomicU64::new(0));
    let saw_miss = Arc::new(AtomicU64::new(0));
    let (hits, misses) = (Arc::clone(&saw_hit), Arc::clone(&saw_miss));
    let report = Chaos::new("hit_vs_eviction").preemptions(3).check(move || {
        let cache = QueryCache::new(3);
        let keys: Vec<QueryKey> = (0..5).map(|i| key(i as f64, i as f64 + 1.0)).collect();
        let answer = |i: usize| Ok(Estimate::exact(i as f64));
        for (i, k) in keys.iter().enumerate().take(3) {
            cache.insert_keyed(k.clone(), answer(i));
        }
        let got = chaos::scope(|s| {
            let reader = s.spawn(|| {
                let got = cache.get_keyed(&keys[0]);
                assert!(cache.stats().len <= 3, "over capacity");
                got
            });
            s.spawn(|| {
                for (i, k) in keys.iter().enumerate().skip(3) {
                    cache.insert_keyed(k.clone(), answer(i));
                    assert!(cache.stats().len <= 3, "over capacity");
                }
            });
            reader.join().unwrap()
        });
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 1, "a lookup was lost or doubled");
        assert_eq!(stats.len, 3);
        match &got {
            Some(found) => {
                assert_eq!(*found, answer(0), "the lookup read another key's answer");
                hits.fetch_add(1, Ordering::Relaxed);
            }
            None => {
                misses.fetch_add(1, Ordering::Relaxed);
            }
        }
        assert_eq!(
            cache.get_keyed(&keys[0]).is_some(),
            got.is_some(),
            "a visited key was evicted, or an unvisited oldest key kept"
        );
    });
    assert!(report.exhausted, "bounded-exhaustive at 3 preemptions");
    assert!(saw_hit.load(Ordering::Relaxed) > 0, "hit path unexplored");
    assert!(saw_miss.load(Ordering::Relaxed) > 0, "miss path unexplored");
}

/// Epoch coherence: two synopsis handles observing the same new epoch
/// race their `sync_epoch` calls. The generation bump must clear the
/// stale entries exactly once — a second clear would drop entries
/// already recomputed against the *new* epoch.
#[test]
fn racing_epoch_syncs_clear_exactly_once() {
    let report = Chaos::new("epoch_bump_vs_insert").check(|| {
        let cache = Arc::new(QueryCache::new(4));
        let stale = key(0.0, 1.0);
        let fresh = key(2.0, 3.0);
        cache.insert_keyed(stale.clone(), Ok(Estimate::exact(1.0)));
        chaos::scope(|s| {
            let c1 = Arc::clone(&cache);
            let c2 = Arc::clone(&cache);
            let fresh_key = fresh.clone();
            s.spawn(move || {
                // Handle 1 observes epoch 7, clears, and stores a result
                // computed against the new generation.
                c1.sync_epoch(7);
                c1.insert_keyed(fresh_key, Ok(Estimate::exact(2.0)));
            });
            s.spawn(move || c2.sync_epoch(7));
        });
        assert!(
            cache.get_keyed(&stale).is_none(),
            "pre-bump entry must not survive the epoch change"
        );
        assert!(
            cache.get_keyed(&fresh).is_some(),
            "a racing second sync cleared the new generation's entry"
        );
    });
    assert!(report.exhausted);
}

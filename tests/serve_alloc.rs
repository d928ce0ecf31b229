//! What a served request costs in heap allocations, pinned by count.
//!
//! This is its own test binary so the counting `#[global_allocator]`
//! below is local to it. The counter is process-wide (the serving
//! worker is a thread of its own), so the tests take [`serial`] and run
//! one at a time.
//!
//! The remaining allocations of a request are the three the public API
//! keeps: the ticket's shared state (`Ticket::pending`), the answer
//! `Vec` inside `ServeOutcome::Done`, and the copy `Ticket::wait` hands
//! the caller. Everything else is per batch — on all-hit traffic and,
//! since a cache miss allocates nothing of its own, on all-miss traffic
//! too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use pass::common::{AggKind, Query, QueryKey, Rect};
use pass::table::datasets::uniform;
use pass::{EngineSpec, ServeConfig, Session, Ticket};

/// Counts every `alloc` and `realloc`; frees are not events.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a side
// effect that touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc`
        // above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Allocator calls made by the whole process while `f` runs.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    f();
    ALLOCATIONS.load(Ordering::SeqCst) - before
}

/// A `dims`-dimensional rectangle with distinct bounds per dimension.
fn rect(dims: usize) -> Rect {
    let bounds: Vec<(f64, f64)> = (0..dims).map(|d| (d as f64, d as f64 + 0.5)).collect();
    Rect::new(&bounds)
}

/// 64 × `submit_to` then 64 × `wait`, the dashboard's refresh, on
/// all-hit traffic through one worker. The worker is parked while the
/// refresh is submitted, so every refresh is exactly one batch and the
/// count repeats from run to run: three allocations per request plus
/// the batch's own handful spread over 64.
#[test]
fn a_served_request_costs_at_most_four_allocations() {
    const TILES: usize = 64;
    const REFRESHES: usize = 50;
    let _serial = serial();
    let mut session = Session::new(uniform(20_000, 7));
    session.add_engine("pass", &EngineSpec::pass()).unwrap();
    let serve = session
        .serve("pass", ServeConfig::new().with_workers(1))
        .unwrap();
    let queries: Vec<Query> = (0..TILES)
        .map(|i| Query::interval(AggKind::Sum, i as f64 / 100.0, 0.9))
        .collect();
    let expected: Vec<u64> = queries
        .iter()
        .map(|q| session.estimate("pass", q).unwrap().value.to_bits())
        .collect();
    let mut tickets: Vec<Ticket> = Vec::with_capacity(TILES);
    let mut mismatches = 0usize;
    let mut refresh = |tickets: &mut Vec<Ticket>| {
        tickets.clear();
        serve.pause();
        for q in &queries {
            tickets.push(serve.submit_to("pass", q).unwrap());
        }
        serve.resume();
        for (ticket, want) in tickets.iter().zip(&expected) {
            let got = ticket.wait().results().unwrap();
            mismatches += usize::from(got[0].as_ref().unwrap().value.to_bits() != *want);
        }
    };
    // Steady state: the cache holds every query, the queue, the batch
    // buffers and both threads' lazily built state have reached size.
    for _ in 0..4 {
        refresh(&mut tickets);
    }
    let before = serve.stats();
    let allocations = allocations_during(|| {
        for _ in 0..REFRESHES {
            refresh(&mut tickets);
        }
    });
    let after = serve.stats();
    assert_eq!(mismatches, 0, "served answers differ from direct ones");
    let requests = (TILES * REFRESHES) as u64;
    assert_eq!(after.completed - before.completed, requests);
    assert_eq!(after.batches - before.batches, REFRESHES as u64);
    let per_request = allocations as f64 / requests as f64;
    assert!(
        per_request <= 4.0,
        "{allocations} allocations over {requests} requests = {per_request:.2} per request"
    );
}

/// The same refresh on all-miss traffic: 64 distinct queries no refresh
/// has asked before, so every lookup misses, the batch dedups and
/// computes all 64 and every answer is inserted. A miss costs no
/// allocation of its own — the dedup, the engine call and the inserts
/// allocate per batch — so the bound is half an allocation above the
/// three the API keeps. (With a slot list per distinct miss and a
/// dedup map grown per batch, this refresh cost 4.46.)
#[test]
fn a_cache_miss_costs_no_allocation_of_its_own() {
    const TILES: usize = 64;
    const WARMUP: usize = 4;
    const REFRESHES: usize = 50;
    let _serial = serial();
    let mut session = Session::new(uniform(20_000, 7));
    session.add_engine("pass", &EngineSpec::pass()).unwrap();
    let serve = session
        .serve("pass", ServeConfig::new().with_workers(1))
        .unwrap();
    let refreshes: Vec<Vec<Query>> = (0..WARMUP + REFRESHES)
        .map(|r| {
            (0..TILES)
                .map(|i| Query::interval(AggKind::Sum, (r * TILES + i) as f64 / 1e5, 0.9))
                .collect()
        })
        .collect();
    // Expected answers from the raw engine, so the cache stays cold.
    let engine = session.engine("pass").unwrap();
    let expected: Vec<Vec<u64>> = refreshes
        .iter()
        .map(|qs| {
            let answers = qs.iter().map(|q| engine.estimate(q).unwrap().value);
            answers.map(f64::to_bits).collect()
        })
        .collect();
    let mut tickets: Vec<Ticket> = Vec::with_capacity(TILES);
    let mut mismatches = 0usize;
    let mut refresh = |r: usize| {
        tickets.clear();
        serve.pause();
        for q in &refreshes[r] {
            tickets.push(serve.submit_to("pass", q).unwrap());
        }
        serve.resume();
        for (ticket, want) in tickets.iter().zip(&expected[r]) {
            let got = ticket.wait().results().unwrap();
            mismatches += usize::from(got[0].as_ref().unwrap().value.to_bits() != *want);
        }
    };
    for r in 0..WARMUP {
        refresh(r);
    }
    let before = session.cache_stats("pass").unwrap();
    let allocations = allocations_during(|| {
        for r in WARMUP..WARMUP + REFRESHES {
            refresh(r);
        }
    });
    let delta = session.cache_stats("pass").unwrap().since(&before);
    assert_eq!(mismatches, 0, "served answers differ from direct ones");
    let requests = (TILES * REFRESHES) as u64;
    assert_eq!(
        (delta.hits, delta.misses),
        (0, requests),
        "every lookup missed"
    );
    let per_request = allocations as f64 / requests as f64;
    assert!(
        per_request <= 3.5,
        "{allocations} allocations over {requests} requests = {per_request:.2} per request"
    );
}

/// Up to the inline capacity a query is a plain value: building one,
/// cloning it and keying it never reach the allocator. One dimension
/// more spills the bounds into exactly one heap block each time.
#[test]
fn queries_within_the_inline_capacity_never_allocate() {
    const INLINE: usize = 3;
    let _serial = serial();
    for dims in 1..=INLINE {
        let query = Query::new(AggKind::Avg, rect(dims));
        let bounds: Vec<(f64, f64)> = (0..dims).map(|d| (d as f64, d as f64 + 1.0)).collect();
        let n = allocations_during(|| {
            black_box(Rect::interval(0.25, 0.75));
            black_box(Rect::new(black_box(&bounds)));
            black_box(Rect::whole(dims));
            black_box(query.clone());
            black_box(QueryKey::new(black_box(&query)));
            black_box(query.rect.narrowed(0, 0.1, 0.4));
            black_box(query.rect.union(&query.rect));
        });
        assert_eq!(n, 0, "{dims}-D");
    }
    let wide = Query::new(AggKind::Avg, rect(INLINE + 1));
    assert_eq!(allocations_during(|| drop(black_box(wide.clone()))), 1);
    assert_eq!(
        allocations_during(|| drop(black_box(QueryKey::new(&wide)))),
        1
    );
}

//! Completion tickets for asynchronously served requests.
//!
//! The serving front-end (`pass::Serve`) decouples *submitting* a request
//! from *executing* it: `submit` enqueues the request and immediately
//! returns a [`Ticket`], which the client polls ([`Ticket::poll`]) or
//! blocks on ([`Ticket::wait`]) for its outcome. This is the
//! dependency-free equivalent of a oneshot-channel future — a shared
//! `Mutex<Option<outcome>>` plus a `Condvar` — chosen over an async
//! runtime because the workspace is offline (no tokio) and the waiting
//! side of a query server needs nothing fancier.
//!
//! Every served request — a plain batch or a group-by's equality
//! queries alike — resolves through this one cell to a [`ServeOutcome`].
//!
//! The producer half is [`TicketSlot`]: the serving worker that executes
//! (or sheds) the request calls [`TicketSlot::fulfill`] exactly once —
//! it consumes the slot, so an outcome is final. A slot dropped
//! unfulfilled (worker panic, aborted shutdown) resolves its ticket to
//! [`ServeOutcome::Cancelled`], so a client can never block forever on a
//! request the server lost.
//!
//! Wakeups are **conditional and deferrable**. Waiters count themselves
//! in `TicketState::parked` (under the ticket lock) around every condvar
//! wait, and the producer reads that count under the same lock as it
//! stores the outcome: nobody parked means no `notify_all` — which on
//! Linux is a `futex` syscall whether or not anyone listens. When
//! someone *is* parked, [`TicketSlot::store`] hands back a [`TicketWake`]
//! that wakes them when dropped, so a worker resolving a whole batch
//! stores every outcome first and wakes afterwards (one wakeup per batch
//! instead of one park/preempt round trip per ticket).
//! [`TicketSlot::fulfill`] is the batch of one: store, then drop the
//! handle.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::chaos::{Condvar, Mutex};
use crate::estimate::Estimate;
use crate::Result;

/// The terminal state of one served request.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeOutcome {
    /// The request executed: one result per submitted query, in order.
    Done(Vec<Result<Estimate>>),
    /// Admission control refused the request — the queue was at
    /// capacity when it was submitted. Nothing executed; retry later or
    /// shed the work.
    Rejected,
    /// The request's deadline passed while it was still queued; it was
    /// discarded **without executing** (deadlines fail fast rather than
    /// occupying a worker with an answer nobody is waiting for).
    Expired,
    /// The server shut down (or lost its worker) before the request
    /// executed.
    Cancelled,
}

impl ServeOutcome {
    /// The executed results, or `None` for any non-[`Done`](Self::Done)
    /// outcome.
    pub fn results(self) -> Option<Vec<Result<Estimate>>> {
        match self {
            ServeOutcome::Done(results) => Some(results),
            _ => None,
        }
    }

    /// Whether the request actually executed.
    pub fn is_done(&self) -> bool {
        matches!(self, ServeOutcome::Done(_))
    }
}

#[derive(Debug)]
struct TicketState {
    outcome: Option<ServeOutcome>,
    /// Global completion stamp (server-assigned, monotonically
    /// increasing) — lets tests and clients observe *relative* completion
    /// order, e.g. that interactive requests finished before co-queued
    /// bulk ones. See `Ticket::completion_index` for the multi-worker
    /// caveat.
    seq: Option<u64>,
    /// Threads inside a condvar wait on `done` right now: incremented
    /// before each wait, decremented on every return from one (wakeup,
    /// spurious wakeup and timeout alike), always under this lock — so
    /// the producer's "is anyone parked?" read cannot race a waiter.
    parked: usize,
}

#[derive(Debug)]
struct Shared {
    state: Mutex<TicketState>,
    done: Condvar,
}

/// The client half of one served request: poll or block for its
/// outcome.
///
/// Tickets are cheap (`Arc` internally) and cloneable; every clone
/// observes the same outcome.
///
/// # Examples
///
/// ```
/// use pass_common::{ServeOutcome, Ticket};
///
/// let (ticket, slot) = Ticket::pending();
/// assert_eq!(ticket.poll(), None); // non-blocking: still pending
///
/// // The serving worker resolves the slot exactly once...
/// slot.fulfill(ServeOutcome::Done(Vec::new()), Some(0));
///
/// // ...and every clone of the ticket observes the same outcome.
/// let twin = ticket.clone();
/// assert!(ticket.wait().is_done());
/// assert_eq!(twin.completion_index(), Some(0));
/// ```
#[derive(Debug, Clone)]
pub struct Ticket {
    shared: Arc<Shared>,
}

impl Ticket {
    /// A pending ticket plus the [`TicketSlot`] that will resolve it.
    pub fn pending() -> (Self, TicketSlot) {
        let shared = Arc::new(Shared {
            state: Mutex::new(TicketState {
                outcome: None,
                seq: None,
                parked: 0,
            }),
            done: Condvar::new(),
        });
        (
            Ticket {
                shared: Arc::clone(&shared),
            },
            TicketSlot {
                shared: Some(shared),
            },
        )
    }

    /// A ticket born resolved — how admission control returns a
    /// rejection synchronously while keeping one uniform submission API.
    pub fn resolved(outcome: ServeOutcome) -> Self {
        let (ticket, slot) = Self::pending();
        slot.fulfill(outcome, None);
        ticket
    }

    /// Non-blocking check: the outcome if resolved, else `None`.
    pub fn poll(&self) -> Option<ServeOutcome> {
        self.shared.state.lock().outcome.clone()
    }

    /// Block until the outcome arrives.
    pub fn wait(&self) -> ServeOutcome {
        let mut state = self.shared.state.lock();
        loop {
            if let Some(outcome) = &state.outcome {
                return outcome.clone();
            }
            state.parked += 1;
            state = self.shared.done.wait(state);
            state.parked -= 1;
        }
    }

    /// Block for at most `timeout`; `None` if still pending afterwards.
    /// A timeout past the clock's range waits like [`wait`](Self::wait).
    pub fn wait_timeout(&self, timeout: Duration) -> Option<ServeOutcome> {
        let Some(deadline) = Instant::now().checked_add(timeout) else {
            return Some(self.wait());
        };
        let mut state = self.shared.state.lock();
        loop {
            if let Some(outcome) = &state.outcome {
                return Some(outcome.clone());
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            state.parked += 1;
            let (next, _timed_out) = self.shared.done.wait_timeout(state, deadline - now);
            state = next;
            state.parked -= 1;
        }
    }

    /// The server's completion stamp. With a **single** serving worker,
    /// stamps totally order completions (smaller = finished earlier) —
    /// which is how the contract tests observe priority ordering. With
    /// multiple workers, stamps from *concurrently* completing requests
    /// may interleave with the order a client happens to observe
    /// resolutions in; only same-worker completions are strictly
    /// ordered. `None` while pending or for outcomes that never reached
    /// a worker (e.g. [`ServeOutcome::Rejected`]).
    pub fn completion_index(&self) -> Option<u64> {
        self.shared.state.lock().seq
    }
}

/// The producer half of a [`Ticket`]: resolves it exactly once.
///
/// Dropping an unfulfilled slot resolves the ticket to
/// [`ServeOutcome::Cancelled`] — the safety net that keeps clients from
/// blocking forever if the serving worker unwinds.
#[derive(Debug)]
pub struct TicketSlot {
    shared: Option<Arc<Shared>>,
}

impl TicketSlot {
    /// Resolve the ticket with `outcome` (and, for executed requests,
    /// the server's completion stamp) and wake whoever is parked on it.
    /// Consumes the slot: an outcome is final.
    pub fn fulfill(self, outcome: ServeOutcome, seq: Option<u64>) {
        drop(self.store(outcome, seq));
    }

    /// Resolve the ticket **without waking anyone yet**: the outcome is
    /// final and visible to `poll` / `wait` from here on, and the
    /// returned [`TicketWake`] — `Some` only if a thread was parked on
    /// the ticket at that moment — wakes the sleepers when dropped. A
    /// worker resolving a batch keeps the handles until its last store,
    /// so the first waiter it wakes finds every answer ready instead of
    /// preempting the worker once per ticket.
    pub fn store(mut self, outcome: ServeOutcome, seq: Option<u64>) -> Option<TicketWake> {
        self.store_inner(outcome, seq)
    }

    fn store_inner(&mut self, outcome: ServeOutcome, seq: Option<u64>) -> Option<TicketWake> {
        let shared = self.shared.take()?;
        let mut state = shared.state.lock();
        state.outcome = Some(outcome);
        state.seq = seq;
        let parked = state.parked > 0;
        drop(state);
        parked.then(|| TicketWake { shared })
    }
}

impl Drop for TicketSlot {
    fn drop(&mut self) {
        drop(self.store_inner(ServeOutcome::Cancelled, None));
    }
}

/// The pending wakeup of a resolved [`Ticket`] that had a parked waiter
/// (see [`TicketSlot::store`]). Waking happens **on drop**, so a worker
/// that unwinds between storing a batch's outcomes and waking its
/// waiters still wakes every one of them.
#[derive(Debug)]
pub struct TicketWake {
    shared: Arc<Shared>,
}

impl Drop for TicketWake {
    fn drop(&mut self) {
        self.shared.done.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poll_sees_pending_then_resolved() {
        let (ticket, slot) = Ticket::pending();
        assert_eq!(ticket.poll(), None);
        assert!(ticket.poll().is_none());
        slot.fulfill(ServeOutcome::Done(vec![Ok(Estimate::exact(7.0))]), Some(3));
        let outcome = ticket.poll().unwrap();
        assert!(outcome.is_done());
        assert_eq!(outcome.results().unwrap()[0].as_ref().unwrap().value, 7.0);
        assert_eq!(ticket.completion_index(), Some(3));
    }

    #[test]
    fn wait_blocks_until_fulfilled_across_threads() {
        let (ticket, slot) = Ticket::pending();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| ticket.wait());
            std::thread::sleep(Duration::from_millis(10));
            slot.fulfill(ServeOutcome::Expired, None);
            assert_eq!(waiter.join().unwrap(), ServeOutcome::Expired);
        });
    }

    #[test]
    fn wait_timeout_expires_then_succeeds() {
        let (ticket, slot) = Ticket::pending();
        assert_eq!(ticket.wait_timeout(Duration::from_millis(5)), None);
        slot.fulfill(ServeOutcome::Rejected, None);
        assert_eq!(
            ticket.wait_timeout(Duration::from_millis(5)),
            Some(ServeOutcome::Rejected)
        );
    }

    #[test]
    fn an_expired_wait_timeout_leaves_nobody_counted_as_parked() {
        let (ticket, slot) = Ticket::pending();
        assert_eq!(ticket.wait_timeout(Duration::from_millis(2)), None);
        assert_eq!(ticket.shared.state.lock().parked, 0);
        // The waiter left: resolving now owes nobody a wakeup.
        assert!(slot.store(ServeOutcome::Rejected, None).is_none());
        assert!(ticket.poll().is_some());
    }

    #[test]
    fn a_clone_parked_on_another_thread_wakes_with_the_first() {
        let (ticket, slot) = Ticket::pending();
        let twin = ticket.clone();
        std::thread::scope(|s| {
            let first = s.spawn(|| ticket.wait());
            let second = s.spawn(|| twin.wait());
            // Both threads must be inside the condvar wait before the
            // store, so one handle owes both of them the wakeup.
            while ticket.shared.state.lock().parked < 2 {
                std::thread::yield_now();
            }
            let wake = slot.store(ServeOutcome::Done(vec![]), Some(9));
            assert!(wake.is_some(), "two parked waiters are owed a wakeup");
            drop(wake);
            assert!(first.join().unwrap().is_done());
            assert!(second.join().unwrap().is_done());
        });
        assert_eq!(ticket.shared.state.lock().parked, 0);
    }

    #[test]
    fn a_timeout_past_the_clock_range_waits_for_the_outcome() {
        let (ticket, slot) = Ticket::pending();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| ticket.wait_timeout(Duration::MAX));
            // Resolve only once the waiter is parked, so the fulfil
            // has to wake it.
            while ticket.shared.state.lock().parked == 0 {
                std::thread::yield_now();
            }
            slot.fulfill(ServeOutcome::Rejected, None);
            assert_eq!(waiter.join().unwrap(), Some(ServeOutcome::Rejected));
        });
        assert_eq!(
            ticket.wait_timeout(Duration::MAX),
            Some(ServeOutcome::Rejected)
        );
    }

    #[test]
    fn born_resolved_tickets_never_block() {
        let ticket = Ticket::resolved(ServeOutcome::Rejected);
        assert_eq!(ticket.wait(), ServeOutcome::Rejected);
        assert_eq!(ticket.completion_index(), None);
        assert!(!ServeOutcome::Rejected.is_done());
        assert_eq!(ServeOutcome::Rejected.results(), None);
    }

    #[test]
    fn dropping_the_slot_cancels_instead_of_hanging() {
        let (ticket, slot) = Ticket::pending();
        drop(slot);
        assert_eq!(ticket.wait(), ServeOutcome::Cancelled);
    }

    #[test]
    fn clones_observe_the_same_outcome() {
        let (ticket, slot) = Ticket::pending();
        let twin = ticket.clone();
        slot.fulfill(ServeOutcome::Done(vec![]), Some(1));
        assert!(ticket.wait().is_done());
        assert!(twin.wait().is_done());
        assert_eq!(twin.completion_index(), Some(1));
    }
}

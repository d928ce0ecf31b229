//! Progressive (online-aggregation) tickets for served group-by queries.
//!
//! A plain [`Ticket`](crate::Ticket) resolves once, with the final
//! answer. Online aggregation (see the OLA survey in `PAPERS.md`) wants
//! more: the client should watch the answer *refine* — shard-by-shard
//! partial merges, each with a sound confidence interval that only
//! tightens — and a deadline should harvest the best estimate so far
//! instead of discarding the work.
//!
//! [`ProgressiveTicket`] is that contract. The serving worker holds the
//! producer half, a [`ProgressiveSlot`], and alternates two calls:
//! [`publish`](ProgressiveSlot::publish) appends a refining
//! [`GroupBySnapshot`] to the ticket's stream, and
//! [`try_resolve`](ProgressiveSlot::try_resolve) installs the terminal
//! [`ProgressiveOutcome`] **exactly once** — the first resolver wins,
//! later attempts (and later publishes) are no-ops. That first-wins rule
//! is what makes the deadline race safe: a watcher resolving
//! `Done { partial: true }` and the worker resolving
//! `Done { partial: false }` can interleave arbitrarily and the ticket
//! still resolves exactly once (`crates/common/tests/chaos_model.rs`
//! model-checks this under every bounded interleaving).
//!
//! Like [`TicketSlot`](crate::TicketSlot), dropping every slot clone
//! without resolving cancels the ticket, so clients never block forever
//! on a request the server lost.
//!
//! Wakeups follow the serving tier's one rule (`docs/CONCURRENCY.md`,
//! "The wake rule"): waiters count themselves under the ticket lock
//! around each condvar wait, and `publish` / `try_resolve` / the
//! cancelling drop notify only when that count is non-zero.

use std::sync::Arc;
use std::time::Duration;

use crate::chaos::{Condvar, Mutex, MutexGuard};
use crate::error::PassError;
use crate::query::GroupResult;

/// One refining view of a group-by answer: the per-group estimates after
/// merging `shards_merged` of `shards_total` shards.
///
/// Snapshots only tighten: the serving layer guarantees each published
/// snapshot's per-group CI half-widths are no wider than the previous
/// snapshot's (a group that erred counts as infinitely wide, so an error
/// can refine into an answer but never the reverse). The snapshot with
/// `last == true` is the engine's complete answer — bit-identical to the
/// non-progressive `estimate_group_by` result.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupBySnapshot {
    /// How many shards this snapshot has merged (1-based; equals
    /// `shards_total` for the final snapshot).
    pub shards_merged: usize,
    /// Total shards the full answer needs (1 for unsharded engines).
    pub shards_total: usize,
    /// One result per requested category, in category order.
    pub groups: Vec<GroupResult>,
    /// Whether this is the complete (non-extrapolated) answer.
    pub last: bool,
}

/// The terminal state of one progressive group-by request.
///
/// There is deliberately no `Expired` arm: a deadline that lands
/// mid-stream harvests the freshest snapshot as
/// [`Done`](Self::Done)` { partial: true }` — the whole point of paying
/// for progressive execution is that a timeout still returns the best
/// estimate so far.
#[derive(Debug, Clone, PartialEq)]
pub enum ProgressiveOutcome {
    /// The request produced an answer.
    Done {
        /// Per-group results, in category order — the final answer when
        /// `partial` is false, else the freshest snapshot's estimates.
        groups: Vec<GroupResult>,
        /// `true` when a deadline cut execution short and `groups` is
        /// the best estimate so far rather than the complete answer.
        partial: bool,
    },
    /// Admission control refused the request (queue at capacity).
    Rejected,
    /// The server shut down before the request produced anything.
    Cancelled,
    /// The query itself was invalid for the engine (wrong arity,
    /// out-of-range group dimension, NaN category).
    Failed(PassError),
}

impl ProgressiveOutcome {
    /// The per-group results, or `None` for any non-[`Done`](Self::Done)
    /// outcome.
    pub fn groups(self) -> Option<Vec<GroupResult>> {
        match self {
            ProgressiveOutcome::Done { groups, .. } => Some(groups),
            _ => None,
        }
    }

    /// Whether the request produced an answer (complete or partial).
    pub fn is_done(&self) -> bool {
        matches!(self, ProgressiveOutcome::Done { .. })
    }

    /// Whether a deadline cut the answer short.
    pub fn is_partial(&self) -> bool {
        matches!(self, ProgressiveOutcome::Done { partial: true, .. })
    }
}

#[derive(Debug, Default)]
struct ProgressiveState {
    snapshots: Vec<GroupBySnapshot>,
    outcome: Option<ProgressiveOutcome>,
    /// Live [`ProgressiveSlot`] clones; the last one to drop without a
    /// resolution cancels the ticket.
    producers: usize,
    /// Threads inside a condvar wait on `changed` right now — the same
    /// under-the-lock count `Ticket` keeps, so producers notify only
    /// when someone is parked.
    parked: usize,
}

#[derive(Debug, Default)]
struct ProgressiveShared {
    state: Mutex<ProgressiveState>,
    changed: Condvar,
}

impl ProgressiveShared {
    /// Wake the parked waiters, if there were any when `state` was
    /// last changed. Consumes the guard: the wakeup is issued after
    /// unlocking, the decision under the lock.
    fn unlock_and_wake(&self, state: MutexGuard<'_, ProgressiveState>) {
        let parked = state.parked > 0;
        drop(state);
        if parked {
            self.changed.notify_all();
        }
    }
}

/// The client half of a progressive group-by request: observe the
/// snapshot stream and poll or block for the terminal outcome.
///
/// Tickets are cheap (`Arc` internally) and cloneable; every clone
/// observes the same snapshots and outcome.
///
/// # Examples
///
/// ```
/// use pass_common::{GroupBySnapshot, ProgressiveOutcome, ProgressiveTicket};
///
/// let (ticket, slot) = ProgressiveTicket::pending();
/// assert_eq!(ticket.poll(), None);
///
/// slot.publish(GroupBySnapshot {
///     shards_merged: 1,
///     shards_total: 2,
///     groups: vec![],
///     last: false,
/// });
/// assert_eq!(ticket.snapshot_count(), 1);
///
/// // The first resolver wins; later attempts are no-ops.
/// assert!(slot.try_resolve(ProgressiveOutcome::Done {
///     groups: vec![],
///     partial: false,
/// }));
/// assert!(!slot.try_resolve(ProgressiveOutcome::Rejected));
/// assert!(ticket.wait().is_done());
/// ```
#[derive(Debug, Clone)]
pub struct ProgressiveTicket {
    shared: Arc<ProgressiveShared>,
}

impl ProgressiveTicket {
    /// A pending ticket plus the [`ProgressiveSlot`] that feeds it.
    pub fn pending() -> (ProgressiveTicket, ProgressiveSlot) {
        let shared = Arc::new(ProgressiveShared::default());
        shared.state.lock().producers = 1;
        (
            ProgressiveTicket {
                shared: Arc::clone(&shared),
            },
            ProgressiveSlot { shared },
        )
    }

    /// A ticket born resolved — how admission control returns
    /// [`ProgressiveOutcome::Rejected`] synchronously while keeping one
    /// uniform submission API.
    pub fn resolved(outcome: ProgressiveOutcome) -> ProgressiveTicket {
        let (ticket, slot) = ProgressiveTicket::pending();
        slot.try_resolve(outcome);
        ticket
    }

    /// Every snapshot published so far, oldest first.
    pub fn snapshots(&self) -> Vec<GroupBySnapshot> {
        self.shared.state.lock().snapshots.clone()
    }

    /// How many snapshots have been published so far.
    pub fn snapshot_count(&self) -> usize {
        self.shared.state.lock().snapshots.len()
    }

    /// The freshest snapshot, if any has been published.
    pub fn latest(&self) -> Option<GroupBySnapshot> {
        self.shared.state.lock().snapshots.last().cloned()
    }

    /// Non-blocking check: the outcome if resolved, else `None`.
    pub fn poll(&self) -> Option<ProgressiveOutcome> {
        self.shared.state.lock().outcome.clone()
    }

    /// Whether the ticket has resolved.
    pub fn is_resolved(&self) -> bool {
        self.shared.state.lock().outcome.is_some()
    }

    /// Block until the terminal outcome arrives.
    pub fn wait(&self) -> ProgressiveOutcome {
        let mut state = self.shared.state.lock();
        loop {
            if let Some(outcome) = &state.outcome {
                return outcome.clone();
            }
            state.parked += 1;
            state = self.shared.changed.wait(state);
            state.parked -= 1;
        }
    }

    /// Block for at most `timeout`; `None` if still pending afterwards.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<ProgressiveOutcome> {
        let deadline = std::time::Instant::now() + timeout;
        let mut state = self.shared.state.lock();
        loop {
            if let Some(outcome) = &state.outcome {
                return Some(outcome.clone());
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return None;
            }
            state.parked += 1;
            let (next, _timed_out) = self.shared.changed.wait_timeout(state, deadline - now);
            state = next;
            state.parked -= 1;
        }
    }
}

/// The producer half of a [`ProgressiveTicket`].
///
/// Cloneable so a deadline watcher and the executing worker can race to
/// resolve: [`try_resolve`](Self::try_resolve) is first-wins
/// exactly-once. When the last clone drops without anyone resolving, the
/// ticket resolves to [`ProgressiveOutcome::Cancelled`].
#[derive(Debug)]
pub struct ProgressiveSlot {
    shared: Arc<ProgressiveShared>,
}

impl ProgressiveSlot {
    /// Append a refining snapshot to the ticket's stream. Returns `false`
    /// (and publishes nothing) if the ticket already resolved — a late
    /// snapshot after a deadline harvest must not mutate what the client
    /// observed at resolution time.
    pub fn publish(&self, snapshot: GroupBySnapshot) -> bool {
        let mut state = self.shared.state.lock();
        if state.outcome.is_some() {
            return false;
        }
        state.snapshots.push(snapshot);
        self.shared.unlock_and_wake(state);
        true
    }

    /// Install the terminal outcome if no one has yet: returns `true` for
    /// the winning resolver, `false` if the ticket was already resolved.
    /// The losing outcome is discarded entirely.
    pub fn try_resolve(&self, outcome: ProgressiveOutcome) -> bool {
        let mut state = self.shared.state.lock();
        if state.outcome.is_some() {
            return false;
        }
        state.outcome = Some(outcome);
        self.shared.unlock_and_wake(state);
        true
    }

    /// The freshest published snapshot — what a deadline watcher harvests
    /// into `Done { partial: true }`.
    pub fn latest(&self) -> Option<GroupBySnapshot> {
        self.shared.state.lock().snapshots.last().cloned()
    }
}

impl Clone for ProgressiveSlot {
    fn clone(&self) -> Self {
        self.shared.state.lock().producers += 1;
        ProgressiveSlot {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl Drop for ProgressiveSlot {
    fn drop(&mut self) {
        let mut state = self.shared.state.lock();
        state.producers -= 1;
        if state.producers == 0 && state.outcome.is_none() {
            state.outcome = Some(ProgressiveOutcome::Cancelled);
            self.shared.unlock_and_wake(state);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(merged: usize, total: usize, last: bool) -> GroupBySnapshot {
        GroupBySnapshot {
            shards_merged: merged,
            shards_total: total,
            groups: vec![],
            last,
        }
    }

    #[test]
    fn snapshots_accumulate_and_latest_tracks_the_tail() {
        let (ticket, slot) = ProgressiveTicket::pending();
        assert_eq!(ticket.snapshot_count(), 0);
        assert_eq!(ticket.latest(), None);
        assert!(slot.publish(snap(1, 3, false)));
        assert!(slot.publish(snap(2, 3, false)));
        assert_eq!(ticket.snapshot_count(), 2);
        assert_eq!(ticket.latest().unwrap().shards_merged, 2);
        assert_eq!(slot.latest().unwrap().shards_merged, 2);
        assert_eq!(ticket.snapshots().len(), 2);
    }

    #[test]
    fn first_resolver_wins_and_later_publishes_are_ignored() {
        let (ticket, slot) = ProgressiveTicket::pending();
        let watcher = slot.clone();
        assert!(slot.publish(snap(1, 2, false)));
        assert!(watcher.try_resolve(ProgressiveOutcome::Done {
            groups: vec![],
            partial: true,
        }));
        // The worker loses the race: its final snapshot and resolution
        // are both no-ops.
        assert!(!slot.publish(snap(2, 2, true)));
        assert!(!slot.try_resolve(ProgressiveOutcome::Done {
            groups: vec![],
            partial: false,
        }));
        assert_eq!(ticket.snapshot_count(), 1);
        let outcome = ticket.wait();
        assert!(outcome.is_partial());
        assert_eq!(outcome.groups(), Some(vec![]));
    }

    #[test]
    fn dropping_every_slot_cancels_instead_of_hanging() {
        let (ticket, slot) = ProgressiveTicket::pending();
        let twin = slot.clone();
        drop(slot);
        assert_eq!(ticket.poll(), None, "one producer still live");
        drop(twin);
        assert_eq!(ticket.wait(), ProgressiveOutcome::Cancelled);
    }

    #[test]
    fn wait_blocks_until_resolved_across_threads() {
        let (ticket, slot) = ProgressiveTicket::pending();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| ticket.wait());
            std::thread::sleep(Duration::from_millis(10));
            slot.publish(snap(1, 1, true));
            slot.try_resolve(ProgressiveOutcome::Done {
                groups: vec![],
                partial: false,
            });
            let outcome = waiter.join().unwrap();
            assert!(outcome.is_done());
            assert!(!outcome.is_partial());
        });
    }

    #[test]
    fn wait_timeout_expires_then_succeeds() {
        let (ticket, slot) = ProgressiveTicket::pending();
        assert_eq!(ticket.wait_timeout(Duration::from_millis(5)), None);
        slot.try_resolve(ProgressiveOutcome::Rejected);
        assert_eq!(
            ticket.wait_timeout(Duration::from_millis(5)),
            Some(ProgressiveOutcome::Rejected)
        );
    }

    #[test]
    fn born_resolved_tickets_never_block() {
        let ticket = ProgressiveTicket::resolved(ProgressiveOutcome::Rejected);
        assert_eq!(ticket.wait(), ProgressiveOutcome::Rejected);
        assert!(!ProgressiveOutcome::Rejected.is_done());
        assert_eq!(ProgressiveOutcome::Rejected.groups(), None);
    }
}

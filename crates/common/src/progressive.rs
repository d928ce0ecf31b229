//! Progressive (online-aggregation) outcomes for served group-by queries.
//!
//! A plain request resolves once, with the final answer. Online
//! aggregation (see the OLA survey in `PAPERS.md`) wants more: the client
//! should watch the answer *refine* — shard-by-shard partial merges, each
//! with a sound confidence interval that only tightens — and a deadline
//! should harvest the best estimate so far instead of discarding the
//! work.
//!
//! A [`ProgressiveTicket`] is that contract on the serving tier's one
//! completion cell: a [`Ticket`] whose outcome is a [`ProgressiveOutcome`]
//! and whose snapshots are [`GroupBySnapshot`]s.

use crate::error::PassError;
use crate::query::GroupResult;
use crate::ticket::{Ticket, TicketOutcome};

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

impl TicketOutcome for ProgressiveOutcome {
    type Snapshot = GroupBySnapshot;

    fn cancelled() -> Self {
        ProgressiveOutcome::Cancelled
    }
}

/// The client half of a progressive group-by request: observe the
/// snapshot stream and poll or block for the terminal outcome.
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
/// // Resolving consumes the slot: nothing is published after it.
/// slot.fulfill(ProgressiveOutcome::Done { groups: vec![], partial: true }, None);
/// assert!(ticket.wait().is_partial());
/// assert_eq!(ticket.latest().unwrap().shards_merged, 1);
/// ```
pub type ProgressiveTicket = Ticket<ProgressiveOutcome>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

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
        slot.publish(snap(1, 3, false));
        slot.publish(snap(2, 3, false));
        assert_eq!(ticket.snapshot_count(), 2);
        assert_eq!(ticket.latest().unwrap().shards_merged, 2);
        // Resolving leaves the stream as the client last saw it.
        slot.fulfill(ProgressiveOutcome::Rejected, None);
        assert_eq!(ticket.snapshot_count(), 2);
        assert_eq!(ticket.latest(), Some(snap(2, 3, false)));
    }

    #[test]
    fn dropping_every_slot_cancels_instead_of_hanging() {
        let (ticket, slot) = ProgressiveTicket::pending();
        slot.publish(snap(1, 2, false));
        drop(slot);
        assert_eq!(ticket.wait(), ProgressiveOutcome::Cancelled);
        assert_eq!(ticket.snapshot_count(), 1);
    }

    #[test]
    fn wait_blocks_until_resolved_across_threads() {
        let (ticket, slot) = ProgressiveTicket::pending();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| ticket.wait());
            std::thread::sleep(Duration::from_millis(10));
            slot.publish(snap(1, 1, true));
            slot.fulfill(
                ProgressiveOutcome::Done {
                    groups: vec![],
                    partial: false,
                },
                None,
            );
            let outcome = waiter.join().unwrap();
            assert!(outcome.is_done());
            assert!(!outcome.is_partial());
        });
    }

    #[test]
    fn wait_timeout_expires_then_succeeds() {
        let (ticket, slot) = ProgressiveTicket::pending();
        assert_eq!(ticket.wait_timeout(Duration::from_millis(5)), None);
        slot.fulfill(ProgressiveOutcome::Rejected, None);
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

//! A bounded two-priority MPMC queue — the admission-control boundary of
//! the serving layer.
//!
//! `pass::Serve` accepts query submissions from any number of client
//! threads and hands them to a fixed set of workers; the queue between
//! the two is where load shedding happens. [`RequestQueue`] is bounded
//! (a full queue **rejects** the push instead of blocking the client —
//! that is the backpressure signal), has two strict priority classes
//! ([`Priority::Interactive`] always pops before [`Priority::Bulk`]),
//! and tracks the queue-depth high-water mark so saturation is
//! observable after the fact.
//!
//! **Within** a class the pop policy is FIFO: each class is a plain
//! `VecDeque`, pushed at the back and popped from the front. An item
//! may carry a deadline, but the queue never reads it: expiring stale
//! items is the consumer's job (the serving layer resolves them
//! `Expired` at pop time).
//!
//! Like the [`crate::ThreadPool`], this is deliberately dependency-free:
//! one `Mutex` around two `VecDeque`s plus a `Condvar` for blocking
//! consumers. The serving layer's queues hold hundreds of requests, not
//! millions — correctness and observability beat lock-free cleverness
//! here.
//!
//! Consumers count themselves (under that one `Mutex`) while parked in
//! [`pop_blocking`](RequestQueue::pop_blocking), so a push wakes one
//! only when one is actually parked — with every worker busy, which is
//! exactly when the queue is hot, a push makes no syscall at all.

use std::collections::VecDeque;

use crate::chaos::{Condvar, Mutex};

/// The admission class of a serving request.
///
/// Strict two-level priority: every queued `Interactive` request is
/// popped before any `Bulk` request, and requests within one class pop
/// FIFO. Two classes (not N) is a deliberate serving-layer idiom: a
/// latency-sensitive dashboard query must overtake a queued analytics
/// sweep, and anything finer-grained has no measured case
/// (`docs/SERVING.md`, "Mixed traffic").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Priority {
    /// Latency-sensitive: pops before every queued [`Bulk`](Self::Bulk)
    /// request.
    Interactive,
    /// Throughput-oriented: yields to interactive traffic.
    Bulk,
}

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity — admission control says shed this load.
    Full,
    /// The queue was closed (the serving front-end is shutting down).
    Closed,
}

#[derive(Debug)]
struct QueueInner<T> {
    interactive: VecDeque<T>,
    bulk: VecDeque<T>,
    closed: bool,
    paused: bool,
    high_water: usize,
    /// Consumers inside the condvar wait of `pop_blocking` right now
    /// (incremented before the wait, decremented after it, under this
    /// lock): a push only pays for a wakeup when this is non-zero.
    parked: usize,
    /// Wakeups signalled to parked consumers not yet back in the lock: a
    /// push signals only while `parked > woken`.
    woken: usize,
}

impl<T> QueueInner<T> {
    fn len(&self) -> usize {
        self.interactive.len() + self.bulk.len()
    }

    fn class_mut(&mut self, class: Priority) -> &mut VecDeque<T> {
        match class {
            Priority::Interactive => &mut self.interactive,
            Priority::Bulk => &mut self.bulk,
        }
    }
}

/// A bounded MPMC queue with two strict priority classes, FIFO order
/// within each class, and a queue-depth high-water mark.
///
/// Producers call [`try_push`](Self::try_push), which never blocks: a
/// full queue returns [`PushError::Full`] so the caller can shed the
/// request (the serving layer turns this into a `Rejected` ticket).
/// Consumers call [`pop_blocking`](Self::pop_blocking) (parks until an
/// item arrives or the queue closes) or the non-blocking
/// [`drain_class_where`](Self::drain_class_where) used by batch
/// coalescing.
///
/// # Examples
///
/// ```
/// use pass_common::{Priority, RequestQueue};
///
/// let queue = RequestQueue::new(8);
/// queue.try_push("sweep", Priority::Bulk).unwrap();
/// queue.try_push("dashboard", Priority::Interactive).unwrap();
/// queue.try_push("second sweep", Priority::Bulk).unwrap();
///
/// // No bulk entry ever overtakes queued interactive work; within a
/// // class, entries pop in submission order.
/// assert_eq!(queue.pop_blocking(), Some(("dashboard", Priority::Interactive)));
/// assert_eq!(queue.pop_blocking(), Some(("sweep", Priority::Bulk)));
/// assert_eq!(queue.pop_blocking(), Some(("second sweep", Priority::Bulk)));
/// ```
#[derive(Debug)]
pub struct RequestQueue<T> {
    capacity: usize,
    inner: Mutex<QueueInner<T>>,
    available: Condvar,
}

impl<T> RequestQueue<T> {
    /// A queue admitting at most `capacity` items (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            inner: Mutex::new(QueueInner {
                interactive: VecDeque::new(),
                bulk: VecDeque::new(),
                closed: false,
                paused: false,
                high_water: 0,
                parked: 0,
                woken: 0,
            }),
            available: Condvar::new(),
        }
    }

    /// Maximum items the queue admits.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently queued (both classes).
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether the queue currently holds no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The deepest the queue has ever been (items queued simultaneously),
    /// observed after each successful push. A high-water mark at
    /// [`capacity`](Self::capacity) means admission control engaged.
    pub fn high_water(&self) -> usize {
        self.inner.lock().high_water
    }

    /// Enqueue `item` at the back of `priority`'s class. Never blocks: a
    /// queue at capacity refuses with [`PushError::Full`] (and gives
    /// `item` back), a closed queue with [`PushError::Closed`].
    ///
    /// Admission control, the push, high-water accounting and the
    /// decision to wake a consumer all happen under one lock; the
    /// wakeup itself is issued after unlocking, and only if a parked
    /// consumer has none on its way (else it is a `futex` syscall nobody
    /// needs).
    pub fn try_push(&self, item: T, priority: Priority) -> Result<(), (PushError, T)> {
        let mut inner = self.inner.lock();
        if inner.closed {
            return Err((PushError::Closed, item));
        }
        if inner.len() >= self.capacity {
            return Err((PushError::Full, item));
        }
        inner.class_mut(priority).push_back(item);
        inner.high_water = inner.high_water.max(inner.len());
        let wake = inner.parked > inner.woken;
        inner.woken += usize::from(wake);
        drop(inner);
        if wake {
            self.available.notify_one();
        }
        Ok(())
    }

    /// Dequeue the highest-priority item — interactive before bulk, FIFO
    /// within the class — parking the caller until one arrives.
    /// Returns `None` only when the queue is closed **and** drained —
    /// workers use that as their exit signal, so no accepted request is
    /// ever dropped by shutdown. A [paused](Self::set_paused) queue
    /// hands out nothing (consumers park even with items waiting)
    /// unless it is closed — shutdown drains regardless of pause.
    pub fn pop_blocking(&self) -> Option<(T, Priority)> {
        let mut inner = self.inner.lock();
        loop {
            if !inner.paused || inner.closed {
                if let Some(item) = inner.interactive.pop_front() {
                    return Some((item, Priority::Interactive));
                }
                if let Some(item) = inner.bulk.pop_front() {
                    return Some((item, Priority::Bulk));
                }
                if inner.closed {
                    return None;
                }
            }
            inner.parked += 1;
            inner = self.available.wait(inner);
            inner.parked -= 1;
            // A spurious or broadcast wake counts down too: harmless.
            inner.woken = inner.woken.saturating_sub(1);
        }
    }

    /// Dequeue items from the head of `class` — without blocking, in
    /// FIFO order — for as long as `admit` approves the next
    /// head; the first refusal (or an empty class) stops the drain with
    /// the queue intact from there. The whole drain holds the lock
    /// **once**, so it is atomic with respect to producers (no per-item
    /// lock churn on the saturated path) and nothing can slip into the
    /// class mid-drain.
    ///
    /// This is the batch-coalescing hook, and it enforces strict
    /// priority: a [`Bulk`](Priority::Bulk) drain returns empty while
    /// any interactive item is queued, so coalescing can never delay
    /// interactive work behind a glued-together bulk batch. Stopping at
    /// the first refusal (rather than skipping past it) is what lets
    /// the serving layer refuse a different-engine head and thereby
    /// never reorder the class. Pausing also stops the drain (unless
    /// the queue is closed and draining for shutdown).
    pub fn drain_class_where(&self, class: Priority, mut admit: impl FnMut(&T) -> bool) -> Vec<T> {
        let mut drained = Vec::new();
        let mut inner = self.inner.lock();
        if inner.paused && !inner.closed {
            return drained;
        }
        if class == Priority::Bulk && !inner.interactive.is_empty() {
            return drained;
        }
        let deque = inner.class_mut(class);
        while deque.front().is_some_and(&mut admit) {
            drained.extend(deque.pop_front());
        }
        drained
    }

    /// Pause or release consumers. While paused (and not closed),
    /// [`pop_blocking`](Self::pop_blocking) parks even with items
    /// queued and [`drain_class_where`](Self::drain_class_where)
    /// returns nothing — the flag lives under the queue's own lock, so
    /// there is no window where a consumer already parked inside a pop
    /// can slip an item past a pause. Pushes are unaffected (admission
    /// control still applies).
    pub fn set_paused(&self, paused: bool) {
        self.inner.lock().paused = paused;
        self.available.notify_all();
    }

    /// Close the queue: future pushes fail with [`PushError::Closed`],
    /// parked consumers wake, and [`pop_blocking`](Self::pop_blocking)
    /// returns `None` once the remaining items drain.
    pub fn close(&self) {
        self.inner.lock().closed = true;
        self.available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_a_class() {
        let q = RequestQueue::new(8);
        for i in 0..4 {
            q.try_push(i, Priority::Bulk).unwrap();
        }
        for want in 0..4 {
            assert_eq!(q.pop_blocking(), Some((want, Priority::Bulk)));
        }
    }

    #[test]
    fn interactive_overtakes_bulk() {
        let q = RequestQueue::new(8);
        q.try_push("b1", Priority::Bulk).unwrap();
        q.try_push("b2", Priority::Bulk).unwrap();
        q.try_push("i1", Priority::Interactive).unwrap();
        assert_eq!(q.pop_blocking(), Some(("i1", Priority::Interactive)));
        assert_eq!(q.pop_blocking(), Some(("b1", Priority::Bulk)));
        assert_eq!(q.pop_blocking(), Some(("b2", Priority::Bulk)));
    }

    #[test]
    fn rejects_exactly_beyond_capacity() {
        let q = RequestQueue::new(3);
        for i in 0..3 {
            q.try_push(i, Priority::Bulk).unwrap();
        }
        // The 4th is refused and handed back, regardless of class.
        assert_eq!(
            q.try_push(99, Priority::Bulk).unwrap_err(),
            (PushError::Full, 99)
        );
        assert_eq!(
            q.try_push(99, Priority::Interactive).unwrap_err(),
            (PushError::Full, 99)
        );
        // Draining one slot re-admits exactly one.
        q.pop_blocking().unwrap();
        q.try_push(3, Priority::Bulk).unwrap();
        assert_eq!(
            q.try_push(4, Priority::Bulk).unwrap_err().0,
            PushError::Full
        );
    }

    #[test]
    fn high_water_tracks_the_deepest_point() {
        let q = RequestQueue::new(10);
        q.try_push(1, Priority::Bulk).unwrap();
        q.try_push(2, Priority::Interactive).unwrap();
        assert_eq!(q.high_water(), 2);
        q.pop_blocking().unwrap();
        q.pop_blocking().unwrap();
        q.try_push(3, Priority::Bulk).unwrap();
        assert_eq!(q.high_water(), 2, "high water never recedes");
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn close_drains_then_signals_exit() {
        let q = RequestQueue::new(4);
        q.try_push(1, Priority::Bulk).unwrap();
        q.close();
        assert!(q.inner.lock().closed);
        assert_eq!(
            q.try_push(2, Priority::Bulk).unwrap_err().0,
            PushError::Closed
        );
        // The already-accepted item still drains...
        assert_eq!(q.pop_blocking(), Some((1, Priority::Bulk)));
        // ...and only then does the queue report exhaustion.
        assert_eq!(q.pop_blocking(), None);
    }

    #[test]
    fn close_wakes_parked_consumers() {
        let q = RequestQueue::<u32>::new(4);
        std::thread::scope(|s| {
            let t = s.spawn(|| q.pop_blocking());
            std::thread::sleep(std::time::Duration::from_millis(10));
            q.close();
            assert_eq!(t.join().unwrap(), None);
        });
    }

    #[test]
    fn class_drain_respects_the_predicate_and_stops_at_first_refusal() {
        let q = RequestQueue::new(8);
        for v in [5, 6, 50, 7] {
            q.try_push(v, Priority::Bulk).unwrap();
        }
        // Head refused: nothing drains, queue intact.
        assert!(q.drain_class_where(Priority::Bulk, |&v| v > 10).is_empty());
        assert_eq!(q.len(), 4);
        // Drains admissible heads under one lock, stops at the first
        // refusal even though a later item (7) would qualify.
        assert_eq!(q.drain_class_where(Priority::Bulk, |&v| v < 10), vec![5, 6]);
        assert_eq!(q.len(), 2);
        // Budget-style stateful predicate (the coalescing shape).
        let mut budget = 2usize;
        let got = q.drain_class_where(Priority::Bulk, |_| {
            if budget == 0 {
                false
            } else {
                budget -= 1;
                true
            }
        });
        assert_eq!(got, vec![50, 7]);
        // Empty class: no drain, no panic.
        assert!(q.drain_class_where(Priority::Bulk, |_| true).is_empty());
        assert!(q
            .drain_class_where(Priority::Interactive, |_| true)
            .is_empty());
    }

    #[test]
    fn bulk_drain_yields_to_queued_interactive_work() {
        let q = RequestQueue::new(8);
        q.try_push(1, Priority::Bulk).unwrap();
        q.try_push(2, Priority::Bulk).unwrap();
        q.try_push(9, Priority::Interactive).unwrap();
        // Strict priority: with interactive work queued, a bulk drain
        // returns nothing — coalescing may never delay it.
        assert!(q.drain_class_where(Priority::Bulk, |_| true).is_empty());
        // An interactive drain is unaffected by queued bulk.
        assert_eq!(
            q.drain_class_where(Priority::Interactive, |_| true),
            vec![9]
        );
        // Interactive gone: bulk drains normally again.
        assert_eq!(q.drain_class_where(Priority::Bulk, |_| true), vec![1, 2]);
    }

    #[test]
    fn concurrent_producers_and_consumers_conserve_items() {
        let q = RequestQueue::new(1024);
        let produced = 4 * 200;
        std::thread::scope(|s| {
            let consumers: Vec<_> = (0..3)
                .map(|_| {
                    let q = &q;
                    s.spawn(move || {
                        let mut seen = 0usize;
                        while q.pop_blocking().is_some() {
                            seen += 1;
                        }
                        seen
                    })
                })
                .collect();
            let producers: Vec<_> = (0..4)
                .map(|t| {
                    let q = &q;
                    s.spawn(move || {
                        for i in 0..200 {
                            let class = if i % 3 == 0 {
                                Priority::Interactive
                            } else {
                                Priority::Bulk
                            };
                            q.try_push(t * 1000 + i, class).unwrap();
                        }
                    })
                })
                .collect();
            for p in producers {
                p.join().unwrap();
            }
            // All pushes landed; closing releases the consumers once the
            // queue drains.
            q.close();
            let total: usize = consumers.into_iter().map(|c| c.join().unwrap()).sum();
            assert_eq!(total, produced);
        });
    }

    #[test]
    fn paused_queue_hands_out_nothing_even_to_parked_consumers() {
        let q = RequestQueue::new(8);
        q.try_push(1, Priority::Bulk).unwrap();
        assert!(!q.inner.lock().paused);
        q.set_paused(true);
        assert!(q.inner.lock().paused);
        // Non-blocking drain refuses while paused.
        assert!(q.drain_class_where(Priority::Bulk, |_| true).is_empty());
        std::thread::scope(|s| {
            // Consumer parks *inside* pop_blocking while paused...
            let consumer = s.spawn(|| q.pop_blocking());
            std::thread::sleep(std::time::Duration::from_millis(10));
            // ...and a push arriving mid-pause must NOT wake it through.
            q.try_push(2, Priority::Interactive).unwrap();
            std::thread::sleep(std::time::Duration::from_millis(10));
            assert!(!consumer.is_finished(), "paused consumer slipped an item");
            q.set_paused(false);
            assert_eq!(consumer.join().unwrap(), Some((2, Priority::Interactive)));
        });
        assert_eq!(q.pop_blocking(), Some((1, Priority::Bulk)));
    }

    #[test]
    fn close_drains_through_a_pause() {
        let q = RequestQueue::new(4);
        q.try_push(1, Priority::Bulk).unwrap();
        q.set_paused(true);
        q.close();
        // Shutdown overrides pause: the accepted item still drains.
        assert_eq!(q.pop_blocking(), Some((1, Priority::Bulk)));
        assert_eq!(q.pop_blocking(), None);
        assert!(q.drain_class_where(Priority::Bulk, |_| true).is_empty());
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let q = RequestQueue::new(0);
        assert_eq!(q.capacity(), 1);
        q.try_push(1, Priority::Bulk).unwrap();
        assert_eq!(
            q.try_push(2, Priority::Bulk).unwrap_err().0,
            PushError::Full
        );
    }

    #[test]
    fn a_dated_entry_does_not_overtake_an_earlier_undated_one() {
        // The queue holds no deadline, so the item carrying one sits
        // behind the undated item pushed before it.
        let q = RequestQueue::new(8);
        let soon = std::time::Instant::now() + std::time::Duration::from_millis(1);
        q.try_push(("undated", None), Priority::Bulk).unwrap();
        q.try_push(("dated", Some(soon)), Priority::Bulk).unwrap();
        assert_eq!(q.pop_blocking(), Some((("undated", None), Priority::Bulk)));
        assert_eq!(
            q.pop_blocking(),
            Some((("dated", Some(soon)), Priority::Bulk))
        );
    }
}

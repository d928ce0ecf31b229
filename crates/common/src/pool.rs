//! A minimal dependency-free worker pool for data-parallel batch work.
//!
//! The build environment is offline (no `rayon`), so — like the `rand` /
//! `proptest` stubs under `vendor/` — this is a deliberately small,
//! API-focused implementation: a [`ThreadPool`] describes a degree of
//! parallelism, and each batch call fans work out over scoped worker
//! threads that *steal chunks* of the input range from a shared atomic
//! cursor. Fast workers simply claim more chunks, so skewed per-item cost
//! (e.g. selective vs. broad queries) balances without any queue
//! machinery, and scoped spawning lets closures borrow the batch and the
//! synopsis directly — no `'static` bounds, no `unsafe`.
//!
//! The intended consumer is [`crate::estimate_many_parallel`]: query
//! batches are embarrassingly parallel over an immutable synopsis, so
//! chunk-stealing over the query range is all the scheduling the serving
//! layer needs.

use std::ops::Range;

use crate::chaos::{AtomicUsize, Mutex, Ordering};

/// A fixed degree of parallelism for batch execution.
///
/// Workers are spawned scoped per batch call (std `thread::scope`), which
/// keeps the implementation safe and borrow-friendly; the per-batch spawn
/// cost (tens of microseconds) is negligible against the multi-thousand
/// query batches this pool is built for. Work distribution is dynamic:
/// the input range is cut into chunks and workers claim chunks from one
/// shared atomic cursor until none remain.
#[derive(Debug, Clone)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// A pool running `threads` workers; clamped to at least 1.
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// A pool sized to the machine (`std::thread::available_parallelism`),
    /// falling back to 1 when the hardware cannot be queried.
    pub fn with_default_parallelism() -> Self {
        Self::new(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }

    /// The configured number of workers.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// A reasonable chunk size for `len` items: enough chunks for stealing
    /// to balance skew (~4 per worker), but never so small that cursor
    /// traffic dominates.
    pub fn chunk_size_for(&self, len: usize) -> usize {
        len.div_ceil(self.threads * 4).max(8)
    }

    /// Run `worker` once per pool thread (worker 0 runs on the caller's
    /// thread). A panic in any worker propagates to the caller.
    fn scope_workers<F>(&self, workers: usize, worker: F)
    where
        F: Fn() + Sync,
    {
        if workers <= 1 {
            worker();
            return;
        }
        crate::chaos::scope(|s| {
            for _ in 1..workers {
                s.spawn(&worker);
            }
            worker();
        });
    }

    /// Parallel map over `0..len` in chunks: each chunk produces the
    /// results for its sub-range (one per index, in order), and the chunks
    /// are reassembled in input order — element `i` of the returned vector
    /// corresponds to index `i`, exactly as a sequential loop would
    /// produce.
    pub fn map_chunks<T, F>(&self, len: usize, chunk_size: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Range<usize>) -> Vec<T> + Sync,
    {
        let chunk_size = chunk_size.max(1);
        let n_chunks = len.div_ceil(chunk_size);
        if n_chunks == 0 {
            return Vec::new();
        }
        let workers = self.threads.min(n_chunks);
        if workers <= 1 {
            let mut out = Vec::with_capacity(len);
            for c in 0..n_chunks {
                let start = c * chunk_size;
                out.extend(f(start..(start + chunk_size).min(len)));
            }
            return out;
        }

        let cursor = AtomicUsize::new(0);
        let parts: Mutex<Vec<(usize, Vec<T>)>> = Mutex::new(Vec::with_capacity(n_chunks));
        self.scope_workers(workers, || {
            let mut local: Vec<(usize, Vec<T>)> = Vec::new();
            loop {
                // relaxed: the fetch_add itself hands out unique chunk
                // ids; no other memory is published through the cursor.
                let c = cursor.fetch_add(1, Ordering::Relaxed);
                if c >= n_chunks {
                    break;
                }
                let start = c * chunk_size;
                local.push((c, f(start..(start + chunk_size).min(len))));
            }
            parts.lock().extend(local);
        });

        let mut parts = parts.into_inner();
        parts.sort_unstable_by_key(|&(c, _)| c);
        let mut out = Vec::with_capacity(len);
        for (_, mut part) in parts {
            out.append(&mut part);
        }
        out
    }
}

impl Default for ThreadPool {
    /// Defaults to the machine's available parallelism.
    fn default() -> Self {
        Self::with_default_parallelism()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn map_preserves_input_order() {
        for threads in [1, 2, 4, 7] {
            let pool = ThreadPool::new(threads);
            for len in [0usize, 1, 5, 100, 1000] {
                let out = pool.map_chunks(len, 3, |r| r.map(|i| i * i).collect());
                let expected: Vec<usize> = (0..len).map(|i| i * i).collect();
                assert_eq!(out, expected, "threads {threads} len {len}");
            }
        }
    }

    #[test]
    fn chunk_size_larger_than_input_is_fine() {
        let pool = ThreadPool::new(4);
        let out = pool.map_chunks(5, 1000, |r| r.collect());
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn chunks_cover_every_index_exactly_once() {
        let pool = ThreadPool::new(4);
        let sum = AtomicU64::new(0);
        pool.map_chunks(1000, 7, |r| {
            sum.fetch_add(r.clone().map(|i| i as u64).sum(), Ordering::Relaxed);
            Vec::<()>::new()
        });
        assert_eq!(sum.load(Ordering::Relaxed), 999 * 1000 / 2);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(
            pool.map_chunks(3, 1, |r| r.collect::<Vec<_>>()),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn default_pool_matches_hardware() {
        assert!(ThreadPool::default().threads() >= 1);
    }

    #[test]
    fn chunk_sizing_bounds() {
        let pool = ThreadPool::new(4);
        assert!(pool.chunk_size_for(0) >= 1);
        assert_eq!(pool.chunk_size_for(10), 8); // floor applies
        assert_eq!(pool.chunk_size_for(4096), 256); // len / (threads * 4)
    }
}

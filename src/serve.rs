//! An async-style serving front-end with admission control, deadlines,
//! and multi-engine routing over a session's cached engines.
//!
//! The layers below this one make a single caller fast: batched queries
//! share PASS's tree traversal, parallel batches shard over a
//! [`ThreadPool`], and [`Session::handle`](crate::Session::handle)
//! clones of a cached engine let many threads query one immutable
//! synopsis. What they do *not* answer is what happens when more
//! requests arrive than the machine can execute — that is a serving-tier
//! problem, and [`Serve`] is the serving tier:
//!
//! * **Submission is decoupled from execution.**
//!   [`Serve::submit`]`(engine, queries, options)` enqueues the request
//!   on a bounded two-priority [`RequestQueue`] and immediately returns
//!   a [`Ticket`] the client polls or blocks on; a batch is a longer
//!   slice, priority and deadline are the [`SubmitOptions`], and
//!   [`submit_to`](Serve::submit_to)`(engine, query)` is the one-query,
//!   default-options shorthand. Dedicated worker threads drain the
//!   queue and execute against the session's shared cached engines.
//! * **One server can front many engines.**
//!   [`Session::serve_multi`](crate::Session::serve_multi) starts a
//!   server over a set of named engines sharing one queue and one
//!   worker pool. Every submission names its engine — exactly as
//!   [`Session::estimate`](crate::Session::estimate) does — and an
//!   unknown name is the only `Err` a submission returns; a
//!   single-engine server ([`Session::serve`](crate::Session::serve))
//!   is the one-name case of the same thing.
//! * **Admission control sheds load instead of queueing it forever.** A
//!   full queue resolves the ticket to [`ServeOutcome::Rejected`]
//!   without blocking the submitter; a request whose deadline passes
//!   while queued resolves to [`ServeOutcome::Expired`] **without
//!   executing**, so a backlogged server stops burning workers on
//!   answers nobody is waiting for.
//! * **Two priority classes, FIFO within each.**
//!   [`Priority::Interactive`] requests always pop before queued
//!   [`Priority::Bulk`] requests, so a latency-sensitive dashboard query
//!   overtakes a queued analytics sweep. Within a class requests pop in
//!   submission order; a deadline expires a request but never moves it.
//! * **Queued requests coalesce into batches.** A worker that pops one
//!   request greedily drains further queued requests of the same class
//!   **and the same engine** (up to 256 queries) and executes them as
//!   **one** `estimate_many` batch — under load, the engine's batched
//!   fast path (PASS reuses its MCF traversal scratch across the batch)
//!   kicks in automatically, so saturation *increases* per-query
//!   efficiency. A batch never mixes
//!   engines: the drain stops at the first request routed elsewhere,
//!   which also keeps the class in submission order. Identical queued
//!   requests each take a queue slot, yet a cached engine computes each
//!   distinct miss of a batch a single time and answers later repeats
//!   from its cache.
//! * **A group-by is one plain request.** Validate the
//!   [`GroupByQuery`](pass_common::GroupByQuery) against the engine's
//!   arity, submit its [`queries`](pass_common::GroupByQuery::queries)
//!   and read [`rows`](pass_common::GroupByQuery::rows) of the results:
//!   that is [`Session::group_by`](crate::Session::group_by) bit for
//!   bit, cached and coalesced like any other request.
//! * **Everything is observable.** [`Serve::stats`] reports
//!   accepted/rejected/expired/completed counts, the
//!   queue-depth high-water mark, p50/p99 submit-to-completion latency
//!   from a fixed-bucket [`LatencyHistogram`], and the per-engine rows
//!   ([`EngineServeStats`]) the totals are the sums of.
//!
//! Served answers are **bit-identical** to direct
//! [`Session`](crate::Session) calls: the
//! worker executes through the same cached, deterministic synopsis, and
//! `tests/serve_contract.rs` + `tests/route_contract.rs` pin this for
//! the whole `Engine::standard_suite`. The operator-facing guide to
//! every knob and failure mode is `docs/SERVING.md`.
//!
//! There is deliberately no async runtime here — the workspace builds
//! offline and dependency-free, so "async-style" means pollable tickets
//! over parked OS threads (the same idiom as the vendored stubs), not
//! tokio.
//!
//! ```
//! use pass::{EngineSpec, ServeConfig, Session, SubmitOptions};
//! use pass::common::{AggKind, Query};
//! use pass::table::datasets::uniform;
//!
//! let mut session = Session::new(uniform(10_000, 42));
//! session.add_engine("pass", &EngineSpec::pass()).unwrap();
//!
//! // Spin up the serving front-end over the "pass" engine.
//! let serve = session
//!     .serve("pass", ServeConfig::new().with_workers(2))
//!     .unwrap();
//!
//! // Submissions return immediately; tickets resolve when a worker
//! // executes the request.
//! let q = Query::interval(AggKind::Sum, 0.2, 0.7);
//! let ticket = serve.submit_to("pass", &q).unwrap();
//! let batch: Vec<Query> = (0..64)
//!     .map(|i| Query::interval(AggKind::Count, i as f64 / 80.0, 0.9))
//!     .collect();
//! let batch_ticket = serve
//!     .submit("pass", &batch, &SubmitOptions::bulk())
//!     .unwrap();
//!
//! // Served answers are bit-identical to direct session calls.
//! let result = &ticket.wait().results().unwrap()[0];
//! let direct = session.estimate("pass", &q).unwrap();
//! assert_eq!(result.as_ref().unwrap().value, direct.value);
//! assert_eq!(batch_ticket.wait().results().unwrap().len(), 64);
//!
//! let stats = serve.shutdown();
//! assert_eq!(stats.accepted, 2);
//! assert_eq!(stats.completed, 2);
//! assert_eq!(stats.rejected, 0);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pass_common::{
    CachedSynopsis, LatencyHistogram, PassError, Priority, PushError, Query, RequestQueue, Result,
    ServeOutcome, Synopsis, ThreadPool, Ticket, TicketSlot,
};

/// Configuration for a [`Serve`] front-end.
///
/// The defaults describe a reasonable single-machine server: one worker
/// per core and a queue deep enough to absorb bursts (1024 requests).
/// `docs/SERVING.md` walks every knob with its failure mode.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Dedicated serving worker threads (clamped to ≥ 1). Shared by all
    /// engines of a routed ([`Session::serve_multi`](crate::Session::serve_multi))
    /// server.
    pub workers: usize,
    /// Maximum queued requests before admission control rejects
    /// (clamped to ≥ 1).
    pub queue_depth: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: ThreadPool::with_default_parallelism().threads(),
            queue_depth: 1024,
        }
    }
}

impl ServeConfig {
    /// The default configuration (see the field docs).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the number of dedicated worker threads.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Set the admission-control queue bound.
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }
}

/// Per-request submission options: priority class and optional deadline.
///
/// ```
/// use pass::SubmitOptions;
/// use std::time::Duration;
///
/// let opts = SubmitOptions::bulk().with_deadline(Duration::from_millis(50));
/// ```
#[derive(Debug, Clone)]
pub struct SubmitOptions {
    /// Admission class; interactive requests overtake queued bulk ones.
    pub priority: Priority,
    /// How long the request may wait in the queue before it expires
    /// (measured from submission). `None` — and a deadline too long for
    /// the clock to represent (`Duration::MAX`) — means no deadline. A
    /// deadline never changes where the request sits in its class.
    pub deadline: Option<Duration>,
}

impl SubmitOptions {
    /// Interactive priority, no per-request deadline.
    pub fn interactive() -> Self {
        Self {
            priority: Priority::Interactive,
            deadline: None,
        }
    }

    /// Bulk priority, no per-request deadline.
    pub fn bulk() -> Self {
        Self {
            priority: Priority::Bulk,
            deadline: None,
        }
    }

    /// Expire the request if it is still queued `deadline` after
    /// submission.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

impl Default for SubmitOptions {
    /// Interactive, no deadline.
    fn default() -> Self {
        Self::interactive()
    }
}

/// One engine's slice of the serving counters in a routed server — see
/// [`ServeStats::per_engine`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineServeStats {
    /// The engine name this row describes.
    pub engine: String,
    /// Submissions routed here and executed to completion.
    pub completed: u64,
    /// Submissions routed here but refused because the queue was at
    /// capacity (the route is known before admission, so shed load is
    /// attributable to the engine whose traffic caused it).
    pub rejected: u64,
    /// Submissions routed here whose deadline passed while queued.
    pub expired: u64,
    /// Execution batches this engine ran.
    pub batches: u64,
}

/// A point-in-time snapshot of the serving front-end's counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests admitted to the queue.
    pub accepted: u64,
    /// Requests refused because the queue was at capacity.
    pub rejected: u64,
    /// Requests whose deadline passed while queued (never executed).
    pub expired: u64,
    /// Requests executed to completion.
    pub completed: u64,
    /// Execution batches run (completed requests per batch > 1 means
    /// coalescing engaged).
    pub batches: u64,
    /// Deepest the request queue ever got.
    pub queue_high_water: usize,
    /// The admission bound the high-water mark saturates at.
    pub queue_capacity: usize,
    /// Median submit-to-completion latency, microseconds (conservative
    /// fixed-bucket estimate; 0 until something completes).
    pub p50_latency_us: u64,
    /// 99th-percentile submit-to-completion latency, microseconds.
    pub p99_latency_us: u64,
    /// The same counters sliced per engine, in the order the engines
    /// were passed to [`Session::serve_multi`](crate::Session::serve_multi)
    /// (a single-engine server has exactly one row).
    pub per_engine: Vec<EngineServeStats>,
}

/// The submission waiting on a queued request: its ticket slot plus
/// the timing it was submitted with.
struct Waiter {
    slot: TicketSlot,
    submitted: Instant,
    deadline: Option<Instant>,
}

/// One queued unit of work: the engine route plus the batch to run
/// there.
struct Request {
    engine: usize,
    job: PlainJob,
}

/// One queued query batch — of one query or of many, the same shape —
/// held by value: the first query sits in the request itself, and
/// `rest` — the rest of a longer slice — is empty (and owns no heap
/// block) for the one-query request that is nearly all traffic.
/// Queueing such a request allocates nothing.
struct PlainJob {
    first: Query,
    rest: Vec<Query>,
    waiter: Waiter,
}

impl PlainJob {
    /// Queries the request contributes to a batch.
    fn len(&self) -> usize {
        1 + self.rest.len()
    }
}

/// Per-engine serving state: the route's name, the cached engine workers
/// execute through, and this engine's counters — the only copy of them;
/// the totals in [`ServeStats`] are their sums.
struct EngineState {
    name: String,
    engine: CachedSynopsis<Arc<dyn Synopsis>>,
    completed: AtomicU64,
    rejected: AtomicU64,
    expired: AtomicU64,
    batches: AtomicU64,
}

/// Count one event on a per-engine counter. `Release`, paired with the
/// `Acquire` loads in [`Serve::stats`]: a snapshot that counts a
/// completion or an expiry also sees everything that led to it —
/// above all the request's `accepted` increment, which the queue lock
/// orders before the worker's pop — so `completed + expired` never
/// exceeds the `accepted` the snapshot loads afterwards.
fn count(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Release);
}

/// Most queries one coalesced execution batch may hold: enough to engage
/// the engines' batched fast paths, few enough to bound how long the
/// batch's first request waits on its last. A single larger submission
/// still executes, as its own batch; the cap only bounds how much queued
/// work a worker glues on.
const COALESCE_MAX: usize = 256;

struct ServeShared {
    engines: Vec<EngineState>,
    queue: RequestQueue<Request>,
    /// The one global counter: acceptance is counted before the route's
    /// queue push, everything after it per engine.
    accepted: AtomicU64,
    /// Completion-order stamp handed to tickets (smaller = finished
    /// earlier).
    completion_seq: AtomicU64,
    latency: LatencyHistogram,
}

impl ServeShared {
    /// One worker's life: pop the next request — highest class, oldest
    /// within it (the queue itself parks the worker while paused — pause
    /// lives under the queue lock, so no request can slip past it),
    /// coalesce compatible queued requests into one batch, expire the
    /// stale, execute the rest, resolve every ticket.
    /// Exits when the queue is closed and drained.
    fn worker_loop(&self) {
        while let Some((first, class)) = self.queue.pop_blocking() {
            let engine = first.engine;
            let mut total = first.job.len();
            let mut requests = vec![first];
            // Greedy coalescing, atomically under one queue lock: glue
            // on queued requests of the same class AND the same engine
            // while they fit the batch budget. The queue refuses a bulk
            // drain while interactive work is queued, and the drain
            // stops at the first head routed to a different engine — a
            // batch never mixes engines, and refusing (rather than
            // skipping) the foreign head keeps the class in submission
            // order.
            if total < COALESCE_MAX {
                requests.extend(self.queue.drain_class_where(class, |r| {
                    let fits = r.engine == engine && total + r.job.len() <= COALESCE_MAX;
                    if fits {
                        total += r.job.len();
                    }
                    fits
                }));
            }
            self.execute(engine, requests);
        }
    }

    /// Run what one pop produced: expire what is stale, run the rest as
    /// one engine batch, and hand each request its results — **store
    /// all, then wake**: every outcome of the batch is in its ticket
    /// before the first parked client is woken, so that client finds the
    /// whole batch resolved instead of preempting this worker once per
    /// ticket. The bookkeeping is per batch too: one clock read when the
    /// answers exist, one reservation of the batch's completion stamps,
    /// one `completed` add.
    fn execute(&self, engine: usize, requests: Vec<Request>) {
        let state = &self.engines[engine];
        // Fail fast: a request whose deadline passed while queued costs
        // zero execution time, so it never holds up the live requests
        // behind it. One expiry instant per batch, read when the first
        // dated request asks for it: undated traffic does not read the
        // clock here.
        let mut now: Option<Instant> = None;
        // One flat engine batch: each request's queries are moved in
        // (sized for one query a request, which nearly all have), `live`
        // remembers how many it contributed and who waits on them.
        let mut queries: Vec<Query> = Vec::with_capacity(requests.len());
        let mut live: Vec<(usize, Waiter)> = Vec::with_capacity(requests.len());
        for Request { job, .. } in requests {
            if job
                .waiter
                .deadline
                .is_some_and(|d| d <= *now.get_or_insert_with(Instant::now))
            {
                count(&state.expired);
                job.waiter.slot.fulfill(ServeOutcome::Expired, None);
                continue;
            }
            live.push((job.len(), job.waiter));
            queries.push(job.first);
            queries.extend(job.rest);
        }
        if live.is_empty() {
            return;
        }
        let results = state.engine.estimate_many(&queries);
        let executed = Instant::now();
        count(&state.batches);
        debug_assert_eq!(results.len(), queries.len());
        let tickets = live.len() as u64;
        // relaxed: the stamps only need uniqueness + atomicity; clients
        // compare stamps they obtained through their own tickets, whose
        // mutex already orders the handoff.
        let stamps = self.completion_seq.fetch_add(tickets, Ordering::Relaxed)..;
        // The whole batch is counted before its first outcome is stored
        // (`Release`, as `count`): a client that has seen any answer of
        // this batch through its ticket's mutex also sees the add, so
        // `stats().completed` never trails the outcomes a client holds.
        state.completed.fetch_add(tickets, Ordering::Release);
        let mut results = results.into_iter();
        // The tickets that had a parked waiter when their outcome was
        // stored. Dropping a handle wakes its ticket, so this holds them
        // past the last store — and an unwind in between still wakes
        // every sleeper whose answer is already in place.
        let mut wakes = Vec::new();
        for ((len, waiter), seq) in live.into_iter().zip(stamps) {
            let answers = results.by_ref().take(len).collect();
            let waited = executed.saturating_duration_since(waiter.submitted);
            self.latency
                .record(waited.as_micros().min(u64::MAX as u128) as u64);
            wakes.extend(waiter.slot.store(ServeOutcome::Done(answers), Some(seq)));
        }
        drop(wakes);
    }
}

/// The serving front-end: a bounded request queue, admission control,
/// deadline expiry, and a fixed set of workers executing
/// against one or more of a session's cached engines.
///
/// Create one with [`Session::serve`](crate::Session::serve) (one
/// engine) or [`Session::serve_multi`](crate::Session::serve_multi)
/// (several). Submissions never
/// block; execution happens on the server's workers; results come back
/// through [`Ticket`]s. Dropping the server closes the queue, drains
/// every accepted request, and joins the workers — no accepted ticket is
/// left unresolved.
///
/// See the [serve module docs](crate::serve) for the full request
/// lifecycle and `docs/SERVING.md` for the operator's guide.
pub struct Serve {
    shared: Arc<ServeShared>,
    workers: Vec<JoinHandle<()>>,
}

impl Serve {
    /// Start a serving front-end over `routes` — (name, cached engine)
    /// pairs that share one queue and one worker pool and are routed to
    /// by name (workers spawn immediately). Errors on an empty route set or
    /// a duplicated engine name (routing by name would be ambiguous).
    pub(crate) fn new(
        routes: Vec<(String, CachedSynopsis<Arc<dyn Synopsis>>)>,
        config: ServeConfig,
    ) -> Result<Self> {
        if routes.is_empty() {
            return Err(PassError::InvalidParameter(
                "engines",
                "a server needs at least one engine".into(),
            ));
        }
        for (i, (name, _)) in routes.iter().enumerate() {
            if routes[..i].iter().any(|(earlier, _)| earlier == name) {
                return Err(PassError::InvalidParameter(
                    "engines",
                    format!("duplicate engine name `{name}`"),
                ));
            }
        }
        let shared = Arc::new(ServeShared {
            engines: routes
                .into_iter()
                .map(|(name, engine)| EngineState {
                    name,
                    engine,
                    completed: AtomicU64::new(0),
                    rejected: AtomicU64::new(0),
                    expired: AtomicU64::new(0),
                    batches: AtomicU64::new(0),
                })
                .collect(),
            queue: RequestQueue::new(config.queue_depth),
            accepted: AtomicU64::new(0),
            completion_seq: AtomicU64::new(0),
            latency: LatencyHistogram::new(),
        });
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || shared.worker_loop())
            })
            .collect();
        Ok(Serve { shared, workers })
    }

    /// Every engine this server routes to, in construction order.
    pub fn engines(&self) -> Vec<&str> {
        self.shared
            .engines
            .iter()
            .map(|e| e.name.as_str())
            .collect()
    }

    fn engine_index(&self, engine: &str) -> Result<usize> {
        self.shared
            .engines
            .iter()
            .position(|e| e.name == engine)
            .ok_or_else(|| {
                PassError::InvalidParameter("engine", format!("no served engine named `{engine}`"))
            })
    }

    /// Submit `queries` to `engine` as **one request**: admitted,
    /// queued, expired and resolved as a unit, its ticket yielding
    /// one result per query in order. Never blocks: the ticket resolves
    /// to [`ServeOutcome::Rejected`] immediately when the queue is at
    /// capacity (that is the backpressure signal) and to
    /// [`ServeOutcome::Cancelled`] when the server is shutting down; an
    /// empty slice resolves to an empty `Done` without queueing. The
    /// only `Err` is an engine name this server does not front (routes
    /// are fixed at construction) — it is raised before admission, so
    /// it takes no queue slot and moves no counter.
    ///
    /// # Examples
    ///
    /// ```
    /// use pass::{EngineSpec, ServeConfig, Session, SubmitOptions};
    /// use pass::common::{AggKind, Query};
    /// use pass::table::datasets::uniform;
    /// use std::time::Duration;
    ///
    /// let mut session = Session::new(uniform(2_000, 3));
    /// session.add_engine("pass", &EngineSpec::pass()).unwrap();
    /// let serve = session.serve("pass", ServeConfig::new()).unwrap();
    ///
    /// // Bulk priority (yields to interactive traffic) with a deadline:
    /// // expired unexecuted if still queued after 10 s.
    /// let batch: Vec<Query> = (0..8)
    ///     .map(|i| Query::interval(AggKind::Sum, i as f64 / 10.0, 0.95))
    ///     .collect();
    /// let opts = SubmitOptions::bulk().with_deadline(Duration::from_secs(10));
    /// let results = serve.submit("pass", &batch, &opts).unwrap().wait().results().unwrap();
    /// assert_eq!(results.len(), 8); // one result per query, in order
    /// ```
    pub fn submit(
        &self,
        engine: &str,
        queries: &[Query],
        options: &SubmitOptions,
    ) -> Result<Ticket> {
        let engine = self.engine_index(engine)?;
        let Some((first, rest)) = queries.split_first() else {
            return Ok(Ticket::resolved(ServeOutcome::Done(Vec::new())));
        };
        let (ticket, slot) = Ticket::pending();
        let submitted = Instant::now();
        let request = Request {
            engine,
            job: PlainJob {
                first: first.clone(),
                rest: rest.to_vec(),
                waiter: Waiter {
                    slot,
                    submitted,
                    deadline: options.deadline.and_then(|d| submitted.checked_add(d)),
                },
            },
        };
        // Count acceptance *before* the push: the instant the request is
        // in the queue a worker may pop, execute, and count it
        // completed, and a mid-run stats() observer must never see
        // completed > accepted. Failed pushes undo the claim.
        // relaxed: the queue lock the push releases and the worker's pop
        // acquires orders this increment before that worker's `Release`
        // count of the request's outcome, which is what `stats()`
        // synchronizes with (see `count`).
        self.shared.accepted.fetch_add(1, Ordering::Relaxed);
        if let Err((why, request)) = self.shared.queue.try_push(request, options.priority) {
            // relaxed: undoes this thread's own claim above; no worker
            // ever saw the request.
            self.shared.accepted.fetch_sub(1, Ordering::Relaxed);
            // A refused request resolves its ticket here: `Rejected` at
            // capacity; on a closed queue, dropping it cancels it.
            if why == PushError::Full {
                count(&self.shared.engines[engine].rejected);
                request
                    .job
                    .waiter
                    .slot
                    .fulfill(ServeOutcome::Rejected, None);
            }
        }
        Ok(ticket)
    }

    /// Submit one query to `engine` with the default options
    /// (interactive, no per-request deadline) — the shorthand for
    /// [`submit`](Serve::submit) with a one-query slice.
    ///
    /// # Examples
    ///
    /// ```
    /// use pass::{EngineSpec, ServeConfig, Session};
    /// use pass::common::{AggKind, Query};
    /// use pass::table::datasets::uniform;
    ///
    /// let mut session = Session::new(uniform(2_000, 4));
    /// session.add_engine("pass", &EngineSpec::pass()).unwrap();
    /// session.add_engine("us", &EngineSpec::uniform(200)).unwrap();
    /// let serve = session.serve_multi(&["pass", "us"], ServeConfig::new()).unwrap();
    ///
    /// let q = Query::interval(AggKind::Count, 0.0, 1.0);
    /// let routed = serve.submit_to("us", &q).unwrap();
    /// assert!(routed.wait().is_done());
    /// assert!(serve.submit_to("nope", &q).is_err());
    /// ```
    pub fn submit_to(&self, engine: &str, query: &Query) -> Result<Ticket> {
        self.submit(
            engine,
            std::slice::from_ref(query),
            &SubmitOptions::default(),
        )
    }

    /// Park the workers after their in-flight batches finish; queued and
    /// newly submitted requests wait (admission control still applies).
    /// The pause flag lives under the queue's own lock, so even a worker
    /// already parked inside a pop cannot slip a request past a pause:
    /// called before the first submit, it starts the server paused, which
    /// is how staged startups and tests fill the queue deterministically.
    pub fn pause(&self) {
        self.shared.queue.set_paused(true);
    }

    /// Release paused workers.
    pub fn resume(&self) {
        self.shared.queue.set_paused(false);
    }

    /// Requests currently waiting in the queue.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.len()
    }

    /// A snapshot of the serving counters, queue high-water mark,
    /// latency percentiles, and the per-engine rows. The totals are the
    /// sums of the rows, and `completed + expired <= accepted` holds in
    /// every snapshot, mid-run included.
    pub fn stats(&self) -> ServeStats {
        // Load order is the invariant (see `count`): every per-engine
        // counter first, `accepted` last — a request accepted in between
        // only raises `accepted`.
        let per_engine: Vec<EngineServeStats> = self
            .shared
            .engines
            .iter()
            .map(|e| EngineServeStats {
                engine: e.name.clone(),
                completed: e.completed.load(Ordering::Acquire),
                rejected: e.rejected.load(Ordering::Acquire),
                expired: e.expired.load(Ordering::Acquire),
                batches: e.batches.load(Ordering::Acquire),
            })
            .collect();
        let total = |field: fn(&EngineServeStats) -> u64| per_engine.iter().map(field).sum();
        ServeStats {
            // relaxed: the `Acquire` loads above already order every
            // counted outcome's acceptance before this load.
            accepted: self.shared.accepted.load(Ordering::Relaxed),
            rejected: total(|e| e.rejected),
            expired: total(|e| e.expired),
            completed: total(|e| e.completed),
            batches: total(|e| e.batches),
            queue_high_water: self.shared.queue.high_water(),
            queue_capacity: self.shared.queue.capacity(),
            p50_latency_us: self.shared.latency.p50(),
            p99_latency_us: self.shared.latency.p99(),
            per_engine,
        }
    }

    /// Stop accepting, drain every queued request (deadlines still
    /// apply: stale requests expire rather than execute), join the
    /// workers, and return the final stats. Dropping the server does
    /// the same minus the stats.
    pub fn shutdown(mut self) -> ServeStats {
        self.shutdown_inner();
        self.stats()
    }

    fn shutdown_inner(&mut self) {
        // Closing wakes paused workers too: a closed queue drains
        // regardless of the pause flag.
        self.shared.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

impl std::fmt::Debug for Serve {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Serve")
            .field("engines", &self.engines())
            .field("workers", &self.workers.len())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use pass_common::{AggKind, EngineSpec};
    use pass_table::datasets::uniform;

    fn served_session() -> Session {
        let mut s = Session::new(uniform(5_000, 77));
        s.add_engine("pass", &EngineSpec::pass()).unwrap();
        s
    }

    fn q(lo: f64, hi: f64) -> Query {
        Query::interval(AggKind::Sum, lo, hi)
    }

    #[test]
    fn single_and_batch_submissions_resolve_with_engine_answers() {
        let session = served_session();
        let serve = session
            .serve("pass", ServeConfig::new().with_workers(2))
            .unwrap();
        assert_eq!(serve.engines(), vec!["pass"]);
        let single = serve.submit_to("pass", &q(0.1, 0.9)).unwrap();
        let batch: Vec<Query> = (0..8).map(|i| q(i as f64 / 10.0, 0.95)).collect();
        let options = SubmitOptions::default();
        let many = serve.submit("pass", &batch, &options).unwrap();
        let got = single.wait().results().unwrap();
        assert_eq!(
            got[0].as_ref().unwrap().value,
            session.estimate("pass", &q(0.1, 0.9)).unwrap().value
        );
        let got = many.wait().results().unwrap();
        assert_eq!(got.len(), 8);
        for (query, result) in batch.iter().zip(&got) {
            assert_eq!(
                result.as_ref().unwrap().value,
                session.estimate("pass", query).unwrap().value
            );
        }
        let stats = serve.shutdown();
        assert_eq!(stats.accepted, 2);
        assert_eq!(stats.completed, 2);
        assert_eq!((stats.rejected, stats.expired), (0, 0));
        assert!(stats.batches >= 1);
        assert!(stats.p50_latency_us <= stats.p99_latency_us);
        // The single-engine per-engine breakdown is one row matching the
        // global counters.
        assert_eq!(stats.per_engine.len(), 1);
        assert_eq!(stats.per_engine[0].engine, "pass");
        assert_eq!(stats.per_engine[0].completed, stats.completed);
        assert_eq!(stats.per_engine[0].batches, stats.batches);
    }

    #[test]
    fn empty_batch_resolves_immediately() {
        let session = served_session();
        let serve = session.serve("pass", ServeConfig::new()).unwrap();
        let options = SubmitOptions::default();
        let ticket = serve.submit("pass", &[], &options).unwrap();
        assert_eq!(ticket.wait(), ServeOutcome::Done(Vec::new()));
        assert_eq!(serve.stats().accepted, 0);
    }

    #[test]
    fn queue_full_rejects_without_blocking() {
        let session = served_session();
        let serve = session
            .serve(
                "pass",
                ServeConfig::new().with_workers(1).with_queue_depth(2),
            )
            .unwrap();
        serve.pause();
        let accepted: Vec<Ticket> = (0..2)
            .map(|_| serve.submit_to("pass", &q(0.0, 0.5)).unwrap())
            .collect();
        let rejected = serve.submit_to("pass", &q(0.0, 0.6)).unwrap();
        assert_eq!(rejected.poll(), Some(ServeOutcome::Rejected));
        assert_eq!(rejected.completion_index(), None);
        let stats = serve.stats();
        assert_eq!((stats.accepted, stats.rejected), (2, 1));
        assert_eq!(stats.queue_high_water, 2);
        serve.resume();
        for t in accepted {
            assert!(t.wait().is_done());
        }
    }

    #[test]
    fn shutdown_drains_accepted_requests() {
        let session = served_session();
        let serve = session
            .serve("pass", ServeConfig::new().with_workers(1))
            .unwrap();
        serve.pause();
        let tickets: Vec<Ticket> = (0..5)
            .map(|i| {
                serve
                    .submit_to("pass", &q(0.0, 0.5 + i as f64 / 100.0))
                    .unwrap()
            })
            .collect();
        // Shutdown resumes, drains, joins: every accepted ticket resolves.
        let stats = serve.shutdown();
        for t in tickets {
            assert!(t.wait().is_done());
        }
        assert_eq!(stats.completed, 5);
    }

    #[test]
    fn submissions_after_shutdown_are_cancelled() {
        let session = served_session();
        let serve = session.serve("pass", ServeConfig::new()).unwrap();
        // Close the queue out from under the facade, then submit.
        serve.shared.queue.close();
        let ticket = serve.submit_to("pass", &q(0.0, 0.5)).unwrap();
        assert_eq!(ticket.wait(), ServeOutcome::Cancelled);
    }

    #[test]
    fn a_deadline_past_the_clock_range_counts_as_none() {
        use pass_common::GroupByQuery;
        let session = served_session();
        let serve = session
            .serve("pass", ServeConfig::new().with_workers(1))
            .unwrap();
        let forever = SubmitOptions::bulk().with_deadline(Duration::MAX);
        let plain = serve.submit("pass", &[q(0.1, 0.9)], &forever).unwrap();
        let gq = GroupByQuery::over(AggKind::Sum, 0, &[0.25, 0.5], 1);
        let group_by = serve.submit("pass", &gq.queries().unwrap(), &forever);
        assert!(plain.wait().is_done());
        let rows = gq.rows(group_by.unwrap().wait().results().unwrap());
        assert_eq!(rows, session.group_by("pass", &gq).unwrap());
        let stats = serve.shutdown();
        assert_eq!((stats.completed, stats.expired), (2, 0));
    }

    #[test]
    fn coalescing_executes_queued_requests_in_fewer_batches() {
        let session = served_session();
        let serve = session
            .serve("pass", ServeConfig::new().with_workers(1))
            .unwrap();
        serve.pause();
        let tickets: Vec<Ticket> = (0..16)
            .map(|i| serve.submit_to("pass", &q(i as f64 / 20.0, 0.9)).unwrap())
            .collect();
        serve.resume();
        for (i, t) in tickets.iter().enumerate() {
            let got = t.wait().results().unwrap();
            assert_eq!(
                got[0].as_ref().unwrap().value,
                session
                    .estimate("pass", &q(i as f64 / 20.0, 0.9))
                    .unwrap()
                    .value,
                "request {i}"
            );
        }
        let stats = serve.shutdown();
        assert_eq!(stats.completed, 16);
        assert!(
            stats.batches < 16,
            "16 queued requests ran in {} batches — coalescing never engaged",
            stats.batches
        );
    }

    #[test]
    fn a_backlog_past_the_coalescing_cap_runs_in_capped_batches() {
        let session = served_session();
        let serve = session
            .serve("pass", ServeConfig::new().with_workers(1))
            .unwrap();
        serve.pause();
        let queries: Vec<Query> = (0..=2 * COALESCE_MAX)
            .map(|i| q(i as f64 / 1_000.0, 0.95))
            .collect();
        let tickets: Vec<Ticket> = queries
            .iter()
            .map(|query| serve.submit_to("pass", query).unwrap())
            .collect();
        serve.resume();
        for (query, ticket) in queries.iter().zip(&tickets) {
            let got = ticket.wait().results().unwrap();
            assert_eq!(
                got[0].as_ref().unwrap().value,
                session.estimate("pass", query).unwrap().value,
                "{query:?}"
            );
        }
        let stats = serve.shutdown();
        assert_eq!(stats.completed, queries.len() as u64);
        // One worker over the whole backlog: two capped batches, then
        // the one request left over.
        assert_eq!(stats.batches, 3, "the cap did not split the backlog");
    }

    #[test]
    fn pausing_a_running_server_parks_workers_already_waiting_in_the_pop() {
        // Regression: pause() must hold back requests submitted *after*
        // the pause even when a worker is already parked inside the
        // queue's blocking pop (the flag lives under the queue lock).
        let session = served_session();
        let serve = session
            .serve("pass", ServeConfig::new().with_workers(2))
            .unwrap();
        // Let the workers reach pop_blocking on the empty queue.
        assert!(serve
            .submit_to("pass", &q(0.0, 0.5))
            .unwrap()
            .wait()
            .is_done());
        serve.pause();
        let parked = serve.submit_to("pass", &q(0.1, 0.6)).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(parked.poll(), None, "executed while paused");
        assert_eq!(serve.queue_depth(), 1);
        serve.resume();
        assert!(parked.wait().is_done());
    }

    #[test]
    fn oversized_single_submission_still_executes() {
        let session = served_session();
        let serve = session
            .serve("pass", ServeConfig::new().with_workers(1))
            .unwrap();
        let big: Vec<Query> = (0..COALESCE_MAX + 64)
            .map(|i| q(i as f64 / 400.0, 0.9))
            .collect();
        let options = SubmitOptions::default();
        let ticket = serve.submit("pass", &big, &options).unwrap();
        assert_eq!(ticket.wait().results().unwrap().len(), big.len());
    }

    #[test]
    fn routing_to_an_unknown_engine_is_an_error_not_a_ticket() {
        let session = served_session();
        let serve = session.serve("pass", ServeConfig::new()).unwrap();
        assert!(serve.submit_to("nope", &q(0.0, 0.5)).is_err());
        assert!(serve
            .submit("nope", &[q(0.0, 0.5)], &SubmitOptions::bulk())
            .is_err());
        // Nothing was admitted or shed — routing errors happen before
        // admission control.
        let stats = serve.stats();
        assert_eq!((stats.accepted, stats.rejected), (0, 0));
    }

    #[test]
    fn empty_engine_set_and_duplicate_names_are_rejected() {
        let session = served_session();
        assert!(Serve::new(vec![], ServeConfig::new()).is_err());
        let h = session.handle("pass").unwrap();
        let routes = vec![("pass".to_string(), h.clone()), ("pass".to_string(), h)];
        assert!(Serve::new(routes, ServeConfig::new()).is_err());
    }
}

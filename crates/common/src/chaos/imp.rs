//! The model-checking implementation behind the `chaos` feature: shim
//! types that route scheduling decisions through a cooperative
//! depth-first scheduler when a model is active, and behave like the
//! normal-build shims when one is not.

use std::cell::RefCell;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64 as StdAtomicU64, AtomicUsize as StdAtomicUsize, Ordering as O};
use std::sync::{
    Arc, Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard, Once, PoisonError,
};
use std::time::Duration;

// ---------------------------------------------------------------------------
// Thread-local model context
// ---------------------------------------------------------------------------

/// Which model (if any) the current thread is executing under, and the
/// thread's id within it. Set by the per-thread wrappers that
/// [`Chaos::check`] and the shim spawn paths install.
#[derive(Clone)]
struct Ctx {
    model: Arc<Model>,
    tid: usize,
}

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

fn ctx() -> Option<Ctx> {
    CTX.with(|c| c.borrow().clone())
}

fn set_ctx(model: Arc<Model>, tid: usize) {
    CTX.with(|c| *c.borrow_mut() = Some(Ctx { model, tid }));
}

fn clear_ctx() {
    CTX.with(|c| *c.borrow_mut() = None);
}

/// Zero-sized panic payload used to unwind every model thread when a
/// schedule aborts (failure found, or replay mismatch). The installed
/// panic hook suppresses its default "thread panicked" output.
struct ChaosAbort;

/// Silence `ChaosAbort` teardown panics; anything else goes to the
/// previously installed hook (so real assertion failures still print).
fn install_abort_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<ChaosAbort>().is_none() {
                prev(info);
            }
        }));
    });
}

fn payload_msg(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

// ---------------------------------------------------------------------------
// Scheduler state
// ---------------------------------------------------------------------------

/// Why a model thread cannot currently run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Block {
    /// Waiting to acquire the model mutex with this id.
    Lock(usize),
    /// Parked in a condvar wait: which condvar, which mutex to
    /// reacquire on wakeup, and whether the wait may time out.
    Cv { cv: usize, lock: usize, timed: bool },
    /// Waiting for the thread with this id to finish.
    Join(usize),
}

#[derive(Debug)]
struct ThreadRec {
    finished: bool,
    block: Option<Block>,
    /// Set when a timed condvar wait was resolved *as a timeout* (the
    /// scheduler's deadlock-resolution step), so the waking `wait_timeout`
    /// reports `timed_out() == true`.
    woke_by_timeout: bool,
}

/// One recorded scheduling decision: which of `options` equally legal
/// continuations ran. Only genuine branch points (`options > 1`) are
/// recorded; the dot-joined `chosen` values are the schedule's seed.
#[derive(Debug, Clone, Copy)]
struct ChoicePoint {
    chosen: usize,
    options: usize,
}

struct SchedState {
    threads: Vec<ThreadRec>,
    lock_owner: Vec<Option<usize>>,
    cv_count: usize,
    /// The thread currently allowed to run (`usize::MAX` once all have
    /// finished).
    running: usize,
    /// Registered minus finished threads.
    live: usize,
    /// Forced choices for this schedule (DFS continuation or seed replay).
    prefix: Vec<usize>,
    cursor: usize,
    trace: Vec<ChoicePoint>,
    steps: usize,
    preemptions: usize,
    failure: Option<String>,
    aborting: bool,
}

impl fmt::Debug for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Model")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

struct Model {
    name: String,
    state: StdMutex<SchedState>,
    cv: StdCondvar,
    /// Distinguishes this schedule's object registrations from stale
    /// ones left by earlier schedules (objects may outlive a schedule).
    run_token: u64,
    max_steps: usize,
    preemption_bound: Option<usize>,
}

fn seed_string(trace: &[ChoicePoint]) -> String {
    if trace.is_empty() {
        "-".to_string()
    } else {
        trace
            .iter()
            .map(|c| c.chosen.to_string())
            .collect::<Vec<_>>()
            .join(".")
    }
}

fn parse_seed(seed: &str) -> Vec<usize> {
    let seed = seed.trim();
    if seed.is_empty() || seed == "-" {
        return Vec::new();
    }
    seed.split('.')
        .map(|part| {
            part.parse::<usize>().unwrap_or_else(|_| {
                panic!("PASS_CHAOS_SEED: `{part}` in `{seed}` is not a choice index")
            })
        })
        .collect()
}

/// The DFS odometer: the forced-choice prefix for the next unexplored
/// schedule, or `None` when `trace` was the last one.
fn next_prefix(trace: &[ChoicePoint]) -> Option<Vec<usize>> {
    for i in (0..trace.len()).rev() {
        if trace[i].chosen + 1 < trace[i].options {
            let mut prefix: Vec<usize> = trace[..i].iter().map(|c| c.chosen).collect();
            prefix.push(trace[i].chosen + 1);
            return Some(prefix);
        }
    }
    None
}

impl Model {
    fn lock_state(&self) -> StdMutexGuard<'_, SchedState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Record a failure (first one wins) and begin tearing the schedule
    /// down: every thread unwinds via [`ChaosAbort`] at its next
    /// scheduler interaction.
    fn fail(&self, st: &mut SchedState, kind: &str, detail: &str) {
        if st.failure.is_none() {
            let seed = seed_string(&st.trace);
            st.failure = Some(format!(
                "chaos[{name}] {kind}: {detail}\n  \
                 schedule seed: {seed}\n  \
                 replay just this interleaving with:\n    \
                 PASS_CHAOS_SEED='{seed}' cargo test -p pass-common --features chaos {name}\n  \
                 (filter to the one failing test; the seed pins every scheduling choice.\n   \
                 See docs/CONCURRENCY.md for how to read a seed.)",
                name = self.name,
            ));
        }
        st.aborting = true;
    }

    /// Resolve one scheduling decision among `options` equally legal
    /// continuations: forced by the prefix during replay/DFS descent,
    /// defaulting to the first option past it.
    fn choose(&self, st: &mut SchedState, options: usize) -> usize {
        if options <= 1 {
            return 0;
        }
        let chosen = if st.cursor < st.prefix.len() {
            let c = st.prefix[st.cursor];
            st.cursor += 1;
            if c >= options {
                self.fail(
                    st,
                    "stale seed",
                    &format!(
                        "replay choice #{} wants option {c} but only {options} exist — \
                         the code under test changed since the seed was recorded",
                        st.cursor - 1
                    ),
                );
                0
            } else {
                c
            }
        } else {
            0
        };
        st.trace.push(ChoicePoint { chosen, options });
        chosen
    }

    /// Release the model-side lock `lid`: waiters become runnable (they
    /// race to reacquire at their next turn, which is where contention
    /// interleavings come from).
    fn release_locked(st: &mut SchedState, lid: usize) {
        st.lock_owner[lid] = None;
        for t in st.threads.iter_mut() {
            if t.block == Some(Block::Lock(lid)) {
                t.block = None;
            }
        }
    }

    /// Pick the next thread to run. Called at every yield point with
    /// `me` = the thread that held the turn (it may have just blocked
    /// or finished). Also resolves timed waits and detects deadlock.
    fn reschedule(&self, st: &mut SchedState, me: usize) {
        st.steps += 1;
        if st.steps > self.max_steps && !st.aborting {
            self.fail(
                st,
                "step budget exceeded",
                &format!(
                    "{} scheduling steps without quiescing — livelock, or raise \
                     Chaos::steps for a genuinely longer test",
                    self.max_steps
                ),
            );
        }
        if st.aborting {
            self.cv.notify_all();
            return;
        }
        loop {
            let runnable: Vec<usize> = (0..st.threads.len())
                .filter(|&t| !st.threads[t].finished && st.threads[t].block.is_none())
                .collect();
            if !runnable.is_empty() {
                let me_runnable = runnable.contains(&me);
                let capped = me_runnable
                    && self
                        .preemption_bound
                        .is_some_and(|bound| st.preemptions >= bound);
                let chosen = if capped {
                    me
                } else {
                    runnable[self.choose(st, runnable.len())]
                };
                if me_runnable && chosen != me {
                    st.preemptions += 1;
                }
                st.running = chosen;
                self.cv.notify_all();
                return;
            }
            // Nobody is runnable. Timed condvar waits may fire now —
            // in the model, a timeout is observable exactly when no
            // un-timed progress is possible (firing it earlier would
            // only replay interleavings already covered by notify
            // orderings).
            let timed: Vec<usize> = (0..st.threads.len())
                .filter(|&t| matches!(st.threads[t].block, Some(Block::Cv { timed: true, .. })))
                .collect();
            if !timed.is_empty() {
                let t = timed[self.choose(st, timed.len())];
                if st.aborting {
                    self.cv.notify_all();
                    return;
                }
                let lid = match st.threads[t].block {
                    Some(Block::Cv { lock, .. }) => lock,
                    // The filter above guarantees a timed Cv block.
                    _ => 0,
                };
                st.threads[t].woke_by_timeout = true;
                st.threads[t].block = if st.lock_owner[lid].is_some() {
                    Some(Block::Lock(lid))
                } else {
                    None
                };
                continue;
            }
            if st.live == 0 {
                st.running = usize::MAX;
                self.cv.notify_all();
                return;
            }
            let stuck: Vec<String> = (0..st.threads.len())
                .filter(|&t| !st.threads[t].finished)
                .map(|t| match st.threads[t].block {
                    Some(Block::Lock(l)) => format!("thread {t} blocked on mutex #{l}"),
                    Some(Block::Cv { cv, .. }) => {
                        format!("thread {t} parked in condvar #{cv} with no wakeup coming")
                    }
                    Some(Block::Join(j)) => format!("thread {t} joining thread {j}"),
                    None => format!("thread {t} runnable (?)"),
                })
                .collect();
            self.fail(
                st,
                "deadlock",
                &format!(
                    "every live thread is blocked — a lost wakeup or lock cycle: {}",
                    stuck.join("; ")
                ),
            );
            self.cv.notify_all();
            return;
        }
    }

    /// Park until it is `me`'s turn (or unwind if the schedule aborts).
    fn wait_my_turn<'a>(
        &'a self,
        mut st: StdMutexGuard<'a, SchedState>,
        me: usize,
    ) -> StdMutexGuard<'a, SchedState> {
        loop {
            if st.aborting {
                drop(st);
                std::panic::panic_any(ChaosAbort);
            }
            if st.running == me && st.threads[me].block.is_none() {
                return st;
            }
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// A plain yield point: let the scheduler hand the turn to any
    /// runnable thread (including `me`) before the caller's next shared
    /// access.
    fn yield_point(&self, me: usize) {
        let mut st = self.lock_state();
        self.reschedule(&mut st, me);
        let _st = self.wait_my_turn(st, me);
    }

    fn alloc_lock(&self) -> usize {
        let mut st = self.lock_state();
        st.lock_owner.push(None);
        st.lock_owner.len() - 1
    }

    fn alloc_cv(&self) -> usize {
        let mut st = self.lock_state();
        st.cv_count += 1;
        st.cv_count - 1
    }

    /// Acquire model lock `lid`: a yield point, then block while held.
    fn lock_acquire(&self, me: usize, lid: usize) {
        let mut st = self.lock_state();
        self.reschedule(&mut st, me);
        st = self.wait_my_turn(st, me);
        loop {
            if st.lock_owner[lid].is_none() {
                st.lock_owner[lid] = Some(me);
                return;
            }
            st.threads[me].block = Some(Block::Lock(lid));
            self.reschedule(&mut st, me);
            st = self.wait_my_turn(st, me);
        }
    }

    fn lock_release(&self, lid: usize) {
        let mut st = self.lock_state();
        Self::release_locked(&mut st, lid);
        // Not a yield point: the releasing thread keeps the turn, and
        // every woken waiter re-enters through its own acquire yield —
        // all distinct interleavings still get explored there, with a
        // visibly smaller schedule space.
    }

    /// Atomically release `lid` and park on condvar `cvid`; on wakeup
    /// (notify or, for `timed` waits, scheduler-resolved timeout)
    /// reacquire `lid`. Returns whether the wakeup was a timeout.
    fn cv_wait(&self, me: usize, cvid: usize, lid: usize, timed: bool) -> bool {
        let mut st = self.lock_state();
        Self::release_locked(&mut st, lid);
        st.threads[me].block = Some(Block::Cv {
            cv: cvid,
            lock: lid,
            timed,
        });
        st.threads[me].woke_by_timeout = false;
        self.reschedule(&mut st, me);
        st = self.wait_my_turn(st, me);
        let timed_out = st.threads[me].woke_by_timeout;
        loop {
            if st.lock_owner[lid].is_none() {
                st.lock_owner[lid] = Some(me);
                drop(st);
                return timed_out;
            }
            st.threads[me].block = Some(Block::Lock(lid));
            self.reschedule(&mut st, me);
            st = self.wait_my_turn(st, me);
        }
    }

    /// Wake one (scheduler's choice — that nondeterminism is a recorded
    /// branch point) or all waiters of condvar `cvid`. The notify entry
    /// is itself a yield point, so notify-vs-wait orderings are explored.
    fn cv_notify(&self, me: usize, cvid: usize, all: bool) {
        self.yield_point(me);
        let mut st = self.lock_state();
        let waiters: Vec<usize> = (0..st.threads.len())
            .filter(|&t| matches!(st.threads[t].block, Some(Block::Cv { cv, .. }) if cv == cvid))
            .collect();
        if waiters.is_empty() {
            return;
        }
        if all {
            for &t in &waiters {
                st.threads[t].block = None;
            }
        } else {
            let t = waiters[self.choose(&mut st, waiters.len())];
            if st.aborting {
                drop(st);
                std::panic::panic_any(ChaosAbort);
            }
            st.threads[t].block = None;
        }
    }

    fn register_thread(&self) -> usize {
        let mut st = self.lock_state();
        st.threads.push(ThreadRec {
            finished: false,
            block: None,
            woke_by_timeout: false,
        });
        st.live += 1;
        st.threads.len() - 1
    }

    /// First action of every model thread: park until scheduled.
    fn thread_start(&self, me: usize) {
        let st = self.lock_state();
        let _st = self.wait_my_turn(st, me);
    }

    /// Last action of every model thread: mark finished, release
    /// joiners, hand the turn onward (or wake the supervisor).
    fn thread_finish(&self, me: usize) {
        let mut st = self.lock_state();
        st.threads[me].finished = true;
        st.live = st.live.saturating_sub(1);
        for t in st.threads.iter_mut() {
            if t.block == Some(Block::Join(me)) {
                t.block = None;
            }
        }
        if st.live == 0 || st.aborting {
            st.running = usize::MAX;
            self.cv.notify_all();
            return;
        }
        self.reschedule(&mut st, me);
    }

    /// Block until `target` finishes (a scheduling point).
    fn join_wait(&self, me: usize, target: usize) {
        let mut st = self.lock_state();
        if !st.threads[target].finished {
            st.threads[me].block = Some(Block::Join(target));
            self.reschedule(&mut st, me);
            st = self.wait_my_turn(st, me);
        }
        drop(st);
    }
}

// ---------------------------------------------------------------------------
// Running schedules
// ---------------------------------------------------------------------------

/// Monotonic token distinguishing schedules, for object registration.
fn next_run_token() -> u64 {
    static NEXT: StdAtomicU64 = StdAtomicU64::new(1);
    // relaxed: a unique token is all that's needed; no ordering with
    // any other memory is implied.
    NEXT.fetch_add(1, O::Relaxed) & 0xffff_ffff
}

/// Run one complete schedule of `f` under a fresh model. Returns the
/// recorded choice trace, or the failure message.
fn run_schedule(
    name: &str,
    body: &Arc<dyn Fn() + Send + Sync>,
    prefix: Vec<usize>,
    max_steps: usize,
    preemption_bound: Option<usize>,
) -> Result<Vec<ChoicePoint>, String> {
    let model = Arc::new(Model {
        name: name.to_string(),
        state: StdMutex::new(SchedState {
            threads: Vec::new(),
            lock_owner: Vec::new(),
            cv_count: 0,
            running: 0,
            live: 0,
            prefix,
            cursor: 0,
            trace: Vec::new(),
            steps: 0,
            preemptions: 0,
            failure: None,
            aborting: false,
        }),
        cv: StdCondvar::new(),
        run_token: next_run_token(),
        max_steps,
        preemption_bound,
    });
    let root = model.register_thread();
    let worker = {
        let model = Arc::clone(&model);
        let body = Arc::clone(body);
        std::thread::spawn(move || {
            set_ctx(Arc::clone(&model), root);
            model.thread_start(root);
            let result = catch_unwind(AssertUnwindSafe(|| body()));
            if let Err(payload) = result {
                if payload.downcast_ref::<ChaosAbort>().is_none() {
                    let msg = payload_msg(payload.as_ref());
                    let mut st = model.lock_state();
                    model.fail(&mut st, "panic under the model", &msg);
                }
            }
            model.thread_finish(root);
            clear_ctx();
        })
    };
    let outcome = {
        let mut st = model.lock_state();
        while st.live > 0 {
            st = model.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        match st.failure.take() {
            Some(msg) => Err(msg),
            None => Ok(st.trace.clone()),
        }
    };
    let _ = worker.join();
    outcome
}

/// A bounded exhaustive model-check over the interleavings of one
/// closure's threads.
///
/// `check` runs the closure once per schedule, depth-first over the
/// tree of scheduling decisions, until the tree is exhausted or
/// [`schedules`](Self::schedules) runs out. Any panic, deadlock (which
/// is how lost wakeups surface), or livelock fails the enclosing test
/// with a replayable seed. Only threads spawned through
/// [`thread::spawn`]/[`scope`] and synchronization through the
/// `chaos::` shims are modeled.
///
/// With `PASS_CHAOS_SEED` set in the environment, every `check` in the
/// process replays exactly that one schedule instead — combine it with
/// a test filter so the seed meets the test that produced it.
///
/// # Examples
///
/// ```
/// use pass_common::chaos::{self, Chaos};
/// use std::sync::Arc;
///
/// let report = Chaos::new("two_increments").check(|| {
///     let n = Arc::new(chaos::Mutex::new(0));
///     let n2 = Arc::clone(&n);
///     let t = chaos::thread::spawn(move || *n2.lock() += 1);
///     *n.lock() += 1;
///     t.join().unwrap();
///     assert_eq!(*n.lock(), 2);
/// });
/// assert!(report.exhausted);
/// ```
#[derive(Debug, Clone)]
pub struct Chaos {
    name: String,
    max_schedules: usize,
    max_steps: usize,
    preemption_bound: Option<usize>,
}

/// What a [`Chaos::check`] run covered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosReport {
    /// Schedules (distinct interleavings) executed.
    pub schedules: usize,
    /// Whether the whole choice tree was explored within the schedule
    /// budget (under the configured preemption bound, if any).
    pub exhausted: bool,
}

impl Chaos {
    /// A checker named `name` — use the enclosing test's name, so the
    /// replay command printed on failure finds it.
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            max_schedules: 20_000,
            max_steps: 20_000,
            preemption_bound: None,
        }
    }

    /// Cap the number of schedules explored (default 20 000). An
    /// unexhausted tree at the cap is reported, not an error.
    pub fn schedules(mut self, n: usize) -> Self {
        self.max_schedules = n.max(1);
        self
    }

    /// Cap scheduling steps per schedule (default 20 000); exceeding it
    /// fails the check as a livelock.
    pub fn steps(mut self, n: usize) -> Self {
        self.max_steps = n.max(1);
        self
    }

    /// Chess-style preemption bounding: at most `n` involuntary
    /// context switches per schedule. Most real concurrency bugs
    /// manifest within 2 preemptions; the bound turns an intractable
    /// tree into an exhaustive-under-bound one. Unset = unbounded.
    pub fn preemptions(mut self, n: usize) -> Self {
        self.preemption_bound = Some(n);
        self
    }

    /// Explore `body`'s interleavings; panics (failing the enclosing
    /// test) on the first schedule that panics, deadlocks, or livelocks,
    /// with a seed that replays it.
    pub fn check<F>(self, body: F) -> ChaosReport
    where
        F: Fn() + Send + Sync + 'static,
    {
        install_abort_hook();
        assert!(
            ctx().is_none(),
            "Chaos::check cannot nest inside another model"
        );
        let body: Arc<dyn Fn() + Send + Sync> = Arc::new(body);
        if let Ok(seed) = std::env::var("PASS_CHAOS_SEED") {
            return self.run_replay(&body, &seed);
        }
        let mut prefix = Vec::new();
        let mut schedules = 0usize;
        loop {
            schedules += 1;
            let trace = match run_schedule(
                &self.name,
                &body,
                prefix,
                self.max_steps,
                self.preemption_bound,
            ) {
                Ok(trace) => trace,
                Err(msg) => panic!("{msg}"),
            };
            match next_prefix(&trace) {
                None => {
                    return ChaosReport {
                        schedules,
                        exhausted: true,
                    }
                }
                Some(next) if schedules < self.max_schedules => prefix = next,
                Some(_) => {
                    return ChaosReport {
                        schedules,
                        exhausted: false,
                    }
                }
            }
        }
    }

    /// Replay exactly one schedule from a failure seed (what
    /// `PASS_CHAOS_SEED` routes to). Fails like [`check`](Self::check)
    /// if the schedule still fails.
    pub fn replay<F>(self, seed: &str, body: F) -> ChaosReport
    where
        F: Fn() + Send + Sync + 'static,
    {
        install_abort_hook();
        let body: Arc<dyn Fn() + Send + Sync> = Arc::new(body);
        self.run_replay(&body, seed)
    }

    fn run_replay(&self, body: &Arc<dyn Fn() + Send + Sync>, seed: &str) -> ChaosReport {
        match run_schedule(
            &self.name,
            body,
            parse_seed(seed),
            self.max_steps,
            self.preemption_bound,
        ) {
            Ok(_) => ChaosReport {
                schedules: 1,
                exhausted: false,
            },
            Err(msg) => panic!("{msg}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Object registration (per-schedule lazy ids)
// ---------------------------------------------------------------------------

/// Lazily binds a shim object to an id in the *current* schedule's
/// model. Packed as `run_token << 32 | (id + 1)` so a zero cell means
/// "never registered" and stale registrations from finished schedules
/// never match.
struct Registration(StdAtomicU64);

enum RegKind {
    Lock,
    Cv,
}

impl Default for Registration {
    fn default() -> Self {
        Self::new()
    }
}

impl Registration {
    const fn new() -> Self {
        Self(StdAtomicU64::new(0))
    }

    fn resolve(&self, c: &Ctx, kind: RegKind) -> usize {
        // relaxed: the model serializes execution (only the scheduled
        // thread touches shared state), so these loads/stores never
        // race; the cell is a cache, not a synchronization point.
        let packed = self.0.load(O::Relaxed);
        if packed >> 32 == c.model.run_token && packed & 0xffff_ffff != 0 {
            return (packed & 0xffff_ffff) as usize - 1;
        }
        let id = match kind {
            RegKind::Lock => c.model.alloc_lock(),
            RegKind::Cv => c.model.alloc_cv(),
        };
        // relaxed: see above — serialized by the model scheduler.
        self.0
            .store(c.model.run_token << 32 | (id as u64 + 1), O::Relaxed);
        id
    }
}

impl fmt::Debug for Registration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registration").finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------------
// Mutex / Condvar shims
// ---------------------------------------------------------------------------

/// A mutual-exclusion lock over `T` — `std::sync::Mutex` with poisoning
/// folded away and, inside a [`Chaos::check`] model, scheduler-explored
/// acquisition order.
#[derive(Default)]
pub struct Mutex<T> {
    inner: StdMutex<T>,
    reg: Registration,
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = f.debug_struct("Mutex");
        match self.inner.try_lock() {
            Ok(guard) => s.field("data", &&*guard).finish(),
            Err(_) => s.field("data", &"<locked>").finish(),
        }
    }
}

impl<T> Mutex<T> {
    /// A new unlocked mutex holding `value`.
    pub fn new(value: T) -> Self {
        Self {
            inner: StdMutex::new(value),
            reg: Registration::new(),
        }
    }

    /// Acquire the lock, blocking until it is free. Poisoning is
    /// folded: a panic in another holder does not cascade here. Under a
    /// model this is a scheduling choice point.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let release = match ctx() {
            Some(c) => {
                let lid = self.reg.resolve(&c, RegKind::Lock);
                c.model.lock_acquire(c.tid, lid);
                ModelRelease(Some((c, lid)))
            }
            None => ModelRelease(None),
        };
        // The model (when active) guarantees exclusivity, so this real
        // acquisition never contends with a modeled holder.
        MutexGuard {
            inner: self.inner.lock().unwrap_or_else(PoisonError::into_inner),
            lock: self,
            release,
        }
    }

    /// Consume the mutex and return its data (no locking needed —
    /// ownership proves exclusivity).
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// Releases the model-side lock when the guard drops; disarmed while a
/// condvar wait owns the transition. Declared after `inner` in
/// [`MutexGuard`] so the real unlock happens first.
struct ModelRelease(Option<(Ctx, usize)>);

impl Drop for ModelRelease {
    fn drop(&mut self) {
        if let Some((c, lid)) = self.0.take() {
            c.model.lock_release(lid);
        }
    }
}

/// RAII guard for [`Mutex`]; the lock is released on drop.
///
/// No `Drop` impl of its own — field order does the work: the real
/// `std` guard releases first, then the model learns of the release —
/// so condvar code can destructure it.
pub struct MutexGuard<'a, T> {
    inner: StdMutexGuard<'a, T>,
    lock: &'a Mutex<T>,
    release: ModelRelease,
}

impl<T: fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// Whether a [`Condvar::wait_timeout`] returned because time ran out
/// rather than because of a notification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// `true` if the wait timed out.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// A condition variable — `std::sync::Condvar` with poisoning folded
/// away and, inside a model, scheduler-explored wakeup order. Under a
/// model, timed waits time out exactly when no notification can
/// arrive, so both the notified and the timed-out paths are explored.
#[derive(Default)]
pub struct Condvar {
    inner: StdCondvar,
    reg: Registration,
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Condvar").finish_non_exhaustive()
    }
}

impl Condvar {
    /// A new condition variable.
    pub fn new() -> Self {
        Self::default()
    }

    /// Atomically release `guard`'s lock and park until notified; the
    /// lock is reacquired before returning.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let MutexGuard {
            inner,
            lock,
            mut release,
        } = guard;
        match release.0.take() {
            None => MutexGuard {
                inner: self
                    .inner
                    .wait(inner)
                    .unwrap_or_else(PoisonError::into_inner),
                lock,
                release,
            },
            Some((c, lid)) => {
                let cvid = self.reg.resolve(&c, RegKind::Cv);
                // Real unlock first; no other thread can run until the
                // model transition below hands the turn over.
                drop(inner);
                c.model.cv_wait(c.tid, cvid, lid, false);
                let inner = lock.inner.lock().unwrap_or_else(PoisonError::into_inner);
                MutexGuard {
                    inner,
                    lock,
                    release: ModelRelease(Some((c, lid))),
                }
            }
        }
    }

    /// [`wait`](Self::wait) with a timeout. Under a model the duration
    /// is not measured: the timeout fires exactly when no notification
    /// can otherwise arrive (any earlier firing only repeats an
    /// interleaving the notify orderings already cover).
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
        let MutexGuard {
            inner,
            lock,
            mut release,
        } = guard;
        match release.0.take() {
            None => {
                let (inner, res) = self
                    .inner
                    .wait_timeout(inner, timeout)
                    .unwrap_or_else(PoisonError::into_inner);
                (
                    MutexGuard {
                        inner,
                        lock,
                        release,
                    },
                    WaitTimeoutResult(res.timed_out()),
                )
            }
            Some((c, lid)) => {
                let cvid = self.reg.resolve(&c, RegKind::Cv);
                drop(inner);
                let timed_out = c.model.cv_wait(c.tid, cvid, lid, true);
                let inner = lock.inner.lock().unwrap_or_else(PoisonError::into_inner);
                (
                    MutexGuard {
                        inner,
                        lock,
                        release: ModelRelease(Some((c, lid))),
                    },
                    WaitTimeoutResult(timed_out),
                )
            }
        }
    }

    /// Wake one parked waiter, if any. Under a model, *which* waiter
    /// wakes is a recorded scheduling choice.
    pub fn notify_one(&self) {
        match ctx() {
            Some(c) => {
                let cvid = self.reg.resolve(&c, RegKind::Cv);
                c.model.cv_notify(c.tid, cvid, false);
            }
            None => self.inner.notify_one(),
        }
    }

    /// Wake every parked waiter.
    pub fn notify_all(&self) {
        match ctx() {
            Some(c) => {
                let cvid = self.reg.resolve(&c, RegKind::Cv);
                c.model.cv_notify(c.tid, cvid, true);
            }
            None => self.inner.notify_all(),
        }
    }
}

// ---------------------------------------------------------------------------
// Atomics
// ---------------------------------------------------------------------------

/// Inserts a scheduling choice point before an atomic access when a
/// model is active (the access itself is then effectively sequentially
/// consistent — the model serializes threads).
fn atomic_yield() {
    if let Some(c) = ctx() {
        c.model.yield_point(c.tid);
    }
}

macro_rules! chaos_atomic {
    ($name:ident, $std:ty, $prim:ty) => {
        /// A shim over the matching `std::sync::atomic` type: identical
        /// semantics, plus a scheduling choice point before every access
        /// when run inside a [`Chaos::check`] model (where execution is
        /// serialized, making every access sequentially consistent
        /// regardless of the `Ordering` argument).
        #[derive(Debug, Default)]
        pub struct $name {
            inner: $std,
        }

        impl $name {
            /// A new atomic holding `value`.
            pub const fn new(value: $prim) -> Self {
                Self {
                    inner: <$std>::new(value),
                }
            }

            /// Load the current value.
            pub fn load(&self, order: Ordering) -> $prim {
                atomic_yield();
                self.inner.load(order)
            }

            /// Store `value`.
            pub fn store(&self, value: $prim, order: Ordering) {
                atomic_yield();
                self.inner.store(value, order)
            }

            /// Replace the value, returning the previous one.
            pub fn swap(&self, value: $prim, order: Ordering) -> $prim {
                atomic_yield();
                self.inner.swap(value, order)
            }

            /// Add `value`, returning the previous value.
            pub fn fetch_add(&self, value: $prim, order: Ordering) -> $prim {
                atomic_yield();
                self.inner.fetch_add(value, order)
            }

            /// Subtract `value`, returning the previous value.
            pub fn fetch_sub(&self, value: $prim, order: Ordering) -> $prim {
                atomic_yield();
                self.inner.fetch_sub(value, order)
            }
        }
    };
}

use super::Ordering;

chaos_atomic!(AtomicU64, StdAtomicU64, u64);
chaos_atomic!(AtomicUsize, StdAtomicUsize, usize);

// ---------------------------------------------------------------------------
// Threads and scopes
// ---------------------------------------------------------------------------

/// Thread spawning/joining: `std::thread` outside a model, registered
/// model threads inside one.
pub mod thread {
    use super::*;

    /// Wrap `f` so the new OS thread participates in `model`: it parks
    /// until first scheduled, and hands its turn onward when done —
    /// including when it unwinds, so drop-path synchronization (e.g.
    /// `TicketSlot`'s cancel-on-drop) is itself model-checked.
    pub(super) fn model_main<T>(model: Arc<Model>, tid: usize, f: impl FnOnce() -> T) -> T {
        set_ctx(Arc::clone(&model), tid);
        model.thread_start(tid);
        let result = catch_unwind(AssertUnwindSafe(f));
        model.thread_finish(tid);
        clear_ctx();
        match result {
            Ok(value) => value,
            Err(payload) => resume_unwind(payload),
        }
    }

    /// Spawn a thread. Inside a model, the child is registered with the
    /// scheduler and the spawn is a choice point (the child may run
    /// before the parent's next step — or long after).
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        match ctx() {
            None => JoinHandle {
                model: None,
                inner: std::thread::spawn(f),
            },
            Some(c) => {
                let tid = c.model.register_thread();
                let model = Arc::clone(&c.model);
                let inner = std::thread::spawn(move || model_main(model, tid, f));
                c.model.yield_point(c.tid);
                JoinHandle {
                    model: Some((Arc::clone(&c.model), tid)),
                    inner,
                }
            }
        }
    }

    /// Owned handle to a spawned thread (model-aware `std` handle).
    #[derive(Debug)]
    pub struct JoinHandle<T> {
        pub(super) model: Option<(Arc<Model>, usize)>,
        pub(super) inner: std::thread::JoinHandle<T>,
    }

    impl<T> JoinHandle<T> {
        /// Wait for the thread to finish; a panicked thread's payload
        /// comes back as `Err`, exactly like `std`. Inside a model this
        /// is a scheduling point, not a real block.
        pub fn join(self) -> std::thread::Result<T> {
            if let (Some((model, target)), Some(c)) = (&self.model, ctx()) {
                if Arc::ptr_eq(model, &c.model) {
                    c.model.join_wait(c.tid, *target);
                }
            }
            self.inner.join()
        }

        /// Whether the thread has finished running.
        pub fn is_finished(&self) -> bool {
            self.inner.is_finished()
        }
    }
}

/// Create a scope for spawning borrowing threads — `std::thread::scope`
/// with model-registered children. At scope exit every still-running
/// child is driven to completion by the scheduler before the real
/// (non-modeled) implicit join, so unjoined scoped threads never stall
/// a schedule.
pub fn scope<'env, F, T>(f: F) -> T
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> T,
{
    let c = ctx();
    std::thread::scope(|s| {
        let sc = Scope {
            inner: s,
            ctx: c,
            children: StdMutex::new(Vec::new()),
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&sc)));
        if let Some(c) = &sc.ctx {
            match &result {
                Ok(_) => {
                    let children = sc
                        .children
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .clone();
                    for child in children {
                        c.model.join_wait(c.tid, child);
                    }
                }
                Err(payload) => {
                    // Tear the schedule down so parked children unwind
                    // instead of deadlocking the real implicit join
                    // below. A ChaosAbort unwind is already tearing
                    // down; fail() keeps the first failure either way.
                    let mut st = c.model.lock_state();
                    c.model.fail(
                        &mut st,
                        "panic in scope body",
                        &payload_msg(payload.as_ref()),
                    );
                    drop(st);
                    c.model.cv.notify_all();
                }
            }
        }
        match result {
            Ok(value) => value,
            Err(payload) => resume_unwind(payload),
        }
    })
}

/// A scope handle for spawning borrowing threads (see [`scope`]).
pub struct Scope<'scope, 'env: 'scope> {
    inner: &'scope std::thread::Scope<'scope, 'env>,
    ctx: Option<Ctx>,
    children: StdMutex<Vec<usize>>,
}

impl fmt::Debug for Scope<'_, '_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scope").finish_non_exhaustive()
    }
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawn a scoped thread (may borrow from `'env`). Inside a model
    /// the child is registered and the spawn is a choice point.
    pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
    where
        F: FnOnce() -> T + Send + 'scope,
        T: Send + 'scope,
    {
        match &self.ctx {
            None => ScopedJoinHandle {
                model: None,
                inner: self.inner.spawn(f),
            },
            Some(c) => {
                let tid = c.model.register_thread();
                self.children
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(tid);
                let model = Arc::clone(&c.model);
                let inner = self.inner.spawn(move || thread::model_main(model, tid, f));
                c.model.yield_point(c.tid);
                ScopedJoinHandle {
                    model: Some((Arc::clone(&c.model), tid)),
                    inner,
                }
            }
        }
    }
}

/// Handle to a scoped thread (see [`Scope::spawn`]).
#[derive(Debug)]
pub struct ScopedJoinHandle<'scope, T> {
    model: Option<(Arc<Model>, usize)>,
    inner: std::thread::ScopedJoinHandle<'scope, T>,
}

impl<T> ScopedJoinHandle<'_, T> {
    /// Wait for the thread to finish; a panicked thread's payload comes
    /// back as `Err`, exactly like `std`.
    pub fn join(self) -> std::thread::Result<T> {
        if let (Some((model, target)), Some(c)) = (&self.model, ctx()) {
            if Arc::ptr_eq(model, &c.model) {
                c.model.join_wait(c.tid, *target);
            }
        }
        self.inner.join()
    }

    /// Whether the thread has finished running.
    pub fn is_finished(&self) -> bool {
        self.inner.is_finished()
    }
}

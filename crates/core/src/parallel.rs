//! Process-wide host-thread coordination: the thread budget shared by
//! page-level and job-level parallelism, and the persistent page-worker
//! pool that executes batched page activations.
//!
//! Two layers of the simulator want host threads: the experiment engine
//! (`ap-engine`) runs whole jobs in parallel, and the memory system runs the
//! page functions of one group activation in parallel. Left uncoordinated,
//! `jobs × pages` threads oversubscribe the host. The engine therefore
//! divides the machine once — `cores / workers` — and publishes the per-job
//! share here; the memory system sizes its page pools from [`thread_budget`].
//!
//! The budget is advisory and process-global. The `page_threads` setting
//! (`AP_PAGE_THREADS`, see the README's environment table, or a
//! [`settings::scoped`](crate::settings::scoped) override) takes precedence;
//! a budget of 1 disables page-level parallelism entirely.
//!
//! # The page-worker pool
//!
//! Batched activations used to spawn a fresh `std::thread::scope` pool and
//! serialize every job claim through a `Mutex`-wrapped iterator on every
//! batch. At million-activation scale the spawn/join churn dominates the
//! (microseconds of) page-function work per batch. [`run_batch`] replaces
//! both costs:
//!
//! * **Persistent workers.** Worker threads are spawned lazily on first use,
//!   grown up to the requested size, and then reused by every subsequent
//!   batch from any thread in the process (engine jobs and `apd` service
//!   jobs share the same pool, sized by the same budget protocol).
//! * **Lock-free claiming.** Jobs are claimed through an atomic cursor with
//!   adaptive chunking instead of a mutex; results are written into
//!   preallocated per-index slots, so no mpsc channel or reallocation is
//!   needed per batch and the output order is exactly the input order.
//!
//! Determinism is unaffected: `run_batch` returns results keyed by job
//! index regardless of which worker executed which chunk, so callers that
//! merge in submission order (the deferred-execute schedule in
//! `ap_radram::System`) observe the same bytes as the sequential oracle.
//!
//! # Safety
//!
//! This module is the one place in the crate that uses `unsafe`. Two
//! invariants carry all of it:
//!
//! 1. A batch's closure lives on the submitting thread's stack. The raw
//!    pointer handed to the workers is guaranteed valid because `run_batch`
//!    does not return — and does not resume a panic — until every helper
//!    has counted down the batch latch, at which point no worker can touch
//!    the closure again.
//! 2. Job and result slots are only ever accessed at indices claimed
//!    exclusively through the atomic cursor (`fetch_add` hands each index
//!    range to exactly one thread), so the `UnsafeCell` writes are disjoint.
#![allow(unsafe_code)]

use std::cell::UnsafeCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// 0 means "unset": fall back to the whole machine.
static BUDGET: AtomicUsize = AtomicUsize::new(0);

/// Publishes the number of host threads one group activation may use.
///
/// Called by whoever owns the process-level parallelism decision (the
/// experiment engine sets `cores / workers`). Clamped to at least 1.
///
/// # Examples
///
/// ```
/// active_pages::parallel::set_thread_budget(4);
/// assert_eq!(active_pages::parallel::thread_budget(), 4);
/// active_pages::parallel::set_thread_budget(0); // clamps
/// assert_eq!(active_pages::parallel::thread_budget(), 1);
/// ```
pub fn set_thread_budget(threads: usize) {
    BUDGET.store(threads.max(1), Ordering::Relaxed);
}

/// Host threads available for executing one group's page functions.
///
/// Resolution order: the `page_threads` [setting](crate::settings) in
/// effect on this thread (`AP_PAGE_THREADS`, or a scoped override), then
/// the budget published via [`set_thread_budget`], then the host's
/// available parallelism. Never returns 0.
pub fn thread_budget() -> usize {
    if let Some(n) = crate::settings::with(|s| s.page_threads) {
        return n.max(1);
    }
    match BUDGET.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        n => n,
    }
}

/// The thread count the pooled executor actually runs `requested` threads
/// at: capped by the host's available parallelism, never 0.
///
/// The budget protocol expresses a *cap* on concurrency, not a target —
/// running more page-execution threads than the host has cores buys no
/// simulation throughput and pays real context-switch overhead per batch,
/// which the brief batches of the million-record workloads turn dominant.
/// Results never depend on the thread count (the deterministic merge is
/// keyed by deferral order), so this is purely a host-performance choice.
/// [`run_batch`] itself obeys its explicit `threads` argument; callers that
/// size from [`thread_budget`] apply this cap.
///
/// # Examples
///
/// ```
/// let t = active_pages::parallel::effective_threads(4);
/// assert!(t >= 1 && t <= 4);
/// assert_eq!(active_pages::parallel::effective_threads(0), 1);
/// ```
pub fn effective_threads(requested: usize) -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores = *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    requested.clamp(1, cores)
}

/// Cumulative counters for the persistent page-worker pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Batches dispatched onto pool workers (claims that used ≥ 1 helper).
    pub batches: u64,
    /// Helper-thread checkouts that reused an already-spawned worker.
    pub reuses: u64,
    /// Worker threads spawned over the life of the process.
    pub threads_spawned: u64,
}

static BATCHES: AtomicU64 = AtomicU64::new(0);
static REUSES: AtomicU64 = AtomicU64::new(0);
static SPAWNED: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the pool's cumulative counters (process-global).
pub fn pool_stats() -> PoolStats {
    PoolStats {
        batches: BATCHES.load(Ordering::Relaxed),
        reuses: REUSES.load(Ordering::Relaxed),
        threads_spawned: SPAWNED.load(Ordering::Relaxed),
    }
}

/// Opens once every helper working a batch has finished with its closure.
struct Latch {
    state: Mutex<LatchState>,
    cv: Condvar,
}

struct LatchState {
    remaining: usize,
    poisoned: bool,
}

impl Latch {
    fn new(count: usize) -> Self {
        Latch {
            state: Mutex::new(LatchState { remaining: count, poisoned: false }),
            cv: Condvar::new(),
        }
    }

    fn count_down(&self, poisoned: bool) {
        let mut s = self.state.lock().unwrap();
        s.remaining -= 1;
        s.poisoned |= poisoned;
        if s.remaining == 0 {
            self.cv.notify_all();
        }
    }

    /// Blocks until every helper is done; returns whether any panicked.
    fn wait(&self) -> bool {
        let mut s = self.state.lock().unwrap();
        while s.remaining > 0 {
            s = self.cv.wait(s).unwrap();
        }
        s.poisoned
    }
}

/// One batch's share of work, handed to a persistent worker.
struct Task {
    /// The batch closure on the submitting thread's stack; valid until the
    /// latch opens (see the module-level safety notes).
    run: *const (dyn Fn() + Sync),
    latch: Arc<Latch>,
}

// SAFETY: the pointee is `Sync` (shared execution is sound) and `run_batch`
// keeps it alive until every recipient has counted the latch down.
#[allow(unsafe_code)]
unsafe impl Send for Task {}

fn worker_loop(rx: &Receiver<Task>) {
    while let Ok(task) = rx.recv() {
        // SAFETY: `run_batch` keeps the closure alive until the latch opens,
        // and this thread counts down only after it is done with it.
        let f = unsafe { &*task.run };
        let poisoned = catch_unwind(AssertUnwindSafe(f)).is_err();
        task.latch.count_down(poisoned);
    }
}

/// Detached persistent workers, grown lazily up to the largest batch's size.
#[derive(Default)]
struct Pool {
    workers: Vec<Sender<Task>>,
}

static POOL: OnceLock<Mutex<Pool>> = OnceLock::new();

fn pool() -> &'static Mutex<Pool> {
    POOL.get_or_init(Mutex::default)
}

/// Reserves `helpers` worker channels, spawning any that don't exist yet.
fn checkout_workers(helpers: usize) -> Vec<Sender<Task>> {
    let mut pool = pool().lock().unwrap();
    let reused = pool.workers.len().min(helpers);
    while pool.workers.len() < helpers {
        let (tx, rx) = channel();
        std::thread::Builder::new()
            .name(format!("ap-page-worker-{}", pool.workers.len()))
            .spawn(move || worker_loop(&rx))
            .expect("failed to spawn a page-worker thread");
        pool.workers.push(tx);
        SPAWNED.fetch_add(1, Ordering::Relaxed);
    }
    BATCHES.fetch_add(1, Ordering::Relaxed);
    REUSES.fetch_add(reused as u64, Ordering::Relaxed);
    pool.workers[..helpers].to_vec()
}

/// A per-index cell written by exactly one thread (the cursor's claimant).
struct Slot<T>(UnsafeCell<Option<T>>);

// SAFETY: slots are only accessed at indices claimed exclusively through the
// batch's atomic cursor, so no two threads ever touch the same slot.
#[allow(unsafe_code)]
unsafe impl<T: Send> Sync for Slot<T> {}

/// Runs `f` over every job on up to `threads` host threads (the calling
/// thread plus persistent pool workers) and returns the results **in job
/// order**, independent of which worker ran what.
///
/// Work is distributed by an atomic claim cursor with adaptive chunking —
/// roughly `len / (threads * 4)` jobs per claim, clamped to `1..=64` — so
/// large batches amortize claim traffic while small ones still spread. With
/// `threads <= 1` (or a single job) everything runs inline on the caller,
/// which is exactly the sequential oracle's order.
///
/// If `f` panics on any job the panic is propagated to the caller after all
/// workers have quiesced, as `std::thread::scope` would; the pool threads
/// themselves survive for future batches.
///
/// # Examples
///
/// ```
/// let doubled = active_pages::parallel::run_batch((0..100).collect(), 4, |j: usize| j * 2);
/// assert_eq!(doubled, (0..100).map(|j| j * 2).collect::<Vec<_>>());
/// ```
pub fn run_batch<J, T, F>(jobs: Vec<J>, threads: usize, f: F) -> Vec<T>
where
    J: Send,
    T: Send,
    F: Fn(J) -> T + Sync,
{
    let n = jobs.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, n);
    if threads == 1 {
        return jobs.into_iter().map(f).collect();
    }
    let chunk = (n / (threads * 4)).clamp(1, 64);
    let cursor = AtomicUsize::new(0);
    let jobs: Vec<Slot<J>> = jobs.into_iter().map(|j| Slot(UnsafeCell::new(Some(j)))).collect();
    let results: Vec<Slot<T>> = (0..n).map(|_| Slot(UnsafeCell::new(None))).collect();
    let work = || loop {
        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
        if start >= n {
            break;
        }
        for i in start..(start + chunk).min(n) {
            // SAFETY: index `i` is owned by this thread alone — the cursor's
            // fetch_add handed the range [start, start+chunk) to exactly one
            // claimant — so these disjoint slot accesses cannot race.
            let job = unsafe { (*jobs[i].0.get()).take() }.expect("job slot claimed twice");
            let out = f(job);
            unsafe { *results[i].0.get() = Some(out) };
        }
    };
    let helpers = threads - 1;
    let latch = Arc::new(Latch::new(helpers));
    let senders = checkout_workers(helpers);
    let work_ref: &(dyn Fn() + Sync) = &work;
    // SAFETY: erases the stack lifetime of `work`. The pointer cannot
    // dangle: this function neither returns nor resumes a panic before
    // `latch.wait()` confirms every helper is finished with the closure.
    let run: *const (dyn Fn() + Sync) =
        unsafe { std::mem::transmute::<&(dyn Fn() + Sync), *const (dyn Fn() + Sync)>(work_ref) };
    for tx in &senders {
        tx.send(Task { run, latch: Arc::clone(&latch) }).expect("a page-worker thread died");
    }
    let mine = catch_unwind(AssertUnwindSafe(&work));
    let poisoned = latch.wait();
    // Every helper has quiesced; unwinding past `work` is safe from here.
    if let Err(payload) = mine {
        resume_unwind(payload);
    }
    assert!(!poisoned, "a page-worker thread panicked while executing a batch");
    results
        .into_iter()
        .map(|s| s.0.into_inner().expect("every claimed job slot is filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_round_trips_and_clamps() {
        set_thread_budget(3);
        assert_eq!(BUDGET.load(Ordering::Relaxed), 3);
        set_thread_budget(0);
        assert_eq!(BUDGET.load(Ordering::Relaxed), 1);
        // Leave unset-like state for other tests: a budget of 1 is the most
        // conservative value and never oversubscribes.
        set_thread_budget(1);
    }

    #[test]
    fn run_batch_empty_and_singleton() {
        let empty: Vec<u32> = run_batch(Vec::<u32>::new(), 8, |j| j);
        assert!(empty.is_empty());
        assert_eq!(run_batch(vec![7u32], 8, |j| j + 1), vec![8]);
    }

    #[test]
    fn run_batch_keeps_job_order_across_thread_counts() {
        let expected: Vec<usize> = (0..1000).map(|j| j * 2).collect();
        for threads in [1, 2, 3, 4, 8, 1000, 5000] {
            let got = run_batch((0..1000).collect(), threads, |j: usize| j * 2);
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn run_batch_reuses_workers_across_batches() {
        let before = pool_stats();
        for _ in 0..3 {
            let _ = run_batch((0..64).collect(), 4, |j: usize| j + 1);
        }
        let after = pool_stats();
        assert!(after.batches >= before.batches + 3);
        // The 2nd and 3rd batches find the 1st batch's helpers alive (other
        // tests may race on the global pool, so compare against `before`).
        assert!(after.reuses >= before.reuses + 6, "before={before:?} after={after:?}");
    }

    #[test]
    fn run_batch_propagates_worker_panics() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let _ = run_batch((0..32).collect(), 4, |j: usize| {
                assert!(j != 17, "boom");
                j
            });
        }));
        assert!(caught.is_err());
        // The pool survives a poisoned batch and keeps serving.
        assert_eq!(run_batch(vec![1u32, 2, 3], 4, |j| j * 10), vec![10, 20, 30]);
    }
}

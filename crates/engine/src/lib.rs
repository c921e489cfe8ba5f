//! `ap-engine` — the experiment-execution engine of the Active Pages
//! reproduction.
//!
//! The paper's evaluation is a large grid of *independent* simulations:
//! every Figure 3/4/5/8/9 point and Table 4 row runs an application on a
//! fresh simulated `System`. This crate is the substrate that executes such
//! grids fast and safely:
//!
//! * **Parallel** — jobs run on a scoped worker pool ([`std::thread::scope`]
//!   plus channels; worker count set by the caller, default the machine's
//!   available parallelism). Results come back in deterministic *submission*
//!   order regardless of completion order, so output files are byte-identical
//!   at any worker count.
//! * **Fault-isolated** — each job runs under [`std::panic::catch_unwind`]
//!   with a wall-clock watchdog; a panicking or runaway job degrades to a
//!   [`JobError`] entry while sibling jobs complete.
//! * **Cached** — completed results persist to a content-addressed disk
//!   cache ([`DiskCache`]) keyed by job key + caller salt (configuration
//!   fingerprint, crate version), so re-running an evaluation only simulates
//!   points whose inputs changed.
//! * **Observable** — every job appends a JSONL manifest line (outcome,
//!   cache hit/miss, wall time, worker) and a live progress line tracks
//!   completed/total and jobs/sec.
//!
//! Jobs are `Send` *specs*, not `Send` systems: each closure constructs its
//! own `System` inside the worker, so no simulator state ever crosses a
//! thread boundary and per-job trace sessions stay thread-local. The engine
//! also divides the machine's cores between job workers and the simulator's
//! own page-execution pool (`active_pages::parallel`), so a grid of jobs
//! that each fan out page kernels does not oversubscribe the host.
//!
//! # Examples
//!
//! ```
//! use ap_engine::{Engine, Job};
//!
//! let engine = Engine::new().with_workers(4).without_cache();
//! let jobs = (0..8).map(|i| Job::new(format!("square/{i}"), move || i * i)).collect();
//! let results = engine.run(jobs, None);
//! assert_eq!(results[3].result.as_ref().unwrap(), &9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod job;
pub mod manifest;
pub mod service;
pub mod supervise;

pub use cache::{fnv1a, DiskCache};
pub use job::{Codec, Job, JobError, JobOutcome};
pub use service::{Completion, JobId, Service, ServiceConfig, SubmitError};
pub use supervise::{supervise, Supervised};

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The default per-job wall-clock deadline.
pub const DEFAULT_DEADLINE: Duration = Duration::from_secs(600);

/// Where the engine writes per-job Chrome traces, and which subsystems to
/// record. Each fresh job execution gets its own session (the job thread is
/// dedicated, so collection is lock-free) exported as one
/// `<fnv1a(key)>.trace.json` file under `dir`. Cache hits simulate nothing
/// and produce no trace.
#[derive(Debug, Clone)]
pub struct TraceSink {
    /// Directory receiving one `.trace.json` per freshly executed job.
    pub dir: PathBuf,
    /// Subsystems to record while jobs run.
    pub filter: ap_trace::Filter,
}

/// The job-execution engine. Configure with the builder methods, then call
/// [`Engine::run`] with a batch of jobs.
#[derive(Debug, Clone)]
pub struct Engine {
    workers: usize,
    cache: Option<DiskCache>,
    manifest: Option<PathBuf>,
    deadline: Option<Duration>,
    progress: bool,
    salt: String,
    trace: Option<TraceSink>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// An engine with default settings: one worker per available core, no
    /// cache, no manifest, the [`DEFAULT_DEADLINE`] watchdog, no progress.
    pub fn new() -> Self {
        Engine {
            workers: available_workers(),
            cache: None,
            manifest: None,
            deadline: Some(DEFAULT_DEADLINE),
            progress: false,
            salt: String::new(),
            trace: None,
        }
    }

    /// Sets the worker count (clamped to at least 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Enables the disk cache rooted at `dir`.
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache = Some(DiskCache::new(dir));
        self
    }

    /// Disables the disk cache.
    pub fn without_cache(mut self) -> Self {
        self.cache = None;
        self
    }

    /// Appends manifest lines to the JSONL file at `path`.
    pub fn with_manifest(mut self, path: impl Into<PathBuf>) -> Self {
        self.manifest = Some(path.into());
        self
    }

    /// Sets (`Some`) or disables (`None`) the per-job wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.deadline = deadline;
        self
    }

    /// Enables or disables the live progress line on stderr.
    pub fn with_progress(mut self, progress: bool) -> Self {
        self.progress = progress;
        self
    }

    /// Folds `salt` into every cache key. Callers put everything that
    /// invalidates results wholesale here: crate version, configuration
    /// fingerprint scheme, quick-mode flags.
    pub fn with_salt(mut self, salt: impl Into<String>) -> Self {
        self.salt = salt.into();
        self
    }

    /// Records a Chrome trace for every freshly executed job, filtered to
    /// `filter`, one `.trace.json` file per job under `dir`. The filter
    /// applies to each job's own trace session only, so later untraced runs
    /// stay untraced. Tracing never changes simulated cycle counts or cache
    /// keys — it only observes.
    pub fn with_trace_dir(mut self, dir: impl Into<PathBuf>, filter: ap_trace::Filter) -> Self {
        self.trace = Some(TraceSink { dir: dir.into(), filter });
        self
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Executes `jobs` on the worker pool and returns one outcome per job,
    /// **in submission order** regardless of completion order.
    ///
    /// With a `codec` and an enabled cache, each job first probes the disk
    /// cache and each fresh result is persisted; without either, every job
    /// computes. The codec's [`Codec::diag`] hook runs only for manifest
    /// lines, once per successful job, on the collecting thread. Panics and
    /// deadline overruns surface as [`JobError`]s in the affected outcome
    /// only.
    pub fn run<T: Send + 'static>(
        &self,
        jobs: Vec<Job<T>>,
        codec: Option<Codec<T>>,
    ) -> Vec<JobOutcome<T>> {
        let total = jobs.len();
        if total == 0 {
            return Vec::new();
        }
        let slots: Vec<JobSlot<T>> = jobs
            .into_iter()
            .map(|j| JobSlot { key: j.key, run: Mutex::new(Some(j.run)) })
            .collect();
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, JobOutcome<T>)>();
        if let Some(sink) = &self.trace {
            if let Err(e) = std::fs::create_dir_all(&sink.dir) {
                ap_trace::warn(
                    "trace.dir_failed",
                    format!("cannot create trace dir {}: {e}", sink.dir.display()),
                );
            }
        }
        let mut manifest =
            self.manifest.as_deref().and_then(|p| match manifest::Writer::append(p) {
                Ok(w) => Some(w),
                Err(e) => {
                    ap_trace::warn(
                        "manifest.open_failed",
                        format!("cannot open manifest {}: {e}", p.display()),
                    );
                    None
                }
            });
        let mut results: Vec<Option<JobOutcome<T>>> = (0..total).map(|_| None).collect();
        let started = Instant::now();

        // Share the cores between job workers and each job's in-simulator
        // page-execution pool: `workers` jobs, each budgeted cores/workers
        // threads, together fill the machine without oversubscribing it.
        let spawned = self.workers.min(total).max(1);
        active_pages::parallel::set_thread_budget((available_workers() / spawned).max(1));

        std::thread::scope(|scope| {
            for worker in 0..self.workers.min(total) {
                let tx = tx.clone();
                let slots = &slots;
                let next = &next;
                scope.spawn(move || self.worker_loop(worker, slots, next, tx, codec));
            }
            drop(tx);

            let mut done = 0usize;
            while done < total {
                let Ok((index, outcome)) = rx.recv() else {
                    break; // all workers gone; missing slots filled below
                };
                if let Some(w) = manifest.as_mut() {
                    let diag = match (&outcome.result, &codec) {
                        (Ok(value), Some(codec)) => codec.diag.map(|f| f(value)),
                        _ => None,
                    };
                    w.record(&manifest::Entry::of(&outcome, diag));
                }
                results[index] = Some(outcome);
                done += 1;
                if self.progress {
                    let rate = done as f64 / started.elapsed().as_secs_f64().max(1e-9);
                    eprint!("\r[{done}/{total}] {rate:.1} jobs/s ");
                }
            }
        });
        if self.progress {
            eprintln!();
        }

        results
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.unwrap_or_else(|| JobOutcome {
                    key: slots[i].key.clone(),
                    result: Err(JobError::Panicked("worker thread died".into())),
                    wall: Duration::ZERO,
                    cache_hit: false,
                    worker: 0,
                    trace: None,
                })
            })
            .collect()
    }

    fn worker_loop<T: Send + 'static>(
        &self,
        worker: usize,
        slots: &[JobSlot<T>],
        next: &AtomicUsize,
        tx: Sender<(usize, JobOutcome<T>)>,
        codec: Option<Codec<T>>,
    ) {
        loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            if index >= slots.len() {
                return;
            }
            let key = slots[index].key.clone();
            let started = Instant::now();

            if let (Some(cache), Some(codec)) = (&self.cache, &codec) {
                if let Some(value) = cache.load(&key, &self.salt, codec) {
                    let outcome = JobOutcome {
                        key,
                        result: Ok(value),
                        wall: started.elapsed(),
                        cache_hit: true,
                        worker,
                        trace: None,
                    };
                    let _ = tx.send((index, outcome));
                    continue;
                }
            }

            let run = slots[index]
                .run
                .lock()
                .expect("job slot lock poisoned")
                .take()
                .expect("job dispatched twice");
            let (result, trace) = self.execute_isolated(&key, run);

            if let (Ok(value), Some(cache), Some(codec)) = (&result, &self.cache, &codec) {
                cache.store(&key, &self.salt, value, codec);
            }
            let outcome = JobOutcome {
                key,
                result,
                wall: started.elapsed(),
                cache_hit: false,
                worker,
                trace,
            };
            let _ = tx.send((index, outcome));
        }
    }

    /// Runs one job through [`supervise`] (dedicated thread, panic capture,
    /// wall-clock watchdog) and, when a [`TraceSink`] is configured, exports
    /// the job's trace session as Chrome trace JSON (even when the job
    /// panicked, so crashes keep their timeline). The returned path is
    /// `None` on timeout (the abandoned thread's trace is discarded) or
    /// export failure.
    fn execute_isolated<T: Send + 'static>(
        &self,
        key: &str,
        run: Box<dyn FnOnce() -> T + Send>,
    ) -> (Result<T, JobError>, Option<PathBuf>) {
        let session =
            self.trace.as_ref().map(|sink| ap_trace::session::SessionConfig::filtered(sink.filter));
        let supervised = supervise::supervise(self.deadline, session, run);
        let path = match (&self.trace, &supervised.trace) {
            (Some(sink), Some(trace)) => write_trace(&sink.dir, key, trace),
            _ => None,
        };
        (supervised.result, path)
    }
}

/// Exports `trace` as `<fnv1a(key)>.trace.json` under `dir`. Failures are
/// counted warnings, not errors: a lost trace never fails the job.
fn write_trace(
    dir: &std::path::Path,
    key: &str,
    trace: &ap_trace::session::Trace,
) -> Option<PathBuf> {
    let path = dir.join(format!("{:016x}.trace.json", fnv1a(key.as_bytes())));
    let json = ap_trace::chrome::export(trace, key);
    match std::fs::write(&path, json) {
        Ok(()) => Some(path),
        Err(e) => {
            ap_trace::warn(
                "trace.write_failed",
                format!("cannot write trace for {key} to {}: {e}", path.display()),
            );
            None
        }
    }
}

struct JobSlot<T> {
    key: String,
    run: Mutex<Option<Box<dyn FnOnce() -> T + Send>>>,
}

pub(crate) fn available_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_submission_order() {
        // Later jobs finish first (earlier ones sleep); order must not change.
        let engine = Engine::new().with_workers(4).with_deadline(None);
        let jobs = (0..12usize)
            .map(|i| {
                Job::new(format!("order/{i}"), move || {
                    std::thread::sleep(Duration::from_millis((12 - i as u64) * 3));
                    i * 10
                })
            })
            .collect();
        let results = engine.run(jobs, None);
        assert_eq!(results.len(), 12);
        for (i, outcome) in results.iter().enumerate() {
            assert_eq!(outcome.key, format!("order/{i}"));
            assert_eq!(outcome.result.as_ref().unwrap(), &(i * 10));
            assert!(!outcome.cache_hit);
        }
    }

    #[test]
    fn empty_batches_are_fine() {
        let engine = Engine::new();
        assert!(engine.run(Vec::<Job<u32>>::new(), None).is_empty());
    }

    #[test]
    fn single_worker_serializes_jobs() {
        let engine = Engine::new().with_workers(1);
        let jobs = (0..5u64).map(|i| Job::new(format!("serial/{i}"), move || i + 1)).collect();
        let results = engine.run(jobs, None);
        assert!(results.iter().all(|o| o.worker == 0));
        assert_eq!(
            results.iter().map(|o| *o.result.as_ref().unwrap()).collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 5]
        );
    }
}

//! `ap-engine` — the experiment-execution engine of the Active Pages
//! reproduction.
//!
//! The paper's evaluation is a large grid of *independent* simulations:
//! every Figure 3/4/5/8/9 point and Table 4 row runs an application on a
//! fresh simulated `System`. This crate is the substrate that executes such
//! grids fast and safely:
//!
//! * **Parallel** — jobs run on the crate's one worker pool, [`Service`];
//!   [`Engine::run`] submits a batch as one client (worker count set by
//!   the caller, default the machine's available parallelism). Results
//!   come back in deterministic *submission* order regardless of
//!   completion order, so output files are byte-identical at any worker
//!   count.
//! * **Fault-isolated** — each job runs under [`std::panic::catch_unwind`]
//!   with a wall-clock watchdog; a panicking or runaway job degrades to a
//!   [`JobError`] entry while sibling jobs complete.
//! * **Cached** — completed results persist to a content-addressed disk
//!   cache ([`DiskCache`]) keyed by job key + caller salt (configuration
//!   fingerprint, crate version), so re-running an evaluation only simulates
//!   points whose inputs changed. A key already running is not run twice:
//!   later jobs with that key attach to it.
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
mod supervise;

pub use cache::{fnv1a, DiskCache};
pub use job::{Codec, Job, JobError, JobOutcome};
pub use service::{Completion, JobId, Service, ServiceConfig, Sessions, SubmitError};

use std::path::PathBuf;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The default per-job wall-clock deadline.
pub const DEFAULT_DEADLINE: Duration = Duration::from_secs(600);

/// The batch front end of [`Service`]. Configure with the builder methods,
/// then call [`Engine::run`] with a batch of jobs.
#[derive(Debug, Clone)]
pub struct Engine {
    /// The pool each run starts, fitted to the batch: `min(workers, jobs)`
    /// workers and room to queue every job.
    service: ServiceConfig,
    progress: bool,
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
        Engine { service: ServiceConfig::default(), progress: false }
    }

    /// Sets the worker count (clamped to at least 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.service.workers = workers.max(1);
        self
    }

    /// Enables the disk cache rooted at `dir`.
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.service.cache = Some(DiskCache::new(dir));
        self
    }

    /// Disables the disk cache.
    pub fn without_cache(mut self) -> Self {
        self.service.cache = None;
        self
    }

    /// Appends manifest lines to the JSONL file at `path`, opened here. A
    /// file that cannot be opened is a counted warning, and runs then write
    /// no manifest.
    pub fn with_manifest(mut self, path: impl Into<PathBuf>) -> Self {
        let path = path.into();
        self.service.manifest = match manifest::Writer::append(&path) {
            Ok(writer) => Some(writer),
            Err(e) => {
                let message = format!("cannot open manifest {}: {e}", path.display());
                ap_trace::warn("manifest.open_failed", message);
                None
            }
        };
        self
    }

    /// Sets (`Some`) or disables (`None`) the per-job wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.service.default_deadline = deadline;
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
        self.service.salt = salt.into();
        self
    }

    /// Records a Chrome trace for every freshly executed job, filtered to
    /// `filter`, one `.trace.json` file per job under `dir`. The filter
    /// applies to each job's own trace session only, so later untraced runs
    /// stay untraced. Tracing never changes simulated cycle counts or cache
    /// keys — it only observes.
    pub fn with_trace_dir(mut self, dir: impl Into<PathBuf>, filter: ap_trace::Filter) -> Self {
        self.service.sessions = Some(Sessions { filter, export: Some(dir.into()) });
        self
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.service.workers
    }

    /// Executes `jobs` and returns one outcome per job, **in submission
    /// order** regardless of completion order.
    ///
    /// The batch runs as one client of a [`Service`] started for it, with
    /// `min(workers, jobs)` workers (each job's page-execution pool gets
    /// cores / workers threads) and room to queue the whole batch. The
    /// service runs each job's sequence: with a `codec`, the cache probe
    /// and store, single-flight on duplicate keys, and the manifest line
    /// with the codec's [`Codec::diag`] counts. Panics and deadline
    /// overruns surface as [`JobError`]s in the affected outcome only.
    pub fn run<T: Send + 'static>(
        &self,
        jobs: Vec<Job<T>>,
        codec: Option<Codec<T>>,
    ) -> Vec<JobOutcome<T>> {
        let total = jobs.len();
        if total == 0 {
            return Vec::new();
        }
        let cfg = ServiceConfig {
            workers: self.service.workers.min(total),
            queue_capacity: total,
            ..self.service.clone()
        };
        let started = Instant::now();
        let service = Service::start(cfg, codec);
        let (tx, rx) = mpsc::channel();
        for (index, job) in jobs.into_iter().enumerate() {
            let tx = tx.clone();
            let on_done = move |done: Completion<T>| {
                let _ = tx.send((index, done.outcome));
            };
            service.submit(0, job, None, on_done).expect("a fresh service queues the whole batch");
        }
        drop(tx);

        let mut results: Vec<Option<JobOutcome<T>>> = (0..total).map(|_| None).collect();
        for done in 1..=total {
            let (index, outcome) = rx.recv().expect("every accepted job completes");
            results[index] = Some(outcome);
            if self.progress {
                let rate = done as f64 / started.elapsed().as_secs_f64().max(1e-9);
                eprint!("\r[{done}/{total}] {rate:.1} jobs/s ");
            }
        }
        if self.progress {
            eprintln!();
        }
        service.shutdown();
        results.into_iter().map(|slot| slot.expect("one outcome per job")).collect()
    }
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

    #[test]
    fn duplicate_keys_in_a_batch_compute_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static RUNS: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!("ap-engine-dup-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let manifest_path = dir.join("manifest.jsonl");
        let engine = Engine::new()
            .with_workers(2)
            .with_cache_dir(dir.join("cache"))
            .with_manifest(&manifest_path);
        let codec =
            Codec::<u64> { encode: |v| v.to_string(), decode: |s| s.parse().ok(), diag: None };
        let jobs = (0..3)
            .map(|_| {
                Job::new("k", || {
                    RUNS.fetch_add(1, Ordering::SeqCst);
                    99u64
                })
            })
            .collect();
        let results = engine.run(jobs, Some(codec));
        assert_eq!(RUNS.load(Ordering::SeqCst), 1, "a duplicate is attached or a disk hit");
        assert!(results.iter().all(|o| o.result == Ok(99)));
        let summary = manifest::summarize(&manifest_path).unwrap();
        assert_eq!((summary.total, summary.cache_misses, summary.cache_hits), (3, 1, 2));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

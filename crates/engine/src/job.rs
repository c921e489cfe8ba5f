//! Job specifications and outcomes.

use std::time::Duration;

/// A named unit of work submitted to the [`Engine`](crate::Engine).
///
/// The closure is the job *spec*: it must be [`Send`] so a worker thread can
/// take it, and it constructs whatever non-`Send` machinery it needs (for the
/// Active Pages harness, a whole `radram::System` of `Rc` internals) inside
/// the worker. The key names the job in results, the manifest and the disk
/// cache, so it must be stable across runs and unique within a batch.
pub struct Job<T> {
    /// Stable identity of this job (cache key and manifest label).
    pub key: String,
    pub(crate) run: Box<dyn FnOnce() -> T + Send>,
}

impl<T> Job<T> {
    /// Creates a job named `key` executing `run` on a worker thread.
    pub fn new(key: impl Into<String>, run: impl FnOnce() -> T + Send + 'static) -> Self {
        Job { key: key.into(), run: Box::new(run) }
    }
}

impl<T> std::fmt::Debug for Job<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job").field("key", &self.key).finish_non_exhaustive()
    }
}

/// Why a job produced no result. Sibling jobs are unaffected: one bad sweep
/// point degrades to an error entry instead of killing the whole run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The job panicked; the payload message is preserved.
    Panicked(String),
    /// The job exceeded the engine's wall-clock deadline and was abandoned.
    TimedOut(Duration),
    /// The job was cancelled while still queued (long-lived
    /// [`Service`](crate::Service) pools only; batch runs never cancel).
    Cancelled,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Panicked(msg) => write!(f, "panicked: {msg}"),
            JobError::TimedOut(d) => write!(f, "timed out after {:.1}s", d.as_secs_f64()),
            JobError::Cancelled => f.write_str("cancelled before execution"),
        }
    }
}

impl std::error::Error for JobError {}

/// One job's result plus its execution record.
#[derive(Debug)]
pub struct JobOutcome<T> {
    /// The job's key, as submitted.
    pub key: String,
    /// The computed (or cache-loaded) value, or why there is none.
    pub result: Result<T, JobError>,
    /// Wall-clock time from the job's pick by a worker to its value being
    /// ready: after the cache probe on a hit, after compute and store on a
    /// miss (near zero on cache hits).
    pub wall: Duration,
    /// Whether the value was served from the disk cache, or shared from a
    /// running job of the same key.
    pub cache_hit: bool,
    /// Index of the worker that processed the job (for a job attached to
    /// a running one of the same key, the worker that ran that job).
    pub worker: usize,
    /// Path of the exported Chrome trace for this job, when the engine ran
    /// with tracing enabled and the job executed fresh (cache hits simulate
    /// nothing, so they carry no trace).
    pub trace: Option<std::path::PathBuf>,
}

/// How to persist job results of type `T` in the disk cache.
///
/// Plain function pointers keep the engine generic without imposing a
/// serialization framework: callers encode to any stable string format they
/// can decode again. `decode` returning `None` (corrupt or outdated entry)
/// is treated as a cache miss and the job re-runs.
pub struct Codec<T> {
    /// Serializes a result for the cache.
    pub encode: fn(&T) -> String,
    /// Deserializes a cached result; `None` forces a re-run.
    pub decode: fn(&str) -> Option<T>,
    /// Optional static-analysis hook: derives diagnostic totals from a
    /// value for the manifest. It runs only where a manifest line is
    /// written, for fresh values *and* cache hits: the counts are not part
    /// of the cached value, so lint-pass changes show up without
    /// invalidating cached simulation results.
    pub diag: Option<fn(&T) -> crate::manifest::DiagCounts>,
}

// Derived impls would bound `T`, which is unnecessary for fn pointers.
impl<T> Clone for Codec<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for Codec<T> {}

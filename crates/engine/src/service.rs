//! The job service: the one worker pool of the crate, and the one place
//! that runs the per-job sequence.
//!
//! Workers outlive any one submission, jobs arrive continuously from
//! independent clients, and an explicit drain ends the pool. The batch
//! [`Engine::run`](crate::Engine::run) is a client of it (one client, one
//! batch), and so is the `apd` daemon (one client per connection).
//!
//! The worker that picks a job runs its whole sequence:
//!
//! 1. **Probe** the disk cache (with a cache and a codec). A hit spawns no
//!    job thread.
//! 2. Otherwise **compute** the job under `supervise`: a dedicated thread,
//!    panic capture and a wall-clock watchdog, so panics and deadline
//!    overruns degrade to a [`JobError`] in that job's completion while the
//!    pool keeps serving. With [`ServiceConfig::sessions`] set the job's
//!    trace session comes back, and is also exported as Chrome trace JSON
//!    when [`Sessions::export`] names a directory.
//! 3. **Store** a fresh value in the cache.
//! 4. Write the job's **manifest** line (with the codec's diag counts on
//!    `ok` lines), and only then call the job's completion callback. One
//!    worker at a time writes lines: a worker that finds another writing
//!    queues its completion for that one and picks its next job instead of
//!    waiting on the fsync.
//!
//! [`JobOutcome::wall`] runs from the pick to the value being ready (after
//! the probe, or after compute and store); the fsynced manifest write is
//! not part of it. A panic in any step outside `supervise` (a codec, the
//! diag hook) fails only that job, with [`JobError::Panicked`], and a
//! panicking callback is a counted warning: the worker survives both.
//!
//! The pool is also:
//!
//! * **Single-flight** (with a codec). A picked job whose key is already
//!   running under the same deadline attaches to the running job as a
//!   waiter, and the worker moves on (a job under another deadline runs
//!   on its own, so every job keeps its own). After the running job's
//!   store, each waiter gets `decode(encoded)` of its value (or a clone of
//!   its [`JobError`]), its own manifest line (`"cache":"hit"` on success)
//!   and its own callback. A waiter counts as running, and waiters are
//!   delivered before the job stops running.
//! * **Fair.** Each client owns its own FIFO queue; workers pick the next
//!   job by round-robin *across clients*, so a client that dumps a
//!   thousand-point sweep cannot starve a client submitting single probes.
//! * **Bounded.** Per-client queues have a fixed capacity; a submit beyond
//!   it is rejected with [`SubmitError::Busy`] instead of growing without
//!   limit — the caller turns that into protocol-level backpressure.
//! * **Cancellable.** A queued job can be cancelled; its completion
//!   callback fires with [`JobError::Cancelled`]. (A *running* or attached
//!   job cannot be killed mid-simulation — its deadline is the backstop.)
//! * **Drainable.** [`drain`](Service::drain) stops intake and blocks
//!   until every accepted job has completed; [`shutdown`](Service::shutdown)
//!   additionally stops and joins the workers.
//!
//! Completions are delivered through a per-job `FnOnce` callback invoked
//! exactly once per accepted job (including cancelled ones): on a worker
//! thread, or on the cancelling thread. Callbacks should be cheap and must
//! not block on the service.

use crate::cache::{fnv1a, DiskCache};
use crate::job::{Codec, Job, JobError, JobOutcome};
use crate::manifest;
use crate::supervise::{panic_message, supervise};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Identity of one accepted job, unique within a [`Service`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Configuration for a [`Service`]. The value codec, the one part that
/// depends on the job type, is passed to [`Service::start`] alongside.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads (clamped to at least 1).
    pub workers: usize,
    /// Maximum queued (not yet running) jobs *per client*.
    pub queue_capacity: usize,
    /// Deadline applied to jobs submitted without their own.
    pub default_deadline: Option<Duration>,
    /// Record a trace session around every computed job and return it in
    /// [`Completion::trace`] (`None`: no session).
    pub sessions: Option<Sessions>,
    /// Disk cache probed before and filled after every computation (used
    /// only with a codec).
    pub cache: Option<DiskCache>,
    /// Folded into every cache key: everything that invalidates results
    /// wholesale (crate version, configuration fingerprint scheme).
    pub salt: String,
    /// Manifest receiving one line per completed job.
    pub manifest: Option<manifest::Writer>,
}

/// The per-job trace sessions a [`Service`] records.
#[derive(Debug, Clone)]
pub struct Sessions {
    /// Subsystems recorded while a job computes.
    pub filter: ap_trace::Filter,
    /// Directory receiving each session as `<fnv1a(key)>.trace.json`
    /// (`None`: not exported); the path lands in [`JobOutcome::trace`] and
    /// the manifest line.
    pub export: Option<PathBuf>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: crate::available_workers(),
            queue_capacity: 256,
            default_deadline: Some(crate::DEFAULT_DEADLINE),
            sessions: None,
            cache: None,
            salt: String::new(),
            manifest: None,
        }
    }
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The client's queue is full; retry after some of it drains.
    Busy {
        /// Jobs currently queued for this client.
        queued: usize,
        /// The per-client queue capacity.
        capacity: usize,
    },
    /// The service is draining for shutdown and takes no new work.
    Draining,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Busy { queued, capacity } => {
                write!(f, "client queue full ({queued}/{capacity})")
            }
            SubmitError::Draining => f.write_str("service is draining"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// One accepted job's terminal record, handed to its completion callback.
#[derive(Debug)]
pub struct Completion<T> {
    /// The service-assigned job id.
    pub id: JobId,
    /// The submitting client.
    pub client: u64,
    /// Time the job spent waiting in its queue.
    pub queued: Duration,
    /// The job's result and execution record (a cancelled job has zero
    /// wall time and worker 0).
    pub outcome: JobOutcome<T>,
    /// The job's finished trace session, when
    /// [`ServiceConfig::sessions`] is set and the job was computed.
    pub trace: Option<ap_trace::session::Trace>,
}

type OnDone<T> = Box<dyn FnOnce(Completion<T>) + Send>;
/// A completion with the callback it goes to.
type Delivery<T> = (Completion<T>, OnDone<T>);
/// What single-flight matches on: a key and the deadline it runs under.
type Flight = (String, Option<Duration>);

struct Pending<T> {
    id: JobId,
    client: u64,
    key: String,
    run: Box<dyn FnOnce() -> T + Send>,
    deadline: Option<Duration>,
    on_done: OnDone<T>,
    enqueued: Instant,
}

struct State<T> {
    /// Per-client FIFO queues. Empty queues linger (clients resubmit);
    /// [`Service::retire_client`] removes one for good.
    queues: BTreeMap<u64, VecDeque<Pending<T>>>,
    /// Round-robin rotation: ids of clients believed to have queued work.
    /// Lazily validated on pick, so stale entries are harmless.
    rotation: VecDeque<u64>,
    /// Keys being run (with a codec only) under their deadline, each with
    /// the jobs attached to it and when they were picked.
    inflight: HashMap<Flight, Vec<(Pending<T>, Instant)>>,
    next_id: u64,
    queued: usize,
    /// Jobs picked and not yet delivered, attached waiters included.
    running: usize,
    draining: bool,
    stop: bool,
}

impl<T> State<T> {
    /// Pops the next job fairly: the first client in the rotation with a
    /// nonempty queue, which then moves to the rotation's back.
    fn pick(&mut self) -> Option<Pending<T>> {
        while let Some(client) = self.rotation.pop_front() {
            if let Some(queue) = self.queues.get_mut(&client) {
                if let Some(job) = queue.pop_front() {
                    if !queue.is_empty() {
                        self.rotation.push_back(client);
                    }
                    self.queued -= 1;
                    return Some(job);
                }
            }
        }
        None
    }
}

struct Shared<T> {
    state: Mutex<State<T>>,
    /// Signaled when work arrives or the pool must re-check stop/drain.
    work_ready: Condvar,
    /// Signaled when a job completes (drain waiters listen here).
    settled: Condvar,
    cfg: ServiceConfig,
    codec: Option<Codec<T>>,
    /// Picked jobs' completions waiting for their manifest line and
    /// callback, in completion order.
    outbox: Mutex<VecDeque<Delivery<T>>>,
    /// Whether a worker holds the delivery turn (see `complete`).
    delivering: AtomicBool,
}

impl<T> Shared<T> {
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// A long-lived worker pool multiplexing jobs from many clients. See the
/// module docs for the per-job sequence and the scheduling, backpressure
/// and shutdown contract.
pub struct Service<T> {
    shared: Arc<Shared<T>>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl<T> std::fmt::Debug for Service<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.shared.lock();
        f.debug_struct("Service")
            .field("workers", &self.shared.cfg.workers)
            .field("queued", &state.queued)
            .field("running", &state.running)
            .field("draining", &state.draining)
            .finish()
    }
}

impl<T: Send + 'static> Service<T> {
    /// Starts the pool: `cfg.workers` threads, idle until jobs arrive.
    /// `codec` enables the cache, the manifest's diag counts and
    /// single-flight; without it every job computes.
    ///
    /// The machine's cores are split between job workers and each job's
    /// in-simulator page-execution pool, so concurrent simulations don't
    /// oversubscribe the host.
    pub fn start(cfg: ServiceConfig, codec: Option<Codec<T>>) -> Service<T> {
        let workers = cfg.workers.max(1);
        active_pages::parallel::set_thread_budget((crate::available_workers() / workers).max(1));
        if let Some(dir) = cfg.sessions.as_ref().and_then(|s| s.export.as_ref()) {
            if let Err(e) = std::fs::create_dir_all(dir) {
                ap_trace::warn(
                    "trace.dir_failed",
                    format!("cannot create trace dir {}: {e}", dir.display()),
                );
            }
        }
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queues: BTreeMap::new(),
                rotation: VecDeque::new(),
                inflight: HashMap::new(),
                next_id: 0,
                queued: 0,
                running: 0,
                draining: false,
                stop: false,
            }),
            work_ready: Condvar::new(),
            settled: Condvar::new(),
            cfg: ServiceConfig { workers, ..cfg },
            codec,
            outbox: Mutex::new(VecDeque::new()),
            delivering: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|index| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("ap-service-{index}"))
                    .spawn(move || {
                        while let Some(job) = shared.next_job() {
                            shared.execute(index, job);
                        }
                    })
                    .expect("spawn service worker")
            })
            .collect();
        Service { shared, workers: Mutex::new(handles) }
    }

    /// Submits `job` for `client`. `deadline` overrides the configured
    /// default (`Some(None)` explicitly disables the watchdog). On success
    /// the job is queued and `on_done` will be called exactly once, on a
    /// worker thread, when the job completes, fails or is cancelled.
    pub fn submit(
        &self,
        client: u64,
        job: Job<T>,
        deadline: Option<Option<Duration>>,
        on_done: impl FnOnce(Completion<T>) + Send + 'static,
    ) -> Result<JobId, SubmitError> {
        let mut state = self.shared.lock();
        if state.draining || state.stop {
            return Err(SubmitError::Draining);
        }
        let queue = state.queues.entry(client).or_default();
        if queue.len() >= self.shared.cfg.queue_capacity {
            return Err(SubmitError::Busy {
                queued: queue.len(),
                capacity: self.shared.cfg.queue_capacity,
            });
        }
        let id = JobId(state.next_id);
        state.next_id += 1;
        let was_empty = {
            let queue = state.queues.get_mut(&client).expect("queue just ensured");
            let was_empty = queue.is_empty();
            queue.push_back(Pending {
                id,
                client,
                key: job.key,
                run: job.run,
                deadline: deadline.unwrap_or(self.shared.cfg.default_deadline),
                on_done: Box::new(on_done),
                enqueued: Instant::now(),
            });
            was_empty
        };
        state.queued += 1;
        if was_empty {
            state.rotation.push_back(client);
        }
        drop(state);
        self.shared.work_ready.notify_one();
        Ok(id)
    }

    /// Cancels a *queued* job: it is removed from its queue and its
    /// callback fires (on this thread) with [`JobError::Cancelled`].
    /// Returns `false` when the job is unknown, already running or done —
    /// running jobs cannot be killed; their deadline is the backstop.
    pub fn cancel(&self, id: JobId) -> bool {
        let removed = {
            let mut state = self.shared.lock();
            let mut found = None;
            for queue in state.queues.values_mut() {
                if let Some(pos) = queue.iter().position(|p| p.id == id) {
                    found = queue.remove(pos);
                    break;
                }
            }
            if found.is_some() {
                state.queued -= 1;
            }
            found
        };
        match removed {
            Some(pending) => {
                self.shared.cancelled(pending);
                self.shared.settled.notify_all();
                true
            }
            None => false,
        }
    }

    /// Drops `client`'s queue entirely, cancelling its queued jobs (their
    /// callbacks fire with [`JobError::Cancelled`]). Call when a client
    /// disconnects; its running jobs still complete normally.
    pub fn retire_client(&self, client: u64) -> usize {
        let dropped = {
            let mut state = self.shared.lock();
            let dropped = state.queues.remove(&client).unwrap_or_default();
            state.queued -= dropped.len();
            dropped
        };
        let n = dropped.len();
        for pending in dropped {
            self.shared.cancelled(pending);
        }
        if n > 0 {
            self.shared.settled.notify_all();
        }
        n
    }

    /// `(queued, running)` job counts, for status endpoints. Jobs attached
    /// to a running job of the same key count as running.
    pub fn load(&self) -> (usize, usize) {
        let state = self.shared.lock();
        (state.queued, state.running)
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.shared.cfg.workers
    }

    /// True once [`drain`](Service::drain) (or shutdown) has begun.
    pub fn draining(&self) -> bool {
        self.shared.lock().draining
    }

    /// Stops intake (further submits fail with [`SubmitError::Draining`])
    /// and blocks until every accepted job has completed. Idempotent.
    pub fn drain(&self) {
        let mut state = self.shared.lock();
        state.draining = true;
        self.shared.work_ready.notify_all();
        while state.queued > 0 || state.running > 0 {
            state =
                self.shared.settled.wait(state).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Drains, then stops and joins the worker threads.
    pub fn shutdown(&self) {
        self.drain();
        {
            let mut state = self.shared.lock();
            state.stop = true;
        }
        self.shared.work_ready.notify_all();
        let handles = std::mem::take(
            &mut *self.workers.lock().unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl<T: Send + 'static> Shared<T> {
    /// Blocks until a job needs this worker (`None` once the pool stops).
    /// A picked job whose key is already running under the same deadline
    /// attaches to it instead, and the worker picks again.
    fn next_job(&self) -> Option<Pending<T>> {
        let mut guard = self.lock();
        loop {
            let state = &mut *guard;
            if state.stop {
                return None;
            }
            let Some(job) = state.pick() else {
                guard =
                    self.work_ready.wait(guard).unwrap_or_else(std::sync::PoisonError::into_inner);
                continue;
            };
            state.running += 1;
            if self.codec.is_none() {
                return Some(job);
            }
            match state.inflight.entry((job.key.clone(), job.deadline)) {
                Entry::Occupied(mut waiters) => waiters.get_mut().push((job, Instant::now())),
                Entry::Vacant(flight) => {
                    flight.insert(Vec::new());
                    return Some(job);
                }
            }
        }
    }

    /// Runs `job`'s whole sequence on worker `worker` (probe, else compute
    /// and store), then delivers every job attached to it and the job
    /// itself.
    fn execute(&self, worker: usize, job: Pending<T>) {
        let picked = Instant::now();
        let Pending { id, client, mut key, run, deadline, on_done, enqueued } = job;
        let cfg = &self.cfg;
        let (result, cache_hit, session, trace) = guarded(|| {
            if let (Some(cache), Some(codec)) = (&cfg.cache, &self.codec) {
                if let Some(value) = cache.load(&key, &cfg.salt, codec) {
                    return (Ok(value), true, None, None);
                }
            }
            let sessions = cfg.sessions.as_ref();
            let session = sessions.map(|s| ap_trace::session::SessionConfig::filtered(s.filter));
            let supervised = supervise(deadline, session, run);
            let trace = match (sessions.and_then(|s| s.export.as_deref()), &supervised.trace) {
                (Some(dir), Some(session)) => write_trace(dir, &key, session),
                _ => None,
            };
            if let (Ok(value), Some(cache), Some(codec)) =
                (&supervised.result, &cfg.cache, &self.codec)
            {
                cache.store(&key, &cfg.salt, value, codec);
            }
            (supervised.result, false, supervised.trace, trace)
        })
        .unwrap_or_else(|e| (Err(e), false, None, None));
        let wall = picked.elapsed();
        if let Some(codec) = &self.codec {
            let flight = (key, deadline);
            let waiters = self.lock().inflight.remove(&flight).unwrap_or_default();
            key = flight.0;
            for (waiter, picked) in waiters {
                let result = match &result {
                    Ok(value) => guarded(|| {
                        (codec.decode)(&(codec.encode)(value)).expect("a codec decodes its output")
                    }),
                    Err(e) => Err(e.clone()),
                };
                let outcome = JobOutcome {
                    key: waiter.key,
                    cache_hit: result.is_ok(),
                    result,
                    wall: picked.elapsed(),
                    worker,
                    trace: None,
                };
                let queued = picked.saturating_duration_since(waiter.enqueued);
                let completion = Completion {
                    id: waiter.id,
                    client: waiter.client,
                    queued,
                    outcome,
                    trace: None,
                };
                self.complete(completion, waiter.on_done);
            }
        }
        let outcome = JobOutcome { key, result, wall, cache_hit, worker, trace };
        let queued = picked.saturating_duration_since(enqueued);
        self.complete(Completion { id, client, queued, outcome, trace: session }, on_done);
    }

    /// Queues a picked job's completion, then delivers queued ones while
    /// this worker can take the delivery turn (module docs, step 4), giving
    /// the turn up before each callback so another worker can write lines.
    fn complete(&self, completion: Completion<T>, on_done: OnDone<T>) {
        self.outbox().push_back((completion, on_done));
        while !self.outbox().is_empty()
            && self.delivering.compare_exchange(false, true, SeqCst, SeqCst).is_ok()
        {
            let next = self.outbox().pop_front();
            if let Some((completion, _)) = &next {
                self.record(completion);
            }
            self.delivering.store(false, SeqCst);
            if let Some((completion, on_done)) = next {
                call(on_done, completion);
                self.lock().running -= 1;
                self.settled.notify_all();
            }
        }
    }

    fn outbox(&self) -> MutexGuard<'_, VecDeque<Delivery<T>>> {
        self.outbox.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Delivers a cancelled job: its manifest line, then its callback.
    fn cancelled(&self, job: Pending<T>) {
        let outcome = JobOutcome {
            key: job.key,
            result: Err(JobError::Cancelled),
            wall: Duration::ZERO,
            cache_hit: false,
            worker: 0,
            trace: None,
        };
        let queued = job.enqueued.elapsed();
        let completion =
            Completion { id: job.id, client: job.client, queued, outcome, trace: None };
        self.record(&completion);
        call(job.on_done, completion);
    }

    /// Writes `completion`'s manifest line, with diag counts on `ok` lines.
    fn record(&self, completion: &Completion<T>) {
        if let Some(writer) = &self.cfg.manifest {
            let diag = match (&self.codec, &completion.outcome.result) {
                (Some(codec), Ok(value)) => {
                    codec.diag.and_then(|diag| guarded(|| diag(value)).ok())
                }
                _ => None,
            };
            writer.record(&manifest::Entry::of(&completion.outcome, diag));
        }
    }
}

/// Hands `completion` to `on_done`; a panicking callback is a counted
/// warning, so it takes no pool thread down.
fn call<T>(on_done: OnDone<T>, completion: Completion<T>) {
    if let Err(e) = guarded(|| on_done(completion)) {
        ap_trace::warn("service.callback_panicked", format!("a completion callback {e}"));
    }
}

/// Runs `f`, turning a panic into [`JobError::Panicked`].
fn guarded<R>(f: impl FnOnce() -> R) -> Result<R, JobError> {
    std::panic::catch_unwind(AssertUnwindSafe(f))
        .map_err(|payload| JobError::Panicked(panic_message(&*payload)))
}

/// Exports `trace` as `<fnv1a(key)>.trace.json` under `dir`. Failures are
/// counted warnings, not errors: a lost trace never fails the job.
fn write_trace(dir: &Path, key: &str, trace: &ap_trace::session::Trace) -> Option<PathBuf> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn quick_cfg(workers: usize) -> ServiceConfig {
        ServiceConfig {
            workers,
            queue_capacity: 16,
            default_deadline: Some(Duration::from_secs(30)),
            ..ServiceConfig::default()
        }
    }

    /// Spins until `service` has at least `n` jobs running.
    fn wait_running<T: Send + 'static>(service: &Service<T>, n: usize) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while service.load().1 < n {
            assert!(Instant::now() < deadline, "worker never started the gate job");
            std::thread::yield_now();
        }
    }

    /// Submits a job whose completion lands in `tx`.
    fn send_done<T: Send + 'static>(
        tx: &mpsc::Sender<Completion<T>>,
    ) -> impl FnOnce(Completion<T>) + Send + 'static {
        let tx = tx.clone();
        move |c| {
            let _ = tx.send(c);
        }
    }

    #[test]
    fn round_robin_interleaves_clients() {
        // One worker, two clients with 3 queued jobs each (queued while the
        // worker is blocked on a gate job): execution must alternate A,B.
        let service = Service::start(quick_cfg(1), None);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (tx, rx) = mpsc::channel();
        service
            .submit(
                99,
                Job::new("gate", move || {
                    gate_rx.recv().unwrap();
                }),
                None,
                |_| {},
            )
            .unwrap();
        wait_running(&service, 1);
        for i in 0..3 {
            for client in [1u64, 2u64] {
                service
                    .submit(client, Job::new(format!("c{client}/{i}"), || {}), None, send_done(&tx))
                    .unwrap();
            }
        }
        gate_tx.send(()).unwrap();
        let order: Vec<u64> = (0..6).map(|_| rx.recv().unwrap().client).collect();
        assert_eq!(order, vec![1, 2, 1, 2, 1, 2], "strict per-client alternation");
        service.shutdown();
    }

    #[test]
    fn bounded_queues_reject_with_busy() {
        let cfg = ServiceConfig { queue_capacity: 2, ..quick_cfg(1) };
        let service = Service::start(cfg, None);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        service
            .submit(
                7,
                Job::new("gate", move || {
                    gate_rx.recv().unwrap();
                }),
                None,
                |_| {},
            )
            .unwrap();
        // The worker holds the gate job; two more fit in the queue.
        wait_running(&service, 1);
        service.submit(7, Job::new("a", || {}), None, |_| {}).unwrap();
        service.submit(7, Job::new("b", || {}), None, |_| {}).unwrap();
        match service.submit(7, Job::new("c", || {}), None, |_| {}) {
            Err(SubmitError::Busy { queued: 2, capacity: 2 }) => {}
            other => panic!("expected Busy, got {other:?}"),
        }
        // Another client is unaffected by client 7's full queue.
        service.submit(8, Job::new("d", || {}), None, |_| {}).unwrap();
        gate_tx.send(()).unwrap();
        service.shutdown();
    }

    #[test]
    fn queued_jobs_cancel_running_jobs_do_not() {
        let service = Service::start(quick_cfg(1), None);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (tx, rx) = mpsc::channel();
        let running = service
            .submit(
                1,
                Job::new("gate", move || {
                    gate_rx.recv().unwrap();
                    1u32
                }),
                None,
                send_done(&tx),
            )
            .unwrap();
        // The worker must take the gate job off the queue first.
        wait_running(&service, 1);
        let queued = service.submit(1, Job::new("victim", || 2u32), None, send_done(&tx)).unwrap();
        assert!(!service.cancel(running), "running jobs cannot be cancelled");
        assert!(service.cancel(queued), "queued jobs can");
        assert!(!service.cancel(queued), "cancel is not repeatable");
        gate_tx.send(()).unwrap();
        let mut results: Vec<(JobId, Result<u32, JobError>)> =
            (0..2).map(|_| rx.recv().unwrap()).map(|c| (c.id, c.outcome.result)).collect();
        results.sort_by_key(|(id, _)| *id);
        assert_eq!(results[0].0, running);
        assert_eq!(results[0].1.as_ref().unwrap(), &1);
        assert_eq!(results[1].0, queued);
        assert_eq!(results[1].1, Err(JobError::Cancelled));
        service.shutdown();
    }

    #[test]
    fn drain_blocks_until_empty_and_rejects_new_work() {
        let service = Arc::new(Service::start(quick_cfg(2), None));
        let (tx, rx) = mpsc::channel();
        for i in 0..6 {
            service
                .submit(
                    1,
                    Job::new(format!("j{i}"), move || {
                        std::thread::sleep(Duration::from_millis(10));
                        i
                    }),
                    None,
                    send_done(&tx),
                )
                .unwrap();
        }
        service.drain();
        assert_eq!(service.load(), (0, 0), "drain returns only when idle");
        assert_eq!(rx.try_iter().count(), 6, "every accepted job completed");
        assert!(matches!(
            service.submit(1, Job::new("late", || 0usize), None, |_| {}),
            Err(SubmitError::Draining)
        ));
        service.shutdown();
    }

    #[test]
    fn per_job_deadlines_and_panics_are_isolated() {
        let service = Service::start(quick_cfg(2), None);
        let (tx, rx) = mpsc::channel();
        service
            .submit(
                1,
                Job::new("slow", || {
                    std::thread::sleep(Duration::from_secs(10));
                    0u32
                }),
                Some(Some(Duration::from_millis(30))),
                send_done(&tx),
            )
            .unwrap();
        service
            .submit(1, Job::new("bad", || panic!("injected") as u32), None, send_done(&tx))
            .unwrap();
        service.submit(1, Job::new("good", || 7u32), None, send_done(&tx)).unwrap();
        let mut by_key = std::collections::BTreeMap::new();
        for _ in 0..3 {
            let c = rx.recv().unwrap();
            by_key.insert(c.outcome.key, c.outcome.result);
        }
        assert!(matches!(by_key["slow"], Err(JobError::TimedOut(_))));
        assert!(matches!(by_key["bad"], Err(JobError::Panicked(_))));
        assert_eq!(by_key["good"].as_ref().unwrap(), &7);
        service.shutdown();
    }

    #[test]
    fn retire_client_cancels_only_that_clients_queue() {
        let service = Service::start(quick_cfg(1), None);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (tx, rx) = mpsc::channel();
        service
            .submit(
                9,
                Job::new("gate", move || {
                    gate_rx.recv().unwrap();
                }),
                None,
                |_| {},
            )
            .unwrap();
        wait_running(&service, 1);
        service.submit(1, Job::new("a1", || {}), None, send_done(&tx)).unwrap();
        service.submit(1, Job::new("a2", || {}), None, send_done(&tx)).unwrap();
        service.submit(2, Job::new("b1", || {}), None, send_done(&tx)).unwrap();
        assert_eq!(service.retire_client(1), 2);
        gate_tx.send(()).unwrap();
        let mut outcomes: Vec<(String, bool)> = (0..3)
            .map(|_| rx.recv().unwrap())
            .map(|c| (c.outcome.key, c.outcome.result.is_ok()))
            .collect();
        outcomes.sort();
        assert_eq!(outcomes, vec![("a1".into(), false), ("a2".into(), false), ("b1".into(), true)]);
        service.shutdown();
    }

    #[test]
    fn sessions_flow_back_when_enabled() {
        let sessions = Sessions { filter: ap_trace::Filter::NONE, export: None };
        let cfg = ServiceConfig { sessions: Some(sessions), ..quick_cfg(1) };
        let service = Service::start(cfg, None);
        let (tx, rx) = mpsc::channel();
        service
            .submit(
                1,
                Job::new("counted", || {
                    ap_trace::session::count("svc.test", 5);
                    0u8
                }),
                None,
                send_done(&tx),
            )
            .unwrap();
        let c = rx.recv().unwrap();
        let trace = c.trace.expect("session collected");
        assert_eq!(trace.counters.iter().find(|x| x.name == "svc.test").unwrap().value(), 5);
        service.shutdown();
    }

    #[test]
    fn a_running_key_is_computed_once_for_every_client() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static SECOND_RUNS: AtomicUsize = AtomicUsize::new(0);
        let codec =
            Codec::<u32> { encode: |v| v.to_string(), decode: |s| s.parse().ok(), diag: None };
        let service = Service::start(quick_cfg(2), Some(codec));
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (tx, rx) = mpsc::channel();
        let gated = Job::new("k", move || {
            gate_rx.recv().unwrap();
            42u32
        });
        service.submit(1, gated, None, send_done(&tx)).unwrap();
        wait_running(&service, 1);
        let duplicate = Job::new("k", || {
            SECOND_RUNS.fetch_add(1, Ordering::SeqCst);
            7u32
        });
        service.submit(2, duplicate, None, send_done(&tx)).unwrap();
        // The second worker picks the duplicate and attaches it to the
        // running job instead of computing it.
        wait_running(&service, 2);
        gate_tx.send(()).unwrap();
        let done: Vec<Completion<u32>> = (0..2).map(|_| rx.recv().unwrap()).collect();
        for c in &done {
            assert_eq!(c.outcome.result, Ok(42), "client {}", c.client);
        }
        assert_eq!(SECOND_RUNS.load(Ordering::SeqCst), 0, "the duplicate never ran");
        assert_eq!(done.iter().filter(|c| !c.outcome.cache_hit).count(), 1);
        service.shutdown();
    }

    #[test]
    fn completions_queued_behind_a_manifest_write_are_all_delivered() {
        let path = std::env::temp_dir().join(format!("ap-service-queue-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let writer = manifest::Writer::append(&path).unwrap();
        let service =
            Service::start(ServiceConfig { manifest: Some(writer), ..quick_cfg(4) }, None);
        let (tx, rx) = mpsc::channel();
        for i in 0..24u32 {
            let job = Job::new(format!("j{i}"), move || i);
            service.submit(u64::from(i % 3), job, None, send_done(&tx)).unwrap();
        }
        service.drain();
        assert_eq!(rx.try_iter().count(), 24, "every accepted job delivered by drain");
        assert_eq!(manifest::summarize(&path).unwrap().total, 24);
        service.shutdown();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_running_key_under_another_deadline_runs_on_its_own() {
        let codec =
            Codec::<u32> { encode: |v| v.to_string(), decode: |s| s.parse().ok(), diag: None };
        let service = Service::start(quick_cfg(2), Some(codec));
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (tx, rx) = mpsc::channel();
        let gated = Job::new("k", move || {
            gate_rx.recv().unwrap();
            42u32
        });
        service.submit(1, gated, None, send_done(&tx)).unwrap();
        wait_running(&service, 1);
        // Same key, shorter deadline: attaching would hand this job the
        // other run's deadline, so it computes on the second worker while
        // the first run is still gated.
        let other = Job::new("k", || 7u32);
        service.submit(2, other, Some(Some(Duration::from_secs(20))), send_done(&tx)).unwrap();
        let first = rx.recv().unwrap();
        assert_eq!((first.client, first.outcome.cache_hit), (2, false));
        assert_eq!(first.outcome.result, Ok(7));
        gate_tx.send(()).unwrap();
        let second = rx.recv().unwrap();
        assert_eq!((second.client, second.outcome.result), (1, Ok(42)));
        service.shutdown();
    }

    #[test]
    fn codec_and_callback_panics_fail_only_their_job() {
        let dir = std::env::temp_dir().join(format!("ap-service-panics-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let codec = Codec::<u32> {
            encode: |_| panic!("injected encode panic"),
            decode: |s| s.parse().ok(),
            diag: None,
        };
        let cfg = ServiceConfig { cache: Some(DiskCache::new(&dir)), ..quick_cfg(1) };
        let service = Service::start(cfg, Some(codec));
        let (tx, rx) = mpsc::channel();
        service.submit(1, Job::new("stored", || 1u32), None, send_done(&tx)).unwrap();
        service.submit(1, Job::new("loud", || 2u32), None, |_| panic!("injected")).unwrap();
        service.drain();
        assert_eq!(service.load(), (0, 0), "every accepted job completed");
        match rx.recv().unwrap().outcome.result {
            Err(JobError::Panicked(msg)) => assert!(msg.contains("injected encode panic")),
            other => panic!("expected the store's panic, got {other:?}"),
        }
        service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

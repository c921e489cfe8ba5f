//! The daemon: a TCP listener multiplexing many clients onto one shared
//! [`ap_engine::Service`] pool.
//!
//! One socket speaks two things, distinguished by sniffing the first bytes
//! of a connection:
//!
//! * anything starting `GET ` is a one-shot **HTTP** request — `/healthz`,
//!   `/metrics` (Prometheus text) or `/jobs` (JSON), answered and closed;
//! * everything else is the newline-delimited JSON **line protocol** of
//!   [`crate::proto`], one long-lived connection per client.
//!
//! Every request, hit or miss, is submitted to one process-wide service
//! pool shared by all clients (fair round-robin across clients, bounded
//! per-client queues). The pool runs each job's whole sequence: the probe
//! of the content-addressed disk cache (salted with
//! [`ap_bench::runner::harness_salt`], so entries are interchangeable with
//! local `experiments` runs), the simulation, the store, and the fsynced
//! JSONL manifest line; a point already running for another client is
//! simulated once for both. This module adds the protocol, the `/jobs`
//! table and the [`ap_trace::Registry`] that `/metrics` scrapes.

use crate::proto::{FrameError, Outcome, Request, Response, WireSpec, MAX_FRAME};
use ap_apps::RunReport;
use ap_bench::runner::{harness_salt, report_codec, RunSpec};
use ap_engine::manifest;
use ap_engine::{
    Completion, DiskCache, Job, JobError, JobId, Service, ServiceConfig, Sessions, SubmitError,
};
use ap_trace::Registry;
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Suggested client backoff when a queue-full submit is rejected.
const BUSY_RETRY_MS: u64 = 200;
/// Suggested client backoff when the daemon is draining (it will not
/// recover, but a retry loop then fails fast on the closed socket).
const DRAINING_RETRY_MS: u64 = 1000;
/// Terminal job records kept for `/jobs` before the oldest are pruned.
const DONE_HISTORY: usize = 256;
/// How long one frame write may block on a peer that stopped reading.
/// `done` frames are written on pool workers, so a stalled peer is cut off
/// rather than allowed to hold a worker (and, through its frame lock,
/// every worker that finishes one of its jobs).
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Simulation worker threads (`None`: one per core, split with each
    /// job's page-executor pool).
    pub workers: Option<usize>,
    /// Maximum queued jobs per client before submits are rejected.
    pub queue_capacity: usize,
    /// Default per-job deadline (individual submits may override).
    pub default_deadline: Option<Duration>,
    /// Shared result-cache directory (`None` disables caching).
    pub cache_dir: Option<PathBuf>,
    /// JSONL manifest path (`None` disables the manifest).
    pub manifest: Option<PathBuf>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: None,
            queue_capacity: 256,
            default_deadline: Some(ap_engine::DEFAULT_DEADLINE),
            cache_dir: None,
            manifest: None,
        }
    }
}

/// What `/jobs` reports about one accepted job.
#[derive(Debug, Clone)]
struct JobRecord {
    client: u64,
    key: String,
    /// `"active"` until the job's terminal outcome tag replaces it.
    state: &'static str,
}

/// Shared daemon state: everything a connection thread or a service-side
/// completion callback touches.
struct Daemon {
    service: Service<RunReport>,
    registry: Registry,
    jobs: Mutex<JobTable>,
    next_client: AtomicU64,
    stopping: AtomicBool,
    addr: SocketAddr,
}

#[derive(Default)]
struct JobTable {
    records: HashMap<u64, JobRecord>,
    /// Terminal job ids in completion order, for pruning.
    done: VecDeque<u64>,
}

/// A running daemon instance. Dropping the handle does **not** stop it;
/// call [`stop`](Server::stop) (tests) or let a protocol `shutdown`
/// request end it (production), then [`wait`](Server::wait).
pub struct Server {
    daemon: Arc<Daemon>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server").field("addr", &self.daemon.addr).finish_non_exhaustive()
    }
}

impl Server {
    /// Binds, starts the worker pool and the accept loop, and returns
    /// immediately. The daemon then serves until a `shutdown` request (or
    /// [`stop`](Server::stop)) drains it.
    pub fn start(cfg: DaemonConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let manifest = match &cfg.manifest {
            Some(path) => Some(manifest::Writer::append(path)?),
            None => None,
        };
        let service = Service::start(
            ServiceConfig {
                workers: cfg.workers.unwrap_or_else(|| {
                    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
                }),
                queue_capacity: cfg.queue_capacity,
                default_deadline: cfg.default_deadline,
                sessions: Some(Sessions { filter: ap_trace::Filter::NONE, export: None }),
                cache: cfg.cache_dir.map(DiskCache::new),
                salt: harness_salt(),
                manifest,
            },
            Some(report_codec()),
        );
        let daemon = Arc::new(Daemon {
            service,
            registry: Registry::new(),
            jobs: Mutex::new(JobTable::default()),
            next_client: AtomicU64::new(1),
            stopping: AtomicBool::new(false),
            addr,
        });
        let accept = {
            let daemon = daemon.clone();
            std::thread::Builder::new()
                .name("apd-accept".to_string())
                .spawn(move || accept_loop(&listener, &daemon))
                .expect("spawn accept loop")
        };
        Ok(Server { daemon, accept: Some(accept) })
    }

    /// The bound address (with the real port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.daemon.addr
    }

    /// The process-wide metrics registry (what `/metrics` renders).
    pub fn registry(&self) -> &Registry {
        &self.daemon.registry
    }

    /// Initiates the same graceful shutdown a protocol `shutdown` request
    /// does — drain in-flight jobs, stop intake — and blocks until the
    /// accept loop has exited. Idempotent.
    pub fn stop(&mut self) {
        begin_shutdown(&self.daemon);
        self.wait();
    }

    /// Blocks until the daemon has shut down (via [`stop`](Server::stop)
    /// or a client's `shutdown` request).
    pub fn wait(&mut self) {
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

/// Drains the pool and unblocks the accept loop. Safe to call from any
/// thread, any number of times.
fn begin_shutdown(daemon: &Daemon) {
    daemon.service.drain();
    if !daemon.stopping.swap(true, Ordering::SeqCst) {
        // The accept loop is blocked in `accept`; a throwaway self-connect
        // wakes it to observe `stopping`.
        let _ = TcpStream::connect(daemon.addr);
    }
}

fn accept_loop(listener: &TcpListener, daemon: &Arc<Daemon>) {
    for stream in listener.incoming() {
        if daemon.stopping.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let daemon = daemon.clone();
        let _ = std::thread::Builder::new()
            .name("apd-conn".to_string())
            .spawn(move || serve_connection(stream, &daemon));
    }
}

/// Sniffs the first bytes of `stream` and dispatches to HTTP or the line
/// protocol.
fn serve_connection(stream: TcpStream, daemon: &Arc<Daemon>) {
    use std::io::Read as _;
    // Replies are small frames; without this, a frame written while the
    // previous one is unacknowledged waits out the peer's delayed ACK.
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let Ok(write_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(stream);
    // Read exactly 4 bytes to recognize an HTTP GET, then chain them back
    // in front of the stream so neither handler sees a gap. (Any valid
    // first frame of either protocol is longer than 4 bytes, so this
    // blocks only on peers that would have stalled anyway.)
    let mut prefix = [0u8; 4];
    if reader.read_exact(&mut prefix).is_err() {
        return; // EOF before a recognizable preamble
    }
    let mut reader = BufReader::new((&prefix[..]).chain(reader));
    if &prefix == b"GET " {
        serve_http(&mut reader, write_half, daemon);
    } else {
        serve_client(&mut reader, write_half, daemon);
    }
}

// ---------------------------------------------------------------- protocol

/// Serializes response frames onto one connection. The lock also orders
/// frames: a submit holds it across `Service::submit` and the `accepted`
/// write, so a fast job's `done` (written by the completion callback) can never
/// overtake its own `accepted`.
#[derive(Clone)]
struct FrameWriter {
    stream: Arc<Mutex<TcpStream>>,
}

impl FrameWriter {
    fn new(stream: TcpStream) -> FrameWriter {
        FrameWriter { stream: Arc::new(Mutex::new(stream)) }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TcpStream> {
        self.stream.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn send(&self, response: &Response) {
        write_frame(&mut self.lock(), response);
    }
}

/// Writes one frame to an already-locked connection. A dead peer is
/// normal (client crashed mid-sweep); the frame is silently dropped. A
/// failed write (a dead peer, or one that stopped reading for
/// [`WRITE_TIMEOUT`]) closes the connection: later writes fail at once,
/// and the reader sees the end of the stream and retires the client.
fn write_frame(stream: &mut TcpStream, response: &Response) {
    if stream.write_all(format!("{}\n", response.encode()).as_bytes()).is_err() {
        let _ = stream.shutdown(std::net::Shutdown::Both);
    }
}

/// Discards input up to the next newline (or EOF, or `cap` bytes).
fn drain_line(reader: &mut impl BufRead, cap: usize) {
    let mut seen = 0usize;
    while seen < cap {
        let Ok(buf) = reader.fill_buf() else { return };
        if buf.is_empty() {
            return;
        }
        if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            reader.consume(pos + 1);
            return;
        }
        let len = buf.len();
        seen += len;
        reader.consume(len);
    }
}

fn serve_client(reader: &mut impl BufRead, stream: TcpStream, daemon: &Arc<Daemon>) {
    let client = daemon.next_client.fetch_add(1, Ordering::Relaxed);
    daemon.registry.add("apd.connections", 1);
    let writer = FrameWriter::new(stream);
    loop {
        let line = match crate::proto::read_frame(reader) {
            Ok(line) => line,
            Err(FrameError::Closed) => break,
            Err(FrameError::Oversized) => {
                daemon.registry.add("apd.protocol_errors", 1);
                writer.send(&Response::Error { message: FrameError::Oversized.to_string() });
                // The stream is mid-frame with no way to resync, so the
                // connection closes — but first drain (bounded) what the
                // peer already sent. Closing with unread bytes in the
                // receive buffer resets the connection, which would destroy
                // the error frame before the peer can read it.
                drain_line(reader, 64 * MAX_FRAME);
                break;
            }
            Err(FrameError::Io(_)) => break,
        };
        if line.trim().is_empty() {
            continue;
        }
        let request = match Request::decode(&line) {
            Ok(request) => request,
            Err(message) => {
                daemon.registry.add("apd.protocol_errors", 1);
                writer.send(&Response::Error { message });
                continue; // framing is intact; the connection stays usable
            }
        };
        daemon.registry.add("apd.requests", 1);
        match request {
            Request::Ping => writer.send(&Response::Pong),
            Request::Status => {
                let (queued, running) = daemon.service.load();
                writer.send(&Response::Status {
                    queued: queued as u64,
                    running: running as u64,
                    workers: daemon.service.workers() as u64,
                    draining: daemon.service.draining(),
                });
            }
            Request::Submit { spec, deadline_ms } => {
                handle_submit(daemon, &writer, client, &spec, deadline_ms);
            }
            Request::Cancel { job } => {
                let ok = daemon.service.cancel(JobId(job));
                writer.send(&Response::Cancelled { job, ok });
            }
            Request::Shutdown => {
                // Drain first so the confirmation truthfully means "all
                // in-flight jobs finished", and write the frame before
                // unblocking the accept loop: the binary's `main` exits as
                // soon as the accept thread joins, which would race an
                // unsent frame.
                daemon.service.drain();
                writer.send(&Response::ShuttingDown);
                begin_shutdown(daemon);
                return; // no retire: the drain already completed everything
            }
        }
    }
    // Client gone: cancel its queued jobs so they stop occupying the pool.
    daemon.service.retire_client(client);
}

fn handle_submit(
    daemon: &Arc<Daemon>,
    writer: &FrameWriter,
    client: u64,
    spec: &WireSpec,
    deadline_ms: Option<u64>,
) {
    let run_spec =
        RunSpec::new(spec.app, spec.kind, spec.pages, spec.config()).with_mode(spec.mode);
    let key = run_spec.key();
    let job = Job::new(key.clone(), move || run_spec.execute());
    let deadline = deadline_ms.map(|ms| Some(Duration::from_millis(ms)));
    let on_done = {
        let daemon = daemon.clone();
        let writer = writer.clone();
        move |completion: Completion<RunReport>| complete_job(&daemon, &writer, completion)
    };
    // Hold the frame lock across submit, the `/jobs` record and the
    // `accepted` write: the job's `done` (written by the completion callback,
    // which needs the same lock) can then overtake neither the frame nor
    // the "active" record.
    let mut frames = writer.lock();
    match daemon.service.submit(client, job, deadline, on_done) {
        Ok(id) => {
            daemon.registry.add("apd.jobs_accepted", 1);
            record_job(daemon, id.0, client, &key, "active");
            write_frame(&mut frames, &Response::Accepted { job: id.0, key });
        }
        Err(err) => {
            daemon.registry.add("apd.jobs_rejected", 1);
            let (reason, retry_after_ms) = match err {
                SubmitError::Busy { .. } => ("busy", BUSY_RETRY_MS),
                SubmitError::Draining => ("draining", DRAINING_RETRY_MS),
            };
            let reason = reason.to_string();
            write_frame(&mut frames, &Response::Rejected { reason, retry_after_ms });
        }
    }
}

/// Completion: account, record, notify. Runs on a service thread (or the
/// canceller's), exactly once per accepted job, after the service has
/// stored its value and written its manifest line.
fn complete_job(daemon: &Daemon, writer: &FrameWriter, completion: Completion<RunReport>) {
    let outcome = &completion.outcome;
    let wall_ms = outcome.wall.as_secs_f64() * 1e3;
    let result = match &outcome.result {
        Ok(_) => {
            daemon.registry.add("apd.jobs_completed", 1);
            let served = if outcome.cache_hit { "apd.cache_hits" } else { "apd.cache_misses" };
            daemon.registry.add(served, 1);
            Outcome::Ok
        }
        Err(JobError::Panicked(msg)) => {
            daemon.registry.add("apd.jobs_failed", 1);
            Outcome::Panicked(msg.clone())
        }
        Err(JobError::TimedOut(d)) => {
            daemon.registry.add("apd.jobs_failed", 1);
            Outcome::TimedOut(d.as_millis() as u64)
        }
        Err(JobError::Cancelled) => {
            daemon.registry.add("apd.jobs_cancelled", 1);
            Outcome::Cancelled
        }
    };
    daemon.registry.observe("apd.job_wall_ms", wall_ms as u64);
    daemon.registry.observe("apd.job_queued_ms", completion.queued.as_millis() as u64);
    if let Some(trace) = &completion.trace {
        daemon.registry.absorb(trace);
    }
    let state = result.tag();
    let done = Response::Done {
        job: completion.id.0,
        key: outcome.key.clone(),
        cache_hit: outcome.cache_hit,
        wall_ms: wall_ms as u64,
        report: outcome.result.as_ref().ok().map(report_codec().encode),
        outcome: result,
    };
    // The terminal record goes in under the frame lock, after the
    // submitter's "active" record.
    let mut frames = writer.lock();
    record_job(daemon, completion.id.0, completion.client, &outcome.key, state);
    write_frame(&mut frames, &done);
}

/// Inserts or updates the `/jobs` record for `job_id`. Terminal states
/// enter the pruning queue; the table keeps at most [`DONE_HISTORY`] of
/// them.
fn record_job(daemon: &Daemon, job_id: u64, client: u64, key: &str, state: &'static str) {
    let mut table = daemon.jobs.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let record = table.records.entry(job_id).or_insert_with(|| JobRecord {
        client,
        key: key.to_string(),
        state,
    });
    record.state = state;
    if state != "active" {
        table.done.push_back(job_id);
        while table.done.len() > DONE_HISTORY {
            if let Some(old) = table.done.pop_front() {
                table.records.remove(&old);
            }
        }
    }
}

// -------------------------------------------------------------------- http

fn serve_http(reader: &mut impl BufRead, mut stream: TcpStream, daemon: &Arc<Daemon>) {
    daemon.registry.add("apd.http_requests", 1);
    let mut request_line = String::new();
    if reader.read_line(&mut request_line).is_err() {
        return;
    }
    // Drain headers so a keep-alive-minded client sees a clean close.
    loop {
        let mut header = String::new();
        match reader.read_line(&mut header) {
            Ok(0) => break,
            Ok(_) if header.trim().is_empty() => break,
            Ok(_) => {}
            Err(_) => return,
        }
    }
    let path = request_line.split_whitespace().nth(1).unwrap_or("/");
    let (status, content_type, body) = match path {
        "/healthz" => ("200 OK", "text/plain", "ok\n".to_string()),
        "/metrics" => ("200 OK", "text/plain; version=0.0.4", render_metrics(daemon)),
        "/jobs" => ("200 OK", "application/json", render_jobs(daemon)),
        _ => ("404 Not Found", "text/plain", format!("no such endpoint {path}\n")),
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    let _ = stream.write_all(response.as_bytes());
}

/// Renders the registry plus live pool gauges in Prometheus text format.
/// Metric names are the registry names with `.` mapped to `_` (Prometheus
/// forbids dots); histograms render as native cumulative-bucket histograms.
fn render_metrics(daemon: &Daemon) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(4096);
    let (queued, running) = daemon.service.load();
    for (name, value) in [
        ("apd_queued_jobs", queued as u64),
        ("apd_running_jobs", running as u64),
        ("apd_workers", daemon.service.workers() as u64),
        ("apd_draining", u64::from(daemon.service.draining())),
    ] {
        let _ = writeln!(out, "# TYPE {name} gauge\n{name} {value}");
    }
    let pool = active_pages::parallel::pool_stats();
    for (name, value) in [
        ("ap_page_pool_batches", pool.batches),
        ("ap_page_pool_reuses", pool.reuses),
        ("ap_page_pool_threads_spawned", pool.threads_spawned),
    ] {
        let _ = writeln!(out, "# TYPE {name} counter\n{name} {value}");
    }
    let snapshot = daemon.registry.snapshot();
    for counter in &snapshot.counters {
        let name = metric_name(counter.name);
        let _ = writeln!(out, "# TYPE {name} counter\n{name} {}", counter.value());
    }
    for histogram in &snapshot.histograms {
        let name = metric_name(histogram.name);
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cumulative = 0u64;
        for (limit, count) in histogram.nonzero_buckets() {
            cumulative += count;
            let _ = writeln!(out, "{name}_bucket{{le=\"{limit}\"}} {cumulative}");
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", histogram.count());
        let _ = writeln!(out, "{name}_sum {}", histogram.sum());
        let _ = writeln!(out, "{name}_count {}", histogram.count());
    }
    out
}

fn metric_name(name: &str) -> String {
    name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect()
}

fn render_jobs(daemon: &Daemon) -> String {
    use crate::json::{n, obj, s, Value};
    let table = daemon.jobs.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut ids: Vec<u64> = table.records.keys().copied().collect();
    ids.sort_unstable();
    let jobs: Vec<Value> = ids
        .into_iter()
        .map(|id| {
            let r = &table.records[&id];
            obj([
                ("job", n(id)),
                ("client", n(r.client)),
                ("key", s(r.key.clone())),
                ("state", s(r.state)),
            ])
        })
        .collect();
    let mut doc = obj([("jobs", Value::Arr(jobs))]);
    if let Value::Obj(map) = &mut doc {
        let (queued, running) = daemon.service.load();
        map.insert("queued".to_string(), n(queued as u64));
        map.insert("running".to_string(), n(running as u64));
    }
    let mut text = doc.to_json();
    text.push('\n');
    text
}

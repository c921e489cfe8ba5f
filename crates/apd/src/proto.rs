//! The `apd` line protocol: framing and message types.
//!
//! One connection speaks newline-delimited JSON — each frame is a single
//! JSON object on one line, at most [`MAX_FRAME`] bytes including the
//! newline. The client sends [`Request`]s; the daemon answers each with one
//! [`Response`] *and* pushes one asynchronous [`Response::Done`] per
//! accepted job when it completes. Frames never interleave mid-line (the
//! daemon serializes writes per connection), so a client may simply read
//! lines and dispatch on `type`.
//!
//! The full grammar is documented in `DESIGN.md` §12; the encode/decode
//! pair in this module is the normative implementation, and the proptest
//! suite pins `decode(encode(x)) == x` for every message type.

use crate::json::{self, obj, Value};
use ap_apps::{App, ExecMode, SystemKind};
use ap_dse::grid::DseConfig;
use radram::RadramConfig;
use std::io::BufRead;

/// Maximum frame size in bytes, newline included. Large enough for any
/// encoded report (~1.5 KB) with an order of magnitude to spare; small
/// enough that a misbehaving client cannot balloon daemon memory.
pub const MAX_FRAME: usize = 64 * 1024;

/// One simulation point as it travels over the wire.
///
/// The experiment harness builds every configuration as
/// [`RadramConfig::reference`] plus at most one builder call, so the wire
/// format carries the knobs rather than the whole config: the daemon
/// rebuilds the `RadramConfig` through the *same* builders, which makes the
/// `Debug` fingerprint — and therefore the cache key — identical to an
/// in-process run of the same point.
#[derive(Debug, Clone, PartialEq)]
pub struct WireSpec {
    /// Application kernel, by [`App::name`].
    pub app: App,
    /// Which memory system.
    pub kind: SystemKind,
    /// Execution tier (DESIGN.md §13). Absent on the wire means accurate,
    /// so pre-fast-mode clients keep working unchanged.
    pub mode: ExecMode,
    /// Problem size in Active Pages.
    pub pages: f64,
    /// L1 data-cache size override in bytes (Figure 5 sweeps).
    pub l1d_size: Option<usize>,
    /// L1 data-cache associativity override (DSE sweeps). Absent on the
    /// wire keeps the reference geometry, so old frames decode unchanged.
    pub l1d_assoc: Option<usize>,
    /// L1 data-cache block (line) size override in bytes (DSE sweeps).
    pub l1d_block: Option<usize>,
    /// L2 size override in bytes.
    pub l2_size: Option<usize>,
    /// DRAM miss-latency override in ns (Figure 8 sweeps).
    pub miss_latency: Option<u64>,
    /// Logic-clock divisor override (Figure 9 sweeps).
    pub logic_divisor: Option<u64>,
}

impl WireSpec {
    /// A reference-configuration point (no overrides, accurate tier).
    pub fn point(app: App, kind: SystemKind, pages: f64) -> WireSpec {
        WireSpec {
            app,
            kind,
            mode: ExecMode::Accurate,
            pages,
            l1d_size: None,
            l1d_assoc: None,
            l1d_block: None,
            l2_size: None,
            miss_latency: None,
            logic_divisor: None,
        }
    }

    /// The same spec on the given execution tier.
    pub fn with_mode(mut self, mode: ExecMode) -> WireSpec {
        self.mode = mode;
        self
    }

    /// One run of a design-space cell: `config`'s knobs on system `kind`
    /// and tier `mode`. [`WireSpec::config`] rebuilds exactly
    /// [`DseConfig::radram_config`], so the daemon keys the run as an
    /// in-process DSE sweep does.
    pub fn dse(config: &DseConfig, kind: SystemKind, mode: ExecMode) -> WireSpec {
        WireSpec {
            mode,
            l1d_size: Some(config.l1d_size),
            l1d_assoc: Some(config.l1d_assoc),
            l1d_block: Some(config.l1d_block),
            logic_divisor: Some(config.logic_divisor),
            ..WireSpec::point(config.app, kind, config.pages)
        }
    }

    /// The [`RadramConfig`] this spec describes: the reference system with
    /// the overrides applied through the standard builders (cache geometry
    /// first, then miss latency, then the logic clock — the same order a
    /// sweep harness would chain them). The builders compose — each mutates
    /// only its own knob — so a multi-override spec fingerprints
    /// identically to the harness-built config.
    pub fn config(&self) -> RadramConfig {
        let mut cfg = RadramConfig::reference();
        if let Some(size) = self.l1d_size {
            cfg = cfg.with_l1d_size(size);
        }
        if let Some(assoc) = self.l1d_assoc {
            cfg = cfg.with_l1d_assoc(assoc);
        }
        if let Some(block) = self.l1d_block {
            cfg = cfg.with_l1d_block(block);
        }
        if let Some(size) = self.l2_size {
            cfg = cfg.with_l2_size(size);
        }
        if let Some(ns) = self.miss_latency {
            cfg = cfg.with_miss_latency(ns);
        }
        if let Some(div) = self.logic_divisor {
            cfg = cfg.with_logic_divisor(div);
        }
        cfg
    }

    fn to_value(&self) -> Value {
        let mut pairs = vec![
            ("app", json::s(self.app.name())),
            ("system", json::s(self.kind.to_string())),
            ("pages", Value::Num(self.pages)),
        ];
        // Only non-default modes travel: an accurate spec encodes exactly as
        // it did before the field existed, keeping keys and frames stable.
        if self.mode != ExecMode::Accurate {
            pairs.push(("mode", json::s(self.mode.name())));
        }
        if let Some(v) = self.l1d_size {
            pairs.push(("l1d_size", json::n(v as u64)));
        }
        if let Some(v) = self.l1d_assoc {
            pairs.push(("l1d_assoc", json::n(v as u64)));
        }
        if let Some(v) = self.l1d_block {
            pairs.push(("l1d_block", json::n(v as u64)));
        }
        if let Some(v) = self.l2_size {
            pairs.push(("l2_size", json::n(v as u64)));
        }
        if let Some(v) = self.miss_latency {
            pairs.push(("miss_latency", json::n(v)));
        }
        if let Some(v) = self.logic_divisor {
            pairs.push(("logic_divisor", json::n(v)));
        }
        obj(pairs)
    }

    fn from_value(v: &Value) -> Result<WireSpec, String> {
        let app_name = v.get("app").and_then(Value::as_str).ok_or("spec missing \"app\"")?;
        let app = App::by_name(app_name).ok_or_else(|| format!("unknown app {app_name:?}"))?;
        let kind = match v.get("system").and_then(Value::as_str) {
            Some("conventional") => SystemKind::Conventional,
            Some("radram") => SystemKind::Radram,
            Some(other) => return Err(format!("unknown system {other:?}")),
            None => return Err("spec missing \"system\"".into()),
        };
        let pages = v.get("pages").and_then(Value::as_f64).ok_or("spec missing \"pages\"")?;
        if pages <= 0.0 || !pages.is_finite() {
            return Err(format!("pages must be positive, got {pages}"));
        }
        let mode = match v.get("mode") {
            None => ExecMode::Accurate,
            Some(m) => {
                let name = m.as_str().ok_or("mode must be a string")?;
                ExecMode::parse(name)?
            }
        };
        let size = |key: &str| -> Result<Option<usize>, String> {
            match v.get(key) {
                None => Ok(None),
                Some(n) => n
                    .as_u64()
                    .map(|u| Some(u as usize))
                    .ok_or_else(|| format!("{key} must be a non-negative integer")),
            }
        };
        let num = |key: &str| -> Result<Option<u64>, String> {
            match v.get(key) {
                None => Ok(None),
                Some(n) => n
                    .as_u64()
                    .map(Some)
                    .ok_or_else(|| format!("{key} must be a non-negative integer")),
            }
        };
        Ok(WireSpec {
            app,
            kind,
            mode,
            pages,
            l1d_size: size("l1d_size")?,
            l1d_assoc: size("l1d_assoc")?,
            l1d_block: size("l1d_block")?,
            l2_size: size("l2_size")?,
            miss_latency: num("miss_latency")?,
            logic_divisor: num("logic_divisor")?,
        })
    }
}

/// A client-to-daemon message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// Submit one simulation point. Answered with [`Response::Accepted`] or
    /// [`Response::Rejected`]; an accepted job later produces one
    /// [`Response::Done`].
    Submit {
        /// The point to simulate.
        spec: WireSpec,
        /// Per-job deadline override in milliseconds (`None` uses the
        /// daemon's default).
        deadline_ms: Option<u64>,
    },
    /// Cancel a queued job by daemon-assigned id.
    Cancel {
        /// The job to cancel.
        job: u64,
    },
    /// Ask for daemon load; answered with [`Response::Status`].
    Status,
    /// Begin graceful shutdown: the daemon drains in-flight jobs, persists
    /// its manifest, answers [`Response::ShuttingDown`] and exits.
    Shutdown,
}

impl Request {
    /// Serializes to one JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        let v = match self {
            Request::Ping => obj([("type", json::s("ping"))]),
            Request::Submit { spec, deadline_ms } => {
                let mut pairs = vec![("type", json::s("submit")), ("spec", spec.to_value())];
                if let Some(ms) = deadline_ms {
                    pairs.push(("deadline_ms", json::n(*ms)));
                }
                obj(pairs)
            }
            Request::Cancel { job } => obj([("type", json::s("cancel")), ("job", json::n(*job))]),
            Request::Status => obj([("type", json::s("status"))]),
            Request::Shutdown => obj([("type", json::s("shutdown"))]),
        };
        v.to_json()
    }

    /// Parses one frame. The error string is safe to echo to the client.
    pub fn decode(line: &str) -> Result<Request, String> {
        let v = json::parse(line).map_err(|e| format!("malformed JSON: {e}"))?;
        let kind =
            v.get("type").and_then(Value::as_str).ok_or("request missing string field \"type\"")?;
        match kind {
            "ping" => Ok(Request::Ping),
            "submit" => {
                let spec = v.get("spec").ok_or("submit missing \"spec\"")?;
                let deadline_ms = match v.get("deadline_ms") {
                    None => None,
                    Some(n) => {
                        Some(n.as_u64().ok_or("deadline_ms must be a non-negative integer")?)
                    }
                };
                Ok(Request::Submit { spec: WireSpec::from_value(spec)?, deadline_ms })
            }
            "cancel" => {
                let job = v
                    .get("job")
                    .and_then(Value::as_u64)
                    .ok_or("cancel missing integer field \"job\"")?;
                Ok(Request::Cancel { job })
            }
            "status" => Ok(Request::Status),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown request type {other:?}")),
        }
    }
}

/// How a completed job ended, mirrored from [`ap_engine::JobError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The job produced a report.
    Ok,
    /// The job panicked; the message is preserved.
    Panicked(String),
    /// The job exceeded its deadline (milliseconds).
    TimedOut(u64),
    /// The job was cancelled while queued.
    Cancelled,
}

impl Outcome {
    /// The manifest-style outcome tag.
    pub fn tag(&self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Panicked(_) => "panicked",
            Outcome::TimedOut(_) => "timed_out",
            Outcome::Cancelled => "cancelled",
        }
    }
}

/// A daemon-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// The submission was queued (or served from cache — the `Done` frame
    /// says which).
    Accepted {
        /// Daemon-assigned job id, echoed in the eventual `Done`.
        job: u64,
        /// The job's cache/manifest key.
        key: String,
    },
    /// The submission was not accepted; retry after the hinted delay.
    Rejected {
        /// `"busy"` (client queue full) or `"draining"` (shutdown begun).
        reason: String,
        /// Suggested client-side backoff in milliseconds.
        retry_after_ms: u64,
    },
    /// A previously accepted job finished. Pushed asynchronously, at most
    /// one per accepted job.
    Done {
        /// The daemon-assigned job id from `Accepted`.
        job: u64,
        /// The job's cache/manifest key.
        key: String,
        /// How the job ended.
        outcome: Outcome,
        /// Whether the result came from the shared disk cache.
        cache_hit: bool,
        /// Wall-clock milliseconds the job occupied a worker.
        wall_ms: u64,
        /// The encoded report (the `report_codec` text), present iff
        /// `outcome` is [`Outcome::Ok`]. Byte-identical to what an
        /// in-process run of the same spec would encode.
        report: Option<String>,
    },
    /// Answer to [`Request::Cancel`].
    Cancelled {
        /// The job the client asked to cancel.
        job: u64,
        /// `true` if the job was still queued and is now cancelled.
        ok: bool,
    },
    /// Answer to [`Request::Status`].
    Status {
        /// Jobs queued across all clients.
        queued: u64,
        /// Jobs currently on a worker.
        running: u64,
        /// Worker-pool size.
        workers: u64,
        /// `true` once shutdown has begun.
        draining: bool,
    },
    /// Answer to [`Request::Shutdown`]: all in-flight jobs have drained and
    /// the manifest is durable; the daemon exits after this frame.
    ShuttingDown,
    /// The previous frame could not be served; the connection stays usable
    /// unless the transport itself is broken.
    Error {
        /// Human-readable description, safe to print.
        message: String,
    },
}

impl Response {
    /// Serializes to one JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        let v = match self {
            Response::Pong => obj([("type", json::s("pong"))]),
            Response::Accepted { job, key } => obj([
                ("type", json::s("accepted")),
                ("job", json::n(*job)),
                ("key", json::s(key.clone())),
            ]),
            Response::Rejected { reason, retry_after_ms } => obj([
                ("type", json::s("rejected")),
                ("reason", json::s(reason.clone())),
                ("retry_after_ms", json::n(*retry_after_ms)),
            ]),
            Response::Done { job, key, outcome, cache_hit, wall_ms, report } => {
                let mut pairs = vec![
                    ("type", json::s("done")),
                    ("job", json::n(*job)),
                    ("key", json::s(key.clone())),
                    ("outcome", json::s(outcome.tag())),
                    ("cache", json::s(if *cache_hit { "hit" } else { "miss" })),
                    ("wall_ms", json::n(*wall_ms)),
                ];
                match outcome {
                    Outcome::Panicked(msg) => pairs.push(("error", json::s(msg.clone()))),
                    Outcome::TimedOut(ms) => pairs.push(("timeout_ms", json::n(*ms))),
                    Outcome::Ok | Outcome::Cancelled => {}
                }
                if let Some(text) = report {
                    pairs.push(("report", json::s(text.clone())));
                }
                obj(pairs)
            }
            Response::Cancelled { job, ok } => obj([
                ("type", json::s("cancelled")),
                ("job", json::n(*job)),
                ("ok", Value::Bool(*ok)),
            ]),
            Response::Status { queued, running, workers, draining } => obj([
                ("type", json::s("status")),
                ("queued", json::n(*queued)),
                ("running", json::n(*running)),
                ("workers", json::n(*workers)),
                ("draining", Value::Bool(*draining)),
            ]),
            Response::ShuttingDown => obj([("type", json::s("shutting_down"))]),
            Response::Error { message } => {
                obj([("type", json::s("error")), ("message", json::s(message.clone()))])
            }
        };
        v.to_json()
    }

    /// Parses one frame (the client side of the protocol).
    pub fn decode(line: &str) -> Result<Response, String> {
        let v = json::parse(line).map_err(|e| format!("malformed JSON: {e}"))?;
        let kind = v
            .get("type")
            .and_then(Value::as_str)
            .ok_or("response missing string field \"type\"")?;
        let num = |key: &str| {
            v.get(key).and_then(Value::as_u64).ok_or_else(|| format!("missing integer {key:?}"))
        };
        let text = |key: &str| {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string {key:?}"))
        };
        match kind {
            "pong" => Ok(Response::Pong),
            "accepted" => Ok(Response::Accepted { job: num("job")?, key: text("key")? }),
            "rejected" => Ok(Response::Rejected {
                reason: text("reason")?,
                retry_after_ms: num("retry_after_ms")?,
            }),
            "done" => {
                let outcome = match text("outcome")?.as_str() {
                    "ok" => Outcome::Ok,
                    "panicked" => Outcome::Panicked(text("error")?),
                    "timed_out" => Outcome::TimedOut(num("timeout_ms")?),
                    "cancelled" => Outcome::Cancelled,
                    other => return Err(format!("unknown outcome {other:?}")),
                };
                Ok(Response::Done {
                    job: num("job")?,
                    key: text("key")?,
                    outcome,
                    cache_hit: text("cache")? == "hit",
                    wall_ms: num("wall_ms")?,
                    report: v.get("report").and_then(Value::as_str).map(str::to_string),
                })
            }
            "cancelled" => Ok(Response::Cancelled {
                job: num("job")?,
                ok: v.get("ok").and_then(Value::as_bool).ok_or("missing bool \"ok\"")?,
            }),
            "status" => Ok(Response::Status {
                queued: num("queued")?,
                running: num("running")?,
                workers: num("workers")?,
                draining: v
                    .get("draining")
                    .and_then(Value::as_bool)
                    .ok_or("missing bool \"draining\"")?,
            }),
            "shutting_down" => Ok(Response::ShuttingDown),
            "error" => Ok(Response::Error { message: text("message")? }),
            other => Err(format!("unknown response type {other:?}")),
        }
    }
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly (EOF at a frame boundary).
    Closed,
    /// The line exceeded [`MAX_FRAME`] bytes. The stream is now mid-frame
    /// and unrecoverable; the caller should report and close.
    Oversized,
    /// Transport failure.
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => f.write_str("connection closed"),
            FrameError::Oversized => write!(f, "frame exceeds {MAX_FRAME} bytes"),
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

/// Reads one newline-terminated frame (the newline is consumed, not
/// returned), refusing to buffer more than [`MAX_FRAME`] bytes.
///
/// EOF exactly at a frame boundary is [`FrameError::Closed`]; EOF mid-line
/// treats the partial line as the final frame (a peer that crashed after
/// `write` but before the newline still gets its last request parsed —
/// and rejected as malformed if it was truncated).
pub fn read_frame(reader: &mut impl BufRead) -> Result<String, FrameError> {
    let mut line = Vec::new();
    loop {
        let (consumed, done) = {
            let buf = match reader.fill_buf() {
                Ok(buf) => buf,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(FrameError::Io(e)),
            };
            if buf.is_empty() {
                if line.is_empty() {
                    return Err(FrameError::Closed);
                }
                (0, true)
            } else {
                match buf.iter().position(|&b| b == b'\n') {
                    Some(pos) => {
                        line.extend_from_slice(&buf[..pos]);
                        (pos + 1, true)
                    }
                    None => {
                        line.extend_from_slice(buf);
                        (buf.len(), false)
                    }
                }
            }
        };
        reader.consume(consumed);
        if line.len() >= MAX_FRAME {
            return Err(FrameError::Oversized);
        }
        if done {
            let text =
                String::from_utf8(line).map_err(|e| FrameError::Io(std::io::Error::other(e)))?;
            return Ok(text);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn spec() -> WireSpec {
        WireSpec::point(App::Database, SystemKind::Radram, 0.5)
    }

    #[test]
    fn requests_round_trip() {
        let full = WireSpec {
            l1d_size: Some(16 << 10),
            l1d_assoc: Some(4),
            l1d_block: Some(64),
            l2_size: Some(1 << 20),
            miss_latency: Some(120),
            logic_divisor: Some(50),
            ..spec()
        };
        for r in [
            Request::Ping,
            Request::Submit { spec: spec(), deadline_ms: None },
            Request::Submit { spec: spec().with_mode(ExecMode::Fast), deadline_ms: None },
            Request::Submit { spec: full, deadline_ms: Some(30_000) },
            Request::Cancel { job: 17 },
            Request::Status,
            Request::Shutdown,
        ] {
            let line = r.encode();
            assert!(!line.contains('\n'), "frames are single lines: {line}");
            assert_eq!(Request::decode(&line).unwrap(), r, "{line}");
        }
    }

    #[test]
    fn responses_round_trip() {
        for r in [
            Response::Pong,
            Response::Accepted { job: 3, key: "database/radram/p3fe0000000000000/cfg00".into() },
            Response::Rejected { reason: "busy".into(), retry_after_ms: 250 },
            Response::Done {
                job: 3,
                key: "k".into(),
                outcome: Outcome::Ok,
                cache_hit: true,
                wall_ms: 0,
                report: Some("format=1\napp=database\n".into()),
            },
            Response::Done {
                job: 4,
                key: "k2".into(),
                outcome: Outcome::Panicked("index out of bounds".into()),
                cache_hit: false,
                wall_ms: 12,
                report: None,
            },
            Response::Done {
                job: 5,
                key: "k3".into(),
                outcome: Outcome::TimedOut(30_000),
                cache_hit: false,
                wall_ms: 30_001,
                report: None,
            },
            Response::Done {
                job: 6,
                key: "k4".into(),
                outcome: Outcome::Cancelled,
                cache_hit: false,
                wall_ms: 0,
                report: None,
            },
            Response::Cancelled { job: 6, ok: true },
            Response::Status { queued: 9, running: 4, workers: 4, draining: false },
            Response::ShuttingDown,
            Response::Error { message: "unknown request type \"frobnicate\"".into() },
        ] {
            let line = r.encode();
            assert!(!line.contains('\n'), "frames are single lines: {line}");
            assert_eq!(Response::decode(&line).unwrap(), r, "{line}");
        }
    }

    #[test]
    fn pages_survive_the_wire_bit_exactly() {
        // Cache keys hash the f64 *bits* of the problem size; the wire must
        // not perturb them.
        for pages in [0.25, 0.5, 1.0, 3.0, 128.0, 0.1, 1.0 / 3.0] {
            let r = Request::Submit {
                spec: WireSpec::point(App::Median, SystemKind::Conventional, pages),
                deadline_ms: None,
            };
            match Request::decode(&r.encode()).unwrap() {
                Request::Submit { spec, .. } => {
                    assert_eq!(spec.pages.to_bits(), pages.to_bits(), "{pages}");
                }
                other => panic!("wrong decode: {other:?}"),
            }
        }
    }

    #[test]
    fn wire_spec_rebuilds_the_exact_harness_config() {
        // The daemon-side config must fingerprint identically to the
        // harness-built one, or cache keys diverge.
        let reference = RadramConfig::reference();
        assert_eq!(spec().config(), reference);
        let wire = WireSpec { miss_latency: Some(200), ..spec() };
        assert_eq!(wire.config(), reference.clone().with_miss_latency(200));
        let wire = WireSpec { l1d_size: Some(8 << 10), ..spec() };
        assert_eq!(wire.config(), reference.with_l1d_size(8 << 10));
    }

    #[test]
    fn multi_knob_wire_specs_compose_every_override() {
        // Regression: the hierarchy builders used to reset each other, so a
        // spec carrying both a cache override and a miss latency silently
        // dropped the cache one. All knobs must now land together — and
        // fingerprint identically to the harness-side chain.
        let wire = WireSpec {
            l1d_size: Some(16 << 10),
            l1d_assoc: Some(4),
            l1d_block: Some(64),
            miss_latency: Some(200),
            logic_divisor: Some(50),
            ..spec()
        };
        let cfg = wire.config();
        assert_eq!(cfg.cpu.hierarchy.l1d.size, 16 << 10);
        assert_eq!(cfg.cpu.hierarchy.l1d.assoc, 4);
        assert_eq!(cfg.cpu.hierarchy.l1d.line, 64);
        assert_eq!(cfg.cpu.hierarchy.dram.latency, 200);
        assert_eq!(cfg.logic_divisor, 50);
        let harness = RadramConfig::reference()
            .with_l1d_size(16 << 10)
            .with_l1d_assoc(4)
            .with_l1d_block(64)
            .with_logic_divisor(50)
            .with_miss_latency(200);
        assert_eq!(cfg, harness, "wire and harness configs must fingerprint identically");
    }

    #[test]
    fn decode_rejects_malformed_and_unknown_frames() {
        for bad in [
            "",
            "not json",
            "{\"no\":\"type\"}",
            "{\"type\":\"frobnicate\"}",
            "{\"type\":7}",
            "{\"type\":\"submit\"}",
            "{\"type\":\"submit\",\"spec\":{\"app\":\"nope\",\"system\":\"radram\",\"pages\":1}}",
            "{\"type\":\"submit\",\"spec\":{\"app\":\"median\",\"system\":\"sram\",\"pages\":1}}",
            "{\"type\":\"submit\",\"spec\":{\"app\":\"median\",\"system\":\"radram\",\"pages\":-1}}",
            "{\"type\":\"cancel\"}",
            "{\"type\":\"cancel\",\"job\":-3}",
        ] {
            assert!(Request::decode(bad).is_err(), "must reject {bad:?}");
        }
        assert!(Response::decode("{\"type\":\"warp\"}").is_err());
        assert!(Response::decode("{\"type\":\"done\",\"job\":1}").is_err(), "missing fields");
    }

    #[test]
    fn unknown_exec_modes_are_a_protocol_error_not_a_panic() {
        let bad = "{\"type\":\"submit\",\"spec\":{\"app\":\"median\",\"system\":\"radram\",\
                   \"pages\":1,\"mode\":\"warp\"}}";
        let err = Request::decode(bad).unwrap_err();
        assert!(err.contains("warp"), "must name the bad mode: {err}");
        assert!(err.contains("accurate") && err.contains("fast"), "must list valid modes: {err}");
        let not_string = "{\"type\":\"submit\",\"spec\":{\"app\":\"median\",\
                          \"system\":\"radram\",\"pages\":1,\"mode\":7}}";
        assert!(Request::decode(not_string).is_err());
    }

    #[test]
    fn absent_mode_means_accurate_and_accurate_stays_off_the_wire() {
        // Backward compatibility both ways: old frames decode to the
        // accurate tier, and accurate specs encode without the field.
        let old = "{\"type\":\"submit\",\"spec\":{\"app\":\"median\",\"system\":\"radram\",\
                   \"pages\":1}}";
        match Request::decode(old).unwrap() {
            Request::Submit { spec, .. } => assert_eq!(spec.mode, ExecMode::Accurate),
            other => panic!("wrong decode: {other:?}"),
        }
        let line = Request::Submit { spec: spec(), deadline_ms: None }.encode();
        assert!(!line.contains("mode"), "accurate must encode without a mode field: {line}");
        let line =
            Request::Submit { spec: spec().with_mode(ExecMode::Fast), deadline_ms: None }.encode();
        assert!(line.contains("\"mode\":\"fast\""), "{line}");
    }

    #[test]
    fn read_frame_splits_lines_and_reports_eof() {
        let mut r = BufReader::new(&b"{\"type\":\"ping\"}\n{\"type\":\"status\"}\ntail"[..]);
        assert_eq!(read_frame(&mut r).unwrap(), "{\"type\":\"ping\"}");
        assert_eq!(read_frame(&mut r).unwrap(), "{\"type\":\"status\"}");
        // EOF mid-line: the partial line is surfaced as a final frame.
        assert_eq!(read_frame(&mut r).unwrap(), "tail");
        assert!(matches!(read_frame(&mut r), Err(FrameError::Closed)));
    }

    #[test]
    fn read_frame_rejects_oversized_frames_without_buffering_them() {
        let big = vec![b'x'; MAX_FRAME + 10];
        let mut r = BufReader::new(&big[..]);
        assert!(matches!(read_frame(&mut r), Err(FrameError::Oversized)));
        // A frame of exactly the cap (newline included) still fails the
        // `>= MAX_FRAME` payload check; one byte less passes.
        let mut ok = vec![b'y'; MAX_FRAME - 1];
        ok.push(b'\n');
        let mut r = BufReader::new(&ok[..]);
        assert_eq!(read_frame(&mut r).unwrap().len(), MAX_FRAME - 1);
    }
}

//! `apd`: the Active Pages simulation daemon.
//!
//! The batch harness (`experiments`) spins an engine up, runs one figure's
//! sweep, and exits. This crate turns the same execution stack into a
//! long-running **service**: a persistent daemon that accepts simulation
//! jobs from many concurrent clients over a newline-delimited JSON line
//! protocol, multiplexes them onto a single shared [`ap_engine::Service`]
//! worker pool, and shares one content-addressed disk cache — salted
//! identically to in-process runs, so the daemon and `experiments` serve
//! each other's results byte for byte.
//!
//! The pieces:
//!
//! * [`json`] — the workspace's minimal JSON value/parser/writer
//!   (`ap_trace::json`, re-exported here for the protocol and its clients);
//! * [`proto`] — the line protocol: [`proto::Request`]/[`proto::Response`]
//!   frames, [`proto::WireSpec`] (a simulation point as reference-config
//!   knobs), and 64 KB-capped framing;
//! * [`server`] — the daemon itself: every request goes to the pool, which
//!   schedules fairly with per-client backpressure, probes and fills the
//!   cache, simulates a point that several clients want at once only once,
//!   and group-commits a JSONL manifest (every line fdatasynced before its
//!   job's response, one sync for all the lines queued together); a
//!   process-wide [`ap_trace::Registry`] is scraped over HTTP (`/healthz`,
//!   `/metrics`, `/jobs` on the same socket), and shutdown drains
//!   gracefully;
//! * [`client`] — the blocking client library behind the `apctl` binary.
//!
//! See `DESIGN.md` §12 for the protocol grammar and scheduling policy, and
//! the README's "Running as a service" section for a walkthrough.

#![forbid(unsafe_code)]

pub mod client;
pub mod proto;
pub mod server;

pub use ap_trace::json;
pub use client::{Client, ClientError, JobResult};
pub use proto::{Outcome, Request, Response, WireSpec, MAX_FRAME};
pub use server::{DaemonConfig, Server};

//! Design-space exploration (DSE) over the Active Pages engine.
//!
//! The paper's Figures 3–9 each fix all-but-one axis of a large design
//! space: problem size × cache geometry × logic-clock divisor × kernel ×
//! memory system. This crate sweeps that space *whole*, the way the
//! Ramulator 2.0 re-evaluation sweeps configurations to find which
//! conclusions are timing-model-sensitive:
//!
//! * [`grid`] — a declarative [`grid::Axis`]/[`grid::Grid`] model that
//!   expands to canonical batches of [`grid::DseSpec`]s, two runs
//!   (conventional + RADram) per [`grid::DseConfig`];
//! * [`collect`] — a streaming [`collect::Collector`] that folds engine
//!   results into per-config [`collect::ConfigPoint`]s in any arrival
//!   order;
//! * [`pareto`] — n-dimensional dominance and the exhaustive Pareto front;
//! * [`report`] — the schema-versioned `BENCH_dse.json` payload, the
//!   deterministic `BENCH_dse_front.json` companion, and a human-readable
//!   front table.
//!
//! The crate is deliberately engine-agnostic: it depends only on the
//! application and configuration models, so the batch harness
//! (`experiments dse`), the daemon client (`apctl dse`) and tests all
//! expand and analyze *the same* grid — same specs, same canonical order,
//! same cache keys (see DESIGN.md §15).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collect;
pub mod grid;
pub mod pareto;
pub mod report;

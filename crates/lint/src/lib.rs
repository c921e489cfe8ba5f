//! `ap-lint` — static-verification substrate for the Active Pages
//! reproduction.
//!
//! The paper's credibility rests on its artifacts being well-formed *before*
//! numbers are reported: a combinational loop in a RADram circuit or a
//! read-before-write bug in an Active-Page kernel should fail loudly, not
//! surface as a subtly wrong benchmark figure. This crate is the shared
//! foundation the two concrete passes are built on:
//!
//! * the **netlist verifier** lives in `ap_synth::lint` (combinational
//!   loops, floating flip-flops, constant outputs, dead logic cones, port
//!   conflicts, fanout limits);
//! * the **kernel analyzer** lives in `ap_risc::lint` (read-before-write
//!   dataflow, unreachable blocks, wild jumps, misaligned accesses,
//!   fall-through exits).
//!
//! Both passes speak this crate's vocabulary: a [`Diagnostic`] carries a
//! stable machine-readable [`Code`], the [`Severity`] that code dictates, a
//! [`Location`] and a message; a [`Report`] collects them per subject and
//! renders as compiler-style text or JSON. The [`graph`] module provides the
//! iterative Tarjan SCC and reachability engines the passes share, and the
//! [`footprint`] module the byte-interval access domain the race passes
//! (`RC…` codes, static analysis in `ap_risc::footprint` + the runtime
//! sanitizer in `radram`) are built on.
//!
//! Layering: `ap-lint` depends on nothing, so `ap-synth` and `ap-risc` can
//! depend on it and run their passes inside their own gates
//! (`ap_synth::synthesize`, `Machine::load`). The defect-fixture corpus in
//! this crate's `tests/` exercises both passes through dev-dependencies.
//!
//! # Examples
//!
//! ```
//! use ap_lint::{Code, Diagnostic, Location, Report, Severity};
//!
//! let mut report = Report::new("toy");
//! report.push(Diagnostic::new(Code::DeadLogic, Location::Node(7), "AND gate drives nothing"));
//! assert_eq!(report.warnings(), 1);
//! assert!(!report.has_errors());
//! assert!(report.render_text().contains("NL004"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod diag;
pub mod footprint;
pub mod graph;

pub use diag::{Code, Diagnostic, Location, Report, Severity, Summary};

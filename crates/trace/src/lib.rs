//! `ap-trace` — cycle-attributed tracing, metrics and timeline export for
//! the Active Pages simulation stack.
//!
//! The paper's evaluation hinges on *where cycles go*: processor time,
//! Active-Page computation time and inter-page communication time (the
//! Section 7.4 `T_A`/`T_P`/`T_C` decomposition). This crate is the
//! observability substrate that lets the simulator show its work instead of
//! reporting only end-of-run aggregates:
//!
//! * **Zero cost when disabled.** Every emission site is gated on one
//!   relaxed atomic load of a global subsystem [`Filter`]; with the filter
//!   empty (the default) no ring, lock or allocation is ever touched, so
//!   instrumented hot paths reproduce bit-identical cycle counts.
//! * **Bounded memory.** Events land in per-subsystem [`ring::Ring`]
//!   buffers of fixed capacity; saturation increments a drop counter and
//!   never reallocates, and the Chrome exporter emits an explicit
//!   truncation marker so a clipped timeline is visible as clipped.
//! * **Cycle timebase.** Simulation events carry the simulated cycle (1 ns
//!   at the paper's 1 GHz reference clock), published by the clock owner
//!   through [`set_cycle`]. Engine events use wall-clock microseconds and
//!   export as a separate process row.
//! * **Two exporters.** [`chrome`] writes `chrome://tracing`-loadable
//!   trace-event JSON (and parses it back); [`flame`] renders a compact
//!   text flame summary. [`phases`] recovers the traced `T_A`/`T_P`/`T_C`
//!   totals that the cross-check tests hold against
//!   `ap_analytic::calibrate`.
//!
//! Collection is per-thread: a simulation job [`session::begin`]s a session
//! on its own thread, runs, and [`session::finish`]es to obtain the
//! [`Trace`]. The engine's rare, cross-thread diagnostics go through the
//! global [`warn`] channel instead, which is always counted (and mirrored
//! to stderr) so engine noise is testable.
//!
//! # Examples
//!
//! ```
//! use ap_trace::{session, Filter, Subsystem};
//!
//! ap_trace::set_filter(Filter::ALL);
//! session::begin(session::SessionConfig::default());
//! ap_trace::set_cycle(100);
//! ap_trace::complete(Subsystem::Radram, "page.run", 100, 80, 0, 0);
//! let trace = session::finish().unwrap();
//! assert_eq!(trace.events(Subsystem::Radram).count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod flame;
pub mod json;
pub mod metrics;
pub mod phases;
pub mod registry;
pub mod ring;
pub mod session;
mod warnings;

pub use metrics::{Counter, Histogram};
pub use registry::Registry;
pub use ring::Ring;
pub use session::{complete, instant, Trace};
pub use warnings::{reset_warnings, warn, warn_count, warnings, Warning};

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, Ordering};

/// The instrumented subsystems, one per simulation layer plus the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Subsystem {
    /// Processor core: commit counters, memory-stall spans, branch
    /// mispredicts.
    Cpu,
    /// Memory hierarchy: per-level hit/miss/writeback events, DRAM fills.
    Mem,
    /// RADram Active-Page system: dispatch, sync stalls, logic runs,
    /// inter-page transfers.
    Radram,
    /// RISC kernel machine: kernel execute spans.
    Risc,
    /// Experiment engine: job lifecycle (wall-clock microsecond timebase).
    Engine,
}

impl Subsystem {
    /// Every subsystem, in export order.
    pub const ALL: [Subsystem; 5] =
        [Subsystem::Cpu, Subsystem::Mem, Subsystem::Radram, Subsystem::Risc, Subsystem::Engine];

    /// Stable index into per-subsystem tables.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// This subsystem's bit in a [`Filter`] mask.
    #[inline]
    pub const fn bit(self) -> u32 {
        1 << self.index()
    }

    /// Short lowercase name (`"cpu"`, `"mem"`, ...) used by filters and the
    /// Chrome `cat` field.
    pub fn name(self) -> &'static str {
        match self {
            Subsystem::Cpu => "cpu",
            Subsystem::Mem => "mem",
            Subsystem::Radram => "radram",
            Subsystem::Risc => "risc",
            Subsystem::Engine => "engine",
        }
    }

    /// Looks a subsystem up by its [`Subsystem::name`].
    pub fn by_name(name: &str) -> Option<Subsystem> {
        Subsystem::ALL.into_iter().find(|s| s.name() == name)
    }
}

impl std::fmt::Display for Subsystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A set of enabled subsystems (a bitmask over [`Subsystem`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Filter(pub u32);

impl Filter {
    /// Nothing enabled (the startup state: tracing off).
    pub const NONE: Filter = Filter(0);
    /// Every subsystem enabled.
    pub const ALL: Filter = Filter((1 << Subsystem::ALL.len()) - 1);

    /// A filter enabling exactly the listed subsystems.
    pub fn of(subs: &[Subsystem]) -> Filter {
        Filter(subs.iter().fold(0, |m, s| m | s.bit()))
    }

    /// Parses a comma-separated subsystem list (`"mem,radram"`); `"all"`
    /// yields [`Filter::ALL`]. Unknown names are reported in the error.
    pub fn parse(list: &str) -> Result<Filter, String> {
        if list.trim() == "all" {
            return Ok(Filter::ALL);
        }
        let mut mask = 0;
        for part in list.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            match Subsystem::by_name(part) {
                Some(s) => mask |= s.bit(),
                None => {
                    return Err(format!(
                        "unknown trace subsystem {part:?} (valid: {}, all)",
                        Subsystem::ALL.map(Subsystem::name).join(", ")
                    ))
                }
            }
        }
        Ok(Filter(mask))
    }

    /// True when `sub` is in the set.
    #[inline]
    pub fn contains(self, sub: Subsystem) -> bool {
        self.0 & sub.bit() != 0
    }

    /// True when no subsystem is enabled.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl std::fmt::Display for Filter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if *self == Filter::ALL {
            return f.write_str("all");
        }
        let names: Vec<&str> =
            Subsystem::ALL.into_iter().filter(|s| self.contains(*s)).map(Subsystem::name).collect();
        f.write_str(&names.join(","))
    }
}

/// The global runtime gate. Zero (all tracing off) at startup.
static FILTER: AtomicU32 = AtomicU32::new(0);

/// Replaces the global subsystem filter. Affects every thread.
pub fn set_filter(filter: Filter) {
    FILTER.store(filter.0, Ordering::Relaxed);
}

/// Serialises the unit tests that change the process-global filter, which
/// `cargo test` would otherwise race on its parallel test threads.
#[cfg(test)]
pub(crate) fn filter_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The current global filter.
pub fn filter() -> Filter {
    Filter(FILTER.load(Ordering::Relaxed))
}

/// True when `sub` is traced. This is the hot-path gate: one relaxed atomic
/// load and a mask test, nothing else, so instrumented code pays (far) below
/// measurement noise when tracing is off.
#[inline(always)]
pub fn enabled(sub: Subsystem) -> bool {
    FILTER.load(Ordering::Relaxed) & sub.bit() != 0
}

/// True when any subsystem in `mask` is traced (one load for sites that
/// serve several subsystems).
#[inline(always)]
pub fn enabled_any(mask: Filter) -> bool {
    FILTER.load(Ordering::Relaxed) & mask.0 != 0
}

thread_local! {
    /// The simulated-cycle clock for this thread, published by the clock
    /// owner (the simulated CPU) so clock-less layers (the cache hierarchy)
    /// can stamp events.
    static SIM_CYCLE: Cell<u64> = const { Cell::new(0) };
}

/// Publishes the current simulated cycle for this thread. Called by the
/// component that owns the clock before it drives instrumented clock-less
/// layers.
#[inline]
pub fn set_cycle(cycle: u64) {
    SIM_CYCLE.with(|c| c.set(cycle));
}

/// The last published simulated cycle for this thread.
#[inline]
pub fn cycle() -> u64 {
    SIM_CYCLE.with(Cell::get)
}

/// One trace record: an instant (`dur == 0`) or a completed span, stamped
/// with the simulated cycle it started at (microseconds for
/// [`Subsystem::Engine`]). `a`/`b` are kind-specific payloads (addresses,
/// page ids, byte counts); the event taxonomy is documented in DESIGN.md §10.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Start timestamp (simulated cycles; µs for engine events).
    pub cycle: u64,
    /// Duration in the same unit; zero for instant events.
    pub dur: u64,
    /// Originating subsystem.
    pub subsystem: Subsystem,
    /// Event kind (static taxonomy name, e.g. `"l1d.miss"`).
    pub kind: &'static str,
    /// First payload word.
    pub a: u64,
    /// Second payload word.
    pub b: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_parse_and_display_round_trip() {
        assert_eq!(Filter::parse("all").unwrap(), Filter::ALL);
        assert_eq!(Filter::parse("").unwrap(), Filter::NONE);
        let f = Filter::parse("mem, radram").unwrap();
        assert!(f.contains(Subsystem::Mem));
        assert!(f.contains(Subsystem::Radram));
        assert!(!f.contains(Subsystem::Cpu));
        assert_eq!(f.to_string(), "mem,radram");
        assert_eq!(Filter::parse(&f.to_string()).unwrap(), f);
        assert_eq!(Filter::ALL.to_string(), "all");
    }

    #[test]
    fn filter_rejects_unknown_subsystems() {
        let err = Filter::parse("mem,frobnicator").unwrap_err();
        assert!(err.contains("frobnicator"), "{err}");
        assert!(err.contains("radram"), "must list valid names: {err}");
    }

    #[test]
    fn subsystem_names_round_trip() {
        for s in Subsystem::ALL {
            assert_eq!(Subsystem::by_name(s.name()), Some(s));
        }
        assert_eq!(Subsystem::by_name("nope"), None);
    }

    #[test]
    fn cycle_clock_is_thread_local() {
        set_cycle(42);
        assert_eq!(cycle(), 42);
        std::thread::spawn(|| assert_eq!(cycle(), 0)).join().unwrap();
        assert_eq!(cycle(), 42);
    }
}

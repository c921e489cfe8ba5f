//! Traced `T_A`/`T_P`/`T_C` phase recovery.
//!
//! Section 7.4 of the paper models Active-Page run time per activation as
//! processor time `T_P`, activation (dispatch) time `T_A` and page compute
//! time `T_C`. `ap_analytic::calibrate` derives those from a run's
//! *aggregate counters*; this module derives the same totals from the
//! *event stream* — dispatch spans, logic-run spans and sync-stall spans —
//! so the two can be cross-checked against each other. Agreement means the
//! counters the analytic model is calibrated from really do decompose the
//! timeline the way the model assumes.

use crate::chrome::{ParsedEvent, PID_SIM};
use crate::{Subsystem, Trace};

/// Event kind whose spans sum to the dispatch (activation) cycles.
pub const KIND_DISPATCH: &str = "ctrl.write";
/// Event kind whose spans sum to the page-logic busy cycles.
pub const KIND_PAGE_RUN: &str = "page.run";
/// Event kind whose spans sum to the processor-blocked sync cycles.
pub const KIND_SYNC_STALL: &str = "sync.stall";
/// Instant marking one page activation.
pub const KIND_DISPATCH_MARK: &str = "page.dispatch";
/// Span covering an app's measured kernel region exactly (emitted by
/// `radram::System::kernel_region`). When present it defines the kernel
/// total; the event-envelope fallback undercounts by trailing work that
/// emits no event.
pub const KIND_KERNEL: &str = "kernel.region";

/// Phase totals recovered from a trace, in simulated cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTotals {
    /// Σ dispatch-span durations (traced `T_A · k`).
    pub dispatch_cycles: u64,
    /// Σ page-logic-run durations (traced `T_C · k`).
    pub page_run_cycles: u64,
    /// Σ sync-stall durations (processor blocked on pages).
    pub stall_cycles: u64,
    /// Number of page activations observed.
    pub activations: u64,
    /// Kernel-region cycles: the summed [`KIND_KERNEL`] span durations when
    /// the harness emitted them (exact), else the largest event
    /// end-timestamp (an envelope approximation — setup and digest phases
    /// are untimed in the harness, so event timestamps start near zero).
    pub kernel_cycles: u64,
}

impl PhaseTotals {
    /// Processor cycles: everything inside the kernel envelope that is
    /// neither dispatch nor a sync stall (the traced analogue of the
    /// analytic `t_p` numerator).
    pub fn processor_cycles(&self) -> u64 {
        self.kernel_cycles.saturating_sub(self.stall_cycles + self.dispatch_cycles)
    }

    /// Per-activation `T_A`, or 0 with no activations.
    pub fn t_a(&self) -> f64 {
        self.per_activation(self.dispatch_cycles)
    }

    /// Per-activation `T_P`.
    pub fn t_p(&self) -> f64 {
        self.per_activation(self.processor_cycles())
    }

    /// Per-activation `T_C`.
    pub fn t_c(&self) -> f64 {
        self.per_activation(self.page_run_cycles)
    }

    fn per_activation(&self, cycles: u64) -> f64 {
        if self.activations == 0 {
            0.0
        } else {
            cycles as f64 / self.activations as f64
        }
    }

    /// Recovers phase totals from a native trace (requires the `radram`
    /// subsystem to have been enabled during collection).
    pub fn of_trace(trace: &Trace) -> PhaseTotals {
        let rad = Subsystem::Radram;
        let explicit = trace.total_dur(rad, KIND_KERNEL);
        let kernel_cycles = if explicit > 0 {
            explicit
        } else {
            trace
                .all_events()
                .filter(|e| e.subsystem != Subsystem::Engine)
                .map(|e| e.cycle + e.dur)
                .max()
                .unwrap_or(0)
        };
        PhaseTotals {
            dispatch_cycles: trace.total_dur(rad, KIND_DISPATCH),
            page_run_cycles: trace.total_dur(rad, KIND_PAGE_RUN),
            stall_cycles: trace.total_dur(rad, KIND_SYNC_STALL),
            activations: trace.count(rad, KIND_DISPATCH_MARK),
            kernel_cycles,
        }
    }

    /// Recovers phase totals from parsed Chrome-trace events (the
    /// round-trip used by `aptrace`). Only simulation-pid, non-metadata
    /// events participate.
    pub fn of_chrome(events: &[ParsedEvent]) -> PhaseTotals {
        let sim = events.iter().filter(|e| e.pid == PID_SIM && (e.ph == 'X' || e.ph == 'i'));
        let mut totals = PhaseTotals::default();
        let mut explicit_kernel = 0;
        let mut envelope = 0;
        for e in sim {
            envelope = envelope.max(e.ts + e.dur);
            match e.name.as_str() {
                KIND_DISPATCH => totals.dispatch_cycles += e.dur,
                KIND_PAGE_RUN => totals.page_run_cycles += e.dur,
                KIND_SYNC_STALL => totals.stall_cycles += e.dur,
                KIND_DISPATCH_MARK => totals.activations += 1,
                KIND_KERNEL => explicit_kernel += e.dur,
                _ => {}
            }
        }
        totals.kernel_cycles = if explicit_kernel > 0 { explicit_kernel } else { envelope };
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{begin, finish, SessionConfig};
    use crate::{complete, instant, Filter};

    #[test]
    fn totals_from_native_and_chrome_agree() {
        begin(SessionConfig::filtered(Filter::ALL));
        // Two activations: dispatch 10 cycles each, page logic 100 each,
        // one 30-cycle sync stall; kernel envelope ends at 260.
        instant(Subsystem::Radram, KIND_DISPATCH_MARK, 0, 0, 0);
        complete(Subsystem::Radram, KIND_DISPATCH, 0, 10, 0, 0);
        complete(Subsystem::Radram, KIND_PAGE_RUN, 10, 100, 0, 0);
        instant(Subsystem::Radram, KIND_DISPATCH_MARK, 110, 1, 0);
        complete(Subsystem::Radram, KIND_DISPATCH, 110, 10, 1, 0);
        complete(Subsystem::Radram, KIND_PAGE_RUN, 120, 100, 1, 0);
        complete(Subsystem::Radram, KIND_SYNC_STALL, 220, 30, 0, 0);
        complete(Subsystem::Cpu, "stall.mem", 250, 10, 0, 0);
        complete(Subsystem::Engine, "job.run", 9999, 9999, 0, 0);
        let trace = finish().unwrap();

        let native = PhaseTotals::of_trace(&trace);
        assert_eq!(native.dispatch_cycles, 20);
        assert_eq!(native.page_run_cycles, 200);
        assert_eq!(native.stall_cycles, 30);
        assert_eq!(native.activations, 2);
        assert_eq!(native.kernel_cycles, 260, "engine events must not stretch the envelope");
        assert_eq!(native.processor_cycles(), 210);
        assert!((native.t_a() - 10.0).abs() < 1e-9);
        assert!((native.t_c() - 100.0).abs() < 1e-9);
        assert!((native.t_p() - 105.0).abs() < 1e-9);

        let parsed = crate::chrome::parse(&crate::chrome::export(&trace, "t")).unwrap();
        assert_eq!(PhaseTotals::of_chrome(&parsed), native);
    }

    #[test]
    fn explicit_kernel_span_overrides_the_envelope() {
        begin(SessionConfig::filtered(Filter::ALL));
        complete(Subsystem::Radram, KIND_PAGE_RUN, 10, 100, 0, 0);
        // The harness-measured region extends 40 cycles past the last event.
        complete(Subsystem::Radram, KIND_KERNEL, 0, 150, 0, 0);
        let trace = finish().unwrap();

        let native = PhaseTotals::of_trace(&trace);
        assert_eq!(native.kernel_cycles, 150, "explicit span wins over the 110-cycle envelope");
        let parsed = crate::chrome::parse(&crate::chrome::export(&trace, "t")).unwrap();
        assert_eq!(PhaseTotals::of_chrome(&parsed), native);
    }
}

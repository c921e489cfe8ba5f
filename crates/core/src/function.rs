//! The `AP_functions` abstraction: what a page computes and what it costs.

use crate::PageSlice;
use ap_mem::VAddr;
use std::fmt;

/// An inter-page memory reference, resolved by the processor.
///
/// "When an Active-Page function reaches a memory reference that can not be
/// satisfied by its local page, it blocks and raises a processor interrupt.
/// The processor satisfies the request by reading and writing to the
/// appropriate pages." (paper, Section 3). For performance, several
/// references are combined into one contiguous copy, which is what this type
/// describes.
///
/// # Examples
///
/// ```
/// use active_pages::CopyRequest;
/// use ap_mem::VAddr;
///
/// let req = CopyRequest { dst: VAddr::new(0x10_0000), src: VAddr::new(0x8_0000), len: 256 };
/// assert_eq!(req.len, 256);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopyRequest {
    /// Destination virtual address.
    pub dst: VAddr,
    /// Source virtual address.
    pub src: VAddr,
    /// Bytes to move.
    pub len: usize,
}

/// One timed event of a page-function execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecEvent {
    /// The logic runs for this many logic-clock cycles.
    Run(u64),
    /// The function blocks on a non-local reference; the processor must
    /// perform this copy before the remaining events proceed.
    InterPage(CopyRequest),
}

/// The timed trace of one activation.
///
/// A page function performs its computation *functionally* on the page bytes
/// and returns an `Execution` describing how long the reconfigurable logic
/// takes — a sequence of run segments possibly interleaved with blocking
/// inter-page references.
///
/// # Examples
///
/// ```
/// use active_pages::Execution;
///
/// let e = Execution::run(1000);
/// assert_eq!(e.total_logic_cycles(), 1000);
/// assert!(e.copies().next().is_none());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Execution {
    events: Vec<ExecEvent>,
}

impl Execution {
    /// An execution consisting of one uninterrupted run segment.
    pub fn run(logic_cycles: u64) -> Self {
        Execution { events: vec![ExecEvent::Run(logic_cycles)] }
    }

    /// An empty execution (the store did not trigger real work).
    pub fn empty() -> Self {
        Execution::default()
    }

    /// Builder: append a run segment.
    pub fn then_run(mut self, logic_cycles: u64) -> Self {
        self.events.push(ExecEvent::Run(logic_cycles));
        self
    }

    /// Builder: append a blocking inter-page reference.
    pub fn then_copy(mut self, req: CopyRequest) -> Self {
        self.events.push(ExecEvent::InterPage(req));
        self
    }

    /// The ordered event list.
    pub fn events(&self) -> &[ExecEvent] {
        &self.events
    }

    /// Sum of all run segments, in logic-clock cycles.
    pub fn total_logic_cycles(&self) -> u64 {
        self.events
            .iter()
            .map(|e| match e {
                ExecEvent::Run(c) => *c,
                ExecEvent::InterPage(_) => 0,
            })
            .sum()
    }

    /// Iterator over the inter-page copies in order.
    pub fn copies(&self) -> impl Iterator<Item = &CopyRequest> {
        self.events.iter().filter_map(|e| match e {
            ExecEvent::InterPage(req) => Some(req),
            ExecEvent::Run(_) => None,
        })
    }
}

/// A set of functions bound to a page group — the paper's `AP_functions`.
///
/// Implementations perform the page computation directly on the page bytes
/// (so results are real data the processor will later read) and report its
/// cost in *logic-clock* cycles, derived from each circuit's datapath: the
/// RADram reference design moves at most 32 bits between logic and subarray
/// per logic cycle.
///
/// Activation follows the paper's protocol: the processor performs an
/// ordinary write to an application-defined location (our convention: control
/// word [`crate::sync::CMD`]); the bound function — which conceptually polls
/// that synchronization variable — then executes.
///
/// Implementations also report their logic-element footprint so the host can
/// enforce the 256-LE-per-page budget of the RADram design.
///
/// Functions are `Send + Sync`: the hosting memory system may execute many
/// pages of a group concurrently on host threads (each page owning a
/// disjoint 512 KB slice of backing RAM), so the shared function object must
/// be safe to call from several threads at once. Implementations are
/// typically stateless unit structs; any caches they keep must be
/// thread-safe (`OnceLock`, atomics).
pub trait PageFunction: fmt::Debug + Send + Sync {
    /// Short name used in diagnostics and synthesis reports.
    fn name(&self) -> &'static str;

    /// Logic elements the synthesized circuit occupies (Table 3).
    fn logic_elements(&self) -> u32;

    /// Returns true if a store to control word `word` with `value` starts an
    /// activation. The default convention is any store to [`crate::sync::CMD`].
    fn triggers(&self, word: usize, value: u32) -> bool {
        let _ = value;
        word == crate::sync::CMD
    }

    /// Non-local references this activation needs *before* it can compute.
    ///
    /// A function whose references cannot be satisfied by its local page
    /// "blocks and raises a processor interrupt" (paper, Section 3); the
    /// hosting memory system satisfies the returned copies — by processor
    /// mediation or, as a Section 10 extension, by dedicated in-chip
    /// hardware — and only then runs [`PageFunction::execute`]. The default
    /// is fully local computation.
    fn inter_page_requests(&self, page: &PageSlice<'_>) -> Vec<CopyRequest> {
        let _ = page;
        Vec::new()
    }

    /// Performs the page computation functionally and returns its timing.
    ///
    /// The implementation must set [`crate::sync::STATUS`] to
    /// [`crate::sync::DONE`] (and publish any results in the `RESULT` words)
    /// before returning, mirroring the paper's functions that "write to
    /// another set of synchronization variables to indicate the data is
    /// ready".
    fn execute(&self, page: &mut PageSlice<'_>) -> Execution;

    /// The page-relative byte ranges [`PageFunction::execute`] may touch, as
    /// a statically declared over-approximation.
    ///
    /// The parallel executor uses this for its race checks: a batch whose
    /// members' declarations overlap in a write is reported (RC202) and run
    /// sequentially, and the dynamic sanitizer (`AP_SANITIZE=1`) verifies
    /// every recorded access stays inside the declaration. The default —
    /// honest ignorance — proves nothing, so such a batch relies on the
    /// runtime fallbacks alone.
    ///
    /// Implementations must *over*-declare: claiming less than `execute`
    /// touches turns the sanitizer's RC204 check into an error.
    fn footprint(&self) -> ap_lint::footprint::StaticFootprint {
        ap_lint::footprint::StaticFootprint::Unknown
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn execution_builder_accumulates() {
        let req = CopyRequest { dst: VAddr::new(8), src: VAddr::new(0), len: 4 };
        let e = Execution::run(10).then_copy(req).then_run(5);
        assert_eq!(e.total_logic_cycles(), 15);
        assert_eq!(e.copies().count(), 1);
        assert_eq!(e.events().len(), 3);
    }

    #[test]
    fn empty_execution() {
        let e = Execution::empty();
        assert_eq!(e.total_logic_cycles(), 0);
        assert!(e.events().is_empty());
    }

    #[test]
    fn default_trigger_is_cmd_word() {
        #[derive(Debug)]
        struct F;
        impl PageFunction for F {
            fn name(&self) -> &'static str {
                "f"
            }
            fn logic_elements(&self) -> u32 {
                1
            }
            fn execute(&self, _page: &mut PageSlice<'_>) -> Execution {
                Execution::empty()
            }
        }
        let f = F;
        assert!(f.triggers(crate::sync::CMD, 123));
        assert!(!f.triggers(crate::sync::PARAM, 123));
    }
}

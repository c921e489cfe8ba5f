//! The full-system simulator: processor + caches + (optionally) RADram.

use crate::config::RadramConfig;
use crate::state::{BlockedExec, PageState};
use crate::stats::SystemStats;
use active_pages::{
    sync, ActivePageMemory, Execution, GroupId, PageFunction, PageId, PageInfo, PageSlice,
    PAGE_SIZE,
};
use ap_cpu::mmx::MmxOp;
use ap_cpu::{Cpu, ExecMode};
use ap_lint::footprint::{self as footprint, PageFootprint, StaticFootprint};
use ap_lint::Report;
use ap_mem::{AccessTap, VAddr};
use ap_trace::Subsystem::Radram as TRACE_RAD;
use std::collections::HashSet;
use std::sync::Arc;

const PAGE_SHIFT: u32 = 19; // 512 KB pages
const PAGE_MASK: u64 = PAGE_SIZE as u64 - 1;

/// Host threads a parallel batch runs on: the page-thread budget capped at
/// the host's cores. Batch eligibility and execution share this one rule,
/// so an unaudited batch never pays for deferral and merge only to run
/// inline.
fn page_threads() -> usize {
    active_pages::parallel::effective_threads(active_pages::parallel::thread_budget())
}

/// Counters describing how the parallel executor classified its batches.
///
/// These are host-side audit numbers, not simulation state: a sequential
/// run never classifies batches, so they differ between bit-identical
/// parallel and sequential runs and deliberately stay out of
/// [`SystemStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RaceAudit {
    /// Batches whose member footprints were all statically proven
    /// page-local (sanitizer recording skipped).
    pub proven_batches: u64,
    /// Batches with at least one unknown or escaping footprint (runtime
    /// fallbacks kept; sanitized when the sanitizer is on).
    pub unknown_batches: u64,
    /// Batches sent to the sequential path because their declared write
    /// footprints statically overlap (RC202).
    pub overlap_rejects: u64,
}

/// One page's share of a batched group activation: optional parameter-word
/// writes followed by a command-word store (see
/// [`System::activate_pages`]).
#[derive(Debug, Clone)]
pub struct PageActivation {
    /// Base address of the target page.
    pub page_base: VAddr,
    /// `(control word, value)` pairs written before the command store.
    pub params: Vec<(usize, u32)>,
    /// Value stored to [`sync::CMD`].
    pub cmd: u32,
}

impl PageActivation {
    /// An activation with no parameter writes.
    pub fn new(page_base: VAddr, cmd: u32) -> Self {
        PageActivation { page_base, params: Vec::new(), cmd }
    }

    /// Builder: prepend a control-word write to the command store.
    pub fn with_param(mut self, word: usize, v: u32) -> Self {
        self.params.push((word, v));
        self
    }
}

/// A page execution deferred by the batched activation path: all of its
/// processor-visible bookkeeping (clock, counters, dispatch events, cache
/// invalidation) already happened at the sequential instants; only the
/// functional `execute` and its timeline merge remain.
#[derive(Debug)]
struct DeferredExec {
    pid: u32,
    info: PageInfo,
    func: Arc<dyn PageFunction>,
    /// Logic start time recorded at dispatch (execution never advances the
    /// processor clock, so this equals the sequential schedule start).
    start: u64,
    /// The triggering store's suppressed `ctrl.write` span, re-emitted after
    /// this page's `page.run` spans so per-page ring order matches the
    /// sequential trace byte for byte.
    ctrl_event: Option<ap_trace::Event>,
}

/// In-flight state of one [`System::activate_pages`] batch.
#[derive(Debug, Default)]
struct BatchState {
    deferred: Vec<DeferredExec>,
    deferred_pids: HashSet<u32>,
    /// Record per-page access logs and cross-check them when the batch
    /// completes (set when the sanitizer is on).
    sanitize: bool,
}

impl BatchState {
    /// Empties the state while keeping its allocations, ready for reuse by
    /// the next batch.
    fn recycled(mut self) -> Self {
        self.deferred.clear();
        self.deferred_pids.clear();
        self.sanitize = false;
        self
    }
}

#[derive(Debug, Default)]
struct Counters {
    non_overlap: u64,
    activations: u64,
    interrupt_batches: u64,
    interpage_copies: u64,
    copied_bytes: u64,
    rebinds: u64,
    logic_busy: u64,
}

#[derive(Debug)]
struct Rad {
    table: active_pages::PageTable,
    pages: Vec<PageState>,
    frames: Vec<Option<u32>>,
    /// Page ids blocked on an inter-page reference, in raise order.
    pending: Vec<u32>,
    /// Reusable ready-list buffer for [`System::service_raised`] (avoids a
    /// fresh allocation on this hot path every service call).
    scratch: Vec<u32>,
    counters: Counters,
}

/// A simulated uniprocessor workstation with either a conventional memory
/// system or a RADram Active-Page memory system.
///
/// Applications drive the system through instrumented operations (loads,
/// stores, ALU/FP work, branches); the Active-Page interface of the paper is
/// available through [`System::ap_alloc`], [`System::ap_bind`] and ordinary
/// stores to per-page synchronization variables ([`System::activate`],
/// [`System::wait_done`] are thin helpers over those stores and loads).
///
/// See the crate-level example for an end-to-end activation.
#[derive(Debug)]
pub struct System {
    cpu: Cpu,
    cfg: RadramConfig,
    rad: Option<Rad>,
    /// Per-instance sequential override.
    sequential: bool,
    /// Per-instance sanitizer switch (seeded from the `sanitize` setting).
    sanitize: bool,
    /// Race diagnostics accumulated by the sanitizer and the static batch
    /// check (RC202/RC204/RC205).
    race: Report,
    /// Batch-classification counters (see [`RaceAudit`]).
    audit: RaceAudit,
    /// Deferral state while a batched activation is in flight.
    batch: Option<BatchState>,
    /// The previous batch's emptied state, kept so its `deferred` /
    /// `deferred_pids` allocations are reused instead of reallocated on
    /// every activation (million-batch runs churn otherwise).
    batch_spare: Option<BatchState>,
    /// Host timestamp of the open kernel region ([`System::kernel_start`]).
    kernel_t0: Option<std::time::Instant>,
}

impl System {
    /// Creates a conventional-memory system (the baseline in every
    /// experiment) on the execution tier `mode` selects (see [`ExecMode`];
    /// fast estimates cycles instead of modeling every access). Active-Page
    /// calls panic on this system.
    pub fn conventional_mode(cfg: RadramConfig, mode: ExecMode) -> Self {
        System {
            cpu: Cpu::with_mode(cfg.cpu.clone(), cfg.ram_capacity, mode),
            cfg,
            rad: None,
            sequential: false,
            sanitize: active_pages::settings::with(|s| s.sanitize),
            race: Report::new("ap-race"),
            audit: RaceAudit::default(),
            batch: None,
            batch_spare: None,
            kernel_t0: None,
        }
    }

    /// Creates a system whose memory implements Active Pages on RADram.
    pub fn radram(cfg: RadramConfig) -> Self {
        Self::radram_mode(cfg, ExecMode::Accurate)
    }

    /// Creates an Active-Page system on the execution tier `mode` selects.
    pub fn radram_mode(cfg: RadramConfig, mode: ExecMode) -> Self {
        let frames = cfg.ram_capacity >> PAGE_SHIFT;
        let rad = Rad {
            table: active_pages::PageTable::new(),
            pages: Vec::new(),
            frames: vec![None; frames],
            pending: Vec::new(),
            scratch: Vec::new(),
            counters: Counters::default(),
        };
        System { rad: Some(rad), ..Self::conventional_mode(cfg, mode) }
    }

    /// Pins this instance to the sequential activation path (or releases
    /// it). Parallel and sequential runs are bit-identical in simulation
    /// terms; this switch exists as the determinism oracle and for
    /// single-core hosts.
    pub fn set_sequential(&mut self, on: bool) {
        self.sequential = on;
    }

    /// Turns the dynamic access sanitizer on (or off) for this instance
    /// (a new instance starts from the `sanitize` setting, `AP_SANITIZE`).
    pub fn set_sanitize(&mut self, on: bool) {
        self.sanitize = on;
    }

    /// The race diagnostics (RC202/RC204/RC205) accumulated so far.
    pub fn race_report(&self) -> &Report {
        &self.race
    }

    /// How the parallel executor classified its batches so far.
    pub fn race_audit(&self) -> RaceAudit {
        self.audit
    }

    /// Returns the system configuration.
    pub fn config(&self) -> &RadramConfig {
        &self.cfg
    }

    /// Which execution tier this system runs on.
    pub fn mode(&self) -> ExecMode {
        self.cpu.mode()
    }

    /// Current simulated time in CPU cycles (1 ns at the 1 GHz reference).
    #[inline]
    pub fn now(&self) -> u64 {
        self.cpu.now()
    }

    /// Marks the start of a kernel region: stamps a host wall-clock
    /// timestamp (drained by [`crate::take_kernel_host_secs`] when the
    /// matching [`System::kernel_region`] closes it) and returns the current
    /// simulated time, so apps can write `let t0 = sys.kernel_start();`
    /// where they previously sampled [`System::now`].
    pub fn kernel_start(&mut self) -> u64 {
        self.kernel_t0 = Some(std::time::Instant::now());
        self.cpu.now()
    }

    /// Cycles elapsed since `t0`, emitted as a traced `kernel.region` span.
    /// Apps call this exactly where they measure their kernel region, so an
    /// exported timeline carries the same envelope the aggregate
    /// `kernel_cycles` counter reports (the event stream alone undercounts
    /// by whatever trailing work emits no event). Closes the host-time
    /// window an earlier [`System::kernel_start`] opened; simulated results
    /// are unaffected.
    pub fn kernel_region(&mut self, t0: u64) -> u64 {
        if let Some(start) = self.kernel_t0.take() {
            crate::hosttime::add_kernel_secs(start.elapsed().as_secs_f64());
        }
        let kernel = self.cpu.now() - t0;
        ap_trace::complete(TRACE_RAD, "kernel.region", t0, kernel, 0, 0);
        kernel
    }

    /// Cumulative processor-memory non-overlap stall cycles so far (zero on
    /// a conventional system). Cheap accessor for phase accounting.
    #[inline]
    pub fn non_overlap_cycles(&self) -> u64 {
        self.rad.as_ref().map_or(0, |r| r.counters.non_overlap)
    }

    /// Allocates ordinary (non-Active-Page) memory.
    pub fn ram_alloc(&mut self, len: usize, align: u64) -> VAddr {
        self.cpu.ram.alloc(len, align)
    }

    /// Whole-run statistics snapshot.
    pub fn stats(&self) -> SystemStats {
        let mut s = SystemStats { cpu: self.cpu.stats(), ..SystemStats::default() };
        if let Some(rad) = &self.rad {
            s.non_overlap_cycles = rad.counters.non_overlap;
            s.activations = rad.counters.activations;
            s.interrupt_batches = rad.counters.interrupt_batches;
            s.interpage_copies = rad.counters.interpage_copies;
            s.copied_bytes = rad.counters.copied_bytes;
            s.rebinds = rad.counters.rebinds;
            s.logic_busy_cycles = rad.counters.logic_busy;
        }
        s.race_errors = self.race.errors() as u64;
        s.race_warnings = self.race.warnings() as u64;
        s
    }

    // ---- processor compute operations (pass-through) --------------------

    /// Executes `n` single-cycle integer operations.
    #[inline]
    pub fn alu(&mut self, n: u64) {
        self.cpu.alu(n);
    }

    /// Executes one integer multiply.
    #[inline]
    pub fn mul(&mut self) {
        self.cpu.mul();
    }

    /// Executes one integer divide.
    #[inline]
    pub fn div(&mut self) {
        self.cpu.div();
    }

    /// Executes `n` pipelined floating-point operations.
    #[inline]
    pub fn flop(&mut self, n: u64) {
        self.cpu.flop(n);
    }

    /// Executes a conditional branch; returns `taken`.
    #[inline]
    pub fn branch(&mut self, site: u32, taken: bool) -> bool {
        self.cpu.branch(site, taken)
    }

    /// Executes one register-to-register MMX operation.
    #[inline]
    pub fn mmx(&mut self, op: MmxOp, a: u64, b: u64) -> u64 {
        self.cpu.mmx(op, a, b)
    }

    // ---- routed memory operations ----------------------------------------

    #[inline]
    fn lookup(&self, addr: VAddr) -> Option<(u32, usize)> {
        let rad = self.rad.as_ref()?;
        let frame = (addr.get() >> PAGE_SHIFT) as usize;
        let pid = *rad.frames.get(frame)?;
        pid.map(|p| (p, (addr.get() & PAGE_MASK) as usize))
    }

    /// Pre-access hook. Waits out a busy page, then returns `true` when the
    /// address lies in a page's control area — the caller must charge an
    /// uncached access and perform a raw RAM transfer instead of a cached
    /// access.
    #[inline]
    fn pre_access(&mut self, addr: VAddr) -> bool {
        match self.lookup(addr) {
            Some((pid, offset)) => {
                self.wait_page_idle(pid);
                offset < sync::CTRL_SIZE
            }
            None => false,
        }
    }

    /// After a 32-bit control-area store: starts the bound function if this
    /// word/value combination triggers it.
    fn maybe_trigger(&mut self, addr: VAddr, value: u32) {
        if !addr.get().is_multiple_of(4) {
            return;
        }
        let Some((pid, offset)) = self.lookup(addr) else {
            return;
        };
        let triggers = {
            let rad = self.rad.as_ref().expect("routed access without RADram");
            let entry = rad.table.entry(PageId::new(pid));
            rad.table.function_of(entry.group).map(|f| f.triggers(offset / 4, value))
        };
        if triggers == Some(true) {
            self.activate_page(pid);
        }
    }

    /// Loads a byte.
    #[inline]
    pub fn load_u8(&mut self, addr: VAddr) -> u8 {
        if self.pre_access(addr) {
            self.cpu.charge_uncached_access(false);
            return self.cpu.ram.read_u8(addr);
        }
        self.cpu.load_u8(addr)
    }

    /// Loads a 16-bit word.
    #[inline]
    pub fn load_u16(&mut self, addr: VAddr) -> u16 {
        if self.pre_access(addr) {
            self.cpu.charge_uncached_access(false);
            return self.cpu.ram.read_u16(addr);
        }
        self.cpu.load_u16(addr)
    }

    /// Loads a 32-bit word.
    #[inline]
    pub fn load_u32(&mut self, addr: VAddr) -> u32 {
        if self.pre_access(addr) {
            self.cpu.charge_uncached_access(false);
            return self.cpu.ram.read_u32(addr);
        }
        self.cpu.load_u32(addr)
    }

    /// Loads a 64-bit word.
    #[inline]
    pub fn load_u64(&mut self, addr: VAddr) -> u64 {
        if self.pre_access(addr) {
            self.cpu.charge_uncached_access(false);
            return self.cpu.ram.read_u64(addr);
        }
        self.cpu.load_u64(addr)
    }

    /// Loads a double.
    #[inline]
    pub fn load_f64(&mut self, addr: VAddr) -> f64 {
        if self.pre_access(addr) {
            self.cpu.charge_uncached_access(false);
            return self.cpu.ram.read_f64(addr);
        }
        self.cpu.load_f64(addr)
    }

    /// Stores a byte.
    #[inline]
    pub fn store_u8(&mut self, addr: VAddr, v: u8) {
        if self.pre_access(addr) {
            self.cpu.charge_uncached_access(true);
            self.cpu.ram.write_u8(addr, v);
            return;
        }
        self.cpu.store_u8(addr, v);
    }

    /// Stores a 16-bit word.
    #[inline]
    pub fn store_u16(&mut self, addr: VAddr, v: u16) {
        if self.pre_access(addr) {
            self.cpu.charge_uncached_access(true);
            self.cpu.ram.write_u16(addr, v);
            return;
        }
        self.cpu.store_u16(addr, v);
    }

    /// Stores a 32-bit word. A store to a bound page's command word starts an
    /// activation, exactly as in the paper ("the processor activates the
    /// pages with an ordinary memory write").
    #[inline]
    pub fn store_u32(&mut self, addr: VAddr, v: u32) {
        if self.pre_access(addr) {
            self.cpu.charge_uncached_access(true);
            self.cpu.ram.write_u32(addr, v);
            self.maybe_trigger(addr, v);
            return;
        }
        self.cpu.store_u32(addr, v);
    }

    /// Stores a 64-bit word (control-area stores of this width never
    /// trigger activations; use 32-bit stores for command words).
    #[inline]
    pub fn store_u64(&mut self, addr: VAddr, v: u64) {
        if self.pre_access(addr) {
            self.cpu.charge_uncached_access(true);
            self.cpu.ram.write_u64(addr, v);
            return;
        }
        self.cpu.store_u64(addr, v);
    }

    /// Stores a double.
    #[inline]
    pub fn store_f64(&mut self, addr: VAddr, v: f64) {
        if self.pre_access(addr) {
            self.cpu.charge_uncached_access(true);
            self.cpu.ram.write_f64(addr, v);
            return;
        }
        self.cpu.store_f64(addr, v);
    }

    // ---- untimed RAM access (setup and verification only) -----------------

    /// Reads simulated memory without consuming simulated time. For test
    /// setup and result verification only — measured kernels must use the
    /// timed loads.
    pub fn ram_read_u8(&self, addr: VAddr) -> u8 {
        self.cpu.ram.read_u8(addr)
    }

    /// Untimed 16-bit read (see [`System::ram_read_u8`]).
    pub fn ram_read_u16(&self, addr: VAddr) -> u16 {
        self.cpu.ram.read_u16(addr)
    }

    /// Untimed 32-bit read (see [`System::ram_read_u8`]).
    pub fn ram_read_u32(&self, addr: VAddr) -> u32 {
        self.cpu.ram.read_u32(addr)
    }

    /// Untimed 64-bit read (see [`System::ram_read_u8`]).
    pub fn ram_read_u64(&self, addr: VAddr) -> u64 {
        self.cpu.ram.read_u64(addr)
    }

    /// Writes simulated memory without consuming simulated time. For
    /// workload setup only — measured kernels must use the timed stores.
    /// Byte data is staged with one call per contiguous region.
    pub fn ram_write_bytes(&mut self, addr: VAddr, bytes: &[u8]) {
        self.ram_slice_mut(addr, bytes.len()).copy_from_slice(bytes);
    }

    /// Untimed 32-bit write (see [`System::ram_write_bytes`]).
    pub fn ram_write_u32(&mut self, addr: VAddr, v: u32) {
        self.cpu.ram.write_u32(addr, v);
    }

    /// Untimed view of `len` bytes at `addr` (see [`System::ram_read_u8`]).
    /// Fast-tier bulk kernels compute over this slice and charge the loop's
    /// instruction stream from counts via [`System::scan_heads`] /
    /// [`System::alu`] / [`System::branch_run`] (DESIGN.md §13).
    pub fn ram_slice(&self, addr: VAddr, len: usize) -> &[u8] {
        self.cpu.ram.slice(addr, len)
    }

    /// Untimed mutable view of `len` bytes at `addr`, the twin of
    /// [`System::ram_slice`]. Workload setup fills typed arrays through it
    /// in bulk (little-endian, like every simulated load and store).
    pub fn ram_slice_mut(&mut self, addr: VAddr, len: usize) -> &mut [u8] {
        self.cpu.ram.slice_mut(addr, len)
    }

    /// Charges a strided record scan in bulk: one filter probe per record
    /// head, `words` 32-bit loads in total (see [`ap_cpu::Cpu::scan_heads`]).
    pub fn scan_heads(&mut self, base: VAddr, records: usize, stride: usize, words: u64) {
        self.cpu.scan_heads(base, records, stride, words);
    }

    /// Charges `n` single-cycle branches at once, predictor untouched (see
    /// [`ap_cpu::Cpu::branch_run`]; fast-tier bulk kernels only).
    pub fn branch_run(&mut self, n: u64) {
        self.cpu.branch_run(n);
    }

    // ---- Active Pages interface ------------------------------------------

    /// Allocates `pages` whole Active Pages into `group`; returns the base
    /// address of the first page. Pages are contiguous.
    ///
    /// # Panics
    ///
    /// Panics on a conventional-memory system.
    pub fn ap_alloc_pages(&mut self, group: GroupId, pages: usize) -> VAddr {
        assert!(pages > 0, "allocating zero pages");
        assert!(self.rad.is_some(), "Active Pages are unavailable on a conventional memory system");
        let base = self.cpu.ram.alloc(pages * PAGE_SIZE, PAGE_SIZE as u64);
        let rad = self.rad.as_mut().unwrap();
        for i in 0..pages {
            let page_base = base + (i * PAGE_SIZE) as u64;
            let pid = rad.table.register_page(group, page_base);
            debug_assert_eq!(pid.index(), rad.pages.len());
            rad.pages.push(PageState::default());
            rad.frames[(page_base.get() >> PAGE_SHIFT) as usize] = Some(pid.index() as u32);
        }
        base
    }

    /// Base address of page `index` within `group`'s allocation order.
    ///
    /// # Panics
    ///
    /// Panics if the group has fewer pages or on a conventional system.
    pub fn group_page_base(&self, group: GroupId, index: usize) -> VAddr {
        let rad = self.rad.as_ref().expect("no Active Pages on a conventional memory system");
        let pid = rad.table.pages_in(group)[index];
        rad.table.entry(pid).base
    }

    /// Number of pages allocated into `group`.
    pub fn group_len(&self, group: GroupId) -> usize {
        self.rad.as_ref().map_or(0, |r| r.table.pages_in(group).len())
    }

    /// Reads control word `word` of the page at `page_base` (uncached).
    pub fn read_ctrl(&mut self, page_base: VAddr, word: usize) -> u32 {
        self.load_u32(page_base + sync::ctrl_offset(word) as u64)
    }

    /// Writes control word `word` of the page at `page_base` (uncached;
    /// writing [`sync::CMD`] triggers the bound function).
    ///
    /// The emitted `ctrl.write` span covers this call's full cycle delta —
    /// including any triggered activation's dispatch overhead — so summing
    /// those spans over a run reproduces the harness's `dispatch_cycles`
    /// measurement (the paper's `T_A · k`).
    pub fn write_ctrl(&mut self, page_base: VAddr, word: usize, v: u32) {
        let t0 = self.cpu.now();
        let addr = page_base + sync::ctrl_offset(word) as u64;
        let pid = self.lookup(addr).map_or(0, |(p, _)| p as u64);
        let deferred_before = self.batch.as_ref().map_or(0, |b| b.deferred.len());
        self.store_u32(addr, v);
        if !ap_trace::enabled(TRACE_RAD) {
            return;
        }
        let event = ap_trace::Event {
            cycle: t0,
            dur: self.cpu.now() - t0,
            subsystem: TRACE_RAD,
            kind: "ctrl.write",
            a: pid,
            b: word as u64,
        };
        if let Some(batch) = self.batch.as_mut() {
            if batch.deferred.len() > deferred_before {
                // This store triggered a deferred execution: hold its span
                // back until the page's `page.run` spans are emitted so the
                // per-page ring keeps the sequential event order.
                batch.deferred.last_mut().unwrap().ctrl_event = Some(event);
                return;
            }
        }
        ap_trace::session::emit(event);
    }

    /// Activates the page at `page_base` by storing `cmd` to its command
    /// word.
    pub fn activate(&mut self, page_base: VAddr, cmd: u32) {
        self.write_ctrl(page_base, sync::CMD, cmd);
    }

    /// Non-blocking status poll: one uncached load of the status word;
    /// returns [`sync::RUNNING`] while the page's logic is busy.
    pub fn poll_status(&mut self, page_base: VAddr) -> u32 {
        self.service_raised();
        let (pid, _) = self.lookup(page_base).expect("poll of a non-Active address");
        let busy = {
            let rad = self.rad.as_ref().unwrap();
            rad.pages[pid as usize].busy_at(self.cpu.now())
        };
        self.cpu.charge_uncached_access(false);
        if busy {
            sync::RUNNING
        } else {
            self.cpu.ram.read_u32(page_base + sync::ctrl_offset(sync::STATUS) as u64)
        }
    }

    /// Blocks (fast-forwarding simulated time) until the page at `page_base`
    /// is idle; stalled cycles are accounted as processor-memory
    /// non-overlap. Services any raised inter-page interrupts on the way.
    pub fn wait_done(&mut self, page_base: VAddr) {
        let (pid, _) = self.lookup(page_base).expect("wait on a non-Active address");
        self.wait_page_idle(pid);
        // One final status read, as the application's poll loop would do.
        self.cpu.charge_uncached_access(false);
    }

    fn wait_page_idle(&mut self, pid: u32) {
        // A deferred execution has not published its schedule yet; deliver
        // it before consulting this page's busy/blocked state.
        if self.batch.as_ref().is_some_and(|b| b.deferred_pids.contains(&pid)) {
            self.flush_deferred();
        }
        loop {
            let now = self.cpu.now();
            let (blocked_raise, busy_until) = {
                let rad = self.rad.as_ref().unwrap();
                let st = &rad.pages[pid as usize];
                (st.blocked.as_ref().map(|b| b.raised_at), st.busy_until)
            };
            if let Some(raised_at) = blocked_raise {
                if raised_at > now {
                    self.stall(pid, raised_at - now);
                }
                self.service_raised();
                continue;
            }
            if busy_until > now {
                self.stall(pid, busy_until - now);
            }
            return;
        }
    }

    fn stall(&mut self, pid: u32, cycles: u64) {
        ap_trace::complete(TRACE_RAD, "sync.stall", self.cpu.now(), cycles, pid as u64, 0);
        self.cpu.advance(cycles);
        if let Some(rad) = self.rad.as_mut() {
            rad.counters.non_overlap += cycles;
        }
    }

    /// Services all pending requests whose raise time has arrived.
    fn service_raised(&mut self) -> usize {
        let now = self.cpu.now();
        let mut ready: Vec<u32> = {
            let rad = self.rad.as_mut().unwrap();
            let mut ready = std::mem::take(&mut rad.scratch);
            ready.clear();
            let pages = &rad.pages;
            // In-place split: `pending` keeps the not-yet-raised ids in
            // order, `ready` collects the raised ones in the same pass.
            rad.pending.retain(|&p| {
                let raised =
                    pages[p as usize].blocked.as_ref().map(|b| b.raised_at <= now).unwrap_or(false);
                if raised {
                    ready.push(p);
                }
                !raised
            });
            ready
        };
        if ready.is_empty() {
            self.rad.as_mut().unwrap().scratch = ready;
            return 0;
        }
        ap_trace::instant(TRACE_RAD, "irq.service", now, ready.len() as u64, 0);
        {
            let rad = self.rad.as_mut().unwrap();
            rad.counters.interrupt_batches += 1;
        }
        match self.cfg.service {
            crate::ServiceMode::Interrupt => self.cpu.advance(self.cfg.interrupt_overhead),
            // Polling: no trap; the processor probes a request register.
            crate::ServiceMode::Polling => self.cpu.charge_uncached_access(false),
        }
        let mut serviced = 0;
        for &pid in &ready {
            let blocked: BlockedExec = {
                let rad = self.rad.as_mut().unwrap();
                rad.pages[pid as usize].blocked.take().expect("ready page must be blocked")
            };
            // A page exposes only `outstanding_refs` references at a time;
            // a longer list needs extra service round trips.
            let rounds = blocked.requests.len().div_ceil(self.cfg.outstanding_refs.max(1));
            if rounds > 1 {
                let extra = (rounds - 1) as u64;
                match self.cfg.service {
                    crate::ServiceMode::Interrupt => {
                        self.cpu.advance(extra * self.cfg.interrupt_overhead);
                    }
                    crate::ServiceMode::Polling => {
                        for _ in 0..extra {
                            self.cpu.charge_uncached_access(false);
                        }
                    }
                }
                let rad = self.rad.as_mut().unwrap();
                rad.counters.interrupt_batches += extra;
            }
            for req in &blocked.requests {
                self.mediate_copy(req.dst, req.src, req.len);
                let rad = self.rad.as_mut().unwrap();
                rad.counters.interpage_copies += 1;
                rad.counters.copied_bytes += req.len as u64;
            }
            serviced += blocked.requests.len();
            if blocked.run_on_service {
                // Pre-declared references: the function body runs now that
                // its non-local data has arrived.
                self.execute_and_schedule(pid);
            } else {
                let resume_at = self.cpu.now();
                self.schedule(pid, resume_at, blocked.rest);
            }
        }
        ready.clear();
        self.rad.as_mut().unwrap().scratch = ready;
        serviced
    }

    /// The processor performs an inter-page copy on behalf of a blocked page:
    /// word loads and stores through the cache hierarchy.
    fn mediate_copy(&mut self, dst: VAddr, src: VAddr, len: usize) {
        let t0 = self.cpu.now();
        let words = len / 4;
        for w in 0..words {
            let v = self.cpu.load_u32(src + (w * 4) as u64);
            self.cpu.store_u32(dst + (w * 4) as u64, v);
        }
        for b in (words * 4)..len {
            let v = self.cpu.load_u8(src + b as u64);
            self.cpu.store_u8(dst + b as u64, v);
        }
        // b = 0: processor-mediated (vs. 1 for the in-chip network).
        ap_trace::complete(TRACE_RAD, "interpage.copy", t0, self.cpu.now() - t0, len as u64, 0);
    }

    fn schedule(&mut self, pid: u32, start: u64, events: Vec<active_pages::ExecEvent>) {
        let divisor = self.cfg.logic_divisor;
        let hardware = self.cfg.comm == crate::CommMode::HardwareCopy;
        let mut t = start;
        for (i, ev) in events.iter().enumerate() {
            match *ev {
                active_pages::ExecEvent::Run(c) => {
                    ap_trace::complete(TRACE_RAD, "page.run", t, c * divisor, pid as u64, 0);
                    t += c * divisor;
                    let rad = self.rad.as_mut().unwrap();
                    rad.counters.logic_busy += c * divisor;
                }
                active_pages::ExecEvent::InterPage(request) => {
                    if hardware {
                        // The in-chip network satisfies the reference with
                        // no processor involvement: one 32-bit word per
                        // logic cycle plus a fixed setup.
                        t += self.hardware_copy(&request);
                        continue;
                    }
                    let rad = self.rad.as_mut().unwrap();
                    rad.pages[pid as usize].blocked = Some(BlockedExec {
                        raised_at: t,
                        requests: vec![request],
                        rest: events[i + 1..].to_vec(),
                        run_on_service: false,
                    });
                    rad.pages[pid as usize].busy_until = t;
                    rad.pending.push(pid);
                    return;
                }
            }
        }
        let rad = self.rad.as_mut().unwrap();
        rad.pages[pid as usize].busy_until = t;
    }

    /// Performs an inter-page copy on the in-chip network; returns its cost
    /// in CPU cycles (the data moves immediately in functional terms).
    fn hardware_copy(&mut self, req: &active_pages::CopyRequest) -> u64 {
        self.cpu.ram.copy(req.dst, req.src, req.len);
        // The destination may be cached by the processor.
        self.cpu.invalidate_range(req.dst, req.len as u64);
        {
            let rad = self.rad.as_mut().unwrap();
            rad.counters.interpage_copies += 1;
            rad.counters.copied_bytes += req.len as u64;
        }
        let cost =
            (req.len as u64).div_ceil(4) * self.cfg.logic_divisor + 4 * self.cfg.logic_divisor;
        // b = 1: carried by the in-chip network, no processor involvement.
        ap_trace::complete(TRACE_RAD, "interpage.copy", self.cpu.now(), cost, req.len as u64, 1);
        cost
    }

    /// Runs the bound function on an idle page and schedules its timing from
    /// the current instant. Inside a batched activation the functional
    /// execution is deferred (it never advances the clock or touches memory
    /// outside its own page, so it can run later — and in parallel with
    /// other pages' executions — without changing any simulated outcome).
    fn execute_and_schedule(&mut self, pid: u32) {
        let (base, group, index_in_group) = {
            let rad = self.rad.as_ref().unwrap();
            let e = rad.table.entry(PageId::new(pid));
            (e.base, e.group, e.index_in_group)
        };
        let func: Arc<dyn PageFunction> = self
            .rad
            .as_ref()
            .unwrap()
            .table
            .function_of(group)
            .expect("activation of a page in an unbound group")
            .clone();
        // In-page logic is about to mutate DRAM behind the caches.
        self.cpu.invalidate_range(base, PAGE_SIZE as u64);
        let info = PageInfo { base, group, index_in_group };
        if let Some(batch) = self.batch.as_mut() {
            batch.deferred_pids.insert(pid);
            batch.deferred.push(DeferredExec {
                pid,
                info,
                func,
                start: self.cpu.now(),
                ctrl_event: None,
            });
            return;
        }
        let execution = {
            let bytes = self.cpu.ram.slice_mut(base, PAGE_SIZE);
            let mut slice = PageSlice::new(bytes, info);
            func.execute(&mut slice)
        };
        let start = self.cpu.now();
        self.schedule(pid, start, execution.events().to_vec());
    }

    fn activate_page(&mut self, pid: u32) {
        let (base, group, index_in_group) = {
            let rad = self.rad.as_ref().unwrap();
            let e = rad.table.entry(PageId::new(pid));
            (e.base, e.group, e.index_in_group)
        };
        let func: Arc<dyn PageFunction> = self
            .rad
            .as_ref()
            .unwrap()
            .table
            .function_of(group)
            .expect("activation of a page in an unbound group")
            .clone();
        // Driver-side dispatch overhead: the processor finishes
        // communicating the request before the page's logic starts (this is
        // the dominant component of the paper's activation time T_A).
        self.cpu.advance(self.cfg.activation_overhead);
        self.rad.as_mut().unwrap().counters.activations += 1;
        ap_trace::instant(TRACE_RAD, "page.dispatch", self.cpu.now(), pid as u64, 0);

        // Pre-declared non-local references (paper Section 3): the function
        // blocks before computing until they are satisfied.
        let requests = {
            let info = PageInfo { base, group, index_in_group };
            let bytes = self.cpu.ram.slice_mut(base, PAGE_SIZE);
            let slice = PageSlice::new(bytes, info);
            func.inter_page_requests(&slice)
        };
        if !requests.is_empty() {
            match self.cfg.comm {
                crate::CommMode::HardwareCopy => {
                    let mut cost = 0;
                    for req in &requests {
                        cost += self.hardware_copy(req);
                    }
                    // The logic idles while the network fills the staging
                    // area, then computes.
                    self.cpu.advance(0);
                    let resume = self.cpu.now() + cost;
                    self.execute_and_schedule_at(pid, resume);
                    return;
                }
                crate::CommMode::ProcessorMediated => {
                    // A blocked activation joins the global pending queue,
                    // whose order earlier deferred pages may contribute to:
                    // deliver all deferred work first, then disable
                    // deferral for the rest of the batch.
                    if self.batch.is_some() {
                        self.flush_deferred();
                        self.batch_spare = self.batch.take().map(BatchState::recycled);
                    }
                    let now = self.cpu.now();
                    let rad = self.rad.as_mut().unwrap();
                    rad.pages[pid as usize].blocked = Some(BlockedExec {
                        raised_at: now,
                        requests,
                        rest: Vec::new(),
                        run_on_service: true,
                    });
                    rad.pages[pid as usize].busy_until = now;
                    rad.pending.push(pid);
                    return;
                }
            }
        }
        self.execute_and_schedule(pid);
    }

    /// Like [`Self::execute_and_schedule`] but the logic starts at `start`
    /// (used when an in-chip copy delays the computation).
    fn execute_and_schedule_at(&mut self, pid: u32, start: u64) {
        let (base, group, index_in_group) = {
            let rad = self.rad.as_ref().unwrap();
            let e = rad.table.entry(PageId::new(pid));
            (e.base, e.group, e.index_in_group)
        };
        let func: Arc<dyn PageFunction> = self
            .rad
            .as_ref()
            .unwrap()
            .table
            .function_of(group)
            .expect("activation of a page in an unbound group")
            .clone();
        self.cpu.invalidate_range(base, PAGE_SIZE as u64);
        let info = PageInfo { base, group, index_in_group };
        let execution = {
            let bytes = self.cpu.ram.slice_mut(base, PAGE_SIZE);
            let mut slice = PageSlice::new(bytes, info);
            func.execute(&mut slice)
        };
        self.schedule(pid, start, execution.events().to_vec());
    }

    // ---- batched (parallel) activation ------------------------------------

    /// Activates every page of `group` with `cmd`, no parameter writes.
    /// Equivalent to calling [`System::activate`] on each page in
    /// allocation order; see [`System::activate_pages`].
    pub fn activate_group(&mut self, group: GroupId, cmd: u32) {
        let batch: Vec<PageActivation> = {
            let rad = self.rad.as_ref().expect("group activation on a conventional memory system");
            rad.table
                .pages_in(group)
                .iter()
                .map(|&pid| PageActivation::new(rad.table.entry(pid).base, cmd))
                .collect()
        };
        self.activate_pages(&batch);
    }

    /// Performs a batch of page activations: for each entry, the parameter
    /// control-word writes followed by the command store, in batch order.
    ///
    /// Simulated semantics are *exactly* those of the equivalent
    /// [`System::write_ctrl`]/[`System::activate`] loop — clock, statistics,
    /// trace events and memory contents are bit-identical. The batch form
    /// exists so the host can run the triggered page functions on a thread
    /// pool: each function owns a disjoint 512 KB slice of backing RAM
    /// (via [`active_pages::split_pages`]) and never advances the simulated
    /// clock, so their results can be merged back deterministically in
    /// batch order. A page-thread budget of 1 (`AP_PAGE_THREADS=1`) or
    /// [`System::set_sequential`] forces the sequential oracle.
    ///
    /// Batches that interact through the pending-request queue — duplicate
    /// pages, already-busy pages, pre-declared inter-page references,
    /// hardware-copy communication — transparently fall back to sequential
    /// processing (wholly or from the first interacting entry onward).
    pub fn activate_pages(&mut self, batch: &[PageActivation]) {
        let Some(sanitize) = self.batch_plan(batch) else {
            for entry in batch {
                for &(word, v) in &entry.params {
                    self.write_ctrl(entry.page_base, word, v);
                }
                self.activate(entry.page_base, entry.cmd);
            }
            return;
        };
        // Phase A: sequential bookkeeping. Every processor-visible effect
        // (uncached charges, dispatch overhead, counters, cache
        // invalidation, trace instants) happens here at its sequential
        // instant; triggered executions are deferred. Under the sanitizer
        // the processor's cached traffic in this window — the only window
        // where it coexists with the deferred executions — is tapped.
        let mut state = self.batch_spare.take().unwrap_or_default().recycled();
        state.sanitize = sanitize;
        self.batch = Some(state);
        if sanitize {
            self.cpu.tap_accesses(true);
        }
        for entry in batch {
            for &(word, v) in &entry.params {
                self.write_ctrl(entry.page_base, word, v);
            }
            self.activate(entry.page_base, entry.cmd);
        }
        let tap = if sanitize { self.cpu.take_tapped() } else { None };
        // `activate_page` clears `self.batch` when an entry had to fall
        // back to inline processing (everything deferred was flushed).
        let Some(state) = self.batch.take() else { return };
        if state.deferred.is_empty() {
            self.batch_spare = Some(state.recycled());
            return;
        }
        // Phase B: run the page functions in parallel over disjoint slices.
        let results = self.execute_parallel(&state.deferred, state.sanitize);
        // Phase C: merge in batch order. `schedule` never advances the
        // clock, so replaying it here yields the sequential timeline.
        for (d, (execution, _)) in state.deferred.iter().zip(&results) {
            self.schedule(d.pid, d.start, execution.events().to_vec());
            if let Some(event) = d.ctrl_event {
                ap_trace::session::emit(event);
            }
        }
        if state.sanitize {
            self.sanitize_batch(&state.deferred, &results, tap);
        }
        self.batch_spare = Some(state.recycled());
    }

    /// Classifies `batch`: `None` sends it down the sequential path,
    /// `Some(sanitize)` takes the deferred/parallel path, recording and
    /// cross-checking accesses when `sanitize` is set.
    ///
    /// The classification is static, from the members' declared
    /// [`PageFunction::footprint`]s: all known and page-local proves the
    /// batch disjoint (the fast-track — production runs need no recording
    /// for it); a statically proven write overlap is reported (RC202) and
    /// rejected to the sequential path; anything unknown keeps the runtime
    /// fallbacks. When the sanitizer is on, every parallel batch is
    /// recorded — proven ones included, since auditing the declared
    /// footprints (dynamic ⊆ static, RC204) is precisely its job.
    fn batch_plan(&mut self, batch: &[PageActivation]) -> Option<bool> {
        if !self.batch_parallel_eligible(batch) {
            return None;
        }
        let mut fps: Vec<(u64, StaticFootprint)> = Vec::with_capacity(batch.len());
        for entry in batch {
            let (pid, _) = self.lookup(entry.page_base).expect("eligible batch resolves");
            let rad = self.rad.as_ref().unwrap();
            let group = rad.table.entry(PageId::new(pid)).group;
            let fp =
                rad.table.function_of(group).map_or(StaticFootprint::Unknown, |f| f.footprint());
            fps.push((entry.page_base.get(), fp));
        }
        let refs: Vec<(u64, &StaticFootprint)> = fps.iter().map(|(b, f)| (*b, f)).collect();
        let errors_before = self.race.errors();
        footprint::check_batch_writes(&refs, &mut self.race);
        if self.race.errors() > errors_before {
            self.audit.overlap_rejects += 1;
            return None;
        }
        let page = PAGE_SIZE as u64;
        let proven = fps.iter().all(|(_, f)| {
            f.known().is_some_and(|k| {
                k.reads.runs().iter().chain(k.writes.runs()).all(|&(_, end)| end <= page)
            })
        });
        if proven {
            self.audit.proven_batches += 1;
        } else {
            self.audit.unknown_batches += 1;
        }
        Some(self.sanitize)
    }

    /// Cross-checks a completed sanitized batch: every page's recorded
    /// accesses against its declared footprint (RC204) and all
    /// participants — pages at their bases plus the processor's tapped
    /// cached traffic — against each other (RC205).
    fn sanitize_batch(
        &mut self,
        deferred: &[DeferredExec],
        results: &[(Execution, Option<PageFootprint>)],
        tap: Option<AccessTap>,
    ) {
        let labels: Vec<String> =
            deferred.iter().map(|d| format!("{}@page{}", d.func.name(), d.pid)).collect();
        for (d, (label, (_, log))) in deferred.iter().zip(labels.iter().zip(results)) {
            if let Some(log) = log {
                footprint::check_dynamic_within(label, log, &d.func.footprint(), &mut self.race);
            }
        }
        let mut cpu_fp = PageFootprint::new();
        if let Some(tap) = &tap {
            for a in tap.accesses() {
                cpu_fp.record(a.addr, a.len as u64, a.write);
            }
            if tap.dropped() > 0 {
                // Tap overflow: degrade to "the processor may have touched
                // anything" rather than under-report.
                cpu_fp.record(0, u64::MAX, false);
                cpu_fp.record(0, u64::MAX, true);
            }
        }
        let mut parts: Vec<(&str, u64, &PageFootprint)> = deferred
            .iter()
            .zip(labels.iter().zip(results))
            .filter_map(|(d, (label, (_, log)))| {
                log.as_ref().map(|log| (label.as_str(), d.info.base.get(), log))
            })
            .collect();
        if !cpu_fp.is_empty() {
            parts.push(("cpu", 0, &cpu_fp));
        }
        footprint::check_dynamic_overlap(&parts, &mut self.race);
    }

    /// True when `batch` can take the deferred/parallel path: Active-Page
    /// memory with processor-mediated communication, no sequential
    /// override, a page-thread budget of at least two, and a batch of
    /// distinct, unblocked pages with an empty pending queue. Pages that are
    /// merely *busy* are fine — phase A stalls them out inline exactly as
    /// the sequential path would.
    ///
    /// The deferral must also buy something: at least two host threads to
    /// run on, or the race audit. A sanitized batch defers even on a 1-core
    /// host, where it runs inline, so the audit never depends on the host's
    /// core count.
    fn batch_parallel_eligible(&self, batch: &[PageActivation]) -> bool {
        let Some(rad) = self.rad.as_ref() else { return false };
        if batch.len() < 2
            || self.sequential
            || self.cfg.comm == crate::CommMode::HardwareCopy
            || active_pages::parallel::thread_budget() < 2
            || (page_threads() < 2 && !self.sanitize)
            || !rad.pending.is_empty()
        {
            return false;
        }
        let mut seen = HashSet::with_capacity(batch.len());
        batch.iter().all(|entry| match self.lookup(entry.page_base) {
            Some((pid, _)) => seen.insert(pid) && rad.pages[pid as usize].blocked.is_none(),
            None => false,
        })
    }

    /// Delivers every deferred execution sequentially (in deferral order):
    /// runs the function, schedules its timeline from the recorded dispatch
    /// instant and emits the held-back `ctrl.write` span.
    fn flush_deferred(&mut self) {
        let Some(mut state) = self.batch.take() else { return };
        for d in state.deferred.drain(..) {
            let (execution, log) = {
                let bytes = self.cpu.ram.slice_mut(d.info.base, PAGE_SIZE);
                let mut slice = PageSlice::new(bytes, d.info);
                if state.sanitize {
                    slice.record_accesses();
                }
                let execution = d.func.execute(&mut slice);
                (execution, slice.take_access_log())
            };
            if let Some(log) = &log {
                // Flushed executions run inline (no concurrency), so only
                // the dynamic-within-static claim needs checking.
                let label = format!("{}@page{}", d.func.name(), d.pid);
                footprint::check_dynamic_within(&label, log, &d.func.footprint(), &mut self.race);
            }
            self.schedule(d.pid, d.start, execution.events().to_vec());
            if let Some(event) = d.ctrl_event {
                ap_trace::session::emit(event);
            }
        }
        state.deferred_pids.clear();
        self.batch = Some(state);
    }

    /// Runs the deferred page functions in parallel over disjoint slices.
    ///
    /// `(index, slice)` jobs go onto the persistent page-worker pool
    /// ([`active_pages::parallel::run_batch`]), which claims them through an
    /// atomic cursor with adaptive chunking and hands results back keyed by
    /// deferral order regardless of which thread ran them, so the
    /// deterministic merge is thread-count independent. Returns one
    /// `(Execution, access log)` per deferred entry, in order; the log is
    /// `Some` only when `sanitize` asked for recording.
    fn execute_parallel(
        &mut self,
        deferred: &[DeferredExec],
        sanitize: bool,
    ) -> Vec<(Execution, Option<PageFootprint>)> {
        if deferred.is_empty() {
            return Vec::new();
        }
        // Carve disjoint page views out of one covering RAM region (pages
        // need not be contiguous; `split_pages` skips the gaps).
        let mut order: Vec<usize> = (0..deferred.len()).collect();
        order.sort_by_key(|&i| deferred[i].info.base.get());
        let lo = deferred[order[0]].info.base;
        let hi = deferred[*order.last().unwrap()].info.base.get() + PAGE_SIZE as u64;
        let infos: Vec<PageInfo> = order.iter().map(|&i| deferred[i].info).collect();
        let region = self.cpu.ram.slice_mut(lo, (hi - lo.get()) as usize);
        let slices = active_pages::split_pages(region, lo, &infos);

        let threads = page_threads();
        let jobs: Vec<(usize, PageSlice<'_>)> = order.into_iter().zip(slices).collect();
        let mut executed = active_pages::parallel::run_batch(jobs, threads, |(i, mut slice)| {
            if sanitize {
                slice.record_accesses();
            }
            let execution = deferred[i].func.execute(&mut slice);
            (i, execution, slice.take_access_log())
        });
        executed.sort_unstable_by_key(|&(i, ..)| i);
        executed.into_iter().map(|(_, execution, log)| (execution, log)).collect()
    }
}

impl ActivePageMemory for System {
    fn ap_alloc(&mut self, group: GroupId, bytes: usize) -> VAddr {
        let pages = bytes.div_ceil(PAGE_SIZE).max(1);
        self.ap_alloc_pages(group, pages)
    }

    fn ap_bind(&mut self, group: GroupId, functions: Arc<dyn PageFunction>) {
        assert!(
            functions.logic_elements() <= self.cfg.les_per_page,
            "circuit '{}' needs {} LEs but a RADram page provides {}",
            functions.name(),
            functions.logic_elements(),
            self.cfg.les_per_page
        );
        let rad = self.rad.as_mut().expect("AP_bind on a conventional memory system");
        let pages = rad.table.pages_in(group).len() as u64;
        let rebound = rad.table.bind(group, functions);
        if rebound {
            rad.counters.rebinds += 1;
            let cost = self.cfg.rebind_cost * pages;
            ap_trace::complete(TRACE_RAD, "page.rebind", self.cpu.now(), cost, pages, 0);
            self.cpu.advance(cost);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use active_pages::Execution;

    /// Sums `PARAM` body words into `RESULT`, one word per logic cycle.
    #[derive(Debug)]
    struct Summer;
    impl PageFunction for Summer {
        fn name(&self) -> &'static str {
            "summer"
        }
        fn logic_elements(&self) -> u32 {
            64
        }
        fn execute(&self, page: &mut PageSlice<'_>) -> Execution {
            let n = page.ctrl(sync::PARAM) as usize;
            let mut sum = 0u32;
            for i in 0..n {
                sum = sum.wrapping_add(page.read_u32(sync::BODY_OFFSET + 4 * i));
            }
            page.set_ctrl(sync::RESULT, sum);
            page.set_ctrl(sync::STATUS, sync::DONE);
            Execution::run(n as u64)
        }
    }

    /// Blocks on a copy from the previous page's body before summing.
    #[derive(Debug)]
    struct NeighborSummer;
    impl PageFunction for NeighborSummer {
        fn name(&self) -> &'static str {
            "neighbor-summer"
        }
        fn logic_elements(&self) -> u32 {
            80
        }
        fn execute(&self, page: &mut PageSlice<'_>) -> Execution {
            let base = page.info().base;
            let prev = VAddr::new(base.get() - PAGE_SIZE as u64);
            page.set_ctrl(sync::STATUS, sync::DONE);
            Execution::run(10)
                .then_copy(active_pages::CopyRequest {
                    dst: base + sync::BODY_OFFSET as u64,
                    src: prev + sync::BODY_OFFSET as u64,
                    len: 8,
                })
                .then_run(5)
        }
    }

    fn setup(pages: usize) -> (System, VAddr, GroupId) {
        let cfg = RadramConfig::reference().with_ram_capacity(16 << 20);
        let mut sys = System::radram(cfg);
        let g = GroupId::new(0);
        let base = sys.ap_alloc_pages(g, pages);
        (sys, base, g)
    }

    #[test]
    fn activation_computes_and_takes_logic_time() {
        let (mut sys, base, g) = setup(1);
        sys.ap_bind(g, Arc::new(Summer));
        for i in 0..8u64 {
            sys.store_u32(base + sync::BODY_OFFSET as u64 + 4 * i, 5);
        }
        sys.write_ctrl(base, sync::PARAM, 8);
        let t0 = sys.now();
        sys.activate(base, 1);
        assert_eq!(sys.poll_status(base), sync::RUNNING);
        sys.wait_done(base);
        // 8 words at divisor 10 = 80 cycles of logic time beyond dispatch.
        assert!(sys.now() - t0 >= 80);
        assert_eq!(sys.read_ctrl(base, sync::RESULT), 40);
        assert_eq!(sys.stats().activations, 1);
        assert!(sys.stats().non_overlap_cycles > 0);
    }

    #[test]
    fn poll_after_completion_sees_done() {
        let (mut sys, base, g) = setup(1);
        sys.ap_bind(g, Arc::new(Summer));
        sys.write_ctrl(base, sync::PARAM, 1);
        sys.activate(base, 1);
        sys.wait_done(base);
        assert_eq!(sys.poll_status(base), sync::DONE);
    }

    #[test]
    fn data_access_to_busy_page_stalls() {
        let (mut sys, base, g) = setup(1);
        sys.ap_bind(g, Arc::new(Summer));
        sys.write_ctrl(base, sync::PARAM, 1000);
        sys.activate(base, 1);
        let before = sys.stats().non_overlap_cycles;
        // Touch the body while the logic runs: must wait it out.
        let _ = sys.load_u32(base + sync::BODY_OFFSET as u64);
        assert!(sys.stats().non_overlap_cycles > before);
    }

    #[test]
    fn interpage_reference_is_processor_mediated() {
        let (mut sys, base, g) = setup(2);
        sys.ap_bind(g, Arc::new(NeighborSummer));
        let page1 = base + PAGE_SIZE as u64;
        // Seed page 0's body.
        sys.store_u32(base + sync::BODY_OFFSET as u64, 0x11);
        sys.store_u32(base + sync::BODY_OFFSET as u64 + 4, 0x22);
        sys.activate(page1, 1);
        sys.wait_done(page1);
        let s = sys.stats();
        assert_eq!(s.interrupt_batches, 1);
        assert_eq!(s.interpage_copies, 1);
        assert_eq!(s.copied_bytes, 8);
        // The copy really happened.
        assert_eq!(sys.load_u32(page1 + sync::BODY_OFFSET as u64), 0x11);
    }

    #[test]
    fn rebind_charges_reconfiguration() {
        let (mut sys, _base, g) = setup(4);
        sys.ap_bind(g, Arc::new(Summer));
        let t0 = sys.now();
        sys.ap_bind(g, Arc::new(Summer));
        assert_eq!(sys.stats().rebinds, 1);
        assert_eq!(sys.now() - t0, 4 * RadramConfig::reference().rebind_cost);
    }

    #[test]
    #[should_panic(expected = "LEs")]
    fn over_budget_circuit_rejected() {
        #[derive(Debug)]
        struct Huge;
        impl PageFunction for Huge {
            fn name(&self) -> &'static str {
                "huge"
            }
            fn logic_elements(&self) -> u32 {
                1000
            }
            fn execute(&self, _p: &mut PageSlice<'_>) -> Execution {
                Execution::empty()
            }
        }
        let (mut sys, _base, g) = setup(1);
        sys.ap_bind(g, Arc::new(Huge));
    }

    #[test]
    #[should_panic(expected = "conventional")]
    fn conventional_rejects_ap_alloc() {
        let cfg = RadramConfig::reference().with_ram_capacity(4 << 20);
        let mut sys = System::conventional_mode(cfg, ExecMode::Accurate);
        sys.ap_alloc_pages(GroupId::new(0), 1);
    }

    #[test]
    fn conventional_loads_are_plain() {
        let cfg = RadramConfig::reference().with_ram_capacity(4 << 20);
        let mut sys = System::conventional_mode(cfg, ExecMode::Accurate);
        let a = sys.ram_alloc(64, 64);
        sys.store_u32(a, 9);
        assert_eq!(sys.load_u32(a), 9);
        let s = sys.stats();
        assert_eq!(s.activations, 0);
        assert_eq!(s.cpu.mem.uncached, 0);
    }

    #[test]
    fn group_page_base_walks_allocation_order() {
        let (sys, base, g) = setup(3);
        assert_eq!(sys.group_page_base(g, 0), base);
        assert_eq!(sys.group_page_base(g, 2) - base, 2 * PAGE_SIZE as u64);
        assert_eq!(sys.group_len(g), 3);
    }

    /// Declares its boundary word as a pre-request, then sums two body
    /// words (exercises blocked-before-compute activation).
    #[derive(Debug)]
    struct PreFetcher;
    impl PageFunction for PreFetcher {
        fn name(&self) -> &'static str {
            "pre-fetcher"
        }
        fn logic_elements(&self) -> u32 {
            90
        }
        fn inter_page_requests(&self, page: &PageSlice<'_>) -> Vec<active_pages::CopyRequest> {
            let base = page.info().base;
            if page.info().index_in_group == 0 {
                return vec![];
            }
            let prev = VAddr::new(base.get() - PAGE_SIZE as u64);
            vec![active_pages::CopyRequest {
                dst: base + (sync::BODY_OFFSET + 4) as u64,
                src: prev + sync::BODY_OFFSET as u64,
                len: 4,
            }]
        }
        fn execute(&self, page: &mut PageSlice<'_>) -> Execution {
            let a = page.read_u32(sync::BODY_OFFSET);
            let b = page.read_u32(sync::BODY_OFFSET + 4);
            page.set_ctrl(sync::RESULT, a.wrapping_add(b));
            page.set_ctrl(sync::STATUS, sync::DONE);
            Execution::run(4)
        }
    }

    #[test]
    fn pre_declared_requests_block_then_compute() {
        let (mut sys, base, g) = setup(2);
        sys.ap_bind(g, Arc::new(PreFetcher));
        let page1 = base + PAGE_SIZE as u64;
        sys.store_u32(base + sync::BODY_OFFSET as u64, 30); // page 0 boundary word
        sys.store_u32(page1 + sync::BODY_OFFSET as u64, 12);
        sys.activate(page1, 1);
        sys.wait_done(page1);
        // The function must have computed with the *copied* value.
        assert_eq!(sys.read_ctrl(page1, sync::RESULT), 42);
        let st = sys.stats();
        assert_eq!(st.interrupt_batches, 1);
        assert_eq!(st.interpage_copies, 1);
    }

    #[test]
    fn hardware_copy_mode_needs_no_processor() {
        let cfg = RadramConfig::reference()
            .with_ram_capacity(16 << 20)
            .with_comm_mode(crate::CommMode::HardwareCopy);
        let mut sys = System::radram(cfg);
        let g = GroupId::new(0);
        let base = sys.ap_alloc_pages(g, 2);
        sys.ap_bind(g, Arc::new(PreFetcher));
        let page1 = base + PAGE_SIZE as u64;
        sys.store_u32(base + sync::BODY_OFFSET as u64, 30);
        sys.store_u32(page1 + sync::BODY_OFFSET as u64, 12);
        sys.activate(page1, 1);
        sys.wait_done(page1);
        assert_eq!(sys.read_ctrl(page1, sync::RESULT), 42);
        let st = sys.stats();
        assert_eq!(st.interrupt_batches, 0, "hardware mode must not interrupt");
        assert_eq!(st.interpage_copies, 1);
    }

    #[test]
    fn hardware_copy_also_covers_mid_execution_references() {
        let cfg = RadramConfig::reference()
            .with_ram_capacity(16 << 20)
            .with_comm_mode(crate::CommMode::HardwareCopy);
        let mut sys = System::radram(cfg);
        let g = GroupId::new(0);
        let base = sys.ap_alloc_pages(g, 2);
        sys.ap_bind(g, Arc::new(NeighborSummer));
        let page1 = base + PAGE_SIZE as u64;
        sys.store_u32(base + sync::BODY_OFFSET as u64, 0x77);
        sys.activate(page1, 1);
        sys.wait_done(page1);
        assert_eq!(sys.load_u32(page1 + sync::BODY_OFFSET as u64), 0x77);
        assert_eq!(sys.stats().interrupt_batches, 0);
    }

    #[test]
    fn polling_mode_skips_trap_overhead() {
        let run = |service: crate::ServiceMode| {
            let cfg =
                RadramConfig::reference().with_ram_capacity(16 << 20).with_service_mode(service);
            let mut sys = System::radram(cfg);
            let g = GroupId::new(0);
            let base = sys.ap_alloc_pages(g, 2);
            sys.ap_bind(g, Arc::new(PreFetcher));
            let page1 = base + PAGE_SIZE as u64;
            sys.store_u32(base + sync::BODY_OFFSET as u64, 1);
            let t0 = sys.now();
            sys.activate(page1, 1);
            sys.wait_done(page1);
            sys.now() - t0
        };
        assert!(run(crate::ServiceMode::Polling) < run(crate::ServiceMode::Interrupt));
    }

    #[test]
    fn limited_outstanding_refs_need_more_round_trips() {
        /// Declares three separate references.
        #[derive(Debug)]
        struct ThreeRefs;
        impl PageFunction for ThreeRefs {
            fn name(&self) -> &'static str {
                "three-refs"
            }
            fn logic_elements(&self) -> u32 {
                50
            }
            fn inter_page_requests(&self, page: &PageSlice<'_>) -> Vec<active_pages::CopyRequest> {
                let base = page.info().base;
                let prev = VAddr::new(base.get() - PAGE_SIZE as u64);
                (0..3u64)
                    .map(|k| active_pages::CopyRequest {
                        dst: base + sync::BODY_OFFSET as u64 + 4 * k,
                        src: prev + sync::BODY_OFFSET as u64 + 4 * k,
                        len: 4,
                    })
                    .collect()
            }
            fn execute(&self, page: &mut PageSlice<'_>) -> Execution {
                page.set_ctrl(sync::STATUS, sync::DONE);
                Execution::run(1)
            }
        }
        let run = |refs: usize| {
            let cfg =
                RadramConfig::reference().with_ram_capacity(16 << 20).with_outstanding_refs(refs);
            let mut sys = System::radram(cfg);
            let g = GroupId::new(0);
            let base = sys.ap_alloc_pages(g, 2);
            sys.ap_bind(g, Arc::new(ThreeRefs));
            let page1 = base + PAGE_SIZE as u64;
            sys.activate(page1, 1);
            sys.wait_done(page1);
            sys.stats().interrupt_batches
        };
        assert_eq!(run(3), 1, "three outstanding refs fit one interrupt");
        assert_eq!(run(1), 3, "one outstanding ref needs three round trips");
    }

    /// Builds a Summer-bound system with `pages` pages whose bodies are
    /// seeded with deterministic values, for batched-vs-sequential
    /// comparisons.
    fn summer_setup(pages: usize) -> (System, VAddr, GroupId) {
        let (mut sys, base, g) = setup(pages);
        sys.ap_bind(g, Arc::new(Summer));
        for p in 0..pages {
            for i in 0..8u64 {
                let addr = base + (p * PAGE_SIZE) as u64 + sync::BODY_OFFSET as u64 + 4 * i;
                sys.ram_write_u32(addr, (p as u32 + 1) * 10 + i as u32);
            }
        }
        (sys, base, g)
    }

    /// Drives `sys` through one broadcast round sequentially: per-page
    /// parameter write plus command store, then a wait on every page.
    fn manual_broadcast(sys: &mut System, base: VAddr, pages: usize) {
        for p in 0..pages {
            let pb = base + (p * PAGE_SIZE) as u64;
            sys.write_ctrl(pb, sync::PARAM, 8);
            sys.activate(pb, 1);
        }
        for p in 0..pages {
            sys.wait_done(base + (p * PAGE_SIZE) as u64);
        }
    }

    /// Asserts that `run(sequential, sanitize)` — one batch of page
    /// activations, returning its observable outcome and the host-side
    /// batch audit — agrees between the sequential oracle, a plain batch
    /// and a sanitized batch. The sanitized batch defers on any host, so
    /// the deferred path and merge are compared even where a plain batch
    /// runs sequentially for want of a second core.
    fn assert_batch_paths_agree<T: PartialEq + std::fmt::Debug>(
        run: impl Fn(bool, bool) -> (T, RaceAudit),
    ) {
        let (oracle, _) = run(true, false);
        assert_eq!(run(false, false).0, oracle, "plain batch vs sequential");
        let (sanitized, audit) = run(false, true);
        assert_eq!(sanitized, oracle, "sanitized batch vs sequential");
        assert_eq!(audit.proven_batches + audit.unknown_batches, 1, "sanitized batch deferred");
    }

    #[test]
    fn batched_activation_matches_manual_loop() {
        active_pages::parallel::set_thread_budget(4);
        let pages = 6;
        assert_batch_paths_agree(|sequential, sanitize| {
            let (mut sys, base, _) = summer_setup(pages);
            sys.set_sanitize(sanitize);
            if sequential {
                sys.set_sequential(true);
                manual_broadcast(&mut sys, base, pages);
            } else {
                sys.activate_pages(&broadcast_batch(base, pages));
                for p in 0..pages {
                    sys.wait_done(base + (p * PAGE_SIZE) as u64);
                }
            }
            let results: Vec<u32> = (0..pages)
                .map(|p| sys.read_ctrl(base + (p * PAGE_SIZE) as u64, sync::RESULT))
                .collect();
            ((sys.now(), format!("{:?}", sys.stats()), results), sys.race_audit())
        });
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        // Regression: `execute_parallel` used to index `order[0]` before
        // checking for an empty deferral list.
        let (mut sys, _, g) = setup(2);
        sys.ap_bind(g, Arc::new(Summer));
        let t0 = sys.now();
        sys.activate_pages(&[]);
        assert_eq!(sys.now(), t0);
        assert!(sys.execute_parallel(&[], false).is_empty());
        assert!(sys.execute_parallel(&[], true).is_empty());
    }

    #[test]
    fn pooled_batch_matches_sequential_batch() {
        active_pages::parallel::set_thread_budget(4);
        let pages = 6;
        assert_batch_paths_agree(|sequential, sanitize| {
            let (mut sys, base, _) = summer_setup(pages);
            sys.set_sequential(sequential);
            sys.set_sanitize(sanitize);
            sys.activate_pages(&broadcast_batch(base, pages));
            for p in 0..pages {
                sys.wait_done(base + (p * PAGE_SIZE) as u64);
            }
            let results: Vec<u32> = (0..pages)
                .map(|p| sys.read_ctrl(base + (p * PAGE_SIZE) as u64, sync::RESULT))
                .collect();
            ((sys.now(), format!("{:?}", sys.stats()), results), sys.race_audit())
        });
    }

    #[test]
    fn activate_group_covers_every_page() {
        active_pages::parallel::set_thread_budget(4);
        let pages = 5;
        let (mut sys, base, g) = summer_setup(pages);
        for p in 0..pages {
            sys.write_ctrl(base + (p * PAGE_SIZE) as u64, sync::PARAM, 8);
        }
        sys.activate_group(g, 1);
        for p in 0..pages {
            sys.wait_done(base + (p * PAGE_SIZE) as u64);
        }
        assert_eq!(sys.stats().activations, pages as u64);
        for p in 0..pages {
            let pb = base + (p * PAGE_SIZE) as u64;
            let expected: u32 = (0..8).map(|i| (p as u32 + 1) * 10 + i).sum();
            assert_eq!(sys.read_ctrl(pb, sync::RESULT), expected, "page {p}");
        }
    }

    #[test]
    fn batched_mid_execution_blocks_match_sequential() {
        active_pages::parallel::set_thread_budget(4);
        // NeighborSummer blocks mid-run on a copy from the previous page;
        // batch pages 1..4 so the pending-queue order matters.
        assert_batch_paths_agree(|sequential, sanitize| {
            let (mut sys, base, _g) = setup(4);
            sys.set_sequential(sequential);
            sys.set_sanitize(sanitize);
            sys.ap_bind(GroupId::new(0), Arc::new(NeighborSummer));
            for p in 0..4u64 {
                sys.ram_write_u32(
                    base + p * PAGE_SIZE as u64 + sync::BODY_OFFSET as u64,
                    0x100 + p as u32,
                );
            }
            let batch: Vec<PageActivation> =
                (1..4).map(|p| PageActivation::new(base + (p * PAGE_SIZE) as u64, 1)).collect();
            sys.activate_pages(&batch);
            for p in 1..4 {
                sys.wait_done(base + (p * PAGE_SIZE) as u64);
            }
            let words: Vec<u32> = (1..4u64)
                .map(|p| sys.ram_read_u32(base + p * PAGE_SIZE as u64 + sync::BODY_OFFSET as u64))
                .collect();
            ((sys.now(), format!("{:?}", sys.stats()), words), sys.race_audit())
        });
    }

    #[test]
    fn batched_predeclared_requests_match_sequential() {
        active_pages::parallel::set_thread_budget(4);
        // PreFetcher: page 0 defers (no requests), page 1+ raise
        // pre-declared references, forcing the mid-batch flush + fallback.
        assert_batch_paths_agree(|sequential, sanitize| {
            let (mut sys, base, _g) = setup(3);
            sys.set_sequential(sequential);
            sys.set_sanitize(sanitize);
            sys.ap_bind(GroupId::new(0), Arc::new(PreFetcher));
            for p in 0..3u64 {
                sys.ram_write_u32(
                    base + p * PAGE_SIZE as u64 + sync::BODY_OFFSET as u64,
                    7 * (p as u32 + 1),
                );
            }
            let batch: Vec<PageActivation> =
                (0..3).map(|p| PageActivation::new(base + (p * PAGE_SIZE) as u64, 1)).collect();
            sys.activate_pages(&batch);
            for p in 0..3 {
                sys.wait_done(base + (p * PAGE_SIZE) as u64);
            }
            let results: Vec<u32> = (0..3)
                .map(|p| sys.read_ctrl(base + (p * PAGE_SIZE) as u64, sync::RESULT))
                .collect();
            ((sys.now(), format!("{:?}", sys.stats()), results), sys.race_audit())
        });
    }

    /// Summer with an honest page-local footprint declaration.
    #[derive(Debug)]
    struct DeclaredSummer;
    impl PageFunction for DeclaredSummer {
        fn name(&self) -> &'static str {
            "declared-summer"
        }
        fn logic_elements(&self) -> u32 {
            64
        }
        fn execute(&self, page: &mut PageSlice<'_>) -> Execution {
            Summer.execute(page)
        }
        fn footprint(&self) -> StaticFootprint {
            // Ctrl reads/writes plus the first 8 body words.
            StaticFootprint::Known(
                PageFootprint::new()
                    .with_read(0, sync::CTRL_SIZE as u64)
                    .with_read(sync::BODY_OFFSET as u64, (sync::BODY_OFFSET + 32) as u64)
                    .with_write(0, sync::CTRL_SIZE as u64),
            )
        }
    }

    /// Summer whose declaration omits the body reads (seeded RC204 defect).
    #[derive(Debug)]
    struct UnderDeclaredSummer;
    impl PageFunction for UnderDeclaredSummer {
        fn name(&self) -> &'static str {
            "under-declared-summer"
        }
        fn logic_elements(&self) -> u32 {
            64
        }
        fn execute(&self, page: &mut PageSlice<'_>) -> Execution {
            Summer.execute(page)
        }
        fn footprint(&self) -> StaticFootprint {
            StaticFootprint::Known(
                PageFootprint::new()
                    .with_read(0, sync::CTRL_SIZE as u64)
                    .with_write(0, sync::CTRL_SIZE as u64),
            )
        }
    }

    /// Declares a write footprint escaping into the next page (seeded RC202
    /// defect); never actually executed in the overlap test.
    #[derive(Debug)]
    struct EscapingWriter;
    impl PageFunction for EscapingWriter {
        fn name(&self) -> &'static str {
            "escaping-writer"
        }
        fn logic_elements(&self) -> u32 {
            10
        }
        fn execute(&self, page: &mut PageSlice<'_>) -> Execution {
            page.set_ctrl(sync::STATUS, sync::DONE);
            Execution::run(1)
        }
        fn footprint(&self) -> StaticFootprint {
            // Claims to write its own body plus the start of the next page.
            StaticFootprint::Known(
                PageFootprint::new()
                    .with_write(0, sync::CTRL_SIZE as u64)
                    .with_write(sync::BODY_OFFSET as u64, (PAGE_SIZE + 4096) as u64),
            )
        }
    }

    fn broadcast_batch(base: VAddr, pages: usize) -> Vec<PageActivation> {
        (0..pages)
            .map(|p| {
                PageActivation::new(base + (p * PAGE_SIZE) as u64, 1).with_param(sync::PARAM, 8)
            })
            .collect()
    }

    #[test]
    fn sanitizer_is_clean_on_honest_footprints() {
        active_pages::parallel::set_thread_budget(4);
        let pages = 4;
        let (mut sys, base, g) = summer_setup(pages);
        sys.ap_bind(g, Arc::new(DeclaredSummer));
        sys.set_sanitize(true);
        sys.activate_pages(&broadcast_batch(base, pages));
        for p in 0..pages {
            sys.wait_done(base + (p * PAGE_SIZE) as u64);
        }
        assert!(sys.race_report().is_empty(), "{}", sys.race_report().render_text());
        assert_eq!(sys.race_audit().proven_batches, 1);
        let s = sys.stats();
        assert_eq!((s.race_errors, s.race_warnings), (0, 0));
    }

    #[test]
    fn sanitizer_fires_rc204_on_underdeclared_footprint() {
        active_pages::parallel::set_thread_budget(4);
        let pages = 3;
        let (mut sys, base, g) = summer_setup(pages);
        sys.ap_bind(g, Arc::new(UnderDeclaredSummer));
        sys.set_sanitize(true);
        sys.activate_pages(&broadcast_batch(base, pages));
        for p in 0..pages {
            sys.wait_done(base + (p * PAGE_SIZE) as u64);
        }
        let hits: Vec<_> =
            sys.race_report().with_code(ap_lint::Code::DynamicFootprintViolation).collect();
        assert_eq!(hits.len(), pages, "one RC204 per page whose reads escaped the declaration");
        assert!(sys.stats().race_errors >= 1);
    }

    #[test]
    fn statically_overlapping_batch_rejected_to_sequential_with_rc202() {
        active_pages::parallel::set_thread_budget(4);
        let (mut sys, base, g) = setup(3);
        sys.ap_bind(g, Arc::new(EscapingWriter));
        // Sanitized, so the batch is classified on a 1-core host too; the
        // static RC202 check runs before any recording.
        sys.set_sanitize(true);
        sys.activate_pages(&broadcast_batch(base, 3));
        for p in 0..3 {
            sys.wait_done(base + (p * PAGE_SIZE) as u64);
        }
        assert_eq!(sys.race_audit().overlap_rejects, 1);
        assert!(
            sys.race_report().with_code(ap_lint::Code::BatchWriteOverlap).count() >= 1,
            "RC202 must be reported"
        );
        // The rejected batch still executed — sequentially.
        assert_eq!(sys.stats().activations, 3);
    }

    #[test]
    fn sanitizer_off_records_nothing() {
        active_pages::parallel::set_thread_budget(4);
        let pages = 3;
        let (mut sys, base, g) = summer_setup(pages);
        sys.ap_bind(g, Arc::new(UnderDeclaredSummer));
        sys.activate_pages(&broadcast_batch(base, pages));
        for p in 0..pages {
            sys.wait_done(base + (p * PAGE_SIZE) as u64);
        }
        assert!(sys.race_report().is_empty(), "defect must go unnoticed with the sanitizer off");
    }

    #[test]
    fn sanitized_batch_matches_sequential_run_bit_for_bit() {
        active_pages::parallel::set_thread_budget(4);
        let pages = 5;
        assert_batch_paths_agree(|sequential, sanitize| {
            let (mut sys, base, g) = summer_setup(pages);
            sys.ap_bind(g, Arc::new(DeclaredSummer));
            sys.set_sequential(sequential);
            sys.set_sanitize(sanitize);
            sys.activate_pages(&broadcast_batch(base, pages));
            for p in 0..pages {
                sys.wait_done(base + (p * PAGE_SIZE) as u64);
            }
            let results: Vec<u32> = (0..pages)
                .map(|p| sys.read_ctrl(base + (p * PAGE_SIZE) as u64, sync::RESULT))
                .collect();
            ((sys.now(), format!("{:?}", sys.stats()), results), sys.race_audit())
        });
    }

    #[test]
    fn slow_logic_takes_longer() {
        let run = |divisor: u64| {
            let cfg =
                RadramConfig::reference().with_ram_capacity(8 << 20).with_logic_divisor(divisor);
            let mut sys = System::radram(cfg);
            let g = GroupId::new(0);
            let base = sys.ap_alloc_pages(g, 1);
            sys.ap_bind(g, Arc::new(Summer));
            sys.write_ctrl(base, sync::PARAM, 1000);
            let t0 = sys.now();
            sys.activate(base, 1);
            sys.wait_done(base);
            sys.now() - t0
        };
        assert!(run(100) > run(2));
    }
}

//! The processor cost model.

use crate::bpred::BranchPredictor;
use crate::mmx::MmxOp;
use crate::stats::CpuStats;
use ap_mem::{
    AccessTap, ExecMode, Hierarchy, HierarchyConfig, MemBackend, MemModel, SimRam, VAddr,
};
use ap_trace::Subsystem::Cpu as TRACE_CPU;

/// Subsystems whose events need the simulated clock published before a
/// memory access: the core's own spans plus the (clock-less) hierarchy.
const TRACE_CLOCK_USERS: ap_trace::Filter =
    ap_trace::Filter(TRACE_CPU.bit() | ap_trace::Subsystem::Mem.bit());

/// Processor configuration (Table 1: 1 GHz reference clock).
///
/// All latencies are in cycles. The reference floating-point unit is fully
/// pipelined — the paper's goal is a processor "running at peak
/// floating-point speeds" when the memory system feeds it — so FP throughput
/// is one operation per cycle.
///
/// # Examples
///
/// ```
/// use ap_cpu::CpuConfig;
///
/// let cfg = CpuConfig::reference();
/// assert_eq!(cfg.mispredict_penalty, 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpuConfig {
    /// Memory hierarchy in front of the core.
    pub hierarchy: HierarchyConfig,
    /// Cycles per simple integer operation.
    pub alu_latency: u64,
    /// Cycles per integer multiply.
    pub mul_latency: u64,
    /// Cycles per integer divide.
    pub div_latency: u64,
    /// Cycles per (pipelined) floating-point operation.
    pub fp_latency: u64,
    /// Extra cycles on a mispredicted branch.
    pub mispredict_penalty: u64,
    /// Branch-predictor table entries.
    pub bpred_entries: usize,
}

impl CpuConfig {
    /// The paper's reference processor.
    pub fn reference() -> Self {
        CpuConfig {
            hierarchy: HierarchyConfig::reference(),
            alu_latency: 1,
            mul_latency: 3,
            div_latency: 20,
            fp_latency: 1,
            mispredict_penalty: 3,
            bpred_entries: 2048,
        }
    }
}

impl Default for CpuConfig {
    fn default() -> Self {
        Self::reference()
    }
}

/// The simulated processor: global clock, memory hierarchy and real memory.
///
/// Applications drive the model by calling one method per operation they
/// would execute; the data they compute on lives in [`SimRam`] (public field
/// `ram`) so control flow is authentic.
///
/// # Examples
///
/// ```
/// use ap_cpu::{Cpu, CpuConfig};
///
/// let mut cpu = Cpu::new(CpuConfig::reference(), 1 << 20);
/// let a = cpu.ram.alloc(8, 8);
/// cpu.store_u64(a, 42);
/// assert_eq!(cpu.load_u64(a), 42);
/// let s = cpu.stats();
/// assert_eq!((s.loads, s.stores), (1, 1));
/// ```
#[derive(Debug)]
pub struct Cpu {
    /// The simulated memory contents (public: applications allocate and the
    /// RADram logic engine operates on page bytes held here).
    pub ram: SimRam,
    mem: MemBackend,
    cfg: CpuConfig,
    now: u64,
    bpred: BranchPredictor,
    stats: CpuStats,
    /// Access recorder for the race sanitizer; `None` (the default) keeps
    /// the cached load/store paths free of logging.
    tap: Option<AccessTap>,
}

impl Cpu {
    /// Creates a processor with `ram_capacity` bytes of simulated memory,
    /// running on the accurate (cycle-modeled) memory tier.
    pub fn new(cfg: CpuConfig, ram_capacity: usize) -> Self {
        Cpu::with_mode(cfg, ram_capacity, ExecMode::Accurate)
    }

    /// Creates a processor on the memory tier `mode` selects. The accurate
    /// tier is today's full hierarchy; the fast tier swaps in the
    /// [`ap_mem::FastMem`] estimator and also skips branch-predictor and
    /// instruction-fetch modeling (functional behaviour is unchanged — data
    /// still lives in [`SimRam`]).
    pub fn with_mode(cfg: CpuConfig, ram_capacity: usize, mode: ExecMode) -> Self {
        Cpu {
            ram: SimRam::new(ram_capacity),
            mem: MemBackend::new(cfg.hierarchy.clone(), mode),
            bpred: BranchPredictor::new(cfg.bpred_entries),
            now: 0,
            stats: CpuStats::new(),
            tap: None,
            cfg,
        }
    }

    /// Starts (`true`) or stops (`false`) recording cached data accesses
    /// into an [`AccessTap`]. Starting replaces any previous tap. Uncached
    /// accesses — the Active-Page synchronization protocol — are deliberately
    /// not tapped: they target the per-page control areas, never page bodies.
    pub fn tap_accesses(&mut self, on: bool) {
        self.tap = on.then(AccessTap::new);
    }

    /// Takes the current access tap, leaving recording off. `None` when
    /// [`Self::tap_accesses`] was never enabled.
    pub fn take_tapped(&mut self) -> Option<AccessTap> {
        self.tap.take()
    }

    /// Returns the configuration.
    pub fn config(&self) -> &CpuConfig {
        &self.cfg
    }

    /// Which execution tier this processor runs on.
    pub fn mode(&self) -> ExecMode {
        self.mem.mode()
    }

    /// Current simulated time in cycles.
    #[inline]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Advances the clock without executing instructions (used by the memory
    /// system to model the processor stalled on Active-Page computation).
    #[inline]
    pub fn advance(&mut self, cycles: u64) {
        self.now += cycles;
    }

    /// Executes `n` single-cycle integer operations.
    #[inline]
    pub fn alu(&mut self, n: u64) {
        self.stats.instructions += n;
        self.now += n * self.cfg.alu_latency;
    }

    /// Executes one integer multiply.
    #[inline]
    pub fn mul(&mut self) {
        self.stats.instructions += 1;
        self.now += self.cfg.mul_latency;
    }

    /// Executes one integer divide.
    #[inline]
    pub fn div(&mut self) {
        self.stats.instructions += 1;
        self.now += self.cfg.div_latency;
    }

    /// Executes `n` pipelined floating-point operations.
    #[inline]
    pub fn flop(&mut self, n: u64) {
        self.stats.instructions += n;
        self.stats.flops += n;
        self.now += n * self.cfg.fp_latency;
    }

    /// Executes a conditional branch identified by call `site`, charging a
    /// penalty when the 2-bit predictor is wrong. Returns `taken` unchanged
    /// so it can wrap a condition inline.
    #[inline]
    pub fn branch(&mut self, site: u32, taken: bool) -> bool {
        self.stats.instructions += 1;
        self.stats.branches += 1;
        self.now += self.cfg.alu_latency;
        if matches!(self.mem, MemBackend::Fast(_)) {
            // Fast tier: the predictor is not modeled (documented error
            // source) — every branch costs one cycle.
            return taken;
        }
        if !self.bpred.predict_and_train(site, taken) {
            self.stats.mispredicts += 1;
            ap_trace::instant(TRACE_CPU, "bpred.mispredict", self.now, site as u64, taken as u64);
            self.now += self.cfg.mispredict_penalty;
        }
        taken
    }

    /// Executes one register-to-register MMX operation.
    #[inline]
    pub fn mmx(&mut self, op: MmxOp, a: u64, b: u64) -> u64 {
        self.stats.instructions += 1;
        self.stats.mmx_ops += 1;
        self.now += self.cfg.alu_latency;
        op.apply(a, b)
    }

    /// Charges `n` single-cycle conditional branches at once, predictor
    /// untouched. For fast-tier bulk kernels (DESIGN.md §13), which count
    /// their branches instead of taking them one [`Self::branch`] call at a
    /// time; on the fast tier the two are equivalent because the predictor
    /// is not modeled there.
    #[inline]
    pub fn branch_run(&mut self, n: u64) {
        self.stats.instructions += n;
        self.stats.branches += n;
        self.now += n * self.cfg.alu_latency;
    }

    /// Charges a strided record scan in bulk: `records` heads `stride`
    /// bytes apart from `base`, `words` 32-bit loads in total (one filter
    /// probe per head, the rest L1 hits — see [`ap_mem::FastMem::scan_heads`]).
    /// The accurate tier gets the equivalent per-word charging through the
    /// hierarchy, but callers normally branch on [`Self::mode`] and keep
    /// their per-word loops there.
    pub fn scan_heads(&mut self, base: VAddr, records: usize, stride: usize, words: u64) {
        self.stats.instructions += words;
        self.stats.loads += words;
        match &mut self.mem {
            MemBackend::Fast(f) => self.now += f.scan_heads(base, records, stride, words),
            MemBackend::Accurate(h) => {
                for r in 0..records {
                    self.now += h.read(VAddr::new(base.get() + (r * stride) as u64));
                }
                let tail = words.saturating_sub(records as u64);
                self.now += tail * self.cfg.hierarchy.l1d.hit_latency;
            }
        }
    }

    /// Publishes [`Self::now`] as the thread's trace clock when any
    /// clock-consuming subsystem is traced: the hierarchy returns costs but
    /// owns no clock, so the core stamps time on its behalf. One relaxed
    /// atomic load when tracing is off.
    #[inline]
    fn publish_trace_clock(&self) {
        if ap_trace::enabled_any(TRACE_CLOCK_USERS) {
            ap_trace::set_cycle(self.now);
        }
    }

    /// Emits a `stall.mem` span covering the cycles a data access cost
    /// beyond the L1 hit latency the pipeline hides.
    #[inline]
    fn trace_mem_stall(&self, addr: VAddr, cost: u64) {
        if ap_trace::enabled(TRACE_CPU) {
            let hidden = self.cfg.hierarchy.l1d.hit_latency;
            if cost > hidden {
                ap_trace::complete(TRACE_CPU, "stall.mem", self.now, cost - hidden, addr.get(), 0);
            }
        }
    }

    #[inline]
    fn charge_load(&mut self, addr: VAddr, len: u32) {
        self.stats.instructions += 1;
        self.stats.loads += 1;
        if let Some(tap) = &mut self.tap {
            tap.record(addr.get(), len, false);
        }
        if let MemBackend::Fast(f) = &mut self.mem {
            // Fast tier: estimate and go — no trace clock, no stall spans.
            self.now += f.access(addr, false);
            return;
        }
        self.publish_trace_clock();
        let cost = self.mem.read(addr);
        self.trace_mem_stall(addr, cost);
        self.now += cost;
    }

    #[inline]
    fn charge_store(&mut self, addr: VAddr, len: u32) {
        self.stats.instructions += 1;
        self.stats.stores += 1;
        if let Some(tap) = &mut self.tap {
            tap.record(addr.get(), len, true);
        }
        if let MemBackend::Fast(f) = &mut self.mem {
            self.now += f.access(addr, true);
            return;
        }
        self.publish_trace_clock();
        let cost = self.mem.write(addr);
        self.trace_mem_stall(addr, cost);
        self.now += cost;
    }

    /// Loads a byte through the data cache.
    #[inline]
    pub fn load_u8(&mut self, addr: VAddr) -> u8 {
        self.charge_load(addr, 1);
        self.ram.read_u8(addr)
    }

    /// Loads a 16-bit word through the data cache.
    #[inline]
    pub fn load_u16(&mut self, addr: VAddr) -> u16 {
        self.charge_load(addr, 2);
        self.ram.read_u16(addr)
    }

    /// Loads a 32-bit word through the data cache.
    #[inline]
    pub fn load_u32(&mut self, addr: VAddr) -> u32 {
        self.charge_load(addr, 4);
        self.ram.read_u32(addr)
    }

    /// Loads a 64-bit word through the data cache.
    #[inline]
    pub fn load_u64(&mut self, addr: VAddr) -> u64 {
        self.charge_load(addr, 8);
        self.ram.read_u64(addr)
    }

    /// Loads a double through the data cache.
    #[inline]
    pub fn load_f64(&mut self, addr: VAddr) -> f64 {
        self.charge_load(addr, 8);
        self.ram.read_f64(addr)
    }

    /// Stores a byte through the data cache.
    #[inline]
    pub fn store_u8(&mut self, addr: VAddr, v: u8) {
        self.charge_store(addr, 1);
        self.ram.write_u8(addr, v);
    }

    /// Stores a 16-bit word through the data cache.
    #[inline]
    pub fn store_u16(&mut self, addr: VAddr, v: u16) {
        self.charge_store(addr, 2);
        self.ram.write_u16(addr, v);
    }

    /// Stores a 32-bit word through the data cache.
    #[inline]
    pub fn store_u32(&mut self, addr: VAddr, v: u32) {
        self.charge_store(addr, 4);
        self.ram.write_u32(addr, v);
    }

    /// Stores a 64-bit word through the data cache.
    #[inline]
    pub fn store_u64(&mut self, addr: VAddr, v: u64) {
        self.charge_store(addr, 8);
        self.ram.write_u64(addr, v);
    }

    /// Stores a double through the data cache.
    #[inline]
    pub fn store_f64(&mut self, addr: VAddr, v: f64) {
        self.charge_store(addr, 8);
        self.ram.write_f64(addr, v);
    }

    /// Charges one instruction fetch at `pc` through the L1 instruction
    /// cache, advancing the clock by the *miss penalty only* (an L1I hit is
    /// hidden by the pipeline). Does not count an instruction — the caller
    /// accounts for the executed operation itself.
    #[inline]
    pub fn charge_fetch(&mut self, pc: VAddr) {
        if matches!(self.mem, MemBackend::Fast(_)) {
            // Fast tier: fetches are free (the L1I hit rate is ~100% on
            // these kernels, so the modeled cost is already ~0).
            return;
        }
        self.publish_trace_clock();
        let cycles = self.mem.fetch(pc);
        let hidden = self.cfg.hierarchy.l1i.hit_latency;
        self.now += cycles.saturating_sub(hidden);
    }

    /// Charges one uncached word access (instruction count, load/store count
    /// and DRAM round-trip time) without touching data. Memory systems that
    /// route accesses themselves pair this with a raw [`SimRam`] transfer.
    #[inline]
    pub fn charge_uncached_access(&mut self, store: bool) {
        self.stats.instructions += 1;
        if store {
            self.stats.stores += 1;
        } else {
            self.stats.loads += 1;
        }
        if let MemBackend::Fast(f) = &mut self.mem {
            self.now += MemModel::uncached(&mut **f);
            return;
        }
        self.publish_trace_clock();
        self.now += self.mem.uncached();
    }

    /// Uncached 32-bit load (synchronization variables bypass the caches).
    #[inline]
    pub fn uncached_load_u32(&mut self, addr: VAddr) -> u32 {
        self.stats.instructions += 1;
        self.stats.loads += 1;
        if let MemBackend::Fast(f) = &mut self.mem {
            self.now += MemModel::uncached(&mut **f);
        } else {
            self.publish_trace_clock();
            self.now += self.mem.uncached();
        }
        self.ram.read_u32(addr)
    }

    /// Uncached 32-bit store.
    #[inline]
    pub fn uncached_store_u32(&mut self, addr: VAddr, v: u32) {
        self.stats.instructions += 1;
        self.stats.stores += 1;
        if let MemBackend::Fast(f) = &mut self.mem {
            self.now += MemModel::uncached(&mut **f);
        } else {
            self.publish_trace_clock();
            self.now += self.mem.uncached();
        }
        self.ram.write_u32(addr, v);
    }

    /// Invalidates cached copies of `[start, start + len)`; called by the
    /// memory system when in-page logic mutates DRAM directly. On the fast
    /// tier this is a no-op (documented error source of the estimator).
    pub fn invalidate_range(&mut self, start: VAddr, len: u64) {
        self.mem.invalidate_range(start, len);
    }

    /// Statistics snapshot (includes the memory backend's counters and the
    /// current cycle count).
    pub fn stats(&self) -> CpuStats {
        let mut s = self.stats.clone();
        s.cycles = self.now;
        s.mem = self.mem.stats();
        s
    }

    /// Borrows the accurate memory hierarchy when this processor runs on it
    /// (read-only; for inspection in tests). `None` on the fast tier.
    pub fn hierarchy(&self) -> Option<&Hierarchy> {
        self.mem.hierarchy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpu() -> Cpu {
        Cpu::new(CpuConfig::reference(), 1 << 22)
    }

    #[test]
    fn loads_cost_more_on_misses() {
        let mut c = cpu();
        let a = c.ram.alloc(64, 64);
        let t0 = c.now();
        c.load_u32(a);
        let miss_cost = c.now() - t0;
        let t1 = c.now();
        c.load_u32(a + 4);
        let hit_cost = c.now() - t1;
        assert!(miss_cost > hit_cost);
        assert_eq!(hit_cost, 1);
    }

    #[test]
    fn alu_and_fp_costs() {
        let mut c = cpu();
        c.alu(5);
        assert_eq!(c.now(), 5);
        c.flop(3);
        assert_eq!(c.now(), 8);
        c.mul();
        assert_eq!(c.now(), 11);
        c.div();
        assert_eq!(c.now(), 31);
    }

    #[test]
    fn branch_penalty_applies_to_mispredictions() {
        let mut c = cpu();
        // Cold predictor: first taken branch mispredicts.
        c.branch(9, true);
        let s = c.stats();
        assert_eq!(s.mispredicts, 1);
        assert_eq!(s.cycles, 1 + 3);
    }

    #[test]
    fn trained_branch_costs_one_cycle() {
        let mut c = cpu();
        for _ in 0..4 {
            c.branch(9, true);
        }
        let before = c.now();
        c.branch(9, true);
        assert_eq!(c.now() - before, 1);
    }

    #[test]
    fn data_round_trips_through_ram() {
        let mut c = cpu();
        let a = c.ram.alloc(32, 8);
        c.store_u16(a, 0xBEEF);
        c.store_f64(a + 8, 2.5);
        c.store_u8(a + 16, 7);
        assert_eq!(c.load_u16(a), 0xBEEF);
        assert_eq!(c.load_f64(a + 8), 2.5);
        assert_eq!(c.load_u8(a + 16), 7);
    }

    #[test]
    fn uncached_access_is_constant_cost_and_counted() {
        let mut c = cpu();
        let a = c.ram.alloc(64, 64);
        c.uncached_store_u32(a, 1);
        c.uncached_store_u32(a, 2);
        let s = c.stats();
        assert_eq!(s.mem.uncached, 2);
        assert_eq!(s.cycles, 2 * 60);
        // Uncached writes still hit RAM.
        assert_eq!(c.ram.read_u32(a), 2);
    }

    #[test]
    fn advance_moves_clock_without_instructions() {
        let mut c = cpu();
        c.advance(1000);
        let s = c.stats();
        assert_eq!(s.cycles, 1000);
        assert_eq!(s.instructions, 0);
    }

    #[test]
    fn invalidate_range_re_misses() {
        let mut c = cpu();
        let a = c.ram.alloc(64, 64);
        c.load_u32(a);
        let t = c.now();
        c.load_u32(a);
        assert_eq!(c.now() - t, 1);
        c.invalidate_range(a, 64);
        let t = c.now();
        c.load_u32(a);
        assert!(c.now() - t > 1);
    }

    #[test]
    fn fast_mode_is_functionally_identical_and_counts_accesses() {
        let mut acc = cpu();
        let mut fast = Cpu::with_mode(CpuConfig::reference(), 1 << 22, ExecMode::Fast);
        assert_eq!(fast.mode(), ExecMode::Fast);
        assert!(fast.hierarchy().is_none());
        assert!(acc.hierarchy().is_some());
        for c in [&mut acc, &mut fast] {
            let a = c.ram.alloc(4096, 64);
            for i in 0..512u64 {
                c.store_u64(a + i * 8, i * 3);
            }
            let mut sum = 0u64;
            for i in 0..512u64 {
                sum = sum.wrapping_add(c.load_u64(a + i * 8));
                c.branch(1, i % 2 == 0);
            }
            assert_eq!(sum, (0..512u64).map(|i| i * 3).sum());
        }
        let (sa, sf) = (acc.stats(), fast.stats());
        assert_eq!((sa.loads, sa.stores), (sf.loads, sf.stores));
        assert_eq!(sa.instructions, sf.instructions);
        // The fast tier still estimates cycles, and both tiers agree on the
        // compulsory-miss-dominated pattern above to within a few percent.
        assert!(sf.cycles > 0);
        assert_eq!(sf.mispredicts, 0, "fast tier skips the predictor");
        assert!(sa.mispredicts > 0);
    }

    #[test]
    fn fast_mode_uncached_cost_matches_accurate() {
        let mut fast = Cpu::with_mode(CpuConfig::reference(), 1 << 20, ExecMode::Fast);
        let a = fast.ram.alloc(64, 64);
        fast.uncached_store_u32(a, 7);
        assert_eq!(fast.uncached_load_u32(a), 7);
        let s = fast.stats();
        assert_eq!(s.mem.uncached, 2);
        assert_eq!(s.cycles, 2 * 60);
    }

    #[test]
    fn mmx_op_counted_and_functional() {
        let mut c = cpu();
        let r = c.mmx(MmxOp::PXor, 0xF0F0, 0x0FF0);
        assert_eq!(r, 0xFF00);
        assert_eq!(c.stats().mmx_ops, 1);
    }

    #[test]
    fn tap_records_cached_widths_but_not_uncached() {
        for mode in [ExecMode::Accurate, ExecMode::Fast] {
            let mut c = Cpu::with_mode(CpuConfig::reference(), 1 << 20, mode);
            let a = c.ram.alloc(64, 64);
            c.store_u32(a, 1); // before the tap: must not appear
            c.tap_accesses(true);
            c.store_u8(a, 2);
            c.store_u64(a + 8, 3);
            c.load_u16(a);
            c.load_f64(a + 8);
            c.uncached_store_u32(a + 16, 4); // sync-protocol path: untapped
            c.charge_uncached_access(false);
            let tap = c.take_tapped().expect("tap was on");
            let got: Vec<(u64, u32, bool)> =
                tap.accesses().iter().map(|t| (t.addr - a.get(), t.len, t.write)).collect();
            assert_eq!(got, vec![(0, 1, true), (8, 8, true), (0, 2, false), (8, 8, false)]);
            assert_eq!(tap.dropped(), 0);
            assert!(c.take_tapped().is_none(), "take leaves recording off");
        }
    }
}

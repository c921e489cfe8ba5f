//! Two-tier execution: the per-job mode switch and the fast functional
//! memory estimator.
//!
//! The SimpleScalar lineage the paper built on always shipped two
//! simulators — a fast functional one (`sim-fast`) for coverage and a
//! cycle-accurate one (`sim-outorder`) for timing. This module is the
//! switch between the equivalent two tiers here:
//!
//! * [`ExecMode::Accurate`] drives every access through the full
//!   [`Hierarchy`] — set-associative lookups, LRU replacement,
//!   write-back/write-allocate semantics, per-level statistics. This is the
//!   timing oracle; nothing about it changed.
//! * [`ExecMode::Fast`] executes the same application semantics (all data
//!   still moves through `SimRam`, so functional outputs are bit-identical)
//!   but replaces the hierarchy with [`FastMem`], a direct-mapped
//!   *tag-filter estimator*: one tag probe per access decides hit/miss, and
//!   the cycle estimate is built from the same
//!   [`DramConfig`](crate::dram::DramConfig) timing the accurate model
//!   charges. No associativity, no LRU, no trace emission —
//!   an access is a shift, a compare and an add.
//!
//! Both backends sit behind the [`MemModel`] trait; [`MemBackend`] is the
//! enum the processor model holds so dispatch is a static match, not a
//! virtual call. Known error sources of the fast tier are documented on
//! [`FastMem`] and quantified per app in `BENCH_fastmode.json` (see
//! DESIGN.md §13).

use crate::hierarchy::{Hierarchy, HierarchyConfig};
use crate::stats::{CacheStats, MemStats};
use crate::VAddr;

/// Which execution tier a simulation runs on.
///
/// # Examples
///
/// ```
/// use ap_mem::ExecMode;
///
/// assert_eq!(ExecMode::parse("fast").unwrap(), ExecMode::Fast);
/// assert_eq!(ExecMode::Accurate.name(), "accurate");
/// assert!(ExecMode::parse("warp").is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecMode {
    /// Full per-access hierarchy modeling (the cycle-accurate oracle).
    #[default]
    Accurate,
    /// Functional execution with tag-filter cycle estimation.
    Fast,
}

impl ExecMode {
    /// Every mode, in definition order.
    pub const ALL: [ExecMode; 2] = [ExecMode::Accurate, ExecMode::Fast];

    /// The stable lowercase name used in cache keys, wire specs and CLI
    /// flags.
    pub fn name(self) -> &'static str {
        match self {
            ExecMode::Accurate => "accurate",
            ExecMode::Fast => "fast",
        }
    }

    /// Parses a mode name. The error lists the valid names, so protocol
    /// layers can echo it to a client verbatim.
    pub fn parse(name: &str) -> Result<ExecMode, String> {
        match name {
            "accurate" => Ok(ExecMode::Accurate),
            "fast" => Ok(ExecMode::Fast),
            other => Err(format!("unknown exec mode {other:?} (valid: accurate, fast)")),
        }
    }
}

impl std::fmt::Display for ExecMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for ExecMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ExecMode::parse(s)
    }
}

/// The boundary between the processor model and a memory backend: every
/// method returns the access's cycle cost (the caller owns the clock).
///
/// [`Hierarchy`] implements it by full simulation; [`FastMem`] by
/// estimation. The processor holds a [`MemBackend`] so the common case is a
/// static match rather than dynamic dispatch, but the trait is the
/// normative contract a third backend would implement.
pub trait MemModel {
    /// Data load; returns cycle cost.
    fn read(&mut self, addr: VAddr) -> u64;
    /// Data store; returns cycle cost.
    fn write(&mut self, addr: VAddr) -> u64;
    /// Instruction fetch; returns cycle cost.
    fn fetch(&mut self, addr: VAddr) -> u64;
    /// Uncached word access (synchronization variables); returns cycle cost.
    fn uncached(&mut self) -> u64;
    /// Drops cached lines overlapping `[start, start + len)`.
    fn invalidate_range(&mut self, start: VAddr, len: u64);
    /// Aggregate statistics snapshot.
    fn stats(&self) -> MemStats;
}

impl MemModel for Hierarchy {
    fn read(&mut self, addr: VAddr) -> u64 {
        Hierarchy::read(self, addr)
    }

    fn write(&mut self, addr: VAddr) -> u64 {
        Hierarchy::write(self, addr)
    }

    fn fetch(&mut self, addr: VAddr) -> u64 {
        Hierarchy::fetch(self, addr)
    }

    fn uncached(&mut self) -> u64 {
        Hierarchy::uncached(self)
    }

    fn invalidate_range(&mut self, start: VAddr, len: u64) {
        Hierarchy::invalidate_range(self, start, len);
    }

    fn stats(&self) -> MemStats {
        Hierarchy::stats(self)
    }
}

/// The fast tier's memory estimator: one set-associative tag-filter array
/// per cache level, with the *same geometry* (sets × ways) as the modeled
/// cache and cycle costs taken from the same
/// [`DramConfig`](crate::dram::DramConfig) the accurate hierarchy charges.
///
/// Per access: probe the L1 set's ways for the line tag; a match is an L1
/// hit at L1 latency. Each set keeps its ways in recency order
/// (move-to-front on every touch), so eviction of the last way is exact
/// LRU — the filter's conflict misses match the accurate caches'. On an L1
/// miss, charge the L2 latency and probe the L2 filter the same way; a miss
/// there charges one full DRAM line fill. A dirty L1 victim drains into the
/// L2 filter the way the oracle's does: free on an L2 hit,
/// allocate-on-writeback (one DRAM line fill) on a miss. Stores set the
/// entry's dirty bit. This keeps the estimator sensitive to the knobs the
/// sweeps turn (cache sizes, associativity, miss latency) while every
/// access stays a handful of integer ops over at most `assoc` tags.
///
/// **Known error sources** (quantified per app in `BENCH_fastmode.json`):
///
/// * the filter tracks tags only — no inclusion interplay between levels,
///   and no L2 dirty bits, so dirty L2 victims are never written back to
///   DRAM;
/// * instruction fetches are not modeled (the accurate L1I hit rate is
///   ~100% on these kernels, so fetch cost beyond the hidden hit latency is
///   noise);
/// * [`MemModel::invalidate_range`] is a no-op — pages mutated by
///   Active-Page logic can appear cached when the accurate model would
///   re-miss; the filter's future misses make most of that cost back.
///
/// # Examples
///
/// ```
/// use ap_mem::{FastMem, HierarchyConfig, MemModel, VAddr};
///
/// let mut m = FastMem::new(HierarchyConfig::reference());
/// let a = VAddr::new(0x8000);
/// let cold = m.read(a); // L1 + L2 latency + a 64-byte DRAM line fill
/// assert_eq!(cold, 1 + 10 + m.config().dram.line_fill_cycles(64));
/// assert_eq!(m.read(a), 1);
/// ```
#[derive(Debug)]
pub struct FastMem {
    cfg: HierarchyConfig,
    /// `sets × assoc` recency-ordered entries, `(line + 1) << 1 | dirty`;
    /// 0 = empty.
    l1_tags: Vec<u64>,
    /// `sets × assoc` recency-ordered entries, `line + 1`; 0 = empty.
    l2_tags: Vec<u64>,
    l1_assoc: usize,
    l2_assoc: usize,
    l1_shift: u32,
    l1_mask: u64,
    l2_shift: u32,
    l2_mask: u64,
    l1_hit: u64,
    l2_hit: u64,
    fill_cost: u64,
    uncached_cost: u64,
    accesses: u64,
    writes: u64,
    l1_misses: u64,
    fills: u64,
    writebacks: u64,
    victim_fills: u64,
    uncached: u64,
    stall_cycles: u64,
}

impl FastMem {
    /// Builds an empty estimator for the same configuration an accurate
    /// [`Hierarchy`] would be built from.
    pub fn new(cfg: HierarchyConfig) -> Self {
        let l1_assoc = cfg.l1d.assoc.max(1);
        let l2_assoc = cfg.l2.assoc.max(1);
        let l1_sets = (cfg.l1d.size / cfg.l1d.line / l1_assoc).next_power_of_two().max(1);
        let l2_sets = (cfg.l2.size / cfg.l2.line / l2_assoc).next_power_of_two().max(1);
        FastMem {
            l1_tags: vec![0; l1_sets * l1_assoc],
            l2_tags: vec![0; l2_sets * l2_assoc],
            l1_assoc,
            l2_assoc,
            l1_shift: (cfg.l1d.line as u64).trailing_zeros(),
            l1_mask: l1_sets as u64 - 1,
            l2_shift: (cfg.l2.line as u64).trailing_zeros(),
            l2_mask: l2_sets as u64 - 1,
            l1_hit: cfg.l1d.hit_latency,
            l2_hit: cfg.l2.hit_latency,
            fill_cost: cfg.dram.line_fill_cycles(cfg.l2.line),
            uncached_cost: cfg.dram.uncached_cycles(),
            accesses: 0,
            writes: 0,
            l1_misses: 0,
            fills: 0,
            writebacks: 0,
            victim_fills: 0,
            uncached: 0,
            stall_cycles: 0,
            cfg,
        }
    }

    /// Returns the configuration this estimator was built from.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// One estimated data access; returns its cycle cost.
    #[inline]
    pub fn access(&mut self, addr: VAddr, write: bool) -> u64 {
        self.accesses += 1;
        self.writes += write as u64;
        let line = addr.get() >> self.l1_shift;
        let set = ((line & self.l1_mask) as usize) * self.l1_assoc;
        let ways = &mut self.l1_tags[set..set + self.l1_assoc];
        let tag = (line + 1) << 1;
        // Most accesses re-touch the most-recently-used way: one load, one
        // compare, done. Explicit index loops below (rather than
        // `position` + `copy_within`) keep the set rotation a handful of
        // register moves instead of `memmove` calls.
        if ways[0] & !1 == tag {
            ways[0] |= write as u64;
            return self.l1_hit;
        }
        let mut way = 1;
        while way < self.l1_assoc {
            if ways[way] & !1 == tag {
                // Resident: stores only set the dirty bit; move-to-front
                // keeps the set in recency order so the last way is always
                // the LRU.
                let entry = ways[way] | write as u64;
                while way > 0 {
                    ways[way] = ways[way - 1];
                    way -= 1;
                }
                ways[0] = entry;
                return self.l1_hit;
            }
            way += 1;
        }
        self.l1_misses += 1;
        let mut cost = self.l1_hit + self.l2_hit;
        let victim = ways[self.l1_assoc - 1];
        let mut i = self.l1_assoc - 1;
        while i > 0 {
            ways[i] = ways[i - 1];
            i -= 1;
        }
        ways[0] = tag | write as u64;
        let l2_line = addr.get() >> self.l2_shift;
        if !self.l2_touch(l2_line) {
            self.fills += 1;
            cost += self.fill_cost;
        }
        if victim & 1 == 1 {
            // Dirty L1 victim drains into L2 like the oracle's: free when
            // the L2 filter holds it, allocate-on-writeback (one DRAM line
            // fill) when it does not.
            self.writebacks += 1;
            let victim_l2_line = (((victim >> 1) - 1) << self.l1_shift) >> self.l2_shift;
            if !self.l2_touch(victim_l2_line) {
                self.victim_fills += 1;
                cost += self.fill_cost;
            }
        }
        self.stall_cycles += cost - self.l1_hit;
        cost
    }

    /// Bulk charge for a strided record scan: `records` record heads
    /// `stride` bytes apart starting at `base`, over which the caller
    /// compared `words` 32-bit words in total (early-exit scans compare
    /// fewer than the maximum). Each head's line is probed once through the
    /// filter (the first word's access); the remaining `words - records`
    /// loads land in the just-probed line and are L1 hits by construction.
    /// Returns the summed cycle cost.
    ///
    /// This is the fast tier's answer to per-word kernel loops: one filter
    /// probe per record instead of one per word, so bulk kernels charge the
    /// same estimate at a fraction of the host cost (DESIGN.md §13).
    ///
    /// Scans longer than [`Self::SCAN_PROBE_BUDGET`] heads are *sampled*:
    /// every `step`-th head is probed and the per-probe average is scaled to
    /// the full scan (counters included). A uniform strided scan is either
    /// resident or streaming as a whole, so the sample is representative and
    /// the estimate stays exact for the cold-scan case; the host cost stays
    /// bounded no matter how large the sweep point is.
    pub fn scan_heads(&mut self, base: VAddr, records: usize, stride: usize, words: u64) -> u64 {
        let step = records.div_ceil(Self::SCAN_PROBE_BUDGET).max(1);
        let before = (
            self.accesses,
            self.l1_misses,
            self.fills,
            self.victim_fills,
            self.stall_cycles,
            self.writebacks,
        );
        let mut cost = 0u64;
        let mut probed = 0u64;
        let mut r = 0;
        while r < records {
            cost += self.access(VAddr::new(base.get() + (r * stride) as u64), false);
            probed += 1;
            r += step;
        }
        if step > 1 {
            let scale = records as f64 / probed as f64;
            let up = |b: u64, a: u64| b + ((a - b) as f64 * scale).round() as u64;
            self.accesses = up(before.0, self.accesses);
            self.l1_misses = up(before.1, self.l1_misses);
            self.fills = up(before.2, self.fills);
            self.victim_fills = up(before.3, self.victim_fills);
            self.stall_cycles = up(before.4, self.stall_cycles);
            self.writebacks = up(before.5, self.writebacks);
            cost = (cost as f64 * scale).round() as u64;
        }
        let tail = words.saturating_sub(records as u64);
        self.accesses += tail;
        cost + tail * self.l1_hit
    }

    /// Heads probed per [`Self::scan_heads`] call before sampling kicks in.
    pub const SCAN_PROBE_BUDGET: usize = 4096;

    /// Probes the L2 filter for `l2_line`, installing it most-recently-used
    /// (evicting the set's LRU on a miss). Returns whether it was resident.
    #[inline]
    fn l2_touch(&mut self, l2_line: u64) -> bool {
        let set = ((l2_line & self.l2_mask) as usize) * self.l2_assoc;
        let ways = &mut self.l2_tags[set..set + self.l2_assoc];
        let tag = l2_line + 1;
        if ways[0] == tag {
            return true;
        }
        let mut way = 1;
        while way < self.l2_assoc {
            if ways[way] == tag {
                while way > 0 {
                    ways[way] = ways[way - 1];
                    way -= 1;
                }
                ways[0] = tag;
                return true;
            }
            way += 1;
        }
        let mut i = self.l2_assoc - 1;
        while i > 0 {
            ways[i] = ways[i - 1];
            i -= 1;
        }
        ways[0] = tag;
        false
    }
}

impl MemModel for FastMem {
    #[inline]
    fn read(&mut self, addr: VAddr) -> u64 {
        self.access(addr, false)
    }

    #[inline]
    fn write(&mut self, addr: VAddr) -> u64 {
        self.access(addr, true)
    }

    #[inline]
    fn fetch(&mut self, _addr: VAddr) -> u64 {
        // Fetches are not modeled (see the error-source list above); the
        // hidden L1I hit latency is what the processor already overlaps.
        self.cfg.l1i.hit_latency
    }

    #[inline]
    fn uncached(&mut self) -> u64 {
        self.uncached += 1;
        self.stall_cycles += self.uncached_cost;
        self.uncached_cost
    }

    fn invalidate_range(&mut self, _start: VAddr, _len: u64) {
        // Deliberate no-op: walking 16 K filter entries per activation would
        // cost more than the fast tier saves. Documented error source.
    }

    fn stats(&self) -> MemStats {
        let mut s = MemStats::new();
        s.l1d = CacheStats {
            name: "L1D",
            hits: self.accesses - self.l1_misses,
            misses: self.l1_misses,
            writes: self.writes,
            writebacks: self.writebacks,
            invalidated: 0,
        };
        s.l2 = CacheStats {
            name: "L2",
            hits: self.l1_misses - self.fills,
            misses: self.fills,
            writes: self.writebacks,
            writebacks: 0,
            invalidated: 0,
        };
        s.dram_fills = self.fills + self.victim_fills;
        s.dram_writebacks = 0;
        s.uncached = self.uncached;
        s.stall_cycles = self.stall_cycles;
        s
    }
}

/// The memory backend a processor runs on: the accurate hierarchy or the
/// fast estimator, chosen per job by [`ExecMode`].
#[derive(Debug)]
pub enum MemBackend {
    /// Full cycle-accurate hierarchy.
    Accurate(Box<Hierarchy>),
    /// Tag-filter estimator.
    Fast(Box<FastMem>),
}

impl MemBackend {
    /// Builds the backend `mode` selects from one hierarchy configuration.
    pub fn new(cfg: HierarchyConfig, mode: ExecMode) -> Self {
        match mode {
            ExecMode::Accurate => MemBackend::Accurate(Box::new(Hierarchy::new(cfg))),
            ExecMode::Fast => MemBackend::Fast(Box::new(FastMem::new(cfg))),
        }
    }

    /// Which tier this backend is.
    pub fn mode(&self) -> ExecMode {
        match self {
            MemBackend::Accurate(_) => ExecMode::Accurate,
            MemBackend::Fast(_) => ExecMode::Fast,
        }
    }

    /// The hierarchy configuration the backend was built from.
    pub fn config(&self) -> &HierarchyConfig {
        match self {
            MemBackend::Accurate(h) => h.config(),
            MemBackend::Fast(f) => f.config(),
        }
    }

    /// The accurate hierarchy, when this backend is one.
    pub fn hierarchy(&self) -> Option<&Hierarchy> {
        match self {
            MemBackend::Accurate(h) => Some(h),
            MemBackend::Fast(_) => None,
        }
    }
}

impl MemModel for MemBackend {
    #[inline]
    fn read(&mut self, addr: VAddr) -> u64 {
        match self {
            MemBackend::Accurate(h) => h.read(addr),
            MemBackend::Fast(f) => f.access(addr, false),
        }
    }

    #[inline]
    fn write(&mut self, addr: VAddr) -> u64 {
        match self {
            MemBackend::Accurate(h) => h.write(addr),
            MemBackend::Fast(f) => f.access(addr, true),
        }
    }

    #[inline]
    fn fetch(&mut self, addr: VAddr) -> u64 {
        match self {
            MemBackend::Accurate(h) => h.fetch(addr),
            MemBackend::Fast(f) => MemModel::fetch(&mut **f, addr),
        }
    }

    #[inline]
    fn uncached(&mut self) -> u64 {
        match self {
            MemBackend::Accurate(h) => h.uncached(),
            MemBackend::Fast(f) => MemModel::uncached(&mut **f),
        }
    }

    fn invalidate_range(&mut self, start: VAddr, len: u64) {
        match self {
            MemBackend::Accurate(h) => h.invalidate_range(start, len),
            MemBackend::Fast(f) => MemModel::invalidate_range(&mut **f, start, len),
        }
    }

    fn stats(&self) -> MemStats {
        match self {
            MemBackend::Accurate(h) => h.stats(),
            MemBackend::Fast(f) => MemModel::stats(&**f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_names_round_trip() {
        for mode in ExecMode::ALL {
            assert_eq!(ExecMode::parse(mode.name()).unwrap(), mode);
            assert_eq!(mode.to_string(), mode.name());
            assert_eq!(mode.name().parse::<ExecMode>().unwrap(), mode);
        }
        assert_eq!(ExecMode::default(), ExecMode::Accurate);
        let err = ExecMode::parse("turbo").unwrap_err();
        assert!(err.contains("turbo") && err.contains("accurate") && err.contains("fast"), "{err}");
    }

    #[test]
    fn fast_cold_read_charges_all_levels_like_the_oracle() {
        let cfg = HierarchyConfig::reference();
        let mut fast = FastMem::new(cfg.clone());
        let mut accurate = Hierarchy::new(cfg);
        let a = VAddr::new(0x10_0000);
        // Compulsory miss: identical cost in both tiers by construction.
        assert_eq!(fast.read(a), accurate.read(a));
        assert_eq!(fast.read(a), accurate.read(a), "both hit at L1 latency");
        // Second line in the same 64-byte L2 line: L1 miss, L2 hit — also
        // identical.
        let b = VAddr::new(0x10_0020);
        assert_eq!(fast.read(b), accurate.read(b));
    }

    #[test]
    fn fast_dirty_displacement_drains_into_the_l2_filter() {
        let cfg = HierarchyConfig::reference();
        let mut m = FastMem::new(cfg.clone());
        let mut oracle = Hierarchy::new(cfg);
        // The 64 KB 2-way L1 filter has 1024 sets of 32-byte lines, so
        // addresses 32 KB apart share a set. Dirty `a`, fill the second
        // way, then a third conflicting line evicts `a` (the LRU): the
        // dirty victim drains into L2, where its line is still resident —
        // free, exactly like the oracle.
        for (addr, write) in [(0u64, true), (32 * 1024, false), (64 * 1024, false)] {
            let a = VAddr::new(addr);
            let (f, o) =
                if write { (m.write(a), oracle.write(a)) } else { (m.read(a), oracle.read(a)) };
            assert_eq!(f, o, "addr {addr:#x}");
        }
        let s = MemModel::stats(&m);
        assert_eq!(s.l1d.writebacks, 1, "the victim drain is counted");
        assert_eq!(s.dram_writebacks, 0, "but never reaches DRAM");
    }

    #[test]
    fn fast_filter_lru_matches_the_oracle_on_set_conflicts() {
        // Three lines in one 2-way set, touched round-robin: both tiers must
        // agree access by access (exact-geometry LRU in the filter).
        let cfg = HierarchyConfig::reference();
        let mut fast = FastMem::new(cfg.clone());
        let mut accurate = Hierarchy::new(cfg);
        let lines = [0u64, 32 * 1024, 64 * 1024];
        for round in 0..4 {
            for (i, &base) in lines.iter().enumerate() {
                let a = VAddr::new(base);
                let write = (round + i) % 2 == 0;
                let (f, o) = if write {
                    (fast.write(a), accurate.write(a))
                } else {
                    (fast.read(a), accurate.read(a))
                };
                assert_eq!(f, o, "round {round}, line {i}");
            }
        }
    }

    #[test]
    fn fast_uncached_matches_the_oracle_exactly() {
        let cfg = HierarchyConfig::reference();
        let mut fast = FastMem::new(cfg.clone());
        let mut accurate = Hierarchy::new(cfg);
        assert_eq!(MemModel::uncached(&mut fast), accurate.uncached());
        assert_eq!(MemModel::stats(&fast).uncached, 1);
    }

    #[test]
    fn fast_stats_are_internally_consistent() {
        let mut m = FastMem::new(HierarchyConfig::reference());
        for i in 0..1000u64 {
            m.access(VAddr::new(i * 48), i % 3 == 0);
        }
        let s = MemModel::stats(&m);
        assert_eq!(s.l1d.accesses(), 1000);
        assert_eq!(s.l2.accesses(), s.l1d.misses);
        assert_eq!(s.dram_fills, s.l2.misses);
        assert!(s.stall_cycles > 0);
    }

    #[test]
    fn fast_estimator_tracks_cache_size_knobs() {
        // A working set that fits a 64 KB filter but thrashes a 4 KB one.
        let mut big = FastMem::new(HierarchyConfig::reference());
        let mut small_cfg = HierarchyConfig::reference();
        small_cfg.l1d.size = 4 * 1024;
        let mut small = FastMem::new(small_cfg);
        let mut cost_big = 0;
        let mut cost_small = 0;
        for round in 0..4 {
            let _ = round;
            for i in 0..512u64 {
                let a = VAddr::new(i * 32);
                cost_big += big.access(a, false);
                cost_small += small.access(a, false);
            }
        }
        assert!(cost_small > cost_big, "small={cost_small} big={cost_big}");
    }

    #[test]
    fn backend_dispatch_matches_components() {
        let cfg = HierarchyConfig::reference();
        let mut backend = MemBackend::new(cfg.clone(), ExecMode::Fast);
        let mut direct = FastMem::new(cfg);
        assert_eq!(backend.mode(), ExecMode::Fast);
        assert!(backend.hierarchy().is_none());
        let a = VAddr::new(0x4000);
        assert_eq!(backend.read(a), direct.read(a));
        assert_eq!(backend.write(a), direct.write(a));
        assert_eq!(MemModel::stats(&backend), MemModel::stats(&direct));
        let acc = MemBackend::new(HierarchyConfig::reference(), ExecMode::Accurate);
        assert_eq!(acc.mode(), ExecMode::Accurate);
        assert!(acc.hierarchy().is_some());
    }
}

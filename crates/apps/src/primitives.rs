//! A fixed data-manipulation primitive set (paper, Section 10).
//!
//! "Further study of data-manipulation primitives could distill a common
//! base set of primitives for a broad set of application domains. If such
//! primitives exist, hybrids of the RADram implementation should be
//! investigated."
//!
//! [`DataPrimitivesFn`] is such a base set: block move, match count, fill
//! and sum, selected by command word. One binding serves every array
//! operation — no re-binding between operation classes — but the generic
//! datapath cannot fuse address generation with each specific computation,
//! so it moves fewer words per logic cycle than the hand-specialized
//! Table 3 circuits. [`run_script_primitives`] runs the STL-array mixed
//! script on this backend so the trade-off can be measured against
//! [`crate::array::run_script`] (`experiments ablations` does exactly that).

use crate::array::ELEMS_PER_PAGE;
use crate::common::{fnv_mix, RunReport, SystemKind};
use active_pages::{
    sync, ActivePageMemory, Execution, GroupId, PageFunction, PageSlice, PAGE_SIZE,
};
use ap_mem::VAddr;
use ap_workloads::array_ops::{ArrayOp, Script};
use radram::{ExecMode, PageActivation, RadramConfig, System};
use std::sync::Arc;

/// Primitive opcodes (command-word values).
pub mod ops {
    /// Block move within the page (`src`, `dst`, `words` params); handles
    /// overlap like `memmove`.
    pub const MOVE: u32 = 1;
    /// Count words equal to a key (`start`, `end`, `key` params).
    pub const COUNT: u32 = 2;
    /// Fill words with a value (`start`, `end`, `value` params).
    pub const FILL: u32 = 3;
    /// Wrapping sum of words into `RESULT` (`start`, `end` params).
    pub const SUM: u32 = 4;
}

/// The fixed-function data-manipulation engine.
///
/// Costs: the shared datapath spends 5 logic cycles per 4 words moved and 3
/// cycles per 2 words scanned — slower than the specialized shifter (1
/// word/cycle) and comparator (1.2 words/cycle) because the generic unit
/// multiplexes its address generators and result paths.
#[derive(Debug)]
pub struct DataPrimitivesFn;

impl PageFunction for DataPrimitivesFn {
    fn footprint(&self) -> active_pages::StaticFootprint {
        crate::common::whole_page_footprint()
    }

    fn name(&self) -> &'static str {
        "data-primitives"
    }

    fn logic_elements(&self) -> u32 {
        static LES: std::sync::OnceLock<u32> = std::sync::OnceLock::new();
        *LES.get_or_init(|| {
            let n = ap_synth::circuits::data_primitives();
            ap_synth::mapper::map(&n).logic_elements
        })
    }

    fn triggers(&self, word: usize, value: u32) -> bool {
        word == sync::CMD && (ops::MOVE..=ops::SUM).contains(&value)
    }

    fn execute(&self, page: &mut PageSlice<'_>) -> Execution {
        let cmd = page.ctrl(sync::CMD);
        let p0 = page.ctrl(sync::PARAM) as usize;
        let p1 = page.ctrl(sync::PARAM + 1) as usize;
        let p2 = page.ctrl(sync::PARAM + 2);
        let cycles = match cmd {
            ops::MOVE => {
                // p0 = src word, p1 = dst word, p2 = word count.
                let words = p2 as usize;
                if words > 0 {
                    page.copy_within(
                        sync::BODY_OFFSET + 4 * p0,
                        sync::BODY_OFFSET + 4 * p1,
                        4 * words,
                    );
                }
                words as u64 * 5 / 4 + 24
            }
            ops::COUNT => {
                let mut count = 0u32;
                for w in p0..p1 {
                    if page.read_u32(sync::BODY_OFFSET + 4 * w) == p2 {
                        count += 1;
                    }
                }
                page.set_ctrl(sync::RESULT, count);
                (p1 - p0) as u64 * 3 / 2 + 24
            }
            ops::FILL => {
                for w in p0..p1 {
                    page.write_u32(sync::BODY_OFFSET + 4 * w, p2);
                }
                (p1 - p0) as u64 * 5 / 4 + 24
            }
            ops::SUM => {
                let mut sum = 0u32;
                for w in p0..p1 {
                    sum = sum.wrapping_add(page.read_u32(sync::BODY_OFFSET + 4 * w));
                }
                page.set_ctrl(sync::RESULT, sum);
                (p1 - p0) as u64 * 3 / 2 + 24
            }
            other => panic!("unknown primitive opcode {other}"),
        };
        page.set_ctrl(sync::STATUS, sync::DONE);
        Execution::run(cycles)
    }
}

fn word_addr(page_base: VAddr, w: usize) -> VAddr {
    page_base + (sync::BODY_OFFSET + 4 * w) as u64
}

struct PrimArray {
    base: VAddr,
    n: usize,
}

impl PrimArray {
    fn page_base(&self, p: usize) -> VAddr {
        self.base + (p * PAGE_SIZE) as u64
    }

    fn count_in_page(&self, p: usize) -> usize {
        (self.n - p * ELEMS_PER_PAGE).min(ELEMS_PER_PAGE)
    }

    fn elem_addr(&self, i: usize) -> VAddr {
        word_addr(self.page_base(i / ELEMS_PER_PAGE), i % ELEMS_PER_PAGE)
    }

    fn move_op(pb: VAddr, src: usize, dst: usize, words: usize) -> PageActivation {
        PageActivation::new(pb, ops::MOVE)
            .with_param(sync::PARAM, src as u32)
            .with_param(sync::PARAM + 1, dst as u32)
            .with_param(sync::PARAM + 2, words as u32)
    }

    fn insert(&mut self, sys: &mut System, idx: usize, value: u32) {
        let p0 = idx / ELEMS_PER_PAGE;
        let off0 = idx % ELEMS_PER_PAGE;
        let last = (self.n - 1) / ELEMS_PER_PAGE;
        let mut carries = Vec::with_capacity(last + 1 - p0);
        for p in p0..=last {
            let cnt = self.count_in_page(p);
            carries.push(sys.load_u32(word_addr(self.page_base(p), cnt - 1)));
            sys.alu(4);
        }
        let batch: Vec<PageActivation> = (p0..=last)
            .map(|p| {
                let start = if p == p0 { off0 } else { 0 };
                let cnt = self.count_in_page(p);
                let words =
                    if p == last && cnt < ELEMS_PER_PAGE { cnt - start } else { cnt - start - 1 };
                Self::move_op(self.page_base(p), start, start + 1, words)
            })
            .collect();
        sys.activate_pages(&batch);
        for p in p0..=last {
            sys.wait_done(self.page_base(p));
        }
        self.n += 1;
        sys.store_u32(self.elem_addr(idx), value);
        for (k, carry) in carries.iter().enumerate() {
            let dst = (p0 + k + 1) * ELEMS_PER_PAGE;
            if dst < self.n {
                sys.store_u32(self.elem_addr(dst), *carry);
                sys.alu(2);
            }
        }
    }

    fn delete(&mut self, sys: &mut System, idx: usize) {
        let p0 = idx / ELEMS_PER_PAGE;
        let off0 = idx % ELEMS_PER_PAGE;
        let last = (self.n - 1) / ELEMS_PER_PAGE;
        let mut carries = Vec::with_capacity(last.saturating_sub(p0));
        for p in p0 + 1..=last {
            carries.push(sys.load_u32(word_addr(self.page_base(p), 0)));
            sys.alu(4);
        }
        let batch: Vec<PageActivation> = (p0..=last)
            .map(|p| {
                let start = if p == p0 { off0 } else { 0 };
                let cnt = self.count_in_page(p);
                Self::move_op(self.page_base(p), start + 1, start, cnt - start - 1)
            })
            .collect();
        sys.activate_pages(&batch);
        for p in p0..=last {
            sys.wait_done(self.page_base(p));
        }
        for (k, carry) in carries.iter().enumerate() {
            let p = p0 + k;
            let cnt = self.count_in_page(p);
            sys.store_u32(word_addr(self.page_base(p), cnt - 1), *carry);
            sys.alu(2);
        }
        self.n -= 1;
    }

    fn count(&self, sys: &mut System, key: u32) -> u32 {
        let last = (self.n - 1) / ELEMS_PER_PAGE;
        let batch: Vec<PageActivation> = (0..=last)
            .map(|p| {
                PageActivation::new(self.page_base(p), ops::COUNT)
                    .with_param(sync::PARAM, 0)
                    .with_param(sync::PARAM + 1, self.count_in_page(p) as u32)
                    .with_param(sync::PARAM + 2, key)
            })
            .collect();
        sys.activate_pages(&batch);
        let mut total = 0;
        for p in 0..=last {
            sys.wait_done(self.page_base(p));
            total += sys.read_ctrl(self.page_base(p), sync::RESULT);
            sys.alu(2);
        }
        total
    }
}

/// Runs a mixed array script on the primitive backend (RADram only): one
/// binding for the whole script, generic per-word costs.
///
/// `mode` picks the execution tier (see DESIGN.md §13).
///
/// # Examples
///
/// ```no_run
/// use ap_apps::primitives::run_script_primitives;
/// use ap_apps::ExecMode;
/// use ap_workloads::array_ops::Script;
/// use radram::RadramConfig;
///
/// let script = Script::generate(1, 10_000, 8);
/// let r = run_script_primitives(&script, &RadramConfig::reference(), ExecMode::Accurate);
/// assert_eq!(r.stats.rebinds, 0);
/// ```
pub fn run_script_primitives(script: &Script, cfg: &RadramConfig, mode: ExecMode) -> RunReport {
    let max_len = script.initial_len + script.ops.len() + 1;
    let alloc_pages = max_len.div_ceil(ELEMS_PER_PAGE) + 1;
    let mut cfg = cfg.clone();
    cfg.ram_capacity = (alloc_pages + 4) * PAGE_SIZE;
    let pages = script.initial_len as f64 / ELEMS_PER_PAGE as f64;

    let mut sys = System::radram_mode(cfg, mode);
    let group = GroupId::new(7);
    let base = sys.ap_alloc_pages(group, alloc_pages);
    sys.ap_bind(group, Arc::new(DataPrimitivesFn));
    let mut arr = PrimArray { base, n: script.initial_len };
    for (i, v) in script.initial_values().enumerate() {
        let a = arr.elem_addr(i);
        sys.ram_write_u32(a, v);
    }

    let mut checksum = 0u64;
    let t0 = sys.kernel_start();
    for op in &script.ops {
        match *op {
            ArrayOp::Insert { index, value } => arr.insert(&mut sys, index, value),
            ArrayOp::Delete { index } => arr.delete(&mut sys, index),
            ArrayOp::Count { value } => {
                let count = arr.count(&mut sys, value);
                checksum = fnv_mix(checksum, count as u64);
            }
        }
    }
    let kernel = sys.kernel_region(t0);
    checksum = fnv_mix(checksum, arr.n as u64);
    for i in 0..arr.n {
        let a = arr.elem_addr(i);
        checksum = fnv_mix(checksum, sys.ram_read_u32(a) as u64);
    }
    RunReport {
        app: "array-script",
        system: SystemKind::Radram,
        mode: sys.mode(),
        pages,
        kernel_cycles: kernel,
        total_cycles: kernel,
        dispatch_cycles: 0,
        checksum,
        stats: sys.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::run_script;

    #[test]
    fn primitive_backend_matches_reference() {
        let script = Script::generate(11, 3000, 18);
        let cfg = RadramConfig::reference();
        let conv = run_script(&script, SystemKind::Conventional, &cfg, ExecMode::Accurate);
        let prim = run_script_primitives(&script, &cfg, ExecMode::Accurate);
        assert_eq!(conv.checksum, prim.checksum);
        assert_eq!(prim.stats.rebinds, 0, "one binding must serve the whole script");
    }

    #[test]
    fn primitive_backend_matches_custom_circuits() {
        let script = Script::generate(12, 200_000, 12);
        let cfg = RadramConfig::reference();
        let custom = run_script(&script, SystemKind::Radram, &cfg, ExecMode::Accurate);
        let prim = run_script_primitives(&script, &cfg, ExecMode::Accurate);
        assert_eq!(custom.checksum, prim.checksum);
        // The generic datapath does the same work more slowly per word...
        assert!(prim.stats.logic_busy_cycles > custom.stats.logic_busy_cycles);
        // ...but never pays reconfiguration.
        assert!(custom.stats.rebinds > 0);
        assert_eq!(prim.stats.rebinds, 0);
    }

    #[test]
    fn primitive_circuit_fits_the_page_budget() {
        assert!(DataPrimitivesFn.logic_elements() <= 256);
        // And it is meaningfully bigger than any single specialized circuit.
        assert!(
            DataPrimitivesFn.logic_elements() > ap_synth::circuits::logic_elements("Array-insert")
        );
    }

    #[test]
    fn fill_and_sum_primitives_work() {
        use active_pages::IdealExecutor;
        let mut exec = IdealExecutor::new(1);
        exec.write_u32(0, sync::ctrl_offset(sync::PARAM), 0);
        exec.write_u32(0, sync::ctrl_offset(sync::PARAM + 1), 100);
        exec.write_u32(0, sync::ctrl_offset(sync::PARAM + 2), 7);
        exec.write_u32(0, sync::ctrl_offset(sync::CMD), ops::FILL);
        exec.activate(&DataPrimitivesFn, 0);
        exec.write_u32(0, sync::ctrl_offset(sync::CMD), ops::SUM);
        exec.activate(&DataPrimitivesFn, 0);
        assert_eq!(exec.read_u32(0, sync::ctrl_offset(sync::RESULT)), 700);
    }
}

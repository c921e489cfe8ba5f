//! The STL array template class (paper Section 5.1).
//!
//! A dense `u32` array that supports `insert`, `delete` and `count`
//! (binary-find support). The conventional implementation shifts elements
//! with processor loads and stores; the Active-Page implementation shifts
//! every page's segment in parallel while the processor handles the
//! cross-page boundary moves (exactly the Table 2 partition: "C++ code using
//! array class; cross-page moves" on the processor, "array insert, delete
//! and find" in the pages).
//!
//! The paper's adaptive `array-delete` is reproduced: arrays smaller than
//! one Active Page are deleted processor-side because the SimpleScalar ISA
//! favors the conventional delete at small sizes.

use crate::common::{fnv_mix, stage_le, RunReport, SystemKind};
use active_pages::{
    sync, ActivePageMemory, Execution, GroupId, PageFunction, PageSlice, PAGE_SIZE,
};
use ap_mem::VAddr;
use radram::{ExecMode, PageActivation, RadramConfig, System};
use std::sync::Arc;

/// Elements stored per Active Page (body words minus a spare slot region).
pub const ELEMS_PER_PAGE: usize = 131_040;

/// Number of primitive operations each benchmark run performs.
pub const OPS_PER_RUN: usize = 4;

const CMD_SHIFT_RIGHT: u32 = 1;
const CMD_SHIFT_LEFT: u32 = 2;
const CMD_COUNT: u32 = 3;

fn word_addr(base: VAddr, word: usize) -> VAddr {
    base + (sync::BODY_OFFSET + 4 * word) as u64
}

/// The insert-side shifter circuit (Table 3's `Array-insert`).
#[derive(Debug)]
pub struct ArrayInsertFn;

/// The delete-side shifter circuit (Table 3's `Array-delete`).
#[derive(Debug)]
pub struct ArrayDeleteFn;

/// The find/count comparator circuit (Table 3's `Array-find`).
#[derive(Debug)]
pub struct ArrayFindFn;

fn shift_execute(page: &mut PageSlice<'_>, right: bool) -> Execution {
    let start = page.ctrl(sync::PARAM) as usize;
    let end = page.ctrl(sync::PARAM + 1) as usize;
    debug_assert!(start <= end && end <= ELEMS_PER_PAGE + 16);
    let words = end.saturating_sub(start);
    if words > 0 {
        let s = sync::BODY_OFFSET + 4 * start;
        if right {
            // [start .. end-1] -> [start+1 .. end]
            if words > 1 {
                page.copy_within(s, s + 4, (words - 1) * 4);
            }
        } else {
            // [start+1 .. end] -> [start .. end-1]
            if words > 1 {
                page.copy_within(s + 4, s, (words - 1) * 4);
            }
        }
    }
    page.set_ctrl(sync::STATUS, sync::DONE);
    // One word per logic cycle through the 32-bit subarray port (the row
    // buffer pipelines the read and write), plus fixed startup.
    Execution::run(words as u64 + 16)
}

impl PageFunction for ArrayInsertFn {
    fn footprint(&self) -> active_pages::StaticFootprint {
        crate::common::whole_page_footprint()
    }

    fn name(&self) -> &'static str {
        "array-insert"
    }

    fn logic_elements(&self) -> u32 {
        ap_synth::circuits::logic_elements("Array-insert")
    }

    fn execute(&self, page: &mut PageSlice<'_>) -> Execution {
        debug_assert_eq!(page.ctrl(sync::CMD), CMD_SHIFT_RIGHT);
        shift_execute(page, true)
    }
}

impl PageFunction for ArrayDeleteFn {
    fn footprint(&self) -> active_pages::StaticFootprint {
        crate::common::whole_page_footprint()
    }

    fn name(&self) -> &'static str {
        "array-delete"
    }

    fn logic_elements(&self) -> u32 {
        ap_synth::circuits::logic_elements("Array-delete")
    }

    fn execute(&self, page: &mut PageSlice<'_>) -> Execution {
        debug_assert_eq!(page.ctrl(sync::CMD), CMD_SHIFT_LEFT);
        shift_execute(page, false)
    }
}

impl PageFunction for ArrayFindFn {
    fn footprint(&self) -> active_pages::StaticFootprint {
        crate::common::read_body_footprint()
    }

    fn name(&self) -> &'static str {
        "array-find"
    }

    fn logic_elements(&self) -> u32 {
        ap_synth::circuits::logic_elements("Array-find")
    }

    fn execute(&self, page: &mut PageSlice<'_>) -> Execution {
        debug_assert_eq!(page.ctrl(sync::CMD), CMD_COUNT);
        let start = page.ctrl(sync::PARAM) as usize;
        let end = page.ctrl(sync::PARAM + 1) as usize;
        let key = page.ctrl(sync::PARAM + 2);
        let mut count = 0u32;
        for w in start..end {
            if page.read_u32(sync::BODY_OFFSET + 4 * w) == key {
                count += 1;
            }
        }
        page.set_ctrl(sync::RESULT, count);
        page.set_ctrl(sync::STATUS, sync::DONE);
        // Slightly above one word per cycle: the match counter taps the
        // stream (Table 4's find runs a touch slower than the shifters).
        Execution::run((end - start) as u64 * 6 / 5 + 16)
    }
}

/// Which array primitive a run exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrayPrimitive {
    /// Repeated mid-array inserts.
    Insert,
    /// Repeated mid-array deletes (adaptive below one page).
    Delete,
    /// Repeated whole-array counts.
    Find,
}

impl ArrayPrimitive {
    /// The benchmark name used in figures.
    pub fn app_name(self) -> &'static str {
        match self {
            ArrayPrimitive::Insert => "array-insert",
            ArrayPrimitive::Delete => "array-delete",
            ArrayPrimitive::Find => "array-find",
        }
    }
}

fn array_sizes(pages: f64) -> usize {
    ((pages * ELEMS_PER_PAGE as f64) as usize).max(64)
}

fn initial_value(i: usize) -> u32 {
    (i as u32).wrapping_mul(2_654_435_761) % 64
}

/// Deterministic operation positions for run verification.
fn op_index(n: usize, j: usize) -> usize {
    n / 3 + j * (n / (3 * OPS_PER_RUN + 1)).max(1)
}

/// Runs one array-primitive benchmark at `pages` problem size.
///
/// # Examples
///
/// ```no_run
/// use ap_apps::array::{run, ArrayPrimitive};
/// use ap_apps::SystemKind;
/// use radram::RadramConfig;
///
/// let conv = run(ArrayPrimitive::Find, SystemKind::Conventional, 0.5, &RadramConfig::reference());
/// let rad = run(ArrayPrimitive::Find, SystemKind::Radram, 0.5, &RadramConfig::reference());
/// assert_eq!(conv.checksum, rad.checksum);
/// ```
pub fn run(prim: ArrayPrimitive, kind: SystemKind, pages: f64, cfg: &RadramConfig) -> RunReport {
    run_mode(prim, kind, pages, cfg, ExecMode::Accurate)
}

/// [`run`] on the execution tier `mode` selects (see DESIGN.md §13).
pub fn run_mode(
    prim: ArrayPrimitive,
    kind: SystemKind,
    pages: f64,
    cfg: &RadramConfig,
    mode: ExecMode,
) -> RunReport {
    let n0 = array_sizes(pages);
    let alloc_pages = n0.div_ceil(ELEMS_PER_PAGE) + 2;
    let mut cfg = cfg.clone();
    cfg.ram_capacity = (alloc_pages + 4) * PAGE_SIZE;
    match kind {
        SystemKind::Conventional => run_conventional(prim, pages, n0, cfg, mode),
        SystemKind::Radram => run_radram(prim, pages, n0, alloc_pages, cfg, mode),
    }
}

#[allow(clippy::too_many_arguments)] // a plain report constructor
fn finish(
    app: &'static str,
    kind: SystemKind,
    pages: f64,
    kernel: u64,
    total: u64,
    dispatch: u64,
    checksum: u64,
    sys: &System,
) -> RunReport {
    RunReport {
        app,
        system: kind,
        mode: sys.mode(),
        pages,
        kernel_cycles: kernel,
        total_cycles: total,
        dispatch_cycles: dispatch,
        checksum,
        stats: sys.stats(),
    }
}

fn run_conventional(
    prim: ArrayPrimitive,
    pages: f64,
    n0: usize,
    cfg: RadramConfig,
    mode: ExecMode,
) -> RunReport {
    let mut sys = System::conventional_mode(cfg, mode);
    let base = sys.ram_alloc((n0 + OPS_PER_RUN + 1) * 4, 8);
    // Untimed setup: populate initial contents directly.
    stage_le(&mut sys, base, (0..n0).map(|i| initial_value(i).to_le_bytes()));
    let mut n = n0;
    let mut checksum = 0u64;
    let t0 = sys.kernel_start();
    for j in 0..OPS_PER_RUN {
        match prim {
            ArrayPrimitive::Insert => {
                let idx = op_index(n, j);
                conventional_shift_right(&mut sys, base, idx, n);
                sys.store_u32(base + (4 * idx) as u64, 1000 + j as u32);
                n += 1;
            }
            ArrayPrimitive::Delete => {
                let idx = op_index(n, j);
                conventional_shift_left(&mut sys, base, idx, n);
                n -= 1;
            }
            ArrayPrimitive::Find => {
                let key = (7 + j as u32) % 64;
                let mut count = 0u32;
                for i in 0..n {
                    let v = sys.load_u32(base + (4 * i) as u64);
                    sys.alu(1);
                    if sys.branch(1, v == key) {
                        count += 1;
                        sys.alu(1);
                    }
                }
                checksum = fnv_mix(checksum, count as u64);
            }
        }
    }
    let kernel = sys.kernel_region(t0);
    checksum = digest_array(&sys, base, n, checksum);
    finish(prim.app_name(), SystemKind::Conventional, pages, kernel, kernel, 0, checksum, &sys)
}

fn conventional_shift_right(sys: &mut System, base: VAddr, idx: usize, n: usize) {
    for i in (idx..n).rev() {
        let v = sys.load_u32(base + (4 * i) as u64);
        sys.store_u32(base + (4 * (i + 1)) as u64, v);
        sys.alu(2); // index update + loop bound check
    }
}

fn conventional_shift_left(sys: &mut System, base: VAddr, idx: usize, n: usize) {
    for i in idx..n - 1 {
        let v = sys.load_u32(base + (4 * (i + 1)) as u64);
        sys.store_u32(base + (4 * i) as u64, v);
        sys.alu(2);
    }
}

fn digest_array(sys: &System, base: VAddr, n: usize, h: u64) -> u64 {
    // Sample the full contents host-side (free): correctness check only.
    digest_words(fnv_mix(h, n as u64), sys.ram_slice(base, 4 * n))
}

/// Folds the little-endian 32-bit words of `bytes` into `h`.
fn digest_words(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .chunks_exact(4)
        .fold(h, |h, w| fnv_mix(h, u32::from_le_bytes(w.try_into().unwrap()) as u64))
}

struct ApArray {
    base: VAddr,
    n: usize,
}

impl ApArray {
    fn page_base(&self, p: usize) -> VAddr {
        self.base + (p * PAGE_SIZE) as u64
    }

    fn count_in_page(&self, p: usize) -> usize {
        (self.n - p * ELEMS_PER_PAGE).min(ELEMS_PER_PAGE)
    }

    fn elem_addr(&self, i: usize) -> VAddr {
        word_addr(self.page_base(i / ELEMS_PER_PAGE), i % ELEMS_PER_PAGE)
    }

    /// Untimed setup: the first `values.len()` elements, page by page.
    fn stage(&self, sys: &mut System, values: impl ExactSizeIterator<Item = u32>) {
        let mut values = values.map(u32::to_le_bytes);
        let mut p = 0;
        while values.len() > 0 {
            let n = values.len().min(ELEMS_PER_PAGE);
            stage_le(sys, word_addr(self.page_base(p), 0), values.by_ref().take(n));
            p += 1;
        }
    }

    /// Folds the element count and then every element, in logical order,
    /// into `h` (host-side, untimed).
    fn digest(&self, sys: &System, h: u64) -> u64 {
        let mut h = fnv_mix(h, self.n as u64);
        for p in 0..self.n.div_ceil(ELEMS_PER_PAGE) {
            let n = (self.n - p * ELEMS_PER_PAGE).min(ELEMS_PER_PAGE);
            h = digest_words(h, sys.ram_slice(word_addr(self.page_base(p), 0), 4 * n));
        }
        h
    }

    fn insert(&mut self, sys: &mut System, idx: usize, value: u32, dispatch: &mut u64) {
        let p0 = idx / ELEMS_PER_PAGE;
        let off0 = idx % ELEMS_PER_PAGE;
        let last = (self.n - 1) / ELEMS_PER_PAGE;
        // Cross-page moves: the processor captures each page's last element
        // before the shifts clobber them (Table 2's processor-side work).
        let mut carries = Vec::with_capacity(last + 1 - p0);
        for p in p0..=last {
            let cnt = self.count_in_page(p);
            carries.push(sys.load_u32(word_addr(self.page_base(p), cnt - 1)));
            sys.alu(4);
        }
        // Parallel in-page shifts. A non-full final page shifts one slot
        // past its current count so its own tail element survives; full
        // pages evict their tail as the carry captured above.
        let d0 = sys.now();
        let batch: Vec<PageActivation> = (p0..=last)
            .map(|p| {
                let start = if p == p0 { off0 } else { 0 };
                let cnt = self.count_in_page(p);
                let end = if p == last && cnt < ELEMS_PER_PAGE { cnt + 1 } else { cnt };
                PageActivation::new(self.page_base(p), CMD_SHIFT_RIGHT)
                    .with_param(sync::PARAM, start as u32)
                    .with_param(sync::PARAM + 1, end as u32)
            })
            .collect();
        sys.activate_pages(&batch);
        *dispatch += sys.now() - d0;
        for p in p0..=last {
            sys.wait_done(self.page_base(p));
        }
        // Post-processing: boundary words ripple into the next pages.
        self.n += 1;
        sys.store_u32(self.elem_addr(idx), value);
        for (k, carry) in carries.iter().enumerate() {
            let src_page = p0 + k;
            let dst = (src_page + 1) * ELEMS_PER_PAGE;
            if dst < self.n {
                sys.store_u32(self.elem_addr(dst), *carry);
                sys.alu(2);
            }
        }
    }

    fn delete(&mut self, sys: &mut System, idx: usize, dispatch: &mut u64) {
        let p0 = idx / ELEMS_PER_PAGE;
        let off0 = idx % ELEMS_PER_PAGE;
        let last = (self.n - 1) / ELEMS_PER_PAGE;
        // Capture each following page's first element; it will cross into
        // the previous page.
        let mut carries = Vec::with_capacity(last.saturating_sub(p0));
        for p in p0 + 1..=last {
            carries.push(sys.load_u32(word_addr(self.page_base(p), 0)));
            sys.alu(4);
        }
        let d0 = sys.now();
        let batch: Vec<PageActivation> = (p0..=last)
            .map(|p| {
                let start = if p == p0 { off0 } else { 0 };
                let end = self.count_in_page(p);
                PageActivation::new(self.page_base(p), CMD_SHIFT_LEFT)
                    .with_param(sync::PARAM, start as u32)
                    .with_param(sync::PARAM + 1, end as u32)
            })
            .collect();
        sys.activate_pages(&batch);
        *dispatch += sys.now() - d0;
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

    fn count(&self, sys: &mut System, key: u32, dispatch: &mut u64) -> u32 {
        let last = (self.n - 1) / ELEMS_PER_PAGE;
        let d0 = sys.now();
        let batch: Vec<PageActivation> = (0..=last)
            .map(|p| {
                PageActivation::new(self.page_base(p), CMD_COUNT)
                    .with_param(sync::PARAM, 0)
                    .with_param(sync::PARAM + 1, self.count_in_page(p) as u32)
                    .with_param(sync::PARAM + 2, key)
            })
            .collect();
        sys.activate_pages(&batch);
        *dispatch += sys.now() - d0;
        let mut total = 0u32;
        for p in 0..=last {
            sys.wait_done(self.page_base(p));
            total += sys.read_ctrl(self.page_base(p), sync::RESULT);
            sys.alu(2);
        }
        total
    }
}

fn run_radram(
    prim: ArrayPrimitive,
    pages: f64,
    n0: usize,
    alloc_pages: usize,
    cfg: RadramConfig,
    mode: ExecMode,
) -> RunReport {
    let mut sys = System::radram_mode(cfg, mode);
    let group = GroupId::new(1);
    let base = sys.ap_alloc_pages(group, alloc_pages);
    let func: Arc<dyn PageFunction> = match prim {
        ArrayPrimitive::Insert => Arc::new(ArrayInsertFn),
        ArrayPrimitive::Delete => Arc::new(ArrayDeleteFn),
        ArrayPrimitive::Find => Arc::new(ArrayFindFn),
    };
    sys.ap_bind(group, func);

    let mut arr = ApArray { base, n: n0 };
    // Untimed setup.
    arr.stage(&mut sys, (0..n0).map(initial_value));

    let mut checksum = 0u64;
    let mut dispatch = 0u64;
    let t0 = sys.kernel_start();
    for j in 0..OPS_PER_RUN {
        match prim {
            ArrayPrimitive::Insert => {
                let idx = op_index(arr.n, j);
                arr.insert(&mut sys, idx, 1000 + j as u32, &mut dispatch);
            }
            ArrayPrimitive::Delete => {
                let idx = op_index(arr.n, j);
                if arr.n < ELEMS_PER_PAGE {
                    // Adaptive algorithm: sub-page deletes run on the
                    // processor (the SimpleScalar ISA favors them).
                    conventional_shift_left(&mut sys, word_addr(arr.base, 0), idx, arr.n);
                    arr.n -= 1;
                } else {
                    arr.delete(&mut sys, idx, &mut dispatch);
                }
            }
            ArrayPrimitive::Find => {
                let key = (7 + j as u32) % 64;
                let count = arr.count(&mut sys, key, &mut dispatch);
                checksum = fnv_mix(checksum, count as u64);
            }
        }
    }
    let kernel = sys.kernel_region(t0);
    // Digest the distributed contents in logical order (host-side).
    checksum = arr.digest(&sys, checksum);
    finish(prim.app_name(), SystemKind::Radram, pages, kernel, kernel, dispatch, checksum, &sys)
}

/// Runs a mixed-operation [`ap_workloads::array_ops::Script`] on the given
/// system.
///
/// Unlike the fixed-primitive benchmarks, a mixed script exercises the
/// paper's re-binding behaviour: the three array circuits together exceed a
/// page's 256 logic elements, so switching between insert/delete and find
/// operations re-binds the group and pays the reconfiguration cost
/// ("re-binding may be necessary to make room for new functions").
///
/// # Examples
///
/// ```no_run
/// use ap_apps::array::run_script;
/// use ap_apps::SystemKind;
/// use ap_workloads::array_ops::Script;
/// use radram::RadramConfig;
///
/// let script = Script::generate(1, 10_000, 16);
/// let c = run_script(&script, SystemKind::Conventional, &RadramConfig::reference());
/// let r = run_script(&script, SystemKind::Radram, &RadramConfig::reference());
/// assert_eq!(c.checksum, r.checksum);
/// ```
pub fn run_script(
    script: &ap_workloads::array_ops::Script,
    kind: SystemKind,
    cfg: &RadramConfig,
) -> RunReport {
    run_script_mode(script, kind, cfg, ExecMode::Accurate)
}

/// [`run_script`] on the execution tier `mode` selects.
pub fn run_script_mode(
    script: &ap_workloads::array_ops::Script,
    kind: SystemKind,
    cfg: &RadramConfig,
    mode: ExecMode,
) -> RunReport {
    use ap_workloads::array_ops::ArrayOp;

    let max_len = script.initial_len + script.ops.len() + 1;
    let alloc_pages = max_len.div_ceil(ELEMS_PER_PAGE) + 1;
    let mut cfg = cfg.clone();
    cfg.ram_capacity = (alloc_pages + 4) * PAGE_SIZE;
    let pages = script.initial_len as f64 / ELEMS_PER_PAGE as f64;

    match kind {
        SystemKind::Conventional => {
            let mut sys = System::conventional_mode(cfg, mode);
            let base = sys.ram_alloc(max_len * 4, 8);
            stage_le(&mut sys, base, script.initial_values().map(u32::to_le_bytes));
            let mut n = script.initial_len;
            let mut checksum = 0u64;
            let t0 = sys.kernel_start();
            for op in &script.ops {
                match *op {
                    ArrayOp::Insert { index, value } => {
                        conventional_shift_right(&mut sys, base, index, n);
                        sys.store_u32(base + (4 * index) as u64, value);
                        n += 1;
                    }
                    ArrayOp::Delete { index } => {
                        conventional_shift_left(&mut sys, base, index, n);
                        n -= 1;
                    }
                    ArrayOp::Count { value } => {
                        let mut count = 0u32;
                        for i in 0..n {
                            let v = sys.load_u32(base + (4 * i) as u64);
                            sys.alu(1);
                            if sys.branch(2, v == value) {
                                count += 1;
                            }
                        }
                        checksum = fnv_mix(checksum, count as u64);
                    }
                }
            }
            let kernel = sys.kernel_region(t0);
            checksum = digest_array(&sys, base, n, checksum);
            finish(
                "array-script",
                SystemKind::Conventional,
                pages,
                kernel,
                kernel,
                0,
                checksum,
                &sys,
            )
        }
        SystemKind::Radram => {
            let mut sys = System::radram_mode(cfg, mode);
            let group = GroupId::new(1);
            let base = sys.ap_alloc_pages(group, alloc_pages);
            let mut arr = ApArray { base, n: script.initial_len };
            arr.stage(&mut sys, script.initial_values());
            // One circuit is bound at a time; changing operation class
            // re-binds (and re-configures) the group.
            fn ensure(
                sys: &mut System,
                group: GroupId,
                want: ArrayPrimitive,
                bound: &mut Option<ArrayPrimitive>,
            ) {
                if *bound != Some(want) {
                    let func: Arc<dyn PageFunction> = match want {
                        ArrayPrimitive::Insert => Arc::new(ArrayInsertFn),
                        ArrayPrimitive::Delete => Arc::new(ArrayDeleteFn),
                        ArrayPrimitive::Find => Arc::new(ArrayFindFn),
                    };
                    sys.ap_bind(group, func);
                    *bound = Some(want);
                }
            }
            let mut bound: Option<ArrayPrimitive> = None;
            let mut checksum = 0u64;
            let mut dispatch = 0u64;
            let t0 = sys.kernel_start();
            for op in &script.ops {
                match *op {
                    ArrayOp::Insert { index, value } => {
                        ensure(&mut sys, group, ArrayPrimitive::Insert, &mut bound);
                        arr.insert(&mut sys, index, value, &mut dispatch);
                    }
                    ArrayOp::Delete { index } => {
                        if arr.n < ELEMS_PER_PAGE {
                            conventional_shift_left(&mut sys, word_addr(arr.base, 0), index, arr.n);
                            arr.n -= 1;
                        } else {
                            ensure(&mut sys, group, ArrayPrimitive::Delete, &mut bound);
                            arr.delete(&mut sys, index, &mut dispatch);
                        }
                    }
                    ArrayOp::Count { value } => {
                        ensure(&mut sys, group, ArrayPrimitive::Find, &mut bound);
                        let count = arr.count(&mut sys, value, &mut dispatch);
                        checksum = fnv_mix(checksum, count as u64);
                    }
                }
            }
            let kernel = sys.kernel_region(t0);
            checksum = arr.digest(&sys, checksum);
            finish(
                "array-script",
                SystemKind::Radram,
                pages,
                kernel,
                kernel,
                dispatch,
                checksum,
                &sys,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::speedup;

    fn reference() -> RadramConfig {
        RadramConfig::reference()
    }

    fn both(prim: ArrayPrimitive, pages: f64) -> (RunReport, RunReport) {
        let c = run(prim, SystemKind::Conventional, pages, &reference());
        let r = run(prim, SystemKind::Radram, pages, &reference());
        (c, r)
    }

    #[test]
    fn insert_results_match_across_systems() {
        let (c, r) = both(ArrayPrimitive::Insert, 0.02);
        assert_eq!(c.checksum, r.checksum);
    }

    #[test]
    fn delete_results_match_across_systems() {
        let (c, r) = both(ArrayPrimitive::Delete, 0.02);
        assert_eq!(c.checksum, r.checksum);
    }

    #[test]
    fn find_results_match_across_systems() {
        let (c, r) = both(ArrayPrimitive::Find, 0.02);
        assert_eq!(c.checksum, r.checksum);
    }

    #[test]
    fn multi_page_insert_crosses_boundaries() {
        let (c, r) = both(ArrayPrimitive::Insert, 2.3);
        assert_eq!(c.checksum, r.checksum);
        assert!(speedup(&c, &r) > 1.0, "multi-page insert should win");
    }

    #[test]
    fn multi_page_delete_crosses_boundaries() {
        let (c, r) = both(ArrayPrimitive::Delete, 2.3);
        assert_eq!(c.checksum, r.checksum);
    }

    #[test]
    fn multi_page_find_sums_partial_counts() {
        let (c, r) = both(ArrayPrimitive::Find, 3.1);
        assert_eq!(c.checksum, r.checksum);
        assert!(speedup(&c, &r) > 1.0);
    }

    #[test]
    fn sub_page_delete_uses_the_processor() {
        // The adaptive algorithm should do sub-page deletes without any page
        // activations at all.
        let r = run(ArrayPrimitive::Delete, SystemKind::Radram, 0.1, &reference());
        assert_eq!(r.stats.activations, 0);
        let c = run(ArrayPrimitive::Delete, SystemKind::Conventional, 0.1, &reference());
        assert_eq!(c.checksum, r.checksum);
    }

    #[test]
    fn op_indices_stay_in_bounds() {
        for n in [64usize, 1000, 500_000] {
            for j in 0..OPS_PER_RUN {
                assert!(op_index(n, j) < n);
            }
        }
    }
}

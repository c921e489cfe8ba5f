//! Shared reporting types for the evaluation applications.

use ap_mem::VAddr;
use radram::{ExecMode, System, SystemStats};

/// Which memory system an application run targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// The baseline: a conventional DRAM memory system.
    Conventional,
    /// The RADram Active-Page memory system.
    Radram,
}

impl std::fmt::Display for SystemKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SystemKind::Conventional => write!(f, "conventional"),
            SystemKind::Radram => write!(f, "radram"),
        }
    }
}

/// Outcome of running one application kernel on one system.
///
/// `checksum` digests the functional result; a conventional run and a RADram
/// run of the same workload must produce identical checksums — the paper's
/// partitions compute the same answers, only faster.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Application name ("array-insert", "database", ...).
    pub app: &'static str,
    /// Which system produced this report.
    pub system: SystemKind,
    /// Which execution tier produced it (accurate cycle modeling or the
    /// fast functional estimator; see DESIGN.md §13).
    pub mode: ExecMode,
    /// Problem size in 512 KB Active Pages (the paper's x-axis).
    pub pages: f64,
    /// Cycles of the measured kernel (dispatch + compute + post-processing).
    pub kernel_cycles: u64,
    /// Cycles including setup phases the paper reports separately (e.g.
    /// `median-total` = layout transform + kernel).
    pub total_cycles: u64,
    /// Cycles spent dispatching work to the memory system (parameter writes
    /// and activation stores; zero on a conventional system). Divided by the
    /// activation count this is the paper's activation time T_A.
    pub dispatch_cycles: u64,
    /// Digest of the functional result.
    pub checksum: u64,
    /// Full system statistics at the end of the run.
    pub stats: SystemStats,
}

impl RunReport {
    /// Non-overlap stall fraction over the kernel (Figure 4's metric).
    pub fn non_overlap_fraction(&self) -> f64 {
        if self.kernel_cycles == 0 {
            0.0
        } else {
            (self.stats.non_overlap_cycles as f64 / self.kernel_cycles as f64).min(1.0)
        }
    }
}

/// Speedup of `radram` over `conventional` on kernel cycles (Figure 3's
/// metric).
///
/// # Panics
///
/// Panics if the two reports come from different applications or disagree on
/// the functional result — a disagreement means one partition computed the
/// wrong answer, which must never be silently plotted.
pub fn speedup(conventional: &RunReport, radram: &RunReport) -> f64 {
    assert_eq!(conventional.app, radram.app, "speedup across different apps");
    assert_eq!(
        conventional.checksum, radram.checksum,
        "functional results diverged on {}",
        conventional.app
    );
    conventional.kernel_cycles as f64 / radram.kernel_cycles.max(1) as f64
}

/// A declared footprint covering the whole 512 KB page, reads and writes.
///
/// The honest over-approximation for page functions whose touched ranges
/// depend on control-word parameters (shifters, filters, gathers): every
/// access is provably page-local, which is all the parallel executor's
/// race checks need to fast-track a batch as disjoint.
pub fn whole_page_footprint() -> active_pages::StaticFootprint {
    let page = active_pages::PAGE_SIZE as u64;
    active_pages::StaticFootprint::Known(
        active_pages::PageFootprint::new().with_read(0, page).with_write(0, page),
    )
}

/// A declared footprint for functions that read anywhere in their page but
/// write only synchronization/result words in the control area.
pub fn read_body_footprint() -> active_pages::StaticFootprint {
    let page = active_pages::PAGE_SIZE as u64;
    let ctrl = active_pages::sync::CTRL_SIZE as u64;
    active_pages::StaticFootprint::Known(
        active_pages::PageFootprint::new().with_read(0, page).with_write(0, ctrl),
    )
}

/// Untimed bulk staging: writes `words`, each already in little-endian
/// byte order, back to back from `addr` through one
/// [`System::ram_slice_mut`] view.
pub(crate) fn stage_le<const N: usize>(
    sys: &mut System,
    addr: VAddr,
    words: impl ExactSizeIterator<Item = [u8; N]>,
) {
    let len = words.len() * N;
    put_le(sys.ram_slice_mut(addr, len), words);
}

/// Writes `words`, each already in little-endian byte order, back to back
/// at the front of `dst` and returns the rest of `dst`.
pub(crate) fn put_le<const N: usize>(
    dst: &mut [u8],
    words: impl ExactSizeIterator<Item = [u8; N]>,
) -> &mut [u8] {
    let (head, rest) = dst.split_at_mut(words.len() * N);
    for (d, w) in head.chunks_exact_mut(N).zip(words) {
        d.copy_from_slice(&w);
    }
    rest
}

/// FNV-1a digest used for result checksums.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Mixes a `u64` into an FNV-style running digest.
pub fn fnv_mix(h: u64, v: u64) -> u64 {
    let mut h = h ^ v;
    h = h.wrapping_mul(0x1000_0000_01b3);
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(app: &'static str, cycles: u64, checksum: u64) -> RunReport {
        RunReport {
            app,
            system: SystemKind::Conventional,
            mode: ExecMode::Accurate,
            pages: 1.0,
            kernel_cycles: cycles,
            total_cycles: cycles,
            dispatch_cycles: 0,
            checksum,
            stats: SystemStats::default(),
        }
    }

    #[test]
    fn speedup_is_ratio() {
        let c = report("x", 1000, 7);
        let r = report("x", 100, 7);
        assert!((speedup(&c, &r) - 10.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "diverged")]
    fn speedup_rejects_mismatched_results() {
        let c = report("x", 1000, 7);
        let r = report("x", 100, 8);
        speedup(&c, &r);
    }

    #[test]
    fn fnv_distinguishes_inputs() {
        assert_ne!(fnv1a(b"abc"), fnv1a(b"abd"));
        // Sequence order matters.
        assert_ne!(fnv_mix(fnv_mix(0, 1), 2), fnv_mix(fnv_mix(0, 2), 1));
    }

    #[test]
    fn non_overlap_fraction_bounded() {
        let mut r = report("x", 100, 0);
        r.stats.non_overlap_cycles = 40;
        assert!((r.non_overlap_fraction() - 0.4).abs() < 1e-12);
    }
}

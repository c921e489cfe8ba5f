//! Determinism cross-check for the parallel page executor: on Figure 3/4
//! sweep points, the parallel path and the sequential oracle (a page-thread
//! setting of 1, as under `AP_PAGE_THREADS=1`) must
//! produce bit-identical `RunReport`s (cycles, stats, checksums), identical
//! trace event streams, and identical `T_A`/`T_P`/`T_C` phase totals.
//!
//! This is the acceptance gate for the parallel executor: host-thread
//! scheduling may reorder the *execution* of page functions, but nothing
//! observable about the simulation — clock, statistics, interrupts, traces —
//! is allowed to move.

use active_pages::settings;
use ap_apps::{App, RunReport, SystemKind};
use ap_trace::phases::PhaseTotals;
use ap_trace::session::{begin, finish, SessionConfig};
use ap_trace::Filter;
use proptest::prelude::*;
use radram::RadramConfig;

/// Runs one Radram point at `threads` page threads (1 is the sequential
/// oracle; 4 gives the parallel executor real threads even on a small
/// host) with a trace session active, returning everything an executor
/// could possibly perturb.
fn run_traced(
    app: App,
    pages: f64,
    cfg: &RadramConfig,
    threads: usize,
) -> (RunReport, Vec<ap_trace::Event>, PhaseTotals) {
    begin(SessionConfig::filtered(Filter::ALL));
    let report = settings::scoped(
        |s| s.page_threads = Some(threads),
        || app.run(SystemKind::Radram, pages, cfg),
    );
    let trace = finish().expect("session active");
    let events: Vec<ap_trace::Event> = trace.all_events().copied().collect();
    let totals = PhaseTotals::of_trace(&trace);
    (report, events, totals)
}

#[test]
fn fig3_sweep_points_are_bit_identical_under_both_executors() {
    let cfg = RadramConfig::reference();
    // One representative per activation pattern: single broadcast batch
    // (database), shifted block moves (array), round-robin op rounds with
    // busy pages (mpeg), and diagonal waves with inter-page boundary copies
    // (dynamic-prog, which exercises the mid-batch flush fallback).
    for app in [App::Database, App::ArrayInsert, App::MpegMmx, App::DynProg] {
        // The quick-sweep grid of Figure 3/4, spanning the sub-page and the
        // multi-page (parallelizable) regions.
        for pages in [0.5, 2.0, 8.0] {
            let (seq_report, seq_events, seq_totals) = run_traced(app, pages, &cfg, 1);
            let (par_report, par_events, par_totals) = run_traced(app, pages, &cfg, 4);
            let label = format!("{} p={pages}", app.name());
            assert_eq!(seq_report, par_report, "{label}: RunReport diverges");
            assert_eq!(seq_totals, par_totals, "{label}: phase totals diverge");
            assert_eq!(seq_events.len(), par_events.len(), "{label}: trace event counts diverge");
            for (i, (s, p)) in seq_events.iter().zip(&par_events).enumerate() {
                assert_eq!(s, p, "{label}: trace event {i} diverges");
            }
        }
    }
}

#[test]
fn database_xl_point_is_bit_identical_and_reuses_the_pool() {
    let cfg = RadramConfig::reference();
    // The million-record scaling workload at a test-sized point: 16 pages,
    // 16 tenant queries, each an 8-page activation batch — the batch-churn
    // shape the persistent pool exists for. The dynamic race sanitizer is
    // on for both executors.
    let sanitized = |threads| {
        settings::scoped(|s| s.sanitize = true, || run_traced(App::DatabaseXl, 16.0, &cfg, threads))
    };
    let (seq_report, seq_events, seq_totals) = sanitized(1);
    let reuses_before = active_pages::parallel::pool_stats().reuses;
    let (par_report, par_events, par_totals) = sanitized(4);
    assert_eq!(par_report.stats.race_errors, 0, "sanitizer found races");
    assert_eq!(par_report.stats.race_warnings, 0, "sanitizer warned");
    assert_eq!(seq_report, par_report, "database-xl: RunReport diverges");
    assert_eq!(seq_totals, par_totals, "database-xl: phase totals diverge");
    assert_eq!(seq_events.len(), par_events.len(), "database-xl: trace event counts diverge");
    for (i, (s, p)) in seq_events.iter().zip(&par_events).enumerate() {
        assert_eq!(s, p, "database-xl: trace event {i} diverges");
    }
    // The pool only engages helpers up to the host's core count (the
    // budget is a cap, not a target), so reuse is observable on >= 2 cores.
    if active_pages::parallel::effective_threads(4) >= 2 {
        assert!(
            active_pages::parallel::pool_stats().reuses > reuses_before,
            "a 16-batch activation stream must reuse persistent pool workers"
        );
    }
}

/// Builds a lint-clean kernel from a seed stream: straight-line ALU work,
/// loads/stores off the `r1` data base (`lui r1, 2` = 0x20000, inside the
/// 1 MiB machine), and forward branches that stay inside the program,
/// terminated by `halt`. Every program this produces passes the load-time
/// lint gate, so the pair of executions compares the whole machine.
fn program_from_seeds(seeds: &[(u8, u8, u8, u8, i16)]) -> Vec<ap_risc::Inst> {
    use ap_risc::{AluOp, BranchCond, Inst, Reg, Width};
    const ALU: [AluOp; 12] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Slt,
        AluOp::Sltu,
        AluOp::Sll,
        AluOp::Srl,
        AluOp::Sra,
        AluOp::Mul,
        AluOp::Div,
    ];
    const COND: [BranchCond; 6] = [
        BranchCond::Eq,
        BranchCond::Ne,
        BranchCond::Lt,
        BranchCond::Ge,
        BranchCond::Ltu,
        BranchCond::Geu,
    ];
    const WIDTHS: [Width; 5] = [Width::B, Width::Bu, Width::H, Width::Hu, Width::W];
    let mut prog = vec![Inst::Lui { rd: Reg::new(1), imm: 2 }];
    let n = seeds.len();
    for (i, &(kind, a, b, c, imm)) in seeds.iter().enumerate() {
        let sel = imm as u16 as usize;
        let rd = Reg::new(2 + (a % 6)); // r2..r7: never the r1 data base
        let rs = Reg::new(b % 8);
        let rt = Reg::new(c % 8);
        prog.push(match kind % 6 {
            0 => Inst::Alu { op: ALU[sel % ALU.len()], rd, rs, rt },
            1 => Inst::AluImm { op: ALU[sel % ALU.len()], rd, rs, imm },
            2 => Inst::Lui { rd, imm: imm as u16 },
            // Word-aligned displacements keep every width naturally aligned.
            3 => Inst::Load {
                width: WIDTHS[sel % WIDTHS.len()],
                rd,
                rs: Reg::new(1),
                imm: ((sel % 256) * 4) as i16,
            },
            4 => Inst::Store {
                width: WIDTHS[sel % WIDTHS.len()],
                rt,
                rs: Reg::new(1),
                imm: ((sel % 256) * 4) as i16,
            },
            // Forward only, clamped to land on a later instruction or the
            // final halt — lint-clean (RK103) and guaranteed to terminate.
            _ => {
                let remaining = n - 1 - i;
                Inst::Branch {
                    cond: COND[sel % COND.len()],
                    rs,
                    rt,
                    offset: (sel % (remaining + 1)) as i16,
                }
            }
        });
    }
    prog.push(ap_risc::Inst::Halt);
    prog
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random lint-clean kernels: the predecoded fast path and the
    /// decode-every-step raw path are the same machine — outcome, cycle
    /// clock, retired count, PC and all 32 registers.
    #[test]
    fn predecoded_kernels_match_decode_per_step(
        seeds in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>(), any::<i16>()),
            1..40,
        )
    ) {
        use ap_cpu::CpuConfig;
        use ap_risc::Machine;
        let prog = program_from_seeds(&seeds);
        let mut fast = Machine::load_program(CpuConfig::reference(), 1 << 20, &prog)
            .expect("generated kernels are lint-clean");
        let mut raw = Machine::load_program(CpuConfig::reference(), 1 << 20, &prog)
            .expect("generated kernels are lint-clean");
        raw.set_predecode(false);
        prop_assert_eq!(fast.run(4096), raw.run(4096));
        prop_assert_eq!(fast.cycles(), raw.cycles());
        prop_assert_eq!(fast.retired(), raw.retired());
        prop_assert_eq!(fast.pc(), raw.pc());
        for r in 0..32 {
            prop_assert_eq!(fast.reg(r), raw.reg(r), "r{}", r);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random kernels at random page counts: the two executors agree on the
    /// full `RunReport` (checksum, every cycle counter, every statistic).
    #[test]
    fn random_points_are_bit_identical(app_idx in 0usize..App::ALL.len(), pages in 1u32..12) {
        let app = App::ALL[app_idx];
        let cfg = RadramConfig::reference();
        let (seq, ..) = run_traced(app, f64::from(pages), &cfg, 1);
        let (par, ..) = run_traced(app, f64::from(pages), &cfg, 4);
        prop_assert_eq!(seq, par);
    }
}

//! The extension studies of the paper's Sections 3 and 10 (DESIGN.md §7),
//! which have no paper table or figure: the design-choice ablations
//! (`experiments ablations`) and the full MPEG decode pipeline
//! (`experiments pipeline`). Ablations 1–6 cover `AP_bind` reconfiguration
//! cost, inter-page interrupt overhead, activation dispatch overhead, the
//! wavefront's boundary-communication mechanism, custom circuits vs. data
//! primitives, and Active-Page swapping vs. reconfiguration technology.
//!
//! Every run that is a [`RunSpec`] goes through the [`Runner`], so it is
//! cached and manifested like a figure point; runs no `RunSpec` describes
//! (a boundary mode, a script, the paging model, the decode pipeline) call
//! the application directly.

use crate::runner::{RunSpec, Runner};
use crate::sweep::run_pair;
use active_pages::ActivePageMemory;
use ap_apps::array::{run_script, ArrayFindFn, ArrayInsertFn};
use ap_apps::lcs::{self, BoundaryMode};
use ap_apps::primitives::run_script_primitives;
use ap_apps::{mpeg_decode, speedup, App, ExecMode, RunReport, SystemKind};
use ap_workloads::array_ops::Script;
use radram::{CommMode, RadramConfig, ServiceMode, System};
use std::sync::Arc;

/// Cost of a workload that alternates insert and find bindings `swaps`
/// times over `pages` pages (forces reconfiguration on every swap).
fn rebind_workload_cycles(rebind_cost: u64, pages: usize, swaps: usize) -> u64 {
    let mut cfg = RadramConfig::reference().with_ram_capacity((pages + 4) << 19);
    cfg.rebind_cost = rebind_cost;
    let mut sys = System::radram(cfg);
    let g = active_pages::GroupId::new(0);
    let _base = sys.ap_alloc_pages(g, pages);
    let t0 = sys.now();
    for i in 0..swaps {
        if i % 2 == 0 {
            sys.ap_bind(g, Arc::new(ArrayInsertFn));
        } else {
            sys.ap_bind(g, Arc::new(ArrayFindFn));
        }
    }
    sys.now() - t0
}

/// Problem size (pages) of ablation 2.
const INTERRUPT_PAGES: f64 = 2.0;

/// Ablation 2: the dynamic-prog kernel with circuit-raised boundaries at
/// each inter-page interrupt overhead, as (overhead, conventional, RADram)
/// runs. The conventional runs go through `runner` as one batch.
///
/// # Panics
///
/// Panics if a conventional run failed: a study row has no figure to
/// degrade to.
pub fn interrupt_overhead(runner: &Runner, overheads: &[u64]) -> Vec<(u64, RunReport, RunReport)> {
    let cfgs: Vec<RadramConfig> = overheads
        .iter()
        .map(|&ov| RadramConfig { interrupt_overhead: ov, ..RadramConfig::reference() })
        .collect();
    let specs = cfgs.iter().map(|cfg| {
        RunSpec::new(App::DynProg, SystemKind::Conventional, INTERRUPT_PAGES, cfg.clone())
    });
    let convs = runner.run(specs.collect());
    let boundary = BoundaryMode::CircuitRequested;
    (overheads.iter().zip(&cfgs).zip(convs))
        .map(|((&ov, cfg), conv)| {
            let conv = conv.expect("conventional dynamic-prog run failed");
            let rad = lcs::run_with(
                SystemKind::Radram,
                INTERRUPT_PAGES,
                cfg,
                boundary,
                ExecMode::Accurate,
            );
            (ov, conv, rad)
        })
        .collect()
}

/// Prints ablations 1–6 (`experiments ablations`).
pub fn print_ablations(runner: &Runner, quick: bool) {
    println!("Ablation 1: AP_bind reconfiguration cost (mixed-function workload)");
    println!("{:>14} {:>16}", "rebind cycles", "8 swaps/4 pages");
    for cost in [0u64, 10_000, 100_000, 1_000_000] {
        println!("{:>14} {:>16}", cost, rebind_workload_cycles(cost, 4, 8));
    }

    println!();
    println!(
        "Ablation 2: inter-page interrupt overhead (dynamic-prog, circuit-raised boundaries, \
         {INTERRUPT_PAGES} pages)"
    );
    println!("{:>16} {:>14} {:>12} {:>10}", "intr cycles", "rad cycles", "interrupts", "speedup");
    let overheads: &[u64] = if quick { &[500] } else { &[100, 500, 2000, 10_000] };
    for (ov, c, r) in interrupt_overhead(runner, overheads) {
        println!(
            "{:>16} {:>14} {:>12} {:>9.2}x",
            ov,
            r.kernel_cycles,
            r.stats.interrupt_batches,
            speedup(&c, &r)
        );
    }

    println!();
    println!("Ablation 3: activation dispatch overhead (database kernel)");
    println!("{:>16} {:>14} {:>10}", "dispatch cycles", "rad cycles", "speedup");
    let dispatches: &[u64] = if quick { &[200] } else { &[50, 200, 1000, 5000] };
    for &ov in dispatches {
        let cfg = RadramConfig { activation_overhead: ov, ..RadramConfig::reference() };
        let p = run_pair(runner, App::Database, 4.0, &cfg, ExecMode::Accurate);
        println!("{:>16} {:>14} {:>9.2}x", ov, p.radram.kernel_cycles, p.speedup());
    }
    println!();
    println!("Ablation 4: wavefront boundary communication (dynamic-prog, 4 pages)");
    println!("{:<44} {:>14} {:>12}", "mechanism", "rad cycles", "interrupts");
    // The paper partition is a Figure 3 point; the circuit-raised
    // mechanisms need an explicit boundary mode, which no `RunSpec` carries.
    let paper = run_pair(runner, App::DynProg, 4.0, &RadramConfig::reference(), ExecMode::Accurate);
    let mut rows = vec![("app-driven staging (paper partition)", paper.radram)];
    for (label, cfg) in [
        ("circuit-raised, processor-mediated intr", RadramConfig::reference()),
        (
            "circuit-raised, processor polling",
            RadramConfig::reference().with_service_mode(ServiceMode::Polling),
        ),
        (
            "circuit-raised, in-chip hardware network",
            RadramConfig::reference().with_comm_mode(CommMode::HardwareCopy),
        ),
    ] {
        let boundary = BoundaryMode::CircuitRequested;
        rows.push((
            label,
            lcs::run_with(SystemKind::Radram, 4.0, &cfg, boundary, ExecMode::Accurate),
        ));
    }
    for (label, r) in rows {
        assert_eq!(r.checksum, paper.conventional.checksum, "ablation changed the answer");
        println!("{:<44} {:>14} {:>12}", label, r.kernel_cycles, r.stats.interrupt_batches);
    }

    println!();
    println!("Ablation 6: Active-Page replacement overhead vs. reconfiguration time");
    println!("(cyclic trace over 6 superpages, 4 physical frames, 1998-class disk)");
    println!("{:<22} {:>10} {:>18} {:>10}", "technology", "faults", "fault cycles", "overhead");
    let trace: Vec<u32> = (0..60).map(|i| i % 6).collect();
    for (label, model) in [
        ("FPGA (100 ms config)", radram::paging::SwapModel::fpga_1998()),
        ("DPGA (1 ms config)", radram::paging::SwapModel::dpga_future()),
    ] {
        let r = radram::paging::LruFrames::new(4).replay(&trace, &model, true);
        println!(
            "{:<22} {:>10} {:>18} {:>9.2}x",
            label,
            r.faults,
            r.active_cycles,
            r.overhead_ratio()
        );
    }

    println!();
    println!("Ablation 5: custom circuits (with re-binding) vs. data primitives");
    println!("{:<26} {:>14} {:>9} {:>12}", "backend", "rad cycles", "rebinds", "logic busy");
    let script = Script::generate(5, 300_000, if quick { 8 } else { 24 });
    for rebind_cost in [10_000u64, 100_000, 1_000_000] {
        let cfg = RadramConfig { rebind_cost, ..RadramConfig::reference() };
        let custom = run_script(&script, SystemKind::Radram, &cfg, ExecMode::Accurate);
        println!(
            "{:<26} {:>14} {:>9} {:>12}",
            format!("custom @ rebind {rebind_cost}"),
            custom.kernel_cycles,
            custom.stats.rebinds,
            custom.stats.logic_busy_cycles
        );
    }
    let prim = run_script_primitives(&script, &RadramConfig::reference(), ExecMode::Accurate);
    println!(
        "{:<26} {:>14} {:>9} {:>12}",
        "data primitives", prim.kernel_cycles, prim.stats.rebinds, prim.stats.logic_busy_cycles
    );
}

/// Prints the MPEG decode pipeline study (`experiments pipeline`): in-page
/// entropy decode, processor IDCT and in-page correction against an
/// all-processor decoder (paper Sections 5.2/10).
pub fn print_pipeline(quick: bool) {
    let sizes: &[f64] = if quick { &[2.0, 8.0] } else { &[0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0] };
    println!("MPEG decode pipeline (entropy decode + IDCT + correction)");
    println!(
        "{:>8} {:>14} {:>14} {:>9} {:>12}",
        "pages", "conv cycles", "radram cycles", "speedup", "non-overlap"
    );
    let cfg = RadramConfig::reference();
    for &pages in sizes {
        let c = mpeg_decode::run(SystemKind::Conventional, pages, &cfg, ExecMode::Accurate);
        let r = mpeg_decode::run(SystemKind::Radram, pages, &cfg, ExecMode::Accurate);
        println!(
            "{:>8.1} {:>14} {:>14} {:>8.2}x {:>11.1}%",
            pages,
            c.kernel_cycles,
            r.kernel_cycles,
            speedup(&c, &r),
            r.non_overlap_fraction() * 100.0
        );
    }
    println!();
    println!("note: the IDCT stage runs on the processor in both systems (the paper's");
    println!("partition), so the pipeline crosses over a few pages in and then scales.");
}

#[cfg(test)]
mod tests {
    use super::*;
    use ap_engine::Engine;

    /// Ablation 2 must measure something: on the circuit-raised partition
    /// every interrupt batch pays the overhead, so RADram cycles rise
    /// strictly with it (the app-driven partition raises none and stayed
    /// flat).
    #[test]
    fn interrupt_overhead_raises_radram_cycles_strictly() {
        let runner = Runner::with_engine(Engine::new().with_workers(1).without_cache());
        let rows = interrupt_overhead(&runner, &[100, 500, 2000, 10_000]);
        for (ov, c, r) in &rows {
            assert!(r.stats.interrupt_batches > 0, "no interrupts at overhead {ov}");
            assert_eq!(c.checksum, r.checksum, "the ablation changed the answer");
        }
        for w in rows.windows(2) {
            assert!(
                w[1].2.kernel_cycles > w[0].2.kernel_cycles,
                "overhead {} -> {} cycles, {} -> {}",
                w[0].0,
                w[1].0,
                w[0].2.kernel_cycles,
                w[1].2.kernel_cycles
            );
        }
    }
}

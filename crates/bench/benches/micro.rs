//! Criterion micro-benchmarks of the simulator substrates themselves
//! (host performance, not simulated time).

use active_pages::{sync, IdealExecutor};
use ap_apps::database::DatabaseSearchFn;
use ap_mem::{Hierarchy, HierarchyConfig, VAddr};
use ap_workloads::database::AddressBook;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_cache_hierarchy(c: &mut Criterion) {
    c.bench_function("hierarchy_sequential_reads", |b| {
        let mut h = Hierarchy::new(HierarchyConfig::reference());
        let mut addr = 0u64;
        b.iter(|| {
            addr = (addr + 4) & 0xF_FFFF;
            black_box(h.read(VAddr::new(0x1_0000 + addr)))
        });
    });
    c.bench_function("hierarchy_l1_hit_fastpath", |b| {
        let mut h = Hierarchy::new(HierarchyConfig::reference());
        // Warm a 4 KB hot set so every access in the loop takes the
        // one-probe L1 hit path.
        for w in 0..1024u64 {
            h.read(VAddr::new(0x1_0000 + w * 4));
        }
        let mut addr = 0u64;
        b.iter(|| {
            addr = (addr + 4) & 0xFFF;
            black_box(h.read(VAddr::new(0x1_0000 + addr)))
        });
    });
    c.bench_function("hierarchy_strided_misses", |b| {
        let mut h = Hierarchy::new(HierarchyConfig::reference());
        let mut addr = 0u64;
        b.iter(|| {
            addr = (addr + 4096) & 0xFF_FFFF;
            black_box(h.write(VAddr::new(0x1_0000 + addr)))
        });
    });
}

fn bench_synth(c: &mut Criterion) {
    c.bench_function("map_matrix_circuit", |b| {
        b.iter(|| {
            let n = ap_synth::circuits::matrix();
            black_box(ap_synth::mapper::map(&n).logic_elements)
        });
    });
}

fn bench_page_function(c: &mut Criterion) {
    c.bench_function("database_page_search", |b| {
        let book = AddressBook::generate(1, 1000);
        let mut exec = IdealExecutor::new(1);
        let page = exec.page_mut(0);
        page[sync::BODY_OFFSET..sync::BODY_OFFSET + book.bytes().len()]
            .copy_from_slice(book.bytes());
        exec.write_u32(0, sync::ctrl_offset(sync::PARAM), 1000);
        b.iter(|| black_box(exec.activate(&DatabaseSearchFn, 0).logic_cycles));
    });
}

fn bench_machine_step(c: &mut Criterion) {
    use ap_cpu::CpuConfig;
    use ap_risc::Machine;
    // A bounded alu/load/branch loop; the run dominates the one-off
    // load/lint, so the pair isolates per-step fetch dispatch: the
    // predecoded `Inst` stream vs. decoding the raw word every step.
    const SPIN: &str = r#"
    lui  r1, 2              ; data pointer above the code segment
    addi r2, r0, 0          ; i
    addi r5, r0, 16384      ; trip count
loop:
    lw   r3, (r1)
    addi r2, r2, 1
    add  r4, r2, r3
    blt  r2, r5, loop
    halt
"#;
    let mut run = |name: &str, predecode: bool| {
        c.bench_function(name, |b| {
            b.iter(|| {
                let mut m = Machine::load(CpuConfig::reference(), 1 << 20, SPIN).unwrap();
                m.set_predecode(predecode);
                black_box(m.run(1 << 20).unwrap())
            });
        });
    };
    run("machine_step_predecoded", true);
    run("machine_step_decode", false);
}

fn bench_batch_executor(c: &mut Criterion) {
    use active_pages::{ActivePageMemory, GroupId, PAGE_SIZE};
    use radram::{ExecMode, PageActivation, RadramConfig, System};
    use std::sync::Arc;

    // One 8-page activation batch per iteration on a live system: the
    // persistent pool's per-batch dispatch and merge cost.
    c.bench_function("batch_activation_pooled", |b| {
        active_pages::parallel::set_thread_budget(4);
        let pages = 8;
        let mut sys = System::radram_mode(RadramConfig::reference(), ExecMode::Accurate);
        let group = GroupId::new(2);
        let base = sys.ap_alloc_pages(group, pages);
        sys.ap_bind(group, Arc::new(DatabaseSearchFn));
        let batch: Vec<PageActivation> = (0..pages)
            .map(|p| {
                PageActivation::new(base + (p * PAGE_SIZE) as u64, 1).with_param(sync::PARAM, 64)
            })
            .collect();
        b.iter(|| {
            sys.activate_pages(&batch);
            for p in 0..pages {
                sys.wait_done(black_box(base + (p * PAGE_SIZE) as u64));
            }
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_cache_hierarchy, bench_synth, bench_page_function,
        bench_machine_step, bench_batch_executor
}
criterion_main!(benches);

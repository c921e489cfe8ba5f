//! Layer probes: calibrated per-operation host costs of each layer, taken
//! by calling that layer's public functions directly on fixed inputs.
//!
//! Every traced run measures the same probes, whatever its workload, so a
//! change to one layer moves its probe on every workload while the `split.*`
//! shares say how much that layer matters to each. The memory-model probes
//! also turn a run's access counts into the `mem.model_est_pct` estimate.

use crate::metrics::{median, percentile};
use crate::run::{Run, RunConfig};
use active_pages::{sync, ActivePageMemory, GroupId, IdealExecutor, PageFunction, PAGE_SIZE};
use ap_apd::{Client, DaemonConfig, Server, WireSpec};
use ap_apps::array::{ArrayInsertFn, ELEMS_PER_PAGE};
use ap_apps::database::{DatabaseSearchFn, RECORDS_PER_PAGE};
use ap_apps::{App, ExecMode, RunReport, SystemKind};
use ap_bench::runner::{harness_salt, report_codec, RunSpec};
use ap_engine::DiskCache;
use ap_mem::{FastMem, Hierarchy, HierarchyConfig, VAddr};
use ap_workloads::database::AddressBook;
use radram::{PageActivation, RadramConfig, System};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Host cost per memory access of each modelled path, in ns.
#[derive(Debug, Clone, Copy)]
pub struct MemCosts {
    /// `Hierarchy::read` hitting L1D.
    pub l1_hit: f64,
    /// `Hierarchy::read` missing L1D, hitting L2.
    pub l2_hit: f64,
    /// `Hierarchy::read` missing both caches.
    pub dram: f64,
    /// `FastMem::access` on the L2-hit stream.
    pub fast: f64,
}

impl MemCosts {
    /// Estimated host seconds the memory model spent on `r`'s data
    /// accesses: each access path's count times its probed cost.
    pub fn estimate_secs(&self, r: &RunReport) -> f64 {
        let m = &r.stats.cpu.mem;
        let accesses = (m.l1d.hits + m.l1d.misses) as f64;
        let ns = match r.mode {
            ExecMode::Fast => accesses * self.fast,
            ExecMode::Accurate => {
                let l2_hits = m.l1d.misses.saturating_sub(m.l2.misses) as f64;
                m.l1d.hits as f64 * self.l1_hit
                    + l2_hits * self.l2_hit
                    + m.l2.misses as f64 * self.dram
            }
        };
        ns * 1e-9
    }
}

/// Median over three repetitions of `f`'s per-call cost in ns, where one
/// repetition makes `n` calls `f(0..n)`.
fn ns_per_call(n: usize, mut f: impl FnMut(usize) -> u64) -> f64 {
    let reps: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let mut acc = 0u64;
            for i in 0..n {
                acc = acc.wrapping_add(f(i));
            }
            black_box(acc);
            t.elapsed().as_secs_f64() * 1e9 / n as f64
        })
        .collect();
    median(&reps)
}

/// Probes `Hierarchy::read` on three address streams — resident in L1D,
/// resident only in L2, resident in neither — and `FastMem::access` on the
/// L2 stream.
pub fn mem_costs() -> MemCosts {
    let cfg = HierarchyConfig::reference();
    let stream =
        |span: usize, stride: usize| move |i: usize| VAddr::new(((i * stride) % span) as u64);
    let l1 = stream(cfg.l1d.size / 2, 8);
    let l2 = stream(cfg.l1d.size * 4, cfg.l1d.line);
    let dram = stream(cfg.l2.size * 4, cfg.l2.line);
    let warm = |h: &mut Hierarchy, s: &dyn Fn(usize) -> VAddr, n: usize| {
        for i in 0..n {
            h.read(s(i));
        }
    };
    let mut h = Hierarchy::new(cfg.clone());
    warm(&mut h, &l1, 1 << 14);
    let l1_hit = ns_per_call(1 << 21, |i| h.read(l1(i)));
    let mut h = Hierarchy::new(cfg.clone());
    warm(&mut h, &l2, 1 << 15);
    let l2_hit = ns_per_call(1 << 19, |i| h.read(l2(i)));
    let mut h = Hierarchy::new(cfg.clone());
    let dram_ns = ns_per_call(1 << 18, |i| h.read(dram(i)));
    let mut f = FastMem::new(cfg);
    for i in 0..1 << 15 {
        f.access(l2(i), false);
    }
    let fast = ns_per_call(1 << 19, |i| f.access(l2(i), false));
    MemCosts { l1_hit, l2_hit, dram: dram_ns, fast }
}

/// Search key words for record `r` of `book` (the page function's PARAM
/// layout: four little-endian words of the last-name field).
pub fn key_words(book: &AddressBook, r: usize) -> [u32; 4] {
    let field = book.last_name_field(r);
    std::array::from_fn(|w| {
        u32::from_le_bytes(field[w * 4..w * 4 + 4].try_into().expect("4 bytes"))
    })
}

/// The activation of database page `base` searching `records` records for
/// `key`.
pub fn scan_activation(base: VAddr, records: usize, key: [u32; 4]) -> PageActivation {
    let mut act = PageActivation::new(base, 1).with_param(sync::PARAM, records as u32);
    for (w, k) in key.into_iter().enumerate() {
        act = act.with_param(sync::PARAM + 1 + w, k);
    }
    act
}

/// The activation of array page `base` shifting its whole body right by one
/// word (an insert at index 0).
pub fn memmove_activation(base: VAddr) -> PageActivation {
    PageActivation::new(base, 1)
        .with_param(sync::PARAM, 0)
        .with_param(sync::PARAM + 1, ELEMS_PER_PAGE as u32)
}

/// Median µs of one `PageFunction::execute` on an `IdealExecutor` page,
/// for the scan and the memmove function.
fn page_exec_us() -> (f64, f64) {
    let book = AddressBook::generate(0x5CA7, RECORDS_PER_PAGE);
    let mut exec = IdealExecutor::new(1);
    let body = sync::BODY_OFFSET;
    exec.page_mut(0)[body..body + book.bytes().len()].copy_from_slice(book.bytes());
    let time = |exec: &mut IdealExecutor, f: &dyn PageFunction, params: &[(usize, u32)]| {
        let samples: Vec<f64> = (0..100)
            .map(|_| {
                for &(word, v) in params {
                    exec.write_u32(0, sync::ctrl_offset(word), v);
                }
                exec.write_u32(0, sync::ctrl_offset(sync::CMD), 1);
                let t = Instant::now();
                black_box(exec.activate(f, 0));
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        median(&samples)
    };
    let act = scan_activation(VAddr::new(0), RECORDS_PER_PAGE, key_words(&book, 7));
    let scan = time(&mut exec, &DatabaseSearchFn, &act.params);
    let act = memmove_activation(VAddr::new(0));
    let memmove = time(&mut exec, &ArrayInsertFn, &act.params);
    (scan, memmove)
}

/// Median µs inside `activate_pages` and inside the `wait_done` loop for
/// 8-page batches (alternating scan and memmove) on a 16-page system.
fn activate_wait_us() -> (f64, f64) {
    const WIDTH: usize = 8;
    let cfg = RadramConfig::reference().with_ram_capacity((2 * WIDTH + 6) * PAGE_SIZE);
    let mut sys = System::radram(cfg);
    let (scan, mov) = (GroupId::new(1), GroupId::new(2));
    let scan_base = sys.ap_alloc_pages(scan, WIDTH);
    sys.ap_bind(scan, Arc::new(DatabaseSearchFn));
    let mov_base = sys.ap_alloc_pages(mov, WIDTH);
    sys.ap_bind(mov, Arc::new(ArrayInsertFn));
    let book = AddressBook::generate(0x5CA7, RECORDS_PER_PAGE);
    for p in 0..WIDTH {
        sys.ram_write_bytes(scan_base + (p * PAGE_SIZE + sync::BODY_OFFSET) as u64, book.bytes());
    }
    let key = key_words(&book, 7);
    let page = |base: VAddr, p: usize| base + (p * PAGE_SIZE) as u64;
    let (mut activate, mut wait) = (Vec::new(), Vec::new());
    for i in 0..200 {
        let batch: Vec<PageActivation> = (0..WIDTH)
            .map(|p| match i % 2 {
                0 => scan_activation(page(scan_base, p), RECORDS_PER_PAGE, key),
                _ => memmove_activation(page(mov_base, p)),
            })
            .collect();
        let t = Instant::now();
        sys.activate_pages(&batch);
        activate.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        for a in &batch {
            sys.wait_done(a.page_base);
        }
        wait.push(t.elapsed().as_secs_f64() * 1e6);
    }
    (median(&activate), median(&wait))
}

/// Host ns per simulated instruction over every app's conventional kernel
/// at half a page (kernel-region host time only).
fn ns_per_inst() -> f64 {
    let cfg = RadramConfig::reference();
    let reps: Vec<f64> = (0..3)
        .map(|_| {
            let (mut secs, mut inst) = (0.0, 0u64);
            for app in App::ALL {
                let _ = radram::take_kernel_host_secs();
                let r = RunSpec::new(app, SystemKind::Conventional, 0.5, cfg.clone()).execute();
                secs += radram::take_kernel_host_secs();
                inst += r.stats.cpu.instructions;
            }
            secs * 1e9 / inst.max(1) as f64
        })
        .collect();
    median(&reps)
}

/// Tiny points (below the Figure 3 grid, so never in a workload's stream):
/// every app on both systems at `pages`.
pub fn tiny_specs(pages: f64, mode: ExecMode) -> Vec<RunSpec> {
    App::ALL
        .into_iter()
        .flat_map(|app| {
            [SystemKind::Conventional, SystemKind::Radram].map(|kind| {
                RunSpec::new(app, kind, pages, RadramConfig::reference()).with_mode(mode)
            })
        })
        .collect()
}

/// Median µs of the report codec, the disk cache and ms of the diag hook,
/// over the tiny points' reports.
fn engine_costs(cfg: &RunConfig) -> [f64; 5] {
    let reports: Vec<RunReport> =
        tiny_specs(0.125, ExecMode::Accurate).iter().map(RunSpec::execute).collect();
    let codec = report_codec();
    let diag = codec.diag.expect("the report codec has a diag hook");
    let cache = DiskCache::new(cfg.fresh_dir("probe-cache"));
    let salt = harness_salt();
    let mut t = [const { Vec::new() }; 5];
    for rep in 0..2 {
        for (i, r) in reports.iter().enumerate() {
            let key = format!("probe/{rep}/{i}");
            let clock = Instant::now();
            let text = (codec.encode)(r);
            t[0].push(clock.elapsed().as_secs_f64() * 1e6);
            let clock = Instant::now();
            black_box((codec.decode)(&text));
            t[1].push(clock.elapsed().as_secs_f64() * 1e6);
            let clock = Instant::now();
            cache.store(&key, &salt, r, &codec);
            t[2].push(clock.elapsed().as_secs_f64() * 1e6);
            let clock = Instant::now();
            black_box(cache.load(&key, &salt, &codec));
            t[3].push(clock.elapsed().as_secs_f64() * 1e6);
            let clock = Instant::now();
            black_box(diag(r));
            t[4].push(clock.elapsed().as_secs_f64() * 1e3);
        }
    }
    t.map(|s| median(&s))
}

/// Median client-observed latency of cache misses, then of cache hits, for
/// tiny points submitted one at a time, each on a fresh connection as
/// `apctl point` makes, to an in-process `apd`.
fn apd_latency_ms(cfg: &RunConfig) -> Result<(f64, f64), String> {
    let dir = cfg.fresh_dir("probe-apd");
    let mut server = Server::start(DaemonConfig {
        workers: Some(crate::fig3::workers()),
        cache_dir: Some(dir.join("cache")),
        manifest: Some(dir.join("manifest.jsonl")),
        ..DaemonConfig::default()
    })
    .map_err(|e| format!("apd probe server: {e}"))?;
    let result = (|| {
        // Twenty points: the fewest a median may be reported from.
        let specs: Vec<WireSpec> = [0.125, 0.0625]
            .into_iter()
            .flat_map(|pages| {
                App::ALL.into_iter().flat_map(move |app| {
                    [SystemKind::Conventional, SystemKind::Radram]
                        .map(|kind| WireSpec::point(app, kind, pages))
                })
            })
            .take(20)
            .collect();
        let mut lat = [Vec::new(), Vec::new()];
        for (pass, samples) in lat.iter_mut().enumerate() {
            for spec in &specs {
                let t = Instant::now();
                let mut client = Client::connect(server.addr()).map_err(|e| e.to_string())?;
                client.submit(spec, None, 100).map_err(|e| e.to_string())?;
                let done = client.collect().map_err(|e| e.to_string())?;
                samples.push(t.elapsed().as_secs_f64() * 1e3);
                if done.cache_hit != (pass == 1) || done.report.is_none() {
                    return Err(format!("apd probe: unexpected result for {}", done.key));
                }
            }
        }
        let p50 = |s: &[f64]| percentile(s, 50.0).value.ok_or("apd probe: too few samples");
        Ok((p50(&lat[0])?, p50(&lat[1])?))
    })();
    server.stop();
    result
}

/// Runs every probe, records it on `run`, and returns the memory-model
/// costs for the caller's `mem.model_est_pct`.
pub fn run(cfg: &RunConfig, run: &mut Run) -> MemCosts {
    // The batch probe runs at the page budget a lone System gets.
    active_pages::parallel::set_thread_budget(crate::metrics::host_cores());
    let m = mem_costs();
    run.layer("mem.hier_l1_hit_ns", m.l1_hit);
    run.layer("mem.hier_l2_hit_ns", m.l2_hit);
    run.layer("mem.hier_dram_ns", m.dram);
    run.layer("mem.fast_access_ns", m.fast);
    run.layer("cpu.ns_per_inst", ns_per_inst());
    let (scan, memmove) = page_exec_us();
    run.layer("core.page_exec_us_scan", scan);
    run.layer("core.page_exec_us_memmove", memmove);
    let (activate, wait) = activate_wait_us();
    run.layer("radram.activate_us_p50", activate);
    run.layer("radram.wait_us_p50", wait);
    let [encode, decode, store, load, diag] = engine_costs(cfg);
    run.layer("engine.codec_encode_us", encode);
    run.layer("engine.codec_decode_us", decode);
    run.layer("engine.cache_store_us", store);
    run.layer("engine.cache_load_us", load);
    run.layer("bench.diag_ms_per_job", diag);
    match apd_latency_ms(cfg) {
        Ok((miss, hit)) => {
            run.layer("apd.miss_latency_ms_p50", miss);
            run.layer("apd.hit_latency_ms_p50", hit);
        }
        Err(e) => run.gate("apd-probe", 1, || e),
    }
    m
}

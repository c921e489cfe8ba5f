//! `page-batch`: one accurate-tier RADram `System` with a resident page set,
//! driven by a seeded closed-loop stream of activation batches — the one
//! workload where the page executor (`core`) and the batch bookkeeping of
//! `System::activate_pages` (phases A/C) carry the host time.
//!
//! Half of the pages hold address-book records searched by
//! `DatabaseSearchFn` (a read-only scan), half hold arrays shifted by
//! `ArrayInsertFn` (a whole-page memmove), so a change that helps reads but
//! costs write-back or invalidation shows up.

use crate::metrics::{host_cores, median, Value64};
use crate::probe::{self, key_words, memmove_activation, scan_activation};
use crate::run::{measure, Rng, Run, RunConfig, SETUPS};
use crate::trace::{us_since, Span};
use active_pages::{
    parallel, sync, ActivePageMemory, CopyRequest, Execution, GroupId, PageFunction, PageSlice,
    StaticFootprint, PAGE_SIZE,
};
use ap_apd::json;
use ap_apps::array::{ArrayInsertFn, ELEMS_PER_PAGE};
use ap_apps::database::{DatabaseSearchFn, RECORDS_PER_PAGE};
use ap_mem::VAddr;
use ap_workloads::database::{AddressBook, RECORD_BYTES};
use radram::{PageActivation, RadramConfig, System, SystemStats};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Stream shape: pages per function group and `(width, count)` batch mix
/// per pass. Mostly 8 pages wide, some 64, a few 256 and 512; each width
/// split evenly between scans and memmoves. The mix keeps the median batch
/// inside the 8-wide memmoves and the 90th percentile inside the 64-wide
/// scans, away from the boundaries between classes.
struct Shape {
    group: usize,
    mix: &'static [(usize, usize)],
}

const FULL: Shape = Shape { group: 512, mix: &[(8, 860), (64, 120), (256, 10), (512, 10)] };
const QUICK: Shape = Shape { group: 16, mix: &[(8, 86), (16, 14)] };

/// Records in the generated address book; each scan page holds a window of
/// [`RECORDS_PER_PAGE`] of them, so per-page match counts differ.
const BOOK_RECORDS: usize = 16_384;
/// Distinct search keys in the stream.
const KEYS: usize = 8;

/// Wraps a page function to sum the host time of its `execute` calls.
#[derive(Debug)]
struct TimedFn {
    inner: Arc<dyn PageFunction>,
    nanos: Arc<AtomicU64>,
}

impl PageFunction for TimedFn {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn logic_elements(&self) -> u32 {
        self.inner.logic_elements()
    }

    fn triggers(&self, word: usize, value: u32) -> bool {
        self.inner.triggers(word, value)
    }

    fn inter_page_requests(&self, page: &PageSlice<'_>) -> Vec<CopyRequest> {
        self.inner.inter_page_requests(page)
    }

    fn execute(&self, page: &mut PageSlice<'_>) -> Execution {
        let t = Instant::now();
        let e = self.inner.execute(page);
        self.nanos.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        e
    }

    fn footprint(&self) -> StaticFootprint {
        self.inner.footprint()
    }
}

/// One batch of the stream.
struct Batch {
    scan: bool,
    key: usize,
    /// Page indices within the batch's group, in activation order.
    pages: Vec<usize>,
    acts: Vec<PageActivation>,
}

/// The system under test plus the stream and its expected results.
struct Bench {
    sys: System,
    move_base: VAddr,
    batches: Vec<Batch>,
    /// `expected[page][key]`: matches of key `key` on scan page `page`.
    expected: Vec<[u32; KEYS]>,
    /// Memmoves applied so far to each array page.
    moves: Vec<usize>,
    group: usize,
    seed: u64,
}

/// Initial value of word `w` of array page `p`.
fn init_word(seed: u64, p: usize, w: usize) -> u32 {
    (w as u32).wrapping_mul(0x9E37_79B1) ^ (p as u32).wrapping_mul(0x85EB_CA6B) ^ seed as u32
}

/// First book record held by scan page `p`.
fn window_start(p: usize) -> usize {
    (p * 997) % BOOK_RECORDS
}

/// Builds the system, stages both page groups, and generates the stream
/// and its expected scan results from `cfg.seed`. With `timer`, both page
/// functions are wrapped to sum their execution time into it.
fn setup(cfg: &RunConfig, timer: Option<&Arc<AtomicU64>>) -> Bench {
    let shape = if cfg.quick { &QUICK } else { &FULL };
    let group = shape.group;
    let ram = RadramConfig::reference().with_ram_capacity((2 * group + 6) * PAGE_SIZE);
    let mut sys = System::radram(ram);
    let bind = |f: Arc<dyn PageFunction>| -> Arc<dyn PageFunction> {
        match timer {
            Some(t) => Arc::new(TimedFn { inner: f, nanos: t.clone() }),
            None => f,
        }
    };
    let (scan_group, move_group) = (GroupId::new(1), GroupId::new(2));
    let scan_base = sys.ap_alloc_pages(scan_group, group);
    sys.ap_bind(scan_group, bind(Arc::new(DatabaseSearchFn)));
    let move_base = sys.ap_alloc_pages(move_group, group);
    sys.ap_bind(move_group, bind(Arc::new(ArrayInsertFn)));
    let page = |base: VAddr, p: usize| base + (p * PAGE_SIZE) as u64;

    let book = AddressBook::generate(cfg.seed, BOOK_RECORDS);
    let bytes = book.bytes();
    for p in 0..group {
        let body = page(scan_base, p) + sync::BODY_OFFSET as u64;
        let start = window_start(p) * RECORD_BYTES;
        let end = start + RECORDS_PER_PAGE * RECORD_BYTES;
        let head = &bytes[start..end.min(bytes.len())];
        sys.ram_write_bytes(body, head);
        sys.ram_write_bytes(body + head.len() as u64, &bytes[..end.saturating_sub(bytes.len())]);
    }
    let mut words = vec![0u8; ELEMS_PER_PAGE * 4];
    for p in 0..group {
        for (w, chunk) in words.chunks_exact_mut(4).enumerate() {
            chunk.copy_from_slice(&init_word(cfg.seed, p, w).to_le_bytes());
        }
        sys.ram_write_bytes(page(move_base, p) + sync::BODY_OFFSET as u64, &words);
    }

    let mut rng = Rng::new(cfg.seed, 1);
    let key_records: Vec<usize> = (0..KEYS).map(|_| rng.below(BOOK_RECORDS)).collect();
    let keys: Vec<[u32; 4]> = key_records.iter().map(|&r| key_words(&book, r)).collect();
    let fields: Vec<_> = key_records.iter().map(|&r| book.last_name_field(r)).collect();
    let record_key: Vec<Option<usize>> = (0..BOOK_RECORDS)
        .map(|r| {
            let f = book.last_name_field(r);
            fields.iter().position(|k| *k == f)
        })
        .collect();
    let expected = (0..group)
        .map(|p| {
            let mut counts = [0u32; KEYS];
            for i in 0..RECORDS_PER_PAGE {
                if let Some(k) = record_key[(window_start(p) + i) % BOOK_RECORDS] {
                    counts[k] += 1;
                }
            }
            counts
        })
        .collect();

    let mut batches = Vec::new();
    for &(width, count) in shape.mix {
        for i in 0..count {
            let first = rng.below(group);
            let pages: Vec<usize> = (0..width).map(|j| (first + j) % group).collect();
            let scan = i % 2 == 0;
            let key = rng.below(KEYS);
            let acts = pages
                .iter()
                .map(|&p| match scan {
                    true => scan_activation(page(scan_base, p), RECORDS_PER_PAGE, keys[key]),
                    false => memmove_activation(page(move_base, p)),
                })
                .collect();
            batches.push(Batch { scan, key, pages, acts });
        }
    }
    rng.shuffle(&mut batches);
    Bench { sys, move_base, batches, expected, moves: vec![0; group], group, seed: cfg.seed }
}

/// What one pass produced, for comparing a run against its oracle.
#[derive(Debug, Clone, PartialEq)]
struct PassResult {
    clock: u64,
    stats: SystemStats,
    results: u64,
}

impl Bench {
    /// One closed-loop pass over the stream: each batch is activated, waited
    /// for page by page, and its scan results read back and checked. Batch
    /// latencies go to `latencies_ms`, mismatches to `bad`; with `spans`, a
    /// span per batch and per phase is recorded. Returns the wall seconds,
    /// the result-word digest and the page activations made.
    fn pass(
        &mut self,
        latencies_ms: &mut Vec<f64>,
        bad: &mut Vec<String>,
        mut spans: Option<(&mut Vec<Span>, Instant)>,
    ) -> (f64, u64, u64) {
        let mut results = Vec::new();
        let mut activations = 0;
        let t = Instant::now();
        for (i, b) in self.batches.iter().enumerate() {
            let t0 = Instant::now();
            self.sys.activate_pages(&b.acts);
            let t1 = Instant::now();
            for a in &b.acts {
                self.sys.wait_done(a.page_base);
            }
            if b.scan {
                for (a, &p) in b.acts.iter().zip(&b.pages) {
                    let got = self.sys.read_ctrl(a.page_base, sync::RESULT);
                    results.extend_from_slice(&got.to_le_bytes());
                    if got != self.expected[p][b.key] {
                        bad.push(format!(
                            "batch {i} page {p}: {got} != {}",
                            self.expected[p][b.key]
                        ));
                    }
                }
            } else {
                for &p in &b.pages {
                    self.moves[p] += 1;
                }
            }
            let t2 = Instant::now();
            latencies_ms.push(t2.duration_since(t0).as_secs_f64() * 1e3);
            activations += b.acts.len() as u64;
            if let Some((spans, origin)) = spans.as_mut() {
                let function = if b.scan { "scan" } else { "memmove" };
                let args = vec![("width", json::n(b.acts.len() as u64)), ("fn", json::s(function))];
                for (name, from, to) in [("batch", t0, t2), ("activate", t0, t1), ("wait", t1, t2)]
                {
                    spans.push(Span {
                        name,
                        tid: 0,
                        start_us: us_since(*origin, from),
                        dur_us: us_since(from, to),
                        args: args.clone(),
                    });
                }
            }
        }
        (t.elapsed().as_secs_f64(), ap_engine::fnv1a(&results), activations)
    }

    /// Array pages whose contents differ from the shift model: after `k`
    /// memmoves word `w` holds initial word `w − k` (word 0 for `w < k`).
    fn array_mismatches(&self) -> Vec<String> {
        (0..self.group)
            .filter(|&p| {
                let k = self.moves[p];
                let base = self.move_base + (p * PAGE_SIZE + sync::BODY_OFFSET) as u64;
                let body = self.sys.ram_slice(base, ELEMS_PER_PAGE * 4);
                body.chunks_exact(4).enumerate().any(|(w, b)| {
                    let want = init_word(self.seed, p, w.saturating_sub(k));
                    u32::from_le_bytes(b.try_into().expect("4 bytes")) != want
                })
            })
            .map(|p| format!("array page {p}"))
            .collect()
    }

    fn result(&self, results: u64) -> PassResult {
        PassResult { clock: self.sys.now(), stats: self.sys.stats(), results }
    }
}

/// Runs the workload: set-ups, untraced passes, the result and
/// contents checks, and with tracing the oracle and control passes.
pub fn run(cfg: &RunConfig) -> Run {
    parallel::set_thread_budget(host_cores());
    let mut bad = Vec::new();
    let mut digests = Vec::new();
    let (bench, mut run) = measure(
        cfg,
        SETUPS,
        || setup(cfg, None),
        |b, run| {
            let (secs, digest, activations) = b.pass(&mut run.latencies_ms, &mut bad, None);
            run.attempted += b.batches.len() as u64;
            run.ops += activations;
            digests.push(digest);
            secs
        },
    );
    bad.extend(bench.array_mismatches());
    run.gate("expected-results", bad.len(), || format!("{} mismatches: {}", bad.len(), bad[0]));
    let differing = digests.iter().filter(|&&d| d != digests[0]).count();
    run.gate("passes-agree", differing, || format!("pass digests differ: {digests:x?}"));
    run.digest = digests[0];
    run.meta.push(("pages", json::n(2 * bench.group as u64)));
    run.meta.push(("batches_per_pass", json::n(bench.batches.len() as u64)));
    run.meta.push(("page_budget", json::n(parallel::thread_budget() as u64)));
    drop(bench);
    if cfg.trace {
        traced(cfg, &mut run);
    }
    run
}

/// One pass on a fresh system; `configure` adjusts it first. Returns the
/// pass seconds, page-function seconds, and the comparable result.
fn fresh_pass(
    cfg: &RunConfig,
    run: &mut Run,
    bad: &mut Vec<String>,
    spans: Option<&mut Vec<Span>>,
    configure: impl FnOnce(&mut System),
) -> (f64, f64, PassResult) {
    let timer = Arc::new(AtomicU64::new(0));
    let mut b = setup(cfg, Some(&timer));
    configure(&mut b.sys);
    let (secs, results, _) = b.pass(&mut Vec::new(), bad, spans.map(|s| (s, Instant::now())));
    run.attempted += b.batches.len() as u64;
    bad.extend(b.array_mismatches());
    (secs, timer.load(Ordering::Relaxed) as f64 * 1e-9, b.result(results))
}

/// The traced pass (parallel, budget = host cores), the sequential oracle
/// on the same stream, and the budget-1 control; then the layer probes.
fn traced(cfg: &RunConfig, run: &mut Run) {
    let mut bad = Vec::new();
    let mut spans = Vec::new();
    let pool_before = parallel::pool_stats();
    let (par_secs, _, par) = fresh_pass(cfg, run, &mut bad, Some(&mut spans), |_| {});
    crate::fig3::pool_layers(run, pool_before);
    let threads = parallel::effective_threads(parallel::thread_budget());
    let (seq_secs, seq_fn, seq) = fresh_pass(cfg, run, &mut bad, None, |s| s.set_sequential(true));
    parallel::set_thread_budget(1);
    let (one_secs, _, one) = fresh_pass(cfg, run, &mut bad, None, |_| {});
    parallel::set_thread_budget(host_cores());
    run.spans = spans;

    let diverged = usize::from(par != seq) + usize::from(one != seq);
    run.gate("sequential-oracle", diverged + bad.len(), || {
        format!("parallel {par:?} / budget-1 {one:?} vs sequential {seq:?}; {bad:?}")
    });
    let speedup = seq_secs / par_secs;
    run.layers.insert(
        "core.par_speedup",
        match threads {
            2.. => Value64::of(speedup),
            _ => Value64::absent(format!("effective_threads is {threads}; no parallel speed-up")),
        },
    );
    run.layer("core.par_speedup_1t", seq_secs / one_secs);
    run.layer("radram.serial_frac", (seq_secs - seq_fn) / seq_secs);
    run.split(seq_secs, &[("split.page_exec_pct", seq_fn), ("split.batch_pct", seq_secs - seq_fn)]);
    crate::fig3::count_stats(run, std::iter::once(&par.stats));
    run.layer("bench.trace_overhead_frac", par_secs / median(&run.pass_secs) - 1.0);
    run.meta.push(("sequential_s", json::Value::Num(seq_secs)));
    run.meta.push(("parallel_s", json::Value::Num(par_secs)));
    run.meta.push(("budget1_s", json::Value::Num(one_secs)));
    probe::run(cfg, run);
}

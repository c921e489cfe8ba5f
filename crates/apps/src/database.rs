//! Unindexed database query (paper Section 5.1).
//!
//! Counts exact matches of a last name over a synthetic address book. The
//! conventional system scans every record with an early-exit string compare;
//! the RADram partition distributes record blocks over pages, each page's
//! search engine scans its block, and the processor merely initiates the
//! query and sums the per-page counts (Table 2).

use crate::common::{fnv_mix, RunReport, SystemKind};
use active_pages::{
    sync, ActivePageMemory, Execution, GroupId, PageFunction, PageSlice, PAGE_SIZE,
};
use ap_mem::VAddr;
use ap_workloads::database::{
    count_matches, AddressBook, RecordWriter, LAST_NAME_LEN, RECORD_BYTES,
};
use radram::{ExecMode, PageActivation, RadramConfig, System};
use std::sync::Arc;

/// Records stored per Active Page.
pub const RECORDS_PER_PAGE: usize = 4000;

const CMD_SEARCH: u32 = 1;

/// The per-page search engine (Table 3's `Database` circuit): streams every
/// record of the block past a key comparator with a per-record mismatch
/// latch.
#[derive(Debug)]
pub struct DatabaseSearchFn;

impl PageFunction for DatabaseSearchFn {
    fn footprint(&self) -> active_pages::StaticFootprint {
        crate::common::read_body_footprint()
    }

    fn name(&self) -> &'static str {
        "database"
    }

    fn logic_elements(&self) -> u32 {
        ap_synth::circuits::logic_elements("Database")
    }

    fn execute(&self, page: &mut PageSlice<'_>) -> Execution {
        debug_assert_eq!(page.ctrl(sync::CMD), CMD_SEARCH);
        let records = page.ctrl(sync::PARAM) as usize;
        // The key is staged in the last four PARAM words (16 bytes).
        let mut key = [0u8; LAST_NAME_LEN];
        for (w, chunk) in key.chunks_mut(4).enumerate() {
            let v = page.ctrl(sync::PARAM + 1 + w);
            chunk.copy_from_slice(&v.to_le_bytes());
        }
        // One streamed read of the record block (the engine reads every
        // word anyway); comparing fixed 16-byte prefixes over
        // `chunks_exact` keeps the host-side scan out of per-record
        // bounds/logging calls.
        let body = page.slice(sync::BODY_OFFSET, records * RECORD_BYTES);
        let count =
            body.chunks_exact(RECORD_BYTES).filter(|rec| rec[..LAST_NAME_LEN] == key).count()
                as u32;
        page.set_ctrl(sync::RESULT, count);
        page.set_ctrl(sync::STATUS, sync::DONE);
        // The search engine streams the whole record block at one 32-bit
        // word per logic cycle (it can match any field, so it reads every
        // word of every record).
        Execution::run((records * RECORD_BYTES / 4) as u64 + 16)
    }
}

/// Generates the address book of `records` records straight into simulated
/// RAM (untimed), in record order over `blocks` of `(address, records)`.
/// Returns the query's NUL-padded last-name field, read from the record
/// the generator picks, and its match count over the staged records.
fn stage_book(
    sys: &mut System,
    records: usize,
    blocks: &[(VAddr, usize)],
) -> ([u8; LAST_NAME_LEN], usize) {
    let mut writer = RecordWriter::new(0xDB5EED, records);
    for &(addr, n) in blocks {
        writer.write(sys.ram_slice_mut(addr, n * RECORD_BYTES));
    }
    let mut pick = writer.query_record();
    let mut key = [0u8; LAST_NAME_LEN];
    for &(addr, n) in blocks {
        if pick < n {
            key.copy_from_slice(sys.ram_slice(addr + (pick * RECORD_BYTES) as u64, LAST_NAME_LEN));
            break;
        }
        pick -= n;
    }
    let expected =
        blocks.iter().map(|&(addr, n)| count_matches(sys.ram_slice(addr, n * RECORD_BYTES), &key));
    (key, expected.sum())
}

fn key_words(key: &[u8; LAST_NAME_LEN]) -> [u32; 4] {
    let mut words = [0u32; 4];
    for (w, slot) in words.iter_mut().enumerate() {
        *slot = u32::from_le_bytes(key[w * 4..w * 4 + 4].try_into().unwrap());
    }
    words
}

/// Runs the database benchmark at `pages` problem size.
///
/// `mode` picks the execution tier (see DESIGN.md §13).
///
/// # Examples
///
/// ```no_run
/// use ap_apps::{database, ExecMode, SystemKind};
/// use radram::RadramConfig;
///
/// let r = database::run(SystemKind::Radram, 1.0, &RadramConfig::reference(), ExecMode::Accurate);
/// assert!(r.stats.activations >= 1);
/// ```
pub fn run(kind: SystemKind, pages: f64, cfg: &RadramConfig, mode: ExecMode) -> RunReport {
    let records = ((pages * RECORDS_PER_PAGE as f64) as usize).max(16);
    let alloc_pages = records.div_ceil(RECORDS_PER_PAGE);
    let mut cfg = cfg.clone();
    cfg.ram_capacity = (alloc_pages + 6) * PAGE_SIZE;
    match kind {
        SystemKind::Conventional => run_conventional(pages, records, cfg, mode),
        SystemKind::Radram => run_radram(pages, records, alloc_pages, cfg, mode),
    }
}

fn report(
    kind: SystemKind,
    pages: f64,
    kernel: u64,
    dispatch: u64,
    count: u32,
    expected: usize,
    sys: &System,
) -> RunReport {
    assert_eq!(count as usize, expected, "database search returned a wrong count");
    RunReport {
        app: "database",
        system: kind,
        mode: sys.mode(),
        pages,
        kernel_cycles: kernel,
        total_cycles: kernel,
        dispatch_cycles: dispatch,
        checksum: fnv_mix(0, count as u64),
        stats: sys.stats(),
    }
}

fn run_conventional(pages: f64, records: usize, cfg: RadramConfig, mode: ExecMode) -> RunReport {
    let mut sys = System::conventional_mode(cfg, mode);
    let base = sys.ram_alloc(records * RECORD_BYTES, 64);
    let (field, expected) = stage_book(&mut sys, records, &[(base, records)]);
    let key = key_words(&field);
    let t0 = sys.kernel_start();
    let mut count = 0u32;
    if sys.mode() == ExecMode::Fast {
        // Bulk fast path (DESIGN.md §13): run the scan over an untimed slice,
        // then charge the loop's instruction stream from counts. The early
        // exit is replayed exactly — a record compares its leading matching
        // words plus the mismatching one — so `count` and the charged
        // instruction mix are identical to the word-wise loop below.
        let mut words = 0u64;
        {
            let data = sys.ram_slice(base, records * RECORD_BYTES);
            // Unrolled so the common first-word mismatch costs one compare.
            for rec in data.chunks_exact(RECORD_BYTES) {
                words += 1;
                if u32::from_le_bytes(rec[0..4].try_into().unwrap()) != key[0] {
                    continue;
                }
                words += 1;
                if u32::from_le_bytes(rec[4..8].try_into().unwrap()) != key[1] {
                    continue;
                }
                words += 1;
                if u32::from_le_bytes(rec[8..12].try_into().unwrap()) != key[2] {
                    continue;
                }
                words += 1;
                if u32::from_le_bytes(rec[12..16].try_into().unwrap()) != key[3] {
                    continue;
                }
                count += 1;
            }
        }
        sys.scan_heads(base, records, RECORD_BYTES, words);
        sys.alu(words + 2 * records as u64 + count as u64);
        sys.branch_run(words);
    } else {
        for r in 0..records {
            let rec = base + (r * RECORD_BYTES) as u64;
            // Early-exit word-wise compare of the last-name field.
            let mut matched = true;
            for (w, &kw) in key.iter().enumerate() {
                let v = sys.load_u32(rec + (w * 4) as u64);
                sys.alu(1);
                if !sys.branch(11, v == kw) {
                    matched = false;
                    break;
                }
            }
            sys.alu(2); // record pointer bump + loop test
            if matched {
                count += 1;
                sys.alu(1);
            }
        }
    }
    let kernel = sys.kernel_region(t0);
    report(SystemKind::Conventional, pages, kernel, 0, count, expected, &sys)
}

fn run_radram(
    pages: f64,
    records: usize,
    alloc_pages: usize,
    cfg: RadramConfig,
    mode: ExecMode,
) -> RunReport {
    let mut sys = System::radram_mode(cfg, mode);
    let group = GroupId::new(2);
    let base = sys.ap_alloc_pages(group, alloc_pages);
    sys.ap_bind(group, Arc::new(DatabaseSearchFn));
    // Record blocks are distributed over the page bodies.
    let blocks: Vec<(VAddr, usize)> = (0..alloc_pages)
        .map(|p| {
            let lo = p * RECORDS_PER_PAGE;
            let hi = ((p + 1) * RECORDS_PER_PAGE).min(records);
            (base + (p * PAGE_SIZE + sync::BODY_OFFSET) as u64, hi - lo)
        })
        .collect();
    let (field, expected) = stage_book(&mut sys, records, &blocks);
    let key = key_words(&field);
    let t0 = sys.kernel_start();
    // Initiate the query on every page.
    let d0 = sys.now();
    let batch: Vec<PageActivation> = (0..alloc_pages)
        .map(|p| {
            let lo = p * RECORDS_PER_PAGE;
            let hi = ((p + 1) * RECORDS_PER_PAGE).min(records);
            let mut act = PageActivation::new(base + (p * PAGE_SIZE) as u64, CMD_SEARCH)
                .with_param(sync::PARAM, (hi - lo) as u32);
            for (w, &kw) in key.iter().enumerate() {
                act = act.with_param(sync::PARAM + 1 + w, kw);
            }
            act
        })
        .collect();
    sys.activate_pages(&batch);
    let dispatch = sys.now() - d0;
    // Summarize results.
    let mut count = 0u32;
    for p in 0..alloc_pages {
        let pb = base + (p * PAGE_SIZE) as u64;
        sys.wait_done(pb);
        count += sys.read_ctrl(pb, sync::RESULT);
        sys.alu(2);
    }
    let kernel = sys.kernel_region(t0);
    report(SystemKind::Radram, pages, kernel, dispatch, count, expected, &sys)
}

pub mod xl {
    //! Million-record multi-tenant database (`database-xl`).
    //!
    //! The ROADMAP's stress case for the parallel executor: the address
    //! book is sharded into *tenants* of [`TENANT_PAGES`] pages ×
    //! [`RECORDS_PER_PAGE`] records, and a deterministic query stream asks
    //! one tenant at a time for a last-name count. On RADram every query
    //! activates exactly its tenant's page shard — one
    //! `activate_pages` batch per query, millions of records resident —
    //! which makes per-batch executor overhead (thread spawn churn, job
    //! claiming) the dominant cost to measure. The conventional system
    //! scans the same tenant's record range with the early-exit compare
    //! (the tenant ranges are indexed; the name field is not).
    //!
    //! At the benchmark point — 2048 pages — the book holds
    //! 2048 × 512 = 1,048,576 records (128 MiB) across 256 tenants.

    use super::*;

    /// Records stored per page (shallower than the classic workload so a
    /// query's work is brief and executor overhead is exposed).
    pub const RECORDS_PER_PAGE: usize = 512;
    /// Pages per tenant shard: one query activates exactly this many pages.
    pub const TENANT_PAGES: usize = 8;
    /// Records per tenant shard.
    pub const TENANT_RECORDS: usize = RECORDS_PER_PAGE * TENANT_PAGES;

    /// Branch-predictor site for the conventional compare loop (distinct
    /// from the classic workload's site 11).
    const BRANCH_SITE: u32 = 13;

    /// One query: count exact matches of `key` within `tenant`'s shard.
    #[derive(Debug, Clone, Copy)]
    pub struct Query {
        /// Tenant shard index.
        pub tenant: usize,
        /// NUL-padded last-name field to match.
        pub key: [u8; LAST_NAME_LEN],
    }

    /// A prepared workload: the sharded book plus its query stream, built
    /// once and shared across measurements (generation is untimed but not
    /// free at a million records).
    #[derive(Debug, Clone)]
    pub struct Workload {
        book: AddressBook,
        /// Total pages (a multiple of [`TENANT_PAGES`]).
        pub pages: usize,
        /// Tenant shards (`pages / TENANT_PAGES`).
        pub tenants: usize,
        /// The query stream, in issue order.
        pub queries: Vec<Query>,
        expected: Vec<u32>,
    }

    /// Rounds a figure-style fractional page count up to a whole number of
    /// tenant shards.
    pub fn shard_pages(pages: f64) -> usize {
        let whole = (pages.max(1.0).round() as usize).max(TENANT_PAGES);
        whole.div_ceil(TENANT_PAGES) * TENANT_PAGES
    }

    /// Query-stream length used by the uniform `run` entry point.
    pub fn queries_for(pages: usize) -> usize {
        (pages / TENANT_PAGES).clamp(16, 256)
    }

    impl Workload {
        /// Generates the book and a mixed hit/miss query stream (about a
        /// quarter of the queries match nothing). Deterministic in
        /// `(pages, queries)`.
        pub fn new(pages: usize, queries: usize) -> Workload {
            assert!(
                pages >= TENANT_PAGES && pages.is_multiple_of(TENANT_PAGES),
                "pages must shard"
            );
            let records = pages * RECORDS_PER_PAGE;
            let book = AddressBook::generate(0xD8_51ED, records);
            let tenants = pages / TENANT_PAGES;
            let mut stream = Vec::with_capacity(queries);
            let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
            for i in 0..queries {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let tenant = ((x >> 33) as usize) % tenants;
                let key = if (x >> 13) & 3 != 0 {
                    // A hit: some record of this tenant's own shard.
                    let r = tenant * TENANT_RECORDS + ((x >> 21) as usize) % TENANT_RECORDS;
                    book.last_name_field(r)
                } else {
                    // A miss: '#' never occurs in generated names.
                    let mut key = [0u8; LAST_NAME_LEN];
                    let miss = format!("#miss{i}");
                    key[..miss.len().min(LAST_NAME_LEN)]
                        .copy_from_slice(&miss.as_bytes()[..miss.len().min(LAST_NAME_LEN)]);
                    key
                };
                stream.push(Query { tenant, key });
            }
            let expected = stream
                .iter()
                .map(|q| {
                    let lo = q.tenant * TENANT_RECORDS;
                    (lo..lo + TENANT_RECORDS).filter(|&r| book.last_name_field(r) == q.key).count()
                        as u32
                })
                .collect();
            Workload { book, pages, tenants, queries: stream, expected }
        }

        /// Folds the per-query counts in issue order — the cross-system
        /// result digest.
        fn checksum(counts: &[u32]) -> u64 {
            counts.iter().fold(fnv_mix(0, counts.len() as u64), |h, &c| fnv_mix(h, c as u64))
        }
    }

    /// Runs `database-xl` at `pages` problem size (rounded up to whole
    /// tenant shards) with the default query stream.
    pub fn run(kind: SystemKind, pages: f64, cfg: &RadramConfig, mode: ExecMode) -> RunReport {
        let whole = shard_pages(pages);
        let wl = Workload::new(whole, queries_for(whole));
        run_prepared(kind, &wl, cfg, mode)
    }

    /// Runs a prepared workload (the bench harness reuses one [`Workload`]
    /// across executor measurements).
    pub fn run_prepared(
        kind: SystemKind,
        wl: &Workload,
        cfg: &RadramConfig,
        mode: ExecMode,
    ) -> RunReport {
        let mut cfg = cfg.clone();
        cfg.ram_capacity = (wl.pages + 6) * PAGE_SIZE;
        match kind {
            SystemKind::Conventional => run_conventional(wl, cfg, mode),
            SystemKind::Radram => run_radram(wl, cfg, mode),
        }
    }

    fn key_words(key: &[u8; LAST_NAME_LEN]) -> [u32; 4] {
        let mut words = [0u32; 4];
        for (w, slot) in words.iter_mut().enumerate() {
            *slot = u32::from_le_bytes(key[w * 4..w * 4 + 4].try_into().unwrap());
        }
        words
    }

    fn report(
        kind: SystemKind,
        wl: &Workload,
        kernel: u64,
        dispatch: u64,
        counts: &[u32],
        sys: &System,
    ) -> RunReport {
        assert_eq!(counts, &wl.expected[..], "database-xl returned wrong per-query counts");
        RunReport {
            app: "database-xl",
            system: kind,
            mode: sys.mode(),
            pages: wl.pages as f64,
            kernel_cycles: kernel,
            total_cycles: kernel,
            dispatch_cycles: dispatch,
            checksum: Workload::checksum(counts),
            stats: sys.stats(),
        }
    }

    fn run_conventional(wl: &Workload, cfg: RadramConfig, mode: ExecMode) -> RunReport {
        let mut sys = System::conventional_mode(cfg, mode);
        let base = sys.ram_alloc(wl.book.bytes().len(), 64);
        sys.ram_write_bytes(base, wl.book.bytes());
        let t0 = sys.kernel_start();
        let mut counts = Vec::with_capacity(wl.queries.len());
        for q in &wl.queries {
            let key = key_words(&q.key);
            let shard = base + (q.tenant * TENANT_RECORDS * RECORD_BYTES) as u64;
            let mut count = 0u32;
            if sys.mode() == ExecMode::Fast {
                // Bulk fast path (DESIGN.md §13): scan the shard untimed,
                // then charge the early-exit loop's instruction mix from
                // counts — identical replay to the word-wise loop below.
                let mut words = 0u64;
                {
                    let data = sys.ram_slice(shard, TENANT_RECORDS * RECORD_BYTES);
                    for rec in data.chunks_exact(RECORD_BYTES) {
                        let mut matched = true;
                        for (w, &kw) in key.iter().enumerate() {
                            words += 1;
                            let v = u32::from_le_bytes(rec[w * 4..w * 4 + 4].try_into().unwrap());
                            if v != kw {
                                matched = false;
                                break;
                            }
                        }
                        if matched {
                            count += 1;
                        }
                    }
                }
                sys.scan_heads(shard, TENANT_RECORDS, RECORD_BYTES, words);
                sys.alu(words + 2 * TENANT_RECORDS as u64 + count as u64);
                sys.branch_run(words);
            } else {
                for r in 0..TENANT_RECORDS {
                    let rec = shard + (r * RECORD_BYTES) as u64;
                    let mut matched = true;
                    for (w, &kw) in key.iter().enumerate() {
                        let v = sys.load_u32(rec + (w * 4) as u64);
                        sys.alu(1);
                        if !sys.branch(BRANCH_SITE, v == kw) {
                            matched = false;
                            break;
                        }
                    }
                    sys.alu(2); // record pointer bump + loop test
                    if matched {
                        count += 1;
                        sys.alu(1);
                    }
                }
            }
            counts.push(count);
        }
        let kernel = sys.kernel_region(t0);
        report(SystemKind::Conventional, wl, kernel, 0, &counts, &sys)
    }

    fn run_radram(wl: &Workload, cfg: RadramConfig, mode: ExecMode) -> RunReport {
        let mut sys = System::radram_mode(cfg, mode);
        let group = GroupId::new(2);
        let base = sys.ap_alloc_pages(group, wl.pages);
        sys.ap_bind(group, Arc::new(DatabaseSearchFn));
        // Untimed setup: RECORDS_PER_PAGE records into every page body.
        for p in 0..wl.pages {
            let lo = p * RECORDS_PER_PAGE * RECORD_BYTES;
            let hi = lo + RECORDS_PER_PAGE * RECORD_BYTES;
            sys.ram_write_bytes(
                base + (p * PAGE_SIZE + sync::BODY_OFFSET) as u64,
                &wl.book.bytes()[lo..hi],
            );
        }
        let t0 = sys.kernel_start();
        let mut counts = Vec::with_capacity(wl.queries.len());
        let mut dispatch = 0u64;
        let mut batch = Vec::with_capacity(TENANT_PAGES);
        for q in &wl.queries {
            let key = key_words(&q.key);
            let first = q.tenant * TENANT_PAGES;
            batch.clear();
            batch.extend((first..first + TENANT_PAGES).map(|p| {
                let mut act = PageActivation::new(base + (p * PAGE_SIZE) as u64, CMD_SEARCH)
                    .with_param(sync::PARAM, RECORDS_PER_PAGE as u32);
                for (w, &kw) in key.iter().enumerate() {
                    act = act.with_param(sync::PARAM + 1 + w, kw);
                }
                act
            }));
            let d0 = sys.now();
            sys.activate_pages(&batch);
            dispatch += sys.now() - d0;
            let mut count = 0u32;
            for p in first..first + TENANT_PAGES {
                let pb = base + (p * PAGE_SIZE) as u64;
                sys.wait_done(pb);
                count += sys.read_ctrl(pb, sync::RESULT);
                sys.alu(2);
            }
            counts.push(count);
        }
        let kernel = sys.kernel_region(t0);
        report(SystemKind::Radram, wl, kernel, dispatch, &counts, &sys)
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn both_systems_agree_on_a_small_shard_set() {
            active_pages::parallel::set_thread_budget(4);
            let cfg = RadramConfig::reference();
            let wl = Workload::new(16, 24);
            let c = run_prepared(SystemKind::Conventional, &wl, &cfg, ExecMode::Accurate);
            let r = run_prepared(SystemKind::Radram, &wl, &cfg, ExecMode::Accurate);
            assert_eq!(c.checksum, r.checksum);
            assert_eq!(r.stats.activations, 24 * TENANT_PAGES as u64);
        }

        #[test]
        fn fast_tier_is_functionally_identical() {
            let cfg = RadramConfig::reference();
            let wl = Workload::new(16, 24);
            let acc = run_prepared(SystemKind::Conventional, &wl, &cfg, ExecMode::Accurate);
            let fast = run_prepared(SystemKind::Conventional, &wl, &cfg, ExecMode::Fast);
            assert_eq!(acc.checksum, fast.checksum);
        }

        #[test]
        fn stream_mixes_hits_and_misses_deterministically() {
            let a = Workload::new(16, 64);
            let b = Workload::new(16, 64);
            assert_eq!(a.expected, b.expected);
            assert!(a.expected.iter().any(|&c| c > 0), "no hit in the stream");
            assert!(a.expected.contains(&0), "no miss in the stream");
        }

        #[test]
        fn shard_rounding_and_stream_sizing() {
            assert_eq!(shard_pages(0.5), TENANT_PAGES);
            assert_eq!(shard_pages(9.0), 2 * TENANT_PAGES);
            assert_eq!(shard_pages(2048.0), 2048);
            assert_eq!(queries_for(2048), 256);
            assert_eq!(queries_for(16), 16);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::speedup;

    #[test]
    fn both_systems_count_the_same_matches() {
        let cfg = RadramConfig::reference();
        let c = run(SystemKind::Conventional, 0.05, &cfg, ExecMode::Accurate);
        let r = run(SystemKind::Radram, 0.05, &cfg, ExecMode::Accurate);
        assert_eq!(c.checksum, r.checksum);
    }

    #[test]
    fn multi_page_query_aggregates_partial_counts() {
        let cfg = RadramConfig::reference();
        let c = run(SystemKind::Conventional, 2.5, &cfg, ExecMode::Accurate);
        let r = run(SystemKind::Radram, 2.5, &cfg, ExecMode::Accurate);
        assert_eq!(c.checksum, r.checksum);
        assert_eq!(r.stats.activations, 3);
        assert!(speedup(&c, &r) > 0.5);
    }

    #[test]
    fn search_circuit_counts_exactly() {
        use active_pages::IdealExecutor;
        let book = AddressBook::generate(77, 200);
        let mut exec = IdealExecutor::new(1);
        let page = exec.page_mut(0);
        for (i, &b) in book.bytes().iter().enumerate() {
            page[sync::BODY_OFFSET + i] = b;
        }
        let mut field = [0u8; LAST_NAME_LEN];
        field[..book.query().len()].copy_from_slice(book.query().as_bytes());
        let key = key_words(&field);
        exec.write_u32(0, sync::ctrl_offset(sync::PARAM), 200);
        for (w, &kw) in key.iter().enumerate() {
            exec.write_u32(0, sync::ctrl_offset(sync::PARAM + 1 + w), kw);
        }
        exec.write_u32(0, sync::ctrl_offset(sync::CMD), CMD_SEARCH);
        exec.activate(&DatabaseSearchFn, 0);
        let count = exec.read_u32(0, sync::ctrl_offset(sync::RESULT));
        assert_eq!(count as usize, book.expected_matches(book.query()));
    }
}

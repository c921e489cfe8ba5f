//! Property tests of the RADram system engine: arbitrary interleavings of
//! stores, activations, batches, polls and waits must preserve the
//! simulator's core invariants — time is monotone, results are exact,
//! accounting balances — and a batch must be indistinguishable from the
//! sequential oracle.

use active_pages::{
    settings, sync, ActivePageMemory, CopyRequest, Execution, GroupId, PageFootprint, PageFunction,
    PageSlice, StaticFootprint, PAGE_SIZE,
};
use ap_mem::VAddr;
use proptest::prelude::*;
use proptest::rng::TestRng;
use radram::{CommMode, PageActivation, RadramConfig, System};
use std::sync::Arc;

/// Adds `PARAM` to every one of the first 64 body words and publishes their
/// sum; cost is one word per logic cycle. Declares its (page-local)
/// footprint honestly, so the sanitizer audits it.
#[derive(Debug)]
struct AddAndSum;

impl PageFunction for AddAndSum {
    fn name(&self) -> &'static str {
        "add-and-sum"
    }
    fn logic_elements(&self) -> u32 {
        96
    }
    fn execute(&self, page: &mut PageSlice<'_>) -> Execution {
        let delta = page.ctrl(sync::PARAM);
        let mut sum = 0u32;
        for w in 0..64 {
            let off = sync::BODY_OFFSET + 4 * w;
            let v = page.read_u32(off).wrapping_add(delta);
            page.write_u32(off, v);
            sum = sum.wrapping_add(v);
        }
        page.set_ctrl(sync::RESULT, sum);
        page.set_ctrl(sync::STATUS, sync::DONE);
        Execution::run(64)
    }
    fn footprint(&self) -> StaticFootprint {
        let body = (sync::BODY_OFFSET as u64, (sync::BODY_OFFSET + 4 * 64) as u64);
        StaticFootprint::Known(
            PageFootprint::new()
                .with_read(0, sync::CTRL_SIZE as u64)
                .with_read(body.0, body.1)
                .with_write(0, sync::CTRL_SIZE as u64)
                .with_write(body.0, body.1),
        )
    }
}

/// Adds `PARAM` to its first eight body words and publishes their sum, then
/// raises a mid-execution inter-page request: two words of the page below
/// land in its body words 8 and 9 before the last four cycles run.
#[derive(Debug)]
struct Borrower;

impl PageFunction for Borrower {
    fn name(&self) -> &'static str {
        "borrower"
    }
    fn logic_elements(&self) -> u32 {
        80
    }
    fn execute(&self, page: &mut PageSlice<'_>) -> Execution {
        let sum = add_param(page, 8);
        page.set_ctrl(sync::RESULT, sum);
        page.set_ctrl(sync::STATUS, sync::DONE);
        Execution::run(8).then_copy(from_below(page.info().base, 8, 8)).then_run(4)
    }
}

/// Pre-declares one reference (word 0 of the page below into its body word
/// 9), then adds `PARAM` to its first eight body words and publishes the sum
/// of its first ten.
#[derive(Debug)]
struct PreFetcher;

impl PageFunction for PreFetcher {
    fn name(&self) -> &'static str {
        "pre-fetcher"
    }
    fn logic_elements(&self) -> u32 {
        90
    }
    fn inter_page_requests(&self, page: &PageSlice<'_>) -> Vec<CopyRequest> {
        vec![from_below(page.info().base, 9, 4)]
    }
    fn execute(&self, page: &mut PageSlice<'_>) -> Execution {
        add_param(page, 8);
        let sum = (0..10).fold(0u32, |a, w| a.wrapping_add(page.read_u32(body(w))));
        page.set_ctrl(sync::RESULT, sum);
        page.set_ctrl(sync::STATUS, sync::DONE);
        Execution::run(10)
    }
}

fn body(word: usize) -> usize {
    sync::BODY_OFFSET + 4 * word
}

/// Adds `PARAM` to the first `words` body words; returns their new sum.
fn add_param(page: &mut PageSlice<'_>, words: usize) -> u32 {
    let delta = page.ctrl(sync::PARAM);
    let mut sum = 0u32;
    for w in 0..words {
        let v = page.read_u32(body(w)).wrapping_add(delta);
        page.write_u32(body(w), v);
        sum = sum.wrapping_add(v);
    }
    sum
}

/// A copy of `len` bytes from the start of the body of the page below the
/// one at `base` into body word `word` of this page.
fn from_below(base: VAddr, word: usize, len: usize) -> CopyRequest {
    let below = VAddr::new(base.get() - PAGE_SIZE as u64);
    CopyRequest { dst: base + body(word) as u64, src: below + sync::BODY_OFFSET as u64, len }
}

/// One step of a random driver program.
#[derive(Debug, Clone)]
enum Op {
    Store {
        page: u8,
        word: u8,
        value: u32,
    },
    Activate {
        page: u8,
        delta: u32,
    },
    /// One [`System::activate_pages`] call: per entry a `PARAM = delta`
    /// write and a command store. Pages may repeat and may still be busy.
    Batch {
        pages: Vec<u8>,
        delta: u32,
    },
    Poll {
        page: u8,
    },
    Wait {
        page: u8,
    },
    /// A wait on every page, in page order.
    WaitAll,
    Compute {
        n: u16,
    },
}

fn arb_batch(pages: u8) -> impl Strategy<Value = Op> {
    (proptest::collection::vec(0..pages, 0..7), 0u32..100)
        .prop_map(|(pages, delta)| Op::Batch { pages, delta })
}

fn arb_op(pages: u8) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..pages, 0u8..64, any::<u32>()).prop_map(|(page, word, value)| Op::Store {
            page,
            word,
            value
        }),
        (0..pages, 0u32..100).prop_map(|(page, delta)| Op::Activate { page, delta }),
        arb_batch(pages),
        (0..pages).prop_map(|page| Op::Poll { page }),
        (0..pages).prop_map(|page| Op::Wait { page }),
        Just(Op::WaitAll),
        (1u16..500).prop_map(|n| Op::Compute { n }),
    ]
}

/// Runs `ops` against the pages at `bases`, asserting time is monotone,
/// then waits on every page.
fn drive(sys: &mut System, bases: &[VAddr], ops: &[Op]) {
    let mut last_now = sys.now();
    for op in ops {
        match op {
            Op::Store { page, word, value } => {
                sys.store_u32(bases[*page as usize] + body(*word as usize) as u64, *value);
            }
            Op::Activate { page, delta } => {
                sys.write_ctrl(bases[*page as usize], sync::PARAM, *delta);
                sys.activate(bases[*page as usize], 1);
            }
            Op::Batch { pages, delta } => {
                let batch: Vec<PageActivation> = pages
                    .iter()
                    .map(|&p| {
                        PageActivation::new(bases[p as usize], 1).with_param(sync::PARAM, *delta)
                    })
                    .collect();
                sys.activate_pages(&batch);
            }
            Op::Poll { page } => {
                let _ = sys.poll_status(bases[*page as usize]);
            }
            Op::Wait { page } => sys.wait_done(bases[*page as usize]),
            Op::WaitAll => bases.iter().for_each(|&b| sys.wait_done(b)),
            Op::Compute { n } => sys.alu(*n as u64),
        }
        assert!(sys.now() >= last_now, "time went backwards");
        last_now = sys.now();
    }
    bases.iter().for_each(|&b| sys.wait_done(b));
}

/// Runs `ops` on `pages` pages bound to [`AddAndSum`]; returns the system
/// and the pages' first 64 body words as a pure-software shadow model
/// predicts them.
fn run_program(ops: &[Op], pages: u8, comm: CommMode) -> (System, Vec<[u32; 64]>) {
    let cfg = RadramConfig::reference()
        .with_ram_capacity(((pages as usize) + 4) << 19)
        .with_comm_mode(comm);
    let mut sys = System::radram(cfg);
    let g = GroupId::new(0);
    sys.ap_alloc_pages(g, pages as usize);
    sys.ap_bind(g, Arc::new(AddAndSum));
    let bases: Vec<VAddr> = (0..pages as usize).map(|p| sys.group_page_base(g, p)).collect();
    drive(&mut sys, &bases, ops);
    let mut shadow = vec![[0u32; 64]; pages as usize];
    for op in ops {
        let (pages, delta) = match op {
            Op::Store { page, word, value } => {
                shadow[*page as usize][*word as usize] = *value;
                continue;
            }
            Op::Activate { page, delta } => (std::slice::from_ref(page), *delta),
            Op::Batch { pages, delta } => (&pages[..], *delta),
            _ => continue,
        };
        for &p in pages {
            for w in shadow[p as usize].iter_mut() {
                *w = w.wrapping_add(delta);
            }
        }
    }
    (sys, shadow)
}

fn activations(ops: &[Op]) -> u64 {
    ops.iter()
        .map(|o| match o {
            Op::Activate { .. } => 1,
            Op::Batch { pages, .. } => pages.len() as u64,
            _ => 0,
        })
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any interleaving terminates, keeps time monotone, and leaves page
    /// contents exactly matching the software shadow model.
    #[test]
    fn interleavings_match_shadow_model(
        ops in proptest::collection::vec(arb_op(3), 1..60),
        hardware in proptest::bool::ANY,
    ) {
        let comm = if hardware { CommMode::HardwareCopy } else { CommMode::ProcessorMediated };
        let (mut sys, shadow) = run_program(&ops, 3, comm);
        for (p, page_shadow) in shadow.iter().enumerate() {
            let base = sys.group_page_base(GroupId::new(0), p);
            for (w, &want) in page_shadow.iter().enumerate() {
                let got = sys.load_u32(base + body(w) as u64);
                prop_assert_eq!(got, want, "page {} word {}", p, w);
            }
        }
    }

    /// Accounting balances: stalls never exceed elapsed time, logic-busy
    /// time never exceeds activations x per-activation cost, and every
    /// activation was counted.
    #[test]
    fn accounting_invariants(ops in proptest::collection::vec(arb_op(3), 1..60)) {
        let activations = activations(&ops);
        let (sys, _) = run_program(&ops, 3, CommMode::ProcessorMediated);
        let st = sys.stats();
        prop_assert_eq!(st.activations, activations);
        prop_assert!(st.non_overlap_cycles <= st.cpu.cycles);
        prop_assert_eq!(st.logic_busy_cycles, activations * 64 * 10);
        prop_assert_eq!(st.rebinds, 0);
    }

    /// Results published in RESULT always equal the shadow sum at the time
    /// of the last activation of that page.
    #[test]
    fn results_are_exact(deltas in proptest::collection::vec(1u32..50, 1..8)) {
        let cfg = RadramConfig::reference().with_ram_capacity(8 << 20);
        let mut sys = System::radram(cfg);
        let g = GroupId::new(0);
        let base = sys.ap_alloc_pages(g, 1);
        sys.ap_bind(g, Arc::new(AddAndSum));
        let mut shadow = [0u32; 64];
        for delta in deltas {
            sys.write_ctrl(base, sync::PARAM, delta);
            sys.activate(base, 1);
            sys.wait_done(base);
            for w in shadow.iter_mut() {
                *w = w.wrapping_add(delta);
            }
            let want: u32 = shadow.iter().fold(0u32, |a, &v| a.wrapping_add(v));
            prop_assert_eq!(sys.read_ctrl(base, sync::RESULT), want);
        }
    }
}

// ---- differential fuzzing of the batch API against the sequential oracle --

/// Pages of the differential programs: two per function, in group order
/// [`AddAndSum`], [`Borrower`], [`PreFetcher`], allocated contiguously so
/// every page but the first has a page below it to copy from.
const DIFF_PAGES: u8 = 6;

/// What a page's group runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Local,
    MidRequest,
    PreDeclared,
}

fn kind(page: u8) -> Kind {
    [Kind::Local, Kind::MidRequest, Kind::PreDeclared][page as usize / 2]
}

/// How a run treats batches.
#[derive(Debug, Clone, Copy)]
enum Path {
    /// `set_sequential(true)`: the oracle.
    Sequential,
    /// Default settings, sanitizer off.
    Plain,
    /// Built under a scoped `sanitize = true`.
    Sanitized,
}

/// Everything a run exposes: clock, statistics, page bodies and `RESULT`.
type Outcome = (u64, String, Vec<Vec<u32>>, Vec<u32>);

fn run_diff(ops: &[Op], comm: CommMode, path: Path) -> Outcome {
    let sanitize = matches!(path, Path::Sanitized);
    // A scoped `page_threads` of `None` makes the published budget of 4
    // govern, whatever `AP_PAGE_THREADS` the process runs under.
    settings::scoped(
        |s| {
            s.sanitize = sanitize;
            s.page_threads = None;
        },
        || {
            let cfg = RadramConfig::reference()
                .with_ram_capacity((DIFF_PAGES as usize + 4) << 19)
                .with_comm_mode(comm);
            let mut sys = System::radram(cfg);
            sys.set_sequential(matches!(path, Path::Sequential));
            let funcs: [Arc<dyn PageFunction>; 3] =
                [Arc::new(AddAndSum), Arc::new(Borrower), Arc::new(PreFetcher)];
            let mut bases = Vec::new();
            for (g, func) in funcs.into_iter().enumerate() {
                let g = GroupId::new(g as u32);
                let base = sys.ap_alloc_pages(g, DIFF_PAGES as usize / 3);
                sys.ap_bind(g, func);
                bases.extend((0..DIFF_PAGES as u64 / 3).map(|i| base + i * PAGE_SIZE as u64));
            }
            for (p, b) in bases.iter().enumerate() {
                assert_eq!(b.get(), bases[0].get() + (p * PAGE_SIZE) as u64, "pages contiguous");
                for w in 0..64 {
                    sys.ram_write_u32(*b + body(w) as u64, (p * 1000 + w) as u32);
                }
            }
            drive(&mut sys, &bases, ops);
            assert!(sys.race_report().is_empty(), "{}", sys.race_report().render_text());
            let bodies = bases
                .iter()
                .map(|&b| (0..64).map(|w| sys.ram_read_u32(b + body(w) as u64)).collect())
                .collect();
            let results = bases
                .iter()
                .map(|&b| sys.ram_read_u32(b + sync::ctrl_offset(sync::RESULT) as u64))
                .collect();
            (sys.now(), format!("{:?}", sys.stats()), bodies, results)
        },
    )
}

/// Which batch-eligibility rule a batch meets, judged from the program
/// alone. Judged conservatively: a batch counts only where the program
/// guarantees the rule applies; see [`Coverage::observe`].
#[derive(Debug, Default)]
struct Coverage {
    /// Fewer than two entries.
    short: u32,
    /// Hardware-copy communication.
    hardware: u32,
    /// The pending queue holds a page (hence a blocked page).
    pending: u32,
    /// A page appears twice.
    duplicates: u32,
    /// A member pre-declares an inter-page reference (processor-mediated).
    pre_declared: u32,
    /// Pre-declared references satisfied by the in-chip network.
    pre_declared_hardware: u32,
    /// Deferred to the parallel path.
    deferred: u32,
    /// Deferred with a member still busy from the previous activation.
    deferred_busy: u32,
    /// A member raises a mid-execution request (processor-mediated).
    deferred_mid_request: u32,
}

impl Coverage {
    /// Classifies every batch of `ops` under `comm`. A page with a
    /// mid-execution or pre-declared request joins the pending queue when
    /// activated (processor-mediated); the queue is surely non-empty right
    /// after such an activation and surely empty after `WaitAll` (no page
    /// re-blocks once waited on: each function raises one request).
    fn observe(&mut self, ops: &[Op], comm: CommMode) {
        let hardware = comm == CommMode::HardwareCopy;
        let mut maybe_pending = false;
        let mut previous: Option<&Op> = None;
        for op in ops {
            let blocks = |p: &u8| !hardware && kind(*p) != Kind::Local;
            let just_activated = match previous {
                Some(Op::Activate { page, .. }) => Some(*page),
                _ => None,
            };
            match op {
                Op::Activate { page, .. } => {
                    maybe_pending |= blocks(page);
                    self.pre_declared_hardware +=
                        (hardware && kind(*page) == Kind::PreDeclared) as u32;
                }
                Op::Batch { pages, .. } => {
                    let has = |k| pages.iter().any(|&p| kind(p) == k) as u32;
                    let mut distinct = pages.clone();
                    distinct.sort_unstable();
                    distinct.dedup();
                    if pages.len() < 2 {
                        self.short += 1;
                    } else if hardware {
                        self.hardware += 1;
                        self.pre_declared_hardware += has(Kind::PreDeclared);
                    } else if just_activated.is_some_and(|p| blocks(&p)) {
                        self.pending += 1;
                    } else if !maybe_pending && distinct.len() < pages.len() {
                        self.duplicates += 1;
                    } else if !maybe_pending && has(Kind::PreDeclared) > 0 {
                        self.pre_declared += 1;
                    } else if !maybe_pending {
                        self.deferred += 1;
                        self.deferred_busy +=
                            just_activated.is_some_and(|p| pages.contains(&p)) as u32;
                        self.deferred_mid_request += has(Kind::MidRequest);
                    }
                    maybe_pending |= pages.iter().any(blocks);
                }
                Op::WaitAll => maybe_pending = false,
                _ => {}
            }
            previous = Some(op);
        }
    }
}

/// Every program runs three ways — the sequential oracle, a plain batch
/// run and a sanitized one — under both communication modes, and all
/// three must agree on the clock, every statistic, every page body and
/// every `RESULT` word, with a clean race report. The programs must reach
/// every eligibility fallback of the batch path and its parallel path.
#[test]
fn batches_match_the_sequential_oracle() {
    active_pages::parallel::set_thread_budget(4);
    let ops =
        proptest::collection::vec(prop_oneof![arb_op(DIFF_PAGES), arb_batch(DIFF_PAGES)], 1..40);
    let mut rng = TestRng::for_test("batches_match_the_sequential_oracle");
    let mut coverage = Coverage::default();
    for case in 0..256 {
        let program = ops.generate(&mut rng);
        for comm in [CommMode::ProcessorMediated, CommMode::HardwareCopy] {
            coverage.observe(&program, comm);
            let oracle = run_diff(&program, comm, Path::Sequential);
            for path in [Path::Plain, Path::Sanitized] {
                let got = run_diff(&program, comm, path);
                assert_eq!(
                    got, oracle,
                    "case {case}, {comm:?}, {path:?} vs sequential: {program:?}"
                );
            }
        }
    }
    let c = &coverage;
    for (name, n) in [
        ("short", c.short),
        ("hardware-copy", c.hardware),
        ("pending", c.pending),
        ("duplicates", c.duplicates),
        ("pre-declared", c.pre_declared),
        ("pre-declared, hardware", c.pre_declared_hardware),
        ("deferred", c.deferred),
        ("deferred, busy member", c.deferred_busy),
        ("deferred, mid-execution request", c.deferred_mid_request),
    ] {
        assert!(n > 0, "no program reached the {name} case: {c:?}");
    }
}

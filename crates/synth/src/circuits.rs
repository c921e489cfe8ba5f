//! The seven application circuits of Table 3, built structurally.
//!
//! Each function returns a complete gate-level design: datapath, address
//! generation and a small start/run/done controller, composed from
//! [`crate::blocks`]. The paper's circuits were behavioural VHDL synthesized
//! to an Altera FLEX-10K10-3; these are their structural equivalents, sized
//! by the same 32-bit logic↔subarray datapath the RADram design assumes.
//!
//! Address widths: a 512 KB page holds 2^17 32-bit words, so stream address
//! counters are 17 bits wide.

use crate::blocks;
use crate::netlist::{Bus, Netlist, NodeId};
use std::sync::OnceLock;

/// Word-address width within one 512 KB page (2^17 words).
pub const ADDR_BITS: usize = 17;

/// A start/run/done controller: one-hot-ish two-bit FSM.
///
/// Returns `(run, done)` nets. `start` launches the machine from idle;
/// `last` (sampled while running) moves it to done; it re-arms when `start`
/// drops.
pub fn fsm_start_run_done(n: &mut Netlist, start: NodeId, last: NodeId) -> (NodeId, NodeId) {
    let s_run = n.dff_floating(false);
    let s_done = n.dff_floating(false);
    let n_run_nl = n.not(s_run);
    let n_done_nl = n.not(s_done);
    let idle = n.and(n_run_nl, n_done_nl);
    let not_last = n.not(last);
    let launch = n.and(idle, start);
    let keep = n.and(s_run, not_last);
    let next_run = n.or(launch, keep);
    let finish = n.and(s_run, last);
    let hold_done = n.and(s_done, start);
    let next_done = n.or(finish, hold_done);
    n.connect_dff(s_run, next_run);
    n.connect_dff(s_done, next_done);
    (s_run, s_done)
}

/// Shared skeleton of the array shifters: stream word counter against a
/// limit register, a 32-bit hold register between read and write ports, and
/// read/write address muxing one position apart.
fn array_shifter(name: &str) -> Netlist {
    let mut n = Netlist::new(name);
    let start = n.input("start");
    let limit = n.input_bus("limit", ADDR_BITS);
    let mem_in = n.input_bus("mem_in", 32);

    // Stream position counter.
    let run_ff = n.dff_floating(false); // mirrors FSM run; wired below
    let pos = blocks::counter(&mut n, ADDR_BITS, run_ff);
    let last = blocks::eq_comparator(&mut n, &pos, &limit);
    let (run, done) = fsm_start_run_done(&mut n, start, last);
    n.connect_dff(run_ff, run);

    // Hold register between the subarray read and write (one word in
    // flight — the 32-bit datapath).
    let hold = blocks::register(&mut n, &mem_in, 0);

    // Write address = pos shifted by one element (insert writes up,
    // delete writes down); computed with the carry chain.
    let wr_addr = blocks::incrementer(&mut n, &pos);
    let rd_or_wr = blocks::mux_bus(&mut n, run, &wr_addr, &pos);

    n.output_bus("mem_addr", &rd_or_wr);
    n.output_bus("mem_out", &hold);
    n.output("mem_we", run);
    n.output("done", done);
    n
}

/// `Array-insert`: opens a hole by moving the tail of the page's array
/// region one element toward higher addresses.
pub fn array_insert() -> Netlist {
    let mut n = array_shifter("array-insert");
    // Insert also latches the inserted element and the hole index.
    let elem = n.input_bus("element", 32);
    let hole = n.input_bus("hole", ADDR_BITS);
    let elem_q = blocks::register(&mut n, &elem, 0);
    let hole_q = blocks::register(&mut n, &hole, 0);
    n.output_bus("element_q", &elem_q);
    n.output_bus("hole_q", &hole_q);
    n
}

/// `Array-delete`: closes a hole by moving the tail one element toward lower
/// addresses.
pub fn array_delete() -> Netlist {
    array_shifter("array-delete")
}

/// `Array-find`: streams the page's words past a key comparator and counts
/// matches (the STL `count`/binary-find support).
pub fn array_find() -> Netlist {
    let mut n = Netlist::new("array-find");
    let start = n.input("start");
    let limit = n.input_bus("limit", ADDR_BITS);
    let key = n.input_bus("key", 32);
    let mem_in = n.input_bus("mem_in", 32);

    let run_ff = n.dff_floating(false);
    let pos = blocks::counter(&mut n, ADDR_BITS, run_ff);
    let last = blocks::eq_comparator(&mut n, &pos, &limit);
    let (run, done) = fsm_start_run_done(&mut n, start, last);
    n.connect_dff(run_ff, run);

    let key_q = blocks::register(&mut n, &key, 0);
    let hit = blocks::eq_comparator(&mut n, &mem_in, &key_q);
    let count_en = n.and(run, hit);
    let matches = blocks::counter(&mut n, ADDR_BITS, count_en);

    n.output_bus("mem_addr", &pos);
    n.output_bus("matches", &matches);
    n.output("done", done);
    n
}

/// `Database`: streams address records 32 bits at a time, comparing the
/// queried field against the key; a mismatch latch skips to the next record.
pub fn database() -> Netlist {
    let mut n = Netlist::new("database");
    let start = n.input("start");
    let limit = n.input_bus("limit", ADDR_BITS);
    let key = n.input_bus("key", 32);
    let mem_in = n.input_bus("mem_in", 32);

    let run_ff = n.dff_floating(false);
    let pos = blocks::counter(&mut n, ADDR_BITS, run_ff);
    let last = blocks::eq_comparator(&mut n, &pos, &limit);
    let (run, done) = fsm_start_run_done(&mut n, start, last);
    n.connect_dff(run_ff, run);

    // Within-record word offset (records are 128 B = 32 words).
    let word_in_rec = blocks::counter(&mut n, 5, run_ff);
    let rec_end_pat = n.constant_bus(31, 5);
    let rec_end = blocks::eq_comparator(&mut n, &word_in_rec, &rec_end_pat);

    // Field comparator with a sticky mismatch latch per record.
    let key_q = blocks::register(&mut n, &key, 0);
    let word_eq = blocks::eq_comparator(&mut n, &mem_in, &key_q);
    let word_ne = n.not(word_eq);
    let mismatch_ff = n.dff_floating(false);
    let sticky = n.or(mismatch_ff, word_ne);
    let not_rec_end = n.not(rec_end);
    let next_mismatch = n.and(sticky, not_rec_end); // clears between records
    n.connect_dff(mismatch_ff, next_mismatch);

    // Exact-match counter, bumped at each record end without a mismatch.
    let clean = n.not(sticky);
    let bump = n.and(rec_end, clean);
    let bump_run = n.and(bump, run);
    let matches = blocks::counter(&mut n, 12, bump_run);

    n.output_bus("mem_addr", &pos);
    n.output_bus("matches", &matches);
    n.output("done", done);
    n
}

/// `Dynamic Prog`: one largest-common-subsequence cell — character equality
/// plus the two-way MIN/MAX selection network — with the three neighbor cell
/// registers the wavefront sweep keeps in flight.
pub fn dynprog() -> Netlist {
    let mut n = Netlist::new("dynamic-prog");
    let start = n.input("start");
    let limit = n.input_bus("limit", ADDR_BITS);
    let a_char = n.input_bus("a_char", 8);
    let b_char = n.input_bus("b_char", 8);
    let up_in = n.input_bus("up", 16);

    let run_ff = n.dff_floating(false);
    let pos = blocks::counter(&mut n, ADDR_BITS, run_ff);
    let last = blocks::eq_comparator(&mut n, &pos, &limit);
    let (run, done) = fsm_start_run_done(&mut n, start, last);
    n.connect_dff(run_ff, run);

    // Neighbor registers: left and diagonal are kept in flight; up streams in.
    let left = blocks::register(&mut n, &up_in, 0); // previous cell this row
    let diag = blocks::register(&mut n, &left, 0);

    // char match?
    let eq = blocks::eq_comparator(&mut n, &a_char, &b_char);

    // Candidate 1: diag + 1 when the characters match (LCS recurrence).
    let diag_plus = blocks::incrementer(&mut n, &diag);
    let cand_match = blocks::mux_bus(&mut n, eq, &diag_plus, &diag);

    // Candidate 2/3: max(left, up) — built from the min unit's comparator.
    let lt = blocks::lt_comparator(&mut n, &left, &up_in);
    let max_lu = blocks::mux_bus(&mut n, lt, &up_in, &left);

    // Cell value = max(cand_match, max_lu).
    let lt2 = blocks::lt_comparator(&mut n, &cand_match, &max_lu);
    let cell = blocks::mux_bus(&mut n, lt2, &max_lu, &cand_match);

    n.output_bus("mem_addr", &pos);
    n.output_bus("cell", &cell);
    n.output("done", done);
    n
}

/// `Matrix`: the sparse compare-gather unit — two index streams merged with
/// a 32-bit equality/magnitude comparator pair, match gathering into a
/// packed output region.
pub fn matrix() -> Netlist {
    let mut n = Netlist::new("matrix");
    let start = n.input("start");
    let limit = n.input_bus("limit", ADDR_BITS);
    let idx_a = n.input_bus("idx_a", 32);
    let idx_b = n.input_bus("idx_b", 32);

    let run_ff = n.dff_floating(false);

    // Two stream cursors, advanced by the merge outcome.
    let eq = blocks::eq_comparator(&mut n, &idx_a, &idx_b);
    let a_lt_b = blocks::lt_comparator(&mut n, &idx_a, &idx_b);
    let adv_a_only = a_lt_b;
    let not_lt = n.not(a_lt_b);
    let ne = n.not(eq);
    let adv_b_only = n.and(not_lt, ne);
    let adv_a = n.or(eq, adv_a_only);
    let adv_b = n.or(eq, adv_b_only);
    let en_a = n.and(run_ff, adv_a);
    let en_b = n.and(run_ff, adv_b);
    let cur_a = blocks::counter(&mut n, ADDR_BITS, en_a);
    let cur_b = blocks::counter(&mut n, ADDR_BITS, en_b);

    // Gather cursor counts matched pairs (packed output writes).
    let gather_en = n.and(run_ff, eq);
    let gathered = blocks::counter(&mut n, ADDR_BITS, gather_en);

    let last = blocks::eq_comparator(&mut n, &cur_a, &limit);
    let (run, done) = fsm_start_run_done(&mut n, start, last);
    n.connect_dff(run_ff, run);

    // Output address mux: one of the two stream cursors this cycle.
    let addr = blocks::mux_bus(&mut n, adv_a_only, &cur_a, &cur_b);
    n.output_bus("mem_addr", &addr);
    n.output_bus("gathered", &gathered);
    n.output("match", eq);
    n.output_bus("cur_b", &cur_b);
    n.output("done", done);
    n
}

/// `MPEG-MMX`: the RADram MMX macro-instruction datapath — two 16-bit
/// saturating-adder lanes (one 32-bit word per logic cycle) with source and
/// destination streaming counters.
pub fn mpeg_mmx() -> Netlist {
    let mut n = Netlist::new("mpeg-mmx");
    let start = n.input("start");
    let limit = n.input_bus("limit", ADDR_BITS);
    let src = n.input_bus("src", 32);
    let corr = n.input_bus("corr", 32);

    let run_ff = n.dff_floating(false);
    let pos = blocks::counter(&mut n, ADDR_BITS, run_ff);
    let last = blocks::eq_comparator(&mut n, &pos, &limit);
    let (run, done) = fsm_start_run_done(&mut n, start, last);
    n.connect_dff(run_ff, run);

    // Two PADDSW lanes.
    let lane0 = blocks::saturating_add_signed(&mut n, &src[0..16], &corr[0..16]);
    let lane1 = blocks::saturating_add_signed(&mut n, &src[16..32], &corr[16..32]);
    let mut out: Bus = lane0;
    out.extend(lane1);
    let out_q = blocks::register(&mut n, &out, 0);

    // Destination cursor trails the source cursor by the pipeline depth.
    let dst = blocks::incrementer(&mut n, &pos);

    n.output_bus("mem_addr", &pos);
    n.output_bus("dst_addr", &dst);
    n.output_bus("mem_out", &out_q);
    n.output("mem_we", run);
    n.output("done", done);
    n
}

/// A Section 10 extension: the generic data-manipulation primitive engine
/// (block move / match count / fill / sum behind one opcode decoder).
///
/// Not part of Table 3 — the paper proposes distilling such a base set as
/// future work. The shared datapath needs two address generators, a 32-bit
/// comparator, a 32-bit accumulator and result muxing, which is why it is
/// larger than any single specialized circuit yet still fits one page's 256
/// logic elements.
pub fn data_primitives() -> Netlist {
    let mut n = Netlist::new("data-primitives");
    let start = n.input("start");
    let opcode = n.input_bus("opcode", 2);
    let limit = n.input_bus("limit", ADDR_BITS);
    let key = n.input_bus("key", 32);
    let mem_in = n.input_bus("mem_in", 32);

    let run_ff = n.dff_floating(false);
    // Two independent address generators (source and destination streams).
    let src = blocks::counter(&mut n, ADDR_BITS, run_ff);
    let dst = blocks::counter(&mut n, ADDR_BITS, run_ff);
    let last = blocks::eq_comparator(&mut n, &src, &limit);
    let (run, done) = fsm_start_run_done(&mut n, start, last);
    n.connect_dff(run_ff, run);

    // Shared 32-bit comparator (COUNT) and accumulator (SUM).
    let key_q = blocks::register(&mut n, &key, 0);
    let hit = blocks::eq_comparator(&mut n, &mem_in, &key_q);
    let is_count = n.and(opcode[0], opcode[1]);
    let bump = n.and(hit, is_count);
    let count_en = n.and(run, bump);
    let matches = blocks::counter(&mut n, ADDR_BITS, count_en);
    let acc_q: Bus = (0..32).map(|_| n.dff_floating(false)).collect();
    let acc_next = blocks::adder(&mut n, &acc_q, &mem_in);
    let acc_gated = blocks::mux_bus(&mut n, run, &acc_next, &acc_q);
    for (ff, d) in acc_q.iter().zip(&acc_gated) {
        n.connect_dff(*ff, *d);
    }

    // Move/fill path: hold register and output select.
    let hold = blocks::register(&mut n, &mem_in, 0);
    let not_op0 = n.not(opcode[0]);
    let fill_sel = n.and(opcode[1], not_op0);
    let out = blocks::mux_bus(&mut n, fill_sel, &key_q, &hold);

    // Memory address select between the two generators.
    let addr = blocks::mux_bus(&mut n, opcode[0], &src, &dst);
    n.output_bus("mem_addr", &addr);
    n.output_bus("mem_out", &out);
    n.output_bus("matches", &matches);
    n.output_bus("acc", &acc_q);
    n.output("mem_we", run);
    n.output("done", done);
    n
}

/// Another Section 10 extension: the in-page entropy (RLE + VLC) decoder
/// of the full MPEG pipeline — a serial bitstream window, a prefix decoder
/// over the leading code bits, run/level registers and the zigzag position
/// accumulator. (The 64-entry zigzag reorder table itself maps to a
/// FLEX-10K embedded array block rather than logic elements.)
pub fn entropy_decode() -> Netlist {
    let mut n = Netlist::new("entropy-decode");
    let start = n.input("start");
    let limit = n.input_bus("limit", ADDR_BITS);
    let mem_in = n.input_bus("mem_in", 32);

    let run_ff = n.dff_floating(false);
    // Bitstream window: a 32-bit shift register refilled from memory.
    let mut window: Bus = Vec::with_capacity(32);
    let serial_in = mem_in[0];
    let mut prev = serial_in;
    for _ in 0..32 {
        let ff = n.dff(prev, false);
        window.push(ff);
        prev = ff;
    }

    // Prefix decode over the leading three bits of the window.
    let b0 = window[31];
    let b1 = window[30];
    let b2 = window[29];
    let nb0 = n.not(b0);
    let nb1 = n.not(b1);
    let nb2 = n.not(b2);
    let eob = n.and(b0, nb1); // "10"
    let one_zero = n.and(b0, b1); // "11"
    let t01 = n.and(nb0, b1);
    let run1 = n.and(t01, nb2); // "010"
    let small = n.and(t01, b2); // "011"
    let t00 = n.and(nb0, nb1);
    let run_one = n.and(t00, b2); // "001"
    let escape = n.and(t00, nb2); // "000"

    // Run and level registers loaded from the window tail.
    let run_val: Bus = window[25..29].to_vec();
    let run_q = blocks::register(&mut n, &run_val, 0);
    let level_val: Bus = window[15..26].to_vec();
    let level_q = blocks::register(&mut n, &level_val, 0);

    // Zigzag position accumulator: pos += run + 1.
    let pos_q: Bus = (0..6).map(|_| n.dff_floating(false)).collect();
    let mut run6: Bus = run_q[..4].to_vec();
    let f = n.constant(false);
    run6.push(f);
    run6.push(f);
    let bumped = blocks::adder(&mut n, &pos_q, &run6);
    let next_pos = blocks::incrementer(&mut n, &bumped);
    let cleared = blocks::mux_bus(&mut n, eob, &pos_q, &next_pos);
    for (ff, d) in pos_q.iter().zip(&cleared) {
        n.connect_dff(*ff, *d);
    }

    // Output block counter against the block limit.
    let blk_en = n.and(run_ff, eob);
    let blk = blocks::counter(&mut n, ADDR_BITS, blk_en);
    let last = blocks::eq_comparator(&mut n, &blk, &limit);
    let (run, done) = fsm_start_run_done(&mut n, start, last);
    n.connect_dff(run_ff, run);

    n.output_bus("mem_addr", &blk);
    n.output_bus("level", &level_q);
    // The reorder EAB consumes the zigzag position as its table address.
    n.output_bus("zigzag_pos", &pos_q);
    n.output("sym_eob", eob);
    n.output("sym_esc", escape);
    n.output("sym_run1", run_one);
    n.output("sym_small", small);
    n.output("sym_one", one_zero);
    n.output("sym_run1x", run1);
    n.output("done", done);
    n
}

/// A named circuit along with the values Table 3 reports for it.
#[derive(Debug, Clone, Copy)]
pub struct CircuitSpec {
    /// Table 3 row name.
    pub name: &'static str,
    /// Builder for the structural design.
    pub build: fn() -> Netlist,
    /// LEs reported in Table 3.
    pub paper_les: u32,
    /// Post-route clock period reported in Table 3 (ns).
    pub paper_speed_ns: f64,
    /// Configuration code size reported in Table 3 (KB).
    pub paper_code_kb: f64,
}

/// All seven Table 3 circuits in the paper's row order.
pub fn all() -> Vec<CircuitSpec> {
    vec![
        CircuitSpec {
            name: "Array-delete",
            build: array_delete,
            paper_les: 109,
            paper_speed_ns: 29.0,
            paper_code_kb: 2.7,
        },
        CircuitSpec {
            name: "Array-insert",
            build: array_insert,
            paper_les: 115,
            paper_speed_ns: 26.2,
            paper_code_kb: 2.9,
        },
        CircuitSpec {
            name: "Array-find",
            build: array_find,
            paper_les: 141,
            paper_speed_ns: 32.1,
            paper_code_kb: 3.5,
        },
        CircuitSpec {
            name: "Database",
            build: database,
            paper_les: 142,
            paper_speed_ns: 35.4,
            paper_code_kb: 3.5,
        },
        CircuitSpec {
            name: "Dynamic Prog",
            build: dynprog,
            paper_les: 179,
            paper_speed_ns: 39.2,
            paper_code_kb: 4.5,
        },
        CircuitSpec {
            name: "Matrix",
            build: matrix,
            paper_les: 205,
            paper_speed_ns: 45.3,
            paper_code_kb: 5.6,
        },
        CircuitSpec {
            name: "MPEG-MMX",
            build: mpeg_mmx,
            paper_les: 131,
            paper_speed_ns: 34.6,
            paper_code_kb: 3.3,
        },
    ]
}

/// Logic elements of the named circuit after mapping. Each circuit is
/// synthesized once per process; concurrent first callers wait on that one
/// mapping.
///
/// # Panics
///
/// Panics if `name` is not one of the Table 3 circuits.
pub fn logic_elements(name: &str) -> u32 {
    static LES: [OnceLock<u32>; 7] = [const { OnceLock::new() }; 7];
    let specs = all();
    let i = specs
        .iter()
        .position(|c| c.name.eq_ignore_ascii_case(name))
        .unwrap_or_else(|| panic!("unknown circuit '{name}'"));
    *LES[i].get_or_init(|| crate::mapper::map(&(specs[i].build)()).logic_elements)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulator;
    use crate::{mapper, timing};

    #[test]
    fn every_circuit_fits_a_radram_page() {
        for spec in all() {
            let netlist = (spec.build)();
            let m = mapper::map(&netlist);
            assert!(
                m.logic_elements <= 256,
                "{} needs {} LEs (budget 256)",
                spec.name,
                m.logic_elements
            );
            assert!(
                m.logic_elements >= 40,
                "{} suspiciously small: {}",
                spec.name,
                m.logic_elements
            );
            // The memo has a slot for every circuit and returns the mapping.
            assert_eq!(logic_elements(spec.name), m.logic_elements, "{}", spec.name);
            assert_eq!(logic_elements(&spec.name.to_uppercase()), m.logic_elements);
        }
    }

    #[test]
    fn every_circuit_meets_the_100mhz_simulation_clock_region() {
        // The paper's designs run at 26–46 ns; ours must land in the same
        // regime (under 60 ns — "given modest advances ... achievable").
        for spec in all() {
            let netlist = (spec.build)();
            let m = mapper::map(&netlist);
            let t = timing::analyze(&netlist, &m);
            assert!(t.period_ns < 60.0, "{}: period {:.1} ns too slow", spec.name, t.period_ns);
            assert!(
                t.period_ns > 5.0,
                "{}: period {:.1} ns implausibly fast",
                spec.name,
                t.period_ns
            );
        }
    }

    #[test]
    fn entropy_decoder_fits_the_page_budget() {
        let n = entropy_decode();
        let m = mapper::map(&n);
        assert!(m.logic_elements <= 256, "entropy decoder: {} LEs", m.logic_elements);
        assert!(m.logic_elements >= 60, "suspiciously small: {}", m.logic_elements);
        let t = timing::analyze(&n, &m);
        assert!(t.period_ns < 60.0, "period {}", t.period_ns);
    }

    #[test]
    fn data_primitives_engine_fits_but_is_the_largest() {
        let n = data_primitives();
        let m = mapper::map(&n);
        assert!(m.logic_elements <= 256, "primitive engine must fit: {}", m.logic_elements);
        for spec in [array_insert, array_delete, array_find] {
            let each = mapper::map(&spec()).logic_elements;
            assert!(
                m.logic_elements > each,
                "the generic engine ({}) should exceed a specialized shifter ({each})",
                m.logic_elements
            );
        }
        let t = timing::analyze(&n, &m);
        assert!(t.period_ns < 60.0, "period {}", t.period_ns);
    }

    #[test]
    fn fsm_walks_start_run_done() {
        let mut n = Netlist::new("fsm");
        let start = n.input("start");
        let last = n.input("last");
        let (run, done) = fsm_start_run_done(&mut n, start, last);
        n.output("run", run);
        n.output("done", done);
        let mut s = Simulator::new(&n);
        // Idle.
        s.set(start, false);
        s.set(last, false);
        s.settle();
        assert!(!s.get(run) && !s.get(done));
        // Launch.
        s.set(start, true);
        s.step();
        s.settle();
        assert!(s.get(run) && !s.get(done));
        // Keep running.
        s.step();
        s.settle();
        assert!(s.get(run));
        // Finish.
        s.set(last, true);
        s.step();
        s.settle();
        assert!(!s.get(run) && s.get(done));
        // Re-arm when start drops.
        s.set(start, false);
        s.set(last, false);
        s.step();
        s.settle();
        assert!(!s.get(run) && !s.get(done));
    }

    #[test]
    fn find_counts_matching_words() {
        let n = array_find();
        let start = n.input_bus_named("start").unwrap()[0];
        let limit = n.input_bus_named("limit").unwrap().clone();
        let key = n.input_bus_named("key").unwrap().clone();
        let mem_in = n.input_bus_named("mem_in").unwrap().clone();
        let matches = n.outputs().iter().find(|(nm, _)| nm == "matches").unwrap().1.clone();

        let words = [7u64, 3, 7, 7, 1, 0, 7, 2];
        let mut s = Simulator::new(&n);
        s.set_bus(&limit, words.len() as u64);
        s.set_bus(&key, 7);
        s.set(start, true);
        s.step(); // leave idle
        for &w in &words {
            s.set_bus(&mem_in, w);
            s.step();
        }
        s.settle();
        assert_eq!(s.get_bus(&matches), 4);
    }

    #[test]
    fn mpeg_lanes_saturate() {
        let n = mpeg_mmx();
        let src = n.input_bus_named("src").unwrap().clone();
        let corr = n.input_bus_named("corr").unwrap().clone();
        let out = n.outputs().iter().find(|(nm, _)| nm == "mem_out").unwrap().1.clone();
        let mut s = Simulator::new(&n);
        // lane0: 30000 + 10000 -> 32767 (saturate); lane1: -100 + 50 -> -50.
        let lane0 = 30000u64;
        let lane1 = (-100i16 as u16) as u64;
        s.set_bus(&src, lane0 | (lane1 << 16));
        let c0 = 10000u64;
        let c1 = (50i16 as u16) as u64;
        s.set_bus(&corr, c0 | (c1 << 16));
        s.step(); // register the result
        s.settle();
        let v = s.get_bus(&out);
        assert_eq!((v & 0xFFFF) as u16 as i16, i16::MAX);
        assert_eq!(((v >> 16) & 0xFFFF) as u16 as i16, -50);
    }

    #[test]
    fn dynprog_cell_implements_lcs_recurrence() {
        let n = dynprog();
        let a = n.input_bus_named("a_char").unwrap().clone();
        let b = n.input_bus_named("b_char").unwrap().clone();
        let up = n.input_bus_named("up").unwrap().clone();
        let cell = n.outputs().iter().find(|(nm, _)| nm == "cell").unwrap().1.clone();
        let mut s = Simulator::new(&n);

        // Cycle 1: prime left=5 via up stream.
        s.set_bus(&up, 5);
        s.set_bus(&a, b'G' as u64);
        s.set_bus(&b, b'T' as u64);
        s.step();
        // Cycle 2: diag=5 now; left=7; up=6; chars match.
        s.set_bus(&up, 7);
        s.step();
        s.set_bus(&up, 6);
        s.set_bus(&a, b'C' as u64);
        s.set_bus(&b, b'C' as u64);
        s.settle();
        // left=7 (from last clock), diag=5, up=6, match -> max(diag+1, max(left,up)) = max(6, 7) = 7.
        assert_eq!(s.get_bus(&cell), 7);
    }
}

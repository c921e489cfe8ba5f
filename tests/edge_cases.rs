//! Edge-case integration tests: boundary positions, minimal sizes, and
//! degenerate inputs that the sweeps never touch.

use active_pages::{sync, ActivePageMemory, GroupId, PAGE_SIZE};
use ap_apps::array::{run_script, ELEMS_PER_PAGE};
use ap_apps::{speedup, App, ExecMode, SystemKind};
use ap_workloads::array_ops::{ArrayOp, Script};
use radram::{RadramConfig, System};

fn cfg() -> RadramConfig {
    RadramConfig::reference()
}

#[test]
fn array_insert_at_index_zero_and_end() {
    // Hand-built script hitting both extremes across a page boundary.
    let n = ELEMS_PER_PAGE + 10;
    let script = Script {
        initial_len: n,
        ops: vec![
            ArrayOp::Insert { index: 0, value: 111 },
            ArrayOp::Insert { index: n + 1, value: 222 }, // current end
            ArrayOp::Count { value: 111 },
            ArrayOp::Count { value: 222 },
        ],
    };
    let c = run_script(&script, SystemKind::Conventional, &cfg(), ExecMode::Accurate);
    let r = run_script(&script, SystemKind::Radram, &cfg(), ExecMode::Accurate);
    assert_eq!(c.checksum, r.checksum);
}

#[test]
fn array_delete_first_and_last() {
    let n = ELEMS_PER_PAGE + 5;
    let script = Script {
        initial_len: n,
        ops: vec![
            ArrayOp::Delete { index: 0 },
            ArrayOp::Delete { index: n - 2 }, // last element after one delete
            ArrayOp::Count { value: 7 },
        ],
    };
    let c = run_script(&script, SystemKind::Conventional, &cfg(), ExecMode::Accurate);
    let r = run_script(&script, SystemKind::Radram, &cfg(), ExecMode::Accurate);
    assert_eq!(c.checksum, r.checksum);
}

#[test]
fn array_insert_exactly_at_page_boundary() {
    // The hole lands on the first slot of page 1.
    let n = 2 * ELEMS_PER_PAGE;
    let script = Script {
        initial_len: n,
        ops: vec![
            ArrayOp::Insert { index: ELEMS_PER_PAGE, value: 999 },
            ArrayOp::Count { value: 999 },
        ],
    };
    let c = run_script(&script, SystemKind::Conventional, &cfg(), ExecMode::Accurate);
    let r = run_script(&script, SystemKind::Radram, &cfg(), ExecMode::Accurate);
    assert_eq!(c.checksum, r.checksum);
}

#[test]
fn array_insert_spills_into_a_fresh_page() {
    // A completely full page: the insert's carry must open page 2.
    let script = Script {
        initial_len: ELEMS_PER_PAGE,
        ops: vec![ArrayOp::Insert { index: 3, value: 42 }, ArrayOp::Count { value: 42 }],
    };
    let c = run_script(&script, SystemKind::Conventional, &cfg(), ExecMode::Accurate);
    let r = run_script(&script, SystemKind::Radram, &cfg(), ExecMode::Accurate);
    assert_eq!(c.checksum, r.checksum);
}

#[test]
fn smallest_problem_sizes_still_agree() {
    for app in App::ALL {
        let c = app.run(SystemKind::Conventional, 0.01, &cfg());
        let r = app.run(SystemKind::Radram, 0.01, &cfg());
        assert_eq!(c.checksum, r.checksum, "{} at minimum size", app.name());
    }
}

#[test]
fn repeated_activations_reuse_pages_correctly() {
    // Two consecutive find runs on the same system instance via the App
    // entry points use fresh systems, so exercise reuse manually.
    let mut sys = System::radram(cfg().with_ram_capacity(8 << 20));
    let g = GroupId::new(0);
    let base = sys.ap_alloc_pages(g, 1);
    sys.ap_bind(g, std::sync::Arc::new(ap_apps::array::ArrayFindFn));
    for w in 0..100u64 {
        sys.store_u32(base + (sync::BODY_OFFSET as u64 + 4 * w), (w % 5) as u32);
    }
    for key in 0..5u32 {
        sys.write_ctrl(base, sync::PARAM, 0);
        sys.write_ctrl(base, sync::PARAM + 1, 100);
        sys.write_ctrl(base, sync::PARAM + 2, key);
        sys.activate(base, 3);
        sys.wait_done(base);
        assert_eq!(sys.read_ctrl(base, sync::RESULT), 20, "key {key}");
    }
    assert_eq!(sys.stats().activations, 5);
}

#[test]
fn empty_and_all_matching_database_queries() {
    // The generated book guarantees >= 1 match for its query; also verify a
    // page full of identical names via the raw circuit path.
    use active_pages::IdealExecutor;
    use ap_apps::database::DatabaseSearchFn;
    use ap_workloads::database::RECORD_BYTES;

    let mut exec = IdealExecutor::new(1);
    // 50 records, all with the same 16-byte name field.
    for r in 0..50 {
        let off = sync::BODY_OFFSET + r * RECORD_BYTES;
        exec.page_mut(0)[off..off + 4].copy_from_slice(b"same");
    }
    exec.write_u32(0, sync::ctrl_offset(sync::PARAM), 50);
    exec.write_u32(0, sync::ctrl_offset(sync::PARAM + 1), u32::from_le_bytes(*b"same"));
    exec.write_u32(0, sync::ctrl_offset(sync::CMD), 1);
    exec.activate(&DatabaseSearchFn, 0);
    assert_eq!(exec.read_u32(0, sync::ctrl_offset(sync::RESULT)), 50);

    // And a key that matches nothing.
    exec.write_u32(0, sync::ctrl_offset(sync::PARAM + 1), u32::from_le_bytes(*b"none"));
    exec.write_u32(0, sync::ctrl_offset(sync::CMD), 1);
    exec.activate(&DatabaseSearchFn, 0);
    assert_eq!(exec.read_u32(0, sync::ctrl_offset(sync::RESULT)), 0);
}

#[test]
fn sub_page_problems_use_exactly_one_page_group() {
    let r = App::Database.run(SystemKind::Radram, 0.1, &cfg());
    assert_eq!(r.stats.activations, 1, "a sub-page problem needs one activation");
}

#[test]
fn ap_alloc_rounds_up_and_aligns() {
    let mut sys = System::radram(cfg().with_ram_capacity(16 << 20));
    let g = GroupId::new(3);
    let base = sys.ap_alloc(g, PAGE_SIZE + 1); // rounds to two pages
    assert_eq!(base.get() % PAGE_SIZE as u64, 0);
    assert_eq!(sys.group_len(g), 2);
}

#[test]
fn radram_never_loses_to_itself_across_configs() {
    // Faster logic can never make a kernel slower (sanity on the divisor).
    let fast = App::Median.run(SystemKind::Radram, 1.0, &cfg().with_logic_divisor(2));
    let slow = App::Median.run(SystemKind::Radram, 1.0, &cfg().with_logic_divisor(50));
    assert!(fast.kernel_cycles < slow.kernel_cycles);
}

#[test]
fn speedup_guard_rejects_cross_app_comparison() {
    let a = App::Database.run(SystemKind::Conventional, 0.05, &cfg());
    let b = App::Median.run(SystemKind::Radram, 0.05, &cfg());
    assert!(std::panic::catch_unwind(|| speedup(&a, &b)).is_err());
}

//! Disabled-tracer overhead on the cache-access path.
//!
//! Reproduced cycle counts must be bit-identical with tracing off, and the
//! wall-clock cost of the dormant instrumentation must vanish into
//! measurement noise. The benchmark times (a) the raw data-access path with
//! tracing disabled and (b) the disabled emission gate in isolation, then
//! *asserts* that one gate costs less than one cache access (with a
//! generous absolute ceiling as a backstop) — so a regression that sneaks a
//! lock, TLS write or allocation into the disabled path fails the bench
//! instead of silently perturbing every experiment.

use ap_mem::{Hierarchy, HierarchyConfig, VAddr};
use ap_trace::Subsystem;
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Instant;

const GATE_CALLS: u64 = 1_000_000;
const ACCESSES: u64 = 100_000;
const ROUNDS: usize = 5;

/// Minimum-of-rounds mean ns/op for `f` run `ops` times per round. The
/// minimum is robust against scheduler noise spikes.
fn min_ns_per_op(ops: u64, mut f: impl FnMut(u64)) -> f64 {
    (0..ROUNDS)
        .map(|_| {
            let t0 = Instant::now();
            f(ops);
            t0.elapsed().as_nanos() as f64 / ops as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn gate_ns() -> f64 {
    min_ns_per_op(GATE_CALLS, |ops| {
        for i in 0..ops {
            // The exact call an instrumented hot path makes when tracing is
            // off: one thread-local load, branch not taken.
            ap_trace::instant(Subsystem::Mem, "bench.probe", i, i, 0);
        }
    })
}

fn access_ns(h: &mut Hierarchy) -> f64 {
    min_ns_per_op(ACCESSES, |ops| {
        for i in 0..ops {
            // Mostly L1 hits within a small working set — the cheapest
            // (hence most overhead-sensitive) instrumented operation.
            std::hint::black_box(h.read(VAddr::new((i % 512) * 4)));
        }
    })
}

fn bench_disabled_overhead(c: &mut Criterion) {
    // No trace session is open on this thread, so tracing is off.
    let mut h = Hierarchy::new(HierarchyConfig::reference());

    let gate = gate_ns();
    let access = access_ns(&mut h);
    println!("disabled gate  {gate:>8.2} ns/call");
    println!("cache access   {access:>8.2} ns/access (tracing off)");

    // One dormant emission site must cost less than the access it rides on;
    // the absolute ceiling catches regressions even on machines where the
    // cache model itself is unusually slow.
    assert!(
        gate <= access || gate < 25.0,
        "disabled-tracer gate ({gate:.2} ns) is no longer below noise \
         (cache access: {access:.2} ns)"
    );

    c.bench_function("hierarchy_read_trace_disabled", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            h.read(VAddr::new((i % 512) * 4))
        })
    });
    c.bench_function("trace_gate_disabled", |b| {
        b.iter(|| ap_trace::instant(Subsystem::Mem, "bench.probe", 0, 0, 0))
    });
}

criterion_group!(benches, bench_disabled_overhead);
criterion_main!(benches);

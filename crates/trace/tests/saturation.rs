//! Ring-buffer saturation contract: bounded memory, counted drops, and an
//! explicit truncation marker in the export.

use ap_trace::chrome;
use ap_trace::session::{begin, finish, SessionConfig};
use ap_trace::{instant, Filter, Subsystem};

#[test]
fn saturated_rings_bound_memory_count_drops_and_mark_exports() {
    let cap = 64;
    begin(SessionConfig { ring_capacity: cap, ..SessionConfig::filtered(Filter::ALL) });
    for i in 0..(cap as u64 * 10) {
        instant(Subsystem::Mem, "l1d.hit", i, i, 0);
    }
    let trace = finish().expect("session active");

    // Bounded: exactly `cap` events survive, capacity never grew.
    let ring = trace.ring(Subsystem::Mem);
    assert_eq!(ring.len(), cap);
    assert_eq!(ring.capacity(), cap);
    assert_eq!(ring.dropped(), cap as u64 * 9);
    // The survivors are the oldest prefix (the phase structure the
    // cross-check reads lives at the start of a run).
    assert_eq!(ring.events()[cap - 1].cycle, cap as u64 - 1);

    // Untouched subsystems drop nothing.
    assert_eq!(trace.ring(Subsystem::Cpu).dropped(), 0);

    // The exporter makes the clipping visible and the marker round-trips.
    let json = chrome::export(&trace, "saturation-test");
    let events = chrome::parse(&json).expect("exported JSON parses");
    let marker = events
        .iter()
        .find(|e| e.name == "trace.truncated" && e.cat == "mem")
        .expect("truncation marker for the saturated ring");
    assert_eq!(marker.ph, 'i');
    assert_eq!(marker.a, cap as u64 * 9, "marker carries the drop count");
    assert_eq!(
        events.iter().filter(|e| e.name == "trace.truncated").count(),
        1,
        "only the saturated ring gets a marker"
    );
    assert_eq!(events.iter().filter(|e| e.name == "l1d.hit").count(), cap);
}

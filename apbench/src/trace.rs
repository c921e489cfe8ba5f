//! Host-time spans recorded by the benchmark around its calls into each
//! layer, exported in the Chrome trace-event format (`chrome://tracing`,
//! Perfetto): one complete (`"ph": "X"`) event per span, times in host µs
//! from the start of the traced pass.

use ap_apd::json::{self, Value};
use std::time::Instant;

/// One host-time interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary the span covers (`job`, `closure`, `batch`, ...).
    pub name: &'static str,
    /// Lane: engine worker, client, or 0 for the driving thread.
    pub tid: u64,
    /// Start, µs since the pass began.
    pub start_us: f64,
    /// Duration, µs.
    pub dur_us: f64,
    /// Identifying details (job key, batch width, ...).
    pub args: Vec<(&'static str, Value)>,
}

/// Microseconds from `origin` to `at`.
pub fn us_since(origin: Instant, at: Instant) -> f64 {
    at.saturating_duration_since(origin).as_secs_f64() * 1e6
}

/// The spans as a Chrome trace-event document.
pub fn chrome_json(workload: &str, spans: &[Span]) -> String {
    let events = spans
        .iter()
        .map(|s| {
            json::obj([
                ("name", json::s(s.name)),
                ("cat", json::s(workload)),
                ("ph", json::s("X")),
                ("ts", Value::Num(s.start_us)),
                ("dur", Value::Num(s.dur_us)),
                ("pid", json::n(1)),
                ("tid", json::n(s.tid)),
                ("args", json::obj(s.args.iter().cloned())),
            ])
        })
        .collect();
    json::obj([("traceEvents", Value::Arr(events)), ("displayTimeUnit", json::s("ms"))]).to_json()
}

//! Chrome trace-event JSON export and (line-oriented) import.
//!
//! The export is loadable by `chrome://tracing` / Perfetto: a JSON object
//! with a `traceEvents` array of complete spans (`ph:"X"`), instants
//! (`ph:"i"`) and counters (`ph:"C"`). Simulation subsystems export under
//! pid 1 with the *simulated cycle* as the microsecond timestamp (so 1 "µs"
//! on the timeline = 1 cycle); engine events export under pid 2 in real
//! wall-clock microseconds. Each subsystem gets its own named thread row.
//!
//! Every event is written as one JSON object per line, which lets
//! [`parse`] recover the events line by line with [`crate::json::parse`]. A
//! ring that dropped events contributes an explicit `trace.truncated`
//! instant so a clipped timeline is visibly clipped.

use crate::json::{self, Value};
use crate::{Subsystem, Trace};

/// The pid under which simulation subsystems export (cycle timebase).
pub const PID_SIM: u64 = 1;
/// The pid under which engine events export (wall-clock µs timebase).
pub const PID_ENGINE: u64 = 2;
/// Per-page rings export as sim-pid threads with tid `PAGE_TID_BASE + page`,
/// so each Active Page gets its own named timeline row.
pub const PAGE_TID_BASE: u64 = 1000;

/// Serializes `trace` as Chrome trace-event JSON. `label` names the
/// simulation process row (typically the job key).
pub fn export(trace: &Trace, label: &str) -> String {
    let mut out = String::with_capacity(64 * 1024);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    let mut push = |line: String, out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push_str(",\n");
        }
        out.push_str(&line);
    };

    push(meta_name("process_name", PID_SIM, 0, &format!("sim {label} (ts = cycles)")), &mut out);
    push(meta_name("process_name", PID_ENGINE, 0, "ap-engine (ts = wall us)"), &mut out);
    for sub in Subsystem::ALL {
        let (pid, tid) = ids(sub);
        push(meta_name("thread_name", pid, tid, sub.name()), &mut out);
    }

    for sub in Subsystem::ALL {
        let (pid, tid) = ids(sub);
        export_ring(trace.ring(sub), sub.name(), pid, tid, &mut push, &mut out);
    }
    for (page, ring) in trace.page_rings() {
        let tid = PAGE_TID_BASE + page;
        push(meta_name("thread_name", PID_SIM, tid, &format!("page {page}")), &mut out);
        export_ring(ring, Subsystem::Radram.name(), PID_SIM, tid, &mut push, &mut out);
    }

    for c in &trace.counters {
        push(
            format!(
                "{{\"name\":{},\"cat\":\"metric\",\"ts\":0,\"pid\":{PID_SIM},\"tid\":0,\
                 \"ph\":\"C\",\"args\":{{\"value\":{}}}}}",
                json::quote(c.name),
                c.value()
            ),
            &mut out,
        );
    }
    for h in &trace.histograms {
        push(
            format!(
                "{{\"name\":{},\"cat\":\"metric\",\"ts\":0,\"pid\":{PID_SIM},\"tid\":0,\
                 \"ph\":\"C\",\"args\":{{\"count\":{},\"sum\":{},\"max\":{}}}}}",
                json::quote(h.name),
                h.count(),
                h.sum(),
                h.max()
            ),
            &mut out,
        );
    }

    out.push_str("\n]}\n");
    out
}

fn ids(sub: Subsystem) -> (u64, u64) {
    let pid = if sub == Subsystem::Engine { PID_ENGINE } else { PID_SIM };
    (pid, sub.index() as u64 + 1)
}

fn export_ring(
    ring: &crate::Ring,
    cat: &str,
    pid: u64,
    tid: u64,
    push: &mut impl FnMut(String, &mut String),
    out: &mut String,
) {
    for e in ring.events() {
        let common = format!(
            "\"name\":{},\"cat\":\"{cat}\",\"ts\":{},\"pid\":{pid},\"tid\":{tid},\
             \"args\":{{\"a\":{},\"b\":{}}}",
            json::quote(e.kind),
            e.cycle,
            e.a,
            e.b
        );
        let line = if e.dur > 0 {
            format!("{{{common},\"ph\":\"X\",\"dur\":{}}}", e.dur)
        } else {
            format!("{{{common},\"ph\":\"i\",\"s\":\"t\"}}")
        };
        push(line, out);
    }
    let dropped = ring.dropped();
    if dropped > 0 {
        let ts = ring.events().last().map_or(0, |e| e.cycle + e.dur);
        push(
            format!(
                "{{\"name\":\"trace.truncated\",\"cat\":\"{cat}\",\"ts\":{ts},\"pid\":{pid},\
                 \"tid\":{tid},\"ph\":\"i\",\"s\":\"t\",\"args\":{{\"a\":{dropped},\"b\":0}}}}"
            ),
            out,
        );
    }
}

fn meta_name(kind: &str, pid: u64, tid: u64, name: &str) -> String {
    format!(
        "{{\"name\":\"{kind}\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
         \"args\":{{\"name\":{}}}}}",
        json::quote(name)
    )
}

/// One event recovered from an exported trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedEvent {
    /// The `cat` field (subsystem name, or `"metric"`).
    pub cat: String,
    /// The `name` field (event kind).
    pub name: String,
    /// The phase letter: `X`, `i`, `C` or `M`.
    pub ph: char,
    /// Start timestamp.
    pub ts: u64,
    /// Duration (0 for non-span phases).
    pub dur: u64,
    /// Process id ([`PID_SIM`] or [`PID_ENGINE`]).
    pub pid: u64,
    /// Thread id (subsystem row, or `PAGE_TID_BASE + page` for per-page
    /// rows; 0 when absent).
    pub tid: u64,
    /// First payload word (`args.a`, 0 when absent).
    pub a: u64,
    /// Second payload word (`args.b`, 0 when absent).
    pub b: u64,
}

/// Parses an [`export`]ed trace back into its events (metadata lines
/// included, with `ph == 'M'`). Errors on structurally broken input rather
/// than silently returning an empty list.
pub fn parse(text: &str) -> Result<Vec<ParsedEvent>, String> {
    if !text.contains("\"traceEvents\"") {
        return Err("not a trace-event file: missing \"traceEvents\"".into());
    }
    let mut events = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim().trim_end_matches(',');
        if !line.starts_with('{') || !line.contains("\"ph\":") {
            continue;
        }
        let at = |what: &str| format!("line {}: {what}", lineno + 1);
        let event = json::parse(line).map_err(|e| at(&e.to_string()))?;
        let text = |key: &str| event.get(key).and_then(Value::as_str).map(str::to_string);
        let num = |v: Option<&Value>| v.and_then(Value::as_u64);
        let arg = |key: &str| num(event.get("args").and_then(|a| a.get(key))).unwrap_or(0);
        events.push(ParsedEvent {
            cat: text("cat").unwrap_or_default(),
            name: text("name").ok_or_else(|| at("missing name"))?,
            ph: text("ph").and_then(|p| p.chars().next()).ok_or_else(|| at("missing ph"))?,
            ts: num(event.get("ts")).unwrap_or(0),
            dur: num(event.get("dur")).unwrap_or(0),
            pid: num(event.get("pid")).ok_or_else(|| at("missing pid"))?,
            tid: num(event.get("tid")).unwrap_or(0),
            a: arg("a"),
            b: arg("b"),
        });
    }
    if events.is_empty() {
        return Err("trace contains no events".into());
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{begin, finish, SessionConfig};
    use crate::{complete, instant, Filter};

    #[test]
    fn export_parse_round_trip() {
        begin(SessionConfig::filtered(Filter::ALL));
        complete(Subsystem::Radram, "page.run", 100, 80, 3, 0);
        instant(Subsystem::Mem, "l1d.miss", 10, 0x40, 0);
        complete(Subsystem::Engine, "job.run", 5, 1000, 0, 0);
        crate::session::count("mem.accesses", 7);
        let trace = finish().unwrap();

        let json = export(&trace, "array/radram \"p1\"");
        let events = parse(&json).expect("parse back");

        let run = events.iter().find(|e| e.name == "page.run").expect("span survives");
        assert_eq!((run.ph, run.ts, run.dur, run.a, run.pid), ('X', 100, 80, 3, PID_SIM));
        let miss = events.iter().find(|e| e.name == "l1d.miss").unwrap();
        assert_eq!((miss.ph, miss.cat.as_str()), ('i', "mem"));
        let job = events.iter().find(|e| e.name == "job.run").unwrap();
        assert_eq!(job.pid, PID_ENGINE);
        let ctr = events.iter().find(|e| e.name == "mem.accesses").unwrap();
        assert_eq!(ctr.ph, 'C');
        assert!(events.iter().any(|e| e.ph == 'M' && e.name == "process_name"));
    }

    #[test]
    fn truncated_rings_export_a_marker() {
        begin(SessionConfig { ring_capacity: 2, ..SessionConfig::filtered(Filter::ALL) });
        for i in 0..5 {
            instant(Subsystem::Cpu, "tick", i, 0, 0);
        }
        let trace = finish().unwrap();
        assert_eq!(trace.dropped(), 3);
        let events = parse(&export(&trace, "t")).unwrap();
        let marker = events.iter().find(|e| e.name == "trace.truncated").expect("marker");
        assert_eq!(marker.a, 3, "marker carries the drop count");
        assert_eq!(marker.cat, "cpu");
    }

    #[test]
    fn tabs_and_carriage_returns_round_trip() {
        // Counters are not filter-gated: the default session records them.
        begin(SessionConfig::default());
        crate::session::count("ctr\twith\rcontrols", 1);
        let trace = finish().unwrap();
        let label = "job\tkey\r \"q\" back\\slash";
        let text = export(&trace, label);

        let events = parse(&text).unwrap();
        assert!(events.iter().any(|e| e.ph == 'C' && e.name == "ctr\twith\rcontrols"));
        let row = text.lines().find(|l| l.contains("ts = cycles")).expect("sim process row");
        let meta = json::parse(row.trim_end_matches(',')).unwrap();
        let name = meta.get("args").and_then(|a| a.get("name")).and_then(Value::as_str);
        assert_eq!(name, Some(format!("sim {label} (ts = cycles)").as_str()));
    }

    #[test]
    fn parse_rejects_non_traces() {
        assert!(parse("hello").is_err());
        assert!(parse("{\"traceEvents\":[\n]}").is_err());
    }
}

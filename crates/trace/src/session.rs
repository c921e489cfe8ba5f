//! Thread-local trace sessions.
//!
//! Each simulation job runs on its own thread (the engine spawns one per
//! job), so collection is thread-local: [`begin`] installs a session,
//! instrumented code [`emit`]s into it with no locking, and [`finish`]
//! takes it down and returns the collected [`Trace`]. The session's
//! [`Filter`] is the thread's emission gate, so a thread with no session
//! records nothing and pays one load per instrumented site.

use crate::metrics::{Counter, Histogram};
use crate::ring::{Ring, DEFAULT_CAPACITY, DEFAULT_PAGE_CAPACITY};
use crate::{enabled, Event, Filter, Subsystem};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;

/// What a session records, and its capacity knobs.
#[derive(Debug, Clone, Copy)]
pub struct SessionConfig {
    /// Subsystems whose events this session records ([`count`] and
    /// [`observe`] record regardless).
    pub filter: Filter,
    /// Per-subsystem ring capacity in events.
    pub ring_capacity: usize,
    /// Capacity of each lazily-created per-page ring. Page-scoped `radram`
    /// events (dispatches, logic runs, sync stalls, control writes) are
    /// sharded by page id into their own rings so a thousand-page run does
    /// not truncate at one shared ring's bound. `0` disables sharding and
    /// routes page events to the main `radram` ring.
    pub page_ring_capacity: usize,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            filter: Filter::NONE,
            ring_capacity: DEFAULT_CAPACITY,
            page_ring_capacity: DEFAULT_PAGE_CAPACITY,
        }
    }
}

impl SessionConfig {
    /// The default session recording the events of `filter`.
    pub fn filtered(filter: Filter) -> SessionConfig {
        SessionConfig { filter, ..SessionConfig::default() }
    }
}

/// True for `radram` event kinds whose `a` payload is a page id; these shard
/// into per-page rings when sharding is enabled.
fn page_scoped(sub: Subsystem, kind: &str) -> bool {
    sub == Subsystem::Radram
        && matches!(
            kind,
            crate::phases::KIND_DISPATCH
                | crate::phases::KIND_PAGE_RUN
                | crate::phases::KIND_SYNC_STALL
                | crate::phases::KIND_DISPATCH_MARK
        )
}

/// A finished session's collected data: one event ring per subsystem plus
/// the session's counters and histograms.
#[derive(Debug, Clone)]
pub struct Trace {
    rings: Vec<Ring>,
    page_rings: BTreeMap<u64, Ring>,
    page_ring_capacity: usize,
    /// Named monotonic counters, in registration order.
    pub counters: Vec<Counter>,
    /// Named log2-bucketed histograms, in registration order.
    pub histograms: Vec<Histogram>,
}

impl Trace {
    fn with_config(cfg: SessionConfig) -> Trace {
        Trace {
            rings: Subsystem::ALL.iter().map(|_| Ring::with_capacity(cfg.ring_capacity)).collect(),
            page_rings: BTreeMap::new(),
            page_ring_capacity: cfg.page_ring_capacity,
            counters: Vec::new(),
            histograms: Vec::new(),
        }
    }

    fn push(&mut self, event: Event) {
        if self.page_ring_capacity > 0 && page_scoped(event.subsystem, event.kind) {
            let cap = self.page_ring_capacity;
            self.page_rings.entry(event.a).or_insert_with(|| Ring::lazy(cap)).push(event);
        } else {
            self.rings[event.subsystem.index()].push(event);
        }
    }

    /// The main ring for `sub`. With sharding enabled, page-scoped `radram`
    /// events live in per-page rings instead — see [`Trace::page_ring`] and
    /// [`Trace::events`], which spans both.
    pub fn ring(&self, sub: Subsystem) -> &Ring {
        &self.rings[sub.index()]
    }

    /// Ids of pages that recorded events, ascending.
    pub fn page_ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.page_rings.keys().copied()
    }

    /// The per-page ring for `page`, when that page recorded anything.
    pub fn page_ring(&self, page: u64) -> Option<&Ring> {
        self.page_rings.get(&page)
    }

    /// All per-page rings with their page ids, ascending by page.
    pub fn page_rings(&self) -> impl Iterator<Item = (u64, &Ring)> {
        self.page_rings.iter().map(|(&id, r)| (id, r))
    }

    /// The stored events of `sub`: the main ring in emission order, then —
    /// for [`Subsystem::Radram`] — each page ring in page order.
    pub fn events(&self, sub: Subsystem) -> impl Iterator<Item = &Event> {
        let paged = if sub == Subsystem::Radram { Some(&self.page_rings) } else { None };
        self.ring(sub)
            .events()
            .iter()
            .chain(paged.into_iter().flat_map(|m| m.values().flat_map(|r| r.events().iter())))
    }

    /// All stored events across subsystems (page rings included),
    /// subsystem-major.
    pub fn all_events(&self) -> impl Iterator<Item = &Event> {
        self.rings.iter().chain(self.page_rings.values()).flat_map(|r| r.events().iter())
    }

    /// Total events dropped across all rings (page rings included).
    pub fn dropped(&self) -> u64 {
        self.rings.iter().chain(self.page_rings.values()).map(Ring::dropped).sum()
    }

    /// Sum of durations of `kind` events in `sub` — the primitive behind
    /// the `T_A`/`T_P`/`T_C` cross-check.
    pub fn total_dur(&self, sub: Subsystem, kind: &str) -> u64 {
        self.events(sub).filter(|e| e.kind == kind).map(|e| e.dur).sum()
    }

    /// Number of `kind` events in `sub`.
    pub fn count(&self, sub: Subsystem, kind: &str) -> u64 {
        self.events(sub).filter(|e| e.kind == kind).count() as u64
    }
}

thread_local! {
    static SESSION: RefCell<Option<Trace>> = const { RefCell::new(None) };
    /// The active session's filter bits; zero without a session.
    static FILTER: Cell<u32> = const { Cell::new(0) };
}

/// The calling thread's gate: its session's filter bits, zero without one.
#[inline(always)]
pub(crate) fn filter_bits() -> u32 {
    FILTER.with(Cell::get)
}

/// Starts collecting `cfg.filter`'s events on this thread, replacing (and
/// discarding) any previous session.
pub fn begin(cfg: SessionConfig) {
    SESSION.with(|s| *s.borrow_mut() = Some(Trace::with_config(cfg)));
    FILTER.with(|f| f.set(cfg.filter.0));
}

/// Stops collecting on this thread and returns the trace, or `None` when no
/// session was active. Tracing is off on this thread afterwards.
pub fn finish() -> Option<Trace> {
    FILTER.with(|f| f.set(0));
    SESSION.with(|s| s.borrow_mut().take())
}

/// True when this thread has an active session.
pub fn active() -> bool {
    SESSION.with(|s| s.borrow().is_some())
}

/// Stores `event` in the active session's ring for its subsystem (or, when
/// page sharding applies, in that page's ring). Callers gate on [`enabled`]
/// first; this function re-checks nothing.
#[inline]
pub fn emit(event: Event) {
    SESSION.with(|s| {
        if let Some(trace) = s.borrow_mut().as_mut() {
            trace.push(event);
        }
    });
}

/// Emits an instant event (duration zero) if `sub` is enabled.
#[inline]
pub fn instant(sub: Subsystem, kind: &'static str, cycle: u64, a: u64, b: u64) {
    if enabled(sub) {
        emit(Event { cycle, dur: 0, subsystem: sub, kind, a, b });
    }
}

/// Emits a completed span if `sub` is enabled.
#[inline]
pub fn complete(sub: Subsystem, kind: &'static str, cycle: u64, dur: u64, a: u64, b: u64) {
    if enabled(sub) {
        emit(Event { cycle, dur, subsystem: sub, kind, a, b });
    }
}

/// Adds `n` to the session counter named `name`, creating it on first use.
pub fn count(name: &'static str, n: u64) {
    SESSION.with(|s| {
        if let Some(trace) = s.borrow_mut().as_mut() {
            match trace.counters.iter_mut().find(|c| c.name == name) {
                Some(c) => c.add(n),
                None => {
                    let mut c = Counter::new(name);
                    c.add(n);
                    trace.counters.push(c);
                }
            }
        }
    });
}

/// Records `value` in the session histogram named `name`, creating it on
/// first use.
pub fn observe(name: &'static str, value: u64) {
    SESSION.with(|s| {
        if let Some(trace) = s.borrow_mut().as_mut() {
            match trace.histograms.iter_mut().find(|h| h.name == name) {
                Some(h) => h.record(value),
                None => {
                    let mut h = Histogram::new(name);
                    h.record(value);
                    trace.histograms.push(h);
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_collects_and_finishes() {
        begin(SessionConfig::filtered(Filter::ALL));
        assert!(active());
        instant(Subsystem::Mem, "l1d.miss", 10, 0x40, 0);
        complete(Subsystem::Radram, "page.run", 100, 80, 3, 0);
        count("mem.access", 2);
        count("mem.access", 1);
        observe("mem.latency", 50);
        observe("mem.latency", 3);
        let t = finish().expect("active session");
        assert!(!active());
        assert_eq!(t.count(Subsystem::Mem, "l1d.miss"), 1);
        assert_eq!(t.total_dur(Subsystem::Radram, "page.run"), 80);
        assert_eq!(t.counters.len(), 1);
        assert_eq!(t.counters[0].value(), 3);
        assert_eq!(t.histograms.len(), 1);
        assert_eq!(t.histograms[0].count(), 2);
    }

    #[test]
    fn emissions_without_session_are_discarded() {
        assert!(finish().is_none());
        assert!(!enabled(Subsystem::Cpu), "no session, no tracing");
        instant(Subsystem::Cpu, "noop", 1, 0, 0);
        assert!(finish().is_none());
    }

    #[test]
    fn a_session_gates_only_its_own_thread() {
        begin(SessionConfig::filtered(Filter::ALL));
        assert!(enabled(Subsystem::Mem));
        std::thread::spawn(|| assert!(!enabled(Subsystem::Mem))).join().unwrap();
        let _ = finish();
    }

    #[test]
    fn page_events_shard_by_page_id() {
        begin(SessionConfig::filtered(Filter::ALL));
        complete(Subsystem::Radram, "page.run", 0, 10, 7, 0);
        complete(Subsystem::Radram, "page.run", 10, 20, 9, 0);
        instant(Subsystem::Radram, "irq.service", 5, 0, 0); // not page-scoped
        let t = finish().unwrap();
        assert_eq!(t.page_ids().collect::<Vec<_>>(), vec![7, 9]);
        assert_eq!(t.page_ring(7).unwrap().len(), 1);
        assert_eq!(t.ring(Subsystem::Radram).len(), 1, "non-page kinds stay in the main ring");
        assert_eq!(t.events(Subsystem::Radram).count(), 3, "events() spans both");
        assert_eq!(t.total_dur(Subsystem::Radram, "page.run"), 30);
        assert_eq!(t.all_events().count(), 3);
    }

    #[test]
    fn page_sharding_opts_out_with_zero_capacity() {
        begin(SessionConfig { page_ring_capacity: 0, ..SessionConfig::filtered(Filter::ALL) });
        complete(Subsystem::Radram, "page.run", 0, 10, 7, 0);
        let t = finish().unwrap();
        assert_eq!(t.page_ids().count(), 0);
        assert_eq!(t.ring(Subsystem::Radram).len(), 1);
        assert_eq!(t.total_dur(Subsystem::Radram, "page.run"), 10);
    }

    #[test]
    fn disabled_subsystems_emit_nothing() {
        begin(SessionConfig::filtered(Filter::of(&[Subsystem::Mem])));
        instant(Subsystem::Cpu, "bpred.mispredict", 5, 0, 0);
        instant(Subsystem::Mem, "l1d.hit", 5, 0, 0);
        let t = finish().unwrap();
        assert_eq!(t.events(Subsystem::Cpu).count(), 0);
        assert_eq!(t.events(Subsystem::Mem).count(), 1);
        assert!(!enabled(Subsystem::Mem), "finishing the session turns tracing off");
    }
}

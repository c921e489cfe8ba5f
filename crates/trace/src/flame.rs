//! Compact text flame summary.
//!
//! Not a call-stack flame graph (the simulator's spans are flat), but the
//! same question answered the same way: *which kinds of work own the
//! cycles?* Rows aggregate events by `(category, kind)`, sort by total
//! duration and render proportional bars, so a glance shows e.g. that an
//! Active-Page run is dominated by `page.run` while the conventional system
//! burns its time in `stall.mem`.

use std::collections::BTreeMap;

/// One aggregated row of the summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// Category (subsystem name).
    pub cat: String,
    /// Event kind.
    pub kind: String,
    /// Number of events.
    pub count: u64,
    /// Sum of durations (0 for pure instants).
    pub total_dur: u64,
    /// Largest single duration.
    pub max_dur: u64,
}

/// Aggregates `(cat, kind, dur)` samples into sorted [`Row`]s — biggest
/// total duration first, instants (zero duration) last by count.
pub fn aggregate<'a, I>(samples: I) -> Vec<Row>
where
    I: IntoIterator<Item = (&'a str, &'a str, u64)>,
{
    let mut map: BTreeMap<(String, String), Row> = BTreeMap::new();
    for (cat, kind, dur) in samples {
        let row = map.entry((cat.to_string(), kind.to_string())).or_insert_with(|| Row {
            cat: cat.to_string(),
            kind: kind.to_string(),
            count: 0,
            total_dur: 0,
            max_dur: 0,
        });
        row.count += 1;
        row.total_dur += dur;
        row.max_dur = row.max_dur.max(dur);
    }
    let mut rows: Vec<Row> = map.into_values().collect();
    rows.sort_by(|x, y| y.total_dur.cmp(&x.total_dur).then(y.count.cmp(&x.count)));
    rows
}

/// Renders rows as an aligned text table with proportional `#` bars,
/// titled `title`. Durations are simulated cycles (µs for engine rows).
pub fn render(title: &str, rows: &[Row]) -> String {
    let mut out = format!("flame summary: {title}\n");
    if rows.is_empty() {
        out.push_str("  (no events)\n");
        return out;
    }
    let grand: u64 = rows.iter().map(|r| r.total_dur).sum();
    let name_w =
        rows.iter().map(|r| r.cat.len() + 1 + r.kind.len()).max().unwrap_or(10).clamp(10, 40);
    out.push_str(&format!(
        "  {:<name_w$} {:>12} {:>14} {:>7}  {}\n",
        "event", "count", "total", "share", "profile"
    ));
    for r in rows {
        let share = if grand == 0 { 0.0 } else { r.total_dur as f64 / grand as f64 };
        let bar = "#".repeat((share * 30.0).round() as usize);
        out.push_str(&format!(
            "  {:<name_w$} {:>12} {:>14} {:>6.1}%  {bar}\n",
            format!("{}/{}", r.cat, r.kind),
            r.count,
            r.total_dur,
            share * 100.0,
        ));
    }
    out.push_str(&format!("  {:<name_w$} {:>12} {:>14}\n", "(total)", "", grand));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_and_sorts_by_total_duration() {
        let rows = aggregate(vec![
            ("radram", "page.run", 80),
            ("radram", "page.run", 20),
            ("cpu", "stall.mem", 150),
            ("mem", "l1d.miss", 0),
            ("mem", "l1d.miss", 0),
        ]);
        assert_eq!(rows.len(), 3);
        assert_eq!((rows[0].cat.as_str(), rows[0].kind.as_str()), ("cpu", "stall.mem"));
        assert_eq!((rows[1].total_dur, rows[1].count, rows[1].max_dur), (100, 2, 80));
        assert_eq!(rows[2].count, 2, "instants sort last by count");
    }

    #[test]
    fn renders_shares() {
        let rows = aggregate(vec![("radram", "page.run", 75), ("cpu", "stall.mem", 25)]);
        let text = render("demo", &rows);
        assert!(text.contains("radram/page.run"), "{text}");
        assert!(text.contains("75.0%"), "{text}");
        assert!(text.contains("25.0%"), "{text}");
    }

    #[test]
    fn empty_input_renders_placeholder() {
        assert!(render("none", &[]).contains("(no events)"));
    }
}

//! The JSONL run manifest.
//!
//! Each completed job appends one JSON object per line recording its key,
//! outcome, cache disposition, wall time and worker. The manifest is the
//! run's audit trail: tests and tooling use [`summarize`] to assert cache
//! behaviour without re-simulating anything.

use crate::job::{JobError, JobOutcome};
use ap_trace::json::quote;
use std::io::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Per-job static-analysis totals, recorded in the manifest when the
/// batch's [`crate::Codec::diag`] hook is set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiagCounts {
    /// Error-severity diagnostics.
    pub errors: u32,
    /// Warning-severity diagnostics.
    pub warnings: u32,
}

/// One manifest line, ready to serialize.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Job key.
    pub key: String,
    /// `"ok"`, `"panicked"`, `"timed_out"` or `"cancelled"`.
    pub outcome: &'static str,
    /// Error message for failed jobs.
    pub error: Option<String>,
    /// `true` if served from the disk cache.
    pub cache_hit: bool,
    /// Wall time in milliseconds.
    pub wall_ms: f64,
    /// Worker index.
    pub worker: usize,
    /// Static-analysis totals, when the batch provided a diag hook.
    pub diag: Option<DiagCounts>,
    /// Path of the job's exported Chrome trace, when tracing was enabled
    /// and the job executed fresh.
    pub trace: Option<String>,
}

impl Entry {
    /// Builds the manifest entry for `outcome`, with the static-analysis
    /// totals `diag` of its value (`None` when the batch has no diag hook or
    /// the job failed).
    pub fn of<T>(outcome: &JobOutcome<T>, diag: Option<DiagCounts>) -> Entry {
        let (kind, error) = match &outcome.result {
            Ok(_) => ("ok", None),
            Err(e @ JobError::Panicked(_)) => ("panicked", Some(e.to_string())),
            Err(e @ JobError::TimedOut(_)) => ("timed_out", Some(e.to_string())),
            Err(e @ JobError::Cancelled) => ("cancelled", Some(e.to_string())),
        };
        Entry {
            key: outcome.key.clone(),
            outcome: kind,
            error,
            cache_hit: outcome.cache_hit,
            wall_ms: outcome.wall.as_secs_f64() * 1e3,
            worker: outcome.worker,
            diag,
            trace: outcome.trace.as_ref().map(|p| p.display().to_string()),
        }
    }

    /// Serializes the entry as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"key\":{},\"outcome\":\"{}\",\"cache\":\"{}\",\"wall_ms\":{:.3},\"worker\":{}",
            quote(&self.key),
            self.outcome,
            if self.cache_hit { "hit" } else { "miss" },
            self.wall_ms,
            self.worker
        );
        if let Some(e) = &self.error {
            s.push_str(&format!(",\"error\":{}", quote(e)));
        }
        if let Some(d) = self.diag {
            s.push_str(&format!(",\"diag_errors\":{},\"diag_warnings\":{}", d.errors, d.warnings));
        }
        if let Some(t) = &self.trace {
            s.push_str(&format!(",\"trace\":{}", quote(t)));
        }
        s.push('}');
        s
    }
}

/// Appends one line per outcome to the manifest at `path`.
///
/// The manifest is the run's audit trail, so a killed process (a daemon
/// hit by SIGKILL, a crashed CI box) must leave a complete prefix of whole
/// lines behind, not a page-cache-resident tail that never reached the
/// disk. [`write`](Writer::write) is therefore a group commit: it appends
/// every entry of its slice, in order, with one `write_all`, then forces
/// them to stable storage with one `fdatasync` before it returns. A caller
/// that acts on a line (calls a job's completion callback) does so only
/// after the `write` holding that line has returned. A cache hit is tens
/// of microseconds and an `fdatasync` about a hundred, so callers hand
/// over every line they have at once rather than one line per sync.
/// Clones share the file and its [`counts`](Writer::counts); concurrent
/// writes append whole slices, one at a time.
#[derive(Debug, Clone)]
pub struct Writer {
    file: Arc<Mutex<Appender>>,
}

/// The open manifest and what has been committed to it.
#[derive(Debug)]
struct Appender {
    file: std::fs::File,
    lines: u64,
    syncs: u64,
}

impl Writer {
    /// Opens `path` for appending (creating parent directories).
    pub fn append(path: &Path) -> std::io::Result<Writer> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Writer { file: Arc::new(Mutex::new(Appender { file, lines: 0, syncs: 0 })) })
    }

    /// Appends `entries` as whole lines, in order, with one write, and
    /// forces them to stable storage with one sync. An empty slice writes
    /// and syncs nothing. Failures are counted warnings.
    pub fn write(&self, entries: &[Entry]) {
        if entries.is_empty() {
            return;
        }
        let mut text = String::new();
        for entry in entries {
            text.push_str(&entry.to_json());
            text.push('\n');
        }
        let mut out = self.file.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Err(e) = out.file.write_all(text.as_bytes()) {
            ap_trace::warn("manifest.write_failed", format!("cannot write manifest lines: {e}"));
            return;
        }
        out.lines += entries.len() as u64;
        if let Err(e) = out.file.sync_data() {
            ap_trace::warn("manifest.sync_failed", format!("cannot fsync manifest: {e}"));
            return;
        }
        out.syncs += 1;
    }

    /// `(lines, syncs)` this writer and its clones have committed: lines
    /// written, and `fdatasync` calls that succeeded.
    pub fn counts(&self) -> (u64, u64) {
        let out = self.file.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        (out.lines, out.syncs)
    }
}

/// Aggregate counts over a manifest file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Summary {
    /// Lines parsed.
    pub total: usize,
    /// Jobs that produced a value.
    pub ok: usize,
    /// Jobs that panicked.
    pub panicked: usize,
    /// Jobs that exceeded the deadline.
    pub timed_out: usize,
    /// Jobs cancelled while still queued.
    pub cancelled: usize,
    /// Values served from the disk cache.
    pub cache_hits: usize,
    /// Values computed fresh.
    pub cache_misses: usize,
    /// Sum of per-job Error-severity diagnostic counts.
    pub diag_errors: usize,
    /// Sum of per-job Warning-severity diagnostic counts.
    pub diag_warnings: usize,
    /// Jobs that exported a Chrome trace.
    pub traced: usize,
}

/// Reads a manifest written by the engine and tallies outcomes.
pub fn summarize(path: &Path) -> std::io::Result<Summary> {
    let text = std::fs::read_to_string(path)?;
    let mut s = Summary::default();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        s.total += 1;
        if line.contains("\"outcome\":\"ok\"") {
            s.ok += 1;
        } else if line.contains("\"outcome\":\"panicked\"") {
            s.panicked += 1;
        } else if line.contains("\"outcome\":\"timed_out\"") {
            s.timed_out += 1;
        } else if line.contains("\"outcome\":\"cancelled\"") {
            s.cancelled += 1;
        }
        if line.contains("\"cache\":\"hit\"") {
            s.cache_hits += 1;
        } else if line.contains("\"cache\":\"miss\"") {
            s.cache_misses += 1;
        }
        s.diag_errors += field_u64(line, "\"diag_errors\":") as usize;
        s.diag_warnings += field_u64(line, "\"diag_warnings\":") as usize;
        if line.contains("\"trace\":\"") {
            s.traced += 1;
        }
    }
    Ok(s)
}

/// Extracts the integer after `key` in a JSON line (0 when absent).
fn field_u64(line: &str, key: &str) -> u64 {
    line.find(key)
        .map(|p| line[p + key.len()..].chars().take_while(char::is_ascii_digit).collect::<String>())
        .and_then(|digits| digits.parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_serialize_and_summarize() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("ap-engine-manifest-test-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let w = Writer::append(&path).unwrap();
        w.write(&[
            Entry {
                key: "a \"quoted\"\nkey".into(),
                outcome: "ok",
                error: None,
                cache_hit: true,
                wall_ms: 1.5,
                worker: 0,
                diag: Some(DiagCounts { errors: 0, warnings: 3 }),
                trace: Some("traces/abc.trace.json".into()),
            },
            Entry {
                key: "b".into(),
                outcome: "panicked",
                error: Some("boom".into()),
                cache_hit: false,
                wall_ms: 2.0,
                worker: 1,
                diag: None,
                trace: None,
            },
        ]);
        drop(w);
        let s = summarize(&path).unwrap();
        assert_eq!(
            s,
            Summary {
                total: 2,
                ok: 1,
                panicked: 1,
                timed_out: 0,
                cancelled: 0,
                cache_hits: 1,
                cache_misses: 1,
                diag_errors: 0,
                diag_warnings: 3,
                traced: 1,
            }
        );
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("a \\\"quoted\\\"\\nkey"), "escaping broken: {text}");
        assert!(text.contains("\"diag_warnings\":3"), "diag missing: {text}");
        assert!(text.contains("\"trace\":\"traces/abc.trace.json\""), "trace missing: {text}");
        let _ = std::fs::remove_file(&path);
    }

    fn entry(key: &str) -> Entry {
        Entry {
            key: key.into(),
            outcome: "ok",
            error: None,
            cache_hit: true,
            wall_ms: 0.25,
            worker: 0,
            diag: None,
            trace: None,
        }
    }

    #[test]
    fn a_write_appends_whole_lines_in_order_with_one_sync() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("ap-engine-manifest-group-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let w = Writer::append(&path).unwrap();
        w.write(&[]);
        assert_eq!(w.counts(), (0, 0), "an empty slice writes and syncs nothing");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "");
        w.write(&[entry("first")]);
        let batch: Vec<Entry> = (0..5).map(|i| entry(&format!("k{i}"))).collect();
        w.clone().write(&batch);
        assert_eq!(w.counts(), (6, 2), "one sync per write, shared by clones");
        let expected: String =
            std::iter::once(entry("first")).chain(batch).map(|e| e.to_json() + "\n").collect();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, expected, "whole lines, in slice order");
        let _ = std::fs::remove_file(&path);
    }
}

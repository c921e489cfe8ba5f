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
/// Every [`record`](Writer::record) is written *and fsynced* immediately:
/// the manifest is the run's audit trail, and a killed process (a daemon
/// hit by SIGKILL, a crashed CI box) must leave a complete prefix of
/// whole lines behind, not a page-cache-resident tail that never reached
/// the disk. Jobs are seconds of simulation each, so one `fdatasync` per
/// completion is noise. Clones share the file; concurrent records append
/// whole lines, one at a time.
#[derive(Debug, Clone)]
pub struct Writer {
    file: Arc<Mutex<std::fs::File>>,
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
        Ok(Writer { file: Arc::new(Mutex::new(file)) })
    }

    /// Appends one entry and forces it to stable storage.
    pub fn record(&self, entry: &Entry) {
        let mut file = self.file.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Err(e) = writeln!(file, "{}", entry.to_json()) {
            ap_trace::warn("manifest.write_failed", format!("cannot write manifest line: {e}"));
            return;
        }
        if let Err(e) = file.sync_data() {
            ap_trace::warn("manifest.sync_failed", format!("cannot fsync manifest: {e}"));
        }
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
        w.record(&Entry {
            key: "a \"quoted\"\nkey".into(),
            outcome: "ok",
            error: None,
            cache_hit: true,
            wall_ms: 1.5,
            worker: 0,
            diag: Some(DiagCounts { errors: 0, warnings: 3 }),
            trace: Some("traces/abc.trace.json".into()),
        });
        w.record(&Entry {
            key: "b".into(),
            outcome: "panicked",
            error: Some("boom".into()),
            cache_hit: false,
            wall_ms: 2.0,
            worker: 1,
            diag: None,
            trace: None,
        });
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
}

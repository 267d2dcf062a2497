//! The append-only per-cell lifecycle event journal (`--events events.jsonl`).
//!
//! Every cell a sweep processes emits a stream of flat JSON event lines:
//!
//! ```text
//! planned → trace_acquired(source, bytes, dur) → decoded(dur)
//!         → simulated(cycles, dur) → written(dur)
//! ```
//!
//! with `restored` / `cell_cached` / `failed` replacing the simulate chain on
//! those paths, and `sweep_started` / `sweep_finished` bracketing each plan
//! execution, so the rounds of an adaptive sweep or the matrices of a
//! multi-table artifact append to one timeline. Each line carries the worker id
//! that processed the cell and a monotonic `ts_us` timestamp (microseconds
//! since the journal was opened by this process).
//!
//! The journal uses the same kill-tolerant framing as the results JSONL
//! ([`crate::jsonl::JsonlSink`]): opening an existing file terminates a
//! truncated trailing line, appends are a single `write + flush`, and readers
//! skip (but count) malformed lines. `trace_acquired`/`decoded` are emitted
//! only by the worker that actually performed the acquisition — traces are
//! shared across same-`(workload, seed)` cells, so most cells reuse a program
//! acquired by an earlier cell and have no acquisition phase of their own.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json;
use crate::jsonl::CellId;

/// Event kind strings as they appear in the journal's `ev` field.
pub mod kind {
    /// A worker dequeued the cell.
    pub const PLANNED: &str = "planned";
    /// The cell's trace was fetched from the cache or generated.
    pub const TRACE_ACQUIRED: &str = "trace_acquired";
    /// The on-disk trace representation was decoded into a program.
    pub const DECODED: &str = "decoded";
    /// The cycle-level simulation finished.
    pub const SIMULATED: &str = "simulated";
    /// The cell's result line was appended to the results JSONL.
    pub const WRITTEN: &str = "written";
    /// The cell failed — it panicked, or the differential oracle recorded a
    /// divergence. The event's `phase` field (`"panic"` or `"oracle"`) says
    /// which, and `error` carries the message/divergence report.
    pub const FAILED: &str = "failed";
    /// The cell was restored from an existing results file (resume).
    pub const RESTORED: &str = "restored";
    /// The cell was served by the content-addressed result cache
    /// (`--result-cache`) instead of being simulated.
    pub const CACHED: &str = "cell_cached";
    /// A plan execution began (`cells`, `jobs`).
    pub const SWEEP_STARTED: &str = "sweep_started";
    /// A plan execution finished.
    pub const SWEEP_FINISHED: &str = "sweep_finished";
}

/// Append-only, kill-tolerant writer for the event journal.
///
/// Shared by reference across worker threads; each emit is one lock, one
/// `write`, one `flush`, so a `kill -9` at any point loses at most the final
/// partial line — which [`read_events`] (and a subsequent [`EventSink::open`])
/// tolerates.
#[derive(Debug)]
pub struct EventSink {
    path: PathBuf,
    file: Mutex<fs::File>,
    start: Instant,
    write_errors: AtomicUsize,
}

impl EventSink {
    /// Opens (creating or appending to) the journal at `path`. A truncated
    /// trailing line from a killed predecessor is terminated so new events
    /// start on a fresh line.
    pub fn open(path: impl Into<PathBuf>) -> std::io::Result<Self> {
        let path = path.into();
        let existing = match fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(e),
        };
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        if !existing.is_empty() && !existing.ends_with('\n') {
            file.write_all(b"\n")?;
            file.flush()?;
        }
        Ok(EventSink {
            path,
            file: Mutex::new(file),
            start: Instant::now(),
            write_errors: AtomicUsize::new(0),
        })
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of event lines that failed to write (I/O errors are counted, not
    /// propagated — instrumentation must never fail a sweep).
    pub fn write_errors(&self) -> usize {
        self.write_errors.load(Ordering::Relaxed)
    }

    /// Microseconds since this sink was opened (monotonic).
    fn ts_us(&self) -> u64 {
        self.start.elapsed().as_micros().min(u64::MAX as u128) as u64
    }

    /// Appends one event line: `ev` and `ts_us` first, then `fields` in order.
    pub fn emit<'a>(&self, ev: &'a str, fields: impl IntoIterator<Item = (&'a str, String)>) {
        let mut all = vec![
            ("ev", json::string(ev)),
            ("ts_us", json::uint(self.ts_us())),
        ];
        all.extend(fields);
        let mut line = json::object(all);
        line.push('\n');
        let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
        let outcome = file.write_all(line.as_bytes()).and_then(|()| file.flush());
        if outcome.is_err() {
            self.write_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Appends a cell lifecycle event: identity fields from `id`, the worker
    /// that processed it, then `extra` fields in order.
    pub fn emit_cell<'a>(
        &self,
        ev: &'a str,
        id: &CellId,
        worker: usize,
        extra: impl IntoIterator<Item = (&'a str, String)>,
    ) {
        let mut fields = vec![
            ("matrix", json::string(&id.matrix)),
            ("workload", json::string(&id.workload)),
            ("config", json::string(&id.config)),
            ("seed", json::uint(id.seed)),
            ("worker", json::uint(worker as u64)),
        ];
        fields.extend(extra);
        self.emit(ev, fields);
    }
}

/// One parsed journal line. Fields not present on the line are `None` — each
/// event kind populates only the subset that applies to it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Event {
    /// Event kind (see [`kind`]).
    pub ev: String,
    /// Microseconds since the emitting process opened its journal.
    pub ts_us: u64,
    /// Matrix label of the cell's artifact.
    pub matrix: Option<String>,
    /// Workload name.
    pub workload: Option<String>,
    /// Machine-configuration label.
    pub config: Option<String>,
    /// Workload-generation seed.
    pub seed: Option<u64>,
    /// Worker thread that processed the cell.
    pub worker: Option<u64>,
    /// Trace acquisition source (`cache`, `generated`).
    pub source: Option<String>,
    /// Bytes read from disk during acquisition.
    pub bytes: Option<u64>,
    /// Simulated cycles.
    pub cycles: Option<u64>,
    /// Phase duration in microseconds.
    pub dur_us: Option<f64>,
    /// Error text (`failed` events).
    pub error: Option<String>,
    /// How a `failed` cell failed: `"panic"` (the simulation panicked) or
    /// `"oracle"` (the differential golden model recorded a divergence).
    pub phase: Option<String>,
    /// Cell count (`sweep_started` / `sweep_finished` events).
    pub cells: Option<u64>,
}

/// Parses one journal line; `None` when the line is malformed or not an event.
pub fn parse_event_line(line: &str) -> Option<Event> {
    let fields = json::parse_flat_object(line)?;
    let mut event = Event::default();
    let mut saw_ev = false;
    let mut saw_ts = false;
    for (name, value) in fields {
        match name.as_str() {
            "ev" => {
                event.ev = value.as_str()?.to_string();
                saw_ev = true;
            }
            "ts_us" => {
                event.ts_us = value.as_u64()?;
                saw_ts = true;
            }
            "matrix" => event.matrix = Some(value.as_str()?.to_string()),
            "workload" => event.workload = Some(value.as_str()?.to_string()),
            "config" => event.config = Some(value.as_str()?.to_string()),
            "seed" => event.seed = Some(value.as_u64()?),
            "worker" => event.worker = Some(value.as_u64()?),
            "source" => event.source = Some(value.as_str()?.to_string()),
            "bytes" => event.bytes = Some(value.as_u64()?),
            "cycles" => event.cycles = Some(value.as_u64()?),
            "dur_us" => event.dur_us = Some(value.as_f64()?),
            "error" => event.error = Some(value.as_str()?.to_string()),
            "phase" => event.phase = Some(value.as_str()?.to_string()),
            "cells" => event.cells = Some(value.as_u64()?),
            // Unknown fields are forward-compatible padding, not corruption.
            _ => {}
        }
    }
    (saw_ev && saw_ts).then_some(event)
}

/// Parses a whole journal, returning the events in file order plus the number
/// of malformed lines skipped (e.g. the truncated final line of a killed run).
pub fn read_events(content: &str) -> (Vec<Event>, usize) {
    let mut events = Vec::new();
    let mut malformed = 0usize;
    for line in content.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_event_line(line) {
            Some(ev) => events.push(ev),
            None => malformed += 1,
        }
    }
    (events, malformed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "svw-events-test-{tag}-{}.jsonl",
            std::process::id()
        ))
    }

    fn sample_id() -> CellId {
        CellId {
            matrix: "fig5".to_string(),
            workload: "gcc".to_string(),
            config: "nlq+svw".to_string(),
            seed: 3,
            trace_len: 4000,
            fingerprint: 0xABCD,
            config_fingerprint: 0x1234,
            model_version: 1,
            spec_fingerprint: 0,
        }
    }

    #[test]
    fn emitted_cell_events_round_trip() {
        let path = temp_path("roundtrip");
        let _ = fs::remove_file(&path);
        let sink = EventSink::open(&path).unwrap();
        sink.emit_cell(kind::PLANNED, &sample_id(), 2, []);
        sink.emit_cell(
            kind::SIMULATED,
            &sample_id(),
            2,
            [
                ("cycles", json::uint(1234)),
                ("dur_us", json::number(456.25)),
            ],
        );
        sink.emit_cell(
            kind::FAILED,
            &sample_id(),
            2,
            [
                ("error", json::string("oracle divergence: seq 7")),
                ("phase", json::string("oracle")),
            ],
        );
        let (events, malformed) = read_events(&fs::read_to_string(&path).unwrap());
        assert_eq!(malformed, 0);
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].ev, kind::PLANNED);
        assert_eq!(events[0].workload.as_deref(), Some("gcc"));
        assert_eq!(events[0].worker, Some(2));
        assert_eq!(events[1].cycles, Some(1234));
        assert_eq!(events[1].dur_us, Some(456.25));
        assert_eq!(events[2].ev, kind::FAILED);
        assert_eq!(events[2].error.as_deref(), Some("oracle divergence: seq 7"));
        assert_eq!(events[2].phase.as_deref(), Some("oracle"));
        assert!(events[1].ts_us >= events[0].ts_us, "monotonic timestamps");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn truncated_trailing_line_is_terminated_and_skipped() {
        let path = temp_path("truncated");
        let _ = fs::remove_file(&path);
        let sink = EventSink::open(&path).unwrap();
        sink.emit(kind::SWEEP_STARTED, [("cells", json::uint(8))]);
        drop(sink);
        // Simulate a kill mid-write: append a partial line with no newline.
        let mut file = fs::OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"{\"ev\":\"simulated\",\"ts_us\":9")
            .unwrap();
        drop(file);
        let resumed = EventSink::open(&path).unwrap();
        resumed.emit(kind::SWEEP_FINISHED, [("cells", json::uint(8))]);
        let (events, malformed) = read_events(&fs::read_to_string(&path).unwrap());
        assert_eq!(malformed, 1, "the torn line is counted, not fatal");
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].ev, kind::SWEEP_STARTED);
        assert_eq!(events[1].ev, kind::SWEEP_FINISHED);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn malformed_and_unknown_content_is_tolerated() {
        let content = "\n\
            {\"ev\":\"planned\",\"ts_us\":1,\"future_field\":7}\n\
            not json at all\n\
            {\"ts_us\":2}\n\
            {\"ev\":\"restored\",\"ts_us\":3}\n";
        let (events, malformed) = read_events(content);
        assert_eq!(events.len(), 2);
        assert_eq!(malformed, 2, "garbage line plus the ev-less object");
    }
}

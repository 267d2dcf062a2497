//! Sweep-engine observability: [`SweepMetrics`], the one count of everything
//! a sweep does (cells, traces, result-cache traffic, phase durations) and
//! the only source of `--stats`, `--stats-json`, the result-cache summary
//! line and the `--oracle` exit code; the live `--progress` reporter; and the
//! [`SweepObserver`] handle that threads both (plus the `--events` journal)
//! through [`crate::runner::RunOptions`].
//!
//! A library caller that needs none of it passes `obs: None` and pays only
//! the `Option` branch per cell. With metrics on, a cell costs a few relaxed
//! atomic adds, and each worker takes the per-worker lock once, when it
//! exits.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::cache::ResultCache;
use crate::events::EventSink;
use crate::json;

/// A monotonically increasing event count: relaxed atomic adds, safe from any
/// thread, never a lock.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increments the counter by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A duration accumulator: how many phases were timed and their summed
/// duration. Recording never allocates: two relaxed atomic adds.
#[derive(Debug, Default)]
pub struct DurationHistogram {
    count: AtomicU64,
    sum_nanos: AtomicU64,
}

impl DurationHistogram {
    /// Records one duration observation.
    pub fn record(&self, d: Duration) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_nanos
            .fetch_add(d.as_nanos().min(u64::MAX as u128) as u64, Ordering::Relaxed);
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded durations.
    pub fn sum(&self) -> Duration {
        Duration::from_nanos(self.sum_nanos.load(Ordering::Relaxed))
    }

    /// The `{"count":N,"seconds":S}` object `--stats-json` prints per phase.
    fn to_json(&self) -> String {
        json::object([
            ("count", json::uint(self.count())),
            ("seconds", json::number(self.sum().as_secs_f64())),
        ])
    }
}

/// What one worker thread did during a sweep (`svwsim --stats`). The four
/// cell counts are disjoint: a failed cell is counted once, as failed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Cells this worker simulated to completion.
    pub cells_simulated: u64,
    /// Cells this worker satisfied from the resume file instead of simulating.
    pub cells_restored: u64,
    /// Cells this worker served from the content-addressed result cache.
    pub cells_cached: u64,
    /// Cells whose simulation panicked or (under `--oracle`) diverged.
    pub cells_failed: u64,
    /// Cell startups that reused the worker's arena (in-place pipeline reset).
    pub resets: u64,
    /// Cell startups that built a pipeline from scratch (the worker's first cell,
    /// or the cell after a panic discarded the arena).
    pub rebuilds: u64,
}

impl WorkerStats {
    /// Folds another sample into this one (counters add).
    fn merge(&mut self, other: &WorkerStats) {
        self.cells_simulated += other.cells_simulated;
        self.cells_restored += other.cells_restored;
        self.cells_cached += other.cells_cached;
        self.cells_failed += other.cells_failed;
        self.resets += other.resets;
        self.rebuilds += other.rebuilds;
    }

    /// The rows summed.
    fn sum(rows: &[WorkerStats]) -> WorkerStats {
        let mut total = WorkerStats::default();
        for row in rows {
            total.merge(row);
        }
        total
    }
}

/// Everything the sweep engine counts, shared by every plan execution of one
/// invocation (the matrices of `tables`, the rounds of an adaptive sweep).
#[derive(Debug, Default)]
pub struct SweepMetrics {
    /// Per-worker rows: slot `i` aggregates the i-th worker thread of every
    /// plan execution, so a persistent imbalance shows even though the threads
    /// themselves are per-plan. The cell counts live only here.
    workers: Mutex<Vec<WorkerStats>>,
    /// Traces generated from workload profiles.
    pub traces_generated: Counter,
    /// Traces served by the on-disk trace cache.
    pub trace_cache_hits: Counter,
    /// Bytes read from disk while acquiring traces.
    pub trace_bytes_read: Counter,
    /// Simulated cells served the trace another cell of their plan acquired,
    /// instead of acquiring it themselves.
    pub cells_shared_decode: Counter,
    /// Cells scheduled beyond the minimum seed count by adaptive sampling.
    pub adaptive_extra_cells: Counter,
    /// Total simulated cycles across all cells.
    pub sim_cycles: Counter,
    /// Forwarding-buffer probes across all simulated cells.
    pub fwd_buffer_lookups: Counter,
    /// Forwarding-buffer probes served from the buffer.
    pub fwd_buffer_hits: Counter,
    /// Loads held at rename by a store-set dependence prediction.
    pub store_set_squashes: Counter,
    /// Trace-acquisition phase durations (fetch or generate, per acquiring cell).
    pub trace_acquire_seconds: DurationHistogram,
    /// Trace-decode phase durations (on-disk representation → program).
    pub decode_seconds: DurationHistogram,
    /// Simulation phase durations (cycle-level model, per cell).
    pub simulate_seconds: DurationHistogram,
    /// Result-write phase durations (JSONL append, per cell).
    pub write_seconds: DurationHistogram,
    /// Result-cache lookups served (`--result-cache`).
    pub result_cache_hits: Counter,
    /// Result-cache lookups that found nothing valid.
    pub result_cache_misses: Counter,
    /// Entries the result cache wrote (a read-only cache and a key already
    /// stored this process write none).
    pub result_cache_stores: Counter,
    /// Result-cache writes that failed with an I/O error (the cell is simply
    /// not shared).
    pub result_cache_store_errors: Counter,
    /// Result-cache phase durations (lookup or publish, per consulted cell).
    pub result_cache_seconds: DurationHistogram,
}

impl SweepMetrics {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Merges one worker thread's row into slot `worker`.
    pub(crate) fn record_worker(&self, worker: usize, row: &WorkerStats) {
        let mut workers = self.workers.lock().unwrap_or_else(|e| e.into_inner());
        if workers.len() <= worker {
            workers.resize(worker + 1, WorkerStats::default());
        }
        workers[worker].merge(row);
    }

    /// The per-worker rows. Every spawned worker records a row, so their
    /// number is the worker count of the largest plan execution.
    pub fn workers(&self) -> Vec<WorkerStats> {
        self.workers
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// The per-worker rows summed: the sweep's cell counts.
    pub fn totals(&self) -> WorkerStats {
        WorkerStats::sum(&self.workers())
    }

    /// The `--stats-json` object: the per-worker rows, every counter, the
    /// count and summed seconds of each phase, and (when a result cache was
    /// consulted) its traffic, one line, newline-terminated.
    pub fn to_json(&self, result_cache: Option<&ResultCache>) -> String {
        let workers = json::array(self.workers().iter().enumerate().map(|(i, w)| {
            json::object([
                ("worker", json::uint(i as u64)),
                ("cells_simulated", json::uint(w.cells_simulated)),
                ("cells_restored", json::uint(w.cells_restored)),
                ("cells_cached", json::uint(w.cells_cached)),
                ("cells_failed", json::uint(w.cells_failed)),
                ("resets", json::uint(w.resets)),
                ("rebuilds", json::uint(w.rebuilds)),
            ])
        }));
        let phases = json::object([
            ("trace_acquire", self.trace_acquire_seconds.to_json()),
            ("decode", self.decode_seconds.to_json()),
            ("simulate", self.simulate_seconds.to_json()),
            ("write", self.write_seconds.to_json()),
            ("result_cache", self.result_cache_seconds.to_json()),
        ]);
        let mut fields = vec![("workers", workers)];
        for (name, counter) in [
            ("traces_generated", &self.traces_generated),
            ("trace_cache_hits", &self.trace_cache_hits),
            ("cells_shared_decode", &self.cells_shared_decode),
            ("adaptive_extra_cells", &self.adaptive_extra_cells),
            ("trace_bytes_read", &self.trace_bytes_read),
            ("sim_cycles", &self.sim_cycles),
            ("fwd_buffer_lookups", &self.fwd_buffer_lookups),
            ("fwd_buffer_hits", &self.fwd_buffer_hits),
            ("store_set_squashes", &self.store_set_squashes),
        ] {
            fields.push((name, json::uint(counter.get())));
        }
        fields.push(("phases", phases));
        if let Some(rc) = result_cache {
            fields.push((
                "result_cache",
                json::object([
                    ("dir", json::string(&rc.root().display().to_string())),
                    ("mode", json::string(rc.mode().label())),
                    ("hits", json::uint(self.result_cache_hits.get())),
                    ("misses", json::uint(self.result_cache_misses.get())),
                    ("stores", json::uint(self.result_cache_stores.get())),
                    (
                        "store_errors",
                        json::uint(self.result_cache_store_errors.get()),
                    ),
                ]),
            ));
        }
        format!("{}\n", json::object(fields))
    }
}

/// How a cell finished, for progress accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellProgress {
    /// Simulated by this process (counts toward the cells/s rate).
    Simulated,
    /// Restored from an existing results file — effectively instant, so it is
    /// excluded from the rate and the ETA's remaining-work estimate.
    Restored,
    /// Served by the content-addressed result cache — a disk read, not a
    /// simulation, so excluded from the rate and ETA like restored cells.
    Cached,
    /// Simulation panicked.
    Failed,
}

/// Live `--progress` reporter: throttled stderr lines with cells done/total,
/// the simulated-cells/s rate, an ETA, and (for `--ci-target` runs) the
/// current worst per-workload relative CI.
///
/// The rate and ETA deliberately count only *simulated* cells: restored and
/// cache-served cells complete in microseconds, so folding them into the rate
/// would make a resumed or warm-cache run report a wildly optimistic ETA for
/// the cells that still need real simulation.
#[derive(Debug)]
pub struct Progress {
    start: Instant,
    total: AtomicUsize,
    simulated: AtomicUsize,
    restored: AtomicUsize,
    cached: AtomicUsize,
    failed: AtomicUsize,
    last_report: Mutex<Option<Instant>>,
    worst_ci: Mutex<Option<(String, f64)>>,
}

/// Minimum interval between progress lines.
const REPORT_EVERY: Duration = Duration::from_millis(500);

impl Progress {
    /// Creates a reporter; the rate clock starts now.
    pub fn new() -> Self {
        Progress {
            start: Instant::now(),
            total: AtomicUsize::new(0),
            simulated: AtomicUsize::new(0),
            restored: AtomicUsize::new(0),
            cached: AtomicUsize::new(0),
            failed: AtomicUsize::new(0),
            last_report: Mutex::new(None),
            worst_ci: Mutex::new(None),
        }
    }

    /// Adds `n` cells to the denominator. The code that plans a sweep calls
    /// it before the cells run: `run_cells` with its matrix, a render with
    /// every cell it can run (an adaptive render: every workload to
    /// `max_seeds`), so the ETA is an upper bound.
    pub fn add_planned(&self, n: usize) {
        self.total.fetch_add(n, Ordering::Relaxed);
    }

    /// Removes `n` planned cells that will not run after all (the seeds an
    /// adaptive render no longer owes a workload that met its CI target).
    pub fn drop_planned(&self, n: usize) {
        self.total.fetch_sub(n, Ordering::Relaxed);
    }

    /// Records one finished cell and maybe prints a throttled progress line.
    pub fn record(&self, outcome: CellProgress) {
        match outcome {
            CellProgress::Simulated => self.simulated.fetch_add(1, Ordering::Relaxed),
            CellProgress::Restored => self.restored.fetch_add(1, Ordering::Relaxed),
            CellProgress::Cached => self.cached.fetch_add(1, Ordering::Relaxed),
            CellProgress::Failed => self.failed.fetch_add(1, Ordering::Relaxed),
        };
        self.maybe_report();
    }

    /// Notes the workload with the worst relative IPC CI so far (adaptive runs).
    pub fn note_worst_ci(&self, workload: &str, ci_pct: f64) {
        let mut slot = self.worst_ci.lock().unwrap_or_else(|e| e.into_inner());
        *slot = Some((workload.to_string(), ci_pct));
    }

    fn counts(&self) -> (usize, usize, usize, usize, usize) {
        let simulated = self.simulated.load(Ordering::Relaxed);
        let restored = self.restored.load(Ordering::Relaxed);
        let cached = self.cached.load(Ordering::Relaxed);
        let failed = self.failed.load(Ordering::Relaxed);
        let total = self.total.load(Ordering::Relaxed);
        (total, simulated, restored, cached, failed)
    }

    /// The progress line as printed: cells done of planned, the outcome
    /// mix, the simulation rate and ETA, and the worst CI so far.
    pub fn line(&self) -> String {
        let (total, simulated, restored, cached, failed) = self.counts();
        let done = simulated + restored + cached + failed;
        let mut line = format!("[svwsim] progress: {done}/{total} cells");
        let mut parts = Vec::new();
        if restored > 0 {
            parts.push(format!("{restored} restored"));
        }
        if cached > 0 {
            parts.push(format!("{cached} cached"));
        }
        if failed > 0 {
            parts.push(format!("{failed} failed"));
        }
        if !parts.is_empty() {
            line.push_str(&format!(" ({simulated} simulated, {})", parts.join(", ")));
        }
        let elapsed = self.start.elapsed().as_secs_f64();
        if simulated > 0 && elapsed > 0.0 {
            let rate = simulated as f64 / elapsed;
            line.push_str(&format!(" | {rate:.1} cells/s"));
            // Restored/cached cells drain in microseconds; the cells
            // still owed real work are the not-yet-done ones, so the rate of
            // *simulated* cells is the honest divisor.
            let remaining = total.saturating_sub(done);
            if remaining > 0 {
                line.push_str(&format!(" | ETA {:.0}s", remaining as f64 / rate));
            }
        }
        let worst = self.worst_ci.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((workload, pct)) = worst.as_ref() {
            line.push_str(&format!(" | worst CI {workload} \u{b1}{pct:.2}%"));
        }
        line
    }

    fn maybe_report(&self) {
        // try_lock: a worker that loses the race just skips this report rather
        // than queueing on the console.
        let Ok(mut last) = self.last_report.try_lock() else {
            return;
        };
        let now = Instant::now();
        if let Some(prev) = *last {
            if now.duration_since(prev) < REPORT_EVERY {
                return;
            }
        }
        *last = Some(now);
        eprintln!("{}", self.line());
    }

    /// Prints the final progress line unconditionally.
    pub fn finish(&self) {
        eprintln!("{}", self.line());
    }
}

impl Default for Progress {
    fn default() -> Self {
        Self::new()
    }
}

/// The bundle of enabled instrumentation a sweep carries, threaded by
/// reference through [`crate::runner::RunOptions::obs`].
///
/// Each component is independently optional. `svwsim` always builds the
/// metrics (the result-cache summary line and the `--oracle` exit code read
/// them); `--events` and `--progress` add the other two.
#[derive(Debug, Default)]
pub struct SweepObserver {
    /// The `--events` journal writer.
    pub events: Option<EventSink>,
    /// The counter set behind `--stats`, `--stats-json`, the result-cache
    /// summary line and the `--oracle` failure count.
    pub metrics: Option<SweepMetrics>,
    /// The `--progress` stderr reporter.
    pub progress: Option<Progress>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_across_threads() {
        let counter = Counter::default();
        std::thread::scope(|scope| {
            for n in 1..=4 {
                let counter = &counter;
                scope.spawn(move || counter.add(n));
            }
        });
        counter.inc();
        assert_eq!(counter.get(), 11);
    }

    #[test]
    fn histogram_counts_and_sums() {
        let h = DurationHistogram::default();
        h.record(Duration::from_micros(5));
        h.record(Duration::from_millis(5));
        h.record(Duration::from_secs(200));
        assert_eq!(h.count(), 3);
        let sum = h.sum();
        assert!(sum > Duration::from_secs(200));
        assert!(sum < Duration::from_secs(201));
    }

    #[test]
    fn metrics_render_includes_registered_names() {
        let metrics = SweepMetrics::new();
        let row = WorkerStats {
            cells_simulated: 3,
            cells_failed: 1,
            ..WorkerStats::default()
        };
        metrics.record_worker(0, &row);
        metrics.record_worker(2, &row);
        metrics.trace_bytes_read.add(1024);
        metrics.simulate_seconds.record(Duration::from_millis(2));
        metrics.decode_seconds.record(Duration::from_micros(5));
        metrics.decode_seconds.record(Duration::from_micros(50));
        let text = metrics.to_json(None);
        assert_eq!(text.matches("\"cells_simulated\":3").count(), 2, "{text}");
        assert_eq!(
            text.matches("\"worker\":").count(),
            3,
            "a row per worker slot"
        );
        assert!(text.contains("\"trace_bytes_read\":1024"), "{text}");
        assert!(
            text.contains("\"simulate\":{\"count\":1,\"seconds\":0.002}"),
            "{text}"
        );
        assert!(
            text.contains("\"decode\":{\"count\":2,\"seconds\":0.000055}"),
            "{text}"
        );
        assert!(
            !text.contains("result_cache\":{\"dir"),
            "no cache, no cache block"
        );
        let totals = metrics.totals();
        assert_eq!((totals.cells_simulated, totals.cells_failed), (6, 2));
    }

    #[test]
    fn metrics_render_every_metric_once_in_a_fixed_order() {
        let phase = r#"{"count":0,"seconds":0}"#;
        let body = format!(
            r#"{{"workers":[],"traces_generated":0,"trace_cache_hits":0,"cells_shared_decode":0,"adaptive_extra_cells":0,"trace_bytes_read":0,"sim_cycles":0,"fwd_buffer_lookups":0,"fwd_buffer_hits":0,"store_set_squashes":0,"phases":{{"trace_acquire":{phase},"decode":{phase},"simulate":{phase},"write":{phase},"result_cache":{phase}}}"#
        );
        let metrics = SweepMetrics::new();
        assert_eq!(metrics.to_json(None), format!("{body}}}\n"));

        let dir = std::env::temp_dir().join(format!("svw-obs-json-{}", std::process::id()));
        let rc = ResultCache::open(&dir, crate::cache::CacheMode::ReadOnly).unwrap();
        metrics.result_cache_stores.add(270);
        metrics.result_cache_store_errors.inc();
        let cache = format!(
            r#""result_cache":{{"dir":{},"mode":"ro","hits":0,"misses":0,"stores":270,"store_errors":1}}"#,
            json::string(&dir.display().to_string())
        );
        assert_eq!(metrics.to_json(Some(&rc)), format!("{body},{cache}}}\n"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dropped_cells_shrink_the_planned_total_to_the_cells_run() {
        // An adaptive render plans every workload to max_seeds (here 12
        // cells), runs 6, and drops the 6 a converged workload no longer owes.
        let progress = Progress::new();
        progress.add_planned(12);
        for _ in 0..6 {
            progress.record(CellProgress::Simulated);
        }
        assert!(
            progress.line().contains("6/12 cells"),
            "{}",
            progress.line()
        );
        assert!(progress.line().contains("ETA"), "{}", progress.line());
        progress.drop_planned(6);
        let line = progress.line();
        assert!(line.starts_with("[svwsim] progress: 6/6 cells"), "{line}");
        assert!(!line.contains("ETA"), "nothing remains: {line}");
    }

    #[test]
    fn progress_line_reflects_mix_of_outcomes() {
        let progress = Progress::new();
        progress.add_planned(10);
        progress.record(CellProgress::Simulated);
        progress.record(CellProgress::Restored);
        progress.record(CellProgress::Cached);
        progress.note_worst_ci("gcc", 2.5);
        let line = progress.line();
        assert!(line.contains("3/10 cells"), "line: {line}");
        assert!(line.contains("1 simulated"), "line: {line}");
        assert!(line.contains("1 restored"), "line: {line}");
        assert!(line.contains("1 cached"), "line: {line}");
        assert!(line.contains("worst CI gcc"), "line: {line}");
        assert!(line.contains("ETA"), "line: {line}");
    }

    #[test]
    fn progress_rate_counts_only_simulated_cells() {
        let progress = Progress::new();
        progress.add_planned(100);
        for _ in 0..25 {
            progress.record(CellProgress::Restored);
            progress.record(CellProgress::Cached);
        }
        // No simulated cells yet: no rate, no ETA — a restore- or cache-only
        // prefix must not advertise an (infinite) rate as the simulation rate.
        let line = progress.line();
        assert!(!line.contains("cells/s"), "line: {line}");
        assert!(!line.contains("ETA"), "line: {line}");
    }
}

//! Sweep-engine observability: [`SweepMetrics`], the one counter set behind
//! `--stats`, `--stats-json`, `--metrics-out` and the `--oracle` exit code; the
//! live `--progress` reporter; and the [`SweepObserver`] handle that threads
//! both (plus the `--events` journal) through [`crate::runner::RunOptions`].
//!
//! Everything here is optional at run time: an uninstrumented sweep carries
//! `obs: None` and pays only the `Option` branch per cell. When enabled, a
//! cell costs a few relaxed atomic adds, and each worker takes the per-worker
//! lock once, when it exits.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::events::EventSink;

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

/// Upper bounds (in seconds) of the duration-histogram buckets: log-spaced
/// from 10 µs (a trace decode) to 100 s, with an implicit `+Inf` bucket above.
const DURATION_BUCKET_BOUNDS: [f64; 8] = [1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0];

/// A fixed-bucket histogram of durations. Recording never allocates: one
/// relaxed add into the matching bucket, one into the count, one into the sum.
#[derive(Debug, Default)]
pub struct DurationHistogram {
    // One slot per finite bound plus the +Inf bucket. Non-cumulative here;
    // rendering produces the cumulative form Prometheus expects.
    buckets: [AtomicU64; DURATION_BUCKET_BOUNDS.len() + 1],
    count: AtomicU64,
    sum_nanos: AtomicU64,
}

impl DurationHistogram {
    /// Records one duration observation.
    pub fn record(&self, d: Duration) {
        let secs = d.as_secs_f64();
        let idx = DURATION_BUCKET_BOUNDS
            .iter()
            .position(|&bound| secs <= bound)
            .unwrap_or(DURATION_BUCKET_BOUNDS.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
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

    /// The cumulative `_bucket`, `_sum` and `_count` sample lines.
    fn render(&self, name: &str, out: &mut String) {
        let mut cumulative = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket.load(Ordering::Relaxed);
            let le = DURATION_BUCKET_BOUNDS
                .get(i)
                .map_or_else(|| "+Inf".to_string(), f64::to_string);
            out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
        }
        out.push_str(&format!("{name}_sum {}\n", self.sum().as_secs_f64()));
        out.push_str(&format!("{name}_count {}\n", self.count()));
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

/// One metric of the `--metrics-out` snapshot: a single value with its
/// Prometheus kind (`counter` or `gauge`), or a histogram.
enum Sample<'a> {
    Value(&'static str, u64),
    Histogram(&'a DurationHistogram),
}

fn counter(n: u64) -> Sample<'static> {
    Sample::Value("counter", n)
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
    /// Cells published to the result cache.
    pub result_cache_stores: Counter,
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

    /// Renders the snapshot in Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        let workers = self.workers();
        let cells = WorkerStats::sum(&workers);
        let table = [
            (
                "svw_cells_simulated_total",
                "Cells simulated by this process",
                counter(cells.cells_simulated),
            ),
            (
                "svw_cells_restored_total",
                "Cells restored from an existing results file",
                counter(cells.cells_restored),
            ),
            (
                "svw_cells_cached_total",
                "Cells served by the content-addressed result cache",
                counter(cells.cells_cached),
            ),
            (
                "svw_cells_failed_total",
                "Cells whose simulation panicked",
                counter(cells.cells_failed),
            ),
            (
                "svw_traces_generated_total",
                "Traces generated from workload profiles",
                counter(self.traces_generated.get()),
            ),
            (
                "svw_trace_cache_hits_total",
                "Traces served by the on-disk trace cache",
                counter(self.trace_cache_hits.get()),
            ),
            (
                "svw_trace_bytes_read_total",
                "Bytes read from disk while acquiring traces",
                counter(self.trace_bytes_read.get()),
            ),
            (
                "svw_sim_cycles_total",
                "Simulated cycles across all cells",
                counter(self.sim_cycles.get()),
            ),
            (
                "svw_fwd_buffer_lookups_total",
                "Forwarding-buffer probes by re-executing loads",
                counter(self.fwd_buffer_lookups.get()),
            ),
            (
                "svw_fwd_buffer_hits_total",
                "Forwarding-buffer probes served from the buffer",
                counter(self.fwd_buffer_hits.get()),
            ),
            (
                "svw_store_set_squashes_total",
                "Loads held at rename by a store-set dependence prediction",
                counter(self.store_set_squashes.get()),
            ),
            (
                "svw_workers",
                "Worker threads used by the largest plan execution",
                Sample::Value("gauge", workers.len() as u64),
            ),
            (
                "svw_phase_trace_acquire_seconds",
                "Trace-acquisition phase durations",
                Sample::Histogram(&self.trace_acquire_seconds),
            ),
            (
                "svw_phase_decode_seconds",
                "Trace-decode phase durations",
                Sample::Histogram(&self.decode_seconds),
            ),
            (
                "svw_phase_simulate_seconds",
                "Cycle-level simulation phase durations",
                Sample::Histogram(&self.simulate_seconds),
            ),
            (
                "svw_phase_write_seconds",
                "Result-write (JSONL append) phase durations",
                Sample::Histogram(&self.write_seconds),
            ),
            (
                "svw_result_cache_hits_total",
                "Result-cache lookups served",
                counter(self.result_cache_hits.get()),
            ),
            (
                "svw_result_cache_misses_total",
                "Result-cache lookups that found nothing valid",
                counter(self.result_cache_misses.get()),
            ),
            (
                "svw_result_cache_stores_total",
                "Cells published to the result cache",
                counter(self.result_cache_stores.get()),
            ),
            (
                "svw_phase_result_cache_seconds",
                "Result-cache phase durations (lookup or publish)",
                Sample::Histogram(&self.result_cache_seconds),
            ),
        ];
        let mut out = String::new();
        for (name, help, sample) in table {
            out.push_str(&format!("# HELP {name} {help}\n"));
            match sample {
                Sample::Value(kind, n) => {
                    out.push_str(&format!("# TYPE {name} {kind}\n{name} {n}\n"));
                }
                Sample::Histogram(h) => {
                    out.push_str(&format!("# TYPE {name} histogram\n"));
                    h.render(name, &mut out);
                }
            }
        }
        out
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

    /// Adds `n` cells to the denominator (called once per plan execution, so
    /// adaptive rounds grow the total as they schedule more cells).
    pub fn add_planned(&self, n: usize) {
        self.total.fetch_add(n, Ordering::Relaxed);
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

    fn render_line(&self) -> String {
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
        eprintln!("{}", self.render_line());
    }

    /// Prints the final progress line unconditionally.
    pub fn finish(&self) {
        eprintln!("{}", self.render_line());
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
/// Each component is independently optional — `--events`, `--progress`, and
/// `--metrics-out` can be combined freely — and a run with all three disabled
/// never constructs this struct at all.
#[derive(Debug, Default)]
pub struct SweepObserver {
    /// The `--events` journal writer.
    pub events: Option<EventSink>,
    /// The counter set behind `--stats`, `--stats-json`, `--metrics-out` and
    /// the `--oracle` failure count.
    pub metrics: Option<SweepMetrics>,
    /// The `--progress` stderr reporter.
    pub progress: Option<Progress>,
}

impl SweepObserver {
    /// True when no instrumentation is enabled (callers then pass `obs: None`).
    pub fn is_empty(&self) -> bool {
        self.events.is_none() && self.metrics.is_none() && self.progress.is_none()
    }
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
    fn histogram_buckets_and_sum() {
        let h = DurationHistogram::default();
        h.record(Duration::from_micros(5)); // <= 10 µs bucket
        h.record(Duration::from_millis(5)); // <= 10 ms bucket
        h.record(Duration::from_secs(200)); // +Inf bucket
        assert_eq!(h.count(), 3);
        let counts: Vec<u64> = h
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        assert_eq!(counts, [1, 0, 0, 1, 0, 0, 0, 0, 1]);
        let sum = h.sum();
        assert!(sum > Duration::from_secs(200));
        assert!(sum < Duration::from_secs(201));
    }

    #[test]
    fn prometheus_histogram_is_cumulative() {
        let metrics = SweepMetrics::new();
        metrics.decode_seconds.record(Duration::from_micros(5));
        metrics.decode_seconds.record(Duration::from_micros(50));
        let text = metrics.render_prometheus();
        assert!(text.contains("svw_phase_decode_seconds_bucket{le=\"0.00001\"} 1"));
        assert!(text.contains("svw_phase_decode_seconds_bucket{le=\"0.0001\"} 2"));
        assert!(text.contains("svw_phase_decode_seconds_bucket{le=\"100\"} 2"));
        assert!(text.contains("svw_phase_decode_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("svw_phase_decode_seconds_count 2"));
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
        let text = metrics.render_prometheus();
        assert!(text.contains("# TYPE svw_cells_simulated_total counter"));
        assert!(text.contains("svw_cells_simulated_total 6"));
        assert!(text.contains("svw_cells_failed_total 2"));
        assert!(text.contains("svw_workers 3"), "a row per worker slot");
        assert!(text.contains("svw_trace_bytes_read_total 1024"));
        assert!(text.contains("svw_phase_simulate_seconds_count 1"));
        assert!(text.contains("# TYPE svw_phase_simulate_seconds histogram"));
        assert_eq!(metrics.totals().cells_simulated, 6);
    }

    #[test]
    fn metrics_render_every_metric_once_in_a_fixed_order() {
        let text = SweepMetrics::new().render_prometheus();
        let types: Vec<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .collect();
        assert_eq!(
            types,
            [
                "svw_cells_simulated_total counter",
                "svw_cells_restored_total counter",
                "svw_cells_cached_total counter",
                "svw_cells_failed_total counter",
                "svw_traces_generated_total counter",
                "svw_trace_cache_hits_total counter",
                "svw_trace_bytes_read_total counter",
                "svw_sim_cycles_total counter",
                "svw_fwd_buffer_lookups_total counter",
                "svw_fwd_buffer_hits_total counter",
                "svw_store_set_squashes_total counter",
                "svw_workers gauge",
                "svw_phase_trace_acquire_seconds histogram",
                "svw_phase_decode_seconds histogram",
                "svw_phase_simulate_seconds histogram",
                "svw_phase_write_seconds histogram",
                "svw_result_cache_hits_total counter",
                "svw_result_cache_misses_total counter",
                "svw_result_cache_stores_total counter",
                "svw_phase_result_cache_seconds histogram",
            ]
        );
    }

    #[test]
    fn progress_line_reflects_mix_of_outcomes() {
        let progress = Progress::new();
        progress.add_planned(10);
        progress.record(CellProgress::Simulated);
        progress.record(CellProgress::Restored);
        progress.record(CellProgress::Cached);
        progress.note_worst_ci("gcc", 2.5);
        let line = progress.render_line();
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
        let line = progress.render_line();
        assert!(!line.contains("cells/s"), "line: {line}");
        assert!(!line.contains("ETA"), "line: {line}");
    }
}

//! The cell-parallel experiment engine: a pure *executor* of sweep plans.
//!
//! The unit of work is one *cell* — a `(workload, configuration, seed)` triple — and
//! a sweep is a shared queue of cells drained by N worker threads (N = available
//! parallelism, overridable via [`RunOptions::jobs`]). What to run arrives as a
//! typed [`SweepPlan`] (see [`crate::planner`]): [`execute_plan`] restores, serves
//! from the result cache, or simulates every planned cell and collects the results
//! in plan order. [`run_cells`] is the canonical-full-matrix convenience wrapper (it
//! enumerates the plan and executes it) for one-matrix sweeps such as `svwsim
//! run`; every round of a render executes one plan covering all of its
//! matrices, so every sweep behaves identically per cell.
//!
//! The plan is the only place traces are shared: its cells are grouped into trace
//! slots by [`TraceKey`], each slot's trace is acquired once by the first cell that
//! needs it and freed after the slot's last cell, whichever matrix the cells
//! belong to. At `--jobs 1` at most one trace is held at a time.
//!
//! Robustness properties:
//!
//! * a panicking cell is caught and recorded as [`CellOutcome::Failed`]; the
//!   remaining cells keep running (one poisoned cell no longer aborts the sweep);
//! * trace-cache errors fall back to direct generation and are aggregated into a
//!   single warning per sweep instead of one stderr line per workload;
//! * with a [`JsonlSink`] attached, every finished cell is appended (and flushed) to
//!   a JSONL file immediately, and an interrupted sweep resumes by skipping the cells
//!   already present in that file.
//!
//! Scheduling is deterministic in its *results*: cells are simulated independently
//! and collected into a canonical (workload-major, configuration, seed) order, so the
//! output is byte-identical regardless of the number of jobs. Per-worker
//! [`WorkerStats`] rows (merged into [`crate::obs::SweepMetrics`]) make scheduler
//! imbalance visible.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use svw_cpu::{Cpu, CpuStats, MachineConfig, SimArena};
use svw_isa::Program;
use svw_oracle::{DifferentialChecker, OracleOptions};
use svw_trace::{CacheOutcome, FetchMeter, TraceCache};
use svw_workloads::{TraceKey, WorkloadProfile};

use crate::cache::ResultCache;
use crate::events::{kind as event_kind, EventSink};
use crate::json;
use crate::jsonl::{CellId, JsonlSink};
use crate::obs::{CellProgress, SweepObserver, WorkerStats};
use crate::planner::SweepPlan;

/// Default per-workload dynamic trace length used by the `svwsim` CLI. The paper
/// samples 10M-instruction intervals; this default keeps a full 16-workload,
/// 5-configuration figure under a couple of minutes on a laptop while remaining long
/// enough for predictors and caches to reach steady state. Override it with
/// `--trace-len`.
pub const DEFAULT_TRACE_LEN: usize = 60_000;

/// Default workload-generation seed.
pub const DEFAULT_SEED: u64 = 1;

/// How one cell's simulation ended.
#[derive(Clone, Debug)]
pub enum CellOutcome {
    /// The simulation ran to completion: here, in the run that wrote the resume
    /// file the cell was restored from, or in the run that stored it in the
    /// result cache ([`RunOptions::result_cache`]; the stored stats round-trip
    /// losslessly). The worker rows of [`crate::obs::SweepMetrics`] count the
    /// three sources apart.
    Ok(Box<CpuStats>),
    /// The simulation panicked, or (under [`RunOptions::oracle`]) the differential
    /// oracle found a divergence; the payload records the panic message or
    /// divergence report. The rest of the sweep is unaffected.
    Failed(String),
}

/// The result of simulating one workload under one machine configuration with one
/// workload-generation seed.
#[derive(Clone, Debug)]
pub struct ExperimentCell {
    /// Workload name.
    pub workload: String,
    /// Configuration name.
    pub config: String,
    /// Workload-generation seed.
    pub seed: u64,
    /// How the simulation ended.
    pub outcome: CellOutcome,
}

impl ExperimentCell {
    /// The run statistics, if the cell completed (simulated or cache-served).
    pub fn stats(&self) -> Option<&CpuStats> {
        match &self.outcome {
            CellOutcome::Ok(stats) => Some(stats.as_ref()),
            CellOutcome::Failed(_) => None,
        }
    }

    /// The failure message, if the cell panicked.
    pub fn error(&self) -> Option<&str> {
        match &self.outcome {
            CellOutcome::Ok(_) => None,
            CellOutcome::Failed(msg) => Some(msg),
        }
    }
}

/// How the sweep engine acquires traces, parallelizes, and streams results.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunOptions<'c> {
    /// Serve workloads through this trace cache (each `(profile, len, seed)` is
    /// generated at most once per machine). `None` regenerates on every call.
    pub cache: Option<&'c TraceCache>,
    /// Log trace acquisition (cache hits/misses) to stderr.
    pub verbose: bool,
    /// Worker threads draining the cell queue; `0` means all available parallelism.
    pub jobs: usize,
    /// Stream every finished cell to this JSONL sink, and skip cells the sink
    /// already holds (resume).
    pub sink: Option<&'c JsonlSink>,
    /// Observability instrumentation (`--events` journal, the
    /// [`crate::obs::SweepMetrics`] counter set, `--progress` reporter). Purely
    /// additive: instrumentation measures timing and emits to its own outputs,
    /// never touching results — every artifact is byte-identical with `obs`
    /// present or `None`.
    pub obs: Option<&'c SweepObserver>,
    /// Cross-check every simulated cell against the in-order golden model
    /// (`--oracle`): the pipeline runs under a [`DifferentialChecker`] and a
    /// divergence turns the cell into [`CellOutcome::Failed`] carrying the
    /// divergence report. The checker is a pure observer — simulated results are
    /// byte-identical with the oracle on or off (when no divergence exists).
    pub oracle: Option<OracleOptions>,
    /// Consult (and publish to) this content-addressed result cache
    /// (`--result-cache DIR`): cells the cache already holds are served from
    /// it — no trace acquisition, no decode, no
    /// simulation, and no trace slot for fully-cached trace groups — and every
    /// freshly simulated successful cell is published back. Served results
    /// are byte-identical to re-simulating (the `--no-result-cache` A/B flag
    /// and the determinism suite compare both paths).
    pub result_cache: Option<&'c ResultCache>,
}

/// Everything [`run_cells`] produced: the cells in canonical (workload-major,
/// configuration, seed) order plus the sweep-level bookkeeping.
#[derive(Debug)]
pub struct SweepResult {
    /// One cell per (workload, configuration, seed), workload-major.
    pub cells: Vec<ExperimentCell>,
    /// How many traces fell back to direct generation because the cache errored.
    pub cache_fallbacks: usize,
    /// Aggregated sweep-level warnings (cache fallbacks, stream write errors) — at
    /// most one entry per category, however many cells were affected.
    pub warnings: Vec<String>,
}

impl SweepResult {
    /// The cells that failed (panicked), if any.
    pub fn failures(&self) -> impl Iterator<Item = &ExperimentCell> {
        self.cells.iter().filter(|c| c.error().is_some())
    }

    /// Prints the aggregated warnings to stderr (one line each).
    pub fn emit_warnings(&self) {
        for w in &self.warnings {
            eprintln!("warning: {w}");
        }
    }
}

/// Resolves the worker-thread count: `jobs` if nonzero, else all available
/// parallelism, capped by the number of cells.
fn effective_jobs(jobs: usize, total_cells: usize) -> usize {
    let auto = std::thread::available_parallelism().map_or(1, |n| n.get());
    let n = if jobs == 0 { auto } else { jobs };
    n.clamp(1, total_cells.max(1))
}

/// Where one acquired trace came from and what acquiring it cost, for the
/// event journal and the metrics.
#[derive(Clone, Copy)]
struct AcquireMeter {
    /// `Hit` when read back from the trace cache; `Miss` when generated, with or
    /// without a cache open.
    outcome: CacheOutcome,
    /// Bytes read and decode time of a hit; zero when generated.
    fetch: FetchMeter,
    /// Total acquisition wall time, fallbacks included.
    acquire: Duration,
}

impl AcquireMeter {
    /// The `source` label of `trace_acquired` journal events.
    fn source(&self) -> &'static str {
        if self.outcome.is_hit() {
            "cache"
        } else {
            "generated"
        }
    }
}

/// One acquired workload trace plus any issue worth aggregating into a
/// sweep-level warning. The cache never changes results — a cache error
/// regenerates the identical trace.
struct Acquired {
    program: Program,
    meter: AcquireMeter,
    /// A cache read/write error (the trace was regenerated directly).
    cache_error: Option<String>,
}

/// Acquires one workload trace: from the cache when one is open, else the generator.
fn acquire_program(
    profile: &WorkloadProfile,
    trace_len: usize,
    seed: u64,
    opts: &RunOptions<'_>,
) -> Acquired {
    let acquire_start = Instant::now();
    let fetched = opts
        .cache
        .map(|cache| cache.get_or_generate_metered(profile, trace_len, seed));
    let generated = || profile.generate(trace_len, seed);
    let (program, outcome, fetch, cache_error) = match fetched {
        Some(Ok((program, outcome, fetch))) => {
            if opts.verbose {
                eprintln!(
                    "[svwsim] trace {}:{trace_len}:{seed} — cache {}",
                    profile.name,
                    if outcome.is_hit() {
                        "hit"
                    } else {
                        "miss (captured)"
                    }
                );
            }
            (program, outcome, fetch, None)
        }
        Some(Err(e)) => (
            generated(),
            CacheOutcome::Miss,
            FetchMeter::default(),
            Some(format!("{}:{trace_len}:{seed}: {e}", profile.name)),
        ),
        None => {
            if opts.verbose {
                eprintln!(
                    "[svwsim] trace {}:{trace_len}:{seed} — generated (cache disabled)",
                    profile.name
                );
            }
            (generated(), CacheOutcome::Miss, FetchMeter::default(), None)
        }
    };
    Acquired {
        program,
        meter: AcquireMeter {
            outcome,
            fetch,
            acquire: acquire_start.elapsed(),
        },
        cache_error,
    }
}

/// Runs the full `(workload × configuration × seed)` matrix as independent cells on
/// a work-stealing queue. `matrix` labels the sweep in the JSONL stream (use the
/// artifact name) so identically named configurations from different artifacts do
/// not collide on resume.
///
/// This is the canonical-plan wrapper over [`execute_plan`]: it enumerates the
/// matrix with [`SweepPlan::enumerate`] and executes it. The returned cells are in
/// canonical order — workload-major, then configuration, then seed, matching the
/// input orders — regardless of `opts.jobs`.
///
/// # Panics
///
/// Panics if `seeds` is empty. Panics *inside cells* are caught and recorded as
/// [`CellOutcome::Failed`] (their message also reaches stderr through the default
/// panic hook); the sweep itself always completes.
pub fn run_cells(
    matrix: &str,
    workloads: &[WorkloadProfile],
    configs: &[MachineConfig],
    trace_len: usize,
    seeds: &[u64],
    spec_fingerprint: u64,
    opts: &RunOptions<'_>,
) -> SweepResult {
    assert!(!seeds.is_empty(), "a sweep needs at least one seed");
    let plan = SweepPlan::enumerate(
        matrix,
        workloads,
        configs,
        trace_len,
        seeds,
        spec_fingerprint,
    );
    if let Some(progress) = opts.obs.and_then(|o| o.progress.as_ref()) {
        progress.add_planned(plan.cells.len());
    }
    execute_plan(&plan, opts)
}

/// Executes any [`SweepPlan`], returning one [`ExperimentCell`] per planned cell,
/// in plan order.
///
/// The executor makes no policy decisions of its own: which cells exist was
/// decided when the plan was built. It runs in four phases:
///
/// 1. `lookup_cached` — resolve result-cache hits up front;
/// 2. `TraceSlots::group` — group the remaining cells by [`TraceKey`], so
///    cells sharing a trace — from any matrix of the plan — are scheduled
///    back-to-back (first-appearance order) and sweep memory is bounded by the
///    traces in active use;
/// 3. `drain` — the workers take each cell through restore → cached →
///    simulate, and `publish` it as soon as it finishes (sink append, cache
///    store, events), so an interrupted sweep loses nothing it finished;
/// 4. `collect` — order the cells and aggregate the errors into warnings.
///
/// The `--progress` total is the planner's to set ([`run_cells`] and the
/// render add the cells they plan); the executor only records finished cells.
pub fn execute_plan(plan: &SweepPlan, opts: &RunOptions<'_>) -> SweepResult {
    execute_plan_in(plan, opts, &ArenaPool::default())
}

/// [`execute_plan`] with the workers' simulation arenas taken from, and handed
/// back to, `arenas`, so successive plans (the rounds of an adaptive render)
/// reuse the pipelines the previous plan's workers built.
pub(crate) fn execute_plan_in(
    plan: &SweepPlan,
    opts: &RunOptions<'_>,
    arenas: &ArenaPool,
) -> SweepResult {
    let cached = lookup_cached(plan, opts);
    let slots = TraceSlots::group(plan, &cached);
    let drained = drain(plan, &cached, &slots, opts, arenas);
    collect(plan, drained, opts)
}

/// Simulation arenas that outlive one plan execution. Each worker takes one
/// when it starts (a fresh, cold one if none is left) and puts it back when it
/// exits.
#[derive(Default)]
pub(crate) struct ArenaPool(Mutex<Vec<SimArena>>);

impl ArenaPool {
    fn take(&self) -> SimArena {
        self.0
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop()
            .unwrap_or_default()
    }

    fn put(&self, arena: SimArena) {
        self.0.lock().unwrap_or_else(|e| e.into_inner()).push(arena);
    }
}

/// Phase 1: the result-cache hit of every cell, resolved before the trace slots
/// are built so a hit never participates in trace grouping at all — a
/// fully-cached trace group creates no program slot, and its cells skip
/// acquisition, decode, and simulation entirely. A cell the resume sink
/// already holds is restored from the sink instead (never double-counted as
/// cached).
fn lookup_cached(plan: &SweepPlan, opts: &RunOptions<'_>) -> Vec<Option<CpuStats>> {
    let Some(rc) = opts.result_cache else {
        return vec![None; plan.cells.len()];
    };
    plan.cells
        .iter()
        .map(|cell| {
            if opts
                .sink
                .is_some_and(|sink| sink.lookup(&cell.id).is_some())
            {
                return None;
            }
            let lookup_start = Instant::now();
            let hit = rc.lookup(&cell.id);
            if let Some(metrics) = opts.obs.and_then(|o| o.metrics.as_ref()) {
                metrics.result_cache_seconds.record(lookup_start.elapsed());
                if hit.is_some() {
                    metrics.result_cache_hits.inc();
                } else {
                    metrics.result_cache_misses.inc();
                }
            }
            hit
        })
        .collect()
}

/// One trace shared by the cells that replay it. The program is generated
/// lazily by the first worker that needs it and dropped as soon as the last of
/// those cells finishes, so sweep memory is bounded by the traces in active
/// use, not by the whole plan.
struct ProgramSlot {
    program: Option<Arc<Program>>,
    remaining: usize,
}

/// Phase 2: the plan's cells that need a trace, grouped by trace key, and the
/// order the workers drain every cell in.
struct TraceSlots {
    /// Cell indices in drain order: cache-served cells first (they are
    /// instant), then each slot's cells in first-appearance order.
    tasks: Vec<usize>,
    /// The slot of each cell; `None` for a cache-served cell.
    slot_of: Vec<Option<usize>>,
    programs: Vec<Mutex<ProgramSlot>>,
}

impl TraceSlots {
    /// Groups the cells `cached` does not serve by [`TraceKey`].
    fn group(plan: &SweepPlan, cached: &[Option<CpuStats>]) -> TraceSlots {
        let mut index: HashMap<TraceKey, usize> = HashMap::new();
        let mut slot_cells: Vec<Vec<usize>> = Vec::new();
        let mut slot_of: Vec<Option<usize>> = Vec::with_capacity(plan.cells.len());
        for (k, cell) in plan.cells.iter().enumerate() {
            if cached[k].is_some() {
                slot_of.push(None);
                continue;
            }
            let slot = *index.entry(cell.trace_key()).or_insert_with(|| {
                slot_cells.push(Vec::new());
                slot_cells.len() - 1
            });
            slot_cells[slot].push(k);
            slot_of.push(Some(slot));
        }
        let mut tasks: Vec<usize> = (0..plan.cells.len())
            .filter(|&k| cached[k].is_some())
            .collect();
        tasks.extend(slot_cells.iter().flatten().copied());
        let programs = slot_cells
            .iter()
            .map(|cells| {
                Mutex::new(ProgramSlot {
                    program: None,
                    remaining: cells.len(),
                })
            })
            .collect();
        TraceSlots {
            tasks,
            slot_of,
            programs,
        }
    }

    /// The slot's shared program, filled by `acquire` for the first cell that
    /// needs it. The slot's lock is held only while the slot is filled, never
    /// during a simulation.
    fn program(&self, slot: usize, acquire: impl FnOnce() -> Arc<Program>) -> Arc<Program> {
        let mut guard = self.programs[slot]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        Arc::clone(guard.program.get_or_insert_with(acquire))
    }

    /// Whether simulated, restored, or failed, cell `k`'s trace has one fewer
    /// cell outstanding; frees the trace after the last one. Cache-served
    /// cells have no slot: they never joined a trace group in the first place.
    fn finish(&self, k: usize) {
        let Some(slot) = self.slot_of[k] else {
            return;
        };
        let mut guard = self.programs[slot]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        guard.remaining -= 1;
        if guard.remaining == 0 {
            guard.program = None;
        }
    }
}

/// What the workers of one plan execution share besides the plan: the errors
/// that become sweep-level warnings.
#[derive(Default)]
struct Tally {
    trace_cache_errors: Mutex<Vec<String>>,
    stream_errors: Mutex<Vec<String>>,
    store_errors: Mutex<Vec<String>>,
}

/// Appends one error to a [`Tally`] list.
fn push_error(list: &Mutex<Vec<String>>, error: String) {
    list.lock().unwrap_or_else(|e| e.into_inner()).push(error);
}

/// What phase 3 hands to [`collect`]: every cell with its plan index, in
/// completion order, and the shared tally.
struct Drained {
    cells: Vec<(usize, ExperimentCell)>,
    tally: Tally,
}

/// Phase 3: N workers drain the task queue; each takes one simulation arena
/// from `arenas` and reuses it across every cell it simulates, so cell startup
/// clears the previous cell's pipeline in place instead of rebuilding it. Each
/// worker counts its
/// cells in its own [`WorkerStats`] row — the only count of cell outcomes —
/// which is merged into the metrics when the worker exits.
fn drain(
    plan: &SweepPlan,
    cached: &[Option<CpuStats>],
    slots: &TraceSlots,
    opts: &RunOptions<'_>,
    arenas: &ArenaPool,
) -> Drained {
    let total = plan.cells.len();
    let jobs = effective_jobs(opts.jobs, total);
    if let Some(events) = opts.obs.and_then(|o| o.events.as_ref()) {
        events.emit(
            event_kind::SWEEP_STARTED,
            [
                ("matrix", json::string(&plan.matrix)),
                ("cells", json::uint(total as u64)),
                ("jobs", json::uint(jobs as u64)),
            ],
        );
    }
    let tally = Tally::default();
    let next_task = AtomicUsize::new(0);
    let rows: Vec<(Vec<(usize, ExperimentCell)>, WorkerStats)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|worker| {
                let (tally, next_task) = (&tally, &next_task);
                scope.spawn(move || {
                    let mut arena = arenas.take();
                    let mut wstats = WorkerStats::default();
                    let mut done = Vec::new();
                    while let Some(&k) = slots.tasks.get(next_task.fetch_add(1, Ordering::Relaxed))
                    {
                        let id = &plan.cells[k].id;
                        if let Some(events) = opts.obs.and_then(|o| o.events.as_ref()) {
                            events.emit_cell(event_kind::PLANNED, id, worker, []);
                        }
                        let resolution = match opts.sink.and_then(|sink| sink.lookup(id)) {
                            Some(stats) => {
                                wstats.cells_restored += 1;
                                Resolution::Restored(stats)
                            }
                            None => match &cached[k] {
                                Some(stats) => {
                                    wstats.cells_cached += 1;
                                    Resolution::Cached(stats.clone())
                                }
                                None => Resolution::Simulated(simulate(
                                    plan,
                                    k,
                                    slots,
                                    &mut arena,
                                    &mut wstats,
                                    tally,
                                    opts,
                                )),
                            },
                        };
                        let outcome = publish(id, resolution, worker, tally, opts);
                        slots.finish(k);
                        done.push((
                            k,
                            ExperimentCell {
                                workload: id.workload.clone(),
                                config: id.config.clone(),
                                seed: id.seed,
                                outcome,
                            },
                        ));
                    }
                    arenas.put(arena);
                    (done, wstats)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a sweep worker panicked outside a cell"))
            .collect()
    });
    let mut drained = Drained {
        cells: Vec::with_capacity(total),
        tally,
    };
    for (worker, (done, row)) in rows.into_iter().enumerate() {
        if let Some(metrics) = opts.obs.and_then(|o| o.metrics.as_ref()) {
            metrics.record_worker(worker, &row);
        }
        drained.cells.extend(done);
    }
    drained
}

/// How a worker resolved one cell, before it is published.
enum Resolution {
    /// Found in the resume sink.
    Restored(CpuStats),
    /// Served by the result cache in phase 1.
    Cached(CpuStats),
    /// Simulated by this worker.
    Simulated(Simulation),
}

/// One cell simulated by a worker.
struct Simulation {
    result: Result<CpuStats, String>,
    /// Simulation wall time; `None` when the cell failed.
    duration: Option<Duration>,
    /// How the cell failed, for a journal reader: "oracle" (golden-model
    /// divergence) or "panic"; empty on success.
    phase: &'static str,
    /// Set only for the cell whose worker acquired the shared trace (the
    /// slot's other cells reuse it for free).
    meter: Option<AcquireMeter>,
}

/// Acquires (or shares) cell `k`'s trace and simulates the cell on the worker's
/// `arena`. A panic anywhere in acquisition or simulation fails only this cell.
fn simulate(
    plan: &SweepPlan,
    k: usize,
    slots: &TraceSlots,
    arena: &mut SimArena,
    wstats: &mut WorkerStats,
    tally: &Tally,
    opts: &RunOptions<'_>,
) -> Simulation {
    let planned = &plan.cells[k];
    let slot = slots.slot_of[k].expect("non-cached cells have a trace slot");
    if !arena.is_warm() {
        wstats.rebuilds += 1;
    } else {
        wstats.resets += 1;
    }
    let mut meter: Option<AcquireMeter> = None;
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let program = slots.program(slot, || {
            let acquired = acquire_program(
                &plan.workloads[planned.workload],
                plan.trace_len,
                planned.id.seed,
                opts,
            );
            if let Some(err) = acquired.cache_error {
                push_error(&tally.trace_cache_errors, err);
            }
            meter = Some(acquired.meter);
            Arc::new(acquired.program)
        });
        let config = &plan.configs[planned.config];
        let sim_start = Instant::now();
        if let Some(oracle_opts) = opts.oracle {
            // Differential mode: the golden-model checker observes every
            // commit; a recorded divergence fails the cell without panicking
            // (so it stays distinguishable from a simulator panic).
            let mut checker = DifferentialChecker::new(program.instructions(), oracle_opts);
            let stats = Cpu::recycle(arena, config, &program).run_observed(&mut checker);
            match checker.divergence() {
                Some(d) => Err(format!("oracle divergence: {d}")),
                None => Ok((stats, sim_start.elapsed())),
            }
        } else {
            let stats = Cpu::recycle(arena, config, &program).run();
            Ok((stats, sim_start.elapsed()))
        }
    }));
    if run.is_err() {
        // A panicking cell may leave the arena's pipeline in an inconsistent
        // mid-cycle state: discard it so the next cell rebuilds from scratch.
        *arena = SimArena::new();
    }
    let (result, duration, phase) = match run {
        Ok(Ok((stats, dur))) => (Ok(stats), Some(dur), ""),
        Ok(Err(divergence)) => (Err(divergence), None, "oracle"),
        Err(payload) => (
            Err(payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("simulation panicked")
                .to_string()),
            None,
            "panic",
        ),
    };
    if result.is_ok() {
        wstats.cells_simulated += 1;
    } else {
        wstats.cells_failed += 1;
    }
    Simulation {
        result,
        duration,
        phase,
        meter,
    }
}

/// Phase 4, per cell: publishes one finished cell the moment its worker
/// resolves it — the `--out` sink append, the result-cache store, the journal
/// events, the metrics and the progress line — and returns its outcome.
/// Errors go to the tally; publishing never aborts the sweep.
fn publish(
    id: &CellId,
    resolution: Resolution,
    worker: usize,
    tally: &Tally,
    opts: &RunOptions<'_>,
) -> CellOutcome {
    let obs = opts.obs;
    let events = obs.and_then(|o| o.events.as_ref());
    let metrics = obs.and_then(|o| o.metrics.as_ref());
    let progress = obs.and_then(|o| o.progress.as_ref());
    let sim = match resolution {
        Resolution::Restored(stats) => {
            if let Some(events) = events {
                events.emit_cell(event_kind::RESTORED, id, worker, []);
            }
            if let Some(progress) = progress {
                progress.record(CellProgress::Restored);
            }
            return CellOutcome::Ok(Box::new(stats));
        }
        // The cell is still appended to the sink: it was not restored from
        // there, and the stream must hold every finished cell.
        Resolution::Cached(stats) => {
            if let Some(sink) = opts.sink {
                if let Err(e) = sink.append(id, &Ok(stats.clone())) {
                    push_error(&tally.stream_errors, e.to_string());
                }
            }
            if let Some(events) = events {
                events.emit_cell(event_kind::CACHED, id, worker, []);
            }
            if let Some(progress) = progress {
                progress.record(CellProgress::Cached);
            }
            return CellOutcome::Ok(Box::new(stats));
        }
        Resolution::Simulated(sim) => sim,
    };
    // Publish the freshly simulated cell back to the result cache (successes
    // only — failed cells re-run, exactly like on resume). A store counts
    // only when it wrote an entry.
    if let (Some(rc), Ok(stats)) = (opts.result_cache, &sim.result) {
        let store_start = Instant::now();
        let stored = rc.store(id, stats);
        if let Some(metrics) = metrics {
            metrics.result_cache_seconds.record(store_start.elapsed());
            match stored {
                Ok(true) => metrics.result_cache_stores.inc(),
                Ok(false) => {}
                Err(_) => metrics.result_cache_store_errors.inc(),
            }
        }
        if let Err(e) = stored {
            push_error(&tally.store_errors, e.to_string());
        }
    }
    if let Some(events) = events {
        emit_simulated(events, id, worker, &sim);
    }
    let mut write_dur = None;
    if let Some(sink) = opts.sink {
        let write_start = Instant::now();
        if let Err(e) = sink.append(id, &sim.result) {
            push_error(&tally.stream_errors, e.to_string());
        }
        let dur = write_start.elapsed();
        write_dur = Some(dur);
        if let Some(events) = events {
            events.emit_cell(
                event_kind::WRITTEN,
                id,
                worker,
                [("dur_us", json::number(dur.as_secs_f64() * 1e6))],
            );
        }
    }
    if let Some(metrics) = metrics {
        match &sim.meter {
            Some(meter) => {
                if meter.outcome.is_hit() {
                    metrics.trace_cache_hits.inc();
                } else {
                    metrics.traces_generated.inc();
                }
                metrics.trace_bytes_read.add(meter.fetch.bytes_read);
                metrics.trace_acquire_seconds.record(meter.acquire);
                metrics.decode_seconds.record(meter.fetch.decode);
            }
            // A cell that did not acquire the trace itself shared the one its
            // slot already holds.
            None => metrics.cells_shared_decode.inc(),
        }
        if let Ok(stats) = &sim.result {
            metrics.sim_cycles.add(stats.cycles);
            metrics.fwd_buffer_lookups.add(stats.fwd_buffer_lookups);
            metrics.fwd_buffer_hits.add(stats.fwd_buffer_hits);
            metrics.store_set_squashes.add(stats.store_set_squashes);
        }
        if let Some(dur) = sim.duration {
            metrics.simulate_seconds.record(dur);
        }
        if let Some(dur) = write_dur {
            metrics.write_seconds.record(dur);
        }
    }
    if let Some(progress) = progress {
        progress.record(if sim.result.is_ok() {
            CellProgress::Simulated
        } else {
            CellProgress::Failed
        });
    }
    match sim.result {
        Ok(stats) => CellOutcome::Ok(Box::new(stats)),
        Err(msg) => CellOutcome::Failed(msg),
    }
}

/// The journal events of one simulated cell: `trace_acquired` and `decoded`
/// when this cell acquired the trace, then `simulated` or `failed`.
fn emit_simulated(events: &EventSink, id: &CellId, worker: usize, sim: &Simulation) {
    if let Some(meter) = &sim.meter {
        events.emit_cell(
            event_kind::TRACE_ACQUIRED,
            id,
            worker,
            [
                ("source", json::string(meter.source())),
                ("bytes", json::uint(meter.fetch.bytes_read)),
                ("dur_us", json::number(meter.acquire.as_secs_f64() * 1e6)),
            ],
        );
        events.emit_cell(
            event_kind::DECODED,
            id,
            worker,
            [(
                "dur_us",
                json::number(meter.fetch.decode.as_secs_f64() * 1e6),
            )],
        );
    }
    match (&sim.result, sim.duration) {
        (Ok(stats), Some(dur)) => events.emit_cell(
            event_kind::SIMULATED,
            id,
            worker,
            [
                ("cycles", json::uint(stats.cycles)),
                ("dur_us", json::number(dur.as_secs_f64() * 1e6)),
            ],
        ),
        _ => events.emit_cell(
            event_kind::FAILED,
            id,
            worker,
            [
                (
                    "error",
                    json::string(sim.result.as_ref().err().map_or("", String::as_str)),
                ),
                ("phase", json::string(sim.phase)),
            ],
        ),
    }
}

/// Phase 4, per sweep: closes the journal's sweep bracket, puts the cells back
/// in plan order, and aggregates each error list into at most one warning.
fn collect(plan: &SweepPlan, drained: Drained, opts: &RunOptions<'_>) -> SweepResult {
    let total = plan.cells.len();
    if let Some(events) = opts.obs.and_then(|o| o.events.as_ref()) {
        events.emit(
            event_kind::SWEEP_FINISHED,
            [
                ("matrix", json::string(&plan.matrix)),
                ("cells", json::uint(total as u64)),
            ],
        );
    }
    let Drained { mut cells, tally } = drained;
    cells.sort_unstable_by_key(|&(k, _)| k);
    assert_eq!(cells.len(), total, "every planned cell produced a result");
    let cells: Vec<ExperimentCell> = cells.into_iter().map(|(_, cell)| cell).collect();

    // Workers push errors in completion order; sort so the aggregated warning (which
    // flows into report notes) is deterministic regardless of `jobs`.
    let sorted = |list: Mutex<Vec<String>>| {
        let mut list = list.into_inner().unwrap_or_else(|e| e.into_inner());
        list.sort_unstable();
        list
    };
    let cache_errors = sorted(tally.trace_cache_errors);
    let stream_errors = sorted(tally.stream_errors);
    let store_errors = sorted(tally.store_errors);
    let mut warnings = Vec::new();
    if let Some(first) = cache_errors.first() {
        warnings.push(format!(
            "trace cache errored for {} trace(s); regenerated directly (first: {first})",
            cache_errors.len()
        ));
    }
    if let Some(first) = stream_errors.first() {
        warnings.push(format!(
            "failed to append {} result line(s) to the JSONL stream (first: {first})",
            stream_errors.len()
        ));
    }
    if let Some(first) = store_errors.first() {
        warnings.push(format!(
            "result cache could not store {} cell(s); they were simulated but not shared \
             (first: {first})",
            store_errors.len()
        ));
    }
    SweepResult {
        cells,
        cache_fallbacks: cache_errors.len(),
        warnings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svw_cpu::{LsqOrganization, ReexecMode};

    fn two_configs() -> Vec<MachineConfig> {
        vec![
            MachineConfig::eight_wide(
                "a",
                LsqOrganization::Conventional {
                    extra_load_latency: 0,
                    store_exec_bandwidth: 1,
                },
                ReexecMode::None,
            ),
            MachineConfig::eight_wide(
                "b",
                LsqOrganization::Nlq {
                    store_exec_bandwidth: 2,
                },
                ReexecMode::Full,
            ),
        ]
    }

    #[test]
    fn matrix_runs_all_pairs_in_order() {
        let workloads = vec![
            WorkloadProfile::quicktest(),
            WorkloadProfile::by_name("gzip").unwrap(),
        ];
        let cells = run_cells(
            "test",
            &workloads,
            &two_configs(),
            3_000,
            &[7],
            0,
            &RunOptions::default(),
        )
        .cells;
        assert_eq!(cells.len(), 4);
        assert_eq!(cells[0].workload, "quicktest");
        assert_eq!(cells[0].config, "a");
        assert_eq!(cells[1].config, "b");
        assert_eq!(cells[2].workload, "gzip");
        for c in &cells {
            assert_eq!(c.seed, 7);
            assert!(c.stats().expect("cell completed").committed >= 3_000);
        }
    }

    #[test]
    fn multi_seed_cells_are_seed_minor_and_all_complete() {
        let workloads = vec![WorkloadProfile::quicktest()];
        let configs = two_configs();
        let result = run_cells(
            "test",
            &workloads,
            &configs,
            2_000,
            &[3, 4],
            0,
            &RunOptions::default(),
        );
        assert_eq!(result.cells.len(), 4);
        let order: Vec<(String, u64)> = result
            .cells
            .iter()
            .map(|c| (c.config.clone(), c.seed))
            .collect();
        assert_eq!(
            order,
            vec![
                ("a".into(), 3),
                ("a".into(), 4),
                ("b".into(), 3),
                ("b".into(), 4)
            ]
        );
        assert_eq!(result.failures().count(), 0);
        // Different seeds generate different traces, so the runs differ.
        let s3 = result.cells[0].stats().unwrap();
        let s4 = result.cells[1].stats().unwrap();
        assert_ne!(format!("{s3:?}"), format!("{s4:?}"));
    }

    #[test]
    fn cached_matrix_matches_uncached() {
        let dir = std::env::temp_dir().join(format!("svw-runner-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = TraceCache::new(&dir).unwrap();
        let workloads = vec![WorkloadProfile::quicktest()];
        let configs = vec![MachineConfig::eight_wide(
            "nlq",
            LsqOrganization::Nlq {
                store_exec_bandwidth: 2,
            },
            ReexecMode::Full,
        )];
        let opts = RunOptions {
            cache: Some(&cache),
            ..RunOptions::default()
        };
        let run = |opts: &RunOptions<'_>| {
            let result = run_cells("test", &workloads, &configs, 2_000, &[9], 0, opts);
            assert!(result.warnings.is_empty(), "{:?}", result.warnings);
            result.cells
        };
        let cold = run(&opts);
        let warm = run(&opts);
        let direct = run(&RunOptions::default());
        assert_eq!(
            format!("{:?}", cold[0].stats().unwrap()),
            format!("{:?}", warm[0].stats().unwrap())
        );
        assert_eq!(
            format!("{:?}", cold[0].stats().unwrap()),
            format!("{:?}", direct[0].stats().unwrap())
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Satellite regression: a trace-cache error must neither kill the sweep nor
    /// produce one warning per workload — the cells still complete (regenerated
    /// directly) and the sweep reports a single aggregated warning.
    #[test]
    fn cache_errors_fall_back_and_aggregate_into_one_warning() {
        let dir =
            std::env::temp_dir().join(format!("svw-runner-unwritable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = TraceCache::new(&dir).unwrap();
        // Make every capture fail: the cache directory vanishes after open.
        std::fs::remove_dir_all(&dir).unwrap();
        let workloads = vec![
            WorkloadProfile::quicktest(),
            WorkloadProfile::by_name("gzip").unwrap(),
        ];
        let opts = RunOptions {
            cache: Some(&cache),
            ..RunOptions::default()
        };
        let result = run_cells("test", &workloads, &two_configs(), 2_000, &[1], 0, &opts);
        assert_eq!(
            result.failures().count(),
            0,
            "cells fell back and completed"
        );
        assert_eq!(result.cache_fallbacks, 2, "one fallback per workload trace");
        assert_eq!(
            result.warnings.len(),
            1,
            "a single aggregated warning, not one line per workload: {:?}",
            result.warnings
        );
        assert!(result.warnings[0].contains("2 trace(s)"));
    }

    #[test]
    fn warm_result_cache_serves_every_cell_without_simulating() {
        let dir =
            std::env::temp_dir().join(format!("svw-runner-result-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let rc = crate::cache::ResultCache::open(&dir, crate::cache::CacheMode::ReadWrite).unwrap();
        let workloads = vec![WorkloadProfile::quicktest()];
        let configs = two_configs();
        let observers: [SweepObserver; 2] = std::array::from_fn(|_| SweepObserver {
            metrics: Some(crate::obs::SweepMetrics::new()),
            ..SweepObserver::default()
        });
        let run = |observer| {
            let opts = RunOptions {
                result_cache: Some(&rc),
                obs: Some(observer),
                ..RunOptions::default()
            };
            run_cells("test", &workloads, &configs, 2_000, &[1, 2], 0, &opts)
        };
        let cold = run(&observers[0]);
        let cold_metrics = observers[0].metrics.as_ref().unwrap();
        assert_eq!(cold_metrics.totals().cells_cached, 0);
        assert_eq!(cold_metrics.result_cache_stores.get(), 4);
        assert_eq!(cold_metrics.result_cache_misses.get(), 4);
        let warm = run(&observers[1]);
        assert!(warm.cells.iter().all(|c| c.stats().is_some()));
        let warm_metrics = observers[1].metrics.as_ref().unwrap();
        let totals = warm_metrics.totals();
        assert_eq!(
            (totals.cells_simulated, totals.cells_cached),
            (0, 4),
            "every cell is served from the cache"
        );
        assert_eq!(warm_metrics.result_cache_hits.get(), 4);
        assert_eq!(warm_metrics.result_cache_stores.get(), 0);
        // Byte-identical stats: the cache round-trip is lossless.
        for (c, w) in cold.cells.iter().zip(&warm.cells) {
            assert_eq!(
                format!("{:?}", c.stats().unwrap()),
                format!("{:?}", w.stats().unwrap())
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! Set-up helper and traced replay for the repository benchmark.
//!
//! `perfbench/run.py` drives the end-to-end passes through the `svwsim` CLI.
//! This program does the two things the CLI cannot:
//!
//! * `setup` fills the benchmark's own trace cache (and, for a warm workload,
//!   its result cache) and times that set-up in-process;
//! * `replay` runs the same cells as one CLI pass through each crate's public
//!   functions, with a span around every call, alternating untraced and traced
//!   passes so the tracing overhead can be reported.
//!
//! Every span is recorded as *self* time: where a layer reports a nested part
//! of its own work through its meters (decode inside trace acquisition, result
//! cache lookups inside a render), that part is moved from the parent to the
//! child, so the self times of a pass add up to no more than its wall time.
//!
//! Both commands print one JSON object on stdout; errors go to stderr with a
//! non-zero exit.
//!
//! ```text
//! svw-perfbench setup  --sources SRC --trace-len N --seed S --trace-cache DIR
//!                      [--result-cache DIR]
//! svw-perfbench replay --sources SRC --trace-len N --seed S --trace-cache DIR
//!                      --result-cache DIR [--cold] [--oracle] --seconds T
//! ```
//!
//! `SRC` is a comma-separated list of builtin artifact names, or one path to a
//! spec file ending in `.toml`.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use svw_cpu::{Cpu, CpuStats, SimArena};
use svw_isa::Program;
use svw_oracle::{DifferentialChecker, OracleOptions};
use svw_sim::cache::{CacheMode, ResultCache};
use svw_sim::registry::{self, ResolvedSpec};
use svw_sim::{
    artifact_plans, json, render_resolved, ExperimentCtx, RunOptions, SweepMetrics, SweepObserver,
    SweepPlan,
};
use svw_trace::TraceCache;

/// A counter's name in the `svwsim --out` JSONL stream and how to read it.
type Counter = (&'static str, fn(&CpuStats) -> u64);

/// The exact per-cell counters the benchmark sums, under the field names the
/// `svwsim --out` JSONL stream uses, so the two can be compared key by key.
const COUNTERS: &[Counter] = &[
    ("cycles", |s| s.cycles),
    ("committed", |s| s.committed),
    ("commit_stalled_on_reexec", |s| s.commit_stalled_on_reexec),
    ("reexec_port_conflicts", |s| s.reexec_port_conflicts),
    ("reexec_flushes", |s| s.reexec_flushes),
    ("ordering_flushes", |s| s.ordering_flushes),
    ("svw_marked_loads", |s| s.svw.marked_loads),
    ("svw_filtered_loads", |s| s.svw.filtered_loads),
    ("svw_reexecuted_loads", |s| s.svw.reexecuted_loads),
    ("svw_ssbf_store_updates", |s| s.svw.ssbf_store_updates),
    ("svw_ssbf_invalidation_updates", |s| {
        s.svw.ssbf_invalidation_updates
    }),
    ("fwd_buffer_lookups", |s| s.fwd_buffer_lookups),
    ("fwd_buffer_hits", |s| s.fwd_buffer_hits),
    ("l1d_read_misses", |s| s.hierarchy.l1d.read_misses),
    ("l1d_write_misses", |s| s.hierarchy.l1d.write_misses),
    ("l2_read_misses", |s| s.hierarchy.l2.read_misses),
    ("l2_write_misses", |s| s.hierarchy.l2.write_misses),
    ("mem_accesses", |s| s.hierarchy.memory_accesses),
    ("branch_mispredictions", |s| s.branch_mispredictions),
    ("store_set_squashes", |s| s.store_set_squashes),
];

/// Per-layer self times of one pass, in seconds. With `on == false` no clock
/// is read at all, which is what the untraced replay measures.
struct Spans {
    on: bool,
    self_s: BTreeMap<&'static str, f64>,
}

impl Spans {
    fn new(on: bool) -> Self {
        Spans {
            on,
            self_s: BTreeMap::new(),
        }
    }

    /// Runs `f` inside a span named `layer`.
    fn span<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let value = f();
        self.add(layer, start.elapsed().as_secs_f64());
        value
    }

    fn add(&mut self, layer: &'static str, secs: f64) {
        if self.on {
            *self.self_s.entry(layer).or_default() += secs;
        }
    }

    /// Moves `secs` of `parent`'s self time to its nested `child`, whose
    /// duration the program measured itself.
    fn nest(&mut self, parent: &'static str, child: &'static str, secs: f64) {
        self.add(parent, -secs);
        self.add(child, secs);
    }
}

/// What one pass produced besides its timings.
#[derive(Default)]
struct PassOut {
    /// `(source, text render, JSON render)`, exactly as `svwsim` prints them.
    renders: Vec<(String, String, String)>,
    counts: BTreeMap<&'static str, u64>,
    cells: u64,
    divergences: u64,
    /// Cells the render step could not serve from the result cache.
    render_misses: u64,
    /// Result-cache hits where a cold pass must see none.
    unexpected_hits: u64,
    /// Cells whose oracle-observed statistics differ from a plain run's.
    stats_mismatches: u64,
    trace_hits: u64,
    trace_misses: u64,
    trace_bytes: u64,
    /// Seconds spent on plain calibration runs, which are not part of the pass.
    excluded_s: f64,
}

impl PassOut {
    fn count(&mut self, stats: &CpuStats) {
        for (name, get) in COUNTERS {
            *self.counts.entry(name).or_default() += get(stats);
        }
    }
}

/// Where a workload's cells come from.
enum Source {
    Builtin(String),
    File(PathBuf),
}

impl Source {
    fn parse_list(arg: &str) -> Vec<Source> {
        if arg.ends_with(".toml") {
            vec![Source::File(PathBuf::from(arg))]
        } else {
            arg.split(',')
                .filter(|s| !s.is_empty())
                .map(|s| Source::Builtin(s.to_string()))
                .collect()
        }
    }

    fn label(&self) -> String {
        match self {
            Source::Builtin(name) => name.clone(),
            Source::File(path) => path.file_stem().map_or_else(
                || path.display().to_string(),
                |s| s.to_string_lossy().into_owned(),
            ),
        }
    }

    /// `registry::parse_spec` (for a file) and `registry::resolve_spec`.
    fn resolve(&self) -> Result<ResolvedSpec, String> {
        let spec = match self {
            Source::Builtin(name) => registry::spec_by_name(name)
                .ok_or_else(|| format!("unknown builtin artifact {name:?}"))?
                .clone(),
            Source::File(path) => {
                let content = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
                registry::parse_spec(&content, &path.display().to_string())
                    .map_err(|e| e.to_string())?
            }
        };
        registry::resolve_spec(&spec, 1)
    }

    /// `planner::artifact_plans` for a builtin; the same enumeration over the
    /// resolved matrices for a spec file.
    fn plans(&self, resolved: &ResolvedSpec, trace_len: usize, seed: u64) -> Vec<SweepPlan> {
        match self {
            Source::Builtin(name) => {
                artifact_plans(name, trace_len, &[seed], 1).expect("resolved builtin has plans")
            }
            Source::File(_) => resolved
                .matrices
                .iter()
                .map(|m| {
                    SweepPlan::enumerate(
                        &m.label,
                        &m.workloads,
                        &m.configs,
                        trace_len,
                        &[seed],
                        resolved.fingerprint,
                    )
                })
                .collect(),
        }
    }
}

struct Job {
    sources: Vec<Source>,
    trace_len: usize,
    seed: u64,
    trace_cache: PathBuf,
    result_cache: Option<PathBuf>,
    cold: bool,
    oracle: bool,
    seconds: f64,
}

fn parse_args(args: &[String]) -> Result<Job, String> {
    let mut job = Job {
        sources: Vec::new(),
        trace_len: 0,
        seed: 1,
        trace_cache: PathBuf::new(),
        result_cache: None,
        cold: false,
        oracle: false,
        seconds: 1.0,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--sources" => job.sources = Source::parse_list(&value()?),
            "--trace-len" => {
                job.trace_len = value()?.parse().map_err(|e| format!("--trace-len: {e}"))?
            }
            "--seed" => job.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--trace-cache" => job.trace_cache = PathBuf::from(value()?),
            "--result-cache" => job.result_cache = Some(PathBuf::from(value()?)),
            "--seconds" => job.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--cold" => job.cold = true,
            "--oracle" => job.oracle = true,
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    if job.sources.is_empty() || job.trace_len == 0 || job.trace_cache.as_os_str().is_empty() {
        return Err("--sources, --trace-len and --trace-cache are required".into());
    }
    Ok(job)
}

/// Acquires one trace through the trace cache inside a `trace.acquire` span,
/// moving the decode (hit) or generation (miss) the cache meters to nested
/// `trace.decode` / `workloads.generate` spans.
fn acquire(
    spans: &mut Spans,
    cache: &TraceCache,
    profile: &svw_workloads::WorkloadProfile,
    trace_len: usize,
    seed: u64,
    out: &mut PassOut,
) -> Result<Program, String> {
    let (program, outcome, meter) = spans
        .span("trace.acquire", || {
            cache.get_or_generate_metered(profile, trace_len, seed)
        })
        .map_err(|e| format!("trace {}:{trace_len}:{seed}: {e}", profile.name))?;
    spans.nest("trace.acquire", "trace.decode", meter.decode.as_secs_f64());
    spans.nest(
        "trace.acquire",
        "workloads.generate",
        meter.generate.as_secs_f64(),
    );
    if outcome.is_hit() {
        out.trace_hits += 1;
    } else {
        out.trace_misses += 1;
    }
    out.trace_bytes += meter.bytes_read;
    Ok(program)
}

/// Renders a resolved spec from the result cache inside a `sim.render` span,
/// moving the cache lookups the runner meters to a nested `sim.cache_lookup`.
fn render(
    spans: &mut Spans,
    job: &Job,
    resolved: &ResolvedSpec,
    trace_cache: &TraceCache,
    result_cache: &ResultCache,
    out: &mut PassOut,
) -> Result<svw_sim::FigureReport, String> {
    let observer = SweepObserver {
        metrics: Some(SweepMetrics::new()),
        ..SweepObserver::default()
    };
    let ctx = ExperimentCtx {
        trace_len: job.trace_len,
        seeds: vec![job.seed],
        adaptive: None,
        substrate: false,
        model_version: 1,
        opts: RunOptions {
            cache: Some(trace_cache),
            jobs: 1,
            obs: Some(&observer),
            result_cache: Some(result_cache),
            ..RunOptions::default()
        },
    };
    let report = spans.span("sim.render", || render_resolved(&ctx, resolved))?;
    let metrics = observer.metrics.as_ref().expect("metered observer");
    spans.nest(
        "sim.render",
        "sim.cache_lookup",
        metrics.result_cache_seconds.sum().as_secs_f64(),
    );
    out.render_misses += metrics.result_cache_misses.get();
    Ok(report)
}

fn text_of(report: &svw_sim::FigureReport) -> String {
    format!("{report}\n")
}

fn json_of(report: &svw_sim::FigureReport) -> String {
    format!("{}\n", json::array([report.to_json()]))
}

/// One cold pass over one source: every cell misses the (fresh) result cache,
/// is simulated, and is stored; the artifact is then rendered from the cache.
fn cold_source(
    spans: &mut Spans,
    job: &Job,
    source: &Source,
    trace_cache: &TraceCache,
    result_cache: &ResultCache,
    arena: &mut SimArena,
    out: &mut PassOut,
) -> Result<(), String> {
    let resolved = spans.span("sim.registry", || source.resolve())?;
    let plans = spans.span("sim.plan", || {
        source.plans(&resolved, job.trace_len, job.seed)
    });
    let mut observed_s = 0.0;
    let mut plain_s = 0.0;
    for plan in &plans {
        // The runner resolves every lookup before it schedules anything.
        for cell in &plan.cells {
            if spans
                .span("sim.cache_lookup", || result_cache.lookup(&cell.id))
                .is_some()
            {
                out.unexpected_hits += 1;
            }
        }
        // Cells sharing a (workload, seed) trace run back to back on one
        // acquired program, in first-appearance order, as in the runner.
        let mut groups: Vec<((usize, u64), Vec<usize>)> = Vec::new();
        let mut group_of: HashMap<(usize, u64), usize> = HashMap::new();
        for (k, cell) in plan.cells.iter().enumerate() {
            let key = (cell.workload, cell.id.seed);
            let g = *group_of.entry(key).or_insert_with(|| {
                groups.push((key, Vec::new()));
                groups.len() - 1
            });
            groups[g].1.push(k);
        }
        for ((workload, seed), cells) in &groups {
            let profile = &plan.workloads[*workload];
            let program = acquire(spans, trace_cache, profile, plan.trace_len, *seed, out)?;
            for &k in cells {
                let cell = &plan.cells[k];
                let config = &plan.configs[cell.config];
                let stats = if job.oracle {
                    let mut checker =
                        DifferentialChecker::new(program.instructions(), OracleOptions::default());
                    let cpu = spans.span("cpu.reset", || Cpu::recycle(arena, config, &program));
                    let start = spans.on.then(Instant::now);
                    let stats = cpu.run_observed(&mut checker);
                    if let Some(start) = start {
                        let secs = start.elapsed().as_secs_f64();
                        spans.add("cpu.run", secs);
                        observed_s += secs;
                        // Calibration: the same cell without the checker, off
                        // the pass clock, to split the observed run into the
                        // simulation and the oracle's share.
                        let calibration = Instant::now();
                        let cpu = Cpu::recycle(arena, config, &program);
                        let plain_start = Instant::now();
                        let plain = cpu.run();
                        plain_s += plain_start.elapsed().as_secs_f64();
                        if format!("{plain:?}") != format!("{stats:?}") {
                            out.stats_mismatches += 1;
                        }
                        out.excluded_s += calibration.elapsed().as_secs_f64();
                    }
                    if checker.divergence().is_some() {
                        out.divergences += 1;
                    }
                    stats
                } else {
                    let cpu = spans.span("cpu.reset", || Cpu::recycle(arena, config, &program));
                    spans.span("cpu.run", || cpu.run())
                };
                out.count(&stats);
                out.cells += 1;
                spans
                    .span("sim.cache_store", || result_cache.store(&cell.id, &stats))
                    .map_err(|e| format!("result cache store: {e}"))?;
            }
        }
    }
    if job.oracle {
        spans.nest("cpu.run", "oracle.check", (observed_s - plain_s).max(0.0));
    }
    let report = render(spans, job, &resolved, trace_cache, result_cache, out)?;
    let text = spans.span("sim.report", || text_of(&report));
    let json = spans.span("sim.report", || json_of(&report));
    out.renders.push((source.label(), text, json));
    Ok(())
}

/// One warm pass over one source: two renders (text, then JSON), each from
/// registry to formatted output, as two `svwsim` invocations would do.
fn warm_source(
    spans: &mut Spans,
    job: &Job,
    source: &Source,
    trace_cache: &TraceCache,
    result_cache: &ResultCache,
    out: &mut PassOut,
) -> Result<(), String> {
    let mut formatted = Vec::with_capacity(2);
    for as_json in [false, true] {
        let resolved = spans.span("sim.registry", || source.resolve())?;
        let plans = spans.span("sim.plan", || {
            source.plans(&resolved, job.trace_len, job.seed)
        });
        if !as_json {
            out.cells += plans.iter().map(|p| p.cells.len() as u64).sum::<u64>();
        }
        let report = render(spans, job, &resolved, trace_cache, result_cache, out)?;
        formatted.push(if as_json {
            spans.span("sim.report", || json_of(&report))
        } else {
            spans.span("sim.report", || text_of(&report))
        });
    }
    let json = formatted.pop().expect("two renders");
    let text = formatted.pop().expect("two renders");
    out.renders.push((source.label(), text, json));
    Ok(())
}

/// Sums the exact counters of every cell a warm pass delivers, by reading the
/// result cache directly (off the pass clock).
fn warm_counts(job: &Job, result_cache: &ResultCache, out: &mut PassOut) -> Result<(), String> {
    for source in &job.sources {
        let resolved = source.resolve()?;
        for plan in source.plans(&resolved, job.trace_len, job.seed) {
            for cell in &plan.cells {
                let stats = result_cache
                    .lookup(&cell.id)
                    .ok_or_else(|| format!("result cache misses cell {:?}", cell.id))?;
                out.count(&stats);
            }
        }
    }
    Ok(())
}

/// Runs one pass; returns its wall time (calibration excluded) and output.
fn pass(job: &Job, traced: bool, index: usize) -> Result<(f64, Spans, PassOut), String> {
    let trace_cache = TraceCache::new(&job.trace_cache).map_err(|e| format!("trace cache: {e}"))?;
    let rc_root = job
        .result_cache
        .clone()
        .ok_or("--result-cache is required")?;
    let rc_dir = if job.cold {
        rc_root.join(format!("pass-{index}"))
    } else {
        rc_root
    };
    let mut spans = Spans::new(traced);
    let mut out = PassOut::default();
    let start = Instant::now();
    let result_cache = ResultCache::open(&rc_dir, CacheMode::ReadWrite)
        .map_err(|e| format!("result cache: {e}"))?;
    let mut arena = SimArena::new();
    for source in &job.sources {
        if job.cold {
            cold_source(
                &mut spans,
                job,
                source,
                &trace_cache,
                &result_cache,
                &mut arena,
                &mut out,
            )?;
        } else {
            warm_source(
                &mut spans,
                job,
                source,
                &trace_cache,
                &result_cache,
                &mut out,
            )?;
        }
    }
    let wall = start.elapsed().as_secs_f64() - out.excluded_s;
    if job.cold {
        let _ = std::fs::remove_dir_all(&rc_dir);
    } else {
        warm_counts(job, &result_cache, &mut out)?;
    }
    Ok((wall, spans, out))
}

fn replay(job: &Job) -> Result<String, String> {
    let started = Instant::now();
    let mut passes = Vec::new();
    let mut first: Option<PassOut> = None;
    let mut mismatched_renders = 0u64;
    let mut failures = 0u64;
    let mut index = 0;
    // Alternate untraced and traced passes (at least one of each) until the
    // time budget is spent, so both sides see the same host conditions.
    while index < 2 || started.elapsed().as_secs_f64() < job.seconds {
        let traced = index % 2 == 1;
        let (wall, spans, out) = pass(job, traced, index)?;
        failures +=
            out.divergences + out.render_misses + out.unexpected_hits + out.stats_mismatches;
        match &first {
            None => first = Some(out),
            Some(f) => {
                if f.renders != out.renders || f.counts != out.counts {
                    mismatched_renders += 1;
                }
            }
        }
        passes.push((traced, wall, spans.self_s));
        index += 1;
    }
    let first = first.expect("at least one pass");
    let mut s = String::from("{");
    let _ = write!(s, "\"passes\":[");
    for (i, (traced, wall, self_s)) in passes.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"traced\":{traced},\"wall_s\":{},\"self\":{}}}",
            json::number(*wall),
            layer_map(self_s)
        );
    }
    let _ = write!(
        s,
        "],\"counts\":{},\"cells\":{},\"failures\":{failures},\"divergences\":{},\"render_misses\":{},\"stats_mismatches\":{},\"unstable_passes\":{mismatched_renders},\"trace_hits\":{},\"trace_misses\":{},\"trace_bytes\":{},\"renders\":[",
        count_map(&first.counts),
        first.cells,
        first.divergences,
        first.render_misses,
        first.stats_mismatches,
        first.trace_hits,
        first.trace_misses,
        first.trace_bytes,
    );
    for (i, (label, text, json_render)) in first.renders.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"source\":{},\"text\":{},\"json\":{}}}",
            json::string(label),
            json::string(text),
            json::string(json_render)
        );
    }
    s.push_str("]}");
    Ok(s)
}

/// Fills the trace cache with every trace the job's cells need and, for a warm
/// job, the result cache with every cell (rendering each source once).
fn setup(job: &Job) -> Result<String, String> {
    let start = Instant::now();
    let mut spans = Spans::new(true);
    let mut out = PassOut::default();
    let trace_cache = TraceCache::new(&job.trace_cache).map_err(|e| format!("trace cache: {e}"))?;
    let mut resolved_sources = Vec::new();
    for source in &job.sources {
        let resolved = spans.span("sim.registry", || source.resolve())?;
        let mut seen = std::collections::HashSet::new();
        for plan in source.plans(&resolved, job.trace_len, job.seed) {
            for profile in &plan.workloads {
                if seen.insert((profile.name.clone(), profile.fingerprint())) {
                    acquire(
                        &mut spans,
                        &trace_cache,
                        profile,
                        job.trace_len,
                        job.seed,
                        &mut out,
                    )?;
                }
            }
        }
        resolved_sources.push(resolved);
    }
    if let Some(rc_dir) = &job.result_cache {
        let result_cache = ResultCache::open(rc_dir, CacheMode::ReadWrite)
            .map_err(|e| format!("result cache: {e}"))?;
        for resolved in &resolved_sources {
            render(
                &mut spans,
                job,
                resolved,
                &trace_cache,
                &result_cache,
                &mut PassOut::default(),
            )?;
        }
    }
    let setup_s = start.elapsed().as_secs_f64();
    Ok(format!(
        "{{\"setup_s\":{},\"self\":{},\"trace_misses\":{}}}",
        json::number(setup_s),
        layer_map(&spans.self_s),
        out.trace_misses
    ))
}

fn layer_map(map: &BTreeMap<&'static str, f64>) -> String {
    let body: Vec<String> = map
        .iter()
        .map(|(k, v)| format!("{}:{}", json::string(k), json::number(*v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn count_map(map: &BTreeMap<&'static str, u64>) -> String {
    let body: Vec<String> = map
        .iter()
        .map(|(k, v)| format!("{}:{v}", json::string(k)))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "setup" => parse_args(rest).and_then(|job| setup(&job)),
        Some((cmd, rest)) if cmd == "replay" => parse_args(rest).and_then(|job| replay(&job)),
        _ => Err("usage: svw-perfbench (setup|replay) --sources SRC --trace-len N ...".into()),
    };
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

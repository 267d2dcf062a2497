//! `svwsim` — the unified driver for the Store Vulnerability Window reproduction.
//!
//! ```text
//! svwsim capture --workload gcc --out gcc.svwt     capture a workload trace
//! svwsim inspect gcc.svwt                          show a trace's header and mix
//! svwsim run --trace gcc.svwt --config nlq-svw     simulate one configuration
//! svwsim sweep --figure fig5                       reproduce a paper artifact
//! svwsim fig5 | fig6 | fig7 | fig8 | tables        artifact shortcuts
//! ```
//!
//! Run `svwsim help` for the full usage.

use std::process::ExitCode;

use svw_cpu::Cpu;
use svw_sim::registry::AdaptiveDefaults;
use svw_sim::{
    json, presets, profile_events, registry, render_resolved, resolved_trace_keys, run_cells,
    AdaptiveOpts, CacheMode, CellId, DifferentialChecker, EventSink, ExperimentCtx, ExperimentSpec,
    FigureReport, JsonlSink, OracleOptions, Progress, ResolvedSpec, ResultCache, RunOptions, Stat,
    StatsCollector, SweepMetrics, SweepObserver, SweepResult, LATEST_MODEL_VERSION,
};
use svw_trace::{TraceCache, TraceReader};
use svw_workloads::{ArenaPin, TraceArenas, WorkloadProfile};

#[path = "svwsim/flags.rs"]
mod flags;
#[cfg(test)]
#[path = "svwsim/tests.rs"]
mod tests;

use flags::Args;

const USAGE: &str = "\
svwsim — Store Vulnerability Window (ISCA 2005) reproduction driver

USAGE:
    svwsim <COMMAND> [OPTIONS]

COMMANDS:
    capture    generate a workload and write a .svwt trace file
    inspect    print a .svwt file's header and instruction-mix statistics
    run        simulate one machine configuration over a trace file or workload
    sweep      reproduce a paper artifact (figure/table) over its config matrix
    fig5 fig6 fig7 fig8
               shortcuts for `sweep --figure figN`, accepting the historical
               positional [trace_len] [seed] arguments
    tables     the three table artifacts (ssn-width, spec-ssbf, summary)
    profile    aggregate --events journals into phase breakdowns, slowest
               cells, and per-worker utilization
    experiments
               inspect the declarative experiment registry: list the builtin
               specs, show one as canonical TOML, or validate spec files
    cache      manage the content-addressed result cache: stats, size-bounded
               gc, and integrity verification (see --result-cache)
    help       print this message

CAPTURE:
    svwsim capture --workload <NAME|all> [--trace-len N] [--seed N]
                   (--out FILE | --out-dir DIR)

INSPECT:
    svwsim inspect <FILE> [--json]

RUN:
    svwsim run (--trace FILE | --workload NAME) [--config NAME]
               [--trace-len N] [--seed N] [--seeds K] [--json]
    `--config list` prints the available configuration names.
    With `--trace`, the file is decoded in full before anything is simulated (a
    corrupt file fails with an error, exit 2) and replayed like any other cell;
    `--oracle` cross-checks the replay, and `--json` prints exactly what
    `--workload` prints for the captured (workload, trace length, seed).
    With `--seeds K`, the workload is replicated over K seeds and the report
    carries mean ± 95% CI per metric.

SWEEP:
    svwsim sweep --figure <fig5|fig6|fig7|fig8|ssn-width|spec-ssbf|substrate-ssbf|summary|
                           adversarial-ssbf|adversarial-svw>
                 [--trace-len N] [--seed N] [--seeds K] [--jobs N]
                 [--out results.jsonl] [--ci-target PCT] [--substrate] [--json]
    svwsim sweep --spec (FILE.toml | builtin:NAME) [same options]
    Every (workload, configuration, seed) cell is an independent unit of work
    drained from a shared queue by the worker threads, so wide matrices saturate
    all cores. With `--out`, each finished cell is appended to the JSONL file
    immediately; re-running the same sweep with the same file *resumes*, skipping
    the cells already present (failed cells are re-tried); a complete file
    re-renders the artifact without simulating anything.

    Adaptive: `--ci-target PCT` replaces the fixed `--seeds K` with sequential
    sampling — every workload starts at `--min-seeds` seeds and keeps receiving
    extra seeds (across all of its configurations, keeping seed-paired speedups
    paired) until the 95% CI of IPC is within PCT% of the mean for every
    configuration, or `--max-seeds` is reached. The spec's [adaptive] block
    sets the --min-seeds/--max-seeds defaults; the flags override it.
    Incompatible with --seeds.

    Spec mode: `--spec FILE.toml` sweeps a user-defined experiment spec (see
    docs/EXPERIMENTS.md for the schema); `--spec builtin:NAME` sweeps a builtin
    spec by name and renders byte-identically to `--figure NAME`. Every builtin
    artifact is itself defined as such a spec (`svwsim experiments show NAME`).

    Observability: --verbose, --stats, --stats-json, --events, --progress and
    --metrics-out never change an artifact; every report and JSONL stream stays
    byte-identical with them on or off.

EXPERIMENTS:
    svwsim experiments list [--json]
    svwsim experiments show <NAME>
    svwsim experiments validate [SPEC.toml...]
    `list` prints every registered builtin spec with its fingerprint; `show`
    prints one as canonical TOML (with its pinned fingerprint — save and edit it
    as a starting point for --spec); `validate` parses and resolves the named
    spec files, or every builtin spec when run without arguments, and exits 1 on
    the first invalid spec (errors carry file:line positions).

PROFILE:
    svwsim profile EVENTS.jsonl... [--top N] [--json]
    Reads one or more --events journals (e.g. one per run) and reports phase
    breakdowns (trace-acquire / decode / simulate / write) in aggregate and per
    workload, the --top N slowest cells, and per-worker busy time
    and utilization. Each input file is treated as one process's timeline.

CACHE:
    svwsim cache stats  [--result-cache DIR] [--json]
    svwsim cache gc     --max-bytes N [--result-cache DIR] [--json]
    svwsim cache verify [--result-cache DIR] [--json]
    Manages the content-addressed result cache shared by sweeps (DIR defaults
    to $SVW_RESULT_CACHE). `stats` sizes the store; `gc` evicts the least
    recently used entries until the store fits in --max-bytes and removes torn
    tmp leftovers; `verify` re-checksums every entry, prunes corrupt ones, and
    reports what it found (a pruned entry is simply re-simulated and re-stored
    by the next sweep that needs it). See docs/CACHING.md.

";

/// The help text: the per-command prose and the table's OPTIONS section.
fn usage() -> String {
    format!("{USAGE}{}", flags::options_help())
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("run `svwsim help` for usage");
    std::process::exit(2);
}

/// The replication seed list: `seed..seed+seeds`.
fn seed_list(args: &Args) -> Vec<u64> {
    let seed: u64 = args.num("--seed");
    (0..args.num::<u64>("--seeds")).map(|i| seed + i).collect()
}

/// The differential-oracle options, when `--oracle` was given.
fn oracle_options(args: &Args) -> Option<OracleOptions> {
    args.has("--oracle").then(|| OracleOptions {
        inject_fault: args.int("--inject-fault"),
    })
}

/// The adaptive sampling policy, when `--ci-target` was given (validated).
/// `--min-seeds` and `--max-seeds` default to the spec's `[adaptive]` block, and
/// to the flag table's defaults when the spec has none.
fn adaptive(args: &Args, spec: Option<&AdaptiveDefaults>) -> Option<AdaptiveOpts> {
    let Some(ci_target_pct) = args.float("--ci-target") else {
        if args.has("--min-seeds") || args.has("--max-seeds") {
            fail("--min-seeds/--max-seeds require --ci-target (they bound adaptive sampling; use --seeds for a fixed count)");
        }
        return None;
    };
    if args.num::<u64>("--seeds") != 1 {
        fail("--seeds and --ci-target are mutually exclusive (adaptive sampling picks the seed count; bound it with --min-seeds/--max-seeds)");
    }
    let bound = |name: &str, from_spec: Option<u64>| -> usize {
        args.num_or(name, from_spec)
            .unwrap_or_else(|e| fail(&format!("spec [adaptive]: {e}")))
    };
    let opts = AdaptiveOpts {
        ci_target_pct,
        min_seeds: bound("--min-seeds", spec.map(|d| d.min_seeds)),
        max_seeds: bound("--max-seeds", spec.map(|d| d.max_seeds)),
    };
    opts.validate().unwrap_or_else(|e| fail(&e));
    if args
        .num::<u64>("--seed")
        .checked_add(opts.max_seeds as u64 - 1)
        .is_none()
    {
        fail("--seed is too large: its replication seeds overflow 64 bits");
    }
    Some(opts)
}

fn dump_worker_stats(collector: &StatsCollector, result_cache: Option<&ResultCache>) {
    let workers = collector.workers();
    eprintln!("[svwsim] per-worker scheduler statistics:");
    eprintln!("  worker  simulated  restored  cached  failed  resets  rebuilds");
    for (i, w) in workers.iter().enumerate() {
        eprintln!(
            "  {i:>6}  {:>9}  {:>8}  {:>6}  {:>6}  {:>6}  {:>8}",
            w.cells_simulated,
            w.cells_restored,
            w.cells_cached,
            w.cells_failed,
            w.resets,
            w.rebuilds,
        );
    }
    if let Some(rc) = result_cache {
        let c = rc.counters();
        eprintln!(
            "  result cache ({}, mode {}): {} hit(s), {} miss(es), {} store(s), {} store error(s)",
            rc.root().display(),
            rc.mode().label(),
            c.hits,
            c.misses,
            c.stores,
            c.store_errors,
        );
    }
    let (generated, cache_hits) = collector.trace_counts();
    eprintln!("  trace acquisition: {generated} generated, {cache_hits} cache hit(s)");
    eprintln!(
        "  shared decode: {} cell(s) served an already-decoded trace arena",
        collector.cells_shared_decode()
    );
    let extra = collector.adaptive_extra_cells();
    if extra > 0 {
        eprintln!("  adaptive sampling scheduled {extra} extra seed-cell(s) beyond --min-seeds");
    }
}

/// `--stats-json FILE`: the machine-readable twin of [`dump_worker_stats`].
fn write_stats_json(path: &str, collector: &StatsCollector, result_cache: Option<&ResultCache>) {
    let workers = collector.workers();
    let (generated, cache_hits) = collector.trace_counts();
    let mut fields = vec![
        (
            "workers",
            json::array(workers.iter().enumerate().map(|(i, w)| {
                json::object([
                    ("worker", json::uint(i as u64)),
                    ("cells_simulated", json::uint(w.cells_simulated)),
                    ("cells_restored", json::uint(w.cells_restored)),
                    ("cells_cached", json::uint(w.cells_cached)),
                    ("cells_failed", json::uint(w.cells_failed)),
                    ("resets", json::uint(w.resets)),
                    ("rebuilds", json::uint(w.rebuilds)),
                ])
            })),
        ),
        ("traces_generated", json::uint(generated as u64)),
        ("trace_cache_hits", json::uint(cache_hits as u64)),
        (
            "cells_shared_decode",
            json::uint(collector.cells_shared_decode() as u64),
        ),
        (
            "adaptive_extra_cells",
            json::uint(collector.adaptive_extra_cells() as u64),
        ),
    ];
    if let Some(rc) = result_cache {
        let c = rc.counters();
        fields.push((
            "result_cache",
            json::object([
                ("dir", json::string(&rc.root().display().to_string())),
                ("mode", json::string(rc.mode().label())),
                ("hits", json::uint(c.hits)),
                ("misses", json::uint(c.misses)),
                ("stores", json::uint(c.stores)),
                ("store_errors", json::uint(c.store_errors)),
            ]),
        ));
    }
    let payload = json::object(fields);
    std::fs::write(path, format!("{payload}\n"))
        .unwrap_or_else(|e| fail(&format!("cannot write --stats-json {path}: {e}")));
}

/// One executor session: the trace cache, result cache, `--out` sink, stats
/// collector, observer and decode arenas a scheduler command runs under, and
/// the epilogues that close them.
struct Session<'a> {
    args: &'a Args,
    cache: Option<TraceCache>,
    result_cache: Option<ResultCache>,
    sink: Option<JsonlSink>,
    collector: Option<StatsCollector>,
    observer: Option<SweepObserver>,
    /// One decode-once arena registry per invocation: the matrices of a
    /// multi-table artifact, the artifacts of one render and the rounds of an
    /// adaptive sweep share each decoded trace instead of re-decoding it.
    arenas: TraceArenas,
}

impl<'a> Session<'a> {
    fn open(args: &'a Args) -> Self {
        Session {
            args,
            cache: open_cache(args),
            result_cache: open_result_cache(args),
            sink: open_sink(args),
            // --oracle forces the collector even without --stats: its per-worker
            // failed counters are how `finish` counts divergences.
            collector: (args.has("--stats") || args.has("--stats-json") || args.has("--oracle"))
                .then(StatsCollector::new),
            // `None` when no instrumentation flag was given, so the hot path
            // pays nothing.
            observer: {
                let observer = SweepObserver {
                    events: args.text("--events").map(|path| {
                        EventSink::open(path)
                            .unwrap_or_else(|e| fail(&format!("cannot open --events {path}: {e}")))
                    }),
                    metrics: args.has("--metrics-out").then(SweepMetrics::new),
                    progress: args.has("--progress").then(Progress::new),
                };
                (!observer.is_empty()).then_some(observer)
            },
            arenas: TraceArenas::new(),
        }
    }

    /// The executor options of this session.
    fn options(&self) -> RunOptions<'_> {
        RunOptions {
            cache: self.cache.as_ref(),
            verbose: self.args.has("--verbose"),
            jobs: self.args.num("--jobs"),
            sink: self.sink.as_ref(),
            stats: self.collector.as_ref(),
            obs: self.observer.as_ref(),
            arenas: Some(&self.arenas),
            oracle: oracle_options(self.args),
            result_cache: self.result_cache.as_ref(),
        }
    }

    /// The end-of-run epilogues: the final progress line, the `--metrics-out`
    /// snapshot, a warning if any journal append failed, the `--stats` and
    /// `--stats-json` dumps, and the result-cache summary. Returns the number
    /// of cells that failed (counted when `--oracle` or a stats flag is given).
    fn finish(self) -> u64 {
        let result_cache = self.result_cache.as_ref();
        if let Some(observer) = &self.observer {
            if let Some(progress) = &observer.progress {
                progress.finish();
            }
            if let (Some(path), Some(metrics)) =
                (self.args.text("--metrics-out"), &observer.metrics)
            {
                std::fs::write(path, metrics.render_prometheus())
                    .unwrap_or_else(|e| fail(&format!("cannot write --metrics-out {path}: {e}")));
            }
            if let Some(events) = &observer.events {
                if events.write_errors() > 0 {
                    eprintln!(
                        "warning: {} event line(s) failed to write to {}",
                        events.write_errors(),
                        events.path().display()
                    );
                }
            }
        }
        if let Some(collector) = &self.collector {
            if self.args.has("--stats") {
                dump_worker_stats(collector, result_cache);
            }
            if let Some(path) = self.args.text("--stats-json") {
                write_stats_json(path, collector, result_cache);
            }
        }
        // `misses` counts exactly the cells that went on to real simulation
        // (restored cells never consult the cache), so a fully
        // warm run reads `... 0 simulated, 0 stored` — the line CI greps for.
        if let Some(rc) = result_cache {
            let c = rc.counters();
            let errors = if c.store_errors > 0 {
                format!(", {} store error(s)", c.store_errors)
            } else {
                String::new()
            };
            eprintln!(
                "[svwsim] result cache {} (mode {}): {} cached, {} simulated, {} stored{errors}",
                rc.root().display(),
                rc.mode().label(),
                c.hits,
                c.misses,
                c.stores,
            );
        }
        self.collector
            .map_or(0, |c| c.workers().iter().map(|w| w.cells_failed).sum())
    }
}

fn open_cache(args: &Args) -> Option<TraceCache> {
    if args.has("--no-cache") {
        return None;
    }
    let result = match args.text("--cache-dir") {
        Some(dir) => TraceCache::new(dir),
        None => TraceCache::open_default(),
    };
    match result {
        Ok(cache) => Some(cache),
        Err(e) => {
            eprintln!("warning: trace cache unavailable ({e}); regenerating workloads");
            None
        }
    }
}

/// The result cache directory: `--result-cache DIR`, else `$SVW_RESULT_CACHE`.
fn result_cache_dir(args: &Args) -> Option<String> {
    args.text("--result-cache")
        .map(str::to_string)
        .or_else(|| std::env::var("SVW_RESULT_CACHE").ok())
}

/// Opens the content-addressed result cache when a directory is named and
/// `--no-result-cache` was not given. Warn-and-degrade: an unusable cache
/// directory must never fail a sweep that can simply simulate everything.
fn open_result_cache(args: &Args) -> Option<ResultCache> {
    if args.has("--no-result-cache") {
        return None;
    }
    let Some(dir) = result_cache_dir(args) else {
        if args.has("--result-cache-mode") {
            fail("--result-cache-mode requires --result-cache DIR (or $SVW_RESULT_CACHE)");
        }
        return None;
    };
    let mode = CacheMode::parse(args.str("--result-cache-mode")).unwrap_or_else(|e| fail(&e));
    match ResultCache::open(&dir, mode) {
        Ok(rc) => {
            if args.has("--verbose") {
                eprintln!("[svwsim] result cache {dir} (mode {})", mode.label());
            }
            Some(rc)
        }
        Err(e) => {
            eprintln!("warning: result cache {dir} unavailable ({e}); simulating every cell");
            None
        }
    }
}

/// Opens the `--out` JSONL sink, reporting what a resume will skip.
fn open_sink(args: &Args) -> Option<JsonlSink> {
    args.text("--out").map(|path| {
        let sink = JsonlSink::open(path)
            .unwrap_or_else(|e| fail(&format!("cannot open --out {path}: {e}")));
        if sink.restored_count() > 0 {
            eprintln!(
                "[svwsim] resume: {} finished cell(s) in {path} will be skipped",
                sink.restored_count()
            );
        }
        if sink.skipped_lines() > 0 {
            eprintln!(
                "[svwsim] resume: {} malformed line(s) in {path} ignored (interrupted write?)",
                sink.skipped_lines()
            );
        }
        sink
    })
}

fn workload_by_name(name: &str) -> WorkloadProfile {
    WorkloadProfile::by_name(name).unwrap_or_else(|| {
        fail(&format!(
            "unknown workload {name:?} (expected one of: {})",
            svw_workloads::spec2000int_names().join(", ")
        ))
    })
}

// ------------------------------------------------------------------- capture

fn cmd_capture(args: &Args) {
    let workload = args
        .text("--workload")
        .unwrap_or_else(|| fail("capture needs --workload <NAME|all>"));
    let (out_file, out_dir) = (args.text("--out"), args.text("--out-dir"));
    let (trace_len, seed) = (args.num("--trace-len"), args.num("--seed"));

    let profiles: Vec<WorkloadProfile> = if workload == "all" {
        WorkloadProfile::spec2000int()
    } else {
        vec![workload_by_name(workload)]
    };
    if profiles.len() > 1 && out_file.is_some() {
        fail("capturing multiple workloads needs --out-dir, not --out");
    }

    for profile in &profiles {
        let path = match (out_file, out_dir) {
            (Some(f), None) => std::path::PathBuf::from(f),
            (None, Some(d)) => std::path::Path::new(d).join(format!(
                "{}.{}",
                profile.name,
                svw_trace::FILE_EXTENSION
            )),
            (None, None) => fail("capture needs --out FILE or --out-dir DIR"),
            (Some(_), Some(_)) => fail("--out and --out-dir are mutually exclusive"),
        };
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .unwrap_or_else(|e| fail(&format!("cannot create {}: {e}", parent.display())));
            }
        }
        let program = profile.generate(trace_len, seed);
        let file = std::fs::File::create(&path)
            .unwrap_or_else(|e| fail(&format!("cannot create {}: {e}", path.display())));
        svw_trace::write_program(
            std::io::BufWriter::new(file),
            &program,
            trace_len,
            seed,
            profile.fingerprint(),
        )
        .unwrap_or_else(|e| fail(&format!("cannot write {}: {e}", path.display())));
        eprintln!(
            "captured {}: {} instructions -> {} ({} bytes)",
            profile.name,
            program.len(),
            path.display(),
            std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0),
        );
    }
}

// ------------------------------------------------------------------- inspect

fn cmd_inspect(args: &Args) {
    let [path] = args.positionals.as_slice() else {
        fail("inspect needs exactly one trace file argument");
    };
    let reader =
        TraceReader::open(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let header = reader.header().clone();
    let program = reader
        .read_program()
        .unwrap_or_else(|e| fail(&format!("cannot decode {path}: {e}")));
    let stats = program.stats();
    if args.has("--json") {
        println!(
            "{}",
            json::object([
                ("file", json::string(path)),
                ("name", json::string(&header.name)),
                ("seed", json::uint(header.seed)),
                (
                    "fingerprint",
                    json::string(&format!("{:016x}", header.fingerprint))
                ),
                ("requested_len", json::uint(header.requested_len)),
                ("count", json::uint(header.count)),
                ("loads", json::uint(stats.loads)),
                ("stores", json::uint(stats.stores)),
                ("branches", json::uint(stats.branches)),
                ("fp_ops", json::uint(stats.fp_ops)),
                ("silent_stores", json::uint(stats.silent_stores)),
                ("forwarding_loads", json::uint(stats.forwarding_loads)),
            ])
        );
    } else {
        println!("trace file      {path}");
        println!("workload        {}", header.name);
        println!("seed            {}", header.seed);
        println!("fingerprint     {:016x}", header.fingerprint);
        println!("requested len   {}", header.requested_len);
        println!("instructions    {}", header.count);
        println!(
            "mix             {:.1}% loads, {:.1}% stores, {:.1}% branches",
            100.0 * stats.load_fraction(),
            100.0 * stats.store_fraction(),
            100.0 * stats.branch_fraction(),
        );
        println!(
            "behaviour       {:.1}% of loads forward, {} silent stores",
            100.0 * stats.forwarding_fraction(),
            stats.silent_stores,
        );
    }
}

// ----------------------------------------------------------------------- run

fn cpu_stats_json(workload: &str, config: &str, seed: u64, stats: &svw_cpu::CpuStats) -> String {
    json::object([
        ("workload", json::string(workload)),
        ("config", json::string(config)),
        ("seed", json::uint(seed)),
        ("cycles", json::uint(stats.cycles)),
        ("committed", json::uint(stats.committed)),
        ("ipc", json::number(stats.ipc())),
        ("loads_retired", json::uint(stats.loads_retired)),
        ("stores_retired", json::uint(stats.stores_retired)),
        ("loads_marked", json::uint(stats.loads_marked)),
        ("loads_filtered", json::uint(stats.loads_filtered)),
        ("loads_reexecuted", json::uint(stats.loads_reexecuted)),
        ("loads_eliminated", json::uint(stats.loads_eliminated)),
        ("reexec_rate", json::number(stats.reexec_rate())),
        ("marked_rate", json::number(stats.marked_rate())),
        ("filter_rate", json::number(stats.filter_rate())),
        ("elimination_rate", json::number(stats.elimination_rate())),
        ("reexec_flushes", json::uint(stats.reexec_flushes)),
        ("ordering_flushes", json::uint(stats.ordering_flushes)),
        ("wrap_drains", json::uint(stats.wrap_drains)),
        (
            "branch_mispredictions",
            json::uint(stats.branch_mispredictions),
        ),
    ])
}

fn cmd_run(args: &Args) {
    let config_name = args.str("--config");
    if config_name == "list" {
        for cfg in presets::named_configs() {
            println!("{}", cfg.name);
        }
        return;
    }
    let config = presets::config_by_name(config_name)
        .unwrap_or_else(|| {
            fail(&format!(
                "unknown config {config_name:?} (use `--config list` to see the choices)"
            ))
        })
        .with_model_version(args.num("--model-version"));

    let (name, seed, stats) = match (args.text("--trace"), args.text("--workload")) {
        (Some(path), _) => replay_trace(args, path, config, config_name),
        (None, Some(w)) => {
            // Every seed is a cell on the scheduler, so --out (stream + resume),
            // --jobs, the caches and panic capture behave exactly as for sweeps.
            let profile = workload_by_name(w);
            let seeds = seed_list(args);
            let session = Session::open(args);
            let result = run_cells(
                "run",
                &[profile],
                std::slice::from_ref(&config),
                args.num("--trace-len"),
                &seeds,
                0,
                &session.options(),
            );
            result.emit_warnings();
            session.finish();
            if seeds.len() > 1 {
                return print_replicated(args, w, config_name, &result);
            }
            let cell = &result.cells[0];
            match cell.stats() {
                Some(stats) => (w.to_string(), seeds[0], stats.clone()),
                None => fail(&format!(
                    "simulation of {w} failed: {}",
                    cell.error().unwrap_or("unknown")
                )),
            }
        }
        (None, None) => fail("run needs exactly one of --trace FILE or --workload NAME"),
    };

    if args.has("--json") {
        println!("{}", cpu_stats_json(&name, config_name, seed, &stats));
    } else {
        println!("workload {name} under {config_name}:");
        println!("  cycles            {}", stats.cycles);
        println!("  committed         {}", stats.committed);
        println!("  IPC               {:.4}", stats.ipc());
        println!("  loads retired     {}", stats.loads_retired);
        println!(
            "  marked / filtered / re-executed   {} / {} / {}",
            stats.loads_marked, stats.loads_filtered, stats.loads_reexecuted
        );
        println!(
            "  re-execution rate {:.2}% of retired loads (marked {:.2}%)",
            stats.reexec_rate(),
            stats.marked_rate()
        );
        println!(
            "  flushes           {} re-execution, {} ordering",
            stats.reexec_flushes, stats.ordering_flushes
        );
    }
}

/// `svwsim run --trace FILE`: decodes the whole trace before simulating
/// anything, so a file that is corrupt partway through fails cleanly here
/// instead of mid-run, then replays it on one `Cpu`.
fn replay_trace(
    args: &Args,
    path: &str,
    config: svw_cpu::MachineConfig,
    config_name: &str,
) -> (String, u64, svw_cpu::CpuStats) {
    let (header, program) = TraceReader::open(path)
        .and_then(|reader| {
            let header = reader.header().clone();
            reader.read_program().map(|program| (header, program))
        })
        .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    if args.has("--verbose") {
        eprintln!(
            "[svwsim] replaying {} instructions of {} from {path}",
            program.len(),
            header.name
        );
    }
    let cpu = Cpu::new(config, &program);
    let stats = match oracle_options(args) {
        Some(oracle_opts) => {
            let mut checker = DifferentialChecker::new(program.instructions(), oracle_opts);
            let stats = cpu.run_observed(&mut checker);
            if let Some(d) = checker.divergence() {
                fail(&format!(
                    "simulation of {path} failed: oracle divergence: {d}"
                ));
            }
            stats
        }
        None => cpu.run(),
    };
    // `--out` streams this cell too (keyed by the trace's own identity; replay
    // runs are never skipped on resume).
    if let Some(sink) = open_sink(args) {
        let id = CellId {
            matrix: "run".to_string(),
            workload: header.name.clone(),
            config: config_name.to_string(),
            seed: header.seed,
            trace_len: header.requested_len,
            fingerprint: header.fingerprint,
            model_version: args.num("--model-version"),
            spec_fingerprint: 0,
        };
        if let Err(e) = sink.append(&id, &Ok(stats.clone())) {
            eprintln!("warning: failed to append to the JSONL stream: {e}");
        }
    }
    (header.name, header.seed, stats)
}

/// `svwsim run --workload W --seeds K`: per-seed statistics plus the mean ±
/// 95% CI aggregates.
fn print_replicated(args: &Args, workload: &str, config_name: &str, result: &SweepResult) {
    let ok: Vec<&svw_cpu::CpuStats> = result.cells.iter().filter_map(|c| c.stats()).collect();
    if ok.is_empty() {
        let first = result
            .failures()
            .next()
            .and_then(|c| c.error())
            .unwrap_or("unknown");
        fail(&format!("every seed failed (first: {first})"));
    }
    let stat_of = |metric: fn(&svw_cpu::CpuStats) -> f64| {
        Stat::from_samples(&ok.iter().map(|s| metric(s)).collect::<Vec<_>>())
    };
    let ipc = stat_of(svw_cpu::CpuStats::ipc);
    let reexec = stat_of(svw_cpu::CpuStats::reexec_rate);
    let filter = stat_of(svw_cpu::CpuStats::filter_rate);
    if args.has("--json") {
        println!(
            "{}",
            json::object([
                ("workload", json::string(workload)),
                ("config", json::string(config_name)),
                ("trace_len", json::uint(args.num("--trace-len"))),
                (
                    "seeds",
                    json::array(result.cells.iter().map(|c| match c.stats() {
                        Some(s) => cpu_stats_json(&c.workload, &c.config, c.seed, s),
                        None => json::object([
                            ("seed", json::uint(c.seed)),
                            ("error", json::string(c.error().unwrap_or("unknown"))),
                        ]),
                    }))
                ),
                (
                    "aggregate",
                    json::object([
                        ("n", json::uint(ipc.n as u64)),
                        ("ipc_mean", json::number(ipc.mean)),
                        ("ipc_ci95", json::number(ipc.ci95)),
                        ("reexec_rate_mean", json::number(reexec.mean)),
                        ("reexec_rate_ci95", json::number(reexec.ci95)),
                        ("filter_rate_mean", json::number(filter.mean)),
                        ("filter_rate_ci95", json::number(filter.ci95)),
                    ])
                ),
            ])
        );
    } else {
        println!(
            "workload {workload} under {config_name} ({} seeds starting at {}):",
            result.cells.len(),
            args.num::<u64>("--seed")
        );
        for cell in &result.cells {
            match cell.stats() {
                Some(s) => println!(
                    "  seed {:>3}: IPC {:.4}  re-exec {:>5.2}%  filtered {:>5.2}%  flushes {}",
                    cell.seed,
                    s.ipc(),
                    s.reexec_rate(),
                    s.filter_rate(),
                    s.reexec_flushes
                ),
                None => println!(
                    "  seed {:>3}: FAILED — {}",
                    cell.seed,
                    cell.error().unwrap_or("unknown")
                ),
            }
        }
        println!("  mean ± 95% CI over {} seed(s):", ipc.n);
        println!("    IPC               {:.4} ± {:.4}", ipc.mean, ipc.ci95);
        println!(
            "    re-execution rate {:.2}% ± {:.2}",
            reexec.mean, reexec.ci95
        );
        println!(
            "    filter rate       {:.2}% ± {:.2}",
            filter.mean, filter.ci95
        );
    }
    // Under --oracle, any failed seed (divergence or panic) is a verification
    // failure even though the other seeds produced aggregates.
    if args.has("--oracle") && result.failures().count() > 0 {
        std::process::exit(1);
    }
}

// --------------------------------------------------------------------- sweep

/// Renders `specs` under one executor session, prints the reports (text or
/// `--json`), and exits 1 if `--oracle` failed any cell.
fn render_specs(args: &Args, specs: &[ResolvedSpec]) {
    // Resolved before the session opens any file, so a bad bound writes nothing.
    let adaptive: Vec<Option<AdaptiveOpts>> = specs
        .iter()
        .map(|resolved| adaptive(args, resolved.spec.adaptive.as_ref()))
        .collect();
    let session = Session::open(args);
    let ctx = ExperimentCtx {
        trace_len: args.num("--trace-len"),
        seeds: seed_list(args),
        adaptive: None,
        substrate: args.has("--substrate"),
        model_version: args.num("--model-version"),
        opts: session.options(),
    };
    // Pin every spec's trace keys for the whole render: `tables` (three
    // artifacts over the same workloads) decodes each trace once instead of
    // once per artifact. Dropping the pin frees the arenas.
    let pin = ArenaPin::new(
        &session.arenas,
        specs
            .iter()
            .flat_map(|resolved| resolved_trace_keys(resolved, ctx.trace_len, &ctx.seeds))
            .collect(),
    );
    let reports: Vec<FigureReport> = specs
        .iter()
        .zip(adaptive)
        .map(|(resolved, adaptive)| {
            let start = std::time::Instant::now();
            let ctx = ExperimentCtx {
                adaptive,
                ..ctx.clone()
            };
            let report = render_resolved(&ctx, resolved).unwrap_or_else(|e| fail(&e));
            if args.has("--verbose") {
                eprintln!(
                    "[svwsim] {} finished in {:.2}s",
                    resolved.spec.name,
                    start.elapsed().as_secs_f64()
                );
            }
            report
        })
        .collect();
    drop(pin);
    if args.has("--json") {
        println!("{}", json::array(reports.iter().map(|r| r.to_json())));
    } else {
        for report in &reports {
            println!("{report}");
        }
    }
    let failed = session.finish();
    if args.has("--oracle") && failed > 0 {
        eprintln!(
            "error: --oracle: {failed} cell(s) failed verification (divergence or panic); \
             the report notes above name the first failing cell"
        );
        std::process::exit(1);
    }
}

/// The builtin spec `name`; `what` names it in the error for an unknown name.
fn builtin_spec(name: &str, what: &str) -> &'static ExperimentSpec {
    registry::spec_by_name(name).unwrap_or_else(|| {
        fail(&format!(
            "unknown {what} {name:?}{} (expected one of: {})",
            registry::did_you_mean(name, registry::builtin_names()),
            registry::builtin_names().join(", ")
        ))
    })
}

/// `spec` resolved at `--model-version`.
fn resolve(args: &Args, spec: &ExperimentSpec) -> ResolvedSpec {
    registry::resolve_spec(spec, args.num("--model-version")).unwrap_or_else(|e| fail(&e))
}

/// `svwsim sweep --figure ART`, the figure shortcuts and `tables`.
fn run_artifacts(args: &Args, names: &[&str]) {
    let specs: Vec<ResolvedSpec> = names
        .iter()
        .map(|name| resolve(args, builtin_spec(name, "artifact")))
        .collect();
    render_specs(args, &specs);
}

/// `svwsim sweep --spec (FILE.toml | builtin:NAME)`: sweep an experiment spec —
/// a user-authored TOML file, or a builtin by name (byte-identical to the
/// corresponding `--figure`).
fn run_spec(args: &Args, spec_arg: &str) {
    let spec = match spec_arg.strip_prefix("builtin:") {
        Some(name) => builtin_spec(name, "builtin spec").clone(),
        None => {
            let content = std::fs::read_to_string(spec_arg)
                .unwrap_or_else(|e| fail(&format!("cannot read --spec {spec_arg}: {e}")));
            registry::parse_spec(&content, spec_arg).unwrap_or_else(|e| fail(&e.to_string()))
        }
    };
    render_specs(args, &[resolve(args, &spec)]);
}

fn cmd_sweep(args: &Args) {
    match (args.text("--figure"), args.text("--spec")) {
        (Some(figure), None) => run_artifacts(args, &[figure]),
        (None, Some(spec)) => run_spec(args, spec),
        _ => fail(
            "sweep needs exactly one of --figure <artifact> or --spec <FILE.toml|builtin:NAME>",
        ),
    }
}

// ------------------------------------------------------------------- profile

/// `svwsim profile EVENTS.jsonl... [--top N] [--json]`: aggregate `--events`
/// journals into phase breakdowns, slowest cells, and worker utilization.
fn cmd_profile(args: &Args) {
    if args.positionals.is_empty() {
        fail("profile needs at least one --events journal file");
    }
    let files: Vec<(String, String)> = args
        .positionals
        .iter()
        .map(|path| {
            let content = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
            (path.clone(), content)
        })
        .collect();
    let report = profile_events(&files, args.num("--top"));
    if args.has("--json") {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render());
    }
}

// --------------------------------------------------------------- experiments

/// `svwsim experiments list|show|validate`: inspect the declarative experiment
/// registry. `list` prints every builtin spec with its fingerprint, `show`
/// emits one as canonical TOML (pinned fingerprint included, so the output is
/// itself a valid `--spec` file), and `validate` parses and resolves spec files
/// — every builtin when run without arguments.
fn cmd_experiments(args: &Args) -> ExitCode {
    let Some((sub, rest)) = args.positionals.split_first() else {
        fail("experiments needs a subcommand: list, show <NAME>, or validate [SPEC.toml...]");
    };
    match sub.as_str() {
        "list" => {
            if args.has("--json") {
                println!(
                    "{}",
                    json::array(registry::builtin_specs().iter().map(|spec| {
                        json::object([
                            ("name", json::string(&spec.name)),
                            ("description", json::string(&spec.description)),
                            ("renderer", json::string(&spec.renderer)),
                            (
                                "fingerprint",
                                json::string(&format!("{:016x}", registry::spec_fingerprint(spec))),
                            ),
                            ("matrices", json::uint(spec.matrices.len() as u64)),
                        ])
                    }))
                );
            } else {
                for spec in registry::builtin_specs() {
                    println!(
                        "{:<10} {:016x}  {}",
                        spec.name,
                        registry::spec_fingerprint(spec),
                        spec.description
                    );
                }
            }
        }
        "show" => {
            let [name] = rest else {
                fail("experiments show needs exactly one builtin spec name");
            };
            let spec = builtin_spec(name, "builtin spec");
            println!(
                "fingerprint = \"{:016x}\"",
                registry::spec_fingerprint(spec)
            );
            print!("{}", registry::canonical_toml(spec));
        }
        "validate" => {
            // Named files, or every builtin spec re-parsed from its embedded
            // source (not the cached registry), so validate exercises the same
            // path a user-authored --spec file takes.
            let sources: Vec<(String, String)> = if rest.is_empty() {
                registry::builtin_spec_sources()
                    .iter()
                    .map(|(name, content)| (format!("builtin:{name}"), (*content).to_string()))
                    .collect()
            } else {
                rest.iter()
                    .map(|path| {
                        let content = std::fs::read_to_string(path)
                            .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
                        (path.clone(), content)
                    })
                    .collect()
            };
            let mut failures = 0usize;
            for (file, content) in &sources {
                let outcome = registry::parse_spec(content, file)
                    .map_err(|e| e.to_string())
                    .and_then(|spec| {
                        for mv in 1..=LATEST_MODEL_VERSION {
                            registry::resolve_spec(&spec, mv)
                                .map_err(|e| format!("{file}: {e}"))?;
                        }
                        Ok(spec)
                    });
                match outcome {
                    Ok(spec) => println!(
                        "{file}: ok — spec {:?} ({:016x}), {} matrix(es), renderer {:?}",
                        spec.name,
                        registry::spec_fingerprint(&spec),
                        spec.matrices.len(),
                        spec.renderer
                    ),
                    Err(e) => {
                        println!("{file}: INVALID — {e}");
                        failures += 1;
                    }
                }
            }
            if failures > 0 {
                eprintln!("error: {failures} invalid spec(s)");
                return ExitCode::from(1);
            }
        }
        other => fail(&format!(
            "unknown experiments subcommand {other:?} (expected list, show, or validate)"
        )),
    }
    ExitCode::SUCCESS
}

// --------------------------------------------------------------------- cache

/// `svwsim cache stats|gc|verify`: manage the content-addressed result cache
/// named by `--result-cache DIR` or `$SVW_RESULT_CACHE`. `stats` sizes the
/// store, `gc --max-bytes N` evicts least-recently-used entries until the
/// store fits, and `verify` re-checksums every entry and prunes corrupt ones.
fn cmd_cache(args: &Args) {
    let Some(sub) = args.positionals.first() else {
        fail("cache needs a subcommand: stats, gc --max-bytes N, or verify");
    };
    let dir = result_cache_dir(args)
        .unwrap_or_else(|| fail("cache needs --result-cache DIR (or $SVW_RESULT_CACHE)"));
    let rc = ResultCache::open(&dir, CacheMode::ReadWrite)
        .unwrap_or_else(|e| fail(&format!("cannot open result cache {dir}: {e}")));
    match sub.as_str() {
        "stats" => {
            let s = rc
                .stats()
                .unwrap_or_else(|e| fail(&format!("cannot read result cache {dir}: {e}")));
            if args.has("--json") {
                println!(
                    "{}",
                    json::object([
                        ("dir", json::string(&dir)),
                        ("entries", json::uint(s.entries)),
                        ("bytes", json::uint(s.bytes)),
                        ("fanout_dirs", json::uint(s.fanout_dirs)),
                        ("tmp_leftovers", json::uint(s.tmp_leftovers)),
                    ])
                );
            } else {
                println!("result cache {dir}");
                println!("  entries        {}", s.entries);
                println!("  bytes          {}", s.bytes);
                println!("  fanout dirs    {}", s.fanout_dirs);
                println!("  tmp leftovers  {}", s.tmp_leftovers);
            }
        }
        "verify" => {
            let r = rc
                .verify()
                .unwrap_or_else(|e| fail(&format!("cannot verify result cache {dir}: {e}")));
            if args.has("--json") {
                println!(
                    "{}",
                    json::object([
                        ("dir", json::string(&dir)),
                        ("checked", json::uint(r.checked)),
                        ("valid", json::uint(r.valid)),
                        ("corrupt", json::uint(r.corrupt)),
                        ("pruned", json::uint(r.pruned)),
                        ("tmp_removed", json::uint(r.tmp_removed)),
                    ])
                );
            } else {
                println!(
                    "result cache {dir}: {} entr(ies) checked, {} valid, {} corrupt \
                     ({} pruned), {} tmp leftover(s) removed",
                    r.checked, r.valid, r.corrupt, r.pruned, r.tmp_removed
                );
            }
        }
        "gc" => {
            let max = args.int("--max-bytes").unwrap_or_else(|| {
                fail("cache gc needs --max-bytes N (the store size to shrink to)")
            });
            let r = rc
                .gc(max)
                .unwrap_or_else(|e| fail(&format!("cannot gc result cache {dir}: {e}")));
            if args.has("--json") {
                println!(
                    "{}",
                    json::object([
                        ("dir", json::string(&dir)),
                        ("max_bytes", json::uint(max)),
                        ("entries_before", json::uint(r.entries_before)),
                        ("bytes_before", json::uint(r.bytes_before)),
                        ("evicted", json::uint(r.evicted)),
                        ("bytes_evicted", json::uint(r.bytes_evicted)),
                        ("tmp_removed", json::uint(r.tmp_removed)),
                    ])
                );
            } else {
                println!(
                    "result cache {dir}: {} of {} entr(ies) evicted ({} of {} bytes), \
                     {} tmp leftover(s) removed",
                    r.evicted, r.entries_before, r.bytes_evicted, r.bytes_before, r.tmp_removed
                );
            }
        }
        other => fail(&format!(
            "unknown cache subcommand {other:?} (expected stats, gc, or verify)"
        )),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args_os()
        .skip(1)
        .map(|arg| {
            arg.into_string()
                .unwrap_or_else(|raw| fail(&format!("argument {raw:?} is not valid UTF-8")))
        })
        .collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    if matches!(command.as_str(), "help" | "--help" | "-h") {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let args = Args::parse(command, rest.to_vec()).unwrap_or_else(|e| fail(&e));
    match command.as_str() {
        "capture" => cmd_capture(&args),
        "inspect" => cmd_inspect(&args),
        "run" => cmd_run(&args),
        "sweep" => cmd_sweep(&args),
        "profile" => cmd_profile(&args),
        "experiments" => return cmd_experiments(&args),
        "cache" => cmd_cache(&args),
        "tables" => run_artifacts(&args, &["ssn-width", "spec-ssbf", "summary"]),
        // `Args::parse` accepts no other command than the figure shortcuts.
        figure => run_artifacts(&args, &[figure]),
    }
    ExitCode::SUCCESS
}

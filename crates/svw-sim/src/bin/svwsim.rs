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
use svw_sim::events::kind as event_kind;
use svw_sim::{
    artifact_trace_keys, expected_cells, json, merge_shards, presets, profile_events, registry,
    render_artifact, render_resolved, run_cells, AdaptiveOpts, CacheMode, CellId,
    DifferentialChecker, EventSink, ExperimentCtx, FigureReport, JsonlSink, MergeInput,
    OracleOptions, Progress, ResultCache, RunOptions, Shard, Stat, StatsCollector, SweepMetrics,
    SweepObserver, SweepResult, LATEST_MODEL_VERSION,
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
    sweep      reproduce a paper artifact (figure/table) over its config matrix,
               or drain a coordinator-issued *.plan.jsonl file (--plan)
    fig5 fig6 fig7 fig8
               shortcuts for `sweep --figure figN`, accepting the historical
               positional [trace_len] [seed] arguments
    tables     the three table artifacts (ssn-width, spec-ssbf, summary)
    merge      validate and stitch sharded sweep JSONL files into one result set
    coordinate two-phase distributed-adaptive driver: merge shard streams, apply
               the CI-target stopping rule globally, requeue work as plan files
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
                 [--out results.jsonl] [--shard I/N|auto] [--ci-target PCT]
                 [--substrate] [--json]
    svwsim sweep --spec (FILE.toml | builtin:NAME) [same options]
    svwsim sweep --plan ROUND.plan.jsonl --shard I/N [--out shardI.jsonl]
    Every (workload, configuration, seed) cell is an independent unit of work
    drained from a shared queue by the worker threads, so wide matrices saturate
    all cores. With `--out`, each finished cell is appended to the JSONL file
    immediately; re-running the same sweep with the same file *resumes*, skipping
    the cells already present (failed cells are re-tried).

    Distributed: `--shard I/N` (I is 0-based) runs only every N-th cell, so N
    processes or machines — each with its own `--out` file — cover the sweep
    disjointly; `svwsim merge` stitches the files back together, and re-running
    the sweep with `--out merged.jsonl` re-renders the full artifact from the
    merged results without simulating anything. `--shard auto` derives I/N from
    cluster environment variables (SLURM_ARRAY_TASK_ID/_COUNT for job arrays,
    SLURM_PROCID/SLURM_NTASKS, OMPI_COMM_WORLD_RANK/_SIZE,
    PBS_ARRAY_INDEX/PBS_ARRAY_COUNT; 0-based array ranges).

    Adaptive: `--ci-target PCT` replaces the fixed `--seeds K` with sequential
    sampling — every workload starts at `--min-seeds` seeds and keeps receiving
    extra seeds (across all of its configurations, keeping seed-paired speedups
    paired) until the 95% CI of IPC is within PCT% of the mean for every
    configuration, or `--max-seeds` is reached. Incompatible with --shard and
    --seeds in one process; to distribute an adaptive sweep, drive the shards
    through `svwsim coordinate` (see below).

    Plan mode: `--plan FILE` executes a coordinator-issued requeue plan instead
    of a full artifact; `--shard I/N` slices the plan's cells by position. The
    run streams results to `--out` and prints no artifact report (the final
    render happens from the coordinator's merged file).

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

COORDINATE:
    svwsim coordinate SHARD.jsonl... --figure ART --ci-target PCT
                      [--trace-len N] [--seed N] [--min-seeds K] [--max-seeds K]
                      --plan-out ROUND.plan.jsonl --out merged.jsonl
    Makes --ci-target compose with --shard I/N. The coordinator is stateless:
    each invocation re-reads the shard JSONL streams (missing files read as
    empty), validates them exactly like `merge` (fingerprints, byte-identical
    duplicates, no strays), re-derives the adaptive decision sequence, and
    either (exit 3) writes the next round's cells to --plan-out for the shards
    to drain with `sweep --plan ... --shard I/N --out shardI.jsonl`, or (exit 0)
    writes the complete merged result set to --out. Render the artifact from it
    with `sweep --figure ART --ci-target ... --out merged.jsonl` — byte-identical
    to a single-process adaptive run. Exit 1 on validation errors.

MERGE:
    svwsim merge SHARD.jsonl... --figure ART[,ART...] --out merged.jsonl
                 [--trace-len N] [--seed N] [--seeds K]
    Validates that the shard files exactly cover the named sweep — every line's
    workload fingerprint must match this binary's workload definitions, duplicate
    cells must be byte-identical, and the union must be gap-free — then writes
    the complete result set in canonical order to --out. `--figure tables` is
    shorthand for ssn-width,spec-ssbf,summary. Exits 1 on a gapped, conflicting,
    or fingerprint-mismatched shard set. Validation errors name the offending
    file and line (`shard0.jsonl:17: ...`).

PROFILE:
    svwsim profile EVENTS.jsonl... [--top N] [--json]
    Reads one or more --events journals (e.g. each shard's) and reports phase
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
fn adaptive(args: &Args) -> Option<AdaptiveOpts> {
    let Some(ci_target_pct) = args.float("--ci-target") else {
        if args.has("--min-seeds") || args.has("--max-seeds") {
            fail("--min-seeds/--max-seeds require --ci-target (they bound adaptive sampling; use --seeds for a fixed count)");
        }
        return None;
    };
    if args.num::<u64>("--seeds") != 1 {
        fail("--seeds and --ci-target are mutually exclusive (adaptive sampling picks the seed count; bound it with --min-seeds/--max-seeds)");
    }
    if args.has("--shard") {
        fail("--ci-target and --shard are mutually exclusive: adaptive sampling needs every configuration's results to decide when to stop");
    }
    let opts = AdaptiveOpts {
        ci_target_pct,
        min_seeds: args.num("--min-seeds"),
        max_seeds: args.num("--max-seeds"),
    };
    opts.validate().unwrap_or_else(|e| fail(&e));
    Some(opts)
}

/// The `--shard` slice, when given; `auto` reads it from cluster variables.
fn shard(args: &Args) -> Option<Shard> {
    args.text("--shard").map(|raw| {
        let shard = if raw == "auto" {
            Shard::from_env()
        } else {
            Shard::parse(raw)
        };
        shard.unwrap_or_else(|e| fail(&e))
    })
}

fn dump_worker_stats(collector: &StatsCollector, result_cache: Option<&ResultCache>) {
    let workers = collector.workers();
    eprintln!("[svwsim] per-worker scheduler statistics:");
    eprintln!("  worker  simulated  restored  cached  failed  resets  rebuilds  slab-high-water");
    for (i, w) in workers.iter().enumerate() {
        eprintln!(
            "  {i:>6}  {:>9}  {:>8}  {:>6}  {:>6}  {:>6}  {:>8}  {:>15}",
            w.cells_simulated,
            w.cells_restored,
            w.cells_cached,
            w.cells_failed,
            w.resets,
            w.rebuilds,
            w.slab_high_water,
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
                    ("slab_high_water", json::uint(w.slab_high_water)),
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

/// Builds the `--events`/`--progress`/`--metrics-out` observer bundle for
/// scheduler commands; `None` when no instrumentation flag was given, so the
/// hot path pays nothing.
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
    /// multi-table artifact, the artifacts of one render and the plans of one
    /// requeue round share each decoded trace instead of re-decoding it.
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

    /// The executor options of this session, running the `shard` slice.
    fn options(&self, shard: Option<Shard>) -> RunOptions<'_> {
        RunOptions {
            cache: self.cache.as_ref(),
            verbose: self.args.has("--verbose"),
            jobs: self.args.num("--jobs"),
            sink: self.sink.as_ref(),
            shard,
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
        // (restored and out-of-shard cells never consult the cache), so a fully
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
                &session.options(None),
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

/// Runs `render` under one executor session for a `--figure`/`--spec` sweep or
/// a shortcut, prints the reports (text or `--json`), and exits 1 if `--oracle`
/// failed any cell.
fn render_reports(args: &Args, render: impl FnOnce(&ExperimentCtx<'_>) -> Vec<FigureReport>) {
    let (shard, adaptive) = (shard(args), adaptive(args));
    let session = Session::open(args);
    let ctx = ExperimentCtx {
        trace_len: args.num("--trace-len"),
        seeds: seed_list(args),
        adaptive,
        substrate: args.has("--substrate"),
        model_version: args.num("--model-version"),
        opts: session.options(shard),
    };
    let reports = render(&ctx);
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

fn run_artifacts(args: &Args, names: &[&str]) {
    render_reports(args, |ctx| {
        // Pin every artifact's trace keys for the whole render: `tables` (three
        // artifacts over the same workloads) decodes each trace once instead of
        // once per artifact. The pin drops with the closure, freeing the arenas.
        let _pin = ctx.opts.arenas.map(|arenas| {
            let keys = names
                .iter()
                .flat_map(|name| artifact_trace_keys(name, ctx.trace_len, &ctx.seeds))
                .collect();
            ArenaPin::new(arenas, keys)
        });
        names
            .iter()
            .map(|name| {
                let start = std::time::Instant::now();
                let report = render_artifact(ctx, name).unwrap_or_else(|e| fail(&e));
                if args.has("--verbose") {
                    eprintln!(
                        "[svwsim] {name} finished in {:.2}s",
                        start.elapsed().as_secs_f64()
                    );
                }
                report
            })
            .collect()
    });
}

/// `svwsim sweep --spec (FILE.toml | builtin:NAME)`: sweep an experiment spec —
/// a user-authored TOML file, or a builtin by name (byte-identical to the
/// corresponding `--figure`).
fn run_spec(args: &Args, spec_arg: &str) {
    let spec = if let Some(name) = spec_arg.strip_prefix("builtin:") {
        registry::spec_by_name(name)
            .unwrap_or_else(|| {
                fail(&format!(
                    "unknown builtin spec {name:?}{} (expected one of: {})",
                    registry::did_you_mean(name, registry::builtin_names()),
                    registry::builtin_names().join(", ")
                ))
            })
            .clone()
    } else {
        let content = std::fs::read_to_string(spec_arg)
            .unwrap_or_else(|e| fail(&format!("cannot read --spec {spec_arg}: {e}")));
        registry::parse_spec(&content, spec_arg).unwrap_or_else(|e| fail(&e.to_string()))
    };
    let resolved =
        registry::resolve_spec(&spec, args.num("--model-version")).unwrap_or_else(|e| fail(&e));
    render_reports(args, |ctx| {
        vec![render_resolved(ctx, &resolved).unwrap_or_else(|e| fail(&e))]
    });
}

// --------------------------------------------------------------------- merge

/// `svwsim merge SHARD.jsonl... --figure ART[,ART] --out merged.jsonl`: validates
/// that the shard files exactly cover the named sweep (fingerprints, no gaps, no
/// conflicting duplicates) and writes the complete result set in canonical order.
fn cmd_merge(args: &Args) {
    let figure = args
        .text("--figure")
        .unwrap_or_else(|| fail("merge needs --figure <artifact[,artifact...]> to know which cells the sweep must cover"));
    let out = args
        .text("--out")
        .unwrap_or_else(|| fail("merge needs --out FILE for the merged result set"));
    if args.positionals.is_empty() {
        fail("merge needs at least one shard JSONL file");
    }

    let artifacts = expand_artifacts(figure);
    let expected = expected_cells(
        &artifacts,
        args.num("--trace-len"),
        &seed_list(args),
        args.num("--model-version"),
    )
    .unwrap_or_else(|e| fail(&e.to_string()));
    let inputs: Vec<MergeInput> = args
        .positionals
        .iter()
        .map(|path| MergeInput {
            name: path.clone(),
            content: std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}"))),
        })
        .collect();

    match merge_shards(&expected, &inputs) {
        Ok(report) => {
            std::fs::write(out, &report.merged)
                .unwrap_or_else(|e| fail(&format!("cannot write {out}: {e}")));
            if let Some(path) = args.text("--events") {
                let sink = EventSink::open(path)
                    .unwrap_or_else(|e| fail(&format!("cannot open --events {path}: {e}")));
                sink.emit(
                    event_kind::MERGE_SUMMARY,
                    [
                        ("files", json::uint(inputs.len() as u64)),
                        ("cells", json::uint(report.cells as u64)),
                        (
                            "duplicates_dropped",
                            json::uint(report.duplicates_dropped as u64),
                        ),
                        (
                            "failed_lines_dropped",
                            json::uint(report.failed_lines_dropped as u64),
                        ),
                        ("malformed_lines", json::uint(report.malformed_lines as u64)),
                    ],
                );
            }
            eprintln!(
                "[svwsim] merged {} cell(s) from {} file(s) into {out}{}{}{}",
                report.cells,
                inputs.len(),
                plural_note(report.duplicates_dropped, "identical duplicate line"),
                plural_note(report.failed_lines_dropped, "superseded failure line"),
                plural_note(report.malformed_lines, "malformed line"),
            );
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// `", dropping N <what>(s)"` when N > 0, empty otherwise.
fn plural_note(n: usize, what: &str) -> String {
    if n == 0 {
        String::new()
    } else {
        format!(", dropping {n} {what}(s)")
    }
}

/// Expands a `--figure` comma list, with `tables` standing for its three
/// artifacts, into an order-preserving deduplicated artifact list (a repeated
/// artifact would, e.g., break merge's gap accounting by duplicating expected
/// cells).
fn expand_artifacts(figure: &str) -> Vec<String> {
    let mut artifacts: Vec<String> = Vec::new();
    for name in figure.split(',').filter(|s| !s.is_empty()) {
        if name == "tables" {
            artifacts.extend(["ssn-width", "spec-ssbf", "summary"].map(String::from));
        } else {
            artifacts.push(name.to_string());
        }
    }
    let mut seen = std::collections::HashSet::new();
    artifacts.retain(|a| seen.insert(a.clone()));
    artifacts
}

fn cmd_sweep(args: &Args) {
    match (
        args.text("--figure"),
        args.text("--spec"),
        args.text("--plan"),
    ) {
        (Some(figure), None, None) => run_artifacts(args, &[figure]),
        (None, Some(spec), None) => run_spec(args, spec),
        (None, None, Some(plan)) => run_plan(args, plan),
        _ => fail(
            "sweep needs exactly one of --figure <artifact>, --spec <FILE.toml|builtin:NAME>, \
             or --plan <FILE.plan.jsonl>",
        ),
    }
}

/// `svwsim sweep --plan FILE [--shard I/N] [--out shardI.jsonl]`: drain a
/// coordinator-issued requeue plan through the ordinary executor. No artifact is
/// rendered — the results stream to `--out` for the coordinator to collect.
fn run_plan(args: &Args, path: &str) {
    if !args.has("--out") {
        fail("--plan runs need --out FILE: a plan's results exist only as the JSONL stream the coordinator collects — without it the simulation work would be discarded");
    }
    let content = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("cannot read --plan {path}: {e}")));
    let plan_file = svw_sim::parse_plan_file(&content)
        .unwrap_or_else(|e| fail(&format!("invalid plan file {path}: {e}")));
    let plans = svw_sim::resolve_plan(&plan_file, shard(args))
        .unwrap_or_else(|e| fail(&format!("cannot resolve plan file {path}: {e}")));

    let session = Session::open(args);
    // The plan already carries the shard assignment (applied by position across
    // the whole file); the executor must not re-slice.
    let opts = session.options(None);
    let (mut simulated, mut restored, mut skipped, mut cached, mut failed) =
        (0usize, 0usize, 0usize, 0usize, 0usize);
    for plan in &plans {
        let result = svw_sim::execute_plan(plan, &opts);
        result.emit_warnings();
        simulated += result.cells.len() - result.restored - result.skipped - result.cached;
        restored += result.restored;
        skipped += result.skipped;
        cached += result.cached;
        failed += result.failures().count();
    }
    session.finish();
    eprintln!(
        "[svwsim] plan {path} (round {}): {simulated} cell(s) simulated, {restored} restored, \
         {skipped} belong to other shards{}{}",
        plan_file.round,
        if cached > 0 {
            format!(", {cached} from the result cache")
        } else {
            String::new()
        },
        if failed > 0 {
            format!(", {failed} FAILED")
        } else {
            String::new()
        }
    );
    if failed > 0 {
        std::process::exit(1);
    }
}

// --------------------------------------------------------------- coordinate

/// `svwsim coordinate SHARD.jsonl... --figure ART --ci-target PCT --plan-out FILE
/// --out merged.jsonl`: one stateless round of the two-phase distributed-adaptive
/// protocol. Exit 0 = converged (merged written), 3 = plan emitted, 1 = error.
fn cmd_coordinate(args: &Args) -> ExitCode {
    let figure = args.text("--figure").unwrap_or_else(|| {
        fail("coordinate needs --figure <artifact> (one artifact per coordination)")
    });
    if figure.contains(',') || figure == "tables" {
        fail("coordinate drives one artifact at a time; run one coordination per artifact");
    }
    let plan_out = args
        .text("--plan-out")
        .unwrap_or_else(|| fail("coordinate needs --plan-out FILE for requeue plans"));
    let out = args
        .text("--out")
        .unwrap_or_else(|| fail("coordinate needs --out FILE for the merged result set"));
    if args.positionals.is_empty() {
        fail("coordinate needs the shard JSONL files (they may not exist yet on round 0)");
    }
    let adaptive = adaptive(args).unwrap_or_else(|| {
        fail("coordinate needs --ci-target PCT (it exists to distribute adaptive sweeps; use `merge` for fixed --seeds sweeps)")
    });
    let (trace_len, seed, model_version) = (
        args.num("--trace-len"),
        args.num("--seed"),
        args.num("--model-version"),
    );

    // Shard files that do not exist yet (round 0) read as empty streams; any
    // other read error (permissions, I/O) is fatal — treating it as empty would
    // make the driver loop requeue the same cells forever.
    let inputs: Vec<MergeInput> = args
        .positionals
        .iter()
        .map(|path| {
            let content = match std::fs::read_to_string(path) {
                Ok(content) => content,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
                Err(e) => fail(&format!("cannot read shard file {path}: {e}")),
            };
            MergeInput {
                name: path.clone(),
                content,
            }
        })
        .collect();
    // With a result cache, missing cells may already exist as published results
    // from earlier sweeps: iterate the (stateless, cheap) decision procedure,
    // injecting every cache hit for a pending cell as a synthetic shard stream,
    // until the round converges or no pending cell is cached. Only cells the
    // decision procedure actually requested are injected — anything else would
    // be rejected as a stray — and injected lines are the canonical JSONL
    // bytes, so overlapping a real shard line is a byte-identical duplicate.
    let result_cache = open_result_cache(args);
    let mut cache_lines: Vec<String> = Vec::new();
    let mut cache_cells = 0usize;
    let outcome = loop {
        let mut round_inputs = inputs.clone();
        if !cache_lines.is_empty() {
            round_inputs.push(MergeInput {
                name: "<result-cache>".to_string(),
                content: cache_lines.concat(),
            });
        }
        let request = svw_sim::CoordinateRequest {
            artifact: figure.to_string(),
            trace_len,
            start_seed: seed,
            adaptive,
            model_version,
            inputs: &round_inputs,
        };
        let outcome = svw_sim::coordinate_round(&request);
        if let (Some(rc), Ok(svw_sim::CoordinateOutcome::Pending { plan, .. })) =
            (result_cache.as_ref(), &outcome)
        {
            let mut new_hits = 0usize;
            for id in &plan.cells {
                if let Some(line) = rc.lookup_line(id) {
                    cache_lines.push(format!("{line}\n"));
                    new_hits += 1;
                }
            }
            if new_hits > 0 {
                cache_cells += new_hits;
                continue;
            }
        }
        break outcome;
    };
    if cache_cells > 0 {
        eprintln!("[svwsim] coordinate {figure}: result cache satisfied {cache_cells} cell(s)");
    }
    match outcome {
        Ok(svw_sim::CoordinateOutcome::Converged {
            merged,
            cells,
            duplicates_dropped,
            failed_lines_dropped,
            malformed_lines,
            notes,
        }) => {
            std::fs::write(out, &merged)
                .unwrap_or_else(|e| fail(&format!("cannot write {out}: {e}")));
            emit_round_summary(args, figure, "converged", None, cells as u64);
            eprintln!(
                "[svwsim] coordinate {figure}: converged — {cells} cell(s) merged into {out}{}{}{}",
                plural_note(duplicates_dropped, "identical duplicate line"),
                plural_note(failed_lines_dropped, "superseded failure line"),
                plural_note(malformed_lines, "malformed line"),
            );
            for note in &notes {
                eprintln!("[svwsim]   {note}");
            }
            eprintln!(
                "[svwsim] render with: svwsim sweep --figure {figure} --trace-len {} --seed {} \
                 --ci-target {} --min-seeds {} --max-seeds {} --out {out}",
                trace_len, seed, adaptive.ci_target_pct, adaptive.min_seeds, adaptive.max_seeds
            );
            ExitCode::SUCCESS
        }
        Ok(svw_sim::CoordinateOutcome::Pending {
            plan,
            rounds_complete,
            missing,
        }) => {
            std::fs::write(plan_out, svw_sim::write_plan_file(&plan))
                .unwrap_or_else(|e| fail(&format!("cannot write {plan_out}: {e}")));
            emit_round_summary(
                args,
                figure,
                "pending",
                Some(rounds_complete),
                missing as u64,
            );
            eprintln!(
                "[svwsim] coordinate {figure}: {rounds_complete} round(s) complete, {missing} \
                 cell(s) requeued into {plan_out} — drain with `svwsim sweep --plan {plan_out} \
                 --shard I/N --out shardI.jsonl`, then re-run coordinate"
            );
            ExitCode::from(3)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

/// Appends a `round_summary` event to the `--events` journal, when given —
/// so a whole coordinated run (shard journals plus the coordinator's own)
/// concatenates into one analyzable timeline.
fn emit_round_summary(
    args: &Args,
    artifact: &str,
    outcome: &str,
    rounds_complete: Option<u64>,
    cells: u64,
) {
    let Some(path) = args.text("--events") else {
        return;
    };
    let sink = EventSink::open(path)
        .unwrap_or_else(|e| fail(&format!("cannot open --events {path}: {e}")));
    let mut fields = vec![
        ("artifact", json::string(artifact)),
        ("outcome", json::string(outcome)),
    ];
    if let Some(rounds) = rounds_complete {
        fields.push(("rounds", json::uint(rounds)));
    }
    fields.push(("cells", json::uint(cells)));
    sink.emit(event_kind::ROUND_SUMMARY, fields);
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
            let spec = registry::spec_by_name(name).unwrap_or_else(|| {
                fail(&format!(
                    "unknown builtin spec {name:?}{} (expected one of: {})",
                    registry::did_you_mean(name, registry::builtin_names()),
                    registry::builtin_names().join(", ")
                ))
            });
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
        "merge" => cmd_merge(&args),
        "coordinate" => return cmd_coordinate(&args),
        "profile" => cmd_profile(&args),
        "experiments" => return cmd_experiments(&args),
        "cache" => cmd_cache(&args),
        "tables" => run_artifacts(&args, &["ssn-width", "spec-ssbf", "summary"]),
        // `Args::parse` accepts no other command than the figure shortcuts.
        figure => run_artifacts(&args, &[figure]),
    }
    ExitCode::SUCCESS
}

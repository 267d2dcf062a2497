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
    SweepObserver, LATEST_MODEL_VERSION,
};
use svw_sim::{DEFAULT_SEED, DEFAULT_TRACE_LEN};
use svw_trace::{TraceCache, TraceReader};
use svw_workloads::{ArenaPin, TraceArenas, WorkloadProfile};

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
    `--config list` prints the available configuration names (default: nlq-svw).
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
    workload, the --top N slowest cells (default 5), and per-worker busy time
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

COMMON OPTIONS:
    --trace-len N    per-workload dynamic instructions (default 60000)
    --seed N         first workload-generation seed (default 1)
    --seeds K        replication: run seeds seed..seed+K (default 1); reports
                     aggregate to mean ± 95% CI per cell
    --ci-target PCT  adaptive replication to a 95% CI within PCT% of the mean
    --min-seeds K    adaptive: seeds before the first CI check (default 3)
    --max-seeds K    adaptive: hard per-workload seed ceiling (default 10)
    --shard I/N      run only shard I (0-based) of N; `auto` reads cluster env
                     vars; see SWEEP
    --model-version N
                     simulate under simulator model version N (default 1;
                     latest 2). v1 is the byte-identical baseline; v2 fixes the
                     issue-stage FP-budget quirk. Results record the version in
                     their lineage, reports carry a divergence note, and merge/
                     coordinate reject shards from a different version
    --substrate      append substrate-level tables (SSBF lookup/update traffic,
                     L2 miss rate) to every artifact report, text and JSON
    --jobs N         worker threads (default: all available parallelism)
    --out FILE       stream per-cell results to FILE as JSONL and resume from it
    --plan FILE      sweep: execute a coordinator plan file instead of --figure
    --plan-out FILE  coordinate: where to write the next requeue plan
    --stats          dump per-worker scheduler statistics (cells drained, resets
                     vs rebuilds, slab high-water marks) and trace-acquisition
                     counters (generated / cache hits) to stderr
    --stats-json F   write the --stats counters to F as one JSON object
    --events FILE    append a kill-tolerant per-cell lifecycle event journal
                     (planned/trace_acquired/decoded/simulated/written, worker
                     ids, per-phase durations) to FILE; merge and coordinate
                     append merge_summary/round_summary events; analyze with
                     `svwsim profile`
    --progress       live progress lines on stderr (cells done/total, cells/s,
                     ETA over cells still owed real simulation; --ci-target
                     runs add the worst per-workload relative CI)
    --metrics-out F  write an end-of-run metrics snapshot (counters, gauges,
                     phase-duration histograms) to F in Prometheus text format
                     None of the observability flags changes any artifact:
                     every report and JSONL stream stays byte-identical with
                     instrumentation on or off.
    --oracle         cross-check every simulated cell against the in-order
                     golden-model executor (differential oracle, see
                     docs/VERIFICATION.md): each committed load and store is
                     compared with sequential semantics, and a divergence fails
                     the cell with a report naming the first divergent
                     instruction; any failed cell makes the run exit nonzero.
                     The checker is a pure observer — results stay byte-identical
                     with or without --oracle when no divergence exists
    --inject-fault N corrupt the oracle checker's view of the N-th committed
                     load (0-based) in every cell, proving end to end that the
                     oracle detects a wrong value; the simulation itself is
                     untouched. Requires --oracle
    --json           emit machine-readable JSON instead of text tables
    --verbose        log trace-cache activity to stderr
    --no-cache       regenerate workloads instead of using the trace cache
    --cache-dir DIR  trace cache root (default $SVW_TRACE_CACHE, else
                     ~/.cache/svw/traces)
    --result-cache DIR
                     content-addressed *result* cache: before scheduling, every
                     cell is looked up by its full identity (workload
                     fingerprint, config, seed, trace length, model version,
                     spec fingerprint) and a hit skips trace acquisition,
                     decode, and simulation entirely; every freshly simulated
                     cell is published back with an atomic write, so concurrent
                     sweeps, users, and CI can share one directory (default
                     $SVW_RESULT_CACHE; unset = no result cache). Renders are
                     byte-identical with or without the cache
    --no-result-cache
                     ignore --result-cache/$SVW_RESULT_CACHE and simulate
                     every cell (A/B check)
    --result-cache-mode rw|ro|wo
                     rw (default) reads and publishes; ro never writes (CI
                     against a read-only shared store); wo never reads
                     (re-simulate everything but still warm the store)
";

/// Options shared by every subcommand, parsed off the argument list first.
struct Common {
    trace_len: usize,
    seed: u64,
    /// Number of replication seeds (`seed..seed+seeds`).
    seeds: u64,
    /// Worker threads; 0 means all available parallelism.
    jobs: usize,
    /// Streaming JSONL results file (enables resume).
    out: Option<String>,
    /// Run only this slice of the cell list (distributed sweeps).
    shard: Option<Shard>,
    /// Adaptive sequential sampling: target relative 95% CI of IPC, in percent.
    ci_target: Option<f64>,
    /// Adaptive: seeds before the first CI check (set only if given; default 3).
    min_seeds: Option<usize>,
    /// Adaptive: hard per-workload seed ceiling (set only if given; default 10).
    max_seeds: Option<usize>,
    /// Simulator model version to run under (default 1, the byte-identical baseline).
    model_version: u32,
    /// Dump per-worker scheduler statistics to stderr after the run.
    stats: bool,
    /// Write the `--stats` counters to this file as one JSON object.
    stats_json: Option<String>,
    /// Append the per-cell lifecycle event journal to this file.
    events: Option<String>,
    /// Report live progress lines on stderr.
    progress: bool,
    /// Write an end-of-run Prometheus text metrics snapshot to this file.
    metrics_out: Option<String>,
    /// Append substrate-level tables to every artifact report.
    substrate: bool,
    json: bool,
    verbose: bool,
    no_cache: bool,
    /// Cross-check every simulated cell against the in-order golden model.
    oracle: bool,
    /// Corrupt the oracle checker's view of the N-th committed load per cell
    /// (self-test of the differential oracle; requires `--oracle`).
    inject_fault: Option<u64>,
    cache_dir: Option<String>,
    /// Content-addressed result cache directory (`--result-cache`).
    result_cache: Option<String>,
    /// Ignore the result cache entirely (A/B check; overrides `--result-cache`
    /// and `$SVW_RESULT_CACHE`).
    no_result_cache: bool,
    /// Result-cache access mode (`rw`/`ro`/`wo`; default `rw`).
    result_cache_mode: Option<String>,
    /// Arguments the common pass did not consume, in order.
    rest: Vec<String>,
}

impl Common {
    /// The replication seed list: `seed..seed+seeds`.
    fn seed_list(&self) -> Vec<u64> {
        (0..self.seeds).map(|i| self.seed + i).collect()
    }

    /// The differential-oracle options, when `--oracle` was given.
    fn oracle_options(&self) -> Option<OracleOptions> {
        self.oracle.then_some(OracleOptions {
            inject_fault: self.inject_fault,
        })
    }

    /// The adaptive sampling policy, when `--ci-target` was given (validated).
    fn adaptive(&self) -> Option<AdaptiveOpts> {
        let Some(ci_target_pct) = self.ci_target else {
            if self.min_seeds.is_some() || self.max_seeds.is_some() {
                fail("--min-seeds/--max-seeds require --ci-target (they bound adaptive sampling; use --seeds for a fixed count)");
            }
            return None;
        };
        let opts = AdaptiveOpts {
            ci_target_pct,
            min_seeds: self.min_seeds.unwrap_or(3),
            max_seeds: self.max_seeds.unwrap_or(10),
        };
        if let Err(e) = opts.validate() {
            fail(&e);
        }
        if self.seeds != 1 {
            fail("--seeds and --ci-target are mutually exclusive (adaptive sampling picks the seed count; bound it with --min-seeds/--max-seeds)");
        }
        if self.shard.is_some() {
            fail("--ci-target and --shard are mutually exclusive: adaptive sampling needs every configuration's results to decide when to stop");
        }
        Some(opts)
    }

    /// Rejects sweep-only flags for commands that do not run the cell scheduler.
    fn reject_sweep_flags(&self, command: &str) {
        if self.shard.is_some() {
            fail(&format!("--shard does not apply to {command}"));
        }
        if self.ci_target.is_some() {
            fail(&format!("--ci-target does not apply to {command}"));
        }
        if self.min_seeds.is_some() || self.max_seeds.is_some() {
            fail(&format!(
                "--min-seeds/--max-seeds do not apply to {command}"
            ));
        }
        if self.stats {
            fail(&format!("--stats does not apply to {command}"));
        }
        if self.stats_json.is_some() {
            fail(&format!("--stats-json does not apply to {command}"));
        }
        if self.progress {
            fail(&format!("--progress does not apply to {command}"));
        }
        if self.metrics_out.is_some() {
            fail(&format!("--metrics-out does not apply to {command}"));
        }
        if self.substrate {
            fail(&format!("--substrate does not apply to {command}"));
        }
        if self.oracle {
            fail(&format!("--oracle does not apply to {command}"));
        }
        if self.inject_fault.is_some() {
            fail(&format!("--inject-fault does not apply to {command}"));
        }
    }

    /// Rejects `--model-version` for commands whose outputs do not depend on the
    /// simulator model (trace capture/inspection, journal analysis, registry
    /// inspection) — traces are model-independent by construction.
    fn reject_model_version(&self, command: &str) {
        if self.model_version != 1 {
            fail(&format!("--model-version does not apply to {command}"));
        }
    }

    /// Rejects `--events` for commands that emit no lifecycle or summary events
    /// (merge and coordinate *do* journal summary events, so this is separate
    /// from [`Common::reject_sweep_flags`]).
    fn reject_events_flag(&self, command: &str) {
        if self.events.is_some() {
            fail(&format!("--events does not apply to {command}"));
        }
    }

    /// Rejects executor/report flags for commands that never simulate a cell
    /// (coordinate) — silently ignoring them would hide typos and
    /// misconceptions, the same way [`Common::reject_sweep_flags`] guards the
    /// non-scheduler commands.
    fn reject_simulation_flags(&self, command: &str) {
        for (set, flag) in [
            (self.stats, "--stats"),
            (self.stats_json.is_some(), "--stats-json"),
            (self.progress, "--progress"),
            (self.metrics_out.is_some(), "--metrics-out"),
            (self.json, "--json"),
            (self.substrate, "--substrate"),
            (self.oracle, "--oracle"),
            (self.inject_fault.is_some(), "--inject-fault"),
        ] {
            if set {
                fail(&format!("{flag} does not apply to {command}"));
            }
        }
    }

    /// Rejects the result-cache flags for commands that neither simulate cells
    /// nor manage the store. Only *explicit* flags are rejected — a globally
    /// exported `$SVW_RESULT_CACHE` must not break `merge` or `profile`.
    fn reject_result_cache_flags(&self, command: &str) {
        for (set, flag) in [
            (self.result_cache.is_some(), "--result-cache"),
            (self.no_result_cache, "--no-result-cache"),
            (self.result_cache_mode.is_some(), "--result-cache-mode"),
        ] {
            if set {
                fail(&format!("{flag} does not apply to {command}"));
            }
        }
    }
}

/// Prints the per-worker scheduler statistics accumulated over a run.
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
fn build_observer(common: &Common) -> Option<SweepObserver> {
    let observer = SweepObserver {
        events: common.events.as_ref().map(|path| {
            EventSink::open(path)
                .unwrap_or_else(|e| fail(&format!("cannot open --events {path}: {e}")))
        }),
        metrics: common.metrics_out.is_some().then(SweepMetrics::new),
        progress: common.progress.then(Progress::new),
    };
    (!observer.is_empty()).then_some(observer)
}

/// End-of-run observability epilogue: the final progress line, the
/// `--metrics-out` snapshot, and a warning if any journal append failed.
fn finish_observer(common: &Common, observer: Option<&SweepObserver>) {
    let Some(observer) = observer else { return };
    if let Some(progress) = &observer.progress {
        progress.finish();
    }
    if let (Some(path), Some(metrics)) = (&common.metrics_out, &observer.metrics) {
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

/// `--stats`/`--stats-json` epilogue shared by the scheduler commands.
fn finish_stats(
    common: &Common,
    collector: Option<&StatsCollector>,
    result_cache: Option<&ResultCache>,
) {
    let Some(collector) = collector else { return };
    if common.stats {
        dump_worker_stats(collector, result_cache);
    }
    if let Some(path) = &common.stats_json {
        write_stats_json(path, collector, result_cache);
    }
}

/// End-of-run result-cache summary, printed whenever the cache was enabled.
/// `misses` counts exactly the cells that went on to real simulation (restored
/// and out-of-shard cells never consult the cache), so a fully warm run reads
/// `... 0 simulated, 0 stored` — the line CI's warm-cache smoke greps for.
fn finish_result_cache(result_cache: Option<&ResultCache>) {
    let Some(rc) = result_cache else { return };
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

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("run `svwsim help` for usage");
    std::process::exit(2);
}

fn parse_common(args: Vec<String>) -> Common {
    let mut c = Common {
        trace_len: DEFAULT_TRACE_LEN,
        seed: DEFAULT_SEED,
        seeds: 1,
        jobs: 0,
        out: None,
        shard: None,
        ci_target: None,
        min_seeds: None,
        max_seeds: None,
        model_version: 1,
        stats: false,
        stats_json: None,
        events: None,
        progress: false,
        metrics_out: None,
        substrate: false,
        json: false,
        verbose: false,
        no_cache: false,
        oracle: false,
        inject_fault: None,
        cache_dir: None,
        result_cache: None,
        no_result_cache: false,
        result_cache_mode: None,
        rest: Vec::new(),
    };
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--trace-len" => c.trace_len = parse_num(&mut it, "--trace-len"),
            "--seed" => c.seed = parse_num(&mut it, "--seed"),
            "--seeds" => c.seeds = parse_num(&mut it, "--seeds"),
            "--jobs" => c.jobs = parse_num(&mut it, "--jobs"),
            "--ci-target" => c.ci_target = Some(parse_num(&mut it, "--ci-target")),
            "--min-seeds" => c.min_seeds = Some(parse_num(&mut it, "--min-seeds")),
            "--max-seeds" => c.max_seeds = Some(parse_num(&mut it, "--max-seeds")),
            "--model-version" => c.model_version = parse_num(&mut it, "--model-version"),
            "--stats" => c.stats = true,
            "--stats-json" => {
                c.stats_json = Some(
                    it.next()
                        .unwrap_or_else(|| fail("--stats-json needs a file path")),
                );
            }
            "--events" => {
                c.events = Some(
                    it.next()
                        .unwrap_or_else(|| fail("--events needs a file path")),
                );
            }
            "--progress" => c.progress = true,
            "--metrics-out" => {
                c.metrics_out = Some(
                    it.next()
                        .unwrap_or_else(|| fail("--metrics-out needs a file path")),
                );
            }
            "--substrate" => c.substrate = true,
            "--shard" => {
                let raw = it
                    .next()
                    .unwrap_or_else(|| fail("--shard needs I/N or auto"));
                let shard = if raw == "auto" {
                    Shard::from_env().unwrap_or_else(|e| fail(&e))
                } else {
                    Shard::parse(&raw).unwrap_or_else(|e| fail(&e))
                };
                c.shard = Some(shard);
            }
            "--out" => {
                c.out = Some(it.next().unwrap_or_else(|| fail("--out needs a file path")));
            }
            "--json" => c.json = true,
            "--verbose" => c.verbose = true,
            "--no-cache" => c.no_cache = true,
            "--oracle" => c.oracle = true,
            "--inject-fault" => c.inject_fault = Some(parse_num(&mut it, "--inject-fault")),
            "--cache-dir" => {
                c.cache_dir = Some(
                    it.next()
                        .unwrap_or_else(|| fail("--cache-dir needs a directory")),
                );
            }
            "--result-cache" => {
                c.result_cache = Some(
                    it.next()
                        .unwrap_or_else(|| fail("--result-cache needs a directory")),
                );
            }
            "--no-result-cache" => c.no_result_cache = true,
            "--result-cache-mode" => {
                c.result_cache_mode = Some(
                    it.next()
                        .unwrap_or_else(|| fail("--result-cache-mode needs rw, ro, or wo")),
                );
            }
            _ => c.rest.push(arg),
        }
    }
    if c.trace_len == 0 {
        fail("--trace-len must be positive");
    }
    if c.seeds == 0 {
        fail("--seeds must be positive");
    }
    if c.model_version < 1 || c.model_version > LATEST_MODEL_VERSION {
        fail(&format!(
            "--model-version {} is not implemented by this binary (supported: 1..={})",
            c.model_version, LATEST_MODEL_VERSION
        ));
    }
    if c.inject_fault.is_some() && !c.oracle {
        fail("--inject-fault requires --oracle (it corrupts the oracle checker's view of a load, not the simulation)");
    }
    c
}

fn parse_num<T: std::str::FromStr>(it: &mut impl Iterator<Item = String>, flag: &str) -> T {
    let Some(raw) = it.next() else {
        fail(&format!("{flag} needs a value"));
    };
    raw.parse()
        .unwrap_or_else(|_| fail(&format!("invalid value {raw:?} for {flag}")))
}

/// Pulls the value of `--flag` out of the leftover arguments, if present.
fn take_flag_value(rest: &mut Vec<String>, flag: &str) -> Option<String> {
    let pos = rest.iter().position(|a| a == flag)?;
    if pos + 1 >= rest.len() {
        fail(&format!("{flag} needs a value"));
    }
    let value = rest.remove(pos + 1);
    rest.remove(pos);
    Some(value)
}

fn reject_leftovers(rest: &[String]) {
    if let Some(first) = rest.first() {
        fail(&format!("unexpected argument {first:?}"));
    }
}

fn open_cache(common: &Common) -> Option<TraceCache> {
    if common.no_cache {
        return None;
    }
    let result = match &common.cache_dir {
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

/// Opens the content-addressed result cache when `--result-cache DIR` (or
/// `$SVW_RESULT_CACHE`) names one and `--no-result-cache` was not given.
/// Warn-and-degrade: an unusable cache directory must never fail a sweep that
/// can simply simulate everything.
fn open_result_cache(common: &Common) -> Option<ResultCache> {
    if common.no_result_cache {
        return None;
    }
    let dir = common
        .result_cache
        .clone()
        .or_else(|| std::env::var("SVW_RESULT_CACHE").ok());
    let Some(dir) = dir else {
        if common.result_cache_mode.is_some() {
            fail("--result-cache-mode requires --result-cache DIR (or $SVW_RESULT_CACHE)");
        }
        return None;
    };
    let mode = match &common.result_cache_mode {
        Some(raw) => CacheMode::parse(raw).unwrap_or_else(|e| fail(&e)),
        None => CacheMode::ReadWrite,
    };
    match ResultCache::open(&dir, mode) {
        Ok(rc) => {
            if common.verbose {
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

fn workload_by_name(name: &str) -> WorkloadProfile {
    WorkloadProfile::by_name(name).unwrap_or_else(|| {
        fail(&format!(
            "unknown workload {name:?} (expected one of: {})",
            svw_workloads::spec2000int_names().join(", ")
        ))
    })
}

// ------------------------------------------------------------------- capture

fn cmd_capture(common: Common) {
    let mut rest = common.rest.clone();
    let workload = take_flag_value(&mut rest, "--workload")
        .unwrap_or_else(|| fail("capture needs --workload <NAME|all>"));
    // `--out` is consumed by the common pass (it names the JSONL stream for sweeps);
    // for capture it names the trace file.
    let out_file = common.out.clone();
    let out_dir = take_flag_value(&mut rest, "--out-dir");
    reject_leftovers(&rest);

    let profiles: Vec<WorkloadProfile> = if workload == "all" {
        WorkloadProfile::spec2000int()
    } else {
        vec![workload_by_name(&workload)]
    };
    if profiles.len() > 1 && out_file.is_some() {
        fail("capturing multiple workloads needs --out-dir, not --out");
    }

    for profile in &profiles {
        let path = match (&out_file, &out_dir) {
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
        let program = profile.generate(common.trace_len, common.seed);
        let file = std::fs::File::create(&path)
            .unwrap_or_else(|e| fail(&format!("cannot create {}: {e}", path.display())));
        svw_trace::write_program(
            std::io::BufWriter::new(file),
            &program,
            common.trace_len,
            common.seed,
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

fn cmd_inspect(common: Common) {
    let mut rest = common.rest;
    if rest.len() != 1 {
        fail("inspect needs exactly one trace file argument");
    }
    let path = rest.remove(0);
    let reader =
        TraceReader::open(&path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let header = reader.header().clone();
    let program = reader
        .read_program()
        .unwrap_or_else(|e| fail(&format!("cannot decode {path}: {e}")));
    let stats = program.stats();
    if common.json {
        println!(
            "{}",
            json::object([
                ("file", json::string(&path)),
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

fn cmd_run(mut common: Common) {
    if common.shard.is_some() {
        fail("--shard applies to sweep/fig*/tables, not run");
    }
    if common.ci_target.is_some() {
        fail("--ci-target applies to sweep/fig*/tables, not run");
    }
    if common.min_seeds.is_some() || common.max_seeds.is_some() {
        fail("--min-seeds/--max-seeds apply to adaptive sweeps, not run");
    }
    if common.substrate {
        fail("--substrate applies to sweep/fig*/tables, not run");
    }
    let mut rest = std::mem::take(&mut common.rest);
    let trace = take_flag_value(&mut rest, "--trace");
    let workload = take_flag_value(&mut rest, "--workload");
    let config_name =
        take_flag_value(&mut rest, "--config").unwrap_or_else(|| "nlq-svw".to_string());
    reject_leftovers(&rest);

    if config_name == "list" {
        for cfg in presets::named_configs() {
            println!("{}", cfg.name);
        }
        return;
    }
    let config = presets::config_by_name(&config_name)
        .unwrap_or_else(|| {
            fail(&format!(
                "unknown config {config_name:?} (use `--config list` to see the choices)"
            ))
        })
        .with_model_version(common.model_version);

    if common.seeds > 1 {
        match (&trace, &workload) {
            (None, Some(w)) => return run_replicated(&common, w, config, &config_name),
            (Some(_), _) => {
                fail("--seeds applies to --workload runs; a trace file has a fixed seed")
            }
            _ => fail("run needs exactly one of --trace FILE or --workload NAME"),
        }
    }

    let (name, seed, stats) = match (trace, workload) {
        (Some(path), None) => {
            if common.stats || common.stats_json.is_some() {
                fail(
                    "--stats/--stats-json apply to scheduler runs (--workload), not --trace replay",
                );
            }
            if common.events.is_some() || common.progress || common.metrics_out.is_some() {
                fail("--events/--progress/--metrics-out apply to scheduler runs (--workload), not --trace replay");
            }
            if common.result_cache.is_some()
                || common.no_result_cache
                || common.result_cache_mode.is_some()
            {
                fail(
                    "--result-cache flags apply to scheduler runs (--workload), not --trace replay",
                );
            }
            // Decode the whole trace before simulating anything, so a file that is
            // corrupt partway through fails cleanly here instead of mid-run.
            let (header, program) = TraceReader::open(&path)
                .and_then(|reader| {
                    let header = reader.header().clone();
                    reader.read_program().map(|program| (header, program))
                })
                .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
            if common.verbose {
                eprintln!(
                    "[svwsim] replaying {} instructions of {} from {path}",
                    program.len(),
                    header.name
                );
            }
            let cpu = Cpu::new(config, &program);
            let stats = match common.oracle_options() {
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
            // `--out` streams this cell too (keyed by the trace's own identity;
            // replay runs are never skipped on resume).
            if let Some(sink) = open_sink(&common) {
                let id = CellId {
                    matrix: "run".to_string(),
                    workload: header.name.clone(),
                    config: config_name.clone(),
                    seed: header.seed,
                    trace_len: header.requested_len,
                    fingerprint: header.fingerprint,
                    model_version: common.model_version,
                    spec_fingerprint: 0,
                };
                if let Err(e) = sink.append(&id, &Ok(stats.clone())) {
                    eprintln!("warning: failed to append to the JSONL stream: {e}");
                }
            }
            (header.name, header.seed, stats)
        }
        (None, Some(w)) => {
            // One cell on the scheduler, so --out (stream + resume), --jobs, the
            // cache, and panic capture behave exactly as they do for sweeps.
            let profile = workload_by_name(&w);
            let cache = open_cache(&common);
            let result_cache = open_result_cache(&common);
            let sink = open_sink(&common);
            let collector = (common.stats || common.stats_json.is_some()).then(StatsCollector::new);
            let observer = build_observer(&common);
            let opts = RunOptions {
                cache: cache.as_ref(),
                verbose: common.verbose,
                jobs: common.jobs,
                sink: sink.as_ref(),
                shard: None,
                stats: collector.as_ref(),
                obs: observer.as_ref(),
                arenas: None,
                oracle: common.oracle_options(),
                result_cache: result_cache.as_ref(),
            };
            let result = run_cells(
                "run",
                &[profile],
                std::slice::from_ref(&config),
                common.trace_len,
                &[common.seed],
                0,
                &opts,
            );
            result.emit_warnings();
            finish_observer(&common, observer.as_ref());
            finish_stats(&common, collector.as_ref(), result_cache.as_ref());
            finish_result_cache(result_cache.as_ref());
            let cell = &result.cells[0];
            match cell.stats() {
                Some(stats) => (w, common.seed, stats.clone()),
                None => fail(&format!(
                    "simulation of {w} failed: {}",
                    cell.error().unwrap_or("unknown")
                )),
            }
        }
        _ => fail("run needs exactly one of --trace FILE or --workload NAME"),
    };

    if common.json {
        println!("{}", cpu_stats_json(&name, &config_name, seed, &stats));
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

/// `svwsim run --workload W --seeds K`: replicates one (workload, configuration)
/// pair over K seeds on the cell scheduler and reports per-seed statistics plus the
/// mean ± 95% CI aggregates.
fn run_replicated(
    common: &Common,
    workload: &str,
    config: svw_cpu::MachineConfig,
    config_name: &str,
) {
    let profile = workload_by_name(workload);
    let cache = open_cache(common);
    let result_cache = open_result_cache(common);
    let sink = open_sink(common);
    let collector = (common.stats || common.stats_json.is_some()).then(StatsCollector::new);
    let observer = build_observer(common);
    let opts = RunOptions {
        cache: cache.as_ref(),
        verbose: common.verbose,
        jobs: common.jobs,
        sink: sink.as_ref(),
        shard: None,
        stats: collector.as_ref(),
        obs: observer.as_ref(),
        arenas: None,
        oracle: common.oracle_options(),
        result_cache: result_cache.as_ref(),
    };
    let seeds = common.seed_list();
    let result = run_cells(
        "run",
        &[profile],
        std::slice::from_ref(&config),
        common.trace_len,
        &seeds,
        0,
        &opts,
    );
    result.emit_warnings();
    finish_observer(common, observer.as_ref());
    finish_stats(common, collector.as_ref(), result_cache.as_ref());
    finish_result_cache(result_cache.as_ref());
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
    if common.json {
        println!(
            "{}",
            json::object([
                ("workload", json::string(workload)),
                ("config", json::string(config_name)),
                ("trace_len", json::uint(common.trace_len as u64)),
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
            seeds.len(),
            common.seed
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
    if common.oracle && result.failures().count() > 0 {
        std::process::exit(1);
    }
}

// --------------------------------------------------------------------- sweep

/// Opens the `--out` JSONL sink, reporting what a resume will skip.
fn open_sink(common: &Common) -> Option<JsonlSink> {
    common.out.as_ref().map(|path| {
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

/// Builds the executor context shared by `--figure` and `--spec` sweeps, runs
/// `render` under it, prints the reports (text or `--json`), and runs the
/// observability/stats epilogues.
fn render_reports(common: &Common, render: impl FnOnce(&ExperimentCtx<'_>) -> Vec<FigureReport>) {
    let cache = open_cache(common);
    let result_cache = open_result_cache(common);
    let sink = open_sink(common);
    // --oracle forces the collector even without --stats: the per-worker failed
    // counters are how the epilogue below detects divergences across however many
    // sweeps the render ran.
    let collector =
        (common.stats || common.stats_json.is_some() || common.oracle).then(StatsCollector::new);
    let observer = build_observer(common);
    // One decode-once arena registry per invocation: the matrices of a
    // multi-table artifact (and the artifacts of one render) share each decoded
    // trace instead of re-decoding it per sweep.
    let arenas = TraceArenas::new();
    let ctx = ExperimentCtx {
        trace_len: common.trace_len,
        seeds: common.seed_list(),
        adaptive: common.adaptive(),
        substrate: common.substrate,
        model_version: common.model_version,
        opts: RunOptions {
            cache: cache.as_ref(),
            verbose: common.verbose,
            jobs: common.jobs,
            sink: sink.as_ref(),
            shard: common.shard,
            stats: collector.as_ref(),
            obs: observer.as_ref(),
            arenas: Some(&arenas),
            oracle: common.oracle_options(),
            result_cache: result_cache.as_ref(),
        },
    };
    let reports = render(&ctx);
    if common.json {
        println!("{}", json::array(reports.iter().map(|r| r.to_json())));
    } else {
        for report in &reports {
            println!("{report}");
        }
    }
    finish_observer(common, observer.as_ref());
    finish_stats(common, collector.as_ref(), result_cache.as_ref());
    finish_result_cache(result_cache.as_ref());
    if common.oracle {
        let failed: u64 = collector
            .as_ref()
            .map_or(0, |c| c.workers().iter().map(|w| w.cells_failed).sum());
        if failed > 0 {
            eprintln!(
                "error: --oracle: {failed} cell(s) failed verification (divergence or panic); \
                 the report notes above name the first failing cell"
            );
            std::process::exit(1);
        }
    }
}

fn run_artifacts(common: &Common, names: &[&str]) {
    render_reports(common, |ctx| {
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
                if common.verbose {
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
fn run_spec(common: &Common, spec_arg: &str) {
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
    let resolved = registry::resolve_spec(&spec, common.model_version).unwrap_or_else(|e| fail(&e));
    render_reports(common, |ctx| {
        vec![render_resolved(ctx, &resolved).unwrap_or_else(|e| fail(&e))]
    });
}

// --------------------------------------------------------------------- merge

/// `svwsim merge SHARD.jsonl... --figure ART[,ART] --out merged.jsonl`: validates
/// that the shard files exactly cover the named sweep (fingerprints, no gaps, no
/// conflicting duplicates) and writes the complete result set in canonical order.
fn cmd_merge(mut common: Common) {
    common.reject_sweep_flags("merge");
    common.reject_result_cache_flags(
        "merge (it only stitches shard files; cached cells enter through sweep/coordinate)",
    );
    let mut rest = std::mem::take(&mut common.rest);
    let figure = take_flag_value(&mut rest, "--figure")
        .unwrap_or_else(|| fail("merge needs --figure <artifact[,artifact...]> to know which cells the sweep must cover"));
    let out = common
        .out
        .clone()
        .unwrap_or_else(|| fail("merge needs --out FILE for the merged result set"));
    if rest.is_empty() {
        fail("merge needs at least one shard JSONL file");
    }

    let artifacts = expand_artifacts(&figure);
    let expected = expected_cells(
        &artifacts,
        common.trace_len as u64,
        &common.seed_list(),
        common.model_version,
    )
    .unwrap_or_else(|e| fail(&e.to_string()));
    let inputs: Vec<MergeInput> = rest
        .iter()
        .map(|path| MergeInput {
            name: path.clone(),
            content: std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}"))),
        })
        .collect();

    match merge_shards(&expected, &inputs) {
        Ok(report) => {
            std::fs::write(&out, &report.merged)
                .unwrap_or_else(|e| fail(&format!("cannot write {out}: {e}")));
            if let Some(path) = &common.events {
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

fn cmd_sweep(mut common: Common) {
    let figure = take_flag_value(&mut common.rest, "--figure");
    let plan = take_flag_value(&mut common.rest, "--plan");
    let spec = take_flag_value(&mut common.rest, "--spec");
    let rest = std::mem::take(&mut common.rest);
    reject_leftovers(&rest);
    match (figure, plan, spec) {
        (Some(figure), None, None) => run_artifacts(&common, &[figure.as_str()]),
        (None, Some(plan), None) => run_plan(&common, &plan),
        (None, None, Some(spec)) => run_spec(&common, &spec),
        _ => fail(
            "sweep needs exactly one of --figure <artifact>, --spec <FILE.toml|builtin:NAME>, \
             or --plan <FILE.plan.jsonl>",
        ),
    }
}

/// `svwsim sweep --plan FILE [--shard I/N] [--out shardI.jsonl]`: drain a
/// coordinator-issued requeue plan through the ordinary executor. No artifact is
/// rendered — the results stream to `--out` for the coordinator to collect.
fn run_plan(common: &Common, path: &str) {
    if common.ci_target.is_some() || common.min_seeds.is_some() || common.max_seeds.is_some() {
        fail("--ci-target/--min-seeds/--max-seeds do not apply to --plan runs: the plan file already encodes the coordinator's adaptive decisions");
    }
    if common.seeds != 1 {
        fail("--seeds does not apply to --plan runs: the plan file lists its cells explicitly");
    }
    if common.model_version != 1 {
        fail("--model-version does not apply to --plan runs: the plan file records the model version in its lineage header");
    }
    if common.json || common.substrate {
        fail("--json/--substrate do not apply to --plan runs: no artifact is rendered (the final render happens from the coordinator's merged file)");
    }
    if common.out.is_none() {
        fail("--plan runs need --out FILE: a plan's results exist only as the JSONL stream the coordinator collects — without it the simulation work would be discarded");
    }
    let content = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("cannot read --plan {path}: {e}")));
    let plan_file = svw_sim::parse_plan_file(&content)
        .unwrap_or_else(|e| fail(&format!("invalid plan file {path}: {e}")));
    let plans = svw_sim::resolve_plan(&plan_file, common.shard)
        .unwrap_or_else(|e| fail(&format!("cannot resolve plan file {path}: {e}")));

    let cache = open_cache(common);
    let result_cache = open_result_cache(common);
    let sink = open_sink(common);
    let collector = (common.stats || common.stats_json.is_some()).then(StatsCollector::new);
    let observer = build_observer(common);
    // Plans in one requeue round share traces (the round's cells are new seeds
    // of the same workloads): decode each arena once across the round.
    let arenas = TraceArenas::new();
    let opts = RunOptions {
        cache: cache.as_ref(),
        verbose: common.verbose,
        jobs: common.jobs,
        sink: sink.as_ref(),
        // The plan already carries the shard assignment (applied by position
        // across the whole file); the executor must not re-slice.
        shard: None,
        stats: collector.as_ref(),
        obs: observer.as_ref(),
        arenas: Some(&arenas),
        oracle: common.oracle_options(),
        result_cache: result_cache.as_ref(),
    };
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
    finish_observer(common, observer.as_ref());
    finish_stats(common, collector.as_ref(), result_cache.as_ref());
    finish_result_cache(result_cache.as_ref());
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
fn cmd_coordinate(mut common: Common) -> ExitCode {
    if common.shard.is_some() {
        fail("--shard does not apply to coordinate (shards pass it to `sweep --plan`)");
    }
    if common.seeds != 1 {
        fail("--seeds does not apply to coordinate: adaptive sampling picks the seed count");
    }
    if common.jobs != 0 {
        fail("--jobs does not apply to coordinate (pass it to `sweep --plan`)");
    }
    common.reject_simulation_flags(
        "coordinate (it only reads shard files — pass simulation flags to `sweep --plan`)",
    );
    let mut rest = std::mem::take(&mut common.rest);
    let figure = take_flag_value(&mut rest, "--figure").unwrap_or_else(|| {
        fail("coordinate needs --figure <artifact> (one artifact per coordination)")
    });
    if figure.contains(',') || figure == "tables" {
        fail("coordinate drives one artifact at a time; run one coordination per artifact");
    }
    let plan_out = take_flag_value(&mut rest, "--plan-out")
        .unwrap_or_else(|| fail("coordinate needs --plan-out FILE for requeue plans"));
    let out = common
        .out
        .clone()
        .unwrap_or_else(|| fail("coordinate needs --out FILE for the merged result set"));
    // Everything left must be a shard file path: a stray `--misspelled-flag`
    // quietly becoming an "empty shard stream" would hide the typo forever.
    if let Some(flagish) = rest.iter().find(|a| a.starts_with('-')) {
        fail(&format!("unexpected argument {flagish:?}"));
    }
    if rest.is_empty() {
        fail("coordinate needs the shard JSONL files (they may not exist yet on round 0)");
    }
    let Some(ci_target_pct) = common.ci_target else {
        fail("coordinate needs --ci-target PCT (it exists to distribute adaptive sweeps; use `merge` for fixed --seeds sweeps)");
    };
    let adaptive = svw_sim::AdaptiveOpts {
        ci_target_pct,
        min_seeds: common.min_seeds.unwrap_or(3),
        max_seeds: common.max_seeds.unwrap_or(10),
    };
    if let Err(e) = adaptive.validate() {
        fail(&e);
    }

    // Shard files that do not exist yet (round 0) read as empty streams; any
    // other read error (permissions, I/O) is fatal — treating it as empty would
    // make the driver loop requeue the same cells forever.
    let inputs: Vec<MergeInput> = rest
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
    let result_cache = open_result_cache(&common);
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
            artifact: figure.clone(),
            trace_len: common.trace_len as u64,
            start_seed: common.seed,
            adaptive,
            model_version: common.model_version,
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
            std::fs::write(&out, &merged)
                .unwrap_or_else(|e| fail(&format!("cannot write {out}: {e}")));
            emit_round_summary(&common, &figure, "converged", None, cells as u64);
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
                common.trace_len,
                common.seed,
                ci_target_pct,
                adaptive.min_seeds,
                adaptive.max_seeds
            );
            ExitCode::SUCCESS
        }
        Ok(svw_sim::CoordinateOutcome::Pending {
            plan,
            rounds_complete,
            missing,
        }) => {
            std::fs::write(&plan_out, svw_sim::write_plan_file(&plan))
                .unwrap_or_else(|e| fail(&format!("cannot write {plan_out}: {e}")));
            emit_round_summary(
                &common,
                &figure,
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
    common: &Common,
    artifact: &str,
    outcome: &str,
    rounds_complete: Option<u64>,
    cells: u64,
) {
    let Some(path) = &common.events else { return };
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
fn cmd_profile(mut common: Common) {
    common.reject_sweep_flags("profile");
    common.reject_result_cache_flags("profile (journals already record cell_cached events)");
    common.reject_events_flag("profile (pass the journals as positional arguments)");
    common.reject_model_version("profile (journals record lineage; profile only reads them)");
    if common.out.is_some() {
        fail("--out does not apply to profile (the report prints to stdout)");
    }
    let mut rest = std::mem::take(&mut common.rest);
    let top: usize = take_flag_value(&mut rest, "--top")
        .map(|raw| {
            raw.parse()
                .unwrap_or_else(|_| fail(&format!("invalid value {raw:?} for --top")))
        })
        .unwrap_or(5);
    if let Some(flagish) = rest.iter().find(|a| a.starts_with('-')) {
        fail(&format!("unexpected argument {flagish:?}"));
    }
    if rest.is_empty() {
        fail("profile needs at least one --events journal file");
    }
    let files: Vec<(String, String)> = rest
        .iter()
        .map(|path| {
            let content = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
            (path.clone(), content)
        })
        .collect();
    let report = profile_events(&files, top);
    if common.json {
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
fn cmd_experiments(mut common: Common) -> ExitCode {
    common.reject_sweep_flags("experiments");
    common.reject_result_cache_flags("experiments");
    common.reject_events_flag("experiments");
    common.reject_model_version("experiments (specs resolve at every supported version)");
    if common.out.is_some() {
        fail("--out does not apply to experiments (the report prints to stdout)");
    }
    let mut rest = std::mem::take(&mut common.rest);
    if rest.is_empty() {
        fail("experiments needs a subcommand: list, show <NAME>, or validate [SPEC.toml...]");
    }
    let sub = rest.remove(0);
    match sub.as_str() {
        "list" => {
            reject_leftovers(&rest);
            if common.json {
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
            if common.json {
                fail("--json does not apply to experiments show (the output is canonical TOML)");
            }
            if rest.len() != 1 {
                fail("experiments show needs exactly one builtin spec name");
            }
            let name = &rest[0];
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
            if common.json {
                fail("--json does not apply to experiments validate");
            }
            if let Some(flagish) = rest.iter().find(|a| a.starts_with('-')) {
                fail(&format!("unexpected argument {flagish:?}"));
            }
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
fn cmd_cache(mut common: Common) {
    common.reject_sweep_flags("cache");
    common.reject_events_flag("cache");
    common.reject_model_version("cache (entries record their own lineage)");
    if common.out.is_some() {
        fail("--out does not apply to cache (the report prints to stdout)");
    }
    if common.no_result_cache {
        fail("--no-result-cache does not apply to cache (it manages the store directly)");
    }
    if common.result_cache_mode.is_some() {
        fail("--result-cache-mode does not apply to cache (stats/gc/verify operate on the store directly)");
    }
    let mut rest = std::mem::take(&mut common.rest);
    if rest.is_empty() {
        fail("cache needs a subcommand: stats, gc --max-bytes N, or verify");
    }
    let sub = rest.remove(0);
    let max_bytes = take_flag_value(&mut rest, "--max-bytes");
    reject_leftovers(&rest);
    if sub != "gc" && max_bytes.is_some() {
        fail("--max-bytes applies to cache gc");
    }
    let dir = common
        .result_cache
        .clone()
        .or_else(|| std::env::var("SVW_RESULT_CACHE").ok())
        .unwrap_or_else(|| fail("cache needs --result-cache DIR (or $SVW_RESULT_CACHE)"));
    let rc = ResultCache::open(&dir, CacheMode::ReadWrite)
        .unwrap_or_else(|e| fail(&format!("cannot open result cache {dir}: {e}")));
    match sub.as_str() {
        "stats" => {
            let s = rc
                .stats()
                .unwrap_or_else(|e| fail(&format!("cannot read result cache {dir}: {e}")));
            if common.json {
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
            if common.json {
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
            let max: u64 = max_bytes
                .unwrap_or_else(|| {
                    fail("cache gc needs --max-bytes N (the store size to shrink to)")
                })
                .parse()
                .unwrap_or_else(|_| fail("invalid value for --max-bytes"));
            let r = rc
                .gc(max)
                .unwrap_or_else(|e| fail(&format!("cannot gc result cache {dir}: {e}")));
            if common.json {
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

fn cmd_figure_shortcut(mut common: Common, figure: &str) {
    // The shortcuts also accept the historical positional [trace_len] [seed],
    // layered over whatever --trace-len/--seed flags already set.
    let positionals = std::mem::take(&mut common.rest);
    match svw_sim::parse_len_seed(positionals.into_iter(), common.trace_len, common.seed) {
        Ok((trace_len, seed)) => {
            common.trace_len = trace_len;
            common.seed = seed;
        }
        Err(msg) => fail(&msg),
    }
    run_artifacts(&common, &[figure]);
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    let command = args.remove(0);
    match command.as_str() {
        "help" | "--help" | "-h" => print!("{USAGE}"),
        "capture" => {
            let common = parse_common(args);
            common.reject_sweep_flags("capture");
            common.reject_events_flag("capture");
            common.reject_model_version("capture (traces are model-independent)");
            common.reject_result_cache_flags(
                "capture (traces are cached separately; see --cache-dir)",
            );
            cmd_capture(common);
        }
        "inspect" => {
            let common = parse_common(args);
            common.reject_sweep_flags("inspect");
            common.reject_events_flag("inspect");
            common.reject_model_version("inspect");
            common.reject_result_cache_flags("inspect");
            cmd_inspect(common);
        }
        "run" => cmd_run(parse_common(args)),
        "sweep" => cmd_sweep(parse_common(args)),
        "merge" => cmd_merge(parse_common(args)),
        "coordinate" => return cmd_coordinate(parse_common(args)),
        "profile" => cmd_profile(parse_common(args)),
        "experiments" => return cmd_experiments(parse_common(args)),
        "cache" => cmd_cache(parse_common(args)),
        "fig5" | "fig6" | "fig7" | "fig8" => cmd_figure_shortcut(parse_common(args), &command),
        "tables" => {
            let common = parse_common(args);
            reject_leftovers(&common.rest);
            run_artifacts(&common, &["ssn-width", "spec-ssbf", "summary"]);
        }
        other => fail(&format!("unknown command {other:?}")),
    }
    ExitCode::SUCCESS
}

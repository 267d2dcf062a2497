//! # svw-sim — experiment harness
//!
//! This crate turns the simulator stack into the paper's evaluation around an
//! explicit **Plan → Execute → Collect** architecture: it defines the exact machine
//! configurations compared in each figure ([`presets`]), declares every paper
//! artifact as a schema-versioned experiment spec ([`registry`] — embedded TOML
//! specs with canonical serialization and fingerprints, plus `--spec FILE` for
//! user-defined sweeps), turns those specs into typed sweep plans
//! ([`planner`] — ordered cells with their full lineage), executes any plan on a
//! cell-granular work-stealing scheduler — with workload traces served by the
//! on-disk trace cache, per-cell panic capture, and an optional streaming-JSONL
//! results file with resume ([`runner`], [`jsonl`]) — and formats the results as
//! the tables/series the paper plots ([`report`]), with mean ± 95% confidence
//! intervals under multi-seed replication, in text or JSON.
//!
//! Instead of a fixed seed count, `--ci-target PCT`
//! ([`experiments::AdaptiveOpts`]) samples adaptively: each workload receives
//! extra seeds until the 95% CI of IPC is within the target for every
//! configuration, or `--max-seeds` is reached.
//!
//! One unified binary, `svwsim`, drives everything:
//!
//! | command | effect |
//! |---|---|
//! | `svwsim capture` | generate a workload and write a `.svwt` trace file |
//! | `svwsim inspect` | print a `.svwt` file's header and mix statistics |
//! | `svwsim run` | simulate one configuration over a trace file or workload |
//! | `svwsim sweep --figure fig5` | reproduce a paper artifact over its config matrix |
//! | `svwsim fig5` … `fig8` | shortcuts for `sweep --figure …` |
//! | `svwsim tables` | the three table artifacts (ssn-width, spec-ssbf, summary) |
//! | `svwsim profile` | phase breakdowns from `--events` journals |
//! | `svwsim experiments` | list/show/validate the experiment spec registry |
//! | `svwsim cache` | manage the content-addressed result cache (stats/gc/verify) |
//!
//! Run it with `cargo run --release -p svw-sim --bin svwsim -- <command> --help` style
//! arguments (`svwsim help` prints the full usage). Sweeps accept `--trace-len`,
//! `--seed`, `--seeds K` (multi-seed replication), `--ci-target`/`--min-seeds`/
//! `--max-seeds` (adaptive sampling), `--jobs N` (worker threads), and
//! `--out results.jsonl` (streaming results + resume) overrides, `--json` for
//! machine-readable reports, `--substrate` for substrate-level tables (SSBF
//! lookup/update traffic, L2 miss rate, forwarding-buffer hit rate), `--stats` for
//! per-worker scheduler statistics and trace-acquisition counters (`--stats-json
//! FILE` for the machine-readable twin), `--verbose` for trace-cache activity
//! logging, and `--no-cache` to force regeneration.
//!
//! Finished cells themselves are memoizable across sweeps, users, and CI
//! through the content-addressed **result cache** ([`cache`]): `--result-cache
//! DIR` makes [`runner::execute_plan`] consult a shared store keyed by what a
//! cell simulates ([`SimKey`]: model version, machine and workload
//! fingerprints, trace length, seed) before scheduling anything — a hit
//! becomes [`runner::CellOutcome::Cached`], skipping trace acquisition, decode,
//! and simulation entirely — and publishes every freshly simulated cell back via
//! atomic tmp+rename writes, so concurrent sweeps can share one directory.
//! The cache only stores; the runner counts its hits, misses and stores in
//! [`SweepMetrics`]. `--no-result-cache` is the A/B control (renders are byte-identical either
//! way), `--result-cache-mode ro|wo` serves CI read-only or warm-only flows,
//! and `svwsim cache stats|gc|verify` manages the store (see
//! `docs/CACHING.md`).
//!
//! Sweeps are also observable without perturbing their outputs ([`obs`],
//! [`events`], [`profile`]): `--events FILE.jsonl` appends a kill-tolerant
//! per-cell lifecycle journal (`planned → trace_acquired → decoded → simulated →
//! written`, with worker ids and per-phase durations), `--progress` reports live
//! completion/rate/ETA on stderr, and `svwsim profile` turns journals into
//! phase breakdowns, slowest-cell lists, and worker utilization. One counter
//! set, [`SweepMetrics`], counts everything a sweep does; `--stats` and
//! `--stats-json` are its only renderings, and the result-cache summary line
//! and the `--oracle` failure count read it too.
//! Every artifact stays byte-identical with instrumentation on or off.
//!
//! Results carry **lineage**: every JSONL cell line and result-cache entry
//! records the `(result schema, model version, spec fingerprint)` triple it was
//! produced under. The schema and the model version are part of the
//! [`SimKey`], so a resume or cache lookup never mixes model versions, and a
//! render at `--model-version 2` records why it
//! diverges from the byte-identical v1 baseline (see `docs/EXPERIMENTS.md`). The
//! operational walkthrough lives in `docs/SWEEPS.md` and `docs/OBSERVABILITY.md`;
//! the crate map in `docs/ARCHITECTURE.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod events;
pub mod experiments;
pub mod json;
pub mod jsonl;
pub mod obs;
pub mod planner;
pub mod presets;
pub mod profile;
pub mod registry;
pub mod report;
pub mod runner;

pub use cache::{CacheMode, GcReport, ResultCache, StoreStats, VerifyReport};
pub use events::{parse_event_line, read_events, Event, EventSink};
pub use experiments::{
    artifact_resolved, render_artifact, render_resolved, render_specs, AdaptiveOpts, ExperimentCtx,
    Stat,
};
pub use jsonl::{CellId, JsonlSink, SimKey};
pub use obs::{CellProgress, Progress, SweepMetrics, SweepObserver, WorkerStats};
pub use planner::{artifact_plans, PlannedCell, SweepPlan};
pub use profile::{profile_events, CellProfile, PhaseTotals, ProfileReport};
pub use registry::{
    builtin_specs, parse_spec, resolve_spec, spec_by_name, spec_fingerprint, ExperimentSpec,
    ResolvedSpec, SpecError, LATEST_MODEL_VERSION, RESULT_SCHEMA_VERSION, SPEC_SCHEMA_VERSION,
};
pub use report::{FigureReport, SeriesTable};
pub use runner::{
    execute_plan, run_cells, CellOutcome, ExperimentCell, RunOptions, SweepResult, TraceSource,
    DEFAULT_SEED, DEFAULT_TRACE_LEN,
};
pub use svw_oracle::{DifferentialChecker, Divergence, DivergenceKind, OracleOptions};

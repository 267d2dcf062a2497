//! Spec-driven artifact rendering: every paper artifact is resolved from its
//! declarative [`crate::registry`] spec, and a render runs in two steps.
//!
//! 1. **Execute.** The (workload × configuration × seed) matrices of every spec
//!    in the render run in rounds, each one [`crate::planner::render_plan`] on
//!    the cell-parallel scheduler, so a trace several matrices replay is
//!    acquired once per round. A fixed-seed render is one round; an adaptive
//!    (`--ci-target`) render adds a round per extra seed.
//! 2. **Render.** The renderer the spec names turns the executed matrices into
//!    a [`FigureReport`] with the same series the paper plots.
//!
//! Under multi-seed replication every plotted value is a mean over seeds and
//! carries a 95% confidence half-interval; failed cells are excluded from the
//! aggregates and surfaced as report notes. Renders at model versions above 1
//! append a lineage note recording why they diverge from the byte-identical v1
//! baseline.

use svw_cpu::CpuStats;

use crate::planner::{render_plan, MatrixRound};
use crate::registry::{self, ResolvedMatrix, ResolvedSpec};
use crate::report::{FigureReport, SeriesTable};
use crate::runner::{execute_plan_in, ArenaPool, ExperimentCell, RunOptions};

/// Everything an experiment needs beyond its configuration matrix: trace length,
/// replication seeds, and how to acquire workload traces and schedule cells.
#[derive(Clone, Debug)]
pub struct ExperimentCtx<'c> {
    /// Per-workload dynamic trace length.
    pub trace_len: usize,
    /// Workload-generation seeds; one cell is run per (workload, config, seed).
    /// Under adaptive sampling only the first element counts: it is the base
    /// seed, and every further seed continues the arithmetic run.
    pub seeds: Vec<u64>,
    /// Adaptive CI-targeted sampling: when set, each workload keeps receiving extra
    /// seeds until its confidence intervals meet the target (or `max_seeds` is hit)
    /// instead of running a fixed seed count.
    pub adaptive: Option<AdaptiveOpts>,
    /// Append substrate-level tables (SSBF lookup/update traffic, L2 miss rate) to
    /// every artifact report. Off by default so the default renderings stay
    /// byte-stable across versions.
    pub substrate: bool,
    /// Behavioural model version artifacts are resolved at (see
    /// [`svw_cpu::MachineConfig::model_version`]). Version 1 — the default —
    /// reproduces the historical renders byte-for-byte.
    pub model_version: u32,
    /// Trace-acquisition and scheduling options (cache, verbosity, jobs, JSONL sink).
    pub opts: RunOptions<'c>,
}

impl ExperimentCtx<'_> {
    /// A single-seed context that regenerates every workload (no cache, quiet).
    pub fn new(trace_len: usize, seed: u64) -> Self {
        ExperimentCtx {
            trace_len,
            seeds: vec![seed],
            adaptive: None,
            substrate: false,
            model_version: 1,
            opts: RunOptions::default(),
        }
    }

    /// Whether results will be replicated over more than one seed (fixed multi-seed
    /// lists, and always under adaptive sampling).
    fn multi_seed(&self) -> bool {
        self.seeds.len() > 1 || self.adaptive.is_some()
    }

    /// Step 1 of a render: runs every matrix of `specs` and returns them
    /// executed, per spec, in spec and matrix order.
    ///
    /// The render runs in rounds, each one [`render_plan`] over every matrix.
    /// Round 0 holds every workload at `seeds` (under adaptive sampling, the
    /// first `min_seeds` seeds of the run `seeds[0]..`). Each later round holds,
    /// per matrix, the workloads whose IPC CI still misses the target, at
    /// their next seed, until no matrix holds any or `max_seeds` is reached. A
    /// workload leaves its matrix's pool once and never re-enters, so every
    /// pool member has run the same seeds and a round runs one seed. The
    /// rounds' sweep-level warnings go to the first matrix of each spec, so
    /// every report notes them once.
    ///
    /// The `--progress` total starts at every cell the render can run (under
    /// adaptive sampling, every workload to `max_seeds`) and drops a
    /// workload's unrun seeds when it leaves its pool, so the ETA is an upper
    /// bound and the total ends at the cells run.
    fn execute(&self, specs: &[ResolvedSpec]) -> Vec<Vec<Matrix>> {
        let mut seeds = match &self.adaptive {
            Some(adaptive) => (0..adaptive.min_seeds as u64)
                .map(|i| self.seeds[0] + i)
                .collect(),
            None => self.seeds.clone(),
        };
        let resolved: Vec<&ResolvedMatrix> = specs.iter().flat_map(|r| &r.matrices).collect();
        let mut matrices: Vec<Matrix> = resolved
            .iter()
            .map(|m| Matrix::new(m, self.multi_seed()))
            .collect();
        // Per matrix, the workloads the next round holds.
        let mut pools: Vec<Vec<usize>> = resolved
            .iter()
            .map(|m| (0..m.workloads.len()).collect())
            .collect();
        let mut extra_cells = vec![0usize; resolved.len()];
        let mut warnings = Vec::new();
        let mut seeds_run = 0;
        // The rounds' workers share these, so each pipeline is built once per
        // render rather than once per round.
        let arenas = ArenaPool::default();
        let progress = self.opts.obs.and_then(|o| o.progress.as_ref());
        if let Some(progress) = progress {
            let max_seeds = self.adaptive.map_or(seeds.len(), |a| a.max_seeds);
            let per_seed: usize = resolved
                .iter()
                .map(|m| m.workloads.len() * m.configs.len())
                .sum();
            progress.add_planned(per_seed * max_seeds);
        }
        loop {
            let rounds: Vec<MatrixRound> = pools
                .iter()
                .map(|workloads| MatrixRound {
                    workloads,
                    seeds: &seeds,
                })
                .collect();
            let plan = render_plan(specs, self.trace_len, &rounds);
            let result = execute_plan_in(&plan, &self.opts, &arenas);
            warnings.extend(result.warnings);
            let mut cells = result.cells.into_iter();
            for (matrix, pool) in matrices.iter_mut().zip(&pools) {
                matrix.absorb(pool, seeds.len(), &mut cells);
            }
            seeds_run += seeds.len();
            let Some(adaptive) = &self.adaptive else {
                break;
            };
            for ((matrix, pool), m) in matrices.iter().zip(&mut pools).zip(&resolved) {
                let held = pool.len();
                pool.retain(|&w| matrix.worst_ipc_ci(w) > adaptive.ci_target_pct);
                if let Some(progress) = progress {
                    let unrun = adaptive.max_seeds - seeds_run;
                    progress.drop_planned((held - pool.len()) * m.configs.len() * unrun);
                }
            }
            self.note_worst_ci(&matrices);
            if pools.iter().all(Vec::is_empty) || seeds_run >= adaptive.max_seeds {
                break;
            }
            seeds = vec![self.seeds[0] + seeds_run as u64];
            for ((extra, pool), m) in extra_cells.iter_mut().zip(&pools).zip(&resolved) {
                *extra += pool.len() * m.configs.len();
            }
        }
        if let Some(adaptive) = &self.adaptive {
            if let Some(metrics) = self.opts.obs.and_then(|o| o.metrics.as_ref()) {
                metrics
                    .adaptive_extra_cells
                    .add(extra_cells.iter().sum::<usize>() as u64);
            }
            for (matrix, extra) in matrices.iter_mut().zip(extra_cells) {
                matrix.adaptive_note = Some(matrix.sampling_note(extra, adaptive.ci_target_pct));
            }
        }
        let mut matrices = matrices.into_iter();
        specs
            .iter()
            .map(|r| {
                let mut executed: Vec<Matrix> = matrices.by_ref().take(r.matrices.len()).collect();
                if let Some(first) = executed.first_mut() {
                    first.warnings = warnings.clone();
                }
                executed
            })
            .collect()
    }

    /// Surfaces the workload furthest from the CI target, across the whole
    /// render, on the live `--progress` line, so a long adaptive run shows
    /// *why* it keeps going.
    fn note_worst_ci(&self, matrices: &[Matrix]) {
        let Some(progress) = self.opts.obs.and_then(|o| o.progress.as_ref()) else {
            return;
        };
        let worst = matrices
            .iter()
            .flat_map(|m| {
                let names = m.workload_names.iter().enumerate();
                names.map(move |(w, name)| (name, m.worst_ipc_ci(w)))
            })
            .max_by(|a, b| a.1.total_cmp(&b.1));
        if let Some((name, pct)) = worst {
            progress.note_worst_ci(name, pct);
        }
    }
}

/// A sample aggregate over replication seeds: mean, sample standard deviation, and
/// the 95% confidence half-interval (Student's t).
#[derive(Clone, Copy, Debug)]
pub struct Stat {
    /// Arithmetic mean over the successful seeds (NaN when every seed failed).
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for fewer than two samples).
    pub sd: f64,
    /// 95% confidence half-interval: `t(df) · sd / √n` (0 for fewer than two).
    pub ci95: f64,
    /// Number of samples (successful seeds) behind the aggregate.
    pub n: usize,
}

impl Stat {
    /// Aggregates a sample set.
    pub fn from_samples(samples: &[f64]) -> Stat {
        let n = samples.len();
        if n == 0 {
            return Stat {
                mean: f64::NAN,
                sd: 0.0,
                ci95: 0.0,
                n,
            };
        }
        let mean = samples.iter().sum::<f64>() / n as f64;
        if n < 2 {
            return Stat {
                mean,
                sd: 0.0,
                ci95: 0.0,
                n,
            };
        }
        let var = samples.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        let sd = var.sqrt();
        Stat {
            mean,
            sd,
            ci95: t_critical_95(n - 1) * sd / (n as f64).sqrt(),
            n,
        }
    }
}

/// Two-sided 95% critical values of Student's t by degrees of freedom (1.96 in the
/// normal limit).
fn t_critical_95(df: usize) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    if df == 0 {
        f64::NAN
    } else if df <= TABLE.len() {
        TABLE[df - 1]
    } else {
        1.96
    }
}

/// Adaptive sequential-sampling policy: instead of a fixed `--seeds K`, each
/// workload row keeps receiving additional replication seeds — one per round, across
/// *all* of its configurations, so seed-paired comparisons stay paired — until its
/// 95% confidence intervals are tight enough or [`AdaptiveOpts::max_seeds`] is hit.
///
/// The stopping criterion is *relative IPC precision*: a workload is done when, for
/// every configuration, the Student-t 95% half-interval of IPC over the seeds run so
/// far is at most `ci_target_pct` percent of the mean IPC. IPC is the metric every
/// reported table derives from (speedups are ratios of paired IPCs, rates are ratios
/// of like-shaped counters), so its precision is the sweep's precision.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdaptiveOpts {
    /// Target relative 95% CI, in percent of the mean (e.g. `1.0` = ±1%).
    pub ci_target_pct: f64,
    /// Seeds every workload runs before the first CI check (at least 2 — a CI needs
    /// two samples).
    pub min_seeds: usize,
    /// Hard ceiling on seeds per workload; a workload that still misses the target
    /// here is reported as such and stops.
    pub max_seeds: usize,
}

impl AdaptiveOpts {
    /// Validates the policy (positive target, `2 <= min_seeds <= max_seeds`).
    pub fn validate(&self) -> Result<(), String> {
        if self.ci_target_pct.is_nan() || self.ci_target_pct <= 0.0 {
            return Err("--ci-target must be a positive percentage".to_string());
        }
        if self.min_seeds < 2 {
            return Err("--min-seeds must be at least 2 (a CI needs two samples)".to_string());
        }
        if self.max_seeds < self.min_seeds {
            return Err("--max-seeds must be at least --min-seeds".to_string());
        }
        Ok(())
    }
}

/// The relative 95% CI of one sample set, in percent of the mean — infinite when
/// fewer than two samples exist or the mean is zero (no CI can be formed).
fn relative_ci_pct(samples: &[f64]) -> f64 {
    let stat = Stat::from_samples(samples);
    if stat.n < 2 || stat.mean.abs() == 0.0 {
        f64::INFINITY
    } else {
        100.0 * stat.ci95 / stat.mean.abs()
    }
}

/// An executed matrix: the per-(workload, configuration) cell groups — ragged
/// across workloads under adaptive sampling — plus the lookup and aggregation
/// helpers the figure renderers use.
struct Matrix {
    /// `groups[w][c]` = per-seed cells for that pair, in seed order.
    groups: Vec<Vec<Vec<ExperimentCell>>>,
    workload_names: Vec<String>,
    config_names: Vec<String>,
    warnings: Vec<String>,
    /// Whether aggregate cells should render as mean ± CI.
    replicated: bool,
    /// Adaptive per-workload seed counts and precision (`None` for fixed-seed
    /// renders).
    adaptive_note: Option<String>,
}

impl Matrix {
    /// A matrix over `m`'s workloads and configurations with no cells yet;
    /// each render round adds its cells with [`Matrix::absorb`].
    fn new(m: &ResolvedMatrix, replicated: bool) -> Matrix {
        Matrix {
            groups: vec![vec![Vec::new(); m.configs.len()]; m.workloads.len()],
            workload_names: m.workloads.iter().map(|w| w.name.clone()).collect(),
            config_names: m.configs.iter().map(|c| c.name.clone()).collect(),
            warnings: Vec::new(),
            replicated,
            adaptive_note: None,
        }
    }

    /// Appends one round's cells for the workloads `held` — taken from
    /// `cells` in canonical order (workload-major, configuration, then `ns`
    /// seeds), as [`render_plan`] enumerates them.
    fn absorb(
        &mut self,
        held: &[usize],
        ns: usize,
        cells: &mut impl Iterator<Item = ExperimentCell>,
    ) {
        for &w in held {
            for group in &mut self.groups[w] {
                group.extend(cells.by_ref().take(ns));
            }
        }
    }

    /// The worst (largest) relative 95% CI of IPC across workload `w`'s
    /// configurations, in percent of the mean. Infinite while any
    /// configuration has fewer than two successful seeds (no CI can be formed
    /// yet).
    fn worst_ipc_ci(&self, w: usize) -> f64 {
        self.groups[w]
            .iter()
            .map(|cells| {
                let samples: Vec<f64> = cells
                    .iter()
                    .filter_map(|cell| cell.stats().map(CpuStats::ipc))
                    .collect();
                relative_ci_pct(&samples)
            })
            .fold(0.0, f64::max)
    }

    /// The adaptive-sampling report note: the extra seed-cells scheduled beyond
    /// `min_seeds`, and each workload's seed count and achieved precision
    /// (the worst relative IPC CI), flagged when it missed the target.
    fn sampling_note(&self, extra_cells: usize, ci_target_pct: f64) -> String {
        let per_workload: Vec<String> = self
            .workload_names
            .iter()
            .enumerate()
            .map(|(w, name)| {
                let achieved = self.worst_ipc_ci(w);
                format!(
                    "{name} {} seed(s), worst IPC CI {}{}",
                    self.groups[w].first().map_or(0, Vec::len),
                    if achieved.is_finite() {
                        format!("\u{b1}{achieved:.2}%")
                    } else {
                        "unavailable".to_string()
                    },
                    if achieved <= ci_target_pct {
                        ""
                    } else {
                        " [hit max-seeds]"
                    },
                )
            })
            .collect();
        format!(
            "adaptive sampling ({extra_cells} extra seed-cell(s)): {}",
            per_workload.join("; ")
        )
    }

    /// The per-seed cells for one (workload, configuration) pair.
    fn group(&self, workload: &str, config: &str) -> &[ExperimentCell] {
        let w = self
            .workload_names
            .iter()
            .position(|n| n == workload)
            .expect("workload exists in the matrix");
        let c = self
            .config_names
            .iter()
            .position(|n| n == config)
            .expect("config exists in the matrix");
        &self.groups[w][c]
    }

    /// Aggregates `metric` for one (workload, configuration) pair over its
    /// successful seeds.
    fn stat(&self, workload: &str, config: &str, metric: fn(&CpuStats) -> f64) -> Stat {
        let samples: Vec<f64> = self
            .group(workload, config)
            .iter()
            .filter_map(|cell| cell.stats().map(metric))
            .collect();
        Stat::from_samples(&samples)
    }

    /// Aggregates the per-seed *paired* percent speedup of `config` over
    /// `baseline` for one workload (pairing by seed removes the between-seed
    /// workload variance from the comparison).
    fn speedup_stat(&self, workload: &str, config: &str, baseline: &str) -> Stat {
        let samples: Vec<f64> = self
            .group(workload, config)
            .iter()
            .zip(self.group(workload, baseline))
            .filter_map(|(c, b)| match (c.stats(), b.stats()) {
                (Some(cs), Some(bs)) => Some(cs.speedup_over(bs)),
                _ => None,
            })
            .collect();
        Stat::from_samples(&samples)
    }

    /// Sweep-level notes: failed cells, adaptive seed counts, and aggregated
    /// warnings, if any.
    fn notes(&self) -> Vec<String> {
        let mut notes = Vec::new();
        let failures: Vec<&ExperimentCell> = self
            .groups
            .iter()
            .flatten()
            .flatten()
            .filter(|c| c.error().is_some())
            .collect();
        if let Some(first) = failures.first() {
            notes.push(format!(
                "{} cell(s) failed and are excluded from the aggregates (first: {} × {} seed {}: {})",
                failures.len(),
                first.workload,
                first.config,
                first.seed,
                first.error().unwrap_or("unknown")
            ));
        }
        notes.extend(self.adaptive_note.iter().cloned());
        notes.extend(self.warnings.iter().map(|w| format!("warning: {w}")));
        notes
    }

    /// Builds one series row (means and, under replication, CIs) over all workloads
    /// for `config`.
    fn push_metric_series(
        &self,
        table: &mut SeriesTable,
        config: &str,
        metric: fn(&CpuStats) -> f64,
    ) {
        let stats: Vec<Stat> = self
            .workload_names
            .iter()
            .map(|w| self.stat(w, config, metric))
            .collect();
        push_stats(table, config, &stats, self.replicated);
    }

    /// Substrate-level tables (`--substrate`): SSBF lookup and update traffic per
    /// 1k committed instructions, the L2 miss rate, the forwarding-buffer hit
    /// rate, and store-set dependence squashes per 1k committed, one series per
    /// configuration. These counters ride in every JSONL cell record since the
    /// lossless-resume work, so surfacing them costs no extra simulation.
    fn substrate_tables(&self, label: &str) -> Vec<SeriesTable> {
        fn l2_miss_rate(s: &CpuStats) -> f64 {
            let accesses = s.hierarchy.l2.reads + s.hierarchy.l2.writes;
            if accesses == 0 {
                0.0
            } else {
                100.0 * (s.hierarchy.l2.read_misses + s.hierarchy.l2.write_misses) as f64
                    / accesses as f64
            }
        }
        fn fwd_buffer_hit_rate(s: &CpuStats) -> f64 {
            if s.fwd_buffer_lookups == 0 {
                0.0
            } else {
                100.0 * s.fwd_buffer_hits as f64 / s.fwd_buffer_lookups as f64
            }
        }
        fn store_set_squashes(s: &CpuStats) -> f64 {
            1000.0 * s.store_set_squashes as f64 / s.committed.max(1) as f64
        }
        type Metric = (&'static str, &'static str, fn(&CpuStats) -> f64);
        let metrics: [Metric; 5] = [
            (
                "SSBF lookup traffic",
                "lookups per 1k committed",
                ssbf_lookups_per_1k,
            ),
            (
                "SSBF update traffic",
                "updates per 1k committed",
                ssbf_updates_per_1k,
            ),
            ("L2 miss rate", "% of L2 accesses", l2_miss_rate),
            (
                "Forwarding-buffer hit rate",
                "% of FB lookups",
                fwd_buffer_hit_rate,
            ),
            (
                "Store-set dependence squashes",
                "squashed loads per 1k committed",
                store_set_squashes,
            ),
        ];
        metrics
            .into_iter()
            .map(|(title, unit, metric)| {
                let mut table = SeriesTable::new(
                    format!("{label} (substrate): {title}"),
                    unit,
                    self.workload_names.clone(),
                );
                for cfg in &self.config_names {
                    self.push_metric_series(&mut table, cfg, metric);
                }
                table
            })
            .collect()
    }
}

/// SSBF lookup traffic: every marked load probes the filter once, per 1k
/// committed instructions.
fn ssbf_lookups_per_1k(s: &CpuStats) -> f64 {
    1000.0 * s.svw.marked_loads as f64 / s.committed.max(1) as f64
}

/// SSBF update traffic: store updates plus invalidation updates, per 1k
/// committed instructions.
fn ssbf_updates_per_1k(s: &CpuStats) -> f64 {
    1000.0 * (s.svw.ssbf_store_updates + s.svw.ssbf_invalidation_updates) as f64
        / s.committed.max(1) as f64
}

/// Pushes a row of aggregates, with CIs when replicated.
fn push_stats(table: &mut SeriesTable, name: &str, stats: &[Stat], multi_seed: bool) {
    let values: Vec<f64> = stats.iter().map(|s| s.mean).collect();
    if multi_seed {
        table.push_series_ci(name, values, stats.iter().map(|s| s.ci95).collect());
    } else {
        table.push_series(name, values);
    }
}

/// Checks that a spec fits a renderer's shape, before anything runs.
type Check = fn(&ResolvedSpec) -> Result<(), String>;

/// Turns a spec's executed matrices (one per `[[matrix]]`, in spec order) into
/// a report.
type Render = fn(&ExperimentCtx<'_>, &ResolvedSpec, &[Matrix]) -> FigureReport;

fn renderer_by_name(name: &str) -> Option<(Check, Render)> {
    let renderer: (Check, Render) = match name {
        "fig5" => (|r| one_matrix(r, 2), fig5_nlq),
        "fig6" => (|r| one_matrix(r, 2), fig6_ssq),
        "fig7" => (|r| one_matrix(r, 2), fig7_rle),
        "fig8" => (|r| one_matrix(r, 1), fig8_ssbf),
        "ssn-width" => (|r| one_matrix(r, 2), tab_ssn_width),
        "spec-ssbf" => (|r| one_matrix(r, 1), tab_spec_ssbf),
        "substrate-ssbf" => (|r| one_matrix(r, 2), tab_substrate_ssbf),
        "summary" => (check_summary, tab_summary),
        "adversarial" => (|r| one_matrix(r, 1), tab_adversarial),
        _ => return None,
    };
    Some(renderer)
}

/// Resolves a builtin artifact's spec at `model_version`, or `None` for an
/// unknown artifact name.
///
/// # Panics
///
/// Panics on a model version outside `1..=`[`registry::LATEST_MODEL_VERSION`];
/// callers (the CLI, plan resolution) validate the version first.
pub fn artifact_resolved(name: &str, model_version: u32) -> Option<ResolvedSpec> {
    let spec = registry::spec_by_name(name)?;
    Some(
        registry::resolve_spec(spec, model_version)
            .unwrap_or_else(|e| panic!("builtin spec {name} failed to resolve: {e}")),
    )
}

/// Renders `specs` as one render. Every spec is checked against the renderer it
/// names, and the adaptive policy (if any) is validated, before anything runs;
/// then all of their matrices execute together, one plan per round, and each
/// spec's renderer turns its matrices into a report, in spec order. For model
/// versions above 1 each report carries a lineage note recording why it
/// diverges from the byte-identical v1 baseline.
pub fn render_specs(
    ctx: &ExperimentCtx<'_>,
    specs: &[ResolvedSpec],
) -> Result<Vec<FigureReport>, String> {
    let renders = specs
        .iter()
        .map(|resolved| {
            let (check, render) = renderer_by_name(&resolved.spec.renderer).ok_or_else(|| {
                format!(
                    "spec {:?} names unknown renderer {:?}",
                    resolved.spec.name, resolved.spec.renderer
                )
            })?;
            check(resolved)?;
            Ok(render)
        })
        .collect::<Result<Vec<Render>, String>>()?;
    if let Some(adaptive) = &ctx.adaptive {
        adaptive.validate()?;
    }
    let executed = ctx.execute(specs);
    Ok(specs
        .iter()
        .zip(renders)
        .zip(executed)
        .map(|((resolved, render), matrices)| {
            let mut report = render(ctx, resolved, &matrices);
            if let Some(reason) = registry::model_divergence(resolved.model_version) {
                report.notes.push(format!(
                    "lineage: model v{} (spec {:016x}) diverges from the byte-identical v1 \
                     baseline — {reason}",
                    resolved.model_version, resolved.fingerprint
                ));
            }
            report
        })
        .collect())
}

/// Renders one resolved spec: [`render_specs`] over just `resolved`.
pub fn render_resolved(
    ctx: &ExperimentCtx<'_>,
    resolved: &ResolvedSpec,
) -> Result<FigureReport, String> {
    let mut reports = render_specs(ctx, std::slice::from_ref(resolved))?;
    Ok(reports.remove(0))
}

/// Renders a builtin artifact by name at the context's model version. Unknown
/// names fail with a did-you-mean suggestion sourced from the registry.
pub fn render_artifact(ctx: &ExperimentCtx<'_>, name: &str) -> Result<FigureReport, String> {
    let resolved = artifact_resolved(name, ctx.model_version).ok_or_else(|| {
        let known = registry::builtin_names();
        format!(
            "unknown artifact {name:?}{} (expected one of: {})",
            registry::did_you_mean(name, known.iter().copied()),
            known.join(", ")
        )
    })?;
    render_resolved(ctx, &resolved)
}

/// Builds the paper's standard two-panel figure (re-execution rate on top, speedup
/// over the first configuration on the bottom) from a result matrix.
fn two_panel_figure(figure: &str, matrix: &Matrix, mut notes: Vec<String>) -> FigureReport {
    let baseline = matrix.config_names[0].clone();
    let mut rate = SeriesTable::new(
        format!("{figure} (top): loads re-executed"),
        "% of retired loads",
        matrix.workload_names.clone(),
    );
    for cfg in &matrix.config_names[1..] {
        matrix.push_metric_series(&mut rate, cfg, CpuStats::reexec_rate);
    }
    let mut speedup = SeriesTable::new(
        format!("{figure} (bottom): speedup over {baseline}"),
        "% IPC improvement",
        matrix.workload_names.clone(),
    );
    for cfg in &matrix.config_names[1..] {
        let stats: Vec<Stat> = matrix
            .workload_names
            .iter()
            .map(|w| matrix.speedup_stat(w, cfg, &baseline))
            .collect();
        push_stats(&mut speedup, cfg, &stats, matrix.replicated);
    }
    notes.extend(matrix.notes());
    FigureReport {
        figure: figure.to_string(),
        tables: vec![rate, speedup],
        notes,
    }
}

/// Checks that a spec resolves to exactly one matrix with at least
/// `min_configs` configurations — the shape every single-matrix renderer needs.
fn one_matrix(resolved: &ResolvedSpec, min_configs: usize) -> Result<(), String> {
    if resolved.matrices.len() != 1 {
        return Err(format!(
            "renderer {:?} renders exactly one [[matrix]]; spec {:?} defines {}",
            resolved.spec.renderer,
            resolved.spec.name,
            resolved.matrices.len()
        ));
    }
    let m = &resolved.matrices[0];
    if m.configs.len() < min_configs {
        return Err(format!(
            "renderer {:?} needs at least {min_configs} configuration(s) on the axis; \
             matrix {:?} has {}",
            resolved.spec.renderer,
            m.label,
            m.configs.len()
        ));
    }
    Ok(())
}

/// Figure 5: SVW's impact on the non-associative load queue (NLQ_LS).
fn fig5_nlq(ctx: &ExperimentCtx<'_>, _: &ResolvedSpec, matrices: &[Matrix]) -> FigureReport {
    let matrix = &matrices[0];
    let mut report = two_panel_figure(
        "Figure 5 (NLQ_LS)",
        matrix,
        vec![
            "paper: NLQ re-executes ~7.4% of loads on average; SVW-UPD cuts it to ~2.0% and \
             SVW+UPD to ~0.6%; speedups are small (~1.3% with SVW, 1.4% perfect)"
                .to_string(),
        ],
    );
    if ctx.substrate {
        report
            .tables
            .extend(matrix.substrate_tables("Figure 5 (NLQ_LS)"));
    }
    report
}

/// Figure 6: SVW's impact on the speculative store queue (SSQ).
fn fig6_ssq(ctx: &ExperimentCtx<'_>, _: &ResolvedSpec, matrices: &[Matrix]) -> FigureReport {
    let matrix = &matrices[0];
    let mut report = two_panel_figure(
        "Figure 6 (SSQ)",
        matrix,
        vec![
            "paper: SSQ without SVW re-executes 100% of loads and loses 16% on average \
             (vortex −83%); with SVW re-execution drops to ~13-15% and SSQ gains ~1.2% \
             (perfect re-execution gains ~4%)"
                .to_string(),
        ],
    );
    // The paper breaks SSQ re-executions into FSQ and non-FSQ loads; add that series.
    let mut fsq_share = SeriesTable::new(
        "Figure 6 (detail): re-executed loads that used the FSQ",
        "% of retired loads",
        matrix.workload_names.clone(),
    );
    fn fsq_rate(s: &CpuStats) -> f64 {
        if s.loads_retired == 0 {
            0.0
        } else {
            100.0 * s.reexecuted_fsq_loads as f64 / s.loads_retired as f64
        }
    }
    for cfg in &matrix.config_names[1..] {
        matrix.push_metric_series(&mut fsq_share, cfg, fsq_rate);
    }
    report.tables.push(fsq_share);
    if ctx.substrate {
        report
            .tables
            .extend(matrix.substrate_tables("Figure 6 (SSQ)"));
    }
    report
}

/// Figure 7: SVW's impact on redundant load elimination (RLE).
fn fig7_rle(ctx: &ExperimentCtx<'_>, _: &ResolvedSpec, matrices: &[Matrix]) -> FigureReport {
    let matrix = &matrices[0];
    let mut report = two_panel_figure(
        "Figure 7 (RLE)",
        matrix,
        vec![
            "paper: RLE eliminates ~28% of loads (all of which re-execute), gaining 2.6%; \
             SVW cuts re-execution to ~6.3% and raises the gain to 5.7%; disabling squash \
             reuse (SVW-SQU) cuts re-executions to 1.2% but costs a little performance"
                .to_string(),
        ],
    );
    let mut elim = SeriesTable::new(
        "Figure 7 (detail): loads eliminated",
        "% of retired loads",
        matrix.workload_names.clone(),
    );
    for cfg in &matrix.config_names[1..] {
        matrix.push_metric_series(&mut elim, cfg, CpuStats::elimination_rate);
    }
    report.tables.push(elim);
    if ctx.substrate {
        report
            .tables
            .extend(matrix.substrate_tables("Figure 7 (RLE)"));
    }
    report
}

/// Figure 8: SSBF organisation sensitivity on the SSQ machine over the paper's
/// five-workload subset.
fn fig8_ssbf(ctx: &ExperimentCtx<'_>, _: &ResolvedSpec, matrices: &[Matrix]) -> FigureReport {
    let matrix = &matrices[0];
    let mut rate = SeriesTable::new(
        "Figure 8: SSBF organisation vs. SSQ re-execution rate",
        "% of retired loads",
        matrix.workload_names.clone(),
    );
    for cfg in &matrix.config_names {
        matrix.push_metric_series(&mut rate, cfg, CpuStats::reexec_rate);
    }
    let mut notes = vec![
        "paper: because per-load windows are short (5-15 stores), aliasing is rare and \
         all organisations perform within a fraction of a percent of the infinite filter"
            .to_string(),
    ];
    notes.extend(matrix.notes());
    let mut tables = vec![rate];
    if ctx.substrate {
        tables.extend(matrix.substrate_tables("Figure 8"));
    }
    FigureReport {
        figure: "Figure 8 (SSBF sensitivity)".to_string(),
        tables,
        notes,
    }
}

/// §3.6: SSN width sensitivity (wrap-around drains) on the SSQ machine.
fn tab_ssn_width(ctx: &ExperimentCtx<'_>, _: &ResolvedSpec, matrices: &[Matrix]) -> FigureReport {
    let matrix = &matrices[0];
    let infinite = matrix.config_names.last().expect("non-empty").clone();
    let mut slowdown = SeriesTable::new(
        "SSN width: IPC loss vs. infinite-width SSNs",
        "% IPC loss",
        matrix.workload_names.clone(),
    );
    let mut drains = SeriesTable::new(
        "SSN width: wrap-around drains per 100k instructions",
        "drains",
        matrix.workload_names.clone(),
    );
    fn drain_rate(s: &CpuStats) -> f64 {
        s.wrap_drains as f64 * 100_000.0 / s.committed.max(1) as f64
    }
    for cfg in &matrix.config_names {
        let loss: Vec<Stat> = matrix
            .workload_names
            .iter()
            .map(|w| {
                let mut s = matrix.speedup_stat(w, cfg, &infinite);
                s.mean = -s.mean;
                s
            })
            .collect();
        push_stats(&mut slowdown, cfg, &loss, matrix.replicated);
        matrix.push_metric_series(&mut drains, cfg, drain_rate);
    }
    let mut notes =
        vec!["paper: 16-bit SSNs cost only 0.2% versus infinite-width SSNs".to_string()];
    notes.extend(matrix.notes());
    let mut tables = vec![slowdown, drains];
    if ctx.substrate {
        tables.extend(matrix.substrate_tables("SSN width"));
    }
    FigureReport {
        figure: "Table: SSN width sensitivity (§3.6)".to_string(),
        tables,
        notes,
    }
}

/// §3.6: speculative vs. atomic SSBF updates.
fn tab_spec_ssbf(ctx: &ExperimentCtx<'_>, _: &ResolvedSpec, matrices: &[Matrix]) -> FigureReport {
    let matrix = &matrices[0];
    let mut rate = SeriesTable::new(
        "SSBF update policy: re-execution rate",
        "% of retired loads",
        matrix.workload_names.clone(),
    );
    let mut ipc = SeriesTable::new(
        "SSBF update policy: IPC",
        "IPC",
        matrix.workload_names.clone(),
    );
    for cfg in &matrix.config_names {
        matrix.push_metric_series(&mut rate, cfg, CpuStats::reexec_rate);
        matrix.push_metric_series(&mut ipc, cfg, CpuStats::ipc);
    }
    let mut notes = vec![
        "paper: speculative updates add only ~1-2% relative re-executions while avoiding \
         elongated load-to-store serializations"
            .to_string(),
    ];
    notes.extend(matrix.notes());
    let mut tables = vec![rate, ipc];
    if ctx.substrate {
        tables.extend(matrix.substrate_tables("SSBF update policy"));
    }
    FigureReport {
        figure: "Table: speculative vs. atomic SSBF updates (§3.6)".to_string(),
        tables,
        notes,
    }
}

/// Substrate phase 2: the SSBF organisation comparison seen from the filter
/// substrate — accuracy (re-execution rate) next to the lookup/update traffic
/// each organisation's SSBF sees. Every marked
/// load probes and every store updates, so traffic differs across
/// organisations only through timing feedback, making the accuracy spread
/// attributable to aliasing.
fn tab_substrate_ssbf(
    ctx: &ExperimentCtx<'_>,
    _: &ResolvedSpec,
    matrices: &[Matrix],
) -> FigureReport {
    let matrix = &matrices[0];
    let mut rate = SeriesTable::new(
        "SSBF organisation: re-execution rate",
        "% of retired loads",
        matrix.workload_names.clone(),
    );
    let mut lookups = SeriesTable::new(
        "SSBF organisation: lookup traffic",
        "lookups / 1k committed",
        matrix.workload_names.clone(),
    );
    let mut updates = SeriesTable::new(
        "SSBF organisation: update traffic",
        "updates / 1k committed",
        matrix.workload_names.clone(),
    );
    for cfg in &matrix.config_names {
        matrix.push_metric_series(&mut rate, cfg, CpuStats::reexec_rate);
        matrix.push_metric_series(&mut lookups, cfg, ssbf_lookups_per_1k);
        matrix.push_metric_series(&mut updates, cfg, ssbf_updates_per_1k);
    }
    let mut notes = vec![
        "substrate counters ride in every cell record, so this table costs no extra \
         simulation beyond fig8's sweep; filter traffic moves only through timing \
         feedback (re-executions re-mark loads), so the accuracy spread across \
         organisations is attributable to aliasing"
            .to_string(),
    ];
    notes.extend(matrix.notes());
    let mut tables = vec![rate, lookups, updates];
    if ctx.substrate {
        tables.extend(matrix.substrate_tables("SSBF organisation"));
    }
    FigureReport {
        figure: "Table: SSBF organisation substrate comparison".to_string(),
        tables,
        notes,
    }
}

/// Adversarial stress tables: the `adv.*` generator family next to a SPECint
/// reference slice, read through the SSBF's accuracy counters. The headline
/// metric is the *false-positive* re-execution rate — loads the filter made
/// re-execute that then verified clean — which is exactly the cost of Bloom
/// aliasing (and, on unfiltered configurations, of having no filter at all);
/// re-executions that *mismatch* are true positives no filter may remove.
/// Shared by both `adversarial-*` specs: the axis (SSBF organisations or the
/// SSQ machine family) comes from the spec, the tables are the same.
fn tab_adversarial(
    ctx: &ExperimentCtx<'_>,
    resolved: &ResolvedSpec,
    matrices: &[Matrix],
) -> FigureReport {
    let matrix = &matrices[0];
    fn false_positive_rate(s: &CpuStats) -> f64 {
        if s.loads_retired == 0 {
            0.0
        } else {
            100.0 * s.loads_reexecuted.saturating_sub(s.reexec_flushes) as f64
                / s.loads_retired as f64
        }
    }
    let mut rate = SeriesTable::new(
        "Adversarial stress: re-execution rate",
        "% of retired loads",
        matrix.workload_names.clone(),
    );
    let mut false_pos = SeriesTable::new(
        "Adversarial stress: false-positive re-executions (verified clean)",
        "% of retired loads",
        matrix.workload_names.clone(),
    );
    let mut lookups = SeriesTable::new(
        "Adversarial stress: SSBF lookup traffic",
        "lookups / 1k committed",
        matrix.workload_names.clone(),
    );
    let mut updates = SeriesTable::new(
        "Adversarial stress: SSBF update traffic",
        "updates / 1k committed",
        matrix.workload_names.clone(),
    );
    for cfg in &matrix.config_names {
        matrix.push_metric_series(&mut rate, cfg, CpuStats::reexec_rate);
        matrix.push_metric_series(&mut false_pos, cfg, false_positive_rate);
        matrix.push_metric_series(&mut lookups, cfg, ssbf_lookups_per_1k);
        matrix.push_metric_series(&mut updates, cfg, ssbf_updates_per_1k);
    }
    let mut notes = vec![
        "adv.* columns are generator stressors (dependence chains, same-granule \
         aliasing, store-queue pressure, branch storms), not benchmarks; the SPECint \
         columns are the reference scale. A false positive is a re-execution that \
         verified clean — Bloom aliasing on filtered machines, everything-re-executes \
         on unfiltered ones; mismatching re-executions are true positives no filter \
         may remove. Run with --oracle to additionally check every committed value \
         against the golden model (see docs/VERIFICATION.md)"
            .to_string(),
    ];
    notes.extend(matrix.notes());
    let mut tables = vec![rate, false_pos, lookups, updates];
    if ctx.substrate {
        tables.extend(matrix.substrate_tables("Adversarial stress"));
    }
    FigureReport {
        figure: format!("Adversarial stress table ({})", resolved.spec.name),
        tables,
        notes,
    }
}

/// The shape [`tab_summary`] needs: at least one matrix, every matrix over the
/// same workloads, and each naming its unfiltered and SVW configurations.
fn check_summary(resolved: &ResolvedSpec) -> Result<(), String> {
    let first = resolved
        .matrices
        .first()
        .ok_or_else(|| "renderer \"summary\" needs at least one [[matrix]]".to_string())?;
    let wnames: Vec<&str> = first.workloads.iter().map(|w| w.name.as_str()).collect();
    for m in &resolved.matrices[1..] {
        let names: Vec<&str> = m.workloads.iter().map(|w| w.name.as_str()).collect();
        if names != wnames {
            return Err(format!(
                "renderer \"summary\" needs every [[matrix]] to sweep the same workloads; \
                 matrix {:?} differs from {:?}",
                m.label, first.label
            ));
        }
    }
    match resolved
        .matrices
        .iter()
        .find(|m| m.unfiltered_idx.is_none() || m.svw_idx.is_none())
    {
        Some(m) => Err(format!(
            "renderer \"summary\" needs unfiltered_idx and svw_idx on every [[matrix]] \
             (matrix {:?} lacks them)",
            m.label
        )),
        None => Ok(()),
    }
}

/// §6 headline: aggregate re-execution reduction across the three optimizations.
fn tab_summary(
    ctx: &ExperimentCtx<'_>,
    resolved: &ResolvedSpec,
    matrices: &[Matrix],
) -> FigureReport {
    let wnames = &matrices[0].workload_names;
    let mut table = SeriesTable::new(
        "Re-execution reduction from SVW (unfiltered vs. filtered)",
        "% reduction in re-executed loads",
        wnames.clone(),
    );
    let mut notes = Vec::new();
    let mut reductions = Vec::new();
    let mut substrate_tables = Vec::new();
    for (m, matrix) in resolved.matrices.iter().zip(matrices) {
        // Matrix labels namespace the artifact ("summary/NLQ_LS"); series rows
        // use the short suffix the paper's table names.
        let label = m.label.rsplit('/').next().unwrap_or(&m.label);
        if ctx.substrate {
            substrate_tables.extend(matrix.substrate_tables(&m.label));
        }
        let unfiltered = &matrix.config_names[m.unfiltered_idx.expect("checked by check_summary")];
        let svw = &matrix.config_names[m.svw_idx.expect("checked by check_summary")];
        // Pair the reduction by seed, then aggregate (a seed where the unfiltered
        // machine re-executes nothing contributes a 0% reduction).
        let stats: Vec<Stat> = wnames
            .iter()
            .map(|w| {
                let samples: Vec<f64> = matrix
                    .group(w, unfiltered)
                    .iter()
                    .zip(matrix.group(w, svw))
                    .filter_map(|(u, s)| match (u.stats(), s.stats()) {
                        (Some(us), Some(ss)) => {
                            let unf = us.reexec_rate();
                            Some(if unf <= 0.0 {
                                0.0
                            } else {
                                100.0 * (1.0 - ss.reexec_rate() / unf)
                            })
                        }
                        _ => None,
                    })
                    .collect();
                Stat::from_samples(&samples)
            })
            .collect();
        reductions.push(SeriesTable::mean(
            &stats.iter().map(|s| s.mean).collect::<Vec<_>>(),
        ));
        push_stats(&mut table, label, &stats, matrix.replicated);
        notes.extend(matrix.notes());
    }
    let overall = SeriesTable::mean(&reductions);
    let mut all_notes = vec![
        format!("measured average reduction across the three optimizations: {overall:.1}%"),
        "paper: SVW reduces re-executions by an average of 85% across the three \
         optimizations"
            .to_string(),
    ];
    all_notes.extend(notes);
    let mut tables = vec![table];
    tables.extend(substrate_tables);
    FigureReport {
        figure: "Summary: SVW re-execution reduction".to_string(),
        tables,
        notes: all_notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Small trace lengths keep these integration-style tests fast; they validate the
    // *shape* of each reproduction (series present, sane ranges), not the headline
    // magnitudes, which the full-length sweeps measure.
    const LEN: usize = 4_000;

    fn ctx() -> ExperimentCtx<'static> {
        ExperimentCtx::new(LEN, 3)
    }

    #[test]
    fn builtin_specs_resolve_to_legacy_enumerations() {
        // The spec-derived matrices must enumerate exactly what the hard-coded
        // families did pre-registry: same labels, workloads, and config names.
        type LegacyMatrix<'a> = (&'a str, Vec<&'a str>, &'a str);
        let legacy: &[(&str, Vec<LegacyMatrix<'_>>)] = &[
            ("fig5", vec![("fig5", vec![], "fig5-nlq")]),
            ("fig6", vec![("fig6", vec![], "fig6-ssq")]),
            ("fig7", vec![("fig7", vec![], "fig7-rle")]),
            (
                "fig8",
                vec![(
                    "fig8",
                    vec!["crafty", "gcc", "perl.d", "vortex", "vpr.r"],
                    "fig8-ssbf",
                )],
            ),
            (
                "ssn-width",
                vec![(
                    "ssn-width",
                    vec!["crafty", "gcc", "perl.d", "vortex", "vpr.r"],
                    "ssn-width",
                )],
            ),
            (
                "spec-ssbf",
                vec![(
                    "spec-ssbf",
                    vec!["crafty", "gcc", "perl.d", "vortex", "vpr.r"],
                    "ssbf-update-policy",
                )],
            ),
            (
                "summary",
                vec![
                    ("summary/NLQ_LS", vec![], "fig5-nlq"),
                    ("summary/SSQ", vec![], "fig6-ssq"),
                    ("summary/RLE", vec![], "fig7-rle"),
                ],
            ),
        ];
        let all = svw_workloads::spec2000int_names();
        for (name, matrices) in legacy {
            let resolved = artifact_resolved(name, 1).expect("builtin resolves");
            assert_eq!(resolved.model_version, 1);
            assert_eq!(resolved.matrices.len(), matrices.len(), "{name}");
            for (m, (label, wl, axis)) in resolved.matrices.iter().zip(matrices) {
                assert_eq!(m.label, *label);
                let expect: Vec<&str> = if wl.is_empty() {
                    all.to_vec()
                } else {
                    wl.clone()
                };
                let got: Vec<&str> = m.workloads.iter().map(|w| w.name.as_str()).collect();
                assert_eq!(got, expect, "{name}/{label} workloads");
                let axis_configs = registry::config_axis(axis).expect("axis exists");
                let got_cfgs: Vec<&str> = m.configs.iter().map(|c| c.name.as_str()).collect();
                let expect_cfgs: Vec<&str> = axis_configs.iter().map(|c| c.name.as_str()).collect();
                assert_eq!(got_cfgs, expect_cfgs, "{name}/{label} configs");
            }
        }
    }

    #[test]
    fn unknown_artifact_suggests_nearest_name() {
        let err = render_artifact(&ctx(), "fig55").unwrap_err();
        assert!(err.contains("unknown artifact \"fig55\""), "{err}");
        assert!(err.contains("did you mean \"fig5\"?"), "{err}");
        assert!(err.contains("expected one of:"), "{err}");
    }

    #[test]
    fn an_invalid_adaptive_policy_is_an_error_before_anything_runs() {
        let resolved = artifact_resolved("fig8", 1).expect("builtin resolves");
        let ctx = ExperimentCtx {
            adaptive: Some(AdaptiveOpts {
                ci_target_pct: 5.0,
                min_seeds: 1,
                max_seeds: 3,
            }),
            ..ctx()
        };
        let err = render_resolved(&ctx, &resolved).unwrap_err();
        assert!(err.contains("--min-seeds must be at least 2"), "{err}");
    }

    #[test]
    fn model_v2_reports_carry_divergence_note() {
        let resolved = artifact_resolved("fig8", 2).expect("builtin resolves");
        let report = render_resolved(&ctx(), &resolved).expect("renders");
        assert!(
            report
                .notes
                .iter()
                .any(|n| n.starts_with("lineage: model v2") && n.contains("diverges")),
            "notes: {:?}",
            report.notes
        );
    }

    #[test]
    fn fig5_report_has_expected_series_and_ordering() {
        let report = render_artifact(&ctx(), "fig5").expect("renders");
        assert_eq!(report.tables.len(), 2);
        let rate = &report.tables[0];
        assert_eq!(rate.series.len(), 4);
        // SVW+UPD filters at least as well as the unfiltered NLQ for every workload.
        for w in &rate.workloads {
            let nlq = rate.value("NLQ", w).unwrap();
            let svw = rate.value("+SVW+UPD", w).unwrap();
            assert!(
                svw <= nlq + 1e-9,
                "{w}: SVW rate {svw} above NLQ rate {nlq}"
            );
        }
    }

    #[test]
    fn fig8_bigger_filters_are_no_worse() {
        let report = render_artifact(&ctx(), "fig8").expect("renders");
        let rate = &report.tables[0];
        for w in &rate.workloads {
            let small = rate.value("128", w).unwrap();
            let large = rate.value("2048", w).unwrap();
            let infinite = rate.value("Infinite", w).unwrap();
            assert!(large <= small + 1e-9);
            assert!(infinite <= large + 1e-9);
        }
    }

    #[test]
    fn multi_seed_reports_carry_confidence_intervals() {
        let ctx = ExperimentCtx {
            trace_len: 2_500,
            seeds: vec![3, 4, 5],
            adaptive: None,
            substrate: false,
            model_version: 1,
            opts: RunOptions::default(),
        };
        let report = render_artifact(&ctx, "fig8").expect("renders");
        let rate = &report.tables[0];
        for row in &rate.series {
            let ci = row.ci95.as_ref().expect("multi-seed rows carry CIs");
            assert_eq!(ci.len(), rate.workloads.len());
            assert!(ci.iter().all(|v| v.is_finite() && *v >= 0.0));
        }
        // Single-seed reports stay point estimates.
        let single = render_artifact(&ExperimentCtx::new(2_500, 3), "fig8").expect("renders");
        assert!(single.tables[0].series.iter().all(|r| r.ci95.is_none()));
    }

    #[test]
    fn stat_aggregation_matches_hand_computation() {
        let s = Stat::from_samples(&[1.0, 2.0, 3.0]);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.sd - 1.0).abs() < 1e-12);
        // df=2 → t=4.303; ci = 4.303 * 1 / sqrt(3)
        assert!((s.ci95 - 4.303 / 3f64.sqrt()).abs() < 1e-9);
        assert_eq!(s.n, 3);

        let single = Stat::from_samples(&[5.0]);
        assert_eq!(single.mean, 5.0);
        assert_eq!(single.ci95, 0.0);

        let empty = Stat::from_samples(&[]);
        assert!(empty.mean.is_nan());
        assert_eq!(empty.n, 0);
    }
}

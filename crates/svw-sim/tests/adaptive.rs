//! Integration tests for adaptive (`--ci-target`) renders: sampling stops at
//! the target, never exceeds `max_seeds`, and resumes losslessly — read from
//! the seeds and lines a render streams to its `--out` sink and from the extra
//! seed-cells it counts — plus the planner's artifact cell sets agreeing with
//! what the artifacts stream.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use svw_sim::{
    artifact_plans, json, parse_spec, render_specs, resolve_spec, AdaptiveOpts, CellId,
    ExperimentCtx, FigureReport, JsonlSink, Progress, ResolvedSpec, RunOptions, SweepMetrics,
    SweepObserver,
};

const LEN: usize = 1_500;

/// A two-matrix summary render over two workloads: 16 cells per seed.
const SPEC: &str = r#"schema_version = 1
name = "adapt"
description = "two small matrices under adaptive sampling"
renderer = "summary"
metrics = ["reexec_reduction"]

[[matrix]]
label = "adapt/NLQ_LS"
workloads = ["gzip", "mcf"]
configs = "fig5-nlq"
unfiltered_idx = 1
svw_idx = 3

[[matrix]]
label = "adapt/SSQ"
workloads = ["gzip", "mcf"]
configs = "fig6-ssq"
unfiltered_idx = 1
svw_idx = 3
"#;

fn spec() -> ResolvedSpec {
    resolve_spec(&parse_spec(SPEC, "adapt.toml").expect("parses"), 1).expect("resolves")
}

/// The (workload, configuration) pairs of one seed of the render.
fn cells_per_seed(spec: &ResolvedSpec) -> usize {
    spec.matrices
        .iter()
        .map(|m| m.workloads.len() * m.configs.len())
        .sum()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("svw-adaptive-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// What one adaptive render produced: its report, its extra seed-cells, the
/// cells it simulated (the rest were restored from the sink), and its final
/// `--progress` line.
struct Adaptive {
    report: FigureReport,
    extra_cells: u64,
    simulated: u64,
    progress: String,
}

/// Renders the spec adaptively at `jobs`, streaming every cell to `out`.
fn render(adaptive: AdaptiveOpts, out: &Path, jobs: usize) -> Adaptive {
    let sink = JsonlSink::open(out).unwrap();
    let observer = SweepObserver {
        metrics: Some(SweepMetrics::new()),
        progress: Some(Progress::new()),
        ..SweepObserver::default()
    };
    let ctx = ExperimentCtx {
        adaptive: Some(adaptive),
        opts: RunOptions {
            jobs,
            sink: Some(&sink),
            obs: Some(&observer),
            ..RunOptions::default()
        },
        ..ExperimentCtx::new(LEN, 1)
    };
    let mut reports = render_specs(&ctx, &[spec()]).expect("renders");
    let metrics = observer.metrics.as_ref().unwrap();
    Adaptive {
        report: reports.remove(0),
        extra_cells: metrics.adaptive_extra_cells.get(),
        simulated: metrics.totals().cells_simulated,
        progress: observer.progress.as_ref().unwrap().line(),
    }
}

/// The seeds each (matrix, workload, configuration) streamed to `out`,
/// sorted: cells stream in completion order, which varies with `jobs`.
fn streamed_seeds(out: &Path) -> BTreeMap<(String, String, String), Vec<u64>> {
    let mut seeds: BTreeMap<_, Vec<u64>> = BTreeMap::new();
    for line in fs::read_to_string(out).unwrap().lines() {
        let (id, result) = svw_sim::jsonl::parse_cell_line(line).expect("parses");
        assert!(result.is_ok(), "{id:?} failed");
        seeds
            .entry((id.matrix, id.workload, id.config))
            .or_default()
            .push(id.seed);
    }
    for list in seeds.values_mut() {
        list.sort_unstable();
    }
    seeds
}

/// The per-matrix adaptive-sampling notes of a report.
fn adaptive_notes(report: &FigureReport) -> Vec<&str> {
    report
        .notes
        .iter()
        .filter(|n| n.starts_with("adaptive sampling ("))
        .map(String::as_str)
        .collect()
}

/// The planner's artifact plans must agree with the cells the artifact renderers
/// actually stream — otherwise a complete `--out` file would not re-render the
/// artifact without simulating. Pinned here for fig8; the CI smoke covers fig5
/// end-to-end through the real binary.
#[test]
fn artifact_matrices_match_what_the_artifact_streams() {
    let dir = temp_dir("artifact");
    let path = dir.join("fig8.jsonl");
    let trace_len = 1_000usize;
    let sink = JsonlSink::open(&path).unwrap();
    let ctx = svw_sim::ExperimentCtx {
        trace_len,
        seeds: vec![1],
        adaptive: None,
        substrate: false,
        model_version: 1,
        opts: RunOptions {
            sink: Some(&sink),
            ..RunOptions::default()
        },
    };
    let _ = svw_sim::render_artifact(&ctx, "fig8").unwrap();
    drop(sink);

    let expected: Vec<CellId> = artifact_plans("fig8", trace_len, &[1], 1)
        .unwrap()
        .iter()
        .flat_map(|plan| plan.cell_ids().cloned())
        .collect();
    let streamed: Vec<CellId> = fs::read_to_string(&path)
        .unwrap()
        .lines()
        .map(|l| svw_sim::jsonl::parse_cell_line(l).expect("parses").0)
        .collect();
    assert_eq!(streamed.len(), expected.len());
    for id in &expected {
        assert!(
            streamed.contains(id),
            "expected cell {id:?} was not streamed by the fig8 artifact"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

/// The rounds of an adaptive render share their workers' simulation arenas, so
/// a render builds at most one pipeline per worker however many rounds it runs
/// (three here): later rounds only reset them.
#[test]
fn an_adaptive_render_rebuilds_each_workers_arena_once() {
    for jobs in [1, 2] {
        let observer = SweepObserver {
            metrics: Some(SweepMetrics::new()),
            ..SweepObserver::default()
        };
        let ctx = ExperimentCtx {
            adaptive: Some(AdaptiveOpts {
                ci_target_pct: 1e-6,
                min_seeds: 2,
                max_seeds: 4,
            }),
            opts: RunOptions {
                jobs,
                obs: Some(&observer),
                ..RunOptions::default()
            },
            ..ExperimentCtx::new(LEN, 1)
        };
        render_specs(&ctx, &[spec()]).expect("renders");
        let metrics = observer.metrics.as_ref().unwrap();
        let totals = metrics.totals();
        assert_eq!(
            totals.cells_simulated,
            4 * cells_per_seed(&spec()) as u64,
            "three rounds ran the unreachable target to max_seeds"
        );
        assert_eq!(totals.resets + totals.rebuilds, totals.cells_simulated);
        assert!(
            (1..=jobs as u64).contains(&totals.rebuilds),
            "jobs {jobs}: {} rebuilds, one per worker at most",
            totals.rebuilds
        );
        if jobs == 1 {
            assert_eq!(metrics.workers()[0].rebuilds, 1);
        }
    }
}

/// With a target so loose that `min_seeds` already satisfies it, adaptive sampling
/// must stop immediately: no extra cells, every workload at `min_seeds`.
#[test]
fn adaptive_sampling_stops_at_a_met_target() {
    let dir = temp_dir("met");
    let out = dir.join("met.jsonl");
    let adaptive = AdaptiveOpts {
        ci_target_pct: 1e9,
        min_seeds: 2,
        max_seeds: 8,
    };
    let run = render(adaptive, &out, 2);
    assert_eq!(run.extra_cells, 0);
    let seeds = streamed_seeds(&out);
    assert_eq!(seeds.len(), cells_per_seed(&spec()));
    for (cell, seeds) in &seeds {
        assert_eq!(seeds, &[1, 2], "{cell:?}: exactly min_seeds seeds");
    }
    let notes = adaptive_notes(&run.report);
    assert_eq!(notes.len(), 2, "one note per matrix: {notes:?}");
    for note in notes {
        assert!(note.starts_with("adaptive sampling (0 extra seed-cell(s)): "));
        for workload in ["gzip", "mcf"] {
            assert!(note.contains(&format!("{workload} 2 seed(s), worst IPC CI \u{b1}")));
        }
        assert!(!note.contains("[hit max-seeds]"), "target met: {note}");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// With an unreachable target, every workload must run exactly `max_seeds` seeds —
/// never more — and be reported as having hit the ceiling.
#[test]
fn adaptive_sampling_never_exceeds_max_seeds() {
    let dir = temp_dir("max");
    let out = dir.join("max.jsonl");
    let adaptive = AdaptiveOpts {
        ci_target_pct: 1e-9,
        min_seeds: 2,
        max_seeds: 4,
    };
    let run = render(adaptive, &out, 2);
    // The seeds are the arithmetic continuation of the base seed, per cell.
    let seeds = streamed_seeds(&out);
    assert_eq!(seeds.len(), cells_per_seed(&spec()));
    for (cell, seeds) in &seeds {
        assert_eq!(seeds, &[1, 2, 3, 4], "{cell:?}: exactly max_seeds seeds");
    }
    // Extra cells beyond min_seeds: (4 - 2) seeds × every (workload, config)
    // pair of every matrix.
    assert_eq!(run.extra_cells, 2 * cells_per_seed(&spec()) as u64);
    let notes = adaptive_notes(&run.report);
    assert_eq!(notes.len(), 2, "one note per matrix: {notes:?}");
    for (note, m) in notes.iter().zip(&spec().matrices) {
        let extra = 2 * m.workloads.len() * m.configs.len();
        assert!(note.starts_with(&format!("adaptive sampling ({extra} extra seed-cell(s)): ")));
        // An ~0 target is unreachable here, so every workload hit the cap.
        for workload in ["gzip", "mcf"] {
            assert!(
                note.contains(&format!("{workload} 4 seed(s)")),
                "{workload}: {note}"
            );
        }
        assert_eq!(note.matches(" [hit max-seeds]").count(), 2, "{note}");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Adaptive renders are resume-safe: re-rendering over the `--out` stream
/// restores every round's cells, simulates nothing and renders the same bytes.
#[test]
fn adaptive_sampling_resumes_losslessly() {
    let dir = temp_dir("resume");
    let out = dir.join("adaptive.jsonl");
    let adaptive = AdaptiveOpts {
        ci_target_pct: 1e-9,
        min_seeds: 2,
        max_seeds: 3,
    };
    let fresh = render(adaptive, &out, 1);
    let lines = fs::read_to_string(&out).unwrap().lines().count();
    assert_eq!(lines, 3 * cells_per_seed(&spec()), "one line per cell");
    let resumed = render(adaptive, &out, 4);
    assert_eq!(resumed.simulated, 0, "the resume simulates nothing");
    assert_eq!(resumed.extra_cells, fresh.extra_cells);
    assert_eq!(
        resumed.report.to_string(),
        fresh.report.to_string(),
        "a resumed adaptive render must be byte-identical"
    );
    assert_eq!(
        json::array([resumed.report.to_json()]),
        json::array([fresh.report.to_json()])
    );
    // The resume appended nothing.
    assert_eq!(fs::read_to_string(&out).unwrap().lines().count(), lines);
    let _ = fs::remove_dir_all(&dir);
}

/// The `--progress` total of an adaptive render starts at every cell it can
/// run (every workload to `max_seeds`) and drops the seeds a workload no
/// longer owes once it meets the target. The ETA is then an upper bound, and
/// the total ends at the cells run, whether the target stops sampling at
/// `min_seeds` or `max_seeds` does.
#[test]
fn the_progress_total_ends_at_the_cells_run() {
    let dir = temp_dir("progress");
    for (ci_target_pct, seeds_run) in [(1e9, 2), (1e-9, 4)] {
        let out = dir.join(format!("progress-{seeds_run}.jsonl"));
        let adaptive = AdaptiveOpts {
            ci_target_pct,
            min_seeds: 2,
            max_seeds: 4,
        };
        let run = render(adaptive, &out, 2);
        let cells = seeds_run * cells_per_seed(&spec());
        assert_eq!(run.simulated, cells as u64);
        assert!(
            run.progress
                .starts_with(&format!("[svwsim] progress: {cells}/{cells} cells")),
            "{}",
            run.progress
        );
        assert!(!run.progress.contains("ETA"), "{}", run.progress);
    }
    let _ = fs::remove_dir_all(&dir);
}

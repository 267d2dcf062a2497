//! Integration tests for the adaptive sweep engine: CI-targeted sampling stops
//! at the target, never exceeds `--max-seeds`, and resumes losslessly — plus
//! the planner's artifact cell sets agreeing with what the artifacts stream.

use std::fs;
use std::path::PathBuf;

use svw_cpu::{LsqOrganization, MachineConfig, ReexecMode};
use svw_sim::{artifact_plans, run_cells_adaptive, AdaptiveOpts, CellId, JsonlSink, RunOptions};
use svw_workloads::WorkloadProfile;

const LEN: usize = 1_500;

fn workloads() -> Vec<WorkloadProfile> {
    vec![
        WorkloadProfile::quicktest(),
        WorkloadProfile::by_name("gzip").unwrap(),
    ]
}

fn configs() -> Vec<MachineConfig> {
    vec![
        MachineConfig::eight_wide(
            "base",
            LsqOrganization::Conventional {
                extra_load_latency: 0,
                store_exec_bandwidth: 1,
            },
            ReexecMode::None,
        ),
        MachineConfig::eight_wide(
            "nlq",
            LsqOrganization::Nlq {
                store_exec_bandwidth: 2,
            },
            ReexecMode::Full,
        ),
    ]
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("svw-adaptive-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
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

/// With a target so loose that `min_seeds` already satisfies it, adaptive sampling
/// must stop immediately: no extra cells, every workload at `min_seeds`.
#[test]
fn adaptive_sampling_stops_at_a_met_target() {
    let workloads = workloads();
    let configs = configs();
    let adaptive = AdaptiveOpts {
        ci_target_pct: 1e9,
        min_seeds: 2,
        max_seeds: 8,
    };
    let sweep = run_cells_adaptive(
        "adapt",
        &workloads,
        &configs,
        LEN,
        1,
        0,
        &adaptive,
        &RunOptions::default(),
    );
    assert_eq!(sweep.extra_cells, 0);
    for report in &sweep.reports {
        assert!(report.met_target, "{}: target missed", report.workload);
        assert_eq!(report.seeds_run, 2);
        assert!(report.achieved_ci_pct <= 1e9);
    }
    for row in &sweep.groups {
        for cells in row {
            assert_eq!(cells.len(), 2, "exactly min_seeds cells per group");
        }
    }
}

/// With an unreachable target, every workload must run exactly `max_seeds` seeds —
/// never more — and be reported as having hit the ceiling; the invariant "every
/// reported CI meets the target or the workload hit max-seeds" holds throughout.
#[test]
fn adaptive_sampling_never_exceeds_max_seeds() {
    let workloads = workloads();
    let configs = configs();
    let adaptive = AdaptiveOpts {
        ci_target_pct: 1e-9,
        min_seeds: 2,
        max_seeds: 4,
    };
    let sweep = run_cells_adaptive(
        "adapt",
        &workloads,
        &configs,
        LEN,
        1,
        0,
        &adaptive,
        &RunOptions::default(),
    );
    for report in &sweep.reports {
        assert!(
            report.met_target || report.seeds_run == adaptive.max_seeds,
            "{}: CI {} misses the target but stopped at {} < max_seeds",
            report.workload,
            report.achieved_ci_pct,
            report.seeds_run
        );
        assert!(report.seeds_run <= adaptive.max_seeds);
    }
    // An ~0 target is unreachable here, so every workload must have hit the cap.
    assert!(sweep.reports.iter().all(|r| !r.met_target));
    for row in &sweep.groups {
        for cells in row {
            assert_eq!(cells.len(), 4, "exactly max_seeds cells per group");
        }
    }
    // Extra cells beyond min_seeds: (4 - 2) seeds × all (workload, config) pairs.
    assert_eq!(
        sweep.extra_cells,
        2 * workloads.len() * configs.len(),
        "extra seed-cells are all (max-min) rounds across the matrix"
    );
    // The seeds are the arithmetic continuation of the starting seed, per group.
    for row in &sweep.groups {
        for cells in row {
            let seeds: Vec<u64> = cells.iter().map(|c| c.seed).collect();
            assert_eq!(seeds, vec![1, 2, 3, 4]);
        }
    }
}

/// Adaptive sweeps are resume-safe: re-running over the JSONL stream restores every
/// round's cells and schedules nothing new.
#[test]
fn adaptive_sampling_resumes_losslessly() {
    let dir = temp_dir("adaptive-resume");
    let path = dir.join("adaptive.jsonl");
    let workloads = workloads();
    let configs = configs();
    let adaptive = AdaptiveOpts {
        ci_target_pct: 1e-9,
        min_seeds: 2,
        max_seeds: 3,
    };
    let fresh = {
        let sink = JsonlSink::open(&path).unwrap();
        let opts = RunOptions {
            sink: Some(&sink),
            ..RunOptions::default()
        };
        run_cells_adaptive("adapt", &workloads, &configs, LEN, 1, 0, &adaptive, &opts)
    };
    let resumed = {
        let sink = JsonlSink::open(&path).unwrap();
        let opts = RunOptions {
            sink: Some(&sink),
            ..RunOptions::default()
        };
        run_cells_adaptive("adapt", &workloads, &configs, LEN, 1, 0, &adaptive, &opts)
    };
    for (a, b) in fresh.reports.iter().zip(resumed.reports.iter()) {
        assert_eq!(a.seeds_run, b.seeds_run);
        assert_eq!(a.met_target, b.met_target);
    }
    for (ra, rb) in fresh.groups.iter().zip(resumed.groups.iter()) {
        for (ca, cb) in ra.iter().zip(rb.iter()) {
            for (a, b) in ca.iter().zip(cb.iter()) {
                assert_eq!(
                    format!("{:?}", a.stats().unwrap()),
                    format!("{:?}", b.stats().unwrap()),
                    "resumed adaptive cells must be byte-identical"
                );
            }
        }
    }
    // One line per (workload, config, seed) cell — the resume simulated nothing new.
    let lines = fs::read_to_string(&path).unwrap().lines().count();
    assert_eq!(lines, workloads.len() * configs.len() * 3);
    let _ = fs::remove_dir_all(&dir);
}

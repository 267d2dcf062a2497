//! Integration tests for trace sharing inside one plan: byte-identity at every
//! job count against a per-cell generate-and-simulate reference, kill/resume
//! mid-trace-group, and a render acquiring each trace once across all of its
//! matrices and specs.

use std::fs;
use std::path::PathBuf;

use svw_cpu::{Cpu, LsqOrganization, MachineConfig, ReexecMode};
use svw_sim::{
    artifact_resolved, execute_plan, render_specs, run_cells, AdaptiveOpts, ExperimentCtx,
    JsonlSink, RunOptions, SweepMetrics, SweepObserver, SweepPlan,
};
use svw_workloads::WorkloadProfile;

const LEN: usize = 2_000;

fn workloads() -> Vec<WorkloadProfile> {
    vec![
        WorkloadProfile::quicktest(),
        WorkloadProfile::by_name("gzip").unwrap(),
        WorkloadProfile::by_name("mcf").unwrap(),
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
    let dir = std::env::temp_dir().join(format!("svw-decode-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Byte-identical rendering of a cell list, as in the scheduler tests.
fn fingerprint(cells: &[svw_sim::ExperimentCell]) -> String {
    cells
        .iter()
        .map(|c| {
            format!(
                "{}|{}|{}|{}\n",
                c.workload,
                c.config,
                c.seed,
                c.stats().map(|s| format!("{s:?}")).unwrap_or_default()
            )
        })
        .collect()
}

/// Sharing a plan's traces must never change results: `execute_plan` at every
/// job count produces cell statistics byte-identical to generating each cell's
/// trace itself and simulating it on a fresh `Cpu`.
#[test]
fn shared_decode_is_byte_identical_across_job_counts() {
    let workloads = workloads();
    let configs = configs();
    let seeds = [5u64, 6];

    // Reference: every cell generates its own trace, sequentially, in canonical
    // (workload, configuration, seed) order.
    let mut reference = String::new();
    for w in &workloads {
        for c in &configs {
            for &s in &seeds {
                let program = w.generate(LEN, s);
                let stats = Cpu::new(c.clone(), &program).run();
                reference.push_str(&format!("{}|{}|{}|{:?}\n", w.name, c.name, s, stats));
            }
        }
    }

    let plan = SweepPlan::enumerate("det", &workloads, &configs, LEN, &seeds, 0);
    for jobs in [1usize, 4, 16] {
        let opts = RunOptions {
            jobs,
            ..RunOptions::default()
        };
        let result = execute_plan(&plan, &opts);
        assert_eq!(
            fingerprint(&result.cells),
            reference,
            "decode sharing changed results at jobs={jobs}"
        );
    }
}

/// Each round of a render is one plan, so each trace is acquired once for
/// every matrix and spec that replays it: `summary` runs three matrices over
/// the same 16 SPECint traces, and `tables` adds `ssn-width` and `spec-ssbf`
/// over five of them. Rendering each matrix as its own plan would generate 48
/// traces for `summary` alone. An adaptive render at an unreachable target runs
/// every workload to `max_seeds` 3, so it needs 48 traces, one per (workload,
/// seed), however many matrices replay them.
#[test]
fn a_render_acquires_each_trace_once_across_its_matrices() {
    let unreachable = AdaptiveOpts {
        ci_target_pct: 1e-9,
        min_seeds: 2,
        max_seeds: 3,
    };
    let cases: [(&[&str], Option<AdaptiveOpts>, u64, u64); 4] = [
        (&["summary"], None, 240, 16),
        (&["ssn-width", "spec-ssbf", "summary"], None, 285, 16),
        (&["summary"], Some(unreachable), 3 * 240, 48),
        (
            &["ssn-width", "spec-ssbf", "summary"],
            Some(unreachable),
            3 * 285,
            48,
        ),
    ];
    for (names, adaptive, cells, traces) in cases {
        let specs: Vec<_> = names
            .iter()
            .map(|n| artifact_resolved(n, 1).unwrap())
            .collect();
        for jobs in [1usize, 4] {
            let observer = SweepObserver {
                metrics: Some(SweepMetrics::new()),
                ..SweepObserver::default()
            };
            let ctx = ExperimentCtx {
                adaptive,
                opts: RunOptions {
                    jobs,
                    obs: Some(&observer),
                    ..RunOptions::default()
                },
                ..ExperimentCtx::new(1_000, 1)
            };
            let reports = render_specs(&ctx, &specs).expect("renders");
            assert_eq!(reports.len(), names.len());
            let metrics = observer.metrics.as_ref().unwrap();
            let case = format!("{names:?} (adaptive {}) at jobs={jobs}", adaptive.is_some());
            assert_eq!(
                metrics.totals().cells_simulated,
                cells,
                "{case}: every cell simulated"
            );
            assert_eq!(
                metrics.traces_generated.get(),
                traces,
                "{case}: one trace per (workload, seed)"
            );
            assert_eq!(
                metrics.cells_shared_decode.get(),
                cells - traces,
                "{case}: every other cell shares"
            );
        }
    }
}

/// Kill/resume mid-trace-group: truncate the results file in the middle of a
/// slot's cell group and resume — restored + re-simulated cells must match a
/// fresh run byte-for-byte.
#[test]
fn resume_mid_trace_group_with_shared_decode_is_lossless() {
    let dir = temp_dir("resume");
    let path = dir.join("results.jsonl");
    let workloads = workloads();
    let configs = configs();
    let seeds = [7u64, 8];
    let total = workloads.len() * configs.len() * seeds.len();

    let fresh = {
        let sink = JsonlSink::open(&path).unwrap();
        let opts = RunOptions {
            jobs: 1,
            sink: Some(&sink),
            ..RunOptions::default()
        };
        run_cells("resume", &workloads, &configs, LEN, &seeds, 0, &opts)
    };
    let lines: Vec<String> = fs::read_to_string(&path)
        .unwrap()
        .lines()
        .map(String::from)
        .collect();
    assert_eq!(lines.len(), total, "one streamed line per cell");

    // Cut inside a trace group: with jobs=1 cells stream slot by slot
    // (`configs.len()` cells per (workload, seed) slot), so an odd prefix ends
    // mid-slot — the resumed run re-acquires that trace for the group's tail.
    let keep = 3usize;
    assert!(
        !keep.is_multiple_of(configs.len()),
        "cut must land inside a slot"
    );
    fs::write(&path, format!("{}\n", lines[..keep].join("\n"))).unwrap();

    let observer = SweepObserver {
        metrics: Some(SweepMetrics::new()),
        ..SweepObserver::default()
    };
    let resumed = {
        let sink = JsonlSink::open(&path).unwrap();
        assert_eq!(sink.restored_count(), keep);
        let opts = RunOptions {
            jobs: 4,
            sink: Some(&sink),
            obs: Some(&observer),
            ..RunOptions::default()
        };
        run_cells("resume", &workloads, &configs, LEN, &seeds, 0, &opts)
    };
    let restored = observer.metrics.as_ref().unwrap().totals().cells_restored;
    assert_eq!(restored, keep as u64);
    assert_eq!(
        fingerprint(&resumed.cells),
        fingerprint(&fresh.cells),
        "resume with shared decode must be lossless"
    );

    let _ = fs::remove_dir_all(&dir);
}

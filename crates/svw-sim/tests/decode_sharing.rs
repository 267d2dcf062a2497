//! Integration tests for the decode-once shared trace arenas: byte-identity
//! with and without sharing at every job count against a per-cell
//! generate-and-simulate reference, arena lifetime bounds (failed cells
//! included), and kill/resume mid-trace-group with sharing enabled.

use std::fs;
use std::path::PathBuf;

use svw_cpu::{Cpu, LsqOrganization, MachineConfig, ReexecMode};
use svw_sim::{execute_plan, run_cells, JsonlSink, RunOptions, SweepPlan};
use svw_workloads::{TraceArenas, TraceKey, WorkloadProfile};

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

/// Sharing decoded arenas must never change results: `execute_plan` with and
/// without a cross-plan arena registry, at every job count, produces cell
/// statistics byte-identical to generating each cell's trace itself and
/// simulating it on a fresh `Cpu`.
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
        for shared in [false, true] {
            let arenas = TraceArenas::new();
            let opts = RunOptions {
                jobs,
                arenas: shared.then_some(&arenas),
                ..RunOptions::default()
            };
            let result = execute_plan(&plan, &opts);
            assert_eq!(
                fingerprint(&result.cells),
                reference,
                "decode sharing changed results at jobs={jobs} shared={shared}"
            );
            assert_eq!(arenas.live_keys(), 0, "every registration was released");
        }
    }
}

/// The arena registry's lifetime contract: while a plan runs, the number of
/// retained arenas never exceeds its distinct trace keys, and when the plan
/// finishes — failed (panicked) cells included — every registration has been
/// released and nothing stays resident.
#[test]
fn arenas_are_bounded_and_drained_even_with_failed_cells() {
    let workloads = workloads();
    let mut configs = configs();
    let mut poisoned = configs[0].clone();
    poisoned.name = "poisoned".to_string();
    poisoned.rob_size = 0; // MachineConfig::validate panics inside the cell
    configs.push(poisoned);
    let seeds = [1u64, 2];
    let distinct_keys: usize = {
        let mut keys: Vec<TraceKey> = workloads
            .iter()
            .flat_map(|w| seeds.iter().map(|&s| TraceKey::of(w, LEN, s)))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys.len()
    };

    let arenas = TraceArenas::new();
    let opts = RunOptions {
        jobs: 4,
        arenas: Some(&arenas),
        ..RunOptions::default()
    };
    let result = run_cells("panic", &workloads, &configs, LEN, &seeds, 0, &opts);
    assert_eq!(
        result.failures().count(),
        workloads.len() * seeds.len(),
        "every poisoned cell failed, everything else completed"
    );
    assert!(
        arenas.peak_decoded() as usize <= distinct_keys,
        "peak decoded arenas ({}) exceeded the plan's distinct trace keys ({distinct_keys})",
        arenas.peak_decoded()
    );
    assert_eq!(
        arenas.live_keys(),
        0,
        "failed cells still release their uses"
    );
    assert_eq!(arenas.live_decoded(), 0, "no arena outlives the plan");
}

/// Kill/resume mid-trace-group with sharing enabled: truncate the results file
/// in the middle of a slot's cell group and resume with arenas on — restored +
/// re-simulated cells must match a fresh run byte-for-byte, and the arenas must
/// drain afterwards.
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
        let arenas = TraceArenas::new();
        let opts = RunOptions {
            jobs: 1,
            sink: Some(&sink),
            arenas: Some(&arenas),
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

    let arenas = TraceArenas::new();
    let resumed = {
        let sink = JsonlSink::open(&path).unwrap();
        assert_eq!(sink.restored_count(), keep);
        let opts = RunOptions {
            jobs: 4,
            sink: Some(&sink),
            arenas: Some(&arenas),
            ..RunOptions::default()
        };
        run_cells("resume", &workloads, &configs, LEN, &seeds, 0, &opts)
    };
    assert_eq!(resumed.restored, keep);
    assert_eq!(
        fingerprint(&resumed.cells),
        fingerprint(&fresh.cells),
        "resume with shared decode must be lossless"
    );
    assert_eq!(arenas.live_keys(), 0, "arenas drain after the resumed plan");

    let _ = fs::remove_dir_all(&dir);
}

//! Integration tests for the content-addressed result cache: warm-cache
//! byte-identity at every job count across every builtin artifact, key
//! mismatches that must miss (and spec edits that must not), artifacts that
//! share machines sharing results, and concurrent sweeps sharing one cache
//! directory.

use std::fs;
use std::path::PathBuf;

use svw_cpu::{LsqOrganization, MachineConfig, ReexecMode};
use svw_sim::{
    render_artifact, run_cells, CacheMode, ExperimentCtx, ResultCache, RunOptions, ARTIFACT_NAMES,
};
use svw_workloads::WorkloadProfile;

const LEN: usize = 2_000;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("svw-rcache-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

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

/// Byte-identical rendering of a cell list, used to compare runs.
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

#[test]
fn warm_cache_renders_every_builtin_artifact_byte_identically_at_every_job_count() {
    let dir = temp_dir("artifacts");
    let render = |rc: Option<&ResultCache>, jobs: usize, name: &str| {
        let ctx = ExperimentCtx {
            trace_len: 400,
            seeds: vec![1],
            adaptive: None,
            substrate: false,
            model_version: 1,
            opts: RunOptions {
                jobs,
                result_cache: rc,
                ..RunOptions::default()
            },
        };
        let report = render_artifact(&ctx, name).unwrap();
        (format!("{report}"), report.to_json())
    };
    for (name, _) in ARTIFACT_NAMES {
        let cache_dir = dir.join(name);
        let uncached = render(None, 1, name);
        // Cold pass populates the store; it must not perturb the render.
        let cold = ResultCache::open(&cache_dir, CacheMode::ReadWrite).unwrap();
        assert_eq!(
            render(Some(&cold), 2, name),
            uncached,
            "{name}: cold render"
        );
        assert!(cold.counters().stores > 0, "{name}: cold pass published");
        // Warm passes serve every cell from the store at any parallelism.
        for jobs in [1usize, 4, 16] {
            let warm = ResultCache::open(&cache_dir, CacheMode::ReadWrite).unwrap();
            assert_eq!(
                render(Some(&warm), jobs, name),
                uncached,
                "{name}: warm render at jobs={jobs}"
            );
            let counters = warm.counters();
            assert_eq!(
                counters.misses, 0,
                "{name}: a warm pass at jobs={jobs} must simulate nothing"
            );
            assert!(counters.hits > 0, "{name}: warm pass served from the cache");
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn artifacts_that_repeat_a_figure_simulate_nothing_after_it() {
    let dir = temp_dir("shared");
    let render = |rc: Option<&ResultCache>, name: &str| {
        let ctx = ExperimentCtx {
            trace_len: 400,
            seeds: vec![1],
            adaptive: None,
            substrate: false,
            model_version: 1,
            opts: RunOptions {
                result_cache: rc,
                ..RunOptions::default()
            },
        };
        let report = render_artifact(&ctx, name).unwrap();
        (format!("{report}"), report.to_json())
    };
    for (figures, repeat) in [
        (&["fig5", "fig6", "fig7"][..], "summary"),
        (&["fig8"][..], "substrate-ssbf"),
    ] {
        let cache_dir = dir.join(repeat);
        let rc = ResultCache::open(&cache_dir, CacheMode::ReadWrite).unwrap();
        for figure in figures {
            render(Some(&rc), figure);
        }
        let warm = ResultCache::open(&cache_dir, CacheMode::ReadWrite).unwrap();
        assert_eq!(
            render(Some(&warm), repeat),
            render(None, repeat),
            "{repeat}"
        );
        let counters = warm.counters();
        assert_eq!(
            counters.misses, 0,
            "{repeat} after {figures:?} simulates nothing"
        );
        assert!(counters.hits > 0);
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn lineage_mismatches_must_miss() {
    let dir = temp_dir("lineage");
    let (workloads, configs) = (workloads(), configs());
    let seeds = [1u64, 2];

    let v1 = ResultCache::open(&dir, CacheMode::ReadWrite).unwrap();
    let opts = RunOptions {
        result_cache: Some(&v1),
        ..RunOptions::default()
    };
    let baseline = run_cells("lineage", &workloads, &configs, LEN, &seeds, 7, &opts);
    assert_eq!(v1.counters().stores, baseline.cells.len() as u64);

    // Same cells under model version 2: every lookup must miss.
    let v2_configs: Vec<MachineConfig> = configs
        .iter()
        .map(|c| c.clone().with_model_version(2))
        .collect();
    let v2 = ResultCache::open(&dir, CacheMode::ReadWrite).unwrap();
    let opts = RunOptions {
        result_cache: Some(&v2),
        ..RunOptions::default()
    };
    let result = run_cells("lineage", &workloads, &v2_configs, LEN, &seeds, 7, &opts);
    assert_eq!(v2.counters().hits, 0, "model v2 must not reuse v1 results");
    assert_eq!(result.cached, 0);

    // Same machines under an edited spec fingerprint: the spec is not the
    // machine, so every lookup hits.
    let fp = ResultCache::open(&dir, CacheMode::ReadWrite).unwrap();
    let opts = RunOptions {
        result_cache: Some(&fp),
        ..RunOptions::default()
    };
    let result = run_cells("lineage", &workloads, &configs, LEN, &seeds, 8, &opts);
    assert_eq!(
        fp.counters().misses,
        0,
        "a spec edit that leaves every machine unchanged must reuse its results"
    );
    assert_eq!(result.cached, result.cells.len());
    assert_eq!(fingerprint(&result.cells), fingerprint(&baseline.cells));

    // A stale preset: each config keeps its name, but its ROB shrinks from
    // 512 to 64 entries. Every lookup must miss.
    let stale_configs: Vec<MachineConfig> = configs
        .iter()
        .map(|c| {
            assert_eq!(c.rob_size, 512);
            MachineConfig {
                rob_size: 64,
                ..c.clone()
            }
        })
        .collect();
    let stale = ResultCache::open(&dir, CacheMode::ReadWrite).unwrap();
    let opts = RunOptions {
        result_cache: Some(&stale),
        ..RunOptions::default()
    };
    let result = run_cells("lineage", &workloads, &stale_configs, LEN, &seeds, 7, &opts);
    assert_eq!(
        stale.counters().hits,
        0,
        "a preset edited under its old name must not reuse the old machine's results"
    );
    assert_eq!(result.cached, 0);

    // The unchanged lineage still hits everything.
    let warm = ResultCache::open(&dir, CacheMode::ReadWrite).unwrap();
    let opts = RunOptions {
        result_cache: Some(&warm),
        ..RunOptions::default()
    };
    let result = run_cells("lineage", &workloads, &configs, LEN, &seeds, 7, &opts);
    assert_eq!(result.cached, result.cells.len());
    assert_eq!(warm.counters().misses, 0);
    assert_eq!(fingerprint(&result.cells), fingerprint(&baseline.cells));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_sweeps_share_one_cache_directory() {
    let dir = temp_dir("stress");
    let (workloads, configs) = (workloads(), configs());
    // A torn tmp leftover from a "killed writer" must never fail the sweeps.
    let abandoned = dir.join("ab").join("junk.tmp.1.2");
    fs::create_dir_all(abandoned.parent().unwrap()).unwrap();
    fs::write(&abandoned, "partial entry").unwrap();

    // Two sweeps with overlapping seed ranges race stores onto the same
    // entries at --jobs 4.
    let fingerprints: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = [[1u64, 2, 3, 4], [3u64, 4, 5, 6]]
            .into_iter()
            .map(|seeds| {
                let (workloads, configs) = (&workloads, &configs);
                let dir = &dir;
                scope.spawn(move || {
                    let rc = ResultCache::open(dir, CacheMode::ReadWrite).unwrap();
                    let opts = RunOptions {
                        jobs: 4,
                        result_cache: Some(&rc),
                        ..RunOptions::default()
                    };
                    let result = run_cells("stress", workloads, configs, LEN, &seeds, 0, &opts);
                    assert_eq!(
                        result.failures().count(),
                        0,
                        "no sweep fails under racing writers"
                    );
                    fingerprint(&result.cells)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    // Overlapping cells (seeds 3 and 4) produced identical bytes regardless of
    // which sweep stored them first.
    let overlap: Vec<&str> = fingerprints[1]
        .lines()
        .filter(|l| l.contains("|3|") || l.contains("|4|"))
        .collect();
    assert!(!overlap.is_empty());
    for line in overlap {
        assert!(
            fingerprints[0].contains(line),
            "overlapping cell diverged: {line}"
        );
    }

    // The store is fully intact: every distinct cell committed, none torn.
    let rc = ResultCache::open(&dir, CacheMode::ReadWrite).unwrap();
    let report = rc.verify().unwrap();
    assert_eq!(report.corrupt, 0, "{report:?}");
    let distinct = workloads.len() * configs.len() * 6; // seeds 1..=6
    assert_eq!(report.checked as usize, distinct);
    // A third, warm sweep over the union simulates nothing.
    let opts = RunOptions {
        jobs: 4,
        result_cache: Some(&rc),
        ..RunOptions::default()
    };
    let result = run_cells(
        "stress",
        &workloads,
        &configs,
        LEN,
        &[1, 2, 3, 4, 5, 6],
        0,
        &opts,
    );
    assert_eq!(result.cached, result.cells.len());
    assert_eq!(rc.counters().misses, 0);
    let _ = fs::remove_dir_all(&dir);
}

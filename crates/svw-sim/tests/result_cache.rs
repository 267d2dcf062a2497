//! Integration tests for the content-addressed result cache: warm-cache
//! byte-identity at every job count across every builtin artifact, key
//! mismatches that must miss (and spec edits that must not), artifacts that
//! share machines sharing results, and concurrent sweeps sharing one cache
//! directory.

use std::fs;
use std::path::PathBuf;

use svw_cpu::{LsqOrganization, MachineConfig, ReexecMode};
use svw_sim::{
    builtin_specs, render_artifact, run_cells, CacheMode, ExperimentCtx, ResultCache, RunOptions,
    SweepMetrics, SweepObserver,
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

/// Runs `run` under a fresh metrics observer and returns what it returned
/// with the metrics, the runner's count of the result-cache traffic.
fn metered<T>(run: impl FnOnce(&SweepObserver) -> T) -> (T, SweepMetrics) {
    let observer = SweepObserver {
        metrics: Some(SweepMetrics::new()),
        ..SweepObserver::default()
    };
    let out = run(&observer);
    (out, observer.metrics.expect("metered"))
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
        metered(|obs| {
            let ctx = ExperimentCtx {
                trace_len: 400,
                seeds: vec![1],
                adaptive: None,
                substrate: false,
                model_version: 1,
                opts: RunOptions {
                    jobs,
                    obs: Some(obs),
                    result_cache: rc,
                    ..RunOptions::default()
                },
            };
            let report = render_artifact(&ctx, name).unwrap();
            (format!("{report}"), report.to_json())
        })
    };
    for spec in builtin_specs() {
        let name = spec.name.as_str();
        let cache_dir = dir.join(name);
        let (uncached, _) = render(None, 1, name);
        // Cold pass populates the store; it must not perturb the render.
        let cold = ResultCache::open(&cache_dir, CacheMode::ReadWrite).unwrap();
        let (rendered, metrics) = render(Some(&cold), 2, name);
        assert_eq!(rendered, uncached, "{name}: cold render");
        assert!(
            metrics.result_cache_stores.get() > 0,
            "{name}: cold pass published"
        );
        // Warm passes serve every cell from the store at any parallelism.
        for jobs in [1usize, 4, 16] {
            let warm = ResultCache::open(&cache_dir, CacheMode::ReadWrite).unwrap();
            let (rendered, metrics) = render(Some(&warm), jobs, name);
            assert_eq!(rendered, uncached, "{name}: warm render at jobs={jobs}");
            assert_eq!(
                metrics.result_cache_misses.get(),
                0,
                "{name}: a warm pass at jobs={jobs} must simulate nothing"
            );
            assert!(
                metrics.result_cache_hits.get() > 0,
                "{name}: warm pass served from the cache"
            );
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn artifacts_that_repeat_a_figure_simulate_nothing_after_it() {
    let dir = temp_dir("shared");
    let render = |rc: Option<&ResultCache>, name: &str| {
        metered(|obs| {
            let ctx = ExperimentCtx {
                trace_len: 400,
                seeds: vec![1],
                adaptive: None,
                substrate: false,
                model_version: 1,
                opts: RunOptions {
                    obs: Some(obs),
                    result_cache: rc,
                    ..RunOptions::default()
                },
            };
            let report = render_artifact(&ctx, name).unwrap();
            (format!("{report}"), report.to_json())
        })
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
        let (rendered, metrics) = render(Some(&warm), repeat);
        assert_eq!(rendered, render(None, repeat).0, "{repeat}");
        assert_eq!(
            metrics.result_cache_misses.get(),
            0,
            "{repeat} after {figures:?} simulates nothing"
        );
        assert!(metrics.result_cache_hits.get() > 0);
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn lineage_mismatches_must_miss() {
    let dir = temp_dir("lineage");
    let (workloads, configs) = (workloads(), configs());
    let seeds = [1u64, 2];

    // One sweep over `configs` with spec fingerprint `spec`, through a fresh
    // instance of the cache (so nothing is served from an in-process index).
    let sweep = |configs: &[MachineConfig], spec: u64| {
        let rc = ResultCache::open(&dir, CacheMode::ReadWrite).unwrap();
        metered(|obs| {
            let opts = RunOptions {
                result_cache: Some(&rc),
                obs: Some(obs),
                ..RunOptions::default()
            };
            run_cells("lineage", &workloads, configs, LEN, &seeds, spec, &opts)
        })
    };
    let (baseline, v1) = sweep(&configs, 7);
    assert_eq!(v1.result_cache_stores.get(), baseline.cells.len() as u64);

    // Same cells under model version 2: every lookup must miss.
    let v2_configs: Vec<MachineConfig> = configs
        .iter()
        .map(|c| c.clone().with_model_version(2))
        .collect();
    let (_, v2) = sweep(&v2_configs, 7);
    assert_eq!(
        v2.result_cache_hits.get(),
        0,
        "model v2 must not reuse v1 results"
    );
    assert_eq!(v2.totals().cells_cached, 0);

    // Same machines under an edited spec fingerprint: the spec is not the
    // machine, so every lookup hits.
    let (result, fp) = sweep(&configs, 8);
    assert_eq!(
        fp.result_cache_misses.get(),
        0,
        "a spec edit that leaves every machine unchanged must reuse its results"
    );
    assert_eq!(fp.totals().cells_cached, result.cells.len() as u64);
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
    let (_, stale) = sweep(&stale_configs, 7);
    assert_eq!(
        stale.result_cache_hits.get(),
        0,
        "a preset edited under its old name must not reuse the old machine's results"
    );
    assert_eq!(stale.totals().cells_cached, 0);

    // The unchanged lineage still hits everything.
    let (result, warm) = sweep(&configs, 7);
    assert_eq!(warm.totals().cells_cached, result.cells.len() as u64);
    assert_eq!(warm.result_cache_misses.get(), 0);
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
    let (result, metrics) = metered(|obs| {
        let opts = RunOptions {
            jobs: 4,
            result_cache: Some(&rc),
            obs: Some(obs),
            ..RunOptions::default()
        };
        run_cells(
            "stress",
            &workloads,
            &configs,
            LEN,
            &[1, 2, 3, 4, 5, 6],
            0,
            &opts,
        )
    });
    assert_eq!(metrics.totals().cells_cached, result.cells.len() as u64);
    assert_eq!(metrics.result_cache_misses.get(), 0);
    let _ = fs::remove_dir_all(&dir);
}

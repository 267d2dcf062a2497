//! Matrix-level benchmark: the cell-parallel sweep engine end-to-end over small
//! (workload × configuration × seed) matrices — fig5's NLQ axis, and one SSQ cell
//! set whose busy cycles the fig5 cells do not reach. The simulator's per-cycle
//! hot loop (commit / re-execute / issue / dispatch) dominates a sweep, so work on
//! that loop moves this benchmark directly.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use svw_sim::{
    presets, run_cells, CacheMode, ResultCache, RunOptions, SweepMetrics, SweepObserver,
};
use svw_workloads::WorkloadProfile;

/// Long enough for predictors to train and the ROB to stay busy; short enough for
/// repeated sampling.
const BENCH_TRACE_LEN: usize = 8_000;

fn sweep_matrix(c: &mut Criterion) {
    let workloads: Vec<WorkloadProfile> = ["gcc", "vortex"]
        .iter()
        .map(|n| WorkloadProfile::by_name(n).expect("workload exists"))
        .collect();
    let configs = presets::fig5_nlq_configs();
    let seeds = [1u64, 2];
    let cells = workloads.len() * configs.len() * seeds.len();

    let mut group = c.benchmark_group("sweep_matrix(2w x fig5 x 2s)");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.throughput(Throughput::Elements((cells * BENCH_TRACE_LEN) as u64));
    for jobs in [1usize, 0] {
        let label = if jobs == 0 { "jobs=auto" } else { "jobs=1" };
        group.bench_with_input(BenchmarkId::from_parameter(label), &jobs, |b, &jobs| {
            let opts = RunOptions {
                jobs,
                ..RunOptions::default()
            };
            b.iter(|| {
                let result = run_cells(
                    "bench",
                    &workloads,
                    &configs,
                    BENCH_TRACE_LEN,
                    &seeds,
                    0,
                    &opts,
                );
                assert_eq!(result.failures().count(), 0);
                black_box(result.cells.len())
            });
        });
    }
    group.finish();
}

/// The busy-cycle path the SSQ configurations take: every load is marked, a
/// bank-blocked SSQ load retries each cycle and probes its forwarding buffer,
/// and `adv.alias` keeps re-execution busy. The fig5 cells above spend most of
/// their cycles quiet, so they do not time this path.
fn sweep_matrix_ssq(c: &mut Criterion) {
    let workloads = vec![WorkloadProfile::by_name("adv.alias").expect("workload exists")];
    let configs = presets::fig6_ssq_configs();
    let seeds = [1u64];
    let cells = workloads.len() * configs.len() * seeds.len();

    let mut group = c.benchmark_group("sweep_matrix_ssq(adv.alias x fig6-ssq x 1s)");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.throughput(Throughput::Elements((cells * BENCH_TRACE_LEN) as u64));
    group.bench_function(BenchmarkId::from_parameter("jobs=1"), |b| {
        let opts = RunOptions {
            jobs: 1,
            ..RunOptions::default()
        };
        b.iter(|| {
            let result = run_cells(
                "bench",
                &workloads,
                &configs,
                BENCH_TRACE_LEN,
                &seeds,
                0,
                &opts,
            );
            assert_eq!(result.failures().count(), 0);
            black_box(result.cells.len())
        });
    });
    group.finish();
}

/// The content-addressed result-cache hit path: the same matrix as
/// [`sweep_matrix`], but served entirely from a pre-populated `--result-cache`
/// store. Each iteration opens a fresh [`ResultCache`] instance so every cell
/// takes the honest cold-process path — fanout-directory read, checksum
/// validation, canonical-line parse — rather than the in-process index.
fn sweep_matrix_cached(c: &mut Criterion) {
    let workloads: Vec<WorkloadProfile> = ["gcc", "vortex"]
        .iter()
        .map(|n| WorkloadProfile::by_name(n).expect("workload exists"))
        .collect();
    let configs = presets::fig5_nlq_configs();
    let seeds = [1u64, 2];
    let cells = workloads.len() * configs.len() * seeds.len();

    let dir = std::env::temp_dir().join(format!("svw-bench-rcache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let rc = ResultCache::open(&dir, CacheMode::ReadWrite).expect("cache opens");
        let opts = RunOptions {
            result_cache: Some(&rc),
            ..RunOptions::default()
        };
        let cold = run_cells(
            "bench",
            &workloads,
            &configs,
            BENCH_TRACE_LEN,
            &seeds,
            0,
            &opts,
        );
        assert_eq!(cold.failures().count(), 0);
    }

    let mut group = c.benchmark_group("sweep_matrix_cached(2w x fig5 x 2s)");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.throughput(Throughput::Elements((cells * BENCH_TRACE_LEN) as u64));
    group.bench_function(BenchmarkId::from_parameter("hit-path"), |b| {
        b.iter(|| {
            let rc = ResultCache::open(&dir, CacheMode::ReadWrite).expect("cache opens");
            let observer = SweepObserver {
                metrics: Some(SweepMetrics::new()),
                ..SweepObserver::default()
            };
            let opts = RunOptions {
                result_cache: Some(&rc),
                obs: Some(&observer),
                ..RunOptions::default()
            };
            let result = run_cells(
                "bench",
                &workloads,
                &configs,
                BENCH_TRACE_LEN,
                &seeds,
                0,
                &opts,
            );
            let totals = observer.metrics.as_ref().expect("metered").totals();
            assert_eq!(totals.cells_cached, cells as u64, "fully warm");
            black_box(result.cells.len())
        });
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(matrix, sweep_matrix, sweep_matrix_ssq, sweep_matrix_cached);
criterion_main!(matrix);

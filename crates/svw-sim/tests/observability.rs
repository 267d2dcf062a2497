//! Integration tests for the observability layer: the `--events` journal is
//! kill-tolerant and phase-consistent, `svwsim profile` agrees with the
//! scheduler's own statistics (also when every cell fails), and — the hard
//! invariant — every artifact rendering is byte-identical with instrumentation
//! on or off.

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

use svw_cpu::{LsqOrganization, MachineConfig, ReexecMode};
use svw_sim::events::kind;
use svw_sim::{
    profile_events, read_events, render_artifact, run_cells, EventSink, ExperimentCtx, JsonlSink,
    OracleOptions, Progress, RunOptions, SweepMetrics, SweepObserver,
};
use svw_workloads::WorkloadProfile;

const LEN: usize = 1_500;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "svw-sim-observability-{tag}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn workloads() -> Vec<WorkloadProfile> {
    vec![
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

/// A fully-instrumented observer writing its journal to `path`.
fn full_observer(path: &std::path::Path) -> SweepObserver {
    SweepObserver {
        events: Some(EventSink::open(path).unwrap()),
        metrics: Some(SweepMetrics::new()),
        progress: Some(Progress::new()),
    }
}

#[test]
fn journal_resumes_past_a_truncated_trailing_line() {
    let dir = temp_dir("resume");
    let events_path = dir.join("events.jsonl");
    // A predecessor process got killed mid-write: one complete line, one torn.
    let mut file = fs::File::create(&events_path).unwrap();
    file.write_all(b"{\"ev\":\"sweep_started\",\"ts_us\":1,\"cells\":4}\n")
        .unwrap();
    file.write_all(b"{\"ev\":\"planned\",\"ts_us\":2,\"work")
        .unwrap();
    drop(file);

    let observer = full_observer(&events_path);
    let opts = RunOptions {
        obs: Some(&observer),
        ..RunOptions::default()
    };
    let result = run_cells("obs", &workloads(), &configs(), LEN, &[1], 0, &opts);
    assert_eq!(result.failures().count(), 0);

    let (events, malformed) = read_events(&fs::read_to_string(&events_path).unwrap());
    assert_eq!(malformed, 1, "exactly the torn line is skipped");
    // The predecessor's complete line survives, and this run's events follow
    // on fresh lines.
    assert_eq!(events[0].ev, kind::SWEEP_STARTED);
    assert_eq!(events[0].cells, Some(4));
    let simulated = events.iter().filter(|e| e.ev == kind::SIMULATED).count();
    assert_eq!(simulated, result.cells.len());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn phase_durations_are_positive_and_sum_within_cell_wall_time() {
    let dir = temp_dir("phases");
    let events_path = dir.join("events.jsonl");
    let out_path = dir.join("results.jsonl");
    let sink = JsonlSink::open(&out_path).unwrap();
    let observer = full_observer(&events_path);
    let opts = RunOptions {
        sink: Some(&sink),
        obs: Some(&observer),
        ..RunOptions::default()
    };
    let result = run_cells("obs", &workloads(), &configs(), LEN, &[1, 2], 0, &opts);
    assert_eq!(result.failures().count(), 0);

    let (events, malformed) = read_events(&fs::read_to_string(&events_path).unwrap());
    assert_eq!(malformed, 0);
    let key = |e: &svw_sim::Event| {
        (
            e.workload.clone().unwrap(),
            e.config.clone().unwrap(),
            e.seed.unwrap(),
        )
    };
    let cell_events = |ev: &str| {
        events
            .iter()
            .filter(|e| e.ev == ev)
            .map(|e| (key(e), e))
            .collect::<std::collections::HashMap<_, _>>()
    };
    let planned = cell_events(kind::PLANNED);
    let written = cell_events(kind::WRITTEN);
    assert_eq!(planned.len(), result.cells.len());
    assert_eq!(written.len(), result.cells.len());

    // Per-cell phase sum vs wall time: every phase happened between the cell's
    // `planned` and `written` events on the same journal clock, so the sum of
    // the measured phase durations can only undershoot the ts delta (allow a
    // little slack for microsecond truncation of the timestamps). Decode is timed
    // as a portion of trace acquisition, so it is not added again.
    let mut phase_sum_us: std::collections::HashMap<_, f64> = std::collections::HashMap::new();
    for e in &events {
        if let (Some(dur), Some(_)) = (e.dur_us, e.workload.as_ref()) {
            assert!(dur >= 0.0, "negative phase duration in {}: {dur}", e.ev);
            if e.ev == kind::SIMULATED {
                assert!(dur > 0.0, "a simulation takes measurable time");
            }
            if e.ev != kind::DECODED {
                *phase_sum_us.entry(key(e)).or_default() += dur;
            }
        }
    }
    for (cell, sum) in &phase_sum_us {
        let start = planned[cell].ts_us as f64;
        let end = written[cell].ts_us as f64;
        assert!(end >= start, "written after planned for {cell:?}");
        assert!(
            *sum <= (end - start) + 500.0,
            "phase sum {sum}µs exceeds wall {}µs for {cell:?}",
            end - start
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn profile_and_metrics_agree_with_scheduler_statistics() {
    let dir = temp_dir("profile");
    let events_path = dir.join("events.jsonl");
    let observer = full_observer(&events_path);
    let opts = RunOptions {
        obs: Some(&observer),
        ..RunOptions::default()
    };
    let result = run_cells("obs", &workloads(), &configs(), LEN, &[1], 0, &opts);
    assert_eq!(result.failures().count(), 0);

    let metrics = observer.metrics.as_ref().unwrap();
    let scheduled: u64 = metrics.workers().iter().map(|w| w.cells_simulated).sum();
    assert_eq!(scheduled, result.cells.len() as u64);

    // The profile reconstructed from the journal sees the same cell counts.
    let content = fs::read_to_string(&events_path).unwrap();
    let report = profile_events(&[("events.jsonl".to_string(), content)], 3);
    assert_eq!(report.simulated as u64, scheduled);
    assert_eq!(report.failed, 0);
    assert!(report.totals.simulate_us > 0.0);
    assert!(!report.slowest.is_empty());
    let rendered = report.render();
    assert!(
        rendered.contains("phase breakdown (aggregate)"),
        "{rendered}"
    );

    // And so do the metrics' totals and their --stats-json rendering.
    let totals = metrics.totals();
    assert_eq!(
        (totals.cells_simulated, totals.cells_failed),
        (scheduled, 0)
    );
    assert_eq!(metrics.simulate_seconds.count(), scheduled);
    let stats = metrics.to_json(None);
    assert!(stats.contains("\"phases\":{"), "{stats}");
    assert!(
        stats.contains(&format!("\"simulate\":{{\"count\":{scheduled},")),
        "{stats}"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// When every cell fails, every output counts each cell once, as failed: the
/// per-worker rows, their totals and the journal's profile agree.
#[test]
fn totals_agree_when_every_cell_fails() {
    let dir = temp_dir("all-fail");
    let events_path = dir.join("events.jsonl");
    let observer = full_observer(&events_path);
    let opts = RunOptions {
        obs: Some(&observer),
        oracle: Some(OracleOptions {
            inject_fault: Some(3),
        }),
        ..RunOptions::default()
    };
    let result = run_cells("obs", &workloads(), &configs(), LEN, &[1, 2], 0, &opts);
    let cells = result.cells.len() as u64;
    assert_eq!(result.failures().count() as u64, cells, "every cell fails");

    let metrics = observer.metrics.as_ref().unwrap();
    let workers = metrics.workers();
    let failed: u64 = workers.iter().map(|w| w.cells_failed).sum();
    let simulated: u64 = workers.iter().map(|w| w.cells_simulated).sum();
    assert_eq!((simulated, failed), (0, cells));
    let totals = metrics.totals();
    assert_eq!((totals.cells_simulated, totals.cells_failed), (0, cells));
    assert_eq!(
        metrics.simulate_seconds.count(),
        0,
        "no cell ran to the end"
    );

    let content = fs::read_to_string(&events_path).unwrap();
    let report = profile_events(&[("events.jsonl".to_string(), content)], 3);
    assert_eq!((report.simulated as u64, report.failed as u64), (0, cells));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn artifacts_are_byte_identical_with_and_without_instrumentation() {
    let dir = temp_dir("identical");
    let render = |observer: Option<&SweepObserver>| {
        let ctx = ExperimentCtx {
            trace_len: 1_000,
            seeds: vec![1],
            adaptive: None,
            substrate: true,
            model_version: 1,
            opts: RunOptions {
                obs: observer,
                ..RunOptions::default()
            },
        };
        let report = render_artifact(&ctx, "fig5").unwrap();
        (format!("{report}"), report.to_json())
    };
    let observer = full_observer(&dir.join("events.jsonl"));
    let (instrumented_text, instrumented_json) = render(Some(&observer));
    let (plain_text, plain_json) = render(None);
    assert_eq!(
        instrumented_text, plain_text,
        "text rendering must not change"
    );
    assert_eq!(
        instrumented_json, plain_json,
        "JSON rendering must not change"
    );
    // The instrumented run did observe something.
    assert!(observer.metrics.as_ref().unwrap().totals().cells_simulated > 0);
    let _ = fs::remove_dir_all(&dir);
}

//! Differential-oracle integration tests: the in-order golden model must agree
//! with the out-of-order pipeline on every cell of every builtin artifact, at
//! both behavioural model versions, and a seeded checker fault must surface as
//! a per-cell failure naming the first divergent instruction — proving the
//! oracle can actually catch a divergence, not just rubber-stamp the pipeline.

use svw_sim::experiments::artifact_resolved;
use svw_sim::{builtin_specs, run_cells, OracleOptions, RunOptions, LATEST_MODEL_VERSION};

/// Short traces keep the full-registry sweep fast; the oracle checks every
/// committed instruction, so agreement at this length already exercises
/// forwarding, filtering, elimination, and squash recovery on every config.
const LEN: usize = 1_200;

fn oracle_opts() -> RunOptions<'static> {
    RunOptions {
        oracle: Some(OracleOptions::default()),
        ..RunOptions::default()
    }
}

/// Every builtin artifact's full (workload × configuration) matrix, simulated
/// under the differential oracle at every model version, commits exactly what
/// the golden model computes — no cell may fail.
#[test]
fn oracle_agrees_with_pipeline_on_every_builtin_artifact_at_every_model_version() {
    for model_version in 1..=LATEST_MODEL_VERSION {
        for spec in builtin_specs() {
            let name = &spec.name;
            let resolved = artifact_resolved(name, model_version).expect("builtin resolves");
            for m in &resolved.matrices {
                let result = run_cells(
                    &m.label,
                    &m.workloads,
                    &m.configs,
                    LEN,
                    &[1],
                    resolved.fingerprint,
                    &oracle_opts(),
                );
                for cell in &result.cells {
                    assert!(
                        cell.error().is_none(),
                        "{name} (model v{model_version}) {} × {}: {}",
                        cell.workload,
                        cell.config,
                        cell.error().unwrap()
                    );
                }
            }
        }
    }
}

/// A fault injected into the checker's view of the very first load must turn
/// the cell into a failure whose message names the first divergent
/// instruction — the negative control proving divergences are detected and
/// reported, not silently absorbed.
#[test]
fn injected_fault_fails_the_cell_and_names_the_divergent_instruction() {
    let resolved = artifact_resolved("fig5", 1).expect("builtin resolves");
    let m = &resolved.matrices[0];
    let opts = RunOptions {
        oracle: Some(OracleOptions {
            inject_fault: Some(0),
        }),
        ..RunOptions::default()
    };
    let result = run_cells(
        &m.label,
        &m.workloads[..1],
        &m.configs[..1],
        LEN,
        &[1],
        resolved.fingerprint,
        &opts,
    );
    assert_eq!(result.cells.len(), 1);
    let err = result.cells[0]
        .error()
        .expect("injected fault must fail the cell");
    assert!(err.contains("oracle divergence"), "{err}");
    assert!(err.contains("first divergent instruction seq"), "{err}");
}

/// The observer is pure: the same matrix simulated with and without the oracle
/// produces identical statistics, so `--oracle` can never change an artifact.
#[test]
fn oracle_observation_does_not_perturb_results() {
    let resolved = artifact_resolved("fig8", 1).expect("builtin resolves");
    let m = &resolved.matrices[0];
    let observed = run_cells(
        &m.label,
        &m.workloads[..2],
        &m.configs,
        LEN,
        &[1],
        resolved.fingerprint,
        &oracle_opts(),
    );
    let plain = run_cells(
        &m.label,
        &m.workloads[..2],
        &m.configs,
        LEN,
        &[1],
        resolved.fingerprint,
        &RunOptions::default(),
    );
    assert_eq!(observed.cells.len(), plain.cells.len());
    for (o, p) in observed.cells.iter().zip(&plain.cells) {
        let (os, ps) = (o.stats().unwrap(), p.stats().unwrap());
        assert_eq!(
            format!("{os:?}"),
            format!("{ps:?}"),
            "{} × {}",
            o.workload,
            o.config
        );
    }
}

//! The sweep planner: turn "what should run" into a typed plan.
//!
//! A [`SweepPlan`] is the explicit middle layer of the Plan → Execute → Collect
//! architecture: it enumerates one matrix's `(workload, configuration, seed)` cells
//! in the canonical order every downstream consumer assumes (workload-major, then
//! configuration, then seed) and carries each cell's full [`CellId`] (including the
//! workload fingerprint and the `(model_version, spec_fingerprint)` lineage).
//! Fixed `--seeds K` lists and adaptive requeue rounds are both plan
//! *constructions*; [`crate::runner::execute_plan`] then executes any plan the
//! same way.

use std::sync::Arc;

use svw_cpu::MachineConfig;
use svw_workloads::{TraceKey, WorkloadProfile};

use crate::experiments::artifact_resolved;
use crate::jsonl::CellId;

/// One cell of a [`SweepPlan`]: its identity plus resolved workload/configuration
/// indices.
#[derive(Clone, Debug)]
pub struct PlannedCell {
    /// The cell's identity as it appears in JSONL streams and resume files.
    pub id: CellId,
    /// Index into [`SweepPlan::workloads`].
    pub workload: usize,
    /// Index into [`SweepPlan::configs`].
    pub config: usize,
}

impl PlannedCell {
    /// The identity of the trace this cell replays.
    pub fn trace_key(&self) -> TraceKey {
        TraceKey {
            fingerprint: self.id.fingerprint,
            trace_len: self.id.trace_len,
            seed: self.id.seed,
        }
    }
}

/// An executable sweep plan over one matrix: the workload and configuration tables
/// plus the ordered cell list. Construct with [`SweepPlan::enumerate`] and hand to
/// [`crate::runner::execute_plan`].
#[derive(Clone, Debug)]
pub struct SweepPlan {
    /// Matrix label (artifact name) stamped into every cell's identity.
    pub matrix: String,
    /// The workloads cells reference by index.
    pub workloads: Vec<WorkloadProfile>,
    /// The configurations cells reference by index (shared, not cloned, per cell).
    pub configs: Vec<Arc<MachineConfig>>,
    /// Per-workload dynamic trace length.
    pub trace_len: usize,
    /// The cells, in result order.
    pub cells: Vec<PlannedCell>,
}

impl SweepPlan {
    /// Enumerates the full `workloads × configs × seeds` matrix in canonical order:
    /// workload-major, then configuration, then seed — the order every renderer
    /// and resume file assumes. Each cell's lineage is the config's
    /// own [`MachineConfig::model_version`] plus the given `spec_fingerprint` (`0`
    /// for ad-hoc sweeps not enumerated from a spec).
    pub fn enumerate(
        matrix: &str,
        workloads: &[WorkloadProfile],
        configs: &[MachineConfig],
        trace_len: usize,
        seeds: &[u64],
        spec_fingerprint: u64,
    ) -> SweepPlan {
        let shared: Vec<Arc<MachineConfig>> = configs.iter().map(|c| Arc::new(c.clone())).collect();
        let mut cells = Vec::with_capacity(workloads.len() * configs.len() * seeds.len());
        for (w, workload) in workloads.iter().enumerate() {
            let fingerprint = workload.fingerprint();
            for (c, config) in configs.iter().enumerate() {
                for &seed in seeds {
                    cells.push(PlannedCell {
                        id: CellId {
                            matrix: matrix.to_string(),
                            workload: workload.name.clone(),
                            config: config.name.clone(),
                            seed,
                            trace_len: trace_len as u64,
                            fingerprint,
                            model_version: config.model_version,
                            spec_fingerprint,
                        },
                        workload: w,
                        config: c,
                    });
                }
            }
        }
        SweepPlan {
            matrix: matrix.to_string(),
            workloads: workloads.to_vec(),
            configs: shared,
            trace_len,
            cells,
        }
    }

    /// The cell identities, in plan order.
    pub fn cell_ids(&self) -> impl Iterator<Item = &CellId> {
        self.cells.iter().map(|c| &c.id)
    }
}

/// Enumerates the full plans of a named artifact at a model version — one
/// [`SweepPlan`] per matrix the artifact's spec declares, in spec order — or `None`
/// for an unknown artifact name. Every cell carries the spec's fingerprint and the
/// requested model version as lineage.
pub fn artifact_plans(
    artifact: &str,
    trace_len: usize,
    seeds: &[u64],
    model_version: u32,
) -> Option<Vec<SweepPlan>> {
    let resolved = artifact_resolved(artifact, model_version)?;
    Some(
        resolved
            .matrices
            .iter()
            .map(|m| {
                SweepPlan::enumerate(
                    &m.label,
                    &m.workloads,
                    &m.configs,
                    trace_len,
                    seeds,
                    resolved.fingerprint,
                )
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{artifact_matrices, ARTIFACT_NAMES};

    #[test]
    fn enumerate_is_workload_major_config_then_seed() {
        let workloads = vec![
            WorkloadProfile::quicktest(),
            WorkloadProfile::by_name("gzip").unwrap(),
        ];
        let configs = crate::presets::fig5_nlq_configs();
        let plan = SweepPlan::enumerate("m", &workloads, &configs[..2], 1_000, &[3, 4], 99);
        let order: Vec<(String, String, u64)> = plan
            .cell_ids()
            .map(|id| (id.workload.clone(), id.config.clone(), id.seed))
            .collect();
        let mut expected = Vec::new();
        for w in &workloads {
            for c in &configs[..2] {
                for seed in [3u64, 4] {
                    expected.push((w.name.clone(), c.name.clone(), seed));
                }
            }
        }
        assert_eq!(order, expected);
        assert!(plan
            .cell_ids()
            .all(|id| id.model_version == 1 && id.spec_fingerprint == 99));
        assert_eq!(
            plan.cells[0].trace_key().fingerprint,
            workloads[0].fingerprint()
        );
    }

    /// For every artifact family, the planner's enumeration must match the legacy
    /// order exactly: matrices in artifact order, then workload-major,
    /// configuration, seed.
    #[test]
    fn plan_enumeration_is_byte_identical_to_legacy_for_every_artifact() {
        let seeds = [4u64, 9];
        let trace_len = 2_000usize;
        for (name, _) in ARTIFACT_NAMES {
            let spec_fingerprint = crate::registry::spec_fingerprint(
                crate::registry::spec_by_name(name).expect("builtin spec"),
            );
            // The legacy enumeration, hand-rolled from the static matrix definitions.
            let mut legacy: Vec<CellId> = Vec::new();
            for (label, workloads, configs) in artifact_matrices(name).unwrap() {
                for w in &workloads {
                    let fingerprint = w.fingerprint();
                    for c in &configs {
                        for &seed in &seeds {
                            legacy.push(CellId {
                                matrix: label.clone(),
                                workload: w.name.clone(),
                                config: c.name.clone(),
                                seed,
                                trace_len: trace_len as u64,
                                fingerprint,
                                model_version: 1,
                                spec_fingerprint,
                            });
                        }
                    }
                }
            }
            let planned: Vec<CellId> = artifact_plans(name, trace_len, &seeds, 1)
                .unwrap()
                .iter()
                .flat_map(|p| p.cell_ids().cloned())
                .collect();
            assert_eq!(planned, legacy, "{name}: plan enumeration drifted");
        }
    }

    #[test]
    fn artifact_plans_cover_every_artifact_name() {
        for (name, _) in ARTIFACT_NAMES {
            let plans = artifact_plans(name, 1_000, &[1], 1).unwrap_or_else(|| {
                panic!("artifact {name} has no plan enumeration");
            });
            assert!(!plans.is_empty());
            for plan in &plans {
                assert_eq!(
                    plan.cells.len(),
                    plan.workloads.len() * plan.configs.len(),
                    "{name}: one cell per (workload, config) at one seed"
                );
            }
        }
        assert!(artifact_plans("nope", 1_000, &[1], 1).is_none());
    }
}

//! The sweep planner: turn "what should run" into a typed plan.
//!
//! A [`SweepPlan`] is the explicit middle layer of the Plan → Execute → Collect
//! architecture: it enumerates each matrix's `(workload, configuration, seed)`
//! cells in the canonical order every downstream consumer assumes (workload-major,
//! then configuration, then seed) and carries each cell's full [`CellId`]
//! (including the workload and config fingerprints and the `(model_version,
//! spec_fingerprint)` lineage).
//!
//! A render runs in rounds, and each round is one plan: [`render_plan`] lays
//! the matrices of every spec it renders end to end, so
//! [`crate::runner::execute_plan`] sees every cell that replays a trace and
//! acquires each trace once for all of them, whichever matrix asks. A fixed
//! render is one round over every workload of every matrix; each extra round of
//! an adaptive (`--ci-target`) render holds, per matrix, only the workloads
//! still short of the target, at their next seed.

use std::sync::Arc;

use svw_cpu::MachineConfig;
use svw_workloads::{TraceKey, WorkloadProfile};

use crate::experiments::artifact_resolved;
use crate::jsonl::CellId;
use crate::registry::ResolvedSpec;

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

/// An executable sweep plan over one or more matrices: the workload and
/// configuration tables plus the ordered cell list. Construct with
/// [`SweepPlan::enumerate`] or [`render_plan`] and hand to
/// [`crate::runner::execute_plan`].
#[derive(Clone, Debug)]
pub struct SweepPlan {
    /// The plan's label in the event journal: the matrix label of a one-matrix
    /// plan, the rendered spec names joined by `+` for a [`render_plan`]. Each
    /// cell carries its own matrix label in its identity.
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
    /// for ad-hoc sweeps not enumerated from a spec); its config fingerprint is
    /// [`MachineConfig::fingerprint`].
    pub fn enumerate(
        matrix: &str,
        workloads: &[WorkloadProfile],
        configs: &[MachineConfig],
        trace_len: usize,
        seeds: &[u64],
        spec_fingerprint: u64,
    ) -> SweepPlan {
        let mut plan = SweepPlan::empty(matrix, trace_len);
        plan.push_matrix(matrix, workloads.to_vec(), configs, seeds, spec_fingerprint);
        plan
    }

    fn empty(matrix: &str, trace_len: usize) -> SweepPlan {
        SweepPlan {
            matrix: matrix.to_string(),
            workloads: Vec::new(),
            configs: Vec::new(),
            trace_len,
            cells: Vec::new(),
        }
    }

    /// Appends one matrix's cells, in canonical order, after the cells already
    /// planned; its workloads and configurations join the plan's tables.
    fn push_matrix(
        &mut self,
        label: &str,
        workloads: Vec<WorkloadProfile>,
        configs: &[MachineConfig],
        seeds: &[u64],
        spec_fingerprint: u64,
    ) {
        let (w0, c0) = (self.workloads.len(), self.configs.len());
        self.cells
            .reserve(workloads.len() * configs.len() * seeds.len());
        let config_fingerprints: Vec<u64> =
            configs.iter().map(MachineConfig::fingerprint).collect();
        for (w, workload) in workloads.iter().enumerate() {
            let fingerprint = workload.fingerprint();
            for (c, config) in configs.iter().enumerate() {
                for &seed in seeds {
                    self.cells.push(PlannedCell {
                        id: CellId {
                            matrix: label.to_string(),
                            workload: workload.name.clone(),
                            config: config.name.clone(),
                            seed,
                            trace_len: self.trace_len as u64,
                            fingerprint,
                            config_fingerprint: config_fingerprints[c],
                            model_version: config.model_version,
                            spec_fingerprint,
                        },
                        workload: w0 + w,
                        config: c0 + c,
                    });
                }
            }
        }
        self.workloads.extend(workloads);
        self.configs
            .extend(configs.iter().map(|c| Arc::new(c.clone())));
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

/// What one round of a render runs of one matrix: the workloads it holds, as
/// indices into the matrix's workload list, each at every seed of `seeds`.
#[derive(Clone, Copy, Debug)]
pub struct MatrixRound<'a> {
    /// Indices into [`crate::registry::ResolvedMatrix::workloads`].
    pub workloads: &'a [usize],
    /// The seeds every held workload runs at.
    pub seeds: &'a [u64],
}

/// The plan of one render round: every matrix of every spec in `specs`, in
/// order, each cut to what `rounds` (one entry per matrix, in the same order)
/// holds of it and enumerated as [`SweepPlan::enumerate`] would, so the
/// executed cells split back into the matrices by position.
///
/// # Panics
///
/// Panics unless `rounds` has one entry per matrix.
pub fn render_plan(specs: &[ResolvedSpec], trace_len: usize, rounds: &[MatrixRound]) -> SweepPlan {
    let names: Vec<&str> = specs.iter().map(|r| r.spec.name.as_str()).collect();
    let mut plan = SweepPlan::empty(&names.join("+"), trace_len);
    let matrices = specs
        .iter()
        .flat_map(|r| r.matrices.iter().map(move |m| (r.fingerprint, m)));
    assert_eq!(
        matrices.clone().count(),
        rounds.len(),
        "one round entry per matrix"
    );
    for ((spec_fingerprint, m), round) in matrices.zip(rounds) {
        let held = round.workloads.iter().map(|&w| m.workloads[w].clone());
        plan.push_matrix(
            &m.label,
            held.collect(),
            &m.configs,
            round.seeds,
            spec_fingerprint,
        );
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::builtin_specs;

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
        for spec in builtin_specs() {
            let name = spec.name.as_str();
            let spec_fingerprint = crate::registry::spec_fingerprint(spec);
            // The legacy enumeration, hand-rolled from the static matrix definitions.
            let mut legacy: Vec<CellId> = Vec::new();
            for m in artifact_resolved(name, 1).unwrap().matrices {
                for w in &m.workloads {
                    let fingerprint = w.fingerprint();
                    for c in &m.configs {
                        for &seed in &seeds {
                            legacy.push(CellId {
                                matrix: m.label.clone(),
                                workload: w.name.clone(),
                                config: c.name.clone(),
                                seed,
                                trace_len: trace_len as u64,
                                fingerprint,
                                config_fingerprint: c.fingerprint(),
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

    /// A render plan holding every workload at every seed is its specs' matrix
    /// plans laid end to end: the same cell identities in the same order, with
    /// indices that resolve to the same workload and configuration.
    #[test]
    fn render_plan_concatenates_the_specs_matrix_plans() {
        let names = ["ssn-width", "spec-ssbf", "summary"];
        let specs: Vec<ResolvedSpec> = names
            .iter()
            .map(|n| artifact_resolved(n, 1).unwrap())
            .collect();
        let every: Vec<Vec<usize>> = specs
            .iter()
            .flat_map(|r| &r.matrices)
            .map(|m| (0..m.workloads.len()).collect())
            .collect();
        let rounds: Vec<MatrixRound> = every
            .iter()
            .map(|workloads| MatrixRound {
                workloads,
                seeds: &[2, 3],
            })
            .collect();
        let plan = render_plan(&specs, 1_000, &rounds);
        assert_eq!(plan.matrix, "ssn-width+spec-ssbf+summary");
        let parts: Vec<SweepPlan> = names
            .iter()
            .flat_map(|n| artifact_plans(n, 1_000, &[2, 3], 1).unwrap())
            .collect();
        let expected: Vec<&CellId> = parts.iter().flat_map(|p| p.cell_ids()).collect();
        assert_eq!(plan.cell_ids().collect::<Vec<_>>(), expected);
        for cell in &plan.cells {
            assert_eq!(plan.workloads[cell.workload].name, cell.id.workload);
            assert_eq!(plan.configs[cell.config].name, cell.id.config);
            assert_eq!(
                plan.workloads[cell.workload].fingerprint(),
                cell.id.fingerprint
            );
        }
    }

    /// A round holds, per matrix, only the workloads it names, at its seeds; a
    /// matrix holding none contributes no cells.
    #[test]
    fn render_plan_holds_each_matrixs_workload_subset_at_its_seeds() {
        let specs = [artifact_resolved("summary", 1).unwrap()];
        let m = &specs[0].matrices;
        let rounds = [
            MatrixRound {
                workloads: &[1, 4],
                seeds: &[7],
            },
            MatrixRound {
                workloads: &[],
                seeds: &[7],
            },
            MatrixRound {
                workloads: &[0],
                seeds: &[7],
            },
        ];
        let plan = render_plan(&specs, 1_000, &rounds);
        let mut expected = Vec::new();
        for (matrix, workloads) in [(&m[0], vec![1, 4]), (&m[2], vec![0])] {
            let held: Vec<WorkloadProfile> = workloads
                .iter()
                .map(|&w| matrix.workloads[w].clone())
                .collect();
            let part = SweepPlan::enumerate(
                &matrix.label,
                &held,
                &matrix.configs,
                1_000,
                &[7],
                specs[0].fingerprint,
            );
            expected.extend(part.cells.into_iter().map(|c| c.id));
        }
        assert_eq!(plan.cell_ids().cloned().collect::<Vec<_>>(), expected);
        for cell in &plan.cells {
            assert_eq!(plan.workloads[cell.workload].name, cell.id.workload);
            assert_eq!(plan.configs[cell.config].name, cell.id.config);
        }
    }

    /// The result cache and `--out` resume share results between names for one
    /// machine; these are the sharings the builtin artifacts rely on.
    #[test]
    fn config_axes_share_machines_across_names() {
        let axis = |name: &str| crate::registry::config_axis(name).expect("builtin axis");
        let fingerprint_of = |axis_name: &str, config: &str| {
            axis(axis_name)
                .iter()
                .find(|c| c.name == config)
                .unwrap_or_else(|| panic!("{axis_name} has no {config:?}"))
                .fingerprint()
        };
        let ssq_svw = fingerprint_of("fig6-ssq", "+SVW+UPD");
        assert_eq!(fingerprint_of("fig8-ssbf", "512"), ssq_svw);
        assert_eq!(fingerprint_of("ssn-width", "16-bit"), ssq_svw);
        assert_eq!(
            fingerprint_of("ssbf-update-policy", "SSQ spec-SSBF"),
            ssq_svw
        );
        let nlq_svw = fingerprint_of("fig5-nlq", "+SVW+UPD");
        assert_eq!(
            fingerprint_of("ssbf-update-policy", "NLQ spec-SSBF"),
            nlq_svw
        );
        assert_ne!(nlq_svw, ssq_svw);

        let configs: Vec<MachineConfig> = crate::registry::config_axis_names()
            .into_iter()
            .flat_map(axis)
            .collect();
        let machines: std::collections::HashSet<u64> =
            configs.iter().map(MachineConfig::fingerprint).collect();
        assert_eq!((configs.len(), machines.len()), (30, 26));
    }

    /// The ten builtin artifacts at one seed plan 662 cells but only 335
    /// distinct simulations.
    #[test]
    fn builtin_artifacts_plan_335_distinct_simulations() {
        let ids: Vec<CellId> = builtin_specs()
            .iter()
            .flat_map(|spec| artifact_plans(&spec.name, 1_000, &[1], 1).unwrap())
            .flat_map(|plan| plan.cells.into_iter().map(|c| c.id))
            .collect();
        let keys: std::collections::HashSet<_> = ids.iter().map(CellId::sim_key).collect();
        assert_eq!((ids.len(), keys.len()), (662, 335));
    }

    #[test]
    fn artifact_plans_cover_every_artifact_name() {
        for spec in builtin_specs() {
            let name = &spec.name;
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

//! # svw — Store Vulnerability Window reproduction (facade crate)
//!
//! This crate re-exports the full simulator stack built to reproduce Amir Roth's
//! *"Store Vulnerability Window (SVW): Re-Execution Filtering for Enhanced Load
//! Optimization"* (ISCA 2005), and hosts the runnable examples and the cross-crate
//! integration tests.
//!
//! The layering (bottom to top):
//!
//! * [`isa`] — instruction model, functional memory, sequential oracle;
//! * [`workloads`] — synthetic SPEC2000int-like trace generation;
//! * [`mem`] — caches, hierarchy, port budgeting, committed memory;
//! * [`predictors`] — branch prediction, store-sets, FSQ steering, SPCT;
//! * [`core`] — the paper's contribution: SSN, SSBF, vulnerability
//!   windows, the re-execution filter;
//! * [`lsq`] — conventional / NLQ / SSQ queue structures;
//! * [`rle`] — register integration (redundant load elimination);
//! * [`cpu`] — the cycle-level out-of-order core with the re-execution pipeline;
//! * [`trace`] — `.svwt` trace capture/replay and the on-disk trace cache;
//! * [`sim`] — per-figure machine presets, the cache-aware experiment runner,
//!   its sweep metrics and event journal, report tables, and the unified
//!   `svwsim` CLI.
//!
//! # Quick start
//!
//! ```
//! use svw::cpu::{Cpu, LsqOrganization, MachineConfig, ReexecMode};
//! use svw::workloads::WorkloadProfile;
//!
//! let program = WorkloadProfile::quicktest().generate(4_000, 1);
//! let config = MachineConfig::eight_wide(
//!     "nlq+svw",
//!     LsqOrganization::Nlq { store_exec_bandwidth: 2 },
//!     ReexecMode::Svw(svw::core::SvwConfig::paper_default()),
//! );
//! let stats = Cpu::new(config, &program).run();
//! println!("IPC {:.2}, re-executed {:.1}% of loads", stats.ipc(), stats.reexec_rate());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The paper's contribution: SSNs, the SSBF, vulnerability windows, the filter.
pub use svw_core as core;
/// Cycle-level out-of-order core with pre-commit load re-execution.
pub use svw_cpu as cpu;
/// Instruction-set model, functional memory, and the sequential oracle.
pub use svw_isa as isa;
/// Load/store queue substrates (conventional, NLQ, SSQ).
pub use svw_lsq as lsq;
/// Memory hierarchy, cache ports, and committed-memory image.
pub use svw_mem as mem;
/// Branch, memory-dependence, and steering predictors.
pub use svw_predictors as predictors;
/// Redundant load elimination via register integration.
pub use svw_rle as rle;
/// Experiment presets, cache-aware runner, and report tables for every figure/table.
pub use svw_sim as sim;
/// Binary trace capture/replay (`.svwt`) and the on-disk trace cache.
pub use svw_trace as trace;
/// Synthetic SPEC2000int-like workload generation.
pub use svw_workloads as workloads;

//! # svw-workloads — synthetic SPEC2000int-like workload generation
//!
//! The paper evaluates SVW on the SPEC2000 integer suite compiled for Alpha and run
//! under a SimpleScalar-derived timing simulator. Those binaries, inputs, and traces
//! are not available here, so this crate substitutes a *parameterised synthetic
//! workload generator*: for each benchmark it builds a small static "program" (loops of
//! basic blocks over stack/global/strided/pointer-chasing address streams, with
//! engineered store-to-load forwarding pairs, redundant loads, and silent stores) and
//! then emits a dynamic instruction trace by walking that program, resolving every
//! memory access through the sequential oracle of `svw-isa`.
//!
//! The knobs exposed by [`WorkloadProfile`] are exactly the properties the paper's
//! results depend on: instruction mix, branch predictability, memory footprint and
//! locality, store-to-load-forwarding density, load redundancy, and silent-store rate.
//! The sixteen named profiles returned by [`WorkloadProfile::spec2000int`] are tuned to
//! the published qualitative character of each benchmark (e.g. `mcf` is memory-bound
//! and pointer-chasing, `vortex` has a high store fraction and heavy forwarding,
//! `eon` is floating-point flavoured with very predictable branches).
//!
//! # Example
//!
//! ```
//! use svw_workloads::WorkloadProfile;
//!
//! let profile = WorkloadProfile::by_name("gcc").expect("gcc profile exists");
//! let program = profile.generate(20_000, 1);
//! let stats = program.stats();
//! assert!(stats.load_fraction() > 0.15 && stats.load_fraction() < 0.40);
//! assert!(stats.store_fraction() > 0.05 && stats.store_fraction() < 0.25);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adversarial;
pub mod arenas;
mod generator;
mod profile;
mod spec;

pub use adversarial::adversarial_names;
pub use arenas::{ArenaPin, TraceArenas, TraceKey};
pub use profile::WorkloadProfile;
pub use spec::spec2000int_names;

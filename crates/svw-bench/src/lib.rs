//! # svw-bench — benchmark harness
//!
//! Criterion benchmarks for the SVW reproduction. There are two groups:
//!
//! * `structures` — micro-benchmarks of the SVW hardware structures themselves (SSBF
//!   update/lookup under each organisation, SSN clock operations, integration-table
//!   lookups), establishing that the simulated structures are cheap to model;
//! * `figures` — scaled-down end-to-end runs of every figure/table configuration pair
//!   (one benchmark per paper artifact), which double as regression benchmarks for the
//!   simulator's own throughput.
//!
//! Two further groups exercise the infrastructure: `trace_codec` (`.svwt`
//! encode/decode throughput), and `matrix` / `arena` (cell-scheduler sweep
//! throughput and fresh-vs-recycled cell startup), which back the committed CI
//! performance baseline (`benches/baselines/ci.json`).
//!
//! The *full-length* figure reproductions are produced by the unified `svwsim`
//! binary (`cargo run --release -p svw-sim --bin svwsim -- sweep --figure fig5`);
//! the Criterion benches here use shorter traces so `cargo bench` finishes in
//! minutes.
//!
//! The library itself is empty: each bench under `benches/` builds its own
//! machines and workloads through the simulator crates.

#![forbid(unsafe_code)]

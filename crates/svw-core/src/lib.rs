//! # svw-core — Store Vulnerability Window (SVW)
//!
//! This crate implements the paper's primary contribution: a *re-execution filter* that
//! lets load optimizations (non-associative load queues, speculative store queues,
//! redundant load elimination, …) skip the pre-commit re-execution of most loads.
//!
//! The mechanism has three pieces:
//!
//! 1. **Store sequence numbers ([`Ssn`], [`SsnClock`])** — every dynamic store gets a
//!    monotonically increasing number. Only `SSN_retire` (last retired store) and
//!    `SSN_rename` (youngest in-flight store) are explicitly tracked; an in-flight
//!    store's SSN is assigned when it is renamed. Real hardware uses finite-width SSNs;
//!    wrap-around is handled by draining the pipeline and flash-clearing the SSBF
//!    ([`SsnClock::wrap_imminent`], [`SvwFilter::on_wrap_drain`]).
//! 2. **Per-load store vulnerability window ([`VulnWindow`])** — the SSN of the
//!    youngest older store the load is *not* vulnerable to. Set at dispatch
//!    (`SSN_retire`), raised ("shrunk") when the load forwards from an in-flight store,
//!    taken from the integration-table entry for an eliminated load, and composed with
//!    `MIN` when several optimizations apply to the same load.
//! 3. **Store sequence Bloom filter ([`Ssbf`])** — a small untagged table indexed by
//!    low-order address bits whose entries hold the SSN of the last retired store to a
//!    matching address. In the SVW stage of the re-execution pipeline a *marked* load
//!    re-executes only if `SSBF[addr] > load.SVW`; aliasing can only cause extra
//!    re-executions (false positives), never missed ones.
//!
//! [`SvwFilter`] bundles the three pieces behind the interface the out-of-order core
//! uses; [`SvwStats`] counts filter outcomes.
//!
//! # Example
//!
//! ```
//! use svw_core::{SvwConfig, SvwFilter};
//!
//! let mut svw = SvwFilter::new(SvwConfig::paper_default());
//! // A load dispatches: its window begins at the current SSN_retire.
//! let load_svw = svw.load_dispatch_window();
//! // A store is renamed and later retires, updating the SSBF for its address.
//! let ssn = svw.assign_store_ssn();
//! svw.store_svw_stage(0x1000, 8, ssn);
//! svw.store_retired(ssn);
//! // The load reads the same word: it conflicts with a store it is vulnerable to,
//! // so the filter (correctly) demands re-execution.
//! assert!(svw.must_reexecute(0x1000, 8, load_svw));
//! // A load to an unrelated address is filtered: no cache access needed.
//! assert!(!svw.must_reexecute(0x2008, 8, load_svw));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod filter;
mod ssbf;
mod ssn;
mod stats;
mod window;

pub use filter::{SvwConfig, SvwFilter, SvwUpdatePolicy};
pub use ssbf::{Ssbf, SsbfConfig, SsbfOrganization};
pub use ssn::{Ssn, SsnClock, SsnWidth};
pub use stats::SvwStats;
pub use window::VulnWindow;

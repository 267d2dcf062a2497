//! # svw-rle — redundant load elimination via register integration
//!
//! The third load optimization the paper studies removes dynamically redundant loads
//! from the execution engine entirely. The implementation modelled here is *register
//! integration*: an **integration table (IT)** tracks the "operation signatures"
//! (operation + physical-register inputs + displacement) of recently executed loads and
//! stores; a load whose signature matches an IT entry is *eliminated* — its output
//! register is simply renamed to the physical register already holding the value
//! (load reuse), or to the data register of the producing store (speculative memory
//! bypassing).
//!
//! Eliminated loads never execute, so an unaccounted-for intervening store makes the
//! elimination wrong; pre-commit re-execution detects such *false eliminations*. That
//! re-execution stream is what SVW filters: a non-redundant load records `SSN_rename`
//! in the IT entry it creates, and an eliminated load adopts that SSN as its
//! vulnerability-window boundary.
//!
//! The paper also discusses *squash reuse* — a re-fetched load integrating the result
//! of its own squashed incarnation. SVW must be disabled for squash-reuse eliminations
//! (a forwarding store may exist on the squashed path but not the correct path, which
//! the SSBF cannot capture), and the `SVW−SQU` configuration disables squash reuse
//! entirely; both behaviours are supported through [`ItConfig::squash_reuse`] and
//! [`ItEntry::from_squashed`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod table;

pub use table::{IntegrationTable, ItConfig, ItEntry, ItSignature, RleKind};

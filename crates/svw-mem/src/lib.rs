//! # svw-mem — memory-system substrate
//!
//! The SVW paper's machine has a two-level on-chip memory system: 32 KB 2-way L1
//! instruction and data caches with 2-cycle access, a 2 MB 8-way 15-cycle L2, and a
//! 150-cycle main memory, with the L1 data cache 2-way interleaved for load bandwidth
//! and a *single* read/write port used by store retirement — the port that load
//! re-execution must share and that SVW decongests.
//!
//! This crate provides the data side of that substrate. It models no instruction
//! cache: the front end is trace-driven, so nothing fetches through one, and its
//! contents could not change any result.
//!
//! * [`Cache`] — a set-associative, LRU, write-allocate cache model with hit/miss
//!   statistics;
//! * [`MemoryHierarchy`] — L1D + unified L2 + main memory, returning access
//!   latencies for the timing model;
//! * [`BankedPorts`] and [`SharedPort`] — per-cycle port budgeting for the interleaved
//!   execution ports and the shared retirement/re-execution port;
//! * [`CommittedMemory`] — the functional image of architectural memory as of the last
//!   committed store, which is what a speculatively issued load observes when it reads
//!   the data cache (and therefore the source of memory-ordering mis-speculation
//!   values in the simulator).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod committed;
mod hierarchy;
mod ports;

pub use cache::{Cache, CacheConfig, CacheStats};
pub use committed::CommittedMemory;
pub use hierarchy::{AccessKind, HierarchyConfig, HierarchyStats, MemoryHierarchy};
pub use ports::{BankedPorts, SharedPort};

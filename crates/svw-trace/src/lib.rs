//! # svw-trace — compact binary trace capture/replay and the on-disk trace cache
//!
//! This crate makes the reproduction's synthetic instruction streams storable
//! artifacts: [`write_program_to_vec`] serializes a resolved dynamic trace into one
//! `.svwt` byte image, a [`TraceReader`] parses a borrowed image back into a
//! [`Program`] and verifies its checksum, and a [`TraceCache`] keeps captured
//! images in a directory keyed by `(profile fingerprint, trace length, seed)`.
//!
//! Replaying a cached trace is not cheaper than regenerating it. On a shared
//! 2-vCPU x86-64 host the `trace_codec` bench decodes 50k gcc instructions in a
//! median 3.2 ms (3.6 ms before the codec worked on one buffer, `BENCH_32.json`)
//! and generates them in 1.7–2.0 ms, so the cache saves no time; `.svwt` files
//! matter as an interchange format (`svwsim capture`, `inspect`, `run --trace`).
//!
//! # The `.svwt` format (version 2)
//!
//! All multi-byte header/trailer fields are little-endian. `varint` denotes LEB128
//! (7 bits per byte, high bit = continuation); `svarint` denotes a zigzag-mapped
//! varint (`(n << 1) ^ (n >> 63)`), used for deltas and signed offsets.
//!
//! ```text
//! header:
//!   magic            4 bytes   "SVWT"
//!   version          u16       2
//!   flags            u16       0 (reserved)
//!   seed             u64       workload-generation seed
//!   fingerprint      u64       WorkloadProfile::fingerprint() (0 if not applicable)
//!   requested_len    u64       instruction count requested from the generator
//!   count            u64       actual number of records that follow
//!   name_len         varint    followed by `name_len` bytes of UTF-8 workload name
//! records (count times, in sequence order; `seq` is implicit — record i has seq i):
//!   tag              1 byte    bits 0..=3: opcode, bits 4..=7: per-opcode flags
//!   pc               svarint   delta from (previous pc + 4); the first record's
//!                              delta is taken from 0 (i.e. it encodes its pc)
//!   ... opcode-specific operand fields (below)
//! trailer:
//!   checksum         u64       FNV-1a over every header and record byte
//! ```
//!
//! The file ends at the trailer: a reader rejects any byte after it. The
//! checksum covers the header, so a damaged seed, fingerprint or length is an
//! error rather than a trace filed under the wrong key. (Version 1 covered only
//! the records; its files are rejected as an unsupported version, and a v1 trace
//! cache entry misses and is captured again.)
//!
//! Opcodes (tag bits 0..=3) and their operand fields:
//!
//! | opcode | kind      | flags (bits 4..=7)           | operand fields |
//! |-------:|-----------|------------------------------|----------------|
//! | 0      | `IntAlu`  | —                            | alu-kind byte, dst, src1, src2 |
//! | 1      | `IntMul`  | —                            | dst, src1, src2 |
//! | 2      | `FpAlu`   | —                            | dst, src1, src2 |
//! | 3      | `LoadImm` | —                            | dst, imm varint |
//! | 4      | `Load`    | bit 4: width wire code       | dst, base, offset svarint, addr svarint (delta from previous memory address), value varint |
//! | 5      | `Store`   | bit 4: width, bit 5: silent  | data, base, offset svarint, addr svarint (delta), value varint |
//! | 6      | `Branch`  | bit 4: taken                 | branch-kind byte, src1, target svarint (delta from pc), fallthrough svarint (delta from pc + 4) |
//! | 7      | `Nop`     | —                            | — |
//!
//! Register operands are single bytes (the ISA has 64 architectural registers);
//! enum operands use the stable wire codes defined next to each enum in `svw-isa`
//! ([`svw_isa::AluKind::to_wire`] etc.). Delta encoding exploits trace structure:
//! sequential PCs encode as a single zero byte, and strided address streams produce
//! small deltas. In practice the format costs 10–12 bytes per instruction on the
//! SPEC-like workloads, about a sixth of the 72-byte in-memory `DynInst`.
//!
//! Writing is fully deterministic — no timestamps, no platform-dependent fields — so
//! capturing the same `(profile, len, seed)` twice produces byte-identical files,
//! which the determinism tests assert and the cache relies on.
//!
//! # Example
//!
//! ```
//! use svw_trace::{read_program_from_slice, write_program_to_vec};
//! use svw_workloads::WorkloadProfile;
//!
//! let profile = WorkloadProfile::quicktest();
//! let program = profile.generate(2_000, 7);
//! let bytes = write_program_to_vec(&program, 2_000, 7, profile.fingerprint());
//! let replayed = read_program_from_slice(&bytes).unwrap();
//! assert_eq!(program.instructions(), replayed.instructions());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::io;

use svw_isa::Program;

mod cache;
mod codec;
mod reader;
mod varint;
mod writer;

pub use cache::{CacheOutcome, FetchMeter, TraceCache};
pub use reader::{read_trace_file, TraceHeader, TraceReader};
pub use writer::write_program_to_vec;

/// The four magic bytes opening every `.svwt` file.
pub const MAGIC: [u8; 4] = *b"SVWT";

/// The current format version.
pub const FORMAT_VERSION: u16 = 2;

/// Conventional file extension for trace files.
pub const FILE_EXTENSION: &str = "svwt";

/// Errors produced while reading (or validating) a trace.
#[derive(Debug)]
pub enum TraceError {
    /// An underlying I/O failure.
    Io(io::Error),
    /// The file does not start with the `SVWT` magic.
    BadMagic,
    /// The file's format version is not supported by this build.
    UnsupportedVersion(u16),
    /// The byte stream is structurally invalid (bad opcode, truncated record,
    /// over-long varint, invalid UTF-8 name, …).
    Corrupt(String),
    /// The trailing checksum does not match the header and record bytes.
    ChecksumMismatch {
        /// Checksum recomputed from the header and record bytes.
        computed: u64,
        /// Checksum stored in the file.
        stored: u64,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::BadMagic => write!(f, "not a .svwt trace (bad magic)"),
            TraceError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported .svwt format version {v} (supported: {FORMAT_VERSION})"
                )
            }
            TraceError::Corrupt(msg) => write!(f, "corrupt trace: {msg}"),
            TraceError::ChecksumMismatch { computed, stored } => write!(
                f,
                "trace checksum mismatch: computed {computed:#018x}, stored {stored:#018x}"
            ),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// Decodes a `.svwt` image produced by [`write_program_to_vec`] (or read from a
/// file) into a [`Program`].
pub fn read_program_from_slice(bytes: &[u8]) -> Result<Program, TraceError> {
    TraceReader::new(bytes)?.read_program()
}

/// The FNV-1a offset basis used for trace checksums.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
pub(crate) const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

pub(crate) fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

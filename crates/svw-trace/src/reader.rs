//! `.svwt` trace decoding from a borrowed byte image.

use std::path::Path;

use svw_isa::Program;

use crate::codec::{decode_inst, CodecState};
use crate::varint::{end_of_trace, read_array, read_u64};
use crate::{fnv1a, TraceError, FNV_OFFSET, FORMAT_VERSION, MAGIC};

/// Records [`TraceReader::read_program`] reserves before any is decoded: every
/// trace up to 2^20 instructions is read without regrowing the vector, while a
/// hostile header `count` reserves at most this much address space.
const MAX_PREALLOC: u64 = 1 << 20;

/// The parsed fixed-size portion of a `.svwt` file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceHeader {
    /// Workload name.
    pub name: String,
    /// Workload-generation seed.
    pub seed: u64,
    /// Profile fingerprint (0 when the trace did not come from a profile).
    pub fingerprint: u64,
    /// Instruction count that was requested from the generator.
    pub requested_len: u64,
    /// Number of records actually stored.
    pub count: u64,
}

/// `.svwt` reader over a borrowed image: [`TraceReader::new`] parses the header,
/// and [`TraceReader::read_program`] decodes every record and verifies the
/// checksum trailer, which covers the header and the records.
///
/// The header is untrusted until `read_program` has verified the checksum.
pub struct TraceReader<'a> {
    image: &'a [u8],
    records: &'a [u8],
    header: TraceHeader,
}

impl<'a> TraceReader<'a> {
    /// Parses the header at the start of `image`.
    pub fn new(image: &'a [u8]) -> Result<Self, TraceError> {
        let mut rest = image;
        if read_array(&mut rest)? != MAGIC {
            return Err(TraceError::BadMagic);
        }
        let version = u16::from_le_bytes(read_array(&mut rest)?);
        if version != FORMAT_VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }
        let _flags: [u8; 2] = read_array(&mut rest)?;
        let seed = u64::from_le_bytes(read_array(&mut rest)?);
        let fingerprint = u64::from_le_bytes(read_array(&mut rest)?);
        let requested_len = u64::from_le_bytes(read_array(&mut rest)?);
        let count = u64::from_le_bytes(read_array(&mut rest)?);
        let name_len = read_u64(&mut rest)? as usize;
        if name_len > 4096 {
            return Err(TraceError::Corrupt(format!(
                "implausible name length {name_len}"
            )));
        }
        let (name, records) = rest.split_at_checked(name_len).ok_or_else(end_of_trace)?;
        let name = std::str::from_utf8(name)
            .map_err(|_| TraceError::Corrupt("workload name is not UTF-8".to_string()))?
            .to_string();
        Ok(TraceReader {
            image,
            records,
            header: TraceHeader {
                name,
                seed,
                fingerprint,
                requested_len,
                count,
            },
        })
    }

    /// The parsed header.
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// Decodes every record into a [`Program`] and verifies the checksum.
    ///
    /// The header's record count is untrusted: at most 2^20 records (and no more
    /// than the input has bytes) are reserved up front and the vector grows from
    /// there, so a hostile `count` fails on the missing records instead of
    /// aborting the allocation.
    pub fn read_program(self) -> Result<Program, TraceError> {
        let mut rest = self.records;
        let count = self.header.count;
        let mut trace = Vec::with_capacity(count.min(MAX_PREALLOC).min(rest.len() as u64) as usize);
        // Each record is hashed right after it is decoded, so that, as in the
        // writer, the hash's serial multiply chain overlaps the decoding.
        let header = &self.image[..self.image.len() - rest.len()];
        let mut computed = fnv1a(FNV_OFFSET, header);
        let mut state = CodecState::new();
        for seq in 0..count {
            let record = rest;
            trace.push(decode_inst(&mut rest, &mut state, seq)?);
            computed = fnv1a(computed, &record[..record.len() - rest.len()]);
        }
        let stored = u64::from_le_bytes(read_array(&mut rest)?);
        if computed != stored {
            return Err(TraceError::ChecksumMismatch { computed, stored });
        }
        if !rest.is_empty() {
            return Err(TraceError::Corrupt(format!(
                "{} trailing bytes after the trailer",
                rest.len()
            )));
        }
        Ok(Program::new(self.header.name, trace))
    }
}

/// Reads the trace file at `path` with one sized read and decodes it, returning
/// its header and its program.
pub fn read_trace_file(path: impl AsRef<Path>) -> Result<(TraceHeader, Program), TraceError> {
    let image = std::fs::read(path)?;
    let reader = TraceReader::new(&image)?;
    let header = reader.header().clone();
    Ok((header, reader.read_program()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::write_program_to_vec;
    use svw_workloads::WorkloadProfile;

    fn sample_bytes() -> (Vec<u8>, Program) {
        let profile = WorkloadProfile::quicktest();
        let program = profile.generate(1_500, 3);
        let bytes = write_program_to_vec(&program, 1_500, 3, profile.fingerprint());
        (bytes, program)
    }

    #[test]
    fn header_fields_round_trip() {
        let (bytes, program) = sample_bytes();
        let reader = TraceReader::new(&bytes).unwrap();
        let h = reader.header();
        assert_eq!(h.name, "quicktest");
        assert_eq!(h.seed, 3);
        assert_eq!(h.fingerprint, WorkloadProfile::quicktest().fingerprint());
        assert_eq!(h.requested_len, 1_500);
        assert_eq!(h.count, program.len() as u64);
    }

    #[test]
    fn materialized_read_matches_source() {
        let (bytes, program) = sample_bytes();
        let replayed = TraceReader::new(&bytes).unwrap().read_program().unwrap();
        assert_eq!(replayed.name(), program.name());
        assert_eq!(replayed.instructions(), program.instructions());
    }

    #[test]
    fn trailer_corruption_is_caught_on_the_final_record() {
        // Every record decodes; only the checksum after the last one is damaged.
        let (mut bytes, _) = sample_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF; // inside the stored checksum trailer
        assert!(matches!(
            TraceReader::new(&bytes).unwrap().read_program(),
            Err(TraceError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn bad_magic_is_rejected() {
        assert!(matches!(
            TraceReader::new(b"NOPE////"),
            Err(TraceError::BadMagic)
        ));
    }

    #[test]
    fn bad_version_is_rejected() {
        let (mut bytes, _) = sample_bytes();
        bytes[4] = 0xFF;
        assert!(matches!(
            TraceReader::new(&bytes),
            Err(TraceError::UnsupportedVersion(_))
        ));
        // Version 1 checksummed only the records.
        bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
        let err = TraceReader::new(&bytes).err().unwrap();
        assert_eq!(
            err.to_string(),
            "unsupported .svwt format version 1 (supported: 2)"
        );
    }

    #[test]
    fn flipped_record_byte_fails_the_checksum() {
        let (mut bytes, _) = sample_bytes();
        // Flip a byte in the record region (well past the header) in a way that keeps
        // the stream structurally decodable often enough; whether decoding or the
        // checksum catches it, the read must fail.
        let idx = bytes.len() - 16;
        bytes[idx] ^= 0x01;
        assert!(TraceReader::new(&bytes).unwrap().read_program().is_err());
    }

    #[test]
    fn trailing_bytes_after_the_trailer_are_corrupt() {
        let (mut bytes, _) = sample_bytes();
        bytes.extend_from_slice(b"GARBAGE");
        let err = TraceReader::new(&bytes)
            .unwrap()
            .read_program()
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "corrupt trace: 7 trailing bytes after the trailer"
        );
    }

    #[test]
    fn truncated_trace_is_corrupt() {
        let (bytes, _) = sample_bytes();
        let cut = &bytes[..bytes.len() / 2];
        assert!(TraceReader::new(cut).unwrap().read_program().is_err());
    }
}

//! `.svwt` trace decoding.

use std::fs::File;
use std::io::{BufReader, Read};
use std::path::Path;

use svw_isa::{DynInst, InstSeq, Program};

use crate::codec::{decode_inst, CodecState};
use crate::varint::read_u64;
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

/// Wraps a reader, folding every consumed byte into an FNV-1a checksum.
struct ChecksumRead<R: Read> {
    inner: R,
    checksum: u64,
}

impl<R: Read> Read for ChecksumRead<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.checksum = fnv1a(self.checksum, &buf[..n]);
        Ok(n)
    }
}

/// Incremental `.svwt` reader.
///
/// Decodes records one at a time with [`TraceReader::next_record`], or materializes
/// the remaining records with [`TraceReader::read_program`]. The trailing checksum is
/// verified when the last record has been read.
pub struct TraceReader<R: Read> {
    input: ChecksumRead<R>,
    header: TraceHeader,
    state: CodecState,
    next_seq: InstSeq,
    verified: bool,
}

impl TraceReader<BufReader<File>> {
    /// Opens and parses the header of the trace file at `path`.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        Self::new(BufReader::new(File::open(path)?))
    }
}

impl<R: Read> TraceReader<R> {
    /// Parses the header from `input`.
    pub fn new(mut input: R) -> Result<Self, TraceError> {
        let mut magic = [0u8; 4];
        read_exact(&mut input, &mut magic)?;
        if magic != MAGIC {
            return Err(TraceError::BadMagic);
        }
        let version = u16::from_le_bytes(read_array(&mut input)?);
        if version != FORMAT_VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }
        let _flags = u16::from_le_bytes(read_array(&mut input)?);
        let seed = u64::from_le_bytes(read_array(&mut input)?);
        let fingerprint = u64::from_le_bytes(read_array(&mut input)?);
        let requested_len = u64::from_le_bytes(read_array(&mut input)?);
        let count = u64::from_le_bytes(read_array(&mut input)?);
        let name_len = read_u64(&mut input)? as usize;
        if name_len > 4096 {
            return Err(TraceError::Corrupt(format!(
                "implausible name length {name_len}"
            )));
        }
        let mut name_bytes = vec![0u8; name_len];
        read_exact(&mut input, &mut name_bytes)?;
        let name = String::from_utf8(name_bytes)
            .map_err(|_| TraceError::Corrupt("workload name is not UTF-8".to_string()))?;
        Ok(TraceReader {
            input: ChecksumRead {
                inner: input,
                checksum: FNV_OFFSET,
            },
            header: TraceHeader {
                name,
                seed,
                fingerprint,
                requested_len,
                count,
            },
            state: CodecState::new(),
            next_seq: 0,
            verified: false,
        })
    }

    /// The parsed header.
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// Decodes the next record, or returns `Ok(None)` after the last one.
    ///
    /// The trailing checksum is verified *as part of returning the final record* (not
    /// lazily on the read past the end), so a consumer that pulls exactly
    /// [`TraceHeader::count`] records still sees corruption as an error rather than
    /// completing on a damaged file.
    pub fn next_record(&mut self) -> Result<Option<DynInst>, TraceError> {
        if self.next_seq >= self.header.count {
            self.verify_trailer()?;
            return Ok(None);
        }
        let inst = decode_inst(&mut self.input, &mut self.state, self.next_seq)?;
        self.next_seq += 1;
        if self.next_seq == self.header.count {
            self.verify_trailer()?;
        }
        Ok(Some(inst))
    }

    fn verify_trailer(&mut self) -> Result<(), TraceError> {
        if !self.verified {
            check_trailer(&mut self.input.inner, self.input.checksum)?;
            self.verified = true;
        }
        Ok(())
    }

    /// Materializes every remaining record into a [`Program`] (verifying the
    /// checksum).
    ///
    /// The rest of the input is read into memory once and decoded from there, so
    /// memory is bounded by the file. The header's record count is untrusted: at
    /// most 2^20 records (and no more than the input has bytes) are reserved up
    /// front and the vector grows from there, so a hostile `count` fails on the
    /// missing records instead of aborting the allocation.
    pub fn read_program(mut self) -> Result<Program, TraceError> {
        let mut trace = Vec::new();
        if !self.verified {
            let mut bytes = Vec::new();
            self.input.inner.read_to_end(&mut bytes)?;
            let remaining = self.header.count - self.next_seq;
            trace.reserve(remaining.min(MAX_PREALLOC).min(bytes.len() as u64) as usize);
            let mut rest = bytes.as_slice();
            for seq in self.next_seq..self.header.count {
                trace.push(decode_inst(&mut rest, &mut self.state, seq)?);
            }
            let records = &bytes[..bytes.len() - rest.len()];
            check_trailer(&mut rest, fnv1a(self.input.checksum, records))?;
        }
        Ok(Program::new(self.header.name.clone(), trace))
    }
}

/// Reads the stored checksum that follows the records, compares it with the one
/// `computed` over them, and requires the input to end there.
fn check_trailer(rest: &mut impl Read, computed: u64) -> Result<(), TraceError> {
    let stored = u64::from_le_bytes(read_array(rest)?);
    if computed != stored {
        return Err(TraceError::ChecksumMismatch { computed, stored });
    }
    let trailing = std::io::copy(rest, &mut std::io::sink())?;
    if trailing > 0 {
        return Err(TraceError::Corrupt(format!(
            "{trailing} trailing bytes after the trailer"
        )));
    }
    Ok(())
}

fn read_exact(input: &mut impl Read, buf: &mut [u8]) -> Result<(), TraceError> {
    input.read_exact(buf).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => {
            TraceError::Corrupt("unexpected end of trace".to_string())
        }
        _ => TraceError::Io(e),
    })
}

fn read_array<const N: usize>(input: &mut impl Read) -> Result<[u8; N], TraceError> {
    let mut buf = [0u8; N];
    read_exact(input, &mut buf)?;
    Ok(buf)
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
        let reader = TraceReader::new(bytes.as_slice()).unwrap();
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
        let replayed = TraceReader::new(bytes.as_slice())
            .unwrap()
            .read_program()
            .unwrap();
        assert_eq!(replayed.name(), program.name());
        assert_eq!(replayed.instructions(), program.instructions());
    }

    #[test]
    fn streaming_read_matches_source() {
        let (bytes, program) = sample_bytes();
        let mut reader = TraceReader::new(bytes.as_slice()).unwrap();
        for expected in program.instructions() {
            assert_eq!(reader.next_record().unwrap().as_ref(), Some(expected));
        }
        assert!(reader.next_record().unwrap().is_none());
        assert!(
            reader.next_record().unwrap().is_none(),
            "the reader stays exhausted"
        );
    }

    #[test]
    fn trailer_corruption_is_caught_on_the_final_record() {
        // A consumer that pulls exactly `count` records never reads past the end —
        // the checksum must still be enforced on that path.
        let (mut bytes, program) = sample_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF; // inside the stored checksum trailer
        let mut reader = TraceReader::new(bytes.as_slice()).unwrap();
        let mut outcome = Ok(None);
        for _ in 0..program.len() {
            outcome = reader.next_record();
            if outcome.is_err() {
                break;
            }
        }
        assert!(matches!(outcome, Err(TraceError::ChecksumMismatch { .. })));
    }

    #[test]
    fn bad_magic_is_rejected() {
        assert!(matches!(
            TraceReader::new(&b"NOPE////"[..]),
            Err(TraceError::BadMagic)
        ));
    }

    #[test]
    fn bad_version_is_rejected() {
        let (mut bytes, _) = sample_bytes();
        bytes[4] = 0xFF;
        assert!(matches!(
            TraceReader::new(bytes.as_slice()),
            Err(TraceError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn flipped_record_byte_fails_the_checksum() {
        let (mut bytes, _) = sample_bytes();
        // Flip a byte in the record region (well past the header) in a way that keeps
        // the stream structurally decodable often enough; whether decoding or the
        // checksum catches it, the read must fail.
        let idx = bytes.len() - 16;
        bytes[idx] ^= 0x01;
        assert!(TraceReader::new(bytes.as_slice())
            .unwrap()
            .read_program()
            .is_err());
    }

    #[test]
    fn trailing_bytes_after_the_trailer_are_corrupt() {
        let (mut bytes, program) = sample_bytes();
        bytes.extend_from_slice(b"GARBAGE");
        let err = TraceReader::new(bytes.as_slice())
            .unwrap()
            .read_program()
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "corrupt trace: 7 trailing bytes after the trailer"
        );
        // The streaming path checks the same when it returns the final record.
        let mut reader = TraceReader::new(bytes.as_slice()).unwrap();
        for _ in 1..program.len() {
            reader.next_record().unwrap();
        }
        assert!(matches!(reader.next_record(), Err(TraceError::Corrupt(_))));
    }

    #[test]
    fn truncated_trace_is_corrupt() {
        let (bytes, _) = sample_bytes();
        let cut = &bytes[..bytes.len() / 2];
        assert!(TraceReader::new(cut).unwrap().read_program().is_err());
    }
}

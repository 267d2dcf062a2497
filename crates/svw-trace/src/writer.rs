//! Trace capture: one function builds a whole `.svwt` image in memory.

use svw_isa::Program;

use crate::codec::{encode_inst, CodecState};
use crate::varint::write_u64;
use crate::{fnv1a, FNV_OFFSET, FORMAT_VERSION, MAGIC};

/// An upper bound on the bytes a typical record takes (the bench workloads
/// average 10–12), so that most images are built without regrowing the buffer.
const RESERVE_PER_RECORD: usize = 16;

/// Serializes a resolved [`Program`] into a `.svwt` image: header, one record per
/// instruction and the checksum trailer (FNV-1a over the header and every record).
/// `requested_len` is the instruction count that was asked of the generator, which
/// may overshoot slightly to finish its final loop iteration; `fingerprint` is the
/// profile's (0 if not applicable). Write the image to a file with one
/// [`std::fs::write`].
///
/// # Panics
///
/// Panics if the instructions' `seq` numbers are not `0, 1, 2, …`, or if a memory
/// instruction is unresolved.
pub fn write_program_to_vec(
    program: &Program,
    requested_len: usize,
    seed: u64,
    fingerprint: u64,
) -> Vec<u8> {
    let name = program.name();
    let mut out = Vec::with_capacity(64 + name.len() + program.len() * RESERVE_PER_RECORD);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes()); // flags (reserved)
    out.extend_from_slice(&seed.to_le_bytes());
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.extend_from_slice(&(requested_len as u64).to_le_bytes());
    out.extend_from_slice(&(program.len() as u64).to_le_bytes());
    write_u64(&mut out, name.len() as u64);
    out.extend_from_slice(name.as_bytes());
    // Each record is hashed as soon as it is encoded: the hash's serial
    // multiply chain then overlaps the next record's encoding.
    let mut checksum = fnv1a(FNV_OFFSET, &out);
    let mut state = CodecState::new();
    for (seq, inst) in program.instructions().iter().enumerate() {
        assert_eq!(
            inst.seq, seq as u64,
            "instructions must be written in dense sequence order"
        );
        let start = out.len();
        encode_inst(&mut out, &mut state, inst);
        checksum = fnv1a(checksum, &out[start..]);
    }
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use svw_isa::{ArchReg, ArchState, DynInst, InstKind};

    fn tiny_program() -> Program {
        let mut trace = vec![
            DynInst::new(
                0,
                0,
                InstKind::LoadImm {
                    dst: ArchReg::new(1),
                    imm: 7,
                },
            ),
            DynInst::new(1, 4, InstKind::Nop),
        ];
        ArchState::new().execute_all(&mut trace);
        Program::new("tiny", trace)
    }

    #[test]
    fn header_layout_is_stable() {
        let buf = write_program_to_vec(&tiny_program(), 2, 9, 0xABCD);
        assert_eq!(&buf[0..4], b"SVWT");
        assert_eq!(u16::from_le_bytes([buf[4], buf[5]]), FORMAT_VERSION);
        assert_eq!(u16::from_le_bytes([buf[6], buf[7]]), 0);
        assert_eq!(u64::from_le_bytes(buf[8..16].try_into().unwrap()), 9);
        assert_eq!(u64::from_le_bytes(buf[16..24].try_into().unwrap()), 0xABCD);
        assert_eq!(u64::from_le_bytes(buf[24..32].try_into().unwrap()), 2); // requested
        assert_eq!(u64::from_le_bytes(buf[32..40].try_into().unwrap()), 2); // count
        assert_eq!(buf[40], 4); // name length varint
        assert_eq!(&buf[41..45], b"tiny");
    }

    #[test]
    #[should_panic(expected = "dense sequence order")]
    fn out_of_order_write_panics() {
        let trace = vec![
            DynInst::new(0, 0, InstKind::Nop),
            DynInst::new(2, 4, InstKind::Nop),
        ];
        write_program_to_vec(&Program::new("x", trace), 2, 0, 0);
    }
}

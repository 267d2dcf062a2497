//! Streaming trace capture.

use std::io::{self, Write};

use svw_isa::{DynInst, Program};

use crate::codec::{encode_inst, CodecState};
use crate::varint::write_u64;
use crate::{fnv1a, FNV_OFFSET, FORMAT_VERSION, MAGIC};

/// Wraps a writer, folding every written byte into an FNV-1a checksum.
struct ChecksumWrite<W: Write> {
    inner: W,
    checksum: u64,
}

impl<W: Write> Write for ChecksumWrite<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.checksum = fnv1a(self.checksum, &buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Streaming `.svwt` writer: construct with the trace's metadata, feed instructions in
/// sequence order, then call [`TraceWriter::finish`] to write the checksum trailer
/// (FNV-1a over the header and every record).
pub struct TraceWriter<W: Write> {
    out: ChecksumWrite<W>,
    state: CodecState,
    expected: u64,
    written: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Writes the header for a trace of exactly `count` instructions named `name`,
    /// generated with `seed` from a profile with `fingerprint` (`requested_len` is the
    /// instruction count that was asked of the generator; the generator may overshoot
    /// slightly to finish its final loop iteration).
    pub fn new(
        out: W,
        name: &str,
        count: u64,
        requested_len: u64,
        seed: u64,
        fingerprint: u64,
    ) -> io::Result<Self> {
        let mut out = ChecksumWrite {
            inner: out,
            checksum: FNV_OFFSET,
        };
        out.write_all(&MAGIC)?;
        out.write_all(&FORMAT_VERSION.to_le_bytes())?;
        out.write_all(&0u16.to_le_bytes())?; // flags (reserved)
        out.write_all(&seed.to_le_bytes())?;
        out.write_all(&fingerprint.to_le_bytes())?;
        out.write_all(&requested_len.to_le_bytes())?;
        out.write_all(&count.to_le_bytes())?;
        write_u64(&mut out, name.len() as u64)?;
        out.write_all(name.as_bytes())?;
        Ok(TraceWriter {
            out,
            state: CodecState::new(),
            expected: count,
            written: 0,
        })
    }

    /// Appends one instruction.
    ///
    /// # Panics
    ///
    /// Panics if more than `count` instructions are written, if `inst.seq` is not the
    /// next sequence number, or if a memory instruction is unresolved.
    pub fn write_inst(&mut self, inst: &DynInst) -> io::Result<()> {
        assert!(
            self.written < self.expected,
            "trace writer given more instructions than the declared count"
        );
        assert_eq!(
            inst.seq, self.written,
            "instructions must be written in dense sequence order"
        );
        encode_inst(&mut self.out, &mut self.state, inst)?;
        self.written += 1;
        Ok(())
    }

    /// Writes the checksum trailer and returns the underlying writer.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `count` instructions were written.
    pub fn finish(self) -> io::Result<W> {
        assert_eq!(
            self.written, self.expected,
            "trace writer closed before the declared count was written"
        );
        let checksum = self.out.checksum;
        let mut inner = self.out.inner;
        inner.write_all(&checksum.to_le_bytes())?;
        inner.flush()?;
        Ok(inner)
    }
}

/// Serializes a whole resolved [`Program`] (the common capture path).
pub fn write_program(
    out: impl Write,
    program: &Program,
    requested_len: usize,
    seed: u64,
    fingerprint: u64,
) -> io::Result<()> {
    let mut w = TraceWriter::new(
        out,
        program.name(),
        program.len() as u64,
        requested_len as u64,
        seed,
        fingerprint,
    )?;
    for inst in program.instructions() {
        w.write_inst(inst)?;
    }
    w.finish()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use svw_isa::{ArchReg, ArchState, InstKind};

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
        let mut buf = Vec::new();
        write_program(&mut buf, &tiny_program(), 2, 9, 0xABCD).unwrap();
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
        let mut w = TraceWriter::new(Vec::new(), "x", 2, 2, 0, 0).unwrap();
        let mut inst = DynInst::new(1, 0, InstKind::Nop);
        inst.seq = 1;
        let _ = w.write_inst(&inst);
    }

    #[test]
    #[should_panic(expected = "before the declared count")]
    fn short_write_panics_at_finish() {
        let w = TraceWriter::new(Vec::new(), "x", 2, 2, 0, 0).unwrap();
        let _ = w.finish();
    }
}

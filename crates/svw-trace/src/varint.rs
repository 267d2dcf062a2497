//! LEB128 varints and zigzag-mapped signed varints: pushed onto a byte image,
//! read from a slice cursor (`&mut &[u8]`, advanced past what it reads).

use crate::TraceError;

/// Maximum bytes a 64-bit LEB128 varint may occupy.
const MAX_VARINT_BYTES: usize = 10;

/// Appends `value` as an unsigned LEB128 varint.
pub(crate) fn write_u64(out: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        out.push(value as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

/// Appends `value` as a zigzag-mapped LEB128 varint.
pub(crate) fn write_i64(out: &mut Vec<u8>, value: i64) {
    write_u64(out, ((value << 1) ^ (value >> 63)) as u64)
}

pub(crate) fn end_of_trace() -> TraceError {
    TraceError::Corrupt("unexpected end of trace".to_string())
}

/// Reads one byte.
pub(crate) fn read_byte(inp: &mut &[u8]) -> Result<u8, TraceError> {
    let (&byte, rest) = inp.split_first().ok_or_else(end_of_trace)?;
    *inp = rest;
    Ok(byte)
}

/// Reads `N` bytes.
pub(crate) fn read_array<const N: usize>(inp: &mut &[u8]) -> Result<[u8; N], TraceError> {
    let (head, rest) = inp.split_first_chunk::<N>().ok_or_else(end_of_trace)?;
    *inp = rest;
    Ok(*head)
}

/// Reads an unsigned LEB128 varint.
pub(crate) fn read_u64(inp: &mut &[u8]) -> Result<u64, TraceError> {
    let mut value: u64 = 0;
    for (i, &byte) in inp.iter().take(MAX_VARINT_BYTES).enumerate() {
        value |= ((byte & 0x7F) as u64) << (7 * i);
        if byte & 0x80 == 0 {
            *inp = &inp[i + 1..];
            return Ok(value);
        }
    }
    Err(if inp.len() < MAX_VARINT_BYTES {
        end_of_trace()
    } else {
        TraceError::Corrupt("over-long varint".to_string())
    })
}

/// Reads a zigzag-mapped LEB128 varint.
pub(crate) fn read_i64(inp: &mut &[u8]) -> Result<i64, TraceError> {
    let z = read_u64(inp)?;
    Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_u(v: u64) -> u64 {
        let mut buf = Vec::new();
        write_u64(&mut buf, v);
        read_u64(&mut buf.as_slice()).unwrap()
    }

    fn round_i(v: i64) -> i64 {
        let mut buf = Vec::new();
        write_i64(&mut buf, v);
        read_i64(&mut buf.as_slice()).unwrap()
    }

    #[test]
    fn unsigned_round_trip() {
        for v in [0, 1, 127, 128, 300, u32::MAX as u64, u64::MAX, 1 << 62] {
            assert_eq!(round_u(v), v);
        }
    }

    #[test]
    fn signed_round_trip() {
        for v in [0, 1, -1, 63, -64, 1 << 40, -(1 << 40), i64::MAX, i64::MIN] {
            assert_eq!(round_i(v), v);
        }
    }

    #[test]
    fn small_values_are_one_byte() {
        for v in 0..128u64 {
            let mut buf = Vec::new();
            write_u64(&mut buf, v);
            assert_eq!(buf.len(), 1);
        }
        let mut buf = Vec::new();
        write_i64(&mut buf, 0);
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn truncated_input_is_corrupt() {
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::MAX);
        buf.pop();
        assert!(matches!(
            read_u64(&mut buf.as_slice()),
            Err(crate::TraceError::Corrupt(_))
        ));
    }

    #[test]
    fn overlong_varint_is_corrupt() {
        let buf = [0x80u8; 11];
        assert!(matches!(
            read_u64(&mut buf.as_slice()),
            Err(crate::TraceError::Corrupt(_))
        ));
    }
}

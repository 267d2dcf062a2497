//! Per-record encode/decode of dynamic instructions (see the crate docs for the
//! format specification).

use svw_isa::{
    AluKind, ArchReg, BranchInfo, BranchKind, DynInst, InstKind, InstSeq, MemAccess, MemWidth,
};

use crate::varint::{read_byte, read_i64, read_u64, write_i64, write_u64};
use crate::TraceError;

const OP_INT_ALU: u8 = 0;
const OP_INT_MUL: u8 = 1;
const OP_FP_ALU: u8 = 2;
const OP_LOAD_IMM: u8 = 3;
const OP_LOAD: u8 = 4;
const OP_STORE: u8 = 5;
const OP_BRANCH: u8 = 6;
const OP_NOP: u8 = 7;

const FLAG_SHIFT: u8 = 4;
/// Load/Store: the `MemWidth` wire code.
const FLAG_WIDTH: u8 = 1 << 4;
/// Store: the access was silent.
const FLAG_SILENT: u8 = 1 << 5;
/// Branch: architecturally taken.
const FLAG_TAKEN: u8 = 1 << 4;

/// Delta-encoding context threaded through consecutive records.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CodecState {
    prev_pc: u64,
    prev_addr: u64,
}

impl CodecState {
    pub(crate) fn new() -> Self {
        // The first record's pc is encoded as a delta from 0 + 4, and the first memory
        // address as a delta from 0.
        CodecState {
            prev_pc: 0u64.wrapping_sub(4),
            prev_addr: 0,
        }
    }
}

fn reg(r: ArchReg) -> u8 {
    r.index() as u8
}

fn read_reg(inp: &mut &[u8]) -> Result<ArchReg, TraceError> {
    let b = read_byte(inp)?;
    if (b as usize) < svw_isa::NUM_ARCH_REGS {
        Ok(ArchReg::new(b))
    } else {
        Err(TraceError::Corrupt(format!(
            "register index {b} out of range"
        )))
    }
}

fn mem_of(inst: &DynInst) -> &MemAccess {
    inst.mem
        .as_ref()
        .expect("trace capture requires a resolved trace (run through the oracle)")
}

/// Appends one instruction's record to `out`. The caller guarantees instructions
/// arrive in sequence order with resolved memory accesses.
pub(crate) fn encode_inst(out: &mut Vec<u8>, st: &mut CodecState, inst: &DynInst) {
    let (op, flags) = match &inst.kind {
        InstKind::IntAlu { .. } => (OP_INT_ALU, 0),
        InstKind::IntMul { .. } => (OP_INT_MUL, 0),
        InstKind::FpAlu { .. } => (OP_FP_ALU, 0),
        InstKind::LoadImm { .. } => (OP_LOAD_IMM, 0),
        InstKind::Load { width, .. } => (OP_LOAD, width.to_wire() << FLAG_SHIFT),
        InstKind::Store { width, .. } => {
            let silent = if mem_of(inst).silent { FLAG_SILENT } else { 0 };
            (OP_STORE, (width.to_wire() << FLAG_SHIFT) | silent)
        }
        InstKind::Branch { info, .. } => (OP_BRANCH, if info.taken { FLAG_TAKEN } else { 0 }),
        InstKind::Nop => (OP_NOP, 0),
    };
    out.push(op | flags);
    write_i64(out, inst.pc.wrapping_sub(st.prev_pc.wrapping_add(4)) as i64);
    st.prev_pc = inst.pc;

    match &inst.kind {
        InstKind::IntAlu {
            op,
            dst,
            src1,
            src2,
        } => {
            out.extend_from_slice(&[op.to_wire(), reg(*dst), reg(*src1), reg(*src2)]);
        }
        InstKind::IntMul { dst, src1, src2 } | InstKind::FpAlu { dst, src1, src2 } => {
            out.extend_from_slice(&[reg(*dst), reg(*src1), reg(*src2)]);
        }
        InstKind::LoadImm { dst, imm } => {
            out.push(reg(*dst));
            write_u64(out, *imm);
        }
        InstKind::Load {
            dst, base, offset, ..
        } => {
            out.extend_from_slice(&[reg(*dst), reg(*base)]);
            write_i64(out, *offset);
            let m = mem_of(inst);
            write_i64(out, m.addr.wrapping_sub(st.prev_addr) as i64);
            write_u64(out, m.value);
            st.prev_addr = m.addr;
        }
        InstKind::Store {
            data, base, offset, ..
        } => {
            out.extend_from_slice(&[reg(*data), reg(*base)]);
            write_i64(out, *offset);
            let m = mem_of(inst);
            write_i64(out, m.addr.wrapping_sub(st.prev_addr) as i64);
            write_u64(out, m.value);
            st.prev_addr = m.addr;
        }
        InstKind::Branch { kind, info, src1 } => {
            out.extend_from_slice(&[kind.to_wire(), reg(*src1)]);
            write_i64(out, info.target.wrapping_sub(inst.pc) as i64);
            write_i64(
                out,
                info.fallthrough.wrapping_sub(inst.pc.wrapping_add(4)) as i64,
            );
        }
        InstKind::Nop => {}
    }
}

/// Decodes one instruction from the front of `inp`, assigning it sequence number
/// `seq`, and advances `inp` past it.
pub(crate) fn decode_inst(
    inp: &mut &[u8],
    st: &mut CodecState,
    seq: InstSeq,
) -> Result<DynInst, TraceError> {
    let tag = read_byte(inp)?;
    let (op, flags) = (tag & 0x0F, tag & 0xF0);
    let pc = st
        .prev_pc
        .wrapping_add(4)
        .wrapping_add(read_i64(inp)? as u64);
    st.prev_pc = pc;

    let mut mem = None;
    let kind = match op {
        OP_INT_ALU => {
            let alu = AluKind::from_wire(read_byte(inp)?)
                .ok_or_else(|| TraceError::Corrupt(format!("bad ALU kind at seq {seq}")))?;
            InstKind::IntAlu {
                op: alu,
                dst: read_reg(inp)?,
                src1: read_reg(inp)?,
                src2: read_reg(inp)?,
            }
        }
        OP_INT_MUL => InstKind::IntMul {
            dst: read_reg(inp)?,
            src1: read_reg(inp)?,
            src2: read_reg(inp)?,
        },
        OP_FP_ALU => InstKind::FpAlu {
            dst: read_reg(inp)?,
            src1: read_reg(inp)?,
            src2: read_reg(inp)?,
        },
        OP_LOAD_IMM => InstKind::LoadImm {
            dst: read_reg(inp)?,
            imm: read_u64(inp)?,
        },
        OP_LOAD | OP_STORE => {
            let width = MemWidth::from_wire((flags & FLAG_WIDTH) >> FLAG_SHIFT)
                .ok_or_else(|| TraceError::Corrupt(format!("bad width at seq {seq}")))?;
            let r1 = read_reg(inp)?;
            let base = read_reg(inp)?;
            let offset = read_i64(inp)?;
            let addr = st.prev_addr.wrapping_add(read_i64(inp)? as u64);
            let value = read_u64(inp)?;
            st.prev_addr = addr;
            mem = Some(MemAccess {
                addr,
                width,
                value,
                silent: op == OP_STORE && flags & FLAG_SILENT != 0,
            });
            if op == OP_LOAD {
                InstKind::Load {
                    dst: r1,
                    base,
                    offset,
                    width,
                }
            } else {
                InstKind::Store {
                    data: r1,
                    base,
                    offset,
                    width,
                }
            }
        }
        OP_BRANCH => {
            let kind = BranchKind::from_wire(read_byte(inp)?)
                .ok_or_else(|| TraceError::Corrupt(format!("bad branch kind at seq {seq}")))?;
            let src1 = read_reg(inp)?;
            let target = pc.wrapping_add(read_i64(inp)? as u64);
            let fallthrough = pc.wrapping_add(4).wrapping_add(read_i64(inp)? as u64);
            InstKind::Branch {
                kind,
                info: BranchInfo {
                    taken: flags & FLAG_TAKEN != 0,
                    target,
                    fallthrough,
                },
                src1,
            }
        }
        OP_NOP => InstKind::Nop,
        other => {
            return Err(TraceError::Corrupt(format!(
                "unknown opcode {other} at seq {seq}"
            )))
        }
    };

    let mut inst = DynInst::new(seq, pc, kind);
    inst.mem = mem;
    Ok(inst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use svw_isa::ArchState;

    fn round_trip(mut insts: Vec<DynInst>) -> Vec<DynInst> {
        ArchState::new().execute_all(&mut insts);
        let mut buf = Vec::new();
        let mut st = CodecState::new();
        for i in &insts {
            encode_inst(&mut buf, &mut st, i);
        }
        let mut input = buf.as_slice();
        let mut st = CodecState::new();
        let decoded: Vec<DynInst> = (0..insts.len())
            .map(|i| decode_inst(&mut input, &mut st, i as InstSeq).unwrap())
            .collect();
        assert!(input.is_empty(), "decoder must consume every byte");
        assert_eq!(insts, decoded);
        decoded
    }

    #[test]
    fn every_instruction_kind_round_trips() {
        let r = ArchReg::new;
        round_trip(vec![
            DynInst::new(
                0,
                0x1000,
                InstKind::LoadImm {
                    dst: r(1),
                    imm: 0x2000,
                },
            ),
            DynInst::new(
                1,
                0x1004,
                InstKind::IntAlu {
                    op: AluKind::Mix,
                    dst: r(2),
                    src1: r(1),
                    src2: r(1),
                },
            ),
            DynInst::new(
                2,
                0x1008,
                InstKind::IntMul {
                    dst: r(3),
                    src1: r(2),
                    src2: r(1),
                },
            ),
            DynInst::new(
                3,
                0x100C,
                InstKind::FpAlu {
                    dst: r(4),
                    src1: r(3),
                    src2: r(2),
                },
            ),
            DynInst::new(
                4,
                0x1010,
                InstKind::Store {
                    data: r(2),
                    base: r(1),
                    offset: 16,
                    width: MemWidth::W8,
                },
            ),
            DynInst::new(
                5,
                0x1014,
                InstKind::Load {
                    dst: r(5),
                    base: r(1),
                    offset: 16,
                    width: MemWidth::W8,
                },
            ),
            DynInst::new(
                6,
                0x1018,
                InstKind::Store {
                    data: r(2),
                    base: r(1),
                    offset: 16,
                    width: MemWidth::W8,
                },
            ), // silent
            DynInst::new(
                7,
                0x101C,
                InstKind::Load {
                    dst: r(6),
                    base: r(1),
                    offset: -8,
                    width: MemWidth::W4,
                },
            ),
            DynInst::new(
                8,
                0x1020,
                InstKind::Branch {
                    kind: BranchKind::Conditional,
                    info: BranchInfo {
                        taken: true,
                        target: 0x1000,
                        fallthrough: 0x1024,
                    },
                    src1: r(6),
                },
            ),
            DynInst::new(9, 0x1024, InstKind::Nop),
        ]);
    }

    #[test]
    fn silent_flag_survives() {
        let r = ArchReg::new;
        let decoded = round_trip(vec![
            DynInst::new(
                0,
                0,
                InstKind::LoadImm {
                    dst: r(1),
                    imm: 0x8000,
                },
            ),
            DynInst::new(
                1,
                4,
                InstKind::Store {
                    data: r(2),
                    base: r(1),
                    offset: 0,
                    width: MemWidth::W8,
                },
            ),
            DynInst::new(
                2,
                8,
                InstKind::Store {
                    data: r(2),
                    base: r(1),
                    offset: 0,
                    width: MemWidth::W8,
                },
            ),
        ]);
        assert!(!decoded[1].mem_access().silent);
        assert!(decoded[2].mem_access().silent);
    }

    #[test]
    fn sequential_pcs_cost_one_delta_byte() {
        let r = ArchReg::new;
        let mut insts = vec![DynInst::new(0, 0x1000, InstKind::Nop)];
        for i in 1..10u64 {
            insts.push(DynInst::new(
                i,
                0x1000 + 4 * i,
                InstKind::IntAlu {
                    op: AluKind::Add,
                    dst: r(1),
                    src1: r(1),
                    src2: r(2),
                },
            ));
        }
        ArchState::new().execute_all(&mut insts);
        let mut buf = Vec::new();
        let mut st = CodecState::new();
        for i in &insts {
            encode_inst(&mut buf, &mut st, i);
        }
        // Nop: tag + 2-byte pc delta (first record, pc 0x1000 from origin). Each
        // sequential IntAlu: tag + 1-byte zero pc delta + alu + 3 regs = 6 bytes.
        assert_eq!(buf.len(), (1 + 2) + 9 * 6);
    }

    #[test]
    fn unknown_opcode_is_rejected() {
        let buf = [0x0Fu8, 0x00];
        let mut st = CodecState::new();
        assert!(matches!(
            decode_inst(&mut buf.as_slice(), &mut st, 0),
            Err(TraceError::Corrupt(_))
        ));
    }
}

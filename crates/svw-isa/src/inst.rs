//! Dynamic instruction records.

use crate::{Addr, ArchReg, BranchKind, InstSeq, MemWidth, OpClass, Pc, Value};

/// The operation performed by a dynamic instruction, with its register operands.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InstKind {
    /// `dst = op(src1, src2)` — single-cycle integer ALU operation.
    IntAlu {
        /// Operation kind.
        op: crate::AluKind,
        /// Destination register.
        dst: ArchReg,
        /// First source register.
        src1: ArchReg,
        /// Second source register.
        src2: ArchReg,
    },
    /// `dst = src1 * src2` — multi-cycle integer multiply.
    IntMul {
        /// Destination register.
        dst: ArchReg,
        /// First source register.
        src1: ArchReg,
        /// Second source register.
        src2: ArchReg,
    },
    /// Floating-point operation (value semantics are an integer mix; only the latency
    /// and issue-port usage matter to the study).
    FpAlu {
        /// Destination register.
        dst: ArchReg,
        /// First source register.
        src1: ArchReg,
        /// Second source register.
        src2: ArchReg,
    },
    /// `dst = imm` — constant materialisation.
    LoadImm {
        /// Destination register.
        dst: ArchReg,
        /// Immediate value.
        imm: u64,
    },
    /// `dst = mem[base + offset]`.
    Load {
        /// Destination register.
        dst: ArchReg,
        /// Base address register.
        base: ArchReg,
        /// Signed displacement.
        offset: i64,
        /// Access width.
        width: MemWidth,
    },
    /// `mem[base + offset] = data`.
    Store {
        /// Register providing the stored value.
        data: ArchReg,
        /// Base address register.
        base: ArchReg,
        /// Signed displacement.
        offset: i64,
        /// Access width.
        width: MemWidth,
    },
    /// Control transfer. The architectural outcome (`info.taken`, `info.target`) is
    /// resolved in the trace; the simulator's branch predictor is scored against it.
    Branch {
        /// Branch category.
        kind: BranchKind,
        /// Resolved outcome and targets.
        info: BranchInfo,
        /// Source register the condition nominally depends on (times the branch's
        /// resolution in the dataflow graph).
        src1: ArchReg,
    },
    /// No-operation.
    Nop,
}

/// Resolved control-flow information for a branch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BranchInfo {
    /// Whether the branch is architecturally taken.
    pub taken: bool,
    /// Target PC if taken.
    pub target: Pc,
    /// Fall-through PC (the next sequential PC).
    pub fallthrough: Pc,
}

impl BranchInfo {
    /// The PC the branch actually transfers control to.
    #[inline]
    pub fn next_pc(&self) -> Pc {
        if self.taken {
            self.target
        } else {
            self.fallthrough
        }
    }
}

/// Resolved memory-access information attached to loads and stores by the oracle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemAccess {
    /// Effective (byte) address.
    pub addr: Addr,
    /// Access width.
    pub width: MemWidth,
    /// For loads: the correct sequential (program-order) value of the load.
    /// For stores: the value the store writes.
    pub value: Value,
    /// For stores: `true` if the stored value equals the value memory already held
    /// (a *silent store*). Always `false` for loads.
    pub silent: bool,
}

impl MemAccess {
    /// The inclusive byte range `[start, end)` touched by the access.
    #[inline]
    pub fn byte_range(&self) -> (Addr, Addr) {
        (self.addr, self.addr + self.width.bytes())
    }

    /// Returns `true` if this access overlaps `other` (any shared byte).
    #[inline]
    pub fn overlaps(&self, other: &MemAccess) -> bool {
        let (a0, a1) = self.byte_range();
        let (b0, b1) = other.byte_range();
        a0 < b1 && b0 < a1
    }
}

/// A dynamic instruction: one element of the trace replayed by the timing model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DynInst {
    /// Dynamic sequence number (index in the trace).
    pub seq: InstSeq,
    /// Program counter of the static instruction this dynamic instance came from.
    pub pc: Pc,
    /// Operation and register operands.
    pub kind: InstKind,
    /// Resolved memory access (filled in by the oracle for loads and stores).
    pub mem: Option<MemAccess>,
}

impl DynInst {
    /// Creates a new dynamic instruction with no resolved memory access. The oracle
    /// executor fills in [`DynInst::mem`] for loads and stores.
    pub fn new(seq: InstSeq, pc: Pc, kind: InstKind) -> Self {
        DynInst {
            seq,
            pc,
            kind,
            mem: None,
        }
    }

    /// The coarse operation class.
    pub fn class(&self) -> OpClass {
        match self.kind {
            InstKind::IntAlu { .. } | InstKind::LoadImm { .. } => OpClass::IntAlu,
            InstKind::IntMul { .. } => OpClass::IntMul,
            InstKind::FpAlu { .. } => OpClass::FpAlu,
            InstKind::Load { .. } => OpClass::Load,
            InstKind::Store { .. } => OpClass::Store,
            InstKind::Branch { .. } => OpClass::Branch,
            InstKind::Nop => OpClass::Nop,
        }
    }

    /// Returns `true` for loads.
    #[inline]
    pub fn is_load(&self) -> bool {
        matches!(self.kind, InstKind::Load { .. })
    }

    /// Returns `true` for stores.
    #[inline]
    pub fn is_store(&self) -> bool {
        matches!(self.kind, InstKind::Store { .. })
    }

    /// The destination architectural register, if any. Writes to the zero register are
    /// reported as `None` (they are architecturally dropped).
    pub fn dst(&self) -> Option<ArchReg> {
        let d = match self.kind {
            InstKind::IntAlu { dst, .. }
            | InstKind::IntMul { dst, .. }
            | InstKind::FpAlu { dst, .. }
            | InstKind::LoadImm { dst, .. }
            | InstKind::Load { dst, .. } => Some(dst),
            InstKind::Store { .. } | InstKind::Branch { .. } | InstKind::Nop => None,
        };
        d.filter(|r| !r.is_zero())
    }

    /// The source architectural registers (up to two). The zero register is excluded
    /// because it is always ready and carries no dependence.
    pub fn srcs(&self) -> [Option<ArchReg>; 2] {
        let keep = |r: ArchReg| if r.is_zero() { None } else { Some(r) };
        match self.kind {
            InstKind::IntAlu { src1, src2, .. }
            | InstKind::IntMul { src1, src2, .. }
            | InstKind::FpAlu { src1, src2, .. } => [keep(src1), keep(src2)],
            InstKind::LoadImm { .. } | InstKind::Nop => [None, None],
            InstKind::Load { base, .. } => [keep(base), None],
            InstKind::Store { data, base, .. } => [keep(base), keep(data)],
            InstKind::Branch { src1, .. } => [keep(src1), None],
        }
    }

    /// For loads and stores, the base register and signed offset ("operation
    /// signature" inputs used by register integration).
    pub fn base_and_offset(&self) -> Option<(ArchReg, i64)> {
        match self.kind {
            InstKind::Load { base, offset, .. } | InstKind::Store { base, offset, .. } => {
                Some((base, offset))
            }
            _ => None,
        }
    }

    /// The resolved branch information, if this is a branch.
    pub fn branch_info(&self) -> Option<(BranchKind, BranchInfo)> {
        match self.kind {
            InstKind::Branch { kind, info, .. } => Some((kind, info)),
            _ => None,
        }
    }

    /// The resolved memory access.
    ///
    /// # Panics
    ///
    /// Panics if the instruction is a load or store whose access has not been resolved
    /// by the oracle yet.
    pub fn mem_access(&self) -> &MemAccess {
        self.mem
            .as_ref()
            .expect("memory access not resolved; run the instruction through ArchState::execute")
    }

    /// Effective address if this is a resolved memory instruction.
    pub fn addr(&self) -> Option<Addr> {
        self.mem.as_ref().map(|m| m.addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AluKind;

    fn r(i: u8) -> ArchReg {
        ArchReg::new(i)
    }

    #[test]
    fn class_mapping() {
        let alu = DynInst::new(
            0,
            0,
            InstKind::IntAlu {
                op: AluKind::Add,
                dst: r(1),
                src1: r(2),
                src2: r(3),
            },
        );
        assert_eq!(alu.class(), OpClass::IntAlu);
        let ld = DynInst::new(
            1,
            4,
            InstKind::Load {
                dst: r(1),
                base: r(2),
                offset: 0,
                width: MemWidth::W8,
            },
        );
        assert_eq!(ld.class(), OpClass::Load);
        assert!(ld.is_load());
        assert!(!ld.is_store());
        let st = DynInst::new(
            2,
            8,
            InstKind::Store {
                data: r(1),
                base: r(2),
                offset: 0,
                width: MemWidth::W8,
            },
        );
        assert_eq!(st.class(), OpClass::Store);
        assert!(st.is_store());
    }

    #[test]
    fn zero_register_is_not_a_dependence() {
        let alu = DynInst::new(
            0,
            0,
            InstKind::IntAlu {
                op: AluKind::Add,
                dst: ArchReg::ZERO,
                src1: ArchReg::ZERO,
                src2: r(3),
            },
        );
        assert_eq!(alu.dst(), None);
        assert_eq!(alu.srcs(), [None, Some(r(3))]);
    }

    #[test]
    fn store_sources_include_base_and_data() {
        let st = DynInst::new(
            0,
            0,
            InstKind::Store {
                data: r(4),
                base: r(5),
                offset: 16,
                width: MemWidth::W4,
            },
        );
        assert_eq!(st.srcs(), [Some(r(5)), Some(r(4))]);
        assert_eq!(st.dst(), None);
        assert_eq!(st.base_and_offset(), Some((r(5), 16)));
    }

    #[test]
    fn branch_info_next_pc() {
        let info = BranchInfo {
            taken: true,
            target: 0x100,
            fallthrough: 0x44,
        };
        assert_eq!(info.next_pc(), 0x100);
        let info2 = BranchInfo {
            taken: false,
            ..info
        };
        assert_eq!(info2.next_pc(), 0x44);
    }

    #[test]
    fn mem_access_overlap() {
        let a = MemAccess {
            addr: 0x100,
            width: MemWidth::W8,
            value: 0,
            silent: false,
        };
        let b = MemAccess {
            addr: 0x104,
            width: MemWidth::W4,
            value: 0,
            silent: false,
        };
        let c = MemAccess {
            addr: 0x108,
            width: MemWidth::W8,
            value: 0,
            silent: false,
        };
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c));
        assert!(!c.overlaps(&b));
    }

    #[test]
    #[should_panic(expected = "not resolved")]
    fn mem_access_unresolved_panics() {
        let ld = DynInst::new(
            0,
            0,
            InstKind::Load {
                dst: r(1),
                base: r(2),
                offset: 0,
                width: MemWidth::W8,
            },
        );
        let _ = ld.mem_access();
    }
}

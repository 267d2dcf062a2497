//! The sequential ("oracle") executor.
//!
//! [`ArchState`] executes dynamic instructions one at a time in program order and
//! records the architecturally correct effective address and value of every memory
//! instruction into the instruction's [`MemAccess`] record. The out-of-order timing
//! models later use those values to decide whether a speculatively executed load got
//! the right value — exactly the comparison the paper's re-execution pipeline performs
//! against the data cache.

use crate::{
    Addr, AluKind, ArchReg, DynInst, InstKind, MemAccess, MemoryImage, Pc, Value, NUM_ARCH_REGS,
};

/// What an instruction did when executed by the oracle. Primarily useful for tests and
/// for the workload generator, which inspects effects while it builds a trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecEffect {
    /// Register written and the value written, if any.
    pub reg_write: Option<(ArchReg, Value)>,
    /// Memory address and value read, for loads.
    pub mem_read: Option<(Addr, Value)>,
    /// Memory address and value written, for stores.
    pub mem_write: Option<(Addr, Value)>,
    /// The next program counter.
    pub next_pc: Pc,
}

/// Sequential architectural state: the register file plus a functional memory image.
#[derive(Clone, Debug)]
pub struct ArchState {
    regs: [Value; NUM_ARCH_REGS],
    mem: MemoryImage,
    retired: u64,
}

impl Default for ArchState {
    fn default() -> Self {
        Self::new()
    }
}

impl ArchState {
    /// Creates a fresh architectural state. Registers start at deterministic,
    /// register-dependent values (so address bases are usable before initialisation)
    /// and memory holds the [`MemoryImage::background`] pattern.
    pub fn new() -> Self {
        let mut regs = [0u64; NUM_ARCH_REGS];
        for (i, r) in regs.iter_mut().enumerate().skip(1) {
            *r = (i as u64).wrapping_mul(0x0101_0000_1000) + 0x1_0000_0000;
        }
        ArchState {
            regs,
            mem: MemoryImage::new(),
            retired: 0,
        }
    }

    /// Reads an architectural register (the zero register always reads 0).
    #[inline]
    pub fn reg(&self, r: ArchReg) -> Value {
        if r.is_zero() {
            0
        } else {
            self.regs[r.index()]
        }
    }

    /// Writes an architectural register (writes to the zero register are dropped).
    #[inline]
    pub fn set_reg(&mut self, r: ArchReg, v: Value) {
        if !r.is_zero() {
            self.regs[r.index()] = v;
        }
    }

    /// Shared read-only access to the memory image.
    pub fn memory(&self) -> &MemoryImage {
        &self.mem
    }

    /// Number of instructions executed so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Executes `inst` sequentially, updating registers and memory, and resolves the
    /// instruction's [`MemAccess`] record in place (for loads and stores).
    ///
    /// Returns a description of the architectural effects.
    pub fn execute(&mut self, inst: &mut DynInst) -> ExecEffect {
        let fallthrough = inst.pc + 4;
        let mut effect = ExecEffect {
            reg_write: None,
            mem_read: None,
            mem_write: None,
            next_pc: fallthrough,
        };
        match inst.kind {
            InstKind::IntAlu {
                op,
                dst,
                src1,
                src2,
            } => {
                let v = op.apply(self.reg(src1), self.reg(src2));
                self.set_reg(dst, v);
                effect.reg_write = Some((dst, v));
            }
            InstKind::IntMul { dst, src1, src2 } => {
                let v = self.reg(src1).wrapping_mul(self.reg(src2));
                self.set_reg(dst, v);
                effect.reg_write = Some((dst, v));
            }
            InstKind::FpAlu { dst, src1, src2 } => {
                let v = AluKind::Mix.apply(self.reg(src1), self.reg(src2));
                self.set_reg(dst, v);
                effect.reg_write = Some((dst, v));
            }
            InstKind::LoadImm { dst, imm } => {
                self.set_reg(dst, imm);
                effect.reg_write = Some((dst, imm));
            }
            InstKind::Load {
                dst,
                base,
                offset,
                width,
            } => {
                let addr = self.reg(base).wrapping_add_signed(offset);
                let v = self.mem.read(addr, width);
                self.set_reg(dst, v);
                inst.mem = Some(MemAccess {
                    addr,
                    width,
                    value: v,
                    silent: false,
                });
                effect.reg_write = Some((dst, v));
                effect.mem_read = Some((addr, v));
            }
            InstKind::Store {
                data,
                base,
                offset,
                width,
            } => {
                let addr = self.reg(base).wrapping_add_signed(offset);
                let v = self.reg(data) & width.mask();
                let silent = self.mem.would_be_silent(addr, width, v);
                self.mem.write(addr, width, v);
                inst.mem = Some(MemAccess {
                    addr,
                    width,
                    value: v,
                    silent,
                });
                effect.mem_write = Some((addr, v));
            }
            InstKind::Branch { info, .. } => {
                effect.next_pc = info.next_pc();
            }
            InstKind::Nop => {}
        }
        self.retired += 1;
        effect
    }

    /// Executes a whole slice of instructions in order, resolving every memory access.
    pub fn execute_all(&mut self, trace: &mut [DynInst]) {
        for inst in trace {
            self.execute(inst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BranchInfo, BranchKind, MemWidth};

    fn r(i: u8) -> ArchReg {
        ArchReg::new(i)
    }

    fn load_imm(seq: u64, dst: u8, imm: u64) -> DynInst {
        DynInst::new(seq, seq * 4, InstKind::LoadImm { dst: r(dst), imm })
    }

    #[test]
    fn registers_start_deterministic_and_nonzero() {
        let a = ArchState::new();
        let b = ArchState::new();
        for i in 1..NUM_ARCH_REGS as u8 {
            assert_eq!(a.reg(r(i)), b.reg(r(i)));
            assert_ne!(a.reg(r(i)), 0);
        }
        assert_eq!(a.reg(ArchReg::ZERO), 0);
    }

    #[test]
    fn zero_register_writes_are_dropped() {
        let mut st = ArchState::new();
        let mut i = DynInst::new(
            0,
            0,
            InstKind::LoadImm {
                dst: ArchReg::ZERO,
                imm: 7,
            },
        );
        st.execute(&mut i);
        assert_eq!(st.reg(ArchReg::ZERO), 0);
    }

    #[test]
    fn store_then_load_forwards_through_memory() {
        let mut st = ArchState::new();
        let mut trace = vec![
            load_imm(0, 1, 0x1000),
            load_imm(1, 2, 0xABCD),
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
            DynInst::new(
                3,
                12,
                InstKind::Load {
                    dst: r(3),
                    base: r(1),
                    offset: 0,
                    width: MemWidth::W8,
                },
            ),
        ];
        st.execute_all(&mut trace);
        assert_eq!(st.reg(r(3)), 0xABCD);
        assert_eq!(trace[3].mem.unwrap().value, 0xABCD);
        assert_eq!(trace[2].mem.unwrap().addr, 0x1000);
        assert!(!trace[2].mem.unwrap().silent);
    }

    #[test]
    fn repeated_identical_store_is_silent() {
        let mut st = ArchState::new();
        let mut trace = vec![
            load_imm(0, 1, 0x2000),
            load_imm(1, 2, 99),
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
            DynInst::new(
                3,
                12,
                InstKind::Store {
                    data: r(2),
                    base: r(1),
                    offset: 0,
                    width: MemWidth::W8,
                },
            ),
        ];
        st.execute_all(&mut trace);
        assert!(!trace[2].mem.unwrap().silent);
        assert!(trace[3].mem.unwrap().silent);
    }

    #[test]
    fn load_value_matches_memory_background_for_untouched_address() {
        let mut st = ArchState::new();
        let mut trace = vec![
            load_imm(0, 1, 0x8000),
            DynInst::new(
                1,
                4,
                InstKind::Load {
                    dst: r(2),
                    base: r(1),
                    offset: 0,
                    width: MemWidth::W8,
                },
            ),
        ];
        st.execute_all(&mut trace);
        assert_eq!(trace[1].mem.unwrap().value, MemoryImage::background(0x8000));
    }

    #[test]
    fn branch_next_pc_follows_outcome() {
        let mut st = ArchState::new();
        let mut b = DynInst::new(
            0,
            0x100,
            InstKind::Branch {
                kind: BranchKind::Conditional,
                info: BranchInfo {
                    taken: true,
                    target: 0x200,
                    fallthrough: 0x104,
                },
                src1: r(1),
            },
        );
        let eff = st.execute(&mut b);
        assert_eq!(eff.next_pc, 0x200);
    }

    #[test]
    fn retired_counts_instructions() {
        let mut st = ArchState::new();
        let mut trace = vec![
            load_imm(0, 1, 1),
            load_imm(1, 2, 2),
            DynInst::new(2, 8, InstKind::Nop),
        ];
        st.execute_all(&mut trace);
        assert_eq!(st.retired(), 3);
    }
}

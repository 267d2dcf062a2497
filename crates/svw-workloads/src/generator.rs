//! The synthetic trace generator.
//!
//! A [`Generator`] first builds a small *static program* — a set of basic blocks whose
//! instruction templates are sampled from the profile's mix, with engineered
//! store-to-load forwarding pairs, redundant loads, silent stores, strided and
//! pointer-chasing address streams, and biased conditional branches — and then emits a
//! dynamic trace by walking those blocks in loops, resolving every instruction through
//! the sequential oracle.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use svw_isa::{
    AluKind, ArchReg, ArchState, BranchInfo, BranchKind, DynInst, InstKind, MemWidth, Pc, Program,
};

use crate::WorkloadProfile;

// Register conventions (see module docs of `svw_isa::types` for the register file).
const R_SP: u8 = 1; // stack base
const R_GP: u8 = 2; // global base
const R_HEAP: u8 = 3; // heap base
const R_MASK: u8 = 4; // footprint mask (bytes)
const R_SEED: u8 = 5; // mixing seed
const R_STRIDE0: u8 = 10; // stride values (R_STRIDE0 + stream)
const R_INDEX0: u8 = 6; // stream index registers (R_INDEX0 + stream)
const R_CHASE: u8 = 14; // pointer-chase address register
const R_ADDR_TMP0: u8 = 16; // address temporaries
const R_DATA0: u8 = 24; // first general data register
const NUM_DATA_REGS: u8 = 40; // r24..r63

const NUM_STRIDE_STREAMS: u8 = 4;
const STACK_REGION_BYTES: u64 = 4 * 1024;
const GLOBAL_REGION_BYTES: u64 = 32 * 1024;

const BASE_PC: Pc = 0x0040_0000;
const BLOCK_PC_STRIDE: Pc = 0x1000;

/// A static instruction template. Branch templates carry their bias and skip distance;
/// everything else is a ready-made [`InstKind`].
#[derive(Clone, Debug)]
enum Template {
    Plain(InstKind),
    /// A conditional "hammock" branch: taken with probability `bias`, skipping the next
    /// `skip` templates of the block when taken.
    SkipBranch {
        bias: f64,
        skip: usize,
    },
}

#[derive(Clone, Debug)]
struct Block {
    base_pc: Pc,
    body: Vec<Template>,
}

impl Block {
    fn pc_of(&self, idx: usize) -> Pc {
        self.base_pc + 4 * idx as u64
    }

    fn loop_branch_pc(&self) -> Pc {
        self.pc_of(self.body.len())
    }
}

/// The synthetic workload generator (see the module documentation).
pub struct Generator<'p> {
    profile: &'p WorkloadProfile,
    rng: StdRng,
    blocks: Vec<Block>,
    data_reg_cursor: u8,
}

impl<'p> Generator<'p> {
    /// Creates a generator for `profile` with the deterministic `seed`.
    pub fn new(profile: &'p WorkloadProfile, seed: u64) -> Self {
        let mut gen = Generator {
            profile,
            rng: StdRng::seed_from_u64(seed ^ 0x5157_5F57_4C44_5F31),
            blocks: Vec::new(),
            data_reg_cursor: 0,
        };
        gen.build_static_program();
        gen
    }

    fn next_data_reg(&mut self) -> ArchReg {
        let r = R_DATA0 + self.data_reg_cursor;
        self.data_reg_cursor = (self.data_reg_cursor + 1) % NUM_DATA_REGS;
        ArchReg::new(r)
    }

    /// A data register that was written "recently" (for tight dependence chains) or a
    /// long time ago (for independent work), per the profile's dependence density.
    fn src_data_reg(&mut self) -> ArchReg {
        let recent = self.rng.gen_bool(self.profile.dependence_density);
        let dist = if recent {
            self.rng.gen_range(1..4)
        } else {
            self.rng.gen_range(4..NUM_DATA_REGS as i32)
        };
        let idx = (self.data_reg_cursor as i32 - dist).rem_euclid(NUM_DATA_REGS as i32) as u8;
        ArchReg::new(R_DATA0 + idx)
    }

    fn random_alu_kind(&mut self) -> AluKind {
        match self.rng.gen_range(0..6) {
            0 => AluKind::Add,
            1 => AluKind::Sub,
            2 => AluKind::Xor,
            3 => AluKind::And,
            4 => AluKind::Or,
            _ => AluKind::Mix,
        }
    }

    fn alu_template(&mut self) -> Template {
        let dst = self.next_data_reg();
        let src1 = self.src_data_reg();
        let src2 = self.src_data_reg();
        let op = self.random_alu_kind();
        Template::Plain(InstKind::IntAlu {
            op,
            dst,
            src1,
            src2,
        })
    }

    fn fp_template(&mut self) -> Template {
        let dst = self.next_data_reg();
        let src1 = self.src_data_reg();
        let src2 = self.src_data_reg();
        Template::Plain(InstKind::FpAlu { dst, src1, src2 })
    }

    fn width(&mut self) -> MemWidth {
        // Mostly 8-byte accesses with a sprinkling of 4-byte ones, which exercise the
        // SSBF granularity/false-sharing effects.
        if self.rng.gen_bool(0.2) {
            MemWidth::W4
        } else {
            MemWidth::W8
        }
    }

    /// A (base register, offset) pair in one of the block's address regions.
    fn region_address(&mut self, block_stride_stream: Option<u8>) -> (ArchReg, i64) {
        let choice = self.rng.gen_range(0..10);
        match (block_stride_stream, choice) {
            // Strided-stream blocks put a good share of their accesses on the stream.
            (Some(s), 0..=3) => (
                ArchReg::new(R_ADDR_TMP0 + s),
                self.rng.gen_range(0..8i64) * 8,
            ),
            // Stack accesses: small frame, heavy reuse.
            (_, 4..=6) => (
                ArchReg::new(R_SP),
                (self.rng.gen_range(0..STACK_REGION_BYTES / 8) * 8) as i64,
            ),
            // Global accesses.
            _ => (
                ArchReg::new(R_GP),
                (self.rng.gen_range(0..GLOBAL_REGION_BYTES / 8) * 8) as i64,
            ),
        }
    }

    fn load_template(&mut self, base: ArchReg, offset: i64, width: MemWidth) -> Template {
        let dst = self.next_data_reg();
        Template::Plain(InstKind::Load {
            dst,
            base,
            offset,
            width,
        })
    }

    fn store_template(&mut self, base: ArchReg, offset: i64, width: MemWidth) -> Template {
        let data = self.src_data_reg();
        Template::Plain(InstKind::Store {
            data,
            base,
            offset,
            width,
        })
    }

    /// Builds the static basic blocks for the profile.
    fn build_static_program(&mut self) {
        let num_blocks = 16;
        for b in 0..num_blocks {
            let stride_stream = if b % 4 == 1 {
                Some((b as u8 / 4) % NUM_STRIDE_STREAMS)
            } else {
                None
            };
            let len = self.rng.gen_range(12..36);
            let mut body: Vec<Template> = Vec::with_capacity(len + 8);

            // Strided-stream blocks advance their stream once per iteration:
            //   idx += stride; tmp = idx & mask; addr = heap_base + tmp
            if let Some(s) = stride_stream {
                let idx = ArchReg::new(R_INDEX0 + s);
                let stride = ArchReg::new(R_STRIDE0 + s);
                let tmp = ArchReg::new(R_ADDR_TMP0 + 4 + s % 4);
                let addr = ArchReg::new(R_ADDR_TMP0 + s);
                body.push(Template::Plain(InstKind::IntAlu {
                    op: AluKind::Add,
                    dst: idx,
                    src1: idx,
                    src2: stride,
                }));
                body.push(Template::Plain(InstKind::IntAlu {
                    op: AluKind::And,
                    dst: tmp,
                    src1: idx,
                    src2: ArchReg::new(R_MASK),
                }));
                body.push(Template::Plain(InstKind::IntAlu {
                    op: AluKind::Add,
                    dst: addr,
                    src1: ArchReg::new(R_HEAP),
                    src2: tmp,
                }));
            }

            // Quota-based construction: fix the number of each instruction class per
            // block so the dynamic mix tracks the profile regardless of which blocks
            // become hot. The oversampling factors compensate for the extra ALU
            // operations emitted by chase groups, stride-advance prefixes, skipped
            // templates, and per-iteration loop branches.
            let p = self.profile;
            let flen = len as f64;
            let n_loads = ((flen * (p.load_frac - p.store_frac * p.silent_store_frac) * 1.12)
                .round() as usize)
                .max(1);
            let n_stores =
                ((flen * (p.store_frac - p.load_frac * p.forwarding_frac) * 1.08).round() as usize)
                    .max(1);
            let n_branches = (flen * p.branch_frac * 0.70).round() as usize;
            let n_fp = (flen * p.fp_frac * 1.05).round() as usize;
            #[derive(Clone, Copy)]
            enum Action {
                Load,
                Store,
                Branch,
                Fp,
                Alu,
            }
            let mut actions: Vec<Action> = Vec::with_capacity(len);
            actions.extend(std::iter::repeat_n(Action::Load, n_loads));
            actions.extend(std::iter::repeat_n(Action::Store, n_stores));
            actions.extend(std::iter::repeat_n(Action::Branch, n_branches));
            actions.extend(std::iter::repeat_n(Action::Fp, n_fp));
            while actions.len() < len {
                actions.push(Action::Alu);
            }
            // Fisher–Yates shuffle for a deterministic but well-mixed ordering.
            for i in (1..actions.len()).rev() {
                let j = self.rng.gen_range(0..=i);
                actions.swap(i, j);
            }

            let mut last_load: Option<(ArchReg, i64, MemWidth)> = None;
            for action in actions {
                match action {
                    Action::Load => self.push_load_group(&mut body, stride_stream, &mut last_load),
                    Action::Store => {
                        self.push_store_group(&mut body, stride_stream, &mut last_load)
                    }
                    Action::Branch => {
                        let bias = self.branch_bias();
                        let skip = self.rng.gen_range(1..4);
                        body.push(Template::SkipBranch { bias, skip });
                    }
                    Action::Fp => {
                        let t = self.fp_template();
                        body.push(t);
                    }
                    Action::Alu => {
                        let t = self.alu_template();
                        body.push(t);
                    }
                }
            }

            self.blocks.push(Block {
                base_pc: BASE_PC + b as u64 * BLOCK_PC_STRIDE,
                body,
            });
        }
    }

    /// Draws a static branch bias from the profile's entropy: low entropy produces
    /// strongly biased (predictable) branches, high entropy produces coin flips.
    fn branch_bias(&mut self) -> f64 {
        if self.rng.gen_bool(1.0 - self.profile.branch_entropy) {
            if self.rng.gen_bool(0.5) {
                0.04
            } else {
                0.96
            }
        } else {
            self.rng.gen_range(0.25..0.75)
        }
    }

    fn push_load_group(
        &mut self,
        body: &mut Vec<Template>,
        stride_stream: Option<u8>,
        last_load: &mut Option<(ArchReg, i64, MemWidth)>,
    ) {
        let roll: f64 = self.rng.gen();
        if roll < self.profile.chase_frac {
            // Pointer-chase group: a load whose (hashed, masked) result becomes the
            // next chase address — a load-to-load dependent, cache-hostile stream.
            let chase = ArchReg::new(R_CHASE);
            let dst = self.next_data_reg();
            let t1 = ArchReg::new(R_ADDR_TMP0 + 6);
            let t2 = ArchReg::new(R_ADDR_TMP0 + 7);
            body.push(Template::Plain(InstKind::Load {
                dst,
                base: chase,
                offset: 0,
                width: MemWidth::W8,
            }));
            body.push(Template::Plain(InstKind::IntAlu {
                op: AluKind::Mix,
                dst: t1,
                src1: dst,
                src2: ArchReg::new(R_SEED),
            }));
            body.push(Template::Plain(InstKind::IntAlu {
                op: AluKind::And,
                dst: t2,
                src1: t1,
                src2: ArchReg::new(R_MASK),
            }));
            body.push(Template::Plain(InstKind::IntAlu {
                op: AluKind::Add,
                dst: chase,
                src1: ArchReg::new(R_HEAP),
                src2: t2,
            }));
            *last_load = None;
        } else if roll < self.profile.chase_frac + self.profile.forwarding_frac {
            // Forwarding pair: a store to a fresh stack slot followed (a few
            // instructions later) by a load of the same slot.
            let offset = (self.rng.gen_range(0..STACK_REGION_BYTES / 8) * 8) as i64;
            let width = MemWidth::W8;
            let base = ArchReg::new(R_SP);
            let store = self.store_template(base, offset, width);
            let gap = self.rng.gen_range(0..4usize);
            let insert_at = body.len().saturating_sub(gap);
            body.insert(insert_at, store);
            body.push(self.load_template(base, offset, width));
            *last_load = Some((base, offset, width));
        } else if roll
            < self.profile.chase_frac + self.profile.forwarding_frac + self.profile.redundancy_frac
        {
            // Redundant load: repeat the previous load's base+offset (or fall back to a
            // fresh load if there is none yet).
            let (base, offset, width) = last_load.unwrap_or_else(|| {
                let (b, o) = (ArchReg::new(R_GP), (self.rng.gen_range(0..64) * 8) as i64);
                (b, o, MemWidth::W8)
            });
            body.push(self.load_template(base, offset, width));
            *last_load = Some((base, offset, width));
        } else {
            let (base, offset) = self.region_address(stride_stream);
            let width = self.width();
            body.push(self.load_template(base, offset, width));
            *last_load = Some((base, offset, width));
        }
    }

    fn push_store_group(
        &mut self,
        body: &mut Vec<Template>,
        stride_stream: Option<u8>,
        last_load: &mut Option<(ArchReg, i64, MemWidth)>,
    ) {
        let (base, offset) = self.region_address(stride_stream);
        let width = self.width();
        if self.rng.gen_bool(self.profile.silent_store_frac) {
            // Silent store: reload the location and store the same value back.
            let dst = self.next_data_reg();
            body.push(Template::Plain(InstKind::Load {
                dst,
                base,
                offset,
                width,
            }));
            body.push(Template::Plain(InstKind::Store {
                data: dst,
                base,
                offset,
                width,
            }));
            *last_load = Some((base, offset, width));
        } else {
            body.push(self.store_template(base, offset, width));
        }
    }

    /// The architectural prologue: initialise the base/mask/stride registers.
    fn prologue(&mut self) -> Vec<InstKind> {
        let footprint_bytes = (self.profile.footprint_words * 8).next_power_of_two();
        let mut p = vec![
            InstKind::LoadImm {
                dst: ArchReg::new(R_SP),
                imm: 0x7FFF_0000,
            },
            InstKind::LoadImm {
                dst: ArchReg::new(R_GP),
                imm: 0x1000_0000,
            },
            InstKind::LoadImm {
                dst: ArchReg::new(R_HEAP),
                imm: 0x2000_0000,
            },
            InstKind::LoadImm {
                dst: ArchReg::new(R_MASK),
                imm: footprint_bytes - 8,
            },
            InstKind::LoadImm {
                dst: ArchReg::new(R_SEED),
                imm: 0x9E37_79B9,
            },
            InstKind::LoadImm {
                dst: ArchReg::new(R_CHASE),
                imm: 0x2000_0000,
            },
        ];
        for s in 0..NUM_STRIDE_STREAMS {
            p.push(InstKind::LoadImm {
                dst: ArchReg::new(R_INDEX0 + s),
                imm: (s as u64) * 1024,
            });
            p.push(InstKind::LoadImm {
                dst: ArchReg::new(R_STRIDE0 + s),
                imm: 8 << (s * 2), // strides of 8, 32, 128, 512 bytes
            });
            p.push(InstKind::LoadImm {
                dst: ArchReg::new(R_ADDR_TMP0 + s),
                imm: 0x2000_0000 + (s as u64) * 4096,
            });
        }
        // Give the data registers initial values.
        for d in 0..NUM_DATA_REGS {
            p.push(InstKind::LoadImm {
                dst: ArchReg::new(R_DATA0 + d),
                imm: 0x1111_0000 + d as u64 * 0x97,
            });
        }
        p
    }

    fn sample_trip_count(&mut self) -> u32 {
        let mean = self.profile.mean_trip_count.max(1);
        // Geometric-ish: 1 + Exp-like sample around the mean.
        let u: f64 = self.rng.gen_range(0.0f64..1.0).max(1e-9);
        let trips = 1.0 + (-(u.ln())) * (mean as f64 - 0.5).max(0.5);
        trips.round().clamp(1.0, 16.0 * mean as f64) as u32
    }

    fn pick_block(&mut self) -> usize {
        // 70% of visits go to the "hot" quarter of the blocks, producing realistic
        // static code reuse for the PC-indexed predictors.
        let n = self.blocks.len();
        if self.rng.gen_bool(0.7) {
            self.rng.gen_range(0..n.div_ceil(4))
        } else {
            self.rng.gen_range(0..n)
        }
    }

    /// Emits approximately `num_insts` dynamic instructions.
    pub fn generate(mut self, num_insts: usize) -> Program {
        let mut oracle = ArchState::new();
        let capacity = num_insts
            .checked_add(64)
            .expect("num_insts leaves no room for the generator's epilogue");
        let mut trace: Vec<DynInst> = Vec::with_capacity(capacity);
        let mut seq: u64 = 0;

        let push = |oracle: &mut ArchState,
                    trace: &mut Vec<DynInst>,
                    seq: &mut u64,
                    pc: Pc,
                    kind: InstKind| {
            let mut inst = DynInst::new(*seq, pc, kind);
            oracle.execute(&mut inst);
            *seq += 1;
            trace.push(inst);
        };

        // Prologue at its own PC range.
        for (i, kind) in self.prologue().into_iter().enumerate() {
            push(
                &mut oracle,
                &mut trace,
                &mut seq,
                0x0010_0000 + 4 * i as u64,
                kind,
            );
        }

        while trace.len() < num_insts {
            let block_idx = self.pick_block();
            let trips = self.sample_trip_count();
            for trip in 0..trips {
                // Walk the block body, honouring skip branches.
                let block_len = self.blocks[block_idx].body.len();
                let mut i = 0usize;
                while i < block_len {
                    let (pc, template) = {
                        let block = &self.blocks[block_idx];
                        (block.pc_of(i), block.body[i].clone())
                    };
                    match template {
                        Template::Plain(kind) => {
                            push(&mut oracle, &mut trace, &mut seq, pc, kind);
                            i += 1;
                        }
                        Template::SkipBranch { bias, skip } => {
                            let taken = self.rng.gen_bool(bias);
                            let skip_to = (i + 1 + skip).min(block_len);
                            let block = &self.blocks[block_idx];
                            let info = BranchInfo {
                                taken,
                                target: block.pc_of(skip_to),
                                fallthrough: block.pc_of(i + 1),
                            };
                            let src1 = self.src_data_reg();
                            push(
                                &mut oracle,
                                &mut trace,
                                &mut seq,
                                pc,
                                InstKind::Branch {
                                    kind: BranchKind::Conditional,
                                    info,
                                    src1,
                                },
                            );
                            i = if taken { skip_to } else { i + 1 };
                        }
                    }
                }
                // Loop-back branch: taken until the final trip.
                let block = &self.blocks[block_idx];
                let taken = trip + 1 < trips;
                let info = BranchInfo {
                    taken,
                    target: block.base_pc,
                    fallthrough: block.loop_branch_pc() + 4,
                };
                let pc = block.loop_branch_pc();
                let src1 = self.src_data_reg();
                push(
                    &mut oracle,
                    &mut trace,
                    &mut seq,
                    pc,
                    InstKind::Branch {
                        kind: BranchKind::Conditional,
                        info,
                        src1,
                    },
                );
                if trace.len() >= num_insts {
                    break;
                }
            }
        }

        Program::new(self.profile.name.clone(), trace)
    }
}

#[cfg(test)]
mod tests {
    use crate::WorkloadProfile;
    use svw_isa::OpClass;

    #[test]
    fn generates_requested_length_approximately() {
        let p = WorkloadProfile::quicktest();
        let prog = p.generate(5_000, 42);
        assert!(prog.len() >= 5_000);
        assert!(prog.len() < 5_600);
    }

    #[test]
    fn every_memory_instruction_is_resolved_and_aligned() {
        let p = WorkloadProfile::quicktest();
        let prog = p.generate(8_000, 11);
        for inst in prog.instructions() {
            if inst.class().is_mem() {
                let m = inst.mem_access();
                assert_eq!(
                    m.addr % m.width.bytes(),
                    0,
                    "unaligned access at pc {:#x}",
                    inst.pc
                );
            }
        }
    }

    #[test]
    fn branch_targets_are_consistent() {
        let p = WorkloadProfile::quicktest();
        let prog = p.generate(8_000, 13);
        for inst in prog.instructions() {
            if let Some((_, info)) = inst.branch_info() {
                assert_ne!(info.target, 0);
                assert_eq!(info.fallthrough, inst.pc + 4);
            }
        }
    }

    #[test]
    fn static_code_is_reused() {
        // The same PCs should recur many times (loops), otherwise PC-indexed
        // predictors (store-sets, steering, IT) could never train.
        let p = WorkloadProfile::quicktest();
        let prog = p.generate(10_000, 17);
        let mut pcs = std::collections::HashMap::new();
        for inst in prog.instructions() {
            *pcs.entry(inst.pc).or_insert(0u64) += 1;
        }
        let static_count = pcs.len();
        assert!(
            static_count < 1500,
            "too many static instructions: {static_count}"
        );
        let max_reuse = pcs.values().copied().max().unwrap();
        assert!(
            max_reuse > 20,
            "hot instructions should repeat, max reuse {max_reuse}"
        );
    }

    #[test]
    fn mcf_misses_more_than_gzip() {
        // Sanity-check the footprint knob: the mcf-like profile touches far more
        // distinct words than the gzip-like profile.
        let mcf = WorkloadProfile::by_name("mcf").unwrap().generate(20_000, 5);
        let gzip = WorkloadProfile::by_name("gzip")
            .unwrap()
            .generate(20_000, 5);
        let distinct = |prog: &svw_isa::Program| {
            prog.instructions()
                .iter()
                .filter(|i| i.class() == OpClass::Load)
                .map(|i| i.mem_access().addr & !0x3F)
                .collect::<std::collections::HashSet<_>>()
                .len()
        };
        assert!(distinct(&mcf) > distinct(&gzip));
    }

    #[test]
    fn silent_stores_are_generated() {
        let p = WorkloadProfile::quicktest();
        let prog = p.generate(20_000, 23);
        assert!(prog.stats().silent_stores > 0);
    }
}

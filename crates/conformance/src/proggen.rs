//! Seeded random ISA program generator.
//!
//! Programs are generated at the [`Op`] level as a sequence of structured
//! blocks, so every branch target and reconvergence point is valid by
//! construction and [`Program::new`]'s validation always passes. Crucially,
//! generated programs are **schedule-independent**: every store goes to a
//! per-thread-disjoint slot, shared memory is written only before the
//! first barrier and read cross-thread only after it, and control flow
//! depends only on per-thread inputs. That makes the functional result a
//! pure function of the program and its inputs — the invariant the
//! differential and metamorphic checks in [`crate::isadiff`] rely on.

use emerald_common::rng::Xorshift64;
use emerald_isa::op::{AluKind, CmpOp, Instr, MemSpace, Op, UnaryKind};
use emerald_isa::reg::{input, DType, Operand, PReg, Reg, Special};
use emerald_isa::Program;

/// Per-thread output slots in the global out region (the last one holds
/// the register checksum).
pub(crate) const OUT_SLOTS: usize = 8;
/// Bytes of shared scratchpad per thread (two words).
pub(crate) const SHARED_STRIDE: u32 = 8;

// Fixed register allocation. r0–r7 hold the prologue-computed context,
// r8..r8+SCRATCH are the random ops' working set, TMP/ACC serve address
// computation and the checksum.
const R_GID: Reg = Reg(0);
const R_OUT: Reg = Reg(1); // this thread's out-slot base address
const R_IN: Reg = Reg(2); // input region base
const R_SH: Reg = Reg(3); // this thread's shared-slot base address
const R_TID: Reg = Reg(4);
const R_LANE: Reg = Reg(5);
const SCRATCH_BASE: u8 = 8;
const SCRATCH: u8 = 8; // r8..r15
const R_TMP: Reg = Reg(16);
const R_ACC: Reg = Reg(20);

/// A generated conformance case: the program plus its launch geometry.
#[derive(Debug, Clone)]
pub struct GenProgram {
    /// The instruction sequence (always valid; see [`GenProgram::program`]).
    pub instrs: Vec<Instr>,
    /// Total threads in the launch.
    pub threads: usize,
    /// Threads per CTA.
    pub cta_size: usize,
    /// Words in the read-only input region (power of two).
    pub in_words: usize,
}

impl GenProgram {
    /// Builds the validated [`Program`].
    pub fn program(&self) -> Program {
        Program::new("conformance", self.instrs.clone()).expect("generated program is valid")
    }

    /// Shared scratchpad bytes per CTA.
    pub fn shared_bytes(&self) -> u32 {
        self.cta_size as u32 * SHARED_STRIDE
    }

    /// Bytes of the per-thread output region.
    pub(crate) fn out_bytes(&self) -> usize {
        self.threads * OUT_SLOTS * 4
    }

    /// Instructions that are not `Nop` (the shrinker's size metric).
    pub fn live_instrs(&self) -> usize {
        self.instrs
            .iter()
            .filter(|i| !matches!(i.op, Op::Nop))
            .count()
    }

    /// One-line-per-instruction dump for divergence reports.
    pub fn dump(&self) -> String {
        let mut s = format!(
            "; threads={} cta_size={} in_words={}\n",
            self.threads, self.cta_size, self.in_words
        );
        for (pc, i) in self.instrs.iter().enumerate() {
            s.push_str(&format!("{pc:3}: {i}\n"));
        }
        s
    }
}

struct Gen<'r> {
    rng: &'r mut Xorshift64,
    instrs: Vec<Instr>,
    in_words: usize,
    cta_size: usize,
    /// Shared writes are only legal before the first barrier; cross-thread
    /// shared reads only after it (writers are then quiesced).
    past_barrier: bool,
}

impl Gen<'_> {
    fn push(&mut self, op: Op) {
        self.instrs.push(Instr::new(op));
    }

    fn scratch(&mut self) -> Reg {
        Reg(SCRATCH_BASE + self.rng.below(SCRATCH as u64) as u8)
    }

    /// A read operand: mostly scratch registers, sometimes immediates,
    /// context registers or specials.
    fn operand(&mut self, ty: DType) -> Operand {
        match self.rng.below(8) {
            0 => match ty {
                DType::F32 => Operand::ImmF(self.rng.next_f32() * 16.0 - 8.0),
                _ => Operand::ImmI(self.rng.below(1 << 10) as u32),
            },
            1 => Operand::Special(Special::LaneId),
            2 => Operand::Reg([R_GID, R_TID, R_LANE][self.rng.below(3) as usize]),
            _ => Operand::Reg(self.scratch()),
        }
    }

    fn int_ty(&mut self) -> DType {
        if self.rng.chance(0.5) {
            DType::U32
        } else {
            DType::S32
        }
    }

    /// One random compute op writing a scratch register.
    fn compute_op(&mut self) {
        let d = self.scratch();
        match self.rng.below(10) {
            0..=3 => {
                // Integer ALU (bit ops and shifts are integer-only).
                let kind = [
                    AluKind::Add,
                    AluKind::Sub,
                    AluKind::Mul,
                    AluKind::Div,
                    AluKind::Min,
                    AluKind::Max,
                    AluKind::And,
                    AluKind::Or,
                    AluKind::Xor,
                    AluKind::Shl,
                    AluKind::Shr,
                ][self.rng.below(11) as usize];
                let ty = self.int_ty();
                let a = self.operand(ty);
                let b = self.operand(ty);
                self.push(Op::Alu { kind, ty, d, a, b });
            }
            4..=5 => {
                // Float ALU.
                let kind = [
                    AluKind::Add,
                    AluKind::Sub,
                    AluKind::Mul,
                    AluKind::Div,
                    AluKind::Min,
                    AluKind::Max,
                ][self.rng.below(6) as usize];
                let a = self.operand(DType::F32);
                let b = self.operand(DType::F32);
                self.push(Op::Alu {
                    kind,
                    ty: DType::F32,
                    d,
                    a,
                    b,
                });
            }
            6 => {
                let ty = if self.rng.chance(0.5) {
                    DType::F32
                } else {
                    self.int_ty()
                };
                let (a, b, c) = (self.operand(ty), self.operand(ty), self.operand(ty));
                self.push(Op::Mad { ty, d, a, b, c });
            }
            7 => {
                let (kind, ty) = if self.rng.chance(0.5) {
                    let k = [
                        UnaryKind::Neg,
                        UnaryKind::Abs,
                        UnaryKind::Rcp,
                        UnaryKind::Sqrt,
                        UnaryKind::Rsqrt,
                        UnaryKind::Floor,
                        UnaryKind::Frac,
                        UnaryKind::Ex2,
                        UnaryKind::Lg2,
                        UnaryKind::Sin,
                        UnaryKind::Cos,
                    ][self.rng.below(11) as usize];
                    (k, DType::F32)
                } else {
                    let k = [UnaryKind::Neg, UnaryKind::Abs][self.rng.below(2) as usize];
                    (k, DType::S32)
                };
                let a = self.operand(ty);
                self.push(Op::Unary { kind, ty, d, a });
            }
            8 => {
                let tys = [DType::U32, DType::S32, DType::F32];
                let from = tys[self.rng.below(3) as usize];
                let to = tys[self.rng.below(3) as usize];
                let a = self.operand(from);
                self.push(Op::Cvt { d, a, from, to });
            }
            _ => {
                // SetP + Sel pair on p3.
                let ty = self.int_ty();
                let cmp = [
                    CmpOp::Eq,
                    CmpOp::Ne,
                    CmpOp::Lt,
                    CmpOp::Le,
                    CmpOp::Gt,
                    CmpOp::Ge,
                ][self.rng.below(6) as usize];
                let a = self.operand(ty);
                let b = self.operand(ty);
                self.push(Op::SetP {
                    p: PReg(3),
                    cmp,
                    ty,
                    a,
                    b,
                });
                let x = self.operand(DType::U32);
                let y = self.operand(DType::U32);
                self.push(Op::Sel {
                    d,
                    p: PReg(3),
                    a: x,
                    b: y,
                });
            }
        }
    }

    /// Straight-line run of compute ops, occasionally predicated: a guard
    /// changes which lanes write, but each lane's behaviour still depends
    /// only on its own state.
    fn block_straight(&mut self) {
        let n = 1 + self.rng.below(5);
        for _ in 0..n {
            if self.rng.chance(0.2) {
                let ty = self.int_ty();
                let a = self.operand(ty);
                let b = self.operand(ty);
                self.push(Op::SetP {
                    p: PReg(1),
                    cmp: CmpOp::Lt,
                    ty,
                    a,
                    b,
                });
                let d = self.scratch();
                let x = self.operand(DType::U32);
                self.instrs.push(Instr::guarded(
                    PReg(1),
                    self.rng.chance(0.5),
                    Op::Mov { d, a: x },
                ));
            } else {
                self.compute_op();
            }
        }
    }

    /// Load a word from the read-only input region at a data-dependent
    /// (masked) index.
    fn block_global_load(&mut self) {
        let s = self.scratch();
        let mask = (self.in_words - 1) as u32;
        self.push(Op::Alu {
            kind: AluKind::And,
            ty: DType::U32,
            d: R_TMP,
            a: Operand::Reg(s),
            b: Operand::ImmI(mask),
        });
        self.push(Op::Alu {
            kind: AluKind::Shl,
            ty: DType::U32,
            d: R_TMP,
            a: Operand::Reg(R_TMP),
            b: Operand::ImmI(2),
        });
        self.push(Op::Alu {
            kind: AluKind::Add,
            ty: DType::U32,
            d: R_TMP,
            a: Operand::Reg(R_TMP),
            b: Operand::Reg(R_IN),
        });
        let d = self.scratch();
        self.push(Op::Ld {
            space: MemSpace::Global,
            d,
            addr: R_TMP,
            offset: 0,
        });
    }

    /// Store a scratch register to one of this thread's own global slots
    /// (slot `OUT_SLOTS - 1` is reserved for the epilogue checksum).
    fn block_global_store(&mut self) {
        let s = self.scratch();
        let k = self.rng.below((OUT_SLOTS - 1) as u64) as i32;
        self.push(Op::St {
            space: MemSpace::Global,
            a: Operand::Reg(s),
            addr: R_OUT,
            offset: k * 4,
        });
    }

    /// Shared-memory traffic. Before the first barrier: write/read this
    /// thread's own slot. After it: read the neighbour's slot (writers have
    /// quiesced, so the read is schedule-independent).
    fn block_shared(&mut self) {
        if !self.past_barrier && self.rng.chance(0.5) {
            let s = self.scratch();
            self.push(Op::St {
                space: MemSpace::Shared,
                a: Operand::Reg(s),
                addr: R_SH,
                offset: 4,
            });
        } else if self.past_barrier && self.rng.chance(0.6) {
            // Neighbour slot: tid+1, wrapped to 0 at the CTA edge.
            self.push(Op::Alu {
                kind: AluKind::Add,
                ty: DType::U32,
                d: R_TMP,
                a: Operand::Reg(R_TID),
                b: Operand::ImmI(1),
            });
            self.push(Op::SetP {
                p: PReg(3),
                cmp: CmpOp::Ge,
                ty: DType::U32,
                a: Operand::Reg(R_TMP),
                b: Operand::ImmI(self.cta_size as u32),
            });
            self.push(Op::Sel {
                d: R_TMP,
                p: PReg(3),
                a: Operand::ImmI(0),
                b: Operand::Reg(R_TMP),
            });
            self.push(Op::Alu {
                kind: AluKind::Shl,
                ty: DType::U32,
                d: R_TMP,
                a: Operand::Reg(R_TMP),
                b: Operand::ImmI(3),
            });
            self.push(Op::Alu {
                kind: AluKind::Add,
                ty: DType::U32,
                d: R_TMP,
                a: Operand::Reg(R_TMP),
                b: Operand::Special(Special::Input(3)),
            });
            let d = self.scratch();
            self.push(Op::Ld {
                space: MemSpace::Shared,
                d,
                addr: R_TMP,
                offset: 0,
            });
        } else {
            let off = if self.rng.chance(0.5) { 0 } else { 4 };
            let d = self.scratch();
            self.push(Op::Ld {
                space: MemSpace::Shared,
                d,
                addr: R_SH,
                offset: off,
            });
        }
    }

    /// Structured if/else on a per-thread condition. Layout:
    ///
    /// ```text
    ///       setp p0, <cond>
    ///       @[!]p0 bra ELSE, reconv=RECONV   (diverges on mixed lanes)
    ///       <then ops>
    ///       bra RECONV, reconv=RECONV        (uniform jump over else)
    /// ELSE: <else ops>
    /// RECONV: …
    /// ```
    fn block_branch(&mut self) {
        let ty = self.int_ty();
        let cmp = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Ge][self.rng.below(4) as usize];
        let a = Operand::Reg([R_LANE, R_GID, R_TID][self.rng.below(3) as usize]);
        let b = if self.rng.chance(0.7) {
            Operand::ImmI(self.rng.below(40) as u32)
        } else {
            Operand::Reg(self.scratch())
        };
        self.push(Op::SetP {
            p: PReg(0),
            cmp,
            ty,
            a,
            b,
        });
        let negated = self.rng.chance(0.5);
        let bra_at = self.instrs.len();
        self.instrs.push(Instr::guarded(
            PReg(0),
            negated,
            Op::Bra {
                target: 0,
                reconv: 0,
            },
        ));
        let then_n = 1 + self.rng.below(3);
        for _ in 0..then_n {
            if self.rng.chance(0.3) {
                self.block_global_store();
            } else {
                self.compute_op();
            }
        }
        let jmp_at = self.instrs.len();
        self.push(Op::Bra {
            target: 0,
            reconv: 0,
        });
        let else_start = self.instrs.len();
        let else_n = 1 + self.rng.below(3);
        for _ in 0..else_n {
            self.compute_op();
        }
        let reconv = self.instrs.len();
        self.instrs[bra_at] = Instr::guarded(
            PReg(0),
            negated,
            Op::Bra {
                target: else_start,
                reconv,
            },
        );
        self.instrs[jmp_at] = Instr::new(Op::Bra {
            target: reconv,
            reconv,
        });
    }
}

/// Generates one random conformance case from the given RNG stream.
pub fn gen_program(rng: &mut Xorshift64) -> GenProgram {
    // The dispatcher pads the grid to whole CTAs, so `threads` is always a
    // CTA multiple; partial final warps come from the non-multiple-of-32
    // CTA sizes instead.
    let cta_size = [16, 32, 40, 64][rng.below(4) as usize];
    let ctas = 1 + rng.below(2) as usize;
    let threads = cta_size * ctas;
    let in_words = 256;
    let mut g = Gen {
        rng,
        instrs: Vec::new(),
        in_words,
        cta_size,
        past_barrier: false,
    };

    // Prologue: context registers, own shared slot seeded with gid, scratch
    // registers seeded with random immediates.
    g.push(Op::Mov {
        d: R_GID,
        a: Operand::Special(Special::Input(input::ID as u8)),
    });
    g.push(Op::Mov {
        d: R_TID,
        a: Operand::Special(Special::Input(input::TID_IN_CTA as u8)),
    });
    g.push(Op::Mov {
        d: R_LANE,
        a: Operand::Special(Special::LaneId),
    });
    g.push(Op::Mov {
        d: R_IN,
        a: Operand::Special(Special::Param(0)),
    });
    g.push(Op::Alu {
        kind: AluKind::Shl,
        ty: DType::U32,
        d: R_TMP,
        a: Operand::Reg(R_GID),
        b: Operand::ImmI((OUT_SLOTS * 4).trailing_zeros()),
    });
    g.push(Op::Alu {
        kind: AluKind::Add,
        ty: DType::U32,
        d: R_OUT,
        a: Operand::Reg(R_TMP),
        b: Operand::Special(Special::Param(1)),
    });
    g.push(Op::Alu {
        kind: AluKind::Shl,
        ty: DType::U32,
        d: R_TMP,
        a: Operand::Reg(R_TID),
        b: Operand::ImmI(SHARED_STRIDE.trailing_zeros()),
    });
    g.push(Op::Alu {
        kind: AluKind::Add,
        ty: DType::U32,
        d: R_SH,
        a: Operand::Reg(R_TMP),
        b: Operand::Special(Special::Input(3)),
    });
    g.push(Op::St {
        space: MemSpace::Shared,
        a: Operand::Reg(R_GID),
        addr: R_SH,
        offset: 0,
    });
    for i in 0..SCRATCH {
        let a = if g.rng.chance(0.3) {
            Operand::ImmF(g.rng.next_f32() * 8.0)
        } else {
            Operand::ImmI(g.rng.next_u32() & 0xffff)
        };
        g.push(Op::Mov {
            d: Reg(SCRATCH_BASE + i),
            a,
        });
    }

    // Body: random structured blocks; at most one barrier (flipping the
    // shared-memory phase from write-own to read-neighbour).
    let blocks = 2 + g.rng.below(5);
    let mut barrier_done = false;
    for _ in 0..blocks {
        match g.rng.below(6) {
            0 => g.block_straight(),
            1 => g.block_global_load(),
            2 => g.block_global_store(),
            3 => g.block_shared(),
            4 => g.block_branch(),
            _ => {
                if !barrier_done {
                    g.push(Op::Bar);
                    g.past_barrier = true;
                    barrier_done = true;
                    g.block_shared();
                } else {
                    g.block_straight();
                }
            }
        }
    }

    // Epilogue: xor-checksum every scratch register into the reserved
    // output slot, so any register divergence becomes a memory divergence.
    g.push(Op::Mov {
        d: R_ACC,
        a: Operand::ImmI(0),
    });
    for i in 0..SCRATCH {
        g.push(Op::Alu {
            kind: AluKind::Xor,
            ty: DType::U32,
            d: R_ACC,
            a: Operand::Reg(R_ACC),
            b: Operand::Reg(Reg(SCRATCH_BASE + i)),
        });
    }
    g.push(Op::St {
        space: MemSpace::Global,
        a: Operand::Reg(R_ACC),
        addr: R_OUT,
        offset: ((OUT_SLOTS - 1) * 4) as i32,
    });
    g.push(Op::Exit);

    let gp = GenProgram {
        instrs: g.instrs,
        threads: threads.max(1),
        cta_size,
        in_words,
    };
    debug_assert!(Program::new("conformance", gp.instrs.clone()).is_ok());
    gp
}

/// Shrink candidates for a failing case: each non-`Nop`, non-`Exit` body
/// instruction replaced by `Nop` (keeping branch indices stable), plus
/// reduced launch geometry (one CTA fewer, or a halved CTA). Every
/// candidate is still a valid, schedule-independent program.
pub(crate) fn shrink_candidates(gp: &GenProgram) -> Vec<GenProgram> {
    let mut out = Vec::new();
    if gp.threads > gp.cta_size {
        let mut c = gp.clone();
        c.threads = gp.threads - gp.cta_size;
        out.push(c);
    } else if gp.cta_size > 8 {
        // The CTA-size immediate baked into neighbour-slot wrapping goes
        // stale, but unwritten slots read as deterministic zeros, so the
        // candidate stays schedule-independent.
        let mut c = gp.clone();
        c.cta_size = gp.cta_size / 2;
        c.threads = c.cta_size;
        out.push(c);
    }
    for (i, instr) in gp.instrs.iter().enumerate() {
        if matches!(instr.op, Op::Nop | Op::Exit) {
            continue;
        }
        let mut c = gp.clone();
        c.instrs[i] = Instr::new(Op::Nop);
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use emerald_common::check::check_n;

    #[test]
    fn generated_programs_are_always_valid() {
        check_n("proggen_valid", 128, |rng| {
            let gp = gen_program(rng);
            let p = gp.program();
            assert!(p.len() > 10);
            assert!(gp.threads >= 1 && gp.threads <= 2 * 64);
            assert!(p.regs_used() <= 64);
        });
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let mut a = Xorshift64::new(0x51ed);
        let mut b = Xorshift64::new(0x51ed);
        let (pa, pb) = (gen_program(&mut a), gen_program(&mut b));
        assert_eq!(pa.dump(), pb.dump());
        assert_eq!(pa.threads, pb.threads);
    }

    #[test]
    fn shrink_candidates_stay_valid() {
        let mut rng = Xorshift64::new(0xc0de);
        let gp = gen_program(&mut rng);
        let cands = shrink_candidates(&gp);
        assert!(!cands.is_empty());
        for c in &cands {
            assert!(Program::new("shrunk", c.instrs.clone()).is_ok());
            assert!(
                c.live_instrs() < gp.live_instrs() || c.threads < gp.threads,
                "candidate not smaller"
            );
        }
    }
}

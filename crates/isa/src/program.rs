//! Shader/kernel programs and static validation.

use crate::op::{Instr, LatencyClass, Op};
use crate::reg::{NUM_PARAMS, NUM_PREDS};
use std::fmt;

/// What the timing model asks about an instruction every cycle, decoded
/// once when the [`Program`] is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decoded {
    /// Registers the instruction reads or writes (bit `i` = `ri`): it may
    /// not issue while any of them has a write in flight.
    pub hazard: u64,
    /// Registers the instruction writes.
    pub dst: u64,
    /// Functional-unit latency class.
    pub class: LatencyClass,
}

/// A validated, executable instruction sequence.
///
/// Programs are straight-line instruction arrays; control flow uses
/// instruction indices (resolved from labels by the assembler).
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    name: String,
    instrs: Vec<Instr>,
    /// Per-pc decode, parallel to `instrs`.
    decoded: Vec<Decoded>,
    regs_used: usize,
    inputs_used: usize,
}

/// Error produced when validating a [`Program`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// The program has no instructions.
    Empty,
    /// No `exit` is reachable (specifically: the program lacks any `exit`).
    NoExit,
    /// A register index is out of range at the given instruction.
    BadReg(usize),
    /// A predicate index is out of range at the given instruction.
    BadPred(usize),
    /// A parameter index is out of range at the given instruction.
    BadParam(usize),
    /// A branch target or reconvergence index is out of range.
    BadBranch(usize),
    /// An `exit` instruction carries a guard, which is unsupported.
    GuardedExit(usize),
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::Empty => f.write_str("program is empty"),
            ProgramError::NoExit => f.write_str("program has no exit instruction"),
            ProgramError::BadReg(i) => write!(f, "register index out of range at #{i}"),
            ProgramError::BadPred(i) => write!(f, "predicate index out of range at #{i}"),
            ProgramError::BadParam(i) => write!(f, "parameter index out of range at #{i}"),
            ProgramError::BadBranch(i) => write!(f, "branch target out of range at #{i}"),
            ProgramError::GuardedExit(i) => write!(f, "guarded exit not supported at #{i}"),
        }
    }
}

impl std::error::Error for ProgramError {}

impl Program {
    /// Validates and wraps an instruction sequence.
    ///
    /// # Errors
    ///
    /// Returns a [`ProgramError`] if any instruction references an
    /// out-of-range register/predicate/parameter, any branch index is out of
    /// bounds, the program is empty, or no `exit` exists.
    pub fn new(name: impl Into<String>, instrs: Vec<Instr>) -> Result<Self, ProgramError> {
        let (decoded, inputs) = Self::decode(&instrs)?;
        let touched = decoded.iter().fold(0, |m, d| m | d.hazard);
        Ok(Self {
            name: name.into(),
            instrs,
            decoded,
            regs_used: (u64::BITS - touched.leading_zeros()) as usize,
            inputs_used: (u32::BITS - inputs.leading_zeros()) as usize,
        })
    }

    /// Validates every instruction and returns the per-pc decode plus the
    /// launch inputs the program reads (bit `k` = `%inputk`). An
    /// instruction's masks are formed only once [`Op::reg_masks`] has
    /// vouched for its registers, so no shift ever sees an index ≥ 64.
    fn decode(instrs: &[Instr]) -> Result<(Vec<Decoded>, u32), ProgramError> {
        use crate::reg::{input, Operand, Special, NUM_INPUTS};
        if instrs.is_empty() {
            return Err(ProgramError::Empty);
        }
        if !instrs.iter().any(|i| i.op == Op::Exit) {
            return Err(ProgramError::NoExit);
        }
        let mut decoded = Vec::with_capacity(instrs.len());
        // `ztest`, `blend` and `fbwrite` address the fragment's pixel.
        let frag_xy = 1 << input::FRAG_X | 1 << input::FRAG_Y;
        let mut inputs = 0u32;
        for (idx, instr) in instrs.iter().enumerate() {
            if let Some((p, _)) = instr.guard {
                if p.0 as usize >= NUM_PREDS {
                    return Err(ProgramError::BadPred(idx));
                }
            }
            let (src, dst) = instr.op.reg_masks().ok_or(ProgramError::BadReg(idx))?;
            let operands: &[&Operand] = match &instr.op {
                Op::Mov { a, .. } | Op::Unary { a, .. } | Op::Cvt { a, .. } | Op::St { a, .. } => {
                    &[a]
                }
                Op::Alu { a, b, .. } | Op::SetP { a, b, .. } | Op::Sel { a, b, .. } => &[a, b],
                Op::Mad { a, b, c, .. } => &[a, b, c],
                Op::Ztest { .. } | Op::Blend { .. } | Op::FbWrite { .. } => {
                    inputs |= frag_xy;
                    &[]
                }
                _ => &[],
            };
            for o in operands {
                match o {
                    Operand::Special(Special::Param(k)) if *k as usize >= NUM_PARAMS => {
                        return Err(ProgramError::BadParam(idx))
                    }
                    Operand::Special(Special::Input(k)) if *k as usize >= NUM_INPUTS => {
                        return Err(ProgramError::BadParam(idx))
                    }
                    Operand::Special(Special::Input(k)) => inputs |= 1 << k,
                    _ => {}
                }
            }
            match &instr.op {
                Op::Bra { target, reconv } if *target >= instrs.len() || *reconv > instrs.len() => {
                    return Err(ProgramError::BadBranch(idx));
                }
                Op::Exit if instr.guard.is_some() => {
                    return Err(ProgramError::GuardedExit(idx));
                }
                _ => {}
            }
            if let Op::SetP { p, .. } = &instr.op {
                if p.0 as usize >= NUM_PREDS {
                    return Err(ProgramError::BadPred(idx));
                }
            }
            if let Op::Sel { p, .. } = &instr.op {
                if p.0 as usize >= NUM_PREDS {
                    return Err(ProgramError::BadPred(idx));
                }
            }
            decoded.push(Decoded {
                hazard: src | dst,
                dst,
                class: instr.op.latency_class(),
            });
        }
        Ok((decoded, inputs))
    }

    /// The program's name (for stats and debugging).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The instruction at `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is out of range.
    pub fn instr(&self, pc: usize) -> &Instr {
        &self.instrs[pc]
    }

    /// Number of instructions: never 0, since [`Program::new`] rejects an
    /// empty program.
    #[allow(clippy::len_without_is_empty)] // an `is_empty` would always be false
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// The scoreboard masks and latency class of the instruction at `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is out of range.
    pub fn decoded(&self, pc: usize) -> Decoded {
        self.decoded[pc]
    }

    /// Highest general-purpose register index used, plus one (the per-thread
    /// register demand used for occupancy limits).
    pub fn regs_used(&self) -> usize {
        self.regs_used
    }

    /// Highest launch-input slot the program reads, plus one: every
    /// `%inputN` operand, and the fragment position that `ztest`, `blend`
    /// and `fbwrite` read implicitly. A warp's register file holds this
    /// many input rows; a launcher's write to a later slot is dropped.
    pub(crate) fn inputs_used(&self) -> usize {
        self.inputs_used
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, ".entry {}", self.name)?;
        for (i, instr) in self.instrs.iter().enumerate() {
            writeln!(f, "  #{i:<3} {instr}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::{DType, Operand, Reg, MAX_REGS};

    fn exit() -> Instr {
        Instr::new(Op::Exit)
    }

    #[test]
    fn empty_program_rejected() {
        assert_eq!(Program::new("t", vec![]).unwrap_err(), ProgramError::Empty);
    }

    #[test]
    fn missing_exit_rejected() {
        let p = Program::new("t", vec![Instr::new(Op::Nop)]);
        assert_eq!(p.unwrap_err(), ProgramError::NoExit);
    }

    #[test]
    fn branch_out_of_range_rejected() {
        let p = Program::new(
            "t",
            vec![
                Instr::new(Op::Bra {
                    target: 10,
                    reconv: 1,
                }),
                exit(),
            ],
        );
        assert_eq!(p.unwrap_err(), ProgramError::BadBranch(0));
    }

    #[test]
    fn guarded_exit_rejected() {
        let p = Program::new(
            "t",
            vec![Instr::guarded(crate::reg::PReg(0), false, Op::Exit)],
        );
        assert_eq!(p.unwrap_err(), ProgramError::GuardedExit(0));
    }

    #[test]
    fn regs_used_counts_tex_quad() {
        let p = Program::new(
            "t",
            vec![
                Instr::new(Op::Tex2d {
                    d: Reg(8),
                    u: Reg(0),
                    v: Reg(1),
                    sampler: 0,
                }),
                exit(),
            ],
        )
        .unwrap();
        assert_eq!(p.regs_used(), 12); // r8..r11 -> 12
    }

    #[test]
    fn decode_matches_the_instruction() {
        let p = crate::assemble("ld.global.b32 r3, [r1+0]\nblend r4\nexit").unwrap();
        let ld = p.decoded(0);
        assert_eq!((ld.hazard, ld.dst), (0b1010, 0b1000));
        assert_eq!(ld.class, LatencyClass::Mem);
        let blend = p.decoded(1);
        assert_eq!((blend.hazard, blend.dst), (0xf0, 0xf0));
        let exit = p.decoded(2);
        assert_eq!((exit.hazard, exit.dst), (0, 0));
        assert_eq!(exit.class, LatencyClass::Control);
        assert_eq!(p.regs_used(), 8);
    }

    /// Every register slot of every op, set to `r`; everything else in
    /// range. Pairs each op with the width of the group the slot starts.
    fn ops_with_register(r: u8) -> Vec<(Op, usize)> {
        use crate::op::{AluKind, CmpOp, MemSpace, UnaryKind};
        let (x, ok) = (Reg(r), Reg(0));
        let (xo, oko) = (Operand::Reg(x), Operand::Reg(ok));
        let (ty, p) = (DType::F32, crate::reg::PReg(0));
        let alu = |d, a, b| Op::Alu {
            kind: AluKind::Add,
            ty,
            d,
            a,
            b,
        };
        let mad = |d, a, b, c| Op::Mad { ty, d, a, b, c };
        let unary = |d, a| Op::Unary {
            kind: UnaryKind::Neg,
            ty,
            d,
            a,
        };
        let cvt = |d, a| Op::Cvt {
            d,
            a,
            from: ty,
            to: DType::S32,
        };
        let setp = |a, b| Op::SetP {
            p,
            cmp: CmpOp::Lt,
            ty,
            a,
            b,
        };
        let ld = |d, addr| Op::Ld {
            space: MemSpace::Global,
            d,
            addr,
            offset: 0,
        };
        let st = |a, addr| Op::St {
            space: MemSpace::Global,
            a,
            addr,
            offset: 0,
        };
        let tex = |d, u, v| Op::Tex2d {
            d,
            u,
            v,
            sampler: 0,
        };
        vec![
            (Op::Mov { d: x, a: oko }, 1),
            (Op::Mov { d: ok, a: xo }, 1),
            (alu(x, oko, oko), 1),
            (alu(ok, xo, oko), 1),
            (alu(ok, oko, xo), 1),
            (mad(x, oko, oko, oko), 1),
            (mad(ok, xo, oko, oko), 1),
            (mad(ok, oko, xo, oko), 1),
            (mad(ok, oko, oko, xo), 1),
            (unary(x, oko), 1),
            (unary(ok, xo), 1),
            (cvt(x, oko), 1),
            (cvt(ok, xo), 1),
            (setp(xo, oko), 1),
            (setp(oko, xo), 1),
            (
                Op::Sel {
                    d: x,
                    p,
                    a: oko,
                    b: oko,
                },
                1,
            ),
            (
                Op::Sel {
                    d: ok,
                    p,
                    a: xo,
                    b: oko,
                },
                1,
            ),
            (
                Op::Sel {
                    d: ok,
                    p,
                    a: oko,
                    b: xo,
                },
                1,
            ),
            (ld(x, ok), 1),
            (ld(ok, x), 1),
            (st(xo, ok), 1),
            (st(oko, x), 1),
            (tex(x, ok, ok), 4),
            (tex(ok, x, ok), 1),
            (tex(ok, ok, x), 1),
            (Op::Ztest { z: x, write: true }, 1),
            (Op::Blend { c: x }, 4),
            (Op::FbWrite { c: x }, 4),
        ]
    }

    #[test]
    fn out_of_range_register_is_an_error_in_every_slot() {
        for r in 60..=255u8 {
            for (op, width) in ops_with_register(r) {
                let shown = op.to_string();
                let got = Program::new("t", vec![Instr::new(op), exit()]).map(|_| ());
                let want = if r as usize + width <= MAX_REGS {
                    Ok(())
                } else {
                    Err(ProgramError::BadReg(0))
                };
                assert_eq!(got, want, "`{shown}`");
            }
        }
    }

    #[test]
    fn assembler_reports_bad_register_groups() {
        use crate::asm::AsmError;
        for src in [
            "tex2d r253, [r0, r1], s0\nexit",
            "tex2d r61, [r0, r1], s0\nexit",
            "blend r254\nexit",
            "blend r62\nexit",
            "fbwrite r255\nexit",
        ] {
            assert_eq!(
                crate::assemble(src).unwrap_err(),
                AsmError::Invalid(ProgramError::BadReg(0)),
                "{src}"
            );
        }
        assert!(crate::assemble("tex2d r60, [r0, r1], s0\nblend r60\nexit").is_ok());
    }

    #[test]
    fn inputs_used_counts_every_read() {
        let used = |src: &str| crate::assemble(src).unwrap().inputs_used();
        assert_eq!(
            used("mov.b32 r0, %laneid\nadd.u32 r1, r0, %param3\nexit"),
            0
        );
        // Implicit fragment-position reads: x and y are slots 0 and 1.
        assert_eq!(used("ztest r0\nexit"), 2);
        assert_eq!(used("blend r0\nexit"), 2);
        assert_eq!(used("fbwrite r0\nexit"), 2);
        // `%inputN` in each operand slot of each operand-reading op.
        for src in [
            "mov.b32 r0, %input5",
            "neg.f32 r0, %input5",
            "cvt.f32.s32 r0, %input5",
            "st.global.b32 [r0+0], %input5",
            "add.u32 r0, %input5, 1",
            "add.u32 r0, 1, %input5",
            "setp.lt.u32 p0, %input5, r1",
            "setp.lt.u32 p0, r1, %input5",
            "sel.b32 r0, p0, %input5, 1",
            "sel.b32 r0, p0, 1, %input5",
            "mad.f32 r0, %input5, 1.0, 2.0",
            "mad.f32 r0, 1.0, %input5, 2.0",
            "mad.f32 r0, 1.0, 2.0, %input5",
        ] {
            assert_eq!(used(&format!("{src}\nexit")), 6, "{src}");
        }
        // The highest slot counts, wherever it sits.
        assert_eq!(used("mov.b32 r0, %input15\nmov.b32 r1, %input2\nexit"), 16);
        assert_eq!(used("mov.b32 r0, %input3\nfbwrite r0\nexit"), 4);
    }

    #[test]
    fn valid_program_accessors() {
        let p = Program::new(
            "simple",
            vec![
                Instr::new(Op::Alu {
                    kind: crate::op::AluKind::Add,
                    ty: DType::F32,
                    d: Reg(1),
                    a: Operand::ImmF(1.0),
                    b: Operand::ImmF(2.0),
                }),
                exit(),
            ],
        )
        .unwrap();
        assert_eq!(p.name(), "simple");
        assert_eq!(p.len(), 2);
        assert!(p.to_string().contains("add.f32 r1"));
    }
}

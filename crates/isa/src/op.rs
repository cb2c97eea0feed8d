//! Instruction opcodes, address spaces and latency classes.

use crate::reg::{DType, Operand, PReg, Reg, MAX_REGS};
use std::fmt;

/// Two-operand ALU operation kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluKind {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (SFU-class latency).
    Div,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Bitwise AND (integer only).
    And,
    /// Bitwise OR (integer only).
    Or,
    /// Bitwise XOR (integer only).
    Xor,
    /// Logical shift left (integer only).
    Shl,
    /// Shift right (logical for `u32`, arithmetic for `s32`).
    Shr,
}

/// One-operand ALU operation kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryKind {
    /// Negation.
    Neg,
    /// Absolute value.
    Abs,
    /// Reciprocal (SFU).
    Rcp,
    /// Square root (SFU).
    Sqrt,
    /// Reciprocal square root (SFU).
    Rsqrt,
    /// Floor (f32).
    Floor,
    /// Fractional part (f32).
    Frac,
    /// Base-2 exponential (SFU).
    Ex2,
    /// Base-2 logarithm (SFU).
    Lg2,
    /// Sine (SFU).
    Sin,
    /// Cosine (SFU).
    Cos,
}

/// Comparison operators for `setp`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

/// Memory address spaces; each routes to a distinct L1 cache per Table 2 of
/// the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemSpace {
    /// Global memory: GPGPU data and pixel/color data (L1D).
    Global,
    /// Constants and uniforms (L1C).
    Const,
    /// Vertex attribute data (shares L1C, the "constant & vertex cache").
    Vertex,
    /// Per-core scratchpad shared memory (no cache; banked SRAM).
    Shared,
}

impl fmt::Display for MemSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MemSpace::Global => "global",
            MemSpace::Const => "const",
            MemSpace::Vertex => "vertex",
            MemSpace::Shared => "shared",
        })
    }
}

/// An executable operation. A full instruction is an `Op` plus an optional
/// predicate guard (see [`Instr`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `d = a` (raw 32-bit move; also reads specials).
    Mov {
        /// Destination register.
        d: Reg,
        /// Source operand.
        a: Operand,
    },
    /// `d = a <op> b` with the given type interpretation.
    Alu {
        /// Operation kind.
        kind: AluKind,
        /// Operand type.
        ty: DType,
        /// Destination register.
        d: Reg,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// Fused multiply-add `d = a * b + c`.
    Mad {
        /// Operand type.
        ty: DType,
        /// Destination register.
        d: Reg,
        /// Multiplicand.
        a: Operand,
        /// Multiplier.
        b: Operand,
        /// Addend.
        c: Operand,
    },
    /// `d = <op> a`.
    Unary {
        /// Operation kind.
        kind: UnaryKind,
        /// Operand type.
        ty: DType,
        /// Destination register.
        d: Reg,
        /// Source operand.
        a: Operand,
    },
    /// Type conversion `d = (to) a`.
    Cvt {
        /// Destination register.
        d: Reg,
        /// Source operand.
        a: Operand,
        /// Source type.
        from: DType,
        /// Destination type.
        to: DType,
    },
    /// Compare and set predicate: `p = a <cmp> b`.
    SetP {
        /// Destination predicate.
        p: PReg,
        /// Comparison operator.
        cmp: CmpOp,
        /// Operand type.
        ty: DType,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// Predicated select `d = p ? a : b`.
    Sel {
        /// Destination register.
        d: Reg,
        /// Selector predicate.
        p: PReg,
        /// Value when `p` is true.
        a: Operand,
        /// Value when `p` is false.
        b: Operand,
    },
    /// Load 32 bits: `d = [addr + offset]`.
    Ld {
        /// Address space.
        space: MemSpace,
        /// Destination register.
        d: Reg,
        /// Register holding the byte address.
        addr: Reg,
        /// Constant byte offset.
        offset: i32,
    },
    /// Store 32 bits: `[addr + offset] = a`.
    St {
        /// Address space.
        space: MemSpace,
        /// Value to store.
        a: Operand,
        /// Register holding the byte address.
        addr: Reg,
        /// Constant byte offset.
        offset: i32,
    },
    /// Branch to `target` for lanes whose guard holds; `reconv` is the
    /// immediate post-dominator where diverged paths rejoin (computed by the
    /// assembler and consumed by the hardware SIMT stack).
    Bra {
        /// Branch target instruction index.
        target: usize,
        /// Reconvergence instruction index.
        reconv: usize,
    },
    /// CTA-wide barrier (`bar.sync`); compute kernels only.
    Bar,
    /// Thread exit; the warp retires when all lanes have exited.
    Exit,
    /// Graphics: sample bound 2D texture `sampler` at `(u, v)` (bilinear),
    /// writing RGBA to `d, d+1, d+2, d+3`. Texel reads go through L1T.
    Tex2d {
        /// First destination register of the RGBA quad.
        d: Reg,
        /// Register with the `u` coordinate (f32).
        u: Reg,
        /// Register with the `v` coordinate (f32).
        v: Reg,
        /// Bound sampler slot.
        sampler: u8,
    },
    /// Graphics: per-fragment depth test against the depth buffer at this
    /// fragment's screen position (from the lane's launch inputs). Lanes
    /// that fail are killed. When `write` is set, passing lanes update the
    /// depth buffer. Depth traffic goes through L1Z.
    Ztest {
        /// Register holding the fragment depth (f32); usually a copy of
        /// `%input2` but shaders may modify depth before a late `ztest`.
        z: Reg,
        /// Whether passing lanes write the new depth.
        write: bool,
    },
    /// Graphics: read the destination pixel and alpha-blend the RGBA in
    /// `c..c+3` over it, leaving the blended color in the same registers.
    /// Color reads go through L1D.
    Blend {
        /// First register of the source RGBA quad.
        c: Reg,
    },
    /// Graphics: write the RGBA in `c..c+3` to the framebuffer at this
    /// fragment's screen position (through L1D).
    FbWrite {
        /// First register of the RGBA quad.
        c: Reg,
    },
    /// No operation (also used as a reconvergence anchor).
    Nop,
}

/// Functional-unit latency class of an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LatencyClass {
    /// Simple integer/float ALU.
    Alu,
    /// Special-function unit (div, sqrt, transcendentals).
    Sfu,
    /// Memory pipeline (actual latency decided by the cache hierarchy).
    Mem,
    /// Control (branch/exit/barrier/nop) — resolved at issue.
    Control,
}

impl Op {
    /// The latency class used by the core's writeback model.
    pub(crate) fn latency_class(&self) -> LatencyClass {
        match self {
            Op::Mov { .. } | Op::Sel { .. } | Op::Cvt { .. } | Op::SetP { .. } => LatencyClass::Alu,
            Op::Alu { kind, .. } => match kind {
                AluKind::Div => LatencyClass::Sfu,
                _ => LatencyClass::Alu,
            },
            Op::Mad { .. } => LatencyClass::Alu,
            Op::Unary { kind, .. } => match kind {
                UnaryKind::Neg | UnaryKind::Abs | UnaryKind::Floor | UnaryKind::Frac => {
                    LatencyClass::Alu
                }
                _ => LatencyClass::Sfu,
            },
            Op::Ld { .. } | Op::St { .. } => LatencyClass::Mem,
            Op::Tex2d { .. } | Op::Ztest { .. } | Op::Blend { .. } | Op::FbWrite { .. } => {
                LatencyClass::Mem
            }
            Op::Bra { .. } | Op::Bar | Op::Exit | Op::Nop => LatencyClass::Control,
        }
    }

    /// General-purpose registers this op reads and writes, as bit masks
    /// over `r0..r63` (bit `i` = `ri`): `(src, dst)`. `Tex2d` writes and
    /// `Blend`/`FbWrite` read four consecutive registers; `Blend` writes
    /// its quad back. This is the one definition the scoreboard masks and
    /// the register demand in [`crate::Program`] derive from.
    ///
    /// `None` when any register — the tail of a four-wide group included —
    /// lies at or past [`MAX_REGS`]: a mask cannot name it, and the group
    /// end is formed in `usize` so `r253..` is an answer, not an overflow.
    pub(crate) fn reg_masks(&self) -> Option<(u64, u64)> {
        fn group(first: Reg, n: usize) -> Option<u64> {
            (first.0 as usize + n <= MAX_REGS).then(|| ((1u64 << n) - 1) << first.0)
        }
        fn reg(r: Reg) -> Option<u64> {
            group(r, 1)
        }
        fn operand(o: &Operand) -> Option<u64> {
            match o {
                Operand::Reg(r) => reg(*r),
                _ => Some(0),
            }
        }
        Some(match self {
            Op::Mov { d, a } | Op::Unary { d, a, .. } | Op::Cvt { d, a, .. } => {
                (operand(a)?, reg(*d)?)
            }
            Op::Alu { d, a, b, .. } | Op::Sel { d, a, b, .. } => {
                (operand(a)? | operand(b)?, reg(*d)?)
            }
            Op::Mad { d, a, b, c, .. } => (operand(a)? | operand(b)? | operand(c)?, reg(*d)?),
            Op::SetP { a, b, .. } => (operand(a)? | operand(b)?, 0),
            Op::Ld { d, addr, .. } => (reg(*addr)?, reg(*d)?),
            Op::St { a, addr, .. } => (operand(a)? | reg(*addr)?, 0),
            Op::Tex2d { d, u, v, .. } => (reg(*u)? | reg(*v)?, group(*d, 4)?),
            Op::Ztest { z, .. } => (reg(*z)?, 0),
            Op::Blend { c } => (group(*c, 4)?, group(*c, 4)?),
            Op::FbWrite { c } => (group(*c, 4)?, 0),
            Op::Bra { .. } | Op::Bar | Op::Exit | Op::Nop => (0, 0),
        })
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Mov { d, a } => write!(f, "mov.b32 {d}, {a}"),
            Op::Alu { kind, ty, d, a, b } => {
                let k = match kind {
                    AluKind::Add => "add",
                    AluKind::Sub => "sub",
                    AluKind::Mul => "mul",
                    AluKind::Div => "div",
                    AluKind::Min => "min",
                    AluKind::Max => "max",
                    AluKind::And => "and",
                    AluKind::Or => "or",
                    AluKind::Xor => "xor",
                    AluKind::Shl => "shl",
                    AluKind::Shr => "shr",
                };
                write!(f, "{k}.{ty} {d}, {a}, {b}")
            }
            Op::Mad { ty, d, a, b, c } => write!(f, "mad.{ty} {d}, {a}, {b}, {c}"),
            Op::Unary { kind, ty, d, a } => {
                let k = match kind {
                    UnaryKind::Neg => "neg",
                    UnaryKind::Abs => "abs",
                    UnaryKind::Rcp => "rcp",
                    UnaryKind::Sqrt => "sqrt",
                    UnaryKind::Rsqrt => "rsqrt",
                    UnaryKind::Floor => "floor",
                    UnaryKind::Frac => "frac",
                    UnaryKind::Ex2 => "ex2",
                    UnaryKind::Lg2 => "lg2",
                    UnaryKind::Sin => "sin",
                    UnaryKind::Cos => "cos",
                };
                write!(f, "{k}.{ty} {d}, {a}")
            }
            Op::Cvt { d, a, from, to } => write!(f, "cvt.{to}.{from} {d}, {a}"),
            Op::SetP { p, cmp, ty, a, b } => {
                let c = match cmp {
                    CmpOp::Eq => "eq",
                    CmpOp::Ne => "ne",
                    CmpOp::Lt => "lt",
                    CmpOp::Le => "le",
                    CmpOp::Gt => "gt",
                    CmpOp::Ge => "ge",
                };
                write!(f, "setp.{c}.{ty} {p}, {a}, {b}")
            }
            Op::Sel { d, p, a, b } => write!(f, "sel.b32 {d}, {p}, {a}, {b}"),
            Op::Ld {
                space,
                d,
                addr,
                offset,
            } => {
                write!(f, "ld.{space}.b32 {d}, [{addr}{offset:+}]")
            }
            Op::St {
                space,
                a,
                addr,
                offset,
            } => {
                write!(f, "st.{space}.b32 [{addr}{offset:+}], {a}")
            }
            Op::Bra { target, reconv } => write!(f, "bra #{target}, reconv=#{reconv}"),
            Op::Bar => f.write_str("bar.sync"),
            Op::Exit => f.write_str("exit"),
            Op::Tex2d { d, u, v, sampler } => write!(f, "tex2d {d}, [{u}, {v}], s{sampler}"),
            Op::Ztest { z, write } => {
                write!(f, "ztest{} {z}", if *write { ".w" } else { "" })
            }
            Op::Blend { c } => write!(f, "blend {c}"),
            Op::FbWrite { c } => write!(f, "fbwrite {c}"),
            Op::Nop => f.write_str("nop"),
        }
    }
}

/// A full instruction: an operation plus an optional predicate guard.
///
/// `guard: Some((p, true))` means "execute lanes where `!p`", mirroring the
/// PTX `@!p` syntax; `Some((p, false))` means `@p`.
#[derive(Debug, Clone, PartialEq)]
pub struct Instr {
    /// Optional guard: `(predicate, negated)`.
    pub guard: Option<(PReg, bool)>,
    /// The operation.
    pub op: Op,
}

impl Instr {
    /// An unguarded instruction.
    pub fn new(op: Op) -> Self {
        Self { guard: None, op }
    }

    /// A guarded instruction (`@p` when `negated` is false, `@!p` otherwise).
    pub fn guarded(p: PReg, negated: bool, op: Op) -> Self {
        Self {
            guard: Some((p, negated)),
            op,
        }
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some((p, neg)) = self.guard {
            write!(f, "@{}{p} ", if neg { "!" } else { "" })?;
        }
        write!(f, "{}", self.op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reg_masks_name_sources_and_destinations() {
        let op = Op::Mad {
            ty: DType::F32,
            d: Reg(1),
            a: Operand::Reg(Reg(2)),
            b: Operand::ImmF(3.0),
            c: Operand::Reg(Reg(4)),
        };
        assert_eq!(op.reg_masks(), Some((0b1_0100, 0b10)));

        let tex = |d| Op::Tex2d {
            d: Reg(d),
            u: Reg(0),
            v: Reg(1),
            sampler: 0,
        };
        assert_eq!(tex(8).reg_masks(), Some((0b11, 0xf << 8)));
        // The quad's tail decides: r60..r63 fits, r61.. and r253.. do not.
        assert_eq!(tex(60).reg_masks(), Some((0b11, 0xf << 60)));
        assert_eq!(tex(61).reg_masks(), None);
        assert_eq!(tex(253).reg_masks(), None);
        assert_eq!(Op::Blend { c: Reg(4) }.reg_masks(), Some((0xf0, 0xf0)));
        assert_eq!(Op::FbWrite { c: Reg(4) }.reg_masks(), Some((0xf0, 0)));
        assert_eq!(Op::Exit.reg_masks(), Some((0, 0)));
    }

    #[test]
    fn latency_classes() {
        assert_eq!(
            Op::Alu {
                kind: AluKind::Add,
                ty: DType::F32,
                d: Reg(0),
                a: Operand::ImmF(0.0),
                b: Operand::ImmF(0.0)
            }
            .latency_class(),
            LatencyClass::Alu
        );
        assert_eq!(
            Op::Alu {
                kind: AluKind::Div,
                ty: DType::F32,
                d: Reg(0),
                a: Operand::ImmF(0.0),
                b: Operand::ImmF(1.0)
            }
            .latency_class(),
            LatencyClass::Sfu
        );
        assert_eq!(
            Op::Ld {
                space: MemSpace::Global,
                d: Reg(0),
                addr: Reg(1),
                offset: 0
            }
            .latency_class(),
            LatencyClass::Mem
        );
        assert_eq!(Op::Exit.latency_class(), LatencyClass::Control);
    }

    #[test]
    fn display_roundtrip_shapes() {
        let i = Instr::guarded(
            PReg(0),
            true,
            Op::Bra {
                target: 5,
                reconv: 9,
            },
        );
        assert_eq!(i.to_string(), "@!p0 bra #5, reconv=#9");
        let st = Op::St {
            space: MemSpace::Global,
            a: Operand::Reg(Reg(2)),
            addr: Reg(3),
            offset: -8,
        };
        assert_eq!(st.to_string(), "st.global.b32 [r3-8], r2");
    }
}

//! Registers, operands, special inputs and per-thread architectural state.

use std::fmt;

/// Maximum general-purpose registers addressable per thread.
pub const MAX_REGS: usize = 64;

/// Number of predicate registers per thread.
pub const NUM_PREDS: usize = 4;

/// Number of per-thread launch inputs (fragment attributes, vertex index…).
pub const NUM_INPUTS: usize = 16;

/// Number of uniform 32-bit kernel parameters.
pub const NUM_PARAMS: usize = 24;

/// A general-purpose 32-bit register index (`r0`–`r63`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Reg(pub u8);

/// A 1-bit predicate register index (`p0`–`p3`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PReg(pub u8);

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl fmt::Display for PReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Interpretation of a 32-bit register value for typed instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    /// IEEE-754 single-precision float.
    F32,
    /// Two's-complement signed 32-bit integer.
    S32,
    /// Unsigned 32-bit integer (also used for raw `b32` moves).
    U32,
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DType::F32 => "f32",
            DType::S32 => "s32",
            DType::U32 => "u32",
        })
    }
}

/// Read-only values a thread can reference besides its registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Special {
    /// Lane index within the warp, `0..32`.
    LaneId,
    /// Per-thread launch input `k` (see [`input`] conventions).
    Input(u8),
    /// Uniform kernel/draw parameter `k` (same value for every thread).
    Param(u8),
}

impl fmt::Display for Special {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Special::LaneId => f.write_str("%laneid"),
            Special::Input(k) => write!(f, "%input{k}"),
            Special::Param(k) => write!(f, "%param{k}"),
        }
    }
}

/// Well-known launch-input slot assignments.
///
/// The work launchers (`emerald-gpu` CTA dispatch, `emerald-core` vertex and
/// fragment warp launchers) populate [`ThreadState::inputs`] using these
/// conventions; shaders read them via `%inputN`.
pub mod input {
    /// Compute: global thread index. Vertex: vertex index within the draw.
    pub const ID: usize = 0;
    /// Compute: CTA (thread block) index.
    pub const CTA_ID: usize = 1;
    /// Compute: thread index within the CTA.
    pub const TID_IN_CTA: usize = 2;
    /// Fragment: integer screen-space x.
    pub const FRAG_X: usize = 0;
    /// Fragment: integer screen-space y.
    pub const FRAG_Y: usize = 1;
    /// Fragment: interpolated depth (f32 bits).
    pub const FRAG_Z: usize = 2;
    /// Fragment: first interpolated user attribute (f32 bits); attributes
    /// occupy consecutive slots from here.
    pub const FRAG_ATTR0: usize = 3;
}

/// An instruction source operand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Operand {
    /// A general-purpose register.
    Reg(Reg),
    /// An immediate 32-bit float.
    ImmF(f32),
    /// An immediate raw 32-bit value (integers, bit patterns).
    ImmI(u32),
    /// A special read-only value.
    Special(Special),
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl From<f32> for Operand {
    fn from(v: f32) -> Self {
        Operand::ImmF(v)
    }
}

impl From<u32> for Operand {
    fn from(v: u32) -> Self {
        Operand::ImmI(v)
    }
}

impl From<Special> for Operand {
    fn from(s: Special) -> Self {
        Operand::Special(s)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::ImmF(v) => write!(f, "{v:?}"),
            Operand::ImmI(v) => write!(f, "{v}"),
            Operand::Special(s) => write!(f, "{s}"),
        }
    }
}

/// Architectural state of one scalar thread (SIMT lane).
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadState {
    /// General-purpose registers, as raw 32-bit values.
    pub regs: [u32; MAX_REGS],
    /// Predicate registers.
    pub preds: [bool; NUM_PREDS],
    /// Per-thread launch inputs (see [`input`]).
    pub inputs: [u32; NUM_INPUTS],
}

impl ThreadState {
    /// A zeroed thread.
    pub fn new() -> Self {
        Self {
            regs: [0; MAX_REGS],
            preds: [false; NUM_PREDS],
            inputs: [0; NUM_INPUTS],
        }
    }

    /// Reads register `r` as raw bits.
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.0 as usize]
    }

    /// Reads register `r` as an `f32`.
    pub fn reg_f32(&self, r: Reg) -> f32 {
        f32::from_bits(self.regs[r.0 as usize])
    }

    /// Writes raw bits to register `r`.
    pub fn set_reg(&mut self, r: Reg, v: u32) {
        self.regs[r.0 as usize] = v;
    }

    /// Writes an `f32` to register `r`.
    pub fn set_reg_f32(&mut self, r: Reg, v: f32) {
        self.regs[r.0 as usize] = v.to_bits();
    }

    /// Stores an `f32` into input slot `k` (launcher-side helper).
    pub fn set_input_f32(&mut self, k: usize, v: f32) {
        self.inputs[k] = v.to_bits();
    }
}

impl Default for ThreadState {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reg_f32_roundtrip() {
        let mut t = ThreadState::new();
        t.set_reg_f32(Reg(3), -1.25);
        assert_eq!(t.reg_f32(Reg(3)), -1.25);
        assert_eq!(t.reg(Reg(3)), (-1.25f32).to_bits());
    }

    #[test]
    fn input_f32_roundtrip() {
        let mut t = ThreadState::new();
        t.set_input_f32(input::FRAG_Z, 0.5);
        assert_eq!(f32::from_bits(t.inputs[input::FRAG_Z]), 0.5);
    }

    #[test]
    fn operand_conversions() {
        assert_eq!(Operand::from(Reg(2)), Operand::Reg(Reg(2)));
        assert_eq!(Operand::from(1.5f32), Operand::ImmF(1.5));
        assert_eq!(Operand::from(7u32), Operand::ImmI(7));
        assert_eq!(
            Operand::from(Special::LaneId),
            Operand::Special(Special::LaneId)
        );
    }

    #[test]
    fn display_forms() {
        assert_eq!(Reg(5).to_string(), "r5");
        assert_eq!(PReg(1).to_string(), "p1");
        assert_eq!(Special::Input(3).to_string(), "%input3");
        assert_eq!(Operand::ImmF(2.0).to_string(), "2.0");
    }
}

//! Registers, operands, special inputs, and architectural state: per
//! thread ([`ThreadState`]) and per warp, register-major ([`WarpRegs`]).

use crate::program::Program;
use emerald_common::types::WARP_SIZE;
use std::fmt;

/// Maximum general-purpose registers addressable per thread.
pub const MAX_REGS: usize = 64;

/// Number of predicate registers per thread.
pub const NUM_PREDS: usize = 4;

/// Number of per-thread launch inputs (fragment attributes, vertex index…).
pub(crate) const NUM_INPUTS: usize = 16;

/// Number of uniform 32-bit kernel parameters.
pub(crate) const NUM_PARAMS: usize = 24;

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
/// fragment warp launchers) populate [`WarpRegs::set_input`] and
/// [`WarpRegs::set_input_row`] using these
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

    /// Reads register `r` as an `f32`.
    pub fn reg_f32(&self, r: Reg) -> f32 {
        f32::from_bits(self.regs[r.0 as usize])
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

/// One register (or input) across a warp: lane `l` at index `l`.
pub(crate) type Row = [u32; WARP_SIZE];

/// The architectural state of a whole warp, register-major: register `r`
/// of every lane is one contiguous [`WARP_SIZE`]-word row, so one
/// instruction reads and writes whole rows, and each predicate register is
/// one lane mask, so a guard is one load.
///
/// Sized by its [`Program`]: `regs_used()` register rows then
/// `inputs_used()` input rows, in one heap allocation. A resident warp of
/// a 12-register kernel that reads 3 inputs holds 1 920 bytes, where 32
/// [`ThreadState`]s hold 10 368.
#[derive(Debug, Clone, PartialEq)]
pub struct WarpRegs {
    /// Register rows, then input rows.
    pub(crate) rows: Box<[Row]>,
    /// How many of `rows` are registers.
    pub(crate) n_regs: usize,
    /// Predicate registers, bit `l` = lane `l`.
    pub(crate) preds: [u32; NUM_PREDS],
}

impl WarpRegs {
    /// A zeroed register file sized for `program`.
    pub fn new(program: &Program) -> Self {
        let n_regs = program.regs_used();
        Self {
            rows: vec![[0; WARP_SIZE]; n_regs + program.inputs_used()].into_boxed_slice(),
            n_regs,
            preds: [0; NUM_PREDS],
        }
    }

    /// Sets launch input `k` of `lane` (see [`input`]). A slot the
    /// program never reads has no row, and the write is dropped.
    pub fn set_input(&mut self, k: usize, lane: usize, v: u32) {
        if let Some(row) = self.rows[self.n_regs..].get_mut(k) {
            row[lane] = v;
        }
    }

    /// Sets launch input `k` of lanes `0..lanes` to `f(lane)`, one row
    /// at a time; dropped, like [`WarpRegs::set_input`], for a slot the
    /// program never reads.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` exceeds [`WARP_SIZE`].
    pub fn set_input_row(&mut self, k: usize, lanes: usize, mut f: impl FnMut(usize) -> u32) {
        if let Some(row) = self.rows[self.n_regs..].get_mut(k) {
            for (lane, v) in row[..lanes].iter_mut().enumerate() {
                *v = f(lane);
            }
        }
    }

    /// The register file of `threads` (lane `l` = `threads[l]`, at most
    /// [`WARP_SIZE`] of them), holding what `program` can read or write.
    pub fn gather(program: &Program, threads: &[ThreadState]) -> Self {
        let mut w = Self::new(program);
        let n_regs = w.n_regs;
        for (lane, t) in threads.iter().enumerate().take(WARP_SIZE) {
            let (regs, inputs) = w.rows.split_at_mut(n_regs);
            for (row, &v) in regs.iter_mut().zip(&t.regs) {
                row[lane] = v;
            }
            for (row, &v) in inputs.iter_mut().zip(&t.inputs) {
                row[lane] = v;
            }
            for (mask, &p) in w.preds.iter_mut().zip(&t.preds) {
                *mask |= (p as u32) << lane;
            }
        }
        w
    }

    /// Writes every slot this file holds back into `threads`, the inverse
    /// of [`WarpRegs::gather`]; slots it does not hold are left alone.
    pub fn scatter(&self, threads: &mut [ThreadState]) {
        let (regs, inputs) = self.rows.split_at(self.n_regs);
        for (lane, t) in threads.iter_mut().enumerate().take(WARP_SIZE) {
            for (v, row) in t.regs.iter_mut().zip(regs) {
                *v = row[lane];
            }
            for (v, row) in t.inputs.iter_mut().zip(inputs) {
                *v = row[lane];
            }
            for (p, &mask) in t.preds.iter_mut().zip(&self.preds) {
                *p = mask >> lane & 1 != 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reg_f32_roundtrip() {
        let mut t = ThreadState::new();
        t.regs[3] = (-1.25f32).to_bits();
        assert_eq!(t.reg_f32(Reg(3)), -1.25);
        assert_eq!(t.regs[3], (-1.25f32).to_bits());
    }

    #[test]
    fn warp_regs_are_sized_by_the_program() {
        let p = crate::assemble("add.u32 r2, %input1, 1\nexit").unwrap();
        let mut w = WarpRegs::new(&p);
        assert_eq!((w.rows.len(), w.n_regs), (3 + 2, 3));
        w.set_input(1, 7, 42);
        w.set_input(5, 7, 43); // never read: dropped
        assert_eq!(w.rows[3 + 1][7], 42);
        assert_eq!(w.rows.iter().flatten().sum::<u32>(), 42);
        w.set_input_row(0, 3, |lane| lane as u32 + 10);
        w.set_input_row(5, 32, |_| 44); // never read: dropped
        assert_eq!(w.rows[3][..4], [10, 11, 12, 0]);
        assert_eq!(w.rows.iter().flatten().sum::<u32>(), 42 + 33);
    }

    #[test]
    fn gather_then_scatter_round_trips() {
        let p = crate::assemble("mov.b32 r4, %input2\nexit").unwrap();
        let threads: Vec<ThreadState> = (0..5u32)
            .map(|lane| {
                let mut t = ThreadState::new();
                t.regs[..5].fill(lane * 10);
                t.inputs[..3].fill(lane + 100);
                t.preds = [lane % 2 == 0, lane == 3, false, true];
                t
            })
            .collect();
        let w = WarpRegs::gather(&p, &threads);
        assert_eq!(w.preds, [0b10101, 0b01000, 0, 0b11111]);
        let mut back = vec![ThreadState::new(); 5];
        w.scatter(&mut back);
        assert_eq!(back, threads);
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

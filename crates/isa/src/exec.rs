//! Warp-wide functional execution.
//!
//! The timing model (in `emerald-gpu`) decides *when* an instruction issues;
//! this module decides *what it does*: it executes one instruction across
//! all active lanes, mutating the warp's register file, and reports the
//! raw per-lane memory accesses so the timing model can replay them through
//! the coalescer and cache hierarchy (the classic functional/timing split
//! used by GPGPU-Sim, which Emerald builds on).

use crate::op::{AluKind, CmpOp, MemSpace, Op, UnaryKind};
use crate::program::Program;
use crate::reg::{input, DType, Operand, Reg, Row, Special, ThreadState, WarpRegs};
use emerald_common::types::{AccessKind, Addr, WARP_SIZE};

/// Which hardware surface/cache a memory access targets (Table 2 of the
/// paper: L1D data/pixel, L1T texture, L1Z depth, L1C constant & vertex).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Surface {
    /// Global/GPGPU data and pixel color (L1D).
    #[default]
    Data,
    /// Texture texels (L1T).
    Texture,
    /// Depth buffer (L1Z).
    Depth,
    /// Constant and vertex data (L1C).
    ConstVertex,
    /// Per-core scratchpad (banked SRAM, no cache).
    Shared,
}

/// One lane-level memory access produced by executing an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Lane that produced the access.
    pub lane: u8,
    /// Read or write.
    pub kind: AccessKind,
    /// Target surface (selects the L1 cache).
    pub surface: Surface,
    /// Byte address.
    pub addr: Addr,
    /// Access size in bytes.
    pub size: u8,
}

/// Control-flow outcome of executing one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Fall through to `pc + 1`.
    Next,
    /// A branch; `taken` is the lane mask that takes the branch. The SIMT
    /// stack in the core decides whether this diverges.
    Branch {
        /// Lanes (of the currently active set) that take the branch.
        taken: u32,
    },
    /// All active lanes exited.
    Exit,
    /// The warp reached a CTA barrier and must wait.
    Barrier,
}

/// Result of executing one instruction warp-wide.
///
/// The vectors keep their capacity across [`execute_warp`] calls, so a
/// caller that reuses one `StepResult` stops allocating once it has seen
/// its widest instruction.
#[derive(Debug, Clone)]
pub struct StepResult {
    /// Per-lane memory accesses for the timing model (pre-coalescing).
    pub accesses: Vec<MemAccess>,
    /// Control-flow outcome.
    pub outcome: Outcome,
    /// Lanes killed by this instruction (fragment `ztest` failures); the
    /// core removes them from the active mask permanently.
    pub killed: u32,
    /// Scratch for one lane's `tex2d` texel addresses; not part of the
    /// result.
    texels: Vec<Addr>,
}

impl StepResult {
    /// An empty fall-through result, ready to be filled by
    /// [`execute_warp`].
    pub fn new() -> Self {
        Self {
            accesses: Vec::new(),
            outcome: Outcome::Next,
            killed: 0,
            texels: Vec::new(),
        }
    }
}

impl Default for StepResult {
    fn default() -> Self {
        Self::new()
    }
}

impl PartialEq for StepResult {
    fn eq(&self, other: &Self) -> bool {
        (&self.accesses, self.outcome, self.killed)
            == (&other.accesses, other.outcome, other.killed)
    }
}

/// Environment an executing warp sees beyond its own registers: memory
/// contents, bound textures and the render targets.
///
/// `emerald-gpu` implements this for compute launches (global memory only);
/// `emerald-core` layers the graphics surfaces on top.
pub trait ExecCtx {
    /// Functional 32-bit load.
    fn load(&mut self, space: MemSpace, addr: Addr) -> u32;

    /// Functional 32-bit store.
    fn store(&mut self, space: MemSpace, addr: Addr, value: u32);

    /// Samples bound texture `sampler` at `(u, v)`, pushing the touched
    /// texel line addresses into `texel_addrs`. Non-graphics contexts may
    /// return a constant.
    fn tex2d(&mut self, sampler: u8, u: f32, v: f32, texel_addrs: &mut Vec<Addr>) -> [f32; 4];

    /// Depth-tests fragment `(x, y)` against depth `z`; returns whether the
    /// fragment survives plus the depth-buffer address touched. When
    /// `write` is set and the test passes, the implementation updates the
    /// depth buffer.
    fn ztest(&mut self, x: u32, y: u32, z: f32, write: bool) -> (bool, Addr);

    /// Reads the destination pixel at `(x, y)` and returns
    /// `(blended RGBA, color-buffer address)` for source color `src`.
    fn blend(&mut self, x: u32, y: u32, src: [f32; 4]) -> ([f32; 4], Addr);

    /// Writes `rgba` to the framebuffer at `(x, y)`; returns the
    /// color-buffer address.
    fn fb_write(&mut self, x: u32, y: u32, rgba: [f32; 4]) -> Addr;
}

/// A no-op context for pure-ALU programs (tests, microbenchmarks).
#[derive(Debug, Default, Clone)]
pub struct NullCtx;

impl ExecCtx for NullCtx {
    fn load(&mut self, _: MemSpace, _: Addr) -> u32 {
        0
    }
    fn store(&mut self, _: MemSpace, _: Addr, _: u32) {}
    fn tex2d(&mut self, _: u8, _: f32, _: f32, _: &mut Vec<Addr>) -> [f32; 4] {
        [0.0; 4]
    }
    fn ztest(&mut self, _: u32, _: u32, _: f32, _: bool) -> (bool, Addr) {
        (true, 0)
    }
    fn blend(&mut self, _: u32, _: u32, src: [f32; 4]) -> ([f32; 4], Addr) {
        (src, 0)
    }
    fn fb_write(&mut self, _: u32, _: u32, _: [f32; 4]) -> Addr {
        0
    }
}

fn surface_for(space: MemSpace) -> Surface {
    match space {
        MemSpace::Global => Surface::Data,
        MemSpace::Const | MemSpace::Vertex => Surface::ConstVertex,
        MemSpace::Shared => Surface::Shared,
    }
}

/// A source operand with everything that is uniform across the warp
/// already resolved, so the lane loop reads a register, an input or a
/// constant.
#[derive(Clone, Copy)]
enum Src {
    Reg(usize),
    Input(usize),
    LaneId,
    Const(u32),
}

/// `%laneid` as a row.
const LANE_IDS: Row = {
    let mut row = [0; WARP_SIZE];
    let mut lane = 0;
    while lane < WARP_SIZE {
        row[lane] = lane as u32;
        lane += 1;
    }
    row
};

impl Src {
    fn new(o: &Operand, params: &[u32]) -> Self {
        match *o {
            Operand::Reg(r) => Src::Reg(r.0 as usize),
            Operand::ImmF(v) => Src::Const(v.to_bits()),
            Operand::ImmI(v) => Src::Const(v),
            Operand::Special(Special::LaneId) => Src::LaneId,
            Operand::Special(Special::Input(k)) => Src::Input(k as usize),
            Operand::Special(Special::Param(k)) => {
                Src::Const(params.get(k as usize).copied().unwrap_or(0))
            }
        }
    }

    /// The operand across the warp.
    fn row(self, w: &WarpRegs) -> Row {
        match self {
            Src::Reg(r) => w.rows[r],
            Src::Input(k) => w.rows[w.n_regs + k],
            Src::LaneId => LANE_IDS,
            Src::Const(v) => [v; WARP_SIZE],
        }
    }

    /// The operand in one lane.
    fn at(self, w: &WarpRegs, lane: usize) -> u32 {
        match self {
            Src::Reg(r) => w.rows[r][lane],
            Src::Input(k) => w.rows[w.n_regs + k][lane],
            Src::LaneId => lane as u32,
            Src::Const(v) => v,
        }
    }
}

/// The set lanes of a mask, lowest first.
struct Lanes(u32);

impl Iterator for Lanes {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let lane = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(lane)
    }
}

/// Lane-wise maps over whole rows. Each is inlined into a call site whose
/// operation is fixed, so every site compiles to its own lane loop.
#[inline(always)]
fn map1(a: &Row, f: impl Fn(u32) -> u32) -> Row {
    let mut out = [0; WARP_SIZE];
    for (o, &x) in out.iter_mut().zip(a) {
        *o = f(x);
    }
    out
}

#[inline(always)]
fn map2(a: &Row, b: &Row, f: impl Fn(u32, u32) -> u32) -> Row {
    let mut out = [0; WARP_SIZE];
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = f(x, y);
    }
    out
}

#[inline(always)]
fn map3(a: &Row, b: &Row, c: &Row, f: impl Fn(u32, u32, u32) -> u32) -> Row {
    let mut out = [0; WARP_SIZE];
    for (((o, &x), &y), &z) in out.iter_mut().zip(a).zip(b).zip(c) {
        *o = f(x, y, z);
    }
    out
}

/// The lanes where `f` holds, as a mask.
#[inline(always)]
fn test2(a: &Row, b: &Row, f: impl Fn(u32, u32) -> bool) -> u32 {
    let mut mask = 0;
    for (lane, (&x, &y)) in a.iter().zip(b).enumerate() {
        mask |= (f(x, y) as u32) << lane;
    }
    mask
}

/// `dst` takes `val` in the lanes of `mask` and keeps its own elsewhere,
/// without a branch per lane.
fn merge(dst: &mut Row, val: &Row, mask: u32) {
    for (lane, (d, &v)) in dst.iter_mut().zip(val).enumerate() {
        let take = 0u32.wrapping_sub(mask >> lane & 1);
        *d = v & take | *d & !take;
    }
}

#[inline(always)]
fn alu(kind: AluKind, ty: DType, a: u32, b: u32) -> u32 {
    match ty {
        DType::F32 => {
            let (x, y) = (f32::from_bits(a), f32::from_bits(b));
            let r = match kind {
                AluKind::Add => x + y,
                AluKind::Sub => x - y,
                AluKind::Mul => x * y,
                AluKind::Div => x / y,
                AluKind::Min => x.min(y),
                AluKind::Max => x.max(y),
                // Bit ops on f32 operate on the raw bits.
                AluKind::And => return a & b,
                AluKind::Or => return a | b,
                AluKind::Xor => return a ^ b,
                AluKind::Shl => return a.wrapping_shl(b),
                AluKind::Shr => return a.wrapping_shr(b),
            };
            r.to_bits()
        }
        DType::S32 => {
            let (x, y) = (a as i32, b as i32);
            let r = match kind {
                AluKind::Add => x.wrapping_add(y),
                AluKind::Sub => x.wrapping_sub(y),
                AluKind::Mul => x.wrapping_mul(y),
                AluKind::Div => {
                    if y == 0 {
                        0
                    } else {
                        x.wrapping_div(y)
                    }
                }
                AluKind::Min => x.min(y),
                AluKind::Max => x.max(y),
                AluKind::And => x & y,
                AluKind::Or => x | y,
                AluKind::Xor => x ^ y,
                AluKind::Shl => x.wrapping_shl(y as u32),
                AluKind::Shr => x.wrapping_shr(y as u32),
            };
            r as u32
        }
        DType::U32 => match kind {
            AluKind::Add => a.wrapping_add(b),
            AluKind::Sub => a.wrapping_sub(b),
            AluKind::Mul => a.wrapping_mul(b),
            AluKind::Div => a.checked_div(b).unwrap_or(0),
            AluKind::Min => a.min(b),
            AluKind::Max => a.max(b),
            AluKind::And => a & b,
            AluKind::Or => a | b,
            AluKind::Xor => a ^ b,
            AluKind::Shl => a.wrapping_shl(b),
            AluKind::Shr => a.wrapping_shr(b),
        },
    }
}

/// [`alu`] over whole rows. The (type, kind) pair is matched once, and
/// each arm's loop sees constants, so it folds to one operation.
fn alu_row(kind: AluKind, ty: DType, a: &Row, b: &Row) -> Row {
    macro_rules! kinds {
        ($ty:expr; $($k:ident)*) => {
            match kind {
                $(AluKind::$k => map2(a, b, |x, y| alu(AluKind::$k, $ty, x, y)),)*
            }
        };
    }
    macro_rules! types {
        ($($t:ident)*) => {
            match ty {
                $(DType::$t => kinds!(DType::$t; Add Sub Mul Div Min Max And Or Xor Shl Shr),)*
            }
        };
    }
    types!(F32 S32 U32)
}

/// `a * b + c` over whole rows (two roundings for `f32`, not fused).
fn mad_row(ty: DType, a: &Row, b: &Row, c: &Row) -> Row {
    macro_rules! types {
        ($($t:ident)*) => {
            match ty {
                $(DType::$t => map3(a, b, c, |x, y, z| {
                    alu(AluKind::Add, DType::$t, alu(AluKind::Mul, DType::$t, x, y), z)
                }),)*
            }
        };
    }
    types!(F32 S32 U32)
}

fn unary(kind: UnaryKind, ty: DType, a: u32) -> u32 {
    match ty {
        DType::F32 => {
            let x = f32::from_bits(a);
            let r = match kind {
                UnaryKind::Neg => -x,
                UnaryKind::Abs => x.abs(),
                UnaryKind::Rcp => 1.0 / x,
                UnaryKind::Sqrt => x.sqrt(),
                UnaryKind::Rsqrt => 1.0 / x.sqrt(),
                UnaryKind::Floor => x.floor(),
                UnaryKind::Frac => x - x.floor(),
                UnaryKind::Ex2 => x.exp2(),
                UnaryKind::Lg2 => x.log2(),
                UnaryKind::Sin => x.sin(),
                UnaryKind::Cos => x.cos(),
            };
            r.to_bits()
        }
        DType::S32 => {
            let x = a as i32;
            let r = match kind {
                UnaryKind::Neg => x.wrapping_neg(),
                UnaryKind::Abs => x.wrapping_abs(),
                _ => x, // SFU ops are float-only; integer forms pass through
            };
            r as u32
        }
        DType::U32 => a,
    }
}

#[inline(always)]
fn compare(cmp: CmpOp, ty: DType, a: u32, b: u32) -> bool {
    match ty {
        DType::F32 => {
            let (x, y) = (f32::from_bits(a), f32::from_bits(b));
            match cmp {
                CmpOp::Eq => x == y,
                CmpOp::Ne => x != y,
                CmpOp::Lt => x < y,
                CmpOp::Le => x <= y,
                CmpOp::Gt => x > y,
                CmpOp::Ge => x >= y,
            }
        }
        DType::S32 => {
            let (x, y) = (a as i32, b as i32);
            match cmp {
                CmpOp::Eq => x == y,
                CmpOp::Ne => x != y,
                CmpOp::Lt => x < y,
                CmpOp::Le => x <= y,
                CmpOp::Gt => x > y,
                CmpOp::Ge => x >= y,
            }
        }
        DType::U32 => match cmp {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        },
    }
}

/// [`compare`] over whole rows, as the mask of lanes where it holds.
fn compare_rows(cmp: CmpOp, ty: DType, a: &Row, b: &Row) -> u32 {
    macro_rules! cmps {
        ($ty:expr; $($c:ident)*) => {
            match cmp {
                $(CmpOp::$c => test2(a, b, |x, y| compare(CmpOp::$c, $ty, x, y)),)*
            }
        };
    }
    macro_rules! types {
        ($($t:ident)*) => {
            match ty {
                $(DType::$t => cmps!(DType::$t; Eq Ne Lt Le Gt Ge),)*
            }
        };
    }
    types!(F32 S32 U32)
}

#[inline(always)]
fn convert(from: DType, to: DType, a: u32) -> u32 {
    match (from, to) {
        (DType::F32, DType::S32) => {
            let x = f32::from_bits(a);
            if x.is_nan() {
                0
            } else {
                (x as i32) as u32 // `as` saturates in Rust
            }
        }
        (DType::F32, DType::U32) => {
            let x = f32::from_bits(a);
            if x.is_nan() {
                0
            } else {
                x as u32
            }
        }
        (DType::S32, DType::F32) => ((a as i32) as f32).to_bits(),
        (DType::U32, DType::F32) => (a as f32).to_bits(),
        _ => a,
    }
}

/// [`convert`] over a whole row.
fn convert_row(from: DType, to: DType, a: &Row) -> Row {
    macro_rules! pairs {
        ($(($f:ident, $t:ident))*) => {
            match (from, to) {
                $((DType::$f, DType::$t) => map1(a, |x| convert(DType::$f, DType::$t, x)),)*
                _ => *a,
            }
        };
    }
    pairs!((F32, S32)(F32, U32)(S32, F32)(U32, F32))
}

/// Executes the instruction at `pc` of `program` for the lanes in `active`.
///
/// Mutates `threads` (register state, and memory via `ctx`) and reports
/// memory accesses plus the control-flow outcome. `params` are the uniform
/// launch parameters. Bits of `active` at or beyond `threads.len()` are
/// ignored.
///
/// This is [`execute_warp`] behind a gather/scatter adapter for callers
/// that keep per-lane [`ThreadState`]s: it builds a [`WarpRegs`] sized by
/// `program` on every call, so the simulator's cores call
/// [`execute_warp`] on the file they keep instead.
///
/// # Panics
///
/// Panics if `pc` is out of range (programs are validated at construction,
/// so a well-behaved core never does this).
pub fn execute(
    program: &Program,
    pc: usize,
    active: u32,
    threads: &mut [ThreadState],
    params: &[u32],
    ctx: &mut dyn ExecCtx,
) -> StepResult {
    let absent = WARP_SIZE.saturating_sub(threads.len()) as u32;
    let active = active & u32::MAX.checked_shr(absent).unwrap_or(0);
    let mut regs = WarpRegs::gather(program, threads);
    let mut res = StepResult::new();
    execute_warp(program, pc, active, &mut regs, params, ctx, &mut res);
    regs.scatter(threads);
    res
}

/// Executes the instruction at `pc` of `program` for the lanes in
/// `active`, on a warp's register-major file: the one executor behind
/// every entry point.
///
/// A lane outside `active`, or whose guard predicate is false, keeps
/// every register and predicate bit. Register- and predicate-writing ALU
/// instructions (`mov`, the two-operand ALU, `mad`, `cvt`, `setp`, `sel`)
/// compute all [`WARP_SIZE`] lanes from whole-row operands and merge the
/// result into the destination by mask; each lane's result depends on its
/// own operands alone, and no lane's value can panic (integer division by
/// zero yields 0, integer arithmetic wraps). Unary (SFU) instructions,
/// memory and graphics instructions run per executing lane, lowest first.
/// Whatever `res` held is overwritten, and its buffers are reused rather
/// than reallocated.
///
/// # Panics
///
/// Panics if `pc` is out of range, or if `regs` was sized for another
/// program and the instruction names a row it lacks.
pub fn execute_warp(
    program: &Program,
    pc: usize,
    active: u32,
    regs: &mut WarpRegs,
    params: &[u32],
    ctx: &mut dyn ExecCtx,
    res: &mut StepResult,
) {
    let instr = program.instr(pc);
    let mask = active
        & match instr.guard {
            None => u32::MAX,
            Some((p, neg)) => regs.preds[p.0 as usize] ^ 0u32.wrapping_sub(neg as u32),
        };
    res.accesses.clear();
    res.outcome = Outcome::Next;
    res.killed = 0;
    let src = |o: &Operand| Src::new(o, params);

    match &instr.op {
        Op::Nop => {}
        Op::Mov { d, a } => {
            let v = src(a).row(regs);
            merge(&mut regs.rows[d.0 as usize], &v, mask);
        }
        Op::Alu { kind, ty, d, a, b } => {
            let v = alu_row(*kind, *ty, &src(a).row(regs), &src(b).row(regs));
            merge(&mut regs.rows[d.0 as usize], &v, mask);
        }
        Op::Mad { ty, d, a, b, c } => {
            let (a, b, c) = (src(a).row(regs), src(b).row(regs), src(c).row(regs));
            merge(
                &mut regs.rows[d.0 as usize],
                &mad_row(*ty, &a, &b, &c),
                mask,
            );
        }
        Op::Unary { kind, ty, d, a } => {
            let a = src(a);
            for lane in Lanes(mask) {
                regs.rows[d.0 as usize][lane] = unary(*kind, *ty, a.at(regs, lane));
            }
        }
        Op::Cvt { d, a, from, to } => {
            let v = convert_row(*from, *to, &src(a).row(regs));
            merge(&mut regs.rows[d.0 as usize], &v, mask);
        }
        Op::SetP { p, cmp, ty, a, b } => {
            let hit = compare_rows(*cmp, *ty, &src(a).row(regs), &src(b).row(regs));
            let pred = &mut regs.preds[p.0 as usize];
            *pred = hit & mask | *pred & !mask;
        }
        Op::Sel { d, p, a, b } => {
            let mut v = src(b).row(regs);
            merge(&mut v, &src(a).row(regs), regs.preds[p.0 as usize]);
            merge(&mut regs.rows[d.0 as usize], &v, mask);
        }
        Op::Ld {
            space,
            d,
            addr,
            offset,
        } => {
            let surface = surface_for(*space);
            for lane in Lanes(mask) {
                let a = (regs.rows[addr.0 as usize][lane] as i64 + *offset as i64) as Addr;
                regs.rows[d.0 as usize][lane] = ctx.load(*space, a);
                res.accesses.push(MemAccess {
                    lane: lane as u8,
                    kind: AccessKind::Read,
                    surface,
                    addr: a,
                    size: 4,
                });
            }
        }
        Op::St {
            space,
            a,
            addr,
            offset,
        } => {
            let (a, surface) = (src(a), surface_for(*space));
            for lane in Lanes(mask) {
                let ad = (regs.rows[addr.0 as usize][lane] as i64 + *offset as i64) as Addr;
                ctx.store(*space, ad, a.at(regs, lane));
                res.accesses.push(MemAccess {
                    lane: lane as u8,
                    kind: AccessKind::Write,
                    surface,
                    addr: ad,
                    size: 4,
                });
            }
        }
        Op::Bra { .. } => {
            res.outcome = Outcome::Branch { taken: mask };
        }
        Op::Bar => {
            res.outcome = Outcome::Barrier;
        }
        Op::Exit => {
            res.outcome = Outcome::Exit;
        }
        Op::Tex2d { d, u, v, sampler } => {
            for lane in Lanes(mask) {
                res.texels.clear();
                let f = |r: &Reg| f32::from_bits(regs.rows[r.0 as usize][lane]);
                let rgba = ctx.tex2d(*sampler, f(u), f(v), &mut res.texels);
                for (i, c) in rgba.iter().enumerate() {
                    regs.rows[d.0 as usize + i][lane] = c.to_bits();
                }
                for &ta in &res.texels {
                    res.accesses.push(MemAccess {
                        lane: lane as u8,
                        kind: AccessKind::Read,
                        surface: Surface::Texture,
                        addr: ta,
                        size: 4,
                    });
                }
            }
        }
        Op::Ztest { z, write } => {
            for lane in Lanes(mask) {
                let (x, y) = frag_xy(regs, lane);
                let z = f32::from_bits(regs.rows[z.0 as usize][lane]);
                let (pass, addr) = ctx.ztest(x, y, z, *write);
                res.accesses.push(MemAccess {
                    lane: lane as u8,
                    kind: AccessKind::Read,
                    surface: Surface::Depth,
                    addr,
                    size: 4,
                });
                if pass {
                    if *write {
                        res.accesses.push(MemAccess {
                            lane: lane as u8,
                            kind: AccessKind::Write,
                            surface: Surface::Depth,
                            addr,
                            size: 4,
                        });
                    }
                } else {
                    res.killed |= 1 << lane;
                }
            }
        }
        Op::Blend { c } => {
            for lane in Lanes(mask) {
                let (x, y) = frag_xy(regs, lane);
                let (out, addr) = ctx.blend(x, y, rgba_at(regs, *c, lane));
                for (i, v) in out.iter().enumerate() {
                    regs.rows[c.0 as usize + i][lane] = v.to_bits();
                }
                res.accesses.push(MemAccess {
                    lane: lane as u8,
                    kind: AccessKind::Read,
                    surface: Surface::Data,
                    addr,
                    size: 4,
                });
            }
        }
        Op::FbWrite { c } => {
            for lane in Lanes(mask) {
                let (x, y) = frag_xy(regs, lane);
                let addr = ctx.fb_write(x, y, rgba_at(regs, *c, lane));
                res.accesses.push(MemAccess {
                    lane: lane as u8,
                    kind: AccessKind::Write,
                    surface: Surface::Data,
                    addr,
                    size: 4,
                });
            }
        }
    }
}

/// A fragment lane's screen position, from its launch inputs.
fn frag_xy(w: &WarpRegs, lane: usize) -> (u32, u32) {
    let inputs = &w.rows[w.n_regs..];
    (inputs[input::FRAG_X][lane], inputs[input::FRAG_Y][lane])
}

/// The colour held in one lane of the register quad starting at `c`.
fn rgba_at(w: &WarpRegs, c: Reg, lane: usize) -> [f32; 4] {
    [0, 1, 2, 3].map(|i| f32::from_bits(w.rows[c.0 as usize + i][lane]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::reg::Reg;

    fn warp(n: usize) -> Vec<ThreadState> {
        vec![ThreadState::new(); n]
    }

    #[test]
    fn mov_and_alu_respect_mask() {
        let p = assemble(
            "mov.b32 r0, %laneid\n\
             add.s32 r1, r0, 10\n\
             exit",
        )
        .unwrap();
        let mut threads = warp(4);
        let active = 0b0101;
        let mut ctx = NullCtx;
        execute(&p, 0, active, &mut threads, &[], &mut ctx);
        execute(&p, 1, active, &mut threads, &[], &mut ctx);
        assert_eq!(threads[0].regs[1], 10);
        assert_eq!(threads[2].regs[1], 12);
        // Inactive lanes untouched.
        assert_eq!(threads[1].regs[1], 0);
        assert_eq!(threads[3].regs[1], 0);
    }

    #[test]
    fn f32_arithmetic() {
        let p = assemble(
            "mov.b32 r0, 3.0\n\
             mul.f32 r1, r0, 2.0\n\
             mad.f32 r2, r1, 0.5, 1.0\n\
             rsqrt.f32 r3, 4.0\n\
             exit",
        )
        .unwrap();
        let mut threads = warp(1);
        let mut ctx = NullCtx;
        for pc in 0..4 {
            execute(&p, pc, 1, &mut threads, &[], &mut ctx);
        }
        assert_eq!(threads[0].reg_f32(Reg(1)), 6.0);
        assert_eq!(threads[0].reg_f32(Reg(2)), 4.0);
        assert_eq!(threads[0].reg_f32(Reg(3)), 0.5);
    }

    #[test]
    fn setp_and_guarded_execution() {
        let p = assemble(
            "mov.b32 r0, %laneid\n\
             setp.lt.s32 p0, r0, 2\n\
             @p0 mov.b32 r1, 7\n\
             @!p0 mov.b32 r1, 9\n\
             exit",
        )
        .unwrap();
        let mut threads = warp(4);
        let mut ctx = NullCtx;
        for pc in 0..4 {
            execute(&p, pc, 0xf, &mut threads, &[], &mut ctx);
        }
        assert_eq!(threads[0].regs[1], 7);
        assert_eq!(threads[1].regs[1], 7);
        assert_eq!(threads[2].regs[1], 9);
        assert_eq!(threads[3].regs[1], 9);
    }

    #[test]
    fn branch_reports_taken_mask() {
        let p = assemble(
            "mov.b32 r0, %laneid\n\
             setp.ge.s32 p0, r0, 2\n\
             @p0 bra SKIP, reconv=SKIP\n\
             mov.b32 r1, 1\n\
             SKIP:\n\
             exit",
        )
        .unwrap();
        let mut threads = warp(4);
        let mut ctx = NullCtx;
        execute(&p, 0, 0xf, &mut threads, &[], &mut ctx);
        execute(&p, 1, 0xf, &mut threads, &[], &mut ctx);
        let r = execute(&p, 2, 0xf, &mut threads, &[], &mut ctx);
        assert_eq!(r.outcome, Outcome::Branch { taken: 0b1100 });
    }

    #[test]
    fn loads_and_stores_report_accesses() {
        #[derive(Default)]
        struct MapCtx(std::collections::HashMap<Addr, u32>);
        impl ExecCtx for MapCtx {
            fn load(&mut self, _: MemSpace, a: Addr) -> u32 {
                *self.0.get(&a).unwrap_or(&0)
            }
            fn store(&mut self, _: MemSpace, a: Addr, v: u32) {
                self.0.insert(a, v);
            }
            fn tex2d(&mut self, _: u8, _: f32, _: f32, _: &mut Vec<Addr>) -> [f32; 4] {
                [0.0; 4]
            }
            fn ztest(&mut self, _: u32, _: u32, _: f32, _: bool) -> (bool, Addr) {
                (true, 0)
            }
            fn blend(&mut self, _: u32, _: u32, s: [f32; 4]) -> ([f32; 4], Addr) {
                (s, 0)
            }
            fn fb_write(&mut self, _: u32, _: u32, _: [f32; 4]) -> Addr {
                0
            }
        }
        let p = assemble(
            "mov.b32 r0, %laneid\n\
             shl.u32 r1, r0, 2\n\
             add.u32 r1, r1, %param0\n\
             st.global.b32 [r1+0], r0\n\
             ld.global.b32 r2, [r1+0]\n\
             exit",
        )
        .unwrap();
        let mut threads = warp(4);
        let mut ctx = MapCtx::default();
        let params = [0x1000u32];
        for pc in 0..3 {
            execute(&p, pc, 0xf, &mut threads, &params, &mut ctx);
        }
        let st = execute(&p, 3, 0xf, &mut threads, &params, &mut ctx);
        assert_eq!(st.accesses.len(), 4);
        assert_eq!(st.accesses[0].kind, AccessKind::Write);
        assert_eq!(st.accesses[3].addr, 0x100c);
        let ld = execute(&p, 4, 0xf, &mut threads, &params, &mut ctx);
        assert_eq!(ld.accesses.len(), 4);
        assert_eq!(threads[3].regs[2], 3);
    }

    #[test]
    fn ztest_kills_failing_lanes() {
        struct ZCtx;
        impl ExecCtx for ZCtx {
            fn load(&mut self, _: MemSpace, _: Addr) -> u32 {
                0
            }
            fn store(&mut self, _: MemSpace, _: Addr, _: u32) {}
            fn tex2d(&mut self, _: u8, _: f32, _: f32, _: &mut Vec<Addr>) -> [f32; 4] {
                [0.0; 4]
            }
            fn ztest(&mut self, x: u32, _: u32, _: f32, _: bool) -> (bool, Addr) {
                (x.is_multiple_of(2), x as Addr * 4) // even x passes
            }
            fn blend(&mut self, _: u32, _: u32, s: [f32; 4]) -> ([f32; 4], Addr) {
                (s, 0)
            }
            fn fb_write(&mut self, _: u32, _: u32, _: [f32; 4]) -> Addr {
                0
            }
        }
        let p = assemble(
            "mov.b32 r0, %input2\n\
             ztest.w r0\n\
             exit",
        )
        .unwrap();
        let mut threads = warp(4);
        for (i, t) in threads.iter_mut().enumerate() {
            t.inputs[input::FRAG_X] = i as u32;
            t.inputs[input::FRAG_Y] = 0;
            t.set_input_f32(input::FRAG_Z, 0.5);
        }
        let mut ctx = ZCtx;
        execute(&p, 0, 0xf, &mut threads, &[], &mut ctx);
        let r = execute(&p, 1, 0xf, &mut threads, &[], &mut ctx);
        assert_eq!(r.killed, 0b1010); // odd x killed
                                      // Passing lanes emit read+write, failing lanes read only.
        let writes = r
            .accesses
            .iter()
            .filter(|a| a.kind == AccessKind::Write)
            .count();
        assert_eq!(writes, 2);
    }

    #[test]
    fn integer_div_by_zero_yields_zero() {
        let p = assemble(
            "mov.b32 r0, 5\n\
             div.s32 r1, r0, 0\n\
             div.u32 r2, r0, 0\n\
             exit",
        )
        .unwrap();
        let mut threads = warp(1);
        let mut ctx = NullCtx;
        for pc in 0..3 {
            execute(&p, pc, 1, &mut threads, &[], &mut ctx);
        }
        assert_eq!(threads[0].regs[1], 0);
        assert_eq!(threads[0].regs[2], 0);
    }

    #[test]
    fn conversions() {
        let p = assemble(
            "mov.b32 r0, 3.7\n\
             cvt.s32.f32 r1, r0\n\
             cvt.f32.s32 r2, r1\n\
             exit",
        )
        .unwrap();
        let mut threads = warp(1);
        let mut ctx = NullCtx;
        for pc in 0..3 {
            execute(&p, pc, 1, &mut threads, &[], &mut ctx);
        }
        assert_eq!(threads[0].regs[1], 3);
        assert_eq!(threads[0].reg_f32(Reg(2)), 3.0);
    }

    #[test]
    fn sel_picks_by_predicate() {
        let p = assemble(
            "mov.b32 r0, %laneid\n\
             setp.eq.s32 p1, r0, 0\n\
             sel.b32 r1, p1, 100, 200\n\
             exit",
        )
        .unwrap();
        let mut threads = warp(2);
        let mut ctx = NullCtx;
        for pc in 0..3 {
            execute(&p, pc, 0b11, &mut threads, &[], &mut ctx);
        }
        assert_eq!(threads[0].regs[1], 100);
        assert_eq!(threads[1].regs[1], 200);
    }
}

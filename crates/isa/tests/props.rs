//! Property tests for the ISA executor, on the in-tree deterministic
//! harness (`emerald_common::check`); the offline build has no proptest.
//!
//! `execute_warp` computes register- and predicate-writing instructions
//! over all 32 lanes and merges the result by mask, so two properties pin
//! what that merge must never do: touch a lane that did not execute, or
//! let one lane's state reach another lane's result.

use emerald_common::check::{check, check_n};
use emerald_common::rng::Xorshift64;
use emerald_isa::exec::NullCtx;
use emerald_isa::op::Instr;
use emerald_isa::reg::NUM_PREDS;
use emerald_isa::{
    assemble, execute, execute_warp, AluKind, CmpOp, DType, Op, Operand, PReg, Program, Reg,
    Special, StepResult, ThreadState, UnaryKind, WarpRegs,
};

const ALU_KINDS: [AluKind; 11] = [
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
];

const UNARY_KINDS: [UnaryKind; 11] = [
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
];

const CMPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

const TYPES: [DType; 3] = [DType::F32, DType::S32, DType::U32];

/// Registers, launch inputs and parameters the random instructions use.
const REGS: u64 = 6;
const INPUTS: u64 = 4;
const PARAMS: u64 = 4;

/// A 32-bit value that is, by turns, raw bits, a small integer, an
/// ordinary float or an integer corner.
fn value(rng: &mut Xorshift64) -> u32 {
    match rng.below(4) {
        0 => rng.next_u32(),
        1 => (rng.range(0, 9) as i32 - 4) as u32,
        2 => ((rng.next_f32() - 0.5) * 200.0).to_bits(),
        _ => [0, 1, u32::MAX, i32::MIN as u32, 31, 32, 33][rng.below(7) as usize],
    }
}

fn operand(rng: &mut Xorshift64) -> Operand {
    match rng.below(6) {
        0 | 1 => Operand::Reg(Reg(rng.below(REGS) as u8)),
        2 => Operand::Special(Special::LaneId),
        3 => Operand::Special(Special::Input(rng.below(INPUTS) as u8)),
        4 => Operand::Special(Special::Param(rng.below(PARAMS) as u8)),
        _ => Operand::ImmI(value(rng)),
    }
}

/// Every register- or predicate-writing op, with random operands: `mov`,
/// `sel`, each two-operand ALU kind at each type, `mad`, a unary op and a
/// `setp` at each type, and `cvt` between every pair of types.
fn writing_ops(rng: &mut Xorshift64) -> Vec<Op> {
    let reg = |rng: &mut Xorshift64| Reg(rng.below(REGS) as u8);
    let pred = |rng: &mut Xorshift64| PReg(rng.below(NUM_PREDS as u64) as u8);
    let mut ops = vec![
        Op::Mov {
            d: reg(rng),
            a: operand(rng),
        },
        Op::Sel {
            d: reg(rng),
            p: pred(rng),
            a: operand(rng),
            b: operand(rng),
        },
    ];
    for ty in TYPES {
        for kind in ALU_KINDS {
            ops.push(Op::Alu {
                kind,
                ty,
                d: reg(rng),
                a: operand(rng),
                b: operand(rng),
            });
        }
        ops.push(Op::Mad {
            ty,
            d: reg(rng),
            a: operand(rng),
            b: operand(rng),
            c: operand(rng),
        });
        ops.push(Op::Unary {
            kind: UNARY_KINDS[rng.below(11) as usize],
            ty,
            d: reg(rng),
            a: operand(rng),
        });
        ops.push(Op::SetP {
            p: pred(rng),
            cmp: CMPS[rng.below(6) as usize],
            ty,
            a: operand(rng),
            b: operand(rng),
        });
        for to in TYPES {
            ops.push(Op::Cvt {
                d: reg(rng),
                a: operand(rng),
                from: ty,
                to,
            });
        }
    }
    ops
}

/// `op` unguarded, under `@p` or under `@!p`, as the first instruction of
/// a program.
fn program(rng: &mut Xorshift64, op: Op) -> (Instr, Program) {
    let p = PReg(rng.below(NUM_PREDS as u64) as u8);
    let instr = match rng.below(3) {
        0 => Instr::new(op),
        k => Instr::guarded(p, k == 2, op),
    };
    let program = Program::new("prop", vec![instr.clone(), Instr::new(Op::Exit)]).unwrap();
    (instr, program)
}

/// A full warp with random registers, inputs and predicates.
fn random_threads(rng: &mut Xorshift64) -> Vec<ThreadState> {
    (0..32)
        .map(|_| {
            let mut t = ThreadState::new();
            t.regs[..REGS as usize].fill_with(|| value(rng));
            t.inputs[..INPUTS as usize].fill_with(|| value(rng));
            t.preds = [(); NUM_PREDS].map(|_| rng.chance(0.5));
            t
        })
        .collect()
}

/// The lanes after `execute_warp` runs pc 0 of `program` under `active`.
fn run(
    program: &Program,
    threads: &[ThreadState],
    active: u32,
    params: &[u32],
) -> Vec<ThreadState> {
    let mut regs = WarpRegs::gather(program, threads);
    let mut res = StepResult::new();
    execute_warp(
        program,
        0,
        active,
        &mut regs,
        params,
        &mut NullCtx,
        &mut res,
    );
    let mut after = threads.to_vec();
    regs.scatter(&mut after);
    after
}

/// The lanes of `active` whose guard lets them execute, read from each
/// lane's own predicate.
fn executed(instr: &Instr, threads: &[ThreadState], active: u32) -> u32 {
    (0..32)
        .filter(|&lane| active >> lane & 1 != 0)
        .filter(|&lane| match instr.guard {
            None => true,
            Some((p, neg)) => threads[lane].preds[p.0 as usize] != neg,
        })
        .fold(0, |m, lane| m | 1 << lane)
}

/// A lane that does not execute keeps every register, input and predicate
/// bit, whatever the op, its guard, its operands and the other lanes.
#[test]
fn masked_lanes_are_untouched() {
    check("masked_lanes_are_untouched", |rng| {
        let params: Vec<u32> = (0..PARAMS).map(|_| value(rng)).collect();
        for op in writing_ops(rng) {
            let (instr, p) = program(rng, op);
            let threads = random_threads(rng);
            let active = rng.next_u32();
            let after = run(&p, &threads, active, &params);
            let ran = executed(&instr, &threads, active);
            for lane in (0..32).filter(|&lane| ran >> lane & 1 == 0) {
                assert_eq!(after[lane], threads[lane], "`{instr}` lane {lane}");
            }
        }
    });
}

/// Running the warp once equals running each lane alone under a one-bit
/// mask: no row merge leaks one lane's value into another.
#[test]
fn lanes_are_independent() {
    check("lanes_are_independent", |rng| {
        let params: Vec<u32> = (0..PARAMS).map(|_| value(rng)).collect();
        for op in writing_ops(rng) {
            let (instr, p) = program(rng, op);
            let threads = random_threads(rng);
            let active = rng.next_u32();
            let whole = run(&p, &threads, active, &params);
            for lane in 0..32 {
                let alone = run(&p, &threads, active & 1 << lane, &params);
                assert_eq!(alone[lane], whole[lane], "`{instr}` lane {lane}");
            }
        }
    });
}

/// What a two-operand integer instruction means, spelled out: wrapping
/// arithmetic, division by zero yields 0, `i32::MIN / -1` wraps, shift
/// amounts are taken mod 32, `shr.s32` is arithmetic.
fn int_alu(kind: AluKind, ty: DType, x: u32, y: u32) -> u32 {
    let (sx, sy, signed) = (x as i32, y as i32, ty == DType::S32);
    match kind {
        AluKind::Add => x.wrapping_add(y),
        AluKind::Sub => x.wrapping_sub(y),
        AluKind::Mul => x.wrapping_mul(y),
        AluKind::Div if y == 0 => 0,
        AluKind::Div if signed && sx == i32::MIN && sy == -1 => x,
        AluKind::Div if signed => (sx / sy) as u32,
        AluKind::Div => x / y,
        AluKind::Min if signed => sx.min(sy) as u32,
        AluKind::Min => x.min(y),
        AluKind::Max if signed => sx.max(sy) as u32,
        AluKind::Max => x.max(y),
        AluKind::And => x & y,
        AluKind::Or => x | y,
        AluKind::Xor => x ^ y,
        AluKind::Shl => x << (y % 32),
        AluKind::Shr if signed => (sx >> (y % 32)) as u32,
        AluKind::Shr => x >> (y % 32),
    }
}

/// Every integer ALU kind at `s32` and `u32` on 32 lanes with distinct
/// operands, corner pairs among them, against [`int_alu`].
#[test]
fn integer_alu_oracle() {
    const CORNERS: [(u32, u32); 9] = [
        (5, 0),
        (0, 0),
        (i32::MIN as u32, -1i32 as u32),
        (u32::MAX, 0),
        (7, 32),
        (7, 33),
        (i32::MIN as u32, 63),
        (1, u32::MAX),
        (u32::MAX, 1),
    ];
    check("integer_alu_oracle", |rng| {
        let mut pairs: Vec<(u32, u32)> = (0..32).map(|_| (value(rng), value(rng))).collect();
        let at = rng.below(32) as usize;
        for (i, &corner) in CORNERS.iter().enumerate() {
            pairs[(at + 3 * i) % 32] = corner;
        }
        let threads: Vec<ThreadState> = pairs
            .iter()
            .map(|&(x, y)| {
                let mut t = ThreadState::new();
                t.inputs[..2].copy_from_slice(&[x, y]);
                t
            })
            .collect();
        for ty in [DType::S32, DType::U32] {
            for kind in ALU_KINDS {
                let op = Op::Alu {
                    kind,
                    ty,
                    d: Reg(2),
                    a: Operand::Special(Special::Input(0)),
                    b: Operand::Special(Special::Input(1)),
                };
                let p = Program::new("alu", vec![Instr::new(op), Instr::new(Op::Exit)]).unwrap();
                let after = run(&p, &threads, u32::MAX, &[]);
                for (t, &(x, y)) in after.iter().zip(&pairs) {
                    let want = int_alu(kind, ty, x, y);
                    assert_eq!(t.regs[2], want, "{kind:?}.{ty} {x:#x}, {y:#x}");
                }
            }
        }
    });
}

/// f32 ALU semantics match Rust's f32 arithmetic bit-for-bit.
#[test]
fn float_alu_oracle() {
    check("float_alu_oracle", |rng| {
        let x = (rng.next_f32() * 2.0 - 1.0) * 1e6;
        let y = (rng.next_f32() * 2.0 - 1.0) * 1e6;
        let p = assemble(
            "mov.b32 r0, %param0\n\
             mov.b32 r1, %param1\n\
             add.f32 r2, r0, r1\n\
             mul.f32 r3, r0, r1\n\
             mad.f32 r4, r0, r1, r2\n\
             exit",
        )
        .unwrap();
        let mut threads = vec![ThreadState::new(); 1];
        let mut ctx = NullCtx;
        for pc in 0..p.len() {
            execute(
                &p,
                pc,
                1,
                &mut threads,
                &[x.to_bits(), y.to_bits()],
                &mut ctx,
            );
        }
        let t = &threads[0];
        assert_eq!(t.reg_f32(emerald_isa::Reg(2)), x + y);
        assert_eq!(t.reg_f32(emerald_isa::Reg(3)), x * y);
        // mad = two-step multiply-add (not fused).
        assert_eq!(t.reg_f32(emerald_isa::Reg(4)), x * y + (x + y));
    });
}

/// setp comparisons agree with Rust comparisons for every operator.
#[test]
fn setp_oracle() {
    check_n("setp_oracle", 128, |rng| {
        // Mix raw 32-bit patterns with small values so eq/lt/ge all fire.
        let x = if rng.chance(0.5) {
            rng.next_u32() as i32
        } else {
            rng.range(0, 8) as i32 - 4
        };
        let y = if rng.chance(0.5) {
            rng.next_u32() as i32
        } else {
            rng.range(0, 8) as i32 - 4
        };
        let src = "mov.b32 r0, %param0\nmov.b32 r1, %param1\n\
            setp.eq.s32 p0, r0, r1\nsetp.lt.s32 p1, r0, r1\nsetp.ge.s32 p2, r0, r1\nexit";
        let p = assemble(src).unwrap();
        let mut threads = vec![ThreadState::new(); 1];
        let mut ctx = NullCtx;
        for pc in 0..p.len() {
            execute(&p, pc, 1, &mut threads, &[x as u32, y as u32], &mut ctx);
        }
        assert_eq!(threads[0].preds[0], x == y);
        assert_eq!(threads[0].preds[1], x < y);
        assert_eq!(threads[0].preds[2], x >= y);
    });
}

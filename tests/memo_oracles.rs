//! The change-driven memos on the paths the benchmark times.
//!
//! In a debug build every memo carries its own oracle: a skipped
//! `TcStage::pop_ready` scan runs anyway and must find nothing, a
//! memoised `Cache::access` stall re-runs the lookup and must get the same
//! reason, and `SimtCore::cycle` rebuilds its warp-readiness slot masks
//! from the definitions the warps' cached scheduler views stand for and
//! asserts them equal. These tests only have to drive the benchmark's workload shapes
//! through them (release builds compile the oracles out, so there they
//! check the numeric results alone), plus the one property that needs the
//! conformance program generator.
//!
//! The memory system's memos (the single-pass `pick`, the boundary-gated
//! DASH roll, each channel's cached earliest completion) carry no debug
//! oracle — its allocation bars must hold under plain `cargo test` — and
//! are property-tested against their references inside `crates/mem`,
//! where the state they need is visible; the check that they left the
//! snapshot bytes alone is here.

use emerald::common::check::check;
use emerald::common::rng::Xorshift64;
use emerald::common::types::{AccessKind, Addr};
use emerald::gpu::simt::SimtStack;
use emerald::gpu::GlobalMemCtx;
use emerald::isa::op::{MemSpace, Op};
use emerald::isa::{execute, execute_warp, ExecCtx, Outcome, StepResult, ThreadState, WarpRegs};
use emerald::mem::dash::{Clustering, DashConfig};
use emerald::mem::MemRequest;
use emerald::prelude::*;
use emerald_conformance::gen_program;
use std::sync::Arc;

fn sum_of(reg: &Registry, suffix: &str) -> f64 {
    reg.iter()
        .filter(|(path, _)| path.ends_with(suffix))
        .map(|(_, v)| v.scalar())
        .sum()
}

/// `soc_dense` in miniature: M1 on the case-study-I SoC under DASH (DCB),
/// the regime where the TC stage and the LSU heads are blocked in almost
/// every cycle.
#[test]
fn soc_frame_runs_every_oracle() {
    let (w, h) = (64, 48);
    let model = workloads::m_models().swap_remove(0);
    let memsys = MemCfgKind::Dcb.build(DramConfig::lpddr3_1333());
    let mut soc = Soc::new(SocConfig::case_study_1(memsys, w, h, 200_000));
    let binding = SceneBinding::new(&soc.mem, &model);
    let draw = binding.draw_for_frame(0, w as f32 / h as f32, false);
    let frame = soc.run_frame(vec![draw], 600_000_000);
    assert!(frame.gfx.fragments > 0 && frame.gpu_cycles > 0);

    let mut reg = Registry::new();
    soc.publish(&mut reg);
    assert!(sum_of(&reg, ".tc_tiles") > 0.0, "no TC tile was shaded");
    assert!(
        sum_of(&reg, ".stalls") > 1_000.0,
        "the frame never blocked an LSU head: {} stalls",
        sum_of(&reg, ".stalls")
    );
}

/// The three `gpgpu_mix` kernel shapes (streaming `saxpy`, a divergent
/// clamp, a `bar.sync` reduction tree) at n = 4096 on the case-study-I
/// GPU, checked against the host.
#[test]
fn compute_kernels_run_every_oracle() {
    const N: usize = 4096;
    const CTA: usize = 64;
    let mem = SharedMem::with_capacity(1 << 24);
    let mut gpu = Gpu::new(GpuConfig::case_study_1());
    let mut ctx = GlobalMemCtx::new(mem.clone());
    let mut port = SimpleMemPort::new(MemorySystem::new(MemorySystemConfig::baseline(
        2,
        DramConfig::lpddr3_1600(),
    )));
    let words = |n: usize| mem.alloc((n * 4) as u64, 128);
    let (x, y, v, r_in, r_out) = (words(N), words(N), words(N), words(N), words(N / CTA));
    for i in 0..N {
        let at = (i * 4) as u64;
        mem.write_f32(x + at, i as f32);
        mem.write_f32(y + at, 1.0);
        mem.write_f32(v + at, i as f32 - 2048.0);
        mem.write_u32(r_in + at, 1 + (i % 7) as u32);
    }
    let kernel = |src: &str, params: Vec<u32>| {
        Kernel::linear(Arc::new(assemble(src).unwrap()), N, CTA, params)
    };
    let saxpy = kernel(
        "mov.b32 r0, %input0
         shl.u32 r1, r0, 2
         add.u32 r2, r1, %param0
         add.u32 r3, r1, %param1
         ld.global.b32 r4, [r2+0]
         ld.global.b32 r5, [r3+0]
         mov.b32 r6, %param2
         mad.f32 r7, r6, r4, r5
         st.global.b32 [r3+0], r7
         exit",
        vec![x as u32, y as u32, 2.0f32.to_bits()],
    );
    let clamp = kernel(
        "mov.b32 r0, %input0
         shl.u32 r1, r0, 2
         add.u32 r1, r1, %param0
         ld.global.b32 r2, [r1+0]
         setp.lt.f32 p0, r2, 0.0
         @p0 bra NEG, reconv=JOIN
         mul.f32 r3, r2, 2.0
         bra JOIN, reconv=JOIN
         NEG:
         mov.b32 r3, 0.0
         JOIN:
         st.global.b32 [r1+0], r3
         exit",
        vec![v as u32],
    );
    let mut reduce = kernel(
        "mov.b32 r0, %input2
         mov.b32 r1, %input0
         shl.u32 r2, r1, 2
         add.u32 r2, r2, %param0
         ld.global.b32 r3, [r2+0]
         shl.u32 r4, r0, 2
         add.u32 r4, r4, %input3
         st.shared.b32 [r4+0], r3
         bar.sync
         mov.b32 r5, 32
         LOOP:
         setp.lt.u32 p0, r0, r5
         @p0 add.u32 r6, r0, r5
         @p0 shl.u32 r6, r6, 2
         @p0 add.u32 r6, r6, %input3
         @p0 ld.shared.b32 r7, [r6+0]
         @p0 ld.shared.b32 r8, [r4+0]
         @p0 add.u32 r8, r8, r7
         @p0 st.shared.b32 [r4+0], r8
         bar.sync
         shr.u32 r5, r5, 1
         setp.ge.u32 p1, r5, 1
         @p1 bra LOOP, reconv=DONE
         DONE:
         setp.eq.u32 p2, r0, 0
         @p2 mov.b32 r9, %input1
         @p2 shl.u32 r9, r9, 2
         @p2 add.u32 r9, r9, %param1
         @p2 ld.shared.b32 r10, [r4+0]
         @p2 st.global.b32 [r9+0], r10
         exit",
        vec![r_in as u32, r_out as u32],
    );
    reduce.shared_bytes = (CTA * 4) as u32;

    let mut now = 0;
    for k in [saxpy, clamp, reduce] {
        gpu.launch_kernel(k);
        now += gpu.run_to_idle(now, 50_000_000, &mut ctx, &mut port);
    }
    for i in 0..N {
        let at = (i * 4) as u64;
        assert_eq!(mem.read_f32(y + at), 2.0 * i as f32 + 1.0, "saxpy {i}");
        let x = i as f32 - 2048.0;
        let want = if x < 0.0 { 0.0 } else { x * 2.0 };
        assert_eq!(mem.read_f32(v + at), want, "clamp {i}");
    }
    for cta in 0..N / CTA {
        let want: u32 = (cta * CTA..(cta + 1) * CTA)
            .map(|i| 1 + (i % 7) as u32)
            .sum();
        assert_eq!(mem.read_u32(r_out + (cta * 4) as u64), want, "reduce {cta}");
    }
    let mut reg = Registry::new();
    gpu.publish(&mut reg, "gpu");
    assert!(
        sum_of(&reg, ".stalls") > 1_000.0,
        "no LSU head ever blocked"
    );
}

/// A context that answers every call from the arguments alone and keeps a
/// log of the calls, so two executions can be compared call for call.
#[derive(Default, PartialEq, Debug)]
struct LogCtx(Vec<(u64, u64)>);

impl LogCtx {
    fn note(&mut self, a: u64, b: u64) -> u32 {
        self.0.push((a, b));
        (a ^ b.rotate_left(17)).wrapping_mul(0x9e37_79b9_7f4a_7c15) as u32
    }
}

impl ExecCtx for LogCtx {
    fn load(&mut self, space: MemSpace, addr: Addr) -> u32 {
        self.note(space as u64, addr)
    }
    fn store(&mut self, space: MemSpace, addr: Addr, value: u32) {
        self.note(space as u64 | 8, addr ^ (value as u64) << 32);
    }
    fn tex2d(&mut self, s: u8, u: f32, v: f32, texels: &mut Vec<Addr>) -> [f32; 4] {
        let h = self.note(
            s as u64 | 16,
            (u.to_bits() as u64) << 32 | v.to_bits() as u64,
        );
        // One to four texel lines, appended as the real samplers do.
        texels.extend((0..1 + h % 4).map(|i| (h as Addr + i as Addr) * 64));
        [h as f32, 1.0, 2.0, 3.0]
    }
    fn ztest(&mut self, x: u32, y: u32, z: f32, write: bool) -> (bool, Addr) {
        let h = self.note(
            32 | write as u64,
            (x as u64) << 40 | (y as u64) << 20 | z.to_bits() as u64,
        );
        (!h.is_multiple_of(3), h as Addr * 4)
    }
    fn blend(&mut self, x: u32, y: u32, src: [f32; 4]) -> ([f32; 4], Addr) {
        let h = self.note(64, (x as u64) << 32 | y as u64);
        (src.map(|c| c * 0.5), h as Addr * 4)
    }
    fn fb_write(&mut self, x: u32, y: u32, rgba: [f32; 4]) -> Addr {
        self.note(128, (x as u64) << 32 | y as u64 ^ rgba[0].to_bits() as u64) as Addr * 4
    }
}

/// Walks one warp through `program` twice in lockstep — `execute` on
/// per-lane `ThreadState`s, passing `stray` mask bits beyond the warp's
/// threads, and `execute_warp`, the cores' entry point, on one `WarpRegs`
/// carried across the walk under the warp's own lanes, with one result
/// reused (and deliberately left dirty) throughout. The results, the
/// context logs and the per-lane state (the register file scattered back)
/// must agree at every pc. Returns instructions stepped.
fn lockstep(program: &Program, threads: Vec<ThreadState>, params: &[u32], stray: u32) -> u64 {
    let lanes = (1u64 << threads.len()) - 1;
    let mut stack = SimtStack::new(lanes as u32);
    let mut regs = WarpRegs::gather(program, &threads);
    let mut scattered = threads.clone();
    let mut fresh_t = threads;
    let (mut fresh_ctx, mut warp_ctx) = (LogCtx::default(), LogCtx::default());
    let mut warp_res = StepResult::new();
    let mut steps = 0;
    while !stack.is_done() && steps < 20_000 {
        let (pc, mask) = (stack.pc(), stack.active_mask() | stray);
        let logged = fresh_ctx.0.len();
        let fresh = execute(program, pc, mask, &mut fresh_t, params, &mut fresh_ctx);
        warp_res.killed = u32::MAX;
        warp_res.outcome = Outcome::Exit;
        let mask = stack.active_mask();
        execute_warp(
            program,
            pc,
            mask,
            &mut regs,
            params,
            &mut warp_ctx,
            &mut warp_res,
        );
        assert_eq!(warp_res, fresh, "pc {pc}");
        assert_eq!(warp_ctx.0[logged..], fresh_ctx.0[logged..], "pc {pc}");
        regs.scatter(&mut scattered);
        assert_eq!(scattered, fresh_t, "pc {pc}");
        assert!(fresh.accesses.iter().all(|a| lanes >> a.lane & 1 != 0));
        steps += 1;
        if fresh.killed != 0 {
            stack.retire_lanes(fresh.killed);
        }
        match fresh.outcome {
            Outcome::Next if !stack.is_done() && stack.pc() == pc => stack.advance(),
            Outcome::Next => {}
            Outcome::Branch { taken } => {
                let Op::Bra { target, reconv } = program.instr(pc).op else {
                    unreachable!("branch outcome from non-branch op");
                };
                stack.branch(taken, target, reconv);
            }
            Outcome::Exit => stack.exit_path(),
            Outcome::Barrier => stack.advance(),
        }
    }
    assert!(stack.is_done(), "still running after {steps} instructions");
    assert_eq!(warp_ctx, fresh_ctx);
    steps
}

/// `execute` on per-lane threads is `execute_warp` on a carried register
/// file with a reused, dirty `StepResult`: over random compute programs
/// (loads, stores, divergence, barriers) on a full warp and on a 5-thread
/// warp called with stray high mask bits, and over a fragment shader that
/// samples, depth-tests, blends and writes.
#[test]
fn execute_matches_execute_warp_on_a_carried_file() {
    let fragment = assemble(
        "mov.b32 r0, %input3
         mov.b32 r1, %input4
         tex2d r4, [r0, r1], s0
         mov.b32 r2, %input2
         ztest.w r2
         mul.f32 r4, r4, %input5
         tex2d r8, [r1, r0], s1
         add.f32 r5, r5, r8
         blend r4
         fbwrite r4
         ztest r2
         exit",
    )
    .unwrap();
    check("execute_vs_execute_warp", |rng| {
        let gp = gen_program(rng);
        let params: Vec<u32> = (0..8).map(|_| rng.next_u32() & 0xffff).collect();
        for (n, stray) in [(32, 0), (5, 0xffff_ff00)] {
            let threads: Vec<ThreadState> = (0..n)
                .map(|lane| {
                    let mut t = ThreadState::new();
                    t.inputs[0] = lane;
                    t.inputs[2] = lane;
                    t.inputs[3..8].fill_with(|| rng.next_u32() >> 12);
                    t
                })
                .collect();
            assert!(lockstep(&gp.program(), threads.clone(), &params, stray) > 0);
            // Everything up to the first depth test runs whoever survives it.
            assert!(lockstep(&fragment, threads, &params, stray) >= 5);
        }
    });
}

/// What the parent of the owned-DASH change (PR 19, `0ebbf1e`) writes for
/// the memory system [`dcb_snapshot_scenario`] builds, as hex: 1 992 bytes
/// with three CPU threads in `cpu_bytes`, two of them `intensive`, two
/// `urgent` IPs and both channels mid-burst.
const PARENT_DCB_SNAPSHOT: &str = "\
    0200000000000000010000006d0300000000000008000000000000000105000000000000001b020000000000\
    00010700000000000000db030000000000000103000000000000001704000000000000010400000000000000\
    9b030000000000000101000000000000005702000000000000010300000000000000cf020000000000000100\
    00000000000000c701000000000000010200000000000000b303000000000000060000000000000032000000\
    0000000000690200000000008000000001000000000000000000a30300000000000000000000000000000000\
    000000000000030000000000000002000000000000000900000000000000a303000000000000300000000000\
    000000de03000000000080000000000001000000000000006103000000000000000000000000000000000000\
    00000000060000000000000003000000000000001e0000000000000061030000000000002200000000000000\
    00880700000000008000000000011d0200000000000000000000000000000000000000000000040000000000\
    0000070000000000000008000000000000001d02000000000000270000000000000000960700000000008000\
    0000000001000000000000009502000000000000000000000000000000000000000000000400000000000000\
    0700000000000000160000000000000095020000000000002b0000000000000000fd00000000000080000000\
    00000100000000000000ee020000000000000000000000000000000000000000000007000000000000000000\
    0000000000001d00000000000000ee02000000000000360000000000000000d9060000000000800000000002\
    dc03000000000000000000000000000000000000000000000600000000000000060000000000000019000000\
    00000000dc030000000000002f040000000000000200000000000000f3030000000000001800000000000000\
    00210700000000008000000000013d010000000000002f040000000000003300000000000000004b03000000\
    0000800000000002b403000000000000040000000000000016000000000000001200000000000000000b0000\
    000000001600000000000000fd0f0000000000000f0000000000000005000000000000000000000000000000\
    0080010000000000000001000000000000008005000000000000000200000000000000000100000000000001\
    8002000000000000028000000000000000010000008503000000000000080000000000000001040000000000\
    0000b9030000000000000104000000000000000d040000000000000105000000000000004501000000000000\
    010000000000000000d101000000000000010400000000000000b102000000000000010200000000000000d1\
    03000000000000010500000000000000ed020000000000000102000000000000004103000000000000060000\
    00000000002c00000000000000804f0000000000008000000001000100000000000000fc0200000000000001\
    000000000000000000000000000000020000000000000000000000000000000f00000000000000fc02000000\
    0000002d00000000000000802d06000000000080000000000001000000000000003003000000000000010000\
    00000000000000000000000000010000000000000006000000000000000d0000000000000030030000000000\
    002800000000000000804e030000000000800000000001a00200000000000001000000000000000000000000\
    000000020000000000000003000000000000000e00000000000000a002000000000000240000000000000080\
    5907000000000080000000000001000000000000003902000000000000010000000000000000000000000000\
    0002000000000000000700000000000000190000000000000039020000000000003400000000000000809105\
    00000000008000000001000100000000000000bb030000000000000100000000000000000000000000000004\
    0000000000000005000000000000001100000000000000bb0300000000000035000000000000008027060000\
    0000008000000000000000000000000000d70300000000000001000000000000000000000000000000010000\
    000000000006000000000000000700000000000000d703000000000000250400000000000002000000000000\
    0025040000000000002f00000000000000803104000000000080000000000000000000000000004303000000\
    000000e903000000000000310000000000000080b40200000000008000000000000100000000000000940300\
    0000000000030000000000000015000000000000001200000000000000800a00000000000015000000000000\
    00920f0000000000001100000000000000050000000000000000000000000000000080010000000000000001\
    0000000000000080040000000000000002000000000000000001000000000000010002000000000000028001\
    0000000000000103000000000000000000000000000000800000000000000001000000000000000002000000\
    0000000200000000000000000100000000000080010000000000000200000000000000000000000000000001\
    00000000000000020000000000000002030300000000000000b004000000000000e803000000000000343333\
    333333d33f010c000000000000001004000000000000020000000000000000000000000000008230f43c6365\
    f28802000000000000000000\
";

/// A DCB memory system 1 000 cycles into mixed CPU/GPU/display traffic:
/// two quanta rolled, windows switched twenty times, queues and
/// in-service slabs populated.
fn dcb_snapshot_scenario() -> MemorySystem {
    let dash = DashConfig {
        quantum: 400,
        switching_unit: 50,
        shuffling_interval: 80,
        ..DashConfig::paper(Clustering::CpuOnly)
    };
    let dram = DramConfig {
        queue_cap: 6,
        ..DramConfig::lpddr3_1333()
    };
    let mut ms = MemorySystem::new(MemorySystemConfig::dash(2, dram, dash));
    let mut rng = Xorshift64::new(0x5EED);
    let mut id = 0u64;
    for now in 0..1_000u64 {
        if now == 300 {
            let dash = ms.dash_mut().unwrap();
            dash.update_progress(TrafficSource::Display, 0.1, 0.9);
        }
        if now == 700 {
            let dash = ms.dash_mut().unwrap();
            dash.update_progress(TrafficSource::OtherIp(3), 0.5, 0.95);
        }
        if rng.chance(0.12) {
            let source = match rng.below(8) {
                0 => TrafficSource::Cpu(0),
                1..=3 => TrafficSource::Cpu(1),
                4 => TrafficSource::Cpu(2),
                5 => TrafficSource::Display,
                _ => TrafficSource::Gpu,
            };
            let req = MemRequest {
                id,
                addr: rng.below(1 << 12) * 128,
                bytes: 128,
                kind: if rng.chance(0.8) {
                    AccessKind::Read
                } else {
                    AccessKind::Write
                },
                source,
                issued: now,
            };
            if ms.enqueue(req, now).is_ok() {
                id += 1;
            }
        }
        ms.tick(now);
        ms.drain_finished(now);
    }
    ms
}

/// The memory-system section writes the parent's bytes, and restores them
/// to a system that writes them again. `snap::FORMAT_VERSION` is 3 since
/// the request-id generators left the SoC and the GPU, yet the hex is
/// unchanged: the container version moved, this section did not.
#[test]
fn dcb_memory_system_snapshots_to_the_parents_bytes() {
    use emerald::common::snap::{encode, SnapReader, FORMAT_VERSION};
    assert_eq!(FORMAT_VERSION, 3);
    let hex = |bytes: &[u8]| bytes.iter().map(|b| format!("{b:02x}")).collect::<String>();
    let snapshot = |ms: &mut MemorySystem| encode(|w| ms.walk(w));

    let mut ms = dcb_snapshot_scenario();
    let dash = ms.dash().unwrap();
    assert!(dash.is_intensive(0) && dash.is_intensive(1) && dash.quanta == 2);
    assert!(dash.is_urgent(TrafficSource::Display) && dash.is_urgent(TrafficSource::OtherIp(3)));
    let bytes = snapshot(&mut ms);
    assert_eq!(hex(&bytes), PARENT_DCB_SNAPSHOT);

    let mut twin = MemorySystem::new(ms.config().clone());
    let mut r = SnapReader::new(&bytes);
    twin.walk(&mut r).unwrap();
    r.finish().unwrap();
    assert_eq!(hex(&snapshot(&mut twin)), PARENT_DCB_SNAPSHOT);
}

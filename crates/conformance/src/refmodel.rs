//! Scalar reference walk of a compute kernel.
//!
//! Executes a [`Kernel`] warp-instruction by warp-instruction through
//! `emerald_isa::execute` with no timing model at all: no cores, caches,
//! scoreboards or schedulers — just a minimal, independently implemented
//! IPDOM reconvergence stack and a round-robin warp walk that honours CTA
//! barriers. For schedule-independent programs (what [`crate::proggen`]
//! emits) the resulting memory image, per-warp instruction count and
//! retired-warp count must match the timing model bit for bit; any
//! difference is a bug in the pipeline, not in the program.
//!
//! The walk shares the functional executor with the cores:
//! `emerald_isa::execute` is a gather/scatter adapter over the one
//! `execute_warp`, so the two sides differ only in timing. What it
//! re-states instead is everything around the executor. Its lanes are
//! per-thread `ThreadState`s, and their launch inputs are filled here from
//! the input conventions rather than by `Kernel::warp_regs`. The stack
//! re-states the IPDOM rules rather than importing
//! `emerald_gpu::simt::SimtStack`. A regression in either shows up as a
//! divergence instead of cancelling out.

use emerald_gpu::kernel::{Kernel, INPUT_SHARED_BASE};
use emerald_isa::op::Op;
use emerald_isa::reg::input;
use emerald_isa::{execute, ExecCtx, Outcome, ThreadState};

/// Aggregate results of a reference walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct RefResult {
    /// Warp-instructions executed (one per `execute` call), the analogue
    /// of the timing model's `issued` counter.
    pub instructions: u64,
    /// Warps retired.
    pub warps_retired: u64,
}

const NO_RECONV: usize = usize::MAX;

/// One path of the reference stack: run at `pc` with `mask` until
/// `pc == rpc`.
#[derive(Debug, Clone, Copy)]
struct Path {
    pc: usize,
    rpc: usize,
    mask: u32,
}

/// Minimal IPDOM stack (independent of the GPU crate's implementation).
#[derive(Debug)]
struct RefStack(Vec<Path>);

impl RefStack {
    fn new(mask: u32) -> Self {
        Self(vec![Path {
            pc: 0,
            rpc: NO_RECONV,
            mask,
        }])
    }

    fn done(&self) -> bool {
        self.0.is_empty()
    }

    fn pc(&self) -> usize {
        self.0.last().expect("live stack").pc
    }

    fn mask(&self) -> u32 {
        self.0.last().map_or(0, |p| p.mask)
    }

    /// Pops paths that are exhausted (empty mask) or have reached their
    /// reconvergence point.
    fn settle(&mut self) {
        while let Some(p) = self.0.last() {
            if p.mask == 0 || (p.rpc != NO_RECONV && p.pc == p.rpc) {
                self.0.pop();
            } else {
                break;
            }
        }
    }

    fn advance(&mut self) {
        if let Some(p) = self.0.last_mut() {
            p.pc += 1;
        }
        self.settle();
    }

    fn branch(&mut self, taken: u32, target: usize, reconv: usize) {
        let Some(top) = self.0.last().copied() else {
            return;
        };
        let taken = taken & top.mask;
        let fall = top.mask & !taken;
        if taken == 0 {
            self.0.last_mut().expect("top").pc = top.pc + 1;
        } else if fall == 0 {
            self.0.last_mut().expect("top").pc = target;
        } else {
            // Divergence: top becomes the reconvergence placeholder; the
            // taken path is pushed last so it executes first.
            self.0.last_mut().expect("top").pc = reconv;
            self.0.push(Path {
                pc: top.pc + 1,
                rpc: reconv,
                mask: fall,
            });
            self.0.push(Path {
                pc: target,
                rpc: reconv,
                mask: taken,
            });
        }
        self.settle();
    }

    fn retire(&mut self, mask: u32) {
        for p in &mut self.0 {
            p.mask &= !mask;
        }
        self.settle();
    }
}

struct RefWarp {
    stack: RefStack,
    threads: Vec<ThreadState>,
    at_barrier: bool,
}

/// Walks every warp of `kernel` to completion against `ctx`, mirroring the
/// dispatcher's CTA geometry (sequential shared-memory carving, 256-byte
/// aligned) and barrier semantics (a barrier releases when every warp of
/// the CTA has reached it).
///
/// # Panics
///
/// Panics if the kernel deadlocks at a barrier (some warps exit while
/// others wait), which generated conformance programs never do.
pub(crate) fn run_reference(kernel: &Kernel, ctx: &mut dyn ExecCtx) -> RefResult {
    let mut res = RefResult::default();
    let shared_stride = (kernel.shared_bytes + 255) & !255;
    for cta in 0..kernel.grid_ctas {
        let shared_base = cta as u32 * shared_stride;
        let mut warps: Vec<RefWarp> = (0..kernel.warps_per_cta())
            .map(|w| {
                let first = w * 32;
                let threads: Vec<ThreadState> = (first..kernel.threads_per_cta.min(first + 32))
                    .map(|tid_in_cta| {
                        let mut t = ThreadState::new();
                        t.inputs[input::ID] = (cta * kernel.threads_per_cta + tid_in_cta) as u32;
                        t.inputs[input::CTA_ID] = cta as u32;
                        t.inputs[input::TID_IN_CTA] = tid_in_cta as u32;
                        t.inputs[INPUT_SHARED_BASE] = shared_base;
                        t
                    })
                    .collect();
                let mask = if threads.len() >= 32 {
                    u32::MAX
                } else {
                    (1u32 << threads.len()) - 1
                };
                RefWarp {
                    stack: RefStack::new(mask),
                    threads,
                    at_barrier: false,
                }
            })
            .collect();

        loop {
            let mut ran_any = false;
            for w in warps.iter_mut() {
                if w.stack.done() || w.at_barrier {
                    continue;
                }
                ran_any = true;
                // Run this warp until it retires or reaches a barrier.
                while !w.stack.done() && !w.at_barrier {
                    let pc = w.stack.pc();
                    let mask = w.stack.mask();
                    let step = execute(
                        &kernel.program,
                        pc,
                        mask,
                        &mut w.threads,
                        &kernel.params,
                        ctx,
                    );
                    res.instructions += 1;
                    if step.killed != 0 {
                        w.stack.retire(step.killed);
                    }
                    match step.outcome {
                        Outcome::Next => {
                            if !w.stack.done() && w.stack.pc() == pc {
                                w.stack.advance();
                            }
                        }
                        Outcome::Branch { taken } => {
                            let Op::Bra { target, reconv } = kernel.program.instr(pc).op else {
                                unreachable!("branch outcome from non-branch op");
                            };
                            w.stack.branch(taken, target, reconv);
                        }
                        Outcome::Exit => {
                            let m = w.stack.mask();
                            w.stack.retire(m);
                        }
                        Outcome::Barrier => {
                            w.stack.advance();
                            w.at_barrier = true;
                        }
                    }
                }
                if w.stack.done() {
                    res.warps_retired += 1;
                }
            }
            if warps.iter().all(|w| w.stack.done()) {
                break;
            }
            if !ran_any {
                // Everyone left is parked at the barrier: release it.
                let stuck = warps.iter().any(|w| w.at_barrier);
                assert!(stuck, "reference walk wedged without a barrier");
                for w in warps.iter_mut() {
                    w.at_barrier = false;
                }
            }
        }
    }
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use emerald_gpu::GlobalMemCtx;
    use emerald_isa::assemble;
    use emerald_mem::SharedMem;
    use std::sync::Arc;

    #[test]
    fn straight_line_kernel_counts_and_writes() {
        // Each thread stores its gid*3 to its own slot.
        let src = "
            mov.b32 r0, %input0
            shl.u32 r1, r0, 2
            add.u32 r1, r1, %param0
            mul.u32 r2, r0, 3
            st.global.b32 [r1+0], r2
            exit";
        let prog = Arc::new(assemble(src).unwrap());
        let mem = SharedMem::with_capacity(1 << 16);
        let base = mem.alloc(64 * 4, 128);
        let k = Kernel::linear(prog, 64, 32, vec![base as u32]);
        let mut ctx = GlobalMemCtx::new(mem.clone());
        let r = run_reference(&k, &mut ctx);
        // 6 instructions × 2 warps.
        assert_eq!(r.instructions, 12);
        assert_eq!(r.warps_retired, 2);
        for gid in 0..64u64 {
            assert_eq!(mem.read_u32(base + gid * 4), gid as u32 * 3);
        }
    }

    #[test]
    fn divergent_branch_reconverges() {
        // Even lanes add 10, odd lanes add 20; all store the result.
        let src = "
            mov.b32 r0, %input0
            and.u32 r1, r0, 1
            setp.eq.u32 p0, r1, 0
            shl.u32 r2, r0, 2
            add.u32 r2, r2, %param0
            @p0 bra EVEN, reconv=DONE
            add.u32 r3, r0, 20
            bra DONE
        EVEN:
            add.u32 r3, r0, 10
        DONE:
            st.global.b32 [r2+0], r3
            exit";
        let prog = Arc::new(assemble(src).unwrap());
        let mem = SharedMem::with_capacity(1 << 16);
        let base = mem.alloc(32 * 4, 128);
        let k = Kernel::linear(prog, 32, 32, vec![base as u32]);
        let mut ctx = GlobalMemCtx::new(mem.clone());
        let r = run_reference(&k, &mut ctx);
        assert_eq!(r.warps_retired, 1);
        for gid in 0..32u64 {
            let want = if gid % 2 == 0 { gid + 10 } else { gid + 20 };
            assert_eq!(mem.read_u32(base + gid * 4), want as u32, "gid {gid}");
        }
    }

    #[test]
    fn barrier_orders_shared_memory_exchange() {
        // Thread t writes its gid to shared slot t, barriers, then reads
        // slot (t+1) % cta and stores what it saw.
        let src = "
            mov.b32 r0, %input0
            mov.b32 r4, %input2
            shl.u32 r1, r4, 2
            add.u32 r1, r1, %input3
            st.shared.b32 [r1+0], r0
            bar.sync
            add.u32 r2, r4, 1
            and.u32 r2, r2, 63
            shl.u32 r2, r2, 2
            add.u32 r2, r2, %input3
            ld.shared.b32 r3, [r2+0]
            shl.u32 r5, r0, 2
            add.u32 r5, r5, %param0
            st.global.b32 [r5+0], r3
            exit";
        let prog = Arc::new(assemble(src).unwrap());
        let mem = SharedMem::with_capacity(1 << 16);
        let base = mem.alloc(128 * 4, 128);
        let mut k = Kernel::linear(prog, 128, 64, vec![base as u32]);
        k.shared_bytes = 64 * 4;
        let mut ctx = GlobalMemCtx::new(mem.clone());
        let r = run_reference(&k, &mut ctx);
        assert_eq!(r.warps_retired, 4);
        for gid in 0..128u64 {
            let cta = gid / 64;
            let tid = gid % 64;
            let want = cta * 64 + (tid + 1) % 64;
            assert_eq!(mem.read_u32(base + gid * 4), want as u32, "gid {gid}");
        }
    }
}

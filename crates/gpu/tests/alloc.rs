//! Exact heap-allocation counts for `SimtCore`'s steady state.
//!
//! The per-cycle walk is meant to cost work proportional to what changed
//! and to leave the allocator alone once its queues have seen their peak.
//! A timing cannot pin that down on a noisy host; a count can, exactly:
//! the test binary's global allocator bumps a thread-local counter, so
//! each test reads only the allocations its own thread made.

use emerald_common::types::{AccessKind, CoreId};
use emerald_gpu::core::SimtCore;
use emerald_gpu::{GlobalMemCtx, GpuConfig, ImageCtx, Warp, WarpTag};
use emerald_isa::{assemble, Program, WarpRegs};
use emerald_mem::image::SharedMem;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::Arc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

impl Counting {
    fn bump() {
        // `try_with`: the allocator also runs while a thread tears down.
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a plain thread-local `Cell`
// that neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::bump();
        // SAFETY: the caller's obligations for `alloc` pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::bump();
        // SAFETY: as for `dealloc`; size and layout are the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations (and reallocations) this thread makes while `f` runs.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.get();
    f();
    ALLOCS.get() - before
}

fn ctx() -> GlobalMemCtx {
    GlobalMemCtx::new(SharedMem::with_capacity(1 << 20))
}

fn warp(program: &Arc<Program>, params: Vec<u32>, tag: u64) -> Warp {
    Warp::new(
        WarpRegs::new(program),
        32,
        program.clone(),
        params.into(),
        WarpTag::External(tag),
    )
}

/// A full core (48 warps) in which every warp has issued a global load
/// nobody answers and now waits on its result: the state `gpgpu_mix`
/// spends four cycles in five in.
fn stalled_core() -> (SimtCore, GlobalMemCtx, Arc<Program>) {
    let cfg = GpuConfig::case_study_1();
    let mut core = SimtCore::new(CoreId(0), &cfg);
    let mut ctx = ctx();
    let program = Arc::new(
        assemble(
            "mov.b32 r0, %laneid
             shl.u32 r1, r0, 2
             add.u32 r1, r1, %param0
             ld.global.b32 r2, [r1+0]
             add.u32 r3, r2, 1
             exit",
        )
        .unwrap(),
    );
    for i in 0..cfg.max_warps_per_core {
        let line = 0x1000 + 128 * i as u32;
        core.launch(warp(&program, vec![line], i as u64)).unwrap();
    }
    // Let every warp reach its load and the LSU settle; misses leave the
    // core (as `Gpu::cycle` takes them) and are never filled.
    for now in 0..2_000 {
        ctx.lock(|x| core.cycle(now, x));
        while core.pop_miss().is_some() {}
    }
    assert_eq!(core.occupancy(), cfg.max_warps_per_core);
    assert_eq!(core.stats().issued, 4 * cfg.max_warps_per_core as u64);
    (core, ctx, program)
}

#[test]
fn stalled_core_cycles_without_allocating() {
    let (mut core, mut ctx, _) = stalled_core();
    let issued = core.stats().issued;
    let allocs = allocs_during(|| {
        for now in 2_000..3_000 {
            ctx.lock(|x| core.cycle(now, x));
            while core.pop_miss().is_some() {}
        }
    });
    assert_eq!(allocs, 0, "allocations across 1000 stalled core-cycles");
    assert_eq!(core.stats().issued, issued, "the warps really are stalled");
    assert_eq!(core.stats().cycles, 3_000);
}

#[test]
fn can_accept_does_not_allocate() {
    // Refused for want of a slot, and accepted after weighing the
    // program's register demand: both answers are O(1) reads.
    let (full, _, program) = stalled_core();
    let roomy = SimtCore::new(CoreId(1), &GpuConfig::case_study_1());
    assert!(!full.can_accept(&program, 1) && roomy.can_accept(&program, 1));
    let allocs = allocs_during(|| {
        for _ in 0..1_000 {
            black_box(full.can_accept(black_box(&program), 1));
            black_box(roomy.can_accept(black_box(&program), 1));
        }
    });
    assert_eq!(allocs, 0);
}

/// Runs `warps` on `core` until it drains, answering every L1 read miss
/// on the spot; returns the number of misses answered.
fn pass(core: &mut SimtCore, ctx: &mut GlobalMemCtx, now: &mut u64, warps: Vec<Warp>) -> u64 {
    let mut fills = 0;
    for w in warps {
        core.launch(w).unwrap();
    }
    while !core.is_idle() {
        ctx.lock(|x| core.cycle(*now, x));
        while let Some(m) = core.pop_miss() {
            if m.kind == AccessKind::Read {
                core.fill_l1(m.surface, m.line, *now);
                fills += 1;
            }
        }
        *now += 1;
    }
    while core.pop_finished().is_some() {}
    fills
}

/// After one warm-up pass (queues at their peak capacity), a second batch
/// of warps running `src` issues every instruction without a single
/// allocation in the executor, the core, the LSU or the L1. `params`
/// gives warp `i` of pass `p` its parameters; a stream that reads the same
/// lines in both passes hits in the second, one that moves on misses.
fn steady_state_allocs(src: &str, params: impl Fn(u64, u64) -> Vec<u32>) -> (u64, u64) {
    const WARPS: u64 = 6;
    let program = Arc::new(assemble(src).unwrap());
    let mut ctx = ctx();
    let mut core = SimtCore::new(CoreId(0), &GpuConfig::case_study_1());
    let mut now = 0;
    let batch = |p| {
        (0..WARPS)
            .map(|i| warp(&program, params(p, i), i))
            .collect()
    };

    pass(&mut core, &mut ctx, &mut now, batch(0));
    let issued = core.stats().issued;
    let warps = batch(1);
    let mut fills = 0;
    let allocs = allocs_during(|| fills = pass(&mut core, &mut ctx, &mut now, warps));
    assert_eq!(core.stats().issued - issued, WARPS * program.len() as u64);
    (allocs, fills)
}

/// ALU, SFU and control instructions through the executor, issue, the
/// scoreboard and writeback.
#[test]
fn alu_stream_issues_without_allocating() {
    let (allocs, _) = steady_state_allocs(
        "mov.b32 r0, %laneid
         add.u32 r1, r0, 1
         mul.u32 r2, r1, r1
         cvt.f32.u32 r3, r2
         mad.f32 r4, r3, 0.5, r3
         div.f32 r5, r4, 3.0
         rsqrt.f32 r6, r5
         setp.lt.u32 p0, r0, 16
         sel.b32 r7, p0, r5, r6
         @p0 neg.f32 r7, r7
         max.f32 r0, r7, r4
         nop
         exit",
        |_, _| Vec::new(),
    );
    assert_eq!(allocs, 0);
}

const MEMORY_STREAM: &str = "mov.b32 r0, %laneid
     shl.u32 r1, r0, 2
     add.u32 r2, r1, %param0
     ld.global.b32 r3, [r2+0]
     ld.global.b32 r4, [r2+128]
     add.u32 r3, r3, r4
     st.shared.b32 [r1+0], r3
     ld.shared.b32 r5, [r1+0]
     st.global.b32 [r2+0], r5
     st.global.b32 [r2+128], r0
     exit";

/// Shared and global loads and stores through the executor's access list,
/// coalescing, the LSU and L1D hits: each warp re-reads its own two lines.
#[test]
fn memory_stream_issues_without_allocating() {
    let (allocs, fills) = steady_state_allocs(MEMORY_STREAM, |_, i| vec![0x1000 + 256 * i as u32]);
    assert_eq!(fills, 0, "the warm-up pass left every line resident");
    assert_eq!(allocs, 0);
}

/// The same stream over lines no pass has touched: every load allocates an
/// MSHR and is answered by a fill, and neither builds a vector — target
/// lists are recycled and `fill` reports into a buffer it keeps.
#[test]
fn missing_lines_stream_without_allocating() {
    let (allocs, fills) = steady_state_allocs(MEMORY_STREAM, |pass, i| {
        vec![0x1000 + 256 * (6 * pass + i) as u32]
    });
    assert_eq!(fills, 12, "two fresh lines per warp");
    assert_eq!(allocs, 0);
}

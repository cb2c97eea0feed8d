//! Exact heap-allocation counts for the TC stage's blocked state.
//!
//! On a DRAM-starved SoC frame almost every cycle finds every queued TC
//! tile waiting behind a position that is still being shaded, so
//! `TcStage::pop_ready` has to answer "nothing" without touching the
//! allocator. The counting allocator is the one `emerald-gpu`'s
//! `tests/alloc.rs` uses: a thread-local counter, so the test reads only
//! the allocations its own thread made.

use emerald_common::math::Vec4;
use emerald_core::batch::{CornerRef, PrimRef};
use emerald_core::cluster::{ClusterPipe, TcTile};
use emerald_core::geom::{ClipVert, NUM_VARYINGS};
use emerald_core::tcmap::TcMap;
use emerald_core::GfxConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

const W: u32 = 64;
const H: u32 = 64;

/// The depth every fragment of `tile` carries (each triangle is flat in z,
/// and identical coverage never coalesces across triangles).
fn depth_of(tile: &TcTile) -> f32 {
    let z = tile.frags[0].z;
    assert!(tile.frags.iter().all(|f| f.z == z), "tile mixes primitives");
    z
}

#[test]
fn blocked_ready_scan_does_not_allocate() {
    // Three copies of one half-screen triangle, nearest first, drawn
    // without a depth test: every TC position is covered three times.
    const CLIP_Z: [f32; 3] = [-0.5, 0.0, 0.5];
    let mut pipe = ClusterPipe::new(0, &GfxConfig::case_study_1());
    let tcmap = TcMap::new(W, H, 8, 1, 1);
    for prim_id in 0..3u32 {
        pipe.push_prim(PrimRef {
            prim_id,
            corners: [(prim_id, 0), (prim_id, 1), (prim_id, 2)],
        });
    }
    let read_vert = |c: CornerRef| {
        let (x, y) = [(-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0)][c.1 as usize];
        ClipVert {
            pos: Vec4::new(x, y, CLIP_Z[c.0 as usize], 1.0),
            attrs: [0.5; NUM_VARYINGS],
        }
    };

    // Pop whatever is ready each cycle, as `launch_fragments` does, but
    // never complete a position: the first tile of each position goes
    // out, everything behind it queues up.
    let mut shading: Vec<TcTile> = Vec::new();
    for now in 0..3_000 {
        pipe.tick(now, &tcmap, W, H, false, false, true, &read_vert);
        shading.extend(pipe.tc.pop_ready());
    }
    assert!(pipe.upstream_empty() && !pipe.is_drained());
    assert_eq!(pipe.tc.busy_count(), shading.len());
    assert!(shading.len() > 8, "{} positions shading", shading.len());
    let queued = pipe.stats().tc_tiles as usize - shading.len();
    assert!(queued >= 2 * shading.len(), "{queued} tiles queued");

    let allocs = allocs_during(|| {
        for _ in 0..1_000 {
            assert!(pipe.tc.pop_ready().is_none());
        }
    });
    assert_eq!(allocs, 0, "allocations across 1000 blocked pop_ready calls");

    // One position completes: exactly its oldest queued tile follows, and
    // completing it again and again drains that position in draw order
    // while every other position stays blocked.
    let pos = shading[0].tc_pos;
    let mut depths = vec![depth_of(&shading[0])];
    loop {
        pipe.tc.complete(pos);
        let Some(next) = pipe.tc.pop_ready() else {
            break;
        };
        assert_eq!(next.tc_pos, pos);
        assert!(pipe.tc.pop_ready().is_none(), "others stay blocked");
        depths.push(depth_of(&next));
    }
    assert!(depths.is_sorted(), "tiles of {pos:?} overtook: {depths:?}");
    depths.dedup();
    assert_eq!(depths.len(), 3, "all three triangles reached {pos:?}");
    assert_eq!(pipe.tc.busy_count(), shading.len() - 1);
}

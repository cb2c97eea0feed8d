//! Exact heap-allocation counts for `MemorySystem`'s steady state.
//!
//! The memory system is ticked on every simulated SoC cycle, so it is
//! meant to pay per request, not per cycle: a scheduling decision builds
//! no candidate list, a cycle's completions go into a reused buffer, and
//! a cycle in which nothing is due touches nothing. A count pins that
//! down exactly where a timing cannot (same counting allocator as
//! `crates/gpu/tests/alloc.rs`: a thread-local counter, so each test reads
//! only its own thread's allocations).

use emerald_common::rng::Xorshift64;
use emerald_common::types::{AccessKind, Cycle, TrafficSource};
use emerald_mem::dash::{Clustering, DashConfig};
use emerald_mem::{DramConfig, MemRequest, MemorySystem, MemorySystemConfig};
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

/// A CPU thread, the GPU and the display each offer every channel
/// requests until it refuses one (and retry that one next cycle), so both
/// 64-entry queues are full at every tick and every cycle that may issue
/// makes a scheduling decision over a full queue.
struct Saturate {
    rng: Xorshift64,
    next_id: u64,
    /// Per source and channel, the request last refused.
    held: [[Option<MemRequest>; 2]; 3],
    completed: usize,
}

impl Saturate {
    const SOURCES: [TrafficSource; 3] = [
        TrafficSource::Cpu(0),
        TrafficSource::Gpu,
        TrafficSource::Display,
    ];

    fn new() -> Self {
        Self {
            rng: Xorshift64::new(0xA110C),
            next_id: 0,
            held: [[None; 2]; 3],
            completed: 0,
        }
    }

    /// A fresh request from `source` that `channel` serves.
    fn request(
        &mut self,
        ms: &MemorySystem,
        source: TrafficSource,
        channel: usize,
        now: Cycle,
    ) -> MemRequest {
        self.next_id += 1;
        loop {
            let req = MemRequest {
                id: self.next_id,
                addr: self.rng.below(1 << 14) * 128,
                bytes: 128,
                kind: if self.rng.chance(0.75) {
                    AccessKind::Read
                } else {
                    AccessKind::Write
                },
                source,
                issued: now,
            };
            if ms.channel_of(&req) == channel {
                return req;
            }
        }
    }

    fn cycle(&mut self, ms: &mut MemorySystem, now: Cycle) {
        for (slot, source) in Self::SOURCES.into_iter().enumerate() {
            for channel in 0..2 {
                loop {
                    let req = match self.held[slot][channel].take() {
                        Some(refused) => refused,
                        None => self.request(ms, source, channel, now),
                    };
                    if let Err(refused) = ms.enqueue(req, now) {
                        self.held[slot][channel] = Some(refused);
                        break;
                    }
                }
            }
        }
        assert_eq!(ms.queued(), 2 * 64, "both queues are full at cycle {now}");
        ms.tick(now);
        self.completed += ms.drain_finished(now).len();
    }
}

/// Warm-up (queues, in-service slabs, the response buffer and the
/// per-source byte maps reach their final size), then 10 000 saturated
/// cycles under the counter.
fn saturated_steady_state_allocs(cfg: MemorySystemConfig) -> u64 {
    let mut ms = MemorySystem::new(cfg);
    if let Some(dash) = ms.dash_mut() {
        dash.set_urgent(TrafficSource::Display, true);
    }
    let mut load = Saturate::new();
    for now in 0..5_000 {
        load.cycle(&mut ms, now);
    }
    let before = load.completed;
    let allocs = allocs_during(|| {
        for now in 5_000..15_000 {
            load.cycle(&mut ms, now);
        }
    });
    // Random rows: most requests pay precharge + activate + CAS + burst,
    // about 50 cycles each on each of the two channels.
    let completed = load.completed - before;
    assert!(completed > 300, "only {completed} requests completed");
    allocs
}

#[test]
fn saturated_dash_system_does_not_allocate() {
    let allocs = saturated_steady_state_allocs(MemorySystemConfig::dash(
        2,
        DramConfig::lpddr3_1333(),
        DashConfig::paper(Clustering::CpuOnly),
    ));
    assert_eq!(allocs, 0, "allocations across 10 000 saturated DASH cycles");
}

#[test]
fn saturated_frfcfs_system_does_not_allocate() {
    let allocs =
        saturated_steady_state_allocs(MemorySystemConfig::baseline(2, DramConfig::lpddr3_1333()));
    assert_eq!(
        allocs, 0,
        "allocations across 10 000 saturated FR-FCFS cycles"
    );
}

#[test]
fn waiting_on_in_service_requests_does_not_allocate() {
    // A data bus so slow that nothing issued now completes for 40 000
    // cycles: requests sit in service with nothing due.
    let dram = DramConfig {
        burst_cycles: 40_000,
        ..DramConfig::lpddr3_1333()
    };
    let mut ms = MemorySystem::new(MemorySystemConfig::dash(
        2,
        dram,
        DashConfig::paper(Clustering::CpuOnly),
    ));
    for id in 0..2u64 {
        let req = MemRequest {
            id,
            addr: id * 128,
            bytes: 128,
            kind: AccessKind::Read,
            source: TrafficSource::Gpu,
            issued: 0,
        };
        ms.enqueue(req, 0).unwrap();
    }
    for now in 0..100 {
        ms.tick(now);
        assert!(ms.drain_finished(now).is_empty());
    }
    assert_eq!(ms.queued(), 0, "every request is in service");
    assert!(!ms.is_idle());
    let mut finished = 0;
    let allocs = allocs_during(|| {
        for now in 100..10_100 {
            ms.tick(now);
            finished += ms.drain_finished(now).len();
        }
    });
    assert_eq!(allocs, 0, "allocations across 10 000 waiting cycles");
    assert_eq!(finished, 0, "nothing was due");
    assert!(!ms.is_idle());
}

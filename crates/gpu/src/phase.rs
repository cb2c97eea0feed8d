//! The bulk-synchronous core-execution phase.
//!
//! `Gpu::cycle` advances all SIMT cores with a two-phase protocol that
//! makes results independent of how cores are sharded across host threads:
//!
//! 1. **Parallel phase** — the execution context is *frozen* (the shared
//!    memory image is read-locked, mutable side state is snapshotted) and
//!    every core executes one cycle against that frozen view. Stores land
//!    in the core's private [`StoreBuffer`]; loads consult the buffer first
//!    so a core always reads its own writes.
//! 2. **Commit phase** — on the calling thread, store buffers are drained
//!    into the live context in core-index order, so the merged memory state
//!    is a pure function of per-core execution, never of thread timing.
//!
//! [`CycleCtx`] is the contract an execution context implements to take
//! part in this protocol; [`CorePool`] is the persistent worker pool that
//! runs the parallel phase (spawning threads per cycle would dominate the
//! runtime — a simulation runs millions of cycles).

use emerald_isa::exec::NullCtx;
use emerald_isa::ExecCtx;
use emerald_mem::view::StoreBuffer;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Number of hardware threads the host offers (cached; 1 if unknown).
///
/// The adaptive dispatcher consults this once: engaging a worker pool on a
/// single-CPU host can only slow the simulation down, because the workers
/// time-slice against the dispatcher instead of running beside it.
pub(crate) fn host_parallelism() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// An execution context that can split itself into a frozen, thread-shared
/// view plus per-core contexts for the parallel phase, then merge the
/// per-core store buffers back in a deterministic order.
pub trait CycleCtx {
    /// The frozen, immutable snapshot shared by all worker threads for one
    /// cycle (typically holds a read guard on the memory image).
    type Frozen<'s>: Sync
    where
        Self: 's;

    /// The per-core context handed to `SimtCore::cycle`; borrows the
    /// frozen snapshot and one core's private store buffer.
    type Core<'a>: ExecCtx
    where
        Self: 'a;

    /// Freezes the context for a parallel phase. While the returned
    /// snapshot lives, the live context must not be mutated.
    fn freeze(&self) -> Self::Frozen<'_>;

    /// Builds the context for one core over the frozen snapshot.
    fn core<'a, 's: 'a>(frozen: &'a Self::Frozen<'s>, buf: &'a mut StoreBuffer) -> Self::Core<'a>
    where
        Self: 's;

    /// Tears down a per-core context after the core's cycle, flushing any
    /// per-core counters into its store buffer's `aux` channel.
    fn finish(core: Self::Core<'_>);

    /// Drains every core's store buffer into the live context, in
    /// core-index (slice) order. Runs on the calling thread after all
    /// workers have joined the phase barrier.
    fn commit(&mut self, bufs: &mut [StoreBuffer]);
}

/// The no-op context participates trivially (nothing to freeze or commit).
impl CycleCtx for NullCtx {
    type Frozen<'s> = ();
    type Core<'a> = NullCtx;

    fn freeze(&self) -> Self::Frozen<'_> {}

    fn core<'a, 's: 'a>(_frozen: &'a (), _buf: &'a mut StoreBuffer) -> NullCtx {
        NullCtx
    }

    fn finish(_core: NullCtx) {}

    fn commit(&mut self, _bufs: &mut [StoreBuffer]) {}
}

/// Type-erased task: runs one worker's shard of the parallel phase.
type Task<'a> = &'a (dyn Fn(usize) + Sync);

/// Pool bookkeeping guarded by [`PoolShared::state`]. Every transition a
/// waiter's predicate depends on happens under this mutex, immediately
/// before the matching condvar notification — the standard discipline that
/// makes untimed waits safe (no lost wakeups, so no timed-wait respin).
struct PoolState {
    /// Bumped once per dispatched phase; workers wait for it to change.
    generation: u64,
    /// Workers that finished the current phase.
    done: usize,
    shutdown: bool,
}

struct PoolShared {
    /// The current task; valid only between a generation bump and the
    /// matching `done` count, which is exactly when workers read it.
    task: std::cell::UnsafeCell<Option<Task<'static>>>,
    state: Mutex<PoolState>,
    /// Signalled when a new generation is published (or shutdown).
    start: Condvar,
    /// Signalled when the last worker of a phase finishes.
    finish: Condvar,
    /// Lock-free mirror of `PoolState::generation` for the workers'
    /// bounded spin fast path (phases are typically microseconds apart
    /// while the simulator is busy).
    generation: AtomicU64,
    /// Lock-free mirror of `PoolState::done` for the dispatcher's bounded
    /// spin fast path.
    done: AtomicUsize,
    /// Lock-free mirror of `PoolState::shutdown` so spinning workers can
    /// exit without taking the lock.
    shutdown: AtomicBool,
    /// A worker panicked during the phase.
    poisoned: AtomicBool,
    /// Whether the dispatching thread is self-profiling this phase; set
    /// before the generation bump that publishes it, like `task`.
    timed: AtomicBool,
    /// Per-shard busy nanoseconds of a timed phase (slot 0 unused: shard 0
    /// is the dispatcher). A worker's relaxed store is published by its
    /// `done` count (Release/Acquire, or the `state` mutex), after which
    /// the dispatcher folds the slots into its own thread's profile —
    /// workers own no profiler state.
    busy_ns: Vec<AtomicU64>,
    /// Number of spawned workers (`threads - 1`); the `done` target.
    workers: usize,
}

// SAFETY: `task` is only written by the dispatching thread before the
// Release generation bump and only read by workers after the matching
// Acquire load; the dispatcher does not touch it again until every worker
// has counted itself into `done`.
unsafe impl Sync for PoolShared {}

/// A persistent pool of phase workers. The calling thread participates as
/// shard 0, so a pool built for `threads` parallelism spawns `threads - 1`
/// OS threads.
///
/// Workers spin briefly waiting for the next phase, then park on a condvar
/// until the dispatcher publishes a new generation — an idle pool burns no
/// CPU between phases, and wakes promptly (one notify) when work arrives.
pub struct CorePool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for CorePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CorePool")
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl CorePool {
    /// Builds a pool providing `threads`-way parallelism (spawns
    /// `threads - 1` workers; the caller is the remaining shard).
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 2, "a pool below 2-way parallelism is pointless");
        let shared = Arc::new(PoolShared {
            task: std::cell::UnsafeCell::new(None),
            state: Mutex::new(PoolState {
                generation: 0,
                done: 0,
                shutdown: false,
            }),
            start: Condvar::new(),
            finish: Condvar::new(),
            generation: AtomicU64::new(0),
            done: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            timed: AtomicBool::new(false),
            busy_ns: (0..threads).map(|_| AtomicU64::new(0)).collect(),
            workers: threads - 1,
        });
        let workers = (1..threads)
            .map(|shard| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("emerald-core-{shard}"))
                    .spawn(move || worker_loop(&shared, shard))
                    .expect("spawn phase worker")
            })
            .collect();
        Self { shared, workers }
    }

    /// Parallelism (worker count + 1 for the caller).
    pub(crate) fn threads(&self) -> usize {
        self.workers.len() + 1
    }

    /// Runs `task(shard)` for every shard in `0..threads()`, shard 0 on
    /// the calling thread, and returns once all shards completed.
    ///
    /// # Panics
    ///
    /// Propagates (as a panic) any panic raised inside a worker's shard.
    pub fn run(&self, task: &(dyn Fn(usize) + Sync)) {
        let shared = &*self.shared;
        let workers = self.workers.len();
        // SAFETY: lifetime erasure is sound because this function does not
        // return until every worker has finished running `task`.
        unsafe {
            *shared.task.get() = Some(std::mem::transmute::<Task<'_>, Task<'static>>(task));
        }
        let timed = emerald_obs::prof::enabled();
        shared.timed.store(timed, Ordering::Relaxed);
        {
            let mut st = shared.state.lock().unwrap();
            st.generation += 1;
            st.done = 0;
            // Mirror for the spin fast paths: `done` must be visibly zero
            // before the new generation is observable.
            shared.done.store(0, Ordering::Release);
            shared.generation.store(st.generation, Ordering::Release);
            shared.start.notify_all();
        }
        // Shard 0 runs on the caller; when the self-profiler is on, its
        // busy time is recorded like any worker shard's.
        let t0 = timed.then(std::time::Instant::now);
        task(0);
        if let Some(t0) = t0 {
            emerald_obs::prof::pool_add_busy(0, t0.elapsed().as_nanos() as u64);
        }
        // Wait for the workers: brief spin (they usually finish within
        // microseconds of shard 0), then park on `finish`.
        let mut spins = 0u32;
        while shared.done.load(Ordering::Acquire) < workers {
            spins += 1;
            if spins < 512 {
                std::hint::spin_loop();
            } else if spins < 1024 {
                std::thread::yield_now();
            } else {
                let mut st = shared.state.lock().unwrap();
                while st.done < workers {
                    st = shared.finish.wait(st).unwrap();
                }
                break;
            }
        }
        unsafe {
            *shared.task.get() = None;
        }
        if timed {
            for (shard, ns) in shared.busy_ns.iter().enumerate().skip(1) {
                emerald_obs::prof::pool_add_busy(shard, ns.load(Ordering::Relaxed));
            }
            emerald_obs::prof::pool_record_run(workers + 1);
        }
        assert!(
            !shared.poisoned.swap(false, Ordering::Relaxed),
            "a phase worker panicked"
        );
    }
}

impl Drop for CorePool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
            self.shared.shutdown.store(true, Ordering::Release);
            self.shared.start.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &PoolShared, shard: usize) {
    let mut seen = 0u64;
    loop {
        // Wait for the next generation: spin briefly (back-to-back phases
        // while the simulator is busy), then park on `start`. The park is
        // untimed — every generation bump and the shutdown flag are set
        // under `state` immediately before `start.notify_all()`, so a
        // wakeup can never be lost and an idle pool burns no CPU.
        let mut spins = 0u32;
        loop {
            let g = shared.generation.load(Ordering::Acquire);
            if g != seen {
                seen = g;
                break;
            }
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            spins += 1;
            if spins < 128 {
                std::hint::spin_loop();
            } else if spins < 192 {
                std::thread::yield_now();
            } else {
                let mut st = shared.state.lock().unwrap();
                while st.generation == seen && !st.shutdown {
                    st = shared.start.wait(st).unwrap();
                }
                if st.shutdown {
                    return;
                }
                seen = st.generation;
                break;
            }
        }
        let task = unsafe { (*shared.task.get()).expect("task set before generation bump") };
        // Busy-time accounting only times the task itself, never the wait
        // for the next phase — utilization is work over wall, not liveness.
        let t0 = shared
            .timed
            .load(Ordering::Relaxed)
            .then(std::time::Instant::now);
        if catch_unwind(AssertUnwindSafe(|| task(shard))).is_err() {
            shared.poisoned.store(true, Ordering::Relaxed);
        }
        if let Some(t0) = t0 {
            shared.busy_ns[shard].store(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        let mut st = shared.state.lock().unwrap();
        st.done += 1;
        shared.done.store(st.done, Ordering::Release);
        if st.done == shared.workers {
            shared.finish.notify_one();
        }
    }
}

/// Sends a raw pointer across the phase barrier. Each shard dereferences a
/// disjoint range of the underlying slice, so aliasing never occurs.
pub(crate) struct SendPtr<T>(pub *mut T);

// Manual impls: the derive would wrongly require `T: Copy`.
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Pointer to element `i` of the underlying slice. Taking `self` by
    /// value also makes closures capture the whole (Send + Sync) wrapper
    /// rather than the raw pointer field.
    ///
    /// # Safety
    ///
    /// `i` must be in bounds of the allocation the pointer came from.
    pub(crate) unsafe fn add(self, i: usize) -> *mut T {
        unsafe { self.0.add(i) }
    }
}

// SAFETY: see type docs — shards touch disjoint elements only.
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn pool_runs_every_shard_exactly_once() {
        let pool = CorePool::new(4);
        let hits: Vec<AtomicU32> = (0..4).map(|_| AtomicU32::new(0)).collect();
        for _ in 0..100 {
            pool.run(&|shard| {
                hits[shard].fetch_add(1, Ordering::Relaxed);
            });
        }
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 100, "shard {i}");
        }
    }

    #[test]
    fn pool_shards_work_disjointly() {
        let pool = CorePool::new(3);
        let mut data = vec![0u64; 12];
        let chunk = data.len().div_ceil(pool.threads());
        let ptr = SendPtr(data.as_mut_ptr());
        let n = data.len();
        pool.run(&move |shard| {
            let lo = shard * chunk;
            let hi = ((shard + 1) * chunk).min(n);
            for i in lo..hi {
                unsafe { *ptr.add(i) = (i * i) as u64 };
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, (i * i) as u64);
        }
    }

    #[test]
    #[should_panic(expected = "phase worker panicked")]
    fn worker_panic_propagates() {
        let pool = CorePool::new(2);
        pool.run(&|shard| {
            if shard == 1 {
                panic!("boom");
            }
        });
    }

    #[test]
    fn repeated_build_run_drop() {
        // Regression: building, using and tearing down pools in a loop must
        // neither leak workers nor wedge on shutdown (each drop joins its
        // threads promptly even if they are parked).
        for round in 0..20 {
            let pool = CorePool::new(2 + round % 3);
            let hits = AtomicU32::new(0);
            for _ in 0..5 {
                pool.run(&|_| {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
            assert_eq!(hits.load(Ordering::Relaxed) as usize, 5 * pool.threads());
        }
    }

    #[test]
    fn shutdown_while_workers_parked() {
        // Regression: an idle pool's workers park on a condvar; dropping
        // the pool must wake and join them promptly rather than relying on
        // a timed-wait respin.
        let pool = CorePool::new(4);
        pool.run(&|_| {});
        // Give workers time to run out their bounded spin and park.
        std::thread::sleep(std::time::Duration::from_millis(50));
        let t0 = std::time::Instant::now();
        drop(pool);
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(2),
            "drop of a parked pool must not hang"
        );
    }

    #[test]
    fn run_after_workers_parked() {
        // Regression: dispatch after a long idle gap must wake parked
        // workers via notification, not depend on them polling.
        let pool = CorePool::new(3);
        pool.run(&|_| {});
        std::thread::sleep(std::time::Duration::from_millis(50));
        let hits = AtomicU32::new(0);
        pool.run(&|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 3);
    }
}

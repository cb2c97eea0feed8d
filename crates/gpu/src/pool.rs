//! A persistent worker pool the GPU no longer uses.
//!
//! `Gpu::cycle` runs its active cores in index order on the calling
//! thread (DESIGN.md §9). [`CorePool`] stays only because the benchmark's
//! `gpu.pool_dispatch_ns` probe names it; nothing in the simulator builds
//! one. It goes with that probe (ROADMAP item 0(a)).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Type-erased task: runs one worker's shard.
type Task<'a> = &'a (dyn Fn(usize) + Sync);

/// Pool bookkeeping guarded by [`PoolShared::state`]. Every transition a
/// waiter's predicate depends on happens under this mutex, immediately
/// before the matching condvar notification — the standard discipline that
/// makes untimed waits safe (no lost wakeups, so no timed-wait respin).
struct PoolState {
    /// Bumped once per dispatched run; workers wait for it to change.
    generation: u64,
    /// Workers that finished the current run.
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
    /// Signalled when the last worker of a run finishes.
    finish: Condvar,
    /// Lock-free mirror of `PoolState::generation` for the workers'
    /// bounded spin fast path.
    generation: AtomicU64,
    /// Lock-free mirror of `PoolState::done` for the dispatcher's bounded
    /// spin fast path.
    done: AtomicUsize,
    /// Lock-free mirror of `PoolState::shutdown` so spinning workers can
    /// exit without taking the lock.
    shutdown: AtomicBool,
    /// A worker panicked during the run.
    poisoned: AtomicBool,
    /// Number of spawned workers (`threads - 1`); the `done` target.
    workers: usize,
}

// SAFETY: `task` is only written by the dispatching thread before the
// Release generation bump and only read by workers after the matching
// Acquire load; the dispatcher does not touch it again until every worker
// has counted itself into `done`.
unsafe impl Sync for PoolShared {}

/// A persistent pool of worker threads. The calling thread participates as
/// shard 0, so a pool built for `threads` parallelism spawns `threads - 1`
/// OS threads.
///
/// Workers spin briefly waiting for the next run, then park on a condvar
/// until the dispatcher publishes a new generation — an idle pool burns no
/// CPU, and wakes promptly (one notify) when work arrives.
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
            workers: threads - 1,
        });
        let workers = (1..threads)
            .map(|shard| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("emerald-core-{shard}"))
                    .spawn(move || worker_loop(&shared, shard))
                    .expect("spawn pool worker")
            })
            .collect();
        Self { shared, workers }
    }

    /// Runs `task(shard)` for every shard in `0..threads`, shard 0 on the
    /// calling thread, and returns once all shards completed.
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
        task(0);
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
        assert!(
            !shared.poisoned.swap(false, Ordering::Relaxed),
            "a pool worker panicked"
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
        // Wait for the next generation: spin briefly, then park on
        // `start`. The park is untimed — every generation bump and the
        // shutdown flag are set under `state` immediately before
        // `start.notify_all()`, so a wakeup can never be lost and an idle
        // pool burns no CPU.
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
        if catch_unwind(AssertUnwindSafe(|| task(shard))).is_err() {
            shared.poisoned.store(true, Ordering::Relaxed);
        }
        let mut st = shared.state.lock().unwrap();
        st.done += 1;
        shared.done.store(st.done, Ordering::Release);
        if st.done == shared.workers {
            shared.finish.notify_one();
        }
    }
}

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
    #[should_panic(expected = "pool worker panicked")]
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
            let threads = 2 + round % 3;
            let pool = CorePool::new(threads);
            let hits = AtomicU32::new(0);
            for _ in 0..5 {
                pool.run(&|_| {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
            assert_eq!(hits.load(Ordering::Relaxed) as usize, 5 * threads);
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

//! Loop accounting: how many host loop iterations did the simulated
//! cycles cost?
//!
//! The registry/trace/timeline pillars observe the simulated hardware;
//! this module counts the simulation loop itself, exactly. The clocking
//! kernel covers simulated cycles (`gpu_cycles`, `soc_cycles`: ticked
//! plus jumped) in host loop iterations (`ticks`), of which `gpu_ticks`
//! cycled the GPU and `ff_steps` also ran the renderer's own steps 3–8
//! (vertex dispatch and the fixed-function units); CPU cores that sleep
//! on their own wakes advance `cpu_batch_cycles` cycles inside
//! `cpu_batches` run-ahead batch calls. Host *time* is not measured here:
//! `benchmark/` is the one timer.
//!
//! Off by default ([`set_enabled`]). Every emit site checks the flag
//! itself (one thread-local load), and the profiler never touches
//! simulated state: results with it on and off are bit-identical
//! (`tests/determinism.rs`).
//!
//! **All profiler state is scoped to the simulation thread**, so
//! simulations profiled on different threads (tests in one binary, sweep
//! sessions) neither see nor silence each other. [`take`] drains the
//! calling thread's counters into a [`HostProfile`].

use std::cell::Cell;

/// Loop-accounting counters: the calling thread's accumulators, and the
/// snapshot [`take`] drains them into.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HostProfile {
    /// Top-level simulation loop iterations.
    pub ticks: u64,
    /// Simulated GPU cycles covered, executed or jumped.
    pub gpu_cycles: u64,
    /// `Gpu::cycle` calls executed; the rest of `gpu_cycles` was booked by
    /// `Gpu::skip`.
    pub gpu_ticks: u64,
    /// `SimtCore::cycle` calls executed inside those `Gpu::cycle` calls;
    /// an active core that was not due had its cycle booked instead.
    pub core_cycles: u64,
    /// Renderer cycles that ran steps 3–8 (vertex dispatch, VPO, PMRB,
    /// raster pipes, fragment launches, draw retirement); in the rest of
    /// the `gpu_ticks`, the renderer's wake slept and only the GPU moved.
    pub ff_steps: u64,
    /// Simulated SoC cycles covered, executed or jumped.
    pub soc_cycles: u64,
    /// Run-ahead `CpuCoreModel::run_batch` calls, counted at their one
    /// call site (`CpuCluster::run`); the per-cycle CPU clocking makes
    /// none.
    pub cpu_batches: u64,
    /// Simulated CPU-core cycles advanced inside those batch calls.
    pub cpu_batch_cycles: u64,
}

impl HostProfile {
    const ZERO: Self = Self {
        ticks: 0,
        gpu_cycles: 0,
        gpu_ticks: 0,
        core_cycles: 0,
        ff_steps: 0,
        soc_cycles: 0,
        cpu_batches: 0,
        cpu_batch_cycles: 0,
    };
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static ACC: Cell<HostProfile> = const { Cell::new(HostProfile::ZERO) };
}

/// Whether profiling is enabled on this thread.
#[inline]
fn enabled() -> bool {
    ENABLED.with(|e| e.get())
}

/// Books into the calling thread's counters, if profiling is enabled.
#[inline]
fn book(f: impl FnOnce(&mut HostProfile)) {
    if enabled() {
        ACC.with(|a| {
            let mut p = a.get();
            f(&mut p);
            a.set(p);
        });
    }
}

/// Turns profiling on or off for simulations run on the calling thread.
pub fn set_enabled(on: bool) {
    ENABLED.with(|e| e.set(on));
}

/// Counts one top-level loop iteration. Called by the outermost loops
/// only (`drain_loop`, `Soc::step`).
#[inline]
pub fn tick() {
    book(|p| p.ticks += 1);
}

/// Books one executed `Gpu::cycle`, in which `cores` SIMT cores were
/// cycled.
#[inline]
pub fn record_gpu_cycle(cores: u64) {
    book(|p| {
        p.gpu_cycles += 1;
        p.gpu_ticks += 1;
        p.core_cycles += cores;
    });
}

/// Books one renderer cycle that ran steps 3–8.
#[inline]
pub fn record_ff_step() {
    book(|p| p.ff_steps += 1);
}

/// Books one executed SoC step.
#[inline]
pub fn record_soc_cycle() {
    book(|p| p.soc_cycles += 1);
}

/// Books `n` event-skipped GPU cycles: exactly what `n` calls to
/// [`record_gpu_cycle`] would have, so `gpu_cycles` equals simulated time
/// whether it was ticked or jumped.
#[inline]
pub fn record_gpu_skip(n: u64) {
    book(|p| p.gpu_cycles += n);
}

/// Books `n` event-skipped SoC cycles: what `n` calls to
/// [`record_soc_cycle`] would have.
#[inline]
pub fn record_soc_skip(n: u64) {
    book(|p| p.soc_cycles += n);
}

/// Records one run-ahead `CpuCoreModel::run_batch` call that advanced a
/// core by `cycles` simulated cycles. Batched CPU cycles are simulated
/// inside a single host call instead of one SoC loop iteration each; this
/// counter sizes that win (`cpu_batch_cycles / cpu_batches` = average
/// batch length).
#[inline]
pub fn record_cpu_batch(cycles: u64) {
    book(|p| {
        p.cpu_batches += 1;
        p.cpu_batch_cycles += cycles;
    });
}

/// Drains the calling thread's counters into a snapshot and resets them.
pub fn take() -> HostProfile {
    ACC.with(|a| a.replace(HostProfile::ZERO))
}

/// Resets all counters without reporting (start of a measured run).
pub fn reset() {
    let _ = take();
}

#[cfg(test)]
mod tests {
    use super::*;

    // Profiler state is thread-scoped and every test runs on its own
    // thread, so tests toggle and drain it freely without serializing.

    #[test]
    fn disabled_path_records_nothing() {
        set_enabled(false);
        reset();
        tick();
        record_gpu_cycle(2);
        record_ff_step();
        record_soc_skip(7);
        record_cpu_batch(3);
        assert_eq!(take(), HostProfile::default());
    }

    #[test]
    fn jumped_cycles_book_what_ticked_cycles_would() {
        set_enabled(true);
        reset();
        for cores in 0..9 {
            record_gpu_cycle(cores % 2);
        }
        for _ in 0..3 {
            record_soc_cycle();
        }
        let ticked = take();
        record_gpu_skip(5);
        record_gpu_skip(4);
        record_soc_skip(2);
        record_soc_skip(1);
        let skipped = take();
        set_enabled(false);
        assert_eq!((ticked.gpu_cycles, ticked.soc_cycles), (9, 3));
        assert_eq!((ticked.gpu_ticks, skipped.gpu_ticks), (9, 0));
        assert_eq!((ticked.core_cycles, skipped.core_cycles), (4, 0));
        assert_eq!(
            HostProfile {
                gpu_ticks: 9,
                core_cycles: 4,
                ..skipped
            },
            ticked
        );
    }

    #[test]
    fn cpu_batch_counters_accumulate_and_reset() {
        set_enabled(true);
        reset();
        record_cpu_batch(100);
        record_cpu_batch(28);
        let p = take();
        set_enabled(false);
        assert_eq!(p.cpu_batches, 2);
        assert_eq!(p.cpu_batch_cycles, 128);
        assert_eq!(take().cpu_batches, 0, "take() must reset");
    }

    #[test]
    fn state_is_scoped_to_the_thread() {
        set_enabled(true);
        reset();
        record_soc_cycle();
        // A sibling thread starts disabled, sees none of our counters, and
        // neither its enabling nor its disabling reaches back here.
        std::thread::spawn(|| {
            assert!(!enabled());
            set_enabled(true);
            record_soc_cycle();
            record_soc_cycle();
            assert_eq!(take().soc_cycles, 2);
            set_enabled(false);
        })
        .join()
        .unwrap();
        assert!(enabled());
        assert_eq!(take().soc_cycles, 1);
    }
}

//! Host-side self-profiling: where does the *simulator's* wall-clock go?
//!
//! The registry/trace/timeline pillars observe the simulated hardware;
//! this module observes the simulation loop itself. It answers two
//! questions a wall-clock total alone cannot:
//!
//! 1. **Phase attribution** — how much host time `Gpu::cycle` spends in
//!    dispatch / execute / commit / L2 / DRAM, and the SoC tick in CPU,
//!    display and memory-system work ([`HostPhase`]).
//! 2. **Loop iterations per simulated cycle** — how many simulated
//!    cycles the clocking kernel covered (`gpu_cycles`, `soc_cycles`:
//!    ticked plus jumped) against how many host loop iterations it took
//!    (`ticks`) and how many of them cycled the GPU (`gpu_ticks`), and
//!    how much CPU time was advanced inside batch calls.
//!
//! # Design constraints
//!
//! * **Zero-cost when disabled.** Profiling is off by default and gated
//!   on [`enabled`] (one thread-local load). No `Instant::now` call is
//!   ever made on the hot path while disabled.
//! * **Never touches simulated state.** The profiler only *reads* the
//!   simulation and the host clock; bit-identity of results with
//!   profiling on vs. off is enforced by `tests/determinism.rs`.
//! * **Cheap when enabled.** Per-cycle work is counter arithmetic only;
//!   wall-clock timestamps are taken on a strided *sample* of cycles
//!   (1 in [`SAMPLE_STRIDE`]) and extrapolated; `tests/determinism.rs`
//!   pins the sample count of a real frame to that stride.
//!
//! **All profiler state is scoped to the simulation thread**: the enable
//! flag, the timestamp calibration and every accumulator are
//! thread-locals, so simulations profiled on different threads (tests in
//! one binary, sweep sessions) neither see nor silence each other.
//! [`take`] drains the calling thread's state into a [`HostProfile`]
//! snapshot.

use std::cell::{Cell, RefCell};
use std::time::Instant;

/// Host phases the simulation loop is attributed to. GPU phases are the
/// sections of `Gpu::cycle`; `GfxPipe` is the renderer's fixed-function
/// pipeline work outside the GPU; SoC phases are the sections of the SoC
/// tick outside the renderer. The sets are disjoint by construction, so
/// summing every phase yields total attributed loop time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum HostPhase {
    /// CTA dispatch and active-set rebuild in `Gpu::cycle`.
    GpuDispatch = 0,
    /// The active cores' cycles, under one image lock.
    GpuExecute,
    /// Warp retirement.
    GpuCommit,
    /// Interconnect and L2 bank service.
    GpuL2,
    /// DRAM port traffic: tick, request issue, response fills.
    GpuDram,
    /// Graphics pipeline outside the GPU (VPO, PMRB, raster, TC, warps).
    GfxPipe,
    /// SoC memory system tick and response routing.
    SocMem,
    /// SoC display-controller scanout DMA.
    SocDisplay,
    /// SoC CPU traffic models.
    SocCpu,
    /// SoC glue: DASH feedback, frame-barrier checks, diagnostics.
    SocOther,
}

/// Number of [`HostPhase`] variants.
pub(crate) const PHASE_COUNT: usize = 10;

/// 1 in `SAMPLE_STRIDE` cycles is wall-clock timed; phase totals are
/// extrapolated by the realized sampling ratio. Prime, so the sample grid
/// cannot alias against the model's power-of-two periodicities.
pub const SAMPLE_STRIDE: u64 = 31;

/// First sampled tick. Mid-stride rather than 1: the first simulated
/// cycle is disproportionately expensive (cold host caches, the initial
/// CTA-dispatch burst), and sampling it would extrapolate that cost
/// across the whole stride — a large bias on short runs.
const FIRST_SAMPLE: u64 = SAMPLE_STRIDE / 2 + 1;

impl HostPhase {
    /// Dotted phase name used in reports and trace exports.
    pub fn name(self) -> &'static str {
        match self {
            HostPhase::GpuDispatch => "gpu.dispatch",
            HostPhase::GpuExecute => "gpu.execute",
            HostPhase::GpuCommit => "gpu.commit",
            HostPhase::GpuL2 => "gpu.l2",
            HostPhase::GpuDram => "gpu.dram",
            HostPhase::GfxPipe => "gfx.pipe",
            HostPhase::SocMem => "soc.mem",
            HostPhase::SocDisplay => "soc.display",
            HostPhase::SocCpu => "soc.cpu",
            HostPhase::SocOther => "soc.other",
        }
    }

    /// Every phase, in discriminant order.
    pub fn all() -> [HostPhase; PHASE_COUNT] {
        [
            HostPhase::GpuDispatch,
            HostPhase::GpuExecute,
            HostPhase::GpuCommit,
            HostPhase::GpuL2,
            HostPhase::GpuDram,
            HostPhase::GfxPipe,
            HostPhase::SocMem,
            HostPhase::SocDisplay,
            HostPhase::SocCpu,
            HostPhase::SocOther,
        ]
    }
}

/// Measures the average cost of an `Instant::now` call. Timestamps are
/// interleaved with a little scalar work — back-to-back calls run from a
/// hot branch predictor and measure several ns below the in-loop cost
/// the correction needs — and the work-only baseline is subtracted out.
fn calibrate_timestamp_ns() -> u64 {
    use std::hint::black_box;
    const N: u64 = 4096;
    #[inline(always)]
    fn churn(mut x: u64) -> u64 {
        for _ in 0..8 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        x
    }
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let t0 = Instant::now();
    let mut last = t0;
    for _ in 0..N {
        x = churn(black_box(x));
        last = black_box(Instant::now());
    }
    let with_ts = last.duration_since(t0).as_nanos() as u64;
    let mut y = 0x9E37_79B9_7F4A_7C15u64;
    let t1 = Instant::now();
    for _ in 0..N {
        y = churn(black_box(y));
    }
    let work_only = t1.elapsed().as_nanos() as u64;
    black_box((x, y));
    with_ts.saturating_sub(work_only) / N
}

/// Thread-local accumulators for the simulation thread.
#[derive(Debug, Clone)]
struct Accum {
    ticks: u64,
    sampled: u64,
    next_sample: u64,
    loop_ns: u64,
    phase_ns: [u64; PHASE_COUNT],
    gpu_cycles: u64,
    gpu_ticks: u64,
    soc_cycles: u64,
    cpu_batches: u64,
    cpu_batch_cycles: u64,
}

impl Accum {
    const fn new() -> Self {
        Self {
            ticks: 0,
            sampled: 0,
            next_sample: FIRST_SAMPLE,
            loop_ns: 0,
            phase_ns: [0; PHASE_COUNT],
            gpu_cycles: 0,
            gpu_ticks: 0,
            soc_cycles: 0,
            cpu_batches: 0,
            cpu_batch_cycles: 0,
        }
    }
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    /// Calibrated cost of one `Instant::now` call, in nanoseconds. Every
    /// [`PhaseClock::lap`] interval includes the acquisition cost of its
    /// own closing timestamp; left uncorrected, that cost is extrapolated
    /// by the sampling stride and inflates phase sums by tens of percent
    /// on cheap cycles. [`set_enabled`] measures it once per enable and
    /// `lap` subtracts it (saturating) from every interval.
    static TIMESTAMP_COST_NS: Cell<u64> = const { Cell::new(0) };
    /// Whether the current top-level cycle is wall-clock sampled.
    static SAMPLING: Cell<bool> = const { Cell::new(false) };
    /// Whether an outermost-loop measurement is open (see [`loop_enter`]).
    static IN_LOOP: Cell<bool> = const { Cell::new(false) };
    static ACC: RefCell<Accum> = const { RefCell::new(Accum::new()) };
}

/// Whether profiling is enabled on this thread. One thread-local load —
/// this is the whole cost of a disabled emit site.
#[inline]
pub fn enabled() -> bool {
    ENABLED.with(|e| e.get())
}

/// Turns profiling on or off for simulations run on the calling thread.
pub fn set_enabled(on: bool) {
    if on {
        TIMESTAMP_COST_NS.with(|c| c.set(calibrate_timestamp_ns()));
    }
    ENABLED.with(|e| e.set(on));
    if !on {
        SAMPLING.with(|s| s.set(false));
    }
}

/// Marks the start of one top-level simulation cycle: bumps the tick
/// counter and decides whether this cycle is wall-clock sampled. Called
/// by the outermost loop only (`Gpu::run_to_idle`,
/// `GpuRenderer::run_frame`, `Soc::run_frame`); nested components just
/// read the decision via [`PhaseClock`].
#[inline]
pub fn tick() {
    if !enabled() {
        return; // `set_enabled(false)` already cleared `SAMPLING`
    }
    let sample = ACC.with(|a| {
        let a = &mut *a.borrow_mut();
        a.ticks += 1;
        if a.ticks >= a.next_sample {
            a.next_sample = a.ticks + SAMPLE_STRIDE;
            a.sampled += 1;
            true
        } else {
            false
        }
    });
    SAMPLING.with(|s| s.set(sample));
}

/// Whether the current cycle is wall-clock sampled.
#[inline]
fn sampling() -> bool {
    SAMPLING.with(|s| s.get())
}

/// Token from [`loop_enter`], closed by [`loop_exit`].
#[must_use]
#[derive(Debug)]
pub struct LoopGuard(Option<Instant>);

/// Marks entry into an outermost simulation loop (the same sites that
/// call [`tick`]). The elapsed time until the matching [`loop_exit`] is
/// the *exact* wall-clock total the sampled phase sums are rescaled to
/// in [`take`]: sampling then only determines phase proportions, so the
/// reported breakdown sums to measured loop time instead of a
/// stride-extrapolated estimate (which inherits observer and scheduling
/// noise at full stride amplification). Costs two timestamps per loop.
/// Disabled or nested calls return an inert guard.
#[inline]
pub fn loop_enter() -> LoopGuard {
    if !enabled() || IN_LOOP.with(|l| l.get()) {
        return LoopGuard(None);
    }
    IN_LOOP.with(|l| l.set(true));
    LoopGuard(Some(Instant::now()))
}

/// Closes an outermost-loop measurement opened by [`loop_enter`].
#[inline]
pub fn loop_exit(guard: LoopGuard) {
    if let Some(t0) = guard.0 {
        let ns = t0.elapsed().as_nanos() as u64;
        IN_LOOP.with(|l| l.set(false));
        ACC.with(|a| a.borrow_mut().loop_ns += ns);
    }
}

/// Adds raw sampled nanoseconds to a phase (extrapolation happens in
/// [`take`]).
#[inline]
fn add_phase_ns(phase: HostPhase, ns: u64) {
    ACC.with(|a| a.borrow_mut().phase_ns[phase as usize] += ns);
}

/// Books one executed `Gpu::cycle`. Caller must check [`enabled`] first.
#[inline]
pub fn record_gpu_cycle() {
    ACC.with(|a| {
        let a = &mut *a.borrow_mut();
        a.gpu_cycles += 1;
        a.gpu_ticks += 1;
    });
}

/// Books one executed SoC step. Caller must check [`enabled`] first.
#[inline]
pub fn record_soc_cycle() {
    ACC.with(|a| a.borrow_mut().soc_cycles += 1);
}

/// Books `n` event-skipped GPU cycles: exactly what `n` calls to
/// [`record_gpu_cycle`] would have, so `gpu_cycles` equals simulated time
/// whether it was ticked or jumped. Checks [`enabled`] internally (skips
/// are batched, so the extra check is off the per-cycle path).
#[inline]
pub fn record_gpu_skip(n: u64) {
    if enabled() {
        ACC.with(|a| a.borrow_mut().gpu_cycles += n);
    }
}

/// Books `n` event-skipped SoC cycles: what `n` calls to
/// [`record_soc_cycle`] would have. Checks [`enabled`] internally.
#[inline]
pub fn record_soc_skip(n: u64) {
    if enabled() {
        ACC.with(|a| a.borrow_mut().soc_cycles += n);
    }
}

/// Records one `CpuCoreModel::run_batch` call that advanced a core by
/// `cycles` simulated cycles. Batched CPU cycles are *simulated* inside
/// a single host call instead of one SoC loop iteration each; this
/// counter sizes that win (`cpu_batch_cycles / cpu_batches` = average
/// batch length). Checks [`enabled`] internally.
#[inline]
pub fn record_cpu_batch(cycles: u64) {
    if !enabled() {
        return;
    }
    ACC.with(|a| {
        let a = &mut *a.borrow_mut();
        a.cpu_batches += 1;
        a.cpu_batch_cycles += cycles;
    });
}

/// A lap timer over the phases of one sampled cycle. `start` takes a
/// timestamp only on sampled cycles; on unsampled cycles (or with
/// profiling disabled) every method is a no-op branch. `lap` attributes
/// the time since the previous lap (or start) to a phase and re-arms;
/// `skip` re-arms without attributing — used around nested components
/// that time themselves.
#[derive(Debug)]
pub struct PhaseClock(Option<Instant>);

impl PhaseClock {
    /// Starts a clock; takes a timestamp only if this cycle is sampled.
    #[inline]
    pub fn start() -> Self {
        PhaseClock(if sampling() {
            Some(Instant::now())
        } else {
            None
        })
    }

    /// Attributes time since the last lap to `phase` and re-arms. The
    /// calibrated cost of the closing timestamp itself is subtracted so
    /// observer overhead is not attributed (and then extrapolated) as
    /// simulation work.
    #[inline]
    pub fn lap(&mut self, phase: HostPhase) {
        if let Some(t) = &mut self.0 {
            let now = Instant::now();
            let raw = now.duration_since(*t).as_nanos() as u64;
            let cal = TIMESTAMP_COST_NS.with(|c| c.get());
            add_phase_ns(phase, raw.saturating_sub(cal));
            *t = now;
        }
    }

    /// Re-arms without attributing the elapsed time to any phase.
    #[inline]
    pub fn skip(&mut self) {
        if let Some(t) = &mut self.0 {
            *t = Instant::now();
        }
    }
}

/// A drained profile snapshot. Phase times are already extrapolated from
/// the sampled subset to the full tick count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HostProfile {
    /// Top-level simulation cycles profiled.
    pub ticks: u64,
    /// Cycles that were wall-clock sampled.
    pub sampled: u64,
    /// Exact wall time inside the outermost simulation loops
    /// ([`loop_enter`]/[`loop_exit`] brackets).
    pub loop_ns: u64,
    /// Per-phase nanoseconds, indexed by `HostPhase as usize`. When a
    /// loop total was measured, sampled sums are rescaled so they sum to
    /// it; otherwise they are stride-extrapolated.
    pub phase_ns: [u64; PHASE_COUNT],
    /// Simulated GPU cycles covered, executed or jumped.
    pub gpu_cycles: u64,
    /// `Gpu::cycle` calls executed; the rest of `gpu_cycles` was booked by
    /// `Gpu::skip`.
    pub gpu_ticks: u64,
    /// Simulated SoC cycles covered, executed or jumped.
    pub soc_cycles: u64,
    /// `CpuCoreModel::run_batch` calls observed.
    pub cpu_batches: u64,
    /// Simulated CPU-core cycles advanced inside those batch calls.
    pub cpu_batch_cycles: u64,
}

impl HostProfile {
    /// Sum of all extrapolated phase times.
    pub fn total_phase_ns(&self) -> u64 {
        self.phase_ns.iter().sum()
    }

    /// Lays the extrapolated phases end-to-end as host-thread spans on the
    /// trace ring (category [`crate::TraceCat::Host`], one microsecond of
    /// trace time per microsecond of host time). No-op unless the Host
    /// category is enabled.
    pub fn emit_trace(&self, track: u32) {
        let mut cursor = 0u64;
        for p in HostPhase::all() {
            let ns = self.phase_ns[p as usize];
            if ns == 0 {
                continue;
            }
            let us = (ns / 1_000).max(1);
            crate::trace::span_args(
                crate::TraceCat::Host,
                p.name(),
                track,
                cursor,
                cursor + us,
                &[("ns", ns)],
            );
            cursor += us;
        }
    }
}

/// Drains the calling thread's accumulators into a snapshot and resets
/// them. Phase times are rescaled so they sum to the
/// measured loop total when one exists (sampling sets proportions, the
/// loop brackets set the denominator); without one they are
/// extrapolated by `ticks / sampled`.
pub fn take() -> HostProfile {
    let acc = ACC.with(|a| std::mem::replace(&mut *a.borrow_mut(), Accum::new()));
    SAMPLING.with(|s| s.set(false));
    let raw_sum: u64 = acc.phase_ns.iter().sum();
    let scale = if acc.loop_ns > 0 && raw_sum > 0 {
        acc.loop_ns as f64 / raw_sum as f64
    } else if acc.sampled > 0 {
        acc.ticks as f64 / acc.sampled as f64
    } else {
        1.0
    };
    let mut phase_ns = [0u64; PHASE_COUNT];
    for (out, raw) in phase_ns.iter_mut().zip(acc.phase_ns) {
        *out = (raw as f64 * scale) as u64;
    }
    HostProfile {
        ticks: acc.ticks,
        sampled: acc.sampled,
        loop_ns: acc.loop_ns,
        phase_ns,
        gpu_cycles: acc.gpu_cycles,
        gpu_ticks: acc.gpu_ticks,
        soc_cycles: acc.soc_cycles,
        cpu_batches: acc.cpu_batches,
        cpu_batch_cycles: acc.cpu_batch_cycles,
    }
}

/// Resets all accumulators without reporting (start of a measured run).
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
        assert!(!sampling());
        let mut clk = PhaseClock::start();
        clk.lap(HostPhase::GpuExecute);
        let p = take();
        assert_eq!(p.ticks, 0);
        assert_eq!(p.total_phase_ns(), 0);
        assert_eq!(p.gpu_cycles, 0);
    }

    #[test]
    fn sampling_cadence_is_strided() {
        set_enabled(true);
        reset();
        let mut sampled = 0u64;
        let n = 10 * SAMPLE_STRIDE;
        for _ in 0..n {
            tick();
            if sampling() {
                sampled += 1;
            }
        }
        let p = take();
        set_enabled(false);
        assert_eq!(p.ticks, n);
        assert_eq!(p.sampled, sampled);
        assert_eq!(sampled, n / SAMPLE_STRIDE);
    }

    #[test]
    fn phase_clock_attributes_and_extrapolates() {
        set_enabled(true);
        reset();
        // Tick up to the first sampled cycle (mid-stride, not tick 1).
        let mut warmup = 0u64;
        while !sampling() {
            tick();
            warmup += 1;
            assert!(warmup <= SAMPLE_STRIDE, "never sampled");
        }
        let mut clk = PhaseClock::start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        clk.lap(HostPhase::GpuExecute);
        clk.skip();
        clk.lap(HostPhase::GpuCommit);
        // A second, unsampled tick must not add timestamps.
        tick();
        assert!(!sampling());
        let mut clk2 = PhaseClock::start();
        std::thread::sleep(std::time::Duration::from_millis(1));
        clk2.lap(HostPhase::GpuL2);
        let p = take();
        set_enabled(false);
        assert_eq!(p.ticks, warmup + 1);
        assert_eq!(p.sampled, 1);
        // 2 ms slept in the sampled lap, extrapolated by ticks/sampled.
        let exec = p.phase_ns[HostPhase::GpuExecute as usize];
        assert!(exec >= 2_000_000, "exec phase {exec} ns");
        assert_eq!(p.phase_ns[HostPhase::GpuL2 as usize], 0);
        // `skip` re-armed, so the commit lap (even extrapolated) stays
        // far below the sleep time.
        assert!(p.phase_ns[HostPhase::GpuCommit as usize] < 1_000_000);
    }

    #[test]
    fn loop_total_rescales_phase_sums() {
        set_enabled(true);
        reset();
        let outer = loop_enter();
        // A nested guard must be inert: closing it keeps the outer open.
        let nested = loop_enter();
        loop_exit(nested);
        let mut warmup = 0u64;
        while !sampling() {
            tick();
            warmup += 1;
            assert!(warmup <= SAMPLE_STRIDE, "never sampled");
        }
        let mut clk = PhaseClock::start();
        std::thread::sleep(std::time::Duration::from_millis(1));
        clk.lap(HostPhase::GpuExecute);
        // Unsampled tail the sampled lap cannot see; the loop bracket can.
        std::thread::sleep(std::time::Duration::from_millis(2));
        loop_exit(outer);
        let p = take();
        set_enabled(false);
        assert!(p.loop_ns >= 3_000_000, "loop total {} ns", p.loop_ns);
        // The single nonzero phase absorbs the whole measured loop time.
        let total = p.total_phase_ns();
        assert!(
            total.abs_diff(p.loop_ns) <= PHASE_COUNT as u64,
            "phase sum {total} != loop total {}",
            p.loop_ns
        );
    }

    #[test]
    fn jumped_cycles_book_what_ticked_cycles_would() {
        set_enabled(true);
        reset();
        for _ in 0..9 {
            record_gpu_cycle();
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
        assert_eq!(
            HostProfile {
                gpu_ticks: 9,
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

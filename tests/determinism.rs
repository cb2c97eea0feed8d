//! Bit-reproducibility: identical configurations must produce identical
//! cycle counts, images and statistics — the property that makes a
//! simulator's experiments trustworthy.

use emerald::core::session::SceneBinding;
use emerald::gpu::config::DEFAULT_PARALLEL_THRESHOLD;
use emerald::prelude::*;

// The figures program's case-study-I cell runner.
#[allow(dead_code)]
#[path = "../src/bin/emerald_figures/cell.rs"]
mod cell;

/// Renders one canonical frame with the given worker-thread count and
/// pool-engagement threshold, returning everything a determinism check
/// cares about: cycle count, framebuffer contents, instruction count,
/// retired warps, and the full stats-registry snapshot as JSON.
fn render_with_dispatch(
    threads: usize,
    parallel_threshold: usize,
) -> (u64, Vec<u32>, u64, u64, String) {
    render_full(threads, parallel_threshold, None)
}

/// Like [`render_with_dispatch`], but with the event-skip gate pinned
/// explicitly (`None` keeps the preset's value: on).
fn render_full(
    threads: usize,
    parallel_threshold: usize,
    event_skip: Option<bool>,
) -> (u64, Vec<u32>, u64, u64, String) {
    let mem = SharedMem::with_capacity(1 << 26);
    let rt = RenderTarget::alloc(&mem, 64, 48);
    rt.clear(&mem, [0.0; 4], 1.0);
    let mut cfg = GpuConfig::tiny();
    cfg.threads = threads;
    cfg.parallel_threshold = parallel_threshold;
    if let Some(skip) = event_skip {
        cfg.event_skip = skip;
    }
    let mut r = GpuRenderer::new(cfg, GfxConfig::case_study_2(), mem.clone(), rt);
    let mut port = SimpleMemPort::new(MemorySystem::new(MemorySystemConfig::baseline(
        2,
        DramConfig::lpddr3_1600(),
    )));
    let wl = emerald::scene::workloads::w_models().swap_remove(1);
    let binding = SceneBinding::new(&mem, &wl);
    r.draw(binding.draw_for_frame(0, 64.0 / 48.0, false));
    let s = r.run_frame(&mut port, 100_000_000);
    let mut reg = emerald::obs::Registry::new();
    r.publish(&mut reg, "render");
    let retired = reg
        .get("render.gpu.warps_retired")
        .map(|v| v.scalar() as u64)
        .unwrap_or(0);
    (
        s.cycles,
        rt.read_color(&mem),
        s.instructions,
        retired,
        reg.to_json(),
    )
}

/// The preset's dispatch policy; the forced-on / forced-off thresholds
/// are covered by `render_is_identical_across_dispatch_policies`.
fn render_with_threads(threads: usize) -> (u64, Vec<u32>, u64, u64, String) {
    render_with_dispatch(threads, DEFAULT_PARALLEL_THRESHOLD)
}

fn render_once() -> (u64, Vec<u32>, u64) {
    let (cycles, img, instructions, _, _) = render_with_threads(1);
    (cycles, img, instructions)
}

#[test]
fn standalone_render_is_bit_reproducible() {
    let (c1, img1, i1) = render_once();
    let (c2, img2, i2) = render_once();
    assert_eq!(c1, c2, "cycle counts differ");
    assert_eq!(i1, i2, "instruction counts differ");
    assert_eq!(img1, img2, "images differ");
}

/// The tentpole property of the bulk-synchronous cycle model: sharding
/// cores across worker threads must not change a single bit — the
/// framebuffer, warp accounting and the whole registry snapshot are
/// identical at 1, 2 and 4 threads.
#[test]
fn render_is_identical_across_thread_counts() {
    let (c1, img1, i1, w1, reg1) = render_with_threads(1);
    assert!(w1 > 0, "reference run retired no warps");
    for threads in [2usize, 4] {
        let (c, img, i, w, reg) = render_with_threads(threads);
        assert_eq!(c1, c, "cycle count differs at {threads} threads");
        assert_eq!(i1, i, "instruction count differs at {threads} threads");
        assert_eq!(w1, w, "retired warps differ at {threads} threads");
        assert_eq!(img1, img, "framebuffer differs at {threads} threads");
        assert_eq!(reg1, reg, "registry snapshot differs at {threads} threads");
    }
}

/// Companion to the thread-count invariance test: the *dispatch policy*
/// (pool forced on every non-empty cycle vs. never engaged, at several
/// widths) must be equally invisible — same framebuffer, same counters,
/// same registry snapshot.
#[test]
fn render_is_identical_across_dispatch_policies() {
    let (c1, img1, i1, w1, reg1) = render_with_dispatch(1, 2);
    assert!(w1 > 0, "reference run retired no warps");
    for (threads, thr) in [(2usize, 0usize), (4, 0), (2, usize::MAX), (4, usize::MAX)] {
        let (c, img, i, w, reg) = render_with_dispatch(threads, thr);
        assert_eq!(c1, c, "cycle count differs at t={threads} thr={thr}");
        assert_eq!(i1, i, "instruction count differs at t={threads} thr={thr}");
        assert_eq!(w1, w, "retired warps differ at t={threads} thr={thr}");
        assert_eq!(img1, img, "framebuffer differs at t={threads} thr={thr}");
        assert_eq!(
            reg1, reg,
            "registry snapshot differs at t={threads} thr={thr}"
        );
    }
}

/// The host self-profiler reads the simulation but must never perturb it:
/// with profiling on, every determinism axis above (thread count × pool
/// forced-on/forced-off) still matches the unprofiled reference bit for
/// bit. It must also stay cheap: wall-clock timestamps are taken on at
/// most one loop iteration in `SAMPLE_STRIDE`, on the real frame.
#[test]
fn render_is_identical_with_profiling_enabled() {
    let reference = render_with_dispatch(1, 2);
    for (threads, thr) in [(1usize, 0usize), (1, usize::MAX), (4, 0), (4, usize::MAX)] {
        emerald::obs::prof::set_enabled(true);
        let profiled = render_with_dispatch(threads, thr);
        let profile = emerald::obs::prof::take();
        emerald::obs::prof::set_enabled(false);
        assert!(
            profile.ticks > 0 && profile.gpu_cycles > 0,
            "profiler saw no cycles at t={threads} thr={thr}"
        );
        assert!(
            profile.sampled <= profile.ticks / emerald::obs::prof::SAMPLE_STRIDE + 1,
            "profiler timed {} of {} iterations at t={threads} thr={thr}",
            profile.sampled,
            profile.ticks
        );
        // A forced pool reports every shard's busy time to *this* thread.
        if (threads, thr) == (4, 0) {
            assert_eq!(profile.pool_threads, 4);
            assert_eq!(profile.pool_busy_ns.len(), 4);
            assert!(profile.pool_runs > 0);
            // Shard 0 is this thread, shard 1 a worker that always has a
            // core to run whenever two or more are active.
            assert!(profile.pool_busy_ns[0] > 0 && profile.pool_busy_ns[1] > 0);
        } else if thr == usize::MAX {
            assert_eq!(profile.pool_runs, 0);
        }
        assert_eq!(
            reference.0, profiled.0,
            "cycle count differs with profiling at t={threads} thr={thr}"
        );
        assert_eq!(
            reference.2, profiled.2,
            "instruction count differs with profiling at t={threads} thr={thr}"
        );
        assert_eq!(
            reference.3, profiled.3,
            "retired warps differ with profiling at t={threads} thr={thr}"
        );
        assert_eq!(
            reference.1, profiled.1,
            "framebuffer differs with profiling at t={threads} thr={thr}"
        );
        assert_eq!(
            reference.4, profiled.4,
            "registry snapshot differs with profiling at t={threads} thr={thr}"
        );
    }
}

/// The event-skip tentpole property: jumping over provably dead cycles is
/// invisible — at 1 and 4 host threads, skip-on matches skip-off on the
/// cycle count, the framebuffer, every counter and the whole registry
/// snapshot, bit for bit.
#[test]
fn render_is_identical_across_skip_axis() {
    for threads in [1usize, 4] {
        let off = render_full(threads, DEFAULT_PARALLEL_THRESHOLD, Some(false));
        let on = render_full(threads, DEFAULT_PARALLEL_THRESHOLD, Some(true));
        assert!(off.3 > 0, "reference run retired no warps");
        assert_eq!(
            off.0, on.0,
            "cycle count differs across skip at t={threads}"
        );
        assert_eq!(
            off.2, on.2,
            "instruction count differs across skip at t={threads}"
        );
        assert_eq!(
            off.3, on.3,
            "retired warps differ across skip at t={threads}"
        );
        assert_eq!(
            off.1, on.1,
            "framebuffer differs across skip at t={threads}"
        );
        assert_eq!(off.4, on.4, "registry differs across skip at t={threads}");
    }
}

/// The profiler's cycle accounting must agree with skipped time: with
/// profiling on, `gpu_cycles` (ticked + skipped) equals the simulated
/// frame length exactly, under both clocking modes — a skipped cycle is
/// still a simulated cycle.
#[test]
fn profiler_accounts_every_simulated_cycle_across_skip() {
    for skip in [false, true] {
        emerald::obs::prof::set_enabled(true);
        emerald::obs::prof::reset();
        let (cycles, _, _, _, _) = render_full(1, DEFAULT_PARALLEL_THRESHOLD, Some(skip));
        let profile = emerald::obs::prof::take();
        emerald::obs::prof::set_enabled(false);
        assert_eq!(
            profile.gpu_cycles, cycles,
            "profiler gpu_cycles disagree with simulated time (skip={skip})"
        );
        assert!(
            profile.ticks <= cycles,
            "host loop iterations exceed simulated cycles (skip={skip})"
        );
    }
}

/// One profiled frame on a small SoC under the given gates and GPU
/// worker-thread count: the frame record plus the thread's profile.
/// Profiling starts at `start`, so a sibling thread sharing the barrier is
/// profiling at the same time.
fn profiled_soc_frame(
    skip: bool,
    batch: bool,
    instr_div: u64,
    threads: usize,
    start: &std::sync::Barrier,
) -> (emerald::soc::SocFrameRecord, emerald::obs::HostProfile) {
    use emerald::soc::cpu::{CpuWorkload, Phase};
    use emerald::soc::{MemCfgKind, Soc, SocConfig};

    let mut cfg = SocConfig::case_study_1(
        MemCfgKind::Dcb.build(DramConfig::lpddr3_1333()),
        48,
        32,
        200_000,
    );
    cfg.cpu_workloads = vec![CpuWorkload::driver(), CpuWorkload::compute()];
    for w in &mut cfg.cpu_workloads {
        for p in &mut w.phases {
            if let Phase::Work { instrs, .. } = p {
                *instrs /= instr_div;
            }
        }
    }
    cfg.gpu.event_skip = skip;
    cfg.gpu.threads = threads;
    cfg.cpu_batch = batch;
    let mut soc = Soc::new(cfg);
    let wl = emerald::scene::workloads::w_models().swap_remove(1);
    let binding = SceneBinding::new(&soc.mem, &wl);
    let draw = binding.draw_for_frame(0, 48.0 / 32.0, false);
    emerald::obs::prof::set_enabled(true);
    emerald::obs::prof::reset();
    start.wait();
    let rec = soc.run_frame(vec![draw], 60_000_000);
    // The vsync gap is clocked by the same kernel and must be accounted
    // the same way.
    let gap = 20_000 - soc.now() % 20_000;
    soc.idle_until(soc.now() + gap);
    let mut profile = emerald::obs::prof::take();
    emerald::obs::prof::set_enabled(false);
    profile.soc_cycles -= gap;
    profile.gpu_cycles -= gap;
    (rec, profile)
}

/// SoC companion to the profiler-agreement test, and the regression test
/// for the profiler's thread scoping: two SoCs with different frame
/// lengths are profiled *concurrently* on two threads, under all four
/// `event_skip × cpu_batch` gate combinations. Every profile must account
/// exactly its own SoC's simulated cycles — the skip accounting is emitted
/// from one place in the clocking kernel, so ticked + jumped cycles always
/// sum to simulated time — and must not see the sibling's counters (with
/// process-global profiler state the thread that finished first silenced
/// the other mid-frame with its `set_enabled(false)`; the deterministic
/// form of that interleaving is `prof`'s `state_is_scoped_to_the_thread`).
#[test]
fn soc_profiler_agrees_with_skipped_time() {
    const GATES: [(bool, bool); 4] = [(false, false), (false, true), (true, false), (true, true)];
    let start = std::sync::Barrier::new(2);
    // Both threads rendezvous before every frame, so checks wait until
    // both are through: a thread that stopped early would strand the other.
    let run_all = |instr_div: u64, threads: usize| {
        GATES.map(|(s, b)| profiled_soc_frame(s, b, instr_div, threads, &start))
    };
    // The sibling's GPU shards its cores over a 4-thread pool: pool workers
    // hand their shard times to the dispatching thread and must not leak
    // into (or out of) the other SoC's profile either.
    let (mine, theirs) = std::thread::scope(|s| {
        let sibling = s.spawn(|| run_all(4, 4));
        (
            run_all(8, 1),
            sibling.join().expect("sibling thread panicked"),
        )
    });
    for (who, runs) in [("mine", &mine), ("theirs", &theirs)] {
        for ((skip, batch), (rec, profile)) in GATES.iter().zip(runs) {
            assert_eq!(
                profile.soc_cycles, rec.total_cycles,
                "profiler soc_cycles disagree with the frame length \
                 ({who}, skip={skip} batch={batch})"
            );
            assert_eq!(
                *batch,
                profile.cpu_batches > 0,
                "run-ahead gate leaked ({who}, skip={skip} batch={batch})"
            );
            assert_eq!(
                (rec.total_cycles, profile.gpu_cycles),
                (runs[0].0.total_cycles, runs[0].1.gpu_cycles),
                "profiles diverge across the gates ({who}, skip={skip} batch={batch})"
            );
        }
    }
    assert_ne!(
        mine[0].0.total_cycles, theirs[0].0.total_cycles,
        "the two SoCs must differ to tell their counters apart"
    );
}

#[test]
fn soc_frames_identical_with_profiling_enabled() {
    use cell::{run_cell, RunParams};
    use emerald::mem::dram::DramConfig as Dram;
    use emerald::soc::MemCfgKind;
    let m2 = &emerald::scene::workloads::m_models()[1];
    let params = RunParams {
        width: 48,
        height: 32,
        frames: 1,
        dram: Dram::lpddr3_1333(),
        gpu_frame_period: 200_000,
        probe_window: None,
        max_cycles_per_frame: 100_000_000,
        trace: false,
    };
    let plain = run_cell(m2, MemCfgKind::Dcb, &params);
    emerald::obs::prof::set_enabled(true);
    emerald::obs::prof::reset();
    let profiled = run_cell(m2, MemCfgKind::Dcb, &params);
    let profile = emerald::obs::prof::take();
    emerald::obs::prof::set_enabled(false);
    assert!(profile.soc_cycles > 0, "profiler saw no SoC cycles");
    assert_eq!(plain.avg_gpu_cycles(), profiled.avg_gpu_cycles());
    assert_eq!(plain.avg_total_cycles(), profiled.avg_total_cycles());
    assert_eq!(
        plain.display_serviced_bytes(),
        profiled.display_serviced_bytes()
    );
}

#[test]
fn soc_frames_are_bit_reproducible() {
    use cell::{run_cell, RunParams};
    use emerald::mem::dram::DramConfig as Dram;
    use emerald::soc::MemCfgKind;
    let m2 = &emerald::scene::workloads::m_models()[1];
    let params = RunParams {
        width: 48,
        height: 32,
        frames: 2,
        dram: Dram::lpddr3_1333(),
        gpu_frame_period: 200_000,
        probe_window: None,
        max_cycles_per_frame: 100_000_000,
        trace: false,
    };
    let a = run_cell(m2, MemCfgKind::Dcb, &params);
    let b = run_cell(m2, MemCfgKind::Dcb, &params);
    assert_eq!(a.avg_gpu_cycles(), b.avg_gpu_cycles());
    assert_eq!(a.avg_total_cycles(), b.avg_total_cycles());
    assert_eq!(a.display_serviced_bytes(), b.display_serviced_bytes());
}

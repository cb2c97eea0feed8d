//! Oracle tests for the event-driven clocking contract
//! (`emerald_common::event::NextEvent`) and the gate lockstep built on it.
//! Each axis runs through its one oracle in `emerald_conformance`, the
//! same function its injected-bug canary in `tests/conformance.rs` runs:
//!
//! 1. **Lockstep gate matrix** — seeded random SoC scenarios drawing a
//!    cube each frame (the CPU-only ones are in `tests/cpu_batch.rs`) run
//!    in all four `event_skip × cpu_batch` cells, every cell but the
//!    per-cycle reference profiled, and must agree bit-for-bit on the frame records, the clock, the
//!    framebuffer, the full stats registry and the checkpoint bytes at
//!    every frame barrier (`emerald_conformance::gate_matrix`).
//! 2. **No early transitions** — the memory system and the display are
//!    ticked cycle by cycle through every gap their `next_event` announced
//!    and must not act before the cycle they announced
//!    (`eventconf::{gap_oracle, display_gap_oracle}`). Reporting *later*
//!    than the truth is the one unsafe direction of the contract; these
//!    oracles are how it would be caught.
//! 3. **Twin gap walks** — a bare GPU and a standalone renderer, whose
//!    announced gaps still move time-linear counters: one twin is cycled
//!    through every gap, the other jumps it and books it, and registry,
//!    in-flight state, snapshot bytes and output memory must agree
//!    (`eventconf::{gpu_gap_oracle, renderer_gap_oracle}`). The same two
//!    models check lazy booking: twins on one schedule, one booking its
//!    parked cores every tick, the other only where the library settles
//!    (`eventconf::booking_oracle`).
//!
//! Then the loop-iteration bounds that show the clock really jumps, and
//! the owed-renderer checkpoint regression. Case counts scale with
//! `EMERALD_CONF_CASES`; each oracle keeps its own default.

use emerald::common::check::{check_n, env_cases};
use emerald::prelude::*;
use emerald::soc::cpu::CpuWorkload;
use emerald_conformance::{gate_matrix, SocScenario};

/// Oracle 1: one random scenario drawing a cube each frame, every gate
/// cell, every frame barrier (the CPU-only half of the random scenarios
/// is `tests/cpu_batch.rs::random_soc_scenarios_are_batch_invariant`).
/// The debug build also audits the SoC's cached wake pins every loop
/// iteration (`Soc::audit_pins`), so random scenarios reach the audit.
#[test]
fn random_soc_scenarios_are_skip_invariant() {
    check_n(
        "soc_gate_matrix",
        env_cases("EMERALD_CONF_CASES", 3),
        |rng| {
            let sc = SocScenario {
                cube: true,
                ..SocScenario::random(rng)
            };
            let frames = 1 + rng.below(3) as u32;
            if let Err(e) = gate_matrix(&sc, frames) {
                panic!("{e}\n{sc:?}");
            }
        },
    );
}

/// Oracle 2a: random requests from four sources, reads and writes,
/// trickle into a random memory organization; once none is left, every
/// announced gap must tick as a no-op.
#[test]
fn memsys_never_acts_before_next_event() {
    use emerald_conformance::{gap_oracle, GapScenario};
    check_n(
        "memsys_next_event_oracle",
        env_cases("EMERALD_CONF_CASES", 8),
        |rng| {
            let sc = GapScenario::random(rng);
            match gap_oracle(&sc) {
                // In-service DRAM bursts take many cycles, so real gaps
                // must appear — otherwise the oracle checked nothing.
                Ok(gaps) => assert!(gaps > 0, "no gap announced: {}", sc.describe()),
                Err(v) => panic!("{v:?}\n{}", sc.describe()),
            }
        },
    );
}

/// Oracle 2b: the display controller behind instant memory (responses
/// credited the same cycle) is fully self-driven: it never underruns and
/// leaves gaps between prefetch batches and at the tail of each refresh
/// period.
#[test]
fn display_never_acts_before_next_event() {
    use emerald_conformance::{display_gap_oracle, DisplayGapScenario};
    check_n(
        "display_next_event_oracle",
        env_cases("EMERALD_CONF_CASES", 16),
        |rng| {
            let sc = DisplayGapScenario {
                latency: 0,
                ..DisplayGapScenario::random(rng)
            };
            let (gaps, stats) = display_gap_oracle(&sc).unwrap_or_else(|v| panic!("{v:?}\n{sc:?}"));
            assert!(gaps > 0, "no gap announced: {sc:?}");
            assert_eq!(stats.frames_aborted, 0, "instant memory underran: {sc:?}");
            assert!(stats.frames_completed >= 3, "{stats:?}");
        },
    );
}

/// Oracle 2c: the same walk behind latencies past what the display's
/// scanout FIFO covers, so the controller waits on reads in flight,
/// underruns and recovers.
#[test]
fn display_waiting_on_memory_never_acts_before_next_event() {
    use emerald_conformance::{display_gap_oracle, DisplayGapScenario};
    let (mut aborted, mut completed) = (0, 0);
    check_n(
        "display_waiting_oracle",
        env_cases("EMERALD_CONF_CASES", 16),
        |rng| {
            let sc = DisplayGapScenario {
                latency: rng.range(20, 6_000),
                ..DisplayGapScenario::random(rng)
            };
            let (gaps, stats) = display_gap_oracle(&sc).unwrap_or_else(|v| panic!("{v:?}\n{sc:?}"));
            assert!(gaps > 0, "no gap announced: {sc:?}");
            aborted += stats.frames_aborted;
            completed += stats.frames_completed;
        },
    );
    assert!(aborted > 0 && completed > 0, "{aborted} {completed}");
}

/// Oracle 3a: twin bare GPUs running random kernels. Every gap the GPU
/// and its port announce is cycled on one twin and jumped-and-booked on
/// the other; they must agree after each gap and, drained, byte for byte.
/// Both schedulers: the booking resets GTO's greedy pick and LRR's
/// rotation alike.
#[test]
fn gpu_gaps_change_only_what_skip_books() {
    use emerald::gpu::config::WarpSched;
    use emerald_conformance::eventconf::{gpu_gap_oracle, GpuGapScenario};
    use emerald_conformance::{base_config, gen_program};
    for sched in [WarpSched::Gto, WarpSched::Lrr] {
        let cfg = GpuConfig {
            warp_sched: sched,
            ..base_config()
        };
        let mut gaps = 0;
        check_n("gpu_gap_twins", env_cases("EMERALD_CONF_CASES", 8), |rng| {
            let sc = GpuGapScenario {
                data_seed: rng.next_u64(),
                gp: gen_program(rng),
                lag: 0,
            };
            match gpu_gap_oracle(&sc, &cfg) {
                Ok(n) => gaps += n,
                Err(v) => panic!("{sched:?}: {v:?}\n{}", sc.gp.dump()),
            }
        });
        assert!(gaps > 0, "no gap was ever announced under {sched:?}");
    }
}

/// Oracle 3b: the same walk over twin standalone renderers drawing random
/// cases, so the gaps are the ones a draw blocked on its warps announces.
#[test]
fn renderer_gaps_change_only_what_skip_books() {
    use emerald_conformance::eventconf::{renderer_gap_oracle, RendererGapScenario};
    use emerald_conformance::{base_config, gen_draw};
    let mut gaps = 0;
    check_n(
        "renderer_gap_twins",
        env_cases("EMERALD_CONF_CASES", 6),
        |rng| {
            let sc = RendererGapScenario {
                case: gen_draw(rng),
                lag: 0,
            };
            match renderer_gap_oracle(&sc, &base_config()) {
                Ok(n) => gaps += n,
                Err(v) => panic!("{v:?}\n{}", sc.case.describe()),
            }
        },
    );
    assert!(gaps > 0, "no gap was ever announced");
}

/// Oracle 3c: lazy booking. Twins on one drain schedule — one settling
/// its GPU after every cycle and every jump (per-tick booking), the other
/// booking its parked cores only where the library does — walk random
/// kernels on a bare GPU and random draws on a standalone renderer under
/// either scheduler, half of them with L1s of two MSHRs (whose LSU heads
/// stall and park often); registry, in-flight summary and core stamps must
/// agree at random interior points and at the drain point, snapshot bytes
/// once drained. Scales with `EMERALD_CHECK_CASES` (default 8).
#[test]
fn lazy_core_booking_equals_per_tick_booking() {
    use emerald::gpu::config::WarpSched;
    use emerald_conformance::{
        base_config, booking_oracle, gen_draw, gen_program, BookingScenario, BookingWork,
    };
    let (mut case, mut checks) = (0, [0; 2]);
    check_n(
        "gpu_booking_twins",
        env_cases("EMERALD_CHECK_CASES", 8),
        |rng| {
            let cfg = GpuConfig {
                warp_sched: [WarpSched::Gto, WarpSched::Lrr][rng.below(2) as usize],
                ..base_config()
            };
            let kind = case % 2;
            case += 1;
            let work = if kind == 0 {
                BookingWork::Kernel(gen_program(rng), rng.next_u64())
            } else {
                BookingWork::Draw(gen_draw(rng))
            };
            let sc = BookingScenario {
                work,
                check_seed: rng.next_u64(),
                tight_l1: rng.chance(0.5),
                forget_fill_booking: false,
            };
            match booking_oracle(&sc, &cfg) {
                Ok(n) => checks[kind] += n,
                Err(v) => panic!("{v:?}\n{}", sc.describe()),
            }
        },
    );
    assert!(
        checks.iter().all(|&n| n > 0),
        "interior points compared (kernels, draws): {checks:?}"
    );
}

/// Lockstep passes just as well with pins that always answer `now + 1`.
/// What shows the clock really jumps is the loop-iteration count
/// (`HostProfile::ticks`, exact): on a `soc_dense`-shaped frame — DRAM
/// saturated, the GPU issuing a warp instruction every ~90 cycles — the
/// SoC loop runs for at most 0.40 of the simulated cycles (0.94 before the
/// DRAM, display, GPU and renderer pins were exact; 0.24 once they were,
/// 0.222 since a core behind a refused request parks until its channel
/// picks; 0.217 before each core slept on its own wake, 0.223 since). And
/// what shows a loop iteration ticks only what is due is the renderer's
/// share (`HostProfile::gpu_ticks`, exact: one `Gpu::cycle` per
/// renderer cycle): at most 0.15 per simulated cycle (every iteration
/// cycled it before the due set; 0.114 since). Within a renderer cycle
/// draw start and steps 3–8 run only when the renderer's wake is due
/// (`HostProfile::ff_steps`, exact): at most 0.2 of the renderer cycles
/// (every one with a draw current before the wake, 15 196 of 15 198;
/// 1 610 with steps 4–8 behind it, 1 613, 0.106, with steps 3–8). And a
/// CPU core runs ahead only to its next interaction
/// (`HostProfile::cpu_batches`, exact: one per run-ahead `run_batch`
/// call): at most 0.25 calls per loop iteration — 5 166 in 31 094, 0.166;
/// 1.78 while cores ran ahead through quiet windows (53 851 window calls
/// in 30 280 iterations), 5.13 counting the budget-1 calls of the cores
/// due at each step as well.
#[test]
fn a_waiting_soc_is_not_ticked() {
    use emerald::obs::prof;
    let (w, h) = (128, 96);
    let model = emerald::scene::workloads::m_models().swap_remove(0);
    let period = emerald::soc::experiment::calibrate_period(&model, w, h);
    let dcb = MemCfgKind::Dcb.build(DramConfig::lpddr3_1333());
    let mut soc = Soc::new(SocConfig::case_study_1(dcb, w, h, period));
    let binding = SceneBinding::new(&soc.mem, &model);
    let aspect = w as f32 / h as f32;
    soc.run_frame(vec![binding.draw_for_frame(5, aspect, false)], 500_000_000);
    prof::set_enabled(true);
    prof::reset();
    let rec = soc.run_frame(vec![binding.draw_for_frame(6, aspect, false)], 500_000_000);
    let profile = prof::take();
    prof::set_enabled(false);
    assert_eq!(profile.soc_cycles, rec.total_cycles);
    assert_eq!(profile.gpu_cycles, rec.total_cycles);
    assert!(
        profile.ticks * 100 <= rec.total_cycles * 40,
        "{} loop iterations for {} simulated cycles",
        profile.ticks,
        rec.total_cycles
    );
    assert!(
        profile.gpu_ticks * 100 <= rec.total_cycles * 15,
        "{} renderer cycles for {} simulated cycles",
        profile.gpu_ticks,
        rec.total_cycles
    );
    assert!(
        profile.ff_steps * 10 <= profile.gpu_ticks * 2,
        "steps 3–8 ran in {} of {} renderer cycles",
        profile.ff_steps,
        profile.gpu_ticks
    );
    assert!(
        profile.cpu_batches * 4 <= profile.ticks,
        "{} run-ahead CPU batches in {} loop iterations",
        profile.cpu_batches,
        profile.ticks
    );
}

/// The renderer books the cycles it was not cycled in lazily
/// (`GpuRenderer::skip` when it is next due, or when anything could read
/// them). On a saturated SoC its cores spend most of the frame parked
/// behind DRAM, owing cycles, while the CPUs step. A checkpoint must not
/// be able to tell: captured inside the CPU-only tail of a frame (a
/// commit boundary needs a drained renderer), its bytes, and the registry
/// the restored SoC publishes, equal the jump-off run's at the same cycle.
/// A booking that is late or lost shows in the GPU cores' counters.
#[test]
fn owed_renderer_booking_is_invisible() {
    use emerald::obs::prof;
    use emerald_conformance::{registry_json, Cell};
    let sc = SocScenario {
        memsys: MemCfgKind::Dcb.build(DramConfig::high_load()),
        width: 48,
        height: 32,
        period: 300_000,
        cpus: vec![
            CpuWorkload::driver(),
            CpuWorkload::streamer(),
            CpuWorkload::mixed(),
        ],
        work_div: 8,
        cube: true,
    };
    // Cores stepping per cycle keep their bookkeeping off the axis.
    let cfg = |event_skip: bool| {
        sc.config(Cell {
            event_skip,
            cpu_batch: false,
        })
    };
    // Frame 1, captured at `at`; returns the bytes and the frame's end.
    let capture = |event_skip: bool, at: Option<Cycle>| {
        let mut soc = Soc::new(cfg(event_skip));
        soc.run_frame(sc.draws(&soc, 0), 60_000_000);
        let d = sc.draws(&soc, 1);
        prof::set_enabled(true);
        prof::reset();
        let (rec, snap) = soc.run_frame_checkpoint(d, 60_000_000, at);
        let profile = prof::take();
        prof::set_enabled(false);
        let start = soc.now() - rec.total_cycles;
        (snap, start, rec, profile)
    };
    // Learn the frame's shape, then aim inside its CPU-only tail: the
    // driver's compose phase outlasts the GPU by thousands of cycles.
    let (_, start, rec, profile) = capture(true, None);
    assert!(
        profile.gpu_ticks < profile.ticks,
        "the renderer was cycled at every step, so it never owed a cycle"
    );
    let at = start + rec.total_cycles - 500;
    assert!(
        rec.total_cycles - rec.gpu_cycles > 2_000,
        "no CPU-only tail"
    );
    let (on, ..) = capture(true, Some(at));
    let on = on.expect("the tail is a commit boundary");
    let restored_on = Soc::restore(&on, &cfg(true)).expect("restore jump-on");
    let captured_at = restored_on.now();
    assert!(captured_at >= at && captured_at < start + rec.total_cycles);
    let (off, ..) = capture(false, Some(captured_at));
    let off = off.expect("the jump-off run visits the same boundary");
    let restored_off = Soc::restore(&off, &cfg(false)).expect("restore jump-off");
    assert_eq!(
        restored_off.now(),
        captured_at,
        "captured at different cycles"
    );
    assert!(on == off, "checkpoint bytes diverged");
    assert_eq!(registry_json(&restored_on), registry_json(&restored_off));
}

/// A `gpgpu_mix`-shaped `saxpy` launch on the bare GPU (more CTAs than
/// the cores hold, every warp waiting on DRAM most of the time), drained
/// with loop accounting on: the GPU, its simulated cycles, and the
/// profile.
fn saxpy_profile() -> (Gpu, Cycle, emerald::obs::prof::HostProfile) {
    use emerald::gpu::GlobalMemCtx;
    use emerald::obs::prof;
    let n = 1 << 13;
    let mem = SharedMem::with_capacity(1 << 22);
    let (x, y) = (mem.alloc(n * 4, 128), mem.alloc(n * 4, 128));
    let saxpy = "
        mov.b32 r0, %input0
        shl.u32 r1, r0, 2
        add.u32 r2, r1, %param0
        add.u32 r3, r1, %param1
        ld.global.b32 r4, [r2+0]
        ld.global.b32 r5, [r3+0]
        mov.b32 r6, %param2
        mad.f32 r7, r6, r4, r5
        st.global.b32 [r3+0], r7
        exit";
    let program = std::sync::Arc::new(assemble(saxpy).unwrap());
    let params = vec![x as u32, y as u32, 2.0f32.to_bits()];
    let mut gpu = Gpu::new(GpuConfig::case_study_1());
    let mut ctx = GlobalMemCtx::new(mem);
    let mut port = SimpleMemPort::new(MemorySystem::new(MemorySystemConfig::baseline(
        2,
        DramConfig::lpddr3_1600(),
    )));
    gpu.launch_kernel(Kernel::linear(program, n as usize, 64, params));
    prof::set_enabled(true);
    prof::reset();
    let cycles = gpu.run_to_idle(0, 10_000_000, &mut ctx, &mut port);
    let profile = prof::take();
    prof::set_enabled(false);
    (gpu, cycles, profile)
}

/// `a_waiting_soc_is_not_ticked` on the bare GPU: the `saxpy` launch
/// drains in at most 0.6 `drain_loop` iterations per simulated cycle (1.0
/// while a busy GPU pinned `now + 1`; 0.44 when written, 0.40 since a
/// held greedy pick no longer pins).
#[test]
fn a_waiting_gpu_is_not_ticked() {
    let (_, cycles, profile) = saxpy_profile();
    assert_eq!(profile.gpu_cycles, cycles);
    assert!(
        profile.ticks * 10 <= cycles * 6,
        "{} loop iterations for {cycles} simulated cycles",
        profile.ticks
    );
}

/// Inside the cycles the GPU does execute, an active core that is not due
/// is booked, not cycled: on the `saxpy` launch at most 0.12
/// `SimtCore::cycle` calls per active core-cycle (the cores' `cycles`
/// counters, which count booked cycles too) — 0.45 while every active
/// core was cycled in every `Gpu::cycle`; 0.085 when written.
#[test]
fn parked_cores_are_booked_not_cycled() {
    let (gpu, _, profile) = saxpy_profile();
    let active: u64 = (0..gpu.num_cores())
        .map(|i| gpu.core(i).stats().cycles)
        .sum();
    assert!(
        profile.core_cycles * 100 <= active * 12,
        "{} core cycles executed of {active} active",
        profile.core_cycles
    );
}

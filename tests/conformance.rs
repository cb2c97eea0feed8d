//! Conformance suite: differential fuzzing of the ISA pipeline and the
//! graphics pipeline against bit-identical references, metamorphic
//! invariance over the configuration matrix, and the injected-bug
//! canaries. Each canary runs the very oracle function whose random cases
//! another root test drives (DESIGN.md §10's coverage map), so a canary
//! that still fires proves the oracle that actually runs has teeth.
//!
//! Case counts of the differential and metamorphic tests scale with
//! `EMERALD_CONF_CASES` (default 32; CI pushes run 32, the scheduled deep
//! job runs 512); the canaries run fixed counts. Every failure prints a
//! replayable case seed via `emerald_common::check` and a shrunk
//! counterexample.

use emerald::common::check::{check_n, minimize};
use emerald::common::rng::Xorshift64;
use emerald::prelude::{Cycle, DramConfig, GpuConfig, MemCfgKind};
use emerald_conformance::isadiff::{self, shrink_failing};
use emerald_conformance::{
    batch_oracle, booking_oracle, check_case, check_case_matrix, check_with_injected_bug,
    conf_cases, display_gap_oracle, gap_oracle, gen_draw, gen_program, gpu_gap_oracle, pin_oracle,
    renderer_gap_oracle, run_draw_case, run_draw_case_timed, shrink_batch_candidates,
    shrink_booking_candidates, shrink_display_gap_candidates, shrink_draw_candidates,
    shrink_gap_candidates, shrink_gpu_gap_candidates, shrink_pin_candidates,
    shrink_renderer_gap_candidates, shrink_snap_candidates, shrink_wake_candidates, snap_oracle,
    wake_oracle, BatchScenario, BookingScenario, BookingWork, Cell, DisplayGapScenario,
    GapScenario, GpuGapScenario, PinScenario, RendererGapScenario, SnapBug, SnapScenario,
    SocScenario, WakeScenario,
};

/// Shrink-step budget. Generated programs have < 40 instructions, so this
/// always reaches a fixpoint.
const SHRINK_STEPS: usize = 200;

/// Random ISA programs must execute identically on the SIMT timing model
/// and the scalar reference walk: same output memory image (which embeds a
/// per-thread register checksum), same instruction count, same retired
/// warps.
#[test]
fn isa_differential_fuzz() {
    let cases = conf_cases().max(32);
    check_n("isa_differential", cases, |rng| {
        let data_seed = rng.next_u64();
        let gp = gen_program(rng);
        if let Err(div) = check_case(&gp, data_seed) {
            let (small, steps) =
                shrink_failing(gp, |c| check_case(c, data_seed).is_err(), SHRINK_STEPS);
            panic!(
                "{div}\nshrunk in {steps} steps to {} live instructions:\n{}",
                small.live_instrs(),
                small.dump()
            );
        }
    });
}

/// Random draw calls must render pixel-identically on the hardware
/// pipeline and the reference rasterizer, across degenerate, clipped and
/// off-screen geometry and every supported state combination.
#[test]
fn draw_differential_fuzz() {
    let cases = (conf_cases() / 2).max(16);
    check_n("draw_differential", cases, |rng| {
        let case = gen_draw(rng);
        let diff = run_draw_case(&case, &isadiff::base_config());
        if diff != 0 {
            let (small, steps) = minimize(
                case,
                shrink_draw_candidates,
                |c| run_draw_case(c, &isadiff::base_config()) != 0,
                SHRINK_STEPS,
            );
            panic!(
                "draw diverges from reference by {diff} pixels; shrunk in {steps} steps to: {}",
                small.describe()
            );
        }
    });
}

/// Metamorphic invariance: the functional observables of an ISA program
/// are identical across host thread counts (1/2/4), GTO vs. LRR warp
/// scheduling, and halved/quartered cache geometries.
#[test]
fn isa_metamorphic_invariance() {
    let cases = (conf_cases() / 4).max(8);
    check_n("isa_metamorphic", cases, |rng| {
        let data_seed = rng.next_u64();
        let gp = gen_program(rng);
        if let Err(div) = check_case_matrix(&gp, data_seed) {
            let (small, steps) = shrink_failing(
                gp,
                |c| check_case_matrix(c, data_seed).is_err(),
                SHRINK_STEPS,
            );
            panic!(
                "{div}\nshrunk in {steps} steps to {} live instructions:\n{}",
                small.live_instrs(),
                small.dump()
            );
        }
    });
}

/// Metamorphic invariance for draws: every configuration in the matrix
/// must produce the reference image exactly, so all configurations agree
/// with each other.
#[test]
fn draw_metamorphic_invariance() {
    let cases = (conf_cases() / 8).max(4);
    check_n("draw_metamorphic", cases, |rng| {
        let case = gen_draw(rng);
        for (label, cfg) in isadiff::config_matrix() {
            let diff = run_draw_case(&case, &cfg);
            assert_eq!(
                diff,
                0,
                "config {label} diverges by {diff} pixels on: {}",
                case.describe()
            );
        }
    });
}

/// The event-skip axis for draws: a random draw renders pixel-identically
/// to the reference with skipping off and on, and the two modes agree on
/// the frame's statistics (simulated cycles, instructions, ...) and the
/// renderer's whole published registry (retired warps among it) bit for
/// bit.
#[test]
fn draw_skip_axis_is_cycle_identical() {
    let cases = (conf_cases() / 8).max(4);
    check_n("draw_skip_axis", cases, |rng| {
        let case = gen_draw(rng);
        let [off, on] = [false, true].map(|event_skip| {
            let cfg = GpuConfig {
                event_skip,
                ..isadiff::base_config()
            };
            run_draw_case_timed(&case, &cfg)
        });
        for (diff, label) in [(off.0, "skip-off"), (on.0, "skip-on")] {
            assert_eq!(
                diff,
                0,
                "{label} diverges by {diff} pixels on: {}",
                case.describe()
            );
        }
        assert!(off.1.instructions > 0, "the frame ran no warp");
        assert_eq!(
            off.1,
            on.1,
            "frame stats differ across the skip axis on: {}",
            case.describe()
        );
        assert!(
            off.2 == on.2,
            "registry differs across the skip axis on: {}",
            case.describe()
        );
    });
}

/// The event-contract canary: a `next_event` that reports *later* than
/// the truth (the unsafe direction of the skip contract) must be caught
/// by the very gap oracles the random cases in `tests/event_skip.rs` run
/// — a completion or a state byte changing inside an announced-dead
/// stretch of the memory system or the display, a GPU twin that
/// sleeps too long disagreeing with the one cycled through the gap —
/// replay from its seed, and shrink to a minimal still-failing scenario
/// that keeps the injected lag alive.
#[test]
fn under_reported_next_event_is_caught_and_shrunk() {
    let mut dash_or_hmc_with_writes = 0;
    check_n("under_report_canary", 16, |rng| {
        let sc = GapScenario {
            lag: rng.range(1, 32),
            ..GapScenario::random(rng)
        };
        let honest = GapScenario {
            lag: 0,
            ..sc.clone()
        };
        gap_oracle(&honest).expect("honest next_event reports conform");
        let v = gap_oracle(&sc).expect_err("lagged next_event must be caught");
        assert!(
            v.announced > v.after + 1,
            "violation is inside a gap: {v:?}"
        );
        let (small, _steps) = minimize(
            sc.clone(),
            shrink_gap_candidates,
            |c| gap_oracle(c).is_err(),
            64,
        );
        assert!(small.lag >= 1, "shrinking never reaches the honest lag 0");
        assert!(small.reqs.len() <= sc.reqs.len() && small.lag <= sc.lag);
        gap_oracle(&small).expect_err(&format!(
            "shrunk scenario still fails: {}",
            small.describe()
        ));
        dash_or_hmc_with_writes += (sc.mem != MemCfgKind::Bas && sc.writes() > 0) as u32;
    });
    assert!(
        dash_or_hmc_with_writes > 0,
        "every lag landed on BAS or on reads only"
    );
    check_n("display_under_report_canary", 8, |rng| {
        let sc = DisplayGapScenario {
            lag: rng.range(1, 32),
            ..DisplayGapScenario::random(rng)
        };
        let v = display_gap_oracle(&sc).expect_err("lagged display next_event must be caught");
        assert!(
            v.announced > v.after + 1,
            "violation is inside a gap: {v:?}"
        );
        let (small, _steps) = minimize(
            sc.clone(),
            shrink_display_gap_candidates,
            |c| display_gap_oracle(c).is_err(),
            64,
        );
        assert!(small.lag >= 1 && small.lag <= sc.lag && small.period <= sc.period);
        display_gap_oracle(&small).expect_err(&format!("shrunk scenario still fails: {small:?}"));
    });
    // The same canary on the GPU's pins, whose gaps are not dead but
    // booked: the twin that sleeps `lag` cycles too long must disagree
    // with the one cycled through the gap.
    let cfg = isadiff::base_config();
    check_n("gpu_under_report_canary", 8, |rng| {
        let sc = GpuGapScenario {
            data_seed: rng.next_u64(),
            gp: gen_program(rng),
            lag: rng.range(1, 32),
        };
        let honest = GpuGapScenario {
            lag: 0,
            ..sc.clone()
        };
        gpu_gap_oracle(&honest, &cfg).expect("honest GPU next_event reports conform");
        gpu_gap_oracle(&sc, &cfg).expect_err("lagged GPU next_event must be caught");
        let (small, _steps) = minimize(
            sc.clone(),
            shrink_gpu_gap_candidates,
            |c| gpu_gap_oracle(c, &cfg).is_err(),
            64,
        );
        assert!(small.lag >= 1, "shrinking never reaches the honest lag 0");
        assert!(small.gp.live_instrs() <= sc.gp.live_instrs() && small.lag <= sc.lag);
        gpu_gap_oracle(&small, &cfg).expect_err("shrunk scenario still fails");
    });
}

/// The renderer's lag canary: a standalone renderer whose `next_event`
/// answers 1–31 cycles late sleeps through a cycle in which its wake or
/// its GPU moves, so the twin oracle the random draws in
/// `tests/event_skip.rs` run must catch it for every seed and shrink the
/// draw to one that still fails with the lag kept, while the honest
/// renderer, the shrunk draw included, passes.
#[test]
fn renderer_under_reported_next_event_is_caught_and_shrunk() {
    let cfg = isadiff::base_config();
    check_n("renderer_under_report_canary", 8, |rng| {
        let sc = RendererGapScenario {
            case: gen_draw(rng),
            lag: rng.range(1, 32),
        };
        let v = renderer_gap_oracle(&sc, &cfg).expect_err("lagged renderer must be caught");
        assert!(
            v.announced > v.after + 1,
            "violation is inside a gap: {v:?}"
        );
        let (small, _steps) = minimize(
            sc.clone(),
            shrink_renderer_gap_candidates,
            |c| renderer_gap_oracle(c, &cfg).is_err(),
            64,
        );
        assert!(small.lag >= 1, "shrinking never reaches the honest lag 0");
        assert!(small.case.prims() <= sc.case.prims() && small.lag <= sc.lag);
        renderer_gap_oracle(&small, &cfg).expect_err("shrunk scenario still fails");
        let honest = RendererGapScenario { lag: 0, ..small };
        renderer_gap_oracle(&honest, &cfg).expect("honest renderer next_event reports conform");
    });
}

/// The cached-pin canary: a CPU request that enters the memory system
/// without invalidating its cached wake pin (an interaction the due set
/// would then sleep through) must be caught by the SoC's pin audit for
/// every seed, and shrink to a still-failing scenario that keeps the bug.
#[test]
fn forgotten_pin_invalidation_is_caught_and_shrunk() {
    // The honest SoC passes...
    let honest = PinScenario {
        frames: 2,
        work_div: 16,
        mem: MemCfgKind::Dcb,
        dense: false,
        forget_cpu_enqueues: false,
        forget_cpu_refused: false,
    };
    pin_oracle(&honest).expect("honest cached pins conform");
    // ...and the forgotten invalidation is always caught, then minimized.
    check_n("pin_invalidation_canary", 4, |rng| {
        let sc = PinScenario {
            frames: rng.range(1, 4) as u32,
            work_div: 1 << rng.range(2, 7),
            // Not HMC: its CPU channel, which nothing else shares, stays
            // backlogged in these frames, so no CPU request lands before
            // the pin there and a forgotten invalidation does no harm.
            mem: MemCfgKind::ALL[rng.below(3) as usize],
            dense: false,
            forget_cpu_enqueues: true,
            forget_cpu_refused: false,
        };
        let v = pin_oracle(&sc).expect_err("a forgotten invalidation must be caught");
        assert!(v.contains("memory system pin"), "caught by the audit: {v}");
        let (small, _steps) = minimize(
            sc.clone(),
            shrink_pin_candidates,
            |c| pin_oracle(c).is_err(),
            16,
        );
        assert!(small.forget_cpu_enqueues, "shrinking never removes the bug");
        assert!(small.frames <= sc.frames && small.work_div >= sc.work_div);
        pin_oracle(&small).expect_err(&format!(
            "shrunk scenario still fails: {}",
            small.describe()
        ));
    });
}

/// The booking canary: a fill that does not book its core's parked
/// cycles first clears the L1 stall memo those cycles' retries are booked
/// by, so the retries (`l1*.stalls`, `reads`) are lost. The booking
/// oracle, which `tests/event_skip.rs` runs on random kernels and draws,
/// must catch it for every seed — with L1s of two MSHRs, whose heads stall
/// and park often — and shrink the case to one that still fails with the
/// bug kept, while the honest GPU passes.
#[test]
fn forgotten_fill_booking_is_caught_and_shrunk() {
    let cfg = isadiff::base_config();
    check_n("fill_booking_canary", 4, |rng| {
        let work = if rng.chance(0.5) {
            BookingWork::Kernel(gen_program(rng), rng.next_u64())
        } else {
            BookingWork::Draw(gen_draw(rng))
        };
        let honest = BookingScenario {
            work,
            check_seed: rng.next_u64(),
            tight_l1: true,
            forget_fill_booking: false,
        };
        booking_oracle(&honest, &cfg).expect("honest lazy booking conforms");
        let sc = BookingScenario {
            forget_fill_booking: true,
            ..honest
        };
        let v = booking_oracle(&sc, &cfg).expect_err("a forgotten fill booking must be caught");
        assert!(
            v.detail.contains(".l1"),
            "caught through an L1 counter: {v:?}"
        );
        let (small, _steps) = minimize(
            sc.clone(),
            shrink_booking_candidates,
            |c| booking_oracle(c, &cfg).is_err(),
            16,
        );
        assert!(small.forget_fill_booking, "shrinking never removes the bug");
        booking_oracle(&small, &cfg).expect_err(&format!(
            "shrunk scenario still fails: {}",
            small.describe()
        ));
    });
}

/// The CPU pin canary: a CPU cluster that is not due when the memory
/// system ticks while a core holds a request it refused keeps that
/// request waiting for the cluster's own pin, although its channel has
/// made room. The SoC's audit (`CpuCluster::audit`, armed in any build
/// through `pin_oracle`) must catch it for every seed and shrink the case
/// to one that still fails with the bug kept.
#[test]
fn forgotten_refused_cpu_head_is_caught_and_shrunk() {
    check_n("cpu_refused_canary", 4, |rng| {
        let honest = PinScenario {
            frames: rng.range(1, 3) as u32,
            work_div: 1 << rng.range(2, 7),
            // Not HMC, whose CPU channel nothing else shares; and dense,
            // where CPU requests are refused.
            mem: MemCfgKind::ALL[rng.below(3) as usize],
            dense: true,
            forget_cpu_enqueues: false,
            forget_cpu_refused: false,
        };
        pin_oracle(&honest).expect("honest CPU pins conform");
        let sc = PinScenario {
            forget_cpu_refused: true,
            ..honest
        };
        let v = pin_oracle(&sc).expect_err("a forgotten refused head must be caught");
        assert!(
            v.contains("that the memory system accepts"),
            "caught by the audit: {v}"
        );
        let (small, _steps) = minimize(
            sc.clone(),
            shrink_pin_candidates,
            |c| pin_oracle(c).is_err(),
            16,
        );
        assert!(small.forget_cpu_refused, "shrinking never removes the bug");
        pin_oracle(&small).expect_err(&format!(
            "shrunk scenario still fails: {}",
            small.describe()
        ));
    });
}

/// A memory-bound one-phase scenario for the batch-contract canaries: it
/// reaches the outstanding-miss limit again and again, in unbounded
/// windows.
fn memory_bound_batch(rng: &mut Xorshift64) -> BatchScenario {
    use emerald::soc::cpu::{CpuWorkload, Phase};
    let work = Phase::Work {
        instrs: rng.range(2_000, 8_000),
        mem_ratio: rng.range(60, 101) as f64 / 100.0,
        footprint: (1024 << rng.below(4)) << 10,
        sequential: false,
    };
    BatchScenario {
        workload: CpuWorkload { phases: vec![work] },
        seed: 0xBA7C,
        latency: rng.range(20, 200),
        cap: Cycle::MAX,
        fence: 0,
        overrun: 0,
        blind_limit: false,
    }
}

/// The batch-contract canary: a batch scheduler that deliberately runs a
/// stalled core *past* the response-delivery cycle that unstalls it (the
/// unsafe direction of the `run_batch` contract) must be caught by the
/// twin-core oracle the random cases in `tests/cpu_batch.rs` run, as a
/// diverging observation or core state, replay from its seed, and shrink
/// to a minimal still-failing scenario that keeps the overrun alive.
#[test]
fn overrun_batch_window_is_caught_and_shrunk() {
    check_n("batch_overrun_canary", 8, |rng| {
        let honest = memory_bound_batch(rng);
        let sc = BatchScenario {
            overrun: rng.range(1, 32),
            ..honest.clone()
        };
        batch_oracle(&honest).expect("honest batch windows conform");
        let v = batch_oracle(&sc).expect_err("overrun batch window must be caught");
        assert!(!v.detail.is_empty());
        let (small, _steps) = minimize(
            sc.clone(),
            shrink_batch_candidates,
            |c| batch_oracle(c).is_err(),
            64,
        );
        assert!(small.overrun >= 1, "shrinking never reaches the honest 0");
        assert!(small.overrun <= sc.overrun && small.latency <= sc.latency);
        batch_oracle(&small).expect_err(&format!(
            "shrunk scenario still fails: {}",
            small.describe()
        ));
    });
}

/// The limit canary: a batch scheduler that runs a core on past its
/// outstanding-miss limit, as if the limit were no interaction, burns as
/// stalls the cycles in which a response would have let it run. The same
/// twin-core oracle must catch it for every seed, and the case must shrink
/// to one that still fails with the bug kept.
#[test]
fn limit_blind_batch_is_caught_and_shrunk() {
    check_n("batch_limit_canary", 8, |rng| {
        let honest = memory_bound_batch(rng);
        batch_oracle(&honest).expect("honest batch windows conform");
        let sc = BatchScenario {
            blind_limit: true,
            ..honest
        };
        let v = batch_oracle(&sc).expect_err("a window blind to the limit must be caught");
        assert!(!v.detail.is_empty());
        let (small, _steps) = minimize(
            sc.clone(),
            shrink_batch_candidates,
            |c| batch_oracle(c).is_err(),
            64,
        );
        assert!(small.blind_limit, "shrinking never removes the bug");
        assert!(small.latency <= sc.latency);
        batch_oracle(&small).expect_err(&format!(
            "shrunk scenario still fails: {}",
            small.describe()
        ));
    });
}

/// The CPU-wake canary: a CPU cluster never told that the frame's fence
/// flipped lets a core waiting on the fence sleep past the cycle it must
/// leave the wait. The SoC's wake audit (`Soc::audit_pins`, armed in any
/// build by `Soc::debug_audit_cpu_wakes`) must catch it through
/// `socconf::wake_oracle` for every seed, and the case must shrink to one
/// that still fails with the bug kept; the honest SoC passes the audit.
#[test]
fn forgotten_fence_wake_is_caught_and_shrunk() {
    check_n("fence_wake_canary", 4, |rng| {
        let honest = WakeScenario {
            soc: SocScenario::random(rng),
            frames: rng.range(1, 3) as u32,
            forget_fence_flip: false,
            forget_cpu_refused: false,
        };
        wake_oracle(&honest).expect("honest CPU wakes conform");
        let sc = WakeScenario {
            forget_fence_flip: true,
            ..honest
        };
        let v = wake_oracle(&sc).expect_err("a forgotten fence flip must be caught");
        assert!(v.contains("waits on the fence"), "caught by the audit: {v}");
        let (small, _steps) = minimize(
            sc.clone(),
            shrink_wake_candidates,
            |c| wake_oracle(c).is_err(),
            16,
        );
        assert!(small.forget_fence_flip, "shrinking never removes the bug");
        assert!(small.frames <= sc.frames && small.soc.cpus.len() <= sc.soc.cpus.len());
        wake_oracle(&small).expect_err(&format!(
            "shrunk scenario still fails: {}",
            small.describe()
        ));
    });
}

/// The CPU pin canary at the random scenarios' sizes: a random
/// [`SocScenario`] with a 2–8 request channel queue refuses CPU requests
/// at 48×32 and 64×48 too, so the refused-head bug (see
/// `forgotten_refused_cpu_head_is_caught_and_shrunk`, which needs 128×96
/// with the default queue) must be caught through `socconf::wake_oracle`
/// for every seed, and shrink to a case that still fails with the bug
/// kept; the honest SoC passes the audit.
#[test]
fn forgotten_refused_cpu_head_is_caught_in_random_scenarios() {
    check_n("cpu_refused_canary_random", 4, |rng| {
        let honest = WakeScenario {
            soc: std::iter::repeat_with(|| SocScenario::random(rng))
                .find(|sc| sc.memsys.dram.queue_cap <= 8)
                .expect("a quarter of the scenarios queue shallowly"),
            frames: 2,
            forget_fence_flip: false,
            forget_cpu_refused: false,
        };
        wake_oracle(&honest).expect("honest CPU pins conform");
        let sc = WakeScenario {
            forget_cpu_refused: true,
            ..honest
        };
        let v = wake_oracle(&sc).expect_err(&format!(
            "a forgotten refused head must be caught: {}",
            sc.describe()
        ));
        assert!(
            v.contains("that the memory system accepts"),
            "caught by the audit: {v}"
        );
        let (small, _steps) = minimize(
            sc.clone(),
            shrink_wake_candidates,
            |c| wake_oracle(c).is_err(),
            16,
        );
        assert!(small.forget_cpu_refused, "shrinking never removes the bug");
        wake_oracle(&small).expect_err(&format!(
            "shrunk scenario still fails: {}",
            small.describe()
        ));
    });
}

/// The snapshot canary: both unsafe directions of checkpoint/restore — a
/// corrupted snapshot byte and a component whose hidden state (an RNG
/// stream) is left un-restored — must be caught by the straight-vs-
/// restored twin oracle, replay from their seed, and shrink to a minimal
/// still-failing scenario that keeps the injected bug alive.
#[test]
fn corrupted_or_partial_restore_is_caught_and_shrunk() {
    let soc = SocScenario::two_core(MemCfgKind::Bas.build(DramConfig::lpddr3_1600()), 16);
    // The honest implementation passes...
    snap_oracle(&SnapScenario {
        soc: soc.clone(),
        cell: Cell {
            cpu_batch: false,
            ..Cell::PRESET
        },
        restore_cell: Cell::PRESET,
        frames: 2,
        at_frame: 1,
        offset_pct: 40,
        bug: SnapBug::None,
    })
    .expect("honest checkpoint/restore conforms");
    // ...and seeded random injections are always caught, then minimized.
    // The oracle runs a full SoC twice, so the case count stays small.
    check_n("snapshot_canary", 4, |rng| {
        let bug = if rng.chance(0.5) {
            SnapBug::FlipByte {
                pos_pct: rng.below(101) as u32,
                mask: 1 << rng.below(8),
            }
        } else {
            SnapBug::StaleRng
        };
        let sc = SnapScenario {
            soc: soc.clone(),
            frames: 2 + rng.below(2) as u32,
            at_frame: 1,
            offset_pct: rng.range(0, 120) as u32,
            cell: Cell {
                event_skip: rng.chance(0.5),
                cpu_batch: rng.chance(0.5),
            },
            restore_cell: Cell {
                event_skip: rng.chance(0.5),
                cpu_batch: rng.chance(0.5),
            },
            bug,
        };
        let v = snap_oracle(&sc).expect_err("injected snapshot bug must be caught");
        assert!(!v.detail.is_empty());
        let (small, _steps) = minimize(
            sc.clone(),
            shrink_snap_candidates,
            |c| snap_oracle(c).is_err(),
            16,
        );
        assert_eq!(small.bug, sc.bug, "shrinking never removes the bug");
        assert!(small.frames <= sc.frames && small.offset_pct <= sc.offset_pct);
        snap_oracle(&small).expect_err(&format!(
            "shrunk scenario still fails: {}",
            small.describe()
        ));
    });
}

/// The loop-accounting profiler as a conformance axis: random ISA
/// programs and draw calls must produce bit-identical observables with
/// profiling enabled — the profiler reads the simulation, never the other
/// direction. (The SoC's profiled cells are `gate_matrix`'s.)
#[test]
fn profiling_axis_is_invisible() {
    let cases = (conf_cases() / 8).max(4);
    emerald::obs::prof::set_enabled(true);
    let result = std::panic::catch_unwind(|| {
        check_n("profiling_axis", cases, |rng| {
            let data_seed = rng.next_u64();
            let gp = gen_program(rng);
            check_case(&gp, data_seed).expect("program conforms with profiling on");
            let case = gen_draw(rng);
            let diff = run_draw_case(&case, &isadiff::base_config());
            assert_eq!(
                diff,
                0,
                "draw diverges by {diff} pixels with profiling on: {}",
                case.describe()
            );
        });
    });
    emerald::obs::prof::set_enabled(false);
    emerald::obs::prof::reset();
    if let Err(p) = result {
        std::panic::resume_unwind(p);
    }
}

/// The canary: a deliberately injected ALU bug (`add.u32` → `sub.u32` on
/// the timing side only) must be caught as a divergence, replay from its
/// seed, and shrink to a smaller failing program that still contains the
/// corrupted instruction.
#[test]
fn injected_alu_bug_is_caught_and_shrunk() {
    let mut rng = Xorshift64::new(0x5EED_CA9A_11E5_0001);
    let data_seed = rng.next_u64();
    let gp = gen_program(&mut rng);
    let site = emerald_conformance::bug_site(&gp).expect("prologue always has an add.u32");

    // The healthy program passes...
    check_case(&gp, data_seed).expect("unmutated program conforms");
    // ...the corrupted one must not.
    let div = check_with_injected_bug(&gp, site, data_seed)
        .expect_err("injected ALU bug must be detected");
    let msg = div.to_string();
    assert!(msg.contains("injected_bug"), "report names the run: {msg}");

    // Shrinking with the same oracle keeps the bug site live: candidates
    // that Nop the corrupted add (or drop past it) pass and are rejected.
    let (small, steps) = shrink_failing(
        gp.clone(),
        |c| check_with_injected_bug(c, site, data_seed).is_err(),
        SHRINK_STEPS,
    );
    assert!(steps > 0, "shrinker makes progress");
    assert!(
        small.live_instrs() < gp.live_instrs(),
        "shrunk program is smaller: {} < {}",
        small.live_instrs(),
        gp.live_instrs()
    );
    assert!(
        emerald_conformance::bug_site(&small).is_some(),
        "the corrupted instruction survives shrinking:\n{}",
        small.dump()
    );
    // And the minimized case still reproduces.
    check_with_injected_bug(&small, site, data_seed).expect_err("shrunk case still fails");
}

//! Conformance suite: differential fuzzing of the ISA pipeline and the
//! graphics pipeline against bit-identical references, plus metamorphic
//! invariance over the configuration matrix and the injected-bug canary.
//!
//! Case counts scale with `EMERALD_CONF_CASES` (default 32; CI pushes run
//! 32, the scheduled deep job runs 512). Every failure prints a replayable
//! case seed via `emerald_common::check` and a shrunk counterexample.

use emerald::common::check::{check_n, minimize};
use emerald::common::rng::Xorshift64;
use emerald_conformance::isadiff::{self, shrink_failing};
use emerald_conformance::{
    batch_oracle, check_case, check_case_matrix, check_with_injected_bug, conf_cases, gap_oracle,
    gen_draw, gen_program, gpu_gap_oracle, pin_oracle, run_draw_case, run_draw_case_timed,
    shrink_batch_candidates, shrink_draw_candidates, shrink_gap_candidates,
    shrink_gpu_gap_candidates, shrink_pin_candidates, shrink_snap_candidates, skip_dispatch_points,
    snap_oracle, BatchScenario, Cell, GapScenario, GpuGapScenario, PinScenario, SnapBug,
    SnapScenario, SocScenario,
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

/// The event-skip axis for draws: at every dispatch point (threads 1/2/4
/// × pool forced/never), a random draw renders pixel-identically to the
/// reference with skipping off and on, and the two modes agree on the
/// simulated frame cycle count bit for bit.
#[test]
fn draw_skip_axis_is_cycle_identical() {
    let cases = (conf_cases() / 8).max(4);
    check_n("draw_skip_axis", cases, |rng| {
        let case = gen_draw(rng);
        for (dlabel, threads, thr) in skip_dispatch_points() {
            let mut off = isadiff::base_config();
            off.threads = threads;
            off.parallel_threshold = thr;
            off.event_skip = false;
            let mut on = off.clone();
            on.event_skip = true;
            let (diff_off, cycles_off) = run_draw_case_timed(&case, &off);
            let (diff_on, cycles_on) = run_draw_case_timed(&case, &on);
            assert_eq!(
                diff_off,
                0,
                "skip-off diverges by {diff_off} pixels at {dlabel} on: {}",
                case.describe()
            );
            assert_eq!(
                diff_on,
                0,
                "skip-on diverges by {diff_on} pixels at {dlabel} on: {}",
                case.describe()
            );
            assert_eq!(
                cycles_off,
                cycles_on,
                "frame cycles differ across the skip axis at {dlabel} on: {}",
                case.describe()
            );
        }
    });
}

/// The event-contract canary: a `next_event` that reports *later* than
/// the truth (the unsafe direction of the skip contract) must be caught
/// by the gap oracle as a completion inside an announced-dead stretch,
/// replay from its seed, and shrink to a minimal still-failing scenario
/// that keeps the injected lag alive.
#[test]
fn under_reported_next_event_is_caught_and_shrunk() {
    // The honest implementation passes...
    gap_oracle(&GapScenario {
        reqs: 32,
        stride: 4096,
        lag: 0,
    })
    .expect("honest next_event reports conform");
    // ...and seeded random lags are always caught, then minimized.
    check_n("under_report_canary", 16, |rng| {
        let sc = GapScenario {
            reqs: rng.range(4, 64),
            stride: 128 * rng.range(1, 64),
            lag: rng.range(1, 32),
        };
        let v = gap_oracle(&sc).expect_err("lagged next_event must be caught");
        assert!(v.acted < v.announced, "violation is inside the gap");
        let (small, _steps) = minimize(
            sc.clone(),
            shrink_gap_candidates,
            |c| gap_oracle(c).is_err(),
            64,
        );
        assert!(small.lag >= 1, "shrinking never reaches the honest lag 0");
        assert!(small.reqs <= sc.reqs && small.lag <= sc.lag);
        gap_oracle(&small).expect_err(&format!(
            "shrunk scenario still fails: {}",
            small.describe()
        ));
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

/// The cached-pin canary: a CPU request that enters the memory system
/// without invalidating its cached wake pin (an interaction the due set
/// would then sleep through) must be caught by the SoC's pin audit for
/// every seed, and shrink to a still-failing scenario that keeps the bug.
#[test]
fn forgotten_pin_invalidation_is_caught_and_shrunk() {
    use emerald::soc::experiment::MemCfgKind;
    // The honest SoC passes...
    let honest = PinScenario {
        frames: 2,
        work_div: 16,
        mem: MemCfgKind::Dcb,
        forget_cpu_enqueues: false,
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
            forget_cpu_enqueues: true,
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

/// The batch-contract canary: a batch scheduler that deliberately runs a
/// core *past* a response-delivery cycle (the unsafe direction of the
/// `run_batch` contract) must be caught by the twin-core oracle as a
/// diverging request trace or statistic, replay from its seed, and shrink
/// to a minimal still-failing scenario that keeps the overrun alive.
#[test]
fn overrun_batch_window_is_caught_and_shrunk() {
    // The honest scheduler passes...
    batch_oracle(&BatchScenario {
        instrs: 4_000,
        mem_ratio_pct: 100,
        footprint_kb: 4 << 10,
        latency: 60,
        overrun: 0,
    })
    .expect("honest batch windows conform");
    // ...and seeded random overruns are always caught, then minimized.
    check_n("batch_overrun_canary", 8, |rng| {
        let sc = BatchScenario {
            instrs: rng.range(2_000, 8_000),
            mem_ratio_pct: rng.range(60, 101) as u32,
            footprint_kb: 1024 << rng.below(4),
            latency: rng.range(20, 200),
            overrun: rng.range(1, 32),
        };
        let v = batch_oracle(&sc).expect_err("overrun batch window must be caught");
        assert!(!v.detail.is_empty());
        let (small, _steps) = minimize(
            sc.clone(),
            shrink_batch_candidates,
            |c| batch_oracle(c).is_err(),
            64,
        );
        assert!(small.overrun >= 1, "shrinking never reaches the honest 0");
        assert!(small.instrs <= sc.instrs && small.overrun <= sc.overrun);
        batch_oracle(&small).expect_err(&format!(
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
    use emerald::prelude::{DramConfig, MemCfgKind};
    let soc = SocScenario::two_core(MemCfgKind::Bas.build(DramConfig::lpddr3_1600()), 16);
    // The honest implementation passes...
    snap_oracle(&SnapScenario {
        soc: soc.clone(),
        cell: Cell {
            cpu_batch: false,
            ..Cell::PRESET
        },
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
                threads: 1,
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

/// The host self-profiler as a conformance axis: random ISA programs and
/// draw calls must produce bit-identical observables with profiling
/// enabled — the profiler reads the simulation and the host clock, never
/// the other direction.
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

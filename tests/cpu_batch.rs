//! Oracle tests for batched CPU Work-phase execution
//! (`SocConfig::cpu_batch` → `CpuCoreModel::run_batch`).
//!
//! Batching is a host-time optimization and must be *invisible* to
//! simulated state: a core advanced `n` cycles in one `run_batch` call has
//! to land in exactly the state `n` single-cycle calls produce, and the
//! SoC's batch scheduler must deliver every interaction (requests, draw
//! submission, frame-end flips) at the same simulated cycle the per-cycle
//! reference clocking would. Every oracle here runs through
//! `emerald_conformance::gate_matrix`: all four `cpu_batch × event_skip`
//! cells agree at every frame barrier.
//!
//! 1. **Random CPU-only frames** — seeded random scenarios with an empty
//!    draw list, so nothing but memory and the display bounds a batch
//!    window (the cube-drawing random lockstep is in `tests/event_skip.rs`).
//! 2. **Fixed matrix** — one fixed two-core scenario across
//!    `cpu_batch × event_skip`, three frames.
//!
//! Then the scenarios built to hit the run-ahead scheduler's corners, each
//! with its own assertion:
//!
//! 3. **Unbounded windows** — nothing bounds a window early in the frame,
//!    so fence polls must not pre-burn past the draw submission.
//! 4. **Stall path** — cores saturate the outstanding-miss limit;
//!    `stall_cycles` (bulk-burned by `run_batch` on stalled entry) must
//!    match and the scenario must actually stall.
//! 5. **Refused requests** — a streamer against a one-deep channel queue
//!    holds refused requests all frame; the clock visits the stuck core
//!    only where its channel picks.
//!
//! Case counts scale with `EMERALD_CONF_CASES`.

use emerald::common::check::{check_n, env_cases};
use emerald::prelude::*;
use emerald::soc::cpu::{CpuWorkload, Phase};
use emerald_conformance::{gate_matrix, Cell, SocScenario};

/// Runs `sc`'s first frame in every gate cell, panicking on divergence.
fn lockstep(sc: &SocScenario) -> Soc {
    gate_matrix(sc, 1).unwrap_or_else(|e| panic!("{e}"))
}

/// Oracle 1: random scenarios whose frames draw nothing. The GPU idles,
/// so each window runs up to the next memory completion, display fetch or
/// frame-end flip; every cell must deliver them on the same cycle.
#[test]
fn random_soc_scenarios_are_batch_invariant() {
    check_n(
        "soc_batch_axis",
        env_cases("EMERALD_CONF_CASES", 3),
        |rng| {
            let sc = SocScenario {
                cube: false,
                ..SocScenario::random(rng)
            };
            let frames = 1 + rng.below(2) as u32;
            if let Err(e) = gate_matrix(&sc, frames) {
                panic!("{e}\n{sc:?}");
            }
        },
    );
}

/// Oracle 2: the `cpu_batch × event_skip` matrix runs three bit-identical
/// frames (restores across its cells are
/// `tests/snapshot.rs::restore_matrix_is_bit_identical`).
#[test]
fn batch_skip_matrix_is_bit_identical() {
    let sc = SocScenario::two_core(MemCfgKind::Dcb.build(DramConfig::lpddr3_1600()), 10);
    gate_matrix(&sc, 3).unwrap_or_else(|e| panic!("{e}"));
}

/// Regression: with a baseline (non-DASH) memory system and an idle
/// display, nothing bounds the batch window early in the frame, so a core
/// in an unsatisfied `WaitGpu` could pre-burn its fence polls across the
/// cycle where the draw submission later flips `gpu_done` — it then missed
/// the fence until the window's far edge and the frame barrier fired tens
/// of thousands of cycles late (caught driving `examples/trace_export.rs`
/// across the axis).
#[test]
fn unbounded_windows_do_not_preburn_fence_polls() {
    lockstep(&SocScenario {
        memsys: MemCfgKind::Bas.build(DramConfig::lpddr3_1333()),
        width: 64,
        height: 48,
        period: 400_000,
        cpus: vec![CpuWorkload::driver(), CpuWorkload::compute()],
        work_div: 1,
        cube: true,
    });
}

/// Oracle 4: a scenario saturating the outstanding-miss limit. Stalled
/// cycles are bulk-burned by `run_batch` when a core enters a batch window
/// stalled; the count must match the per-cycle reference exactly (the
/// registry carries it), and the scenario must actually stall (otherwise
/// the oracle checks nothing).
#[test]
fn stalled_cores_batch_identically() {
    let mut sc = SocScenario::two_core(MemCfgKind::Dcb.build(DramConfig::lpddr3_1600()), 8);
    let stall_heavy = CpuWorkload {
        phases: vec![
            Phase::Work {
                instrs: 250 * sc.work_div,
                mem_ratio: 1.0,
                footprint: 2 << 20,
                sequential: false,
            },
            Phase::WaitGpu,
        ],
    };
    sc.cpus.extend([stall_heavy.clone(), stall_heavy]);
    let stalls: Vec<u64> = lockstep(&sc)
        .cpu_stats()
        .iter()
        .map(|s| s.stall_cycles)
        .collect();
    assert!(
        stalls.iter().any(|&s| s > 1_000),
        "scenario failed to stall: {stalls:?}"
    );
}

/// A streamer against a channel whose scheduling queue holds one request:
/// the core spends the frame holding requests the memory system refused.
/// The DRAM timings keep the channel bus-bound (`t_rp + t_rcd + t_cl <=
/// burst_cycles`), so every completion lands on a pick; an 8×8 framebuffer
/// keeps the display's own prefetch wakes out of the way. The draw list
/// is empty, so the frame is the core's script and nothing else.
fn one_deep_streamer(instrs: u64) -> SocScenario {
    let dram = DramConfig {
        queue_cap: 1,
        t_rp: 0,
        t_rcd: 0,
        ..DramConfig::lpddr3_1333()
    };
    let Phase::Work {
        mem_ratio,
        footprint,
        sequential,
        ..
    } = CpuWorkload::streamer().phases[0]
    else {
        unreachable!("the streamer opens with its Work phase")
    };
    SocScenario {
        memsys: MemorySystemConfig::baseline(1, dram),
        width: 8,
        height: 8,
        period: 400_000,
        cpus: vec![CpuWorkload {
            phases: vec![
                Phase::Work {
                    instrs,
                    mem_ratio,
                    footprint,
                    sequential,
                },
                Phase::IssueDraw,
                Phase::WaitGpu,
            ],
        }],
        work_div: 1,
        cube: false,
    }
}

/// A core stuck on a refused request parks until its channel picks: the
/// request stays refused until then, so the core runs ahead behind it
/// instead of pinning the clock per cycle. All four gate cells agree, and
/// with both gates on, the loop iterations a longer backlog adds are at
/// most the channel picks it adds, plus one. Per-cycle clocking of the
/// stuck core would add one per cycle.
#[test]
fn stuck_core_parks_until_its_channel_picks() {
    use emerald::obs::prof;
    let backlog: Vec<(u64, u64, Cycle)> = [4_000, 8_000]
        .into_iter()
        .map(|instrs| {
            let sc = one_deep_streamer(instrs);
            lockstep(&sc);
            let mut soc = Soc::new(sc.config(Cell::PRESET));
            prof::set_enabled(true);
            prof::reset();
            let rec = soc.run_frame(vec![], 60_000_000);
            let ticks = prof::take().ticks;
            prof::set_enabled(false);
            (ticks, soc.memsys.stats().serviced, rec.total_cycles)
        })
        .collect();
    let [(t1, p1, c1), (t2, p2, c2)] = backlog[..] else {
        unreachable!("one run per length")
    };
    assert!(
        c2 - c1 > 10 * (p2 - p1),
        "the backlog did not stretch the frame"
    );
    assert!(
        t2 - t1 <= p2 - p1 + 1,
        "{} more loop iterations for {} more picks over {} more cycles",
        t2 - t1,
        p2 - p1,
        c2 - c1
    );
}

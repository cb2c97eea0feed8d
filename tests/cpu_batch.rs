//! Oracle tests for batched CPU Work-phase execution
//! (`SocConfig::cpu_batch` → `CpuCoreModel::run_batch`).
//!
//! Batching is a host-time optimization and must be *invisible* to
//! simulated state: a core advanced `n` cycles in one `run_batch` call has
//! to land in exactly the state `n` individual `tick` calls produce, and
//! the SoC's batch scheduler must deliver every interaction (requests,
//! draw submission, frame-end flips) at the same simulated cycle the
//! per-cycle reference clocking would. Four oracles enforce this:
//!
//! 1. **Lockstep batch axis** — seeded random SoC scenarios run twice,
//!    identical except `SocConfig::cpu_batch`, and must agree bit-for-bit
//!    on the clock, per-frame records, framebuffer and stats registry at
//!    every frame barrier. The event-skip axis is drawn at random per
//!    scenario so both batch modes are exercised under both clockings.
//! 2. **Full matrix** — one fixed scenario across
//!    `cpu_batch × event_skip × GPU threads {1,2,4}`: all twelve runs must
//!    produce the identical frame.
//! 3. **Stall path** — a scenario built to saturate the per-core
//!    outstanding-miss limit; `stall_cycles` (bulk-burned by `run_batch`
//!    on stalled entry) must match the reference exactly.
//! 4. **Refused requests** — a streamer against a one-deep channel queue
//!    holds refused requests all frame: lockstep across both gates, and
//!    the clock visits the stuck core only where its channel picks.

use emerald::common::check::{check_n, env_cases};
use emerald::common::rng::Xorshift64;
use emerald::prelude::*;
use emerald::scene::mesh::unit_cube;
use emerald::soc::cpu::{CpuWorkload, Phase};

/// Case count for the lockstep oracle; override with
/// `EMERALD_BATCH_CASES`.
fn batch_cases() -> u32 {
    env_cases("EMERALD_BATCH_CASES", 3)
}

fn registry_json(soc: &Soc) -> String {
    let mut reg = Registry::new();
    soc.publish(&mut reg);
    reg.to_json()
}

/// Shrinks every `Work` phase so a frame stays test-sized (same scheme as
/// the event-skip lockstep oracle).
fn shrink(mut w: CpuWorkload, rng: &mut Xorshift64) -> CpuWorkload {
    let div = rng.range(6, 14);
    for p in &mut w.phases {
        if let Phase::Work { instrs, .. } = p {
            *instrs = (*instrs / div).max(64);
        }
    }
    w
}

/// A deterministic cube draw, parameterized by frame index.
fn cube_draw(soc: &Soc, frame: u32, aspect: f32) -> DrawCall {
    use emerald::common::math::{Mat4, Vec3};
    let a = 0.4 + frame as f32 * 0.08;
    let mvp = Mat4::perspective(60f32.to_radians(), aspect, 0.1, 50.0).mul_mat4(&Mat4::look_at(
        Vec3::new(2.0 * a.cos(), 1.0, 2.0 * a.sin()),
        Vec3::splat(0.0),
        Vec3::new(0.0, 1.0, 0.0),
    ));
    let fso = FsOptions {
        textured: false,
        ..FsOptions::default()
    };
    DrawCall {
        vb: VertexBuffer::upload(&soc.mem, &unit_cube()),
        topology: Topology::Triangles,
        vs: shaders::vertex_transform(),
        fs: shaders::fragment_shader(fso),
        mvp: mvp.to_array(),
        depth_test: true,
        depth_write: true,
        blend: false,
        texture: None,
    }
}

/// Draws a random SoC scenario from `rng` with the batch axis pinned to
/// `cpu_batch`. The event-skip axis is part of the *scenario* (drawn from
/// `rng`, so both sides of a lockstep pair agree on it).
fn random_config(rng: &mut Xorshift64, cpu_batch: bool) -> SocConfig {
    let kind = [MemCfgKind::Bas, MemCfgKind::Dcb, MemCfgKind::Hmc][rng.below(3) as usize];
    let dram = if rng.chance(0.5) {
        DramConfig::lpddr3_1333()
    } else {
        DramConfig::lpddr3_1600()
    };
    let (w, h) = if rng.chance(0.5) { (48, 32) } else { (64, 48) };
    let period = rng.range(150_000, 400_000);
    let mut cfg = SocConfig::case_study_1(kind.build(dram), w, h, period);
    let extras = [
        CpuWorkload::streamer(),
        CpuWorkload::compute(),
        CpuWorkload::mixed(),
    ];
    let mut workloads = vec![shrink(CpuWorkload::driver(), rng)];
    for e in extras {
        if rng.chance(0.5) {
            workloads.push(shrink(e, rng));
        }
    }
    cfg.cpu_workloads = workloads;
    cfg.gpu.event_skip = rng.chance(0.5);
    cfg.cpu_batch = cpu_batch;
    cfg
}

/// Oracle 1: per-cycle and batched instances of the *same* random scenario
/// advance in lockstep — identical clock, identical per-frame records,
/// identical framebuffer and registry snapshot at every frame barrier.
#[test]
fn random_soc_scenarios_are_batch_invariant() {
    check_n("soc_batch_axis", batch_cases(), |rng| {
        // Sample once, instantiate twice: the scenario (including its
        // event-skip setting) is identical, only the batch axis differs.
        let scenario = rng.next_u64();
        let cfg_ref = random_config(&mut Xorshift64::new(scenario), false);
        let cfg_bat = random_config(&mut Xorshift64::new(scenario), true);
        assert!(!cfg_ref.cpu_batch && cfg_bat.cpu_batch);
        assert_eq!(cfg_ref.gpu.event_skip, cfg_bat.gpu.event_skip);
        let frames = 1 + rng.below(2) as u32;
        let aspect = cfg_ref.width as f32 / cfg_ref.height as f32;
        let mut reference = Soc::new(cfg_ref);
        let mut batched = Soc::new(cfg_bat);
        for f in 0..frames {
            let d_ref = cube_draw(&reference, f, aspect);
            let d_bat = cube_draw(&batched, f, aspect);
            let r_ref = reference.run_frame(vec![d_ref], 60_000_000);
            let r_bat = batched.run_frame(vec![d_bat], 60_000_000);
            assert_eq!(
                r_ref.gpu_cycles, r_bat.gpu_cycles,
                "gpu_cycles diverged at frame {f}"
            );
            assert_eq!(
                r_ref.total_cycles, r_bat.total_cycles,
                "total_cycles diverged at frame {f}"
            );
            assert_eq!(
                reference.now(),
                batched.now(),
                "clock diverged at frame {f}"
            );
            assert_eq!(
                reference.rt.read_color(&reference.mem),
                batched.rt.read_color(&batched.mem),
                "framebuffer diverged at frame {f}"
            );
            assert_eq!(
                registry_json(&reference),
                registry_json(&batched),
                "registry diverged at frame {f}"
            );
        }
    });
}

/// A fixed two-core scenario for the matrix and stall oracles.
fn fixed_config(cpu_batch: bool, event_skip: bool, threads: usize) -> SocConfig {
    let mut cfg = SocConfig::case_study_1(
        MemCfgKind::Dcb.build(DramConfig::lpddr3_1600()),
        48,
        32,
        200_000,
    );
    let mut rng = Xorshift64::new(0xBA7C);
    cfg.cpu_workloads = vec![
        shrink(CpuWorkload::driver(), &mut rng),
        shrink(CpuWorkload::mixed(), &mut rng),
    ];
    cfg.cpu_batch = cpu_batch;
    cfg.gpu.event_skip = event_skip;
    cfg.gpu.threads = threads;
    cfg
}

/// Oracle 2: the full `cpu_batch × event_skip × threads` matrix produces
/// one bit-identical frame.
#[test]
fn batch_skip_thread_matrix_is_bit_identical() {
    let mut reference: Option<(u64, u64, u64, Vec<u32>, String)> = None;
    for cpu_batch in [false, true] {
        for event_skip in [false, true] {
            for threads in [1usize, 2, 4] {
                let cfg = fixed_config(cpu_batch, event_skip, threads);
                let aspect = cfg.width as f32 / cfg.height as f32;
                let mut soc = Soc::new(cfg);
                let d = cube_draw(&soc, 0, aspect);
                let r = soc.run_frame(vec![d], 60_000_000);
                let got = (
                    r.gpu_cycles,
                    r.total_cycles,
                    soc.now(),
                    soc.rt.read_color(&soc.mem),
                    registry_json(&soc),
                );
                match &reference {
                    None => reference = Some(got),
                    Some(want) => {
                        assert_eq!(
                            want, &got,
                            "matrix cell diverged: batch={cpu_batch} skip={event_skip} \
                             threads={threads}"
                        );
                    }
                }
            }
        }
    }
}

/// Regression: with a baseline (non-DASH) memory system and an idle
/// display, nothing bounds the batch window early in the frame, so a core
/// in an unsatisfied `WaitGpu` could pre-burn its fence polls across the
/// cycle where the draw submission later flips `gpu_done` — it then missed
/// the fence until the window's far edge and the frame barrier fired tens
/// of thousands of cycles late (caught driving `examples/trace_export.rs`
/// across the axis). All four `cpu_batch × event_skip` cells must agree.
#[test]
fn unbounded_windows_do_not_preburn_fence_polls() {
    let run = |cpu_batch: bool, event_skip: bool| {
        let mut cfg = SocConfig::case_study_1(
            MemorySystemConfig::baseline(2, DramConfig::lpddr3_1333()),
            64,
            48,
            400_000,
        );
        cfg.cpu_workloads = vec![CpuWorkload::driver(), CpuWorkload::compute()];
        cfg.cpu_batch = cpu_batch;
        cfg.gpu.event_skip = event_skip;
        let aspect = cfg.width as f32 / cfg.height as f32;
        let mut soc = Soc::new(cfg);
        let d = cube_draw(&soc, 0, aspect);
        let r = soc.run_frame(vec![d], 60_000_000);
        (r.gpu_cycles, r.total_cycles, soc.now(), registry_json(&soc))
    };
    let want = run(false, false);
    for (cpu_batch, event_skip) in [(false, true), (true, false), (true, true)] {
        assert_eq!(
            want,
            run(cpu_batch, event_skip),
            "diverged at batch={cpu_batch} skip={event_skip}"
        );
    }
}

/// Oracle 3: a scenario saturating the outstanding-miss limit. Stalled
/// cycles are bulk-burned by `run_batch` when a core enters a batch window
/// stalled; the count must match the per-cycle reference exactly, and the
/// scenario must actually stall (otherwise the oracle checks nothing).
#[test]
fn stalled_cores_batch_identically() {
    let stall_heavy = || CpuWorkload {
        phases: vec![
            Phase::Work {
                instrs: 3_000,
                mem_ratio: 1.0,
                footprint: 8 << 20,
                sequential: false,
            },
            Phase::WaitGpu,
        ],
    };
    let run = |cpu_batch: bool| {
        let mut cfg = fixed_config(cpu_batch, true, 1);
        cfg.cpu_workloads.push(stall_heavy());
        cfg.cpu_workloads.push(stall_heavy());
        let aspect = cfg.width as f32 / cfg.height as f32;
        let mut soc = Soc::new(cfg);
        let d = cube_draw(&soc, 0, aspect);
        soc.run_frame(vec![d], 60_000_000);
        let stalls: Vec<u64> = soc.cpu_stats().iter().map(|s| s.stall_cycles).collect();
        (stalls, soc.now(), registry_json(&soc))
    };
    let (stalls_ref, now_ref, reg_ref) = run(false);
    let (stalls_bat, now_bat, reg_bat) = run(true);
    assert_eq!(
        stalls_ref, stalls_bat,
        "stall_cycles diverged across batch axis"
    );
    assert_eq!(now_ref, now_bat, "clock diverged across batch axis");
    assert_eq!(reg_ref, reg_bat, "registry diverged across batch axis");
    assert!(
        stalls_ref.iter().any(|&s| s > 1_000),
        "scenario failed to stall: {stalls_ref:?}"
    );
}

/// A streamer against a channel whose scheduling queue holds one request:
/// the core spends the frame holding requests the memory system refused.
/// The DRAM timings keep the channel bus-bound (`t_rp + t_rcd + t_cl <=
/// burst_cycles`), so every completion lands on a pick; an 8×8 framebuffer
/// keeps the display's own prefetch wakes out of the way. The draw list
/// is empty, so the frame is the core's script and nothing else.
fn one_deep_streamer(instrs: u64, cpu_batch: bool, event_skip: bool) -> SocConfig {
    let dram = DramConfig {
        queue_cap: 1,
        t_rp: 0,
        t_rcd: 0,
        ..DramConfig::lpddr3_1333()
    };
    let mut cfg = SocConfig::case_study_1(MemorySystemConfig::baseline(1, dram), 8, 8, 400_000);
    let Phase::Work {
        mem_ratio,
        footprint,
        sequential,
        ..
    } = CpuWorkload::streamer().phases[0]
    else {
        unreachable!("the streamer opens with its Work phase")
    };
    cfg.cpu_workloads = vec![CpuWorkload {
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
    }];
    cfg.cpu_batch = cpu_batch;
    cfg.gpu.event_skip = event_skip;
    cfg
}

/// A core stuck on a refused request parks until its channel picks: the
/// request stays refused until then, so the core runs ahead behind it
/// instead of pinning the clock per cycle. All four `cpu_batch ×
/// event_skip` cells agree, and with both gates on, the loop iterations a
/// longer backlog adds are at most the channel picks it adds, plus one.
/// Per-cycle clocking of the stuck core would add one per cycle.
#[test]
fn stuck_core_parks_until_its_channel_picks() {
    use emerald::obs::prof;
    let run = |instrs: u64, cpu_batch: bool, event_skip: bool| {
        let mut soc = Soc::new(one_deep_streamer(instrs, cpu_batch, event_skip));
        prof::set_enabled(true);
        prof::reset();
        let rec = soc.run_frame(vec![], 60_000_000);
        let ticks = prof::take().ticks;
        prof::set_enabled(false);
        let picks = soc.memsys.stats().serviced;
        let state = (
            rec.total_cycles,
            soc.cpu_stats()[0].stall_cycles,
            registry_json(&soc),
        );
        (state, ticks, picks)
    };
    let mut backlog = Vec::new();
    for instrs in [4_000, 8_000] {
        let (want, _, _) = run(instrs, false, false);
        for (cpu_batch, event_skip) in [(false, true), (true, false), (true, true)] {
            let (got, ticks, picks) = run(instrs, cpu_batch, event_skip);
            assert_eq!(
                want, got,
                "diverged at {instrs} instrs, batch={cpu_batch} skip={event_skip}"
            );
            if cpu_batch && event_skip {
                backlog.push((ticks, picks, got.0));
            }
        }
    }
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

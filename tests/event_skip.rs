//! Oracle tests for the event-driven clocking contract
//! (`emerald_common::event::NextEvent`) and the gate lockstep built on it.
//!
//! Three independent oracles, all driven by the in-tree property harness:
//!
//! 1. **Lockstep gate matrix** — seeded random SoC scenarios, each frame
//!    drawing a cube, run in all four `event_skip × cpu_batch` cells and
//!    must agree bit-for-bit on the frame records, the clock, the
//!    framebuffer, the full stats registry and the checkpoint bytes at
//!    every frame barrier
//!    (`emerald_conformance::gate_matrix`). Its CPU-only twin lives in
//!    `tests/cpu_batch.rs`.
//! 2. **No early transitions** — components queried for `next_event(now)`
//!    are ticked cycle by cycle through the reported gap and must not
//!    produce a request, a response or a state change before the cycle
//!    they announced. Reporting *later* than the truth is the one unsafe
//!    direction of the contract; this oracle is how it would be caught.
//! 3. **Twin gap walks** — a bare GPU and a standalone renderer, whose
//!    announced gaps still move time-linear counters: one twin is cycled
//!    through every gap, the other jumps it and books it, and registry,
//!    in-flight state, snapshot bytes and output memory must agree
//!    (`emerald_conformance::eventconf`).
//!
//! Case counts scale with `EMERALD_CONF_CASES`; each oracle keeps its own
//! default.

use emerald::common::check::{check_n, env_cases};
use emerald::common::event::NextEvent;
use emerald::prelude::*;
use emerald::soc::cpu::CpuWorkload;
use emerald_conformance::{gate_matrix, SocScenario};

/// Oracle 1: one random scenario, every gate cell, every frame barrier.
/// The debug build also audits the SoC's cached wake pins every loop
/// iteration (`Soc::audit_pins`), so random scenarios reach the audit.
#[test]
fn random_soc_scenarios_are_skip_invariant() {
    check_n(
        "soc_gate_matrix",
        env_cases("EMERALD_CONF_CASES", 3),
        |rng| {
            let sc = SocScenario::random(rng);
            let frames = 1 + rng.below(2) as u32;
            if let Err(e) = gate_matrix(&sc, frames) {
                panic!(
                    "{e}
{sc:?}"
                );
            }
        },
    );
}

fn memsys_stats_json(ms: &MemorySystem) -> String {
    let mut reg = Registry::new();
    ms.publish(&mut reg, "mem");
    reg.to_json()
}

/// Oracle 2a: the memory system never completes a request or changes a
/// statistic strictly before its reported `next_event`. Random read/write
/// bursts from random agents are pushed through a random configuration;
/// whenever no external input remains, the gap up to the announced wake
/// cycle is ticked one cycle at a time and must be a no-op.
#[test]
fn memsys_never_acts_before_next_event() {
    use emerald::common::types::{AccessKind, TrafficSource};
    use emerald::mem::req::MemRequest;
    check_n(
        "memsys_next_event_oracle",
        env_cases("EMERALD_CONF_CASES", 8),
        |rng| {
            let kind = [MemCfgKind::Bas, MemCfgKind::Dcb, MemCfgKind::Hmc][rng.below(3) as usize];
            let dram = if rng.chance(0.5) {
                DramConfig::lpddr3_1333()
            } else {
                DramConfig::lpddr3_1600()
            };
            let mut ms = MemorySystem::new(kind.build(dram));
            let sources = [
                TrafficSource::Gpu,
                TrafficSource::Cpu(0),
                TrafficSource::Cpu(1),
                TrafficSource::Display,
            ];
            let mut pending: Vec<(u64, AccessKind, TrafficSource)> = (0..rng.range(20, 60))
                .map(|_| {
                    (
                        rng.below(1 << 22) & !127,
                        if rng.chance(0.3) {
                            AccessKind::Write
                        } else {
                            AccessKind::Read
                        },
                        sources[rng.below(4) as usize],
                    )
                })
                .collect();
            let mut now = 0u64;
            let mut gaps_checked = 0u32;
            while (!pending.is_empty() || !ms.is_idle()) && now < 1_000_000 {
                // Trickle the burst in (external input), a few per cycle.
                while let Some(&(addr, kind, source)) = pending.last() {
                    let req = MemRequest {
                        id: pending.len() as u64,
                        addr,
                        bytes: 128,
                        kind,
                        source,
                        issued: now,
                    };
                    if !ms.can_accept(&req) || rng.chance(0.4) {
                        break;
                    }
                    ms.enqueue(req, now).expect("can_accept said yes");
                    pending.pop();
                }
                ms.tick(now);
                let _ = ms.drain_finished(now);
                if pending.is_empty() {
                    // No external input left: the announced gap must be dead.
                    match ms.next_event(now) {
                        Some(t) if t > now + 1 => {
                            let snap = memsys_stats_json(&ms);
                            for c in now + 1..t {
                                ms.tick(c);
                                assert!(
                                    ms.drain_finished(c).is_empty(),
                                    "response completed at {c}, before announced wake {t}"
                                );
                            }
                            assert_eq!(
                                snap,
                                memsys_stats_json(&ms),
                                "stats changed inside announced-dead gap ending at {t}"
                            );
                            gaps_checked += 1;
                            now = t - 1;
                        }
                        Some(_) => {}
                        None => {
                            // Claims it will never act again: hold it to that.
                            let snap = memsys_stats_json(&ms);
                            for c in now + 1..now + 200 {
                                ms.tick(c);
                                assert!(ms.drain_finished(c).is_empty());
                            }
                            assert_eq!(snap, memsys_stats_json(&ms));
                            assert!(ms.is_idle(), "next_event None but not idle");
                            break;
                        }
                    }
                }
                now += 1;
            }
            assert!(
                pending.is_empty() && ms.is_idle(),
                "burst did not drain within the cycle budget"
            );
            // In-service DRAM bursts take many cycles, so real gaps must have
            // appeared — otherwise the oracle silently checked nothing.
            assert!(gaps_checked > 0, "no skip gaps were ever announced");
        },
    );
}

/// Oracle 2b: the display controller with instant memory (responses
/// credited the same cycle) is fully self-driven, so every announced gap —
/// beam catch-up between prefetch batches, and the tail of each refresh
/// period — must tick as a pure no-op: no requests, no stat changes.
#[test]
fn display_never_acts_before_next_event() {
    use emerald::soc::display::DisplayController;
    check_n("display_next_event_oracle", 16, |rng| {
        let fb_bytes = [16u64 << 10, 64 << 10][rng.below(2) as usize];
        let period = rng.range(4_000, 40_000);
        let mut d = DisplayController::new(0x1000, fb_bytes, period);
        let mut now = 0u64;
        let mut gaps_checked = 0u32;
        let horizon = 3 * period;
        while now < horizon {
            d.tick(now);
            for r in d.drain_requests() {
                d.on_response(r.bytes); // instant memory
            }
            let t = d
                .next_event(now)
                .expect("display always has a next period boundary");
            assert!(t > now, "next_event must be in the future");
            if t > now + 1 {
                let snap = d.stats();
                for c in now + 1..t {
                    d.tick(c);
                    assert!(
                        d.drain_requests().is_empty() && !d.has_pending(),
                        "display issued work at {c}, before announced wake {t}"
                    );
                }
                let after = d.stats();
                assert_eq!(snap.requests, after.requests);
                assert_eq!(snap.serviced_bytes, after.serviced_bytes);
                assert_eq!(snap.frames_completed, after.frames_completed);
                assert_eq!(snap.frames_aborted, after.frames_aborted);
                gaps_checked += 1;
                now = t;
            } else {
                now += 1;
            }
        }
        // With instant memory the controller spends most of its time
        // waiting on the beam, so gaps must dominate.
        assert!(gaps_checked > 0, "no skip gaps were ever announced");
        assert_eq!(d.stats().frames_aborted, 0, "instant memory underran");
        assert!(d.stats().frames_completed >= 2);
    });
}

/// Oracle 3a: twin bare GPUs running random kernels. Every gap the GPU
/// and its port announce is cycled on one twin and jumped-and-booked on
/// the other; they must agree after each gap and, drained, byte for byte.
#[test]
fn gpu_gaps_change_only_what_skip_books() {
    use emerald_conformance::eventconf::{gpu_gap_oracle, GpuGapScenario};
    use emerald_conformance::{base_config, gen_program};
    let mut gaps = 0;
    check_n("gpu_gap_twins", env_cases("EMERALD_CONF_CASES", 8), |rng| {
        let sc = GpuGapScenario {
            data_seed: rng.next_u64(),
            gp: gen_program(rng),
            lag: 0,
        };
        match gpu_gap_oracle(&sc, &base_config()) {
            Ok(n) => gaps += n,
            Err(v) => panic!("{v:?}\n{}", sc.gp.dump()),
        }
    });
    assert!(gaps > 0, "no gap was ever announced");
}

/// Oracle 3b: the same walk over twin standalone renderers drawing random
/// cases, so the gaps are the ones a draw blocked on its warps announces.
#[test]
fn renderer_gaps_change_only_what_skip_books() {
    use emerald_conformance::eventconf::renderer_gap_oracle;
    use emerald_conformance::{base_config, gen_draw};
    let mut gaps = 0;
    check_n(
        "renderer_gap_twins",
        env_cases("EMERALD_CONF_CASES", 6),
        |rng| {
            let case = gen_draw(rng);
            match renderer_gap_oracle(&case, &base_config()) {
                Ok(n) => gaps += n,
                Err(v) => panic!("{v:?}\n{}", case.describe()),
            }
        },
    );
    assert!(gaps > 0, "no gap was ever announced");
}

/// Oracle 2c: the display controller behind a memory with latency, so it
/// spends its time with reads in flight — which no longer pins `now + 1`.
/// Every stretch up to the earlier of its announced wake and the next
/// response is ticked and must leave the controller's snapshot bytes
/// untouched; latencies range past what the scanout FIFO covers, so the
/// underrun's closed form is exercised as well as prefetch unlocks.
#[test]
fn display_waiting_on_memory_never_acts_before_next_event() {
    use emerald::common::snap::{SnapWriter, Snapshot};
    use emerald::soc::display::DisplayController;
    use std::collections::VecDeque;
    let bytes = |d: &DisplayController| {
        let mut w = SnapWriter::new();
        d.snapshot(&mut w);
        w.into_bytes()
    };
    let (mut gaps, mut aborted, mut completed) = (0u32, 0, 0);
    check_n("display_waiting_oracle", 16, |rng| {
        let fb_bytes = [16u64 << 10, 64 << 10][rng.below(2) as usize];
        let period = rng.range(4_000, 40_000);
        let latency = rng.range(20, 6_000);
        let mut d = DisplayController::new(0x1000, fb_bytes, period);
        let mut in_flight: VecDeque<(u64, u32)> = VecDeque::new();
        let mut now = 0u64;
        while now < 4 * period {
            while in_flight.front().is_some_and(|r| r.0 <= now) {
                d.on_response(in_flight.pop_front().expect("front").1);
            }
            d.tick(now);
            in_flight.extend(d.drain_requests().iter().map(|r| (now + latency, r.bytes)));
            let wake = d.next_event(now).expect("a period boundary lies ahead");
            assert!(wake > now, "next_event must be in the future");
            let quiet = wake.min(in_flight.front().map_or(wake, |r| r.0));
            if quiet > now + 1 {
                let before = bytes(&d);
                for c in now + 1..quiet {
                    d.tick(c);
                }
                assert!(
                    before == bytes(&d),
                    "display acted inside ({now}, {quiet}), announced {wake}"
                );
                gaps += 1;
            }
            now = quiet.max(now + 1);
        }
        aborted += d.stats().frames_aborted;
        completed += d.stats().frames_completed;
    });
    assert!(
        gaps > 0 && aborted > 0 && completed > 0,
        "{gaps} {aborted} {completed}"
    );
}

/// Lockstep passes just as well with pins that always answer `now + 1`.
/// What shows the clock really jumps is the loop-iteration count
/// (`HostProfile::ticks`, exact): on a `soc_dense`-shaped frame — DRAM
/// saturated, the GPU issuing a warp instruction every ~90 cycles — the
/// SoC loop runs for at most 0.40 of the simulated cycles (0.94 before the
/// DRAM, display, GPU and renderer pins were exact; 0.24 once they were,
/// 0.222 since a core behind a refused request parks until its channel
/// picks). And what shows a loop iteration ticks only what is due is the
/// renderer's share (`HostProfile::gpu_ticks`, exact: one `Gpu::cycle` per
/// renderer cycle): at most 0.15 per simulated cycle (every iteration
/// cycled it before the due set; 0.114 since).
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

/// The same on the bare GPU: a `gpgpu_mix`-shaped `saxpy` launch (more
/// CTAs than the cores hold, every warp waiting on DRAM most of the time)
/// drains in at most 0.6 `drain_loop` iterations per simulated cycle (1.0
/// while a busy GPU pinned `now + 1`; 0.44 when written).
#[test]
fn a_waiting_gpu_is_not_ticked() {
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
    assert_eq!(profile.gpu_cycles, cycles);
    assert!(
        profile.ticks * 10 <= cycles * 6,
        "{} loop iterations for {cycles} simulated cycles",
        profile.ticks
    );
}

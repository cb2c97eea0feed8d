//! Oracle tests for the event-driven clocking contract
//! (`emerald_common::event::NextEvent`).
//!
//! Two independent oracles, both driven by the in-tree property harness:
//!
//! 1. **Lockstep skip axis** — seeded random SoC scenarios run twice,
//!    identical in every respect except `GpuConfig::event_skip`, and must
//!    agree bit-for-bit on the clock, the framebuffer and the full stats
//!    registry at every CPU-phase (frame-barrier) boundary.
//! 2. **No early transitions** — components queried for `next_event(now)`
//!    are ticked cycle by cycle through the reported gap and must not
//!    produce a request, a response or a statistics change before the
//!    cycle they announced. Reporting *later* than the truth is the one
//!    unsafe direction of the contract; this oracle is how it would be
//!    caught.

use emerald::common::check::{check_n, env_cases};
use emerald::common::event::NextEvent;
use emerald::common::rng::Xorshift64;
use emerald::prelude::*;
use emerald::scene::mesh::unit_cube;
use emerald::soc::cpu::{CpuWorkload, Phase};

/// Case count for the (expensive) lockstep SoC oracle; override with
/// `EMERALD_EVENT_SKIP_CASES`.
fn skip_cases() -> u32 {
    env_cases("EMERALD_EVENT_SKIP_CASES", 3)
}

fn registry_json(soc: &Soc) -> String {
    let mut reg = Registry::new();
    soc.publish(&mut reg);
    reg.to_json()
}

/// Shrinks every `Work` phase so a frame stays test-sized, with an
/// rng-chosen divisor so different cases exercise different phase shapes.
fn shrink(mut w: CpuWorkload, rng: &mut Xorshift64) -> CpuWorkload {
    let div = rng.range(6, 14);
    for p in &mut w.phases {
        if let Phase::Work { instrs, .. } = p {
            *instrs = (*instrs / div).max(64);
        }
    }
    w
}

/// A deterministic cube draw (same construction as the SoC unit tests,
/// parameterized by frame index so multi-frame cases differ per frame).
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

/// Draws a random SoC scenario from `rng`: memory-system kind, DRAM
/// timing, resolution, frame deadline, CPU-core mix and the CPU run-ahead
/// gate all vary — so the skip contract is proven with cores running
/// ahead of the clock and with cores ticked per cycle.
fn random_config(rng: &mut Xorshift64, event_skip: bool) -> SocConfig {
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
    cfg.cpu_batch = rng.chance(0.5);
    cfg.gpu.event_skip = event_skip;
    cfg
}

/// Oracle 1: skip-off and skip-on instances of the *same* random scenario
/// advance in lockstep — identical clock, identical per-frame records,
/// identical framebuffer and registry snapshot at every frame barrier.
#[test]
fn random_soc_scenarios_are_skip_invariant() {
    check_n("soc_skip_axis", skip_cases(), |rng| {
        // Sample once, then instantiate twice so both sides see the exact
        // same scenario. The rng is re-seeded per case by the harness.
        let scenario = rng.next_u64();
        let cfg_off = random_config(&mut Xorshift64::new(scenario), false);
        let cfg_on = random_config(&mut Xorshift64::new(scenario), true);
        assert!(!cfg_off.gpu.event_skip && cfg_on.gpu.event_skip);
        assert_eq!(cfg_off.cpu_batch, cfg_on.cpu_batch);
        let frames = 1 + rng.below(2) as u32;
        let aspect = cfg_off.width as f32 / cfg_off.height as f32;
        let mut off = Soc::new(cfg_off);
        let mut on = Soc::new(cfg_on);
        for f in 0..frames {
            let d_off = cube_draw(&off, f, aspect);
            let d_on = cube_draw(&on, f, aspect);
            let r_off = off.run_frame(vec![d_off], 60_000_000);
            let r_on = on.run_frame(vec![d_on], 60_000_000);
            assert_eq!(
                r_off.gpu_cycles, r_on.gpu_cycles,
                "gpu_cycles diverged at frame {f}"
            );
            assert_eq!(
                r_off.total_cycles, r_on.total_cycles,
                "total_cycles diverged at frame {f}"
            );
            assert_eq!(off.now(), on.now(), "clock diverged at frame {f}");
            assert_eq!(
                off.rt.read_color(&off.mem),
                on.rt.read_color(&on.mem),
                "framebuffer diverged at frame {f}"
            );
            assert_eq!(
                registry_json(&off),
                registry_json(&on),
                "registry diverged at frame {f}"
            );
        }
    });
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
    use emerald::mem::req::{MemRequest, ReqIdGen};
    check_n(
        "memsys_next_event_oracle",
        env_cases("EMERALD_EVENT_SKIP_CASES", 8),
        |rng| {
            let kind = [MemCfgKind::Bas, MemCfgKind::Dcb, MemCfgKind::Hmc][rng.below(3) as usize];
            let dram = if rng.chance(0.5) {
                DramConfig::lpddr3_1333()
            } else {
                DramConfig::lpddr3_1600()
            };
            let mut ms = MemorySystem::new(kind.build(dram));
            let mut ids = ReqIdGen::new();
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
                        id: ids.next_id(),
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
    use emerald::mem::req::ReqIdGen;
    use emerald::soc::display::DisplayController;
    check_n("display_next_event_oracle", 16, |rng| {
        let fb_bytes = [16u64 << 10, 64 << 10][rng.below(2) as usize];
        let period = rng.range(4_000, 40_000);
        let mut d = DisplayController::new(0x1000, fb_bytes, period);
        let mut ids = ReqIdGen::new();
        let mut now = 0u64;
        let mut gaps_checked = 0u32;
        let horizon = 3 * period;
        while now < horizon {
            d.tick(now, &mut ids);
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
                    d.tick(c, &mut ids);
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

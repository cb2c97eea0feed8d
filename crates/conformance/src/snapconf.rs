//! Conformance for checkpoint/restore snapshot invisibility
//! (`emerald_soc::soc::Soc::run_frame_checkpoint` / `Soc::restore`).
//!
//! The two unsafe directions of checkpointing are *silent corruption* (a
//! damaged snapshot restores without an error and the run quietly
//! diverges) and *partial restore* (a component's hidden state — here an
//! RNG stream — is left at its fresh-construction value, so the restored
//! run is healthy-looking but wrong). The oracle runs a scenario straight
//! while capturing a checkpoint, revives the checkpoint into a fresh SoC,
//! and diffs every later frame barrier (records, framebuffer, stats
//! registry) between the two instances, finishing with a total-state
//! check: both instances' own snapshots must be byte-identical. A restore
//! *error* is also a violation, so injected corruption can never pass
//! silently. The canary
//! re-runs with a flipped snapshot byte or a deliberately reset RNG
//! stream — both must be caught — and the shrinker minimizes the failing
//! checkpoint cycle and frame count.

use emerald_common::math::{Mat4, Vec3};
use emerald_core::shaders::{self, FsOptions};
use emerald_core::state::{DrawCall, Topology, VertexBuffer};
use emerald_mem::dram::DramConfig;
use emerald_mem::system::MemorySystemConfig;
use emerald_scene::mesh::unit_cube;
use emerald_soc::cpu::{CpuWorkload, Phase};
use emerald_soc::soc::{Soc, SocConfig};

/// The injected bug, if any. `None` is the honest implementation and must
/// pass the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapBug {
    /// Honest checkpoint/restore.
    None,
    /// XOR `mask` into the snapshot byte at `len * pos_pct / 100` before
    /// restoring (mask 0 would be a no-op and is rejected by `describe`).
    FlipByte {
        /// Position as a percentage of the snapshot length.
        pos_pct: u32,
        /// Non-zero XOR mask.
        mask: u8,
    },
    /// After a successful restore, reset CPU core 0's RNG to its
    /// fresh-construction stream — a restore path that forgot the stream.
    StaleRng,
}

/// A checkpoint/restore scenario: a fixed two-core SoC runs `frames`
/// frames; a checkpoint is captured inside frame 1 at `offset_pct` percent
/// of the previous frame's span (falling back to the inter-frame
/// checkpoint when the offset overshoots the frame's last commit
/// boundary).
#[derive(Debug, Clone)]
pub struct SnapScenario {
    /// Total frames in the scenario (≥ 2: one before, one at/after the
    /// checkpoint).
    pub frames: u32,
    /// Checkpoint cycle as a percentage of a frame span (may exceed 100
    /// to force the inter-frame fallback).
    pub offset_pct: u32,
    /// Event-skip axis.
    pub event_skip: bool,
    /// CPU-batch axis.
    pub cpu_batch: bool,
    /// The injected bug.
    pub bug: SnapBug,
}

impl SnapScenario {
    /// One-line summary for failure reports.
    pub fn describe(&self) -> String {
        format!(
            "{} frames, checkpoint at {}% of frame 1, skip={} batch={}, bug {:?}",
            self.frames, self.offset_pct, self.event_skip, self.cpu_batch, self.bug
        )
    }

    pub(crate) fn config(&self) -> SocConfig {
        let memsys = MemorySystemConfig::baseline(2, DramConfig::lpddr3_1600());
        let mut cfg = two_core_config(memsys, 16);
        cfg.gpu.event_skip = self.event_skip;
        cfg.cpu_batch = self.cpu_batch;
        cfg
    }
}

/// A 48×32 case-study-I SoC with two cores — the driver and `mixed` —
/// whose `Work` phases are cut to `1 / work_div`: small enough for a
/// shrinker to re-run it many times.
pub(crate) fn two_core_config(memsys: MemorySystemConfig, work_div: u64) -> SocConfig {
    let mut cfg = SocConfig::case_study_1(memsys, 48, 32, 150_000);
    let mut driver = CpuWorkload::driver();
    let mut mixed = CpuWorkload::mixed();
    for w in [&mut driver, &mut mixed] {
        for p in &mut w.phases {
            if let Phase::Work { instrs, .. } = p {
                *instrs = (*instrs / work_div).max(64);
            }
        }
    }
    cfg.cpu_workloads = vec![driver, mixed];
    cfg
}

/// A detected violation: the restored run's observables diverged from the
/// straight run, or the restore itself failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapViolation {
    /// What diverged (or the restore error).
    pub detail: String,
}

pub(crate) const MAX: u64 = 60_000_000;

pub(crate) fn cube_draw(soc: &Soc, frame: u32) -> DrawCall {
    let a = 0.4 + frame as f32 * 0.08;
    let mvp = Mat4::perspective(60f32.to_radians(), 1.5, 0.1, 50.0).mul_mat4(&Mat4::look_at(
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

fn digest(soc: &Soc) -> (u64, Vec<u32>, String) {
    let mut reg = emerald_obs::Registry::new();
    soc.publish(&mut reg);
    (soc.now(), soc.rt.read_color(&soc.mem), reg.to_json())
}

/// Runs the scenario's straight instance and a restored twin and diffs
/// every frame barrier from the checkpoint to the end of the scenario.
pub fn snap_oracle(sc: &SnapScenario) -> Result<(), SnapViolation> {
    // Armed only under the deep-fuzz job (`EMERALD_CONF_FRAME_BUDGET_MS`):
    // a scenario that blows its wall-clock budget checkpoints the straight
    // instance for the CI artifact step and panics with the dump path —
    // a timeout is a harness failure, not an oracle verdict.
    let budget = crate::budget::FrameBudget::from_env();
    let cfg = sc.config();
    let mut straight = Soc::new(cfg.clone());
    let d0 = cube_draw(&straight, 0);
    let span = straight.run_frame(vec![d0], MAX).total_cycles;

    let d1 = cube_draw(&straight, 1);
    let at = straight.now() + span * sc.offset_pct as u64 / 100;
    let (rec, snap) = straight.run_frame_checkpoint(vec![d1.clone()], MAX, Some(at));
    let (mut bytes, mid_frame) = match snap {
        Some(b) => (b, true),
        None => (straight.checkpoint(), false),
    };

    if let SnapBug::FlipByte { pos_pct, mask } = sc.bug {
        let pos = (bytes.len() - 1) * (pos_pct as usize).min(100) / 100;
        bytes[pos] ^= mask;
    }

    let mut restored = match Soc::restore(&bytes, &cfg) {
        Ok(soc) => soc,
        Err(e) => {
            return Err(SnapViolation {
                detail: format!("restore rejected the snapshot: {e:?}"),
            });
        }
    };
    if sc.bug == SnapBug::StaleRng {
        restored.debug_reset_cpu_rng(0);
    }

    if mid_frame {
        let r = restored.resume_frame(vec![d1], MAX);
        if (rec.gpu_cycles, rec.total_cycles) != (r.gpu_cycles, r.total_cycles) {
            return Err(SnapViolation {
                detail: format!(
                    "resumed frame record diverged: straight ({}, {}) vs restored ({}, {})",
                    rec.gpu_cycles, rec.total_cycles, r.gpu_cycles, r.total_cycles
                ),
            });
        }
    }
    if digest(&straight) != digest(&restored) {
        return Err(SnapViolation {
            detail: "state diverged at the restore barrier".into(),
        });
    }

    for f in 2..sc.frames {
        if let Err(msg) = budget.check("snap_oracle", &straight) {
            panic!("{msg}");
        }
        let ds = cube_draw(&straight, f);
        let dr = cube_draw(&restored, f);
        if ds.vb.base != dr.vb.base {
            return Err(SnapViolation {
                detail: format!("frame {f} upload address diverged"),
            });
        }
        let rs = straight.run_frame(vec![ds], MAX);
        let rr = restored.run_frame(vec![dr], MAX);
        if (rs.gpu_cycles, rs.total_cycles) != (rr.gpu_cycles, rr.total_cycles) {
            return Err(SnapViolation {
                detail: format!("frame {f} record diverged"),
            });
        }
        if digest(&straight) != digest(&restored) {
            return Err(SnapViolation {
                detail: format!("frame {f} state diverged"),
            });
        }
    }
    // Total-state equality: the two instances' own snapshots must be
    // byte-identical. This covers state the frame digests cannot see —
    // RNG stream positions, warm cache contents, allocator cursors — so a
    // partial restore is caught even when it never perturbs timing (e.g.
    // a stale stream whose accesses all hit warm caches).
    if straight.checkpoint() != restored.checkpoint() {
        return Err(SnapViolation {
            detail: "final state snapshots diverged".into(),
        });
    }
    Ok(())
}

/// Shrink candidates for a failing [`SnapScenario`]: drop trailing frames,
/// then halve the checkpoint offset — minimizing the failing checkpoint
/// cycle. The injected bug is never removed, so the minimizer cannot
/// shrink into the honest implementation.
pub fn shrink_snap_candidates(sc: &SnapScenario) -> Vec<SnapScenario> {
    let mut out = Vec::new();
    if sc.frames > 2 {
        out.push(SnapScenario {
            frames: sc.frames - 1,
            ..sc.clone()
        });
    }
    if sc.offset_pct > 0 {
        out.push(SnapScenario {
            offset_pct: sc.offset_pct / 2,
            ..sc.clone()
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> SnapScenario {
        SnapScenario {
            frames: 2,
            offset_pct: 40,
            event_skip: true,
            cpu_batch: false,
            bug: SnapBug::None,
        }
    }

    #[test]
    fn honest_snapshots_pass_the_oracle() {
        snap_oracle(&base()).expect("honest checkpoint/restore must conform");
        // Overshooting offset exercises the inter-frame fallback path.
        snap_oracle(&SnapScenario {
            offset_pct: 400,
            frames: 3,
            ..base()
        })
        .expect("inter-frame checkpoint must conform");
    }

    #[test]
    fn flipped_byte_is_a_violation() {
        let v = snap_oracle(&SnapScenario {
            bug: SnapBug::FlipByte {
                pos_pct: 50,
                mask: 0x20,
            },
            ..base()
        })
        .expect_err("corrupted snapshot must be caught");
        assert!(v.detail.contains("rejected"), "got: {}", v.detail);
    }

    #[test]
    fn stale_rng_stream_is_a_violation() {
        let v = snap_oracle(&SnapScenario {
            bug: SnapBug::StaleRng,
            frames: 3,
            ..base()
        })
        .expect_err("stale RNG stream must be caught");
        assert!(!v.detail.is_empty());
    }
}

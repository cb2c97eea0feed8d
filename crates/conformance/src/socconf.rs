//! The SoC lockstep harness: one scenario type, one frame draw, one
//! barrier digest, and the two oracles built on them.
//!
//! The clocking gates (`GpuConfig::event_skip`, `SocConfig::cpu_batch`)
//! choose *when* components run, never *what* they compute, and a
//! checkpoint/restore must not be visible at all. Both claims are checked
//! the same way: run a [`SocScenario`] and compare everything observable
//! at each frame barrier — the frame record, the clock, the framebuffer,
//! the published registry and the checkpoint — against a twin.
//!
//! - [`gate_matrix`] runs one scenario in all four `event_skip ×
//!   cpu_batch` cells and compares every barrier across them, checkpoint
//!   bytes included: each requester stamps its request ids from its own
//!   counter, so no schedule shows in them, and the container's
//!   configuration hash leaves the gates out. Three of the cells run with
//!   loop accounting on, so profiling is an axis of the same matrix, and
//!   four fresh runs agreeing is rerun determinism.
//! - [`snap_oracle`] runs one scenario in one cell straight while
//!   capturing a checkpoint, revives it into a fresh SoC in the same or
//!   another cell and compares every later barrier. Its canary
//!   ([`SnapBug`]) aims at the two unsafe directions of checkpointing:
//!   *silent corruption* (a damaged snapshot restores and the run quietly
//!   diverges; a restore *error* is also a violation, so corruption can
//!   never pass silently) and *partial restore* (an RNG stream left at
//!   its fresh value). Both must be caught, and [`shrink_snap_candidates`]
//!   minimizes the failing checkpoint cycle and frame count.
//!
//! - [`wake_oracle`] runs one scenario with both gates on and the SoC's
//!   wake audit armed, which checks after every step that each CPU core
//!   the cluster left asleep owed nothing for the cycles it slept. Its
//!   canary drops the fence-flip notice, so a core waiting on the fence
//!   sleeps past the cycle it must leave the wait; the audit must catch
//!   it, and [`shrink_wake_candidates`] minimizes the scenario.
//!
//! The checkpoint is the decisive part of a barrier: once the
//! scripted CPUs' working sets sit in their warm caches a stale RNG stream
//! changes nothing the registry can see, but it changes the bytes.

use crate::budget::FrameBudget;
use emerald_common::math::{Mat4, Vec3};
use emerald_common::rng::Xorshift64;
use emerald_common::types::Cycle;
use emerald_core::renderer::FrameStats;
use emerald_core::shaders::{self, FsOptions};
use emerald_core::state::{DrawCall, Topology, VertexBuffer};
use emerald_mem::dram::DramConfig;
use emerald_mem::system::MemorySystemConfig;
use emerald_obs::{prof, Registry};
use emerald_scene::mesh::unit_cube;
use emerald_soc::cpu::{CpuWorkload, Phase};
use emerald_soc::experiment::MemCfgKind;
use emerald_soc::soc::{Soc, SocConfig, SocFrameRecord};

/// Watchdog for every frame the harness runs.
pub(crate) const MAX: Cycle = 60_000_000;

/// A test-sized case-study-I SoC, independent of the clocking gates.
#[derive(Debug, Clone)]
pub struct SocScenario {
    /// Memory system: organization, scheduler and DRAM preset.
    pub memsys: MemorySystemConfig,
    /// Framebuffer width.
    pub width: u32,
    /// Framebuffer height.
    pub height: u32,
    /// GPU frame period (the display refreshes at half of it).
    pub period: Cycle,
    /// One script per CPU core; core 0 is the driver.
    pub cpus: Vec<CpuWorkload>,
    /// Every `Work` phase runs `1 / work_div` of its instructions (at
    /// least 64).
    pub work_div: u64,
    /// Each frame draws a unit cube whose camera orbits with the frame
    /// index; `false` leaves the frame to the CPU scripts alone.
    pub cube: bool,
}

impl SocScenario {
    /// A random scenario: memory kind (BAS, DCB, HMC), DRAM preset,
    /// resolution, period, the driver plus a random subset of the other
    /// three scripts, the `Work` divisor, whether frames draw the cube
    /// or leave the frame to the CPUs, memory and the display alone, and
    /// in a quarter of the scenarios a channel queue of 2–8 requests —
    /// at these resolutions the default 64 never fills, so without it no
    /// CPU request would ever be refused.
    pub fn random(rng: &mut Xorshift64) -> Self {
        let kind = [MemCfgKind::Bas, MemCfgKind::Dcb, MemCfgKind::Hmc][rng.below(3) as usize];
        let dram = if rng.chance(0.5) {
            DramConfig::lpddr3_1333()
        } else {
            DramConfig::lpddr3_1600()
        };
        let (width, height) = if rng.chance(0.5) { (48, 32) } else { (64, 48) };
        let period = rng.range(150_000, 400_000);
        let mut cpus = vec![CpuWorkload::driver()];
        for w in [
            CpuWorkload::streamer(),
            CpuWorkload::compute(),
            CpuWorkload::mixed(),
        ] {
            if rng.chance(0.5) {
                cpus.push(w);
            }
        }
        let work_div = rng.range(6, 14);
        let cube = rng.chance(0.5);
        let mut memsys = kind.build(dram);
        // Drawn last, so every other field keeps its value for a seed.
        if rng.chance(0.25) {
            memsys.dram.queue_cap = rng.range(2, 9) as usize;
        }
        Self {
            memsys,
            width,
            height,
            period,
            cpus,
            work_div,
            cube,
        }
    }

    /// A 48×32 SoC with two cores, the driver and `mixed`: small enough
    /// for a shrinker to re-run many times.
    pub fn two_core(memsys: MemorySystemConfig, work_div: u64) -> Self {
        Self {
            memsys,
            width: 48,
            height: 32,
            period: 150_000,
            cpus: vec![CpuWorkload::driver(), CpuWorkload::mixed()],
            work_div,
            cube: true,
        }
    }

    /// The SoC configuration of this scenario in `cell`.
    pub fn config(&self, cell: Cell) -> SocConfig {
        let mut cfg =
            SocConfig::case_study_1(self.memsys.clone(), self.width, self.height, self.period);
        cfg.cpu_workloads = self.cpus.clone();
        for p in cfg.cpu_workloads.iter_mut().flat_map(|w| &mut w.phases) {
            if let Phase::Work { instrs, .. } = p {
                *instrs = (*instrs / self.work_div).max(64);
            }
        }
        cfg.gpu.event_skip = cell.event_skip;
        cfg.cpu_batch = cell.cpu_batch;
        cfg
    }

    /// Frame `frame`'s draw list, uploaded into `soc`.
    pub fn draws(&self, soc: &Soc, frame: u32) -> Vec<DrawCall> {
        if self.cube {
            vec![cube_draw(soc, frame)]
        } else {
            Vec::new()
        }
    }
}

/// One cell of the gate matrix: the two clocking gates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// `GpuConfig::event_skip`.
    pub event_skip: bool,
    /// `SocConfig::cpu_batch`.
    pub cpu_batch: bool,
}

impl Cell {
    /// What the presets run: both gates on.
    pub const PRESET: Cell = Cell {
        event_skip: true,
        cpu_batch: true,
    };
}

/// The four `event_skip × cpu_batch` cells, the per-cycle reference (both
/// gates off) first.
pub fn cells() -> [Cell; 4] {
    [(false, false), (false, true), (true, false), (true, true)].map(|(event_skip, cpu_batch)| {
        Cell {
            event_skip,
            cpu_batch,
        }
    })
}

/// A deterministic cube draw whose camera orbits with the frame index, so
/// consecutive frames differ.
pub(crate) fn cube_draw(soc: &Soc, frame: u32) -> DrawCall {
    let cfg = soc.config();
    let aspect = cfg.width as f32 / cfg.height as f32;
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

/// The SoC's published registry as JSON.
pub fn registry_json(soc: &Soc) -> String {
    let mut reg = Registry::new();
    soc.publish(&mut reg);
    reg.to_json()
}

/// Everything observable at a frame barrier.
#[derive(Debug)]
pub struct Barrier {
    record: (Cycle, Cycle),
    gfx: FrameStats,
    now: Cycle,
    framebuffer: Vec<u32>,
    registry: String,
    checkpoint: Vec<u8>,
}

impl Barrier {
    fn at(soc: &mut Soc, rec: &SocFrameRecord) -> Self {
        Self {
            record: (rec.gpu_cycles, rec.total_cycles),
            gfx: rec.gfx.clone(),
            now: soc.now(),
            framebuffer: soc.rt.read_color(&soc.mem),
            registry: registry_json(soc),
            checkpoint: soc.checkpoint(),
        }
    }

    /// The first part of `other` that differs from `self`, if any.
    fn diff(&self, other: &Barrier) -> Option<&'static str> {
        [
            ("frame record", self.record != other.record),
            ("renderer frame stats", self.gfx != other.gfx),
            ("clock", self.now != other.now),
            ("framebuffer", self.framebuffer != other.framebuffer),
            ("registry", self.registry != other.registry),
            ("checkpoint bytes", self.checkpoint != other.checkpoint),
        ]
        .into_iter()
        .find_map(|(what, differs)| differs.then_some(what))
    }
}

/// Runs `sc` for `frames` frames in every cell of [`cells`] and checks
/// every frame barrier, checkpoint bytes included, against the first
/// cell's: the per-cycle reference. Every other cell runs with loop
/// accounting (`obs::prof`) on, so the profiler is on the axis too, and
/// each of its frames must account every simulated cycle and run CPU
/// batches exactly when the cell batches. Each cell is a fresh SoC, so
/// agreement also shows a rerun is bit-reproducible. Returns the
/// reference cell's SoC at its last barrier, for the caller's own
/// assertions.
pub fn gate_matrix(sc: &SocScenario, frames: u32) -> Result<Soc, String> {
    let mut reference: Option<(Cell, Vec<Barrier>, Soc)> = None;
    for cell in cells() {
        let profiled = reference.is_some();
        let mut soc = Soc::new(sc.config(cell));
        let mut got = Vec::new();
        for f in 0..frames {
            let d = sc.draws(&soc, f);
            prof::set_enabled(profiled);
            prof::reset();
            let rec = soc.run_frame(d, MAX);
            let p = prof::take();
            prof::set_enabled(false);
            if profiled
                && (p.soc_cycles != rec.total_cycles || cell.cpu_batch != (p.cpu_batches > 0))
            {
                let cycles = rec.total_cycles;
                return Err(format!(
                    "{cell:?}: frame {f}: {p:?} accounts {cycles} cycles"
                ));
            }
            got.push(Barrier::at(&mut soc, &rec));
        }
        let Some((rc, want, _)) = &reference else {
            reference = Some((cell, got, soc));
            continue;
        };
        for (f, (w, g)) in want.iter().zip(&got).enumerate() {
            if let Some(what) = w.diff(g) {
                return Err(format!("{cell:?} vs {rc:?}: frame {f}: {what} diverged"));
            }
        }
    }
    Ok(reference.expect("at least one cell").2)
}

/// The injected bug, if any. `None` is the honest implementation and must
/// pass the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapBug {
    /// Honest checkpoint/restore.
    None,
    /// XOR `mask` into the snapshot byte at `len * pos_pct / 100` before
    /// restoring.
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

/// A checkpoint/restore scenario: `soc` runs `frames` frames in `cell`; a
/// checkpoint is captured inside frame `at_frame`, `offset_pct` percent of
/// a frame's span after it starts (falling back to the inter-frame
/// checkpoint when the offset overshoots the frame's last commit
/// boundary), and restored into a SoC clocked by `restore_cell`.
#[derive(Debug, Clone)]
pub struct SnapScenario {
    /// The SoC.
    pub soc: SocScenario,
    /// The straight run's clocking.
    pub cell: Cell,
    /// The restored run's clocking: the gates pick a schedule, not a
    /// model, so a checkpoint restores across them.
    pub restore_cell: Cell,
    /// Total frames (more than `at_frame`).
    pub frames: u32,
    /// The frame the checkpoint is captured in.
    pub at_frame: u32,
    /// Capture cycle as a percentage of the previous frame's span (of
    /// frame 0's, for `at_frame` 0); may exceed 100 to force the
    /// inter-frame fallback.
    pub offset_pct: u32,
    /// The injected bug.
    pub bug: SnapBug,
}

impl SnapScenario {
    /// One-line summary for failure reports.
    pub fn describe(&self) -> String {
        format!(
            "{} frames, checkpoint at {}% into frame {}, {:?} restored in {:?}, bug {:?}",
            self.frames, self.offset_pct, self.at_frame, self.cell, self.restore_cell, self.bug
        )
    }
}

/// A detected violation: the restored run's observables diverged from the
/// straight run, or the restore itself failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapViolation {
    /// What diverged (or the restore error).
    pub detail: String,
}

/// What an honest [`snap_oracle`] run saw.
#[derive(Debug)]
pub struct SnapRun {
    /// The checkpoint was captured mid-frame, not between frames.
    pub mid_frame: bool,
    /// The straight run's barriers, one per frame.
    pub straight: Vec<Barrier>,
}

/// Runs the scenario straight while capturing its checkpoint, revives the
/// checkpoint into a fresh SoC in `restore_cell` and compares every barrier
/// from the checkpoint's frame to the end of the scenario.
pub fn snap_oracle(sc: &SnapScenario) -> Result<SnapRun, SnapViolation> {
    // Armed only under the deep-fuzz job (`EMERALD_CONF_FRAME_BUDGET_MS`):
    // a scenario that blows its wall-clock budget checkpoints the straight
    // instance for the CI artifact step and panics with the dump path —
    // a timeout is a harness failure, not an oracle verdict.
    let budget = FrameBudget::from_env();
    let violation = |detail: String| SnapViolation { detail };
    let cfg = sc.soc.config(sc.cell);
    let mut straight = Soc::new(cfg.clone());
    let mut barriers = Vec::new();
    for f in 0..sc.at_frame {
        let rec = straight.run_frame(sc.soc.draws(&straight, f), MAX);
        barriers.push(Barrier::at(&mut straight, &rec));
    }
    let span = match barriers.last() {
        Some(b) => b.record.1,
        None => {
            let mut probe = Soc::new(cfg.clone());
            let d = sc.soc.draws(&probe, 0);
            probe.run_frame(d, MAX).total_cycles
        }
    };

    let d = sc.soc.draws(&straight, sc.at_frame);
    let at = straight.now() + span * sc.offset_pct as u64 / 100;
    let (rec, snap) = straight.run_frame_checkpoint(d.clone(), MAX, Some(at));
    let want = Barrier::at(&mut straight, &rec);
    let mid_frame = snap.is_some();
    let mut bytes = snap.unwrap_or_else(|| straight.checkpoint());
    if let SnapBug::FlipByte { pos_pct, mask } = sc.bug {
        let pos = (bytes.len() - 1) * (pos_pct as usize).min(100) / 100;
        bytes[pos] ^= mask;
    }
    let mut restored = Soc::restore(&bytes, &sc.soc.config(sc.restore_cell))
        .map_err(|e| violation(format!("restore rejected the snapshot: {e:?}")))?;
    if sc.bug == SnapBug::StaleRng {
        restored.debug_reset_cpu_rng(0);
    }
    // A mid-frame capture finishes the interrupted frame (its draw's
    // uploads are in the restored memory image, so the straight run's draw
    // list is valid as-is); an inter-frame one has only state to compare.
    let got = if mid_frame {
        let r = restored.resume_frame(d, MAX);
        Barrier::at(&mut restored, &r)
    } else {
        Barrier::at(&mut restored, &rec)
    };
    if let Some(what) = want.diff(&got) {
        return Err(violation(format!("restore barrier: {what} diverged")));
    }
    barriers.push(want);

    for f in sc.at_frame + 1..sc.frames {
        if let Err(msg) = budget.check("snap_oracle", &mut straight) {
            panic!("{msg}");
        }
        let (ds, dr) = (sc.soc.draws(&straight, f), sc.soc.draws(&restored, f));
        if !ds
            .iter()
            .map(|d| d.vb.base)
            .eq(dr.iter().map(|d| d.vb.base))
        {
            return Err(violation(format!("frame {f}: upload address diverged")));
        }
        let rs = straight.run_frame(ds, MAX);
        let rr = restored.run_frame(dr, MAX);
        let want = Barrier::at(&mut straight, &rs);
        if let Some(what) = want.diff(&Barrier::at(&mut restored, &rr)) {
            return Err(violation(format!("frame {f}: {what} diverged")));
        }
        barriers.push(want);
    }
    Ok(SnapRun {
        mid_frame,
        straight: barriers,
    })
}

/// Shrink candidates for a failing [`SnapScenario`]: drop trailing frames,
/// then halve the checkpoint offset — minimizing the failing checkpoint
/// cycle. The injected bug is never removed, so the minimizer cannot
/// shrink into the honest implementation.
pub fn shrink_snap_candidates(sc: &SnapScenario) -> Vec<SnapScenario> {
    let mut out = Vec::new();
    if sc.frames > sc.at_frame + 1 {
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

/// Runs `f`, turning a panic into its message.
pub(crate) fn caught(f: impl FnOnce()) -> Result<(), String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    })
}

/// A CPU-wake scenario: `soc` runs `frames` frames with both gates on and
/// the SoC's wake audit armed. `forget_fence_flip` and
/// `forget_cpu_refused` are the injected bugs: the CPU cluster is never
/// told that the frame's fence flipped; a memory-system tick no longer
/// makes the CPU cluster due while a core holds a request it refused.
#[derive(Debug, Clone)]
pub struct WakeScenario {
    /// The SoC.
    pub soc: SocScenario,
    /// Frames rendered.
    pub frames: u32,
    /// The fence-flip bug (`false` = honest).
    pub forget_fence_flip: bool,
    /// The refused-CPU-head bug (`false` = honest).
    pub forget_cpu_refused: bool,
}

impl WakeScenario {
    /// One-line summary for failure reports.
    pub fn describe(&self) -> String {
        let said = |forget: bool| if forget { "forgotten" } else { "heeded" };
        format!(
            "{} frames, {} cores, work / {}, cube {}, queue cap {}, fence flip {}, refused CPU heads {}",
            self.frames,
            self.soc.cpus.len(),
            self.soc.work_div,
            self.soc.cube,
            self.soc.memsys.dram.queue_cap,
            said(self.forget_fence_flip),
            said(self.forget_cpu_refused)
        )
    }
}

/// Runs `sc` with the SoC's wake audit armed (`Soc::debug_audit_cpu_wakes`);
/// a core the CPU cluster skipped although it owed a cycle is the
/// violation, reported with the audit's message.
pub fn wake_oracle(sc: &WakeScenario) -> Result<(), String> {
    let mut soc = Soc::new(sc.soc.config(Cell::PRESET));
    soc.debug_audit_cpu_wakes(sc.forget_fence_flip);
    soc.debug_audit_cpu_refused(sc.forget_cpu_refused);
    caught(|| {
        for f in 0..sc.frames {
            let d = sc.soc.draws(&soc, f);
            soc.run_frame(d, MAX);
        }
    })
}

/// Shrink candidates for a failing [`WakeScenario`]: one frame fewer, the
/// last core dropped (never the driver), a quarter of the CPU work, no
/// cube. The bugs are never removed.
pub fn shrink_wake_candidates(sc: &WakeScenario) -> Vec<WakeScenario> {
    let mut out = Vec::new();
    if sc.frames > 1 {
        out.push(WakeScenario {
            frames: sc.frames - 1,
            ..sc.clone()
        });
    }
    let mut soc = Vec::new();
    if sc.soc.cpus.len() > 1 {
        let mut fewer = sc.soc.clone();
        fewer.cpus.pop();
        soc.push(fewer);
    }
    if sc.soc.work_div < 256 {
        soc.push(SocScenario {
            work_div: sc.soc.work_div * 4,
            ..sc.soc.clone()
        });
    }
    if sc.soc.cube {
        soc.push(SocScenario {
            cube: false,
            ..sc.soc.clone()
        });
    }
    out.extend(
        soc.into_iter()
            .map(|soc| WakeScenario { soc, ..sc.clone() }),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> SnapScenario {
        SnapScenario {
            soc: SocScenario::two_core(MemCfgKind::Bas.build(DramConfig::lpddr3_1600()), 16),
            cell: Cell {
                cpu_batch: false,
                ..Cell::PRESET
            },
            restore_cell: Cell::PRESET,
            frames: 2,
            at_frame: 1,
            offset_pct: 40,
            bug: SnapBug::None,
        }
    }

    #[test]
    fn honest_snapshots_pass_the_oracle() {
        snap_oracle(&base()).expect("honest checkpoint/restore must conform");
        // Overshooting offset exercises the inter-frame fallback path.
        let run = snap_oracle(&SnapScenario {
            offset_pct: 400,
            frames: 3,
            ..base()
        })
        .expect("inter-frame checkpoint must conform");
        assert!(!run.mid_frame && run.straight.len() == 3);
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

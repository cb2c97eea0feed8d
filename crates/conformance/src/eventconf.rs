//! Conformance for the event-driven clocking contract
//! (`emerald_common::event::NextEvent`).
//!
//! The one unsafe direction of the contract is reporting *later* than the
//! truth: a skip loop would jump past a cycle where the component acts,
//! silently changing simulated time while every individual run still looks
//! healthy. Two oracles aim at it:
//!
//! - The **gap oracle** drives the memory system and ticks cycle by cycle
//!   through every stretch its `next_event` declared dead; any response
//!   completing inside such a stretch is a violation.
//! - The **twin gap oracle** drives two identical instances of a model
//!   whose dead stretches still move time-linear counters — a bare GPU, a
//!   standalone renderer. After every shared cycle it asks for the next
//!   event; one twin is cycled through the announced gap, the other jumps
//!   it and books it (`skip`), and everything observable must agree at the
//!   far side: the published registry and in-flight summary after every
//!   gap, snapshot bytes and output memory once drained.
//!
//! - The **cached-pin oracle** runs a whole SoC with `Soc`'s own audit
//!   armed: after every loop iteration each component's cached wake pin
//!   must be no later than a fresh `next_event` answer.
//!
//! Each has a canary — reports artificially delayed by `lag` cycles, or a
//! CPU request that fails to invalidate the memory system's cached pin —
//! which the oracle must catch and the shrinker must minimize.

use crate::drawgen::{draw_rig, DrawCase, DrawRig};
use crate::isadiff::{init_mem, kernel_for, Layout};
use crate::proggen::{shrink_candidates, GenProgram};
use crate::socconf::{cube_draw, Cell, SocScenario, MAX};
use emerald_common::event::NextEvent;
use emerald_common::snap::{SnapWriter, Snapshot};
use emerald_common::types::{AccessKind, Cycle, TrafficSource};
use emerald_gpu::gpu::{Drain, MemPort};
use emerald_gpu::{GlobalMemCtx, Gpu, GpuConfig, SimpleMemPort};
use emerald_mem::req::MemRequest;
use emerald_mem::{DramConfig, MemorySystem, MemorySystemConfig};
use emerald_obs::Registry;
use emerald_soc::experiment::MemCfgKind;
use emerald_soc::soc::Soc;

/// A gap-oracle scenario: a burst of `reqs` read requests at `stride`-byte
/// spacing enters the memory system at cycle 0, after which there is no
/// external input — so every announced gap must tick as a dead stretch.
/// `lag` is the injected bug: cycles added to every `next_event` answer
/// before the oracle trusts it. `lag == 0` is the honest implementation
/// and must pass.
#[derive(Debug, Clone)]
pub struct GapScenario {
    /// Read requests in the burst.
    pub reqs: u64,
    /// Byte stride between consecutive request addresses (line-aligned).
    pub stride: u64,
    /// Injected under-report in cycles (0 = honest).
    pub lag: Cycle,
}

impl GapScenario {
    /// One-line summary for failure reports.
    pub fn describe(&self) -> String {
        format!(
            "{} reqs, stride {:#x}, next_event lagged by {}",
            self.reqs, self.stride, self.lag
        )
    }
}

/// A detected contract violation: the component completed a request at
/// `acted` although it had announced nothing before `announced`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GapViolation {
    /// Cycle the component actually acted.
    pub acted: Cycle,
    /// The (lagged) wake cycle the oracle had been promised.
    pub announced: Cycle,
}

/// Drains `sc`'s burst through a two-channel FR-FCFS memory system,
/// trusting `next_event + sc.lag` for dead stretches, and reports the
/// first violation.
pub fn gap_oracle(sc: &GapScenario) -> Result<(), GapViolation> {
    let mut ms = MemorySystem::new(MemorySystemConfig::baseline(2, DramConfig::lpddr3_1600()));
    for i in 0..sc.reqs {
        let req = MemRequest {
            id: i,
            addr: (i * sc.stride) & !127,
            bytes: 128,
            kind: AccessKind::Read,
            source: TrafficSource::Gpu,
            issued: 0,
        };
        if ms.enqueue(req, 0).is_err() {
            break; // queues full: a smaller burst is the same scenario
        }
    }
    let mut now: Cycle = 0;
    while !ms.is_idle() && now < 1_000_000 {
        ms.tick(now);
        let _ = ms.drain_finished(now);
        let Some(truth) = NextEvent::next_event(&ms, now) else {
            break;
        };
        let announced = truth + sc.lag;
        for c in now + 1..announced {
            ms.tick(c);
            if !ms.drain_finished(c).is_empty() {
                return Err(GapViolation {
                    acted: c,
                    announced,
                });
            }
        }
        now = announced;
    }
    Ok(())
}

/// Shrink candidates for a failing [`GapScenario`]: halve the burst, the
/// stride and the lag, one axis at a time. The minimizer keeps only
/// candidates that still violate, so the lag never shrinks to the honest 0.
pub fn shrink_gap_candidates(sc: &GapScenario) -> Vec<GapScenario> {
    let mut out = Vec::new();
    if sc.reqs > 1 {
        out.push(GapScenario {
            reqs: sc.reqs / 2,
            ..sc.clone()
        });
    }
    if sc.stride > 128 {
        out.push(GapScenario {
            stride: (sc.stride / 2).max(128),
            ..sc.clone()
        });
    }
    if sc.lag > 1 {
        out.push(GapScenario {
            lag: sc.lag / 2,
            ..sc.clone()
        });
    }
    out
}

/// What the twin gap oracle compares, on top of what [`Drain`] lets it
/// clock — it walks exactly what `drain_loop` would. Two values built the
/// same way must be twins: identical in every observable.
pub(crate) trait GapSim: Drain {
    /// Everything observable mid-run: the published registry plus the
    /// model's in-flight summary.
    fn digest(&self) -> String;

    /// Everything checkpoint-able once drained: snapshot bytes of the
    /// model and its memory system, then the output memory.
    fn drained_bytes(&self) -> Vec<u8>;
}

/// Where the twins stopped agreeing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TwinViolation {
    /// Last cycle both twins executed before the disagreement.
    pub after: Cycle,
    /// The cycle the jumping twin was told it could sleep until.
    pub announced: Cycle,
    /// First line of the digests (or which final bytes) that differ.
    pub detail: String,
}

fn first_difference(a: &str, b: &str) -> String {
    a.lines().zip(b.lines()).find(|(x, y)| x != y).map_or_else(
        || "digests differ in length".into(),
        |(x, y)| format!("{x}  vs  {y}"),
    )
}

/// Walks twins `stepped` and `jumped` to idle. After each shared cycle the
/// jumping twin's earliest `next_events` answer, delayed by `lag` (0 =
/// honest), names a gap: `stepped` is cycled through it, `jumped` skips
/// it, and their digests must agree; once both drain, so must their
/// drained bytes.
/// Returns the number of gaps walked.
pub(crate) fn twin_gap_oracle<S: GapSim>(
    stepped: &mut S,
    jumped: &mut S,
    lag: Cycle,
    max_cycles: Cycle,
) -> Result<u32, TwinViolation> {
    let (mut now, mut gaps) = (0, 0);
    let differ = |after, announced, detail| TwinViolation {
        after,
        announced,
        detail,
    };
    while !jumped.is_idle() {
        stepped.cycle(now);
        jumped.cycle(now);
        // As `drain_loop`: never jump past the drain point.
        let wake = match jumped.next_events(now).into_iter().flatten().min() {
            Some(t) if !jumped.is_idle() => (t + lag).min(max_cycles),
            _ => now + 1,
        };
        if wake > now + 1 {
            (now + 1..wake).for_each(|c| stepped.cycle(c));
            jumped.skip(wake - 1 - now);
            gaps += 1;
            let (a, b) = (stepped.digest(), jumped.digest());
            if a != b {
                return Err(differ(now, wake, first_difference(&a, &b)));
            }
        }
        now = wake;
        if now >= max_cycles {
            return Err(differ(now, wake, "did not drain".into()));
        }
    }
    if !stepped.is_idle() || stepped.drained_bytes() != jumped.drained_bytes() {
        return Err(differ(now, now, "drained state differs".into()));
    }
    Ok(gaps)
}

/// A bare GPU running one generated kernel against a two-channel port.
pub(crate) struct GpuSim {
    gpu: Gpu,
    ctx: GlobalMemCtx,
    port: SimpleMemPort,
    layout: Layout,
    out_bytes: usize,
}

impl GpuSim {
    /// Launches `gp` (inputs seeded from `data_seed`) on a GPU built from
    /// `cfg`.
    pub fn new(gp: &GenProgram, data_seed: u64, cfg: &GpuConfig) -> Self {
        let layout = init_mem(gp, data_seed);
        let mut gpu = Gpu::new(cfg.clone());
        gpu.launch_kernel(kernel_for(gp, &layout));
        Self {
            gpu,
            ctx: GlobalMemCtx::new(layout.mem.clone()),
            port: crate::isadiff::two_channel_port(),
            out_bytes: gp.out_bytes(),
            layout,
        }
    }
}

fn port_json(port: &SimpleMemPort, mut reg: Registry) -> String {
    port.mem.publish(&mut reg, "mem.dram");
    reg.to_json()
}

impl Drain for GpuSim {
    fn is_idle(&self) -> bool {
        self.gpu.is_idle()
    }

    fn cycle(&mut self, now: Cycle) {
        self.gpu.cycle(now, &mut self.ctx, &mut self.port);
    }

    fn next_events(&self, now: Cycle) -> [Option<Cycle>; 2] {
        [self.gpu.next_event(now), self.port.next_event(now)]
    }

    fn skip(&mut self, delta: Cycle) {
        self.gpu.skip(delta);
    }
}

impl GapSim for GpuSim {
    fn digest(&self) -> String {
        let mut reg = Registry::new();
        self.gpu.publish(&mut reg, "gpu");
        format!(
            "{}\n{}",
            port_json(&self.port, reg),
            self.gpu.debug_snapshot()
        )
    }

    fn drained_bytes(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        self.gpu.snapshot(&mut w);
        self.port.mem.snapshot(&mut w);
        let mut bytes = w.into_bytes();
        let out = self.layout.out_base;
        (self.layout.mem).read(|m| bytes.extend_from_slice(m.read_bytes(out, self.out_bytes)));
        bytes
    }
}

/// A standalone renderer drawing one generated case.
pub(crate) struct RendererSim(DrawRig);

impl RendererSim {
    /// Uploads `case` and queues it on a renderer built from `cfg`.
    pub fn new(case: &DrawCase, cfg: &GpuConfig) -> Self {
        let mut rig = draw_rig(case, cfg);
        rig.renderer.begin_frame();
        Self(rig)
    }
}

impl Drain for RendererSim {
    fn is_idle(&self) -> bool {
        self.0.renderer.is_idle()
    }

    fn cycle(&mut self, now: Cycle) {
        self.0.renderer.cycle(now, &mut self.0.port);
    }

    fn next_events(&self, now: Cycle) -> [Option<Cycle>; 2] {
        [self.0.renderer.next_event(now), self.0.port.next_event(now)]
    }

    fn skip(&mut self, delta: Cycle) {
        self.0.renderer.skip(delta);
    }
}

impl GapSim for RendererSim {
    fn digest(&self) -> String {
        let rig = &self.0;
        let mut reg = Registry::new();
        rig.renderer.publish(&mut reg, "gfx");
        format!(
            "{}\n{}\n{}",
            port_json(&rig.port, reg),
            rig.renderer.debug_snapshot(),
            rig.renderer.gpu.debug_snapshot()
        )
    }

    fn drained_bytes(&self) -> Vec<u8> {
        let rig = &self.0;
        let mut w = SnapWriter::new();
        rig.renderer.snapshot(&mut w);
        rig.port.mem.snapshot(&mut w);
        let mut bytes = w.into_bytes();
        let pixels = rig.rt.read_color(&rig.mem);
        bytes.extend(pixels.iter().flat_map(|p| p.to_le_bytes()));
        bytes
    }
}

/// The GPU canary's scenario: a generated kernel walked by the twin
/// oracle with every `next_event` answer delayed by `lag`.
#[derive(Debug, Clone)]
pub struct GpuGapScenario {
    /// The kernel.
    pub gp: GenProgram,
    /// Seed of its input data.
    pub data_seed: u64,
    /// Injected under-report in cycles (0 = honest).
    pub lag: Cycle,
}

/// Cycle budget for one twin walk; generated kernels and draws finish in
/// well under a million cycles.
const TWIN_MAX_CYCLES: Cycle = 20_000_000;

/// Walks `sc`'s kernel on twin GPUs built from `cfg`.
pub fn gpu_gap_oracle(sc: &GpuGapScenario, cfg: &GpuConfig) -> Result<u32, TwinViolation> {
    let mut stepped = GpuSim::new(&sc.gp, sc.data_seed, cfg);
    let mut jumped = GpuSim::new(&sc.gp, sc.data_seed, cfg);
    twin_gap_oracle(&mut stepped, &mut jumped, sc.lag, TWIN_MAX_CYCLES)
}

/// Walks `case` on twin standalone renderers built from `cfg`.
pub fn renderer_gap_oracle(case: &DrawCase, cfg: &GpuConfig) -> Result<u32, TwinViolation> {
    let mut stepped = RendererSim::new(case, cfg);
    let mut jumped = RendererSim::new(case, cfg);
    twin_gap_oracle(&mut stepped, &mut jumped, 0, TWIN_MAX_CYCLES)
}

/// Shrink candidates for a failing [`GpuGapScenario`]: a smaller program,
/// or half the lag. The minimizer keeps only candidates that still
/// violate, so the lag never shrinks to the honest 0.
pub fn shrink_gpu_gap_candidates(sc: &GpuGapScenario) -> Vec<GpuGapScenario> {
    let mut out: Vec<_> = shrink_candidates(&sc.gp)
        .into_iter()
        .map(|gp| GpuGapScenario { gp, ..sc.clone() })
        .collect();
    if sc.lag > 1 {
        out.push(GpuGapScenario {
            lag: sc.lag / 2,
            ..sc.clone()
        });
    }
    out
}

/// A cached-pin scenario: [`SocScenario::two_core`] (`Work` phases cut to
/// `1 / work_div`) on memory system `mem` renders `frames` cube frames
/// with both clocking gates on.
/// `forget_cpu_enqueues` is the injected bug: a CPU request entering the
/// memory system no longer invalidates the memory system's cached pin.
#[derive(Debug, Clone)]
pub struct PinScenario {
    /// Frames rendered.
    pub frames: u32,
    /// Divisor of the cores' `Work` phase lengths.
    pub work_div: u64,
    /// Memory-system configuration.
    pub mem: MemCfgKind,
    /// The injected bug (`false` = honest).
    pub forget_cpu_enqueues: bool,
}

impl PinScenario {
    /// One-line summary for failure reports.
    pub fn describe(&self) -> String {
        format!(
            "{} frames, work / {}, {}, CPU enqueues {}",
            self.frames,
            self.work_div,
            self.mem.label(),
            if self.forget_cpu_enqueues {
                "forgotten"
            } else {
                "invalidate"
            }
        )
    }
}

/// Runs `sc` with the SoC's cached-pin audit armed; a pin found later
/// than its component's `next_event` is the violation, reported with the
/// audit's message.
pub fn pin_oracle(sc: &PinScenario) -> Result<(), String> {
    let soc_sc = SocScenario::two_core(sc.mem.build(DramConfig::lpddr3_1600()), sc.work_div);
    let mut soc = Soc::new(soc_sc.config(Cell::PRESET));
    soc.debug_audit_pins(sc.forget_cpu_enqueues);
    let frames = std::panic::AssertUnwindSafe(|| {
        for f in 0..sc.frames {
            let d = cube_draw(&soc, f);
            soc.run_frame(vec![d], MAX);
        }
    });
    std::panic::catch_unwind(frames).map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    })
}

/// Shrink candidates for a failing [`PinScenario`]: one frame fewer, a
/// quarter of the CPU work, the baseline memory system. The bug is never
/// removed.
pub fn shrink_pin_candidates(sc: &PinScenario) -> Vec<PinScenario> {
    let mut out = Vec::new();
    if sc.frames > 1 {
        out.push(PinScenario {
            frames: sc.frames - 1,
            ..sc.clone()
        });
    }
    if sc.work_div < 256 {
        out.push(PinScenario {
            work_div: sc.work_div * 4,
            ..sc.clone()
        });
    }
    if sc.mem != MemCfgKind::Bas {
        out.push(PinScenario {
            mem: MemCfgKind::Bas,
            ..sc.clone()
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn honest_reports_pass_the_oracle() {
        for reqs in [1, 8, 32] {
            gap_oracle(&GapScenario {
                reqs,
                stride: 4096,
                lag: 0,
            })
            .expect("honest next_event must conform");
        }
    }

    #[test]
    fn lagged_reports_are_violations() {
        let v = gap_oracle(&GapScenario {
            reqs: 16,
            stride: 4096,
            lag: 4,
        })
        .expect_err("lagged next_event must be caught");
        assert!(v.acted < v.announced);
    }

    fn kernel(seed: u64, lag: Cycle) -> GpuGapScenario {
        let mut rng = emerald_common::rng::Xorshift64::new(seed);
        GpuGapScenario {
            data_seed: rng.next_u64(),
            gp: crate::proggen::gen_program(&mut rng),
            lag,
        }
    }

    #[test]
    fn honest_gpu_twins_agree_and_walk_gaps() {
        let cfg = crate::isadiff::base_config();
        let gaps = gpu_gap_oracle(&kernel(7, 0), &cfg).expect("honest next_event must conform");
        assert!(gaps > 0, "a kernel that loads from DRAM waits somewhere");
    }

    #[test]
    fn lagged_gpu_twins_disagree() {
        let cfg = crate::isadiff::base_config();
        let v = gpu_gap_oracle(&kernel(7, 3), &cfg).expect_err("lagged next_event must be caught");
        assert!(v.announced > v.after + 1, "{v:?}");
    }
}

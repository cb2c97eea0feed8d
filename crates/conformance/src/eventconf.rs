//! Conformance for the event-driven clocking contract
//! (`emerald_common::event::NextEvent`).
//!
//! The one unsafe direction of the contract is reporting *later* than the
//! truth: a skip loop would jump past a cycle where the component acts,
//! silently changing simulated time while every individual run still looks
//! healthy. One oracle per component aims at it:
//!
//! - The **dead-gap oracles** drive a component whose announced gaps must
//!   be no-ops and tick it cycle by cycle through each of them:
//!   [`gap_oracle`] the memory system (random requests from four sources
//!   trickle into any organization), [`display_gap_oracle`] the display
//!   controller behind a memory of any latency, instant included. Inside
//!   a gap no response may complete and no snapshot byte may change.
//! - The **twin gap oracle** drives two identical instances of a model
//!   whose dead stretches still move time-linear counters — a bare GPU, a
//!   standalone renderer. After every shared cycle it asks for the next
//!   event; one twin is cycled through the announced gap, the other jumps
//!   it and books it (`skip`), and everything observable must agree at the
//!   far side: the published registry and in-flight summary after every
//!   gap, snapshot bytes and output memory once drained.
//! - The **booking oracle** ([`booking_oracle`]) clocks two GPU twins on
//!   one schedule: one books its parked cores' cycles every tick and
//!   every jump, the other only where the library settles it, and both
//!   must agree at random interior points and once drained.
//! - The **cached-pin oracle** runs a whole SoC with `Soc`'s own audit
//!   armed: after every loop iteration each component's cached wake pin
//!   must be no later than a fresh `next_event` answer.
//!
//! Each has a canary, run through the same function as the random cases:
//! reports artificially delayed by `lag` cycles, a fill that forgets to
//! book its core first, a CPU request that fails to invalidate the memory
//! system's cached pin, or a CPU cluster that sleeps through the tick that
//! makes room for its refused request — which the oracle must catch and
//! the shrinker must minimize.

use crate::drawgen::{draw_rig, shrink_draw_candidates, DrawCase, DrawRig};
use crate::isadiff::{init_mem, kernel_for, Layout};
use crate::proggen::{shrink_candidates, GenProgram};
use crate::socconf::{caught, cube_draw, Cell, SocScenario, MAX};
use emerald_common::event::{next_wake, NextEvent};
use emerald_common::rng::Xorshift64;
use emerald_common::snap::encode;
use emerald_common::types::{AccessKind, Addr, Cycle, TrafficSource};
use emerald_gpu::gpu::{Drain, MemPort};
use emerald_gpu::{GlobalMemCtx, Gpu, GpuConfig, SimpleMemPort};
use emerald_mem::req::MemRequest;
use emerald_mem::{DramConfig, MemorySystem};
use emerald_obs::Registry;
use emerald_soc::cpu::CpuWorkload;
use emerald_soc::display::{DisplayController, DisplayStats};
use emerald_soc::experiment::MemCfgKind;
use emerald_soc::soc::Soc;
use std::collections::VecDeque;

/// Where a gap oracle caught its component: something happened inside a
/// gap it had been told was safe to jump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GapViolation {
    /// Last cycle executed before the gap.
    pub after: Cycle,
    /// The (lagged) wake cycle the oracle had been promised.
    pub announced: Cycle,
    /// What happened inside the gap (for twins: the first line of the
    /// digests, or which final bytes, that differ).
    pub detail: String,
}

fn violation<T>(
    after: Cycle,
    announced: Cycle,
    detail: impl Into<String>,
) -> Result<T, GapViolation> {
    Err(GapViolation {
        after,
        announced,
        detail: detail.into(),
    })
}

/// A memory-system gap scenario: `reqs` arrive in order at a memory
/// system of kind `mem`, a few a cycle, as its queues accept them and the
/// `trickle_seed` stream lets them through. Once all have arrived there
/// is no external input, so every announced gap must tick as a dead
/// stretch. `lag` is the injected bug: cycles added to every
/// `next_event` answer before the oracle trusts it. `lag == 0` is the
/// honest implementation and must pass.
#[derive(Debug, Clone)]
pub struct GapScenario {
    /// Memory-system organization and scheduler.
    pub mem: MemCfgKind,
    /// DRAM preset.
    pub dram: DramConfig,
    /// Requests in arrival order: line address, kind, source.
    pub reqs: Vec<(Addr, AccessKind, TrafficSource)>,
    /// Seed of the stream that holds back 40 % of arrival attempts.
    pub trickle_seed: u64,
    /// Injected under-report in cycles (0 = honest).
    pub lag: Cycle,
}

impl GapScenario {
    /// A random honest scenario: any of the four memory organizations,
    /// either LPDDR3 preset, and 20–59 line requests (30 % writes) over
    /// 4 MiB from the GPU, two CPUs and the display.
    pub fn random(rng: &mut Xorshift64) -> Self {
        let sources = [
            TrafficSource::Gpu,
            TrafficSource::Cpu(0),
            TrafficSource::Cpu(1),
            TrafficSource::Display,
        ];
        let mem = MemCfgKind::ALL[rng.below(4) as usize];
        let dram = if rng.chance(0.5) {
            DramConfig::lpddr3_1333()
        } else {
            DramConfig::lpddr3_1600()
        };
        let reqs = (0..rng.range(20, 60))
            .map(|_| {
                let addr = rng.below(1 << 22) & !127;
                let kind = if rng.chance(0.3) {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                (addr, kind, sources[rng.below(4) as usize])
            })
            .collect();
        Self {
            mem,
            dram,
            reqs,
            trickle_seed: rng.next_u64(),
            lag: 0,
        }
    }

    /// Requests that write.
    pub fn writes(&self) -> usize {
        (self.reqs.iter())
            .filter(|r| r.1 == AccessKind::Write)
            .count()
    }

    /// One-line summary for failure reports.
    pub fn describe(&self) -> String {
        format!(
            "{}, {} reqs ({} writes), next_event lagged by {}",
            self.mem.label(),
            self.reqs.len(),
            self.writes(),
            self.lag
        )
    }
}

/// Cycle budget for a memory-system or display walk.
const GAP_MAX_CYCLES: Cycle = 1_000_000;

/// Feeds `sc`'s requests into its memory system and drains it, trusting
/// `next_event + sc.lag` once no input is left: each announced gap is
/// ticked a cycle at a time and must complete no response and leave every
/// state byte alone — statistics, bank timing, DASH's windows and RNG.
/// A `None` answer promises the system never acts again, and is held to
/// that for 200 cycles. Returns the number of gaps walked.
pub fn gap_oracle(sc: &GapScenario) -> Result<u32, GapViolation> {
    let mut ms = MemorySystem::new(sc.mem.build(sc.dram.clone()));
    let mut trickle = Xorshift64::new(sc.trickle_seed);
    let mut arrivals = sc.reqs.iter().zip(0..).peekable();
    let (mut now, mut gaps) = (0, 0);
    while arrivals.peek().is_some() || !ms.is_idle() {
        if now >= GAP_MAX_CYCLES {
            return violation(now, now, "did not drain within the cycle budget");
        }
        while let Some(&(&(addr, kind, source), id)) = arrivals.peek() {
            let req = MemRequest {
                id,
                addr,
                bytes: 128,
                kind,
                source,
                issued: now,
            };
            if !ms.can_accept(&req) || trickle.chance(0.4) {
                break;
            }
            ms.enqueue(req, now).expect("can_accept said yes");
            arrivals.next();
        }
        ms.tick(now);
        let _ = ms.drain_finished(now);
        if arrivals.peek().is_some() {
            now += 1;
            continue;
        }
        let announced = ms.next_event(now).map_or(now + 200, |t| t + sc.lag);
        if announced > now + 1 {
            let before = encode(|w| ms.walk(w));
            for c in now + 1..announced {
                ms.tick(c);
                if !ms.drain_finished(c).is_empty() {
                    return violation(now, announced, format!("a response completed at {c}"));
                }
            }
            if encode(|w| ms.walk(w)) != before {
                return violation(now, announced, "state changed");
            }
            gaps += 1;
        }
        now = announced.max(now + 1);
    }
    Ok(gaps)
}

/// Shrink candidates for a failing [`GapScenario`]: the first half of the
/// requests, the baseline organization, half the lag — one axis at a
/// time. The minimizer keeps only candidates that still violate, so the
/// lag never shrinks to the honest 0.
pub fn shrink_gap_candidates(sc: &GapScenario) -> Vec<GapScenario> {
    let mut out = Vec::new();
    if sc.reqs.len() > 1 {
        out.push(GapScenario {
            reqs: sc.reqs[..sc.reqs.len() / 2].to_vec(),
            ..sc.clone()
        });
    }
    if sc.mem != MemCfgKind::Bas {
        out.push(GapScenario {
            mem: MemCfgKind::Bas,
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

/// A display gap scenario: a controller scanning `fb_bytes` every
/// `period` cycles behind a memory that credits each read `latency`
/// cycles after the cycle that issued it (0: instant, credited before
/// the next tick), for four refresh periods. `lag` delays every
/// `next_event` answer (0 = honest).
#[derive(Debug, Clone)]
pub struct DisplayGapScenario {
    /// Framebuffer bytes scanned per refresh.
    pub fb_bytes: u64,
    /// Refresh period in cycles.
    pub period: Cycle,
    /// Read latency past the issuing cycle.
    pub latency: Cycle,
    /// Injected under-report in cycles (0 = honest).
    pub lag: Cycle,
}

impl DisplayGapScenario {
    /// A random honest scenario: a 16 or 64 KiB framebuffer, a
    /// 4 000–39 999-cycle period, and half the time instant memory, else a
    /// latency of 20–5 999 cycles — past what the scanout FIFO covers, so
    /// underruns happen as well as prefetch unlocks.
    pub fn random(rng: &mut Xorshift64) -> Self {
        Self {
            fb_bytes: [16 << 10, 64 << 10][rng.below(2) as usize],
            period: rng.range(4_000, 40_000),
            latency: if rng.chance(0.5) {
                0
            } else {
                rng.range(20, 6_000)
            },
            lag: 0,
        }
    }
}

/// Walks `sc`'s display. Every stretch up to the earlier of its
/// announced wake (delayed by `sc.lag`) and the next response is ticked a
/// cycle at a time and must leave the controller's snapshot bytes — beam
/// state, requests, statistics — untouched. Returns the gaps walked and
/// the final statistics.
pub fn display_gap_oracle(sc: &DisplayGapScenario) -> Result<(u32, DisplayStats), GapViolation> {
    let mut d = DisplayController::new(0x1000, sc.fb_bytes, sc.period);
    let mut in_flight: VecDeque<(Cycle, u32)> = VecDeque::new();
    let (mut now, mut gaps) = (0, 0);
    while now < 4 * sc.period {
        while in_flight.front().is_some_and(|r| r.0 <= now) {
            d.on_response(in_flight.pop_front().expect("front").1);
        }
        d.tick(now);
        let due = now + 1 + sc.latency;
        in_flight.extend(d.drain_requests().iter().map(|r| (due, r.bytes)));
        let Some(wake) = d.next_event(now).filter(|&t| t > now) else {
            return violation(now, now, "no period boundary announced ahead");
        };
        let announced = wake + sc.lag;
        let quiet = announced.min(in_flight.front().map_or(announced, |r| r.0));
        if quiet > now + 1 {
            let before = encode(|w| d.walk(w));
            (now + 1..quiet).for_each(|c| d.tick(c));
            if encode(|w| d.walk(w)) != before {
                return violation(now, announced, format!("acted before {quiet}"));
            }
            gaps += 1;
        }
        now = quiet.max(now + 1);
    }
    Ok((gaps, d.stats()))
}

/// Shrink candidates for a failing [`DisplayGapScenario`]: instant
/// memory, the small framebuffer, half the period, half the lag. The lag
/// is never removed.
pub fn shrink_display_gap_candidates(sc: &DisplayGapScenario) -> Vec<DisplayGapScenario> {
    let mut out = Vec::new();
    if sc.latency > 0 {
        out.push(DisplayGapScenario {
            latency: 0,
            ..sc.clone()
        });
    }
    if sc.fb_bytes > 16 << 10 {
        out.push(DisplayGapScenario {
            fb_bytes: 16 << 10,
            ..sc.clone()
        });
    }
    if sc.period > 4_000 {
        out.push(DisplayGapScenario {
            period: (sc.period / 2).max(4_000),
            ..sc.clone()
        });
    }
    if sc.lag > 1 {
        out.push(DisplayGapScenario {
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
    /// Everything observable mid-run, once the GPU is settled: the
    /// published registry plus the model's in-flight summary.
    fn digest(&mut self) -> String;

    /// Everything checkpoint-able once drained: snapshot bytes of the
    /// model and its memory system, then the output memory.
    fn drained_bytes(&mut self) -> Vec<u8>;

    /// The model's GPU.
    fn gpu_mut(&mut self) -> &mut Gpu;
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
) -> Result<u32, GapViolation> {
    let (mut now, mut gaps) = (0, 0);
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
                return violation(now, wake, first_difference(&a, &b));
            }
        }
        now = wake;
        if now >= max_cycles {
            return violation(now, wake, "did not drain");
        }
    }
    if !stepped.is_idle() || stepped.drained_bytes() != jumped.drained_bytes() {
        return violation(now, now, "drained state differs");
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

/// `reg` plus the port's memory system, one instrument field per line
/// (so a difference names its path).
fn registry_rows(port: &SimpleMemPort, mut reg: Registry) -> String {
    port.mem.publish(&mut reg, "mem.dram");
    reg.to_csv()
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
    fn gpu_mut(&mut self) -> &mut Gpu {
        &mut self.gpu
    }

    fn digest(&mut self) -> String {
        self.gpu.settle();
        let mut reg = Registry::new();
        self.gpu.publish(&mut reg, "gpu");
        format!(
            "{}\n{}",
            registry_rows(&self.port, reg),
            self.gpu.debug_snapshot()
        )
    }

    fn drained_bytes(&mut self) -> Vec<u8> {
        let mut bytes = encode(|w| {
            self.gpu.walk(w)?;
            self.port.mem.walk(w)
        });
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
    fn gpu_mut(&mut self) -> &mut Gpu {
        &mut self.0.renderer.gpu
    }

    fn digest(&mut self) -> String {
        let rig = &mut self.0;
        rig.renderer.gpu.settle();
        let mut reg = Registry::new();
        rig.renderer.publish(&mut reg, "gfx");
        format!(
            "{}\n{}\n{}",
            registry_rows(&rig.port, reg),
            rig.renderer.debug_snapshot(),
            rig.renderer.gpu.debug_snapshot()
        )
    }

    fn drained_bytes(&mut self) -> Vec<u8> {
        let rig = &mut self.0;
        let mut bytes = encode(|w| {
            rig.renderer.walk(w)?;
            rig.port.mem.walk(w)
        });
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
pub fn gpu_gap_oracle(sc: &GpuGapScenario, cfg: &GpuConfig) -> Result<u32, GapViolation> {
    let mut stepped = GpuSim::new(&sc.gp, sc.data_seed, cfg);
    let mut jumped = GpuSim::new(&sc.gp, sc.data_seed, cfg);
    twin_gap_oracle(&mut stepped, &mut jumped, sc.lag, TWIN_MAX_CYCLES)
}

/// What a booking scenario runs: a generated kernel on a bare GPU, or a
/// generated draw on a standalone renderer.
#[derive(Debug, Clone)]
pub enum BookingWork {
    /// A kernel and the seed of its input data.
    Kernel(GenProgram, u64),
    /// A draw.
    Draw(DrawCase),
}

/// The GPU booking oracle's scenario: `work` walked by twins that book
/// their parked cores eagerly and lazily, compared at interior points
/// drawn from `check_seed`. `forget_fill_booking` is the injected bug: the
/// lazy twin's fills stop booking their core first.
#[derive(Debug, Clone)]
pub struct BookingScenario {
    /// The kernel or draw.
    pub work: BookingWork,
    /// Seed of the interior comparison points.
    pub check_seed: u64,
    /// Every L1 gets two MSHRs of two targets each, so LSU heads stall
    /// and park often.
    pub tight_l1: bool,
    /// The injected bug (`false` = honest).
    pub forget_fill_booking: bool,
}

impl BookingScenario {
    /// One-line summary for failure reports.
    pub fn describe(&self) -> String {
        let work = match &self.work {
            BookingWork::Kernel(gp, _) => format!("kernel of {} instructions", gp.instrs.len()),
            BookingWork::Draw(case) => case.describe(),
        };
        let tight = if self.tight_l1 { ", 2-MSHR L1s" } else { "" };
        let bug = if self.forget_fill_booking {
            ", fills forget their booking"
        } else {
            ""
        };
        format!("{work}{tight}, checks from {:#x}{bug}", self.check_seed)
    }
}

/// Lazy booking's oracle. Twins built from `sc` and `cfg` (with
/// `sc.tight_l1`'s L1s) are clocked on one schedule — every cycle
/// `drain_loop` would tick, every gap it would jump, as the lazy twin's
/// `next_events` announce them. The eager twin
/// settles its GPU ([`Gpu::settle`]) after every cycle and every jump,
/// which is per-tick booking; the lazy twin books only where the library
/// does. At interior points drawn from `sc.check_seed` (after settling
/// both) and at the drain point, the published registries, the in-flight
/// summaries and every core's stamp must agree; once drained, so must the
/// snapshot bytes. Returns the number of interior points compared.
pub fn booking_oracle(sc: &BookingScenario, cfg: &GpuConfig) -> Result<u32, GapViolation> {
    fn walk<S: GapSim>(
        mut eager: S,
        mut lazy: S,
        sc: &BookingScenario,
    ) -> Result<u32, GapViolation> {
        if sc.forget_fill_booking {
            lazy.gpu_mut().debug_forget_fill_booking();
        }
        let mut rng = Xorshift64::new(sc.check_seed);
        let every = rng.range(1, 64);
        let (mut now, mut checks) = (0, 0);
        let compare = |eager: &mut S, lazy: &mut S, now: Cycle| {
            let (a, b) = (eager.digest(), lazy.digest());
            if a != b {
                return violation(now, now, first_difference(&a, &b));
            }
            let nows = |s: &mut S| {
                let gpu = s.gpu_mut();
                (0..gpu.num_cores())
                    .map(|i| gpu.core(i).now())
                    .collect::<Vec<_>>()
            };
            let (a, b) = (nows(eager), nows(lazy));
            if a != b {
                return violation(now, now, format!("core stamps {a:?} vs {b:?}"));
            }
            Ok(())
        };
        while !lazy.is_idle() {
            eager.cycle(now);
            eager.gpu_mut().settle();
            lazy.cycle(now);
            let mut next = now + 1;
            if !lazy.is_idle() {
                let wake = next_wake(now, TWIN_MAX_CYCLES, lazy.next_events(now));
                if wake > next {
                    eager.skip(wake - next);
                    eager.gpu_mut().settle();
                    lazy.skip(wake - next);
                    next = wake;
                }
            }
            if rng.below(every) == 0 {
                compare(&mut eager, &mut lazy, now)?;
                checks += 1;
            }
            now = next;
            if now >= TWIN_MAX_CYCLES {
                return violation(now, now, "did not drain");
            }
        }
        compare(&mut eager, &mut lazy, now)?;
        if !eager.is_idle() || eager.drained_bytes() != lazy.drained_bytes() {
            return violation(now, now, "drained state differs");
        }
        Ok(checks)
    }
    let mut cfg = cfg.clone();
    if sc.tight_l1 {
        for l1 in [&mut cfg.l1d, &mut cfg.l1t, &mut cfg.l1z, &mut cfg.l1c] {
            (l1.mshrs, l1.targets_per_mshr) = (2, 2);
        }
    }
    match &sc.work {
        BookingWork::Kernel(gp, data_seed) => walk(
            GpuSim::new(gp, *data_seed, &cfg),
            GpuSim::new(gp, *data_seed, &cfg),
            sc,
        ),
        BookingWork::Draw(case) => walk(
            RendererSim::new(case, &cfg),
            RendererSim::new(case, &cfg),
            sc,
        ),
    }
}

/// Shrink candidates for a failing [`BookingScenario`]: a smaller program
/// or a simpler draw. The bug is never removed.
pub fn shrink_booking_candidates(sc: &BookingScenario) -> Vec<BookingScenario> {
    let work: Vec<BookingWork> = match &sc.work {
        BookingWork::Kernel(gp, seed) => shrink_candidates(gp)
            .into_iter()
            .map(|gp| BookingWork::Kernel(gp, *seed))
            .collect(),
        BookingWork::Draw(case) => shrink_draw_candidates(case)
            .into_iter()
            .map(BookingWork::Draw)
            .collect(),
    };
    work.into_iter()
        .map(|work| BookingScenario { work, ..sc.clone() })
        .collect()
}

/// The renderer canary's scenario: a generated draw walked by the twin
/// oracle with every `next_event` answer delayed by `lag`.
#[derive(Debug, Clone)]
pub struct RendererGapScenario {
    /// The draw.
    pub case: DrawCase,
    /// Injected under-report in cycles (0 = honest).
    pub lag: Cycle,
}

/// Walks `sc`'s draw on twin standalone renderers built from `cfg`.
pub fn renderer_gap_oracle(sc: &RendererGapScenario, cfg: &GpuConfig) -> Result<u32, GapViolation> {
    let mut stepped = RendererSim::new(&sc.case, cfg);
    let mut jumped = RendererSim::new(&sc.case, cfg);
    twin_gap_oracle(&mut stepped, &mut jumped, sc.lag, TWIN_MAX_CYCLES)
}

/// Shrink candidates for a failing [`RendererGapScenario`]: a simpler
/// draw, or half the lag. The minimizer keeps only candidates that still
/// violate, so the lag never shrinks to the honest 0.
pub fn shrink_renderer_gap_candidates(sc: &RendererGapScenario) -> Vec<RendererGapScenario> {
    let mut out: Vec<_> = shrink_draw_candidates(&sc.case)
        .into_iter()
        .map(|case| RendererGapScenario { case, ..sc.clone() })
        .collect();
    if sc.lag > 1 {
        out.push(RendererGapScenario {
            lag: sc.lag / 2,
            ..sc.clone()
        });
    }
    out
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
/// with both clocking gates on. `dense` renders at 128×96 with the
/// streaming script in place of `mixed`: the GPU and the streamer fill the
/// shared channels, so CPU requests are refused.
/// `forget_cpu_enqueues` and `forget_cpu_refused` are the injected bugs:
/// a CPU request entering the memory system no longer invalidates the
/// memory system's cached pin; a memory-system tick no longer makes the
/// CPU cluster due while a core holds a request it refused.
#[derive(Debug, Clone)]
pub struct PinScenario {
    /// Frames rendered.
    pub frames: u32,
    /// Divisor of the cores' `Work` phase lengths.
    pub work_div: u64,
    /// Memory-system configuration.
    pub mem: MemCfgKind,
    /// 128×96 and the streamer rather than 48×32 and `mixed`.
    pub dense: bool,
    /// The memory-pin bug (`false` = honest).
    pub forget_cpu_enqueues: bool,
    /// The CPU-pin bug (`false` = honest).
    pub forget_cpu_refused: bool,
}

impl PinScenario {
    /// One-line summary for failure reports.
    pub fn describe(&self) -> String {
        let said = |forget: bool| if forget { "forgotten" } else { "heeded" };
        format!(
            "{} frames, work / {}, {}{}, CPU enqueues {}, refused CPU heads {}",
            self.frames,
            self.work_div,
            self.mem.label(),
            if self.dense { ", 128x96" } else { "" },
            said(self.forget_cpu_enqueues),
            said(self.forget_cpu_refused)
        )
    }
}

/// Runs `sc` with the SoC's cached-pin audit armed; a pin found later
/// than its component's `next_event`, or a CPU core that owes a skipped
/// cycle (`CpuCluster::audit`), is the violation, reported with the
/// audit's message.
pub fn pin_oracle(sc: &PinScenario) -> Result<(), String> {
    let mut soc_sc = SocScenario::two_core(sc.mem.build(DramConfig::lpddr3_1600()), sc.work_div);
    if sc.dense {
        (soc_sc.width, soc_sc.height) = (128, 96);
        soc_sc.cpus[1] = CpuWorkload::streamer();
    }
    let mut soc = Soc::new(soc_sc.config(Cell::PRESET));
    soc.debug_audit_pins(sc.forget_cpu_enqueues);
    soc.debug_audit_cpu_refused(sc.forget_cpu_refused);
    caught(|| {
        for f in 0..sc.frames {
            let d = cube_draw(&soc, f);
            soc.run_frame(vec![d], MAX);
        }
    })
}

/// Shrink candidates for a failing [`PinScenario`]: one frame fewer, a
/// quarter of the CPU work, the baseline memory system. The bugs are
/// never removed.
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

//! The assembled SoC: CPU cluster + GPU renderer + display controller +
//! multi-channel DRAM behind the system NoC (Fig. 1).

use crate::cpu::{forward_requests, CpuCluster, CpuCoreModel, CpuEvent, CpuWorkload};
use crate::display::DisplayController;
use emerald_common::event::{next_wake, NextEvent};
use emerald_common::snap::{SnapError, Walk};
use emerald_common::types::{AccessKind, Cycle, TrafficSource};
use emerald_core::renderer::FrameStats;
use emerald_core::state::{DrawCall, RenderTarget};
use emerald_core::{GfxConfig, GpuRenderer};
use emerald_gpu::gpu::MemPort;
use emerald_gpu::GpuConfig;
use emerald_mem::image::SharedMem;
use emerald_mem::req::{MemRequest, MemResponse};
use emerald_mem::system::{MemorySystem, MemorySystemConfig, SchedulerKind};
use emerald_obs::prof;
use std::collections::VecDeque;

/// SoC configuration.
#[derive(Debug, Clone)]
pub struct SocConfig {
    /// GPU microarchitecture.
    pub gpu: GpuConfig,
    /// Graphics pipeline parameters.
    pub gfx: GfxConfig,
    /// Memory organization + scheduler (BAS/DASH/HMC).
    pub memsys: MemorySystemConfig,
    /// Framebuffer width.
    pub width: u32,
    /// Framebuffer height.
    pub height: u32,
    /// GPU frame deadline in cycles (the paper's 33 ms / 30 FPS analogue;
    /// scaled to simulation size by the experiment harness).
    pub gpu_frame_period: Cycle,
    /// Display refresh period in cycles (16 ms / 60 FPS analogue).
    pub display_period: Cycle,
    /// Per-core CPU scripts (core 0 must be the driver).
    pub cpu_workloads: Vec<CpuWorkload>,
    /// Run-ahead gate: may each CPU core sleep on its own wake — run
    /// ahead of the clock to its next interaction, sleep through a stall
    /// until its response, wait on the fence until its next poll (see
    /// `CpuCluster`)? Presets turn it on; results are bit-identical either
    /// way, and the lockstep suites in `tests/` flip it off to get the
    /// per-cycle CPU clocking they compare against.
    pub cpu_batch: bool,
}

impl SocConfig {
    /// The case study I system (Table 5): 4 CPU cores, 4-core GPU,
    /// 2-channel LPDDR3 — with the given memory-system configuration.
    pub fn case_study_1(
        memsys: MemorySystemConfig,
        width: u32,
        height: u32,
        gpu_frame_period: Cycle,
    ) -> Self {
        Self {
            gpu: GpuConfig::case_study_1(),
            gfx: GfxConfig::case_study_1(),
            memsys,
            width,
            height,
            gpu_frame_period,
            display_period: gpu_frame_period / 2, // 60 vs 30 FPS
            cpu_workloads: vec![
                CpuWorkload::driver(),
                CpuWorkload::streamer(),
                CpuWorkload::compute(),
                CpuWorkload::mixed(),
            ],
            cpu_batch: true,
        }
    }
}

/// Results of one application frame on the SoC.
#[derive(Debug, Clone)]
pub struct SocFrameRecord {
    /// Cycles from draw submission to GPU completion.
    pub gpu_cycles: Cycle,
    /// Total frame time (CPU prepare → everyone at the frame barrier).
    pub total_cycles: Cycle,
    /// Renderer statistics for the frame.
    pub gfx: FrameStats,
}

struct SocPort<'a> {
    memsys: &'a mut MemorySystem,
    resp: &'a mut VecDeque<MemResponse>,
    /// Whether the memory system accepted a request this cycle.
    sent: bool,
}

impl MemPort for SocPort<'_> {
    fn tick(&mut self, _now: Cycle) {}

    fn try_send(&mut self, req: MemRequest, now: Cycle) -> Result<(), MemRequest> {
        let r = self.memsys.enqueue(req, now);
        self.sent |= r.is_ok();
        r
    }

    fn recv(&mut self, _now: Cycle) -> Option<MemResponse> {
        self.resp.pop_front()
    }
}

/// Where a frame's execution stands (the CPU side of it lives in
/// [`CpuCluster`]). Kept off the stack so a mid-frame checkpoint can
/// serialize the frame's progress and a restored SoC can resume driving
/// the same frame.
#[derive(Debug, Clone, Default)]
struct FrameCursor {
    frame_start: Cycle,
    gpu_start: Cycle,
    gpu_cycles: Cycle,
    gpu_active: bool,
    gpu_done: bool,
}

impl FrameCursor {
    fn new(now: Cycle) -> Self {
        Self {
            frame_start: now,
            gpu_start: now,
            gpu_cycles: 0,
            gpu_active: false,
            gpu_done: false,
        }
    }

    fn walk(&mut self, w: &mut impl Walk) -> Result<(), SnapError> {
        w.u64(&mut self.frame_start)?;
        w.u64(&mut self.gpu_start)?;
        w.u64(&mut self.gpu_cycles)?;
        w.bool(&mut self.gpu_active)?;
        w.bool(&mut self.gpu_done)
    }
}

/// The cycle a frame's fence flipped (`Cycle::MAX` while the GPU renders).
fn flip_cycle(cur: &FrameCursor) -> Cycle {
    if cur.gpu_done {
        cur.gpu_start + cur.gpu_cycles
    } else {
        Cycle::MAX
    }
}

/// The frame a clock step belongs to: its cursor and the draws the driver
/// core has yet to submit (`None` once submitted).
type Frame<'a> = (&'a mut FrameCursor, &'a mut Option<Vec<DrawCall>>);

/// The last `next_event` answer of each component (`Cycle::MAX` for
/// `None`), and the CPU cluster's last [`CpuCluster::wake`]: the SoC's
/// wake calendar. A pin is recomputed only where it can have moved —
/// after its component ticked; for the memory system, after a request
/// entered it or DASH feedback fired; for the CPU cluster, after it
/// stepped, the memory system ticked or took a request (a refused head
/// may fit now, an accepted one may fill a channel) or the fence flipped.
/// Derived from the components, so not part of a snapshot: every clocking
/// loop starts from 0, which makes every component due at its first step
/// — the public components may have been touched since the last loop.
#[derive(Debug, Clone, Copy, Default)]
struct Pins {
    mem: Cycle,
    display: Cycle,
    renderer: Cycle,
    cpu: Cycle,
}

fn pin(next_event: Option<Cycle>) -> Cycle {
    next_event.unwrap_or(Cycle::MAX)
}

/// The full SoC.
#[derive(Debug)]
pub struct Soc {
    cfg: SocConfig,
    /// The shared memory image.
    pub mem: SharedMem,
    /// The memory system (public for stats/probes).
    pub memsys: MemorySystem,
    /// The GPU renderer (public for stats).
    pub renderer: GpuRenderer,
    /// The render target the app draws into and the display scans.
    pub rt: RenderTarget,
    cpus: CpuCluster,
    display: DisplayController,
    gpu_resp: VecDeque<MemResponse>,
    now: Cycle,
    expected_frags: u64,
    frames_rendered: u64,
    /// First cycle at which [`Soc::dash_feedback`] has to look at the
    /// clock again; derived from `now`, so not part of a snapshot.
    next_feedback: Cycle,
    pins: Pins,
    /// Cycles the renderer was not cycled in and has not yet booked
    /// ([`Soc::settle_renderer`]); always 0 outside the clocking loops.
    owed: Cycle,
    /// Run the cached-pin oracle ([`Soc::audit_pins`]) every loop
    /// iteration: always in debug builds, otherwise only once
    /// [`Soc::debug_audit_pins`] armed it.
    audit: bool,
    /// The oracle's canary: CPU requests stop invalidating the memory
    /// system's pin.
    forget_cpu_enqueues: bool,
    /// The CPU wake oracle's canary: the CPU cluster is never told that
    /// the fence flipped.
    forget_fence_flip: bool,
    /// The CPU pin's canary: a memory-system tick no longer makes a
    /// cluster holding a refused request due.
    forget_cpu_refused: bool,
    /// A mid-frame checkpoint waiting for [`Soc::resume_frame`]; the bool
    /// records whether the frame's draws were already submitted.
    resume: Option<(FrameCursor, bool)>,
}

impl Soc {
    /// Capacity of the SoC's memory image, in bytes: the framebuffer, the
    /// scene data and every CPU's working set are allocated from it.
    pub const IMAGE_BYTES: usize = 256 << 20;

    /// Builds the SoC; allocates the framebuffer from a fresh image.
    pub fn new(cfg: SocConfig) -> Self {
        let mem = SharedMem::with_capacity(Self::IMAGE_BYTES);
        let rt = RenderTarget::alloc(&mem, cfg.width, cfg.height);
        rt.clear(&mem, [0.05, 0.05, 0.08, 1.0], 1.0);
        let renderer = GpuRenderer::new(cfg.gpu.clone(), cfg.gfx.clone(), mem.clone(), rt);
        let memsys = MemorySystem::new(cfg.memsys.clone());
        let cpus = cfg
            .cpu_workloads
            .iter()
            .enumerate()
            .map(|(i, w)| CpuCoreModel::new(i, w.clone(), &mem, 0x50C0 + i as u64))
            .collect();
        let cpus = CpuCluster::new(cpus, cfg.cpu_batch);
        let fb_bytes = cfg.width as u64 * cfg.height as u64 * 4;
        let display = DisplayController::new(rt.color_base, fb_bytes, cfg.display_period);
        Self {
            mem,
            memsys,
            renderer,
            rt,
            cpus,
            display,
            gpu_resp: VecDeque::new(),
            now: 0,
            expected_frags: 0,
            frames_rendered: 0,
            next_feedback: 0,
            pins: Pins::default(),
            owed: 0,
            audit: cfg!(debug_assertions),
            forget_cpu_enqueues: false,
            forget_fence_flip: false,
            forget_cpu_refused: false,
            resume: None,
            cfg,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The configuration this SoC was built from (the same value must be
    /// passed to [`Soc::restore`] when reviving a checkpoint).
    pub fn config(&self) -> &SocConfig {
        &self.cfg
    }

    /// Frames completed so far. After a mid-frame restore this is the
    /// index of the interrupted frame (it is only bumped at frame end),
    /// so a driver replaying a scene knows which draw to resubmit.
    pub fn frames_rendered(&self) -> u64 {
        self.frames_rendered
    }

    /// Test-only hook for the snapshot conformance canary: see
    /// [`CpuCoreModel::debug_reset_rng`].
    #[doc(hidden)]
    pub fn debug_reset_cpu_rng(&mut self, core: usize) {
        self.cpus.cores_mut()[core].debug_reset_rng();
    }

    /// Test-only hook for the cached-pin canary: arms the cached-pin
    /// oracle in any build, and with `forget_cpu_enqueues` injects the bug
    /// it must catch — a CPU request entering the memory system no longer
    /// invalidates the memory system's pin.
    #[doc(hidden)]
    pub fn debug_audit_pins(&mut self, forget_cpu_enqueues: bool) {
        self.audit = true;
        self.forget_cpu_enqueues = forget_cpu_enqueues;
    }

    /// Test-only hook for the CPU wake canary: arms the cached-pin oracle
    /// (which audits the CPU cores' wakes too) in any build, and with
    /// `forget_fence_flip` injects the bug it must catch — the CPU cluster
    /// is never told that the frame's fence flipped, so a core waiting on
    /// it sleeps through the cycle it must leave the wait.
    #[doc(hidden)]
    pub fn debug_audit_cpu_wakes(&mut self, forget_fence_flip: bool) {
        self.audit = true;
        self.forget_fence_flip = forget_fence_flip;
    }

    /// Test-only hook for the CPU pin canary: arms the cached-pin oracle
    /// (which audits the CPU cores too) in any build, and with
    /// `forget_cpu_refused` injects the bug it must catch — the CPU
    /// cluster is no longer due when the memory system ticks while a core
    /// holds a request it refused, so that request waits for the cluster's
    /// pin although its channel has made room.
    #[doc(hidden)]
    pub fn debug_audit_cpu_refused(&mut self, forget_cpu_refused: bool) {
        self.audit = true;
        self.forget_cpu_refused = forget_cpu_refused;
    }

    /// CPU statistics per core.
    pub fn cpu_stats(&self) -> Vec<crate::cpu::CpuStats> {
        self.cpus.cores().iter().map(|c| c.stats()).collect()
    }

    /// Publishes the whole SoC's statistics into `reg`: the renderer under
    /// `gfx`, the memory system under `mem.dram`, the display under
    /// `soc.display` and each CPU core under `soc.cpuN`.
    pub fn publish(&self, reg: &mut emerald_obs::Registry) {
        self.renderer.publish(reg, "gfx");
        self.memsys.publish(reg, "mem.dram");
        self.display.stats().publish(reg, "soc.display");
        for cpu in self.cpus.cores() {
            cpu.stats().publish(reg, &format!("soc.cpu{}", cpu.id));
        }
        reg.set_counter("soc.frames_rendered", self.frames_rendered);
    }

    /// Hands each finished read to its requester. Returns whether the
    /// renderer, the display and the CPU cluster received one.
    fn route_responses(&mut self) -> (bool, bool, bool) {
        let mut got = (false, false, false);
        for &r in self.memsys.drain_finished(self.now) {
            match r.source {
                TrafficSource::Gpu => {
                    if r.kind == AccessKind::Read {
                        self.gpu_resp.push_back(r);
                        got.0 = true;
                    }
                }
                TrafficSource::Cpu(i) => {
                    if r.kind == AccessKind::Read {
                        self.cpus.on_response(i, self.now);
                        got.2 = true;
                    }
                }
                TrafficSource::Display => {
                    if r.kind == AccessKind::Read {
                        self.display.on_response(r.bytes);
                        got.1 = true;
                    }
                }
                TrafficSource::OtherIp(_) => {}
            }
        }
        got
    }

    /// DASH deadline feedback; `rendering_since` is the cycle the GPU
    /// started the frame it is still rendering, if any. Returns whether it
    /// fired (it then changed the memory system's scheduler state).
    fn dash_feedback(&mut self, rendering_since: Option<Cycle>) -> bool {
        if self.now < self.next_feedback {
            return false;
        }
        let SchedulerKind::Dash(dash_cfg) = &self.memsys.config().scheduler else {
            self.next_feedback = Cycle::MAX;
            return false;
        };
        // Feedback fires on multiples of DASH's scheduling unit.
        // Re-deriving the next one from the clock, rather than adding the
        // unit, makes a clock that arrives past it (fresh or restored SoC,
        // whose `next_feedback` is 0) land back on the grid.
        let fi = dash_cfg.scheduling_unit;
        self.next_feedback = (self.now / fi + 1) * fi;
        if !self.now.is_multiple_of(fi) {
            return false;
        }
        let dash = self
            .memsys
            .dash_mut()
            .expect("a DASH memory system owns DASH state");
        if let Some(gpu_start) = rendering_since {
            let done = if self.expected_frags == 0 {
                1.0
            } else {
                self.renderer.fragments_launched() as f64 / self.expected_frags as f64
            };
            let elapsed = (self.now - gpu_start) as f64 / self.cfg.gpu_frame_period as f64;
            dash.update_progress(TrafficSource::Gpu, done.min(1.0), elapsed.min(1.0));
        } else {
            dash.update_progress(TrafficSource::Gpu, 1.0, 1.0);
        }
        let (done, elapsed) = self.display.progress(self.now);
        dash.update_progress(TrafficSource::Display, done, elapsed);
        true
    }

    /// Runs one application frame: releases the CPU frame barrier, submits
    /// `draws` when the driver reaches its submit point, and returns when
    /// the GPU is done and every core reached the barrier again.
    ///
    /// # Panics
    ///
    /// Panics if the frame exceeds `max_cycles`.
    pub fn run_frame(&mut self, draws: Vec<DrawCall>, max_cycles: Cycle) -> SocFrameRecord {
        self.run_frame_checkpoint(draws, max_cycles, None).0
    }

    /// [`Soc::run_frame`], optionally capturing a checkpoint at the first
    /// commit boundary the frame loop visits at or after absolute cycle
    /// `checkpoint_at`. A commit boundary is a loop entry where the
    /// renderer is drained and no GPU responses are buffered — either
    /// before draw submission or after GPU completion; mid-render cycles
    /// hold non-serializable in-flight warp state and are skipped over.
    /// Returns `None` when the frame finishes before reaching such a
    /// boundary; the run itself is unaffected either way (the straight
    /// execution continues past the capture point).
    pub fn run_frame_checkpoint(
        &mut self,
        draws: Vec<DrawCall>,
        max_cycles: Cycle,
        checkpoint_at: Option<Cycle>,
    ) -> (SocFrameRecord, Option<Vec<u8>>) {
        // Per-frame clear, as the app would issue (functionally instant;
        // real hardware fast-clears via metadata, which we do not model).
        self.rt.clear(&self.mem, [0.05, 0.05, 0.08, 1.0], 1.0);
        self.cpus.begin_frame(self.now);
        self.renderer.begin_frame();
        let mut cur = FrameCursor::new(self.now);
        let mut draws = Some(draws);
        let snap = self.drive_frame(&mut cur, &mut draws, max_cycles, checkpoint_at);
        (self.finish_frame(&cur), snap)
    }

    /// Continues the frame a restored checkpoint captured mid-flight. If
    /// the checkpoint preceded draw submission, `draws` is submitted at
    /// the driver's `IssueDraw` exactly as in the original run (the draw
    /// must reference the same uploaded resources — re-uploading would
    /// shift the allocator); if the draws were already rendered, the
    /// argument is ignored.
    ///
    /// # Panics
    ///
    /// Panics if no mid-frame checkpoint is pending (see
    /// [`Soc::has_pending_frame`]) or if the frame exceeds `max_cycles`.
    pub fn resume_frame(&mut self, draws: Vec<DrawCall>, max_cycles: Cycle) -> SocFrameRecord {
        let (mut cur, submitted) = self
            .resume
            .take()
            .expect("no mid-frame checkpoint to resume");
        let mut draws = if submitted { None } else { Some(draws) };
        self.drive_frame(&mut cur, &mut draws, max_cycles, None);
        self.finish_frame(&cur)
    }

    /// True when this SoC was restored from a mid-frame checkpoint and
    /// expects [`Soc::resume_frame`] before any new [`Soc::run_frame`].
    pub fn has_pending_frame(&self) -> bool {
        self.resume.is_some()
    }

    /// One clock cycle of the whole SoC: the components due at `now`, in
    /// the fixed order the reference clocking defines — memory system,
    /// display, CPU cluster, renderer, DASH feedback. With `frame` absent
    /// the CPU cluster stays parked at the frame barrier
    /// ([`Soc::idle_until`]).
    ///
    /// A component is due when its cached pin is `<= now`, or when an
    /// input reached it: a routed response (renderer, display, CPU
    /// cluster), a submitted draw (renderer), or — while it holds a
    /// request the memory system refused — a memory-system tick, the only
    /// thing that can make room. Everything else skips the cycle: the
    /// memory system, the display and the CPU cluster have nothing to book
    /// (their gaps are dead; a core asleep books its own stalls and polls
    /// when it next runs), the renderer owes the cycle to
    /// [`Soc::settle_renderer`]. With the clock-jump gate off every
    /// component is due every cycle: the per-cycle reference.
    fn step(&mut self, mut frame: Option<Frame<'_>>) {
        prof::tick();
        self.now += 1;
        let now = self.now;
        let every = !self.cfg.gpu.event_skip;
        let mem_due = every || self.pins.mem <= now;
        let mut display_due = every || self.pins.display <= now;
        let mut renderer_due = every || self.pins.renderer <= now;
        let mut cpu_due = every || self.pins.cpu <= now;
        // Whether the memory system's pin can have moved this cycle.
        let mut mem_moved = mem_due;

        if mem_due {
            self.memsys.tick(now);
            let (to_renderer, to_display, to_cpu) = self.route_responses();
            renderer_due |= to_renderer || self.renderer.gpu.holds_refused();
            display_due |= to_display || self.display.holds_refused();
            cpu_due |= to_cpu || (!self.forget_cpu_refused && self.cpus.holds_refused(now));
        }

        if display_due {
            self.display.tick(now);
            mem_moved |= forward_requests(self.display.requests_mut(), &mut self.memsys, now);
            self.pins.display = pin(self.display.next_event(now));
        }

        if let Some((cur, draws)) = frame.as_mut().filter(|_| cpu_due) {
            let flip = self.cpu_flip(cur);
            let (ev, sent) = self.cpus.step(now, flip, &mut self.memsys);
            mem_moved |= sent && !self.forget_cpu_enqueues;
            if ev == CpuEvent::IssueDraw {
                if let Some(ds) = draws.take() {
                    for d in ds {
                        self.renderer.draw(d);
                    }
                    cur.gpu_start = now;
                    cur.gpu_active = true;
                    renderer_due = true;
                }
            }
        }

        // Between frames it is idle but must still consume straggler
        // responses from its last frame's writes.
        if renderer_due {
            self.settle_renderer();
            let mut port = SocPort {
                memsys: &mut self.memsys,
                resp: &mut self.gpu_resp,
                sent: false,
            };
            self.renderer.cycle(now, &mut port);
            mem_moved |= port.sent;
            self.pins.renderer = pin(self.renderer.next_event(now));
        } else {
            self.owed += 1;
        }
        debug_assert!(
            mem_due || self.pins.mem > now,
            "memory system skipped while due"
        );
        debug_assert!(
            display_due || self.pins.display > now,
            "display skipped while due"
        );
        debug_assert!(
            renderer_due || self.pins.renderer > now,
            "renderer skipped while due"
        );
        let mut flipped = false;
        let rendering_since = frame.as_mut().and_then(|(cur, _)| {
            if cur.gpu_active && !cur.gpu_done && self.renderer.is_idle() {
                cur.gpu_done = true;
                cur.gpu_cycles = now - cur.gpu_start;
                flipped = true;
            }
            (cur.gpu_active && !cur.gpu_done).then_some(cur.gpu_start)
        });
        mem_moved |= self.dash_feedback(rendering_since);
        if mem_moved {
            self.pins.mem = pin(self.memsys.next_event(now));
        }
        if let Some((cur, _)) = frame.filter(|_| cpu_due || mem_moved || flipped) {
            self.pins.cpu = self.cpus.wake(now, self.cpu_flip(cur), &self.memsys);
        }

        prof::record_soc_cycle();
    }

    /// The earliest cycle after `now` (at most `cap`) at which a non-CPU
    /// component can act without new input: the minimum of the cached
    /// pins and the next DASH feedback cycle. Every cycle before it
    /// changes nothing for any of them but the time-linear counters the
    /// renderer owes, per the [`NextEvent`] contract — in particular the
    /// renderer cannot finish and no response can arrive. A request the
    /// display, the GPU or a CPU core still holds because its channel's
    /// queue was full is the memory system's pin: only that channel
    /// issuing makes room.
    fn quiet_until(&self, now: Cycle, cap: Cycle) -> Cycle {
        debug_assert!(
            self.gpu_resp.is_empty(),
            "a routed response makes the renderer due"
        );
        let p = self.pins;
        next_wake(
            now,
            cap,
            [self.next_feedback, p.display, p.mem, p.renderer].map(Some),
        )
    }

    /// Jumps the clock so the next step executes cycle `wake`. Nothing
    /// moves in the cycles in between, so the renderer owes them (booked
    /// by [`Soc::settle_renderer`]) and the profiler gets the cycle count.
    fn jump_to(&mut self, wake: Cycle) {
        if wake > self.now + 1 {
            let delta = wake - 1 - self.now;
            self.now += delta;
            self.owed += delta;
            prof::record_soc_skip(delta);
        }
    }

    /// Books the cycles the renderer was not cycled in
    /// (`GpuRenderer::skip` → `Gpu::skip`), before anything can observe
    /// them — its next cycle, a checkpoint, the watchdog's state dump, and
    /// the end of every loop, after which `publish`, `frame_stats` and the
    /// public fields read it. Those last four also settle the GPU
    /// (`Gpu::settle`), which books its parked cores' time-linear counters
    /// lazily.
    fn settle_renderer(&mut self) {
        if self.owed > 0 {
            self.renderer.skip(std::mem::take(&mut self.owed));
        }
    }

    /// The fence flip the CPU cluster is told: [`flip_cycle`], or never
    /// under the wake canary ([`Soc::debug_audit_cpu_wakes`]).
    fn cpu_flip(&self, cur: &FrameCursor) -> Cycle {
        if self.forget_fence_flip {
            Cycle::MAX
        } else {
            flip_cycle(cur)
        }
    }

    /// The cached-pin oracle (see the `audit` field for when it runs):
    /// after every step each cached pin must be no later than a fresh
    /// `next_event` answer — a pin that is too late is the one way the due
    /// set or `quiet_until` could skip a component that has work. Inside a
    /// frame (`frame`) it audits the CPU cores' wakes too
    /// (`CpuCluster::audit`: skipping a core at `now` must have been a
    /// no-op), and the CPU pin against a fresh [`CpuCluster::wake`].
    fn audit_pins(&self, frame: Option<&FrameCursor>) {
        if !self.audit {
            return;
        }
        let now = self.now;
        for (what, cached, fresh) in [
            ("memory system", self.pins.mem, self.memsys.next_event(now)),
            ("display", self.pins.display, self.display.next_event(now)),
            (
                "renderer",
                self.pins.renderer,
                self.renderer.next_event(now),
            ),
        ] {
            assert!(
                cached <= pin(fresh),
                "cached {what} pin {cached} is later than its next_event {fresh:?} after cycle {now}"
            );
        }
        if let Some(cur) = frame {
            self.cpus.audit(now, flip_cycle(cur), &self.memsys);
            let fresh = self.cpus.wake(now, self.cpu_flip(cur), &self.memsys);
            assert!(
                self.pins.cpu <= fresh,
                "cached CPU pin {} is later than its wake {fresh} after cycle {now}",
                self.pins.cpu
            );
        }
    }

    /// The frame loop, shared by [`Soc::run_frame`],
    /// [`Soc::run_frame_checkpoint`] and [`Soc::resume_frame`]: one body,
    /// two gates. `GpuConfig::event_skip` only decides whether the clock
    /// may jump, to the earlier of [`Soc::quiet_until`] and the CPU
    /// cluster's pin (`pins.cpu`, its cached [`CpuCluster::wake`]);
    /// `SocConfig::cpu_batch` only decides whether
    /// each core sleeps on its own wake ([`CpuCluster`]). With both off
    /// this is the per-cycle reference clocking.
    fn drive_frame(
        &mut self,
        cur: &mut FrameCursor,
        draws: &mut Option<Vec<DrawCall>>,
        max_cycles: Cycle,
        checkpoint_at: Option<Cycle>,
    ) -> Option<Vec<u8>> {
        let skip = self.cfg.gpu.event_skip;
        // The watchdog cycle caps every window and jump, so a deadlocked
        // frame panics at the same simulated time under every gating.
        let cap = cur.frame_start + max_cycles;
        let mut snap = None;
        self.pins = Pins::default();
        self.cpus.set_cap(cap);

        loop {
            // Checkpoint capture sits at loop entry — the end-of-cycle
            // commit point of the previous iteration — so a restored SoC
            // re-enters the loop exactly where the straight run continued.
            if let Some(at) = checkpoint_at {
                if snap.is_none()
                    && self.now >= at
                    && self.gpu_resp.is_empty()
                    && self.renderer.is_idle()
                    && ((draws.is_some() && !cur.gpu_active) || (draws.is_none() && cur.gpu_done))
                {
                    self.cpus.settle(self.now);
                    self.settle_renderer();
                    self.renderer.gpu.settle();
                    let pending = self.resume.replace((cur.clone(), draws.is_none()));
                    snap = Some(self.encode_checkpoint());
                    self.resume = pending;
                }
            }
            self.step(Some((cur, draws)));
            self.audit_pins(Some(cur));
            let now = self.now;
            if cur.gpu_done && self.cpus.all_done(now) {
                break;
            }
            if now >= cap {
                self.settle_renderer();
                self.renderer.gpu.settle();
                panic!(
                    "SoC frame exceeded {max_cycles} cycles (gpu_active={} gpu_done={} \
                     cpus_done={:?}) renderer: {} gpu: {}",
                    cur.gpu_active,
                    cur.gpu_done,
                    self.cpus
                        .cores()
                        .iter()
                        .map(|c| c.at_frame_end())
                        .collect::<Vec<_>>(),
                    self.renderer.debug_snapshot(),
                    self.renderer.gpu.debug_snapshot(),
                );
            }
            if skip {
                self.jump_to(self.quiet_until(now, cap).min(self.pins.cpu));
            }
        }
        self.cpus.settle(self.now);
        self.settle_renderer();
        self.renderer.gpu.settle();
        snap
    }

    /// Frame epilogue shared by the straight and resumed paths: books the
    /// renderer's frame stats, bumps the frame counter and emits the trace
    /// span covering the simulated frame interval.
    fn finish_frame(&mut self, cur: &FrameCursor) -> SocFrameRecord {
        let gfx = self.renderer.frame_stats(cur.gpu_cycles);
        self.expected_frags = gfx.fragments.max(1);
        self.frames_rendered += 1;
        emerald_obs::trace::span_args(
            emerald_obs::TraceCat::Frame,
            "soc_frame",
            0,
            cur.frame_start,
            self.now,
            &[
                ("frame", self.frames_rendered),
                ("gpu_cycles", cur.gpu_cycles),
            ],
        );
        SocFrameRecord {
            gpu_cycles: cur.gpu_cycles,
            total_cycles: self.now - cur.frame_start,
            gfx,
        }
    }

    /// Hash of the `SocConfig` a snapshot was taken under, stamped into
    /// the container so a restore against a different topology fails with
    /// [`SnapError::ConfigHashMismatch`] instead of corrupt state. The
    /// fields that pick a schedule rather than a model — the two clocking
    /// gates and the GPU's two inert thread fields — are hashed at their
    /// preset values, so a checkpoint restores across clocking cells.
    fn cfg_hash(cfg: &SocConfig) -> u64 {
        let mut model = cfg.clone();
        model.cpu_batch = true;
        model.gpu.event_skip = true;
        model.gpu.threads = 1;
        model.gpu.parallel_threshold = emerald_gpu::config::DEFAULT_PARALLEL_THRESHOLD;
        emerald_common::snap::config_hash(&format!("{model:?}"))
    }

    /// Walks the full SoC — the body of a checkpoint container: each
    /// component in its own section or record, the clock and frame
    /// counters, buffered GPU responses, the render target layout
    /// (configuration, so checked) and the frame a restore resumes, if
    /// any. A SoC restored from a checkpoint walks that checkpoint's body
    /// bytes again.
    pub fn walk(&mut self, w: &mut impl Walk) -> Result<(), SnapError> {
        w.section(1, |w| self.mem.walk(w))?;
        w.section(2, |w| self.memsys.walk(w))?;
        w.section(3, |w| self.renderer.walk(w))?;
        w.section(4, |w| self.display.walk(w))?;
        self.cpus.walk(w)?;
        w.u64(&mut self.now)?;
        w.u64(&mut self.expected_frags)?;
        w.u64(&mut self.frames_rendered)?;
        w.seq(&mut self.gpu_resp, 41, |w, resp| resp.walk(w))?;
        const LAYOUT: &str = "render target layout mismatch";
        w.expect(self.rt.width, LAYOUT)?;
        w.expect(self.rt.height, LAYOUT)?;
        w.expect(self.rt.color_base, LAYOUT)?;
        w.expect(self.rt.depth_base, LAYOUT)?;
        w.opt(&mut self.resume, |w, (cur, submitted)| {
            w.bool(submitted)?;
            cur.walk(w)
        })
    }

    /// Encodes the SoC into a snapshot container; a mid-frame capture
    /// has set `resume` to the frame's cursor first.
    fn encode_checkpoint(&mut self) -> Vec<u8> {
        let hash = Self::cfg_hash(&self.cfg);
        emerald_common::snap::write_container(hash, |w| self.walk(w))
    }

    /// Captures the SoC between frames as a restorable snapshot. The
    /// renderer must be drained (always true between [`Soc::run_frame`]
    /// calls); use [`Soc::run_frame_checkpoint`] to capture mid-frame.
    ///
    /// # Panics
    ///
    /// Panics if called while GPU work or GPU responses are in flight.
    pub fn checkpoint(&mut self) -> Vec<u8> {
        assert!(
            self.renderer.is_idle() && self.gpu_resp.is_empty(),
            "Soc::checkpoint requires a drained renderer (between frames)"
        );
        self.encode_checkpoint()
    }

    /// Rebuilds a SoC from a snapshot taken by [`Soc::checkpoint`] or
    /// [`Soc::run_frame_checkpoint`]. `cfg` must describe the same
    /// topology the snapshot was captured under (enforced via a config
    /// hash stamped into the container).
    pub fn restore(bytes: &[u8], cfg: &SocConfig) -> Result<Soc, SnapError> {
        let r = emerald_common::snap::open_container(bytes, Self::cfg_hash(cfg))?;
        Self::restore_body(r, cfg)
    }

    /// Rebuilds a SoC from a validated
    /// [`SharedSnapshot`](emerald_common::snap::SharedSnapshot) without
    /// copying or re-checksumming the container. This is the fork path of the
    /// sweep engine: N sessions diverge from one warmed snapshot, each
    /// borrowing the shared bytes for the duration of its own decode.
    pub fn restore_shared(
        snap: &emerald_common::snap::SharedSnapshot,
        cfg: &SocConfig,
    ) -> Result<Soc, SnapError> {
        let r = snap.reader(Self::cfg_hash(cfg))?;
        Self::restore_body(r, cfg)
    }

    /// Decodes container body sections into a freshly built SoC. Shared by
    /// the owned ([`Soc::restore`]) and Arc-shared ([`Soc::restore_shared`])
    /// entry points so the two paths cannot drift.
    fn restore_body(
        mut r: emerald_common::snap::SnapReader<'_>,
        cfg: &SocConfig,
    ) -> Result<Soc, SnapError> {
        let mut soc = Soc::new(cfg.clone());
        soc.walk(&mut r)?;
        r.finish()?;
        Ok(soc)
    }

    /// Advances the SoC clock to `target` with the CPU cluster parked at
    /// the frame barrier: the display keeps scanning out, the memory
    /// system keeps draining in-flight traffic and DASH feedback stays on
    /// its boundary grid. This models the vsync gap of a paced app (30 FPS
    /// submission against a faster render) between [`Soc::run_frame`]
    /// calls; with `GpuConfig::event_skip` on the gap collapses to its
    /// handful of display-DMA and period-boundary events. It is the frame
    /// loop minus the CPU cluster, ending at `target` regardless of
    /// events. No-op if `target <= now`.
    pub fn idle_until(&mut self, target: Cycle) {
        let skip = self.cfg.gpu.event_skip;
        self.pins = Pins::default();
        while self.now < target {
            self.step(None);
            self.audit_pins(None);
            if skip {
                self.jump_to(self.quiet_until(self.now, target));
            }
        }
        self.settle_renderer();
        self.renderer.gpu.settle();
    }
}

// The sweep engine (`emerald-serve`) moves whole sessions — each owning a
// `Soc` — across scheduler worker threads, so `Soc` must stay `Send`.
// This fails to compile if a non-`Send` handle (e.g. an `Rc`) creeps back
// into any component.
#[allow(dead_code)]
fn assert_soc_is_send() {
    fn assert_send<T: Send>() {}
    assert_send::<Soc>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use emerald_common::math::{Mat4, Vec3};
    use emerald_core::shaders::{self, FsOptions};
    use emerald_core::state::{Topology, VertexBuffer};
    use emerald_mem::dram::DramConfig;
    use emerald_scene::mesh::unit_cube;

    fn small_soc(memsys: MemorySystemConfig) -> Soc {
        let mut cfg = SocConfig::case_study_1(memsys, 64, 48, 400_000);
        // Shrink CPU scripts so tests run fast.
        cfg.cpu_workloads = vec![CpuWorkload::driver(), CpuWorkload::compute()];
        Soc::new(cfg)
    }

    fn cube_draw(soc: &Soc, frame: u32) -> DrawCall {
        let a = 0.4 + frame as f32 * 0.08;
        let mvp =
            Mat4::perspective(60f32.to_radians(), 64.0 / 48.0, 0.1, 50.0).mul_mat4(&Mat4::look_at(
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

    #[test]
    fn soc_renders_frames_end_to_end() {
        let mut soc = small_soc(MemorySystemConfig::baseline(2, DramConfig::lpddr3_1333()));
        for f in 0..2 {
            let d = cube_draw(&soc, f);
            let rec = soc.run_frame(vec![d], 30_000_000);
            assert!(rec.gpu_cycles > 0, "frame {f}");
            assert!(rec.total_cycles >= rec.gpu_cycles);
            assert!(rec.gfx.fragments > 100);
        }
        // All agents produced memory traffic.
        let stats = soc.memsys.stats();
        assert!(stats.source_bytes.contains_key(&TrafficSource::Gpu));
        assert!(stats.source_bytes.contains_key(&TrafficSource::Cpu(0)));
        assert!(stats.source_bytes.contains_key(&TrafficSource::Display));
        // The framebuffer contains the cube.
        let lit = soc
            .rt
            .read_color(&soc.mem)
            .iter()
            .filter(|&&p| p != emerald_common::math::pack_rgba8(0.05, 0.05, 0.08, 1.0))
            .count();
        assert!(lit > 100, "only {lit} pixels differ from clear color");
    }

    #[test]
    #[should_panic(expected = "SoC frame exceeded 2000 cycles (gpu_active=false")]
    fn watchdog_panic_reports_frame_and_renderer_state() {
        let mut soc = small_soc(MemorySystemConfig::baseline(2, DramConfig::lpddr3_1333()));
        let d = cube_draw(&soc, 0);
        soc.run_frame(vec![d], 2_000);
    }

    /// Everything externally observable about a SoC at a frame barrier:
    /// clock, framebuffer contents and the published stats registry.
    fn state_digest(soc: &Soc) -> (Cycle, Vec<u32>, String) {
        let mut reg = emerald_obs::Registry::new();
        soc.publish(&mut reg);
        (soc.now(), soc.rt.read_color(&soc.mem), reg.to_json())
    }

    #[test]
    fn checkpoint_between_frames_resumes_in_lockstep() {
        let mut a = small_soc(MemorySystemConfig::baseline(2, DramConfig::lpddr3_1333()));
        let d = cube_draw(&a, 0);
        a.run_frame(vec![d], 30_000_000);

        let bytes = a.checkpoint();
        let mut b = Soc::restore(&bytes, a.config()).expect("restore");
        assert!(!b.has_pending_frame());
        assert_eq!(state_digest(&a), state_digest(&b));

        for f in 1..3 {
            let da = cube_draw(&a, f);
            let db = cube_draw(&b, f);
            // The snapshot carries the allocator cursor, so post-restore
            // uploads land at the original addresses.
            assert_eq!(da.vb.base, db.vb.base, "frame {f} upload diverged");
            let ra = a.run_frame(vec![da], 30_000_000);
            let rb = b.run_frame(vec![db], 30_000_000);
            assert_eq!(ra.gpu_cycles, rb.gpu_cycles, "frame {f}");
            assert_eq!(ra.total_cycles, rb.total_cycles, "frame {f}");
            assert_eq!(ra.gfx, rb.gfx, "frame {f}");
            assert_eq!(state_digest(&a), state_digest(&b), "frame {f}");
        }
    }

    #[test]
    fn mid_frame_checkpoint_resumes_in_lockstep() {
        let mut a = small_soc(MemorySystemConfig::baseline(2, DramConfig::lpddr3_1333()));
        let d = cube_draw(&a, 0);
        a.run_frame(vec![d], 30_000_000);

        // Capture at the first commit boundary a few hundred cycles into
        // frame 1; the straight run continues past the capture point.
        let d1 = cube_draw(&a, 1);
        let at = a.now() + 500;
        let (ra, snap) = a.run_frame_checkpoint(vec![d1.clone()], 30_000_000, Some(at));
        let bytes = snap.expect("frame 1 never reached a commit boundary");

        let mut b = Soc::restore(&bytes, a.config()).expect("restore");
        assert!(b.has_pending_frame());
        // `d1`'s upload is part of the restored memory image, so the
        // original draw call is valid in `b` as-is.
        let rb = b.resume_frame(vec![d1], 30_000_000);
        assert_eq!(ra.gpu_cycles, rb.gpu_cycles);
        assert_eq!(ra.total_cycles, rb.total_cycles);
        assert_eq!(ra.gfx, rb.gfx);
        assert_eq!(state_digest(&a), state_digest(&b));

        // And the next frame still runs in lockstep.
        let da = cube_draw(&a, 2);
        let db = cube_draw(&b, 2);
        assert_eq!(da.vb.base, db.vb.base);
        let ra = a.run_frame(vec![da], 30_000_000);
        let rb = b.run_frame(vec![db], 30_000_000);
        assert_eq!(ra.total_cycles, rb.total_cycles);
        assert_eq!(state_digest(&a), state_digest(&b));
    }

    #[test]
    fn restore_rejects_foreign_config_and_corruption() {
        let mut a = small_soc(MemorySystemConfig::baseline(2, DramConfig::lpddr3_1333()));
        let d = cube_draw(&a, 0);
        a.run_frame(vec![d], 30_000_000);
        let bytes = a.checkpoint();

        // A topologically different config must be refused outright.
        let mut other = a.config().clone();
        other.cpu_workloads = vec![CpuWorkload::driver()];
        assert!(matches!(
            Soc::restore(&bytes, &other),
            Err(emerald_common::snap::SnapError::ConfigHashMismatch { .. })
        ));

        // A flipped payload byte must fail the container checksum, never
        // produce a silently wrong SoC.
        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x40;
        assert!(Soc::restore(&bad, a.config()).is_err());

        // Truncation must be detected.
        assert!(Soc::restore(&bytes[..bytes.len() - 5], a.config()).is_err());
    }

    #[test]
    fn hmc_slows_gpu_vs_baseline() {
        // The headline effect of case study I (Fig. 9): partitioning the
        // GPU onto one channel roughly doubles its render time.
        let mut bas = small_soc(MemorySystemConfig::baseline(2, DramConfig::lpddr3_1333()));
        let mut hmc = small_soc(MemorySystemConfig::hmc(2, DramConfig::lpddr3_1333()));
        let d1 = cube_draw(&bas, 0);
        let d2 = cube_draw(&hmc, 0);
        let r_bas = bas.run_frame(vec![d1], 30_000_000);
        let r_hmc = hmc.run_frame(vec![d2], 30_000_000);
        assert!(
            r_hmc.gpu_cycles > r_bas.gpu_cycles,
            "hmc {} vs bas {}",
            r_hmc.gpu_cycles,
            r_bas.gpu_cycles
        );
    }
}

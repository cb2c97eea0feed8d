//! The five workloads. Each is fixed work, not fixed time: one repetition
//! ([`run_rep`]) builds everything from the seed's generated inputs, warms
//! up, then times the measured ops one after another (batch, closed loop,
//! one client). Every library call sits inside a [`Recorder`] span, which
//! is a plain call unless the run is traced.

use crate::counts::Counts;
use crate::host;
use crate::span::Recorder;
use emerald::common::rng::Xorshift64;
use emerald::core::session::SceneBinding;
use emerald::gpu::{GlobalMemCtx, Gpu};
use emerald::isa::Program;
use emerald::prelude::*;
use emerald::scene::workloads::WorkloadDef;
use emerald::serve::sweep::JobSpec;
use emerald::soc::cpu::{CpuWorkload, Phase};
use emerald::soc::trace::MemTrace;
use std::hash::Hasher;
use std::sync::Arc;
use std::time::Instant;

/// Host threads inside one simulation (`GpuConfig::threads`).
pub const THREADS: usize = 1;
/// Event-driven clocking (`GpuConfig::event_skip`).
pub const EVENT_SKIP: bool = true;
/// Batched CPU work phases (`SocConfig::cpu_batch`).
pub const CPU_BATCH: bool = true;
/// `GpuConfig::parallel_threshold`; moot at one thread, pinned anyway.
pub const PAR_THRESHOLD: usize = emerald::gpu::config::DEFAULT_PARALLEL_THRESHOLD;
/// Scheduler workers of `sweep_fork`: the reference host has two cores.
pub const SWEEP_WORKERS: usize = 2;

/// Per-op simulation budget; overrunning it panics in the library and
/// fails the op.
const MAX_CYCLES: u64 = 500_000_000;
const VSYNC: u64 = 1_000_000;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    /// Case-study-I SoC with every IP busy every cycle.
    SocDense,
    /// The same SoC, mostly idle: vsync-paced, then fence-parked CPUs.
    SocPaced,
    /// Three compute kernels on the bare GPU.
    GpgpuMix,
    /// Three case-study-II frames on the standalone renderer.
    RenderCs2,
    /// A 32-session forked sweep on two scheduler workers.
    SweepFork,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 5] = [
        Workload::SocDense,
        Workload::SocPaced,
        Workload::GpgpuMix,
        Workload::RenderCs2,
        Workload::SweepFork,
    ];

    /// The name used on the command line and in every report.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SocDense => "soc_dense",
            Workload::SocPaced => "soc_paced",
            Workload::GpgpuMix => "gpgpu_mix",
            Workload::RenderCs2 => "render_cs2",
            Workload::SweepFork => "sweep_fork",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one op is.
    pub fn op_unit(self) -> &'static str {
        match self {
            Workload::SocDense | Workload::SocPaced | Workload::RenderCs2 => "frame",
            Workload::GpgpuMix => "kernel",
            Workload::SweepFork => "session",
        }
    }

    /// Ops one repetition attempts.
    pub fn ops_per_rep(self) -> usize {
        match self {
            Workload::SocDense => DENSE_FRAMES as usize,
            Workload::SocPaced => 2 * PACED_FRAMES as usize,
            Workload::GpgpuMix | Workload::RenderCs2 => 3,
            Workload::SweepFork => 32,
        }
    }
}

const DENSE_FRAMES: u32 = 8;
const PACED_FRAMES: u32 = 60;
/// Elements each measured kernel covers.
const KERNEL_N: usize = 1 << 16;
/// Elements the warm-up `saxpy` launches (and the kernel probes) cover.
pub const WARM_N: usize = 1 << 12;

/// Everything the seed decides. The simulator only ever sees these.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// Camera frame the scene workloads start their orbit from.
    pub start_frame: u32,
    /// `saxpy` scale factor.
    pub a: f32,
    /// `saxpy` x vector.
    pub x: Vec<f32>,
    /// `saxpy` y vector.
    pub y: Vec<f32>,
    /// Clamp-scale input, about half negative.
    pub clamp: Vec<f32>,
    /// Reduction input, small integers.
    pub reduce: Vec<u32>,
    /// First value of the sweep's `seed` axis: a multiple of 4, so the
    /// four values always cover both late-Z bits of the two frames and
    /// every seed sweeps the same amount of work.
    pub sweep_seed: u64,
}

/// Generates the inputs for `seed`. Same seed, same inputs.
pub fn generate(seed: u64) -> Inputs {
    let mut rng = Xorshift64::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x00e3_e7a1_d5ee_d001);
    // A few draws to decorrelate neighbouring seeds.
    rng.discard(8);
    let start_frame = rng.below(24) as u32;
    let a = 0.5 + rng.next_f32() * 3.0;
    let mut unit = |scale: f32, bias: f32| -> Vec<f32> {
        (0..KERNEL_N)
            .map(|_| rng.next_f32() * scale + bias)
            .collect()
    };
    let x = unit(64.0, -32.0);
    let y = unit(8.0, -4.0);
    let clamp = unit(256.0, -128.0);
    let reduce = (0..KERNEL_N).map(|_| 1 + rng.below(7) as u32).collect();
    Inputs {
        start_frame,
        a,
        x,
        y,
        clamp,
        reduce,
        sweep_seed: 4 * rng.below(16),
    }
}

/// One measured op.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// Op name, unique within a repetition.
    pub name: String,
    /// Simulated cycles the op advanced.
    pub cycles: u64,
    /// FxHash-64 of the op's output (framebuffer, result buffer).
    pub digest: u64,
    /// Whether the output passed its numeric / structural check.
    pub verified: bool,
}

/// Inputs the layer probes reuse from the run that just finished. Empty
/// fields fall back to the probe's built-in input.
#[derive(Default)]
pub struct Captured {
    /// Kernel / shader programs the ops executed.
    pub programs: Vec<Arc<Program>>,
    /// DRAM-side request trace of the measured phase, and the memory
    /// system it was recorded on.
    pub mem_trace: Option<(MemTrace, MemorySystemConfig)>,
    /// The workload's SoC, its scene and the next camera frame.
    pub soc: Option<(Soc, SceneBinding, u32)>,
    /// The scene a standalone re-render should draw.
    pub render: Option<RenderScene>,
    /// First `seed` axis value of the sweep family that ran.
    pub sweep: Option<u64>,
}

/// One frame for the standalone renderer.
#[derive(Clone)]
pub struct RenderScene {
    /// GPU preset.
    pub gpu: GpuConfig,
    /// Graphics preset.
    pub gfx: GfxConfig,
    /// Scene.
    pub model: WorkloadDef,
    /// Render-target width.
    pub width: u32,
    /// Render-target height.
    pub height: u32,
    /// Camera frame.
    pub frame: u32,
}

/// Result of one repetition.
pub struct Rep {
    /// Repetition start → first measured op, seconds.
    pub setup_s: f64,
    /// Summed wall time of the measured ops, seconds.
    pub wall_s: f64,
    /// Simulated cycles advanced by the measured ops.
    pub cycles: u64,
    /// The measured ops, in order.
    pub ops: Vec<Op>,
    /// Wall seconds of each timed library call, in order.
    pub op_wall_s: Vec<f64>,
    /// Host-speed factor ([`host::speed_factor`]) around each timed call:
    /// the mean of the readings just before and just after it.
    pub op_speed: Vec<f64>,
    /// Host-speed factor over the set-up: the mean of the readings at its
    /// start and its end.
    pub setup_speed: f64,
    /// Exact simulated counts of the measured phase.
    pub counts: Counts,
    /// Inputs for the probes.
    pub captured: Captured,
}

/// Pins the host-execution knobs the presets would read from the
/// environment.
pub fn pin_gpu(mut cfg: GpuConfig) -> GpuConfig {
    cfg.threads = THREADS;
    cfg.event_skip = EVENT_SKIP;
    cfg.parallel_threshold = PAR_THRESHOLD;
    cfg
}

/// [`pin_gpu`] for a whole SoC.
pub fn pin_soc(mut cfg: SocConfig) -> SocConfig {
    cfg.gpu = pin_gpu(cfg.gpu);
    cfg.cpu_batch = CPU_BATCH;
    cfg
}

/// FxHash-64 over 32-bit words.
pub fn digest_words(words: impl IntoIterator<Item = u32>) -> u64 {
    let mut h = emerald::common::hash::FxHasher::default();
    for w in words {
        h.write_u32(w);
    }
    h.finish()
}

fn fb_digest(rt: &RenderTarget, mem: &SharedMem) -> u64 {
    digest_words(rt.read_color(mem))
}

/// Times the measured ops: wall is the sum over ops of the library calls
/// alone, so digests and bookkeeping between ops stay outside it.
struct Meter {
    wall_s: f64,
    cycles: u64,
    ops: Vec<Op>,
    op_wall_s: Vec<f64>,
    /// Host-speed readings: one when the set-up ends, one after every
    /// timed call. Consecutive calls share the reading between them.
    speed: Vec<f64>,
}

impl Meter {
    /// Starts metering where the set-up ends.
    fn new() -> Self {
        Self {
            wall_s: 0.0,
            cycles: 0,
            ops: Vec::new(),
            op_wall_s: Vec::new(),
            speed: vec![host::speed_factor()],
        }
    }

    /// Times `f`, which returns the simulated cycles it advanced.
    fn time(&mut self, rec: &mut Recorder, f: impl FnOnce(&mut Recorder) -> u64) -> u64 {
        rec.set_op(self.ops.len() as u32 + 1);
        let t0 = Instant::now();
        let cycles = rec.span_cycles("op", |rec| {
            let c = f(rec);
            (c, c)
        });
        let wall = t0.elapsed().as_secs_f64();
        self.speed.push(host::speed_factor());
        self.wall_s += wall;
        self.cycles += cycles;
        self.op_wall_s.push(wall);
        cycles
    }

    fn push(&mut self, name: String, cycles: u64, digest: u64, verified: bool) {
        self.ops.push(Op {
            name,
            cycles,
            digest,
            verified,
        });
    }

    fn into_rep(self, setup_s: f64, counts: Counts, captured: Captured) -> Rep {
        Rep {
            setup_s,
            wall_s: self.wall_s,
            cycles: self.cycles,
            ops: self.ops,
            op_wall_s: self.op_wall_s,
            op_speed: self.speed.windows(2).map(|w| (w[0] + w[1]) / 2.0).collect(),
            // The reading at the set-up's end; `run_rep` holds the one at
            // its start.
            setup_speed: self.speed[0],
            counts,
            captured,
        }
    }
}

/// Runs one repetition of `workload` on `inputs`.
pub fn run_rep(workload: Workload, inputs: &Inputs, rec: &mut Recorder) -> Rep {
    rec.set_op(0);
    let speed_at_start = host::speed_factor();
    let mut rep = match workload {
        Workload::SocDense => soc_dense(inputs, rec),
        Workload::SocPaced => soc_paced(inputs, rec),
        Workload::GpgpuMix => gpgpu_mix(inputs, rec),
        Workload::RenderCs2 => render_cs2(inputs, rec),
        Workload::SweepFork => sweep_fork(inputs, rec),
    };
    rep.setup_speed = (speed_at_start + rep.setup_speed) / 2.0;
    rep
}

fn dcb_1333() -> MemorySystemConfig {
    MemCfgKind::Dcb.build(DramConfig::lpddr3_1333())
}

/// A SoC with a bound scene, warmed up by one frame, plus the registry
/// baseline the measured phase is counted against.
struct SocRun {
    soc: Soc,
    binding: SceneBinding,
    base: emerald::obs::Snapshot,
}

impl SocRun {
    /// Builds the SoC, binds `model`, runs the warm-up frame and — for a
    /// traced run — starts recording the memory trace.
    fn new(cfg: SocConfig, model: &WorkloadDef, warm_frame: u32, rec: &mut Recorder) -> Self {
        let soc = rec.span("soc.new", |_| Soc::new(cfg));
        let binding = rec.span("core.bind", |_| SceneBinding::new(&soc.mem, model));
        let mut run = Self {
            soc,
            binding,
            base: Registry::new().snapshot(),
        };
        run.frame(warm_frame, rec);
        run.base = run.registry().snapshot();
        if rec.enabled() {
            run.soc.memsys.enable_trace();
        }
        run
    }

    fn registry(&self) -> Registry {
        let mut reg = Registry::new();
        self.soc.publish(&mut reg);
        reg
    }

    /// One `Soc::run_frame`; returns the frame's total cycles and its
    /// culled-primitive count.
    fn frame(&mut self, frame: u32, rec: &mut Recorder) -> (u64, u64) {
        let aspect = self.soc.rt.width as f32 / self.soc.rt.height as f32;
        let draw = self.binding.draw_for_frame(frame, aspect, false);
        rec.span_cycles("soc.run_frame", |_| {
            let r = self.soc.run_frame(vec![draw], MAX_CYCLES);
            ((r.total_cycles, r.gfx.prims_culled), r.total_cycles)
        })
    }

    /// Records the op that just ran: its digest, and its GPU-side
    /// counters (the library resets those at every frame start).
    fn push_op(&self, m: &mut Meter, counts: &mut Counts, name: String, cycles: u64, culled: u64) {
        m.push(name, cycles, fb_digest(&self.soc.rt, &self.soc.mem), true);
        let mut gfx = Registry::new();
        self.soc.renderer.publish(&mut gfx, "gfx");
        counts.add_registry(&gfx, |_| true);
        counts.add("bench.prims_culled", culled as f64);
    }

    /// Adds the counters that accumulate across frames (memory system,
    /// CPUs, display) since the warm-up.
    fn count_since_warmup(&self, counts: &mut Counts) {
        counts.add_registry(&self.registry().delta_since(&self.base), |p| {
            !p.starts_with("gfx.")
        });
    }

    /// Hands the SoC to the probes; `next` is the first unused camera
    /// frame.
    fn capture(mut self, first_measured: u32, next: u32) -> Captured {
        let draw = self.binding.draw_for_frame(next, 1.0, false);
        let cfg = self.soc.config().clone();
        Captured {
            programs: vec![Arc::clone(&draw.vs), Arc::clone(&draw.fs)],
            mem_trace: Some((self.soc.memsys.take_trace(), cfg.memsys)),
            render: Some(RenderScene {
                gpu: cfg.gpu,
                gfx: cfg.gfx,
                model: self.binding.workload().clone(),
                width: cfg.width,
                height: cfg.height,
                frame: first_measured,
            }),
            soc: Some((self.soc, self.binding, next)),
            ..Captured::default()
        }
    }
}

fn soc_dense(inputs: &Inputs, rec: &mut Recorder) -> Rep {
    let t0 = Instant::now();
    let (w, h) = (128, 96);
    let model = rec.span("scene.build", |_| workloads::m_models().swap_remove(0));
    let period = rec.span("soc.calibrate", |_| {
        emerald::soc::experiment::calibrate_period(&model, w, h)
    });
    let cfg = pin_soc(SocConfig::case_study_1(dcb_1333(), w, h, period));
    let first = inputs.start_frame + 1;
    let mut run = SocRun::new(cfg, &model, inputs.start_frame, rec);
    let setup_s = t0.elapsed().as_secs_f64();

    let mut m = Meter::new();
    let mut counts = Counts::default();
    for i in 0..DENSE_FRAMES {
        let mut culled = 0;
        let cycles = m.time(rec, |rec| {
            let (cycles, c) = run.frame(first + i, rec);
            culled = c;
            cycles
        });
        run.push_op(&mut m, &mut counts, format!("frame{i}"), cycles, culled);
    }
    run.count_since_warmup(&mut counts);
    m.into_rep(setup_s, counts, run.capture(first, first + DENSE_FRAMES))
}

fn soc_paced(inputs: &Inputs, rec: &mut Recorder) -> Rep {
    let t0 = Instant::now();
    let model = rec.span("scene.build", |_| workloads::idle_model());
    let paced_cfg = pin_soc(SocConfig::case_study_1(dcb_1333(), 64, 48, 200_000));
    let parked = || CpuWorkload {
        phases: vec![Phase::WaitGpu],
    };
    let parked_cfg = SocConfig {
        cpu_workloads: vec![CpuWorkload::driver(), parked(), parked(), parked()],
        ..paced_cfg.clone()
    };
    let first = inputs.start_frame + 1;
    let mut paced = SocRun::new(paced_cfg, &model, inputs.start_frame, rec);
    let mut fenced = SocRun::new(parked_cfg, &model, inputs.start_frame, rec);
    let setup_s = t0.elapsed().as_secs_f64();

    let mut m = Meter::new();
    let mut counts = Counts::default();
    // Phase 1: every frame finishes far ahead of the next vsync boundary
    // and the SoC idles until it; the idle gap belongs to the frame's op.
    for i in 0..PACED_FRAMES {
        let mut culled = 0;
        let cycles = m.time(rec, |rec| {
            let start = paced.soc.now();
            culled = paced.frame(first + i, rec).1;
            let target = (paced.soc.now() / VSYNC + 1) * VSYNC;
            rec.span_cycles("soc.idle_until", |_| {
                let from = paced.soc.now();
                paced.soc.idle_until(target);
                ((), paced.soc.now() - from)
            });
            paced.soc.now() - start
        });
        paced.push_op(&mut m, &mut counts, format!("paced{i}"), cycles, culled);
    }
    // Phase 2: three of the four CPUs sit in a fence wait all frame long.
    for i in 0..PACED_FRAMES {
        let mut culled = 0;
        let cycles = m.time(rec, |rec| {
            let (cycles, c) = fenced.frame(first + i, rec);
            culled = c;
            cycles
        });
        fenced.push_op(&mut m, &mut counts, format!("parked{i}"), cycles, culled);
    }
    paced.count_since_warmup(&mut counts);
    fenced.count_since_warmup(&mut counts);
    m.into_rep(setup_s, counts, paced.capture(first, first + PACED_FRAMES))
}

/// `y[i] = a * x[i] + y[i]`: streaming, no divergence.
const SAXPY_SRC: &str = "
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

/// `v[i] = max(v[i], 0) * 2` through a divergent branch.
const CLAMP_SRC: &str = "
    mov.b32 r0, %input0
    shl.u32 r1, r0, 2
    add.u32 r1, r1, %param0
    ld.global.b32 r2, [r1+0]
    setp.lt.f32 p0, r2, 0.0
    @p0 bra NEG, reconv=JOIN
    mul.f32 r3, r2, 2.0
    bra JOIN, reconv=JOIN
    NEG:
    mov.b32 r3, 0.0
    JOIN:
    st.global.b32 [r1+0], r3
    exit";

/// Each 64-thread CTA sums its elements through shared memory and a
/// `bar.sync` tree into `out[cta]`.
const REDUCE_SRC: &str = "
    mov.b32 r0, %input2
    mov.b32 r1, %input0
    shl.u32 r2, r1, 2
    add.u32 r2, r2, %param0
    ld.global.b32 r3, [r2+0]
    shl.u32 r4, r0, 2
    add.u32 r4, r4, %input3
    st.shared.b32 [r4+0], r3
    bar.sync
    mov.b32 r5, 32
    LOOP:
    setp.lt.u32 p0, r0, r5
    @p0 add.u32 r6, r0, r5
    @p0 shl.u32 r6, r6, 2
    @p0 add.u32 r6, r6, %input3
    @p0 ld.shared.b32 r7, [r6+0]
    @p0 ld.shared.b32 r8, [r4+0]
    @p0 add.u32 r8, r8, r7
    @p0 st.shared.b32 [r4+0], r8
    bar.sync
    shr.u32 r5, r5, 1
    setp.ge.u32 p1, r5, 1
    @p1 bra LOOP, reconv=DONE
    DONE:
    setp.eq.u32 p2, r0, 0
    @p2 mov.b32 r9, %input1
    @p2 shl.u32 r9, r9, 2
    @p2 add.u32 r9, r9, %param1
    @p2 ld.shared.b32 r10, [r4+0]
    @p2 st.global.b32 [r9+0], r10
    exit";

/// Every assembly source the benchmark assembles.
pub const KERNEL_SOURCES: [&str; 3] = [SAXPY_SRC, CLAMP_SRC, REDUCE_SRC];

const CTA: usize = 64;

/// The three kernels of `gpgpu_mix`, uploaded into one memory image.
pub struct Kernels {
    mem: SharedMem,
    programs: [Arc<Program>; 3],
    x: u64,
    y: u64,
    clamp: u64,
    reduce_in: u64,
    reduce_out: u64,
}

impl Kernels {
    /// Assembles the programs and uploads `inputs`.
    pub fn new(mem: &SharedMem, inputs: &Inputs, rec: &mut Recorder) -> Self {
        let programs = rec.span("isa.assemble", |_| {
            KERNEL_SOURCES.map(|src| Arc::new(assemble(src).expect("benchmark kernels assemble")))
        });
        let words = |n: usize| mem.alloc((n * 4) as u64, 128);
        let k = Self {
            mem: mem.clone(),
            programs,
            x: words(KERNEL_N),
            y: words(KERNEL_N),
            clamp: words(KERNEL_N),
            reduce_in: words(KERNEL_N),
            reduce_out: words(KERNEL_N / CTA),
        };
        for i in 0..KERNEL_N {
            let at = (i * 4) as u64;
            mem.write_f32(k.x + at, inputs.x[i]);
            mem.write_f32(k.y + at, inputs.y[i]);
            mem.write_f32(k.clamp + at, inputs.clamp[i]);
            mem.write_u32(k.reduce_in + at, inputs.reduce[i]);
        }
        k
    }

    /// The assembled programs.
    pub fn programs(&self) -> Vec<Arc<Program>> {
        self.programs.to_vec()
    }

    /// The three launches over the first `n` elements, with the span each
    /// runs under.
    pub fn launches(&self, n: usize, a: f32) -> [(&'static str, Kernel); 3] {
        [
            ("gpu.kernel.saxpy", self.saxpy(n, a)),
            ("gpu.kernel.clamp", self.clamp(n)),
            ("gpu.kernel.reduce", self.reduce(n)),
        ]
    }

    /// `saxpy` over the first `n` elements.
    fn saxpy(&self, n: usize, a: f32) -> Kernel {
        let params = vec![self.x as u32, self.y as u32, a.to_bits()];
        Kernel::linear(Arc::clone(&self.programs[0]), n, CTA, params)
    }

    /// Clamp-scale over the first `n` elements.
    fn clamp(&self, n: usize) -> Kernel {
        Kernel::linear(
            Arc::clone(&self.programs[1]),
            n,
            CTA,
            vec![self.clamp as u32],
        )
    }

    /// Block reduction over the first `n` elements.
    fn reduce(&self, n: usize) -> Kernel {
        let params = vec![self.reduce_in as u32, self.reduce_out as u32];
        let mut k = Kernel::linear(Arc::clone(&self.programs[2]), n, CTA, params);
        k.shared_bytes = (CTA * 4) as u32;
        k
    }

    fn f32s(&self, base: u64, n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| self.mem.read_f32(base + (i * 4) as u64))
            .collect()
    }

    /// Checks `saxpy`'s output against the host; returns the output digest
    /// and the verdict.
    fn check_saxpy(&self, inputs: &Inputs, warm_runs: usize) -> (u64, bool) {
        let got = self.f32s(self.y, KERNEL_N);
        let ok = got.iter().enumerate().all(|(i, &g)| {
            // The warm-up already applied the kernel to the first WARM_N
            // elements `warm_runs` times.
            let runs = 1 + if i < WARM_N { warm_runs } else { 0 };
            let want = (0..runs).fold(inputs.y[i], |y, _| inputs.a * inputs.x[i] + y);
            g == want
        });
        (digest_words(got.iter().map(|v| v.to_bits())), ok)
    }

    fn check_clamp(&self, inputs: &Inputs) -> (u64, bool) {
        let got = self.f32s(self.clamp, KERNEL_N);
        let ok = got.iter().zip(&inputs.clamp).all(|(&g, &x)| {
            let want = if x < 0.0 { 0.0 } else { x * 2.0 };
            g == want
        });
        (digest_words(got.iter().map(|v| v.to_bits())), ok)
    }

    fn check_reduce(&self, inputs: &Inputs) -> (u64, bool) {
        let got: Vec<u32> = (0..KERNEL_N / CTA)
            .map(|c| self.mem.read_u32(self.reduce_out + (c * 4) as u64))
            .collect();
        let ok = got
            .iter()
            .zip(inputs.reduce.chunks(CTA))
            .all(|(&g, chunk)| g == chunk.iter().sum::<u32>());
        (digest_words(got), ok)
    }
}

/// A bare GPU with its functional context and a two-channel memory port.
pub fn compute_gpu() -> (Gpu, GlobalMemCtx, SimpleMemPort, SharedMem) {
    let mem = SharedMem::with_capacity(1 << 24);
    let port = SimpleMemPort::new(MemorySystem::new(MemorySystemConfig::baseline(
        2,
        DramConfig::lpddr3_1600(),
    )));
    (
        Gpu::new(pin_gpu(GpuConfig::case_study_1())),
        GlobalMemCtx::new(mem.clone()),
        port,
        mem,
    )
}

fn gpu_registry(gpu: &Gpu, port: &SimpleMemPort) -> Registry {
    let mut reg = Registry::new();
    gpu.publish(&mut reg, "gfx.gpu");
    port.mem.publish(&mut reg, "mem.dram");
    reg
}

fn gpgpu_mix(inputs: &Inputs, rec: &mut Recorder) -> Rep {
    let t0 = Instant::now();
    let (mut gpu, mut ctx, mut port, mem) = rec.span("gpu.new", |_| compute_gpu());
    let kernels = Kernels::new(&mem, inputs, rec);
    let mut now = 0u64;
    const WARM_RUNS: usize = 3;
    for _ in 0..WARM_RUNS {
        gpu.launch_kernel(kernels.saxpy(WARM_N, inputs.a));
        now += gpu.run_to_idle(now, MAX_CYCLES, &mut ctx, &mut port);
    }
    let base = gpu_registry(&gpu, &port).snapshot();
    if rec.enabled() {
        port.mem.enable_trace();
    }
    let setup_s = t0.elapsed().as_secs_f64();

    let mut m = Meter::new();
    let mut cycles = [0u64; 3];
    let launches = kernels.launches(KERNEL_N, inputs.a);
    for (i, (span, kernel)) in launches.into_iter().enumerate() {
        cycles[i] = m.time(rec, |rec| {
            rec.span_cycles(span, |_| {
                gpu.launch_kernel(kernel);
                let c = gpu.run_to_idle(now, MAX_CYCLES, &mut ctx, &mut port);
                (c, c)
            })
        });
        now += cycles[i];
    }
    let checks = [
        ("saxpy", kernels.check_saxpy(inputs, WARM_RUNS)),
        ("clamp", kernels.check_clamp(inputs)),
        ("reduce", kernels.check_reduce(inputs)),
    ];
    for (i, (name, (digest, ok))) in checks.into_iter().enumerate() {
        m.push(name.to_string(), cycles[i], digest, ok);
    }
    let mut counts = Counts::default();
    counts.add_registry(&gpu_registry(&gpu, &port).delta_since(&base), |_| true);
    let captured = Captured {
        programs: kernels.programs(),
        mem_trace: Some((port.mem.take_trace(), port.mem.config().clone())),
        ..Captured::default()
    };
    m.into_rep(setup_s, counts, captured)
}

/// A standalone renderer with its render target and memory port.
pub struct Standalone {
    /// The functional image.
    pub mem: SharedMem,
    /// The target every frame draws into.
    pub rt: RenderTarget,
    /// The renderer.
    pub renderer: GpuRenderer,
    /// Two-channel baseline DRAM behind the GPU.
    pub port: SimpleMemPort,
}

impl Standalone {
    /// Builds the renderer for a `width`×`height` target. `gpu` is used as
    /// given: callers pin it.
    pub fn new(gpu: GpuConfig, gfx: GfxConfig, width: u32, height: u32) -> Self {
        let mem = SharedMem::with_capacity(1 << 26);
        let rt = RenderTarget::alloc(&mem, width, height);
        let renderer = GpuRenderer::new(gpu, gfx, mem.clone(), rt);
        let port = SimpleMemPort::new(MemorySystem::new(MemorySystemConfig::baseline(
            2,
            DramConfig::lpddr3_1600(),
        )));
        Self {
            mem,
            rt,
            renderer,
            port,
        }
    }

    /// Clears the target and renders one frame of `binding`.
    pub fn frame(&mut self, binding: &SceneBinding, frame: u32) -> FrameStats {
        self.rt.clear(&self.mem, [0.0; 4], 1.0);
        let aspect = self.rt.width as f32 / self.rt.height as f32;
        self.renderer
            .draw(binding.draw_for_frame(frame, aspect, false));
        self.renderer.run_frame(&mut self.port, MAX_CYCLES)
    }
}

fn render_cs2(inputs: &Inputs, rec: &mut Recorder) -> Rep {
    let t0 = Instant::now();
    let (w, h) = (256, 192);
    let models = rec.span("scene.build", |_| workloads::w_models());
    let gpu_cfg = pin_gpu(GpuConfig::case_study_2());
    let gfx_cfg = GfxConfig::case_study_2();
    let mut sa = rec.span("core.new", |_| {
        Standalone::new(gpu_cfg.clone(), gfx_cfg.clone(), w, h)
    });
    // W3 (cube) warms up; W1, W4, W5 are measured.
    let bind = |i: usize, rec: &mut Recorder| {
        rec.span("core.bind", |_| SceneBinding::new(&sa.mem, &models[i]))
    };
    let warm = bind(2, rec);
    let measured = [bind(0, rec), bind(3, rec), bind(4, rec)];
    let first = inputs.start_frame;
    rec.span("core.run_frame", |_| sa.frame(&warm, first));
    let port_base = {
        let mut reg = Registry::new();
        sa.port.mem.publish(&mut reg, "mem.dram");
        reg.snapshot()
    };
    if rec.enabled() {
        sa.port.mem.enable_trace();
    }
    let setup_s = t0.elapsed().as_secs_f64();

    let mut m = Meter::new();
    let mut counts = Counts::default();
    for binding in &measured {
        let mut culled = 0;
        let cycles = m.time(rec, |rec| {
            rec.span_cycles("core.run_frame", |_| {
                let s = sa.frame(binding, first);
                culled = s.prims_culled;
                (s.cycles, s.cycles)
            })
        });
        m.push(
            binding.workload().id.to_string(),
            cycles,
            fb_digest(&sa.rt, &sa.mem),
            true,
        );
        let mut reg = Registry::new();
        sa.renderer.publish(&mut reg, "gfx");
        counts.add_registry(&reg, |_| true);
        counts.add("bench.prims_culled", culled as f64);
    }
    let mut reg = Registry::new();
    sa.port.mem.publish(&mut reg, "mem.dram");
    counts.add_registry(&reg.delta_since(&port_base), |_| true);
    let captured = Captured {
        programs: {
            let draw = measured[0].draw_for_frame(first, 1.0, false);
            vec![draw.vs, draw.fs]
        },
        mem_trace: Some((sa.port.mem.take_trace(), sa.port.mem.config().clone())),
        render: Some(RenderScene {
            gpu: gpu_cfg,
            gfx: gfx_cfg,
            model: measured[0].workload().clone(),
            width: w,
            height: h,
            frame: first,
        }),
        ..Captured::default()
    };
    m.into_rep(setup_s, counts, captured)
}

/// The sweep family behind `sweep_fork`: M2 at 64×48, one warm-up and two
/// measured frames, over the given memory kinds × two frame offsets × four
/// late-Z seeds. One memory kind is one warmed prefix of eight sessions.
pub fn sweep_spec(seed: u64, mems: &[&str]) -> String {
    let mems: Vec<String> = mems.iter().map(|m| format!("\"{m}\"")).collect();
    format!(
        r#"{{"name": "benchmark",
            "base": {{"model": "M2", "width": 64, "height": 48, "warmup": 1, "frames": 2}},
            "axes": [{{"key": "mem", "values": [{}]}},
                     {{"key": "frame_offset", "values": [0, 1]}},
                     {{"key": "seed", "values": [{seed}, {}, {}, {}]}}]}}"#,
        mems.join(", "),
        seed + 1,
        seed + 2,
        seed + 3
    )
}

fn sweep_jobs(spec: &str) -> Vec<JobSpec> {
    emerald::serve::SweepSpec::parse(spec)
        .and_then(|spec| spec.expand())
        .expect("benchmark sweep spec is valid")
}

fn sweep_fork(inputs: &Inputs, rec: &mut Recorder) -> Rep {
    let t0 = Instant::now();
    let jobs = rec.span("serve.expand", |_| {
        sweep_jobs(&sweep_spec(
            inputs.sweep_seed,
            &["bas", "dcb", "dtb", "hmc"],
        ))
    });
    // Warm-up: a small sweep through the same scheduler, so thread
    // start-up, the allocator and the snapshot path are past first use.
    let warm: Vec<JobSpec> = sweep_jobs(&sweep_spec(0, &["dcb"]))
        .into_iter()
        .take(2)
        .collect();
    rec.span("serve.run_jobs", |_| {
        emerald::serve::sched::run_jobs(warm, true, SWEEP_WORKERS, None)
    });
    let setup_s = t0.elapsed().as_secs_f64();

    let mut m = Meter::new();
    let mut outcome = None;
    m.time(rec, |rec| {
        let out = rec.span("serve.run_jobs", |_| {
            emerald::serve::sched::run_jobs(jobs, true, SWEEP_WORKERS, None)
        });
        let cycles = out.total_cycles;
        outcome = Some(out);
        cycles
    });
    let outcome = outcome.expect("sweep ran");
    let mut counts = Counts::default();
    counts.add("serve.sessions", outcome.results.len() as f64);
    counts.add("serve.prefixes", outcome.prefixes as f64);
    for r in &outcome.results {
        // Every registry dump must parse; an unparsable one fails the op.
        let parsed = emerald::common::json::Json::parse(&r.registry_json);
        if let Ok(doc) = &parsed {
            counts.add_json(doc);
        }
        counts.add("serve.slices", r.slices as f64);
        m.push(
            format!("session{}", r.id),
            r.cycles,
            r.fb_digest,
            parsed.is_ok() && r.frames == 2,
        );
    }
    let captured = Captured {
        sweep: Some(inputs.sweep_seed),
        ..Captured::default()
    };
    m.into_rep(setup_s, counts, captured)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = generate(7);
        assert_eq!(a, generate(7));
        let b = generate(8);
        assert_ne!(a.x, b.x);
        assert_ne!(a.clamp, b.clamp);
        assert_ne!(a.reduce, b.reduce);
        assert_ne!(a.a, b.a);
        // Over a handful of seeds the scene inputs move too.
        let frames: std::collections::BTreeSet<u32> =
            (0..16).map(|s| generate(s).start_frame).collect();
        assert!(frames.len() > 4, "start frames barely vary: {frames:?}");
        let sweeps: std::collections::BTreeSet<u64> =
            (0..16).map(|s| generate(s).sweep_seed).collect();
        assert!(sweeps.len() > 4);
    }

    #[test]
    fn generated_inputs_keep_the_workloads_well_formed() {
        for seed in 0..32 {
            let i = generate(seed);
            assert_eq!(i.sweep_seed % 4, 0);
            assert!(i
                .x
                .iter()
                .chain(&i.y)
                .chain(&i.clamp)
                .all(|v| v.is_finite()));
            assert!(i.reduce.iter().all(|&v| (1..=7).contains(&v)));
            let neg = i.clamp.iter().filter(|v| **v < 0.0).count();
            assert!(neg > KERNEL_N / 3 && neg < 2 * KERNEL_N / 3);
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("soc_frame"), None);
    }
}

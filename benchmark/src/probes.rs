//! Layer probes: each times one layer through its public entry points,
//! from outside, on inputs the traced run just used (its programs, its
//! memory trace, its SoC, its draws, its sweep) or — where the workload
//! bypasses the layer — on a small built-in input, so every timed metric
//! is measured in every traced run. Probes record into the same
//! [`Recorder`] as the run; metrics are then read off the span totals.

use crate::span::Recorder;
use crate::workloads::{
    compute_gpu, pin_gpu, pin_soc, sweep_spec, Captured, Inputs, Kernels, RenderScene, Standalone,
    KERNEL_SOURCES, SWEEP_WORKERS, WARM_N,
};
use emerald::common::json::Json;
use emerald::common::snap::SharedSnapshot;
use emerald::common::types::AccessKind;
use emerald::core::session::SceneBinding;
use emerald::gpu::simt::SimtStack;
use emerald::gpu::CorePool;
use emerald::isa::{execute, ExecCtx, MemSpace, Op, Outcome, Program, ThreadState};
use emerald::mem::cache::{Access, Cache};
use emerald::prelude::*;
use emerald::serve::session::Session;
use emerald::serve::SweepSpec;
use emerald::soc::trace::{replay_trace, MemTrace};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Numbers the probes measured directly (everything else is read from
/// span totals).
pub type Measured = BTreeMap<&'static str, f64>;

fn secs(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

/// Calls `f` until `budget_s` has passed (at least once) and returns the
/// mean seconds per call.
fn mean_secs(budget_s: f64, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    let mut n = 0u32;
    loop {
        f();
        n += 1;
        let el = t0.elapsed().as_secs_f64();
        if el >= budget_s {
            return el / f64::from(n);
        }
    }
}

/// A functional context over a small wrapped word array: enough for any
/// program to run its real instruction stream without a GPU around it.
struct FlatCtx {
    words: Vec<u32>,
}

impl FlatCtx {
    const MASK: usize = (1 << 16) - 1;

    fn new() -> Self {
        Self {
            words: (0..=Self::MASK as u32)
                .map(|i| i.wrapping_mul(2654435761))
                .collect(),
        }
    }

    fn pixel(x: u32, y: u32) -> u64 {
        (u64::from(y) * 256 + u64::from(x)) * 4
    }
}

impl ExecCtx for FlatCtx {
    fn load(&mut self, _space: MemSpace, addr: u64) -> u32 {
        self.words[(addr >> 2) as usize & Self::MASK]
    }

    fn store(&mut self, _space: MemSpace, addr: u64, value: u32) {
        self.words[(addr >> 2) as usize & Self::MASK] = value;
    }

    fn tex2d(&mut self, _sampler: u8, u: f32, v: f32, texel_addrs: &mut Vec<u64>) -> [f32; 4] {
        texel_addrs.push(((u.to_bits() ^ v.to_bits()) & 0xffff) as u64 * 4);
        [u, v, 0.5, 1.0]
    }

    fn ztest(&mut self, x: u32, y: u32, _z: f32, _write: bool) -> (bool, u64) {
        (true, Self::pixel(x, y))
    }

    fn blend(&mut self, x: u32, y: u32, src: [f32; 4]) -> ([f32; 4], u64) {
        (src, Self::pixel(x, y))
    }

    fn fb_write(&mut self, x: u32, y: u32, _rgba: [f32; 4]) -> u64 {
        Self::pixel(x, y)
    }
}

/// Steps one full warp through `program` with the SIMT stack discipline
/// the core uses; returns warp instructions executed.
fn step_warp(program: &Program, ctx: &mut FlatCtx) -> u64 {
    const STEP_CAP: u64 = 100_000;
    let mut threads: Vec<ThreadState> = (0..32u32)
        .map(|lane| {
            let mut t = ThreadState::new();
            t.inputs[0] = lane;
            t.inputs[2] = lane;
            t
        })
        .collect();
    let params = [0u32; 0];
    let mut stack = SimtStack::new(u32::MAX);
    let mut steps = 0;
    while !stack.is_done() && steps < STEP_CAP {
        let pc = stack.pc();
        let res = execute(program, pc, stack.active_mask(), &mut threads, &params, ctx);
        steps += 1;
        if res.killed != 0 {
            stack.retire_lanes(res.killed);
        }
        match res.outcome {
            Outcome::Next => {
                if !stack.is_done() && stack.pc() == pc {
                    stack.advance();
                }
            }
            Outcome::Branch { taken } => {
                if let Op::Bra { target, reconv } = program.instr(pc).op {
                    stack.branch(taken, target, reconv);
                }
            }
            Outcome::Exit => stack.exit_path(),
            Outcome::Barrier => stack.advance(),
        }
    }
    steps
}

fn probe_isa(programs: &[Arc<Program>], out: &mut Measured) {
    let mut ctx = FlatCtx::new();
    let mut instrs = 0u64;
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < 0.15 {
        for p in programs {
            instrs += step_warp(p, &mut ctx);
        }
    }
    let ns = t0.elapsed().as_secs_f64() * 1e9;
    black_box(&ctx.words);
    out.insert("isa.exec_ns_per_warp_instr", ns / instrs as f64);
    let per_program = mean_secs(0.05, || {
        for src in KERNEL_SOURCES {
            black_box(assemble(src).expect("benchmark kernels assemble"));
        }
    }) / KERNEL_SOURCES.len() as f64;
    out.insert("isa.assemble_us", per_program * 1e6);
}

/// Runs the three kernels at warm-up size under the span names
/// `gpgpu_mix` uses, for workloads that launch no kernels themselves.
fn probe_gpu_kernels(inputs: &Inputs, rec: &mut Recorder) {
    let (mut gpu, mut ctx, mut port, mem) = compute_gpu();
    let kernels = Kernels::new(&mem, inputs, &mut Recorder::new(false));
    let mut now = 0;
    for (span, kernel) in kernels.launches(WARM_N, inputs.a) {
        now += rec.span_cycles(span, |_| {
            gpu.launch_kernel(kernel);
            let c = gpu.run_to_idle(now, 500_000_000, &mut ctx, &mut port);
            (c, c)
        });
    }
}

fn probe_gpu_fixed_costs(out: &mut Measured) {
    let (mut gpu, mut ctx, mut port, _mem) = compute_gpu();
    let mut now = 0u64;
    let per_cycle = mean_secs(0.05, || {
        for _ in 0..1000 {
            gpu.cycle(now, &mut ctx, &mut port);
            now += 1;
        }
    }) / 1000.0;
    out.insert("gpu.idle_cycle_ns", per_cycle * 1e9);
    let pool = CorePool::new(2);
    let per_run = mean_secs(0.05, || {
        for _ in 0..100 {
            pool.run(&|_| {});
        }
    }) / 100.0;
    out.insert("gpu.pool_dispatch_ns", per_run * 1e9);
}

/// Renders `scene` once on a fresh standalone renderer at `threads`. Only
/// the one-thread render counts as a `core.run_frame` span.
fn render(scene: &RenderScene, threads: usize, rec: &mut Recorder) -> (f64, FrameStats) {
    let mut gpu = pin_gpu(scene.gpu.clone());
    gpu.threads = threads;
    let mut sa = Standalone::new(gpu, scene.gfx.clone(), scene.width, scene.height);
    let binding = rec.span("core.bind", |_| SceneBinding::new(&sa.mem, &scene.model));
    let span = if threads == 1 {
        "core.run_frame"
    } else {
        "core.run_frame.threads2"
    };
    let t0 = Instant::now();
    let stats = rec.span_cycles(span, |_| {
        let s = sa.frame(&binding, scene.frame);
        let c = s.cycles;
        (s, c)
    });
    (t0.elapsed().as_secs_f64(), stats)
}

fn probe_render_threads(scene: &RenderScene, rec: &mut Recorder, out: &mut Measured) {
    let (t1, s1) = render(scene, 1, rec);
    let (t2, s2) = render(scene, 2, rec);
    assert_eq!(s1, s2, "thread count changed the simulated frame");
    out.insert("gpu.t2_speedup", t1 / t2);
    out.insert(
        "core.ns_per_fragment",
        t1 * 1e9 / (s1.fragments.max(1)) as f64,
    );
}

/// The first requests of `trace`. The open-loop replay ticks every cycle,
/// idle gaps included, and retries its whole backlog each cycle, so its
/// cost grows faster than the request count; the cut keeps it short.
fn trace_prefix(trace: &MemTrace) -> MemTrace {
    const MAX_REQS: usize = 2_000;
    const MAX_SPAN: u64 = 400_000;
    let t0 = trace.first().map_or(0, |(t, _)| *t);
    trace
        .iter()
        .take(MAX_REQS)
        .take_while(|(t, _)| t - t0 <= MAX_SPAN)
        .copied()
        .collect()
}

/// Replays the trace prefix on the memory system it was recorded on and
/// on each scheduler family, then walks its addresses through an L1D.
fn probe_mem(trace: &MemTrace, own: MemorySystemConfig, rec: &mut Recorder, out: &mut Measured) {
    let prefix = trace_prefix(trace);
    let reqs = prefix.len().max(1) as f64;
    let dram = DramConfig::lpddr3_1333;
    for (name, cfg) in [
        ("mem.replay_ns_per_req", own),
        ("mem.replay_ns_per_req.bas", MemCfgKind::Bas.build(dram())),
        ("mem.replay_ns_per_req.dcb", MemCfgKind::Dcb.build(dram())),
        ("mem.replay_ns_per_req.hmc", MemCfgKind::Hmc.build(dram())),
    ] {
        let s = secs(|| {
            rec.span("mem.replay", |_| {
                black_box(replay_trace(&prefix, cfg));
            })
        });
        out.insert(name, s * 1e9 / reqs);
    }

    let mut cache = Cache::new(GpuConfig::case_study_1().l1d);
    let mut id = 0u64;
    let per_pass = mean_secs(0.05, || {
        for (_, r) in &prefix {
            id += 1;
            if let Access::Miss { .. } = cache.access(r.addr, AccessKind::Read, id, 0) {
                black_box(cache.fill(cache.line_addr(r.addr)));
            }
        }
    });
    out.insert("mem.cache_ns_per_access", per_pass * 1e9 / reqs);

    let alloc = mean_secs(0.02, || {
        black_box(SharedMem::with_capacity(256 << 20));
    });
    out.insert("mem.image_alloc_ms", alloc * 1e3);
}

/// The SoC the probes fall back to: the light pacing scene on the
/// case-study-I platform.
fn default_soc(rec: &mut Recorder) -> (Soc, SceneBinding, u32) {
    let model = rec.span("scene.build", |_| workloads::idle_model());
    let cfg = pin_soc(SocConfig::case_study_1(
        MemCfgKind::Dcb.build(DramConfig::lpddr3_1333()),
        64,
        48,
        200_000,
    ));
    let soc = rec.span("soc.new", |_| Soc::new(cfg));
    let binding = rec.span("core.bind", |_| SceneBinding::new(&soc.mem, &model));
    (soc, binding, 0)
}

/// One more frame on the workload's SoC (or the default one), taken
/// apart: the same draw standalone, the frame's memory trace replayed,
/// then publish, checkpoint and restore of that SoC.
fn probe_soc(
    captured_soc: Option<(Soc, SceneBinding, u32)>,
    rec: &mut Recorder,
    out: &mut Measured,
) -> (MemTrace, MemorySystemConfig) {
    let totals = rec.totals();
    let (mut soc, binding, frame) = captured_soc.unwrap_or_else(|| default_soc(rec));
    let (w, h) = (soc.rt.width, soc.rt.height);
    let model = binding.workload().clone();
    if !totals.contains_key("soc.calibrate") {
        rec.span("soc.calibrate", |_| {
            black_box(emerald::soc::experiment::calibrate_period(&model, w, h));
        });
    }

    soc.memsys.take_trace();
    soc.memsys.enable_trace();
    let draw = binding.draw_for_frame(frame, w as f32 / h as f32, false);
    let frame_s = secs(|| {
        rec.span_cycles("soc.run_frame", |_| {
            let r = soc.run_frame(vec![draw], 500_000_000);
            ((), r.total_cycles)
        })
    });
    let trace = soc.memsys.take_trace();
    if !totals.contains_key("soc.idle_until") {
        let target = (soc.now() / 1_000_000 + 1) * 1_000_000;
        rec.span_cycles("soc.idle_until", |_| {
            let from = soc.now();
            soc.idle_until(target);
            ((), soc.now() - from)
        });
    }

    let scene = RenderScene {
        gpu: soc.config().gpu.clone(),
        gfx: soc.config().gfx.clone(),
        model,
        width: w,
        height: h,
        frame,
    };
    let (render_s, _) = render(&scene, 1, rec);
    let memsys_cfg = soc.config().memsys.clone();
    let replay_s = secs(|| {
        rec.span("mem.replay", |_| {
            black_box(replay_trace(&trace, memsys_cfg.clone()));
        })
    });
    out.insert(
        "soc.overhead_est",
        (frame_s - render_s - replay_s) / frame_s,
    );

    let mut json = String::new();
    let mut paths = 0;
    let publish = mean_secs(0.02, || {
        let mut reg = Registry::new();
        soc.publish(&mut reg);
        paths = reg.len();
        json = reg.to_json_compact();
    });
    out.insert("obs.publish_us", publish * 1e6);
    out.insert("obs.registry_paths", paths as f64);

    let mb = json.len() as f64 / 1e6;
    let mut doc = Json::Null;
    let parse = mean_secs(0.02, || {
        doc = Json::parse(&json).expect("registry dumps are valid JSON");
    });
    out.insert("json.parse_mb_per_s", mb / parse);
    let write = mean_secs(0.02, || {
        black_box(doc.encode());
    });
    out.insert("json.write_mb_per_s", mb / write);

    let mut bytes = Vec::new();
    let encode = mean_secs(0.05, || bytes = soc.checkpoint());
    out.insert("snap.encode_ms", encode * 1e3);
    out.insert("snap.bytes", bytes.len() as f64);
    let restore = mean_secs(0.05, || {
        black_box(Soc::restore(&bytes, soc.config()).expect("own checkpoint restores"));
    });
    out.insert("snap.restore_ms", restore * 1e3);
    let validate = mean_secs(0.02, || {
        black_box(SharedSnapshot::new(bytes.clone()).expect("own checkpoint validates"));
    });
    let copy = mean_secs(0.01, || {
        black_box(bytes.clone());
    });
    out.insert("snap.shared_validate_ms", (validate - copy).max(0.0) * 1e3);
    (trace, memsys_cfg)
}

fn probe_serve(sweep: Option<u64>, rec: &mut Recorder, out: &mut Measured) {
    // The sweep workload probes two of its four prefixes (16 of its 32
    // jobs); the others get one prefix of the same family.
    let spec_text = match sweep {
        Some(seed) => sweep_spec(seed, &["bas", "dcb"]),
        None => sweep_spec(0, &["dcb"]),
    };
    let spec = SweepSpec::parse(&spec_text).expect("benchmark sweep spec is valid");
    let jobs = spec.expand().expect("benchmark sweep expands");

    let plan = mean_secs(0.01, || {
        black_box(emerald::serve::sweep::plan(jobs.clone(), true));
    });
    let clone = mean_secs(0.005, || {
        black_box(jobs.clone());
    });
    out.insert("serve.plan_us", (plan - clone).max(0.0) * 1e6);

    // One cold session per prefix, run to completion on this thread.
    for job in jobs.iter().step_by(8) {
        rec.span("serve.session", |_| {
            let mut s = Session::new_cold(job.clone()).expect("benchmark job is valid");
            while s.step() {}
            black_box(s.finish());
        });
    }

    let run = |fork: bool, workers: usize| {
        let jobs = jobs.clone();
        let cpu0 = crate::host::process_cpu_s();
        let mut outcome = None;
        let wall = secs(|| {
            outcome = Some(emerald::serve::sched::run_jobs(jobs, fork, workers, None));
        });
        let cpu = crate::host::process_cpu_s() - cpu0;
        (wall, cpu, outcome.expect("sweep ran"))
    };
    let (forked_s, forked_cpu, forked) = rec.span("serve.run_jobs", |_| run(true, SWEEP_WORKERS));
    let (cold_s, _, cold) = run(false, SWEEP_WORKERS);
    let (one_s, _, one) = run(true, 1);
    let sig = |o: &emerald::serve::SweepOutcome| -> Vec<(u64, u64, String)> {
        o.results
            .iter()
            .map(|r| (r.cycles, r.fb_digest, r.registry_json.clone()))
            .collect()
    };
    assert_eq!(sig(&forked), sig(&cold), "fork changed a session");
    assert_eq!(sig(&forked), sig(&one), "worker count changed a session");
    out.insert("serve.cpu_s_per_wall_s", forked_cpu / forked_s);
    out.insert("serve.fork_speedup", cold_s / forked_s);
    out.insert("serve.w2_speedup", one_s / forked_s);

    let request = format!(
        "{{\"op\": \"sweep\", \"workers\": {SWEEP_WORKERS}, \"spec\": {}}}\n",
        spec_text.replace('\n', " ")
    );
    let mut sink = Vec::new();
    let proto_s = secs(|| {
        emerald::serve::proto::serve(request.as_bytes(), &mut sink).expect("in-memory protocol");
    });
    black_box(&sink);
    out.insert("serve.proto_overhead_ms", (proto_s - forked_s) * 1e3);
}

/// Runs every probe on what the traced repetition left behind.
pub fn run_all(captured: Captured, inputs: &Inputs, rec: &mut Recorder) -> Measured {
    let mut out = Measured::new();
    rec.set_op(0);
    rec.span("probes", |rec| {
        if !rec.totals().contains_key("gpu.kernel.saxpy") {
            probe_gpu_kernels(inputs, rec);
        }
        probe_gpu_fixed_costs(&mut out);

        let soc_trace = probe_soc(captured.soc, rec, &mut out);
        let (trace, own) = captured.mem_trace.unwrap_or(soc_trace);
        probe_mem(&trace, own, rec, &mut out);

        let scene = captured.render.unwrap_or_else(|| RenderScene {
            gpu: GpuConfig::case_study_1(),
            gfx: GfxConfig::case_study_1(),
            model: workloads::idle_model(),
            width: 64,
            height: 48,
            frame: 0,
        });
        probe_render_threads(&scene, rec, &mut out);

        let mut programs = captured.programs;
        if programs.is_empty() {
            programs = KERNEL_SOURCES
                .iter()
                .map(|s| Arc::new(assemble(s).expect("benchmark kernels assemble")))
                .collect();
        }
        probe_isa(&programs, &mut out);

        probe_serve(captured.sweep, rec, &mut out);
    });
    out
}

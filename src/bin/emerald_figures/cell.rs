//! Case study I's unit of work (§5.2): one (workload, memory configuration)
//! cell on the full SoC, one warm-up frame then `frames` profiled ones.
//!
//! `tests/soc_system.rs` and `tests/determinism.rs` include this file, so
//! it reaches the library only through `emerald::` paths.

use emerald::common::types::Cycle;
use emerald::core::session::SceneBinding;
use emerald::mem::dram::DramConfig;
use emerald::mem::req::MemRequest;
use emerald::mem::system::SourceClass;
use emerald::obs::Registry;
use emerald::scene::workloads::WorkloadDef;
use emerald::soc::{MemCfgKind, Soc, SocConfig, SocFrameRecord};
use std::hash::Hasher;

/// What one (workload, config) cell observed.
#[derive(Debug, Clone, Default)]
pub struct CaseStudyResult {
    /// Per-frame records (profiled frames only; warm-up excluded).
    pub frames: Vec<SocFrameRecord>,
    /// Registry delta over the profiled frames.
    pub delta: Registry,
    /// Bandwidth timelines per source class `(window_start, bytes)`,
    /// warm-up included.
    pub probes: Vec<(SourceClass, Vec<(Cycle, u64)>)>,
    /// Every request the memory system accepted, warm-up included (empty
    /// unless [`RunParams::trace`]).
    pub trace: Vec<(Cycle, MemRequest)>,
    /// FxHash-64 over the final framebuffer.
    #[allow(dead_code)] // only the probe-invariance test compares images
    pub fb_digest: u64,
}

impl CaseStudyResult {
    /// Mean GPU render time per frame.
    pub fn avg_gpu_cycles(&self) -> f64 {
        self.mean(|r| r.gpu_cycles)
    }

    /// Mean total application frame time.
    pub fn avg_total_cycles(&self) -> f64 {
        self.mean(|r| r.total_cycles)
    }

    /// DRAM row-buffer hit rate over the profiled frames.
    pub fn row_hit_rate(&self) -> f64 {
        self.delta
            .get("mem.dram.row_hits")
            .map_or(0.0, |v| v.scalar())
    }

    /// Bytes transferred per row activation.
    pub fn bytes_per_activation(&self) -> f64 {
        match self.counter("mem.dram.activations") {
            0 => 0.0,
            activations => self.counter("mem.dram.bytes") as f64 / activations as f64,
        }
    }

    /// Display bytes serviced during the profiled frames.
    pub fn display_serviced_bytes(&self) -> u64 {
        self.counter("soc.display.serviced_bytes")
    }

    /// Display frames aborted.
    pub fn display_aborts(&self) -> u64 {
        self.counter("soc.display.frames_aborted")
    }

    /// `class`'s bandwidth timeline (empty without probes).
    pub fn probe(&self, class: SourceClass) -> &[(Cycle, u64)] {
        let timeline = self.probes.iter().find(|(c, _)| *c == class);
        timeline.map_or(&[], |(_, samples)| samples)
    }

    fn counter(&self, path: &str) -> u64 {
        self.delta.get(path).map_or(0, |v| v.scalar() as u64)
    }

    fn mean(&self, cycles: impl Fn(&SocFrameRecord) -> Cycle) -> f64 {
        let sum: f64 = self.frames.iter().map(|r| cycles(r) as f64).sum();
        sum / self.frames.len() as f64
    }
}

/// Parameters for one case-study run.
#[derive(Debug, Clone)]
pub struct RunParams {
    /// Framebuffer width.
    pub width: u32,
    /// Framebuffer height.
    pub height: u32,
    /// Profiled frames (the paper uses 4, after 1 warm-up).
    pub frames: u32,
    /// DRAM preset (regular vs high-load).
    pub dram: DramConfig,
    /// GPU frame period in cycles (from `calibrate_period`).
    pub gpu_frame_period: Cycle,
    /// Bandwidth-probe window; `None` disables probes.
    pub probe_window: Option<Cycle>,
    /// Per-frame cycle budget before declaring deadlock.
    pub max_cycles_per_frame: Cycle,
    /// Record the memory request trace (for trace-driven replay).
    pub trace: bool,
}

/// Runs one (workload, config) cell: 1 warm-up + `params.frames` profiled
/// frames, measured as a registry delta against the post-warm-up state.
pub fn run_cell(workload: &WorkloadDef, kind: MemCfgKind, params: &RunParams) -> CaseStudyResult {
    let cfg = SocConfig::case_study_1(
        kind.build(params.dram.clone()),
        params.width,
        params.height,
        params.gpu_frame_period,
    );
    let mut soc = Soc::new(cfg);
    if let Some(w) = params.probe_window {
        soc.memsys.enable_probes(w);
    }
    if params.trace {
        soc.memsys.enable_trace();
    }
    let binding = SceneBinding::new(&soc.mem, workload);
    let aspect = params.width as f32 / params.height as f32;

    // Warm-up frame. Profiled frames are measured as a registry delta
    // against the post-warm-up snapshot instead of resetting component
    // counters: every windowed quantity (DRAM, display, CPU) comes from
    // the same snapshot, so nothing can double-count or miss a reset.
    soc.run_frame(
        vec![binding.draw_for_frame(0, aspect, false)],
        params.max_cycles_per_frame,
    );
    let mut reg = Registry::new();
    soc.publish(&mut reg);
    let warmup = reg.snapshot();

    let mut frames = Vec::new();
    for f in 1..=params.frames {
        let rec = soc.run_frame(
            vec![binding.draw_for_frame(f, aspect, false)],
            params.max_cycles_per_frame,
        );
        frames.push(rec);
    }

    soc.publish(&mut reg);
    let mut fb = emerald::common::hash::FxHasher::default();
    for px in soc.rt.read_color(&soc.mem) {
        fb.write_u32(px);
    }
    CaseStudyResult {
        frames,
        delta: reg.delta_since(&warmup),
        probes: SourceClass::ALL
            .iter()
            .map(|&c| (c, soc.memsys.probe_samples(c).to_vec()))
            .collect(),
        trace: soc.memsys.take_trace(),
        fb_digest: fb.finish(),
    }
}

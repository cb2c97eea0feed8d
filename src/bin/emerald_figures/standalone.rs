//! Case study II machinery: the standalone-GPU workbench, WT sweeps and
//! the work-distribution policies of Figure 19.

use emerald::core::renderer::FrameStats;
use emerald::core::session::SceneBinding;
use emerald::core::state::RenderTarget;
use emerald::core::{DfslConfig, DfslController, GfxConfig, GpuRenderer};
use emerald::gpu::gpu::SimpleMemPort;
use emerald::gpu::GpuConfig;
use emerald::mem::dram::DramConfig;
use emerald::mem::image::SharedMem;
use emerald::mem::system::{MemorySystem, MemorySystemConfig};
use emerald::scene::workloads::WorkloadDef;

/// Default standalone-mode experiment resolution (the paper renders
/// 1024×768; WT-granularity effects need the screen to be many work tiles
/// wide, which 288×216 preserves at ~1/12 the fragment cost).
pub const DEFAULT_WIDTH: u32 = 288;
/// See [`DEFAULT_WIDTH`].
pub const DEFAULT_HEIGHT: u32 = 216;

/// Per-frame cycle budget before declaring a hang.
pub const MAX_FRAME_CYCLES: u64 = 500_000_000;

/// A standalone GPU (case study II, §6.1: Table 7 GPU + 4-channel LPDDR)
/// with one workload bound.
#[derive(Debug)]
pub struct Workbench {
    /// The renderer under test.
    pub renderer: GpuRenderer,
    /// Its DRAM.
    pub port: SimpleMemPort,
    /// The shared memory image.
    pub mem: SharedMem,
    binding: SceneBinding,
    rt: RenderTarget,
    aspect: f32,
    late_z: bool,
}

impl Workbench {
    /// Builds the Table 7 GPU with `workload` bound, at the given target
    /// size.
    pub fn new(workload: &WorkloadDef, width: u32, height: u32) -> Self {
        Self::variant(workload, width, height, GfxConfig::case_study_2(), false)
    }

    /// [`Workbench::new`] with `gfx` in place of Table 7's pipeline and,
    /// if `late_z`, every draw depth-tested after shading (the ablations).
    pub fn variant(
        workload: &WorkloadDef,
        width: u32,
        height: u32,
        gfx: GfxConfig,
        late_z: bool,
    ) -> Self {
        let mem = SharedMem::with_capacity(1 << 27);
        let rt = RenderTarget::alloc(&mem, width, height);
        rt.clear(&mem, [0.0; 4], 1.0);
        let renderer = GpuRenderer::new(GpuConfig::case_study_2(), gfx, mem.clone(), rt);
        let port = SimpleMemPort::new(MemorySystem::new(MemorySystemConfig::baseline(
            4,
            DramConfig::lpddr3_1600(),
        )));
        let binding = SceneBinding::new(&mem, workload);
        Self {
            renderer,
            port,
            mem,
            binding,
            rt,
            aspect: width as f32 / height as f32,
            late_z,
        }
    }

    /// Renders `frame` of the bound workload at WT size `wt`.
    pub fn render_frame(&mut self, frame: u32, wt: u32) -> FrameStats {
        self.rt.clear(&self.mem, [0.0; 4], 1.0);
        if self.renderer.wt() != wt {
            self.renderer.set_wt(wt);
        }
        self.renderer
            .draw(self.binding.draw_for_frame(frame, self.aspect, self.late_z));
        self.renderer.run_frame(&mut self.port, MAX_FRAME_CYCLES)
    }

    /// Renders frame 0 to warm the caches, then returns the stats of
    /// frame 1 (both at WT 1).
    pub fn measure(mut self) -> FrameStats {
        self.render_frame(0, 1);
        self.render_frame(1, 1)
    }
}

/// Sweeps WT sizes `1..=max_wt`, rendering `frames_per_wt` consecutive
/// frames at each size and returning the stats of the *last* frame per
/// size (the first warms caches). This regenerates Figure 17's series.
pub fn wt_sweep(
    workload: &WorkloadDef,
    width: u32,
    height: u32,
    max_wt: u32,
    frames_per_wt: u32,
) -> Vec<FrameStats> {
    let mut wb = Workbench::new(workload, width, height);
    let mut out = Vec::new();
    let mut frame = 0u32;
    for wt in 1..=max_wt {
        let mut last = None;
        for _ in 0..frames_per_wt.max(1) {
            last = Some(wb.render_frame(frame, wt));
            frame += 1;
        }
        out.push(last.expect("at least one frame"));
    }
    out
}

/// Work-distribution policies compared in Figure 19.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Policy {
    /// Maximum load balance: fixed WT 1.
    Mlb,
    /// Maximum locality: fixed WT 10.
    Mlc,
    /// The best fixed WT on average across workloads (found offline).
    Sopt(u32),
    /// Dynamic fragment-shading load balancing.
    Dfsl(DfslConfig),
}

impl Policy {
    /// The paper's label for the policy.
    pub fn label(&self) -> String {
        match self {
            Policy::Mlb => "MLB".into(),
            Policy::Mlc => "MLC".into(),
            Policy::Sopt(wt) => format!("SOPT(wt{wt})"),
            Policy::Dfsl(_) => "DFSL".into(),
        }
    }

    /// The WT a static policy renders every frame at (`None` for DFSL).
    pub fn fixed_wt(&self) -> Option<u32> {
        match self {
            Policy::Mlb => Some(1),
            Policy::Mlc => Some(10),
            Policy::Sopt(wt) => Some(*wt),
            Policy::Dfsl(_) => None,
        }
    }
}

/// Result of running a policy over a frame sequence.
#[derive(Debug, Clone)]
pub struct PolicyRun {
    /// Per-frame execution times in cycles.
    pub frame_cycles: Vec<u64>,
    /// WT used per frame (diagnostics; constant for static policies).
    pub wt_per_frame: Vec<u32>,
}

impl PolicyRun {
    /// Mean cycles per frame over all frames.
    pub fn mean(&self) -> f64 {
        self.frame_cycles.iter().sum::<u64>() as f64 / self.frame_cycles.len().max(1) as f64
    }

    /// Mean over the last `n` frames (steady-state / run-phase view).
    pub fn mean_last(&self, n: usize) -> f64 {
        let tail = &self.frame_cycles[self.frame_cycles.len().saturating_sub(n)..];
        tail.iter().sum::<u64>() as f64 / tail.len().max(1) as f64
    }
}

/// Renders `frames` consecutive frames of `workload` under `policy`.
pub fn run_policy(
    workload: &WorkloadDef,
    policy: Policy,
    frames: u32,
    width: u32,
    height: u32,
) -> PolicyRun {
    let mut wb = Workbench::new(workload, width, height);
    let mut dfsl = match policy {
        Policy::Dfsl(cfg) => Some(DfslController::new(cfg)),
        _ => None,
    };
    let mut frame_cycles = Vec::new();
    let mut wt_per_frame = Vec::new();
    for f in 0..frames {
        let wt = match &dfsl {
            Some(c) => c.wt_for_frame(),
            None => policy.fixed_wt().expect("a static policy fixes its WT"),
        };
        let stats = wb.render_frame(f, wt);
        if let Some(c) = dfsl.as_mut() {
            c.observe(stats.cycles);
        }
        frame_cycles.push(stats.cycles);
        wt_per_frame.push(wt);
    }
    PolicyRun {
        frame_cycles,
        wt_per_frame,
    }
}

/// Finds SOPT: the fixed WT with the best *average normalized* frame time
/// across the given per-workload sweeps (each sweep indexed by `wt-1`).
pub fn find_sopt(sweeps: &[Vec<FrameStats>]) -> u32 {
    let max_wt = sweeps.iter().map(|s| s.len()).min().unwrap_or(0);
    let mut best = (1u32, f64::MAX);
    for wt in 0..max_wt {
        let mut acc = 0.0;
        for sweep in sweeps {
            let base = sweep[0].cycles.max(1) as f64;
            acc += sweep[wt].cycles as f64 / base;
        }
        let avg = acc / sweeps.len().max(1) as f64;
        if avg < best.1 {
            best = (wt as u32 + 1, avg);
        }
    }
    best.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use emerald::scene::workloads::w_models;

    #[test]
    fn workbench_renders_and_wt_changes_apply() {
        let w3 = &w_models()[2]; // cube: cheapest
        let mut wb = Workbench::new(w3, 96, 72);
        let a = wb.render_frame(0, 1);
        assert!(a.fragments > 100);
        let b = wb.render_frame(1, 5);
        assert_eq!(wb.renderer.wt(), 5);
        assert!(b.fragments > 100);
    }

    #[test]
    fn sweep_covers_requested_range() {
        let w3 = &w_models()[2];
        let sweep = wt_sweep(w3, 96, 72, 3, 1);
        assert_eq!(sweep.len(), 3);
        assert!(sweep.iter().all(|s| s.cycles > 0));
    }

    #[test]
    fn dfsl_policy_tracks_controller_schedule() {
        let w3 = &w_models()[2];
        let cfg = DfslConfig {
            min_wt: 1,
            max_wt: 3,
            run_frames: 2,
        };
        let run = run_policy(w3, Policy::Dfsl(cfg), 5, 96, 72);
        assert_eq!(run.wt_per_frame[..3], [1, 2, 3]);
        // Run phase uses the measured best.
        let best = run.wt_per_frame[3];
        assert_eq!(run.wt_per_frame[4], best);
        assert!(run.mean() > 0.0);
        assert!(run.mean_last(2) > 0.0);
    }

    #[test]
    fn sopt_picks_argmin_of_average() {
        let mk = |cycles: &[u64]| {
            cycles
                .iter()
                .map(|&c| FrameStats {
                    cycles: c,
                    ..FrameStats::default()
                })
                .collect::<Vec<_>>()
        };
        // Workload A best at wt2, workload B best at wt2 → SOPT 2.
        let sweeps = vec![mk(&[100, 80, 120]), mk(&[200, 150, 260])];
        assert_eq!(find_sopt(&sweeps), 2);
    }
}

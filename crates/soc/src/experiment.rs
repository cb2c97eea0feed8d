//! Case study I harness: the BAS/DCB/DTB/HMC configurations under the
//! regular- and high-load scenarios (§5.2, Table 6).

use crate::soc::{Soc, SocConfig, SocFrameRecord};
use emerald_common::types::Cycle;
use emerald_core::session::SceneBinding;
use emerald_mem::dash::{Clustering, DashConfig};
use emerald_mem::dram::DramConfig;
use emerald_mem::system::{MemorySystemConfig, SourceClass};
use emerald_scene::workloads::WorkloadDef;

/// The four memory configurations of Table 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemCfgKind {
    /// Baseline: interleaved channels, FR-FCFS.
    Bas,
    /// DASH with CPU-bandwidth clustering.
    Dcb,
    /// DASH with system-bandwidth clustering.
    Dtb,
    /// Heterogeneous memory controllers (source-partitioned channels).
    Hmc,
}

impl MemCfgKind {
    /// All four configurations, in the paper's order.
    pub const ALL: [MemCfgKind; 4] = [
        MemCfgKind::Bas,
        MemCfgKind::Dcb,
        MemCfgKind::Dtb,
        MemCfgKind::Hmc,
    ];

    /// The paper's abbreviation.
    pub fn label(self) -> &'static str {
        match self {
            MemCfgKind::Bas => "BAS",
            MemCfgKind::Dcb => "DCB",
            MemCfgKind::Dtb => "DTB",
            MemCfgKind::Hmc => "HMC",
        }
    }

    /// Builds the memory-system configuration (2 channels, Table 4/5).
    ///
    /// DASH's TCM quantum is scaled from the paper's 1 M cycles to 100 K:
    /// the experiments compress real time (frames are 10-100× shorter than
    /// 16 ms), so the clustering window must shrink proportionally or no
    /// re-clustering would ever happen within a run.
    pub fn build(self, dram: DramConfig) -> MemorySystemConfig {
        let dash_cfg = |clustering| DashConfig {
            quantum: 100_000,
            ..DashConfig::paper(clustering)
        };
        match self {
            MemCfgKind::Bas => MemorySystemConfig::baseline(2, dram),
            MemCfgKind::Dcb => MemorySystemConfig::dash(2, dram, dash_cfg(Clustering::CpuOnly)),
            MemCfgKind::Dtb => MemorySystemConfig::dash(2, dram, dash_cfg(Clustering::System)),
            MemCfgKind::Hmc => MemorySystemConfig::hmc(2, dram),
        }
    }
}

/// Aggregated results for one (workload, config) cell.
#[derive(Debug, Clone)]
pub struct CaseStudyResult {
    /// Configuration label ("BAS"…).
    pub config: &'static str,
    /// Workload id ("M1"…).
    pub model: String,
    /// Per-frame records (profiled frames only; warm-up excluded).
    pub frames: Vec<SocFrameRecord>,
    /// Mean GPU render time per frame.
    pub avg_gpu_cycles: f64,
    /// Mean total application frame time.
    pub avg_total_cycles: f64,
    /// DRAM row-buffer hit rate over the profiled frames.
    pub row_hit_rate: f64,
    /// Bytes transferred per row activation.
    pub bytes_per_activation: f64,
    /// Display bytes serviced during the profiled frames.
    pub display_serviced_bytes: u64,
    /// Display frames aborted.
    pub display_aborts: u64,
    /// Bandwidth timelines per source class `(window_start, bytes)`.
    pub probes: Vec<(SourceClass, Vec<(Cycle, u64)>)>,
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
    /// GPU frame period in cycles (from [`calibrate_period`]).
    pub gpu_frame_period: Cycle,
    /// Bandwidth-probe window; `None` disables probes.
    pub probe_window: Option<Cycle>,
    /// Per-frame cycle budget before declaring deadlock.
    pub max_cycles_per_frame: Cycle,
}

/// Measures the BAS GPU frame time for `workload` and derives the frame
/// period used across all configurations (the paper's app meets 60 FPS
/// under the baseline, so the deadline sits above the BAS render time).
pub fn calibrate_period(workload: &WorkloadDef, width: u32, height: u32) -> Cycle {
    let cfg = SocConfig::case_study_1(
        MemCfgKind::Bas.build(DramConfig::lpddr3_1333()),
        width,
        height,
        Cycle::MAX / 4, // placeholder; no DASH in calibration
    );
    let mut soc = Soc::new(cfg);
    let binding = SceneBinding::new(&soc.mem, workload);
    let aspect = width as f32 / height as f32;
    let rec = soc.run_frame(vec![binding.draw_for_frame(0, aspect, false)], 400_000_000);
    // Floor: the display (at half this period) must be able to scan the
    // framebuffer with a modest share of DRAM bandwidth — tiny GPU frames
    // (M4) would otherwise derive a physically impossible refresh rate.
    let fb_bytes = width as Cycle * height as Cycle * 4;
    ((rec.gpu_cycles as f64 * 1.6) as Cycle).max(3 * fb_bytes)
}

/// Runs one (workload, config) cell: 1 warm-up + `params.frames` profiled
/// frames, statistics reset after warm-up.
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
    let mut reg = emerald_obs::Registry::new();
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
    let delta = reg.delta_since(&warmup);
    let counter = |path: &str| delta.get(path).map(|v| v.scalar() as u64).unwrap_or(0);
    let bytes = counter("mem.dram.bytes") as f64;
    let activations = counter("mem.dram.activations") as f64;
    let probes = SourceClass::ALL
        .iter()
        .map(|&c| (c, soc.memsys.probe_samples(c).to_vec()))
        .collect();
    let n = frames.len() as f64;
    CaseStudyResult {
        config: kind.label(),
        model: workload.id.to_string(),
        avg_gpu_cycles: frames.iter().map(|r| r.gpu_cycles as f64).sum::<f64>() / n,
        avg_total_cycles: frames.iter().map(|r| r.total_cycles as f64).sum::<f64>() / n,
        row_hit_rate: delta
            .get("mem.dram.row_hits")
            .map(|v| v.scalar())
            .unwrap_or(0.0),
        bytes_per_activation: if activations > 0.0 {
            bytes / activations
        } else {
            0.0
        },
        display_serviced_bytes: counter("soc.display.serviced_bytes"),
        display_aborts: counter("soc.display.frames_aborted"),
        probes,
        frames,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emerald_scene::workloads::m_models;

    /// A miniature end-to-end sweep: M2 (cube) at small resolution under
    /// BAS and HMC; validates harness plumbing and the headline ordering.
    #[test]
    fn mini_sweep_bas_vs_hmc() {
        let m2 = &m_models()[1];
        let period = calibrate_period(m2, 64, 48);
        assert!(period > 0);
        let params = RunParams {
            width: 64,
            height: 48,
            frames: 2,
            dram: DramConfig::lpddr3_1333(),
            gpu_frame_period: period,
            probe_window: Some(2_000),
            max_cycles_per_frame: 60_000_000,
        };
        let bas = run_cell(m2, MemCfgKind::Bas, &params);
        let hmc = run_cell(m2, MemCfgKind::Hmc, &params);
        assert_eq!(bas.frames.len(), 2);
        assert!(bas.row_hit_rate > 0.0 && bas.row_hit_rate <= 1.0);
        assert!(bas.bytes_per_activation > 0.0);
        assert!(
            hmc.avg_gpu_cycles > bas.avg_gpu_cycles,
            "HMC {} should exceed BAS {}",
            hmc.avg_gpu_cycles,
            bas.avg_gpu_cycles
        );
        // Probes recorded GPU traffic.
        let gpu_bytes: u64 = bas
            .probes
            .iter()
            .find(|(c, _)| *c == SourceClass::Gpu)
            .map(|(_, s)| s.iter().map(|(_, b)| b).sum())
            .unwrap();
        assert!(gpu_bytes > 0);
    }

    #[test]
    fn labels_and_configs() {
        assert_eq!(MemCfgKind::Bas.label(), "BAS");
        assert_eq!(MemCfgKind::ALL.len(), 4);
        for k in MemCfgKind::ALL {
            let cfg = k.build(DramConfig::lpddr3_1333());
            assert_eq!(cfg.channels, 2);
        }
    }
}

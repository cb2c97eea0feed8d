//! Case study I set-up: the BAS/DCB/DTB/HMC configurations (§5.2,
//! Table 6) and the GPU frame period every configuration shares.

use crate::soc::{Soc, SocConfig};
use emerald_common::types::Cycle;
use emerald_core::session::SceneBinding;
use emerald_mem::dash::{Clustering, DashConfig};
use emerald_mem::dram::DramConfig;
use emerald_mem::system::MemorySystemConfig;
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

#[cfg(test)]
mod tests {
    use super::*;

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

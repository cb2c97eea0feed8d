//! Graphics pipeline configuration (Table 7 fixed-function parameters).

/// Fixed-function pipeline parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct GfxConfig {
    /// Raster tile edge in pixels (Table 7: 4×4). Coarse and fine raster
    /// each emit one raster tile per cycle (Table 7's raster throughput).
    pub raster_tile: u32,
    /// TC tile edge in raster tiles (Table 7: 2×2 ⇒ 8×8 pixels). Each TC
    /// engine stages `tc_tile_raster²` raster tiles (Table 7's 4 bins).
    pub tc_tile_raster: u32,
    /// TC engines per cluster (Table 7: 2).
    pub tc_engines: usize,
    /// Cycles a TCE waits without new raster tiles before flushing.
    pub tc_timeout: u64,
    /// Hierarchical-Z enabled.
    pub hiz_enabled: bool,
    /// Pipeline latency of primitive setup, cycles.
    pub setup_latency: u64,
    /// Max in-flight vertex warps (the OVB/PMRB credit limit; Table 5's
    /// 36 KB output vertex buffer ≈ 9 K vertices ≈ 36 warps of 32 lanes +
    /// overlap slack).
    pub max_vertex_warps: usize,
    /// Work-tile (WT) size in TC tiles for core assignment (Fig. 15).
    pub wt_size: u32,
    /// Use tile coalescing; when off, each raster tile dispatches its own
    /// fragment warps immediately (ablation).
    pub tc_enabled: bool,
    /// Overlap vertex warps per primitive topology (§3.3.3); when off,
    /// warps are packed densely and primitives may span warps, which the
    /// VPO resolves with a serialization penalty (ablation).
    pub vertex_overlap: bool,
    /// Out-of-order primitive processing (§3.3.6): when a draw has depth
    /// testing on and blending off, PMRBs may consume late-arriving masks
    /// out of draw order. The paper leaves this to future work; it is off
    /// by default to match the evaluated configuration.
    pub ooo_prims: bool,
}

impl Default for GfxConfig {
    fn default() -> Self {
        Self::case_study_2()
    }
}

impl GfxConfig {
    /// The case study II configuration (Table 7).
    pub fn case_study_2() -> Self {
        Self {
            raster_tile: 4,
            tc_tile_raster: 2,
            tc_engines: 2,
            tc_timeout: 64,
            hiz_enabled: true,
            setup_latency: 10,
            max_vertex_warps: 36,
            wt_size: 1,
            tc_enabled: true,
            vertex_overlap: true,
            ooo_prims: false,
        }
    }

    /// Case study I used "an earlier version of Emerald with a simpler
    /// pixel tile launcher and a centralized output vertex buffer" (§5.2);
    /// the same pipeline with a single TCE and tighter credits stands in.
    pub fn case_study_1() -> Self {
        Self {
            tc_engines: 1,
            max_vertex_warps: 9,
            ..Self::case_study_2()
        }
    }

    /// TC tile edge in pixels.
    pub(crate) fn tc_tile_px(&self) -> u32 {
        self.raster_tile * self.tc_tile_raster
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table7_fixed_function_values() {
        let c = GfxConfig::case_study_2();
        assert_eq!(c.raster_tile, 4);
        assert_eq!(c.tc_tile_raster, 2);
        assert_eq!(c.tc_engines, 2);
        assert_eq!(c.tc_tile_px(), 8);
    }

    #[test]
    fn default_is_case_study_2() {
        assert_eq!(GfxConfig::default(), GfxConfig::case_study_2());
    }
}

//! GPU configuration presets (Tables 5 and 7 of the paper).

use emerald_mem::cache::CacheConfig;

/// Warp scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarpSched {
    /// Greedy-then-oldest (GPGPU-Sim's default; keeps issuing the same
    /// warp until it stalls, then falls back to the oldest ready warp).
    Gto,
    /// Loose round-robin: rotate through ready warps.
    Lrr,
}

/// Full GPU microarchitecture configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Number of SIMT clusters (each with its own graphics fixed-function
    /// pipeline in `emerald-core`).
    pub clusters: usize,
    /// SIMT cores per cluster (32 lanes each).
    pub cores_per_cluster: usize,
    /// Maximum resident warps per core, at most 64: a core keeps warp
    /// readiness as `u64` slot masks.
    pub max_warps_per_core: usize,
    /// Register file size per core (32-bit registers).
    pub regs_per_core: usize,
    /// Warp schedulers per core (instructions issued per cycle).
    pub schedulers_per_core: usize,
    /// Warp scheduling policy.
    pub warp_sched: WarpSched,
    /// Simple-ALU result latency in cycles.
    pub alu_latency: u32,
    /// SFU (div/sqrt/transcendental) result latency in cycles.
    pub sfu_latency: u32,
    /// Shared-memory (scratchpad) access latency in cycles.
    pub smem_latency: u32,
    /// In-flight line requests the per-core LSU can track.
    pub lsu_entries: usize,
    /// L1 data cache (global + pixel color).
    pub l1d: CacheConfig,
    /// L1 texture cache.
    pub l1t: CacheConfig,
    /// L1 depth cache.
    pub l1z: CacheConfig,
    /// L1 constant & vertex cache.
    pub l1c: CacheConfig,
    /// Shared L2 cache, split into [`GpuConfig::l2_banks`] banks.
    pub l2: CacheConfig,
    /// Number of L2 banks.
    pub l2_banks: usize,
    /// Core↔L2 interconnect latency (each direction).
    pub icnt_latency: u64,
    /// Core↔L2 interconnect accepts this many messages per cycle.
    pub icnt_per_cycle: usize,
    /// Host worker threads for the parallel core-execution phase; 1 runs
    /// the phase on the calling thread. Results are bit-identical at any
    /// value (see `Gpu::cycle`). Presets set 1; callers that want the
    /// pool set the field.
    pub threads: usize,
    /// Minimum number of *active* cores in a cycle before the worker pool
    /// is engaged; below it the phase runs inline on the caller, which is
    /// faster for lightly-loaded cycles (the per-phase dispatch handoff
    /// costs more than the work). `0` forces the pool on every non-empty
    /// cycle regardless of host CPU count (used by conformance to exercise
    /// the parallel path); `usize::MAX` disables the pool entirely. Results
    /// are bit-identical at any value. Presets set
    /// [`DEFAULT_PARALLEL_THRESHOLD`].
    pub parallel_threshold: usize,
    /// Clock-jump gate: when true, the loops that schedule cycles
    /// (`Gpu::run_to_idle`, `GpuRenderer::run_frame` and the SoC clock)
    /// jump over provably idle stretches using the
    /// `emerald_common::event::NextEvent` contract instead of ticking
    /// every cycle. It picks a schedule, never a code path: nothing inside
    /// a model (`Gpu::cycle`, a core, the renderer's stages) reads it, so
    /// a cycle that runs is the same cycle either way. Presets turn it on;
    /// results are bit-identical either way, and the lockstep oracles flip
    /// it off to get the per-cycle reference clocking they compare against.
    pub event_skip: bool,
}

/// Default [`GpuConfig::parallel_threshold`]: engage the pool once at
/// least this many cores have work in the same cycle.
pub const DEFAULT_PARALLEL_THRESHOLD: usize = 2;

fn l1(name: &str, size: usize, ways: usize) -> CacheConfig {
    CacheConfig {
        name: name.to_string(),
        size_bytes: size,
        line_bytes: 128,
        ways,
        hit_latency: 1,
        mshrs: 16,
        targets_per_mshr: 16,
    }
}

impl GpuConfig {
    /// Case study I GPU (Table 5): 4 SIMT cores @128 CUDA cores, 16 KB L1D,
    /// 64 KB L1T, 32 KB L1Z, 128 KB shared L2.
    pub fn case_study_1() -> Self {
        Self {
            clusters: 4,
            cores_per_cluster: 1,
            max_warps_per_core: 48,
            regs_per_core: 32768,
            schedulers_per_core: 2,
            warp_sched: WarpSched::Gto,
            alu_latency: 4,
            sfu_latency: 16,
            smem_latency: 20,
            lsu_entries: 64,
            l1d: l1("L1D", 16 << 10, 4),
            l1t: l1("L1T", 64 << 10, 4),
            l1z: l1("L1Z", 32 << 10, 4),
            l1c: l1("L1C", 32 << 10, 4),
            l2: CacheConfig {
                name: "L2".to_string(),
                size_bytes: 128 << 10,
                line_bytes: 128,
                ways: 8,
                hit_latency: 8,
                mshrs: 32,
                targets_per_mshr: 16,
            },
            l2_banks: 2,
            icnt_latency: 8,
            icnt_per_cycle: 8,
            threads: 1,
            parallel_threshold: DEFAULT_PARALLEL_THRESHOLD,
            event_skip: true,
        }
    }

    /// Case study II GPU (Table 7): 6 SIMT clusters @192 CUDA cores,
    /// 2048 threads/core, 65536 regs/core, 32 KB L1D (8-way), 48 KB L1T
    /// (24-way), 32 KB L1Z (8-way), 2 MB 32-way shared L2.
    pub fn case_study_2() -> Self {
        Self {
            clusters: 6,
            cores_per_cluster: 1,
            max_warps_per_core: 64,
            regs_per_core: 65536,
            schedulers_per_core: 2,
            warp_sched: WarpSched::Gto,
            alu_latency: 4,
            sfu_latency: 16,
            smem_latency: 20,
            lsu_entries: 64,
            l1d: l1("L1D", 32 << 10, 8),
            l1t: l1("L1T", 48 << 10, 24),
            l1z: l1("L1Z", 32 << 10, 8),
            l1c: l1("L1C", 32 << 10, 8),
            l2: CacheConfig {
                name: "L2".to_string(),
                size_bytes: 2 << 20,
                line_bytes: 128,
                ways: 32,
                hit_latency: 10,
                mshrs: 64,
                targets_per_mshr: 16,
            },
            l2_banks: 4,
            icnt_latency: 8,
            icnt_per_cycle: 12,
            threads: 1,
            parallel_threshold: DEFAULT_PARALLEL_THRESHOLD,
            event_skip: true,
        }
    }

    /// A deliberately tiny configuration for unit tests (2 clusters, small
    /// caches) so cache effects show up with little traffic.
    pub fn tiny() -> Self {
        let mut c = Self::case_study_1();
        c.clusters = 2;
        c.max_warps_per_core = 8;
        c.l1d = l1("L1D", 4 << 10, 4);
        c.l1t = l1("L1T", 4 << 10, 4);
        c.l1z = l1("L1Z", 4 << 10, 4);
        c.l1c = l1("L1C", 4 << 10, 4);
        c.l2.size_bytes = 32 << 10;
        c.l2_banks = 2;
        c
    }

    /// Total SIMT cores.
    pub(crate) fn total_cores(&self) -> usize {
        self.clusters * self.cores_per_cluster
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_shape() {
        let c = GpuConfig::case_study_1();
        assert_eq!(c.total_cores(), 4); // 128 CUDA cores / 32 lanes
        assert_eq!(c.l1d.size_bytes, 16 << 10);
        assert_eq!(c.l1t.size_bytes, 64 << 10);
        assert_eq!(c.l1z.size_bytes, 32 << 10);
        assert_eq!(c.l2.size_bytes, 128 << 10);
        assert_eq!(c.l1d.line_bytes, 128);
    }

    #[test]
    fn table7_shape() {
        let c = GpuConfig::case_study_2();
        assert_eq!(c.clusters, 6); // 192 CUDA cores / 32 lanes
        assert_eq!(c.max_warps_per_core * 32, 2048); // max threads per core
        assert_eq!(c.regs_per_core, 65536);
        assert_eq!(c.l1d.size_bytes, 32 << 10);
        assert_eq!(c.l1d.ways, 8);
        assert_eq!(c.l1t.size_bytes, 48 << 10);
        assert_eq!(c.l1t.ways, 24);
        assert_eq!(c.l2.size_bytes, 2 << 20);
        assert_eq!(c.l2.ways, 32);
    }
}

//! Compute kernel launches: grids of CTAs (thread blocks) dispatched onto
//! SIMT cores — the GPGPU half of Emerald's unified model.

use emerald_isa::reg::input;
use emerald_isa::{Program, WarpRegs};
use std::sync::Arc;

/// A compute kernel launch description.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// The kernel program.
    pub program: Arc<Program>,
    /// Number of CTAs in the (1D) grid.
    pub grid_ctas: usize,
    /// Threads per CTA (rounded up to whole warps at dispatch).
    pub threads_per_cta: usize,
    /// Uniform parameters (`%paramN`), shared by every warp of the launch.
    pub params: Arc<[u32]>,
    /// Scratchpad bytes per CTA (carved from the shared space; the base is
    /// delivered in `%input3`).
    pub shared_bytes: u32,
}

/// Input-slot convention: shared-memory base address for this CTA.
pub const INPUT_SHARED_BASE: usize = 3;

impl Kernel {
    /// A 1D kernel of `threads` total threads in CTAs of `cta_size`.
    ///
    /// # Panics
    ///
    /// Panics if `cta_size == 0` or `cta_size > 1024`.
    pub fn linear(
        program: Arc<Program>,
        threads: usize,
        cta_size: usize,
        params: impl Into<Arc<[u32]>>,
    ) -> Self {
        assert!(cta_size > 0 && cta_size <= 1024);
        Self {
            program,
            grid_ctas: threads.div_ceil(cta_size),
            threads_per_cta: cta_size,
            params: params.into(),
            shared_bytes: 0,
        }
    }

    /// Warps per CTA.
    pub fn warps_per_cta(&self) -> usize {
        self.threads_per_cta.div_ceil(32)
    }

    /// The register file and lane count of warp `warp_in_cta` of CTA
    /// `cta`, following the input conventions: `%input0` = global thread
    /// id, `%input1` = CTA id, `%input2` = thread id within the CTA,
    /// `%input3` = this CTA's shared-memory base (slots the program never
    /// reads are not stored).
    pub(crate) fn warp_regs(
        &self,
        cta: usize,
        warp_in_cta: usize,
        shared_base: u32,
    ) -> (WarpRegs, usize) {
        let first = warp_in_cta * 32;
        let lanes = (self.threads_per_cta - first).min(32);
        let first_gid = cta * self.threads_per_cta + first;
        let mut regs = WarpRegs::new(&self.program);
        regs.set_input_row(input::ID, lanes, |lane| (first_gid + lane) as u32);
        regs.set_input_row(input::CTA_ID, lanes, |_| cta as u32);
        regs.set_input_row(input::TID_IN_CTA, lanes, |lane| (first + lane) as u32);
        regs.set_input_row(INPUT_SHARED_BASE, lanes, |_| shared_base);
        (regs, lanes)
    }
}

/// Dispatcher-side state of one in-flight kernel.
#[derive(Debug)]
pub(crate) struct KernelState {
    /// The launch.
    pub kernel: Kernel,
    /// Next CTA to place.
    pub next_cta: usize,
    /// Warps launched but not yet retired.
    pub warps_outstanding: usize,
    /// Shared-memory bases are carved sequentially per CTA.
    pub next_shared_base: u32,
}

impl KernelState {
    /// Wraps a launch.
    pub(crate) fn new(kernel: Kernel) -> Self {
        Self {
            kernel,
            next_cta: 0,
            warps_outstanding: 0,
            next_shared_base: 0,
        }
    }

    /// True when every CTA is placed and every warp retired.
    pub(crate) fn is_done(&self) -> bool {
        self.next_cta >= self.kernel.grid_ctas && self.warps_outstanding == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emerald_isa::{assemble, ThreadState};

    fn prog() -> Arc<Program> {
        Arc::new(assemble("mov.b32 r0, %input0\nexit").unwrap())
    }

    /// The launch inputs of a warp, lane by lane.
    fn lane_inputs(k: &Kernel, cta: usize, warp_in_cta: usize, base: u32) -> Vec<ThreadState> {
        let (regs, lanes) = k.warp_regs(cta, warp_in_cta, base);
        let mut ts = vec![ThreadState::new(); lanes];
        regs.scatter(&mut ts);
        ts
    }

    #[test]
    fn linear_launch_geometry() {
        let k = Kernel::linear(prog(), 1000, 256, vec![]);
        assert_eq!(k.grid_ctas, 4);
        assert_eq!(k.warps_per_cta(), 8);
    }

    #[test]
    fn thread_inputs_follow_convention() {
        let reads_all = "add.u32 r0, %input0, %input1\nadd.u32 r0, %input2, %input3\nexit";
        let k = Kernel::linear(Arc::new(assemble(reads_all).unwrap()), 512, 128, vec![]);
        let ts = lane_inputs(&k, 2, 1, 0x40);
        assert_eq!(ts.len(), 32);
        // CTA 2, warp 1 → tid_in_cta 32..64, gid 288..320.
        assert_eq!(ts[0].inputs[input::ID], 288);
        assert_eq!(ts[0].inputs[input::CTA_ID], 2);
        assert_eq!(ts[0].inputs[input::TID_IN_CTA], 32);
        assert_eq!(ts[0].inputs[INPUT_SHARED_BASE], 0x40);
        assert_eq!(ts[31].inputs[input::ID], 319);
        // A program that reads only `%input0` gets only that slot.
        let ts = lane_inputs(&Kernel::linear(prog(), 512, 128, vec![]), 2, 1, 0x40);
        assert_eq!(ts[0].inputs[..4], [288, 0, 0, 0]);
    }

    #[test]
    fn ragged_final_warp() {
        let k = Kernel::linear(prog(), 40, 40, vec![]);
        assert_eq!(k.warps_per_cta(), 2);
        let (_, lanes) = k.warp_regs(0, 1, 0);
        assert_eq!(lanes, 8); // 40 - 32
    }

    #[test]
    fn state_done_tracking() {
        let k = Kernel::linear(prog(), 64, 64, vec![]);
        let mut s = KernelState::new(k);
        assert!(!s.is_done());
        s.next_cta = 1;
        s.warps_outstanding = 2;
        assert!(!s.is_done());
        s.warps_outstanding = 0;
        assert!(s.is_done());
    }
}

//! Resident warp state.

use crate::simt::SimtStack;
use emerald_isa::program::Decoded;
use emerald_isa::{Program, WarpRegs};
use std::sync::Arc;

/// Identifies what a finished warp belonged to, so the launcher (compute
/// dispatcher or graphics pipeline) can account completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WarpTag {
    /// A compute warp: `(kernel id, CTA index)`.
    Compute {
        /// Kernel launch id.
        kernel: usize,
        /// CTA (thread block) index within the grid.
        cta: usize,
    },
    /// A warp launched by an external engine (the graphics pipeline);
    /// the payload is interpreted by that engine.
    External(u64),
}

/// A warp resident in a SIMT core.
#[derive(Debug)]
pub struct Warp {
    /// Architectural state of every lane, register-major.
    pub regs: WarpRegs,
    /// Reconvergence stack.
    pub stack: SimtStack,
    /// The shader/kernel this warp runs.
    pub program: Arc<Program>,
    /// Uniform launch parameters.
    pub params: Arc<[u32]>,
    /// Owner bookkeeping tag.
    pub tag: WarpTag,
    /// Registers with a write in flight (bit `i` = `ri`). One bit each is
    /// exact: `Warp::has_hazard` holds an instruction back while any of
    /// its *destinations* is pending, so a register never has two
    /// producers in flight.
    pub pending_regs: u64,
    /// Outstanding memory tokens (LSU completions we still wait on before
    /// the warp may fully retire).
    pub outstanding_mem: u32,
    /// Waiting at a CTA barrier.
    pub at_barrier: bool,
    /// All paths retired (still occupies the slot until
    /// `outstanding_mem == 0`).
    pub exited: bool,
    /// CTA barrier group: `(kernel, cta, warps_in_cta)`.
    pub cta_group: Option<(usize, usize, usize)>,
    /// Dynamic instructions issued (stats).
    pub instrs_issued: u64,
    /// The scheduler's view of the warp: the decode of the instruction at
    /// the current pc, `None` once every path has retired. Cached here so
    /// a readiness test reads this struct alone instead of chasing
    /// `stack` and `program`; [`Warp::refresh_next`] re-reads it wherever
    /// `stack` moves.
    next: Option<Decoded>,
}

impl Warp {
    /// Creates a warp running `program` on `regs` (built for it) whose
    /// lanes `0..lanes` are active.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= lanes <= 32`: a warp without a lane would never
    /// retire.
    pub fn new(
        regs: WarpRegs,
        lanes: usize,
        program: Arc<Program>,
        params: Arc<[u32]>,
        tag: WarpTag,
    ) -> Self {
        assert!(
            (1..=32).contains(&lanes),
            "a warp has 1..=32 lanes, not {lanes}"
        );
        let mut warp = Self {
            regs,
            stack: SimtStack::new(u32::MAX >> (32 - lanes)),
            program,
            params,
            tag,
            pending_regs: 0,
            outstanding_mem: 0,
            at_barrier: false,
            exited: false,
            cta_group: None,
            instrs_issued: 0,
            next: None,
        };
        warp.refresh_next();
        warp
    }

    /// Re-reads the cached decode of the next instruction; call after
    /// anything moves `stack`.
    pub(crate) fn refresh_next(&mut self) {
        self.next = self.stack.top().map(|e| self.program.decoded(e.pc));
    }

    /// The next instruction's decode if the warp may issue it now:
    /// [`Warp::can_issue`] and not [`Warp::has_hazard`], answered from the
    /// cached view.
    pub(crate) fn issuable(&self) -> Option<Decoded> {
        self.next
            .filter(|d| !self.exited && !self.at_barrier && self.pending_regs & d.hazard == 0)
    }

    /// True when the warp has fully retired (no paths, no pending memory).
    pub(crate) fn is_finished(&self) -> bool {
        self.exited && self.outstanding_mem == 0
    }

    /// True when the scheduler may issue this warp's next instruction.
    pub(crate) fn can_issue(&self) -> bool {
        !self.exited && !self.at_barrier && !self.stack.is_done()
    }

    /// Scoreboard check: does the instruction at the current pc read or
    /// write a register still being produced?
    pub(crate) fn has_hazard(&self) -> bool {
        self.pending_regs & self.program.decoded(self.stack.pc()).hazard != 0
    }

    /// Marks the registers in `mask` as having a write in flight.
    pub(crate) fn acquire_regs(&mut self, mask: u64) {
        debug_assert_eq!(
            self.pending_regs & mask,
            0,
            "a pending register gained a second producer"
        );
        self.pending_regs |= mask;
    }

    /// Clears the registers in `mask` (writeback).
    pub(crate) fn release_regs(&mut self, mask: u64) {
        self.pending_regs &= !mask;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emerald_isa::assemble;

    fn warp_of(src: &str, lanes: usize) -> Warp {
        let program = Arc::new(assemble(src).unwrap());
        let regs = WarpRegs::new(&program);
        Warp::new(regs, lanes, program, Arc::from([]), WarpTag::External(0))
    }

    fn warp(src: &str) -> Warp {
        warp_of(src, 4)
    }

    #[test]
    fn partial_warp_mask() {
        let w = warp("exit");
        assert_eq!(w.stack.active_mask(), 0xf);
        assert_eq!(warp_of("exit", 1).stack.active_mask(), 1);
        assert_eq!(warp_of("exit", 32).stack.active_mask(), u32::MAX);
    }

    #[test]
    fn scoreboard_hazard_detection() {
        let mut w = warp("add.f32 r2, r1, r0\nexit");
        assert!(!w.has_hazard());
        w.acquire_regs(1 << 1);
        assert!(w.has_hazard()); // r1 is a source
        w.release_regs(1 << 1);
        assert!(!w.has_hazard());
        // WAW: pending r2 blocks too.
        w.acquire_regs(1 << 2);
        assert!(w.has_hazard());
        // Unrelated registers do not.
        w.release_regs(1 << 2);
        w.acquire_regs(1 << 3 | 1 << 63);
        assert!(!w.has_hazard());
    }

    /// The invariant the one-bit scoreboard rests on: whatever an
    /// instruction would acquire, `has_hazard` refuses while any of it is
    /// still pending — so a second acquire of a pending register cannot be
    /// reached through issue (and `acquire_regs` asserts as much).
    #[test]
    fn pending_destination_is_never_reacquired() {
        // WAW on a single register.
        let mut w = warp("mov.b32 r5, 1\nexit");
        let dst = w.program.decoded(0).dst;
        assert_eq!(dst, 1 << 5);
        w.acquire_regs(dst);
        assert!(w.has_hazard(), "second write to r5 must wait");
        w.release_regs(dst);
        assert!(!w.has_hazard());

        // A tex2d quad: any one pending register of r8..r11 blocks it.
        let mut w = warp("tex2d r8, [r0, r1], s0\nexit");
        let quad = w.program.decoded(0).dst;
        assert_eq!(quad, 0xf << 8);
        for r in 8..12 {
            w.acquire_regs(1 << r);
            assert!(w.has_hazard(), "r{r} pending");
            w.release_regs(1 << r);
        }
        w.acquire_regs(quad);
        assert!(w.has_hazard());
        // A stale release (a retired warp's writeback landing on the slot's
        // next tenant) clears bits without underflow.
        w.release_regs(quad | 1 << 40);
        assert_eq!(w.pending_regs, 0);
    }

    #[test]
    fn finished_requires_memory_drain() {
        let mut w = warp("exit");
        w.exited = true;
        w.outstanding_mem = 1;
        assert!(!w.is_finished());
        w.outstanding_mem = 0;
        assert!(w.is_finished());
    }

    #[test]
    #[should_panic]
    fn oversized_warp_rejected() {
        let _ = warp_of("exit", 33);
    }

    #[test]
    #[should_panic]
    fn empty_warp_rejected() {
        let _ = warp_of("exit", 0);
    }
}

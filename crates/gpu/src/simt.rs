//! SIMT reconvergence stacks (the IPDOM scheme used by GPGPU-Sim).
//!
//! Each warp carries a stack of `(pc, reconvergence-pc, active-mask)`
//! entries. Divergent branches split the top entry into taken/not-taken
//! paths that rejoin at the branch's immediate post-dominator, which the
//! assembler encodes directly into the `bra` instruction.

/// Sentinel "no reconvergence point" (the stack's root entry).
pub const NO_RECONV: usize = usize::MAX;

/// One stack entry: execute at `pc` with `mask` until `pc == rpc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StackEntry {
    /// Next instruction for this path.
    pub pc: usize,
    /// Reconvergence pc (pop when reached).
    pub rpc: usize,
    /// Lanes active on this path.
    pub mask: u32,
}

/// A per-warp SIMT reconvergence stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimtStack {
    entries: Vec<StackEntry>,
}

impl SimtStack {
    /// A fresh stack starting at pc 0 with the given lanes active.
    pub fn new(mask: u32) -> Self {
        Self {
            entries: vec![StackEntry {
                pc: 0,
                rpc: NO_RECONV,
                mask,
            }],
        }
    }

    /// The executing entry, or `None` when the warp has fully retired.
    pub(crate) fn top(&self) -> Option<&StackEntry> {
        self.entries.last()
    }

    /// Current pc (panics when empty — callers check [`SimtStack::is_done`]
    /// first).
    pub fn pc(&self) -> usize {
        self.entries.last().expect("empty SIMT stack").pc
    }

    /// Current active mask.
    pub fn active_mask(&self) -> u32 {
        self.entries.last().map_or(0, |e| e.mask)
    }

    /// True when every path has retired.
    pub fn is_done(&self) -> bool {
        self.entries.is_empty()
    }

    /// Advances past a non-branch instruction, popping any entries that
    /// reach their reconvergence point.
    pub fn advance(&mut self) {
        if let Some(e) = self.entries.last_mut() {
            e.pc += 1;
        }
        self.pop_reconverged();
    }

    /// Applies a branch executed at the current pc.
    ///
    /// `taken` is the lane mask (subset of the active mask) that takes the
    /// branch to `target`; the rest fall through. `reconv` is the
    /// post-dominator from the instruction encoding.
    pub fn branch(&mut self, taken: u32, target: usize, reconv: usize) {
        let Some(top) = self.entries.last().copied() else {
            return;
        };
        let active = top.mask;
        let taken = taken & active;
        let not_taken = active & !taken;
        let fall_through = top.pc + 1;

        if taken == 0 {
            // Uniformly not taken.
            self.entries.last_mut().expect("top exists").pc = fall_through;
        } else if not_taken == 0 {
            // Uniformly taken.
            self.entries.last_mut().expect("top exists").pc = target;
        } else {
            // Divergence: the current entry becomes the reconvergence
            // placeholder; push both paths (not-taken below taken so the
            // taken path executes first, matching GPGPU-Sim).
            let e = self.entries.last_mut().expect("top exists");
            e.pc = reconv;
            self.entries.push(StackEntry {
                pc: fall_through,
                rpc: reconv,
                mask: not_taken,
            });
            self.entries.push(StackEntry {
                pc: target,
                rpc: reconv,
                mask: taken,
            });
        }
        self.pop_reconverged();
    }

    /// Retires `mask` lanes permanently (exit or fragment kill). Removes
    /// them from every entry and pops exhausted paths.
    pub fn retire_lanes(&mut self, mask: u32) {
        for e in &mut self.entries {
            e.mask &= !mask;
        }
        while self.entries.last().is_some_and(|e| e.mask == 0) {
            self.entries.pop();
        }
        // Dead inner entries (mask 0 below live ones) are popped lazily by
        // `pop_reconverged` when control reaches them.
    }

    /// Retires the entire current path (an `exit` executed by all lanes of
    /// the top entry).
    pub fn exit_path(&mut self) {
        let mask = self.active_mask();
        self.retire_lanes(mask);
    }

    fn pop_reconverged(&mut self) {
        loop {
            match self.entries.last() {
                Some(e) if e.mask == 0 => {
                    self.entries.pop();
                }
                Some(e) if e.rpc != NO_RECONV && e.pc == e.rpc => {
                    self.entries.pop();
                }
                _ => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straight_line_advance() {
        let mut s = SimtStack::new(0xf);
        assert_eq!(s.pc(), 0);
        s.advance();
        assert_eq!(s.pc(), 1);
        assert_eq!(s.active_mask(), 0xf);
        assert_eq!(s.entries.len(), 1);
    }

    #[test]
    fn uniform_branches_do_not_push() {
        let mut s = SimtStack::new(0xf);
        s.branch(0xf, 10, 20); // all taken
        assert_eq!(s.pc(), 10);
        assert_eq!(s.entries.len(), 1);
        s.branch(0x0, 3, 20); // none taken: falls through to 11
        assert_eq!(s.pc(), 11);
        assert_eq!(s.entries.len(), 1);
    }

    #[test]
    fn divergence_and_reconvergence() {
        // if (lane < 2) {A at pc1..2} else {B at pc5..6}; reconv at 7.
        let mut s = SimtStack::new(0xf);
        // Branch at pc 0: lanes 2,3 take to 5; reconv 7.
        s.branch(0b1100, 5, 7);
        // Taken path on top.
        assert_eq!(s.pc(), 5);
        assert_eq!(s.active_mask(), 0b1100);
        assert_eq!(s.entries.len(), 3);
        s.advance(); // 6
        s.advance(); // 7 == rpc -> pop; now not-taken path at 1
        assert_eq!(s.pc(), 1);
        assert_eq!(s.active_mask(), 0b0011);
        s.advance(); // 2
        for _ in 0..5 {
            s.advance();
        }
        // pc hits 7 -> pop; reconverged entry resumes at 7 with full mask.
        assert_eq!(s.pc(), 7);
        assert_eq!(s.active_mask(), 0xf);
        assert_eq!(s.entries.len(), 1);
    }

    #[test]
    fn nested_divergence() {
        let mut s = SimtStack::new(0xff);
        s.branch(0x0f, 10, 30); // outer: lanes 0-3 to 10, 4-7 fall to 1
        assert_eq!((s.pc(), s.active_mask()), (10, 0x0f));
        s.branch(0x03, 20, 25); // inner divergence within taken path
        assert_eq!((s.pc(), s.active_mask()), (20, 0x03));
        assert_eq!(s.entries.len(), 5);
        // Run inner taken path to its reconv at 25.
        for _ in 20..25 {
            s.advance();
        }
        assert_eq!((s.pc(), s.active_mask()), (11, 0x0c)); // inner not-taken
        for _ in 11..25 {
            s.advance();
        }
        // Inner reconverged at 25 with mask 0x0f, continue to outer rpc 30.
        assert_eq!((s.pc(), s.active_mask()), (25, 0x0f));
        for _ in 25..30 {
            s.advance();
        }
        // Outer taken path done; not-taken path of outer branch resumes.
        assert_eq!((s.pc(), s.active_mask()), (1, 0xf0));
    }

    #[test]
    fn retire_lanes_pops_empty_paths() {
        let mut s = SimtStack::new(0b1111);
        s.branch(0b1100, 5, 9);
        assert_eq!(s.active_mask(), 0b1100);
        s.exit_path(); // taken path exits entirely
        assert_eq!((s.pc(), s.active_mask()), (1, 0b0011));
        s.retire_lanes(0b0011);
        // Root entry had mask 0b1111 minus everything retired = 0.
        assert!(s.is_done());
    }

    #[test]
    fn partial_kill_keeps_path_alive() {
        let mut s = SimtStack::new(0b1111);
        s.retire_lanes(0b0101);
        assert_eq!(s.active_mask(), 0b1010);
        assert!(!s.is_done());
    }

    #[test]
    fn loop_back_branch() {
        // pc0: body; pc1: bra target=0 reconv=2 while lanes remain.
        let mut s = SimtStack::new(0b11);
        s.advance(); // pc 1
        s.branch(0b11, 0, 2); // uniform back-edge
        assert_eq!(s.pc(), 0);
        s.advance();
        // Lane 1 exits the loop: divergent back-branch.
        s.branch(0b01, 0, 2);
        assert_eq!((s.pc(), s.active_mask()), (0, 0b01));
        s.advance(); // 1
        s.branch(0, 0, 2); // not taken -> 2 == rpc -> pop
                           // Fall-through entry (lane 2) at pc 2 == its rpc -> popped too;
                           // root resumes at 2 with both lanes.
        assert_eq!((s.pc(), s.active_mask()), (2, 0b11));
        assert_eq!(s.entries.len(), 1);
    }
}

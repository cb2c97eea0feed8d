//! The Vertex Processing and Operations (VPO) unit and the Primitive Mask
//! Reorder Buffer (PMRB) — the paper's work-distribution crossbar
//! (§3.3.4, Fig. 6).
//!
//! Each cluster's VPO consumes the position outputs of vertex warps shaded
//! on its SIMT core, computes per-primitive screen bounding boxes
//! (1 primitive/cycle), culls, and produces a warp-sized *primitive mask*
//! for every cluster: bit `i` says whether primitive `i` of the warp
//! covers screen tiles owned by that cluster. Masks travel over the
//! interconnect to the destination cluster's PMRB, which restores draw
//! order (masks may arrive out of order because vertex warps finish out of
//! order) and feeds covered primitives to the setup stage.

use crate::batch::{CornerRef, PrimRef, VertexWarp};
use crate::geom::{setup_prim, ClipVert, CullReason, NUM_VARYINGS};
use crate::tcmap::TcMap;
use emerald_common::hash::FxHashMap;
use emerald_common::math::Vec4;
use emerald_common::snap::{SnapError, Walk};
use std::collections::VecDeque;

/// A per-destination-cluster primitive mask for one vertex warp.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PrimMask {
    /// Vertex warp sequence number (global draw order).
    pub seq: u32,
    /// All primitives anchored to the warp, in draw order.
    pub entries: Vec<PrimRef>,
    /// Bit `i` set ⇒ `entries[i]` covers the destination cluster.
    pub bits: u32,
}

/// VPO culling/coverage statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct VpoStats {
    /// Primitives processed.
    pub prims_in: u64,
    /// Culled: behind the near plane.
    pub cull_near: u64,
    /// Culled: outside the frustum.
    pub cull_frustum: u64,
    /// Culled: back-facing.
    pub cull_backface: u64,
    /// Culled: zero area.
    pub cull_degenerate: u64,
    /// Primitives surviving to distribution.
    pub distributed: u64,
}

impl VpoStats {
    /// Total culled primitives.
    pub(crate) fn culled(&self) -> u64 {
        self.cull_near + self.cull_frustum + self.cull_backface + self.cull_degenerate
    }
}

/// One cluster's VPO unit.
#[derive(Debug)]
pub(crate) struct VpoUnit {
    input: VecDeque<VertexWarp>,
    cur_prim: usize,
    masks_wip: Vec<u32>,
    n_clusters: usize,
    stats: VpoStats,
}

impl VpoUnit {
    /// Creates a VPO distributing over `n_clusters` clusters.
    pub(crate) fn new(n_clusters: usize) -> Self {
        Self {
            input: VecDeque::new(),
            cur_prim: 0,
            masks_wip: vec![0; n_clusters],
            n_clusters,
            stats: VpoStats::default(),
        }
    }

    /// Queues a completed vertex warp (its shaded positions are in the OVB).
    pub(crate) fn push_warp(&mut self, warp: VertexWarp) {
        self.input.push_back(warp);
    }

    /// Warps waiting or in progress.
    pub(crate) fn backlog(&self) -> usize {
        self.input.len()
    }

    /// True when nothing is queued.
    pub(crate) fn is_idle(&self) -> bool {
        self.input.is_empty()
    }

    /// Statistics so far.
    pub(crate) fn stats(&self) -> VpoStats {
        self.stats
    }

    /// Processes up to one primitive (the bounding-box unit's throughput).
    ///
    /// `warp_done(seq)` reports whether vertex warp `seq` has finished
    /// shading (needed for cross-warp corners in the non-overlapped
    /// ablation); `read_pos(corner)` fetches a shaded clip position from
    /// the OVB. Returns the per-cluster masks when a warp completes.
    pub(crate) fn tick(
        &mut self,
        tcmap: &TcMap,
        width: u32,
        height: u32,
        warp_done: &dyn Fn(u32) -> bool,
        read_pos: &dyn Fn(CornerRef) -> Vec4,
    ) -> Option<Vec<(usize, PrimMask)>> {
        let warp = self.input.front()?;
        if self.cur_prim < warp.prims.len() {
            let pref = warp.prims[self.cur_prim];
            // Wait until every producing warp has finished (always true
            // for overlapped batching).
            if !pref.corners.iter().all(|&(s, _)| warp_done(s)) {
                return None;
            }
            self.stats.prims_in += 1;
            let verts: [ClipVert; 3] = pref.corners.map(|c| ClipVert {
                pos: read_pos(c),
                attrs: [0.0; NUM_VARYINGS],
            });
            match setup_prim(&verts, width, height) {
                Ok(sp) => {
                    self.stats.distributed += 1;
                    let owners = tcmap.owner_mask(&sp.bbox);
                    for cl in 0..self.n_clusters {
                        if owners & (1 << cl) != 0 {
                            self.masks_wip[cl] |= 1 << self.cur_prim;
                        }
                    }
                }
                Err(CullReason::NearPlane) => self.stats.cull_near += 1,
                Err(CullReason::Frustum) => self.stats.cull_frustum += 1,
                Err(CullReason::Backface) => self.stats.cull_backface += 1,
                Err(CullReason::Degenerate) => self.stats.cull_degenerate += 1,
            }
            self.cur_prim += 1;
            if self.cur_prim < warp.prims.len() {
                return None;
            }
        }
        // Warp complete (possibly with zero primitives): emit masks to
        // every cluster so PMRBs stay in lockstep.
        let warp = self.input.pop_front().expect("front exists");
        self.cur_prim = 0;
        let out = (0..self.n_clusters)
            .map(|cl| {
                (
                    cl,
                    PrimMask {
                        seq: warp.seq,
                        entries: warp.prims.clone(),
                        bits: std::mem::take(&mut self.masks_wip[cl]),
                    },
                )
            })
            .collect();
        Some(out)
    }

    /// Walks the culling statistics. Checkpoints are taken at a drained
    /// frame boundary, so the work-in-progress queue is empty —
    /// `VertexWarp`s reference transient OVB slots and are never walked;
    /// a read drops them.
    ///
    /// # Panics
    ///
    /// Panics on a write if a warp is still queued (the VPO is not
    /// drained).
    pub(crate) fn walk(&mut self, w: &mut impl Walk) -> Result<(), SnapError> {
        assert!(
            w.reading() || (self.input.is_empty() && self.cur_prim == 0),
            "VPO must be drained at a checkpoint"
        );
        let s = &mut self.stats;
        for n in [
            &mut s.prims_in,
            &mut s.cull_near,
            &mut s.cull_frustum,
            &mut s.cull_backface,
            &mut s.cull_degenerate,
            &mut s.distributed,
        ] {
            w.u64(n)?;
        }
        if w.reading() {
            self.input.clear();
            self.cur_prim = 0;
            self.masks_wip = vec![0; self.n_clusters];
        }
        Ok(())
    }
}

/// The Primitive Mask Reorder Buffer of one cluster.
///
/// In draw-order mode (the paper's baseline) masks are consumed strictly
/// by sequence number. When the renderer enables out-of-order primitive
/// processing (§3.3.6: legal when depth testing is on and blending off),
/// the PMRB may consume whichever mask has arrived — a late vertex warp no
/// longer head-of-line-blocks the cluster's raster pipeline.
#[derive(Debug)]
pub(crate) struct Pmrb {
    /// Smallest sequence number not yet fully consumed.
    expected: u32,
    total_warps: u32,
    pending: FxHashMap<u32, PrimMask>,
    /// Sequence currently being scanned (differs from `expected` in
    /// out-of-order mode).
    cur: Option<u32>,
    bit_cursor: usize,
    done_seqs: std::collections::BTreeSet<u32>,
    consumed_count: u32,
    out: VecDeque<PrimRef>,
    /// Sequences fully consumed this tick (for credit release).
    consumed: Vec<u32>,
}

impl Pmrb {
    /// Creates a PMRB for a draw of `total_warps` vertex warps.
    pub(crate) fn new(total_warps: u32) -> Self {
        Self {
            expected: 0,
            total_warps,
            pending: FxHashMap::default(),
            cur: None,
            bit_cursor: 0,
            done_seqs: std::collections::BTreeSet::new(),
            consumed_count: 0,
            out: VecDeque::new(),
            consumed: Vec::new(),
        }
    }

    /// Receives a mask from some VPO (possibly out of order).
    pub(crate) fn receive(&mut self, mask: PrimMask) {
        self.pending.insert(mask.seq, mask);
    }

    /// Pops the next covered primitive for the setup stage.
    pub(crate) fn pop_prim(&mut self) -> Option<PrimRef> {
        self.out.pop_front()
    }

    /// Primitives ready for setup.
    pub(crate) fn ready(&self) -> usize {
        self.out.len()
    }

    /// Warps whose masks were fully consumed since the last call.
    pub(crate) fn take_consumed(&mut self) -> Vec<u32> {
        std::mem::take(&mut self.consumed)
    }

    /// True when a cycle would move this PMRB: a primitive waits for
    /// setup, or [`Pmrb::tick_ordered`] has a mask to scan.
    pub(crate) fn can_advance(&self, allow_ooo: bool) -> bool {
        !self.out.is_empty()
            || (self.consumed_count < self.total_warps
                && (self.cur.is_some()
                    || self.pending.contains_key(&self.expected)
                    || (allow_ooo && !self.pending.is_empty())))
    }

    /// True when all warps' masks have been processed and drained.
    pub(crate) fn is_done(&self) -> bool {
        self.consumed_count >= self.total_warps && self.out.is_empty()
    }

    /// Processes mask bits (one covered primitive per cycle; uncovered
    /// bits skip for free). In draw-order mode only the `expected` mask is
    /// eligible; with `allow_ooo` any arrived mask is.
    pub(crate) fn tick_ordered(&mut self, allow_ooo: bool) {
        if self.consumed_count >= self.total_warps {
            return;
        }
        let seq = match self.cur {
            Some(s) => s,
            None => {
                let next = if self.pending.contains_key(&self.expected) {
                    Some(self.expected)
                } else if allow_ooo {
                    self.pending.keys().min().copied()
                } else {
                    None
                };
                let Some(s) = next else { return };
                self.cur = Some(s);
                self.bit_cursor = 0;
                s
            }
        };
        let mask = self.pending.get(&seq).expect("cur mask pending");
        while self.bit_cursor < mask.entries.len() {
            let i = self.bit_cursor;
            if mask.bits & (1 << i) != 0 {
                self.out.push_back(mask.entries[i]);
                self.bit_cursor += 1;
                // One covered primitive per cycle.
                if self.bit_cursor < mask.entries.len() {
                    return;
                }
                break;
            }
            self.bit_cursor += 1;
        }
        // Mask exhausted.
        self.pending.remove(&seq);
        self.consumed.push(seq);
        self.consumed_count += 1;
        self.done_seqs.insert(seq);
        self.cur = None;
        self.bit_cursor = 0;
        while self.done_seqs.remove(&self.expected) {
            self.expected += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pref(prim_id: u32, seq: u32) -> PrimRef {
        PrimRef {
            prim_id,
            corners: [(seq, 0), (seq, 1), (seq, 2)],
        }
    }

    fn vw(seq: u32, prim_ids: &[u32]) -> VertexWarp {
        VertexWarp {
            seq,
            vertex_indices: vec![0; 3 * prim_ids.len()],
            prims: prim_ids.iter().map(|&p| pref(p, seq)).collect(),
        }
    }

    /// Positions forming a small CCW triangle inside the first TC tile.
    fn corner_tri(c: CornerRef) -> Vec4 {
        match c.1 % 3 {
            0 => Vec4::new(-0.95, 0.85, 0.0, 1.0),
            1 => Vec4::new(-0.85, 0.85, 0.0, 1.0),
            _ => Vec4::new(-0.95, 0.95, 0.0, 1.0),
        }
    }

    #[test]
    fn vpo_emits_masks_for_all_clusters() {
        let tcmap = TcMap::new(64, 64, 8, 1, 4);
        let mut vpo = VpoUnit::new(4);
        vpo.push_warp(vw(0, &[0, 1]));
        let done = |_s: u32| true;
        // Two prims: two ticks of bbox calc, masks on the second.
        assert!(vpo.tick(&tcmap, 64, 64, &done, &corner_tri).is_none());
        let masks = vpo
            .tick(&tcmap, 64, 64, &done, &corner_tri)
            .expect("masks emitted");
        assert_eq!(masks.len(), 4);
        // The small corner triangle covers only one cluster.
        let covering: Vec<usize> = masks
            .iter()
            .filter(|(_, m)| m.bits != 0)
            .map(|(c, _)| *c)
            .collect();
        assert_eq!(covering.len(), 1);
        assert_eq!(masks[covering[0]].1.bits, 0b11);
        assert!(vpo.is_idle());
        assert_eq!(vpo.stats().distributed, 2);
    }

    #[test]
    fn vpo_culls_backfaces() {
        let tcmap = TcMap::new(64, 64, 8, 1, 2);
        let mut vpo = VpoUnit::new(2);
        vpo.push_warp(vw(0, &[0]));
        // Reversed winding of `corner_tri`.
        let read = |c: CornerRef| match c.1 % 3 {
            0 => Vec4::new(-0.95, 0.95, 0.0, 1.0),
            1 => Vec4::new(-0.85, 0.85, 0.0, 1.0),
            _ => Vec4::new(-0.95, 0.85, 0.0, 1.0),
        };
        let masks = vpo.tick(&tcmap, 64, 64, &|_| true, &read).unwrap();
        assert!(masks.iter().all(|(_, m)| m.bits == 0));
        assert_eq!(vpo.stats().cull_backface, 1);
    }

    #[test]
    fn vpo_waits_for_cross_warp_dependencies() {
        let tcmap = TcMap::new(64, 64, 8, 1, 2);
        let mut vpo = VpoUnit::new(2);
        let mut w = vw(1, &[5]);
        w.prims[0].corners[0] = (0, 7); // corner produced by warp 0
        vpo.push_warp(w);
        // Warp 0 not done yet → stall.
        assert!(vpo.tick(&tcmap, 64, 64, &|s| s != 0, &corner_tri).is_none());
        assert_eq!(vpo.stats().prims_in, 0);
        // Once warp 0 completes, processing resumes.
        let masks = vpo.tick(&tcmap, 64, 64, &|_| true, &corner_tri).unwrap();
        assert_eq!(masks.len(), 2);
        assert_eq!(vpo.stats().prims_in, 1);
    }

    #[test]
    fn empty_warp_emits_immediately() {
        let tcmap = TcMap::new(64, 64, 8, 1, 2);
        let mut vpo = VpoUnit::new(2);
        vpo.push_warp(vw(3, &[]));
        let masks = vpo.tick(&tcmap, 64, 64, &|_| true, &corner_tri).unwrap();
        assert_eq!(masks.len(), 2);
        assert_eq!(masks[0].1.seq, 3);
    }

    #[test]
    fn pmrb_restores_draw_order() {
        let mut pmrb = Pmrb::new(2);
        // Warp 1 arrives before warp 0.
        pmrb.receive(PrimMask {
            seq: 1,
            entries: vec![pref(10, 1)],
            bits: 0b1,
        });
        pmrb.tick_ordered(false);
        assert_eq!(pmrb.ready(), 0, "must wait for warp 0");
        pmrb.receive(PrimMask {
            seq: 0,
            entries: vec![pref(0, 0), pref(1, 0)],
            bits: 0b10,
        });
        // Warp 0: bit0 clear (skipped free), bit1 emits prim 1.
        pmrb.tick_ordered(false);
        assert_eq!(pmrb.pop_prim().unwrap().prim_id, 1);
        pmrb.tick_ordered(false);
        assert_eq!(pmrb.pop_prim().unwrap().prim_id, 10);
        assert_eq!(pmrb.take_consumed(), vec![0, 1]);
        assert!(pmrb.is_done());
    }

    #[test]
    fn pmrb_emits_one_covered_prim_per_cycle() {
        let mut pmrb = Pmrb::new(1);
        pmrb.receive(PrimMask {
            seq: 0,
            entries: vec![pref(0, 0), pref(1, 0), pref(2, 0)],
            bits: 0b111,
        });
        pmrb.tick_ordered(false);
        assert_eq!(pmrb.ready(), 1);
        pmrb.tick_ordered(false);
        assert_eq!(pmrb.ready(), 2);
        pmrb.tick_ordered(false);
        assert_eq!(pmrb.ready(), 3);
        assert!(!pmrb.is_done());
        while pmrb.pop_prim().is_some() {}
        assert!(pmrb.is_done());
    }

    #[test]
    fn pmrb_zero_mask_consumes_in_one_tick() {
        let mut pmrb = Pmrb::new(1);
        pmrb.receive(PrimMask {
            seq: 0,
            entries: vec![pref(0, 0), pref(1, 0)],
            bits: 0,
        });
        pmrb.tick_ordered(false);
        assert!(pmrb.is_done());
        assert_eq!(pmrb.take_consumed(), vec![0]);
    }
}

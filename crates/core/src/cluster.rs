//! The per-cluster fixed-function raster pipeline (Fig. 5 ③-⑧): primitive
//! setup, coarse rasterization, Hierarchical-Z, fine rasterization and the
//! tile-coalescing (TC) stage with its TC engines (Fig. 7).

use crate::batch::{CornerRef, PrimRef};
use crate::config::GfxConfig;
use crate::geom::{setup_prim, ClipVert, ScreenPrim, NUM_VARYINGS};
use crate::tcmap::TcMap;
use emerald_common::event::earliest;
use emerald_common::hash::{FxHashMap, FxHashSet};
use emerald_common::snap::{SnapError, Walk};
use emerald_common::types::Cycle;
use std::collections::VecDeque;
use std::sync::Arc;

/// One fragment headed for shading.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Frag {
    /// Screen x.
    pub x: u32,
    /// Screen y.
    pub y: u32,
    /// Interpolated depth.
    pub z: f32,
    /// Interpolated varyings (u, v, diffuse).
    pub attrs: [f32; NUM_VARYINGS],
}

/// A rasterized tile of fragments from one primitive.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RasterTile {
    /// TC tile position this raster tile belongs to.
    pub tc_pos: (u32, u32),
    /// Raster-tile slot within the TC tile.
    pub slot: usize,
    /// Bit per covered pixel within the raster tile (row-major).
    pub mask: u16,
    /// Covered fragments.
    pub frags: Vec<Frag>,
}

/// A coalesced TC tile ready for fragment shading.
#[derive(Debug, Clone, PartialEq)]
pub struct TcTile {
    /// Screen-space TC tile position.
    pub tc_pos: (u32, u32),
    /// All coalesced fragments (possibly from several primitives).
    pub frags: Vec<Frag>,
}

/// Pipeline statistics for one cluster.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ClusterStats {
    /// Primitives through setup.
    pub prims_setup: u64,
    /// Raster tiles emitted by coarse rasterization.
    pub raster_tiles: u64,
    /// Raster tiles rejected by Hi-Z.
    pub hiz_killed: u64,
    /// Fragments produced by fine rasterization.
    pub fragments: u64,
    /// TC tiles flushed to shading.
    pub tc_tiles: u64,
    /// TCE flushes caused by slot conflicts.
    pub tc_conflict_flushes: u64,
    /// TCE flushes caused by timeout / end of draw.
    pub tc_timeout_flushes: u64,
}

#[derive(Debug)]
struct InFlightPrim {
    prim: Arc<ScreenPrim>,
    ready_at: Cycle,
}

#[derive(Debug)]
struct CoarseState {
    prim: Arc<ScreenPrim>,
    /// Precomputed owned+overlapped raster-tile coordinates.
    tiles: Vec<(u32, u32)>,
    idx: usize,
}

#[derive(Debug)]
struct PendingTile {
    prim: Arc<ScreenPrim>,
    /// Global raster-tile coordinates.
    rt_pos: (u32, u32),
}

#[derive(Debug)]
struct Tce {
    pos: Option<(u32, u32)>,
    slots: Vec<Option<RasterTile>>,
    last_new: Cycle,
}

impl Tce {
    fn new(n_slots: usize) -> Self {
        Self {
            pos: None,
            slots: (0..n_slots).map(|_| None).collect(),
            last_new: 0,
        }
    }

    fn flush(&mut self) -> Option<TcTile> {
        let pos = self.pos.take()?;
        let mut frags = Vec::new();
        for s in &mut self.slots {
            if let Some(t) = s.take() {
                frags.extend(t.frags);
            }
        }
        if frags.is_empty() {
            None
        } else {
            Some(TcTile { tc_pos: pos, frags })
        }
    }
}

/// The tile-coalescing stage of one cluster (Fig. 7).
#[derive(Debug)]
pub struct TcStage {
    engines: Vec<Tce>,
    in_q: VecDeque<RasterTile>,
    flush_q: VecDeque<TcTile>,
    busy: FxHashSet<(u32, u32)>,
    /// The ready-scan memo. Which tile [`TcStage::pop_ready`] returns is a
    /// pure function of `(flush_q, busy)`, and those change only where a
    /// tile is queued, in [`TcStage::complete`], on restore and in
    /// `pop_ready`'s own successful pop. Each of those sets this flag; a
    /// scan that finds nothing clears it, and until it is set again the
    /// scan would find nothing (debug builds run it anyway and assert
    /// exactly that).
    rescan: bool,
    timeout: Cycle,
    enabled: bool,
}

impl TcStage {
    fn new(cfg: &GfxConfig) -> Self {
        let n_slots = (cfg.tc_tile_raster * cfg.tc_tile_raster) as usize;
        Self {
            engines: (0..cfg.tc_engines).map(|_| Tce::new(n_slots)).collect(),
            in_q: VecDeque::new(),
            flush_q: VecDeque::new(),
            busy: FxHashSet::default(),
            rescan: true,
            timeout: cfg.tc_timeout,
            enabled: cfg.tc_enabled,
        }
    }

    fn push(&mut self, tile: RasterTile) {
        if self.enabled {
            self.in_q.push_back(tile);
        } else {
            // Ablation: no coalescing — each raster tile ships alone.
            self.flush_q.push_back(TcTile {
                tc_pos: tile.tc_pos,
                frags: tile.frags,
            });
            self.rescan = true;
        }
    }

    fn tick(&mut self, now: Cycle, flush_all: bool, stats: &mut ClusterStats) {
        // Distribute one raster tile per cycle (Fig. 7 ②).
        if let Some(tile) = self.in_q.front() {
            let pos = tile.tc_pos;
            let slot = tile.slot;
            // An engine already coalescing this TC tile?
            if let Some(ei) = self.engines.iter().position(|e| e.pos == Some(pos)) {
                let mergeable = match &self.engines[ei].slots[slot] {
                    None => true,
                    // Raster tiles from different primitives coalesce as
                    // long as their pixel coverage is disjoint (§3.3.5:
                    // "into one TC tile if there are no conflicts").
                    Some(staged) => staged.mask & self.in_q.front().expect("front").mask == 0,
                };
                if mergeable {
                    let tile = self.in_q.pop_front().expect("front");
                    match &mut self.engines[ei].slots[slot] {
                        Some(staged) => {
                            staged.mask |= tile.mask;
                            staged.frags.extend(tile.frags);
                        }
                        empty => *empty = Some(tile),
                    }
                    self.engines[ei].last_new = now;
                } else {
                    // True overdraw: flush the staged TC tile first
                    // (preserves order), re-stage next cycle.
                    if let Some(t) = self.engines[ei].flush() {
                        stats.tc_tiles += 1;
                        stats.tc_conflict_flushes += 1;
                        self.flush_q.push_back(t);
                        self.rescan = true;
                    }
                }
            } else if let Some(ei) = self.engines.iter().position(|e| e.pos.is_none()) {
                let tile = self.in_q.pop_front().expect("front");
                self.engines[ei].pos = Some(pos);
                self.engines[ei].slots[slot] = Some(tile);
                self.engines[ei].last_new = now;
            } else {
                // All engines occupied with other TC tiles: flush the
                // least-recently-fed one.
                let ei = self
                    .engines
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.last_new)
                    .map(|(i, _)| i)
                    .expect("engines exist");
                if let Some(t) = self.engines[ei].flush() {
                    stats.tc_tiles += 1;
                    stats.tc_conflict_flushes += 1;
                    self.flush_q.push_back(t);
                    self.rescan = true;
                }
            }
        }
        // Timeout / end-of-draw flushes.
        for e in &mut self.engines {
            let stale =
                e.pos.is_some() && (flush_all || now.saturating_sub(e.last_new) > self.timeout);
            if stale {
                if let Some(t) = e.flush() {
                    stats.tc_tiles += 1;
                    stats.tc_timeout_flushes += 1;
                    self.flush_q.push_back(t);
                    self.rescan = true;
                }
            }
        }
    }

    /// Pops the next TC tile whose screen position is not already being
    /// shaded (the exclusion that makes in-shader Z/blend safe, Fig. 7 ⑦),
    /// marking it busy. Tiles for *other* positions may overtake a blocked
    /// one; tiles for the *same* position stay in order.
    pub fn pop_ready(&mut self) -> Option<TcTile> {
        if !self.rescan {
            debug_assert_eq!(self.first_ready(), None, "memo skipped a ready TC tile");
            return None;
        }
        let Some(i) = self.first_ready() else {
            self.rescan = false;
            return None;
        };
        let t = self.flush_q.remove(i).expect("index in range");
        self.busy.insert(t.tc_pos);
        Some(t)
    }

    /// Queue index of the oldest tile whose position is not being shaded.
    /// Tiles skipped on the way need no set of their own: a tile is only
    /// ever skipped because its position is busy, so any later tile for
    /// the same position fails the same test.
    fn first_ready(&self) -> Option<usize> {
        self.flush_q
            .iter()
            .position(|t| !self.busy.contains(&t.tc_pos))
    }

    /// True while [`TcStage::pop_ready`] still has a scan to run; false
    /// once a scan found every queued tile blocked on a position being
    /// shaded, until one completes or a tile is queued.
    pub(crate) fn wants_scan(&self) -> bool {
        self.rescan
    }

    /// Marks a TC position's shading complete.
    pub fn complete(&mut self, pos: (u32, u32)) {
        self.busy.remove(&pos);
        self.rescan = true;
    }

    /// Anything still staged or waiting to issue?
    fn has_work(&self) -> bool {
        !self.in_q.is_empty()
            || !self.flush_q.is_empty()
            || self.engines.iter().any(|e| e.pos.is_some())
    }

    /// TC positions currently being shaded.
    pub fn busy_count(&self) -> usize {
        self.busy.len()
    }
}

/// One cluster's raster pipeline.
#[derive(Debug)]
pub struct ClusterPipe {
    cluster: usize,
    cfg: GfxConfig,
    setup_in: VecDeque<PrimRef>,
    setup_wip: VecDeque<InFlightPrim>,
    coarse_q: VecDeque<Arc<ScreenPrim>>,
    coarse: Option<CoarseState>,
    hiz_q: VecDeque<PendingTile>,
    hiz: FxHashMap<(u32, u32), f32>,
    fine_q: VecDeque<PendingTile>,
    /// The TC stage (public so the renderer can pop/launch/complete).
    pub tc: TcStage,
    stats: ClusterStats,
}

impl ClusterPipe {
    /// Creates the pipeline for cluster index `cluster`.
    pub fn new(cluster: usize, cfg: &GfxConfig) -> Self {
        Self {
            cluster,
            cfg: cfg.clone(),
            setup_in: VecDeque::new(),
            setup_wip: VecDeque::new(),
            coarse_q: VecDeque::new(),
            coarse: None,
            hiz_q: VecDeque::new(),
            hiz: FxHashMap::default(),
            fine_q: VecDeque::new(),
            tc: TcStage::new(cfg),
            stats: ClusterStats::default(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> ClusterStats {
        self.stats
    }

    /// Accepts a primitive from the PMRB.
    pub fn push_prim(&mut self, p: PrimRef) {
        self.setup_in.push_back(p);
    }

    /// True when every stage before fragment shading is drained.
    pub fn upstream_empty(&self) -> bool {
        self.setup_in.is_empty()
            && self.setup_wip.is_empty()
            && self.coarse_q.is_empty()
            && self.coarse.is_none()
            && self.hiz_q.is_empty()
            && self.fine_q.is_empty()
    }

    /// True when the whole pipe, including TC staging, is drained (busy
    /// shading positions are tracked separately by the renderer).
    pub fn is_drained(&self) -> bool {
        self.upstream_empty() && !self.tc.has_work()
    }

    /// Earliest cycle `> now` at which [`ClusterPipe::tick`] changes
    /// anything, given the `flush_tc` it will be called with: `now + 1`
    /// while any stage queue holds work or an end-of-draw flush is due,
    /// else the setup pipe's next completion or the first occupied TC
    /// engine to time out. Tiles in `flush_q` are the renderer's to pop.
    pub(crate) fn next_event(&self, now: Cycle, flush_tc: bool) -> Option<Cycle> {
        let occupied = || self.tc.engines.iter().filter(|e| e.pos.is_some());
        let queued = !(self.setup_in.is_empty()
            && self.coarse_q.is_empty()
            && self.coarse.is_none()
            && self.hiz_q.is_empty()
            && self.fine_q.is_empty()
            && self.tc.in_q.is_empty());
        if queued || (flush_tc && self.setup_wip.is_empty() && occupied().next().is_some()) {
            return Some(now + 1);
        }
        let setup = self.setup_wip.front().map(|p| p.ready_at);
        let timeout = occupied().map(|e| e.last_new + self.tc.timeout + 1).min();
        earliest(setup, timeout).map(|t| t.max(now + 1))
    }

    /// Walks the persistent pipeline state. Checkpoints sit at a drained
    /// frame boundary, so only the Hi-Z buffer, the statistics and the TC
    /// engines' staleness clocks survive between frames; in-flight
    /// primitives hold `Arc<ScreenPrim>`, are never walked, and a read
    /// clears them.
    ///
    /// # Panics
    ///
    /// Panics on a write if the pipe still has work in flight or TC
    /// positions are still being shaded.
    pub(crate) fn walk(&mut self, w: &mut impl Walk) -> Result<(), SnapError> {
        assert!(
            w.reading() || (self.is_drained() && self.tc.busy.is_empty()),
            "cluster pipe must be drained at a checkpoint"
        );
        w.map(&mut self.hiz, 12, |w, (x, y), z| {
            w.u32(x)?;
            w.u32(y)?;
            w.f32(z)
        })?;
        w.expect(self.tc.engines.len(), "TC engine count mismatch")?;
        for e in &mut self.tc.engines {
            w.u64(&mut e.last_new)?;
        }
        let s = &mut self.stats;
        for n in [
            &mut s.prims_setup,
            &mut s.raster_tiles,
            &mut s.hiz_killed,
            &mut s.fragments,
            &mut s.tc_tiles,
            &mut s.tc_conflict_flushes,
            &mut s.tc_timeout_flushes,
        ] {
            w.u64(n)?;
        }
        if w.reading() {
            for e in &mut self.tc.engines {
                e.pos = None;
                e.slots.iter_mut().for_each(|s| *s = None);
            }
            self.setup_in.clear();
            self.setup_wip.clear();
            self.coarse_q.clear();
            self.coarse = None;
            self.hiz_q.clear();
            self.fine_q.clear();
            self.tc.in_q.clear();
            self.tc.flush_q.clear();
            self.tc.busy.clear();
            self.tc.rescan = true;
        }
        Ok(())
    }

    /// Advances the pipeline one cycle.
    ///
    /// `read_vert` fetches shaded vertices from the OVB; `depth_test` /
    /// `depth_write` are the current draw's raster state; `flush_tc`
    /// forces TCE flushes (end of draw).
    #[allow(clippy::too_many_arguments)]
    pub fn tick(
        &mut self,
        now: Cycle,
        tcmap: &TcMap,
        width: u32,
        height: u32,
        depth_test: bool,
        depth_write: bool,
        flush_tc: bool,
        read_vert: &dyn Fn(CornerRef) -> ClipVert,
    ) {
        // TC first (consumes fine output produced in earlier cycles).
        self.tc
            .tick(now, flush_tc && self.upstream_empty(), &mut self.stats);

        // Fine rasterization: one raster tile per cycle.
        if let Some(pt) = self.fine_q.pop_front() {
            let rt = self.cfg.raster_tile;
            let x0 = pt.rt_pos.0 * rt;
            let y0 = pt.rt_pos.1 * rt;
            let mut frags = Vec::new();
            let mut mask: u16 = 0;
            let mut z_max = 0.0f32;
            for y in y0..(y0 + rt).min(height) {
                for x in x0..(x0 + rt).min(width) {
                    if let Some((z, attrs)) = pt.prim.sample(x as i32, y as i32) {
                        frags.push(Frag { x, y, z, attrs });
                        mask |= 1 << ((y - y0) * rt + (x - x0));
                        z_max = z_max.max(z);
                    }
                }
            }
            if !frags.is_empty() {
                self.stats.fragments += frags.len() as u64;
                // Conservative Hi-Z update: only fully-covered tiles from
                // depth-writing draws can lower the visible-depth bound.
                if self.cfg.hiz_enabled
                    && depth_test
                    && depth_write
                    && frags.len() == (rt * rt) as usize
                {
                    let e = self.hiz.entry(pt.rt_pos).or_insert(1.0);
                    *e = e.min(z_max);
                }
                let ttr = self.cfg.tc_tile_raster;
                let tc_pos = (pt.rt_pos.0 / ttr, pt.rt_pos.1 / ttr);
                let slot = ((pt.rt_pos.1 % ttr) * ttr + pt.rt_pos.0 % ttr) as usize;
                self.tc.push(RasterTile {
                    tc_pos,
                    slot,
                    mask,
                    frags,
                });
            }
        }

        // Hi-Z: one raster tile per cycle.
        if let Some(pt) = self.hiz_q.pop_front() {
            let reject = self.cfg.hiz_enabled
                && depth_test
                && pt.prim.z_bounds().0 > *self.hiz.get(&pt.rt_pos).unwrap_or(&1.0);
            if reject {
                self.stats.hiz_killed += 1;
            } else {
                self.fine_q.push_back(pt);
            }
        }

        // Coarse rasterization: emit one covered raster tile per cycle.
        if self.coarse.is_none() {
            if let Some(prim) = self.coarse_q.pop_front() {
                let tiles = self.coarse_tiles(&prim, tcmap, width, height);
                self.coarse = Some(CoarseState {
                    prim,
                    tiles,
                    idx: 0,
                });
            }
        }
        if let Some(cs) = &mut self.coarse {
            if cs.idx < cs.tiles.len() {
                let rt_pos = cs.tiles[cs.idx];
                cs.idx += 1;
                self.stats.raster_tiles += 1;
                self.hiz_q.push_back(PendingTile {
                    prim: cs.prim.clone(),
                    rt_pos,
                });
            }
            if cs.idx >= cs.tiles.len() {
                self.coarse = None;
            }
        }

        // Setup completion (latency pipe).
        if let Some(front) = self.setup_wip.front() {
            if front.ready_at <= now {
                let p = self.setup_wip.pop_front().expect("front");
                self.coarse_q.push_back(p.prim);
            }
        }

        // Setup issue: one primitive per cycle.
        if let Some(pref) = self.setup_in.pop_front() {
            let verts: [ClipVert; 3] = pref.corners.map(read_vert);
            if let Ok(sp) = setup_prim(&verts, width, height) {
                self.stats.prims_setup += 1;
                self.setup_wip.push_back(InFlightPrim {
                    prim: Arc::new(sp),
                    ready_at: now + self.cfg.setup_latency,
                });
            }
        }
    }

    /// Raster tiles covered by `prim` that belong to this cluster.
    fn coarse_tiles(
        &self,
        prim: &ScreenPrim,
        tcmap: &TcMap,
        width: u32,
        height: u32,
    ) -> Vec<(u32, u32)> {
        let rt = self.cfg.raster_tile;
        let ttr = self.cfg.tc_tile_raster;
        let rt_x0 = (prim.bbox.x0.max(0) as u32) / rt;
        let rt_y0 = (prim.bbox.y0.max(0) as u32) / rt;
        let rt_x1 = ((prim.bbox.x1.max(0) as u32) / rt).min(width.div_ceil(rt) - 1);
        let rt_y1 = ((prim.bbox.y1.max(0) as u32) / rt).min(height.div_ceil(rt) - 1);
        let mut out = Vec::new();
        for ty in rt_y0..=rt_y1 {
            for tx in rt_x0..=rt_x1 {
                let tc = (tx / ttr, ty / ttr);
                if tcmap.owner(tc.0, tc.1) != self.cluster {
                    continue;
                }
                let rect = emerald_common::math::IRect::new(
                    (tx * rt) as i32,
                    (ty * rt) as i32,
                    (tx * rt + rt - 1) as i32,
                    (ty * rt + rt - 1) as i32,
                );
                if prim.overlaps_tile(&rect) {
                    out.push((tx, ty));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emerald_common::math::Vec4;

    const W: u32 = 64;
    const H: u32 = 64;

    fn full_cfg() -> GfxConfig {
        GfxConfig::case_study_2()
    }

    fn map() -> TcMap {
        TcMap::new(W, H, 8, 1, 1) // single cluster owns everything
    }

    /// A CCW half-screen triangle.
    fn big_tri_verts(z: f32) -> [ClipVert; 3] {
        let mk = |x: f32, y: f32| ClipVert {
            pos: Vec4::new(x, y, z, 1.0),
            attrs: [0.5; NUM_VARYINGS],
        };
        [mk(-1.0, -1.0), mk(1.0, -1.0), mk(-1.0, 1.0)]
    }

    fn pref() -> PrimRef {
        PrimRef {
            prim_id: 0,
            corners: [(0, 0), (0, 1), (0, 2)],
        }
    }

    fn run_pipe(
        pipe: &mut ClusterPipe,
        tcmap: &TcMap,
        verts: [ClipVert; 3],
        cycles: u64,
        depth_write: bool,
    ) -> Vec<TcTile> {
        pipe.push_prim(pref());
        let read = move |c: CornerRef| verts[c.1 as usize];
        let mut tiles = Vec::new();
        for now in 0..cycles {
            pipe.tick(now, tcmap, W, H, true, depth_write, true, &read);
            while let Some(t) = pipe.tc.pop_ready() {
                pipe.tc.complete(t.tc_pos);
                tiles.push(t);
            }
        }
        assert!(pipe.is_drained(), "pipe did not drain");
        tiles
    }

    #[test]
    fn triangle_flows_to_tc_tiles() {
        let mut pipe = ClusterPipe::new(0, &full_cfg());
        let tiles = run_pipe(&mut pipe, &map(), big_tri_verts(0.0), 2000, true);
        let stats = pipe.stats();
        assert_eq!(stats.prims_setup, 1);
        assert!(stats.raster_tiles > 0);
        let total_frags: usize = tiles.iter().map(|t| t.frags.len()).sum();
        assert_eq!(total_frags as u64, stats.fragments);
        // Half of a 64×64 screen.
        assert!((1800..=2300).contains(&total_frags), "frags {total_frags}");
        // Fragments within bounds and in the right TC tiles.
        for t in &tiles {
            for f in &t.frags {
                assert_eq!((f.x / 8, f.y / 8), t.tc_pos);
                assert!(f.x < W && f.y < H);
            }
        }
    }

    #[test]
    fn hiz_rejects_occluded_primitive() {
        let mut pipe = ClusterPipe::new(0, &full_cfg());
        let tcmap = map();
        // Near triangle first (z = -0.5 → 0.25), then a far one (0.5 → 0.75).
        let near = run_pipe(&mut pipe, &tcmap, big_tri_verts(-0.5), 2000, true);
        assert!(!near.is_empty());
        let killed_before = pipe.stats().hiz_killed;
        let far = run_pipe(&mut pipe, &tcmap, big_tri_verts(0.5), 2000, true);
        let killed = pipe.stats().hiz_killed - killed_before;
        assert!(killed > 0, "Hi-Z should kill occluded tiles");
        let far_frags: usize = far.iter().map(|t| t.frags.len()).sum();
        let near_frags: usize = near.iter().map(|t| t.frags.len()).sum();
        assert!(
            far_frags < near_frags / 2,
            "occluded prim shades far fewer fragments ({far_frags} vs {near_frags})"
        );
    }

    #[test]
    fn hiz_disabled_shades_everything() {
        let mut cfg = full_cfg();
        cfg.hiz_enabled = false;
        let mut pipe = ClusterPipe::new(0, &cfg);
        let tcmap = map();
        let near = run_pipe(&mut pipe, &tcmap, big_tri_verts(-0.5), 2000, true);
        let far = run_pipe(&mut pipe, &tcmap, big_tri_verts(0.5), 2000, true);
        assert_eq!(pipe.stats().hiz_killed, 0);
        let near_n: usize = near.iter().map(|t| t.frags.len()).sum();
        let far_n: usize = far.iter().map(|t| t.frags.len()).sum();
        assert_eq!(near_n, far_n);
    }

    #[test]
    fn non_depth_write_draw_does_not_update_hiz() {
        let mut pipe = ClusterPipe::new(0, &full_cfg());
        let tcmap = map();
        // Translucent-style near draw (no depth write)…
        run_pipe(&mut pipe, &tcmap, big_tri_verts(-0.5), 2000, false);
        // …must not occlude a later farther draw.
        let killed_before = pipe.stats().hiz_killed;
        run_pipe(&mut pipe, &tcmap, big_tri_verts(0.5), 2000, true);
        assert_eq!(pipe.stats().hiz_killed, killed_before);
    }

    #[test]
    fn cluster_only_rasterizes_owned_tiles() {
        // Two clusters: each should produce a disjoint set of TC tiles.
        let tcmap = TcMap::new(W, H, 8, 1, 2);
        let mut per_cluster: Vec<FxHashSet<(u32, u32)>> = Vec::new();
        let mut total = 0usize;
        for cl in 0..2 {
            let mut pipe = ClusterPipe::new(cl, &full_cfg());
            let tiles = run_pipe(&mut pipe, &tcmap, big_tri_verts(0.0), 2000, true);
            for t in &tiles {
                assert_eq!(tcmap.owner(t.tc_pos.0, t.tc_pos.1), cl);
                total += t.frags.len();
            }
            per_cluster.push(tiles.into_iter().map(|t| t.tc_pos).collect());
        }
        assert!(
            per_cluster[0].is_disjoint(&per_cluster[1]),
            "clusters share a TC position"
        );
        assert!(
            (1800..=2300).contains(&total),
            "both clusters sum to full prim ({total})"
        );
    }

    #[test]
    fn tc_coalesces_multiple_raster_tiles() {
        let mut pipe = ClusterPipe::new(0, &full_cfg());
        let tiles = run_pipe(&mut pipe, &map(), big_tri_verts(0.0), 2000, true);
        // Interior TC tiles carry a full 64 fragments (4 raster tiles).
        assert!(
            tiles.iter().any(|t| t.frags.len() == 64),
            "no fully-coalesced TC tile found"
        );
    }

    #[test]
    fn tc_disabled_ships_single_raster_tiles() {
        let mut cfg = full_cfg();
        cfg.tc_enabled = false;
        let mut pipe = ClusterPipe::new(0, &cfg);
        let tiles = run_pipe(&mut pipe, &map(), big_tri_verts(0.0), 2000, true);
        assert!(tiles.iter().all(|t| t.frags.len() <= 16));
        assert!(tiles.len() > 64);
    }

    #[test]
    fn tc_exclusion_blocks_same_position() {
        let cfg = full_cfg();
        let mut tc = TcStage::new(&cfg);
        let frag = Frag {
            x: 0,
            y: 0,
            z: 0.5,
            attrs: [0.0; NUM_VARYINGS],
        };
        tc.flush_q.push_back(TcTile {
            tc_pos: (1, 1),
            frags: vec![frag],
        });
        tc.flush_q.push_back(TcTile {
            tc_pos: (1, 1),
            frags: vec![frag],
        });
        let first = tc.pop_ready().expect("first tile issues");
        assert_eq!(first.tc_pos, (1, 1));
        assert!(tc.pop_ready().is_none(), "same position must wait");
        assert_eq!(tc.busy_count(), 1);
        tc.complete((1, 1));
        assert!(tc.pop_ready().is_some());
    }

    /// `pop_ready` as it was before the memo: every call walks the whole
    /// queue and keeps its own set of the positions it passed over.
    fn unmemoised_pop(tc: &mut TcStage) -> Option<TcTile> {
        let mut blocked: FxHashSet<(u32, u32)> = FxHashSet::default();
        for i in 0..tc.flush_q.len() {
            let pos = tc.flush_q[i].tc_pos;
            if tc.busy.contains(&pos) || blocked.contains(&pos) {
                blocked.insert(pos);
                continue;
            }
            let t = tc.flush_q.remove(i).expect("index in range");
            tc.busy.insert(pos);
            return Some(t);
        }
        None
    }

    /// Random raster-tile pushes, ticks (conflict, eviction, timeout and
    /// end-of-draw flushes), completions and pops: the memoised scan hands
    /// out the same tiles in the same order as the unmemoised one, and in
    /// debug builds every skipped scan is re-run by `pop_ready`'s oracle.
    #[test]
    fn memoised_ready_scan_matches_unmemoised_scan() {
        emerald_common::check::check("tc_ready_scan_memo", |rng| {
            let mut cfg = full_cfg();
            cfg.tc_engines = 2;
            cfg.tc_timeout = 3;
            cfg.tc_enabled = rng.chance(0.8);
            let mut memo = TcStage::new(&cfg);
            let mut plain = TcStage::new(&cfg);
            let (mut stats_m, mut stats_p) = (ClusterStats::default(), ClusterStats::default());
            let mut shading: Vec<(u32, u32)> = Vec::new();
            let (mut popped, mut skipped) = (0, 0);
            for now in 0..400u64 {
                match rng.below(8) {
                    0..=2 => {
                        // The fragment's x is the tile's identity.
                        let tile = RasterTile {
                            tc_pos: (rng.below(3) as u32, 0),
                            slot: rng.below(4) as usize,
                            mask: 1 << rng.below(16),
                            frags: vec![Frag {
                                x: now as u32,
                                y: 0,
                                z: 0.5,
                                attrs: [0.0; NUM_VARYINGS],
                            }],
                        };
                        memo.push(tile.clone());
                        plain.push(tile);
                    }
                    3 if !shading.is_empty() => {
                        let pos = shading.swap_remove(rng.below(shading.len() as u64) as usize);
                        memo.complete(pos);
                        plain.complete(pos);
                    }
                    _ => {}
                }
                let flush_all = rng.chance(0.05);
                memo.tick(now, flush_all, &mut stats_m);
                plain.tick(now, flush_all, &mut stats_p);
                // Like `launch_fragments`: at most one pop per cycle, and
                // most cycles find every queued position busy.
                skipped += u32::from(!memo.rescan);
                let got = memo.pop_ready();
                assert_eq!(got, unmemoised_pop(&mut plain), "cycle {now}");
                if let Some(t) = got {
                    shading.push(t.tc_pos);
                    popped += 1;
                }
            }
            assert_eq!(stats_m, stats_p);
            assert_eq!(memo.flush_q, plain.flush_q);
            assert!(popped > 0, "the sequence never popped a tile");
            assert!(skipped > 40, "only {skipped} scans were skipped");
        });
    }
}

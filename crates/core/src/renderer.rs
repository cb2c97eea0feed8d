//! The assembled renderer: Emerald's graphics pipeline driving the SIMT
//! GPU model.
//!
//! Data flow per draw call (Fig. 3):
//!
//! 1. vertex warps are batched ([`crate::batch`]) and dispatched
//!    round-robin onto SIMT cores, throttled by OVB/PMRB credits;
//! 2. completed vertex warps enter their cluster's VPO, which culls and
//!    routes per-cluster primitive masks over the interconnect;
//! 3. each cluster's PMRB restores draw order and feeds its raster
//!    pipeline (setup → coarse → Hi-Z → fine → TC);
//! 4. coalesced TC tiles launch fragment warps (with in-shader Z/blend)
//!    on the cluster's core, one in flight per screen position;
//! 5. the draw retires when all stages drain and all warps complete.

use crate::batch::{build_vertex_warps, CornerRef, VertexWarp};
use crate::cluster::{ClusterPipe, ClusterStats, TcTile};
use crate::config::GfxConfig;
use crate::ctx::GfxState;
use crate::geom::ClipVert;
use crate::shaders::{abi, vs_params};
use crate::state::{DrawCall, RenderTarget, OVB_STRIDE};
use crate::tcmap::TcMap;
use crate::vpo::{Pmrb, PrimMask, VpoStats, VpoUnit};
use emerald_common::event::earliest;
use emerald_common::hash::{FxHashMap, FxHashSet};
use emerald_common::math::Vec4;
use emerald_common::snap::{SnapError, SnapReader, SnapWriter};
use emerald_common::types::{Addr, Cycle};
use emerald_gpu::gpu::MemPort;
use emerald_gpu::warp::{Warp, WarpTag};
use emerald_gpu::{Gpu, GpuConfig};
use emerald_isa::reg::input;
use emerald_isa::WarpRegs;
use emerald_mem::image::SharedMem;
use emerald_mem::link::Link;
use std::collections::VecDeque;
use std::sync::Arc;

/// Per-frame measurement results.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FrameStats {
    /// Total cycles from first dispatch to full drain.
    pub cycles: Cycle,
    /// Vertex warps dispatched.
    pub vertex_warps: u64,
    /// Vertices shaded (lanes of vertex warps; includes overlap).
    pub vertices_shaded: u64,
    /// Primitives distributed to clusters (post-cull).
    pub prims_distributed: u64,
    /// Primitives culled by the VPO.
    pub prims_culled: u64,
    /// Fragments produced by fine rasterization.
    pub fragments: u64,
    /// Raster tiles killed by Hi-Z.
    pub hiz_killed: u64,
    /// TC tiles shaded.
    pub tc_tiles: u64,
    /// L1 data (color) cache misses, summed over cores.
    pub l1d_misses: u64,
    /// L1 texture cache misses.
    pub l1t_misses: u64,
    /// L1 depth cache misses.
    pub l1z_misses: u64,
    /// L1 constant/vertex cache misses.
    pub l1c_misses: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// DRAM reads issued by the GPU.
    pub dram_reads: u64,
    /// DRAM writes issued by the GPU.
    pub dram_writes: u64,
    /// Instructions issued.
    pub instructions: u64,
    /// Fragments shaded per core (load-balance diagnostics; the per-core
    /// share of `fragments`).
    pub per_core_fragments: Vec<u64>,
}

impl FrameStats {
    /// Total L1 misses across the four cache types (Fig. 18's metric).
    pub fn l1_misses_total(&self) -> u64 {
        self.l1d_misses + self.l1t_misses + self.l1z_misses + self.l1c_misses
    }
}

#[derive(Debug)]
enum WarpJob {
    Vertex { cluster: usize, warp: VertexWarp },
    Fragment { tile: u64 },
}

#[derive(Debug)]
struct TileEntry {
    cluster: usize,
    tc_pos: (u32, u32),
    warps_remaining: u32,
}

#[derive(Debug)]
struct DrawState {
    dc: DrawCall,
    started_at: Cycle,
    warps: Vec<VertexWarp>,
    next_warp: usize,
    credits: usize,
    completed: FxHashSet<u32>,
    /// seq → clusters yet to consume its mask.
    consumptions: FxHashMap<u32, usize>,
    core_cursor: usize,
    vs_params: Arc<[u32]>,
    /// Fragment shaders take no parameters; one empty list per draw.
    fs_params: Arc<[u32]>,
}

/// The Emerald renderer.
#[derive(Debug)]
pub struct GpuRenderer {
    /// The SIMT GPU (public for stats inspection).
    pub gpu: Gpu,
    cfg: GfxConfig,
    mem: SharedMem,
    ctx: GfxState,
    tcmap: TcMap,
    rt: RenderTarget,
    ovb_base: Addr,
    ovb_slots: u64,
    pipes: Vec<ClusterPipe>,
    vpos: Vec<VpoUnit>,
    pmrbs: Vec<Pmrb>,
    mask_link: Link<(usize, PrimMask)>,
    cur: Option<DrawState>,
    queue: VecDeque<(DrawCall, Option<u32>)>,
    jobs: FxHashMap<u64, WarpJob>,
    tiles: FxHashMap<u64, TileEntry>,
    launching: Vec<Option<(TcTile, usize)>>,
    launch_tile_ids: Vec<u64>,
    next_id: u64,
    frag_outstanding: u64,
    per_core_fragments: Vec<u64>,
    vertices_shaded: u64,
    vertex_warps: u64,
    /// Monotonic clock used by [`GpuRenderer::run_frame`]; shared state
    /// downstream (DRAM bank/bus timestamps) is in absolute cycles, so
    /// time must never restart.
    clock: Cycle,
    /// Per-draw execution times within the current frame.
    draw_times: Vec<Cycle>,
}

impl GpuRenderer {
    /// Builds a renderer over a fresh GPU targeting `rt`. Every cluster
    /// has one SIMT core, so TC tiles map to cores 1:1 with clusters.
    pub fn new(gpu_cfg: GpuConfig, cfg: GfxConfig, mem: SharedMem, rt: RenderTarget) -> Self {
        let n = gpu_cfg.clusters;
        let gpu = Gpu::new(gpu_cfg);
        let tcmap = TcMap::new(rt.width, rt.height, cfg.tc_tile_px(), cfg.wt_size, n);
        let ctx = GfxState::new(mem.clone(), rt);
        let ovb_slots = 4096u64;
        let ovb_base = mem.alloc(ovb_slots * OVB_STRIDE, 128);
        Self {
            gpu,
            mem,
            ctx,
            tcmap,
            rt,
            ovb_base,
            ovb_slots,
            pipes: (0..n).map(|c| ClusterPipe::new(c, &cfg)).collect(),
            vpos: (0..n).map(|_| VpoUnit::new(n)).collect(),
            pmrbs: (0..n).map(|_| Pmrb::new(0)).collect(),
            mask_link: Link::new(8, n.max(1), 256),
            cur: None,
            queue: VecDeque::new(),
            jobs: FxHashMap::default(),
            tiles: FxHashMap::default(),
            launching: (0..n).map(|_| None).collect(),
            launch_tile_ids: vec![0; n],
            next_id: 1,
            frag_outstanding: 0,
            per_core_fragments: vec![0; n],
            vertices_shaded: 0,
            vertex_warps: 0,
            clock: 0,
            draw_times: Vec::new(),
            cfg,
        }
    }

    /// Publishes the renderer's instruments: the GPU (cores, L1s, L2) under
    /// `{prefix}.gpu.*`, functional-context counters under `{prefix}.ctx.*`,
    /// per-cluster pipeline counters under `{prefix}.clusterN.*`, and a
    /// per-draw latency summary at `{prefix}.draw_cycles`.
    pub fn publish(&self, reg: &mut emerald_obs::Registry, prefix: &str) {
        self.gpu.publish(reg, &format!("{prefix}.gpu"));
        let ctx = self.ctx.stats();
        reg.set_counter(format!("{prefix}.ctx.ztest_pass"), ctx.ztest_pass);
        reg.set_counter(format!("{prefix}.ctx.ztest_fail"), ctx.ztest_fail);
        reg.set_counter(format!("{prefix}.ctx.tex_samples"), ctx.tex_samples);
        reg.set_counter(format!("{prefix}.ctx.fb_writes"), ctx.fb_writes);
        for (i, pipe) in self.pipes.iter().enumerate() {
            let cs = pipe.stats();
            let p = format!("{prefix}.cluster{i}");
            reg.set_counter(format!("{p}.prims_setup"), cs.prims_setup);
            reg.set_counter(format!("{p}.raster_tiles"), cs.raster_tiles);
            reg.set_counter(format!("{p}.hiz_killed"), cs.hiz_killed);
            reg.set_counter(format!("{p}.fragments"), cs.fragments);
            reg.set_counter(format!("{p}.tc_tiles"), cs.tc_tiles);
            reg.set_counter(format!("{p}.tc_conflict_flushes"), cs.tc_conflict_flushes);
            reg.set_counter(format!("{p}.tc_timeout_flushes"), cs.tc_timeout_flushes);
        }
        let mut draws = emerald_common::stats::Summary::new();
        for &t in &self.draw_times {
            draws.add(t as f64);
        }
        reg.set_summary(format!("{prefix}.draw_cycles"), draws);
    }

    /// Current WT (work tile) size.
    pub fn wt(&self) -> u32 {
        self.tcmap.wt()
    }

    /// Sets the WT granularity for subsequent draws (what DFSL adjusts).
    ///
    /// # Panics
    ///
    /// Panics if called while a draw is in flight.
    pub fn set_wt(&mut self, wt: u32) {
        assert!(self.cur.is_none(), "cannot change WT mid-draw");
        self.tcmap.set_wt(wt);
        self.cfg.wt_size = wt;
    }

    /// Enqueues a draw call.
    pub fn draw(&mut self, dc: DrawCall) {
        self.queue.push_back((dc, None));
    }

    /// Enqueues a draw call that renders at its own WT granularity
    /// (draw-call-level DFSL, §6.3's suggested extension).
    pub fn draw_with_wt(&mut self, dc: DrawCall, wt: u32) {
        self.queue.push_back((dc, Some(wt)));
    }

    /// Execution time of each draw completed this frame, in submission
    /// order.
    pub fn draw_times(&self) -> &[Cycle] {
        &self.draw_times
    }

    /// True when no draw is pending or in flight and the GPU is drained.
    pub fn is_idle(&self) -> bool {
        self.cur.is_none() && self.queue.is_empty() && self.gpu.is_idle()
    }

    fn read_clip_vert(mem: &SharedMem, addr: Addr) -> ClipVert {
        let f = |o: u64| mem.read_f32(addr + o);
        ClipVert {
            pos: Vec4::new(f(0), f(4), f(8), f(12)),
            attrs: [f(16), f(20), f(24)],
        }
    }

    fn start_draw(&mut self, dc: DrawCall, wt: Option<u32>, now: Cycle) {
        if let Some(wt) = wt {
            self.tcmap.set_wt(wt);
            self.cfg.wt_size = wt;
        }
        let warps = build_vertex_warps(&dc, self.cfg.vertex_overlap);
        let total = warps.len() as u32;
        let needed_slots = total as u64 * 32;
        if needed_slots > self.ovb_slots {
            self.ovb_slots = needed_slots.next_power_of_two();
            self.ovb_base = self.mem.alloc(self.ovb_slots * OVB_STRIDE, 128);
        }
        let n = self.pipes.len();
        self.pmrbs = (0..n).map(|_| Pmrb::new(total)).collect();
        self.ctx.bind_texture(0, dc.texture);
        let consumptions = (0..total).map(|s| (s, n)).collect();
        let vs_params = vs_params(dc.vb.base, self.ovb_base, &dc.mvp).into();
        self.cur = Some(DrawState {
            dc,
            started_at: now,
            warps,
            next_warp: 0,
            credits: self.cfg.max_vertex_warps,
            completed: FxHashSet::default(),
            consumptions,
            core_cursor: 0,
            vs_params,
            fs_params: Arc::from([]),
        });
    }

    fn dispatch_vertex_warps(&mut self) {
        let Some(ds) = self.cur.as_mut() else {
            return;
        };
        let n_cores = self.gpu.num_cores();
        while ds.next_warp < ds.warps.len() && ds.credits > 0 {
            let vw = &ds.warps[ds.next_warp];
            // Round-robin core placement with capacity probing.
            let mut placed = false;
            for off in 0..n_cores {
                let core = (ds.core_cursor + off) % n_cores;
                if !self.gpu.core(core).can_accept(&ds.dc.vs, 1) {
                    continue;
                }
                // Every builder gives a warp at least one vertex
                // (`batch.rs`), and `Warp::new` asserts it.
                let mut regs = WarpRegs::new(&ds.dc.vs);
                for (lane, &vi) in vw.vertex_indices.iter().enumerate() {
                    let slot = (vw.seq as u64 * 32 + lane as u64) % self.ovb_slots;
                    regs.set_input(abi::INPUT_VTX_INDEX, lane, vi);
                    regs.set_input(abi::INPUT_OVB_SLOT, lane, slot as u32);
                }
                let id = self.next_id;
                self.next_id += 1;
                let warp = Warp::new(
                    regs,
                    vw.vertex_indices.len(),
                    ds.dc.vs.clone(),
                    ds.vs_params.clone(),
                    WarpTag::External(id),
                );
                self.gpu
                    .core_mut(core)
                    .launch(warp)
                    .expect("can_accept checked");
                self.jobs.insert(
                    id,
                    WarpJob::Vertex {
                        cluster: core,
                        warp: vw.clone(),
                    },
                );
                self.vertices_shaded += vw.vertex_indices.len() as u64;
                self.vertex_warps += 1;
                ds.credits -= 1;
                ds.next_warp += 1;
                ds.core_cursor = (core + 1) % n_cores;
                placed = true;
                break;
            }
            if !placed {
                break;
            }
        }
    }

    /// Whether the current draw lets PMRBs consume masks out of order.
    fn allow_ooo(&self) -> bool {
        self.cfg.ooo_prims
            && self
                .cur
                .as_ref()
                .is_some_and(|d| d.dc.depth_test && !d.dc.blend)
    }

    fn geometry_done(&self) -> bool {
        let Some(ds) = self.cur.as_ref() else {
            return true;
        };
        ds.next_warp >= ds.warps.len()
            && ds.completed.len() >= ds.warps.len()
            && self.vpos.iter().all(|v| v.is_idle())
            && self.mask_link.is_empty()
            && self.pmrbs.iter().all(|p| p.is_done())
    }

    fn draw_done(&self) -> bool {
        self.geometry_done()
            && self
                .pipes
                .iter()
                .all(|p| p.is_drained() && p.tc.busy_count() == 0)
            && self.launching.iter().all(Option::is_none)
            && self.frag_outstanding == 0
    }

    fn launch_fragments(&mut self, cluster: usize) {
        let Some(ds) = self.cur.as_ref() else {
            return;
        };
        if self.launching[cluster].is_none() {
            if let Some(tile) = self.pipes[cluster].tc.pop_ready() {
                let n_warps = tile.frags.len().div_ceil(32) as u32;
                let tile_id = self.next_id;
                self.next_id += 1;
                self.tiles.insert(
                    tile_id,
                    TileEntry {
                        cluster,
                        tc_pos: tile.tc_pos,
                        warps_remaining: n_warps,
                    },
                );
                self.launching[cluster] = Some((tile, 0));
                self.launch_tile_ids[cluster] = tile_id;
            }
        }
        if let Some((tile, cursor)) = self.launching[cluster].take() {
            let mut cursor = cursor;
            // One warp launch attempt per cycle.
            if self.gpu.core(cluster).can_accept(&ds.dc.fs, 1) {
                let chunk = &tile.frags[cursor..(cursor + 32).min(tile.frags.len())];
                let mut regs = WarpRegs::new(&ds.dc.fs);
                for (lane, f) in chunk.iter().enumerate() {
                    regs.set_input(input::FRAG_X, lane, f.x);
                    regs.set_input(input::FRAG_Y, lane, f.y);
                    regs.set_input(input::FRAG_Z, lane, f.z.to_bits());
                    for (k, a) in f.attrs.iter().enumerate() {
                        regs.set_input(input::FRAG_ATTR0 + k, lane, a.to_bits());
                    }
                }
                let count = chunk.len();
                let id = self.next_id;
                self.next_id += 1;
                let (fs, params) = (ds.dc.fs.clone(), ds.fs_params.clone());
                let warp = Warp::new(regs, count, fs, params, WarpTag::External(id));
                self.gpu
                    .core_mut(cluster)
                    .launch(warp)
                    .expect("can_accept checked");
                self.jobs.insert(
                    id,
                    WarpJob::Fragment {
                        tile: self.launch_tile_ids[cluster],
                    },
                );
                self.frag_outstanding += 1;
                self.per_core_fragments[cluster] += count as u64;
                cursor += count;
            }
            if cursor < tile.frags.len() {
                self.launching[cluster] = Some((tile, cursor));
            }
        }
    }

    /// Advances the renderer and GPU one cycle.
    pub fn cycle(&mut self, now: Cycle, port: &mut dyn MemPort) {
        // Start the next draw if idle.
        if self.cur.is_none() {
            if let Some((dc, wt)) = self.queue.pop_front() {
                self.start_draw(dc, wt, now);
            }
        }

        // 1. GPU executes shader warps.
        self.gpu.cycle(now, &mut self.ctx, port);

        // 2. Completed warps feed the pipeline.
        for (_, payload) in self.gpu.drain_external_finished() {
            match self.jobs.remove(&payload) {
                Some(WarpJob::Vertex { cluster, warp }) => {
                    if let Some(ds) = self.cur.as_mut() {
                        ds.completed.insert(warp.seq);
                    }
                    self.vpos[cluster].push_warp(warp);
                }
                Some(WarpJob::Fragment { tile }) => {
                    let done = {
                        let e = self.tiles.get_mut(&tile).expect("tile entry");
                        e.warps_remaining -= 1;
                        e.warps_remaining == 0
                    };
                    self.frag_outstanding -= 1;
                    if done {
                        let e = self.tiles.remove(&tile).expect("tile entry");
                        self.pipes[e.cluster].tc.complete(e.tc_pos);
                    }
                }
                None => unreachable!("unknown warp payload"),
            }
        }

        let Some(ds) = self.cur.as_ref() else {
            return;
        };
        let (width, height) = (self.rt.width, self.rt.height);
        let (depth_test, depth_write) = (ds.dc.depth_test, ds.dc.depth_write);

        // 3. Dispatch vertex warps.
        self.dispatch_vertex_warps();

        // 4. VPO bounding-box units.
        let completed = self.cur.as_ref().map(|d| &d.completed);
        let mem = &self.mem;
        let ovb_base = self.ovb_base;
        let ovb_slots = self.ovb_slots;
        let read_pos = |c: CornerRef| {
            let slot = (c.0 as u64 * 32 + c.1 as u64) % ovb_slots;
            let addr = ovb_base + slot * OVB_STRIDE;
            Vec4::new(
                mem.read_f32(addr),
                mem.read_f32(addr + 4),
                mem.read_f32(addr + 8),
                mem.read_f32(addr + 12),
            )
        };
        let warp_done = |s: u32| completed.is_some_and(|c| c.contains(&s));
        for cl in 0..self.vpos.len() {
            if let Some(masks) =
                self.vpos[cl].tick(&self.tcmap, width, height, &warp_done, &read_pos)
            {
                for (dest, mask) in masks {
                    if dest == cl {
                        self.pmrbs[dest].receive(mask);
                    } else if let Err((d, m)) = self.mask_link.push(now, (dest, mask)) {
                        // Interconnect saturated: deliver anyway (the link
                        // capacity is sized to make this rare).
                        self.pmrbs[d].receive(m);
                    }
                }
            }
        }
        while let Some((dest, mask)) = self.mask_link.pop(now) {
            self.pmrbs[dest].receive(mask);
        }

        // 5. PMRBs feed setup queues; track credit releases.
        let allow_ooo = self.allow_ooo();
        for cl in 0..self.pmrbs.len() {
            self.pmrbs[cl].tick_ordered(allow_ooo);
            if let Some(p) = self.pmrbs[cl].pop_prim() {
                self.pipes[cl].push_prim(p);
            }
            for seq in self.pmrbs[cl].take_consumed() {
                if let Some(ds) = self.cur.as_mut() {
                    let remaining = ds.consumptions.get_mut(&seq).expect("seq tracked");
                    *remaining -= 1;
                    if *remaining == 0 {
                        ds.consumptions.remove(&seq);
                        ds.credits += 1;
                    }
                }
            }
        }

        // 6. Cluster raster pipelines.
        let flush_tc = self.geometry_done();
        let mem = &self.mem;
        let read_vert = |c: CornerRef| {
            let slot = (c.0 as u64 * 32 + c.1 as u64) % ovb_slots;
            Self::read_clip_vert(mem, ovb_base + slot * OVB_STRIDE)
        };
        for cl in 0..self.pipes.len() {
            self.pipes[cl].tick(
                now,
                &self.tcmap,
                width,
                height,
                depth_test,
                depth_write,
                flush_tc,
                &read_vert,
            );
        }

        // 7. Fragment warp launches.
        for cl in 0..self.pipes.len() {
            self.launch_fragments(cl);
        }

        // 8. Draw retirement.
        if self.draw_done() {
            if let Some(ds) = self.cur.take() {
                emerald_obs::trace::span_args(
                    emerald_obs::TraceCat::Draw,
                    "drawcall",
                    0,
                    ds.started_at,
                    now,
                    &[("draw", self.draw_times.len() as u64)],
                );
                self.draw_times.push(now.saturating_sub(ds.started_at));
            }
        }
    }

    /// One-line internal state summary (diagnostics).
    pub fn debug_snapshot(&self) -> String {
        let ds = self.cur.as_ref();
        format!(
            "draw={} next_warp={:?} credits={:?} completed={:?} vpo_backlog={:?} pmrb_ready={:?} pmrb_done={:?} pipes_drained={:?} busy={:?} launching={:?} frag_out={} jobs={}",
            ds.is_some(),
            ds.map(|d| d.next_warp),
            ds.map(|d| d.credits),
            ds.map(|d| d.completed.len()),
            self.vpos.iter().map(|v| v.backlog()).collect::<Vec<_>>(),
            self.pmrbs.iter().map(|p| p.ready()).collect::<Vec<_>>(),
            self.pmrbs.iter().map(|p| p.is_done()).collect::<Vec<_>>(),
            self.pipes.iter().map(|p| p.is_drained()).collect::<Vec<_>>(),
            self.pipes.iter().map(|p| p.tc.busy_count()).collect::<Vec<_>>(),
            self.launching.iter().map(|l| l.is_some()).collect::<Vec<_>>(),
            self.frag_outstanding,
            self.jobs.len(),
        )
    }

    /// Runs all queued draws to completion; returns the per-frame stats.
    ///
    /// With `GpuConfig::event_skip` on, cycles the renderer provably
    /// spends waiting on nothing (per the
    /// [`emerald_common::event::NextEvent`] contract) are jumped rather
    /// than ticked; stats and images are bit-identical either way.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline fails to drain within `max_cycles`.
    pub fn run_frame(&mut self, port: &mut dyn MemPort, max_cycles: Cycle) -> FrameStats {
        struct Run<'a>(&'a mut GpuRenderer, &'a mut dyn MemPort);
        impl emerald_gpu::gpu::Drain for Run<'_> {
            fn is_idle(&self) -> bool {
                self.0.is_idle()
            }
            fn cycle(&mut self, now: Cycle) {
                self.0.cycle(now, self.1);
            }
            fn next_events(&self, now: Cycle) -> [Option<Cycle>; 2] {
                [
                    emerald_common::event::NextEvent::next_event(&*self.0, now),
                    self.1.next_event(now),
                ]
            }
            fn skip(&mut self, delta: Cycle) {
                self.0.skip(delta);
            }
        }
        self.begin_frame();
        let start = self.clock;
        let skip = self.gpu.config().event_skip;
        self.clock =
            emerald_gpu::gpu::drain_loop(&mut Run(self, port), "frame", start, max_cycles, skip);
        emerald_obs::trace::span(
            emerald_obs::TraceCat::Frame,
            "render_frame",
            0,
            start,
            self.clock,
        );
        self.frame_stats(self.clock - start)
    }

    /// Books `delta` cycles the clock jumped over, none of them at or past
    /// this renderer's `next_event`. The fixed-function pipe keeps no
    /// per-cycle counters; the time-linear ones are the GPU's
    /// ([`Gpu::skip`]).
    pub fn skip(&mut self, delta: Cycle) {
        self.gpu.skip(delta);
    }

    /// Fragments launched for shading so far this frame (mid-frame
    /// progress signal for DASH deadline feedback).
    pub fn fragments_launched(&self) -> u64 {
        self.per_core_fragments.iter().sum()
    }

    /// Resets per-frame statistics and per-frame pipeline state (Hi-Z).
    /// Called automatically by [`GpuRenderer::run_frame`]; external frame
    /// loops (the SoC) call it at frame start.
    pub fn begin_frame(&mut self) {
        self.gpu.reset_stats();
        self.ctx.reset_stats();
        self.per_core_fragments = vec![0; self.pipes.len()];
        self.vertices_shaded = 0;
        self.vertex_warps = 0;
        self.draw_times.clear();
        let n = self.pipes.len();
        self.pipes = (0..n).map(|c| ClusterPipe::new(c, &self.cfg)).collect();
        self.vpos = (0..n).map(|_| VpoUnit::new(n)).collect();
    }

    /// Gathers the frame's statistics (external frame loops pass the
    /// cycles the frame took).
    pub fn frame_stats(&self, cycles: Cycle) -> FrameStats {
        let mut fs = FrameStats {
            cycles,
            vertex_warps: self.vertex_warps,
            vertices_shaded: self.vertices_shaded,
            per_core_fragments: self.per_core_fragments.clone(),
            instructions: self.gpu.stats().issued,
            dram_reads: self.gpu.stats().mem_reads,
            dram_writes: self.gpu.stats().mem_writes,
            ..FrameStats::default()
        };
        let vstats: Vec<VpoStats> = self.vpos.iter().map(|v| v.stats()).collect();
        fs.prims_distributed = vstats.iter().map(|v| v.distributed).sum();
        fs.prims_culled = vstats.iter().map(|v| v.culled()).sum();
        let cstats: Vec<ClusterStats> = self.pipes.iter().map(|p| p.stats()).collect();
        fs.fragments = cstats.iter().map(|c| c.fragments).sum();
        fs.hiz_killed = cstats.iter().map(|c| c.hiz_killed).sum();
        fs.tc_tiles = cstats.iter().map(|c| c.tc_tiles).sum();
        for ci in 0..self.gpu.num_cores() {
            use emerald_isa::exec::Surface;
            let core = self.gpu.core(ci);
            fs.l1d_misses += core.l1(Surface::Data).expect("l1d").stats().misses();
            fs.l1t_misses += core.l1(Surface::Texture).expect("l1t").stats().misses();
            fs.l1z_misses += core.l1(Surface::Depth).expect("l1z").stats().misses();
            fs.l1c_misses += core.l1(Surface::ConstVertex).expect("l1c").stats().misses();
        }
        fs.l2_misses = self.gpu.l2().stats().misses();
        fs
    }
}

impl emerald_common::snap::Snapshot for GpuRenderer {
    /// Serializes the renderer at a drained checkpoint boundary: the GPU
    /// (cores, caches, write-id stream), the functional context bindings,
    /// the WT granularity, the OVB allocation, per-cluster pipes and VPO
    /// statistics, interconnect counters, launch-id cursors, frame
    /// counters and the monotonic clock. Draw calls hold `Arc<Program>`
    /// and are never in flight at a boundary.
    ///
    /// # Panics
    ///
    /// Panics if a draw is pending or in flight, fragments are
    /// outstanding, or any warp job / TC tile is still tracked.
    fn snapshot(&self, w: &mut SnapWriter) {
        assert!(self.is_idle(), "renderer must be drained at a checkpoint");
        assert!(
            self.frag_outstanding == 0
                && self.jobs.is_empty()
                && self.tiles.is_empty()
                && self.launching.iter().all(Option::is_none),
            "no warp jobs or TC tiles may be tracked at a checkpoint"
        );
        w.section(1, |w| self.gpu.snapshot(w));
        w.section(2, |w| self.ctx.snapshot(w));
        w.put_u32(self.tcmap.wt());
        w.put_u64(self.ovb_base);
        w.put_u64(self.ovb_slots);
        w.put_usize(self.pipes.len());
        for p in &self.pipes {
            w.section(3, |w| p.snapshot(w));
        }
        for v in &self.vpos {
            w.section(4, |w| v.snapshot(w));
        }
        self.mask_link.snapshot_drained(w);
        w.put_seq(self.launch_tile_ids.iter(), |w, &id| w.put_u64(id));
        w.put_u64(self.next_id);
        w.put_seq(self.per_core_fragments.iter(), |w, &f| w.put_u64(f));
        w.put_u64(self.vertices_shaded);
        w.put_u64(self.vertex_warps);
        w.put_u64(self.clock);
        w.put_seq(self.draw_times.iter(), |w, &t| w.put_u64(t));
    }
}

impl emerald_common::snap::Restore for GpuRenderer {
    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.section(1, |r| self.gpu.restore(r))?;
        r.section(2, |r| self.ctx.restore(r))?;
        self.rt = *self.ctx.render_target();
        let wt = r.get_u32()?;
        self.tcmap.set_wt(wt);
        self.cfg.wt_size = wt;
        self.ovb_base = r.get_u64()?;
        self.ovb_slots = r.get_u64()?;
        let n = self.pipes.len();
        if r.get_usize()? != n {
            return Err(SnapError::BadValue {
                what: "renderer cluster count mismatch",
            });
        }
        for p in &mut self.pipes {
            r.section(3, |r| p.restore(r))?;
        }
        for v in &mut self.vpos {
            r.section(4, |r| v.restore(r))?;
        }
        self.mask_link.restore_drained(r)?;
        self.launch_tile_ids = r.get_seq(8, |r| r.get_u64())?;
        self.next_id = r.get_u64()?;
        self.per_core_fragments = r.get_seq(8, |r| r.get_u64())?;
        if self.launch_tile_ids.len() != n || self.per_core_fragments.len() != n {
            return Err(SnapError::BadValue {
                what: "renderer per-cluster vector length mismatch",
            });
        }
        self.vertices_shaded = r.get_u64()?;
        self.vertex_warps = r.get_u64()?;
        self.clock = r.get_u64()?;
        self.draw_times = r.get_seq(8, |r| r.get_u64())?;
        self.cur = None;
        self.queue.clear();
        self.jobs.clear();
        self.tiles.clear();
        self.launching = (0..n).map(|_| None).collect();
        self.frag_outstanding = 0;
        self.pmrbs = (0..n).map(|_| Pmrb::new(0)).collect();
        Ok(())
    }
}

impl emerald_common::event::NextEvent for GpuRenderer {
    /// Between draws the GPU's own contract decides (a queued draw starts
    /// next cycle; submission itself is an external input and the
    /// caller's event to account for). With a draw current, `now + 1` if
    /// any step of [`GpuRenderer::cycle`] would move: a vertex warp can be
    /// placed, a VPO holds a warp, a PMRB can advance, a raster stage
    /// queue holds work, a TC ready-scan is owed, or a fragment warp can
    /// launch. Otherwise the pipe is blocked on a warp retiring — the
    /// GPU's event — or on a known-time one: the setup pipe's next
    /// completion, a mask crossing the interconnect, a TC engine's
    /// timeout.
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let pin = Some(now + 1);
        let gpu = &self.gpu;
        let Some(ds) = self.cur.as_ref() else {
            return if self.queue.is_empty() {
                gpu.next_event(now)
            } else {
                pin
            };
        };
        let can_place = ds.next_warp < ds.warps.len()
            && ds.credits > 0
            && (0..gpu.num_cores()).any(|c| gpu.core(c).can_accept(&ds.dc.vs, 1));
        let allow_ooo = self.allow_ooo();
        if can_place
            || self.vpos.iter().any(|v| !v.is_idle())
            || self.pmrbs.iter().any(|p| p.can_advance(allow_ooo))
        {
            return pin;
        }
        let flush_tc = self.geometry_done();
        let mut wake = self.mask_link.next_arrival();
        for (cl, pipe) in self.pipes.iter().enumerate() {
            // `launch_fragments`: continue a tile if the core has room,
            // else look for the next one.
            let launch = match self.launching[cl] {
                Some(_) => gpu.core(cl).can_accept(&ds.dc.fs, 1),
                None => pipe.tc.wants_scan(),
            };
            if launch {
                return pin;
            }
            match pipe.next_event(now, flush_tc) {
                Some(t) if t <= now + 1 => return pin,
                t => wake = earliest(wake, t),
            }
        }
        earliest(wake, gpu.next_event(now)).map(|t| t.max(now + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{diff_pixels, render_reference};
    use crate::shaders::{self, FsOptions};
    use crate::state::TextureDesc;
    use crate::state::{Topology, VertexBuffer};
    use emerald_common::math::{Mat4, Vec3};
    use emerald_gpu::gpu::SimpleMemPort;
    use emerald_mem::dram::DramConfig;
    use emerald_mem::system::{MemorySystem, MemorySystemConfig};
    use emerald_scene::mesh::{plane_grid, unit_cube, uv_sphere};
    use emerald_scene::texture::TextureData;

    const W: u32 = 64;
    const H: u32 = 64;

    fn setup() -> (GpuRenderer, SimpleMemPort, SharedMem, RenderTarget) {
        let mem = SharedMem::with_capacity(1 << 24);
        let rt = RenderTarget::alloc(&mem, W, H);
        rt.clear(&mem, [0.0; 4], 1.0);
        let r = GpuRenderer::new(
            GpuConfig::tiny(),
            GfxConfig::case_study_2(),
            mem.clone(),
            rt,
        );
        let port = SimpleMemPort::new(MemorySystem::new(MemorySystemConfig::baseline(
            2,
            DramConfig::lpddr3_1600(),
        )));
        (r, port, mem, rt)
    }

    fn cube_mvp(frame: u32) -> Mat4 {
        let a = 0.3 + frame as f32 * 0.05;
        Mat4::perspective(60f32.to_radians(), 1.0, 0.1, 50.0).mul_mat4(&Mat4::look_at(
            Vec3::new(1.8 * a.cos(), 1.2, 1.8 * a.sin()),
            Vec3::splat(0.0),
            Vec3::new(0.0, 1.0, 0.0),
        ))
    }

    fn make_draw(
        mem: &SharedMem,
        mesh: &emerald_scene::mesh::Mesh,
        mvp: Mat4,
        fso: FsOptions,
        tex: Option<TextureDesc>,
    ) -> DrawCall {
        DrawCall {
            vb: VertexBuffer::upload(mem, mesh),
            topology: Topology::Triangles,
            vs: shaders::vertex_transform(),
            fs: shaders::fragment_shader(fso),
            mvp: mvp.to_array(),
            depth_test: fso.depth_test,
            depth_write: fso.depth_write,
            blend: fso.blend,
            texture: tex,
        }
    }

    #[test]
    fn snapshot_round_trip_renders_next_frame_in_lockstep() {
        use emerald_common::snap::{Restore as _, SnapReader, SnapWriter, Snapshot as _};
        let (mut a, mut port_a, mem_a, rt_a) = setup();
        let fso = FsOptions {
            textured: false,
            ..FsOptions::default()
        };
        a.draw(make_draw(&mem_a, &unit_cube(), cube_mvp(0), fso, None));
        a.run_frame(&mut port_a, 3_000_000);
        // Quiesce the DRAM writeback tail so the system is checkpointable.
        let mut now = a.clock;
        while !port_a.mem.is_idle() {
            port_a.tick(now);
            now += 1;
        }
        while port_a.recv(now).is_some() {}

        let mut w = SnapWriter::new();
        a.snapshot(&mut w);
        mem_a.snapshot(&mut w);
        port_a.mem.snapshot(&mut w);
        let enc = w.into_bytes();

        let (mut b, mut port_b, mut mem_b, rt_b) = setup();
        let mut r = SnapReader::new(&enc);
        b.restore(&mut r).unwrap();
        mem_b.restore(&mut r).unwrap();
        port_b.mem.restore(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(b.clock, a.clock, "monotonic clock must carry over");

        // Render an identical second frame on both; the restored renderer
        // must replay it cycle-for-cycle (same warm caches, same DRAM
        // timestamps, same allocator cursor).
        let dc_a = make_draw(&mem_a, &unit_cube(), cube_mvp(1), fso, None);
        let dc_b = make_draw(&mem_b, &unit_cube(), cube_mvp(1), fso, None);
        assert_eq!(dc_a.vb.base, dc_b.vb.base, "allocator cursors must match");
        a.draw(dc_a);
        b.draw(dc_b);
        let sa = a.run_frame(&mut port_a, 3_000_000);
        let sb = b.run_frame(&mut port_b, 3_000_000);
        assert_eq!(sa.cycles, sb.cycles, "frame timing must be identical");
        assert_eq!(sa.fragments, sb.fragments);
        assert_eq!(sa.l1d_misses, sb.l1d_misses);
        assert_eq!(a.clock, b.clock);
        assert_eq!(
            rt_a.read_color(&mem_a),
            rt_b.read_color(&mem_b),
            "framebuffers must be identical"
        );
    }

    #[test]
    fn hardware_matches_reference_flat_cube() {
        let (mut r, mut port, mem, rt) = setup();
        let fso = FsOptions {
            textured: false,
            ..FsOptions::default()
        };
        let dc = make_draw(&mem, &unit_cube(), cube_mvp(0), fso, None);

        // Reference image on a second target.
        let ref_rt = RenderTarget::alloc(&mem, W, H);
        ref_rt.clear(&mem, [0.0; 4], 1.0);
        render_reference(&mem, ref_rt, &dc, fso);

        r.draw(dc);
        let stats = r.run_frame(&mut port, 3_000_000);
        assert!(stats.fragments > 300, "fragments {}", stats.fragments);
        assert!(stats.cycles > 0);
        let hw = rt.read_color(&mem);
        let sw = ref_rt.read_color(&mem);
        assert_eq!(diff_pixels(&hw, &sw), 0, "hardware image differs");
    }

    #[test]
    fn hardware_matches_reference_textured_sphere() {
        let (mut r, mut port, mem, rt) = setup();
        let tex = TextureDesc::upload(&mem, &TextureData::checker(64, 8));
        let fso = FsOptions::default();
        let dc = make_draw(&mem, &uv_sphere(0.9, 10, 14), cube_mvp(3), fso, Some(tex));
        let ref_rt = RenderTarget::alloc(&mem, W, H);
        ref_rt.clear(&mem, [0.0; 4], 1.0);
        render_reference(&mem, ref_rt, &dc, fso);

        r.draw(dc);
        let stats = r.run_frame(&mut port, 6_000_000);
        assert!(stats.fragments > 200);
        assert!(stats.l1t_misses > 0, "texturing must touch L1T");
        let hw = rt.read_color(&mem);
        let sw = ref_rt.read_color(&mem);
        assert_eq!(diff_pixels(&hw, &sw), 0);
    }

    #[test]
    fn two_draws_depth_compose() {
        // Far plane drawn first, near cube second: cube must occlude.
        let (mut r, mut port, mem, rt) = setup();
        let fso = FsOptions {
            textured: false,
            ..FsOptions::default()
        };
        let mut plane = plane_grid(2, 2);
        plane.transform(&Mat4::rotate_x(std::f32::consts::FRAC_PI_2));
        let far = make_draw(
            &mem,
            &plane,
            Mat4::translate(Vec3::new(0.0, 0.0, -0.9)).mul_mat4(&Mat4::scale(Vec3::splat(1.8))),
            fso,
            None,
        );
        let near = make_draw(&mem, &unit_cube(), cube_mvp(0), fso, None);

        let ref_rt = RenderTarget::alloc(&mem, W, H);
        ref_rt.clear(&mem, [0.0; 4], 1.0);
        render_reference(&mem, ref_rt, &far, fso);
        render_reference(&mem, ref_rt, &near, fso);

        r.draw(far);
        r.draw(near);
        r.run_frame(&mut port, 6_000_000);
        assert_eq!(
            diff_pixels(&rt.read_color(&mem), &ref_rt.read_color(&mem)),
            0
        );
    }

    #[test]
    fn translucent_blend_matches_reference() {
        let (mut r, mut port, mem, rt) = setup();
        let opaque = FsOptions {
            textured: false,
            ..FsOptions::default()
        };
        let glass = FsOptions {
            textured: false,
            depth_write: false,
            blend: true,
            alpha: Some(0.5),
            ..FsOptions::default()
        };
        let back = make_draw(&mem, &unit_cube(), cube_mvp(0), opaque, None);
        let front = make_draw(&mem, &uv_sphere(0.8, 8, 10), cube_mvp(1), glass, None);
        let ref_rt = RenderTarget::alloc(&mem, W, H);
        ref_rt.clear(&mem, [0.0; 4], 1.0);
        render_reference(&mem, ref_rt, &back, opaque);
        render_reference(&mem, ref_rt, &front, glass);

        r.draw(back);
        r.draw(front);
        r.run_frame(&mut port, 8_000_000);
        assert_eq!(
            diff_pixels(&rt.read_color(&mem), &ref_rt.read_color(&mem)),
            0
        );
    }

    #[test]
    fn wt_size_changes_work_distribution() {
        let (mut r, mut port, mem, _rt) = setup();
        let fso = FsOptions {
            textured: false,
            ..FsOptions::default()
        };
        let dc = make_draw(&mem, &unit_cube(), cube_mvp(0), fso, None);
        r.draw(dc.clone());
        let s1 = r.run_frame(&mut port, 3_000_000);
        r.set_wt(8);
        r.draw(dc);
        let s8 = r.run_frame(&mut port, 3_000_000);
        assert_eq!(s1.fragments, s8.fragments, "same image, same fragments");
        // WT=8 on a 64px (8-tile) wide screen puts whole rows on one core:
        // strictly worse balance than WT=1.
        let spread = |v: &[u64]| v.iter().max().unwrap() - v.iter().min().unwrap();
        assert!(
            spread(&s8.per_core_fragments) >= spread(&s1.per_core_fragments),
            "wt8 {:?} vs wt1 {:?}",
            s8.per_core_fragments,
            s1.per_core_fragments
        );
    }

    #[test]
    fn ooo_prims_image_matches_in_order() {
        // §3.3.6: with depth testing on and blending off, out-of-order
        // primitive processing must not change the image.
        let fso = FsOptions {
            textured: false,
            ..FsOptions::default()
        };
        let render = |ooo: bool| {
            let mem = SharedMem::with_capacity(1 << 24);
            let rt = RenderTarget::alloc(&mem, W, H);
            rt.clear(&mem, [0.0; 4], 1.0);
            let cfg = GfxConfig {
                ooo_prims: ooo,
                ..GfxConfig::case_study_2()
            };
            let mut r = GpuRenderer::new(GpuConfig::tiny(), cfg, mem.clone(), rt);
            let mut port = SimpleMemPort::new(MemorySystem::new(MemorySystemConfig::baseline(
                2,
                DramConfig::lpddr3_1600(),
            )));
            let dc = make_draw(&mem, &uv_sphere(0.9, 10, 14), cube_mvp(2), fso, None);
            r.draw(dc);
            r.run_frame(&mut port, 5_000_000);
            rt.read_color(&mem)
        };
        assert_eq!(diff_pixels(&render(false), &render(true)), 0);
    }

    #[test]
    fn frame_stats_are_consistent() {
        let (mut r, mut port, mem, _rt) = setup();
        let fso = FsOptions {
            textured: false,
            ..FsOptions::default()
        };
        let dc = make_draw(&mem, &unit_cube(), cube_mvp(0), fso, None);
        let prims = dc.prim_count() as u64;
        r.draw(dc);
        let s = r.run_frame(&mut port, 3_000_000);
        assert_eq!(s.prims_distributed + s.prims_culled, prims);
        assert!(s.prims_culled > 0, "a cube has backfaces");
        assert_eq!(
            s.per_core_fragments.iter().sum::<u64>(),
            s.fragments,
            "launched fragments must equal rasterized fragments"
        );
        assert!(s.vertex_warps > 0 && s.vertices_shaded >= 36);
        assert!(s.instructions > 0);
        assert!(s.dram_reads > 0);
    }
}

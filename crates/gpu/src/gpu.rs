//! The assembled GPU: SIMT cores grouped in clusters, the intra-GPU
//! interconnect, the banked shared L2, the compute dispatcher, and the
//! port to external memory (Fig. 4 of the paper).

use crate::config::GpuConfig;
use crate::core::{L1Miss, SimtCore};
use crate::ctx::ImageCtx;
use crate::kernel::{Kernel, KernelState};
use crate::l2::{L1Target, L2};
use crate::warp::{Warp, WarpTag};
use emerald_common::event::{earliest, next_wake};
use emerald_common::snap::{SnapError, SnapReader, SnapWriter};
use emerald_common::types::{AccessKind, Addr, CoreId, Cycle, TrafficSource};
use emerald_mem::link::Link;
use emerald_mem::req::{MemRequest, MemResponse};
use emerald_mem::system::MemorySystem;
use std::collections::VecDeque;

/// The GPU's connection to external memory (standalone DRAM or an SoC NoC).
pub trait MemPort {
    /// Advances the backing memory one cycle.
    fn tick(&mut self, now: Cycle);

    /// Attempts to send a request; hands it back on backpressure.
    fn try_send(&mut self, req: MemRequest, now: Cycle) -> Result<(), MemRequest>;

    /// Receives the next completed read response, if any.
    fn recv(&mut self, now: Cycle) -> Option<MemResponse>;

    /// Earliest cycle `> now` at which the port can deliver a response,
    /// accept a request it refused at `now`, or otherwise change state on
    /// its own (the `emerald_common::event::NextEvent` contract). The
    /// default pins the clock to `now + 1`, which is always safe: ports
    /// that cannot prove a quiet stretch simply disable skipping past
    /// them.
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        Some(now + 1)
    }
}

/// Standalone-mode memory port: the GPU talks straight to a
/// [`MemorySystem`] (case study II's configuration).
#[derive(Debug)]
pub struct SimpleMemPort {
    /// The backing DRAM system (public for stats inspection).
    pub mem: MemorySystem,
    responses: VecDeque<MemResponse>,
}

impl SimpleMemPort {
    /// Wraps a memory system.
    pub fn new(mem: MemorySystem) -> Self {
        Self {
            mem,
            responses: VecDeque::new(),
        }
    }
}

impl MemPort for SimpleMemPort {
    fn tick(&mut self, now: Cycle) {
        self.mem.tick(now);
        self.responses.extend(self.mem.drain_finished(now));
    }

    fn try_send(&mut self, req: MemRequest, now: Cycle) -> Result<(), MemRequest> {
        self.mem.enqueue(req, now)
    }

    fn recv(&mut self, _now: Cycle) -> Option<MemResponse> {
        self.responses.pop_front()
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if !self.responses.is_empty() {
            return Some(now + 1);
        }
        emerald_common::event::NextEvent::next_event(&self.mem, now)
    }
}

/// GPU-level aggregate statistics.
#[derive(Debug, Default, Clone)]
pub struct GpuStats {
    /// Total instructions issued across cores.
    pub issued: u64,
    /// Total warps retired.
    pub warps_retired: u64,
    /// DRAM read requests sent.
    pub mem_reads: u64,
    /// DRAM writes sent.
    pub mem_writes: u64,
}

/// The full GPU.
#[derive(Debug)]
pub struct Gpu {
    cfg: GpuConfig,
    cores: Vec<SimtCore>,
    l2: L2,
    core_to_l2: Link<L1Miss>,
    l2_to_core: Link<(L1Target, Addr)>,
    /// Fill notifications that could not enter `l2_to_core` this cycle;
    /// retried before new traffic so none are ever lost.
    fill_backlog: VecDeque<(L1Target, Addr)>,
    to_mem: VecDeque<(Addr, AccessKind)>,
    /// In-flight DRAM reads as a slab indexed by request id: free slots
    /// recycle through `dram_free`, so the response path is an array index
    /// instead of a hash probe and steady-state traffic never allocates.
    dram_pending: Vec<Option<Addr>>,
    dram_free: Vec<u64>,
    dram_inflight: usize,
    kernels: Vec<KernelState>,
    cta_cursor: usize,
    finished_external: Vec<(CoreId, u64)>,
    /// Indices of cores with work this cycle (resident warps, queued line
    /// accesses, in-flight tokens or scheduled writebacks), recomputed
    /// after CTA dispatch. The core phase iterates only this set, so the
    /// per-cycle cost scales with activity, not with `num_cores`.
    active: Vec<usize>,
    stats: GpuStats,
}

impl Gpu {
    /// Builds a GPU from its configuration.
    pub fn new(cfg: GpuConfig) -> Self {
        let cores = (0..cfg.clusters)
            .map(|i| SimtCore::new(CoreId(i), &cfg))
            .collect();
        let l2 = L2::new(&cfg.l2, cfg.l2_banks);
        Self {
            core_to_l2: Link::new(cfg.icnt_latency, cfg.icnt_per_cycle, 256),
            l2_to_core: Link::new(cfg.icnt_latency, cfg.icnt_per_cycle * 2, 512),
            // Pre-sized to the link capacities they spill from, so the
            // steady-state request path never reallocates.
            fill_backlog: VecDeque::with_capacity(512),
            to_mem: VecDeque::with_capacity(256),
            dram_pending: Vec::with_capacity(cfg.l2.mshrs * cfg.l2_banks),
            dram_free: Vec::with_capacity(cfg.l2.mshrs * cfg.l2_banks),
            dram_inflight: 0,
            kernels: Vec::new(),
            cta_cursor: 0,
            finished_external: Vec::new(),
            active: Vec::with_capacity(cfg.clusters),
            stats: GpuStats::default(),
            cores,
            l2,
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Number of SIMT cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Immutable core access.
    pub fn core(&self, i: usize) -> &SimtCore {
        &self.cores[i]
    }

    /// Mutable core access (the graphics pipeline launches warps directly).
    pub fn core_mut(&mut self, i: usize) -> &mut SimtCore {
        &mut self.cores[i]
    }

    /// The shared L2 (stats).
    pub fn l2(&self) -> &L2 {
        &self.l2
    }

    /// Aggregate statistics, assembled on demand: `issued` sums the
    /// per-core counters (updated incrementally at issue time), so the
    /// per-cycle loop never re-aggregates across cores.
    pub fn stats(&self) -> GpuStats {
        let mut s = self.stats.clone();
        s.issued = self.cores.iter().map(|c| c.stats().issued).sum();
        s
    }

    /// Publishes GPU aggregates under `{prefix}.*`, per-core instruments
    /// under `{prefix}.coreN.*`, a cross-core merge under
    /// `{prefix}.cores.*`, and the L2 under `{prefix}.l2.*`.
    pub fn publish(&self, reg: &mut emerald_obs::Registry, prefix: &str) {
        let stats = self.stats();
        reg.set_counter(format!("{prefix}.issued"), stats.issued);
        reg.set_counter(format!("{prefix}.warps_retired"), stats.warps_retired);
        reg.set_counter(format!("{prefix}.mem_reads"), stats.mem_reads);
        reg.set_counter(format!("{prefix}.mem_writes"), stats.mem_writes);
        let mut merged = emerald_obs::Registry::new();
        for core in &self.cores {
            core.publish(reg, &format!("{prefix}.core{}", core.id.0));
            let mut one = emerald_obs::Registry::new();
            core.publish(&mut one, &format!("{prefix}.cores"));
            merged.merge(&one);
        }
        // Replace (not merge) into `reg` so repeated publishes stay
        // idempotent.
        for (path, value) in merged.iter() {
            reg.set(path, value.clone());
        }
        self.l2.stats().publish(reg, &format!("{prefix}.l2"));
    }

    /// Resets core/L2/GPU statistics (cache contents survive).
    pub fn reset_stats(&mut self) {
        self.stats = GpuStats::default();
        for c in &mut self.cores {
            c.reset_stats();
        }
        self.l2.reset_stats();
    }

    /// Queues a compute kernel; returns its id.
    pub fn launch_kernel(&mut self, kernel: Kernel) -> usize {
        self.kernels.push(KernelState::new(kernel));
        self.kernels.len() - 1
    }

    /// True when kernel `id` has fully retired.
    pub fn kernel_done(&self, id: usize) -> bool {
        self.kernels.get(id).is_none_or(|k| k.is_done())
    }

    /// Finished externally-launched warps: `(core, tag payload)`.
    pub fn drain_external_finished(&mut self) -> Vec<(CoreId, u64)> {
        std::mem::take(&mut self.finished_external)
    }

    /// True when every core, link and kernel is drained: nothing is queued
    /// or in flight between the cores and external memory either
    /// (interconnect, L2 queues, DRAM requests).
    pub fn is_idle(&self) -> bool {
        self.cores.iter().all(|c| c.is_idle())
            && self.core_to_l2.is_empty()
            && self.l2_to_core.is_empty()
            && self.fill_backlog.is_empty()
            && self.to_mem.is_empty()
            && self.dram_inflight == 0
            && self.l2.queued() == 0
            && self.kernels.iter().all(|k| k.is_done())
    }

    /// The core — round-robin from the dispatch cursor — with room for
    /// one whole CTA of kernel `ki`, if the kernel has one left to place.
    fn core_for_cta(&self, ki: usize) -> Option<usize> {
        let kernel = &self.kernels[ki].kernel;
        if self.kernels[ki].next_cta >= kernel.grid_ctas {
            return None;
        }
        let n = self.cores.len();
        (0..n)
            .map(|off| (self.cta_cursor + off) % n)
            .find(|&ci| self.cores[ci].can_accept(&kernel.program, kernel.warps_per_cta()))
    }

    fn dispatch_ctas(&mut self) {
        for ki in 0..self.kernels.len() {
            while let Some(ci) = self.core_for_cta(ki) {
                let ks = &self.kernels[ki];
                let (cta, shared_base) = (ks.next_cta, ks.next_shared_base);
                let warps_per_cta = ks.kernel.warps_per_cta();
                for w in 0..warps_per_cta {
                    let ks = &self.kernels[ki];
                    let (regs, lanes) = ks.kernel.warp_regs(cta, w, shared_base);
                    let mut warp = Warp::new(
                        regs,
                        lanes,
                        ks.kernel.program.clone(),
                        ks.kernel.params.clone(),
                        WarpTag::Compute { kernel: ki, cta },
                    );
                    warp.cta_group = Some((ki, cta, warps_per_cta));
                    self.cores[ci]
                        .launch(warp)
                        .expect("core_for_cta found room for the whole CTA");
                    self.kernels[ki].warps_outstanding += 1;
                }
                let ks = &mut self.kernels[ki];
                ks.next_cta += 1;
                ks.next_shared_base += (ks.kernel.shared_bytes + 255) & !255;
                self.cta_cursor = (ci + 1) % self.cores.len();
            }
        }
    }

    /// Rebuilds the active-core list from simulation state.
    fn collect_active(&mut self) {
        self.active.clear();
        for (i, c) in self.cores.iter().enumerate() {
            if c.is_active() {
                self.active.push(i);
            }
        }
    }

    /// Advances the whole GPU one cycle.
    ///
    /// The active cores run in index order against one locked `ctx`, so a
    /// store is visible to every later access in the same cycle — by the
    /// storing core and by every higher-indexed one.
    pub fn cycle<C: ImageCtx>(&mut self, now: Cycle, ctx: &mut C, port: &mut dyn MemPort) {
        port.tick(now);
        self.dispatch_ctas();
        self.collect_active();
        emerald_obs::prof::record_gpu_cycle();

        // 1. Active cores execute in index order under one image lock. A
        // cycle with no active core takes no lock; inactive cores would be
        // pure no-ops (their `is_active` guarantees it).
        if !self.active.is_empty() {
            let (cores, active) = (&mut self.cores, &self.active);
            ctx.lock(|exec| {
                for &i in active {
                    cores[i].cycle(now, exec);
                }
            });
        }

        // 2. Core misses → interconnect → L2 banks.
        for ci in 0..self.cores.len() {
            while self.cores[ci].has_miss() {
                let m = self.cores[ci].pop_miss().expect("has_miss");
                if let Err(back) = self.core_to_l2.push(now, m) {
                    // Bandwidth/capacity exhausted: requeue and stop.
                    self.cores[ci].push_miss_front(back);
                    break;
                }
            }
        }
        while let Some(m) = self.core_to_l2.pop(now) {
            self.l2.enqueue(m);
        }

        // 3. L2 banks service. Fill notifications must never be lost
        // (a lost fill wedges an L1 MSHR forever), so rejected pushes go
        // to a retry backlog drained first.
        while let Some(f) = self.fill_backlog.pop_front() {
            if let Err(back) = self.l2_to_core.push(now, f) {
                self.fill_backlog.push_front(back);
                break;
            }
        }
        let out = self.l2.cycle(now);
        for (target, line) in out.to_cores {
            if let Err(back) = self.l2_to_core.push(now, (target, line)) {
                self.fill_backlog.push_back(back);
            }
        }
        for (line, kind) in out.to_mem {
            self.to_mem.push_back((line, kind));
        }

        // 4. L2 ↔ DRAM. Read ids are slab slots; a write's id is the count
        // of writes sent before it, never matched against the slab
        // (responses are filtered by kind), so a refused try takes none.
        while let Some((line, kind)) = self.to_mem.front().copied() {
            let id = if kind == AccessKind::Read {
                match self.dram_free.pop() {
                    Some(id) => id,
                    None => {
                        self.dram_pending.push(None);
                        (self.dram_pending.len() - 1) as u64
                    }
                }
            } else {
                self.stats.mem_writes
            };
            let req = MemRequest {
                id,
                addr: line,
                bytes: self.cfg.l2.line_bytes as u32,
                kind,
                source: TrafficSource::Gpu,
                issued: now,
            };
            match port.try_send(req, now) {
                Ok(()) => {
                    self.to_mem.pop_front();
                    if kind == AccessKind::Read {
                        self.dram_pending[id as usize] = Some(line);
                        self.dram_inflight += 1;
                        self.stats.mem_reads += 1;
                    } else {
                        self.stats.mem_writes += 1;
                    }
                }
                Err(_) => {
                    if kind == AccessKind::Read {
                        self.dram_free.push(id);
                    }
                    break;
                }
            }
        }
        while let Some(resp) = port.recv(now) {
            if resp.kind != AccessKind::Read {
                continue; // write completions carry no fill data
            }
            let taken = self
                .dram_pending
                .get_mut(resp.id as usize)
                .and_then(Option::take);
            if let Some(line) = taken {
                self.dram_free.push(resp.id);
                self.dram_inflight -= 1;
                for (target, l) in self.l2.fill(line) {
                    if let Err(back) = self.l2_to_core.push(now, (target, l)) {
                        self.fill_backlog.push_back(back);
                    }
                }
            }
        }

        // 5. Fills back to the cores.
        while let Some((target, line)) = self.l2_to_core.pop(now) {
            self.cores[target.core].fill_l1(target.surface, line, now);
        }

        // 6. Completed warps.
        for core in &mut self.cores {
            while let Some(tag) = core.pop_finished() {
                self.stats.warps_retired += 1;
                match tag {
                    WarpTag::Compute { kernel, .. } => {
                        self.kernels[kernel].warps_outstanding -= 1;
                    }
                    WarpTag::External(payload) => {
                        self.finished_external.push((core.id, payload));
                    }
                }
            }
        }
    }

    /// One-line internal state summary (diagnostics).
    pub fn debug_snapshot(&self) -> String {
        let cores: Vec<String> = self
            .cores
            .iter()
            .map(|c| format!("{}[{}]", c.id, c.debug_snapshot()))
            .collect();
        format!(
            "c2l={} l2c={} backlog={} to_mem={} dram_pend={} l2_q={} {}",
            self.core_to_l2.len(),
            self.l2_to_core.len(),
            self.fill_backlog.len(),
            self.to_mem.len(),
            self.dram_inflight,
            self.l2.queued(),
            cores.join(" "),
        )
    }

    /// True while a request the port refused waits at the head of the
    /// DRAM queue. A refused request is not in [`Gpu`]'s `next_event`: it
    /// is retried when the port's channel issues, which is the port's event.
    pub fn holds_refused(&self) -> bool {
        !self.to_mem.is_empty()
    }

    /// Runs until idle or `max_cycles`, returning the cycles consumed.
    ///
    /// # Panics
    ///
    /// Panics if the GPU fails to drain within `max_cycles` (a deadlock in
    /// the model, which tests should catch loudly).
    pub fn run_to_idle<C: ImageCtx>(
        &mut self,
        start: Cycle,
        max_cycles: Cycle,
        ctx: &mut C,
        port: &mut dyn MemPort,
    ) -> Cycle {
        struct Run<'a, C>(&'a mut Gpu, &'a mut C, &'a mut dyn MemPort);
        impl<C: ImageCtx> Drain for Run<'_, C> {
            fn is_idle(&self) -> bool {
                self.0.is_idle()
            }
            fn cycle(&mut self, now: Cycle) {
                self.0.cycle(now, self.1, self.2);
            }
            fn next_events(&self, now: Cycle) -> [Option<Cycle>; 2] {
                [
                    emerald_common::event::NextEvent::next_event(&*self.0, now),
                    self.2.next_event(now),
                ]
            }
            fn skip(&mut self, delta: Cycle) {
                self.0.skip(delta);
            }
        }
        let skip = self.cfg.event_skip;
        drain_loop(&mut Run(self, ctx, port), "GPU", start, max_cycles, skip) - start
    }

    /// Books `delta` cycles the clock jumped over, none of them at or past
    /// this GPU's `next_event`: what cycling through them would have
    /// changed is time-linear — each active core's cycle count, and one
    /// counted retry per cycle at every LSU head and L2 bank blocked on a
    /// memoised cache stall — plus the profiler's cycle count.
    /// The one booking site for a parked GPU; the clocking kernel calls it
    /// where it jumps.
    pub fn skip(&mut self, delta: Cycle) {
        self.collect_active();
        for &i in &self.active {
            self.cores[i].skip(delta);
        }
        self.l2.skip(delta);
        emerald_obs::prof::record_gpu_skip(delta);
    }
}

/// A simulation [`drain_loop`] can clock to completion: the bare [`Gpu`]
/// with its execution context and memory port, or the graphics renderer
/// with its port.
pub trait Drain {
    /// Nothing left in flight — the loop's exit condition.
    fn is_idle(&self) -> bool;

    /// Executes cycle `now`.
    fn cycle(&mut self, now: Cycle);

    /// The `next_event(now)` answers of everything that can act on its
    /// own: the model first (it usually pins), then its memory port.
    fn next_events(&self, now: Cycle) -> [Option<Cycle>; 2];

    /// Books `delta` cycles the loop jumped over (see [`Gpu::skip`]).
    fn skip(&mut self, delta: Cycle);
}

/// The one drain loop: clocks `sim` from cycle `start` until it is idle
/// and returns the first cycle not executed. With `skip` on, stretches in
/// which the model only waits (for an in-service DRAM completion, a
/// scheduled writeback, an interconnect arrival) are jumped instead of
/// ticked; cycle counts and state are bit-identical either way.
///
/// # Panics
///
/// Panics if `sim` fails to drain within `max_cycles` (a deadlock in the
/// model, which tests should catch loudly).
pub fn drain_loop(
    sim: &mut impl Drain,
    what: &str,
    start: Cycle,
    max_cycles: Cycle,
    skip: bool,
) -> Cycle {
    let cap = start + max_cycles;
    let mut next = start;
    while !sim.is_idle() {
        emerald_obs::prof::tick();
        sim.cycle(next);
        next += 1;
        assert!(
            next < cap,
            "{what} did not drain within {max_cycles} cycles"
        );
        // Never jump past the drain point: the loop can go idle while
        // writes are still in flight (their completions are events, but
        // not ones this loop waits for), and jumping to them would inflate
        // the cycle count relative to the per-cycle clocking.
        if skip && !sim.is_idle() {
            let wake = next_wake(next - 1, cap, sim.next_events(next - 1));
            if wake > next {
                sim.skip(wake - next);
                next = wake;
            }
        }
    }
    next
}

impl emerald_common::snap::Snapshot for Gpu {
    /// Serializes the GPU at a drained boundary: every core idle (their
    /// L1s, scheduler history and deferred queues still carry state), the
    /// interconnect empty, and no DRAM read outstanding. Kernel records
    /// hold `Arc<Program>` handles and cannot be encoded — all kernels
    /// must have retired, and only their count is recorded so launch ids
    /// keep advancing identically after a restore.
    ///
    /// # Panics
    ///
    /// Panics if work is still in flight (a checkpoint-placement bug).
    fn snapshot(&self, w: &mut SnapWriter) {
        assert!(self.is_idle(), "GPU must be drained at a checkpoint");
        assert!(
            self.finished_external.is_empty(),
            "finished-warp notifications must be consumed before a checkpoint"
        );
        w.put_usize(self.cores.len());
        for c in &self.cores {
            w.section(1, |w| c.snapshot(w));
        }
        w.section(2, |w| self.l2.snapshot(w));
        self.core_to_l2.snapshot_drained(w);
        self.l2_to_core.snapshot_drained(w);
        // The read-slab geometry and free list steer future request ids.
        w.put_usize(self.dram_pending.len());
        w.put_seq(self.dram_free.iter(), |w, &id| w.put_u64(id));
        w.put_usize(self.kernels.len());
        w.put_usize(self.cta_cursor);
        w.put_u64(self.stats.issued);
        w.put_u64(self.stats.warps_retired);
        w.put_u64(self.stats.mem_reads);
        w.put_u64(self.stats.mem_writes);
    }
}

impl emerald_common::snap::Restore for Gpu {
    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        if r.get_usize()? != self.cores.len() {
            return Err(SnapError::BadValue {
                what: "GPU core count mismatch",
            });
        }
        for c in &mut self.cores {
            r.section(1, |r| c.restore(r))?;
        }
        r.section(2, |r| self.l2.restore(r))?;
        self.core_to_l2.restore_drained(r)?;
        self.l2_to_core.restore_drained(r)?;
        let slab = r.get_usize()?;
        let free = r.get_seq(8, |r| r.get_u64())?;
        if free.len() > slab {
            return Err(SnapError::BadValue {
                what: "DRAM free list larger than its slab",
            });
        }
        self.dram_pending = vec![None; slab];
        self.dram_free = free;
        self.dram_inflight = 0;
        let kernel_count = r.get_usize()?;
        if kernel_count != self.kernels.len() || self.kernels.iter().any(|k| !k.is_done()) {
            return Err(SnapError::BadValue {
                what: "restore target must hold the same retired kernels as the snapshot",
            });
        }
        self.cta_cursor = r.get_usize()?;
        self.stats = GpuStats {
            issued: r.get_u64()?,
            warps_retired: r.get_u64()?,
            mem_reads: r.get_u64()?,
            mem_writes: r.get_u64()?,
        };
        self.fill_backlog.clear();
        self.to_mem.clear();
        self.finished_external.clear();
        self.collect_active();
        Ok(())
    }
}

impl emerald_common::event::NextEvent for Gpu {
    /// The minimum over everything that can act on its own. `now + 1` if
    /// anything would move next cycle: a fill waiting out interconnect
    /// backpressure, an undrained finished warp, a CTA some core has room
    /// for, an L2 bank whose head is not its memoised stall, a core with a
    /// warp to pick or retire, a miss to send or a ready LSU head.
    /// Otherwise the earlier interconnect arrival and the earliest
    /// writeback or token completion of any core. Everything else waits on
    /// an outside event:
    /// a request at the head of `to_mem` was refused this cycle and
    /// stays refused until the port's channel issues (the port's event),
    /// and an outstanding DRAM read returns through the port. The cycles
    /// before the answer change only what [`Gpu::skip`] books.
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let pin = Some(now + 1);
        if !self.fill_backlog.is_empty()
            || !self.finished_external.is_empty()
            || (0..self.kernels.len()).any(|ki| self.core_for_cta(ki).is_some())
            || self.l2.has_ready_head()
        {
            return pin;
        }
        let mut wake = earliest(
            self.core_to_l2.next_arrival(),
            self.l2_to_core.next_arrival(),
        );
        for core in &self.cores {
            match core.next_event(now) {
                Some(t) if t <= now + 1 => return pin,
                t => wake = earliest(wake, t),
            }
        }
        wake.map(|t| t.max(now + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::GlobalMemCtx;
    use emerald_isa::{assemble, WarpRegs};
    use emerald_mem::dram::DramConfig;
    use emerald_mem::image::SharedMem;
    use emerald_mem::system::MemorySystemConfig;
    use std::sync::Arc;

    fn setup() -> (Gpu, GlobalMemCtx, SimpleMemPort, SharedMem) {
        let gpu = Gpu::new(GpuConfig::tiny());
        let mem = SharedMem::with_capacity(1 << 22);
        let ctx = GlobalMemCtx::new(mem.clone());
        let port = SimpleMemPort::new(MemorySystem::new(MemorySystemConfig::baseline(
            2,
            DramConfig::lpddr3_1600(),
        )));
        (gpu, ctx, port, mem)
    }

    #[test]
    fn debug_snapshot_covers_every_core() {
        // Two cores: a summary that indexed a fixed core 2 panicked here.
        let s = Gpu::new(GpuConfig::tiny()).debug_snapshot();
        assert!(s.contains("core0[") && s.contains("core1[") && !s.contains("core2["));
    }

    #[test]
    fn saxpy_kernel_end_to_end() {
        let (mut gpu, mut ctx, mut port, mem) = setup();
        let n = 256usize;
        let x_base = mem.alloc((n * 4) as u64, 128);
        let y_base = mem.alloc((n * 4) as u64, 128);
        for i in 0..n {
            mem.write_f32(x_base + (i * 4) as u64, i as f32);
            mem.write_f32(y_base + (i * 4) as u64, 1.0);
        }
        // y[i] = a*x[i] + y[i]
        let src = "
            mov.b32 r0, %input0
            shl.u32 r1, r0, 2
            add.u32 r2, r1, %param0
            add.u32 r3, r1, %param1
            ld.global.b32 r4, [r2+0]
            ld.global.b32 r5, [r3+0]
            mov.b32 r6, %param2
            mad.f32 r7, r6, r4, r5
            st.global.b32 [r3+0], r7
            exit";
        let prog = Arc::new(assemble(src).unwrap());
        let k = Kernel::linear(
            prog,
            n,
            64,
            vec![x_base as u32, y_base as u32, 2.0f32.to_bits()],
        );
        let id = gpu.launch_kernel(k);
        gpu.run_to_idle(0, 2_000_000, &mut ctx, &mut port);
        assert!(gpu.kernel_done(id));
        for i in 0..n {
            let y = mem.read_f32(y_base + (i * 4) as u64);
            assert_eq!(y, 2.0 * i as f32 + 1.0, "y[{i}]");
        }
        assert!(gpu.stats().mem_reads > 0);
    }

    #[test]
    fn barrier_synchronizes_cta() {
        let (mut gpu, mut ctx, mut port, mem) = setup();
        let buf = mem.alloc(4096, 128);
        // Warp 0 stores, all warps barrier, then every thread reads the
        // value written by thread 0 and copies it out.
        let src = "
            mov.b32 r0, %input2     // tid in cta
            setp.eq.s32 p0, r0, 0
            mov.b32 r1, %param0
            @p0 mov.b32 r2, 777
            @p0 st.global.b32 [r1+0], r2
            bar.sync
            ld.global.b32 r3, [r1+0]
            mov.b32 r4, %input0
            shl.u32 r5, r4, 2
            add.u32 r5, r5, %param1
            st.global.b32 [r5+0], r3
            exit";
        let prog = Arc::new(assemble(src).unwrap());
        let out = mem.alloc(4096, 128);
        let k = Kernel::linear(prog, 128, 128, vec![buf as u32, out as u32]);
        gpu.launch_kernel(k);
        gpu.run_to_idle(0, 2_000_000, &mut ctx, &mut port);
        for i in 0..128u64 {
            assert_eq!(mem.read_u32(out + i * 4), 777, "thread {i}");
        }
    }

    #[test]
    fn multiple_ctas_spread_across_cores() {
        let (mut gpu, mut ctx, mut port, _) = setup();
        let src = "mov.b32 r0, %input0\nexit";
        let prog = Arc::new(assemble(src).unwrap());
        let k = Kernel::linear(prog, 512, 64, vec![]);
        gpu.launch_kernel(k);
        gpu.run_to_idle(0, 1_000_000, &mut ctx, &mut port);
        for ci in 0..gpu.num_cores() {
            assert!(
                gpu.core(ci).stats().warps_launched > 0,
                "core {ci} never used"
            );
        }
    }

    #[test]
    fn a_cta_is_placed_only_where_all_its_warps_fit() {
        // 64 registers a warp: a case-study-I core's register file holds
        // 16 warps, five 3-warp CTAs and one warp more. A sixth CTA placed
        // on the strength of that one warp ran it, was refused the rest,
        // and later ran again in full.
        let (_, mut ctx, mut port, mem) = setup();
        let mut gpu = Gpu::new(GpuConfig::case_study_1());
        let src = "
            mov.b32 r63, %input0
            shl.u32 r1, r63, 2
            add.u32 r1, r1, %param0
            ld.global.b32 r2, [r1+0]
            add.u32 r2, r2, 1
            st.global.b32 [r1+0], r2
            exit";
        let prog = Arc::new(assemble(src).unwrap());
        let n = 6144u64;
        let out = mem.alloc(n * 4, 128);
        let id = gpu.launch_kernel(Kernel::linear(prog, n as usize, 96, vec![out as u32]));
        gpu.run_to_idle(0, 10_000_000, &mut ctx, &mut port);
        assert!(gpu.kernel_done(id));
        assert_eq!(gpu.stats().warps_retired, 192);
        for i in 0..n {
            assert_eq!(mem.read_u32(out + i * 4), 1, "thread {i}");
        }
    }

    #[test]
    fn external_warp_completion_is_reported() {
        let (mut gpu, mut ctx, mut port, _) = setup();
        let prog = Arc::new(assemble("mov.b32 r0, %laneid\nexit").unwrap());
        let w = Warp::new(
            WarpRegs::new(&prog),
            32,
            prog,
            Arc::from([]),
            WarpTag::External(0xBEEF),
        );
        gpu.core_mut(1).launch(w).unwrap();
        gpu.run_to_idle(0, 100_000, &mut ctx, &mut port);
        let done = gpu.drain_external_finished();
        assert_eq!(done, vec![(CoreId(1), 0xBEEF)]);
    }

    /// Launches one single-thread warp of `src` with `params` on each core
    /// of a tiny GPU, cycles it to idle and returns, per core, the cycle
    /// its `nth` instruction issued in.
    fn issue_cycles(
        srcs: [&str; 2],
        params: [&[u32]; 2],
        nth: u64,
        ctx: &mut GlobalMemCtx,
    ) -> [Cycle; 2] {
        let (mut gpu, _, mut port, _) = setup();
        for (ci, (src, params)) in srcs.into_iter().zip(params).enumerate() {
            let prog = Arc::new(assemble(src).unwrap());
            let w = Warp::new(
                WarpRegs::new(&prog),
                1,
                prog,
                Arc::from(params),
                WarpTag::External(ci as u64),
            );
            gpu.core_mut(ci).launch(w).unwrap();
        }
        let mut at = [None; 2];
        let mut now = 0;
        while !gpu.is_idle() {
            gpu.cycle(now, ctx, &mut port);
            for (ci, slot) in at.iter_mut().enumerate() {
                if slot.is_none() && gpu.core(ci).stats().issued == nth {
                    *slot = Some(now);
                }
            }
            now += 1;
            assert!(now < 100_000, "GPU did not drain");
        }
        at.map(|t| t.expect("instruction issued"))
    }

    #[test]
    fn a_store_is_visible_to_higher_indexed_cores_in_the_same_cycle() {
        let (_, mut ctx, _, mem) = setup();
        let addr = mem.alloc(8, 128) as u32;
        // Core 0 stores `addr` at `addr`; core 1 loads it back, in its own
        // second instruction, and stores what it read next door.
        let at = issue_cycles(
            [
                "mov.b32 r1, %param0\nst.global.b32 [r1+0], r1\nexit",
                "mov.b32 r1, %param0\nld.global.b32 r2, [r1+0]\nst.global.b32 [r1+4], r2\nexit",
            ],
            [&[addr], &[addr]],
            2,
            &mut ctx,
        );
        assert_eq!(at[0], at[1], "the store and the load issue in one cycle");
        assert_eq!(mem.read_u32(u64::from(addr) + 4), addr);
    }

    #[test]
    fn the_highest_indexed_core_writes_last_within_a_cycle() {
        let (_, mut ctx, _, mem) = setup();
        let addr = mem.alloc(4, 128) as u32;
        let src = "mov.b32 r1, %param0\nmov.b32 r2, %param1\nst.global.b32 [r1+0], r2\nexit";
        let at = issue_cycles([src, src], [&[addr, 1], &[addr, 2]], 3, &mut ctx);
        assert_eq!(at[0], at[1], "both stores issue in one cycle");
        assert_eq!(mem.read_u32(u64::from(addr)), 2, "core 1 stores last");
    }

    #[test]
    fn snapshot_round_trip_preserves_warm_caches_and_ids() {
        use emerald_common::snap::{Restore as _, SnapReader, SnapWriter, Snapshot as _};
        let (mut gpu, mut ctx_a, mut port_a, mem_a) = setup();
        let (_, mut ctx_b, mut port_b, mem_b) = setup();
        // Read-only warp so the two memory images stay identical.
        let src = "
            mov.b32 r0, %laneid
            shl.u32 r1, r0, 2
            add.u32 r1, r1, %param0
            ld.global.b32 r2, [r1+0]
            exit";
        let prog = Arc::new(assemble(src).unwrap());
        let base = mem_a.alloc(4096, 128);
        let base_b = mem_b.alloc(4096, 128);
        assert_eq!(base, base_b);
        let warp = |tag: u64| {
            Warp::new(
                WarpRegs::new(&prog),
                32,
                prog.clone(),
                Arc::from([base as u32]),
                WarpTag::External(tag),
            )
        };
        gpu.core_mut(0).launch(warp(1)).unwrap();
        let end = gpu.run_to_idle(0, 100_000, &mut ctx_a, &mut port_a);
        gpu.drain_external_finished();
        // Drain the DRAM write/housekeeping tail so the port is quiet too.
        let mut now = end;
        while !port_a.mem.is_idle() {
            port_a.tick(now);
            now += 1;
        }
        while port_a.recv(now).is_some() {}

        let mut w = SnapWriter::new();
        gpu.snapshot(&mut w);
        port_a.mem.snapshot(&mut w);
        let enc = w.into_bytes();

        let mut twin = Gpu::new(GpuConfig::tiny());
        let mut r = SnapReader::new(&enc);
        twin.restore(&mut r).unwrap();
        port_b.mem.restore(&mut r).unwrap();
        r.finish().unwrap();

        // Same warp again: the restored GPU has the same warm L1/L2 and
        // must take exactly as many cycles as the original.
        gpu.core_mut(0).launch(warp(2)).unwrap();
        twin.core_mut(0).launch(warp(2)).unwrap();
        let t_a = gpu.run_to_idle(now, 100_000, &mut ctx_a, &mut port_a);
        let t_b = twin.run_to_idle(now, 100_000, &mut ctx_b, &mut port_b);
        assert_eq!(t_a, t_b, "restored GPU must replay identical timing");
        assert_eq!(
            gpu.drain_external_finished(),
            twin.drain_external_finished()
        );
        let (sa, sb) = (gpu.stats(), twin.stats());
        assert_eq!(sa.issued, sb.issued);
        assert_eq!(sa.warps_retired, sb.warps_retired);
        assert_eq!(sa.mem_reads, sb.mem_reads);
        assert_eq!(gpu.l2().stats().hits.num, twin.l2().stats().hits.num);
    }

    #[test]
    fn snapshot_restore_rejects_pending_kernel_mismatch() {
        use emerald_common::snap::{Restore as _, SnapReader, SnapWriter, Snapshot as _};
        let (mut gpu, mut ctx, mut port, _) = setup();
        let prog = Arc::new(assemble("mov.b32 r0, %input0\nexit").unwrap());
        let id = gpu.launch_kernel(Kernel::linear(prog, 64, 64, vec![]));
        gpu.run_to_idle(0, 1_000_000, &mut ctx, &mut port);
        assert!(gpu.kernel_done(id));
        let mut w = SnapWriter::new();
        gpu.snapshot(&mut w);
        let enc = w.into_bytes();
        // A fresh GPU never launched that kernel: the id-space would skew.
        let mut fresh = Gpu::new(GpuConfig::tiny());
        let mut r = SnapReader::new(&enc);
        assert!(matches!(
            fresh.restore(&mut r),
            Err(SnapError::BadValue { .. })
        ));
    }

    #[test]
    fn l2_absorbs_repeated_traffic() {
        let (mut gpu, mut ctx, mut port, mem) = setup();
        // Two rounds of the same read-only kernel: the second round should
        // produce fewer DRAM reads thanks to the L2 (L1s flushed between
        // launches would be even stronger; we just compare totals).
        let src = "
            mov.b32 r0, %input0
            and.u32 r0, r0, 63
            shl.u32 r1, r0, 2
            add.u32 r1, r1, %param0
            ld.global.b32 r2, [r1+0]
            exit";
        let prog = Arc::new(assemble(src).unwrap());
        let base = mem.alloc(4096, 128);
        let k1 = Kernel::linear(prog.clone(), 256, 64, vec![base as u32]);
        gpu.launch_kernel(k1);
        gpu.run_to_idle(0, 1_000_000, &mut ctx, &mut port);
        let reads_round1 = gpu.stats().mem_reads;
        let k2 = Kernel::linear(prog, 256, 64, vec![base as u32]);
        gpu.launch_kernel(k2);
        gpu.run_to_idle(0, 1_000_000, &mut ctx, &mut port);
        let reads_round2 = gpu.stats().mem_reads - reads_round1;
        assert!(
            reads_round2 <= reads_round1,
            "round2={reads_round2} round1={reads_round1}"
        );
        assert!(gpu.l2().stats().fills > 0);
    }
}

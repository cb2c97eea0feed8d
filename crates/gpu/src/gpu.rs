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
use emerald_common::snap::{SnapError, Walk};
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
    /// The cores due this cycle; kept across cycles so the core phase
    /// never allocates.
    due: Vec<usize>,
    /// Per core, its [`SimtCore::next_event`] answer (`Cycle::MAX` for
    /// `None`), re-read at the end of every [`Gpu::cycle`] in which the
    /// core was due or took a fill, and reset to 0 (due) by a CTA launch,
    /// [`Gpu::core_mut`] and a restore. Nothing else moves a core, so an
    /// active core whose wake is later than `now` is not cycled: its
    /// parked cycles are booked when it is next touched ([`Gpu::book`]).
    wake: Vec<Cycle>,
    /// Cycles this GPU has accounted, ticked or skipped. A count rather
    /// than a clock value: callers may restart `now` between runs.
    clock: u64,
    /// Per core, the `clock` through which its time is booked. A core's
    /// activity (`SimtCore::is_active`) only changes where it is touched
    /// — its own cycle, a launch — so the cycles from here to `clock`
    /// were all active or all idle.
    booked: Vec<u64>,
    /// `(clock, now)` of the last ticked cycle: the stamp
    /// ([`SimtCore::now`]) of a core booked through it.
    last_tick: Option<(u64, Cycle)>,
    /// The booking canary: a fill no longer books its core first
    /// ([`Gpu::debug_forget_fill_booking`]).
    forget_fill_booking: bool,
    /// Set once [`Gpu::dispatch_ctas`] has placed every CTA it can;
    /// cleared where room can appear or a kernel can need it — a warp
    /// retiring, [`Gpu::launch_kernel`], a restore. While it is set no
    /// core has room for any kernel's next CTA, so nothing walks the
    /// cores for it.
    cta_blocked: bool,
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
            due: Vec::with_capacity(cfg.clusters),
            wake: vec![0; cfg.clusters],
            clock: 0,
            booked: vec![0; cfg.clusters],
            last_tick: None,
            forget_fill_booking: false,
            cta_blocked: false,
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

    /// Mutable core access (the graphics pipeline launches warps
    /// directly): the core's parked cycles are booked first, and it is
    /// due next cycle.
    pub fn core_mut(&mut self, i: usize) -> &mut SimtCore {
        self.book(i, self.clock);
        self.wake[i] = 0;
        &mut self.cores[i]
    }

    /// Books core `i`'s parked cycles up to `clock` value `end`
    /// (exclusive), before anything touches it: an active core that was
    /// not cycled in them was parked in each ([`SimtCore::skip`]), and
    /// takes the stamp of the last one that was ticked.
    fn book(&mut self, i: usize, end: u64) {
        let from = std::mem::replace(&mut self.booked[i], end);
        let core = &mut self.cores[i];
        if end > from && core.is_active() {
            let stamp = self
                .last_tick
                .filter(|&(at, _)| (from..end).contains(&at))
                .map(|(_, now)| now);
            core.book(end - from, stamp);
        }
    }

    /// Books every core's parked cycles, so everything a core's
    /// statistics, stamp and caches show is up to date. The library calls
    /// it wherever it hands out settled state: at the end of
    /// [`Gpu::run_to_idle`], of the renderer's and the SoC's loops, and
    /// before [`Gpu::walk`] and [`Gpu::reset_stats`].
    pub fn settle(&mut self) {
        for i in 0..self.cores.len() {
            self.book(i, self.clock);
        }
    }

    /// Test-only hook for the booking canary: an L2 fill no longer books
    /// its core's parked cycles before it clears the L1's stall memo, so
    /// the retries those cycles made at a stalled LSU head are lost.
    #[doc(hidden)]
    pub fn debug_forget_fill_booking(&mut self) {
        self.forget_fill_booking = true;
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
        debug_assert!(
            (0..self.cores.len())
                .all(|i| !self.cores[i].is_active() || self.booked[i] == self.clock),
            "publishing a GPU with unbooked parked cycles: settle it first"
        );
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

    /// Resets core/L2/GPU statistics (cache contents survive); parked
    /// cycles before the reset are booked first.
    pub fn reset_stats(&mut self) {
        self.settle();
        self.stats = GpuStats::default();
        for c in &mut self.cores {
            c.reset_stats();
        }
        self.l2.reset_stats();
    }

    /// Queues a compute kernel; returns its id.
    pub fn launch_kernel(&mut self, kernel: Kernel) -> usize {
        self.kernels.push(KernelState::new(kernel));
        self.cta_blocked = false;
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

    /// Places every CTA that fits; a core taking one is booked through
    /// the cycle before `tick` first.
    fn dispatch_ctas(&mut self, tick: u64) {
        if self.cta_blocked {
            return;
        }
        for ki in 0..self.kernels.len() {
            while let Some(ci) = self.core_for_cta(ki) {
                self.book(ci, tick);
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
                self.wake[ci] = 0;
                let ks = &mut self.kernels[ki];
                ks.next_cta += 1;
                ks.next_shared_base += (ks.kernel.shared_bytes + 255) & !255;
                self.cta_cursor = (ci + 1) % self.cores.len();
            }
        }
        self.cta_blocked = true;
    }

    /// Advances the whole GPU one cycle; returns whether a warp retired
    /// in it.
    ///
    /// The due cores run in index order against one locked `ctx`, so a
    /// store is visible to every later access in the same cycle — by the
    /// storing core and by every higher-indexed one.
    pub fn cycle<C: ImageCtx>(&mut self, now: Cycle, ctx: &mut C, port: &mut dyn MemPort) -> bool {
        port.tick(now);
        let tick = self.clock;
        self.dispatch_ctas(tick);
        self.last_tick = Some((tick, now));
        self.clock = tick + 1;
        if cfg!(debug_assertions) {
            self.audit_memos(now.saturating_sub(1));
        }

        // 1. Due cores — active, with a wake no later than `now` — are
        // booked through the cycle before and execute in index order
        // under one image lock. An active core whose wake is later would
        // only count the cycle: it stays parked, and its cycles are booked
        // when it is next touched. Inactive cores would be pure no-ops
        // (their `is_active` guarantees it). A cycle with no due core
        // takes no lock.
        self.due.clear();
        for i in 0..self.cores.len() {
            if self.wake[i] <= now && self.cores[i].is_active() {
                self.book(i, tick);
                self.booked[i] = tick + 1;
                self.due.push(i);
            }
        }
        emerald_obs::prof::record_gpu_cycle(self.due.len() as u64);
        if !self.due.is_empty() {
            let (cores, due) = (&mut self.cores, &self.due);
            ctx.lock(|exec| {
                for &i in due {
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

        // 5. Fills back to the cores, each booked through this cycle
        // first: a fill clears the L1 stall memo its parked retries were
        // booked by. A filled core's wake is re-read.
        while let Some((target, line)) = self.l2_to_core.pop(now) {
            if !self.forget_fill_booking {
                self.book(target.core, tick + 1);
            }
            self.cores[target.core].fill_l1(target.surface, line, now);
            self.wake[target.core] = now;
        }

        // 6. Completed warps; each frees room a CTA may fit in.
        let mut retired = false;
        for core in &mut self.cores {
            while let Some(tag) = core.pop_finished() {
                retired = true;
                self.cta_blocked = false;
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

        // 7. The wake of every core that was due or took a fill, now that
        // fills and retirements are in. A parked core's wake still stands:
        // booking moves nothing its `next_event` reads.
        for (wake, core) in self.wake.iter_mut().zip(&self.cores) {
            if *wake <= now {
                *wake = core.next_event(now).unwrap_or(Cycle::MAX);
            }
        }
        retired
    }

    /// The memos' oracle: every cached wake is no later than a fresh
    /// [`SimtCore::next_event`] answer — a later one is the one way the
    /// core phase could book a cycle that had work — and while
    /// `cta_blocked` is set, no core has room for any kernel's next CTA.
    fn audit_memos(&self, now: Cycle) {
        for (i, core) in self.cores.iter().enumerate() {
            let fresh = core.next_event(now);
            assert!(
                self.wake[i] <= fresh.unwrap_or(Cycle::MAX),
                "stale wake {} on {} after cycle {now}: next_event is {fresh:?}",
                self.wake[i],
                core.id
            );
        }
        if self.cta_blocked {
            for ki in 0..self.kernels.len() {
                assert!(
                    self.core_for_cta(ki).is_none(),
                    "CTA room for kernel {ki} while the block bit is set"
                );
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
        let end = drain_loop(&mut Run(self, ctx, port), "GPU", start, max_cycles, skip);
        self.settle();
        end - start
    }

    /// Books `delta` cycles the clock jumped over, none of them at or past
    /// this GPU's `next_event`: what cycling through them would have
    /// changed is time-linear — each active core's cycle count, and one
    /// counted retry per cycle at every LSU head and L2 bank blocked on a
    /// memoised cache stall — plus the profiler's cycle count. The L2's
    /// share is booked here; the cores' share when each is next touched
    /// ([`Gpu::settle`]), so the jump costs the same at any core count.
    /// The clocking kernel calls it where it jumps.
    pub fn skip(&mut self, delta: Cycle) {
        self.clock += delta;
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

impl Gpu {
    /// Walks the GPU at a drained boundary: every core idle (their L1s,
    /// scheduler history and deferred queues still carry state), the
    /// interconnect empty, and no DRAM read outstanding. Kernel records
    /// hold `Arc<Program>` handles and cannot be encoded — all kernels
    /// must have retired, and only their count is walked so launch ids
    /// keep advancing identically after a restore.
    ///
    /// # Panics
    ///
    /// Panics on a write if work is still in flight (a
    /// checkpoint-placement bug).
    pub fn walk(&mut self, w: &mut impl Walk) -> Result<(), SnapError> {
        assert!(
            w.reading() || self.is_idle(),
            "GPU must be drained at a checkpoint"
        );
        self.settle();
        assert!(
            w.reading() || self.finished_external.is_empty(),
            "finished-warp notifications must be consumed before a checkpoint"
        );
        w.expect(self.cores.len(), "GPU core count mismatch")?;
        for c in &mut self.cores {
            w.section(1, |w| c.walk(w))?;
        }
        w.section(2, |w| self.l2.walk(w))?;
        self.core_to_l2.walk_drained(w)?;
        self.l2_to_core.walk_drained(w)?;
        // The read-slab geometry and free list steer future request ids.
        // With no read outstanding, every slot of the slab is free.
        let mut slab = self.dram_pending.len();
        w.usize(&mut slab)?;
        w.seq(&mut self.dram_free, 8, |w, id| w.u64(id))?;
        let mut ids = self.dram_free.clone();
        ids.sort_unstable();
        w.check(
            ids.len() == slab && ids.iter().zip(0..).all(|(&id, slot)| id == slot),
            "DRAM free list is not every slot of its slab",
        )?;
        const KERNELS: &str = "restore target must hold the same retired kernels as the snapshot";
        w.expect(self.kernels.len(), KERNELS)?;
        w.check(self.kernels.iter().all(|k| k.is_done()), KERNELS)?;
        w.usize(&mut self.cta_cursor)?;
        let s = &mut self.stats;
        for n in [
            &mut s.issued,
            &mut s.warps_retired,
            &mut s.mem_reads,
            &mut s.mem_writes,
        ] {
            w.u64(n)?;
        }
        if w.reading() {
            self.dram_pending = vec![None; slab];
            self.dram_inflight = 0;
            self.fill_backlog.clear();
            self.to_mem.clear();
            self.finished_external.clear();
            self.wake.fill(0);
            self.cta_blocked = false;
        }
        Ok(())
    }
}

impl emerald_common::event::NextEvent for Gpu {
    /// The minimum over everything that can act on its own. `now + 1` if
    /// anything would move next cycle: a fill waiting out interconnect
    /// backpressure, an undrained finished warp, a CTA some core has room
    /// for, an L2 bank whose head is not its memoised stall. Otherwise the
    /// earlier interconnect arrival and the earliest cached core wake (a
    /// core with a warp to pick or retire, a miss to send or a ready LSU
    /// head wakes next cycle, a parked one at its next writeback or token
    /// completion). Everything else waits on an outside event:
    /// a request at the head of `to_mem` was refused this cycle and
    /// stays refused until the port's channel issues (the port's event),
    /// and an outstanding DRAM read returns through the port. The cycles
    /// before the answer change only what [`Gpu::skip`] books.
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if cfg!(debug_assertions) {
            self.audit_memos(now);
        }
        if !self.fill_backlog.is_empty()
            || !self.finished_external.is_empty()
            || (!self.cta_blocked
                && (0..self.kernels.len()).any(|ki| self.core_for_cta(ki).is_some()))
            || self.l2.has_ready_head()
        {
            return Some(now + 1);
        }
        let cores = self.wake.iter().copied().min().filter(|&t| t != Cycle::MAX);
        let links = earliest(
            self.core_to_l2.next_arrival(),
            self.l2_to_core.next_arrival(),
        );
        earliest(links, cores).map(|t| t.max(now + 1))
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

    /// Expects `f` to panic with a message containing `what`.
    #[cfg(debug_assertions)]
    fn expect_panic(what: &str, f: impl FnOnce()) {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("the oracle must catch a stale memo");
        let msg = err.downcast_ref::<String>().expect("a formatted message");
        assert!(msg.contains(what), "{msg}");
    }

    /// The wake oracle catches a wake set too late: a warp launched past
    /// `core_mut`, which is what re-marks the core due.
    #[cfg(debug_assertions)]
    #[test]
    fn a_stale_wake_is_caught() {
        let (mut gpu, mut ctx, mut port, _) = setup();
        gpu.cycle(0, &mut ctx, &mut port);
        assert_eq!(gpu.wake, [Cycle::MAX; 2], "idle cores never wake");
        let prog = Arc::new(assemble("mov.b32 r0, %laneid\nexit").unwrap());
        let w = Warp::new(
            WarpRegs::new(&prog),
            32,
            prog,
            Arc::from([]),
            WarpTag::External(0),
        );
        gpu.cores[0].launch(w).unwrap();
        expect_panic("stale wake", || {
            emerald_common::event::NextEvent::next_event(&gpu, 0);
        });
    }

    /// `cycle` reports exactly the cycles in which `warps_retired` moves.
    #[test]
    fn cycle_reports_the_cycles_a_warp_retires_in() {
        let (mut gpu, mut ctx, mut port, _) = setup();
        let prog = Arc::new(assemble("mov.b32 r0, %input0\nexit").unwrap());
        gpu.launch_kernel(Kernel::linear(prog, 32 * 64, 32, vec![]));
        let (mut now, mut reported) = (0, 0);
        while !gpu.is_idle() {
            let before = gpu.stats().warps_retired;
            let retired = gpu.cycle(now, &mut ctx, &mut port);
            assert_eq!(retired, gpu.stats().warps_retired != before, "cycle {now}");
            reported += retired as u64;
            now += 1;
        }
        assert!(reported > 0 && reported <= gpu.stats().warps_retired);
    }

    /// The CTA oracle catches a block bit left set after a retire, when
    /// the freed slot has room for the kernel's next CTA.
    #[cfg(debug_assertions)]
    #[test]
    fn a_block_bit_left_set_after_a_retire_is_caught() {
        let (mut gpu, mut ctx, mut port, _) = setup();
        let prog = Arc::new(assemble("mov.b32 r0, %input0\nexit").unwrap());
        // One-warp CTAs, more than the cores' 16 slots hold.
        gpu.launch_kernel(Kernel::linear(prog, 32 * 64, 32, vec![]));
        let mut now = 0;
        while gpu.stats().warps_retired == 0 {
            gpu.cycle(now, &mut ctx, &mut port);
            now += 1;
        }
        assert!(!gpu.cta_blocked, "a retire clears the bit");
        gpu.cta_blocked = true;
        expect_panic("CTA room", || {
            emerald_common::event::NextEvent::next_event(&gpu, now - 1);
        });
    }

    /// A kernel launched after `dispatch_ctas` blocked is due next cycle:
    /// the launch clears the block bit.
    #[test]
    fn a_kernel_launched_after_a_blocked_dispatch_is_due() {
        let (mut gpu, mut ctx, mut port, _) = setup();
        gpu.cycle(0, &mut ctx, &mut port);
        assert!(gpu.cta_blocked, "nothing left to place");
        let prog = Arc::new(assemble("exit").unwrap());
        gpu.launch_kernel(Kernel::linear(prog, 32, 32, vec![]));
        assert_eq!(
            emerald_common::event::NextEvent::next_event(&gpu, 0),
            Some(1)
        );
    }

    /// A restore re-marks every core due, so a restored core's pending
    /// writeback wakes a GPU that had cycled idle before, by its due cycle
    /// at the latest.
    #[test]
    fn a_restore_re_marks_the_core_wakes() {
        use emerald_common::event::NextEvent;
        use emerald_common::snap::{encode, SnapReader};
        let (mut gpu, mut ctx, mut port, _) = setup();
        // `exit` retires the warp before the `mov`'s writeback lands.
        let prog = Arc::new(assemble("mov.b32 r37, 1\nexit").unwrap());
        let w = Warp::new(
            WarpRegs::new(&prog),
            32,
            prog,
            Arc::from([]),
            WarpTag::External(0),
        );
        gpu.core_mut(0).launch(w).unwrap();
        let end = gpu.run_to_idle(0, 1000, &mut ctx, &mut port);
        gpu.drain_external_finished();
        let due = gpu.next_event(end - 1).expect("the writeback is pending");
        let enc = encode(|w| gpu.walk(w));

        let (mut twin, mut ctx_b, mut port_b, _) = setup();
        twin.cycle(0, &mut ctx_b, &mut port_b);
        assert_eq!(twin.wake, [Cycle::MAX; 2], "idle cores never wake");
        twin.walk(&mut SnapReader::new(&enc)).unwrap();
        assert!(twin.next_event(end - 1).is_some_and(|t| t <= due));
    }

    #[test]
    fn snapshot_round_trip_preserves_warm_caches_and_ids() {
        use emerald_common::snap::{encode, SnapReader};
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

        let enc = encode(|w| {
            gpu.walk(w)?;
            port_a.mem.walk(w)
        });

        let mut twin = Gpu::new(GpuConfig::tiny());
        let mut r = SnapReader::new(&enc);
        twin.walk(&mut r).unwrap();
        port_b.mem.walk(&mut r).unwrap();
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

    /// A read id names a slot of the read slab, and at a drained boundary
    /// every slot is free: a free list naming anything else is refused
    /// before the slab it would index is sized.
    #[test]
    fn restore_refuses_a_free_list_that_is_not_its_slab() {
        use emerald_common::snap::{encode, SnapReader};
        let (mut gpu, ..) = setup();
        gpu.dram_free.push(0);
        let enc = encode(|w| gpu.walk(w));
        assert_eq!(
            Gpu::new(GpuConfig::tiny()).walk(&mut SnapReader::new(&enc)),
            Err(SnapError::BadValue {
                what: "DRAM free list is not every slot of its slab"
            })
        );
    }

    #[test]
    fn snapshot_restore_rejects_pending_kernel_mismatch() {
        use emerald_common::snap::{encode, SnapReader};
        let (mut gpu, mut ctx, mut port, _) = setup();
        let prog = Arc::new(assemble("mov.b32 r0, %input0\nexit").unwrap());
        let id = gpu.launch_kernel(Kernel::linear(prog, 64, 64, vec![]));
        gpu.run_to_idle(0, 1_000_000, &mut ctx, &mut port);
        assert!(gpu.kernel_done(id));
        let enc = encode(|w| gpu.walk(w));
        // A fresh GPU never launched that kernel: the id-space would skew.
        let mut fresh = Gpu::new(GpuConfig::tiny());
        let mut r = SnapReader::new(&enc);
        assert!(matches!(
            fresh.walk(&mut r),
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

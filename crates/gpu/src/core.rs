//! The SIMT core: warp scheduling, scoreboarding, the coalescing LSU and
//! the per-core L1 caches (Table 2 of the paper).
//!
//! Functional execution happens at issue (via [`emerald_isa::execute`]);
//! the core then models *when* results become visible: ALU/SFU results
//! release their destination registers after a fixed pipeline latency,
//! memory results when the coalesced line accesses return from the cache
//! hierarchy.

use crate::config::{GpuConfig, WarpSched};
use crate::deferred::Deferred;
use crate::warp::{Warp, WarpTag};
use emerald_common::event::earliest;
use emerald_common::hash::FxHashMap;
use emerald_common::snap::{SnapError, SnapReader, SnapWriter};
use emerald_common::types::{AccessKind, Addr, CoreId, Cycle};
use emerald_isa::exec::Surface;
use emerald_isa::op::{LatencyClass, Op};
use emerald_isa::reg::MAX_REGS;
use emerald_isa::{execute_warp, ExecCtx, Outcome, StepResult};
use emerald_mem::cache::{Access, Cache};
use std::collections::hash_map::Entry;
use std::collections::VecDeque;

/// A coalesced line access waiting for an L1 port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PendingLine {
    /// Memory token this access contributes to (0 = untracked write).
    pub token: u64,
    /// Target surface / cache.
    pub surface: Surface,
    /// Line-aligned address.
    pub line: Addr,
    /// Read or write.
    pub kind: AccessKind,
}

/// An L1 miss (or write) leaving the core toward the GPU L2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L1Miss {
    /// Originating core (global index).
    pub core: usize,
    /// Which L1 missed (so the fill returns to the right cache).
    pub surface: Surface,
    /// Line-aligned address.
    pub line: Addr,
    /// Read fill or write/writeback.
    pub kind: AccessKind,
}

#[derive(Debug)]
struct MemToken {
    slot: usize,
    /// Destination-register mask released when the last line returns.
    regs: u64,
    remaining: u32,
}

/// Issue/commit statistics for one core.
#[derive(Debug, Default, Clone)]
pub struct CoreStats {
    /// Dynamic instructions issued.
    pub issued: u64,
    /// Memory-class instructions issued.
    pub mem_instrs: u64,
    /// Cycles with at least one instruction issued.
    pub active_cycles: u64,
    /// Cycles ticked.
    pub cycles: u64,
    /// Warps launched onto this core.
    pub warps_launched: u64,
    /// Warps retired.
    pub warps_retired: u64,
}

impl CoreStats {
    /// Publishes the counters into `reg` under `prefix` (e.g. `gpu.core0`).
    fn publish(&self, reg: &mut emerald_obs::Registry, prefix: &str) {
        reg.set_counter(format!("{prefix}.issued"), self.issued);
        reg.set_counter(format!("{prefix}.mem_instrs"), self.mem_instrs);
        reg.set_counter(format!("{prefix}.active_cycles"), self.active_cycles);
        reg.set_counter(format!("{prefix}.cycles"), self.cycles);
        reg.set_counter(format!("{prefix}.warps_launched"), self.warps_launched);
        reg.set_counter(format!("{prefix}.warps_retired"), self.warps_retired);
    }
}

/// Warp readiness as slot masks (bit `i` = warp slot `i`), so the
/// schedulers and retire read three words instead of walking every slot.
/// A slot's bits are a function of its warp alone; [`SlotMasks::mark`]
/// re-reads them wherever that warp's state moves, and debug builds
/// rebuild all three from the definitions every cycle.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct SlotMasks {
    /// [`Warp::issuable`] is `Some`.
    ready: u64,
    /// Ready with a memory-class instruction, which also needs LSU room.
    mem: u64,
    /// [`Warp::is_finished`].
    done: u64,
}

impl SlotMasks {
    /// Re-reads `slot`'s bits from `warp` (`None`: the slot is empty).
    fn mark(&mut self, slot: usize, warp: Option<&Warp>) {
        let bit = 1u64 << slot;
        let set = |on: bool| if on { bit } else { 0 };
        let next = warp.and_then(Warp::issuable);
        self.ready = self.ready & !bit | set(next.is_some());
        self.mem = self.mem & !bit | set(next.is_some_and(|d| d.class == LatencyClass::Mem));
        self.done = self.done & !bit | set(warp.is_some_and(Warp::is_finished));
    }
}

/// The set bits of `mask`, lowest first.
fn slots(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let slot = mask.trailing_zeros() as usize;
        (mask != 0).then(|| {
            mask &= mask - 1;
            slot
        })
    })
}

/// One SIMT core (32 lanes).
#[derive(Debug)]
pub struct SimtCore {
    /// Global core index.
    pub id: CoreId,
    cfg: GpuConfig,
    warps: Vec<Option<Warp>>,
    /// Resident-warp count, kept in sync with `warps` so `occupancy` is
    /// O(1) — the active-set scan in `Gpu::cycle` queries it every cycle
    /// for every core.
    resident: usize,
    /// Launch sequence per slot (for greedy-then-oldest).
    seq: Vec<u64>,
    next_seq: u64,
    last_greedy: Vec<Option<usize>>,
    masks: SlotMasks,
    l1d: Cache,
    l1t: Cache,
    l1z: Cache,
    l1c: Cache,
    lsu: VecDeque<PendingLine>,
    tokens: FxHashMap<u64, MemToken>,
    next_token: u64,
    /// Scheduled writebacks: `(slot, destination-register mask)`.
    reg_release: Deferred<(usize, u64)>,
    token_done: Deferred<u64>,
    /// The executor's result buffer, reused by every issue.
    step: StepResult,
    /// Scratch for coalescing one instruction's accesses into lines.
    coalesce: Vec<PendingLine>,
    miss_out: VecDeque<L1Miss>,
    finished: Vec<WarpTag>,
    used_regs: usize,
    barriers: FxHashMap<(usize, usize), usize>,
    stats: CoreStats,
    /// Last cycle seen by [`SimtCore::cycle`]; timestamps trace events from
    /// call sites (like launch) that have no cycle argument.
    now: Cycle,
}

impl SimtCore {
    /// Builds a core with the given global index.
    pub fn new(id: CoreId, cfg: &GpuConfig) -> Self {
        assert!(cfg.max_warps_per_core <= 64, "warp slots are u64 mask bits");
        Self {
            id,
            warps: (0..cfg.max_warps_per_core).map(|_| None).collect(),
            resident: 0,
            seq: vec![0; cfg.max_warps_per_core],
            next_seq: 0,
            last_greedy: vec![None; cfg.schedulers_per_core],
            masks: SlotMasks::default(),
            l1d: Cache::new(cfg.l1d.clone()),
            l1t: Cache::new(cfg.l1t.clone()),
            l1z: Cache::new(cfg.l1z.clone()),
            l1c: Cache::new(cfg.l1c.clone()),
            lsu: VecDeque::new(),
            tokens: FxHashMap::default(),
            next_token: 1, // 0 is the untracked-write sentinel
            reg_release: Deferred::new(),
            token_done: Deferred::new(),
            step: StepResult::new(),
            coalesce: Vec::new(),
            miss_out: VecDeque::new(),
            finished: Vec::new(),
            used_regs: 0,
            barriers: FxHashMap::default(),
            cfg: cfg.clone(),
            stats: CoreStats::default(),
            now: 0,
        }
    }

    /// Register demand of a warp running `program`.
    fn reg_demand(program: &emerald_isa::Program) -> usize {
        program.regs_used().max(1) * 32
    }

    /// True when `warps` warps of `program` would fit right now (free
    /// slots and register-file space for all of them).
    pub fn can_accept(&self, program: &emerald_isa::Program, warps: usize) -> bool {
        self.resident + warps <= self.warps.len()
            && self.used_regs + warps * Self::reg_demand(program) <= self.cfg.regs_per_core
    }

    /// Launches a warp; hands it back if the core cannot take it.
    ///
    /// The `Err` intentionally carries the whole warp (it is state being
    /// returned to the caller, not an error description).
    #[allow(clippy::result_large_err)]
    pub fn launch(&mut self, warp: Warp) -> Result<(), Warp> {
        let demand = Self::reg_demand(&warp.program);
        if self.used_regs + demand > self.cfg.regs_per_core {
            return Err(warp);
        }
        let Some(slot) = self.warps.iter().position(Option::is_none) else {
            return Err(warp);
        };
        self.used_regs += demand;
        self.seq[slot] = self.next_seq;
        self.next_seq += 1;
        self.warps[slot] = Some(warp);
        self.masks.mark(slot, self.warps[slot].as_ref());
        self.resident += 1;
        self.stats.warps_launched += 1;
        emerald_obs::trace::instant_args(
            emerald_obs::TraceCat::Warp,
            "warp_launch",
            self.id.0 as u32,
            self.now,
            &[("slot", slot as u64)],
        );
        Ok(())
    }

    /// Resident warps.
    pub fn occupancy(&self) -> usize {
        self.resident
    }

    /// True when no warp is resident and no memory is in flight.
    pub fn is_idle(&self) -> bool {
        self.occupancy() == 0 && self.lsu.is_empty() && self.tokens.is_empty()
    }

    /// True when this core would do *any* state change in a cycle: a warp
    /// is resident, a line access is queued, a memory token is in flight,
    /// or a scheduled writeback/token completion is pending. A core for
    /// which this is false can skip its cycle entirely — the only effect
    /// would be bumping `stats.cycles`, and the active-set scan in
    /// `Gpu::cycle` depends on that equivalence.
    pub(crate) fn is_active(&self) -> bool {
        self.occupancy() > 0
            || !self.lsu.is_empty()
            || !self.tokens.is_empty()
            || !self.reg_release.is_empty()
            || !self.token_done.is_empty()
    }

    /// Statistics so far.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Per-surface L1 cache (for stats; Figure 18 plots L1 miss counts).
    pub fn l1(&self, surface: Surface) -> Option<&Cache> {
        match surface {
            Surface::Data => Some(&self.l1d),
            Surface::Texture => Some(&self.l1t),
            Surface::Depth => Some(&self.l1z),
            Surface::ConstVertex => Some(&self.l1c),
            Surface::Shared => None,
        }
    }

    /// Publishes core counters plus the four L1s under `prefix` (e.g.
    /// `gpu.core0` yields `gpu.core0.issued`, `gpu.core0.l1t.hits`, …).
    pub(crate) fn publish(&self, reg: &mut emerald_obs::Registry, prefix: &str) {
        self.stats.publish(reg, prefix);
        self.l1d.stats().publish(reg, &format!("{prefix}.l1d"));
        self.l1t.stats().publish(reg, &format!("{prefix}.l1t"));
        self.l1z.stats().publish(reg, &format!("{prefix}.l1z"));
        self.l1c.stats().publish(reg, &format!("{prefix}.l1c"));
    }

    /// Resets cache and core statistics (between frames/experiments).
    pub(crate) fn reset_stats(&mut self) {
        self.stats = CoreStats::default();
        self.l1d.reset_stats();
        self.l1t.reset_stats();
        self.l1z.reset_stats();
        self.l1c.reset_stats();
    }

    /// Drains a finished-warp tag, if any.
    pub fn pop_finished(&mut self) -> Option<WarpTag> {
        self.finished.pop()
    }

    /// Drains an outgoing L1 miss / write toward the L2.
    pub fn pop_miss(&mut self) -> Option<L1Miss> {
        self.miss_out.pop_front()
    }

    /// Peeks whether any miss is waiting to leave.
    pub(crate) fn has_miss(&self) -> bool {
        !self.miss_out.is_empty()
    }

    /// Returns a popped miss to the head of the queue (interconnect
    /// backpressure).
    pub(crate) fn push_miss_front(&mut self, miss: L1Miss) {
        self.miss_out.push_front(miss);
    }

    fn cache_mut(&mut self, surface: Surface) -> &mut Cache {
        match surface {
            Surface::Data => &mut self.l1d,
            Surface::Texture => &mut self.l1t,
            Surface::Depth => &mut self.l1z,
            Surface::ConstVertex => &mut self.l1c,
            Surface::Shared => unreachable!("shared memory bypasses caches"),
        }
    }

    /// One-line internal state summary (diagnostics).
    pub(crate) fn debug_snapshot(&self) -> String {
        format!(
            "occ={} lsu={} lsu_head={:?} tokens={} l1d_pend={} l1t_pend={} l1z_pend={} l1c_pend={} miss_out={} warps_waiting_mem={}",
            self.occupancy(),
            self.lsu.len(),
            self.lsu.front(),
            self.tokens.len(),
            self.l1d.pending_lines(),
            self.l1t.pending_lines(),
            self.l1z.pending_lines(),
            self.l1c.pending_lines(),
            self.miss_out.len(),
            self.warps.iter().flatten().filter(|w| w.outstanding_mem > 0).count(),
        )
    }

    /// Delivers an L2→L1 fill for `(surface, line)`.
    pub fn fill_l1(&mut self, surface: Surface, line: Addr, now: Cycle) {
        // Borrowed by field: the waiters are read out of the cache while
        // `token_done` takes them.
        let cache = match surface {
            Surface::Data => &mut self.l1d,
            Surface::Texture => &mut self.l1t,
            Surface::Depth => &mut self.l1z,
            Surface::ConstVertex => &mut self.l1c,
            Surface::Shared => unreachable!("shared memory bypasses caches"),
        };
        let due = now + cache.config().hit_latency as Cycle;
        for &t in cache.fill(line) {
            if t != 0 {
                self.token_done.push(due, t);
            }
        }
    }

    /// Earliest cycle `> now` at which [`SimtCore::cycle`] does more than
    /// count itself (the `emerald_common::event::NextEvent` contract), or
    /// `None` while only a launch or a fill can wake the core. A parked
    /// core — no warp to issue or retire, no scheduler holding a greedy
    /// warp, no miss waiting to leave, an LSU that is empty or blocked on
    /// its cache's memoised stall — wakes at its next scheduled writeback
    /// or token completion; [`SimtCore::skip`] books the cycles in between.
    pub(crate) fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if !self.miss_out.is_empty() {
            return Some(now + 1);
        }
        if !self.is_active() {
            return None;
        }
        if self.pickable() != 0
            || self.masks.done != 0
            || self.last_greedy.iter().any(Option::is_some)
            || !self.lsu_is_parked()
        {
            return Some(now + 1);
        }
        let due = earliest(self.reg_release.next_due(), self.token_done.next_due())?;
        Some(due.max(now + 1))
    }

    /// True when the LSU has nothing to do next cycle but count a retry:
    /// it is empty, or its head is its cache's memoised stall.
    fn lsu_is_parked(&self) -> bool {
        self.lsu.front().is_none_or(|p| {
            self.l1(p.surface)
                .is_some_and(|c| c.is_stalled_on(p.line, p.kind))
        })
    }

    /// Books `delta` cycles this core was active through without being
    /// cycled, none of them at or past its [`SimtCore::next_event`]: the
    /// cycle count, and a blocked LSU head's retries.
    pub(crate) fn skip(&mut self, delta: Cycle) {
        self.stats.cycles += delta;
        match self.lsu.front().copied() {
            Some(p) if p.surface != Surface::Shared => {
                self.cache_mut(p.surface).book_stalls(p.line, p.kind, delta);
            }
            _ => {}
        }
    }

    /// Accounts one returned line of `token`; the owning warp's slot when
    /// it was the last and that warp got its registers back.
    fn complete_token_part(
        tokens: &mut FxHashMap<u64, MemToken>,
        warps: &mut [Option<Warp>],
        token: u64,
    ) -> Option<usize> {
        let Entry::Occupied(mut e) = tokens.entry(token) else {
            return None;
        };
        e.get_mut().remaining -= 1;
        if e.get().remaining > 0 {
            return None;
        }
        let tok = e.remove();
        if let Some(w) = warps[tok.slot].as_mut() {
            w.release_regs(tok.regs);
            w.outstanding_mem -= 1;
        }
        Some(tok.slot)
    }

    /// One core clock cycle. `ctx` provides functional memory and graphics
    /// surfaces for whatever warps run here.
    pub fn cycle(&mut self, now: Cycle, ctx: &mut dyn ExecCtx) {
        self.now = now;
        self.stats.cycles += 1;

        // 1. Writebacks due this cycle.
        let (warps, tokens, masks) = (&mut self.warps, &mut self.tokens, &mut self.masks);
        self.reg_release.drain(now, |(slot, regs)| {
            if let Some(w) = warps[slot].as_mut() {
                w.release_regs(regs);
                masks.mark(slot, Some(w));
            }
        });
        self.token_done.drain(now, |t| {
            if let Some(slot) = Self::complete_token_part(tokens, warps, t) {
                masks.mark(slot, warps[slot].as_ref());
            }
        });

        // 2. LSU: one line access per cycle per LSU port (2 ports).
        for _ in 0..2 {
            let Some(p) = self.lsu.front().copied() else {
                break;
            };
            match p.surface {
                Surface::Shared => {
                    self.lsu.pop_front();
                    if p.token != 0 {
                        self.token_done
                            .push(now + self.cfg.smem_latency as Cycle, p.token);
                    }
                }
                surface => {
                    let core = self.id.0;
                    let cache = self.cache_mut(surface);
                    let hit_lat = cache.config().hit_latency as Cycle;
                    match cache.access(p.line, p.kind, p.token, now) {
                        // A tracked read returns its data, a tracked write
                        // completes, after the hit latency.
                        Access::Hit => {
                            self.lsu.pop_front();
                            if p.token != 0 {
                                self.token_done.push(now + hit_lat, p.token);
                            }
                        }
                        Access::Miss { writeback } => {
                            self.lsu.pop_front();
                            self.miss_out.push_back(L1Miss {
                                core,
                                surface,
                                line: p.line,
                                kind: AccessKind::Read,
                            });
                            if let Some(wb) = writeback {
                                self.miss_out.push_back(L1Miss {
                                    core,
                                    surface,
                                    line: wb,
                                    kind: AccessKind::Write,
                                });
                            }
                        }
                        Access::MergedMiss => {
                            self.lsu.pop_front();
                        }
                        Access::Stall(_) => {
                            // Head-of-line blocks this cycle.
                            break;
                        }
                    }
                }
            }
        }
        if cfg!(debug_assertions) {
            self.assert_masks();
        }

        // 3. Issue from each scheduler.
        let mut issued_any = false;
        for s in 0..self.cfg.schedulers_per_core {
            let pick = self.pick_warp(s);
            if let Some(slot) = pick {
                self.issue(slot, now, ctx);
                issued_any = true;
            }
            self.last_greedy[s] = pick;
        }
        if issued_any {
            self.stats.active_cycles += 1;
        }

        // 4. Retire finished warps, in slot order.
        for slot in slots(self.masks.done) {
            let w = self.warps[slot].take().expect("a done bit marks a warp");
            self.masks.mark(slot, None);
            self.resident -= 1;
            self.used_regs -= Self::reg_demand(&w.program);
            self.finished.push(w.tag);
            self.stats.warps_retired += 1;
            emerald_obs::trace::instant_args(
                emerald_obs::TraceCat::Warp,
                "warp_retire",
                self.id.0 as u32,
                now,
                &[("slot", slot as u64)],
            );
        }
    }

    /// The masks' oracle: all three rebuilt from the definitions the
    /// warp's cached view stands for (`can_issue`, `has_hazard`, the
    /// decode at the pc, `is_finished`) must equal the maintained ones.
    fn assert_masks(&self) {
        let mut slow = SlotMasks::default();
        for (slot, w) in self.warps.iter().enumerate() {
            let Some(w) = w else { continue };
            let bit = 1u64 << slot;
            if w.can_issue() && !w.has_hazard() {
                slow.ready |= bit;
                if w.program.decoded(w.stack.pc()).class == LatencyClass::Mem {
                    slow.mem |= bit;
                }
            }
            if w.is_finished() {
                slow.done |= bit;
            }
        }
        assert_eq!(self.masks, slow, "stale slot mask on {}", self.id);
    }

    /// Slots a scheduler may pick now: the ready ones, less memory
    /// instructions while the LSU is full (worst case one line/lane ×4).
    fn pickable(&self) -> u64 {
        if self.lsu.len() >= self.cfg.lsu_entries {
            self.masks.ready & !self.masks.mem
        } else {
            self.masks.ready
        }
    }

    /// Warp selection for scheduler `s` per the configured policy.
    fn pick_warp(&self, s: usize) -> Option<usize> {
        let ready = self.pickable();
        // Not taken by an earlier scheduler this cycle.
        let free = ready
            & !self.last_greedy[..s]
                .iter()
                .flatten()
                .fold(0u64, |m, &slot| m | 1 << slot);
        match self.cfg.warp_sched {
            WarpSched::Gto => match self.last_greedy[s] {
                // Greedy: stick with the last warp while it stays ready.
                Some(slot) if ready >> slot & 1 != 0 => Some(slot),
                // Fallback: the oldest free ready warp.
                _ => slots(free).min_by_key(|&slot| self.seq[slot]),
            },
            WarpSched::Lrr => {
                // Rotate: first free ready slot after the last issued one.
                let start = self.last_greedy[s].map_or(0, |x| (x + 1) % self.warps.len());
                let after = free & u64::MAX << start;
                slots(if after != 0 { after } else { free }).next()
            }
        }
    }

    fn line_bytes(&self, surface: Surface) -> u64 {
        match surface {
            Surface::Shared => 128,
            Surface::Data => self.l1d.config().line_bytes as u64,
            Surface::Texture => self.l1t.config().line_bytes as u64,
            Surface::Depth => self.l1z.config().line_bytes as u64,
            Surface::ConstVertex => self.l1c.config().line_bytes as u64,
        }
    }

    fn issue(&mut self, slot: usize, now: Cycle, ctx: &mut dyn ExecCtx) {
        let w = self.warps[slot].as_mut().expect("warp in slot");
        let pc = w.stack.pc();
        let mask = w.stack.active_mask();
        let decoded = w.program.decoded(pc);
        let (regs, params) = (&mut w.regs, &w.params);
        execute_warp(&w.program, pc, mask, regs, params, ctx, &mut self.step);
        let res = &self.step;
        w.instrs_issued += 1;
        self.stats.issued += 1;

        if res.killed != 0 {
            w.stack.retire_lanes(res.killed);
        }

        match res.outcome {
            Outcome::Next => {
                if !w.stack.is_done() && w.stack.pc() == pc {
                    w.stack.advance();
                }
            }
            Outcome::Branch { taken } => {
                if let Op::Bra { target, reconv } = w.program.instr(pc).op {
                    w.stack.branch(taken, target, reconv);
                } else {
                    unreachable!("branch outcome from non-branch op");
                }
            }
            Outcome::Exit => {
                w.stack.exit_path();
            }
            Outcome::Barrier => {
                w.stack.advance();
                w.at_barrier = true;
                if let Some((k, cta, warps_in_cta)) = w.cta_group {
                    let count = self.barriers.entry((k, cta)).or_insert(0);
                    *count += 1;
                    if *count >= warps_in_cta {
                        self.barriers.remove(&(k, cta));
                        for (i, other) in self.warps.iter_mut().enumerate() {
                            let Some(other) = other else { continue };
                            if other.cta_group.map(|(ok, oc, _)| (ok, oc)) == Some((k, cta)) {
                                other.at_barrier = false;
                                self.masks.mark(i, Some(other));
                            }
                        }
                    }
                }
            }
        }

        // Timing: destination registers and memory tokens.
        match decoded.class {
            LatencyClass::Alu | LatencyClass::Control | LatencyClass::Sfu => {
                if decoded.dst != 0 {
                    let latency = if decoded.class == LatencyClass::Sfu {
                        self.cfg.sfu_latency
                    } else {
                        self.cfg.alu_latency
                    };
                    let w = self.warps[slot].as_mut().expect("warp in slot");
                    w.acquire_regs(decoded.dst);
                    self.reg_release
                        .push(now + latency as Cycle, (slot, decoded.dst));
                }
            }
            LatencyClass::Mem => {
                self.stats.mem_instrs += 1;
                // Coalesce per-lane accesses into unique line accesses.
                self.coalesce.clear();
                let mut tracked = 0u32;
                let token = self.next_token;
                for a in &res.accesses {
                    let line = a.addr & !(self.line_bytes(a.surface) - 1);
                    if let Some(existing) = self
                        .coalesce
                        .iter_mut()
                        .find(|l| l.surface == a.surface && l.line == line)
                    {
                        // Upgrade to read if both kinds touch the line: the
                        // read tracks completion; the write rides along.
                        if a.kind == AccessKind::Read && existing.kind == AccessKind::Write {
                            existing.kind = AccessKind::Read;
                            existing.token = token;
                            tracked += 1;
                        }
                        continue;
                    }
                    let is_read = a.kind == AccessKind::Read;
                    self.coalesce.push(PendingLine {
                        token: if is_read { token } else { 0 },
                        surface: a.surface,
                        line,
                        kind: a.kind,
                    });
                    if is_read {
                        tracked += 1;
                    }
                }
                if tracked > 0 {
                    self.next_token += 1;
                    let w = self.warps[slot].as_mut().expect("warp in slot");
                    w.acquire_regs(decoded.dst);
                    w.outstanding_mem += 1;
                    self.tokens.insert(
                        token,
                        MemToken {
                            slot,
                            regs: decoded.dst,
                            remaining: tracked,
                        },
                    );
                }
                self.lsu.extend(self.coalesce.drain(..));
            }
        }

        // Exit bookkeeping, and the scheduler's view of the new pc.
        let w = self.warps[slot].as_mut().expect("warp in slot");
        if w.stack.is_done() {
            w.exited = true;
        }
        w.refresh_next();
        self.masks.mark(slot, Some(w));
    }
}

/// Snapshot tag for a [`Surface`] (all five variants, unlike the 2-bit
/// L2 MSHR packing which excludes shared memory).
pub(crate) fn surface_snap_write(s: Surface, w: &mut SnapWriter) {
    w.put_u8(match s {
        Surface::Data => 0,
        Surface::Texture => 1,
        Surface::Depth => 2,
        Surface::ConstVertex => 3,
        Surface::Shared => 4,
    });
}

pub(crate) fn surface_snap_read(r: &mut SnapReader<'_>) -> Result<Surface, SnapError> {
    Ok(match r.get_u8()? {
        0 => Surface::Data,
        1 => Surface::Texture,
        2 => Surface::Depth,
        3 => Surface::ConstVertex,
        4 => Surface::Shared,
        _ => {
            return Err(SnapError::BadValue {
                what: "surface tag",
            })
        }
    })
}

impl L1Miss {
    pub(crate) fn snap_write(&self, w: &mut SnapWriter) {
        w.put_usize(self.core);
        surface_snap_write(self.surface, w);
        w.put_u64(self.line);
        self.kind.snap_write(w);
    }

    pub(crate) fn snap_read(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Self {
            core: r.get_usize()?,
            surface: surface_snap_read(r)?,
            line: r.get_u64()?,
            kind: AccessKind::snap_read(r)?,
        })
    }
}

impl emerald_common::snap::Snapshot for SimtCore {
    /// Serializes scheduler history, the four L1s, and the deferred
    /// writeback/token queues. Checkpoints land at drained boundaries:
    /// no warp is resident and no memory token is in flight, so warps
    /// (which hold `Arc<Program>` handles) never need to be encoded.
    /// `reg_release`/`token_done`/`miss_out` *can* outlive the last warp
    /// by a few cycles — `is_active` treats them as live work — so they
    /// are serialized rather than asserted away.
    ///
    /// # Panics
    ///
    /// Panics if a warp is resident or a token/line access is in flight
    /// (a checkpoint-placement bug).
    fn snapshot(&self, w: &mut SnapWriter) {
        assert!(
            self.occupancy() == 0 && self.tokens.is_empty() && self.lsu.is_empty(),
            "SIMT core must be drained at a checkpoint"
        );
        assert!(
            self.finished.is_empty(),
            "finished-warp tags must be consumed before a checkpoint"
        );
        w.put_seq(self.seq.iter(), |w, &s| w.put_u64(s));
        w.put_u64(self.next_seq);
        w.put_seq(self.last_greedy.iter(), |w, g| {
            w.put_opt(g, |w, &slot| w.put_usize(slot));
        });
        w.section(1, |w| self.l1d.snapshot(w));
        w.section(2, |w| self.l1t.snapshot(w));
        w.section(3, |w| self.l1z.snapshot(w));
        w.section(4, |w| self.l1c.snapshot(w));
        w.put_u64(self.next_token);
        w.put_seq(self.reg_release.ordered().iter(), |w, (&cycle, rels)| {
            w.put_u64(cycle);
            w.put_seq(rels.iter(), |w, &(slot, regs)| {
                w.put_usize(slot);
                // The mask as the byte string of register indices, in
                // ascending order, that format 2 has always carried.
                w.put_usize(regs.count_ones() as usize);
                (0..64u8)
                    .filter(|r| regs >> r & 1 != 0)
                    .for_each(|r| w.put_u8(r));
            });
        });
        w.put_seq(self.token_done.ordered().iter(), |w, (&cycle, toks)| {
            w.put_u64(cycle);
            w.put_seq(toks.iter(), |w, &t| w.put_u64(t));
        });
        w.put_seq(self.miss_out.iter(), |w, m| m.snap_write(w));
        w.put_usize(self.used_regs);
        // FxHashMap iteration order is arbitrary; sort for stable bytes.
        let mut barriers: Vec<_> = self.barriers.iter().collect();
        barriers.sort();
        w.put_seq(barriers.into_iter(), |w, (&(cta, bar), &count)| {
            w.put_usize(cta);
            w.put_usize(bar);
            w.put_usize(count);
        });
        w.put_u64(self.stats.issued);
        w.put_u64(self.stats.mem_instrs);
        w.put_u64(self.stats.active_cycles);
        w.put_u64(self.stats.cycles);
        w.put_u64(self.stats.warps_launched);
        w.put_u64(self.stats.warps_retired);
        w.put_u64(self.now);
    }
}

impl emerald_common::snap::Restore for SimtCore {
    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let seq = r.get_seq(8, |r| r.get_u64())?;
        if seq.len() != self.cfg.max_warps_per_core {
            return Err(SnapError::BadValue {
                what: "warp slot count mismatch",
            });
        }
        let next_seq = r.get_u64()?;
        let last_greedy = r.get_seq(1, |r| r.get_opt(|r| r.get_usize()))?;
        if last_greedy.len() != self.cfg.schedulers_per_core {
            return Err(SnapError::BadValue {
                what: "scheduler count mismatch",
            });
        }
        self.seq = seq;
        self.next_seq = next_seq;
        self.last_greedy = last_greedy;
        r.section(1, |r| self.l1d.restore(r))?;
        r.section(2, |r| self.l1t.restore(r))?;
        r.section(3, |r| self.l1z.restore(r))?;
        r.section(4, |r| self.l1c.restore(r))?;
        self.next_token = r.get_u64()?;
        let slots = self.warps.len();
        let releases = r.get_seq(9, |r| {
            let cycle = r.get_u64()?;
            let rels = r.get_seq(9, |r| {
                let slot = r.get_usize()?;
                let regs = r.get_bytes()?;
                if slot >= slots || regs.iter().any(|&reg| reg as usize >= MAX_REGS) {
                    return Err(SnapError::BadValue {
                        what: "writeback slot or register out of range",
                    });
                }
                Ok((slot, regs.iter().fold(0u64, |m, &reg| m | 1 << reg)))
            })?;
            Ok((cycle, rels))
        })?;
        let completions = r.get_seq(9, |r| Ok((r.get_u64()?, r.get_seq(8, |r| r.get_u64())?)))?;
        self.reg_release.clear();
        for (cycle, rels) in releases {
            rels.into_iter()
                .for_each(|rel| self.reg_release.push(cycle, rel));
        }
        self.token_done.clear();
        for (cycle, toks) in completions {
            toks.into_iter()
                .for_each(|t| self.token_done.push(cycle, t));
        }
        self.miss_out = r.get_seq(18, L1Miss::snap_read)?.into();
        self.used_regs = r.get_usize()?;
        self.barriers = r
            .get_seq(24, |r| {
                Ok(((r.get_usize()?, r.get_usize()?), r.get_usize()?))
            })?
            .into_iter()
            .collect();
        self.stats = CoreStats {
            issued: r.get_u64()?,
            mem_instrs: r.get_u64()?,
            active_cycles: r.get_u64()?,
            cycles: r.get_u64()?,
            warps_launched: r.get_u64()?,
            warps_retired: r.get_u64()?,
        };
        self.now = r.get_u64()?;
        // The drained invariant: no warps, tokens, or line accesses carry
        // across a checkpoint.
        self.warps.iter_mut().for_each(|w| *w = None);
        self.resident = 0;
        self.masks = SlotMasks::default();
        self.tokens.clear();
        self.lsu.clear();
        self.finished.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::{GlobalMemCtx, ImageCtx};
    use emerald_isa::{assemble, WarpRegs};
    use emerald_mem::image::SharedMem;
    use std::sync::Arc;

    fn core() -> SimtCore {
        SimtCore::new(CoreId(0), &GpuConfig::tiny())
    }

    fn run(core: &mut SimtCore, ctx: &mut GlobalMemCtx, max: Cycle) -> Cycle {
        let mut now = 0;
        while !(core.is_idle()) {
            ctx.lock(|x| core.cycle(now, x));
            now += 1;
            assert!(now < max, "core did not finish in {max} cycles");
        }
        now
    }

    fn launch_simple(core: &mut SimtCore, src: &str, n_threads: usize) {
        let p = Arc::new(assemble(src).unwrap());
        let w = Warp::new(
            WarpRegs::new(&p),
            n_threads,
            p,
            Arc::from([]),
            WarpTag::External(7),
        );
        core.launch(w).unwrap();
    }

    #[test]
    fn trivial_warp_retires() {
        let mut c = core();
        let mem = SharedMem::with_capacity(1 << 16);
        let mut ctx = GlobalMemCtx::new(mem);
        launch_simple(&mut c, "mov.b32 r0, %laneid\nexit", 32);
        run(&mut c, &mut ctx, 1000);
        assert_eq!(c.pop_finished(), Some(WarpTag::External(7)));
        assert_eq!(c.stats().warps_retired, 1);
        assert_eq!(c.stats().issued, 2);
    }

    #[test]
    fn alu_latency_stalls_dependent_instruction() {
        // r1 depends on r0 (latency 4) so total cycles > instruction count.
        let mut c = core();
        let mem = SharedMem::with_capacity(1 << 16);
        let mut ctx = GlobalMemCtx::new(mem);
        launch_simple(
            &mut c,
            "add.f32 r0, 1.0, 2.0\nadd.f32 r1, r0, 1.0\nexit",
            32,
        );
        let cycles = run(&mut c, &mut ctx, 1000);
        assert!(cycles >= 4, "dependent add must wait for writeback");
    }

    #[test]
    fn memory_load_roundtrip() {
        let mem = SharedMem::with_capacity(1 << 20);
        mem.write_u32(0x1000, 99);
        let mut ctx = GlobalMemCtx::new(mem.clone());
        let mut c = core();
        launch_simple(
            &mut c,
            "mov.b32 r1, 0x1000\nld.global.b32 r0, [r1+0]\nadd.u32 r2, r0, 1\nst.global.b32 [r1+4], r2\nexit",
            1,
        );
        // Pump core + manually satisfy misses as if L2 answered instantly.
        let mut now = 0;
        while !c.is_idle() {
            ctx.lock(|x| c.cycle(now, x));
            while let Some(m) = c.pop_miss() {
                if m.kind == AccessKind::Read {
                    c.fill_l1(m.surface, m.line, now + 20);
                }
            }
            now += 1;
            assert!(now < 10_000);
        }
        assert_eq!(mem.read_u32(0x1004), 100);
        assert_eq!(c.pop_finished(), Some(WarpTag::External(7)));
    }

    #[test]
    fn divergent_branch_executes_both_paths() {
        let mem = SharedMem::with_capacity(1 << 20);
        let mut ctx = GlobalMemCtx::new(mem.clone());
        let mut c = core();
        let src = "
            mov.b32 r0, %laneid
            setp.lt.s32 p0, r0, 2
            @!p0 bra ELSE, reconv=DONE
            mov.b32 r1, 111
            bra DONE, reconv=DONE
            ELSE:
            mov.b32 r1, 222
            DONE:
            shl.u32 r2, r0, 2
            add.u32 r2, r2, 0x2000
            st.global.b32 [r2+0], r1
            exit";
        launch_simple(&mut c, src, 4);
        let mut now = 0;
        while !c.is_idle() {
            ctx.lock(|x| c.cycle(now, x));
            while let Some(m) = c.pop_miss() {
                if m.kind == AccessKind::Read {
                    c.fill_l1(m.surface, m.line, now);
                }
            }
            now += 1;
            assert!(now < 10_000);
        }
        assert_eq!(mem.read_u32(0x2000), 111);
        assert_eq!(mem.read_u32(0x2004), 111);
        assert_eq!(mem.read_u32(0x2008), 222);
        assert_eq!(mem.read_u32(0x200c), 222);
    }

    #[test]
    fn coalescing_reduces_line_accesses() {
        // 32 lanes × consecutive words = 32 accesses but only 1 line.
        let mem = SharedMem::with_capacity(1 << 20);
        let mut ctx = GlobalMemCtx::new(mem);
        let mut c = core();
        launch_simple(
            &mut c,
            "mov.b32 r0, %laneid\nshl.u32 r1, r0, 2\nadd.u32 r1, r1, 0x1000\nld.global.b32 r2, [r1+0]\nexit",
            32,
        );
        let mut fills = 0;
        let mut now = 0;
        while !c.is_idle() {
            ctx.lock(|x| c.cycle(now, x));
            while let Some(m) = c.pop_miss() {
                if m.kind == AccessKind::Read {
                    fills += 1;
                    c.fill_l1(m.surface, m.line, now);
                }
            }
            now += 1;
            assert!(now < 10_000);
        }
        assert_eq!(fills, 1, "perfectly coalesced load = one line fill");
    }

    #[test]
    fn wrapped_addresses_read_zero_and_drop_writes() {
        // r0 is the lane id, so `[r0+-4]` covers u64::MAX-3 ..= u64::MAX
        // across the four lanes, in both spaces; each lane then reports
        // the sum of what it loaded.
        let mem = SharedMem::with_capacity(1 << 16);
        for lane in 0..4 {
            mem.write_u32(0x100 + 4 * lane, 99);
        }
        let mut ctx = GlobalMemCtx::new(mem.clone());
        let mut c = core();
        launch_simple(
            &mut c,
            "mov.b32 r0, %laneid
             mov.b32 r1, 7
             st.global.b32 [r0+-4], r1
             st.shared.b32 [r0+-4], r1
             ld.global.b32 r2, [r0+-4]
             ld.shared.b32 r3, [r0+-4]
             add.u32 r4, r2, r3
             shl.u32 r5, r0, 2
             add.u32 r5, r5, 0x100
             st.global.b32 [r5+0], r4
             exit",
            4,
        );
        let mut now = 0;
        while !c.is_idle() {
            ctx.lock(|x| c.cycle(now, x));
            while let Some(m) = c.pop_miss() {
                if m.kind == AccessKind::Read {
                    c.fill_l1(m.surface, m.line, now);
                }
            }
            now += 1;
            assert!(now < 10_000);
        }
        assert_eq!(c.pop_finished(), Some(WarpTag::External(7)));
        for lane in 0..4 {
            assert_eq!(mem.read_u32(0x100 + 4 * lane), 0, "lane {lane}");
        }
    }

    #[test]
    fn regfile_capacity_limits_launch() {
        let mut cfg = GpuConfig::tiny();
        cfg.regs_per_core = 64; // one warp with 2 regs = 64 register demand
        let mut c = SimtCore::new(CoreId(0), &cfg);
        let p = Arc::new(assemble("mov.b32 r1, 0\nexit").unwrap());
        let mk = || {
            Warp::new(
                WarpRegs::new(&p),
                32,
                p.clone(),
                Arc::from([]),
                WarpTag::External(0),
            )
        };
        assert!(c.launch(mk()).is_ok());
        assert!(c.launch(mk()).is_err(), "register file exhausted");
        assert!(!c.can_accept(&p, 1));
    }

    /// The mask oracle catches a mask nobody re-marked: a ready bit on an
    /// empty slot, and a done bit on a warp still waiting on a writeback.
    #[cfg(debug_assertions)]
    #[test]
    fn stale_slot_masks_are_caught() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let corruptions: [fn(&mut SlotMasks); 2] = [|m| m.ready ^= 1 << 5, |m| m.done ^= 1];
        for corrupt in corruptions {
            let mut c = core();
            let mut ctx = GlobalMemCtx::new(SharedMem::with_capacity(1 << 16));
            // r0's writeback lands at cycle 4, so nothing re-marks slot 0
            // in cycle 3.
            launch_simple(
                &mut c,
                "add.f32 r0, 1.0, 2.0\nadd.f32 r1, r0, 1.0\nexit",
                32,
            );
            for now in 0..3 {
                ctx.lock(|x| c.cycle(now, x));
            }
            corrupt(&mut c.masks);
            let err = catch_unwind(AssertUnwindSafe(|| ctx.lock(|x| c.cycle(3, x))))
                .expect_err("the oracle must catch a stale mask");
            let msg = err.downcast_ref::<String>().expect("a formatted message");
            assert!(msg.contains("stale slot mask on core0"), "{msg}");
        }
    }

    #[test]
    fn restore_rejects_out_of_range_writeback_registers() {
        use emerald_common::snap::{Restore as _, Snapshot as _};
        // Stop right after `exit` retires the warp: the core is drained
        // but the `mov`'s writeback of r37 is still scheduled.
        let mut c = core();
        let mem = SharedMem::with_capacity(1 << 16);
        let mut ctx = GlobalMemCtx::new(mem);
        launch_simple(&mut c, "mov.b32 r37, 1\nexit", 32);
        run(&mut c, &mut ctx, 100);
        c.pop_finished();
        assert!(c.is_active(), "writeback still pending");
        let mut w = SnapWriter::new();
        c.snapshot(&mut w);
        let enc = w.into_bytes();
        let mut twin = core();
        twin.restore(&mut SnapReader::new(&enc)).unwrap();
        assert!(twin.is_active());

        // Corrupt each byte that could be the register index in turn: no
        // variant may panic, and the real one is refused by name.
        let mut refused = false;
        for at in (0..enc.len()).filter(|&i| enc[i] == 37) {
            let mut bad = enc.clone();
            bad[at] = 64;
            refused |= core().restore(&mut SnapReader::new(&bad))
                == Err(SnapError::BadValue {
                    what: "writeback slot or register out of range",
                });
        }
        assert!(refused);
    }

    #[test]
    fn greedy_scheduler_sticks_with_warp() {
        // Two warps; with GTO the first should finish no later than a
        // round-robin interleave would allow.
        let mem = SharedMem::with_capacity(1 << 16);
        let mut ctx = GlobalMemCtx::new(mem);
        let mut c = core();
        for _ in 0..2 {
            launch_simple(
                &mut c,
                "mov.b32 r0, 0\nmov.b32 r1, 1\nmov.b32 r2, 2\nexit",
                32,
            );
        }
        run(&mut c, &mut ctx, 1000);
        assert_eq!(c.stats().warps_retired, 2);
        assert_eq!(c.stats().issued, 8);
    }
}

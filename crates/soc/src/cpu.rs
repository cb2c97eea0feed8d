//! Phase-scripted CPU core models with private cache hierarchies.
//!
//! The original runs Android on gem5's out-of-order ARM cores; here each
//! core executes a per-frame *phase script* that reproduces the traffic
//! envelope of the model-viewer app (Table 5/6): prepare bursts, draw
//! submission, fence waits and composition. Cores have private L1+L2
//! caches (Table 5) and a bounded number of outstanding misses.

use emerald_common::rng::Xorshift64;
use emerald_common::snap::{SnapError, Walk};
use emerald_common::types::{AccessKind, Addr, Cycle, TrafficSource};
use emerald_mem::cache::{Access, Cache, CacheConfig};
use emerald_mem::image::SharedMem;
use emerald_mem::req::MemRequest;
use emerald_mem::system::MemorySystem;

/// One step of a CPU core's per-frame script.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Phase {
    /// Execute `instrs` instruction slots; each is a memory access with
    /// probability `mem_ratio`, over a `footprint`-byte region starting at
    /// the core's arena (`sequential` streams linearly, otherwise random).
    Work {
        /// Instruction slots.
        instrs: u64,
        /// Fraction of slots that access memory.
        mem_ratio: f64,
        /// Bytes touched.
        footprint: u64,
        /// Streaming vs random access pattern.
        sequential: bool,
    },
    /// Submit the frame's draw calls (driver core only; the SoC acts on
    /// this marker).
    IssueDraw,
    /// Poll a fence until the GPU finishes the frame (sparse loads).
    WaitGpu,
}

/// A per-frame script.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuWorkload {
    /// Phases executed in order each frame.
    pub phases: Vec<Phase>,
}

impl CpuWorkload {
    /// The driver thread (core 0): prepare scene → submit → wait → compose.
    pub fn driver() -> Self {
        Self {
            phases: vec![
                Phase::Work {
                    instrs: 24_000,
                    mem_ratio: 0.25,
                    footprint: 256 << 10,
                    sequential: true,
                },
                Phase::IssueDraw,
                Phase::WaitGpu,
                Phase::Work {
                    instrs: 8_000,
                    mem_ratio: 0.15,
                    footprint: 64 << 10,
                    sequential: false,
                },
            ],
        }
    }

    /// A memory-intensive streaming worker.
    pub fn streamer() -> Self {
        Self {
            phases: vec![
                Phase::Work {
                    instrs: 30_000,
                    mem_ratio: 0.40,
                    footprint: 2 << 20,
                    sequential: true,
                },
                Phase::WaitGpu,
            ],
        }
    }

    /// A compute-bound worker (memory non-intensive).
    pub fn compute() -> Self {
        Self {
            phases: vec![
                Phase::Work {
                    instrs: 40_000,
                    mem_ratio: 0.05,
                    footprint: 64 << 10,
                    sequential: false,
                },
                Phase::WaitGpu,
            ],
        }
    }

    /// A mixed random-access worker.
    pub fn mixed() -> Self {
        Self {
            phases: vec![
                Phase::Work {
                    instrs: 30_000,
                    mem_ratio: 0.15,
                    footprint: 512 << 10,
                    sequential: false,
                },
                Phase::WaitGpu,
            ],
        }
    }
}

/// Per-core statistics.
#[derive(Debug, Default, Clone, Copy)]
pub struct CpuStats {
    /// Instruction slots retired.
    pub instrs: u64,
    /// Memory requests sent past the private caches.
    pub mem_requests: u64,
    /// Cycles stalled on outstanding misses.
    pub stall_cycles: u64,
    /// Frames completed.
    pub frames: u64,
}

impl CpuStats {
    /// Publishes the counters into `reg` under `prefix` (e.g. `soc.cpu0`).
    pub(crate) fn publish(&self, reg: &mut emerald_obs::Registry, prefix: &str) {
        reg.set_counter(format!("{prefix}.instrs"), self.instrs);
        reg.set_counter(format!("{prefix}.mem_requests"), self.mem_requests);
        reg.set_counter(format!("{prefix}.stall_cycles"), self.stall_cycles);
        reg.set_counter(format!("{prefix}.frames"), self.frames);
    }
}

/// Cycles between fence polls while a core sits in [`Phase::WaitGpu`].
const POLL_INTERVAL: u32 = 256;

/// State the SoC reads after running a core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CpuEvent {
    /// Nothing notable.
    #[default]
    None,
    /// The driver submitted the frame's draws.
    IssueDraw,
}

/// One in-order CPU core with private L1 + L2.
#[derive(Debug)]
pub struct CpuCoreModel {
    /// Core index (its [`TrafficSource`] tag).
    pub id: usize,
    workload: CpuWorkload,
    phase_idx: usize,
    instr_in_phase: u64,
    stream_pos: u64,
    arena: Addr,
    l1: Cache,
    l2: Cache,
    outstanding: u32,
    max_outstanding: u32,
    issued_draw_this_frame: bool,
    at_frame_end: bool,
    rng: Xorshift64,
    stats: CpuStats,
    out: Vec<MemRequest>,
    poll_counter: u32,
}

fn cpu_l1() -> CacheConfig {
    CacheConfig {
        name: "cpuL1".into(),
        size_bytes: 32 << 10,
        line_bytes: 128,
        ways: 4,
        hit_latency: 1,
        mshrs: 8,
        targets_per_mshr: 8,
    }
}

fn cpu_l2() -> CacheConfig {
    CacheConfig {
        name: "cpuL2".into(),
        size_bytes: 1 << 20,
        line_bytes: 128,
        ways: 8,
        hit_latency: 10,
        mshrs: 16,
        targets_per_mshr: 8,
    }
}

impl CpuCoreModel {
    /// Creates a core with a private memory arena allocated from `mem`.
    pub fn new(id: usize, workload: CpuWorkload, mem: &SharedMem, seed: u64) -> Self {
        // Arena sized for the largest footprint in the script.
        let max_fp = workload
            .phases
            .iter()
            .map(|p| match p {
                Phase::Work { footprint, .. } => *footprint,
                _ => 0,
            })
            .max()
            .unwrap_or(4096)
            .max(4096);
        let arena = mem.alloc(max_fp, 128);
        Self {
            id,
            workload,
            phase_idx: 0,
            instr_in_phase: 0,
            stream_pos: 0,
            arena,
            l1: Cache::new(cpu_l1()),
            l2: Cache::new(cpu_l2()),
            outstanding: 0,
            max_outstanding: 4,
            issued_draw_this_frame: false,
            at_frame_end: false,
            rng: Xorshift64::new(seed ^ 0xC0DE),
            stats: CpuStats::default(),
            out: Vec::new(),
            poll_counter: 0,
        }
    }

    /// Test-only hook for the snapshot conformance canary: resets this
    /// core's RNG to a fresh stream, simulating a restore path that
    /// forgot to carry the stream state over. Never called outside the
    /// conformance harness.
    #[doc(hidden)]
    pub(crate) fn debug_reset_rng(&mut self) {
        self.rng = Xorshift64::new(self.id as u64 ^ 0xC0DE);
    }

    /// Statistics so far.
    pub fn stats(&self) -> CpuStats {
        self.stats
    }

    /// True when the core reached the end of its per-frame script.
    pub fn at_frame_end(&self) -> bool {
        self.at_frame_end
    }

    /// Restarts the per-frame script (the SoC's frame barrier released).
    fn begin_frame(&mut self) {
        self.phase_idx = 0;
        self.instr_in_phase = 0;
        self.issued_draw_this_frame = false;
        self.at_frame_end = false;
        self.stats.frames += 1;
    }

    /// Takes the requests generated so far (standalone drivers; the SoC
    /// forwards them in place, see `CpuCluster::step`).
    pub fn drain_requests(&mut self) -> Vec<MemRequest> {
        std::mem::take(&mut self.out)
    }

    /// Delivers a memory response for one of this core's loads.
    pub fn on_response(&mut self) {
        // The specific line no longer matters: the in-order model just
        // counts outstanding misses.
        self.outstanding = self.outstanding.saturating_sub(1);
    }

    /// One access through the private hierarchy, decided in one call per
    /// level: an L1 miss looks up the L2 in place, and an L2 miss sends
    /// the line's DRAM request and installs it in both levels at once, so
    /// the L2 never holds an MSHR. A read that hits the L2 fills the L1 at
    /// once too; a write that hits the L2 leaves its L1 MSHR in flight for
    /// good (`a_write_that_hits_l2_keeps_its_l1_mshr`). An L1 stall drops
    /// the access: the slot retries as a new access.
    ///
    /// Ids are the core's request count before this access: the id the
    /// request gets if it leaves the private caches.
    fn issue_access(&mut self, addr: Addr, kind: AccessKind, now: Cycle) {
        let line = self.l1.line_addr(addr);
        let id = self.stats.mem_requests;
        let Self {
            id: core,
            l1,
            l2,
            stats,
            out,
            outstanding,
            ..
        } = self;
        l1.access_with(line, kind, id, || {
            let in_l2 = l2.access_with(line, kind, id, || {
                stats.mem_requests += 1;
                out.push(MemRequest {
                    id,
                    addr: line,
                    bytes: 128,
                    kind,
                    source: TrafficSource::Cpu(*core),
                    issued: now,
                });
                if kind == AccessKind::Read {
                    *outstanding += 1;
                }
                true
            });
            matches!(in_l2, Access::Miss { .. }) || kind == AccessKind::Read
        });
    }

    /// True while the core sits at its outstanding-miss limit: every cycle
    /// it executes is a stall until a response arrives. It takes
    /// precedence over every phase, `WaitGpu` and `IssueDraw` included.
    pub fn stalled(&self) -> bool {
        self.outstanding >= self.max_outstanding
    }

    /// True when the core's current phase is `WaitGpu`: a fence waiter,
    /// whose cycles read `gpu_frame_done`.
    fn in_wait_gpu(&self) -> bool {
        !self.at_frame_end
            && matches!(
                self.workload.phases.get(self.phase_idx),
                Some(Phase::WaitGpu)
            )
    }

    /// Cycles from the core's last executed cycle to its next fence poll,
    /// were it to wait on an unsatisfied fence (at least 1).
    fn until_poll(&self) -> Cycle {
        (POLL_INTERVAL - self.poll_counter) as Cycle
    }

    /// Books `n` cycles stalled at the outstanding-miss limit: what `n`
    /// budget-1 [`CpuCoreModel::run_batch`] calls on the stalled core do.
    fn book_stalls(&mut self, n: Cycle) {
        debug_assert!(self.stalled() && !self.at_frame_end);
        self.stats.stall_cycles += n;
    }

    /// Books `n` cycles of an unsatisfied fence wait that hold no poll:
    /// what `n` budget-1 [`CpuCoreModel::run_batch`] calls do.
    fn book_polls(&mut self, n: Cycle) {
        debug_assert!(self.in_wait_gpu() && n < self.until_poll());
        self.poll_counter += n as u32;
    }

    /// Advances the core by up to `budget` cycles in one call, executing
    /// cycles `now + 1 ..= now + consumed` and returning
    /// `(consumed, event)`. `gpu_frame_done` reports whether the GPU
    /// finished this frame's rendering (read by `WaitGpu` only).
    ///
    /// This is the core's one execution path: per-cycle clocking is a
    /// budget of 1 (`CpuCluster::step` with run-ahead off), and a batch of
    /// `n` cycles evolves the core (RNG draw sequence, cache state,
    /// statistics, script position, fence-poll counter) exactly as `n`
    /// budget-1 calls would — `Work` instructions just retire in a tight
    /// inner loop. A request leaves in the output buffer stamped with the
    /// cycle that issued it (`MemRequest::issued`); the caller forwards it
    /// once its clock reaches that cycle, so requests never end a batch.
    /// The batch stops early only where the core's next cycle may depend
    /// on something outside it, or where the SoC must act:
    ///
    /// * reaching the outstanding-miss limit (the next cycle is a stall
    ///   unless a response arrives first),
    /// * `IssueDraw` (the SoC starts the GPU at that cycle),
    /// * a phase transition (the next phase may read the fence),
    /// * the end-of-script cycle that raises `at_frame_end` (the SoC's
    ///   frame barrier reads the flag at that cycle).
    ///
    /// A core that is already stalled at entry burns the whole budget as
    /// `stall_cycles`: callers must end the batch before the cycle a
    /// response unstalls it. A core waiting on an unsatisfied fence
    /// replays the sparse poll loop analytically; callers must hold
    /// `gpu_frame_done` constant across the batch.
    pub fn run_batch(
        &mut self,
        now: Cycle,
        budget: Cycle,
        gpu_frame_done: bool,
    ) -> (Cycle, CpuEvent) {
        if budget == 0 {
            return (0, CpuEvent::None);
        }
        if self.at_frame_end {
            // Fully passive: every cycle of the window is a no-op.
            return (budget, CpuEvent::None);
        }
        if self.stalled() {
            self.stats.stall_cycles += budget;
            return (budget, CpuEvent::None);
        }
        let Some(phase) = self.workload.phases.get(self.phase_idx).copied() else {
            self.at_frame_end = true;
            return (1, CpuEvent::None);
        };
        match phase {
            Phase::Work {
                instrs,
                mem_ratio,
                footprint,
                sequential,
            } => {
                let (mem_hit, write_hit) =
                    (Xorshift64::threshold(mem_ratio), Xorshift64::threshold(0.3));
                let mut consumed: Cycle = 0;
                while consumed < budget {
                    consumed += 1;
                    self.stats.instrs += 1;
                    self.instr_in_phase += 1;
                    if self.rng.trial(mem_hit) {
                        let offset = if sequential {
                            self.stream_pos = (self.stream_pos + 64) % footprint;
                            self.stream_pos
                        } else {
                            self.rng.below(footprint.max(128))
                        };
                        let kind = if self.rng.trial(write_hit) {
                            AccessKind::Write
                        } else {
                            AccessKind::Read
                        };
                        self.issue_access(self.arena + (offset & !127), kind, now + consumed);
                    }
                    if self.instr_in_phase >= instrs {
                        self.phase_idx += 1;
                        self.instr_in_phase = 0;
                        return (consumed, CpuEvent::None);
                    }
                    if self.stalled() {
                        return (consumed, CpuEvent::None);
                    }
                }
                (budget, CpuEvent::None)
            }
            Phase::IssueDraw => {
                self.phase_idx += 1;
                if self.issued_draw_this_frame {
                    (1, CpuEvent::None)
                } else {
                    self.issued_draw_this_frame = true;
                    (1, CpuEvent::IssueDraw)
                }
            }
            Phase::WaitGpu => {
                if gpu_frame_done {
                    self.phase_idx += 1;
                    return (1, CpuEvent::None);
                }
                let mut consumed: Cycle = 0;
                loop {
                    let to_poll = (POLL_INTERVAL - self.poll_counter) as Cycle;
                    let left = budget - consumed;
                    if to_poll > left {
                        // The next poll lies beyond the window: bump the
                        // counter analytically.
                        self.poll_counter += left as u32;
                        return (budget, CpuEvent::None);
                    }
                    consumed += to_poll;
                    self.poll_counter = 0;
                    self.issue_access(self.arena, AccessKind::Read, now + consumed);
                    if self.stalled() {
                        return (consumed, CpuEvent::None);
                    }
                    if consumed == budget {
                        return (budget, CpuEvent::None);
                    }
                }
            }
        }
    }

    /// Walks the script position, streaming cursor, private caches,
    /// outstanding-miss count, RNG stream, fence-poll counter, statistics
    /// and any requests still waiting out memory-system backpressure. The
    /// workload script itself is configuration, which the restore target
    /// was built from.
    pub fn walk(&mut self, w: &mut impl Walk) -> Result<(), SnapError> {
        w.seq(&mut self.out, 30, |w, q| q.walk(w))?;
        w.usize(&mut self.phase_idx)?;
        w.check(
            self.phase_idx <= self.workload.phases.len(),
            "CPU phase index beyond workload script",
        )?;
        w.u64(&mut self.instr_in_phase)?;
        w.u64(&mut self.stream_pos)?;
        w.expect(self.arena, "CPU arena address mismatch")?;
        w.section(1, |w| self.l1.walk(w))?;
        w.section(2, |w| self.l2.walk(w))?;
        w.u32(&mut self.outstanding)?;
        w.bool(&mut self.issued_draw_this_frame)?;
        w.bool(&mut self.at_frame_end)?;
        self.rng.walk(w)?;
        w.u32(&mut self.poll_counter)?;
        let s = &mut self.stats;
        for n in [
            &mut s.instrs,
            &mut s.mem_requests,
            &mut s.stall_cycles,
            &mut s.frames,
        ] {
            w.u64(n)?;
        }
        Ok(())
    }
}

/// Forwards a source's output buffer to the memory system in issue order,
/// in place: every request issued by `now`, up to the first one the memory
/// system refuses. The refused request and everything behind it stay where
/// they are — dropping one would lose its response forever — and so does
/// every request a core that ran ahead of the clock issued after `now`.
/// Returns whether the memory system accepted anything.
pub(crate) fn forward_requests(
    reqs: &mut Vec<MemRequest>,
    memsys: &mut MemorySystem,
    now: Cycle,
) -> bool {
    let sent = reqs
        .iter()
        .position(|&req| req.issued > now || memsys.enqueue(req, now).is_err())
        .unwrap_or(reqs.len());
    reqs.drain(..sent);
    sent > 0
}

/// The SoC's CPU cores and the one mechanism by which they advance,
/// `CpuCluster::step`. Behind the `batch` gate (`SocConfig::cpu_batch`)
/// each core sleeps on its own wake; with the gate off every core executes
/// one cycle per step, the per-cycle reference clocking.
///
/// With the gate on, a core that is not at the frame barrier is, relative
/// to the SoC clock `now`, in one of three states, read off its own state:
///
/// * **running** — its phase is `Work`, `IssueDraw` or the end of its
///   script. A `Work` core's trajectory depends on the rest of the SoC
///   only through responses, and only once it reaches its outstanding-miss
///   limit; it counts responses as they are routed, so its view of
///   `outstanding` is never below the true count. `step` runs it ahead,
///   up to the frame's watchdog cycle, until its next interaction: the
///   limit, `IssueDraw` (parked in `pending` at its exact cycle), a
///   transition into `WaitGpu`, or the end of its script (the flag's cycle
///   recorded in `end_at`, because the frame barrier reads the clock's
///   view). Its requests wait in its output buffer, stamped with their
///   cycles, until the clock reaches them.
/// * **stalled** — at its limit. No call runs it: `on_response` books its
///   stall cycles in bulk at the step whose routed response unstalls it.
///   A core parked at its limit ahead of the clock continues from there at
///   that step. The memory system's pin covers every response, so a
///   stalled core adds nothing to the wake.
/// * **waiting** — in an unsatisfied `WaitGpu`. It reads the fence, which
///   flips at a cycle only the clock knows, so it never runs ahead of the
///   clock: `step` runs it at its next poll, or at the cycle after the
///   fence flips (the `flip` its caller passes; cycles up to the flip see
///   the fence open).
///
/// `settle` brings the stalled and waiting cores' bookkeeping to `now`
/// before anything reads it (a checkpoint, the frame barrier), exactly as
/// the per-cycle reference leaves it.
#[derive(Debug)]
pub(crate) struct CpuCluster {
    cores: Vec<CpuCoreModel>,
    batch: bool,
    /// Last cycle each core has executed.
    ran_until: Vec<Cycle>,
    /// Undelivered `IssueDraw` of each core that ran ahead to it, at its
    /// exact cycle.
    pending: Vec<Option<(Cycle, CpuEvent)>>,
    /// Cycle each core's frame-end flag flipped (`Cycle::MAX` = not yet).
    end_at: Vec<Cycle>,
    /// The frame's watchdog cycle: no core runs past it.
    cap: Cycle,
}

impl CpuCluster {
    /// Wraps `cores`; `batch` is the run-ahead gate.
    pub(crate) fn new(cores: Vec<CpuCoreModel>, batch: bool) -> Self {
        let n = cores.len();
        Self {
            cores,
            batch,
            ran_until: vec![0; n],
            pending: vec![None; n],
            end_at: vec![Cycle::MAX; n],
            cap: Cycle::MAX,
        }
    }

    /// The cores, in index order.
    pub(crate) fn cores(&self) -> &[CpuCoreModel] {
        &self.cores
    }

    /// Mutable access to the cores.
    pub(crate) fn cores_mut(&mut self) -> &mut [CpuCoreModel] {
        &mut self.cores
    }

    /// Releases the frame barrier at cycle `now`: every core restarts its
    /// script and is due at `now + 1`.
    pub(crate) fn begin_frame(&mut self, now: Cycle) {
        for c in &mut self.cores {
            c.begin_frame();
        }
        self.ran_until.fill(now);
        self.pending.fill(None);
        self.end_at.fill(Cycle::MAX);
    }

    /// Enters the frame loop: no core runs past `cap`.
    pub(crate) fn set_cap(&mut self, cap: Cycle) {
        self.cap = cap;
    }

    /// Delivers a read response to core `i` at cycle `now`. A core asleep
    /// at its limit was stalled in every cycle since the last it executed:
    /// those are booked here, and it executes `now` itself with the
    /// response counted.
    pub(crate) fn on_response(&mut self, i: usize, now: Cycle) {
        let Some(core) = self.cores.get_mut(i) else {
            return;
        };
        if self.batch && core.stalled() && !core.at_frame_end() {
            let r = self.ran_until[i];
            if r + 1 < now {
                core.book_stalls(now - 1 - r);
                self.ran_until[i] = now - 1;
            }
        }
        core.on_response();
    }

    /// Clock cycle `now`: executes what each core owes for it — with
    /// run-ahead off one budget-1 [`CpuCoreModel::run_batch`] per core,
    /// with it on whatever its wake calls for — delivers `IssueDraw`s parked
    /// at `now`, and forwards the requests issued by `now` to `memsys`.
    /// `flip` is the cycle the frame's fence flipped (`Cycle::MAX` while
    /// the GPU renders): later cycles see the GPU done.
    /// Returns [`CpuEvent::IssueDraw`] if a core submitted the frame's
    /// draws at this cycle, and whether `memsys` accepted a request.
    pub(crate) fn step(
        &mut self,
        now: Cycle,
        flip: Cycle,
        memsys: &mut MemorySystem,
    ) -> (CpuEvent, bool) {
        let (mut event, mut sent) = (CpuEvent::None, false);
        for i in 0..self.cores.len() {
            let ev = if self.batch {
                self.advance(i, now, flip)
            } else {
                self.tick(i, now, flip < now)
            };
            if ev == CpuEvent::IssueDraw {
                event = ev;
            }
            sent |= forward_requests(&mut self.cores[i].out, memsys, now);
        }
        (event, sent)
    }

    /// Takes core `i`'s interaction parked at `now`, if any.
    fn take_due(&mut self, i: usize, now: Cycle) -> Option<CpuEvent> {
        match self.pending[i] {
            Some((s, ev)) if s == now => {
                self.pending[i] = None;
                Some(ev)
            }
            _ => None,
        }
    }

    /// The per-cycle reference: core `i` executes cycle `now`, unless a
    /// restored checkpoint left it ahead of the clock.
    fn tick(&mut self, i: usize, now: Cycle, gpu_done: bool) -> CpuEvent {
        if let Some(ev) = self.take_due(i, now) {
            return ev;
        }
        if self.ran_until[i] >= now {
            return CpuEvent::None;
        }
        let core = &mut self.cores[i];
        let was_end = core.at_frame_end();
        let (_, ev) = core.run_batch(now - 1, 1, gpu_done);
        self.ran_until[i] = now;
        if !was_end && core.at_frame_end() {
            self.end_at[i] = now;
        }
        ev
    }

    /// Runs core `i` as far as its state allows at cycle `now` (run-ahead
    /// on): a running core to its next interaction, a waiting core through
    /// `now` once its wake is due, a stalled core not at all.
    fn advance(&mut self, i: usize, now: Cycle, flip: Cycle) -> CpuEvent {
        let due = self.take_due(i, now);
        loop {
            let core = &self.cores[i];
            if self.pending[i].is_some() || core.at_frame_end() || core.stalled() {
                break;
            }
            let from = self.ran_until[i];
            let budget = if core.in_wait_gpu() {
                if self.fence_wake(i, flip) > now {
                    break;
                }
                // Never across the flip in one call: the fence is constant
                // within a batch.
                if from < flip && flip < now {
                    flip - from
                } else {
                    now - from
                }
            } else if from < self.cap {
                self.cap - from
            } else {
                break;
            };
            self.run(i, budget, flip);
        }
        due.or_else(|| self.take_due(i, now))
            .unwrap_or(CpuEvent::None)
    }

    /// The one run-ahead call site: runs core `i` for up to `budget` cycles
    /// past `ran_until` and books what it showed.
    fn run(&mut self, i: usize, budget: Cycle, flip: Cycle) {
        let from = self.ran_until[i];
        let core = &mut self.cores[i];
        let (used, ev) = core.run_batch(from, budget, from >= flip);
        emerald_obs::prof::record_cpu_batch(used);
        let at = from + used;
        self.ran_until[i] = at;
        if ev != CpuEvent::None {
            self.pending[i] = Some((at, ev));
        }
        if core.at_frame_end() {
            self.end_at[i] = at;
        }
    }

    /// The cycle at which waiting core `i` must run next, given the fence
    /// flip `flip`: its next poll, or the first cycle it executes that sees
    /// the GPU done.
    fn fence_wake(&self, i: usize, flip: Cycle) -> Cycle {
        let r = self.ran_until[i];
        (r + self.cores[i].until_poll()).min(flip.saturating_add(1).max(r + 1))
    }

    /// The cycle the clock must visit next for the cores' sake: every
    /// parked interaction and pre-applied frame-end flip at its exact
    /// cycle, every output-buffer head whose channel has room (a full
    /// channel is the memory system's pin), and, per core, the cycle after
    /// the last one it executed (run-ahead off, or a running core) or its
    /// fence wake (a waiting core). A stalled core adds nothing.
    pub(crate) fn wake(&self, now: Cycle, flip: Cycle, memsys: &MemorySystem) -> Cycle {
        let mut wake = Cycle::MAX;
        for (i, c) in self.cores.iter().enumerate() {
            if let Some(head) = c.out.first() {
                if memsys.can_accept(head) {
                    wake = wake.min(head.issued.max(now + 1));
                }
            }
            if self.end_at[i] > now {
                wake = wake.min(self.end_at[i]);
            }
            wake = wake.min(match self.pending[i] {
                Some((s, _)) => s,
                None if c.at_frame_end() => Cycle::MAX,
                None if !self.batch => self.ran_until[i] + 1,
                None if c.stalled() => Cycle::MAX,
                None if c.in_wait_gpu() => self.fence_wake(i, flip),
                None => self.ran_until[i] + 1,
            });
        }
        wake
    }

    /// Brings every core the clock has passed to `now` (run-ahead on): a
    /// stalled core books its stall cycles, a waiting core its poll counter,
    /// and a core at the barrier just its `ran_until` — what the per-cycle
    /// reference leaves. Called before anything reads the cores.
    pub(crate) fn settle(&mut self, now: Cycle) {
        if !self.batch {
            return;
        }
        for (i, c) in self.cores.iter_mut().enumerate() {
            let r = self.ran_until[i];
            if r >= now {
                continue;
            }
            if c.at_frame_end() {
            } else if c.stalled() {
                c.book_stalls(now - r);
            } else {
                c.book_polls(now - r);
            }
            self.ran_until[i] = now;
        }
    }

    /// The wake oracle (run by `Soc::audit_pins`): after a step at `now`,
    /// with the fence's true flip cycle `flip`, every core the step did not
    /// run through `now` must owe nothing for the cycles it skipped — a
    /// running core is at or past `now`, a stalled core is at its limit, a
    /// waiting core's skipped cycles hold neither its poll nor the cycle
    /// after the flip — and no output buffer holds a request issued by
    /// `now` that the memory system would accept.
    pub(crate) fn audit(&self, now: Cycle, flip: Cycle, memsys: &MemorySystem) {
        for (i, c) in self.cores.iter().enumerate() {
            if let Some(head) = c.out.first() {
                assert!(
                    head.issued > now || !memsys.can_accept(head),
                    "CPU core {i} holds a request issued at {} that the memory system \
                     accepts, after cycle {now}",
                    head.issued
                );
            }
            if self.pending[i].is_some() || c.at_frame_end() || c.stalled() {
                continue;
            }
            let r = self.ran_until[i];
            if c.in_wait_gpu() {
                let wake = self.fence_wake(i, flip);
                assert!(
                    wake > now,
                    "CPU core {i} waits on the fence from cycle {r} and skipped its wake \
                     at {wake}, after cycle {now}"
                );
            } else {
                assert!(
                    r >= now,
                    "running CPU core {i} stopped at cycle {r}, after cycle {now}"
                );
            }
        }
    }

    /// True while a core holds a request issued by `now` at the head of
    /// its output buffer: the memory system refused it, and only a
    /// memory-system tick can make room (the rule the display and the GPU
    /// follow too).
    pub(crate) fn holds_refused(&self, now: Cycle) -> bool {
        self.cores
            .iter()
            .any(|c| c.out.first().is_some_and(|head| head.issued <= now))
    }

    /// The frame barrier as the clock sees it at `now`: every core's
    /// frame-end flag flipped at or before this cycle.
    pub(crate) fn all_done(&self, now: Cycle) -> bool {
        self.end_at.iter().all(|&t| t <= now)
    }

    /// Walks every core plus the run-ahead bookkeeping, so a mid-frame
    /// checkpoint resumes with cores exactly as far ahead of the clock as
    /// they were.
    pub(crate) fn walk(&mut self, w: &mut impl Walk) -> Result<(), SnapError> {
        let n = self.cores.len();
        w.expect(n, "CPU core count mismatch")?;
        for c in &mut self.cores {
            w.section(5, |w| c.walk(w))?;
        }
        w.seq(&mut self.ran_until, 8, |w, t| w.u64(t))?;
        w.seq(&mut self.pending, 1, |w, p| {
            w.opt(p, |w, (cycle, ev)| {
                w.u64(cycle)?;
                let mut draw = *ev == CpuEvent::IssueDraw;
                w.bool(&mut draw)?;
                *ev = [CpuEvent::None, CpuEvent::IssueDraw][draw as usize];
                Ok(())
            })
        })?;
        w.seq(&mut self.end_at, 8, |w, t| w.u64(t))?;
        w.check(
            self.ran_until.len() == n && self.pending.len() == n && self.end_at.len() == n,
            "CPU run-ahead state core count mismatch",
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> SharedMem {
        SharedMem::with_capacity(16 << 20)
    }

    #[test]
    fn driver_emits_issue_draw_once_per_frame() {
        let m = mem();
        let mut cpu = CpuCoreModel::new(0, CpuWorkload::driver(), &m, 1);
        let mut draws = 0;
        for now in 0..100_000 {
            if cpu.run_batch(now, 1, true).1 == CpuEvent::IssueDraw {
                draws += 1;
            }
            cpu.drain_requests();
            cpu.on_response(); // unblock instantly
            if cpu.at_frame_end() {
                break;
            }
        }
        assert_eq!(draws, 1);
        assert!(cpu.at_frame_end());
        cpu.begin_frame();
        assert!(!cpu.at_frame_end());
    }

    #[test]
    fn wait_gpu_blocks_until_done() {
        let m = mem();
        let mut cpu = CpuCoreModel::new(
            0,
            CpuWorkload {
                phases: vec![Phase::WaitGpu],
            },
            &m,
            2,
        );
        for now in 0..10_000 {
            cpu.run_batch(now, 1, false);
            cpu.drain_requests();
            cpu.on_response();
        }
        assert!(!cpu.at_frame_end(), "must wait for the GPU");
        for now in 10_000..10_010 {
            cpu.run_batch(now, 1, true);
        }
        assert!(cpu.at_frame_end());
    }

    #[test]
    fn streaming_worker_generates_memory_traffic() {
        let m = mem();
        let mut cpu = CpuCoreModel::new(1, CpuWorkload::streamer(), &m, 3);
        let mut reqs = 0;
        for now in 0..40_000 {
            cpu.run_batch(now, 1, false);
            let r = cpu.drain_requests();
            reqs += r.len();
            for _ in r {
                cpu.on_response();
            }
            if cpu.at_frame_end() {
                break;
            }
        }
        assert!(reqs > 50, "streamer produced only {reqs} requests");
        assert!(cpu.stats().mem_requests as usize == reqs);
    }

    #[test]
    fn compute_worker_is_light_on_memory() {
        let m = mem();
        let mut heavy = CpuCoreModel::new(1, CpuWorkload::streamer(), &m, 3);
        let mut light = CpuCoreModel::new(2, CpuWorkload::compute(), &m, 4);
        for now in 0..30_000 {
            for cpu in [&mut heavy, &mut light] {
                cpu.run_batch(now, 1, false);
                for _ in cpu.drain_requests() {
                    cpu.on_response();
                }
            }
        }
        assert!(
            heavy.stats().mem_requests > 4 * light.stats().mem_requests,
            "heavy={} light={}",
            heavy.stats().mem_requests,
            light.stats().mem_requests
        );
    }

    /// What one access did in [`issue_access_two_calls`], for the twin's
    /// coverage counts.
    #[derive(Default)]
    struct Seen {
        write_hits_l2: u32,
        dirty_l2_evictions: u32,
        l1_mshrs_full: u32,
    }

    /// The private hierarchy as it was before each level was decided in
    /// one call: an access and a fill per level, through the MSHRs.
    fn issue_access_two_calls(
        cpu: &mut CpuCoreModel,
        addr: Addr,
        kind: AccessKind,
        now: Cycle,
        seen: &mut Seen,
    ) {
        use emerald_mem::cache::StallReason;
        let line = cpu.l1.line_addr(addr);
        let id = cpu.stats.mem_requests;
        match cpu.l1.access(line, kind, id, now) {
            Access::Hit | Access::MergedMiss => {}
            Access::Stall(reason) => {
                seen.l1_mshrs_full += (reason == StallReason::MshrFull) as u32;
            }
            Access::Miss { .. } => match cpu.l2.access(line, kind, id, now) {
                Access::Hit | Access::MergedMiss | Access::Stall(_) => {
                    if kind == AccessKind::Read {
                        cpu.l1.fill(line);
                    } else {
                        seen.write_hits_l2 += 1;
                    }
                }
                Access::Miss { writeback } => {
                    seen.dirty_l2_evictions += writeback.is_some() as u32;
                    cpu.l2.fill(line);
                    cpu.l1.fill(line);
                    cpu.stats.mem_requests += 1;
                    cpu.out.push(MemRequest {
                        id,
                        addr: line,
                        bytes: 128,
                        kind,
                        source: TrafficSource::Cpu(cpu.id),
                        issued: now,
                    });
                    if kind == AccessKind::Read {
                        cpu.outstanding += 1;
                    }
                }
            },
        }
    }

    /// Everything an access through the hierarchy can change.
    fn hierarchy_state(
        cpu: &mut CpuCoreModel,
    ) -> (Vec<u8>, Vec<u8>, Vec<MemRequest>, u32, [u64; 4]) {
        let bytes = |c: &mut Cache| emerald_common::snap::encode(|w| c.walk(w));
        let s = cpu.stats;
        (
            bytes(&mut cpu.l1),
            bytes(&mut cpu.l2),
            cpu.out.clone(),
            cpu.outstanding,
            [s.instrs, s.mem_requests, s.stall_cycles, s.frames],
        )
    }

    /// Random `(addr, kind)` streams through tiny private caches, where
    /// writes hit the L2, dirty L2 lines are evicted and the L1's MSHR
    /// table fills up: `issue_access`, one call per level, and the
    /// two-call reference leave both caches' bytes, the output requests,
    /// `outstanding` and the statistics equal after every access.
    #[test]
    fn one_call_hierarchy_equals_the_two_call_reference() {
        let tiny = |name: &str, sets: usize, ways: usize, mshrs: usize| CacheConfig {
            name: name.into(),
            size_bytes: sets * ways * 128,
            line_bytes: 128,
            ways,
            hit_latency: 1,
            mshrs,
            targets_per_mshr: 2,
        };
        let mut seen = Seen::default();
        emerald_common::check::check("cpu_hierarchy_one_call", |rng| {
            let l1 = tiny(
                "l1",
                1 << rng.below(3),
                1 << rng.below(3),
                rng.range(1, 5) as usize,
            );
            let l2 = tiny(
                "l2",
                4 << rng.below(3),
                1 << rng.below(3),
                rng.range(1, 5) as usize,
            );
            // Two 64 KiB arenas per case.
            let m = SharedMem::with_capacity(1 << 20);
            let mut twins = [0, 1].map(|_| {
                let mut c = CpuCoreModel::new(0, CpuWorkload::compute(), &m, 1);
                c.l1 = Cache::new(l1.clone());
                c.l2 = Cache::new(l2.clone());
                c
            });
            let lines = rng.range(2, 64);
            let writes = rng.range(1, 8) as f64 / 10.0;
            for now in 0..rng.range(50, 500) {
                let addr = rng.below(lines) * 128 + rng.below(128);
                let kind = if rng.chance(writes) {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                let [one, two] = &mut twins;
                one.issue_access(addr, kind, now);
                issue_access_two_calls(two, addr, kind, now, &mut seen);
                assert_eq!(hierarchy_state(one), hierarchy_state(two), "access {now}");
            }
        });
        assert!(
            seen.write_hits_l2 > 0 && seen.dirty_l2_evictions > 0 && seen.l1_mshrs_full > 0,
            "writes hitting the L2 {}, dirty L2 evictions {}, L1 MSHR-full stalls {}",
            seen.write_hits_l2,
            seen.dirty_l2_evictions,
            seen.l1_mshrs_full
        );
    }

    /// Pins a known fault of the model (CHANGES.md, the `FOUND:` line on
    /// the CPU L1's leaked MSHRs): a write that misses the L1 and hits the
    /// L2 is never filled into the L1, so its MSHR and reserved way stay
    /// in flight for good, and eight such writes leave the L1 MSHR-full.
    /// Filling the L1 on those writes moves every SoC golden; the change
    /// that makes that fix, with a re-golden, flips this test on purpose.
    #[test]
    fn a_write_that_hits_l2_keeps_its_l1_mshr() {
        let m = mem();
        let mut cpu = CpuCoreModel::new(0, CpuWorkload::compute(), &m, 1);
        // 64 sets of 4 ways: five reads down one L1 set leave the first
        // line in the L2 only (the L2's 1 024 sets keep all five).
        let l1_set_stride = 64 * 128;
        for set in 0..8u64 {
            for k in 0..5u64 {
                cpu.issue_access(set * 128 + k * l1_set_stride, AccessKind::Read, 0);
            }
        }
        assert_eq!(cpu.stats.mem_requests, 40);
        for set in 0..8u64 {
            cpu.issue_access(set * 128, AccessKind::Write, 1);
            assert_eq!(cpu.l1.pending_lines(), set as usize + 1);
        }
        assert_eq!(cpu.l2.pending_lines(), 0);
        // The leaked MSHRs fill the L1's table: a line in neither cache
        // stalls in the L1 and never reaches the L2 or DRAM.
        let l2_reads = cpu.l2.stats().reads;
        cpu.issue_access(1 << 20, AccessKind::Read, 2);
        assert_eq!(cpu.l1.stats().stalls, 1);
        assert_eq!(cpu.l2.stats().reads, l2_reads);
        assert_eq!(cpu.stats.mem_requests, 40);
    }

    #[test]
    fn outstanding_misses_stall_the_core() {
        let m = mem();
        let mut cpu = CpuCoreModel::new(
            0,
            CpuWorkload {
                phases: vec![Phase::Work {
                    instrs: 100_000,
                    mem_ratio: 1.0,
                    footprint: 8 << 20,
                    sequential: false,
                }],
            },
            &m,
            5,
        );
        // Never respond: the core must stall after max_outstanding reads.
        for now in 0..10_000 {
            cpu.run_batch(now, 1, false);
            cpu.drain_requests();
        }
        assert!(cpu.stats().stall_cycles > 5_000);
        assert!(cpu.stats().instrs < 5_000);
    }
}

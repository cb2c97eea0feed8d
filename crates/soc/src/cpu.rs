//! Phase-scripted CPU core models with private cache hierarchies.
//!
//! The original runs Android on gem5's out-of-order ARM cores; here each
//! core executes a per-frame *phase script* that reproduces the traffic
//! envelope of the model-viewer app (Table 5/6): prepare bursts, draw
//! submission, fence waits and composition. Cores have private L1+L2
//! caches (Table 5) and a bounded number of outstanding misses.

use emerald_common::rng::Xorshift64;
use emerald_common::snap::{SnapError, SnapReader, SnapWriter};
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuEvent {
    /// Nothing notable.
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

    /// Ids are the core's request count before this access: the id the
    /// request gets if it leaves the private caches.
    fn issue_access(&mut self, addr: Addr, kind: AccessKind, now: Cycle) {
        let line = self.l1.line_addr(addr);
        let id = self.stats.mem_requests;
        match self.l1.access(line, kind, id, now) {
            Access::Hit => {}
            Access::MergedMiss => {}
            Access::Stall(_) => {} // drop: the slot retries as a new access
            Access::Miss { .. } => {
                // L1 miss (or writeback) → L2.
                match self.l2.access(line, kind, id, now) {
                    Access::Hit | Access::MergedMiss | Access::Stall(_) => {
                        if kind == AccessKind::Read {
                            // L2 hit: data returns quickly; modelled as a
                            // short non-blocking latency (no DRAM trip).
                            self.l1.fill(line);
                        }
                    }
                    Access::Miss { .. } => {
                        self.l2.fill(line); // fill on response abstraction
                        self.l1.fill(line);
                        self.stats.mem_requests += 1;
                        self.out.push(MemRequest {
                            id,
                            addr: line,
                            bytes: 128,
                            kind,
                            source: TrafficSource::Cpu(self.id),
                            issued: now,
                        });
                        if kind == AccessKind::Read {
                            self.outstanding += 1;
                        }
                    }
                }
            }
        }
    }

    /// True while requests wait in the output buffer (issued but not yet
    /// accepted by the memory system). Once the cycle that issued them has
    /// passed, the head was refused: its channel's queue was full, and it
    /// stays full until that channel picks.
    fn has_pending_out(&self) -> bool {
        !self.out.is_empty()
    }

    /// True when the core's current phase is `WaitGpu`. The SoC's batch
    /// scheduler must not let an *unsatisfied* fence wait pre-burn poll
    /// cycles past the point where the frame's draw submission (and the
    /// GPU completion that follows) could flip `gpu_frame_done`: the
    /// pre-executed polls would have read a stale fence.
    fn in_wait_gpu(&self) -> bool {
        !self.at_frame_end
            && matches!(
                self.workload.phases.get(self.phase_idx),
                Some(Phase::WaitGpu)
            )
    }

    /// True while this core could still submit the frame's draws: its
    /// script has an `IssueDraw` at or after the current phase and it has
    /// not fired this frame. The batch scheduler runs such cores first —
    /// their progress is a safe lower bound on the submission cycle, and
    /// therefore on how far a fence-waiting core may pre-burn polls.
    fn may_issue_draw(&self) -> bool {
        !self.at_frame_end
            && !self.issued_draw_this_frame
            && self
                .workload
                .phases
                .get(self.phase_idx..)
                .is_some_and(|rest| rest.iter().any(|p| matches!(p, Phase::IssueDraw)))
    }

    /// Advances the core by up to `budget` cycles in one call, executing
    /// cycles `now + 1 ..= now + consumed` and returning
    /// `(consumed, event)`. `gpu_frame_done` reports whether the GPU
    /// finished this frame's rendering (for `WaitGpu`).
    ///
    /// This is the core's one execution path: per-cycle clocking is a
    /// budget of 1 (`CpuCluster::step`), and a window of `n` cycles
    /// evolves the core (RNG draw sequence, cache state, statistics,
    /// script position, fence-poll counter) exactly as `n` budget-1 calls
    /// would — `Work` instructions just retire in a tight inner loop
    /// instead of one SoC loop iteration each. The batch stops early at
    /// the first *observable interaction* — anything the SoC must act on
    /// at its exact cycle:
    ///
    /// * a memory request entering an empty output buffer (delivery cycle
    ///   matters to the memory system),
    /// * reaching the outstanding-miss limit (the next cycle is a stall,
    ///   which the next call burns in bulk),
    /// * `IssueDraw` (the SoC starts the GPU at that cycle),
    /// * a phase transition (the next phase may interact differently),
    /// * the end-of-script cycle that raises `at_frame_end` (the SoC's
    ///   frame barrier reads the flag at that cycle).
    ///
    /// A core that is already stalled at entry burns the whole budget as
    /// `stall_cycles` analytically — within a caller-chosen window no
    /// response can arrive, so no cycle in it could unstall the core. A
    /// core waiting on an unsatisfied fence replays the sparse poll loop,
    /// stopping only when a poll misses the private caches.
    ///
    /// Requests already in the output buffer at entry are ones the memory
    /// system refused: their head stays refused until its channel picks,
    /// so a request issued behind them cannot be delivered any sooner, and
    /// the batch runs on past it. Callers must end the window before that
    /// pick and must hold `gpu_frame_done` constant across it
    /// (`CpuCluster::run_ahead` is the one caller that does).
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
        if self.outstanding >= self.max_outstanding {
            // Stalled for the whole window: responses only arrive at the
            // caller's wake cycles, never inside the batch.
            self.stats.stall_cycles += budget;
            return (budget, CpuEvent::None);
        }
        let Some(phase) = self.workload.phases.get(self.phase_idx).copied() else {
            self.at_frame_end = true;
            return (1, CpuEvent::None);
        };
        // A request must stop the batch only if nothing refused is ahead
        // of it in the output buffer.
        let behind_refused = !self.out.is_empty();
        let interacts =
            |c: &Self| (!behind_refused && !c.out.is_empty()) || c.outstanding >= c.max_outstanding;
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
                        // Phase transition; a request issued this same
                        // cycle stays in `out` — the caller checks
                        // `has_pending_out` regardless of the stop reason.
                        self.phase_idx += 1;
                        self.instr_in_phase = 0;
                        return (consumed, CpuEvent::None);
                    }
                    if interacts(self) {
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
                    if interacts(self) {
                        return (consumed, CpuEvent::None);
                    }
                    if consumed == budget {
                        return (budget, CpuEvent::None);
                    }
                }
            }
        }
    }
}

impl emerald_common::snap::Snapshot for CpuCoreModel {
    /// Serializes the script position, streaming cursor, private caches,
    /// outstanding-miss count, RNG stream, fence-poll counter, statistics
    /// and any requests still waiting out memory-system backpressure. The
    /// workload script itself is configuration and is reconstructed by
    /// the restore target.
    fn snapshot(&self, w: &mut SnapWriter) {
        w.put_seq(self.out.iter(), |w, q| q.snap_write(w));
        w.put_usize(self.phase_idx);
        w.put_u64(self.instr_in_phase);
        w.put_u64(self.stream_pos);
        w.put_u64(self.arena);
        w.section(1, |w| self.l1.snapshot(w));
        w.section(2, |w| self.l2.snapshot(w));
        w.put_u32(self.outstanding);
        w.put_bool(self.issued_draw_this_frame);
        w.put_bool(self.at_frame_end);
        w.put_u64(self.rng.state());
        w.put_u32(self.poll_counter);
        w.put_u64(self.stats.instrs);
        w.put_u64(self.stats.mem_requests);
        w.put_u64(self.stats.stall_cycles);
        w.put_u64(self.stats.frames);
    }
}

impl emerald_common::snap::Restore for CpuCoreModel {
    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.out = r.get_seq(30, MemRequest::snap_read)?;
        self.phase_idx = r.get_usize()?;
        if self.phase_idx > self.workload.phases.len() {
            return Err(SnapError::BadValue {
                what: "CPU phase index beyond workload script",
            });
        }
        self.instr_in_phase = r.get_u64()?;
        self.stream_pos = r.get_u64()?;
        let arena = r.get_u64()?;
        if arena != self.arena {
            return Err(SnapError::BadValue {
                what: "CPU arena address mismatch",
            });
        }
        r.section(1, |r| self.l1.restore(r))?;
        r.section(2, |r| self.l2.restore(r))?;
        self.outstanding = r.get_u32()?;
        self.issued_draw_this_frame = r.get_bool()?;
        self.at_frame_end = r.get_bool()?;
        self.rng = Xorshift64::from_state(r.get_u64()?);
        self.poll_counter = r.get_u32()?;
        self.stats = CpuStats {
            instrs: r.get_u64()?,
            mem_requests: r.get_u64()?,
            stall_cycles: r.get_u64()?,
            frames: r.get_u64()?,
        };
        Ok(())
    }
}

/// Forwards a source's output buffer to the memory system in issue order,
/// in place. On backpressure the rejected request and everything behind it
/// stay where they are — dropping one would lose its response forever.
/// Returns whether the memory system accepted anything.
pub(crate) fn forward_requests(
    reqs: &mut Vec<MemRequest>,
    memsys: &mut MemorySystem,
    now: Cycle,
) -> bool {
    if reqs.is_empty() {
        return false;
    }
    let sent = reqs
        .iter()
        .position(|&req| memsys.enqueue(req, now).is_err())
        .unwrap_or(reqs.len());
    reqs.drain(..sent);
    sent > 0
}

/// The SoC's CPU cores and the one mechanism by which they advance: a
/// per-cycle `CpuCluster::step`, plus — behind the `batch` gate
/// (`SocConfig::cpu_batch`) — `CpuCluster::run_ahead`, which executes
/// cores through a window the SoC proved quiet and parks whatever they
/// produce until the clock catches up.
///
/// Relative to the SoC clock `now` every core is in exactly one state:
///
/// * **due** — last executed cycle is `now`; `step(now + 1)` runs the
///   next one.
/// * **ahead** — already executed through `ran_until > now`; `step` is a
///   no-op for it until the clock passes `ran_until`.
/// * **parked** — ran ahead to an observable interaction (`IssueDraw`, a
///   memory request) at cycle `s`; `pending` holds it and `step(s)`
///   delivers it. Requests a parked core issued *at* `s` stay in its
///   output buffer until then — draining them sooner would leak them into
///   the memory system early (the first bug lockstep caught).
/// * **done** — frame-end flag raised; `end_at` records the cycle it
///   flipped, because a core that ran ahead raises the flag before the
///   clock gets there and the frame barrier must read the clock's view.
///
/// With the gate off no core ever leaves due/done and the cluster is the
/// per-cycle reference clocking.
#[derive(Debug)]
pub(crate) struct CpuCluster {
    cores: Vec<CpuCoreModel>,
    batch: bool,
    /// Last cycle each core has executed.
    ran_until: Vec<Cycle>,
    /// Undelivered interaction of each parked core, at its exact cycle.
    pending: Vec<Option<(Cycle, CpuEvent)>>,
    /// Cycle each core's frame-end flag flipped (`Cycle::MAX` = not yet).
    end_at: Vec<Cycle>,
}

impl CpuCluster {
    /// Wraps `cores`; `batch` is the run-ahead gate.
    ///
    /// # Panics
    ///
    /// Panics on more than 64 cores (`run_ahead` keeps a bit per core).
    pub(crate) fn new(cores: Vec<CpuCoreModel>, batch: bool) -> Self {
        let n = cores.len();
        assert!(n <= 64, "CpuCluster supports at most 64 cores");
        Self {
            cores,
            batch,
            ran_until: vec![0; n],
            pending: vec![None; n],
            end_at: vec![Cycle::MAX; n],
        }
    }

    /// The cores, in index order.
    pub(crate) fn cores(&self) -> &[CpuCoreModel] {
        &self.cores
    }

    /// Mutable access to the cores (response delivery).
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

    /// Clock cycle `now`: delivers interactions parked at `now`, executes
    /// cycle `now` on every due core (a budget-1
    /// [`CpuCoreModel::run_batch`]), and forwards the cores' requests to
    /// `memsys`.
    /// Returns [`CpuEvent::IssueDraw`] if a core submitted the frame's
    /// draws at this cycle, and whether `memsys` accepted a request.
    pub(crate) fn step(
        &mut self,
        now: Cycle,
        gpu_done: bool,
        memsys: &mut MemorySystem,
    ) -> (CpuEvent, bool) {
        let (mut event, mut sent) = (CpuEvent::None, false);
        for (i, core) in self.cores.iter_mut().enumerate() {
            let ev = match self.pending[i] {
                Some((s, ev)) if s == now => {
                    self.pending[i] = None;
                    ev
                }
                _ if self.ran_until[i] >= now => CpuEvent::None,
                _ => {
                    let was_end = core.at_frame_end();
                    let (_, ev) = core.run_batch(now - 1, 1, gpu_done);
                    self.ran_until[i] = now;
                    if !was_end && core.at_frame_end() {
                        self.end_at[i] = now;
                    }
                    ev
                }
            };
            if ev == CpuEvent::IssueDraw {
                event = ev;
            }
            // Still parked at a future cycle: hold its requests.
            if self.pending[i].is_some() {
                continue;
            }
            sent |= forward_requests(&mut core.out, memsys, now);
        }
        (event, sent)
    }

    /// Whether a quiet window past `now` is worth searching for: some core
    /// is due and may run ahead through it, or — when the clock may jump
    /// (`skip`) — no core is due. A due core holding a request the memory
    /// system refused runs ahead like any other: the request is retried
    /// at every step, and the window ends before its channel can pick.
    pub(crate) fn wants_window(&self, now: Cycle, skip: bool) -> bool {
        let due = (0..self.cores.len()).any(|i| {
            self.pending[i].is_none() && !self.cores[i].at_frame_end() && self.ran_until[i] <= now
        });
        if due {
            self.batch
        } else {
            skip
        }
    }

    /// Runs every unparked core through the quiet window `(now, w)` —
    /// cycles in which, per their `next_event` contracts, no non-CPU
    /// component can act, so `gpu_done` is frozen and no response can
    /// arrive. A core stops at its first observable interaction (parked at
    /// that exact cycle) or at frame end. No-op with the gate off.
    ///
    /// `fence_open` says the frame's draws are still undelivered and the
    /// GPU has not finished: `gpu_done` can then flip *inside* the window
    /// (a parked `IssueDraw` submits, the GPU completes), so an
    /// unsatisfied fence wait must not pre-burn polls past the earliest
    /// possible submission cycle — the second bug lockstep caught, with
    /// unbounded non-DASH windows. Cores that may still submit therefore
    /// run first, with no fence pre-burn at all; their progress bounds
    /// everyone else's: a submitter parked on `IssueDraw` at `s` submits at
    /// `s` (polls are safe through `s - 1`), one parked on anything else
    /// at `p` cannot submit before `p + 1`, and one that ran to `r` without
    /// reaching `IssueDraw` cannot submit before `r + 1`.
    pub(crate) fn run_ahead(
        &mut self,
        now: Cycle,
        w: Cycle,
        fence_open: bool,
        gpu_done: bool,
        memsys: &MemorySystem,
    ) {
        if !self.batch {
            return;
        }
        let quiet_end = w - 1;
        // Bit `i`: core `i` may still submit the frame's draws. A core
        // parked on its `IssueDraw` has fired it already, but the clock
        // has not delivered it: it bounds the fence until then.
        let submitters = (0..self.cores.len())
            .filter(|&i| {
                self.cores[i].may_issue_draw()
                    || matches!(self.pending[i], Some((_, CpuEvent::IssueDraw)))
            })
            .fold(0u64, |mask, i| mask | 1 << i);
        let is_submitter = |i: &usize| submitters >> i & 1 != 0;
        let mut fence_end = if fence_open { now } else { quiet_end };
        for i in (0..self.cores.len()).filter(is_submitter) {
            self.run_core_ahead(i, now, quiet_end, fence_end, gpu_done, memsys);
        }
        fence_end = quiet_end;
        if fence_open {
            for i in (0..self.cores.len()).filter(is_submitter) {
                if !self.cores[i].at_frame_end() {
                    fence_end = fence_end.min(match self.pending[i] {
                        Some((s, CpuEvent::IssueDraw)) => s.saturating_sub(1),
                        Some((p, _)) => p,
                        None => self.ran_until[i],
                    });
                }
            }
        }
        for i in (0..self.cores.len()).filter(|i| !is_submitter(i)) {
            self.run_core_ahead(i, now, quiet_end, fence_end, gpu_done, memsys);
        }
    }

    /// Batches core `i` up to `quiet_end`, or only to `fence_end` while it
    /// sits in a fence wait.
    ///
    /// A request refused until its channel picks is not an interaction:
    /// the window ends before that pick, so the core runs on past it and
    /// everything it issues queues behind it. That covers what `step` left
    /// in the output buffer, and a request issued into a channel whose
    /// queue is full already — enqueues only fill it.
    fn run_core_ahead(
        &mut self,
        i: usize,
        now: Cycle,
        quiet_end: Cycle,
        fence_end: Cycle,
        gpu_done: bool,
        memsys: &MemorySystem,
    ) {
        let core = &mut self.cores[i];
        // A core at the barrier has nothing left to run; leaving its
        // `ran_until` to `step` keeps the bookkeeping (and with it the
        // checkpoint bytes) the same whether or not the clock jumps.
        if self.pending[i].is_some() || core.at_frame_end() {
            return;
        }
        let mut behind_refused = core.has_pending_out();
        let mut base = self.ran_until[i].max(now);
        loop {
            let stop = if core.in_wait_gpu() {
                fence_end
            } else {
                quiet_end
            };
            if base >= stop {
                break;
            }
            let was_end = core.at_frame_end();
            let (used, ev) = core.run_batch(base, stop - base, gpu_done);
            base += used;
            emerald_obs::prof::record_cpu_batch(used);
            if !behind_refused && core.has_pending_out() {
                behind_refused = !memsys.can_accept(&core.out[0]);
            }
            if ev != CpuEvent::None || (!behind_refused && core.has_pending_out()) {
                self.pending[i] = Some((base, ev));
                break;
            }
            if !was_end && core.at_frame_end() {
                self.end_at[i] = base;
                break;
            }
        }
        self.ran_until[i] = base;
    }

    /// The cycle the clock must visit next, given the non-CPU wake `w`:
    /// every parked interaction and every pre-applied frame-end flip at
    /// its exact cycle, and the cycle after the last one a still-running
    /// core executed (a due core pins `now + 1`). Everything before the
    /// minimum is dead time.
    pub(crate) fn wake(&self, now: Cycle, w: Cycle) -> Cycle {
        let mut wake = w;
        for (i, c) in self.cores.iter().enumerate() {
            match self.pending[i] {
                Some((s, _)) => wake = wake.min(s),
                None if !c.at_frame_end() => wake = wake.min(self.ran_until[i] + 1),
                None => {}
            }
            if self.end_at[i] > now {
                wake = wake.min(self.end_at[i]);
            }
        }
        wake
    }

    /// The frame barrier as the clock sees it at `now`: every core's
    /// frame-end flag flipped at or before this cycle.
    pub(crate) fn all_done(&self, now: Cycle) -> bool {
        self.end_at.iter().all(|&t| t <= now)
    }
}

impl emerald_common::snap::Snapshot for CpuCluster {
    /// Serializes every core plus the run-ahead bookkeeping, so a
    /// mid-frame checkpoint resumes with cores exactly as far ahead of the
    /// clock as they were.
    fn snapshot(&self, w: &mut SnapWriter) {
        w.put_usize(self.cores.len());
        for c in &self.cores {
            w.section(5, |w| c.snapshot(w));
        }
        w.put_seq(self.ran_until.iter(), |w, &t| w.put_u64(t));
        w.put_seq(self.pending.iter(), |w, p| {
            w.put_opt(p, |w, &(cycle, ev)| {
                w.put_u64(cycle);
                w.put_bool(ev == CpuEvent::IssueDraw);
            });
        });
        w.put_seq(self.end_at.iter(), |w, &t| w.put_u64(t));
    }
}

impl emerald_common::snap::Restore for CpuCluster {
    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n = self.cores.len();
        if r.get_usize()? != n {
            return Err(SnapError::BadValue {
                what: "CPU core count mismatch",
            });
        }
        for c in &mut self.cores {
            r.section(5, |r| c.restore(r))?;
        }
        self.ran_until = r.get_seq(8, |r| r.get_u64())?;
        self.pending = r.get_seq(1, |r| {
            r.get_opt(|r| {
                let cycle = r.get_u64()?;
                let ev = if r.get_bool()? {
                    CpuEvent::IssueDraw
                } else {
                    CpuEvent::None
                };
                Ok((cycle, ev))
            })
        })?;
        self.end_at = r.get_seq(8, |r| r.get_u64())?;
        if self.ran_until.len() != n || self.pending.len() != n || self.end_at.len() != n {
            return Err(SnapError::BadValue {
                what: "CPU run-ahead state core count mismatch",
            });
        }
        Ok(())
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

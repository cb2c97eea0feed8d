//! Conformance for the batched CPU execution contract
//! (`emerald_soc::cpu::CpuCoreModel::run_batch`).
//!
//! The one unsafe direction of batching is *overrunning an interaction*:
//! a batch scheduler that runs a core past the cycle where an external
//! event was due (a memory response that would unstall it, the GPU
//! finishing the frame a fence waits on) delivers that event late,
//! silently shifting simulated time while every individual run still
//! looks healthy. A request is not such an event: it leaves stamped with
//! its issue cycle, and a response only matters to a core at its
//! outstanding-miss limit. The oracle here drives twin cores — one run a
//! cycle per call (budget 1, the per-cycle clocking), one batched in
//! windows of up to a cap that run past its requests — against the same
//! fixed-latency memory and the same fence, and diffs everything they
//! show: the request stream (ids, addresses, kinds and *issue cycles*)
//! and draw submissions, then the cores' snapshot bytes (script position,
//! caches, RNG stream, fence-poll counter, statistics). Two canaries
//! re-run the batched twin with an injected bug the oracle must catch and
//! the shrinker must minimize: a stalled core's windows extended
//! `overrun` cycles past the response delivery that unstalls it, and a
//! twin blind to the limit, running on past it as if it were no
//! interaction (`blind_limit`).

use emerald_common::rng::Xorshift64;
use emerald_common::snap::encode;
use emerald_common::types::{AccessKind, Cycle};
use emerald_mem::image::SharedMem;
use emerald_mem::req::MemRequest;
use emerald_soc::cpu::{CpuCoreModel, CpuEvent, CpuWorkload, Phase};

/// A run-ahead scenario: one core runs `workload`'s script once against a
/// fixed-latency memory (every read completes `latency` cycles after
/// issue), while the GPU finishes the frame at cycle `fence` (`WaitGpu`
/// polls until then). `overrun` and `blind_limit` are the injected bugs:
/// cycles a stalled core's window is extended *past* the response delivery
/// that unstalls it, and running a window on past the outstanding-miss
/// limit. With neither (`overrun == 0`, `!blind_limit`) the batched twin is
/// the honest scheduler and must match the per-cycle reference bit for bit.
#[derive(Debug, Clone)]
pub struct BatchScenario {
    /// The core's script.
    pub workload: CpuWorkload,
    /// The core's RNG seed.
    pub seed: u64,
    /// Fixed read latency in cycles (at least 2).
    pub latency: Cycle,
    /// Longest window the batched twin runs in one call (1 is per-cycle,
    /// `Cycle::MAX` unbounded).
    pub cap: Cycle,
    /// First cycle that sees the GPU's frame done.
    pub fence: Cycle,
    /// Injected overrun in cycles (0 = honest).
    pub overrun: Cycle,
    /// Injected bug: the limit ends no window (`false` = honest).
    pub blind_limit: bool,
}

impl BatchScenario {
    /// A random honest scenario on `workload` with every `Work` phase cut
    /// to `1 / work_div` of its instructions (at least 64): a random seed,
    /// latency, window cap (1, 7, 64, 1 000 or unbounded) and fence cycle
    /// (below 20 000, so fence waits both pass at once and poll).
    pub fn random(rng: &mut Xorshift64, mut workload: CpuWorkload, work_div: u64) -> Self {
        for p in &mut workload.phases {
            if let Phase::Work { instrs, .. } = p {
                *instrs = (*instrs / work_div).max(64);
            }
        }
        Self {
            workload,
            seed: rng.next_u64(),
            latency: rng.range(2, 200),
            cap: [1, 7, 64, 1_000, Cycle::MAX][rng.below(5) as usize],
            fence: rng.below(20_000),
            overrun: 0,
            blind_limit: false,
        }
    }

    /// One-line summary for failure reports.
    pub fn describe(&self) -> String {
        format!(
            "{} phases, latency {}, windows ≤ {}, fence at {}, stalled windows overrun by {}{}",
            self.workload.phases.len(),
            self.latency,
            self.cap,
            self.fence,
            self.overrun,
            if self.blind_limit {
                ", windows blind to the limit"
            } else {
                ""
            }
        )
    }
}

/// A detected contract violation: the batched twin's observable trace
/// diverged from the per-cycle reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchViolation {
    /// What diverged (first differing observation, or the final state).
    pub detail: String,
}

/// One observation: a request leaving the core, or a draw submission at
/// a cycle.
#[derive(Debug, PartialEq)]
enum Seen {
    Req(MemRequest),
    Draw(Cycle),
}

/// What a twin showed: its observations in order and its final snapshot
/// bytes.
type Run = (Vec<Seen>, Vec<u8>);

const HORIZON: Cycle = 2_000_000;

/// Builds `sc`'s core and drives it with `step`, which executes cycles
/// `now + 1 ..` and returns how many, until the script ends: responses
/// due by the next executed cycle are applied first, and at the end every
/// response due by the last executed cycle.
fn run(sc: &BatchScenario, mut step: impl FnMut(&mut Twin) -> Cycle) -> Run {
    let mem = SharedMem::with_capacity(32 << 20);
    let mut t = Twin {
        core: CpuCoreModel::new(0, sc.workload.clone(), &mem, sc.seed),
        inflight: Vec::new(),
        seen: Vec::new(),
        now: 0,
    };
    while !t.core.at_frame_end() && t.now < HORIZON {
        t.deliver(t.now + 1);
        t.now += step(&mut t);
    }
    t.deliver(t.now);
    let bytes = encode(|w| t.core.walk(w));
    (t.seen, bytes)
}

/// One twin mid-run.
struct Twin {
    core: CpuCoreModel,
    /// Delivery cycles of reads in flight.
    inflight: Vec<Cycle>,
    seen: Vec<Seen>,
    /// Last executed cycle.
    now: Cycle,
}

impl Twin {
    /// Applies every response due by cycle `by`.
    fn deliver(&mut self, by: Cycle) {
        let due = self.inflight.iter().filter(|&&c| c <= by).count();
        self.inflight.retain(|&c| c > by);
        (0..due).for_each(|_| self.core.on_response());
    }

    /// Runs one `run_batch` call of up to `budget` cycles from `from`
    /// and records what it showed.
    fn batch(&mut self, sc: &BatchScenario, from: Cycle, budget: Cycle) -> Cycle {
        let done = from + 1 >= sc.fence;
        let (used, ev) = self.core.run_batch(from, budget, done);
        assert!(used >= 1, "run_batch made no progress at {from}");
        if ev == CpuEvent::IssueDraw {
            self.seen.push(Seen::Draw(from + used));
        }
        for r in self.core.drain_requests() {
            if r.kind == AccessKind::Read {
                self.inflight.push(r.issued + sc.latency);
            }
            self.seen.push(Seen::Req(r));
        }
        used
    }
}

/// The per-cycle reference: one cycle per call.
fn run_reference(sc: &BatchScenario) -> Run {
    run(sc, |t| t.batch(sc, t.now, 1))
}

/// The batched twin. A window runs at most `cap` cycles and, before the
/// fence flips, ends the cycle before it does. The core runs past its
/// requests; it stops at its outstanding-miss limit, and continues only
/// once every response due by then has been delivered (`run` delivers them
/// before the next window). A core stalled at entry stalls through the
/// cycle before the next delivery (a delivery happens *before* the tick of
/// its cycle, so that cycle's execution can depend on it) — except that
/// the injected bugs extend that window `sc.overrun` cycles past the
/// delivery, or run on past the limit as if it were no interaction.
fn run_batched(sc: &BatchScenario) -> Run {
    run(sc, |t| {
        let start = t.now;
        let mut stop = start.saturating_add(sc.cap).min(HORIZON);
        if start + 1 < sc.fence {
            stop = stop.min(sc.fence - 1);
        }
        if t.core.stalled() {
            if let Some(&c) = t.inflight.iter().min() {
                stop = stop.min(c - 1 + sc.overrun);
            }
        }
        let mut b = start;
        while b < stop && !t.core.at_frame_end() {
            b += t.batch(sc, b, stop - b);
            if t.core.stalled() && !sc.blind_limit {
                break;
            }
        }
        (b - start).max(1)
    })
}

/// Diffs the batched twin against the per-cycle reference and reports the
/// first divergence.
pub fn batch_oracle(sc: &BatchScenario) -> Result<(), BatchViolation> {
    let (want, want_state) = run_reference(sc);
    let (got, got_state) = run_batched(sc);
    let differ = |detail| Err(BatchViolation { detail });
    if let Some((i, (a, b))) = want.iter().zip(&got).enumerate().find(|(_, (a, b))| a != b) {
        return differ(format!("observation {i}: reference {a:?} vs batched {b:?}"));
    }
    if want.len() != got.len() {
        return differ(format!("{} vs {} observations", want.len(), got.len()));
    }
    if want_state != got_state {
        return differ("core snapshot bytes diverged".to_string());
    }
    Ok(())
}

/// Shrink candidates for a failing [`BatchScenario`]: halve every `Work`
/// phase, the latency, the fence or the overrun, one at a time. The
/// minimizer keeps only still-failing candidates, so the overrun never
/// shrinks to the honest 0, and `blind_limit` is never cleared.
pub fn shrink_batch_candidates(sc: &BatchScenario) -> Vec<BatchScenario> {
    let mut out = Vec::new();
    let mut halved = sc.clone();
    for p in &mut halved.workload.phases {
        if let Phase::Work { instrs, .. } = p {
            *instrs = (*instrs / 2).max(256);
        }
    }
    if halved.workload != sc.workload {
        out.push(halved);
    }
    if sc.latency > 2 {
        out.push(BatchScenario {
            latency: (sc.latency / 2).max(2),
            ..sc.clone()
        });
    }
    if sc.fence > 0 {
        out.push(BatchScenario {
            fence: sc.fence / 2,
            ..sc.clone()
        });
    }
    if sc.overrun > 1 {
        out.push(BatchScenario {
            overrun: sc.overrun / 2,
            ..sc.clone()
        });
    }
    out
}

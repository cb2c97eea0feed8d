//! Conformance for the batched CPU execution contract
//! (`emerald_soc::cpu::CpuCoreModel::run_batch`).
//!
//! The one unsafe direction of batching is *overrunning an interaction*:
//! a batch scheduler that runs a core past the cycle where an external
//! event was due (here: a memory response that would unstall it) delivers
//! that event late, silently shifting simulated time while every
//! individual run still looks healthy. The oracle here drives twin cores
//! — one run a cycle per call (budget 1, the per-cycle clocking), one
//! batched — against the same fixed-latency memory and diffs the full
//! request stream (addresses, kinds and *issue cycles*) plus
//! retired/stall statistics. The canary re-runs the batched twin with its
//! windows artificially extended `overrun` cycles past each response
//! delivery — an injected overrun bug — which the oracle must catch and
//! the shrinker must minimize.

use emerald_common::types::{AccessKind, Cycle};
use emerald_mem::image::SharedMem;
use emerald_soc::cpu::{CpuCoreModel, CpuWorkload, Phase};

/// A batch-boundary scenario: one core runs a single `Work` phase against
/// a fixed-latency memory (every read completes `latency` cycles after
/// issue). `overrun` is the injected bug: cycles the batched twin's
/// windows are extended *past* each response-delivery cycle before the
/// response is applied. `overrun == 0` is the honest scheduler and must
/// match the per-cycle reference bit for bit.
#[derive(Debug, Clone)]
pub struct BatchScenario {
    /// Instruction slots in the `Work` phase.
    pub instrs: u64,
    /// Percent of slots that access memory (kept high so the
    /// outstanding-miss limit actually stalls the core).
    pub mem_ratio_pct: u32,
    /// Footprint in KiB (kept larger than the private L2 so misses keep
    /// reaching memory).
    pub footprint_kb: u64,
    /// Fixed read latency in cycles (≥ 2 so a delivery cycle is never
    /// inside the window that issued it).
    pub latency: Cycle,
    /// Injected overrun in cycles (0 = honest).
    pub overrun: Cycle,
}

impl BatchScenario {
    /// One-line summary for failure reports.
    pub fn describe(&self) -> String {
        format!(
            "{} instrs, {}% mem, {} KiB, latency {}, windows overrun by {}",
            self.instrs, self.mem_ratio_pct, self.footprint_kb, self.latency, self.overrun
        )
    }

    fn workload(&self) -> CpuWorkload {
        CpuWorkload {
            phases: vec![Phase::Work {
                instrs: self.instrs,
                mem_ratio: self.mem_ratio_pct as f64 / 100.0,
                footprint: (self.footprint_kb << 10).max(128),
                sequential: false,
            }],
        }
    }
}

/// A detected contract violation: the batched twin's observable trace
/// diverged from the per-cycle reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchViolation {
    /// What diverged (first differing request, or a statistic).
    pub detail: String,
}

/// One observable memory request: address, kind, issue cycle.
type Req = (u64, AccessKind, Cycle);

const HORIZON: Cycle = 2_000_000;

/// Runs the per-cycle reference twin: deliver due responses, run one
/// cycle, drain.
fn run_reference(sc: &BatchScenario) -> (Vec<Req>, u64, u64, u64) {
    let mem = SharedMem::with_capacity(32 << 20);
    let mut core = CpuCoreModel::new(0, sc.workload(), &mem, 0xBA7C);
    let mut inflight: Vec<Cycle> = Vec::new();
    let mut trace = Vec::new();
    let mut now: Cycle = 0;
    while !core.at_frame_end() && now < HORIZON {
        now += 1;
        let due = inflight.iter().filter(|&&c| c <= now).count();
        inflight.retain(|&c| c > now);
        for _ in 0..due {
            core.on_response();
        }
        core.run_batch(now - 1, 1, false);
        for r in core.drain_requests() {
            if r.kind == AccessKind::Read {
                inflight.push(r.issued + sc.latency);
            }
            trace.push((r.addr, r.kind, r.issued));
        }
    }
    let s = core.stats();
    (trace, s.instrs, s.mem_requests, s.stall_cycles)
}

/// Runs the batched twin. Windows end one cycle before the next response
/// delivery (a delivery happens *before* the tick of its cycle, so that
/// cycle's execution can depend on it) — except the injected bug extends
/// every window `sc.overrun` cycles past that boundary.
fn run_batched(sc: &BatchScenario) -> (Vec<Req>, u64, u64, u64) {
    let mem = SharedMem::with_capacity(32 << 20);
    let mut core = CpuCoreModel::new(0, sc.workload(), &mem, 0xBA7C);
    let mut inflight: Vec<Cycle> = Vec::new();
    let mut trace = Vec::new();
    let mut now: Cycle = 0;
    while !core.at_frame_end() && now < HORIZON {
        // Apply every response due before the next executed cycle.
        let due = inflight.iter().filter(|&&c| c <= now + 1).count();
        inflight.retain(|&c| c > now + 1);
        for _ in 0..due {
            core.on_response();
        }
        // The honest window ends just before the earliest remaining
        // delivery; the canary pushes `overrun` cycles past it.
        let next_stop = |inflight: &[Cycle]| -> Cycle {
            inflight
                .iter()
                .copied()
                .min()
                .map(|c| c - 1 + sc.overrun)
                .unwrap_or(HORIZON)
                .min(HORIZON)
        };
        let mut stop = next_stop(&inflight);
        let mut b = now;
        while b < stop && !core.at_frame_end() {
            let (used, _ev) = core.run_batch(b, stop - b, false);
            assert!(used >= 1, "run_batch made no progress at {b}");
            b += used;
            for r in core.drain_requests() {
                if r.kind == AccessKind::Read {
                    inflight.push(r.issued + sc.latency);
                }
                trace.push((r.addr, r.kind, r.issued));
            }
            // A request issued inside the window creates a new delivery
            // boundary; the honest window contracts to it (its completion
            // is strictly ahead of `b` because latency ≥ 2).
            stop = stop.min(next_stop(&inflight));
        }
        now = b.max(now + 1);
    }
    let s = core.stats();
    (trace, s.instrs, s.mem_requests, s.stall_cycles)
}

/// Diffs the batched twin against the per-cycle reference and reports the
/// first divergence.
pub fn batch_oracle(sc: &BatchScenario) -> Result<(), BatchViolation> {
    let (t_ref, i_ref, m_ref, s_ref) = run_reference(sc);
    let (t_bat, i_bat, m_bat, s_bat) = run_batched(sc);
    for (idx, (a, b)) in t_ref.iter().zip(t_bat.iter()).enumerate() {
        if a != b {
            return Err(BatchViolation {
                detail: format!("request {idx} diverged: reference {a:?} vs batched {b:?}"),
            });
        }
    }
    if t_ref.len() != t_bat.len() {
        return Err(BatchViolation {
            detail: format!(
                "request count diverged: reference {} vs batched {}",
                t_ref.len(),
                t_bat.len()
            ),
        });
    }
    for (name, a, b) in [
        ("instrs", i_ref, i_bat),
        ("mem_requests", m_ref, m_bat),
        ("stall_cycles", s_ref, s_bat),
    ] {
        if a != b {
            return Err(BatchViolation {
                detail: format!("{name} diverged: reference {a} vs batched {b}"),
            });
        }
    }
    Ok(())
}

/// Shrink candidates for a failing [`BatchScenario`]: halve each axis,
/// one at a time. The minimizer keeps only still-failing candidates, so
/// the overrun never shrinks to the honest 0.
pub fn shrink_batch_candidates(sc: &BatchScenario) -> Vec<BatchScenario> {
    let mut out = Vec::new();
    if sc.instrs > 256 {
        out.push(BatchScenario {
            instrs: (sc.instrs / 2).max(256),
            ..sc.clone()
        });
    }
    if sc.footprint_kb > 1024 {
        out.push(BatchScenario {
            footprint_kb: (sc.footprint_kb / 2).max(1024),
            ..sc.clone()
        });
    }
    if sc.latency > 2 {
        out.push(BatchScenario {
            latency: (sc.latency / 2).max(2),
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

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> BatchScenario {
        BatchScenario {
            instrs: 4_000,
            mem_ratio_pct: 100,
            footprint_kb: 4 << 10,
            latency: 60,
            overrun: 0,
        }
    }

    #[test]
    fn honest_windows_pass_the_oracle() {
        for latency in [2, 20, 97] {
            batch_oracle(&BatchScenario { latency, ..base() })
                .expect("honest batch windows must conform");
        }
    }

    #[test]
    fn overrun_windows_are_violations() {
        for overrun in [1, 8] {
            let v = batch_oracle(&BatchScenario { overrun, ..base() })
                .expect_err("overrun past a delivery must be caught");
            assert!(!v.detail.is_empty());
        }
    }
}

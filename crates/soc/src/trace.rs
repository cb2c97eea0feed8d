//! Trace-driven memory simulation — the GemDroid-style methodology the
//! paper argues *against* (§5.2.3).
//!
//! A trace is recorded from one execution-driven run (every request with
//! its arrival cycle) and replayed open-loop into a different memory
//! configuration: requests are injected at their recorded times regardless
//! of how the new memory system responds. This removes exactly what the
//! paper says traces lose — inter-IP dependencies and feedback (a slower
//! memory system cannot slow down the *generation* of future requests) —
//! so conclusions drawn from replay understate configuration effects. The
//! `emerald_figures` program quantifies that gap (§5.2.3).

use emerald_common::event::{next_wake, NextEvent as _};
use emerald_common::types::Cycle;
use emerald_mem::req::MemRequest;
use emerald_mem::system::{MemorySystem, MemorySystemConfig, SourceClass};
use std::collections::{BTreeMap, VecDeque};

/// A recorded memory trace: `(arrival cycle, request)` in arrival order.
pub type MemTrace = Vec<(Cycle, MemRequest)>;

/// Results of replaying a trace.
#[derive(Debug, Clone)]
pub struct ReplayResult {
    /// Cycle the last request of each source class completed.
    pub last_completion: BTreeMap<SourceClass, Cycle>,
    /// Mean read latency per source class (cycles).
    pub avg_read_latency: BTreeMap<SourceClass, f64>,
    /// DRAM row-buffer hit rate.
    pub row_hit_rate: f64,
    /// Total cycles until the system drained.
    pub total_cycles: Cycle,
}

impl ReplayResult {
    /// The trace-driven "GPU time" proxy: the completion time of the last
    /// GPU request (what a trace-based study would report as the GPU's
    /// memory-bound execution time).
    pub fn gpu_span(&self) -> Cycle {
        self.last_completion
            .get(&SourceClass::Gpu)
            .copied()
            .unwrap_or(0)
    }
}

/// Replays `trace` into a fresh memory system built from `cfg`, open-loop.
///
/// Requests are injected at their recorded arrival cycles (delayed only by
/// queue backpressure, as a real trace injector would be). No response
/// feedback reaches the injector — the defining property of trace-driven
/// simulation.
///
/// # Panics
///
/// Panics if the replay fails to drain within a generous budget
/// (`1000 × trace length + 10⁶` cycles).
pub fn replay_trace(trace: &MemTrace, cfg: MemorySystemConfig) -> ReplayResult {
    let mut mem = MemorySystem::new(cfg);
    let mut idx = 0usize;
    // Requests waiting for queue space, oldest first, by the channel that
    // serves them: a channel that refuses its oldest has no room for the
    // ones behind it either, so each cycle offers until the first refusal.
    let mut backlog: Vec<VecDeque<MemRequest>> = vec![VecDeque::new(); mem.num_channels()];
    let drained = |backlog: &[VecDeque<MemRequest>]| backlog.iter().all(VecDeque::is_empty);
    let mut last_completion: BTreeMap<SourceClass, Cycle> = BTreeMap::new();
    let mut read_classes: std::collections::BTreeSet<SourceClass> = Default::default();
    let mut now: Cycle = 0;
    let budget = trace.len() as Cycle * 1000 + 1_000_000;
    // Normalize arrival times to start at 0.
    let t0 = trace.first().map(|(t, _)| *t).unwrap_or(0);

    while idx < trace.len() || !drained(&backlog) || !mem.is_idle() {
        // Inject due requests (open loop).
        while idx < trace.len() && trace[idx].0 - t0 <= now {
            let mut req = trace[idx].1;
            req.issued = now;
            idx += 1;
            // Straight in while no request waits ahead of it; behind a
            // backlog it queues up on its channel.
            if !(drained(&backlog) && mem.enqueue(req, now).is_ok()) {
                backlog[mem.channel_of(&req)].push_back(req);
            }
        }
        for waiting in &mut backlog {
            while let Some(&req) = waiting.front() {
                if mem.enqueue(req, now).is_err() {
                    break;
                }
                waiting.pop_front();
            }
        }

        mem.tick(now);
        for resp in mem.drain_finished(now) {
            let class = SourceClass::of(resp.source);
            last_completion.insert(class, resp.finished);
            if resp.kind == emerald_common::types::AccessKind::Read {
                read_classes.insert(class);
            }
        }
        now += 1;
        assert!(now < budget, "trace replay failed to drain");
        // With nothing waiting to be retried, the cycles up to the next
        // arrival or memory event are no-ops: jump them. Never past the
        // drain point — the loop's exit cycle is `total_cycles`.
        if drained(&backlog) && (idx < trace.len() || !mem.is_idle()) {
            let arrival = trace.get(idx).map(|(t, _)| t - t0);
            now = next_wake(now - 1, budget, [arrival, mem.next_event(now - 1)]);
        }
    }

    // Mean read latency comes from the channel stats (authoritative; the
    // per-class split is not tracked at DRAM, so each class reports the
    // system-wide mean).
    let stats = mem.stats();
    let avg = stats.avg_read_latency();
    let avg_read_latency = read_classes.iter().map(|&k| (k, avg)).collect();
    ReplayResult {
        last_completion,
        avg_read_latency,
        row_hit_rate: stats.row_hits.value(),
        total_cycles: now,
    }
}

/// Splits a trace, keeping only requests from the given source class
/// (lets fig. 11 replay the GPU's traffic alone).
pub fn filter_trace(trace: &MemTrace, class: SourceClass) -> MemTrace {
    trace
        .iter()
        .filter(|(_, r)| SourceClass::of(r.source) == class)
        .copied()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use emerald_common::types::AccessKind;
    use emerald_mem::dram::DramConfig;

    fn synthetic_trace(n: u64, stride: u64) -> MemTrace {
        (0..n)
            .map(|i| {
                (
                    i * 4,
                    MemRequest {
                        id: i,
                        addr: i * stride,
                        bytes: 128,
                        kind: AccessKind::Read,
                        source: if i % 3 == 0 {
                            emerald_common::types::TrafficSource::Cpu(0)
                        } else {
                            emerald_common::types::TrafficSource::Gpu
                        },
                        issued: 0,
                    },
                )
            })
            .collect()
    }

    /// The per-cycle loop `replay_trace` used to be: every cycle ticked,
    /// the whole backlog rebuilt each time. Kept as the reference the
    /// event-driven loop must agree with exactly.
    fn replay_per_cycle(trace: &MemTrace, cfg: MemorySystemConfig) -> ReplayResult {
        let mut mem = MemorySystem::new(cfg);
        let mut idx = 0usize;
        let mut pending: Vec<MemRequest> = Vec::new();
        let mut last_completion: BTreeMap<SourceClass, Cycle> = BTreeMap::new();
        let mut read_classes: std::collections::BTreeSet<SourceClass> = Default::default();
        let mut now: Cycle = 0;
        let budget = trace.len() as Cycle * 1000 + 1_000_000;
        // Normalize arrival times to start at 0.
        let t0 = trace.first().map(|(t, _)| *t).unwrap_or(0);

        while idx < trace.len() || !pending.is_empty() || !mem.is_idle() {
            // Inject due requests (open loop).
            while idx < trace.len() && trace[idx].0 - t0 <= now {
                let mut req = trace[idx].1;
                req.issued = now;
                pending.push(req);
                idx += 1;
            }
            let mut still_pending = Vec::new();
            for req in pending.drain(..) {
                if let Err(back) = mem.enqueue(req, now) {
                    still_pending.push(back);
                }
            }
            pending = still_pending;

            mem.tick(now);
            for resp in mem.drain_finished(now) {
                let class = SourceClass::of(resp.source);
                last_completion.insert(class, resp.finished);
                if resp.kind == emerald_common::types::AccessKind::Read {
                    read_classes.insert(class);
                }
            }
            now += 1;
            assert!(now < budget, "trace replay failed to drain");
        }

        // Mean read latency comes from the channel stats (authoritative; the
        // per-class split is not tracked at DRAM, so each class reports the
        // system-wide mean).
        let stats = mem.stats();
        let avg = stats.avg_read_latency();
        let avg_read_latency = read_classes.iter().map(|&k| (k, avg)).collect();
        ReplayResult {
            last_completion,
            avg_read_latency,
            row_hit_rate: stats.row_hits.value(),
            total_cycles: now,
        }
    }

    /// Bursts (same-cycle arrivals that overflow a channel queue and sit
    /// in the backlog), steady streams and long idle gaps, from all three
    /// source classes, reads and writes.
    fn gappy_trace(rng: &mut emerald_common::rng::Xorshift64) -> MemTrace {
        use emerald_common::types::TrafficSource;
        let mut trace = MemTrace::new();
        let mut t = rng.below(1_000);
        for _ in 0..rng.range(1, 7) {
            let (len, step) = match rng.below(3) {
                0 => (rng.range(40, 260), 0),
                1 => (rng.range(1, 40), rng.range(1, 12)),
                _ => (rng.range(1, 4), 0),
            };
            for _ in 0..len {
                let id = trace.len() as u64;
                trace.push((
                    t,
                    MemRequest {
                        id,
                        addr: rng.below(1 << 14) * 128,
                        bytes: 128,
                        kind: if rng.chance(0.7) {
                            AccessKind::Read
                        } else {
                            AccessKind::Write
                        },
                        source: match rng.below(3) {
                            0 => TrafficSource::Cpu(rng.below(2) as usize),
                            1 => TrafficSource::Gpu,
                            _ => TrafficSource::Display,
                        },
                        issued: 0,
                    },
                ));
                t += step;
            }
            t += rng.range(1, 30_000);
        }
        trace
    }

    #[test]
    fn event_driven_replay_equals_per_cycle_replay() {
        use crate::experiment::MemCfgKind;
        emerald_common::check::check("replay_jump_equals_per_cycle", |rng| {
            let trace = gappy_trace(rng);
            for kind in [MemCfgKind::Bas, MemCfgKind::Dcb, MemCfgKind::Hmc] {
                let cfg = kind.build(DramConfig::lpddr3_1333());
                let want = replay_per_cycle(&trace, cfg.clone());
                let got = replay_trace(&trace, cfg);
                // Debug text: exact for every field, f64s included.
                assert_eq!(format!("{got:?}"), format!("{want:?}"), "{}", kind.label());
            }
        });
    }

    #[test]
    fn empty_trace_replays_to_nothing() {
        let r = replay_trace(
            &MemTrace::new(),
            MemorySystemConfig::baseline(2, DramConfig::lpddr3_1333()),
        );
        assert_eq!(r.total_cycles, 0);
        assert!(r.last_completion.is_empty());
    }

    #[test]
    fn replay_drains_and_reports() {
        let trace = synthetic_trace(64, 4096);
        let r = replay_trace(
            &trace,
            MemorySystemConfig::baseline(2, DramConfig::lpddr3_1333()),
        );
        assert!(r.total_cycles > 0);
        assert!(r.gpu_span() > 0);
        assert!(r.row_hit_rate >= 0.0 && r.row_hit_rate <= 1.0);
        assert!(r.last_completion.contains_key(&SourceClass::Cpu));
    }

    #[test]
    fn slower_memory_stretches_replay() {
        let trace = synthetic_trace(64, 4096);
        let fast = replay_trace(
            &trace,
            MemorySystemConfig::baseline(2, DramConfig::lpddr3_1333()),
        );
        let slow = replay_trace(
            &trace,
            MemorySystemConfig::baseline(2, DramConfig::low_bandwidth()),
        );
        assert!(slow.gpu_span() > fast.gpu_span());
    }

    #[test]
    fn filter_keeps_only_the_class() {
        let trace = synthetic_trace(30, 4096);
        let gpu = filter_trace(&trace, SourceClass::Gpu);
        assert!(!gpu.is_empty());
        assert!(gpu.len() < trace.len());
        assert!(gpu
            .iter()
            .all(|(_, r)| SourceClass::of(r.source) == SourceClass::Gpu));
    }
}

//! The banked GPU L2 cache (Fig. 4 ③: L2 + atomic operations unit behind
//! the GPU interconnect).
//!
//! Each bank serves one access per cycle. Misses and dirty writebacks are
//! staged toward external memory by the owning [`Gpu`](crate::gpu::Gpu);
//! fills notify the L1s that were waiting via `(core, surface)` tokens
//! packed into the MSHR target ids.

use crate::core::L1Miss;
use emerald_common::snap::{SnapError, Walk};
use emerald_common::types::{AccessKind, Addr, Cycle};
use emerald_isa::exec::Surface;
use emerald_mem::cache::{Access, Cache, CacheConfig, CacheStats};
use std::collections::VecDeque;

/// Identifies an L1 waiting on an L2 fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct L1Target {
    /// Global core index.
    pub core: usize,
    /// Which of the core's L1s is waiting.
    pub surface: Surface,
}

fn surface_code(s: Surface) -> u64 {
    match s {
        Surface::Data => 0,
        Surface::Texture => 1,
        Surface::Depth => 2,
        Surface::ConstVertex => 3,
        Surface::Shared => unreachable!("shared memory never reaches L2"),
    }
}

fn surface_from(code: u64) -> Surface {
    match code {
        0 => Surface::Data,
        1 => Surface::Texture,
        2 => Surface::Depth,
        _ => Surface::ConstVertex,
    }
}

fn pack(t: L1Target) -> u64 {
    ((t.core as u64) << 2) | surface_code(t.surface)
}

fn unpack(id: u64) -> L1Target {
    L1Target {
        core: (id >> 2) as usize,
        surface: surface_from(id & 0b11),
    }
}

/// Output of one bank-cycle.
#[derive(Debug, Default)]
pub(crate) struct L2Output {
    /// Fills to deliver to L1s (after interconnect latency).
    pub to_cores: Vec<(L1Target, Addr)>,
    /// Line requests for external memory: `(line, kind)`. Reads are fills,
    /// writes are writebacks.
    pub to_mem: Vec<(Addr, AccessKind)>,
}

#[derive(Debug)]
struct Bank {
    cache: Cache,
    queue: VecDeque<L1Miss>,
}

/// The banked shared L2.
#[derive(Debug)]
pub struct L2 {
    banks: Vec<Bank>,
    line_bytes: u64,
}

impl L2 {
    /// Builds `n_banks` banks, splitting `cfg.size_bytes` between them.
    ///
    /// # Panics
    ///
    /// Panics if the size does not divide evenly into valid banks.
    pub(crate) fn new(cfg: &CacheConfig, n_banks: usize) -> Self {
        let mut bank_cfg = cfg.clone();
        bank_cfg.size_bytes = cfg.size_bytes / n_banks;
        let banks = (0..n_banks)
            .map(|i| {
                let mut c = bank_cfg.clone();
                c.name = format!("{}.bank{}", cfg.name, i);
                Bank {
                    cache: Cache::new(c),
                    queue: VecDeque::new(),
                }
            })
            .collect();
        Self {
            banks,
            line_bytes: cfg.line_bytes as u64,
        }
    }

    fn bank_of(&self, line: Addr) -> usize {
        ((line / self.line_bytes) as usize) % self.banks.len()
    }

    /// Queues an incoming L1 miss/write at its bank.
    pub(crate) fn enqueue(&mut self, miss: L1Miss) {
        let b = self.bank_of(miss.line);
        self.banks[b].queue.push_back(miss);
    }

    /// Total queued accesses (diagnostics).
    pub(crate) fn queued(&self) -> usize {
        self.banks.iter().map(|b| b.queue.len()).sum()
    }

    /// Runs one cycle: each bank services at most one access.
    pub(crate) fn cycle(&mut self, now: Cycle) -> L2Output {
        let mut out = L2Output::default();
        for bank in &mut self.banks {
            let Some(m) = bank.queue.front().copied() else {
                continue;
            };
            let id = pack(L1Target {
                core: m.core,
                surface: m.surface,
            });
            match bank.cache.access(m.line, m.kind, id, now) {
                Access::Hit => {
                    bank.queue.pop_front();
                    if m.kind == AccessKind::Read {
                        out.to_cores.push((
                            L1Target {
                                core: m.core,
                                surface: m.surface,
                            },
                            m.line,
                        ));
                    }
                }
                Access::Miss { writeback } => {
                    bank.queue.pop_front();
                    out.to_mem.push((m.line, AccessKind::Read));
                    if let Some(wb) = writeback {
                        out.to_mem.push((wb, AccessKind::Write));
                    }
                }
                Access::MergedMiss => {
                    bank.queue.pop_front();
                }
                Access::Stall(_) => {
                    // Bank blocked; retry next cycle.
                }
            }
        }
        out
    }

    /// Completes a DRAM fill for `line`; yields the L1s to notify.
    pub(crate) fn fill(&mut self, line: Addr) -> impl Iterator<Item = (L1Target, Addr)> + '_ {
        let b = self.bank_of(line);
        let waiting = self.banks[b].cache.fill(line);
        waiting.iter().map(move |&id| (unpack(id), line))
    }

    /// True when some bank's next access is not its cache's memoised
    /// stall, so [`L2::cycle`] would do more than count a retry.
    pub(crate) fn has_ready_head(&self) -> bool {
        self.banks.iter().any(|b| {
            b.queue
                .front()
                .is_some_and(|m| !b.cache.is_stalled_on(m.line, m.kind))
        })
    }

    /// Books `delta` cycles in which no bank had a ready head: each
    /// blocked bank retried its memoised stall every cycle.
    pub(crate) fn skip(&mut self, delta: Cycle) {
        for b in &mut self.banks {
            if let Some(m) = b.queue.front() {
                b.cache.book_stalls(m.line, m.kind, delta);
            }
        }
    }

    /// Aggregated statistics across banks.
    pub fn stats(&self) -> CacheStats {
        let mut agg = CacheStats::default();
        for b in &self.banks {
            let s = b.cache.stats();
            agg.hits.merge(&s.hits);
            agg.reads += s.reads;
            agg.writes += s.writes;
            agg.fills += s.fills;
            agg.writebacks += s.writebacks;
            agg.stalls += s.stalls;
        }
        agg
    }

    /// Resets every bank's statistics.
    pub(crate) fn reset_stats(&mut self) {
        for b in &mut self.banks {
            b.cache.reset_stats();
        }
    }

    /// Walks every bank's cache (contents, MSHRs, stats) and its input
    /// queue.
    pub(crate) fn walk(&mut self, w: &mut impl Walk) -> Result<(), SnapError> {
        w.expect(self.banks.len(), "L2 bank count mismatch")?;
        for b in &mut self.banks {
            w.section(1, |w| b.cache.walk(w))?;
            w.seq(&mut b.queue, 11, |w, m| m.walk(w))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;

    fn l2() -> L2 {
        L2::new(&GpuConfig::tiny().l2, 2)
    }

    fn miss(core: usize, surface: Surface, line: Addr, kind: AccessKind) -> L1Miss {
        L1Miss {
            core,
            surface,
            line,
            kind,
        }
    }

    #[test]
    fn pack_unpack_roundtrip() {
        for core in [0usize, 3, 17] {
            for s in [
                Surface::Data,
                Surface::Texture,
                Surface::Depth,
                Surface::ConstVertex,
            ] {
                let t = L1Target { core, surface: s };
                assert_eq!(unpack(pack(t)), t);
            }
        }
    }

    #[test]
    fn miss_goes_to_mem_then_fill_notifies_l1() {
        let mut l2 = l2();
        l2.enqueue(miss(1, Surface::Texture, 0x1000, AccessKind::Read));
        let out = l2.cycle(0);
        assert_eq!(out.to_mem, vec![(0x1000, AccessKind::Read)]);
        assert!(out.to_cores.is_empty());
        let fills: Vec<_> = l2.fill(0x1000).collect();
        assert_eq!(fills.len(), 1);
        assert_eq!(fills[0].0.core, 1);
        assert_eq!(fills[0].0.surface, Surface::Texture);
    }

    #[test]
    fn second_access_hits() {
        let mut l2 = l2();
        l2.enqueue(miss(0, Surface::Data, 0x2000, AccessKind::Read));
        l2.cycle(0);
        l2.fill(0x2000).count();
        l2.enqueue(miss(2, Surface::Data, 0x2000, AccessKind::Read));
        let out = l2.cycle(1);
        assert!(out.to_mem.is_empty());
        assert_eq!(out.to_cores.len(), 1);
        assert_eq!(out.to_cores[0].0.core, 2);
    }

    #[test]
    fn cross_core_merge_notifies_both() {
        let mut l2 = l2();
        l2.enqueue(miss(0, Surface::Data, 0x3000, AccessKind::Read));
        l2.enqueue(miss(1, Surface::Data, 0x3000, AccessKind::Read));
        let out = l2.cycle(0);
        // One fill request despite two requesters (merged at the bank).
        assert_eq!(out.to_mem.len(), 1);
        let out2 = l2.cycle(1);
        assert!(out2.to_mem.is_empty());
        let cores: Vec<usize> = l2.fill(0x3000).map(|(t, _)| t.core).collect();
        assert_eq!(cores, vec![0, 1]);
    }

    #[test]
    fn banks_interleave_by_line() {
        let l2 = l2();
        assert_ne!(l2.bank_of(0), l2.bank_of(128));
        assert_eq!(l2.bank_of(0), l2.bank_of(256));
    }

    #[test]
    fn parallel_banks_service_same_cycle() {
        let mut l2 = l2();
        l2.enqueue(miss(0, Surface::Data, 0, AccessKind::Read));
        l2.enqueue(miss(0, Surface::Data, 128, AccessKind::Read));
        let out = l2.cycle(0);
        assert_eq!(out.to_mem.len(), 2, "both banks issue in one cycle");
    }

    #[test]
    fn writes_hit_dirty_then_writeback_on_eviction() {
        let mut l2 = l2();
        l2.enqueue(miss(0, Surface::Data, 0x100, AccessKind::Write));
        let out = l2.cycle(0);
        assert_eq!(out.to_mem, vec![(0x100, AccessKind::Read)]); // allocate
        l2.fill(0x100).count();
        // Re-write hits.
        l2.enqueue(miss(0, Surface::Data, 0x100, AccessKind::Write));
        let out = l2.cycle(1);
        assert!(out.to_mem.is_empty());
        assert!(out.to_cores.is_empty(), "writes produce no core fills");
    }
}

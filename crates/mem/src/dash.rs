//! The DASH deadline-aware memory scheduler (Usui et al., TACO 2016), as
//! re-evaluated by Emerald's case study I.
//!
//! DASH layers four priority classes on top of FR-FCFS:
//!
//! 1. urgent IPs (behind on their deadline),
//! 2. memory **non-intensive** CPU threads,
//! 3. non-urgent IPs *or* memory-intensive CPU threads — chosen
//!    probabilistically with a probability `P` re-evaluated every
//!    *switching unit* to balance service between the two groups,
//! 4. the group not chosen in (3).
//!
//! CPU threads are clustered into intensive/non-intensive every *quantum*
//! using TCM's threshold rule. The paper highlights an ambiguity (§5.1.1):
//! should the clustering bandwidth include non-CPU traffic? Both variants
//! are implemented — [`Clustering::CpuOnly`] is the paper's **DCB**
//! configuration, [`Clustering::System`] is **DTB** — and the experiments
//! show they misbehave in different ways, reproducing Figures 9 and 12–14.

use crate::req::MemRequest;
use crate::sched::DramScheduler;
use emerald_common::rng::Xorshift64;
use emerald_common::snap::{SnapError, Walk};
use emerald_common::types::{Cycle, TrafficSource};
use std::collections::BTreeMap;

/// Which traffic the TCM clustering threshold is computed over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clustering {
    /// `TotalBWusage` counts CPU traffic only (the paper's **DCB** config).
    CpuOnly,
    /// `TotalBWusage` counts all system traffic (the paper's **DTB**
    /// config); CPU threads then almost always classify as non-intensive.
    System,
}

/// DASH configuration (Table 3 of the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct DashConfig {
    /// Scheduling unit in cycles: the SoC reports GPU and display deadline
    /// progress to DASH once per unit.
    pub scheduling_unit: Cycle,
    /// Probabilistic switching window in cycles.
    pub switching_unit: Cycle,
    /// TCM shuffling interval in cycles (kept for completeness; intra-
    /// cluster ranks are shuffled for fairness).
    pub shuffling_interval: Cycle,
    /// TCM clustering quantum in cycles.
    pub quantum: Cycle,
    /// TCM clustering factor (fraction of total bandwidth that stays in the
    /// latency-sensitive cluster).
    pub cluster_thresh: f64,
    /// Progress-rate threshold below which a non-GPU IP turns urgent.
    pub emergent_threshold_ip: f64,
    /// Progress-rate threshold below which the GPU turns urgent.
    pub emergent_threshold_gpu: f64,
    /// Clustering bandwidth variant (DCB vs DTB).
    pub clustering: Clustering,
    /// PRNG seed for the probabilistic switch.
    pub seed: u64,
}

impl DashConfig {
    /// The exact constants of Table 3.
    pub fn paper(clustering: Clustering) -> Self {
        Self {
            scheduling_unit: 1_000,
            switching_unit: 500,
            shuffling_interval: 800,
            quantum: 1_000_000,
            cluster_thresh: 0.15,
            emergent_threshold_ip: 0.8,
            emergent_threshold_gpu: 0.9,
            clustering,
            seed: 0xDA54,
        }
    }
}

/// The DASH scheduler: one instance serves every channel of a memory
/// system (the clustering and switching decisions are global, not per
/// channel). The [`MemorySystem`](crate::system::MemorySystem) owns it and
/// lends it to each channel in turn, so there is nothing to lock; the SoC
/// feeds it deadline progress through `MemorySystem::dash_mut`.
#[derive(Debug)]
pub struct DashShared {
    cfg: DashConfig,
    cpu_bytes: BTreeMap<usize, u64>,
    ip_bytes: u64,
    /// Memory-intensive CPU threads, ascending.
    intensive: Vec<usize>,
    /// Urgent sources, ascending.
    urgent: Vec<TrafficSource>,
    next_quantum: Cycle,
    next_switch: Cycle,
    /// Probability that memory-intensive CPU wins the probabilistic slot.
    p_cpu: f64,
    window_prefers_cpu: bool,
    /// TCM intra-cluster shuffling: rank offset rotated every shuffling
    /// interval so no intensive thread permanently outranks the others.
    shuffle_offset: usize,
    next_shuffle: Cycle,
    /// Earliest of the three rollovers; [`DashShared::roll`] keeps it. The
    /// boundaries drift (each re-arms at `now + interval`) and the switch
    /// rollover draws from the RNG, so the event-driven clock must execute
    /// the cycle each one lands on.
    next_boundary: Cycle,
    serviced_cpu_intensive: u64,
    serviced_ip_nonurgent: u64,
    rng: Xorshift64,
    /// Quantum boundaries crossed (for tests/diagnostics).
    pub quanta: u64,
    /// The rank epoch: moves at every rollover, urgency flip or restore
    /// that may change [`DashShared::priority`] for some source. Derived
    /// state: never serialized.
    epoch: u64,
}

impl DashShared {
    /// Creates the scheduler in its initial window.
    pub fn new(cfg: DashConfig) -> Self {
        let mut rng = Xorshift64::new(cfg.seed);
        let window_prefers_cpu = rng.chance(0.5);
        let mut s = Self {
            next_quantum: cfg.quantum,
            next_switch: cfg.switching_unit,
            shuffle_offset: 0,
            next_shuffle: cfg.shuffling_interval,
            next_boundary: 0,
            cfg,
            cpu_bytes: BTreeMap::new(),
            ip_bytes: 0,
            intensive: Vec::new(),
            urgent: Vec::new(),
            p_cpu: 0.5,
            window_prefers_cpu,
            serviced_cpu_intensive: 0,
            serviced_ip_nonurgent: 0,
            rng,
            quanta: 0,
            epoch: 0,
        };
        s.rearm();
        s
    }

    fn rearm(&mut self) {
        self.next_boundary = self
            .next_shuffle
            .min(self.next_switch)
            .min(self.next_quantum);
    }

    /// Rolls every window whose boundary `now` has reached. Each rollover
    /// re-arms at `now + interval`, so afterwards all three boundaries lie
    /// beyond `now` and a second `roll(now)` changes nothing — which is why
    /// [`DramScheduler::tick`] may gate the call on `next_boundary`.
    fn roll(&mut self, now: Cycle) {
        if now >= self.next_shuffle {
            self.next_shuffle = now + self.cfg.shuffling_interval;
            self.shuffle_offset = self.shuffle_offset.wrapping_add(1);
            // With fewer than two intensive threads every shuffled rank is 0.
            if self.intensive.len() > 1 {
                self.epoch += 1;
            }
        }
        if now >= self.next_switch {
            self.next_switch = now + self.cfg.switching_unit;
            // Rebalance: give the slot to whichever group fell behind.
            if self.serviced_cpu_intensive > self.serviced_ip_nonurgent {
                self.p_cpu = (self.p_cpu - 0.1).max(0.05);
            } else if self.serviced_ip_nonurgent > self.serviced_cpu_intensive {
                self.p_cpu = (self.p_cpu + 0.1).min(0.95);
            }
            self.serviced_cpu_intensive = 0;
            self.serviced_ip_nonurgent = 0;
            let prefers_cpu = self.rng.chance(self.p_cpu);
            if prefers_cpu != self.window_prefers_cpu {
                self.window_prefers_cpu = prefers_cpu;
                self.epoch += 1;
            }
        }
        if now >= self.next_quantum {
            self.next_quantum = now + self.cfg.quantum;
            self.quanta += 1;
            self.recluster();
            self.epoch += 1;
            self.cpu_bytes.clear();
            self.ip_bytes = 0;
        }
        self.rearm();
    }

    fn recluster(&mut self) {
        let cpu_total: u64 = self.cpu_bytes.values().sum();
        let total = match self.cfg.clustering {
            Clustering::CpuOnly => cpu_total,
            Clustering::System => cpu_total + self.ip_bytes,
        };
        let threshold = self.cfg.cluster_thresh * total as f64;
        let mut by_usage: Vec<(usize, u64)> =
            self.cpu_bytes.iter().map(|(k, v)| (*k, *v)).collect();
        by_usage.sort_by_key(|&(id, b)| (b, id));
        self.intensive.clear();
        let mut acc = 0f64;
        for (id, b) in by_usage {
            acc += b as f64;
            if acc > threshold {
                self.intensive.push(id);
            }
        }
        self.intensive.sort_unstable();
    }

    /// Scheduling priority of a source, lower first: its DASH class and,
    /// within the memory-intensive CPU class, its TCM shuffled rank.
    fn priority(&self, source: TrafficSource) -> (u8, usize) {
        match source {
            TrafficSource::Cpu(id) if !self.is_intensive(id) => (1, 0),
            TrafficSource::Cpu(id) => (
                if self.window_prefers_cpu { 2 } else { 3 },
                self.shuffled_rank(id),
            ),
            ip if self.is_urgent(ip) => (0, 0),
            _ => (if self.window_prefers_cpu { 3 } else { 2 }, 0),
        }
    }

    /// True when the CPU thread is currently in the intensive cluster.
    pub fn is_intensive(&self, cpu: usize) -> bool {
        self.intensive.contains(&cpu)
    }

    /// TCM shuffled rank of an intensive CPU thread (lower = preferred);
    /// rotates every shuffling interval for intra-cluster fairness.
    fn shuffled_rank(&self, cpu: usize) -> usize {
        let n = self.intensive.len().max(1);
        (cpu + self.shuffle_offset) % n
    }

    /// True when the IP is currently urgent.
    pub fn is_urgent(&self, source: TrafficSource) -> bool {
        self.urgent.contains(&source)
    }

    /// Marks `source` urgent or not directly.
    pub fn set_urgent(&mut self, source: TrafficSource, urgent: bool) {
        match (self.urgent.binary_search(&source), urgent) {
            (Err(at), true) => self.urgent.insert(at, source),
            (Ok(at), false) => {
                self.urgent.remove(at);
            }
            _ => return,
        }
        self.epoch += 1;
    }

    /// Deadline feedback: `done_frac` of the IP's current unit of work
    /// (frame) is finished after `elapsed_frac` of its period. The IP turns
    /// urgent when its progress rate falls below the emergent threshold
    /// (0.9 for the GPU, 0.8 for other IPs, per Table 3).
    pub fn update_progress(&mut self, source: TrafficSource, done_frac: f64, elapsed_frac: f64) {
        let threshold = match source {
            TrafficSource::Gpu => self.cfg.emergent_threshold_gpu,
            _ => self.cfg.emergent_threshold_ip,
        };
        let urgent = elapsed_frac > 1e-9 && (done_frac / elapsed_frac) < threshold;
        self.set_urgent(source, urgent);
    }

    /// Walks the whole scheduler state (clustering, windows, fairness
    /// counters, and the RNG stream); the sets go out in ascending order.
    /// A read re-derives the boundary and moves the rank epoch.
    pub(crate) fn walk(&mut self, w: &mut impl Walk) -> Result<(), SnapError> {
        w.map(&mut self.cpu_bytes, 9, |w, id, b| {
            w.usize(id)?;
            w.u64(b)
        })?;
        w.u64(&mut self.ip_bytes)?;
        w.seq(&mut self.intensive, 1, |w, id| w.usize(id))?;
        self.intensive.sort_unstable();
        self.intensive.dedup();
        w.seq(&mut self.urgent, 1, |w, src| src.walk(w))?;
        self.urgent.sort_unstable();
        self.urgent.dedup();
        w.u64(&mut self.next_quantum)?;
        w.u64(&mut self.next_switch)?;
        w.f64(&mut self.p_cpu)?;
        w.bool(&mut self.window_prefers_cpu)?;
        w.usize(&mut self.shuffle_offset)?;
        w.u64(&mut self.next_shuffle)?;
        w.u64(&mut self.serviced_cpu_intensive)?;
        w.u64(&mut self.serviced_ip_nonurgent)?;
        self.rng.walk(w)?;
        w.u64(&mut self.quanta)?;
        if w.reading() {
            self.rearm();
            self.epoch += 1;
        }
        Ok(())
    }
}

impl DramScheduler for DashShared {
    /// The DASH class in the top bits, then the TCM shuffled rank, which
    /// only distinguishes inside the memory-intensive CPU class. The
    /// shuffled rank is below `intensive.len()`, and a `Vec<usize>` holds
    /// fewer than 2^61 elements, so the pair fits 63 bits.
    fn rank(&self, source: TrafficSource) -> u64 {
        let (class, rank) = self.priority(source);
        u64::from(class) << 61 | rank as u64
    }

    fn rank_epoch(&self) -> u64 {
        self.epoch
    }

    fn on_service(&mut self, req: &MemRequest, _row_hit: bool, _now: Cycle) {
        match req.source {
            TrafficSource::Cpu(id) => {
                *self.cpu_bytes.entry(id).or_insert(0) += req.bytes as u64;
                if self.is_intensive(id) {
                    self.serviced_cpu_intensive += 1;
                }
            }
            src => {
                self.ip_bytes += req.bytes as u64;
                if !self.is_urgent(src) {
                    self.serviced_ip_nonurgent += 1;
                }
            }
        }
    }

    fn tick(&mut self, now: Cycle) {
        if now >= self.next_boundary {
            self.roll(now);
        }
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        Some(self.next_boundary.max(now + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram::{bank_index, BankState, DramChannel, DramConfig, QueuedReq};
    use crate::mapping::DramLocation;
    use crate::sched::FrFcfs;
    use emerald_common::snap::{encode, SnapReader};
    use emerald_common::types::AccessKind;

    fn qreq(id: u64, source: TrafficSource, arrived: Cycle) -> QueuedReq {
        QueuedReq {
            req: MemRequest {
                id,
                addr: 0,
                bytes: 128,
                kind: AccessKind::Read,
                source,
                issued: arrived,
            },
            loc: DramLocation {
                channel: 0,
                rank: 0,
                bank: (id % 8) as usize,
                row: id,
                col: 0,
            },
            arrived,
        }
    }

    fn banks() -> Vec<BankState> {
        vec![BankState::idle(); 8]
    }

    /// What a channel holding `banks` and `queue` issues next under `s`.
    fn pick(s: &DashShared, queue: Vec<QueuedReq>, banks: Vec<BankState>) -> Option<usize> {
        DramChannel::with_state(banks, queue).pick(s)
    }

    fn snap_bytes(s: &mut DashShared) -> Vec<u8> {
        encode(|w| s.walk(w))
    }

    #[test]
    fn snapshot_round_trip_keeps_rng_and_windows_in_lockstep() {
        let cfg = DashConfig::paper(Clustering::CpuOnly);
        let mut a = DashShared::new(cfg.clone());
        a.set_urgent(TrafficSource::Display, true);
        // Accumulate bandwidth and cross several rollover boundaries so
        // every field diverges from its initial value.
        a.cpu_bytes.insert(0, 4096);
        a.cpu_bytes.insert(3, 128);
        a.ip_bytes = 9000;
        a.serviced_cpu_intensive = 7;
        a.serviced_ip_nonurgent = 3;
        a.roll(a.next_boundary);
        a.roll(a.next_boundary);

        let enc = snap_bytes(&mut a);
        let mut b = DashShared::new(cfg);
        let mut r = SnapReader::new(&enc);
        b.walk(&mut r).unwrap();
        r.finish().unwrap();

        // Both must draw the same future RNG stream and agree on every
        // scheduling decision input.
        assert_eq!(a.rng.state(), b.rng.state());
        assert_eq!(a.next_boundary, b.next_boundary);
        assert_eq!(a.p_cpu, b.p_cpu);
        assert_eq!(a.window_prefers_cpu, b.window_prefers_cpu);
        assert_eq!(a.intensive, b.intensive);
        assert_eq!(a.urgent, b.urgent);
        assert_eq!(a.quanta, b.quanta);
        let boundary = a.next_boundary;
        a.tick(boundary);
        b.tick(boundary);
        assert_eq!(a.rng.state(), b.rng.state());
        assert_eq!(a.window_prefers_cpu, b.window_prefers_cpu);
    }

    #[test]
    fn urgent_ip_beats_everyone() {
        let mut s = DashShared::new(DashConfig::paper(Clustering::CpuOnly));
        s.set_urgent(TrafficSource::Display, true);
        let queue = vec![
            qreq(1, TrafficSource::Cpu(0), 0),
            qreq(2, TrafficSource::Display, 5),
            qreq(3, TrafficSource::Gpu, 1),
        ];
        assert_eq!(pick(&s, queue, banks()), Some(1));
    }

    #[test]
    fn non_intensive_cpu_beats_non_urgent_gpu() {
        let s = DashShared::new(DashConfig::paper(Clustering::CpuOnly));
        // No clustering has happened, so every CPU is non-intensive.
        let queue = vec![
            qreq(1, TrafficSource::Gpu, 0),
            qreq(2, TrafficSource::Cpu(1), 5),
        ];
        assert_eq!(pick(&s, queue, banks()), Some(1));
    }

    #[test]
    fn progress_feedback_toggles_urgency() {
        let mut s = DashShared::new(DashConfig::paper(Clustering::CpuOnly));
        // GPU at 50% of work through 80% of its period: behind → urgent.
        s.update_progress(TrafficSource::Gpu, 0.5, 0.8);
        assert!(s.is_urgent(TrafficSource::Gpu));
        // Caught up → not urgent.
        s.update_progress(TrafficSource::Gpu, 0.95, 0.8);
        assert!(!s.is_urgent(TrafficSource::Gpu));
    }

    #[test]
    fn gpu_threshold_is_stricter_than_ip() {
        let mut s = DashShared::new(DashConfig::paper(Clustering::CpuOnly));
        // Progress rate 0.85: below the GPU's 0.9 threshold but above the
        // generic IP threshold of 0.8.
        s.update_progress(TrafficSource::Gpu, 0.85, 1.0);
        s.update_progress(TrafficSource::Display, 0.85, 1.0);
        assert!(s.is_urgent(TrafficSource::Gpu));
        assert!(!s.is_urgent(TrafficSource::Display));
    }

    #[test]
    fn dcb_clustering_marks_heavy_threads_intensive() {
        let cfg = DashConfig {
            quantum: 100,
            ..DashConfig::paper(Clustering::CpuOnly)
        };
        let mut s = DashShared::new(cfg);
        // CPU 0 light, CPU 1 heavy.
        for i in 0..2u64 {
            s.on_service(&qreq(i, TrafficSource::Cpu(0), 0).req, false, 0);
        }
        for i in 0..40u64 {
            s.on_service(&qreq(10 + i, TrafficSource::Cpu(1), 0).req, false, 0);
        }
        s.tick(150); // quantum rollover
        assert!(s.is_intensive(1));
        assert!(!s.is_intensive(0));
    }

    #[test]
    fn dtb_clustering_rarely_marks_intensive() {
        let cfg = DashConfig {
            quantum: 100,
            ..DashConfig::paper(Clustering::System)
        };
        let mut s = DashShared::new(cfg);
        // Same CPU traffic as above, but with massive GPU traffic in the
        // total: the 15% threshold now covers all CPU threads.
        for i in 0..2u64 {
            s.on_service(&qreq(i, TrafficSource::Cpu(0), 0).req, false, 0);
        }
        for i in 0..40u64 {
            s.on_service(&qreq(10 + i, TrafficSource::Cpu(1), 0).req, false, 0);
        }
        for i in 0..2000u64 {
            s.on_service(&qreq(100 + i, TrafficSource::Gpu, 0).req, false, 0);
        }
        s.tick(150);
        assert!(!s.is_intensive(0));
        assert!(!s.is_intensive(1));
    }

    #[test]
    fn probabilistic_window_flips_over_time() {
        let cfg = DashConfig {
            switching_unit: 10,
            ..DashConfig::paper(Clustering::CpuOnly)
        };
        let mut s = DashShared::new(cfg);
        let mut seen = std::collections::HashSet::new();
        for t in 0..2000 {
            s.tick(t);
            seen.insert(s.window_prefers_cpu);
        }
        assert_eq!(seen.len(), 2, "both window preferences should occur");
    }

    #[test]
    fn shuffled_rank_rotates_over_time() {
        let cfg = DashConfig {
            quantum: 100,
            shuffling_interval: 50,
            ..DashConfig::paper(Clustering::CpuOnly)
        };
        let mut s = DashShared::new(cfg);
        // Make CPUs 1 and 2 intensive.
        for i in 0..40u64 {
            s.on_service(&qreq(i, TrafficSource::Cpu(1), 0).req, false, 0);
            s.on_service(&qreq(100 + i, TrafficSource::Cpu(2), 0).req, false, 0);
        }
        s.on_service(&qreq(990, TrafficSource::Cpu(0), 0).req, false, 0);
        s.tick(150);
        assert!(s.is_intensive(1) && s.is_intensive(2));
        let r0 = s.shuffled_rank(1);
        // Advance a few shuffling intervals, keeping the same traffic mix
        // flowing so re-clustering preserves the intensive set.
        for t in 151..=400 {
            if t % 5 == 0 {
                s.on_service(&qreq(2000 + t, TrafficSource::Cpu(1), t).req, false, t);
                s.on_service(&qreq(3000 + t, TrafficSource::Cpu(2), t).req, false, t);
            }
            s.tick(t);
        }
        assert!(s.is_intensive(1) && s.is_intensive(2));
        let r1 = s.shuffled_rank(1);
        assert_ne!(r0, r1, "shuffling must rotate ranks");
    }

    #[test]
    fn within_class_uses_frfcfs() {
        let s = DashShared::new(DashConfig::paper(Clustering::CpuOnly));
        let mut bs = banks();
        // Two GPU requests; the one with an open-row hit should win even
        // though it arrived later.
        let q1 = qreq(1, TrafficSource::Gpu, 0);
        let mut q2 = qreq(2, TrafficSource::Gpu, 5);
        q2.loc.bank = 3;
        q2.loc.row = 42;
        bs[3].open_row = Some(42);
        assert_eq!(pick(&s, vec![q1, q2], bs), Some(1));
    }

    /// The selection the packed pick keys replaced, as it was written: the
    /// best class present, its candidate list, the best shuffled rank among
    /// them when that class is the intensive one, then the oldest row hit
    /// or else the oldest request. Without a DASH state every request is
    /// in one class: plain FR-FCFS.
    fn pick_two_pass(
        s: Option<&DashShared>,
        queue: &[QueuedReq],
        banks: &[BankState],
        banks_per_rank: usize,
    ) -> Option<usize> {
        let Some(s) = s else {
            let all: Vec<usize> = (0..queue.len()).collect();
            return oldest_hit_or_oldest(&all, queue, banks, banks_per_rank);
        };
        let class = |source: TrafficSource| match source {
            src if src.is_ip() && s.urgent.contains(&src) => 0,
            TrafficSource::Cpu(id) if !s.intensive.contains(&id) => 1,
            TrafficSource::Cpu(_) => {
                if s.window_prefers_cpu {
                    2
                } else {
                    3
                }
            }
            _ => {
                if s.window_prefers_cpu {
                    3
                } else {
                    2
                }
            }
        };
        let best_class = queue.iter().map(|q| class(q.req.source)).min()?;
        let mut candidates: Vec<usize> = (0..queue.len())
            .filter(|&i| class(queue[i].req.source) == best_class)
            .collect();
        let intensive_class = if s.window_prefers_cpu { 2 } else { 3 };
        if best_class == intensive_class {
            let rank_of = |i: usize| match queue[i].req.source {
                TrafficSource::Cpu(id) => s.shuffled_rank(id),
                _ => usize::MAX,
            };
            if let Some(best_rank) = candidates.iter().map(|&i| rank_of(i)).min() {
                candidates.retain(|&i| rank_of(i) == best_rank);
            }
        }
        oldest_hit_or_oldest(&candidates, queue, banks, banks_per_rank)
    }

    /// FR-FCFS over `candidates`: the oldest row hit, else the oldest.
    fn oldest_hit_or_oldest(
        candidates: &[usize],
        queue: &[QueuedReq],
        banks: &[BankState],
        banks_per_rank: usize,
    ) -> Option<usize> {
        let mut best_hit: Option<usize> = None;
        let mut best_any: Option<usize> = None;
        for &i in candidates {
            let q = &queue[i];
            let hit = banks[bank_index(&q.loc, banks_per_rank)].open_row == Some(q.loc.row);
            if hit && best_hit.is_none_or(|j| q.arrived < queue[j].arrived) {
                best_hit = Some(i);
            }
            if best_any.is_none_or(|j| q.arrived < queue[j].arrived) {
                best_any = Some(i);
            }
        }
        best_hit.or(best_any)
    }

    const SOURCES: [TrafficSource; 8] = [
        TrafficSource::Cpu(0),
        TrafficSource::Cpu(1),
        TrafficSource::Cpu(2),
        TrafficSource::Cpu(5),
        TrafficSource::Gpu,
        TrafficSource::Display,
        TrafficSource::OtherIp(0),
        TrafficSource::OtherIp(4),
    ];

    /// The packed keys of a freshly keyed channel, over DASH states set
    /// field by field (states real rollovers reach rarely or never).
    #[test]
    fn single_pass_pick_equals_two_pass_selection() {
        emerald_common::check::check("dash_pick_equals_two_pass", |rng| {
            let mut s = DashShared::new(DashConfig::paper(Clustering::CpuOnly));
            for _ in 0..40 {
                s.window_prefers_cpu = rng.chance(0.5);
                s.shuffle_offset = rng.below(9) as usize;
                s.intensive = [0, 1, 2, 5]
                    .into_iter()
                    .filter(|_| rng.chance(0.5))
                    .collect();
                // CPU sources in `urgent` are legal and must stay inert.
                for src in SOURCES {
                    s.set_urgent(src, rng.chance(0.25));
                }
                let mut banks = vec![BankState::idle(); 16];
                for b in &mut banks {
                    b.open_row = rng.chance(0.7).then(|| rng.below(3));
                }
                // Few distinct arrival cycles and rows: ties everywhere.
                let queue: Vec<QueuedReq> = (0..rng.below(65))
                    .map(|id| {
                        let mut q = qreq(id, SOURCES[rng.below(8) as usize], rng.below(4));
                        q.loc.rank = rng.below(2) as usize;
                        q.loc.bank = rng.below(8) as usize;
                        q.loc.row = rng.below(3);
                        q
                    })
                    .collect();
                assert_eq!(
                    pick(&s, queue.clone(), banks.clone()),
                    pick_two_pass(Some(&s), &queue, &banks, 8),
                    "prefers_cpu={} offset={} intensive={:?} urgent={:?} queue={queue:?}",
                    s.window_prefers_cpu,
                    s.shuffle_offset,
                    s.intensive,
                    s.urgent
                );
            }
        });
    }

    /// Random enqueue/tick streams through one channel, under FR-FCFS or
    /// under a DASH whose windows roll every few dozen cycles, with urgency
    /// flips and one mid-stream snapshot/restore of channel and scheduler:
    /// the keys the channel keeps current at enqueue, activation and epoch
    /// change pick, at every issue, what the two-pass selection picks from
    /// the live queue.
    #[test]
    fn channel_issues_what_two_pass_selection_picks() {
        emerald_common::check::check("dram_channel_pick_equals_two_pass", |rng| {
            let dash_cfg = DashConfig {
                switching_unit: rng.range(5, 40),
                shuffling_interval: rng.range(3, 30),
                quantum: rng.range(50, 400),
                ..DashConfig::paper(if rng.chance(0.5) {
                    Clustering::CpuOnly
                } else {
                    Clustering::System
                })
            };
            let cfg = DramConfig {
                ranks: rng.range(1, 3) as usize,
                queue_cap: rng.range(2, 33) as usize,
                ..DramConfig::lpddr3_1333()
            };
            // Some cases only CPUs: the intensive class then often wins,
            // and its shuffled ranks decide.
            let sources = &SOURCES[..[4, 8][rng.below(2) as usize]];
            let mut dash = rng.chance(0.5).then(|| DashShared::new(dash_cfg.clone()));
            let mut ch = DramChannel::new(cfg.clone());
            let cycles = rng.range(300, 1500);
            let restore_at = rng.below(cycles);
            let (mut issued, mut done) = (0, Vec::new());
            for now in 0..cycles {
                if let Some(d) = &mut dash {
                    d.tick(now);
                    if rng.chance(0.01) {
                        d.set_urgent(SOURCES[rng.range(4, 8) as usize], rng.chance(0.3));
                    }
                }
                for _ in 0..rng.below(3) {
                    let source = sources[rng.below(sources.len() as u64) as usize];
                    let mut q = qreq(now, source, now);
                    q.loc.rank = rng.below(cfg.ranks as u64) as usize;
                    q.loc.bank = rng.below(8) as usize;
                    q.loc.row = rng.below(4);
                    let _ = ch.enqueue(q.req, q.loc, now);
                }
                let ids =
                    |ch: &DramChannel| ch.queue().iter().map(|q| q.req.id).collect::<Vec<_>>();
                let before = ids(&ch);
                let want = pick_two_pass(dash.as_ref(), ch.queue(), ch.banks(), 8);
                match &mut dash {
                    Some(d) => ch.tick(now, d),
                    None => ch.tick(now, &mut FrFcfs),
                }
                if ch.queue_len() < before.len() {
                    let mut expect = before;
                    expect.swap_remove(want.expect("a request was issued"));
                    assert_eq!(ids(&ch), expect, "cycle {now}");
                    issued += 1;
                }
                ch.pop_finished(now, &mut done);
                if now == restore_at {
                    let enc = encode(|w| ch.walk(w));
                    ch = DramChannel::new(cfg.clone());
                    ch.walk(&mut SnapReader::new(&enc)).unwrap();
                    if let Some(d) = &mut dash {
                        let enc = snap_bytes(d);
                        *d = DashShared::new(dash_cfg.clone());
                        d.walk(&mut SnapReader::new(&enc)).unwrap();
                    }
                }
            }
            assert!(issued > 5, "only {issued} requests issued");
        });
    }

    #[test]
    fn boundary_gated_roll_equals_rolling_every_cycle() {
        // Three quanta of the paper's constants: 3.1 M cycles, ~10 000
        // rollovers, every one of which draws from the RNG or re-clusters.
        emerald_common::check::check_n("dash_gated_roll_equals_per_cycle", 3, |rng| {
            let cfg = DashConfig::paper(if rng.chance(0.5) {
                Clustering::CpuOnly
            } else {
                Clustering::System
            });
            let mut every_cycle = DashShared::new(cfg.clone());
            let mut gated = DashShared::new(cfg);
            let mut rolls = 0u64;
            for now in 0..3_100_000 {
                if now == gated.next_boundary {
                    rolls += 1;
                }
                every_cycle.roll(now);
                gated.tick(now);
                if rng.chance(0.05) {
                    let source = match rng.below(6) {
                        0 => TrafficSource::Gpu,
                        1 => TrafficSource::Display,
                        n => TrafficSource::Cpu(n as usize - 2),
                    };
                    let req = qreq(now, source, now).req;
                    every_cycle.on_service(&req, false, now);
                    gated.on_service(&req, false, now);
                }
                if rng.chance(0.001) {
                    let urgent = rng.chance(0.5);
                    every_cycle.set_urgent(TrafficSource::Display, urgent);
                    gated.set_urgent(TrafficSource::Display, urgent);
                }
                if now % 4096 == 0 {
                    assert_eq!(
                        snap_bytes(&mut gated),
                        snap_bytes(&mut every_cycle),
                        "cycle {now}"
                    );
                }
            }
            assert_eq!(snap_bytes(&mut gated), snap_bytes(&mut every_cycle));
            assert_eq!(gated.rng.state(), every_cycle.rng.state());
            assert_eq!(gated.quanta, 3);
            assert!(rolls > 9_000, "only {rolls} boundaries were crossed");
        });
    }
}

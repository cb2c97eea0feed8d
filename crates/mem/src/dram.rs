//! A DRAM channel: banks, row buffers, a shared data bus, and a pluggable
//! scheduler.
//!
//! The model captures the effects the paper's case study I depends on:
//! row-buffer hits vs. activations (Figure 11's hit-rate and
//! bytes-per-activation metrics), bank-level parallelism (HMC's IP
//! mapping), data-bus bandwidth saturation (the high-load scenario of
//! Figure 12) and scheduler-driven prioritization (DASH).

use crate::mapping::DramLocation;
use crate::req::{MemRequest, MemResponse};
use crate::sched::DramScheduler;
use emerald_common::snap::{SnapError, Walk};
use emerald_common::stats::Ratio;
use emerald_common::types::{Cycle, TrafficSource};
use std::collections::BTreeMap;

/// DRAM channel timing/geometry parameters (in core cycles).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DramConfig {
    /// Ranks per channel.
    pub ranks: usize,
    /// Banks per rank.
    pub banks: usize,
    /// Column (CAS) latency.
    pub t_cl: u32,
    /// Row activation latency (RAS-to-CAS).
    pub t_rcd: u32,
    /// Precharge latency.
    pub t_rp: u32,
    /// Data-bus occupancy per line transfer. This is the knob that sets
    /// channel bandwidth: `line_bytes / burst_cycles` bytes per cycle.
    pub burst_cycles: u32,
    /// Scheduling queue capacity.
    pub queue_cap: usize,
}

impl DramConfig {
    /// "Regular load": LPDDR3-1333-class bandwidth on a 32-bit channel
    /// (Table 5) — ~5.3 GB/s, i.e. a 128 B line every ~24 cycles at 1 GHz.
    pub fn lpddr3_1333() -> Self {
        Self {
            ranks: 1,
            banks: 8,
            t_cl: 20,
            t_rcd: 20,
            t_rp: 20,
            burst_cycles: 24,
            queue_cap: 64,
        }
    }

    /// "High load" stressor: the paper's 133 Mb/s/pin configuration (§5.2)
    /// — one tenth the data-bus bandwidth, same core timings.
    pub fn low_bandwidth() -> Self {
        Self {
            burst_cycles: 240,
            ..Self::lpddr3_1333()
        }
    }

    /// A milder high-load preset (6× reduced bandwidth) used by the
    /// high-load figures (12–14): saturates the system like
    /// `low_bandwidth` but keeps single-core simulation times tractable.
    pub fn high_load() -> Self {
        Self {
            burst_cycles: 144,
            ..Self::lpddr3_1333()
        }
    }

    /// Case-study-II GPU memory: 4-channel LPDDR3-1600-class (Table 7);
    /// per-channel burst is slightly faster than
    /// [`DramConfig::lpddr3_1333`].
    pub fn lpddr3_1600() -> Self {
        Self {
            burst_cycles: 20,
            ..Self::lpddr3_1333()
        }
    }

    /// Total banks in the channel.
    fn total_banks(&self) -> usize {
        self.ranks * self.banks
    }
}

/// Aggregated channel statistics.
#[derive(Debug, Clone, Default)]
pub struct ChannelStats {
    /// Row-buffer hit ratio over serviced requests.
    pub row_hits: Ratio,
    /// Row activations performed.
    pub activations: u64,
    /// Bytes transferred.
    pub bytes: u64,
    /// Requests serviced.
    pub serviced: u64,
    /// Sum of queueing+service latency over read requests (for averages).
    pub read_latency_sum: u64,
    /// Read requests serviced.
    pub reads_serviced: u64,
    /// Bytes by traffic source.
    pub source_bytes: BTreeMap<TrafficSource, u64>,
}

impl ChannelStats {
    /// Mean read latency in cycles.
    pub fn avg_read_latency(&self) -> f64 {
        if self.reads_serviced == 0 {
            0.0
        } else {
            self.read_latency_sum as f64 / self.reads_serviced as f64
        }
    }

    /// Publishes the counters into `reg` under `prefix` (e.g.
    /// `mem.dram.ch0` yields `mem.dram.ch0.row_hits`, `.activations`, …).
    pub(crate) fn publish(&self, reg: &mut emerald_obs::Registry, prefix: &str) {
        reg.set_ratio(format!("{prefix}.row_hits"), self.row_hits);
        reg.set_counter(format!("{prefix}.activations"), self.activations);
        reg.set_counter(format!("{prefix}.bytes"), self.bytes);
        reg.set_counter(format!("{prefix}.serviced"), self.serviced);
        reg.set_counter(format!("{prefix}.reads_serviced"), self.reads_serviced);
        reg.set_counter(format!("{prefix}.read_latency_sum"), self.read_latency_sum);
        for (src, bytes) in &self.source_bytes {
            reg.set_counter(format!("{prefix}.source_bytes.{src}"), *bytes);
        }
    }

    /// Merges another channel's statistics into this one.
    pub(crate) fn merge(&mut self, o: &ChannelStats) {
        self.row_hits.merge(&o.row_hits);
        self.activations += o.activations;
        self.bytes += o.bytes;
        self.serviced += o.serviced;
        self.read_latency_sum += o.read_latency_sum;
        self.reads_serviced += o.reads_serviced;
        for (s, b) in &o.source_bytes {
            *self.source_bytes.entry(*s).or_insert(0) += b;
        }
    }

    /// Walks every counter for a snapshot.
    fn walk(&mut self, w: &mut impl Walk) -> Result<(), SnapError> {
        self.row_hits.walk(w)?;
        w.u64(&mut self.activations)?;
        w.u64(&mut self.bytes)?;
        w.u64(&mut self.serviced)?;
        w.u64(&mut self.read_latency_sum)?;
        w.u64(&mut self.reads_serviced)?;
        w.map(&mut self.source_bytes, 9, |w, src, bytes| {
            src.walk(w)?;
            w.u64(bytes)
        })
    }
}

/// A request waiting in a channel's scheduling queue.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct QueuedReq {
    /// The request itself.
    pub req: MemRequest,
    /// Its decoded DRAM coordinates.
    pub loc: DramLocation,
    /// Cycle it entered this channel's queue.
    pub arrived: Cycle,
}

/// One bank's row-buffer state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BankState {
    /// Currently open row, if any.
    pub open_row: Option<u64>,
    /// Cycle at which the bank can accept a new command.
    pub ready_at: Cycle,
}

impl BankState {
    /// A closed, idle bank.
    pub(crate) fn idle() -> Self {
        Self {
            open_row: None,
            ready_at: 0,
        }
    }
}

/// Flat bank index for a location, given `banks_per_rank`.
pub(crate) fn bank_index(loc: &DramLocation, banks_per_rank: usize) -> usize {
    loc.rank * banks_per_rank + loc.bank
}

/// The bit of a pick key that says the request would miss its bank's open
/// row.
const MISS: u128 = 1 << 64;

/// A pick key: `rank`, then the row-miss bit, then `arrived`, packed so
/// that comparing keys compares those three in that order.
fn pick_key(rank: u64, miss: bool, arrived: Cycle) -> u128 {
    assert!(rank < 1 << 63, "scheduler rank {rank} does not fit 63 bits");
    u128::from(rank << 1 | miss as u64) << 64 | u128::from(arrived)
}

/// One DRAM channel. It holds no scheduler: whoever ticks it lends it one
/// (see [`DramChannel::tick`]).
#[derive(Debug)]
pub struct DramChannel {
    cfg: DramConfig,
    banks: Vec<BankState>,
    queue: Vec<QueuedReq>,
    /// One pick key per `queue` entry, moved in lockstep with it (see
    /// [`pick_key`]); the first minimum is the request to issue. The miss
    /// bit is set at enqueue and refreshed for one bank's entries when an
    /// activation re-opens that bank. Derived state: never serialized.
    keys: Vec<u128>,
    /// `keys[..ranked]` carry the ranks the scheduler gave at `epoch`; the
    /// entries behind them arrived since the last pick and are unranked.
    ranked: usize,
    /// The scheduler's [`DramScheduler::rank_epoch`] at the last pick.
    epoch: u64,
    bus_free_at: Cycle,
    /// Requests in service: (completion_cycle, request).
    in_service: Vec<(Cycle, MemRequest)>,
    /// Earliest completion cycle in `in_service`; `Cycle::MAX` when empty.
    next_done: Cycle,
    stats: ChannelStats,
    /// Trace track id (the owning system sets this to the channel index).
    track: u32,
}

impl DramChannel {
    /// Creates an idle channel.
    pub fn new(cfg: DramConfig) -> Self {
        let banks = vec![BankState::idle(); cfg.total_banks()];
        Self {
            cfg,
            banks,
            queue: Vec::new(),
            keys: Vec::new(),
            ranked: 0,
            epoch: 0,
            bus_free_at: 0,
            in_service: Vec::new(),
            next_done: Cycle::MAX,
            stats: ChannelStats::default(),
            track: 0,
        }
    }

    /// Sets the trace track (channel index) used for emitted trace events.
    pub(crate) fn set_trace_track(&mut self, track: u32) {
        self.track = track;
    }

    /// Statistics so far.
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// Requests waiting to be scheduled.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// True when the scheduling queue cannot accept more requests.
    pub(crate) fn is_full(&self) -> bool {
        self.queue.len() >= self.cfg.queue_cap
    }

    /// Enqueues a request already decoded to `loc`; fails when full.
    pub fn enqueue(
        &mut self,
        req: MemRequest,
        loc: DramLocation,
        now: Cycle,
    ) -> Result<(), MemRequest> {
        if self.is_full() {
            return Err(req);
        }
        self.keys.push(pick_key(0, self.row_miss(&loc), now));
        self.queue.push(QueuedReq {
            req,
            loc,
            arrived: now,
        });
        Ok(())
    }

    /// Advances the channel one cycle: possibly issues one request, the
    /// queued request with the smallest (rank of its source under `sched`,
    /// row miss, `arrived`, queue index). The caller runs the scheduler's
    /// own [`DramScheduler::tick`] (once per cycle, however many channels
    /// share it) before this.
    pub fn tick(&mut self, now: Cycle, sched: &mut impl DramScheduler) {
        if self.queue.is_empty() {
            return;
        }
        // Gate issue so the data bus pipeline stays at most one transfer
        // ahead; this bounds in-flight work while keeping the bus busy.
        if self.bus_free_at > now + self.cfg.burst_cycles as Cycle {
            return;
        }
        let Some(idx) = self.pick(&*sched) else {
            return;
        };
        let q = self.queue.swap_remove(idx);
        self.keys.swap_remove(idx);
        self.ranked -= 1;
        let bi = bank_index(&q.loc, self.cfg.banks);
        let bank = &mut self.banks[bi];

        let start = now.max(bank.ready_at);
        let row_hit = bank.open_row == Some(q.loc.row);
        let mut lat: Cycle = 0;
        if !row_hit {
            if bank.open_row.is_some() {
                lat += self.cfg.t_rp as Cycle;
                emerald_obs::trace::instant_args(
                    emerald_obs::TraceCat::Dram,
                    "row_conflict",
                    self.track,
                    now,
                    &[("bank", bi as u64), ("row", q.loc.row)],
                );
            }
            lat += self.cfg.t_rcd as Cycle;
            self.stats.activations += 1;
            bank.open_row = Some(q.loc.row);
        }
        let col_done = start + lat + self.cfg.t_cl as Cycle;
        let data_start = col_done.max(self.bus_free_at);
        let done = data_start + self.cfg.burst_cycles as Cycle;
        self.bus_free_at = done;
        bank.ready_at = data_start;
        if !row_hit {
            self.refresh_row_misses(bi, q.loc.row);
        }

        self.stats.row_hits.record(row_hit);
        self.stats.serviced += 1;
        self.stats.bytes += q.req.bytes as u64;
        *self.stats.source_bytes.entry(q.req.source).or_insert(0) += q.req.bytes as u64;
        if q.req.needs_response() {
            self.stats.reads_serviced += 1;
            self.stats.read_latency_sum += done.saturating_sub(q.req.issued);
        }
        sched.on_service(&q.req, row_hit, now);
        self.in_service.push((done, q.req));
        self.next_done = self.next_done.min(done);
    }

    /// The queue index to issue next: the first minimum key, once the keys
    /// carry `sched`'s current ranks. Ranks the entries that arrived since
    /// the last pick, or every entry when the rank epoch moved.
    pub(crate) fn pick(&mut self, sched: &impl DramScheduler) -> Option<usize> {
        let epoch = sched.rank_epoch();
        if epoch != self.epoch {
            self.epoch = epoch;
            self.ranked = 0;
        }
        let fresh = self.queue[self.ranked..].iter();
        for (q, k) in fresh.zip(&mut self.keys[self.ranked..]) {
            *k = pick_key(sched.rank(q.req.source), *k & MISS != 0, q.arrived);
        }
        self.ranked = self.queue.len();
        if cfg!(debug_assertions) {
            self.audit_keys(sched);
        }
        // Strictly less keeps the first of equal keys: the lowest index.
        let (mut at, mut best) = (0, *self.keys.first()?);
        for (i, &k) in self.keys.iter().enumerate().skip(1) {
            if k < best {
                (at, best) = (i, k);
            }
        }
        Some(at)
    }

    /// Re-derives the miss bit of every entry queued for bank `bi`, which
    /// has just opened `row`.
    fn refresh_row_misses(&mut self, bi: usize, row: u64) {
        for (q, k) in self.queue.iter().zip(&mut self.keys) {
            if bank_index(&q.loc, self.cfg.banks) == bi {
                *k = *k & !MISS | u128::from(q.loc.row != row) << 64;
            }
        }
    }

    /// True when servicing a request at `loc` would have to open a row:
    /// its bank's row buffer holds another row, or none.
    fn row_miss(&self, loc: &DramLocation) -> bool {
        self.banks[bank_index(loc, self.cfg.banks)].open_row != Some(loc.row)
    }

    /// Keys for the whole queue from the banks' open rows, every entry
    /// unranked: the state `restore` leaves.
    fn rebuild_keys(&mut self) {
        self.keys = (self.queue.iter())
            .map(|q| pick_key(0, self.row_miss(&q.loc), q.arrived))
            .collect();
        self.ranked = 0;
    }

    /// Panics unless every key equals one re-derived from a fresh rank and
    /// a fresh row-miss bit. [`DramChannel::pick`] runs it in debug builds.
    fn audit_keys(&self, sched: &impl DramScheduler) {
        assert_eq!(self.keys.len(), self.queue.len(), "pick keys out of step");
        for (i, (q, &k)) in self.queue.iter().zip(&self.keys).enumerate() {
            let fresh = pick_key(sched.rank(q.req.source), self.row_miss(&q.loc), q.arrived);
            assert_eq!(k, fresh, "stale pick key at queue index {i}: {q:?}");
        }
    }

    /// Appends to `out` all accesses that completed by `now` (reads and
    /// writes; the caller filters for responses). One compare when nothing
    /// is due.
    pub fn pop_finished(&mut self, now: Cycle, out: &mut Vec<MemResponse>) {
        if now < self.next_done {
            return;
        }
        self.next_done = Cycle::MAX;
        let mut i = 0;
        while i < self.in_service.len() {
            let done = self.in_service[i].0;
            if done <= now {
                let (done, req) = self.in_service.swap_remove(i);
                out.push(req.response(done));
            } else {
                self.next_done = self.next_done.min(done);
                i += 1;
            }
        }
    }

    /// True when no request is queued or in flight.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.in_service.is_empty()
    }

    /// What `next_done` caches, by scan.
    fn earliest_done(&self) -> Cycle {
        self.in_service
            .iter()
            .map(|&(done, _)| done)
            .min()
            .unwrap_or(Cycle::MAX)
    }
}

#[cfg(test)]
impl DramChannel {
    /// A channel of `banks.len() / 8` ranks of eight banks, holding exactly
    /// these banks and this queue, keyed as a restore keys them.
    pub(crate) fn with_state(banks: Vec<BankState>, queue: Vec<QueuedReq>) -> Self {
        let mut ch = Self::new(DramConfig {
            ranks: banks.len() / 8,
            ..DramConfig::lpddr3_1333()
        });
        ch.banks = banks;
        ch.queue = queue;
        ch.rebuild_keys();
        ch
    }

    /// The scheduling queue, in its physical order.
    pub(crate) fn queue(&self) -> &[QueuedReq] {
        &self.queue
    }

    /// The banks' row-buffer states.
    pub(crate) fn banks(&self) -> &[BankState] {
        &self.banks
    }
}

impl DramChannel {
    /// Walks bank timing, the scheduling queue (in exact order — `tick`
    /// uses `swap_remove`, so the physical order is semantic state), the
    /// in-service slab, and statistics. Scheduler state is the memory
    /// system's to walk; the pick keys are derived and a read rebuilds
    /// them.
    pub fn walk(&mut self, w: &mut impl Walk) -> Result<(), SnapError> {
        w.expect(self.banks.len(), "dram bank count mismatch")?;
        for b in &mut self.banks {
            w.opt(&mut b.open_row, |w, row| w.u64(row))?;
            w.u64(&mut b.ready_at)?;
        }
        const OUTSIDE: &str = "dram queued request's loc.rank or loc.bank outside the channel";
        let (ranks, banks) = (self.cfg.ranks, self.cfg.banks);
        w.seq(&mut self.queue, 40, |w, q| {
            q.req.walk(w)?;
            w.usize(&mut q.loc.channel)?;
            w.index(&mut q.loc.rank, ranks, OUTSIDE)?;
            w.index(&mut q.loc.bank, banks, OUTSIDE)?;
            w.u64(&mut q.loc.row)?;
            w.u64(&mut q.loc.col)?;
            w.u64(&mut q.arrived)
        })?;
        w.check(
            self.queue.len() <= self.cfg.queue_cap,
            "dram queue exceeds configured capacity",
        )?;
        w.u64(&mut self.bus_free_at)?;
        w.seq(&mut self.in_service, 41, |w, (done, req)| {
            w.u64(done)?;
            req.walk(w)
        })?;
        self.stats.walk(w)?;
        if w.reading() {
            self.rebuild_keys();
            self.next_done = self.earliest_done();
        }
        Ok(())
    }
}

impl emerald_common::event::NextEvent for DramChannel {
    /// A channel with a non-empty scheduling queue decides at the first
    /// cycle [`DramChannel::tick`]'s bus gate lets the scheduler run —
    /// `bus_free_at - burst_cycles`; before it `tick` returns without
    /// asking, and a refused `enqueue` changes nothing. Otherwise the only
    /// thing that can happen is an in-service access completing, at a
    /// cycle precomputed at issue. (Scheduler housekeeping rollovers are
    /// the scheduler owner's events.)
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let mut wake = self.next_done;
        if !self.queue.is_empty() {
            let gate = self
                .bus_free_at
                .saturating_sub(self.cfg.burst_cycles as Cycle);
            wake = wake.min(gate);
        }
        (wake != Cycle::MAX).then_some(wake.max(now + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::AddressMapping;
    use crate::sched::FrFcfs;
    use emerald_common::types::{AccessKind, TrafficSource};

    fn req(id: u64, addr: u64) -> MemRequest {
        MemRequest {
            id,
            addr,
            bytes: 128,
            kind: AccessKind::Read,
            source: TrafficSource::Gpu,
            issued: 0,
        }
    }

    fn channel() -> (DramChannel, AddressMapping) {
        (
            DramChannel::new(DramConfig::lpddr3_1333()),
            AddressMapping::baseline(1),
        )
    }

    fn pop(ch: &mut DramChannel, now: Cycle) -> Vec<MemResponse> {
        let mut out = Vec::new();
        ch.pop_finished(now, &mut out);
        out
    }

    fn run_until_idle(ch: &mut DramChannel, mut now: Cycle) -> (Vec<MemResponse>, Cycle) {
        let mut out = Vec::new();
        while !ch.is_idle() {
            ch.tick(now, &mut FrFcfs);
            ch.pop_finished(now, &mut out);
            now += 1;
            assert!(now < 1_000_000, "channel never drained");
        }
        (out, now)
    }

    #[test]
    fn single_read_latency_includes_activation() {
        let (mut ch, map) = channel();
        let r = req(1, 0x1000);
        ch.enqueue(r, map.decode(0x1000), 0).unwrap();
        let (resp, _) = run_until_idle(&mut ch, 0);
        assert_eq!(resp.len(), 1);
        let cfg = DramConfig::lpddr3_1333();
        let expect = (cfg.t_rcd + cfg.t_cl + cfg.burst_cycles) as Cycle;
        assert_eq!(resp[0].finished, expect);
        assert_eq!(ch.stats().activations, 1);
        assert_eq!(ch.stats().row_hits.num, 0);
    }

    #[test]
    fn row_hits_after_first_access() {
        let (mut ch, map) = channel();
        // Four consecutive lines in the same row.
        for i in 0..4u64 {
            ch.enqueue(req(i, i * 128), map.decode(i * 128), 0).unwrap();
        }
        let (resp, _) = run_until_idle(&mut ch, 0);
        assert_eq!(resp.len(), 4);
        assert_eq!(ch.stats().activations, 1);
        assert_eq!(ch.stats().row_hits.num, 3);
        assert_eq!(ch.stats().bytes, 4 * 128);
    }

    #[test]
    fn row_conflict_costs_precharge() {
        let (mut ch, map) = channel();
        let row_stride = 32 * 128; // cols_per_row * line (same bank, next row)
        ch.enqueue(req(1, 0), map.decode(0), 0).unwrap();
        let (r1, t1) = run_until_idle(&mut ch, 0);
        ch.enqueue(req(2, 8 * row_stride), map.decode(8 * row_stride), t1)
            .unwrap();
        let (r2, _) = run_until_idle(&mut ch, t1);
        let cfg = DramConfig::lpddr3_1333();
        let lat1 = r1[0].finished;
        let lat2 = r2[0].finished - t1 + 1;
        assert!(
            lat2 >= lat1 + cfg.t_rp as Cycle - 1,
            "lat1={lat1} lat2={lat2}"
        );
        assert_eq!(ch.stats().activations, 2);
    }

    #[test]
    fn bus_bandwidth_bounds_throughput() {
        let (mut ch, map) = channel();
        let n = 32u64;
        for i in 0..n {
            // Same row: all hits after the first, so the bus is the limit.
            ch.enqueue(
                req(i, i * 128 % (32 * 128)),
                map.decode(i * 128 % (32 * 128)),
                0,
            )
            .unwrap_or_else(|_| panic!("queue full"));
        }
        let (resp, end) = run_until_idle(&mut ch, 0);
        assert_eq!(resp.len(), n as usize);
        let min_cycles = n * DramConfig::lpddr3_1333().burst_cycles as u64;
        assert!(end >= min_cycles, "end={end} < bus-bound {min_cycles}");
    }

    #[test]
    fn low_bandwidth_preset_is_slower() {
        let map = AddressMapping::baseline(1);
        let mut fast = DramChannel::new(DramConfig::lpddr3_1333());
        let mut slow = DramChannel::new(DramConfig::low_bandwidth());
        for ch in [&mut fast, &mut slow] {
            for i in 0..16u64 {
                ch.enqueue(req(i, i * 128), map.decode(i * 128), 0).unwrap();
            }
        }
        let (_, t_fast) = run_until_idle(&mut fast, 0);
        let (_, t_slow) = run_until_idle(&mut slow, 0);
        assert!(t_slow > 5 * t_fast, "slow={t_slow} fast={t_fast}");
    }

    #[test]
    fn queue_backpressure() {
        let (mut ch, map) = channel();
        let cap = ch.cfg.queue_cap;
        for i in 0..cap as u64 {
            ch.enqueue(req(i, i * 4096), map.decode(i * 4096), 0)
                .unwrap();
        }
        assert!(ch.is_full());
        assert!(ch.enqueue(req(999, 0), map.decode(0), 0).is_err());
    }

    #[test]
    fn per_source_bytes_accounted() {
        let (mut ch, map) = channel();
        let mut r = req(1, 0);
        r.source = TrafficSource::Display;
        ch.enqueue(r, map.decode(0), 0).unwrap();
        let mut r2 = req(2, 128);
        r2.source = TrafficSource::Cpu(0);
        ch.enqueue(r2, map.decode(128), 0).unwrap();
        run_until_idle(&mut ch, 0);
        assert_eq!(ch.stats().source_bytes[&TrafficSource::Display], 128);
        assert_eq!(ch.stats().source_bytes[&TrafficSource::Cpu(0)], 128);
    }

    #[test]
    fn writes_do_not_produce_read_latency_stats() {
        let (mut ch, map) = channel();
        let w = MemRequest {
            kind: AccessKind::Write,
            ..req(1, 0)
        };
        ch.enqueue(w, map.decode(0), 0).unwrap();
        let (resp, _) = run_until_idle(&mut ch, 0);
        assert_eq!(resp.len(), 1); // completion is still reported
        assert_eq!(ch.stats().reads_serviced, 0);
        assert_eq!(ch.stats().serviced, 1);
    }

    #[test]
    fn next_event_wakes_exactly_at_completion() {
        use emerald_common::event::NextEvent;
        let (mut ch, map) = channel();
        ch.enqueue(req(1, 0x1000), map.decode(0x1000), 0).unwrap();
        // A queued request pins the clock: the scheduler decides next cycle.
        assert_eq!(NextEvent::next_event(&ch, 0), Some(1));
        ch.tick(0, &mut FrFcfs); // enters service; completion cycle is precomputed
        let done = NextEvent::next_event(&ch, 0).expect("in-service access is a known event");
        let cfg = DramConfig::lpddr3_1333();
        assert_eq!(done, (cfg.t_rcd + cfg.t_cl + cfg.burst_cycles) as Cycle);
        // The whole gap up to the announced wake is dead...
        for c in 1..done {
            ch.tick(c, &mut FrFcfs);
            assert!(pop(&mut ch, c).is_empty(), "completed early at {c}");
            assert_eq!(NextEvent::next_event(&ch, c), Some(done));
        }
        // ...and the wake cycle delivers exactly on time.
        ch.tick(done, &mut FrFcfs);
        assert_eq!(pop(&mut ch, done).len(), 1);
        assert!(ch.is_idle());
        assert_eq!(
            NextEvent::next_event(&ch, done),
            None,
            "idle FR-FCFS channel is fully passive"
        );
    }

    #[test]
    fn snapshot_round_trip_resumes_mid_burst_identically() {
        use emerald_common::snap::{encode, SnapReader};
        let (mut ch, map) = channel();
        // Mix of row hits and a conflict so banks/queue/in-service are all
        // populated mid-flight.
        for i in 0..6u64 {
            ch.enqueue(req(i, i * 128), map.decode(i * 128), 0).unwrap();
        }
        ch.enqueue(req(99, 8 * 32 * 128), map.decode(8 * 32 * 128), 0)
            .unwrap();
        for c in 0..10 {
            ch.tick(c, &mut FrFcfs);
            pop(&mut ch, c);
        }

        let enc = encode(|w| ch.walk(w));

        let (mut twin, _) = channel();
        let mut r = SnapReader::new(&enc);
        twin.walk(&mut r).unwrap();
        r.finish().unwrap();

        // Both channels must now produce byte-identical futures.
        let (resp_a, end_a) = run_until_idle(&mut ch, 10);
        let (resp_b, end_b) = run_until_idle(&mut twin, 10);
        assert_eq!(resp_a, resp_b);
        assert_eq!(end_a, end_b);
        assert_eq!(ch.stats().serviced, twin.stats().serviced);
        assert_eq!(ch.stats().activations, twin.stats().activations);
        assert_eq!(ch.stats().row_hits.num, twin.stats().row_hits.num);
        assert_eq!(ch.stats().source_bytes, twin.stats().source_bytes);
    }

    #[test]
    fn snapshot_restore_rejects_wrong_geometry() {
        use emerald_common::snap::{encode, SnapReader};
        let (mut ch, _) = channel();
        let enc = encode(|w| ch.walk(w));
        let half_banks = DramConfig {
            banks: 4,
            ..DramConfig::lpddr3_1333()
        };
        let mut other = DramChannel::new(half_banks);
        let mut r = SnapReader::new(&enc);
        assert!(other.walk(&mut r).is_err());
    }

    #[test]
    fn snapshot_restore_rejects_a_queued_request_outside_the_banks() {
        use emerald_common::snap::{encode, SnapReader};
        let (mut ch, map) = channel();
        ch.enqueue(req(1, 0), map.decode(0), 0).unwrap();
        let cfg = DramConfig::lpddr3_1333();
        for (rank, bank) in [(0, cfg.banks), (cfg.ranks, 0)] {
            ch.queue[0].loc.rank = rank;
            ch.queue[0].loc.bank = bank;
            let enc = encode(|w| ch.walk(w));
            let (mut other, _) = channel();
            assert!(matches!(
                other.walk(&mut SnapReader::new(&enc)),
                Err(SnapError::BadValue { what }) if what.contains("loc.rank or loc.bank")
            ));
        }
    }

    /// A scheduler with one rank for every source and an epoch that never
    /// moves: changing the rank behind a channel's back is a missed epoch.
    #[derive(Debug)]
    struct OneRank(u64);

    impl DramScheduler for OneRank {
        fn rank(&self, _: TrafficSource) -> u64 {
            self.0
        }
    }

    /// The key audit's canaries (`pick` runs the audit in debug builds;
    /// these call it directly, so they hold in any build): a skipped
    /// row-miss refresh and a skipped re-rank each leave a stale key the
    /// audit names.
    #[test]
    #[should_panic(expected = "stale pick key at queue index 0")]
    fn audit_catches_a_skipped_row_miss_refresh() {
        let (mut ch, map) = channel();
        // Two lines of one row: both miss while the bank is closed.
        ch.enqueue(req(1, 0), map.decode(0), 0).unwrap();
        ch.enqueue(req(2, 128), map.decode(128), 0).unwrap();
        assert_eq!(ch.pick(&FrFcfs), Some(0));
        ch.audit_keys(&FrFcfs);
        // Open the row as an activation does, without the refresh.
        let loc = map.decode(0);
        ch.banks[bank_index(&loc, ch.cfg.banks)].open_row = Some(loc.row);
        ch.audit_keys(&FrFcfs);
    }

    #[test]
    #[should_panic(expected = "stale pick key at queue index 0")]
    fn audit_catches_a_skipped_re_rank() {
        let (mut ch, map) = channel();
        ch.enqueue(req(1, 0), map.decode(0), 0).unwrap();
        assert_eq!(ch.pick(&OneRank(3)), Some(0));
        ch.audit_keys(&OneRank(3));
        ch.audit_keys(&OneRank(2));
    }

    #[test]
    fn simultaneous_completions_share_one_wake() {
        use emerald_common::event::{earliest, NextEvent};
        let (mut a, map) = channel();
        let (mut b, _) = channel();
        a.enqueue(req(1, 0x1000), map.decode(0x1000), 0).unwrap();
        b.enqueue(req(2, 0x1000), map.decode(0x1000), 0).unwrap();
        a.tick(0, &mut FrFcfs);
        b.tick(0, &mut FrFcfs);
        // Identical requests on identical channels complete at the same
        // cycle, so the combined wake is a single shared event.
        let ta = NextEvent::next_event(&a, 0).unwrap();
        let tb = NextEvent::next_event(&b, 0).unwrap();
        assert_eq!(ta, tb);
        let wake = earliest(NextEvent::next_event(&a, 0), NextEvent::next_event(&b, 0)).unwrap();
        for c in 1..wake {
            a.tick(c, &mut FrFcfs);
            b.tick(c, &mut FrFcfs);
            assert!(pop(&mut a, c).is_empty() && pop(&mut b, c).is_empty());
        }
        a.tick(wake, &mut FrFcfs);
        b.tick(wake, &mut FrFcfs);
        assert_eq!(
            pop(&mut a, wake).len() + pop(&mut b, wake).len(),
            2,
            "both components act at the shared wake cycle"
        );
    }

    #[test]
    fn cached_earliest_completion_equals_a_scan() {
        use emerald_common::snap::{encode, SnapReader};
        emerald_common::check::check("dram_next_done_equals_scan", |rng| {
            let (mut ch, map) = channel();
            let mut out = Vec::new();
            let mut now = 0;
            for step in 0..600u64 {
                match rng.below(8) {
                    0..=2 => {
                        let addr = rng.below(1 << 12) * 128;
                        let _ = ch.enqueue(req(step, addr), map.decode(addr), now);
                    }
                    3..=5 => {
                        ch.tick(now, &mut FrFcfs);
                        now += rng.below(40);
                    }
                    6 => {
                        let due = ch.in_service.iter().filter(|e| e.0 <= now).count();
                        out.clear();
                        ch.pop_finished(now, &mut out);
                        assert_eq!(out.len(), due, "step {step}");
                        assert!(ch.in_service.iter().all(|e| e.0 > now));
                    }
                    _ => {
                        let enc = encode(|w| ch.walk(w));
                        (ch, _) = channel();
                        let mut r = SnapReader::new(&enc);
                        ch.walk(&mut r).unwrap();
                        r.finish().unwrap();
                    }
                }
                assert_eq!(ch.next_done, ch.earliest_done(), "step {step}");
            }
        });
    }
}

//! Set-associative caches with MSHRs.
//!
//! One cache type serves every level of the model: the per-SIMT-core L1
//! instruction/data/texture/depth/constant caches of Table 2, the GPU's
//! shared L2, and the CPU cores' L1/L2. The owner decides what sits below
//! the cache (interconnect, DRAM) and drives it through the outcome values
//! returned by [`Cache::access`] — the cache itself never owns other
//! components, which keeps the hierarchy composable.

use crate::req::ReqId;
use emerald_common::snap::{SnapError, Walk};
use emerald_common::stats::Ratio;
use emerald_common::types::{AccessKind, Addr, Cycle};

/// Static cache parameters. Every cache is write-back, write-allocate:
/// write misses fetch the line and dirty evictions produce writebacks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Name used in statistics dumps.
    pub name: String,
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Cycles from access to data on a hit.
    pub hit_latency: u32,
    /// Number of outstanding missed lines tracked.
    pub mshrs: usize,
    /// Requests that can merge onto one missed line.
    pub targets_per_mshr: usize,
}

impl CacheConfig {
    /// A small write-back cache, convenient for tests.
    pub fn small(name: &str) -> Self {
        Self {
            name: name.to_string(),
            size_bytes: 1 << 12,
            line_bytes: 128,
            ways: 4,
            hit_latency: 1,
            mshrs: 8,
            targets_per_mshr: 8,
        }
    }

    /// Number of sets implied by the geometry.
    fn sets(&self) -> usize {
        self.size_bytes / (self.line_bytes * self.ways)
    }
}

/// Why an access could not be accepted this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallReason {
    /// All MSHRs are in use.
    MshrFull,
    /// The matching MSHR has no free target slot.
    MshrTargetsFull,
    /// Every way in the set is reserved by an in-flight fill.
    SetReserved,
}

/// Outcome of [`Cache::access`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Data available after `hit_latency`.
    Hit,
    /// New miss: the owner must forward a line fill (read) downstream and,
    /// if `writeback` is set, also send the evicted dirty line down.
    Miss {
        /// Dirty victim line address to write back, if any.
        writeback: Option<Addr>,
    },
    /// The line is already being fetched; this request was merged.
    MergedMiss,
    /// Structural hazard; retry next cycle.
    Stall(StallReason),
}

/// A way's state beside its packed tag (see [`Cache`]'s `tags`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    dirty: bool,
    /// Reserved for an in-flight fill.
    pending: bool,
    lru: u64,
}

impl Line {
    const EMPTY: Line = Line {
        dirty: false,
        pending: false,
        lru: 0,
    };
}

/// What [`Cache::access`] decided, before it acts on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lookup {
    /// The line is valid in this way.
    Present(usize),
    /// The line is already being fetched and the MSHR in this slot has a
    /// free target.
    Merge(usize),
    /// A new miss that takes a free MSHR and this victim way.
    Allocate(usize),
    /// Structural hazard.
    Stall(StallReason),
}

/// Per-cache statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Hit ratio over all non-stalled accesses.
    pub hits: Ratio,
    /// Read accesses observed.
    pub reads: u64,
    /// Write accesses observed.
    pub writes: u64,
    /// Lines filled from below.
    pub fills: u64,
    /// Dirty lines written back.
    pub writebacks: u64,
    /// Accesses rejected for structural reasons.
    pub stalls: u64,
}

impl CacheStats {
    /// Total misses (non-merged and merged).
    pub fn misses(&self) -> u64 {
        self.hits.den - self.hits.num
    }

    /// Publishes the counters into `reg` under `prefix` (e.g.
    /// `gpu.core0.l1d` yields `gpu.core0.l1d.hits`, `.reads`, …).
    pub fn publish(&self, reg: &mut emerald_obs::Registry, prefix: &str) {
        reg.set_ratio(format!("{prefix}.hits"), self.hits);
        reg.set_counter(format!("{prefix}.misses"), self.misses());
        reg.set_counter(format!("{prefix}.reads"), self.reads);
        reg.set_counter(format!("{prefix}.writes"), self.writes);
        reg.set_counter(format!("{prefix}.fills"), self.fills);
        reg.set_counter(format!("{prefix}.writebacks"), self.writebacks);
        reg.set_counter(format!("{prefix}.stalls"), self.stalls);
    }
}

/// A set-associative, MSHR-based cache (timing + tag state only; data lives
/// in the functional [`MemImage`](crate::image::MemImage)).
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// Every way of every set, set after set (`sets × ways`), as
    /// `tag << 1 | valid`: a hit is one compare per way, and an 8-way set
    /// is one host cache line.
    tags: Vec<u64>,
    /// The rest of each way's state, indexed like `tags`.
    lines: Vec<Line>,
    /// `log2(line_bytes)`.
    line_shift: u32,
    /// Number of sets minus one.
    set_mask: usize,
    /// `log2(line_bytes × sets)`: a line address shifted right by this is
    /// its tag.
    tag_shift: u32,
    /// The MSHR slot table: slot `i` tracks the missed line
    /// `mshr_lines[i]` and the requests merged onto it, `mshr_targets[i]`.
    /// At most `cfg.mshrs` slots, in no particular order; a lookup is a
    /// linear search of `mshr_lines`.
    mshr_lines: Vec<Addr>,
    /// The targets of each slot, indexed like `mshr_lines`.
    mshr_targets: Vec<Vec<(ReqId, AccessKind)>>,
    lru_tick: u64,
    stats: CacheStats,
    /// The stall memo: the `(line, kind)` of the last access that stalled
    /// and why. A stall is decided from tag and MSHR state alone and
    /// changes none of it, so until a non-stalled access, a fill or a
    /// restore clears this, the same access stalls for the same
    /// reason and [`Cache::access`] only has to count it. Derived state:
    /// never serialized.
    last_stall: Option<(Addr, AccessKind, StallReason)>,
    /// Target vectors of retired MSHRs, kept for the next allocated miss.
    spare_targets: Vec<Vec<(ReqId, AccessKind)>>,
    /// The readers the last [`Cache::fill`] released; storage reused.
    filled: Vec<ReqId>,
}

impl Cache {
    /// Builds a cache from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (size not divisible into
    /// `ways × line_bytes` power-of-two sets).
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.line_bytes.is_power_of_two(), "line size must be 2^n");
        assert!(cfg.ways > 0 && cfg.size_bytes.is_multiple_of(cfg.line_bytes * cfg.ways));
        let sets = cfg.sets();
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        let line_shift = cfg.line_bytes.trailing_zeros();
        let tag_shift = line_shift + sets.trailing_zeros();
        assert!(
            tag_shift > 0,
            "a one-byte, one-set cache leaves no room for the valid bit"
        );
        Self {
            tags: vec![0; sets * cfg.ways],
            lines: vec![Line::EMPTY; sets * cfg.ways],
            line_shift,
            set_mask: sets - 1,
            tag_shift,
            mshr_lines: Vec::new(),
            mshr_targets: Vec::new(),
            lru_tick: 0,
            cfg,
            stats: CacheStats::default(),
            last_stall: None,
            spare_targets: Vec::new(),
            filled: Vec::new(),
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Statistics so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets statistics (e.g. between frames) without touching contents.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Line-aligns an address.
    pub fn line_addr(&self, addr: Addr) -> Addr {
        addr & !(self.cfg.line_bytes as u64 - 1)
    }

    fn set_index(&self, line: Addr) -> usize {
        (line >> self.line_shift) as usize & self.set_mask
    }

    fn tag(&self, line: Addr) -> u64 {
        line >> self.tag_shift
    }

    /// Index of set `si`'s first way in `tags` and `lines`.
    fn base(&self, si: usize) -> usize {
        si * self.cfg.ways
    }

    /// Performs a timed access for request `id` at `addr`.
    ///
    /// The address may be unaligned; the cache operates on its line. See
    /// [`Access`] for what the owner must do next. `_now` is accepted for
    /// future latency-dependent policies; current replacement is
    /// access-order LRU.
    pub fn access(&mut self, addr: Addr, kind: AccessKind, id: ReqId, _now: Cycle) -> Access {
        self.access_with(addr, kind, id, || false)
    }

    /// [`Cache::access`] for an owner that may answer a new miss at once.
    ///
    /// On a new miss, and only then, `below` is called once, after the
    /// victim is chosen. If it returns true the line arrived in the same
    /// call: it is installed valid (dirty for a write) and counted as a
    /// fill, exactly as [`Cache::access`] followed by [`Cache::fill`]
    /// leaves it, and no MSHR is taken. If it returns false the miss takes
    /// an MSHR as [`Cache::access`]'s does. Either way the outcome is
    /// [`Access::Miss`], with the victim's writeback.
    pub fn access_with(
        &mut self,
        addr: Addr,
        kind: AccessKind,
        id: ReqId,
        below: impl FnOnce() -> bool,
    ) -> Access {
        let line = self.line_addr(addr);
        self.lru_tick += 1;
        match kind {
            AccessKind::Read => self.stats.reads += 1,
            AccessKind::Write => self.stats.writes += 1,
        }

        // A blocked owner retries the same access every cycle.
        if let Some((l, k, reason)) = self.last_stall {
            if (l, k) == (line, kind) {
                debug_assert_eq!(
                    self.lookup(self.set_index(line), self.tag(line), line),
                    Lookup::Stall(reason),
                    "stall memo outlived the state it was decided on"
                );
                self.stats.stalls += 1;
                return Access::Stall(reason);
            }
        }

        let si = self.set_index(line);
        let tag = self.tag(line);
        let tick = self.lru_tick;
        let found = self.lookup(si, tag, line);
        self.last_stall = None;
        match found {
            Lookup::Stall(reason) => {
                self.stats.stalls += 1;
                self.last_stall = Some((line, kind, reason));
                Access::Stall(reason)
            }
            Lookup::Present(way) => {
                let at = self.base(si) + way;
                let l = &mut self.lines[at];
                l.lru = tick;
                l.dirty |= kind == AccessKind::Write;
                self.stats.hits.record(true);
                Access::Hit
            }
            Lookup::Merge(slot) => {
                self.mshr_targets[slot].push((id, kind));
                self.stats.hits.record(false);
                Access::MergedMiss
            }
            Lookup::Allocate(way) => {
                let at = self.base(si) + way;
                let victim = self.tags[at];
                let writeback = if victim & 1 == 1 && self.lines[at].dirty {
                    self.stats.writebacks += 1;
                    // Reconstruct the victim's line address.
                    Some(victim >> 1 << self.tag_shift | (si as u64) << self.line_shift)
                } else {
                    None
                };
                self.stats.hits.record(false);
                let filled = below();
                self.tags[at] = tag << 1 | filled as u64;
                self.lines[at] = Line {
                    dirty: filled && kind == AccessKind::Write,
                    pending: !filled,
                    lru: tick,
                };
                if filled {
                    self.stats.fills += 1;
                } else {
                    let mut targets = self.spare_targets.pop().unwrap_or_default();
                    targets.push((id, kind));
                    self.mshr_lines.push(line);
                    self.mshr_targets.push(targets);
                }
                Access::Miss { writeback }
            }
        }
    }

    /// True when an access of `kind` to `addr`'s line is the memoised
    /// stall: retried, it stalls again and changes nothing but the
    /// counters [`Cache::book_stalls`] adds, until a fill, a restore or a
    /// different access clears the memo. An owner blocked on
    /// such an access has no event of its own.
    pub fn is_stalled_on(&self, addr: Addr, kind: AccessKind) -> bool {
        self.last_stall
            .is_some_and(|(l, k, _)| (l, k) == (self.line_addr(addr), kind))
    }

    /// Books `n` retries of the access `(addr, kind)` without making them,
    /// if it is the memoised stall: what `n` calls of [`Cache::access`]
    /// would have counted. Any other access is not a known no-op and books
    /// nothing.
    pub fn book_stalls(&mut self, addr: Addr, kind: AccessKind, n: u64) {
        if !self.is_stalled_on(addr, kind) {
            return;
        }
        self.lru_tick += n;
        match kind {
            AccessKind::Read => self.stats.reads += n,
            AccessKind::Write => self.stats.writes += n,
        }
        self.stats.stalls += n;
    }

    /// What an access to `line` (set `si`, tag `tag`) would do, decided
    /// without changing anything.
    fn lookup(&self, si: usize, tag: u64, line: Addr) -> Lookup {
        let ways = self.base(si)..self.base(si) + self.cfg.ways;
        let tags = &self.tags[ways.clone()];
        if let Some(way) = tags.iter().position(|&t| t == tag << 1 | 1) {
            return Lookup::Present(way);
        }
        if let Some(slot) = self.mshr_slot(line) {
            return if self.mshr_targets[slot].len() >= self.cfg.targets_per_mshr {
                Lookup::Stall(StallReason::MshrTargetsFull)
            } else {
                Lookup::Merge(slot)
            };
        }
        // New miss: need an MSHR and a victim way.
        if self.mshr_lines.len() >= self.cfg.mshrs {
            return Lookup::Stall(StallReason::MshrFull);
        }
        let set = &self.lines[ways];
        let mut best: Option<usize> = None;
        for (i, l) in set.iter().enumerate() {
            if l.pending {
                continue;
            }
            if tags[i] & 1 == 0 {
                best = Some(i);
                break;
            }
            best = match best {
                None => Some(i),
                Some(b) if l.lru < set[b].lru => Some(i),
                b => b,
            };
        }
        match best {
            Some(way) => Lookup::Allocate(way),
            None => Lookup::Stall(StallReason::SetReserved),
        }
    }

    /// The MSHR slot tracking `line`, if it is in flight.
    fn mshr_slot(&self, line: Addr) -> Option<usize> {
        self.mshr_lines.iter().position(|&l| l == line)
    }

    /// Completes a fill for `line` (line-aligned). Returns the ids of read
    /// requests waiting on it, in a buffer the next fill reuses. If any
    /// merged target was a write, the line becomes dirty.
    ///
    /// Fills for lines with no MSHR are ignored and return an empty list.
    pub fn fill(&mut self, line: Addr) -> &[ReqId] {
        self.filled.clear();
        let Some(slot) = self.mshr_slot(line) else {
            return &self.filled;
        };
        self.mshr_lines.swap_remove(slot);
        let mut targets = self.mshr_targets.swap_remove(slot);
        self.last_stall = None;
        self.stats.fills += 1;
        let si = self.set_index(line);
        let tag = self.tag(line);
        let any_write = targets.iter().any(|(_, k)| *k == AccessKind::Write);
        let base = self.base(si);
        let ways = base..base + self.cfg.ways;
        if let Some(at) = ways
            .into_iter()
            .find(|&at| self.lines[at].pending && self.tags[at] >> 1 == tag)
        {
            self.tags[at] |= 1;
            let l = &mut self.lines[at];
            l.pending = false;
            l.dirty = any_write;
        }
        let readers = targets.iter().filter(|(_, k)| *k == AccessKind::Read);
        self.filled.extend(readers.map(|(id, _)| *id));
        targets.clear();
        self.spare_targets.push(targets);
        &self.filled
    }

    /// Number of in-flight missed lines.
    pub fn pending_lines(&self) -> usize {
        self.mshr_lines.len()
    }

    /// Walks the tags, the MSHRs and the statistics for a snapshot. The
    /// stall memo is derived state and a read clears it.
    pub fn walk(&mut self, w: &mut impl Walk) -> Result<(), SnapError> {
        let ways = self.cfg.ways;
        w.expect(self.tags.len() / ways, "cache set count mismatch")?;
        // Every tag this geometry can produce leaves `tag_shift` high bits
        // clear.
        let widest = u64::MAX >> self.tag_shift;
        for (tags, lines) in self.tags.chunks_mut(ways).zip(self.lines.chunks_mut(ways)) {
            w.expect(ways, "cache way count mismatch")?;
            for (packed, line) in tags.iter_mut().zip(lines) {
                let (mut tag, mut valid) = (*packed >> 1, *packed & 1 == 1);
                w.u64(&mut tag)?;
                w.check(tag <= widest, "cache tag too wide for the geometry")?;
                w.bool(&mut valid)?;
                *packed = tag << 1 | valid as u64;
                w.bool(&mut line.dirty)?;
                w.bool(&mut line.pending)?;
                w.u64(&mut line.lru)?;
            }
        }
        // Slot order is never observed (a lookup searches, a fill
        // swap-removes), so the slots go out sorted by line, which gives
        // identical caches identical bytes, and come back in that order.
        let lines = self.mshr_lines.drain(..);
        let mut slots: Vec<_> = lines.zip(self.mshr_targets.drain(..)).collect();
        slots.sort_unstable_by_key(|&(line, _)| line);
        w.seq(&mut slots, 9, |w, (line, targets)| {
            w.u64(line)?;
            w.seq(targets, 9, |w, (id, kind)| {
                w.u64(id)?;
                kind.walk(w)
            })
        })?;
        slots.sort_unstable_by_key(|&(line, _)| line);
        w.check(
            slots.len() <= self.cfg.mshrs,
            "more MSHRs than the cache configuration allows",
        )?;
        w.check(
            slots.windows(2).all(|p| p[0].0 != p[1].0),
            "two MSHRs for one cache line",
        )?;
        for (line, targets) in slots {
            self.mshr_lines.push(line);
            self.mshr_targets.push(targets);
        }
        w.u64(&mut self.lru_tick)?;
        let s = &mut self.stats;
        s.hits.walk(w)?;
        for n in [
            &mut s.reads,
            &mut s.writes,
            &mut s.fills,
            &mut s.writebacks,
            &mut s.stalls,
        ] {
            w.u64(n)?;
        }
        if w.reading() {
            self.last_stall = None;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emerald_common::snap::{encode, SnapReader, SnapWriter};

    fn cache() -> Cache {
        Cache::new(CacheConfig::small("t"))
    }

    #[test]
    fn geometry() {
        let c = cache();
        assert_eq!(c.config().sets(), 8);
        assert_eq!(c.line_addr(0x12345), 0x12300);
    }

    #[test]
    fn snapshot_round_trip_preserves_contents_mshrs_and_stats() {
        let mut c = cache();
        // Populate: a filled dirty line, a pending miss with a merged
        // target, and some stat traffic.
        c.access(0x1000, AccessKind::Write, 1, 0);
        c.fill(0x1000);
        c.access(0x2000, AccessKind::Read, 2, 1);
        c.access(0x2004, AccessKind::Read, 3, 2);

        let enc = bytes(&mut c);
        let mut d = cache();
        let mut r = SnapReader::new(&enc);
        d.walk(&mut r).unwrap();
        r.finish().unwrap();

        // Future behavior must match exactly: the pending fill completes
        // with the same waiters, hits stay hits, stats agree.
        assert_eq!(d.stats().hits, c.stats().hits);
        assert_eq!(d.pending_lines(), 1);
        assert_eq!(d.fill(0x2000), c.fill(0x2000));
        assert_eq!(
            d.access(0x1000, AccessKind::Read, 9, 5),
            c.access(0x1000, AccessKind::Read, 9, 5)
        );

        // A geometry mismatch is a typed error, not UB.
        let mut tiny = Cache::new(CacheConfig {
            size_bytes: 2 * 128,
            ways: 1,
            ..CacheConfig::small("t")
        });
        let mut r = SnapReader::new(&enc);
        assert!(matches!(tiny.walk(&mut r), Err(SnapError::BadValue { .. })));
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = cache();
        match c.access(0x1000, AccessKind::Read, 1, 0) {
            Access::Miss { writeback: None } => {}
            o => panic!("expected clean miss, got {o:?}"),
        }
        // Same line, different word: merges.
        assert_eq!(c.access(0x1004, AccessKind::Read, 2, 1), Access::MergedMiss);
        let waiting = c.fill(0x1000);
        assert_eq!(waiting, vec![1, 2]);
        assert_eq!(c.access(0x1000, AccessKind::Read, 3, 2), Access::Hit);
    }

    #[test]
    fn writeback_on_dirty_eviction() {
        let mut c = cache();
        // Fill a line, dirty it, then evict it by filling the same set with
        // 4 more distinct tags (4-way).
        let set_stride = 8 * 128; // sets * line
        c.access(0x0, AccessKind::Write, 1, 0);
        c.fill(0x0);
        assert_eq!(c.access(0x0, AccessKind::Write, 2, 1), Access::Hit); // dirty
        let mut evicted_writeback = None;
        for i in 1..=4u64 {
            match c.access(i * set_stride, AccessKind::Read, 10 + i, 2) {
                Access::Miss { writeback } => {
                    if writeback.is_some() {
                        evicted_writeback = writeback;
                    }
                    c.fill(i * set_stride);
                }
                o => panic!("expected miss, got {o:?}"),
            }
        }
        assert_eq!(evicted_writeback, Some(0x0));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn mshr_exhaustion_stalls() {
        let mut cfg = CacheConfig::small("m");
        cfg.mshrs = 2;
        let mut c = Cache::new(cfg);
        assert!(matches!(
            c.access(0x0, AccessKind::Read, 1, 0),
            Access::Miss { .. }
        ));
        assert!(matches!(
            c.access(0x1000, AccessKind::Read, 2, 0),
            Access::Miss { .. }
        ));
        assert_eq!(
            c.access(0x2000, AccessKind::Read, 3, 0),
            Access::Stall(StallReason::MshrFull)
        );
        assert_eq!(c.stats().stalls, 1);
    }

    #[test]
    fn target_merge_limit_stalls() {
        let mut cfg = CacheConfig::small("tm");
        cfg.targets_per_mshr = 2;
        let mut c = Cache::new(cfg);
        c.access(0x0, AccessKind::Read, 1, 0);
        assert_eq!(c.access(0x4, AccessKind::Read, 2, 0), Access::MergedMiss);
        assert_eq!(
            c.access(0x8, AccessKind::Read, 3, 0),
            Access::Stall(StallReason::MshrTargetsFull)
        );
    }

    #[test]
    fn set_reservation_stalls_when_all_ways_pending() {
        let mut cfg = CacheConfig::small("sr");
        cfg.mshrs = 16;
        let mut c = Cache::new(cfg);
        let set_stride = 8 * 128;
        for i in 0..4u64 {
            assert!(matches!(
                c.access(i * set_stride, AccessKind::Read, i, 0),
                Access::Miss { .. }
            ));
        }
        assert_eq!(
            c.access(4 * set_stride, AccessKind::Read, 99, 0),
            Access::Stall(StallReason::SetReserved)
        );
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = cache(); // 4-way
        let set_stride = 8 * 128;
        // Fill 4 ways of set 0.
        for i in 0..4u64 {
            c.access(i * set_stride, AccessKind::Read, i, 0);
            c.fill(i * set_stride);
        }
        // Touch lines 1..3 so line 0 is LRU.
        for i in 1..4u64 {
            assert_eq!(
                c.access(i * set_stride, AccessKind::Read, 10 + i, 1),
                Access::Hit
            );
        }
        // New tag evicts line 0.
        c.access(4 * set_stride, AccessKind::Read, 20, 2);
        c.fill(4 * set_stride);
        assert_eq!(c.access(set_stride, AccessKind::Read, 21, 3), Access::Hit);
        assert!(matches!(
            c.access(0, AccessKind::Read, 22, 3),
            Access::Miss { .. }
        ));
    }

    #[test]
    fn write_merge_marks_dirty_on_fill() {
        let mut c = cache();
        c.access(0x0, AccessKind::Read, 1, 0);
        assert_eq!(c.access(0x8, AccessKind::Write, 2, 0), Access::MergedMiss);
        let readers = c.fill(0x0);
        assert_eq!(readers, vec![1]); // write target not returned
                                      // Evicting now must produce a writeback (dirty via merged write).
        let set_stride = 8 * 128;
        for i in 1..=4u64 {
            if let Access::Miss {
                writeback: Some(wb),
            } = c.access(i * set_stride, AccessKind::Read, 10 + i, 1)
            {
                assert_eq!(wb, 0x0);
                return;
            }
            c.fill(i * set_stride);
        }
        panic!("dirty line was never evicted");
    }

    #[test]
    fn stats_hit_rate() {
        let mut c = cache();
        c.access(0x0, AccessKind::Read, 1, 0);
        c.fill(0x0);
        for _ in 0..9 {
            c.access(0x0, AccessKind::Read, 2, 1);
        }
        assert!((c.stats().hits.value() - 0.9).abs() < 1e-9);
        assert_eq!(c.stats().misses(), 1);
    }

    /// The set-of-vectors cache the flat arrays replaced, as it was
    /// written (less the stall memo, which `stall_memo_is_invisible`
    /// covers): per-set `Vec`s of full lines, set and tag by division.
    struct RefCache {
        cfg: CacheConfig,
        sets: Vec<Vec<RefLine>>,
        mshrs: std::collections::BTreeMap<Addr, Vec<(ReqId, AccessKind)>>,
        lru_tick: u64,
        stats: CacheStats,
    }

    #[derive(Clone, Copy, Default)]
    struct RefLine {
        tag: u64,
        valid: bool,
        dirty: bool,
        pending: bool,
        lru: u64,
    }

    impl RefCache {
        fn new(cfg: CacheConfig) -> Self {
            Self {
                sets: vec![vec![RefLine::default(); cfg.ways]; cfg.sets()],
                mshrs: Default::default(),
                lru_tick: 0,
                stats: CacheStats::default(),
                cfg,
            }
        }

        fn set_and_tag(&self, line: Addr) -> (usize, u64) {
            let n = line / self.cfg.line_bytes as u64;
            let sets = self.sets.len() as u64;
            ((n % sets) as usize, n / sets)
        }

        fn access(&mut self, addr: Addr, kind: AccessKind, id: ReqId) -> Access {
            let line = addr & !(self.cfg.line_bytes as u64 - 1);
            self.lru_tick += 1;
            match kind {
                AccessKind::Read => self.stats.reads += 1,
                AccessKind::Write => self.stats.writes += 1,
            }
            let (si, tag) = self.set_and_tag(line);
            let tick = self.lru_tick;
            let set = &mut self.sets[si];
            if let Some(l) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
                l.lru = tick;
                l.dirty |= kind == AccessKind::Write;
                self.stats.hits.record(true);
                return Access::Hit;
            }
            let stall = |s: &mut CacheStats, reason| {
                s.stalls += 1;
                Access::Stall(reason)
            };
            if let Some(targets) = self.mshrs.get_mut(&line) {
                if targets.len() >= self.cfg.targets_per_mshr {
                    return stall(&mut self.stats, StallReason::MshrTargetsFull);
                }
                targets.push((id, kind));
                self.stats.hits.record(false);
                return Access::MergedMiss;
            }
            if self.mshrs.len() >= self.cfg.mshrs {
                return stall(&mut self.stats, StallReason::MshrFull);
            }
            let free = set.iter().position(|l| !l.pending && !l.valid);
            let lru = (0..set.len())
                .filter(|&i| !set[i].pending)
                .min_by_key(|&i| set[i].lru);
            let Some(way) = free.or(lru) else {
                return stall(&mut self.stats, StallReason::SetReserved);
            };
            let victim = set[way];
            let writeback = (victim.valid && victim.dirty).then(|| {
                self.stats.writebacks += 1;
                (victim.tag * self.sets.len() as u64 + si as u64) * self.cfg.line_bytes as u64
            });
            self.sets[si][way] = RefLine {
                tag,
                pending: true,
                lru: tick,
                ..RefLine::default()
            };
            self.mshrs.insert(line, vec![(id, kind)]);
            self.stats.hits.record(false);
            Access::Miss { writeback }
        }

        fn fill(&mut self, line: Addr) -> Vec<ReqId> {
            let Some(targets) = self.mshrs.remove(&line) else {
                return Vec::new();
            };
            self.stats.fills += 1;
            let (si, tag) = self.set_and_tag(line);
            let any_write = targets.iter().any(|(_, k)| *k == AccessKind::Write);
            if let Some(l) = self.sets[si].iter_mut().find(|l| l.pending && l.tag == tag) {
                l.valid = true;
                l.pending = false;
                l.dirty = any_write;
            }
            let readers = targets.iter().filter(|(_, k)| *k == AccessKind::Read);
            readers.map(|(id, _)| *id).collect()
        }

        /// The snapshot bytes, put field by field.
        fn bytes(&self) -> Vec<u8> {
            let put = |w: &mut SnapWriter, mut v: u64| w.u64(&mut v);
            encode(|w| {
                w.usize(&mut self.sets.len())?;
                for set in &self.sets {
                    w.usize(&mut set.len())?;
                    for l in set {
                        put(w, l.tag)?;
                        for mut b in [l.valid, l.dirty, l.pending] {
                            w.bool(&mut b)?;
                        }
                        put(w, l.lru)?;
                    }
                }
                w.usize(&mut self.mshrs.len())?;
                for (&addr, targets) in &self.mshrs {
                    put(w, addr)?;
                    w.usize(&mut targets.len())?;
                    for &(id, mut kind) in targets {
                        put(w, id)?;
                        kind.walk(w)?;
                    }
                }
                let s = &self.stats;
                let (num, den) = (s.hits.num, s.hits.den);
                [
                    self.lru_tick,
                    num,
                    den,
                    s.reads,
                    s.writes,
                    s.fills,
                    s.writebacks,
                    s.stalls,
                ]
                .into_iter()
                .try_for_each(|n| put(w, n))
            })
        }
    }

    fn bytes(c: &mut Cache) -> Vec<u8> {
        encode(|w| c.walk(w))
    }

    /// Random geometries and access / fill / restore streams over a few
    /// lines that collide in few sets, some with their tag's top bits set:
    /// the flat cache and the reference return the same outcomes and
    /// readers, keep the same statistics and write the same snapshot
    /// bytes. Some accesses go through [`Cache::access_with`] with a
    /// random answer from below; the reference makes them as an access
    /// followed, on a new miss answered true, by that line's fill, and
    /// `below` must be called exactly on the new misses.
    #[test]
    fn flat_sets_equal_the_set_of_vectors_reference() {
        emerald_common::check::check("cache_flat_equals_reference", |rng| {
            let line_bytes = [32, 64, 128][rng.below(3) as usize];
            let ways = [1, 2, 4, 8][rng.below(4) as usize];
            let cfg = CacheConfig {
                size_bytes: (line_bytes * ways) << rng.below(5),
                line_bytes,
                ways,
                mshrs: rng.range(1, 7) as usize,
                targets_per_mshr: rng.range(1, 5) as usize,
                ..CacheConfig::small("flat")
            };
            let mut flat = Cache::new(cfg.clone());
            let mut reference = RefCache::new(cfg);
            let pool: Vec<Addr> = (0..rng.range(2, 24))
                .map(|_| rng.below(1 << 16) << 7 | rng.below(4) << 62)
                .collect();
            for id in 0..rng.range(50, 400) {
                let addr = pool[rng.below(pool.len() as u64) as usize] + rng.below(32);
                match rng.below(10) {
                    0..=2 => {
                        let line = flat.line_addr(addr);
                        assert_eq!(flat.fill(line), reference.fill(line), "fill {id}");
                    }
                    3 if rng.chance(0.2) => {
                        flat = Cache::new(flat.cfg.clone());
                        flat.walk(&mut SnapReader::new(&reference.bytes())).unwrap();
                    }
                    n => {
                        let kind = if rng.chance(0.3) {
                            AccessKind::Write
                        } else {
                            AccessKind::Read
                        };
                        let want = reference.access(addr, kind, id);
                        if n < 7 {
                            let got = flat.access(addr, kind, id, id);
                            assert_eq!(got, want, "access {id}");
                        } else {
                            let answer = rng.chance(0.5);
                            let mut asked = false;
                            let got = flat.access_with(addr, kind, id, || {
                                asked = true;
                                answer
                            });
                            assert_eq!(got, want, "access_with {id}");
                            let missed = matches!(want, Access::Miss { .. });
                            assert_eq!(asked, missed, "below called on {want:?}");
                            if missed && answer {
                                reference.fill(flat.line_addr(addr));
                            }
                        }
                    }
                }
                assert_eq!(flat.stats(), &reference.stats);
            }
            assert_eq!(bytes(&mut flat), reference.bytes());
        });
    }

    #[test]
    fn restore_rejects_a_tag_too_wide_for_the_geometry() {
        // 8 sets of 128-byte lines: a tag has 64 - 10 bits.
        let mut reference = RefCache::new(CacheConfig::small("t"));
        for (tag, ok) in [(u64::MAX >> 10, true), ((u64::MAX >> 10) + 1, false)] {
            reference.sets[3][1].tag = tag;
            let got = cache().walk(&mut SnapReader::new(&reference.bytes()));
            assert_eq!(got.is_ok(), ok, "tag {tag:#x}");
        }
    }

    /// A snapshot naming one line in two MSHRs describes no state an
    /// access can reach; restore refuses it rather than merging the two.
    #[test]
    fn restore_rejects_two_mshrs_for_one_line() {
        let (a, b) = (0x5a5a_5a00u64, 0x6b6b_6b00u64);
        let mut reference = RefCache::new(CacheConfig::small("t"));
        reference.mshrs.insert(a, vec![(1, AccessKind::Read)]);
        reference.mshrs.insert(b, vec![(2, AccessKind::Write)]);
        let distinct = reference.bytes();
        let mut c = cache();
        c.walk(&mut SnapReader::new(&distinct)).unwrap();
        assert_eq!(c.pending_lines(), 2);
        assert_eq!(bytes(&mut c), distinct);

        let at = distinct
            .windows(8)
            .position(|w| w == b.to_le_bytes())
            .expect("the second MSHR's line is in the bytes");
        let mut twice = distinct.clone();
        twice[at..at + 8].copy_from_slice(&a.to_le_bytes());
        assert_eq!(
            cache().walk(&mut SnapReader::new(&twice)),
            Err(SnapError::BadValue {
                what: "two MSHRs for one cache line"
            })
        );
    }

    /// Random access / fill / restore traffic on a cache small
    /// enough to hit all three stall reasons, with most accesses repeating
    /// the previous one the way a blocked LSU head does, some of them
    /// through [`Cache::access_with`] with a random answer from below: the
    /// cache that keeps its stall memo and a twin that forgets it before
    /// every access return the same outcomes and end in the same bytes.
    #[test]
    fn stall_memo_is_invisible() {
        emerald_common::check::check("cache_stall_memo", |rng| {
            let cfg = CacheConfig {
                size_bytes: 2 * 2 * 128, // 2 sets x 2 ways
                ways: 2,
                mshrs: 3,
                targets_per_mshr: 2,
                ..CacheConfig::small("p")
            };
            let mut memo = Cache::new(cfg.clone());
            let mut plain = Cache::new(cfg);
            let mut last = (0, AccessKind::Read);
            let mut stalls = [0u32; 3];
            for id in 0..600u64 {
                match rng.below(20) {
                    0..=2 => {
                        let line = rng.below(12) * 128;
                        assert_eq!(memo.fill(line), plain.fill(line));
                    }
                    4 if rng.chance(0.2) => {
                        let enc = bytes(&mut plain);
                        memo.walk(&mut SnapReader::new(&enc)).unwrap();
                    }
                    n => {
                        if n >= 12 {
                            let kind = if rng.chance(0.3) {
                                AccessKind::Write
                            } else {
                                AccessKind::Read
                            };
                            last = (rng.below(12) * 128 + rng.below(128), kind);
                        }
                        plain.last_stall = None;
                        let got = if rng.chance(0.3) {
                            let answer = rng.chance(0.5);
                            let got = memo.access_with(last.0, last.1, id, || answer);
                            let want = plain.access_with(last.0, last.1, id, || answer);
                            assert_eq!(got, want, "access_with {id}");
                            got
                        } else {
                            let got = memo.access(last.0, last.1, id, id);
                            assert_eq!(got, plain.access(last.0, last.1, id, id), "access {id}");
                            got
                        };
                        match got {
                            Access::Stall(StallReason::MshrFull) => stalls[0] += 1,
                            Access::Stall(StallReason::MshrTargetsFull) => stalls[1] += 1,
                            Access::Stall(StallReason::SetReserved) => stalls[2] += 1,
                            _ => {}
                        }
                    }
                }
                assert_eq!(memo.stats(), plain.stats());
            }
            assert_eq!(bytes(&mut memo), bytes(&mut plain));
            assert!(
                stalls.iter().sum::<u32>() > 20,
                "stalls by reason: {stalls:?}"
            );
        });
    }
}

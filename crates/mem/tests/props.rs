//! Property tests for the memory substrate, on the in-tree deterministic
//! harness (`emerald_common::check`); the offline build has no proptest.

use emerald_common::check::check;
use emerald_common::event::NextEvent;
use emerald_common::rng::Xorshift64;
use emerald_common::types::Cycle;
use emerald_common::types::{AccessKind, TrafficSource};
use emerald_mem::cache::{Access, Cache, CacheConfig};
use emerald_mem::dash::{Clustering, DashConfig, DashShared};
use emerald_mem::dram::{DramChannel, DramConfig};
use emerald_mem::mapping::{AddressMapping, MappingScheme};
use emerald_mem::req::MemRequest;
use emerald_mem::sched::{DramScheduler, FrFcfs};

fn arbitrary_mapping(rng: &mut Xorshift64) -> AddressMapping {
    let scheme = if rng.chance(0.5) {
        MappingScheme::RowRankBankColChan
    } else {
        MappingScheme::RowColRankBankChan
    };
    AddressMapping {
        scheme,
        channels: rng.range(1, 5) as usize,
        ranks: rng.range(1, 3) as usize,
        banks: [4usize, 8, 16][rng.below(3) as usize],
        cols_per_row: [16u64, 32, 64][rng.below(3) as usize],
        line_bytes: 128,
    }
}

/// Address mappings are bijections on line-aligned addresses.
#[test]
fn mapping_roundtrip() {
    check("mapping_roundtrip", |rng| {
        let m = arbitrary_mapping(rng);
        let aligned = rng.below(1 << 30) & !(128 - 1);
        let loc = m.decode(aligned);
        assert!(loc.channel < m.channels);
        assert!(loc.rank < m.ranks);
        assert!(loc.bank < m.banks);
        assert!(loc.col < m.cols_per_row);
        assert_eq!(m.encode(loc), aligned);
    });
}

/// Distinct line addresses decode to distinct locations.
#[test]
fn mapping_is_injective() {
    check("mapping_is_injective", |rng| {
        let m = arbitrary_mapping(rng);
        let a = rng.below(1 << 22) & !(128 - 1);
        let b = rng.below(1 << 22) & !(128 - 1);
        if a != b {
            assert_ne!(m.decode(a), m.decode(b));
        }
    });
}

/// Cache invariants under arbitrary access/fill interleavings: stats
/// add up, MSHR occupancy is bounded, and every fill is consistent.
#[test]
fn cache_invariants() {
    check("cache_invariants", |rng| {
        let mut cfg = CacheConfig::small("prop");
        cfg.mshrs = 4;
        let mshr_cap = cfg.mshrs;
        let mut cache = Cache::new(cfg);
        let mut pending: Vec<u64> = Vec::new();
        let n_ops = rng.range(1, 200);
        for i in 0..n_ops {
            let line_idx = rng.below(64);
            let is_write = rng.chance(0.5);
            let do_fill = rng.chance(0.5);
            let addr = line_idx * 128;
            if do_fill && !pending.is_empty() {
                let line = pending.remove(0);
                cache.fill(line);
            }
            let kind = if is_write {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            match cache.access(addr, kind, i, i) {
                Access::Miss { .. } => pending.push(cache.line_addr(addr)),
                Access::Hit | Access::MergedMiss | Access::Stall(_) => {}
            }
            assert!(cache.pending_lines() <= mshr_cap);
        }
        // Drain: after filling everything, reads hit.
        for line in pending {
            cache.fill(line);
        }
        assert_eq!(cache.pending_lines(), 0);
        let s = cache.stats();
        assert_eq!(s.hits.num + s.misses(), s.hits.den);
    });
}

/// The DRAM channel always drains, services every request exactly
/// once, and row-hit accounting is consistent.
#[test]
fn dram_drains_and_services_all() {
    check("dram_drains_and_services_all", |rng| {
        let map = AddressMapping::baseline(1);
        let mut ch = DramChannel::new(DramConfig::lpddr3_1600());
        let mut sent = 0u64;
        let n = rng.range(1, 40);
        for i in 0..n {
            let req = MemRequest {
                id: i,
                addr: rng.below(1 << 20) & !(128 - 1),
                bytes: 128,
                kind: AccessKind::Read,
                source: TrafficSource::Gpu,
                issued: 0,
            };
            if ch.enqueue(req, map.decode(req.addr), 0).is_ok() {
                sent += 1;
            }
        }
        let mut done = Vec::new();
        let mut now = 0;
        while !ch.is_idle() {
            ch.tick(now, &mut FrFcfs);
            ch.pop_finished(now, &mut done);
            now += 1;
            assert!(now < 2_000_000, "channel failed to drain");
        }
        assert_eq!(done.len() as u64, sent);
        let st = ch.stats();
        assert_eq!(st.serviced, sent);
        assert!(st.row_hits.num <= st.row_hits.den);
        assert!(st.activations <= sent);
    });
}

/// A channel whose queue a producer keeps full — every executed cycle it
/// offers its next requests until one is refused — ticked every cycle
/// against a twin that jumps to `next_event`: same completions at the same
/// cycles, same statistics, same bytes. The jumping twin must find the
/// bus-gated stretches (a non-empty queue no longer pins `now + 1`).
fn backlogged_channel_jumps_like_it_ticks<S: DramScheduler>(name: &str, sched: impl Fn() -> S) {
    use emerald_common::snap::encode;
    const SOURCES: [TrafficSource; 3] = [
        TrafficSource::Gpu,
        TrafficSource::Cpu(0),
        TrafficSource::Display,
    ];
    check(name, |rng| {
        let map = AddressMapping::baseline(1);
        let cfg = DramConfig {
            queue_cap: rng.range(2, 17) as usize,
            ..DramConfig::lpddr3_1333()
        };
        let reqs: Vec<MemRequest> = (0..rng.range(40, 160))
            .map(|id| MemRequest {
                id,
                addr: rng.below(1 << 18) & !127,
                bytes: 128,
                kind: if rng.chance(0.3) {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
                source: SOURCES[rng.below(3) as usize],
                issued: 0,
            })
            .collect();
        // One executed cycle: tick, collect, then refill until refused.
        let cycle = |ch: &mut DramChannel, s: &mut S, fed: &mut usize, now: Cycle, out: &mut _| {
            s.tick(now);
            ch.tick(now, s);
            ch.pop_finished(now, out);
            while *fed < reqs.len() {
                let req = MemRequest {
                    issued: now,
                    ..reqs[*fed]
                };
                if ch.enqueue(req, map.decode(req.addr), now).is_err() {
                    break;
                }
                *fed += 1;
            }
        };
        let (mut ticked, mut jumped) = (DramChannel::new(cfg.clone()), DramChannel::new(cfg));
        let (mut s_t, mut s_j) = (sched(), sched());
        let (mut fed_t, mut fed_j) = (0, 0);
        let (mut done_t, mut done_j) = (Vec::new(), Vec::new());
        let (mut now, mut next, mut jumps) = (0, 0, 0u32);
        while fed_t < reqs.len() || !ticked.is_idle() {
            cycle(&mut ticked, &mut s_t, &mut fed_t, now, &mut done_t);
            if now == next {
                cycle(&mut jumped, &mut s_j, &mut fed_j, now, &mut done_j);
                let wake = [jumped.next_event(now), s_j.next_event(now)];
                next = wake.into_iter().flatten().min().unwrap_or(now + 1);
                assert!(next > now);
                jumps += (next > now + 1 && jumped.queue_len() > 0) as u32;
                assert_eq!(done_t, done_j, "completions diverged by cycle {now}");
            }
            now += 1;
            assert!(now < 2_000_000, "channel failed to drain");
        }
        assert!(jumped.is_idle() && fed_j == reqs.len());
        let bytes = |ch: &mut DramChannel| encode(|w| ch.walk(w));
        assert_eq!(
            bytes(&mut ticked),
            bytes(&mut jumped),
            "statistics or bank state diverged"
        );
        assert_eq!(
            format!("{s_t:?}"),
            format!("{s_j:?}"),
            "scheduler state diverged"
        );
        assert!(jumps > 0, "a backlogged queue never let the clock jump");
    });
}

#[test]
fn backlogged_fr_fcfs_channel_jumps_like_it_ticks() {
    backlogged_channel_jumps_like_it_ticks("dram_backlog_frfcfs", || FrFcfs);
}

#[test]
fn backlogged_dash_channel_jumps_like_it_ticks() {
    backlogged_channel_jumps_like_it_ticks("dram_backlog_dash", || {
        let mut dash = DashShared::new(DashConfig::paper(Clustering::CpuOnly));
        dash.set_urgent(TrafficSource::Display, true);
        dash
    });
}

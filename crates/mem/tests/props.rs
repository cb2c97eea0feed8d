//! Property tests for the memory substrate, on the in-tree deterministic
//! harness (`emerald_common::check`); the offline build has no proptest.

use emerald_common::check::check;
use emerald_common::rng::Xorshift64;
use emerald_common::types::{AccessKind, TrafficSource};
use emerald_mem::cache::{Access, Cache, CacheConfig};
use emerald_mem::dram::{DramChannel, DramConfig};
use emerald_mem::mapping::{AddressMapping, MappingScheme};
use emerald_mem::req::MemRequest;
use emerald_mem::sched::FrFcfs;

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
                Access::Hit | Access::MergedMiss | Access::WriteForward | Access::Stall(_) => {}
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

//! Property tests for the metrics registry: merge associativity and
//! snapshot/delta round-trips, on the in-tree deterministic harness.

use emerald_common::check::{check, check_n};
use emerald_common::rng::Xorshift64;
use emerald_common::stats::{Ratio, Summary};
use emerald_obs::{Registry, Value};

fn ratio(rng: &mut Xorshift64) -> Ratio {
    let den = rng.below(100);
    let num = if den == 0 { 0 } else { rng.below(den + 1) };
    Ratio { num, den }
}

/// Integral samples keep every f64 sum exact, so associativity holds
/// bit-for-bit rather than approximately.
fn summary(rng: &mut Xorshift64) -> Summary {
    let mut s = Summary::new();
    for _ in 0..rng.below(8) {
        s.add(rng.below(1_000) as f64);
    }
    s
}

fn assert_associative(a: &Value, b: &Value, c: &Value) {
    let mut ab_then_c = a.clone();
    ab_then_c.merge(b);
    ab_then_c.merge(c);
    let mut bc = b.clone();
    bc.merge(c);
    let mut a_then_bc = a.clone();
    a_then_bc.merge(&bc);
    assert_eq!(ab_then_c, a_then_bc, "a={a:?} b={b:?} c={c:?}");
}

#[test]
fn counter_and_gauge_merge_is_associative() {
    check("counter_gauge_assoc", |rng| {
        let v = |rng: &mut Xorshift64| Value::Counter(rng.below(1 << 40));
        assert_associative(&v(rng), &v(rng), &v(rng));
        let g = |rng: &mut Xorshift64| Value::Gauge(rng.below(1 << 40));
        assert_associative(&g(rng), &g(rng), &g(rng));
    });
}

#[test]
fn ratio_merge_is_associative() {
    check("ratio_assoc", |rng| {
        assert_associative(
            &Value::Ratio(ratio(rng)),
            &Value::Ratio(ratio(rng)),
            &Value::Ratio(ratio(rng)),
        );
    });
}

#[test]
fn summary_merge_is_associative() {
    check("summary_assoc", |rng| {
        assert_associative(
            &Value::Summary(summary(rng)),
            &Value::Summary(summary(rng)),
            &Value::Summary(summary(rng)),
        );
    });
}

/// Builds a registry with one instrument of every kind under random
/// dotted paths, returning the paths used.
fn seed_registry(rng: &mut Xorshift64, reg: &mut Registry) -> [String; 4] {
    let seg = |rng: &mut Xorshift64| ["gpu", "mem", "soc", "core0", "l1"][rng.below(5) as usize];
    let path = |rng: &mut Xorshift64, leaf: &str| format!("{}.{}.{leaf}", seg(rng), seg(rng));
    let paths = [
        path(rng, "count"),
        path(rng, "depth"),
        path(rng, "hits"),
        path(rng, "latency"),
    ];
    reg.set_counter(paths[0].clone(), rng.below(1 << 30));
    reg.set_gauge(paths[1].clone(), rng.below(100));
    reg.set_ratio(paths[2].clone(), ratio(rng));
    reg.set_summary(paths[3].clone(), summary(rng));
    paths
}

#[test]
fn snapshot_plus_delta_reconstructs_the_registry() {
    check("snapshot_delta_roundtrip", |rng| {
        let mut reg = Registry::new();
        let paths = seed_registry(rng, &mut reg);
        let before: Vec<Value> = paths.iter().map(|p| reg.get(p).unwrap().clone()).collect();
        let snap = reg.snapshot();

        // Monotonic growth, as live simulator counters do.
        let growth = rng.below(1 << 20);
        if let Some(Value::Counter(c)) = reg.get(&paths[0]).cloned() {
            reg.set_counter(paths[0].clone(), c + growth);
        }
        let gauge_now = rng.below(1_000) + 100; // gauges only rise here
        reg.set_gauge(paths[1].clone(), gauge_now);
        let mut r2 = match reg.get(&paths[2]).cloned() {
            Some(Value::Ratio(r)) => r,
            _ => unreachable!(),
        };
        r2.merge(&ratio(rng));
        reg.set_ratio(paths[2].clone(), r2);
        let mut s2 = match reg.get(&paths[3]).cloned() {
            Some(Value::Summary(s)) => s,
            _ => unreachable!(),
        };
        for _ in 0..rng.below(8) {
            s2.add(rng.below(1_000) as f64);
        }
        reg.set_summary(paths[3].clone(), s2);
        // An instrument born after the snapshot appears verbatim.
        reg.set_counter("late.arrival", 7);

        let delta = reg.delta_since(&snap);
        assert_eq!(delta.get("late.arrival"), Some(&Value::Counter(7)));
        // Gauge deltas keep the later level.
        assert_eq!(delta.get(&paths[1]), Some(&Value::Gauge(gauge_now)));
        // For the additive kinds, snapshot ⊕ delta == live value. (Summary
        // works too: the delta keeps the later min/max, and merging with
        // the earlier extremes reproduces exactly the later ones.)
        for (i, p) in paths.iter().enumerate() {
            if i == 1 {
                continue; // gauge handled above
            }
            let mut rebuilt = before[i].clone();
            rebuilt.merge(delta.get(p).unwrap());
            assert_eq!(&rebuilt, reg.get(p).unwrap(), "path {p}");
        }
    });
}

#[test]
fn delta_of_unchanged_registry_is_all_zeros() {
    check_n("delta_unchanged_is_zero", 32, |rng| {
        let mut reg = Registry::new();
        let paths = seed_registry(rng, &mut reg);
        let snap = reg.snapshot();
        let delta = reg.delta_since(&snap);
        if let Some(Value::Counter(c)) = delta.get(&paths[0]) {
            assert_eq!(*c, 0);
        } else {
            panic!("counter path missing from delta");
        }
        if let Some(Value::Ratio(r)) = delta.get(&paths[2]) {
            assert_eq!((r.num, r.den), (0, 0));
        } else {
            panic!("ratio path missing from delta");
        }
        if let Some(Value::Summary(s)) = delta.get(&paths[3]) {
            assert_eq!(s.count(), 0);
            assert_eq!(s.sum(), 0.0);
        } else {
            panic!("summary path missing from delta");
        }
    });
}

#[test]
fn merging_per_core_registries_matches_direct_totals() {
    check_n("cross_core_merge", 32, |rng| {
        // N cores each publish a counter + ratio under the same paths; the
        // merged registry must hold the arithmetic totals.
        let cores = 1 + rng.below(6) as usize;
        let mut merged = Registry::new();
        let mut want_count = 0u64;
        let mut want_num = 0u64;
        let mut want_den = 0u64;
        for _ in 0..cores {
            let mut one = Registry::new();
            let c = rng.below(1 << 20);
            let r = ratio(rng);
            want_count += c;
            want_num += r.num;
            want_den += r.den;
            one.set_counter("cores.issued", c);
            one.set_ratio("cores.l1.hits", r);
            merged.merge(&one);
        }
        assert_eq!(
            merged.get("cores.issued"),
            Some(&Value::Counter(want_count))
        );
        match merged.get("cores.l1.hits") {
            Some(Value::Ratio(r)) => assert_eq!((r.num, r.den), (want_num, want_den)),
            other => panic!("expected ratio, got {other:?}"),
        }
    });
}

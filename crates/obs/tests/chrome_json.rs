//! Well-formedness of the serde-free JSON writers, verified by an
//! independent hand-rolled JSON parser: the Chrome trace-event export and
//! the registry's hierarchical dump must parse for arbitrary inputs.

use emerald_common::check::{check, check_n};
use emerald_common::json::Json;
use emerald_common::rng::Xorshift64;
use emerald_common::stats::{Ratio, Summary};
use emerald_obs::{trace, Registry, TraceCat, TraceEvent};

// ---------------------------------------------------------------------------
// Generators.

fn random_event(rng: &mut Xorshift64) -> TraceEvent {
    // Names deliberately include JSON-hostile characters.
    const NAMES: [&str; 5] = [
        "launch",
        "row_conflict",
        "a \"quoted\" name",
        "tab\there",
        "nl\nname",
    ];
    const KEYS: [&str; 3] = ["warp", "bank", "weird \"key\""];
    let cat = TraceCat::all()[rng.below(8) as usize];
    let n_args = rng.below(3) as usize;
    TraceEvent {
        cat,
        name: NAMES[rng.below(NAMES.len() as u64) as usize],
        track: rng.below(16) as u32,
        ts: rng.below(1 << 30),
        dur: if rng.chance(0.5) {
            Some(rng.below(10_000))
        } else {
            None
        },
        args: (0..n_args).map(|i| (KEYS[i], rng.below(1 << 40))).collect(),
    }
}

// ---------------------------------------------------------------------------
// Properties.

#[test]
fn chrome_export_is_well_formed_json() {
    check("chrome_export_parses", |rng| {
        let events: Vec<TraceEvent> = (0..rng.below(40)).map(|_| random_event(rng)).collect();
        let out = trace::export_chrome(&events);
        let doc = Json::parse(&out).expect("export must parse");

        let arr = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("root must hold a traceEvents array");
        let used_cats = {
            let mut mask = 0u32;
            for e in &events {
                mask |= e.cat.bit();
            }
            mask.count_ones() as usize
        };
        assert_eq!(arr.len(), events.len() + used_cats);

        let mut spans = 0;
        let mut instants = 0;
        for item in arr {
            let ph = item.get("ph").and_then(Json::as_str).expect("ph");
            assert!(item.get("pid").and_then(Json::as_num).is_some());
            assert!(item.get("tid").and_then(Json::as_num).is_some());
            match ph {
                "M" => {
                    assert_eq!(
                        item.get("name").and_then(Json::as_str),
                        Some("process_name")
                    );
                }
                "X" => {
                    spans += 1;
                    assert!(item.get("ts").and_then(Json::as_num).is_some());
                    assert!(item.get("dur").and_then(Json::as_num).is_some());
                }
                "i" => {
                    instants += 1;
                    assert!(item.get("ts").and_then(Json::as_num).is_some());
                    assert_eq!(item.get("s").and_then(Json::as_str), Some("t"));
                }
                other => panic!("unexpected phase {other:?}"),
            }
        }
        assert_eq!(spans, events.iter().filter(|e| e.dur.is_some()).count());
        assert_eq!(instants, events.iter().filter(|e| e.dur.is_none()).count());
    });
}

#[test]
fn chrome_export_round_trips_names_and_args() {
    let events = vec![TraceEvent {
        cat: TraceCat::Dram,
        name: "a \"quoted\"\nname",
        track: 3,
        ts: 42,
        dur: Some(10),
        args: vec![("bank", 5), ("row", 1234)],
    }];
    let doc = Json::parse(&trace::export_chrome(&events)).unwrap();
    let arr = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    // arr[0] is the process_name metadata record; arr[1] the span.
    let ev = &arr[1];
    assert_eq!(
        ev.get("name").and_then(Json::as_str),
        Some("a \"quoted\"\nname")
    );
    assert_eq!(ev.get("cat").and_then(Json::as_str), Some("mem.dram"));
    let args = ev.get("args").expect("args object");
    assert_eq!(args.get("bank").and_then(Json::as_num), Some(5.0));
    assert_eq!(args.get("row").and_then(Json::as_num), Some(1234.0));
}

#[test]
fn registry_json_dump_is_well_formed() {
    check_n("registry_json_parses", 48, |rng| {
        let seg = |rng: &mut Xorshift64| {
            ["gpu", "core0", "l1t", "mem", "dram", "ch0", "soc"][rng.below(7) as usize]
        };
        let mut reg = Registry::new();
        for _ in 0..rng.below(20) {
            let depth = 1 + rng.below(4);
            let path: Vec<&str> = (0..depth).map(|_| seg(rng)).collect();
            let path = path.join(".");
            match rng.below(4) {
                0 => reg.set_counter(path, rng.below(1 << 40)),
                1 => reg.set_gauge(path, rng.below(100)),
                2 => reg.set_ratio(
                    path,
                    Ratio {
                        num: rng.below(50),
                        den: rng.below(100),
                    },
                ),
                _ => {
                    let mut s = Summary::new();
                    for _ in 0..rng.below(5) {
                        s.add(rng.next_f64() * 100.0);
                    }
                    reg.set_summary(path, s); // empty → min/max = null
                }
            }
        }
        let doc = Json::parse(&reg.to_json())
            .unwrap_or_else(|e| panic!("bad registry JSON ({e}):\n{}", reg.to_json()));
        // Spot-check: every top-level segment present in some path appears
        // as a key of the root object.
        if let Json::Obj(fields) = &doc {
            for (path, _) in reg.iter() {
                let top = path.split('.').next().unwrap();
                assert!(
                    fields.iter().any(|(k, _)| k == top),
                    "missing top-level key {top}"
                );
            }
        } else if !reg.is_empty() {
            panic!("root must be an object");
        }
    });
}

#[test]
fn parser_rejects_malformed_documents() {
    for bad in [
        "{",
        "[1, 2,]",
        "{\"a\": }",
        "\"unterminated",
        "{\"a\": 1} trailing",
        "nul",
    ] {
        assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
    }
}

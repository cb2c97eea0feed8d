//! Byte-mutation fuzz of `Json::parse`, the parser every hostile input
//! reaches first (sweep specs and `emerald_serve` requests): 1–8 bytes of a
//! valid document are overwritten, and the parse must answer `Ok` or
//! `Err` — never panic — with heap use bounded by the document's length.
//!
//! The test binary's global allocator tracks this thread's live and peak
//! heap bytes, so a parse's peak is measured exactly. Cases scale with
//! `EMERALD_CHECK_CASES` (default 64).

use emerald::common::check::check;
use emerald::common::json::Json;
use emerald::common::rng::Xorshift64;
use emerald::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// This thread's live heap bytes and the peak since the last reset.
    static HEAP: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

struct Tracking;

impl Tracking {
    fn grow(bytes: usize) {
        // `try_with`: the allocator also runs while a thread tears down.
        let _ = HEAP.try_with(|h| {
            let (live, peak) = h.get();
            h.set((live + bytes, peak.max(live + bytes)));
        });
    }

    fn shrink(bytes: usize) {
        let _ = HEAP.try_with(|h| {
            let (live, peak) = h.get();
            h.set((live.saturating_sub(bytes), peak));
        });
    }
}

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are a plain thread-local `Cell`
// that neither allocates nor unwinds.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::grow(layout.size());
        // SAFETY: the caller's obligations for `alloc` pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::shrink(layout.size());
        // SAFETY: `ptr` came from `System` via `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::grow(new_size);
        Self::shrink(layout.size());
        // SAFETY: as for `dealloc`; size and layout are the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Tracking = Tracking;

/// Peak heap bytes this thread held above its starting level while `f`
/// ran, and `f`'s result.
fn peak_during<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let live = HEAP.get().0;
    HEAP.set((live, live));
    let out = f();
    (HEAP.get().1 - live, out)
}

/// Heap a parse may take per byte of text, plus a fixed allowance: a
/// value is a few dozen bytes and every container at most doubles.
const BYTES_PER_BYTE: usize = 64;
const FIXED: usize = 4096;

/// The documents mutated: a full SoC registry dump (every instrument
/// path, pretty-printed, as `trace_export` writes it) and the CI sweep
/// spec.
fn documents() -> [String; 2] {
    let soc = Soc::new(SocConfig::case_study_1(
        MemCfgKind::Dcb.build(DramConfig::lpddr3_1333()),
        64,
        48,
        200_000,
    ));
    let mut reg = Registry::new();
    soc.publish(&mut reg);
    [
        reg.to_json(),
        include_str!("../sweeps/ci_smoke.json").to_string(),
    ]
}

/// A byte to write: JSON's structural and escape characters, digits,
/// letters, controls, and bytes that are not UTF-8 on their own.
fn hostile_byte(rng: &mut Xorshift64) -> u8 {
    const SYNTAX: &[u8] = b"{}[]\":,\\/-+.eEtfnu0123456789 \t\n";
    match rng.below(4) {
        0 | 1 => SYNTAX[rng.below(SYNTAX.len() as u64) as usize],
        2 => rng.below(0x20) as u8,
        _ => rng.range(0x20, 0x100) as u8,
    }
}

#[test]
fn json_parse_survives_overwritten_bytes() {
    let docs = documents();
    for doc in &docs {
        let (peak, parsed) = peak_during(|| Json::parse(doc));
        parsed.expect("the unmutated document parses");
        assert!(peak <= BYTES_PER_BYTE * doc.len() + FIXED, "{peak} bytes");
    }
    let mut outcomes = [0u32; 2];
    check("json_parse_byte_mutation", |rng| {
        let mut bytes = docs[rng.below(2) as usize].clone().into_bytes();
        for _ in 0..rng.range(1, 9) {
            let at = rng.below(bytes.len() as u64) as usize;
            bytes[at] = hostile_byte(rng);
        }
        let text = String::from_utf8_lossy(&bytes);
        let (peak, parsed) = peak_during(|| Json::parse(&text));
        outcomes[parsed.is_ok() as usize] += 1;
        assert!(
            peak <= BYTES_PER_BYTE * text.len() + FIXED,
            "parsing {} bytes peaked at {peak} heap bytes",
            text.len()
        );
    });
    assert!(
        outcomes.iter().all(|&n| n > 0),
        "mutations parsed (refused, accepted): {outcomes:?}"
    );
}

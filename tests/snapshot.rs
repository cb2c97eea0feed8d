//! Snapshot-invisibility conformance axis for checkpoint/restore
//! (`Soc::checkpoint` / `Soc::run_frame_checkpoint` / `Soc::restore`).
//!
//! A checkpoint taken at a commit boundary and restored into a fresh SoC
//! must be *invisible* to simulated state: the restored instance has to
//! agree bit-for-bit with the straight run on every per-frame record, the
//! framebuffer, the stats registry and the checkpoint bytes — at the
//! resumed frame's barrier and at every later one
//! (`emerald_conformance::snap_oracle`). Two oracles drive it:
//!
//! 1. **Randomized lockstep** — seeded random SoC scenarios, in a random
//!    gate cell, capture a checkpoint at a random cycle of frame 0 or 1
//!    and restore it into another random cell. When the cycle falls past
//!    the frame's last commit boundary the case falls back to an
//!    inter-frame checkpoint, so every case verifies a restore either way.
//! 2. **Across the cells** — one fixed scenario captured in the per-cycle
//!    reference cell and restored into each of the four
//!    `cpu_batch × event_skip` cells: every restored run equals the
//!    straight run (that the straight runs agree across cells is
//!    `emerald_conformance::gate_matrix`'s, driven from
//!    `tests/event_skip.rs` and `tests/cpu_batch.rs`).
//!
//! Two more tests feed restore hostile bytes — overwritten bytes, and
//! one overwritten field at a time: garbage inside a correctly sealed
//! container must come back as `Ok` or a typed error, never a panic.

use emerald::common::check::{check, check_n, env_cases};
use emerald::common::hash::FxHasher;
use emerald::common::snap::{FieldWriter, SnapError};
use emerald::prelude::*;
use emerald_conformance::{cells, snap_oracle, Cell, SnapBug, SnapScenario, SocScenario};
use std::hash::Hasher;
use std::ops::Range;

/// Oracle 1: random scenarios, random cell, random checkpoint cycle. The
/// capture cycle is drawn from 1.25 frame spans, which keeps most cases
/// mid-frame while still exercising the inter-frame fallback.
#[test]
fn random_cycle_restore_is_invisible() {
    let mut mid_frame = 0u32;
    let cases = env_cases("EMERALD_CONF_CASES", 3);
    check_n("soc_snapshot_axis", cases, |rng| {
        let sc = SnapScenario {
            soc: SocScenario::random(rng),
            cell: Cell {
                event_skip: rng.chance(0.5),
                cpu_batch: rng.chance(0.5),
            },
            restore_cell: Cell {
                event_skip: rng.chance(0.5),
                cpu_batch: rng.chance(0.5),
            },
            frames: 2 + rng.below(2) as u32,
            at_frame: rng.below(2) as u32,
            offset_pct: rng.below(125) as u32,
            bug: SnapBug::None,
        };
        match snap_oracle(&sc) {
            Ok(run) => mid_frame += run.mid_frame as u32,
            Err(v) => panic!("{}: {}\n{:?}", sc.describe(), v.detail, sc.soc),
        }
    });
    // The axis is vacuous if every case degraded to the inter-frame
    // fallback (default case count is small, so require just one).
    assert!(
        mid_frame > 0,
        "no case captured mid-frame in {cases} cases; offsets never hit a commit boundary"
    );
}

/// Oracle 2: a checkpoint restores across the clocking cells. The
/// scenario runs three frames straight in the per-cycle reference cell,
/// checkpointing inside frame 1 at a fifth of frame 0's span (frame 1 runs
/// warm, in under half of frame 0's cycles), and the checkpoint restores
/// into each of the four cells: every restored run equals the straight
/// run. The gates pick a schedule, not a model, so the checkpoint's
/// configuration hash leaves them out.
#[test]
fn restore_matrix_is_bit_identical() {
    let soc = SocScenario::two_core(MemCfgKind::Dcb.build(DramConfig::lpddr3_1600()), 10);
    let [reference, ..] = cells();
    for restore_cell in cells() {
        let sc = SnapScenario {
            soc: soc.clone(),
            cell: reference,
            restore_cell,
            frames: 3,
            at_frame: 1,
            offset_pct: 20,
            bug: SnapBug::None,
        };
        let run = snap_oracle(&sc).unwrap_or_else(|v| panic!("{}: {}", sc.describe(), v.detail));
        assert!(run.mid_frame, "{}: captured between frames", sc.describe());
    }
}

/// Magic, format version and config hash: the bytes before a
/// checkpoint's body.
const HEADER: usize = 8 + 4 + 8;

/// A small DASH scenario's configuration, with one between-frames and
/// one mid-frame checkpoint of it.
fn dash_checkpoints() -> (SocConfig, Vec<u8>, Vec<u8>) {
    const MAX: Cycle = 60_000_000;
    let sc = SocScenario::two_core(MemCfgKind::Dcb.build(DramConfig::lpddr3_1600()), 10);
    let cfg = sc.config(Cell::PRESET);
    let mut soc = Soc::new(cfg.clone());
    let span = soc.run_frame(sc.draws(&soc, 0), MAX).total_cycles;
    let between = soc.checkpoint();
    let at = soc.now() + span / 5;
    let (_, mid) = soc.run_frame_checkpoint(sc.draws(&soc, 1), MAX, Some(at));
    let mid = mid.expect("a commit boundary a fifth into frame 1");
    for bytes in [&between, &mid] {
        Soc::restore(bytes, &cfg).expect("the untouched checkpoint restores");
    }
    (cfg, between, mid)
}

/// Re-seals a checkpoint's trailing checksum over its (altered) bytes.
fn reseal(bytes: &mut [u8]) {
    let body_end = bytes.len() - 8;
    let mut sum = FxHasher::default();
    sum.write(&bytes[..body_end]);
    bytes[body_end..].copy_from_slice(&sum.finish().to_le_bytes());
}

/// Restore fuzz: one between-frames and one mid-frame checkpoint of a
/// small DASH scenario, 1–8 of their body bytes overwritten at random and
/// the trailing checksum re-sealed, so the component walks — not the
/// checksum — meet the garbage. `Soc::restore` must return `Ok` or `Err`
/// and never panic. Each byte lands in one of the body's five parts
/// drawn evenly — the memory image's header, the memory system, the
/// renderer, the display, and the CPU cluster with the SoC's own
/// records — so the small parts are not drowned by the renderer's cache
/// arrays. The image's raw bytes are left alone: any value there is valid
/// state.
#[test]
fn restore_of_garbage_never_panics() {
    let (cfg, between, mid) = dash_checkpoints();
    let u64_at =
        |bytes: &[u8], at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    // Sections 1–4 (tag, length, body), then the records up to the
    // checksum. Section 1's body is the image: capacity, cursor, byte
    // count, raw bytes.
    let parts = |bytes: &[u8]| {
        let mut parts = Vec::new();
        let mut at = HEADER;
        for _ in 0..4 {
            let end = at + 12 + u64_at(bytes, at + 4) as usize;
            parts.push(at..end);
            at = end;
        }
        parts.push(at..bytes.len() - 8);
        parts[0].end = HEADER + 12 + 24;
        parts
    };
    check("restore_of_garbage", |rng| {
        for snap in [&between, &mid] {
            let mut bad = snap.clone();
            let parts = parts(snap);
            for _ in 0..rng.range(1, 9) {
                let part = &parts[rng.below(parts.len() as u64) as usize];
                let at = rng.range(part.start as u64, part.end as u64) as usize;
                // Small values keep more flags and counts parseable, so
                // the walk gets further before it meets the garbage.
                bad[at] = [0, 1, 0xFF, rng.next_u64() as u8][rng.below(4) as usize];
            }
            reseal(&mut bad);
            let _ = Soc::restore(&bad, &cfg);
        }
    });
}

/// The refusals placed by hand deep inside the walk, which overwritten
/// bytes almost never reach: a zero RNG state (a CPU core's or the
/// memory system's), a zero WT size, a GPU read slab whose free list is
/// not every slot.
const DEEP_REFUSALS: [&str; 3] = [
    "zero xorshift state",
    "zero WT size",
    "DRAM free list is not every slot of its slab",
];

/// Field-targeted restore fuzz: each of the two checkpoints above is
/// restored and walked again by a `FieldWriter`, which gives back the
/// same body bytes and where each primitive of the walk sits in them.
/// Each case then overwrites the bytes of one primitive per restore, two
/// restores per checkpoint — a section drawn evenly, then a field of it,
/// so the few fields of a small component are not drowned by the cache
/// arrays — with 0 (half the time: it is what most refusals refuse), 1,
/// all ones, the old value ±1 or random bits, re-seals the checksum and
/// restores. `Soc::restore` must return `Ok` or `Err`, never panic.
/// The image's raw bytes are left alone (any value there is valid
/// state). Which of [`DEEP_REFUSALS`] the cases reached goes to stderr
/// (`--nocapture`).
#[test]
fn restore_of_one_garbage_field_never_panics() {
    let (cfg, between, mid) = dash_checkpoints();
    let mapped: Vec<_> = [&between, &mid]
        .map(|snap| {
            let mut soc = Soc::restore(snap, &cfg).expect("the untouched checkpoint restores");
            let (body, fields) = FieldWriter::encode(|w| soc.walk(w));
            assert_eq!(
                body[..],
                snap[HEADER..snap.len() - 8],
                "a restored SoC walks its checkpoint's body again"
            );
            // Each section's fields, shifted past the header.
            let mut sections: Vec<Vec<Range<usize>>> = Vec::new();
            for f in fields.into_iter().filter(|f| f.at.len() <= 8) {
                sections.resize(sections.len().max(f.section + 1), Vec::new());
                sections[f.section].push(f.at.start + HEADER..f.at.end + HEADER);
            }
            sections.retain(|s| !s.is_empty());
            (snap, sections)
        })
        .into();
    let mut reached = [0u32; DEEP_REFUSALS.len()];
    check("restore_of_one_garbage_field", |rng| {
        for (snap, sections) in &mapped {
            for _ in 0..2 {
                let section = &sections[rng.below(sections.len() as u64) as usize];
                let at = section[rng.below(section.len() as u64) as usize].clone();
                let mut old = [0u8; 8];
                old[..at.len()].copy_from_slice(&snap[at.clone()]);
                let old = u64::from_le_bytes(old);
                let new = match rng.below(10) {
                    0..=4 => 0,
                    5 => 1,
                    6 => u64::MAX,
                    7 => old.wrapping_add(1),
                    8 => old.wrapping_sub(1),
                    _ => rng.next_u64(),
                };
                let mut bad = snap.to_vec();
                let width = at.len();
                bad[at].copy_from_slice(&new.to_le_bytes()[..width]);
                reseal(&mut bad);
                if let Err(SnapError::BadValue { what }) = Soc::restore(&bad, &cfg) {
                    if let Some(i) = DEEP_REFUSALS.iter().position(|&d| d == what) {
                        reached[i] += 1;
                    }
                }
            }
        }
    });
    for (what, n) in DEEP_REFUSALS.iter().zip(reached) {
        eprintln!("restore_of_one_garbage_field: \"{what}\" refused {n} times");
    }
}

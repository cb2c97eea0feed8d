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

use emerald::common::check::{check_n, env_cases};
use emerald::prelude::*;
use emerald_conformance::{cells, snap_oracle, Cell, SnapBug, SnapScenario, SocScenario};

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

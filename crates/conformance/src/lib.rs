//! # emerald-conformance
//!
//! Differential fuzzing of the Emerald timing model against bit-identical
//! references:
//!
//! - [`proggen`] generates seeded random, schedule-independent ISA
//!   programs (straight-line compute, divergent branches, shared-memory
//!   exchange across a barrier, global loads/stores).
//! - [`refmodel`] walks those programs through `emerald_isa::execute`
//!   with an independently implemented IPDOM stack and no timing model;
//!   registers (as an epilogue checksum), the output memory image and
//!   retired-instruction counts must match the pipeline bit for bit.
//!   `execute` is a per-thread adapter over the cores' own
//!   `execute_warp`, so the walk shares the functional executor and
//!   differs from the pipeline only in timing: this leg checks the timing
//!   model (issue, reconvergence, scoreboard, memory ordering, warp
//!   launch), not the lane arithmetic. The executor's own references are
//!   the scalar oracles and lane-wise properties in `emerald-isa`.
//! - [`isadiff`] runs the differential comparison, the metamorphic
//!   configuration matrix (warp scheduler, cache sizes, event skip) and
//!   the injected-ALU-bug canary.
//! - [`drawgen`] generates random draw calls / render state and diffs
//!   hardware frames pixel-exact against `emerald_core::reference`.
//! - [`eventconf`] checks the `NextEvent` event-skip contract with a gap
//!   oracle (memory system), a twin gap oracle (bare GPU, standalone
//!   renderer: one twin cycled through every announced gap, the other
//!   jumping and booking it), the SoC's cached-pin audit, and injected
//!   under-reporting and forgotten-invalidation canaries.
//! - [`batchconf`] checks the batched CPU execution contract
//!   (`run_batch`) with a twin-core oracle and an injected
//!   window-overrun canary.
//! - [`socconf`] is the one SoC lockstep harness: a scenario type, the
//!   cube draw, the frame-barrier digest, the gate matrix (every
//!   `event_skip × cpu_batch` cell agrees at every barrier) and the
//!   checkpoint/restore oracle, across cells, with its injected
//!   byte-corruption and stale-RNG-stream canaries.
//! - [`budget`] arms SoC-running oracles with a wall-clock frame budget
//!   (`EMERALD_CONF_FRAME_BUDGET_MS`); a case that blows it checkpoints
//!   its `Soc` into `EMERALD_TIMEOUT_SNAP_DIR` for CI artifact upload.
//!
//! Failures replay from a single case seed (see
//! `emerald_common::check`) and are shrunk with
//! `emerald_common::check::minimize` before being reported.

#![warn(missing_docs)]

pub mod batchconf;
pub mod budget;
pub mod drawgen;
pub mod eventconf;
pub mod isadiff;
pub mod proggen;
pub mod refmodel;
pub mod socconf;

pub use batchconf::{batch_oracle, shrink_batch_candidates, BatchScenario};
pub use drawgen::{gen_draw, run_draw_case, run_draw_case_timed, shrink_draw_candidates};
pub use eventconf::{
    gap_oracle, gpu_gap_oracle, pin_oracle, renderer_gap_oracle, shrink_gap_candidates,
    shrink_gpu_gap_candidates, shrink_pin_candidates, GapScenario, GpuGapScenario, PinScenario,
};
pub use isadiff::{
    base_config, bug_site, check_case, check_case_matrix, check_with_injected_bug, config_matrix,
};
pub use proggen::gen_program;
pub use socconf::{
    cells, gate_matrix, registry_json, shrink_snap_candidates, snap_oracle, Barrier, Cell, SnapBug,
    SnapScenario, SocScenario,
};

/// Number of random ISA programs / draws the conformance tests run,
/// overridable via `EMERALD_CONF_CASES` (CI runs 32 per push and 512 in
/// the scheduled deep job).
pub fn conf_cases() -> u32 {
    emerald_common::check::env_cases("EMERALD_CONF_CASES", 32)
}

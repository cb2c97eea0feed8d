//! Session-parallel sweep engine.
//!
//! The per-session performance frontier (event skipping, CPU batching) is
//! closed elsewhere; what remains is *throughput across sessions* —
//! parameter sweeps, CI fleets, what-if queries. This crate runs many
//! independent simulations concurrently:
//!
//! * [`session::Session`] — one simulation as a `Send` state machine: a
//!   [`emerald_soc::Soc`] plus its resolved sweep parameters and a frame
//!   cursor. Each [`session::Session::step`] advances exactly one frame
//!   (a commit boundary), which is the scheduler's time-slice unit.
//! * [`sched`] — one shared task queue over host threads. Sessions ×
//!   threads, not cores × threads: intra-sim scaling is weak, so each
//!   session simulates single-threaded and the host cores are spent on
//!   session-level parallelism. Re-enqueueing after every slice keeps one
//!   slow configuration from starving the queue; idle workers park; a
//!   session that panics is reported and the sweep goes on.
//! * [`sweep`] — a declarative sweep spec (axes over config / workload /
//!   seed) expanded into a job set, with jobs that share a warmed prefix
//!   grouped so the prefix simulates **once**, is checkpointed into an
//!   Arc-shared [`emerald_common::snap::SharedSnapshot`], and every group
//!   member forks from it via [`emerald_soc::Soc::restore_shared`].
//! * [`proto`] — a JSON-line protocol (requests in, incremental
//!   per-session result records out) built on [`emerald_common::json`].
//!
//! Determinism contract: a session's final cycles, framebuffer digest and
//! registry dump are bit-identical regardless of worker count, scheduler
//! interleaving, submission order, or fork-vs-cold start. The scheduler
//! never shares mutable state between sessions; forking restores the
//! exact bytes a cold run would have reached.

pub mod proto;
pub mod sched;
pub mod session;
pub mod sweep;

pub use sched::SweepOutcome;
pub use session::StartMode;
pub use sweep::{JobParams, SweepSpec};

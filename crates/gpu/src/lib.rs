//! The SIMT GPU microarchitecture model — Emerald-rs's GPGPU-Sim analogue.
//!
//! Emerald's central design point (ISCA 2019, §3) is that graphics shaders
//! execute on the *same* SIMT core model as GPGPU kernels. This crate is
//! that core model:
//!
//! * [`simt`] — per-warp SIMT reconvergence stacks (IPDOM scheme).
//! * [`warp`] — resident warp state: threads, stack, scoreboard, program.
//! * [`core`] — the SIMT core (Table 2): greedy-then-oldest warp
//!   schedulers, register scoreboarding, a coalescing load/store unit, and
//!   the per-core L1 caches (data/texture/depth/constant-vertex).
//! * [`l2`] — the banked, shared GPU L2 with its atomic-operations-unit
//!   position in the hierarchy (Fig. 4), talking to external memory
//!   through a [`MemPort`].
//! * [`gpu`] — the assembled GPU: clusters of cores, the intra-GPU
//!   interconnect, and warp-launch plumbing used by both the compute
//!   dispatcher and the graphics pipeline in `emerald-core`.
//! * [`kernel`] — CTA-based compute kernel dispatch (grids, blocks,
//!   barriers, shared memory) — the GPGPU half of the unified model.
//! * [`ctx`] — a global-memory [`ExecCtx`](emerald_isa::ExecCtx) for
//!   compute workloads.
//! * [`phase`] — the bulk-synchronous cycle model: the [`CycleCtx`]
//!   freeze/execute/commit contract and the persistent
//!   [`phase::CorePool`] that shards cores across worker threads with
//!   bit-identical results at any thread count.
//!
//! Graphics fixed-function stages (rasterizer, VPO, tile coalescer…) live
//! in `emerald-core`, which owns a [`gpu::Gpu`] and injects vertex and
//! fragment warps into its cores.

#![warn(missing_docs)]

pub mod config;
pub mod core;
pub mod ctx;
mod deferred;
pub mod gpu;
pub mod kernel;
pub mod l2;
pub mod phase;
pub mod simt;
pub mod warp;

pub use config::GpuConfig;
pub use ctx::GlobalMemCtx;
pub use gpu::{Gpu, MemPort, SimpleMemPort};
pub use kernel::Kernel;
pub use phase::{CorePool, CycleCtx};
pub use warp::{Warp, WarpTag};

//! Emerald-rs core: the graphics pipeline running on the SIMT GPU model.
//!
//! This crate is the reproduction of the paper's primary contribution
//! (ISCA 2019, §3): a hardware graphics pipeline in which vertex and
//! fragment shaders execute on the *same* SIMT cores as GPGPU code, with
//! fixed-function stages per cluster implementing an NVIDIA-style
//! *immediate tiled rendering* (ITR) design:
//!
//! ```text
//!  draw ─ vertex distribution ─ vertex shading (SIMT) ─ VPO (bbox → masks
//!  → PMRB ordering) ─ setup ─ coarse raster ─ fine raster ─ Hi-Z ─ tile
//!  coalescing (TCEs) ─ fragment shading (SIMT, in-shader Z/blend) ─ FB
//! ```
//!
//! Module map (paper figure 3/5/6/7 → code):
//!
//! * [`state`] — draw calls, render targets, texture bindings (the Mesa
//!   state-tracker substitute).
//! * [`shaders`] — the standard vertex/fragment shader programs and the
//!   shader ABI (the TGSI→PTX compiler substitute).
//! * [`ctx`] — the graphics [`ExecCtx`](emerald_isa::ExecCtx): texture
//!   sampling, depth test, blending against live surfaces.
//! * [`geom`] — clip/cull, edge functions, attribute interpolation.
//! * [`batch`] — vertex batching with primitive-type-dependent overlap
//!   (§3.3.3).
//! * [`vpo`] — the Vertex Processing and Operations unit and the primitive
//!   mask reorder buffers (§3.3.4, Fig. 6).
//! * [`tcmap`] — screen-tile → core mapping and WT granularity (Fig. 15).
//! * [`cluster`] — per-cluster setup / coarse / fine raster / Hi-Z / TC
//!   stages (Fig. 5 ③-⑧, Fig. 7).
//! * [`renderer`] — the assembled renderer driving an
//!   [`emerald_gpu::Gpu`].
//! * [`dfsl`] — dynamic fragment-shading load balancing (case study II,
//!   Algorithm 1).
//! * [`mod@reference`] — a pure-software reference rasterizer used to validate
//!   the hardware model's output images.

#![warn(missing_docs)]

pub mod batch;
pub mod cluster;
pub mod config;
pub mod ctx;
pub mod dfsl;
pub mod geom;
pub mod reference;
pub mod renderer;
pub mod session;
pub mod shaders;
pub mod state;
pub mod tcmap;
pub mod vpo;

pub use config::GfxConfig;
pub use dfsl::{DfslConfig, DfslController};
pub use renderer::{FrameStats, GpuRenderer};
pub use state::{DrawCall, RenderTarget, TextureDesc, Topology};

//! # Emerald-rs
//!
//! A cycle-level, execution-driven GPU simulator with a **unified model
//! for graphics and GPGPU workloads**, integrated into a full-SoC system
//! model — a from-scratch Rust reproduction of *Emerald: Graphics Modeling
//! for SoC Systems* (Gubran & Aamodt, ISCA 2019).
//!
//! The crate is a façade re-exporting the workspace members:
//!
//! | Module | Crate | What it models |
//! |---|---|---|
//! | [`common`] | `emerald-common` | cycles, ids, stats, math, RNG |
//! | [`isa`] | `emerald-isa` | the shader ISA + graphics instructions |
//! | [`mem`] | `emerald-mem` | caches, DRAM, FR-FCFS / DASH / HMC |
//! | [`gpu`] | `emerald-gpu` | SIMT cores, L1s/L2, CTA dispatch |
//! | [`scene`] | `emerald-scene` | meshes, textures, cameras, workloads |
//! | [`core`] | `emerald-core` | the graphics pipeline + DFSL |
//! | [`soc`] | `emerald-soc` | CPU cluster, display, full system |
//! | [`obs`] | `emerald-obs` | metrics registry, event traces, timelines |
//! | [`serve`] | `emerald-serve` | session-parallel sweep engine + JSONL protocol |
//!
//! ## Quickstart: render a frame on the simulated GPU
//!
//! ```
//! use emerald::prelude::*;
//!
//! // Simulated memory, a small render target, and the GPU.
//! let mem = SharedMem::with_capacity(1 << 24);
//! let rt = RenderTarget::alloc(&mem, 64, 48);
//! rt.clear(&mem, [0.0, 0.0, 0.0, 1.0], 1.0);
//! let mut renderer = GpuRenderer::new(
//!     GpuConfig::tiny(),
//!     GfxConfig::case_study_2(),
//!     mem.clone(),
//!     rt,
//! );
//! let mut port = SimpleMemPort::new(MemorySystem::new(
//!     MemorySystemConfig::baseline(2, DramConfig::lpddr3_1600()),
//! ));
//!
//! // Bind a workload (procedural cube) and draw one frame.
//! let binding = SceneBinding::new(&mem, &emerald::scene::workloads::w_models()[2]);
//! renderer.draw(binding.draw_for_frame(0, 64.0 / 48.0, false));
//! let stats = renderer.run_frame(&mut port, 10_000_000);
//! assert!(stats.fragments > 0);
//! ```

pub use emerald_common as common;
pub use emerald_core as core;
pub use emerald_gpu as gpu;
pub use emerald_isa as isa;
pub use emerald_mem as mem;
pub use emerald_obs as obs;
pub use emerald_scene as scene;
pub use emerald_serve as serve;
pub use emerald_soc as soc;

/// One-stop imports for examples and tests.
pub mod prelude {
    pub use emerald_common::math::{Mat4, Vec2, Vec3, Vec4};
    pub use emerald_common::types::{Cycle, TrafficSource};
    pub use emerald_core::session::SceneBinding;
    pub use emerald_core::shaders::{self, FsOptions};
    pub use emerald_core::state::{DrawCall, Topology, VertexBuffer};
    pub use emerald_core::{
        DfslConfig, DfslController, FrameStats, GfxConfig, GpuRenderer, RenderTarget, TextureDesc,
    };
    pub use emerald_gpu::{Gpu, GpuConfig, Kernel, SimpleMemPort};
    pub use emerald_isa::{assemble, Program};
    pub use emerald_mem::dram::DramConfig;
    pub use emerald_mem::image::{MemImage, SharedMem};
    pub use emerald_mem::system::{MemorySystem, MemorySystemConfig};
    pub use emerald_obs::{Registry, Snapshot, TraceCat};
    pub use emerald_scene::{mesh, texture, workloads, Mesh, OrbitCamera, TextureData};
    pub use emerald_soc::{MemCfgKind, Soc, SocConfig};
}

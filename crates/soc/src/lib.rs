//! Full-system SoC model — the gem5-emerald analogue (paper §2, §5).
//!
//! Wires the GPU renderer, a CPU cluster, a display controller and the
//! multi-channel DRAM system into one cycle-driven SoC, reproducing case
//! study I's memory organization/scheduling experiments:
//!
//! * [`cpu`] — phase-scripted CPU cores with private L1/L2 caches. The
//!   scripts reproduce the Android model-viewer's *driver loop*: a
//!   memory-intensive prepare burst, draw submission, a poll-wait on the
//!   GPU fence, composition — the inter-IP dependency structure whose
//!   absence the paper faults trace-based simulation for.
//! * [`display`] — a scanout DMA engine with deadline tracking and
//!   underrun→abort-and-retry behaviour (the mechanism behind Fig. 13/14).
//! * [`soc`] — the assembled system and its frame loop.
//! * [`experiment`] — the BAS/DCB/DTB/HMC configurations of §5.2 and
//!   the calibrated GPU frame period they share.

#![warn(missing_docs)]

pub mod cpu;
pub mod display;
pub mod experiment;
pub mod soc;
pub mod trace;

pub use cpu::{CpuCoreModel, CpuWorkload, Phase};
pub use display::DisplayController;
pub use experiment::MemCfgKind;
pub use soc::{Soc, SocConfig, SocFrameRecord};

//! Memory-system substrate for Emerald-rs.
//!
//! Emerald's case study I (ISCA 2019, §5) re-evaluates two SoC memory
//! proposals — the DASH deadline-aware scheduler and the HMC heterogeneous
//! memory controller — under execution-driven simulation. This crate
//! provides everything those experiments need, plus the cache hierarchy the
//! GPU model is built from:
//!
//! * [`image`] — the functional backing store (simulated physical memory)
//!   holding vertex buffers, textures, framebuffers and GPGPU data.
//! * [`req`] — tagged memory requests/responses ([`TrafficSource`] tags are
//!   what heterogeneous SoC schedulers schedule by).
//! * [`cache`] — set-associative write-back caches with MSHRs.
//! * [`mapping`] — DRAM address mappings (Table 4: row-striped for
//!   locality, bank-striped for parallelism).
//! * [`dram`] — multi-channel DRAM with banks, row buffers and a data bus.
//! * [`sched`] — the scheduler trait and FR-FCFS baseline.
//! * [`dash`] — the DASH deadline-aware scheduler with TCM clustering
//!   (both the DCB and DTB clustering variants studied in the paper).
//! * [`system`] — the memory system façade: channel steering (interleaved
//!   vs. HMC source-partitioned), the scheduler every channel is ticked
//!   with, statistics.
//! * [`link`] — fixed-latency, bounded-bandwidth links (NoC edges).
//! * [`view`] — frozen-image views and per-core store buffers for the
//!   bulk-synchronous parallel core phase.
//!
//! [`TrafficSource`]: emerald_common::types::TrafficSource

#![warn(missing_docs)]

pub mod cache;
pub mod dash;
pub mod dram;
pub mod image;
pub mod link;
pub mod mapping;
pub mod req;
pub mod sched;
pub mod system;
pub mod view;
mod zeroed;

pub use cache::{Cache, CacheConfig};
pub use dram::{DramChannel, DramConfig};
pub use image::{MemImage, MemReadGuard, SharedMem};
pub use link::Link;
pub use mapping::{AddressMapping, MappingScheme};
pub use req::{MemRequest, MemResponse};
pub use system::{MemorySystem, MemorySystemConfig, Steering};
pub use view::{FuncMem, ImageView, StoreBuffer, WClass};

//! Shared foundation for the Emerald-rs simulator.
//!
//! This crate holds the vocabulary types used by every other Emerald crate:
//!
//! * [`types`] — cycle counters, addresses, component identifiers and the
//!   traffic-source tags that the SoC memory controllers schedule by.
//! * [`stats`] — ratios, running summaries and the series statistics
//!   (Pearson, geomean, relative error) behind the paper's figures.
//! * [`rng`] — a small deterministic PRNG (`xorshift64*`); simulators must be
//!   reproducible, so no ambient OS entropy is ever used.
//! * [`math`] — vectors, matrices and geometric helpers for the graphics
//!   pipeline (3D transforms, bounding boxes, signed areas).
//! * [`hash`] — a deterministic FxHash-style hasher for per-cycle maps
//!   (no SipHash overhead, no per-map random seed, platform-stable).
//! * [`check`] — a tiny deterministic property-test harness, so randomized
//!   tests need no external crates (the build must work offline).
//! * [`event`] — the [`event::NextEvent`] discrete-event clocking contract
//!   that lets the top-level loops skip provably idle cycles.
//! * [`json`] — a strict RFC 8259 parser used by schema tests to validate
//!   the serde-free JSON writers (registry dump, Chrome trace, bench
//!   report).
//! * [`snap`] — the versioned binary snapshot codec behind
//!   checkpoint/restore: tagged length-prefixed sections, a trailing
//!   checksum, and typed decode errors (never panics on bad input).
//!
//! # Example
//!
//! ```
//! use emerald_common::math::{Mat4, Vec4};
//!
//! let mvp = Mat4::perspective(60f32.to_radians(), 4.0 / 3.0, 0.1, 100.0);
//! let clip = mvp.mul_vec4(Vec4::new(0.0, 0.0, -1.0, 1.0));
//! assert!(clip.w > 0.0);
//! ```

#![warn(missing_docs)]

pub mod check;
pub mod event;
pub mod hash;
pub mod json;
pub mod math;
pub mod rng;
pub mod snap;
pub mod stats;
pub mod types;

pub use hash::{FxHashMap, FxHashSet, FxHasher};
pub use rng::Xorshift64;
pub use types::{Addr, CoreId, Cycle, TrafficSource};

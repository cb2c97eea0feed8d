//! Observability layer for the Emerald-rs simulator.
//!
//! Four pillars, shared by every simulated component:
//!
//! * [`registry`] — a hierarchical metrics registry. Components publish
//!   `Counter`/`Gauge`/`Ratio`/`Summary` instruments under
//!   dotted paths (`gpu.core3.l1t.hits`, `mem.dram.ch0.row_hits`), and the
//!   registry provides snapshot/delta, cross-core merging and JSON/CSV
//!   dumps at end of run.
//! * [`trace`] — a structured event-trace ring buffer. Cycle-stamped spans
//!   and instants (warp launch/retire, drawcalls, DRAM row conflicts, DFSL
//!   decisions) behind per-category enable masks, exportable as Chrome
//!   trace-event JSON that Perfetto renders as a frame timeline.
//! * [`timeline`] — windowed time-series sampling: fixed-window
//!   accumulators (the paper's bandwidth-vs-time figures).
//! * [`prof`] — host-side self-profiling: wall-clock attribution of the
//!   simulator's own hot loop (GPU/SoC phases), worker-pool utilization
//!   and loop-iteration accounting. Off by default ([`prof::set_enabled`]),
//!   zero-cost when disabled, and forbidden from touching simulated state.
//!
//! The hot simulation loop pays nothing for any of this until a sink is
//! enabled: components keep their plain local stats structs and are *pulled*
//! into a registry via `publish` methods, and trace emit sites reduce to a
//! thread-local mask test when the category is off.
//!
//! # Example
//!
//! ```
//! use emerald_obs::{Registry, Value};
//!
//! let mut reg = Registry::new();
//! reg.set_counter("gpu.core0.issued", 1200);
//! reg.set_counter("gpu.core1.issued", 900);
//! let snap = reg.snapshot();
//! reg.set_counter("gpu.core0.issued", 1500);
//! let delta = reg.delta_since(&snap);
//! assert_eq!(delta.get("gpu.core0.issued"), Some(&Value::Counter(300)));
//! ```

#![warn(missing_docs)]

pub mod prof;
pub mod registry;
pub mod timeline;
pub mod trace;

pub use prof::{HostPhase, HostProfile};
pub use registry::{Registry, Snapshot, Value};
pub use timeline::Timeline;
pub use trace::{TraceCat, TraceEvent};

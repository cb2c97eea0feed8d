//! Observability layer for the Emerald-rs simulator.
//!
//! Three pillars, shared by every simulated component, plus loop
//! accounting:
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
//! * [`prof`] — loop accounting: exact counts of the host loop iterations
//!   and CPU batch calls that covered the simulated cycles. Off by default
//!   ([`prof::set_enabled`]), one thread-local load per emit site when
//!   disabled, and forbidden from touching simulated state. It reads no
//!   clock: `benchmark/` times the simulator.
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

pub use prof::HostProfile;
pub use registry::{Registry, Snapshot, Value};
pub use timeline::Timeline;
pub use trace::{TraceCat, TraceEvent};

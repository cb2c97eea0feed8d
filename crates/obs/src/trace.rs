//! Structured event tracing with Chrome trace-event export.
//!
//! Components emit cycle-stamped *spans* (drawcalls, warp lifetimes, frames)
//! and *instants* (DRAM row conflicts, DFSL rebalance decisions) into a
//! thread-local ring buffer. Each event carries a [`TraceCat`] category;
//! recording is gated on a per-category enable mask, so with all sinks
//! disabled an emit site costs one thread-local load and a branch. The
//! buffer drops the oldest events when full (counted, never reallocating
//! mid-simulation) and exports to Chrome trace-event JSON, which Perfetto
//! and `chrome://tracing` load directly.
//!
//! The simulator is single-threaded and deterministic; the thread-local
//! global sink means no component needs a tracer threaded through its
//! constructor.

use emerald_common::json::JsonWriter;
use emerald_common::types::Cycle;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;

/// Event categories, one bit each, used both to gate recording and as the
/// Perfetto process grouping on export.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u32)]
pub enum TraceCat {
    /// Warp launch/retire on SIMT cores.
    Warp = 1 << 0,
    /// Drawcall start/end in the graphics pipeline.
    Draw = 1 << 1,
    /// DRAM events: row conflicts, activations.
    Dram = 1 << 2,
    /// Cache events (fills, writebacks).
    Cache = 1 << 3,
    /// Display controller: scanout progress, underruns, aborts.
    Display = 1 << 4,
    /// CPU traffic-model events.
    Cpu = 1 << 5,
    /// DFSL load-balancer decisions.
    Dfsl = 1 << 6,
    /// Whole-frame spans.
    Frame = 1 << 7,
    /// Host-side self-profiler spans (simulator wall-clock, not simulated
    /// time — see `crate::prof`).
    Host = 1 << 8,
}

impl TraceCat {
    /// Every category's bits OR-ed together.
    pub const ALL: u32 = (1 << 9) - 1;

    /// This category's mask bit.
    pub fn bit(self) -> u32 {
        self as u32
    }

    /// Dotted category name used in exports.
    fn name(self) -> &'static str {
        match self {
            TraceCat::Warp => "gpu.warp",
            TraceCat::Draw => "gfx.draw",
            TraceCat::Dram => "mem.dram",
            TraceCat::Cache => "mem.cache",
            TraceCat::Display => "soc.display",
            TraceCat::Cpu => "soc.cpu",
            TraceCat::Dfsl => "gfx.dfsl",
            TraceCat::Frame => "soc.frame",
            TraceCat::Host => "host.prof",
        }
    }

    /// All categories, in bit order.
    pub fn all() -> [TraceCat; 9] {
        [
            TraceCat::Warp,
            TraceCat::Draw,
            TraceCat::Dram,
            TraceCat::Cache,
            TraceCat::Display,
            TraceCat::Cpu,
            TraceCat::Dfsl,
            TraceCat::Frame,
            TraceCat::Host,
        ]
    }
}

/// One recorded event. `dur: Some(_)` makes it a span (`ph: "X"`), `None`
/// an instant (`ph: "i"`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Category (export process, enable-mask bit).
    pub cat: TraceCat,
    /// Static event name (shown on the Perfetto slice).
    pub name: &'static str,
    /// Track within the category (core id, channel id, …); export thread id.
    pub track: u32,
    /// Start cycle.
    pub ts: Cycle,
    /// Span length in cycles, or `None` for an instant.
    pub dur: Option<Cycle>,
    /// Small set of numeric arguments (`("warp", 3)`).
    pub args: Vec<(&'static str, u64)>,
}

/// Events each thread's ring holds before the oldest are evicted.
const CAPACITY: usize = 1 << 16;

struct Ring {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl Ring {
    fn push(&mut self, ev: TraceEvent) {
        while self.events.len() >= self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }
}

thread_local! {
    static MASK: Cell<u32> = const { Cell::new(0) };
    static RING: RefCell<Ring> = const {
        RefCell::new(Ring {
            events: VecDeque::new(),
            capacity: CAPACITY,
            dropped: 0,
        })
    };
}

/// Replaces the enable mask (OR of [`TraceCat::bit`]s; [`TraceCat::ALL`]
/// enables everything, `0` disables all recording).
pub fn set_enabled(mask: u32) {
    MASK.with(|m| m.set(mask));
}

/// The current enable mask.
fn enabled_mask() -> u32 {
    MASK.with(|m| m.get())
}

/// Whether `cat` is currently recorded.
fn is_enabled(cat: TraceCat) -> bool {
    enabled_mask() & cat.bit() != 0
}

/// Records an instant event (no duration).
#[inline]
pub fn instant(cat: TraceCat, name: &'static str, track: u32, ts: Cycle) {
    instant_args(cat, name, track, ts, &[]);
}

/// Records an instant event with arguments.
#[inline]
pub fn instant_args(
    cat: TraceCat,
    name: &'static str,
    track: u32,
    ts: Cycle,
    args: &[(&'static str, u64)],
) {
    if !is_enabled(cat) {
        return;
    }
    record(TraceEvent {
        cat,
        name,
        track,
        ts,
        dur: None,
        args: args.to_vec(),
    });
}

/// Records a complete span from `start` to `end` cycles.
#[inline]
pub fn span(cat: TraceCat, name: &'static str, track: u32, start: Cycle, end: Cycle) {
    span_args(cat, name, track, start, end, &[]);
}

/// Records a complete span with arguments.
#[inline]
pub fn span_args(
    cat: TraceCat,
    name: &'static str,
    track: u32,
    start: Cycle,
    end: Cycle,
    args: &[(&'static str, u64)],
) {
    if !is_enabled(cat) {
        return;
    }
    record(TraceEvent {
        cat,
        name,
        track,
        ts: start,
        dur: Some(end.saturating_sub(start)),
        args: args.to_vec(),
    });
}

fn record(ev: TraceEvent) {
    RING.with(|r| r.borrow_mut().push(ev));
}

/// Removes and returns all buffered events in record order.
pub fn drain() -> Vec<TraceEvent> {
    RING.with(|r| r.borrow_mut().events.drain(..).collect())
}

/// Returns and clears the dropped-event counter.
pub fn take_dropped() -> u64 {
    RING.with(|r| {
        let mut ring = r.borrow_mut();
        std::mem::take(&mut ring.dropped)
    })
}

/// Serializes events to Chrome trace-event JSON (the `{"traceEvents": []}`
/// object form). Categories become processes (via `process_name` metadata),
/// tracks become thread ids, spans use phase `"X"`, instants phase `"i"`.
/// Cycles map 1:1 to the viewer's microsecond timestamps, so one second of
/// Perfetto timeline is one million simulated cycles.
pub fn export_chrome(events: &[TraceEvent]) -> String {
    // One record per line: each is built compact and spliced into the
    // indented array, so a trace diffs and greps by event.
    let mut w = JsonWriter::pretty();
    w.begin_obj().key("traceEvents").begin_arr();

    // Name one process per category that actually has events.
    let used = events.iter().fold(0u32, |m, ev| m | ev.cat.bit());
    for cat in TraceCat::all() {
        if used & cat.bit() != 0 {
            let mut rec = JsonWriter::new();
            rec.begin_obj().key("ph").str("M");
            rec.key("pid").num_u64(cat.bit().into());
            rec.key("tid").num_u64(0);
            rec.key("name").str("process_name");
            rec.key("args").begin_obj().key("name").str(cat.name());
            rec.end_obj().end_obj();
            w.raw(&rec.finish());
        }
    }

    for ev in events {
        let mut rec = JsonWriter::new();
        rec.begin_obj().key("ph");
        rec.str(if ev.dur.is_some() { "X" } else { "i" });
        rec.key("pid").num_u64(ev.cat.bit().into());
        rec.key("tid").num_u64(ev.track.into());
        rec.key("ts").num_u64(ev.ts);
        match ev.dur {
            Some(dur) => rec.key("dur").num_u64(dur),
            // Thread-scoped instant: renders as an arrow on the track.
            None => rec.key("s").str("t"),
        };
        rec.key("name").str(ev.name).key("cat").str(ev.cat.name());
        if !ev.args.is_empty() {
            rec.key("args").begin_obj();
            for (k, v) in &ev.args {
                rec.key(k).num_u64(*v);
            }
            rec.end_obj();
        }
        rec.end_obj();
        w.raw(&rec.finish());
    }
    w.end_arr().end_obj();
    let mut out = w.finish();
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reset() {
        set_enabled(0);
        drain();
    }

    /// A ring small enough to wrap in a test, and the timestamps it holds.
    fn small_ring(capacity: usize) -> Ring {
        Ring {
            events: VecDeque::new(),
            capacity,
            dropped: 0,
        }
    }

    fn push_ts(ring: &mut Ring, ts: Cycle) {
        ring.push(TraceEvent {
            cat: TraceCat::Warp,
            name: "w",
            track: 0,
            ts,
            dur: None,
            args: Vec::new(),
        });
    }

    fn drain_ts(ring: &mut Ring) -> Vec<Cycle> {
        ring.events.drain(..).map(|e| e.ts).collect()
    }

    #[test]
    fn disabled_categories_record_nothing() {
        reset();
        instant(TraceCat::Dram, "row_conflict", 0, 100);
        span(TraceCat::Draw, "draw", 0, 0, 50);
        assert!(drain().is_empty());

        set_enabled(TraceCat::Dram.bit());
        instant(TraceCat::Dram, "row_conflict", 0, 100);
        span(TraceCat::Draw, "draw", 0, 0, 50); // still masked off
        let evs = drain();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].cat, TraceCat::Dram);
        assert_eq!(evs[0].dur, None);
        reset();
    }

    #[test]
    fn ring_drops_oldest() {
        let mut ring = small_ring(3);
        for i in 0..5 {
            push_ts(&mut ring, i);
        }
        assert_eq!(ring.dropped, 2);
        assert_eq!(drain_ts(&mut ring), vec![2, 3, 4]);
    }

    #[test]
    fn dropped_counter_is_taken_once() {
        reset();
        RING.with(|r| r.borrow_mut().dropped = 2);
        assert_eq!(take_dropped(), 2);
        assert_eq!(take_dropped(), 0);
    }

    #[test]
    fn mask_covers_exactly_the_declared_categories() {
        let mut or = 0u32;
        for cat in TraceCat::all() {
            assert_eq!(or & cat.bit(), 0, "category bits must be distinct");
            or |= cat.bit();
        }
        assert_eq!(or, TraceCat::ALL);
    }

    #[test]
    fn wraparound_preserves_record_order_across_many_wraps() {
        let mut ring = small_ring(4);
        // 10 full revolutions of the ring: the survivors must always be
        // the newest `capacity` events, in emit order.
        for i in 0..40 {
            push_ts(&mut ring, i);
        }
        assert_eq!(drain_ts(&mut ring), vec![36, 37, 38, 39]);
        assert_eq!(ring.dropped, 36);
        // Interleaved drains restart cleanly mid-wrap.
        for i in 0..6 {
            push_ts(&mut ring, 100 + i);
        }
        assert_eq!(drain_ts(&mut ring), vec![102, 103, 104, 105]);
    }

    #[test]
    fn host_category_exports_as_its_own_process() {
        let events = vec![TraceEvent {
            cat: TraceCat::Host,
            name: "gpu.execute",
            track: 2,
            ts: 0,
            dur: Some(1200),
            args: vec![("ns", 1_200_000)],
        }];
        let json = export_chrome(&events);
        assert!(json.contains("\"name\":\"host.prof\""));
        assert!(json.contains(&format!("\"pid\":{}", TraceCat::Host.bit())));
        assert!(json.contains("\"dur\":1200"));
    }

    #[test]
    fn span_duration_saturates() {
        reset();
        set_enabled(TraceCat::ALL);
        span(TraceCat::Frame, "frame", 0, 100, 40);
        let evs = drain();
        assert_eq!(evs[0].dur, Some(0));
        reset();
    }

    #[test]
    fn chrome_export_shapes() {
        let events = vec![
            TraceEvent {
                cat: TraceCat::Draw,
                name: "draw0",
                track: 1,
                ts: 10,
                dur: Some(90),
                args: vec![("prims", 12)],
            },
            TraceEvent {
                cat: TraceCat::Dram,
                name: "row_conflict",
                track: 0,
                ts: 55,
                dur: None,
                args: vec![],
            },
        ];
        let json = export_chrome(&events);
        // Four records (two process names, two events), one per line.
        assert_eq!(json.lines().filter(|l| l.contains("\"ph\":")).count(), 4);
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"name\":\"gfx.draw\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"dur\":90"));
        assert!(json.contains("\"args\":{\"prims\":12}"));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"s\":\"t\""));
    }
}

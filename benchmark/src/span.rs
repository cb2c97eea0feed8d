//! The benchmark-owned span recorder.
//!
//! Nothing inside the library is visible from here, so a span brackets one
//! call *into* the library (`Soc::run_frame`, `Gpu::run_to_idle`, …) or a
//! group of them (one op, one phase). Spans live in a `Vec` and are written
//! out when the run ends. With the recorder off — every end-to-end run —
//! [`Recorder::span`] is a plain call.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `soc.run_frame`.
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The op this span belongs to (spans of one op share it).
    pub op: u32,
    /// Simulated cycles the call advanced, when the caller knows.
    pub cycles: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus direct children), ns.
    pub self_ns: u64,
    /// Summed simulated cycles.
    pub cycles: u64,
    /// Each span's duration, ns, in recording order.
    pub durs_ns: Vec<u64>,
}

/// Records spans when enabled; a no-op shell otherwise.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u32,
}

impl Recorder {
    /// A recorder; `enabled` false makes every call a pass-through.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the op id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        self.span_cycles(name, |rec| (f(rec), 0))
    }

    /// Runs `f` inside a span; `f` also returns the simulated cycles the
    /// call advanced.
    pub fn span_cycles<R>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Recorder) -> (R, u64),
    ) -> R {
        if !self.enabled {
            return f(self).0;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
            cycles: 0,
        });
        self.open.push(idx);
        let (r, cycles) = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        self.spans[idx].cycles = cycles;
        r
    }

    /// All closed spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals with self times.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        totals(&self.spans)
    }
}

/// Per-name totals of `spans`: a span's self time is its duration minus
/// the durations of its direct children.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += s.dur_ns().saturating_sub(child_ns[i]);
        t.cycles += s.cycles;
        t.durs_ns.push(s.dur_ns());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
            cycles: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // op [0,100) holds frame [10,40) and frame [50,90); the second
        // frame holds a nested replay [60,70). Grandchildren are charged
        // to their parent only.
        let spans = vec![
            span("op", 0, 100, None),
            span("frame", 10, 40, Some(0)),
            span("frame", 50, 90, Some(0)),
            span("replay", 60, 70, Some(2)),
        ];
        let t = totals(&spans);
        assert_eq!(t["op"].self_ns, 100 - 30 - 40);
        assert_eq!(t["frame"].total_ns, 70);
        assert_eq!(t["frame"].self_ns, 30 + 30);
        assert_eq!(t["frame"].count, 2);
        assert_eq!(t["frame"].durs_ns, vec![30, 40]);
        assert_eq!(t["replay"].self_ns, 10);
        let all_self: u64 = t.values().map(|x| x.self_ns).sum();
        assert_eq!(all_self, 100, "self times partition the root span");
    }

    #[test]
    fn recorder_links_parents_and_ops() {
        let mut rec = Recorder::new(true);
        rec.set_op(7);
        let got = rec.span("outer", |rec| {
            rec.span_cycles("inner", |_| ((), 42));
            rec.span("inner", |_| ());
            5
        });
        assert_eq!(got, 5);
        let s = rec.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert!(s.iter().all(|x| x.op == 7 && x.end_ns >= x.start_ns));
        assert_eq!(rec.totals()["inner"].cycles, 42);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        assert_eq!(rec.span("x", |r| r.span_cycles("y", |_| (3, 9))), 3);
        assert!(rec.spans().is_empty());
    }
}

//! Hierarchical metrics registry.
//!
//! Components publish instruments under dotted paths — `gpu.core3.l1t.hits`,
//! `mem.dram.ch0.row_hits` — into a [`Registry`]. The registry supports
//! merging (aggregate across cores/channels by publishing to the same path),
//! snapshots with delta-since-snapshot (windowed measurement without
//! resetting live counters), and machine-readable JSON/CSV dumps at end of
//! run. The JSON forms are walks over [`JsonWriter`], the workspace's one
//! emitter: the offline build has no serde.

use emerald_common::json::{fmt_f64, JsonWriter};
use emerald_common::stats::{Ratio, Summary};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One instrument's current value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Monotonically increasing event count.
    Counter(u64),
    /// Point-in-time level (queue depth, open rows); deltas keep the later
    /// value rather than subtracting.
    Gauge(u64),
    /// Hit/total ratio.
    Ratio(Ratio),
    /// Streaming count/sum/min/max summary.
    Summary(Summary),
}

impl Value {
    /// Short kind tag (`"counter"`, `"ratio"`, …) used in dumps.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Counter(_) => "counter",
            Value::Gauge(_) => "gauge",
            Value::Ratio(_) => "ratio",
            Value::Summary(_) => "summary",
        }
    }

    /// A representative scalar: the count/level, the ratio value or the
    /// summary mean.
    pub fn scalar(&self) -> f64 {
        match self {
            Value::Counter(c) | Value::Gauge(c) => *c as f64,
            Value::Ratio(r) => r.value(),
            Value::Summary(s) => s.mean(),
        }
    }

    /// Merges `other` into `self` (sum counters, combine ratio/summary
    /// contributions, keep the larger gauge).
    ///
    /// # Panics
    ///
    /// Panics if the two values are of different kinds.
    pub fn merge(&mut self, other: &Value) {
        match (self, other) {
            (Value::Counter(a), Value::Counter(b)) => *a += b,
            (Value::Gauge(a), Value::Gauge(b)) => *a = (*a).max(*b),
            (Value::Ratio(a), Value::Ratio(b)) => a.merge(b),
            (Value::Summary(a), Value::Summary(b)) => a.merge(b),
            (a, b) => panic!("cannot merge {} into {}", b.kind(), a.kind()),
        }
    }

    /// The change from `earlier` to `self`.
    ///
    /// Counters and ratio/summary components subtract
    /// (saturating, so a component reset between snapshots yields zeros
    /// rather than wrapping); gauges keep the later value. For summaries the
    /// windowed min/max are unknowable from endpoints, so the later
    /// summary's extremes are kept — count/sum/mean are exact.
    fn delta(&self, earlier: &Value) -> Value {
        match (self, earlier) {
            (Value::Counter(a), Value::Counter(b)) => Value::Counter(a.saturating_sub(*b)),
            (Value::Gauge(a), _) => Value::Gauge(*a),
            (Value::Ratio(a), Value::Ratio(b)) => Value::Ratio(Ratio {
                num: a.num.saturating_sub(b.num),
                den: a.den.saturating_sub(b.den),
            }),
            (Value::Summary(a), Value::Summary(b)) => Value::Summary(Summary::from_parts(
                a.count().saturating_sub(b.count()),
                a.sum() - b.sum(),
                a.min(),
                a.max(),
            )),
            // Kind changed between snapshots: the instrument was
            // re-registered, so the later value IS the delta.
            (a, _) => a.clone(),
        }
    }
}

/// An immutable copy of a registry's contents at one point in time.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    entries: BTreeMap<String, Value>,
}

/// Hierarchical instrument store keyed by dotted paths.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    entries: BTreeMap<String, Value>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts or replaces the instrument at `path`.
    pub fn set(&mut self, path: impl Into<String>, value: Value) {
        self.entries.insert(path.into(), value);
    }

    /// Inserts or replaces a counter.
    pub fn set_counter(&mut self, path: impl Into<String>, count: u64) {
        self.set(path, Value::Counter(count));
    }

    /// Inserts or replaces a gauge.
    pub fn set_gauge(&mut self, path: impl Into<String>, level: u64) {
        self.set(path, Value::Gauge(level));
    }

    /// Inserts or replaces a ratio.
    pub fn set_ratio(&mut self, path: impl Into<String>, ratio: Ratio) {
        self.set(path, Value::Ratio(ratio));
    }

    /// Inserts or replaces a summary.
    pub fn set_summary(&mut self, path: impl Into<String>, summary: Summary) {
        self.set(path, Value::Summary(summary));
    }

    /// Merges `value` into the instrument at `path`, inserting if absent.
    /// This is how per-core contributions aggregate under one path.
    fn merge_value(&mut self, path: impl Into<String>, value: Value) {
        match self.entries.entry(path.into()) {
            std::collections::btree_map::Entry::Occupied(mut e) => e.get_mut().merge(&value),
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(value);
            }
        }
    }

    /// Merges every instrument of `other` into this registry.
    pub fn merge(&mut self, other: &Registry) {
        for (path, value) in &other.entries {
            self.merge_value(path.clone(), value.clone());
        }
    }

    /// Looks up an instrument by path.
    pub fn get(&self, path: &str) -> Option<&Value> {
        self.entries.get(path)
    }

    /// Iterates instruments in path order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of instruments.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Captures the current values for later [`Registry::delta_since`].
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            entries: self.entries.clone(),
        }
    }

    /// The per-instrument change since `snap` (see `Value::delta`).
    /// Instruments that appeared after the snapshot are included verbatim;
    /// instruments that disappeared are dropped.
    pub fn delta_since(&self, snap: &Snapshot) -> Registry {
        let mut out = Registry::new();
        for (path, value) in &self.entries {
            let d = match snap.entries.get(path) {
                Some(earlier) => value.delta(earlier),
                None => value.clone(),
            };
            out.entries.insert(path.clone(), d);
        }
        out
    }

    /// Renders the registry as pretty-printed hierarchical JSON: dotted
    /// paths become nested objects, leaves become kind-tagged objects (bare
    /// numbers for counters/gauges). A node that is both a leaf and a parent
    /// stores its own value under `"_self"`.
    pub fn to_json(&self) -> String {
        let mut out = self.render(JsonWriter::pretty());
        out.push('\n');
        out
    }

    /// Renders the same hierarchical document as [`Registry::to_json`]
    /// but compact and single-line — no newlines, no indentation — so a
    /// dump can be embedded in a JSONL protocol record. Parsing the two
    /// forms yields equal values.
    pub fn to_json_compact(&self) -> String {
        self.render(JsonWriter::new())
    }

    fn render(&self, mut w: JsonWriter) -> String {
        let mut root = Node::default();
        for (path, value) in &self.entries {
            let mut node = &mut root;
            for seg in path.split('.') {
                node = node.children.entry(seg).or_default();
            }
            node.value = Some(value);
        }
        write_node(&mut w, &root);
        w.finish()
    }

    /// Renders the registry as long-format CSV with header
    /// `path,kind,field,value` — one row per instrument field, so any
    /// spreadsheet or dataframe library can pivot it without a parser.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("path,kind,field,value\n");
        for (path, value) in &self.entries {
            let kind = value.kind();
            let mut row = |field: &str, val: String| {
                let _ = writeln!(out, "{path},{kind},{field},{val}");
            };
            match value {
                Value::Counter(c) | Value::Gauge(c) => row("value", c.to_string()),
                Value::Ratio(r) => {
                    row("num", r.num.to_string());
                    row("den", r.den.to_string());
                    row("value", fmt_f64(r.value()));
                }
                Value::Summary(s) => {
                    row("count", s.count().to_string());
                    row("sum", fmt_f64(s.sum()));
                    row("min", fmt_f64(s.min()));
                    row("max", fmt_f64(s.max()));
                    row("mean", fmt_f64(s.mean()));
                }
            }
        }
        out
    }
}

#[derive(Default)]
struct Node<'a> {
    value: Option<&'a Value>,
    children: BTreeMap<&'a str, Node<'a>>,
}

fn write_node(w: &mut JsonWriter, node: &Node<'_>) {
    match (node.value, node.children.is_empty()) {
        (Some(v), true) => write_leaf(w, v),
        (own, _) => {
            w.begin_obj();
            if let Some(v) = own {
                w.key("_self");
                write_leaf(w, v);
            }
            for (name, child) in &node.children {
                w.key(name);
                write_node(w, child);
            }
            w.end_obj();
        }
    }
}

fn write_leaf(w: &mut JsonWriter, value: &Value) {
    match value {
        Value::Counter(c) | Value::Gauge(c) => {
            w.num_u64(*c);
        }
        Value::Ratio(r) => {
            w.begin_obj().key("kind").str("ratio");
            w.key("num").num_u64(r.num).key("den").num_u64(r.den);
            w.key("value").num(r.value()).end_obj();
        }
        Value::Summary(s) => {
            w.begin_obj().key("kind").str("summary");
            w.key("count").num_u64(s.count()).key("sum").num(s.sum());
            w.key("min").num(s.min()).key("max").num(s.max());
            w.key("mean").num(s.mean()).end_obj();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_and_kinds() {
        let mut reg = Registry::new();
        reg.set_counter("gpu.core0.issued", 42);
        reg.set_gauge("mem.q.depth", 7);
        let mut r = Ratio::default();
        r.record(true);
        r.record(false);
        reg.set_ratio("gpu.core0.l1d.hits", r);
        assert_eq!(reg.get("gpu.core0.issued"), Some(&Value::Counter(42)));
        assert_eq!(reg.get("gpu.core0.l1d.hits").unwrap().kind(), "ratio");
        assert_eq!(reg.len(), 3);
        assert!((reg.get("gpu.core0.l1d.hits").unwrap().scalar() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn merge_aggregates_same_path() {
        let mut reg = Registry::new();
        reg.merge_value("gpu.issued", Value::Counter(10));
        reg.merge_value("gpu.issued", Value::Counter(5));
        assert_eq!(reg.get("gpu.issued"), Some(&Value::Counter(15)));

        let mut other = Registry::new();
        other.set_counter("gpu.issued", 1);
        other.set_counter("gpu.retired", 2);
        reg.merge(&other);
        assert_eq!(reg.get("gpu.issued"), Some(&Value::Counter(16)));
        assert_eq!(reg.get("gpu.retired"), Some(&Value::Counter(2)));
    }

    #[test]
    fn snapshot_delta_counter_and_gauge() {
        let mut reg = Registry::new();
        reg.set_counter("c", 10);
        reg.set_gauge("g", 3);
        let snap = reg.snapshot();
        reg.set_counter("c", 25);
        reg.set_gauge("g", 1);
        reg.set_counter("new", 4);
        let d = reg.delta_since(&snap);
        assert_eq!(d.get("c"), Some(&Value::Counter(15)));
        assert_eq!(d.get("g"), Some(&Value::Gauge(1)));
        assert_eq!(d.get("new"), Some(&Value::Counter(4)));
    }

    #[test]
    fn compact_json_parses_equal_to_pretty() {
        use emerald_common::json::Json;
        let mut reg = Registry::new();
        reg.set_counter("gpu.core0.issued", 42);
        reg.set_gauge("mem.q.depth", 7);
        let mut ratio = Ratio::default();
        ratio.record(true);
        ratio.record(false);
        reg.set_ratio("gpu.core0.l1d.hits", ratio);
        let mut s = Summary::default();
        s.add(1.5);
        s.add(-2.0);
        reg.set_summary("mem.lat", s);
        // A path that is both a leaf and a parent exercises "_self".
        reg.set_counter("gpu.core0", 1);

        let compact = reg.to_json_compact();
        assert!(!compact.contains('\n'), "compact dump holds raw newline");
        assert_eq!(
            Json::parse(&compact).expect("compact parses"),
            Json::parse(&reg.to_json()).expect("pretty parses"),
        );
    }

    #[test]
    fn hostile_paths_and_non_finite_values_stay_valid_json() {
        use emerald_common::json::Json;
        let mut reg = Registry::new();
        // A quote and a control character inside a path segment.
        reg.set_counter("gpu.\"odd\u{1}\".issued", 3);
        // A summary whose sum, max and mean have no JSON number.
        let mut s = Summary::new();
        s.add(f64::INFINITY);
        s.add(1.0);
        reg.set_summary("mem.lat", s);

        let compact = Json::parse(&reg.to_json_compact()).expect("compact parses");
        assert_eq!(compact, Json::parse(&reg.to_json()).expect("pretty parses"));
        let gpu = compact.get("gpu").expect("gpu node");
        assert_eq!(
            gpu.get("\"odd\u{1}\"").and_then(|n| n.get("issued")),
            Some(&Json::Num(3.0)),
            "the segment must round-trip through the escape"
        );
        let lat = compact.get("mem").and_then(|m| m.get("lat")).expect("leaf");
        assert_eq!(lat.get("min"), Some(&Json::Num(1.0)));
        for field in ["sum", "max", "mean"] {
            assert_eq!(lat.get(field), Some(&Json::Null), "{field}");
        }
    }

    #[test]
    fn delta_survives_component_reset() {
        let mut reg = Registry::new();
        reg.set_counter("c", 100);
        let snap = reg.snapshot();
        // Component was reset behind our back: the live count went down.
        reg.set_counter("c", 30);
        let d = reg.delta_since(&snap);
        assert_eq!(d.get("c"), Some(&Value::Counter(0)));
    }

    #[test]
    fn json_nests_by_dots() {
        let mut reg = Registry::new();
        reg.set_counter("gpu.core0.issued", 1);
        reg.set_counter("gpu.core1.issued", 2);
        reg.set_counter("mem.reads", 3);
        let json = reg.to_json();
        assert!(json.contains("\"gpu\""));
        assert!(json.contains("\"core0\""));
        assert!(json.contains("\"issued\": 1"));
        assert!(json.contains("\"mem\""));
    }

    #[test]
    fn json_handles_leaf_with_children() {
        let mut reg = Registry::new();
        reg.set_counter("a.b", 1);
        reg.set_counter("a.b.c", 2);
        let json = reg.to_json();
        assert!(json.contains("\"_self\": 1"), "got: {json}");
        assert!(json.contains("\"c\": 2"), "got: {json}");
    }

    #[test]
    fn csv_long_format() {
        let mut reg = Registry::new();
        reg.set_ratio("r", Ratio { num: 1, den: 2 });
        let csv = reg.to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("path,kind,field,value"));
        assert!(csv.contains("r,ratio,num,1"));
        assert!(csv.contains("r,ratio,value,0.5"));
    }
}

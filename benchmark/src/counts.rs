//! Exact simulated counts, read from the library's registry dumps.
//!
//! Every workload's statistics arrive as a `Registry` (or, for sweep
//! sessions, as the registry's JSON dump). Both are flattened into dotted
//! paths through the same JSON walk and summed, so one extractor serves
//! all five workloads. These counts repeat exactly from run to run.

use emerald::common::json::Json;
use emerald::obs::Registry;
use std::collections::BTreeMap;

/// Summed numeric leaves by dotted registry path. Ratios contribute
/// `<path>.num` and `<path>.den`; summaries and histograms are skipped.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts(BTreeMap<String, f64>);

impl Counts {
    /// Adds `v` to `path`.
    pub fn add(&mut self, path: &str, v: f64) {
        *self.0.entry(path.to_string()).or_insert(0.0) += v;
    }

    /// Adds every numeric leaf of a registry dump.
    pub fn add_json(&mut self, doc: &Json) {
        let mut path = String::new();
        self.walk(doc, &mut path, &|_| true);
    }

    /// Adds the leaves of `reg` whose path passes `keep`.
    pub fn add_registry(&mut self, reg: &Registry, keep: impl Fn(&str) -> bool) {
        let doc = Json::parse(&reg.to_json_compact()).expect("registry dumps are valid JSON");
        let mut path = String::new();
        self.walk(&doc, &mut path, &keep);
    }

    fn walk(&mut self, node: &Json, path: &mut String, keep: &dyn Fn(&str) -> bool) {
        match node {
            Json::Num(n) if keep(path) => self.add(path, *n),
            Json::Obj(fields) => match node.get("kind").and_then(Json::as_str) {
                Some("ratio") if keep(path) => {
                    for part in ["num", "den"] {
                        let v = node.get(part).and_then(Json::as_num).unwrap_or(0.0);
                        self.add(&format!("{path}.{part}"), v);
                    }
                }
                Some(_) => {}
                None => {
                    for (key, child) in fields {
                        let len = path.len();
                        if key != "_self" {
                            if !path.is_empty() {
                                path.push('.');
                            }
                            path.push_str(key);
                        }
                        self.walk(child, path, keep);
                        path.truncate(len);
                    }
                }
            },
            _ => {}
        }
    }

    /// The value at `path` (0 when the workload never touched it).
    pub fn get(&self, path: &str) -> f64 {
        self.0.get(path).copied().unwrap_or(0.0)
    }

    /// Sum over every path that starts with `prefix` and ends with
    /// `suffix` — e.g. `gfx.cluster` … `.fragments` across clusters.
    pub fn sum(&self, prefix: &str, suffix: &str) -> f64 {
        self.0
            .iter()
            .filter(|(p, _)| p.starts_with(prefix) && p.ends_with(suffix))
            .fold(0.0, |acc, (_, v)| acc + v)
    }

    /// `num / den`, 0 when `den` is 0.
    pub fn ratio(num: f64, den: f64) -> f64 {
        if den == 0.0 {
            0.0
        } else {
            num / den
        }
    }

    /// The ratio instrument at `path`.
    pub fn hit_ratio(&self, path: &str) -> f64 {
        Self::ratio(
            self.get(&format!("{path}.num")),
            self.get(&format!("{path}.den")),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emerald::common::stats::Ratio;

    #[test]
    fn registries_flatten_and_sum() {
        let mut reg = Registry::new();
        reg.set_counter("gfx.cluster0.fragments", 10);
        reg.set_counter("gfx.cluster1.fragments", 5);
        reg.set_counter("gfx.gpu.issued", 100);
        reg.set_counter("gfx.gpu.issued.extra", 1); // leaf that is also a parent
        reg.set_ratio("mem.dram.row_hits", Ratio { num: 3, den: 4 });
        let mut c = Counts::default();
        c.add_registry(&reg, |_| true);
        c.add_registry(&reg, |p| p.starts_with("gfx."));
        assert_eq!(c.sum("gfx.cluster", ".fragments"), 30.0);
        assert_eq!(c.get("gfx.gpu.issued"), 200.0);
        assert_eq!(c.get("gfx.gpu.issued.extra"), 2.0);
        assert_eq!(c.hit_ratio("mem.dram.row_hits"), 0.75);
        assert_eq!(c.get("mem.dram.row_hits.den"), 4.0, "filtered out once");
        assert_eq!(c.get("no.such.path"), 0.0);
        assert_eq!(Counts::ratio(1.0, 0.0), 0.0);
    }
}

//! Result files: what one process prints, what `run` pools out of its
//! children, the trace file, and the contract line an outside driver reads.

use crate::golden;
use crate::host::Fingerprint;
use crate::layers::Values;
use crate::metrics::{Kind, END_TO_END, PER_LAYER};
use crate::runner::Outcome;
use crate::span::{NameTotals, Recorder};
use crate::stats::Summary;
use crate::workloads::{self, Workload};
use emerald::common::json::{Json, JsonWriter};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Schema tag of a pooled result set.
pub const SCHEMA: &str = "emerald-benchmark-v1";

fn write_values(w: &mut JsonWriter, values: &Values) {
    w.begin_obj();
    for (name, v) in values {
        w.key(name).num(*v);
    }
    w.end_obj();
}

fn write_config(w: &mut JsonWriter, env_cleared: &[&str]) {
    w.begin_obj();
    w.key("threads").num_u64(workloads::THREADS as u64);
    w.key("event_skip").bool(workloads::EVENT_SKIP);
    w.key("cpu_batch").bool(workloads::CPU_BATCH);
    w.key("parallel_threshold")
        .num_u64(workloads::PAR_THRESHOLD as u64);
    w.key("sweep_workers")
        .num_u64(workloads::SWEEP_WORKERS as u64);
    w.key("env_cleared").begin_arr();
    for name in env_cleared {
        w.str(name);
    }
    w.end_arr();
    w.end_obj();
}

/// The full record of one process (`benchmark one`), one line.
pub fn one_json(out: &Outcome) -> String {
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.key("workload").str(out.options.workload.name());
    w.key("seed").num_u64(out.options.seed);
    w.key("traced").bool(out.options.traced);
    w.key("config");
    write_config(&mut w, &out.env_cleared);
    w.key("host");
    out.host.write(&mut w);
    w.key("reps").num_u64(out.reps as u64);
    w.key("op_unit").str(out.options.workload.op_unit());
    w.key("ops").num_u64(out.attempted as u64);
    w.key("ops_failed").num_u64(out.failed as u64);
    w.key("cycles").num_u64(out.cycles);
    w.key("op_list").begin_arr();
    for op in &out.ops {
        w.begin_obj();
        w.key("name").str(&op.name);
        w.key("cycles").num_u64(op.cycles);
        w.key("digest").str(&golden::hex(op.digest));
        w.end_obj();
    }
    w.end_arr();
    w.key("values");
    write_values(&mut w, &out.values);
    w.key("samples").begin_obj();
    for (name, samples) in &out.samples {
        w.key(name).begin_arr();
        for s in samples {
            w.num(*s);
        }
        w.end_arr();
    }
    w.end_obj();
    for (key, reps) in [("op_wall_s", &out.op_wall_s), ("op_speed", &out.op_speed)] {
        w.key(key).begin_arr();
        for rep in reps {
            w.begin_arr();
            for s in rep {
                w.num(*s);
            }
            w.end_arr();
        }
        w.end_arr();
    }
    w.key("exact");
    write_values(&mut w, &out.exact);
    if let Some(layers) = &out.layers {
        w.key("layers");
        write_values(&mut w, layers);
    }
    if let Some(path) = &out.trace_file {
        w.key("trace_file").str(&path.display().to_string());
    }
    w.end_obj();
    w.finish()
}

/// The line an outside driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics` — the end-to-end values of an untraced run, or
/// the per-layer values of a traced one.
pub fn contract_json(out: &Outcome) -> String {
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.key("correct").bool(out.failed == 0);
    w.key("attempted").num_u64(out.attempted.max(1) as u64);
    w.key("failed").num_u64(out.failed as u64);
    w.key("metrics").begin_obj();
    let mut metric = |name: &str, value: f64, unit: &str| {
        w.key(name).begin_obj();
        w.key("value").num(value);
        w.key("unit").str(unit);
        w.end_obj();
    };
    match &out.layers {
        Some(layers) => {
            for m in &PER_LAYER {
                metric(m.name, layers[m.name], m.unit);
            }
        }
        None => {
            for m in &END_TO_END {
                let value = out.values.get(m.name).copied().unwrap_or(0.0);
                metric(m.name, value, m.unit);
            }
        }
    }
    w.end_obj();
    w.end_obj();
    w.finish()
}

/// Directory the trace files go to: `out/` beside this package's manifest.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Writes `out/trace_<workload>.json`: every span, the per-name totals
/// with self times, and the per-layer metrics. Returns the path, or `None`
/// (with a message) when the file cannot be written — the metrics still
/// reach stdout.
pub fn write_trace(
    out: &Outcome,
    wall_s: f64,
    rec: &Recorder,
    totals: &BTreeMap<&'static str, NameTotals>,
    values: &Values,
) -> Option<PathBuf> {
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.key("workload").str(out.options.workload.name());
    w.key("seed").num_u64(out.options.seed);
    w.key("host");
    out.host.write(&mut w);
    w.key("config");
    write_config(&mut w, &out.env_cleared);
    w.key("wall_s").num(wall_s);
    w.key("metrics").begin_obj();
    for m in &PER_LAYER {
        w.key(m.name).begin_obj();
        w.key("value").num(values[m.name]);
        w.key("unit").str(m.unit);
        w.key("kind").str(match m.kind {
            Kind::Exact => "exact",
            Kind::Timed => "timed",
            Kind::Estimate => "estimate",
        });
        w.end_obj();
    }
    w.end_obj();
    w.key("totals").begin_obj();
    for (name, t) in totals {
        w.key(name).begin_obj();
        w.key("count").num_u64(t.count);
        w.key("total_ms").num(t.total_ns as f64 / 1e6);
        w.key("self_ms").num(t.self_ns as f64 / 1e6);
        w.key("cycles").num_u64(t.cycles);
        w.end_obj();
    }
    w.end_obj();
    w.key("spans").begin_arr();
    for s in rec.spans() {
        w.begin_obj();
        w.key("name").str(s.name);
        w.key("start_ns").num_u64(s.start_ns);
        w.key("end_ns").num_u64(s.end_ns);
        match s.parent {
            Some(p) => w.key("parent").num_u64(p as u64),
            None => w.key("parent").null(),
        };
        w.key("op").num_u64(u64::from(s.op));
        w.key("cycles").num_u64(s.cycles);
        w.end_obj();
    }
    w.end_arr();
    w.end_obj();
    let dir = out_dir();
    let path = dir.join(format!("trace_{}.json", out.options.workload.name()));
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, w.finish()));
    match written {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
            None
        }
    }
}

/// One workload's pooled results over the rounds of a `run`.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// Unit of an op.
    pub op_unit: String,
    /// Ops attempted over all rounds.
    pub ops: u64,
    /// Ops failed over all rounds.
    pub ops_failed: u64,
    /// Simulated cycles of one repetition.
    pub cycles: u64,
    /// Every op's cycles and digest folded into one digest.
    pub digest: u64,
    /// Exact simulated statistics (must be identical between sets).
    pub exact: BTreeMap<String, f64>,
    /// Per-metric summaries over the pooled samples.
    pub metrics: BTreeMap<String, Summary>,
}

/// A pooled result set: what `run` writes and `compare` reads.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// Host the set was measured on.
    pub host: Fingerprint,
    /// Interleaved rounds.
    pub rounds: u64,
    /// Input seed.
    pub seed: u64,
    /// Results by workload name.
    pub workloads: BTreeMap<String, WorkloadResult>,
}

fn num(j: &Json, k: &str) -> Result<f64, String> {
    j.get(k)
        .and_then(Json::as_num)
        .ok_or_else(|| format!("no number {k:?}"))
}

fn fields<'a>(j: &'a Json, k: &str) -> Result<&'a [(String, Json)], String> {
    match j.get(k) {
        Some(Json::Obj(fields)) => Ok(fields),
        _ => Err(format!("no object {k:?}")),
    }
}

fn numbers(j: &Json, k: &str) -> Result<BTreeMap<String, f64>, String> {
    Ok(fields(j, k)?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.as_num()?)))
        .collect())
}

/// Pools the `one` records of a workload's rounds.
pub fn pool(records: &[Json]) -> Result<WorkloadResult, String> {
    let first = records.first().ok_or("no records to pool")?;
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let (mut ops, mut ops_failed) = (0, 0);
    for r in records {
        ops += num(r, "ops")? as u64;
        ops_failed += num(r, "ops_failed")? as u64;
        // One sample per process: its settled value of each metric.
        for (name, value) in numbers(r, "values")? {
            samples.entry(name).or_default().push(value);
        }
    }
    let op_list = first
        .get("op_list")
        .and_then(Json::as_arr)
        .ok_or("record lacks op_list")?;
    let digest = workloads::digest_words(op_list.iter().flat_map(|op| {
        let cycles = op.get("cycles").and_then(Json::as_num).unwrap_or(0.0) as u64;
        let digest = op
            .get("digest")
            .and_then(Json::as_str)
            .and_then(golden::parse_hex)
            .unwrap_or(0);
        [
            cycles as u32,
            (cycles >> 32) as u32,
            digest as u32,
            (digest >> 32) as u32,
        ]
    }));
    Ok(WorkloadResult {
        op_unit: first
            .get("op_unit")
            .and_then(Json::as_str)
            .unwrap_or("op")
            .to_string(),
        ops,
        ops_failed,
        cycles: num(first, "cycles")? as u64,
        digest,
        exact: numbers(first, "exact")?,
        metrics: samples
            .into_iter()
            .filter_map(|(k, v)| Some((k, Summary::of(&v)?)))
            .collect(),
    })
}

impl ResultSet {
    /// Renders the set as one JSON document.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.key("schema").str(SCHEMA);
        w.key("host");
        self.host.write(&mut w);
        w.key("rounds").num_u64(self.rounds);
        w.key("seed").num_u64(self.seed);
        w.key("workloads").begin_obj();
        for (name, r) in &self.workloads {
            w.key(name).begin_obj();
            w.key("op_unit").str(&r.op_unit);
            w.key("ops").num_u64(r.ops);
            w.key("ops_failed").num_u64(r.ops_failed);
            w.key("cycles").num_u64(r.cycles);
            w.key("digest").str(&golden::hex(r.digest));
            w.key("exact").begin_obj();
            for (k, v) in &r.exact {
                w.key(k).num(*v);
            }
            w.end_obj();
            w.key("metrics").begin_obj();
            for (k, s) in &r.metrics {
                w.key(k).begin_obj();
                w.key("unit").str(unit_of(k));
                w.key("median").num(s.median);
                w.key("q1").num(s.q1);
                w.key("q3").num(s.q3);
                w.key("n").num_u64(s.n as u64);
                w.end_obj();
            }
            w.end_obj();
            w.end_obj();
        }
        w.end_obj();
        w.end_obj();
        w.finish()
    }

    /// Parses what [`ResultSet::to_json`] wrote.
    pub fn parse(text: &str) -> Result<ResultSet, String> {
        let doc = Json::parse(text)?;
        if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("not a {SCHEMA} result set"));
        }
        let mut workloads = BTreeMap::new();
        for (name, r) in fields(&doc, "workloads")? {
            let mut metrics = BTreeMap::new();
            for (k, m) in fields(r, "metrics")? {
                metrics.insert(
                    k.clone(),
                    Summary {
                        n: num(m, "n")? as usize,
                        q1: num(m, "q1")?,
                        median: num(m, "median")?,
                        q3: num(m, "q3")?,
                    },
                );
            }
            workloads.insert(
                name.clone(),
                WorkloadResult {
                    op_unit: r
                        .get("op_unit")
                        .and_then(Json::as_str)
                        .unwrap_or("op")
                        .to_string(),
                    ops: num(r, "ops")? as u64,
                    ops_failed: num(r, "ops_failed")? as u64,
                    cycles: num(r, "cycles")? as u64,
                    digest: r
                        .get("digest")
                        .and_then(Json::as_str)
                        .and_then(golden::parse_hex)
                        .ok_or("result set lacks digest")?,
                    exact: numbers(r, "exact")?,
                    metrics,
                },
            );
        }
        Ok(ResultSet {
            host: doc
                .get("host")
                .and_then(Fingerprint::from_json)
                .ok_or("result set lacks host")?,
            rounds: num(&doc, "rounds")? as u64,
            seed: num(&doc, "seed")? as u64,
            workloads,
        })
    }

    /// The human table `run` prints on stderr.
    pub fn table(&self) -> String {
        let mut s = String::new();
        for (name, r) in &self.workloads {
            s += &format!(
                "{name}: {} {}s, {} failed, {} cycles/rep\n",
                r.ops, r.op_unit, r.ops_failed, r.cycles
            );
            for m in &END_TO_END {
                if let Some(x) = r.metrics.get(m.name) {
                    s += &format!(
                        "  {:<24} {:>14.4} {:<9} q1 {:.4} q3 {:.4} spread {:>5.1}% n={}\n",
                        m.name,
                        x.median,
                        m.unit,
                        x.q1,
                        x.q3,
                        x.spread() * 100.0,
                        x.n
                    );
                }
            }
        }
        s
    }
}

fn unit_of(metric: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == metric)
        .map_or("", |(_, u)| u)
}

/// The per-layer table `trace` prints on stderr.
pub fn layer_table(workload: Workload, layers: &Values) -> String {
    let mut s = format!("{} (traced)\n", workload.name());
    for m in &PER_LAYER {
        s += &format!("  {:<30} {:>16.4} {}\n", m.name, layers[m.name], m.unit);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(wall: f64) -> Json {
        Json::parse(&format!(
            r#"{{"workload":"gpgpu_mix","op_unit":"kernel","ops":3,"ops_failed":0,"cycles":1000,
                "op_list":[{{"name":"saxpy","cycles":600,"digest":"0xffffffffffffffff"}},
                           {{"name":"clamp","cycles":400,"digest":"0x0000000000000001"}}],
                "values":{{"wall_s":{wall},"peak_rss_mib":7.5}},
                "exact":{{"gpu.warp_instrs":123456,"gpu.ipc":0.25}}}}"#
        ))
        .unwrap()
    }

    fn set() -> ResultSet {
        let pooled = pool(&[record(1.0), record(3.0), record(2.0)]).unwrap();
        ResultSet {
            host: Fingerprint {
                nproc: 2,
                cpu_model: "Test \"CPU\" @ 2.10GHz".to_string(),
                rustc: "rustc 1.95.0".to_string(),
                git_commit: "unknown".to_string(),
                loadavg_1m: 0.25,
            },
            rounds: 3,
            seed: 1,
            workloads: BTreeMap::from([("gpgpu_mix".to_string(), pooled)]),
        }
    }

    #[test]
    fn pooling_sums_ops_and_summarises_samples() {
        let r = &set().workloads["gpgpu_mix"];
        assert_eq!((r.ops, r.ops_failed, r.cycles), (9, 0, 1000));
        let wall = r.metrics["wall_s"];
        assert_eq!((wall.n, wall.q1, wall.median, wall.q3), (3, 1.0, 2.0, 3.0));
        assert_eq!(r.exact["gpu.warp_instrs"], 123456.0);
        assert_ne!(r.digest, 0);
    }

    #[test]
    fn result_set_round_trips_through_the_library_parser() {
        let set = set();
        let text = set.to_json();
        assert!(!text.contains('\n'));
        assert_eq!(ResultSet::parse(&text).unwrap(), set);
        assert!(ResultSet::parse("{\"schema\":\"other\"}").is_err());
        assert!(ResultSet::parse("not json").is_err());
    }
}

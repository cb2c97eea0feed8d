//! The repo benchmark. See `README.md` beside this package and
//! `BENCHMARK.json` at the repo root.
//!
//! ```text
//! benchmark run     [--rounds 5] [--seed 1] [--workload NAME] [--seconds 8] [--out FILE]
//! benchmark trace   [--seed 1] [--workload NAME]
//! benchmark one     <workload> [--seed 1] [--seconds 0] [--traced]
//! benchmark compare A.json B.json
//! benchmark golden
//! benchmark --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! The last form is the one an outside driver calls: `one` with the
//! four-key result object as the last line of stdout.

mod compare;
mod counts;
mod golden;
mod host;
mod layers;
mod metrics;
mod probes;
mod report;
mod runner;
mod span;
mod stats;
mod workloads;

use emerald::common::json::Json;
use report::ResultSet;
use runner::Options;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use workloads::Workload;

/// `--flag value` pairs and bare words of a command line.
struct Args {
    flags: BTreeMap<String, String>,
    words: Vec<String>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut flags = BTreeMap::new();
        let mut words = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some("traced") => {
                    flags.insert("traced".to_string(), "1".to_string());
                }
                Some(name) => {
                    let value = it.next().ok_or(format!("--{name} wants a value"))?;
                    flags.insert(name.to_string(), value.clone());
                }
                None => words.push(a.clone()),
            }
        }
        Ok(Args { flags, words })
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flags.get(name) {
            Some(v) => v.parse().map_err(|_| format!("--{name}: bad value {v:?}")),
            None => Ok(default),
        }
    }

    fn workloads(&self) -> Result<Vec<Workload>, String> {
        match self.flags.get("workload") {
            Some(name) => Ok(vec![parse_workload(name)?]),
            None => Ok(Workload::ALL.to_vec()),
        }
    }
}

fn parse_workload(name: &str) -> Result<Workload, String> {
    Workload::parse(name).ok_or_else(|| {
        let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?} (known: {})", known.join(", "))
    })
}

/// Runs `one` in a fresh child process and parses its record. A fresh
/// process per sample keeps allocator state from leaking between repeats
/// and makes `VmHWM` a per-workload number.
fn child(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("one")
        .arg(workload.name())
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if traced {
        cmd.arg("--traced");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().unwrap_or("");
    let record = Json::parse(line).map_err(|e| {
        format!(
            "{} child ({}) printed no record: {e}",
            workload.name(),
            out.status
        )
    })?;
    Ok(record)
}

fn cmd_one(args: &Args, contract: bool) -> Result<ExitCode, String> {
    let workload = match (args.flags.get("workload"), args.words.first()) {
        (Some(name), _) | (None, Some(name)) => parse_workload(name)?,
        (None, None) => return Err("one wants a workload".to_string()),
    };
    let traced = if contract {
        args.get("trace", 0u8)? != 0
    } else {
        args.flags.contains_key("traced")
    };
    let outcome = runner::run(Options {
        workload,
        seed: args.get("seed", golden::SEED)?,
        seconds: args.get("seconds", 0.0)?,
        traced,
    });
    if let Some(layers) = &outcome.layers {
        eprint!("{}", report::layer_table(workload, layers));
    }
    if outcome.failed > 0 {
        eprintln!(
            "benchmark: {} of {} ops failed",
            outcome.failed, outcome.attempted
        );
    }
    if contract {
        // The driver reads failures from the result object.
        println!("{}", report::contract_json(&outcome));
        return Ok(ExitCode::SUCCESS);
    }
    println!("{}", report::one_json(&outcome));
    Ok(if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_run(args: &Args) -> Result<ExitCode, String> {
    let rounds: u64 = args.get("rounds", 5)?;
    let seed = args.get("seed", golden::SEED)?;
    // Long enough for two or three repetitions per round, so each round's
    // value is already a median.
    let seconds = args.get("seconds", 8.0)?;
    let selected = args.workloads()?;
    let host = host::Fingerprint::read();
    // Interleaved rounds: a slow stretch of the shared host lands on one
    // sample of every workload rather than on every sample of one.
    let mut records: BTreeMap<Workload, Vec<Json>> = BTreeMap::new();
    for round in 0..rounds {
        for &w in &selected {
            eprintln!("round {}/{rounds}: {}", round + 1, w.name());
            records
                .entry(w)
                .or_default()
                .push(child(w, seed, seconds, false)?);
        }
    }
    let mut set = ResultSet {
        host,
        rounds,
        seed,
        workloads: BTreeMap::new(),
    };
    for (w, recs) in &records {
        set.workloads
            .insert(w.name().to_string(), report::pool(recs)?);
    }
    eprint!("{}", set.table());
    let json = set.to_json();
    if let Some(path) = args.flags.get("out") {
        std::fs::write(path, &json).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    println!("{json}");
    let failed: u64 = set.workloads.values().map(|r| r.ops_failed).sum();
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_trace(args: &Args) -> Result<ExitCode, String> {
    let seed = args.get("seed", golden::SEED)?;
    let mut failed = false;
    let mut w = emerald::common::json::JsonWriter::new();
    w.begin_obj();
    for workload in args.workloads()? {
        let record = child(workload, seed, 0.0, true)?;
        failed |= record.get("ops_failed").and_then(Json::as_num) != Some(0.0);
        let layers = record
            .get("layers")
            .ok_or_else(|| format!("{}: traced run produced no layers", workload.name()))?;
        w.key(workload.name()).value(layers);
    }
    w.end_obj();
    println!("{}", w.finish());
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn cmd_compare(args: &Args) -> Result<ExitCode, String> {
    let [a, b] = args.words.as_slice() else {
        return Err("compare wants two result files".to_string());
    };
    let load = |path: &String| -> Result<ResultSet, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        ResultSet::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (load(a)?, load(b)?);
    let c = compare::compare(&a, &b);
    for line in &c.lines {
        println!("{line}");
    }
    for e in &c.errors {
        println!("ERROR {e}");
    }
    if c.cross_host {
        println!(
            "WARNING cross-host comparison: {} x{} vs {} x{} — timings are not comparable",
            a.host.cpu_model, a.host.nproc, b.host.cpu_model, b.host.nproc
        );
    }
    println!(
        "{} regressed, {} unresolved, {} errors",
        c.regressed,
        c.unresolved,
        c.errors.len()
    );
    Ok(ExitCode::from(c.exit_code() as u8))
}

fn cmd_golden() -> Result<ExitCode, String> {
    host::scrub_env();
    let inputs = workloads::generate(golden::SEED);
    let mut all = Vec::new();
    for w in Workload::ALL {
        eprintln!("golden: {}", w.name());
        let rep = workloads::run_rep(w, &inputs, &mut span::Recorder::new(false));
        if let Some(bad) = rep.ops.iter().find(|op| !op.verified) {
            return Err(format!("{}: op {} failed its check", w.name(), bad.name));
        }
        all.push((w, rep.ops.iter().map(golden::GoldOp::from).collect()));
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/golden.json");
    std::fs::write(path, golden::render(&all)).map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("wrote {path}; rebuild to embed it");
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.first().map(String::as_str) {
        Some(c @ ("run" | "trace" | "one" | "compare" | "golden")) => (c, &argv[1..]),
        // No subcommand: the driver form.
        _ => ("driver", &argv[..]),
    };
    let result = Args::parse(rest).and_then(|args| match command {
        "run" => cmd_run(&args),
        "trace" => cmd_trace(&args),
        "one" => cmd_one(&args, false),
        "compare" => cmd_compare(&args),
        "golden" => cmd_golden(),
        _ => cmd_one(&args, true),
    });
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(64)
        }
    }
}

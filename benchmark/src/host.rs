//! What the numbers depend on besides the code: the host, its load, and
//! the ambient environment.

use emerald::common::json::{Json, JsonWriter};
use std::time::Instant;

/// Environment variables that change how the library clocks or threads a
/// simulation. The benchmark sets those knobs on the config structs, so an
/// ambient value must not leak in through the preset constructors.
pub const SCRUBBED_ENV: [&str; 5] = [
    "EMERALD_THREADS",
    "EMERALD_SKIP",
    "EMERALD_CPU_BATCH",
    "EMERALD_PAR_THRESHOLD",
    "EMERALD_PROFILE",
];

/// Removes every [`SCRUBBED_ENV`] variable from this process and returns
/// the names that were set. Call before any thread is spawned.
pub fn scrub_env() -> Vec<&'static str> {
    let mut cleared = Vec::new();
    for name in SCRUBBED_ENV {
        if std::env::var_os(name).is_some() {
            std::env::remove_var(name);
            cleared.push(name);
        }
    }
    cleared
}

/// Identity of the machine and toolchain a result was measured on.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// Usable hardware threads.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc -V`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `unknown` outside a repository.
    pub git_commit: String,
    /// 1-minute load average when the run started.
    pub loadavg_1m: f64,
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

impl Fingerprint {
    /// Reads the fingerprint of this host.
    pub fn read() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let loadavg_1m = std::fs::read_to_string("/proc/loadavg")
            .ok()
            .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
            .unwrap_or(-1.0);
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            rustc: command_line("rustc", &["-V"]),
            git_commit: command_line("git", &["rev-parse", "HEAD"]),
            loadavg_1m,
        }
    }

    /// Writes the fingerprint as a JSON object value.
    pub fn write(&self, w: &mut JsonWriter) {
        w.begin_obj();
        w.key("nproc").num_u64(self.nproc as u64);
        w.key("cpu_model").str(&self.cpu_model);
        w.key("rustc").str(&self.rustc);
        w.key("git_commit").str(&self.git_commit);
        w.key("loadavg_1m").num(self.loadavg_1m);
        w.end_obj();
    }

    /// Reads back what [`Fingerprint::write`] wrote.
    pub fn from_json(j: &Json) -> Option<Self> {
        Some(Self {
            nproc: j.get("nproc")?.as_num()? as usize,
            cpu_model: j.get("cpu_model")?.as_str()?.to_string(),
            rustc: j.get("rustc")?.as_str()?.to_string(),
            git_commit: j.get("git_commit")?.as_str()?.to_string(),
            loadavg_1m: j.get("loadavg_1m")?.as_num()?,
        })
    }

    /// True when `other` was measured on comparable hardware: timings from
    /// different core counts or CPU models say nothing about the code.
    pub fn same_host(&self, other: &Fingerprint) -> bool {
        self.nproc == other.nproc && self.cpu_model == other.cpu_model
    }
}

fn status_kib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:").map_or(0.0, |k| k / 1024.0)
}

/// CPU seconds (user + system) this process and its finished threads have
/// consumed, from `/proc/self/stat` at the kernel's 100 Hz tick.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the line, i.e. 12th and 13th after it.
    let Some(rest) = stat.rsplit(')').next() else {
        return 0.0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// Milliseconds [`speed_factor`]'s loop takes on the reference host when
/// nothing else uses the core (its floor there, measured over 2 M
/// iterations: 3.413 and 3.422 ms per ten loops).
const SPEED_NOMINAL_MS: f64 = 0.3415;

/// How much slower than nominal the host runs throughput-bound code right
/// now: 1.0 on the quiet reference host, about 1.8 in its slow regime
/// (README, "Noise").
///
/// The loop is eight independent add/xor/shift chains, so like the
/// simulator it is limited by how many instructions the core issues per
/// cycle — what a busy sibling hardware thread takes away — and not by a
/// dependency chain: [`canary_ms`] is one, and the slow regime does not
/// show in it.
pub fn speed_factor() -> f64 {
    let t0 = Instant::now();
    let mut x = [1u64, 2, 3, 4, 5, 6, 7, 8];
    for i in 0..200_000u64 {
        x[0] = x[0].wrapping_add(i) ^ (x[0] >> 3);
        x[1] = x[1].wrapping_add(3) ^ (x[1] >> 5);
        x[2] = x[2].wrapping_add(i) ^ (x[2] >> 7);
        x[3] = x[3].wrapping_add(5) ^ (x[3] >> 9);
        x[4] = x[4].wrapping_add(i) ^ (x[4] >> 11);
        x[5] = x[5].wrapping_add(7) ^ (x[5] >> 13);
        x[6] = x[6].wrapping_add(i) ^ (x[6] >> 2);
        x[7] = x[7].wrapping_add(9) ^ (x[7] >> 4);
    }
    std::hint::black_box(x);
    t0.elapsed().as_secs_f64() * 1e3 / SPEED_NOMINAL_MS
}

/// A fixed integer loop, timed: the same instructions every call, so a
/// change in its time is a change in host speed, not in the code under
/// test. Returns milliseconds.
pub fn canary_ms() -> f64 {
    let t0 = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..4_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_round_trips_and_detects_other_hosts() {
        let fp = Fingerprint::read();
        assert!(fp.nproc >= 1);
        let mut w = JsonWriter::new();
        fp.write(&mut w);
        let back = Fingerprint::from_json(&Json::parse(&w.finish()).unwrap()).unwrap();
        assert_eq!(fp, back);
        assert!(fp.same_host(&back));
        let other = Fingerprint {
            nproc: fp.nproc + 6,
            ..fp.clone()
        };
        assert!(!fp.same_host(&other));
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mib() > 0.5);
        assert!(canary_ms() > 0.0);
        assert!(speed_factor() > 0.0);
        assert!(process_cpu_s() >= 0.0);
    }
}

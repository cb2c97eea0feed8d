//! One workload in one process: repetitions, verification, and — for the
//! traced run — spans, probes and the trace file.

use crate::golden::{self, GoldOp};
use crate::host::{self, Fingerprint};
use crate::layers::{self, TracedRun, Values};
use crate::probes;
use crate::span::Recorder;
use crate::workloads::{self, Inputs, Rep, Workload};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Keep repeating while another repetition fits into this many seconds
    /// (one repetition when 0). Ignored by the traced run, which is two
    /// repetitions.
    pub seconds: f64,
    /// Record spans and run the layer probes.
    pub traced: bool,
}

/// The outcome of one process's worth of a workload.
pub struct Outcome {
    /// What was run.
    pub options: Options,
    /// Environment variables that were set and got cleared.
    pub env_cleared: Vec<&'static str>,
    /// Host identity and load at start.
    pub host: Fingerprint,
    /// Repetitions completed or attempted.
    pub reps: usize,
    /// Ops attempted over all repetitions.
    pub attempted: usize,
    /// Ops that panicked, overran, or produced wrong output.
    pub failed: usize,
    /// Simulated cycles of one repetition's measured phase.
    pub cycles: u64,
    /// The ops of the first good repetition.
    pub ops: Vec<GoldOp>,
    /// This process's value of every end-to-end metric (see
    /// [`Outcome::settle`]).
    pub values: Values,
    /// Per-repetition samples: the raw `wall_s` and `setup_s`, the
    /// host-speed factors they were measured under (`speed`,
    /// `setup_speed`) and `host.canary_ms` — the raw material, kept for
    /// the noise record.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Wall seconds of each timed library call, per repetition.
    pub op_wall_s: Vec<Vec<f64>>,
    /// Host-speed factor around each of those calls, per repetition.
    pub op_speed: Vec<Vec<f64>>,
    /// Exact simulated statistics of one repetition.
    pub exact: Values,
    /// Per-layer metrics (traced run only).
    pub layers: Option<Values>,
    /// Where the trace was written (traced run only).
    pub trace_file: Option<std::path::PathBuf>,
}

impl Outcome {
    /// Settles the process's end-to-end values from its repetitions.
    ///
    /// Every timing is divided by the host-speed factor measured around
    /// it ([`host::speed_factor`]) and is then a time at the reference
    /// host's nominal speed. The reference host runs the simulator 1.6 to
    /// 1.9 times slower for minutes on end, and no statistic of raw times
    /// survives a change of regime in the middle of a set of runs; the
    /// speed loop slows by the same factor within some 10 % (README,
    /// "Noise"). `wall_s` is the sum over the timed
    /// call positions of the median, over the repetitions, of the scaled
    /// time at that position; `setup_s` is the median scaled set-up; RSS
    /// is the process's high-water mark. The raw times and the factors
    /// stay in the record (`samples`, `op_wall_s`, `op_speed`).
    fn settle(&mut self) {
        if self.op_wall_s.is_empty() {
            return;
        }
        let wall_s = scaled_total(&self.op_wall_s, &self.op_speed);
        let setups: Vec<f64> = self.samples["setup_s"]
            .iter()
            .zip(&self.samples["setup_speed"])
            .map(|(t, f)| t / f)
            .collect();
        let setup_s = crate::stats::median(&setups);
        let ops = self.options.workload.ops_per_rep() as f64;
        self.values = Values::from([
            ("host_ns_per_sim_cycle", wall_s * 1e9 / self.cycles as f64),
            ("wall_s", wall_s),
            ("setup_s", setup_s),
            ("peak_rss_mib", host::peak_rss_mib()),
            ("ops_per_s", ops / wall_s),
            (
                "host.canary_ms",
                crate::stats::median(&self.samples["host.canary_ms"]),
            ),
        ]);
    }
}

/// Sum over the call positions of the median, over the repetitions, of
/// `wall[rep][position] / speed[rep][position]`.
fn scaled_total(wall: &[Vec<f64>], speed: &[Vec<f64>]) -> f64 {
    (0..wall[0].len())
        .map(|i| {
            let scaled: Vec<f64> = wall.iter().zip(speed).map(|(w, f)| w[i] / f[i]).collect();
            crate::stats::median(&scaled)
        })
        .sum()
}

struct Tally {
    reference: Option<Vec<GoldOp>>,
    out: Outcome,
}

impl Tally {
    /// Runs one repetition, catching a panic (a library assert, an
    /// overrun cycle budget) as a repetition of failed ops.
    fn rep(&mut self, inputs: &Inputs, rec: &mut Recorder) -> Option<Rep> {
        let workload = self.out.options.workload;
        let mut canary = vec![host::canary_ms()];
        let rep = catch_unwind(AssertUnwindSafe(|| {
            workloads::run_rep(workload, inputs, rec)
        }));
        canary.push(host::canary_ms());
        self.out.reps += 1;
        self.out.attempted += workload.ops_per_rep();
        let Ok(rep) = rep else {
            self.out.failed += workload.ops_per_rep();
            return None;
        };
        let reference = self
            .reference
            .get_or_insert_with(|| rep.ops.iter().map(GoldOp::from).collect());
        self.out.failed += golden::failed_ops(&rep.ops, reference);
        if self.out.ops.is_empty() {
            self.out.ops = rep.ops.iter().map(GoldOp::from).collect();
            self.out.cycles = rep.cycles;
            self.out.exact = layers::exact(&rep.counts);
        }
        self.out.op_wall_s.push(rep.op_wall_s.clone());
        self.out.op_speed.push(rep.op_speed.clone());
        let mut sample = |name, v| self.out.samples.entry(name).or_default().push(v);
        sample("wall_s", rep.wall_s);
        sample("setup_s", rep.setup_s);
        sample("setup_speed", rep.setup_speed);
        sample("speed", crate::stats::median(&rep.op_speed));
        for c in canary {
            sample("host.canary_ms", c);
        }
        Some(rep)
    }
}

/// Runs `options` in this process. Call at most once, before any other
/// thread exists: it edits the environment.
pub fn run(options: Options) -> Outcome {
    let env_cleared = host::scrub_env();
    for name in &env_cleared {
        eprintln!("benchmark: cleared {name} (knobs are set on the config structs)");
    }
    let inputs = workloads::generate(options.seed);
    let mut tally = Tally {
        // Other seeds have no golden file: every repetition must then
        // equal the first.
        reference: (options.seed == golden::SEED)
            .then(|| golden::reference(options.workload))
            .flatten(),
        out: Outcome {
            options,
            env_cleared,
            host: Fingerprint::read(),
            reps: 0,
            attempted: 0,
            failed: 0,
            cycles: 0,
            ops: Vec::new(),
            values: Values::new(),
            samples: BTreeMap::new(),
            op_wall_s: Vec::new(),
            op_speed: Vec::new(),
            exact: Values::new(),
            layers: None,
            trace_file: None,
        },
    };
    if options.traced {
        traced(&mut tally, &inputs);
    } else {
        let t0 = Instant::now();
        loop {
            let rep_t0 = Instant::now();
            tally.rep(&inputs, &mut Recorder::new(false));
            // Stop as soon as one more repetition like the last would
            // overrun the budget: `--seconds` is a run's upper end, so the
            // runs of a whole check add up to a time known beforehand.
            let next_end = t0.elapsed().as_secs_f64() + rep_t0.elapsed().as_secs_f64();
            if next_end >= options.seconds {
                break;
            }
        }
    }
    let mut out = tally.out;
    out.settle();
    out
}

/// The traced run: an untraced repetition (the overhead baseline and the
/// identity check), the same repetition under spans, then the probes.
fn traced(tally: &mut Tally, inputs: &Inputs) {
    let untraced = tally.rep(inputs, &mut Recorder::new(false));
    let untraced_wall_s = untraced.map(|r| r.wall_s);
    let mut rec = Recorder::new(true);
    let (Some(rep), Some(untraced_wall_s)) = (tally.rep(inputs, &mut rec), untraced_wall_s) else {
        return;
    };
    // `Tally::rep` already held both repetitions to the same reference,
    // so traced and untraced cycles and digests are identical here unless
    // `failed` says otherwise.
    let measured = probes::run_all(rep.captured, inputs, &mut rec);
    let totals = rec.totals();
    let values = layers::per_layer(&TracedRun {
        counts: &rep.counts,
        totals: &totals,
        measured: &measured,
        traced_wall_s: rep.wall_s,
        untraced_wall_s,
        canary_ms: &tally.out.samples["host.canary_ms"],
    });
    tally.out.trace_file =
        crate::report::write_trace(&tally.out, rep.wall_s, &rec, &totals, &values);
    tally.out.layers = Some(values);
}

#[cfg(test)]
mod tests {
    use super::scaled_total;

    #[test]
    fn a_slow_host_scales_out_of_the_total() {
        // Three repetitions of two positions; the second ran on a host at
        // half speed, and the third hit a stall at position 0 that the
        // speed loop did not see.
        let wall = [vec![1.0, 3.0], vec![2.0, 6.0], vec![5.0, 3.0]];
        let speed = [vec![1.0, 1.0], vec![2.0, 2.0], vec![1.0, 1.0]];
        assert_eq!(scaled_total(&wall, &speed), 4.0);
    }
}

//! Regenerates every table and figure of the paper's evaluation that this
//! repository reproduces, checks the shape EXPERIMENTS.md claims for each,
//! and ends with EXPERIMENTS.md's Summary table as computed verdicts.
//!
//! ```text
//! $ cargo run --release --bin emerald_figures
//! ```
//!
//! It takes no flags. Each distinct simulation runs once and every figure
//! that reads it shares the result (`Lab`). When a claim does not hold,
//! the program names it and its numbers on stderr and exits 1.
//!
//! Scale: the paper renders 1024×768; these figures run at 96×72 to
//! 288×216 so that the whole program finishes in about a minute. Relative
//! effects — who wins and by what factor — are what they reproduce.

mod accuracy;
mod cell;
mod report;
mod standalone;

use accuracy::{run_accuracy_study, AccuracyReport};
use cell::{run_cell, CaseStudyResult, RunParams};
use emerald::common::stats::pearson;
use emerald::common::types::Cycle;
use emerald::core::{DfslConfig, FrameStats, GfxConfig};
use emerald::mem::dram::DramConfig;
use emerald::mem::mapping::AddressMapping;
use emerald::mem::system::{MemorySystemConfig, SourceClass, Steering};
use emerald::scene::workloads::{m_models, w_models, WorkloadDef};
use emerald::soc::experiment::calibrate_period;
use emerald::soc::trace::{filter_trace, replay_trace, ReplayResult};
use emerald::soc::MemCfgKind;
use report::{geomean_or_one, norm, print_series, print_table, row};
use standalone::{find_sopt, run_policy, wt_sweep, Policy, PolicyRun, Workbench};
use standalone::{DEFAULT_HEIGHT, DEFAULT_WIDTH};
use std::rc::Rc;

/// Everything about a case-study-I cell except its model and memory
/// configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Scenario {
    /// Figs. 9 and 11: regular load, 160×120, 3 profiled frames.
    Regular,
    /// Fig. 10: regular load, 160×120, 4 profiled frames, bandwidth probes.
    Timeline,
    /// Figs. 12–14: high load, 96×72, 2 profiled frames, with the
    /// bandwidth probes fig. 14 plots (they change no other number).
    HighLoad,
    /// Fig. 11's mechanism: the request trace of a warm-up and 1 frame at
    /// regular load, 160×120.
    GpuTrace,
    /// §5.2.3: regular load, 128×96, 2 profiled frames, request trace.
    Replay,
}

impl Scenario {
    fn size(self) -> (u32, u32) {
        match self {
            Scenario::Regular | Scenario::Timeline | Scenario::GpuTrace => (160, 120),
            Scenario::HighLoad => (96, 72),
            Scenario::Replay => (128, 96),
        }
    }

    fn params(self, period: Cycle) -> RunParams {
        use Scenario::*;
        let regular = DramConfig::lpddr3_1333();
        let (frames, dram, max_cycles_per_frame, probe_window) = match self {
            Regular => (3, regular, 400_000_000, None),
            Timeline => (4, regular, 400_000_000, Some((period / 24).max(500))),
            HighLoad => (
                2,
                DramConfig::high_load(),
                300_000_000,
                Some(period.max(2_000) / 12),
            ),
            GpuTrace => (1, regular, 400_000_000, None),
            Replay => (2, regular, 600_000_000, None),
        };
        let (width, height) = self.size();
        RunParams {
            width,
            height,
            frames,
            dram,
            gpu_frame_period: period,
            probe_window,
            max_cycles_per_frame,
            trace: matches!(self, GpuTrace | Replay),
        }
    }
}

/// Results by key: each simulated on its first read and shared with every
/// later one.
struct Memo<K, V> {
    entries: Vec<(K, Rc<V>)>,
    reads: usize,
}

impl<K, V> Default for Memo<K, V> {
    fn default() -> Self {
        Self {
            entries: Vec::new(),
            reads: 0,
        }
    }
}

impl<K: PartialEq, V> Memo<K, V> {
    fn get(&mut self, key: K, simulate: impl FnOnce() -> V) -> Rc<V> {
        self.reads += 1;
        if let Some((_, v)) = self.entries.iter().find(|(k, _)| *k == key) {
            return Rc::clone(v);
        }
        let v = Rc::new(simulate());
        self.entries.push((key, Rc::clone(&v)));
        v
    }
}

/// Every simulation the figures read; the ones two figures share go
/// through a memo.
#[derive(Default)]
struct Lab {
    /// Stand-in results instead of simulations, so that a test can drive
    /// every figure's reads through the memos in milliseconds.
    dry: bool,
    m: Vec<WorkloadDef>,
    w: Vec<WorkloadDef>,
    periods: Memo<(usize, (u32, u32)), Cycle>,
    cells: Memo<(usize, MemCfgKind, Scenario), CaseStudyResult>,
    sweeps: Memo<usize, Vec<FrameStats>>,
    policies: Memo<(usize, Policy, u32), PolicyRun>,
}

impl Lab {
    fn new(dry: bool) -> Self {
        let (m, w) = (m_models(), w_models());
        Self {
            dry,
            m,
            w,
            ..Self::default()
        }
    }

    /// Model `m`'s GPU frame period at `size`, shared by its four memory
    /// configurations.
    fn period(&mut self, m: usize, (width, height): (u32, u32)) -> Cycle {
        let (dry, model) = (self.dry, &self.m[m]);
        *self.periods.get((m, (width, height)), || match dry {
            true => 10_000,
            false => calibrate_period(model, width, height),
        })
    }

    fn cell(&mut self, m: usize, kind: MemCfgKind, scenario: Scenario) -> Rc<CaseStudyResult> {
        let params = scenario.params(self.period(m, scenario.size()));
        let (dry, model) = (self.dry, &self.m[m]);
        self.cells.get((m, kind, scenario), || match dry {
            true => CaseStudyResult::default(),
            false => run_cell(model, kind, &params),
        })
    }

    /// `metric` of each model's four `scenario` cells, normalized to BAS.
    fn normalized(
        &mut self,
        scenario: Scenario,
        metric: fn(&CaseStudyResult) -> f64,
    ) -> Vec<[f64; 4]> {
        (0..self.m.len())
            .map(|m| {
                let cells = MemCfgKind::ALL.map(|k| self.cell(m, k, scenario));
                let base = metric(&cells[0]);
                cells.map(|c| metric(&c) / base)
            })
            .collect()
    }

    fn probe_window(&mut self, m: usize, scenario: Scenario) -> Cycle {
        let params = scenario.params(self.period(m, scenario.size()));
        params.probe_window.expect("the scenario records bandwidth")
    }

    /// Workload `w` at WT 1–10, two frames each; the last frame's stats
    /// per WT (figs. 17 and 18).
    fn sweep(&mut self, w: usize) -> Rc<Vec<FrameStats>> {
        let (dry, workload) = (self.dry, &self.w[w]);
        self.sweeps.get(w, || match dry {
            true => (1..=10)
                .map(|wt| FrameStats {
                    cycles: 11 - wt,
                    ..Default::default()
                })
                .collect(),
            false => wt_sweep(workload, DEFAULT_WIDTH, DEFAULT_HEIGHT, 10, 2),
        })
    }

    /// `frames` frames of workload `w` under `policy` (fig. 19). Static
    /// policies that fix the same WT render the same frames: one run.
    fn policy(&mut self, w: usize, policy: Policy, frames: u32) -> Rc<PolicyRun> {
        let key = policy.fixed_wt().map_or(policy, Policy::Sopt);
        let (dry, workload) = (self.dry, &self.w[w]);
        self.policies.get((w, key, frames), || match dry {
            // Falling frame times make WT 10 the best of DFSL's evaluation.
            true => PolicyRun {
                frame_cycles: (0..frames).map(|f| u64::from(frames - f)).collect(),
                wt_per_frame: vec![1; frames as usize],
            },
            false => run_policy(workload, policy, frames, DEFAULT_WIDTH, DEFAULT_HEIGHT),
        })
    }

    /// One measured frame of workload `w` at 256×192 (the ablations).
    fn ablation(&self, w: usize, gfx: GfxConfig, late_z: bool) -> FrameStats {
        match self.dry {
            true => FrameStats::default(),
            false => Workbench::variant(&self.w[w], 256, 192, gfx, late_z).measure(),
        }
    }

    fn accuracy(&self) -> AccuracyReport {
        match self.dry {
            true => AccuracyReport::default(),
            false => run_accuracy_study(),
        }
    }
}

/// One row of EXPERIMENTS.md's Summary table.
struct Verdict {
    artifact: &'static str,
    /// EXPERIMENTS.md's verdict, printed while every claim holds.
    verdict: &'static str,
    /// The shapes behind the verdict, judged on this run: whether each
    /// holds, and the claim with the numbers it was judged on.
    claims: Vec<(bool, String)>,
}

impl Verdict {
    fn new(artifact: &'static str, verdict: &'static str) -> Self {
        let claims = Vec::new();
        Self {
            artifact,
            verdict,
            claims,
        }
    }

    fn check(mut self, holds: bool, claim: String) -> Self {
        self.claims.push((holds, claim));
        self
    }
}

/// Every figure, in the order of EXPERIMENTS.md's Summary.
const FIGURES: [fn(&mut Lab) -> Verdict; 12] = [
    fig09, fig10, fig11, fig12, fig13, fig14, fig17, fig18, fig19, accuracy, replay, ablations,
];

/// Mean of column `k` over every model's row.
fn column_mean(grid: &[[f64; 4]], k: usize) -> f64 {
    grid.iter().map(|r| r[k]).sum::<f64>() / grid.len() as f64
}

fn fig09(lab: &mut Lab) -> Verdict {
    let gpu = lab.normalized(Scenario::Regular, CaseStudyResult::avg_gpu_cycles);
    let mut rows: Vec<_> = gpu.iter().zip(&lab.m).map(|(r, m)| row(m.id, r)).collect();
    rows.push(row("AVG", &[0, 1, 2, 3].map(|k| column_mean(&gpu, k))));
    print_table(
        "Fig. 9 — GPU frame time, regular load (normalized to BAS; paper: DASH ≈1.19-1.20, HMC ≈2.0)",
        &["model", "BAS", "DCB", "DTB", "HMC"],
        &rows,
    );
    // M1–M3 are the heavy models; M4's tiny GPU traffic benefits instead.
    let dash: Vec<String> = gpu[..3]
        .iter()
        .map(|r| format!("{}/{}", norm(r[1]), norm(r[2])))
        .collect();
    let dash_slower = gpu[..3].iter().all(|r| r[1] > 1.0 && r[2] > 1.0);
    let (m1, m3) = (gpu[0][3], gpu[2][3]);
    Verdict::new(
        "Fig. 9",
        "**holds** (DASH stretches GPU; HMC ≈2× on big models)",
    )
    .check(
        dash_slower,
        format!("DCB/DTB GPU time > BAS on M1–M3 ({})", dash.join(", ")),
    )
    .check(
        m1 >= 1.5 && m3 >= 1.5,
        format!("HMC/BAS ≥ 1.5 on M1, M3 ({}, {})", norm(m1), norm(m3)),
    )
}

/// Prints `cell`'s CPU/GPU/display bandwidth timeline in bytes per cycle,
/// thinned to at most `max_rows` rows; returns the per-window bytes.
fn print_bandwidth(
    title: &str,
    unit: &str,
    cell: &CaseStudyResult,
    window: Cycle,
    max_rows: usize,
) -> [Vec<u64>; 3] {
    let samples = [SourceClass::Cpu, SourceClass::Gpu, SourceClass::Display].map(|c| cell.probe(c));
    let stride = (samples[0].len() / max_rows).max(1);
    let labels: Vec<String> = samples[0]
        .iter()
        .step_by(stride)
        .map(|(t, _)| t.to_string())
        .collect();
    let per_cycle = |s: &[(Cycle, u64)]| {
        s.iter()
            .step_by(stride)
            .map(|(_, b)| *b as f64 / window as f64)
            .collect()
    };
    let names = ["CPU", "GPU", "Display"].map(String::from);
    let series: Vec<(String, Vec<f64>)> = names.into_iter().zip(samples.map(per_cycle)).collect();
    print_series(title, unit, &series, &labels);
    samples.map(|s| s.iter().map(|(_, b)| *b).collect())
}

fn fig10(lab: &mut Lab) -> Verdict {
    let cell = lab.cell(2, MemCfgKind::Hmc, Scenario::Timeline);
    let window = lab.probe_window(2, Scenario::Timeline);
    // Bytes/cycle ≈ GB/s at the model's 1 GHz reference clock.
    let bytes = print_bandwidth(
        "Fig. 10 — M3-HMC DRAM bandwidth by source over time (CPU bursts pre-frame, GPU dominates in-frame)",
        "bytes/cycle ≈ GB/s @1GHz",
        &cell,
        window,
        48,
    );
    let (cpu, gpu) = (&bytes[0], &bytes[1]);
    let first_burst = gpu.iter().position(|&b| b > 0).unwrap_or(gpu.len());
    let cpu_only = (first_burst..gpu.len())
        .filter(|&i| gpu[i] == 0 && cpu.get(i).is_some_and(|&b| b > 0))
        .count();
    let verdict = "partly **holds** (CPU bursts while the GPU idles); the CPU channel never idles in GPU bursts";
    let claim =
        format!("{cpu_only} windows after the first GPU burst move CPU but no GPU bytes (> 0)");
    Verdict::new("Fig. 10", verdict).check(cpu_only > 0, claim)
}

fn fig11(lab: &mut Lab) -> Verdict {
    let hit = lab.normalized(Scenario::Regular, CaseStudyResult::row_hit_rate);
    let bpa = lab.normalized(Scenario::Regular, CaseStudyResult::bytes_per_activation);
    let mut rows: Vec<_> = (0..hit.len())
        .map(|m| row(lab.m[m].id, &[hit[m][3], bpa[m][3]]))
        .collect();
    rows.push(row("AVG", &[column_mean(&hit, 3), column_mean(&bpa, 3)]));
    print_table(
        "Fig. 11 — HMC vs BAS (normalized; paper: hit rate ≈0.85, bytes/act ≈0.40)",
        &["model", "rowbuf hit rate", "bytes/activation"],
        &rows,
    );

    // Mechanism isolation: the paper's root cause is that *GPU* traffic is
    // not the sequential stream HMC assumed, so the bank-striped IP
    // mapping loses row locality. Replaying M3's GPU-only traffic under
    // the two mappings shows the mapping effect without the display's
    // sequential scanout masking it.
    let gpu_trace = filter_trace(
        &lab.cell(2, MemCfgKind::Bas, Scenario::GpuTrace).trace,
        SourceClass::Gpu,
    );
    let locality = MemorySystemConfig::baseline(1, DramConfig::lpddr3_1333());
    let mapping = AddressMapping::ip_parallel(1);
    let striped = MemorySystemConfig {
        steering: Steering::Interleaved { mapping },
        ..locality.clone()
    };
    let [local, striped] =
        [locality, striped].map(|cfg| replay_trace(&gpu_trace, cfg).row_hit_rate);
    println!(
        "\n  GPU-only traffic ({} reqs), locality mapping vs bank-striped (HMC IP) mapping:",
        gpu_trace.len()
    );
    println!(
        "    row-buffer hit rate: {local:.3} -> {striped:.3} ({} of baseline; paper's mechanism: striping hurts non-sequential GPU traffic)",
        norm(striped / local.max(1e-9)),
    );
    Verdict::new(
        "Fig. 11",
        "mechanism **holds** (GPU-only striping loses locality); system ratio resolution-limited",
    )
    .check(
        striped < local,
        format!("GPU-only replay: striped hit rate {striped:.3} < locality {local:.3}"),
    )
}

fn fig12(lab: &mut Lab) -> Verdict {
    let total = lab.normalized(Scenario::HighLoad, CaseStudyResult::avg_total_cycles);
    let gpu = lab.normalized(Scenario::HighLoad, CaseStudyResult::avg_gpu_cycles);
    let mut rows = Vec::new();
    for (m, model) in lab.m.iter().enumerate() {
        for (k, kind) in MemCfgKind::ALL.iter().enumerate() {
            rows.push(row(
                &format!("{}-{}", model.id, kind.label()),
                &[total[m][k], gpu[m][k]],
            ));
        }
    }
    print_table(
        "Fig. 12 — high-load scenario (normalized to BAS per model; paper: HMC GPU ≈1.45, DASH total ≈1.09-1.16)",
        &["model-config", "total frame time", "GPU rendering time"],
        &rows,
    );
    let hmc_slowest = gpu.iter().all(|r| r[..3].iter().all(|&x| r[3] > x));
    let hmc: Vec<String> = gpu.iter().map(|r| norm(r[3])).collect();
    Verdict::new(
        "Fig. 12",
        "**holds** (HMC slowest GPU on every model; HMC total > BAS on the big M3)",
    )
    .check(
        hmc_slowest,
        format!(
            "HMC has the largest GPU time on every model (HMC/BAS {})",
            hmc.join(", ")
        ),
    )
    .check(
        total[2][3] > 1.0,
        format!("HMC total > BAS on M3 ({})", norm(total[2][3])),
    )
}

fn fig13(lab: &mut Lab) -> Verdict {
    let display = lab.normalized(Scenario::HighLoad, |c| c.display_serviced_bytes() as f64);
    let mut rows = Vec::new();
    for (m, ratios) in display.iter().enumerate() {
        let aborts: u64 = MemCfgKind::ALL
            .iter()
            .map(|&k| lab.cell(m, k, Scenario::HighLoad).display_aborts())
            .sum();
        let mut r = row(lab.m[m].id, ratios);
        r.push(format!("aborts:{aborts}"));
        rows.push(r);
    }
    print_table(
        "Fig. 13 — display bytes serviced vs BAS, high load (paper: HMC >1 on M2/M4, DTB ≈0.15 on M1)",
        &["model", "BAS", "DCB", "DTB", "HMC", "notes"],
        &rows,
    );
    let hmc: Vec<String> = display.iter().map(|r| norm(r[3])).collect();
    Verdict::new(
        "Fig. 13",
        "half **holds** (HMC >1 ✓; DASH display starvation milder due to urgency-trigger detail)",
    )
    .check(
        display.iter().all(|r| r[3] > 1.0),
        format!(
            "HMC display bytes > BAS on every model ({})",
            hmc.join(", ")
        ),
    )
}

fn fig14(lab: &mut Lab) -> Verdict {
    let window = lab.probe_window(0, Scenario::HighLoad);
    let aborts = [("a", MemCfgKind::Bas), ("b", MemCfgKind::Dtb)].map(|(panel, kind)| {
        let cell = lab.cell(0, kind, Scenario::HighLoad);
        let title = format!(
            "Fig. 14({panel}) — M1 under {} (display aborts: {})",
            kind.label(),
            cell.display_aborts()
        );
        print_bandwidth(&title, "bytes/cycle", &cell, window, 40);
        let (gpu, total) = (cell.avg_gpu_cycles(), cell.avg_total_cycles());
        println!("  avg GPU frame: {gpu:.0} cycles, avg total frame: {total:.0} cycles");
        cell.display_aborts()
    });
    Verdict::new(
        "Fig. 14",
        "**holds** (GPU suppressed under DTB, display aborts, fence-wait tail)",
    )
    .check(
        aborts[0] == 0 && aborts[1] > 0,
        format!(
            "display aborts: BAS {} = 0, DTB {} > 0",
            aborts[0], aborts[1]
        ),
    )
}

fn fig17(lab: &mut Lab) -> Verdict {
    let mut rows = Vec::new();
    let mut bests = Vec::new();
    for w in 0..lab.w.len() {
        let sweep = lab.sweep(w);
        let base = sweep[0].cycles.max(1) as f64;
        let best = (0..sweep.len())
            .min_by_key(|&i| sweep[i].cycles)
            .map_or(1, |i| i + 1);
        let ratios: Vec<f64> = sweep.iter().map(|s| s.cycles as f64 / base).collect();
        let mut r = row(lab.w[w].id, &ratios);
        r.push(best.to_string());
        rows.push(r);
        bests.push(best);
    }
    print_table(
        "Fig. 17 — frame time vs WT size (normalized to WT1; paper: swings 1.25-1.88×, best WT varies)",
        &["model", "WT1", "WT2", "WT3", "WT4", "WT5", "WT6", "WT7", "WT8", "WT9", "WT10", "best"],
        &rows,
    );
    let listed: Vec<String> = bests.iter().map(|b| b.to_string()).collect();
    bests.sort_unstable();
    bests.dedup();
    Verdict::new(
        "Fig. 17",
        "**holds** (best WT varies per workload; swings larger at reduced scale)",
    )
    .check(
        bests.len() >= 3,
        format!(
            "best WT per workload {}: {} distinct (≥ 3)",
            listed.join(", "),
            bests.len()
        ),
    )
}

fn fig18(lab: &mut Lab) -> Verdict {
    let sweep = lab.sweep(0);
    let b = &sweep[0];
    let ratio = |x: u64, base: u64| x as f64 / base.max(1) as f64;
    let rows: Vec<_> = (0..sweep.len())
        .map(|i| {
            let s = &sweep[i];
            let misses = [
                ratio(s.cycles, b.cycles),
                ratio(s.l1d_misses, b.l1d_misses),
                ratio(s.l1t_misses, b.l1t_misses),
                ratio(s.l1z_misses, b.l1z_misses),
                ratio(s.l1_misses_total(), b.l1_misses_total()),
            ];
            row(&format!("WT{}", i + 1), &misses)
        })
        .collect();
    print_table(
        "Fig. 18 — W1: execution time and L1 misses vs WT (normalized to WT1)",
        &[
            "WT",
            "exec time",
            "color miss",
            "texture miss",
            "depth miss",
            "total miss",
        ],
        &rows,
    );
    let t: Vec<f64> = sweep.iter().map(|s| s.cycles as f64).collect();
    let corr = |f: fn(&FrameStats) -> u64| {
        let misses: Vec<f64> = sweep.iter().map(|s| f(s) as f64).collect();
        pearson(&t, &misses).unwrap_or(0.0)
    };
    println!(
        "  correlation(exec, misses): total={:.2} depth={:.2} texture={:.2} (paper: 0.78 / 0.79 / 0.82)",
        corr(FrameStats::l1_misses_total),
        corr(|s| s.l1z_misses),
        corr(|s| s.l1t_misses),
    );
    let worst = sweep[1..]
        .iter()
        .map(FrameStats::l1_misses_total)
        .max()
        .unwrap_or(0);
    let worst_ratio = norm(ratio(worst, b.l1_misses_total()));
    Verdict::new(
        "Fig. 18",
        "miss trend **holds**; correlation magnitude workload-dependent",
    )
    .check(
        worst < b.l1_misses_total(),
        format!("total L1 misses at every WT2–10 below WT1 (worst {worst_ratio})"),
    )
}

/// Figure 19: average frame speedup of MLB / MLC / SOPT / DFSL, normalized
/// to MLB, per workload. The paper runs a 100-frame run phase; this runs
/// 14 after the 10-frame evaluation, and reports both the all-frame mean
/// (evaluation overhead included) and the run-phase mean.
fn fig19(lab: &mut Lab) -> Verdict {
    let mut dfsl_cfg = DfslConfig::paper(); // WT 1–10
    dfsl_cfg.run_frames = 14;
    let frames = dfsl_cfg.eval_frames() + dfsl_cfg.run_frames;
    let run_phase = dfsl_cfg.run_frames as usize;
    // SOPT is the best fixed WT on average across workloads, found offline
    // from one frame per WT 1–10 on a fresh workbench. DFSL's evaluation
    // phase renders exactly those frames, so it is that sweep.
    let sweeps: Vec<Vec<FrameStats>> = (0..lab.w.len())
        .map(|w| {
            let dfsl = lab.policy(w, Policy::Dfsl(dfsl_cfg), frames);
            let eval = &dfsl.frame_cycles[..dfsl_cfg.eval_frames() as usize];
            eval.iter()
                .map(|&cycles| FrameStats {
                    cycles,
                    ..Default::default()
                })
                .collect()
        })
        .collect();
    let sopt = find_sopt(&sweeps);
    println!("SOPT (best average fixed WT across workloads): {sopt}");

    let policies = [
        Policy::Mlb,
        Policy::Mlc,
        Policy::Sopt(sopt),
        Policy::Dfsl(dfsl_cfg),
    ];
    let mut rows = Vec::new();
    // [policy][workload]: speedup vs MLB over all frames / the run phase.
    let (mut all_speedups, mut run_speedups): ([Vec<f64>; 4], [Vec<f64>; 4]) = Default::default();
    for w in 0..lab.w.len() {
        let runs = policies.map(|p| lab.policy(w, p, frames));
        let (mlb_all, mlb_run) = (runs[0].mean(), runs[0].mean_last(run_phase));
        let mut r = vec![lab.w[w].id.to_string()];
        for (i, run) in runs.iter().enumerate() {
            let (s_all, s_run) = (mlb_all / run.mean(), mlb_run / run.mean_last(run_phase));
            all_speedups[i].push(s_all);
            run_speedups[i].push(s_run);
            r.push(format!("{}/{}", norm(s_all), norm(s_run)));
        }
        r.push(format!(
            "best_wt={}",
            runs[3].wt_per_frame.last().expect("DFSL rendered frames")
        ));
        rows.push(r);
    }
    let [all, run] = [all_speedups, run_speedups].map(|s| s.map(|per_w| geomean_or_one(&per_w)));
    let mut mean = vec!["MEAN".to_string()];
    mean.extend((0..4).map(|i| format!("{}/{}", norm(all[i]), norm(run[i]))));
    mean.push(String::new());
    rows.push(mean);
    let sopt_label = policies[2].label();
    print_table(
        "Fig. 19 — speedup vs MLB (all-frames / run-phase; paper: DFSL 1.19 vs MLB, 1.073 vs SOPT)",
        &["model", "MLB", "MLC", &sopt_label, "DFSL", "notes"],
        &rows,
    );
    let [mlb, _, sopt_run, dfsl] = run;
    Verdict::new(
        "Fig. 19",
        "**holds** (DFSL beats SOPT and MLB in the run phase; paper +19 %/+7.3 %)",
    )
    .check(
        dfsl >= sopt_run && sopt_run >= mlb,
        format!(
            "run-phase mean speedup DFSL {} ≥ {sopt_label} {} ≥ MLB {}",
            norm(dfsl),
            norm(sopt_run),
            norm(mlb)
        ),
    )
}

/// §3.4-style accuracy study: simulated draw time against an independent
/// analytic cost model over 14 microbenchmarks (see `accuracy`). Paper,
/// against Tegra K1 silicon: 98 % correlation, 32.2 % mean absolute
/// relative error.
fn accuracy(lab: &mut Lab) -> Verdict {
    let rep = lab.accuracy();
    let rows: Vec<_> = rep
        .rows
        .iter()
        .map(|(n, a, s)| vec![n.clone(), format!("{a:.0}"), format!("{s:.0}")])
        .collect();
    print_table(
        "§3.4 — simulated cycles vs analytic estimate (14 microbenchmarks)",
        &["bench", "analytic (a.u.)", "simulated (cycles)"],
        &rows,
    );
    let (corr, mare) = (
        format!("{:.3}", rep.correlation),
        format!("{:.1}", rep.mare * 100.0),
    );
    println!("  correlation = {corr} (paper vs silicon: 0.98);  MARE after LS scaling = {mare}% (paper: 32.2%)");
    Verdict::new(
        "§3.4",
        "methodology reproduced against an analytic stand-in",
    )
    .check(
        corr == "0.841" && mare == "53.2",
        format!("correlation {corr} = 0.841 and MARE {mare} % = 53.2 % (exact pin)"),
    )
}

/// §5.2.3 quantified: a memory trace recorded from a BAS execution-driven
/// run of M3 is replayed open-loop against BAS and HMC. Replay has no
/// feedback (a slower memory system cannot delay future requests or
/// lengthen the GPU's own execution), so its HMC "slowdown" understates
/// the execution-driven one — the paper's argument for building Emerald.
fn replay(lab: &mut Lab) -> Verdict {
    let bas = lab.cell(2, MemCfgKind::Bas, Scenario::Replay);
    let hmc = lab.cell(2, MemCfgKind::Hmc, Scenario::Replay);
    let exec_ratio = hmc.avg_gpu_cycles() / bas.avg_gpu_cycles();
    println!("recorded trace: {} requests", bas.trace.len());
    let dram = DramConfig::lpddr3_1333();
    let [bas_replay, hmc_replay] =
        [MemCfgKind::Bas, MemCfgKind::Hmc].map(|k| replay_trace(&bas.trace, k.build(dram.clone())));
    let trace_ratio = hmc_replay.gpu_span() as f64 / bas_replay.gpu_span().max(1) as f64;
    print_table(
        "Trace-driven vs execution-driven: apparent HMC slowdown over BAS",
        &["methodology", "HMC/BAS GPU-time ratio"],
        &[
            row("execution-driven (Emerald)", &[exec_ratio]),
            row("trace-driven (replay)", &[trace_ratio]),
        ],
    );
    let latency = |r: &ReplayResult| r.avg_read_latency.values().sum::<f64>().max(1e-9);
    println!(
        "  trace-driven read-latency ratio (HMC/BAS): {:.2}",
        latency(&hmc_replay) / latency(&bas_replay)
    );
    let understated = exec_ratio / trace_ratio.max(1e-9);
    println!(
        "  execution-driven sees a {} larger effect than trace replay",
        norm(understated)
    );
    Verdict::new(
        "§5.2.3",
        "**quantified**: trace replay understates HMC's effect",
    )
    .check(
        understated > 1.5,
        format!(
            "execution-driven / trace-driven HMC ratio {} > 1.5",
            norm(understated)
        ),
    )
}

/// Ablations of the design choices DESIGN.md calls out: Hi-Z, early-Z,
/// tile coalescing, vertex-warp overlap, and PMRB/OVB credit sizing.
fn ablations(lab: &mut Lab) -> Verdict {
    let gfx = |change: fn(&mut GfxConfig)| {
        let mut cfg = GfxConfig::case_study_2();
        change(&mut cfg);
        cfg
    };
    let variants = [
        ("baseline", gfx(|_| {}), false),
        ("hiz off", gfx(|c| c.hiz_enabled = false), false),
        ("late-Z", gfx(|_| {}), true),
        ("TC off", gfx(|c| c.tc_enabled = false), false),
        ("no vtx overlap", gfx(|c| c.vertex_overlap = false), false),
        ("credits 6", gfx(|c| c.max_vertex_warps = 6), false),
        ("ooo prims", gfx(|c| c.ooo_prims = true), false),
    ];
    let mut fragments = Vec::new();
    for w in [0, 3] {
        let stats: Vec<FrameStats> = variants
            .iter()
            .map(|(_, cfg, late_z)| lab.ablation(w, cfg.clone(), *late_z))
            .collect();
        let base = &stats[0];
        let rows: Vec<_> = variants
            .iter()
            .zip(&stats)
            .map(|((name, _, _), s)| {
                let mut r = row(name, &[s.cycles as f64 / base.cycles as f64]);
                r.extend(
                    [s.fragments, s.hiz_killed, s.tc_tiles, s.vertices_shaded]
                        .map(|n| n.to_string()),
                );
                r
            })
            .collect();
        print_table(
            &format!("Ablations — {} (time normalized to baseline)", lab.w[w].id),
            &[
                "variant",
                "time",
                "fragments",
                "hiz killed",
                "tc tiles",
                "vertices",
            ],
            &rows,
        );
        let same = stats.iter().all(|s| s.fragments == base.fragments);
        fragments.push((same, format!("{} {}", lab.w[w].id, base.fragments)));
    }
    let counts: Vec<&str> = fragments.iter().map(|(_, c)| c.as_str()).collect();
    Verdict::new(
        "Ablations",
        "every variant shades the same fragments; only time moves",
    )
    .check(
        fragments.iter().all(|(same, _)| *same),
        format!(
            "fragments identical across the {} variants ({})",
            variants.len(),
            counts.join(", ")
        ),
    )
}

fn main() {
    let mut lab = Lab::new(false);
    let verdicts = FIGURES.map(|fig| fig(&mut lab));
    println!("\n# Summary\n\n| artifact | verdict | checked on this run |\n|---|---|---|");
    for v in &verdicts {
        let holds = v.claims.iter().all(|(holds, _)| *holds);
        let checked: Vec<String> = v
            .claims
            .iter()
            .map(|(holds, claim)| format!("{claim} {}", if *holds { "✓" } else { "✗" }))
            .collect();
        let verdict = if holds { v.verdict } else { "**FAILS**" };
        println!("| {} | {verdict} | {} |", v.artifact, checked.join("; "));
    }
    let runs = lab.periods.entries.len()
        + lab.cells.entries.len()
        + lab.sweeps.entries.len()
        + lab.policies.entries.len();
    let reads = lab.periods.reads + lab.cells.reads + lab.sweeps.reads + lab.policies.reads;
    eprintln!("emerald_figures: {runs} shared simulations served {reads} reads");
    let mut failed = false;
    for v in &verdicts {
        for (_, claim) in v.claims.iter().filter(|(holds, _)| !holds) {
            eprintln!("emerald_figures: {} claim fails: {claim}", v.artifact);
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cell(kind: MemCfgKind, probe_window: Option<Cycle>) -> CaseStudyResult {
        let params = RunParams {
            width: 64,
            height: 48,
            frames: 1,
            dram: DramConfig::lpddr3_1333(),
            gpu_frame_period: 200_000,
            probe_window,
            max_cycles_per_frame: 60_000_000,
            trace: false,
        };
        run_cell(&m_models()[1], kind, &params)
    }

    /// Figs. 12 and 13 read the high-load cells that carry fig. 14's
    /// probes: probes add their own counters and change nothing else.
    #[test]
    fn bandwidth_probes_change_no_other_result() {
        let plain = small_cell(MemCfgKind::Dtb, None);
        let probed = small_cell(MemCfgKind::Dtb, Some(2_000));
        assert_eq!(
            format!("{:?}", plain.frames),
            format!("{:?}", probed.frames)
        );
        assert_eq!(plain.fb_digest, probed.fb_digest);
        let counters = |r: &CaseStudyResult| -> Vec<String> {
            let unprobed = r
                .delta
                .iter()
                .filter(|(path, _)| !path.contains(".probe_bytes."));
            unprobed.map(|(path, v)| format!("{path}={v:?}")).collect()
        };
        assert_eq!(counters(&plain), counters(&probed));
        assert!(probed.delta.len() > plain.delta.len(), "probes published");
        assert!(probed.probes.iter().any(|(_, s)| !s.is_empty()));
    }

    #[test]
    fn every_distinct_simulation_runs_once() {
        let mut lab = Lab::new(true);
        for fig in FIGURES {
            fig(&mut lab);
        }
        fn distinct<K: PartialEq, V>(memo: &Memo<K, V>) -> bool {
            let keys = &memo.entries;
            (0..keys.len()).all(|i| keys[..i].iter().all(|(k, _)| *k != keys[i].0))
        }
        assert!(distinct(&lab.periods) && distinct(&lab.cells));
        assert!(distinct(&lab.sweeps) && distinct(&lab.policies));
        // 4 models at 160×120 and at 96×72, M3 at 128×96.
        assert_eq!(lab.periods.entries.len(), 9);
        // Regular 16, Timeline 1, HighLoad 16, GpuTrace 1, Replay 2; figs.
        // 11, 13 and 14 re-read figs. 9's and 12's cells.
        assert_eq!((lab.cells.entries.len(), lab.cells.reads), (36, 118));
        // Fig. 18 reads fig. 17's W1 sweep.
        assert_eq!((lab.sweeps.entries.len(), lab.sweeps.reads), (6, 7));
        // Per workload: DFSL, MLB, and one run for both MLC and SOPT(10).
        assert_eq!(lab.policies.entries.len(), 18);
        for w in 0..6 {
            let runs = lab.policies.entries.iter().filter(|((k, _, _), _)| *k == w);
            let fixed: Vec<u32> = runs.filter_map(|((_, p, _), _)| p.fixed_wt()).collect();
            assert_eq!(fixed, [1, 10], "W{}", w + 1);
        }
    }

    /// A miniature end-to-end sweep: M2 (cube) at small resolution under
    /// BAS and HMC; validates harness plumbing and the headline ordering.
    #[test]
    fn mini_sweep_bas_vs_hmc() {
        let m2 = &m_models()[1];
        let period = calibrate_period(m2, 64, 48);
        assert!(period > 0);
        let params = RunParams {
            width: 64,
            height: 48,
            frames: 2,
            dram: DramConfig::lpddr3_1333(),
            gpu_frame_period: period,
            probe_window: Some(2_000),
            max_cycles_per_frame: 60_000_000,
            trace: false,
        };
        let bas = run_cell(m2, MemCfgKind::Bas, &params);
        let hmc = run_cell(m2, MemCfgKind::Hmc, &params);
        assert_eq!(bas.frames.len(), 2);
        assert!(bas.row_hit_rate() > 0.0 && bas.row_hit_rate() <= 1.0);
        assert!(bas.bytes_per_activation() > 0.0);
        assert!(
            hmc.avg_gpu_cycles() > bas.avg_gpu_cycles(),
            "HMC {} should exceed BAS {}",
            hmc.avg_gpu_cycles(),
            bas.avg_gpu_cycles()
        );
        // Probes recorded GPU traffic.
        let gpu_bytes: u64 = bas
            .probes
            .iter()
            .find(|(c, _)| *c == SourceClass::Gpu)
            .map(|(_, s)| s.iter().map(|(_, b)| b).sum())
            .unwrap();
        assert!(gpu_bytes > 0);
    }
}

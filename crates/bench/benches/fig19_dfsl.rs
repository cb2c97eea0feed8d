//! Figure 19: average frame speedup of MLB / MLC / SOPT / DFSL, normalized
//! to MLB, per workload.
//!
//! Paper shape: DFSL speeds frames up by ~19% vs MLB and ~7.3% vs SOPT on
//! average; MLC (max locality) loses badly. Scale note: the paper runs a
//! 100-frame run phase; we use 20 so the full sweep stays in minutes, and
//! report both the all-frame mean (includes the 10-frame evaluation
//! overhead) and the run-phase mean (steady state).

use emerald_bench::report::geomean_or_one;
use emerald_bench::report::{norm, print_table};
use emerald_bench::standalone::{
    find_sopt, run_policy, wt_sweep, Policy, DEFAULT_HEIGHT, DEFAULT_WIDTH,
};
use emerald_core::DfslConfig;
use emerald_scene::workloads::w_models;

fn main() {
    let (w, h) = (DEFAULT_WIDTH, DEFAULT_HEIGHT);
    let models = w_models();
    // SOPT: the best average fixed WT across workloads (offline sweep).
    let sweeps: Vec<_> = models.iter().map(|m| wt_sweep(m, w, h, 10, 1)).collect();
    let sopt = find_sopt(&sweeps);
    println!("SOPT (best average fixed WT across workloads): {sopt}");

    let dfsl_cfg = DfslConfig {
        min_wt: 1,
        max_wt: 10,
        run_frames: 14,
    };
    let frames = dfsl_cfg.eval_frames() + dfsl_cfg.run_frames; // 30
    let run_phase = dfsl_cfg.run_frames as usize;
    let policies = [
        Policy::Mlb,
        Policy::Mlc,
        Policy::Sopt(sopt),
        Policy::Dfsl(dfsl_cfg),
    ];
    let mut rows = Vec::new();
    let mut all_speedups: Vec<Vec<f64>> = vec![Vec::new(); policies.len()];
    let mut run_speedups: Vec<Vec<f64>> = vec![Vec::new(); policies.len()];
    for m in &models {
        eprintln!("[fig19] {} ...", m.id);
        eprintln!("[fig19] {} ...", m.id);
        let runs: Vec<_> = policies
            .iter()
            .map(|&p| run_policy(m, p, frames, w, h))
            .collect();
        let mlb_all = runs[0].mean();
        let mlb_run = runs[0].mean_last(run_phase);
        let mut row = vec![m.id.to_string()];
        for (i, r) in runs.iter().enumerate() {
            let s_all = mlb_all / r.mean();
            let s_run = mlb_run / r.mean_last(run_phase);
            all_speedups[i].push(s_all);
            run_speedups[i].push(s_run);
            row.push(format!("{}/{}", norm(s_all), norm(s_run)));
        }
        if let Policy::Dfsl(_) = policies[3] {
            row.push(format!("best_wt={}", runs[3].wt_per_frame.last().unwrap()));
        }
        rows.push(row);
    }
    let mut mean_row = vec!["MEAN".to_string()];
    for i in 0..policies.len() {
        mean_row.push(format!(
            "{}/{}",
            norm(geomean_or_one(&all_speedups[i])),
            norm(geomean_or_one(&run_speedups[i]))
        ));
    }
    mean_row.push(String::new());
    rows.push(mean_row);
    print_table(
        "Fig. 19 — speedup vs MLB (all-frames / run-phase; paper: DFSL 1.19 vs MLB, 1.073 vs SOPT)",
        &[
            "model",
            "MLB",
            "MLC",
            &format!("SOPT(wt{sopt})"),
            "DFSL",
            "notes",
        ],
        &rows,
    );
}

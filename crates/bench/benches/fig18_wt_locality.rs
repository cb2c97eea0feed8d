//! Figure 18: W1 execution time and L1 miss counts (color/texture/depth)
//! across WT sizes, normalized to WT 1.
//!
//! Paper shape: execution time tracks L1 misses (their correlations:
//! 78% total, 79% depth, 82% texture); misses drop as WT grows.

use emerald_bench::report::{norm, print_table};
use emerald_bench::standalone::{wt_sweep, DEFAULT_HEIGHT, DEFAULT_WIDTH};
use emerald_common::stats::pearson;
use emerald_scene::workloads::w_models;

fn main() {
    let w1 = &w_models()[0];
    let sweep = wt_sweep(w1, DEFAULT_WIDTH, DEFAULT_HEIGHT, 10, 2);
    let b = &sweep[0];
    let mut rows = Vec::new();
    for (i, s) in sweep.iter().enumerate() {
        rows.push(vec![
            format!("WT{}", i + 1),
            norm(s.cycles as f64 / b.cycles.max(1) as f64),
            norm(s.l1d_misses as f64 / b.l1d_misses.max(1) as f64),
            norm(s.l1t_misses as f64 / b.l1t_misses.max(1) as f64),
            norm(s.l1z_misses as f64 / b.l1z_misses.max(1) as f64),
            norm(s.l1_misses_total() as f64 / b.l1_misses_total().max(1) as f64),
        ]);
    }
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
    let corr = |f: &dyn Fn(&emerald_core::FrameStats) -> u64| {
        let m: Vec<f64> = sweep.iter().map(|s| f(s) as f64).collect();
        pearson(&t, &m).unwrap_or(0.0)
    };
    println!(
        "  correlation(exec, misses): total={:.2} depth={:.2} texture={:.2} (paper: 0.78 / 0.79 / 0.82)",
        corr(&|s| s.l1_misses_total()),
        corr(&|s| s.l1z_misses),
        corr(&|s| s.l1t_misses),
    );
}

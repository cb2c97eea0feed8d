//! §3.4-style accuracy study: correlation of simulated draw time against
//! an independent analytic cost model over 14 microbenchmarks.
//!
//! Paper (vs Tegra K1 silicon): 98% draw-time correlation, 32.2% mean
//! absolute relative error. Without silicon we correlate against the
//! documented analytic stand-in (see `emerald-bench::accuracy`).

use emerald_bench::accuracy::run_accuracy_study;
use emerald_bench::report::print_table;

fn main() {
    let rep = run_accuracy_study();
    let rows: Vec<Vec<String>> = rep
        .rows
        .iter()
        .map(|(n, a, s)| vec![n.clone(), format!("{a:.0}"), format!("{s:.0}")])
        .collect();
    print_table(
        "§3.4 — simulated cycles vs analytic estimate (14 microbenchmarks)",
        &["bench", "analytic (a.u.)", "simulated (cycles)"],
        &rows,
    );
    println!(
        "  correlation = {:.3} (paper vs silicon: 0.98);  MARE after LS scaling = {:.1}% (paper: 32.2%)",
        rep.correlation,
        rep.mare * 100.0
    );
}

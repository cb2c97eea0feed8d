//! Figure 13: display requests serviced relative to BAS under high load.
//!
//! Paper shape: HMC services *more* display traffic than BAS on the small
//! models (M2/M4 — its IP channel idles between GPU bursts); DASH's DTB
//! starves the display heavily on large models (M1 ≈0.15 of BAS).

use emerald_bench::report::{norm, print_table};
use emerald_mem::dram::DramConfig;
use emerald_scene::workloads::m_models;
use emerald_soc::experiment::{calibrate_period, run_cell, MemCfgKind, RunParams};

fn main() {
    let (w, h) = (96u32, 72u32);
    let mut rows = Vec::new();
    for m in m_models() {
        eprintln!("[fig13] {} ...", m.id);
        eprintln!("[fig13] {} ...", m.id);
        let period = calibrate_period(&m, w, h);
        let params = RunParams {
            width: w,
            height: h,
            frames: 2,
            dram: DramConfig::high_load(),
            gpu_frame_period: period,
            probe_window: None,
            max_cycles_per_frame: 300_000_000,
        };
        let cells: Vec<_> = MemCfgKind::ALL
            .iter()
            .map(|&k| run_cell(&m, k, &params))
            .collect();
        let base = cells[0].display_serviced_bytes.max(1) as f64;
        let mut row = vec![m.id.to_string()];
        for c in &cells {
            row.push(norm(c.display_serviced_bytes as f64 / base));
        }
        row.push(format!(
            "aborts:{}",
            cells.iter().map(|c| c.display_aborts).sum::<u64>()
        ));
        rows.push(row);
    }
    print_table(
        "Fig. 13 — display bytes serviced vs BAS, high load (paper: HMC >1 on M2/M4, DTB ≈0.15 on M1)",
        &["model", "BAS", "DCB", "DTB", "HMC", "notes"],
        &rows,
    );
}

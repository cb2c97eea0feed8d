//! Figure 12: total frame time and GPU rendering time under the high-load
//! scenario (133 Mb/s-class DRAM), normalized to BAS.
//!
//! Paper shape: HMC ≈1.45× GPU time; DASH slows total frames ~9-16% with
//! larger models (M1, M3) worst.

use emerald_bench::report::{norm, print_table};
use emerald_mem::dram::DramConfig;
use emerald_scene::workloads::m_models;
use emerald_soc::experiment::{calibrate_period, run_cell, MemCfgKind, RunParams};

fn main() {
    let (w, h) = (96u32, 72u32);
    let mut rows = Vec::new();
    for m in m_models() {
        eprintln!("[fig12] {} ...", m.id);
        // Deadline calibrated at regular load: under high load the system
        // genuinely struggles to meet it, as in the paper.
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
            .map(|&k| {
                eprintln!("[fig12]   {} {}", m.id, k.label());
                run_cell(&m, k, &params)
            })
            .collect();
        let (bt, bg) = (cells[0].avg_total_cycles, cells[0].avg_gpu_cycles);
        for (k, c) in MemCfgKind::ALL.iter().zip(&cells) {
            rows.push(vec![
                format!("{}-{}", m.id, k.label()),
                norm(c.avg_total_cycles / bt),
                norm(c.avg_gpu_cycles / bg),
            ]);
        }
    }
    print_table(
        "Fig. 12 — high-load scenario (normalized to BAS per model; paper: HMC GPU ≈1.45, DASH total ≈1.09-1.16)",
        &["model-config", "total frame time", "GPU rendering time"],
        &rows,
    );
}

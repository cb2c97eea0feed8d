//! §5.2.3 quantified: what a trace-driven methodology (GemDroid-style)
//! concludes about HMC versus what execution-driven simulation concludes.
//!
//! A memory trace is recorded from a BAS execution-driven run of M3, then
//! replayed open-loop against BAS and HMC. Because replay has no feedback
//! (a slower memory system cannot delay future requests or lengthen the
//! GPU's own execution), the trace-driven HMC "slowdown" understates the
//! execution-driven one — the paper's core argument for building Emerald.

use emerald_bench::report::{norm, print_table};
use emerald_core::session::SceneBinding;
use emerald_mem::dram::DramConfig;
use emerald_scene::workloads::m_models;
use emerald_soc::experiment::{calibrate_period, MemCfgKind, RunParams};
use emerald_soc::soc::{Soc, SocConfig};
use emerald_soc::trace::replay_trace;

fn main() {
    let (w, h) = (128u32, 96u32);
    let m3 = &m_models()[2];
    let period = calibrate_period(m3, w, h);
    let params = RunParams {
        width: w,
        height: h,
        frames: 2,
        dram: DramConfig::lpddr3_1333(),
        gpu_frame_period: period,
        probe_window: None,
        max_cycles_per_frame: 600_000_000,
    };

    // 1. Execution-driven runs (with trace capture on the BAS run).
    let mut exec_gpu = Vec::new();
    let mut trace = Vec::new();
    for kind in [MemCfgKind::Bas, MemCfgKind::Hmc] {
        let cfg = SocConfig::case_study_1(
            kind.build(params.dram.clone()),
            w,
            h,
            params.gpu_frame_period,
        );
        let mut soc = Soc::new(cfg);
        if kind == MemCfgKind::Bas {
            soc.memsys.enable_trace();
        }
        let binding = SceneBinding::new(&soc.mem, m3);
        let aspect = w as f32 / h as f32;
        let mut total = 0f64;
        for f in 0..=params.frames {
            let rec = soc.run_frame(
                vec![binding.draw_for_frame(f, aspect, false)],
                params.max_cycles_per_frame,
            );
            if f > 0 {
                total += rec.gpu_cycles as f64;
            }
        }
        exec_gpu.push(total / params.frames as f64);
        if kind == MemCfgKind::Bas {
            trace = soc.memsys.take_trace();
        }
    }
    let exec_ratio = exec_gpu[1] / exec_gpu[0];

    // 2. Trace-driven replays of the BAS-recorded trace.
    println!("recorded trace: {} requests", trace.len());
    let bas_replay = replay_trace(&trace, MemCfgKind::Bas.build(params.dram.clone()));
    let hmc_replay = replay_trace(&trace, MemCfgKind::Hmc.build(params.dram.clone()));
    let trace_ratio = hmc_replay.gpu_span() as f64 / bas_replay.gpu_span().max(1) as f64;

    print_table(
        "Trace-driven vs execution-driven: apparent HMC slowdown over BAS",
        &["methodology", "HMC/BAS GPU-time ratio"],
        &[
            vec!["execution-driven (Emerald)".into(), norm(exec_ratio)],
            vec!["trace-driven (replay)".into(), norm(trace_ratio)],
        ],
    );
    println!(
        "  trace-driven read-latency ratio (HMC/BAS): {:.2}",
        hmc_replay.avg_read_latency.values().sum::<f64>().max(1e-9)
            / bas_replay.avg_read_latency.values().sum::<f64>().max(1e-9)
    );
    println!(
        "  execution-driven sees a {} larger effect than trace replay",
        norm(exec_ratio / trace_ratio.max(1e-9))
    );
}

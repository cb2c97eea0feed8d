//! Figure 11: HMC's DRAM row-buffer hit rate and bytes-per-activation,
//! normalized to BAS, regular load.
//!
//! Paper shape: hit rate drops ~15% on average; bytes per activation drop
//! ~60% (GPU traffic is not the sequential stream HMC assumed).

use emerald_bench::report::{norm, print_table};
use emerald_core::session::SceneBinding;
use emerald_mem::dram::DramConfig;
use emerald_mem::system::SourceClass;
use emerald_scene::workloads::m_models;
use emerald_soc::experiment::{calibrate_period, run_cell, MemCfgKind, RunParams};
use emerald_soc::soc::{Soc, SocConfig};
use emerald_soc::trace::{filter_trace, replay_trace};

fn main() {
    let (w, h) = (160u32, 120u32);
    let mut rows = Vec::new();
    let (mut hit_acc, mut bpa_acc) = (Vec::new(), Vec::new());
    for m in m_models() {
        eprintln!("[fig11] {} ...", m.id);
        let period = calibrate_period(&m, w, h);
        let params = RunParams {
            width: w,
            height: h,
            frames: 3,
            dram: DramConfig::lpddr3_1333(),
            gpu_frame_period: period,
            probe_window: None,
            max_cycles_per_frame: 400_000_000,
        };
        let bas = run_cell(&m, MemCfgKind::Bas, &params);
        let hmc = run_cell(&m, MemCfgKind::Hmc, &params);
        let hit = hmc.row_hit_rate / bas.row_hit_rate.max(1e-9);
        let bpa = hmc.bytes_per_activation / bas.bytes_per_activation.max(1e-9);
        hit_acc.push(hit);
        bpa_acc.push(bpa);
        rows.push(vec![m.id.to_string(), norm(hit), norm(bpa)]);
    }
    rows.push(vec![
        "AVG".into(),
        norm(hit_acc.iter().sum::<f64>() / hit_acc.len() as f64),
        norm(bpa_acc.iter().sum::<f64>() / bpa_acc.len() as f64),
    ]);
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
    let m3 = &m_models()[2];
    let period = calibrate_period(m3, 160, 120);
    let cfg = SocConfig::case_study_1(
        MemCfgKind::Bas.build(DramConfig::lpddr3_1333()),
        160,
        120,
        period,
    );
    let mut soc = Soc::new(cfg);
    soc.memsys.enable_trace();
    let binding = SceneBinding::new(&soc.mem, m3);
    for f in 0..2 {
        soc.run_frame(
            vec![binding.draw_for_frame(f, 160.0 / 120.0, false)],
            400_000_000,
        );
    }
    let gpu_trace = filter_trace(&soc.memsys.take_trace(), SourceClass::Gpu);
    let baseline = replay_trace(
        &gpu_trace,
        emerald_mem::system::MemorySystemConfig::baseline(1, DramConfig::lpddr3_1333()),
    );
    let striped = replay_trace(&gpu_trace, {
        let mut c = emerald_mem::system::MemorySystemConfig::baseline(1, DramConfig::lpddr3_1333());
        c.steering = emerald_mem::system::Steering::Interleaved {
            mapping: emerald_mem::mapping::AddressMapping::ip_parallel(1),
        };
        c
    });
    println!(
        "\n  GPU-only traffic ({} reqs), locality mapping vs bank-striped (HMC IP) mapping:",
        gpu_trace.len()
    );
    println!(
        "    row-buffer hit rate: {:.3} -> {:.3} ({} of baseline; paper's mechanism: striping hurts non-sequential GPU traffic)",
        baseline.row_hit_rate,
        striped.row_hit_rate,
        norm(striped.row_hit_rate / baseline.row_hit_rate.max(1e-9)),
    );
}

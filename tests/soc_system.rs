//! Full-system behaviour: the qualitative findings of case study I must
//! hold on miniature configurations.

use emerald::mem::dram::DramConfig as Dram;
use emerald::soc::experiment::{calibrate_period, MemCfgKind};

// The figures program's cell runner, so these miniatures run the same code
// as the figures they stand for.
#[allow(dead_code)]
#[path = "../src/bin/emerald_figures/cell.rs"]
mod cell;
use cell::{run_cell, RunParams};

fn params(period: u64, dram: Dram) -> RunParams {
    RunParams {
        width: 64,
        height: 48,
        frames: 2,
        dram,
        gpu_frame_period: period,
        probe_window: Some(4_000),
        max_cycles_per_frame: 600_000_000,
        trace: false,
    }
}

#[test]
fn hmc_partitioning_slows_the_gpu() {
    // Needs enough GPU bandwidth demand to saturate a single channel, so
    // run at a larger target than the other miniatures.
    let m2 = &emerald::scene::workloads::m_models()[1];
    let period = calibrate_period(m2, 160, 120);
    let mut p = params(period, Dram::lpddr3_1333());
    p.width = 160;
    p.height = 120;
    let bas = run_cell(m2, MemCfgKind::Bas, &p);
    let hmc = run_cell(m2, MemCfgKind::Hmc, &p);
    assert!(
        hmc.avg_gpu_cycles() > 1.2 * bas.avg_gpu_cycles(),
        "HMC {} vs BAS {}",
        hmc.avg_gpu_cycles(),
        bas.avg_gpu_cycles()
    );
}

#[test]
fn dash_deprioritizes_a_deadline_meeting_gpu() {
    // Fig. 9's DASH finding: while the GPU meets its (generous) deadline,
    // CPU traffic gets priority and GPU render time stretches.
    let m3 = &emerald::scene::workloads::m_models()[2];
    let period = calibrate_period(m3, 64, 48);
    let p = params(period * 4, Dram::lpddr3_1333()); // very generous deadline
    let bas = run_cell(m3, MemCfgKind::Bas, &p);
    let dcb = run_cell(m3, MemCfgKind::Dcb, &p);
    assert!(
        dcb.avg_gpu_cycles() > bas.avg_gpu_cycles(),
        "DASH should stretch GPU frames: DCB {} vs BAS {}",
        dcb.avg_gpu_cycles(),
        bas.avg_gpu_cycles()
    );
}

#[test]
fn all_sources_reach_dram_and_probes_record_them() {
    let m4 = &emerald::scene::workloads::m_models()[3];
    let p = params(300_000, Dram::lpddr3_1333());
    let cell = run_cell(m4, MemCfgKind::Bas, &p);
    assert!(cell.row_hit_rate() > 0.0);
    assert!(cell.bytes_per_activation() > 0.0);
    assert!(cell.display_serviced_bytes() > 0);
    let total: u64 = cell
        .probes
        .iter()
        .flat_map(|(_, s)| s.iter().map(|(_, b)| *b))
        .sum();
    assert!(total > 0, "probes recorded nothing");
}

#[test]
fn low_bandwidth_dram_stretches_frames() {
    let m2 = &emerald::scene::workloads::m_models()[1];
    let period = calibrate_period(m2, 64, 48);
    let fast = run_cell(m2, MemCfgKind::Bas, &params(period, Dram::lpddr3_1333()));
    let slow = run_cell(m2, MemCfgKind::Bas, &params(period, Dram::low_bandwidth()));
    assert!(
        slow.avg_gpu_cycles() > 2.0 * fast.avg_gpu_cycles(),
        "slow {} vs fast {}",
        slow.avg_gpu_cycles(),
        fast.avg_gpu_cycles()
    );
}

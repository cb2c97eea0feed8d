//! Telemetry demo: renders one application frame on the full SoC with
//! every trace category enabled, then writes
//!
//! * `emerald_trace.json` — a Chrome trace-event file; load it at
//!   <https://ui.perfetto.dev> (or `chrome://tracing`) to see the frame
//!   span, per-core warp launches/retirements, draw-call spans, DRAM row
//!   conflicts and display scanout events on a shared timeline, and
//! * `emerald_stats.json` / `emerald_stats.csv` — the hierarchical
//!   metrics registry for the same frame.
//!
//! It also prints the frame's `obs::prof` loop accounting. Every file and
//! every line of output is bit-identical run to run.
//!
//! Run with: `cargo run --release --example trace_export`

use emerald::obs::{prof, trace, Registry, TraceCat};
use emerald::prelude::*;
use emerald::soc::CpuWorkload;

fn main() {
    let (w, h) = (64u32, 48u32);
    let mut cfg = SocConfig::case_study_1(
        MemorySystemConfig::baseline(2, DramConfig::lpddr3_1333()),
        w,
        h,
        400_000,
    );
    // Two CPU cores keep the demo quick while still producing CPU traffic.
    cfg.cpu_workloads = vec![CpuWorkload::driver(), CpuWorkload::compute()];
    let mut soc = Soc::new(cfg);
    soc.memsys.enable_probes(2_000);

    // Record everything: warps, draws, DRAM, caches, display, DFSL, frame
    // — and count the host loop iterations that simulate them.
    trace::set_enabled(TraceCat::ALL);
    prof::set_enabled(true);

    let m2 = &emerald::scene::workloads::m_models()[1];
    let binding = SceneBinding::new(&soc.mem, m2);
    let rec = soc.run_frame(
        vec![binding.draw_for_frame(0, w as f32 / h as f32, false)],
        60_000_000,
    );
    let profile = prof::take();
    prof::set_enabled(false);
    println!(
        "frame rendered: {} GPU cycles, {} total cycles, {} fragments",
        rec.gpu_cycles, rec.total_cycles, rec.gfx.fragments
    );

    // Event trace → Chrome trace-event JSON.
    let events = trace::drain();
    let dropped = trace::take_dropped();
    println!(
        "captured {} trace events ({} dropped by the ring buffer)",
        events.len(),
        dropped
    );
    let chrome = trace::export_chrome(&events);
    std::fs::write("emerald_trace.json", &chrome).expect("write trace");
    println!("wrote emerald_trace.json — open it at https://ui.perfetto.dev");

    println!(
        "loop accounting: {} loop iterations for {} simulated cycles ({:.3} per cycle), \
         {} of {} GPU cycles ticked, {} CPU batches covering {} cycles",
        profile.ticks,
        profile.soc_cycles,
        profile.ticks as f64 / profile.soc_cycles.max(1) as f64,
        profile.gpu_ticks,
        profile.gpu_cycles,
        profile.cpu_batches,
        profile.cpu_batch_cycles
    );

    // Metrics registry → hierarchical JSON + long-format CSV.
    let mut reg = Registry::new();
    soc.publish(&mut reg);
    std::fs::write("emerald_stats.json", reg.to_json()).expect("write stats json");
    std::fs::write("emerald_stats.csv", reg.to_csv()).expect("write stats csv");
    println!(
        "wrote emerald_stats.json / emerald_stats.csv ({} instruments)",
        reg.len()
    );

    // A taste of the hierarchy on stdout.
    for path in [
        "gfx.gpu.cores.issued",
        "gfx.draw_cycles",
        "mem.dram.row_hits",
        "mem.dram.bytes",
        "soc.display.serviced_bytes",
    ] {
        if let Some(v) = reg.get(path) {
            println!("  {path} [{}] = {:.2}", v.kind(), v.scalar());
        }
    }
}

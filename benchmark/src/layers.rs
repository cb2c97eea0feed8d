//! Turns what a run left behind — exact counts, span totals, probe
//! measurements — into the named per-layer metrics of
//! [`crate::metrics::PER_LAYER`].

use crate::counts::Counts;
use crate::metrics::PER_LAYER;
use crate::probes::Measured;
use crate::span::NameTotals;
use crate::stats;
use std::collections::BTreeMap;

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// The exact simulated statistics of a measured phase. Available from any
/// run, traced or not; a speed-only change must leave every one identical.
pub fn exact(c: &Counts) -> Values {
    let ratio = Counts::ratio;
    let cores = |leaf: &str| c.get(&format!("gfx.gpu.cores.{leaf}"));
    let clusters = |leaf: &str| c.sum("gfx.cluster", leaf);
    let l1_stalls = ["l1d", "l1t", "l1z", "l1c"]
        .iter()
        .fold(0.0, |acc, l| acc + cores(&format!("{l}.stalls")));
    let mut v = Values::new();
    v.insert("gpu.warp_instrs", c.get("gfx.gpu.issued"));
    v.insert("gpu.ipc", ratio(c.get("gfx.gpu.issued"), cores("cycles")));
    v.insert(
        "gpu.active_cycle_ratio",
        ratio(cores("active_cycles"), cores("cycles")),
    );
    v.insert("gpu.l1d_hit_ratio", c.hit_ratio("gfx.gpu.cores.l1d.hits"));
    v.insert("gpu.l1t_hit_ratio", c.hit_ratio("gfx.gpu.cores.l1t.hits"));
    v.insert("gpu.l1z_hit_ratio", c.hit_ratio("gfx.gpu.cores.l1z.hits"));
    v.insert("gpu.l2_hit_ratio", c.hit_ratio("gfx.gpu.l2.hits"));
    v.insert("gpu.cache_stalls", l1_stalls + c.get("gfx.gpu.l2.stalls"));
    v.insert("core.fragments", clusters(".fragments"));
    v.insert("core.raster_tiles", clusters(".raster_tiles"));
    v.insert("core.tc_tiles", clusters(".tc_tiles"));
    v.insert(
        "core.hiz_kill_ratio",
        ratio(clusters(".hiz_killed"), clusters(".raster_tiles")),
    );
    v.insert("core.prims_culled", c.get("bench.prims_culled"));
    v.insert("core.tc_timeout_flushes", clusters(".tc_timeout_flushes"));
    v.insert("core.tex_samples", c.get("gfx.ctx.tex_samples"));
    v.insert("mem.requests", c.get("mem.dram.serviced"));
    v.insert("mem.row_hit_ratio", c.hit_ratio("mem.dram.row_hits"));
    v.insert(
        "mem.bytes_per_activation",
        ratio(c.get("mem.dram.bytes"), c.get("mem.dram.activations")),
    );
    v.insert(
        "mem.avg_read_latency_cycles",
        ratio(
            c.get("mem.dram.read_latency_sum"),
            c.get("mem.dram.reads_serviced"),
        ),
    );
    v.insert("soc.cpu_instrs", c.sum("soc.cpu", ".instrs"));
    v.insert("soc.cpu_stall_cycles", c.sum("soc.cpu", ".stall_cycles"));
    v.insert(
        "soc.display_frames_aborted",
        c.get("soc.display.frames_aborted"),
    );
    v.insert(
        "soc.display_serviced_bytes",
        c.get("soc.display.serviced_bytes"),
    );
    v.insert("serve.sessions", c.get("serve.sessions"));
    v.insert("serve.prefixes", c.get("serve.prefixes"));
    v.insert("serve.slices", c.get("serve.slices"));
    v
}

/// What the traced run hands over for the timed and estimated metrics.
pub struct TracedRun<'a> {
    /// Exact counts of the traced repetition's measured phase.
    pub counts: &'a Counts,
    /// Span totals of the traced repetition plus the probes.
    pub totals: &'a BTreeMap<&'static str, NameTotals>,
    /// Direct probe measurements.
    pub measured: &'a Measured,
    /// Measured-phase wall of the traced repetition, seconds.
    pub traced_wall_s: f64,
    /// Measured-phase wall of the untraced repetition before it, seconds.
    pub untraced_wall_s: f64,
    /// Canary samples taken around the measured phases, ms.
    pub canary_ms: &'a [f64],
}

/// Every per-layer metric of a traced run.
///
/// # Panics
///
/// Panics if a catalogue metric was not produced: the probe set and the
/// catalogue must stay in step.
pub fn per_layer(run: &TracedRun<'_>) -> Values {
    let empty = NameTotals::default();
    let t = |name: &str| run.totals.get(name).unwrap_or(&empty);
    let ms = |durs: &[u64]| -> Vec<f64> { durs.iter().map(|d| *d as f64 / 1e6).collect() };
    let median_ms = |name: &str| stats::median(&ms(&t(name).durs_ns));
    let max_ms = |name: &str| ms(&t(name).durs_ns).into_iter().fold(0.0, f64::max);
    let ns_per_cycle = |name: &str| Counts::ratio(t(name).total_ns as f64, t(name).cycles as f64);
    let wall_ns = run.traced_wall_s * 1e9;

    let mut v = exact(run.counts);
    v.extend(run.measured.iter().map(|(k, x)| (*k, *x)));
    let instrs = v["gpu.warp_instrs"];
    v.insert("gpu.ns_per_warp_instr", Counts::ratio(wall_ns, instrs));
    v.insert(
        "isa.share_est",
        v["isa.exec_ns_per_warp_instr"] * instrs / wall_ns,
    );
    v.insert("gpu.saxpy_ns_per_cycle", ns_per_cycle("gpu.kernel.saxpy"));
    v.insert("gpu.clamp_ns_per_cycle", ns_per_cycle("gpu.kernel.clamp"));
    v.insert("gpu.reduce_ns_per_cycle", ns_per_cycle("gpu.kernel.reduce"));
    v.insert("core.render_ns_per_cycle", ns_per_cycle("core.run_frame"));
    v.insert("core.bind_ms", median_ms("core.bind"));
    v.insert(
        "mem.share_est",
        v["mem.replay_ns_per_req"] * v["mem.requests"] / wall_ns,
    );
    v.insert("soc.frame_ms_p50", median_ms("soc.run_frame"));
    v.insert("soc.frame_ms_max", max_ms("soc.run_frame"));
    v.insert("soc.idle_ns_per_cycle", ns_per_cycle("soc.idle_until"));
    v.insert("soc.new_ms", median_ms("soc.new"));
    v.insert("soc.calibrate_ms", median_ms("soc.calibrate"));
    v.insert("serve.session_ms_p50", median_ms("serve.session"));
    v.insert("serve.session_ms_max", max_ms("serve.session"));
    v.insert("scene.build_ms", median_ms("scene.build"));
    v.insert("host.canary_ms", stats::median(run.canary_ms));
    v.insert(
        "trace.overhead_pct",
        (run.traced_wall_s - run.untraced_wall_s) / run.untraced_wall_s * 100.0,
    );

    for m in &PER_LAYER {
        assert!(v.contains_key(m.name), "no value for {}", m.name);
    }
    assert_eq!(v.len(), PER_LAYER.len(), "a value outside the catalogue");
    v
}

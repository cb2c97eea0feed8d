//! The metric catalogue: names, units, directions and bounds. This table
//! and `BENCHMARK.json` say the same thing; a unit test holds them
//! together.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    #[cfg(test)]
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the simulator waits for or pays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// it counts as a regression.
    pub bound: f64,
    /// Absolute change (in `unit`) below which a difference is never a
    /// regression, whatever its share: 20 ms of set-up, 2 MiB of RSS.
    pub floor: f64,
}

/// The end-to-end metrics, reported for every workload with tracing off.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "host_ns_per_sim_cycle",
        unit: "ns/cycle",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.020,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
        floor: 2.0,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "op/s",
        better: Better::Higher,
        bound: 0.25,
        floor: 0.0,
    },
];

/// How a per-layer number comes about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A simulated statistic; repeats exactly, so any change is a model
    /// change, not noise.
    Exact,
    /// Host time of calls into one layer, from spans or a layer probe.
    Timed,
    /// Probe cost × exact count ÷ wall: an estimate of a share nothing
    /// outside the library can observe directly.
    Estimate,
}

/// A per-layer metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerLayer {
    /// Metric name; the prefix is the layer.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Provenance.
    pub kind: Kind,
}

const fn timed(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        kind: Kind::Timed,
    }
}

const fn speedup(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        kind: Kind::Timed,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        kind: Kind::Exact,
    }
}

const fn estimate(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "ratio",
        better: Better::Lower,
        kind: Kind::Estimate,
    }
}

use Better::{Higher, Lower};

/// The per-layer metrics, produced by the traced run of every workload.
pub const PER_LAYER: [PerLayer; 70] = [
    // isa
    timed("isa.exec_ns_per_warp_instr", "ns"),
    timed("isa.assemble_us", "us"),
    estimate("isa.share_est"),
    // gpu
    timed("gpu.ns_per_warp_instr", "ns"),
    timed("gpu.saxpy_ns_per_cycle", "ns/cycle"),
    timed("gpu.clamp_ns_per_cycle", "ns/cycle"),
    timed("gpu.reduce_ns_per_cycle", "ns/cycle"),
    timed("gpu.idle_cycle_ns", "ns"),
    timed("gpu.pool_dispatch_ns", "ns"),
    speedup("gpu.t2_speedup", "ratio"),
    exact("gpu.warp_instrs", "count", Lower),
    exact("gpu.ipc", "ratio", Higher),
    exact("gpu.active_cycle_ratio", "ratio", Higher),
    exact("gpu.l1d_hit_ratio", "ratio", Higher),
    exact("gpu.l1t_hit_ratio", "ratio", Higher),
    exact("gpu.l1z_hit_ratio", "ratio", Higher),
    exact("gpu.l2_hit_ratio", "ratio", Higher),
    exact("gpu.cache_stalls", "count", Lower),
    // core
    timed("core.render_ns_per_cycle", "ns/cycle"),
    timed("core.ns_per_fragment", "ns"),
    timed("core.bind_ms", "ms"),
    exact("core.fragments", "count", Lower),
    exact("core.raster_tiles", "count", Lower),
    exact("core.tc_tiles", "count", Lower),
    exact("core.hiz_kill_ratio", "ratio", Higher),
    exact("core.prims_culled", "count", Higher),
    exact("core.tc_timeout_flushes", "count", Lower),
    exact("core.tex_samples", "count", Lower),
    // mem
    timed("mem.replay_ns_per_req", "ns"),
    timed("mem.replay_ns_per_req.bas", "ns"),
    timed("mem.replay_ns_per_req.dcb", "ns"),
    timed("mem.replay_ns_per_req.hmc", "ns"),
    timed("mem.cache_ns_per_access", "ns"),
    timed("mem.image_alloc_ms", "ms"),
    estimate("mem.share_est"),
    exact("mem.requests", "count", Lower),
    exact("mem.row_hit_ratio", "ratio", Higher),
    exact("mem.bytes_per_activation", "bytes", Higher),
    exact("mem.avg_read_latency_cycles", "cycles", Lower),
    // soc
    timed("soc.frame_ms_p50", "ms"),
    timed("soc.frame_ms_max", "ms"),
    timed("soc.idle_ns_per_cycle", "ns/cycle"),
    estimate("soc.overhead_est"),
    timed("soc.new_ms", "ms"),
    timed("soc.calibrate_ms", "ms"),
    exact("soc.cpu_instrs", "count", Lower),
    exact("soc.cpu_stall_cycles", "cycles", Lower),
    exact("soc.display_frames_aborted", "count", Lower),
    exact("soc.display_serviced_bytes", "bytes", Higher),
    // common
    timed("snap.encode_ms", "ms"),
    exact("snap.bytes", "bytes", Lower),
    timed("snap.restore_ms", "ms"),
    timed("snap.shared_validate_ms", "ms"),
    speedup("json.parse_mb_per_s", "MB/s"),
    speedup("json.write_mb_per_s", "MB/s"),
    // obs
    timed("obs.publish_us", "us"),
    exact("obs.registry_paths", "count", Lower),
    // serve
    timed("serve.plan_us", "us"),
    timed("serve.session_ms_p50", "ms"),
    timed("serve.session_ms_max", "ms"),
    speedup("serve.cpu_s_per_wall_s", "ratio"),
    speedup("serve.fork_speedup", "ratio"),
    speedup("serve.w2_speedup", "ratio"),
    timed("serve.proto_overhead_ms", "ms"),
    exact("serve.sessions", "count", Higher),
    exact("serve.prefixes", "count", Lower),
    exact("serve.slices", "count", Lower),
    // scene / host
    timed("scene.build_ms", "ms"),
    timed("host.canary_ms", "ms"),
    timed("trace.overhead_pct", "%"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use emerald::common::json::Json;

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn field<'a>(j: &'a Json, k: &str) -> &'a str {
        j.get(k).and_then(Json::as_str).unwrap_or("")
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name));
        for n in names {
            assert!(seen.insert(n), "{n} listed twice");
            assert!(n.len() <= 64);
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn benchmark_json_agrees_with_the_catalogue() {
        let doc = manifest();
        let e2e = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), m.better.label());
            assert_eq!(j.get("bound").and_then(Json::as_num), Some(m.bound));
        }
        let layers = doc.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), m.better.label());
        }
        let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
        // The outside driver runs a subset (README, "What the driver
        // runs"); every name it is given must be one `--workload` accepts.
        let names: Vec<&str> = workloads.iter().map(|w| field(w, "name")).collect();
        let ours: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .filter(|n| names.contains(n))
            .collect();
        assert_eq!(names, ours);
        assert!(names.len() >= 2);
    }
}

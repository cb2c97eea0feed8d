//! Ablations of the design choices DESIGN.md calls out: Hi-Z, early-Z,
//! tile coalescing, vertex-warp overlap, and PMRB/OVB credit sizing.

use emerald_bench::report::{norm, print_table};
use emerald_core::renderer::FrameStats;
use emerald_core::session::SceneBinding;
use emerald_core::state::RenderTarget;
use emerald_core::{GfxConfig, GpuRenderer};
use emerald_gpu::gpu::SimpleMemPort;
use emerald_gpu::GpuConfig;
use emerald_mem::dram::DramConfig;
use emerald_mem::image::SharedMem;
use emerald_mem::system::{MemorySystem, MemorySystemConfig};
use emerald_scene::workloads::w_models;

fn render(cfg: GfxConfig, wl: &emerald_scene::workloads::WorkloadDef, late_z: bool) -> FrameStats {
    let (w, h) = (256u32, 192u32);
    let mem = SharedMem::with_capacity(1 << 27);
    let rt = RenderTarget::alloc(&mem, w, h);
    let mut r = GpuRenderer::new(GpuConfig::case_study_2(), cfg, mem.clone(), rt);
    let mut port = SimpleMemPort::new(MemorySystem::new(MemorySystemConfig::baseline(
        4,
        DramConfig::lpddr3_1600(),
    )));
    let b = SceneBinding::new(&mem, wl);
    // Warm frame + measured frame.
    for f in 0..2 {
        rt.clear(&mem, [0.0; 4], 1.0);
        r.draw(b.draw_for_frame(f, w as f32 / h as f32, late_z));
        if f == 1 {
            return r.run_frame(&mut port, 500_000_000);
        }
        r.run_frame(&mut port, 500_000_000);
    }
    unreachable!()
}

fn main() {
    let base_cfg = GfxConfig::case_study_2();
    let variants: Vec<(&str, GfxConfig, bool)> = vec![
        ("baseline", base_cfg.clone(), false),
        (
            "hiz off",
            GfxConfig {
                hiz_enabled: false,
                ..base_cfg.clone()
            },
            false,
        ),
        ("late-Z", base_cfg.clone(), true),
        (
            "TC off",
            GfxConfig {
                tc_enabled: false,
                ..base_cfg.clone()
            },
            false,
        ),
        (
            "no vtx overlap",
            GfxConfig {
                vertex_overlap: false,
                ..base_cfg.clone()
            },
            false,
        ),
        (
            "credits 6",
            GfxConfig {
                max_vertex_warps: 6,
                ..base_cfg.clone()
            },
            false,
        ),
        (
            "ooo prims",
            GfxConfig {
                ooo_prims: true,
                ..base_cfg.clone()
            },
            false,
        ),
    ];
    for wl in [&w_models()[0], &w_models()[3]] {
        let mut rows = Vec::new();
        let base = render(base_cfg.clone(), wl, false);
        for (name, cfg, late) in &variants {
            let s = render(cfg.clone(), wl, *late);
            rows.push(vec![
                name.to_string(),
                norm(s.cycles as f64 / base.cycles as f64),
                s.fragments.to_string(),
                s.hiz_killed.to_string(),
                s.tc_tiles.to_string(),
                s.vertices_shaded.to_string(),
            ]);
        }
        print_table(
            &format!("Ablations — {} (time normalized to baseline)", wl.id),
            &[
                "variant",
                "time",
                "fragments",
                "hiz killed",
                "tc tiles",
                "vertices",
            ],
            &rows,
        );
    }
}

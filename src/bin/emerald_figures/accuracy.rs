//! §3.4-style accuracy methodology.
//!
//! The paper validates Emerald against a Tegra K1 with 14 microbenchmarks,
//! reporting a 98% draw-time correlation and 32.2% mean absolute relative
//! error. Silicon is unavailable here, so the "hardware" is an
//! *independent analytic first-order cost model* computed purely from
//! workload inputs (triangle count, functionally-counted covered pixels,
//! texturing) — never from the timing simulator's own outputs. The
//! experiment demonstrates the methodology and checks that the simulator's
//! timing scales sanely with workload size.

use crate::standalone::Workbench;
use emerald::common::stats::{mean_abs_rel_error, pearson};
use emerald::core::geom::setup_prim;
use emerald::core::reference::transform_vertex;
use emerald::core::session::SceneBinding;
use emerald::mem::image::SharedMem;
use emerald::scene::mesh;
use emerald::scene::workloads::{TextureKind, WorkloadDef};
use emerald::scene::OrbitCamera;

/// One microbenchmark: a workload at a resolution.
#[derive(Debug, Clone)]
pub struct MicroBench {
    /// Display name.
    pub name: String,
    /// The workload.
    pub workload: WorkloadDef,
    /// Render width.
    pub width: u32,
    /// Render height.
    pub height: u32,
}

/// The 14 microbenchmarks: geometry/coverage/texture scaling points.
pub fn microbenches() -> Vec<MicroBench> {
    let mut out = Vec::new();
    let mut push = |name: &str, m: mesh::Mesh, tex: TextureKind, radius: f32, w: u32, h: u32| {
        out.push(MicroBench {
            name: name.to_string(),
            workload: WorkloadDef {
                id: "uB",
                name: "microbench",
                mesh: m,
                texture: tex,
                translucent: false,
                camera: OrbitCamera::new(radius),
            },
            width: w,
            height: h,
        });
    };
    // Geometry scaling (flat shading, constant coverage).
    for (i, n) in [4usize, 8, 16, 24].iter().enumerate() {
        push(
            &format!("geo{n}x{n}"),
            mesh::uv_sphere(0.9, *n, *n + 2),
            TextureKind::None,
            if i % 2 == 0 { 1.9 } else { 2.1 },
            192,
            144,
        );
    }
    // Coverage scaling (same geometry, varying screen share).
    for r in [3.2f32, 2.4, 1.8, 1.4] {
        push(
            &format!("cov_r{r}"),
            mesh::uv_sphere(0.9, 12, 14),
            TextureKind::None,
            r,
            192,
            144,
        );
    }
    // Texture on/off at two sizes.
    for (tex, tag) in [(TextureKind::None, "flat"), (TextureKind::Checker, "tex")] {
        push(
            &format!("cube_{tag}"),
            mesh::unit_cube(),
            tex,
            1.6,
            192,
            144,
        );
        push(
            &format!("torus_{tag}"),
            mesh::torus(0.7, 0.3, 20, 12),
            tex,
            1.7,
            192,
            144,
        );
    }
    // Resolution scaling.
    push(
        "res_small",
        mesh::teapot_like(),
        TextureKind::Checker,
        2.0,
        128,
        96,
    );
    push(
        "res_large",
        mesh::teapot_like(),
        TextureKind::Checker,
        2.0,
        256,
        192,
    );
    out
}

/// The analytic "hardware" estimate: built only from workload inputs.
///
/// `T = α·vertices + β·pixels + γ·textured_pixels` with first-order
/// coefficients; pixels are counted functionally (coverage of each
/// front-facing primitive), independent of the timing model.
pub fn analytic_estimate(b: &MicroBench) -> f64 {
    let mem = SharedMem::with_capacity(64 << 20);
    let binding = SceneBinding::new(&mem, &b.workload);
    let dc = binding.draw_for_frame(0, b.width as f32 / b.height as f32, false);
    let mut pixels = 0u64;
    for p in 0..dc.prim_count() {
        let corners = dc.prim_corners(p);
        let verts = corners.map(|vi| transform_vertex(&mem, &dc, vi));
        if let Ok(sp) = setup_prim(&verts, b.width, b.height) {
            for y in sp.bbox.y0..=sp.bbox.y1 {
                for x in sp.bbox.x0..=sp.bbox.x1 {
                    if sp.sample(x, y).is_some() {
                        pixels += 1;
                    }
                }
            }
        }
    }
    let vertices = (dc.prim_count() * 3) as f64;
    let textured = if b.workload.textured() {
        pixels as f64
    } else {
        0.0
    };
    const ALPHA: f64 = 14.0; // per-vertex cost
    const BETA: f64 = 1.1; // per-pixel cost
    const GAMMA: f64 = 0.9; // extra texturing cost per pixel
    1_000.0 + ALPHA * vertices + BETA * pixels as f64 + GAMMA * textured
}

/// Correlation-study output.
#[derive(Debug, Clone, Default)]
pub struct AccuracyReport {
    /// Per-bench `(name, analytic_estimate, simulated_cycles)`.
    pub rows: Vec<(String, f64, f64)>,
    /// Pearson correlation between estimate and simulation.
    pub correlation: f64,
    /// Mean absolute relative error after least-squares scaling.
    pub mare: f64,
}

/// Runs every microbench on the simulator and compares against the
/// analytic model (scaled by the least-squares factor, since the analytic
/// units are arbitrary).
pub fn run_accuracy_study() -> AccuracyReport {
    let benches = microbenches();
    let mut rows = Vec::new();
    for b in &benches {
        let stats = Workbench::new(&b.workload, b.width, b.height).measure();
        rows.push((b.name.clone(), analytic_estimate(b), stats.cycles as f64));
    }
    let xs: Vec<f64> = rows.iter().map(|r| r.1).collect();
    let ys: Vec<f64> = rows.iter().map(|r| r.2).collect();
    let correlation = pearson(&xs, &ys).unwrap_or(0.0);
    // Least-squares scale k minimizing Σ(y - kx)²: k = Σxy/Σx².
    let k = xs.iter().zip(&ys).map(|(x, y)| x * y).sum::<f64>()
        / xs.iter().map(|x| x * x).sum::<f64>().max(1e-12);
    let scaled: Vec<f64> = xs.iter().map(|x| k * x).collect();
    let mare = mean_abs_rel_error(&scaled, &ys).unwrap_or(f64::NAN);
    AccuracyReport {
        rows,
        correlation,
        mare,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fourteen_microbenches() {
        assert_eq!(microbenches().len(), 14, "the paper used 14");
    }

    /// The headline EXPERIMENTS.md quotes. Exact, not a tolerance: the
    /// model is deterministic, so a moved digit is a moved simulation.
    #[test]
    fn headline_matches_experiments_md() {
        let rep = run_accuracy_study();
        assert_eq!(format!("{:.3}", rep.correlation), "0.841");
        assert_eq!(format!("{:.1}", rep.mare * 100.0), "53.2");
    }

    #[test]
    fn analytic_estimate_scales_with_coverage() {
        let b = microbenches();
        let far = b.iter().find(|x| x.name == "cov_r3.2").unwrap();
        let near = b.iter().find(|x| x.name == "cov_r1.4").unwrap();
        assert!(analytic_estimate(near) > analytic_estimate(far));
    }

    #[test]
    fn analytic_estimate_charges_texturing() {
        let b = microbenches();
        let flat = b.iter().find(|x| x.name == "cube_flat").unwrap();
        let tex = b.iter().find(|x| x.name == "cube_tex").unwrap();
        assert!(analytic_estimate(tex) > analytic_estimate(flat));
    }
}

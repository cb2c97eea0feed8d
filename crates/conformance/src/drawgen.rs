//! Random draw-call / render-state generator and pixel-exact differential
//! check of the hardware graphics pipeline against
//! `emerald_core::reference::render_reference`.
//!
//! Cases deliberately include degenerate (zero-area), off-screen and
//! partially clipped triangles, both topologies, every depth/blend
//! combination the fragment pipe supports, and all three procedural
//! texture families.

use emerald_common::math::{Mat4, Vec2, Vec3};
use emerald_common::rng::Xorshift64;
use emerald_core::reference::{diff_pixels, render_reference};
use emerald_core::renderer::{FrameStats, GpuRenderer};
use emerald_core::shaders::{self, FsOptions};
use emerald_core::state::{DrawCall, RenderTarget, TextureDesc, Topology, VertexBuffer};
use emerald_core::GfxConfig;
use emerald_gpu::{GpuConfig, SimpleMemPort};
use emerald_mem::SharedMem;
use emerald_obs::Registry;
use emerald_scene::mesh::Mesh;
use emerald_scene::texture::TextureData;

/// Render-target size for conformance draws: small enough to keep a case
/// under a second, big enough for real rasterizer coverage.
pub(crate) const RT_SIZE: u32 = 64;

/// Cycle budget per frame; tiny draws finish far sooner.
const MAX_FRAME_CYCLES: u64 = 200_000_000;

/// Which procedural texture a case binds, if any. Kept as a small spec
/// (rather than the texels) so cases stay cheap to clone and print.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TexSpec {
    /// No texture bound; shading is vertex color only.
    None,
    /// Checkerboard (`size`, `cells`).
    Checker(u32, u32),
    /// Horizontal gradient (`size`).
    Gradient(u32),
    /// Hash noise (`size`, `seed`).
    Noise(u32, u64),
}

impl TexSpec {
    fn data(self) -> Option<TextureData> {
        match self {
            TexSpec::None => None,
            TexSpec::Checker(size, cells) => Some(TextureData::checker(size, cells)),
            TexSpec::Gradient(size) => Some(TextureData::gradient(size)),
            TexSpec::Noise(size, seed) => Some(TextureData::noise(size, seed)),
        }
    }
}

/// One generated draw case: geometry + full pipeline state, independent of
/// any memory image so it can be re-uploaded for shrinking and replay.
#[derive(Debug, Clone)]
pub struct DrawCase {
    /// Triangle-corner positions (3 per triangle; strips reuse them).
    pub mesh: Mesh,
    /// Index list into the mesh (always valid).
    pub indices: Vec<u32>,
    /// Primitive topology.
    pub topology: Topology,
    /// Fragment-pipe state; `textured` mirrors `tex != None`.
    pub fso: FsOptions,
    /// Column-major model-view-projection matrix.
    pub mvp: [f32; 16],
    /// Bound texture spec.
    pub tex: TexSpec,
}

impl DrawCase {
    /// Number of primitives the case draws.
    pub fn prims(&self) -> usize {
        match self.topology {
            Topology::Triangles => self.indices.len() / 3,
            Topology::TriangleStrip => self.indices.len().saturating_sub(2),
        }
    }

    /// One-line summary for failure reports.
    pub fn describe(&self) -> String {
        format!(
            "{} prims, {:?}, depth_test={} depth_write={} blend={} early_z={} tex={:?}",
            self.prims(),
            self.topology,
            self.fso.depth_test,
            self.fso.depth_write,
            self.fso.blend,
            self.fso.early_z,
            self.tex,
        )
    }
}

fn rand_unit(rng: &mut Xorshift64) -> f32 {
    rng.next_f32() * 2.0 - 1.0
}

/// Generates one random draw case. Positions span ±2.2 so some geometry
/// lands off-screen or clips the frustum; ~1 in 8 triangles is made
/// exactly degenerate (repeated corner).
pub fn gen_draw(rng: &mut Xorshift64) -> DrawCase {
    let tris = 1 + rng.below(9) as usize;
    let mut mesh = Mesh::default();
    for _ in 0..tris * 3 {
        let p = Vec3::new(
            rand_unit(rng) * 2.2,
            rand_unit(rng) * 2.2,
            rand_unit(rng) * 2.2,
        );
        mesh.positions.push(p);
        mesh.normals.push(if p.length() > 1e-3 {
            p.normalized()
        } else {
            Vec3::new(0.0, 0.0, 1.0)
        });
        mesh.uvs.push(Vec2::new(rng.next_f32(), rng.next_f32()));
    }
    let mut indices: Vec<u32> = (0..(tris * 3) as u32).collect();
    // Degenerate some triangles by collapsing a corner.
    for t in 0..tris {
        if rng.chance(0.125) {
            indices[3 * t + 2] = indices[3 * t];
        }
    }
    let topology = if rng.chance(0.3) {
        Topology::TriangleStrip
    } else {
        Topology::Triangles
    };

    let tex = match rng.below(5) {
        0 => TexSpec::Checker(32, 4),
        1 => TexSpec::Gradient(32),
        2 => TexSpec::Noise(32, rng.next_u64()),
        _ => TexSpec::None,
    };
    let blend = rng.chance(0.35);
    let depth_test = rng.chance(0.8);
    let fso = FsOptions {
        textured: tex != TexSpec::None,
        depth_test,
        // Blended draws keep depth writes off (the pipeline's supported
        // combination, mirroring the in-tree renderer tests).
        depth_write: depth_test && !blend,
        early_z: rng.chance(0.5),
        blend,
        alpha: if blend {
            Some(0.25 + 0.5 * rng.next_f32())
        } else {
            None
        },
    };

    // Random camera: perspective from a jittered eye looking at origin.
    let eye = Vec3::new(
        rand_unit(rng) * 1.5,
        rand_unit(rng) * 1.5,
        2.0 + rng.next_f32() * 2.0,
    );
    let proj = Mat4::perspective((40.0 + rng.next_f32() * 40.0).to_radians(), 1.0, 0.3, 30.0);
    let view = Mat4::look_at(eye, Vec3::new(0.0, 0.0, 0.0), Vec3::new(0.0, 1.0, 0.0));
    let mvp = proj.mul_mat4(&view).to_array();

    DrawCase {
        mesh,
        indices,
        topology,
        fso,
        mvp,
        tex,
    }
}

/// Renders `case` on the hardware pipeline and the reference renderer on
/// fresh identically cleared targets; returns the number of differing
/// pixels (0 means conformant).
pub fn run_draw_case(case: &DrawCase, gpu_cfg: &GpuConfig) -> usize {
    run_draw_case_timed(case, gpu_cfg).0
}

/// `case` uploaded and queued on a fresh standalone renderer.
pub(crate) struct DrawRig {
    pub mem: SharedMem,
    pub rt: RenderTarget,
    /// A second, identically cleared target for the reference renderer.
    pub ref_rt: RenderTarget,
    pub renderer: GpuRenderer,
    pub port: SimpleMemPort,
    /// The queued draw call, for the reference renderer.
    pub dc: DrawCall,
}

/// Uploads `case` into a fresh image, clears a target and queues the draw
/// on a renderer built from `gpu_cfg`. Deterministic: two rigs of the same
/// case are twins.
pub(crate) fn draw_rig(case: &DrawCase, gpu_cfg: &GpuConfig) -> DrawRig {
    let mem = SharedMem::with_capacity(1 << 26);
    let rt = RenderTarget::alloc(&mem, RT_SIZE, RT_SIZE);
    rt.clear(&mem, [0.05, 0.05, 0.08, 1.0], 1.0);
    let ref_rt = RenderTarget::alloc(&mem, RT_SIZE, RT_SIZE);
    ref_rt.clear(&mem, [0.05, 0.05, 0.08, 1.0], 1.0);
    let mut vb = VertexBuffer::upload(&mem, &case.mesh);
    vb.indices = case.indices.clone();
    let texture = case.tex.data().map(|d| TextureDesc::upload(&mem, &d));
    let dc = DrawCall {
        vb,
        topology: case.topology,
        vs: shaders::vertex_transform(),
        fs: shaders::fragment_shader(case.fso),
        mvp: case.mvp,
        depth_test: case.fso.depth_test,
        depth_write: case.fso.depth_write,
        blend: case.fso.blend,
        texture,
    };
    let mut renderer =
        GpuRenderer::new(gpu_cfg.clone(), GfxConfig::case_study_2(), mem.clone(), rt);
    let port = crate::isadiff::two_channel_port();
    renderer.draw(dc.clone());
    DrawRig {
        mem,
        rt,
        ref_rt,
        renderer,
        port,
        dc,
    }
}

/// Like [`run_draw_case`] but also returns what the frame shows beyond
/// its pixels — its statistics (simulated cycles, instructions, ...) and
/// the renderer's published registry (retired warps among it) — so the
/// event-skip axis can assert those identical too.
pub fn run_draw_case_timed(case: &DrawCase, gpu_cfg: &GpuConfig) -> (usize, FrameStats, String) {
    let mut rig = draw_rig(case, gpu_cfg);
    render_reference(&rig.mem, rig.ref_rt, &rig.dc, case.fso);
    let stats = rig.renderer.run_frame(&mut rig.port, MAX_FRAME_CYCLES);
    let (hw, sw) = (rig.rt.read_color(&rig.mem), rig.ref_rt.read_color(&rig.mem));
    let mut reg = Registry::new();
    rig.renderer.publish(&mut reg, "render");
    (diff_pixels(&hw, &sw), stats, reg.to_json())
}

/// Shrink candidates for a failing draw: drop the last triangle, simplify
/// state one axis at a time (untexture, unblend, disable depth, disable
/// early-z), and identity-project. Each candidate changes exactly one
/// thing so the surviving case isolates the culprit.
pub fn shrink_draw_candidates(case: &DrawCase) -> Vec<DrawCase> {
    let mut out = Vec::new();
    if case.prims() > 1 {
        let mut c = case.clone();
        match c.topology {
            Topology::Triangles => {
                let keep = c.indices.len() - 3;
                c.indices.truncate(keep);
            }
            Topology::TriangleStrip => {
                c.indices.pop();
            }
        }
        out.push(c);
    }
    if case.tex != TexSpec::None {
        let mut c = case.clone();
        c.tex = TexSpec::None;
        c.fso.textured = false;
        out.push(c);
    }
    if case.fso.blend {
        let mut c = case.clone();
        c.fso.blend = false;
        c.fso.alpha = None;
        c.fso.depth_write = c.fso.depth_test;
        out.push(c);
    }
    if case.fso.depth_test {
        let mut c = case.clone();
        c.fso.depth_test = false;
        c.fso.depth_write = false;
        c.fso.early_z = false;
        out.push(c);
    }
    if case.fso.early_z {
        let mut c = case.clone();
        c.fso.early_z = false;
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = gen_draw(&mut Xorshift64::new(0xd12a));
        let b = gen_draw(&mut Xorshift64::new(0xd12a));
        assert_eq!(a.indices, b.indices);
        assert_eq!(a.mvp, b.mvp);
        assert_eq!(a.describe(), b.describe());
    }

    #[test]
    fn generated_cases_are_well_formed() {
        let mut rng = Xorshift64::new(7);
        for _ in 0..64 {
            let c = gen_draw(&mut rng);
            assert!(c.mesh.validate(), "mesh validates");
            let max = c.mesh.vertex_count() as u32;
            assert!(c.indices.iter().all(|&i| i < max));
            assert!(c.prims() >= 1);
            assert_eq!(c.fso.textured, c.tex != TexSpec::None);
            if c.fso.blend {
                assert!(c.fso.alpha.is_some());
                assert!(!c.fso.depth_write);
            }
        }
    }

    #[test]
    fn shrink_candidates_reduce_or_simplify() {
        let mut rng = Xorshift64::new(99);
        let c = gen_draw(&mut rng);
        for cand in shrink_draw_candidates(&c) {
            let smaller = cand.prims() < c.prims();
            let simpler = (cand.tex == TexSpec::None && c.tex != TexSpec::None)
                || (!cand.fso.blend && c.fso.blend)
                || (!cand.fso.depth_test && c.fso.depth_test)
                || (!cand.fso.early_z && c.fso.early_z);
            assert!(smaller || simpler);
        }
    }
}

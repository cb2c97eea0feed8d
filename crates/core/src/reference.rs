//! A pure-software reference rasterizer used to validate the hardware
//! model's output images.
//!
//! The reference mirrors the standard shaders' arithmetic instruction for
//! instruction (same rounding behaviour: separate multiply and add, no
//! fused operations) and reuses `GfxCtx`'s functional texture/depth/
//! blend operations, so a correct timing pipeline must produce
//! **bit-identical** images.

use crate::ctx::GfxCtx;
use crate::geom::{setup_prim, ClipVert, NUM_VARYINGS};
use crate::shaders::FsOptions;
use crate::state::{DrawCall, RenderTarget, VERTEX_STRIDE};
use emerald_common::math::Vec4;
use emerald_isa::ExecCtx;
use emerald_mem::image::SharedMem;

/// Mirrors the standard vertex shader (`shaders::vertex_transform`) for
/// vertex `vi` of `dc`: same loads, same multiply/add order, same clamps.
pub fn transform_vertex(mem: &SharedMem, dc: &DrawCall, vi: u32) -> ClipVert {
    let a = dc.vb.base + vi as u64 * VERTEX_STRIDE;
    let f = |o: u64| mem.read_f32(a + o);
    let (px, py, pz) = (f(0), f(4), f(8));
    let (nx, ny, nz) = (f(12), f(16), f(20));
    let (u, v) = (f(24), f(28));
    let m = &dc.mvp; // column-major
                     // Mirror mul / mad(=mul,add) / mad / add exactly.
    let row = |r: usize| {
        let t0 = px * m[r];
        let t1 = py * m[4 + r] + t0;
        let t2 = pz * m[8 + r] + t1;
        t2 + m[12 + r]
    };
    let diffuse = {
        let t0 = nx * 0.37;
        let t1 = ny * 0.84 + t0;
        let t2 = nz * 0.40 + t1;
        t2.clamp(0.2, 1.0)
    };
    ClipVert {
        pos: Vec4::new(row(0), row(1), row(2), row(3)),
        attrs: [u, v, diffuse],
    }
}

/// Renders `dc` into `rt` with the exact semantics of the standard
/// fragment-shader variant described by `fs`, in draw order.
pub fn render_reference(mem: &SharedMem, rt: RenderTarget, dc: &DrawCall, fs: FsOptions) {
    let mut ctx = GfxCtx::new(mem.clone(), rt);
    ctx.bind_texture(0, dc.texture);
    let mut texels = Vec::new();
    for p in 0..dc.prim_count() {
        let corners = dc.prim_corners(p);
        let verts: [ClipVert; 3] = corners.map(|vi| transform_vertex(mem, dc, vi));
        let Ok(sp) = setup_prim(&verts, rt.width, rt.height) else {
            continue;
        };
        for y in sp.bbox.y0..=sp.bbox.y1 {
            for x in sp.bbox.x0..=sp.bbox.x1 {
                let Some((z, attrs)) = sp.sample(x, y) else {
                    continue;
                };
                shade_fragment(&mut ctx, &fs, x as u32, y as u32, z, &attrs, &mut texels);
            }
        }
    }
}

/// One fragment through the standard shader semantics.
fn shade_fragment(
    ctx: &mut GfxCtx,
    fs: &FsOptions,
    x: u32,
    y: u32,
    z: f32,
    attrs: &[f32; NUM_VARYINGS],
    texels: &mut Vec<emerald_common::types::Addr>,
) {
    let ztest = |ctx: &mut GfxCtx| {
        if fs.depth_test {
            ctx.ztest(x, y, z, fs.depth_write).0
        } else {
            true
        }
    };
    if fs.early_z && !ztest(ctx) {
        return;
    }
    let mut rgba = if fs.textured {
        texels.clear();
        ctx.tex2d(0, attrs[0], attrs[1], texels)
    } else {
        [0.80, 0.80, 0.85, 1.0]
    };
    let d = attrs[2];
    rgba[0] *= d;
    rgba[1] *= d;
    rgba[2] *= d;
    if let Some(a) = fs.alpha {
        rgba[3] = a;
    }
    if !fs.early_z && !ztest(ctx) {
        return;
    }
    if fs.blend {
        let (out, _) = ctx.blend(x, y, rgba);
        rgba = out;
    }
    ctx.fb_write(x, y, rgba);
}

/// Counts pixels differing between two packed-RGBA images.
pub fn diff_pixels(a: &[u32], b: &[u32]) -> usize {
    assert_eq!(a.len(), b.len(), "image sizes differ");
    a.iter().zip(b).filter(|(x, y)| x != y).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shaders;
    use crate::state::VertexBuffer;
    use emerald_common::math::{Mat4, Vec3};
    use emerald_scene::mesh::unit_cube;
    use std::sync::Arc;

    fn draw_cube(mem: &SharedMem) -> DrawCall {
        let mvp = Mat4::perspective(60f32.to_radians(), 1.0, 0.1, 50.0).mul_mat4(&Mat4::look_at(
            Vec3::new(1.6, 1.2, 1.8),
            Vec3::splat(0.0),
            Vec3::new(0.0, 1.0, 0.0),
        ));
        DrawCall {
            vb: VertexBuffer::upload(mem, &unit_cube()),
            topology: crate::state::Topology::Triangles,
            vs: shaders::vertex_transform(),
            fs: shaders::fragment_shader(FsOptions {
                textured: false,
                ..FsOptions::default()
            }),
            mvp: mvp.to_array(),
            depth_test: true,
            depth_write: true,
            blend: false,
            texture: None,
        }
    }

    #[test]
    fn reference_renders_nonempty_image() {
        let mem = SharedMem::with_capacity(1 << 22);
        let rt = RenderTarget::alloc(&mem, 64, 64);
        rt.clear(&mem, [0.0; 4], 1.0);
        let dc = draw_cube(&mem);
        render_reference(
            &mem,
            rt,
            &dc,
            FsOptions {
                textured: false,
                ..FsOptions::default()
            },
        );
        let img = rt.read_color(&mem);
        let lit = img.iter().filter(|&&p| p != 0).count();
        // The cube should cover a good chunk of a 64×64 screen.
        assert!(lit > 300, "only {lit} pixels lit");
        // Depth buffer updated where lit.
        let depths: usize = (0..64 * 64)
            .filter(|i| mem.read_f32(rt.depth_base + i * 4) < 1.0)
            .count();
        assert_eq!(depths, lit);
    }

    #[test]
    fn reference_is_deterministic() {
        let mem = SharedMem::with_capacity(1 << 22);
        let rt1 = RenderTarget::alloc(&mem, 48, 48);
        let rt2 = RenderTarget::alloc(&mem, 48, 48);
        for rt in [&rt1, &rt2] {
            rt.clear(&mem, [0.1, 0.1, 0.1, 1.0], 1.0);
        }
        let dc = draw_cube(&mem);
        let fso = FsOptions {
            textured: false,
            ..FsOptions::default()
        };
        render_reference(&mem, rt1, &dc, fso);
        render_reference(&mem, rt2, &dc, fso);
        assert_eq!(diff_pixels(&rt1.read_color(&mem), &rt2.read_color(&mem)), 0);
    }

    #[test]
    fn transform_vertex_matches_shader_semantics() {
        // Cross-check against the ISA vertex shader on one warp.
        use crate::ctx::GfxCtx;
        use crate::shaders::abi;
        use crate::state::OVB_STRIDE;
        use emerald_isa::{execute, Outcome, ThreadState};

        let mem = SharedMem::with_capacity(1 << 22);
        let dc = draw_cube(&mem);
        let ovb = mem.alloc(32 * OVB_STRIDE, 128);
        let params = shaders::vs_params(dc.vb.base, ovb, &dc.mvp);
        let rt = RenderTarget::alloc(&mem, 8, 8);
        let mut ctx = GfxCtx::new(mem.clone(), rt);
        let vs = shaders::vertex_transform();
        let mut threads: Vec<ThreadState> = (0..8)
            .map(|i| {
                let mut t = ThreadState::new();
                t.inputs[abi::INPUT_VTX_INDEX] = i;
                t.inputs[abi::INPUT_OVB_SLOT] = i;
                t
            })
            .collect();
        for pc in 0..vs.len() {
            let r = execute(&vs, pc, 0xff, &mut threads, &params, &mut ctx);
            if r.outcome == Outcome::Exit {
                break;
            }
        }
        for i in 0..8u32 {
            let hw = ovb + i as u64 * OVB_STRIDE;
            let sw = transform_vertex(&mem, &dc, i);
            assert_eq!(mem.read_f32(hw), sw.pos.x, "x of vtx {i}");
            assert_eq!(mem.read_f32(hw + 4), sw.pos.y);
            assert_eq!(mem.read_f32(hw + 8), sw.pos.z);
            assert_eq!(mem.read_f32(hw + 12), sw.pos.w);
            assert_eq!(mem.read_f32(hw + 16), sw.attrs[0]);
            assert_eq!(mem.read_f32(hw + 20), sw.attrs[1]);
            assert_eq!(mem.read_f32(hw + 24), sw.attrs[2]);
        }
        let _ = Arc::strong_count(&dc.vs);
    }
}

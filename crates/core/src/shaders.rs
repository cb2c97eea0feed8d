//! Standard shader programs and the shader ABI.
//!
//! The original Emerald compiles GLSL→TGSI→PTX; here shaders are written
//! directly in the `emerald-isa` assembly. The pipeline contract:
//!
//! **Vertex shaders** receive `%input0` = vertex index and `%input1` = the
//! output-vertex-buffer (OVB) slot to write, and parameters
//! `%param0` = vertex buffer base, `%param1` = OVB base, `%param2..17` =
//! column-major MVP. They must write clip position + varyings
//! (u, v, diffuse) to their OVB slot (`crate::state::OVB_STRIDE` bytes).
//!
//! **Fragment shaders** receive `%input0/1` = pixel x/y, `%input2` = depth
//! and `%input3..5` = interpolated (u, v, diffuse), and are responsible
//! for in-shader raster operations (`ztest`, `blend`, `fbwrite`) — the
//! paper's programmable ROP design (§3.3.1 L-N).

use emerald_isa::{assemble_named, Program};
use std::sync::Arc;

/// Input slot assignments for the standard vertex shader.
pub mod abi {
    /// Vertex shader `%input0`: vertex index.
    pub(crate) const INPUT_VTX_INDEX: usize = 0;
    /// Vertex shader `%input1`: OVB slot index.
    pub(crate) const INPUT_OVB_SLOT: usize = 1;
}

/// Builds the uniform parameter vector for [`vertex_transform`].
pub(crate) fn vs_params(vb_base: u64, ovb_base: u64, mvp: &[f32; 16]) -> Vec<u32> {
    let mut p = vec![vb_base as u32, ovb_base as u32];
    p.extend(mvp.iter().map(|f| f.to_bits()));
    p
}

/// The standard vertex shader: fetches position/normal/uv, transforms by
/// the MVP, computes a clamped Lambertian diffuse term against a fixed
/// directional light, and writes clip position + varyings to the OVB.
pub fn vertex_transform() -> Arc<Program> {
    let src = "
        // Vertex record address = vb_base + index * 32.
        mov.b32 r0, %input0
        shl.u32 r1, r0, 5
        add.u32 r1, r1, %param0
        // Position.
        ld.vertex.b32 r2, [r1+0]
        ld.vertex.b32 r3, [r1+4]
        ld.vertex.b32 r4, [r1+8]
        // Normal.
        ld.vertex.b32 r5, [r1+12]
        ld.vertex.b32 r6, [r1+16]
        ld.vertex.b32 r7, [r1+20]
        // UV.
        ld.vertex.b32 r8, [r1+24]
        ld.vertex.b32 r9, [r1+28]
        // clip.x = m00 x + m10 y + m20 z + m30  (column-major params).
        mul.f32 r10, r2, %param2
        mad.f32 r10, r3, %param6, r10
        mad.f32 r10, r4, %param10, r10
        add.f32 r10, r10, %param14
        // clip.y
        mul.f32 r11, r2, %param3
        mad.f32 r11, r3, %param7, r11
        mad.f32 r11, r4, %param11, r11
        add.f32 r11, r11, %param15
        // clip.z
        mul.f32 r12, r2, %param4
        mad.f32 r12, r3, %param8, r12
        mad.f32 r12, r4, %param12, r12
        add.f32 r12, r12, %param16
        // clip.w
        mul.f32 r13, r2, %param5
        mad.f32 r13, r3, %param9, r13
        mad.f32 r13, r4, %param13, r13
        add.f32 r13, r13, %param17
        // diffuse = clamp(n · l, 0.2, 1.0), l = (0.37, 0.84, 0.40).
        mul.f32 r14, r5, 0.37
        mad.f32 r14, r6, 0.84, r14
        mad.f32 r14, r7, 0.40, r14
        max.f32 r14, r14, 0.2
        min.f32 r14, r14, 1.0
        // OVB slot address = ovb_base + slot * 32.
        mov.b32 r15, %input1
        shl.u32 r15, r15, 5
        add.u32 r15, r15, %param1
        st.global.b32 [r15+0], r10
        st.global.b32 [r15+4], r11
        st.global.b32 [r15+8], r12
        st.global.b32 [r15+12], r13
        st.global.b32 [r15+16], r8
        st.global.b32 [r15+20], r9
        st.global.b32 [r15+24], r14
        exit";
    Arc::new(assemble_named("vs_transform", src).expect("vertex shader assembles"))
}

/// Fragment shader feature selection (one compiled variant per draw state,
/// like a driver's shader-variant cache).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FsOptions {
    /// Sample texture 0 (otherwise a flat base color).
    pub textured: bool,
    /// Depth testing enabled.
    pub depth_test: bool,
    /// Depth writes enabled.
    pub depth_write: bool,
    /// Depth test runs before shading (paper stage L) instead of after
    /// (stage N).
    pub early_z: bool,
    /// Alpha-blend against the framebuffer.
    pub blend: bool,
    /// Override fragment alpha (used for translucent workloads).
    pub alpha: Option<f32>,
}

impl Default for FsOptions {
    fn default() -> Self {
        Self {
            textured: true,
            depth_test: true,
            depth_write: true,
            early_z: true,
            blend: false,
            alpha: None,
        }
    }
}

/// Builds a fragment shader variant per [`FsOptions`].
pub fn fragment_shader(opts: FsOptions) -> Arc<Program> {
    let mut src = String::from("mov.b32 r0, %input2\n"); // depth
    let ztest = |s: &mut String| {
        if opts.depth_test {
            if opts.depth_write {
                s.push_str("ztest.w r0\n");
            } else {
                s.push_str("ztest r0\n");
            }
        }
    };
    if opts.early_z {
        ztest(&mut src);
    }
    if opts.textured {
        src.push_str(
            "mov.b32 r1, %input3\n\
             mov.b32 r2, %input4\n\
             tex2d r4, [r1, r2], s0\n",
        );
    } else {
        src.push_str(
            "mov.b32 r4, 0.80\n\
             mov.b32 r5, 0.80\n\
             mov.b32 r6, 0.85\n\
             mov.b32 r7, 1.0\n",
        );
    }
    // Modulate rgb by the diffuse term.
    src.push_str(
        "mov.b32 r3, %input5\n\
         mul.f32 r4, r4, r3\n\
         mul.f32 r5, r5, r3\n\
         mul.f32 r6, r6, r3\n",
    );
    if let Some(a) = opts.alpha {
        src.push_str(&format!("mov.b32 r7, {a:?}\n"));
    }
    if !opts.early_z {
        ztest(&mut src);
    }
    if opts.blend {
        src.push_str("blend r4\n");
    }
    src.push_str("fbwrite r4\nexit");
    let name = format!(
        "fs_{}{}{}{}",
        if opts.textured { "tex" } else { "flat" },
        if opts.depth_test {
            if opts.early_z {
                "_ez"
            } else {
                "_lz"
            }
        } else {
            "_nz"
        },
        if opts.depth_write { "w" } else { "" },
        if opts.blend { "_blend" } else { "" },
    );
    Arc::new(assemble_named(&name, &src).expect("fragment shader assembles"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::GfxCtx;
    use crate::state::{RenderTarget, TextureDesc, VertexBuffer, OVB_STRIDE};
    use emerald_common::math::Mat4;
    use emerald_isa::reg::input;
    use emerald_isa::{execute, ExecCtx, Outcome, ThreadState};
    use emerald_mem::image::SharedMem;
    use emerald_scene::mesh::unit_cube;
    use emerald_scene::texture::TextureData;

    // The interpolated varyings, in the order the vertex shader writes them.
    const ATTR_U: usize = input::FRAG_ATTR0;
    const ATTR_V: usize = input::FRAG_ATTR0 + 1;
    const ATTR_DIFFUSE: usize = input::FRAG_ATTR0 + 2;

    /// Runs a straight-line (branch-free) program functionally.
    fn run_straightline(
        program: &Program,
        threads: &mut [ThreadState],
        params: &[u32],
        ctx: &mut dyn ExecCtx,
    ) {
        let mask = if threads.len() == 32 {
            u32::MAX
        } else {
            (1 << threads.len()) - 1
        };
        for pc in 0..program.len() {
            let r = execute(program, pc, mask, threads, params, ctx);
            match r.outcome {
                Outcome::Next => {}
                Outcome::Exit => return,
                o => panic!("unexpected outcome {o:?} in straight-line shader"),
            }
        }
    }

    #[test]
    fn vertex_shader_writes_ovb() {
        let mem = SharedMem::with_capacity(1 << 22);
        let cube = unit_cube();
        let vb = VertexBuffer::upload(&mem, &cube);
        let ovb = mem.alloc(64 * OVB_STRIDE, 128);
        let mvp = Mat4::translate(emerald_common::math::Vec3::new(1.0, 2.0, 3.0));
        let params = vs_params(vb.base, ovb, &mvp.to_array());
        let rt = RenderTarget::alloc(&mem, 8, 8);
        let mut ctx = GfxCtx::new(mem.clone(), rt);

        let vs = vertex_transform();
        let mut threads: Vec<ThreadState> = (0..4)
            .map(|i| {
                let mut t = ThreadState::new();
                t.inputs[abi::INPUT_VTX_INDEX] = i as u32;
                t.inputs[abi::INPUT_OVB_SLOT] = i as u32;
                t
            })
            .collect();
        run_straightline(&vs, &mut threads, &params, &mut ctx);

        for i in 0..4u64 {
            let slot = ovb + i * OVB_STRIDE;
            let p = cube.positions[i as usize];
            assert_eq!(mem.read_f32(slot), p.x + 1.0, "clip.x of vtx {i}");
            assert_eq!(mem.read_f32(slot + 4), p.y + 2.0);
            assert_eq!(mem.read_f32(slot + 8), p.z + 3.0);
            assert_eq!(mem.read_f32(slot + 12), 1.0, "w");
            assert_eq!(mem.read_f32(slot + 16), cube.uvs[i as usize].x, "u");
            assert_eq!(mem.read_f32(slot + 20), cube.uvs[i as usize].y, "v");
            let d = mem.read_f32(slot + 24);
            assert!((0.2..=1.0).contains(&d), "diffuse {d}");
        }
    }

    #[test]
    fn fragment_shader_early_z_kills_hidden() {
        let mem = SharedMem::with_capacity(1 << 22);
        let rt = RenderTarget::alloc(&mem, 8, 8);
        rt.clear(&mem, [0.0; 4], 0.4); // everything at depth ≥ 0.4 is hidden
        let mut ctx = GfxCtx::new(mem.clone(), rt);
        let fs = fragment_shader(FsOptions {
            textured: false,
            ..FsOptions::default()
        });
        // Two fragments: one in front (0.2) and one behind (0.6).
        let mut threads: Vec<ThreadState> = [(1u32, 0.2f32), (2, 0.6)]
            .iter()
            .map(|&(x, z)| {
                let mut t = ThreadState::new();
                t.inputs[input::FRAG_X] = x;
                t.inputs[input::FRAG_Y] = 1;
                t.set_input_f32(input::FRAG_Z, z);
                t.set_input_f32(ATTR_DIFFUSE, 1.0);
                t
            })
            .collect();
        // Step manually, honoring kills.
        let mut mask = 0b11u32;
        for pc in 0..fs.len() {
            let r = execute(&fs, pc, mask, &mut threads, &[], &mut ctx);
            mask &= !r.killed;
            if r.outcome == Outcome::Exit {
                break;
            }
        }
        assert_eq!(mask, 0b01, "far fragment killed by early-Z");
        // The surviving fragment wrote color and depth.
        assert_ne!(mem.read_u32(rt.color_addr(1, 1)), 0);
        assert_eq!(mem.read_f32(rt.depth_addr(1, 1)), 0.2);
        assert_eq!(mem.read_u32(rt.color_addr(2, 1)), 0);
        assert_eq!(mem.read_f32(rt.depth_addr(2, 1)), 0.4);
    }

    #[test]
    fn textured_fragment_modulates_diffuse() {
        let mem = SharedMem::with_capacity(1 << 22);
        let rt = RenderTarget::alloc(&mem, 8, 8);
        rt.clear(&mem, [0.0; 4], 1.0);
        let mut ctx = GfxCtx::new(mem.clone(), rt);
        let tex = TextureDesc::upload(&mem, &TextureData::from_fn(8, 8, |_, _| [1.0; 4]));
        ctx.bind_texture(0, Some(tex));
        let fs = fragment_shader(FsOptions::default());
        let mut t = ThreadState::new();
        t.inputs[input::FRAG_X] = 3;
        t.inputs[input::FRAG_Y] = 3;
        t.set_input_f32(input::FRAG_Z, 0.5);
        t.set_input_f32(ATTR_U, 0.5);
        t.set_input_f32(ATTR_V, 0.5);
        t.set_input_f32(ATTR_DIFFUSE, 0.5);
        let mut threads = vec![t];
        run_straightline(&fs, &mut threads, &[], &mut ctx);
        let px = mem.read_u32(rt.color_addr(3, 3));
        let c = emerald_common::math::unpack_rgba8(px);
        assert!((c[0] - 0.5).abs() < 0.02, "white tex × 0.5 diffuse");
    }

    #[test]
    fn blend_variant_accumulates() {
        let mem = SharedMem::with_capacity(1 << 22);
        let rt = RenderTarget::alloc(&mem, 8, 8);
        rt.clear(&mem, [0.0; 4], 1.0);
        let mut ctx = GfxCtx::new(mem.clone(), rt);
        let fs = fragment_shader(FsOptions {
            textured: false,
            depth_write: false,
            blend: true,
            alpha: Some(0.5),
            ..FsOptions::default()
        });
        let mk = || {
            let mut t = ThreadState::new();
            t.inputs[input::FRAG_X] = 2;
            t.inputs[input::FRAG_Y] = 2;
            t.set_input_f32(input::FRAG_Z, 0.5);
            t.set_input_f32(ATTR_DIFFUSE, 1.0);
            vec![t]
        };
        let mut threads = mk();
        run_straightline(&fs, &mut threads, &[], &mut ctx);
        let first = emerald_common::math::unpack_rgba8(mem.read_u32(rt.color_addr(2, 2)));
        let mut threads = mk();
        run_straightline(&fs, &mut threads, &[], &mut ctx);
        let second = emerald_common::math::unpack_rgba8(mem.read_u32(rt.color_addr(2, 2)));
        assert!(second[0] > first[0], "second translucent layer brightens");
        // Depth untouched (no write).
        assert_eq!(mem.read_f32(rt.depth_addr(2, 2)), 1.0);
    }

    #[test]
    fn variant_names_distinguish_options() {
        let a = fragment_shader(FsOptions::default());
        let b = fragment_shader(FsOptions {
            early_z: false,
            ..FsOptions::default()
        });
        let c = fragment_shader(FsOptions {
            depth_test: false,
            ..FsOptions::default()
        });
        assert_ne!(a.name(), b.name());
        assert_ne!(a.name(), c.name());
        assert!(a.name().contains("_ez"));
        assert!(b.name().contains("_lz"));
        assert!(c.name().contains("_nz"));
    }

    #[test]
    fn late_z_orders_ztest_after_texture() {
        let fs = fragment_shader(FsOptions {
            early_z: false,
            ..FsOptions::default()
        });
        let text = fs.to_string();
        let zpos = text.find("ztest").unwrap();
        let tpos = text.find("tex2d").unwrap();
        assert!(zpos > tpos, "late-Z must follow texturing");
        let fs = fragment_shader(FsOptions::default());
        let text = fs.to_string();
        assert!(text.find("ztest").unwrap() < text.find("tex2d").unwrap());
    }
}

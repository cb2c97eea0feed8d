//! End-to-end image validation: the hardware pipeline must produce
//! bit-identical images to the software reference renderer across
//! workloads and render states.

use emerald::core::reference::{diff_pixels, render_reference};
use emerald::core::session::SceneBinding;
use emerald::prelude::*;

const W: u32 = 64;
const H: u32 = 48;

fn setup(mem: &SharedMem) -> (GpuRenderer, SimpleMemPort, RenderTarget) {
    let rt = RenderTarget::alloc(mem, W, H);
    rt.clear(mem, [0.0; 4], 1.0);
    let r = GpuRenderer::new(
        GpuConfig::tiny(),
        GfxConfig::case_study_2(),
        mem.clone(),
        rt,
    );
    let port = SimpleMemPort::new(MemorySystem::new(MemorySystemConfig::baseline(
        2,
        DramConfig::lpddr3_1600(),
    )));
    (r, port, rt)
}

fn check_workload(index: usize, from_w: bool) {
    let mem = SharedMem::with_capacity(1 << 26);
    let (mut r, mut port, rt) = setup(&mem);
    let wl = if from_w {
        emerald::scene::workloads::w_models().swap_remove(index)
    } else {
        emerald::scene::workloads::m_models().swap_remove(index)
    };
    let binding = SceneBinding::new(&mem, &wl);
    let dc = binding.draw_for_frame(2, W as f32 / H as f32, false);

    let ref_rt = RenderTarget::alloc(&mem, W, H);
    ref_rt.clear(&mem, [0.0; 4], 1.0);
    render_reference(&mem, ref_rt, &dc, binding.fs_options(false));

    r.draw(dc);
    let stats = r.run_frame(&mut port, 100_000_000);
    assert!(stats.fragments > 50, "{}: too few fragments", wl.id);
    assert_eq!(
        diff_pixels(&rt.read_color(&mem), &ref_rt.read_color(&mem)),
        0,
        "{}: hardware image differs from reference",
        wl.id
    );
}

#[test]
fn w2_spot_matches_reference() {
    check_workload(1, true);
}

#[test]
fn w3_cube_matches_reference() {
    check_workload(2, true);
}

#[test]
fn w5_translucent_matches_reference() {
    check_workload(4, true);
}

#[test]
fn m3_mask_matches_reference() {
    check_workload(2, false);
}

#[test]
fn m4_triangles_matches_reference() {
    check_workload(3, false);
}

#[test]
fn wt_size_does_not_change_the_image() {
    let mem = SharedMem::with_capacity(1 << 26);
    let (mut r, mut port, rt) = setup(&mem);
    let wl = emerald::scene::workloads::w_models().swap_remove(2);
    let binding = SceneBinding::new(&mem, &wl);
    let mut images = Vec::new();
    for wt in [1u32, 3, 7] {
        rt.clear(&mem, [0.0; 4], 1.0);
        r.set_wt(wt);
        r.draw(binding.draw_for_frame(1, W as f32 / H as f32, false));
        r.run_frame(&mut port, 100_000_000);
        images.push(rt.read_color(&mem));
    }
    assert_eq!(diff_pixels(&images[0], &images[1]), 0);
    assert_eq!(diff_pixels(&images[0], &images[2]), 0);
}

#[test]
fn late_z_image_equals_early_z() {
    let mem = SharedMem::with_capacity(1 << 26);
    let (mut r, mut port, rt) = setup(&mem);
    let wl = emerald::scene::workloads::w_models().swap_remove(3);
    let binding = SceneBinding::new(&mem, &wl);
    let mut images = Vec::new();
    for late in [false, true] {
        rt.clear(&mem, [0.0; 4], 1.0);
        r.draw(binding.draw_for_frame(0, W as f32 / H as f32, late));
        r.run_frame(&mut port, 100_000_000);
        images.push(rt.read_color(&mem));
    }
    assert_eq!(diff_pixels(&images[0], &images[1]), 0);
}

/// A draw call with no vertices is legal and retires at once, whether it
/// follows a draw in the same frame or opens a frame of its own — with
/// nothing to shade, no warp retires to wake the pipeline, so it rests on
/// the draw's own start. The image is the other draw's alone.
#[test]
fn an_empty_draw_retires() {
    let mem = SharedMem::with_capacity(1 << 26);
    let (mut r, mut port, rt) = setup(&mem);
    let wl = emerald::scene::workloads::w_models().swap_remove(2);
    let binding = SceneBinding::new(&mem, &wl);
    let cube = binding.draw_for_frame(0, W as f32 / H as f32, false);
    let empty = DrawCall {
        vb: VertexBuffer::upload(&mem, &Mesh::default()),
        ..cube.clone()
    };
    assert_eq!(empty.prim_count(), 0);
    let ref_rt = RenderTarget::alloc(&mem, W, H);
    ref_rt.clear(&mem, [0.0; 4], 1.0);
    render_reference(&mem, ref_rt, &cube, binding.fs_options(false));

    r.draw(cube);
    r.draw(empty.clone());
    r.run_frame(&mut port, 100_000_000);
    assert_eq!(r.draw_times().len(), 2);
    assert_eq!(
        diff_pixels(&rt.read_color(&mem), &ref_rt.read_color(&mem)),
        0
    );
    r.draw(empty);
    let stats = r.run_frame(&mut port, 100_000_000);
    assert_eq!((r.draw_times().len(), stats.fragments), (1, 0));
}

//! GPGPU-mode integration: compute kernels on the unified SIMT model,
//! checked against host references.

use emerald::gpu::GlobalMemCtx;
use emerald::prelude::*;
use std::sync::Arc;

fn setup() -> (Gpu, GlobalMemCtx, SimpleMemPort, SharedMem) {
    let mem = SharedMem::with_capacity(1 << 24);
    (
        Gpu::new(GpuConfig::tiny()),
        GlobalMemCtx::new(mem.clone()),
        SimpleMemPort::new(MemorySystem::new(MemorySystemConfig::baseline(
            2,
            DramConfig::lpddr3_1600(),
        ))),
        mem,
    )
}

#[test]
fn vector_scale_with_divergent_clamp() {
    let (mut gpu, mut ctx, mut port, mem) = setup();
    let n = 256usize;
    let buf = mem.alloc((n * 4) as u64, 128);
    for i in 0..n {
        mem.write_f32(buf + (i * 4) as u64, i as f32 - 128.0);
    }
    // out[i] = max(x, 0) * 2 via a divergent branch.
    let src = "
        mov.b32 r0, %input0
        shl.u32 r1, r0, 2
        add.u32 r1, r1, %param0
        ld.global.b32 r2, [r1+0]
        setp.lt.f32 p0, r2, 0.0
        @p0 bra NEG, reconv=JOIN
        mul.f32 r3, r2, 2.0
        bra JOIN, reconv=JOIN
        NEG:
        mov.b32 r3, 0.0
        JOIN:
        st.global.b32 [r1+0], r3
        exit";
    let k = Kernel::linear(Arc::new(assemble(src).unwrap()), n, 64, vec![buf as u32]);
    gpu.launch_kernel(k);
    gpu.run_to_idle(0, 5_000_000, &mut ctx, &mut port);
    for i in 0..n {
        let x = i as f32 - 128.0;
        let want = if x < 0.0 { 0.0 } else { x * 2.0 };
        assert_eq!(mem.read_f32(buf + (i * 4) as u64), want, "elem {i}");
    }
}

#[test]
fn block_reduction_with_shared_memory_and_barriers() {
    let (mut gpu, mut ctx, mut port, mem) = setup();
    // Each 64-thread CTA reduces its elements into out[cta] via shared
    // memory and a barrier tree.
    let n = 256usize;
    let input = mem.alloc((n * 4) as u64, 128);
    let out = mem.alloc(64, 128);
    for i in 0..n {
        mem.write_u32(input + (i * 4) as u64, 1 + (i as u32 % 7));
    }
    let src = "
        mov.b32 r0, %input2        // tid in cta
        mov.b32 r1, %input0        // global id
        shl.u32 r2, r1, 2
        add.u32 r2, r2, %param0
        ld.global.b32 r3, [r2+0]
        // shared[tid] = x
        shl.u32 r4, r0, 2
        add.u32 r4, r4, %input3    // shared base
        st.shared.b32 [r4+0], r3
        bar.sync
        // tree reduction: strides 32,16,8,4,2,1
        mov.b32 r5, 32
        LOOP:
        setp.lt.u32 p0, r0, r5
        @p0 add.u32 r6, r0, r5
        @p0 shl.u32 r6, r6, 2
        @p0 add.u32 r6, r6, %input3
        @p0 ld.shared.b32 r7, [r6+0]
        @p0 ld.shared.b32 r8, [r4+0]
        @p0 add.u32 r8, r8, r7
        @p0 st.shared.b32 [r4+0], r8
        bar.sync
        shr.u32 r5, r5, 1
        setp.ge.u32 p1, r5, 1
        @p1 bra LOOP, reconv=DONE
        DONE:
        setp.eq.u32 p2, r0, 0
        @p2 mov.b32 r9, %input1    // cta id
        @p2 shl.u32 r9, r9, 2
        @p2 add.u32 r9, r9, %param1
        @p2 ld.shared.b32 r10, [r4+0]
        @p2 st.global.b32 [r9+0], r10
        exit";
    let mut k = Kernel::linear(
        Arc::new(assemble(src).unwrap()),
        n,
        64,
        vec![input as u32, out as u32],
    );
    k.shared_bytes = 64 * 4;
    gpu.launch_kernel(k);
    gpu.run_to_idle(0, 20_000_000, &mut ctx, &mut port);
    for cta in 0..4u64 {
        let want: u32 = (0..64u32).map(|t| 1 + ((cta as u32 * 64 + t) % 7)).sum();
        assert_eq!(mem.read_u32(out + cta * 4), want, "cta {cta}");
    }
}

#[test]
fn graphics_and_compute_share_the_same_cores() {
    // The unified-model claim, directly: run a compute kernel, then render
    // a frame, on the same GPU instance.
    let mem = SharedMem::with_capacity(1 << 26);
    let rt = RenderTarget::alloc(&mem, 48, 32);
    rt.clear(&mem, [0.0; 4], 1.0);
    let mut r = GpuRenderer::new(
        GpuConfig::tiny(),
        GfxConfig::case_study_2(),
        mem.clone(),
        rt,
    );
    let mut port = SimpleMemPort::new(MemorySystem::new(MemorySystemConfig::baseline(
        2,
        DramConfig::lpddr3_1600(),
    )));

    let buf = mem.alloc(1024, 128);
    let k = Kernel::linear(
        Arc::new(
            assemble(
                "mov.b32 r0, %input0\nshl.u32 r1, r0, 2\nadd.u32 r1, r1, %param0\nst.global.b32 [r1+0], r0\nexit",
            )
            .unwrap(),
        ),
        128,
        64,
        vec![buf as u32],
    );
    let kid = r.gpu.launch_kernel(k);
    // Drive the kernel through the renderer's clock via empty frames.
    let mut ctx_done = false;
    for _ in 0..3 {
        r.run_frame(&mut port, 10_000_000);
        if r.gpu.kernel_done(kid) {
            ctx_done = true;
            break;
        }
    }
    assert!(ctx_done, "kernel did not finish");
    assert_eq!(mem.read_u32(buf + 4 * 100), 100);

    // Now render on the same cores.
    let wl = emerald::scene::workloads::w_models().swap_remove(2);
    let binding = emerald::core::session::SceneBinding::new(&mem, &wl);
    r.draw(binding.draw_for_frame(0, 1.5, false));
    let stats = r.run_frame(&mut port, 50_000_000);
    assert!(stats.fragments > 50);
}

/// A compute kernel and a draw in flight together on one renderer, sized
/// so the kernel's one-warp CTAs hold warp slots for the whole draw:
/// fragment tiles wait on core room that a kernel warp retiring frees.
/// In debug builds the renderer's wake oracle audits every cycle, so a
/// compute retire that forgot to wake the fixed-function units panics
/// here. The draw is slower than on idle cores, yet the kernel's output
/// and the image are exact.
#[test]
fn a_draw_waits_on_core_room_held_by_a_kernel() {
    const W: u32 = 48;
    const H: u32 = 32;
    let render = |with_kernel: bool| {
        let mem = SharedMem::with_capacity(1 << 26);
        let rt = RenderTarget::alloc(&mem, W, H);
        rt.clear(&mem, [0.0; 4], 1.0);
        let mut r = GpuRenderer::new(
            GpuConfig::tiny(),
            GfxConfig::case_study_2(),
            mem.clone(),
            rt,
        );
        let mut port = SimpleMemPort::new(MemorySystem::new(MemorySystemConfig::baseline(
            2,
            DramConfig::lpddr3_1600(),
        )));
        // out[i] = 64 · in[i], one load per iteration.
        let n = 32 * 128;
        let buf = mem.alloc(n as u64 * 4, 128);
        for i in 0..n as u64 {
            mem.write_u32(buf + i * 4, i as u32);
        }
        let src = "
            mov.b32 r0, %input0
            shl.u32 r1, r0, 2
            add.u32 r1, r1, %param0
            mov.b32 r2, 0
            mov.b32 r3, 0
            LOOP:
            ld.global.b32 r4, [r1+0]
            add.u32 r2, r2, r4
            add.u32 r3, r3, 1
            setp.lt.u32 p0, r3, 64
            @p0 bra LOOP, reconv=DONE
            DONE:
            st.global.b32 [r1+0], r2
            exit";
        let kid = with_kernel.then(|| {
            let k = Kernel::linear(Arc::new(assemble(src).unwrap()), n, 32, vec![buf as u32]);
            r.gpu.launch_kernel(k)
        });
        let wl = emerald::scene::workloads::w_models().swap_remove(2);
        let binding = SceneBinding::new(&mem, &wl);
        let dc = binding.draw_for_frame(0, W as f32 / H as f32, false);
        let ref_rt = RenderTarget::alloc(&mem, W, H);
        ref_rt.clear(&mem, [0.0; 4], 1.0);
        emerald::core::reference::render_reference(&mem, ref_rt, &dc, binding.fs_options(false));
        r.draw(dc);
        let stats = r.run_frame(&mut port, 50_000_000);
        assert!(stats.fragments > 50);
        if let Some(kid) = kid {
            assert!(r.gpu.kernel_done(kid), "kernel did not finish");
            for i in 0..n as u64 {
                assert_eq!(mem.read_u32(buf + i * 4), 64 * i as u32, "elem {i}");
            }
        }
        assert_eq!(
            emerald::core::reference::diff_pixels(&rt.read_color(&mem), &ref_rt.read_color(&mem)),
            0,
            "image differs from the reference"
        );
        (r.draw_times()[0], stats.cycles)
    };
    let ((alone, _), (shared, frame)) = (render(false), render(true));
    assert!(
        frame > shared && shared > alone,
        "the kernel must outlive a draw it slows: frame {frame}, \
         draw {shared} cycles beside the kernel, {alone} alone"
    );
}

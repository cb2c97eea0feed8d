//! Checkpoint/restore demo: runs the idle-rich pacing scenario (the I1
//! cube behind the case-study-1 SoC), captures a snapshot at the first
//! commit boundary at or after a given absolute cycle, writes it to a
//! file, revives the file with `Soc::restore`, finishes the interrupted
//! frame, runs two more — and asserts the restored run lands on exactly
//! the cycle and framebuffer of the straight run it was captured from.
//!
//! Run with:
//! `cargo run --release --example checkpoint_restore -- [CYCLE] [FILE]`
//! (defaults: cycle 500000, `soc_checkpoint.snap`).

use emerald::prelude::*;

const MAX_CYCLES: Cycle = 500_000_000;
/// Give up when no commit boundary shows up within this many frames.
const MAX_FRAMES: u32 = 64;

fn die(msg: impl std::fmt::Display) -> ! {
    eprintln!("checkpoint_restore: {msg}");
    std::process::exit(1)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let at: Cycle = match args.next() {
        None => 500_000,
        Some(a) => a
            .parse()
            .unwrap_or_else(|_| die(format_args!("CYCLE wants a cycle number, got {a:?}"))),
    };
    let path = args
        .next()
        .unwrap_or_else(|| "soc_checkpoint.snap".to_string());

    let (w, h) = (64u32, 48u32);
    let mut soc = Soc::new(SocConfig::case_study_1(
        MemCfgKind::Dcb.build(DramConfig::lpddr3_1333()),
        w,
        h,
        200_000,
    ));
    // The uploads are deterministic, so the binding's descriptors are just
    // as valid in the memory image the snapshot carries.
    let binding = SceneBinding::new(&soc.mem, &emerald::scene::workloads::idle_model());
    let draws = |f: u64| vec![binding.draw_for_frame(f as u32, w as f32 / h as f32, false)];

    // Straight run: frames until the capture point, then two more.
    let bytes = (0..MAX_FRAMES)
        .find_map(|_| {
            let f = soc.frames_rendered();
            let (_, snap) = soc.run_frame_checkpoint(draws(f), MAX_CYCLES, Some(at));
            // No boundary inside the frame but `at` has passed: the
            // inter-frame barrier is the first one at or after it.
            snap.or_else(|| (soc.now() >= at).then(|| soc.checkpoint()))
        })
        .unwrap_or_else(|| {
            die(format_args!(
                "no commit boundary at or after cycle {at} within {MAX_FRAMES} frames"
            ))
        });
    std::fs::write(&path, &bytes).unwrap_or_else(|e| die(format_args!("cannot write {path}: {e}")));
    for _ in 0..2 {
        soc.run_frame(draws(soc.frames_rendered()), MAX_CYCLES);
    }

    // Restored run, from the file.
    let bytes =
        std::fs::read(&path).unwrap_or_else(|e| die(format_args!("cannot read {path}: {e}")));
    let mut warm = Soc::restore(&bytes, soc.config())
        .unwrap_or_else(|e| die(format_args!("restore rejected {path}: {e}")));
    println!(
        "checkpoint at cycle {} (requested {at}, {} frame {}): {} bytes -> {path}",
        warm.now(),
        if warm.has_pending_frame() {
            "inside"
        } else {
            "before"
        },
        warm.frames_rendered(),
        bytes.len()
    );
    if warm.has_pending_frame() {
        warm.resume_frame(draws(warm.frames_rendered()), MAX_CYCLES);
    }
    for _ in 0..2 {
        warm.run_frame(draws(warm.frames_rendered()), MAX_CYCLES);
    }

    assert_eq!(
        (warm.frames_rendered(), warm.now()),
        (soc.frames_rendered(), soc.now()),
        "restored run diverged from the straight run"
    );
    assert_eq!(
        warm.rt.read_color(&warm.mem),
        soc.rt.read_color(&soc.mem),
        "restored run's framebuffer diverged from the straight run"
    );
    println!(
        "restored run matches the straight run: {} frames, final cycle {}",
        warm.frames_rendered(),
        warm.now()
    );
}

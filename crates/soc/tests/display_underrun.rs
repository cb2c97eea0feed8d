//! The display controller's underrun → frame-abort-and-retry path (the
//! behaviour behind Fig. 14 ⑥): a starved scanout must abort mid-frame,
//! go quiet until the next refresh boundary, restart from the top of the
//! framebuffer, and recover cleanly once memory keeps up — with every
//! transition visible in [`DisplayStats`].

use emerald_soc::display::DisplayController;

const FB_BASE: u64 = 0x10_0000;
const FB_BYTES: u64 = 64 << 10;
const PERIOD: u64 = 10_000;

/// Starve memory until the controller underruns, then answer instantly:
/// the aborted frame must retry at the period boundary and complete.
#[test]
fn underrun_aborts_then_retries_and_completes() {
    let mut d = DisplayController::new(FB_BASE, FB_BYTES, PERIOD);

    // Phase 1 (one full period): requests leave but memory never answers.
    // The beam outruns the 16 KiB FIFO mid-frame → underrun abort.
    let mut first_abort_at = None;
    for now in 0..PERIOD {
        d.tick(now);
        d.drain_requests();
        if first_abort_at.is_none() && d.stats().frames_aborted > 0 {
            first_abort_at = Some(now);
        }
    }
    let first_abort_at = first_abort_at.expect("starved display must underrun");
    assert!(
        first_abort_at < PERIOD,
        "underrun is detected mid-frame, not at the boundary"
    );
    let s = d.stats();
    assert_eq!(s.frames_completed, 0);
    assert_eq!(s.frames_aborted, 1, "exactly one abort for one dead frame");
    assert_eq!(s.serviced_bytes, 0);

    // Between the abort and the boundary the controller stays quiet.
    let quiet_reqs = s.requests;
    for now in first_abort_at + 1..PERIOD {
        d.tick(now);
        assert!(
            d.drain_requests().is_empty(),
            "no fetches while waiting out the aborted frame (cycle {now})"
        );
    }
    assert_eq!(d.stats().requests, quiet_reqs);

    // Phase 2: the retry frame starts at the boundary and restarts the
    // scan from the framebuffer base.
    let mut first_retry_addr = None;
    for now in PERIOD..3 * PERIOD {
        d.tick(now);
        for r in d.drain_requests() {
            if first_retry_addr.is_none() {
                first_retry_addr = Some(r.addr);
            }
            d.on_response(r.bytes); // instant memory now
        }
    }
    assert_eq!(
        first_retry_addr,
        Some(FB_BASE),
        "retry rewinds to the top of the framebuffer"
    );
    let s = d.stats();
    assert!(
        s.frames_completed >= 1,
        "recovered frames complete ({} completed)",
        s.frames_completed
    );
    assert_eq!(
        s.frames_aborted, 1,
        "no further aborts once memory keeps up"
    );
    assert!(s.serviced_bytes >= FB_BYTES);
}

/// Progress feedback reflects the abort-and-retry cycle: during the quiet
/// window `done` stays at zero while `elapsed` keeps advancing — exactly
/// the signal that drives DASH's urgency promotion.
#[test]
fn progress_collapses_during_abort_window() {
    let mut d = DisplayController::new(FB_BASE, FB_BYTES, PERIOD);
    for now in 0..PERIOD - 1 {
        d.tick(now);
        d.drain_requests(); // starved
    }
    assert!(d.stats().frames_aborted >= 1);
    let (done, elapsed) = d.progress(PERIOD - 1);
    assert_eq!(done, 0.0);
    assert!(elapsed > 0.9);
}

/// The stats counters export through the observability registry under the
/// documented names.
#[test]
fn stats_publish_exports_all_counters() {
    let mut d = DisplayController::new(FB_BASE, FB_BYTES, PERIOD);
    // One starved frame (aborts), then two healthy periods.
    for now in 0..PERIOD {
        d.tick(now);
        d.drain_requests();
    }
    for now in PERIOD..3 * PERIOD {
        d.tick(now);
        for r in d.drain_requests() {
            d.on_response(r.bytes);
        }
    }
    let s = d.stats();
    let mut reg = emerald_obs::Registry::new();
    s.publish(&mut reg, "soc.display");

    let counter = |path: &str| {
        reg.get(path)
            .unwrap_or_else(|| panic!("missing counter {path}"))
            .scalar()
    };
    assert_eq!(
        counter("soc.display.frames_aborted"),
        s.frames_aborted as f64
    );
    assert_eq!(
        counter("soc.display.frames_completed"),
        s.frames_completed as f64
    );
    assert_eq!(
        counter("soc.display.serviced_bytes"),
        s.serviced_bytes as f64
    );
    assert_eq!(counter("soc.display.requests"), s.requests as f64);
    assert!(s.frames_aborted >= 1 && s.frames_completed >= 1);
}

//! The display controller: scanout DMA with deadline tracking.
//!
//! Reads the framebuffer once per refresh period at a uniform rate. If
//! memory falls too far behind the raster beam, the controller underruns,
//! *aborts the frame and retries* — exactly the behaviour the paper
//! observes under DASH in the high-load scenario (§5.2.2, Fig. 14 ⑥).

use emerald_common::snap::{SnapError, Walk};
use emerald_common::types::{AccessKind, Addr, Cycle, TrafficSource};
use emerald_mem::req::MemRequest;

/// Display statistics.
#[derive(Debug, Default, Clone, Copy)]
pub struct DisplayStats {
    /// Bytes serviced by memory.
    pub serviced_bytes: u64,
    /// Refresh frames fully scanned out.
    pub frames_completed: u64,
    /// Frames aborted due to underrun.
    pub frames_aborted: u64,
    /// Read requests issued.
    pub requests: u64,
}

impl DisplayStats {
    /// Publishes the counters into `reg` under `prefix` (e.g. `soc.display`).
    pub fn publish(&self, reg: &mut emerald_obs::Registry, prefix: &str) {
        reg.set_counter(format!("{prefix}.serviced_bytes"), self.serviced_bytes);
        reg.set_counter(format!("{prefix}.frames_completed"), self.frames_completed);
        reg.set_counter(format!("{prefix}.frames_aborted"), self.frames_aborted);
        reg.set_counter(format!("{prefix}.requests"), self.requests);
    }
}

/// The scanout engine.
#[derive(Debug)]
pub struct DisplayController {
    fb_base: Addr,
    fb_bytes: u64,
    period: Cycle,
    line_bytes: u64,
    /// Byte offset of the next fetch within the current frame.
    fetch_pos: u64,
    /// Bytes confirmed returned by memory this frame.
    returned: u64,
    frame_start: Cycle,
    /// How many bytes the beam may lead confirmed data before underrun.
    fifo_bytes: u64,
    /// Reads in flight (each response credits `returned`).
    inflight: u64,
    aborted_until: Option<Cycle>,
    stats: DisplayStats,
    out: Vec<MemRequest>,
}

impl DisplayController {
    /// Creates a controller scanning `fb_bytes` from `fb_base` every
    /// `period` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0` or `fb_bytes == 0`.
    pub fn new(fb_base: Addr, fb_bytes: u64, period: Cycle) -> Self {
        assert!(period > 0 && fb_bytes > 0);
        Self {
            fb_base,
            fb_bytes,
            period,
            line_bytes: 128,
            fetch_pos: 0,
            returned: 0,
            frame_start: 0,
            fifo_bytes: 16 << 10, // 16 KiB scanout FIFO
            inflight: 0,
            aborted_until: None,
            stats: DisplayStats::default(),
            out: Vec::new(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> DisplayStats {
        self.stats
    }

    /// Progress of the current refresh (for DASH deadline feedback):
    /// `(done_fraction, elapsed_fraction)`.
    pub fn progress(&self, now: Cycle) -> (f64, f64) {
        let elapsed = (now.saturating_sub(self.frame_start)) as f64 / self.period as f64;
        let done = self.returned as f64 / self.fb_bytes as f64;
        (done.min(1.0), elapsed.min(1.0))
    }

    /// Takes the requests generated so far (standalone drivers).
    pub fn drain_requests(&mut self) -> Vec<MemRequest> {
        std::mem::take(&mut self.out)
    }

    /// The output buffer, for the SoC to forward in place: whatever the
    /// memory system does not accept stays in it.
    pub(crate) fn requests_mut(&mut self) -> &mut Vec<MemRequest> {
        &mut self.out
    }

    /// True while the output buffer holds requests the memory system
    /// refused — they are retried whenever it ticks.
    pub(crate) fn holds_refused(&self) -> bool {
        !self.out.is_empty()
    }

    /// Credits a returned read.
    pub fn on_response(&mut self, bytes: u32) {
        self.inflight = self.inflight.saturating_sub(1);
        self.returned += bytes as u64;
        self.stats.serviced_bytes += bytes as u64;
    }

    /// Advances one cycle.
    pub fn tick(&mut self, now: Cycle) {
        // Waiting out an abort?
        if let Some(t) = self.aborted_until {
            if now < t {
                return;
            }
            self.aborted_until = None;
            self.start_frame(now);
        }
        let elapsed = now.saturating_sub(self.frame_start);
        if elapsed >= self.period {
            // Period over: did the whole frame scan out?
            if self.returned >= self.fb_bytes {
                self.stats.frames_completed += 1;
                emerald_obs::trace::instant(
                    emerald_obs::TraceCat::Display,
                    "scanout_complete",
                    0,
                    now,
                );
            } else {
                self.stats.frames_aborted += 1;
                emerald_obs::trace::instant_args(
                    emerald_obs::TraceCat::Display,
                    "frame_aborted",
                    0,
                    now,
                    &[("returned", self.returned), ("needed", self.fb_bytes)],
                );
            }
            self.start_frame(now);
            return;
        }
        // Uniform beam: bytes the panel has consumed so far.
        let beam = self.fb_bytes * elapsed / self.period;
        // Underrun: the beam overran even what memory has returned plus
        // the FIFO depth.
        if beam > self.returned + self.fifo_bytes && self.fetch_pos >= beam {
            self.stats.frames_aborted += 1;
            emerald_obs::trace::instant_args(
                emerald_obs::TraceCat::Display,
                "underrun",
                0,
                now,
                &[("beam", beam), ("returned", self.returned)],
            );
            // Abort and retry at the next period boundary.
            self.aborted_until = Some(self.frame_start + self.period);
            return;
        }
        // Prefetch up to a FIFO's worth ahead of the beam — but only when
        // the request FIFO has drained into the memory system (otherwise a
        // saturated DRAM would grow the backlog without bound).
        if !self.out.is_empty() {
            return;
        }
        while self.fetch_pos < self.fb_bytes && self.fetch_pos < beam + self.fifo_bytes {
            let addr = self.fb_base + self.fetch_pos;
            self.out.push(MemRequest {
                id: self.stats.requests,
                addr,
                bytes: self.line_bytes as u32,
                kind: AccessKind::Read,
                source: TrafficSource::Display,
                issued: now,
            });
            self.stats.requests += 1;
            self.inflight += 1;
            self.fetch_pos += self.line_bytes;
            if self.out.len() >= 4 {
                break; // issue-rate limit per cycle
            }
        }
    }

    fn start_frame(&mut self, now: Cycle) {
        self.frame_start = now;
        self.fetch_pos = 0;
        self.returned = 0;
        self.inflight = 0;
    }

    /// Walks the scanout beam state (fetch position, returned bytes, frame
    /// start, in-flight count, abort-retry point), statistics and any
    /// requests still waiting out memory-system backpressure. The geometry
    /// (`fb_base`/`fb_bytes`/`period`) is configuration and must match the
    /// restore target.
    pub fn walk(&mut self, w: &mut impl Walk) -> Result<(), SnapError> {
        const GEOMETRY: &str = "display scanout geometry mismatch";
        w.expect(self.fb_base, GEOMETRY)?;
        w.expect(self.fb_bytes, GEOMETRY)?;
        w.expect(self.period, GEOMETRY)?;
        w.u64(&mut self.fetch_pos)?;
        w.u64(&mut self.returned)?;
        w.u64(&mut self.frame_start)?;
        w.u64(&mut self.inflight)?;
        w.opt(&mut self.aborted_until, |w, t| w.u64(t))?;
        w.seq(&mut self.out, 30, |w, q| q.walk(w))?;
        let s = &mut self.stats;
        for n in [
            &mut s.serviced_bytes,
            &mut s.frames_completed,
            &mut s.frames_aborted,
            &mut s.requests,
        ] {
            w.u64(n)?;
        }
        Ok(())
    }
}

impl emerald_common::event::NextEvent for DisplayController {
    /// Everything the controller does of its own accord follows from the
    /// uniform-beam equation `beam = fb_bytes * elapsed / period`, so each
    /// has a closed form: (a) the abort-retry point; (b) the period
    /// boundary; (c) with the request FIFO drained, the beam advancing far
    /// enough to unlock the next prefetch; (d) the beam overrunning what
    /// memory has returned plus the FIFO depth while fetches are at or
    /// ahead of it — the underrun. Reads in flight and requests the memory
    /// system has yet to accept are not events of the controller's:
    /// responses and acceptance are inputs ([`DisplayController::tick`]
    /// changes nothing while it waits for either).
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if let Some(t) = self.aborted_until {
            return Some(t.max(now + 1));
        }
        // In 128 bits: a calibration run's period is a placeholder near
        // `Cycle::MAX`, and these look further ahead than `tick` does.
        let (fb, period) = (self.fb_bytes as u128, self.period as u128);
        let narrow = |v: u128| u64::try_from(v).unwrap_or(u64::MAX);
        let beam_at = |elapsed: Cycle| narrow(fb * elapsed as u128 / period);
        // Smallest `elapsed` with `beam_at(elapsed) >= bytes`.
        let reaches = |bytes: u64| narrow((bytes as u128 * period).div_ceil(fb));
        let mut ev = self.period;
        if self.out.is_empty() && self.fetch_pos < self.fb_bytes {
            // Prefetch unlocks when `fetch_pos < beam + fifo_bytes`.
            ev = ev.min(reaches(
                (self.fetch_pos + 1).saturating_sub(self.fifo_bytes),
            ));
        }
        // Underrun needs `returned + fifo_bytes < beam <= fetch_pos`: the
        // first cycle past the lower bound decides, later ones only move
        // the beam further past `fetch_pos`.
        let elapsed = now.saturating_sub(self.frame_start);
        let under = reaches(self.returned + self.fifo_bytes + 1).max(elapsed + 1);
        if beam_at(under) <= self.fetch_pos {
            ev = ev.min(under);
        }
        Some(self.frame_start.saturating_add(ev).max(now + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completes_frames_with_fast_memory() {
        let mut d = DisplayController::new(0x1000, 64 << 10, 10_000);
        for now in 0..50_000 {
            d.tick(now);
            for r in d.drain_requests() {
                d.on_response(r.bytes); // instant memory
            }
        }
        let s = d.stats();
        assert!(s.frames_completed >= 4, "completed {}", s.frames_completed);
        assert_eq!(s.frames_aborted, 0);
        assert!(s.serviced_bytes >= 4 * (64 << 10));
    }

    #[test]
    fn starved_display_aborts_frames() {
        let mut d = DisplayController::new(0x1000, 64 << 10, 10_000);
        for now in 0..50_000 {
            d.tick(now);
            d.drain_requests(); // never answered
        }
        let s = d.stats();
        assert_eq!(s.frames_completed, 0);
        assert!(s.frames_aborted >= 4, "aborted {}", s.frames_aborted);
    }

    #[test]
    fn requests_cover_whole_framebuffer() {
        let fb = 16 << 10;
        let mut d = DisplayController::new(0x0, fb, 4_000);
        let mut addrs = std::collections::HashSet::new();
        for now in 0..4_000 {
            d.tick(now);
            for r in d.drain_requests() {
                addrs.insert(r.addr);
                d.on_response(r.bytes);
            }
        }
        assert_eq!(addrs.len() as u64, fb / 128);
    }

    #[test]
    fn next_event_wakes_exactly_at_next_action() {
        use emerald_common::event::NextEvent;
        let mut d = DisplayController::new(0x1000, 64 << 10, 10_000);
        let mut now = 0;
        let mut exact_wakes = 0;
        while now < 25_000 {
            d.tick(now);
            for r in d.drain_requests() {
                d.on_response(r.bytes); // instant memory
            }
            let before = d.stats();
            let t = NextEvent::next_event(&d, now).unwrap();
            assert!(t > now);
            if t > now + 1 {
                // The announced gap is dead...
                for c in now + 1..t {
                    d.tick(c);
                    assert!(
                        d.drain_requests().is_empty(),
                        "issued at {c} before announced wake {t}"
                    );
                }
                // ...and the wake cycle itself performs a visible action
                // (a prefetch batch or a period rollover) — the closed
                // form is exact, not merely conservative.
                d.tick(t);
                let reqs = d.drain_requests();
                let after = d.stats();
                assert!(
                    !reqs.is_empty()
                        || after.frames_completed != before.frames_completed
                        || after.frames_aborted != before.frames_aborted,
                    "wake at {t} was a no-op"
                );
                for r in &reqs {
                    d.on_response(r.bytes);
                }
                exact_wakes += 1;
                now = t + 1;
            } else {
                now += 1;
            }
        }
        assert!(exact_wakes > 10, "only {exact_wakes} exact wakes observed");
        assert_eq!(d.stats().frames_aborted, 0);
    }

    #[test]
    fn progress_tracks_beam_and_data() {
        let mut d = DisplayController::new(0x0, 64 << 10, 10_000);
        for now in 0..5_000 {
            d.tick(now);
            for r in d.drain_requests() {
                d.on_response(r.bytes);
            }
        }
        let (done, elapsed) = d.progress(5_000);
        assert!((0.49..=0.51).contains(&elapsed));
        assert!(done >= 0.45, "done {done}");
    }
}

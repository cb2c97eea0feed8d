//! Windowed time-series sampling.
//!
//! [`Timeline`] accumulates an integer quantity (bytes, events, cycles)
//! into fixed-width cycle windows and keeps one `(window_start, amount)`
//! sample per window — the shape of the paper's bandwidth-vs-time figures
//! (Figs. 10, 14).

use emerald_common::snap::{SnapError, Walk};
use emerald_common::types::Cycle;

/// Accumulates an integer quantity into fixed-width cycle windows.
#[derive(Debug, Clone)]
pub struct Timeline {
    window: Cycle,
    cur_window: Cycle,
    cur_amount: u64,
    total: u64,
    samples: Vec<(Cycle, u64)>,
}

impl Timeline {
    /// Creates a timeline aggregating over `window`-cycle windows.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(window: Cycle) -> Self {
        assert!(window > 0, "window must be positive");
        Self {
            window,
            cur_window: 0,
            cur_amount: 0,
            total: 0,
            samples: Vec::new(),
        }
    }

    /// Records `amount` at `cycle`. Cycles must be non-decreasing; crossing
    /// a window boundary closes the previous windows (empty ones included,
    /// so the series has no gaps).
    pub fn record(&mut self, cycle: Cycle, amount: u64) {
        let w = cycle / self.window;
        while w > self.cur_window {
            self.samples
                .push((self.cur_window * self.window, self.cur_amount));
            self.cur_amount = 0;
            self.cur_window += 1;
        }
        self.cur_amount += amount;
        self.total += amount;
    }

    /// Completed-window samples so far (excludes the open window).
    pub fn samples(&self) -> &[(Cycle, u64)] {
        &self.samples
    }

    /// Sum of all recorded amounts.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Walks the full timeline state (including the open window) for a
    /// snapshot. A reader refuses a zero window.
    pub fn walk(&mut self, w: &mut impl Walk) -> Result<(), SnapError> {
        w.u64(&mut self.window)?;
        w.check(self.window > 0, "timeline window")?;
        w.u64(&mut self.cur_window)?;
        w.u64(&mut self.cur_amount)?;
        w.u64(&mut self.total)?;
        w.seq(&mut self.samples, 16, |w, (c, a)| {
            w.u64(c)?;
            w.u64(a)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_closes_every_window_including_empty_ones() {
        let mut t = Timeline::new(100);
        t.record(10, 64);
        t.record(50, 64);
        t.record(150, 128);
        t.record(420, 32);
        assert_eq!(t.total(), 288);
        // The window at 400 is still open.
        assert_eq!(t.samples(), [(0, 128), (100, 128), (200, 0), (300, 0)]);
    }

    #[test]
    fn timeline_snapshot_round_trip_preserves_open_window() {
        let mut t = Timeline::new(100);
        t.record(10, 64);
        t.record(150, 128);
        t.record(160, 8);
        let enc = emerald_common::snap::encode(|w| t.walk(w));
        let mut r = emerald_common::snap::SnapReader::new(&enc);
        let mut t2 = Timeline::new(7);
        t2.walk(&mut r).unwrap();
        r.finish().unwrap();
        // Both must evolve identically after the restore point.
        t.record(420, 32);
        t2.record(420, 32);
        assert_eq!(t.total(), t2.total());
        assert_eq!(t.samples(), t2.samples());
    }
}

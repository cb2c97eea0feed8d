//! Windowed time-series sampling.
//!
//! [`Timeline`] accumulates an integer quantity (bytes, events, cycles)
//! into fixed-width cycle windows and keeps one `(window_start, amount)`
//! sample per window — the shape of the paper's bandwidth-vs-time figures
//! (Figs. 10, 14).

use emerald_common::snap::{SnapError, SnapReader, SnapWriter};
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

    /// Encodes the full timeline state (including the open window) for a
    /// snapshot.
    pub fn snap_write(&self, w: &mut SnapWriter) {
        w.put_u64(self.window);
        w.put_u64(self.cur_window);
        w.put_u64(self.cur_amount);
        w.put_u64(self.total);
        w.put_seq(self.samples.iter(), |w, &(c, a)| {
            w.put_u64(c);
            w.put_u64(a);
        });
    }

    /// Decodes a timeline written by [`Timeline::snap_write`].
    pub fn snap_read(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let window = r.get_u64()?;
        if window == 0 {
            return Err(SnapError::BadValue {
                what: "timeline window",
            });
        }
        Ok(Self {
            window,
            cur_window: r.get_u64()?,
            cur_amount: r.get_u64()?,
            total: r.get_u64()?,
            samples: r.get_seq(16, |r| Ok((r.get_u64()?, r.get_u64()?)))?,
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
        let mut w = SnapWriter::new();
        t.snap_write(&mut w);
        let enc = w.into_bytes();
        let mut r = SnapReader::new(&enc);
        let mut t2 = Timeline::snap_read(&mut r).unwrap();
        r.finish().unwrap();
        // Both must evolve identically after the restore point.
        t.record(420, 32);
        t2.record(420, 32);
        assert_eq!(t.total(), t2.total());
        assert_eq!(t.samples(), t2.samples());
    }
}

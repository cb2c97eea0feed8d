//! Fixed-latency, bounded-bandwidth links.
//!
//! The SoC "system network" and the GPU-internal connections are modeled as
//! point-to-point links with a transfer latency and a per-cycle issue limit
//! — the abstraction level of gem5's classic (non-Ruby) interconnect, which
//! the paper deliberately chooses for simulation speed (§2).

use emerald_common::snap::{SnapError, Walk};
use emerald_common::types::Cycle;
use std::collections::VecDeque;

/// A delay line carrying `T` with latency and bandwidth limits.
#[derive(Debug, Clone)]
pub struct Link<T> {
    latency: Cycle,
    per_cycle: usize,
    capacity: usize,
    in_flight: VecDeque<(Cycle, T)>,
    issued_at: Cycle,
    issued_count: usize,
    /// Total items ever accepted.
    pub accepted: u64,
    /// Pushes rejected due to bandwidth or capacity.
    pub rejected: u64,
}

impl<T> Link<T> {
    /// Creates a link with `latency` cycles of delay, at most `per_cycle`
    /// accepted items per cycle, and `capacity` items buffered in flight.
    ///
    /// # Panics
    ///
    /// Panics if `per_cycle == 0` or `capacity == 0`.
    pub fn new(latency: Cycle, per_cycle: usize, capacity: usize) -> Self {
        assert!(per_cycle > 0 && capacity > 0);
        Self {
            latency,
            per_cycle,
            capacity,
            in_flight: VecDeque::new(),
            issued_at: Cycle::MAX,
            issued_count: 0,
            accepted: 0,
            rejected: 0,
        }
    }

    /// Attempts to send `item` at `now`; fails (returning the item) when
    /// the per-cycle bandwidth or buffering capacity is exhausted.
    pub fn push(&mut self, now: Cycle, item: T) -> Result<(), T> {
        if self.issued_at != now {
            self.issued_at = now;
            self.issued_count = 0;
        }
        if self.issued_count >= self.per_cycle || self.in_flight.len() >= self.capacity {
            self.rejected += 1;
            return Err(item);
        }
        self.issued_count += 1;
        self.accepted += 1;
        self.in_flight.push_back((now + self.latency, item));
        Ok(())
    }

    /// Pops the next item whose delivery time has arrived.
    pub fn pop(&mut self, now: Cycle) -> Option<T> {
        if self.in_flight.front().is_some_and(|(t, _)| *t <= now) {
            self.in_flight.pop_front().map(|(_, v)| v)
        } else {
            None
        }
    }

    /// Delivery cycle of the oldest item in flight: the first cycle
    /// [`Link::pop`] returns it.
    pub fn next_arrival(&self) -> Option<Cycle> {
        self.in_flight.front().map(|(t, _)| *t)
    }

    /// Items currently in flight.
    pub fn len(&self) -> usize {
        self.in_flight.len()
    }

    /// True when nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.in_flight.is_empty()
    }

    /// Walks the link's counters. Checkpoints are taken at drained
    /// boundaries, so the payload queue is empty — only the issue window
    /// and accept/reject accounting carry across; a read drops any
    /// in-flight payload.
    ///
    /// # Panics
    ///
    /// Panics if items are still in flight at a write (a
    /// checkpoint-placement bug, not a data error).
    pub fn walk_drained(&mut self, w: &mut impl Walk) -> Result<(), SnapError> {
        assert!(
            w.reading() || self.in_flight.is_empty(),
            "link must be drained at a checkpoint"
        );
        w.u64(&mut self.issued_at)?;
        w.usize(&mut self.issued_count)?;
        w.u64(&mut self.accepted)?;
        w.u64(&mut self.rejected)?;
        self.in_flight.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_after_latency() {
        let mut l = Link::new(5, 1, 8);
        l.push(10, "x").unwrap();
        assert_eq!(l.next_arrival(), Some(15));
        assert_eq!(l.pop(14), None);
        assert_eq!(l.pop(15), Some("x"));
        assert_eq!(l.pop(16), None);
        assert_eq!(l.next_arrival(), None);
    }

    #[test]
    fn per_cycle_bandwidth_enforced() {
        let mut l = Link::new(1, 2, 8);
        assert!(l.push(0, 1).is_ok());
        assert!(l.push(0, 2).is_ok());
        assert_eq!(l.push(0, 3), Err(3));
        // Next cycle the budget resets.
        assert!(l.push(1, 3).is_ok());
        assert_eq!(l.rejected, 1);
        assert_eq!(l.accepted, 3);
    }

    #[test]
    fn capacity_enforced() {
        let mut l = Link::new(100, 10, 2);
        assert!(l.push(0, 1).is_ok());
        assert!(l.push(0, 2).is_ok());
        assert_eq!(l.push(1, 3), Err(3));
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn drained_snapshot_round_trips_counters() {
        let mut l = Link::new(5, 1, 8);
        l.push(10, 1u32).unwrap();
        assert_eq!(l.push(10, 2), Err(2));
        assert_eq!(l.pop(15), Some(1));
        let enc = emerald_common::snap::encode(|w| l.walk_drained(w));

        let mut fresh = Link::new(5, 1, 8);
        let mut r = emerald_common::snap::SnapReader::new(&enc);
        fresh.walk_drained(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(fresh.accepted, 1);
        assert_eq!(fresh.rejected, 1);
        // The restored link keeps enforcing bandwidth from the next cycle.
        assert!(fresh.push(16, 3).is_ok());
        assert_eq!(fresh.push(16, 4), Err(4));
    }

    #[test]
    fn fifo_delivery_order() {
        let mut l = Link::new(2, 4, 8);
        for i in 0..3 {
            l.push(0, i).unwrap();
        }
        assert_eq!(l.pop(2), Some(0));
        assert_eq!(l.pop(2), Some(1));
        assert_eq!(l.pop(2), Some(2));
        assert!(l.is_empty());
    }
}

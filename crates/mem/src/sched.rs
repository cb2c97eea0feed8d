//! DRAM scheduling: the scheduler trait and the FR-FCFS baseline.

use crate::mapping::DramLocation;
use crate::req::MemRequest;
use emerald_common::types::Cycle;
use std::fmt;

/// A request waiting in a channel's scheduling queue.
#[derive(Debug, Clone, Copy)]
pub struct QueuedReq {
    /// The request itself.
    pub req: MemRequest,
    /// Its decoded DRAM coordinates.
    pub loc: DramLocation,
    /// Cycle it entered this channel's queue.
    pub arrived: Cycle,
}

/// Snapshot of one bank's row-buffer state, given to schedulers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankState {
    /// Currently open row, if any.
    pub open_row: Option<u64>,
    /// Cycle at which the bank can accept a new command.
    pub ready_at: Cycle,
}

impl BankState {
    /// A closed, idle bank.
    pub(crate) fn idle() -> Self {
        Self {
            open_row: None,
            ready_at: 0,
        }
    }
}

/// Flat bank index for a location, given `banks_per_rank`.
pub(crate) fn bank_index(loc: &DramLocation, banks_per_rank: usize) -> usize {
    loc.rank * banks_per_rank + loc.bank
}

/// True when servicing `q` would have to open a row: its bank's row buffer
/// holds another row, or none.
pub(crate) fn row_miss(q: &QueuedReq, banks: &[BankState], banks_per_rank: usize) -> bool {
    banks[bank_index(&q.loc, banks_per_rank)].open_row != Some(q.loc.row)
}

/// A DRAM request scheduler.
///
/// Implementations see a channel's whole queue plus its bank states and
/// return the index of the request to issue this cycle. The memory system
/// owns one scheduler and lends it to each channel for the duration of
/// that channel's tick, so state that spans channels (DASH's clustering
/// and switching decisions) needs no sharing mechanism.
pub trait DramScheduler: fmt::Debug + Send {
    /// Picks the queue index to service next, or `None` to idle.
    fn pick(
        &mut self,
        queue: &[QueuedReq],
        banks: &[BankState],
        banks_per_rank: usize,
        now: Cycle,
    ) -> Option<usize>;

    /// Notification that `req` was serviced (`row_hit` tells whether it hit
    /// the open row). Default: ignored.
    fn on_service(&mut self, req: &MemRequest, row_hit: bool, now: Cycle) {
        let _ = (req, row_hit, now);
    }

    /// Housekeeping (quantum/window rollovers), called once per memory-
    /// system tick before any channel is ticked. Default: none.
    fn tick(&mut self, now: Cycle) {
        let _ = now;
    }

    /// Earliest cycle `> now` at which [`DramScheduler::tick`] does
    /// something even with empty queues (quantum/window rollovers), or
    /// `None` when ticking an idle system is a no-op. Part of the
    /// `emerald_common::event::NextEvent` contract: returning a cycle
    /// *later* than the true rollover would let the event-driven clock
    /// skip over it and diverge from the reference clocking. Default:
    /// no housekeeping, hence no events.
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let _ = now;
        None
    }
}

/// First-Ready, First-Come-First-Served: prefer the oldest row-buffer hit;
/// otherwise the oldest request. The baseline scheduler of Table 4.
#[derive(Debug, Default, Clone)]
pub struct FrFcfs;

impl DramScheduler for FrFcfs {
    /// The minimum of (row miss, `arrived`, queue index) in one pass.
    fn pick(
        &mut self,
        queue: &[QueuedReq],
        banks: &[BankState],
        banks_per_rank: usize,
        _now: Cycle,
    ) -> Option<usize> {
        // `min_by_key` keeps the first of equal keys: the lowest index.
        queue
            .iter()
            .enumerate()
            .min_by_key(|(_, q)| (row_miss(q, banks, banks_per_rank), q.arrived))
            .map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emerald_common::types::{AccessKind, TrafficSource};

    fn qr(id: u64, bank: usize, row: u64, arrived: Cycle) -> QueuedReq {
        QueuedReq {
            req: MemRequest {
                id,
                addr: 0,
                bytes: 128,
                kind: AccessKind::Read,
                source: TrafficSource::Gpu,
                issued: arrived,
            },
            loc: DramLocation {
                channel: 0,
                rank: 0,
                bank,
                row,
                col: 0,
            },
            arrived,
        }
    }

    #[test]
    fn prefers_row_hit_over_older_miss() {
        let mut banks = vec![BankState::idle(); 8];
        banks[2].open_row = Some(7);
        let queue = vec![qr(1, 0, 5, 0), qr(2, 2, 7, 10)];
        let mut s = FrFcfs;
        assert_eq!(s.pick(&queue, &banks, 8, 20), Some(1));
    }

    #[test]
    fn falls_back_to_oldest() {
        let banks = vec![BankState::idle(); 8];
        let queue = vec![qr(1, 0, 5, 3), qr(2, 1, 7, 1)];
        let mut s = FrFcfs;
        assert_eq!(s.pick(&queue, &banks, 8, 20), Some(1));
    }

    #[test]
    fn oldest_among_multiple_hits() {
        let mut banks = vec![BankState::idle(); 8];
        banks[0].open_row = Some(1);
        banks[1].open_row = Some(2);
        let queue = vec![qr(1, 0, 1, 9), qr(2, 1, 2, 4)];
        let mut s = FrFcfs;
        assert_eq!(s.pick(&queue, &banks, 8, 20), Some(1));
    }

    #[test]
    fn empty_queue_idles() {
        let banks = vec![BankState::idle(); 8];
        let mut s = FrFcfs;
        assert_eq!(s.pick(&[], &banks, 8, 0), None);
    }
}

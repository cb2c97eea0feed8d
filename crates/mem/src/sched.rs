//! DRAM scheduling: the scheduler trait and the FR-FCFS baseline.

use crate::req::MemRequest;
use emerald_common::types::{Cycle, TrafficSource};
use std::fmt;

/// A DRAM request scheduler.
///
/// A scheduler ranks traffic sources; the channel does the picking. Every
/// channel issues the queued request with the smallest (rank of its
/// source, row miss, `arrived`, queue index): FR-FCFS among the
/// best-ranked requests present. The memory system owns one scheduler and
/// lends it to each channel for the duration of that channel's tick, so
/// state that spans channels (DASH's clustering and switching decisions)
/// needs no sharing mechanism.
pub trait DramScheduler: fmt::Debug + Send {
    /// Service rank of requests from `source`, lower first; always below
    /// 2^63 (the channel packs it beside a row-miss bit). Default: one
    /// rank for everyone, which leaves plain FR-FCFS.
    fn rank(&self, source: TrafficSource) -> u64 {
        let _ = source;
        0
    }

    /// A number that changes whenever [`DramScheduler::rank`] may answer
    /// differently for some source. Channels keep each queued request's
    /// rank and re-rank only when this moves. Default: ranks never change.
    fn rank_epoch(&self) -> u64 {
        0
    }

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
/// otherwise the oldest request. The baseline scheduler of Table 4: every
/// source has the same rank.
#[derive(Debug, Default, Clone)]
pub struct FrFcfs;

impl DramScheduler for FrFcfs {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram::{BankState, DramChannel, QueuedReq};
    use crate::mapping::DramLocation;
    use emerald_common::types::AccessKind;

    fn pick(banks: Vec<BankState>, queue: Vec<QueuedReq>) -> Option<usize> {
        DramChannel::with_state(banks, queue).pick(&FrFcfs)
    }

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
        assert_eq!(pick(banks, queue), Some(1));
    }

    #[test]
    fn falls_back_to_oldest() {
        let banks = vec![BankState::idle(); 8];
        let queue = vec![qr(1, 0, 5, 3), qr(2, 1, 7, 1)];
        assert_eq!(pick(banks, queue), Some(1));
    }

    #[test]
    fn oldest_among_multiple_hits() {
        let mut banks = vec![BankState::idle(); 8];
        banks[0].open_row = Some(1);
        banks[1].open_row = Some(2);
        let queue = vec![qr(1, 0, 1, 9), qr(2, 1, 2, 4)];
        assert_eq!(pick(banks, queue), Some(1));
    }

    #[test]
    fn empty_queue_idles() {
        let banks = vec![BankState::idle(); 8];
        assert_eq!(pick(banks, Vec::new()), None);
    }
}

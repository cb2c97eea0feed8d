//! The discrete-event clocking contract.
//!
//! Emerald's reference clock ticks every component every cycle. That is
//! simple and obviously correct, but most SoC cycles are idle: the GPU is
//! quiescent between draws, DRAM accesses in service carry precomputed
//! completion cycles, the display DMA sleeps between beam-position
//! unlocks, and scripted CPUs poll a fence every few hundred cycles. The
//! [`NextEvent`] trait lets the top-level loop ask each component for the
//! earliest cycle at which its state can change *of its own accord*, and
//! jump straight to the minimum instead of grinding through no-op ticks.
//!
//! # The contract
//!
//! `next_event(now)` returns the earliest cycle `t > now` at which the
//! component's observable state may change **without any new external
//! input**, or `None` if the component is fully passive (it will never
//! change again unless something is pushed into it). The binding
//! invariant:
//!
//! > Ticking the component at every cycle in `(now, t)` with no new
//! > input changes nothing but time-linear counters, which the owner
//! > books.
//!
//! A blocked unit that retries every cycle counts its retries and an
//! active core counts its cycles; both grow by exactly the length of the
//! gap, so such a component offers a `skip(delta)` beside `next_event`
//! (`Gpu::skip` is the one in this tree) and whoever jumps the clock calls
//! it. For a component without such counters — the memory system, the
//! display — the gap is a bit-for-bit no-op, statistics included.
//!
//! A component that cannot cheaply prove a quiet stretch simply returns
//! `Some(now + 1)`, which disables skipping past it; that is always
//! correct. Reporting an *earlier* cycle than the true next event is
//! merely conservative (the loop wakes, ticks once, finds nothing, and
//! asks again). Reporting a *later* cycle is the only unsafe direction:
//! the loop would jump over a real state transition and silently diverge
//! from the reference clocking. The oracle harness in `tests/event_skip.rs`
//! and the conformance skip axis exist to catch exactly that.
//!
//! # The kernel
//!
//! Every top-level loop (the SoC clock, `Gpu::run_to_idle`, the renderer's
//! frame loop) advances time the same way: tick once, then ask
//! [`next_wake`] how far the clock may jump. `next_wake` is the only
//! min-pin search in the tree — callers hand it their components'
//! `next_event` answers, cheapest first, and it bails at the first one
//! that pins `now + 1`, so an unskippable cycle costs a few flag reads.
//! Whether a loop jumps at all is a per-instance gate
//! (`GpuConfig::event_skip`); with the gate off the loop is the per-cycle
//! reference clocking, which the lockstep oracles run as ground truth.

use crate::types::Cycle;

/// A component that can report the next cycle at which it has work.
///
/// See the [module documentation](self) for the precise contract and why
/// under-reporting pending work is the only unsafe direction.
pub trait NextEvent {
    /// Earliest cycle `> now` at which this component's state can change
    /// without new external input; `None` when it is fully passive.
    fn next_event(&self, now: Cycle) -> Option<Cycle>;
}

/// Folds two optional event times into the earlier one.
///
/// `None` means "no event" and loses to any concrete cycle:
///
/// ```
/// # use emerald_common::event::earliest;
/// assert_eq!(earliest(None, None), None);
/// assert_eq!(earliest(Some(5), None), Some(5));
/// assert_eq!(earliest(None, Some(7)), Some(7));
/// assert_eq!(earliest(Some(5), Some(7)), Some(5));
/// ```
pub fn earliest(a: Option<Cycle>, b: Option<Cycle>) -> Option<Cycle> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

/// The cycle a loop that last ticked `now` must tick next: the earliest
/// of `pins` (lazily evaluated `next_event` answers), clamped to
/// `now + 1 ..= cap`. `None` answers never pin, so a fully passive system
/// wakes at `cap` (a watchdog or an idle-stretch end).
///
/// Evaluation stops at the first answer that pins `now + 1`: order the
/// iterator cheapest-pin-first and a busy cycle never pays for the
/// expensive searches behind it.
///
/// ```
/// # use emerald_common::event::next_wake;
/// assert_eq!(next_wake(10, 500, [None, Some(40), Some(25)]), 25);
/// assert_eq!(next_wake(10, 20, [Some(40)]), 20);
/// assert_eq!(next_wake(10, 500, [None, None]), 500);
/// // A pin at `now + 1` ends the search; later answers are never asked.
/// let asked = std::cell::Cell::new(0);
/// let lazy = [Some(11), Some(99)].into_iter().inspect(|_| asked.set(asked.get() + 1));
/// assert_eq!(next_wake(10, 500, lazy), 11);
/// assert_eq!(asked.get(), 1);
/// ```
pub fn next_wake(now: Cycle, cap: Cycle, pins: impl IntoIterator<Item = Option<Cycle>>) -> Cycle {
    let pin = now + 1;
    let mut wake = cap.max(pin);
    for t in pins.into_iter().flatten() {
        wake = wake.min(t);
        if wake <= pin {
            return pin;
        }
    }
    wake
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn earliest_prefers_concrete_and_minimum() {
        assert_eq!(earliest(None, None), None);
        assert_eq!(earliest(Some(3), None), Some(3));
        assert_eq!(earliest(None, Some(3)), Some(3));
        assert_eq!(earliest(Some(9), Some(3)), Some(3));
        assert_eq!(earliest(Some(3), Some(9)), Some(3));
    }

    #[test]
    fn next_wake_clamps_to_pin_and_cap() {
        assert_eq!(next_wake(7, 100, []), 100);
        assert_eq!(next_wake(7, 100, [Some(8)]), 8);
        assert_eq!(next_wake(7, 100, [Some(300), None, Some(50)]), 50);
        // An answer at or before `now` violates the contract; the clock
        // still never moves backwards or stalls.
        assert_eq!(next_wake(7, 100, [Some(3)]), 8);
        // A cap at or before `now` (watchdog already due) still advances.
        assert_eq!(next_wake(7, 5, [None]), 8);
    }
}

//! The core's deferred events (register writebacks, memory-token
//! completions): a queue kept sorted by the cycle they fall due.
//!
//! Every event lands a small configured latency ahead of a clock that
//! only moves forward, so a new one usually belongs at the back — it is
//! appended — or a few entries short of it, and the due ones are a
//! prefix. The order is that of the
//! `BTreeMap<Cycle, Vec<T>>` this replaces — ascending due cycle,
//! insertion order within a cycle — and the storage is kept, so
//! scheduling and draining touch no allocator once the queue has seen its
//! peak.

use emerald_common::snap::{SnapError, Walk};
use emerald_common::types::Cycle;
use std::collections::{BTreeMap, VecDeque};

#[derive(Debug)]
pub(crate) struct Deferred<T> {
    queue: VecDeque<(Cycle, T)>,
}

impl<T: Copy> Deferred<T> {
    pub(crate) fn new() -> Self {
        Self {
            queue: VecDeque::new(),
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Cycle the earliest pending event falls due.
    pub(crate) fn next_due(&self) -> Option<Cycle> {
        self.queue.front().map(|e| e.0)
    }

    /// Schedules `item` for cycle `due`, behind everything already due
    /// then or earlier: appended when nothing pending falls due later,
    /// the common case, else inserted after the last entry due by `due`.
    pub(crate) fn push(&mut self, due: Cycle, item: T) {
        if self.queue.back().is_none_or(|e| e.0 <= due) {
            self.queue.push_back((due, item));
        } else {
            let at = self.queue.iter().rposition(|e| e.0 <= due);
            self.queue.insert(at.map_or(0, |i| i + 1), (due, item));
        }
    }

    /// Hands every event due at or before `now` to `f`, in order.
    pub(crate) fn drain(&mut self, now: Cycle, mut f: impl FnMut(T)) {
        while self.queue.front().is_some_and(|e| e.0 <= now) {
            let (_, item) = self.queue.pop_front().expect("front exists");
            f(item);
        }
    }

    /// Drops every event.
    pub(crate) fn clear(&mut self) {
        self.queue.clear();
    }

    /// The pending events as the ordered map this queue stands in for.
    fn ordered(&self) -> BTreeMap<Cycle, Vec<T>> {
        let mut out: BTreeMap<Cycle, Vec<T>> = BTreeMap::new();
        for &(due, item) in &self.queue {
            out.entry(due).or_default().push(item);
        }
        out
    }

    /// Walks the pending events in that map's encoding — a sequence of
    /// `(due, events)` groups — each event by `f`; a read reschedules what
    /// it decodes.
    pub(crate) fn walk<W: Walk>(
        &mut self,
        w: &mut W,
        elem_min: usize,
        mut f: impl FnMut(&mut W, &mut T) -> Result<(), SnapError>,
    ) -> Result<(), SnapError>
    where
        T: Default,
    {
        let mut groups: Vec<(Cycle, Vec<T>)> = self.ordered().into_iter().collect();
        w.seq(&mut groups, 9, |w, (due, items)| {
            w.u64(due)?;
            w.seq(items, elem_min, &mut f)
        })?;
        if w.reading() {
            self.clear();
            for (due, items) in groups {
                items.into_iter().for_each(|item| self.push(due, item));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emerald_common::check::check;

    /// Random pushes and drains against the `BTreeMap` the queue replaces:
    /// same drain order, same snapshot view, at every step — including
    /// events scheduled at or behind `now`, far ahead of it, and `now`
    /// jumping.
    #[test]
    fn matches_the_ordered_map_it_replaces() {
        check("deferred_vs_btreemap", |rng| {
            let mut q = Deferred::new();
            let mut map: BTreeMap<Cycle, Vec<u32>> = BTreeMap::new();
            let mut now = 0;
            for id in 0..rng.range(1, 80) as u32 {
                let arg = rng.below(12);
                let due = match rng.below(4) {
                    0 => {
                        now += if arg == 11 { 40 } else { arg / 3 };
                        let mut want = Vec::new();
                        while let Some(e) = map.first_entry() {
                            if *e.key() > now {
                                break;
                            }
                            want.extend(e.remove());
                        }
                        let mut got = Vec::new();
                        q.drain(now, |x| got.push(x));
                        assert_eq!(got, want, "drain({now})");
                        continue;
                    }
                    1 => now + arg % 6,
                    2 => now.saturating_sub(arg % 3),
                    _ => now + 5 + arg * 3,
                };
                q.push(due, id);
                map.entry(due).or_default().push(id);
                assert_eq!(q.ordered(), map);
                assert_eq!(q.is_empty(), map.is_empty());
            }
            q.clear();
            assert!(q.is_empty() && q.ordered().is_empty());
        });
    }
}

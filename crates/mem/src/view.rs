//! Deferred-write views over the functional image.
//!
//! The bulk-synchronous parallel core phase (see `emerald-gpu`) executes
//! every SIMT core against a *frozen* [`MemImage`] snapshot. Stores made
//! during the phase cannot touch the image directly — that would make the
//! result depend on thread scheduling — so each core writes into a private
//! [`StoreBuffer`] instead, and reads check that buffer first so a core
//! always sees its own writes. After the phase, buffers are drained into
//! the image in core-index order, which makes the merged result identical
//! no matter how cores were sharded across host threads.
//!
//! [`FuncMem`] abstracts "functional u32/f32 memory" so execution contexts
//! can be written once and run either directly against [`SharedMem`]
//! (sequential host code) or against an [`ImageView`] (parallel phase).

use crate::image::{MemImage, SharedMem};
use emerald_common::hash::FxHashMap;
use emerald_common::types::Addr;

/// Which backing store a deferred write targets. The GPU keeps its
/// shared-scratch space outside the memory image, so store buffers tag
/// every entry with the destination class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WClass {
    /// The global memory image ([`MemImage`]).
    Image,
    /// The GPU's shared-memory scratch space.
    Scratch,
}

/// Below this many buffered writes, read-your-own-writes lookups scan the
/// write log backwards (newest wins) instead of consulting a hash map.
/// Typical cycles buffer a handful of stores, where a short linear probe
/// beats any hashing; heavy cycles (fragment bursts) cross the threshold
/// once and use the map from then on.
const SMALL_SCAN: usize = 16;

/// A private write-combining buffer for one core's stores during a
/// parallel phase.
///
/// Writes are kept in program order (`writes`, replayed verbatim at
/// commit so later stores win exactly as they would have sequentially).
/// Read-your-own-writes lookups use a small-buffer backward linear scan;
/// once the log outgrows `SMALL_SCAN` (16) entries, a coalescing
/// [`FxHashMap`] takes over for O(1) lookup. Both the log and the map
/// keep their capacity across `drain` calls, so steady-state cycles never
/// reallocate.
#[derive(Debug, Default)]
pub struct StoreBuffer {
    writes: Vec<(WClass, Addr, u32)>,
    latest: FxHashMap<(WClass, Addr), u32>,
    /// Generic side channel for per-core functional counters gathered
    /// during the phase (e.g. z-test pass/fail tallies); merged by
    /// summation at commit, so the total is thread-count-invariant.
    pub aux: [u64; 8],
}

impl StoreBuffer {
    /// Records a deferred write.
    pub fn push(&mut self, class: WClass, addr: Addr, value: u32) {
        self.writes.push((class, addr, value));
        let n = self.writes.len();
        if n == SMALL_SCAN + 1 {
            // The log just outgrew the linear-scan fast path: build the
            // coalescing map from the whole log (later entries win).
            for &(c, a, v) in &self.writes {
                self.latest.insert((c, a), v);
            }
        } else if n > SMALL_SCAN + 1 {
            self.latest.insert((class, addr), value);
        }
    }

    /// Latest value this buffer holds for `addr` in `class`, if any.
    pub fn lookup(&self, class: WClass, addr: Addr) -> Option<u32> {
        if self.writes.len() <= SMALL_SCAN {
            return self
                .writes
                .iter()
                .rev()
                .find(|&&(c, a, _)| c == class && a == addr)
                .map(|&(_, _, v)| v);
        }
        self.latest.get(&(class, addr)).copied()
    }

    /// True when no writes are buffered.
    pub fn is_empty(&self) -> bool {
        self.writes.is_empty()
    }

    /// Drains every buffered write, in program order, into `f`.
    pub fn drain(&mut self, mut f: impl FnMut(WClass, Addr, u32)) {
        for (class, addr, value) in self.writes.drain(..) {
            f(class, addr, value);
        }
        self.latest.clear();
    }

    /// Takes and zeroes the aux counters.
    pub fn take_aux(&mut self) -> [u64; 8] {
        std::mem::take(&mut self.aux)
    }
}

/// Functional u32/f32 memory access, implemented by both the live
/// [`SharedMem`] handle and the frozen [`ImageView`].
pub trait FuncMem {
    /// Reads a little-endian `u32` (0 when out of range).
    fn read_u32(&mut self, addr: Addr) -> u32;
    /// Writes a little-endian `u32` (ignored when out of range).
    fn write_u32(&mut self, addr: Addr, value: u32);
    /// Reads an `f32` bit pattern.
    fn read_f32(&mut self, addr: Addr) -> f32 {
        f32::from_bits(self.read_u32(addr))
    }
    /// Writes an `f32` bit pattern.
    fn write_f32(&mut self, addr: Addr, value: f32) {
        self.write_u32(addr, value.to_bits());
    }
}

impl FuncMem for SharedMem {
    fn read_u32(&mut self, addr: Addr) -> u32 {
        SharedMem::read_u32(self, addr)
    }
    fn write_u32(&mut self, addr: Addr, value: u32) {
        SharedMem::write_u32(self, addr, value);
    }
}

/// One core's window onto the frozen image during a parallel phase:
/// reads see the snapshot overlaid with the core's own buffered writes;
/// writes go into the store buffer.
#[derive(Debug)]
pub struct ImageView<'a> {
    img: &'a MemImage,
    buf: &'a mut StoreBuffer,
}

impl<'a> ImageView<'a> {
    /// Builds a view over `img` with `buf` as the private store buffer.
    pub fn new(img: &'a MemImage, buf: &'a mut StoreBuffer) -> Self {
        Self { img, buf }
    }

    /// The underlying store buffer (e.g. to stash aux counters).
    pub fn buf_mut(&mut self) -> &mut StoreBuffer {
        self.buf
    }
}

impl FuncMem for ImageView<'_> {
    fn read_u32(&mut self, addr: Addr) -> u32 {
        match self.buf.lookup(WClass::Image, addr) {
            Some(v) => v,
            None => self.img.read_u32(addr),
        }
    }
    fn write_u32(&mut self, addr: Addr, value: u32) {
        self.buf.push(WClass::Image, addr, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_buffer_read_your_own_writes() {
        let img = MemImage::new(1024);
        let mut buf = StoreBuffer::default();
        let mut v = ImageView::new(&img, &mut buf);
        assert_eq!(v.read_u32(64), 0);
        v.write_u32(64, 7);
        v.write_u32(64, 9);
        assert_eq!(v.read_u32(64), 9, "reads must see own buffered writes");
        assert_eq!(
            buf.writes.len(),
            2,
            "program order is preserved, not coalesced"
        );
    }

    #[test]
    fn drain_replays_in_program_order() {
        let mut img = MemImage::new(1024);
        let mut buf = StoreBuffer::default();
        buf.push(WClass::Image, 8, 1);
        buf.push(WClass::Image, 8, 2);
        let mut scratch_hits = 0;
        buf.push(WClass::Scratch, 4, 5);
        buf.drain(|class, addr, value| match class {
            WClass::Image => img.write_u32(addr, value),
            WClass::Scratch => scratch_hits += 1,
        });
        assert_eq!(img.read_u32(8), 2, "later store wins");
        assert_eq!(scratch_hits, 1);
        assert!(buf.is_empty());
        assert_eq!(buf.lookup(WClass::Image, 8), None, "lookup cleared");
    }

    #[test]
    fn aux_counters_take_and_zero() {
        let mut buf = StoreBuffer::default();
        buf.aux[0] = 3;
        assert_eq!(buf.take_aux()[0], 3);
        assert_eq!(buf.aux[0], 0);
    }
}

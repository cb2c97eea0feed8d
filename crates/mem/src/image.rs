//! Functional backing store: the simulated physical memory contents.
//!
//! Emerald splits *functional* execution (what values memory holds) from
//! *timing* (when accesses complete). [`MemImage`] is the functional half:
//! a flat byte array with a bump allocator that the scene loader, shader
//! executor, display controller and CPU model all read and write directly,
//! while the timing half replays the same addresses through caches and DRAM.

use crate::zeroed::ZeroedBytes;
use emerald_common::snap::{SnapError, Walk};
use emerald_common::types::Addr;
use std::sync::{Arc, RwLock};

/// Simulated physical memory with a bump allocator.
#[derive(Debug, Clone)]
pub struct MemImage {
    /// Only the pages written so far are resident (see [`ZeroedBytes`]).
    data: ZeroedBytes,
    next: Addr,
}

impl MemImage {
    /// Creates an image of `capacity` bytes. Allocation starts at a small
    /// non-zero offset so that address 0 stays an obvious "null".
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            data: ZeroedBytes::new(capacity),
            next: 256,
        }
    }

    /// Allocates `size` bytes aligned to `align` (power of two); returns the
    /// base address.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two or the image is exhausted.
    fn alloc(&mut self, size: u64, align: u64) -> Addr {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let base = (self.next + align - 1) & !(align - 1);
        assert!(
            (base + size) as usize <= self.data.len(),
            "memory image exhausted: need {} more bytes",
            base + size - self.data.len() as u64
        );
        self.next = base + size;
        base
    }

    /// Reads a little-endian `u32`. Out-of-range reads return 0 (useful for
    /// speculative/masked lanes) — including a word that would run past
    /// the end of the address space.
    pub fn read_u32(&self, addr: Addr) -> u32 {
        let word = self.data.get(addr as usize..).and_then(<[u8]>::first_chunk);
        word.map_or(0, |w| u32::from_le_bytes(*w))
    }

    /// Writes a little-endian `u32`; out-of-range writes are ignored.
    pub fn write_u32(&mut self, addr: Addr, value: u32) {
        let word = self.data.get_mut(addr as usize..);
        if let Some(w) = word.and_then(<[u8]>::first_chunk_mut) {
            *w = value.to_le_bytes();
        }
    }

    /// Reads an `f32` stored by [`MemImage::write_f32`].
    pub fn read_f32(&self, addr: Addr) -> f32 {
        f32::from_bits(self.read_u32(addr))
    }

    /// Writes an `f32` as its bit pattern.
    pub fn write_f32(&mut self, addr: Addr, value: f32) {
        self.write_u32(addr, value.to_bits());
    }

    /// Borrows `len` bytes starting at `addr` (clipped to capacity).
    pub fn read_bytes(&self, addr: Addr, len: usize) -> &[u8] {
        let i = (addr as usize).min(self.data.len());
        let end = i.saturating_add(len).min(self.data.len());
        &self.data[i..end]
    }

    /// Walks the allocator cursor and the allocated byte range `[0, next)`.
    /// Bytes beyond `next` are never handed out by the bump allocator and
    /// stay zero in any run, so they are omitted; a read re-zeroes only
    /// the tail this image had already allocated past the snapshot's
    /// cursor — zeroing to capacity would touch every page of a
    /// multi-hundred-MiB image and dominate the restore.
    fn walk(&mut self, w: &mut impl Walk) -> Result<(), SnapError> {
        let capacity = self.data.len();
        w.expect(capacity, "memory image capacity mismatch")?;
        let mut next = self.next;
        w.u64(&mut next)?;
        w.check(
            next <= capacity as u64,
            "memory image allocator cursor beyond capacity",
        )?;
        w.expect(
            next as usize,
            "memory image byte count disagrees with cursor",
        )?;
        if let Some(stale) = self.data.get_mut(next as usize..self.next as usize) {
            stale.fill(0);
        }
        w.raw(&mut self.data[..next as usize])?;
        self.next = next;
        Ok(())
    }
}

/// Shared handle to a [`MemImage`], cloned by every component that needs
/// functional memory access.
///
/// One simulation runs on one thread; the lock (rather than a `RefCell`)
/// is there so that a simulation is `Send` and sweep sessions can run on
/// worker threads. The closure API below takes and releases the lock per
/// call — uncontended, that is a few nanoseconds — and the GPU takes it
/// once per cycle that has an active core (`emerald_gpu::ImageCtx`).
#[derive(Debug, Clone)]
pub struct SharedMem(Arc<RwLock<MemImage>>);

impl SharedMem {
    /// Wraps an image in a shared handle.
    fn new(image: MemImage) -> Self {
        Self(Arc::new(RwLock::new(image)))
    }

    /// Creates a shared image of `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::new(MemImage::new(capacity))
    }

    /// Runs `f` with immutable access to the image.
    pub fn read<R>(&self, f: impl FnOnce(&MemImage) -> R) -> R {
        f(&self.0.read().unwrap())
    }

    /// Runs `f` with mutable access to the image.
    pub fn write<R>(&self, f: impl FnOnce(&mut MemImage) -> R) -> R {
        f(&mut self.0.write().unwrap())
    }

    /// Convenience: allocates from the shared image.
    pub fn alloc(&self, size: u64, align: u64) -> Addr {
        self.write(|m| m.alloc(size, align))
    }

    /// Bytes handed out so far, alignment padding included: the
    /// allocator's cursor.
    pub fn allocated(&self) -> u64 {
        self.read(|m| m.next)
    }

    /// Convenience: reads a `u32`.
    pub fn read_u32(&self, addr: Addr) -> u32 {
        self.read(|m| m.read_u32(addr))
    }

    /// Convenience: writes a `u32`.
    pub fn write_u32(&self, addr: Addr, value: u32) {
        self.write(|m| m.write_u32(addr, value));
    }

    /// Convenience: reads an `f32`.
    pub fn read_f32(&self, addr: Addr) -> f32 {
        self.read(|m| m.read_f32(addr))
    }

    /// Convenience: writes an `f32`.
    pub fn write_f32(&self, addr: Addr, value: f32) {
        self.write(|m| m.write_f32(addr, value));
    }

    /// Walks the image under the write lock (see [`MemImage`]'s walk).
    pub fn walk(&mut self, w: &mut impl Walk) -> Result<(), SnapError> {
        self.write(|m| m.walk(w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emerald_common::snap::{encode, SnapReader};

    #[test]
    fn alloc_respects_alignment() {
        let mut m = MemImage::new(1 << 16);
        let a = m.alloc(10, 4);
        assert_eq!(a % 4, 0);
        let b = m.alloc(1, 128);
        assert_eq!(b % 128, 0);
        assert!(b > a);
    }

    #[test]
    fn u32_roundtrip_and_oob() {
        let mut m = MemImage::new(64);
        m.write_u32(8, 0xdead_beef);
        assert_eq!(m.read_u32(8), 0xdead_beef);
        assert_eq!(m.read_u32(1000), 0);
        m.write_u32(1000, 1); // ignored
        assert_eq!(m.read_u32(60), 0);
    }

    #[test]
    fn f32_roundtrip() {
        let mut m = MemImage::new(64);
        m.write_f32(0, -2.5);
        assert_eq!(m.read_f32(0), -2.5);
    }

    #[test]
    fn accesses_that_would_wrap_the_address_space_are_out_of_range() {
        // What `[r0+-4]` with `r0 = 0..3` computes: the last four addresses.
        let mut m = MemImage::new(64);
        for addr in Addr::MAX - 3..=Addr::MAX {
            m.write_u32(addr, 0xdead_beef);
            m.write_f32(addr, 1.0);
            assert_eq!(m.read_u32(addr), 0);
            assert_eq!(m.read_f32(addr), 0.0);
            assert!(m.read_bytes(addr, usize::MAX).is_empty());
        }
        assert!(m.read_bytes(0, 64).iter().all(|&b| b == 0));
        // The last whole word is still in range; one byte further is not.
        m.write_u32(60, 7);
        m.write_u32(61, 9);
        assert_eq!((m.read_u32(60), m.read_u32(61)), (7, 0));
        // An empty image has no word to bound against.
        assert_eq!(MemImage::new(0).read_u32(0), 0);
    }

    #[test]
    fn byte_slices() {
        let mut m = MemImage::new(16);
        m.write_u32(4, 0x0003_0201);
        assert_eq!(m.read_bytes(4, 3), &[1, 2, 3]);
        // Clipped at capacity.
        m.write_u32(12, 0x0909_0000);
        assert_eq!(m.read_bytes(14, 10), &[9, 9]);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn alloc_exhaustion_panics() {
        let mut m = MemImage::new(512);
        m.alloc(1024, 4);
    }

    #[test]
    fn snapshot_round_trip_restores_contents_and_allocator() {
        let mut a = MemImage::new(1024);
        let base = a.alloc(64, 16);
        a.write_u32(base, 0xDEAD_BEEF);
        let enc = encode(|w| a.walk(w));

        let mut b = MemImage::new(1024);
        // Stale dirt in a region the target had allocated but the
        // snapshot does not cover — must be re-zeroed on restore.
        let dirt = b.alloc(600, 16) + 500;
        b.write_u32(dirt, 7);
        let mut r = SnapReader::new(&enc);
        b.walk(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(b.read_u32(base), 0xDEAD_BEEF);
        assert_eq!(b.next, a.next);
        assert_eq!(
            b.read_u32(dirt),
            0,
            "allocated tail past the snapshot is zeroed"
        );
        // The restored allocator reproduces the straight run's addresses.
        assert_eq!(a.alloc(8, 8), b.alloc(8, 8));

        // Restoring into a different-capacity image is a typed error.
        let mut c = MemImage::new(512);
        let mut r = SnapReader::new(&enc);
        assert!(matches!(c.walk(&mut r), Err(SnapError::BadValue { .. })));
    }

    #[test]
    fn shared_mem_is_really_shared() {
        let s1 = SharedMem::with_capacity(1024);
        let s2 = s1.clone();
        s1.write_u32(300, 77);
        assert_eq!(s2.read_u32(300), 77);
        let a = s2.alloc(16, 16);
        assert!(a >= 256);
    }
}

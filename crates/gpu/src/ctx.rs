//! Functional execution context for compute (GPGPU) workloads.

use crate::phase::CycleCtx;
use emerald_common::types::Addr;
use emerald_isa::op::MemSpace;
use emerald_isa::ExecCtx;
use emerald_mem::image::{MemImage, MemReadGuard, SharedMem};
use emerald_mem::view::{StoreBuffer, WClass};

/// Upper bound on scratchpad growth (a power of two). Big enough for any
/// realistic grid's shared-memory footprint, small enough that a stray
/// huge shared-space address cannot allocate gigabytes. Accesses beyond it
/// behave like out-of-range image accesses: writes are dropped, reads
/// return 0.
const SHARED_LIMIT: usize = 64 << 20;

/// An [`ExecCtx`] backed by the shared memory image, with a flat scratchpad
/// for `MemSpace::Shared`. Graphics instructions are inert (they return
/// constants), which is fine for compute kernels; the graphics pipeline in
/// `emerald-core` provides its own context with live surfaces.
#[derive(Debug, Clone)]
pub struct GlobalMemCtx {
    mem: SharedMem,
    scratch: Vec<u8>,
}

impl GlobalMemCtx {
    /// Wraps the memory image with an empty scratchpad.
    pub fn new(mem: SharedMem) -> Self {
        Self {
            mem,
            scratch: Vec::new(),
        }
    }

    fn scratch_u32(&self, addr: Addr) -> u32 {
        scratch_read(&self.scratch, addr)
    }

    fn scratch_write_u32(&mut self, addr: Addr, v: u32) {
        let i = addr as usize;
        // A word that would wrap the address space is out of range too.
        let Some(end) = i.checked_add(4) else {
            return;
        };
        if end > self.scratch.len() {
            // Grow geometrically but never past the limit — a
            // pathological address must not allocate gigabytes.
            if end > SHARED_LIMIT {
                return;
            }
            self.scratch.resize(end.next_power_of_two(), 0);
        }
        self.scratch[i..end].copy_from_slice(&v.to_le_bytes());
    }
}

fn scratch_read(scratch: &[u8], addr: Addr) -> u32 {
    let word = scratch.get(addr as usize..).and_then(<[u8]>::first_chunk);
    word.map_or(0, |w| u32::from_le_bytes(*w))
}

impl ExecCtx for GlobalMemCtx {
    fn load(&mut self, space: MemSpace, addr: Addr) -> u32 {
        match space {
            MemSpace::Shared => self.scratch_u32(addr),
            _ => self.mem.read_u32(addr),
        }
    }

    fn store(&mut self, space: MemSpace, addr: Addr, value: u32) {
        match space {
            MemSpace::Shared => self.scratch_write_u32(addr, value),
            _ => self.mem.write_u32(addr, value),
        }
    }

    fn tex2d(&mut self, _: u8, _: f32, _: f32, _: &mut Vec<Addr>) -> [f32; 4] {
        [0.0; 4]
    }

    fn ztest(&mut self, _: u32, _: u32, _: f32, _: bool) -> (bool, Addr) {
        (true, 0)
    }

    fn blend(&mut self, _: u32, _: u32, src: [f32; 4]) -> ([f32; 4], Addr) {
        (src, 0)
    }

    fn fb_write(&mut self, _: u32, _: u32, _: [f32; 4]) -> Addr {
        0
    }
}

/// Frozen snapshot of a [`GlobalMemCtx`] for one parallel phase: a read
/// guard on the image plus a borrow of the committed scratchpad.
#[derive(Debug)]
pub struct GlobalFrozen<'s> {
    img: MemReadGuard<'s>,
    scratch: &'s [u8],
}

/// Per-core compute context over a [`GlobalFrozen`] snapshot: reads see
/// the snapshot overlaid with the core's own buffered writes; stores go
/// to the buffer, tagged with their destination (image vs. scratch).
#[derive(Debug)]
pub struct GlobalCoreCtx<'a> {
    img: &'a MemImage,
    scratch: &'a [u8],
    buf: &'a mut StoreBuffer,
}

impl ExecCtx for GlobalCoreCtx<'_> {
    fn load(&mut self, space: MemSpace, addr: Addr) -> u32 {
        match space {
            MemSpace::Shared => self
                .buf
                .lookup(WClass::Scratch, addr)
                .unwrap_or_else(|| scratch_read(self.scratch, addr)),
            _ => self
                .buf
                .lookup(WClass::Image, addr)
                .unwrap_or_else(|| self.img.read_u32(addr)),
        }
    }

    fn store(&mut self, space: MemSpace, addr: Addr, value: u32) {
        let class = match space {
            MemSpace::Shared => WClass::Scratch,
            _ => WClass::Image,
        };
        self.buf.push(class, addr, value);
    }

    fn tex2d(&mut self, _: u8, _: f32, _: f32, _: &mut Vec<Addr>) -> [f32; 4] {
        [0.0; 4]
    }

    fn ztest(&mut self, _: u32, _: u32, _: f32, _: bool) -> (bool, Addr) {
        (true, 0)
    }

    fn blend(&mut self, _: u32, _: u32, src: [f32; 4]) -> ([f32; 4], Addr) {
        (src, 0)
    }

    fn fb_write(&mut self, _: u32, _: u32, _: [f32; 4]) -> Addr {
        0
    }
}

impl CycleCtx for GlobalMemCtx {
    type Frozen<'s> = GlobalFrozen<'s>;
    type Core<'a> = GlobalCoreCtx<'a>;

    fn freeze(&self) -> GlobalFrozen<'_> {
        GlobalFrozen {
            img: self.mem.read_guard(),
            scratch: &self.scratch,
        }
    }

    fn core<'a, 's: 'a>(
        frozen: &'a GlobalFrozen<'s>,
        buf: &'a mut StoreBuffer,
    ) -> GlobalCoreCtx<'a> {
        GlobalCoreCtx {
            img: &frozen.img,
            scratch: frozen.scratch,
            buf,
        }
    }

    fn finish(_core: GlobalCoreCtx<'_>) {}

    fn commit(&mut self, bufs: &mut [StoreBuffer]) {
        if bufs.iter().all(StoreBuffer::is_empty) {
            return;
        }
        // Image writes drain under one write lock; scratch writes are
        // deferred to after the lock drops (`self.mem` and
        // `self.scratch_write_u32` both need `self`). Ordering across the
        // two classes is irrelevant — they are disjoint address spaces —
        // and within each class the core-index/program order is kept.
        let mut scratch = Vec::new();
        self.mem.write(|img| {
            for b in bufs.iter_mut() {
                if b.is_empty() {
                    continue;
                }
                b.drain(|class, addr, value| match class {
                    WClass::Image => img.write_u32(addr, value),
                    WClass::Scratch => scratch.push((addr, value)),
                });
            }
        });
        for (addr, value) in scratch {
            self.scratch_write_u32(addr, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_roundtrip() {
        let mem = SharedMem::with_capacity(4096);
        let mut ctx = GlobalMemCtx::new(mem);
        ctx.store(MemSpace::Global, 512, 42);
        assert_eq!(ctx.load(MemSpace::Global, 512), 42);
        // Const/vertex alias the same image.
        assert_eq!(ctx.load(MemSpace::Const, 512), 42);
    }

    #[test]
    fn shared_is_separate_from_global() {
        let mem = SharedMem::with_capacity(4096);
        let mut ctx = GlobalMemCtx::new(mem);
        ctx.store(MemSpace::Shared, 512, 7);
        assert_eq!(ctx.load(MemSpace::Shared, 512), 7);
        assert_eq!(ctx.load(MemSpace::Global, 512), 0);
        // Unwritten shared reads as zero.
        assert_eq!(ctx.load(MemSpace::Shared, 9000), 0);
    }

    #[test]
    fn pathological_shared_address_does_not_balloon_scratch() {
        let mem = SharedMem::with_capacity(4096);
        let mut ctx = GlobalMemCtx::new(mem);
        ctx.store(MemSpace::Shared, 1 << 40, 7); // dropped, no resize
        ctx.store(MemSpace::Shared, SHARED_LIMIT as Addr, 7); // first word past the cap
        assert!(ctx.scratch.is_empty());
        assert_eq!(ctx.load(MemSpace::Shared, 1 << 40), 0);
        // In-limit accesses still work and grow only to what they need.
        ctx.store(MemSpace::Shared, (1 << 16) - 4, 9);
        assert_eq!(ctx.load(MemSpace::Shared, (1 << 16) - 4), 9);
        assert_eq!(ctx.scratch.len(), 1 << 16);
    }

    #[test]
    fn wrapped_addresses_read_zero_and_drop_writes() {
        // `[r0+-4]` with `r0 = 0..3`: loads return 0, stores are ignored,
        // directly and through a core's buffered view and its commit.
        let mut ctx = GlobalMemCtx::new(SharedMem::with_capacity(4096));
        ctx.store(MemSpace::Shared, 0, 5); // a scratchpad to run off the end of
        let mut bufs = vec![StoreBuffer::default()];
        for addr in Addr::MAX - 3..=Addr::MAX {
            for space in [MemSpace::Global, MemSpace::Shared] {
                ctx.store(space, addr, 7);
                assert_eq!(ctx.load(space, addr), 0, "{space:?} {addr:#x}");
                let frozen = GlobalMemCtx::freeze(&ctx);
                let mut core = GlobalMemCtx::core(&frozen, &mut bufs[0]);
                assert_eq!(core.load(space, addr), 0, "{space:?} {addr:#x} frozen");
                core.store(space, addr, 9);
            }
        }
        ctx.commit(&mut bufs);
        assert_eq!(ctx.load(MemSpace::Shared, 0), 5);
        assert!(
            ctx.scratch.len() <= 8,
            "scratch grew to {}",
            ctx.scratch.len()
        );
        assert!(ctx
            .mem
            .read(|m| m.read_bytes(0, 4096).iter().all(|&b| b == 0)));
    }

    #[test]
    fn frozen_core_ctx_reads_own_writes_and_commits() {
        let mem = SharedMem::with_capacity(4096);
        let mut ctx = GlobalMemCtx::new(mem);
        ctx.store(MemSpace::Global, 128, 1);
        let mut bufs = vec![StoreBuffer::default(), StoreBuffer::default()];
        {
            let frozen = GlobalMemCtx::freeze(&ctx);
            let (b0, rest) = bufs.split_at_mut(1);
            let mut c0 = GlobalMemCtx::core(&frozen, &mut b0[0]);
            let mut c1 = GlobalMemCtx::core(&frozen, &mut rest[0]);
            assert_eq!(c0.load(MemSpace::Global, 128), 1);
            c0.store(MemSpace::Global, 128, 2);
            c0.store(MemSpace::Shared, 8, 77);
            assert_eq!(c0.load(MemSpace::Global, 128), 2, "own write visible");
            assert_eq!(c0.load(MemSpace::Shared, 8), 77);
            // The sibling core still sees the frozen snapshot.
            assert_eq!(c1.load(MemSpace::Global, 128), 1);
            assert_eq!(c1.load(MemSpace::Shared, 8), 0);
            c1.store(MemSpace::Global, 128, 3);
        }
        ctx.commit(&mut bufs);
        // Core-index order: core 1's store lands last.
        assert_eq!(ctx.load(MemSpace::Global, 128), 3);
        assert_eq!(ctx.load(MemSpace::Shared, 8), 77);
        assert!(bufs.iter().all(StoreBuffer::is_empty));
    }
}

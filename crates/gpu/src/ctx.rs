//! Execution contexts: what the GPU runs its cores against each cycle, and
//! the one for compute (GPGPU) workloads.

use emerald_common::types::Addr;
use emerald_isa::op::MemSpace;
use emerald_isa::ExecCtx;
use emerald_mem::image::{MemImage, SharedMem};

/// What [`Gpu::cycle`](crate::Gpu::cycle) runs its active cores against: a
/// context over the shared memory image that lends one direct [`ExecCtx`]
/// per cycle.
pub trait ImageCtx {
    /// Runs `f` against the live image, holding its write lock once for
    /// the whole call. Every store is visible to every later access.
    fn lock<R>(&mut self, f: impl FnOnce(&mut dyn ExecCtx) -> R) -> R;
}

/// Upper bound on scratchpad growth (a power of two). Big enough for any
/// realistic grid's shared-memory footprint, small enough that a stray
/// huge shared-space address cannot allocate gigabytes. Accesses beyond it
/// behave like out-of-range image accesses: writes are dropped, reads
/// return 0.
const SHARED_LIMIT: usize = 64 << 20;

/// The compute [`ImageCtx`]: the shared memory image, with a flat
/// scratchpad for `MemSpace::Shared`. Graphics instructions are inert
/// (they return constants), which is fine for compute kernels; the
/// graphics pipeline in `emerald-core` provides its own context with live
/// surfaces.
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
}

impl ImageCtx for GlobalMemCtx {
    fn lock<R>(&mut self, f: impl FnOnce(&mut dyn ExecCtx) -> R) -> R {
        let scratch = &mut self.scratch;
        self.mem.write(|img| f(&mut Compute { img, scratch }))
    }
}

/// A [`GlobalMemCtx`] for one locked call: the image and the scratchpad.
struct Compute<'a> {
    img: &'a mut MemImage,
    scratch: &'a mut Vec<u8>,
}

impl Compute<'_> {
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

impl ExecCtx for Compute<'_> {
    fn load(&mut self, space: MemSpace, addr: Addr) -> u32 {
        match space {
            MemSpace::Shared => {
                let word = self.scratch.get(addr as usize..);
                word.and_then(<[u8]>::first_chunk)
                    .map_or(0, |w| u32::from_le_bytes(*w))
            }
            _ => self.img.read_u32(addr),
        }
    }

    fn store(&mut self, space: MemSpace, addr: Addr, value: u32) {
        match space {
            MemSpace::Shared => self.scratch_write_u32(addr, value),
            _ => self.img.write_u32(addr, value),
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

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> GlobalMemCtx {
        GlobalMemCtx::new(SharedMem::with_capacity(4096))
    }

    #[test]
    fn global_roundtrip() {
        let mut ctx = ctx();
        ctx.lock(|c| {
            c.store(MemSpace::Global, 512, 42);
            assert_eq!(c.load(MemSpace::Global, 512), 42, "own write visible");
            // Const/vertex alias the same image.
            assert_eq!(c.load(MemSpace::Const, 512), 42);
        });
        assert_eq!(ctx.mem.read_u32(512), 42, "the store reached the image");
    }

    #[test]
    fn shared_is_separate_from_global() {
        let mut ctx = ctx();
        ctx.lock(|c| {
            c.store(MemSpace::Shared, 512, 7);
            assert_eq!(c.load(MemSpace::Shared, 512), 7);
            assert_eq!(c.load(MemSpace::Global, 512), 0);
            // Unwritten shared reads as zero.
            assert_eq!(c.load(MemSpace::Shared, 9000), 0);
        });
        // The scratchpad outlives the call.
        assert_eq!(ctx.lock(|c| c.load(MemSpace::Shared, 512)), 7);
    }

    #[test]
    fn pathological_shared_address_does_not_balloon_scratch() {
        let mut ctx = ctx();
        ctx.lock(|c| {
            c.store(MemSpace::Shared, 1 << 40, 7); // dropped, no resize
            c.store(MemSpace::Shared, SHARED_LIMIT as Addr, 7); // first word past the cap
        });
        assert!(ctx.scratch.is_empty());
        ctx.lock(|c| {
            assert_eq!(c.load(MemSpace::Shared, 1 << 40), 0);
            // In-limit accesses still work and grow only to what they need.
            c.store(MemSpace::Shared, (1 << 16) - 4, 9);
            assert_eq!(c.load(MemSpace::Shared, (1 << 16) - 4), 9);
        });
        assert_eq!(ctx.scratch.len(), 1 << 16);
    }

    #[test]
    fn wrapped_addresses_read_zero_and_drop_writes() {
        // `[r0+-4]` with `r0 = 0..3`: loads return 0, stores are ignored.
        let mut ctx = ctx();
        ctx.lock(|c| {
            c.store(MemSpace::Shared, 0, 5); // a scratchpad to run off the end of
            for addr in Addr::MAX - 3..=Addr::MAX {
                for space in [MemSpace::Global, MemSpace::Shared] {
                    c.store(space, addr, 7);
                    assert_eq!(c.load(space, addr), 0, "{space:?} {addr:#x}");
                }
            }
            assert_eq!(c.load(MemSpace::Shared, 0), 5);
        });
        assert!(
            ctx.scratch.len() <= 8,
            "scratch grew to {}",
            ctx.scratch.len()
        );
        assert!(ctx
            .mem
            .read(|m| m.read_bytes(0, 4096).iter().all(|&b| b == 0)));
    }
}

//! Zero-filled byte arrays whose pages occupy host memory only once
//! written: the backing of a [`MemImage`](crate::image::MemImage).
//!
//! An image's capacity is an address space, most of which a run never
//! touches. On Linux, [`ZeroedBytes`] is a private anonymous mapping of its
//! own, made when the array is created and unmapped when it drops, so the
//! resident set is the pages the simulation wrote. A `vec![0; n]` would
//! behave so only sometimes: glibc serves blocks below its 32 MiB `mmap`
//! ceiling from the heap once an earlier block of that size has been freed,
//! and `calloc` then zero-fills the whole block by hand. Every page of the
//! capacity becomes resident, and whether a second such block is resident
//! beside it depends on where unrelated small allocations landed — a
//! process that builds one 16 MiB image after another peaked at 22 MiB in
//! some runs and 37 MiB in others. Elsewhere the array is a plain boxed
//! slice.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// `len` bytes, zero until written.
pub(crate) struct ZeroedBytes(imp::Bytes);

impl ZeroedBytes {
    /// `len` zero bytes.
    ///
    /// # Panics
    ///
    /// Panics if the host refuses the memory.
    pub(crate) fn new(len: usize) -> Self {
        Self(imp::Bytes::zeroed(len))
    }
}

impl Deref for ZeroedBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.0.as_slice()
    }
}

impl DerefMut for ZeroedBytes {
    fn deref_mut(&mut self) -> &mut [u8] {
        self.0.as_mut_slice()
    }
}

impl Clone for ZeroedBytes {
    fn clone(&self) -> Self {
        let mut copy = Self::new(self.len());
        copy.copy_from_slice(self);
        copy
    }
}

impl fmt::Debug for ZeroedBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ZeroedBytes({} bytes)", self.len())
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod imp {
    use std::ffi::c_void;
    use std::ptr::NonNull;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    /// `PROT_READ | PROT_WRITE`.
    const PROT_READ_WRITE: i32 = 0x1 | 0x2;
    /// `MAP_PRIVATE | MAP_ANONYMOUS` on these two architectures.
    const MAP_PRIVATE_ANONYMOUS: i32 = 0x02 | 0x20;

    /// A mapping of `len` bytes (none, and a dangling pointer, when `len`
    /// is 0: `mmap` rejects an empty mapping).
    pub(super) struct Bytes {
        ptr: NonNull<u8>,
        len: usize,
    }

    // SAFETY: `Bytes` owns its mapping exclusively, like a `Box<[u8]>`;
    // shared access only reads it.
    unsafe impl Send for Bytes {}
    unsafe impl Sync for Bytes {}

    impl Bytes {
        pub(super) fn zeroed(len: usize) -> Self {
            if len == 0 {
                return Self {
                    ptr: NonNull::dangling(),
                    len,
                };
            }
            // SAFETY: a fresh private anonymous mapping aliases nothing;
            // the kernel hands it out zero-filled.
            let p = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ_WRITE,
                    MAP_PRIVATE_ANONYMOUS,
                    -1,
                    0,
                )
            };
            // `MAP_FAILED` is all ones.
            assert!(
                p as usize != usize::MAX,
                "cannot map {len} bytes for a memory image: {}",
                std::io::Error::last_os_error()
            );
            Self {
                ptr: NonNull::new(p.cast()).expect("mmap returned null"),
                len,
            }
        }

        pub(super) fn as_slice(&self) -> &[u8] {
            // SAFETY: `ptr` is valid for `len` initialised bytes (or
            // dangling with `len` 0) for as long as `self` lives.
            unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
        }

        pub(super) fn as_mut_slice(&mut self) -> &mut [u8] {
            // SAFETY: as in `as_slice`, and `&mut self` makes the borrow
            // unique.
            unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
        }
    }

    impl Drop for Bytes {
        fn drop(&mut self) {
            if self.len > 0 {
                // SAFETY: the mapping came from `mmap` with this length and
                // nothing borrows it any more.
                unsafe { munmap(self.ptr.as_ptr().cast(), self.len) };
            }
        }
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod imp {
    pub(super) struct Bytes(Box<[u8]>);

    impl Bytes {
        pub(super) fn zeroed(len: usize) -> Self {
            Self(vec![0; len].into_boxed_slice())
        }

        pub(super) fn as_slice(&self) -> &[u8] {
            &self.0
        }

        pub(super) fn as_mut_slice(&mut self) -> &mut [u8] {
            &mut self.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_zero_takes_writes_and_clones_deeply() {
        let mut a = ZeroedBytes::new(3 << 20);
        assert_eq!(a.len(), 3 << 20);
        assert!(a.iter().all(|&b| b == 0));
        a[0] = 1;
        a[(3 << 20) - 1] = 2;
        let b = a.clone();
        a[0] = 9;
        assert_eq!((b[0], b[(3 << 20) - 1], a[0]), (1, 2, 9));
        assert_eq!(format!("{b:?}"), "ZeroedBytes(3145728 bytes)");
    }

    #[test]
    fn empty_is_empty() {
        let e = ZeroedBytes::new(0);
        assert!(e.is_empty());
        assert!(e.clone().is_empty());
    }
}

//! Versioned binary snapshot codec for checkpoint/restore.
//!
//! A snapshot is a self-describing byte container:
//!
//! ```text
//! magic "EMSNAP\0\0" | format version u32 | config hash u64
//!     | body: tagged length-prefixed sections (arbitrarily nested)
//!     | trailing FxHash-64 checksum over every preceding byte
//! ```
//!
//! Each component has one `walk(&mut self, w: &mut impl Walk)` that both
//! writes and reads its state ([`Walk`]), normally as one section;
//! sections nest (a GPU section contains per-core sections, the memory
//! system contains per-channel sections). All
//! multi-byte values are little-endian; lengths are `u64`; floats are
//! stored as their IEEE-754 bit patterns so restore is bit-exact.
//!
//! Failure policy: decoding never panics and never allocates unbounded
//! memory from attacker-controlled lengths. Every malformed input maps to
//! a typed [`SnapError`] — bad magic, version skew, config-hash mismatch,
//! truncation, checksum mismatch, or a value that fails validation. The
//! trailing checksum means *any* single-byte corruption of a well-formed
//! snapshot is caught at [`open_container`] time, before a single section
//! is interpreted.

use std::fmt;
use std::hash::Hasher;

/// Leading magic bytes of every snapshot container.
pub(crate) const MAGIC: [u8; 8] = *b"EMSNAP\0\0";

/// Current snapshot format version. Bump on any incompatible layout
/// change; old snapshots then fail with [`SnapError::VersionSkew`]
/// instead of being misinterpreted.
///
/// * 2 — the CPU cluster's run-ahead state (`ran_until` / `pending` /
///   `end_at`) moved out of the mid-frame cursor into the cluster's own
///   record and is written for between-frame snapshots too.
/// * 3 — the SoC's and the GPU's request-id generators are gone (each
///   requester stamps ids from a counter it already snapshots): two u64s
///   fewer.
pub const FORMAT_VERSION: u32 = 3;

/// Bytes of fixed container overhead: magic + version + config hash +
/// trailing checksum.
pub(crate) const CONTAINER_OVERHEAD: usize = 8 + 4 + 8 + 8;

/// A typed decoding failure. Restore never panics; it returns one of
/// these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The container does not start with `MAGIC`.
    BadMagic,
    /// The container was written by an incompatible format version.
    VersionSkew {
        /// Version found in the container.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
    /// The snapshot was taken under a different configuration.
    ConfigHashMismatch {
        /// Hash found in the container.
        found: u64,
        /// Hash of the configuration restore was asked to use.
        expected: u64,
    },
    /// The input ended (or a section boundary was hit) before a value
    /// could be read.
    Truncated {
        /// Byte offset at which the read was attempted.
        offset: usize,
        /// Bytes the read needed.
        need: usize,
    },
    /// A value decoded but failed validation (impossible length, count
    /// mismatch against the live configuration, bad enum tag, ...).
    BadValue {
        /// What failed to validate.
        what: &'static str,
    },
    /// A section tag did not match what the reader expected.
    SectionMismatch {
        /// Tag the caller expected.
        expected: u32,
        /// Tag found in the stream.
        found: u32,
    },
    /// The trailing checksum does not match the container contents.
    ChecksumMismatch,
    /// A section or the container body was not fully consumed.
    TrailingBytes {
        /// Offset of the first unconsumed byte.
        offset: usize,
    },
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::BadMagic => write!(f, "not an Emerald snapshot (bad magic)"),
            SnapError::VersionSkew { found, expected } => {
                write!(f, "snapshot format version {found}, expected {expected}")
            }
            SnapError::ConfigHashMismatch { found, expected } => write!(
                f,
                "snapshot config hash {found:#018x} does not match live config {expected:#018x}"
            ),
            SnapError::Truncated { offset, need } => {
                write!(
                    f,
                    "snapshot truncated at byte {offset} (needed {need} more)"
                )
            }
            SnapError::BadValue { what } => write!(f, "invalid snapshot value: {what}"),
            SnapError::SectionMismatch { expected, found } => {
                write!(f, "expected section {expected:#x}, found {found:#x}")
            }
            SnapError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapError::TrailingBytes { offset } => {
                write!(f, "unconsumed snapshot bytes starting at {offset}")
            }
        }
    }
}

impl std::error::Error for SnapError {}

/// Hashes a configuration's canonical representation (its `Debug` text)
/// into the `config hash` header field.
pub fn config_hash(debug_repr: &str) -> u64 {
    let mut h = crate::hash::FxHasher::default();
    h.write(debug_repr.as_bytes());
    h.finish()
}

fn payload_checksum(bytes: &[u8]) -> u64 {
    let mut h = crate::hash::FxHasher::default();
    h.write(bytes);
    h.finish()
}

/// One pass over a component's state that both encodes and decodes it.
///
/// A component has a single `walk(&mut self, w: &mut impl Walk)` that
/// hands every field, in order, to the primitives below as a `&mut`
/// place. [`SnapWriter`] puts the value; [`SnapReader`] overwrites it
/// from the stream. The two directions therefore cannot drift: a field
/// added to the walk is written and read in the same position.
///
/// Validation lives in the walk too, on the read side only:
/// [`Walk::expect`], [`Walk::index`] and [`Walk::check`] refuse a decoded
/// value with [`SnapError::BadValue`] and their `what`, and pass
/// everything on write — a writer puts the live state as it is and never
/// fails. Restore targets are freshly constructed from the same
/// configuration, so counts are checked against the live structure.
///
/// Where the encoding differs from the in-memory layout, the walk converts
/// through a local adapter: build the encoded form from the live state,
/// walk it, and rebuild the live state from it (a no-op rebuild on write).
/// State derived from walked fields is rebuilt under [`Walk::reading`].
pub trait Walk: Sized {
    /// True for the decoder: the walk overwrites the state it is given.
    fn reading(&self) -> bool;

    /// One byte.
    fn u8(&mut self, v: &mut u8) -> Result<(), SnapError>;

    /// A little-endian `u32`.
    fn u32(&mut self, v: &mut u32) -> Result<(), SnapError>;

    /// A little-endian `u64`.
    fn u64(&mut self, v: &mut u64) -> Result<(), SnapError>;

    /// `v.len()` raw bytes, no length prefix (the caller has walked the
    /// length).
    fn raw(&mut self, v: &mut [u8]) -> Result<(), SnapError>;

    /// A sequence length: writes `n` and returns it, or reads a length
    /// whose elements occupy at least `elem_min` bytes each and refuses
    /// one that cannot fit in the remaining input — so a corrupt length
    /// can never force a huge allocation.
    fn len(&mut self, n: usize, elem_min: usize) -> Result<usize, SnapError>;

    /// A tagged, length-prefixed section holding what `f` walks. A reader
    /// refuses a wrong tag and a section `f` does not consume exactly.
    fn section(
        &mut self,
        tag: u32,
        f: impl FnOnce(&mut Self) -> Result<(), SnapError>,
    ) -> Result<(), SnapError>;

    /// A `usize`, stored as `u64` (portable across word sizes).
    fn usize(&mut self, v: &mut usize) -> Result<(), SnapError> {
        let mut x = *v as u64;
        self.u64(&mut x)?;
        *v = usize::try_from(x).map_err(|_| SnapError::BadValue {
            what: "usize overflows host word",
        })?;
        Ok(())
    }

    /// A `bool` as one byte; a reader refuses any byte but 0 and 1.
    fn bool(&mut self, v: &mut bool) -> Result<(), SnapError> {
        let mut x = *v as u8;
        self.u8(&mut x)?;
        self.check(x < 2, "bool tag")?;
        *v = x == 1;
        Ok(())
    }

    /// An `f32` as its bit pattern (bit-exact round trip).
    fn f32(&mut self, v: &mut f32) -> Result<(), SnapError> {
        let mut x = v.to_bits();
        self.u32(&mut x)?;
        *v = f32::from_bits(x);
        Ok(())
    }

    /// An `f64` as its bit pattern (bit-exact round trip).
    fn f64(&mut self, v: &mut f64) -> Result<(), SnapError> {
        let mut x = v.to_bits();
        self.u64(&mut x)?;
        *v = f64::from_bits(x);
        Ok(())
    }

    /// A length-prefixed byte string.
    fn bytes(&mut self, v: &mut Vec<u8>) -> Result<(), SnapError> {
        let n = self.len(v.len(), 1)?;
        v.resize(n, 0);
        self.raw(v)
    }

    /// Refuses a decoded state for which `ok` is false; passes on write.
    fn check(&self, ok: bool, what: &'static str) -> Result<(), SnapError> {
        if ok || !self.reading() {
            Ok(())
        } else {
            Err(SnapError::BadValue { what })
        }
    }

    /// A value the live configuration already fixes (a count, a base
    /// address): written as is, and a reader refuses any other value.
    fn expect<T: Scalar>(&mut self, live: T, what: &'static str) -> Result<(), SnapError> {
        let mut v = live;
        v.walk(self)?;
        self.check(v == live, what)
    }

    /// An index into something of `bound` entries: a reader refuses
    /// `v >= bound`.
    fn index(&mut self, v: &mut usize, bound: usize, what: &'static str) -> Result<(), SnapError> {
        self.usize(v)?;
        self.check(*v < bound, what)
    }

    /// An `Option` as a presence byte plus, if present, what `f` walks.
    fn opt<T: Default>(
        &mut self,
        v: &mut Option<T>,
        f: impl FnOnce(&mut Self, &mut T) -> Result<(), SnapError>,
    ) -> Result<(), SnapError> {
        let mut some = v.is_some();
        self.bool(&mut some)?;
        if !some {
            *v = None;
            return Ok(());
        }
        f(self, v.get_or_insert_with(T::default))
    }

    /// A length-prefixed sequence, each element walked by `f`. A reader
    /// refills `v` with that many defaults before walking them.
    fn seq<S: Seq>(
        &mut self,
        v: &mut S,
        elem_min: usize,
        mut f: impl FnMut(&mut Self, &mut S::Item) -> Result<(), SnapError>,
    ) -> Result<(), SnapError> {
        let n = self.len(v.count(), elem_min.max(1))?;
        if self.reading() {
            v.refill(n);
        }
        v.items().iter_mut().try_for_each(|x| f(self, x))
    }

    /// A map as the sequence of its entries in ascending key order.
    fn map<M, K, V>(
        &mut self,
        m: &mut M,
        elem_min: usize,
        mut f: impl FnMut(&mut Self, &mut K, &mut V) -> Result<(), SnapError>,
    ) -> Result<(), SnapError>
    where
        M: FromIterator<(K, V)>,
        for<'a> &'a M: IntoIterator<Item = (&'a K, &'a V)>,
        K: Ord + Copy + Default,
        V: Copy + Default,
    {
        let mut entries: Vec<(K, V)> = m.into_iter().map(|(&k, &v)| (k, v)).collect();
        entries.sort_unstable_by_key(|&(k, _)| k);
        self.seq(&mut entries, elem_min, |w, (k, v)| f(w, k, v))?;
        if self.reading() {
            *m = entries.into_iter().collect();
        }
        Ok(())
    }
}

/// A fixed-width value [`Walk::expect`] can compare.
pub trait Scalar: Copy + PartialEq {
    /// Walks the value with the matching primitive.
    fn walk(&mut self, w: &mut impl Walk) -> Result<(), SnapError>;
}

impl Scalar for bool {
    fn walk(&mut self, w: &mut impl Walk) -> Result<(), SnapError> {
        w.bool(self)
    }
}

impl Scalar for u32 {
    fn walk(&mut self, w: &mut impl Walk) -> Result<(), SnapError> {
        w.u32(self)
    }
}

impl Scalar for u64 {
    fn walk(&mut self, w: &mut impl Walk) -> Result<(), SnapError> {
        w.u64(self)
    }
}

impl Scalar for usize {
    fn walk(&mut self, w: &mut impl Walk) -> Result<(), SnapError> {
        w.usize(self)
    }
}

/// A growable sequence [`Walk::seq`] can refill in place.
pub trait Seq {
    /// Element type.
    type Item: Default;
    /// Number of elements.
    fn count(&self) -> usize;
    /// Replaces the contents with `n` default elements.
    fn refill(&mut self, n: usize);
    /// The elements, in order.
    fn items(&mut self) -> &mut [Self::Item];
}

impl<T: Default> Seq for Vec<T> {
    type Item = T;
    fn count(&self) -> usize {
        self.len()
    }
    fn refill(&mut self, n: usize) {
        self.clear();
        self.resize_with(n, T::default);
    }
    fn items(&mut self) -> &mut [T] {
        self
    }
}

impl<T: Default> Seq for std::collections::VecDeque<T> {
    type Item = T;
    fn count(&self) -> usize {
        self.len()
    }
    fn refill(&mut self, n: usize) {
        self.clear();
        self.resize_with(n, T::default);
    }
    fn items(&mut self) -> &mut [T] {
        self.make_contiguous()
    }
}

/// Append-only snapshot encoder: the [`Walk`] that puts values.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl Walk for SnapWriter {
    fn reading(&self) -> bool {
        false
    }

    fn u8(&mut self, v: &mut u8) -> Result<(), SnapError> {
        self.buf.push(*v);
        Ok(())
    }

    fn u32(&mut self, v: &mut u32) -> Result<(), SnapError> {
        self.buf.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }

    fn u64(&mut self, v: &mut u64) -> Result<(), SnapError> {
        self.buf.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }

    fn raw(&mut self, v: &mut [u8]) -> Result<(), SnapError> {
        self.buf.extend_from_slice(v);
        Ok(())
    }

    fn len(&mut self, n: usize, _elem_min: usize) -> Result<usize, SnapError> {
        self.u64(&mut (n as u64))?;
        Ok(n)
    }

    /// Writes the tag and a placeholder length, walks `f`, then patches
    /// the length.
    fn section(
        &mut self,
        mut tag: u32,
        f: impl FnOnce(&mut Self) -> Result<(), SnapError>,
    ) -> Result<(), SnapError> {
        self.u32(&mut tag)?;
        let at = self.buf.len();
        self.u64(&mut 0)?;
        f(self)?;
        let len = (self.buf.len() - at - 8) as u64;
        self.buf[at..at + 8].copy_from_slice(&len.to_le_bytes());
        Ok(())
    }
}

/// Encodes what `f` walks as raw body bytes (no container header).
///
/// # Panics
///
/// Panics if the walk fails, which a writer's primitives never do.
pub fn encode(f: impl FnOnce(&mut SnapWriter) -> Result<(), SnapError>) -> Vec<u8> {
    let mut w = SnapWriter::default();
    f(&mut w).expect("a writer's walk refuses nothing");
    w.buf
}

/// A [`SnapWriter`] that also records the byte range of every primitive
/// it puts — each `u8`, `u32`, `u64` and `raw`, so each length and
/// section header too — and the section it sits in, for a fuzz that
/// overwrites one field at a time. Its bytes are [`encode`]'s.
#[derive(Debug, Default)]
pub struct FieldWriter {
    w: SnapWriter,
    fields: Vec<Field>,
    /// The section being written (0: none), and the next section's id.
    section: usize,
    sections: usize,
}

/// Where one primitive landed in a [`FieldWriter`]'s bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Its bytes.
    pub at: std::ops::Range<usize>,
    /// The innermost section holding it, numbered from 1 in the order
    /// sections open (0: outside every section); a section's own tag and
    /// length belong to the section around it.
    pub section: usize,
}

impl FieldWriter {
    /// Encodes what `f` walks: the body bytes and every primitive in them,
    /// in walk order.
    ///
    /// # Panics
    ///
    /// Panics if the walk fails, which a writer's primitives never do.
    pub fn encode(
        f: impl FnOnce(&mut FieldWriter) -> Result<(), SnapError>,
    ) -> (Vec<u8>, Vec<Field>) {
        let mut w = FieldWriter::default();
        f(&mut w).expect("a writer's walk refuses nothing");
        (w.w.buf, w.fields)
    }

    fn put(
        &mut self,
        f: impl FnOnce(&mut SnapWriter) -> Result<(), SnapError>,
    ) -> Result<(), SnapError> {
        let start = self.w.buf.len();
        f(&mut self.w)?;
        self.fields.push(Field {
            at: start..self.w.buf.len(),
            section: self.section,
        });
        Ok(())
    }
}

impl Walk for FieldWriter {
    fn reading(&self) -> bool {
        false
    }

    fn u8(&mut self, v: &mut u8) -> Result<(), SnapError> {
        self.put(|w| w.u8(v))
    }

    fn u32(&mut self, v: &mut u32) -> Result<(), SnapError> {
        self.put(|w| w.u32(v))
    }

    fn u64(&mut self, v: &mut u64) -> Result<(), SnapError> {
        self.put(|w| w.u64(v))
    }

    fn raw(&mut self, v: &mut [u8]) -> Result<(), SnapError> {
        self.put(|w| w.raw(v))
    }

    fn len(&mut self, n: usize, _elem_min: usize) -> Result<usize, SnapError> {
        self.u64(&mut (n as u64))?;
        Ok(n)
    }

    /// [`SnapWriter::section`]'s bytes; the fields `f` walks are recorded
    /// as this section's.
    fn section(
        &mut self,
        mut tag: u32,
        f: impl FnOnce(&mut Self) -> Result<(), SnapError>,
    ) -> Result<(), SnapError> {
        self.u32(&mut tag)?;
        let at = self.w.buf.len();
        self.u64(&mut 0)?;
        let outer = self.section;
        self.sections += 1;
        self.section = self.sections;
        f(self)?;
        self.section = outer;
        let len = (self.w.buf.len() - at - 8) as u64;
        self.w.buf[at..at + 8].copy_from_slice(&len.to_le_bytes());
        Ok(())
    }
}

/// Bounds-checked snapshot decoder over a byte slice: the [`Walk`] that
/// gets and validates values.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
    limits: Vec<usize>,
}

impl<'a> SnapReader<'a> {
    /// Creates a reader over raw body bytes (no container header). Use
    /// [`open_container`] for full snapshots.
    pub fn new(buf: &'a [u8]) -> Self {
        Self {
            buf,
            pos: 0,
            limits: Vec::new(),
        }
    }

    fn limit(&self) -> usize {
        self.limits.last().copied().unwrap_or(self.buf.len())
    }

    /// Bytes left before the current section (or input) ends.
    fn remaining(&self) -> usize {
        self.limit() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Truncated {
                offset: self.pos,
                need: n - self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], SnapError> {
        Ok(self.take(N)?.try_into().expect("N bytes"))
    }

    /// Requires the input (or current section) to be fully consumed.
    pub fn finish(&self) -> Result<(), SnapError> {
        if self.remaining() != 0 {
            return Err(SnapError::TrailingBytes { offset: self.pos });
        }
        Ok(())
    }
}

impl Walk for SnapReader<'_> {
    fn reading(&self) -> bool {
        true
    }

    fn u8(&mut self, v: &mut u8) -> Result<(), SnapError> {
        *v = self.take(1)?[0];
        Ok(())
    }

    fn u32(&mut self, v: &mut u32) -> Result<(), SnapError> {
        *v = u32::from_le_bytes(self.take_array()?);
        Ok(())
    }

    fn u64(&mut self, v: &mut u64) -> Result<(), SnapError> {
        *v = u64::from_le_bytes(self.take_array()?);
        Ok(())
    }

    fn raw(&mut self, v: &mut [u8]) -> Result<(), SnapError> {
        v.copy_from_slice(self.take(v.len())?);
        Ok(())
    }

    fn len(&mut self, _n: usize, elem_min: usize) -> Result<usize, SnapError> {
        let mut n = 0;
        self.usize(&mut n)?;
        let cap = self.remaining().checked_div(elem_min).unwrap_or(usize::MAX);
        self.check(n <= cap, "sequence length exceeds remaining input")?;
        Ok(n)
    }

    /// Enters the section, verifying its tag; reads inside are bounded by
    /// its recorded length, and it must be consumed exactly.
    fn section(
        &mut self,
        tag: u32,
        f: impl FnOnce(&mut Self) -> Result<(), SnapError>,
    ) -> Result<(), SnapError> {
        let mut found = 0;
        self.u32(&mut found)?;
        if found != tag {
            return Err(SnapError::SectionMismatch {
                expected: tag,
                found,
            });
        }
        let mut len = 0;
        self.usize(&mut len)?;
        if len > self.remaining() {
            return Err(SnapError::Truncated {
                offset: self.pos,
                need: len - self.remaining(),
            });
        }
        self.limits.push(self.pos + len);
        let walked = f(self);
        let limit = self.limits.pop().expect("the limit pushed above");
        walked?;
        if self.pos != limit {
            return Err(SnapError::TrailingBytes { offset: self.pos });
        }
        Ok(())
    }
}

/// Bytes before the body: magic, version and config hash.
const HEADER: usize = MAGIC.len() + 4 + 8;

/// Encodes a full snapshot container: header, body walked by `f`, and the
/// trailing checksum.
///
/// # Panics
///
/// Panics if the walk fails, which a writer's primitives never do.
pub fn write_container(
    cfg_hash: u64,
    f: impl FnOnce(&mut SnapWriter) -> Result<(), SnapError>,
) -> Vec<u8> {
    let mut bytes = encode(|w| {
        w.raw(&mut { MAGIC })?;
        w.u32(&mut { FORMAT_VERSION })?;
        w.u64(&mut { cfg_hash })?;
        f(w)
    });
    let sum = payload_checksum(&bytes);
    bytes.extend_from_slice(&sum.to_le_bytes());
    bytes
}

/// Checks a container's magic, then its checksum over everything (so
/// arbitrary corruption is reported as corruption, not as a misleading
/// header error), then its version, and returns the stamped config hash.
fn validate(bytes: &[u8]) -> Result<u64, SnapError> {
    if bytes.len() < MAGIC.len() || bytes[..MAGIC.len()] != MAGIC {
        return Err(SnapError::BadMagic);
    }
    if bytes.len() < CONTAINER_OVERHEAD {
        return Err(SnapError::Truncated {
            offset: bytes.len(),
            need: CONTAINER_OVERHEAD - bytes.len(),
        });
    }
    let body_end = bytes.len() - 8;
    let stored = u64::from_le_bytes(bytes[body_end..].try_into().expect("8 bytes"));
    if payload_checksum(&bytes[..body_end]) != stored {
        return Err(SnapError::ChecksumMismatch);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(SnapError::VersionSkew {
            found: version,
            expected: FORMAT_VERSION,
        });
    }
    Ok(u64::from_le_bytes(
        bytes[12..HEADER].try_into().expect("8 bytes"),
    ))
}

/// A reader over a validated container's body, once its stamped config
/// hash `found` matches `expected`.
fn body(bytes: &[u8], found: u64, expected: u64) -> Result<SnapReader<'_>, SnapError> {
    if found != expected {
        return Err(SnapError::ConfigHashMismatch { found, expected });
    }
    let mut r = SnapReader::new(&bytes[..bytes.len() - 8]);
    r.pos = HEADER;
    Ok(r)
}

/// Validates a container's magic, checksum, version and config hash, in
/// that order, returning a reader positioned over the body.
pub fn open_container(bytes: &[u8], expected_cfg_hash: u64) -> Result<SnapReader<'_>, SnapError> {
    body(bytes, validate(bytes)?, expected_cfg_hash)
}

/// An immutable, checksum-validated snapshot shared between sessions.
///
/// Forking N configurations from one warmed snapshot must not copy the
/// bytes N times: validation (magic, checksum, version) happens **once**
/// at construction, the payload lives in an `Arc<[u8]>`, and every
/// [`SharedSnapshot::reader`] call hands out a cheap borrowed
/// [`SnapReader`] positioned over the body. The config hash stamped in
/// the header is recorded so each fork can still assert compatibility
/// against its own live configuration without re-reading the container.
#[derive(Debug, Clone)]
pub struct SharedSnapshot {
    bytes: std::sync::Arc<[u8]>,
    cfg_hash: u64,
}

impl SharedSnapshot {
    /// Validates the container once (magic, checksum, version) and wraps
    /// it for sharing. The stamped config hash is recorded, not checked:
    /// [`SharedSnapshot::reader`] enforces it.
    pub fn new(bytes: Vec<u8>) -> Result<Self, SnapError> {
        let cfg_hash = validate(&bytes)?;
        Ok(Self {
            bytes: bytes.into(),
            cfg_hash,
        })
    }

    /// A reader positioned over the body, after checking the stamped
    /// config hash against `expected_cfg_hash`. No per-fork validation
    /// work happens here beyond that comparison — the expensive checksum
    /// ran once in [`SharedSnapshot::new`].
    pub fn reader(&self, expected_cfg_hash: u64) -> Result<SnapReader<'_>, SnapError> {
        body(&self.bytes, self.cfg_hash, expected_cfg_hash)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check;
    use crate::rng::Xorshift64;
    use std::collections::{BTreeMap, VecDeque};

    #[test]
    fn shared_snapshot_matches_open_container() {
        let full = write_container(0xC0FFEE, |w| {
            w.section(3, |w| {
                w.u64(&mut 99)?;
                w.bytes(&mut b"shared".to_vec())
            })
        });
        let shared = SharedSnapshot::new(full).unwrap();
        // Many readers off one validated container decode identically.
        for _ in 0..3 {
            let mut r = shared.reader(0xC0FFEE).unwrap();
            let (mut n, mut s) = (0, Vec::new());
            r.section(3, |r| {
                r.u64(&mut n)?;
                r.bytes(&mut s)
            })
            .unwrap();
            r.finish().unwrap();
            assert_eq!((n, &s[..]), (99, &b"shared"[..]));
        }
        assert!(matches!(
            shared.reader(0xBAD),
            Err(SnapError::ConfigHashMismatch {
                found: 0xC0FFEE,
                expected: 0xBAD
            })
        ));
    }

    #[test]
    fn shared_snapshot_rejects_corruption_once_up_front() {
        let full = write_container(1, |w| w.u64(&mut 5));
        let mut bad = full.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0xFF;
        assert!(matches!(
            SharedSnapshot::new(bad),
            Err(SnapError::ChecksumMismatch)
        ));
        assert!(matches!(
            SharedSnapshot::new(b"NOTASNAP".to_vec()),
            Err(SnapError::BadMagic)
        ));
        let mut skew = full.clone();
        skew[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        let end = skew.len() - 8;
        let sum = payload_checksum(&skew[..end]);
        skew[end..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            SharedSnapshot::new(skew),
            Err(SnapError::VersionSkew { .. })
        ));
    }

    /// One value of every shape a walk handles, walked by one function.
    #[derive(Debug, Clone, Default, PartialEq)]
    struct Fixture {
        a: u8,
        b: u32,
        c: u64,
        d: usize,
        e: bool,
        f: f32,
        g: f64,
        bytes: Vec<u8>,
        raw: [u8; 3],
        opt: Option<u64>,
        vals: Vec<u64>,
        deque: VecDeque<u32>,
        map: BTreeMap<u32, u64>,
        slot: usize,
    }

    /// The fixture's live configuration: `vals` holds at least one value,
    /// `slot` indexes one of `SLOTS`, and the section tags are fixed.
    const SLOTS: usize = 4;

    impl Fixture {
        fn random(rng: &mut Xorshift64) -> Self {
            Self {
                a: rng.next_u64() as u8,
                b: rng.next_u32(),
                c: rng.next_u64(),
                d: rng.next_u64() as usize,
                e: rng.chance(0.5),
                f: f32::from_bits(rng.next_u32()),
                g: f64::from_bits(rng.next_u64()),
                bytes: (0..rng.below(64)).map(|_| rng.next_u64() as u8).collect(),
                raw: [1, 2, rng.next_u64() as u8],
                opt: rng.chance(0.5).then(|| rng.next_u64()),
                vals: (0..1 + rng.below(8)).map(|_| rng.next_u64()).collect(),
                deque: (0..rng.below(5)).map(|_| rng.next_u32()).collect(),
                map: (0..rng.below(5))
                    .map(|_| (rng.next_u32(), rng.next_u64()))
                    .collect(),
                slot: rng.below(SLOTS as u64) as usize,
            }
        }

        fn walk(&mut self, w: &mut impl Walk) -> Result<(), SnapError> {
            w.section(0x10, |w| {
                w.expect(SLOTS, "fixture slot count")?;
                w.u8(&mut self.a)?;
                w.u32(&mut self.b)?;
                w.u64(&mut self.c)?;
                w.usize(&mut self.d)?;
                w.bool(&mut self.e)?;
                w.section(0x11, |w| {
                    w.f32(&mut self.f)?;
                    w.f64(&mut self.g)?;
                    w.bytes(&mut self.bytes)?;
                    w.raw(&mut self.raw)
                })?;
                w.opt(&mut self.opt, |w, v| w.u64(v))?;
                w.seq(&mut self.vals, 8, |w, v| w.u64(v))?;
                w.check(!self.vals.is_empty(), "fixture values")?;
                w.seq(&mut self.deque, 4, |w, v| w.u32(v))?;
                w.map(&mut self.map, 12, |w, k, v| {
                    w.u32(k)?;
                    w.u64(v)
                })?;
                w.index(&mut self.slot, SLOTS, "fixture slot")
            })
        }

        fn bytes(&mut self) -> Vec<u8> {
            encode(|w| self.walk(w))
        }

        fn decode(bytes: &[u8]) -> Result<Self, SnapError> {
            let mut out = Fixture::default();
            let mut r = SnapReader::new(bytes);
            out.walk(&mut r)?;
            r.finish()?;
            Ok(out)
        }
    }

    /// Every primitive round-trips writer → reader, bit-exactly (floats
    /// by pattern, NaNs included), and the reader fills a target whose
    /// prior contents differ.
    #[test]
    fn walk_primitives_round_trip() {
        check::check("snap_walk_round_trip", |rng| {
            let mut fx = Fixture::random(rng);
            let bytes = fx.bytes();
            let mut got = Fixture::random(rng);
            let mut r = SnapReader::new(&bytes);
            got.walk(&mut r).unwrap();
            r.finish().unwrap();
            assert_eq!(got.f.to_bits(), fx.f.to_bits());
            assert_eq!(got.g.to_bits(), fx.g.to_bits());
            (got.f, got.g) = (fx.f, fx.g);
            assert_eq!(got, fx);
            assert_eq!(got.bytes(), bytes, "re-encoding is stable");
        });
    }

    /// A `FieldWriter` puts `encode`'s bytes; its fields tile them in walk
    /// order, and each names the innermost section around it.
    #[test]
    fn field_writer_maps_every_byte() {
        check::check("snap_field_writer", |rng| {
            let mut fx = Fixture::random(rng);
            let (bytes, fields) = FieldWriter::encode(|w| fx.walk(w));
            assert_eq!(bytes, fx.bytes());
            let end = fields.iter().fold(0, |at, f| {
                assert_eq!(f.at.start, at, "{f:?} follows byte {at}");
                f.at.end
            });
            assert_eq!(end, bytes.len());
            // Section 0x10's tag and length sit outside every section;
            // 0x11 (the second to open) holds f, g, the bytes' length and
            // contents, and raw.
            let in_section = |s| fields.iter().filter(|f| f.section == s).count();
            assert_eq!(in_section(0), 2);
            assert_eq!(in_section(2), 5);
            assert_eq!(in_section(1), fields.len() - 7);
        });
    }

    /// `expect`, `index` and `check` refuse by their `what` on read and
    /// pass everything on write.
    #[test]
    fn refusals_carry_their_what() {
        fn bad<T>(what: &'static str) -> Result<T, SnapError> {
            Err(SnapError::BadValue { what })
        }
        let mut fx = Fixture {
            vals: vec![1],
            ..Fixture::default()
        };
        // A slot count the live configuration does not have.
        let other = encode(|w| w.section(0x10, |w| w.expect(SLOTS + 1, "ignored")));
        assert_eq!(Fixture::decode(&other), bad("fixture slot count"));
        // An index past the slots, and a check that fails: the writer
        // puts both as they are; the reader refuses each by name.
        fx.slot = SLOTS;
        assert_eq!(Fixture::decode(&fx.bytes()), bad("fixture slot"));
        fx.slot = SLOTS - 1;
        assert!(Fixture::decode(&fx.bytes()).is_ok());
        fx.vals.clear();
        assert_eq!(Fixture::decode(&fx.bytes()), bad("fixture values"));
        // A bool byte other than 0 or 1.
        let mut r = SnapReader::new(&[2]);
        assert_eq!(r.bool(&mut false), bad("bool tag"));
    }

    #[test]
    fn truncation_at_every_offset_is_typed() {
        check::check_n("snap_truncation_never_panics", 16, |rng| {
            let bytes = Fixture::random(rng).bytes();
            for cut in 0..bytes.len() {
                let r = Fixture::decode(&bytes[..cut]);
                assert!(r.is_err(), "decode of {cut}-byte prefix succeeded");
            }
        });
    }

    #[test]
    fn container_truncation_at_every_offset_is_typed() {
        let hash = 0xABCD;
        let mut fx = Fixture::random(&mut Xorshift64::new(7));
        let full = write_container(hash, |w| fx.walk(w));
        let decode = |bytes| -> Result<Fixture, SnapError> {
            let mut out = Fixture::default();
            let mut r = open_container(bytes, hash)?;
            out.walk(&mut r)?;
            r.finish()?;
            Ok(out)
        };
        // The full container opens and decodes.
        assert_eq!(decode(&full).unwrap().bytes(), fx.bytes());
        // Every strict prefix fails with a typed error, never a panic.
        for cut in 0..full.len() {
            assert!(decode(&full[..cut]).is_err(), "{cut}-byte prefix accepted");
        }
    }

    #[test]
    fn any_single_byte_corruption_is_caught() {
        let full = write_container(0x5EED, |w| {
            w.section(2, |w| (0..32u64).try_for_each(|mut i| w.u64(&mut i)))
        });
        for i in 0..full.len() {
            for flip in [0xFFu8, 0x01] {
                let mut bad = full.clone();
                bad[i] ^= flip;
                assert!(
                    open_container(&bad, 0x5EED).is_err(),
                    "corruption at byte {i} (xor {flip:#x}) not caught"
                );
            }
        }
    }

    #[test]
    fn header_errors_are_typed() {
        let full = write_container(10, |w| w.u64(&mut 1));
        assert!(matches!(
            open_container(b"NOTASNAP", 10),
            Err(SnapError::BadMagic)
        ));
        assert!(matches!(
            open_container(&full[..10], 10),
            Err(SnapError::Truncated { .. })
        ));
        // Wrong config: flip the expected hash, not the bytes.
        assert!(matches!(
            open_container(&full, 11),
            Err(SnapError::ConfigHashMismatch {
                found: 10,
                expected: 11
            })
        ));
        // Version skew: rebuild a container with a bumped version and a
        // valid checksum, so the skew is what's reported.
        let mut skew = full.clone();
        let v = FORMAT_VERSION + 9;
        skew[8..12].copy_from_slice(&v.to_le_bytes());
        let end = skew.len() - 8;
        let sum = payload_checksum(&skew[..end]);
        skew[end..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            open_container(&skew, 10),
            Err(SnapError::VersionSkew { found, .. }) if found == v
        ));
    }

    #[test]
    fn corrupt_length_cannot_force_huge_allocation() {
        let enc = encode(|w| w.u64(&mut { u64::MAX })); // absurd sequence length
        let mut v: Vec<u64> = Vec::new();
        match SnapReader::new(&enc).seq(&mut v, 8, |r, x| r.u64(x)) {
            Err(SnapError::BadValue { .. }) => {}
            other => panic!("expected BadValue, got {other:?}"),
        }
        // The same through a walked struct: every length it carries, set
        // to u64::MAX, is refused before anything is allocated.
        let mut fx = Fixture::random(&mut Xorshift64::new(3));
        fx.bytes = vec![0xAB; 5];
        fx.vals = vec![0xCD; 6];
        let bytes = fx.bytes();
        let mut lengths = 0;
        for n in [5u64, 6] {
            for at in (0..bytes.len() - 7).filter(|&i| bytes[i..i + 8] == n.to_le_bytes()) {
                let mut bad = bytes.clone();
                bad[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
                assert!(Fixture::decode(&bad).is_err(), "length at {at}");
                lengths += 1;
            }
        }
        assert!(lengths >= 2, "both lengths found in the bytes");
    }

    #[test]
    fn section_mismatch_and_overrun_are_typed() {
        let enc = encode(|w| w.section(7, |w| w.u64(&mut 1)));
        let mut x = 0;
        assert!(matches!(
            SnapReader::new(&enc).section(8, |_| Ok(())),
            Err(SnapError::SectionMismatch {
                expected: 8,
                found: 7
            })
        ));
        // Under-consuming a section is caught when it closes.
        assert!(matches!(
            SnapReader::new(&enc).section(7, |_| Ok(())),
            Err(SnapError::TrailingBytes { .. })
        ));
        // Reading past a section's limit is caught as truncation.
        assert!(matches!(
            SnapReader::new(&enc).section(7, |r| {
                r.u64(&mut x)?;
                r.u64(&mut x)
            }),
            Err(SnapError::Truncated { .. })
        ));
    }

    #[test]
    fn config_hash_is_stable_and_discriminating() {
        let a = config_hash("GpuConfig { cores: 4 }");
        let b = config_hash("GpuConfig { cores: 4 }");
        let c = config_hash("GpuConfig { cores: 8 }");
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}

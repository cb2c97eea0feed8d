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
//! Components implement [`Snapshot`]/[`Restore`] and write their state as
//! one section each; sections nest (a GPU section contains per-core
//! sections, the memory system contains per-channel sections). All
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

/// A component that can write its state into a snapshot.
pub trait Snapshot {
    /// Appends this component's state (normally as one section).
    fn snapshot(&self, w: &mut SnapWriter);
}

/// A component that can overwrite its state from a snapshot.
///
/// Restore targets are freshly constructed from the *same configuration*
/// the snapshot was taken under; `restore` then replaces every dynamic
/// field. Implementations must validate counts against their live
/// structure and return [`SnapError::BadValue`] on mismatch — never
/// panic, never index unchecked.
pub trait Restore {
    /// Reads this component's section and overwrites its state.
    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>;
}

/// Append-only snapshot encoder.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
    open: Vec<usize>,
}

impl SnapWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as `u64` (portable across word sizes).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends a `bool` as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Appends an `f32` as its bit pattern (bit-exact round trip).
    pub fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    /// Appends an `f64` as its bit pattern (bit-exact round trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a length-prefixed byte slice.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Appends an `Option` as a presence byte plus the value.
    pub fn put_opt<T>(&mut self, v: &Option<T>, mut f: impl FnMut(&mut Self, &T)) {
        match v {
            Some(x) => {
                self.put_bool(true);
                f(self, x);
            }
            None => self.put_bool(false),
        }
    }

    /// Appends a length-prefixed sequence.
    pub fn put_seq<T>(
        &mut self,
        items: impl ExactSizeIterator<Item = T>,
        mut f: impl FnMut(&mut Self, T),
    ) {
        self.put_usize(items.len());
        for it in items {
            f(self, it);
        }
    }

    /// Opens a tagged section; its length is patched on
    /// [`SnapWriter::end_section`].
    fn begin_section(&mut self, tag: u32) {
        self.put_u32(tag);
        self.open.push(self.buf.len());
        self.put_u64(0); // placeholder length
    }

    /// Closes the innermost open section.
    ///
    /// # Panics
    ///
    /// Panics if no section is open (an encoder bug, not a data error).
    fn end_section(&mut self) {
        let at = self.open.pop().expect("end_section without begin_section");
        let len = (self.buf.len() - at - 8) as u64;
        self.buf[at..at + 8].copy_from_slice(&len.to_le_bytes());
    }

    /// Writes one complete tagged section via a closure.
    pub fn section(&mut self, tag: u32, f: impl FnOnce(&mut Self)) {
        self.begin_section(tag);
        f(self);
        self.end_section();
    }

    /// Finishes encoding, returning the raw body bytes (no container
    /// header).
    ///
    /// # Panics
    ///
    /// Panics if a section is still open (an encoder bug).
    pub fn into_bytes(self) -> Vec<u8> {
        assert!(self.open.is_empty(), "unclosed snapshot section");
        self.buf
    }
}

/// Bounds-checked snapshot decoder over a byte slice.
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

    /// Reads a `u8`.
    pub fn get_u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a `usize` stored as `u64`.
    pub fn get_usize(&mut self) -> Result<usize, SnapError> {
        usize::try_from(self.get_u64()?).map_err(|_| SnapError::BadValue {
            what: "usize overflows host word",
        })
    }

    /// Reads a `bool`; any byte other than 0/1 is invalid.
    pub fn get_bool(&mut self) -> Result<bool, SnapError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::BadValue { what: "bool tag" }),
        }
    }

    /// Reads an `f32` bit pattern.
    pub fn get_f32(&mut self) -> Result<f32, SnapError> {
        Ok(f32::from_bits(self.get_u32()?))
    }

    /// Reads an `f64` bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a sequence length whose elements occupy at least `elem_min`
    /// bytes each, rejecting lengths that cannot fit in the remaining
    /// input — a corrupt length can therefore never trigger a huge
    /// allocation.
    pub fn get_len(&mut self, elem_min: usize) -> Result<usize, SnapError> {
        let n = self.get_usize()?;
        let cap = self.remaining().checked_div(elem_min).unwrap_or(usize::MAX);
        if n > cap {
            return Err(SnapError::BadValue {
                what: "sequence length exceeds remaining input",
            });
        }
        Ok(n)
    }

    /// Reads a length-prefixed byte slice (borrowed, zero-copy).
    pub fn get_bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let n = self.get_len(1)?;
        self.take(n)
    }

    /// Reads an `Option` written by [`SnapWriter::put_opt`].
    pub fn get_opt<T>(
        &mut self,
        mut f: impl FnMut(&mut Self) -> Result<T, SnapError>,
    ) -> Result<Option<T>, SnapError> {
        if self.get_bool()? {
            Ok(Some(f(self)?))
        } else {
            Ok(None)
        }
    }

    /// Reads a length-prefixed sequence into a `Vec`.
    pub fn get_seq<T>(
        &mut self,
        elem_min: usize,
        mut f: impl FnMut(&mut Self) -> Result<T, SnapError>,
    ) -> Result<Vec<T>, SnapError> {
        let n = self.get_len(elem_min.max(1))?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(f(self)?);
        }
        Ok(out)
    }

    /// Enters a section, verifying its tag. Reads inside are bounded by
    /// the section's recorded length.
    fn begin_section(&mut self, tag: u32) -> Result<(), SnapError> {
        let found = self.get_u32()?;
        if found != tag {
            return Err(SnapError::SectionMismatch {
                expected: tag,
                found,
            });
        }
        let len = self.get_usize()?;
        if len > self.remaining() {
            return Err(SnapError::Truncated {
                offset: self.pos,
                need: len - self.remaining(),
            });
        }
        self.limits.push(self.pos + len);
        Ok(())
    }

    /// Leaves the innermost section, requiring it was consumed exactly.
    fn end_section(&mut self) -> Result<(), SnapError> {
        let limit = self
            .limits
            .pop()
            .expect("end_section without begin_section");
        if self.pos != limit {
            return Err(SnapError::TrailingBytes { offset: self.pos });
        }
        Ok(())
    }

    /// Reads one complete tagged section via a closure.
    pub fn section<T>(
        &mut self,
        tag: u32,
        f: impl FnOnce(&mut Self) -> Result<T, SnapError>,
    ) -> Result<T, SnapError> {
        self.begin_section(tag)?;
        let v = f(self)?;
        self.end_section()?;
        Ok(v)
    }

    /// Requires the input (or current section) to be fully consumed.
    pub fn finish(&self) -> Result<(), SnapError> {
        if self.remaining() != 0 {
            return Err(SnapError::TrailingBytes { offset: self.pos });
        }
        Ok(())
    }
}

/// Encodes a full snapshot container: header, body written by `f`, and
/// the trailing checksum.
pub fn write_container(cfg_hash: u64, f: impl FnOnce(&mut SnapWriter)) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.buf.extend_from_slice(&MAGIC);
    w.put_u32(FORMAT_VERSION);
    w.put_u64(cfg_hash);
    f(&mut w);
    let mut bytes = w.into_bytes();
    let sum = payload_checksum(&bytes);
    bytes.extend_from_slice(&sum.to_le_bytes());
    bytes
}

/// Validates a container's magic, checksum, version and config hash,
/// returning a reader positioned over the body.
///
/// Check order: magic first (is this a snapshot at all?), then the
/// checksum over everything (so arbitrary corruption is reported as
/// corruption, not as a misleading header error), then version, then
/// config hash.
pub fn open_container(bytes: &[u8], expected_cfg_hash: u64) -> Result<SnapReader<'_>, SnapError> {
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
    let mut r = SnapReader::new(&bytes[..body_end]);
    r.pos = MAGIC.len();
    let version = r.get_u32()?;
    if version != FORMAT_VERSION {
        return Err(SnapError::VersionSkew {
            found: version,
            expected: FORMAT_VERSION,
        });
    }
    let found = r.get_u64()?;
    if found != expected_cfg_hash {
        return Err(SnapError::ConfigHashMismatch {
            found,
            expected: expected_cfg_hash,
        });
    }
    Ok(r)
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
    body_end: usize,
}

impl SharedSnapshot {
    /// Validates the container once (magic, checksum, version) and wraps
    /// it for sharing. The stamped config hash is recorded, not checked:
    /// [`SharedSnapshot::reader`] enforces it.
    pub fn new(bytes: Vec<u8>) -> Result<Self, SnapError> {
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
        let cfg_hash = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
        Ok(Self {
            bytes: bytes.into(),
            cfg_hash,
            body_end,
        })
    }

    /// A reader positioned over the body, after checking the stamped
    /// config hash against `expected_cfg_hash`. No per-fork validation
    /// work happens here beyond that comparison — the expensive checksum
    /// ran once in [`SharedSnapshot::new`].
    pub fn reader(&self, expected_cfg_hash: u64) -> Result<SnapReader<'_>, SnapError> {
        if self.cfg_hash != expected_cfg_hash {
            return Err(SnapError::ConfigHashMismatch {
                found: self.cfg_hash,
                expected: expected_cfg_hash,
            });
        }
        let mut r = SnapReader::new(&self.bytes[..self.body_end]);
        r.pos = MAGIC.len() + 4 + 8; // skip magic, version, config hash
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check;
    use crate::rng::Xorshift64;

    #[test]
    fn shared_snapshot_matches_open_container() {
        let full = write_container(0xC0FFEE, |w| {
            w.section(3, |w| {
                w.put_u64(99);
                w.put_bytes(b"shared");
            });
        });
        let shared = SharedSnapshot::new(full).unwrap();
        // Many readers off one validated container decode identically.
        for _ in 0..3 {
            let mut r = shared.reader(0xC0FFEE).unwrap();
            r.section(3, |r| {
                assert_eq!(r.get_u64()?, 99);
                assert_eq!(r.get_bytes()?, b"shared");
                Ok(())
            })
            .unwrap();
            r.finish().unwrap();
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
        let full = write_container(1, |w| w.put_u64(5));
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

    #[test]
    fn scalar_round_trip_property() {
        check::check("snap_scalar_round_trip", |rng| {
            let u8v = rng.next_u64() as u8;
            let u32v = rng.next_u32();
            let u64v = rng.next_u64();
            let usv = rng.next_u64() as usize;
            let boolv = rng.chance(0.5);
            let f32v = f32::from_bits(rng.next_u32());
            let f64v = f64::from_bits(rng.next_u64());
            let n = rng.below(64) as usize;
            let bytes: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
            let optv: Option<u64> = if rng.chance(0.5) {
                Some(rng.next_u64())
            } else {
                None
            };
            let seq: Vec<u32> = (0..rng.below(17)).map(|_| rng.next_u32()).collect();

            let mut w = SnapWriter::new();
            w.put_u8(u8v);
            w.put_u32(u32v);
            w.put_u64(u64v);
            w.put_usize(usv);
            w.put_bool(boolv);
            w.put_f32(f32v);
            w.put_f64(f64v);
            w.put_bytes(&bytes);
            w.put_opt(&optv, |w, v| w.put_u64(*v));
            w.put_seq(seq.iter(), |w, v| w.put_u32(*v));
            let enc = w.into_bytes();

            let mut r = SnapReader::new(&enc);
            assert_eq!(r.get_u8().unwrap(), u8v);
            assert_eq!(r.get_u32().unwrap(), u32v);
            assert_eq!(r.get_u64().unwrap(), u64v);
            assert_eq!(r.get_usize().unwrap(), usv);
            assert_eq!(r.get_bool().unwrap(), boolv);
            assert_eq!(r.get_f32().unwrap().to_bits(), f32v.to_bits());
            assert_eq!(r.get_f64().unwrap().to_bits(), f64v.to_bits());
            assert_eq!(r.get_bytes().unwrap(), &bytes[..]);
            assert_eq!(r.get_opt(|r| r.get_u64()).unwrap(), optv);
            assert_eq!(r.get_seq(4, |r| r.get_u32()).unwrap(), seq);
            r.finish().unwrap();
        });
    }

    /// Encodes a nested-section fixture from an RNG stream; used by the
    /// round-trip and truncation properties below.
    fn encode_fixture(rng: &mut Xorshift64) -> (Vec<u8>, Vec<u64>) {
        let vals: Vec<u64> = (0..4 + rng.below(8)).map(|_| rng.next_u64()).collect();
        let mut w = SnapWriter::new();
        w.section(0x10, |w| {
            w.put_u64(vals[0]);
            w.section(0x11, |w| {
                w.put_seq(vals.iter(), |w, v| w.put_u64(*v));
            });
            w.section(0x12, |w| {
                w.put_f64(vals[1] as f64);
                w.put_bool(true);
            });
        });
        (w.into_bytes(), vals)
    }

    fn decode_fixture(bytes: &[u8]) -> Result<Vec<u64>, SnapError> {
        let mut r = SnapReader::new(bytes);
        let vals = r.section(0x10, |r| {
            let first = r.get_u64()?;
            let vals = r.section(0x11, |r| r.get_seq(8, |r| r.get_u64()))?;
            r.section(0x12, |r| {
                let _ = r.get_f64()?;
                let _ = r.get_bool()?;
                Ok(())
            })?;
            if vals.first() != Some(&first) {
                return Err(SnapError::BadValue {
                    what: "fixture first value",
                });
            }
            Ok(vals)
        })?;
        r.finish()?;
        Ok(vals)
    }

    #[test]
    fn section_round_trip_property() {
        check::check("snap_section_round_trip", |rng| {
            let (bytes, vals) = encode_fixture(rng);
            assert_eq!(decode_fixture(&bytes).unwrap(), vals);
        });
    }

    #[test]
    fn truncation_at_every_offset_is_typed() {
        check::check_n("snap_truncation_never_panics", 16, |rng| {
            let (bytes, _) = encode_fixture(rng);
            for cut in 0..bytes.len() {
                let r = decode_fixture(&bytes[..cut]);
                assert!(r.is_err(), "decode of {cut}-byte prefix succeeded");
            }
        });
    }

    #[test]
    fn container_truncation_at_every_offset_is_typed() {
        let full = write_container(0xABCD, |w| {
            w.section(1, |w| {
                w.put_u64(7);
                w.put_bytes(&[1, 2, 3]);
            });
        });
        let hash = 0xABCD;
        // The full container opens and decodes.
        let mut r = open_container(&full, hash).unwrap();
        r.section(1, |r| {
            assert_eq!(r.get_u64()?, 7);
            assert_eq!(r.get_bytes()?, &[1, 2, 3]);
            Ok(())
        })
        .unwrap();
        r.finish().unwrap();
        // Every strict prefix fails with a typed error, never a panic.
        for cut in 0..full.len() {
            let res = open_container(&full[..cut], hash).and_then(|mut r| {
                r.section(1, |r| {
                    let _ = r.get_u64()?;
                    let _ = r.get_bytes()?;
                    Ok(())
                })?;
                r.finish()
            });
            assert!(res.is_err(), "{cut}-byte prefix accepted");
        }
    }

    #[test]
    fn any_single_byte_corruption_is_caught() {
        let full = write_container(0x5EED, |w| {
            w.section(2, |w| {
                for i in 0..32u64 {
                    w.put_u64(i);
                }
            });
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
        let full = write_container(10, |w| w.put_u64(1));
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
        let mut w = SnapWriter::new();
        w.put_u64(u64::MAX); // absurd sequence length
        let enc = w.into_bytes();
        let mut r = SnapReader::new(&enc);
        match r.get_seq(8, |r| r.get_u64()) {
            Err(SnapError::BadValue { .. }) => {}
            other => panic!("expected BadValue, got {other:?}"),
        }
    }

    #[test]
    fn section_mismatch_and_overrun_are_typed() {
        let mut w = SnapWriter::new();
        w.section(7, |w| w.put_u64(1));
        let enc = w.into_bytes();
        let mut r = SnapReader::new(&enc);
        assert!(matches!(
            r.begin_section(8),
            Err(SnapError::SectionMismatch {
                expected: 8,
                found: 7
            })
        ));
        // Under-consuming a section is caught at end_section.
        let mut r = SnapReader::new(&enc);
        r.begin_section(7).unwrap();
        assert!(matches!(
            r.end_section(),
            Err(SnapError::TrailingBytes { .. })
        ));
        // Reading past a section's limit is caught as truncation.
        let mut r = SnapReader::new(&enc);
        r.begin_section(7).unwrap();
        r.get_u64().unwrap();
        assert!(matches!(r.get_u64(), Err(SnapError::Truncated { .. })));
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

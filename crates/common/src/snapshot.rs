//! Versioned, dependency-free binary snapshots of built synopses.
//!
//! A snapshot is the byte string produced by
//! [`Synopsis::save`](crate::Synopsis::save) and consumed by the engine
//! registry's load entry point (`pass_baselines::Engine::load`):
//!
//! ```text
//! magic        8 bytes   b"PASSSNAP"
//! version      u32 LE    SNAPSHOT_VERSION
//! section 0              EngineSpec canonical JSON (the header)
//! section 1..            engine-specific state, opaque to this layer
//!
//! section :=   length    u64 LE   payload byte count
//!              payload   `length` bytes
//!              checksum  u32 LE   CRC-32 (IEEE) of the payload
//! ```
//!
//! Everything is little-endian; floats travel as their IEEE-754 bit
//! patterns ([`f64::to_bits`]), so signed zeros and NaN payloads survive a
//! round trip bit-exactly. The spec header makes snapshots self-describing:
//! the loader dispatches on the embedded [`EngineSpec`] and rebuilds every
//! spec-derivable field from it, so the state sections carry only what the
//! spec cannot reproduce (trees, samples, epochs).
//!
//! # One codec
//!
//! Inside a state section every value goes through one trait, [`Codec`]:
//! `encode` appends it, `decode` reads it back from a [`Cursor`]. This
//! module implements it for the primitives (`u8`, `u32`, `u64`, `usize`
//! as `u64`, `f64` as its bits, `bool` as one 0/1 byte), `Option<T>` (the
//! same flag byte, then the value), pairs, `String`, `Vec<T>` (a `u64`
//! count, then the items; [`encode_slice`] writes a borrowed slice the
//! same way) and [`Aggregates`]. Composite types — table, sample, tree,
//! stratum, SPN node — implement it in the `snapshot.rs` module of their
//! own crate, which is where pass-lint rule 7 looks.
//!
//! # Decoding discipline
//!
//! Decoders must never panic or over-allocate on corrupt input. Every
//! count is checked against the *remaining* payload divided by its item
//! type's [`Codec::MIN_BYTES`] before anything is allocated, every read
//! goes through `get(..)`-style checked access (pass-lint rule 7 enforces
//! this lexically for the snapshot codec files, and refuses a `Codec`
//! impl or a `Cursor` anywhere else), and every failure maps onto one
//! [`SnapshotError`] variant — a state section's through
//! [`Cursor::drift`], which names the section and the byte offset:
//!
//! * [`BadMagic`](SnapshotError::BadMagic) — not a snapshot at all;
//! * [`VersionSkew`](SnapshotError::VersionSkew) — a future (or corrupted)
//!   format version; version 1 readers reject anything but version 1;
//! * [`Truncated`](SnapshotError::Truncated) — input ends before a declared
//!   length (includes length-field lies past the end of input);
//! * [`ChecksumMismatch`](SnapshotError::ChecksumMismatch) — a section's
//!   CRC disagrees with its payload (any single-bit flip is caught);
//! * [`TrailingBytes`](SnapshotError::TrailingBytes) — input continues after
//!   the last section the spec calls for;
//! * [`SpecMismatch`](SnapshotError::SpecMismatch) — the header or a
//!   CRC-valid state section disagrees with what the spec implies
//!   (encoder/decoder drift, or a corrupted header JSON).
//!
//! # Versioning policy
//!
//! The format version is bumped on any incompatible layout change; readers
//! support exactly the versions they know how to decode (currently only
//! [`SNAPSHOT_VERSION`]) and refuse the rest with `VersionSkew` rather than
//! guessing. The golden fixture under `tests/data/` pins version 1's exact
//! bytes so accidental drift fails loudly.

use std::fmt;

use crate::agg::Aggregates;
use crate::error::{PassError, Result};
use crate::spec::EngineSpec;

/// First eight bytes of every snapshot.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"PASSSNAP";

/// The (only) format version this build reads and writes.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Narrow a slice already sized to exactly `N` bytes (by `get` or
/// `take`) into a fixed array. Infallible at every call site, but kept
/// panic-free — zip stops at the shorter side — so no decoder path can
/// abort the process on corrupt input.
fn array<const N: usize>(bytes: &[u8]) -> [u8; N] {
    let mut out = [0u8; N];
    for (dst, src) in out.iter_mut().zip(bytes) {
        *dst = *src;
    }
    out
}

/// Everything that can go wrong while decoding a snapshot.
///
/// Carries no floats, so it stays `Eq`-comparable like the rest of
/// [`PassError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The input does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The input's format version is not supported by this reader.
    VersionSkew {
        /// Version found in the input.
        found: u32,
        /// Version this reader supports.
        supported: u32,
    },
    /// The input ends before a declared length (`what` names the field
    /// being read when the bytes ran out).
    Truncated {
        /// The field or region whose bytes were missing.
        what: &'static str,
    },
    /// A section's CRC-32 does not match its payload.
    ChecksumMismatch {
        /// Zero-based section index (0 is the spec header).
        section: u32,
    },
    /// Bytes remain after the final section the spec calls for.
    TrailingBytes {
        /// Number of unconsumed bytes.
        extra: u64,
    },
    /// The header or a checksum-valid state section disagrees with what
    /// the embedded spec implies.
    SpecMismatch(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a PASS snapshot (bad magic)"),
            SnapshotError::VersionSkew { found, supported } => {
                write!(
                    f,
                    "snapshot format version {found} is not supported (reader supports {supported})"
                )
            }
            SnapshotError::Truncated { what } => {
                write!(f, "snapshot truncated while reading {what}")
            }
            SnapshotError::ChecksumMismatch { section } => {
                write!(f, "snapshot section {section} failed its checksum")
            }
            SnapshotError::TrailingBytes { extra } => {
                write!(
                    f,
                    "snapshot has {extra} trailing bytes after the last section"
                )
            }
            SnapshotError::SpecMismatch(why) => {
                write!(f, "snapshot state disagrees with its spec: {why}")
            }
        }
    }
}

impl From<SnapshotError> for PassError {
    fn from(err: SnapshotError) -> Self {
        PassError::Snapshot(err)
    }
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320)
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        // bounds: `i` walks 0..256 over the fixed-size table, not input.
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE) of `bytes`. Guarantees detection of any single-bit flip,
/// which is what pins the adversarial bit-flip tests to
/// [`SnapshotError::ChecksumMismatch`].
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        let idx = ((crc ^ b as u32) & 0xFF) as usize;
        // bounds: idx is masked to 0..=255 and the table has 256 entries.
        crc = (crc >> 8) ^ CRC32_TABLE[idx];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// Append the snapshot preamble — magic, version, and the spec header
/// section — to `out`.
pub fn write_header(out: &mut Vec<u8>, spec: &EngineSpec) {
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    write_section(out, spec.to_json().as_bytes());
}

/// Append one framed section (length prefix, payload, CRC-32) to `out`.
pub fn write_section(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

/// A checked reader over one snapshot byte string: validates the preamble
/// once ([`open`](SnapshotReader::open)), then hands out checksum-verified
/// section payloads in order.
pub struct SnapshotReader<'a> {
    buf: &'a [u8],
    pos: usize,
    next_section: u32,
}

impl<'a> SnapshotReader<'a> {
    /// Validate magic, version, and the spec header, whose spec must pass
    /// [`EngineSpec::validate`] (one the build path would refuse cannot
    /// describe a saved engine); return the embedded spec plus a reader
    /// positioned at the first state section.
    pub fn open(bytes: &'a [u8]) -> Result<(EngineSpec, Self)> {
        let magic = bytes
            .get(..SNAPSHOT_MAGIC.len())
            .ok_or(SnapshotError::Truncated { what: "magic" })?;
        if magic != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic.into());
        }
        let version_bytes = bytes
            .get(SNAPSHOT_MAGIC.len()..SNAPSHOT_MAGIC.len() + 4)
            .ok_or(SnapshotError::Truncated {
                what: "format version",
            })?;
        let version = u32::from_le_bytes(array(version_bytes));
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::VersionSkew {
                found: version,
                supported: SNAPSHOT_VERSION,
            }
            .into());
        }
        let mut reader = Self {
            buf: bytes,
            pos: SNAPSHOT_MAGIC.len() + 4,
            next_section: 0,
        };
        let header = reader.section()?;
        let text = std::str::from_utf8(header)
            .map_err(|_| SnapshotError::SpecMismatch("spec header is not UTF-8".into()))?;
        let spec = EngineSpec::from_json(text)
            .and_then(|spec| spec.validate().map(|()| spec))
            .map_err(|e| SnapshotError::SpecMismatch(format!("spec header: {e}")))?;
        Ok((spec, reader))
    }

    /// Read the next section's payload, verifying its length against the
    /// remaining input *before* any slicing and its CRC after.
    pub fn section(&mut self) -> Result<&'a [u8]> {
        let len_bytes = self
            .buf
            .get(self.pos..self.pos + 8)
            .ok_or(SnapshotError::Truncated {
                what: "section length",
            })?;
        let len = u64::from_le_bytes(array(len_bytes));
        // Validate the declared length against what is actually left
        // (payload + 4-byte CRC) before touching the payload — a lying
        // length field must fail here, not in a slice or an allocation.
        let remaining = (self.buf.len() - self.pos - 8) as u64;
        if len.checked_add(4).is_none_or(|need| need > remaining) {
            return Err(SnapshotError::Truncated {
                what: "section payload",
            }
            .into());
        }
        let len = len as usize;
        let payload_start = self.pos + 8;
        let payload =
            self.buf
                .get(payload_start..payload_start + len)
                .ok_or(SnapshotError::Truncated {
                    what: "section payload",
                })?;
        let crc_bytes = self
            .buf
            .get(payload_start + len..payload_start + len + 4)
            .ok_or(SnapshotError::Truncated {
                what: "section checksum",
            })?;
        let stored = u32::from_le_bytes(array(crc_bytes));
        if crc32(payload) != stored {
            return Err(SnapshotError::ChecksumMismatch {
                section: self.next_section,
            }
            .into());
        }
        self.pos = payload_start + len + 4;
        self.next_section += 1;
        Ok(payload)
    }

    /// Assert the whole input was consumed; the complement of
    /// [`section`](Self::section)'s truncation checks.
    pub fn finish(self) -> Result<()> {
        if self.pos != self.buf.len() {
            return Err(SnapshotError::TrailingBytes {
                extra: (self.buf.len() - self.pos) as u64,
            }
            .into());
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The codec: one trait for every value inside a state section
// ---------------------------------------------------------------------------

/// A value's wire form inside a state section, and its checked decoder.
///
/// Layout rules, stated once here for every type: integers and floats
/// are little-endian (`usize` travels as `u64`, `f64` as its bits), a
/// `bool` is one 0/1 byte, `Option` is that byte plus the value when 1,
/// a pair is its halves back to back, and a sequence is a `u64` count
/// followed by its items.
pub trait Codec: Sized {
    /// The fewest bytes one encoded value occupies. A decoded count of
    /// these values is checked against `remaining / MIN_BYTES` before
    /// anything is allocated for them.
    const MIN_BYTES: usize;

    /// Append this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Read one value, failing as [`SnapshotError::SpecMismatch`] (via
    /// [`Cursor::drift`]) on a short payload or a value the type rejects.
    fn decode(c: &mut Cursor<'_>) -> Result<Self>;
}

/// Append `items` as a sequence: the count, then every item. The
/// borrowed-slice twin of `Vec<T>`'s encoding.
pub fn encode_slice<T: Codec>(items: &[T], out: &mut Vec<u8>) {
    items.len().encode(out);
    for item in items {
        item.encode(out);
    }
}

macro_rules! le_codec {
    ($($ty:ty),+) => {$(
        impl Codec for $ty {
            const MIN_BYTES: usize = std::mem::size_of::<$ty>();
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(c: &mut Cursor<'_>) -> Result<Self> {
                Ok(<$ty>::from_le_bytes(array(c.take(Self::MIN_BYTES)?)))
            }
        }
    )+};
}

le_codec!(u8, u32, u64);

impl Codec for usize {
    const MIN_BYTES: usize = 8;
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn decode(c: &mut Cursor<'_>) -> Result<Self> {
        Ok(c.read::<u64>()? as usize)
    }
}

impl Codec for f64 {
    const MIN_BYTES: usize = 8;
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
    fn decode(c: &mut Cursor<'_>) -> Result<Self> {
        Ok(f64::from_bits(c.read()?))
    }
}

impl Codec for bool {
    const MIN_BYTES: usize = 1;
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(c: &mut Cursor<'_>) -> Result<Self> {
        match c.read::<u8>()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(c.drift(format_args!("flag byte {other} is not 0 or 1"))),
        }
    }
}

impl<T: Codec> Codec for Option<T> {
    const MIN_BYTES: usize = 1;
    fn encode(&self, out: &mut Vec<u8>) {
        self.is_some().encode(out);
        if let Some(value) = self {
            value.encode(out);
        }
    }
    fn decode(c: &mut Cursor<'_>) -> Result<Self> {
        Ok(match c.read()? {
            true => Some(c.read()?),
            false => None,
        })
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(c: &mut Cursor<'_>) -> Result<Self> {
        Ok((c.read()?, c.read()?))
    }
}

impl Codec for String {
    const MIN_BYTES: usize = 8;
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(c: &mut Cursor<'_>) -> Result<Self> {
        let len = c.count(1)?;
        let bytes = c.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| c.drift("a string is not UTF-8"))
    }
}

impl<T: Codec> Codec for Vec<T> {
    const MIN_BYTES: usize = 8;
    fn encode(&self, out: &mut Vec<u8>) {
        encode_slice(self, out);
    }
    fn decode(c: &mut Cursor<'_>) -> Result<Self> {
        let len = c.count(T::MIN_BYTES)?;
        let mut items = Vec::with_capacity(len);
        for _ in 0..len {
            items.push(c.read()?);
        }
        Ok(items)
    }
}

impl Codec for Aggregates {
    const MIN_BYTES: usize = 40;
    fn encode(&self, out: &mut Vec<u8>) {
        self.sum.encode(out);
        self.sum_sq.encode(out);
        self.count.encode(out);
        self.min.encode(out);
        self.max.encode(out);
    }
    fn decode(c: &mut Cursor<'_>) -> Result<Self> {
        Ok(Aggregates {
            sum: c.read()?,
            sum_sq: c.read()?,
            count: c.read()?,
            min: c.read()?,
            max: c.read()?,
        })
    }
}

/// The one reader of a (checksum-verified) state section payload,
/// labelled with the section's name. The payload already passed its
/// CRC, so any shortfall or rejected value is encoder/decoder drift: every
/// failure is a [`SnapshotError::SpecMismatch`] naming the section and
/// the byte offset it was found at.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    section: &'static str,
}

impl<'a> Cursor<'a> {
    /// Wrap the payload of the section called `section`.
    pub fn new(buf: &'a [u8], section: &'static str) -> Self {
        Self {
            buf,
            pos: 0,
            section,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Decode the next `T`.
    pub fn read<T: Codec>(&mut self) -> Result<T> {
        T::decode(self)
    }

    /// Read a `u64` count of items that take at least `min_bytes` each,
    /// refusing one the rest of the payload cannot hold — so a lying
    /// count fails here, never in an allocation sized by it.
    pub fn count(&mut self, min_bytes: usize) -> Result<usize> {
        let n: u64 = self.read()?;
        let room = (self.remaining() / min_bytes.max(1)) as u64;
        if n > room {
            return Err(self.drift(format_args!(
                "count {n} exceeds the {room} items the payload has room for"
            )));
        }
        Ok(n as usize)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let bytes = self
            .buf
            .get(self.pos..self.pos.saturating_add(n))
            .ok_or_else(|| {
                self.drift(format_args!("{n} bytes wanted, {} left", self.remaining()))
            })?;
        self.pos += n;
        Ok(bytes)
    }

    /// The error for a payload that disagrees with its decoder: `why`,
    /// prefixed with the section's name and the current byte offset.
    pub fn drift(&self, why: impl fmt::Display) -> PassError {
        SnapshotError::SpecMismatch(format!("{} at byte {}: {why}", self.section, self.pos)).into()
    }

    /// Assert the payload was consumed exactly.
    pub fn done(&self) -> Result<()> {
        match self.remaining() {
            0 => Ok(()),
            left => Err(self.drift(format_args!("{left} undecoded bytes"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> EngineSpec {
        EngineSpec::uniform(500).with_seed(42)
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn header_and_sections_round_trip() {
        let mut bytes = Vec::new();
        write_header(&mut bytes, &sample_spec());
        write_section(&mut bytes, b"alpha");
        write_section(&mut bytes, b"");
        let (spec, mut r) = SnapshotReader::open(&bytes).unwrap();
        assert_eq!(spec, sample_spec());
        assert_eq!(r.section().unwrap(), b"alpha");
        assert_eq!(r.section().unwrap(), b"");
        r.finish().unwrap();
    }

    #[test]
    fn bad_magic_and_version_skew() {
        let mut bytes = Vec::new();
        write_header(&mut bytes, &sample_spec());
        let mut wrong = bytes.clone();
        wrong[0] ^= 0xFF;
        assert_eq!(
            SnapshotReader::open(&wrong).err(),
            Some(PassError::Snapshot(SnapshotError::BadMagic))
        );
        let mut future = bytes.clone();
        future[8] = 9;
        assert_eq!(
            SnapshotReader::open(&future).err(),
            Some(PassError::Snapshot(SnapshotError::VersionSkew {
                found: 9,
                supported: SNAPSHOT_VERSION
            }))
        );
    }

    #[test]
    fn truncation_checksum_and_trailing_are_detected() {
        let mut bytes = Vec::new();
        write_header(&mut bytes, &sample_spec());
        write_section(&mut bytes, b"payload");
        // Truncate inside the payload.
        let cut = &bytes[..bytes.len() - 3];
        let (_, mut r) = SnapshotReader::open(cut).unwrap();
        assert!(matches!(
            r.section().err(),
            Some(PassError::Snapshot(SnapshotError::Truncated { .. }))
        ));
        // Flip one payload bit.
        let mut flipped = bytes.clone();
        let last_payload = flipped.len() - 5;
        flipped[last_payload] ^= 0x01;
        let (_, mut r) = SnapshotReader::open(&flipped).unwrap();
        assert_eq!(
            r.section().err(),
            Some(PassError::Snapshot(SnapshotError::ChecksumMismatch {
                section: 1
            }))
        );
        // Trailing garbage.
        let mut trailing = bytes.clone();
        trailing.extend_from_slice(b"xy");
        let (_, mut r) = SnapshotReader::open(&trailing).unwrap();
        r.section().unwrap();
        assert_eq!(
            r.finish().err(),
            Some(PassError::Snapshot(SnapshotError::TrailingBytes {
                extra: 2
            }))
        );
    }

    #[test]
    fn lying_length_fields_fail_before_allocation() {
        let mut bytes = Vec::new();
        write_header(&mut bytes, &sample_spec());
        let section_start = bytes.len();
        write_section(&mut bytes, b"abc");
        // Claim a gigantic payload; the reader must refuse without slicing.
        bytes[section_start..section_start + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let (_, mut r) = SnapshotReader::open(&bytes).unwrap();
        assert!(matches!(
            r.section().err(),
            Some(PassError::Snapshot(SnapshotError::Truncated { .. }))
        ));
    }

    #[test]
    fn cursor_round_trips_every_primitive() {
        let mut payload = Vec::new();
        7u8.encode(&mut payload);
        7u32.encode(&mut payload);
        u64::MAX.encode(&mut payload);
        usize::MAX.encode(&mut payload);
        (-0.0f64).encode(&mut payload);
        f64::from_bits(0x7FF8_0000_DEAD_BEEF).encode(&mut payload);
        true.encode(&mut payload);
        None::<u64>.encode(&mut payload);
        Some(3u64).encode(&mut payload);
        (1.5f64, 2u32).encode(&mut payload);
        "naïve".to_string().encode(&mut payload);
        vec![1.5, f64::NEG_INFINITY].encode(&mut payload);
        encode_slice(&[1u32, 2, 3], &mut payload);
        let agg = Aggregates::from_values(&[2.0, -1.0]);
        agg.encode(&mut payload);
        let mut c = Cursor::new(&payload, "primitives");
        assert_eq!(c.read::<u8>().unwrap(), 7);
        assert_eq!(c.read::<u32>().unwrap(), 7);
        assert_eq!(c.read::<u64>().unwrap(), u64::MAX);
        assert_eq!(c.read::<usize>().unwrap(), usize::MAX);
        assert_eq!(c.read::<f64>().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(c.read::<f64>().unwrap().to_bits(), 0x7FF8_0000_DEAD_BEEF);
        assert!(c.read::<bool>().unwrap());
        assert_eq!(c.read::<Option<u64>>().unwrap(), None);
        assert_eq!(c.read::<Option<u64>>().unwrap(), Some(3));
        assert_eq!(c.read::<(f64, u32)>().unwrap(), (1.5, 2));
        assert_eq!(c.read::<String>().unwrap(), "naïve");
        let seq: Vec<f64> = c.read().unwrap();
        assert_eq!(seq.len(), 2);
        assert_eq!(seq[1], f64::NEG_INFINITY);
        assert_eq!(c.read::<Vec<u32>>().unwrap(), vec![1, 2, 3]);
        assert_eq!(c.read::<Aggregates>().unwrap(), agg);
        c.done().unwrap();
        // The wire widths the format has always had.
        assert_eq!(
            payload.len(),
            1 + 4 + 8 + 8 + 16 + 1 + 1 + 9 + 12 + 14 + 24 + 20 + 40
        );
    }

    #[test]
    fn cursor_rejects_lying_counts_and_leftovers() {
        let mut payload = Vec::new();
        usize::MAX.encode(&mut payload); // count with no bytes behind it
        let mut c = Cursor::new(&payload, "vals");
        assert!(matches!(
            c.read::<Vec<f64>>().err(),
            Some(PassError::Snapshot(SnapshotError::SpecMismatch(_)))
        ));
        // A count the bytes could hold as `u8`s but not as `f64`s.
        let mut payload = Vec::new();
        2usize.encode(&mut payload);
        payload.extend_from_slice(&[0; 15]);
        let mut c = Cursor::new(&payload, "vals");
        assert!(c.read::<Vec<f64>>().is_err());
        let mut payload = Vec::new();
        1u32.encode(&mut payload);
        2u32.encode(&mut payload);
        let mut c = Cursor::new(&payload, "leftover");
        c.read::<u32>().unwrap();
        let err = c.done().err();
        assert_eq!(
            err,
            Some(PassError::Snapshot(SnapshotError::SpecMismatch(
                "leftover at byte 4: 4 undecoded bytes".into()
            )))
        );
        // Anything but 0/1 in a flag byte is drift, named by its offset.
        let mut c = Cursor::new(&[1, 2], "flags");
        assert!(c.read::<bool>().unwrap());
        let why = "flags at byte 2: flag byte 2 is not 0 or 1";
        assert_eq!(
            c.read::<Option<u8>>().err(),
            Some(PassError::Snapshot(SnapshotError::SpecMismatch(why.into())))
        );
    }
}

//! Versioned, checksummed binary snapshots of simulator state.
//!
//! A snapshot is a single self-describing byte container:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"MNSP"
//! 4       4     format version (little-endian u32)
//! 8       1     payload kind (KIND_NOC, KIND_SYSTEM, ...)
//! 9       8     payload length in bytes (little-endian u64)
//! 17      n     payload (kind-specific field stream)
//! 17+n    8     Fletcher-64 checksum of bytes [0, 17+n)
//! ```
//!
//! The payload itself is a flat little-endian field stream written by
//! [`SnapshotWriter`] and read back by [`SnapshotReader`]; sequences are
//! length-prefixed, options are tag-prefixed. There is no external
//! serialization dependency — the codec is hand-rolled in the same spirit
//! as the `multinoc-bench::json` parser, and every decode path is bounds-
//! checked so that truncated, bit-flipped, or otherwise corrupt input
//! yields a typed [`SnapshotError`], never a panic or a silently wrong
//! restore.
//!
//! Versioning policy: the format version is bumped whenever the payload
//! layout changes; decoders accept exactly the versions they know how to
//! parse ([`MIN_SNAPSHOT_VERSION`]..=[`SNAPSHOT_VERSION`]) and reject
//! everything else with [`SnapshotError::UnsupportedVersion`]. Snapshots are portable
//! across kernel modes by construction — the determinism contract makes
//! `Reference`, `Active` and `Parallel` kernels produce bit-identical
//! observable state, so a snapshot taken under one kernel restores under
//! any other.

use std::error::Error;
use std::fmt;

use crate::addr::{Port, RouterAddr};
use crate::stats::LinkId;

/// Magic bytes opening every snapshot container.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"MNSP";

/// Current snapshot format version. Version 4 appends the optional
/// telemetry sampler to network payloads and the optional service-span
/// log to system payloads; version-3 payloads (which end before those
/// sections) still decode with both features disabled. Version 3 leads
/// the embedded configuration with a topology tag (mesh / torus /
/// chiplet mesh); version 2 predates the topology abstraction — its
/// payloads open with bare mesh dimensions and are still decodable (as
/// `Topology::Mesh`, the only shape that existed then). Version 2
/// itself added a configuration field for a batch-window knob that has
/// since been retired (its slot is still written as 0 and ignored on
/// read); version-1 containers predate it and are rejected rather than
/// guessed at.
pub const SNAPSHOT_VERSION: u32 = 4;

/// Oldest snapshot format version the reader still decodes.
pub const MIN_SNAPSHOT_VERSION: u32 = 2;

/// Payload kind: a bare [`Noc`](crate::Noc) network snapshot.
pub const KIND_NOC: u8 = 1;

/// Payload kind: a full `multinoc` `System` snapshot (embeds a NoC
/// payload plus all IP-core state).
pub const KIND_SYSTEM: u8 = 2;

/// Size of the fixed container header preceding the payload.
/// Container header length: magic, version, kind and payload length.
pub const HEADER_LEN: usize = 4 + 4 + 1 + 8;

/// Size of the trailing checksum.
const TRAILER_LEN: usize = 8;

/// Any failure decoding (or persisting) a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The input ended before the declared container or field boundary.
    Truncated,
    /// The input does not start with the snapshot magic.
    BadMagic,
    /// The snapshot was written by an unknown format version.
    UnsupportedVersion(u32),
    /// The snapshot holds a different payload kind than requested (for
    /// example a bare NoC snapshot fed to a `System` restore).
    WrongKind {
        /// The kind the decoder expected.
        expected: u8,
        /// The kind found in the header.
        found: u8,
    },
    /// The Fletcher-64 checksum does not match the container bytes.
    ChecksumMismatch,
    /// The payload describes a mesh whose shape disagrees with its own
    /// per-router state (for example a 2×2 config followed by 9 routers).
    MeshMismatch {
        /// Mesh width from the embedded config.
        width: u8,
        /// Mesh height from the embedded config.
        height: u8,
        /// Router-state entries actually present in the payload.
        routers: usize,
    },
    /// A field failed validation; the message names the offending field.
    Malformed(&'static str),
    /// Bytes remained after the payload was fully decoded.
    TrailingBytes(usize),
    /// An I/O error while reading or writing a snapshot file.
    Io(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v}")
            }
            SnapshotError::WrongKind { expected, found } => {
                write!(f, "wrong snapshot kind {found} (expected {expected})")
            }
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotError::MeshMismatch {
                width,
                height,
                routers,
            } => write!(
                f,
                "snapshot mesh shape {width}x{height} disagrees with {routers} router entries"
            ),
            SnapshotError::Malformed(what) => write!(f, "malformed snapshot field: {what}"),
            SnapshotError::TrailingBytes(n) => {
                write!(f, "{n} trailing bytes after snapshot payload")
            }
            SnapshotError::Io(msg) => write!(f, "snapshot i/o error: {msg}"),
        }
    }
}

impl Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e.to_string())
    }
}

/// Fletcher-64 over little-endian 32-bit blocks (zero-padded tail).
///
/// Public so tests can re-seal deliberately corrupted containers and
/// assert the decoder rejects them for the *right* reason.
pub fn fletcher64(data: &[u8]) -> u64 {
    const MODULUS: u64 = 0xFFFF_FFFF;
    // Reducing once per block of words instead of once per word leaves
    // the same residues: each word adds less than 2^32 to `a`, and `a`
    // stays below 2^45 over a block, so `b` cannot overflow either.
    const BLOCK_BYTES: usize = 4 * 4096;
    let (mut a, mut b) = (0u64, 0u64);
    for block in data.chunks(BLOCK_BYTES) {
        let mut words = block.chunks_exact(4);
        for w in words.by_ref() {
            a += u64::from(u32::from_le_bytes([w[0], w[1], w[2], w[3]]));
            b += a;
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 4];
            word[..tail.len()].copy_from_slice(tail);
            a += u64::from(u32::from_le_bytes(word));
            b += a;
        }
        a %= MODULUS;
        b %= MODULUS;
    }
    (b << 32) | a
}

/// Appends little-endian fields to a growing snapshot payload, then seals
/// the container with header and checksum.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    /// Creates an empty payload writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes written to the payload so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a little-endian `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Writes an `f64` by bit pattern (exact round-trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes an optional `u64` as a presence tag plus the value.
    pub fn put_opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.put_u8(0),
            Some(x) => {
                self.put_u8(1);
                self.put_u64(x);
            }
        }
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes a length-prefixed opaque byte blob (for example a nested,
    /// independently sealed snapshot container).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_usize(bytes.len());
        self.buf.extend_from_slice(bytes);
    }

    /// Writes a router address as its two mesh coordinates.
    pub fn put_addr(&mut self, addr: RouterAddr) {
        self.put_u8(addr.x());
        self.put_u8(addr.y());
    }

    /// Writes a port as its index tag.
    pub fn put_port(&mut self, port: Port) {
        self.put_u8(port.index() as u8);
    }

    /// Writes a directed link (upstream router, output port).
    pub fn put_link(&mut self, link: LinkId) {
        self.put_addr(link.0);
        self.put_port(link.1);
    }

    /// [`fletcher64`] of the payload written so far, without sealing
    /// it: the digest behind the simulators' state fingerprints.
    pub fn digest(&self) -> u64 {
        fletcher64(&self.buf)
    }

    /// Seals the payload into a container of the given kind: header,
    /// payload, Fletcher-64 checksum.
    pub fn finish(self, kind: u8) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.buf.len() + TRAILER_LEN);
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.push(kind);
        out.extend_from_slice(&(self.buf.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.buf);
        let checksum = fletcher64(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }
}

/// Reads little-endian fields back out of a verified snapshot payload.
///
/// [`SnapshotReader::open`] validates magic, version, kind, declared
/// length and checksum before any field is decoded, so field reads only
/// ever see a container that is structurally intact; every field read is
/// still individually bounds-checked against the payload end.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    buf: &'a [u8],
    pos: usize,
    version: u32,
}

impl<'a> SnapshotReader<'a> {
    /// Validates the container and returns a reader over its payload.
    ///
    /// # Errors
    ///
    /// Returns a typed [`SnapshotError`] when the container is truncated,
    /// has the wrong magic, an unknown version, a different payload kind,
    /// a length that disagrees with the input, or a failing checksum.
    pub fn open(bytes: &'a [u8], expect_kind: u8) -> Result<Self, SnapshotError> {
        if bytes.len() < HEADER_LEN + TRAILER_LEN {
            return Err(SnapshotError::Truncated);
        }
        if bytes[0..4] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        if !(MIN_SNAPSHOT_VERSION..=SNAPSHOT_VERSION).contains(&version) {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let kind = bytes[8];
        let payload_len = u64::from_le_bytes(bytes[9..17].try_into().unwrap());
        let declared = (HEADER_LEN as u64)
            .checked_add(payload_len)
            .and_then(|n| n.checked_add(TRAILER_LEN as u64))
            .ok_or(SnapshotError::Malformed("payload length overflows"))?;
        if declared != bytes.len() as u64 {
            return Err(SnapshotError::Truncated);
        }
        let body_end = bytes.len() - TRAILER_LEN;
        let stored = u64::from_le_bytes(bytes[body_end..].try_into().unwrap());
        if fletcher64(&bytes[..body_end]) != stored {
            return Err(SnapshotError::ChecksumMismatch);
        }
        // Kind is checked after the checksum so a corrupted kind byte
        // reports as corruption, not as a confusing kind mismatch.
        if kind != expect_kind {
            return Err(SnapshotError::WrongKind {
                expected: expect_kind,
                found: kind,
            });
        }
        Ok(Self {
            buf: &bytes[HEADER_LEN..body_end],
            pos: 0,
            version,
        })
    }

    /// Container format version this payload was written under (within
    /// [`MIN_SNAPSHOT_VERSION`]..=[`SNAPSHOT_VERSION`]); decoders branch
    /// on it to parse historic layouts.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Payload bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] past the payload end.
    pub fn take_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] past the payload end.
    pub fn take_u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] past the payload end.
    pub fn take_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] past the payload end.
    pub fn take_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `usize` written by [`SnapshotWriter::put_usize`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] past the payload end, or
    /// [`SnapshotError::Malformed`] when the value does not fit `usize`.
    pub fn take_usize(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.take_u64()?).map_err(|_| SnapshotError::Malformed("usize overflow"))
    }

    /// Reads a bool, rejecting anything but 0 or 1.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] or [`SnapshotError::Malformed`].
    pub fn take_bool(&mut self) -> Result<bool, SnapshotError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Malformed("bool tag")),
        }
    }

    /// Reads an `f64` by bit pattern.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] past the payload end.
    pub fn take_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Reads an optional `u64` written by [`SnapshotWriter::put_opt_u64`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] or [`SnapshotError::Malformed`].
    pub fn take_opt_u64(&mut self) -> Result<Option<u64>, SnapshotError> {
        match self.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.take_u64()?)),
            _ => Err(SnapshotError::Malformed("option tag")),
        }
    }

    /// Reads a sequence length prefix, bounding it by the bytes actually
    /// remaining (`elem_floor` = minimum encoded size of one element) so
    /// a corrupt length can never trigger an outsized allocation.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] or [`SnapshotError::Malformed`].
    pub fn take_len(&mut self, elem_floor: usize) -> Result<usize, SnapshotError> {
        let len = self.take_usize()?;
        let floor = elem_floor.max(1);
        if len
            .checked_mul(floor)
            .is_none_or(|bytes| bytes > self.remaining())
        {
            return Err(SnapshotError::Malformed("sequence length exceeds payload"));
        }
        Ok(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] or [`SnapshotError::Malformed`].
    pub fn take_str(&mut self) -> Result<String, SnapshotError> {
        let len = self.take_len(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapshotError::Malformed("utf-8 string"))
    }

    /// Reads a length-prefixed opaque byte blob written by
    /// [`SnapshotWriter::put_bytes`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] or [`SnapshotError::Malformed`].
    pub fn take_bytes(&mut self) -> Result<Vec<u8>, SnapshotError> {
        let len = self.take_len(1)?;
        Ok(self.take(len)?.to_vec())
    }

    /// Reads a router address (no mesh-bounds check; callers validate
    /// against their config where it matters).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] past the payload end.
    pub fn take_addr(&mut self) -> Result<RouterAddr, SnapshotError> {
        let x = self.take_u8()?;
        let y = self.take_u8()?;
        Ok(RouterAddr::new(x, y))
    }

    /// Reads a router address, validating it lies on a `width`×`height`
    /// mesh.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] or [`SnapshotError::Malformed`].
    pub fn take_addr_in(&mut self, width: u8, height: u8) -> Result<RouterAddr, SnapshotError> {
        let addr = self.take_addr()?;
        if addr.x() >= width || addr.y() >= height {
            return Err(SnapshotError::Malformed("router address outside mesh"));
        }
        Ok(addr)
    }

    /// Reads a port tag, rejecting anything but the five valid ports.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] or [`SnapshotError::Malformed`].
    pub fn take_port(&mut self) -> Result<Port, SnapshotError> {
        let tag = usize::from(self.take_u8()?);
        if tag >= Port::ALL.len() {
            return Err(SnapshotError::Malformed("port tag"));
        }
        Ok(Port::from_index(tag))
    }

    /// Reads a directed link whose router must lie on a `width`×`height`
    /// mesh.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] or [`SnapshotError::Malformed`].
    pub fn take_link_in(&mut self, width: u8, height: u8) -> Result<LinkId, SnapshotError> {
        let addr = self.take_addr_in(width, height)?;
        let port = self.take_port()?;
        Ok((addr, port))
    }

    /// Asserts the payload was consumed exactly.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::TrailingBytes`] when bytes remain.
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.remaining() != 0 {
            return Err(SnapshotError::TrailingBytes(self.remaining()));
        }
        Ok(())
    }
}

/// Atomically writes `bytes` to `path`: the data lands in a sibling
/// temporary file first and is renamed over the target only once fully
/// written, so a crash mid-write never corrupts the previous snapshot.
///
/// # Errors
///
/// [`SnapshotError::Io`] on any filesystem failure.
pub fn write_atomic(path: &std::path::Path, bytes: &[u8]) -> Result<(), SnapshotError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.put_u8(7);
        w.put_u16(0xBEEF);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_bool(true);
        w.put_f64(0.125);
        w.put_opt_u64(Some(42));
        w.put_opt_u64(None);
        w.put_str("worm");
        w.put_bytes(&[0x00, 0xFF, 0x7A]);
        w.finish(KIND_NOC)
    }

    #[test]
    fn round_trips_every_primitive() {
        let bytes = sample();
        let mut r = SnapshotReader::open(&bytes, KIND_NOC).unwrap();
        assert_eq!(r.take_u8().unwrap(), 7);
        assert_eq!(r.take_u16().unwrap(), 0xBEEF);
        assert_eq!(r.take_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.take_u64().unwrap(), u64::MAX - 3);
        assert!(r.take_bool().unwrap());
        assert_eq!(r.take_f64().unwrap(), 0.125);
        assert_eq!(r.take_opt_u64().unwrap(), Some(42));
        assert_eq!(r.take_opt_u64().unwrap(), None);
        assert_eq!(r.take_str().unwrap(), "worm");
        assert_eq!(r.take_bytes().unwrap(), vec![0x00, 0xFF, 0x7A]);
        r.finish().unwrap();
    }

    #[test]
    fn fletcher64_matches_the_per_word_definition() {
        let per_word = |data: &[u8]| {
            let (mut a, mut b) = (0u64, 0u64);
            for chunk in data.chunks(4) {
                let mut word = [0u8; 4];
                word[..chunk.len()].copy_from_slice(chunk);
                a = (a + u64::from(u32::from_le_bytes(word))) % 0xFFFF_FFFF;
                b = (b + a) % 0xFFFF_FFFF;
            }
            (b << 32) | a
        };
        let data: Vec<u8> = (0..40_000u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for len in [0, 1, 3, 4, 5, 16_383, 16_384, 16_387, 40_000] {
            assert_eq!(
                fletcher64(&data[..len]),
                per_word(&data[..len]),
                "length {len}"
            );
        }
        let ones = vec![0xFF; 3 * 16_384 + 2];
        assert_eq!(fletcher64(&ones), per_word(&ones));
    }

    #[test]
    fn rejects_bad_magic_version_kind() {
        let bytes = sample();
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(
            SnapshotReader::open(&bad, KIND_NOC).unwrap_err(),
            SnapshotError::BadMagic
        );
        let mut w = SnapshotWriter::new();
        w.put_u8(1);
        let mut versioned = w.finish(KIND_NOC);
        versioned[4] = 99;
        // Re-seal the checksum so only the version is wrong.
        let end = versioned.len() - TRAILER_LEN;
        let sum = fletcher64(&versioned[..end]);
        versioned[end..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            SnapshotReader::open(&versioned, KIND_NOC).unwrap_err(),
            SnapshotError::UnsupportedVersion(99)
        );
        assert_eq!(
            SnapshotReader::open(&bytes, KIND_SYSTEM).unwrap_err(),
            SnapshotError::WrongKind {
                expected: KIND_SYSTEM,
                found: KIND_NOC
            }
        );
    }

    #[test]
    fn rejects_truncation_and_corruption() {
        let bytes = sample();
        for cut in [0, 1, HEADER_LEN, bytes.len() - 1] {
            assert!(
                matches!(
                    SnapshotReader::open(&bytes[..cut], KIND_NOC),
                    Err(SnapshotError::Truncated) | Err(SnapshotError::BadMagic)
                ),
                "cut at {cut}"
            );
        }
        for i in HEADER_LEN..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0x40;
            assert!(
                SnapshotReader::open(&flipped, KIND_NOC).is_err(),
                "flip at {i} must not verify"
            );
        }
    }

    #[test]
    fn bounds_sequence_lengths_by_remaining_payload() {
        let mut w = SnapshotWriter::new();
        w.put_usize(usize::MAX / 2);
        let bytes = w.finish(KIND_NOC);
        let mut r = SnapshotReader::open(&bytes, KIND_NOC).unwrap();
        assert_eq!(
            r.take_len(8).unwrap_err(),
            SnapshotError::Malformed("sequence length exceeds payload")
        );
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let bytes = sample();
        let r = SnapshotReader::open(&bytes, KIND_NOC).unwrap();
        assert!(matches!(
            r.finish().unwrap_err(),
            SnapshotError::TrailingBytes(_)
        ));
    }

    #[test]
    fn atomic_write_replaces_previous_file() {
        let dir = std::env::temp_dir().join("hermes-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.bin");
        write_atomic(&path, b"first").unwrap();
        write_atomic(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

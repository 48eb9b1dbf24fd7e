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
//! The payload itself is a flat little-endian field stream. Every
//! checkpointed type defines its encoding once, as an implementation of
//! [`Snap`]: [`put`](Snap::put) appends it to a [`SnapshotWriter`] and
//! [`take`](Snap::take) reads it back from a [`SnapshotReader`]. The
//! generic implementations here fix the shared conventions — integers
//! little-endian, `usize` as `u64`, options behind a 0/1 tag, sequences,
//! sets and maps behind a `u64` length (maps and sets in key order,
//! repeated keys rejected), arrays and tuples bare — and
//! [`snap_struct!`](crate::snap_struct) /
//! [`snap_enum!`](crate::snap_enum) derive a struct's or a fieldless
//! enum's encoding from one list of its fields or variants.
//!
//! Sequence lengths are bounded in one place, [`SnapshotReader::take_len`]:
//! every element encodes to at least one byte, so a length beyond the
//! payload bytes left is corrupt, and a decoded vector never reserves
//! more memory than those bytes. Decoding checks what the bytes alone
//! can refute (tags, duplicate keys, lengths); checks that need context
//! — the mesh shape, the record window, the router count — run on the
//! decoded value (see [`check_mesh`]). There is no external
//! serialization dependency, and every decode path is bounds-checked, so
//! truncated or corrupt input yields a typed [`SnapshotError`] rather
//! than a panic.
//!
//! Versioning policy: the format version is bumped whenever the payload
//! layout changes; decoders accept exactly the versions they know how to
//! parse ([`MIN_SNAPSHOT_VERSION`]..=[`SNAPSHOT_VERSION`]) and reject
//! everything else with [`SnapshotError::UnsupportedVersion`]. Snapshots are portable
//! across kernel modes by construction — the determinism contract makes
//! `Reference`, `Active` and `Parallel` kernels produce bit-identical
//! observable state, so a snapshot taken under one kernel restores under
//! any other.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::error::Error;
use std::fmt;
use std::hash::Hash;

use crate::addr::{Port, RouterAddr};

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

    /// Writes `value` in its [`Snap`] encoding.
    pub fn put<T: Snap>(&mut self, value: &T) {
        value.put(self);
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

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads a `T` from its [`Snap`] encoding.
    ///
    /// # Errors
    ///
    /// Whatever [`Snap::take`] reports for `T`.
    pub fn take<T: Snap>(&mut self) -> Result<T, SnapshotError> {
        T::take(self)
    }

    /// Reads a sequence length prefix. Every element encodes to at least
    /// one byte, so a length beyond the bytes left is corrupt: bounding
    /// it here keeps a damaged prefix from driving an outsized loop or
    /// allocation.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] or [`SnapshotError::Malformed`].
    pub fn take_len(&mut self) -> Result<usize, SnapshotError> {
        let len: usize = self.take()?;
        if len > self.remaining() {
            return Err(SnapshotError::Malformed("sequence length exceeds payload"));
        }
        Ok(len)
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

/// A type with one snapshot encoding: [`put`](Snap::put) writes it and
/// [`take`](Snap::take) reads it back, so the format is defined once per
/// type. Sequences and maps carry a `u64` length prefix, options a 0/1
/// tag; structs are their fields in the order
/// [`snap_struct!`](crate::snap_struct) lists them. Decoding checks everything the
/// bytes alone can refute — tags, duplicate keys, lengths against the
/// payload left; checks that need context (mesh shape, record window,
/// router count) run on the decoded value.
pub trait Snap: Sized {
    /// Appends the encoding of `self`.
    fn put(&self, w: &mut SnapshotWriter);

    /// Decodes one value.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] past the payload end, or
    /// [`SnapshotError::Malformed`] naming the field that failed.
    fn take(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError>;

    /// Appends `items` back to back; `u8` overrides it with one copy.
    #[doc(hidden)]
    fn put_all(items: &[Self], w: &mut SnapshotWriter) {
        for item in items {
            item.put(w);
        }
    }

    /// Decodes `len` values back to back. The vector reserves no more
    /// memory than the payload bytes left and grows past that only as
    /// values decode; the integer types override it to decode in bulk.
    #[doc(hidden)]
    fn take_all(len: usize, r: &mut SnapshotReader<'_>) -> Result<Vec<Self>, SnapshotError> {
        let fits = r.remaining() / std::mem::size_of::<Self>().max(1);
        let mut items = Vec::with_capacity(len.min(fits));
        for _ in 0..len {
            items.push(Self::take(r)?);
        }
        Ok(items)
    }
}

/// Implements [`Snap`] for structs as their listed fields in order:
/// `snap_struct!(Window { from, until } PacketId { 0 })`. Every field
/// type must implement [`Snap`]. A struct may name a check that the
/// decoded value must pass, `Log { capacity, events } => Log::check`,
/// where `check: fn(&Log) -> Result<(), SnapshotError>`.
#[macro_export]
macro_rules! snap_struct {
    ($($ty:ident { $($field:tt),* $(,)? } $(=> $check:path)?)*) => {$(
        impl $crate::snapshot::Snap for $ty {
            fn put(&self, w: &mut $crate::snapshot::SnapshotWriter) {
                $($crate::snapshot::Snap::put(&self.$field, w);)*
            }
            fn take(
                r: &mut $crate::snapshot::SnapshotReader<'_>,
            ) -> Result<Self, $crate::snapshot::SnapshotError> {
                let value = Self { $($field: $crate::snapshot::Snap::take(r)?,)* };
                $($check(&value)?;)?
                Ok(value)
            }
        }
    )*};
}

/// Implements [`Snap`] for a fieldless enum as a one-byte tag; an
/// unknown tag is [`SnapshotError::Malformed`] with the given message:
/// `snap_enum!(Arbitration, "arbitration tag" { RoundRobin = 0, FixedPriority = 1 })`.
#[macro_export]
macro_rules! snap_enum {
    ($ty:ident, $what:literal { $($variant:ident = $tag:literal),* $(,)? }) => {
        impl $crate::snapshot::Snap for $ty {
            fn put(&self, w: &mut $crate::snapshot::SnapshotWriter) {
                let tag: u8 = match self { $($ty::$variant => $tag,)* };
                w.put(&tag);
            }
            fn take(
                r: &mut $crate::snapshot::SnapshotReader<'_>,
            ) -> Result<Self, $crate::snapshot::SnapshotError> {
                match r.take::<u8>()? {
                    $($tag => Ok($ty::$variant),)*
                    _ => Err($crate::snapshot::SnapshotError::Malformed($what)),
                }
            }
        }
    };
}

/// Little-endian integers. Decoding assembles the listed bytes
/// directly, which keeps the dense histograms cheap to restore.
macro_rules! snap_le {
    ($($t:ty: $($i:literal)+;)*) => {$(
        impl Snap for $t {
            fn put(&self, w: &mut SnapshotWriter) {
                w.buf.extend_from_slice(&self.to_le_bytes());
            }
            fn take(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
                let b = r.bytes(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes([$(b[$i]),+]))
            }
            fn take_all(len: usize, r: &mut SnapshotReader<'_>) -> Result<Vec<Self>, SnapshotError> {
                const SIZE: usize = std::mem::size_of::<$t>();
                let bytes = r.bytes(len.checked_mul(SIZE).ok_or(SnapshotError::Truncated)?)?;
                let mut items = Vec::with_capacity(len);
                for b in bytes.chunks_exact(SIZE) {
                    items.push(<$t>::from_le_bytes([$(b[$i]),+]));
                }
                Ok(items)
            }
        }
    )*};
}
snap_le!(u16: 0 1; u32: 0 1 2 3; u64: 0 1 2 3 4 5 6 7;);

/// Byte sequences (nested containers, serial queues) copy in one go.
impl Snap for u8 {
    fn put(&self, w: &mut SnapshotWriter) {
        w.buf.push(*self);
    }
    fn take(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(r.bytes(1)?[0])
    }
    fn put_all(items: &[Self], w: &mut SnapshotWriter) {
        w.buf.extend_from_slice(items);
    }
    fn take_all(len: usize, r: &mut SnapshotReader<'_>) -> Result<Vec<Self>, SnapshotError> {
        Ok(r.bytes(len)?.to_vec())
    }
}

/// Written as a `u64`.
impl Snap for usize {
    fn put(&self, w: &mut SnapshotWriter) {
        w.put(&(*self as u64));
    }
    fn take(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        usize::try_from(r.take::<u64>()?).map_err(|_| SnapshotError::Malformed("usize overflow"))
    }
}

/// One byte, 0 or 1.
impl Snap for bool {
    fn put(&self, w: &mut SnapshotWriter) {
        w.put(&u8::from(*self));
    }
    fn take(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        match r.take::<u8>()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Malformed("bool tag")),
        }
    }
}

/// The bit pattern, so the value round-trips exactly.
impl Snap for f64 {
    fn put(&self, w: &mut SnapshotWriter) {
        w.put(&self.to_bits());
    }
    fn take(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(f64::from_bits(r.take()?))
    }
}

/// Length-prefixed UTF-8.
impl Snap for String {
    fn put(&self, w: &mut SnapshotWriter) {
        w.put(&self.len());
        w.buf.extend_from_slice(self.as_bytes());
    }
    fn take(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let len = r.take_len()?;
        String::from_utf8(r.bytes(len)?.to_vec())
            .map_err(|_| SnapshotError::Malformed("utf-8 string"))
    }
}

/// The two mesh coordinates. Not bounded here: whether an address must
/// lie on the mesh is the owner's check (see [`check_mesh`]).
impl Snap for RouterAddr {
    fn put(&self, w: &mut SnapshotWriter) {
        w.put(&self.x());
        w.put(&self.y());
    }
    fn take(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(RouterAddr::new(r.take()?, r.take()?))
    }
}

/// The port index as one byte.
impl Snap for Port {
    fn put(&self, w: &mut SnapshotWriter) {
        w.put(&(self.index() as u8));
    }
    fn take(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let tag = usize::from(r.take::<u8>()?);
        if tag >= Port::ALL.len() {
            return Err(SnapshotError::Malformed("port tag"));
        }
        Ok(Port::from_index(tag))
    }
}

/// A 0/1 presence tag, then the value.
impl<T: Snap> Snap for Option<T> {
    fn put(&self, w: &mut SnapshotWriter) {
        w.put(&self.is_some());
        if let Some(value) = self {
            value.put(w);
        }
    }
    fn take(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        match r.take::<u8>()? {
            0 => Ok(None),
            1 => Ok(Some(r.take()?)),
            _ => Err(SnapshotError::Malformed("option tag")),
        }
    }
}

impl<T: Snap> Snap for Box<T> {
    fn put(&self, w: &mut SnapshotWriter) {
        (**self).put(w);
    }
    fn take(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Box::new(r.take()?))
    }
}

/// A length prefix, then the items.
impl<T: Snap> Snap for Vec<T> {
    fn put(&self, w: &mut SnapshotWriter) {
        w.put(&self.len());
        T::put_all(self, w);
    }
    fn take(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let len = r.take_len()?;
        T::take_all(len, r)
    }
}

/// Encoded as a `Vec` of its items, front first.
impl<T: Snap> Snap for VecDeque<T> {
    fn put(&self, w: &mut SnapshotWriter) {
        let (front, back) = self.as_slices();
        w.put(&self.len());
        T::put_all(front, w);
        T::put_all(back, w);
    }
    fn take(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(r.take::<Vec<T>>()?.into())
    }
}

/// Encoded as a `Vec` of its elements in order; a repeated element is
/// malformed.
impl<T: Snap + Ord> Snap for BTreeSet<T> {
    fn put(&self, w: &mut SnapshotWriter) {
        w.put(&self.len());
        for item in self {
            item.put(w);
        }
    }
    fn take(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let items: Vec<T> = r.take()?;
        let len = items.len();
        let set: BTreeSet<T> = items.into_iter().collect();
        if set.len() != len {
            return Err(SnapshotError::Malformed("duplicate set element"));
        }
        Ok(set)
    }
}

/// Writes `(key, value)` pairs in key order, so equal maps encode to
/// equal bytes whatever their hashing.
fn put_map<'a, K: Snap + Ord + 'a, V: Snap + 'a>(
    w: &mut SnapshotWriter,
    entries: impl ExactSizeIterator<Item = (&'a K, &'a V)>,
) {
    let mut entries: Vec<_> = entries.collect();
    entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
    w.put(&entries.len());
    for (key, value) in entries {
        key.put(w);
        value.put(w);
    }
}

/// Reads `(key, value)` pairs; a repeated key is malformed.
fn take_map<K: Snap, V: Snap, M: Default>(
    r: &mut SnapshotReader<'_>,
    mut insert: impl FnMut(&mut M, K, V) -> bool,
) -> Result<M, SnapshotError> {
    let len = r.take_len()?;
    let mut map = M::default();
    for _ in 0..len {
        let (key, value) = r.take()?;
        if !insert(&mut map, key, value) {
            return Err(SnapshotError::Malformed("duplicate map key"));
        }
    }
    Ok(map)
}

impl<K: Snap + Ord, V: Snap> Snap for BTreeMap<K, V> {
    fn put(&self, w: &mut SnapshotWriter) {
        put_map(w, self.iter());
    }
    fn take(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        take_map(r, |m: &mut Self, k, v| m.insert(k, v).is_none())
    }
}

impl<K: Snap + Ord + Hash, V: Snap> Snap for HashMap<K, V> {
    fn put(&self, w: &mut SnapshotWriter) {
        put_map(w, self.iter());
    }
    fn take(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        take_map(r, |m: &mut Self, k, v| m.insert(k, v).is_none())
    }
}

/// The elements in order, no length prefix (the length is the type's).
impl<T: Snap, const N: usize> Snap for [T; N] {
    fn put(&self, w: &mut SnapshotWriter) {
        T::put_all(self, w);
    }
    fn take(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let items = T::take_all(N, r)?;
        Ok(items
            .try_into()
            .unwrap_or_else(|_| unreachable!("exactly N items decoded")))
    }
}

macro_rules! snap_tuple {
    ($(($($t:ident . $i:tt),+))*) => {$(
        impl<$($t: Snap),+> Snap for ($($t,)+) {
            fn put(&self, w: &mut SnapshotWriter) {
                $(self.$i.put(w);)+
            }
            fn take(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
                Ok(($(r.take::<$t>()?,)+))
            }
        }
    )*};
}
snap_tuple!((A.0, B.1)(A.0, B.1, C.2)(A.0, B.1, C.2, D.3));

/// Rejects any address off a `width`×`height` mesh: the context check
/// for every address field that must name a router of the network.
///
/// # Errors
///
/// [`SnapshotError::Malformed`] on the first address outside the mesh.
pub fn check_mesh(
    (width, height): (u8, u8),
    addrs: impl IntoIterator<Item = RouterAddr>,
) -> Result<(), SnapshotError> {
    if addrs.into_iter().all(|a| a.x() < width && a.y() < height) {
        Ok(())
    } else {
        Err(SnapshotError::Malformed("router address outside mesh"))
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

    type Sample = (
        ((u8, u16), (u32, u64), bool, f64),
        (Option<u64>, Option<u64>, String, Vec<u8>),
        (RouterAddr, Port, VecDeque<u16>, BTreeSet<u8>),
        (BTreeMap<u8, u16>, HashMap<u16, bool>, [u32; 3], Box<usize>),
    );

    fn sample_value() -> Sample {
        (
            ((7, 0xBEEF), (0xDEAD_BEEF, u64::MAX - 3), true, 0.125),
            (Some(42), None, "worm".into(), vec![0x00, 0xFF, 0x7A]),
            (
                RouterAddr::new(2, 1),
                Port::South,
                [5, 6].into(),
                [3, 1].into(),
            ),
            (
                [(2, 20), (1, 10)].into(),
                [(9, true), (4, false)].into(),
                [1, 2, 3],
                Box::new(99),
            ),
        )
    }

    fn sample() -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.put(&sample_value());
        w.finish(KIND_NOC)
    }

    #[test]
    fn round_trips_every_generic_impl() {
        let bytes = sample();
        let mut r = SnapshotReader::open(&bytes, KIND_NOC).unwrap();
        assert_eq!(r.take::<Sample>().unwrap(), sample_value());
        r.finish().unwrap();
    }

    #[test]
    fn maps_encode_in_key_order_and_reject_duplicate_keys() {
        let mut w = SnapshotWriter::new();
        w.put(&HashMap::from([(3u8, 30u8), (1, 10), (2, 20)]));
        let bytes = w.finish(KIND_NOC);
        let payload = &bytes[HEADER_LEN..bytes.len() - TRAILER_LEN];
        assert_eq!(payload[8..], [1, 10, 2, 20, 3, 30]);

        let mut w = SnapshotWriter::new();
        w.put(&vec![(1u8, 10u8), (1, 11)]);
        let bytes = w.finish(KIND_NOC);
        let mut r = SnapshotReader::open(&bytes, KIND_NOC).unwrap();
        assert_eq!(
            r.take::<BTreeMap<u8, u8>>().unwrap_err(),
            SnapshotError::Malformed("duplicate map key")
        );
        let mut r = SnapshotReader::open(&bytes, KIND_NOC).unwrap();
        assert_eq!(
            r.take::<BTreeSet<(u8, u8)>>().map(|s| s.len()),
            Ok(2),
            "distinct pairs form a set"
        );
    }

    #[test]
    fn rejects_bad_tags() {
        let mut w = SnapshotWriter::new();
        w.put(&[2u8, 2, 5]);
        let bytes = w.finish(KIND_NOC);
        let mut r = SnapshotReader::open(&bytes, KIND_NOC).unwrap();
        let malformed = SnapshotError::Malformed;
        assert_eq!(r.take::<bool>(), Err(malformed("bool tag")));
        assert_eq!(r.take::<Option<u8>>(), Err(malformed("option tag")));
        assert_eq!(r.take::<Port>(), Err(malformed("port tag")));
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
        w.put(&1u8);
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
        w.put(&(usize::MAX / 2));
        let bytes = w.finish(KIND_NOC);
        let mut r = SnapshotReader::open(&bytes, KIND_NOC).unwrap();
        assert_eq!(
            r.take::<Vec<u64>>().unwrap_err(),
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

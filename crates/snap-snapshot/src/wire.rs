//! Little-endian wire primitives for the snapshot format.
//!
//! Everything in a snapshot bottoms out in five scalar shapes: `u8`,
//! `u16`, `u32`, `u64` and `bool`. Floating-point values are *never*
//! written as floats — callers convert through [`f64::to_bits`] so a
//! snapshot round-trip is bit-exact by construction (NaN payloads,
//! signed zeros and all). Sequences are a `u64` length prefix followed
//! by the elements.
//!
//! The reader is fail-closed: every read checks the remaining length
//! and decoding never panics on foreign bytes.
//!
//! [`Encode`] and [`Decode`] are implemented by the live simulator
//! types themselves, each in the module that owns the state, so every
//! component's byte layout is written down exactly once.

use std::fmt;

/// Errors produced while decoding a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer ended before the structure did.
    Truncated {
        /// Byte offset at which more data was needed.
        at: usize,
    },
    /// The magic bytes don't identify a SNAP snapshot.
    BadMagic,
    /// The snapshot was written by an incompatible format version.
    BadVersion {
        /// Version found in the header.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
    /// The payload checksum does not match the header.
    BadChecksum,
    /// A field held a value outside its legal range.
    Corrupt(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated { at } => {
                write!(f, "snapshot truncated at byte offset {at}")
            }
            SnapshotError::BadMagic => write!(f, "not a SNAP snapshot (bad magic)"),
            SnapshotError::BadVersion { found, expected } => write!(
                f,
                "snapshot format version {found} is not supported (this build reads version {expected})"
            ),
            SnapshotError::BadChecksum => write!(f, "snapshot payload checksum mismatch"),
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot field: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A type that writes its own state to the snapshot wire format.
pub trait Encode {
    /// Append `self`'s encoding to `w`.
    fn encode(&self, w: &mut Writer);

    /// `self`'s encoding in a fresh buffer.
    fn encoded(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode(&mut w);
        w.into_bytes()
    }
}

/// A type that rebuilds itself from the snapshot wire format.
///
/// Decoding fails closed: out-of-range discriminants, lengths and
/// values are [`SnapshotError::Corrupt`], never a panic.
pub trait Decode: Sized {
    /// Read one encoded value from `r`.
    ///
    /// # Errors
    ///
    /// Any malformed input yields a [`SnapshotError`].
    fn decode(r: &mut Reader) -> Result<Self, SnapshotError>;
}

/// Append-only little-endian writer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Write one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a bool as one byte (0/1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Write a `u64` length prefix.
    pub fn len(&mut self, n: usize) {
        self.u64(n as u64);
    }

    /// Write an optional `u64` (presence byte + value).
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.bool(true);
                self.u64(x);
            }
            None => self.bool(false),
        }
    }

    /// Write an optional `u16` (presence byte + value).
    pub fn opt_u16(&mut self, v: Option<u16>) {
        match v {
            Some(x) => {
                self.bool(true);
                self.u16(x);
            }
            None => self.bool(false),
        }
    }

    /// Write an optional `u8` (presence byte + value).
    pub fn opt_u8(&mut self, v: Option<u8>) {
        match v {
            Some(x) => {
                self.bool(true);
                self.u8(x);
            }
            None => self.bool(false),
        }
    }

    /// Write a length-prefixed opaque byte blob.
    pub fn bytes(&mut self, b: &[u8]) {
        self.len(b.len());
        self.buf.extend_from_slice(b);
    }

    /// Write a length-prefixed sequence of encodable items.
    pub fn seq<T: Encode>(&mut self, items: &[T]) {
        self.len(items.len());
        for item in items {
            item.encode(self);
        }
    }

    /// Write a length-prefixed `u16` sequence.
    pub fn seq_u16(&mut self, vs: &[u16]) {
        self.len(vs.len());
        for &v in vs {
            self.u16(v);
        }
    }
}

/// Bounds-checked little-endian reader.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf` starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// `true` when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.pos + n > self.buf.len() {
            return Err(SnapshotError::Truncated { at: self.pos });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, SnapshotError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read a one-byte enum discriminant and return the variant it
    /// names; `variants` lists them in discriminant order.
    pub fn variant<T: Copy>(
        &mut self,
        variants: &[T],
        what: &'static str,
    ) -> Result<T, SnapshotError> {
        let tag = usize::from(self.u8()?);
        variants
            .get(tag)
            .copied()
            .ok_or(SnapshotError::Corrupt(what))
    }

    /// Read a bool; any byte other than 0/1 is corrupt.
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Corrupt("bool flag")),
        }
    }

    /// Read a `u64` length prefix, rejecting lengths that cannot fit in
    /// the remaining buffer (cheap defense against hostile lengths —
    /// every element is at least one byte).
    pub fn len(&mut self) -> Result<usize, SnapshotError> {
        let n = self.u64()?;
        if n > (self.buf.len() - self.pos) as u64 {
            return Err(SnapshotError::Corrupt("sequence length"));
        }
        Ok(n as usize)
    }

    /// Read an optional `u64`.
    pub fn opt_u64(&mut self) -> Result<Option<u64>, SnapshotError> {
        Ok(if self.bool()? {
            Some(self.u64()?)
        } else {
            None
        })
    }

    /// Read an optional `u16`.
    pub fn opt_u16(&mut self) -> Result<Option<u16>, SnapshotError> {
        Ok(if self.bool()? {
            Some(self.u16()?)
        } else {
            None
        })
    }

    /// Read an optional `u8`.
    pub fn opt_u8(&mut self) -> Result<Option<u8>, SnapshotError> {
        Ok(if self.bool()? { Some(self.u8()?) } else { None })
    }

    /// Read a length-prefixed opaque byte blob.
    pub fn bytes(&mut self) -> Result<Vec<u8>, SnapshotError> {
        let n = self.len()?;
        Ok(self.take(n)?.to_vec())
    }

    /// Read a length-prefixed sequence of decodable items.
    pub fn seq<T: Decode>(&mut self) -> Result<Vec<T>, SnapshotError> {
        let n = self.len()?;
        (0..n).map(|_| T::decode(self)).collect()
    }

    /// Read a length-prefixed `u16` sequence.
    pub fn seq_u16(&mut self) -> Result<Vec<u16>, SnapshotError> {
        let n = self.len()?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.u16()?);
        }
        Ok(v)
    }
}

/// FNV-1a 64-bit checksum over the payload, stored in the header so
/// that truncation or bit rot fails loudly instead of resurrecting a
/// subtly wrong simulation.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trip() {
        let mut w = Writer::new();
        w.u8(7);
        w.u16(0xbeef);
        w.u32(0xdead_beef);
        w.u64(u64::MAX);
        w.bool(true);
        w.opt_u64(Some(9));
        w.opt_u64(None);
        w.seq_u16(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0xbeef);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert!(r.bool().unwrap());
        assert_eq!(r.opt_u64().unwrap(), Some(9));
        assert_eq!(r.opt_u64().unwrap(), None);
        assert_eq!(r.seq_u16().unwrap(), vec![1, 2, 3]);
        assert!(r.is_empty());
    }

    #[test]
    fn truncation_is_detected() {
        let mut w = Writer::new();
        w.u64(1);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..4]);
        assert_eq!(r.u64(), Err(SnapshotError::Truncated { at: 0 }));
    }

    #[test]
    fn hostile_length_rejected() {
        let mut w = Writer::new();
        w.u64(u64::MAX); // claimed sequence length
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.seq_u16(), Err(SnapshotError::Corrupt("sequence length")));
    }

    #[test]
    fn bad_bool_rejected() {
        let mut r = Reader::new(&[2]);
        assert_eq!(r.bool(), Err(SnapshotError::Corrupt("bool flag")));
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned values: the checksum is part of the on-disk format.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"snap"), fnv1a(b"snap"));
        assert_ne!(fnv1a(b"snap"), fnv1a(b"snbp"));
    }
}

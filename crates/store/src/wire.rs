//! The byte-level primitives every codec in the workspace is built
//! from: little-endian integers, `u32`-length-prefixed UTF-8 strings, a
//! bounds-checked reader and the FNV-1a checksum. The graph and table
//! formats ([`mod@crate::format`]), the manifest
//! ([`crate::catalog_io`]) and the `gcore-serve` wire protocol all use
//! these, so "what a string looks like on the wire" and "a hostile
//! length never drives an allocation" are each stated once.

use std::fmt;

/// Append `v`, little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append `v`, little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append `s` as a `u32` byte length followed by its UTF-8 bytes.
///
/// # Panics
///
/// If `s` is 4 GiB or longer — its length would not survive the prefix.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(
        out,
        u32::try_from(s.len()).expect("string too long for a u32 length prefix"),
    );
    out.extend_from_slice(s.as_bytes());
}

/// FNV-1a, 64-bit, absorbed incrementally: tiny, dependency-free, and
/// plenty to catch the torn / overwritten / bit-rotted payloads a
/// storage or transport layer must detect (an integrity check, not a
/// cryptographic one).
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    /// The FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Absorb `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest of everything absorbed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// One-shot [`Fnv1a`] over `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.finish()
}

/// Why a [`Cursor`] read failed. Each codec converts this into its own
/// error type at the boundary, keeping its stable codes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WireError {
    /// The bytes ended before the value (or the length it declared).
    Truncated,
    /// A string's bytes are not valid UTF-8.
    BadUtf8,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            WireError::Truncated => "truncated",
            WireError::BadUtf8 => "string is not valid UTF-8",
        })
    }
}

impl std::error::Error for WireError {}

/// Bounds-checked sequential reader over a byte slice.
///
/// Every length read from the input is checked against the bytes
/// physically present *before* anything is sliced or allocated, so a
/// corrupt or hostile length prefix ends in [`WireError::Truncated`],
/// never in a giant allocation or a panic.
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A reader positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    /// The next `n` bytes, borrowed from the input.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if n > self.remaining() {
            return Err(WireError::Truncated);
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    /// The next byte, without consuming it.
    pub fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A little-endian `i32`.
    pub fn i32(&mut self) -> Result<i32, WireError> {
        Ok(i32::from_le_bytes(self.array()?))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    /// A string written by [`put_str`], borrowed from the input.
    pub fn str(&mut self) -> Result<&'a str, WireError> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|_| WireError::BadUtf8)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Has every byte been consumed?
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// A safe `Vec::with_capacity` argument for `count` upcoming entries
    /// of at least `min_entry_bytes` each: the declared count, clamped
    /// by how many such entries the remaining bytes could hold. A
    /// declared count the payload cannot back is then caught by the
    /// reads themselves.
    pub fn capacity_for(&self, count: usize, min_entry_bytes: usize) -> usize {
        count.min(self.remaining() / min_entry_bytes.max(1) + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut out = Vec::new();
        out.push(7);
        out.extend_from_slice(&0xBEEFu16.to_le_bytes());
        put_u32(&mut out, 0xDEAD_BEEF);
        out.extend_from_slice(&(-5i32).to_le_bytes());
        put_u64(&mut out, u64::MAX - 1);
        out.extend_from_slice(&i64::MIN.to_le_bytes());
        put_str(&mut out, "");
        put_str(&mut out, "ünïcødé 🦀");
        let mut c = Cursor::new(&out);
        assert_eq!(c.peek(), Some(7));
        assert_eq!(c.u8(), Ok(7));
        assert_eq!(c.u16(), Ok(0xBEEF));
        assert_eq!(c.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(c.i32(), Ok(-5));
        assert_eq!(c.u64(), Ok(u64::MAX - 1));
        assert_eq!(c.i64(), Ok(i64::MIN));
        assert_eq!(c.str(), Ok(""));
        assert_eq!(c.str(), Ok("ünïcødé 🦀"));
        assert!(c.is_empty());
        assert_eq!(c.peek(), None);
        assert_eq!(c.u8(), Err(WireError::Truncated));
    }

    #[test]
    fn every_truncation_of_a_string_is_rejected() {
        let mut full = Vec::new();
        put_str(&mut full, "length-prefixed");
        for cut in 0..full.len() {
            assert_eq!(
                Cursor::new(&full[..cut]).str(),
                Err(WireError::Truncated),
                "a string cut to {cut} of {} bytes decoded",
                full.len()
            );
        }
        assert_eq!(Cursor::new(&full).str(), Ok("length-prefixed"));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        // Claims 4 GiB - 1 of text, carries three bytes: the length is
        // checked against the bytes present, and `str` only borrows, so
        // nothing is ever allocated for it.
        let mut bytes = Vec::new();
        put_u32(&mut bytes, u32::MAX);
        bytes.extend_from_slice(b"abc");
        let mut c = Cursor::new(&bytes);
        assert_eq!(c.str(), Err(WireError::Truncated));
        // One past the end is as truncated as 4 GiB past it.
        let mut bytes = Vec::new();
        put_u32(&mut bytes, 4);
        bytes.extend_from_slice(b"abc");
        assert_eq!(Cursor::new(&bytes).str(), Err(WireError::Truncated));
        // A declared element count is clamped by what the bytes can hold.
        let c = Cursor::new(&[0u8; 40]);
        assert_eq!(c.capacity_for(usize::MAX, 8), 6);
        assert_eq!(c.capacity_for(3, 8), 3);
    }

    #[test]
    fn non_utf8_text_is_rejected() {
        let mut bytes = Vec::new();
        put_u32(&mut bytes, 2);
        bytes.extend_from_slice(&[0xff, 0xfe]);
        assert_eq!(Cursor::new(&bytes).str(), Err(WireError::BadUtf8));
    }

    #[test]
    fn incremental_checksum_equals_one_shot() {
        // Published FNV-1a/64 reference vectors.
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        let mut h = Fnv1a::new();
        h.update(b"split ");
        h.update(b"payload");
        assert_eq!(h.finish(), fnv1a64(b"split payload"));
    }
}

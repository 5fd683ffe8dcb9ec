//! A small binary codec used by all Totem wire types.
//!
//! The encoding is big-endian and length-prefixed. It is intentionally
//! simple: Totem's own papers reason about exact byte layouts (the
//! framing model in [`crate::frame`] depends on them), so the codec is
//! explicit rather than derived.
//!
//! Decoding never panics on malformed input: every read is
//! bounds-checked and returns a [`CodecError`], which makes the
//! decoder safe to expose to untrusted bytes and easy to fuzz.

use core::fmt;

use bytes::Bytes;

use crate::ids::MAX_COUNTER;

/// Error returned when decoding a malformed packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the value being read was complete.
    Truncated {
        /// How many more bytes were needed.
        needed: usize,
        /// How many bytes remained.
        remaining: usize,
    },
    /// A discriminant byte did not name a known variant.
    UnknownTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending tag value.
        tag: u8,
    },
    /// A length prefix exceeded the bytes actually available or a
    /// sanity bound.
    BadLength {
        /// What was being decoded.
        what: &'static str,
        /// The offending length.
        len: usize,
    },
    /// Trailing garbage after a complete packet.
    TrailingBytes {
        /// Number of unconsumed bytes.
        remaining: usize,
    },
    /// A sequence number or rotation at or above [`MAX_COUNTER`],
    /// which no ring lives long enough to reach.
    CounterOutOfRange {
        /// What was being decoded.
        what: &'static str,
        /// The offending value.
        value: u64,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { needed, remaining } => {
                write!(f, "truncated packet: needed {needed} more bytes, {remaining} remaining")
            }
            CodecError::UnknownTag { what, tag } => {
                write!(f, "unknown tag {tag:#04x} while decoding {what}")
            }
            CodecError::BadLength { what, len } => {
                write!(f, "implausible length {len} while decoding {what}")
            }
            CodecError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after packet")
            }
            CodecError::CounterOutOfRange { what, value } => {
                write!(f, "{what} {value} is not below the counter bound 2^62")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Hard upper bound on any length prefix, to stop a corrupt prefix
/// from causing a giant allocation. Larger than any legal Totem frame.
/// Reassembly caps what it reserves for a message at it too.
pub const MAX_DECODE_LEN: usize = 1 << 20;

/// An append-only byte writer with big-endian primitives.
///
/// # Example
///
/// ```
/// # use totem_wire::{Writer, Reader};
/// let mut w = Writer::new();
/// w.u16(0xBEEF);
/// w.u64(7);
/// let buf = w.into_bytes();
/// let mut r = Reader::new(&buf);
/// assert_eq!(r.u16().unwrap(), 0xBEEF);
/// assert_eq!(r.u64().unwrap(), 7);
/// ```
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    /// Creates a writer with `cap` bytes preallocated.
    pub fn with_capacity(cap: usize) -> Self {
        Writer { buf: Vec::with_capacity(cap) }
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a big-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a boolean as a single `0`/`1` byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends raw bytes with no prefix.
    pub fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends a `u32` length prefix followed by the bytes.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.raw(v);
    }

    /// Current encoded length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Clears the contents while keeping the allocation, so one writer
    /// can encode many frames without reallocating (the encode pool in
    /// [`crate::packet`] relies on this).
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Ensures capacity for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// The bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer, returning the encoded buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Copies the written bytes into an immutable, cheaply cloneable
    /// [`Bytes`] without consuming the writer (one shared allocation;
    /// the writer's own buffer is kept for reuse).
    pub fn to_shared(&self) -> Bytes {
        Bytes::copy_from_slice(&self.buf)
    }
}

/// A bounds-checked cursor over a byte slice with big-endian primitives.
///
/// A reader either *borrows* a plain slice ([`Reader::new`]), in which
/// case every byte string it hands out is a fresh copy, or reads *over*
/// an owning [`Bytes`] ([`Reader::over`]), in which case byte strings
/// are zero-copy `slice()`s of that buffer, or only *validates* (the
/// mode behind [`crate::WireHeader::parse`]), in which case byte
/// strings and lists are checked and come back empty, so nothing is
/// allocated. All three accept and reject exactly the same inputs —
/// the decoders are written once, against this type — and the first
/// two yield equal values; only who owns the payload bytes differs.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    payloads: Payloads<'a>,
}

/// What a [`Reader`] does with the variable-length parts of a packet.
#[derive(Debug, Clone, Copy)]
enum Payloads<'a> {
    /// Copy byte strings out of the borrowed buffer.
    Copy,
    /// Slice byte strings out of the owning buffer the reader views.
    Share(&'a Bytes),
    /// Check byte strings and list items, keep none of them.
    Discard,
}

impl<'a> Reader<'a> {
    /// Creates a reader positioned at the start of `buf`. Byte strings
    /// read from it are copied out.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0, payloads: Payloads::Copy }
    }

    /// Creates a reader positioned at the start of `src` whose byte
    /// strings are zero-copy slices of `src` (a refcount bump each):
    /// everything decoded through it shares — and keeps alive — the
    /// one allocation behind `src`.
    pub fn over(src: &'a Bytes) -> Self {
        Reader { buf: src, pos: 0, payloads: Payloads::Share(src) }
    }

    /// Creates a reader that checks everything and keeps only scalars:
    /// byte strings and lists (`Reader::list`) read from it are
    /// validated exactly as in the other modes but come back empty, so
    /// a decode through it allocates nothing. What it yields is a skeleton of
    /// the packet (see [`crate::WireHeader::parse`], its one caller).
    pub(crate) fn validating(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0, payloads: Payloads::Discard }
    }

    /// Whether byte strings and list items read from this reader are
    /// kept (false only when validating).
    pub(crate) fn keeps_payloads(&self) -> bool {
        !matches!(self.payloads, Payloads::Discard)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Returns an error unless the whole buffer has been consumed.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::TrailingBytes`] if unconsumed bytes remain.
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes { remaining: self.remaining() })
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let Some(s) = self.pos.checked_add(n).and_then(|end| self.buf.get(self.pos..end)) else {
            return Err(CodecError::Truncated { needed: n, remaining: self.remaining() });
        };
        self.pos += n;
        Ok(s)
    }

    /// Takes the next `n` bytes as a [`Bytes`]: a slice of the owning
    /// buffer in [`Reader::over`] mode, a copy in [`Reader::new`]
    /// mode, empty when only validating.
    fn take_bytes(&mut self, n: usize) -> Result<Bytes, CodecError> {
        let start = self.pos;
        let s = self.take(n)?;
        Ok(match self.payloads {
            Payloads::Share(src) => src.slice(start..start + n),
            Payloads::Copy => Bytes::copy_from_slice(s),
            Payloads::Discard => Bytes::new(),
        })
    }

    /// Takes the next `N` bytes as a fixed-size array without any
    /// fallible slice-to-array conversion on the hot decode path.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let s = self.take(N)?;
        let mut out = [0u8; N];
        for (dst, src) in out.iter_mut().zip(s) {
            *dst = *src;
        }
        Ok(out)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Truncated`] if the buffer is exhausted.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(u8::from_be_bytes(self.array()?))
    }

    /// Reads a big-endian `u16`.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Truncated`] if fewer than 2 bytes remain.
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_be_bytes(self.array()?))
    }

    /// Reads a big-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Truncated`] if fewer than 4 bytes remain.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_be_bytes(self.array()?))
    }

    /// Reads a big-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Truncated`] if fewer than 8 bytes remain.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_be_bytes(self.array()?))
    }

    /// Reads a big-endian [`Seq`](crate::Seq) or
    /// [`Rotation`](crate::Rotation) counter: every such field on the
    /// wire is decoded here, so none reaches the protocol at or above
    /// [`MAX_COUNTER`].
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::CounterOutOfRange`] for a value at or
    /// above [`MAX_COUNTER`], and [`CodecError::Truncated`] if fewer
    /// than 8 bytes remain.
    pub fn counter<T: From<u64>>(&mut self, what: &'static str) -> Result<T, CodecError> {
        match self.u64()? {
            value if value >= MAX_COUNTER => Err(CodecError::CounterOutOfRange { what, value }),
            value => Ok(T::from(value)),
        }
    }

    /// Reads a boolean encoded as a `0`/`1` byte.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::UnknownTag`] on any other byte value and
    /// [`CodecError::Truncated`] if the buffer is exhausted.
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CodecError::UnknownTag { what: "bool", tag }),
        }
    }

    /// Reads a `u32` length prefix followed by that many bytes (a
    /// zero-copy slice in [`Reader::over`] mode, a copy otherwise).
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::BadLength`] if the prefix exceeds the
    /// sanity bound, or [`CodecError::Truncated`] if the payload is
    /// incomplete.
    pub fn bytes(&mut self) -> Result<Bytes, CodecError> {
        let len = self.u32()? as usize;
        if len > MAX_DECODE_LEN {
            return Err(CodecError::BadLength { what: "byte string", len });
        }
        self.take_bytes(len)
    }

    /// Reads exactly `len` un-prefixed bytes (the caller read the
    /// length from its own header field); sliced or copied like
    /// [`Reader::bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Truncated`] if fewer than `len` bytes
    /// remain.
    pub fn raw_bytes(&mut self, len: usize) -> Result<Bytes, CodecError> {
        self.take_bytes(len)
    }

    /// Reads `n` items with `item` into a list preallocated for
    /// `n.min(cap)` of them. When only validating, every item is still
    /// read — and so checked — but none is kept and nothing is
    /// allocated.
    ///
    /// # Errors
    ///
    /// Returns the first error `item` reports.
    pub(crate) fn list<T>(
        &mut self,
        n: usize,
        cap: usize,
        mut item: impl FnMut(&mut Self) -> Result<T, CodecError>,
    ) -> Result<Vec<T>, CodecError> {
        let keep = self.keeps_payloads();
        let mut out = if keep { Vec::with_capacity(n.min(cap)) } else { Vec::new() };
        for _ in 0..n {
            let it = item(self)?;
            if keep {
                out.push(it);
            }
        }
        Ok(out)
    }

    /// Reads a `u32` element count (bounded by `MAX_DECODE_LEN`) for a
    /// following sequence.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::BadLength`] for an implausible count.
    pub fn seq_len(&mut self, what: &'static str) -> Result<usize, CodecError> {
        let len = self.u32()? as usize;
        if len > MAX_DECODE_LEN {
            return Err(CodecError::BadLength { what, len });
        }
        Ok(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_primitives() {
        let mut w = Writer::new();
        w.u8(0xAB);
        w.u16(0xCDEF);
        w.u32(0xDEAD_BEEF);
        w.u64(0x0123_4567_89AB_CDEF);
        w.bool(true);
        w.bool(false);
        w.bytes(b"hello");
        let buf = w.into_bytes();

        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u16().unwrap(), 0xCDEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(&r.bytes().unwrap()[..], b"hello");
        r.finish().unwrap();
    }

    #[test]
    fn truncated_read_reports_need() {
        let mut r = Reader::new(&[0x01]);
        let err = r.u32().unwrap_err();
        assert_eq!(err, CodecError::Truncated { needed: 4, remaining: 1 });
    }

    #[test]
    fn bool_rejects_garbage() {
        let mut r = Reader::new(&[7]);
        assert!(matches!(r.bool(), Err(CodecError::UnknownTag { what: "bool", tag: 7 })));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let mut w = Writer::new();
        w.u32(u32::MAX);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        assert!(matches!(r.bytes(), Err(CodecError::BadLength { .. })));
    }

    #[test]
    fn finish_detects_trailing_bytes() {
        let mut r = Reader::new(&[1, 2, 3]);
        r.u8().unwrap();
        assert_eq!(r.finish(), Err(CodecError::TrailingBytes { remaining: 2 }));
    }

    #[test]
    fn truncated_byte_string_payload() {
        let mut w = Writer::new();
        w.u32(10);
        w.raw(b"short");
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        assert!(matches!(r.bytes(), Err(CodecError::Truncated { .. })));
    }

    #[test]
    fn errors_display_is_nonempty_and_lowercase() {
        for err in [
            CodecError::Truncated { needed: 4, remaining: 0 },
            CodecError::UnknownTag { what: "packet", tag: 9 },
            CodecError::BadLength { what: "rtr list", len: 1 << 30 },
            CodecError::TrailingBytes { remaining: 3 },
            CodecError::CounterOutOfRange { what: "token seq", value: MAX_COUNTER },
        ] {
            let msg = err.to_string();
            assert!(!msg.is_empty());
            assert!(!msg.chars().next().unwrap().is_uppercase());
        }
    }
}

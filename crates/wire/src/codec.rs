//! Byte-level encode/decode primitives shared by all message types.

use std::fmt;

/// Errors produced when decoding a frame from bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the field could be read.
    Truncated {
        /// Bytes required by the field being parsed.
        needed: usize,
        /// Bytes remaining in the buffer.
        got: usize,
    },
    /// An enum discriminant or flag had an undefined value.
    BadValue(&'static str),
    /// The CRC-32 trailer did not match the frame contents.
    BadCrc {
        /// CRC computed over the received bytes.
        computed: u32,
        /// CRC carried in the trailer.
        stored: u32,
    },
    /// Trailing bytes were left after a complete parse.
    TrailingBytes(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, got } => {
                write!(f, "truncated frame: needed {needed} bytes, got {got}")
            }
            WireError::BadValue(what) => write!(f, "bad value for field {what}"),
            WireError::BadCrc { computed, stored } => {
                write!(
                    f,
                    "CRC mismatch: computed {computed:#010x}, stored {stored:#010x}"
                )
            }
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after frame"),
        }
    }
}

impl std::error::Error for WireError {}

/// Capacity of [`FrameBytes`]: the longest encoding in the stack, a DQP
/// ADD/ACK/REJ frame (1 discriminator + 43 body + 4 CRC bytes).
pub const FRAME_MAX: usize = 48;

/// An encoded frame, held inline: [`FRAME_MAX`] bytes of storage plus a
/// length, dereferencing to the written prefix. Every control frame has
/// a small fixed layout, so encoding, corrupting and carrying one
/// through the event queue never touches the heap.
#[derive(Clone, Copy)]
pub struct FrameBytes {
    buf: [u8; FRAME_MAX],
    len: u8,
}

impl std::ops::Deref for FrameBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf[..self.len as usize]
    }
}

impl std::ops::DerefMut for FrameBytes {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf[..self.len as usize]
    }
}

impl fmt::Debug for FrameBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl PartialEq for FrameBytes {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for FrameBytes {}

/// A byte writer into a [`FrameBytes`] (the counterpart of [`Reader`]).
///
/// # Panics
/// Every `put_*` panics if the frame would outgrow [`FRAME_MAX`] — a
/// message layout that does not fit is a bug in this crate, not an
/// input condition.
#[derive(Debug)]
pub struct Writer {
    buf: FrameBytes,
}

impl Default for Writer {
    fn default() -> Self {
        Self::new()
    }
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer {
            buf: FrameBytes {
                buf: [0; FRAME_MAX],
                len: 0,
            },
        }
    }

    /// Consumes the writer, returning the bytes.
    #[inline]
    pub fn into_bytes(self) -> FrameBytes {
        self.buf
    }

    /// The bytes written so far.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        let at = self.buf.len as usize;
        self.buf.buf[at..at + bytes.len()].copy_from_slice(bytes);
        self.buf.len += bytes.len() as u8;
    }

    /// Appends one byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.put(&[v]);
    }

    /// Appends a big-endian `u16`.
    #[inline]
    pub fn put_u16(&mut self, v: u16) {
        self.put(&v.to_be_bytes());
    }

    /// Appends a big-endian `u32`.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.put(&v.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.put(&v.to_be_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (big-endian).
    #[inline]
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }
}

/// A checked byte reader over a received buffer.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice for reading.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: n,
                got: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    #[inline]
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a big-endian `u16`.
    #[inline]
    pub fn get_u16(&mut self) -> Result<u16, WireError> {
        let s = self.take(2)?;
        Ok(u16::from_be_bytes([s[0], s[1]]))
    }

    /// Reads a big-endian `u32`.
    #[inline]
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        let s = self.take(4)?;
        Ok(u32::from_be_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Reads a big-endian `u64`.
    #[inline]
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        let s = self.take(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_be_bytes(b))
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    #[inline]
    pub fn get_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Errors unless the buffer is fully consumed.
    #[inline]
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(self.remaining()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_widths() {
        let mut w = Writer::new();
        w.put_u8(0xAB);
        w.put_u16(0x1234);
        w.put_u32(0xDEADBEEF);
        w.put_u64(0x0123_4567_89AB_CDEF);
        w.put_f64(-1.5e-7);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 1 + 2 + 4 + 8 + 8);

        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 0xAB);
        assert_eq!(r.get_u16().unwrap(), 0x1234);
        assert_eq!(r.get_u32().unwrap(), 0xDEADBEEF);
        assert_eq!(r.get_u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.get_f64().unwrap(), -1.5e-7);
        r.finish().unwrap();
    }

    #[test]
    fn truncation_detected() {
        let bytes = [1u8, 2];
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u32(), Err(WireError::Truncated { needed: 4, got: 2 }));
    }

    #[test]
    fn trailing_bytes_detected() {
        let bytes = [1u8, 2, 3];
        let mut r = Reader::new(&bytes);
        r.get_u8().unwrap();
        assert_eq!(r.finish().err(), Some(WireError::TrailingBytes(2)));
    }

    #[test]
    #[should_panic]
    fn writing_past_frame_max_panics() {
        let mut w = Writer::new();
        for _ in 0..FRAME_MAX / 8 {
            w.put_u64(0);
        }
        assert_eq!(w.len(), FRAME_MAX);
        w.put_u8(0);
    }

    #[test]
    fn big_endian_on_the_wire() {
        let mut w = Writer::new();
        w.put_u16(0x0102);
        assert_eq!(*w.into_bytes(), [0x01, 0x02]);
    }
}

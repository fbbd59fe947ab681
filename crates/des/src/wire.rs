//! The wire codec events cross a machine boundary in: big-endian unsigned
//! integers of 1, 2, 4 and 8 bytes, written to a `Vec<u8>` and read back
//! from a byte slice. This module is the only place that knows the byte
//! order and the widths; a [`crate::Transportable`] event is a sequence of
//! these integers.
//!
//! Every read returns `None` past the end of the input instead of
//! panicking, so a decoder is a chain of `?` with no length to sum by hand.

/// Appends big-endian integers to a byte vector.
pub struct Writer<'a> {
    buf: &'a mut Vec<u8>,
}

impl<'a> Writer<'a> {
    /// A writer appending to `buf`.
    pub fn new(buf: &'a mut Vec<u8>) -> Self {
        Writer { buf }
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
}

/// Reads big-endian integers off the front of a byte slice. Copies are
/// independent cursors over the same bytes.
#[derive(Clone, Copy, Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { rest: bytes }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The next `N` bytes, or `None` (consuming nothing) if fewer are left.
    fn take<const N: usize>(&mut self) -> Option<[u8; N]> {
        let (head, rest) = self.rest.split_first_chunk()?;
        self.rest = rest;
        Some(*head)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.take().map(u8::from_be_bytes)
    }

    /// Reads a big-endian `u16`.
    pub fn u16(&mut self) -> Option<u16> {
        self.take().map(u16::from_be_bytes)
    }

    /// Reads a big-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.take().map(u32::from_be_bytes)
    }

    /// Reads a big-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.take().map(u64::from_be_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_round_trips_every_width() {
        let mut buf = Vec::new();
        let mut w = Writer::new(&mut buf);
        w.u8(0xAB);
        w.u16(0xCDEF);
        w.u32(0x0102_0304);
        w.u64(0x1122_3344_5566_7788);
        assert_eq!(
            buf,
            [0xAB, 0xCD, 0xEF, 1, 2, 3, 4, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88]
        );
        let mut r = Reader::new(&buf);
        assert_eq!(r.remaining(), 15);
        assert_eq!(r.u8(), Some(0xAB));
        assert_eq!(r.u16(), Some(0xCDEF));
        assert_eq!(r.u32(), Some(0x0102_0304));
        assert_eq!(r.u64(), Some(0x1122_3344_5566_7788));
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.u8(), None);
    }

    #[test]
    fn codec_reads_past_the_end_are_none_and_consume_nothing() {
        let mut a = Reader::new(&[1, 2, 3, 4]);
        let b = a;
        assert_eq!(a.u64(), None, "8 bytes wanted, 4 left");
        assert_eq!(a.remaining(), 4);
        assert_eq!(a.u16(), Some(0x0102));
        assert_eq!(a.remaining(), 2);
        assert_eq!(b.remaining(), 4, "a copy keeps its own position");
        assert_eq!(a.u32(), None);
        assert_eq!(a.u16(), Some(0x0304));
    }
}

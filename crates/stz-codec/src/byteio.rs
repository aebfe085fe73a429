//! Cursor-style byte-level serialization for archive headers and tables.

use crate::varint;
use crate::{CodecError, Result};

/// Append-only little-endian byte writer.
#[derive(Default, Debug, Clone)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    pub fn new() -> Self {
        ByteWriter::default()
    }

    pub fn with_capacity(n: usize) -> Self {
        ByteWriter { buf: Vec::with_capacity(n) }
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_uvarint(&mut self, v: u64) {
        varint::put_uvarint(&mut self.buf, v);
    }

    pub fn put_ivarint(&mut self, v: i64) {
        varint::put_ivarint(&mut self.buf, v);
    }

    /// Append a length-prefixed byte block.
    pub fn put_block(&mut self, bytes: &[u8]) {
        self.put_uvarint(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }

    /// Append raw bytes with no length prefix.
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Forget the bytes written, keeping the buffer.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor over a byte slice; every read checks bounds and fails with
/// [`CodecError::UnexpectedEof`] rather than panicking.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub fn new(data: &'a [u8]) -> Self {
        ByteReader { data, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    pub fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof { context });
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1, "u8")?[0])
    }

    pub fn get_u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2, "u16")?.try_into().unwrap()))
    }

    pub fn get_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4, "u32")?.try_into().unwrap()))
    }

    pub fn get_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8, "u64")?.try_into().unwrap()))
    }

    pub fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.take(8, "f64")?.try_into().unwrap()))
    }

    pub fn get_uvarint(&mut self) -> Result<u64> {
        let (v, n) = varint::get_uvarint(&self.data[self.pos..])?;
        self.pos += n;
        Ok(v)
    }

    pub fn get_ivarint(&mut self) -> Result<i64> {
        let (v, n) = varint::get_ivarint(&self.data[self.pos..])?;
        self.pos += n;
        Ok(v)
    }

    /// Read a length-prefixed byte block written by [`ByteWriter::put_block`].
    pub fn get_block(&mut self) -> Result<&'a [u8]> {
        let len = self.get_uvarint()?;
        if len > self.remaining() as u64 {
            return Err(CodecError::UnexpectedEof { context: "length-prefixed block" });
        }
        self.take(len as usize, "length-prefixed block")
    }

    /// Read `n` raw bytes.
    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n, "raw bytes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_roundtrip() {
        let mut w = ByteWriter::new();
        w.put_u8(0xAB);
        w.put_u16(0x1234);
        w.put_u32(0xDEADBEEF);
        w.put_u64(0x0123_4567_89AB_CDEF);
        w.put_f64(-1234.5678);
        w.put_uvarint(300);
        w.put_ivarint(-42);
        w.put_block(b"hello");
        let bytes = w.finish();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 0xAB);
        assert_eq!(r.get_u16().unwrap(), 0x1234);
        assert_eq!(r.get_u32().unwrap(), 0xDEADBEEF);
        assert_eq!(r.get_u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.get_f64().unwrap(), -1234.5678);
        assert_eq!(r.get_uvarint().unwrap(), 300);
        assert_eq!(r.get_ivarint().unwrap(), -42);
        assert_eq!(r.get_block().unwrap(), b"hello");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncated_reads_error() {
        let bytes = [1u8, 2, 3];
        let mut r = ByteReader::new(&bytes);
        assert!(r.get_u32().is_err());
        // Failed read must not consume.
        assert_eq!(r.remaining(), 3);
        assert_eq!(r.get_u16().unwrap(), 0x0201);
    }

    #[test]
    fn block_with_huge_length_is_eof_not_panic() {
        let mut w = ByteWriter::new();
        w.put_uvarint(u64::MAX);
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(r.get_block(), Err(CodecError::UnexpectedEof { .. })));
    }

    #[test]
    fn position_tracking() {
        let mut w = ByteWriter::new();
        w.put_u32(7);
        w.put_u32(8);
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.position(), 0);
        r.get_u32().unwrap();
        assert_eq!(r.position(), 4);
    }
}

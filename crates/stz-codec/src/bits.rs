//! MSB-first bit-level I/O over byte buffers.
//!
//! The bit order is most-significant-bit first within each byte, which makes
//! canonical Huffman decoding a simple left-shift accumulate and matches the
//! convention of the reference SZ3 implementation's encoder.

use crate::{CodecError, Result};

/// Accumulating bit writer. Bits are packed MSB-first; [`BitWriter::finish`]
/// pads the final partial byte with zero bits.
#[derive(Default, Debug, Clone)]
pub struct BitWriter {
    /// Crate-visible, like [`BitReader`]'s, so the Huffman encode loop can
    /// keep the accumulator in registers and flush it a word at a time (see
    /// `HuffmanEncoder::encode_into`).
    pub(crate) buf: Vec<u8>,
    /// Pending bits in the low `nbits`; whatever lies above them is stale.
    pub(crate) acc: u64,
    /// Number of valid bits currently in `acc`: below 8 between calls.
    pub(crate) nbits: u32,
}

impl BitWriter {
    pub fn new() -> Self {
        BitWriter::default()
    }

    pub fn with_capacity(bytes: usize) -> Self {
        BitWriter { buf: Vec::with_capacity(bytes), acc: 0, nbits: 0 }
    }

    /// Append the low `len` bits of `code` (MSB of the code first).
    /// `len` must be `<= 57` per call (callers split longer codes).
    #[inline]
    pub fn put(&mut self, code: u64, len: u32) {
        debug_assert!(len <= 57, "put() supports at most 57 bits per call");
        debug_assert!(len == 64 || code < (1u64 << len), "code wider than len");
        self.acc = (self.acc << len) | code;
        self.nbits += len;
        while self.nbits >= 8 {
            self.nbits -= 8;
            self.buf.push((self.acc >> self.nbits) as u8);
        }
    }

    /// Append a single bit.
    #[inline]
    pub fn put_bit(&mut self, bit: bool) {
        self.put(bit as u64, 1);
    }

    /// Append up to 64 bits, splitting internally as needed.
    pub fn put_wide(&mut self, code: u64, len: u32) {
        debug_assert!(len <= 64);
        if len > 57 {
            let hi = len - 32;
            self.put(code >> 32, hi);
            self.put(code & 0xFFFF_FFFF, 32);
        } else {
            self.put(code, len);
        }
    }

    /// Number of complete bytes written so far (excludes pending bits).
    pub fn byte_len(&self) -> usize {
        self.buf.len()
    }

    /// Total number of bits appended so far.
    pub fn bit_len(&self) -> u64 {
        self.buf.len() as u64 * 8 + self.nbits as u64
    }

    /// Flush pending bits (zero-padded) and return the byte buffer.
    pub fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            let pad = 8 - self.nbits;
            self.acc <<= pad;
            self.buf.push(self.acc as u8);
            self.nbits = 0;
        }
        self.buf
    }
}

/// Bit reader over a byte slice, mirroring [`BitWriter`]'s MSB-first order.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    /// Crate-visible so the Huffman hot loop can keep the reader state in
    /// registers (see `HuffmanDecoder::decode_n`); the invariants are
    /// documented on [`BitReader::refill`].
    pub(crate) data: &'a [u8],
    /// Index of the next byte to load.
    pub(crate) pos: usize,
    pub(crate) acc: u64,
    /// Number of valid bits in `acc`.
    pub(crate) nbits: u32,
}

impl<'a> BitReader<'a> {
    pub fn new(data: &'a [u8]) -> Self {
        BitReader { data, pos: 0, acc: 0, nbits: 0 }
    }

    /// Top up the accumulator from the buffer, loading as many whole bytes
    /// as fit. Away from the end of the buffer this is a single 8-byte
    /// big-endian load instead of a byte-at-a-time loop — appending `k`
    /// bytes of one big-endian word is bit-identical to appending them one
    /// by one, so the stream semantics are unchanged. Leaves fewer than
    /// `want` bits buffered only when the input is exhausted.
    #[inline]
    fn refill(&mut self, want: u32) {
        if self.pos + 8 <= self.data.len() {
            // Callers refill only when `nbits < want <= 57`, so 1..=8 bytes fit.
            debug_assert!(self.nbits <= 56);
            let take = ((64 - self.nbits) >> 3) as usize;
            let word = u64::from_be_bytes(self.data[self.pos..self.pos + 8].try_into().unwrap());
            self.acc = if take == 8 {
                word
            } else {
                (self.acc << (8 * take)) | (word >> (64 - 8 * take as u32))
            };
            self.pos += take;
            self.nbits += 8 * take as u32;
        } else {
            while self.nbits < want && self.pos < self.data.len() {
                self.acc = (self.acc << 8) | self.data[self.pos] as u64;
                self.pos += 1;
                self.nbits += 8;
            }
        }
    }

    /// Read `len` bits (`len <= 57`). Reading past the end of the buffer is
    /// an error; note zero-pad bits at the very end are indistinguishable
    /// from data, so callers track element counts themselves.
    #[inline]
    pub fn get(&mut self, len: u32) -> Result<u64> {
        debug_assert!(len <= 57);
        if len == 0 {
            return Ok(0);
        }
        if self.nbits < len {
            self.refill(len);
            if self.nbits < len {
                return Err(CodecError::UnexpectedEof { context: "bitstream" });
            }
        }
        self.nbits -= len;
        Ok((self.acc >> self.nbits) & ((1u64 << len) - 1))
    }

    /// Read a single bit.
    #[inline]
    pub fn get_bit(&mut self) -> Result<bool> {
        Ok(self.get(1)? == 1)
    }

    /// Read up to 64 bits.
    pub fn get_wide(&mut self, len: u32) -> Result<u64> {
        debug_assert!(len <= 64);
        if len > 57 {
            let hi = self.get(len - 32)?;
            let lo = self.get(32)?;
            Ok((hi << 32) | lo)
        } else {
            self.get(len)
        }
    }

    /// Number of bits consumed so far.
    pub fn bits_consumed(&self) -> u64 {
        self.pos as u64 * 8 - self.nbits as u64
    }

    /// Number of unread bits remaining in the buffer.
    pub fn bits_remaining(&self) -> u64 {
        (self.data.len() - self.pos) as u64 * 8 + self.nbits as u64
    }

    /// Look at the next `len` bits (`len <= 57`) without consuming them.
    /// Past the end of the buffer the value is zero-padded; use
    /// [`BitReader::consume`] to enforce bounds.
    #[inline]
    pub fn peek(&mut self, len: u32) -> u64 {
        debug_assert!(len <= 57);
        if len == 0 {
            return 0;
        }
        if self.nbits < len {
            self.refill(len);
        }
        let mask = (1u64 << len) - 1;
        if self.nbits >= len {
            (self.acc >> (self.nbits - len)) & mask
        } else {
            // Zero-pad virtually past the end.
            (self.acc << (len - self.nbits)) & mask
        }
    }

    /// Consume `len` bits that a preceding [`BitReader::peek`] of at least
    /// `len` bits already buffered. After such a peek the accumulator holds
    /// either `>= len` bits or every remaining real bit, so `nbits < len`
    /// here means a true end-of-stream — exactly when
    /// [`BitReader::consume`] would fail.
    #[inline]
    pub fn consume_buffered(&mut self, len: u32) -> Result<()> {
        if self.nbits < len {
            return Err(CodecError::UnexpectedEof { context: "bitstream consume" });
        }
        self.nbits -= len;
        Ok(())
    }

    /// Consume `len` bits previously inspected with [`BitReader::peek`].
    /// Fails if fewer than `len` real bits remain.
    #[inline]
    pub fn consume(&mut self, len: u32) -> Result<()> {
        if self.bits_remaining() < len as u64 {
            return Err(CodecError::UnexpectedEof { context: "bitstream consume" });
        }
        // peek() already buffered at least `min(len, remaining)` bits when the
        // caller inspected them, but consume() may be called cold too.
        if self.nbits < len {
            self.refill(len);
        }
        self.nbits -= len;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bits_roundtrip() {
        let mut w = BitWriter::new();
        let pattern = [true, false, true, true, false, false, true, false, true, true, true];
        for &b in &pattern {
            w.put_bit(b);
        }
        let bytes = w.finish();
        assert_eq!(bytes.len(), 2);
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.get_bit().unwrap(), b);
        }
    }

    #[test]
    fn multi_bit_fields_roundtrip() {
        let mut w = BitWriter::new();
        let fields: &[(u64, u32)] =
            &[(0b101, 3), (0xFFFF, 16), (0, 1), (0x1234_5678_9ABC, 48), (1, 1), (0x7F, 7)];
        for &(v, n) in fields {
            w.put(v, n);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in fields {
            assert_eq!(r.get(n).unwrap(), v, "field of {n} bits");
        }
    }

    #[test]
    fn wide_64bit_roundtrip() {
        let mut w = BitWriter::new();
        w.put_bit(true); // misalign
        w.put_wide(u64::MAX, 64);
        w.put_wide(0xDEAD_BEEF_CAFE_F00D, 64);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert!(r.get_bit().unwrap());
        assert_eq!(r.get_wide(64).unwrap(), u64::MAX);
        assert_eq!(r.get_wide(64).unwrap(), 0xDEAD_BEEF_CAFE_F00D);
    }

    #[test]
    fn eof_is_error_not_panic() {
        let bytes = [0xABu8];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.get(8).unwrap(), 0xAB);
        assert!(matches!(r.get(1), Err(CodecError::UnexpectedEof { .. })));
    }

    #[test]
    fn msb_first_byte_layout() {
        let mut w = BitWriter::new();
        w.put(0b1, 1);
        w.put(0b0, 1);
        w.put(0b111111, 6);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0b1011_1111]);
    }

    #[test]
    fn bit_len_counts() {
        let mut w = BitWriter::new();
        w.put(0b101, 3);
        assert_eq!(w.bit_len(), 3);
        w.put(0xFF, 8);
        assert_eq!(w.bit_len(), 11);
        assert_eq!(w.byte_len(), 1);
    }

    #[test]
    fn bits_consumed_tracks() {
        let mut w = BitWriter::new();
        w.put(0xABCD, 16);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        r.get(5).unwrap();
        assert_eq!(r.bits_consumed(), 5);
        r.get(11).unwrap();
        assert_eq!(r.bits_consumed(), 16);
    }

    #[test]
    fn peek_does_not_consume() {
        let mut w = BitWriter::new();
        w.put(0b1010_1100, 8);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.peek(4), 0b1010);
        assert_eq!(r.peek(4), 0b1010);
        r.consume(2).unwrap();
        assert_eq!(r.peek(4), 0b1011);
        assert_eq!(r.get(6).unwrap(), 0b101100);
    }

    #[test]
    fn peek_zero_pads_past_end() {
        let bytes = [0xFFu8];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.peek(12), 0b1111_1111_0000);
        assert_eq!(r.bits_remaining(), 8);
        assert!(r.consume(9).is_err());
        r.consume(8).unwrap();
        assert_eq!(r.bits_remaining(), 0);
    }

    #[test]
    fn zero_len_get_is_zero() {
        let bytes = [0xFFu8];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.get(0).unwrap(), 0);
        assert_eq!(r.bits_consumed(), 0);
    }
}

//! LEB128 variable-length integers and zigzag mapping.

use crate::{CodecError, Result};

/// Append `v` as unsigned LEB128.
pub fn put_uvarint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Bytes [`put_uvarint`] appends for `v`.
pub fn uvarint_len(v: u64) -> usize {
    (u64::BITS - (v | 1).leading_zeros()).div_ceil(7) as usize
}

/// Read an unsigned LEB128 integer, returning `(value, bytes_consumed)`.
pub fn get_uvarint(data: &[u8]) -> Result<(u64, usize)> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    for (i, &byte) in data.iter().enumerate() {
        if shift >= 64 || (shift == 63 && byte > 1) {
            return Err(CodecError::corrupt("uvarint overflows u64"));
        }
        v |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok((v, i + 1));
        }
        shift += 7;
    }
    Err(CodecError::UnexpectedEof { context: "uvarint" })
}

/// Map a signed integer to an unsigned one with small magnitudes first:
/// `0, -1, 1, -2, 2, …` → `0, 1, 2, 3, 4, …`.
#[inline(always)]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline(always)]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Append a signed integer as zigzag LEB128.
pub fn put_ivarint(out: &mut Vec<u8>, v: i64) {
    put_uvarint(out, zigzag(v));
}

/// Read a zigzag LEB128 signed integer.
pub fn get_ivarint(data: &[u8]) -> Result<(i64, usize)> {
    let (u, n) = get_uvarint(data)?;
    Ok((unzigzag(u), n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uvarint_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_uvarint(&mut buf, v);
            let (back, n) = get_uvarint(&buf).unwrap();
            assert_eq!(back, v);
            assert_eq!(n, buf.len());
        }
    }

    #[test]
    fn zigzag_order() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
        assert_eq!(zigzag(2), 4);
        for v in [-1000i64, -1, 0, 1, 12345, i64::MIN, i64::MAX] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn ivarint_roundtrip() {
        for v in [0i64, -1, 1, -64, 64, i64::MIN, i64::MAX] {
            let mut buf = Vec::new();
            put_ivarint(&mut buf, v);
            let (back, n) = get_ivarint(&buf).unwrap();
            assert_eq!(back, v);
            assert_eq!(n, buf.len());
        }
    }

    #[test]
    fn truncated_is_eof() {
        let mut buf = Vec::new();
        put_uvarint(&mut buf, u64::MAX);
        buf.pop();
        assert!(matches!(get_uvarint(&buf), Err(CodecError::UnexpectedEof { .. })));
        assert!(matches!(get_uvarint(&[]), Err(CodecError::UnexpectedEof { .. })));
    }

    #[test]
    fn overlong_is_corrupt() {
        // 11 continuation bytes can't fit in u64.
        let buf = [0xFFu8; 11];
        assert!(matches!(get_uvarint(&buf), Err(CodecError::Corrupt(_))));
    }
}

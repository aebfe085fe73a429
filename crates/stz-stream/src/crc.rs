//! CRC-32 (IEEE 802.3, polynomial `0xEDB88320`): a state holder over the
//! lane-dispatched kernel of `stz-simd` (PCLMULQDQ folding or portable
//! slicing-by-16; the same value on every lane).
//!
//! Every independently fetchable section of a container — the footer index
//! and each payload block — carries a CRC so a reader that touches only a
//! few thousand bytes of a multi-gigabyte file still detects corruption in
//! exactly the bytes it used.

/// Streaming CRC-32 state, for checksumming data written in chunks.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// Fresh state (equivalent to having hashed zero bytes).
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Fold `bytes` into the running checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        self.state = stz_simd::crc32_update(stz_simd::active_lane(), self.state, bytes);
    }

    /// The CRC-32 of everything folded in so far (does not consume the
    /// state; more bytes may still be added).
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard IEEE CRC-32 test vectors.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 31 % 251) as u8).collect();
        let mut c = Crc32::new();
        for chunk in data.chunks(7) {
            c.update(chunk);
        }
        assert_eq!(c.finish(), crc32(&data));
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data = vec![0xA5u8; 64];
        let base = crc32(&data);
        for i in 0..data.len() {
            data[i] ^= 0x01;
            assert_ne!(crc32(&data), base, "flip at {i} undetected");
            data[i] ^= 0x01;
        }
    }
}

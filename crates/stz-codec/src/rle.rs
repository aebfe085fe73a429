//! Byte-oriented run-length encoding.
//!
//! The post-pass of every Huffman block ([`crate::huffman`]): a payload at
//! Huffman's one-bit floor is long runs of one byte, which this collapses to
//! `(byte, run length)` pairs. A block keeps its payload raw unless the pairs
//! are smaller, and [`runs`] settles most of those choices without encoding:
//! every run costs at least two bytes. Both scans take the input a word at a
//! time.

use crate::byteio::ByteReader;
use crate::varint::put_uvarint;
use crate::Result;

/// Run-length encode `data` as `(byte, run_len)` pairs with varint run
/// lengths, after the varint of its length.
pub fn encode(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 4 + 16);
    encode_into(data, &mut out);
    out
}

/// [`encode`], appended to `out`.
pub fn encode_into(data: &[u8], out: &mut Vec<u8>) {
    put_uvarint(out, data.len() as u64);
    let mut i = 0;
    while i < data.len() {
        let run = run_len(&data[i..]);
        out.push(data[i]);
        put_uvarint(out, run as u64);
        i += run;
    }
}

/// The length of the run of `data[0]` that `data` starts with (`data` is not
/// empty), compared a word at a time.
fn run_len(data: &[u8]) -> usize {
    let byte = data[0];
    // Most runs of a payload that is not all runs are one byte long.
    if data.get(1).map_or(true, |&next| next != byte) {
        return 1;
    }
    let pattern = u64::from_ne_bytes([byte; 8]);
    let mut n = 2;
    while let Some(word) = data.get(n..n + 8) {
        let diff = u64::from_le_bytes(word.try_into().expect("8 bytes")) ^ pattern;
        if diff != 0 {
            return n + diff.trailing_zeros() as usize / 8;
        }
        n += 8;
    }
    n + data[n..].iter().take_while(|&&b| b == byte).count()
}

/// The number of runs in `data` — one, plus one per byte that differs from
/// the byte before it — counted a word at a time.
pub fn runs(data: &[u8]) -> usize {
    const LOW7: u64 = 0x7F7F_7F7F_7F7F_7F7F;
    let word = |at: usize| u64::from_ne_bytes(data[at..at + 8].try_into().expect("8 bytes"));
    let (mut starts, mut i) = (usize::from(!data.is_empty()), 0);
    while i + 9 <= data.len() {
        let x = word(i) ^ word(i + 1);
        // The top bit of each byte is set where that byte of `x` is not 0.
        starts += ((((x & LOW7) + LOW7) | x) & !LOW7).count_ones() as usize;
        i += 8;
    }
    starts + data[i..].windows(2).filter(|pair| pair[0] != pair[1]).count()
}

/// Inverse of [`encode`].
pub fn decode(data: &[u8]) -> Result<Vec<u8>> {
    let mut r = ByteReader::new(data);
    let total = r.get_uvarint()? as usize;
    crate::guard::check_decode_alloc(total as u64, 1, "rle payload")?;
    // Reserve incrementally: `total` is attacker-declared; the resize loop
    // below only commits memory that decoded runs actually account for.
    let mut out = Vec::with_capacity(total.min(1 << 16));
    while out.len() < total {
        let b = r.get_u8()?;
        let run = r.get_uvarint()? as usize;
        if run == 0 || out.len() + run > total {
            return Err(crate::CodecError::corrupt("invalid RLE run"));
        }
        out.resize(out.len() + run, b);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ByteWriter;

    /// The reference coder: a byte at a time, and the runs it writes.
    fn reference(data: &[u8]) -> (Vec<u8>, usize) {
        let mut w = ByteWriter::new();
        w.put_uvarint(data.len() as u64);
        let (mut i, mut runs) = (0, 0);
        while i < data.len() {
            let mut run = 1;
            while i + run < data.len() && data[i + run] == data[i] {
                run += 1;
            }
            w.put_u8(data[i]);
            w.put_uvarint(run as u64);
            (i, runs) = (i + run, runs + 1);
        }
        (w.finish(), runs)
    }

    #[test]
    fn word_scans_match_the_byte_at_a_time_reference() {
        // Runs of every length up to past two words, at every alignment,
        // of bytes that differ in one bit, in the top bit or in all bits.
        let mut data = Vec::new();
        for len in 0..=20 {
            for (a, b) in [(0u8, 1u8), (0, 0x80), (0x7F, 0xFF), (0xFF, 0)] {
                data.resize(data.len() + len, a);
                data.push(b);
            }
        }
        for start in 0..9 {
            for end in (start..data.len()).step_by(7).chain([data.len()]) {
                let piece = &data[start..end];
                let (bytes, count) = reference(piece);
                assert_eq!(encode(piece), bytes, "bytes {start}..{end}");
                assert_eq!(runs(piece), count, "bytes {start}..{end}");
            }
        }
        assert_eq!(runs(&[]), 0);
    }

    #[test]
    fn empty() {
        assert_eq!(decode(&encode(&[])).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn all_same() {
        let data = vec![7u8; 100_000];
        let enc = encode(&data);
        assert!(enc.len() < 16);
        assert_eq!(decode(&enc).unwrap(), data);
    }

    #[test]
    fn alternating_worst_case() {
        let data: Vec<u8> = (0..1000).map(|i| (i % 2) as u8).collect();
        assert_eq!(decode(&encode(&data)).unwrap(), data);
    }

    #[test]
    fn mixed_runs() {
        let mut data = Vec::new();
        for (i, run) in [(1u8, 5usize), (0, 300), (255, 1), (0, 2), (9, 129)].iter().enumerate() {
            let _ = i;
            data.extend(std::iter::repeat_n(run.0, run.1));
        }
        assert_eq!(decode(&encode(&data)).unwrap(), data);
    }

    #[test]
    fn truncated_fails() {
        let data = vec![3u8; 50];
        let enc = encode(&data);
        assert!(decode(&enc[..enc.len() - 1]).is_err());
    }

    #[test]
    fn zero_run_rejected() {
        let mut w = ByteWriter::new();
        w.put_uvarint(5);
        w.put_u8(1);
        w.put_uvarint(0); // invalid zero run
        let bytes = w.finish();
        assert!(decode(&bytes).is_err());
    }
}

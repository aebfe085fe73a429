//! Canonical, length-limited Huffman coding.
//!
//! This is the lossless-encoding stage shared by STZ, SZ3 and MGARD (paper
//! §2.1 step 3). Codes are *canonical*: they are fully determined by the code
//! lengths plus the symbol ordering, so the serialized table stores only
//! `(symbol, length)` pairs. Lengths are limited to [`MAX_CODE_LEN`] bits by
//! a Kraft-sum repair pass, which keeps the decoder's fast path a single
//! table lookup.
//!
//! Decoding uses a one-level lookup table covering codes up to
//! [`TABLE_BITS`] bits (the overwhelmingly common case for quantization-code
//! streams, whose distribution is sharply peaked at zero), falling back to
//! canonical first-code walking for longer codes.

use crate::bits::{BitReader, BitWriter};
use crate::byteio::{ByteReader, ByteWriter};
use crate::{CodecError, Result};
use std::collections::BinaryHeap;

/// Maximum permitted code length in bits.
pub const MAX_CODE_LEN: u32 = 32;
/// Width of the one-level decode lookup table.
pub const TABLE_BITS: u32 = 12;

/// Canonical Huffman encoder over a dense `u32` symbol alphabet.
#[derive(Debug, Clone)]
pub struct HuffmanEncoder {
    /// Per-symbol `(code, length)`; length 0 means the symbol never occurs.
    codes: Vec<(u32, u8)>,
}

impl HuffmanEncoder {
    /// Build an encoder from per-symbol frequencies (`freqs[s]` is the count
    /// of symbol `s`). Symbols with zero frequency get no code.
    pub fn from_frequencies(freqs: &[u64]) -> Self {
        let lengths = code_lengths(freqs, MAX_CODE_LEN);
        let codes = assign_canonical(&lengths);
        HuffmanEncoder { codes }
    }

    /// Build an encoder directly from a symbol stream.
    pub fn from_symbols(symbols: &[u32]) -> Self {
        let alphabet = symbols.iter().copied().max().map_or(0, |m| m as usize + 1);
        let mut freqs = vec![0u64; alphabet];
        for &s in symbols {
            freqs[s as usize] += 1;
        }
        Self::from_frequencies(&freqs)
    }

    /// Append the code for one symbol.
    #[inline]
    pub fn encode_symbol(&self, symbol: u32, w: &mut BitWriter) {
        let (code, len) = self.codes[symbol as usize];
        debug_assert!(len > 0, "symbol {symbol} has no code (zero frequency)");
        w.put(code as u64, len as u32);
    }

    /// Append codes for a whole stream.
    pub fn encode_into(&self, symbols: &[u32], w: &mut BitWriter) {
        for &s in symbols {
            self.encode_symbol(s, w);
        }
    }

    /// Exact encoded size in bits for a frequency histogram.
    pub fn encoded_bits(&self, freqs: &[u64]) -> u64 {
        freqs
            .iter()
            .enumerate()
            .map(|(s, &f)| f * self.codes.get(s).map_or(0, |&(_, l)| l as u64))
            .sum()
    }

    /// Serialize the code table (lengths only — codes are canonical).
    pub fn serialize_table(&self, w: &mut ByteWriter) {
        let entries: Vec<(u32, u8)> = self
            .codes
            .iter()
            .enumerate()
            .filter(|(_, &(_, len))| len > 0)
            .map(|(sym, &(_, len))| (sym as u32, len))
            .collect();
        w.put_uvarint(entries.len() as u64);
        let mut prev = 0u32;
        for &(sym, len) in &entries {
            w.put_uvarint((sym - prev) as u64);
            w.put_u8(len);
            prev = sym;
        }
    }

    /// Number of symbols that have a code.
    pub fn coded_symbols(&self) -> usize {
        self.codes.iter().filter(|&&(_, l)| l > 0).count()
    }

    /// Code length of `symbol` in bits (0 if uncoded).
    pub fn code_len(&self, symbol: u32) -> u8 {
        self.codes.get(symbol as usize).map_or(0, |&(_, l)| l)
    }
}

/// Canonical Huffman decoder.
#[derive(Debug, Clone)]
pub struct HuffmanDecoder {
    /// Fast path: `table[prefix] = (symbol, len)` for codes of length
    /// `<= table_bits`; `len == 0` marks a long code.
    table: Vec<(u32, u8)>,
    /// `min(max_len, TABLE_BITS)` — sizing the fast table to the actual
    /// longest code keeps the per-table build cost proportional to the
    /// alphabet, which matters when many small blocks each carry their own
    /// table.
    table_bits: u32,
    /// Canonical walk state for long codes, indexed by length `1..=max_len`.
    first_code: [u64; MAX_CODE_LEN as usize + 1],
    offset: [u32; MAX_CODE_LEN as usize + 1],
    count: [u32; MAX_CODE_LEN as usize + 1],
    /// Symbols sorted by (length, symbol).
    symbols: Vec<u32>,
    max_len: u32,
}

impl HuffmanDecoder {
    /// Deserialize a table written by [`HuffmanEncoder::serialize_table`].
    pub fn deserialize(r: &mut ByteReader<'_>) -> Result<Self> {
        let n = r.get_uvarint()?;
        if n > (u32::MAX as u64) {
            return Err(CodecError::corrupt("huffman table too large"));
        }
        // Each entry consumes at least two input bytes (delta varint +
        // length), so a declared count beyond that is a lie — reject it
        // before reserving the entries vector.
        if n > r.remaining() as u64 / 2 {
            return Err(CodecError::corrupt("huffman table larger than its input"));
        }
        let n = n as usize;
        let mut entries = Vec::with_capacity(n);
        let mut sym = 0u32;
        for i in 0..n {
            let delta = r.get_uvarint()?;
            let len = r.get_u8()?;
            if len == 0 || len as u32 > MAX_CODE_LEN {
                return Err(CodecError::corrupt(format!("invalid code length {len}")));
            }
            sym = sym
                .checked_add(delta as u32)
                .ok_or_else(|| CodecError::corrupt("huffman symbol overflow"))?;
            if i > 0 && delta == 0 {
                return Err(CodecError::corrupt("duplicate symbol in huffman table"));
            }
            entries.push((sym, len));
        }
        Self::from_entries(&entries)
    }

    /// Build a decoder from `(symbol, length)` pairs (ascending symbols).
    pub fn from_entries(entries: &[(u32, u8)]) -> Result<Self> {
        let mut count = [0u32; MAX_CODE_LEN as usize + 1];
        let mut max_len = 0u32;
        for &(_, len) in entries {
            count[len as usize] += 1;
            max_len = max_len.max(len as u32);
        }
        // Kraft inequality check: the table must be decodable.
        let mut kraft: u64 = 0;
        for (len, &c) in count.iter().enumerate().skip(1) {
            kraft += (c as u64) << (MAX_CODE_LEN as usize - len);
        }
        if kraft > 1u64 << MAX_CODE_LEN {
            return Err(CodecError::corrupt("huffman table violates Kraft inequality"));
        }

        // Symbols sorted by (length, symbol): entries are already sorted by
        // symbol, so a stable distribution by length suffices.
        let mut offset = [0u32; MAX_CODE_LEN as usize + 1];
        let mut acc = 0u32;
        for len in 1..=MAX_CODE_LEN as usize {
            offset[len] = acc;
            acc += count[len];
        }
        let mut symbols = vec![0u32; entries.len()];
        let mut cursor = offset;
        for &(sym, len) in entries {
            symbols[cursor[len as usize] as usize] = sym;
            cursor[len as usize] += 1;
        }

        // Canonical first codes.
        let mut first_code = [0u64; MAX_CODE_LEN as usize + 1];
        let mut code = 0u64;
        for len in 1..=MAX_CODE_LEN as usize {
            code <<= 1;
            first_code[len] = code;
            code += count[len] as u64;
        }

        // Fast table for short codes.
        let table_bits = TABLE_BITS.min(max_len);
        let table_len = 1usize << table_bits;
        let mut table = vec![(0u32, 0u8); table_len];
        for len in 1..=table_bits {
            let len_us = len as usize;
            for k in 0..count[len_us] {
                let code = first_code[len_us] + k as u64;
                let sym = symbols[(offset[len_us] + k) as usize];
                let shift = table_bits - len;
                let base = (code << shift) as usize;
                for fill in 0..(1usize << shift) {
                    table[base + fill] = (sym, len as u8);
                }
            }
        }

        Ok(HuffmanDecoder { table, table_bits, first_code, offset, count, symbols, max_len })
    }

    /// Decode a single symbol.
    #[inline]
    pub fn decode_symbol(&self, r: &mut BitReader<'_>) -> Result<u32> {
        let prefix = r.peek(self.table_bits) as usize;
        let (sym, len) = self.table[prefix];
        if len > 0 {
            // peek() buffered >= len bits (or hit true EOF), so the cheap
            // consume path is exact.
            r.consume_buffered(len as u32)?;
            return Ok(sym);
        }
        self.decode_long(r)
    }

    #[cold]
    fn decode_long(&self, r: &mut BitReader<'_>) -> Result<u32> {
        if self.max_len <= self.table_bits {
            return Err(CodecError::corrupt("invalid huffman prefix"));
        }
        let window = r.peek(self.max_len);
        for len in (self.table_bits + 1)..=self.max_len {
            let code = window >> (self.max_len - len);
            let len_us = len as usize;
            if code >= self.first_code[len_us]
                && code - self.first_code[len_us] < self.count[len_us] as u64
            {
                let idx = self.offset[len_us] as u64 + (code - self.first_code[len_us]);
                r.consume(len)?;
                return Ok(self.symbols[idx as usize]);
            }
        }
        Err(CodecError::corrupt("undecodable huffman code"))
    }

    /// Decode exactly `n` symbols.
    pub fn decode_n(&self, r: &mut BitReader<'_>, n: usize) -> Result<Vec<u32>> {
        let mut out = Vec::new();
        self.decode_n_into(r, n, &mut out)?;
        Ok(out)
    }

    /// Decode exactly `n` symbols onto the end of `out`, so a caller that
    /// decodes block after block can keep one buffer. On an error `out`
    /// keeps whatever was decoded before it.
    pub fn decode_n_into(&self, r: &mut BitReader<'_>, n: usize, out: &mut Vec<u32>) -> Result<()> {
        // `n` is caller-declared, but each decoded symbol consumes at least
        // one input bit, so clamping the reservation to the real input size
        // bounds the allocation even when the declared count lies — while an
        // honest `n` gets its exact capacity up front (no growth copies in
        // the decode hot loop).
        out.reserve(n.min(r.bits_remaining() as usize));
        let n = out.len() + n;
        let table = &self.table[..];
        let tb = self.table_bits;
        if tb > 0 && table.len() == 1usize << tb {
            // Hot loop: reader state lives in registers, the table index is
            // masked to the (length-checked) table size so no per-symbol
            // bounds check or `Result` survives, and refills use the 8-byte
            // fast path. The last few bytes of input — where the fast refill
            // no longer applies — and long codes fall back to
            // `decode_symbol`, which reproduces the exact same bit stream
            // semantics (the fast loop merely batches its state updates).
            let data = r.data;
            let (mut pos, mut acc, mut nbits) = (r.pos, r.acc, r.nbits);
            while out.len() < n {
                if nbits < tb {
                    if pos + 8 > data.len() {
                        break;
                    }
                    let take = ((64 - nbits) >> 3) as usize;
                    let word = u64::from_be_bytes(data[pos..pos + 8].try_into().unwrap());
                    acc = if take == 8 {
                        word
                    } else {
                        (acc << (8 * take)) | (word >> (64 - 8 * take as u32))
                    };
                    pos += take;
                    nbits += 8 * take as u32;
                }
                let prefix = (acc >> (nbits - tb)) as usize & (table.len() - 1);
                let (sym, len) = table[prefix];
                if len == 0 {
                    // Long code: hand the reader back and take the cold path.
                    (r.pos, r.acc, r.nbits) = (pos, acc, nbits);
                    out.push(self.decode_long(r)?);
                    (pos, acc, nbits) = (r.pos, r.acc, r.nbits);
                    continue;
                }
                nbits -= len as u32;
                out.push(sym);
            }
            (r.pos, r.acc, r.nbits) = (pos, acc, nbits);
        }
        for _ in out.len()..n {
            out.push(self.decode_symbol(r)?);
        }
        Ok(())
    }

    /// Number of symbols in the table.
    pub fn alphabet_len(&self) -> usize {
        self.symbols.len()
    }
}

/// Compute optimal (then length-limited) code lengths from frequencies.
fn code_lengths(freqs: &[u64], limit: u32) -> Vec<u8> {
    let nonzero: Vec<usize> =
        freqs.iter().enumerate().filter(|(_, &f)| f > 0).map(|(s, _)| s).collect();
    let mut lengths = vec![0u8; freqs.len()];
    match nonzero.len() {
        0 => return lengths,
        1 => {
            // A single symbol still needs one bit so the payload is framed.
            lengths[nonzero[0]] = 1;
            return lengths;
        }
        _ => {}
    }

    // Heap-based Huffman over (freq, node). Ties broken by node id for
    // determinism across platforms.
    #[derive(PartialEq, Eq)]
    struct Item {
        freq: u64,
        node: u32,
    }
    impl Ord for Item {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // Reverse for a min-heap.
            other.freq.cmp(&self.freq).then(other.node.cmp(&self.node))
        }
    }
    impl PartialOrd for Item {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    let n = nonzero.len();
    // parent[i] for all 2n-1 tree nodes; leaves are 0..n.
    let mut parent = vec![u32::MAX; 2 * n - 1];
    let mut heap: BinaryHeap<Item> =
        nonzero.iter().enumerate().map(|(i, &s)| Item { freq: freqs[s], node: i as u32 }).collect();
    let mut next = n as u32;
    while heap.len() > 1 {
        let a = heap.pop().unwrap();
        let b = heap.pop().unwrap();
        parent[a.node as usize] = next;
        parent[b.node as usize] = next;
        heap.push(Item { freq: a.freq.saturating_add(b.freq), node: next });
        next += 1;
    }

    // Depth of each leaf = chain length to the root.
    let mut depths = vec![0u32; n];
    for (i, depth) in depths.iter_mut().enumerate() {
        let mut node = i as u32;
        while parent[node as usize] != u32::MAX {
            node = parent[node as usize];
            *depth += 1;
        }
    }

    limit_lengths(&mut depths, &nonzero, freqs, limit);
    for (i, &s) in nonzero.iter().enumerate() {
        lengths[s] = depths[i] as u8;
    }
    lengths
}

/// Clamp code lengths to `limit` and repair the Kraft sum by deepening the
/// lowest-frequency shallow codes.
fn limit_lengths(depths: &mut [u32], nonzero: &[usize], freqs: &[u64], limit: u32) {
    let over = depths.iter().any(|&d| d > limit);
    if !over {
        return;
    }
    for d in depths.iter_mut() {
        if *d > limit {
            *d = limit;
        }
    }
    let target = 1u64 << limit;
    let mut kraft: u64 = depths.iter().map(|&d| 1u64 << (limit - d)).sum();
    // Deepen lowest-frequency symbols first to minimize the cost of repair.
    let mut order: Vec<usize> = (0..depths.len()).collect();
    order.sort_by_key(|&i| freqs[nonzero[i]]);
    while kraft > target {
        let mut progressed = false;
        for &i in &order {
            if depths[i] < limit {
                kraft -= 1u64 << (limit - depths[i] - 1);
                depths[i] += 1;
                progressed = true;
                if kraft <= target {
                    break;
                }
            }
        }
        assert!(progressed, "cannot satisfy Kraft inequality at limit {limit}");
    }
}

/// Assign canonical codes from lengths.
fn assign_canonical(lengths: &[u8]) -> Vec<(u32, u8)> {
    let mut count = [0u32; MAX_CODE_LEN as usize + 1];
    for &l in lengths {
        count[l as usize] += 1;
    }
    count[0] = 0;
    let mut next_code = [0u64; MAX_CODE_LEN as usize + 2];
    let mut code = 0u64;
    for len in 1..=MAX_CODE_LEN as usize {
        code = (code + count[len - 1] as u64) << 1;
        next_code[len] = code;
    }
    let mut out = vec![(0u32, 0u8); lengths.len()];
    for (sym, &len) in lengths.iter().enumerate() {
        if len > 0 {
            out[sym] = (next_code[len as usize] as u32, len);
            next_code[len as usize] += 1;
        }
    }
    out
}

/// One-shot helper: encode a symbol stream into a self-contained block
/// (table + count + payload).
///
/// A run-length post-pass is applied to the Huffman payload when it helps —
/// the light-weight analogue of the lossless (zstd) stage the reference SZ3
/// stacks after Huffman coding. It matters in the high-compression regime:
/// with a sharply peaked code distribution Huffman floors at 1 bit/symbol,
/// while the payload bytes become long constant runs that RLE collapses.
pub fn encode_block(symbols: &[u32]) -> Vec<u8> {
    let enc = HuffmanEncoder::from_symbols(symbols);
    let mut w = ByteWriter::new();
    enc.serialize_table(&mut w);
    w.put_uvarint(symbols.len() as u64);
    let mut bw = BitWriter::with_capacity(symbols.len() / 2);
    enc.encode_into(symbols, &mut bw);
    let payload = bw.finish();
    let rle = crate::rle::encode(&payload);
    if rle.len() < payload.len() {
        w.put_u8(1);
        w.put_block(&rle);
    } else {
        w.put_u8(0);
        w.put_block(&payload);
    }
    w.finish()
}

/// Inverse of [`encode_block`].
pub fn decode_block(data: &[u8]) -> Result<Vec<u32>> {
    let mut out = Vec::new();
    decode_block_into(data, &mut out)?;
    Ok(out)
}

/// [`decode_block`] onto the end of a caller's buffer, so one buffer can take
/// block after block. On an error `out` keeps whatever was decoded before it.
pub fn decode_block_into(data: &[u8], out: &mut Vec<u32>) -> Result<()> {
    let mut r = ByteReader::new(data);
    let dec = HuffmanDecoder::deserialize(&mut r)?;
    let n = r.get_uvarint()? as usize;
    crate::guard::check_decode_alloc(n as u64, 4, "huffman symbol stream")?;
    if n > 0 && dec.alphabet_len() == 0 {
        return Err(CodecError::corrupt("payload with empty huffman table"));
    }
    let rle_flag = match r.get_u8()? {
        0 => false,
        1 => true,
        f => return Err(CodecError::corrupt(format!("invalid RLE flag {f}"))),
    };
    let block = r.get_block()?;
    let payload;
    let payload_ref: &[u8] = if rle_flag {
        payload = crate::rle::decode(block)?;
        &payload
    } else {
        block
    };
    let mut br = BitReader::new(payload_ref);
    dec.decode_n_into(&mut br, n, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(symbols: &[u32]) {
        let block = encode_block(symbols);
        let back = decode_block(&block).unwrap();
        assert_eq!(back, symbols);
    }

    #[test]
    fn empty_stream() {
        roundtrip(&[]);
    }

    #[test]
    fn single_symbol_repeated() {
        roundtrip(&[7u32; 1000]);
    }

    #[test]
    fn constant_stream_collapses_via_rle() {
        // The RLE post-pass must break the 1-bit/symbol Huffman floor for
        // constant streams (the >200x compression-ratio regime of the paper).
        let syms = vec![3u32; 100_000];
        let block = encode_block(&syms);
        assert!(block.len() < 64, "constant stream took {} bytes", block.len());
        assert_eq!(decode_block(&block).unwrap(), syms);
    }

    #[test]
    fn two_symbols() {
        let syms: Vec<u32> = (0..500).map(|i| (i % 2) as u32).collect();
        roundtrip(&syms);
    }

    #[test]
    fn skewed_distribution() {
        // Mimics quantization codes: sharply peaked at one value.
        let mut syms = vec![100u32; 10_000];
        for i in 0..100 {
            syms[i * 97] = (i % 40) as u32;
        }
        roundtrip(&syms);
        // The block must be much smaller than 4 bytes/symbol.
        let block = encode_block(&syms);
        assert!(block.len() < syms.len() / 2, "block {} bytes", block.len());
    }

    #[test]
    fn wide_alphabet() {
        let syms: Vec<u32> = (0..5000u32).map(|i| i.wrapping_mul(2654435761) % 1024).collect();
        roundtrip(&syms);
    }

    #[test]
    fn sparse_alphabet_large_symbols() {
        let syms = vec![0u32, 1_000_000, 5, 1_000_000, 0, 999_999];
        roundtrip(&syms);
    }

    #[test]
    fn exponential_freqs_hit_length_limit() {
        // Fibonacci-like frequencies force deep trees; lengths must clamp.
        let mut freqs = vec![0u64; 64];
        let (mut a, mut b) = (1u64, 1u64);
        for f in freqs.iter_mut() {
            *f = a;
            let c = a.saturating_add(b);
            a = b;
            b = c;
        }
        let enc = HuffmanEncoder::from_frequencies(&freqs);
        for s in 0..64u32 {
            assert!(enc.code_len(s) as u32 <= MAX_CODE_LEN);
            assert!(enc.code_len(s) > 0);
        }
        // And it still roundtrips.
        let mut syms = Vec::new();
        for (s, &f) in freqs.iter().enumerate() {
            for _ in 0..(f.min(3)) {
                syms.push(s as u32);
            }
        }
        let mut w = ByteWriter::new();
        enc.serialize_table(&mut w);
        let mut bw = BitWriter::new();
        enc.encode_into(&syms, &mut bw);
        w.put_block(&bw.finish());
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        let dec = HuffmanDecoder::deserialize(&mut r).unwrap();
        let payload = r.get_block().unwrap();
        let mut br = BitReader::new(payload);
        assert_eq!(dec.decode_n(&mut br, syms.len()).unwrap(), syms);
    }

    #[test]
    fn decoder_rejects_bad_tables() {
        // Kraft violation: three 1-bit codes.
        let entries = [(0u32, 1u8), (1, 1), (2, 1)];
        assert!(HuffmanDecoder::from_entries(&entries).is_err());
    }

    #[test]
    fn decoder_rejects_zero_length_entry() {
        let mut w = ByteWriter::new();
        w.put_uvarint(1);
        w.put_uvarint(0);
        w.put_u8(0); // invalid length
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        assert!(HuffmanDecoder::deserialize(&mut r).is_err());
    }

    #[test]
    fn decode_into_appends_to_the_buffer() {
        let (a, b): (Vec<u32>, Vec<u32>) = ((0..300).map(|i| i % 5).collect(), vec![9; 70]);
        let mut out = vec![42u32];
        decode_block_into(&encode_block(&a), &mut out).unwrap();
        decode_block_into(&encode_block(&b), &mut out).unwrap();
        assert_eq!(out, [&[42][..], &a, &b].concat());
        let block = encode_block(&a);
        assert!(decode_block_into(&block[..block.len() - 1], &mut out).is_err());
    }

    #[test]
    fn truncated_block_is_error() {
        let syms: Vec<u32> = (0..100).map(|i| (i % 7) as u32).collect();
        let block = encode_block(&syms);
        for cut in [0, 1, block.len() / 2, block.len() - 1] {
            assert!(decode_block(&block[..cut]).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn optimality_sanity_two_to_one() {
        // freq {a: 1000, b: 1} -> a gets a 1-bit code.
        let enc = HuffmanEncoder::from_frequencies(&[1000, 1]);
        assert_eq!(enc.code_len(0), 1);
        assert_eq!(enc.code_len(1), 1);
    }

    #[test]
    fn optimality_sanity_uniform_four() {
        let enc = HuffmanEncoder::from_frequencies(&[10, 10, 10, 10]);
        for s in 0..4 {
            assert_eq!(enc.code_len(s), 2);
        }
    }

    #[test]
    fn entropy_close_for_geometric() {
        // Encoded size should be within ~5% of the entropy bound + 1 bit/sym.
        let mut freqs = vec![0u64; 33];
        for (k, f) in freqs.iter_mut().enumerate() {
            *f = 1u64 << (32 - k.min(31));
        }
        let total: u64 = freqs.iter().sum();
        let enc = HuffmanEncoder::from_frequencies(&freqs);
        let bits = enc.encoded_bits(&freqs) as f64;
        let entropy: f64 = freqs
            .iter()
            .filter(|&&f| f > 0)
            .map(|&f| {
                let p = f as f64 / total as f64;
                -(f as f64) * p.log2()
            })
            .sum();
        assert!(bits <= entropy + total as f64, "bits {bits} vs entropy {entropy}");
    }

    #[test]
    fn long_codes_fall_back_to_walk() {
        // Build an alphabet where some codes exceed TABLE_BITS bits.
        let mut freqs = vec![1u64; 1 << 13]; // 8192 symbols, uniform -> 13-bit codes
        freqs[0] = 1 << 20; // one dominant symbol
        let enc = HuffmanEncoder::from_frequencies(&freqs);
        let max = (0..freqs.len() as u32).map(|s| enc.code_len(s) as u32).max().unwrap();
        assert!(max > TABLE_BITS, "test needs long codes, got max {max}");
        let syms: Vec<u32> = (0..(1 << 13)).map(|i| i as u32).collect();
        roundtrip(&syms);
    }
}

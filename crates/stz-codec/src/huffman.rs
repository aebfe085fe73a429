//! Canonical, length-limited Huffman coding.
//!
//! This is the lossless-encoding stage shared by STZ, SZ3 and MGARD (paper
//! §2.1 step 3). Codes are *canonical*: they are fully determined by the code
//! lengths plus the symbol ordering, so the serialized table stores only
//! `(symbol, length)` pairs. Lengths are limited to [`MAX_CODE_LEN`] bits by
//! a Kraft-sum repair pass.
//!
//! Decoding is table-driven at three depths, all derived from the one set of
//! canonical arrays. A stream long enough to repay it gets a *packed* table:
//! every window of up to [`TABLE_BITS`] bits maps to all the symbols whose
//! codes lie wholly inside it — up to seven, a byte each — so one lookup
//! yields several symbols, and the all-zeros window of a one-bit code turns
//! into a run as long as the zero bits last (quantization-code streams are
//! sharply peaked at zero, down to a seventh of a bit per symbol). A window
//! the packed table cannot answer — a symbol past a byte, a code past the
//! window — takes one symbol from the single-symbol table of [`TABLE_BITS`]
//! bits, and codes longer than that walk the canonical first codes. The
//! per-symbol path ([`HuffmanDecoder::decode_symbol`]) is the reference: for
//! every input, valid or hostile, the batch decoders return its symbols, its
//! error and its final bit position.
//!
//! Encoding keeps pace. A [`BlockEncoder`] counts a stream in one pass: where
//! a window of it opens with eight copies of one symbol, every aligned group
//! of eight of that symbol is counted in one step, and all else goes to
//! interleaved sub-histograms, so a stream that is nearly all one symbol
//! neither takes a step per symbol nor serializes on one counter. It packs
//! through a `(code, length)` table into an accumulator flushed a word at a
//! time into a buffer sized once from the histogram; where the symbol whose
//! code is the one bit `0` makes up at least 7/8 of the stream, each aligned
//! group of eight of it is eight zero bits in one step, the encode twin of
//! the decoder's run entry. The payload is run-length coded only where its
//! run count leaves RLE a chance to be smaller, and the encoder's buffers
//! serve block after block. The bytes are those of one [`BitWriter::put`]
//! per symbol and an RLE pass always tried: `tests/encoder.rs` holds the
//! encoder to that reference.

use crate::bits::{BitReader, BitWriter};
use crate::byteio::{ByteReader, ByteWriter};
use crate::varint::uvarint_len;
use crate::{CodecError, Result};
use std::collections::BinaryHeap;

/// Maximum permitted code length in bits.
pub const MAX_CODE_LEN: u32 = 32;
/// Width of the one-level decode lookup table.
pub const TABLE_BITS: u32 = 12;

/// Symbols a packed-table entry can hold, and the output slots every lookup
/// stores (the entry's eight bytes, the last being its counts).
const PACK_SYMBOLS: u64 = 7;
const PACK_SLOTS: usize = 8;
/// Packed entry of the all-zeros window when `0` is a whole code: count 0
/// and the one bit pattern no real entry has (31 bits used).
const PACK_RUN: u64 = 31 << 59;
/// Symbols decoded per packed-table entry built (see
/// `HuffmanDecoder::packed_bits`).
const PACK_RATIO: usize = 16;
/// Stream length from which the decoder's packed table is as wide as it
/// gets, [`TABLE_BITS`] bits: what a fuzz seed must reach to exercise the
/// decode loop as production chunks do.
pub const PACKED_TABLE_FULL: usize = PACK_RATIO << TABLE_BITS;
/// The symbol bytes of a packed entry.
const PACK_BYTES: u64 = (1 << 56) - 1;

/// Canonical Huffman encoder over a dense `u32` symbol alphabet.
#[derive(Debug, Clone, Default)]
pub struct HuffmanEncoder {
    /// Per-symbol `code << 8 | length`, one load per symbol in the encode
    /// loop; 0 means the symbol never occurs.
    codes: Vec<u64>,
    /// The symbol whose code is the one bit `0`, where it is common enough
    /// that the packer appends its aligned groups of [`RUN_GROUP`] in bulk.
    run: Option<u32>,
}

/// The encode loop's state, which stays in registers: pending bits in the
/// low `nbits` of `acc`, and the next byte of `out` to write. Fewer than 32
/// pending bits plus at most [`MAX_CODE_LEN`] more (a code, or a group of
/// one-bit codes) fit the accumulator, which leaves 32 bits at a time;
/// whatever is shifted out above the pending bits has already been written.
struct Packer<'a> {
    out: &'a mut [u8],
    pos: usize,
    acc: u64,
    nbits: u32,
}

impl Packer<'_> {
    /// Append one code, given as its `code << 8 | length`.
    #[inline(always)]
    fn put(&mut self, entry: u64) {
        let len = (entry & 0xFF) as u32;
        self.acc = (self.acc << len) | (entry >> 8);
        self.nbits += len;
        if self.nbits >= 32 {
            self.nbits -= 32;
            let word = (self.acc >> self.nbits) as u32;
            self.out[self.pos..self.pos + 4].copy_from_slice(&word.to_be_bytes());
            self.pos += 4;
        }
    }
}

/// Largest alphabet counted in [`HIST_LANES`] interleaved sub-histograms:
/// at most 4 × 1024 `u32` counters, 16 KB, half of a 32 KB L1d.
/// Quantization symbols are `zigzag(code) + 1`, so real streams sit far
/// below it.
const HIST_ALPHABET: usize = 1 << 10;
const HIST_LANES: usize = 4;

/// Symbols the run paths compare at once: counting and packing take an
/// aligned group of this many equal symbols — groups start at multiples of
/// it from the stream's start — as one step.
const RUN_GROUP: usize = 8;

/// Symbols per counting window, a multiple of [`RUN_GROUP`]: a window whose
/// first group is one symbol repeated is counted group by group, that
/// symbol's groups in bulk, and any other window symbol by symbol, so a
/// stream without runs pays one comparison per window for the run path.
const COUNT_WINDOW: usize = 256;

/// Share of a stream, in 64ths, that the symbol with the one-bit code `0`
/// must make up before the packer looks for its groups: below it too few
/// groups are whole runs to repay the comparison every group costs.
const RUN_SHARE_64THS: u64 = 56;

/// The counters a stream is counted with, kept from stream to stream.
#[derive(Debug, Clone, Default)]
struct Counts {
    /// [`HIST_LANES`] interleaved sub-histograms, `lanes[s * HIST_LANES + j]`
    /// counting symbol `s` in lane `j`, all zero between counts: a stream
    /// that is 99 % one symbol would make every increment of a single
    /// histogram wait on the store of the previous one to the same counter,
    /// so consecutive symbols go to different lanes, summed at the end. They
    /// grow to the largest symbol counted so far, rounded up to a power of
    /// two, and no further than [`HIST_ALPHABET`].
    lanes: Vec<u32>,
    /// `freqs[s]` = occurrences of `s`, for `s` up to the largest symbol
    /// present; symbols past [`HIST_ALPHABET`] are counted here directly.
    freqs: Vec<u64>,
}

impl Counts {
    /// Count `symbols` in one pass: `freqs[s]` = occurrences of `s`, for `s`
    /// up to the largest symbol present.
    fn count(&mut self, symbols: &[u32]) -> &[u64] {
        let Counts { lanes, freqs } = self;
        freqs.clear();
        // A lane counter holds any count of a stream of up to `u32::MAX`.
        if symbols.len() > u32::MAX as usize {
            for &s in symbols {
                add(freqs, s, 1);
            }
            return freqs;
        }
        // Every symbol the lanes counted, or'ed; the symbol counted in bulk,
        // and its count not yet added.
        let (mut seen, mut bulk, mut run) = (0, 0, 0);
        for window in symbols.chunks(COUNT_WINDOW) {
            let head = &window[..RUN_GROUP.min(window.len())];
            if head.len() < RUN_GROUP || !is_run(head, head[0]) {
                seen |= count_lanes(lanes, freqs, window);
                continue;
            }
            if head[0] != bulk {
                add(freqs, bulk, run);
                (bulk, run) = (head[0], 0);
            }
            let mut groups = window.chunks_exact(RUN_GROUP);
            for group in &mut groups {
                if is_run(group, bulk) {
                    run += RUN_GROUP as u64;
                } else {
                    seen |= count_lanes(lanes, freqs, group);
                }
            }
            seen |= count_lanes(lanes, freqs, groups.remainder());
        }
        add(freqs, bulk, run);
        // Fold the lanes in, leaving them zero for the next stream: no
        // symbol they counted exceeds `seen`.
        let top = (seen as usize).saturating_add(1).min(lanes.len() / HIST_LANES);
        if freqs.len() < top {
            freqs.resize(top, 0);
        }
        for (f, counts) in
            freqs.iter_mut().zip(lanes[..top * HIST_LANES].chunks_exact_mut(HIST_LANES))
        {
            *f += counts.iter().map(|&c| c as u64).sum::<u64>();
            counts.fill(0);
        }
        while freqs.last() == Some(&0) {
            freqs.pop();
        }
        freqs
    }
}

/// Whether every symbol of `group` is `symbol`, without a branch per symbol.
#[inline(always)]
fn is_run(group: &[u32], symbol: u32) -> bool {
    group.iter().fold(0, |diff, &s| diff | (s ^ symbol)) == 0
}

/// `freqs[symbol] += n`, growing `freqs` to hold `symbol` unless `n` is 0.
fn add(freqs: &mut Vec<u64>, symbol: u32, n: u64) {
    if n > 0 {
        let s = symbol as usize;
        if s >= freqs.len() {
            freqs.resize(s + 1, 0);
        }
        freqs[s] += n;
    }
}

/// Count `symbols` into the lanes in turn, and any past [`HIST_ALPHABET`]
/// into `freqs`; returns the symbols or'ed.
#[inline(always)]
fn count_lanes(lanes: &mut Vec<u32>, freqs: &mut Vec<u64>, symbols: &[u32]) -> u32 {
    let mut seen = 0;
    for group in symbols.chunks(HIST_LANES) {
        for (lane, &s) in group.iter().enumerate() {
            match lanes.get_mut(s as usize * HIST_LANES + lane) {
                Some(count) => *count += 1,
                None => widen(lanes, freqs, s, lane),
            }
            seen |= s;
        }
    }
    seen
}

/// Count one `symbol` the lanes are too narrow for: in `lane`, the lanes
/// grown to hold it, if it is below [`HIST_ALPHABET`], else in `freqs`.
fn widen(lanes: &mut Vec<u32>, freqs: &mut Vec<u64>, symbol: u32, lane: usize) {
    let s = symbol as usize;
    if s < HIST_ALPHABET {
        lanes.resize((s + 1).next_power_of_two() * HIST_LANES, 0);
        lanes[s * HIST_LANES + lane] += 1;
    } else {
        add(freqs, symbol, 1);
    }
}

/// `freqs[s]` = occurrences of `s` in `symbols`, for `s` up to the largest
/// symbol present.
fn histogram(symbols: &[u32]) -> Vec<u64> {
    let mut counts = Counts::default();
    counts.count(symbols);
    counts.freqs
}

impl HuffmanEncoder {
    /// Build an encoder from per-symbol frequencies (`freqs[s]` is the count
    /// of symbol `s`). Symbols with zero frequency get no code.
    pub fn from_frequencies(freqs: &[u64]) -> Self {
        let mut enc = HuffmanEncoder::default();
        enc.set_frequencies(freqs);
        enc
    }

    /// Rebuild this encoder for `freqs`, reusing its code table.
    fn set_frequencies(&mut self, freqs: &[u64]) {
        assign_canonical(&code_lengths(freqs, MAX_CODE_LEN), &mut self.codes);
        // Canonical codes start at 0, so the first one-bit code is `0`.
        let zero = self.codes.iter().position(|&entry| entry == 1);
        let total: u64 = freqs.iter().sum();
        let pays = |s: &usize| freqs[*s] as u128 * 64 >= total as u128 * RUN_SHARE_64THS as u128;
        self.run = zero.filter(pays).map(|s| s as u32);
    }

    /// Build an encoder directly from a symbol stream.
    pub fn from_symbols(symbols: &[u32]) -> Self {
        Self::from_frequencies(&histogram(symbols))
    }

    /// Append the code for one symbol.
    #[inline]
    pub fn encode_symbol(&self, symbol: u32, w: &mut BitWriter) {
        let entry = self.codes[symbol as usize];
        debug_assert!(entry != 0, "symbol {symbol} has no code (zero frequency)");
        w.put(entry >> 8, (entry & 0xFF) as u32);
    }

    /// Append codes for a whole stream: the bytes [`HuffmanEncoder::encode_symbol`]
    /// would append one symbol at a time.
    pub fn encode_into(&self, symbols: &[u32], w: &mut BitWriter) {
        let lens = symbols.iter().map(|&s| self.codes[s as usize] & 0xFF);
        let bits = w.nbits as u64 + lens.sum::<u64>();
        let start = w.buf.len();
        w.buf.resize(start + (bits / 8) as usize, 0);
        (w.acc, w.nbits) = self.pack(symbols, &mut w.buf[start..], (w.acc, w.nbits));
    }

    /// Pack the codes of `symbols` after the `nbits` bits pending in `acc`
    /// into `out`, which has room for exactly the whole bytes they make, and
    /// return the accumulator with the fewer than 8 bits left over.
    fn pack(&self, symbols: &[u32], out: &mut [u8], (acc, nbits): (u64, u32)) -> (u64, u32) {
        let codes = &self.codes[..];
        let code = |s: u32| {
            let entry = codes[s as usize];
            debug_assert!(entry != 0, "symbol {s} has no code (zero frequency)");
            entry
        };
        let mut p = Packer { out, pos: 0, acc, nbits };
        match self.run {
            Some(zero) => {
                let mut groups = symbols.chunks_exact(RUN_GROUP);
                for group in &mut groups {
                    if is_run(group, zero) {
                        // That many zero bits: the encode twin of the
                        // decoder's `PACK_RUN`.
                        p.put(RUN_GROUP as u64);
                    } else {
                        group.iter().for_each(|&s| p.put(code(s)));
                    }
                }
                groups.remainder().iter().for_each(|&s| p.put(code(s)));
            }
            None => symbols.iter().for_each(|&s| p.put(code(s))),
        }
        while p.nbits >= 8 {
            p.nbits -= 8;
            p.out[p.pos] = (p.acc >> p.nbits) as u8;
            p.pos += 1;
        }
        debug_assert_eq!(p.pos, p.out.len(), "the output is sized to the codes");
        (p.acc, p.nbits)
    }

    /// Exact encoded size in bits for a frequency histogram.
    pub fn encoded_bits(&self, freqs: &[u64]) -> u64 {
        freqs.iter().zip(&self.codes).map(|(&f, &entry)| f * (entry & 0xFF)).sum()
    }

    /// Serialize the code table (lengths only — codes are canonical).
    pub fn serialize_table(&self, w: &mut ByteWriter) {
        w.put_uvarint(self.coded_symbols() as u64);
        let mut prev = 0u32;
        for (sym, &entry) in self.codes.iter().enumerate().filter(|(_, &entry)| entry != 0) {
            w.put_uvarint((sym as u32 - prev) as u64);
            w.put_u8(entry as u8);
            prev = sym as u32;
        }
    }

    /// Number of symbols that have a code.
    pub fn coded_symbols(&self) -> usize {
        self.codes.iter().filter(|&&entry| entry != 0).count()
    }

    /// Code length of `symbol` in bits (0 if uncoded).
    pub fn code_len(&self, symbol: u32) -> u8 {
        self.codes.get(symbol as usize).map_or(0, |&entry| entry as u8)
    }
}

/// Canonical Huffman decoder.
#[derive(Debug, Clone)]
pub struct HuffmanDecoder {
    /// Fast path: `table[prefix] = index << 4 | len` for codes of length
    /// `<= table_bits`, `index` into `symbols`; `len == 0` marks a long code.
    /// By the Kraft inequality at most `1 << TABLE_BITS` codes are that
    /// short, so every such index is below it and an entry fits 16 bits
    /// (2 B against the 8 B a `(u32, u8)` pads to: 8 KiB a table, not 32).
    table: Vec<u16>,
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
        // Canonical order, and with it every table below, rests on it.
        if entries.windows(2).any(|pair| pair[0].0 >= pair[1].0) {
            return Err(CodecError::corrupt("huffman table symbols not ascending"));
        }
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
        let mut table = vec![0u16; table_len];
        for len in 1..=table_bits {
            let len_us = len as usize;
            for k in 0..count[len_us] {
                let code = first_code[len_us] + k as u64;
                let index = offset[len_us] + k;
                let shift = table_bits - len;
                let base = (code << shift) as usize;
                table[base..base + (1 << shift)].fill((index << 4 | len) as u16);
            }
        }

        Ok(HuffmanDecoder { table, table_bits, first_code, offset, count, symbols, max_len })
    }

    /// Decode a single symbol.
    #[inline]
    pub fn decode_symbol(&self, r: &mut BitReader<'_>) -> Result<u32> {
        let (sym, len) = self.short(r.peek(self.table_bits) as usize);
        if len > 0 {
            // peek() buffered >= len bits (or hit true EOF), so the cheap
            // consume path is exact.
            r.consume_buffered(len as u32)?;
            return Ok(sym);
        }
        self.decode_long(r)
    }

    /// The single-symbol table's answer for a `table_bits`-bit window: the
    /// symbol and its code length, or length 0 for a long code.
    #[inline(always)]
    fn short(&self, window: usize) -> (u32, u8) {
        match self.table[window] {
            0 => (0, 0),
            entry => (self.symbols[(entry >> 4) as usize], (entry & 15) as u8),
        }
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
        let (out, result) = self.decode_prefix(r, n);
        result.map(|()| out)
    }

    /// Decode up to `n` symbols: those decoded, and the error that stopped
    /// the decode short of `n`, if one did.
    fn decode_prefix(&self, r: &mut BitReader<'_>, n: usize) -> (Vec<u32>, Result<()>) {
        // A fresh buffer comes zeroed from the allocator: no fill pass. A
        // count beyond the slots can only run into the end of the input, one
        // symbol at a time.
        let mut out = vec![0u32; Self::slots_for(r, n)];
        let slots = out.len();
        let (done, mut result) = self.decode_into_slice(r, &mut out);
        out.truncate(done);
        for _ in slots..n {
            if result.is_err() {
                break;
            }
            result = self.decode_symbol(r).map(|symbol| out.push(symbol));
        }
        (out, result)
    }

    /// Output slots to commit for `n` declared symbols. `n` is
    /// caller-declared, but each decoded symbol consumes at least one input
    /// bit, so clamping to the real input size bounds the allocation even
    /// when the declared count lies — while an honest `n` gets its exact
    /// size up front.
    fn slots_for(r: &BitReader<'_>, n: usize) -> usize {
        n.min(r.bits_remaining() as usize)
    }

    /// Decode `out.len()` symbols into `out`: how many were stored, and the
    /// error that stopped the decode short of all of them, if one did. For
    /// every input the count, the stored prefix, the error and the reader's
    /// final position are those of [`HuffmanDecoder::decode_symbol`] called
    /// `out.len()` times; slots past the count are unspecified.
    pub fn decode_into_slice(&self, r: &mut BitReader<'_>, out: &mut [u32]) -> (usize, Result<()>) {
        // The hot loop, with the packed table the stream is worth or without
        // one, then whatever it left, one symbol at a time.
        let (mut done, hot) = match Self::packed_bits(out.len(), r.bits_remaining()) {
            0 => self.decode_hot::<false>(r, out, &[], 0),
            pbits => self.decode_hot::<true>(r, out, &self.packed_table(pbits), pbits),
        };
        if hot.is_err() {
            return (done, hot);
        }
        for slot in &mut out[done..] {
            match self.decode_symbol(r) {
                Ok(symbol) => *slot = symbol,
                Err(e) => return (done, Err(e)),
            }
            done += 1;
        }
        (done, Ok(()))
    }

    /// Index width of the packed table worth building to decode `n` symbols
    /// from `bits` bits of input; 0 when none is.
    ///
    /// Measured on 65,536-symbol chunks of quantization codes (one thread,
    /// 2.1 GHz Xeon): an entry costs ~2.3 ns to build and a lookup ~3 ns
    /// whichever table answers it, so a table pays for itself once each
    /// entry serves [`PACK_RATIO`] symbols (8, 16 and 32 measure alike; 64
    /// gives up a tenth at 3 bits per symbol) — but only if lookups return at
    /// least two symbols on average, `pbits / (bits / n)`: below that (5.7
    /// bits per symbol gains a tenth, 7.6 loses a quarter) hits and misses
    /// alternate unpredictably and the single-symbol table alone is faster.
    fn packed_bits(n: usize, bits: u64) -> u32 {
        let pbits = match n / PACK_RATIO {
            0 => 0,
            entries => entries.ilog2().min(TABLE_BITS),
        };
        if pbits as u64 * n as u64 >= 2 * bits {
            pbits
        } else {
            0
        }
    }

    /// The packed table of `pbits` bits, the entry of each window of that many
    /// bits at the window's value: every symbol whose code lies wholly inside
    /// the window — up to [`PACK_SYMBOLS`] of them, one byte each from the low
    /// byte up — with their number in bits 56..59 and their total code length
    /// in bits 59..64. It is built after the tables of every narrower width
    /// `w`, each at `1 << w` of a scratch table the hot loop does not hold,
    /// since a window is its first code and then a narrower window: the
    /// scratch and the table are each `1 << pbits` entries, and only the
    /// table outlives the build.
    /// Built from the canonical arrays the single-symbol table comes from —
    /// a test holds it to a greedy walk of that table — so there is no
    /// second source of truth.
    ///
    /// A window whose first symbol has no byte-sized value or no code inside
    /// the window is 0: the hot loop sends that one symbol through the
    /// single-symbol table. The widest all-zeros window of a table whose
    /// first code is the one bit `0` is [`PACK_RUN`] instead: a run of that
    /// symbol as long as the zero bits last.
    fn packed_table(&self, pbits: u32) -> Vec<u64> {
        let (mut tables, mut table) = (vec![0u64; 1 << pbits], vec![0u64; 1 << pbits]);
        // One symbol of `len` bits in byte `slot` of an entry, counted.
        let one = |symbol: u32, len: u32, slot: u64| {
            (symbol as u64) << (8 * slot) | 1 << 56 | (len as u64) << 59
        };
        // What an entry gives back when an eighth symbol pushes its seventh
        // out, by that symbol.
        let mut seventh = [0u64; 256];
        for len in 1..=self.max_len.min(pbits) {
            let first = self.offset[len as usize] as usize;
            for &symbol in &self.symbols[first..first + self.count[len as usize] as usize] {
                if let Some(entry) = seventh.get_mut(symbol as usize) {
                    *entry = one(symbol, len, PACK_SYMBOLS - 1);
                }
            }
        }
        for width in 1..=pbits {
            let (narrower, wider) = if width < pbits {
                tables.split_at_mut(1 << width)
            } else {
                (&mut tables[..], &mut table[..])
            };
            let mut at = 0;
            for len in 1..=self.max_len.min(width) {
                // Canonical codes ascend with (length, symbol), so the codes
                // of this length tile the windows from `at` on, each taking
                // the `share` windows that go on after it — whose entries
                // are it and then those of the `width - len`-bit table.
                let share = 1usize << (width - len);
                let rest = &narrower[share..2 * share];
                let first = self.offset[len as usize] as usize;
                for &symbol in &self.symbols[first..first + self.count[len as usize] as usize] {
                    if symbol <= 0xFF {
                        let head = one(symbol, len, 0);
                        for (entry, &rest) in wider[at..at + share].iter_mut().zip(rest) {
                            let rest = match rest >> 56 & 7 {
                                PACK_SYMBOLS => rest - seventh[(rest >> 48) as usize & 0xFF],
                                _ => rest,
                            };
                            *entry = ((rest & PACK_BYTES) << 8 | rest & !PACK_BYTES) + head;
                        }
                    }
                    at += share;
                }
            }
        }
        if self.count[1] > 0 {
            table[0] = PACK_RUN;
        }
        table
    }

    /// The hot loop of [`HuffmanDecoder::decode_into_slice`]: symbols through
    /// the packed table of `pbits` bits (if `PACKED`; without it the same
    /// source compiles to the plain single-symbol loop) while at least
    /// [`PACK_SLOTS`] output slots and a whole 8-byte refill remain. Returns
    /// how many symbols it stored and the error of the long code that
    /// stopped it, if one did.
    fn decode_hot<const PACKED: bool>(
        &self,
        r: &mut BitReader<'_>,
        out: &mut [u32],
        packed: &[u64],
        pbits: u32,
    ) -> (usize, Result<()>) {
        let (table, symbols, tb) = (&self.table[..], &self.symbols[..], self.table_bits);
        if tb == 0 || table.len() != 1 << tb || (PACKED && packed.len() != 1 << pbits) {
            return (0, Ok(()));
        }
        let run_symbol = self.symbols[0];
        // Reader state lives in registers. A packed hit stores all
        // `PACK_SLOTS` slots — the entry's bytes — and advances by its
        // counts; table indices are masked to the (length-checked) table
        // sizes, so no per-symbol branch, bounds check or `Result` survives,
        // and refills use the 8-byte path. The last slots, the last bytes of
        // input — where that refill no longer applies — and long codes go
        // through `decode_symbol` / `decode_long`, which keep the exact bit
        // stream semantics (this loop merely batches their state updates).
        let data = r.data;
        let (mut pos, mut acc, mut nbits) = (r.pos, r.acc, r.nbits);
        let mut o = 0usize;
        while o + PACK_SLOTS <= out.len() {
            if nbits < TABLE_BITS {
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
            if PACKED {
                let entry = packed[(acc >> (nbits - pbits)) as usize & (packed.len() - 1)];
                let count = (entry >> 56) as usize & 7;
                if count > 0 {
                    let slots: &mut [u32; PACK_SLOTS] =
                        (&mut out[o..o + PACK_SLOTS]).try_into().expect("PACK_SLOTS slots");
                    *slots = entry.to_le_bytes().map(u32::from);
                    o += count;
                    nbits -= (entry >> 59) as u32;
                    continue;
                }
                if entry == PACK_RUN {
                    // Every leading zero bit is one more `run_symbol`.
                    let zeros = (acc << (64 - nbits)).leading_zeros().min(nbits) as usize;
                    let run = zeros.min(out.len() - o);
                    out[o..o + run].fill(run_symbol);
                    o += run;
                    nbits -= run as u32;
                    continue;
                }
            }
            let entry = table[(acc >> (nbits - tb)) as usize & (table.len() - 1)];
            if entry & 15 > 0 {
                out[o] = symbols[(entry >> 4) as usize];
                nbits -= (entry & 15) as u32;
            } else {
                // Long code: hand the reader back and take the cold path.
                (r.pos, r.acc, r.nbits) = (pos, acc, nbits);
                match self.decode_long(r) {
                    Ok(symbol) => out[o] = symbol,
                    Err(e) => return (o, Err(e)),
                }
                (pos, acc, nbits) = (r.pos, r.acc, r.nbits);
            }
            o += 1;
        }
        (r.pos, r.acc, r.nbits) = (pos, acc, nbits);
        (o, Ok(()))
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

/// Assign canonical codes from lengths into `out`, packed `code << 8 | length`.
fn assign_canonical(lengths: &[u8], out: &mut Vec<u64>) {
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
    out.clear();
    out.resize(lengths.len(), 0);
    for (entry, &len) in out.iter_mut().zip(lengths) {
        if len > 0 {
            *entry = next_code[len as usize] << 8 | len as u64;
            next_code[len as usize] += 1;
        }
    }
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
    encode_block_counting(symbols).0
}

/// [`encode_block`], also returning how often symbol 0 — the quantizer's
/// escape — occurs in the stream: the histogram the codes are built from has
/// counted it already.
pub fn encode_block_counting(symbols: &[u32]) -> (Vec<u8>, usize) {
    BlockEncoder::default().block(symbols, false)
}

/// The buffers blocks are coded with — counters, code table, payload and
/// its run-length coding — kept from block to block, so a caller that codes
/// many blocks (a walk unit its chunks) allocates only the bytes it keeps.
#[derive(Debug, Clone, Default)]
pub struct BlockEncoder {
    counts: Counts,
    enc: HuffmanEncoder,
    table: ByteWriter,
    payload: Vec<u8>,
    rle: Vec<u8>,
}

impl BlockEncoder {
    /// [`encode_block_counting`] with these buffers, the block prefixed by
    /// its length as [`ByteWriter::put_block`] writes it, in an allocation
    /// of exactly its size.
    pub fn put_block(&mut self, symbols: &[u32]) -> (Vec<u8>, usize) {
        self.block(symbols, true)
    }

    fn block(&mut self, symbols: &[u32], prefixed: bool) -> (Vec<u8>, usize) {
        let freqs = self.counts.count(symbols);
        self.enc.set_frequencies(freqs);
        let bits = self.enc.encoded_bits(freqs);
        let escapes = freqs.first().map_or(0, |&zeros| zeros as usize);
        self.table.clear();
        self.enc.serialize_table(&mut self.table);

        // Sized once: the whole bytes the codes fill, and the padded last.
        let whole = (bits / 8) as usize;
        self.payload.clear();
        self.payload.resize(bits.div_ceil(8) as usize, 0);
        let (acc, nbits) = self.enc.pack(symbols, &mut self.payload[..whole], (0, 0));
        if nbits > 0 {
            self.payload[whole] = (acc << (8 - nbits)) as u8;
        }
        // Every run costs a byte and a varint of at least one: where that
        // floor is no smaller than the payload, RLE cannot win.
        let payload = &self.payload[..];
        let floor = uvarint_len(payload.len() as u64) + 2 * crate::rle::runs(payload);
        let rle = floor < payload.len() && {
            self.rle.clear();
            crate::rle::encode_into(payload, &mut self.rle);
            self.rle.len() < payload.len()
        };
        let body = if rle { &self.rle[..] } else { payload };

        let n = symbols.len() as u64;
        let len =
            self.table.len() + uvarint_len(n) + 1 + uvarint_len(body.len() as u64) + body.len();
        let prefix = if prefixed { uvarint_len(len as u64) } else { 0 };
        let mut w = ByteWriter::with_capacity(prefix + len);
        if prefixed {
            w.put_uvarint(len as u64);
        }
        w.put_raw(self.table.as_bytes());
        w.put_uvarint(n);
        w.put_u8(rle as u8);
        w.put_block(body);
        (w.finish(), escapes)
    }
}

/// Inverse of [`encode_block`].
pub fn decode_block(data: &[u8]) -> Result<Vec<u32>> {
    with_block(data, |dec, r, n| dec.decode_n(r, n))
}

/// [`decode_block`] into a caller's slice — no allocation, no fill: returns
/// the number of symbols the block holds, of which the first `out.len()` are
/// stored. A caller that expects a count sizes `out` to it and compares. The
/// block is decoded to its end either way, so a stream that breaks after
/// `out` is full fails exactly as it does in [`decode_block`].
pub fn decode_block_into_slice(data: &[u8], out: &mut [u32]) -> Result<usize> {
    with_block(data, |dec, r, n| {
        let stored = n.min(out.len());
        dec.decode_into_slice(r, &mut out[..stored]).1?;
        for _ in stored..n {
            dec.decode_symbol(r)?;
        }
        Ok(n)
    })
}

/// Parse a block up to its bit stream and hand `decode` the table's decoder,
/// a reader over the (un-run-length-coded) payload and the declared count.
fn with_block<R>(
    data: &[u8],
    decode: impl FnOnce(&HuffmanDecoder, &mut BitReader<'_>, usize) -> Result<R>,
) -> Result<R> {
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
    decode(&dec, &mut BitReader::new(payload_ref), n)
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
        // Symbols out of order, or twice.
        assert!(HuffmanDecoder::from_entries(&[(1, 1), (0, 1)]).is_err());
        assert!(HuffmanDecoder::from_entries(&[(1, 1), (1, 2)]).is_err());
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

    // ---- The per-symbol reference coders, and the fast paths held to them.

    /// What a decode leaves behind: the symbols, how it ended, and where the
    /// reader stopped.
    type Decoded = (Vec<u32>, Result<()>, u64);

    /// The reference decoder: `decode_symbol`, `n` times.
    fn reference_decode(dec: &HuffmanDecoder, data: &[u8], n: usize) -> Decoded {
        let mut r = BitReader::new(data);
        let mut out = Vec::new();
        for _ in 0..n {
            match dec.decode_symbol(&mut r) {
                Ok(symbol) => out.push(symbol),
                Err(e) => return (out, Err(e), r.bits_consumed()),
            }
        }
        (out, Ok(()), r.bits_consumed())
    }

    /// The fast decoder through each of its fronts, which must all agree.
    fn fast_decode(dec: &HuffmanDecoder, data: &[u8], n: usize) -> Decoded {
        let mut r = BitReader::new(data);
        let (symbols, result) = dec.decode_prefix(&mut r, n);
        let prefix = (symbols, result, r.bits_consumed());

        let mut r = BitReader::new(data);
        let fresh = dec.decode_n(&mut r, n);
        assert_eq!(fresh.clone().err(), prefix.1.clone().err());
        assert_eq!(r.bits_consumed(), prefix.2);
        if let Ok(fresh) = fresh {
            assert!(fresh == prefix.0, "decode_n and its prefix differ");
        }

        // The slice front cannot hold more than the input has bits for.
        let mut r = BitReader::new(data);
        let mut slots = vec![u32::MAX; n.min(data.len() * 8)];
        let (done, result) = dec.decode_into_slice(&mut r, &mut slots);
        if slots.len() == n {
            assert_eq!(
                (&slots[..done], &result, r.bits_consumed()),
                (&prefix.0[..], &prefix.1, prefix.2)
            );
        }
        prefix
    }

    fn assert_decodes_alike(dec: &HuffmanDecoder, data: &[u8], n: usize, what: &str) {
        let (fast, reference) = (fast_decode(dec, data, n), reference_decode(dec, data, n));
        assert_eq!(
            (fast.0.len(), &fast.1, fast.2),
            (reference.0.len(), &reference.1, reference.2),
            "{what}, n = {n}"
        );
        assert!(fast.0 == reference.0, "{what}, n = {n}: symbols differ");
    }

    /// The reference encoder: one `put` per symbol.
    fn reference_encode(enc: &HuffmanEncoder, symbols: &[u32], w: &mut BitWriter) {
        for &s in symbols {
            enc.encode_symbol(s, w);
        }
    }

    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
    }

    /// A complete code with lengths `1, 2, .., max_len - 1, max_len, max_len`
    /// (one symbol of one bit when `max_len` is 0), over symbols that include
    /// values past a byte, past 16 bits and a sparse 1,000,000.
    fn comb_table(max_len: u8) -> Vec<(u32, u8)> {
        const SYMBOLS: [u32; 8] = [3, 9, 200, 256, 70_000, 1_000_000, 1_000_001, 4_000_000_000];
        let lens: Vec<u8> = match max_len {
            0 => vec![1],
            _ => (1..=max_len).chain([max_len]).collect(),
        };
        // Ascending symbols; which of them gets the short codes rotates.
        let mut entries: Vec<(u32, u8)> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| {
                let turn = (i + max_len as usize) % lens.len();
                (SYMBOLS[turn % 8] + turn as u32 / 8 * 17, len)
            })
            .collect();
        entries.sort_unstable();
        entries.dedup_by_key(|e| e.0);
        entries
    }

    /// `n` symbols drawn so that a code of `len` bits turns up about once in
    /// `2^len` draws, and their encoding: one `put` per symbol of the
    /// canonical code of `entries`, worked out here from its definition.
    fn random_stream(entries: &[(u32, u8)], n: usize, seed: u64) -> (Vec<u32>, Vec<u8>) {
        let mut by_length: Vec<(u8, u32)> =
            entries.iter().map(|&(symbol, len)| (len, symbol)).collect();
        by_length.sort_unstable();
        let (mut code, mut code_len) = (0u64, by_length[0].0);
        let codes: Vec<(u32, u64, u8)> = by_length
            .iter()
            .map(|&(len, symbol)| {
                code <<= len - code_len;
                code_len = len;
                code += 1;
                (symbol, code - 1, len)
            })
            .collect();
        let mut rng = XorShift(seed | 1);
        let mut w = BitWriter::new();
        let symbols = (0..n)
            .map(|_| loop {
                let (symbol, code, len) = codes[rng.next() as usize % codes.len()];
                if len <= 2 || rng.next() >> 40 & ((1 << len.min(20)) - 1) == 0 {
                    w.put(code, len as u32);
                    break symbol;
                }
            })
            .collect();
        (symbols, w.finish())
    }

    /// Symbol counts on both sides of every packed-table width: no table
    /// below `PACK_RATIO * 2`, then one bit wider at each doubling.
    fn counts() -> Vec<usize> {
        let mut counts: Vec<usize> = (0..=70).collect();
        for p in 1..=TABLE_BITS + 1 {
            let edge = PACK_RATIO << p;
            counts.extend([edge - 1, edge, edge + PACK_SLOTS + 1]);
        }
        counts
    }

    #[test]
    fn fast_decode_equals_reference_on_generated_tables() {
        for max_len in 0..=MAX_CODE_LEN as u8 {
            let entries = comb_table(max_len);
            let dec = HuffmanDecoder::from_entries(&entries).unwrap();
            let (symbols, payload) = random_stream(&entries, 70_000, 0xA5A5 + max_len as u64);
            for n in counts() {
                assert_decodes_alike(&dec, &payload, n, &format!("max_len {max_len}"));
            }
            let (fast, result, _) = fast_decode(&dec, &payload, symbols.len());
            assert!(fast == symbols && result.is_ok(), "max_len {max_len}: {result:?}");
            // A count the payload cannot hold runs into its end.
            assert_decodes_alike(&dec, &payload[..payload.len() / 3], 70_000, "short payload");
            // Random bits: every symbol of the table, the giants included,
            // and — where the code is incomplete — undecodable prefixes.
            let mut rng = XorShift(77 + max_len as u64);
            let noise: Vec<u8> = (0..4096).map(|_| rng.next() as u8).collect();
            for n in [70, 1024, 4096, 40_000] {
                assert_decodes_alike(&dec, &noise, n, &format!("noise, max_len {max_len}"));
                let incomplete = HuffmanDecoder::from_entries(&entries[1..]).unwrap();
                assert_decodes_alike(&incomplete, &noise, n, &format!("incomplete {max_len}"));
            }
        }
    }

    /// Two-sided geometric quantization codes (`zigzag + 1`) around zero.
    fn quantization_codes(q: f64, n: usize, seed: u64) -> Vec<u32> {
        let mut rng = XorShift(seed | 1);
        (0..n)
            .map(|_| {
                let mut k = 0u32;
                while ((rng.next() >> 11) as f64) < q * (1u64 << 53) as f64 && k < 300 {
                    k += 1;
                }
                match (k, rng.next() & 1) {
                    (0, _) => 1,
                    (k, 0) => 2 * k + 1,
                    (k, _) => 2 * k,
                }
            })
            .collect()
    }

    #[test]
    fn chunk_sized_streams_code_like_the_reference() {
        // ~0.15, ~1 and ~4 bits per symbol, and one past the point where
        // the packed table is given up.
        for (q, escapes) in [(0.01, 0), (0.15, 3), (0.8, 40), (0.97, 0)] {
            let mut symbols = quantization_codes(q, 1 << 16, 9);
            for i in 0..escapes {
                symbols[i * 1531 + 11] = 0;
            }
            let enc = HuffmanEncoder::from_symbols(&symbols);
            let (mut fast, mut reference) = (BitWriter::new(), BitWriter::new());
            enc.encode_into(&symbols, &mut fast);
            reference_encode(&enc, &symbols, &mut reference);
            let payload = fast.finish();
            assert!(payload == reference.finish(), "q {q}: encoded bytes differ");

            let mut table = ByteWriter::new();
            enc.serialize_table(&mut table);
            let table = table.finish();
            let dec = HuffmanDecoder::deserialize(&mut ByteReader::new(&table)).unwrap();
            let (decoded, result, _) = fast_decode(&dec, &payload, symbols.len());
            assert!(decoded == symbols && result.is_ok(), "q {q}: {result:?}");
            assert_decodes_alike(&dec, &payload, symbols.len(), "chunk");
            // Sampled damage at chunk size: cuts, and single-bit flips.
            for cut in (0..payload.len()).step_by(payload.len() / 61 + 1) {
                assert_decodes_alike(&dec, &payload[..cut], symbols.len(), "cut chunk");
            }
            for bit in (0..payload.len() * 8).step_by(payload.len() * 8 / 97 + 1) {
                let mut flipped = payload.clone();
                flipped[bit / 8] ^= 0x80 >> (bit % 8);
                assert_decodes_alike(&dec, &flipped, symbols.len(), "flipped chunk");
            }

            let (block, zeros) = encode_block_counting(&symbols);
            assert_eq!(zeros, escapes, "q {q}");
            assert!(block == encode_block(&symbols));
            assert!(decode_block(&block).unwrap() == symbols);
            let mut slots = vec![u32::MAX; symbols.len()];
            assert_eq!(decode_block_into_slice(&block, &mut slots), Ok(symbols.len()));
            assert!(slots == symbols);
        }
    }

    #[test]
    fn every_cut_and_every_flipped_bit_of_a_short_payload() {
        // Long enough for a 64-entry packed table, short enough to try
        // every damage there is; the incomplete table turns some of it into
        // undecodable prefixes and long-code failures.
        for max_len in [3u8, 7, 12, 15] {
            let entries = comb_table(max_len);
            let (symbols, payload) = random_stream(&entries, 1100, 31 + max_len as u64);
            for entries in [&entries[..], &entries[1..]] {
                let dec = HuffmanDecoder::from_entries(entries).unwrap();
                for cut in 0..=payload.len() {
                    assert_decodes_alike(&dec, &payload[..cut], symbols.len(), "cut");
                }
                for bit in 0..payload.len() * 8 {
                    let mut flipped = payload.clone();
                    flipped[bit / 8] ^= 0x80 >> (bit % 8);
                    assert_decodes_alike(&dec, &flipped, symbols.len(), "flip");
                }
            }
        }
    }

    #[test]
    fn packed_table_is_the_greedy_walk_of_the_single_symbol_table() {
        for max_len in 0..=MAX_CODE_LEN as u8 {
            let mut tables = vec![comb_table(max_len)];
            tables.push(tables[0][1..].to_vec());
            // Seven one-bit codes and more in one window: the cap.
            tables.push(vec![(1, 1), (2, 2), (4, 4), (5, 4), (300, 3)]);
            for entries in tables.iter().filter(|t| !t.is_empty()) {
                let dec = HuffmanDecoder::from_entries(entries).unwrap();
                for pbits in 0..=TABLE_BITS {
                    let packed = dec.packed_table(pbits);
                    assert_eq!(packed.len(), 1 << pbits);
                    for (window, &entry) in packed.iter().enumerate() {
                        if entry == PACK_RUN {
                            assert_eq!((window, entries.iter().any(|e| e.1 == 1)), (0, true));
                            continue;
                        }
                        let (mut bits, mut expect, mut used) = (window << (32 - pbits), 0u64, 0);
                        for held in 0..PACK_SYMBOLS as u32 {
                            let (symbol, len) =
                                dec.short((bits >> (32 - dec.table_bits)) & (dec.table.len() - 1));
                            if len == 0 || used + len as u32 > pbits || symbol > 0xFF {
                                break;
                            }
                            expect = (expect | (symbol as u64) << (8 * held))
                                + (1 << 56)
                                + ((len as u64) << 59);
                            used += len as u32;
                            bits = (bits << len) & 0xFFFF_FFFF;
                        }
                        assert_eq!(
                            entry, expect,
                            "max_len {max_len}, {pbits}-bit window {window:b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn word_flush_encoder_writes_the_reference_bytes() {
        let symbols = quantization_codes(0.6, 1 << 16, 5);
        let enc = HuffmanEncoder::from_symbols(&symbols);
        for n in (0..=200).chain([1 << 16]) {
            // From a writer that already holds a few bits, and on into more.
            let (mut fast, mut reference) = (BitWriter::new(), BitWriter::new());
            for w in [&mut fast, &mut reference] {
                w.put(0b101, 3);
            }
            enc.encode_into(&symbols[..n], &mut fast);
            reference_encode(&enc, &symbols[..n], &mut reference);
            assert_eq!(fast.bit_len(), reference.bit_len(), "{n} symbols");
            for w in [&mut fast, &mut reference] {
                w.put(0x1F_FFFF_FFFF_FFFF, 57);
            }
            assert!(fast.finish() == reference.finish(), "{n} symbols: encoded bytes differ");
        }
    }

    #[test]
    fn sub_histograms_count_like_one() {
        let mut rng = XorShift(3);
        // One `Counts` also counts every stream after the ones before it,
        // whose lanes were wider or narrower.
        let mut counts = Counts::default();
        for (alphabet, n) in [
            (1, 9),
            (5, 0),
            (5, 3),
            (40, 1001),
            (HIST_ALPHABET as u64, 5000),
            (HIST_ALPHABET as u64 + 1, 5000),
            (70_000, 300),
            (3, 700),
        ] {
            let symbols: Vec<u32> = (0..n).map(|_| (rng.next() % alphabet) as u32).collect();
            let mut expect = vec![0u64; symbols.iter().max().map_or(0, |&m| m as usize + 1)];
            for &s in &symbols {
                expect[s as usize] += 1;
            }
            assert_eq!(histogram(&symbols), expect, "alphabet {alphabet}, {n} symbols");
            assert_eq!(counts.count(&symbols), expect, "alphabet {alphabet}, {n} symbols, reused");
        }
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

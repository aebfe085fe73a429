//! The block encoder against a plain reference written here: one `u64`
//! counter per symbol, `encode_symbol` once per symbol, `rle::encode` always
//! run and the flag chosen by `<`. Every stream shape below reaches a path
//! of the fast encoder: counting runs in bulk or symbol by symbol, past the
//! sub-histograms' alphabet, packing a run of the one-bit code `0` a group at
//! a time at every length and alignment, or one code a step, codes longer
//! than 16 bits among them, and the run-length pass skipped, tried and lost,
//! or won by a single byte.

use std::cell::RefCell;
use stz_codec::huffman::{encode_block_counting, BlockEncoder, HuffmanEncoder};
use stz_codec::{rle, varint, BitWriter, ByteWriter};
use stz_fuzz::rng::{property, FuzzRng};

/// A stream to code, by shape; `seed` draws what the shape leaves open.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// `n` copies of `symbol`.
    Constant { symbol: u32, n: usize },
    /// Runs of `run` of every length from 0 to 70, each starting at every
    /// offset modulo the packer's group of 8, between other symbols; then
    /// nine times as many `run`s, so that `run` gets the one-bit code `0`.
    Runs { run: u32, seed: u64 },
    /// `n` quantization codes, `zigzag + 1` of a two-sided geometric
    /// residual that goes on with probability `q_pct`/100, below `alphabet`,
    /// whose largest symbol is present, with escapes (symbol 0) at
    /// `escape_pct`/100.
    Peaked { alphabet: u32, n: usize, q_pct: u64, escape_pct: u64, seed: u64 },
    /// `n` symbols from `0..k`, each about as often: no one-bit code.
    Flat { k: u32, n: usize, seed: u64 },
    /// `k` symbols occurring a Fibonacci number of times each, in a
    /// shuffled order: codes longer than 16 bits.
    Deep { k: u32, seed: u64 },
    /// Two symbols whose codes are the bits of a payload of `bytes` bytes,
    /// made of runs shorter than 128, whose run-length coding is longer than
    /// the payload by `margin` bytes.
    RleMargin { margin: i64, bytes: usize, seed: u64 },
}

/// Stream lengths around the packer's group of 8 and one whole chunk.
const LENGTHS: [usize; 6] = [0, 1, 7, 8, 9, 65_536];

impl Shape {
    fn draw(rng: &mut FuzzRng) -> Shape {
        let n = if rng.chance(1, 2) { *rng.pick(&LENGTHS) } else { rng.below(5000) as usize };
        let seed = rng.next_u64();
        match rng.below(6) {
            0 => Shape::Constant { symbol: *rng.pick(&[0, 1, 3, 1023, 1024, 70_000]), n },
            1 => Shape::Runs { run: *rng.pick(&[1, 2, 7, 0]), seed },
            2 => Shape::Peaked {
                alphabet: *rng.pick(&[1, 2, 40, 1024, 1025, 70_000]),
                n,
                q_pct: *rng.pick(&[1, 20, 60, 90]),
                escape_pct: *rng.pick(&[0, 1, 30]),
                seed,
            },
            3 => Shape::Flat { k: *rng.pick(&[4, 16, 256]), n, seed },
            4 => Shape::Deep { k: rng.range(18, 24) as u32, seed },
            _ => {
                // Clear of 128, where the varint of the length grows.
                let (short, long) = (rng.range(8, 120), rng.range(140, 300));
                let bytes = *rng.pick(&[short, long]) as usize;
                Shape::RleMargin { margin: *rng.pick(&[-1, 1]), bytes, seed }
            }
        }
    }

    fn symbols(self) -> Vec<u32> {
        match self {
            Shape::Constant { symbol, n } => vec![symbol; n],
            Shape::Runs { run, seed } => {
                let mut rng = FuzzRng::new(seed);
                let others = [run + 1, run + 3];
                let mut s = Vec::new();
                for len in 0..=70 {
                    for offset in 0..8 {
                        s.push(*rng.pick(&others));
                        while s.len() % 8 != offset {
                            s.push(*rng.pick(&others));
                        }
                        s.extend(std::iter::repeat(run).take(len));
                        s.push(*rng.pick(&others));
                    }
                }
                s.extend(std::iter::repeat(run).take(9 * s.len()));
                s
            }
            Shape::Peaked { alphabet, n, q_pct, escape_pct, seed } => {
                let mut rng = FuzzRng::new(seed);
                let mut s: Vec<u32> = (0..n)
                    .map(|_| {
                        if rng.chance(escape_pct, 100) {
                            return 0;
                        }
                        let mut k = 0u32;
                        while rng.chance(q_pct, 100) && k < 40_000 {
                            k += 1;
                        }
                        let code = if rng.chance(1, 2) { 2 * k + 1 } else { (2 * k).max(1) };
                        code.min(alphabet - 1)
                    })
                    .collect();
                if let Some(last) = s.last_mut() {
                    *last = alphabet - 1;
                }
                s
            }
            Shape::Flat { k, n, seed } => {
                let mut rng = FuzzRng::new(seed);
                (0..n).map(|i| (i as u32 + rng.below(2) as u32) % k).collect()
            }
            Shape::Deep { k, seed } => {
                let mut rng = FuzzRng::new(seed);
                let (mut s, mut fib) = (Vec::new(), (1, 1));
                for symbol in 0..k {
                    s.extend(std::iter::repeat(symbol).take(fib.0));
                    fib = (fib.1, fib.0 + fib.1);
                }
                for i in (1..s.len()).rev() {
                    s.swap(i, rng.below(i as u64 + 1) as usize);
                }
                s
            }
            Shape::RleMargin { margin, bytes, seed } => {
                // varint(bytes) + 2 bytes a run = bytes + margin.
                let mut rng = FuzzRng::new(seed);
                let head = varint::uvarint_len(bytes as u64) as i64;
                let runs = (bytes as i64 + margin - head) / 2;
                let bytes = (2 * runs + head - margin) as usize;
                // `runs` run lengths of at least one summing to `bytes`.
                let mut lens = vec![1usize; runs as usize];
                for _ in runs as usize..bytes {
                    let at = rng.below(runs as u64) as usize;
                    if lens[at] < 127 {
                        lens[at] += 1;
                    } else {
                        *lens.iter_mut().find(|l| **l < 127).expect("room") += 1;
                    }
                }
                let (a, b) = (rng.below(1000) as u32, 1000 + rng.below(1000) as u32);
                let mut value = rng.next_u64() as u8;
                let mut s = Vec::new();
                for len in lens {
                    value = value.wrapping_add(1 + rng.below(255) as u8);
                    for _ in 0..len {
                        s.extend((0..8).rev().map(|bit| if value >> bit & 1 == 1 { b } else { a }));
                    }
                }
                s
            }
        }
    }
}

/// The reference coder: the block, its escape count, and the lengths of the
/// Huffman payload and of its run-length coding.
fn reference(symbols: &[u32]) -> ((Vec<u8>, usize), usize, usize) {
    let mut freqs = vec![0u64; symbols.iter().max().map_or(0, |&m| m as usize + 1)];
    for &s in symbols {
        freqs[s as usize] += 1;
    }
    let enc = HuffmanEncoder::from_frequencies(&freqs);
    let mut bits = BitWriter::new();
    for &s in symbols {
        enc.encode_symbol(s, &mut bits);
    }
    let payload = bits.finish();
    let rle = rle::encode(&payload);
    let mut w = ByteWriter::new();
    enc.serialize_table(&mut w);
    w.put_uvarint(symbols.len() as u64);
    let rle_wins = rle.len() < payload.len();
    w.put_u8(rle_wins as u8);
    w.put_block(if rle_wins { &rle } else { &payload });
    let escapes = freqs.first().map_or(0, |&zeros| zeros as usize);
    ((w.finish(), escapes), payload.len(), rle.len())
}

#[test]
fn block_encoder_writes_the_reference_bytes() {
    // One encoder for every case: its buffers must carry nothing over.
    let scratch = RefCell::new(BlockEncoder::default());
    property("block_encoder_writes_the_reference_bytes", 160, Shape::draw, |&shape| {
        let symbols = shape.symbols();
        let (want, payload, rle) = reference(&symbols);
        if let Shape::RleMargin { margin, .. } = shape {
            assert_eq!(rle as i64 - payload as i64, margin, "the case misses its margin");
        }
        let got = encode_block_counting(&symbols);
        assert!(got == want, "encode_block_counting: {} vs {} bytes", got.0.len(), want.0.len());
        let (prefixed, escapes) = scratch.borrow_mut().put_block(&symbols);
        let mut expect = Vec::new();
        varint::put_uvarint(&mut expect, want.0.len() as u64);
        expect.extend_from_slice(&want.0);
        assert!(prefixed == expect && escapes == want.1, "put_block differs");
    });
}

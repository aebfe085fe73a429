//! Boundary tests for the two untrusted-input gates the fuzz harnesses
//! exercise hardest:
//!
//! * the STZP frame-length prefix — every edge of the
//!   [`MAX_FRAME_PAYLOAD`] cap (0, cap−1, cap, cap+1, `u32::MAX`) crafted
//!   as raw 16-byte headers, proving exactly where the gate sits: at-cap
//!   lengths pass the header check and fail only as truncated payloads,
//!   one-past-cap is refused before any payload byte is read;
//! * [`proto::decode_inspect`] — `INSPECT_OK` rows from an untrusted peer
//!   must reject ndim/extent combinations that `Dims`' own constructor
//!   would assert on, and accept every consistent 1-D/2-D/3-D shape.

use stz::serve::proto::{self, FrameType, MAX_FRAME_PAYLOAD};
use stz::serve::ServeError;

/// A valid empty LIST frame whose length bytes we patch per edge case.
fn empty_frame() -> Vec<u8> {
    let mut buf = Vec::new();
    proto::write_frame(&mut buf, FrameType::List, &[]).expect("vec write");
    buf
}

fn with_len(len: u32) -> Vec<u8> {
    let mut frame = empty_frame();
    frame[8..12].copy_from_slice(&len.to_le_bytes());
    frame
}

#[test]
fn frame_len_zero_is_a_valid_frame() {
    let frame = empty_frame();
    let got = proto::read_frame(&mut &frame[..]).expect("read").expect("some");
    assert_eq!(got.kind, FrameType::List as u8);
    assert!(got.payload.is_empty());
}

#[test]
fn frame_len_at_cap_passes_the_header_gate() {
    // cap−1 and cap are legal declarations; with no payload bytes behind
    // them the failure must be "truncated payload" — i.e. *after* the
    // length gate — and reading must not reserve the declared size up
    // front (the chunked reader tops out at 1 MiB before the first read).
    for len in [MAX_FRAME_PAYLOAD - 1, MAX_FRAME_PAYLOAD] {
        let frame = with_len(len);
        match proto::read_frame(&mut &frame[..]) {
            Err(ServeError::Protocol(msg)) => {
                assert!(msg.contains("truncated frame payload"), "len {len}: {msg}")
            }
            other => panic!("len {len}: expected truncated-payload error, got {other:?}"),
        }
    }
}

#[test]
fn frame_len_past_cap_is_rejected_at_the_header() {
    for len in [MAX_FRAME_PAYLOAD + 1, u32::MAX] {
        let frame = with_len(len);
        match proto::read_frame(&mut &frame[..]) {
            Err(ServeError::Protocol(msg)) => {
                assert!(msg.contains("exceeds"), "len {len}: {msg}")
            }
            other => panic!("len {len}: expected length-cap error, got {other:?}"),
        }
    }
}

#[test]
fn frame_len_gate_holds_even_with_trailing_bytes() {
    // An over-cap declaration followed by real bytes must still be
    // refused from the header alone — the reader may not consume or
    // buffer any of the declared payload.
    let mut frame = with_len(u32::MAX);
    frame.extend_from_slice(&[0xAB; 64]);
    assert!(matches!(proto::read_frame(&mut &frame[..]), Err(ServeError::Protocol(_))));
}

/// A one-row `INSPECT_OK` payload for an stz entry of `ndim` axes and
/// extents `dims`, crafted field by field so any shape can be declared.
fn inspect_ok(ndim: u8, dims: [u64; 3]) -> Vec<u8> {
    let mut e = proto::Enc::new();
    e.u32(1); // rows
    e.string("t");
    e.u8(stz::backend::id::STZ);
    e.u8(0); // f32
    e.u8(ndim);
    e.u8(1); // levels
    e.u8(1); // linear
    for v in dims {
        e.u64(v);
    }
    e.f64(1e-3);
    e.u64(128); // compressed_len
    e.u32(0); // payload_crc
    e.u32(1); // sections
    e.u64(128); // level_bytes[0]
    e.finish()
}

#[test]
fn decode_inspect_accepts_consistent_shapes() {
    for (ndim, dims) in [(1u8, [1u64, 1, 9]), (2, [1, 4, 9]), (3, [2, 4, 9])] {
        let rows = proto::decode_inspect(&inspect_ok(ndim, dims))
            .unwrap_or_else(|e| panic!("ndim {ndim} dims {dims:?}: {e}"));
        let desc = &rows[0];
        assert_eq!(desc.index, 0);
        assert_eq!(desc.dims.ndim(), ndim);
        assert_eq!([desc.dims.nz() as u64, desc.dims.ny() as u64, desc.dims.nx() as u64], dims);
    }
}

#[test]
fn decode_inspect_rejects_inconsistent_ndim() {
    // Shapes that Dims::from_parts would assert on must come back as
    // protocol errors instead of panics: that exact panic was reachable
    // from hostile codec headers before the fuzzer pinned it.
    let hostile = [
        (1u8, [2u64, 1, 9]), // 1-D with nz != 1
        (1, [1, 3, 9]),      // 1-D with ny != 1
        (2, [5, 4, 9]),      // 2-D with nz != 1
        (0, [1, 1, 1]),      // no axes
        (4, [2, 2, 2]),      // too many axes
    ];
    for (ndim, dims) in hostile {
        match proto::decode_inspect(&inspect_ok(ndim, dims)) {
            Err(ServeError::Protocol(msg)) => {
                assert!(msg.contains("dims"), "ndim {ndim}: {msg}")
            }
            other => panic!("ndim {ndim} dims {dims:?}: expected Protocol error, got {other:?}"),
        }
    }
}

#[test]
fn decode_inspect_rejects_zero_extents() {
    for dims in [[0u64, 4, 9], [2, 0, 9], [2, 4, 0]] {
        assert!(
            matches!(proto::decode_inspect(&inspect_ok(3, dims)), Err(ServeError::Protocol(_))),
            "zero extent {dims:?} must be refused"
        );
    }
}

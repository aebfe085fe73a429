//! STZP v1 — the length-prefixed binary wire protocol shared by the
//! archive server and client.
//!
//! ## Framing
//!
//! Every message travels as one frame:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "STZP"
//! 4       1     protocol version (1)
//! 5       1     frame type (see [`FrameType`])
//! 6       2     reserved (0; receivers ignore)
//! 8       4     payload length, u32 LE (≤ [`MAX_FRAME_PAYLOAD`])
//! 12      4     CRC-32 of the payload, u32 LE
//! 16      n     payload
//! ```
//!
//! The fixed header makes framing self-synchronizing and cheap to
//! validate before any allocation: a receiver rejects a bad magic, an
//! unknown version, or an oversized length prefix from the first 16 bytes
//! alone, and verifies the payload CRC — folded in chunk by chunk as the
//! payload is read, not in a second sweep — before decoding a single field.
//! A sender emits each frame in one write ([`write_frame`]), or builds it in
//! place with [`Enc::framed`] so the bytes can be cached and resent as is.
//! Integers are little-endian throughout; strings are u32-length-prefixed
//! UTF-8. Unknown *frame types* are surfaced to the dispatcher (not an
//! I/O error), so future frame kinds degrade to a clean `ERR` response
//! instead of a torn connection — the forward-compatibility story of v1.
//!
//! ## Request/response vocabulary
//!
//! | request              | response     | meaning |
//! |----------------------|--------------|---------|
//! | `HELLO`              | `HELLO_OK`   | version handshake, once per connection |
//! | `LIST`               | `LIST_OK`    | hosted containers |
//! | `INSPECT`            | `INSPECT_OK` | entry table of one container |
//! | `FETCH_FULL`         | `FETCH_OK`   | full decode of one entry |
//! | `FETCH_ROI`          | `FETCH_OK`   | region decode |
//! | `FETCH_PROGRESSIVE`  | `FETCH_OK`   | level-k preview decode |
//! | `FETCH_RAW_SECTION`  | `RAW_OK`     | the compressed payload bytes |
//! | `STATS`              | `STATS_OK`   | request + cache counters |
//! | `METRICS`            | `METRICS_OK` | versioned text exposition of the server's telemetry registry |
//! | `TRACE_GET`          | `TRACE_OK`   | retained request traces from the server's tail sampler |
//! | —                    | `ERR`        | any failure (code + message) |
//!
//! Fetch requests may additionally carry an optional **trace-context
//! extension**: a 17-byte suffix (`u8` version, `u64` trace id, `u64`
//! parent span id) appended after the request body. A request without the
//! suffix encodes byte-identically to pre-extension builds, so old and
//! new peers interoperate; a server that understands the extension parents
//! its span tree under the client's ids (see [`TraceContextExt`]).
//!
//! `FETCH_OK` carries the decoded field as dims + element type + raw
//! little-endian scalars — byte-identical to what a local
//! `ContainerReader` decode followed by `write_raw` would produce, which
//! is what the integration tests and the CI round-trip gate assert.

use crate::error::{Result, ServeError};
use std::io::{ErrorKind, IoSlice, Read, Write};
use stz_field::{Dims, Region, Scalar};
use stz_stream::crc::{crc32, Crc32};
use stz_stream::{ContainerDesc, EntryDesc, Fetch};

/// Frame magic, first on the wire in both directions.
pub const PROTO_MAGIC: [u8; 4] = *b"STZP";

/// Protocol version this build speaks.
pub const PROTO_VERSION: u8 = 1;

/// Fixed frame-header length in bytes.
pub const FRAME_HEADER_LEN: usize = 16;

/// Upper bound on a frame payload. A length prefix above this is rejected
/// *before* any allocation — a corrupt or hostile peer cannot make either
/// endpoint reserve gigabytes.
pub const MAX_FRAME_PAYLOAD: u32 = 256 << 20;

/// Machine-readable `ERR` classes.
pub mod err_code {
    /// Malformed request (bad selector, empty region, region out of
    /// bounds, …).
    pub const BAD_REQUEST: u16 = 1;
    /// Unknown container or entry.
    pub const NOT_FOUND: u16 = 2;
    /// The request is valid but this entry cannot serve it (e.g. a
    /// progressive preview of a foreign-codec entry).
    pub const UNSUPPORTED: u16 = 3;
    /// The hosted container failed to decode (corrupt section, checksum
    /// mismatch).
    pub const CORRUPT: u16 = 4;
    /// Internal server failure (I/O on the hosted file, …).
    pub const INTERNAL: u16 = 5;
    /// The server is at its connection limit.
    pub const BUSY: u16 = 6;
}

/// Frame kinds of STZP v1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
#[allow(missing_docs)] // the table in the module docs is the reference
pub enum FrameType {
    Hello = 0x01,
    HelloOk = 0x02,
    List = 0x10,
    ListOk = 0x11,
    Inspect = 0x12,
    InspectOk = 0x13,
    FetchFull = 0x20,
    FetchOk = 0x21,
    FetchRoi = 0x22,
    FetchProgressive = 0x24,
    FetchRawSection = 0x26,
    RawOk = 0x27,
    Stats = 0x30,
    StatsOk = 0x31,
    Metrics = 0x32,
    MetricsOk = 0x33,
    TraceGet = 0x34,
    TraceOk = 0x35,
    Err = 0x7F,
}

impl FrameType {
    /// Map a wire byte to a known frame type.
    pub fn from_byte(b: u8) -> Option<FrameType> {
        use FrameType::*;
        Some(match b {
            0x01 => Hello,
            0x02 => HelloOk,
            0x10 => List,
            0x11 => ListOk,
            0x12 => Inspect,
            0x13 => InspectOk,
            0x20 => FetchFull,
            0x21 => FetchOk,
            0x22 => FetchRoi,
            0x24 => FetchProgressive,
            0x26 => FetchRawSection,
            0x27 => RawOk,
            0x30 => Stats,
            0x31 => StatsOk,
            0x32 => Metrics,
            0x33 => MetricsOk,
            0x34 => TraceGet,
            0x35 => TraceOk,
            0x7F => Err,
            _ => return None,
        })
    }
}

/// One frame as read off the wire: the (possibly unknown) type byte plus
/// the CRC-verified payload.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Raw frame-type byte (may not map to a [`FrameType`] this build
    /// knows; dispatchers answer `ERR` rather than tearing the stream).
    pub kind: u8,
    /// CRC-verified payload bytes.
    pub payload: Vec<u8>,
}

impl Frame {
    /// The frame type, if this build knows it.
    pub fn frame_type(&self) -> Option<FrameType> {
        FrameType::from_byte(self.kind)
    }
}

/// The 16-byte header of a frame carrying `payload_len` bytes whose CRC-32
/// is `crc`; refuses a payload above [`MAX_FRAME_PAYLOAD`].
fn frame_header(kind: FrameType, payload_len: usize, crc: u32) -> Result<[u8; FRAME_HEADER_LEN]> {
    if payload_len > MAX_FRAME_PAYLOAD as usize {
        return Err(ServeError::protocol(format!(
            "refusing to send a {payload_len} byte payload (max {MAX_FRAME_PAYLOAD})"
        )));
    }
    let mut header = [0u8; FRAME_HEADER_LEN];
    header[0..4].copy_from_slice(&PROTO_MAGIC);
    header[4] = PROTO_VERSION;
    header[5] = kind as u8;
    header[8..12].copy_from_slice(&(payload_len as u32).to_le_bytes());
    header[12..16].copy_from_slice(&crc.to_le_bytes());
    Ok(header)
}

/// Serialize and send one frame in a single write: both ends set
/// `TCP_NODELAY`, so a header written on its own would leave as its own
/// segment. Requests and small replies are assembled contiguously; a larger
/// payload is not copied but leaves with its header in one vectored write.
pub fn write_frame(w: &mut impl Write, kind: FrameType, payload: &[u8]) -> Result<()> {
    const SMALL_FRAME: usize = 4096;
    let header = frame_header(kind, payload.len(), crc32(payload))?;
    let len = FRAME_HEADER_LEN + payload.len();
    if len <= SMALL_FRAME {
        let mut frame = [0u8; SMALL_FRAME];
        frame[..FRAME_HEADER_LEN].copy_from_slice(&header);
        frame[FRAME_HEADER_LEN..len].copy_from_slice(payload);
        w.write_all(&frame[..len])?;
    } else {
        let sent = match w.write_vectored(&[IoSlice::new(&header), IoSlice::new(payload)]) {
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::Interrupted => 0,
            Err(e) => return Err(e.into()),
        };
        // Whatever the one call did not take (a full socket buffer, or a
        // writer that only takes the first slice).
        w.write_all(&header[sent.min(FRAME_HEADER_LEN)..])?;
        w.write_all(&payload[sent.saturating_sub(FRAME_HEADER_LEN)..])?;
    }
    w.flush()?;
    Ok(())
}

/// Read one frame, or `None` on a clean end-of-stream (the peer closed
/// between frames). EOF *inside* a frame — a truncated header or payload
/// — is a protocol error, as are a bad magic, an unsupported version, a
/// length prefix above [`MAX_FRAME_PAYLOAD`], and a payload CRC mismatch.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Frame>> {
    Ok(read_frame_split(r, usize::MAX)?.map(|(frame, _)| frame))
}

/// [`read_frame`] with the payload read in two parts, each into a buffer of
/// its own: the frame carries the first `head_len` bytes (all of them, if
/// the payload is shorter), and the rest comes beside it — so a receiver
/// that keeps the rest whole never cuts it out of one buffer. The CRC is
/// folded across both parts as they arrive; the checks are
/// [`read_frame`]'s.
pub fn read_frame_split(r: &mut impl Read, head_len: usize) -> Result<Option<(Frame, Vec<u8>)>> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    // First byte decides "clean close" vs. "torn frame".
    match r.read(&mut header[..1])? {
        0 => return Ok(None),
        _ => r
            .read_exact(&mut header[1..])
            .map_err(|e| ServeError::protocol(format!("truncated frame header: {e}")))?,
    }
    if header[0..4] != PROTO_MAGIC {
        return Err(ServeError::protocol("bad frame magic (not an STZP stream)"));
    }
    if header[4] != PROTO_VERSION {
        return Err(ServeError::protocol(format!(
            "unsupported protocol version {} (this build speaks {PROTO_VERSION})",
            header[4]
        )));
    }
    let kind = header[5];
    let len = u32::from_le_bytes(header[8..12].try_into().expect("fixed slice"));
    if len > MAX_FRAME_PAYLOAD {
        return Err(ServeError::protocol(format!(
            "frame length prefix {len} exceeds the {MAX_FRAME_PAYLOAD} byte cap"
        )));
    }
    let want_crc = u32::from_le_bytes(header[12..16].try_into().expect("fixed slice"));
    let len = len as usize;
    let mut crc = Crc32::new();
    let head = read_part(r, head_len.min(len), (0, len), &mut crc)?;
    let rest = read_part(r, len - head.len(), (head.len(), len), &mut crc)?;
    if crc.finish() != want_crc {
        return Err(ServeError::protocol("frame payload CRC mismatch"));
    }
    Ok(Some((Frame { kind, payload: head }, rest)))
}

/// Read the next `n` bytes of a payload of `len`, `at` of which are read
/// already, into a buffer of their own, folding them into `crc`.
///
/// The bytes are read in bounded chunks rather than by reserving `n` up
/// front: a 16-byte header alone must not commit 256 MiB. Memory grows only
/// as declared bytes actually arrive on the wire — each step reserves at
/// most twice what has arrived (1 MiB to begin with), and the last one lands
/// on exactly `n`. Each chunk is read into spare capacity (no zero-fill) and
/// folded into the CRC while it is still in cache, so the payload is passed
/// over once.
fn read_part(
    r: &mut impl Read,
    n: usize,
    (at, len): (usize, usize),
    crc: &mut Crc32,
) -> Result<Vec<u8>> {
    const READ_CHUNK: usize = 1 << 20;
    let mut part = Vec::new();
    while part.len() < n {
        let start = part.len();
        let take = (n - start).min(READ_CHUNK);
        if part.capacity() - start < take {
            part.reserve_exact((n - start).min((2 * start).max(READ_CHUNK)));
        }
        let got = r
            .by_ref()
            .take(take as u64)
            .read_to_end(&mut part)
            .map_err(|e| ServeError::protocol(format!("truncated frame payload: {e}")))?;
        if got < take {
            return Err(ServeError::protocol(format!(
                "truncated frame payload: stream ended {} bytes into a {len} byte payload",
                at + start + got
            )));
        }
        crc.update(&part[start..]);
    }
    Ok(part)
}

// ---------------------------------------------------------------------------
// Payload encoding primitives.
// ---------------------------------------------------------------------------

/// Append-only payload encoder.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
    /// The frame type whose header occupies the first
    /// [`FRAME_HEADER_LEN`] bytes of `buf` (see [`Enc::framed`]).
    framed: Option<FrameType>,
}

impl Enc {
    /// Start an empty payload.
    pub fn new() -> Self {
        Enc::default()
    }

    /// Start a payload over a recycled buffer (cleared, capacity kept) —
    /// how the client encodes per-request payloads without allocating per
    /// call.
    pub fn reuse(mut buf: Vec<u8>) -> Self {
        buf.clear();
        Enc { buf, framed: None }
    }

    /// Start the payload of a `kind` response [`FRAME_HEADER_LEN`] bytes
    /// into a buffer sized for `payload_hint` more, leaving room for the
    /// header [`Enc::finish_frame`] back-patches: the response is produced
    /// once, in the buffer it is cached in and leaves the socket from.
    pub fn framed(kind: FrameType, payload_hint: usize) -> Self {
        let mut buf = Vec::with_capacity(FRAME_HEADER_LEN + payload_hint);
        buf.resize(FRAME_HEADER_LEN, 0);
        Enc { buf, framed: Some(kind) }
    }

    /// [`Enc::framed`] with a payload of `payload_len` zero bytes already in
    /// place, for the caller to fill through [`Enc::payload_mut`]: a
    /// response whose bytes are made where they are sent from. The buffer
    /// comes zeroed from the allocator, so a large one is not written
    /// before it is filled.
    pub fn framed_zeroed(kind: FrameType, payload_len: usize) -> Self {
        Enc { buf: vec![0; FRAME_HEADER_LEN + payload_len], framed: Some(kind) }
    }

    /// The payload bytes so far, to be written in place.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        let header = if self.framed.is_some() { FRAME_HEADER_LEN } else { 0 };
        &mut self.buf[header..]
    }

    /// Finish, yielding the payload bytes.
    ///
    /// # Panics
    /// On an encoder started with [`Enc::framed`].
    pub fn finish(self) -> Vec<u8> {
        assert!(self.framed.is_none(), "a framed encoder finishes with finish_frame");
        self.buf
    }

    /// Finish an encoder started with [`Enc::framed`], yielding the whole
    /// frame — byte for byte what [`write_frame`] sends for this payload.
    /// This is the one pass the CRC makes over a response.
    ///
    /// # Panics
    /// On an encoder not started with [`Enc::framed`].
    pub fn finish_frame(mut self) -> Result<Vec<u8>> {
        let kind = self.framed.expect("finish_frame needs an encoder started with Enc::framed");
        let (header, payload) = self.buf.split_at_mut(FRAME_HEADER_LEN);
        header.copy_from_slice(&frame_header(kind, payload.len(), crc32(payload))?);
        Ok(self.buf)
    }

    /// Append a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u16` (LE).
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u32` (LE).
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64` (LE).
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its IEEE-754 bit pattern (LE).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Append a u32-length-prefixed UTF-8 string.
    pub fn string(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Append raw bytes with no length prefix (trailing blob).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append `values` as raw little-endian scalars in one bulk pass
    /// (trailing blob; what [`Enc::raw`] of their `write_exact` bytes
    /// appends).
    pub fn scalars<T: Scalar>(&mut self, values: &[T]) {
        T::write_slice_exact(values, &mut self.buf);
    }
}

/// Bounds-checked payload decoder.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Decode from `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| ServeError::protocol("truncated payload field"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u16` (LE).
    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("fixed slice")))
    }

    /// Read a `u32` (LE).
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("fixed slice")))
    }

    /// Read a `u64` (LE).
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("fixed slice")))
    }

    /// Read an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a u32-length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ServeError::protocol("payload string is not UTF-8"))
    }

    /// Read the three `u64` extents `[z, y, x]` of an `ndim`-axis grid from
    /// an untrusted peer, checking `usize` range, extent/`ndim` consistency
    /// and no zero axes *before* [`Dims::from_parts`] can assert on them.
    /// The one gate every wire consumer (`FETCH_OK` heads, `INSPECT_OK`
    /// rows) shares, so the hostile-dims rules cannot drift.
    pub fn dims(&mut self, ndim: u8) -> Result<Dims> {
        let (z, y, x) = (self.u64()?, self.u64()?, self.u64()?);
        let bad = || ServeError::protocol(format!("bad dims [{z}, {y}, {x}] for ndim {ndim}"));
        let c = |v: u64| usize::try_from(v).ok().filter(|&v| v > 0).ok_or_else(bad);
        let (nz, ny, nx) = (c(z)?, c(y)?, c(x)?);
        match ndim {
            1 if nz == 1 && ny == 1 => {}
            2 if nz == 1 => {}
            3 => {}
            _ => return Err(bad()),
        }
        Ok(Dims::from_parts(ndim, nz, ny, nx))
    }

    /// The unread remainder (trailing blob).
    pub fn rest(self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Require that every byte has been consumed.
    pub fn expect_end(&self) -> Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ServeError::protocol(format!(
                "{} trailing bytes after payload",
                self.buf.len() - self.pos
            )))
        }
    }
}

// ---------------------------------------------------------------------------
// Message bodies.
// ---------------------------------------------------------------------------

/// Which entry of a container a fetch addresses: the access layer and the
/// wire address entries identically.
pub use stz_stream::EntrySel;

/// Encode an entry selector: a tag byte, then the index or the name.
fn encode_sel(sel: &EntrySel, e: &mut Enc) {
    match sel {
        EntrySel::Index(i) => {
            e.u8(0);
            e.u32(*i);
        }
        EntrySel::Name(n) => {
            e.u8(1);
            e.string(n);
        }
    }
}

fn decode_sel(d: &mut Dec<'_>) -> Result<EntrySel> {
    match d.u8()? {
        0 => Ok(EntrySel::Index(d.u32()?)),
        1 => Ok(EntrySel::Name(d.string()?)),
        t => Err(ServeError::protocol(format!("unknown entry selector tag {t}"))),
    }
}

/// The decode a fetch requests — also the cache key discriminant on the
/// server, so equal requests share one cached decoded block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestKind {
    /// Full-resolution decode of the whole entry.
    Full,
    /// Progressive preview through level `k`.
    Level(u8),
    /// Region decode, half-open bounds `[z0,z1) × [y0,y1) × [x0,x1)`.
    Roi([u64; 6]),
    /// The compressed payload bytes, undecoded.
    Raw,
}

impl RequestKind {
    /// Wire tag for `FETCH_OK` payloads.
    pub fn tag(&self) -> u8 {
        match self {
            RequestKind::Full => 0,
            RequestKind::Level(_) => 1,
            RequestKind::Roi(_) => 2,
            RequestKind::Raw => 3,
        }
    }

    /// Build an ROI kind from a [`Region`].
    pub fn roi(region: &Region) -> RequestKind {
        RequestKind::Roi([
            region.z0 as u64,
            region.z1 as u64,
            region.y0 as u64,
            region.y1 as u64,
            region.x0 as u64,
            region.x1 as u64,
        ])
    }

    /// The [`Fetch`] this kind asks for. `None` for hostile ROI bounds
    /// (`Region` construction requires non-empty ranges, so empty or
    /// inverted wire bounds must be caught here, not panic).
    pub fn fetch(&self) -> Option<Fetch> {
        match *self {
            RequestKind::Full => Some(Fetch::Full),
            RequestKind::Level(k) => Some(Fetch::Level(k)),
            RequestKind::Raw => Some(Fetch::RawSection(0)),
            RequestKind::Roi(b) => {
                let c = |v: u64| usize::try_from(v).ok();
                let [z0, z1, y0, y1, x0, x1] =
                    [c(b[0])?, c(b[1])?, c(b[2])?, c(b[3])?, c(b[4])?, c(b[5])?];
                if z0 >= z1 || y0 >= y1 || x0 >= x1 {
                    return None;
                }
                Some(Fetch::Region(Region::d3(z0..z1, y0..y1, x0..x1)))
            }
        }
    }
}

/// Version byte of the trace-context extension suffix on fetch frames.
pub const TRACE_CONTEXT_VERSION: u8 = 1;

/// The optional trace-context extension a fetch request may carry: the
/// client's trace id plus the span that issued the fetch, so the server's
/// span tree parents under the client's root. Ids are never zero (zero is
/// the no-parent sentinel in span records), and a request without the
/// extension encodes byte-identically to pre-extension builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContextExt {
    /// Client-generated trace id (nonzero).
    pub trace_id: u64,
    /// The client span the server-side tree parents under (nonzero).
    pub parent_span: u64,
}

/// A fetch request: container, entry, and what to decode.
#[derive(Debug, Clone, PartialEq)]
pub struct FetchReq {
    /// Hosted container name (file stem of the `.stzc`).
    pub container: String,
    /// Which entry.
    pub entry: EntrySel,
    /// What to decode.
    pub kind: RequestKind,
    /// Optional trace-context extension (absent = no suffix on the wire).
    pub trace: Option<TraceContextExt>,
}

impl FetchReq {
    /// The frame type this request travels as.
    pub fn frame_type(&self) -> FrameType {
        match self.kind {
            RequestKind::Full => FrameType::FetchFull,
            RequestKind::Level(_) => FrameType::FetchProgressive,
            RequestKind::Roi(_) => FrameType::FetchRoi,
            RequestKind::Raw => FrameType::FetchRawSection,
        }
    }

    /// Encode the request payload.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_reusing(Vec::new())
    }

    /// Encode the request payload into a recycled buffer (cleared first),
    /// returning it — so a steady request stream reuses one allocation.
    pub fn encode_reusing(&self, buf: Vec<u8>) -> Vec<u8> {
        let mut e = Enc::reuse(buf);
        e.string(&self.container);
        encode_sel(&self.entry, &mut e);
        match self.kind {
            RequestKind::Full | RequestKind::Raw => {}
            RequestKind::Level(k) => e.u8(k),
            RequestKind::Roi(b) => {
                for v in b {
                    e.u64(v);
                }
            }
        }
        if let Some(t) = self.trace {
            e.u8(TRACE_CONTEXT_VERSION);
            e.u64(t.trace_id);
            e.u64(t.parent_span);
        }
        e.finish()
    }

    /// Decode a request payload arriving as frame type `ft`.
    pub fn decode(ft: FrameType, payload: &[u8]) -> Result<FetchReq> {
        let mut d = Dec::new(payload);
        let container = d.string()?;
        let entry = decode_sel(&mut d)?;
        let kind = match ft {
            FrameType::FetchFull => RequestKind::Full,
            FrameType::FetchRawSection => RequestKind::Raw,
            FrameType::FetchProgressive => RequestKind::Level(d.u8()?),
            FrameType::FetchRoi => {
                let mut b = [0u64; 6];
                for v in &mut b {
                    *v = d.u64()?;
                }
                RequestKind::Roi(b)
            }
            other => return Err(ServeError::protocol(format!("{other:?} is not a fetch frame"))),
        };
        let trace = if d.remaining() == 0 {
            None
        } else {
            let version = d.u8()?;
            if version != TRACE_CONTEXT_VERSION {
                return Err(ServeError::protocol(format!(
                    "trace-context extension version {version} is not the v{TRACE_CONTEXT_VERSION} \
                     this build understands"
                )));
            }
            let trace_id = d.u64()?;
            let parent_span = d.u64()?;
            if trace_id == 0 || parent_span == 0 {
                return Err(ServeError::protocol("trace-context extension carries a zero id"));
            }
            Some(TraceContextExt { trace_id, parent_span })
        };
        d.expect_end()?;
        Ok(FetchReq { container, entry, kind, trace })
    }
}

/// A decoded field as carried by `FETCH_OK`.
#[derive(Debug, Clone, PartialEq)]
pub struct FetchedField {
    /// Which request produced it (wire tag of [`RequestKind`]).
    pub kind_tag: u8,
    /// Element type tag (0 = `f32`, 1 = `f64`).
    pub type_tag: u8,
    /// Grid extents of the decoded block.
    pub dims: Dims,
    /// Raw little-endian scalars, `dims.len() * bytes_per` long — the
    /// exact bytes a local decode + `write_raw` would produce.
    pub data: Vec<u8>,
}

/// Bytes of a `FETCH_OK` payload before the scalars: kind tag, type tag,
/// `ndim`, a reserved byte and three `u64` extents.
pub const FETCH_HEAD_LEN: usize = 28;

impl FetchedField {
    /// The head of a `FETCH_OK` payload; the little-endian scalars follow
    /// it.
    pub fn head(kind_tag: u8, type_tag: u8, dims: Dims) -> [u8; FETCH_HEAD_LEN] {
        let mut head = [0u8; FETCH_HEAD_LEN];
        head[..4].copy_from_slice(&[kind_tag, type_tag, dims.ndim(), 0]); // 0: reserved
        for (at, extent) in head[4..].chunks_exact_mut(8).zip(dims.as_array()) {
            at.copy_from_slice(&(extent as u64).to_le_bytes());
        }
        head
    }

    /// Encode the `FETCH_OK` payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.raw(&FetchedField::head(self.kind_tag, self.type_tag, self.dims));
        e.raw(&self.data);
        e.finish()
    }

    /// Validate the head of a `FETCH_OK` payload — dims, element type, and
    /// that the `data_len` bytes of scalars after it are exactly
    /// `dims × width` — yielding its fields. The one parser behind both
    /// decode forms.
    fn parse_head(head: &[u8], data_len: usize) -> Result<(u8, u8, Dims)> {
        let mut d = Dec::new(head);
        let kind_tag = d.u8()?;
        let type_tag = d.u8()?;
        let ndim = d.u8()?;
        let _reserved = d.u8()?;
        let dims = d.dims(ndim)?;
        let bytes_per: usize = match type_tag {
            0 => 4,
            1 => 8,
            t => return Err(ServeError::protocol(format!("unknown element type tag {t}"))),
        };
        let want = dims
            .len()
            .checked_mul(bytes_per)
            .ok_or_else(|| ServeError::protocol("dims overflow"))?;
        if data_len != want {
            return Err(ServeError::protocol(format!(
                "FETCH_OK carries {data_len} data bytes, dims {dims} require {want}"
            )));
        }
        Ok((kind_tag, type_tag, dims))
    }

    /// Decode and validate a `FETCH_OK` payload.
    pub fn decode(payload: &[u8]) -> Result<FetchedField> {
        let (head, data) = payload.split_at(payload.len().min(FETCH_HEAD_LEN));
        let (kind_tag, type_tag, dims) = FetchedField::parse_head(head, data.len())?;
        Ok(FetchedField { kind_tag, type_tag, dims, data: data.to_vec() })
    }

    /// [`FetchedField::decode`] of a payload read in two parts
    /// ([`read_frame_split`]): its first [`FETCH_HEAD_LEN`] bytes, and the
    /// scalars, which become `data` as they are — no second copy of them.
    pub fn from_parts(head: &[u8], data: Vec<u8>) -> Result<FetchedField> {
        let (kind_tag, type_tag, dims) = FetchedField::parse_head(head, data.len())?;
        Ok(FetchedField { kind_tag, type_tag, dims, data })
    }

    /// Reinterpret the payload as a typed field; fails on a type mismatch.
    pub fn into_field<T: stz_field::Scalar>(self) -> Result<stz_field::Field<T>> {
        if self.type_tag != T::TYPE_TAG {
            return Err(ServeError::protocol(format!(
                "fetched element type tag {} does not match requested type",
                self.type_tag
            )));
        }
        let values: Vec<T> = self.data.chunks_exact(T::BYTES).map(T::read_exact).collect();
        Ok(stz_field::Field::from_vec(self.dims, values))
    }
}

/// Encode a `LIST_OK` payload.
pub fn encode_list(containers: &[ContainerDesc]) -> Vec<u8> {
    let mut e = Enc::new();
    e.u32(containers.len() as u32);
    for c in containers {
        e.string(&c.name);
        e.u32(c.entries);
        e.u64(c.bytes);
    }
    e.finish()
}

/// Decode a `LIST_OK` payload.
pub fn decode_list(payload: &[u8]) -> Result<Vec<ContainerDesc>> {
    let mut d = Dec::new(payload);
    let n = d.u32()?;
    let mut out = Vec::with_capacity(bounded_count(n)?);
    for _ in 0..n {
        out.push(ContainerDesc { name: d.string()?, entries: d.u32()?, bytes: d.u64()? });
    }
    d.expect_end()?;
    Ok(out)
}

/// Encode an `INSPECT_OK` payload: each row is an [`EntryDesc`] in wire
/// order (its `index` is its position, not sent).
pub fn encode_inspect(entries: &[EntryDesc]) -> Vec<u8> {
    let mut e = Enc::new();
    e.u32(entries.len() as u32);
    for row in entries {
        e.string(&row.name);
        e.u8(row.codec_id);
        e.u8(row.type_tag);
        e.u8(row.dims.ndim());
        e.u8(row.levels);
        e.u8(row.interp);
        for v in row.dims.as_array() {
            e.u64(v as u64);
        }
        e.f64(row.eb);
        e.u64(row.compressed_len);
        e.u32(row.payload_crc);
        e.u32(row.sections);
        debug_assert_eq!(row.level_bytes.len(), row.levels as usize);
        for &b in &row.level_bytes {
            e.u64(b);
        }
    }
    e.finish()
}

/// Decode an `INSPECT_OK` payload. A row's dims pass the same checks as a
/// `FETCH_OK` head's, so a hostile row is a protocol error here.
pub fn decode_inspect(payload: &[u8]) -> Result<Vec<EntryDesc>> {
    let mut d = Dec::new(payload);
    let n = d.u32()?;
    let mut out = Vec::with_capacity(bounded_count(n)?);
    for index in 0..n {
        let (name, codec_id, type_tag) = (d.string()?, d.u8()?, d.u8()?);
        let (ndim, levels, interp) = (d.u8()?, d.u8()?, d.u8()?);
        let dims = d.dims(ndim)?;
        let (eb, compressed_len, payload_crc, sections) = (d.f64()?, d.u64()?, d.u32()?, d.u32()?);
        let level_bytes = (0..levels).map(|_| d.u64()).collect::<Result<_>>()?;
        out.push(EntryDesc {
            index,
            name,
            codec_id,
            type_tag,
            dims,
            eb,
            compressed_len,
            payload_crc,
            sections,
            levels,
            interp,
            level_bytes,
        });
    }
    d.expect_end()?;
    Ok(out)
}

/// Cache + request counters, as carried by `STATS_OK`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Requests served since startup (all kinds).
    pub requests: u64,
    /// Hosted containers.
    pub containers: u32,
    /// Cache lookups answered from a cached decoded block.
    pub cache_hits: u64,
    /// Cache lookups that had to decode.
    pub cache_misses: u64,
    /// Decoded blocks evicted to stay under the byte budget.
    pub cache_evictions: u64,
    /// Decoded blocks currently resident.
    pub cache_entries: u64,
    /// Bytes currently resident in the cache.
    pub cache_bytes: u64,
    /// Configured cache byte budget.
    pub cache_capacity: u64,
}

impl ServerStats {
    /// Encode the `STATS_OK` payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u64(self.requests);
        e.u32(self.containers);
        e.u64(self.cache_hits);
        e.u64(self.cache_misses);
        e.u64(self.cache_evictions);
        e.u64(self.cache_entries);
        e.u64(self.cache_bytes);
        e.u64(self.cache_capacity);
        e.finish()
    }

    /// Decode a `STATS_OK` payload.
    pub fn decode(payload: &[u8]) -> Result<ServerStats> {
        let mut d = Dec::new(payload);
        let s = ServerStats {
            requests: d.u64()?,
            containers: d.u32()?,
            cache_hits: d.u64()?,
            cache_misses: d.u64()?,
            cache_evictions: d.u64()?,
            cache_entries: d.u64()?,
            cache_bytes: d.u64()?,
            cache_capacity: d.u64()?,
        };
        d.expect_end()?;
        Ok(s)
    }

    /// Hit fraction of all cache lookups (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Encode a `METRICS_OK` payload: one exposition-version byte (so a
/// consumer can reject grammars it does not understand before parsing a
/// single line) followed by the u32-length-prefixed exposition text.
pub fn encode_metrics_ok(text: &str) -> Vec<u8> {
    let mut e = Enc::new();
    e.u8(stz_telemetry::EXPOSITION_VERSION);
    e.string(text);
    e.finish()
}

/// Decode a `METRICS_OK` payload into the exposition text. Rejects an
/// unknown exposition version, a truncated payload, and trailing bytes.
pub fn decode_metrics_ok(payload: &[u8]) -> Result<String> {
    let mut d = Dec::new(payload);
    let version = d.u8()?;
    if version != stz_telemetry::EXPOSITION_VERSION {
        return Err(ServeError::protocol(format!(
            "exposition version {version} is not the v{} this build understands",
            stz_telemetry::EXPOSITION_VERSION
        )));
    }
    let text = d.string()?;
    d.expect_end()?;
    Ok(text)
}

/// Version byte of the `TRACE_OK` payload encoding.
pub const TRACE_WIRE_VERSION: u8 = 1;

/// Encode a `TRACE_OK` payload: one wire-version byte, then the retained
/// traces with their full span tables. Per-span attributes are capped at
/// 255 (the `u8` count); spans never carry more in practice.
pub fn encode_trace_ok(traces: &[stz_telemetry::trace::TraceRecord]) -> Vec<u8> {
    let mut e = Enc::new();
    e.u8(TRACE_WIRE_VERSION);
    e.u32(traces.len() as u32);
    for t in traces {
        e.u64(t.trace_id);
        e.string(&t.kind);
        e.u8(u8::from(t.error));
        e.u64(t.duration_ns);
        e.u32(t.dropped_spans);
        e.u32(t.spans.len() as u32);
        for s in &t.spans {
            e.u64(s.id);
            e.u64(s.parent);
            e.string(&s.name);
            e.u64(s.start_ns);
            e.u64(s.duration_ns);
            let attrs = &s.attrs[..s.attrs.len().min(255)];
            e.u8(attrs.len() as u8);
            for (k, v) in attrs {
                e.string(k);
                e.string(v);
            }
        }
    }
    e.finish()
}

/// Decode a `TRACE_OK` payload. Rejects an unknown wire version, hostile
/// count prefixes, truncated span tables, and trailing bytes.
pub fn decode_trace_ok(payload: &[u8]) -> Result<Vec<stz_telemetry::trace::TraceRecord>> {
    use stz_telemetry::trace::{SpanRecord, TraceRecord};
    let mut d = Dec::new(payload);
    let version = d.u8()?;
    if version != TRACE_WIRE_VERSION {
        return Err(ServeError::protocol(format!(
            "TRACE_OK wire version {version} is not the v{TRACE_WIRE_VERSION} this build \
             understands"
        )));
    }
    let n = d.u32()?;
    let mut out = Vec::with_capacity(bounded_count(n)?);
    for _ in 0..n {
        let (trace_id, kind, flags) = (d.u64()?, d.string()?, d.u8()?);
        let (duration_ns, dropped_spans, span_count) = (d.u64()?, d.u32()?, d.u32()?);
        let mut spans = Vec::with_capacity(bounded_count(span_count)?);
        for _ in 0..span_count {
            let (id, parent, name) = (d.u64()?, d.u64()?, d.string()?);
            let (start_ns, duration_ns, attr_count) = (d.u64()?, d.u64()?, d.u8()?);
            let attrs =
                (0..attr_count).map(|_| Ok((d.string()?, d.string()?))).collect::<Result<_>>()?;
            spans.push(SpanRecord { id, parent, name, start_ns, duration_ns, attrs });
        }
        let error = flags & 1 != 0;
        out.push(TraceRecord { trace_id, kind, error, duration_ns, dropped_spans, spans });
    }
    d.expect_end()?;
    Ok(out)
}

/// Encode an `ERR` payload.
pub fn encode_err(code: u16, message: &str) -> Vec<u8> {
    let mut e = Enc::new();
    e.u16(code);
    e.string(message);
    e.finish()
}

/// Decode an `ERR` payload into the error it describes.
pub fn decode_err(payload: &[u8]) -> ServeError {
    let mut d = Dec::new(payload);
    match (d.u16(), d.string()) {
        (Ok(code), Ok(message)) => ServeError::Remote { code, message },
        _ => ServeError::protocol("malformed ERR payload"),
    }
}

/// Guard collection preallocation against hostile count prefixes: the
/// count is trusted only up to what the frame cap could actually carry.
fn bounded_count(n: u32) -> Result<usize> {
    const MAX: u32 = 1 << 20;
    if n > MAX {
        return Err(ServeError::protocol(format!("collection count {n} exceeds {MAX}")));
    }
    Ok(n as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameType::List, b"").unwrap();
        write_frame(&mut wire, FrameType::Inspect, b"hello payload").unwrap();
        let mut r = &wire[..];
        let f1 = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(f1.frame_type(), Some(FrameType::List));
        assert!(f1.payload.is_empty());
        let f2 = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(f2.frame_type(), Some(FrameType::Inspect));
        assert_eq!(f2.payload, b"hello payload");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF between frames");
    }

    #[test]
    fn frame_rejects_corruption() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameType::List, b"payload").unwrap();

        // Bad magic.
        let mut bad = wire.clone();
        bad[0] = b'X';
        assert!(matches!(read_frame(&mut &bad[..]), Err(ServeError::Protocol(_))));

        // Unknown version.
        let mut bad = wire.clone();
        bad[4] = 9;
        assert!(matches!(read_frame(&mut &bad[..]), Err(ServeError::Protocol(_))));

        // Oversized length prefix: rejected from the header, no allocation.
        let mut bad = wire.clone();
        bad[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(read_frame(&mut &bad[..]), Err(ServeError::Protocol(_))));

        // Flipped payload byte: CRC catches it.
        let mut bad = wire.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        assert!(matches!(read_frame(&mut &bad[..]), Err(ServeError::Protocol(_))));

        // Truncated mid-header and mid-payload.
        assert!(matches!(read_frame(&mut &wire[..7]), Err(ServeError::Protocol(_))));
        assert!(matches!(
            read_frame(&mut &wire[..FRAME_HEADER_LEN + 3]),
            Err(ServeError::Protocol(_))
        ));
    }

    #[test]
    fn known_answer_frame_reads_and_writes_byte_for_byte() {
        // STZP v1 is pinned: header fields in wire order, then the payload
        // whose CRC-32 is the standard check value.
        let mut pinned = Vec::new();
        pinned.extend_from_slice(b"STZP");
        pinned.extend_from_slice(&[1, FrameType::FetchOk as u8, 0, 0]);
        pinned.extend_from_slice(&9u32.to_le_bytes());
        pinned.extend_from_slice(&0xCBF4_3926u32.to_le_bytes());
        pinned.extend_from_slice(b"123456789");

        let mut wire = Vec::new();
        write_frame(&mut wire, FrameType::FetchOk, b"123456789").unwrap();
        assert_eq!(wire, pinned);
        let mut framed = Enc::framed(FrameType::FetchOk, 9);
        framed.raw(b"123456789");
        assert_eq!(framed.finish_frame().unwrap(), pinned);

        let frame = read_frame(&mut &pinned[..]).unwrap().unwrap();
        assert_eq!(frame.frame_type(), Some(FrameType::FetchOk));
        assert_eq!(frame.payload, b"123456789");
    }

    /// A peer that delivers one byte per `read` call.
    struct Trickle<'a>(&'a [u8]);

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.0.len().min(buf.len()).min(1);
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    #[test]
    fn multi_chunk_frame_survives_a_trickling_reader() {
        // 2 MiB + 3 bytes: three read chunks, the last one short.
        let payload: Vec<u8> = (0..(2usize << 20) + 3).map(|i| ((i * 131) >> 5) as u8).collect();
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameType::RawOk, &payload).unwrap();
        assert_eq!(wire.len(), FRAME_HEADER_LEN + payload.len());
        assert_eq!(&wire[FRAME_HEADER_LEN..], &payload[..]);

        let frame = read_frame(&mut Trickle(&wire)).unwrap().unwrap();
        assert_eq!(frame.frame_type(), Some(FrameType::RawOk));
        assert!(frame.payload == payload, "payload differs");
        assert_eq!(frame.payload.capacity(), payload.len(), "ends at exactly the declared length");

        // One payload byte flipped, in a chunk that is not the last.
        let mut bad = wire.clone();
        bad[FRAME_HEADER_LEN + (1 << 20) + 7] ^= 0x10;
        match read_frame(&mut Trickle(&bad)) {
            Err(ServeError::Protocol(msg)) => assert!(msg.contains("CRC mismatch"), "{msg}"),
            other => panic!("expected a CRC mismatch, got {other:?}"),
        }

        // The last byte never arrives.
        match read_frame(&mut Trickle(&wire[..wire.len() - 1])) {
            Err(ServeError::Protocol(msg)) => {
                assert!(msg.contains("truncated frame payload"), "{msg}")
            }
            other => panic!("expected a truncated payload, got {other:?}"),
        }
    }

    #[test]
    fn a_split_read_is_the_frame_in_two_parts_with_every_check() {
        let payload: Vec<u8> = (0..(1usize << 20) + 40).map(|i| ((i * 131) >> 5) as u8).collect();
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameType::FetchOk, &payload).unwrap();
        let error = |r: Result<Option<(Frame, Vec<u8>)>>| match r {
            Err(ServeError::Protocol(msg)) => msg,
            other => panic!("expected a protocol error, got {other:?}"),
        };
        for head_len in [0, 1, FETCH_HEAD_LEN, (1 << 20) + 39, usize::MAX] {
            let (frame, rest) = read_frame_split(&mut Trickle(&wire), head_len).unwrap().unwrap();
            assert_eq!(frame.kind, FrameType::FetchOk as u8);
            let cut = head_len.min(payload.len());
            assert!(frame.payload == payload[..cut] && rest == payload[cut..], "split at {cut}");
            assert_eq!(rest.capacity(), rest.len(), "the rest is read to its exact length");

            // The CRC spans both parts, and a short stream counts from the
            // start of the payload, whichever part it ends in.
            let mut bad = wire.clone();
            bad[FRAME_HEADER_LEN + 3] ^= 0x10;
            assert!(error(read_frame_split(&mut &bad[..], head_len)).contains("CRC mismatch"));
            for cut in [FRAME_HEADER_LEN + 10, wire.len() - 1] {
                let want = format!(
                    "truncated frame payload: stream ended {} bytes into a {} byte payload",
                    cut - FRAME_HEADER_LEN,
                    payload.len()
                );
                assert_eq!(error(read_frame_split(&mut &wire[..cut], head_len)), want);
            }
        }
    }

    /// Counts the calls a frame leaves in; `vectored` says whether the
    /// writer takes every slice of a vectored write or only the first.
    struct CountingWriter {
        bytes: Vec<u8>,
        calls: usize,
        vectored: bool,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            if self.vectored {
                self.calls += 1;
                bufs.iter().for_each(|b| self.bytes.extend_from_slice(b));
                Ok(bufs.iter().map(|b| b.len()).sum())
            } else {
                self.write(bufs.iter().find(|b| !b.is_empty()).map_or(&[][..], |b| b))
            }
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_frame_leaves_in_one_write() {
        let big = vec![0xC3u8; 70_000];
        for vectored in [false, true] {
            for payload in [&b""[..], b"small reply", &big] {
                let mut w = CountingWriter { bytes: Vec::new(), calls: 0, vectored };
                write_frame(&mut w, FrameType::ListOk, payload).unwrap();
                let mut want = Vec::new();
                write_frame(&mut want, FrameType::ListOk, payload).unwrap();
                assert_eq!(w.bytes, want);
                // Only a large payload on a writer without vectored
                // writes needs a second call (it is never copied).
                let calls = if payload.len() > 4096 && !vectored { 2 } else { 1 };
                assert_eq!(w.calls, calls, "{} bytes, vectored {vectored}", payload.len());
            }
        }
    }

    #[test]
    fn unknown_frame_type_is_not_a_stream_error() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameType::List, b"").unwrap();
        wire[5] = 0x55; // not a v1 frame type
                        // Header CRC covers the payload only, so the frame still parses...
        let f = read_frame(&mut &wire[..]).unwrap().unwrap();
        // ...and the dispatcher sees "unknown", not a torn connection.
        assert_eq!(f.frame_type(), None);
        assert_eq!(f.kind, 0x55);
    }

    #[test]
    fn fetch_requests_roundtrip() {
        let reqs = [
            FetchReq {
                container: "steps".into(),
                entry: EntrySel::Index(3),
                kind: RequestKind::Full,
                trace: None,
            },
            FetchReq {
                container: "steps".into(),
                entry: EntrySel::Name("t0".into()),
                kind: RequestKind::Level(2),
                trace: None,
            },
            FetchReq {
                container: "runs/x".into(),
                entry: EntrySel::Index(0),
                kind: RequestKind::Roi([1, 4, 0, 16, 2, 8]),
                trace: Some(TraceContextExt { trace_id: 0xDEAD_BEEF, parent_span: 7 }),
            },
            FetchReq {
                container: "steps".into(),
                entry: EntrySel::Name("t1".into()),
                kind: RequestKind::Raw,
                trace: Some(TraceContextExt { trace_id: u64::MAX, parent_span: 1 }),
            },
        ];
        for req in reqs {
            let back = FetchReq::decode(req.frame_type(), &req.encode()).unwrap();
            assert_eq!(back, req);
        }
        // Trailing garbage that is not a valid extension is rejected.
        let mut p = FetchReq {
            container: "c".into(),
            entry: EntrySel::Index(0),
            kind: RequestKind::Full,
            trace: None,
        }
        .encode();
        p.push(0);
        assert!(FetchReq::decode(FrameType::FetchFull, &p).is_err());
    }

    #[test]
    fn trace_context_extension_is_backward_compatible() {
        // Absent extension → byte-identical to the pre-extension encoding.
        let bare = FetchReq {
            container: "steps".into(),
            entry: EntrySel::Index(3),
            kind: RequestKind::Level(2),
            trace: None,
        };
        let mut legacy = Enc::new();
        legacy.string("steps");
        legacy.u8(0);
        legacy.u32(3);
        legacy.u8(2);
        assert_eq!(bare.encode(), legacy.finish());

        // Present extension → exactly 17 extra bytes.
        let traced = FetchReq {
            trace: Some(TraceContextExt { trace_id: 42, parent_span: 9 }),
            ..bare.clone()
        };
        assert_eq!(traced.encode().len(), bare.encode().len() + 17);
    }

    #[test]
    fn hostile_trace_context_extension_rejected() {
        let base = FetchReq {
            container: "c".into(),
            entry: EntrySel::Index(0),
            kind: RequestKind::Full,
            trace: Some(TraceContextExt { trace_id: 5, parent_span: 6 }),
        };
        let good = base.encode();
        assert!(FetchReq::decode(FrameType::FetchFull, &good).is_ok());

        // Unknown extension version byte.
        let mut bad = good.clone();
        let at = bad.len() - 17;
        bad[at] = 99;
        assert!(FetchReq::decode(FrameType::FetchFull, &bad).is_err());

        // Truncated extension (version byte present, ids cut short).
        assert!(FetchReq::decode(FrameType::FetchFull, &good[..good.len() - 3]).is_err());

        // Zero trace id (zero is the no-parent sentinel, never a real id).
        let zeroed = FetchReq {
            trace: Some(TraceContextExt { trace_id: 0, parent_span: 6 }),
            ..base.clone()
        };
        assert!(FetchReq::decode(FrameType::FetchFull, &zeroed.encode()).is_err());
    }

    #[test]
    fn trace_ok_roundtrip_and_hostile_rejection() {
        use stz_telemetry::trace::{SpanRecord, TraceRecord};
        let traces = vec![
            TraceRecord {
                trace_id: 0xABCD,
                kind: "full".into(),
                error: false,
                duration_ns: 1_500_000,
                dropped_spans: 0,
                spans: vec![
                    SpanRecord {
                        id: 1,
                        parent: 0,
                        name: "request".into(),
                        start_ns: 0,
                        duration_ns: 1_500_000,
                        attrs: vec![("kind".into(), "full".into())],
                    },
                    SpanRecord {
                        id: 2,
                        parent: 1,
                        name: "decode".into(),
                        start_ns: 100,
                        duration_ns: 1_000_000,
                        attrs: vec![],
                    },
                ],
            },
            TraceRecord {
                trace_id: 7,
                kind: "roi".into(),
                error: true,
                duration_ns: 9,
                dropped_spans: 3,
                spans: vec![],
            },
        ];
        let wire = encode_trace_ok(&traces);
        assert_eq!(decode_trace_ok(&wire).unwrap(), traces);

        // Unknown wire version.
        let mut bad = wire.clone();
        bad[0] = 99;
        assert!(decode_trace_ok(&bad).is_err());

        // Truncated span table.
        assert!(decode_trace_ok(&wire[..wire.len() - 5]).is_err());

        // Trailing byte after the last trace.
        let mut bad = wire.clone();
        bad.push(0xEE);
        assert!(decode_trace_ok(&bad).is_err());

        // Lying trace count (claims more than the payload carries).
        let mut bad = wire.clone();
        bad[1..5].copy_from_slice(&100u32.to_le_bytes());
        assert!(decode_trace_ok(&bad).is_err());

        // Hostile count prefix: rejected before preallocation.
        let mut e = Enc::new();
        e.u8(TRACE_WIRE_VERSION);
        e.u32(u32::MAX);
        assert!(decode_trace_ok(&e.finish()).is_err());
    }

    #[test]
    fn fetched_field_roundtrip_and_validation() {
        let f = FetchedField {
            kind_tag: RequestKind::Full.tag(),
            type_tag: 0,
            dims: Dims::d3(2, 3, 4),
            data: (0..2 * 3 * 4 * 4u32).map(|i| i as u8).collect(),
        };
        let back = FetchedField::decode(&f.encode()).unwrap();
        assert_eq!(back, f);
        let bytes = f.encode();
        let (head, data) = bytes.split_at(FETCH_HEAD_LEN);
        assert_eq!(FetchedField::from_parts(head, data.to_vec()).unwrap(), f);
        let field: stz_field::Field<f32> = back.into_field().unwrap();
        assert_eq!(field.dims(), Dims::d3(2, 3, 4));

        // Wrong data length for the declared dims.
        let mut bad = f.encode();
        bad.pop();
        assert!(FetchedField::decode(&bad).is_err());
        assert!(FetchedField::from_parts(&bad[..FETCH_HEAD_LEN], bad[FETCH_HEAD_LEN..].to_vec())
            .is_err());
        // A payload shorter than its head.
        assert!(FetchedField::decode(&bad[..FETCH_HEAD_LEN - 1]).is_err());

        // Wrong requested type.
        let again = FetchedField::decode(&f.encode()).unwrap();
        assert!(again.into_field::<f64>().is_err());
    }

    /// One `INSPECT_OK` table: an stz entry with three levels, then a
    /// foreign one.
    fn inspect_rows() -> Vec<EntryDesc> {
        vec![
            EntryDesc {
                index: 0,
                name: "t0".into(),
                codec_id: 0,
                type_tag: 1,
                dims: Dims::d3(16, 16, 16),
                eb: 1e-3,
                compressed_len: 4096,
                payload_crc: 0xDEAD_BEEF,
                sections: 15,
                levels: 3,
                interp: 2,
                level_bytes: vec![64, 512, 4096],
            },
            EntryDesc {
                index: 1,
                name: "aux".into(),
                codec_id: 2,
                type_tag: 0,
                dims: Dims::d2(4, 9),
                eb: 0.5,
                compressed_len: 99,
                payload_crc: 7,
                sections: 1,
                levels: 0,
                interp: 0,
                level_bytes: vec![],
            },
        ]
    }

    fn list_rows() -> Vec<ContainerDesc> {
        vec![
            ContainerDesc { name: "a".into(), entries: 2, bytes: 1234 },
            ContainerDesc { name: "b".into(), entries: 1, bytes: 99 },
        ]
    }

    #[test]
    fn inspect_and_list_bytes_are_pinned() {
        // The `INSPECT_OK` and `LIST_OK` layouts, byte for byte: a change
        // here is a change to STZP v1.
        let hex = |b: &[u8]| b.iter().map(|x| format!("{x:02x}")).collect::<String>();
        assert_eq!(
            hex(&encode_inspect(&inspect_rows())),
            "020000000200000074300001030302100000000000000010000000000000001000000000\
             000000fca9f1d24d62503f0010000000000000efbeadde0f000000400000000000000000\
             020000000000000010000000000000030000006175780200020000010000000000000004\
             000000000000000900000000000000000000000000e03f63000000000000000700000001\
             000000"
        );
        assert_eq!(
            hex(&encode_list(&list_rows())),
            "02000000010000006102000000d2040000000000000100000062010000006300000000000000"
        );
    }

    #[test]
    fn list_inspect_stats_err_roundtrip() {
        let list = list_rows();
        assert_eq!(decode_list(&encode_list(&list)).unwrap(), list);
        let entries = inspect_rows();
        assert_eq!(decode_inspect(&encode_inspect(&entries)).unwrap(), entries);

        let stats = ServerStats {
            requests: 10,
            containers: 2,
            cache_hits: 6,
            cache_misses: 4,
            cache_evictions: 1,
            cache_entries: 3,
            cache_bytes: 1 << 20,
            cache_capacity: 1 << 26,
        };
        assert_eq!(ServerStats::decode(&stats.encode()).unwrap(), stats);
        assert!((stats.hit_rate() - 0.6).abs() < 1e-12);

        match decode_err(&encode_err(err_code::NOT_FOUND, "no such container")) {
            ServeError::Remote { code, message } => {
                assert_eq!(code, err_code::NOT_FOUND);
                assert_eq!(message, "no such container");
            }
            other => panic!("expected Remote, got {other:?}"),
        }
    }

    #[test]
    fn hostile_count_prefix_rejected() {
        let mut e = Enc::new();
        e.u32(u32::MAX); // claims 4 billion containers
        assert!(decode_list(&e.finish()).is_err());
    }

    #[test]
    fn roi_kind_region_conversion() {
        let region = Region::d3(1..4, 0..16, 2..8);
        let kind = RequestKind::roi(&region);
        assert_eq!(kind.fetch(), Some(Fetch::Region(region)));
        assert_eq!(RequestKind::Full.fetch(), Some(Fetch::Full));
        assert_eq!(RequestKind::Roi([4, 2, 0, 1, 0, 1]).fetch(), None, "inverted bounds");
    }
}

//! Blocking STZP client.
//!
//! One [`Client`] wraps one connection: a version handshake up front,
//! then synchronous request/response pairs. Every response frame is
//! CRC-verified by the framing layer *while it is read* (one pass over the
//! bytes, no second sweep) and validated against the request before it is
//! returned, so a corrupted or lying server yields a clean [`ServeError`]
//! — never a panic, and (with the default timeout) never a hang. A fetched
//! field keeps the buffer its scalars were read into: a `FETCH_OK` payload
//! is read in two parts, the head into a buffer of its own and the scalars
//! into the one that becomes the field's data, so they are never moved.
//!
//! The transport is generic: [`Client::connect`] produces the everyday
//! `Client<TcpStream>`, while [`Client::handshake`] accepts any
//! [`Read`]`+`[`Write`] stream — tests and fuzz harnesses drive the full
//! response-validation path against scripted in-memory peers without a
//! socket.

use crate::error::{Result, ServeError};
use crate::proto::{
    decode_err, decode_inspect, decode_list, decode_trace_ok, read_frame_split, write_frame, Enc,
    EntrySel, FetchReq, FetchedField, Frame, FrameType, RequestKind, ServerStats, TraceContextExt,
    FETCH_HEAD_LEN, PROTO_VERSION,
};
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;
use stz_field::Region;
use stz_stream::{ContainerDesc, EntryDesc};

/// Default socket timeout for reads and writes.
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(30);

/// A connected STZP client over any bidirectional byte stream.
#[derive(Debug)]
pub struct Client<S: Read + Write = TcpStream> {
    stream: S,
    /// Recycled request-encoding buffer: fetches on a steady connection
    /// reuse one allocation instead of building a fresh `Vec` per call.
    scratch: Vec<u8>,
}

impl Client<TcpStream> {
    /// Connect and complete the version handshake with the default
    /// timeout.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client> {
        Client::connect_with(addr, Some(DEFAULT_TIMEOUT))
    }

    /// Connect with an explicit socket timeout (`None` = block forever).
    pub fn connect_with(addr: impl ToSocketAddrs, timeout: Option<Duration>) -> Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        stream.set_read_timeout(timeout)?;
        stream.set_write_timeout(timeout)?;
        Client::handshake(stream)
    }
}

impl<S: Read + Write> Client<S> {
    /// Complete the version handshake over an already-connected stream.
    pub fn handshake(stream: S) -> Result<Client<S>> {
        let mut client = Client { stream, scratch: Vec::new() };
        let mut hello = Enc::new();
        hello.u8(PROTO_VERSION);
        let reply = client.roundtrip(FrameType::Hello, &hello.finish())?;
        let payload = expect(reply, FrameType::HelloOk)?;
        let mut d = crate::proto::Dec::new(&payload);
        let version = d.u8()?;
        if version != PROTO_VERSION {
            return Err(ServeError::protocol(format!(
                "server speaks STZP v{version}, this client speaks v{PROTO_VERSION}"
            )));
        }
        Ok(client)
    }

    /// Send one frame and read the response, surfacing `ERR` replies as
    /// [`ServeError::Remote`].
    fn roundtrip(&mut self, kind: FrameType, payload: &[u8]) -> Result<Frame> {
        self.roundtrip_split(kind, payload, usize::MAX).map(|(frame, _)| frame)
    }

    /// [`Client::roundtrip`], the response's payload read in two parts
    /// ([`read_frame_split`]): the frame carries its first `head_len` bytes,
    /// and the rest comes beside it.
    fn roundtrip_split(
        &mut self,
        kind: FrameType,
        payload: &[u8],
        head_len: usize,
    ) -> Result<(Frame, Vec<u8>)> {
        write_frame(&mut self.stream, kind, payload)?;
        let (mut frame, rest) = read_frame_split(&mut self.stream, head_len)?
            .ok_or_else(|| ServeError::protocol("server closed the connection mid-request"))?;
        if frame.frame_type() == Some(FrameType::Err) {
            frame.payload.extend_from_slice(&rest);
            return Err(decode_err(&frame.payload));
        }
        Ok((frame, rest))
    }

    /// The hosted containers.
    pub fn list(&mut self) -> Result<Vec<ContainerDesc>> {
        let reply = self.roundtrip(FrameType::List, &[])?;
        decode_list(&expect(reply, FrameType::ListOk)?)
    }

    /// The entry table of one hosted container.
    pub fn inspect(&mut self, container: &str) -> Result<Vec<EntryDesc>> {
        let mut e = Enc::new();
        e.string(container);
        let reply = self.roundtrip(FrameType::Inspect, &e.finish())?;
        decode_inspect(&expect(reply, FrameType::InspectOk)?)
    }

    /// Request + cache counters.
    pub fn stats(&mut self) -> Result<ServerStats> {
        let reply = self.roundtrip(FrameType::Stats, &[])?;
        ServerStats::decode(&expect(reply, FrameType::StatsOk)?)
    }

    /// The server's telemetry exposition (versioned Prometheus-style
    /// text; parse it with [`stz_telemetry::expo::parse`]).
    pub fn metrics(&mut self) -> Result<String> {
        let reply = self.roundtrip(FrameType::Metrics, &[])?;
        crate::proto::decode_metrics_ok(&expect(reply, FrameType::MetricsOk)?)
    }

    /// Issue any decoded fetch ([`RequestKind::Raw`] has its own method).
    pub fn fetch(&mut self, req: &FetchReq) -> Result<FetchedField> {
        if req.kind == RequestKind::Raw {
            return Err(ServeError::protocol("use fetch_raw for raw-section fetches"));
        }
        let (reply, data) = self.roundtrip_reusing(req, FETCH_HEAD_LEN)?;
        let fetched = FetchedField::from_parts(&expect(reply, FrameType::FetchOk)?, data)?;
        if fetched.kind_tag != req.kind.tag() {
            return Err(ServeError::protocol(format!(
                "response kind tag {} does not match request kind {}",
                fetched.kind_tag,
                req.kind.tag()
            )));
        }
        Ok(fetched)
    }

    /// The server's retained request traces (tail-sampled slowest/error
    /// traces per frame kind), full span tables included.
    pub fn trace(&mut self) -> Result<Vec<stz_telemetry::trace::TraceRecord>> {
        let reply = self.roundtrip(FrameType::TraceGet, &[])?;
        decode_trace_ok(&expect(reply, FrameType::TraceOk)?)
    }

    /// Full decode of one entry.
    pub fn fetch_full(&mut self, container: &str, entry: EntrySel) -> Result<FetchedField> {
        self.fetch(&FetchReq {
            container: container.into(),
            entry,
            kind: RequestKind::Full,
            trace: None,
        })
    }

    /// Progressive preview through level `k`.
    pub fn fetch_level(&mut self, container: &str, entry: EntrySel, k: u8) -> Result<FetchedField> {
        self.fetch(&FetchReq {
            container: container.into(),
            entry,
            kind: RequestKind::Level(k),
            trace: None,
        })
    }

    /// Region decode.
    pub fn fetch_roi(
        &mut self,
        container: &str,
        entry: EntrySel,
        region: &Region,
    ) -> Result<FetchedField> {
        self.fetch(&FetchReq {
            container: container.into(),
            entry,
            kind: RequestKind::roi(region),
            trace: None,
        })
    }

    /// The compressed payload bytes of one entry, undecoded (CRC-verified
    /// by the server against the container index, and by this client
    /// against the frame checksum).
    pub fn fetch_raw(&mut self, container: &str, entry: EntrySel) -> Result<Vec<u8>> {
        let req =
            FetchReq { container: container.into(), entry, kind: RequestKind::Raw, trace: None };
        let (reply, _) = self.roundtrip_reusing(&req, usize::MAX)?;
        expect(reply, FrameType::RawOk)
    }

    /// Send a fetch request encoded into the recycled scratch buffer and
    /// read the response, split as [`Client::roundtrip_split`] does at
    /// `head_len`. The buffer survives errors, so a failed fetch
    /// does not cost the next one its allocation. When the calling thread
    /// has an active trace and the request carries no explicit context,
    /// the thread's trace id + current span are injected as the wire
    /// extension — distributed tracing with zero caller changes.
    fn roundtrip_reusing(&mut self, req: &FetchReq, head_len: usize) -> Result<(Frame, Vec<u8>)> {
        let injected;
        let req = match (&req.trace, stz_telemetry::trace::current_context()) {
            (None, Some(ctx)) => {
                injected = FetchReq {
                    trace: Some(TraceContextExt {
                        trace_id: ctx.trace_id(),
                        parent_span: ctx.span_id(),
                    }),
                    ..req.clone()
                };
                &injected
            }
            _ => req,
        };
        let payload = req.encode_reusing(std::mem::take(&mut self.scratch));
        let result = self.roundtrip_split(req.frame_type(), &payload, head_len);
        self.scratch = payload;
        result
    }
}

/// Require a specific response type, yielding its payload.
fn expect(frame: Frame, want: FrameType) -> Result<Vec<u8>> {
    match frame.frame_type() {
        Some(t) if t == want => Ok(frame.payload),
        _ => Err(ServeError::protocol(format!(
            "expected {want:?}, server sent frame type 0x{:02x}",
            frame.kind
        ))),
    }
}

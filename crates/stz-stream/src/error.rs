//! Error type for container reading and writing.

use std::fmt;
use std::io;
use stz_codec::CodecError;

/// Failure while reading or writing an STZ container.
///
/// Like the codec layer, the reader is total over arbitrary input: malformed
/// containers, bad checksums, and I/O failures all surface as errors — never
/// panics or unbounded allocations.
#[derive(Debug)]
pub enum StreamError {
    /// The underlying byte source failed.
    Io(io::Error),
    /// A payload section failed to decode (forwarded from `stz-codec`).
    Codec(CodecError),
    /// The container structure is invalid (bad magic, impossible index,
    /// checksum mismatch, out-of-bounds section, …).
    Corrupt(String),
    /// The container uses a feature this build does not support (unknown
    /// format version or element type).
    Unsupported(String),
}

impl StreamError {
    /// Build a [`StreamError::Corrupt`].
    pub fn corrupt(msg: impl Into<String>) -> Self {
        StreamError::Corrupt(msg.into())
    }

    /// Build a [`StreamError::Unsupported`].
    pub fn unsupported(msg: impl Into<String>) -> Self {
        StreamError::Unsupported(msg.into())
    }
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Io(e) => write!(f, "container I/O error: {e}"),
            StreamError::Codec(e) => write!(f, "container payload error: {e}"),
            StreamError::Corrupt(msg) => write!(f, "corrupt container: {msg}"),
            StreamError::Unsupported(msg) => write!(f, "unsupported container: {msg}"),
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Io(e) => Some(e),
            StreamError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StreamError {
    fn from(e: io::Error) -> Self {
        StreamError::Io(e)
    }
}

impl From<CodecError> for StreamError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Io { kind, message } => StreamError::Io(io::Error::new(kind, message)),
            e => StreamError::Codec(e),
        }
    }
}

/// Map a container error into a codec error, for the [`stz_core::SectionSource`]
/// methods whose signatures use [`stz_codec::Result`]; an I/O failure keeps
/// its class, and [`From<CodecError>`] maps it back.
pub(crate) fn to_codec(e: StreamError) -> CodecError {
    match e {
        StreamError::Codec(e) => e,
        StreamError::Io(e) => CodecError::Io { kind: e.kind(), message: e.to_string() },
        StreamError::Corrupt(msg) => CodecError::Corrupt(msg),
        StreamError::Unsupported(msg) => CodecError::Unsupported(msg),
    }
}

/// Result alias for container operations.
pub type Result<T> = std::result::Result<T, StreamError>;

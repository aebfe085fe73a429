//! Error type for the archive server and client.

use std::fmt;
use std::io;
use stz_codec::CodecError;

/// Failure while speaking STZP or serving a container over it.
///
/// Like the rest of the stack, both endpoints are total over arbitrary
/// input: a malformed or truncated frame, a checksum mismatch, or a peer
/// disconnect surfaces as an error — never a panic or a hang (socket reads
/// are bounded by the frame length prefix and an optional timeout).
#[derive(Debug)]
pub enum ServeError {
    /// The socket (or local file) failed.
    Io(io::Error),
    /// The byte stream violates the STZP framing or payload encoding
    /// (bad magic, unknown version, oversized length prefix, CRC
    /// mismatch, truncated payload, …).
    Protocol(String),
    /// The peer answered with an `ERR` frame.
    Remote {
        /// Machine-readable error class (see [`crate::proto::err_code`]).
        code: u16,
        /// Human-readable diagnostic from the peer.
        message: String,
    },
    /// A hosted container failed locally (server side).
    Stream(CodecError),
}

impl ServeError {
    /// Build a [`ServeError::Protocol`].
    pub fn protocol(msg: impl Into<String>) -> Self {
        ServeError::Protocol(msg.into())
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "serve I/O error: {e}"),
            ServeError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ServeError::Remote { code, message } => {
                write!(f, "server error {code}: {message}")
            }
            ServeError::Stream(e) => write!(f, "container error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Stream(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<CodecError> for ServeError {
    fn from(e: CodecError) -> Self {
        ServeError::Stream(e)
    }
}

/// Result alias for server/client operations.
pub type Result<T> = std::result::Result<T, ServeError>;

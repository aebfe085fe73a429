//! The unified error taxonomy of the access layer.
//!
//! Every [`Store`](crate::Store) implementation maps its transport's
//! failures onto the same small set of classes, so a consumer can match on
//! *what went wrong* without knowing *where the bytes live*: a missing
//! entry is [`AccessError::NotFound`] whether the lookup failed in a
//! footer index or an `INSPECT` round-trip; a progressive preview of a
//! foreign-codec entry is [`AccessError::Unsupported`] on every transport.

use std::fmt;
use std::io;
use stz_codec::CodecError;
use stz_serve::ServeError;
use stz_stream::Refusal;

/// Failure while listing, opening, or fetching through the access layer.
#[derive(Debug)]
pub enum AccessError {
    /// The addressed container or entry does not exist.
    NotFound(String),
    /// The request is valid but this entry (or this build) cannot serve it
    /// — e.g. a level preview of a foreign-codec entry, or a codec id the
    /// registry does not know.
    Unsupported(String),
    /// The request itself is malformed: an out-of-bounds region, a zero
    /// preview level, a level beyond the entry's hierarchy.
    BadRequest(String),
    /// The stored bytes are damaged (checksum mismatch, truncated
    /// section, impossible index) — on any transport.
    Corrupt(String),
    /// A location string failed to parse (see [`crate::Location`]).
    BadUri(String),
    /// The underlying file or socket failed.
    Io(io::Error),
    /// A remote failure that maps onto no local class (server busy,
    /// internal server error, an error code from the future).
    Remote {
        /// STZP error code (see `stz_serve::proto::err_code`).
        code: u16,
        /// Human-readable diagnostic from the server.
        message: String,
    },
    /// The remote byte stream violated the STZP protocol.
    Protocol(String),
}

impl AccessError {
    /// Build an [`AccessError::NotFound`].
    pub fn not_found(msg: impl Into<String>) -> Self {
        AccessError::NotFound(msg.into())
    }

    /// Build an [`AccessError::Unsupported`].
    pub fn unsupported(msg: impl Into<String>) -> Self {
        AccessError::Unsupported(msg.into())
    }

    /// Build an [`AccessError::BadRequest`].
    pub fn bad_request(msg: impl Into<String>) -> Self {
        AccessError::BadRequest(msg.into())
    }

    /// Build an [`AccessError::Corrupt`].
    pub fn corrupt(msg: impl Into<String>) -> Self {
        AccessError::Corrupt(msg.into())
    }

    /// Build an [`AccessError::BadUri`].
    pub fn bad_uri(msg: impl Into<String>) -> Self {
        AccessError::BadUri(msg.into())
    }
}

impl fmt::Display for AccessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessError::NotFound(msg) => write!(f, "not found: {msg}"),
            AccessError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
            AccessError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            AccessError::Corrupt(msg) => write!(f, "corrupt data: {msg}"),
            AccessError::BadUri(msg) => write!(f, "bad location: {msg}"),
            AccessError::Io(e) => write!(f, "I/O error: {e}"),
            AccessError::Remote { code, message } => write!(f, "server error {code}: {message}"),
            AccessError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for AccessError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AccessError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for AccessError {
    fn from(e: io::Error) -> Self {
        AccessError::Io(e)
    }
}

impl From<CodecError> for AccessError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Unsupported(msg) => AccessError::Unsupported(msg),
            CodecError::Corrupt(msg) => AccessError::Corrupt(msg),
            CodecError::Io { kind, message } => AccessError::Io(io::Error::new(kind, message)),
            eof @ CodecError::UnexpectedEof { .. } => AccessError::Corrupt(eof.to_string()),
        }
    }
}

impl From<Refusal> for AccessError {
    fn from(r: Refusal) -> Self {
        match r {
            Refusal::NotFound(msg) => AccessError::NotFound(msg),
            Refusal::BadRequest(msg) => AccessError::BadRequest(msg),
            Refusal::Unsupported(msg) => AccessError::Unsupported(msg),
        }
    }
}

impl From<ServeError> for AccessError {
    fn from(e: ServeError) -> Self {
        use stz_serve::proto::err_code;
        match e {
            ServeError::Io(e) => AccessError::Io(e),
            ServeError::Protocol(msg) => AccessError::Protocol(msg),
            ServeError::Stream(e) => e.into(),
            // `ERR` replies fold onto the local taxonomy, so a consumer
            // matching NotFound/Unsupported/… behaves identically against
            // every transport. Codes with no local twin stay Remote.
            ServeError::Remote { code, message } => match code {
                err_code::NOT_FOUND => AccessError::NotFound(message),
                err_code::UNSUPPORTED => AccessError::Unsupported(message),
                err_code::BAD_REQUEST => AccessError::BadRequest(message),
                err_code::CORRUPT => AccessError::Corrupt(message),
                code => AccessError::Remote { code, message },
            },
        }
    }
}

/// Result alias for access-layer operations.
pub type Result<T> = std::result::Result<T, AccessError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remote_err_codes_fold_onto_local_classes() {
        use stz_serve::proto::err_code;
        let map = |code| AccessError::from(ServeError::Remote { code, message: "m".into() });
        assert!(matches!(map(err_code::NOT_FOUND), AccessError::NotFound(_)));
        assert!(matches!(map(err_code::UNSUPPORTED), AccessError::Unsupported(_)));
        assert!(matches!(map(err_code::BAD_REQUEST), AccessError::BadRequest(_)));
        assert!(matches!(map(err_code::CORRUPT), AccessError::Corrupt(_)));
        assert!(matches!(map(err_code::BUSY), AccessError::Remote { .. }));
    }

    #[test]
    fn stream_and_codec_errors_map() {
        let e: AccessError = CodecError::corrupt("bad footer").into();
        assert!(matches!(e, AccessError::Corrupt(m) if m == "bad footer"));
        let e: AccessError = CodecError::unsupported("codec id 9").into();
        assert!(matches!(e, AccessError::Unsupported(_)));
        let e: AccessError = CodecError::UnexpectedEof { context: "header" }.into();
        assert!(matches!(e, AccessError::Corrupt(_)));
        let gone = || CodecError::Io { kind: io::ErrorKind::NotFound, message: "gone".into() };
        for e in [AccessError::from(gone()), ServeError::Stream(gone()).into()] {
            match e {
                AccessError::Io(e) => {
                    assert_eq!(e.kind(), io::ErrorKind::NotFound);
                    assert_eq!(e.to_string(), "gone");
                }
                e => panic!("want an I/O error, got {e:?}"),
            }
        }
    }
}

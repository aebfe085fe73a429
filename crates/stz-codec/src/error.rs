//! Error type for every read or write of stored bytes in the workspace:
//! codec payloads, containers and their mutation.

use std::fmt;

/// Failure while decoding, reading or writing stored bytes: a compressed
/// stream, an archive, or a container holding them.
///
/// Decoders in this workspace are total over arbitrary byte input: malformed
/// or truncated data yields a `CodecError`, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before a complete value could be read.
    UnexpectedEof {
        /// What was being read when the input ran out.
        context: &'static str,
    },
    /// The input is structurally invalid (bad magic, impossible table or
    /// index, inconsistent counts, checksum mismatch, …).
    Corrupt(String),
    /// The input encodes a feature this build does not support (e.g. an
    /// unknown format version or element type).
    Unsupported(String),
    /// Reading or writing the underlying file or source failed: an I/O
    /// error, carried across the decoder so its caller can tell it from bad
    /// bytes.
    Io { kind: std::io::ErrorKind, message: String },
}

impl CodecError {
    pub fn corrupt(msg: impl Into<String>) -> Self {
        CodecError::Corrupt(msg.into())
    }

    pub fn unsupported(msg: impl Into<String>) -> Self {
        CodecError::Unsupported(msg.into())
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof { context } => {
                write!(f, "unexpected end of input while reading {context}")
            }
            CodecError::Corrupt(msg) => write!(f, "corrupt stream: {msg}"),
            CodecError::Unsupported(msg) => write!(f, "unsupported stream: {msg}"),
            CodecError::Io { message, .. } => write!(f, "I/O error: {message}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<std::io::Error> for CodecError {
    fn from(e: std::io::Error) -> Self {
        CodecError::Io { kind: e.kind(), message: e.to_string() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = CodecError::UnexpectedEof { context: "huffman table" };
        assert!(e.to_string().contains("huffman table"));
        let e = CodecError::corrupt("bad magic");
        assert!(e.to_string().contains("bad magic"));
        let e = CodecError::unsupported("version 9");
        assert!(e.to_string().contains("version 9"));
    }
}

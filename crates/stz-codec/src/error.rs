//! Error type for all decoding paths in the workspace.

use std::fmt;

/// Failure while decoding a compressed stream or archive.
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
    /// The input is structurally invalid (bad magic, impossible table,
    /// inconsistent counts, …).
    Corrupt(String),
    /// The input encodes a feature this build does not support (e.g. an
    /// unknown format version or element type).
    Unsupported(String),
    /// Reading the input failed: an out-of-core source's I/O error, carried
    /// across the decoder so its caller can tell it from bad bytes.
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

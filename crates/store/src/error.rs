//! Errors raised by the storage layer.

use crate::wire::WireError;
use gcore_ppg::GraphError;
use std::fmt;
use std::io;

/// Anything that can go wrong encoding, decoding or moving bytes.
#[derive(Debug)]
pub enum StoreError {
    /// An I/O failure in a filesystem-backed backend.
    Io(io::Error),
    /// The file does not start with the format magic.
    BadMagic,
    /// The file's format version is not one this build can read.
    BadVersion(u32),
    /// The byte stream ended before the structure it promised.
    Truncated,
    /// A section's checksum does not match its payload.
    ChecksumMismatch {
        /// Human name of the failing section ("symbols", "nodes", …).
        section: &'static str,
    },
    /// Structurally invalid data (bad tag, non-UTF-8 string, trailing
    /// bytes, count mismatch, …).
    Corrupt(String),
    /// The decoded elements violate graph well-formedness (dangling
    /// edge, disconnected stored path, identity conflict).
    Graph(GraphError),
    /// The backend has no object under this key.
    Missing(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "storage I/O error: {e}"),
            StoreError::BadMagic => write!(f, "not a gcore-store file (bad magic)"),
            StoreError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            StoreError::Truncated => write!(f, "file truncated"),
            StoreError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in {section} section")
            }
            StoreError::Corrupt(msg) => write!(f, "corrupt file: {msg}"),
            StoreError::Graph(e) => write!(f, "decoded graph is ill-formed: {e}"),
            StoreError::Missing(key) => write!(f, "no stored object '{key}'"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<WireError> for StoreError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Truncated => StoreError::Truncated,
            WireError::BadUtf8 => StoreError::Corrupt(e.to_string()),
        }
    }
}

impl From<GraphError> for StoreError {
    fn from(e: GraphError) -> Self {
        StoreError::Graph(e)
    }
}

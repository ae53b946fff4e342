//! Client- and server-side failures of the serve layer.

use crate::protocol::ErrorCode;
use std::fmt;

/// Anything that can go wrong speaking the protocol or talking to a
/// server.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ServeError {
    /// A socket-level failure (rendered from `std::io::Error`).
    Io(String),
    /// The local side detected a protocol violation in the peer's
    /// bytes (bad magic, checksum mismatch, truncated frame, …).
    Protocol(String),
    /// The peer reported a failure in an error frame.
    Remote {
        /// The stable protocol error code (`S000`–`S007`).
        code: ErrorCode,
        /// The peer's message.
        message: String,
    },
    /// The connection closed before a complete response arrived.
    ConnectionClosed,
}

impl ServeError {
    /// The remote error code, if this is a [`ServeError::Remote`].
    pub fn remote_code(&self) -> Option<ErrorCode> {
        match self {
            ServeError::Remote { code, .. } => Some(*code),
            _ => None,
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(m) => write!(f, "i/o error: {m}"),
            ServeError::Protocol(m) => write!(f, "protocol error: {m}"),
            ServeError::Remote { code, message } => {
                write!(f, "server error [{code}]: {message}")
            }
            ServeError::ConnectionClosed => f.write_str("connection closed"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e.to_string())
    }
}

impl From<gcore_store::wire::WireError> for ServeError {
    fn from(e: gcore_store::wire::WireError) -> Self {
        use gcore_store::wire::WireError;
        ServeError::Protocol(
            match e {
                WireError::Truncated => "truncated payload",
                WireError::BadUtf8 => "payload text is not UTF-8",
            }
            .into(),
        )
    }
}

//! The wire protocol: length-prefixed, FNV-1a-checksummed binary
//! frames over TCP, following the `gcore-store` codec conventions
//! (fixed magic, explicit version, little-endian integers, checksums
//! over every payload).
//!
//! ## Connection establishment
//!
//! The client opens a connection and sends a raw 12-byte hello —
//! [`HANDSHAKE_MAGIC`] followed by [`PROTOCOL_VERSION`] (u32 LE).
//! Everything the server sends, from the first byte, is a frame: a
//! healthy server answers with a [`FrameKind::Hello`] frame carrying
//! its protocol version and current snapshot epoch; a server at its
//! connection cap answers with an [`FrameKind::Error`] frame coded
//! [`ErrorCode::Busy`] and closes.
//!
//! ## Frames
//!
//! ```text
//! ┌──────┬────────────┬─────────┬──────────────┐
//! │ kind │ len (u32)  │ payload │ fnv1a64      │
//! │ u8   │ LE         │ len B   │ u64 LE       │
//! └──────┴────────────┴─────────┴──────────────┘
//! ```
//!
//! The checksum covers the kind byte, the length field and the payload
//! (everything before it), so no single corrupted, truncated or
//! reordered byte can pass undetected; payload lengths are capped at
//! [`MAX_FRAME_PAYLOAD`] *before* any allocation, so a hostile length
//! can never trigger a giant allocation. Both properties are pinned by
//! `tests/protocol_robustness.rs`.
//!
//! ## Requests and responses
//!
//! * **query** ([`FrameKind::Query`]) — payload is one UTF-8 G-CORE
//!   statement. Evaluated read-only on a snapshot pinned per statement.
//! * **transact** ([`FrameKind::Transact`]) — payload is a UTF-8
//!   `;`-separated script. Serialized through the engine's catalog
//!   front; `GRAPH VIEW` registrations commit and bump the epoch.
//! * **admin** ([`FrameKind::Admin`]) — an [`AdminRequest`].
//!
//! Query and transact responses stream as [`FrameKind::Header`] (the
//! epoch plus output sort), any number of [`FrameKind::Chunk`] frames
//! carrying the `gcore-store`-encoded output in [`CHUNK_PAYLOAD`]-byte
//! slices, and a final [`FrameKind::Done`]. Admin responses are a
//! single [`FrameKind::AdminOk`] frame. Every failure is an
//! [`FrameKind::Error`] frame carrying an [`ErrorCode`] and a message
//! (the code table is documented in `docs/DIAGNOSTICS.md`).

use crate::error::ServeError;
use gcore_store::wire::{put_str, put_u32, put_u64, Cursor, Fnv1a};

/// The 8-byte magic a client opens every connection with.
pub const HANDSHAKE_MAGIC: [u8; 8] = *b"GCORESRV";

/// Protocol version spoken by this build. Bumped on any wire change.
pub const PROTOCOL_VERSION: u32 = 1;

/// Hard cap on a single frame's payload, enforced before allocation on
/// both sides. Large results are streamed as many chunks, so this
/// bounds per-frame memory, not response size.
pub const MAX_FRAME_PAYLOAD: u32 = 8 * 1024 * 1024;

/// Server-side slice size for streaming encoded results.
pub const CHUNK_PAYLOAD: usize = 256 * 1024;

/// Size of the frame header (kind byte + length field) on the wire.
pub const FRAME_HEADER_LEN: usize = 5;

/// Size of the trailing checksum on the wire.
pub const FRAME_CHECKSUM_LEN: usize = 8;

// ---------------------------------------------------------------------
// Checksum
// ---------------------------------------------------------------------

/// The checksum of a frame with the given kind byte and payload:
/// FNV-1a over kind, the little-endian length field and the payload.
pub fn frame_checksum(kind: u8, payload: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(&[kind]);
    h.update(&(payload.len() as u32).to_le_bytes());
    h.update(payload);
    h.finish()
}

// ---------------------------------------------------------------------
// Frame kinds and error codes
// ---------------------------------------------------------------------

/// Every frame kind on the wire. Client→server kinds are the three
/// request routes; the rest are server→client.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum FrameKind {
    /// One read-only statement (UTF-8 text payload).
    Query = 0x01,
    /// A write script (UTF-8 text payload), serialized through the
    /// catalog front.
    Transact = 0x02,
    /// An [`AdminRequest`].
    Admin = 0x03,
    /// Response start: epoch (u64 LE) + output sort (u8).
    Header = 0x10,
    /// One slice of the encoded result.
    Chunk = 0x11,
    /// Response end (empty payload).
    Done = 0x12,
    /// A failure: [`ErrorCode`] (u16 LE) + message (u32-length-prefixed
    /// UTF-8).
    Error = 0x13,
    /// A successful [`AdminResponse`].
    AdminOk = 0x14,
    /// Server greeting: protocol version (u32 LE) + current epoch (u64
    /// LE).
    Hello = 0x20,
}

impl FrameKind {
    /// Parse a kind byte.
    pub fn from_u8(b: u8) -> Option<FrameKind> {
        Some(match b {
            0x01 => FrameKind::Query,
            0x02 => FrameKind::Transact,
            0x03 => FrameKind::Admin,
            0x10 => FrameKind::Header,
            0x11 => FrameKind::Chunk,
            0x12 => FrameKind::Done,
            0x13 => FrameKind::Error,
            0x14 => FrameKind::AdminOk,
            0x20 => FrameKind::Hello,
            _ => return None,
        })
    }
}

/// Stable protocol error codes, rendered `S000`–`S007` (the table
/// lives in `docs/DIAGNOSTICS.md` next to the engine's `E`/`W` codes).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u16)]
pub enum ErrorCode {
    /// Malformed frame, handshake or request body: bad magic, version,
    /// checksum, length, kind, or non-UTF-8 text.
    Protocol = 0,
    /// The connection cap is reached; retry later.
    Busy = 1,
    /// The statement exceeded the connection's statement timeout.
    Timeout = 2,
    /// The statement was rejected or failed in the engine (the message
    /// carries the engine's diagnostic).
    Statement = 3,
    /// Unknown admin op or malformed admin arguments.
    Admin = 4,
    /// Save/load requested but the server has no storage configured,
    /// or the storage operation failed.
    Storage = 5,
    /// The server is draining connections for shutdown.
    ShuttingDown = 6,
    /// An internal failure encoding the response.
    Internal = 7,
}

impl ErrorCode {
    /// Parse a wire code; unknown codes collapse to
    /// [`ErrorCode::Protocol`] (the peer speaks a newer protocol).
    pub fn from_u16(raw: u16) -> ErrorCode {
        match raw {
            1 => ErrorCode::Busy,
            2 => ErrorCode::Timeout,
            3 => ErrorCode::Statement,
            4 => ErrorCode::Admin,
            5 => ErrorCode::Storage,
            6 => ErrorCode::ShuttingDown,
            7 => ErrorCode::Internal,
            _ => ErrorCode::Protocol,
        }
    }

    /// The stable rendering, e.g. `S003`.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Protocol => "S000",
            ErrorCode::Busy => "S001",
            ErrorCode::Timeout => "S002",
            ErrorCode::Statement => "S003",
            ErrorCode::Admin => "S004",
            ErrorCode::Storage => "S005",
            ErrorCode::ShuttingDown => "S006",
            ErrorCode::Internal => "S007",
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

// ---------------------------------------------------------------------
// Frame encode/decode
// ---------------------------------------------------------------------

/// One decoded frame.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Frame {
    /// What the payload means.
    pub kind: FrameKind,
    /// The raw payload bytes.
    pub payload: Vec<u8>,
}

impl Frame {
    /// A frame of the given kind and payload.
    pub fn new(kind: FrameKind, payload: Vec<u8>) -> Self {
        Frame { kind, payload }
    }
}

/// Serialize one frame: header, payload, checksum.
///
/// # Panics
///
/// If the payload exceeds [`MAX_FRAME_PAYLOAD`] — sender-side frames
/// are always produced by this crate's chunking, which respects the
/// cap.
pub fn encode_frame(kind: FrameKind, payload: &[u8]) -> Vec<u8> {
    assert!(
        payload.len() <= MAX_FRAME_PAYLOAD as usize,
        "frame payload over the wire cap"
    );
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len() + FRAME_CHECKSUM_LEN);
    out.push(kind as u8);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&frame_checksum(kind as u8, payload).to_le_bytes());
    out
}

/// Decode one frame from the front of `bytes`, returning it and the
/// number of bytes consumed. Every violation — unknown kind, oversized
/// or truncated length, checksum mismatch — is a
/// [`ServeError::Protocol`]; nothing panics and nothing allocates
/// beyond the validated payload length.
pub fn decode_frame(bytes: &[u8]) -> Result<(Frame, usize), ServeError> {
    if bytes.len() < FRAME_HEADER_LEN {
        return Err(ServeError::Protocol("truncated frame header".into()));
    }
    let kind_byte = bytes[0];
    let kind = FrameKind::from_u8(kind_byte)
        .ok_or_else(|| ServeError::Protocol(format!("unknown frame kind 0x{kind_byte:02x}")))?;
    let len = u32::from_le_bytes(bytes[1..5].try_into().unwrap());
    if len > MAX_FRAME_PAYLOAD {
        return Err(ServeError::Protocol(format!(
            "frame payload of {len} bytes exceeds the {MAX_FRAME_PAYLOAD}-byte cap"
        )));
    }
    let len = len as usize;
    let total = FRAME_HEADER_LEN + len + FRAME_CHECKSUM_LEN;
    if bytes.len() < total {
        return Err(ServeError::Protocol("truncated frame".into()));
    }
    let payload = &bytes[FRAME_HEADER_LEN..FRAME_HEADER_LEN + len];
    let declared = u64::from_le_bytes(bytes[FRAME_HEADER_LEN + len..total].try_into().unwrap());
    if declared != frame_checksum(kind_byte, payload) {
        return Err(ServeError::Protocol("frame checksum mismatch".into()));
    }
    Ok((
        Frame {
            kind,
            payload: payload.to_vec(),
        },
        total,
    ))
}

/// [`decode_frame`] requiring that `bytes` is exactly one frame.
pub fn decode_frame_exact(bytes: &[u8]) -> Result<Frame, ServeError> {
    let (frame, consumed) = decode_frame(bytes)?;
    if consumed != bytes.len() {
        return Err(ServeError::Protocol("trailing bytes after frame".into()));
    }
    Ok(frame)
}

// ---------------------------------------------------------------------
// Payload helpers
// ---------------------------------------------------------------------

/// A payload must be consumed exactly.
fn finish(c: &Cursor<'_>) -> Result<(), ServeError> {
    if c.is_empty() {
        Ok(())
    } else {
        Err(ServeError::Protocol("trailing bytes in payload".into()))
    }
}

// ---------------------------------------------------------------------
// Hello / Header / Error payloads
// ---------------------------------------------------------------------

/// Encode the server greeting payload.
pub fn encode_hello(epoch: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(12);
    put_u32(&mut out, PROTOCOL_VERSION);
    put_u64(&mut out, epoch);
    out
}

/// Decode a [`FrameKind::Hello`] payload into (version, epoch).
pub fn decode_hello(payload: &[u8]) -> Result<(u32, u64), ServeError> {
    let mut c = Cursor::new(payload);
    let version = c.u32()?;
    let epoch = c.u64()?;
    finish(&c)?;
    Ok((version, epoch))
}

/// The sort of a streamed result.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OutputSort {
    /// A §5 SELECT table, chunked in the `GCORETBL` encoding.
    Table,
    /// A graph, chunked in the `GCOREPPG` encoding.
    Graph,
}

/// Encode a [`FrameKind::Header`] payload.
pub fn encode_header(epoch: u64, sort: OutputSort) -> Vec<u8> {
    let mut out = Vec::with_capacity(9);
    put_u64(&mut out, epoch);
    out.push(match sort {
        OutputSort::Table => 0,
        OutputSort::Graph => 1,
    });
    out
}

/// Decode a [`FrameKind::Header`] payload into (epoch, sort).
pub fn decode_header(payload: &[u8]) -> Result<(u64, OutputSort), ServeError> {
    let mut c = Cursor::new(payload);
    let epoch = c.u64()?;
    let sort = match c.u8()? {
        0 => OutputSort::Table,
        1 => OutputSort::Graph,
        b => return Err(ServeError::Protocol(format!("unknown output sort {b}"))),
    };
    finish(&c)?;
    Ok((epoch, sort))
}

/// Encode an [`FrameKind::Error`] payload.
pub fn encode_error(code: ErrorCode, message: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(6 + message.len());
    out.extend_from_slice(&(code as u16).to_le_bytes());
    put_str(&mut out, message);
    out
}

/// Decode an [`FrameKind::Error`] payload into (code, message).
pub fn decode_error(payload: &[u8]) -> Result<(ErrorCode, String), ServeError> {
    let mut c = Cursor::new(payload);
    let code = ErrorCode::from_u16(c.u16()?);
    let message = c.str()?.to_owned();
    finish(&c)?;
    Ok((code, message))
}

// ---------------------------------------------------------------------
// Admin requests/responses
// ---------------------------------------------------------------------

/// Everything the admin route can be asked.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AdminRequest {
    /// List registered graphs, tables and the default graph.
    ListGraphs,
    /// Server counters (connections, queries, timeouts, …).
    Stats,
    /// Render the planner's decisions for a statement.
    Explain(String),
    /// Persist the committed catalog to the server's storage backend.
    Save,
    /// Replace the committed catalog from the server's storage backend.
    Load,
    /// Health check; returns the current epoch.
    Ping,
    /// Set this connection's statement timeout in milliseconds (0
    /// disables it).
    SetTimeout(u64),
    /// The unified metrics registry rendered as Prometheus-style text
    /// (server counters plus the engine's core metrics).
    Metrics,
    /// The slow-query log: the most recent over-threshold statements
    /// with their execution profiles.
    SlowLog,
}

const ADMIN_LIST: u8 = 1;
const ADMIN_STATS: u8 = 2;
const ADMIN_EXPLAIN: u8 = 3;
const ADMIN_SAVE: u8 = 4;
const ADMIN_LOAD: u8 = 5;
const ADMIN_PING: u8 = 6;
const ADMIN_SET_TIMEOUT: u8 = 7;
const ADMIN_METRICS: u8 = 8;
const ADMIN_SLOWLOG: u8 = 9;

impl AdminRequest {
    /// Serialize as an [`FrameKind::Admin`] payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            AdminRequest::ListGraphs => out.push(ADMIN_LIST),
            AdminRequest::Stats => out.push(ADMIN_STATS),
            AdminRequest::Explain(text) => {
                out.push(ADMIN_EXPLAIN);
                put_str(&mut out, text);
            }
            AdminRequest::Save => out.push(ADMIN_SAVE),
            AdminRequest::Load => out.push(ADMIN_LOAD),
            AdminRequest::Ping => out.push(ADMIN_PING),
            AdminRequest::SetTimeout(ms) => {
                out.push(ADMIN_SET_TIMEOUT);
                put_u64(&mut out, *ms);
            }
            AdminRequest::Metrics => out.push(ADMIN_METRICS),
            AdminRequest::SlowLog => out.push(ADMIN_SLOWLOG),
        }
        out
    }

    /// Parse an [`FrameKind::Admin`] payload.
    pub fn decode(payload: &[u8]) -> Result<AdminRequest, ServeError> {
        let mut c = Cursor::new(payload);
        let req = match c.u8()? {
            ADMIN_LIST => AdminRequest::ListGraphs,
            ADMIN_STATS => AdminRequest::Stats,
            ADMIN_EXPLAIN => AdminRequest::Explain(c.str()?.to_owned()),
            ADMIN_SAVE => AdminRequest::Save,
            ADMIN_LOAD => AdminRequest::Load,
            ADMIN_PING => AdminRequest::Ping,
            ADMIN_SET_TIMEOUT => AdminRequest::SetTimeout(c.u64()?),
            ADMIN_METRICS => AdminRequest::Metrics,
            ADMIN_SLOWLOG => AdminRequest::SlowLog,
            op => return Err(ServeError::Protocol(format!("unknown admin op {op}"))),
        };
        finish(&c)?;
        Ok(req)
    }
}

/// The catalog listing returned by [`AdminRequest::ListGraphs`].
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct GraphListing {
    /// Registered graph names, sorted.
    pub graphs: Vec<String>,
    /// Registered table names, sorted.
    pub tables: Vec<String>,
    /// The default graph, if set.
    pub default_graph: Option<String>,
}

/// Every successful admin reply ([`FrameKind::AdminOk`] payload).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AdminResponse {
    /// Reply to [`AdminRequest::ListGraphs`].
    Graphs(GraphListing),
    /// Reply to [`AdminRequest::Stats`]: named counters, sorted by
    /// name (self-describing, so new counters never break clients).
    Stats(Vec<(String, u64)>),
    /// Reply to [`AdminRequest::Explain`].
    Explain(String),
    /// Reply to save/load/ping: the current snapshot epoch.
    Epoch(u64),
    /// Reply to [`AdminRequest::SetTimeout`].
    Ok,
    /// Reply to [`AdminRequest::Metrics`]: Prometheus-style text.
    Text(String),
    /// Reply to [`AdminRequest::SlowLog`], oldest entry first.
    SlowLog(Vec<crate::stats::SlowLogEntry>),
}

const RESP_GRAPHS: u8 = 1;
const RESP_STATS: u8 = 2;
const RESP_EXPLAIN: u8 = 3;
const RESP_EPOCH: u8 = 4;
const RESP_OK: u8 = 5;
const RESP_TEXT: u8 = 6;
const RESP_SLOWLOG: u8 = 7;

impl AdminResponse {
    /// Serialize as an [`FrameKind::AdminOk`] payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            AdminResponse::Graphs(listing) => {
                out.push(RESP_GRAPHS);
                put_u32(&mut out, listing.graphs.len() as u32);
                for g in &listing.graphs {
                    put_str(&mut out, g);
                }
                put_u32(&mut out, listing.tables.len() as u32);
                for t in &listing.tables {
                    put_str(&mut out, t);
                }
                match &listing.default_graph {
                    Some(name) => {
                        out.push(1);
                        put_str(&mut out, name);
                    }
                    None => out.push(0),
                }
            }
            AdminResponse::Stats(counters) => {
                out.push(RESP_STATS);
                put_u32(&mut out, counters.len() as u32);
                for (name, value) in counters {
                    put_str(&mut out, name);
                    put_u64(&mut out, *value);
                }
            }
            AdminResponse::Explain(text) => {
                out.push(RESP_EXPLAIN);
                put_str(&mut out, text);
            }
            AdminResponse::Epoch(epoch) => {
                out.push(RESP_EPOCH);
                put_u64(&mut out, *epoch);
            }
            AdminResponse::Ok => out.push(RESP_OK),
            AdminResponse::Text(text) => {
                out.push(RESP_TEXT);
                put_str(&mut out, text);
            }
            AdminResponse::SlowLog(entries) => {
                out.push(RESP_SLOWLOG);
                put_u32(&mut out, entries.len() as u32);
                for e in entries {
                    put_str(&mut out, &e.text);
                    put_u64(&mut out, e.epoch);
                    put_u64(&mut out, e.elapsed_us);
                    put_str(&mut out, &e.profile);
                }
            }
        }
        out
    }

    /// Parse an [`FrameKind::AdminOk`] payload.
    pub fn decode(payload: &[u8]) -> Result<AdminResponse, ServeError> {
        let mut c = Cursor::new(payload);
        let resp = match c.u8()? {
            RESP_GRAPHS => {
                let n = c.u32()? as usize;
                let mut graphs = Vec::with_capacity(c.capacity_for(n, 4));
                for _ in 0..n {
                    graphs.push(c.str()?.to_owned());
                }
                let m = c.u32()? as usize;
                let mut tables = Vec::with_capacity(c.capacity_for(m, 4));
                for _ in 0..m {
                    tables.push(c.str()?.to_owned());
                }
                let default_graph = match c.u8()? {
                    0 => None,
                    1 => Some(c.str()?.to_owned()),
                    b => {
                        return Err(ServeError::Protocol(format!("bad default-graph tag {b}")));
                    }
                };
                AdminResponse::Graphs(GraphListing {
                    graphs,
                    tables,
                    default_graph,
                })
            }
            RESP_STATS => {
                let n = c.u32()? as usize;
                let mut counters = Vec::with_capacity(c.capacity_for(n, 12));
                for _ in 0..n {
                    let name = c.str()?.to_owned();
                    let value = c.u64()?;
                    counters.push((name, value));
                }
                AdminResponse::Stats(counters)
            }
            RESP_EXPLAIN => AdminResponse::Explain(c.str()?.to_owned()),
            RESP_EPOCH => AdminResponse::Epoch(c.u64()?),
            RESP_OK => AdminResponse::Ok,
            RESP_TEXT => AdminResponse::Text(c.str()?.to_owned()),
            RESP_SLOWLOG => {
                let n = c.u32()? as usize;
                let mut entries = Vec::with_capacity(c.capacity_for(n, 24));
                for _ in 0..n {
                    entries.push(crate::stats::SlowLogEntry {
                        text: c.str()?.to_owned(),
                        epoch: c.u64()?,
                        elapsed_us: c.u64()?,
                        profile: c.str()?.to_owned(),
                    });
                }
                AdminResponse::SlowLog(entries)
            }
            tag => {
                return Err(ServeError::Protocol(format!(
                    "unknown admin response tag {tag}"
                )))
            }
        };
        finish(&c)?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        for (kind, payload) in [
            (FrameKind::Query, &b"SELECT 1"[..]),
            (FrameKind::Chunk, &[0u8, 1, 2, 255][..]),
            (FrameKind::Done, &[][..]),
        ] {
            let bytes = encode_frame(kind, payload);
            let frame = decode_frame_exact(&bytes).unwrap();
            assert_eq!(frame.kind, kind);
            assert_eq!(frame.payload, payload);
        }
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut bytes = encode_frame(FrameKind::Query, b"x");
        bytes[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode_frame(&bytes), Err(ServeError::Protocol(_))));
    }

    #[test]
    fn admin_payloads_round_trip() {
        let requests = [
            AdminRequest::ListGraphs,
            AdminRequest::Stats,
            AdminRequest::Explain("SELECT n.name AS n MATCH (n)".into()),
            AdminRequest::Save,
            AdminRequest::Load,
            AdminRequest::Ping,
            AdminRequest::SetTimeout(250),
            AdminRequest::Metrics,
            AdminRequest::SlowLog,
        ];
        for req in requests {
            assert_eq!(AdminRequest::decode(&req.encode()).unwrap(), req);
        }
        let responses = [
            AdminResponse::Graphs(GraphListing {
                graphs: vec!["people".into(), "ünïcødé".into()],
                tables: vec!["orders".into()],
                default_graph: Some("people".into()),
            }),
            AdminResponse::Stats(vec![("queries_ok".into(), 7)]),
            AdminResponse::Explain("plan".into()),
            AdminResponse::Epoch(9),
            AdminResponse::Ok,
            AdminResponse::Text("# TYPE gcore_queries_ok counter\n".into()),
            AdminResponse::SlowLog(vec![crate::stats::SlowLogEntry {
                text: "SELECT n MATCH (n)".into(),
                epoch: 4,
                elapsed_us: 125_000,
                profile: "match 1 pattern(s)  rows=9\n".into(),
            }]),
        ];
        for resp in responses {
            assert_eq!(AdminResponse::decode(&resp.encode()).unwrap(), resp);
        }
    }

    #[test]
    fn header_error_hello_round_trip() {
        let h = encode_header(12, OutputSort::Graph);
        assert_eq!(decode_header(&h).unwrap(), (12, OutputSort::Graph));
        let e = encode_error(ErrorCode::Busy, "try later");
        assert_eq!(
            decode_error(&e).unwrap(),
            (ErrorCode::Busy, "try later".to_owned())
        );
        let hello = encode_hello(3);
        assert_eq!(decode_hello(&hello).unwrap(), (PROTOCOL_VERSION, 3));
    }
}

//! Framing, opcodes, status codes, and little-endian cursors.
//!
//! The unit of transport is a *frame*: a `u32` little-endian length
//! followed by that many payload bytes. Framing is symmetric — both
//! requests and responses travel as frames — and bounded: each side
//! enforces a maximum payload size so a corrupt or hostile length
//! prefix cannot make it allocate gigabytes.

use std::io::{self, IoSlice, Read, Write};

/// Default per-frame payload ceiling: large enough for a multi-million
/// vertex graph upload or forest download, small enough to bound a
/// connection's memory.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// Request opcodes (first payload byte of every request frame).
pub mod ops {
    /// Echo: liveness and latency probe.
    pub const PING: u8 = 0x01;
    /// Upload an [`st_graph::io`] binary graph into the catalog.
    pub const REGISTER: u8 = 0x02;
    /// Submit a catalog-addressed job; non-blocking admission.
    pub const SUBMIT: u8 = 0x03;
    /// Block until a submitted job resolves; claim its forest.
    pub const WAIT: u8 = 0x04;
    /// Fire a submitted job's cancellation token.
    pub const CANCEL: u8 = 0x05;
    /// Fetch the Prometheus metrics page.
    pub const METRICS: u8 = 0x06;
    /// Apply an edge batch to a catalog graph, producing a new version
    /// with its spanning forest maintained.
    pub const UPDATE: u8 = 0x07;
}

/// Response status (first payload byte of every response frame).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// Request succeeded; payload follows.
    Ok = 0,
    /// The admission queue is full; retry later or shed load.
    Backpressure = 1,
    /// The job was cancelled before it finished.
    Cancelled = 2,
    /// The job's deadline passed before it finished.
    DeadlineExceeded = 3,
    /// The job's algorithm panicked; payload is the message.
    Panicked = 4,
    /// The service is shutting down.
    ShuttingDown = 5,
    /// The submitted graph id is not in the catalog.
    UnknownGraph = 6,
    /// The ticket does not name a job on this connection.
    UnknownTicket = 7,
    /// The request could not be parsed (bad op, short payload, bad
    /// enum code).
    Malformed = 8,
    /// The request frame exceeded the server's size limit; the
    /// connection closes after this response.
    TooLarge = 9,
    /// The server is at its connection limit; the connection closes
    /// after this response.
    Busy = 10,
    /// A `REGISTER` payload was not a valid binary graph; payload is
    /// the parse error.
    BadGraph = 11,
    /// The server's catalog is at its configured entry limit; remove a
    /// graph (or raise the limit) before registering another.
    CatalogFull = 12,
    /// The submitting tenant already holds its full quota of queued
    /// jobs; resubmit after one of them resolves.
    QuotaExceeded = 13,
    /// The job's deadline is shorter than the expected queue delay of
    /// its priority lane; it was rejected at admission rather than
    /// queued to miss.
    DeadlineUnmeetable = 14,
    /// A version-pinned submission named a superseded graph version and
    /// no cached result could serve it; payload is the current version.
    StaleVersion = 15,
}

impl Status {
    /// The wire code.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Inverse of [`code`](Self::code).
    pub fn from_code(code: u8) -> Option<Self> {
        use Status::*;
        [
            Ok,
            Backpressure,
            Cancelled,
            DeadlineExceeded,
            Panicked,
            ShuttingDown,
            UnknownGraph,
            UnknownTicket,
            Malformed,
            TooLarge,
            Busy,
            BadGraph,
            CatalogFull,
            QuotaExceeded,
            DeadlineUnmeetable,
            StaleVersion,
        ]
        .into_iter()
        .find(|s| s.code() == code)
    }
}

impl std::fmt::Display for Status {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Status::Ok => "ok",
            Status::Backpressure => "backpressure",
            Status::Cancelled => "cancelled",
            Status::DeadlineExceeded => "deadline exceeded",
            Status::Panicked => "panicked",
            Status::ShuttingDown => "shutting down",
            Status::UnknownGraph => "unknown graph",
            Status::UnknownTicket => "unknown ticket",
            Status::Malformed => "malformed request",
            Status::TooLarge => "frame too large",
            Status::Busy => "server busy",
            Status::BadGraph => "bad graph payload",
            Status::CatalogFull => "catalog full",
            Status::QuotaExceeded => "tenant quota exceeded",
            Status::DeadlineUnmeetable => "deadline unmeetable",
            Status::StaleVersion => "stale graph version",
        };
        f.write_str(s)
    }
}

/// Writes one frame: length prefix and payload in one vectored write,
/// then flush. On a `nodelay` socket the prefix therefore never leaves
/// as a segment of its own.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame exceeds u32 length"))?;
    write_all_vectored(
        w,
        &mut [IoSlice::new(&len.to_le_bytes()), IoSlice::new(payload)],
    )?;
    w.flush()
}

/// Writes every byte of `bufs`, retrying short and interrupted writes.
/// A writer that takes whole vectors (a socket, a `Vec`) sees one call.
pub(crate) fn write_all_vectored<W: Write>(
    w: &mut W,
    mut bufs: &mut [IoSlice<'_>],
) -> io::Result<()> {
    // Drop leading empty slices so a zero-length write means failure.
    IoSlice::advance_slices(&mut bufs, 0);
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "failed to write whole frame",
                ))
            }
            Ok(k) => IoSlice::advance_slices(&mut bufs, k),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// What [`read_frame`] (or [`read_frame_len`]) found on the stream.
#[derive(Debug, PartialEq, Eq)]
pub enum ReadFrame<T = Vec<u8>> {
    /// A complete frame ([`read_frame`]), or the length of the payload
    /// that follows ([`read_frame_len`]).
    Frame(T),
    /// The peer closed the stream cleanly between frames.
    Eof,
    /// The length prefix exceeded `max_payload`. The payload was NOT
    /// consumed — the stream is no longer frame-aligned and should be
    /// closed after an error response.
    TooLarge(u32),
}

/// Reads one frame, tolerating reads split across TCP segments.
///
/// A clean close *between* frames is [`ReadFrame::Eof`]; a close
/// mid-frame is an [`io::ErrorKind::UnexpectedEof`] error. Timeouts
/// (`WouldBlock`/`TimedOut`) propagate to the caller, which may retry —
/// partial progress is lost, so only use read timeouts with an outer
/// loop that keeps the partial buffer, as the server's read loop does.
/// This plain version is for blocking streams.
pub fn read_frame<R: Read>(r: &mut R, max_payload: usize) -> io::Result<ReadFrame> {
    Ok(match read_frame_len(r, max_payload)? {
        ReadFrame::Frame(len) => {
            let mut payload = vec![0u8; len];
            r.read_exact(&mut payload)?;
            ReadFrame::Frame(payload)
        }
        ReadFrame::Eof => ReadFrame::Eof,
        ReadFrame::TooLarge(len) => ReadFrame::TooLarge(len),
    })
}

/// Reads one frame's length prefix and checks it against
/// `max_payload`, leaving the payload on the stream for a reader that
/// parses it in place. Errors and end of stream as in [`read_frame`].
pub fn read_frame_len<R: Read>(r: &mut R, max_payload: usize) -> io::Result<ReadFrame<usize>> {
    let mut header = [0u8; 4];
    match read_full(r, &mut header)? {
        0 => return Ok(ReadFrame::Eof),
        4 => {}
        _ => {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "stream closed mid length prefix",
            ))
        }
    }
    let len = u32::from_le_bytes(header);
    if len as usize > max_payload {
        return Ok(ReadFrame::TooLarge(len));
    }
    Ok(ReadFrame::Frame(len as usize))
}

/// Reads until `buf` is full or the stream ends; returns bytes read.
fn read_full<R: Read>(r: &mut R, buf: &mut [u8]) -> io::Result<usize> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(k) => got += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(got)
}

/// A little-endian reading cursor over a request/response payload.
///
/// Every accessor returns `None` on underrun, so parsers degrade to a
/// `Malformed` response instead of panicking on short payloads.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// True when every byte was consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Next `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    /// Next `u8`.
    pub fn u8(&mut self) -> Option<u8> {
        self.bytes(1).map(|b| b[0])
    }

    /// Next little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.bytes(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }

    /// Next little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.bytes(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut r = &wire[..];
        assert_eq!(
            read_frame(&mut r, 1024).unwrap(),
            ReadFrame::Frame(b"hello".to_vec())
        );
        assert_eq!(read_frame(&mut r, 1024).unwrap(), ReadFrame::Frame(vec![]));
        assert_eq!(read_frame(&mut r, 1024).unwrap(), ReadFrame::Eof);
    }

    #[test]
    fn oversized_length_is_flagged_not_allocated() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut r = &wire[..];
        assert_eq!(
            read_frame(&mut r, 1024).unwrap(),
            ReadFrame::TooLarge(u32::MAX)
        );
    }

    #[test]
    fn truncated_prefix_and_payload_error() {
        // Two of four length bytes.
        let mut r = &[0x05u8, 0x00][..];
        let err = read_frame(&mut r, 1024).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // Complete prefix, half the payload.
        let mut wire = Vec::new();
        wire.extend_from_slice(&4u32.to_le_bytes());
        wire.extend_from_slice(b"ab");
        let mut r = &wire[..];
        let err = read_frame(&mut r, 1024).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    /// A reader that returns one byte per call, exercising the
    /// partial-read paths the loopback tests can't reliably force.
    struct Trickle<'a>(&'a [u8]);

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.0.is_empty() || buf.is_empty() {
                return Ok(0);
            }
            buf[0] = self.0[0];
            self.0 = &self.0[1..];
            Ok(1)
        }
    }

    #[test]
    fn single_byte_reads_reassemble_the_frame() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"segmented").unwrap();
        let mut r = Trickle(&wire);
        assert_eq!(
            read_frame(&mut r, 1024).unwrap(),
            ReadFrame::Frame(b"segmented".to_vec())
        );
    }

    #[test]
    fn status_codes_roundtrip() {
        for code in 0..=15 {
            let status = Status::from_code(code).expect("defined");
            assert_eq!(status.code(), code);
        }
        assert_eq!(Status::from_code(16), None);
        assert_eq!(Status::from_code(255), None);
    }

    #[test]
    fn cursor_reads_and_underruns() {
        let mut buf = Vec::new();
        buf.push(7u8);
        buf.extend_from_slice(&0xdead_beefu32.to_le_bytes());
        buf.extend_from_slice(&0x0123_4567_89ab_cdefu64.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&2u32.to_le_bytes());
        let mut c = Cursor::new(&buf);
        assert_eq!(c.u8(), Some(7));
        assert_eq!(c.u32(), Some(0xdead_beef));
        assert_eq!(c.u64(), Some(0x0123_4567_89ab_cdef));
        assert_eq!((c.u32(), c.u32()), (Some(1), Some(2)));
        assert!(c.is_exhausted());
        assert_eq!(c.u8(), None, "underrun is None, not panic");
        let mut short = Cursor::new(&[1, 2]);
        assert_eq!(short.u32(), None);
        assert_eq!(short.remaining(), &[1, 2], "failed read consumes nothing");
    }
}

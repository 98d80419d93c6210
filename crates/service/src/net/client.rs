//! A blocking client for the TCP front-end.
//!
//! One [`Client`] is one connection — one ordered request/response
//! session with its own ticket namespace. The client is deliberately
//! synchronous (the server is thread-per-connection; concurrency comes
//! from opening more connections), and every method maps a non-`Ok`
//! response status to a typed [`WireError`] so remote backpressure,
//! deadlines, and cancellations are as visible as their in-process
//! counterparts.

use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use st_graph::{CsrGraph, VertexId};

use crate::job::Priority;
use crate::net::forest::read_forest_reply;
use crate::net::proto::{
    ops, read_frame_len, write_frame, Cursor, ReadFrame, Status, DEFAULT_MAX_FRAME_BYTES,
};
use crate::spec::AlgorithmId;

/// Why a client call failed.
#[derive(Debug)]
pub enum WireError {
    /// The socket failed (or closed mid-frame).
    Io(io::Error),
    /// The server answered with a non-`Ok` status; the string carries
    /// any diagnostic payload (e.g. a panic message or parse error).
    Remote(Status, String),
    /// The response could not be parsed (protocol bug or version skew).
    Protocol(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "socket error: {e}"),
            WireError::Remote(status, msg) if msg.is_empty() => {
                write!(f, "server answered: {status}")
            }
            WireError::Remote(status, msg) => write!(f, "server answered: {status} ({msg})"),
            WireError::Protocol(what) => write!(f, "protocol error: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

impl WireError {
    /// The remote status, when the failure was a server answer.
    pub fn status(&self) -> Option<Status> {
        match self {
            WireError::Remote(status, _) => Some(*status),
            _ => None,
        }
    }
}

/// A graph registered through this connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RemoteGraph {
    /// Catalog id, valid across all connections to this server.
    pub id: u64,
    /// Version assigned at registration.
    pub version: u32,
}

/// A ticket for a submitted job, scoped to the connection that
/// submitted it.
#[derive(Debug)]
pub struct SubmitReply {
    /// Pass to [`Client::wait`] / [`Client::cancel`].
    pub ticket: u32,
    /// True when the result came from the server's cache (the job
    /// never queued or executed; `wait` returns immediately).
    pub cached: bool,
    /// Server-minted trace id: the key into the server's event journal
    /// (`/debug/journal?trace=<hex>`) and slow-job log.
    pub trace: u64,
}

/// A spanning forest received over the wire (parents + roots; the
/// per-run statistics stay on the server).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RemoteForest {
    /// `parents[v]` is v's tree parent, or
    /// [`NO_VERTEX`](st_graph::NO_VERTEX) for roots.
    pub parents: Vec<VertexId>,
    /// Tree roots in discovery order.
    pub roots: Vec<VertexId>,
}

impl RemoteForest {
    /// Number of trees (= components).
    pub fn num_trees(&self) -> usize {
        self.roots.len()
    }

    /// Re-checks the forest against a local copy of the graph.
    pub fn is_valid_for(&self, g: &CsrGraph) -> bool {
        st_graph::validate::is_spanning_forest(g, &self.parents)
    }
}

/// Everything a remote submission can specify; mirrors
/// [`JobSpec`](crate::JobSpec).
#[derive(Clone, Copy, Debug)]
pub struct SubmitRequest {
    /// The catalog graph to span.
    pub graph: RemoteGraph,
    /// Algorithm to run.
    pub algorithm: AlgorithmId,
    /// Traversal seed.
    pub seed: u64,
    /// Admission priority.
    pub priority: Priority,
    /// Deadline from submission (queue + execution).
    pub deadline: Option<Duration>,
    /// Explicit team width (`None` = sizing oracle).
    pub processors: Option<usize>,
    /// Tenant the job's queued-slot quota is charged to (0 =
    /// anonymous).
    pub tenant: u64,
    /// When true, the submission is pinned to `graph.version` exactly:
    /// if the server's catalog has moved past it and no cached result
    /// matches, the reply is [`Status::StaleVersion`] carrying the live
    /// version. When false (the default) the submission follows the
    /// latest version.
    pub pinned: bool,
}

impl SubmitRequest {
    /// Default-algorithm, default-seed request for `graph`.
    pub fn new(graph: RemoteGraph) -> Self {
        Self {
            graph,
            algorithm: AlgorithmId::BaderCong,
            seed: crate::spec::DEFAULT_SEED,
            priority: Priority::Normal,
            deadline: None,
            processors: None,
            tenant: 0,
            pinned: false,
        }
    }

    /// Selects the algorithm.
    pub fn algorithm(mut self, a: AlgorithmId) -> Self {
        self.algorithm = a;
        self
    }

    /// Sets the traversal seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the priority class.
    pub fn priority(mut self, p: Priority) -> Self {
        self.priority = p;
        self
    }

    /// Attaches a deadline (rounded up to at least 1 ms — 0 encodes
    /// "none" on the wire).
    pub fn deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Requests an explicit team width.
    pub fn processors(mut self, p: usize) -> Self {
        self.processors = Some(p);
        self
    }

    /// Names the tenant whose queued-job quota this submission is
    /// charged against (default 0, the shared anonymous tenant).
    pub fn tenant(mut self, tenant: u64) -> Self {
        self.tenant = tenant;
        self
    }

    /// Pins the submission to `graph.version` exactly instead of
    /// following the catalog's latest version.
    pub fn pinned(mut self) -> Self {
        self.pinned = true;
        self
    }
}

/// What one [`Client::update`] batch did on the server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RemoteUpdate {
    /// The new version the batch produced.
    pub version: u32,
    /// True when the forest was repaired incrementally rather than
    /// recomputed from scratch.
    pub incremental: bool,
    /// Components in the maintained forest after the batch.
    pub components: u64,
    /// Insertions that were not already present.
    pub edges_added: u64,
    /// Deletions that named a live edge.
    pub edges_removed: u64,
}

/// One blocking connection to a [`Server`](crate::net::Server).
pub struct Client {
    stream: TcpStream,
    max_frame_bytes: usize,
    /// Set once the stream is no longer frame-aligned (an oversized
    /// response frame was flagged but its payload never consumed).
    /// Every later call fails instead of parsing garbage.
    poisoned: bool,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("peer", &self.stream.peer_addr().ok())
            .finish()
    }
}

impl Client {
    /// Connects to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            poisoned: false,
        })
    }

    /// Lowers (or raises) the response-frame ceiling; frames above it
    /// poison the connection. Defaults to
    /// [`DEFAULT_MAX_FRAME_BYTES`], matching the server.
    pub fn with_max_frame_bytes(mut self, bytes: usize) -> Self {
        self.max_frame_bytes = bytes;
        self
    }

    /// Fails fast when a previous oversized response left the stream
    /// unaligned.
    fn check_poisoned(&self) -> Result<(), WireError> {
        if self.poisoned {
            Err(WireError::Protocol(
                "connection poisoned by an oversized response frame",
            ))
        } else {
            Ok(())
        }
    }

    /// Reads one response frame's length prefix. An oversized frame
    /// poisons the client and shuts the socket down: its payload was
    /// never consumed, so nothing after it can be trusted to be
    /// frame-aligned.
    fn read_len(&mut self) -> Result<usize, WireError> {
        match read_frame_len(&mut self.stream, self.max_frame_bytes)? {
            ReadFrame::Frame(len) => Ok(len),
            ReadFrame::Eof => Err(WireError::Io(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "server closed the connection",
            ))),
            ReadFrame::TooLarge(_) => {
                self.poisoned = true;
                let _ = self.stream.shutdown(std::net::Shutdown::Both);
                Err(WireError::Protocol("oversized response frame"))
            }
        }
    }

    /// Reads one response frame as its status and body.
    fn read_response(&mut self) -> Result<(Status, Vec<u8>), WireError> {
        let mut body = vec![0u8; self.read_len()?];
        self.stream.read_exact(&mut body)?;
        if body.is_empty() {
            return Err(WireError::Protocol("empty response"));
        }
        // Shifts the body down in place: one read, no second buffer.
        let code = body.remove(0);
        let status = Status::from_code(code).ok_or(WireError::Protocol("unknown status code"))?;
        Ok((status, body))
    }

    /// Sends one request frame.
    fn send(&mut self, request: &[u8]) -> Result<(), WireError> {
        self.check_poisoned()?;
        write_frame(&mut BufWriter::new(&mut self.stream), request)?;
        Ok(())
    }

    /// One request/response round trip.
    fn call(&mut self, request: &[u8]) -> Result<(Status, Vec<u8>), WireError> {
        self.send(request)?;
        self.read_response()
    }

    /// As [`call`](Self::call), but any non-`Ok` status becomes
    /// [`WireError::Remote`] with the payload as its message.
    fn call_ok(&mut self, request: &[u8]) -> Result<Vec<u8>, WireError> {
        let (status, body) = self.call(request)?;
        if status == Status::Ok {
            Ok(body)
        } else {
            Err(WireError::Remote(
                status,
                String::from_utf8_lossy(&body).into_owned(),
            ))
        }
    }

    /// Round-trips `payload` through the server's echo op.
    pub fn ping(&mut self, payload: &[u8]) -> Result<Vec<u8>, WireError> {
        let mut req = Vec::with_capacity(1 + payload.len());
        req.push(ops::PING);
        req.extend_from_slice(payload);
        self.call_ok(&req)
    }

    /// Uploads `graph` into the server's catalog.
    pub fn register(&mut self, graph: &CsrGraph) -> Result<RemoteGraph, WireError> {
        let mut req = Vec::with_capacity(1 + st_graph::io::BINARY_HEADER_BYTES);
        req.push(ops::REGISTER);
        req.extend_from_slice(&st_graph::io::to_binary_vec(graph));
        let body = self.call_ok(&req)?;
        let mut c = Cursor::new(&body);
        let id = c.u64().ok_or(WireError::Protocol("short REGISTER reply"))?;
        let version = c.u32().ok_or(WireError::Protocol("short REGISTER reply"))?;
        Ok(RemoteGraph { id, version })
    }

    /// Submits a job. Non-blocking on the server side: a full admission
    /// queue is `WireError::Remote(Status::Backpressure, _)`; a tenant
    /// over its quota is `Status::QuotaExceeded`, and a deadline the
    /// lane's queue-delay estimate cannot meet is
    /// `Status::DeadlineUnmeetable`.
    pub fn submit(&mut self, r: SubmitRequest) -> Result<SubmitReply, WireError> {
        let mut req = Vec::with_capacity(39);
        req.push(ops::SUBMIT);
        req.extend_from_slice(&r.graph.id.to_le_bytes());
        req.push(r.algorithm.code());
        req.push(match r.priority {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        });
        req.extend_from_slice(&r.seed.to_le_bytes());
        let deadline_ms = r
            .deadline
            .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX).max(1))
            .unwrap_or(0);
        req.extend_from_slice(&deadline_ms.to_le_bytes());
        let processors = r
            .processors
            .map_or(0u32, |p| p.try_into().unwrap_or(u32::MAX));
        req.extend_from_slice(&processors.to_le_bytes());
        req.extend_from_slice(&r.tenant.to_le_bytes());
        if r.pinned {
            req.push(1);
            req.extend_from_slice(&r.graph.version.to_le_bytes());
        } else {
            req.push(0);
        }
        let body = self.call_ok(&req)?;
        let mut c = Cursor::new(&body);
        let ticket = c.u32().ok_or(WireError::Protocol("short SUBMIT reply"))?;
        let cached = c.u8().ok_or(WireError::Protocol("short SUBMIT reply"))? != 0;
        let trace = c.u64().ok_or(WireError::Protocol("short SUBMIT reply"))?;
        Ok(SubmitReply {
            ticket,
            cached,
            trace,
        })
    }

    /// Blocks until the job behind `ticket` resolves and claims its
    /// forest. The ticket is consumed — waiting twice is
    /// [`Status::UnknownTicket`].
    ///
    /// The parents and roots are read from the socket straight into the
    /// returned arrays; each count the reply claims is checked against
    /// the frame's length (itself bounded by the frame ceiling) before
    /// anything is allocated for it.
    ///
    /// # Errors
    ///
    /// - A non-`Ok` status is [`WireError::Remote`] with the reply's
    ///   payload as its message (a panic message, for example).
    /// - A parent or root count that runs past the frame is
    ///   `WireError::Protocol("short WAIT reply")`; bytes after the
    ///   roots are `WireError::Protocol("trailing bytes in WAIT
    ///   reply")`. Either way the rest of the frame is skipped, so the
    ///   connection stays usable.
    /// - An oversized frame poisons the client, as for every call.
    pub fn wait(&mut self, ticket: u32) -> Result<RemoteForest, WireError> {
        let mut req = Vec::with_capacity(5);
        req.push(ops::WAIT);
        req.extend_from_slice(&ticket.to_le_bytes());
        self.send(&req)?;
        let len = self.read_len()?;
        // The small buffer serves the header fields without a read each;
        // the arrays' bulk bypasses it. `take` keeps it inside the frame.
        let frame = (&mut self.stream).take(len as u64);
        read_forest_reply(&mut BufReader::with_capacity(8 << 10, frame), len)
    }

    /// Fires the cancellation token of the job behind `ticket`. The
    /// ticket stays valid: a later [`wait`](Self::wait) claims the
    /// cancelled (or raced-to-completion) result.
    pub fn cancel(&mut self, ticket: u32) -> Result<(), WireError> {
        let mut req = Vec::with_capacity(5);
        req.push(ops::CANCEL);
        req.extend_from_slice(&ticket.to_le_bytes());
        self.call_ok(&req).map(drop)
    }

    /// Applies a batch of edge insertions and deletions to catalog
    /// graph `graph_id`, returning the new version and what the batch
    /// changed. The server keeps the graph's spanning forest current —
    /// incrementally for small batches, by full recompute otherwise
    /// ([`RemoteUpdate::incremental`] says which ran).
    pub fn update(
        &mut self,
        graph_id: u64,
        inserts: &[(VertexId, VertexId)],
        deletes: &[(VertexId, VertexId)],
    ) -> Result<RemoteUpdate, WireError> {
        let mut req = Vec::with_capacity(17 + 8 * (inserts.len() + deletes.len()));
        req.push(ops::UPDATE);
        req.extend_from_slice(&graph_id.to_le_bytes());
        let n_ins =
            u32::try_from(inserts.len()).map_err(|_| WireError::Protocol("batch too large"))?;
        let n_del =
            u32::try_from(deletes.len()).map_err(|_| WireError::Protocol("batch too large"))?;
        req.extend_from_slice(&n_ins.to_le_bytes());
        req.extend_from_slice(&n_del.to_le_bytes());
        for &(u, v) in inserts.iter().chain(deletes) {
            req.extend_from_slice(&u.to_le_bytes());
            req.extend_from_slice(&v.to_le_bytes());
        }
        let body = self.call_ok(&req)?;
        let mut c = Cursor::new(&body);
        let short = || WireError::Protocol("short UPDATE reply");
        Ok(RemoteUpdate {
            version: c.u32().ok_or_else(short)?,
            incremental: c.u8().ok_or_else(short)? != 0,
            components: c.u64().ok_or_else(short)?,
            edges_added: c.u64().ok_or_else(short)?,
            edges_removed: c.u64().ok_or_else(short)?,
        })
    }

    /// Fetches the server's Prometheus metrics page.
    pub fn metrics(&mut self) -> Result<String, WireError> {
        let body = self.call_ok(&[ops::METRICS])?;
        String::from_utf8(body).map_err(|_| WireError::Protocol("metrics page not UTF-8"))
    }

    /// Sends a raw frame and reads one response frame — for protocol
    /// tests that need to speak malformed requests.
    #[doc(hidden)]
    pub fn raw_call(&mut self, request: &[u8]) -> Result<(Status, Vec<u8>), WireError> {
        self.call(request)
    }

    /// Writes raw bytes without framing — for tests that corrupt the
    /// framing layer itself.
    #[doc(hidden)]
    pub fn raw_write(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)?;
        self.stream.flush()
    }

    /// Reads one raw response frame — pairs with
    /// [`raw_write`](Self::raw_write).
    #[doc(hidden)]
    pub fn raw_read(&mut self) -> Result<(Status, Vec<u8>), WireError> {
        self.check_poisoned()?;
        self.read_response()
    }
}

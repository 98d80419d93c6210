//! The TCP server: accept loop, per-connection sessions, clean drain.
//!
//! Thread-per-connection keeps the semantics of the in-process API
//! intact with no async machinery: a session's requests execute
//! strictly in order on its own thread, and a blocking `WAIT` simply
//! parks that thread on the job's handle — admission control, not the
//! network layer, is where concurrency is bounded. The accept loop
//! enforces [`ServerConfig::max_connections`]; connections over the
//! limit receive a single [`Status::Busy`] frame and are closed.
//!
//! Shutdown is cooperative: sessions poll a shared flag between frames
//! (reads use a short timeout so the poll happens even on idle
//! connections), the accept loop is unblocked by a loopback
//! self-connect, and [`Server::shutdown`] joins every thread before
//! returning — no connection is ever torn down mid-response.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use st_core::ConfigError;
use st_core::{RuntimeConfig, SpanningForest};
use st_obs::TraceId;

use crate::dynamic::UpdateError;
use crate::job::{JobError, JobHandle, Priority};
use crate::net::forest::write_forest_frame;
use crate::net::proto::{ops, write_frame, Cursor, Status, DEFAULT_MAX_FRAME_BYTES};
use crate::service::Service;
use crate::spec::{AlgorithmId, GraphSel, JobSpec};

/// How often an idle session re-checks the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(150);

/// Tuning for [`Server::start`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address. Port 0 picks an ephemeral port (see
    /// [`Server::local_addr`]).
    pub addr: SocketAddr,
    /// Concurrent sessions accepted before new connections get
    /// [`Status::Busy`].
    pub max_connections: usize,
    /// Per-frame payload ceiling; larger requests get
    /// [`Status::TooLarge`] and the connection closes.
    pub max_frame_bytes: usize,
    /// Ceiling on catalog entries reachable through remote `REGISTER`:
    /// uploads that would grow the catalog past this answer
    /// [`Status::CatalogFull`]. Without a bound any client could grow
    /// server memory forever — the catalog never evicts on its own;
    /// entries leave only via explicit removal. In-process
    /// registration is not limited by this knob.
    pub max_catalog_entries: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".parse().expect("literal address"),
            max_connections: 64,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            max_catalog_entries: DEFAULT_MAX_CATALOG_ENTRIES,
        }
    }
}

/// Default remote-registration ceiling when [`ServerConfig`] does not
/// set one.
pub const DEFAULT_MAX_CATALOG_ENTRIES: usize = 256;

impl ServerConfig {
    /// Defaults overlaid with the `ST_LISTEN_ADDR` and
    /// `ST_MAX_CONNECTIONS` environment knobs.
    pub fn from_env() -> Result<Self, ConfigError> {
        let env = RuntimeConfig::from_env()?;
        let mut cfg = Self::default();
        if let Some(addr) = env.listen_addr {
            cfg.addr = addr;
        }
        if let Some(max) = env.max_connections {
            cfg.max_connections = max;
        }
        Ok(cfg)
    }
}

/// A running TCP front-end over an [`Arc<Service>`].
///
/// Dropping the server (or calling [`shutdown`](Self::shutdown)) stops
/// accepting, drains every session, and joins all threads. The
/// underlying service is shared, not owned: it keeps running, and
/// in-process tenants are unaffected.
pub struct Server {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    sessions: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("local_addr", &self.local_addr)
            .finish()
    }
}

impl Server {
    /// Binds `cfg.addr` and starts serving `service`.
    pub fn start(service: Arc<Service>, cfg: ServerConfig) -> io::Result<Self> {
        assert!(cfg.max_connections > 0, "max_connections must be >= 1");
        let listener = TcpListener::bind(cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let sessions = Arc::new(Mutex::new(Vec::new()));
        let active = Arc::new(AtomicUsize::new(0));

        let accept = {
            let shutdown = Arc::clone(&shutdown);
            let sessions = Arc::clone(&sessions);
            std::thread::Builder::new()
                .name("st-server-accept".into())
                .spawn(move || {
                    accept_loop(&listener, &service, &cfg, &shutdown, &sessions, &active)
                })
                .expect("spawning the accept thread")
        };
        Ok(Self {
            local_addr,
            shutdown,
            accept: Some(accept),
            sessions,
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting, drains every session, joins all threads.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shutdown.store(true, SeqCst);
        // The accept loop blocks in accept(); a throwaway self-connect
        // wakes it so it can observe the flag.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let sessions = std::mem::take(&mut *self.sessions.lock().unwrap());
        for s in sessions {
            let _ = s.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn accept_loop(
    listener: &TcpListener,
    service: &Arc<Service>,
    cfg: &ServerConfig,
    shutdown: &Arc<AtomicBool>,
    sessions: &Arc<Mutex<Vec<JoinHandle<()>>>>,
    active: &Arc<AtomicUsize>,
) {
    for stream in listener.incoming() {
        if shutdown.load(SeqCst) {
            return;
        }
        let Ok(mut stream) = stream else { continue };
        if active.load(SeqCst) >= cfg.max_connections {
            // One Busy frame, then close: the client's first read on
            // this connection sees the rejection.
            let _ = write_frame(&mut stream, &[Status::Busy.code()]);
            continue;
        }
        active.fetch_add(1, SeqCst);
        let service = Arc::clone(service);
        let shutdown = Arc::clone(shutdown);
        let slot = SlotGuard(Arc::clone(active));
        let max_frame = cfg.max_frame_bytes;
        let max_catalog = cfg.max_catalog_entries;
        let handle = std::thread::Builder::new()
            .name("st-server-session".into())
            .spawn(move || {
                let _slot = slot;
                session(&service, stream, max_frame, max_catalog, &shutdown);
            })
            .expect("spawning a session thread");
        let mut sessions = sessions.lock().unwrap();
        sessions.retain(|s| !s.is_finished());
        sessions.push(handle);
    }
}

/// Owns one slot of the `active` connection budget, releasing it when
/// the session thread exits — including by panic, which would
/// otherwise leak the slot and eventually wedge the accept loop into
/// answering `Busy` forever.
struct SlotGuard(Arc<AtomicUsize>);

impl Drop for SlotGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, SeqCst);
    }
}

/// What one attempt to read a fixed-size buffer produced.
enum Fill {
    /// Buffer completely filled.
    Full,
    /// Stream ended before the buffer filled (clean close when no
    /// bytes had arrived, truncation otherwise — the session ends
    /// either way).
    Eof,
    /// The shutdown flag fired while waiting.
    Shutdown,
}

/// Fills `buf` from a stream whose read timeout is `POLL_INTERVAL`,
/// re-checking `shutdown` on every timeout. Partial progress (a frame
/// split across TCP segments, or a slow sender) is preserved across
/// timeouts.
fn read_full_interruptible(
    stream: &mut TcpStream,
    buf: &mut [u8],
    shutdown: &AtomicBool,
) -> io::Result<Fill> {
    let mut got = 0;
    while got < buf.len() {
        if shutdown.load(SeqCst) {
            return Ok(Fill::Shutdown);
        }
        match stream.read(&mut buf[got..]) {
            Ok(0) => return Ok(Fill::Eof),
            Ok(k) => got += k,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(Fill::Full)
}

/// What one append-read into a growable buffer produced.
pub(crate) enum Gulp {
    /// At least one byte arrived.
    Data,
    /// The peer closed the stream.
    Eof,
    /// The shutdown flag fired while waiting.
    Shutdown,
}

/// Appends whatever bytes are available to `buf` (used by the HTTP
/// plane, where message boundaries are textual rather than
/// length-prefixed), re-checking `shutdown` on every read timeout.
pub(crate) fn read_some_interruptible(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    shutdown: &AtomicBool,
) -> io::Result<Gulp> {
    let mut chunk = [0u8; 1024];
    loop {
        if shutdown.load(SeqCst) {
            return Ok(Gulp::Shutdown);
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(Gulp::Eof),
            Ok(k) => {
                buf.extend_from_slice(&chunk[..k]);
                return Ok(Gulp::Data);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(e),
        }
    }
}

/// One connection's lifetime: frame loop, ticket table, ordered
/// request handling.
fn session(
    service: &Arc<Service>,
    mut stream: TcpStream,
    max_frame: usize,
    max_catalog: usize,
    shutdown: &AtomicBool,
) {
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let _ = stream.set_nodelay(true);
    let mut tickets: HashMap<u32, JobHandle> = HashMap::new();
    let mut next_ticket: u32 = 0;

    let mut first_frame = true;
    loop {
        let mut header = [0u8; 4];
        match read_full_interruptible(&mut stream, &mut header, shutdown) {
            Ok(Fill::Full) => {}
            // Clean close, mid-prefix close, drain, or socket error all
            // end the session; outstanding jobs keep running and their
            // results are simply unclaimed.
            Ok(Fill::Eof | Fill::Shutdown) | Err(_) => return,
        }
        // Protocol sniff: a connection whose first "length prefix" is
        // the bytes `GET ` is an HTTP client; hand it to the
        // observability plane. Only the first frame is sniffed — after
        // that the connection has committed to the binary protocol.
        if first_frame && header == *b"GET " {
            crate::net::http::serve_http(service, stream, header, shutdown);
            return;
        }
        first_frame = false;
        let len = u32::from_le_bytes(header) as usize;
        if len > max_frame {
            let _ = write_frame(&mut stream, &[Status::TooLarge.code()]);
            return; // The unread payload leaves the stream unaligned.
        }
        let mut payload = vec![0u8; len];
        match read_full_interruptible(&mut stream, &mut payload, shutdown) {
            Ok(Fill::Full) => {}
            Ok(Fill::Eof | Fill::Shutdown) | Err(_) => return,
        }
        let (reply, close) = handle_request(
            service,
            &payload,
            max_catalog,
            &mut tickets,
            &mut next_ticket,
        );
        if reply.write_to(&mut stream).is_err() || close {
            return;
        }
    }
}

/// One response, as [`handle_request`] produced it.
enum Reply {
    /// A status byte and its body.
    Payload(Vec<u8>),
    /// A `WAIT`'s `Ok` reply: the forest the job resolved to, shared
    /// with the result cache and written to the socket from its own
    /// arrays — not copied.
    Forest(Arc<SpanningForest>),
}

impl Reply {
    /// Writes the reply as one frame in one write, so its length prefix
    /// never leaves as a segment of its own.
    fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        match self {
            Reply::Payload(payload) => write_frame(w, payload),
            Reply::Forest(forest) => write_forest_frame(w, &forest.parents, &forest.roots),
        }
    }
}

fn resp(status: Status) -> Reply {
    Reply::Payload(vec![status.code()])
}

fn resp_with(status: Status, body: &[u8]) -> Reply {
    let mut out = Vec::with_capacity(1 + body.len());
    out.push(status.code());
    out.extend_from_slice(body);
    Reply::Payload(out)
}

/// A failed job's reply: its status, with the message of a panic.
fn job_error_reply(err: &JobError) -> Reply {
    resp(match err {
        JobError::Backpressure => Status::Backpressure,
        JobError::Cancelled => Status::Cancelled,
        JobError::DeadlineExceeded => Status::DeadlineExceeded,
        JobError::Panicked(msg) => return resp_with(Status::Panicked, msg.as_bytes()),
        JobError::ShuttingDown => Status::ShuttingDown,
        JobError::UnknownGraph => Status::UnknownGraph,
        JobError::QuotaExceeded => Status::QuotaExceeded,
        JobError::DeadlineUnmeetable => Status::DeadlineUnmeetable,
        JobError::StaleVersion(_) => Status::StaleVersion,
    })
}

/// Parses and executes one request, returning `(response, close
/// connection after responding)`.
fn handle_request(
    service: &Arc<Service>,
    payload: &[u8],
    max_catalog: usize,
    tickets: &mut HashMap<u32, JobHandle>,
    next_ticket: &mut u32,
) -> (Reply, bool) {
    let mut c = Cursor::new(payload);
    let Some(op) = c.u8() else {
        return (resp(Status::Malformed), false);
    };
    match op {
        ops::PING => (resp_with(Status::Ok, c.remaining()), false),
        ops::REGISTER => match st_graph::io::read_binary_slice(c.remaining()) {
            Ok(graph) => match service
                .catalog()
                .register_bounded(Arc::new(graph), max_catalog)
            {
                Some(gref) => {
                    let mut body = Vec::with_capacity(12);
                    body.extend_from_slice(&gref.id.0.to_le_bytes());
                    body.extend_from_slice(&gref.version.to_le_bytes());
                    (resp_with(Status::Ok, &body), false)
                }
                None => (resp(Status::CatalogFull), false),
            },
            Err(e) => (resp_with(Status::BadGraph, e.to_string().as_bytes()), false),
        },
        ops::SUBMIT => {
            let parsed = (|| {
                let graph = c.u64()?;
                let algo = AlgorithmId::from_code(c.u8()?)?;
                let priority = match c.u8()? {
                    0 => Priority::High,
                    1 => Priority::Normal,
                    2 => Priority::Low,
                    _ => return None,
                };
                let seed = c.u64()?;
                let deadline_ms = c.u64()?;
                let processors = c.u32()?;
                // Optional trailing fields, oldest clients first: a
                // tenant id, then a version pin (flag byte + version).
                // Absent bytes mean anonymous tenant / latest version.
                let tenant = c.u64();
                let id = crate::catalog::GraphId(graph);
                let sel = match c.u8() {
                    None | Some(0) => GraphSel::Latest(id),
                    Some(1) => GraphSel::Pinned(crate::catalog::GraphRef {
                        id,
                        version: c.u32()?,
                    }),
                    Some(_) => return None,
                };
                let mut spec = JobSpec::new(sel)
                    .algorithm(algo)
                    .seed(seed)
                    .priority(priority);
                if deadline_ms > 0 {
                    spec = spec.deadline(Duration::from_millis(deadline_ms));
                }
                if processors > 0 {
                    spec = spec.processors(processors as usize);
                }
                if let Some(tenant) = tenant {
                    spec = spec.tenant(tenant);
                }
                Some(spec)
            })();
            let Some(mut spec) = parsed else {
                return (resp(Status::Malformed), false);
            };
            // The trace id is minted here — at the wire boundary — so
            // it covers the job's entire server-side life and the reply
            // can return it before the job resolves.
            let trace = TraceId::mint();
            spec = spec.trace(trace.as_u64());
            // Non-blocking admission: remote callers must see
            // backpressure instead of silently tying up the session
            // thread while the queue is full.
            match service.try_submit_spec(spec) {
                Ok(submitted) => {
                    let ticket = *next_ticket;
                    *next_ticket = next_ticket.wrapping_add(1);
                    let cached = submitted.cached;
                    tickets.insert(ticket, submitted.handle);
                    let mut body = Vec::with_capacity(13);
                    body.extend_from_slice(&ticket.to_le_bytes());
                    body.push(cached as u8);
                    body.extend_from_slice(&trace.as_u64().to_le_bytes());
                    (resp_with(Status::Ok, &body), false)
                }
                // A stale pin's reply carries the live version so the
                // client can re-pin (or fall back to latest) in one
                // round trip.
                Err(JobError::StaleVersion(current)) => (
                    resp_with(Status::StaleVersion, &current.to_le_bytes()),
                    false,
                ),
                Err(e) => (job_error_reply(&e), false),
            }
        }
        ops::WAIT => {
            let Some(ticket) = c.u32() else {
                return (resp(Status::Malformed), false);
            };
            let Some(handle) = tickets.remove(&ticket) else {
                return (resp(Status::UnknownTicket), false);
            };
            match handle.wait() {
                // The forest is most of the reply; it is not copied.
                Ok(forest) => (Reply::Forest(forest), false),
                Err(e) => (job_error_reply(&e), false),
            }
        }
        ops::CANCEL => {
            let Some(ticket) = c.u32() else {
                return (resp(Status::Malformed), false);
            };
            match tickets.get(&ticket) {
                // The handle stays in the table: a later WAIT claims the
                // Cancelled (or raced-to-completion) result.
                Some(handle) => {
                    handle.cancel();
                    (resp(Status::Ok), false)
                }
                None => (resp(Status::UnknownTicket), false),
            }
        }
        ops::METRICS => (
            resp_with(Status::Ok, service.render_metrics().as_bytes()),
            false,
        ),
        ops::UPDATE => {
            let parsed = (|| {
                let graph = c.u64()?;
                let n_ins = c.u32()? as usize;
                let n_del = c.u32()? as usize;
                let mut batch = st_graph::EdgeBatch::new();
                for _ in 0..n_ins {
                    batch = batch.insert(c.u32()?, c.u32()?);
                }
                for _ in 0..n_del {
                    batch = batch.delete(c.u32()?, c.u32()?);
                }
                Some((crate::catalog::GraphId(graph), batch))
            })();
            let Some((id, batch)) = parsed else {
                return (resp(Status::Malformed), false);
            };
            match service.apply(id, &batch) {
                Ok(report) => {
                    // version u32, incremental u8, components u64,
                    // edges added u64, edges removed u64.
                    let mut body = Vec::with_capacity(29);
                    body.extend_from_slice(&report.graph.version.to_le_bytes());
                    body.push(report.incremental as u8);
                    body.extend_from_slice(&(report.components as u64).to_le_bytes());
                    body.extend_from_slice(&(report.outcome.edges_added as u64).to_le_bytes());
                    body.extend_from_slice(&(report.outcome.edges_removed as u64).to_le_bytes());
                    (resp_with(Status::Ok, &body), false)
                }
                Err(UpdateError::UnknownGraph(_)) => (resp(Status::UnknownGraph), false),
                Err(UpdateError::Batch(e)) => (
                    resp_with(Status::Malformed, e.to_string().as_bytes()),
                    false,
                ),
                Err(UpdateError::Job(e)) => (job_error_reply(&e), false),
            }
        }
        _ => (resp(Status::Malformed), false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writer that takes every byte it is offered and counts the
    /// calls that offered them.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
            self.writes += 1;
            bufs.iter().for_each(|b| self.bytes.extend_from_slice(b));
            Ok(bufs.iter().map(|b| b.len()).sum())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_reply_leaves_in_one_write() {
        let forest = Arc::new(st_core::seq::bfs_forest(&st_graph::gen::torus2d(4, 4)));
        for (reply, payload_len) in [
            (resp(Status::Busy), 1),
            (resp_with(Status::Ok, b"echo"), 5),
            (Reply::Forest(forest), 1 + 8 + 4 * 16 + 8 + 4),
        ] {
            let mut w = CountingWriter::default();
            reply.write_to(&mut w).unwrap();
            assert_eq!(w.writes, 1, "one write per frame");
            assert_eq!(w.bytes.len(), 4 + payload_len);
            assert_eq!(w.bytes[..4], (payload_len as u32).to_le_bytes());
        }
    }
}

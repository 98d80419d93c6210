//! The reference service `small-mixed` compares the service under test
//! with: the least a remote sequential BFS service of the same shape
//! could cost. A client asks for a graph's spanning forest in two round
//! trips, as it does of the real service (SUBMIT for a ticket, then WAIT
//! for the forest); a session thread per connection hands the job to one
//! worker thread, which runs the yardstick's BFS and hands the forest
//! back for the session to send.
//!
//! A small job is mostly thread wake-ups and loopback crossings. The
//! reference is made of the same steps and nothing else, so what the
//! service spends on a job beyond what the reference spends is the cost
//! of its own layers (admission, queue, dispatch, cache, engine); being
//! the benchmark's own code, no change to the program can move it.
//!
//! Frames: a request is one op byte and a `u32` (the graph for SUBMIT,
//! the ticket for WAIT); a SUBMIT reply is the `u32` ticket; a WAIT reply
//! is a `u32` length, then `u64` n, n `u32` parents, `u64` r, r `u32`
//! roots, all little-endian.

use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Shutdown, TcpListener, TcpStream};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use st_graph::{CsrGraph, VertexId};

use crate::yardstick::bfs_forest;

const SUBMIT: u8 = 1;
const WAIT: u8 = 2;

/// A job for the worker: the graph, and where its encoded forest goes.
type Job = (usize, Sender<Vec<u8>>);

/// The reference service: its worker and one session per connection.
pub struct Reference {
    /// The server side of every connection, to end the sessions.
    streams: Vec<TcpStream>,
    sessions: Vec<JoinHandle<()>>,
    /// The worker's queue; it ends once every handle to it is dropped.
    jobs: Option<Sender<Job>>,
    worker: Option<JoinHandle<()>>,
}

impl Reference {
    /// Starts the service over `graphs` with `connections` connections
    /// and returns it with one client per connection.
    pub fn start(
        graphs: Vec<Arc<CsrGraph>>,
        connections: usize,
    ) -> io::Result<(Self, Vec<RefClient>)> {
        let (jobs, queue) = channel::<Job>();
        let worker = std::thread::Builder::new()
            .name("ledger-ref-worker".into())
            .spawn(move || {
                for (graph, reply) in queue {
                    let _ = reply.send(encode(&graphs[graph]));
                }
            })?;
        let mut reference = Self {
            streams: Vec::new(),
            sessions: Vec::new(),
            jobs: Some(jobs),
            worker: Some(worker),
        };
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0))?;
        let mut clients = Vec::with_capacity(connections);
        for _ in 0..connections {
            let stream = TcpStream::connect(listener.local_addr()?)?;
            stream.set_nodelay(true)?;
            let (theirs, _) = listener.accept()?;
            theirs.set_nodelay(true)?;
            reference.streams.push(theirs.try_clone()?);
            let jobs = reference.jobs.clone().expect("the queue is open");
            let session = std::thread::Builder::new()
                .name("ledger-ref-session".into())
                .spawn(move || session(theirs, &jobs))?;
            reference.sessions.push(session);
            clients.push(RefClient { stream });
        }
        Ok((reference, clients))
    }
}

impl Drop for Reference {
    fn drop(&mut self) {
        // A closed stream ends its session's read loop; the worker ends
        // once the sessions and this handle to its queue are gone.
        for s in &self.streams {
            let _ = s.shutdown(Shutdown::Both);
        }
        for s in self.sessions.drain(..) {
            let _ = s.join();
        }
        drop(self.jobs.take());
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
    }
}

/// One connection's request loop, until the stream closes.
fn session(mut stream: TcpStream, jobs: &Sender<Job>) {
    let (done, results): (Sender<Vec<u8>>, Receiver<Vec<u8>>) = channel();
    let mut ticket = 0u32;
    let mut request = [0u8; 5];
    while stream.read_exact(&mut request).is_ok() {
        let arg = u32::from_le_bytes(request[1..].try_into().expect("four bytes"));
        let reply = match request[0] {
            SUBMIT if jobs.send((arg as usize, done.clone())).is_ok() => {
                ticket += 1;
                ticket.to_le_bytes().to_vec()
            }
            WAIT => match results.recv() {
                Ok(forest) => forest,
                Err(_) => return,
            },
            _ => return,
        };
        if stream.write_all(&reply).is_err() {
            return;
        }
    }
}

/// The WAIT reply carrying a BFS spanning forest of `g`.
fn encode(g: &CsrGraph) -> Vec<u8> {
    let (parents, roots) = bfs_forest(g);
    let body = 16 + 4 * (parents.len() + roots.len());
    let mut out = Vec::with_capacity(4 + body);
    out.extend_from_slice(&(body as u32).to_le_bytes());
    for list in [&parents, &roots] {
        out.extend_from_slice(&(list.len() as u64).to_le_bytes());
        for v in list.iter() {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    out
}

/// A client connection to the reference service.
pub struct RefClient {
    stream: TcpStream,
}

impl RefClient {
    /// SUBMIT then WAIT for the forest of graph `graph`: its parents and
    /// roots.
    pub fn job(&mut self, graph: usize) -> io::Result<(Vec<VertexId>, Vec<VertexId>)> {
        let ticket = self.call(SUBMIT, graph as u32, 4)?;
        let ticket = u32::from_le_bytes(ticket.try_into().expect("four bytes"));
        let len = self.call(WAIT, ticket, 4)?;
        let mut body = vec![0u8; u32::from_le_bytes(len.try_into().expect("four bytes")) as usize];
        self.stream.read_exact(&mut body)?;
        let mut rest = body.as_slice();
        let mut list = || -> io::Result<Vec<VertexId>> {
            let short = || io::Error::new(io::ErrorKind::InvalidData, "short WAIT reply");
            let (n, tail) = rest.split_first_chunk::<8>().ok_or_else(short)?;
            let n = u64::from_le_bytes(*n) as usize;
            let bytes = tail.get(..4 * n).ok_or_else(short)?;
            rest = &tail[4 * n..];
            Ok(bytes
                .chunks_exact(4)
                .map(|c| VertexId::from_le_bytes(c.try_into().expect("four bytes")))
                .collect())
        };
        let parents = list()?;
        let roots = list()?;
        Ok((parents, roots))
    }

    /// Sends one request and reads the first `reply` bytes of its answer.
    fn call(&mut self, op: u8, arg: u32, reply: usize) -> io::Result<Vec<u8>> {
        let mut request = [op, 0, 0, 0, 0];
        request[1..].copy_from_slice(&arg.to_le_bytes());
        self.stream.write_all(&request)?;
        let mut out = vec![0u8; reply];
        self.stream.read_exact(&mut out)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_graph::gen;

    #[test]
    fn answers_spanning_forests_until_dropped() {
        let graphs: Vec<_> = [gen::random_gnm(500, 400, 3), gen::torus2d(8, 8)]
            .into_iter()
            .map(Arc::new)
            .collect();
        let (reference, mut clients) =
            Reference::start(graphs.clone(), 2).expect("loopback is available");
        for (k, client) in clients.iter_mut().enumerate() {
            for graph in [k, 1 - k, k] {
                let g = &graphs[graph];
                let (parents, roots) = client.job(graph).expect("the reference answers");
                let components = st_graph::validate::count_components(g);
                assert_eq!(
                    crate::check::forest(g, &parents, &roots, components),
                    Ok(())
                );
            }
        }
        drop(reference); // joins every thread: must not hang
        assert!(clients[0].job(0).is_err());
    }
}

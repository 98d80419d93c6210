//! Remote client: start an in-process server, then drive it purely
//! over TCP — register a graph, submit jobs (watching the result cache
//! kick in), update the graph and read the version the update made,
//! cancel a job, and scrape the Prometheus metrics page.
//!
//! ```text
//! cargo run --release --example remote_client
//! ```
//!
//! Everything below the `Server::start` line is exactly what a client
//! in another process (or on another machine) would do; the in-process
//! server just makes the example self-contained. To serve externally,
//! set `ST_LISTEN_ADDR` (e.g. `0.0.0.0:7077`) and build the config
//! with `ServerConfig::from_env()`.

use std::sync::Arc;
use std::time::Instant;

use bader_cong_spanning::prelude::*;
use bader_cong_spanning::service::net::RemoteGraph;

fn main() {
    // A service with a 4-core budget, wrapped by the TCP
    // front-end on an ephemeral loopback port.
    let service = Arc::new(
        Service::builder()
            .cores(4)
            .queue_capacity(64)
            .result_cache_capacity(32)
            .build(),
    );
    let server = Server::start(Arc::clone(&service), ServerConfig::default())
        .expect("binding a loopback port");
    println!("server listening on {}", server.local_addr());

    // --- Everything below is pure client code. ---
    let mut client = Client::connect(server.local_addr()).expect("connecting");

    // Upload a graph once; afterwards every job names it by id.
    let n = 200_000;
    let g = Arc::new(gen::random_gnm(n, 3 * n / 2, 42));
    let remote = client.register(&g).expect("registering the graph");
    println!(
        "registered {} vertices / {} edges as id {} v{}",
        g.num_vertices(),
        g.num_edges(),
        remote.id,
        remote.version
    );

    // Cold: the job queues, gets a team, runs the traversal.
    let started = Instant::now();
    let reply = client.submit(SubmitRequest::new(remote)).expect("submit");
    let forest = client.wait(reply.ticket).expect("wait");
    println!(
        "cold run: {} trees in {:.2?} (cached: {})",
        forest.num_trees(),
        started.elapsed(),
        reply.cached
    );
    assert!(forest.is_valid_for(&g));

    // Hot: the identical spec is answered from the result cache —
    // no queue, no team, just a lookup and a frame.
    let started = Instant::now();
    let reply = client.submit(SubmitRequest::new(remote)).expect("submit");
    let forest = client.wait(reply.ticket).expect("wait");
    println!(
        "hot run:  {} trees in {:.2?} (cached: {})",
        forest.num_trees(),
        started.elapsed(),
        reply.cached
    );

    // Writes go over the wire too: one UPDATE, then a read pinned to
    // the version it produced, checked against a local copy of the
    // updated graph.
    let u = (0..n as VertexId)
        .find(|&v| !g.neighbors(v).is_empty())
        .expect("the graph has edges");
    let deletes = [(u, g.neighbors(u)[0])];
    let inserts = [(0, n as VertexId - 1), (1, n as VertexId / 2)];
    let update = client
        .update(remote.id, &inserts, &deletes)
        .expect("update");
    let batch = deletes
        .iter()
        .fold(EdgeBatch::new(), |b, &(u, v)| b.delete(u, v));
    let batch = inserts.iter().fold(batch, |b, &(u, v)| b.insert(u, v));
    let (local, _) = GraphView::Flat(Arc::clone(&g))
        .apply(&batch)
        .expect("the batch names real vertices");
    let local = local.materialize();
    let updated = RemoteGraph {
        version: update.version,
        ..remote
    };
    let reply = client
        .submit(SubmitRequest::new(updated).pinned())
        .expect("submit");
    let forest = client.wait(reply.ticket).expect("wait");
    println!(
        "update to v{} ({}, {} components), then a pinned read: {} trees",
        update.version,
        if update.incremental {
            "repaired"
        } else {
            "recomputed"
        },
        update.components,
        forest.num_trees()
    );
    assert!(forest.is_valid_for(&local));
    assert_eq!(forest.num_trees() as u64, update.components);

    // Cancellation propagates remotely: fire the token by ticket.
    let doomed = client
        .submit(SubmitRequest::new(remote).seed(7))
        .expect("submit");
    client.cancel(doomed.ticket).expect("cancel");
    match client.wait(doomed.ticket) {
        Err(e) => println!("cancelled job resolved as: {e}"),
        Ok(_) => println!("cancelled job finished first (benign race)"),
    }

    // The gauges behind all of this, in Prometheus text format.
    let page = client.metrics().expect("metrics");
    let interesting = page
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter(|l| {
            l.starts_with("st_service_jobs_")
                || l.starts_with("st_service_result_cache_")
                || l.starts_with("st_service_queue_depth ")
        })
        .collect::<Vec<_>>();
    println!("--- metrics ---");
    for line in interesting {
        println!("{line}");
    }

    server.shutdown();
    println!("server drained cleanly");
}

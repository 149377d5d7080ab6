//! The worker side: serve shard requests on one connection.
//!
//! A worker is a small state machine over one [`Endpoint`]: heartbeat pings
//! are answered immediately from the receive loop, while compute requests
//! are forwarded to a dedicated compute thread — so a worker grinding
//! through a long shard still answers heartbeats and is never mistaken for
//! dead. Results flow back through the shared
//! [`FrameSink`](crate::transport::FrameSink) from whichever thread
//! produced them.
//!
//! [`WorkerFault`] injects the two failure modes the coordinator must
//! tolerate: a crash (connection drops) and a hang (connection stays open
//! but nothing is ever answered). Both are test-only behaviours wired
//! through the same public entry points the real worker uses.

use crate::error::ShardError;
use crate::inventory::{Inventory, DEFAULT_ROW_CAP};
use crate::job::ShardJob;
use crate::transport::Endpoint;
use crate::wire::{Frame, ShardResult};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// Receive-loop poll granularity; bounds shutdown latency, nothing else.
const POLL: Duration = Duration::from_millis(100);

/// Injected worker failure, for fault-tolerance tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerFault {
    /// Serve this many requests, then drop the connection on the next one.
    DieAfterRequests(usize),
    /// Serve this many requests, then go silent: keep the connection open
    /// but never answer another frame (exercises heartbeat detection).
    HangAfterRequests(usize),
}

/// One compute unit bound for the compute thread. Full requests and
/// spec-referencing requests converge here: by the time an item is queued,
/// the spec line is resolved (inline from the frame, or from the
/// connection's announce registry).
struct WorkItem {
    job: u64,
    shard: u32,
    start: u64,
    end: u64,
    spec: Arc<String>,
}

/// Serves one connection until the peer shuts down or disconnects.
///
/// Meant for in-process peers, which speak this build's protocol: a frame
/// it can not decode ends the connection without an error here. TCP
/// workers go through [`serve_endpoint_with_inventory`], which returns it.
pub fn serve_endpoint(endpoint: Endpoint) {
    serve_endpoint_with(endpoint, None);
}

/// [`serve_endpoint`] with an optional injected fault. The connection gets
/// its own [`Inventory`]; use [`serve_endpoint_with_inventory`] to share
/// warm state across connections.
pub fn serve_endpoint_with(endpoint: Endpoint, fault: Option<WorkerFault>) {
    let _ = serve_endpoint_with_inventory(endpoint, fault, &Arc::new(Inventory::default()));
}

/// [`serve_endpoint_with`] on a shared warm-state [`Inventory`] — the
/// process-wide cache a TCP worker keeps across connections and jobs.
///
/// # Errors
/// [`ShardError::Protocol`] when the connection ended on a frame this build
/// can not decode — a peer of another protocol version, say. A peer that
/// shuts down or disconnects ends it with `Ok`.
pub fn serve_endpoint_with_inventory(
    mut endpoint: Endpoint,
    fault: Option<WorkerFault>,
    inventory: &Arc<Inventory>,
) -> Result<(), ShardError> {
    let (work_tx, work_rx) = mpsc::channel::<WorkItem>();
    let sink = Arc::clone(&endpoint.tx);
    let inv = Arc::clone(inventory);
    let compute = std::thread::Builder::new()
        .name("kpm-shard-compute".into())
        .spawn(move || {
            while let Ok(item) = work_rx.recv() {
                handle_item(&item, sink.as_ref(), &inv);
            }
        })
        .expect("spawn shard compute thread");

    // Spec lines announced on this connection, addressable by job id —
    // the O(1)-per-shard dispatch path ([`Frame::RequestRef`]).
    let mut specs: HashMap<u64, Arc<String>> = HashMap::new();
    let mut served = 0usize;
    let mut refused = None;
    loop {
        // A compute unit arrived; apply any injected fault before serving.
        let mut trip_fault = || match fault {
            Some(WorkerFault::DieAfterRequests(k)) if served >= k => Some(false),
            Some(WorkerFault::HangAfterRequests(k)) if served >= k => Some(true),
            _ => {
                served += 1;
                None
            }
        };
        match endpoint.rx.recv_timeout(POLL) {
            Ok(None) => continue,
            Ok(Some(Frame::Ping { nonce })) => {
                if endpoint.tx.send(&Frame::Pong { nonce }).is_err() {
                    break;
                }
            }
            Ok(Some(Frame::InventoryQuery)) => {
                if endpoint.tx.send(&Frame::Inventory(inventory.report())).is_err() {
                    break;
                }
            }
            Ok(Some(Frame::SpecAnnounce { job, spec })) => {
                specs.insert(job, Arc::new(spec));
            }
            Ok(Some(Frame::Request(req))) => {
                match trip_fault() {
                    Some(true) => {
                        hang(&mut endpoint);
                        break;
                    }
                    Some(false) => break,
                    None => {}
                }
                let item = WorkItem {
                    job: req.job,
                    shard: req.shard,
                    start: req.start,
                    end: req.end,
                    spec: Arc::new(req.spec),
                };
                if work_tx.send(item).is_err() {
                    break;
                }
            }
            Ok(Some(Frame::RequestRef { job, shard, start, end })) => {
                match trip_fault() {
                    Some(true) => {
                        hang(&mut endpoint);
                        break;
                    }
                    Some(false) => break,
                    None => {}
                }
                let Some(spec) = specs.get(&job) else {
                    let err = Frame::WorkerError {
                        job,
                        shard,
                        message: format!("job {job} referenced before announce"),
                    };
                    if endpoint.tx.send(&err).is_err() {
                        break;
                    }
                    continue;
                };
                let item = WorkItem { job, shard, start, end, spec: Arc::clone(spec) };
                if work_tx.send(item).is_err() {
                    break;
                }
            }
            Ok(Some(Frame::Shutdown)) => break,
            Err(e @ ShardError::Protocol(_)) => {
                refused = Some(e);
                break;
            }
            Err(_) => break,
            Ok(Some(_)) => {} // Pong/Result/WorkerError/Inventory are coordinator-bound; ignore.
        }
    }
    drop(work_tx);
    drop(endpoint); // unblocks the compute thread's sends if the peer is gone
    let _ = compute.join();
    refused.map_or(Ok(()), Err)
}

/// Drains the connection without ever replying, until it closes.
fn hang(endpoint: &mut Endpoint) {
    while endpoint.rx.recv_timeout(POLL).is_ok() {}
}

/// Parses, computes, and answers one work item; every failure is reported
/// as a [`Frame::WorkerError`] (deterministic — the coordinator aborts the
/// run rather than retrying elsewhere). Compute goes through the
/// [`Inventory`], so warm rows and operators are reused — bitwise
/// identically — and fresh results are retained for later jobs.
fn handle_item(item: &WorkItem, sink: &dyn crate::transport::FrameSink, inventory: &Inventory) {
    let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<Vec<Vec<f64>>, ShardError> {
        let job = ShardJob::parse(&item.spec)?;
        let (start, end) = (item.start as usize, item.end as usize);
        inventory.compute(&job, start..end)
    }));
    let reply = match outcome {
        Ok(Ok(rows)) => {
            kpm_obs::counter_add("shard.worker.completed", 1);
            Frame::Result(ShardResult { job: item.job, shard: item.shard, rows })
        }
        Ok(Err(e)) => {
            Frame::WorkerError { job: item.job, shard: item.shard, message: e.to_string() }
        }
        Err(_) => Frame::WorkerError {
            job: item.job,
            shard: item.shard,
            message: "compute panicked".into(),
        },
    };
    let _ = sink.send(&reply);
}

/// Runs a TCP worker: binds `listen`, reports the bound address through
/// `on_ready` (so callers binding port 0 learn the real port), then serves
/// connections — each on its own thread, or exactly one inline when `once`
/// is set (the test/CI mode).
///
/// # Errors
/// [`ShardError::Io`] on bind/accept failures; with `once`, the
/// connection's [`ShardError::Protocol`] error, as [`serve_listener_with`].
pub fn run_tcp_worker(
    listen: &str,
    once: bool,
    on_ready: impl FnOnce(SocketAddr),
) -> Result<(), ShardError> {
    run_tcp_worker_with(listen, once, DEFAULT_ROW_CAP, on_ready)
}

/// [`run_tcp_worker`] with an explicit warm-row cap (the CLI's
/// `--inventory-cap`; 0 disables caching and locality advertisement).
///
/// # Errors
/// As [`run_tcp_worker`].
pub fn run_tcp_worker_with(
    listen: &str,
    once: bool,
    inventory_cap: usize,
    on_ready: impl FnOnce(SocketAddr),
) -> Result<(), ShardError> {
    let listener =
        TcpListener::bind(listen).map_err(|e| ShardError::Io(format!("bind {listen}: {e}")))?;
    on_ready(listener.local_addr()?);
    serve_listener_with(&listener, once, inventory_cap)
}

/// The accept loop behind [`run_tcp_worker`], taking an already-bound
/// listener.
///
/// # Errors
/// As [`serve_listener_with`].
pub fn serve_listener(listener: &TcpListener, once: bool) -> Result<(), ShardError> {
    serve_listener_with(listener, once, DEFAULT_ROW_CAP)
}

/// [`serve_listener`] with an explicit warm-row cap. All connections
/// accepted here share one process-wide [`Inventory`], so warm state from
/// one coordinator's jobs serves the next — that cross-job reuse is what
/// the fleet scheduler's locality scoring pays off against.
///
/// A connection that ends on a frame this build can not decode names the
/// reason: with `once` it is returned, otherwise written to stderr, since
/// the listener serves on.
///
/// # Errors
/// [`ShardError::Io`] on accept failures; with `once`, the
/// [`ShardError::Protocol`] error that ended the connection.
pub fn serve_listener_with(
    listener: &TcpListener,
    once: bool,
    inventory_cap: usize,
) -> Result<(), ShardError> {
    let inventory = Arc::new(Inventory::new(inventory_cap));
    loop {
        let (stream, peer) = listener.accept()?;
        let endpoint = Endpoint::from_tcp(stream, format!("tcp:{peer}"))?;
        if once {
            return serve_endpoint_with_inventory(endpoint, None, &inventory);
        }
        let conn_inventory = Arc::clone(&inventory);
        std::thread::Builder::new()
            .name(format!("kpm-shard-conn-{peer}"))
            .spawn(move || {
                if let Err(e) = serve_endpoint_with_inventory(endpoint, None, &conn_inventory) {
                    eprintln!("kpm worker: connection from {peer} refused: {e}");
                }
            })
            .expect("spawn shard connection thread");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::loopback_pair;
    use crate::wire::ShardRequest;

    fn spawn_worker(fault: Option<WorkerFault>) -> Endpoint {
        let (coord, worker) = loopback_pair("test-worker");
        std::thread::spawn(move || serve_endpoint_with(worker, fault));
        coord
    }

    fn request(shard: u32, start: u64, end: u64) -> Frame {
        Frame::Request(ShardRequest {
            job: 1,
            shard,
            start,
            end,
            spec: "dos lattice=chain:16 moments=8 random=2 sets=2 seed=3".into(),
        })
    }

    #[test]
    fn worker_answers_pings_and_computes_requests() {
        let mut coord = spawn_worker(None);
        coord.tx.send(&Frame::Ping { nonce: 7 }).unwrap();
        assert_eq!(
            coord.rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            Some(Frame::Pong { nonce: 7 })
        );
        coord.tx.send(&request(2, 1, 3)).unwrap();
        match coord.rx.recv_timeout(Duration::from_secs(30)).unwrap() {
            Some(Frame::Result(res)) => {
                assert_eq!(res.shard, 2);
                assert_eq!(res.rows.len(), 2);
                assert_eq!(res.rows[0].len(), 8);
            }
            other => panic!("expected a result, got {other:?}"),
        }
        coord.tx.send(&Frame::Shutdown).unwrap();
    }

    #[test]
    fn bad_spec_comes_back_as_worker_error() {
        let mut coord = spawn_worker(None);
        coord
            .tx
            .send(&Frame::Request(ShardRequest {
                job: 9,
                shard: 0,
                start: 0,
                end: 1,
                spec: "dos lattice=blob:3".into(),
            }))
            .unwrap();
        match coord.rx.recv_timeout(Duration::from_secs(5)).unwrap() {
            Some(Frame::WorkerError { job, shard, message }) => {
                assert_eq!((job, shard), (9, 0));
                assert!(!message.is_empty());
            }
            other => panic!("expected a worker error, got {other:?}"),
        }
        coord.tx.send(&Frame::Shutdown).unwrap();
    }

    #[test]
    fn announced_spec_serves_referenced_shards_bitwise() {
        let spec = "dos lattice=chain:16 moments=8 random=2 sets=2 seed=3";
        let job = ShardJob::parse(spec).unwrap();
        let mut coord = spawn_worker(None);
        coord.tx.send(&Frame::SpecAnnounce { job: 4, spec: spec.into() }).unwrap();
        coord.tx.send(&Frame::RequestRef { job: 4, shard: 1, start: 1, end: 3 }).unwrap();
        match coord.rx.recv_timeout(Duration::from_secs(30)).unwrap() {
            Some(Frame::Result(res)) => {
                assert_eq!((res.job, res.shard), (4, 1));
                assert_eq!(res.rows, job.compute_partial(1..3).unwrap());
            }
            other => panic!("expected a result, got {other:?}"),
        }
        // An unannounced job id is a protocol error on that shard only.
        coord.tx.send(&Frame::RequestRef { job: 99, shard: 0, start: 0, end: 1 }).unwrap();
        match coord.rx.recv_timeout(Duration::from_secs(5)).unwrap() {
            Some(Frame::WorkerError { job, shard, message }) => {
                assert_eq!((job, shard), (99, 0));
                assert!(message.contains("before announce"));
            }
            other => panic!("expected a worker error, got {other:?}"),
        }
        // The connection is still healthy after the bad reference.
        coord.tx.send(&Frame::RequestRef { job: 4, shard: 2, start: 0, end: 1 }).unwrap();
        assert!(matches!(
            coord.rx.recv_timeout(Duration::from_secs(30)).unwrap(),
            Some(Frame::Result(_))
        ));
        coord.tx.send(&Frame::Shutdown).unwrap();
    }

    #[test]
    fn inventory_query_reports_warm_state() {
        let mut coord = spawn_worker(None);
        // Cold worker: empty report.
        coord.tx.send(&Frame::InventoryQuery).unwrap();
        match coord.rx.recv_timeout(Duration::from_secs(5)).unwrap() {
            Some(Frame::Inventory(report)) => {
                assert!(report.ops.is_empty());
                assert!(report.rows.is_empty());
            }
            other => panic!("expected an inventory, got {other:?}"),
        }
        coord.tx.send(&request(0, 0, 2)).unwrap();
        assert!(matches!(
            coord.rx.recv_timeout(Duration::from_secs(30)).unwrap(),
            Some(Frame::Result(_))
        ));
        coord.tx.send(&Frame::InventoryQuery).unwrap();
        match coord.rx.recv_timeout(Duration::from_secs(5)).unwrap() {
            Some(Frame::Inventory(report)) => {
                let job = ShardJob::parse("dos lattice=chain:16 moments=8 random=2 sets=2 seed=3")
                    .unwrap();
                assert_eq!(report.ops, vec![job.op_key()]);
                assert_eq!(report.rows.len(), 1);
                assert_eq!((report.rows[0].start, report.rows[0].end), (0, 2));
                assert_eq!(report.rows[0].key, job.row_key());
            }
            other => panic!("expected an inventory, got {other:?}"),
        }
        coord.tx.send(&Frame::Shutdown).unwrap();
    }

    #[test]
    fn shared_inventory_carries_warm_state_across_connections() {
        let inventory = Arc::new(Inventory::default());
        let serve = |inv: &Arc<Inventory>| {
            let (coord, worker) = loopback_pair("shared-inv");
            let inv = Arc::clone(inv);
            std::thread::spawn(move || serve_endpoint_with_inventory(worker, None, &inv));
            coord
        };
        let mut first = serve(&inventory);
        first.tx.send(&request(0, 0, 2)).unwrap();
        assert!(matches!(
            first.rx.recv_timeout(Duration::from_secs(30)).unwrap(),
            Some(Frame::Result(_))
        ));
        first.tx.send(&Frame::Shutdown).unwrap();
        // A second "coordinator" sees the first one's warm rows.
        let mut second = serve(&inventory);
        second.tx.send(&Frame::InventoryQuery).unwrap();
        match second.rx.recv_timeout(Duration::from_secs(5)).unwrap() {
            Some(Frame::Inventory(report)) => assert!(!report.rows.is_empty()),
            other => panic!("expected an inventory, got {other:?}"),
        }
        second.tx.send(&Frame::Shutdown).unwrap();
    }

    #[test]
    fn die_fault_drops_the_connection() {
        let mut coord = spawn_worker(Some(WorkerFault::DieAfterRequests(0)));
        coord.tx.send(&request(0, 0, 1)).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            match coord.rx.recv_timeout(Duration::from_millis(50)) {
                Err(_) => break, // connection closed, as injected
                Ok(None) if std::time::Instant::now() < deadline => continue,
                other => panic!("expected drop, got {other:?}"),
            }
        }
    }

    #[test]
    fn hang_fault_stays_silent_but_connected() {
        let mut coord = spawn_worker(Some(WorkerFault::HangAfterRequests(0)));
        coord.tx.send(&request(0, 0, 1)).unwrap();
        // Further pings go unanswered while the connection stays open.
        coord.tx.send(&Frame::Ping { nonce: 1 }).unwrap();
        assert_eq!(coord.rx.recv_timeout(Duration::from_millis(400)).unwrap(), None);
        drop(coord); // closing our end lets the hung worker exit
    }
}

//! A peer of another protocol version is refused by name on both sides of
//! a TCP connection: the worker returns the decode error instead of ending
//! the connection silently, and the coordinator's dead-worker error names
//! the last connection it lost and why.

use kpm_shard::wire::{self, Frame};
use kpm_shard::{serve_listener, Endpoint, Fleet, FleetError, FleetPolicy, ShardError};
use std::io::{Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

const MISMATCH: &str = "protocol version 3, expected 4..=4";

/// `frame` as a version 3 peer (the untiled small-operator family) encodes
/// it: the layout is unchanged, only the header's version differs.
fn version_3(frame: &Frame) -> Vec<u8> {
    let mut bytes = wire::encode(frame);
    bytes[4..6].copy_from_slice(&3u16.to_le_bytes());
    bytes
}

#[test]
fn tcp_worker_names_a_version_3_frame() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let worker = std::thread::spawn(move || serve_listener(&listener, true));
    let mut coordinator = TcpStream::connect(addr).unwrap();
    coordinator.write_all(&version_3(&Frame::Ping { nonce: 7 })).unwrap();
    match worker.join().unwrap() {
        Err(ShardError::Protocol(msg)) => assert!(msg.contains(MISMATCH), "{msg}"),
        other => panic!("expected the worker to refuse the frame, got {other:?}"),
    }
    // The worker closed the connection without answering.
    let mut rest = Vec::new();
    let _ = coordinator.read_to_end(&mut rest);
    assert!(rest.is_empty());
}

#[test]
fn tcp_coordinator_names_a_version_3_frame() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    // A worker of the older build: its first frame carries version 3. It
    // keeps the socket open until the coordinator hangs up, so the loss
    // comes from the refused frame, not from a closed connection.
    let old_worker = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        stream.write_all(&version_3(&Frame::Pong { nonce: 1 })).unwrap();
        let mut sink = Vec::new();
        let _ = stream.read_to_end(&mut sink);
    });
    let policy =
        FleetPolicy { no_worker_grace: Duration::from_millis(200), ..FleetPolicy::default() };
    let endpoint = Endpoint::connect_tcp(&addr).unwrap();
    let fleet = Fleet::start(vec![endpoint], policy, None).unwrap();
    let line = "dos lattice=chain:16 moments=8 random=2 sets=2 seed=3";
    let err = fleet.client().submit(line).unwrap_err();
    match &err {
        FleetError::NoWorkers { pending, last_loss: Some(loss) } => {
            assert!(*pending > 0);
            assert!(loss.starts_with(&format!("tcp:{addr}")), "{loss}");
            assert!(loss.contains(MISMATCH), "{loss}");
        }
        other => panic!("expected NoWorkers naming the refusal, got {other:?}"),
    }
    assert!(err.to_string().contains(MISMATCH), "{err}");
    drop(fleet);
    old_worker.join().unwrap();
}

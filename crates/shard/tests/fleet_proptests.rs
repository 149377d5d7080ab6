//! Property tests for the fleet guarantee: for *any* interleaving of
//! worker joins, leaves (death or hang), cross-job stealing, and one
//! coordinator kill-and-replay, every job's merged moments are bitwise
//! identical to a single-process run with the same seed.
//!
//! Runs go through the full public stack — loopback or real TCP endpoints
//! carrying wire frames, the locality-aware scheduler, the fsync'd
//! journal, the exact merge — extending the shard layer's fault harness
//! (crates/shard/tests/proptests.rs) across jobs and coordinator
//! restarts.

use kpm_shard::transport::{loopback_pair, Endpoint};
use kpm_shard::worker::{serve_endpoint_with, serve_listener_with};
use kpm_shard::{Fleet, FleetError, FleetPolicy, MergedMoments, ShardJob, WorkerFault};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Quick heartbeats so fault paths resolve in test time.
fn fast_policy() -> FleetPolicy {
    FleetPolicy {
        heartbeat_interval: Duration::from_millis(50),
        heartbeat_timeout: Duration::from_millis(600),
        backoff_base: Duration::from_millis(5),
        inventory_wait: Duration::from_millis(100),
        no_worker_grace: Duration::from_secs(3),
        ..FleetPolicy::default()
    }
}

/// Spawns one worker endpoint: loopback in-process, or a real TCP
/// listener serving one connection — the same codec either way, so the
/// TCP arm pins the network framing under the identical interleavings.
fn spawn_worker(i: usize, fault: Option<WorkerFault>, tcp: bool) -> Endpoint {
    if tcp {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        std::thread::spawn(move || {
            // `once` mode: serve this fleet's connection, then exit. Fault
            // injection lives in the loopback arm; TCP pins the codec.
            let _ = serve_listener_with(&listener, true, kpm_shard::inventory::DEFAULT_ROW_CAP);
        });
        Endpoint::connect_tcp(&addr).expect("connect")
    } else {
        let (coord, worker) = loopback_pair(&format!("fleet-prop-{i}"));
        std::thread::spawn(move || serve_endpoint_with(worker, fault));
        coord
    }
}

/// The single-process reference: full realization range computed and
/// merged in-process (itself pinned bitwise to the estimator pipelines by
/// `kpm_shard::job`'s unit tests).
fn reference(line: &str) -> MergedMoments {
    let job = ShardJob::parse(line).expect("parse");
    let rows = job.compute_partial(0..job.total_units()).expect("reference rows");
    job.merge(&rows).expect("reference merge")
}

fn assert_bitwise(got: &MergedMoments, want: &MergedMoments, what: &str) {
    match (got, want) {
        (MergedMoments::Stats(a), MergedMoments::Stats(b)) => {
            assert_eq!(a.mean, b.mean, "{what}: mean must be bitwise identical");
            assert_eq!(a.std_err, b.std_err, "{what}: std_err must be bitwise identical");
        }
        (MergedMoments::Double(a), MergedMoments::Double(b)) => {
            assert_eq!(a.mu, b.mu, "{what}: mu_nm must be bitwise identical");
        }
        _ => panic!("{what}: merged moment kinds disagree"),
    }
}

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn fresh_journal_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "kpm-fleet-prop-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The satellite property: random jobs (with duplicates, so warm-row
    /// routing and stealing engage), a random fault on one worker, a
    /// mid-run join, one coordinator kill mid-merge, and a journal replay
    /// — every job bitwise equal to single-process, over loopback and TCP.
    #[test]
    fn joins_leaves_steals_and_one_kill_replay_stay_bitwise(
        sites in 24usize..48,
        moments in 8usize..20,
        seeds in proptest::collection::vec(0u64..100, 2..4),
        fault_kind in 0u8..3,
        kill_after in 1usize..6,
        tcp in any::<bool>(),
    ) {
        let lines: Vec<String> = seeds
            .iter()
            .map(|s| format!("dos lattice=chain:{sites} moments={moments} random=2 sets=2 seed={s}"))
            .collect();
        // Duplicate the first spec so the second submission exercises
        // journal prefill and warm-row placement.
        let mut lines = lines;
        lines.push(lines[0].clone());
        let refs: Vec<MergedMoments> = lines.iter().map(|l| reference(l)).collect();
        let fault = match fault_kind {
            0 => None,
            1 => Some(WorkerFault::DieAfterRequests(1)),
            _ => Some(WorkerFault::HangAfterRequests(1)),
        };
        let dir = fresh_journal_dir();

        // Phase 1: a coordinator that crashes (kill injection) after
        // `kill_after` journaled results, workers carrying the fault.
        {
            let endpoints = vec![
                spawn_worker(0, fault, tcp),
                spawn_worker(1, None, tcp),
            ];
            let policy = FleetPolicy { kill_after_results: Some(kill_after), ..fast_policy() };
            let fleet = Fleet::start(endpoints, policy, Some(&dir)).expect("fleet 1");
            let client = fleet.client();
            let rxs: Vec<_> =
                lines.iter().map(|l| client.submit_async(l).expect("submit")).collect();
            // Whatever finished before the kill must already be bitwise
            // right; the rest died with the coordinator.
            for (rx, want) in rxs.iter().zip(&refs) {
                match rx.recv() {
                    Ok(Ok(merged)) => assert_bitwise(&merged, want, "pre-kill job"),
                    Ok(Err(e)) => panic!("phase-1 job failed: {e}"),
                    Err(_) => {} // killed mid-flight — resumed below
                }
            }
            drop(fleet);
        }

        // Phase 2: a restarted coordinator on the same journal, a single
        // fresh worker at start, one more joining mid-run (the join/leave
        // interleaving), resubmitting every job.
        {
            let fleet = Fleet::start(
                vec![spawn_worker(2, None, tcp)],
                fast_policy(),
                Some(&dir),
            ).expect("fleet 2");
            let client = fleet.client();
            let rxs: Vec<_> =
                lines.iter().map(|l| client.submit_async(l).expect("resubmit")).collect();
            fleet.join_worker(spawn_worker(3, None, tcp)).expect("join");
            for (rx, want) in rxs.iter().zip(&refs) {
                let merged = rx.recv().expect("scheduler alive").expect("job succeeds");
                assert_bitwise(&merged, want, "post-replay job");
            }
            let stats = fleet.shutdown().expect("stats");
            prop_assert!(
                stats.replayed_rows > 0,
                "kill after {kill_after} results must leave journal rows; stats {stats:?}"
            );
            prop_assert!(stats.workers_joined >= 2);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A workerless fleet fails jobs with `NoWorkers` after the grace period
/// instead of hanging — the terminal leave case the property above never
/// reaches (its workers revive).
#[test]
fn all_workers_leaving_fails_pending_jobs() {
    let policy = FleetPolicy { no_worker_grace: Duration::from_millis(300), ..fast_policy() };
    let fleet = Fleet::start(
        vec![spawn_worker(0, Some(WorkerFault::DieAfterRequests(0)), false)],
        policy,
        None,
    )
    .expect("fleet");
    match fleet.client().submit("dos lattice=chain:32 moments=12 random=2 sets=2 seed=5") {
        Err(FleetError::NoWorkers { .. }) => {}
        other => panic!("expected NoWorkers, got {other:?}"),
    }
    drop(fleet);
}

/// Kubo jobs (matrix-valued rows, exact-order reuse only) survive the
/// kill-and-replay path bitwise too.
#[test]
fn kubo_kill_and_replay_is_bitwise() {
    let line = "kubo lattice=chain:24 moments=8 random=2 sets=2 seed=13";
    let want = reference(line);
    let dir = fresh_journal_dir();
    {
        let policy = FleetPolicy { kill_after_results: Some(1), ..fast_policy() };
        let fleet =
            Fleet::start(vec![spawn_worker(0, None, false)], policy, Some(&dir)).expect("fleet");
        let rx = fleet.client().submit_async(line).expect("submit");
        assert!(rx.recv().is_err(), "killed coordinator must not answer");
        drop(fleet);
    }
    let fleet = Fleet::start(
        vec![spawn_worker(1, None, false), spawn_worker(2, None, false)],
        fast_policy(),
        Some(&dir),
    )
    .expect("fleet 2");
    let merged = fleet.client().submit(line).expect("job succeeds");
    assert_bitwise(&merged, &want, "kubo replay");
    let stats = fleet.shutdown().expect("stats");
    assert!(stats.replayed_rows > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

//! One-job sharded runs: a fleet scheduler started for one job and
//! stopped after it.
//!
//! [`run`] partitions a job's realization units into deterministic shards
//! ([`kpm::shard_plan`]), dispatches them to workers over any
//! [`Endpoint`]s through the fleet scheduler ([`crate::scheduler`]), and
//! merges the returned per-realization rows in canonical order — so the
//! merged moments are bitwise identical to a single-process run no matter
//! how many workers, how the shards were split, or which workers died
//! along the way. The scheduler's fault model applies unchanged. A
//! one-job fleet runs with locality off and no journal, and since it can
//! never gain a worker, it fails as soon as the last one dies.

use crate::error::{FleetError, ShardError};
use crate::job::{MergedMoments, ShardJob};
use crate::scheduler::{Fleet, FleetPolicy};
use crate::transport::Endpoint;
use std::time::Duration;

/// Runs `job` across `endpoints` in `policy.shards_per_job` shards, under
/// `policy`'s heartbeat, retry and speculation settings; returns moments
/// bitwise identical to the single-process pipeline.
///
/// # Errors
/// [`ShardError::Job`] for an invalid job or empty worker list,
/// [`ShardError::AllWorkersDead`] when no worker survives,
/// [`ShardError::ShardFailed`] when one shard exhausts its attempts, and
/// [`ShardError::Worker`]/[`ShardError::Protocol`] for deterministic
/// worker failures.
pub fn run(
    job: &ShardJob,
    endpoints: Vec<Endpoint>,
    policy: &FleetPolicy,
) -> Result<MergedMoments, ShardError> {
    job.validate()?;
    if endpoints.is_empty() {
        return Err(ShardError::Job("a distributed run needs at least one worker".into()));
    }
    let _span = kpm_obs::span("shard.run");
    let policy = FleetPolicy { locality: false, no_worker_grace: Duration::ZERO, ..*policy };
    let fleet = Fleet::start(endpoints, policy, None).map_err(into_shard_error)?;
    fleet.client().submit(&job.canonical()).map_err(into_shard_error)
}

fn into_shard_error(e: FleetError) -> ShardError {
    match e {
        FleetError::Shard(e) => e,
        FleetError::Job(msg) => ShardError::Job(msg),
        FleetError::NoWorkers { pending, last_loss } => {
            ShardError::AllWorkersDead { pending, last_loss }
        }
        // No journal here: the scheduler failed to start or stopped.
        other @ (FleetError::Journal(_) | FleetError::Stopped) => ShardError::Io(other.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::loopback_pair;
    use crate::wire::Frame;
    use crate::worker::{serve_endpoint_with, WorkerFault};
    use kpm_serve::worker::compute_raw_moments;
    use kpm_serve::JobSpec;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    fn spawn_workers(faults: &[Option<WorkerFault>]) -> Vec<Endpoint> {
        faults
            .iter()
            .enumerate()
            .map(|(i, fault)| {
                let (coord, worker) = loopback_pair(&format!("local-{i}"));
                let fault = *fault;
                std::thread::Builder::new()
                    .name(format!("kpm-shard-local-{i}"))
                    .spawn(move || serve_endpoint_with(worker, fault))
                    .expect("spawn local worker");
                coord
            })
            .collect()
    }

    /// Two shards per worker, with quick heartbeats.
    fn fast_policy(workers: usize) -> FleetPolicy {
        FleetPolicy {
            shards_per_job: 2 * workers,
            heartbeat_interval: Duration::from_millis(50),
            heartbeat_timeout: Duration::from_millis(600),
            backoff_base: Duration::from_millis(5),
            ..FleetPolicy::default()
        }
    }

    const LINE: &str = "lattice=chain:48 moments=16 random=3 sets=2 seed=11";

    fn reference_mean() -> Vec<f64> {
        compute_raw_moments(&JobSpec::parse(LINE).unwrap(), 0).unwrap().0.mean
    }

    #[test]
    fn distributed_run_is_bitwise_identical_for_any_worker_count() {
        let job = ShardJob::parse(&format!("dos {LINE}")).unwrap();
        let reference = reference_mean();
        for n in [1usize, 2, 4] {
            let endpoints = spawn_workers(&vec![None; n]);
            let merged = run(&job, endpoints, &fast_policy(n)).unwrap();
            let stats = merged.into_stats().unwrap();
            assert_eq!(stats.mean, reference, "{n} workers must match single-process bitwise");
        }
    }

    #[test]
    fn run_survives_a_worker_dying_mid_job_with_identical_bytes() {
        let job = ShardJob::parse(&format!("dos {LINE}")).unwrap();
        let endpoints = spawn_workers(&[Some(WorkerFault::DieAfterRequests(1)), None, None]);
        let merged = run(&job, endpoints, &fast_policy(3)).unwrap();
        assert_eq!(merged.into_stats().unwrap().mean, reference_mean());
    }

    #[test]
    fn run_survives_a_hung_worker_via_heartbeat_timeout() {
        let job = ShardJob::parse(&format!("dos {LINE}")).unwrap();
        let endpoints = spawn_workers(&[Some(WorkerFault::HangAfterRequests(0)), None]);
        let merged = run(&job, endpoints, &fast_policy(2)).unwrap();
        assert_eq!(merged.into_stats().unwrap().mean, reference_mean());
    }

    /// A one-job run can never gain a worker, so it fails as soon as the
    /// last one dies, whatever grace the policy gives a fleet.
    #[test]
    fn all_workers_dead_is_reported() {
        let job = ShardJob::parse(&format!("dos {LINE}")).unwrap();
        let endpoints = spawn_workers(&[
            Some(WorkerFault::DieAfterRequests(0)),
            Some(WorkerFault::DieAfterRequests(0)),
        ]);
        let policy = FleetPolicy { no_worker_grace: Duration::from_secs(3600), ..fast_policy(2) };
        match run(&job, endpoints, &policy) {
            Err(ShardError::AllWorkersDead { pending, .. }) => assert!(pending > 0),
            other => panic!("expected AllWorkersDead, got {other:?}"),
        }
    }

    #[test]
    fn deterministic_worker_error_aborts_the_run() {
        // A worker that reports an error for every request (a real worker
        // only does this for deterministic compute failures, which retry
        // cannot fix — so the run must abort, not reassign).
        let (coord, worker) = loopback_pair("broken");
        std::thread::spawn(move || {
            let mut worker = worker;
            while let Ok(Some(frame)) = worker.rx.recv_timeout(Duration::from_secs(10)) {
                match frame {
                    Frame::RequestRef { job, shard, .. } => {
                        let reply = Frame::WorkerError {
                            job,
                            shard,
                            message: "kpm: degenerate spectrum".into(),
                        };
                        let _ = worker.tx.send(&reply);
                    }
                    Frame::Ping { nonce } => {
                        let _ = worker.tx.send(&Frame::Pong { nonce });
                    }
                    Frame::Shutdown => break,
                    _ => {}
                }
            }
        });
        let job = ShardJob::parse(&format!("dos {LINE}")).unwrap();
        match run(&job, vec![coord], &fast_policy(1)) {
            Err(ShardError::Worker { message, .. }) => {
                assert!(message.contains("degenerate"), "{message}");
            }
            other => panic!("expected ShardError::Worker, got {other:?}"),
        }
    }

    #[test]
    fn spec_is_announced_once_per_worker_for_many_shards() {
        use std::sync::atomic::AtomicUsize;
        let announces = Arc::new(AtomicUsize::new(0));
        let (coord, worker) = loopback_pair("counting");
        let count = Arc::clone(&announces);
        std::thread::spawn(move || {
            let mut worker = worker;
            let mut specs: std::collections::HashMap<u64, ShardJob> = Default::default();
            while let Ok(Some(frame)) = worker.rx.recv_timeout(Duration::from_secs(10)) {
                match frame {
                    Frame::SpecAnnounce { job, spec } => {
                        count.fetch_add(1, Ordering::SeqCst);
                        specs.insert(job, ShardJob::parse(&spec).unwrap());
                    }
                    Frame::RequestRef { job, shard, start, end } => {
                        let rows =
                            specs[&job].compute_partial(start as usize..end as usize).unwrap();
                        let reply = Frame::Result(crate::wire::ShardResult { job, shard, rows });
                        let _ = worker.tx.send(&reply);
                    }
                    Frame::Ping { nonce } => {
                        let _ = worker.tx.send(&Frame::Pong { nonce });
                    }
                    Frame::Shutdown => break,
                    _ => {}
                }
            }
        });
        let job = ShardJob::parse(&format!("dos {LINE}")).unwrap();
        let merged = run(&job, vec![coord], &fast_policy(1)).unwrap();
        assert_eq!(merged.into_stats().unwrap().mean, reference_mean());
        // Two shards were dispatched (2 shards per worker), one announce.
        assert_eq!(announces.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn empty_worker_list_is_rejected() {
        let job = ShardJob::parse(&format!("dos {LINE}")).unwrap();
        assert!(matches!(run(&job, Vec::new(), &FleetPolicy::default()), Err(ShardError::Job(_))));
    }

    #[test]
    fn ldos_and_kubo_jobs_run_distributed_bitwise() {
        let ldos = ShardJob::parse("ldos:5 lattice=chain:32 moments=16").unwrap();
        let merged = run(&ldos, spawn_workers(&[None, None]), &fast_policy(2)).unwrap();
        let direct = ldos.compute_partial(0..1).unwrap();
        assert_eq!(merged.into_stats().unwrap().mean, direct[0]);

        let kubo = ShardJob::parse("kubo lattice=chain:16 moments=6 random=2 sets=2").unwrap();
        let merged = run(&kubo, spawn_workers(&[None, None, None]), &fast_policy(3)).unwrap();
        let mut rows = Vec::new();
        for range in kpm::shard_plan(kubo.total_units(), 1) {
            rows.extend(kubo.compute_partial(range).unwrap());
        }
        let direct = kubo.merge(&rows).unwrap().into_double().unwrap();
        assert_eq!(merged.into_double().unwrap().mu, direct.mu);
    }
}

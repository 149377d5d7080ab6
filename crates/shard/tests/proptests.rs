//! Property tests for the distributed guarantee: for *any* worker count,
//! shard split, or injected failure, the merged moments are bitwise
//! identical to a single-process run with the same seed.
//!
//! Sharded runs go through the full public stack — loopback endpoints
//! carrying real wire frames, the fault-tolerant coordinator, the exact
//! merge — so these properties cover the codec and scheduling layers, not
//! just the arithmetic.

use kpm_serve::job::JobSpec;
use kpm_serve::worker::compute_raw_moments;
use kpm_shard::worker::serve_endpoint_with;
use kpm_shard::{
    loopback_pair, run, serve_endpoint, FleetPolicy, MergedMoments, ShardJob, WorkerFault,
};
use proptest::prelude::*;
use std::time::Duration;

/// `shards_per_worker` shards for each of `workers` workers, with quick
/// heartbeats so fault paths resolve in test time.
fn fast_policy(workers: usize, shards_per_worker: usize) -> FleetPolicy {
    FleetPolicy {
        shards_per_job: workers * shards_per_worker,
        heartbeat_interval: Duration::from_millis(50),
        heartbeat_timeout: Duration::from_millis(600),
        backoff_base: Duration::from_millis(5),
        ..FleetPolicy::default()
    }
}

/// Runs `job` over `workers` loopback workers, one of them optionally
/// carrying an injected fault.
fn run_sharded(
    job: &ShardJob,
    workers: usize,
    policy: &FleetPolicy,
    fault: Option<WorkerFault>,
) -> MergedMoments {
    let mut endpoints = Vec::new();
    let mut handles = Vec::new();
    for i in 0..workers {
        let (coord, worker) = loopback_pair(&format!("prop-{i}"));
        endpoints.push(coord);
        let worker_fault = if i == 0 { fault } else { None };
        handles.push(std::thread::spawn(move || match worker_fault {
            Some(f) => serve_endpoint_with(worker, Some(f)),
            None => serve_endpoint(worker),
        }));
    }
    let merged = run(job, endpoints, policy).expect("sharded run");
    for h in handles {
        let _ = h.join();
    }
    merged
}

/// The single-process reference rows: the full realization range computed
/// and merged in-process (pinned bitwise to the real estimator pipelines by
/// the unit tests in `kpm_shard::job`).
fn reference(job: &ShardJob) -> MergedMoments {
    let rows = job.compute_partial(0..job.total_units()).expect("reference rows");
    job.merge(&rows).expect("reference merge")
}

fn assert_stats_equal(sharded: MergedMoments, reference: MergedMoments, what: &str) {
    match (sharded, reference) {
        (MergedMoments::Stats(a), MergedMoments::Stats(b)) => {
            assert_eq!(a.mean, b.mean, "{what}: mean must be bitwise identical");
            assert_eq!(a.std_err, b.std_err, "{what}: std_err must be bitwise identical");
            assert_eq!(a.samples, b.samples, "{what}: sample count");
        }
        (MergedMoments::Double(a), MergedMoments::Double(b)) => {
            assert_eq!(a.order, b.order, "{what}: moment order");
            assert_eq!(a.mu, b.mu, "{what}: mu_nm must be bitwise identical");
        }
        _ => panic!("{what}: merged moment kinds disagree"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// DoS over random lattice sizes, worker counts, and shard splits is
    /// bitwise equal to `compute_raw_moments` — the exact code path an
    /// unsharded `kpm dos` / serve job runs.
    #[test]
    fn dos_any_split_matches_single_process(
        sites in 8usize..48,
        moments in 8usize..32,
        workers in 1usize..5,
        shards_per_worker in 1usize..4,
        seed in 0u64..1000,
    ) {
        let line = format!("lattice=chain:{sites} moments={moments} random=2 sets=2 seed={seed}");
        let spec = JobSpec::parse(&line).unwrap();
        let (direct, ..) = compute_raw_moments(&spec, 0).unwrap();
        let job = ShardJob::Dos(spec);
        let merged = run_sharded(&job, workers, &fast_policy(workers, shards_per_worker), None);
        let MergedMoments::Stats(stats) = merged else { panic!("dos merges to stats") };
        prop_assert_eq!(stats.mean, direct.mean);
        prop_assert_eq!(stats.std_err, direct.std_err);
    }

    /// LDoS and Kubo across random splits match their single-process rows.
    #[test]
    fn ldos_and_kubo_any_split_match_single_process(
        sites in 8usize..32,
        moments in 4usize..12,
        workers in 1usize..4,
        shards_per_worker in 1usize..4,
        seed in 0u64..1000,
    ) {
        let ldos = ShardJob::parse(&format!(
            "ldos:3 lattice=chain:{sites} moments={moments} random=2 sets=1 seed={seed}"
        )).unwrap();
        let kubo = ShardJob::parse(&format!(
            "kubo lattice=chain:{sites} moments={moments} random=2 sets=2 seed={seed}"
        )).unwrap();
        for job in [ldos, kubo] {
            let merged = run_sharded(&job, workers, &fast_policy(workers, shards_per_worker), None);
            assert_stats_equal(merged, reference(&job), "random split");
        }
    }

    /// Fault injection: worker 0 dies after a random number of served
    /// shards; the survivors absorb the lost work and the result is still
    /// bitwise identical.
    #[test]
    fn killed_worker_converges_to_identical_bytes(
        served_before_death in 0usize..3,
        workers in 2usize..4,
        seed in 0u64..1000,
    ) {
        let line = format!("lattice=chain:40 moments=16 random=3 sets=2 seed={seed}");
        let spec = JobSpec::parse(&line).unwrap();
        let (direct, ..) = compute_raw_moments(&spec, 0).unwrap();
        let job = ShardJob::Dos(spec);
        let merged = run_sharded(
            &job,
            workers,
            &fast_policy(workers, 2),
            Some(WorkerFault::DieAfterRequests(served_before_death)),
        );
        let MergedMoments::Stats(stats) = merged else { panic!("dos merges to stats") };
        prop_assert_eq!(stats.mean, direct.mean, "death must not change the moments");
        prop_assert_eq!(stats.std_err, direct.std_err);
    }
}

/// A hung (silent but connected) worker is detected by heartbeat timeout
/// and its shards rerun elsewhere, bitwise identically.
#[test]
fn hung_worker_converges_to_identical_bytes() {
    let spec = JobSpec::parse("lattice=chain:40 moments=16 random=3 sets=2 seed=17").unwrap();
    let (direct, ..) = compute_raw_moments(&spec, 0).unwrap();
    let job = ShardJob::Dos(spec);
    let merged = run_sharded(&job, 2, &fast_policy(2, 2), Some(WorkerFault::HangAfterRequests(1)));
    let MergedMoments::Stats(stats) = merged else { panic!("dos merges to stats") };
    assert_eq!(stats.mean, direct.mean);
    assert_eq!(stats.std_err, direct.std_err);
}

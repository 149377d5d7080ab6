//! The distributed compute path, pluggable into `kpm-serve` behind its
//! [`MomentEngine`] hook: [`ShardedEngine`] runs each job as a one-job
//! fleet over its worker set, [`FleetEngine`] submits to a running
//! [`crate::Fleet`].
//!
//! [`ShardedEngine`] owns a worker set — `--local-workers N` spawns
//! in-process loopback workers per run; `--workers a,b,...` connects to
//! remote TCP workers per run. Either engine produces moments bitwise
//! identical to the local pipeline, so cached results from sharded and
//! unsharded runs are interchangeable, and `kpm fleet` outputs stay
//! byte-identical to `kpm batch`.

use crate::coordinator;
use crate::error::ShardError;
use crate::job::{MergedMoments, ShardJob};
use crate::scheduler::{FleetClient, FleetPolicy};
use crate::transport::{loopback_pair, Endpoint};
use crate::worker::serve_endpoint;
use kpm_serve::worker::compute_raw_moments;
use kpm_serve::{Backend, JobError, JobSpec, MomentEngine};
use std::fmt::Display;

/// Shards per worker in a one-job run (> 1 keeps reassignment granular).
const SHARDS_PER_WORKER: usize = 2;

/// Where shard workers come from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerSet {
    /// Spawn this many in-process loopback workers per run.
    Local(usize),
    /// Connect to these TCP worker addresses per run.
    Tcp(Vec<String>),
}

/// Runs each job as a one-job fleet over its worker set.
#[derive(Debug, Clone)]
pub struct ShardedEngine {
    workers: WorkerSet,
}

impl ShardedEngine {
    /// An engine over `n` in-process loopback workers (minimum 1).
    pub fn local(n: usize) -> Self {
        Self { workers: WorkerSet::Local(n.max(1)) }
    }

    /// An engine over remote TCP workers.
    pub fn tcp(addrs: Vec<String>) -> Self {
        Self { workers: WorkerSet::Tcp(addrs) }
    }

    /// The configured worker set.
    pub fn workers(&self) -> &WorkerSet {
        &self.workers
    }

    /// Runs one job across the worker set, two shards per worker.
    ///
    /// # Errors
    /// [`ShardError`] from connection setup or the run.
    pub fn run_job(&self, job: &ShardJob) -> Result<MergedMoments, ShardError> {
        let policy = |workers: usize| FleetPolicy {
            shards_per_job: SHARDS_PER_WORKER * workers,
            ..FleetPolicy::default()
        };
        match &self.workers {
            WorkerSet::Tcp(addrs) => {
                if addrs.is_empty() {
                    return Err(ShardError::Job("no worker addresses configured".into()));
                }
                let endpoints = addrs
                    .iter()
                    .map(|a| Endpoint::connect_tcp(a))
                    .collect::<Result<Vec<_>, _>>()?;
                coordinator::run(job, endpoints, &policy(addrs.len()))
            }
            WorkerSet::Local(n) => {
                let mut endpoints = Vec::with_capacity(*n);
                let mut handles = Vec::with_capacity(*n);
                for i in 0..*n {
                    let (coord, worker) = loopback_pair(&format!("local-{i}"));
                    endpoints.push(coord);
                    handles.push(
                        std::thread::Builder::new()
                            .name(format!("kpm-shard-local-{i}"))
                            .spawn(move || serve_endpoint(worker))
                            .map_err(|e| ShardError::Io(e.to_string()))?,
                    );
                }
                let result = coordinator::run(job, endpoints, &policy(*n));
                // The fleet has shut the workers down (or dropped their
                // endpoints); joining just reaps the threads.
                for h in handles {
                    let _ = h.join();
                }
                result
            }
        }
    }
}

impl MomentEngine for ShardedEngine {
    /// Serves a DoS job from a one-job fleet over the worker set.
    fn compute(
        &self,
        spec: &JobSpec,
        attempt: u32,
    ) -> Result<(kpm::MomentStats, f64, f64), JobError> {
        compute_dos(spec, attempt, "shard", |job| self.run_job(job))
    }
}

/// Submits serve jobs to a running [`crate::Fleet`].
#[derive(Clone)]
pub struct FleetEngine {
    client: FleetClient,
}

impl FleetEngine {
    /// An engine backed by `client`'s fleet.
    pub fn new(client: FleetClient) -> Self {
        Self { client }
    }
}

impl MomentEngine for FleetEngine {
    /// Serves a DoS job from the fleet.
    fn compute(
        &self,
        spec: &JobSpec,
        attempt: u32,
    ) -> Result<(kpm::MomentStats, f64, f64), JobError> {
        compute_dos(spec, attempt, "fleet", |job| self.client.submit(&job.canonical()))
    }
}

/// Serves a DoS job through `run`, with its errors rendered as
/// `"{label}: {error}"`. Non-CPU backends and fault-injected specs are not
/// shardable and fall back to the local pipeline, preserving serve's
/// semantics for them.
fn compute_dos<E: Display>(
    spec: &JobSpec,
    attempt: u32,
    label: &str,
    run: impl FnOnce(&ShardJob) -> Result<MergedMoments, E>,
) -> Result<(kpm::MomentStats, f64, f64), JobError> {
    if spec.backend != Backend::Cpu || spec.fault.is_some() {
        return compute_raw_moments(spec, attempt);
    }
    let mut clean = spec.clone();
    clean.out = None; // output is serve's concern, not the workers'
    let job = ShardJob::Dos(clean);
    let engine_err = |e: &dyn Display| JobError::Engine(format!("{label}: {e}"));
    let (a_plus, a_minus) = job.bounds().map_err(|e| engine_err(&e))?;
    let stats =
        run(&job).map_err(|e| engine_err(&e))?.into_stats().expect("dos jobs merge to stats");
    Ok((stats, a_plus, a_minus))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::Fleet;

    fn local_fleet(n: usize) -> Fleet {
        let endpoints = (0..n)
            .map(|i| {
                let (coord, worker) = loopback_pair(&format!("engine-local-{i}"));
                std::thread::spawn(move || serve_endpoint(worker));
                coord
            })
            .collect();
        Fleet::start(endpoints, FleetPolicy::default(), None).unwrap()
    }

    const LINE: &str = "lattice=chain:40 moments=12 random=2 sets=2 seed=3";

    #[test]
    fn engine_matches_local_pipeline_bitwise() {
        let spec = JobSpec::parse(LINE).unwrap();
        let (direct, a_plus, a_minus) = compute_raw_moments(&spec, 0).unwrap();
        for engine in [ShardedEngine::local(1), ShardedEngine::local(3)] {
            let (stats, ap, am) = engine.compute(&spec, 0).unwrap();
            assert_eq!(stats.mean, direct.mean);
            assert_eq!(stats.std_err, direct.std_err);
            assert_eq!((ap, am), (a_plus, a_minus));
        }
    }

    #[test]
    fn stream_backend_falls_back_to_local_compute() {
        let spec =
            JobSpec::parse("lattice=chain:24 moments=8 random=2 sets=1 backend=stream").unwrap();
        let engine = ShardedEngine::local(2);
        let (via_engine, ..) = engine.compute(&spec, 0).unwrap();
        let (direct, ..) = compute_raw_moments(&spec, 0).unwrap();
        assert_eq!(via_engine.mean, direct.mean);
    }

    #[test]
    fn empty_tcp_worker_set_is_an_error() {
        let engine = ShardedEngine::tcp(Vec::new());
        let job = ShardJob::parse(&format!("dos {LINE}")).unwrap();
        assert!(matches!(engine.run_job(&job), Err(ShardError::Job(_))));
    }

    #[test]
    fn tcp_engine_runs_against_real_sockets() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            crate::worker::serve_listener(&listener, true).unwrap();
        });
        let spec = JobSpec::parse(LINE).unwrap();
        let (direct, ..) = compute_raw_moments(&spec, 0).unwrap();
        let (stats, ..) = ShardedEngine::tcp(vec![addr]).compute(&spec, 0).unwrap();
        assert_eq!(stats.mean, direct.mean);
        server.join().unwrap();
    }

    #[test]
    fn fleet_engine_matches_local_pipeline_bitwise() {
        let spec = JobSpec::parse(LINE).unwrap();
        let (direct, a_plus, a_minus) = compute_raw_moments(&spec, 0).unwrap();
        let fleet = local_fleet(2);
        let engine = FleetEngine::new(fleet.client());
        let (stats, ap, am) = engine.compute(&spec, 0).unwrap();
        assert_eq!(stats.mean, direct.mean);
        assert_eq!(stats.std_err, direct.std_err);
        assert_eq!((ap, am), (a_plus, a_minus));
        drop(fleet);
    }

    #[test]
    fn fleet_stream_backend_falls_back_to_local_compute() {
        let spec =
            JobSpec::parse("lattice=chain:24 moments=8 random=2 sets=1 backend=stream").unwrap();
        let fleet = local_fleet(1);
        let engine = FleetEngine::new(fleet.client());
        let (via_engine, ..) = engine.compute(&spec, 0).unwrap();
        let (direct, ..) = compute_raw_moments(&spec, 0).unwrap();
        assert_eq!(via_engine.mean, direct.mean);
        drop(fleet);
    }
}

//! The service-layer probe stack: a `BatchService` with one worker and a
//! memory-only cache, computing on a `FleetEngine` over loopback shard
//! workers. Jobs go through it one at a time, so every cache outcome and
//! fleet placement is deterministic.

use kpm_fleet::{Fleet, FleetEngine, FleetPolicy, FleetStats};
use kpm_serve::{
    BatchConfig, BatchReport, BatchService, CompletionHook, JobRecord, JobSpec, MomentEngine,
};
use kpm_shard::transport::loopback_pair;
use kpm_shard::worker::serve_endpoint;
use std::path::Path;
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Loopback shard workers in the fleet. At thread budget 1 each, busy
/// compute threads match the 2 cores of the reference host.
pub const FLEET_WORKERS: usize = 2;

/// A running probe stack.
pub struct ServiceStack {
    service: BatchService,
    fleet: Fleet,
    workers: Vec<JoinHandle<()>>,
    done: mpsc::Receiver<(JobRecord, Instant)>,
}

impl ServiceStack {
    /// Starts the shard workers, the fleet (journaling into `journal`, if
    /// given) and the service.
    ///
    /// # Errors
    /// A worker or the fleet failing to start.
    pub fn start(journal: Option<&Path>) -> Result<ServiceStack, String> {
        let mut workers = Vec::with_capacity(FLEET_WORKERS);
        let mut endpoints = Vec::with_capacity(FLEET_WORKERS);
        for i in 0..FLEET_WORKERS {
            let (coordinator, worker) = loopback_pair(&format!("perfbench-worker-{i}"));
            let handle = std::thread::Builder::new()
                .name(format!("perfbench-worker-{i}"))
                .spawn(move || serve_endpoint(worker))
                .map_err(|e| format!("spawn shard worker: {e}"))?;
            workers.push(handle);
            endpoints.push(coordinator);
        }
        let fleet = Fleet::start(endpoints, FleetPolicy::default(), journal)
            .map_err(|e| format!("start fleet: {e}"))?;
        let engine: Arc<dyn MomentEngine> = Arc::new(FleetEngine::new(fleet.client()));
        let (tx, done) = mpsc::channel();
        let tx = Mutex::new(tx);
        let hook: CompletionHook = Arc::new(move |record: &JobRecord| {
            if let Ok(tx) = tx.lock() {
                let _ = tx.send((record.clone(), Instant::now()));
            }
        });
        let config = BatchConfig { workers: 1, cache_dir: None, ..BatchConfig::default() };
        let service = BatchService::start_full(config, Some(engine), Some(hook));
        Ok(ServiceStack { service, fleet, workers, done })
    }

    /// Runs one job: its record and its latency from submit to the
    /// completion hook, ms.
    ///
    /// # Errors
    /// The service refusing the job or stopping before it completes.
    pub fn run(&self, spec: JobSpec) -> Result<(JobRecord, f64), String> {
        let submitted = Instant::now();
        self.service
            .submit(spec)
            .map_err(|full| format!("the service refused a job ({:?})", full.retry_after))?;
        let (record, at) = self.done.recv().map_err(|_| "the service stopped mid-job")?;
        Ok((record, at.duration_since(submitted).as_secs_f64() * 1e3))
    }

    /// The fleet's counters so far.
    ///
    /// # Errors
    /// The fleet has stopped.
    pub fn fleet_stats(&self) -> Result<FleetStats, String> {
        self.fleet.stats().map_err(|e| format!("fleet stats: {e}"))
    }

    /// Serve cache hits and misses so far, from `metrics_json()`.
    ///
    /// # Errors
    /// The document lacks either counter.
    pub fn cache_counters(&self) -> Result<(u64, u64), String> {
        let doc = kpm::obs::json::parse(&self.service.metrics_json())?;
        let counter = |name: &str| {
            doc.get("counters")
                .and_then(|c| c.get(name))
                .and_then(|v| v.as_u64())
                .ok_or_else(|| format!("the serve metrics lack {name}"))
        };
        Ok((counter("serve.cache.hits")?, counter("serve.cache.misses")?))
    }

    /// Stops the service, the fleet and its workers.
    ///
    /// # Errors
    /// The fleet stopped early, or a worker panicked.
    pub fn finish(self) -> Result<(BatchReport, FleetStats), String> {
        let report = self.service.finish();
        let stats = self.fleet.shutdown().ok_or("the fleet stopped before shutdown")?;
        for worker in self.workers {
            worker.join().map_err(|_| "a shard worker panicked")?;
        }
        Ok((report, stats))
    }
}

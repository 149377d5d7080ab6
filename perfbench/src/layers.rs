//! Per-layer metrics of a traced run.
//!
//! Each layer's figures come from the benchmark timing its own calls into
//! that layer's public functions on the workload's representative job,
//! plus the program's obs counters of the traced blocks of the timed phase.
//! The timed jobs bypass the serve, shard, fleet and net layers, so their
//! figures come from probes: the workload's service probe jobs through a
//! `BatchService` on a `FleetEngine` (the serve and fleet counters are
//! that stack's own), a sharded run, a journal, and an idle KPNT server.

use crate::gen::{JobStream, Rng, Workload};
use crate::host::{self, Triad};
use crate::probe::ServiceStack;
use crate::run::{same_bits, same_stats, PhaseResult};
use crate::stats;
use kpm::obs::{TraceHandle, TraceReport};
use kpm::prelude::*;
use kpm_fleet::{FleetPolicy, FleetStats, Journal};
use kpm_linalg::SparseMatrix;
use kpm_net::{protocol, Completion, NetClient, NetConfig, NetFrame, NetServer};
use kpm_serve::job::JobMatrix;
use kpm_serve::worker::compute_raw_moments;
use kpm_serve::{BatchConfig, JobOutcome, JobRecord, JobSpec};
use kpm_shard::wire::{self, Frame, ShardResult};
use kpm_shard::{ShardJob, ShardedEngine};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Per-layer metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// What the per-layer measurement works from.
pub struct Inputs<'a> {
    /// The run's workload.
    pub workload: Workload,
    /// The run's generator seed.
    pub seed: u64,
    /// The timed phase; its trace holds the traced blocks' obs counters.
    pub phase: &'a PhaseResult,
    /// The run's triad measurement.
    pub triad: &'a Triad,
}

/// The per-layer metrics and the probe jobs whose outputs were checked.
pub struct Probed {
    /// Every per-layer metric.
    pub values: Values,
    /// Service probe jobs run.
    pub jobs: usize,
    /// Service probe jobs that failed or gave wrong bits.
    pub failed: usize,
}

/// A cheap call is repeated while its calls so far took less than this.
const QUICK: Duration = Duration::from_millis(200);
/// Passes over one job's shards in the journal probe.
const JOURNAL_PASSES: usize = 3;
/// `Stats` round trips per RTT measurement.
const RTT_REPS: usize = 20;

/// Measures every per-layer metric; what each figure is made of goes to
/// `notes`.
///
/// # Errors
/// A layer call failing, or the timed phase carrying no trace.
pub fn measure(inp: &Inputs, notes: &mut Vec<String>) -> Result<Probed, String> {
    let line = JobStream::representative(inp.workload, inp.seed);
    let spec = JobSpec::parse(&line).map_err(|e| e.to_string())?;
    let JobMatrix::Sparse(h) = spec.build_matrix() else {
        return Err(format!("{line}: the probes need a lattice operator"));
    };
    let trace = inp.phase.trace.as_ref().ok_or("the timed phase recorded no trace")?;
    notes.push(format!("layer probes run: {line}"));
    let mut v = Values::new();
    lattice(&spec, &h, &mut v);
    linalg(&spec, &h, inp.triad, &mut v, notes);
    let moments = kpm_layers(&spec, &h, trace, inp.phase, &mut v, notes)?;
    drop(h);
    let (jobs, failed) = service_layers(inp, &mut v, notes)?;
    let rows = shard(&spec, &mut v)?;
    journal(&spec, &rows, &mut v)?;
    net(&line, &moments, &mut v)?;
    trace_overhead(inp.phase, &mut v, notes)?;
    Ok(Probed { values: v, jobs, failed })
}

/// Calls `f` at least `min` times, and again while the calls so far took
/// under `budget` (at most 1000 calls); returns the last result and the
/// median call time, ms.
fn sample<T>(min: usize, budget: Duration, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let start = Instant::now();
    loop {
        let t = Instant::now();
        let out = black_box(f());
        times.push(t.elapsed().as_secs_f64() * 1e3);
        if times.len() >= min && (times.len() >= 1000 || start.elapsed() >= budget) {
            return (out, stats::median(&times).unwrap_or(0.0));
        }
    }
}

fn counter(trace: &TraceReport, name: &str) -> f64 {
    trace.counter(name).unwrap_or(0) as f64
}

/// Operator storage, computed: CSR holds an f64 value and a usize column
/// index per entry, plus a usize row pointer per row.
fn op_bytes(h: &SparseMatrix) -> usize {
    let word = std::mem::size_of::<usize>();
    h.nnz() * (8 + word) + (h.dim() + 1) * word
}

fn lattice(spec: &JobSpec, h: &SparseMatrix, v: &mut Values) {
    let (_, assemble_ms) = sample(1, QUICK, || spec.build_matrix());
    v.insert("lattice.assemble_ms", assemble_ms);
    v.insert("lattice.op_bytes", op_bytes(h) as f64);
}

fn linalg(
    spec: &JobSpec,
    h: &SparseMatrix,
    triad: &Triad,
    v: &mut Values,
    notes: &mut Vec<String>,
) {
    let (d, r) = (h.dim(), spec.num_random);
    let mut rng = Rng::new(0x5eed);
    let x: Vec<f64> =
        (0..d * r).map(|_| if rng.next_u64() & 1 == 0 { 1.0 } else { -1.0 }).collect();
    let mut y = vec![0.0; d * r];
    let (_, spmm_ms) = sample(3, QUICK, || h.apply_block(&x, &mut y, r));
    let secs = spmm_ms * 1e-3;
    let spmm_bytes = op_bytes(h) + 2 * 8 * d * r;
    let spmm_gbps = spmm_bytes as f64 / secs / 1e9;
    v.insert("linalg.spmm_ms", spmm_ms);
    v.insert("linalg.spmm_gflops", 2.0 * (h.nnz() * r) as f64 / secs / 1e9);
    v.insert("linalg.spmm_gbps", spmm_gbps);
    let mut prev = x.clone();
    let (_, combine_ms) =
        sample(3, QUICK, || kpm_linalg::vecops::chebyshev_combine_dot(&y, &mut prev, &x));
    let combine_bytes = 4 * 8 * d * r;
    v.insert("linalg.combine_dot_gbps", combine_bytes as f64 / (combine_ms * 1e-3) / 1e9);
    v.insert("host.triad_gbps", triad.gbps);
    v.insert("linalg.roofline_frac", spmm_gbps / triad.gbps);
    notes.push(format!(
        "linalg bytes are computed, not counted: SpMM = CSR operator ({} B) + the {d}x{r} block \
         read and written once = {spmm_bytes} B; combine-dot = three {d}x{r} reads + one write = \
         {combine_bytes} B",
        op_bytes(h)
    ));
}

fn kpm_layers(
    spec: &JobSpec,
    h: &SparseMatrix,
    trace: &TraceReport,
    phase: &PhaseResult,
    v: &mut Values,
    notes: &mut Vec<String>,
) -> Result<MomentStats, String> {
    let params = spec.kpm_params();
    let err = |e: KpmError| e.to_string();

    // Bounds: `resolve` outside any operator-key scope never memoizes.
    let (bounds, bounds_ms) = sample(1, QUICK, || kpm::bounds::resolve(h, params.bounds));
    let bounds = bounds.map_err(err)?;
    v.insert("kpm.bounds_ms", bounds_ms);
    let jobs = phase.jobs.iter().filter(|j| j.traced).count().max(1) as f64;
    v.insert("kpm.bounds_probes_per_job", counter(trace, "kpm.bounds.probe") / jobs);

    // Moments at the full thread budget, traced for the executor's steals,
    // then at one thread.
    let rescaled = kpm::rescale::rescale(h, bounds, params.padding).map_err(err)?;
    let estimator = DosEstimator::new(params.clone());
    let workload_budget = kpm::exec::effective_threads();
    let nproc = host::nproc();
    kpm::exec::set_thread_budget(nproc);
    let handle = TraceHandle::begin();
    let (moments, moments_ms) = sample(1, QUICK, || estimator.moments(&rescaled));
    let parallel = handle.finish();
    kpm::exec::set_thread_budget(1);
    let (single, moments_1t_ms) = sample(1, QUICK, || estimator.moments(&rescaled));
    kpm::exec::set_thread_budget(workload_budget);
    let moments = moments.map_err(err)?;
    if !same_stats(&moments, &single.map_err(err)?) {
        return Err("kpm: one-thread moments differ from the parallel call".into());
    }
    v.insert("kpm.moments_ms", moments_ms);
    v.insert("kpm.moments_1t_ms", moments_1t_ms);
    v.insert("kpm.parallel_eff", moments_1t_ms / (moments_ms * nproc as f64));
    let (sweeps, steals) =
        (counter(&parallel, "kpm.spmm.sweeps"), counter(&parallel, "kpm.exec.steal"));
    v.insert("kpm.exec_steals_per_sweep", if sweeps > 0.0 { steals / sweeps } else { 0.0 });
    notes.push(format!(
        "kpm.moments_ms at thread budget {nproc} ({sweeps} sweeps, {steals} steals), \
         kpm.moments_1t_ms at 1; traced phase: {} bounds probes over {jobs} traced jobs",
        counter(trace, "kpm.bounds.probe")
    ));

    // The first-contact tune probe, on an empty store at the workload's budget.
    kpm::tune::store().clear_memory();
    let chunks = kpm::moments::realization_chunk_count(&params, 0..params.total_realizations());
    let (profile, tune_ms) = sample(1, Duration::ZERO, || kpm::tune::ensure_profile(h, chunks));
    v.insert("kpm.tune_probe_ms", tune_ms);
    v.insert("kpm.tune_tile_rows", profile.tile_rows as f64);

    let (a_plus, a_minus) = (rescaled.a_plus(), rescaled.a_minus());
    let (_, reconstruct_ms) =
        sample(3, QUICK, || estimator.reconstruct(moments.clone(), a_plus, a_minus));
    v.insert("kpm.reconstruct_ms", reconstruct_ms);
    Ok(moments)
}

/// The serve and fleet figures: the workload's service probe jobs, one at
/// a time, through a fresh probe stack at thread budget 1, its journal in
/// a fresh directory. Each result must equal `compute_raw_moments` on its
/// spec bit for bit, computed after the stack stops. Returns the probe
/// jobs run and how many failed.
fn service_layers(
    inp: &Inputs,
    v: &mut Values,
    notes: &mut Vec<String>,
) -> Result<(usize, usize), String> {
    let jobs = JobStream::service_probe(inp.workload, inp.seed);
    let specs = jobs
        .iter()
        .map(|j| JobSpec::parse(&j.line).map_err(|e| format!("{}: {e}", j.line)))
        .collect::<Result<Vec<_>, _>>()?;
    let dir = host::scratch_dir("probe-fleet-journal")?;
    let budget = kpm::exec::effective_threads();
    kpm::exec::set_thread_budget(1);
    kpm::bounds::clear_bounds_cache();
    let outcome = run_service_probe(&specs, &dir);
    kpm::exec::set_thread_budget(budget);
    std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    let ServiceRun { runs, cache: (hits, misses), fleet } = outcome?;

    let (mut waits, mut execs, mut failed) = (Vec::new(), Vec::new(), 0);
    for ((job, spec), (record, latency_ms)) in jobs.iter().zip(&specs).zip(&runs) {
        let JobOutcome::Completed(done) = &record.outcome else {
            failed += 1;
            notes.push(format!("service probe {}: {:?}", job.line, record.outcome));
            continue;
        };
        let exec = done.duration.as_secs_f64() * 1e3;
        execs.push(exec);
        waits.push(latency_ms - exec);
        notes.push(format!(
            "service probe {:?} {}: {:?}, {latency_ms} ms from submit, {exec} ms executing",
            job.kind, job.line, done.cache
        ));
        let matches = match compute_raw_moments(spec, 0) {
            Ok((stats, a_plus, a_minus)) => {
                same_stats(&stats, &done.moments)
                    && same_bits(&[a_plus, a_minus], &[done.a_plus, done.a_minus])
            }
            Err(e) => return Err(format!("{}: the reference failed: {e}", job.line)),
        };
        if !matches {
            failed += 1;
            notes.push(format!("service probe {}: bits differ from compute_raw_moments", job.line));
        }
    }
    v.insert("serve.queue_wait_ms_p50", stats::median(&waits).ok_or("no service probe completed")?);
    v.insert("serve.exec_ms_p50", stats::median(&execs).ok_or("no service probe completed")?);
    v.insert("serve.cache_hit_ratio", hits as f64 / (hits + misses).max(1) as f64);
    let placed =
        fleet.place_warm_rows + fleet.place_warm_op + fleet.place_warm_profile + fleet.place_cold;
    v.insert("fleet.warm_place_ratio", fleet.place_warm_rows as f64 / placed.max(1) as f64);
    v.insert("fleet.steals", fleet.steals as f64);
    v.insert(
        "fleet.journal_bytes_per_job",
        fleet.journal_bytes as f64 / fleet.jobs_completed.max(1) as f64,
    );
    notes.push(format!(
        "service probe: serve cache {hits} hits, {misses} misses; fleet {}",
        fleet.render_json()
    ));
    Ok((jobs.len(), failed))
}

/// What the service probe stack saw.
struct ServiceRun {
    /// Each job's record and its latency from submit, ms.
    runs: Vec<(JobRecord, f64)>,
    /// Serve cache hits and misses.
    cache: (u64, u64),
    /// Fleet counters at shutdown.
    fleet: FleetStats,
}

/// Runs `specs` one at a time through a probe stack journaling into
/// `journal`, which must start cold: no replayed rows, no cache traffic.
fn run_service_probe(specs: &[JobSpec], journal: &Path) -> Result<ServiceRun, String> {
    let stack = ServiceStack::start(Some(journal))?;
    let replayed = stack.fleet_stats()?.replayed_rows;
    if replayed != 0 {
        return Err(format!("the fresh journal replayed {replayed} rows"));
    }
    if stack.cache_counters()? != (0, 0) {
        return Err("the serve cache served before the first job".into());
    }
    let runs = specs.iter().map(|s| stack.run(s.clone())).collect::<Result<Vec<_>, _>>()?;
    let cache = stack.cache_counters()?;
    let (_, fleet) = stack.finish()?;
    Ok(ServiceRun { runs, cache, fleet })
}

fn shard(spec: &JobSpec, v: &mut Values) -> Result<Vec<Vec<f64>>, String> {
    let err = |e: kpm_shard::ShardError| e.to_string();
    let job = ShardJob::Dos(spec.clone());
    let plan = kpm::shard_plan(job.total_units(), FleetPolicy::default().shards_per_job);
    kpm::bounds::clear_bounds_cache();
    let (first, partial_ms) = sample(1, Duration::ZERO, || job.compute_partial(plan[0].clone()));
    let mut rows = first.map_err(err)?;
    let frame = Frame::Result(ShardResult { job: 1, shard: 0, rows: rows.clone() });
    let matrix = spec.build_matrix();
    for range in &plan[1..] {
        rows.extend(job.compute_partial_with(range.clone(), &matrix).map_err(err)?);
    }
    let (merged, merge_ms) = sample(3, QUICK, || job.merge(&rows));
    merged.map_err(err)?;
    let (decoded, codec_ms) = sample(3, QUICK, || wire::decode_bytes(&wire::encode(&frame)));
    if decoded.map_err(err)? != frame {
        return Err("a KPSH result frame did not round-trip".into());
    }
    // Two local workers at one thread each keep busy threads at 2.
    let budget = kpm::exec::effective_threads();
    kpm::exec::set_thread_budget(1);
    let (sharded, coordinator_ms) =
        sample(1, Duration::ZERO, || ShardedEngine::local(2).run_job(&job));
    kpm::exec::set_thread_budget(budget);
    sharded.map_err(err)?;
    v.insert("shard.partial_ms", partial_ms);
    v.insert("shard.codec_us", codec_ms * 1e3);
    v.insert("shard.frame_bytes", wire::encode(&frame).len() as f64);
    v.insert("shard.merge_us", merge_ms * 1e3);
    v.insert("shard.coordinator_ms", coordinator_ms);
    Ok(rows)
}

/// `Journal::record_rows` with fsync on a scratch journal: one job's
/// identity, then its rows shard by shard, as the fleet journals an
/// accepted job.
fn journal(spec: &JobSpec, rows: &[Vec<f64>], v: &mut Values) -> Result<(), String> {
    let err = |e: kpm_fleet::FleetError| e.to_string();
    let dir = host::scratch_dir("probe-journal")?;
    let (mut journal, _) = Journal::open(&dir).map_err(err)?;
    let line = ShardJob::Dos(spec.clone()).canonical();
    let hash = kpm::tune::fnv1a(line.as_bytes());
    journal.record_job(hash, &line).map_err(err)?;
    let plan = kpm::shard_plan(rows.len(), FleetPolicy::default().shards_per_job);
    let mut appends = Vec::new();
    for _ in 0..JOURNAL_PASSES {
        for range in &plan {
            let t = Instant::now();
            journal.record_rows(hash, range.start as u64, &rows[range.clone()]).map_err(err)?;
            appends.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    drop(journal);
    std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    v.insert("fleet.journal_append_ms", stats::median(&appends).unwrap_or(0.0));
    Ok(())
}

fn net(line: &str, moments: &MomentStats, v: &mut Values) -> Result<(), String> {
    let err = |e: kpm_net::NetError| e.to_string();
    let submit =
        NetFrame::Submit { stream: "s0".into(), tag: 1, spec: line.to_string(), refine_steps: 3 };
    let completion = NetFrame::Completion(Completion {
        stream: "s0".into(),
        seq: 0,
        tag: 1,
        step: 0,
        of: 1,
        n: moments.mean.len() as u32,
        samples: moments.samples as u64,
        a_plus: 0.0,
        a_minus: 1.0,
        integral: 1.0,
        peak_energy: 0.0,
        mean: moments.mean.clone(),
        std_err: moments.std_err.clone(),
    });
    let ((s, c), codec_ms) = sample(3, QUICK, || {
        let s = protocol::decode_bytes(&protocol::encode(&submit));
        let c = protocol::decode_bytes(&protocol::encode(&completion));
        (s, c)
    });
    if s.map_err(err)? != submit || c.map_err(err)? != completion {
        return Err("a KPNT frame did not round-trip".into());
    }
    v.insert("net.codec_us", codec_ms * 1e3);
    v.insert("net.stats_rtt_ms", stats_rtt_probe()?);
    Ok(())
}

/// The median `Stats` round trip on a live session of an idle server, ms:
/// framing and the session threads, no compute.
fn stats_rtt_probe() -> Result<f64, String> {
    let config = BatchConfig { workers: 1, cache_dir: None, ..BatchConfig::default() };
    let server = NetServer::start("127.0.0.1:0", config, None, NetConfig::default())
        .map_err(|e| e.to_string())?;
    let mut client =
        NetClient::connect(&server.local_addr().to_string()).map_err(|e| e.to_string())?;
    let rtt = stats_round_trips(&mut client);
    // Goodbye, then drain to the server's `Bye`.
    let closed = client.goodbye().map_err(|e| format!("goodbye: {e}")).and_then(|()| loop {
        match client.recv() {
            Ok(NetFrame::Bye) => break Ok(()),
            Ok(_) => {}
            Err(e) => break Err(format!("drain: {e}")),
        }
    });
    server.finish();
    closed?;
    rtt
}

fn stats_round_trips(client: &mut NetClient) -> Result<f64, String> {
    let mut times = Vec::with_capacity(RTT_REPS);
    for tag in 0..RTT_REPS as u64 {
        let t = Instant::now();
        client.stats(tag).map_err(|e| format!("stats: {e}"))?;
        loop {
            match client.recv().map_err(|e| format!("stats reply: {e}"))? {
                NetFrame::StatsReply { tag: got, .. } if got == tag => break,
                _ => {}
            }
        }
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    stats::median(&times).ok_or_else(|| "no stats round trips".into())
}

/// Traced against untraced blocks of the same timed phase: blocks hold
/// the same job mix, so the ratio of their median wall times is the cost
/// of tracing, free of drift between runs.
fn trace_overhead(
    phase: &PhaseResult,
    v: &mut Values,
    notes: &mut Vec<String>,
) -> Result<(), String> {
    let secs = |traced: bool| -> Vec<f64> {
        phase.blocks.iter().filter(|b| b.traced == traced).map(|b| b.secs).collect()
    };
    let (on, off) = (secs(true), secs(false));
    let median = |s: &[f64]| stats::median(s).ok_or("the phase has no traced or untraced block");
    let (on_s, off_s) = (median(&on)?, median(&off)?);
    v.insert("obs.trace_overhead_frac", on_s / off_s - 1.0);
    let jobs = phase.jobs.len() as f64 / phase.blocks.len() as f64;
    notes.push(format!(
        "obs.trace_overhead_frac: median block {on_s} s traced vs {off_s} s untraced over {} \
         blocks each; jobs_per_s {} traced, {} untraced",
        on.len(),
        jobs * on.len() as f64 / on.iter().sum::<f64>(),
        jobs * off.len() as f64 / off.iter().sum::<f64>(),
    ));
    Ok(())
}

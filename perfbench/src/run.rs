//! One benchmark run: set-up, a timed phase, and the metrics they yield.
//!
//! Every block of a timed phase starts from its own set-up. An untraced
//! run also sets the workload up several times before and after its phase
//! (the median of the quiet set-ups is `setup_s`) and reports the
//! end-to-end metrics. A traced run sets up once on its own, to count the
//! tune probe, runs one timed phase whose blocks alternate between
//! untraced and traced, and reports the per-layer metrics.

use crate::gen::{Class, JobStream, Workload};
use crate::host::{self, Triad};
use crate::inproc::InProcess;
use crate::layers;
use crate::probe;
use crate::report::{Report, END_TO_END, PER_LAYER};
use crate::stats;
use kpm::obs::{TraceHandle, TraceReport};
use kpm::MomentStats;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Set-ups before, and again after, the timed phase of an untraced run:
/// at least `SETUP_REPS`, then more while they took less than
/// `SETUP_BUDGET`, at most `SETUP_MAX_REPS`. With the set-ups of the
/// phase's blocks, sampling both ends of the phase gives the quiet
/// set-ups (`stats::quiet`), whose median is `setup_s`, more chances to
/// miss a spell of host contention.
pub const SETUP_REPS: usize = 5;
const SETUP_BUDGET: Duration = Duration::from_secs(1);
const SETUP_MAX_REPS: usize = 200;
/// DoS integrals must lie this close to 1.
pub const INTEGRAL_TOL: f64 = 1e-3;
/// Samples the tail percentile leaves above it.
pub const TAIL_BEYOND: usize = 10;
/// Failure reasons kept per phase.
const MAX_NOTES: usize = 8;
/// Timed passes per triad measurement.
const TRIAD_REPS: usize = 5;
/// A run that overstays this exits without a result, so a hung layer
/// cannot hold the caller past its 180-second limit.
const RUN_LIMIT: Duration = Duration::from_secs(170);

/// Command-line usage.
pub const USAGE: &str =
    "usage: perfbench --workload paper-lattice|anderson-48 --seed N [--seconds S] [--trace 0|1]";

/// One run's configuration, from the command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// The workload to run.
    pub workload: Workload,
    /// The generator seed.
    pub seed: u64,
    /// Length of each timed phase, s.
    pub seconds: f64,
    /// Report the per-layer metrics of a traced run instead of the
    /// end-to-end ones.
    pub trace: bool,
}

impl Config {
    /// Parses `--workload`, `--seed`, `--seconds` (default 10) and
    /// `--trace` (default 0).
    ///
    /// # Errors
    /// An unknown flag, a flag without a value, or a value that does not
    /// parse.
    pub fn from_args(args: &[String]) -> Result<Config, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10.0, false);
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.parse::<Workload>()?),
                "--seed" => {
                    let parsed = value.parse::<u64>();
                    seed =
                        Some(parsed.map_err(|_| format!("--seed {value}: expected an integer"))?);
                }
                "--seconds" => {
                    seconds = value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("--seconds {value}: expected a positive number"))?;
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace {value}: expected 0 or 1")),
                    };
                }
                other => return Err(format!("unknown flag '{other}'")),
            }
        }
        Ok(Config {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace,
        })
    }
}

/// One job's outcome in a timed phase.
#[derive(Debug, Clone, Copy)]
pub struct JobResult {
    /// The class the generator gave it.
    pub class: Class,
    /// Start to result, ms.
    pub latency_ms: f64,
    /// Process CPU time (user + system) spent meanwhile, s.
    pub cpu_s: f64,
    /// It completed and every check on its outputs passed.
    pub ok: bool,
    /// It ran in a traced block.
    pub traced: bool,
}

/// Wall time of one generator block of a timed phase.
#[derive(Debug, Clone, Copy)]
pub struct BlockTime {
    /// The block ran traced.
    pub traced: bool,
    /// Its wall time, s.
    pub secs: f64,
}

/// What one timed phase measured.
#[derive(Debug, Default)]
pub struct PhaseResult {
    /// Every job attempted, in order.
    pub jobs: Vec<JobResult>,
    /// Every block, in order.
    pub blocks: Vec<BlockTime>,
    /// Each block's set-up time, s.
    pub setup_s: Vec<f64>,
    /// Blocks by the profile their set-up's tuner picked.
    pub profiles: BTreeMap<String, usize>,
    /// Process peak RSS right after it, MiB.
    pub peak_rss_mib: f64,
    /// Why jobs failed (at most `MAX_NOTES`).
    pub notes: Vec<String>,
    /// The obs counters of the traced blocks, when blocks were traced.
    pub trace: Option<TraceReport>,
}

impl PhaseResult {
    /// Jobs that completed and passed every check.
    pub fn completed(&self) -> usize {
        self.jobs.iter().filter(|j| j.ok).count()
    }

    /// Jobs that did not.
    pub fn failed(&self) -> usize {
        self.jobs.len() - self.completed()
    }

    /// Records why a job failed; returns `false`, the job's verdict.
    pub fn fail(&mut self, why: String) -> bool {
        if self.notes.len() < MAX_NOTES {
            self.notes.push(why);
        }
        false
    }
}

/// Bitwise equality of two `f64` slices.
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Bitwise equality of two moment estimates.
pub fn same_stats(a: &MomentStats, b: &MomentStats) -> bool {
    a.samples == b.samples && same_bits(&a.mean, &b.mean) && same_bits(&a.std_err, &b.std_err)
}

/// Starts a set-up cold: empties the process-wide tune profiles and bounds
/// memo, and refuses a profile store that persists to disk, through which
/// one run's profiles would reach the next.
///
/// # Errors
/// The profile store is backed by a directory.
pub fn fresh_state() -> Result<(), String> {
    let store = kpm::tune::store();
    if let Some(dir) = store.dir() {
        return Err(format!("the profile store persists to {}", dir.display()));
    }
    store.clear_memory();
    kpm::bounds::clear_bounds_cache();
    Ok(())
}

/// Thread budget of set-up and the timed jobs. Threads of one job meet at
/// a spin barrier every sweep (about every 50 us on `paper-lattice`, every
/// few ms on `anderson-48`), so on a shared host a time slice lost on
/// either core stalls the job: at 2 threads, `paper-lattice` figures spread
/// past their bounds over ten runs, and in one trial a busy loop on one
/// core slowed `anderson-48` jobs by 47% (5% at one thread). At one
/// thread the scheduler moves the job to whichever core is free. Thread
/// scaling is the traced run's `kpm.moments_ms` at `nproc` and
/// `kpm.parallel_eff`.
pub const JOB_THREADS: usize = 1;

/// Ends the process if the run overstays `RUN_LIMIT`.
pub fn arm_watchdog() {
    // Detached on purpose: it outlives every run that ends in time, and
    // process exit ends it.
    std::thread::spawn(|| {
        std::thread::sleep(RUN_LIMIT);
        eprintln!("perfbench: the run passed {} s; exiting without a result", RUN_LIMIT.as_secs());
        std::process::exit(3);
    });
}

/// Runs the configured workload.
///
/// # Errors
/// A set-up or layer failure, or warm state where a run must start cold.
/// Wrong results are not errors: they count as failed jobs.
pub fn run(cfg: &Config) -> Result<Report, String> {
    kpm::exec::set_thread_budget(JOB_THREADS);
    let report = if cfg.trace { traced(cfg) } else { untraced(cfg) };
    host::remove_scratch_root();
    report
}

fn setup(cfg: &Config) -> Result<InProcess, String> {
    InProcess::setup(cfg.workload, &stream(cfg).next_job())
}

fn stream(cfg: &Config) -> JobStream {
    JobStream::new(cfg.workload, cfg.seed, 0)
}

/// Sets the workload up repeatedly (see `SETUP_REPS`); returns each
/// set-up's time, s.
fn setups(cfg: &Config) -> Result<Vec<f64>, String> {
    let mut setup_s = Vec::new();
    let start = Instant::now();
    while setup_s.len() < SETUP_REPS
        || (start.elapsed() < SETUP_BUDGET && setup_s.len() < SETUP_MAX_REPS)
    {
        let t = Instant::now();
        drop(setup(cfg)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    Ok(setup_s)
}

fn phase(cfg: &Config, interleave_trace: bool) -> Result<PhaseResult, String> {
    InProcess::run_phase(
        cfg.workload,
        || setup(cfg),
        &mut stream(cfg),
        cfg.seconds,
        interleave_trace,
    )
}

fn untraced(cfg: &Config) -> Result<Report, String> {
    let mut setup_s = setups(cfg)?;
    let phase = phase(cfg, false)?;
    // Attribution first: the set-ups after the phase replace its profiles.
    let mut notes = attribution(cfg, &measure_triad(), &phase);
    setup_s.extend(&phase.setup_s);
    setup_s.extend(setups(cfg)?);
    let quiet = stats::quiet(&setup_s);
    let kept: Vec<f64> = setup_s.iter().zip(&quiet).filter(|(_, k)| **k).map(|(s, _)| *s).collect();
    notes.push(format!(
        "setup_s is the median of the fastest {} of {} set-ups before, during (one per block) \
         and after the phase; median of all {}",
        kept.len(),
        setup_s.len(),
        stats::median(&setup_s).unwrap_or(0.0)
    ));
    let values = end_to_end(stats::median(&kept).unwrap_or(0.0), &phase, &mut notes);
    notes.extend(phase.notes.iter().cloned());
    Report::new(&END_TO_END, values, phase.jobs.len() as u64, phase.failed() as u64, notes)
}

fn traced(cfg: &Config) -> Result<Report, String> {
    // A set-up traced on its own, so the first-contact tune probe shows in
    // the counters.
    let handle = TraceHandle::begin();
    let ready = setup(cfg);
    let probes = handle.finish().counter("kpm.tune.probe").unwrap_or(0);
    if ready?.dim() >= kpm::exec::ROW_MIN_DIM && probes == 0 {
        return Err("the traced set-up recorded no kpm.tune.probe".into());
    }
    let phase = phase(cfg, true)?;
    let triad = measure_triad();
    let mut notes = attribution(cfg, &triad, &phase);
    let inputs =
        layers::Inputs { workload: cfg.workload, seed: cfg.seed, phase: &phase, triad: &triad };
    let probed = layers::measure(&inputs, &mut notes)?;
    notes.extend(phase.notes.iter().cloned());
    let attempted = phase.jobs.len() + probed.jobs;
    let failed = phase.failed() + probed.failed;
    Report::new(&PER_LAYER, probed.values, attempted as u64, failed as u64, notes)
}

/// The end-to-end metrics of an untraced phase; sample counts go to
/// `notes`. The job at one position of every block has the same cost, so
/// its timings there differ only by host noise: the timings cover the
/// quiet jobs of each position (`stats::quiet`), and the notes give the
/// figures over every job beside them. Jobs run back to back, so
/// `jobs_per_s` is the covered jobs over the time they took.
fn end_to_end(
    setup_s: f64,
    phase: &PhaseResult,
    notes: &mut Vec<String>,
) -> BTreeMap<&'static str, f64> {
    let slots = phase.jobs.len() / phase.blocks.len().max(1);
    let mut quiet = vec![false; phase.jobs.len()];
    for slot in 0..slots {
        let at: Vec<usize> = (slot..phase.jobs.len()).step_by(slots).collect();
        let ms: Vec<f64> = at.iter().map(|&i| phase.jobs[i].latency_ms).collect();
        for (&i, keep) in at.iter().zip(stats::quiet(&ms)) {
            quiet[i] = keep;
        }
    }
    let ok: Vec<&JobResult> =
        phase.jobs.iter().zip(&quiet).filter(|(j, q)| j.ok && **q).map(|(j, _)| j).collect();
    let latencies = |keep: &dyn Fn(&JobResult) -> bool| -> Vec<f64> {
        ok.iter().filter(|j| keep(j)).map(|j| j.latency_ms).collect()
    };
    let all = latencies(&|_| true);
    let fresh = latencies(&|j| j.class == Class::Fresh);
    let repeat = latencies(&|j| j.class == Class::Repeat);
    let per_s = |jobs: &[&JobResult]| {
        jobs.len() as f64 * 1e3 / jobs.iter().map(|j| j.latency_ms).sum::<f64>()
    };
    let cpu_per_job =
        |jobs: &[&JobResult]| jobs.iter().map(|j| j.cpu_s).sum::<f64>() / jobs.len().max(1) as f64;

    let mut v = BTreeMap::new();
    v.insert("setup_s", setup_s);
    v.insert("jobs_per_s", per_s(&ok));
    for (name, sample) in
        [("job_ms_p50", &all), ("fresh_ms_p50", &fresh), ("repeat_ms_p50", &repeat)]
    {
        v.insert(name, stats::median(sample).unwrap_or(0.0));
    }
    let tail = stats::tail(&all, TAIL_BEYOND);
    v.insert("job_ms_tail", tail.map_or(0.0, |t| t.value));
    v.insert("cpu_s_per_job", cpu_per_job(&ok));
    v.insert("peak_rss_mb", phase.peak_rss_mib);
    let every: Vec<&JobResult> = phase.jobs.iter().filter(|j| j.ok).collect();
    let every_ms: Vec<f64> = every.iter().map(|j| j.latency_ms).collect();
    notes.push(format!(
        "timings cover the quiet jobs of each of the {slots} block positions: {} of {} completed \
         jobs; over every job: jobs_per_s {}, job_ms_p50 {}, cpu_s_per_job {}",
        ok.len(),
        every.len(),
        per_s(&every),
        stats::median(&every_ms).unwrap_or(0.0),
        cpu_per_job(&every),
    ));
    if let Some(t) = tail {
        notes.push(format!(
            "job_ms_tail is p{:.1} of {} samples, {} beyond it",
            t.percentile, t.samples, t.beyond
        ));
    }
    let failed = phase.failed();
    notes.push(format!(
        "jobs: {} attempted in {} blocks, {} completed, {failed} failed; failed_frac = {}; \
         quiet: {} fresh, {} repeat",
        phase.jobs.len(),
        phase.blocks.len(),
        phase.completed(),
        failed as f64 / phase.jobs.len().max(1) as f64,
        fresh.len(),
        repeat.len(),
    ));
    v
}

fn measure_triad() -> Triad {
    host::triad(host::triad_array_bytes(host::llc_bytes()), host::nproc(), TRIAD_REPS)
}

/// What a number depends on besides the code: the host, the bandwidth
/// measured in this run, the profiles the tuner chose, and the threads.
fn attribution(cfg: &Config, triad: &Triad, phase: &PhaseResult) -> Vec<String> {
    let llc = host::llc_bytes().map_or_else(|| "unknown".to_string(), |b| b.to_string());
    let mut threads =
        format!("set-up and timed jobs one at a time in-process, kpm thread budget {JOB_THREADS}");
    if cfg.trace {
        threads += &format!(
            "; service probe: 1 serve worker, {} loopback fleet workers at kpm thread budget 1, \
             {} shards per job, journal fsync on, serve cache in memory",
            probe::FLEET_WORKERS,
            kpm_fleet::FleetPolicy::default().shards_per_job,
        );
    }
    let store = kpm::tune::store();
    let mut profiles: Vec<String> = store
        .keys()
        .into_iter()
        .filter_map(|key| store.get(key))
        .map(|p| {
            format!(
                "D={} chunks={} threads={} policy={} tile_rows={} {}",
                p.shape.dim,
                p.shape.chunks,
                p.shape.threads,
                p.policy.as_str(),
                p.tile_rows,
                p.origin.as_str()
            )
        })
        .collect();
    profiles.sort();
    vec![
        format!(
            "perfbench workload={} seed={} seconds={} trace={}",
            cfg.workload.name(),
            cfg.seed,
            cfg.seconds,
            u8::from(cfg.trace)
        ),
        format!(
            "host nproc={} llc_bytes={llc} host.triad_gbps={} (3 arrays of {} MiB, {} threads, \
             median of {TRIAD_REPS} passes)",
            host::nproc(),
            triad.gbps,
            triad.array_bytes >> 20,
            triad.threads
        ),
        format!("threads: {threads}"),
        format!(
            "tune profiles: {}",
            if profiles.is_empty() { "none".to_string() } else { profiles.join("; ") }
        ),
        format!(
            "tuner picks, blocks each: {}",
            phase.profiles.iter().map(|(p, n)| format!("{p} x{n}")).collect::<Vec<_>>().join("; ")
        ),
    ]
}

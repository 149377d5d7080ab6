//! The in-process workloads.
//!
//! `paper-lattice` runs DoS jobs on one operator assembled in set-up, the
//! `kpm dos` path (`DosEstimator::compute`). `anderson-48` runs each job on
//! its own disorder realization through the serve worker's compute path
//! (`compute_raw_moments`), so every job pays assembly and its Lanczos
//! bounds probe. Both run one job at a time, at thread budget
//! `run::JOB_THREADS`.

use crate::gen::{Job, JobStream, Workload};
use crate::host;
use crate::run::{
    fresh_state, same_stats, BlockTime, JobResult, PhaseResult, INTEGRAL_TOL, JOB_THREADS,
};
use kpm::obs::TraceReport;
use kpm::prelude::*;
use kpm::tune::ProfileOrigin;
use kpm_linalg::SparseMatrix;
use kpm_serve::job::JobMatrix;
use kpm_serve::worker::compute_raw_moments;
use kpm_serve::JobSpec;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Blocks a timed phase runs at least.
const MIN_BLOCKS: usize = 4;

/// An in-process workload after set-up.
pub struct InProcess {
    /// The operator set-up assembled, kept for `paper-lattice`, whose jobs
    /// all run on it. `anderson-48` jobs assemble their own, so holding it
    /// would only add to the phase's peak RSS.
    op: Option<SparseMatrix>,
    dim: usize,
    op_key: u64,
    /// The policy and tile height the tuner picked.
    profile: String,
}

impl InProcess {
    /// Set-up: assemble the first job's operator and run the first-contact
    /// tune probe on an empty profile store.
    ///
    /// # Errors
    /// A malformed job line, a non-lattice operator, a persisted profile
    /// store, or no probe where the tuner must measure (`D >= 512`).
    pub fn setup(workload: Workload, first: &Job) -> Result<InProcess, String> {
        fresh_state()?;
        let spec = JobSpec::parse(&first.line).map_err(|e| format!("{}: {e}", first.line))?;
        let JobMatrix::Sparse(op) = spec.build_matrix() else {
            return Err(format!("{}: not a lattice operator", first.line));
        };
        let params = spec.kpm_params();
        let chunks = kpm::moments::realization_chunk_count(&params, 0..params.total_realizations());
        let profile = kpm::tune::ensure_profile(&op, chunks);
        if op.dim() >= kpm::exec::ROW_MIN_DIM && profile.origin != ProfileOrigin::Measured {
            return Err(format!("set-up ran no tune probe for D = {}", op.dim()));
        }
        let dim = op.dim();
        let op = (workload == Workload::PaperLattice).then_some(op);
        let profile = format!("policy={} tile_rows={}", profile.policy.as_str(), profile.tile_rows);
        Ok(InProcess { op, dim, op_key: spec.op_key(), profile })
    }

    /// Dimension of the set-up operator.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Runs one job: its raw moments and the integral of its DoS.
    fn run_job(&self, line: &str) -> Result<(MomentStats, f64), String> {
        let spec = JobSpec::parse(line).map_err(|e| e.to_string())?;
        let estimator = DosEstimator::new(spec.kpm_params());
        match &self.op {
            Some(op) => {
                if spec.op_key() != self.op_key {
                    return Err("the job names another operator than set-up assembled".into());
                }
                let dos = estimator.compute(op).map_err(|e| e.to_string())?;
                let integral = dos.integrate();
                Ok((dos.moments, integral))
            }
            None => {
                let (stats, a_plus, a_minus) =
                    compute_raw_moments(&spec, 0).map_err(|e| e.to_string())?;
                let dos = estimator
                    .reconstruct(stats.clone(), a_plus, a_minus)
                    .map_err(|e| e.to_string())?;
                Ok((stats, dos.integrate()))
            }
        }
    }

    /// The timed phase: a closed loop over `stream`, one job at a time, in
    /// whole generator blocks, until `seconds` have passed and at least
    /// `MIN_BLOCKS` ran; then, untimed, the first fresh job again at thread
    /// budget `nproc`, which must reproduce its bits. With
    /// `interleave_trace`, every second block is traced (the phase then ends
    /// on an even block count) and the phase's trace holds the traced
    /// blocks' counters.
    ///
    /// Each block starts from its own cold `setup`, untimed: the tuner
    /// picks a block's profile by timing, and on a shared host its pick
    /// varies from one set-up to the next (on `paper-lattice`, 512-row
    /// tiles run jobs 13% slower than 128 or 256, and won about a third
    /// of the probes), so one set-up per phase made whole runs fast or
    /// slow. With a pick per block, the quiet jobs of every run are those
    /// of its well-tuned blocks. The phase records each block's set-up time
    /// and pick.
    ///
    /// # Errors
    /// A set-up failing.
    pub fn run_phase(
        workload: Workload,
        mut setup: impl FnMut() -> Result<InProcess, String>,
        stream: &mut JobStream,
        seconds: f64,
        interleave_trace: bool,
    ) -> Result<PhaseResult, String> {
        let mut phase = PhaseResult::default();
        let mut trace = interleave_trace.then(TraceReport::default);
        let mut seen: HashMap<String, MomentStats> = HashMap::new();
        let mut first: Option<(usize, String, MomentStats)> = None;
        let mut ready = None;
        let block = JobStream::block_len(workload);
        let limit = Duration::from_secs_f64(seconds);
        let start = Instant::now();
        loop {
            let blocks = phase.blocks.len();
            if start.elapsed() >= limit
                && blocks >= MIN_BLOCKS
                && (!interleave_trace || blocks % 2 == 0)
            {
                break;
            }
            drop(ready.take());
            let t = Instant::now();
            let this: &InProcess = ready.insert(setup()?);
            phase.setup_s.push(t.elapsed().as_secs_f64());
            *phase.profiles.entry(this.profile.clone()).or_insert(0) += 1;
            // A repeat names a fresh job of its own block. Keeping earlier
            // blocks' moments would grow the phase's peak RSS with its job
            // count.
            seen.clear();
            let traced = interleave_trace && blocks % 2 == 1;
            let handle = traced.then(TraceHandle::begin);
            let block_start = Instant::now();
            for _ in 0..block {
                this.timed_job(stream.next_job(), traced, &mut phase, &mut seen, &mut first);
            }
            let secs = block_start.elapsed().as_secs_f64();
            if let (Some(handle), Some(trace)) = (handle, trace.as_mut()) {
                for (name, n) in handle.finish().counters {
                    *trace.counters.entry(name).or_insert(0) += n;
                }
            }
            phase.blocks.push(BlockTime { traced, secs });
        }
        phase.trace = trace;
        phase.peak_rss_mib = host::peak_rss_mib();

        if let (Some((index, line, timed)), Some(ready)) = (first, ready) {
            let nproc = host::nproc();
            kpm::exec::set_thread_budget(nproc);
            let rerun = ready.run_job(&line);
            kpm::exec::set_thread_budget(JOB_THREADS);
            if !matches!(&rerun, Ok((stats, _)) if same_stats(stats, &timed)) {
                let why = format!("{line}: the run at {nproc} threads gave other bits");
                phase.jobs[index].ok = phase.fail(why);
            }
        }
        Ok(phase)
    }

    /// Runs and checks one job of a timed phase, recording it in `phase`.
    /// A repeat must reproduce the bits of the first run of its line.
    fn timed_job(
        &self,
        job: Job,
        traced: bool,
        phase: &mut PhaseResult,
        seen: &mut HashMap<String, MomentStats>,
        first: &mut Option<(usize, String, MomentStats)>,
    ) {
        let cpu0 = host::cpu_seconds();
        let t = Instant::now();
        let outcome = self.run_job(&job.line);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let cpu_s = host::cpu_seconds() - cpu0;
        let ok = match outcome {
            Err(e) => phase.fail(format!("{}: {e}", job.line)),
            Ok((stats, integral)) => {
                let mut ok = true;
                if (integral - 1.0).abs() > INTEGRAL_TOL {
                    ok = phase.fail(format!("{}: DoS integral {integral}", job.line));
                }
                match seen.get(&job.line) {
                    Some(earlier) => {
                        if !same_stats(earlier, &stats) {
                            ok = phase.fail(format!("{}: the repeat changed bits", job.line));
                        }
                    }
                    None => {
                        first.get_or_insert_with(|| {
                            (phase.jobs.len(), job.line.clone(), stats.clone())
                        });
                        seen.insert(job.line.clone(), stats);
                    }
                }
                ok
            }
        };
        let class = job.kind.class();
        phase.jobs.push(JobResult { class, latency_ms: ms, cpu_s, ok, traced });
    }
}

//! Subcommand implementations.
//!
//! Each command returns its report as a `String` (testable) and optionally
//! writes CSV output; `main.rs` only prints.

use crate::args::{ArgError, Args};
use crate::spec::{parse_boundary, LatticeSpec};
use kpm::obs;
use kpm::prelude::*;
use kpm::propagate::{ComplexState, Propagator};
use kpm_lattice::OnSite;
use kpm_linalg::{MatrixFormat, SparseMatrix};
use kpm_stream::tune::tune_block_size;
use kpm_stream::{Mapping, StreamKpmEngine};
use kpm_streamsim::GpuSpec;
use std::fmt;
use std::fmt::Write as _;

/// Command errors (parse, KPM, or I/O).
#[derive(Debug)]
pub enum CmdError {
    /// Bad command-line usage.
    Args(ArgError),
    /// Bad lattice spec.
    Spec(crate::spec::SpecError),
    /// KPM pipeline failure.
    Kpm(KpmError),
    /// File output failure.
    Io(std::io::Error),
    /// A batch/serve run finished but some jobs failed; the full report is
    /// carried so `main` can still show it before exiting non-zero.
    Jobs {
        /// Number of failed jobs.
        failed: usize,
        /// Rendered per-job table plus metrics.
        report: String,
    },
    /// Distributed-run failure (worker fleet, wire protocol, shard merge).
    Shard(kpm_shard::ShardError),
    /// Network front-end failure (serve listener, submit client, KPNT
    /// protocol, server-side rejection).
    Net(kpm_net::NetError),
    /// Fleet-scheduler failure (journal I/O, no workers, stopped
    /// scheduler).
    Fleet(kpm_fleet::FleetError),
    /// Anything else (message).
    Other(String),
}

impl CmdError {
    /// Distinct process exit code per failure class, for scripting around
    /// the CLI (0 is success; 1 is the catch-all).
    pub fn exit_code(&self) -> u8 {
        match self {
            CmdError::Args(_) => 2,
            CmdError::Spec(_) => 3,
            CmdError::Kpm(_) => 4,
            CmdError::Io(_) => 5,
            CmdError::Jobs { .. } => 6,
            CmdError::Shard(_) => 7,
            CmdError::Net(_) => 8,
            CmdError::Fleet(_) => 9,
            CmdError::Other(_) => 1,
        }
    }
}

impl fmt::Display for CmdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CmdError::Args(e) => write!(f, "{e}"),
            CmdError::Spec(e) => write!(f, "{e}"),
            CmdError::Kpm(e) => write!(f, "{e}"),
            CmdError::Io(e) => write!(f, "{e}"),
            CmdError::Jobs { failed, report } => {
                write!(f, "{report}\n{failed} job(s) failed")
            }
            CmdError::Shard(e) => write!(f, "{e}"),
            CmdError::Net(e) => write!(f, "{e}"),
            CmdError::Fleet(e) => write!(f, "{e}"),
            CmdError::Other(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CmdError {}

impl From<ArgError> for CmdError {
    fn from(e: ArgError) -> Self {
        CmdError::Args(e)
    }
}
impl From<crate::spec::SpecError> for CmdError {
    fn from(e: crate::spec::SpecError) -> Self {
        CmdError::Spec(e)
    }
}
impl From<KpmError> for CmdError {
    fn from(e: KpmError) -> Self {
        CmdError::Kpm(e)
    }
}
impl From<std::io::Error> for CmdError {
    fn from(e: std::io::Error) -> Self {
        CmdError::Io(e)
    }
}
impl From<kpm_stream::EngineError> for CmdError {
    fn from(e: kpm_stream::EngineError) -> Self {
        match e {
            kpm_stream::EngineError::Kpm(e) => CmdError::Kpm(e),
            other => CmdError::Other(other.to_string()),
        }
    }
}
impl From<kpm_serve::JobError> for CmdError {
    fn from(e: kpm_serve::JobError) -> Self {
        CmdError::Other(e.to_string())
    }
}
impl From<kpm_shard::ShardError> for CmdError {
    fn from(e: kpm_shard::ShardError) -> Self {
        CmdError::Shard(e)
    }
}
impl From<kpm_net::NetError> for CmdError {
    fn from(e: kpm_net::NetError) -> Self {
        CmdError::Net(e)
    }
}
impl From<kpm_fleet::FleetError> for CmdError {
    fn from(e: kpm_fleet::FleetError) -> Self {
        CmdError::Fleet(e)
    }
}

/// Usage text.
pub const USAGE: &str = "\
kpm — Kernel Polynomial Method toolkit

USAGE: kpm <command> [--key value ...]

COMMANDS:
  dos       density of states
  ldos      local density of states (--site N)
  evolve    wavepacket evolution (--time T [--site N])
  spectral  momentum-resolved A(k, omega) on a chain (--momenta K)
  batch     run a jobs file through the worker pool + moment cache
  serve     accept job lines on stdin until EOF or Ctrl-C, or over TCP
            with --listen ADDR
  submit    send a job to a kpm serve --listen server (--addr HOST:PORT)
  tune      `kpm tune [<lattice>]`: calibrate the execution profile for a
            lattice (probe sweep + profile store) and sweep block sizes for
            the simulated device
  bounds    `kpm bounds [<lattice>]`: inspect spectral bounds per provider
            (Gershgorin discs vs contained Lanczos) and the moment counts
            they imply at --resolution EPS
  estimate  modeled CPU vs GPU run times at any scale
  worker    serve shard computations over TCP (--listen ADDR [--once]
            [--inventory-cap N])
  fleet     run a jobs file (or --listen ADDR) on a persistent worker
            fleet with locality-aware scheduling and a restartable
            --journal DIR
  help      this text (`--help` after any command prints it too)

COMMON OPTIONS:
  --lattice  chain:L | square:LX,LY | cubic:LX,LY,LZ | honeycomb:LX,LY
             (default cubic:10,10,10 — the paper's workload)
  --bc       open | periodic        (default periodic)
  --hopping  t                      (default 1.0)
  --disorder W [--dseed S]          (default none)
  --format   csr | stencil | auto   storage format (default auto: a
             matrix-free stencil for nearest-neighbour chain, square and
             cubic lattices of at least 23,831 sites, CSR otherwise;
             `stencil` builds a honeycomb lattice as CSR; every format
             gives the same bits)
  --moments  N                      (default 256)
  --resolution EPS     pick N for target energy resolution EPS from the
                       measured spectral half-width (overrides --moments)
  --random   R  --sets S            (default 14, 2)
  --kernel   jackson | lorentz | fejer | dirichlet | jacobi   (default
             jackson; jacobi takes --alpha A --beta B, default 0,0)
  --bounds   gershgorin | lanczos[:K] | manual:A,B   spectral-bounds
             provider (default gershgorin — the paper's discs; lanczos runs
             a contained K-step pass, default K = 64)
  --seed     master seed            (default 42)
  --device   host | sim | sim:N    (dos) backend: host runs on this machine;
                                   sim[:N] routes the same run through the
                                   N-device event-pipeline model (same
                                   numbers, plus a modeled time)
  --exec     auto | rows | hybrid   execution plan (default auto:
             calibrated profile when one exists, static prior otherwise; any
             other value overrides calibration; every plan gives the same bits)
  --threads  N                      worker-thread budget for row-tiled plans
                                    (default 0 = RAYON_NUM_THREADS or all cores)
  --profile-store DIR  persist calibrated execution profiles under DIR, or
                       'none' for memory only (default results/profiles for
                       `kpm tune`, memory-only elsewhere)
  --no-tune            disable calibrated planning (static heuristic only)
  --out      CSV path               (default none: table to stdout)
  --trace    FILE                   write a span/counter trace as JSON

SERVING OPTIONS (batch / serve):
  --workers N          worker threads       (default 0 = auto)
  --queue N            queue capacity       (default 256)
  --timeout-secs T     per-job timeout      (default 300)
  --retries N          retries on panic/timeout (default 2)
  --backoff-ms MS      retry backoff base   (default 20)
  --cache-capacity N   in-memory cache entries (default 128)
  --cache-dir DIR      on-disk cache spill, or 'none' (default results/cache)
  --metrics-every-secs S  (serve) dump metrics JSON to stderr every S seconds
  Job lines are whitespace-separated key=value pairs, e.g.
    lattice=cubic:10,10,10 moments=512 seed=7 kernel=lorentz:3 out=dos.csv

NETWORK OPTIONS (serve / submit):
  --listen ADDR        (serve) accept KPNT client sessions on ADDR instead
                       of stdin; Ctrl-C drains in-flight jobs and exits
  --max-inflight N     (serve --listen) per-session in-flight cap (default 32)
  --addr HOST:PORT     (submit) server address (default 127.0.0.1:7080)
  --spec 'k=v ...'     (submit) job line to run (or pass it positionally)
  --stream NAME        (submit) completion stream name (default cli)
  --refine N           (submit) streaming-refinement steps (default 1)
  --stats              (submit) also print the server metrics snapshot

DISTRIBUTED OPTIONS (dos / ldos / batch / serve):
  --local-workers N    shard realizations across N in-process workers
  --workers A,B,...    shard across remote `kpm worker` addresses (host:port)
  Merged moments are bitwise identical to an unsharded run with the same
  --seed, for any worker count or failure history.

FLEET OPTIONS (fleet / worker):
  --journal DIR        journal accepted rows to DIR; restarting on the same
                       DIR resumes the merge bitwise (fleet)
  --shards N           shards per job (default 4; fixed so restarts align)
  --no-locality        place shards least-loaded, ignoring warm state
  --inventory-cap N    (worker) warm moment-row cache entries (default 4096,
                       0 disables caching and locality advertisement)
  --kill-after N       crash the coordinator after N journaled results — a
                       restart drill for the --journal replay path
  Repeat specs route to workers already holding their operator or moment
  rows; results are bitwise identical either way.

EXIT CODES: 0 ok | 1 other | 2 args | 3 lattice spec | 4 kpm | 5 io | 6 jobs failed | 7 shard | 8 net | 9 fleet
";

/// Shared workload assembled from common options.
struct Workload {
    h: SparseMatrix,
    params: KpmParams,
}

fn workload(args: &Args) -> Result<Workload, CmdError> {
    let _span = obs::span("cli.workload");
    let spec = LatticeSpec::parse(args.get("lattice").unwrap_or("cubic:10,10,10"))?;
    let bc = parse_boundary(args.get("bc").unwrap_or("periodic"))?;
    let t: f64 = args.get_or("hopping", 1.0)?;
    let onsite = match args.get_parsed("disorder", "a number")? {
        None => OnSite::Uniform(0.0),
        Some(width) => OnSite::Disorder { width, seed: args.get_or("dseed", 7u64)? },
    };
    let format: MatrixFormat =
        args.get_parsed("format", "csr|stencil|auto")?.unwrap_or(MatrixFormat::Auto);
    let h = spec.build_format(t, onsite, bc, format);

    let kernel = match args.get("kernel").unwrap_or("jackson") {
        "jackson" => KernelType::Jackson,
        "lorentz" => KernelType::Lorentz { lambda: args.get_or("lambda", 4.0)? },
        "fejer" => KernelType::Fejer,
        "dirichlet" => KernelType::Dirichlet,
        "jacobi" => KernelType::Jacobi {
            alpha: args.get_or("alpha", 0.0)?,
            beta: args.get_or("beta", 0.0)?,
        },
        other => {
            return Err(CmdError::Args(ArgError::BadValue {
                key: "kernel".into(),
                value: other.into(),
                expected: "jackson|lorentz|fejer|dirichlet|jacobi",
            }))
        }
    };
    let bounds: BoundsMethod = match args.get("bounds") {
        None => BoundsMethod::Gershgorin,
        Some(v) => v.parse().map_err(CmdError::Kpm)?,
    };
    let mut params = KpmParams::new(args.get_or("moments", 256)?)
        .with_random_vectors(args.get_or("random", 14)?, args.get_or("sets", 2)?)
        .with_seed(args.get_or("seed", 42u64)?)
        .with_kernel(kernel)
        .with_bounds(bounds);
    if let Some(eps) = resolution_arg(args)? {
        // `--resolution EPS` picks the moment count for the requested energy
        // resolution from the *actual* spectral half-width — the whole point
        // of tighter bounds is that this N shrinks with them.
        let b = kpm::bounds::resolve(&h, params.bounds)?;
        let n =
            kpm::moments_for_resolution(params.kernel, b.padded(params.padding).a_minus(), eps)?;
        params = KpmParams::new(n)
            .with_random_vectors(params.num_random, params.num_realizations)
            .with_seed(params.seed)
            .with_kernel(params.kernel)
            .with_bounds(params.bounds);
        obs::counter_add("kpm.bounds.n_moments", n as u64);
    }
    Ok(Workload { h, params })
}

/// Parses `--resolution EPS` (target energy resolution; selects `N`).
fn resolution_arg(args: &Args) -> Result<Option<f64>, CmdError> {
    match args.get("resolution") {
        None => Ok(None),
        Some(v) => {
            v.parse::<f64>().ok().filter(|e| e.is_finite() && *e > 0.0).map(Some).ok_or_else(|| {
                CmdError::Args(ArgError::BadValue {
                    key: "resolution".into(),
                    value: v.into(),
                    expected: "a positive energy",
                })
            })
        }
    }
}

/// Builds the shard engine selected by `--local-workers` / `--workers`, if
/// any. A numeric `--workers` keeps its pre-existing meaning (thread-pool
/// size for batch/serve) and selects no engine; a non-numeric value is a
/// comma-separated list of `kpm worker` TCP addresses.
pub fn shard_engine(args: &Args) -> Result<Option<kpm_shard::ShardedEngine>, CmdError> {
    let local = match args.get("local-workers") {
        None => None,
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n > 0 => Some(n),
            _ => {
                return Err(CmdError::Other(format!(
                    "--local-workers {v}: expected a positive integer"
                )))
            }
        },
    };
    let tcp: Option<Vec<String>> = match args.get("workers") {
        Some(v) if v.parse::<usize>().is_err() => {
            Some(v.split(',').map(str::trim).filter(|s| !s.is_empty()).map(String::from).collect())
        }
        _ => None,
    };
    match (local, tcp) {
        (Some(_), Some(_)) => Err(CmdError::Other(
            "--local-workers and --workers ADDR,... are mutually exclusive".into(),
        )),
        (Some(n), None) => Ok(Some(kpm_shard::ShardedEngine::local(n))),
        (None, Some(addrs)) if addrs.is_empty() => {
            Err(CmdError::Other("--workers: no addresses given".into()))
        }
        (None, Some(addrs)) => Ok(Some(kpm_shard::ShardedEngine::tcp(addrs))),
        (None, None) => Ok(None),
    }
}

/// Renders the common options as a serve job spec, so the sharded dos/ldos
/// paths reuse `JobSpec` parsing/validation and its canonical wire form.
/// Options left at their defaults are omitted — CLI and job-line defaults
/// are identical.
fn shard_job_spec(args: &Args) -> Result<kpm_serve::JobSpec, CmdError> {
    let mut parts: Vec<String> = Vec::new();
    for key in [
        "lattice", "bc", "hopping", "disorder", "dseed", "format", "moments", "random", "sets",
        "seed", "device", "bounds",
    ] {
        if let Some(v) = args.get(key) {
            parts.push(format!("{key}={v}"));
        }
    }
    if let Some(kernel) = args.get("kernel") {
        if kernel == "lorentz" {
            parts.push(format!("kernel=lorentz:{}", args.get_or("lambda", 4.0)?));
        } else if kernel == "jacobi" {
            parts.push(format!(
                "kernel=jacobi:{},{}",
                args.get_or("alpha", 0.0)?,
                args.get_or("beta", 0.0)?
            ));
        } else {
            parts.push(format!("kernel={kernel}"));
        }
    }
    kpm_serve::JobSpec::parse(&parts.join(" ")).map_err(|e| match e {
        kpm_serve::JobParseError::Spec(s) => CmdError::Spec(s),
        other => CmdError::Other(other.to_string()),
    })
}

/// `--resolution EPS` for the sharded paths: `a_minus` is the padded
/// half-width the merge will reconstruct against, so the selected `N`
/// matches what an unsharded run with the same bounds mode would pick.
fn apply_resolution_sharded(
    args: &Args,
    spec: &mut kpm_serve::JobSpec,
    a_minus: f64,
) -> Result<(), CmdError> {
    if let Some(eps) = resolution_arg(args)? {
        let n = kpm::moments_for_resolution(spec.kpm_params().kernel, a_minus, eps)?;
        spec.num_moments = n;
        obs::counter_add("kpm.bounds.n_moments", n as u64);
    }
    Ok(())
}

/// Label for distributed-run reports.
fn worker_set_label(engine: &kpm_shard::ShardedEngine) -> String {
    match engine.workers() {
        kpm_shard::WorkerSet::Local(n) => format!("{n} local worker(s)"),
        kpm_shard::WorkerSet::Tcp(addrs) => format!("{} tcp worker(s)", addrs.len()),
    }
}

/// `kpm dos` over a worker fleet: same moments, same CSV bytes.
fn dos_sharded(args: &Args, engine: &kpm_shard::ShardedEngine) -> Result<String, CmdError> {
    let mut spec = shard_job_spec(args)?;
    let (a_plus, a_minus) = kpm_shard::ShardJob::Dos(spec.clone()).bounds()?;
    apply_resolution_sharded(args, &mut spec, a_minus)?;
    let job = kpm_shard::ShardJob::Dos(spec.clone());
    let stats = engine.run_job(&job)?.into_stats().expect("dos jobs merge to stats");
    let dos = DosEstimator::new(spec.kpm_params()).reconstruct(stats, a_plus, a_minus)?;
    let dim = spec.build_matrix().dim();
    let mut report = dos_report(
        &dos,
        &format!("DoS of a {dim} x {dim} Hamiltonian (distributed: {})", worker_set_label(engine)),
    );
    if let Some(path) = maybe_write_csv(
        args,
        "energy,rho",
        dos.energies.iter().zip(&dos.rho).map(|(e, r)| format!("{e},{r}")),
    )? {
        let _ = writeln!(report, "  wrote {path}");
    }
    Ok(report)
}

/// `kpm ldos` over a worker fleet.
fn ldos_sharded(args: &Args, engine: &kpm_shard::ShardedEngine) -> Result<String, CmdError> {
    let site: usize = args.require("site")?;
    let mut spec = shard_job_spec(args)?;
    let (a_plus, a_minus) = kpm_shard::ShardJob::Ldos { spec: spec.clone(), site }.bounds()?;
    apply_resolution_sharded(args, &mut spec, a_minus)?;
    let job = kpm_shard::ShardJob::Ldos { spec: spec.clone(), site };
    let stats = engine.run_job(&job)?.into_stats().expect("ldos jobs merge to stats");
    let ldos = LdosEstimator::new(spec.kpm_params(), site).reconstruct(stats, a_plus, a_minus)?;
    let mut report = dos_report(
        &ldos,
        &format!("LDoS at site {site} (distributed: {})", worker_set_label(engine)),
    );
    if let Some(path) = maybe_write_csv(
        args,
        "energy,rho_local",
        ldos.energies.iter().zip(&ldos.rho).map(|(e, r)| format!("{e},{r}")),
    )? {
        let _ = writeln!(report, "  wrote {path}");
    }
    Ok(report)
}

/// `kpm worker` — serve shard computations over TCP until killed (or after
/// one connection with `--once`, the test/CI mode).
pub fn worker(args: &Args) -> Result<String, CmdError> {
    let listen = args.get("listen").unwrap_or("127.0.0.1:7070");
    let once = args.flag("once");
    let cap: usize = args.get_or("inventory-cap", kpm_shard::inventory::DEFAULT_ROW_CAP)?;
    kpm_shard::run_tcp_worker_with(listen, once, cap, |addr| {
        eprintln!("kpm worker listening on {addr}");
    })?;
    Ok("worker: served one connection, exiting\n".to_string())
}

fn maybe_write_csv(
    args: &Args,
    header: &str,
    rows: impl Iterator<Item = String>,
) -> Result<Option<String>, CmdError> {
    let Some(path) = args.get("out") else { return Ok(None) };
    let mut s = String::from(header);
    s.push('\n');
    for r in rows {
        s.push_str(&r);
        s.push('\n');
    }
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, s)?;
    Ok(Some(path.to_string()))
}

fn dos_report(dos: &kpm::Dos, label: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{label}");
    let _ = writeln!(out, "  grid points : {}", dos.len());
    let _ = writeln!(
        out,
        "  band        : [{:.4}, {:.4}]",
        dos.energies[0],
        dos.energies.last().unwrap()
    );
    let _ = writeln!(out, "  integral    : {:.5}", dos.integrate());
    let _ = writeln!(
        out,
        "  peak        : rho = {:.4} at E = {:.4}",
        { dos.rho.iter().cloned().fold(0.0f64, f64::max) },
        dos.peak_energy()
    );
    out
}

/// `kpm dos`.
pub fn dos(args: &Args) -> Result<String, CmdError> {
    if let Some(engine) = shard_engine(args)? {
        return dos_sharded(args, &engine);
    }
    let device_spec: kpm::DeviceSpec =
        args.get("device").unwrap_or("host").parse().map_err(CmdError::Kpm)?;
    let w = workload(args)?;
    let (dos, device_lines) = match device_spec {
        kpm::DeviceSpec::Host => (DosEstimator::new(w.params).compute(&w.h)?, None),
        sim => {
            // Route through the Device backend: functional results are
            // bitwise identical to the host path, plus a modeled clock
            // from the event pipeline.
            let device = sim.build();
            let run = device.submit(kpm::DeviceOp::Sparse(&w.h), &w.params)?;
            let dos = DosEstimator::new(w.params.clone()).reconstruct(
                run.moments,
                run.a_plus,
                run.a_minus,
            )?;
            let caps = device.caps();
            let mut lines = format!("  device      : {sim} ({} instance(s))\n", caps.instances);
            if let Some(secs) = run.clock.modeled_secs() {
                let _ = writeln!(lines, "  modeled time: {secs:.6} s (event pipeline)");
            }
            (dos, Some(lines))
        }
    };
    let mut report = dos_report(
        &dos,
        &format!(
            "DoS of a {} x {} Hamiltonian ({} stored entries, {} format)",
            w.h.nrows(),
            w.h.ncols(),
            w.h.nnz(),
            w.h.format_name()
        ),
    );
    if let Some(lines) = device_lines {
        report.push_str(&lines);
    }
    if let Some(path) = maybe_write_csv(
        args,
        "energy,rho",
        dos.energies.iter().zip(&dos.rho).map(|(e, r)| format!("{e},{r}")),
    )? {
        let _ = writeln!(report, "  wrote {path}");
    }
    Ok(report)
}

/// `kpm ldos`.
pub fn ldos(args: &Args) -> Result<String, CmdError> {
    if let Some(engine) = shard_engine(args)? {
        return ldos_sharded(args, &engine);
    }
    let w = workload(args)?;
    let site: usize = args.require("site")?;
    let ldos = LdosEstimator::new(w.params, site).compute(&w.h)?;
    let mut report = dos_report(&ldos, &format!("LDoS at site {site}"));
    if let Some(path) = maybe_write_csv(
        args,
        "energy,rho_local",
        ldos.energies.iter().zip(&ldos.rho).map(|(e, r)| format!("{e},{r}")),
    )? {
        let _ = writeln!(report, "  wrote {path}");
    }
    Ok(report)
}

/// `kpm evolve`.
pub fn evolve(args: &Args) -> Result<String, CmdError> {
    let w = workload(args)?;
    let time: f64 = args.get_or("time", 10.0)?;
    let steps: usize = args.get_or("steps", 5)?;
    if steps == 0 {
        return Err(KpmError::InvalidParameter("--steps must be positive".into()).into());
    }
    let site: usize = args.get_or("site", w.h.nrows() / 2)?;
    if site >= w.h.nrows() {
        return Err(KpmError::InvalidParameter(format!("--site {site} out of range")).into());
    }
    let bounds = kpm::bounds::resolve(&w.h, w.params.bounds)?;
    let prop = Propagator::new(&w.h, bounds, 1e-10)?;
    let mut re = vec![0.0; w.h.nrows()];
    re[site] = 1.0;
    let mut psi = ComplexState::from_real(re);

    let mut report = format!("evolving |site {site}> for t = {time} in {steps} steps\n");
    let _ = writeln!(report, "  {:>8} {:>12} {:>12}", "t", "return_prob", "norm");
    let dt = time / steps as f64;
    for k in 0..=steps {
        let p_return = psi.re[site] * psi.re[site] + psi.im[site] * psi.im[site];
        let _ = writeln!(
            report,
            "  {:>8.3} {:>12.6} {:>12.8}",
            k as f64 * dt,
            p_return,
            psi.norm_sqr()
        );
        if k < steps {
            psi = prop.evolve(&psi, dt);
        }
    }
    if let Some(path) = maybe_write_csv(
        args,
        "site,prob",
        psi.density().iter().enumerate().map(|(i, p)| format!("{i},{p}")),
    )? {
        let _ = writeln!(report, "  wrote final density to {path}");
    }
    Ok(report)
}

/// `kpm spectral` — momentum-resolved A(k, omega) on a chain.
pub fn spectral(args: &Args) -> Result<String, CmdError> {
    let spec = LatticeSpec::parse(args.get("lattice").unwrap_or("chain:128"))?;
    let LatticeSpec::Chain(l) = spec else {
        return Err(CmdError::Other("spectral currently supports chain:L lattices".into()));
    };
    let w = workload(args)?; // rebuilds the same chain with common options
    let k_count: usize = args.get_or("momenta", 8)?;
    if k_count == 0 || k_count > l {
        return Err(KpmError::InvalidParameter(format!("--momenta must be in 1..={l}")).into());
    }
    let ks: Vec<usize> = (0..k_count).map(|i| i * l / (2 * k_count)).collect();
    let spectra = kpm::spectral::chain_spectral_function(&w.h, l, &ks, &w.params)?;
    let mut report = format!("A(k, omega) on a {l}-site chain:\n");
    let _ = writeln!(report, "  {:>6} {:>10} {:>12}", "k_idx", "k/pi", "peak E");
    for sp in &spectra {
        let _ = writeln!(
            report,
            "  {:>6} {:>10.4} {:>12.4}",
            sp.k_index,
            2.0 * sp.k_index as f64 / l as f64,
            sp.peak()
        );
    }
    if let Some(path) = maybe_write_csv(
        args,
        "k_index,energy,a",
        spectra.iter().flat_map(|sp| {
            let k = sp.k_index;
            sp.a.energies
                .iter()
                .zip(&sp.a.rho)
                .map(move |(e, r)| format!("{k},{e},{r}"))
                .collect::<Vec<_>>()
        }),
    )? {
        let _ = writeln!(report, "  wrote {path}");
    }
    Ok(report)
}

/// `kpm tune`: calibrate the execution profile for the lattice's operator
/// shape (timed probe sweep, persisted to the profile store), then the
/// modeled block-size sweep for the simulated device.
pub fn tune(args: &Args) -> Result<String, CmdError> {
    // Part 1 — real-machine calibration. `kpm tune` persists by default
    // (that's its job); every other command stays memory-only unless
    // `--profile-store` says otherwise.
    if args.get("profile-store").is_none() {
        set_profile_dir(Some(std::path::PathBuf::from("results/profiles")));
    }
    let Workload { h, params } = workload(args)?;
    let chunks = realization_chunk_count(&params, 0..params.total_realizations());
    let threads = kpm::exec::effective_threads();
    let sweep_t0 = std::time::Instant::now();
    let profile = ensure_profile(&h, chunks);
    let sweep = sweep_t0.elapsed();
    let plan = profile.plan(threads);
    let mut report = format!(
        "execution profile (D = {}, entries = {}, chunks = {}, threads = {}):\n",
        profile.shape.dim, profile.shape.entries, profile.shape.chunks, profile.shape.threads
    );
    let _ = writeln!(report, "  {:>10} {:016x}", "key", profile.shape.key());
    let _ = writeln!(
        report,
        "  {:>10} {} ({:?})  [{}{}]",
        "plan",
        plan.name(),
        plan,
        profile.origin.as_str(),
        if profile.probe_nanos > 0 {
            format!(", probe {:.3} ms", profile.probe_nanos as f64 / 1e6)
        } else {
            String::new()
        },
    );
    let _ = writeln!(
        report,
        "  {:>10} {}",
        "store",
        kpm::tune::store().dir().map_or("memory only".into(), |d| d.display().to_string()),
    );
    let _ = writeln!(report, "  sweep took {:.3} ms\n", sweep.as_secs_f64() * 1e3);

    // Part 2 — the modeled device sweep (the paper's BLOCK_SIZE table).
    let spec = LatticeSpec::parse(args.get("lattice").unwrap_or("cubic:10,10,10"))?;
    let d = spec.num_sites();
    let n: usize = args.get_or("moments", 1024)?;
    let realizations: usize = args.get_or("realizations", 1792)?;
    let engine = StreamKpmEngine::new(GpuSpec::tesla_c2050());
    let stored = 7 * d; // paper-style sparse estimate
    let shape = engine.shape_for(d, stored, false, n, realizations);
    let result = tune_block_size(engine.device().spec(), &shape, 0.2, None);
    let _ = writeln!(
        report,
        "block-size sweep (D = {d}, N = {n}, S*R = {realizations}, thread-per-realization):"
    );
    let _ = writeln!(report, "  {:>10} {:>12}", "BLOCK_SIZE", "modeled (s)");
    for p in &result.points {
        let marker = if p.block_size == result.best { "  <= best" } else { "" };
        let _ = writeln!(report, "  {:>10} {:>12.4}{marker}", p.block_size, p.time.as_secs_f64());
    }
    Ok(report)
}

/// `kpm estimate`.
pub fn estimate(args: &Args) -> Result<String, CmdError> {
    let spec = LatticeSpec::parse(args.get("lattice").unwrap_or("cubic:10,10,10"))?;
    let d = spec.num_sites();
    let n: usize = args.get_or("moments", 1024)?;
    let realizations: usize = args.get_or("realizations", 1792)?;
    let dense = args.get("storage").unwrap_or("sparse") == "dense";
    let stored = if dense { d * d } else { 7 * d };

    let w =
        kpm::workload::KpmWorkload { dim: d, stored_entries: stored, num_moments: n, realizations };
    // CPU model.
    let cpu_spec = kpm_streamsim::CpuSpec::core_i7_930();
    let mut clock = kpm_streamsim::HostClock::new();
    let conv = |p: kpm::workload::PhaseProfile| kpm_streamsim::MemTraffic {
        flops: p.flops,
        bytes: p.bytes,
        working_set_bytes: p.working_set_bytes,
    };
    let rng = clock.charge(&cpu_spec, &conv(w.rng_profile())).as_secs_f64();
    let mv = clock.charge(&cpu_spec, &conv(w.matvec_profile())).as_secs_f64();
    let cd = clock.charge(&cpu_spec, &conv(w.combine_dot_profile())).as_secs_f64();
    let cpu = realizations as f64 * (rng + mv * (n as f64 - 1.0) + cd * n as f64);

    let mut report = format!(
        "modeled times (D = {d}, {} storage, N = {n}, S*R = {realizations}):\n",
        if dense { "dense" } else { "sparse" }
    );
    let _ = writeln!(report, "  CPU (Core i7 930 model)            : {cpu:.3} s");
    for (label, mapping) in [
        ("GPU, thread-per-realization (paper)", Mapping::ThreadPerRealization),
        ("GPU, block-per-realization (ours)  ", Mapping::BlockPerRealization),
    ] {
        let engine = StreamKpmEngine::new(GpuSpec::tesla_c2050()).with_mapping(mapping);
        let shape = engine.shape_for(d, stored, dense, n, realizations);
        // Overlap-off event pipeline: reproduces the retired analytic model
        // bitwise (pinned in kpm-streamsim's tests).
        let gpu = kpm_streamsim::MomentRunPlan::new(shape)
            .with_overlap(false)
            .total(engine.device().spec(), 0.2)
            .as_secs_f64();
        let _ = writeln!(report, "  {label}: {gpu:.3} s  (speedup {:.2}x)", cpu / gpu);
    }
    Ok(report)
}

/// `kpm bounds [<lattice>]` — the spectral-bounds inspector: what each
/// provider reports for the lattice, how much tighter Lanczos is than the
/// Gershgorin discs, and the moment counts they imply at a target
/// resolution (`--resolution EPS`, default 0.05).
pub fn bounds(args: &Args) -> Result<String, CmdError> {
    let lattice = args.get("lattice").unwrap_or("cubic:10,10,10").to_string();
    let w = workload(args)?;
    let steps = match w.params.bounds {
        BoundsMethod::Lanczos { steps } => steps,
        _ => kpm::DEFAULT_LANCZOS_STEPS,
    };
    let g = kpm::bounds::resolve(&w.h, BoundsMethod::Gershgorin)?;
    let l = kpm::bounds::resolve(&w.h, BoundsMethod::Lanczos { steps })?;

    let mut report = format!(
        "spectral bounds for {lattice} ({} x {} Hamiltonian, {} stored entries):\n",
        w.h.nrows(),
        w.h.ncols(),
        w.h.nnz()
    );
    let _ =
        writeln!(report, "  {:<14} {:>12} {:>12} {:>12}", "method", "lower", "upper", "a_minus");
    let pad = w.params.padding;
    for (label, b) in
        [("gershgorin".to_string(), g), (BoundsMethod::Lanczos { steps }.to_string(), l)]
    {
        let _ = writeln!(
            report,
            "  {label:<14} {:>12.6} {:>12.6} {:>12.6}",
            b.lower,
            b.upper,
            b.padded(pad).a_minus()
        );
    }
    if let BoundsMethod::Explicit { .. } = w.params.bounds {
        let m = kpm::bounds::resolve(&w.h, w.params.bounds)?;
        let _ = writeln!(
            report,
            "  {:<14} {:>12.6} {:>12.6} {:>12.6}",
            w.params.bounds.to_string(),
            m.lower,
            m.upper,
            m.padded(pad).a_minus()
        );
    }
    let _ = writeln!(
        report,
        "  tightening  : {:.3}x narrower half-width",
        g.width() / l.width().max(f64::MIN_POSITIVE)
    );

    let eps = resolution_arg(args)?.unwrap_or(0.05);
    let n_g = kpm::moments_for_resolution(w.params.kernel, g.padded(pad).a_minus(), eps)?;
    let n_l = kpm::moments_for_resolution(w.params.kernel, l.padded(pad).a_minus(), eps)?;
    let _ = writeln!(report, "  moments for resolution {eps} ({:?} kernel):", w.params.kernel);
    let _ = writeln!(report, "    gershgorin  : N = {n_g}");
    let _ = writeln!(
        report,
        "    lanczos:{steps:<4}: N = {n_l}  ({:.3}x fewer moments)",
        n_g as f64 / n_l as f64
    );
    Ok(report)
}

/// Dispatches a subcommand.
///
/// # Errors
/// [`CmdError`] from parsing or execution.
pub fn run(command: &str, args: &Args) -> Result<String, CmdError> {
    run_with_positionals(command, args, &[])
}

/// Dispatches a subcommand, passing positional arguments to the commands
/// that take them (`batch`); every other command rejects positionals.
///
/// With `--help`, any command returns the usage text and runs nothing.
///
/// With `--trace FILE`, the whole run executes inside a trace session: the
/// dispatch is wrapped in a `cli.command` span (labeled with the
/// subcommand), and the finished report — per-phase spans plus any ambient
/// counters — is written to `FILE` as versioned JSON whether the command
/// succeeds or fails.
///
/// # Errors
/// [`CmdError`] from parsing or execution (trace-file write failures map to
/// [`CmdError::Io`]).
pub fn run_with_positionals(
    command: &str,
    args: &Args,
    positionals: &[String],
) -> Result<String, CmdError> {
    if args.flag("help") {
        return Ok(USAGE.to_string());
    }
    let Some(trace_path) = args.get("trace") else {
        return dispatch(command, args, positionals);
    };
    let trace_path = std::path::PathBuf::from(trace_path);
    let handle = TraceHandle::begin();
    let result = {
        let _span = obs::span_labeled("cli.command", command);
        dispatch(command, args, positionals)
    };
    let mut report = handle.finish();
    report.command = command.to_string();
    report.write_json(&trace_path)?;
    result
}

/// Applies the process-global execution-plan options (`--exec`,
/// `--threads`, `--profile-store`, `--no-tune`) before the command runs.
/// Validation happens before any mutation, so a bad value leaves the
/// policy untouched.
fn apply_exec_options(args: &Args) -> Result<(), CmdError> {
    let policy: Option<ExecPolicy> = args.get_parsed("exec", "auto|rows|hybrid")?;
    let threads: usize = args.get_or("threads", 0)?;
    if let Some(p) = policy {
        set_exec_policy(p);
    }
    if threads > 0 {
        set_thread_budget(threads);
    }
    if args.flag("no-tune") {
        set_tuning_enabled(false);
    }
    match args.get("profile-store") {
        None => {}
        Some("none") => set_profile_dir(None),
        Some(dir) => set_profile_dir(Some(std::path::PathBuf::from(dir))),
    }
    Ok(())
}

fn dispatch(command: &str, args: &Args, positionals: &[String]) -> Result<String, CmdError> {
    apply_exec_options(args)?;
    if command == "batch" {
        return crate::batch::batch(args, positionals);
    }
    if command == "submit" {
        return crate::batch::submit(args, positionals);
    }
    if command == "fleet" {
        return crate::fleet::fleet(args, positionals);
    }
    if command == "tune" || command == "bounds" {
        // `kpm tune <lattice>` / `kpm bounds <lattice>` — the positional is
        // shorthand for `--lattice` and wins over it when both are given.
        let cmd: fn(&Args) -> Result<String, CmdError> =
            if command == "tune" { tune } else { bounds };
        if let Some(extra) = positionals.get(1) {
            return Err(CmdError::Args(ArgError::UnexpectedPositional(extra.clone())));
        }
        if let Some(lattice) = positionals.first() {
            let mut with_lattice = args.clone();
            with_lattice.set("lattice", lattice);
            return cmd(&with_lattice);
        }
        return cmd(args);
    }
    if let Some(p) = positionals.first() {
        return Err(CmdError::Args(ArgError::UnexpectedPositional(p.clone())));
    }
    match command {
        "dos" => dos(args),
        "ldos" => ldos(args),
        "evolve" => evolve(args),
        "spectral" => spectral(args),
        "serve" => crate::batch::serve(args),
        "estimate" => estimate(args),
        "worker" => worker(args),
        "help" => Ok(USAGE.to_string()),
        other => Err(CmdError::Other(format!("unknown command '{other}'\n\n{USAGE}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Args {
        Args::parse(words.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn dos_on_small_lattice() {
        let a = args(&["--lattice", "chain:64", "--moments", "64", "--sets", "1"]);
        let report = dos(&a).unwrap();
        assert!(report.contains("integral"), "{report}");
        assert!(report.contains("64 x 64"));
    }

    #[test]
    fn dos_format_flag_selects_backend_without_changing_physics() {
        let base = ["--lattice", "cubic:4,4,4", "--moments", "64", "--sets", "1"];
        let reports: Vec<String> = ["csr", "stencil", "auto"]
            .iter()
            .map(|f| {
                let mut words: Vec<&str> = base.to_vec();
                words.extend_from_slice(&["--format", f]);
                dos(&args(&words)).unwrap()
            })
            .collect();
        assert!(reports[0].contains("csr format"), "{}", reports[0]);
        assert!(reports[1].contains("stencil format"), "{}", reports[1]);
        // 64 sites, below the stencil threshold: auto keeps CSR.
        assert!(reports[2].contains("csr format"), "{}", reports[2]);
        assert_eq!(kpm_linalg::AUTO_STENCIL_MIN_DIM, 23_831, "the threshold USAGE quotes");
        assert!(USAGE.contains("at least 23,831 sites"));
        // Identical physics: reports differ only in the format label.
        let strip = |r: &str| r.replace("csr format", "X").replace("stencil format", "X");
        assert_eq!(strip(&reports[0]), strip(&reports[1]));
        assert_eq!(reports[0], reports[2]);
    }

    /// The tentpole CLI criterion: `--device sim[:n]` routes the run
    /// through the event-pipeline device and reproduces the host numbers
    /// bitwise — same report body, same CSV bytes — plus a modeled clock.
    #[test]
    fn dos_device_sim_matches_host_bitwise() {
        let dir = std::env::temp_dir().join("kpm_cli_device_test");
        std::fs::create_dir_all(&dir).unwrap();
        let run = |device: Option<&str>| {
            let path = dir.join(format!("dos_{}.csv", device.unwrap_or("host")));
            let path_s = path.to_str().unwrap().to_string();
            let mut words =
                vec!["--lattice", "chain:48", "--moments", "32", "--sets", "1", "--out", &path_s];
            if let Some(d) = device {
                words.extend_from_slice(&["--device", d]);
            }
            let report = dos(&args(&words)).unwrap();
            (report, std::fs::read(&path).unwrap())
        };
        let (host_report, host_csv) = run(None);
        for d in ["sim", "sim:2", "sim:4"] {
            let (sim_report, sim_csv) = run(Some(d));
            assert_eq!(sim_csv, host_csv, "--device {d} must reproduce host CSV bytes");
            assert!(sim_report.contains("modeled time"), "{sim_report}");
            assert!(sim_report.contains(&format!("device      : {d} ")), "{sim_report}");
            // The report is the host report plus the device lines.
            let strip = |r: &str| {
                r.lines()
                    .filter(|l| {
                        !l.contains("device      :")
                            && !l.contains("modeled time")
                            && !l.contains("wrote ")
                    })
                    .map(|l| format!("{l}\n"))
                    .collect::<String>()
            };
            assert_eq!(strip(&sim_report), strip(&host_report), "--device {d} changed the physics");
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn dos_rejects_bad_device() {
        for bad in ["gpu", "sim:0", "sim:x"] {
            let a = args(&["--lattice", "chain:16", "--moments", "16", "--device", bad]);
            let err = dos(&a).unwrap_err();
            assert!(matches!(err, CmdError::Kpm(_)), "--device {bad}: {err}");
        }
    }

    /// `--device` flows into the sharded job spec (and stays bitwise
    /// identical there — pinned in kpm-shard's tests).
    #[test]
    fn shard_job_spec_carries_device() {
        let a = args(&["--lattice", "chain:16", "--device", "sim:4"]);
        let spec = shard_job_spec(&a).unwrap();
        assert_eq!(spec.device, kpm::DeviceSpec::Sim { devices: 4 });
        assert!(spec.canonical().contains("device=sim:4"), "{}", spec.canonical());
    }

    #[test]
    fn dos_rejects_unknown_format() {
        for format in ["coo", "ell"] {
            let a = args(&["--lattice", "chain:8", "--format", format]);
            let err = dos(&a).unwrap_err();
            assert!(matches!(err, CmdError::Args(ArgError::BadValue { .. })), "{err}");
            assert!(err.to_string().contains("csr|stencil|auto"), "{err}");
        }
    }

    #[test]
    fn ldos_requires_site() {
        let a = args(&["--lattice", "chain:16", "--moments", "32"]);
        assert!(matches!(ldos(&a), Err(CmdError::Args(ArgError::Required(_)))));
        let a = args(&["--lattice", "chain:16", "--moments", "32", "--site", "3"]);
        assert!(ldos(&a).unwrap().contains("site 3"));
    }

    #[test]
    fn evolve_reports_conserved_norm() {
        let a = args(&["--lattice", "chain:32", "--time", "4", "--steps", "2"]);
        let report = evolve(&a).unwrap();
        // Norm column stays 1.00000000.
        assert!(report.matches("1.00000000").count() >= 3, "{report}");
    }

    #[test]
    fn evolve_validates_inputs() {
        let a = args(&["--lattice", "chain:8", "--steps", "0"]);
        assert!(evolve(&a).is_err());
        let a = args(&["--lattice", "chain:8", "--site", "99"]);
        assert!(evolve(&a).is_err());
    }

    #[test]
    fn spectral_reports_band_dispersion() {
        let a = args(&["--lattice", "chain:32", "--moments", "64", "--momenta", "4"]);
        let report = spectral(&a).unwrap();
        assert!(report.contains("peak E"), "{report}");
        assert_eq!(report.lines().count(), 6, "{report}");
        // k = 0 peak near the band bottom -2.
        let k0_line = report.lines().nth(2).unwrap();
        let peak: f64 = k0_line.split_whitespace().last().unwrap().parse().unwrap();
        assert!((peak + 2.0).abs() < 0.3, "k=0 peak {peak}");
    }

    #[test]
    fn spectral_rejects_non_chain() {
        let a = args(&["--lattice", "square:4,4"]);
        assert!(spectral(&a).is_err());
        let a = args(&["--lattice", "chain:16", "--momenta", "0"]);
        assert!(spectral(&a).is_err());
    }

    /// The tune tests mutate the process-global profile store; serialize
    /// them so the directory/None settings don't race.
    static TUNE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn tune_lists_candidates_and_best() {
        let _guard = TUNE_LOCK.lock().unwrap();
        let a = args(&["--moments", "128", "--profile-store", "none"]);
        apply_exec_options(&a).unwrap();
        let report = tune(&a).unwrap();
        assert!(report.contains("<= best"), "{report}");
        assert!(report.contains("BLOCK_SIZE"));
        // The calibration half reports the measured profile and its plan.
        assert!(report.contains("execution profile"), "{report}");
        assert!(report.contains("plan"), "{report}");
        kpm::tune::set_profile_dir(None);
    }

    #[test]
    fn tune_accepts_a_positional_lattice() {
        let _guard = TUNE_LOCK.lock().unwrap();
        let a = args(&["--moments", "32", "--profile-store", "none"]);
        apply_exec_options(&a).unwrap();
        let report = run_with_positionals("tune", &a, &["chain:700".to_string()]).unwrap();
        assert!(report.contains("D = 700"), "{report}");
        // A second positional is a usage error, not silently dropped.
        let extra = ["chain:700".to_string(), "oops".to_string()];
        assert!(run_with_positionals("tune", &a, &extra).is_err());
        kpm::tune::store().clear_memory();
        kpm::tune::set_profile_dir(None);
    }

    #[test]
    fn tune_persists_profile_to_the_store_dir() {
        let _guard = TUNE_LOCK.lock().unwrap();
        kpm::tune::store().clear_memory();
        let dir = std::env::temp_dir().join(format!("kpm-cli-tune-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let a = args(&[
            "--lattice",
            "cubic:10,10,10",
            "--moments",
            "64",
            "--profile-store",
            dir.to_str().unwrap(),
        ]);
        apply_exec_options(&a).unwrap();
        let report = tune(&a).unwrap();
        assert!(report.contains(dir.to_str().unwrap()), "{report}");
        let profiles: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.path().extension().is_some_and(|x| x == "profile"))
            .collect();
        assert_eq!(profiles.len(), 1, "expected one persisted profile");
        kpm::tune::set_profile_dir(None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn estimate_reports_both_mappings() {
        let a = args(&["--moments", "256"]);
        let report = estimate(&a).unwrap();
        assert!(report.contains("paper"));
        assert!(report.contains("speedup"));
    }

    #[test]
    fn dispatch_and_usage() {
        assert!(run("help", &args(&[])).unwrap().contains("USAGE"));
        assert!(run("frobnicate", &args(&[])).is_err());
    }

    #[test]
    fn csv_output_written() {
        let dir = std::env::temp_dir().join("kpm_cli_test");
        let path = dir.join("dos.csv");
        let a = args(&[
            "--lattice",
            "chain:32",
            "--moments",
            "32",
            "--sets",
            "1",
            "--out",
            path.to_str().unwrap(),
        ]);
        let report = dos(&a).unwrap();
        assert!(report.contains("wrote"));
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("energy,rho\n"));
        assert!(content.lines().count() > 10);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn kernel_selection() {
        for k in ["jackson", "lorentz", "fejer", "dirichlet", "jacobi"] {
            let a = args(&["--lattice", "chain:16", "--moments", "16", "--kernel", k]);
            assert!(dos(&a).is_ok(), "kernel {k}");
        }
        let a = args(&["--lattice", "chain:16", "--kernel", "gibbs"]);
        assert!(dos(&a).is_err());
        // Jacobi(1/2, 1/2) *is* Jackson: identical reports.
        let jackson = dos(&args(&["--lattice", "chain:16", "--moments", "16"])).unwrap();
        let jacobi = dos(&args(&[
            "--lattice",
            "chain:16",
            "--moments",
            "16",
            "--kernel",
            "jacobi",
            "--alpha",
            "0.5",
            "--beta",
            "0.5",
        ]))
        .unwrap();
        assert_eq!(jackson, jacobi, "jacobi:0.5,0.5 must reproduce Jackson");
    }

    #[test]
    fn bounds_option_selects_provider() {
        // On a disordered chain the Lanczos window is strictly tighter than
        // the Gershgorin discs, so the reconstruction band shrinks.
        let base = ["--lattice", "chain:64", "--moments", "32", "--sets", "1", "--disorder", "6.0"];
        let run = |bounds: Option<&str>| {
            let mut words = base.to_vec();
            if let Some(b) = bounds {
                words.extend_from_slice(&["--bounds", b]);
            }
            dos(&args(&words)).unwrap()
        };
        let gersh = run(None);
        assert_eq!(gersh, run(Some("gershgorin")), "gershgorin is the default");
        let lanczos = run(Some("lanczos"));
        let band = |r: &str| {
            let line = r.lines().find(|l| l.contains("band")).unwrap().to_string();
            let lo: f64 = line.split(['[', ',']).nth(1).unwrap().trim().parse().unwrap();
            let hi: f64 = line.split([',', ']']).nth(1).unwrap().trim().parse().unwrap();
            hi - lo
        };
        assert!(band(&lanczos) < band(&gersh), "lanczos band must be tighter:\n{lanczos}\n{gersh}");
        // Manual bounds and bad grammar.
        assert!(run(Some("manual:-8,8")).contains("integral"));
        let mut words = base.to_vec();
        words.extend_from_slice(&["--bounds", "psychic"]);
        assert!(dos(&args(&words)).is_err());
    }

    #[test]
    fn resolution_autoselects_moments() {
        // Same target resolution, tighter bounds => fewer moments. Lanczos
        // on a disordered chain must pick a smaller N than Gershgorin.
        let n_of = |bounds: &str| {
            let a = args(&[
                "--lattice",
                "chain:64",
                "--disorder",
                "8.0",
                "--sets",
                "1",
                "--random",
                "2",
                "--resolution",
                "0.2",
                "--bounds",
                bounds,
            ]);
            workload(&a).unwrap().params.num_moments
        };
        let (n_g, n_l) = (n_of("gershgorin"), n_of("lanczos:48"));
        assert!(n_l < n_g, "lanczos N = {n_l} must beat gershgorin N = {n_g}");
        // Halving EPS doubles N (up to ceil rounding).
        let a = args(&["--lattice", "chain:64", "--disorder", "8.0", "--resolution", "0.1"]);
        let n_half = workload(&a).unwrap().params.num_moments;
        assert!(n_half >= 2 * n_g - 2, "eps/2: N {n_g} -> {n_half}");
        // The selected N drives a real run end to end.
        let a =
            args(&["--lattice", "chain:32", "--sets", "1", "--random", "2", "--resolution", "0.5"]);
        assert!(dos(&a).unwrap().contains("integral"));
        let a = args(&["--lattice", "chain:16", "--resolution", "zero"]);
        assert!(dos(&a).is_err(), "--resolution must be a positive number");
    }

    #[test]
    fn bounds_command_reports_providers_and_moment_counts() {
        let a = args(&["--lattice", "chain:48", "--disorder", "6.0", "--resolution", "0.1"]);
        let report = bounds(&a).unwrap();
        assert!(report.contains("gershgorin"), "{report}");
        assert!(report.contains("lanczos:64"), "{report}");
        assert!(report.contains("tightening"), "{report}");
        assert!(report.contains("fewer moments"), "{report}");
        // Positional lattice works like `kpm tune <lattice>`.
        let a = args(&["--disorder", "6.0"]);
        let report = run_with_positionals("bounds", &a, &["chain:32".to_string()]).unwrap();
        assert!(report.contains("32 x 32"), "{report}");
        let extra = ["chain:32".to_string(), "oops".to_string()];
        assert!(run_with_positionals("bounds", &a, &extra).is_err());
    }

    /// `--bounds` flows into the sharded job spec, and sharded runs remain
    /// byte-identical to unsharded ones under the non-default provider.
    #[test]
    fn shard_job_spec_carries_bounds_and_stays_bitwise() {
        let a = args(&["--lattice", "chain:16", "--bounds", "lanczos:24"]);
        let spec = shard_job_spec(&a).unwrap();
        assert_eq!(spec.bounds, BoundsMethod::Lanczos { steps: 24 });
        assert!(spec.canonical().contains("bounds=lanczos:24"), "{}", spec.canonical());

        let dir = std::env::temp_dir().join("kpm_cli_shard_bounds_test");
        std::fs::create_dir_all(&dir).unwrap();
        let run = |workers: Option<&str>| {
            let path = dir.join(format!("dos_{}.csv", workers.unwrap_or("plain")));
            let path_s = path.to_str().unwrap().to_string();
            let mut words = vec![
                "--lattice",
                "chain:48",
                "--disorder",
                "5.0",
                "--moments",
                "24",
                "--random",
                "3",
                "--sets",
                "2",
                "--seed",
                "11",
                "--bounds",
                "lanczos:32",
            ];
            if let Some(n) = workers {
                words.extend_from_slice(&["--local-workers", n]);
            }
            words.push("--out");
            words.push(&path_s);
            dos(&args(&words)).unwrap();
            std::fs::read(&path).unwrap()
        };
        let plain = run(None);
        for n in ["1", "3"] {
            assert_eq!(run(Some(n)), plain, "--local-workers {n} must match bytes under lanczos");
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn seed_makes_dos_ldos_evolve_deterministic() {
        // Same seeds reproduce bit-for-bit for every command; `--seed` only
        // *changes* the answer where randomness enters (the stochastic trace
        // in dos), while `--dseed` re-rolls the disorder realization
        // everywhere.
        for (cmd, base) in [
            (dos as fn(&Args) -> Result<String, CmdError>, vec!["--lattice", "chain:32"]),
            (ldos, vec!["--lattice", "chain:32", "--site", "5"]),
            (evolve, vec!["--lattice", "chain:32", "--time", "2", "--steps", "2"]),
        ] {
            let run = |seed: &'static str, dseed: &'static str| {
                let mut words = base.clone();
                words.extend_from_slice(&["--moments", "32", "--sets", "1", "--disorder", "2.0"]);
                words.extend_from_slice(&["--seed", seed, "--dseed", dseed]);
                cmd(&args(&words)).unwrap()
            };
            assert_eq!(run("7", "3"), run("7", "3"), "same seeds must reproduce");
            assert_ne!(run("7", "3"), run("7", "4"), "different disorder seed must differ");
        }
        let dos_with_seed = |s: &'static str| {
            let a = args(&["--lattice", "chain:32", "--moments", "32", "--sets", "1", "--seed", s]);
            dos(&a).unwrap()
        };
        assert_ne!(dos_with_seed("7"), dos_with_seed("8"), "dos must respond to --seed");
    }

    #[test]
    fn exit_codes_are_distinct_per_variant() {
        let errors = [
            CmdError::Other("x".into()),
            CmdError::Args(ArgError::Required("k".into())),
            CmdError::Spec(crate::spec::LatticeSpec::parse("blob:3").unwrap_err()),
            CmdError::Kpm(KpmError::DegenerateSpectrum),
            CmdError::Io(std::io::Error::other("disk")),
            CmdError::Jobs { failed: 1, report: "r".into() },
            CmdError::Shard(kpm_shard::ShardError::Io("net".into())),
            CmdError::Net(kpm_net::NetError::Io("refused".into())),
            CmdError::Fleet(kpm_fleet::FleetError::Stopped),
        ];
        let codes: Vec<u8> = errors.iter().map(CmdError::exit_code).collect();
        assert_eq!(codes, vec![1, 2, 3, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn fleet_errors_convert_and_exit_9() {
        for e in [
            kpm_fleet::FleetError::Journal("disk full".into()),
            kpm_fleet::FleetError::NoWorkers { pending: 2, last_loss: None },
            kpm_fleet::FleetError::Stopped,
        ] {
            let text = e.to_string();
            let cmd: CmdError = e.into();
            assert!(matches!(cmd, CmdError::Fleet(_)));
            assert_eq!(cmd.exit_code(), 9);
            assert_eq!(cmd.to_string(), text, "Display must pass through");
        }
    }

    #[test]
    fn shard_errors_convert_and_exit_7() {
        for e in [
            kpm_shard::ShardError::Io("refused".into()),
            kpm_shard::ShardError::Protocol("bad magic".into()),
            kpm_shard::ShardError::Job("bad spec".into()),
            kpm_shard::ShardError::Worker { shard: 1, message: "degenerate".into() },
            kpm_shard::ShardError::AllWorkersDead { pending: 3, last_loss: None },
            kpm_shard::ShardError::ShardFailed { shard: 0, attempts: 8 },
        ] {
            let text = e.to_string();
            let cmd: CmdError = e.into();
            assert!(matches!(cmd, CmdError::Shard(_)));
            assert_eq!(cmd.exit_code(), 7);
            assert_eq!(cmd.to_string(), text, "Display must pass through");
        }
    }

    #[test]
    fn net_errors_convert_and_exit_8() {
        for e in [
            kpm_net::NetError::Io("connection refused".into()),
            kpm_net::NetError::Protocol("bad magic".into()),
            kpm_net::NetError::Rejected { retry_after_ms: 50, reason: "queue full".into() },
            kpm_net::NetError::Server("step 1 failed".into()),
        ] {
            let text = e.to_string();
            let cmd: CmdError = e.into();
            assert!(matches!(cmd, CmdError::Net(_)));
            assert_eq!(cmd.exit_code(), 8);
            assert_eq!(cmd.to_string(), text, "Display must pass through");
        }
    }

    #[test]
    fn stream_and_serve_errors_convert_into_cmd_error() {
        let e: CmdError = kpm_stream::EngineError::Kpm(KpmError::DegenerateSpectrum).into();
        assert!(matches!(e, CmdError::Kpm(_)), "engine KPM errors keep exit code 4");
        assert_eq!(e.exit_code(), 4);
        let e: CmdError =
            kpm_stream::EngineError::Sim(kpm_streamsim::SimError::InvalidBuffer).into();
        assert_eq!(e.exit_code(), 1);
        let e: CmdError = kpm_serve::JobError::Panicked("boom".into()).into();
        assert!(e.to_string().contains("boom"));
        assert_eq!(e.exit_code(), 1);
    }

    // The trace session is process-global; tests that begin one serialize
    // on this lock.
    static TRACE_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn trace_file_has_versioned_schema_with_nested_phase_spans() {
        let _guard = TRACE_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());

        let dir = std::env::temp_dir().join("kpm_cli_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        let a = args(&[
            "--lattice",
            "chain:256",
            "--moments",
            "128",
            "--sets",
            "1",
            "--resolution",
            "0.05",
            "--trace",
            path.to_str().unwrap(),
        ]);
        let out = run_with_positionals("dos", &a, &[]).unwrap();
        assert!(out.contains("integral"), "{out}");
        assert!(!obs::enabled(), "tracing must be disabled after the run");

        let text = std::fs::read_to_string(&path).unwrap();
        let value = obs::json::parse(&text).expect("trace file must be valid JSON");
        assert_eq!(value.get("version").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(value.get("command").and_then(|v| v.as_str()), Some("dos"));
        let wall = value.get("wall_us").and_then(|v| v.as_u64()).expect("wall_us");
        let spans = value.get("spans").and_then(|v| v.as_array()).expect("spans array");
        assert!(value.get("counters").and_then(|v| v.as_object()).is_some(), "counters object");

        // Every span carries the full field set, starts monotonically in
        // record order, and fits inside the session wall time.
        let mut prev_start = 0u64;
        for span in spans {
            for field in ["name", "start_us", "dur_us", "parent"] {
                assert!(span.get(field).is_some(), "span missing '{field}':\n{text}");
            }
            let start = span.get("start_us").unwrap().as_u64().unwrap();
            let dur = span.get("dur_us").unwrap().as_u64().unwrap();
            assert!(start >= prev_start, "start_us must be monotonic:\n{text}");
            assert!(start + dur <= wall, "span must end within the session:\n{text}");
            prev_start = start;
        }

        // The labeled root span encloses the per-phase spans.
        let name = |i: usize| spans[i].get("name").unwrap().as_str().unwrap();
        assert_eq!(name(0), "cli.command");
        assert_eq!(spans[0].get("detail").and_then(|v| v.as_str()), Some("dos"));
        assert!(spans[0].get("parent").unwrap().is_null());
        for phase in ["cli.workload", "kpm.rescale", "kpm.moments", "kpm.reconstruct"] {
            let idx = (0..spans.len())
                .find(|&i| name(i) == phase)
                .unwrap_or_else(|| panic!("missing span '{phase}':\n{text}"));
            // Walk the parent chain up to the root.
            let mut at = idx;
            while let Some(p) = spans[at].get("parent").unwrap().as_u64() {
                at = p as usize;
            }
            assert_eq!(at, 0, "'{phase}' must nest under cli.command:\n{text}");
        }

        // The bounds seam surfaces the chosen rescale window: a `kpm.bounds`
        // span labeled with the interval, plus the probe counter and the
        // `--resolution`-selected moment count.
        let bidx = (0..spans.len())
            .find(|&i| name(i) == "kpm.bounds")
            .unwrap_or_else(|| panic!("missing span 'kpm.bounds':\n{text}"));
        let detail = spans[bidx].get("detail").and_then(|v| v.as_str()).unwrap();
        assert!(detail.contains("a_plus="), "kpm.bounds detail: {detail}");
        assert!(detail.contains("a_minus="), "kpm.bounds detail: {detail}");
        let counters = value.get("counters").and_then(|v| v.as_object()).unwrap();
        let counter = |k: &str| {
            counters
                .iter()
                .find(|(name, _)| name == k)
                .and_then(|(_, v)| v.as_u64())
                .unwrap_or_else(|| panic!("missing counter '{k}':\n{text}"))
        };
        assert!(counter("kpm.bounds.probe") >= 1, "{text}");
        assert!(counter("kpm.bounds.n_moments") >= 2, "{text}");

        // The recorded phases account for the bulk of the wall time (the
        // acceptance criterion is >= 90% for the paper workload; use a
        // conservative floor here so a tiny test lattice stays robust).
        let phase_total: u64 = spans
            .iter()
            .filter(|s| s.get("name").unwrap().as_str().unwrap().starts_with("kpm."))
            .map(|s| s.get("dur_us").unwrap().as_u64().unwrap())
            .sum();
        assert!(phase_total * 2 >= wall, "kpm.* spans cover {phase_total} of {wall} us:\n{text}");

        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn jobs_error_displays_report_and_count() {
        let e = CmdError::Jobs { failed: 2, report: "table".into() };
        let text = e.to_string();
        assert!(text.contains("table"));
        assert!(text.contains("2 job(s) failed"));
    }

    #[test]
    fn positionals_rejected_outside_batch() {
        let pos = vec!["stray".to_string()];
        let e = run_with_positionals("dos", &args(&[]), &pos).unwrap_err();
        assert!(matches!(e, CmdError::Args(ArgError::UnexpectedPositional(_))));
    }

    #[test]
    fn shard_engine_selection_from_flags() {
        assert!(shard_engine(&args(&[])).unwrap().is_none(), "no flags, no engine");
        // Numeric --workers keeps its batch/serve thread-pool meaning.
        assert!(shard_engine(&args(&["--workers", "4"])).unwrap().is_none());
        let e = shard_engine(&args(&["--local-workers", "3"])).unwrap().unwrap();
        assert_eq!(*e.workers(), kpm_shard::WorkerSet::Local(3));
        let e = shard_engine(&args(&["--workers", "a:1, b:2"])).unwrap().unwrap();
        assert_eq!(
            *e.workers(),
            kpm_shard::WorkerSet::Tcp(vec!["a:1".to_string(), "b:2".to_string()])
        );
        for bad in [
            vec!["--local-workers", "0"],
            vec!["--local-workers", "many"],
            vec!["--local-workers", "2", "--workers", "a:1"],
        ] {
            assert!(shard_engine(&args(&bad)).is_err(), "{bad:?} must be rejected");
        }
    }

    /// The distributed acceptance criterion: for a fixed `--seed`, sharded
    /// runs write byte-identical CSVs to the unsharded run, for any worker
    /// count.
    #[test]
    fn local_workers_write_byte_identical_csvs() {
        let dir = std::env::temp_dir().join("kpm_cli_shard_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        for (cmd, extra, name) in [
            (dos as fn(&Args) -> Result<String, CmdError>, vec![], "dos"),
            (ldos, vec!["--site", "7"], "ldos"),
        ] {
            let run = |workers: Option<&str>| {
                let path = dir.join(format!("{name}_{}.csv", workers.unwrap_or("plain")));
                let mut words = vec![
                    "--lattice",
                    "chain:48",
                    "--moments",
                    "24",
                    "--random",
                    "3",
                    "--sets",
                    "2",
                    "--seed",
                    "11",
                ];
                words.extend_from_slice(&extra);
                if let Some(n) = workers {
                    words.extend_from_slice(&["--local-workers", n]);
                }
                let path_s = path.to_str().unwrap().to_string();
                words.push("--out");
                words.push(&path_s);
                cmd(&args(&words)).unwrap();
                std::fs::read(&path).unwrap()
            };
            let plain = run(None);
            for n in ["1", "2", "4"] {
                assert_eq!(run(Some(n)), plain, "{name} --local-workers {n} must match bytes");
            }
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Same criterion over real TCP: two `kpm worker --once`-style listeners
    /// on localhost, addressed via `--workers a,b`.
    #[test]
    fn tcp_workers_write_byte_identical_dos_csv() {
        let dir = std::env::temp_dir().join("kpm_cli_shard_tcp_test");
        std::fs::create_dir_all(&dir).unwrap();
        let base = vec![
            "--lattice",
            "chain:48",
            "--moments",
            "24",
            "--random",
            "3",
            "--sets",
            "2",
            "--seed",
            "11",
        ];

        let plain_path = dir.join("plain.csv");
        let mut words = base.clone();
        words.extend_from_slice(&["--out", plain_path.to_str().unwrap()]);
        dos(&args(&words)).unwrap();

        let mut addrs = Vec::new();
        let mut servers = Vec::new();
        for _ in 0..2 {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            addrs.push(listener.local_addr().unwrap().to_string());
            servers.push(std::thread::spawn(move || {
                kpm_shard::serve_listener(&listener, true).unwrap();
            }));
        }
        let addr_list = addrs.join(",");
        let tcp_path = dir.join("tcp.csv");
        let mut words = base.clone();
        words.extend_from_slice(&["--workers", &addr_list, "--out", tcp_path.to_str().unwrap()]);
        let report = dos(&args(&words)).unwrap();
        assert!(report.contains("2 tcp worker(s)"), "{report}");
        for s in servers {
            s.join().unwrap();
        }

        assert_eq!(std::fs::read(&tcp_path).unwrap(), std::fs::read(&plain_path).unwrap());
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Golden trace schema for distributed runs: `shard.*` spans nest under
    /// the command span and the pinned counter names are present.
    #[test]
    fn trace_of_sharded_run_records_shard_spans_and_counters() {
        let _guard = TRACE_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());

        let dir = std::env::temp_dir().join("kpm_cli_shard_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        let a = args(&[
            "--lattice",
            "chain:48",
            "--moments",
            "16",
            "--random",
            "3",
            "--sets",
            "2",
            "--local-workers",
            "2",
            "--trace",
            path.to_str().unwrap(),
        ]);
        run_with_positionals("dos", &a, &[]).unwrap();

        let text = std::fs::read_to_string(&path).unwrap();
        let value = obs::json::parse(&text).expect("trace file must be valid JSON");
        let spans = value.get("spans").and_then(|v| v.as_array()).expect("spans array");
        let name = |i: usize| spans[i].get("name").unwrap().as_str().unwrap();
        for phase in ["shard.run", "shard.merge"] {
            let idx = (0..spans.len())
                .find(|&i| name(i) == phase)
                .unwrap_or_else(|| panic!("missing span '{phase}':\n{text}"));
            let mut at = idx;
            while let Some(p) = spans[at].get("parent").unwrap().as_u64() {
                at = p as usize;
            }
            assert_eq!(at, 0, "'{phase}' must nest under cli.command:\n{text}");
        }

        let counters = value.get("counters").and_then(|v| v.as_object()).expect("counters");
        let get = |k: &str| {
            counters
                .iter()
                .find(|(name, _)| name == k)
                .and_then(|(_, v)| v.as_u64())
                .unwrap_or_else(|| panic!("missing counter '{k}':\n{text}"))
        };
        // 2 workers x shards_per_worker 2, capped by 6 total realizations.
        assert_eq!(get("shard.completed"), 4);
        assert_eq!(get("shard.worker.completed"), 4);
        assert!(get("shard.dispatched") >= get("shard.completed"), "{text}");
        assert!(get("shard.inflight.peak") >= 1, "{text}");
        // The reconstruct-side bounds resolution goes through the same
        // instrumented seam as the single-process path.
        assert!(get("kpm.bounds.probe") >= 1, "{text}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn exec_options_validate_before_mutating_globals() {
        // Bad values are rejected up front — the process-global policy and
        // thread budget are untouched, so the remaining (parallel) tests in
        // this binary keep running under the default Auto plan.
        let before = exec_policy();
        let e = run("dos", &args(&["--lattice", "chain:16", "--exec", "warp"])).unwrap_err();
        assert!(e.to_string().contains("--exec"), "{e}");
        let e = run("dos", &args(&["--lattice", "chain:16", "--threads", "many"])).unwrap_err();
        assert!(matches!(e, CmdError::Args(ArgError::BadValue { .. })), "{e}");
        assert_eq!(exec_policy(), before, "failed parses must not change the policy");
        // The accepted spellings round-trip through FromStr without touching
        // the global (policy application itself is pinned in kpm's tests).
        for v in ["auto", "rows", "hybrid"] {
            assert_eq!(v.parse::<ExecPolicy>().unwrap().to_string(), v);
        }
        assert!("warp".parse::<ExecPolicy>().is_err());
        assert!("realizations".parse::<ExecPolicy>().is_err());
    }

    #[test]
    fn disorder_option() {
        let a = args(&["--lattice", "square:6,6", "--moments", "32", "--disorder", "3.0"]);
        assert!(dos(&a).is_ok());
        let a = args(&["--lattice", "square:6,6", "--disorder", "lots"]);
        assert!(dos(&a).is_err());
    }
}

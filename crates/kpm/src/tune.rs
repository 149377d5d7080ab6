//! Measured execution profiles: the micro-calibration harness behind
//! [`exec::plan_for`].
//!
//! The paper's GPU speedup comes from matching the launch shape to the
//! machine balance, not from a formula — Zhang et al. sweep `BLOCK_SIZE`
//! per device, and Weiße et al. note the sparse recursion is bandwidth
//! bound and shape sensitive. This module is the CPU analogue: on first
//! contact with an operator *shape* it times a short probe sweep over the
//! value-safe corner of the `(tile rows × ExecPolicy)` space using the real
//! tiled engine, and persists the winner as an [`ExecProfile`] in a
//! content-addressed [`ProfileStore`] (in-memory LRU front, optional
//! `results/profiles/` directory behind it). [`exec::plan_for`] consults
//! the store under `ExecPolicy::Auto`; the static heuristic in
//! [`exec::plan_with`] is demoted to the cold-start prior, and an explicit
//! `--exec` policy bypasses calibration entirely.
//!
//! # Determinism
//!
//! Calibration must never change a bit of the result, so the probe sweep is
//! restricted to axes the engine guarantees are value-free:
//!
//! * **Policy / thread splits** — Rows and Hybrid are scheduling-only
//!   reshapes of the same canonical reduction; thread counts never change
//!   bits.
//! * **Tile rows on the canonical grid** — any multiple of
//!   [`kpm_linalg::DEFAULT_TILE_ROWS`] is bitwise identical to the default
//!   (the tiled engine pins dot association to fixed 128-row segments, see
//!   [`kpm_linalg::tiled::tile_rows_is_value_safe`]).
//!
//! [`ExecProfile::plan`] re-checks the tile height at use, and keeps
//! operators below [`ROW_MIN_DIM`] on one thread whatever profile is stored.
//!
//! # Keys
//!
//! Profiles are keyed by FNV-1a over the canonical [`ProbeShape`] string —
//! the same hash family serve's `JobSpec::content_hash` uses. The shape
//! holds `(dim, model entries, chunks, threads)`: every field serve's
//! cache-key masking *ignores* (moment count, kernel, priority, …) is also
//! absent here, so two jobs equal under masking resolve the same profile.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use kpm_linalg::tiled::{self, TiledOp};
use kpm_linalg::DEFAULT_TILE_ROWS;

use crate::exec::{self, ExecPlan, ExecPolicy, ROW_MIN_DIM};
use crate::random::{fill_random_rows, Distribution};

/// FNV-1a 64-bit — the same constants as serve's `JobSpec` content hashes,
/// so profile keys live in the operator `content_hash` family.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The operator shape a profile is calibrated for.
///
/// `entries` is [`kpm_linalg::op::LinearOp::model_entries`] — the
/// performance-model entry count, so the CSR and stencil encodings of the
/// same lattice (`nnz` against `0` streamed entries) get distinct profiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProbeShape {
    /// Operator dimension `D`.
    pub dim: usize,
    /// Modeled stored entries.
    pub entries: usize,
    /// Realization chunk count of the run being planned.
    pub chunks: usize,
    /// Effective thread budget the profile was measured under.
    pub threads: usize,
}

impl ProbeShape {
    /// Canonical string the content key is hashed over.
    pub fn canonical(&self) -> String {
        format!(
            "probe/v1;dim={};entries={};chunks={};threads={}",
            self.dim, self.entries, self.chunks, self.threads
        )
    }

    /// Content-addressed store key.
    pub fn key(&self) -> u64 {
        fnv1a(self.canonical().as_bytes())
    }
}

/// Where a stored profile came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProfileOrigin {
    /// Won a timed probe sweep on this machine.
    #[default]
    Measured,
    /// Cold-start prior (the static heuristic), recorded without timing.
    Prior,
}

impl ProfileOrigin {
    /// Canonical lower-case name.
    pub fn as_str(&self) -> &'static str {
        match self {
            ProfileOrigin::Measured => "measured",
            ProfileOrigin::Prior => "prior",
        }
    }
}

impl std::str::FromStr for ProfileOrigin {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "measured" => Ok(ProfileOrigin::Measured),
            "prior" => Ok(ProfileOrigin::Prior),
            other => Err(format!("unknown profile origin '{other}'")),
        }
    }
}

/// A calibrated execution profile: the winning plan for one [`ProbeShape`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecProfile {
    /// The shape this profile was measured for.
    pub shape: ProbeShape,
    /// Winning policy (`Rows` or `Hybrid`).
    pub policy: ExecPolicy,
    /// Hybrid outer split (0 when not applicable).
    pub outer: usize,
    /// Winning tile height (a canonical-grid multiple when measured).
    pub tile_rows: usize,
    /// Probe time of the winner in nanoseconds (0 for priors).
    pub probe_nanos: u64,
    /// Measured or prior.
    pub origin: ProfileOrigin,
}

impl ExecProfile {
    /// Resolves the profile into a concrete [`ExecPlan`] for `threads`.
    ///
    /// Applies the tile-rows precedence (env > profile > prior) via
    /// [`exec::resolve_tile_rows`], discards off-grid (value-affecting)
    /// recorded tile heights, and keeps an operator below [`ROW_MIN_DIM`]
    /// on one thread, as the static prior does — so a stale or hand-edited
    /// profile can degrade performance but never correctness.
    pub fn plan(&self, threads: usize) -> ExecPlan {
        let safe = Some(self.tile_rows).filter(|&tr| tiled::tile_rows_is_value_safe(tr));
        let tr = exec::resolve_tile_rows(safe);
        if self.shape.dim < ROW_MIN_DIM {
            return ExecPlan::Rows { threads: 1, tile_rows: tr };
        }
        let threads = threads.max(1);
        match self.policy {
            ExecPolicy::Hybrid if self.outer >= 2 && threads >= 2 => {
                let outer = self.outer.clamp(2, threads);
                let inner = (threads / outer).max(1);
                ExecPlan::Hybrid { outer, inner, tile_rows: tr }
            }
            _ => ExecPlan::Rows { threads, tile_rows: tr },
        }
    }

    /// Serializes to the on-disk text format (`kpm-profile v1` header plus
    /// `key=value` lines).
    pub fn to_text(&self) -> String {
        format!(
            "kpm-profile v1\n\
             dim={}\nentries={}\nchunks={}\nthreads={}\n\
             policy={}\nouter={}\ntile_rows={}\n\
             probe_nanos={}\norigin={}\n",
            self.shape.dim,
            self.shape.entries,
            self.shape.chunks,
            self.shape.threads,
            self.policy.as_str(),
            self.outer,
            self.tile_rows,
            self.probe_nanos,
            self.origin.as_str(),
        )
    }

    /// Parses the text format. Unknown keys are tolerated (forward
    /// compatibility, and the `variant` line older profiles carry); a bad
    /// header, malformed line, unparsable value (such as the retired
    /// `policy=realizations`), or a missing required field is an error —
    /// callers treat that as "no profile", never as fatal.
    pub fn from_text(text: &str) -> Result<ExecProfile, String> {
        let mut lines = text.lines();
        if lines.next().map(str::trim) != Some("kpm-profile v1") {
            return Err("missing 'kpm-profile v1' header".into());
        }
        let mut dim = None;
        let mut entries = None;
        let mut chunks = None;
        let mut threads = None;
        let mut policy = None;
        let mut outer = 0usize;
        let mut tile_rows = None;
        let mut probe_nanos = 0u64;
        let mut origin = ProfileOrigin::Measured;
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (k, v) = line.split_once('=').ok_or_else(|| format!("malformed line '{line}'"))?;
            let parse_usize =
                |v: &str| v.parse::<usize>().map_err(|_| format!("bad value for {k}: '{v}'"));
            match k {
                "dim" => dim = Some(parse_usize(v)?),
                "entries" => entries = Some(parse_usize(v)?),
                "chunks" => chunks = Some(parse_usize(v)?),
                "threads" => threads = Some(parse_usize(v)?),
                "policy" => policy = Some(v.parse::<ExecPolicy>()?),
                "outer" => outer = parse_usize(v)?,
                "tile_rows" => tile_rows = Some(parse_usize(v)?),
                "probe_nanos" => {
                    probe_nanos =
                        v.parse::<u64>().map_err(|_| format!("bad value for {k}: '{v}'"))?
                }
                "origin" => origin = v.parse::<ProfileOrigin>()?,
                _ => {} // unknown keys tolerated
            }
        }
        let shape = ProbeShape {
            dim: dim.ok_or("missing dim")?,
            entries: entries.ok_or("missing entries")?,
            chunks: chunks.ok_or("missing chunks")?,
            threads: threads.ok_or("missing threads")?,
        };
        Ok(ExecProfile {
            shape,
            policy: policy.ok_or("missing policy")?,
            outer,
            tile_rows: tile_rows.ok_or("missing tile_rows")?,
            probe_nanos,
            origin,
        })
    }
}

struct StoreInner {
    map: HashMap<u64, ExecProfile>,
    /// LRU order, most recently used last.
    order: Vec<u64>,
    capacity: usize,
    dir: Option<PathBuf>,
    /// Keys whose disk lookup already failed — memoized so a shape absent
    /// from the store costs one `read_to_string` per process, not one per
    /// job (serve workers resolve profiles on every job). Cleared whenever
    /// the directory changes or an insert lands.
    absent: HashSet<u64>,
}

/// Content-addressed profile store: an in-memory LRU front over an optional
/// on-disk directory of `<key>.profile` text files.
pub struct ProfileStore {
    inner: Mutex<StoreInner>,
}

/// In-memory LRU capacity of the global store.
const STORE_CAPACITY: usize = 64;

impl ProfileStore {
    /// An empty store with the given LRU capacity and no backing directory.
    pub fn new(capacity: usize) -> Self {
        ProfileStore {
            inner: Mutex::new(StoreInner {
                map: HashMap::new(),
                order: Vec::new(),
                capacity: capacity.max(1),
                dir: None,
                absent: HashSet::new(),
            }),
        }
    }

    /// Points the store at a persistence directory (created on first
    /// insert), or detaches it with `None`. Existing memory entries stay;
    /// memoized negative disk lookups are forgotten (the new directory may
    /// hold what the old one lacked).
    pub fn set_dir(&self, dir: Option<PathBuf>) {
        let mut inner = self.inner.lock().unwrap();
        inner.dir = dir;
        inner.absent.clear();
    }

    /// The current persistence directory, if any.
    pub fn dir(&self) -> Option<PathBuf> {
        self.inner.lock().unwrap().dir.clone()
    }

    /// Looks up `key`: memory first, then the backing directory. A disk hit
    /// is promoted into memory (counted as `kpm.tune.disk_hit`) so the file
    /// is read once per shape, not once per job; a disk *miss* is memoized
    /// the same way, so an absent shape stops touching the filesystem after
    /// the first lookup. Unreadable or key-mismatched entries (a
    /// hand-edited file, or one naming a retired policy) are ignored.
    pub fn get(&self, key: u64) -> Option<ExecProfile> {
        let mut inner = self.inner.lock().unwrap();
        if let Some(p) = inner.map.get(&key).cloned() {
            touch(&mut inner.order, key);
            return Some(p);
        }
        if inner.absent.contains(&key) {
            return None;
        }
        let path = inner.dir.as_ref().map(|d| profile_path(d, key))?;
        drop(inner);
        let loaded = std::fs::read_to_string(path)
            .ok()
            .and_then(|text| ExecProfile::from_text(&text).ok())
            .filter(|p| p.shape.key() == key);
        let mut inner = self.inner.lock().unwrap();
        match loaded {
            Some(profile) => {
                if kpm_obs::enabled() {
                    kpm_obs::counter_add("kpm.tune.disk_hit", 1);
                }
                insert_mem(&mut inner, key, profile.clone());
                Some(profile)
            }
            None => {
                inner.absent.insert(key);
                None
            }
        }
    }

    /// Inserts a profile, persisting it when a directory is attached. Disk
    /// errors are non-fatal (the memory front still works).
    pub fn insert(&self, profile: ExecProfile) {
        let key = profile.shape.key();
        let mut inner = self.inner.lock().unwrap();
        let dir = inner.dir.clone();
        inner.absent.remove(&key);
        insert_mem(&mut inner, key, profile.clone());
        drop(inner);
        if let Some(dir) = dir {
            let _ = std::fs::create_dir_all(&dir);
            let _ = std::fs::write(profile_path(&dir, key), profile.to_text());
        }
    }

    /// Drops every in-memory entry (disk files stay). Test hook and the
    /// `--profile-store` re-pointing path. Negative disk memoization is
    /// dropped too, so a later lookup re-consults the directory.
    pub fn clear_memory(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.map.clear();
        inner.order.clear();
        inner.absent.clear();
    }

    /// Keys of every in-memory profile, unordered — the fleet inventory
    /// advertisement ([`crate::tune`] profiles a worker already holds).
    pub fn keys(&self) -> Vec<u64> {
        self.inner.lock().unwrap().map.keys().copied().collect()
    }

    /// Number of in-memory entries.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().map.len()
    }

    /// Whether the memory front is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn profile_path(dir: &Path, key: u64) -> PathBuf {
    dir.join(format!("{key:016x}.profile"))
}

fn touch(order: &mut Vec<u64>, key: u64) {
    if let Some(pos) = order.iter().position(|&k| k == key) {
        order.remove(pos);
    }
    order.push(key);
}

fn insert_mem(inner: &mut StoreInner, key: u64, profile: ExecProfile) {
    inner.map.insert(key, profile);
    touch(&mut inner.order, key);
    while inner.map.len() > inner.capacity {
        let evict = inner.order.remove(0);
        inner.map.remove(&evict);
    }
}

/// The process-wide profile store (LRU capacity 64, no backing directory
/// until [`set_profile_dir`] attaches one).
pub fn store() -> &'static ProfileStore {
    static STORE: OnceLock<ProfileStore> = OnceLock::new();
    STORE.get_or_init(|| ProfileStore::new(STORE_CAPACITY))
}

/// Points the global store at a persistence directory (`--profile-store`).
pub fn set_profile_dir(dir: Option<PathBuf>) {
    store().set_dir(dir);
}

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Enables or disables calibration globally (`--no-tune`). When disabled,
/// lookups and probes are skipped and planning falls back to the static
/// prior.
pub fn set_tuning_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether calibration is enabled (default: yes).
pub fn tuning_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The profile-store lookup behind [`exec::plan_for`]: returns the
/// calibrated plan for the shape, or `None` on a cold start (caller falls
/// back to the static prior). Counts `kpm.tune.hit` on success.
pub fn calibrated_plan(
    dim: usize,
    entries: usize,
    chunks: usize,
    threads: usize,
) -> Option<ExecPlan> {
    if !tuning_enabled() {
        return None;
    }
    let shape = ProbeShape { dim, entries, chunks, threads };
    let profile = store().get(shape.key())?;
    if profile.shape != shape {
        return None; // hash collision — never apply another shape's plan
    }
    if kpm_obs::enabled() {
        kpm_obs::counter_add("kpm.tune.hit", 1);
    }
    Some(profile.plan(threads))
}

/// Resolves (probing if necessary) the profile for `op` split into `chunks`
/// realization chunks under the current thread budget, and stores it.
///
/// * Cached shape → counted as `kpm.tune.hit`, no probe.
/// * `dim < ROW_MIN_DIM` → the one-thread prior is recorded without timing
///   (probing microsecond tiles measures noise).
/// * Otherwise → a timed probe sweep (`kpm.tune.probe`) over the value-safe
///   candidates; the winner is persisted.
///
/// With tuning disabled this is a pure function of the static heuristic and
/// touches neither counters nor the store.
pub fn ensure_profile<A: TiledOp + Sync + ?Sized>(op: &A, chunks: usize) -> ExecProfile {
    let threads = exec::effective_threads();
    let shape =
        ProbeShape { dim: op.dim(), entries: op.model_entries(), chunks: chunks.max(1), threads };
    if !tuning_enabled() {
        return prior_profile(shape);
    }
    if let Some(p) = store().get(shape.key()) {
        if p.shape == shape {
            if kpm_obs::enabled() {
                kpm_obs::counter_add("kpm.tune.hit", 1);
            }
            return p;
        }
    }
    let profile = if shape.dim < ROW_MIN_DIM { prior_profile(shape) } else { probe(op, shape) };
    store().insert(profile.clone());
    profile
}

/// The static heuristic recorded as a profile (origin `Prior`, no timing).
pub fn prior_profile(shape: ProbeShape) -> ExecProfile {
    let plan = exec::plan_with(
        ExecPolicy::Auto,
        shape.dim,
        shape.chunks,
        shape.threads,
        exec::tile_rows(),
    );
    let (policy, outer, tile_rows) = match plan {
        ExecPlan::Rows { tile_rows, .. } => (ExecPolicy::Rows, 0, tile_rows),
        ExecPlan::Hybrid { outer, tile_rows, .. } => (ExecPolicy::Hybrid, outer, tile_rows),
    };
    ExecProfile { shape, policy, outer, tile_rows, probe_nanos: 0, origin: ProfileOrigin::Prior }
}

/// Probe workload: two start columns, eight moments (four doubling sweeps,
/// as the jobs run) — enough to leave the cache-cold regime, short enough
/// to stay a micro-benchmark.
const PROBE_COLUMNS: usize = 2;
const PROBE_MOMENTS: usize = 8;

/// One timed candidate of the probe sweep.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    policy: ExecPolicy,
    outer: usize,
    tile_rows: usize,
}

/// Times a short probe sweep over the value-safe candidate grid and returns
/// the winner. Counts `kpm.tune.probe` once per sweep.
fn probe<A: TiledOp + Sync + ?Sized>(op: &A, shape: ProbeShape) -> ExecProfile {
    if kpm_obs::enabled() {
        kpm_obs::counter_add("kpm.tune.probe", 1);
    }
    let d = shape.dim;
    let (k, n) = (PROBE_COLUMNS, PROBE_MOMENTS);
    let mut r0 = vec![0.0f64; d * k];
    // Rademacher and row-interleaved, as every job's start block; each run
    // takes a copy of it. Seed spells "probe" in ASCII.
    fill_random_rows(Distribution::Rademacher, 0x0070_726f_6265, 0, 0..k, &mut r0);

    // Canonical-grid tile heights only (value-safe by construction); larger
    // multiples are pointless once a tile spans the whole operator.
    let tiles: Vec<usize> = [1usize, 2, 4]
        .iter()
        .map(|m| m * DEFAULT_TILE_ROWS)
        .filter(|&tr| tr == DEFAULT_TILE_ROWS || tr < 2 * d)
        .collect();
    let mut candidates: Vec<Candidate> = tiles
        .iter()
        .map(|&tr| Candidate { policy: ExecPolicy::Rows, outer: 0, tile_rows: tr })
        .collect();
    if shape.chunks >= 2 && shape.threads >= 2 {
        let mut outers = vec![2, shape.threads / 2, shape.chunks.min(shape.threads)];
        outers.retain(|&o| o >= 2);
        outers.sort_unstable();
        outers.dedup();
        for o in outers {
            candidates.push(Candidate {
                policy: ExecPolicy::Hybrid,
                outer: o,
                tile_rows: DEFAULT_TILE_ROWS,
            });
        }
    }

    let time_candidate = |c: &Candidate| -> Duration {
        let run_rows = |threads: usize, tr: usize| {
            std::hint::black_box(tiled::fused_interleaved_moments_doubling(
                op,
                r0.clone(),
                k,
                n,
                threads,
                tr,
            ));
        };
        let run = || match c.policy {
            ExecPolicy::Hybrid => {
                // Model the hybrid split: `outer` concurrent chunk workers,
                // each on its share of the threads.
                let inner = (shape.threads / c.outer).max(1);
                std::thread::scope(|s| {
                    for _ in 1..c.outer {
                        s.spawn(|| run_rows(inner, c.tile_rows));
                    }
                    run_rows(inner, c.tile_rows);
                });
            }
            _ => run_rows(shape.threads, c.tile_rows),
        };
        // Min of two reps — robust against a stray scheduling hiccup while
        // keeping the sweep in the tens of milliseconds.
        let mut best = Duration::MAX;
        for _ in 0..2 {
            let t0 = Instant::now();
            run();
            best = best.min(t0.elapsed());
        }
        best
    };

    // One untimed warmup on the default shape pulls the operator through
    // the cache hierarchy so candidate order doesn't bias the sweep.
    std::hint::black_box(tiled::fused_interleaved_moments_doubling(
        op,
        r0.clone(),
        k,
        n,
        shape.threads,
        DEFAULT_TILE_ROWS,
    ));

    let mut best = candidates[0];
    let mut best_t = Duration::MAX;
    for c in &candidates {
        let t = time_candidate(c);
        if t < best_t {
            best_t = t;
            best = *c;
        }
    }

    ExecProfile {
        shape,
        policy: best.policy,
        outer: best.outer,
        tile_rows: best.tile_rows,
        probe_nanos: best_t.as_nanos().min(u128::from(u64::MAX)) as u64,
        origin: ProfileOrigin::Measured,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measured(dim: usize, entries: usize) -> ExecProfile {
        ExecProfile {
            shape: ProbeShape { dim, entries, chunks: 4, threads: 8 },
            policy: ExecPolicy::Rows,
            outer: 0,
            tile_rows: 2 * DEFAULT_TILE_ROWS,
            probe_nanos: 1234,
            origin: ProfileOrigin::Measured,
        }
    }

    #[test]
    fn text_round_trip_preserves_every_field() {
        let p = measured(1000, 6400);
        let back = ExecProfile::from_text(&p.to_text()).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn from_text_tolerates_unknown_keys_and_rejects_garbage() {
        let p = measured(1000, 6400);
        let mut text = p.to_text();
        text.push_str("future_field=whatever\n");
        assert_eq!(ExecProfile::from_text(&text).unwrap(), p);

        assert!(ExecProfile::from_text("not a profile").is_err());
        assert!(ExecProfile::from_text("kpm-profile v1\ndim=ten\n").is_err());
        assert!(ExecProfile::from_text("kpm-profile v1\ndim=10\n").is_err()); // missing fields
        let v2 = text.replace("kpm-profile v1", "kpm-profile v2");
        assert!(ExecProfile::from_text(&v2).is_err());
    }

    #[test]
    fn legacy_profile_lines_load_or_read_as_no_profile() {
        // A `variant=` line from before the kernel variant was retired is an
        // unknown key now: the profile still loads.
        let p = measured(1000, 6400);
        let legacy = p.to_text().replace("origin=", "variant=unrolled8\norigin=");
        assert_eq!(ExecProfile::from_text(&legacy).unwrap(), p);

        // A stored `policy=realizations` names a retired plan: the store
        // reads it as no profile, so the shape is planned afresh.
        let dir = std::env::temp_dir().join(format!("kpm-tune-legacy-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let small = prior_profile(ProbeShape { dim: 100, entries: 500, chunks: 4, threads: 8 });
        let key = small.shape.key();
        let text = small.to_text().replace("policy=rows", "policy=realizations");
        std::fs::write(profile_path(&dir, key), text).unwrap();
        let s = ProfileStore::new(8);
        s.set_dir(Some(dir.clone()));
        assert_eq!(s.get(key), None);
        assert!(s.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn small_dims_plan_one_thread_whatever_the_profile() {
        for policy in [ExecPolicy::Rows, ExecPolicy::Hybrid] {
            let mut small = measured(100, 500);
            small.policy = policy;
            small.outer = 4;
            let tile_rows = exec::resolve_tile_rows(Some(small.tile_rows));
            assert_eq!(small.plan(8), ExecPlan::Rows { threads: 1, tile_rows });
        }
    }

    #[test]
    fn plan_sanitizes_off_grid_tile_rows_and_respects_outer() {
        let mut p = measured(4096, 40960);
        p.tile_rows = 200; // off the canonical grid -> value-affecting
        match p.plan(8) {
            ExecPlan::Rows { threads, tile_rows } => {
                assert_eq!(threads, 8);
                assert_eq!(tile_rows, exec::resolve_tile_rows(None));
            }
            other => panic!("expected Rows, got {other:?}"),
        }

        p.policy = ExecPolicy::Hybrid;
        p.outer = 4;
        p.tile_rows = 2 * DEFAULT_TILE_ROWS;
        match p.plan(8) {
            ExecPlan::Hybrid { outer, inner, tile_rows } => {
                assert_eq!((outer, inner), (4, 2));
                assert_eq!(tile_rows, exec::resolve_tile_rows(Some(2 * DEFAULT_TILE_ROWS)));
            }
            other => panic!("expected Hybrid, got {other:?}"),
        }
        // A single thread can't split: collapse to Rows.
        assert!(matches!(p.plan(1), ExecPlan::Rows { threads: 1, .. }));
    }

    #[test]
    fn store_is_lru_bounded_and_clearable() {
        let s = ProfileStore::new(2);
        for i in 0..4 {
            s.insert(measured(1000 + i, 6400));
        }
        assert_eq!(s.len(), 2);
        // The two most recent shapes survive.
        assert!(s.get(measured(1002, 6400).shape.key()).is_some());
        assert!(s.get(measured(1003, 6400).shape.key()).is_some());
        assert!(s.get(measured(1000, 6400).shape.key()).is_none());
        s.clear_memory();
        assert!(s.is_empty());
    }

    #[test]
    fn disk_round_trip_promotes_and_tolerates_corruption() {
        let dir = std::env::temp_dir().join(format!("kpm-tune-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = ProfileStore::new(8);
        s.set_dir(Some(dir.clone()));
        let p = measured(1000, 6400);
        let key = p.shape.key();
        s.insert(p.clone());
        assert!(profile_path(&dir, key).is_file());

        // A fresh store (cold memory) reloads from disk.
        let s2 = ProfileStore::new(8);
        s2.set_dir(Some(dir.clone()));
        assert_eq!(s2.get(key), Some(p.clone()));
        assert_eq!(s2.len(), 1); // promoted into memory

        // Corrupt file: ignored, not fatal.
        std::fs::write(profile_path(&dir, key), "kpm-profile v1\ndim=garbage\n").unwrap();
        let s3 = ProfileStore::new(8);
        s3.set_dir(Some(dir.clone()));
        assert_eq!(s3.get(key), None);

        // A file whose content hashes to a different key is also ignored.
        let other = measured(2000, 9999);
        std::fs::write(profile_path(&dir, key), other.to_text()).unwrap();
        let s4 = ProfileStore::new(8);
        s4.set_dir(Some(dir.clone()));
        assert_eq!(s4.get(key), None);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_misses_are_memoized_once_per_shape() {
        let dir = std::env::temp_dir().join(format!("kpm-tune-memo-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let s = ProfileStore::new(8);
        s.set_dir(Some(dir.clone()));

        let p = measured(1000, 6400);
        let key = p.shape.key();
        // First lookup misses disk and memoizes the absence: writing the
        // file afterwards must NOT make the same store see it (the lookup
        // never returns to the filesystem for this shape)...
        assert_eq!(s.get(key), None);
        std::fs::write(profile_path(&dir, key), p.to_text()).unwrap();
        assert_eq!(s.get(key), None);
        // ...until something invalidates the memo: an insert of the shape,
        s.insert(p.clone());
        assert_eq!(s.get(key), Some(p.clone()));
        // a memory clear,
        s.clear_memory();
        assert_eq!(s.get(key), Some(p.clone()));
        // or re-pointing the directory.
        s.clear_memory();
        s.set_dir(None);
        assert_eq!(s.get(key), None);
        s.set_dir(Some(dir.clone()));
        assert_eq!(s.get(key), Some(p.clone()));

        assert_eq!(s.keys(), vec![key]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shape_key_is_stable_and_masking_compatible() {
        let a = ProbeShape { dim: 1000, entries: 6400, chunks: 4, threads: 8 };
        let b = ProbeShape { dim: 1000, entries: 6400, chunks: 4, threads: 8 };
        // Two jobs that serve's cache-key masking treats as equal differ
        // only in masked fields (moment count, kernel, priority, seed...)
        // none of which enter ProbeShape — identical shapes, identical keys.
        assert_eq!(a.key(), b.key());
        assert_ne!(a.key(), ProbeShape { dim: 1001, entries: 6400, chunks: 4, threads: 8 }.key());
        // Canonical string pinned: the on-disk key format is a contract.
        assert_eq!(a.canonical(), "probe/v1;dim=1000;entries=6400;chunks=4;threads=8");
    }

    #[test]
    fn prior_profile_matches_the_static_heuristic() {
        let small = prior_profile(ProbeShape { dim: 256, entries: 1000, chunks: 4, threads: 8 });
        assert_eq!(small.policy, ExecPolicy::Rows);
        assert_eq!(small.origin, ProfileOrigin::Prior);
        assert_eq!(small.plan(8), ExecPlan::Rows { threads: 1, tile_rows: exec::tile_rows() });

        let big = prior_profile(ProbeShape { dim: 4096, entries: 40960, chunks: 4, threads: 8 });
        assert_eq!(big.policy, ExecPolicy::Hybrid);
    }
}
